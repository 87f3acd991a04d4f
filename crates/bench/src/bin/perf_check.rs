//! Performance regression gate for the hot-path work: runs the fig4
//! (XMark) workload twice — once with every optimisation disabled (lazy
//! DFA off, sort-merge joins off, thread caches cleared per run) and
//! once with the defaults — and emits `BENCH_2.json` with per-query
//! timings and observability counters.
//!
//! Exit is non-zero when the optimised configuration fails its
//! invariants:
//!   * Pike-VM steps spent on path filtering must drop vs. the
//!     de-optimised run (the DFA answers those matches in O(bytes)),
//!     and vs. the committed baseline when one is present;
//!   * warm repeats must skip parse/translate/plan entirely.
//!
//! `--write-baseline` records the de-optimised measurements into
//! `crates/bench/baselines/perf_check_baseline.json` for future runs to
//! compare against.

use std::fmt::Write as _;
use std::time::Instant;

use ppf_bench::{generate_xmark, xmark_queries, xmark_schema, XMarkConfig};
use ppf_core::XmlDb;
use sqlexec::{ExecOptions, MergeMode};

const BASELINE_PATH: &str = "crates/bench/baselines/perf_check_baseline.json";
const OUTPUT_PATH: &str = "BENCH_2.json";

/// The `ablation_pathfilter` bench's query set (filter-heavy chains),
/// measured alongside fig4 so the hot-path gains on both workloads land
/// in one report.
const ABLATION_QUERIES: &[(&str, &str)] = &[
    (
        "deep_chain",
        "/site/open_auctions/open_auction/interval/start",
    ),
    ("person_chain", "/site/people/person/address/city"),
    (
        "pred_chain",
        "/site/people/person[address and (phone or homepage)]",
    ),
    ("recursive", "//parlist/listitem//keyword"),
    ("wildcard", "/site/regions/*/item"),
];

fn workload() -> Vec<(&'static str, &'static str, &'static str)> {
    let mut qs: Vec<(&'static str, &'static str, &'static str)> = xmark_queries()
        .into_iter()
        .map(|(n, q)| ("fig4", n, q))
        .collect();
    qs.extend(ABLATION_QUERIES.iter().map(|&(n, q)| ("ablation", n, q)));
    qs
}

struct Measurement {
    group: &'static str,
    name: &'static str,
    query: &'static str,
    rows: usize,
    cold_ns: u64,
    warm_ns: u64,
    base_cold_ns: u64,
    vm_steps: u64,
    base_vm_steps: u64,
    dfa_matches: u64,
    dfa_fallbacks: u64,
    merge_probes: u64,
    path_memo_hits_warm: u64,
    warm_skips_frontend: bool,
}

fn bench_scale() -> f64 {
    std::env::var("PPF_BENCH_SCALE")
        .ok()
        .and_then(|s| s.parse().ok())
        .unwrap_or(0.1)
}

fn build_db(doc: &xmldom::Document, opts: ExecOptions) -> XmlDb {
    let mut db = XmlDb::new(&xmark_schema()).expect("schema db");
    db.set_exec_options(opts);
    // The §4.5 marking statically removes most path filters from this
    // workload, leaving nothing for the filter hot path to do. This
    // gate measures that hot path, so — like the path-filter ablation —
    // it keeps every REGEXP_LIKE in the generated SQL.
    db.set_path_marking(false);
    db.load(doc).expect("load");
    db.finalize().expect("indexes");
    db
}

/// Separately-loaded stores per configuration, several per side so the
/// noisy one-shot cold measurement can take a min (the engine caches
/// plans per XPath per store, so a query's first run on each store is a
/// genuine cold run).
const COLD_ROUNDS: usize = 3;

fn measure(doc: &xmldom::Document) -> Vec<Measurement> {
    // De-optimised: no lazy DFA, no merge joins, no compiled-regex cache
    // or path-filter memo (compile per evaluation — the original engine
    // behaviour).
    let base = ExecOptions {
        dfa: false,
        merge: MergeMode::ForceOff,
        filter_caches: false,
        ..ExecOptions::default()
    };
    let base_dbs: Vec<XmlDb> = (0..COLD_ROUNDS).map(|_| build_db(doc, base)).collect();
    let opt_dbs: Vec<XmlDb> = (0..COLD_ROUNDS)
        .map(|_| build_db(doc, ExecOptions::default()))
        .collect();
    let mut out = Vec::new();

    for (group, name, query) in workload() {
        // De-optimised, caches cleared.
        let mut base_cold_ns = u64::MAX;
        let mut base_rows = 0;
        let mut base_steps = 0;
        for db in &base_dbs {
            sqlexec::clear_filter_caches(db.db());
            let t0 = Instant::now();
            let r = db.query(query).expect(name);
            let ns = t0.elapsed().as_nanos() as u64;
            if ns < base_cold_ns {
                base_cold_ns = ns;
                base_steps = r.engine.vm_steps;
            }
            base_rows = r.rows.rows.len();
        }

        // Optimised defaults, measured cold (first run of this XPath on
        // each store, caches cleared) and warm (best of 3).
        let mut cold_ns = u64::MAX;
        let mut cold = None;
        for db in &opt_dbs {
            sqlexec::clear_filter_caches(db.db());
            let t0 = Instant::now();
            let r = db.query(query).expect(name);
            let ns = t0.elapsed().as_nanos() as u64;
            if ns < cold_ns {
                cold_ns = ns;
                cold = Some(r);
            }
        }
        let cold = cold.expect("at least one cold round");

        let mut warm_ns = u64::MAX;
        let mut warm = cold.engine;
        for _ in 0..3 {
            let t0 = Instant::now();
            let r = opt_dbs[0].query(query).expect(name);
            warm_ns = warm_ns.min(t0.elapsed().as_nanos() as u64);
            warm = r.engine;
        }

        assert_eq!(base_rows, cold.rows.rows.len(), "{name}");
        out.push(Measurement {
            group,
            name,
            query,
            rows: cold.rows.rows.len(),
            cold_ns,
            warm_ns,
            base_cold_ns,
            vm_steps: cold.engine.vm_steps,
            base_vm_steps: base_steps,
            dfa_matches: cold.engine.dfa_matches,
            dfa_fallbacks: cold.engine.dfa_fallbacks,
            merge_probes: cold.engine.merge_probes,
            path_memo_hits_warm: warm.path_memo_hits,
            warm_skips_frontend: warm.plan_cache_hits == 1
                && warm.parse_ns == 0
                && warm.translate_ns == 0
                && warm.plan_ns == 0,
        });
    }
    out
}

fn render_json(scale: f64, ms: &[Measurement]) -> String {
    let mut s = String::new();
    let total_steps: u64 = ms.iter().map(|m| m.vm_steps).sum();
    let total_base_steps: u64 = ms.iter().map(|m| m.base_vm_steps).sum();
    let twice = |group: &str| {
        ms.iter()
            .filter(|m| m.group == group && m.base_cold_ns >= 2 * m.cold_ns)
            .count()
    };
    let count = |group: &str| ms.iter().filter(|m| m.group == group).count();
    writeln!(s, "{{").unwrap();
    writeln!(s, "  \"bench\": \"perf_check\",").unwrap();
    writeln!(s, "  \"scale\": {scale},").unwrap();
    writeln!(s, "  \"path_marking\": false,").unwrap();
    writeln!(s, "  \"totals\": {{").unwrap();
    writeln!(s, "    \"queries\": {},", ms.len()).unwrap();
    writeln!(s, "    \"vm_steps\": {total_steps},").unwrap();
    writeln!(s, "    \"base_vm_steps\": {total_base_steps},").unwrap();
    writeln!(s, "    \"fig4_queries\": {},", count("fig4")).unwrap();
    writeln!(s, "    \"fig4_at_least_2x_cold\": {},", twice("fig4")).unwrap();
    writeln!(s, "    \"ablation_queries\": {},", count("ablation")).unwrap();
    writeln!(
        s,
        "    \"ablation_at_least_2x_cold\": {}",
        twice("ablation")
    )
    .unwrap();
    writeln!(s, "  }},").unwrap();
    writeln!(s, "  \"queries\": [").unwrap();
    for (i, m) in ms.iter().enumerate() {
        let speedup = m.base_cold_ns as f64 / m.cold_ns.max(1) as f64;
        writeln!(s, "    {{").unwrap();
        writeln!(s, "      \"group\": \"{}\",", m.group).unwrap();
        writeln!(s, "      \"name\": \"{}\",", m.name).unwrap();
        writeln!(s, "      \"query\": \"{}\",", m.query.replace('\"', "\\\"")).unwrap();
        writeln!(s, "      \"rows\": {},", m.rows).unwrap();
        writeln!(s, "      \"cold_ns\": {},", m.cold_ns).unwrap();
        writeln!(s, "      \"warm_ns\": {},", m.warm_ns).unwrap();
        writeln!(s, "      \"base_cold_ns\": {},", m.base_cold_ns).unwrap();
        writeln!(s, "      \"speedup_cold\": {speedup:.3},").unwrap();
        writeln!(s, "      \"vm_steps\": {},", m.vm_steps).unwrap();
        writeln!(s, "      \"base_vm_steps\": {},", m.base_vm_steps).unwrap();
        writeln!(s, "      \"dfa_matches\": {},", m.dfa_matches).unwrap();
        writeln!(s, "      \"dfa_fallbacks\": {},", m.dfa_fallbacks).unwrap();
        writeln!(s, "      \"merge_probes\": {},", m.merge_probes).unwrap();
        writeln!(
            s,
            "      \"path_memo_hits_warm\": {},",
            m.path_memo_hits_warm
        )
        .unwrap();
        writeln!(
            s,
            "      \"warm_skips_frontend\": {}",
            m.warm_skips_frontend
        )
        .unwrap();
        writeln!(s, "    }}{}", if i + 1 < ms.len() { "," } else { "" }).unwrap();
    }
    writeln!(s, "  ]").unwrap();
    writeln!(s, "}}").unwrap();
    s
}

/// Minimal extraction of `"key": <int>` totals from the baseline JSON —
/// enough to compare without a JSON parser dependency.
fn extract_u64(json: &str, key: &str) -> Option<u64> {
    let needle = format!("\"{key}\":");
    let at = json.find(&needle)? + needle.len();
    let rest = json[at..].trim_start();
    let end = rest
        .find(|c: char| !c.is_ascii_digit())
        .unwrap_or(rest.len());
    rest[..end].parse().ok()
}

fn extract_f64(json: &str, key: &str) -> Option<f64> {
    let needle = format!("\"{key}\":");
    let at = json.find(&needle)? + needle.len();
    let rest = json[at..].trim_start();
    let end = rest
        .find(|c: char| !c.is_ascii_digit() && c != '.')
        .unwrap_or(rest.len());
    rest[..end].parse().ok()
}

fn main() {
    let write_baseline = std::env::args().any(|a| a == "--write-baseline");
    let scale = bench_scale();
    let doc = generate_xmark(XMarkConfig { scale, seed: 42 });
    let ms = measure(&doc);

    let json = render_json(scale, &ms);
    std::fs::write(OUTPUT_PATH, &json).expect("write BENCH_2.json");

    let total_steps: u64 = ms.iter().map(|m| m.vm_steps).sum();
    let total_base_steps: u64 = ms.iter().map(|m| m.base_vm_steps).sum();
    println!("perf_check: scale={scale} queries={}", ms.len());
    println!("  pike vm_steps: optimised={total_steps} de-optimised={total_base_steps}");
    for group in ["fig4", "ablation"] {
        let n = ms.iter().filter(|m| m.group == group).count();
        let twice = ms
            .iter()
            .filter(|m| m.group == group && m.base_cold_ns >= 2 * m.cold_ns)
            .count();
        println!("  {group}: cold >=2x speedup on {twice}/{n} queries");
    }
    for m in &ms {
        println!(
            "  {:<12} cold {:>9}ns warm {:>9}ns base {:>9}ns steps {:>6} (base {:>6}) dfa {:>5}",
            m.name,
            m.cold_ns,
            m.warm_ns,
            m.base_cold_ns,
            m.vm_steps,
            m.base_vm_steps,
            m.dfa_matches
        );
    }

    if write_baseline {
        std::fs::create_dir_all("crates/bench/baselines").expect("baseline dir");
        std::fs::write(BASELINE_PATH, &json).expect("write baseline");
        println!("baseline written to {BASELINE_PATH}");
        return;
    }

    let mut failures = Vec::new();
    if total_base_steps > 0 && total_steps >= total_base_steps {
        failures.push(format!(
            "pike vm_steps did not drop: optimised {total_steps} >= de-optimised {total_base_steps}"
        ));
    }
    for m in &ms {
        if !m.warm_skips_frontend {
            failures.push(format!(
                "{}: warm repeat did not skip parse/translate/plan",
                m.name
            ));
        }
    }
    if let Ok(baseline) = std::fs::read_to_string(BASELINE_PATH) {
        let base_scale = extract_f64(&baseline, "scale");
        if base_scale == Some(scale) {
            if let Some(committed) = extract_u64(&baseline, "base_vm_steps") {
                if committed > 0 && total_steps >= committed {
                    failures.push(format!(
                        "pike vm_steps did not drop vs committed baseline: {total_steps} >= {committed}"
                    ));
                }
            }
        } else {
            println!(
                "note: baseline scale {base_scale:?} != run scale {scale}; skipping baseline comparison"
            );
        }
    } else {
        println!("note: no committed baseline at {BASELINE_PATH}; skipping baseline comparison");
    }

    if failures.is_empty() {
        println!("perf_check: OK (BENCH_2.json written)");
    } else {
        for f in &failures {
            eprintln!("perf_check FAILED: {f}");
        }
        std::process::exit(1);
    }
}
