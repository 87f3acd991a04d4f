//! The cost ledger: what each benchmark query costs, in counts, checked
//! against the committed `COSTS.json` at the repository root.
//!
//! Counts repeat exactly where wall time does not, so this is the gate on
//! the work a plan does: rows scanned, index probes, predicate
//! evaluations, path-filter candidates and survivors, regex work, heap
//! allocations, the plan's shape and how well the planner estimated the
//! rows each step fetches and keeps.
//! A change that moves any of them fails here, and accepting it shows up
//! in review as a one-line diff per field of `COSTS.json`.
//!
//! Each suite gets a fresh database and runs its queries in a fixed
//! order, so every count depends only on that suite. Every query must
//! return the same rows with statistics on and off. On a mismatch the
//! test writes the whole actual ledger to `COSTS.actual.json` in Cargo's
//! test tmp dir, prints every differing `suite/query/field old → new`,
//! and fails. Copying that file over `COSTS.json` accepts the new costs.
//!
//! It is the only test in its binary, because it installs the counting
//! global allocator. Regex work is read from each query's own
//! `ExecStats::regex`, which no other thread can touch.

use std::collections::{BTreeMap, BTreeSet};

use obs::alloc::thread_allocs;
use obs::json::Value;
use ppf_bench::{
    dblp_queries, dblp_schema, generate_dblp, generate_xmark, xmark_queries, xmark_schema,
    DblpConfig, XMarkConfig, ABLATION_CHAINS,
};
use ppf_core::XmlDb;
use relstore::Database;
use sqlexec::{ExecOptions, Executor, QueryLimits, ResultSet, SelectStmt};

#[global_allocator]
static GLOBAL: obs::alloc::Counting = obs::alloc::Counting;

const COSTS: &str = concat!(env!("CARGO_MANIFEST_DIR"), "/../../COSTS.json");

/// The options with statistics set to `stats`.
fn with_stats(stats: bool) -> ExecOptions {
    ExecOptions { stats }
}

/// What a suite's checks read besides its ledger entries.
#[derive(Default)]
struct Checks {
    qerror_on: Vec<f64>,
    qerror_off: Vec<f64>,
    plans_changed: usize,
}

/// One suite's ledger entries (query name → field → value) and what its
/// checks read.
fn run_suite(
    schema: &xmlschema::Schema,
    doc: &xmldom::Document,
    marking: bool,
    queries: &[(&str, &str)],
) -> (Value, Checks) {
    let mut db = XmlDb::new(schema).expect("schema db");
    db.set_path_marking(marking);
    db.set_exec_options(with_stats(true));
    db.load(doc).expect("load");
    db.finalize().expect("indexes");

    let mut entries: BTreeMap<String, BTreeMap<String, Value>> = BTreeMap::new();
    let mut checks = Checks::default();
    for (name, q) in queries {
        let before = thread_allocs();
        let cold = db.query(q).expect(name);
        let allocs = thread_allocs() - before;
        let before = thread_allocs();
        db.query(q).expect(name);
        let allocs_warm = thread_allocs() - before;
        let counts = [
            ("allocs", allocs),
            ("allocs_warm", allocs_warm),
            ("dfa_fallbacks", cold.stats.regex.dfa_fallbacks),
            ("dfa_matches", cold.stats.regex.dfa_matches),
            ("index_probes", cold.stats.index_probes),
            ("path_candidates", cold.engine.path_candidates),
            ("path_survivors", cold.engine.path_survivors),
            ("predicate_evals", cold.stats.predicate_evals),
            ("regex_compiles", cold.engine.regex_compiles),
            ("rows", cold.rows.rows.len() as u64),
            ("rows_scanned", cold.stats.rows_scanned),
            ("vm_steps", cold.stats.regex.vm_steps),
        ];
        let fields = counts
            .into_iter()
            .map(|(field, n)| (field.to_string(), Value::Number(n as f64)))
            .collect();
        entries.insert(name.to_string(), fields);
    }

    // Plans and estimates once every query has run, so the learned regex
    // selectivities are those of a warmed-up engine.
    for (name, q) in queries {
        let Some(stmt) = db.translate(q).expect(name).stmt else {
            continue; // statically empty: nothing planned
        };
        let [(rows_on, on, fetched_on), (rows_off, off, _)] =
            [true, false].map(|stats| run_planned(db.db(), &stmt, stats));
        assert_eq!(rows_on, rows_off, "{name}: statistics changed the result");
        let plan = plan_signature(db.db(), &stmt, true);
        checks.qerror_on.push(on);
        checks.qerror_off.push(off);
        if plan != plan_signature(db.db(), &stmt, false) {
            checks.plans_changed += 1;
        }
        let fields = entries.get_mut(*name).expect("ran above");
        fields.insert("fetched_qerror_stats_on".into(), rounded(fetched_on));
        fields.insert("plan".into(), Value::String(plan));
        fields.insert("qerror_stats_on".into(), rounded(on));
        fields.insert("qerror_stats_off".into(), rounded(off));
    }
    let entries = entries
        .into_iter()
        .map(|(name, fields)| (name, Value::Object(fields)))
        .collect();
    (Value::Object(entries), checks)
}

/// The result of one run of `stmt` planned with statistics set to
/// `stats`, and the run's median per-step q-errors (1.0 when no step
/// ran) of the rows each step keeps and of the rows its access fetches.
fn run_planned(db: &Database, stmt: &SelectStmt, stats: bool) -> (ResultSet, f64, f64) {
    let exec = Executor::with_options(db, with_stats(stats));
    let result = exec.run(stmt).expect("statement runs");
    let (mut kept, mut fetched) = (Vec::new(), Vec::new());
    exec.for_each_step(|plan, ops| {
        for (step, op) in plan.steps.iter().zip(ops) {
            if op.invocations > 0 {
                let n = op.invocations as f64;
                kept.push(sqlexec::qerror(step.est_rows, op.rows_out as f64 / n));
                fetched.push(sqlexec::qerror(step.est_fetched, op.rows_in as f64 / n));
            }
        }
    });
    (result, median(&mut kept), median(&mut fetched))
}

fn median(xs: &mut [f64]) -> f64 {
    if xs.is_empty() {
        return 1.0;
    }
    xs.sort_by(f64::total_cmp);
    let n = xs.len();
    if n % 2 == 1 {
        xs[n / 2]
    } else {
        (xs[n / 2 - 1] + xs[n / 2]) / 2.0
    }
}

/// Three decimals: enough to see an estimate move, and the value the
/// ledger's text round-trips to.
fn rounded(x: f64) -> Value {
    Value::Number((x * 1000.0).round() / 1000.0)
}

/// The plan as EXPLAIN ANALYZE renders it, with the estimates and the
/// actuals stripped, so two signatures differ exactly when join order,
/// access paths or filter placement differ.
fn plan_signature(db: &Database, stmt: &SelectStmt, stats: bool) -> String {
    let text =
        sqlexec::explain_analyze_with_limits(db, stmt, QueryLimits::none(), with_stats(stats))
            .expect("explain analyze");
    text.lines()
        .filter(|l| !l.starts_with("actual: "))
        .map(|l| l.split(" (est ").next().unwrap_or(l))
        .collect::<Vec<_>>()
        .join("\n")
}

/// The ledger's text: objects one member per line in key order, so a
/// changed count is a one-line diff.
fn render(v: &Value, indent: usize, out: &mut String) {
    match v {
        Value::Object(members) => {
            out.push_str("{\n");
            for (i, (key, value)) in members.iter().enumerate() {
                out.push_str(&" ".repeat(indent + 2));
                out.push_str(&scalar(&Value::String(key.clone())));
                out.push_str(": ");
                render(value, indent + 2, out);
                out.push_str(if i + 1 < members.len() { ",\n" } else { "\n" });
            }
            out.push_str(&" ".repeat(indent));
            out.push('}');
        }
        leaf => out.push_str(&scalar(leaf)),
    }
}

/// A leaf value in JSON, on one line.
fn scalar(v: &Value) -> String {
    let mut w = obs::json::Writer::new();
    match v {
        Value::Number(n) => w.float(*n),
        Value::String(s) => w.string(s),
        Value::Bool(b) => w.bool(*b),
        _ => w.null(),
    }
    w.finish()
}

/// Every leaf that differs between `old` and `new`, as
/// `suite/query/field old → new`.
fn diff(path: &str, old: Option<&Value>, new: Option<&Value>, out: &mut Vec<String>) {
    let empty = BTreeMap::new();
    match (members(old, &empty), members(new, &empty)) {
        (Some(a), Some(b)) => {
            for key in a.keys().chain(b.keys()).collect::<BTreeSet<_>>() {
                let path = if path.is_empty() {
                    key.clone()
                } else {
                    format!("{path}/{key}")
                };
                diff(&path, a.get(key), b.get(key), out);
            }
        }
        _ if old != new => {
            let show = |v: Option<&Value>| v.map_or_else(|| "(absent)".to_string(), scalar);
            out.push(format!("{path} {} → {}", show(old), show(new)));
        }
        _ => {}
    }
}

/// The members of an object (none for an absent value), or `None` for a
/// leaf.
fn members<'a>(
    v: Option<&'a Value>,
    empty: &'a BTreeMap<String, Value>,
) -> Option<&'a BTreeMap<String, Value>> {
    match v {
        Some(Value::Object(m)) => Some(m),
        None => Some(empty),
        Some(_) => None,
    }
}

#[test]
fn costs_match_the_committed_ledger() {
    let xmark_doc = generate_xmark(XMarkConfig {
        scale: 0.05,
        seed: 42,
    });
    let dblp_doc = generate_dblp(DblpConfig {
        scale: 0.05,
        seed: 7,
    });
    let mut xmark = xmark_queries();
    // Two of the ablation's chains are XMark queries verbatim; run again,
    // they would only hit the query cache.
    let chains: Vec<_> = ABLATION_CHAINS
        .into_iter()
        .filter(|(_, q)| !xmark.iter().any(|(_, x)| x == q))
        .collect();
    xmark.extend(chains);

    let schema = xmark_schema();
    let runs = [
        ("xmark", run_suite(&schema, &xmark_doc, true, &xmark)),
        (
            "xmark_unmarked",
            run_suite(&schema, &xmark_doc, false, &xmark),
        ),
        (
            "dblp",
            run_suite(&dblp_schema(), &dblp_doc, true, &dblp_queries()),
        ),
    ];
    let mut suites = BTreeMap::new();
    let mut checks = Vec::new();
    for (suite, (entries, suite_checks)) in runs {
        suites.insert(suite.to_string(), entries);
        checks.push((suite, suite_checks));
    }
    let ledger = Value::Object(suites);
    let mut actual = String::new();
    render(&ledger, 0, &mut actual);
    actual.push('\n');

    let committed = std::fs::read_to_string(COSTS).unwrap_or_default();
    let mut diffs = Vec::new();
    if actual != committed {
        let path = concat!(env!("CARGO_TARGET_TMPDIR"), "/COSTS.actual.json");
        std::fs::write(path, &actual).expect("write the actual ledger");
        diff(
            "",
            obs::json::parse(&committed).ok().as_ref(),
            Some(&ledger),
            &mut diffs,
        );
        for d in &diffs {
            eprintln!("{d}");
        }
        eprintln!("actual ledger written to {path}; copy it over COSTS.json to accept it");
    }

    // Statistics must pay for themselves in every suite, whatever the
    // ledger says.
    for (suite, c) in &mut checks {
        let on = median(&mut c.qerror_on);
        let off = median(&mut c.qerror_off);
        assert!(
            on < off,
            "{suite}: statistics did not lower the median q-error: on {on:.3}, off {off:.3}"
        );
        assert!(
            c.plans_changed > 0,
            "{suite}: no plan changed because of statistics"
        );
    }
    assert!(
        actual == committed,
        "COSTS.json differs from this run: {} field(s) changed",
        diffs.len()
    );
}
