//! Regenerate the paper's result tables (Appendix C + Figures 3/4) and
//! its two ablations.
//!
//! ```text
//! cargo run --release -p ppf-bench --bin paper_tables [small_scale] [reps]
//! ```
//!
//! Produces three markdown tables: XMark small, XMark large (10× small —
//! the paper's 12 MB vs 113 MB ratio), and DBLP, with the per-query
//! cardinality and the median wall-clock per system. `N/A` marks queries
//! a system does not support (the commercial-proxy baseline supports only
//! Q23/Q24/QA, like the paper's commercial RDBMS). Two more tables time
//! the ablations on XMark small: the §4.5 path marking on vs off, and
//! §4.2's foreign-key joins vs Dewey joins for single child/parent steps;
//! each asserts that both sides return the same nodes.

use ppf_bench::{
    build_dblp, build_xmark, dblp_queries, run_query, run_query_counted, time_median, time_query,
    xmark_queries, BenchData, System, ABLATION_CHAINS,
};
use ppf_core::XmlDb;

/// §4.2 ablation queries: child chains broken by predicates, forcing a
/// join per PPF, and a parent step.
const CHILD_STEP_QUERIES: [(&str, &str); 3] = [
    (
        "bidder_ref",
        "/site/open_auctions/open_auction[@id='open_auction0']/bidder/personref",
    ),
    ("parent_step", "//personref/parent::bidder"),
    ("pred_child", "/site/people/person[profile]/watches/watch"),
];

fn fmt_duration(d: std::time::Duration) -> String {
    let us = d.as_micros();
    if us < 1000 {
        format!("{us}µs")
    } else if us < 1_000_000 {
        format!("{:.2}ms", us as f64 / 1000.0)
    } else {
        format!("{:.2}s", us as f64 / 1_000_000.0)
    }
}

fn table(title: &str, data: &BenchData, queries: &[(&str, &str)], reps: usize) {
    println!("\n## {title}");
    println!(
        "(document: {} elements, {} total rows in the schema-aware store)\n",
        data.doc.element_count(),
        data.ppf.db().total_rows(),
    );
    print!("| query | # nodes |");
    for s in System::ALL {
        print!(" {} |", s.label());
    }
    println!();
    print!("|---|---|");
    for _ in System::ALL {
        print!("---|");
    }
    println!();
    for (name, q) in queries {
        let nodes = run_query(data, System::Native, q)
            .map(|n| n.to_string())
            .unwrap_or_else(|_| "?".to_string());
        print!("| {name} | {nodes} |");
        for s in System::ALL {
            match time_query(data, s, q, reps) {
                Ok((_, d)) => print!(" {} |", fmt_duration(d)),
                Err(_) => print!(" N/A |"),
            }
        }
        println!();
    }
    counter_table(data, queries);
}

/// Companion table: the operator counters behind the PPF timings, so the
/// tables explain the wall-clock (how many rows were touched, how many
/// path-filter candidates survived) rather than just reporting it.
fn counter_table(data: &BenchData, queries: &[(&str, &str)]) {
    println!("\n### PPF operator counters (schema-aware vs Edge-like)\n");
    println!(
        "| query | system | rows scanned | index probes | path filters | \
         candidates → survivors | VM steps | par tasks/chunks (threads) |"
    );
    println!("|---|---|---|---|---|---|---|---|");
    for (name, q) in queries {
        for s in [System::Ppf, System::EdgePpf] {
            match run_query_counted(data, s, q) {
                Ok(c) => println!(
                    "| {name} | {} | {} | {} | {} | {} → {} | {} | {}/{} ({}) |",
                    s.label(),
                    c.rows_scanned,
                    c.index_probes,
                    c.path_filters,
                    c.path_candidates,
                    c.path_survivors,
                    c.vm_steps,
                    c.par_tasks,
                    c.par_chunks,
                    c.pool_threads,
                ),
                Err(_) => println!("| {name} | {} | N/A | | | | | |", s.label()),
            }
        }
    }
}

/// A schema-aware store over `data`'s document with one translation
/// option changed by `configure` before loading.
fn xmark_db(data: &BenchData, configure: impl FnOnce(&mut XmlDb)) -> XmlDb {
    let mut db = XmlDb::new(&data.schema).expect("schema db");
    configure(&mut db);
    db.load(&data.doc).expect("load");
    db.finalize().expect("indexes");
    db
}

/// An ablation: each query's median time on the two stores, after
/// asserting that both return the same nodes.
fn ablation_table(
    title: &str,
    labels: [&str; 2],
    stores: [&XmlDb; 2],
    queries: &[(&str, &str)],
    reps: usize,
) {
    println!("\n## {title}\n");
    println!("| query | # nodes | {} | {} |", labels[0], labels[1]);
    println!("|---|---|---|---|");
    for (name, q) in queries {
        let ids = stores.map(|db| db.query(q).expect(name).ids());
        assert_eq!(ids[0], ids[1], "{title}: {name} returns different nodes");
        let times = stores.map(|db| {
            let (_, d) = time_median(reps, || db.query(q).map_err(|e| e.to_string())).expect(name);
            fmt_duration(d)
        });
        println!(
            "| {name} | {} | {} | {} |",
            ids[0].len(),
            times[0],
            times[1]
        );
    }
}

fn main() {
    let args: Vec<String> = std::env::args().collect();
    let small_scale: f64 = args.get(1).and_then(|s| s.parse().ok()).unwrap_or(0.25);
    let reps: usize = args.get(2).and_then(|s| s.parse().ok()).unwrap_or(5);
    let large_scale = small_scale * 10.0;

    eprintln!("building XMark small (scale {small_scale})...");
    let small = build_xmark(small_scale, 42);
    table(
        &format!("XMark small (scale {small_scale})"),
        &small,
        &xmark_queries(),
        reps,
    );
    ablation_table(
        "E8: §4.5 path marking (XMark small)",
        ["marking on", "marking off"],
        [
            &small.ppf,
            &xmark_db(&small, |db| db.set_path_marking(false)),
        ],
        &ABLATION_CHAINS,
        reps,
    );
    ablation_table(
        "E9: §4.2 FK vs Dewey joins (XMark small)",
        ["FK joins", "Dewey joins"],
        [&small.ppf, &xmark_db(&small, |db| db.set_fk_joins(false))],
        &CHILD_STEP_QUERIES,
        reps,
    );
    drop(small);

    eprintln!("building XMark large (scale {large_scale})...");
    let large = build_xmark(large_scale, 42);
    table(
        &format!("XMark large (scale {large_scale})"),
        &large,
        &xmark_queries(),
        reps,
    );
    drop(large);

    eprintln!("building DBLP (scale {})...", small_scale);
    let dblp = build_dblp(small_scale, 42);
    table(
        &format!("DBLP (scale {small_scale})"),
        &dblp,
        &dblp_queries(),
        reps,
    );
}
