//! Cross-crate integration: generate → validate → shred into three
//! stores → translate → execute → compare all systems against the native
//! evaluator, on both benchmark workloads.

use ppf_bench::{
    build_dblp, build_xmark, check_agreement, dblp_queries, run_query, xmark_queries, System,
};

#[test]
fn xmark_pipeline_all_systems_agree() {
    let data = build_xmark(0.05, 42);
    xmark::xmark_schema()
        .validate(&data.doc)
        .expect("generated document validates");
    for (name, q) in xmark_queries() {
        let expected = check_agreement(&data, q).unwrap_or_else(|e| panic!("{name}: {e}"));
        // The accelerator reports owner elements for trailing text()
        // steps (Q21), so compare it only on element queries.
        if name != "Q21" {
            let accel =
                run_query(&data, System::Accel, q).unwrap_or_else(|e| panic!("{name} accel: {e}"));
            assert_eq!(accel, expected, "{name}: accelerator disagrees");
        }
    }
}

#[test]
fn dblp_pipeline_all_systems_agree() {
    let data = build_dblp(0.05, 42);
    xmark::dblp_schema()
        .validate(&data.doc)
        .expect("generated document validates");
    for (name, q) in dblp_queries() {
        let expected = check_agreement(&data, q).unwrap_or_else(|e| panic!("{name}: {e}"));
        let accel =
            run_query(&data, System::Accel, q).unwrap_or_else(|e| panic!("{name} accel: {e}"));
        assert_eq!(accel, expected, "{name}: accelerator disagrees");
    }
}

/// Run every workload query with the sort-merge structural join forced
/// off, then forced on, on one build, and require identical element ids
/// (document order included). Switching options drops the cached plans,
/// so the second pass plans afresh, which the merge-probe count checks.
fn assert_merge_equivalence(mut data: ppf_bench::BenchData, queries: &[(&str, &str)]) {
    let merge = |merge| ppf_core::ExecOptions {
        merge,
        ..ppf_core::ExecOptions::default()
    };
    data.ppf
        .set_exec_options(merge(sqlexec::MergeMode::ForceOff));
    let nl: Vec<Vec<i64>> = queries
        .iter()
        .map(|(name, q)| {
            data.ppf
                .query(q)
                .unwrap_or_else(|e| panic!("{name}: {e}"))
                .ids()
        })
        .collect();

    data.ppf
        .set_exec_options(merge(sqlexec::MergeMode::ForceOn));
    let mut merge_probes = 0u64;
    for ((name, q), expected) in queries.iter().zip(&nl) {
        let r = data.ppf.query(q).unwrap_or_else(|e| panic!("{name}: {e}"));
        merge_probes += r.stats.merge_probes;
        assert_eq!(&r.ids(), expected, "{name}: merge join changed the result");
    }
    assert!(
        merge_probes > 0,
        "forcing merge must exercise the merge cursor at least once"
    );
}

#[test]
fn xmark_merge_join_matches_index_nested_loop() {
    assert_merge_equivalence(build_xmark(0.03, 7), &xmark_queries());
}

#[test]
fn dblp_merge_join_matches_index_nested_loop() {
    assert_merge_equivalence(build_dblp(0.05, 7), &dblp_queries());
}

#[test]
fn naive_baseline_covers_the_paper_subset() {
    // The commercial-RDBMS proxy supports Q23/Q24/QA (like the paper) and
    // agrees with the native evaluator on them.
    let data = build_xmark(0.05, 42);
    for name in ["Q23", "Q24", "QA"] {
        let q = xmark_queries()
            .into_iter()
            .find(|(n, _)| *n == name)
            .expect("query exists")
            .1;
        let expected = run_query(&data, System::Native, q).expect("native");
        let naive = run_query(&data, System::Naive, q)
            .unwrap_or_else(|e| panic!("{name} must be supported: {e}"));
        assert_eq!(naive, expected, "{name}: naive disagrees");
    }
    // ...and rejects the axis-rich rest.
    for name in ["Q3", "Q4", "Q6", "Q9", "Q10"] {
        let q = xmark_queries()
            .into_iter()
            .find(|(n, _)| *n == name)
            .expect("query exists")
            .1;
        assert!(
            run_query(&data, System::Naive, q).is_err(),
            "{name} should be unsupported by the naive baseline"
        );
    }
}

#[test]
fn path_index_stays_small() {
    // §3.1: "the total number of distinct paths is expected to be much
    // smaller than the total number of nodes".
    let data = build_xmark(0.1, 42);
    let paths = data.ppf.db().table("Paths").expect("Paths").len();
    let nodes = data.doc.element_count();
    assert!(
        paths * 10 < nodes,
        "expected paths ({paths}) ≪ nodes ({nodes})"
    );
    // The path count saturates: growing the document 4× should barely
    // change it (recursive parlist nesting contributes a bounded set).
    let bigger = build_xmark(0.4, 42);
    let bigger_paths = bigger.ppf.db().table("Paths").expect("Paths").len();
    assert!(
        bigger_paths < paths * 2,
        "paths should saturate: {paths} → {bigger_paths}"
    );
}

#[test]
fn ppf_joins_fewer_relations_than_accelerator() {
    // The paper's core claim, measured structurally: across the XMark
    // workload, the PPF FROM-lists are never longer than the
    // accelerator's, and strictly shorter in total.
    let data = build_xmark(0.02, 42);
    let froms = |sql: &str| -> usize {
        sql.split("from ")
            .skip(1)
            .map(|rest| {
                let upto = rest.find(" where ").unwrap_or(rest.len());
                rest[..upto].split(',').count()
            })
            .sum()
    };
    let mut ppf_total = 0usize;
    let mut accel_total = 0usize;
    for (_name, q) in xmark_queries() {
        let (Ok(Some(p)), Ok(a)) = (data.ppf.sql_for(q), data.accel.sql_for(q)) else {
            continue;
        };
        ppf_total += froms(&p);
        accel_total += froms(&a);
    }
    assert!(
        ppf_total < accel_total,
        "PPF joined {ppf_total} relations vs accelerator {accel_total}"
    );
}

#[test]
fn execution_stats_show_fewer_scans_for_ppf() {
    // Not just faster by the clock: the engine's counters show PPF reads
    // fewer rows than the Edge-like variant on structural-join queries.
    let data = build_xmark(0.05, 42);
    let q = "//keyword/ancestor::listitem"; // Q6
    let ppf = data.ppf.query(q).expect("ppf");
    let edge = data.edge.query(q).expect("edge");
    assert!(
        ppf.stats.rows_scanned < edge.stats.rows_scanned,
        "ppf scanned {} rows, edge scanned {}",
        ppf.stats.rows_scanned,
        edge.stats.rows_scanned
    );
}
