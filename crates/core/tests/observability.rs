//! Tests for the instrumented query pipeline: the five-phase span tree
//! returned by `query_traced`, the `EngineStats` work counters, and the
//! `EXPLAIN ANALYZE` golden rendering over the Figure-1 corpus.

use ppf_core::{EdgeDb, XmlDb};
use sqlexec::explain_analyze;

fn figure1_xml() -> &'static str {
    "<A x='4'>\
       <B><C><D x='1'>9</D></C><C><E><F>1</F><F>2</F></E></C><G/></B>\
       <B><G><G/></G></B>\
     </A>"
}

fn figure1_db() -> XmlDb {
    let schema = xmlschema::figure1_schema();
    let mut db = XmlDb::new(&schema).unwrap();
    db.load_xml(figure1_xml()).unwrap();
    db.finalize().unwrap();
    db
}

const PHASES: [&str; 5] = ["parse", "translate", "plan", "execute", "publish"];

#[test]
fn traced_query_covers_all_five_phases() {
    let db = figure1_db();
    let (result, trace) = db.query_traced("/A/B/C/D").unwrap();
    assert_eq!(result.ids().len(), 1);

    let root = trace.span_named("query").expect("root span");
    assert_eq!(root.parent, None);
    for phase in PHASES {
        let span = trace
            .span_named(phase)
            .unwrap_or_else(|| panic!("trace must contain a `{phase}` span"));
        assert_eq!(
            span.parent.map(|p| p.index()),
            Some(0),
            "{phase} under root"
        );
    }
    // Phases appear in pipeline order.
    let order: Vec<&str> = trace
        .spans()
        .iter()
        .skip(1)
        .map(|s| s.name.as_str())
        .collect();
    assert_eq!(order, PHASES);
}

#[test]
fn traced_query_records_engine_work_counters() {
    let mut db = figure1_db();
    // Disable the §4.5 marking so the path filter is kept and the regex
    // VM provably runs.
    db.set_path_marking(false);
    let (result, trace) = db.query_traced("//C//F").unwrap();
    assert_eq!(result.ids().len(), 2);

    let e = &result.engine;
    // `//C//F` is one holistic PPF (a single path-index filter covers it).
    assert!(e.ppf_count >= 1, "{e:?}");
    assert_eq!(e.union_branches, 1, "{e:?}");
    assert!(e.path_filters >= 1, "{e:?}");
    assert!(e.path_candidates > 0, "{e:?}");
    assert!(
        e.path_survivors <= e.path_candidates,
        "survivors cannot exceed candidates: {e:?}"
    );
    assert!(
        e.vm_match_calls > 0,
        "path filter must run the regex VM: {e:?}"
    );
    // Matches are answered either by the lazy DFA (O(bytes), no Pike-VM
    // thread dispatches) or by the Pike VM fallback; either way the
    // regex engine must have done real work.
    assert!(e.vm_steps + e.dfa_matches > 0, "{e:?}");
    assert!(e.join_rows_in >= e.join_rows_out, "{e:?}");

    // The execute span carries the same counters.
    let exec_span = trace.span_named("execute").expect("execute span");
    let counter = |name: &str| {
        exec_span
            .counters
            .iter()
            .find(|(n, _)| n == name)
            .map(|(_, v)| *v)
            .unwrap_or_else(|| panic!("execute span has no `{name}` counter"))
    };
    assert_eq!(counter("path_candidates"), e.path_candidates);
    assert_eq!(counter("path_survivors"), e.path_survivors);
    assert_eq!(counter("vm_match_calls"), e.vm_match_calls);
    assert_eq!(counter("rows_scanned"), result.stats.rows_scanned);
}

#[test]
fn statically_empty_query_still_traces_all_phases() {
    let db = figure1_db();
    // `Z` is not in the Figure-1 schema: translation proves it empty.
    let (result, trace) = db.query_traced("/A/Z").unwrap();
    assert!(result.rows.rows.is_empty());
    assert!(result.sql.is_none());
    for phase in PHASES {
        assert!(trace.span_named(phase).is_some(), "missing `{phase}`");
    }
}

#[test]
fn traced_query_trace_is_valid_json() {
    let db = figure1_db();
    let (_, trace) = db.query_traced("//E[F=1]").unwrap();
    let v = obs::json::parse(&trace.to_json()).expect("valid JSON");
    assert_eq!(v.get("label").and_then(|l| l.as_str()), Some("//E[F=1]"));
    let spans = v.get("spans").and_then(|s| s.as_array()).expect("spans");
    assert_eq!(spans.len(), 1 + PHASES.len());
}

#[test]
fn edge_mapping_queries_are_traced_too() {
    let mut db = EdgeDb::new();
    db.load_xml(figure1_xml()).unwrap();
    db.finalize().unwrap();
    let (result, trace) = db.query_traced("//C//F").unwrap();
    assert_eq!(result.ids().len(), 2);
    for phase in PHASES {
        assert!(trace.span_named(phase).is_some(), "missing `{phase}`");
    }
    // The Edge mapping never marks, so path filters always survive.
    assert!(result.engine.path_filters >= 1);
    assert!(result.engine.vm_match_calls > 0);
}

#[test]
fn queries_update_the_global_metrics_registry() {
    let db = figure1_db();
    let reg = obs::Registry::global();
    let before = reg.counter("engine.queries");
    db.query("//F").unwrap();
    db.query("//G").unwrap();
    assert!(reg.counter("engine.queries") >= before + 2);
    assert!(reg.histogram("engine.execute_ns").is_some());
}

// ------------------------------------------------------- explain analyze

/// Figure-1 queries whose plans exercise the interesting shapes: plain
/// child paths, descendant paths (path filters), predicates (EXISTS
/// subqueries), and value comparisons.
const ANALYZE_CORPUS: &[&str] = &[
    "/A/B/C/D",
    "//F",
    "//C//F",
    "/A/B[C/E/F=2]",
    "//E[F=1]",
    "//F/ancestor::B",
];

#[test]
fn explain_analyze_is_structurally_stable_on_figure1_queries() {
    let db = figure1_db();
    for q in ANALYZE_CORPUS {
        let stmt = db
            .translate(q)
            .unwrap()
            .stmt
            .unwrap_or_else(|| panic!("`{q}` should not be statically empty"));
        let out = explain_analyze(db.db(), &stmt).unwrap();

        // Every plan step line shows the estimate and the actuals.
        let step_lines: Vec<&str> = out.lines().filter(|l| l.contains(" via ")).collect();
        assert!(!step_lines.is_empty(), "`{q}`:\n{out}");
        for line in &step_lines {
            assert!(
                line.contains("(est "),
                "`{q}` step missing estimate: {line}"
            );
            assert!(
                line.contains("[actual: ") || line.contains("[actual: never executed]"),
                "`{q}` step missing actuals: {line}"
            );
        }
        // At least one step actually executed with full counters and
        // the estimation-quality columns.
        assert!(
            out.contains(" in, ") && out.contains(" probes, ") && out.contains(" ms, est="),
            "`{q}`:\n{out}"
        );
        assert!(
            out.contains(" act=") && out.contains(" q="),
            "`{q}`:\n{out}"
        );
        // The summary line totals the whole statement. With more than
        // one pool thread a `par_decision:` footer follows it — then
        // that footer, and nothing else, is the last line.
        let mut tail = out.lines().skip_while(|l| !l.starts_with("actual: "));
        let summary = tail
            .next()
            .unwrap_or_else(|| panic!("`{q}` has no summary line:\n{out}"));
        let footer: Vec<&str> = tail.collect();
        assert!(
            footer.is_empty() || (footer.len() == 1 && footer[0].starts_with("par_decision: ")),
            "`{q}`:\n{out}"
        );
        assert!(summary.contains("rows_scanned="), "`{q}`:\n{out}");
        assert!(summary.contains("index_probes="), "`{q}`:\n{out}");
        assert!(summary.contains("subqueries="), "`{q}`:\n{out}");
    }
}

#[test]
fn explain_analyze_row_counts_match_execution() {
    let db = figure1_db();
    // //F returns two elements; the summary row count must agree with a
    // real execution of the same statement.
    let stmt = db.translate("//F").unwrap().stmt.unwrap();
    let out = explain_analyze(db.db(), &stmt).unwrap();
    assert!(out.contains("actual: 2 row(s) in "), "{out}");
}
