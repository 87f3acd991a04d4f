//! Tests for the instrumented query pipeline: the four-phase span tree
//! `QueryResult::trace` builds from a result, the `EngineStats` work
//! counters, and the `EXPLAIN ANALYZE` golden rendering over the
//! Figure-1 corpus.

use ppf_core::{EdgeDb, QueryResult, XmlDb};
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

const PHASES: [&str; 4] = ["parse", "translate", "plan", "execute"];

#[test]
fn traced_query_covers_all_four_phases() {
    let db = figure1_db();
    let result = db.query("/A/B/C/D").unwrap();
    assert_eq!(result.ids().len(), 1);
    let trace = result.trace("/A/B/C/D");
    assert_eq!(trace.label, "/A/B/C/D");

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
fn root_span_is_the_whole_query_and_phases_fit_inside_it() {
    let db = figure1_db();
    for q in ["//C//F", "//C//F", "/A/Z"] {
        let result = db.query(q).unwrap();
        let e = &result.engine;
        let trace = result.trace(q);
        let root = &trace.spans()[0];
        assert_eq!(root.dur_ns, e.query_ns, "{q}");
        let phases = e.parse_ns + e.translate_ns + e.plan_ns + e.execute_ns;
        assert!(e.query_ns >= phases, "{q}: {e:?}");
        assert_eq!(trace.total_ns(), e.query_ns, "{q}");
        // Laid end to end from the root's start, in pipeline order.
        let mut next = 0;
        for span in &trace.spans()[1..] {
            assert_eq!(span.start_ns, next, "{q}: {}", span.name);
            next += span.dur_ns;
        }
        assert_eq!(next, phases, "{q}");
    }
}

/// Every counter of every span, paired with the `EngineStats`/`ExecStats`
/// field (or row count) it must equal.
fn expected_counters(r: &QueryResult) -> Vec<(&'static str, &'static str, u64)> {
    let (e, s) = (&r.engine, &r.stats);
    vec![
        ("query", "rows", r.rows.rows.len() as u64),
        ("translate", "ppfs", e.ppf_count),
        ("translate", "union_branches", e.union_branches),
        ("translate", "path_filters", e.path_filters),
        ("plan", "steps", e.plan_steps),
        ("execute", "rows_scanned", s.rows_scanned),
        ("execute", "index_probes", s.index_probes),
        ("execute", "predicate_evals", s.predicate_evals),
        ("execute", "subqueries", s.subqueries),
        ("execute", "path_candidates", e.path_candidates),
        ("execute", "path_survivors", e.path_survivors),
        ("execute", "join_rows_in", e.join_rows_in),
        ("execute", "join_rows_out", e.join_rows_out),
        ("execute", "vm_match_calls", s.regex.match_calls),
        ("execute", "vm_steps", s.regex.vm_steps),
        ("execute", "dfa_matches", s.regex.dfa_matches),
        ("execute", "path_memo_hits", s.path_memo_hits),
    ]
}

#[test]
fn traced_query_records_engine_work_counters() {
    let mut db = figure1_db();
    // Disable the §4.5 marking so the path filter is kept and the regex
    // VM provably runs.
    db.set_path_marking(false);
    let result = db.query("//C//F").unwrap();
    assert_eq!(result.ids().len(), 2);

    let e = &result.engine;
    let regex = result.stats.regex;
    // `//C//F` is one holistic PPF (a single path-index filter covers it).
    assert!(e.ppf_count >= 1, "{e:?}");
    assert_eq!(e.union_branches, 1, "{e:?}");
    assert!(e.plan_steps >= 1, "{e:?}");
    assert!(e.path_filters >= 1, "{e:?}");
    assert!(e.path_candidates > 0, "{e:?}");
    assert!(
        e.path_survivors <= e.path_candidates,
        "survivors cannot exceed candidates: {e:?}"
    );
    assert!(
        regex.match_calls > 0,
        "path filter must run the regex: {regex:?}"
    );
    // Every match is answered by the lazy DFA (O(bytes), no Pike-VM
    // thread dispatches) or by the Pike VM after a DFA fallback.
    assert_eq!(
        regex.match_calls,
        regex.dfa_matches + regex.dfa_fallbacks,
        "{regex:?}"
    );
    assert!(e.join_rows_in >= e.join_rows_out, "{e:?}");

    // Every span carries exactly its phase's counters, each equal to the
    // field it is read from.
    let trace = result.trace("//C//F");
    let expected = expected_counters(&result);
    for span in trace.spans() {
        let want: Vec<(String, u64)> = expected
            .iter()
            .filter(|(phase, _, _)| *phase == span.name)
            .map(|(_, name, v)| (name.to_string(), *v))
            .collect();
        assert_eq!(span.counters, want, "span `{}`", span.name);
    }
}

#[test]
fn statically_empty_query_still_traces_all_phases() {
    let db = figure1_db();
    // `Z` is not in the Figure-1 schema: translation proves it empty.
    let result = db.query("/A/Z").unwrap();
    assert!(result.rows.rows.is_empty());
    assert!(result.sql().is_none());
    let trace = result.trace("/A/Z");
    for phase in PHASES {
        assert!(trace.span_named(phase).is_some(), "missing `{phase}`");
    }
}

#[test]
fn traced_query_trace_is_valid_json() {
    let db = figure1_db();
    let trace = db.query("//E[F=1]").unwrap().trace("//E[F=1]");
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
    let result = db.query("//C//F").unwrap();
    assert_eq!(result.ids().len(), 2);
    let trace = result.trace("//C//F");
    for phase in PHASES {
        assert!(trace.span_named(phase).is_some(), "missing `{phase}`");
    }
    // The Edge mapping never marks, so path filters always survive.
    assert!(result.engine.path_filters >= 1);
    assert!(result.stats.regex.match_calls > 0);
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
        // The summary line totals the whole statement, and it is the
        // last line: nothing follows it.
        let mut tail = out.lines().skip_while(|l| !l.starts_with("actual: "));
        let summary = tail
            .next()
            .unwrap_or_else(|| panic!("`{q}` has no summary line:\n{out}"));
        let footer: Vec<&str> = tail.collect();
        assert!(footer.is_empty(), "`{q}`:\n{out}");
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
