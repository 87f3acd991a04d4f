//! EXPLAIN shows the plan that runs. For every query of the cost ledger's
//! XMark and DBLP suites, plain EXPLAIN prints exactly the lines EXPLAIN
//! ANALYZE prints once its `[actual: …]` annotations and its summary line
//! are stripped: the same join order, access paths, filter placement,
//! estimates and subquery plans.

use ppf_bench::{
    dblp_queries, dblp_schema, generate_dblp, generate_xmark, xmark_queries, xmark_schema,
    DblpConfig, XMarkConfig, ABLATION_CHAINS,
};
use ppf_core::XmlDb;

/// EXPLAIN ANALYZE's output without what running the statement added.
fn without_actuals(analyzed: &str) -> String {
    analyzed
        .lines()
        .filter(|l| !l.starts_with("actual: "))
        .map(|l| l.split(" [actual: ").next().unwrap_or(l))
        .map(|l| format!("{l}\n"))
        .collect()
}

fn check_suite(
    schema: &xmlschema::Schema,
    doc: &xmldom::Document,
    queries: &[(&str, &str)],
) -> usize {
    let mut db = XmlDb::new(schema).expect("schema db");
    db.load(doc).expect("load");
    db.finalize().expect("indexes");
    let mut checked = 0;
    for (name, q) in queries {
        let Some(stmt) = db.translate(q).expect(name).stmt else {
            continue; // statically empty: nothing planned
        };
        // Plain EXPLAIN first: it runs nothing, so both plan against the
        // same learned path-filter selectivities.
        let plain = sqlexec::explain_stmt(db.db(), &stmt).expect(name);
        let analyzed = sqlexec::explain_analyze(db.db(), &stmt).expect(name);
        assert_eq!(plain, without_actuals(&analyzed), "{name}");
        checked += 1;
    }
    checked
}

#[test]
fn explain_prints_the_plan_explain_analyze_runs() {
    let mut xmark = xmark_queries();
    xmark.extend(
        ABLATION_CHAINS
            .into_iter()
            .filter(|(_, q)| !xmark_queries().iter().any(|(_, x)| x == q)),
    );
    let xmark_doc = generate_xmark(XMarkConfig {
        scale: 0.05,
        seed: 42,
    });
    let dblp_doc = generate_dblp(DblpConfig {
        scale: 0.05,
        seed: 7,
    });
    let checked = check_suite(&xmark_schema(), &xmark_doc, &xmark)
        + check_suite(&dblp_schema(), &dblp_doc, &dblp_queries());
    assert!(checked >= 20, "only {checked} statements compared");
}
