//! Regression guard for the statistics subsystem's reason to exist: on
//! the XMark and DBLP workloads, per-step cardinality estimates taken
//! from table statistics must beat the fixed `sel::*` selectivity
//! constants on median q-error. (The full-scale version of this check,
//! plus plan-change and wall-time gates, runs in the `plan_quality`
//! bench bin.)

use ppf_bench::{
    dblp_schema, generate_dblp, generate_xmark, xmark_queries, xmark_schema, DblpConfig,
    XMarkConfig,
};
use ppf_core::XmlDb;
use relstore::Database;
use sqlexec::{ExecOptions, Executor, SelectStmt};

fn build(schema: &xmlschema::Schema, doc: &xmldom::Document) -> XmlDb {
    let mut db = XmlDb::new(schema).expect("schema db");
    db.set_path_marking(false);
    db.load(doc).expect("load");
    db.finalize().expect("indexes");
    db
}

/// Median per-step q-error of one statement, planned with statistics
/// consumption set to `stats_on`.
fn stmt_qerror(db: &Database, stmt: &SelectStmt, stats_on: bool) -> f64 {
    let opts = ExecOptions {
        stats: stats_on,
        ..ExecOptions::default()
    };
    let exec = Executor::with_options(db, opts);
    exec.run(stmt).expect("statement runs");
    let mut qs = Vec::new();
    for (plan, ops) in exec.profiled_steps() {
        for (step, op) in plan.steps.iter().zip(&ops) {
            if op.invocations > 0 {
                let act = op.rows_out as f64 / op.invocations as f64;
                qs.push(sqlexec::qerror(step.est_rows, act));
            }
        }
    }
    median(qs)
}

fn median(mut xs: Vec<f64>) -> f64 {
    if xs.is_empty() {
        return 1.0;
    }
    xs.sort_by(|a, b| a.partial_cmp(b).expect("finite"));
    let n = xs.len();
    if n % 2 == 1 {
        xs[n / 2]
    } else {
        (xs[n / 2 - 1] + xs[n / 2]) / 2.0
    }
}

fn suite_medians(db: &XmlDb, queries: &[(&str, &str)]) -> (Vec<f64>, Vec<f64>) {
    // Prime once so regex survivor ratios are learned before the
    // measured runs, as they would be on any warmed-up engine.
    for (name, q) in queries {
        db.query(q).expect(name);
    }
    let mut on = Vec::new();
    let mut off = Vec::new();
    for (name, q) in queries {
        let Some(stmt) = db.translate(q).expect(name).stmt else {
            continue;
        };
        on.push(stmt_qerror(db.db(), &stmt, true));
        off.push(stmt_qerror(db.db(), &stmt, false));
    }
    (on, off)
}

#[test]
fn median_qerror_improves_with_stats() {
    let xmark = build(
        &xmark_schema(),
        &generate_xmark(XMarkConfig {
            scale: 0.05,
            seed: 42,
        }),
    );
    let dblp = build(
        &dblp_schema(),
        &generate_dblp(DblpConfig {
            scale: 0.05,
            seed: 7,
        }),
    );
    let (mut on, mut off) = suite_medians(&xmark, &xmark_queries());
    let dblp_queries = ppf_bench::dblp_queries();
    let (don, doff) = suite_medians(&dblp, &dblp_queries);
    on.extend(don);
    off.extend(doff);

    let m_on = median(on.clone());
    let m_off = median(off.clone());
    assert!(
        m_on < m_off,
        "stats did not improve median q-error: on {m_on:.3} vs off {m_off:.3}\n  on: {on:?}\n  off: {off:?}"
    );
}
