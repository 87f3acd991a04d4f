//! With a one-thread pool the engine must never partition — even under
//! `ParallelMode::ForceOn` — so `PPF_THREADS=1` reproduces the serial
//! engine exactly. Isolated in its own binary because it pins the
//! process-wide pool to one thread, which would starve the equivalence
//! tests of their partitioning.

use relstore::{ColType, Database, TableSchema, Value};
use sqlexec::{ExecOptions, Executor, ParallelMode};

#[test]
fn single_thread_pool_never_partitions_even_when_forced() {
    ppf_pool::set_threads(1);
    let mut db = Database::new();
    db.create_table(TableSchema::new(
        "A",
        &[("id", ColType::Int), ("dewey_pos", ColType::Bytes)],
    ))
    .unwrap();
    db.create_table(TableSchema::new(
        "F",
        &[("id", ColType::Int), ("dewey_pos", ColType::Bytes)],
    ))
    .unwrap();
    {
        let a = db.table_mut("A").unwrap();
        for i in 0..40u8 {
            a.insert(vec![Value::Int(i as i64), Value::Bytes(vec![0, 0, i])])
                .unwrap();
        }
        a.create_index("a_dewey", &["dewey_pos"]).unwrap();
    }
    {
        let f = db.table_mut("F").unwrap();
        let mut id = 1000i64;
        for i in 0..40u8 {
            for j in 0..4u8 {
                f.insert(vec![Value::Int(id), Value::Bytes(vec![0, 0, i, 0, 0, j])])
                    .unwrap();
                id += 1;
            }
        }
        f.create_index("f_dewey", &["dewey_pos"]).unwrap();
    }

    let exec = Executor::with_options(
        &db,
        ExecOptions {
            parallel: ParallelMode::ForceOn,
            ..ExecOptions::default()
        },
    );
    let rs = exec
        .query(
            "select F.id from A, F \
             where F.dewey_pos between A.dewey_pos and A.dewey_pos || x'FF' \
             order by F.dewey_pos, F.id",
        )
        .unwrap();

    assert_eq!(rs.rows.len(), 160);
    let stats = exec.stats();
    assert_eq!(stats.par_tasks, 0, "{stats:?}");
    assert_eq!(stats.par_chunks, 0, "{stats:?}");
}
