//! End-to-end executor tests on a small, hand-checkable database shaped
//! like the paper's shredded relations.

use std::sync::{Arc, Barrier};

use relstore::{ColType, Database, TableSchema, Value};
use sqlexec::{naive_select, parse_sql, Executor, Prepared};

/// Build a miniature shredded database: elements A, B, F with Dewey
/// positions and a Paths relation, as the schema-aware mapping would.
fn sample_db() -> Database {
    let mut db = Database::new();
    db.create_table(TableSchema::new(
        "Paths",
        &[("id", ColType::Int), ("path", ColType::Str)],
    ))
    .unwrap();
    db.create_table(TableSchema::new(
        "A",
        &[
            ("id", ColType::Int),
            ("par_id", ColType::Int),
            ("path_id", ColType::Int),
            ("dewey_pos", ColType::Bytes),
            ("x", ColType::Int),
        ],
    ))
    .unwrap();
    db.create_table(TableSchema::new(
        "F",
        &[
            ("id", ColType::Int),
            ("par_id", ColType::Int),
            ("path_id", ColType::Int),
            ("dewey_pos", ColType::Bytes),
            ("text", ColType::Str),
        ],
    ))
    .unwrap();

    let paths = db.table_mut("Paths").unwrap();
    paths
        .insert(vec![Value::Int(1), Value::from("/A")])
        .unwrap();
    paths
        .insert(vec![Value::Int(2), Value::from("/A/B/F")])
        .unwrap();
    paths
        .insert(vec![Value::Int(3), Value::from("/A/C/F")])
        .unwrap();
    paths.create_index("paths_id", &["id"]).unwrap();

    // One A element, dewey 1 -> bytes [0,0,1]
    let a = db.table_mut("A").unwrap();
    a.insert(vec![
        Value::Int(1),
        Value::Null,
        Value::Int(1),
        Value::Bytes(vec![0, 0, 1]),
        Value::Int(4),
    ])
    .unwrap();
    a.create_index("a_id", &["id"]).unwrap();
    a.create_index("a_dewey", &["dewey_pos"]).unwrap();

    // F elements: two under /A/B/F (dewey 1.1.1, 1.1.2), one under /A/C/F
    // (dewey 1.2.1).
    let f = db.table_mut("F").unwrap();
    for (id, dewey, path_id, text) in [
        (10, vec![0, 0, 1, 0, 0, 1, 0, 0, 1], 2, "one"),
        (11, vec![0, 0, 1, 0, 0, 1, 0, 0, 2], 2, "2"),
        (12, vec![0, 0, 1, 0, 0, 2, 0, 0, 1], 3, "three"),
    ] {
        f.insert(vec![
            Value::Int(id),
            Value::Int(1),
            Value::Int(path_id),
            Value::Bytes(dewey),
            Value::from(text),
        ])
        .unwrap();
    }
    f.create_index("f_id", &["id"]).unwrap();
    f.create_index("f_par", &["par_id"]).unwrap();
    f.create_index("f_dewey_path", &["dewey_pos", "path_id"])
        .unwrap();
    db
}

#[test]
fn regexp_path_filter_with_join() {
    let db = sample_db();
    let exec = Executor::new(&db);
    let rs = exec
        .query(
            "select F.id from F, Paths F_Paths \
             where F.path_id = F_Paths.id \
             and REGEXP_LIKE(F_Paths.path, '^/A/B(/[^/]+)*/F$') \
             order by F.dewey_pos",
        )
        .unwrap();
    let ids: Vec<i64> = rs.rows.iter().map(|r| r[0].as_int().unwrap()).collect();
    assert_eq!(ids, vec![10, 11]);
}

#[test]
fn dewey_between_descendant_join() {
    // All F descendants of A via the paper's Lemma 1 condition.
    let db = sample_db();
    let exec = Executor::new(&db);
    let rs = exec
        .query(
            "select F.id from A, F \
             where F.dewey_pos between A.dewey_pos and A.dewey_pos || x'FF' \
             and A.x = 4 order by F.dewey_pos",
        )
        .unwrap();
    assert_eq!(rs.rows.len(), 3);
    // The BETWEEN lower bound includes A itself only for equal keys, and F
    // keys are strictly longer, so all three F rows qualify.
    let stats = exec.stats();
    assert!(stats.index_probes > 0, "expected index range probe");
}

#[test]
fn exists_correlated_subquery() {
    let db = sample_db();
    let exec = Executor::new(&db);
    let rs = exec
        .query(
            "select A.id from A where exists (\
             select null from F where F.par_id = A.id and F.text = 2)",
        )
        .unwrap();
    assert_eq!(rs.rows.len(), 1);

    let rs2 = exec
        .query(
            "select A.id from A where exists (\
             select null from F where F.par_id = A.id and F.text = 'nope')",
        )
        .unwrap();
    assert!(rs2.rows.is_empty());
}

#[test]
fn union_dedups_and_orders_by_output_column() {
    let db = sample_db();
    let exec = Executor::new(&db);
    let rs = exec
        .query(
            "select F.id, F.dewey_pos from F where F.path_id = 2 \
             union select F.id, F.dewey_pos from F where F.text = '2' \
             order by dewey_pos",
        )
        .unwrap();
    // F#11 satisfies both branches; UNION must dedup it.
    let ids: Vec<i64> = rs.rows.iter().map(|r| r[0].as_int().unwrap()).collect();
    assert_eq!(ids, vec![10, 11]);
}

#[test]
fn scalar_count_subquery() {
    let db = sample_db();
    let exec = Executor::new(&db);
    let rs = exec
        .query("select A.id from A where (select count(*) from F where F.par_id = A.id) = 3")
        .unwrap();
    assert_eq!(rs.rows.len(), 1);
    let rs0 = exec
        .query("select A.id from A where (select count(*) from F where F.text = 'zzz') = 0")
        .unwrap();
    assert_eq!(rs0.rows.len(), 1, "COUNT(*) over empty set must be 0");
}

#[test]
fn three_valued_null_logic() {
    let mut db = sample_db();
    // Add an F row with NULL text.
    db.table_mut("F")
        .unwrap()
        .insert(vec![
            Value::Int(13),
            Value::Int(1),
            Value::Int(3),
            Value::Bytes(vec![0, 0, 1, 0, 0, 3]),
            Value::Null,
        ])
        .unwrap();
    let exec = Executor::new(&db);
    // NULL <> 'one' is UNKNOWN, so row 13 must not appear...
    let rs = exec
        .query("select F.id from F where F.text <> 'one'")
        .unwrap();
    let ids: Vec<i64> = rs.rows.iter().map(|r| r[0].as_int().unwrap()).collect();
    assert!(!ids.contains(&13));
    // ...but IS NULL finds it.
    let rs2 = exec
        .query("select F.id from F where F.text is null")
        .unwrap();
    assert_eq!(rs2.rows.len(), 1);
    // NOT (NULL = x) is still UNKNOWN.
    let rs3 = exec
        .query("select F.id from F where not F.text = 'one'")
        .unwrap();
    let ids3: Vec<i64> = rs3.rows.iter().map(|r| r[0].as_int().unwrap()).collect();
    assert!(!ids3.contains(&13));
}

#[test]
fn implicit_text_number_comparison() {
    // F.text = 2 where text is a string column: Oracle-style implicit
    // conversion ('2' = 2 is true, 'one' = 2 is unknown, not an error).
    let db = sample_db();
    let exec = Executor::new(&db);
    let rs = exec.query("select F.id from F where F.text = 2").unwrap();
    assert_eq!(rs.rows.len(), 1);
    assert_eq!(rs.rows[0][0], Value::Int(11));
}

#[test]
fn distinct_and_order_desc() {
    let db = sample_db();
    let exec = Executor::new(&db);
    let rs = exec
        .query("select distinct F.par_id from F order by F.par_id desc")
        .unwrap();
    assert_eq!(rs.rows.len(), 1);
}

#[test]
fn concat_binary_strings() {
    let db = sample_db();
    let exec = Executor::new(&db);
    // following axis shape: F > A.dewey || x'FF' — nothing follows A here.
    let rs = exec
        .query("select F.id from A, F where F.dewey_pos > A.dewey_pos || x'FF'")
        .unwrap();
    assert!(rs.rows.is_empty());
}

#[test]
fn error_messages() {
    let db = sample_db();
    let exec = Executor::new(&db);
    assert!(exec.query("select X.id from X").is_err());
    assert!(exec.query("select A.nope from A").is_err());
    assert!(exec.query("select A.id from A where A.x").is_err());
    assert!(exec
        .query("select A.id from A, F union select A.id from A order by F.dewey_pos")
        .is_err());
}

#[test]
fn column_naming_in_result() {
    let db = sample_db();
    let exec = Executor::new(&db);
    let rs = exec
        .query("select F.id as fid, F.text from F where F.id = 10")
        .unwrap();
    assert_eq!(rs.columns, vec!["fid".to_string(), "text".to_string()]);
}

/// Items 0..40 with tags and notes: item `i` is tagged `red` when even
/// and `blue` when a multiple of 3, and has a note reading `red` when a
/// multiple of 4 and `green` when a multiple of 5. Dewey keys run
/// against the ids, so document order is not id order.
fn tagged_items_db() -> Database {
    let mut db = Database::new();
    db.create_table(TableSchema::new(
        "item",
        &[
            ("id", ColType::Int),
            ("kind", ColType::Int),
            ("dewey", ColType::Bytes),
        ],
    ))
    .unwrap();
    for name in ["tag", "note"] {
        db.create_table(TableSchema::new(
            name,
            &[("item", ColType::Int), ("text", ColType::Str)],
        ))
        .unwrap();
    }
    for i in 0..40i64 {
        let dewey = vec![0, 0, 100 - i as u8];
        db.table_mut("item")
            .unwrap()
            .insert(vec![Value::Int(i), Value::Int(i % 3), Value::Bytes(dewey)])
            .unwrap();
        let tags = [(i % 2 == 0, "red"), (i % 3 == 0, "blue")];
        let notes = [(i % 4 == 0, "red"), (i % 5 == 0, "green")];
        for (table, rows) in [("tag", tags), ("note", notes)] {
            for (_, text) in rows.iter().filter(|(has, _)| *has) {
                db.table_mut(table)
                    .unwrap()
                    .insert(vec![Value::Int(i), Value::from(*text)])
                    .unwrap();
            }
        }
    }
    db.table_mut("item")
        .unwrap()
        .create_index("item_id", &["id"])
        .unwrap();
    db.table_mut("tag")
        .unwrap()
        .create_index("tag_item", &["item"])
        .unwrap();
    db
}

/// Every `SELECT` block of a statement gets its own plan slot. The
/// statement has two UNION arms; the first arm's WHERE holds two EXISTS
/// over different tables, the second of them with an EXISTS nested in
/// it, and the second arm's WHERE one more. Each of the six blocks
/// selects different rows, so a block run with another block's plan
/// changes the answer (or, for an arm given a subquery's plan, recurses
/// without end).
#[test]
fn each_select_block_plans_into_its_own_slot() {
    let db = tagged_items_db();
    let sql = "select i.id, i.dewey from item i \
               where exists (select null from tag t where t.item = i.id and t.text = 'red') \
               and exists (select null from note n where n.item = i.id \
                   and exists (select null from tag u where u.item = n.item and u.text = n.text)) \
               union \
               select i.id, i.dewey from item i \
               where i.kind = 0 \
               and exists (select null from tag t where t.item = i.id and t.text = 'blue') \
               order by dewey";
    let stmt = parse_sql(sql).unwrap();

    // UNION semantics over the reference executor: each arm, then first
    // occurrences, then document order (the Dewey keys are unique).
    let mut expected: Vec<Vec<Value>> = Vec::new();
    for arm in &stmt.branches {
        for row in naive_select(&db, arm).unwrap() {
            if !expected.contains(&row) {
                expected.push(row);
            }
        }
    }
    expected.sort_by(|a, b| a[1].cmp_total(&b[1]));
    let ids: Vec<i64> = expected.iter().map(|r| r[0].as_int().unwrap()).collect();
    assert_eq!(
        ids,
        [39, 36, 33, 32, 30, 28, 27, 24, 21, 20, 18, 16, 15, 12, 9, 8, 6, 4, 3, 0]
    );

    let prepared = Arc::new(Prepared::new(stmt.clone()));
    assert_eq!(prepared.blocks(), 6);
    let cold = Executor::new(&db).run_prepared(&prepared).unwrap();
    assert_eq!(cold.rows, expected, "cold run");
    // Every block was planned into its own slot, over its own table.
    let mut tables = Vec::new();
    prepared
        .stmt()
        .clone()
        .for_each_block_mut(&mut |sel| tables.push((sel.ordinal, sel.from[0].table.clone())));
    for (i, (ordinal, table)) in tables.into_iter().enumerate() {
        assert_eq!(ordinal, i);
        let plan = prepared.plan(i).expect("every block ran");
        assert_eq!(plan.steps[0].table, table, "block {i}");
    }
    let warm = Executor::new(&db).run_prepared(&prepared).unwrap();
    assert_eq!(warm.rows, expected, "warm run");
    let unprepared = Executor::new(&db).run(&stmt).unwrap();
    assert_eq!(unprepared.rows, expected, "Executor::run");

    // Four cold runs of one statement start together: each plans every
    // block it reaches, the first plan stored in a slot wins, and every
    // run answers as the serial one did.
    let prepared = Arc::new(Prepared::new(stmt));
    let start = Barrier::new(4);
    std::thread::scope(|s| {
        let runs: Vec<_> = (0..4)
            .map(|_| {
                s.spawn(|| {
                    start.wait();
                    Executor::new(&db).run_prepared(&prepared).unwrap().rows
                })
            })
            .collect();
        for run in runs {
            assert_eq!(run.join().unwrap(), expected, "concurrent cold run");
        }
    });
}

/// `Executor::seed_plans` hands the next `run` plans for its top-level
/// branches, keyed by branch address. They are used only when the
/// statement is numbered: a plan made from an unnumbered branch holds
/// subqueries that all claim ordinal 0, the branch's own slot.
#[test]
fn seeded_branch_plans_apply_only_to_numbered_statements() {
    let db = tagged_items_db();
    let sql = "select i.id, i.dewey from item i where exists \
               (select null from tag t where t.item = i.id and t.text = 'blue') order by dewey";
    let unnumbered = parse_sql(sql).unwrap();
    let expected = Executor::new(&db).run(&unnumbered).unwrap().rows;
    let mut numbered = unnumbered.clone();
    numbered.number_blocks();
    for (stmt, seeds_used) in [(&numbered, true), (&unnumbered, false)] {
        let branch = &stmt.branches[0];
        let plan = Arc::new(sqlexec::plan::plan_select(&db, branch, &[]).unwrap());
        let exec = Executor::new(&db);
        exec.seed_plans(&[(branch as *const sqlexec::Select as usize, plan.clone())].into());
        assert_eq!(
            exec.run(stmt).unwrap().rows,
            expected,
            "seeds used: {seeds_used}"
        );
        let mut ran_seed = false;
        exec.for_each_step(|p, _| ran_seed |= std::ptr::eq(p, &*plan));
        assert_eq!(ran_seed, seeds_used);
    }
}

/// `outer_t(id, x, y)`, `pair(id, z)` and `inner_t(id, x)`: `inner_t`
/// shares `x` with `outer_t` but has no `y`, and only `pair` has `z`.
/// Each `x` and `y` differs between the tables' rows of one id, so a name
/// bound to the wrong table selects other rows.
fn scoped_names_db() -> Database {
    let mut db = Database::new();
    let int = |name| (name, ColType::Int);
    for (name, cols) in [
        ("outer_t", vec![int("id"), int("x"), int("y")]),
        ("pair", vec![int("id"), int("z")]),
        ("inner_t", vec![int("id"), int("x")]),
    ] {
        db.create_table(TableSchema::new(name, &cols)).unwrap();
    }
    let rows: [(&str, &[[i64; 3]]); 3] = [
        ("outer_t", &[[1, 10, 1], [2, 20, 2], [3, 30, 3]]),
        ("pair", &[[1, 5, 0], [2, 6, 0], [3, 5, 0]]),
        ("inner_t", &[[1, 1, 0], [2, 20, 0], [3, 3, 0]]),
    ];
    for (name, rows) in rows {
        let table = db.table_mut(name).unwrap();
        let width = table.schema.columns.len();
        for row in rows {
            table
                .insert(row[..width].iter().map(|&v| Value::Int(v)).collect())
                .unwrap();
        }
    }
    db
}

/// The planner resolves each name to the binding the executor holds
/// where its expression runs, innermost first, as SQL scopes names; the
/// reference executor resolves them by name as it reads them, so each
/// case is checked against it as well as against the expected rows.
#[test]
fn names_resolve_to_the_innermost_binding_that_has_them() {
    let db = scoped_names_db();
    for (what, sql, ids) in [
        (
            "an unqualified column binds to the subquery's table when it has it",
            "select o.id from outer_t o \
             where exists (select null from inner_t i where i.id = o.id and x = 1)",
            vec![1],
        ),
        (
            "an unqualified column the subquery's table lacks binds to the outer alias",
            "select o.id from outer_t o \
             where exists (select null from inner_t i where i.id = o.id and y = 2)",
            vec![2],
        ),
        (
            "the outer binding may be any alias of the outer FROM list",
            "select o.id from outer_t o, pair p where p.id = o.id \
             and exists (select null from inner_t i where i.id = o.id and z = 5)",
            vec![1, 3],
        ),
        (
            "an inner alias shadows an outer alias of the same name",
            "select t.id from outer_t t \
             where exists (select null from inner_t t where t.x = y)",
            vec![1, 3],
        ),
    ] {
        let stmt = parse_sql(&format!("{sql} order by id")).unwrap();
        let mut expected = naive_select(&db, &stmt.branches[0]).unwrap();
        expected.sort_by(|a, b| a[0].cmp_total(&b[0]));
        let want: Vec<Vec<Value>> = ids.into_iter().map(|i| vec![Value::Int(i)]).collect();
        assert_eq!(expected, want, "reference: {what}");
        assert_eq!(Executor::new(&db).run(&stmt).unwrap().rows, want, "{what}");
    }
}

/// `X(id, path_id)` over the keys of `D(id, path)`, a 64-row dimension
/// with a unique key whose row 7 has a NULL path: twenty rows over keys
/// 1–10, one whose `path_id` is NULL and one whose key `D` lacks. `Dup`
/// is `D` with key 2 held twice.
fn keyed_db() -> Database {
    let mut db = Database::new();
    for (name, cols) in [
        ("X", [("id", ColType::Int), ("path_id", ColType::Int)]),
        ("D", [("id", ColType::Int), ("path", ColType::Str)]),
        ("Dup", [("id", ColType::Int), ("path", ColType::Str)]),
    ] {
        db.create_table(TableSchema::new(name, &cols)).unwrap();
    }
    let path = |i: i64| match i {
        7 => Value::Null,
        _ => Value::from(format!("/r/{}/{i}", ["even", "odd"][i as usize % 2])),
    };
    let x = db.table_mut("X").unwrap();
    for j in 0..20 {
        x.insert(vec![Value::Int(100 + j), Value::Int(j % 10 + 1)])
            .unwrap();
    }
    x.insert(vec![Value::Int(200), Value::Null]).unwrap();
    x.insert(vec![Value::Int(201), Value::Int(99)]).unwrap();
    let d = db.table_mut("D").unwrap();
    for i in 1..=64 {
        d.insert(vec![Value::Int(i), path(i)]).unwrap();
    }
    d.create_index("d_id", &["id"]).unwrap();
    let dup = db.table_mut("Dup").unwrap();
    for i in (1..=64).chain([2]) {
        dup.insert(vec![Value::Int(i), path(i)]).unwrap();
    }
    dup.create_index("dup_id", &["id"]).unwrap();
    db
}

/// Run `sql` through the planner and against the reference executor,
/// assert both return the same rows, and return the rows and the plan
/// EXPLAIN prints.
fn planned_and_naive(db: &Database, sql: &str) -> (Vec<Vec<Value>>, String) {
    let stmt = parse_sql(sql).unwrap();
    let mut expected = naive_select(db, &stmt.branches[0]).unwrap();
    expected.sort_by(|a, b| a[0].cmp_total(&b[0]));
    let got = Executor::new(db).run(&stmt).unwrap().rows;
    assert_eq!(got, expected, "{sql}");
    (expected, sqlexec::explain_stmt(db, &stmt).unwrap())
}

fn ids(rows: &[Vec<Value>]) -> Vec<i64> {
    rows.iter().map(|r| r[0].as_int().unwrap()).collect()
}

#[test]
fn an_or_across_two_aliases_elided_onto_one_key_folds_into_one_set() {
    let db = keyed_db();
    let (rows, plan) = planned_and_naive(
        &db,
        "select X.id from X, D d1, D d2 \
         where X.path_id = d1.id and X.path_id = d2.id \
         and (REGEXP_LIKE(d1.path, 'even') or d2.path = '/r/odd/3') order by X.id",
    );
    assert!(!plan.contains("join D"), "{plan}");
    assert!(
        plan.contains("+ path_id in D{REGEXP_LIKE(path, 'even') or path = '/r/odd/3'} (33 keys)"),
        "{plan}"
    );
    assert_eq!(
        ids(&rows),
        [101, 102, 103, 105, 107, 109, 111, 112, 113, 115, 117, 119]
    );
}

#[test]
fn a_dimension_with_a_duplicated_key_stays_a_join() {
    let db = keyed_db();
    let (rows, plan) = planned_and_naive(
        &db,
        "select X.id from X, Dup where X.path_id = Dup.id \
         and REGEXP_LIKE(Dup.path, 'even') order by X.id",
    );
    assert!(plan.contains("join Dup"), "{plan}");
    // Key 2 joins two rows, so its X rows come back twice.
    assert_eq!(ids(&rows).iter().filter(|&&id| id == 101).count(), 2);
}

#[test]
fn an_alias_read_outside_its_filters_stays_a_join() {
    let db = keyed_db();
    for (what, sql) in [
        (
            "projected",
            "select X.id, D.path from X, D where X.path_id = D.id \
             and REGEXP_LIKE(D.path, 'even') order by X.id",
        ),
        (
            "read by a correlated EXISTS",
            "select X.id from X, D where X.path_id = D.id and REGEXP_LIKE(D.path, 'even') \
             and exists (select null from Dup where Dup.path = D.path and Dup.id > 3) \
             order by X.id",
        ),
    ] {
        let (rows, plan) = planned_and_naive(&db, sql);
        assert!(plan.contains("join D as D"), "{what}: {plan}");
        assert!(!rows.is_empty(), "{what}");
    }
}

#[test]
fn a_null_or_absent_key_drops_the_row_as_the_join_did() {
    let db = keyed_db();
    let (rows, plan) = planned_and_naive(
        &db,
        "select X.id from X, D where X.path_id = D.id \
         and REGEXP_LIKE(D.path, '^/r/') order by X.id",
    );
    // Every key but 7, whose path is NULL.
    assert!(plan.contains("(63 keys)"), "{plan}");
    let got = ids(&rows);
    assert_eq!(got.len(), 18, "{got:?}");
    assert!(
        !got.iter().any(|id| [106, 116, 200, 201].contains(id)),
        "{got:?}"
    );
}

#[test]
fn a_cold_plan_and_a_memo_warm_replan_build_the_same_set() {
    let db = keyed_db();
    sqlexec::clear_filter_caches(&db);
    let sql = "select X.id from X, D where X.path_id = D.id \
               and (REGEXP_LIKE(D.path, 'odd') or D.path = '/r/even/2') order by X.id";
    let stmt = parse_sql(sql).unwrap();
    let plan = |expect_hit: bool| {
        let prepared = Arc::new(Prepared::new(stmt.clone()));
        let exec = Executor::new(&db);
        exec.plan(&prepared).unwrap();
        let stats = exec.stats();
        // The cold plan scans D's 63 paths once and fills the memo; the
        // replan reads the memo.
        assert_eq!(stats.path_memo_hits, u64::from(expect_hit));
        assert_eq!(stats.path_memo_misses, u64::from(!expect_hit));
        let matched = stats.regex.match_calls;
        assert_eq!(matched, if expect_hit { 0 } else { 63 });
        let plan = prepared.plan(0).unwrap().clone();
        let set = plan.steps[0].set.clone().expect("D elided onto X.path_id");
        let members: Vec<i64> = (-1..70)
            .filter(|&k| set.keys.contains(&Value::Int(k)))
            .collect();
        (
            set.keys.to_string(),
            members,
            exec.run_prepared(&prepared).unwrap().rows,
        )
    };
    let cold = plan(false);
    let warm = plan(true);
    assert_eq!(cold, warm);
    assert_eq!(cold.1.len(), 32);
    let (expected, _) = planned_and_naive(&db, sql);
    assert_eq!(cold.2, expected);
}
