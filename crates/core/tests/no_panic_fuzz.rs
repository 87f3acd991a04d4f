//! No-panic fuzz: arbitrary XPath, SQL and regex inputs pushed through
//! the public APIs must produce `Ok` or a typed error — never a panic,
//! abort or stack overflow.
//!
//! Inputs mix raw character soup (parser surface) with structured
//! almost-valid fragments (translator/planner/executor surface): pure
//! noise rarely makes it past the lexer, so both kinds are needed for
//! real coverage.

use proptest::prelude::*;

use ppf_core::{QueryLimits, SharedEngine, XmlDb};
use sqlexec::Executor;
use xmlschema::figure1_schema;

fn engine() -> &'static SharedEngine {
    use std::sync::OnceLock;
    static ENGINE: OnceLock<SharedEngine> = OnceLock::new();
    ENGINE.get_or_init(|| {
        let mut db = XmlDb::new(&figure1_schema()).expect("db");
        db.load_xml(
            "<A x='1'><B><C><D x='7'>1</D><D x='8'>2</D><E><F>10</F></E></C>\
             <G><G></G></G></B><B><C><D x='9'>3</D><E><F>20</F></E></C></B></A>",
        )
        .expect("load");
        db.finalize().expect("indexes");
        SharedEngine::new(db)
    })
}

/// Structured almost-valid XPath: axes, schema and non-schema names,
/// predicates with comparisons — deep enough to reach translation and
/// execution, not just the parser.
fn xpath_strategy() -> impl Strategy<Value = String> {
    let name = prop_oneof![
        Just("A".to_string()),
        Just("B".to_string()),
        Just("C".to_string()),
        Just("D".to_string()),
        Just("nope".to_string()),
        Just("*".to_string()),
    ];
    let step =
        (prop_oneof![Just("/"), Just("//")], name).prop_map(|(axis, n)| format!("{axis}{n}"));
    let pred = prop_oneof![
        Just(String::new()),
        Just("[@x='1']".to_string()),
        Just("[D=2]".to_string()),
        Just("[position()=1]".to_string()),
        Just("[".to_string()), // malformed on purpose
    ];
    (proptest::collection::vec(step, 1..5), pred)
        .prop_map(|(steps, pred)| format!("{}{pred}", steps.concat()))
}

/// 64 cases per property by default (fast enough for the local suite);
/// CI raises the sweep with `PROPTEST_CASES`.
fn cases() -> u32 {
    std::env::var("PROPTEST_CASES")
        .ok()
        .and_then(|s| s.parse().ok())
        .unwrap_or(64)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(cases()))]

    #[test]
    fn raw_xpath_soup_never_panics(input in "[/a-zA-Z@\\[\\]=0-9'\\*\\(\\):. ]{0,60}") {
        let _ = engine().query(&input);
    }

    #[test]
    fn structured_xpath_never_panics(q in xpath_strategy()) {
        let _ = engine().query(&q);
        // Limited runs must degrade to typed errors too, never panic.
        let _ = engine().query_with_limits(&q, QueryLimits::none().with_max_rows(5));
    }

    #[test]
    fn raw_sql_soup_never_panics(input in "[a-zA-Z0-9_'\\(\\),\\.\\*=<> ]{0,80}") {
        let snap = engine().snapshot();
        let exec = Executor::new(snap.db());
        let _ = exec.query(&input);
    }

    #[test]
    fn structured_sql_never_panics(
        table in "[a-zA-Z_]{1,12}",
        column in "[a-zA-Z_]{1,12}",
        value in any::<i64>(),
    ) {
        let snap = engine().snapshot();
        let exec = Executor::new(snap.db());
        let _ = exec.query(&format!("select {table}.{column} from {table} where {table}.{column} = {value}"));
        let _ = exec.query(&format!("select t.{column} from {table} t where regexp_like(t.{column}, '{table}')"));
    }

    #[test]
    fn arbitrary_regex_patterns_never_panic(pattern in "[a-z0-9.*+?()\\[\\]{}|^$\\\\,\\-]{0,30}", input in "[a-zA-Z0-9/]{0,40}") {
        if let Ok(re) = regexlite::Regex::new(&pattern) {
            let _ = re.is_match(&input);
        }
    }
}
