//! Property test: on randomly generated documents (conforming to a schema
//! with recursion, wildcard-inducing fan-out, attributes and text), the
//! PPF translation over both mappings must return the native XPath
//! evaluator's node sequence, in document order, for a pool of query
//! templates, under every plan choice the execution options offer.

use proptest::prelude::*;
use rand::{rngs::StdRng, Rng, SeedableRng};
use xmldom::{Document, TreeBuilder};
use xpath::{evaluate, parse_xpath, Item};

use ppf_core::{EdgeDb, ExecOptions, XmlDb};
use sqlexec::plan::{Access, Step};

/// Test schema: lib → shelf* ; shelf → book* | box* ; box → box? book*
/// (recursive); book has @id, @lang, title, author*, year.
fn schema() -> xmlschema::Schema {
    xmlschema::parse_schema(
        "root lib\n\
         lib = shelf*\n\
         shelf @loc = book* box*\n\
         box @depth:int = box? book*\n\
         book @id @lang = title author* year?\n\
         title : text\n\
         author : text\n\
         year : int\n",
    )
    .expect("schema")
}

/// Deterministic random document for a seed.
fn gen_doc(seed: u64, size: usize) -> Document {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut b = TreeBuilder::new();
    b.start_element("lib");
    let shelves = 1 + size % 3;
    for s in 0..shelves {
        b.start_element("shelf");
        if rng.gen_bool(0.7) {
            b.attribute("loc", format!("L{}", rng.gen_range(0..3)));
        }
        let books = rng.gen_range(0..4);
        for _ in 0..books {
            gen_book(&mut rng, &mut b);
        }
        let boxes = rng.gen_range(0..3);
        for _ in 0..boxes {
            gen_box(&mut rng, &mut b, 0);
        }
        b.end_element();
        let _ = s;
    }
    b.end_element();
    b.finish()
}

fn gen_book(rng: &mut StdRng, b: &mut TreeBuilder) {
    b.start_element("book");
    b.attribute("id", format!("b{}", rng.gen_range(0..6)));
    if rng.gen_bool(0.5) {
        b.attribute("lang", if rng.gen_bool(0.5) { "en" } else { "el" });
    }
    b.leaf("title", format!("t{}", rng.gen_range(0..4)));
    for _ in 0..rng.gen_range(0..3) {
        b.leaf("author", format!("a{}", rng.gen_range(0..4)));
    }
    if rng.gen_bool(0.7) {
        b.leaf("year", format!("{}", 1990 + rng.gen_range(0..20)));
    }
    b.end_element();
}

fn gen_box(rng: &mut StdRng, b: &mut TreeBuilder, depth: usize) {
    b.start_element("box");
    b.attribute("depth", format!("{depth}"));
    if depth < 3 && rng.gen_bool(0.4) {
        gen_box(rng, b, depth + 1);
    }
    for _ in 0..rng.gen_range(0..3) {
        gen_book(rng, b);
    }
    b.end_element();
}

const QUERIES: &[&str] = &[
    "/lib/shelf/book",
    "/lib/shelf/book/title",
    "//book",
    "//book/author",
    "//box//book",
    "//box/box/book",
    "/lib/shelf/*",
    "/lib/*/book",
    "//*[@id]",
    "//book[@id='b1']",
    "//book[@lang]",
    "//book[@lang='en']/title",
    "//book[year]",
    "//book[year>=2000]",
    "//book[year=1995]",
    "//book[not(year)]",
    "//book[author and year]",
    "//book[author or year]",
    "//book[title='t1']",
    "//book[author='a2']",
    "//shelf[book/author='a1']",
    "//shelf[@loc='L1']/book",
    "//book[ancestor::box]",
    "//book[parent::shelf]",
    "//book[parent::box]",
    "//box[parent::box]",
    "//book/parent::*",
    "//author/parent::book/title",
    "//box/ancestor::shelf",
    "//book/ancestor-or-self::*",
    "//title/following-sibling::author",
    "//author/preceding-sibling::title",
    "//book[1]",
    "//book[2]",
    "//shelf/book[1]/title",
    "//book[count(author) = 2]",
    "//book[count(author) = 0]",
    "//shelf[count(book) = 1]",
    "//box[@depth=1]",
    "//book[title = /lib/shelf/book/title]",
    "//shelf[book/title = box/book/title]",
    "/lib/shelf/book | //box/book",
    "//author[.='a1']",
    "//book[author][year]",
    "//title[following-sibling::author]",
    "//book[title and not(author)]",
];

/// The store ids of the native evaluator's answer, in its (document)
/// order.
fn native_ids(doc: &Document, loaded: &shred::LoadedDoc, q: &str) -> Vec<i64> {
    let expr = parse_xpath(q).expect("parse");
    let items = evaluate(doc, &expr).expect("native");
    items
        .into_iter()
        .map(|i| match i {
            Item::Node(n) => loaded.element_ids[&n],
            Item::Attr(..) => panic!("element queries only"),
        })
        .collect()
}

/// Whether a plan of the statement `result` ran has a step that `holds`.
fn ran_a_step(result: &ppf_core::QueryResult, holds: impl Fn(&Step) -> bool) -> bool {
    result.stmt.as_ref().is_some_and(|prepared| {
        (0..prepared.blocks())
            .filter_map(|ordinal| prepared.plan(ordinal))
            .any(|plan| plan.steps.iter().any(&holds))
    })
}

/// A step that holds a key set: a `Paths` join the planner elided onto
/// the step it filters.
fn elided(step: &Step) -> bool {
    step.set.is_some()
}

/// A step that probes an index range through its run's cursor.
fn ranged(step: &Step) -> bool {
    matches!(step.access, Access::IndexRange { .. })
}

/// Every plan choice the options offer: statistics on and off.
fn option_matrix() -> Vec<ExecOptions> {
    [true, false]
        .into_iter()
        .map(|stats| ExecOptions { stats })
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn publish_roundtrips_generated_documents(seed in 0u64..10_000, size in 1usize..6) {
        // Shred → publish must reproduce the original serialization
        // byte-for-byte (the generator has no mixed content, which is the
        // only lossy case of the paper's mapping).
        let doc = gen_doc(seed, size);
        let mut db = XmlDb::new(&schema()).expect("schema db");
        let loaded = db.load(&doc).expect("load");
        db.finalize().expect("indexes");
        let root = *loaded.element_ids.values().min().expect("root id");
        let published = ppf_core::publish_element(db.store(), root).expect("publish");
        prop_assert_eq!(published, xmldom::to_xml(&doc));
    }

    #[test]
    fn ppf_sql_matches_native_on_random_documents(seed in 0u64..10_000, size in 1usize..6) {
        let doc = gen_doc(seed, size);

        let mut sa = XmlDb::new(&schema()).expect("schema db");
        let sa_loaded = sa.load(&doc).expect("load");
        sa.finalize().expect("indexes");

        let mut ed = EdgeDb::new();
        let ed_loaded = ed.load(&doc).expect("load");
        ed.finalize().expect("indexes");

        let expected: Vec<_> = QUERIES
            .iter()
            .map(|q| (native_ids(&doc, &sa_loaded, q), native_ids(&doc, &ed_loaded, q)))
            .collect();
        let (mut elided_runs, mut ranged_runs) = (0, 0);
        for opts in option_matrix() {
            sa.set_exec_options(opts);
            ed.set_exec_options(opts);
            for (q, (expected_sa, expected_ed)) in QUERIES.iter().zip(&expected) {
                let got_sa = sa.query(q).map_err(|e| {
                    TestCaseError::fail(format!("schema-aware {q} under {opts:?}: {e}"))
                })?;
                elided_runs += usize::from(ran_a_step(&got_sa, elided));
                ranged_runs += usize::from(ran_a_step(&got_sa, ranged));
                let got_sa = got_sa.ids();
                prop_assert_eq!(&got_sa, expected_sa,
                    "schema-aware mismatch for {} (seed {}) under {:?}\nsql: {:?}",
                    q, seed, opts, sa.sql_for(q).ok().flatten());

                let got_ed = ed.query(q).map_err(|e| {
                    TestCaseError::fail(format!("edge {q} under {opts:?}: {e}"))
                })?;
                elided_runs += usize::from(ran_a_step(&got_ed, elided));
                ranged_runs += usize::from(ran_a_step(&got_ed, ranged));
                let got_ed = got_ed.ids();
                prop_assert_eq!(&got_ed, expected_ed,
                    "edge mismatch for {} (seed {}) under {:?}\nsql: {:?}",
                    q, seed, opts, ed.sql_for(q).ok().flatten());
            }
        }
        // The equivalence covers the key-set test and the range cursor,
        // not only equality joins.
        prop_assert!(elided_runs > 0, "no query ran an elided plan (seed {})", seed);
        prop_assert!(ranged_runs > 0, "no query ran a range probe (seed {})", seed);
    }
}
