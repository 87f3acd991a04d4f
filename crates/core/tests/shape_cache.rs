//! The shape index of the query cache must be invisible: a text that
//! misses but reuses the translation of a cached shape (the same query up
//! to the string literals it compares paths with) runs exactly the
//! statement that translating the text itself builds, and returns the
//! same rows in the same order.
//!
//! Every text goes through a warm engine, so most of them bind their
//! literals into a shape cached by an earlier text. Each is checked
//! against `translate(text)` run on a fresh executor.

use proptest::prelude::*;
use sqlexec::{ExecOptions, Executor, Prepared};
use xmark::{
    dblp_queries, dblp_schema, generate_dblp, generate_xmark, xmark_queries, xmark_schema,
    DblpConfig, XMarkConfig,
};
use xmldom::{Document, TreeBuilder};

use ppf_core::{EdgeDb, OutputKind, XmlDb};

/// The served benchmark's `adhoc_cold` templates, `{}` = an id number
/// (copied: the benchmark is not a dependency of this crate).
const ADHOC_TEMPLATES: [&str; 16] = [
    "/site/categories/category[@id='category{}']/name",
    "/site/categories/category[@id='category{}']/description/text",
    "/site/open_auctions/open_auction[@id='open_auction{}']/bidder",
    "/site/open_auctions/open_auction[@id='open_auction{}']/seller",
    "/site/open_auctions/open_auction[@id='open_auction{}']/interval/start",
    "/site/people/person[@id='person{}']/name",
    "/site/people/person[@id='person{}']/address/city",
    "/site/closed_auctions/closed_auction[seller/@person='person{}']/price",
    "//person[@id='person{}']//city",
    "//open_auction[@id='open_auction{}']//keyword",
    "//keyword/ancestor::category[@id='category{}']",
    "//bidder/ancestor::open_auction[@id='open_auction{}']",
    "/site/people/person[@id='person{}']/bidder",
    "/site/categories/category[@id='category{}']/item",
    "/site/open_auctions/open_auction[@id='open_auction{}']/mailbox",
    "/site/closed_auctions/closed_auction[buyer/@person='person{}']/bidder",
];

const ADHOC_IDS: [u32; 6] = [0, 1, 17, 499, 511, 600];

/// The §4.5 ablation's chains that are not XMark queries verbatim
/// (copied from the bench crate's `ABLATION_CHAINS`; its other two are
/// XMark Q23 and Q1).
const ABLATION_CHAINS: [&str; 3] = [
    "/site/open_auctions/open_auction/interval/start",
    "/site/people/person/address/city",
    "//parlist/listitem//keyword",
];

/// Runs `text` on the warm `$db` and checks it against its own
/// translation on a fresh executor; evaluates to the query's
/// `shape_hits`.
macro_rules! check_text {
    ($db:expr, $text:expr) => {{
        let (db, text) = (&$db, $text);
        let r = db.query(text).unwrap_or_else(|e| panic!("{text}: {e}"));
        let t = db.translate(text).unwrap();
        assert_eq!(
            r.stmt.as_deref().map(Prepared::stmt),
            t.stmt.as_ref(),
            "{text}"
        );
        let expected = match &t.stmt {
            Some(stmt) => {
                Executor::with_options(db.db(), ExecOptions::default())
                    .run(stmt)
                    .unwrap()
                    .rows
            }
            // A statically empty answer has the arity of its kind.
            None => sqlexec::Rows::new(match t.output {
                OutputKind::Elements => 1,
                OutputKind::AttributeValue | OutputKind::TextValue => 2,
            }),
        };
        assert_eq!(r.rows.rows, expected, "{text}");
        r.engine.shape_hits
    }};
}

#[test]
fn xmark_and_adhoc_texts_run_their_own_translation() {
    let doc = generate_xmark(XMarkConfig {
        scale: 0.02,
        seed: 42,
    });
    for marking in [true, false] {
        let mut db = XmlDb::new(&xmark_schema()).unwrap();
        db.set_path_marking(marking);
        db.load(&doc).unwrap();
        db.finalize().unwrap();

        let mut texts: Vec<String> = xmark_queries()
            .into_iter()
            .map(|(_, q)| q.to_string())
            .collect();
        texts.extend(ABLATION_CHAINS.map(String::from));
        for id in ADHOC_IDS {
            for t in ADHOC_TEMPLATES {
                texts.push(t.replace("{}", &id.to_string()));
            }
        }
        let shape_hits: u64 = texts.iter().map(|t| check_text!(db, t.as_str())).sum();
        // Every template's ids after the first bind into its shape.
        assert_eq!(
            shape_hits,
            (ADHOC_TEMPLATES.len() * (ADHOC_IDS.len() - 1)) as u64,
            "marking {marking}"
        );
    }
}

#[test]
fn dblp_texts_run_their_own_translation() {
    let doc = generate_dblp(DblpConfig {
        scale: 0.02,
        seed: 7,
    });
    let mut db = XmlDb::new(&dblp_schema()).unwrap();
    db.load(&doc).unwrap();
    db.finalize().unwrap();
    for (_, q) in dblp_queries() {
        check_text!(db, q);
    }
    // The same shape as QD1, another author.
    let q = "//inproceedings/title[preceding-sibling::author = 'nobody']";
    assert_eq!(check_text!(db, q), 1);
}

fn library_schema() -> xmlschema::Schema {
    xmlschema::parse_schema(
        "root lib\n\
         lib = book*\n\
         book @id = name title?\n\
         name : text\n\
         title : text\n",
    )
    .unwrap()
}

/// Book `i` has `@id` `vals[i]` and name `vals[i + 1]` (wrapping), so a
/// literal drawn from `vals` matches.
fn library(vals: &[String]) -> Document {
    let mut b = TreeBuilder::new();
    b.start_element("lib");
    for (i, v) in vals.iter().enumerate() {
        b.start_element("book");
        b.attribute("id", v.clone());
        b.leaf("name", vals[(i + 1) % vals.len()].clone());
        b.end_element();
    }
    b.end_element();
    b.finish()
}

/// `lit` as an XPath literal: between `"` when it holds `'`.
fn quote(lit: &str) -> String {
    if lit.contains('\'') {
        format!("\"{lit}\"")
    } else {
        format!("'{lit}'")
    }
}

/// Literals as a query can write them: empty, holding `'` only or `"`
/// only, with spaces, and non-ASCII.
fn literal() -> impl Strategy<Value = String> {
    prop_oneof![
        Just(String::new()),
        "[a-c' ]{1,5}",
        "[a-c\" ]{1,5}",
        "[a-cé€ß ]{1,5}",
    ]
}

/// Query templates; `{a}` and `{b}` are literals.
const TEMPLATES: [&str; 6] = [
    "/lib/book[@id = {a}]/name",
    "/lib/book[name = {a}]/@id",
    "//book[{a} = @id]",
    "//book[@id = {a} or name = {b}]/name",
    "/lib/book[@id != {a}][name = {b}]",
    "//name[. = {a}]",
];

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

    /// Two texts of one template, the second run right after the first:
    /// it binds into the first one's shape whenever the two have the same
    /// pattern of equal literals.
    #[test]
    fn random_literals_bind_like_their_own_translation(
        vals in proptest::collection::vec(literal(), 1..5),
        template in 0..TEMPLATES.len(),
        picks in proptest::collection::vec((any::<bool>(), 0usize..8, literal()), 4),
    ) {
        let lit = |i: usize| -> String {
            let (from_doc, idx, fresh) = &picks[i];
            if *from_doc { vals[idx % vals.len()].clone() } else { fresh.clone() }
        };
        let template = TEMPLATES[template];
        let texts = [(lit(0), lit(1)), (lit(2), lit(3))].map(|(a, b)| {
            let text = template.replace("{a}", &quote(&a)).replace("{b}", &quote(&b));
            (text, a == b)
        });
        let shared = texts[0].0 != texts[1].0
            && (!template.contains("{b}") || texts[0].1 == texts[1].1);

        let doc = library(&vals);
        let mut db = XmlDb::new(&library_schema()).unwrap();
        db.load(&doc).unwrap();
        db.finalize().unwrap();
        let mut edge = EdgeDb::new();
        edge.load(&doc).unwrap();
        edge.finalize().unwrap();

        check_text!(db, texts[0].0.as_str());
        prop_assert_eq!(check_text!(db, texts[1].0.as_str()), shared as u64);
        check_text!(edge, texts[0].0.as_str());
        prop_assert_eq!(check_text!(edge, texts[1].0.as_str()), shared as u64);
    }
}

#[test]
fn a_failed_translation_reports_the_users_literals() {
    let doc = library(&["one".to_string(), "it's".to_string()]);
    let mut db = XmlDb::new(&library_schema()).unwrap();
    db.load(&doc).unwrap();
    db.finalize().unwrap();
    let mut edge = EdgeDb::new();
    edge.load(&doc).unwrap();
    edge.finalize().unwrap();

    // A comparison of comparisons is outside the translatable subset, and
    // the error quotes it; its inner comparisons hold lifted literals.
    for (q, quoted) in [
        (
            "//book[(@id = 'one') = (name = 'two')]",
            ["@id = 'one'", "name = 'two'"],
        ),
        (
            "//book[(@id = \"it's\") = (name = 'two')]",
            ["@id = \"it's\"", "name = 'two'"],
        ),
    ] {
        for _ in 0..2 {
            for err in [db.query(q).unwrap_err(), edge.query(q).unwrap_err()] {
                let msg = err.to_string();
                for lit in quoted {
                    assert!(msg.contains(lit), "{q}: {msg}");
                }
                // A slot token holds both quotes; no user literal can.
                let rest = quoted.iter().fold(msg.clone(), |m, lit| m.replace(lit, ""));
                assert!(!(rest.contains('\'') && rest.contains('"')), "{q}: {msg}");
            }
        }
    }
}
