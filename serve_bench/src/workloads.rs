//! The four workloads: what each sends, in which order, at which rates.
//!
//! Everything here is a pure function of `--seed` (and the fixed XMark
//! vocabulary), so the same seed gives byte-identical request streams
//! and open-loop schedules; the tests at the bottom hold that.

/// The served document: `ppfd --xmark 1.0 --seed 42`. The workload seed
/// never reaches the server — only the generated requests do.
pub const DOC_SCALE: f64 = 1.0;
pub const DOC_SEED: u64 = 42;

/// Distinct XPath texts `ppf_core`'s query cache holds before it is
/// cleared wholesale (`QUERY_CACHE_CAP` in `crates/core/src/engine.rs`).
/// A universe no larger than this is cache-resident after one pass; a
/// larger one, sent pass by pass, never hits.
pub const QUERY_CACHE_CAP: usize = 256;

/// Pipelining bound per connection, closed and open loop: two below the
/// server's default `per_conn_cap` (4). One below is not enough today:
/// `ppfd` lowers a connection's in-flight gauge only after the response
/// is on the wire, so a fast client at depth 3 is shed with `conn_cap`
/// about once in 200k requests (see README.md, "Findings").
pub const PIPELINE_MAX: usize = 2;

/// Rung rates as multiples of the defining run's closed-loop q/s (see
/// README.md); the absolute rates below are frozen, these only label them.
pub const LADDER_STEPS: [f64; 5] = [0.3, 0.5, 0.7, 0.9, 1.1];
/// The rung whose latency is reported as `ol_lat_*_ms`.
pub const REPORT_RUNG: usize = 1;
/// Share of the open-loop half of a run each rung gets: the reported
/// rung is the only one whose percentiles are metrics, so it gets the
/// longest window; the others only need a pass/fail verdict.
pub const RUNG_SHARE: [f64; 5] = [0.15, 0.4, 0.15, 0.15, 0.15];

pub struct Workload {
    pub name: &'static str,
    /// One line for `BENCHMARK.json`; the long form is in README.md.
    pub why: &'static str,
    /// Closed-loop requests in flight per connection.
    pub depth: usize,
    /// One more connection issues `reload` periodically beside the readers.
    pub reload: bool,
    /// Open-loop rates in q/s, summed over connections. Frozen from the
    /// defining run; a later change is judged against these, not against
    /// its own closed-loop throughput.
    pub ladder_qps: [u32; 5],
    /// A rung passes only while open-loop p99 stays at or below this.
    pub limit_p99_ms: f64,
    /// Largest result the workload's design allows; the oracle refuses
    /// a universe that outgrows it (0 = unbounded).
    pub max_rows: usize,
}

pub const WORKLOADS: [Workload; 4] = [
    Workload {
        name: "xmark_mix",
        why: "the paper's 17 XMark queries, all plan-cache hits: execution (regex filter, Dewey joins) is the work, the front end none",
        depth: 1,
        reload: false,
        ladder_qps: [250, 450, 650, 800, 1000],
        limit_p99_ms: 25.0,
        max_rows: 0,
    },
    Workload {
        name: "tiny_path",
        why: "64 cached paths returning <=1 row at pipeline depth 2: frame, admission, thread spawn and encode are the work, the kernels none",
        depth: PIPELINE_MAX,
        reload: false,
        ladder_qps: [4850, 8100, 11350, 14600, 17850],
        limit_p99_ms: 5.0,
        max_rows: 1,
    },
    Workload {
        name: "adhoc_cold",
        why: "8192 distinct XPath texts per pass, so the 256-entry query cache never hits: parse, PPF translate, plan and regex compile are the work",
        depth: 1,
        reload: false,
        ladder_qps: [1150, 1950, 2700, 3500, 4250],
        limit_p99_ms: 10.0,
        max_rows: 10,
    },
    Workload {
        name: "reload_under_read",
        why: "the xmark_mix stream beside a reload every 750 ms: load/finalize/stats as a write, every swap makes all queries cold, retired snapshots must be freed",
        depth: 1,
        reload: true,
        ladder_qps: [100, 200, 300, 350, 450],
        limit_p99_ms: 250.0,
        max_rows: 0,
    },
];

pub fn find(name: &str) -> Option<&'static Workload> {
    WORKLOADS.iter().find(|w| w.name == name)
}

/// One distinct request text with the name failures are listed under.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Query {
    pub name: String,
    pub xpath: String,
}

/// SplitMix64: small, seedable, and owned by the bench, so a stream
/// can only change when this file does.
pub struct Rng(u64);

impl Rng {
    /// Independent stream per `(seed, tag)`.
    pub fn new(seed: u64, tag: u64) -> Rng {
        let mut r = Rng(seed ^ tag.wrapping_mul(0x9e37_79b9_7f4a_7c15));
        r.next();
        r
    }

    pub fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    fn below(&mut self, n: usize) -> usize {
        (self.next() % n as u64) as usize
    }

    /// Uniform in (0, 1].
    fn unit(&mut self) -> f64 {
        ((self.next() >> 11) + 1) as f64 / (1u64 << 53) as f64
    }

    fn shuffle<T>(&mut self, items: &mut [T]) {
        for i in (1..items.len()).rev() {
            items.swap(i, self.below(i + 1));
        }
    }
}

const REGIONS: [&str; 6] = [
    "africa",
    "asia",
    "australia",
    "europe",
    "namerica",
    "samerica",
];
const CONTAINERS: [&str; 5] = [
    "regions",
    "categories",
    "people",
    "open_auctions",
    "closed_auctions",
];

/// 32 paths that select exactly one container element and 32 the schema
/// rules out (statically empty: translated, never executed).
fn tiny_paths() -> Vec<String> {
    let mut v = vec!["/site".to_string(), "//site".to_string()];
    for c in CONTAINERS {
        v.push(format!("/site/{c}"));
        v.push(format!("//{c}"));
    }
    for r in REGIONS {
        v.push(format!("/site/regions/{r}"));
        v.push(format!("//{r}"));
        v.push(format!("/site/regions/{r}/parent::regions"));
    }
    v.push("/site/people/ancestor::site".to_string());
    v.push("/site/*[self::people]".to_string());
    debug_assert_eq!(v.len(), 32);

    for r in REGIONS {
        v.push(format!("/site/regions/{r}/person"));
        v.push(format!("/site/regions/{r}/category"));
    }
    for leaf in [
        "nonexistent",
        "item",
        "person",
        "category",
        "open_auction",
        "closed_auction",
        "keyword",
        "bidder",
        "mailbox",
        "africa",
    ] {
        v.push(format!("/site/{leaf}"));
    }
    for wrong in [
        "item",
        "bidder",
        "open_auction",
        "closed_auction",
        "keyword",
    ] {
        v.push(format!("/site/people/{wrong}"));
        v.push(format!("/site/categories/{wrong}"));
    }
    v
}

/// `adhoc_cold` templates, `{}` = k. Sixteen shapes × k in 0..512 = 8192
/// texts: eight id-predicate lookups on the small relations (category
/// 500 rows, open_auction 600, closed_auction 500, person 1275), four
/// `//a//b` / `//a/ancestor::b[@id=…]` shapes, four the schema rules
/// out (a quarter). category500..511 do not exist: a lookup that misses.
const ADHOC_TEMPLATES: [(&str, &str); 16] = [
    (
        "cat_name",
        "/site/categories/category[@id='category{}']/name",
    ),
    (
        "cat_text",
        "/site/categories/category[@id='category{}']/description/text",
    ),
    (
        "oa_bidder",
        "/site/open_auctions/open_auction[@id='open_auction{}']/bidder",
    ),
    (
        "oa_seller",
        "/site/open_auctions/open_auction[@id='open_auction{}']/seller",
    ),
    (
        "oa_start",
        "/site/open_auctions/open_auction[@id='open_auction{}']/interval/start",
    ),
    ("person_name", "/site/people/person[@id='person{}']/name"),
    (
        "person_city",
        "/site/people/person[@id='person{}']/address/city",
    ),
    (
        "ca_price",
        "/site/closed_auctions/closed_auction[seller/@person='person{}']/price",
    ),
    ("desc_person_city", "//person[@id='person{}']//city"),
    (
        "desc_oa_keyword",
        "//open_auction[@id='open_auction{}']//keyword",
    ),
    (
        "anc_keyword_cat",
        "//keyword/ancestor::category[@id='category{}']",
    ),
    (
        "anc_bidder_oa",
        "//bidder/ancestor::open_auction[@id='open_auction{}']",
    ),
    (
        "x_person_bidder",
        "/site/people/person[@id='person{}']/bidder",
    ),
    (
        "x_cat_item",
        "/site/categories/category[@id='category{}']/item",
    ),
    (
        "x_oa_mailbox",
        "/site/open_auctions/open_auction[@id='open_auction{}']/mailbox",
    ),
    (
        "x_ca_bidder",
        "/site/closed_auctions/closed_auction[buyer/@person='person{}']/bidder",
    ),
];
const ADHOC_IDS: usize = 512;

/// Every distinct request text of a workload. Seed-independent: the seed
/// orders them (so the oracle's expected counts can be cached per
/// document, not per seed).
pub fn universe(w: &Workload) -> Vec<Query> {
    match w.name {
        "tiny_path" => tiny_paths()
            .into_iter()
            .enumerate()
            .map(|(i, xpath)| Query {
                name: format!("t{i:02}"),
                xpath,
            })
            .collect(),
        "adhoc_cold" => (0..ADHOC_IDS)
            .flat_map(|k| {
                ADHOC_TEMPLATES.iter().map(move |(tag, t)| Query {
                    name: format!("{tag}#{k}"),
                    xpath: t.replace("{}", &k.to_string()),
                })
            })
            .collect(),
        // xmark_mix, and reload_under_read's readers.
        _ => xmark::xmark_queries()
            .into_iter()
            .map(|(name, xpath)| Query {
                name: name.to_string(),
                xpath: xpath.to_string(),
            })
            .collect(),
    }
}

/// Requests in one cycle of a workload's global sequence: freshly
/// shuffled passes over the universe (one pass when the universe is
/// already this long). Clients cycle through it.
const CYCLE_MIN: usize = 4096;

/// The workload's request order for `seed`, as indices into
/// [`universe`]; `part` picks an independent order for each server
/// instance of a run. Each pass is a permutation, so every text appears
/// once per pass; a universe at least `CYCLE_MIN` long is one fixed
/// permutation repeated, so a text recurs exactly one pass later.
pub fn sequence(universe_len: usize, seed: u64, part: usize) -> Vec<u32> {
    let mut rng = Rng::new(seed, 1 + part as u64);
    let passes = CYCLE_MIN.div_ceil(universe_len);
    let mut out = Vec::with_capacity(passes * universe_len);
    for _ in 0..passes {
        let mut pass: Vec<u32> = (0..universe_len as u32).collect();
        rng.shuffle(&mut pass);
        out.extend(pass);
    }
    out
}

/// Connection `conn`'s share of the global sequence: every `conns`-th
/// entry. Shares are disjoint, so on `adhoc_cold` no connection can
/// warm the cache for another.
pub fn stream(sequence: &[u32], conn: usize, conns: usize) -> Vec<u32> {
    sequence.iter().copied().skip(conn).step_by(conns).collect()
}

/// Due times (ns from rung start) for one connection of one rung:
/// Poisson arrivals — independent users — at `rate` q/s for `secs`.
pub fn schedule(seed: u64, conn: usize, rung: usize, rate: f64, secs: f64) -> Vec<u64> {
    let mut rng = Rng::new(seed, 1000 + (rung * 64 + conn) as u64);
    let mut due = Vec::new();
    let mut t = 0.0;
    loop {
        t += -rng.unit().ln() / rate;
        if t >= secs {
            return due;
        }
        due.push((t * 1e9) as u64);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::{HashMap, HashSet};

    #[test]
    fn same_seed_gives_identical_streams_and_schedules() {
        for w in &WORKLOADS {
            let n = universe(w).len();
            assert_eq!(universe(w), universe(w));
            assert_eq!(sequence(n, 7, 0), sequence(n, 7, 0), "{}", w.name);
            assert_ne!(sequence(n, 7, 0), sequence(n, 8, 0), "{}", w.name);
            assert_ne!(sequence(n, 7, 0), sequence(n, 7, 1), "{}", w.name);
            for conn in 0..2 {
                let a = schedule(7, conn, 1, 400.0, 2.0);
                assert_eq!(a, schedule(7, conn, 1, 400.0, 2.0));
                assert_ne!(a, schedule(8, conn, 1, 400.0, 2.0));
                assert!(a.windows(2).all(|p| p[0] <= p[1]));
                // Poisson count: 800 expected, sd 28.
                assert!((600..1000).contains(&a.len()), "{}", a.len());
            }
        }
    }

    #[test]
    fn universes_have_the_documented_sizes() {
        let sizes: Vec<usize> = WORKLOADS.iter().map(|w| universe(w).len()).collect();
        assert_eq!(sizes, [17, 64, 8192, 17]);
        for w in &WORKLOADS {
            let u = universe(w);
            let texts: HashSet<&str> = u.iter().map(|q| q.xpath.as_str()).collect();
            let names: HashSet<&str> = u.iter().map(|q| q.name.as_str()).collect();
            assert_eq!(texts.len(), u.len(), "{} texts distinct", w.name);
            assert_eq!(names.len(), u.len(), "{} names distinct", w.name);
            for q in &u {
                xpath::parse_xpath(&q.xpath).unwrap_or_else(|e| panic!("{}: {e}", q.xpath));
            }
        }
    }

    #[test]
    fn adhoc_cold_never_repeats_within_512_requests() {
        let seq = sequence(8192, 3, 0);
        assert_eq!(seq.len(), 8192);
        assert_eq!(seq.iter().collect::<HashSet<_>>().len(), 8192);
        // Across the wrap-around too, for the whole sequence and for
        // each connection's share of it.
        for conns in [1, 2, 4] {
            for conn in 0..conns {
                let s = stream(&seq, conn, conns);
                let mut last: HashMap<u32, usize> = HashMap::new();
                for (i, q) in s.iter().chain(s.iter()).enumerate() {
                    if let Some(prev) = last.insert(*q, i) {
                        assert!(i - prev > 512, "text {q} repeats after {}", i - prev);
                    }
                }
            }
        }
    }

    #[test]
    fn connection_shares_are_disjoint_and_cover_the_sequence() {
        let seq = sequence(8192, 5, 0);
        let a = stream(&seq, 0, 2);
        let b = stream(&seq, 1, 2);
        assert_eq!(a.len() + b.len(), seq.len());
        let sa: HashSet<u32> = a.into_iter().collect();
        assert!(b.iter().all(|q| !sa.contains(q)));
    }

    #[test]
    fn small_universes_are_reshuffled_every_pass() {
        let seq = sequence(17, 11, 0);
        assert_eq!(seq.len() % 17, 0);
        assert!(seq.len() >= CYCLE_MIN);
        for pass in seq.chunks(17) {
            assert_eq!(pass.iter().collect::<HashSet<_>>().len(), 17);
        }
        assert_ne!(seq[..17], seq[17..34]);
    }
}
