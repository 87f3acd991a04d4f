//! `par_cost` — a measured cost model for `ParallelMode::Auto` decisions.
//!
//! PR 3's Auto heuristic forked on blind row-count thresholds
//! (`PAR_MIN_OUTER_ROWS = 64` and friends), which made 217-row queries
//! pay a fan-out that cost more than the work it split (BENCH_3's Q1:
//! warm 4-thread time 2.3× the serial time). This module replaces the
//! thresholds with an estimate in nanoseconds on both sides of the
//! decision:
//!
//! ```text
//! serial_ns   = work × per_row_ns
//! parallel_ns = fork_ns + chunks × chunk_ns + serial_ns / speedup
//! speedup     = 1 + (threads − 1) × efficiency
//! fork iff      parallel_ns < serial_ns × FORK_MARGIN
//! ```
//!
//! The inputs come from three sources, none guessed:
//!
//! * **Calibration** (once per pool size, lazily): `fork_ns` and
//!   `chunk_ns` are measured by timing empty fan-outs on the live global
//!   pool — minimum over trials, so scheduler noise only ever inflates a
//!   single sample, not the model. The `efficiency` *prior* is measured
//!   too: the same CPU-bound busy-loop is timed serially and split
//!   across the pool, and the observed speedup becomes the starting
//!   efficiency. On a single-core host that measures ≈0, so Auto
//!   declines forks from the very first decision instead of learning
//!   the hard way on real queries.
//! * **Serial observation**: every serial branch completion / filter
//!   scan / sort that the executor runs while a multi-thread pool exists
//!   feeds its measured per-row cost into an EWMA ([`note_serial`]).
//! * **Parallel observation**: every fork reports its work/span ratio —
//!   summed chunk wall times over end-to-end fan-out time — into the
//!   `efficiency` EWMA ([`note_fork`]). The ratio is measured on the
//!   fork itself, with no estimate in the loop. On a single-core host
//!   efficiency converges toward zero and Auto stops forking; on a real
//!   4-core host it converges toward 1 and forking keeps paying. No
//!   `nproc` special-casing — the machine tells us what parallelism is
//!   worth.
//!
//! Deterministic **exploration** keeps both halves of the estimate
//! alive: every [`EXPLORE_PERIOD`]-th decision that would have been
//! suppressed as `no-gain`/`one-chunk` forks anyway, so a host whose
//! conditions change (cores freed, pool resized) is re-measured instead
//! of being stuck with a stale "parallelism doesn't pay" verdict; and
//! symmetrically, every [`PROBE_PERIOD`]-th decision that *would* fork
//! runs serial instead (`serial(probe)`), because serial completions
//! are the only unbiased source of per-row costs — a model that always
//! forks would otherwise compare fork walls against its own stale
//! estimate forever and never notice the estimate had drifted.
//!
//! Tests pin the model through `ExecOptions::cost_model`, which every
//! entry point here takes as its `pinned` argument: a pinned model also
//! disables learning and exploration, so decisions are a pure function
//! of the model and the inputs.
//!
//! The `work` fed into `decide()` is the executor's fork-work product
//! of per-step `est_fetched` estimates — so table statistics
//! (`relstore::stats`, consumed by `plan::estimate_access`) sharpen
//! Auto's fork decisions for free: better cardinalities in, better
//! nanosecond estimates out. Nothing in this module reads the
//! statistics directly.

use std::sync::atomic::{AtomicU64, Ordering::Relaxed};
use std::sync::{Mutex, OnceLock};
use std::time::Instant;

/// Fork only when the parallel estimate beats this fraction of the
/// serial estimate — a projected win below ~15% is inside the model's
/// noise floor and not worth the risk.
const FORK_MARGIN: f64 = 0.85;

/// A chunk must carry at least this many multiples of its own dispatch
/// overhead in useful work, or it is not worth cutting.
const CHUNK_AMORT: f64 = 4.0;

/// Every Nth suppressed fork runs anyway to re-measure efficiency.
/// Prime, so a fixed number of decisions per benchmark round does not
/// pin exploration to the same queries every round.
const EXPLORE_PERIOD: u64 = 29;

/// Every Nth model-approved fork runs serial instead, feeding an
/// unbiased per-row cost into [`note_serial`]. Bounded cost on hosts
/// where forking pays (one serial operator in seven), and the cure for
/// estimate drift: without probes a fork-happy model only ever compares
/// fork walls against its own estimate, so an inflated per-row cost
/// reads as a speedup and sustains itself.
const PROBE_PERIOD: u64 = 7;

/// EWMA weight of a new observation.
const EWMA_ALPHA: f64 = 0.25;

/// What one unit of work costs, and what forking costs, in nanoseconds.
/// `efficiency` is the observed per-extra-thread payoff in `[0, 1]`:
/// 1.0 means `t` threads run `t×` faster, 0.0 means extra threads are
/// pure overhead (the single-core truth).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CostModel {
    /// Per estimated work-row of a branch pipeline (outer row × planner
    /// fan-out product).
    pub row_ns: f64,
    /// Per row of a path-filter (regex) scan.
    pub scan_ns: f64,
    /// Per comparison of the final ORDER BY / merge sort.
    pub sort_cmp_ns: f64,
    /// Fixed cost of one fork-join fan-out on the pool.
    pub fork_ns: f64,
    /// Marginal cost of each chunk (dispatch + per-worker setup).
    pub chunk_ns: f64,
    /// Observed parallel efficiency per extra thread, `[0, 1]`.
    pub efficiency: f64,
}

impl Default for CostModel {
    /// Priors used before any observation lands: optimistic efficiency
    /// (so the first decisions fork and get measured) and mid-range row
    /// costs. All of them wash out within a handful of executions.
    fn default() -> CostModel {
        CostModel {
            row_ns: 150.0,
            scan_ns: 80.0,
            sort_cmp_ns: 25.0,
            fork_ns: 20_000.0,
            chunk_ns: 3_000.0,
            efficiency: 0.85,
        }
    }
}

/// The kinds of work the model prices. Each has its own learned per-row
/// cost; they share the fork/chunk overheads and the efficiency EWMA.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum WorkKind {
    /// Partitioned branch pipeline (outer rows × planner fan-out).
    Branch,
    /// Path-filter regex scan over a table.
    FilterScan,
    /// Final ORDER BY merge sort (work = n·log₂n comparisons).
    Sort,
    /// UNION arms executed concurrently (work = summed arm estimates,
    /// priced via `row_ns`; chunks = arms).
    Union,
}

impl WorkKind {
    fn label(self) -> &'static str {
        match self {
            WorkKind::Branch => "branch",
            WorkKind::FilterScan => "filter",
            WorkKind::Sort => "sort",
            WorkKind::Union => "union",
        }
    }
}

/// The model's verdict for one potential fan-out.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum ParDecision {
    /// Partition into `chunks` pieces. `est_ns` is the serial estimate
    /// the decision was based on (reported in the `par_decision` log).
    Fork { chunks: usize, est_ns: f64 },
    /// Stay serial, with the reason: `"tiny"` (fewer than 2 rows),
    /// `"one-chunk"` (work cannot amortize a second chunk), `"no-gain"`
    /// (the fork estimate does not beat the margin), or `"probe"` (the
    /// model wanted to fork but this execution runs serial to re-measure
    /// the true per-row cost).
    Serial(&'static str),
}

impl ParDecision {
    pub fn is_fork(&self) -> bool {
        matches!(self, ParDecision::Fork { .. })
    }
}

// ----- learned state (process-global, f64 stored as bits) -----

struct Ewma(AtomicU64);

impl Ewma {
    const fn new() -> Ewma {
        // 0 bits == 0.0 sentinel: "no observation yet, use the prior".
        Ewma(AtomicU64::new(0))
    }

    fn get(&self, prior: f64) -> f64 {
        let bits = self.0.load(Relaxed);
        if bits == 0 {
            prior
        } else {
            f64::from_bits(bits)
        }
    }

    fn update(&self, obs: f64) {
        let bits = self.0.load(Relaxed);
        let next = if bits == 0 {
            // First observation replaces the prior outright: priors are
            // order-of-magnitude guesses, and blending toward them 25%
            // per sample would keep decisions biased for several
            // executions after real data arrived.
            obs
        } else {
            let cur = f64::from_bits(bits);
            cur + EWMA_ALPHA * (obs - cur)
        };
        // Observations can legitimately be 0.0 (a fork with no payoff);
        // keep the stored value off the "unobserved" sentinel.
        self.0.store(next.max(1e-9).to_bits(), Relaxed);
    }
}

static ROW_NS: Ewma = Ewma::new();
static SCAN_NS: Ewma = Ewma::new();
static SORT_NS: Ewma = Ewma::new();
static EFFICIENCY: Ewma = Ewma::new();
static EXPLORE_TICK: AtomicU64 = AtomicU64::new(0);
static PROBE_TICK: AtomicU64 = AtomicU64::new(0);
/// Forks taken because of exploration rather than a projected win.
static EXPLORE_FORKS: AtomicU64 = AtomicU64::new(0);

/// Exploration forks taken since process start (suppressed decisions
/// deliberately run in parallel to refresh the efficiency estimate).
pub fn explore_forks() -> u64 {
    EXPLORE_FORKS.load(Relaxed)
}

// ----- calibration -----

/// Measured `(fork_ns, chunk_ns, efficiency_prior)` per pool thread
/// count.
type CalibrationMap = std::collections::HashMap<usize, (f64, f64, f64)>;

fn calibrations() -> &'static Mutex<CalibrationMap> {
    static CAL: OnceLock<Mutex<CalibrationMap>> = OnceLock::new();
    CAL.get_or_init(|| Mutex::new(std::collections::HashMap::new()))
}

/// Time one empty fan-out of `chunks` chunks on the global pool,
/// minimum of `trials` runs.
fn time_empty_fanout(pool: &ppf_pool::Pool, chunks: usize, trials: usize) -> f64 {
    let ranges = ppf_pool::even_ranges(chunks, chunks);
    let mut best = f64::INFINITY;
    for _ in 0..trials {
        let t0 = Instant::now();
        let out = pool.map_ranges(&ranges, |_, r| r.len());
        let dt = t0.elapsed().as_nanos() as f64;
        assert_eq!(out.len(), chunks);
        best = best.min(dt);
    }
    best
}

/// Iterations of the calibration busy-loop: roughly a millisecond of
/// serial CPU work on a modern core — large enough that fork overhead
/// is a small fraction of the parallel timing, small enough that the
/// once-per-pool-size calibration stays in the low milliseconds.
const CAL_BUSY_ITERS: usize = 2_000_000;

/// A CPU-bound loop the optimizer cannot fold away (the result is
/// `black_box`ed by the caller) and that touches no memory, so its
/// parallel speedup measures scheduling, not the cache hierarchy.
fn busy_work(range: std::ops::Range<usize>) -> u64 {
    let mut x = 0x9e37_79b9_7f4a_7c15u64;
    for i in range {
        x = x
            .wrapping_mul(6364136223846793005)
            .wrapping_add(i as u64 | 1);
    }
    x
}

/// Convert a measured serial/parallel wall-time pair into the
/// per-extra-thread efficiency in `[0, 1]` that [`CostModel`] prices
/// with.
fn efficiency_from(serial_ns: f64, parallel_ns: f64, threads: usize) -> f64 {
    if threads < 2 || parallel_ns <= 0.0 || serial_ns <= 0.0 {
        return 0.0;
    }
    let speedup = serial_ns / parallel_ns;
    ((speedup - 1.0) / (threads as f64 - 1.0)).clamp(0.0, 1.0)
}

/// Measure what forking is actually worth on this machine: time the
/// same busy-loop serially and split across the live pool, best of
/// three each. A single-core host measures ≈0 (the pool's threads
/// time-slice one core, plus fan-out overhead); a real multi-core host
/// measures its true per-extra-thread payoff.
fn measure_efficiency(pool: &ppf_pool::Pool, threads: usize) -> f64 {
    let ranges = ppf_pool::even_ranges(CAL_BUSY_ITERS, threads);
    let mut serial = f64::INFINITY;
    let mut parallel = f64::INFINITY;
    for _ in 0..3 {
        let t0 = Instant::now();
        std::hint::black_box(busy_work(0..CAL_BUSY_ITERS));
        serial = serial.min(t0.elapsed().as_nanos() as f64);
        let t0 = Instant::now();
        std::hint::black_box(pool.map_ranges(&ranges, |_, r| busy_work(r)));
        parallel = parallel.min(t0.elapsed().as_nanos() as f64);
    }
    efficiency_from(serial, parallel, threads)
}

/// Measured fork/chunk overheads and efficiency prior for a pool of
/// `threads` lanes, calibrated on first use (a few fan-outs plus two
/// busy-loop timings, single-digit milliseconds total) and cached for
/// the process lifetime. The lock is held across calibration so
/// concurrent first-callers measure once.
fn calibrated(threads: usize) -> (f64, f64, f64) {
    // Per-thread cache of the last (threads → triple) answer. `decide`
    // runs on every operator of every query; paying the global mutex +
    // hash lookup each time taxed sub-50µs queries by whole percents.
    // Calibrations are immutable once measured, so a stale hit is
    // impossible — only a pool-size change misses, and that refetches.
    thread_local! {
        static LAST: std::cell::Cell<(usize, f64, f64, f64)> =
            const { std::cell::Cell::new((usize::MAX, 0.0, 0.0, 0.0)) };
    }
    let hit = LAST.with(|c| {
        let v = c.get();
        if v.0 == threads {
            Some((v.1, v.2, v.3))
        } else {
            None
        }
    });
    if let Some(entry) = hit {
        return entry;
    }
    let mut map = calibrations()
        .lock()
        .unwrap_or_else(|poisoned| poisoned.into_inner());
    if let Some(&entry) = map.get(&threads) {
        LAST.with(|c| c.set((threads, entry.0, entry.1, entry.2)));
        return entry;
    }
    let pool = ppf_pool::global();
    let defaults = CostModel::default();
    if threads <= 1 {
        // Nothing to measure for a serial "pool"; the defaults are the
        // permanent answer, so the thread-local may keep them.
        let entry = (defaults.fork_ns, defaults.chunk_ns, defaults.efficiency);
        LAST.with(|c| c.set((threads, entry.0, entry.1, entry.2)));
        return entry;
    }
    if pool.threads() != threads {
        // Pool was resized between the caller's read and ours. Fall back
        // to priors WITHOUT caching anywhere: a later call with a
        // matching pool should measure for real.
        return (defaults.fork_ns, defaults.chunk_ns, defaults.efficiency);
    }
    // Warm the workers out of their first park before timing.
    pool.scope(|_| {});
    let wide = (threads * 2).max(4);
    let t_two = time_empty_fanout(&pool, 2, 5);
    let t_wide = time_empty_fanout(&pool, wide, 5);
    let chunk = ((t_wide - t_two) / (wide - 2) as f64).max(200.0);
    let fork = (t_two - 2.0 * chunk).max(1_000.0);
    let efficiency = measure_efficiency(&pool, threads);
    map.insert(threads, (fork, chunk, efficiency));
    LAST.with(|c| c.set((threads, fork, chunk, efficiency)));
    (fork, chunk, efficiency)
}

/// The model as currently learned/calibrated. `fork_ns`/`chunk_ns` are
/// for the given pool size.
pub fn snapshot(threads: usize) -> CostModel {
    let d = CostModel::default();
    let (fork_ns, chunk_ns, eff_prior) = calibrated(threads);
    CostModel {
        row_ns: ROW_NS.get(d.row_ns),
        scan_ns: SCAN_NS.get(d.scan_ns),
        sort_cmp_ns: SORT_NS.get(d.sort_cmp_ns),
        fork_ns,
        chunk_ns,
        efficiency: EFFICIENCY.get(eff_prior),
    }
}

// ----- the decision -----

/// Pure decision function: no globals, no exploration. Public so tests
/// (and the docs) can exercise the formula with a hand-built model.
pub fn decide_from(m: &CostModel, est_ns: f64, rows: usize, threads: usize) -> ParDecision {
    if rows < 2 || threads < 2 {
        return ParDecision::Serial("tiny");
    }
    let speedup = (1.0 + (threads as f64 - 1.0) * m.efficiency.clamp(0.0, 1.0)).max(1.0);
    let max_chunks = threads * 2;
    let amortized = (est_ns / (m.chunk_ns.max(1.0) * CHUNK_AMORT)) as usize;
    let chunks = max_chunks.min(amortized).min(rows);
    if chunks < 2 {
        return ParDecision::Serial("one-chunk");
    }
    let parallel_ns = m.fork_ns + chunks as f64 * m.chunk_ns + est_ns / speedup;
    if parallel_ns < est_ns * FORK_MARGIN {
        ParDecision::Fork { chunks, est_ns }
    } else {
        ParDecision::Serial("no-gain")
    }
}

/// Units of estimated work for `kind` (`rows` scaled by the caller's
/// fan-out knowledge) priced into nanoseconds.
fn price(m: &CostModel, kind: WorkKind, work: f64) -> f64 {
    let per_unit = match kind {
        WorkKind::Branch | WorkKind::Union => m.row_ns,
        WorkKind::FilterScan => m.scan_ns,
        WorkKind::Sort => m.sort_cmp_ns,
    };
    work * per_unit
}

/// Decide whether to fork `kind` over `rows` partitionable rows, where
/// `work` is the estimated serial work in model units (rows × fan-out
/// for branches, n·log₂n for sorts, plain row counts for scans). Prices
/// with the `pinned` model when given; otherwise uses the learned model
/// and may return an exploration fork for a decision it would have
/// suppressed.
pub fn decide(
    kind: WorkKind,
    work: f64,
    rows: usize,
    threads: usize,
    pinned: Option<CostModel>,
) -> ParDecision {
    if rows < 2 || threads < 2 {
        // Same answer `decide_from` would give, reached without touching
        // the model — this is the common case on every serial operator.
        return ParDecision::Serial("tiny");
    }
    if let Some(m) = pinned {
        return decide_from(&m, price(&m, kind, work), rows, threads);
    }
    let m = snapshot(threads);
    let est_ns = price(&m, kind, work);
    let d = decide_from(&m, est_ns, rows, threads);
    match d {
        ParDecision::Fork { .. } => {
            // Periodically run a would-be fork serial so `note_serial`
            // gets an unbiased per-row sample; see `PROBE_PERIOD`.
            let tick = PROBE_TICK.fetch_add(1, Relaxed) + 1;
            if tick.is_multiple_of(PROBE_PERIOD) {
                ParDecision::Serial("probe")
            } else {
                d
            }
        }
        ParDecision::Serial("tiny") => d,
        ParDecision::Serial(_) => {
            // Partitionable work we chose not to fork: occasionally fork
            // anyway so `efficiency` tracks reality instead of history.
            let tick = EXPLORE_TICK.fetch_add(1, Relaxed) + 1;
            if tick.is_multiple_of(EXPLORE_PERIOD) {
                EXPLORE_FORKS.fetch_add(1, Relaxed);
                let chunks = rows.min(threads * 2).max(2).min(rows.max(2));
                ParDecision::Fork { chunks, est_ns }
            } else {
                d
            }
        }
    }
}

// ----- observation -----

/// Floor under which serial timings are too noisy to learn from.
const MIN_LEARN_ROWS: f64 = 64.0;

/// Feed one *serial* execution's measured cost back into the per-row
/// EWMA for `kind`. `work` is in the same units as [`decide`]'s. A
/// `pinned` model learns nothing.
pub fn note_serial(kind: WorkKind, work: f64, wall_ns: u64, pinned: Option<CostModel>) {
    if pinned.is_some() || work < MIN_LEARN_ROWS || wall_ns == 0 {
        return;
    }
    let per_unit = (wall_ns as f64 / work).clamp(1.0, 1_000_000.0);
    match kind {
        WorkKind::Branch | WorkKind::Union => ROW_NS.update(per_unit),
        WorkKind::FilterScan => SCAN_NS.update(per_unit),
        WorkKind::Sort => SORT_NS.update(per_unit),
    }
}

/// Feed one fork's outcome back into the efficiency EWMA. `busy_ns` is
/// the summed wall time of the fork's chunks (the work), `wall_ns` the
/// fan-out's end-to-end time (the span): their ratio is the speedup the
/// fork actually delivered, measured on the fork itself. Earlier
/// versions compared `wall_ns` against the *model's own serial
/// estimate*, which is circular — an inflated per-row cost reads as a
/// phantom speedup and keeps the model forking on hosts where forking
/// loses. Work/span involves no estimate: on one core busy ≈ wall and
/// efficiency converges to 0; on N cores busy approaches N × wall. A
/// `pinned` model learns nothing.
pub fn note_fork(busy_ns: u64, wall_ns: u64, threads: usize, pinned: Option<CostModel>) {
    if pinned.is_some() || threads < 2 || wall_ns == 0 || busy_ns == 0 {
        return;
    }
    let speedup_obs = (busy_ns as f64 / wall_ns as f64).clamp(0.05, threads as f64);
    let efficiency_obs = ((speedup_obs - 1.0) / (threads as f64 - 1.0)).clamp(0.0, 1.0);
    EFFICIENCY.update(efficiency_obs);
}

/// Render a decision for the executor's `par_decision` log.
pub fn describe(kind: WorkKind, d: &ParDecision) -> String {
    match d {
        ParDecision::Fork { chunks, est_ns } => format!(
            "{}:fork(chunks={chunks},est={:.0}us)",
            kind.label(),
            est_ns / 1_000.0
        ),
        ParDecision::Serial(reason) => format!("{}:serial({reason})", kind.label()),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn flat(efficiency: f64) -> CostModel {
        CostModel {
            row_ns: 100.0,
            scan_ns: 100.0,
            sort_cmp_ns: 100.0,
            fork_ns: 10_000.0,
            chunk_ns: 1_000.0,
            efficiency,
        }
    }

    #[test]
    fn tiny_inputs_never_fork() {
        let m = flat(1.0);
        assert_eq!(decide_from(&m, 1e9, 1, 4), ParDecision::Serial("tiny"));
        assert_eq!(decide_from(&m, 1e9, 100, 1), ParDecision::Serial("tiny"));
    }

    #[test]
    fn large_work_forks_with_capped_chunks() {
        let m = flat(1.0);
        // 1M rows at 100ns = 100ms of work: an easy fork.
        match decide_from(&m, 1_000_000.0 * m.row_ns, 1_000_000, 4) {
            ParDecision::Fork { chunks, est_ns } => {
                assert_eq!(chunks, 8, "chunks cap at 2×threads");
                assert!((est_ns - 1e8).abs() < 1.0);
            }
            other => panic!("expected fork, got {other:?}"),
        }
    }

    #[test]
    fn small_work_cannot_amortize_a_second_chunk() {
        let m = flat(1.0);
        // 50 rows × 100ns = 5µs of work vs 1µs per chunk at 4× amort:
        // amortized chunk budget is 1 — stay serial.
        assert_eq!(
            decide_from(&m, 50.0 * m.row_ns, 50, 4),
            ParDecision::Serial("one-chunk")
        );
    }

    #[test]
    fn zero_efficiency_never_forks() {
        // The single-core verdict: however big the work, threads add
        // nothing, so the fork estimate can never clear the margin.
        let m = flat(0.0);
        for rows in [100usize, 10_000, 1_000_000] {
            let d = decide_from(&m, rows as f64 * m.row_ns, rows, 4);
            assert_eq!(d, ParDecision::Serial("no-gain"), "rows={rows}");
        }
    }

    #[test]
    fn marginal_work_respects_the_fork_margin() {
        let m = flat(1.0);
        // Work exactly equal to the overhead cannot win by the margin.
        let est = m.fork_ns + 2.0 * m.chunk_ns;
        assert!(!decide_from(&m, est, 1000, 4).is_fork());
        // 100× the overhead wins easily at full efficiency.
        assert!(decide_from(&m, est * 100.0, 1000, 4).is_fork());
    }

    #[test]
    fn pinned_model_fixes_decisions_and_disables_learning() {
        let pinned = Some(flat(1.0));
        // With the model pinned, decide() is deterministic and
        // observations are discarded.
        let d1 = decide(WorkKind::Branch, 1_000_000.0, 1_000_000, 4, pinned);
        note_serial(WorkKind::Branch, 1_000_000.0, 1, pinned);
        note_fork(1_000_000_000, 1, 4, pinned);
        let d2 = decide(WorkKind::Branch, 1_000_000.0, 1_000_000, 4, pinned);
        assert_eq!(d1, d2);
        assert!(d1.is_fork());
    }

    #[test]
    fn efficiency_from_measured_speedups() {
        // Perfect 4× scaling at 4 threads: every extra thread pays full.
        assert!((efficiency_from(4.0e6, 1.0e6, 4) - 1.0).abs() < 1e-9);
        // No speedup at all: the single-core verdict.
        assert_eq!(efficiency_from(1.0e6, 1.0e6, 4), 0.0);
        // Parallel SLOWER than serial clamps to zero, not negative.
        assert_eq!(efficiency_from(1.0e6, 2.0e6, 4), 0.0);
        // 2× at 4 threads: a third of the ideal extra-thread payoff.
        assert!((efficiency_from(2.0e6, 1.0e6, 4) - 1.0 / 3.0).abs() < 1e-9);
        // Degenerate inputs never divide by zero.
        assert_eq!(efficiency_from(1.0e6, 0.0, 4), 0.0);
        assert_eq!(efficiency_from(1.0e6, 1.0e6, 1), 0.0);
    }

    #[test]
    fn describe_is_compact() {
        let fork = ParDecision::Fork {
            chunks: 4,
            est_ns: 250_000.0,
        };
        assert_eq!(
            describe(WorkKind::Branch, &fork),
            "branch:fork(chunks=4,est=250us)"
        );
        assert_eq!(
            describe(WorkKind::Sort, &ParDecision::Serial("no-gain")),
            "sort:serial(no-gain)"
        );
    }
}
