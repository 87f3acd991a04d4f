//! Process-wide metrics: named counters and log₂-bucketed histograms.
//!
//! All updates go through a [`Registry`] guarded by a single mutex; the
//! intended usage is a handful of updates per *query* (not per row), so
//! contention is not a concern. Hot loops should accumulate locally and
//! flush once.

use std::collections::BTreeMap;
use std::sync::{Mutex, OnceLock};

/// Number of histogram buckets: bucket `i` holds values whose bit length
/// is `i`, i.e. `[2^(i-1), 2^i)`, with bucket 0 holding exactly zero.
const BUCKETS: usize = 65;

/// A log₂-bucketed histogram of `u64` samples.
#[derive(Debug, Clone)]
pub struct Histogram {
    buckets: [u64; BUCKETS],
    count: u64,
    sum: u64,
    min: u64,
    max: u64,
}

impl Default for Histogram {
    fn default() -> Self {
        Histogram {
            buckets: [0; BUCKETS],
            count: 0,
            sum: 0,
            min: u64::MAX,
            max: 0,
        }
    }
}

impl Histogram {
    fn bucket_of(value: u64) -> usize {
        (64 - value.leading_zeros()) as usize
    }

    pub fn record(&mut self, value: u64) {
        self.buckets[Self::bucket_of(value)] += 1;
        self.count += 1;
        self.sum = self.sum.saturating_add(value);
        self.min = self.min.min(value);
        self.max = self.max.max(value);
    }

    pub fn count(&self) -> u64 {
        self.count
    }

    pub fn sum(&self) -> u64 {
        self.sum
    }

    pub fn min(&self) -> u64 {
        if self.count == 0 {
            0
        } else {
            self.min
        }
    }

    pub fn max(&self) -> u64 {
        self.max
    }

    /// Approximate percentile (`p` in `[0, 1]`): the representative value
    /// of the bucket where the cumulative count reaches `p * count`,
    /// clamped to the observed min/max. Returns 0 for an empty histogram.
    pub fn percentile(&self, p: f64) -> u64 {
        if self.count == 0 {
            return 0;
        }
        let p = p.clamp(0.0, 1.0);
        if p >= 1.0 {
            return self.max;
        }
        // Rank of the sample we want, 1-based.
        let rank = ((p * self.count as f64).ceil() as u64).max(1);
        let mut seen = 0u64;
        for (i, &n) in self.buckets.iter().enumerate() {
            seen += n;
            if seen >= rank {
                // Representative value: bucket midpoint.
                let mid = if i == 0 {
                    0
                } else {
                    let lo = 1u64 << (i - 1);
                    let hi = if i >= 64 { u64::MAX } else { (1u64 << i) - 1 };
                    lo + (hi - lo) / 2
                };
                return mid.clamp(self.min(), self.max);
            }
        }
        self.max
    }

    pub fn summary(&self) -> HistogramSummary {
        HistogramSummary {
            count: self.count,
            sum: self.sum,
            min: self.min(),
            max: self.max,
            p50: self.percentile(0.50),
            p95: self.percentile(0.95),
            p99: self.percentile(0.99),
        }
    }
}

/// Point-in-time digest of one histogram.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct HistogramSummary {
    pub count: u64,
    pub sum: u64,
    pub min: u64,
    pub max: u64,
    pub p50: u64,
    pub p95: u64,
    pub p99: u64,
}

#[derive(Default)]
struct RegistryInner {
    counters: BTreeMap<String, u64>,
    /// Point-in-time levels (`set_gauge` overwrites, never accumulates):
    /// current connections, queue depths — anything that goes *down* as
    /// well as up and whose latest value is the only interesting one.
    gauges: BTreeMap<String, u64>,
    histograms: BTreeMap<String, Histogram>,
}

/// Apply `f` to the entry for `name`, created at its default value if
/// missing. The name is copied only on that first insert, so recording
/// a metric that already exists does not allocate.
fn update<V: Default>(map: &mut BTreeMap<String, V>, name: &str, f: impl FnOnce(&mut V)) {
    match map.get_mut(name) {
        Some(v) => f(v),
        None => f(map.entry(name.to_string()).or_default()),
    }
}

/// A named-metric registry. Use [`Registry::global`] for the process-wide
/// instance or [`Registry::new`] for an isolated one (tests, bench runs).
#[derive(Default)]
pub struct Registry {
    inner: Mutex<RegistryInner>,
}

impl Registry {
    pub fn new() -> Registry {
        Registry::default()
    }

    /// The process-wide registry.
    pub fn global() -> &'static Registry {
        static GLOBAL: OnceLock<Registry> = OnceLock::new();
        GLOBAL.get_or_init(Registry::new)
    }

    /// Lock the registry, recovering from poisoning: a reporter that
    /// panicked mid-update leaves at worst one metric short — never a
    /// corrupt map — so the data stays usable and later queries must not
    /// be denied their metrics over it.
    fn lock_inner(&self) -> std::sync::MutexGuard<'_, RegistryInner> {
        self.inner.lock().unwrap_or_else(|poisoned| {
            self.inner.clear_poison();
            poisoned.into_inner()
        })
    }

    /// Add `delta` to a named counter (creating it at zero).
    pub fn incr(&self, name: &str, delta: u64) {
        update(&mut self.lock_inner().counters, name, |v| *v += delta);
    }

    /// Raise a named counter to `value` if it is currently below it.
    /// Mirrors a monotone process-wide counter (e.g. lock poison
    /// recoveries a crate keeps in its own static) into the registry
    /// without double counting across reporters.
    pub fn set_max(&self, name: &str, value: u64) {
        update(&mut self.lock_inner().counters, name, |v| {
            *v = (*v).max(value)
        });
    }

    /// Overwrite a named gauge with its current level. Unlike counters
    /// (monotone) and histograms (distributions), a gauge answers "what
    /// is the value *right now*" — use it for live connection counts and
    /// other levels that fall as well as rise.
    pub fn set_gauge(&self, name: &str, value: u64) {
        update(&mut self.lock_inner().gauges, name, |v| *v = value);
    }

    /// Current value of a gauge (0 if never set).
    pub fn gauge(&self, name: &str) -> u64 {
        self.lock_inner().gauges.get(name).copied().unwrap_or(0)
    }

    /// Record one sample into a named histogram.
    pub fn observe(&self, name: &str, value: u64) {
        update(&mut self.lock_inner().histograms, name, |h| h.record(value));
    }

    /// Current value of a counter (0 if never incremented).
    pub fn counter(&self, name: &str) -> u64 {
        self.lock_inner().counters.get(name).copied().unwrap_or(0)
    }

    /// Digest of a histogram, if any samples were recorded.
    pub fn histogram(&self, name: &str) -> Option<HistogramSummary> {
        self.lock_inner()
            .histograms
            .get(name)
            .map(Histogram::summary)
    }

    /// Snapshot of every metric, names sorted.
    pub fn snapshot(&self) -> MetricsSnapshot {
        let inner = self.lock_inner();
        MetricsSnapshot {
            counters: inner
                .counters
                .iter()
                .map(|(k, v)| (k.clone(), *v))
                .collect(),
            gauges: inner.gauges.iter().map(|(k, v)| (k.clone(), *v)).collect(),
            histograms: inner
                .histograms
                .iter()
                .map(|(k, h)| (k.clone(), h.summary()))
                .collect(),
        }
    }

    /// Drop every metric (used between REPL `.stats` resets and tests).
    pub fn reset(&self) {
        let mut inner = self.lock_inner();
        inner.counters.clear();
        inner.gauges.clear();
        inner.histograms.clear();
    }
}

/// Everything the registry knows, at one instant.
#[derive(Debug, Clone)]
pub struct MetricsSnapshot {
    pub counters: Vec<(String, u64)>,
    pub gauges: Vec<(String, u64)>,
    pub histograms: Vec<(String, HistogramSummary)>,
}

impl MetricsSnapshot {
    /// Plain-text rendering for the REPL's `.stats` command.
    pub fn render(&self) -> String {
        let mut out = String::new();
        if self.counters.is_empty() && self.gauges.is_empty() && self.histograms.is_empty() {
            out.push_str("no metrics recorded\n");
            return out;
        }
        if !self.counters.is_empty() {
            out.push_str("counters:\n");
            for (name, value) in &self.counters {
                out.push_str(&format!("  {name:<40} {value}\n"));
            }
        }
        if !self.gauges.is_empty() {
            out.push_str("gauges:\n");
            for (name, value) in &self.gauges {
                out.push_str(&format!("  {name:<40} {value}\n"));
            }
        }
        if !self.histograms.is_empty() {
            out.push_str("histograms (count / p50 / p95 / p99 / max):\n");
            for (name, h) in &self.histograms {
                out.push_str(&format!(
                    "  {name:<40} {} / {} / {} / {} / {}\n",
                    h.count, h.p50, h.p95, h.p99, h.max
                ));
            }
        }
        out
    }
}
