//! Zero-dependency observability for the PPF pipeline.
//!
//! Its parts, usable independently:
//!
//! * [`trace`] — a per-query span tree ([`QueryTrace`]) of finished,
//!   timed spans with named `u64` counters attached to each. The engine
//!   does not build one while it answers a query; it records each
//!   query's phase timings and work counts once, in its result, and
//!   builds the tree from them only when a caller asks
//!   (`ppf_core::QueryResult::trace`).
//! * [`metrics`] — a process-wide [`Registry`] of named counters and
//!   log₂-bucketed histograms with p50/p95/p99 summaries. Every update
//!   takes the registry's one mutex; a name is copied only the first
//!   time it is recorded.
//! * [`alloc`] — a counting global allocator that test binaries install
//!   to pin allocation budgets per thread.
//!
//! The crate deliberately has **no dependencies** (the build environment
//! is offline) — including for JSON: [`json`] holds the small writer and
//! parser used for trace records and their round-trip tests.

pub mod alloc;
pub mod json;
pub mod metrics;
pub mod trace;

pub use metrics::{HistogramSummary, MetricsSnapshot, Registry};
pub use trace::{QueryTrace, Span, SpanId};
