//! Zero-dependency observability for the PPF pipeline.
//!
//! Its parts, usable independently:
//!
//! * [`trace`] — a per-query span tree ([`QueryTrace`]): nested timed
//!   spans for the pipeline phases (parse → translate → plan → execute →
//!   publish) with arbitrary named `u64` counters attached to each span.
//! * [`metrics`] — a process-wide [`Registry`] of named counters and
//!   log₂-bucketed histograms with p50/p95/p99 summaries.
//! * [`sink`] — where finished traces go: an in-memory ring buffer for
//!   the REPL's `.trace` command, or a JSON-lines writer for offline
//!   analysis. When no sink is attached nothing is allocated or
//!   serialized, so the instrumentation cost is a few `Instant::now()`
//!   calls per query.
//! * [`profile`] — a process-wide event profiler: per-thread lock-free
//!   event buffers (task/steal/park/chunk/lock-wait) aggregated into
//!   per-worker timelines, exportable as Chrome `trace_event` JSON.
//!   Detached hooks cost one relaxed atomic load and a branch.
//! * [`alloc`] — a counting global allocator that test binaries install
//!   to pin allocation budgets per thread.
//!
//! The crate deliberately has **no dependencies** (the build environment
//! is offline) — including for JSON: [`json`] holds the small writer and
//! parser used by the sinks and their round-trip tests.

pub mod alloc;
pub mod json;
pub mod metrics;
pub mod profile;
pub mod sink;
pub mod trace;

pub use metrics::{HistogramSummary, MetricsSnapshot, Registry};
pub use profile::{Profile, WorkerTimeline};
pub use sink::{JsonLinesSink, RingBufferSink, TraceSink};
pub use trace::{QueryTrace, Span, SpanId};
