//! A low-overhead, process-wide event profiler for the parallel engine.
//!
//! The scheduler question behind ROADMAP's "make parallelism actually
//! pay" item — where do the milliseconds go when threads rise but
//! throughput falls? — cannot be answered by aggregate counters alone.
//! This module records *events* (task start/end, steal attempt/outcome,
//! park/unpark, chunk execution, lock waits, query boundaries) into
//! per-thread buffers and aggregates them into per-worker timelines
//! with utilization, idle, and steal-latency breakdowns. The raw
//! timeline exports as Chrome `trace_event` JSON loadable in Perfetto
//! or `chrome://tracing`.
//!
//! # Overhead contract
//!
//! Instrumented code calls [`record`] unconditionally. When no profiler
//! is attached the call is **one relaxed atomic load and a branch** —
//! the slow path is `#[cold]` and never taken, no timestamp is read, no
//! thread-local is touched, nothing allocates. That is a property of the
//! code, not a measured budget: wall time is judged end to end by
//! `serve_bench`, where the hooks run on every served query.
//!
//! # Clock
//!
//! Timestamps are nanoseconds since a process-wide [`Instant`] epoch
//! captured on first use, so events from different threads share one
//! monotonic axis and survive attach/detach cycles without rebasing.
//!
//! # Buffers
//!
//! Each recording thread owns a bounded single-writer buffer
//! ([`CAPACITY`] events). The owner writes a slot and then publishes it
//! with a release store of the head index; the collector (inside
//! [`detach`]) acquire-loads the head and reads only published slots,
//! so the record path takes **no locks** — the only mutex in the module
//! guards one-time thread registration and the attach/detach control
//! path. A full buffer drops further events (counted, reported in the
//! profile) rather than blocking or reallocating. Buffers are reset
//! lazily via a generation counter, so re-attaching never pays for
//! stale data. Events racing a detach may be dropped; that is fine for
//! a profiler.

use std::cell::UnsafeCell;
use std::fmt::Write as _;
use std::sync::atomic::{
    AtomicBool, AtomicU64, AtomicUsize,
    Ordering::{Acquire, Relaxed, Release, SeqCst},
};
use std::sync::{Arc, Mutex, MutexGuard, OnceLock, PoisonError};
use std::time::Instant;

use crate::json::Writer;

/// Events each thread can buffer per attach before dropping.
pub const CAPACITY: usize = 1 << 16;

/// What happened. The `arg` accompanying each event is kind-specific:
/// rows for chunk events, the victim worker index for steal successes,
/// waited nanoseconds for lock waits, result rows for query ends.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
#[repr(u8)]
pub enum EventKind {
    /// A pool task began executing on this thread.
    TaskStart = 0,
    /// The pool task finished.
    TaskEnd = 1,
    /// A worker started scanning sibling deques for work.
    StealAttempt = 2,
    /// The scan found a task; `arg` = victim worker index.
    StealSuccess = 3,
    /// The scan came up empty.
    StealFail = 4,
    /// The worker parked on its condvar.
    Park = 5,
    /// The worker woke up.
    Unpark = 6,
    /// A partitioned chunk began; `arg` = input rows in the chunk.
    ChunkStart = 7,
    /// The chunk finished; `arg` = rows it produced.
    ChunkEnd = 8,
    /// A contended lock acquisition; `arg` = nanoseconds waited.
    LockWait = 9,
    /// Engine query started on this thread.
    QueryStart = 10,
    /// Engine query finished; `arg` = 1 on success, 0 on error.
    QueryEnd = 11,
}

impl EventKind {
    fn from_u8(raw: u8) -> Option<EventKind> {
        use EventKind::*;
        Some(match raw {
            0 => TaskStart,
            1 => TaskEnd,
            2 => StealAttempt,
            3 => StealSuccess,
            4 => StealFail,
            5 => Park,
            6 => Unpark,
            7 => ChunkStart,
            8 => ChunkEnd,
            9 => LockWait,
            10 => QueryStart,
            11 => QueryEnd,
            _ => return None,
        })
    }

    /// Stable lowercase label used in the chrome trace and tables.
    pub fn label(self) -> &'static str {
        use EventKind::*;
        match self {
            TaskStart | TaskEnd => "task",
            StealAttempt | StealSuccess | StealFail => "steal",
            Park | Unpark => "park",
            ChunkStart | ChunkEnd => "chunk",
            LockWait => "lock_wait",
            QueryStart | QueryEnd => "query",
        }
    }
}

/// One recorded event on one thread's timeline.
#[derive(Clone, Copy, Debug)]
pub struct Event {
    /// Nanoseconds since the process-wide profiling epoch.
    pub t_ns: u64,
    pub kind: EventKind,
    pub arg: u64,
}

#[derive(Clone, Copy)]
struct RawEvent {
    t_ns: u64,
    arg: u64,
    kind: u8,
}

const EMPTY_RAW: RawEvent = RawEvent {
    t_ns: 0,
    arg: 0,
    kind: u8::MAX,
};

/// Per-thread event buffer. Single-writer: only the owning thread
/// stores slots and advances `head`; the collector reads slots strictly
/// below an acquire-loaded `head`, and slots are never rewritten within
/// a generation (the buffer is bounded, not circular).
struct ThreadBuf {
    name: String,
    generation: AtomicU64,
    head: AtomicUsize,
    dropped: AtomicU64,
    slots: Box<[UnsafeCell<RawEvent>]>,
}

// SAFETY: cross-thread access to `slots` follows the single-writer
// protocol documented on the struct; `head` release/acquire ordering
// publishes every slot the collector is allowed to read.
unsafe impl Sync for ThreadBuf {}
unsafe impl Send for ThreadBuf {}

impl ThreadBuf {
    fn new(name: String) -> ThreadBuf {
        ThreadBuf {
            name,
            generation: AtomicU64::new(0),
            head: AtomicUsize::new(0),
            dropped: AtomicU64::new(0),
            slots: (0..CAPACITY)
                .map(|_| UnsafeCell::new(EMPTY_RAW))
                .collect::<Vec<_>>()
                .into_boxed_slice(),
        }
    }

    /// Owner-thread-only append.
    fn push(&self, gen: u64, t_ns: u64, kind: EventKind, arg: u64) {
        if self.generation.load(Relaxed) != gen {
            // First event of a new attach: retire the stale contents.
            // Head must be zeroed before the generation becomes visible
            // or a collector could read old slots as new events.
            self.head.store(0, Release);
            self.dropped.store(0, Relaxed);
            self.generation.store(gen, Release);
        }
        let h = self.head.load(Relaxed);
        if h >= self.slots.len() {
            self.dropped.fetch_add(1, Relaxed);
            return;
        }
        // SAFETY: only the owning thread writes slots, and slot `h` is
        // unpublished until the release store below.
        unsafe {
            *self.slots[h].get() = RawEvent {
                t_ns,
                arg,
                kind: kind as u8,
            };
        }
        self.head.store(h + 1, Release);
    }
}

static ENABLED: AtomicBool = AtomicBool::new(false);
static GENERATION: AtomicU64 = AtomicU64::new(0);

fn registry() -> &'static Mutex<Vec<Arc<ThreadBuf>>> {
    static THREADS: OnceLock<Mutex<Vec<Arc<ThreadBuf>>>> = OnceLock::new();
    THREADS.get_or_init(|| Mutex::new(Vec::new()))
}

fn control() -> MutexGuard<'static, Vec<Arc<ThreadBuf>>> {
    registry().lock().unwrap_or_else(PoisonError::into_inner)
}

/// The process-wide monotonic epoch all timestamps are relative to.
fn epoch() -> Instant {
    static EPOCH: OnceLock<Instant> = OnceLock::new();
    *EPOCH.get_or_init(Instant::now)
}

thread_local! {
    static LOCAL: Arc<ThreadBuf> = {
        let cur = std::thread::current();
        let name = cur
            .name()
            .map(str::to_owned)
            .unwrap_or_else(|| format!("thread-{:?}", cur.id()));
        let buf = Arc::new(ThreadBuf::new(name));
        control().push(buf.clone());
        buf
    };
}

/// Is a profiler currently attached? Callers with *expensive* argument
/// computation (e.g. timing a lock acquisition) gate on this; plain
/// [`record`] calls need no guard.
#[inline]
pub fn is_attached() -> bool {
    ENABLED.load(Relaxed)
}

/// Record an event on the current thread's timeline. Detached cost: one
/// relaxed atomic load and an untaken branch.
#[inline]
pub fn record(kind: EventKind, arg: u64) {
    if !ENABLED.load(Relaxed) {
        return;
    }
    record_slow(kind, arg);
}

#[cold]
#[inline(never)]
fn record_slow(kind: EventKind, arg: u64) {
    let t_ns = epoch().elapsed().as_nanos() as u64;
    let gen = GENERATION.load(Acquire);
    // `try_with` so a record during thread teardown is a no-op instead
    // of a panic.
    let _ = LOCAL.try_with(|buf| buf.push(gen, t_ns, kind, arg));
}

/// Attach the profiler. Returns `false` (and changes nothing) if one is
/// already attached — the profiler is a process-wide singleton.
pub fn attach() -> bool {
    let _guard = control();
    if ENABLED.load(SeqCst) {
        return false;
    }
    // New generation first so no event can land in the old one once
    // recording is enabled.
    GENERATION.fetch_add(1, SeqCst);
    ENABLED.store(true, SeqCst);
    true
}

/// Detach the profiler and collect everything recorded since
/// [`attach`]. Returns `None` if no profiler was attached.
pub fn detach() -> Option<Profile> {
    let mut guard = control();
    if !ENABLED.swap(false, SeqCst) {
        return None;
    }
    let gen = GENERATION.load(SeqCst);
    let mut lanes = Vec::new();
    let mut dropped = 0u64;
    for buf in guard.iter() {
        if buf.generation.load(Acquire) != gen {
            continue; // never recorded in this generation
        }
        let head = buf.head.load(Acquire).min(buf.slots.len());
        let mut events = Vec::with_capacity(head);
        for slot in &buf.slots[..head] {
            // SAFETY: slots below the acquired head are published and
            // never rewritten within this generation.
            let raw = unsafe { *slot.get() };
            if let Some(kind) = EventKind::from_u8(raw.kind) {
                events.push(Event {
                    t_ns: raw.t_ns,
                    kind,
                    arg: raw.arg,
                });
            }
        }
        dropped += buf.dropped.load(Relaxed);
        if !events.is_empty() {
            lanes.push(Lane {
                name: buf.name.clone(),
                events,
            });
        }
    }
    // Prune buffers whose owning thread has exited (the thread-local
    // Arc is gone) so long-lived processes don't accumulate dead lanes.
    guard.retain(|buf| Arc::strong_count(buf) > 1);
    lanes.sort_by(|a, b| a.name.cmp(&b.name));
    Some(Profile { lanes, dropped })
}

/// One thread's recorded events, in recording order.
#[derive(Debug)]
pub struct Lane {
    pub name: String,
    pub events: Vec<Event>,
}

/// Everything one attach/detach cycle captured.
#[derive(Debug)]
pub struct Profile {
    /// Per-thread timelines, sorted by thread name.
    pub lanes: Vec<Lane>,
    /// Events lost to full buffers across all threads.
    pub dropped: u64,
}

/// Aggregated per-worker statistics derived from a [`Lane`].
#[derive(Debug, Clone, Default)]
pub struct WorkerTimeline {
    pub name: String,
    pub first_ns: u64,
    pub last_ns: u64,
    /// Union of task + chunk execution spans (overlaps not double
    /// counted). Query spans are excluded: on the coordinator they
    /// cover scheduler wait, which is precisely the idleness we want
    /// utilization to expose.
    pub busy_ns: u64,
    pub park_ns: u64,
    pub tasks: u64,
    pub chunks: u64,
    pub chunk_rows: u64,
    pub chunk_rows_max: u64,
    pub steal_attempts: u64,
    pub steal_successes: u64,
    pub steal_fails: u64,
    /// Total attempt→outcome latency across all steal scans.
    pub steal_wait_ns: u64,
    pub lock_waits: u64,
    pub lock_wait_ns: u64,
    pub queries: u64,
    pub events: u64,
}

impl WorkerTimeline {
    /// Fraction of `window_ns` this worker spent executing tasks or
    /// chunks.
    pub fn utilization(&self, window_ns: u64) -> f64 {
        if window_ns == 0 {
            0.0
        } else {
            self.busy_ns as f64 / window_ns as f64
        }
    }

    /// Steal scans that found work, over all scans. 0.0 when no scans.
    pub fn steal_success_rate(&self) -> f64 {
        if self.steal_attempts == 0 {
            0.0
        } else {
            self.steal_successes as f64 / self.steal_attempts as f64
        }
    }
}

/// A start/end pair resolved from the event stream.
struct Span {
    start: u64,
    end: u64,
    kind: EventKind,
    arg_start: u64,
    arg_end: u64,
}

/// Pair Start/End style events within one lane. Unclosed spans are
/// closed at `close_at` (the profile's end) so a detach mid-task still
/// shows the partial span.
fn resolve_spans(events: &[Event], close_at: u64) -> Vec<Span> {
    let mut spans = Vec::new();
    let mut tasks: Vec<u64> = Vec::new();
    let mut chunks: Vec<(u64, u64)> = Vec::new();
    let mut queries: Vec<u64> = Vec::new();
    let mut park: Option<u64> = None;
    let mut steal: Option<u64> = None;
    for ev in events {
        use EventKind::*;
        match ev.kind {
            TaskStart => tasks.push(ev.t_ns),
            TaskEnd => {
                if let Some(start) = tasks.pop() {
                    spans.push(Span {
                        start,
                        end: ev.t_ns,
                        kind: TaskStart,
                        arg_start: 0,
                        arg_end: 0,
                    });
                }
            }
            ChunkStart => chunks.push((ev.t_ns, ev.arg)),
            ChunkEnd => {
                if let Some((start, rows_in)) = chunks.pop() {
                    spans.push(Span {
                        start,
                        end: ev.t_ns,
                        kind: ChunkStart,
                        arg_start: rows_in,
                        arg_end: ev.arg,
                    });
                }
            }
            QueryStart => queries.push(ev.t_ns),
            QueryEnd => {
                if let Some(start) = queries.pop() {
                    spans.push(Span {
                        start,
                        end: ev.t_ns,
                        kind: QueryStart,
                        arg_start: 0,
                        arg_end: ev.arg,
                    });
                }
            }
            Park => park = Some(ev.t_ns),
            Unpark => {
                if let Some(start) = park.take() {
                    spans.push(Span {
                        start,
                        end: ev.t_ns,
                        kind: Park,
                        arg_start: 0,
                        arg_end: 0,
                    });
                }
            }
            StealAttempt => steal = Some(ev.t_ns),
            StealSuccess | StealFail => {
                if let Some(start) = steal.take() {
                    spans.push(Span {
                        start,
                        end: ev.t_ns,
                        kind: ev.kind,
                        arg_start: 0,
                        arg_end: ev.arg,
                    });
                }
            }
            LockWait => spans.push(Span {
                start: ev.t_ns.saturating_sub(ev.arg),
                end: ev.t_ns,
                kind: LockWait,
                arg_start: ev.arg,
                arg_end: ev.arg,
            }),
        }
    }
    for start in tasks {
        spans.push(Span {
            start,
            end: close_at.max(start),
            kind: EventKind::TaskStart,
            arg_start: 0,
            arg_end: 0,
        });
    }
    for (start, rows) in chunks {
        spans.push(Span {
            start,
            end: close_at.max(start),
            kind: EventKind::ChunkStart,
            arg_start: rows,
            arg_end: 0,
        });
    }
    for start in queries {
        spans.push(Span {
            start,
            end: close_at.max(start),
            kind: EventKind::QueryStart,
            arg_start: 0,
            arg_end: 0,
        });
    }
    spans
}

/// Union length of a set of intervals, overlaps counted once.
fn union_ns(mut intervals: Vec<(u64, u64)>) -> u64 {
    intervals.sort_unstable();
    let mut total = 0u64;
    let mut cur: Option<(u64, u64)> = None;
    for (s, e) in intervals {
        match cur {
            Some((cs, ce)) if s <= ce => cur = Some((cs, ce.max(e))),
            Some((cs, ce)) => {
                total += ce - cs;
                cur = Some((s, e));
            }
            None => cur = Some((s, e)),
        }
    }
    if let Some((cs, ce)) = cur {
        total += ce - cs;
    }
    total
}

impl Profile {
    pub fn total_events(&self) -> usize {
        self.lanes.iter().map(|l| l.events.len()).sum()
    }

    /// First event timestamp across all lanes.
    pub fn start_ns(&self) -> u64 {
        self.lanes
            .iter()
            .filter_map(|l| l.events.first().map(|e| e.t_ns))
            .min()
            .unwrap_or(0)
    }

    /// Last event timestamp across all lanes.
    pub fn end_ns(&self) -> u64 {
        self.lanes
            .iter()
            .flat_map(|l| l.events.last().map(|e| e.t_ns))
            .max()
            .unwrap_or(0)
    }

    /// The observed wall-clock window: last event minus first event.
    pub fn window_ns(&self) -> u64 {
        self.end_ns().saturating_sub(self.start_ns())
    }

    /// Aggregate each lane into a [`WorkerTimeline`].
    pub fn timelines(&self) -> Vec<WorkerTimeline> {
        let close_at = self.end_ns();
        self.lanes
            .iter()
            .map(|lane| {
                let mut t = WorkerTimeline {
                    name: lane.name.clone(),
                    first_ns: lane.events.first().map_or(0, |e| e.t_ns),
                    last_ns: lane.events.last().map_or(0, |e| e.t_ns),
                    events: lane.events.len() as u64,
                    ..WorkerTimeline::default()
                };
                use EventKind::*;
                for ev in &lane.events {
                    match ev.kind {
                        TaskStart => t.tasks += 1,
                        ChunkStart => {
                            t.chunks += 1;
                            t.chunk_rows += ev.arg;
                            t.chunk_rows_max = t.chunk_rows_max.max(ev.arg);
                        }
                        QueryStart => t.queries += 1,
                        StealAttempt => t.steal_attempts += 1,
                        StealSuccess => t.steal_successes += 1,
                        StealFail => t.steal_fails += 1,
                        LockWait => {
                            t.lock_waits += 1;
                            t.lock_wait_ns += ev.arg;
                        }
                        _ => {}
                    }
                }
                let spans = resolve_spans(&lane.events, close_at);
                let mut busy = Vec::new();
                for s in &spans {
                    match s.kind {
                        TaskStart | ChunkStart => busy.push((s.start, s.end)),
                        Park => t.park_ns += s.end - s.start,
                        StealSuccess | StealFail => t.steal_wait_ns += s.end - s.start,
                        _ => {}
                    }
                }
                t.busy_ns = union_ns(busy);
                t
            })
            .collect()
    }

    /// Render the profile as Chrome `trace_event` JSON — load the
    /// output in Perfetto (<https://ui.perfetto.dev>) or
    /// `chrome://tracing`. `ts`/`dur` are microseconds relative to the
    /// profiling epoch; each lane is a thread of pid 1.
    pub fn to_chrome_trace(&self) -> String {
        let close_at = self.end_ns();
        let us = |ns: u64| ns as f64 / 1000.0;
        let mut w = Writer::new();
        w.begin_object();
        w.key("displayTimeUnit");
        w.string("ms");
        w.key("traceEvents");
        w.begin_array();
        for (tid, lane) in self.lanes.iter().enumerate() {
            let tid = tid as u64;
            w.begin_object();
            w.key("ph");
            w.string("M");
            w.key("pid");
            w.number(1);
            w.key("tid");
            w.number(tid);
            w.key("name");
            w.string("thread_name");
            w.key("args");
            w.begin_object();
            w.key("name");
            w.string(&lane.name);
            w.end_object();
            w.end_object();
            for s in resolve_spans(&lane.events, close_at) {
                w.begin_object();
                w.key("ph");
                w.string("X");
                w.key("pid");
                w.number(1);
                w.key("tid");
                w.number(tid);
                w.key("name");
                w.string(match s.kind {
                    EventKind::StealSuccess | EventKind::StealFail => "steal",
                    other => other.label(),
                });
                w.key("ts");
                w.float(us(s.start));
                w.key("dur");
                w.float(us(s.end.saturating_sub(s.start)));
                w.key("args");
                w.begin_object();
                match s.kind {
                    EventKind::ChunkStart => {
                        w.key("rows_in");
                        w.number(s.arg_start);
                        w.key("rows_out");
                        w.number(s.arg_end);
                    }
                    EventKind::StealSuccess => {
                        w.key("outcome");
                        w.string("hit");
                        w.key("victim");
                        w.number(s.arg_end);
                    }
                    EventKind::StealFail => {
                        w.key("outcome");
                        w.string("miss");
                    }
                    EventKind::QueryStart => {
                        w.key("ok");
                        w.number(s.arg_end);
                    }
                    EventKind::LockWait => {
                        w.key("wait_ns");
                        w.number(s.arg_start);
                    }
                    _ => {}
                }
                w.end_object();
                w.end_object();
            }
        }
        w.end_array();
        w.key("dropped_events");
        w.number(self.dropped);
        w.end_object();
        w.finish()
    }

    /// Human-readable per-worker utilization table.
    pub fn utilization_table(&self) -> String {
        let window = self.window_ns();
        let ms = |ns: u64| ns as f64 / 1e6;
        let mut out = String::new();
        let _ = writeln!(
            out,
            "{:<22} {:>6} {:>9} {:>9} {:>6} {:>7} {:>12} {:>9} {:>8} {:>7}",
            "worker",
            "busy%",
            "busy_ms",
            "park_ms",
            "tasks",
            "chunks",
            "steal ok/try",
            "steal_ms",
            "lock_ms",
            "events"
        );
        for t in self.timelines() {
            let _ = writeln!(
                out,
                "{:<22} {:>6.1} {:>9.2} {:>9.2} {:>6} {:>7} {:>12} {:>9.2} {:>8.2} {:>7}",
                t.name,
                100.0 * t.utilization(window),
                ms(t.busy_ns),
                ms(t.park_ns),
                t.tasks,
                t.chunks,
                format!("{}/{}", t.steal_successes, t.steal_attempts),
                ms(t.steal_wait_ns),
                ms(t.lock_wait_ns),
                t.events,
            );
        }
        let _ = writeln!(
            out,
            "window {:.1} ms, {} lanes, {} events ({} dropped)",
            ms(window),
            self.lanes.len(),
            self.total_events(),
            self.dropped,
        );
        out
    }
}
