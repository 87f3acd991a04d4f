//! The serving loop: accept, admit, execute, respond, drain.
//!
//! One [`SharedEngine`] serves N connections through one connection
//! core, [`crate::event_loop`]: a fixed pool of readiness-driven threads
//! owns every socket, so 10 000 idle connections cost a handful of
//! resident threads and zero wakeups. Decoded frames arrive here through
//! [`handle_frame`]; verbs that cost microseconds are answered on the
//! event thread, and each admitted query runs on one of `max_inflight`
//! long-lived `ppfd-worker` threads fed by the admission queue — so a
//! connection can pipeline queries up to its cap and `cancel` can reach
//! a query mid-flight, while no query pays for creating a thread. Work
//! in flight is bounded by the admission controller's in-flight cap plus
//! queue depth, never by connection count. Only the rare `reload` (and
//! the drain helper) still gets a one-off thread.
//!
//! Every begun request ends in the same call, [`complete`], whose order is the
//! invariant the pipelining and admission gauges rest on: (1) the
//! response bytes are buffered and the connection's in-flight gauge
//! drops in one critical section of the outbound buffer — the one the
//! loop's flush takes — so nobody can read a response whose request
//! still counts against `per_conn_cap`; (2) the `cancel`-table entry
//! goes; (3) the admission [`Slot`] is released — back to the gauge, or
//! straight to the oldest queued query; (4) only then is the loop rung,
//! once. A strictly sequential client therefore never meets its own
//! previous request in either gauge.
//!
//! Robustness properties the tests and the chaos harness hold us to:
//!
//! * a panicking query (injected or real) is contained by `catch_unwind`
//!   in its worker and degrades to one `err exec` response — never a
//!   process death, and the worker serves the next query;
//! * a failed *thread spawn* (fd/PID exhaustion) fails [`serve`] cleanly
//!   at start-up, and afterwards can only shed one `reload` with a typed
//!   `[overload]` error — never a process death and never a leaked gauge;
//! * every rejection is typed (`overload`, `shutdown`, `proto`) so
//!   clients can back off instead of guessing;
//! * slow or vanished clients cannot pin resources: outbound buffers are
//!   bounded and idle connections are reaped by the timer wheel;
//! * `shutdown`/SIGTERM drains gracefully: stop accepting, give
//!   in-flight queries a grace period, cancel stragglers through their
//!   [`CancelToken`]s, then exit with counters flushed.

use std::collections::{HashMap, VecDeque};
use std::io;
use std::net::{SocketAddr, TcpListener};
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering::SeqCst};
use std::sync::{Arc, Condvar, Mutex, PoisonError};
use std::time::{Duration, Instant};

use ppf_core::{CancelToken, ExecOptions, QueryLimits, ReloadError, SharedEngine, XmlDb};

use crate::admission::{Admission, AdmissionPolicy, ShedReason, Slot};
use crate::event_loop::{self, Conn, Delivery, EventLoops};
use crate::fault::{ChaosState, DropPhase, Fault, ReloadFault};
use crate::lock;
use crate::poller::PollBackend;
use crate::proto::{self, ErrorKind, Request, Response, Verb};

/// Rebuilds the server's data source into a fresh staging [`XmlDb`]
/// (parse → shred → finalize), entirely off the serving path. Installed
/// via [`serve_with_reload`]; invoked by the `reload` verb and (through
/// [`ServerHandle::reload`]) by `ppfd`'s SIGHUP handler. Must be pure
/// with respect to serving state: a failure or panic here is contained
/// by [`SharedEngine::reload_with`] and leaves the old snapshot serving.
pub type ReloadFn = Arc<dyn Fn() -> Result<XmlDb, ReloadError> + Send + Sync>;

/// Tunables. `Default` is sized for a small daemon; `ppfd` exposes each
/// knob as a flag.
#[derive(Debug, Clone)]
pub struct ServerConfig {
    /// Admission: queries allowed to run at once, process-wide — and so
    /// the number of query worker threads started with the server.
    pub max_inflight: usize,
    /// Admission: requests allowed to wait for a slot (0 = pure shed).
    pub queue_depth: usize,
    /// Admission: longest a queued request waits before it is shed.
    pub queue_wait: Duration,
    /// Queue or shed when all slots are busy.
    pub policy: AdmissionPolicy,
    /// Queries one connection may have in flight at once (pipelining cap).
    pub per_conn_cap: usize,
    /// Deadline applied to queries that do not send `timeout=MS`.
    pub default_deadline: Option<Duration>,
    /// Close connections with no traffic and no queries for this long.
    pub idle_timeout: Duration,
    /// Drain: how long in-flight queries get to finish before their
    /// cancel tokens fire (applied twice: once before, once after).
    pub drain_grace: Duration,
    /// Result rows rendered per query response (the rest is truncated
    /// with a count; the frame cap is the hard bound).
    pub max_response_rows: usize,
    /// Queries at or above this wall-clock duration enter the slow-query
    /// log (`Duration::ZERO` logs every query; useful in tests).
    pub slow_query: Duration,
    /// Slots in the bounded slow-query ring (0 disables the log).
    pub slowlog_capacity: usize,
    /// When set, a background thread writes a metrics snapshot to stderr
    /// at this interval until the server drains.
    pub metrics_interval: Option<Duration>,
    /// Readiness threads owning the connections. Each extra thread only
    /// helps while network processing itself saturates one.
    pub event_threads: usize,
    /// Hard connection cap (0 = unlimited). Arrivals beyond it get a
    /// typed `[overload]` rejection at accept time.
    pub max_conns: usize,
}

impl Default for ServerConfig {
    fn default() -> ServerConfig {
        ServerConfig {
            max_inflight: std::thread::available_parallelism()
                .map_or(1, |n| n.get())
                .max(2)
                * 2,
            queue_depth: 16,
            queue_wait: Duration::from_millis(200),
            policy: AdmissionPolicy::Queue,
            per_conn_cap: 4,
            default_deadline: Some(Duration::from_secs(10)),
            idle_timeout: Duration::from_secs(60),
            drain_grace: Duration::from_secs(2),
            max_response_rows: 100_000,
            slow_query: Duration::from_millis(250),
            slowlog_capacity: 64,
            metrics_interval: None,
            event_threads: std::thread::available_parallelism()
                .map(|n| n.get())
                .unwrap_or(1)
                .clamp(1, 4),
            max_conns: 0,
        }
    }
}

/// How often the drain helper re-checks whether in-flight queries have
/// finished inside their grace period.
const POLL_TICK: Duration = Duration::from_millis(50);

/// Shared server state.
pub(crate) struct Inner {
    pub(crate) engine: SharedEngine,
    /// Snapshot builder for the `reload` verb / SIGHUP (`None` = this
    /// server has no reloadable data source; `reload` is unsupported).
    reloader: Option<ReloadFn>,
    pub(crate) cfg: ServerConfig,
    pub(crate) admission: Arc<Admission>,
    pub(crate) chaos: ChaosState,
    pub(crate) draining: AtomicBool,
    pub(crate) active_conns: AtomicUsize,
    /// Queued and running queries, for `cancel` and drain. Keyed by a
    /// server-wide sequence — ids are the clients' to choose, and two
    /// connections may choose the same one.
    queries: Mutex<HashMap<u64, (String, CancelToken)>>,
    next_seq: AtomicU64,
    /// Bounded ring of the slowest recent queries, oldest evicted first.
    slowlog: Mutex<VecDeque<SlowEntry>>,
    /// Server start, the epoch for slowlog entry ages.
    started: Instant,
    /// The connection core's description, for `health` and logs.
    core: String,
    /// Handles to every event loop: the accept path deals connections
    /// through them and a drain wakes them all immediately.
    pub(crate) event: EventLoops,
    /// Drain announcement for interval sleepers (the metrics loop):
    /// flips exactly once, under the lock, with a broadcast.
    drain_flag: Mutex<bool>,
    drain_cv: Condvar,
}

/// One slow-query record: what ran, how long, and where the time went.
struct SlowEntry {
    /// Time since server start when the query finished.
    at: Duration,
    id: String,
    verb: &'static str,
    /// The query text, truncated to keep the ring small.
    query: String,
    total: Duration,
    rows: u64,
    /// `parse/translate/plan/execute/publish` nanoseconds, when the verb
    /// surfaced engine stats (plain queries; explain/analyze and errors
    /// carry `None`).
    phases: Option<[u64; 5]>,
    /// `ok`, or the response's error kind.
    outcome: String,
}

impl SlowEntry {
    fn render(&self) -> String {
        let mut line = format!(
            "[+{:.3}s] {} {} {:.1} ms rows={} {}",
            self.at.as_secs_f64(),
            self.id,
            self.verb,
            self.total.as_secs_f64() * 1e3,
            self.rows,
            self.outcome,
        );
        if let Some([parse, translate, plan, execute, publish]) = self.phases {
            let ms = |ns: u64| ns as f64 / 1e6;
            line.push_str(&format!(
                " parse={:.2} translate={:.2} plan={:.2} exec={:.2} publish={:.2}",
                ms(parse),
                ms(translate),
                ms(plan),
                ms(execute),
                ms(publish),
            ));
        }
        line.push_str(" :: ");
        line.push_str(&self.query);
        line
    }
}

/// Longest query text kept per slowlog entry.
const SLOWLOG_QUERY_CHARS: usize = 200;

/// Deliberate thread-spawn failure injection, so tests can prove that
/// resource exhaustion fails start-up or sheds a request instead of
/// killing the server. Only `chaos` builds carry it.
#[cfg(feature = "chaos")]
pub mod test_hooks {
    use std::sync::atomic::{AtomicUsize, Ordering::SeqCst};

    static FAIL_SPAWNS: AtomicUsize = AtomicUsize::new(0);

    /// Make the next `n` sheddable spawns (the query workers at
    /// start-up, reload workers, the drain helper) report failure instead
    /// of spawning.
    pub fn fail_next_spawns(n: usize) {
        FAIL_SPAWNS.store(n, SeqCst);
    }

    pub(crate) fn spawn_should_fail() -> bool {
        FAIL_SPAWNS
            .fetch_update(SeqCst, SeqCst, |v| v.checked_sub(1))
            .is_ok()
    }
}

/// Spawn a thread the server can live without: failure is returned, not
/// panicked, so callers shed the one piece of work instead of dying.
fn spawn_sheddable(
    name: &str,
    f: impl FnOnce() + Send + 'static,
) -> io::Result<std::thread::JoinHandle<()>> {
    #[cfg(feature = "chaos")]
    if test_hooks::spawn_should_fail() {
        return Err(io::Error::new(
            io::ErrorKind::WouldBlock,
            "injected spawn failure",
        ));
    }
    std::thread::Builder::new().name(name.to_string()).spawn(f)
}

/// Handle returned by [`serve`]: inspect the bound address, trigger a
/// drain, wait for exit.
pub struct ServerHandle {
    addr: SocketAddr,
    inner: Arc<Inner>,
    threads: Vec<std::thread::JoinHandle<()>>,
    workers: Vec<std::thread::JoinHandle<()>>,
}

impl ServerHandle {
    /// The address actually bound (resolves port 0).
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// Begin a graceful drain (idempotent; also triggered by the
    /// `shutdown` verb). Returns immediately; use [`ServerHandle::join`]
    /// to wait for completion.
    pub fn shutdown(&self) {
        trigger_drain(&self.inner);
    }

    /// Install a chaos plan programmatically (tests; errors without the
    /// `chaos` feature).
    pub fn install_chaos(&self, spec: &str) -> Result<String, String> {
        self.inner.chaos.install(spec)
    }

    /// Whether a drain has begun (via [`ServerHandle::shutdown`], the
    /// `shutdown` verb, or a signal). `ppfd`'s main loop polls this to
    /// notice protocol-initiated shutdowns.
    pub fn is_draining(&self) -> bool {
        self.inner.draining.load(SeqCst)
    }

    /// Rebuild the data source and swap in a fresh snapshot (the SIGHUP
    /// path; the `reload` verb goes through the same engine machinery).
    /// Blocks for the whole staging build — callers that must not block
    /// (event threads) go through the verb instead. Returns the new
    /// snapshot version. Typed refusals: `Draining` while a drain is in
    /// progress, `Busy` while another reload is staging, and every build
    /// failure mode leaves the old snapshot serving.
    pub fn reload(&self) -> Result<u64, ReloadError> {
        if self.inner.draining.load(SeqCst) {
            obs::Registry::global().incr("engine.reload_refused_draining", 1);
            return Err(ReloadError::Draining);
        }
        let Some(reloader) = self.inner.reloader.clone() else {
            return Err(ReloadError::io("this server has no reload source"));
        };
        do_reload(&self.inner, &reloader).map(|snap| snap.version())
    }

    /// Which connection core is serving (`async(epoll, 2 loops)`).
    pub fn core(&self) -> &str {
        &self.inner.core
    }

    /// Wait until the server has fully drained and stopped: the
    /// event-loop threads and the metrics reporter are joined, then —
    /// nothing can submit a query any more — the query workers.
    pub fn join(self) {
        for t in self.threads {
            t.join().ok();
        }
        self.inner.admission.close();
        for w in self.workers {
            w.join().ok();
        }
    }

    /// Start every core thread: one query worker per admission slot,
    /// the event loops, the metrics reporter. The first failed spawn
    /// fails the start-up.
    fn start(
        &mut self,
        pollers: Vec<Box<dyn PollBackend>>,
        listener: TcpListener,
    ) -> io::Result<()> {
        for n in 0..self.inner.admission.workers() {
            let worker = self.inner.admission.clone();
            let name = format!("ppfd-worker-{n}");
            self.workers
                .push(spawn_sheddable(&name, move || worker.run_worker())?);
        }
        self.threads = event_loop::spawn_event_loops(&self.inner, pollers, listener)?;
        if let Some(interval) = self.inner.cfg.metrics_interval {
            let inner = self.inner.clone();
            self.threads.push(
                std::thread::Builder::new()
                    .name("ppfd-metrics".to_string())
                    .spawn(move || metrics_loop(inner, interval))?,
            );
        }
        Ok(())
    }
}

/// Bind `addr` and serve `engine` until a drain completes. Fails (rather
/// than panicking) if the listener or any core thread cannot start. The
/// `reload` verb is unsupported; use [`serve_with_reload`] to arm it.
pub fn serve(engine: SharedEngine, addr: &str, cfg: ServerConfig) -> io::Result<ServerHandle> {
    serve_with_reload(engine, addr, cfg, None)
}

/// [`serve`], with an optional snapshot builder armed for hot reload:
/// the `reload` verb (and `ppfd`'s SIGHUP) rebuilds the data source
/// through `reloader` on a worker thread and atomically swaps the result
/// in as the next serving snapshot.
pub fn serve_with_reload(
    engine: SharedEngine,
    addr: &str,
    cfg: ServerConfig,
    reloader: Option<ReloadFn>,
) -> io::Result<ServerHandle> {
    let listener = TcpListener::bind(addr)?;
    let local = listener.local_addr()?;
    let n_loops = cfg.event_threads.max(1);
    let (event, pollers) = event_loop::build_loops(n_loops)?;
    let inner = Arc::new(Inner {
        admission: Admission::new(
            cfg.max_inflight,
            cfg.queue_depth,
            cfg.queue_wait,
            cfg.policy,
        ),
        engine,
        reloader,
        cfg,
        chaos: ChaosState::new(),
        draining: AtomicBool::new(false),
        active_conns: AtomicUsize::new(0),
        queries: Mutex::new(HashMap::new()),
        next_seq: AtomicU64::new(0),
        slowlog: Mutex::new(VecDeque::new()),
        started: Instant::now(),
        core: format!("async({}, {n_loops} loops)", pollers[0].name()),
        event,
        drain_flag: Mutex::new(false),
        drain_cv: Condvar::new(),
    });
    let mut handle = ServerHandle {
        addr: local,
        inner,
        threads: Vec::new(),
        workers: Vec::new(),
    };
    match handle.start(pollers, listener) {
        Ok(()) => Ok(handle),
        Err(e) => {
            // Stop whatever did start: the loops see the drain flag and
            // exit, `join` closes admission under the workers.
            handle.inner.draining.store(true, SeqCst);
            handle.inner.event.wake_all();
            handle.join();
            Err(e)
        }
    }
}

/// Record one accepted connection in the gauges.
pub(crate) fn open_conn(inner: &Inner) -> usize {
    let reg = obs::Registry::global();
    let n = inner.active_conns.fetch_add(1, SeqCst) + 1;
    reg.set_gauge("server.active", n as u64);
    reg.set_max("server.active_peak", n as u64);
    n
}

pub(crate) fn close_conn(inner: &Inner) {
    let reg = obs::Registry::global();
    let n = inner.active_conns.fetch_sub(1, SeqCst) - 1;
    reg.incr("server.closed", 1);
    reg.set_gauge("server.active", n as u64);
}

/// Begin the drain exactly once: count and grace in-flight queries, then
/// cancel the stragglers.
pub(crate) fn trigger_drain(inner: &Arc<Inner>) {
    if inner.draining.swap(true, SeqCst) {
        return;
    }
    // Wake the interval sleepers and the event loops so the drain is
    // observed now, not at the next tick.
    *lock(&inner.drain_flag) = true;
    inner.drain_cv.notify_all();
    inner.event.wake_all();
    let reg = obs::Registry::global();
    let in_flight = inner.admission.inflight() as u64;
    reg.incr("server.drained", in_flight);
    let drain_inner = inner.clone();
    if spawn_sheddable("ppfd-drain", move || drain_stragglers(drain_inner, true)).is_err() {
        // Degraded drain: no helper thread means no grace period — cancel
        // stragglers immediately rather than dying or blocking the
        // caller (which may be an event thread).
        reg.incr("server.spawn_failures", 1);
        drain_stragglers(inner.clone(), false);
    }
}

fn drain_stragglers(inner: Arc<Inner>, grace: bool) {
    if grace {
        let deadline = Instant::now() + inner.cfg.drain_grace;
        while inner.admission.inflight() > 0 && Instant::now() < deadline {
            std::thread::sleep(POLL_TICK);
        }
    }
    let stragglers: Vec<CancelToken> = lock(&inner.queries)
        .values()
        .map(|(_, token)| token.clone())
        .collect();
    if !stragglers.is_empty() {
        obs::Registry::global().incr("server.drain_cancelled", stragglers.len() as u64);
        for token in stragglers {
            token.cancel();
        }
    }
}

// ---------------------------------------------------------------------
// Frame handling.
// ---------------------------------------------------------------------

/// Handle one decoded frame. Returns the deadline of the query it left
/// in the admission queue, if it did: the calling loop owes an
/// [`Admission::expire`] at that instant.
pub(crate) fn handle_frame(inner: &Arc<Inner>, conn: &Arc<Conn>, payload: &str) -> Option<Instant> {
    let reg = obs::Registry::global();
    let req = match proto::parse_request(payload) {
        Ok(req) => req,
        Err(msg) => {
            reg.incr("server.proto_errors", 1);
            conn.write_response(&Response::err("-", ErrorKind::Proto, msg));
            return None;
        }
    };
    if matches!(req.verb, Verb::Query | Verb::Explain | Verb::Analyze) {
        // Query-class verbs observe their latency in `run_admitted`,
        // where the real work (and the slow-query log) lives.
        return start_query(inner, conn, req);
    }
    let t0 = Instant::now();
    let verb = req.verb;
    match req.verb {
        Verb::Query | Verb::Explain | Verb::Analyze => unreachable!("handled above"),
        Verb::Stats => {
            conn.write_response(&Response::ok(
                &req.id,
                obs::Registry::global().snapshot().render(),
            ));
        }
        Verb::Health => {
            let status = if inner.draining.load(SeqCst) {
                "draining"
            } else {
                "ok"
            };
            // Pin the serving snapshot once so every reported line
            // describes the same version, even mid-swap.
            let snap = inner.engine.snapshot();
            let body = format!(
                "status: {status}\ncore: {}\nactive_conns: {}\nworkers: {}\ninflight: {}\nwaiting: {}\nsnapshot_version: {}\nloaded_at_unix: {}\ndocuments: {}\ntables: {}\nrows: {}\nstats_tables: {}\nfilter_memo_entries: {}\nhash_sides: {}",
                inner.core,
                inner.active_conns.load(SeqCst),
                inner.admission.workers(),
                inner.admission.inflight(),
                inner.admission.waiting(),
                snap.version(),
                snap.loaded_at_unix(),
                snap.doc_count(),
                snap.table_count(),
                snap.row_count(),
                snap.stats_tables(),
                snap.filter_memo_entries(),
                snap.hash_sides(),
            );
            conn.write_response(&Response::ok(&req.id, body).with_version(snap.version()));
        }
        Verb::Cancel => {
            reg.incr("server.cancel_requests", 1);
            // Ids are client-chosen, so one id may name several queries:
            // cancel them all (at most `max_inflight + queue_depth` rows).
            let target = req.body.trim();
            let mut body = "not-found";
            for (id, token) in lock(&inner.queries).values() {
                if id == target {
                    token.cancel();
                    body = "cancelled";
                }
            }
            conn.write_response(&Response::ok(&req.id, body));
        }
        Verb::Shutdown => {
            conn.write_response(&Response::ok(&req.id, "draining"));
            trigger_drain(inner);
        }
        Verb::Slowlog => {
            let threshold_ms = inner.cfg.slow_query.as_secs_f64() * 1e3;
            let log = lock(&inner.slowlog);
            let body = if log.is_empty() {
                format!("slowlog empty (threshold {threshold_ms:.0} ms)")
            } else {
                let mut body = format!(
                    "slow queries (threshold {threshold_ms:.0} ms, {} of cap {}, newest first):\n",
                    log.len(),
                    inner.cfg.slowlog_capacity,
                );
                for entry in log.iter().rev() {
                    body.push_str(&entry.render());
                    body.push('\n');
                }
                body
            };
            drop(log);
            conn.write_response(&Response::ok(&req.id, body));
        }
        Verb::Chaos => match inner.chaos.install(req.body.trim()) {
            Ok(summary) => conn.write_response(&Response::ok(&req.id, summary)),
            Err(msg) => conn.write_response(&Response::err(&req.id, ErrorKind::Unsupported, msg)),
        },
        Verb::Reload => start_reload(inner, conn, req),
    }
    reg.observe(verb.metric_name(), t0.elapsed().as_nanos() as u64);
    None
}

/// Admission-gate a query-class request: hand it to a standing worker,
/// leave it in the admission queue (returning the deadline the calling
/// loop must arm), or shed it — so the connection can keep reading
/// (pipelining, `cancel`) either way.
///
/// This path must never block or panic: it runs on an event thread, and
/// [`Admission::submit`] resolves every case without waiting.
fn start_query(inner: &Arc<Inner>, conn: &Arc<Conn>, req: Request) -> Option<Instant> {
    let reg = obs::Registry::global();
    if inner.draining.load(SeqCst) {
        reg.incr("server.rejected_shutdown", 1);
        conn.write_response(&Response::err(
            &req.id,
            ErrorKind::Shutdown,
            "server is draining",
        ));
        return None;
    }
    if conn.load().0 >= inner.cfg.per_conn_cap {
        reg.incr("server.shed", 1);
        reg.incr("server.shed.conn_cap", 1);
        conn.write_response(&Response::err(
            &req.id,
            ErrorKind::Overload,
            format!("shed: conn_cap ({} in flight)", inner.cfg.per_conn_cap),
        ));
        return None;
    }
    // Both gauges count the request before a worker can see it, so the
    // worker's `complete` always finds them held.
    conn.begin_request();
    let token = CancelToken::new();
    let seq = inner.next_seq.fetch_add(1, SeqCst);
    lock(&inner.queries).insert(seq, (req.id.clone(), token.clone()));
    let job_inner = inner.clone();
    let job_conn = conn.clone();
    let submitted = Instant::now();
    inner.admission.submit(Box::new(move |grant| match grant {
        Ok(slot) => {
            let reg = obs::Registry::global();
            // Submit → a worker has it; for a queued job, its wait.
            reg.observe("server.handoff_ns", submitted.elapsed().as_nanos() as u64);
            if slot.waited {
                reg.incr("server.queued", 1);
            }
            reg.incr("server.queries", 1);
            run_admitted(&job_inner, &job_conn, &req, token, seq, slot);
        }
        Err(reason) => {
            let resp = shed_response(&req.id, reason);
            let shed = Delivery::Frame(&resp);
            complete(&job_inner, &job_conn, Some(seq), None, shed);
        }
    }))
}

/// Count one admission shed and build its typed rejection.
fn shed_response(id: &str, reason: ShedReason) -> Response {
    let reg = obs::Registry::global();
    reg.incr("server.shed", 1);
    reg.incr(reason.metric_name(), 1);
    Response::err(
        id,
        ErrorKind::Overload,
        format!("shed: {}", shed_detail(reason)),
    )
}

fn shed_detail(reason: ShedReason) -> &'static str {
    match reason {
        ShedReason::Busy => "all slots busy (shed policy)",
        ShedReason::QueueFull => "admission queue full",
        ShedReason::QueueTimeout => "timed out waiting for a slot",
    }
}

/// Handle one `reload` request. The staging build gets a thread of its
/// own — it can take arbitrarily long (parse → shred → finalize → stats)
/// and must block neither an event thread nor a query worker. It skips
/// admission (it consumes no query slot; the engine's own staging lock
/// serializes reloads and refuses pile-ups with a typed `busy`), but it
/// does hold the connection's pipelining gauge so the connection is not
/// reaped mid-build.
fn start_reload(inner: &Arc<Inner>, conn: &Arc<Conn>, req: Request) {
    let reg = obs::Registry::global();
    if inner.draining.load(SeqCst) {
        reg.incr("engine.reload_refused_draining", 1);
        conn.write_response(&Response::err(
            &req.id,
            ErrorKind::Shutdown,
            ReloadError::Draining.to_string(),
        ));
        return;
    }
    let Some(reloader) = inner.reloader.clone() else {
        conn.write_response(&Response::err(
            &req.id,
            ErrorKind::Unsupported,
            "this server has no reload source",
        ));
        return;
    };
    conn.begin_request();
    let id = req.id.clone();
    let worker_inner = inner.clone();
    let worker_conn = conn.clone();
    let spawned = spawn_sheddable("ppfd-reload", move || {
        let resp = match do_reload(&worker_inner, &reloader) {
            Ok(snap) => Response::ok(
                &req.id,
                format!(
                    "reloaded\nsnapshot_version: {}\ndocuments: {}\ntables: {}\nrows: {}",
                    snap.version(),
                    snap.doc_count(),
                    snap.table_count(),
                    snap.row_count(),
                ),
            )
            .with_version(snap.version()),
            Err(e) => {
                let kind = match e {
                    // Transient staffing conflict: back off and retry.
                    ReloadError::Busy => ErrorKind::Overload,
                    ReloadError::Draining => ErrorKind::Shutdown,
                    ReloadError::Parse(_) => ErrorKind::Parse,
                    ReloadError::Io(_) | ReloadError::Shred(_) | ReloadError::Panic(_) => {
                        ErrorKind::Exec
                    }
                };
                Response::err(&req.id, kind, e.to_string())
            }
        };
        complete(
            &worker_inner,
            &worker_conn,
            None,
            None,
            Delivery::Frame(&resp),
        );
    });
    if spawned.is_err() {
        reg.incr("server.spawn_failures", 1);
        reg.incr("server.shed", 1);
        reg.incr("server.shed.spawn", 1);
        let resp = Response::err(&id, ErrorKind::Overload, "shed: cannot spawn reload worker");
        complete(inner, conn, None, None, Delivery::Frame(&resp));
    }
}

/// Stage and swap one snapshot through [`SharedEngine::reload_with`],
/// applying any chaos load-path fault *inside* the builder so an
/// injected panic/IO failure travels the real containment path. Shared
/// by the `reload` verb worker and [`ServerHandle::reload`] (SIGHUP).
fn do_reload(
    inner: &Arc<Inner>,
    reloader: &ReloadFn,
) -> Result<Arc<ppf_core::EngineSnapshot>, ReloadError> {
    let reg = obs::Registry::global();
    let t0 = Instant::now();
    let chaos_inner = inner.clone();
    let reloader = reloader.clone();
    let outcome = inner.engine.reload_with(move || {
        // Drawn here — not before `reload_with` — so a `busy` refusal
        // consumes no fault and the injected/observed counts reconcile.
        let fault = chaos_inner.chaos.next_reload_fault();
        if fault != ReloadFault::None {
            obs::Registry::global().incr(fault.metric_name(), 1);
        }
        match fault {
            ReloadFault::Panic => panic!("chaos: injected reload panic"),
            ReloadFault::Io => {
                return Err(ReloadError::io("chaos: injected reload I/O fault"));
            }
            ReloadFault::Slow(pause) => std::thread::sleep(pause),
            ReloadFault::None => {}
        }
        reloader()
    });
    reg.observe("server.verb_ns.reload", t0.elapsed().as_nanos() as u64);
    outcome
}

/// Run one admitted query to completion on its worker thread, applying
/// any chaos fault, and deliver exactly one response unless a `drop`
/// fault severs the connection first. Every path ends in [`complete`].
fn run_admitted(
    inner: &Arc<Inner>,
    conn: &Arc<Conn>,
    req: &Request,
    token: CancelToken,
    seq: u64,
    slot: Slot,
) {
    let reg = obs::Registry::global();
    let fault = inner.chaos.next_query_fault();
    if fault != Fault::None {
        reg.incr(fault.metric_name(), 1);
    }
    match fault {
        Fault::Drop(DropPhase::PreExec) => {
            complete(inner, conn, Some(seq), Some(slot), Delivery::Sever);
            return;
        }
        Fault::Slow(pause) => std::thread::sleep(pause),
        _ => {}
    }

    let mut limits = QueryLimits::none().with_cancel_token(token);
    match req.timeout_ms() {
        Some(ms) => limits = limits.with_timeout(Duration::from_millis(ms)),
        None => {
            if let Some(d) = inner.cfg.default_deadline {
                limits = limits.with_timeout(d);
            }
        }
    }
    if let Some(n) = req.max_rows() {
        limits = limits.with_max_rows(n);
    }

    let t0 = Instant::now();
    let outcome = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
        if matches!(fault, Fault::Panic) {
            panic!("chaos: injected worker panic");
        }
        execute(inner, req, &limits)
    }));
    let elapsed = t0.elapsed();

    let (resp, rows, phases, verdict) = match outcome {
        Ok(Ok((body, phases, rows, version))) => (
            Response::ok(&req.id, body).with_version(version),
            rows,
            phases,
            "ok",
        ),
        Ok(Err(e)) => {
            let kind = ErrorKind::from_engine_kind(e.kind());
            (
                Response::err(&req.id, kind, e.to_string()),
                0,
                None,
                kind.as_str(),
            )
        }
        Err(payload) => {
            reg.incr("server.panics_contained", 1);
            let msg = payload
                .downcast_ref::<&str>()
                .map(|s| s.to_string())
                .or_else(|| payload.downcast_ref::<String>().cloned())
                .unwrap_or_else(|| "opaque panic payload".to_string());
            (
                Response::err(&req.id, ErrorKind::Exec, format!("panic contained: {msg}")),
                0,
                None,
                "panic",
            )
        }
    };
    reg.observe(req.verb.metric_name(), elapsed.as_nanos() as u64);
    if inner.cfg.slowlog_capacity > 0 && elapsed >= inner.cfg.slow_query {
        let mut query = req.body.trim().to_string();
        if let Some((idx, _)) = query.char_indices().nth(SLOWLOG_QUERY_CHARS) {
            query.truncate(idx);
            query.push_str("...");
        }
        let entry = SlowEntry {
            at: inner.started.elapsed(),
            id: req.id.clone(),
            verb: req.verb.as_str(),
            query,
            total: elapsed,
            rows,
            phases,
            outcome: verdict.to_string(),
        };
        let mut log = lock(&inner.slowlog);
        while log.len() >= inner.cfg.slowlog_capacity {
            log.pop_front();
        }
        log.push_back(entry);
    }
    let delivery = match fault {
        Fault::Drop(DropPhase::PreWrite) => Delivery::Sever,
        Fault::Drop(DropPhase::MidWrite) => Delivery::SeveredPrefix(&resp),
        _ => Delivery::Frame(&resp),
    };
    complete(inner, conn, Some(seq), Some(slot), delivery);
}

/// The one way a begun request ends — query, shed by admission, severed
/// by a chaos fault, reload, or a reload worker that never spawned.
/// The order is load-bearing (see the module docs): response bytes and
/// the connection's gauge drop become visible together, then the
/// `cancel`-table entry (`seq`; reloads have none) and the admission
/// slot go — the slot to the oldest queued query, if one is waiting —
/// and only then is the loop — and through it the client — told. Ring
/// before the slot drop and a sequential client's next request finds its
/// own predecessor still holding a slot.
fn complete(
    inner: &Inner,
    conn: &Conn,
    seq: Option<u64>,
    slot: Option<Slot>,
    delivery: Delivery<'_>,
) {
    conn.finish_request(delivery);
    if let Some(seq) = seq {
        lock(&inner.queries).remove(&seq);
    }
    drop(slot);
    conn.ring();
}

/// What [`execute`] hands back on success: the body of the `ok`
/// response, the engine's phase breakdown when the verb surfaces one
/// (plain queries), the result row count — both feed the slow-query
/// log — and the snapshot version that answered (the response's
/// `version=` header stamp).
type Executed = (String, Option<[u64; 5]>, u64, u64);

/// Execute the engine work for one request. Each request pins exactly
/// one snapshot, so a query racing a reload is answered wholly by the
/// version it stamps.
fn execute(
    inner: &Inner,
    req: &Request,
    limits: &QueryLimits,
) -> Result<Executed, ppf_core::QueryError> {
    match req.verb {
        Verb::Query => {
            let xpath = req.body.trim();
            let result = inner.engine.query_with_limits(xpath, limits.clone())?;
            let ids = result.ids();
            let e = &result.engine;
            let phases = Some([
                e.parse_ns,
                e.translate_ns,
                e.plan_ns,
                e.execute_ns,
                e.publish_ns,
            ]);
            let cap = inner.cfg.max_response_rows;
            let mut body = format!("rows {}\n", ids.len());
            for id in ids.iter().take(cap) {
                body.push_str(&id.to_string());
                body.push('\n');
            }
            if ids.len() > cap {
                body.push_str(&format!("truncated {}\n", ids.len() - cap));
            }
            Ok((body, phases, ids.len() as u64, result.snapshot_version))
        }
        Verb::Explain => {
            let snap = inner.engine.snapshot();
            let t = snap.translate(req.body.trim())?;
            let body = match t.stmt {
                None => "(statically empty)".to_string(),
                Some(stmt) => {
                    sqlexec::explain_stmt(snap.db(), &stmt).map_err(ppf_core::QueryError::from)?
                }
            };
            Ok((body, None, 0, snap.version()))
        }
        Verb::Analyze => {
            let snap = inner.engine.snapshot();
            let t = snap.translate(req.body.trim())?;
            let body = match t.stmt {
                None => "(statically empty)".to_string(),
                Some(stmt) => sqlexec::explain_analyze_with_limits(
                    snap.db(),
                    &stmt,
                    limits.clone(),
                    ExecOptions::default(),
                )
                .map_err(ppf_core::QueryError::from)?,
            };
            Ok((body, None, 0, snap.version()))
        }
        _ => unreachable!("only query-class verbs reach execute()"),
    }
}

/// Background metrics reporter: a registry snapshot to stderr at the
/// configured interval. Sleeps on the drain condvar — not a poll tick —
/// so it wakes exactly on schedule or on drain, and is joined by
/// [`ServerHandle::join`] like every other core thread.
fn metrics_loop(inner: Arc<Inner>, interval: Duration) {
    let mut next = Instant::now() + interval;
    let mut flag = lock(&inner.drain_flag);
    while !*flag {
        let now = Instant::now();
        if now >= next {
            next = now + interval;
            eprintln!(
                "--- metrics snapshot (+{:.1}s) ---\n{}",
                inner.started.elapsed().as_secs_f64(),
                obs::Registry::global().snapshot().render()
            );
        }
        let wait = next
            .saturating_duration_since(Instant::now())
            .max(Duration::from_millis(1));
        let (guard, _) = inner
            .drain_cv
            .wait_timeout(flag, wait)
            .unwrap_or_else(PoisonError::into_inner);
        flag = guard;
    }
}
