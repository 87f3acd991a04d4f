//! `ppf-pool` — a small scoped work-stealing thread pool (std only).
//!
//! The PPF execution stack parallelizes two shapes of work: partitioned
//! structural joins (the outer run split at Dewey ancestor boundaries)
//! and whole concurrent queries through `ppf_core::SharedEngine`. Both
//! need the same primitive: run a
//! batch of borrowing closures on a fixed set of worker threads and wait
//! for all of them — rayon's `scope`, without the dependency (the build
//! environment has no crates.io access).
//!
//! Design:
//!
//! * **Per-worker deques + an injector.** Each worker owns a deque; it
//!   pops its own back (LIFO, cache-warm), then the shared injector,
//!   then *steals* from the front of a sibling's deque (FIFO, oldest
//!   work first — the classic Chase–Lev discipline, here with plain
//!   mutexed `VecDeque`s since tasks are chunk-sized, not instruction-
//!   sized). Steals are counted into [`Pool::steal_count`].
//! * **Scoped tasks.** [`Pool::scope`] lets tasks borrow from the
//!   caller's stack. The scope does not return until every spawned task
//!   finished (even on panic), which is what makes the lifetime erasure
//!   in `Scope::spawn` sound. While waiting, the calling thread executes
//!   queued tasks itself — with `n` configured threads there are `n - 1`
//!   workers plus the participating caller.
//! * **Graceful single-thread fallback.** A pool of ≤ 1 thread spawns no
//!   workers; `scope`/`parallel_map` run every task inline on the caller
//!   with no queueing, no locks taken per item and no behaviour change.
//!
//! Configuration: the process-wide pool ([`global`]) sizes itself from
//! the `PPF_THREADS` environment variable, falling back to
//! `std::thread::available_parallelism`; [`set_threads`] replaces it at
//! runtime (the programmatic knob benchmarks use for 1/2/4-way scaling
//! tables).
//!
//! Profiling: when an `obs::profile` session is attached, workers emit
//! task start/end, steal attempt/success/fail, park/unpark, and
//! contended-lock-wait events onto their per-thread timelines. Detached,
//! every hook is one relaxed atomic load and a branch (see the overhead
//! contract on `obs::profile`).

use obs::profile::{self, EventKind};

use std::collections::VecDeque;
use std::sync::atomic::{
    AtomicBool, AtomicU64, AtomicUsize,
    Ordering::{Relaxed, SeqCst},
};
use std::sync::{Arc, Condvar, Mutex, MutexGuard, OnceLock, RwLock};
use std::time::Duration;

/// A queued unit of work. Tasks are lifetime-erased boxed closures; the
/// scope machinery guarantees they complete before the borrows they
/// capture go out of scope.
type Job = Box<dyn FnOnce() + Send + 'static>;

/// Times a pool lock was recovered from poisoning (a panic while the
/// lock was held). The protected state — job deques, the scope panic
/// slot, the sleep token — is valid at every instruction boundary, so
/// recovery is always safe; the counter makes it observable.
static POISON_RECOVERIES: AtomicU64 = AtomicU64::new(0);

/// Pool locks recovered from poisoning since process start.
pub fn poison_recoveries() -> u64 {
    POISON_RECOVERIES.load(Relaxed)
}

/// Lock a mutex, recovering (and counting) if a previous holder panicked.
fn lock_unpoisoned<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(|poisoned| {
        POISON_RECOVERIES.fetch_add(1, Relaxed);
        poisoned.into_inner()
    })
}

/// Lock-wait spans shorter than this are noise, not contention.
const LOCK_WAIT_MIN_NS: u64 = 1_000;

/// [`lock_unpoisoned`], plus a profiler `LockWait` event when a profiler
/// is attached and the acquisition stalled measurably. The timing branch
/// is gated on [`profile::is_attached`] so the detached hot path never
/// reads the clock.
fn lock_profiled<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    if profile::is_attached() {
        let t0 = std::time::Instant::now();
        let guard = lock_unpoisoned(m);
        let waited = t0.elapsed().as_nanos() as u64;
        if waited >= LOCK_WAIT_MIN_NS {
            profile::record(EventKind::LockWait, waited);
        }
        guard
    } else {
        lock_unpoisoned(m)
    }
}

/// A scoped task panicked. Carries the panic payload's message when it
/// was a `&str` or `String` (the overwhelmingly common case).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TaskPanic {
    pub message: String,
}

impl std::fmt::Display for TaskPanic {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "a pool task panicked: {}", self.message)
    }
}

impl std::error::Error for TaskPanic {}

fn payload_message(payload: &(dyn std::any::Any + Send)) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "opaque panic payload".to_string()
    }
}

/// State shared between the pool handle and its workers.
struct Shared {
    /// One deque per worker thread. The owner pushes/pops the back;
    /// thieves (and the participating caller) take from the front.
    locals: Vec<Mutex<VecDeque<Job>>>,
    /// One-task LIFO slot per worker: the freshest submission to a worker
    /// parks here and is picked up before the deque — the task whose
    /// input data is most likely still in some cache runs first. A new
    /// submission displaces the slot's occupant to the deque.
    lifo: Vec<Mutex<Option<Job>>>,
    /// Overflow queue for submitters that are not workers.
    injector: Mutex<VecDeque<Job>>,
    /// Jobs currently sitting in any queue (LIFO slots, deques,
    /// injector). Workers re-check this under the `sleep` lock before
    /// parking, and submitters notify under the same lock, so a parked
    /// worker costs nothing while idle and a wakeup can never be lost.
    /// An earlier revision used a 1 ms timed wait instead, which meant
    /// every idle worker woke 1000×/s to scan the deques — on a
    /// single-core host three idle workers taxed *serial* queries by
    /// 15-35% just by existing.
    queued: AtomicUsize,
    /// Parked-worker wakeup, paired with `queued` (see above).
    sleep: Mutex<()>,
    wake: Condvar,
    shutdown: AtomicBool,
    /// Round-robin cursor for distributing submissions over deques.
    next_queue: AtomicUsize,
    steals: AtomicU64,
    /// Sibling-deque scans started by workers while scopes were active
    /// (the denominator of the steal-success rate; idle polling with no
    /// scope in flight is not an attempt).
    steal_attempts: AtomicU64,
    /// Tasks a worker took from its own LIFO slot (cache-affine hits).
    lifo_hits: AtomicU64,
    executed: AtomicU64,
    /// Scopes currently draining tasks (the saturation signal callers
    /// use to degrade from parallel to serial execution).
    active_scopes: AtomicUsize,
}

impl Shared {
    /// Take one job: own LIFO slot, own deque (LIFO), injector, then
    /// steal (FIFO, half the victim's deque). `home` is the calling
    /// worker's deque index; `None` for the scope-owning caller, which
    /// scans the injector, every deque, and every slot.
    fn pop_any(&self, home: Option<usize>) -> Option<Job> {
        if let Some(h) = home {
            if let Some(j) = lock_profiled(&self.lifo[h]).take() {
                self.lifo_hits.fetch_add(1, Relaxed);
                self.queued.fetch_sub(1, SeqCst);
                return Some(j);
            }
            if let Some(j) = lock_profiled(&self.locals[h]).pop_back() {
                self.queued.fetch_sub(1, SeqCst);
                return Some(j);
            }
        }
        if let Some(j) = lock_profiled(&self.injector).pop_front() {
            self.queued.fetch_sub(1, SeqCst);
            return Some(j);
        }
        let n = self.locals.len();
        // A sibling scan only counts as a steal *attempt* when a worker
        // (not the scope-owning caller) scans while work could exist —
        // idle 1 ms polling with no active scope would otherwise drown
        // the success rate (and the profile) in vacuous misses.
        let stealing = home.is_some() && n > 1 && self.active_scopes.load(SeqCst) > 0;
        if stealing {
            self.steal_attempts.fetch_add(1, Relaxed);
            profile::record(EventKind::StealAttempt, 0);
        }
        let start = home.unwrap_or(0);
        for k in 0..n {
            let v = (start + 1 + k) % n;
            if Some(v) == home {
                continue;
            }
            let mut victim = lock_profiled(&self.locals[v]);
            let avail = victim.len();
            if avail == 0 {
                continue;
            }
            let first = victim.pop_front().expect("non-empty deque");
            match home {
                Some(h) if avail > 1 => {
                    // Steal-half: move (avail+1)/2 oldest tasks in one
                    // visit — one successful scan re-balances the queues
                    // instead of winning a single task per lock round-trip
                    // (the 43% single-victim hit rate measured in PR 6).
                    let extra = avail.div_ceil(2) - 1;
                    let moved: Vec<Job> = (0..extra).filter_map(|_| victim.pop_front()).collect();
                    drop(victim);
                    let taken = 1 + moved.len() as u64;
                    if !moved.is_empty() {
                        lock_profiled(&self.locals[h]).extend(moved);
                        // The thief's deque now has surplus another idle
                        // worker could take; wake one.
                        self.wake.notify_one();
                    }
                    self.steals.fetch_add(taken, Relaxed);
                    if stealing {
                        profile::record(EventKind::StealSuccess, taken);
                    }
                }
                Some(_) => {
                    drop(victim);
                    self.steals.fetch_add(1, Relaxed);
                    if stealing {
                        profile::record(EventKind::StealSuccess, 1);
                    }
                }
                None => drop(victim),
            }
            self.queued.fetch_sub(1, SeqCst);
            return Some(first);
        }
        // Last resort: raid parked workers' LIFO slots so a job can never
        // sit unexecuted behind a slow wakeup.
        for k in 0..n {
            let v = (start + 1 + k) % n;
            if Some(v) == home {
                continue;
            }
            if let Some(j) = lock_profiled(&self.lifo[v]).take() {
                if home.is_some() {
                    self.steals.fetch_add(1, Relaxed);
                    if stealing {
                        profile::record(EventKind::StealSuccess, 1);
                    }
                }
                self.queued.fetch_sub(1, SeqCst);
                return Some(j);
            }
        }
        if stealing {
            profile::record(EventKind::StealFail, 0);
        }
        None
    }

    /// Place a job on the next worker in round-robin order — its LIFO
    /// slot when free, its deque otherwise (displacing the slot's older
    /// occupant to the deque). No wakeup; callers wake explicitly so a
    /// bulk submit can wake all workers once instead of one per task.
    /// Callers must only enqueue when workers exist.
    fn enqueue(&self, job: Job) {
        self.queued.fetch_add(1, SeqCst);
        let i = self.next_queue.fetch_add(1, Relaxed) % self.locals.len();
        let displaced = {
            let mut slot = lock_profiled(&self.lifo[i]);
            let old = slot.take();
            *slot = Some(job);
            old
        };
        if let Some(old) = displaced {
            lock_profiled(&self.locals[i]).push_back(old);
        }
    }

    /// Queue one job and wake one parked worker. The notify happens
    /// under the `sleep` lock: a parking worker re-checks `queued`
    /// under that same lock, so it either sees this job or is already
    /// waiting when the notify lands — never in between.
    fn push(&self, job: Job) {
        self.enqueue(job);
        let _guard = lock_unpoisoned(&self.sleep);
        self.wake.notify_one();
    }

    /// Queue a batch of jobs, then wake every parked worker at once when
    /// there is work for more than one of them (a bulk fan-out), or just
    /// one for a single job.
    fn push_batch(&self, jobs: Vec<Job>) {
        let many = jobs.len() > 1;
        for job in jobs {
            self.enqueue(job);
        }
        let _guard = lock_unpoisoned(&self.sleep);
        if many {
            self.wake.notify_all();
        } else {
            self.wake.notify_one();
        }
    }

    fn run(&self, job: Job) {
        profile::record(EventKind::TaskStart, 0);
        job();
        profile::record(EventKind::TaskEnd, 0);
        self.executed.fetch_add(1, Relaxed);
    }
}

fn worker_loop(shared: Arc<Shared>, me: usize) {
    loop {
        if let Some(job) = shared.pop_any(Some(me)) {
            shared.run(job);
            continue;
        }
        if shared.shutdown.load(SeqCst) {
            return;
        }
        profile::record(EventKind::Park, 0);
        {
            let guard = lock_unpoisoned(&shared.sleep);
            // Re-check under the lock: submitters notify under this same
            // lock, so either work is visible here or the notify arrives
            // while we wait. The generous timeout is a backstop only —
            // an idle worker costs ten wakeups a second, not a thousand.
            if shared.queued.load(SeqCst) == 0 && !shared.shutdown.load(SeqCst) {
                let _ = shared
                    .wake
                    .wait_timeout(guard, Duration::from_millis(100))
                    .unwrap_or_else(|poisoned| {
                        POISON_RECOVERIES.fetch_add(1, Relaxed);
                        poisoned.into_inner()
                    });
            }
        }
        profile::record(EventKind::Unpark, 0);
    }
}

/// A fixed-size work-stealing thread pool.
pub struct Pool {
    shared: Arc<Shared>,
    threads: usize,
}

impl Pool {
    /// A pool with `threads` total parallelism: `threads - 1` worker
    /// threads plus the scope-owning caller. `threads <= 1` spawns no
    /// workers and runs everything inline.
    pub fn new(threads: usize) -> Pool {
        let threads = threads.max(1);
        let workers = threads - 1;
        let shared = Arc::new(Shared {
            locals: (0..workers).map(|_| Mutex::new(VecDeque::new())).collect(),
            lifo: (0..workers).map(|_| Mutex::new(None)).collect(),
            injector: Mutex::new(VecDeque::new()),
            queued: AtomicUsize::new(0),
            sleep: Mutex::new(()),
            wake: Condvar::new(),
            shutdown: AtomicBool::new(false),
            next_queue: AtomicUsize::new(0),
            steals: AtomicU64::new(0),
            steal_attempts: AtomicU64::new(0),
            lifo_hits: AtomicU64::new(0),
            executed: AtomicU64::new(0),
            active_scopes: AtomicUsize::new(0),
        });
        for i in 0..workers {
            let s = shared.clone();
            std::thread::Builder::new()
                .name(format!("ppf-pool-{i}"))
                .spawn(move || worker_loop(s, i))
                .expect("spawn pool worker");
        }
        Pool { shared, threads }
    }

    /// Configured parallelism (workers + participating caller).
    pub fn threads(&self) -> usize {
        self.threads
    }

    /// Tasks moved between deques by work stealing, since construction.
    pub fn steal_count(&self) -> u64 {
        self.shared.steals.load(Relaxed)
    }

    /// Sibling-deque scans workers started while scopes were active,
    /// since construction. `steal_count / steal_attempt_count` is the
    /// steal-success rate; a low rate with high attempts means workers
    /// burn their time scanning empty deques instead of executing.
    pub fn steal_attempt_count(&self) -> u64 {
        self.shared.steal_attempts.load(Relaxed)
    }

    /// Tasks workers ran straight out of their own LIFO slot — the
    /// cache-affine fast path that skips the deque entirely.
    pub fn lifo_hit_count(&self) -> u64 {
        self.shared.lifo_hits.load(Relaxed)
    }

    /// Tasks completed by worker threads (inline and caller-executed
    /// tasks are not counted here).
    pub fn tasks_executed(&self) -> u64 {
        self.shared.executed.load(Relaxed)
    }

    /// Scopes currently executing on this pool (including the caller's
    /// own, while inside one).
    pub fn active_scopes(&self) -> usize {
        self.shared.active_scopes.load(SeqCst)
    }

    /// Whether the pool already has at least `threads` concurrent scopes
    /// draining. A saturated pool gains nothing from further fan-out —
    /// callers should run their work serially instead of queueing chunks
    /// behind every other query's chunks.
    pub fn is_saturated(&self) -> bool {
        self.threads <= 1 || self.shared.active_scopes.load(SeqCst) >= self.threads
    }

    /// Run a batch of scoped tasks. Tasks spawned via [`Scope::spawn`]
    /// may borrow anything that outlives the `scope` call; the call
    /// returns only after every task has finished. If any task panicked,
    /// the panic is re-raised here (after all tasks completed).
    pub fn scope<'env, R>(&'env self, f: impl FnOnce(&Scope<'env>) -> R) -> R {
        match self.try_scope(f) {
            Ok(r) => r,
            Err(_) => panic!("ppf-pool: a scoped task panicked"),
        }
    }

    /// Like [`Pool::scope`], but a panicking *task* surfaces as
    /// `Err(TaskPanic)` (carrying the first panic's message) instead of
    /// re-raising, so callers can degrade one query to a typed error
    /// rather than unwinding the process. All tasks are still drained
    /// before returning; a panic in the closure `f` itself (the caller's
    /// own stack) is re-raised as before.
    pub fn try_scope<'env, R>(
        &'env self,
        f: impl FnOnce(&Scope<'env>) -> R,
    ) -> Result<R, TaskPanic> {
        struct ActiveScope<'a>(&'a AtomicUsize);
        impl Drop for ActiveScope<'_> {
            fn drop(&mut self) {
                self.0.fetch_sub(1, SeqCst);
            }
        }
        self.shared.active_scopes.fetch_add(1, SeqCst);
        let _active = ActiveScope(&self.shared.active_scopes);
        let state = Arc::new(ScopeState {
            pending: AtomicUsize::new(0),
            panicked: AtomicBool::new(false),
            panic_msg: Mutex::new(None),
        });
        let scope = Scope {
            pool: self,
            state: state.clone(),
            _marker: std::marker::PhantomData,
        };
        // The closure itself may panic after spawning; tasks must still
        // be drained before unwinding releases the borrowed stack.
        let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| f(&scope)));
        while state.pending.load(SeqCst) != 0 {
            // Participate instead of blocking: the caller is one of the
            // pool's `threads()` lanes.
            match self.shared.pop_any(None) {
                Some(job) => self.shared.run(job),
                None => std::thread::yield_now(),
            }
        }
        if state.panicked.load(SeqCst) {
            let message = lock_unpoisoned(&state.panic_msg)
                .take()
                .unwrap_or_else(|| "opaque panic payload".to_string());
            return Err(TaskPanic { message });
        }
        match result {
            Ok(r) => Ok(r),
            Err(p) => std::panic::resume_unwind(p),
        }
    }

    /// Chunked data-parallel map: split `items` into up to `2 × threads`
    /// contiguous chunks of at least `min_chunk` items, run `f(chunk_index,
    /// chunk)` across the pool, and return the per-chunk results in chunk
    /// order. Single-threaded pools (or inputs smaller than `2 ×
    /// min_chunk`) make exactly one inline call.
    pub fn parallel_map<T, R, F>(&self, items: &[T], min_chunk: usize, f: F) -> Vec<R>
    where
        T: Sync,
        R: Send,
        F: Fn(usize, &[T]) -> R + Sync,
    {
        let ranges = even_ranges(items.len(), self.chunk_target(items.len(), min_chunk));
        self.map_ranges(&ranges, |i, r| f(i, &items[r]))
    }

    /// Number of chunks `parallel_map` would split `len` items into.
    pub fn chunk_target(&self, len: usize, min_chunk: usize) -> usize {
        if self.threads <= 1 || len == 0 {
            return 1;
        }
        (len / min_chunk.max(1)).clamp(1, self.threads * 2)
    }

    /// Run `f(task_index, range)` for each of the given index ranges
    /// (caller-chosen boundaries — e.g. Dewey-aligned partitions) and
    /// collect results in range order. One range, or a single-threaded
    /// pool, runs inline.
    pub fn map_ranges<R, F>(&self, ranges: &[std::ops::Range<usize>], f: F) -> Vec<R>
    where
        R: Send,
        F: Fn(usize, std::ops::Range<usize>) -> R + Sync,
    {
        match self.try_map_ranges(ranges, f) {
            Ok(out) => out,
            Err(_) => panic!("ppf-pool: a scoped task panicked"),
        }
    }

    /// Like [`Pool::map_ranges`], but a panicking task yields
    /// `Err(TaskPanic)` after all sibling tasks drained, instead of
    /// re-raising the panic on the calling thread.
    pub fn try_map_ranges<R, F>(
        &self,
        ranges: &[std::ops::Range<usize>],
        f: F,
    ) -> Result<Vec<R>, TaskPanic>
    where
        R: Send,
        F: Fn(usize, std::ops::Range<usize>) -> R + Sync,
    {
        if ranges.len() <= 1 || self.threads <= 1 {
            return Ok(ranges
                .iter()
                .enumerate()
                .map(|(i, r)| f(i, r.clone()))
                .collect());
        }
        let slots: Vec<Mutex<Option<R>>> = ranges.iter().map(|_| Mutex::new(None)).collect();
        self.try_scope(|s| {
            let tasks: Vec<_> = ranges
                .iter()
                .enumerate()
                .map(|(i, range)| {
                    let slot = &slots[i];
                    let f = &f;
                    let range = range.clone();
                    move || {
                        *lock_unpoisoned(slot) = Some(f(i, range));
                    }
                })
                .collect();
            s.spawn_batch(tasks);
        })?;
        Ok(slots
            .into_iter()
            .map(|m| {
                m.into_inner()
                    .unwrap_or_else(|poisoned| poisoned.into_inner())
                    .expect("scoped task completed")
            })
            .collect())
    }
}

impl Drop for Pool {
    fn drop(&mut self) {
        // Workers notice immediately (the notify is taken under the
        // sleep lock, closing the check-then-wait race) and exit; they
        // are not joined (a pool replaced mid-flight may be dropped from
        // a thread that must not block).
        self.shared.shutdown.store(true, SeqCst);
        let guard = lock_unpoisoned(&self.shared.sleep);
        self.shared.wake.notify_all();
        drop(guard);
    }
}

struct ScopeState {
    pending: AtomicUsize,
    panicked: AtomicBool,
    /// Message of the first task panic, for the `TaskPanic` error.
    panic_msg: Mutex<Option<String>>,
}

/// Spawn handle passed to the closure of [`Pool::scope`].
pub struct Scope<'env> {
    pool: &'env Pool,
    state: Arc<ScopeState>,
    /// Invariant over 'env, like `std::thread::Scope`.
    _marker: std::marker::PhantomData<std::cell::Cell<&'env ()>>,
}

impl<'env> Scope<'env> {
    /// Wrap a user closure in the scope's panic-capture + pending
    /// bookkeeping. The returned closure must run exactly once.
    fn wrap(&self, f: impl FnOnce() + Send + 'env) -> impl FnOnce() + Send + 'env {
        self.state.pending.fetch_add(1, SeqCst);
        let state = self.state.clone();
        move || {
            if let Err(payload) = std::panic::catch_unwind(std::panic::AssertUnwindSafe(f)) {
                let mut slot = lock_unpoisoned(&state.panic_msg);
                if slot.is_none() {
                    *slot = Some(payload_message(payload.as_ref()));
                }
                drop(slot);
                state.panicked.store(true, SeqCst);
            }
            state.pending.fetch_sub(1, SeqCst);
        }
    }

    /// Erase a wrapped task's lifetime for queue storage.
    ///
    /// SAFETY (for callers): `Pool::scope` does not return until
    /// `pending` drops to zero — every spawned job has run to completion
    /// (or unwound) — so no borrow captured by the job is dangling while
    /// it is queued or running. The lifetime is erased only for storage.
    fn erase(task: impl FnOnce() + Send + 'env) -> Job {
        let job: Box<dyn FnOnce() + Send + 'env> = Box::new(task);
        unsafe { std::mem::transmute(job) }
    }

    /// Spawn a task that may borrow from the enclosing scope. With no
    /// workers (single-thread pool) the task runs immediately inline.
    pub fn spawn(&self, f: impl FnOnce() + Send + 'env) {
        let task = self.wrap(f);
        if self.pool.shared.locals.is_empty() {
            task();
            return;
        }
        self.pool.shared.push(Self::erase(task));
    }

    /// Spawn a whole batch of tasks with a single wakeup decision: one
    /// parked worker is woken for a single job, all of them for a real
    /// fan-out — instead of `notify_one` per task, most of which land
    /// while every worker is already awake.
    pub fn spawn_batch<F: FnOnce() + Send + 'env>(&self, fs: Vec<F>) {
        if self.pool.shared.locals.is_empty() {
            for f in fs {
                self.wrap(f)();
            }
            return;
        }
        let jobs: Vec<Job> = fs.into_iter().map(|f| Self::erase(self.wrap(f))).collect();
        if !jobs.is_empty() {
            self.pool.shared.push_batch(jobs);
        }
    }
}

/// Split `0..len` into `chunks` contiguous ranges differing in length by
/// at most one.
pub fn even_ranges(len: usize, chunks: usize) -> Vec<std::ops::Range<usize>> {
    let chunks = chunks.clamp(1, len.max(1));
    let base = len / chunks;
    let extra = len % chunks;
    let mut out = Vec::with_capacity(chunks);
    let mut at = 0;
    for i in 0..chunks {
        let size = base + usize::from(i < extra);
        out.push(at..at + size);
        at += size;
    }
    out
}

// ----- process-wide pool -----

/// Invalid `PPF_THREADS` values seen (each also logs one warning line).
/// Mirrored into the metrics registry as `pool.env_parse_errors` by
/// `ppf_core` — a typo'd deployment must be visible, not silently run at
/// a default thread count.
static ENV_PARSE_ERRORS: AtomicU64 = AtomicU64::new(0);

/// Malformed `PPF_THREADS` values observed since process start.
pub fn env_parse_errors() -> u64 {
    ENV_PARSE_ERRORS.load(Relaxed)
}

/// Parse one `PPF_THREADS` value. Invalid input returns `None`, bumps
/// [`env_parse_errors`], and logs a warning naming the fallback —
/// split out from the env read so tests can exercise it directly.
fn parse_env_threads(raw: &str) -> Option<usize> {
    match raw.trim().parse() {
        Ok(n) => Some(n),
        Err(_) => {
            ENV_PARSE_ERRORS.fetch_add(1, Relaxed);
            eprintln!(
                "ppf-pool: ignoring invalid PPF_THREADS={raw:?} (want a non-negative \
                 integer); falling back to available parallelism"
            );
            None
        }
    }
}

fn env_threads() -> Option<usize> {
    parse_env_threads(&std::env::var("PPF_THREADS").ok()?)
}

/// Default parallelism: `PPF_THREADS` if set and valid (0 and 1 both
/// mean serial), else the machine's available parallelism. An *invalid*
/// `PPF_THREADS` also falls back, but is counted ([`env_parse_errors`])
/// and logged rather than silently ignored.
///
/// Precedence: the environment variable is read once, when the global
/// pool is first touched; a later [`set_threads`] call always wins (it
/// replaces the pool outright and never re-reads the environment).
pub fn default_threads() -> usize {
    env_threads()
        .unwrap_or_else(|| {
            std::thread::available_parallelism()
                .map(std::num::NonZeroUsize::get)
                .unwrap_or(1)
        })
        .max(1)
}

fn global_slot() -> &'static RwLock<Arc<Pool>> {
    static GLOBAL: OnceLock<RwLock<Arc<Pool>>> = OnceLock::new();
    GLOBAL.get_or_init(|| RwLock::new(Arc::new(Pool::new(default_threads()))))
}

/// The process-wide pool. Cheap to call (one `RwLock` read + `Arc`
/// clone); hold the handle across one operation, not forever — ­
/// [`set_threads`] replaces the pool and old handles keep the old size.
pub fn global() -> Arc<Pool> {
    global_slot()
        .read()
        .unwrap_or_else(|poisoned| {
            POISON_RECOVERIES.fetch_add(1, Relaxed);
            poisoned.into_inner()
        })
        .clone()
}

/// Replace the process-wide pool with one of `threads` total lanes (the
/// programmatic counterpart of `PPF_THREADS`). In-flight scopes on the
/// old pool finish unaffected; its workers then exit.
pub fn set_threads(threads: usize) {
    *global_slot().write().unwrap_or_else(|poisoned| {
        POISON_RECOVERIES.fetch_add(1, Relaxed);
        poisoned.into_inner()
    }) = Arc::new(Pool::new(threads));
}

/// Configured parallelism of the current process-wide pool.
pub fn current_threads() -> usize {
    global().threads()
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicU64;

    #[test]
    fn even_ranges_cover_everything() {
        for len in [0usize, 1, 7, 64, 65] {
            for chunks in [1usize, 2, 3, 8, 100] {
                let rs = even_ranges(len, chunks);
                let mut at = 0;
                for r in &rs {
                    assert_eq!(r.start, at);
                    at = r.end;
                }
                assert_eq!(at, len);
                let max = rs.iter().map(|r| r.len()).max().unwrap_or(0);
                let min = rs.iter().map(|r| r.len()).min().unwrap_or(0);
                assert!(max - min <= 1, "len={len} chunks={chunks}");
            }
        }
    }

    #[test]
    fn parallel_map_matches_serial() {
        for threads in [1, 2, 4] {
            let pool = Pool::new(threads);
            let items: Vec<u64> = (0..10_000).collect();
            let partials = pool.parallel_map(&items, 64, |_, chunk| chunk.iter().sum::<u64>());
            let total: u64 = partials.iter().sum();
            assert_eq!(total, items.iter().sum::<u64>(), "threads={threads}");
        }
    }

    #[test]
    fn scoped_tasks_borrow_and_complete() {
        let pool = Pool::new(4);
        let counter = AtomicU64::new(0);
        pool.scope(|s| {
            for _ in 0..100 {
                s.spawn(|| {
                    counter.fetch_add(1, Relaxed);
                });
            }
        });
        assert_eq!(counter.load(Relaxed), 100);
    }

    #[test]
    fn map_ranges_preserves_order() {
        let pool = Pool::new(3);
        let ranges = even_ranges(1000, 7);
        let got = pool.map_ranges(&ranges, |i, r| (i, r.start));
        for (i, (idx, start)) in got.iter().enumerate() {
            assert_eq!(*idx, i);
            assert_eq!(*start, ranges[i].start);
        }
    }

    #[test]
    fn single_thread_pool_runs_inline() {
        let pool = Pool::new(1);
        let items: Vec<usize> = (0..100).collect();
        let out = pool.parallel_map(&items, 1, |_, c| c.len());
        assert_eq!(out.iter().sum::<usize>(), 100);
        assert_eq!(pool.tasks_executed(), 0, "no workers, no queued tasks");
    }

    #[test]
    fn panic_propagates_after_drain() {
        let pool = Pool::new(2);
        let done = AtomicU64::new(0);
        let r = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            pool.scope(|s| {
                s.spawn(|| panic!("boom"));
                for _ in 0..10 {
                    s.spawn(|| {
                        done.fetch_add(1, Relaxed);
                    });
                }
            });
        }));
        assert!(r.is_err());
        assert_eq!(done.load(Relaxed), 10, "non-panicking tasks still ran");
    }

    #[test]
    fn try_scope_reports_task_panic_with_message() {
        let pool = Pool::new(2);
        let done = AtomicU64::new(0);
        let r = pool.try_scope(|s| {
            s.spawn(|| panic!("chunk 3 exploded"));
            for _ in 0..10 {
                s.spawn(|| {
                    done.fetch_add(1, Relaxed);
                });
            }
        });
        let err = r.unwrap_err();
        assert!(err.message.contains("chunk 3 exploded"), "{err}");
        assert_eq!(done.load(Relaxed), 10, "non-panicking tasks still ran");
        // The pool remains serviceable after the panic.
        let items: Vec<u64> = (0..1000).collect();
        let partials = pool.parallel_map(&items, 16, |_, c| c.iter().sum::<u64>());
        assert_eq!(partials.iter().sum::<u64>(), items.iter().sum::<u64>());
    }

    #[test]
    fn try_map_ranges_reports_task_panic() {
        let pool = Pool::new(4);
        let ranges = even_ranges(1000, 8);
        let r = pool.try_map_ranges(&ranges, |i, r| {
            if i == 5 {
                panic!("range {i} failed");
            }
            r.len()
        });
        assert!(r.is_err());
        // And succeeds when nothing panics.
        let ok = pool.try_map_ranges(&ranges, |_, r| r.len()).unwrap();
        assert_eq!(ok.iter().sum::<usize>(), 1000);
    }

    #[test]
    fn active_scopes_tracks_saturation() {
        let pool = Pool::new(2);
        assert_eq!(pool.active_scopes(), 0);
        assert!(!pool.is_saturated());
        pool.scope(|_| {
            assert_eq!(pool.active_scopes(), 1);
        });
        assert_eq!(pool.active_scopes(), 0);
        let single = Pool::new(1);
        assert!(single.is_saturated(), "serial pools never fan out");
    }

    #[test]
    fn invalid_env_threads_is_counted_not_silent() {
        let before = env_parse_errors();
        assert_eq!(parse_env_threads("not-a-number"), None);
        assert_eq!(parse_env_threads("-3"), None);
        assert_eq!(env_parse_errors(), before + 2);
        // Valid values (including surrounding whitespace) parse cleanly
        // and leave the counter alone.
        assert_eq!(parse_env_threads(" 4 "), Some(4));
        assert_eq!(parse_env_threads("0"), Some(0));
        assert_eq!(env_parse_errors(), before + 2);
    }

    #[test]
    fn profiler_hooks_emit_worker_timelines() {
        // The profiler is process-global; no other test in this binary
        // attaches it, so attach/detach here is race-free.
        let pool = Pool::new(4);
        assert!(obs::profile::attach(), "no other attachment expected");
        let items: Vec<u64> = (0..50_000).collect();
        for _ in 0..10 {
            let partials = pool.parallel_map(&items, 512, |_, c| c.iter().sum::<u64>());
            assert_eq!(partials.iter().sum::<u64>(), items.iter().sum::<u64>());
        }
        let p = obs::profile::detach().expect("attached above");
        let timelines = p.timelines();
        let workers: Vec<_> = timelines
            .iter()
            .filter(|t| t.name.starts_with("ppf-pool-"))
            .collect();
        assert!(
            !workers.is_empty(),
            "no worker lanes recorded: {timelines:?}"
        );
        let tasks: u64 = workers.iter().map(|t| t.tasks).sum();
        assert!(tasks > 0, "workers recorded no task spans: {workers:?}");
        // Steal accounting is live regardless of the profiler.
        assert!(pool.tasks_executed() > 0);
        let _ = pool.steal_attempt_count(); // accessor is wired
    }

    #[test]
    fn spawn_batch_runs_every_task() {
        for threads in [1, 2, 4] {
            let pool = Pool::new(threads);
            let counter = AtomicU64::new(0);
            pool.scope(|s| {
                let tasks: Vec<_> = (0..200)
                    .map(|_| {
                        let counter = &counter;
                        move || {
                            counter.fetch_add(1, Relaxed);
                        }
                    })
                    .collect();
                s.spawn_batch(tasks);
                // An empty batch is a no-op, not a hang.
                s.spawn_batch(Vec::<fn()>::new());
            });
            assert_eq!(counter.load(Relaxed), 200, "threads={threads}");
        }
    }

    #[test]
    fn lifo_slot_accounting_is_wired() {
        let pool = Pool::new(4);
        // Many rounds of small fan-outs: some tasks will be picked out of
        // the LIFO slot by their owner, some stolen — either way every
        // task runs exactly once and the counters stay consistent.
        for _ in 0..50 {
            let counter = AtomicU64::new(0);
            pool.scope(|s| {
                for _ in 0..16 {
                    s.spawn(|| {
                        counter.fetch_add(1, Relaxed);
                    });
                }
            });
            assert_eq!(counter.load(Relaxed), 16);
        }
        // The accessor is wired; hits are machine-dependent (the caller
        // may drain slots first), so only monotonicity is asserted.
        let hits = pool.lifo_hit_count();
        assert!(hits <= 50 * 16);
    }

    #[test]
    fn steal_half_rebalances_without_losing_tasks() {
        let pool = Pool::new(4);
        for round in 0..20 {
            let counter = AtomicU64::new(0);
            let n: u64 = 64 + round;
            pool.scope(|s| {
                let tasks: Vec<_> = (0..n)
                    .map(|_| {
                        let counter = &counter;
                        move || {
                            counter.fetch_add(1, Relaxed);
                        }
                    })
                    .collect();
                s.spawn_batch(tasks);
            });
            assert_eq!(counter.load(Relaxed), n, "round={round}");
        }
    }

    #[test]
    fn global_pool_resizes() {
        // Serialize against other tests touching the global pool.
        set_threads(2);
        assert_eq!(current_threads(), 2);
        set_threads(1);
        assert_eq!(current_threads(), 1);
    }
}
