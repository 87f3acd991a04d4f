//! Admission control: a bounded in-flight gauge whose wait queue is the
//! job queue of a fixed set of worker threads.
//!
//! Every `query`/`explain`/`analyze` request is a [`Job`] that must hold
//! a slot before it may touch the engine. At most `max_inflight` slots
//! exist and exactly that many workers run [`Admission::run_worker`], so
//! a job that takes a slot at [`Admission::submit`] always finds a worker
//! to run it. When all slots are taken a job either *queues* (bounded
//! depth, bounded wait) or is *shed* immediately with a typed
//! `[overload]` rejection the client backs off from. `submit` never
//! blocks, so event threads call it directly, and a shed touches neither
//! a worker nor the engine, so the server stays responsive precisely
//! when it is busiest.

use std::collections::VecDeque;
use std::sync::{Arc, Mutex, MutexGuard};
use std::thread::Thread;
use std::time::{Duration, Instant};

use crate::lock;

/// What to do with a request that arrives while every slot is busy.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum AdmissionPolicy {
    /// Wait up to `queue_wait` for a slot, as long as fewer than
    /// `queue_depth` requests are already waiting; shed otherwise.
    #[default]
    Queue,
    /// Shed immediately; never wait.
    Shed,
}

/// Why a request was shed; each reason has its own `server.shed.*`
/// counter and `shed:`-prefixed detail in the `[overload]` message.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ShedReason {
    /// Policy is [`AdmissionPolicy::Shed`] and all slots were busy.
    Busy,
    /// The wait queue already holds `queue_depth` requests.
    QueueFull,
    /// Queued, but no slot freed within `queue_wait`.
    QueueTimeout,
}

impl ShedReason {
    /// The reason's `server.shed.*` counter.
    pub fn metric_name(self) -> &'static str {
        match self {
            ShedReason::Busy => "server.shed.busy",
            ShedReason::QueueFull => "server.shed.queue_full",
            ShedReason::QueueTimeout => "server.shed.queue_timeout",
        }
    }
}

/// One unit of admitted work. Called exactly once: with the slot it runs
/// under, on a worker thread — or with the reason it was shed, on
/// whichever thread found that out (`submit`'s or `expire`'s caller).
pub type Job = Box<dyn FnOnce(Result<Slot, ShedReason>) + Send>;

#[derive(Default)]
struct State {
    /// Slots taken: jobs handed to the workers and not yet released.
    inflight: usize,
    /// Jobs holding a slot that no worker has picked up yet, with
    /// whether they queued first.
    ready: VecDeque<(Job, bool)>,
    /// Jobs waiting for a slot, oldest first. `queue_wait` is constant,
    /// so the deadlines ascend.
    waiting: VecDeque<(Instant, Job)>,
    /// Parked workers, most recently parked last — and woken first: it
    /// is the one whose caches are warm. (Waking in condvar order, the
    /// longest-parked first, measured ≈ 20 % less `adhoc_cold`
    /// throughput and a 4× higher hand-off p95 on two cores.)
    idle: Vec<Thread>,
    /// No more jobs will come: workers exit once `ready` is empty.
    closed: bool,
}

/// The controller. Cheap to share (`Arc`); one per server.
pub struct Admission {
    max_inflight: usize,
    queue_depth: usize,
    queue_wait: Duration,
    policy: AdmissionPolicy,
    state: Mutex<State>,
}

/// RAII admission slot: holding one is the permission to run a query.
/// Dropping it (on every exit path, panics included) hands the slot to
/// the oldest queued job still inside its wait, or frees it.
pub struct Slot {
    admission: Arc<Admission>,
    /// Whether this slot was granted only after queueing (the server
    /// counts these into `server.queued`).
    pub waited: bool,
}

impl Drop for Slot {
    fn drop(&mut self) {
        let mut s = lock(&self.admission.state);
        if s.waiting.is_empty() {
            s.inflight -= 1;
            return;
        }
        // A job past its deadline never runs late: it stays queued for
        // `expire`, and the slot goes to the first job still in time.
        let now = Instant::now();
        let in_time = s.waiting.iter().position(|(deadline, _)| *deadline > now);
        match in_time.and_then(|i| s.waiting.remove(i)) {
            Some((_, job)) => hand(s, job, true),
            None => s.inflight -= 1,
        }
    }
}

/// Give `job` (its slot already counted) to the workers: the most
/// recently parked one is woken; with none parked, one is between jobs
/// and about to look.
fn hand(mut s: MutexGuard<'_, State>, job: Job, waited: bool) {
    s.ready.push_back((job, waited));
    let worker = s.idle.pop();
    drop(s);
    if let Some(worker) = worker {
        worker.unpark();
    }
}

impl Admission {
    pub fn new(
        max_inflight: usize,
        queue_depth: usize,
        queue_wait: Duration,
        policy: AdmissionPolicy,
    ) -> Arc<Admission> {
        Arc::new(Admission {
            max_inflight: max_inflight.max(1),
            queue_depth,
            queue_wait,
            policy,
            state: Mutex::default(),
        })
    }

    /// Slots, and therefore workers the owner must start.
    pub fn workers(&self) -> usize {
        self.max_inflight
    }

    /// Queries currently holding a slot.
    pub fn inflight(&self) -> usize {
        lock(&self.state).inflight
    }

    /// Requests currently parked in the wait queue.
    pub fn waiting(&self) -> usize {
        lock(&self.state).waiting.len()
    }

    /// Take a free slot without a job, or `None` when all are taken. The
    /// server admits through [`Admission::submit`] only; this is the bare
    /// admit-and-release cycle that `serve_bench`'s `server.admission_ns`
    /// probe times, and how the tests below occupy slots.
    pub fn try_admit(self: &Arc<Admission>) -> Option<Slot> {
        let mut s = lock(&self.state);
        (s.inflight < self.max_inflight).then(|| {
            s.inflight += 1;
            Slot {
                admission: self.clone(),
                waited: false,
            }
        })
    }

    /// Admit `job` without ever blocking: hand it to a worker if a slot
    /// is free, park it in the wait queue if policy and depth allow
    /// (returning the deadline at which the caller must call
    /// [`Admission::expire`]), or shed it by calling it with the reason
    /// right here.
    pub fn submit(&self, job: Job) -> Option<Instant> {
        let mut s = lock(&self.state);
        let reason = if s.inflight < self.max_inflight {
            s.inflight += 1;
            hand(s, job, false);
            return None;
        } else if self.policy == AdmissionPolicy::Shed {
            ShedReason::Busy
        } else if s.waiting.len() >= self.queue_depth {
            ShedReason::QueueFull
        } else {
            let deadline = Instant::now() + self.queue_wait;
            s.waiting.push_back((deadline, job));
            return Some(deadline);
        };
        drop(s);
        job(Err(reason));
        None
    }

    /// Shed every queued job whose deadline has passed, even while all
    /// workers stay busy.
    pub fn expire(&self, now: Instant) {
        let mut s = lock(&self.state);
        let due = s.waiting.partition_point(|(deadline, _)| *deadline <= now);
        let expired: Vec<Job> = s.waiting.drain(..due).map(|(_, job)| job).collect();
        drop(s);
        for job in expired {
            job(Err(ShedReason::QueueTimeout));
        }
    }

    /// A worker thread's whole life: run handed jobs until
    /// [`Admission::close`]. A job that panics takes neither the worker
    /// nor its slot with it.
    pub fn run_worker(self: &Arc<Admission>) {
        let me = std::thread::current();
        loop {
            let mut s = lock(&self.state);
            let (job, waited) = loop {
                if let Some(next) = s.ready.pop_front() {
                    break next;
                }
                if s.closed {
                    return;
                }
                s.idle.push(me.clone());
                drop(s);
                std::thread::park();
                s = lock(&self.state);
                // Still listed after a spurious wake-up: never twice.
                s.idle.retain(|t| t.id() != me.id());
            };
            drop(s);
            let slot = Slot {
                admission: self.clone(),
                waited,
            };
            let _ = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| job(Ok(slot))));
        }
    }

    /// Stop the workers once the jobs already holding slots have run.
    /// Jobs still queued are dropped unanswered — their connections are
    /// gone by the time the server calls this.
    pub fn close(&self) {
        let mut s = lock(&self.state);
        s.closed = true;
        let unanswered = std::mem::take(&mut s.waiting);
        let idle = std::mem::take(&mut s.idle);
        drop(s);
        for worker in idle {
            worker.unpark();
        }
        drop(unanswered);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::mpsc;

    type Workers = Vec<std::thread::JoinHandle<()>>;

    /// An admission with its workers running; `finish` closes and joins.
    fn started(slots: usize, depth: usize, policy: AdmissionPolicy) -> (Arc<Admission>, Workers) {
        let adm = Admission::new(slots, depth, Duration::from_secs(30), policy);
        let spawn = |_| {
            let adm = adm.clone();
            std::thread::spawn(move || adm.run_worker())
        };
        let workers = (0..adm.workers()).map(spawn).collect();
        (adm, workers)
    }

    fn finish(adm: Arc<Admission>, workers: Workers) {
        adm.close();
        for w in workers {
            w.join().expect("worker exits cleanly");
        }
        assert_eq!((adm.inflight(), adm.waiting()), (0, 0));
    }

    /// How job `n` was resolved: `Ok(waited)` or the shed reason.
    type Outcome = (u32, Result<bool, ShedReason>);

    /// A job that reports its outcome and, when it runs, holds its slot
    /// until `release` speaks.
    fn job(n: u32, outcome: &mpsc::Sender<Outcome>, release: Option<mpsc::Receiver<()>>) -> Job {
        let outcome = outcome.clone();
        Box::new(move |grant| {
            let resolved = grant.as_ref().map(|slot| slot.waited).map_err(|r| *r);
            outcome.send((n, resolved)).unwrap();
            if let (Ok(_slot), Some(release)) = (grant, release) {
                release.recv().ok();
            }
        })
    }

    #[test]
    fn grants_up_to_capacity_then_sheds_busy_under_shed_policy() {
        let (adm, workers) = started(2, 0, AdmissionPolicy::Shed);
        let (tx, rx) = mpsc::channel();
        let (hold, gate) = mpsc::channel();
        assert!(adm.submit(job(1, &tx, Some(gate))).is_none());
        let held = adm.try_admit().expect("second slot");
        assert_eq!(rx.recv().unwrap(), (1, Ok(false)));
        assert_eq!(adm.inflight(), 2);
        // Shed on the submitting thread, before `submit` returns.
        assert!(adm.submit(job(2, &tx, None)).is_none());
        assert_eq!(rx.try_recv().unwrap(), (2, Err(ShedReason::Busy)));
        drop(held);
        assert!(adm.submit(job(3, &tx, None)).is_none());
        assert_eq!(rx.recv().unwrap(), (3, Ok(false)));
        hold.send(()).unwrap();
        finish(adm, workers);
    }

    #[test]
    fn a_freed_slot_promotes_the_queue_head_in_fifo_order() {
        let (adm, workers) = started(1, 4, AdmissionPolicy::Queue);
        let (tx, rx) = mpsc::channel();
        let (hold, gate) = mpsc::channel();
        assert!(adm.submit(job(1, &tx, Some(gate))).is_none());
        assert_eq!(rx.recv().unwrap(), (1, Ok(false)));
        assert!(adm.submit(job(2, &tx, None)).is_some());
        assert!(adm.submit(job(3, &tx, None)).is_some());
        assert_eq!((adm.inflight(), adm.waiting()), (1, 2));
        assert!(rx.try_recv().is_err(), "queued jobs must not run yet");
        hold.send(()).unwrap();
        assert_eq!(rx.recv().unwrap(), (2, Ok(true)), "oldest first");
        assert_eq!(rx.recv().unwrap(), (3, Ok(true)));
        finish(adm, workers);
    }

    #[test]
    fn queue_overflow_and_timeout_shed_with_distinct_reasons() {
        // No workers: the only slot is held by hand. A zero wait makes
        // the queued job overdue as soon as it is queued.
        let adm = Admission::new(1, 1, Duration::ZERO, AdmissionPolicy::Queue);
        let slot = adm.try_admit().expect("free slot");
        assert!(adm.try_admit().is_none());
        let (tx, rx) = mpsc::channel();
        let deadline = adm.submit(job(1, &tx, None)).expect("queued");
        // The queue is full: an immediate arrival sheds without waiting.
        assert!(adm.submit(job(2, &tx, None)).is_none());
        assert_eq!(rx.try_recv().unwrap(), (2, Err(ShedReason::QueueFull)));
        // Before its deadline the queued job stays put.
        adm.expire(deadline - Duration::from_millis(1));
        assert_eq!(adm.waiting(), 1);
        // Past it, a freed slot is not for this job: it never runs late,
        // the slot goes back to the gauge and `expire` sheds the job.
        drop(slot);
        assert_eq!((adm.inflight(), adm.waiting()), (0, 1));
        adm.expire(Instant::now());
        assert_eq!(rx.try_recv().unwrap(), (1, Err(ShedReason::QueueTimeout)));
        assert_eq!(adm.waiting(), 0);
    }

    #[test]
    fn a_panicking_job_frees_its_slot_and_keeps_its_worker() {
        let (adm, workers) = started(1, 0, AdmissionPolicy::Shed);
        let boom = Box::new(|grant: Result<Slot, ShedReason>| {
            let _slot = grant.expect("free slot");
            panic!("boom");
        });
        assert!(adm.submit(boom).is_none());
        while adm.inflight() > 0 {
            std::thread::yield_now();
        }
        // The same (only) worker runs the next job.
        let (tx, rx) = mpsc::channel();
        assert!(adm.submit(job(1, &tx, None)).is_none());
        assert_eq!(rx.recv().unwrap(), (1, Ok(false)));
        finish(adm, workers);
    }
}
