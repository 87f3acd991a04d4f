//! Admission control: a bounded in-flight gauge with a queue-or-shed
//! policy.
//!
//! Every `query`/`explain`/`analyze` request must acquire a slot before
//! it may touch the engine. At most `max_inflight` slots exist; when all
//! are taken a request either *queues* (bounded depth, bounded wait) or
//! is *shed* immediately with a typed `[overload]` rejection the client
//! backs off from. Shedding is load-proportional and cheap — a shed
//! request costs one mutex acquisition and one small write, so the
//! server stays responsive precisely when it is busiest.

use std::sync::{Arc, Condvar, Mutex, PoisonError};
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

/// Why a request was shed. The variant names are stable: they are the
/// `shed:`-prefixed detail in `[overload]` messages and the suffix of
/// the `server.shed.*` counters.
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
    pub fn as_str(self) -> &'static str {
        match self {
            ShedReason::Busy => "busy",
            ShedReason::QueueFull => "queue_full",
            ShedReason::QueueTimeout => "queue_timeout",
        }
    }
}

/// Outcome of the non-blocking [`Admission::try_admit`] fast path.
#[derive(Debug)]
pub enum TryAdmit {
    /// A slot was free; the caller holds it.
    Admitted(Slot),
    /// All slots busy but the queue has room under the Queue policy —
    /// park a worker in the blocking [`Admission::admit`] instead.
    WouldQueue,
    /// Definite rejection (shed policy, or the queue is full).
    Shed(ShedReason),
}

#[derive(Default)]
struct Gauge {
    inflight: usize,
    waiting: usize,
}

/// The controller. Cheap to share (`Arc`); one per server.
pub struct Admission {
    max_inflight: usize,
    queue_depth: usize,
    queue_wait: Duration,
    policy: AdmissionPolicy,
    gauge: Mutex<Gauge>,
    freed: Condvar,
}

/// RAII admission slot: holding one is the permission to run a query.
/// Dropping it (on every exit path, panics included) frees the slot and
/// wakes one queued waiter.
pub struct Slot {
    admission: Arc<Admission>,
    /// Whether this slot was granted only after queueing (the server
    /// counts these into `server.queued`).
    pub waited: bool,
}

impl std::fmt::Debug for Slot {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Slot")
            .field("waited", &self.waited)
            .finish()
    }
}

impl Drop for Slot {
    fn drop(&mut self) {
        let mut g = lock(&self.admission.gauge);
        g.inflight -= 1;
        drop(g);
        self.admission.freed.notify_one();
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
            gauge: Mutex::default(),
            freed: Condvar::new(),
        })
    }

    /// Queries currently holding a slot.
    pub fn inflight(&self) -> usize {
        lock(&self.gauge).inflight
    }

    /// Requests currently parked in the wait queue.
    pub fn waiting(&self) -> usize {
        lock(&self.gauge).waiting
    }

    /// Non-blocking admission for callers that must never sleep (event
    /// threads): a free slot is taken immediately, a definite rejection
    /// is returned immediately, and only the genuinely ambiguous case —
    /// the queue has room and policy allows waiting — is deferred to a
    /// thread that can afford the blocking [`Admission::admit`].
    pub fn try_admit(self: &Arc<Admission>) -> TryAdmit {
        let mut g = lock(&self.gauge);
        if g.inflight < self.max_inflight {
            g.inflight += 1;
            return TryAdmit::Admitted(Slot {
                admission: self.clone(),
                waited: false,
            });
        }
        if self.policy == AdmissionPolicy::Shed {
            return TryAdmit::Shed(ShedReason::Busy);
        }
        if g.waiting >= self.queue_depth {
            return TryAdmit::Shed(ShedReason::QueueFull);
        }
        TryAdmit::WouldQueue
    }

    /// Acquire a slot or learn why not. Never blocks longer than
    /// `queue_wait`.
    pub fn admit(self: &Arc<Admission>) -> Result<Slot, ShedReason> {
        let mut g = lock(&self.gauge);
        if g.inflight < self.max_inflight {
            g.inflight += 1;
            return Ok(Slot {
                admission: self.clone(),
                waited: false,
            });
        }
        if self.policy == AdmissionPolicy::Shed {
            return Err(ShedReason::Busy);
        }
        if g.waiting >= self.queue_depth {
            return Err(ShedReason::QueueFull);
        }
        g.waiting += 1;
        let deadline = Instant::now() + self.queue_wait;
        loop {
            let remaining = match deadline.checked_duration_since(Instant::now()) {
                Some(d) if !d.is_zero() => d,
                _ => {
                    g.waiting -= 1;
                    return Err(ShedReason::QueueTimeout);
                }
            };
            let (guard, _timeout) = self
                .freed
                .wait_timeout(g, remaining)
                .unwrap_or_else(PoisonError::into_inner);
            g = guard;
            if g.inflight < self.max_inflight {
                g.waiting -= 1;
                g.inflight += 1;
                return Ok(Slot {
                    admission: self.clone(),
                    waited: true,
                });
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicUsize, Ordering::SeqCst};

    #[test]
    fn grants_up_to_capacity_then_sheds_under_shed_policy() {
        let adm = Admission::new(2, 0, Duration::from_millis(10), AdmissionPolicy::Shed);
        let a = adm.admit().unwrap();
        let b = adm.admit().unwrap();
        assert_eq!(adm.inflight(), 2);
        assert_eq!(adm.admit().unwrap_err(), ShedReason::Busy);
        drop(a);
        let c = adm.admit().unwrap();
        assert!(!c.waited);
        drop(b);
        drop(c);
        assert_eq!(adm.inflight(), 0);
    }

    #[test]
    fn queue_policy_waits_for_a_freed_slot() {
        let adm = Admission::new(1, 4, Duration::from_secs(5), AdmissionPolicy::Queue);
        let slot = adm.admit().unwrap();
        let waited = Arc::new(AtomicUsize::new(0));
        let t = {
            let adm = adm.clone();
            let waited = waited.clone();
            std::thread::spawn(move || {
                let s = adm.admit().unwrap();
                waited.store(usize::from(s.waited) + 1, SeqCst);
                drop(s);
            })
        };
        // Give the waiter time to park, then free the slot.
        while adm.waiting() == 0 {
            std::thread::yield_now();
        }
        drop(slot);
        t.join().unwrap();
        assert_eq!(
            waited.load(SeqCst),
            2,
            "the waiter was granted after queueing"
        );
        assert_eq!(adm.inflight(), 0);
        assert_eq!(adm.waiting(), 0);
    }

    #[test]
    fn queue_overflow_and_timeout_shed_with_distinct_reasons() {
        let adm = Admission::new(1, 1, Duration::from_millis(30), AdmissionPolicy::Queue);
        let _slot = adm.admit().unwrap();
        // One waiter fills the queue.
        let t = {
            let adm = adm.clone();
            std::thread::spawn(move || adm.admit().map(|_| ()).unwrap_err())
        };
        while adm.waiting() == 0 {
            std::thread::yield_now();
        }
        // The queue is full: an immediate arrival sheds without waiting.
        assert_eq!(adm.admit().unwrap_err(), ShedReason::QueueFull);
        // The parked waiter eventually times out (the slot is never freed).
        assert_eq!(t.join().unwrap(), ShedReason::QueueTimeout);
        assert_eq!(adm.waiting(), 0);
    }

    #[test]
    fn try_admit_never_blocks_and_mirrors_admit() {
        let adm = Admission::new(1, 1, Duration::from_secs(5), AdmissionPolicy::Queue);
        let a = match adm.try_admit() {
            TryAdmit::Admitted(slot) => slot,
            other => panic!("free slot must admit, got {other:?}"),
        };
        // Slots busy, queue empty → the ambiguous case defers.
        assert!(matches!(adm.try_admit(), TryAdmit::WouldQueue));
        // Fill the queue with a real waiter; try_admit now sheds.
        let t = {
            let adm = adm.clone();
            std::thread::spawn(move || adm.admit().map(|_| ()))
        };
        while adm.waiting() == 0 {
            std::thread::yield_now();
        }
        assert!(matches!(
            adm.try_admit(),
            TryAdmit::Shed(ShedReason::QueueFull)
        ));
        drop(a);
        t.join().unwrap().unwrap();

        let shed = Admission::new(1, 0, Duration::from_millis(10), AdmissionPolicy::Shed);
        let _s = shed.admit().unwrap();
        assert!(matches!(shed.try_admit(), TryAdmit::Shed(ShedReason::Busy)));
    }

    #[test]
    fn slot_frees_on_panic() {
        let adm = Admission::new(1, 0, Duration::from_millis(10), AdmissionPolicy::Shed);
        let r = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            let _slot = adm.admit().unwrap();
            panic!("boom");
        }));
        assert!(r.is_err());
        assert_eq!(adm.inflight(), 0, "the slot was released by unwinding");
        drop(adm.admit().unwrap());
    }
}
