//! `ppf-server` — a fault-tolerant network front end for the PPF engine.
//!
//! Serves one [`ppf_core::SharedEngine`] to N TCP connections over a
//! length-prefixed line protocol ([`proto`]), with the robustness
//! machinery a long-lived daemon needs:
//!
//! * **Admission control** ([`admission`]): a bounded in-flight gauge
//!   whose wait queue feeds a fixed set of query workers, with a
//!   queue-or-shed policy and a per-connection concurrent-query cap;
//!   rejected requests carry a typed `[overload]` error that clients
//!   back off from.
//! * **Resource bounds**: per-query deadlines wired into
//!   [`ppf_core::QueryLimits`], bounded per-connection outbound
//!   buffers, and idle-connection reaping.
//! * **Graceful drain** (`shutdown` verb or SIGTERM in `ppfd`): stop
//!   accepting, let in-flight queries finish within a grace period,
//!   cancel stragglers through their [`ppf_core::CancelToken`]s, flush
//!   counters.
//! * **Fault injection** ([`fault`], compile-time gated behind the
//!   `chaos` feature): injected panics, artificial slow queries,
//!   connection drops at chosen protocol phases, and reload faults,
//!   driven by the bundled `ppf-stress` client.
//!
//! Server-side counters land in the process-wide [`obs::Registry`]
//! (`server.accepted`, `server.shed`, `server.drained`, …) next to the
//! engine's own, and the `stats` verb snapshots them over the wire.

pub mod admission;
pub mod client;
mod event_loop;
pub mod fault;
mod frame;
pub mod poller;
pub mod proto;
pub mod server;

pub use admission::{Admission, AdmissionPolicy, ShedReason};
pub use client::Client;
pub use fault::{ChaosState, DropPhase, Fault, ReloadFault};
pub use proto::{ErrorKind, Request, Response, Verb};
pub use server::{serve, serve_with_reload, ReloadFn, ServerConfig, ServerHandle};

/// Lock a mutex, recovering the guard if a previous holder panicked.
///
/// Recovery is safe for every mutex in this crate because each guards
/// plain bookkeeping — counts, queues, a byte buffer with its cursor, an
/// id→token map, an `Option` plan — that is valid after every individual
/// statement of every critical section: no holder leaves a half-applied
/// update for a panic to expose. Refusing the lock instead would turn one
/// contained query panic into a wedged server.
pub(crate) fn lock<T>(m: &std::sync::Mutex<T>) -> std::sync::MutexGuard<'_, T> {
    m.lock().unwrap_or_else(std::sync::PoisonError::into_inner)
}
