//! Compile-time-off fault injection.
//!
//! With the `chaos` feature enabled, a [`FaultPlan`] — installed at
//! startup (`ppfd --chaos SPEC`) or at runtime (the `chaos` protocol
//! verb) — makes the server misbehave on purpose, with the configured
//! probabilities, so `ppf-stress` can prove the robustness machinery
//! holds: injected panics stay contained, slow queries trip admission
//! control and deadlines, and dropped connections never wedge the
//! daemon.
//!
//! Without the feature (the default, and every release build) the whole
//! module collapses: [`ChaosState`] is a zero-sized type and
//! [`ChaosState::next_query_fault`] is a `const`-foldable `Fault::None`,
//! so the serving path carries zero chaos overhead.
//!
//! # Spec grammar
//!
//! Space-separated `kind=arg` tokens; probabilities in `[0,1]`:
//!
//! ```text
//! panic=P            with probability P, panic inside the query worker
//! slow=P:MS          with probability P, sleep MS ms holding the
//!                    admission slot before executing
//! drop=P[:PHASE]     with probability P, sever the connection; PHASE is
//!                    pre (before executing), post (after executing,
//!                    before the response), or mid (inside the response
//!                    frame); omitted = rotate through all three
//! seed=N             RNG seed (deterministic runs)
//! reload_fault=K:P[:MS]  with probability P, sabotage a reload attempt;
//!                    K is panic (panic mid-shred inside the builder),
//!                    io (fail the build with an injected I/O error), or
//!                    slow (sleep MS ms inside the builder, stretching
//!                    the staging window that queries must not notice).
//!                    Repeat the token to arm several kinds at once.
//! off                clear the plan
//! ```
//!
//! Query faults and reload faults draw from independent streams: a
//! reload-only spec (`reload_fault=...` + `seed=N`) injects zero query
//! faults, which is what lets `ppf-stress --reload-storm` assert a
//! zero query-error budget while reloads are failing on purpose.

use std::time::Duration;

/// Where a `drop` fault severs the connection.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DropPhase {
    /// After the request was read and admitted, before executing.
    PreExec,
    /// After executing, before any response byte.
    PreWrite,
    /// After writing a deliberately truncated response frame.
    MidWrite,
}

impl DropPhase {
    pub fn as_str(self) -> &'static str {
        match self {
            DropPhase::PreExec => "pre",
            DropPhase::PreWrite => "post",
            DropPhase::MidWrite => "mid",
        }
    }
}

/// The fault chosen for one request. At most one fires per request, so
/// the injected counts reconcile 1:1 with observed effects.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Fault {
    None,
    /// Panic inside the server's query worker mid-request.
    Panic,
    /// Sleep this long while holding the admission slot.
    Slow(Duration),
    /// Sever the connection at the given phase.
    Drop(DropPhase),
}

impl Fault {
    /// The fault's stable counter (`server.faults.<label>`).
    pub fn metric_name(self) -> &'static str {
        match self {
            Fault::None => "server.faults.none",
            Fault::Panic => "server.faults.panic",
            Fault::Slow(_) => "server.faults.slow",
            Fault::Drop(_) => "server.faults.drop",
        }
    }
}

/// The fault chosen for one reload attempt. Injected *inside* the
/// snapshot builder, so a fired fault exercises the real containment
/// path (`SharedEngine::reload_with`'s catch_unwind and error mapping),
/// not a shortcut around it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ReloadFault {
    None,
    /// Panic mid-build; must surface as a typed `ReloadError::Panic`.
    Panic,
    /// Fail the build with an injected I/O error (`ReloadError::Io`).
    Io,
    /// Sleep inside the builder, stretching the staging window.
    Slow(Duration),
}

impl ReloadFault {
    /// The fault's stable counter (`server.faults.reload_<label>`).
    pub fn metric_name(self) -> &'static str {
        match self {
            ReloadFault::None => "server.faults.none",
            ReloadFault::Panic => "server.faults.reload_panic",
            ReloadFault::Io => "server.faults.reload_io",
            ReloadFault::Slow(_) => "server.faults.reload_slow",
        }
    }
}

#[cfg(feature = "chaos")]
pub use chaos_impl::{ChaosState, FaultPlan};

#[cfg(feature = "chaos")]
mod chaos_impl {
    use super::{DropPhase, Fault, ReloadFault};
    use crate::lock;
    use std::sync::Mutex;
    use std::time::Duration;

    /// Parsed fault probabilities (see the module doc for the grammar).
    #[derive(Debug, Clone, Default, PartialEq)]
    pub struct FaultPlan {
        pub panic_p: f64,
        pub slow_p: f64,
        pub slow_ms: u64,
        pub drop_p: f64,
        /// `None` = rotate pre → post → mid.
        pub drop_phase: Option<DropPhase>,
        pub seed: u64,
        /// Load-path faults (`reload_fault=K:P[:MS]` tokens).
        pub reload_panic_p: f64,
        pub reload_io_p: f64,
        pub reload_slow_p: f64,
        pub reload_slow_ms: u64,
    }

    impl FaultPlan {
        pub fn parse(spec: &str) -> Result<FaultPlan, String> {
            let mut plan = FaultPlan {
                seed: 0x9E37_79B9_7F4A_7C15,
                ..FaultPlan::default()
            };
            for token in spec.split_whitespace() {
                if token == "off" {
                    return Ok(FaultPlan::default());
                }
                let (key, val) = token
                    .split_once('=')
                    .ok_or_else(|| format!("malformed chaos token {token:?}"))?;
                match key {
                    "panic" => plan.panic_p = parse_prob(val)?,
                    "slow" => {
                        let (p, ms) = val
                            .split_once(':')
                            .ok_or_else(|| format!("slow wants P:MS, got {val:?}"))?;
                        plan.slow_p = parse_prob(p)?;
                        plan.slow_ms = ms.parse().map_err(|_| format!("bad slow millis {ms:?}"))?;
                    }
                    "drop" => match val.split_once(':') {
                        Some((p, phase)) => {
                            plan.drop_p = parse_prob(p)?;
                            plan.drop_phase = Some(match phase {
                                "pre" => DropPhase::PreExec,
                                "post" => DropPhase::PreWrite,
                                "mid" => DropPhase::MidWrite,
                                other => return Err(format!("bad drop phase {other:?}")),
                            });
                        }
                        None => plan.drop_p = parse_prob(val)?,
                    },
                    "seed" => plan.seed = val.parse().map_err(|_| format!("bad seed {val:?}"))?,
                    "reload_fault" => {
                        let mut it = val.splitn(3, ':');
                        let kind = it.next().unwrap_or_default();
                        let p = parse_prob(
                            it.next()
                                .ok_or_else(|| format!("reload_fault wants K:P, got {val:?}"))?,
                        )?;
                        match (kind, it.next()) {
                            ("panic", None) => plan.reload_panic_p = p,
                            ("io", None) => plan.reload_io_p = p,
                            ("slow", Some(ms)) => {
                                plan.reload_slow_p = p;
                                plan.reload_slow_ms = ms
                                    .parse()
                                    .map_err(|_| format!("bad reload slow millis {ms:?}"))?;
                            }
                            ("slow", None) => {
                                return Err("reload_fault=slow wants slow:P:MS".to_string())
                            }
                            (other, _) => return Err(format!("bad reload_fault kind {other:?}")),
                        }
                    }
                    other => return Err(format!("unknown chaos key {other:?}")),
                }
            }
            Ok(plan)
        }

        fn is_off(&self) -> bool {
            self.panic_p == 0.0
                && self.slow_p == 0.0
                && self.drop_p == 0.0
                && self.reload_panic_p == 0.0
                && self.reload_io_p == 0.0
                && self.reload_slow_p == 0.0
        }

        /// Whether this plan injects only load-path faults (the
        /// reload-storm contract: queries must see zero chaos).
        pub fn is_reload_only(&self) -> bool {
            !self.is_off() && self.panic_p == 0.0 && self.slow_p == 0.0 && self.drop_p == 0.0
        }
    }

    fn parse_prob(s: &str) -> Result<f64, String> {
        let p: f64 = s.parse().map_err(|_| format!("bad probability {s:?}"))?;
        if (0.0..=1.0).contains(&p) {
            Ok(p)
        } else {
            Err(format!("probability {p} outside [0,1]"))
        }
    }

    struct Rng(u64);

    impl Rng {
        /// xorshift64*; plenty for fault sampling.
        fn next_f64(&mut self) -> f64 {
            self.0 ^= self.0 << 13;
            self.0 ^= self.0 >> 7;
            self.0 ^= self.0 << 17;
            (self.0.wrapping_mul(0x2545_F491_4F6C_DD1D) >> 11) as f64 / (1u64 << 53) as f64
        }
    }

    struct Active {
        plan: FaultPlan,
        rng: Rng,
        /// Rotation cursor for phase-less `drop`.
        drop_cursor: usize,
    }

    /// Server-wide chaos switchboard (chaos builds).
    #[derive(Default)]
    pub struct ChaosState {
        active: Mutex<Option<Active>>,
    }

    impl ChaosState {
        pub fn new() -> ChaosState {
            ChaosState::default()
        }

        /// Install (or with `off`, clear) a plan. Returns a confirmation
        /// line for the `chaos` response body.
        pub fn install(&self, spec: &str) -> Result<String, String> {
            let plan = FaultPlan::parse(spec)?;
            let mut slot = lock(&self.active);
            if plan.is_off() {
                *slot = None;
                return Ok("chaos off".to_string());
            }
            let summary = format!(
                "chaos on: panic={} slow={}:{}ms drop={}{} reload_panic={} reload_io={} reload_slow={}:{}ms seed={}",
                plan.panic_p,
                plan.slow_p,
                plan.slow_ms,
                plan.drop_p,
                plan.drop_phase
                    .map(|p| format!(":{}", p.as_str()))
                    .unwrap_or_default(),
                plan.reload_panic_p,
                plan.reload_io_p,
                plan.reload_slow_p,
                plan.reload_slow_ms,
                plan.seed
            );
            let seed = plan.seed;
            *slot = Some(Active {
                plan,
                rng: Rng(seed | 1),
                drop_cursor: 0,
            });
            Ok(summary)
        }

        /// Decide the fault for one query-class request. First match in
        /// drop → panic → slow order wins (at most one fault per
        /// request, for reconcilable counts).
        pub fn next_query_fault(&self) -> Fault {
            let mut slot = lock(&self.active);
            let Some(active) = slot.as_mut() else {
                return Fault::None;
            };
            let roll = active.rng.next_f64();
            let p = &active.plan;
            if roll < p.drop_p {
                let phase = p.drop_phase.unwrap_or_else(|| {
                    let phases = [DropPhase::PreExec, DropPhase::PreWrite, DropPhase::MidWrite];
                    let ph = phases[active.drop_cursor % phases.len()];
                    active.drop_cursor += 1;
                    ph
                });
                return Fault::Drop(phase);
            }
            if roll < p.drop_p + p.panic_p {
                return Fault::Panic;
            }
            if roll < p.drop_p + p.panic_p + p.slow_p {
                return Fault::Slow(Duration::from_millis(p.slow_ms));
            }
            Fault::None
        }

        /// Decide the fault for one reload attempt. Same first-match
        /// discipline as [`ChaosState::next_query_fault`] — at most one
        /// fault per attempt, panic → io → slow order — drawn from the
        /// same RNG stream but gated on reload-only probabilities, so a
        /// reload-only plan never touches the query path.
        pub fn next_reload_fault(&self) -> ReloadFault {
            let mut slot = lock(&self.active);
            let Some(active) = slot.as_mut() else {
                return ReloadFault::None;
            };
            let roll = active.rng.next_f64();
            let p = &active.plan;
            if roll < p.reload_panic_p {
                return ReloadFault::Panic;
            }
            if roll < p.reload_panic_p + p.reload_io_p {
                return ReloadFault::Io;
            }
            if roll < p.reload_panic_p + p.reload_io_p + p.reload_slow_p {
                return ReloadFault::Slow(Duration::from_millis(p.reload_slow_ms));
            }
            ReloadFault::None
        }
    }

    #[cfg(test)]
    mod tests {
        use super::*;

        #[test]
        fn parses_full_spec() {
            let p = FaultPlan::parse("panic=0.1 slow=0.25:40 drop=0.2:mid seed=7").unwrap();
            assert_eq!(p.panic_p, 0.1);
            assert_eq!(p.slow_p, 0.25);
            assert_eq!(p.slow_ms, 40);
            assert_eq!(p.drop_p, 0.2);
            assert_eq!(p.drop_phase, Some(DropPhase::MidWrite));
            assert_eq!(p.seed, 7);
        }

        #[test]
        fn rejects_bad_specs() {
            assert!(FaultPlan::parse("panic=2").is_err());
            assert!(FaultPlan::parse("slow=0.5").is_err());
            assert!(FaultPlan::parse("drop=0.5:sideways").is_err());
            assert!(FaultPlan::parse("frob=1").is_err());
            assert!(FaultPlan::parse("poison=0.1").is_err());
        }

        #[test]
        fn fault_mix_matches_probabilities_roughly() {
            let chaos = ChaosState::new();
            chaos
                .install("panic=0.2 slow=0.3:1 drop=0.1 seed=42")
                .unwrap();
            let mut counts = [0u32; 4]; // none, panic, slow, drop
            for _ in 0..10_000 {
                match chaos.next_query_fault() {
                    Fault::None => counts[0] += 1,
                    Fault::Panic => counts[1] += 1,
                    Fault::Slow(_) => counts[2] += 1,
                    Fault::Drop(_) => counts[3] += 1,
                }
            }
            assert!((1500..2500).contains(&counts[1]), "panic ~20%: {counts:?}");
            assert!((2500..3500).contains(&counts[2]), "slow ~30%: {counts:?}");
            assert!((500..1500).contains(&counts[3]), "drop ~10%: {counts:?}");
        }

        #[test]
        fn parses_reload_fault_tokens() {
            let p = FaultPlan::parse(
                "reload_fault=panic:0.3 reload_fault=io:0.2 reload_fault=slow:0.1:50 seed=9",
            )
            .unwrap();
            assert_eq!(p.reload_panic_p, 0.3);
            assert_eq!(p.reload_io_p, 0.2);
            assert_eq!(p.reload_slow_p, 0.1);
            assert_eq!(p.reload_slow_ms, 50);
            assert!(p.is_reload_only());
            assert!(!FaultPlan::parse("panic=0.1 reload_fault=io:0.2")
                .unwrap()
                .is_reload_only());

            assert!(FaultPlan::parse("reload_fault=panic").is_err());
            assert!(FaultPlan::parse("reload_fault=slow:0.5").is_err());
            assert!(FaultPlan::parse("reload_fault=eat:0.5").is_err());
            assert!(FaultPlan::parse("reload_fault=io:7").is_err());
        }

        #[test]
        fn reload_only_plan_never_faults_queries() {
            let chaos = ChaosState::new();
            chaos
                .install("reload_fault=panic:0.5 reload_fault=io:0.5 seed=11")
                .unwrap();
            let mut reload_hits = 0;
            for _ in 0..1000 {
                assert_eq!(chaos.next_query_fault(), Fault::None);
                match chaos.next_reload_fault() {
                    ReloadFault::Panic | ReloadFault::Io => reload_hits += 1,
                    ReloadFault::None | ReloadFault::Slow(_) => {
                        panic!("p(panic)+p(io)=1: every attempt must fault")
                    }
                }
            }
            assert_eq!(reload_hits, 1000);
        }

        #[test]
        fn off_clears_the_plan() {
            let chaos = ChaosState::new();
            chaos.install("panic=1").unwrap();
            assert_eq!(chaos.next_query_fault(), Fault::Panic);
            assert_eq!(chaos.install("off").unwrap(), "chaos off");
            assert_eq!(chaos.next_query_fault(), Fault::None);
        }

        #[test]
        fn phaseless_drop_rotates_phases() {
            let chaos = ChaosState::new();
            chaos.install("drop=1 seed=3").unwrap();
            let mut seen = Vec::new();
            for _ in 0..3 {
                match chaos.next_query_fault() {
                    Fault::Drop(p) => seen.push(p),
                    other => panic!("expected drop, got {other:?}"),
                }
            }
            assert_eq!(
                seen,
                vec![DropPhase::PreExec, DropPhase::PreWrite, DropPhase::MidWrite]
            );
        }
    }
}

#[cfg(not(feature = "chaos"))]
mod no_chaos_impl {
    use super::{Fault, ReloadFault};

    /// Zero-sized stand-in: release builds carry no chaos state and the
    /// fault decision constant-folds away.
    #[derive(Default)]
    pub struct ChaosState;

    impl ChaosState {
        pub fn new() -> ChaosState {
            ChaosState
        }

        pub fn install(&self, _spec: &str) -> Result<String, String> {
            Err("this build has no fault injection (rebuild with --features chaos)".to_string())
        }

        #[inline(always)]
        pub fn next_query_fault(&self) -> Fault {
            Fault::None
        }

        #[inline(always)]
        pub fn next_reload_fault(&self) -> ReloadFault {
            ReloadFault::None
        }
    }
}

#[cfg(not(feature = "chaos"))]
pub use no_chaos_impl::ChaosState;
