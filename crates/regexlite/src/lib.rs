//! `regexlite` — a small POSIX Extended Regular Expression engine.
//!
//! This crate stands in for the `REGEXP_LIKE` function of a commercial
//! RDBMS (the paper uses Oracle 10g's, which follows POSIX ERE syntax and
//! semantics). The PPF translator compiles XPath path fragments into ERE
//! patterns such as `^/A/B(/[^/]+)*/F$` and the SQL executor evaluates them
//! against root-to-node path strings.
//!
//! Matching runs on a lazy DFA determinized on demand from a Thompson
//! NFA — `O(bytes)` per match once the touched states are built — with a
//! transparent fallback to a Pike VM (worst case `O(pattern × input)`,
//! no catastrophic backtracking) when a pathological pattern exhausts the
//! DFA state budget. [`Regex::is_match_pike`] skips the DFA; it is the
//! reference the DFA is tested against.
//!
//! # Example
//! ```
//! use regexlite::Regex;
//! let re = Regex::new("^/site(/[^/]+)*/keyword$").unwrap();
//! assert!(re.is_match("/site/regions/africa/item/description/keyword"));
//! assert!(!re.is_match("/site/keywordx"));
//! ```

pub mod ast;
pub mod dfa;
pub mod nfa;
pub mod parser;
pub mod stats;

use std::sync::{Mutex, MutexGuard, RwLock, RwLockReadGuard, RwLockWriteGuard};

pub use ast::Ast;
pub use parser::ParseError;
pub use stats::VmStats;

/// Errors from [`Regex::new`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Error {
    /// Syntax error in the pattern.
    Parse(parser::ParseError),
    /// Pattern compiled to an unreasonably large program.
    Compile(nfa::CompileError),
}

impl std::fmt::Display for Error {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Error::Parse(e) => e.fmt(f),
            Error::Compile(e) => e.fmt(f),
        }
    }
}

impl std::error::Error for Error {}

/// A compiled regular expression.
///
/// Reusable across many inputs; the per-match scratch space is pooled
/// internally so repeated [`Regex::is_match`] calls do not allocate.
///
/// `Regex` is `Send + Sync`: a translated SQL statement holds each
/// compiled filter behind an `Arc`, and every query that runs the cached
/// statement, on any thread, matches through it. The hot path takes the
/// DFA's read lock and walks already-built states; only a walk that
/// reaches an unbuilt transition upgrades to the write lock to extend the
/// machine, so a warm DFA serves all threads concurrently.
#[derive(Debug)]
pub struct Regex {
    pattern: String,
    program: nfa::Program,
    /// Pike-VM scratch pool: each concurrent fallback match pops one
    /// (or allocates), then returns it.
    vm: Mutex<Vec<nfa::Vm>>,
    dfa: RwLock<dfa::LazyDfa>,
}

impl Regex {
    /// Compile a POSIX ERE pattern.
    pub fn new(pattern: &str) -> Result<Regex, Error> {
        Regex::with_dfa_budget(pattern, dfa::DEFAULT_STATE_BUDGET)
    }

    /// Compile with an explicit lazy-DFA state budget. Matches that would
    /// determinize past `budget` states fall back to the Pike VM; tests
    /// use tiny budgets to exercise that path.
    pub fn with_dfa_budget(pattern: &str, budget: usize) -> Result<Regex, Error> {
        let ast = parser::parse(pattern).map_err(Error::Parse)?;
        let program = nfa::compile(&ast).map_err(Error::Compile)?;
        stats::record_compile();
        let dfa = dfa::LazyDfa::with_budget(&program, budget);
        Ok(Regex {
            pattern: pattern.to_string(),
            program,
            vm: Mutex::new(Vec::new()),
            dfa: RwLock::new(dfa),
        })
    }

    /// The original pattern string.
    pub fn as_str(&self) -> &str {
        &self.pattern
    }

    /// Whether the pattern matches anywhere in `input` (unanchored search).
    pub fn is_match(&self, input: &str) -> bool {
        self.is_match_bytes(input.as_bytes())
    }

    /// Byte-level matching (root-to-node paths are ASCII, but any UTF-8
    /// passes through since class matching is per byte).
    pub fn is_match_bytes(&self, input: &[u8]) -> bool {
        // Fast path: walk already-built states under the shared lock.
        let frozen = self.dfa_read().try_match_frozen(&self.program, input);
        match frozen {
            Some(matched) => {
                stats::record_dfa_match();
                return matched;
            }
            // The walk needs a state or transition that doesn't exist
            // yet — take the exclusive lock and build as we go.
            None => match self.dfa_write().try_match(&self.program, input) {
                Some(matched) => {
                    stats::record_dfa_match();
                    return matched;
                }
                None => stats::record_dfa_fallback(),
            },
        }
        self.pike_match(input)
    }

    /// [`Regex::is_match`] on the Pike VM alone, never the lazy DFA (the
    /// pre-DFA behaviour, the reference `dfa_equiv.rs` compares against).
    pub fn is_match_pike(&self, input: &str) -> bool {
        self.pike_match(input.as_bytes())
    }

    fn pike_match(&self, input: &[u8]) -> bool {
        let mut vm = self.vm_pool().pop().unwrap_or_default();
        let matched = vm.is_match(&self.program, input);
        self.vm_pool().push(vm);
        matched
    }

    /// Lock the Pike-VM scratch pool, recovering from poisoning. The pool
    /// is a plain `Vec` of self-contained scratch buffers — valid at every
    /// instruction boundary — so a panic elsewhere while the lock was held
    /// cannot have left it inconsistent.
    fn vm_pool(&self) -> MutexGuard<'_, Vec<nfa::Vm>> {
        self.vm.lock().unwrap_or_else(|poisoned| {
            self.vm.clear_poison();
            stats::record_poison_recovery();
            poisoned.into_inner()
        })
    }

    /// Acquire the DFA read lock, rebuilding the machine first if a panic
    /// poisoned it (a panic mid-determinization can leave half-built
    /// states, so unlike the VM pool the state is *not* trustworthy).
    fn dfa_read(&self) -> RwLockReadGuard<'_, dfa::LazyDfa> {
        if self.dfa.is_poisoned() {
            self.recover_dfa();
        }
        self.dfa.read().unwrap_or_else(|p| p.into_inner())
    }

    /// Acquire the DFA write lock, rebuilding after poisoning (see
    /// [`Regex::dfa_read`]).
    fn dfa_write(&self) -> RwLockWriteGuard<'_, dfa::LazyDfa> {
        if self.dfa.is_poisoned() {
            self.recover_dfa();
        }
        self.dfa.write().unwrap_or_else(|p| p.into_inner())
    }

    /// Replace a poisoned lazy DFA with a fresh one (same budget) and
    /// clear the poison flag. Racing recoverers are harmless: the second
    /// sees the flag already cleared and swaps in another empty machine at
    /// worst (the DFA is a cache; it re-determinizes on demand).
    fn recover_dfa(&self) {
        let mut guard = self.dfa.write().unwrap_or_else(|p| p.into_inner());
        if self.dfa.is_poisoned() {
            *guard = dfa::LazyDfa::with_budget(&self.program, guard.budget());
            self.dfa.clear_poison();
            stats::record_poison_recovery();
        }
    }
}

impl Clone for Regex {
    fn clone(&self) -> Self {
        Regex {
            pattern: self.pattern.clone(),
            program: self.program.clone(),
            vm: Mutex::new(Vec::new()),
            dfa: RwLock::new(dfa::LazyDfa::with_budget(
                &self.program,
                self.dfa_read().budget(),
            )),
        }
    }
}

/// Escape a literal string so it matches itself inside an ERE.
///
/// Used when turning XPath name tests into path-filter patterns, in case an
/// element name contains regex metacharacters (legal in XML names: `.` `-`).
pub fn escape(literal: &str) -> String {
    let mut out = String::with_capacity(literal.len());
    for ch in literal.chars() {
        if matches!(
            ch,
            '.' | '*' | '+' | '?' | '(' | ')' | '[' | ']' | '{' | '}' | '|' | '^' | '$' | '\\'
        ) {
            out.push('\\');
        }
        out.push(ch);
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn escape_metachars() {
        assert_eq!(escape("a.b"), "a\\.b");
        assert_eq!(escape("x"), "x");
        let re = Regex::new(&format!("^{}$", escape("a.b+c"))).unwrap();
        assert!(re.is_match("a.b+c"));
        assert!(!re.is_match("axbbc"));
    }

    #[test]
    fn regex_is_reusable() {
        let re = Regex::new("^/a(/b)*$").unwrap();
        for _ in 0..3 {
            assert!(re.is_match("/a/b/b"));
            assert!(!re.is_match("/a/c"));
        }
    }

    #[test]
    fn clone_preserves_behaviour() {
        let re = Regex::new("ab|cd").unwrap();
        let re2 = re.clone();
        assert_eq!(re.is_match("abx"), re2.is_match("abx"));
        assert_eq!(re.is_match("xcd"), re2.is_match("xcd"));
        assert_eq!(re.is_match("zz"), re2.is_match("zz"));
    }

    #[test]
    fn vm_counters_accumulate() {
        // Counters are process-wide and other tests run concurrently, so
        // only assert on the delta's lower bounds.
        let before = stats::snapshot();
        let re = Regex::new("^/a(/[^/]+)*/b$").unwrap();
        assert!(re.is_match("/a/x/y/b"));
        assert!(!re.is_match("/a/x"));
        let d = stats::snapshot().since(&before);
        assert!(d.match_calls >= 2, "{d:?}");
        assert!(d.compiles >= 1, "{d:?}");
        // Work lands on whichever engine answered: DFA transitions when
        // the lazy DFA is on, Pike-VM steps otherwise.
        assert!(
            d.vm_steps + d.dfa_trans_hits + d.dfa_trans_misses > 0,
            "{d:?}"
        );
    }

    #[test]
    fn dfa_fallback_still_answers_correctly() {
        let re = Regex::with_dfa_budget("^/a(/[^/]+)*/b$", 1).unwrap();
        let before = stats::snapshot();
        assert!(re.is_match("/a/x/b"));
        assert!(!re.is_match("/a/x"));
        let d = stats::snapshot().since(&before);
        assert!(d.dfa_fallbacks >= 2, "{d:?}");
        assert!(d.vm_steps > 0, "{d:?}");
    }

    #[test]
    fn error_display() {
        let err = Regex::new("(a").unwrap_err();
        assert!(err.to_string().contains("parse error"));
    }

    #[test]
    fn regex_is_send_and_sync() {
        fn assert_send_sync<T: Send + Sync>() {}
        assert_send_sync::<Regex>();
    }

    #[test]
    fn concurrent_matching_agrees_with_serial() {
        let re = std::sync::Arc::new(Regex::new("^/site(/[^/]+)*/keyword$").unwrap());
        let inputs: Vec<String> = (0..400)
            .map(|i| {
                if i % 3 == 0 {
                    format!("/site/regions/r{i}/item/keyword")
                } else {
                    format!("/site/regions/r{i}/item/name")
                }
            })
            .collect();
        let serial: Vec<bool> = inputs.iter().map(|s| re.is_match(s)).collect();
        let inputs = std::sync::Arc::new(inputs);
        let handles: Vec<_> = (0..4)
            .map(|_| {
                let re = re.clone();
                let inputs = inputs.clone();
                std::thread::spawn(move || {
                    inputs.iter().map(|s| re.is_match(s)).collect::<Vec<bool>>()
                })
            })
            .collect();
        for h in handles {
            assert_eq!(h.join().unwrap(), serial);
        }
    }

    #[test]
    fn poisoned_dfa_lock_recovers_and_matching_still_works() {
        let re = std::sync::Arc::new(Regex::new("^/a(/[^/]+)*/b$").unwrap());
        assert!(re.is_match("/a/x/b"));
        // Poison the DFA write lock by panicking while holding it.
        {
            let re = re.clone();
            let _ = std::thread::spawn(move || {
                let _guard = re.dfa.write().unwrap();
                panic!("poison the dfa lock");
            })
            .join();
        }
        assert!(re.dfa.is_poisoned());
        let before = stats::poison_recoveries();
        // Matching recovers: the DFA is rebuilt and answers stay correct.
        assert!(re.is_match("/a/x/y/b"));
        assert!(!re.is_match("/a/x"));
        assert!(!re.dfa.is_poisoned());
        assert!(stats::poison_recoveries() > before);
    }

    #[test]
    fn poisoned_vm_pool_recovers() {
        let re = std::sync::Arc::new(Regex::with_dfa_budget("^/a(/[^/]+)*/b$", 1).unwrap());
        {
            let re = re.clone();
            let _ = std::thread::spawn(move || {
                let _guard = re.vm.lock().unwrap();
                panic!("poison the vm pool");
            })
            .join();
        }
        // Budget 1 forces the Pike-VM path, which needs the pool lock.
        assert!(re.is_match("/a/x/b"));
        assert!(!re.is_match("/a/x"));
    }

    #[test]
    fn concurrent_matching_on_cold_dfa_with_tiny_budget() {
        // Every thread races to build states and some matches exhaust the
        // budget and fall back to the pooled Pike VMs; answers must still
        // all be correct.
        let re = std::sync::Arc::new(Regex::with_dfa_budget("^/a(/[^/]+)*/b$", 4).unwrap());
        let handles: Vec<_> = (0..4)
            .map(|_| {
                let re = re.clone();
                std::thread::spawn(move || {
                    for i in 0..200 {
                        assert!(re.is_match(&format!("/a/x{i}/b")));
                        assert!(!re.is_match(&format!("/a/x{i}")));
                    }
                })
            })
            .collect();
        for h in handles {
            h.join().unwrap();
        }
    }
}
