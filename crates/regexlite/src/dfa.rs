//! Lazy DFA execution over the compiled NFA.
//!
//! The Pike VM costs `O(bytes × live threads)` per match: every byte of
//! every candidate path string is dispatched against up to `|program|`
//! NFA threads. Path filtering runs the *same few patterns* over *many
//! short strings*, which is the textbook case for a lazy
//! (on-the-fly-determinized) DFA: each distinct NFA thread set the Pike VM
//! would ever hold becomes one DFA state, built at most once, and matching
//! then costs one table lookup per byte — `O(bytes)` regardless of pattern
//! complexity.
//!
//! Design notes:
//!
//! * **Byte equivalence classes.** Transition tables are indexed by a
//!   class id, not the raw byte: two bytes that no character class in the
//!   program distinguishes share a column. Path-filter alphabets collapse
//!   from 256 bytes to a handful of classes (`/`, "everything else", and
//!   the few literal letters), keeping states tiny.
//! * **Anchors.** `^`/`$` make the ε-closure position-dependent, so each
//!   DFA state carries two accept flags: `accept` (a match ends at the
//!   current position, no end-of-input required) and `accept_at_end` (a
//!   match completes only if the current position is end-of-input).
//!   Byte instructions reachable only *through* `$` are unreachable —
//!   nothing can be consumed at end-of-input — and are excluded from the
//!   state's thread set.
//! * **Unanchored search.** The Pike VM re-seeds the start state at every
//!   input position; the DFA bakes that in by unioning the start closure
//!   into every transition target (the implicit `.*?` prefix), so one
//!   left-to-right scan still finds matches starting anywhere.
//! * **Bounded state budget.** Determinization is worst-case exponential,
//!   so state construction stops at [`LazyDfa::budget`] states; a match
//!   that would need more falls back — transparently, mid-match work is
//!   discarded — to the Pike VM, which [`crate::Regex`] counts as a
//!   fallback in the caller's [`crate::MatchCounts`].

use std::collections::HashMap;

use crate::nfa::{Inst, Program};

/// Default cap on constructed DFA states per regex. PPF path filters
/// determinize to well under fifty states; the cap only guards
/// adversarial hand-written patterns.
pub const DEFAULT_STATE_BUDGET: usize = 512;

/// "Transition not yet computed" sentinel in the per-state tables.
const UNSET: u32 = u32::MAX;

/// Canonical identity of a DFA state: the sorted set of byte-consuming
/// NFA instructions plus the two accept flags (the flags are *not*
/// derivable from the set alone — two different ε-closures can reach the
/// same byte instructions but differ on whether `Match` was crossed).
type StateKey = (Vec<usize>, bool, bool);

#[derive(Debug)]
struct State {
    /// Sorted byte-consuming NFA instruction pointers.
    set: Vec<usize>,
    /// A match ends at the current position (no end-of-input needed).
    accept: bool,
    /// A match completes if the current position is end-of-input.
    accept_at_end: bool,
    /// Per byte-class next state (`UNSET` until computed).
    trans: Vec<u32>,
}

/// A lazily-constructed DFA over one compiled [`Program`].
///
/// Owns only the memoized state machinery; the program is passed into
/// [`LazyDfa::try_match`] so one `LazyDfa` pairs with exactly one program
/// (the [`crate::Regex`] that owns both enforces this).
#[derive(Debug)]
pub struct LazyDfa {
    /// Byte → equivalence-class id.
    classes: Box<[u8; 256]>,
    /// One representative byte per class, for computing transitions.
    representatives: Vec<u8>,
    states: Vec<State>,
    cache: HashMap<StateKey, u32>,
    /// State id for position 0 (`^` passes), built on first use.
    start: Option<u32>,
    budget: usize,
}

impl LazyDfa {
    /// Create an empty DFA for `prog` with the default state budget.
    pub fn new(prog: &Program) -> LazyDfa {
        LazyDfa::with_budget(prog, DEFAULT_STATE_BUDGET)
    }

    /// Create an empty DFA with an explicit state budget (tests use tiny
    /// budgets to exercise the Pike-VM fallback path).
    pub fn with_budget(prog: &Program, budget: usize) -> LazyDfa {
        let (classes, representatives) = byte_classes(prog);
        LazyDfa {
            classes,
            representatives,
            states: Vec::new(),
            cache: HashMap::new(),
            start: None,
            budget: budget.max(1),
        }
    }

    /// Number of DFA states constructed so far.
    pub fn state_count(&self) -> usize {
        self.states.len()
    }

    /// The configured state budget.
    pub fn budget(&self) -> usize {
        self.budget
    }

    /// Whether the pattern matches anywhere in `input` (same semantics as
    /// [`crate::nfa::Vm::is_match`]). Returns `None` when the state
    /// budget was exhausted — the caller should fall back to the Pike VM.
    pub fn try_match(&mut self, prog: &Program, input: &[u8]) -> Option<bool> {
        let mut cur = match self.start {
            Some(s) => s,
            None => {
                let s = self.intern_closure(prog, &[prog.start], true)?;
                self.start = Some(s);
                s
            }
        };
        if self.states[cur as usize].accept {
            return Some(true);
        }
        for (at, &b) in input.iter().enumerate() {
            let class = self.classes[b as usize] as usize;
            let next = match self.states[cur as usize].trans[class] {
                UNSET => {
                    let n = self.compute_transition(prog, cur, class)?;
                    self.states[cur as usize].trans[class] = n;
                    n
                }
                t => t,
            };
            cur = next;
            let s = &self.states[cur as usize];
            if s.accept {
                return Some(true);
            }
            // Anchored dead state: no live threads and no way to re-seed,
            // so unless this was the final byte (where `accept_at_end`
            // may still fire below) the match has failed.
            if s.set.is_empty() && prog.anchored_start && at + 1 < input.len() {
                return Some(false);
            }
        }
        Some(self.states[cur as usize].accept_at_end)
    }

    /// Read-only matching over the already-built states: never constructs
    /// a state or fills a transition, so many threads can run it under a
    /// shared (read) lock. Returns `None` when the walk reaches a
    /// transition that has not been computed yet — the caller escalates to
    /// an exclusive lock and re-runs with [`LazyDfa::try_match`].
    pub fn try_match_frozen(&self, prog: &Program, input: &[u8]) -> Option<bool> {
        let mut cur = self.start?;
        if self.states[cur as usize].accept {
            return Some(true);
        }
        for (at, &b) in input.iter().enumerate() {
            let class = self.classes[b as usize] as usize;
            let next = self.states[cur as usize].trans[class];
            if next == UNSET {
                return None;
            }
            cur = next;
            let s = &self.states[cur as usize];
            if s.accept {
                return Some(true);
            }
            if s.set.is_empty() && prog.anchored_start && at + 1 < input.len() {
                return Some(false);
            }
        }
        Some(self.states[cur as usize].accept_at_end)
    }

    /// Successor of `state` on `class`: advance every live byte
    /// instruction that matches the class's representative byte, re-seed
    /// the start state for unanchored search, and close over ε-edges.
    fn compute_transition(&mut self, prog: &Program, state: u32, class: usize) -> Option<u32> {
        let rep = self.representatives[class];
        let mut targets: Vec<usize> = Vec::new();
        for &ip in &self.states[state as usize].set {
            match &prog.insts[ip] {
                Inst::Byte { class: c, next } if c.matches(rep) => targets.push(*next),
                Inst::Any { next } => targets.push(*next),
                _ => {}
            }
        }
        if !prog.anchored_start {
            targets.push(prog.start);
        }
        self.intern_closure(prog, &targets, false)
    }

    /// ε-close `seeds` (at a non-start position unless `at_start`) and
    /// return the id of the canonical state, constructing it if new.
    /// `None` when constructing it would exceed the budget.
    fn intern_closure(&mut self, prog: &Program, seeds: &[usize], at_start: bool) -> Option<u32> {
        let (set, accept, accept_at_end) = closure(prog, seeds, at_start);
        let key = (set, accept, accept_at_end);
        if let Some(&id) = self.cache.get(&key) {
            return Some(id);
        }
        if self.states.len() >= self.budget {
            return None;
        }
        let id = self.states.len() as u32;
        let (set, accept, accept_at_end) = key.clone();
        self.states.push(State {
            set,
            accept,
            accept_at_end,
            trans: vec![UNSET; self.representatives.len()],
        });
        self.cache.insert(key, id);
        Some(id)
    }
}

/// ε-closure with position-dependent anchors. Returns the sorted set of
/// reachable byte instructions plus the accept flags. Crossing `$` flips
/// the traversal into "end-of-input only" mode: `Match` reached there
/// sets only `accept_at_end`, and byte instructions there are dropped
/// (nothing can be consumed at end-of-input).
fn closure(prog: &Program, seeds: &[usize], at_start: bool) -> (Vec<usize>, bool, bool) {
    let n = prog.insts.len();
    let mut seen_interior = vec![false; n];
    let mut seen_at_end = vec![false; n];
    let mut set = Vec::new();
    let mut accept = false;
    let mut accept_at_end = false;
    let mut stack: Vec<(usize, bool)> = seeds.iter().map(|&ip| (ip, false)).collect();
    while let Some((ip, end_only)) = stack.pop() {
        let seen = if end_only {
            &mut seen_at_end
        } else {
            &mut seen_interior
        };
        if seen[ip] {
            continue;
        }
        seen[ip] = true;
        match &prog.insts[ip] {
            Inst::Jmp { next } => stack.push((*next, end_only)),
            Inst::Split { a, b } => {
                stack.push((*a, end_only));
                stack.push((*b, end_only));
            }
            Inst::AssertStart { next } => {
                if at_start {
                    stack.push((*next, end_only));
                }
            }
            Inst::AssertEnd { next } => stack.push((*next, true)),
            Inst::Match => {
                if end_only {
                    accept_at_end = true;
                } else {
                    accept = true;
                    accept_at_end = true;
                }
            }
            Inst::Byte { .. } | Inst::Any { .. } => {
                if !end_only {
                    set.push(ip);
                }
            }
        }
    }
    set.sort_unstable();
    set.dedup();
    (set, accept, accept_at_end)
}

/// Partition the byte alphabet into equivalence classes: two bytes share
/// a class iff every character class in the program treats them
/// identically. Class membership changes only at range boundaries, so
/// marking `lo` and `hi + 1` of every range and sweeping once suffices.
fn byte_classes(prog: &Program) -> (Box<[u8; 256]>, Vec<u8>) {
    let mut boundary = [false; 257];
    boundary[0] = true;
    for inst in &prog.insts {
        if let Inst::Byte { class, .. } = inst {
            for r in &class.ranges {
                boundary[r.lo as usize] = true;
                boundary[r.hi as usize + 1] = true;
            }
        }
    }
    let mut classes = Box::new([0u8; 256]);
    let mut representatives = Vec::new();
    let mut current: i32 = -1;
    for b in 0..256usize {
        if boundary[b] {
            current += 1;
            representatives.push(b as u8);
        }
        classes[b] = current as u8;
    }
    (classes, representatives)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::nfa::{compile, Vm};
    use crate::parser::parse;
    use crate::MatchCounts;

    fn both(pat: &str, input: &str) -> (bool, Option<bool>) {
        let prog = compile(&parse(pat).expect("parse")).expect("compile");
        let pike = Vm::new().is_match(&prog, input.as_bytes(), &mut MatchCounts::default());
        let dfa = LazyDfa::new(&prog).try_match(&prog, input.as_bytes());
        (pike, dfa)
    }

    fn assert_agree(pat: &str, input: &str) {
        let (pike, dfa) = both(pat, input);
        assert_eq!(Some(pike), dfa, "pattern {pat:?} input {input:?}");
    }

    #[test]
    fn agrees_on_path_filters() {
        for (pat, inputs) in [
            (
                "^/A/B(/[^/]+)*/F$",
                &["/A/B/F", "/A/B/C/E/F", "/A/C/F", "/A/B/Fx", ""][..],
            ),
            (
                "^(/[^/]+)*/keyword$",
                &["/site/regions/item/keyword", "/keyword", "keyword"][..],
            ),
            ("^/A/B/C/[^/]+/F$", &["/A/B/C/D/F", "/A/B/C/D/E/F"][..]),
        ] {
            for input in inputs {
                assert_agree(pat, input);
            }
        }
    }

    #[test]
    fn agrees_on_anchor_corner_cases() {
        for pat in ["", "^$", "a$", "^a", "a*$", "^a*", "(|a)b", "x^y", "a$b"] {
            for input in ["", "a", "b", "ab", "ba", "aab", "xy", "axyb"] {
                assert_agree(pat, input);
            }
        }
    }

    #[test]
    fn unanchored_search_finds_interior_matches() {
        assert_agree("bc", "abcd");
        assert_agree("bc", "abd");
        assert_agree("b+c", "xxabbbcyy");
    }

    #[test]
    fn tiny_budget_falls_back() {
        let prog = compile(&parse("^/a(/[^/]+)*/b$").expect("parse")).expect("compile");
        let mut dfa = LazyDfa::with_budget(&prog, 1);
        assert_eq!(dfa.try_match(&prog, b"/a/x/b"), None);
        // The Pike VM still answers correctly.
        let mut counts = MatchCounts::default();
        assert!(Vm::new().is_match(&prog, b"/a/x/b", &mut counts));
        assert_eq!(counts.match_calls, 1);
        assert!(counts.vm_steps > 0, "{counts:?}");
    }

    #[test]
    fn states_are_reused_across_matches() {
        let prog = compile(&parse("^/site(/[^/]+)*/item$").expect("parse")).expect("compile");
        let mut dfa = LazyDfa::new(&prog);
        assert_eq!(dfa.try_match(&prog, b"/site/regions/item"), Some(true));
        let after_first = dfa.state_count();
        assert_eq!(dfa.try_match(&prog, b"/site/regions/item"), Some(true));
        assert_eq!(dfa.try_match(&prog, b"/site/x/y/item"), Some(true));
        assert!(
            dfa.state_count() <= after_first + 2,
            "warm matches should build almost no new states"
        );
    }

    #[test]
    fn byte_classes_collapse_path_alphabet() {
        let prog = compile(&parse("^/a(/[^/]+)*/b$").expect("parse")).expect("compile");
        let (_, reps) = byte_classes(&prog);
        // `/`, `a`, `b`, and a few filler classes — far fewer than 256.
        assert!(reps.len() < 10, "{} classes", reps.len());
    }
}
