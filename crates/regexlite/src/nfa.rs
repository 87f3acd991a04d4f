//! NFA compilation (Thompson construction) and execution (Pike VM).
//!
//! The VM simulates all NFA threads in lockstep, giving `O(pattern ×
//! input)` worst-case matching — important because path filters run once
//! per candidate row inside the SQL executor, over adversarially nestable
//! documents.

use crate::ast::{Ast, CharClass};
use crate::MatchCounts;

/// One NFA instruction.
#[derive(Debug, Clone)]
pub enum Inst {
    /// Consume one byte matching the class, then go to `next`.
    Byte { class: CharClass, next: usize },
    /// Consume any byte, then go to `next`.
    Any { next: usize },
    /// Fork execution into both targets (preference order irrelevant for
    /// boolean matching).
    Split { a: usize, b: usize },
    /// Unconditional jump.
    Jmp { next: usize },
    /// Zero-width: succeeds only at input start.
    AssertStart { next: usize },
    /// Zero-width: succeeds only at input end.
    AssertEnd { next: usize },
    /// Accept.
    Match,
}

/// A compiled NFA program.
#[derive(Debug, Clone)]
pub struct Program {
    pub insts: Vec<Inst>,
    pub start: usize,
    /// True when the pattern starts with `^` on every alternation branch,
    /// letting the VM skip the unanchored-search thread seeding.
    pub anchored_start: bool,
}

/// Upper bound on repetition expansion to keep compiled programs small.
/// `{m,n}` bounds are expanded by duplication; PPF-generated patterns never
/// use counted bounds, so this only guards hand-written patterns.
const MAX_REPEAT_EXPANSION: u32 = 1000;

/// Upper bound on the total compiled program size, in instructions.
/// The per-repetition bound above caps one `{m,n}` in isolation, but
/// nesting multiplies — `(a{1000}){1000}` passes every individual bound
/// check while expanding toward 10⁶ instructions. The compiler checks
/// this budget on every `emit` call (the same shape as the DFA's state
/// budget), so total work before a hostile pattern is rejected stays
/// proportional to the budget, not to the nesting product.
pub const MAX_PROGRAM_INSTS: usize = 32_768;

/// Compilation error (repetition-size or program-size overflow).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CompileError(pub String);

impl std::fmt::Display for CompileError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "regex compile error: {}", self.0)
    }
}

impl std::error::Error for CompileError {}

pub fn compile(ast: &Ast) -> Result<Program, CompileError> {
    let mut c = Compiler { insts: Vec::new() };
    let frag = c.emit(ast)?;
    let match_ip = c.push(Inst::Match);
    c.patch(frag.outs, match_ip);
    Ok(Program {
        anchored_start: starts_anchored(ast),
        insts: c.insts,
        start: frag.start,
    })
}

fn starts_anchored(ast: &Ast) -> bool {
    match ast {
        Ast::AnchorStart => true,
        Ast::Concat(xs) => xs.first().map(starts_anchored).unwrap_or(false),
        Ast::Alternation(xs) => xs.iter().all(starts_anchored),
        Ast::Group(x) => starts_anchored(x),
        _ => false,
    }
}

/// A compiled fragment: entry point plus the dangling exits to patch.
struct Frag {
    start: usize,
    outs: Vec<Hole>,
}

/// A dangling jump target inside an instruction.
#[derive(Clone, Copy)]
enum Hole {
    Next(usize),
    SplitA(usize),
    SplitB(usize),
}

struct Compiler {
    insts: Vec<Inst>,
}

impl Compiler {
    fn push(&mut self, inst: Inst) -> usize {
        self.insts.push(inst);
        self.insts.len() - 1
    }

    fn patch(&mut self, holes: Vec<Hole>, target: usize) {
        for hole in holes {
            match hole {
                Hole::Next(ip) => match &mut self.insts[ip] {
                    Inst::Byte { next, .. }
                    | Inst::Any { next }
                    | Inst::Jmp { next }
                    | Inst::AssertStart { next }
                    | Inst::AssertEnd { next } => *next = target,
                    other => unreachable!("patch Next on {other:?}"),
                },
                Hole::SplitA(ip) => match &mut self.insts[ip] {
                    Inst::Split { a, .. } => *a = target,
                    other => unreachable!("patch SplitA on {other:?}"),
                },
                Hole::SplitB(ip) => match &mut self.insts[ip] {
                    Inst::Split { b, .. } => *b = target,
                    other => unreachable!("patch SplitB on {other:?}"),
                },
            }
        }
    }

    fn emit(&mut self, ast: &Ast) -> Result<Frag, CompileError> {
        if self.insts.len() > MAX_PROGRAM_INSTS {
            return Err(CompileError(format!(
                "pattern compiles past the {MAX_PROGRAM_INSTS}-instruction program budget"
            )));
        }
        match ast {
            Ast::Empty => {
                let ip = self.push(Inst::Jmp { next: usize::MAX });
                Ok(Frag {
                    start: ip,
                    outs: vec![Hole::Next(ip)],
                })
            }
            Ast::Literal(b) => {
                let class = CharClass {
                    negated: false,
                    ranges: vec![crate::ast::ClassRange { lo: *b, hi: *b }],
                };
                let ip = self.push(Inst::Byte {
                    class,
                    next: usize::MAX,
                });
                Ok(Frag {
                    start: ip,
                    outs: vec![Hole::Next(ip)],
                })
            }
            Ast::AnyChar => {
                let ip = self.push(Inst::Any { next: usize::MAX });
                Ok(Frag {
                    start: ip,
                    outs: vec![Hole::Next(ip)],
                })
            }
            Ast::Class(c) => {
                let ip = self.push(Inst::Byte {
                    class: c.clone(),
                    next: usize::MAX,
                });
                Ok(Frag {
                    start: ip,
                    outs: vec![Hole::Next(ip)],
                })
            }
            Ast::AnchorStart => {
                let ip = self.push(Inst::AssertStart { next: usize::MAX });
                Ok(Frag {
                    start: ip,
                    outs: vec![Hole::Next(ip)],
                })
            }
            Ast::AnchorEnd => {
                let ip = self.push(Inst::AssertEnd { next: usize::MAX });
                Ok(Frag {
                    start: ip,
                    outs: vec![Hole::Next(ip)],
                })
            }
            Ast::Group(inner) => self.emit(inner),
            Ast::Concat(parts) => {
                let mut iter = parts.iter();
                let first = iter.next().expect("concat is non-empty");
                let mut frag = self.emit(first)?;
                for part in iter {
                    let next = self.emit(part)?;
                    self.patch(frag.outs, next.start);
                    frag = Frag {
                        start: frag.start,
                        outs: next.outs,
                    };
                }
                Ok(frag)
            }
            Ast::Alternation(branches) => {
                debug_assert!(branches.len() >= 2);
                let mut outs = Vec::new();
                let mut prev_split: Option<usize> = None;
                let mut start = usize::MAX;
                for (i, branch) in branches.iter().enumerate() {
                    let last = i + 1 == branches.len();
                    if last {
                        let frag = self.emit(branch)?;
                        if let Some(sp) = prev_split {
                            self.patch(vec![Hole::SplitB(sp)], frag.start);
                        } else {
                            start = frag.start;
                        }
                        outs.extend(frag.outs);
                    } else {
                        let sp = self.push(Inst::Split {
                            a: usize::MAX,
                            b: usize::MAX,
                        });
                        if let Some(prev) = prev_split {
                            self.patch(vec![Hole::SplitB(prev)], sp);
                        } else {
                            start = sp;
                        }
                        let frag = self.emit(branch)?;
                        self.patch(vec![Hole::SplitA(sp)], frag.start);
                        outs.extend(frag.outs);
                        prev_split = Some(sp);
                    }
                }
                Ok(Frag { start, outs })
            }
            Ast::Repeat { node, min, max } => self.emit_repeat(node, *min, *max),
        }
    }

    fn emit_repeat(
        &mut self,
        node: &Ast,
        min: u32,
        max: Option<u32>,
    ) -> Result<Frag, CompileError> {
        match (min, max) {
            // `x*`
            (0, None) => {
                let sp = self.push(Inst::Split {
                    a: usize::MAX,
                    b: usize::MAX,
                });
                let body = self.emit(node)?;
                self.patch(vec![Hole::SplitA(sp)], body.start);
                self.patch(body.outs, sp);
                Ok(Frag {
                    start: sp,
                    outs: vec![Hole::SplitB(sp)],
                })
            }
            // `x+`
            (1, None) => {
                let body = self.emit(node)?;
                let sp = self.push(Inst::Split {
                    a: usize::MAX,
                    b: usize::MAX,
                });
                self.patch(body.outs, sp);
                self.patch(vec![Hole::SplitA(sp)], body.start);
                Ok(Frag {
                    start: body.start,
                    outs: vec![Hole::SplitB(sp)],
                })
            }
            // `x?`
            (0, Some(1)) => {
                let sp = self.push(Inst::Split {
                    a: usize::MAX,
                    b: usize::MAX,
                });
                let body = self.emit(node)?;
                self.patch(vec![Hole::SplitA(sp)], body.start);
                let mut outs = body.outs;
                outs.push(Hole::SplitB(sp));
                Ok(Frag { start: sp, outs })
            }
            // General bounded repetition: expand by duplication.
            (m, n) => {
                let total = n.unwrap_or(m);
                if total > MAX_REPEAT_EXPANSION || m > MAX_REPEAT_EXPANSION {
                    return Err(CompileError(format!(
                        "repetition bound too large (max {MAX_REPEAT_EXPANSION})"
                    )));
                }
                // m mandatory copies ...
                let mut parts: Vec<Ast> = Vec::new();
                for _ in 0..m {
                    parts.push(node.clone());
                }
                match n {
                    // ... then (n - m) optional copies
                    Some(n) => {
                        for _ in m..n {
                            parts.push(Ast::Repeat {
                                node: Box::new(node.clone()),
                                min: 0,
                                max: Some(1),
                            });
                        }
                    }
                    // ... or a trailing star
                    None => parts.push(Ast::Repeat {
                        node: Box::new(node.clone()),
                        min: 0,
                        max: None,
                    }),
                }
                let expanded = if parts.is_empty() {
                    Ast::Empty
                } else if parts.len() == 1 {
                    parts.pop().expect("one part")
                } else {
                    Ast::Concat(parts)
                };
                self.emit(&expanded)
            }
        }
    }
}

/// Pike VM scratch space: breadth-first NFA simulation.
///
/// Owns only the thread lists so one `Vm` can be pooled and reused across
/// many [`Vm::is_match`] calls against the same (or different) programs.
#[derive(Debug, Default, Clone)]
pub struct Vm {
    current: Vec<usize>,
    next: Vec<usize>,
    on_current: Vec<bool>,
    on_next: Vec<bool>,
}

impl Vm {
    pub fn new() -> Self {
        Vm::default()
    }

    /// Whether the pattern matches anywhere in `input` (unanchored search;
    /// `^`/`$` in the pattern constrain it as usual). Adds one match call
    /// and its thread dispatches to `counts`.
    pub fn is_match(&mut self, prog: &Program, input: &[u8], counts: &mut MatchCounts) -> bool {
        counts.match_calls += 1;
        self.run(prog, input, &mut counts.vm_steps)
    }

    fn run(&mut self, prog: &Program, input: &[u8], steps: &mut u64) -> bool {
        let n = prog.insts.len();
        self.current.clear();
        self.next.clear();
        self.on_current.clear();
        self.on_current.resize(n, false);
        self.on_next.clear();
        self.on_next.resize(n, false);

        let mut matched = false;
        Self::add_thread(
            prog,
            &mut self.current,
            &mut self.on_current,
            prog.start,
            0,
            input,
            &mut matched,
        );
        if matched {
            return true;
        }
        for at in 0..input.len() {
            if !prog.anchored_start {
                // Seed a fresh attempt starting at this position.
                Self::add_thread(
                    prog,
                    &mut self.current,
                    &mut self.on_current,
                    prog.start,
                    at,
                    input,
                    &mut matched,
                );
                if matched {
                    return true;
                }
            }
            if self.current.is_empty() && prog.anchored_start {
                return false;
            }
            let byte = input[at];
            *steps += self.current.len() as u64;
            for i in 0..self.current.len() {
                let ip = self.current[i];
                match &prog.insts[ip] {
                    Inst::Byte { class, next } if class.matches(byte) => {
                        Self::add_thread(
                            prog,
                            &mut self.next,
                            &mut self.on_next,
                            *next,
                            at + 1,
                            input,
                            &mut matched,
                        );
                    }
                    Inst::Any { next } => {
                        Self::add_thread(
                            prog,
                            &mut self.next,
                            &mut self.on_next,
                            *next,
                            at + 1,
                            input,
                            &mut matched,
                        );
                    }
                    _ => {}
                }
            }
            if matched {
                return true;
            }
            std::mem::swap(&mut self.current, &mut self.next);
            std::mem::swap(&mut self.on_current, &mut self.on_next);
            self.next.clear();
            self.on_next.iter_mut().for_each(|b| *b = false);
        }
        // Seed one final attempt at end-of-input (matters for patterns that
        // can match the empty string, e.g. `^$` or `a*$`).
        if !prog.anchored_start {
            Self::add_thread(
                prog,
                &mut self.current,
                &mut self.on_current,
                prog.start,
                input.len(),
                input,
                &mut matched,
            );
        }
        matched
    }

    /// Add `ip` to the thread list, following zero-width instructions
    /// (splits, jumps, anchors) eagerly.
    fn add_thread(
        prog: &Program,
        list: &mut Vec<usize>,
        on: &mut [bool],
        ip: usize,
        at: usize,
        input: &[u8],
        matched: &mut bool,
    ) {
        if on[ip] {
            return;
        }
        on[ip] = true;
        match &prog.insts[ip] {
            Inst::Jmp { next } => Self::add_thread(prog, list, on, *next, at, input, matched),
            Inst::Split { a, b } => {
                Self::add_thread(prog, list, on, *a, at, input, matched);
                Self::add_thread(prog, list, on, *b, at, input, matched);
            }
            Inst::AssertStart { next } => {
                if at == 0 {
                    Self::add_thread(prog, list, on, *next, at, input, matched);
                }
            }
            Inst::AssertEnd { next } => {
                if at == input.len() {
                    Self::add_thread(prog, list, on, *next, at, input, matched);
                }
            }
            Inst::Match => *matched = true,
            Inst::Byte { .. } | Inst::Any { .. } => list.push(ip),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parser::parse;

    fn matches(pat: &str, input: &str) -> bool {
        let prog = compile(&parse(pat).expect("parse")).expect("compile");
        Vm::new().is_match(&prog, input.as_bytes(), &mut MatchCounts::default())
    }

    #[test]
    fn basic_matching() {
        assert!(matches("abc", "xxabcxx"));
        assert!(!matches("abc", "abx"));
        assert!(matches("^abc$", "abc"));
        assert!(!matches("^abc$", "xabc"));
        assert!(!matches("^abc$", "abcx"));
    }

    #[test]
    fn star_plus_opt() {
        assert!(matches("^a*$", ""));
        assert!(matches("^a*$", "aaaa"));
        assert!(!matches("^a+$", ""));
        assert!(matches("^a+$", "a"));
        assert!(matches("^ab?c$", "ac"));
        assert!(matches("^ab?c$", "abc"));
        assert!(!matches("^ab?c$", "abbc"));
    }

    #[test]
    fn alternation_and_groups() {
        assert!(matches("^(ab|cd)+$", "abcdab"));
        assert!(!matches("^(ab|cd)+$", "abc"));
        assert!(matches("^a(b|)c$", "ac"));
    }

    #[test]
    fn path_filter_patterns() {
        // The shapes emitted by the PPF translator.
        assert!(matches("^/A/B(/[^/]+)*/F$", "/A/B/F"));
        assert!(matches("^/A/B(/[^/]+)*/F$", "/A/B/C/E/F"));
        assert!(!matches("^/A/B(/[^/]+)*/F$", "/A/C/F"));
        assert!(!matches("^/A/B(/[^/]+)*/F$", "/A/B/Fx"));
        assert!(matches("^(/[^/]+)*/keyword$", "/site/regions/item/keyword"));
        assert!(matches("^/A/B/C/[^/]+/F$", "/A/B/C/D/F"));
        assert!(!matches("^/A/B/C/[^/]+/F$", "/A/B/C/D/E/F"));
    }

    #[test]
    fn bounded_repeats() {
        assert!(matches("^a{2,3}$", "aa"));
        assert!(matches("^a{2,3}$", "aaa"));
        assert!(!matches("^a{2,3}$", "a"));
        assert!(!matches("^a{2,3}$", "aaaa"));
        assert!(matches("^(ab){2}$", "abab"));
        assert!(matches("^a{2,}$", "aaaaa"));
    }

    #[test]
    fn empty_pattern_matches_everything() {
        assert!(matches("", ""));
        assert!(matches("", "anything"));
        assert!(matches("^$", ""));
        assert!(!matches("^$", "x"));
    }

    #[test]
    fn anchors_inside_pattern() {
        assert!(matches("a$", "bca"));
        assert!(!matches("a$", "abc"));
        assert!(matches("^a", "abc"));
        assert!(!matches("^a", "bac"));
    }

    #[test]
    fn pathological_nesting_is_linear() {
        // (a*)*b against aaaa...a — catastrophic for backtrackers.
        let input = "a".repeat(4000);
        assert!(!matches("^(a*)*b$", &input));
    }

    #[test]
    fn huge_single_repetition_is_rejected() {
        let err = crate::Regex::new("a{1000000}").unwrap_err();
        assert!(err.to_string().contains("repetition bound"), "{err}");
    }

    #[test]
    fn nested_repetition_blowup_hits_program_budget() {
        // Each bound individually passes MAX_REPEAT_EXPANSION, but the
        // product would be 10⁶ instructions.
        let err = crate::Regex::new("(a{1000}){1000}").unwrap_err();
        assert!(err.to_string().contains("program budget"), "{err}");
        let err = crate::Regex::new("((a{100}){100}){100}").unwrap_err();
        assert!(err.to_string().contains("program budget"), "{err}");
        // A large-but-reasonable pattern still compiles.
        assert!(crate::Regex::new("(a{10}){10}").is_ok());
    }
}
