//! Randomized equivalence suite: the lazy DFA must agree with the Pike
//! VM on every pattern/input pair, including under artificially tiny
//! state budgets (where it may decline to answer, but must never answer
//! wrongly).
//!
//! Patterns and inputs come from a seeded LCG so failures reproduce
//! exactly; no external property-testing crates are involved.

use regexlite::dfa::LazyDfa;
use regexlite::nfa::{compile, Vm};
use regexlite::parser::parse;
use regexlite::Regex;

/// Deterministic LCG (Numerical Recipes constants); good enough for
/// structural fuzzing, and fully reproducible from the printed seed.
struct Lcg(u64);

impl Lcg {
    fn next(&mut self) -> u64 {
        self.0 = self
            .0
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        self.0 >> 33
    }

    /// Uniform-ish value in `0..n`.
    fn below(&mut self, n: usize) -> usize {
        (self.next() % n as u64) as usize
    }

    fn pick<'a, T>(&mut self, xs: &'a [T]) -> &'a T {
        &xs[self.below(xs.len())]
    }
}

const ATOMS: &[&str] = &[
    "a", "b", "c", "/", ".", "[ab]", "[^a]", "[^/]", "[a-c]", "[/b]",
];
const SUFFIXES: &[&str] = &["", "", "*", "+", "?"];

/// One random pattern over the POSIX-ERE subset the engine supports:
/// literals, `.`, bracket classes (incl. negated and ranged), `* + ?`,
/// grouping, alternation, and `^`/`$` anchors.
fn random_pattern(rng: &mut Lcg) -> String {
    let mut branches = Vec::new();
    for _ in 0..1 + rng.below(3) {
        let mut seq = String::new();
        for _ in 0..1 + rng.below(4) {
            let atom = *rng.pick(ATOMS);
            let suffix = *rng.pick(SUFFIXES);
            if rng.below(5) == 0 {
                seq.push_str(&format!("({atom}{suffix})"));
                let outer = *rng.pick(SUFFIXES);
                seq.push_str(outer);
            } else {
                seq.push_str(atom);
                seq.push_str(suffix);
            }
        }
        branches.push(seq);
    }
    let body = branches.join("|");
    match rng.below(4) {
        0 => format!("^{body}"),
        1 => format!("{body}$"),
        2 => format!("^{body}$"),
        _ => body,
    }
}

fn random_input(rng: &mut Lcg) -> String {
    let alphabet = ['a', 'b', 'c', 'd', '/'];
    let len = rng.below(14);
    (0..len).map(|_| *rng.pick(&alphabet)).collect()
}

/// Check DFA-vs-VM agreement for one compiled pattern over several
/// inputs. `budget` limits the DFA's state count; a `None` answer
/// (budget exhausted) is acceptable, a wrong answer is not. The public
/// `Regex` entry points — lazy DFA with fallback, and Pike VM alone —
/// must give the Pike VM's answer too.
fn check(pattern: &str, inputs: &[String], budget: usize) {
    let ast = parse(pattern).expect("generated patterns are valid");
    let prog = compile(&ast).expect("generated patterns compile");
    let mut dfa = LazyDfa::with_budget(&prog, budget);
    let re = Regex::with_dfa_budget(pattern, budget).expect("generated patterns compile");
    let mut vm = Vm::new();
    for input in inputs {
        let expected = vm.is_match(&prog, input.as_bytes());
        assert_eq!(
            re.is_match(input),
            expected,
            "pattern={pattern:?} input={input:?}"
        );
        assert_eq!(
            re.is_match_pike(input),
            expected,
            "pattern={pattern:?} input={input:?}"
        );
        if let Some(got) = dfa.try_match(&prog, input.as_bytes()) {
            assert_eq!(
                got, expected,
                "pattern={pattern:?} input={input:?} budget={budget}"
            );
        }
    }
}

#[test]
fn dfa_agrees_with_pike_vm_on_random_patterns() {
    let mut rng = Lcg(0x5eed_2026);
    for _ in 0..1000 {
        let pattern = random_pattern(&mut rng);
        let inputs: Vec<String> = (0..8).map(|_| random_input(&mut rng)).collect();
        check(&pattern, &inputs, 512);
    }
}

#[test]
fn dfa_agrees_under_tiny_budgets() {
    // With budgets this small most patterns exhaust the DFA mid-input;
    // every answer the DFA *does* give must still match the Pike VM.
    let mut rng = Lcg(0xbad_b0d9e7);
    for _ in 0..300 {
        let pattern = random_pattern(&mut rng);
        let inputs: Vec<String> = (0..4).map(|_| random_input(&mut rng)).collect();
        for budget in [1, 2, 3, 5] {
            check(&pattern, &inputs, budget);
        }
    }
}

#[test]
fn dfa_agrees_on_path_filter_shapes() {
    // The shapes the PPF translator actually emits: anchored absolute
    // paths with `(/[^/]+)*` descendant gaps over element-name labels.
    let patterns = [
        "^/site/regions/.*$",
        "^/site(/[^/]+)*/item$",
        "^/a(/[^/]+)*/b(/[^/]+)*/c$",
        "^(/[^/]+)+$",
        "^/dblp/(article|inproceedings)/author$",
        "^/site/people/person(/[^/]+)?$",
    ];
    let inputs = [
        "/site/regions/africa/item",
        "/site/people/person",
        "/site/people/person/name",
        "/a/x/b/y/c",
        "/a/b/c",
        "/dblp/article/author",
        "/dblp/phdthesis/author",
        "",
        "/",
        "/a//b",
    ];
    for pat in patterns {
        let inputs: Vec<String> = inputs.iter().map(|s| s.to_string()).collect();
        for budget in [1, 4, 512] {
            check(pat, &inputs, budget);
        }
    }
}

#[test]
fn budget_exhaustion_reports_fallback_not_wrong_answer() {
    // A pattern whose determinization needs many states: nested
    // alternations of classes with unbounded repeats. With budget 1 the
    // DFA cannot even intern its start state's successor set.
    let ast = parse("^(a|b)(a|b)(a|b)(a|b)$").unwrap();
    let prog = compile(&ast).unwrap();
    let mut dfa = LazyDfa::with_budget(&prog, 1);
    let mut vm = Vm::new();
    let mut fallbacks = 0;
    for input in ["aaaa", "abab", "abc", "aaaaa"] {
        match dfa.try_match(&prog, input.as_bytes()) {
            None => fallbacks += 1,
            Some(got) => assert_eq!(got, vm.is_match(&prog, input.as_bytes()), "{input}"),
        }
    }
    assert!(fallbacks > 0, "budget 1 must force at least one fallback");
}
