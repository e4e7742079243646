//! Language containment between patterns, for subsumption detection
//! (§4 "Rule Maintenance": `jeans?` subsumes `denim.*jeans?`).
//!
//! Rule semantics are *touch* semantics: a rule touches a title iff the
//! pattern matches somewhere in the title. Pattern `a` is touch-subsumed by
//! pattern `b` iff `Σ* L(a) Σ* ⊆ Σ* L(b) Σ*`. We decide this by an on-the-fly
//! product subset construction over the two NFAs, with a state budget;
//! patterns whose product exceeds the budget (or that use anchors) report
//! [`Containment::Unknown`].

use crate::ast::Ast;
use crate::nfa::{compile, CompileOptions, Inst, Program};
use crate::Error;
use std::collections::{BTreeSet, HashMap, VecDeque};

/// Result of a containment query.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Containment {
    /// Every text touched by `a` is touched by `b`.
    Subset,
    /// A counterexample exists (some text touched by `a` but not `b`).
    NotSubset,
    /// The analysis gave up (anchors present or state budget exceeded).
    Unknown,
}

/// Maximum number of product states explored before giving up.
const STATE_BUDGET: usize = 50_000;

/// Decides whether every text touched by `a` is also touched by `b`.
pub fn touch_subset(a: &Ast, b: &Ast, case_insensitive: bool) -> Containment {
    if has_anchor(a) || has_anchor(b) {
        return Containment::Unknown;
    }
    let opts = CompileOptions { case_insensitive };
    let (Ok(pa), Ok(pb)) = (compile_touch(a, opts), compile_touch(b, opts)) else {
        return Containment::Unknown;
    };
    match check_subset(&pa, &pb) {
        Some(true) => Containment::Subset,
        Some(false) => Containment::NotSubset,
        None => Containment::Unknown,
    }
}

fn has_anchor(ast: &Ast) -> bool {
    match ast {
        Ast::StartAnchor | Ast::EndAnchor => true,
        Ast::Group { inner, .. } => has_anchor(inner),
        Ast::Repeat { inner, .. } => has_anchor(inner),
        Ast::Concat(parts) | Ast::Alternate(parts) => parts.iter().any(has_anchor),
        _ => false,
    }
}

/// Compiles `Σ* ast Σ*` (touch language). `Σ` here is "any char": rule inputs
/// are single-line titles, so the `.`-excludes-newline subtlety is irrelevant
/// and we use a full wildcard.
fn compile_touch(ast: &Ast, opts: CompileOptions) -> Result<Program, Error> {
    let any = Ast::Repeat {
        inner: Box::new(Ast::Class(crate::ast::ClassSet {
            ranges: vec![('\0', char::MAX)],
            negated: false,
        })),
        min: 0,
        max: None,
        greedy: true,
    };
    let wrapped = Ast::Concat(vec![any.clone(), ast.clone(), any]);
    compile(&wrapped, opts)
}

/// A determinized NFA state: sorted set of pcs at consuming/match instructions.
type Subset = Vec<u32>;

/// Epsilon-closure of `pcs` (Save/Jump/Split are free; anchors were rejected).
fn closure(program: &Program, pcs: impl IntoIterator<Item = u32>) -> Subset {
    let mut seen = vec![false; program.insts.len()];
    let mut stack: Vec<u32> = pcs.into_iter().collect();
    let mut out = Vec::new();
    while let Some(pc) = stack.pop() {
        if std::mem::replace(&mut seen[pc as usize], true) {
            continue;
        }
        match &program.insts[pc as usize] {
            Inst::Jump(t) => stack.push(*t),
            Inst::Split(x, y) => {
                stack.push(*x);
                stack.push(*y);
            }
            Inst::Save(_) => stack.push(pc + 1),
            // Anchors rejected up front; treat defensively as dead ends.
            Inst::AssertStart | Inst::AssertEnd => {}
            Inst::Ranges { .. } | Inst::Any | Inst::Match => out.push(pc),
        }
    }
    out.sort_unstable();
    out.dedup();
    out
}

fn accepts(program: &Program, subset: &Subset) -> bool {
    subset.iter().any(|&pc| matches!(program.insts[pc as usize], Inst::Match))
}

/// Steps `subset` on character `c`.
fn step(program: &Program, subset: &Subset, c: char) -> Subset {
    let mut next = Vec::new();
    for &pc in subset {
        match &program.insts[pc as usize] {
            Inst::Ranges { start, len } if program.class_contains(*start, *len, c) => {
                next.push(pc + 1);
            }
            Inst::Any if c != '\n' => {
                next.push(pc + 1);
            }
            _ => {}
        }
    }
    closure(program, next)
}

/// Representative characters: one per equivalence class of the combined
/// transition alphabets of the states in both subsets.
fn representatives(pa: &Program, sa: &Subset, pb: &Program, sb: &Subset) -> Vec<char> {
    let mut bounds: BTreeSet<u32> = BTreeSet::new();
    bounds.insert(0);
    bounds.insert('\n' as u32);
    bounds.insert('\n' as u32 + 1);
    let mut add = |program: &Program, subset: &Subset| {
        for &pc in subset {
            if let Inst::Ranges { start, len } = program.insts[pc as usize] {
                for &(lo, hi) in program.class(start, len) {
                    bounds.insert(lo as u32);
                    bounds.insert(hi as u32 + 1);
                }
            }
        }
    };
    add(pa, sa);
    add(pb, sb);
    bounds.into_iter().filter_map(char::from_u32).collect()
}

/// BFS over the product automaton looking for a state accepting in A but not
/// in B. `None` = budget exceeded.
fn check_subset(pa: &Program, pb: &Program) -> Option<bool> {
    let start = (closure(pa, [0u32]), closure(pb, [0u32]));
    let mut visited: HashMap<(Subset, Subset), ()> = HashMap::new();
    let mut queue = VecDeque::new();
    visited.insert(start.clone(), ());
    queue.push_back(start);

    while let Some((sa, sb)) = queue.pop_front() {
        if accepts(pa, &sa) && !accepts(pb, &sb) {
            return Some(false);
        }
        if visited.len() > STATE_BUDGET {
            return None;
        }
        for c in representatives(pa, &sa, pb, &sb) {
            let na = step(pa, &sa, c);
            if na.is_empty() {
                // No A-match can be completed along this path.
                continue;
            }
            let nb = step(pb, &sb, c);
            let key = (na, nb);
            if !visited.contains_key(&key) {
                visited.insert(key.clone(), ());
                queue.push_back(key);
            }
        }
    }
    Some(true)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parser::parse;

    fn subset(a: &str, b: &str) -> Containment {
        touch_subset(&parse(a).unwrap(), &parse(b).unwrap(), true)
    }

    #[test]
    fn paper_example_jeans() {
        // §4: "denim.*jeans?" is subsumed by "jeans?".
        assert_eq!(subset("denim.*jeans?", "jeans?"), Containment::Subset);
        assert_eq!(subset("jeans?", "denim.*jeans?"), Containment::NotSubset);
    }

    #[test]
    fn identical_patterns_subsume_both_ways() {
        assert_eq!(subset("rings?", "rings?"), Containment::Subset);
    }

    #[test]
    fn singular_subsumed_by_optional_plural() {
        assert_eq!(subset("ring", "rings?"), Containment::Subset);
        // "rings?" touches anything containing "ring", so the reverse holds too.
        assert_eq!(subset("rings?", "ring"), Containment::Subset);
    }

    #[test]
    fn disjoint_literals_not_subsets() {
        assert_eq!(subset("rug", "ring"), Containment::NotSubset);
    }

    #[test]
    fn alternation_arm_subsumed_by_whole() {
        assert_eq!(subset("motor oil", "(motor|engine) oils?"), Containment::Subset);
        assert_eq!(subset("(motor|engine) oils?", "motor oil"), Containment::NotSubset);
    }

    #[test]
    fn paper_example_abrasive_overlap() {
        // §4: the two "wheels & discs" rules overlap but neither subsumes:
        // "(abrasive|sand(er|ing))[ -](wheels?|discs?)" vs
        // "abrasive.*(wheels?|discs?)".
        let a = "(abrasive|sand(er|ing))[ -](wheels?|discs?)";
        let b = "abrasive.*(wheels?|discs?)";
        // A title "sander wheels" is touched by a but not b.
        assert_eq!(subset(a, b), Containment::NotSubset);
        // A title "abrasive cutting wheel" is touched by b but not a.
        assert_eq!(subset(b, a), Containment::NotSubset);
        // But "abrasive wheel" restriction of a IS inside b.
        assert_eq!(subset("abrasive[ -](wheels?|discs?)", b), Containment::Subset);
    }

    #[test]
    fn anchored_patterns_report_unknown() {
        assert_eq!(subset("^ring", "ring"), Containment::Unknown);
    }

    #[test]
    fn class_containment() {
        assert_eq!(subset("[0-5]", r"\d"), Containment::Subset);
        assert_eq!(subset(r"\d", "[0-5]"), Containment::NotSubset);
    }

    #[test]
    fn case_insensitive_containment() {
        assert_eq!(
            touch_subset(&parse("RING").unwrap(), &parse("ring").unwrap(), true),
            Containment::Subset
        );
        assert_eq!(
            touch_subset(&parse("RING").unwrap(), &parse("ring").unwrap(), false),
            Containment::NotSubset
        );
    }

    #[test]
    fn empty_pattern_touches_everything() {
        // Everything is subsumed by the empty pattern (it touches all texts).
        assert_eq!(subset("ring", ""), Containment::Subset);
        assert_eq!(subset("", "ring"), Containment::NotSubset);
    }
}
