//! Required-literal analysis.
//!
//! For rule indexing (§4 "Rule Execution and Optimization") we need, for each
//! rule pattern, evidence that lets an index skip the rule without running the
//! full matcher. This module extracts a CNF of literal requirements: a list of
//! disjunctions `D₁, D₂, …` such that **every** matching text contains, for
//! each `Dᵢ`, at least one of its strings as a contiguous substring.
//!
//! Example: `(motor|engine) oils?` yields
//! `[[ "motor", "engine" ], [ " oil" ]]` — a title that contains neither
//! "motor" nor "engine" can never match, so the rule need not run on it.

use crate::ast::Ast;

/// A single requirement: at least one of these substrings must appear.
pub type Disjunction = Vec<String>;

/// Extracts the literal CNF for `ast`.
///
/// `case_insensitive` lowercases extracted literals (callers must then match
/// them against lowercased text). Returns an empty list when nothing useful
/// can be guaranteed (e.g. pattern `\w+`).
pub fn literal_cnf(ast: &Ast, case_insensitive: bool) -> Vec<Disjunction> {
    let mut out = Vec::new();
    collect(ast, case_insensitive, &mut out);
    // Deduplicate within each disjunction; drop disjunctions that contain the
    // empty string (vacuously true) or that duplicate another.
    for d in &mut out {
        d.sort();
        d.dedup();
    }
    out.retain(|d| !d.is_empty() && d.iter().all(|s| !s.is_empty()));
    out.sort();
    out.dedup();
    out
}

/// Picks the best single disjunction for index lookup: prefer disjunctions
/// whose shortest string is longest, then fewer alternatives.
pub fn best_disjunction(cnf: &[Disjunction]) -> Option<&Disjunction> {
    cnf.iter().max_by_key(|d| {
        let min_len = d.iter().map(|s| s.chars().count()).min().unwrap_or(0);
        (min_len, std::cmp::Reverse(d.len()))
    })
}

/// [`best_disjunction`] restricted to disjunctions an n-gram index can key
/// on: every literal ASCII and at least `min_len` bytes long. Returns `None`
/// when no disjunction qualifies (the rule must then be admitted another
/// way). The data-side title index (`rulekit_core::TitleIndex`) keys its
/// trigram postings on it.
pub fn best_indexable_disjunction(cnf: &[Disjunction], min_len: usize) -> Option<&Disjunction> {
    let indexable: Vec<&Disjunction> =
        cnf.iter().filter(|d| d.iter().all(|lit| lit.len() >= min_len && lit.is_ascii())).collect();
    indexable
        .iter()
        .max_by_key(|d| {
            let shortest = d.iter().map(|s| s.chars().count()).min().unwrap_or(0);
            (shortest, std::cmp::Reverse(d.len()))
        })
        .copied()
}

/// Appends `cnf` to `out` as one string: each literal as `<byte length>:`
/// then its text, each clause closed by `;`. What a compiled
/// [`Regex`](crate::Regex) keeps of its literal analysis, in the allocation
/// that holds its pattern.
pub fn pack(cnf: &[Disjunction], out: &mut String) {
    use std::fmt::Write;
    for clause in cnf {
        for literal in clause {
            write!(out, "{}:{literal}", literal.len()).expect("writing to a String");
        }
        out.push(';');
    }
}

/// The CNF [`pack`] wrote into `packed`.
pub(crate) fn unpack(mut packed: &str) -> Vec<Disjunction> {
    let mut cnf = Vec::new();
    let mut clause = Vec::new();
    while !packed.is_empty() {
        if let Some(rest) = packed.strip_prefix(';') {
            cnf.push(std::mem::take(&mut clause));
            packed = rest;
        } else {
            let (len, rest) = packed.split_once(':').expect("packed literal length");
            let (literal, rest) = rest.split_at(len.parse().expect("packed literal length"));
            clause.push(literal.to_string());
            packed = rest;
        }
    }
    cnf
}

fn collect(ast: &Ast, ci: bool, out: &mut Vec<Disjunction>) {
    match ast {
        Ast::Concat(parts) => {
            // Merge adjacent literal characters into runs; recurse elsewhere.
            let mut run = String::new();
            for part in parts {
                match part {
                    Ast::Literal(c) => {
                        push_char(&mut run, *c, ci);
                    }
                    // A trailing optional after a literal run (`oils?`) does
                    // not break the run's guarantee — "oil" still required.
                    _ => {
                        flush_run(&mut run, out);
                        collect(part, ci, out);
                    }
                }
            }
            flush_run(&mut run, out);
        }
        Ast::Alternate(arms) => {
            // Every arm must yield something; the requirement is the union of
            // one representative disjunction per arm.
            let mut union = Vec::new();
            for arm in arms {
                let mut arm_cnf = Vec::new();
                collect(arm, ci, &mut arm_cnf);
                let Some(best) = best_disjunction(&arm_cnf) else {
                    return; // one arm has no requirement ⇒ alternation has none
                };
                union.extend(best.iter().cloned());
            }
            out.push(union);
        }
        Ast::Group { inner, .. } => collect(inner, ci, out),
        Ast::Repeat { inner, min, .. } if *min >= 1 => collect(inner, ci, out),
        // min == 0 repeats, classes, dot, anchors, empty: no guarantee.
        _ => {}
    }
}

fn push_char(run: &mut String, c: char, ci: bool) {
    if ci {
        for folded in c.to_lowercase() {
            run.push(folded);
        }
    } else {
        run.push(c);
    }
}

fn flush_run(run: &mut String, out: &mut Vec<Disjunction>) {
    if !run.is_empty() {
        out.push(vec![std::mem::take(run)]);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parser::parse;

    fn cnf(pattern: &str) -> Vec<Disjunction> {
        literal_cnf(&parse(pattern).unwrap(), true)
    }

    #[test]
    fn plain_literal() {
        assert_eq!(cnf("ring"), vec![vec!["ring".to_string()]]);
    }

    #[test]
    fn optional_suffix_keeps_stem() {
        // `rings?` guarantees "ring".
        assert_eq!(cnf("rings?"), vec![vec!["ring".to_string()]]);
    }

    #[test]
    fn dotstar_splits_runs() {
        // `diamond.*trio sets?` guarantees "diamond" AND "trio set".
        let c = cnf("diamond.*trio sets?");
        assert!(c.contains(&vec!["diamond".to_string()]));
        assert!(c.contains(&vec!["trio set".to_string()]));
    }

    #[test]
    fn alternation_unions_arms() {
        let c = cnf("(motor|engine) oils?");
        assert!(c.contains(&vec!["engine".to_string(), "motor".to_string()]));
        assert!(c.contains(&vec![" oil".to_string()]));
    }

    #[test]
    fn nested_alternation() {
        let c = cnf("(abrasive|sand(er|ing))[ -](wheels?|discs?)");
        // Arm "sand(er|ing)" guarantees "sand"; arm "abrasive" guarantees itself.
        assert!(c
            .iter()
            .any(|d| d.contains(&"abrasive".to_string()) && d.contains(&"sand".to_string())));
        assert!(c
            .iter()
            .any(|d| d.contains(&"wheel".to_string()) && d.contains(&"disc".to_string())));
    }

    #[test]
    fn unbounded_class_has_no_requirement() {
        assert!(cnf(r"\w+").is_empty());
        assert!(cnf(".*").is_empty());
    }

    #[test]
    fn alternation_with_unanalyzable_arm_is_dropped() {
        // One arm is `\w+`: no guarantee can be made for the alternation.
        let c = cnf(r"(motor|\w+) oils?");
        assert!(!c.iter().any(|d| d.contains(&"motor".to_string())));
        // …but the " oil" run after the group is still required.
        assert!(c.contains(&vec![" oil".to_string()]));
    }

    #[test]
    fn case_insensitive_lowercases() {
        assert_eq!(cnf("Ring"), vec![vec!["ring".to_string()]]);
        let sensitive = literal_cnf(&parse("Ring").unwrap(), false);
        assert_eq!(sensitive, vec![vec!["Ring".to_string()]]);
    }

    #[test]
    fn plus_keeps_requirement_star_does_not() {
        assert_eq!(cnf("(?:ring)+"), vec![vec!["ring".to_string()]]);
        assert!(cnf("(?:ring)*").is_empty());
    }

    #[test]
    fn best_disjunction_prefers_long_then_narrow() {
        let c = cnf("(motor|engine) oils?");
        // " oil" (min len 4) wins over {motor, engine} (min len 5)? No:
        // "motor"/"engine" min len is 5 > 4, so the alternation wins.
        let best = best_disjunction(&c).unwrap();
        assert_eq!(best, &vec!["engine".to_string(), "motor".to_string()]);
    }

    #[test]
    fn pack_round_trips_separators_and_empty_literals() {
        let cnf = vec![vec!["12:;".to_string(), String::new()], vec![]];
        let mut packed = String::new();
        pack(&cnf, &mut packed);
        assert_eq!(packed, "4:12:;0:;;");
        assert_eq!(unpack(&packed), cnf);
    }

    #[test]
    fn counted_repeat_keeps_requirement() {
        assert_eq!(cnf("(?:ab){2,3}"), vec![vec!["ab".to_string()]]);
        assert!(cnf("(?:ab){0,3}").is_empty());
    }
}
