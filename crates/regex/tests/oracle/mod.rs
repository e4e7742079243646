//! The AST oracle the property suites share: a naive matcher that computes,
//! for each start position, every position a match can end at.

use rulekit_regex::ast::Ast;
use std::collections::BTreeSet;

/// All end positions (char indices) of matches of `ast` starting at `pos`.
/// `ci` folds ASCII case, as the compiler does: an ASCII letter matches
/// either case, every other character only itself.
fn match_ends(ast: &Ast, text: &[char], pos: usize, ci: bool) -> BTreeSet<usize> {
    match ast {
        Ast::Empty => [pos].into(),
        Ast::Literal(c) => {
            let folds =
                |t: &char| t == c || (ci && c.is_ascii_alphabetic() && t.eq_ignore_ascii_case(c));
            if text.get(pos).is_some_and(folds) {
                [pos + 1].into()
            } else {
                BTreeSet::new()
            }
        }
        Ast::AnyChar => {
            if pos < text.len() && text[pos] != '\n' {
                [pos + 1].into()
            } else {
                BTreeSet::new()
            }
        }
        Ast::Class(set) => {
            let mut canon = set.clone();
            if ci {
                canon.case_fold();
            }
            canon.canonicalize();
            if pos < text.len() && canon.contains(text[pos]) {
                [pos + 1].into()
            } else {
                BTreeSet::new()
            }
        }
        Ast::StartAnchor => {
            if pos == 0 {
                [pos].into()
            } else {
                BTreeSet::new()
            }
        }
        Ast::EndAnchor => {
            if pos == text.len() {
                [pos].into()
            } else {
                BTreeSet::new()
            }
        }
        Ast::Group { inner, .. } => match_ends(inner, text, pos, ci),
        Ast::Concat(parts) => {
            let mut current: BTreeSet<usize> = [pos].into();
            for part in parts {
                let mut next = BTreeSet::new();
                for &p in &current {
                    next.extend(match_ends(part, text, p, ci));
                }
                if next.is_empty() {
                    return next;
                }
                current = next;
            }
            current
        }
        Ast::Alternate(arms) => {
            let mut out = BTreeSet::new();
            for arm in arms {
                out.extend(match_ends(arm, text, pos, ci));
            }
            out
        }
        Ast::Repeat { inner, min, max, .. } => {
            let mut current: BTreeSet<usize> = [pos].into();
            let mut out = BTreeSet::new();
            let cap = max.map_or(text.len() as u32 + 1, |m| m).max(*min);
            for i in 0..=cap {
                if i >= *min {
                    out.extend(current.iter().copied());
                }
                let mut next = BTreeSet::new();
                for &p in &current {
                    next.extend(match_ends(inner, text, p, ci));
                }
                if next.is_subset(&current)
                    && next.iter().all(|p| current.contains(p))
                    && next == current
                {
                    // Fixed point (empty-width loop): no new positions.
                    if i >= *min {
                        break;
                    }
                }
                if next.is_empty() {
                    if i < *min {
                        return out; // can't reach min; out only has >=min entries
                    }
                    break;
                }
                current = next;
            }
            out
        }
    }
}

/// Whether `ast` matches anywhere in `text`.
pub fn oracle_is_match(ast: &Ast, text: &str, ci: bool) -> bool {
    let chars: Vec<char> = text.chars().collect();
    (0..=chars.len()).any(|i| !match_ends(ast, &chars, i, ci).is_empty())
}
