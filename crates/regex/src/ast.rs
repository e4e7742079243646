//! Abstract syntax tree for the rulekit pattern language.
//!
//! The language covers the constructs observed in the paper's analyst-written
//! rules: literals, `.`, character classes (`[ -]`, `[a-z]`, `[^…]`), the
//! perl-style classes `\w \s \d` and their negations, grouping (capturing and
//! `(?:…)`), alternation, the quantifiers `? * + {m} {m,} {m,n}` (greedy and
//! lazy), and the anchors `^ $`.

use std::fmt;

/// A parsed pattern.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Ast {
    /// Matches the empty string.
    Empty,
    /// A single literal character.
    Literal(char),
    /// `.` — any character except `\n`.
    AnyChar,
    /// A character class, e.g. `[a-z0-9]` or `[^abc]`.
    Class(ClassSet),
    /// `^` — start-of-text anchor.
    StartAnchor,
    /// `$` — end-of-text anchor.
    EndAnchor,
    /// A group. Capturing groups carry their 1-based capture index.
    Group {
        /// `Some(i)` for the `i`-th capturing group, `None` for `(?:…)`.
        index: Option<u32>,
        /// The sub-pattern inside the group.
        inner: Box<Ast>,
    },
    /// Concatenation of sub-patterns.
    Concat(Vec<Ast>),
    /// Alternation (`a|b|c`).
    Alternate(Vec<Ast>),
    /// A quantified sub-pattern.
    Repeat {
        /// The repeated sub-pattern.
        inner: Box<Ast>,
        /// Minimum number of repetitions.
        min: u32,
        /// Maximum number of repetitions (`None` = unbounded).
        max: Option<u32>,
        /// Greedy (`true`) or lazy (`false`, written with a trailing `?`).
        greedy: bool,
    },
}

/// A set of character ranges, possibly negated.
///
/// Ranges are kept sorted and non-overlapping by [`ClassSet::canonicalize`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ClassSet {
    /// Inclusive character ranges in the set.
    pub ranges: Vec<(char, char)>,
    /// Whether the set is negated (`[^…]`).
    pub negated: bool,
}

impl ClassSet {
    /// Creates an empty, non-negated class.
    pub fn new() -> Self {
        ClassSet { ranges: Vec::new(), negated: false }
    }

    /// Adds a single character to the set.
    pub fn push_char(&mut self, c: char) {
        self.ranges.push((c, c));
    }

    /// Adds an inclusive range to the set.
    pub fn push_range(&mut self, lo: char, hi: char) {
        debug_assert!(lo <= hi);
        self.ranges.push((lo, hi));
    }

    /// The `\w` class: `[A-Za-z0-9_]`.
    pub fn word() -> Self {
        ClassSet { ranges: vec![('0', '9'), ('A', 'Z'), ('_', '_'), ('a', 'z')], negated: false }
    }

    /// The `\d` class: `[0-9]`.
    pub fn digit() -> Self {
        ClassSet { ranges: vec![('0', '9')], negated: false }
    }

    /// The `\s` class: ASCII whitespace.
    pub fn space() -> Self {
        ClassSet { ranges: vec![('\t', '\r'), (' ', ' ')], negated: false }
    }

    /// Sorts and merges ranges; resolves negation into concrete ranges.
    ///
    /// After canonicalization `negated` is always `false` and `ranges` are
    /// sorted, non-empty (unless the class matches nothing), non-adjacent and
    /// non-overlapping.
    pub fn canonicalize(&mut self) {
        self.ranges.sort_unstable();
        let mut merged: Vec<(char, char)> = Vec::with_capacity(self.ranges.len());
        for &(lo, hi) in &self.ranges {
            match merged.last_mut() {
                Some(last) if next_char(last.1).is_some_and(|n| lo <= n) => {
                    if hi > last.1 {
                        last.1 = hi;
                    }
                }
                _ => merged.push((lo, hi)),
            }
        }
        if self.negated {
            self.ranges = complement(&merged);
            self.negated = false;
        } else {
            self.ranges = merged;
        }
    }

    /// Whether the (canonical) set contains `c`.
    pub fn contains(&self, c: char) -> bool {
        debug_assert!(!self.negated, "contains() requires a canonical class");
        self.ranges
            .binary_search_by(|&(lo, hi)| {
                if c < lo {
                    std::cmp::Ordering::Greater
                } else if c > hi {
                    std::cmp::Ordering::Less
                } else {
                    std::cmp::Ordering::Equal
                }
            })
            .is_ok()
    }

    /// Extends the set with the case-folded counterparts of ASCII letters.
    pub fn case_fold(&mut self) {
        let mut extra = Vec::new();
        for &(lo, hi) in &self.ranges {
            // Lowercase letters overlapping [a-z] gain the uppercase twin.
            let l = lo.max('a');
            let h = hi.min('z');
            if l <= h {
                extra.push((to_upper(l), to_upper(h)));
            }
            // Uppercase letters overlapping [A-Z] gain the lowercase twin.
            let l = lo.max('A');
            let h = hi.min('Z');
            if l <= h {
                extra.push((to_lower(l), to_lower(h)));
            }
        }
        self.ranges.extend(extra);
    }
}

impl Default for ClassSet {
    fn default() -> Self {
        Self::new()
    }
}

fn to_upper(c: char) -> char {
    c.to_ascii_uppercase()
}

fn to_lower(c: char) -> char {
    c.to_ascii_lowercase()
}

fn next_char(c: char) -> Option<char> {
    let mut u = c as u32 + 1;
    if u == 0xD800 {
        u = 0xE000; // skip the surrogate gap
    }
    char::from_u32(u)
}

fn prev_char(c: char) -> Option<char> {
    if c == '\0' {
        return None;
    }
    let mut u = c as u32 - 1;
    if u == 0xDFFF {
        u = 0xD7FF;
    }
    char::from_u32(u)
}

/// Complements a sorted, merged range list over the full `char` space.
fn complement(ranges: &[(char, char)]) -> Vec<(char, char)> {
    let mut out = Vec::with_capacity(ranges.len() + 1);
    let mut next_lo = '\0';
    let mut exhausted = false;
    for &(lo, hi) in ranges {
        if let Some(p) = prev_char(lo) {
            if next_lo <= p {
                out.push((next_lo, p));
            }
        }
        match next_char(hi) {
            Some(n) => next_lo = n,
            None => {
                exhausted = true;
                break;
            }
        }
    }
    if !exhausted {
        out.push((next_lo, char::MAX));
    }
    out
}

impl Ast {
    /// Builds a concatenation, flattening trivial cases.
    pub fn concat(mut parts: Vec<Ast>) -> Ast {
        parts.retain(|p| !matches!(p, Ast::Empty));
        match parts.len() {
            0 => Ast::Empty,
            1 => parts.pop().expect("len checked"),
            _ => Ast::Concat(parts),
        }
    }

    /// Builds an alternation, flattening the single-arm case.
    pub fn alternate(mut arms: Vec<Ast>) -> Ast {
        match arms.len() {
            0 => Ast::Empty,
            1 => arms.pop().expect("len checked"),
            _ => Ast::Alternate(arms),
        }
    }

    /// Number of capturing groups contained in this AST.
    pub fn capture_count(&self) -> u32 {
        match self {
            Ast::Group { index, inner } => u32::from(index.is_some()) + inner.capture_count(),
            Ast::Concat(parts) | Ast::Alternate(parts) => {
                parts.iter().map(Ast::capture_count).sum()
            }
            Ast::Repeat { inner, .. } => inner.capture_count(),
            _ => 0,
        }
    }
}

impl fmt::Display for Ast {
    /// Renders the AST back to pattern syntax (used for diagnostics).
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Ast::Empty => Ok(()),
            Ast::Literal(c) => {
                if is_meta(*c) {
                    write!(f, "\\{c}")
                } else {
                    write!(f, "{c}")
                }
            }
            Ast::AnyChar => write!(f, "."),
            Ast::Class(set) => {
                write!(f, "[")?;
                if set.negated {
                    write!(f, "^")?;
                }
                for &(lo, hi) in &set.ranges {
                    if lo == hi {
                        write!(f, "{}", escape_in_class(lo))?;
                    } else {
                        write!(f, "{}-{}", escape_in_class(lo), escape_in_class(hi))?;
                    }
                }
                write!(f, "]")
            }
            Ast::StartAnchor => write!(f, "^"),
            Ast::EndAnchor => write!(f, "$"),
            Ast::Group { index, inner } => {
                if index.is_some() {
                    write!(f, "({inner})")
                } else {
                    write!(f, "(?:{inner})")
                }
            }
            Ast::Concat(parts) => {
                for p in parts {
                    if matches!(p, Ast::Alternate(_)) {
                        write!(f, "(?:{p})")?;
                    } else {
                        write!(f, "{p}")?;
                    }
                }
                Ok(())
            }
            Ast::Alternate(arms) => {
                for (i, a) in arms.iter().enumerate() {
                    if i > 0 {
                        write!(f, "|")?;
                    }
                    write!(f, "{a}")?;
                }
                Ok(())
            }
            Ast::Repeat { inner, min, max, greedy } => {
                let needs_group = !matches!(
                    **inner,
                    Ast::Literal(_) | Ast::AnyChar | Ast::Class(_) | Ast::Group { .. }
                );
                if needs_group {
                    write!(f, "(?:{inner})")?;
                } else {
                    write!(f, "{inner}")?;
                }
                match (min, max) {
                    (0, Some(1)) => write!(f, "?")?,
                    (0, None) => write!(f, "*")?,
                    (1, None) => write!(f, "+")?,
                    (m, Some(n)) if m == n => write!(f, "{{{m}}}")?,
                    (m, Some(n)) => write!(f, "{{{m},{n}}}")?,
                    (m, None) => write!(f, "{{{m},}}")?,
                }
                if !greedy {
                    write!(f, "?")?;
                }
                Ok(())
            }
        }
    }
}

/// Whether `c` is a pattern metacharacter that must be escaped in a literal.
pub fn is_meta(c: char) -> bool {
    matches!(c, '\\' | '.' | '+' | '*' | '?' | '(' | ')' | '|' | '[' | ']' | '{' | '}' | '^' | '$')
}

fn escape_in_class(c: char) -> String {
    match c {
        '\\' | ']' | '^' | '-' => format!("\\{c}"),
        _ => c.to_string(),
    }
}

/// Escapes `text` so it matches itself literally inside a pattern.
pub fn escape(text: &str) -> String {
    let mut out = String::with_capacity(text.len());
    for c in text.chars() {
        if is_meta(c) {
            out.push('\\');
        }
        out.push(c);
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn class_canonicalize_merges_overlaps() {
        let mut set = ClassSet::new();
        set.push_range('a', 'f');
        set.push_range('d', 'k');
        set.push_char('m');
        set.canonicalize();
        assert_eq!(set.ranges, vec![('a', 'k'), ('m', 'm')]);
    }

    #[test]
    fn class_canonicalize_merges_adjacent() {
        let mut set = ClassSet::new();
        set.push_range('a', 'c');
        set.push_range('d', 'f');
        set.canonicalize();
        assert_eq!(set.ranges, vec![('a', 'f')]);
    }

    #[test]
    fn class_negation_resolves() {
        let mut set = ClassSet::new();
        set.push_char('b');
        set.negated = true;
        set.canonicalize();
        assert!(!set.negated);
        assert!(set.contains('a'));
        assert!(!set.contains('b'));
        assert!(set.contains('c'));
        assert!(set.contains('\0'));
        assert!(set.contains(char::MAX));
    }

    #[test]
    fn class_negate_full_space_is_empty() {
        let mut set = ClassSet::new();
        set.push_range('\0', char::MAX);
        set.negated = true;
        set.canonicalize();
        assert!(set.ranges.is_empty());
    }

    #[test]
    fn class_contains_binary_search() {
        let mut set = ClassSet::word();
        set.canonicalize();
        assert!(set.contains('a'));
        assert!(set.contains('Z'));
        assert!(set.contains('_'));
        assert!(set.contains('5'));
        assert!(!set.contains(' '));
        assert!(!set.contains('-'));
    }

    #[test]
    fn case_fold_adds_twins() {
        let mut set = ClassSet::new();
        set.push_range('a', 'c');
        set.case_fold();
        set.canonicalize();
        assert!(set.contains('A'));
        assert!(set.contains('b'));
        assert!(set.contains('C'));
        assert!(!set.contains('d'));
    }

    #[test]
    fn capture_count_nested() {
        let ast = Ast::Concat(vec![
            Ast::Group {
                index: Some(1),
                inner: Box::new(Ast::Group { index: Some(2), inner: Box::new(Ast::Literal('a')) }),
            },
            Ast::Group { index: None, inner: Box::new(Ast::Literal('b')) },
        ]);
        assert_eq!(ast.capture_count(), 2);
    }

    #[test]
    fn escape_round_trips_meta() {
        assert_eq!(escape("a.b*c"), "a\\.b\\*c");
        assert_eq!(escape("plain"), "plain");
    }

    #[test]
    fn display_renders_quantifiers() {
        let ast =
            Ast::Repeat { inner: Box::new(Ast::Literal('s')), min: 0, max: Some(1), greedy: true };
        assert_eq!(ast.to_string(), "s?");
    }
}
