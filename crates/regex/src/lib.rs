//! # rulekit-regex
//!
//! A from-scratch regular-expression engine powering the rulekit rule
//! languages (whitelist/blacklist classification rules, extraction rules,
//! generalized `\syn` rules).
//!
//! The engine is a classic three-stage design: recursive-descent
//! [`parser`](crate::parser), Thompson [`nfa`](crate::nfa) compiler, and a
//! [Pike VM](crate::pikevm) executor with capture tracking. Matching is
//! worst-case linear in `text × program` — a hard requirement when a
//! production system executes tens of thousands of analyst-written rules on
//! every incoming item (SIGMOD'15 §4, "Rule Execution and Optimization").
//! The boolean query rule execution asks, [`Regex::is_match`], runs on a
//! [lazy DFA](crate::dfa) in front of the Pike VM; it is built by a regex's
//! first search and sized so that a server can hold one per rule pattern.
//!
//! Beyond matching, the crate provides the two analyses the rule-management
//! layers need:
//!
//! * [`literal_cnf`] — required-literal extraction used by the rule index to
//!   skip rules that cannot possibly match a given title (a compiled
//!   [`Regex`] keeps its own, [`Regex::required_literals`]);
//! * [`touch_subset`] — language containment used by rule maintenance to
//!   detect subsumed rules (`jeans?` subsumes `denim.*jeans?`), over ASTs
//!   the caller parses from [`Regex::pattern`].
//!
//! plus the [`AhoCorasick`] multi-pattern literal matcher the literal-scan
//! rule executor uses to find every rule's required literals in one pass
//! over a title.
//!
//! ## Example
//!
//! ```
//! use rulekit_regex::Regex;
//!
//! // The paper's §3.3 whitelist rule pattern for product type "rings".
//! let re = Regex::case_insensitive("rings?").unwrap();
//! assert!(re.is_match("Platinaire Diamond Accent Ring"));
//!
//! // Capture groups, as used by the §5.1 synonym finder.
//! let re = Regex::new(r"(\w+) oils?").unwrap();
//! let caps = re.captures("quaker state motor oil 5qt").unwrap();
//! assert_eq!(caps.get(1).unwrap().as_str(), "motor");
//! ```

#![forbid(unsafe_code)]

pub mod aho;
pub mod ast;
pub mod contain;
pub mod dfa;
pub mod literals;
pub mod nfa;
pub mod parser;
pub mod pikevm;

pub use aho::AhoCorasick;
pub use ast::{escape, Ast};
pub use contain::{touch_subset, Containment};
pub use literals::{best_disjunction, best_indexable_disjunction, literal_cnf, Disjunction};

use nfa::{CompileOptions, Program};
use std::fmt;
use std::sync::{Arc, OnceLock};

/// Errors produced while building a [`Regex`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Error {
    /// Syntax error in the pattern.
    Parse {
        /// Character offset where parsing failed.
        offset: usize,
        /// Human-readable description.
        message: String,
    },
    /// The compiled program would exceed internal size limits.
    TooLarge,
}

impl fmt::Display for Error {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Error::Parse { offset, message } => {
                write!(f, "pattern syntax error at offset {offset}: {message}")
            }
            Error::TooLarge => write!(f, "compiled pattern exceeds size limits"),
        }
    }
}

impl std::error::Error for Error {}

/// Regex build options.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Options {
    /// Fold ASCII case (`a` matches `A`). Analyst rules are written against
    /// lowercased titles, but extraction rules may want exact case.
    pub case_insensitive: bool,
}

/// A compiled regular expression.
///
/// Cheap to clone (the compiled program is shared). A rule set holds tens of
/// thousands of these, so a regex keeps only what matching and the rule
/// index read: its text, one flat program and its DFA cell. The AST is
/// dropped once compiled.
#[derive(Clone)]
pub struct Regex {
    /// The pattern, followed by its required-literal CNF as
    /// [`literals::pack`] writes it.
    text: Arc<str>,
    /// Byte length of the pattern at the front of `text`.
    pattern_len: u32,
    program: Arc<Program>,
    /// Lazy DFA for the boolean confirmation path, built by the first
    /// [`Regex::is_match`]: a regex that is parsed but never searched (a
    /// replica's rule, a disabled rule, a store being replayed) holds only
    /// this empty cell. `None` inside when the program is too large or its
    /// alphabet too fragmented (see [`dfa`]). Shared by clones so the
    /// memoized state cache warms once per pattern.
    dfa: Arc<OnceLock<Option<Box<dfa::LazyDfa>>>>,
    options: Options,
}

impl Regex {
    /// Compiles `pattern` with default options (case-sensitive).
    pub fn new(pattern: &str) -> Result<Regex, Error> {
        Regex::with_options(pattern, Options::default())
    }

    /// Compiles `pattern` with ASCII case folding — the mode analyst
    /// classification rules use.
    pub fn case_insensitive(pattern: &str) -> Result<Regex, Error> {
        Regex::with_options(pattern, Options { case_insensitive: true })
    }

    /// Compiles `pattern` with explicit `options`.
    pub fn with_options(pattern: &str, options: Options) -> Result<Regex, Error> {
        let pattern_len = u32::try_from(pattern.len()).map_err(|_| Error::TooLarge)?;
        let ast = parser::parse(pattern)?;
        let program =
            nfa::compile(&ast, CompileOptions { case_insensitive: options.case_insensitive })?;
        let mut text = String::from(pattern);
        literals::pack(&literal_cnf(&ast, options.case_insensitive), &mut text);
        Ok(Regex {
            text: Arc::from(text),
            pattern_len,
            program: Arc::new(program),
            dfa: Arc::default(),
            options,
        })
    }

    fn dfa(&self) -> Option<&dfa::LazyDfa> {
        self.dfa.get_or_init(|| dfa::LazyDfa::new(self.program.clone()).map(Box::new)).as_deref()
    }

    /// The source pattern.
    pub fn pattern(&self) -> &str {
        &self.text[..self.pattern_len as usize]
    }

    /// Build options this regex was compiled with.
    pub fn options(&self) -> Options {
        self.options
    }

    /// Number of capturing groups (excluding the implicit whole-match group).
    pub fn capture_count(&self) -> u32 {
        self.program.captures
    }

    /// Whether the pattern matches anywhere in `text`.
    ///
    /// Runs on the lazy DFA (built on the first call; memoized subset
    /// construction, allocation-free once warm) and falls back to the Pike
    /// VM when the DFA is unavailable or its bounded state cache thrashes.
    /// Capture extraction ([`Regex::find`], [`Regex::captures`]) always uses
    /// the Pike VM.
    pub fn is_match(&self, text: &str) -> bool {
        if let Some(verdict) = self.try_match_dfa(text) {
            return verdict;
        }
        pikevm::exec(&self.program, text, 0, true).is_some()
    }

    /// The DFA's answer alone, bypassing the Pike VM fallback: `None` when
    /// this pattern has no DFA or the search gave up. Exposed for the
    /// differential test suites; production code wants [`Regex::is_match`].
    #[doc(hidden)]
    pub fn try_match_dfa(&self, text: &str) -> Option<bool> {
        self.dfa()?.is_match(text)
    }

    /// Whether `other` is a clone of this regex (or this one of it): the two
    /// share one DFA and one warm state cache. Probe for the memo tests.
    #[doc(hidden)]
    pub fn shares_dfa_with(&self, other: &Regex) -> bool {
        Arc::ptr_eq(&self.dfa, &other.dfa)
    }

    /// Whether no clone of this regex is alive — a compile memo holding the
    /// only handle may forget it.
    #[doc(hidden)]
    pub fn is_unique(&self) -> bool {
        Arc::strong_count(&self.dfa) == 1
    }

    /// Leftmost-first match, if any.
    pub fn find<'t>(&self, text: &'t str) -> Option<Match<'t>> {
        self.find_at(text, 0)
    }

    /// Leftmost-first match starting at or after byte offset `start`.
    ///
    /// # Panics
    /// Panics if `start` is not a char boundary of `text`.
    pub fn find_at<'t>(&self, text: &'t str, start: usize) -> Option<Match<'t>> {
        assert!(text.is_char_boundary(start), "start must lie on a char boundary");
        let slots = pikevm::exec(&self.program, text, start, false)?;
        Some(Match {
            text,
            start: slots[0].expect("slot 0 set on match"),
            end: slots[1].expect("slot 1 set on match"),
        })
    }

    /// Iterator over all non-overlapping matches.
    pub fn find_iter<'r, 't>(&'r self, text: &'t str) -> FindIter<'r, 't> {
        FindIter { regex: self, text, next_start: 0, done: false }
    }

    /// Leftmost-first match with capture groups.
    pub fn captures<'t>(&self, text: &'t str) -> Option<Captures<'t>> {
        self.captures_at(text, 0)
    }

    /// Like [`Regex::captures`], starting at byte offset `start`.
    pub fn captures_at<'t>(&self, text: &'t str, start: usize) -> Option<Captures<'t>> {
        assert!(text.is_char_boundary(start), "start must lie on a char boundary");
        let slots = pikevm::exec(&self.program, text, start, false)?;
        Some(Captures { text, slots })
    }

    /// Required-literal CNF for indexing (see [`literals`]), derived when
    /// the regex was compiled.
    pub fn required_literals(&self) -> Vec<Disjunction> {
        literals::unpack(&self.text[self.pattern_len as usize..])
    }
}

impl fmt::Debug for Regex {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Regex")
            .field("pattern", &self.pattern())
            .field("case_insensitive", &self.options.case_insensitive)
            .finish()
    }
}

impl fmt::Display for Regex {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.pattern())
    }
}

/// A single match: a byte range of the haystack.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Match<'t> {
    text: &'t str,
    start: usize,
    end: usize,
}

impl<'t> Match<'t> {
    /// Byte offset of the match start.
    pub fn start(&self) -> usize {
        self.start
    }

    /// Byte offset one past the match end.
    pub fn end(&self) -> usize {
        self.end
    }

    /// The matched text.
    pub fn as_str(&self) -> &'t str {
        &self.text[self.start..self.end]
    }

    /// The match as a byte range.
    pub fn range(&self) -> std::ops::Range<usize> {
        self.start..self.end
    }

    /// Whether the match is empty.
    pub fn is_empty(&self) -> bool {
        self.start == self.end
    }
}

/// Capture groups of a single match. Group 0 is the whole match.
#[derive(Debug, Clone)]
pub struct Captures<'t> {
    text: &'t str,
    slots: Box<[Option<usize>]>,
}

impl<'t> Captures<'t> {
    /// The `i`-th group, if it participated in the match.
    pub fn get(&self, i: usize) -> Option<Match<'t>> {
        let start = *self.slots.get(2 * i)?;
        let end = *self.slots.get(2 * i + 1)?;
        match (start, end) {
            (Some(s), Some(e)) => Some(Match { text: self.text, start: s, end: e }),
            _ => None,
        }
    }

    /// Number of groups, including group 0.
    pub fn len(&self) -> usize {
        self.slots.len() / 2
    }

    /// Always false — a `Captures` has at least group 0.
    pub fn is_empty(&self) -> bool {
        false
    }
}

/// Iterator over non-overlapping matches, advancing past each match (or by
/// one character after an empty match).
pub struct FindIter<'r, 't> {
    regex: &'r Regex,
    text: &'t str,
    next_start: usize,
    done: bool,
}

impl<'t> Iterator for FindIter<'_, 't> {
    type Item = Match<'t>;

    fn next(&mut self) -> Option<Match<'t>> {
        if self.done {
            return None;
        }
        let m = self.regex.find_at(self.text, self.next_start)?;
        if m.end == m.start {
            // Empty match: step one char forward to guarantee progress.
            match self.text[m.end..].chars().next() {
                Some(c) => self.next_start = m.end + c.len_utf8(),
                None => self.done = true,
            }
        } else {
            self.next_start = m.end;
        }
        Some(m)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn find_iter_non_overlapping() {
        let re = Regex::new("aa").unwrap();
        let spans: Vec<_> = re.find_iter("aaaa").map(|m| m.range()).collect();
        assert_eq!(spans, vec![0..2, 2..4]);
    }

    #[test]
    fn find_iter_empty_matches_progress() {
        let re = Regex::new("a*").unwrap();
        let spans: Vec<_> = re.find_iter("ab").map(|m| m.range()).collect();
        assert_eq!(spans, vec![0..1, 1..1, 2..2]);
    }

    #[test]
    fn case_insensitive_matching() {
        let re = Regex::case_insensitive("wedding band").unwrap();
        assert!(re.is_match("Sterling Silver WEDDING BAND size 7"));
        assert!(!Regex::new("wedding band").unwrap().is_match("WEDDING BAND"));
    }

    #[test]
    fn captures_access() {
        let re = Regex::new("(a)(b)?").unwrap();
        let caps = re.captures("a").unwrap();
        assert_eq!(caps.len(), 3);
        assert_eq!(caps.get(0).unwrap().as_str(), "a");
        assert_eq!(caps.get(1).unwrap().as_str(), "a");
        assert!(caps.get(2).is_none());
        assert!(caps.get(9).is_none());
    }

    #[test]
    fn match_accessors() {
        let re = Regex::new("ring").unwrap();
        let m = re.find("a ring!").unwrap();
        assert_eq!((m.start(), m.end()), (2, 6));
        assert_eq!(m.as_str(), "ring");
        assert!(!m.is_empty());
    }

    #[test]
    fn display_and_debug() {
        let re = Regex::case_insensitive("rings?").unwrap();
        assert_eq!(re.to_string(), "rings?");
        assert!(format!("{re:?}").contains("rings?"));
    }

    #[test]
    fn required_literals_survive_the_dropped_ast() {
        for (pattern, ci) in [
            ("(motor|engine) oils?", true),
            ("Ring", false),
            (r"\w+", true),
            ("12:34;;(a|b)", false),
            ("", true),
        ] {
            let re = Regex::with_options(pattern, Options { case_insensitive: ci }).unwrap();
            let ast = parser::parse(pattern).unwrap();
            assert_eq!(re.required_literals(), literal_cnf(&ast, ci), "{pattern:?}");
            assert_eq!(re.pattern(), pattern);
        }
    }

    #[test]
    fn clone_shares_program() {
        let re = Regex::new("rings?").unwrap();
        let re2 = re.clone();
        assert!(re2.is_match("ring"));
        assert_eq!(re.pattern(), re2.pattern());
    }

    #[test]
    fn error_display() {
        let err = Regex::new("(a").unwrap_err();
        assert!(err.to_string().contains("syntax error"));
    }

    #[test]
    #[should_panic(expected = "char boundary")]
    fn find_at_rejects_mid_char_offsets() {
        let re = Regex::new("a").unwrap();
        let _ = re.find_at("héllo", 2);
    }
}
