//! # rulekit-em
//!
//! The §6 entity-matching substrate: predicate library (attribute equality,
//! numeric tolerance, q-gram/token Jaccard), conjunctive match/non-match
//! rules under two combination semantics (decision-list vs declarative —
//! the §5.3 order-independence question), key-based multi-pass blocking,
//! a parallel matcher over candidate pairs, and duplicate synthesis for
//! labeled evaluation corpora.

#![forbid(unsafe_code)]

pub mod blocking;
pub mod dsl;
pub mod matcher;
pub mod predicate;
pub mod rules;

pub use blocking::{candidate_pairs, multi_pass_pairs, BlockingKey};
pub use dsl::{parse_match_rule, parse_match_rules, EmParseError};
pub use matcher::{
    order_sensitivity, run_matcher, sample_items, synthesize_duplicates, DedupCorpus, MatchReport,
};
pub use predicate::Predicate;
pub use rules::{MatchAction, MatchRule, RuleMatcher, Semantics};
