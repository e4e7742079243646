//! # rulekit-gen
//!
//! The paper's two §5 rule-generation tools, reproduced end to end:
//!
//! * [`synonym`] — the §5.1 interactive synonym finder: `\syn`-marked rule
//!   patterns, generalized-regex candidate extraction, TF/IDF context
//!   ranking, Rocchio feedback re-ranking, and an analyst-in-the-loop
//!   session driver (with [`analyst::ScriptedAnalyst`] standing in for the
//!   WalmartLabs analysts).
//! * [`mining`] + [`select`] + [`pipeline`] — the §5.2 rule generator:
//!   AprioriAll frequent-sequence mining over labeled titles, `a1.*a2.*…→t`
//!   rule materialization, a training-error filter, the paper's confidence
//!   score, and the `Greedy` / `Greedy-Biased` selection algorithms
//!   (Algorithms 1 and 2) with the high/low-confidence split at α.

#![forbid(unsafe_code)]

pub mod analyst;
pub mod mining;
pub mod pipeline;
pub mod select;
pub mod synonym;

pub use analyst::{CrowdOracle, ScriptedAnalyst};
pub use mining::{
    contains_sequence, mine_sequences, sequence_pattern, tokenize_titles, FrequentSequence,
    MiningConfig,
};
pub use pipeline::{generate_rules, GeneratedRule, RuleGenConfig, RuleGenReport, Tier};
pub use select::{confidence, greedy, greedy_biased, CandidateRule, ConfidenceWeights, Selection};
pub use synonym::{
    AnalystOracle, Candidate, SessionOutcome, SynPattern, SynonymConfig, SynonymSession,
};
