//! # rulekit-eval
//!
//! Rule-quality evaluation (§4 "Rule Quality Evaluation"): the three
//! methods the paper catalogues — a shared validation set, per-rule crowd
//! sampling with overlap exploitation, and module-level estimation — with
//! crowd-task cost accounting, oracle-based estimator scoring, and the §5.3
//! impactful-rule tracker.

#![forbid(unsafe_code)]

pub mod methods;
pub mod outcomes;
pub mod tracker;

pub use methods::{module_eval, per_rule_eval, validation_set_eval, EvalReport};
pub use outcomes::{compute_coverages, head_tail_split, RuleCoverage};
pub use tracker::ImpactTracker;
