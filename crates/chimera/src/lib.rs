//! # rulekit-chimera
//!
//! The end-to-end Chimera pipeline (Figure 2): Gate Keeper, rule-based and
//! attribute/value classifiers, the learning ensemble, the Voting Master
//! and Filter, crowd-sampled QA against the 92% precision gate, the
//! Analysis stage that turns flagged pairs into rules and training data,
//! and the scale-down/restore controls driven by per-type drift alarms.
//!
//! [`Chimera`] owns the rule stores, the training data and the QA loop, and
//! classifies through one cached [`PipelineSnapshot`] — the object it also
//! hands the serving tier — so Figure 2's classify path exists once.

#![forbid(unsafe_code)]

pub mod analysis;
pub mod metrics;
pub mod obs;
pub mod pipeline;
pub mod snapshot;
pub mod voting;

pub use analysis::{AnalysisOutcome, SimulatedAnalysis};
pub use metrics::OracleMetrics;
pub use obs::{InferMetrics, PipelineMetrics};
pub use pipeline::{BatchReport, Chimera, ChimeraConfig};
pub use snapshot::{PipelineSnapshot, SnapshotDecision};
pub use voting::{vote, Decision, VotingConfig};
