//! # rulekit-crowd
//!
//! A simulated crowdsourcing platform. The paper uses the crowd as a noisy,
//! priced labeling oracle: verifying `(product, predicted type)` pairs from
//! result samples (§3.3), evaluating rules (§4, Corleone-style sampling), and
//! labeling training data (§5.2). This crate reproduces exactly that
//! interface — heterogeneous worker accuracy, plurality voting, and a cost
//! ledger with optional budget — against the generator's hidden ground truth.

#![forbid(unsafe_code)]

pub mod estimate;
pub mod sim;

pub use estimate::PrecisionEstimate;
pub use sim::{CostLedger, CrowdConfig, CrowdSim, Verdict};
