//! # rulekit-maint
//!
//! Rule maintenance (§4 "Rule Maintenance"): detection of imprecise rules
//! (with repository quarantine), rules rendered inapplicable by taxonomy
//! changes, subsumed rules (formal regex containment + empirical coverage
//! containment), significantly-overlapping rules, consolidation/split
//! helpers with their debugging-cost trade-off, and the per-type drift
//! monitor that drives the §2.2 scale-down workflow.

pub mod drift;
pub mod lifecycle;
pub mod optimize;
pub mod overlap;
pub mod subsume;

pub use drift::{DriftAlarm, DriftMonitor};
pub use lifecycle::{
    find_imprecise, find_inapplicable, quarantine_imprecise, ImpreciseRule, InapplicableRule,
};
pub use optimize::{optimize, OptimizeOptions, OptimizeReport};
pub use overlap::{blame_branches, consolidate, find_overlaps, OverlapPair};
pub use subsume::{find_subsumptions, Evidence, Subsumption};
