//! # rulekit-bench
//!
//! The experiment harness: regenerates every table, figure and empirical
//! claim in the paper (see DESIGN.md §3 for the index). Serving-stack
//! performance is measured by `benchmark/`, not here.
//!
//! Run everything with:
//!
//! ```text
//! cargo run -p rulekit-bench --bin experiments --release -- all
//! ```

pub mod exp;
pub mod setup;
pub mod table;

pub use setup::Scale;
