//! Experiment implementations, one module per paper artifact group. See
//! DESIGN.md §3 for the experiment index.

pub mod chimera;
pub mod emie;
pub mod evaluation;
pub mod execution;
pub mod infer;
pub mod maintenance;
pub mod rulegen;
pub mod synonym;
