//! # rulekit-core
//!
//! The rule-management core: the rule model and analyst DSL, a versioned
//! rule repository with per-type scale-down controls, rule-based
//! classification with whitelist-before-blacklist phase semantics, one
//! execution engine (the Aho-Corasick [`LiteralScanExecutor`]) checked
//! against one oracle ([`NaiveExecutor`]), forward-chaining fact inference
//! ([`InferenceEngine`]) that runs its rules on that same engine, one
//! condition evaluator (the expression VM every condition compiles to), an
//! allocation-free prepared-product match path, one scoped-thread batch
//! fan-out ([`map_chunks`]), a data-side index for rule development, and
//! mechanical audits of rule-system properties (order independence).
//!
//! This crate is the direct reproduction of §3.3's rule machinery and §4's
//! "rule languages / system properties / execution and optimization"
//! research agenda.

#![forbid(unsafe_code)]

pub mod aggregate;
pub mod batch;
pub mod classifier;
pub mod data_index;
pub mod dsl;
pub mod engine;
pub mod expr;
pub mod infer;
pub mod prepared;
pub mod properties;
pub mod repository;
pub mod rule;

pub use aggregate::{AggregateStore, QuantileSketch, RatioSeries};
pub use batch::map_chunks;
pub use classifier::{RuleClassifier, RuleVerdict};
pub use data_index::TitleIndex;
pub use dsl::{compile_pattern, ParseError, RuleParser, RuleSpec};
pub use engine::{
    execution_stats, Admission, CompiledRule, ExecMetrics, ExecutionStats, ExecutorKind,
    LiteralCnf, LiteralScanExecutor, NaiveExecutor, RuleExecutor, RuleTable,
};
pub use expr::{
    compile_condition, CompiledExpr, ExecContext, ExprCache, ExprCacheStats, ExprError, Program,
};
pub use infer::{DerivedFact, InferenceEngine, InferenceOutcome, DEFAULT_MAX_ROUNDS};
pub use prepared::PreparedProduct;
pub use properties::{audit_order_independence, OrderAudit};
pub use repository::{RepositoryStats, Revision, RuleEntry, RuleRepository, DEFAULT_LOG_CAPACITY};
pub use rule::{
    CompareOp, Condition, Dictionary, InferFact, Provenance, Rule, RuleAction, RuleId, RuleMeta,
    RuleStatus,
};
