//! The rule model: conditions, actions, metadata.
//!
//! Covers every rule species the paper describes:
//!
//! * **whitelist** rules `r → t` (§3.3) — [`RuleAction::Assign`];
//! * **blacklist** rules `r → NOT t` (§3.3) — [`RuleAction::Forbid`];
//! * **attribute rules** ("has ISBN ⇒ Books", §3.3) — [`Condition::AttrExists`];
//! * **value rules** ("Brand Name = Apple ⇒ one of {laptop, phone, …}",
//!   §3.3) — [`Condition::AttrValueIn`] + [`RuleAction::Restrict`];
//! * the **extended language** of §4 ("title contains 'Apple' but price
//!   < $100 ⇒ NOT phone"; "title contains a dictionary word ⇒ PC or
//!   laptop") — [`Condition::All`], [`Condition::NumCompare`],
//!   [`Condition::InDictionary`].

use crate::expr::ExecContext;
use crate::prepared::{fold_lower, PreparedProduct};
use rulekit_data::{Product, TypeId};
use rulekit_regex::Regex;
use std::collections::HashSet;
use std::fmt;
use std::sync::Arc;

/// Unique rule identifier within a repository.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct RuleId(pub u64);

impl fmt::Display for RuleId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "rule#{}", self.0)
    }
}

/// A named word dictionary referenced by [`Condition::InDictionary`].
#[derive(Debug, Clone)]
pub struct Dictionary {
    /// Dictionary name (as written in the DSL).
    pub name: String,
    /// Lowercased member words/phrases.
    pub entries: HashSet<String>,
}

impl Dictionary {
    /// Builds a dictionary, case-folding entries (context-free, matching
    /// the fold applied to prepared titles).
    pub fn new(
        name: impl Into<String>,
        entries: impl IntoIterator<Item = impl AsRef<str>>,
    ) -> Self {
        Dictionary {
            name: name.into(),
            entries: entries.into_iter().map(|e| fold_lower(e.as_ref()).into_owned()).collect(),
        }
    }

    /// Whether the already case-folded `lowered` title contains any entry
    /// as a substring.
    pub fn matches_title_lower(&self, lowered: &str) -> bool {
        self.entries.iter().any(|e| lowered.contains(e.as_str()))
    }
}

/// Numeric comparison operators for attribute predicates.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CompareOp {
    /// `<`
    Lt,
    /// `<=`
    Le,
    /// `>`
    Gt,
    /// `>=`
    Ge,
    /// `=` — **approximate** equality within an absolute tolerance of
    /// `1e-9`. Analyst rules compare feed strings like `"19.99"` against
    /// decimal constants, and the nearest-f64 representations of the two
    /// sides can differ in the last bits; the epsilon absorbs that. The
    /// consequence is that values closer than `1e-9` are indistinguishable:
    /// `price = 20` does *not* fire on `"19.999999999"` (a full `1e-9`
    /// away) but does on `"19.9999999999"`. Use [`CompareOp::EqExact`]
    /// (spelled `==`) when bit-exact comparison is wanted — e.g. integer
    /// ids and counts, which f64 represents exactly up to 2⁵³.
    Eq,
    /// `==` — exact numeric equality, no epsilon (the expression
    /// language's `==` compiles to this).
    EqExact,
}

impl CompareOp {
    /// Applies the comparison. See [`CompareOp::Eq`] for the epsilon
    /// semantics of `=` vs `==`.
    pub fn apply(self, lhs: f64, rhs: f64) -> bool {
        match self {
            CompareOp::Lt => lhs < rhs,
            CompareOp::Le => lhs <= rhs,
            CompareOp::Gt => lhs > rhs,
            CompareOp::Ge => lhs >= rhs,
            CompareOp::Eq => (lhs - rhs).abs() < 1e-9,
            CompareOp::EqExact => lhs == rhs,
        }
    }
}

impl fmt::Display for CompareOp {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            CompareOp::Lt => "<",
            CompareOp::Le => "<=",
            CompareOp::Gt => ">",
            CompareOp::Ge => ">=",
            CompareOp::Eq => "=",
            CompareOp::EqExact => "==",
        })
    }
}

/// A rule condition over a product record.
#[derive(Debug, Clone)]
pub enum Condition {
    /// The title matches a (case-insensitive) pattern.
    TitleMatches(Regex),
    /// The product carries an attribute with this name.
    AttrExists(String),
    /// The named attribute's value equals one of these (case-insensitive).
    AttrValueIn {
        /// Attribute name.
        attr: String,
        /// Accepted values, lowercased.
        values: Vec<String>,
    },
    /// The named attribute parses as a number and satisfies the comparison.
    NumCompare {
        /// Attribute name (e.g. "Price").
        attr: String,
        /// Comparison operator.
        op: CompareOp,
        /// Right-hand side.
        value: f64,
    },
    /// The title contains a word/phrase from a named dictionary.
    InDictionary(Arc<Dictionary>),
    /// All sub-conditions hold (the §4 conjunctive extension).
    All(Vec<Condition>),
    /// A compiled expression-language predicate (the §4 "more expressive
    /// language" tier): arbitrary boolean/arithmetic structure evaluated by
    /// the stack VM. `Arc` because the same compiled program is shared by
    /// every snapshot/executor that carries the rule.
    Expr(Arc<crate::expr::CompiledExpr>),
}

impl Condition {
    /// Evaluates the condition against `product`: a one-shot compile and
    /// run of the bytecode every executor evaluates. Callers that test many
    /// products compile once ([`Condition::compile`]) and evaluate each
    /// prepared product, or build an executor.
    pub fn matches(&self, product: &Product) -> bool {
        self.compile().eval(&ExecContext::new(&PreparedProduct::new(product)))
    }

    /// The title regex, if this condition (or one of its conjuncts) has one.
    pub fn title_regex(&self) -> Option<&Regex> {
        match self {
            Condition::TitleMatches(re) => Some(re),
            Condition::All(conds) => conds.iter().find_map(Condition::title_regex),
            _ => None,
        }
    }

    /// The attribute name tested, if any (used for attribute indexing).
    pub fn attr_key(&self) -> Option<&str> {
        match self {
            Condition::AttrExists(name) => Some(name),
            Condition::AttrValueIn { attr, .. } => Some(attr),
            Condition::NumCompare { attr, .. } => Some(attr),
            Condition::All(conds) => conds.iter().find_map(Condition::attr_key),
            Condition::Expr(ce) => ce.required_attrs().first().map(String::as_str),
            _ => None,
        }
    }

    /// Conservative required-literal CNF over the case-folded title: for any
    /// product this condition matches, each inner clause has at least one
    /// literal occurring as a substring of the folded title. An empty outer
    /// vector means "no requirement" (the condition may match titles
    /// containing none of our literals). This is the admission interface
    /// the literal-scan executor (`core::engine`) uses, across every
    /// condition species:
    ///
    /// * `TitleMatches` — the regex's own required-literal analysis;
    /// * `InDictionary` — the entry set is one disjunction (the title must
    ///   contain *some* entry), unless any entry is empty;
    /// * `All` — the union of the conjuncts' clauses (each holds
    ///   independently);
    /// * `Expr` — the CNF extracted at compile time (negation drops
    ///   requirements, disjunction merges clause-pairwise);
    /// * everything else — no requirement.
    pub fn required_literal_cnf(&self) -> Vec<Vec<String>> {
        match self {
            Condition::TitleMatches(re) => re.required_literals(),
            Condition::InDictionary(dict) => {
                if dict.entries.is_empty() || dict.entries.iter().any(|e| e.is_empty()) {
                    return Vec::new();
                }
                let mut clause: Vec<String> = dict.entries.iter().cloned().collect();
                clause.sort();
                vec![clause]
            }
            Condition::All(conds) => {
                conds.iter().flat_map(Condition::required_literal_cnf).collect()
            }
            Condition::Expr(ce) => ce.required_literals().to_vec(),
            _ => Vec::new(),
        }
    }

    /// Compiles this condition to stack bytecode — the unified IR every
    /// executor evaluates. `Expr` conditions return their already-compiled
    /// program (shared, not recompiled); legacy variants are lowered through
    /// dedicated opcodes that reproduce the interpreted semantics exactly
    /// (including `CompareOp::Eq`'s epsilon).
    pub fn compile(&self) -> Arc<crate::expr::Program> {
        crate::expr::compile_condition(self)
    }
}

impl fmt::Display for Condition {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Condition::TitleMatches(re) => write!(f, "title({})", re.pattern()),
            Condition::AttrExists(name) => write!(f, "attr({name})"),
            Condition::AttrValueIn { attr, values } => {
                write!(f, "value({attr} = {})", values.join(" | "))
            }
            Condition::NumCompare { attr, op, value } => write!(f, "num({attr}) {op} {value}"),
            Condition::InDictionary(d) => write!(f, "dict({})", d.name),
            Condition::Expr(ce) => write!(f, "expr({})", ce.source()),
            Condition::All(conds) => {
                for (i, c) in conds.iter().enumerate() {
                    if i > 0 {
                        write!(f, " and ")?;
                    }
                    write!(f, "{c}")?;
                }
                Ok(())
            }
        }
    }
}

/// The consequent of a fact-inference rule: the derived fact written into
/// working memory (and, at fixpoint, appended to the product as an
/// attribute). Confidence is stored in parts-per-million so the action
/// stays `Eq`-comparable.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct InferFact {
    /// Fact name (case-folded at parse time).
    pub name: String,
    /// Fact value (case-folded at parse time).
    pub value: String,
    /// Confidence in parts per million (`1_000_000` = certain).
    pub confidence_ppm: u32,
    /// Conflict-resolution priority: when several rules derive the same
    /// fact name in one round, higher priority wins.
    pub priority: i32,
}

impl InferFact {
    /// Confidence as a float in `[0, 1]`.
    pub fn confidence(&self) -> f64 {
        self.confidence_ppm as f64 / 1_000_000.0
    }
}

/// What a rule does when its condition fires.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum RuleAction {
    /// Whitelist: assign the type.
    Assign(TypeId),
    /// Blacklist: the item is NOT this type.
    Forbid(TypeId),
    /// Restriction: the type must be one of these (the "Brand Name = Apple"
    /// value-rule semantics of §3.3).
    Restrict(Vec<TypeId>),
    /// Fact inference: derive a working-memory fact instead of touching the
    /// candidate type set. Evaluated by `core::infer`, never by the
    /// classification phases (the snapshot build partitions these out).
    Infer(InferFact),
}

/// Where a rule came from.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Provenance {
    /// Hand-written by a domain analyst.
    Analyst,
    /// Hand-written by a CS developer.
    Developer,
    /// Generated by the §5.2 miner from labeled data.
    Mined,
    /// Captured from downstream curation (§3.2 "Other Considerations").
    Curation,
    /// Crowd-sourced.
    Crowd,
}

/// Lifecycle status of a rule.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RuleStatus {
    /// Active in production.
    Enabled,
    /// Temporarily disabled (e.g. by a scale-down).
    Disabled,
}

/// Rule metadata.
#[derive(Debug, Clone)]
pub struct RuleMeta {
    /// Author/tool identifier.
    pub author: String,
    /// Provenance.
    pub provenance: Provenance,
    /// Status.
    pub status: RuleStatus,
    /// Confidence score in `[0, 1]` (§5.2 mined rules carry one; analyst
    /// rules default to 1.0).
    pub confidence: f64,
    /// Monotonic revision at which the rule was added.
    pub added_at: u64,
}

impl Default for RuleMeta {
    fn default() -> Self {
        RuleMeta {
            author: "analyst".to_string(),
            provenance: Provenance::Analyst,
            status: RuleStatus::Enabled,
            confidence: 1.0,
            added_at: 0,
        }
    }
}

/// A complete rule.
#[derive(Debug, Clone)]
pub struct Rule {
    /// Identifier (assigned by the repository).
    pub id: RuleId,
    /// Condition.
    pub condition: Condition,
    /// Action.
    pub action: RuleAction,
    /// Metadata.
    pub meta: RuleMeta,
    /// The DSL source line the rule was created from (used for export and
    /// analyst-facing diagnostics).
    pub source: String,
}

impl Rule {
    /// Whether the rule's condition fires on `product` (see
    /// [`Condition::matches`]).
    pub fn matches(&self, product: &Product) -> bool {
        self.condition.matches(product)
    }

    /// Whether the rule is enabled.
    pub fn is_enabled(&self) -> bool {
        self.meta.status == RuleStatus::Enabled
    }

    /// The type this rule concerns (for `Restrict`, `None`).
    pub fn target_type(&self) -> Option<TypeId> {
        match &self.action {
            RuleAction::Assign(t) | RuleAction::Forbid(t) => Some(*t),
            RuleAction::Restrict(_) | RuleAction::Infer(_) => None,
        }
    }

    /// Whether this is a whitelist rule.
    pub fn is_whitelist(&self) -> bool {
        matches!(self.action, RuleAction::Assign(_))
    }

    /// Whether this is a blacklist rule.
    pub fn is_blacklist(&self) -> bool {
        matches!(self.action, RuleAction::Forbid(_))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rulekit_data::VendorId;

    fn product(title: &str, attrs: &[(&str, &str)]) -> Product {
        Product {
            id: 1,
            title: title.to_string(),
            description: String::new(),
            attributes: attrs.iter().map(|(k, v)| (k.to_string(), v.to_string())).collect(),
            vendor: VendorId(0),
        }
    }

    fn title_cond(pattern: &str) -> Condition {
        Condition::TitleMatches(Regex::case_insensitive(pattern).unwrap())
    }

    #[test]
    fn title_condition_matches() {
        let c = title_cond("rings?");
        assert!(c.matches(&product("Diamond Accent Ring", &[])));
        assert!(!c.matches(&product("Area Rug", &[])));
    }

    #[test]
    fn attr_exists_condition() {
        let c = Condition::AttrExists("ISBN".into());
        assert!(c.matches(&product("x", &[("ISBN", "9781")])));
        assert!(c.matches(&product("x", &[("isbn", "9781")])));
        assert!(!c.matches(&product("x", &[("Pages", "300")])));
    }

    #[test]
    fn attr_value_condition() {
        let c = Condition::AttrValueIn {
            attr: "Brand Name".into(),
            values: vec!["apple".into(), "samsung".into()],
        };
        assert!(c.matches(&product("x", &[("Brand Name", "Apple")])));
        assert!(!c.matches(&product("x", &[("Brand Name", "Dell")])));
        assert!(!c.matches(&product("x", &[])));
    }

    #[test]
    fn num_compare_condition() {
        let c = Condition::NumCompare { attr: "Price".into(), op: CompareOp::Lt, value: 100.0 };
        assert!(c.matches(&product("x", &[("Price", "99.99")])));
        assert!(!c.matches(&product("x", &[("Price", "100.00")])));
        assert!(!c.matches(&product("x", &[("Price", "n/a")])));
        assert!(!c.matches(&product("x", &[])));
    }

    #[test]
    fn compare_ops() {
        assert!(CompareOp::Le.apply(5.0, 5.0));
        assert!(CompareOp::Ge.apply(5.0, 5.0));
        assert!(CompareOp::Gt.apply(6.0, 5.0));
        assert!(CompareOp::Eq.apply(5.0, 5.0));
        assert!(!CompareOp::Eq.apply(5.0, 5.1));
    }

    #[test]
    fn approximate_eq_boundary_behavior() {
        // `=` tolerates sub-epsilon differences ...
        let approx = Condition::NumCompare { attr: "Price".into(), op: CompareOp::Eq, value: 20.0 };
        assert!(approx.matches(&product("x", &[("Price", "20")])));
        assert!(approx.matches(&product("x", &[("Price", "20.0000000000")])));
        // "19.9999999999" is 1e-10 from 20 — inside the 1e-9 tolerance.
        assert!(approx.matches(&product("x", &[("Price", "19.9999999999")])));
        // "19.999999999" is a full 1e-9 from 20 — |Δ| < 1e-9 fails (the
        // nearest f64 to the difference is slightly above 1e-9).
        assert!(!approx.matches(&product("x", &[("Price", "19.999999999")])));

        // ... while `==` is bit-exact.
        let exact =
            Condition::NumCompare { attr: "Price".into(), op: CompareOp::EqExact, value: 20.0 };
        assert!(exact.matches(&product("x", &[("Price", "20")])));
        assert!(exact.matches(&product("x", &[("Price", "20.000")])));
        assert!(!exact.matches(&product("x", &[("Price", "19.9999999999")])));
        assert!(!exact.matches(&product("x", &[("Price", "19.999999999")])));
        assert_eq!(CompareOp::EqExact.to_string(), "==");
    }

    #[test]
    fn dictionary_condition() {
        let dict = Arc::new(Dictionary::new("pc_words", ["thinkpad", "ideapad"]));
        let c = Condition::InDictionary(dict);
        assert!(c.matches(&product("Lenovo ThinkPad X1", &[])));
        assert!(!c.matches(&product("Lenovo Monitor", &[])));
    }

    #[test]
    fn conjunction_paper_example() {
        // §4: "title contains 'Apple' but price < $100 ⇒ not a phone".
        let c = Condition::All(vec![
            title_cond("apple"),
            Condition::NumCompare { attr: "Price".into(), op: CompareOp::Lt, value: 100.0 },
        ]);
        assert!(c.matches(&product("Apple lightning cable", &[("Price", "19.99")])));
        assert!(!c.matches(&product("Apple iPhone", &[("Price", "899.00")])));
        assert!(!c.matches(&product("Dell cable", &[("Price", "19.99")])));
    }

    #[test]
    fn condition_introspection() {
        let c = Condition::All(vec![Condition::AttrExists("ISBN".into()), title_cond("books?")]);
        assert_eq!(c.attr_key(), Some("ISBN"));
        assert_eq!(c.title_regex().unwrap().pattern(), "books?");
    }

    #[test]
    fn expr_condition_matches_and_introspects() {
        let ce = Arc::new(crate::expr::compile(r#"price < 20 && title ~ /braided/"#).unwrap());
        let c = Condition::Expr(ce);
        assert!(c.matches(&product("Braided Rug", &[("Price", "15")])));
        assert!(!c.matches(&product("Braided Rug", &[("Price", "25")])));
        assert!(!c.matches(&product("Flat Rug", &[("Price", "15")])));
        assert_eq!(c.attr_key(), Some("Price"));
        assert_eq!(c.required_literal_cnf(), vec![vec!["braided".to_string()]]);
        assert_eq!(c.to_string(), "expr(price < 20 && title ~ /braided/)");
    }

    #[test]
    fn required_literal_cnf_across_condition_species() {
        // Regex: clause per required literal.
        assert_eq!(
            title_cond("braided rug").required_literal_cnf(),
            vec![vec!["braided rug".to_string()]]
        );
        // Dictionary: entries form one disjunction.
        let dict = Arc::new(Dictionary::new("pc", ["thinkpad", "ideapad"]));
        assert_eq!(
            Condition::InDictionary(dict).required_literal_cnf(),
            vec![vec!["ideapad".to_string(), "thinkpad".to_string()]]
        );
        // Conjunction: union of the children's clauses.
        let all = Condition::All(vec![
            title_cond("apple"),
            Condition::NumCompare { attr: "Price".into(), op: CompareOp::Lt, value: 100.0 },
        ]);
        assert_eq!(all.required_literal_cnf(), vec![vec!["apple".to_string()]]);
        // Attribute-only conditions impose nothing on the title.
        assert!(Condition::AttrExists("ISBN".into()).required_literal_cnf().is_empty());
    }

    #[test]
    fn condition_display() {
        let c = Condition::All(vec![
            title_cond("apple"),
            Condition::NumCompare { attr: "Price".into(), op: CompareOp::Lt, value: 100.0 },
        ]);
        assert_eq!(c.to_string(), "title(apple) and num(Price) < 100");
    }

    #[test]
    fn rule_kind_helpers() {
        let assign = Rule {
            id: RuleId(1),
            condition: title_cond("rings?"),
            action: RuleAction::Assign(TypeId(3)),
            meta: RuleMeta::default(),
            source: "rings? -> rings".into(),
        };
        assert!(assign.is_whitelist());
        assert!(!assign.is_blacklist());
        assert_eq!(assign.target_type(), Some(TypeId(3)));

        let restrict = Rule {
            id: RuleId(2),
            condition: Condition::AttrExists("Brand Name".into()),
            action: RuleAction::Restrict(vec![TypeId(1), TypeId(2)]),
            meta: RuleMeta::default(),
            source: String::new(),
        };
        assert_eq!(restrict.target_type(), None);
    }
}
