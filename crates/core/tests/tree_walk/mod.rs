//! The reference semantics of a [`Condition`]: a readable tree-walk over the
//! condition, evaluated against a prepared product. The library evaluates
//! every condition as bytecode; the differential suites check that bytecode
//! — and the engines built on it — against this walk.

use rulekit_core::{Condition, PreparedProduct};

/// Whether `condition` holds on `product`.
pub fn matches(condition: &Condition, product: &PreparedProduct<'_>) -> bool {
    match condition {
        Condition::TitleMatches(re) => re.is_match(&product.product().title),
        Condition::AttrExists(name) => product.product().has_attr(name),
        Condition::AttrValueIn { attr, values } => product
            .attr_value_lower(attr)
            .map(|lowered| values.iter().any(|v| v == lowered))
            .unwrap_or(false),
        Condition::NumCompare { attr, op, value } => {
            product.attr_num(attr).map(|v| op.apply(v, *value)).unwrap_or(false)
        }
        Condition::InDictionary(dict) => dict.matches_title_lower(product.title_lower()),
        Condition::All(conds) => conds.iter().all(|c| matches(c, product)),
        Condition::Expr(ce) => ce.matches_prepared(product),
    }
}
