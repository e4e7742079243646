//! Per-product preparation for the matching hot path.
//!
//! Case folding is hoisted to once per product: left to each layer, a
//! dictionary rule lowercases the title once *per rule* and a value rule the
//! attribute value once *per rule*, and at tens of thousands of rules those
//! allocations dominate the per-item cost the §4 index exists to remove.
//!
//! [`PreparedProduct`] folds the title and each attribute name/value a
//! single time, then is threaded by reference through
//! `RuleExecutor::matching_rules`, `Condition::matches` and
//! `RuleClassifier::classify`. Folding is per-character (context-free), so a
//! prepared literal is found in a prepared title exactly when the original
//! literal occurs in the original title under the same folding — the
//! invariant the literal-scan index relies on.
//! Already-lowercase ASCII (the common case for vendor feeds) borrows
//! instead of allocating.

use crate::aggregate::AggregateStore;
use rulekit_data::Product;
use std::borrow::Cow;
use std::sync::Arc;

/// Context-free lowercase: each char folds independently (`char::to_lowercase`),
/// unlike `str::to_lowercase`, whose Greek final-sigma special case is
/// context-sensitive and would break the substring-preservation invariant
/// the literal indexes need. Borrows when `s` is already caseless.
pub(crate) fn fold_lower(s: &str) -> Cow<'_, str> {
    if s.bytes().all(|b| !b.is_ascii_uppercase()) && s.is_ascii() {
        return Cow::Borrowed(s);
    }
    // Check for non-ASCII needing fold only after the cheap ASCII fast path.
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        if c.is_ascii() {
            out.push(c.to_ascii_lowercase());
        } else {
            out.extend(c.to_lowercase());
        }
    }
    Cow::Owned(out)
}

/// A product plus everything the match path needs pre-computed once:
/// case-folded title, case-folded attribute names and values, and the
/// numeric parse of each attribute value.
pub struct PreparedProduct<'p> {
    product: &'p Product,
    title_lower: Cow<'p, str>,
    /// `(name_lower, value_lower)` aligned with `product.attributes`.
    attrs_lower: Vec<(Cow<'p, str>, Cow<'p, str>)>,
    /// `value.trim().parse::<f64>()` of each attribute, aligned with
    /// `product.attributes`. Parsed once here so numeric predicates
    /// (`Condition::NumCompare`, the expression VM's `LoadAttrNum`) cost a
    /// lookup per rule instead of a parse per rule per product.
    attrs_num: Vec<Option<f64>>,
    /// Streaming-aggregate store visible to `agg(...)` expressions; `None`
    /// outside the inference-enabled pipeline (then `agg` yields Missing).
    aggregates: Option<Arc<AggregateStore>>,
}

impl<'p> PreparedProduct<'p> {
    /// Prepares `product` for matching. One pass over title and attributes;
    /// already-lowercase ASCII strings are borrowed, not copied.
    pub fn new(product: &'p Product) -> Self {
        Self::with_aggregates(product, None)
    }

    /// Like [`PreparedProduct::new`], additionally attaching a streaming-
    /// aggregate store so `agg("...")` expressions resolve during matching.
    pub fn with_aggregates(product: &'p Product, aggregates: Option<Arc<AggregateStore>>) -> Self {
        PreparedProduct {
            title_lower: fold_lower(&product.title),
            attrs_lower: product
                .attributes
                .iter()
                .map(|(k, v)| (fold_lower(k), fold_lower(v)))
                .collect(),
            attrs_num: product
                .attributes
                .iter()
                .map(|(_, v)| v.trim().parse::<f64>().ok())
                .collect(),
            product,
            aggregates,
        }
    }

    /// The attached aggregate store, if any.
    pub fn aggregates(&self) -> Option<&AggregateStore> {
        self.aggregates.as_deref()
    }

    /// The underlying product.
    pub fn product(&self) -> &'p Product {
        self.product
    }

    /// The case-folded title.
    pub fn title_lower(&self) -> &str {
        &self.title_lower
    }

    /// Case-folded `(name, value)` pairs, in feed order.
    pub fn attrs_lower(&self) -> impl Iterator<Item = (&str, &str)> {
        self.attrs_lower.iter().map(|(k, v)| (k.as_ref(), v.as_ref()))
    }

    /// Case-folded value of the attribute named `name` (any case), if
    /// present. Allocation-free: compares against the pre-folded names.
    pub fn attr_value_lower(&self, name: &str) -> Option<&str> {
        self.attrs_lower.iter().find(|(k, _)| k.eq_ignore_ascii_case(name)).map(|(_, v)| v.as_ref())
    }

    /// The cached numeric parse of the attribute named `name` (any case):
    /// `Some` when the attribute is present and its trimmed value parses as
    /// an `f64`. Allocation- and parse-free per call.
    pub fn attr_num(&self, name: &str) -> Option<f64> {
        self.attrs_lower
            .iter()
            .position(|(k, _)| k.eq_ignore_ascii_case(name))
            .and_then(|i| self.attrs_num[i])
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rulekit_data::VendorId;

    fn product(title: &str, attrs: &[(&str, &str)]) -> Product {
        Product {
            id: 0,
            title: title.into(),
            description: String::new(),
            attributes: attrs.iter().map(|(k, v)| (k.to_string(), v.to_string())).collect(),
            vendor: VendorId(0),
        }
    }

    #[test]
    fn folds_title_and_attributes_once() {
        let p = product("Diamond RING", &[("Brand Name", "Apple")]);
        let prep = PreparedProduct::new(&p);
        assert_eq!(prep.title_lower(), "diamond ring");
        assert_eq!(prep.attr_value_lower("brand name"), Some("apple"));
        assert_eq!(prep.attr_value_lower("BRAND NAME"), Some("apple"));
        assert_eq!(prep.attr_value_lower("Color"), None);
    }

    #[test]
    fn lowercase_ascii_borrows() {
        let p = product("plain lowercase title", &[("isbn", "9781")]);
        let prep = PreparedProduct::new(&p);
        assert!(matches!(prep.title_lower, Cow::Borrowed(_)));
        assert!(prep
            .attrs_lower
            .iter()
            .all(|(k, v)| { matches!(k, Cow::Borrowed(_)) && matches!(v, Cow::Borrowed(_)) }));
    }

    #[test]
    fn non_ascii_folding_is_context_free() {
        // str::to_lowercase would map the final sigma to 'ς'; the
        // context-free fold must always produce 'σ' so that literal
        // extraction (also per-char) and title folding agree.
        assert_eq!(fold_lower("ΟΔΟΣ"), "οδοσ");
        assert_eq!(fold_lower("CAFÉ au Lait"), "café au lait");
    }

    #[test]
    fn numeric_values_are_parsed_once_and_cached() {
        let p = product(
            "x",
            &[("Price", " 19.99 "), ("Pages", "300"), ("Color", "red"), ("ISBN", "978-1")],
        );
        let prep = PreparedProduct::new(&p);
        assert_eq!(prep.attr_num("price"), Some(19.99)); // trimmed
        assert_eq!(prep.attr_num("PAGES"), Some(300.0)); // case-insensitive
        assert_eq!(prep.attr_num("Color"), None); // not numeric
        assert_eq!(prep.attr_num("ISBN"), None); // "978-1" is not a number
        assert_eq!(prep.attr_num("Weight"), None); // absent
    }

    #[test]
    fn attrs_lower_iterates_in_feed_order() {
        let p = product("x", &[("B", "2"), ("A", "1")]);
        let prep = PreparedProduct::new(&p);
        let pairs: Vec<(&str, &str)> = prep.attrs_lower().collect();
        assert_eq!(pairs, vec![("b", "2"), ("a", "1")]);
    }
}
