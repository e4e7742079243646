//! Seeded inputs: the analyst rule pack, synthetic rule lines, the E17
//! fact-rule pack, sentinel rules, and `/classify` wire bodies.
//!
//! This is the harness's own copy of what `rulekit-bench::setup` and E7's
//! `synthetic_rules` produce, kept here so later PRs can edit `crates/bench`
//! without moving the benchmark. Everything is text: the program under test
//! only ever sees generated products and rule lines.

use crate::probes::{escape_regex, pluralize, Product, Taxonomy, VendorId};
use std::collections::BTreeMap;

/// The "obvious rules" an analyst writes on day one (§3.2): one whitelist
/// rule per type head noun, the ISBN attribute rule, brand restrictions for
/// brands sold across several types, and blacklists for known confusable
/// pairs. ~330 lines over the built-in taxonomy.
pub fn analyst_pack(taxonomy: &Taxonomy) -> Vec<String> {
    let mut lines = Vec::new();
    let mut brand_types: BTreeMap<&str, Vec<&str>> = BTreeMap::new();
    for id in taxonomy.ids() {
        let def = taxonomy.def(id);
        for head in &def.heads {
            lines.push(format!("{} -> {}", head_pattern(head), def.name));
        }
        for brand in &def.brands {
            brand_types.entry(brand.as_str()).or_default().push(def.name.as_str());
        }
    }
    lines.push("attr(ISBN) -> one of books; cookbooks; children's books".to_string());
    for (brand, types) in brand_types.into_iter().filter(|(_, types)| types.len() >= 2) {
        lines.push(format!("value(Brand Name = {brand}) -> one of {}", types.join("; ")));
    }
    lines.push("laptop (bag|case|sleeve)s? -> NOT laptop computers".to_string());
    lines.push("(earring|stud set)s? -> NOT rings".to_string());
    lines.push("ankle bracelets? -> NOT bracelets".to_string());
    lines.push("wedding bands? -> NOT bracelets".to_string());
    lines
}

fn head_pattern(head: &str) -> String {
    let lower = head.to_lowercase();
    let escaped = escape_regex(&lower);
    let plural = pluralize(&lower);
    if plural == format!("{lower}s") {
        format!("{escaped}s?")
    } else {
        format!("({escaped}|{})", escape_regex(&plural))
    }
}

/// An endless, deterministic stream of synthetic whitelist lines built from
/// the taxonomy's qualifier × head × brand pools — the "tens of thousands of
/// rules" regime of §4. `depth % 10` picks a pattern skeleton, `depth / 10`
/// rotates which qualifiers and brands pair up, and from the second rotation
/// on a price guard keeps every line distinct. A few candidates do not parse
/// (degenerate patterns); the loader skips those, as E7 does.
pub fn synthetic_lines(taxonomy: &Taxonomy) -> impl Iterator<Item = String> + '_ {
    const SHAPES: usize = 10;
    (0usize..).flat_map(move |depth| {
        let (shape, rot) = (depth % SHAPES, depth / SHAPES);
        taxonomy.ids().flat_map(move |id| {
            let def = taxonomy.def(id);
            let heads: Vec<String> = def.heads.iter().map(|h| h.to_lowercase()).collect();
            let quals: Vec<String> = def.qualifiers.iter().map(|q| q.to_lowercase()).collect();
            let brands: Vec<String> = def.brands.iter().map(|b| b.to_lowercase()).collect();
            let mut out = Vec::new();
            for (qi, q) in quals.iter().enumerate() {
                for (hi, head) in heads.iter().enumerate() {
                    let e = escape_regex(q);
                    let h = escape_regex(head);
                    let q_at = |k: usize| escape_regex(&quals[(qi + k + rot * 3) % quals.len()]);
                    let brand_at = |k: usize| escape_regex(&brands[(qi + k + rot) % brands.len()]);
                    let pattern = match shape {
                        0 => format!("{e}.*{h}s?"),
                        1 => format!("{e}.*{}.*{h}s?", q_at(1)),
                        2 => format!("{}.*{h}s?", brand_at(0)),
                        3 => format!("({e}|{}) {h}s?", q_at(2)),
                        4 => format!("{e}.*{}.*{h}s?", q_at(3)),
                        5 => format!("{}.*{e}.*{h}s?", brand_at(1)),
                        6 => format!("({e}|{}|{}) {h}s?", q_at(1), q_at(4)),
                        7 => format!("{e} .*{h}s? .*{}", q_at(hi + 1)),
                        8 => format!("{}.*{}.*{h}s?", q_at(2), q_at(5)),
                        _ => format!("{}.*({e}|{}).*{h}s?", brand_at(2), q_at(6)),
                    };
                    // Rotation wrapped onto the same qualifier: degenerate.
                    if pattern.matches(e.as_str()).count() > 3 {
                        continue;
                    }
                    out.push(if rot == 0 {
                        format!("{pattern} -> {}", def.name)
                    } else {
                        let price = 5 + (depth * 7 + qi * 13 + hi) % 400;
                        format!("{pattern} and price < {price} -> {}", def.name)
                    });
                }
            }
            out
        })
    })
}

/// The 4-line chaining pack of E17: a two-deep chain off the ISBN attribute,
/// a numeric-guard fact, and an aggregate-gated fact.
pub const INFER_PACK: [&str; 4] = [
    "infer: has(isbn) => fact media = book",
    "infer: media == \"book\" => fact shelved = yes",
    "infer: price < 5 => fact bargain = yes",
    "infer: agg(\"vendor_mismatch_rate\") > 0.25 => fact risky_vendor = yes",
];

/// The unique token edit cycle `n` of a run plants in its sentinel rule and
/// product title. No generated title contains it, so sentinel rules never
/// change the answer for workload traffic.
pub fn sentinel_token(seed: u64, n: usize) -> String {
    format!("zzqx{seed}edit{n}")
}

/// The one-line rule an edit cycle adds: the sentinel token classifies as
/// `rings`.
pub fn sentinel_rule(token: &str) -> String {
    format!("{token}s? -> rings")
}

/// The product whose answer flips to `rings` once the sentinel rule serves.
pub fn sentinel_product(token: &str) -> Product {
    Product {
        id: 0,
        title: format!("{token} display stand"),
        description: String::new(),
        attributes: Vec::new(),
        vendor: VendorId(0),
    }
}
