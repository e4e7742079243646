//! Differential test between the two evaluation semantics: every condition
//! species compiled to stack bytecode (`Condition::compile` → `Program::eval`)
//! must agree with the tree-walk reference interpreter (`tree_walk::matches`,
//! which lives only here in the tests) on a generated catalog plus
//! adversarial products. The library runs only the bytecode; this suite is
//! what keeps that single evaluator honest against the readable reference
//! semantics.

mod tree_walk;

use rulekit_core::{
    CompareOp, Condition, Dictionary, ExecContext, PreparedProduct, Rule, RuleMeta, RuleParser,
    RuleRepository,
};
use rulekit_data::{CatalogGenerator, Product, Taxonomy, VendorId};
use rulekit_regex::Regex;
use std::sync::Arc;

fn mk(title: &str, attrs: &[(&str, &str)], vendor: u32) -> Product {
    Product {
        id: 0,
        title: title.into(),
        description: String::new(),
        attributes: attrs.iter().map(|(k, v)| (k.to_string(), v.to_string())).collect(),
        vendor: VendorId(vendor),
    }
}

/// Hand-built conditions covering every variant and operator, including the
/// shapes the compiler lowers specially: approximate `=` (epsilon opcode),
/// exact `==`, raw-title regexes, nested conjunctions, dictionaries, and
/// expression conditions spliced inside `All`.
fn condition_corpus() -> Vec<Condition> {
    let re = |p: &str| Condition::TitleMatches(Regex::case_insensitive(p).unwrap());
    let num = |attr: &str, op, value| Condition::NumCompare { attr: attr.into(), op, value };
    let dict = Arc::new(Dictionary::new("pc_words", ["thinkpad", "ideapad", "überbook"]));
    let expr = |src: &str| Condition::Expr(Arc::new(rulekit_core::expr::compile(src).unwrap()));
    vec![
        re("rings?"),
        re("(area|oriental|braided) rugs?"),
        re("café press(es)?"),
        re(r"\w+ oils?"),
        Condition::AttrExists("ISBN".into()),
        Condition::AttrExists("Brand Name".into()),
        Condition::AttrValueIn {
            attr: "Brand Name".into(),
            values: vec!["apple".into(), "samsung".into()],
        },
        num("Price", CompareOp::Lt, 5.0),
        num("Price", CompareOp::Le, 19.99),
        num("Price", CompareOp::Gt, 100.0),
        num("Price", CompareOp::Ge, 29.0),
        num("Price", CompareOp::Eq, 20.0),
        num("Price", CompareOp::EqExact, 20.0),
        num("Pages", CompareOp::Eq, 300.0),
        Condition::InDictionary(dict.clone()),
        Condition::All(vec![]),
        Condition::All(vec![re("apple"), num("Price", CompareOp::Lt, 100.0)]),
        Condition::All(vec![
            Condition::AttrExists("ISBN".into()),
            Condition::All(vec![re("books?"), num("Pages", CompareOp::Ge, 50.0)]),
        ]),
        Condition::All(vec![Condition::InDictionary(dict), num("Price", CompareOp::Lt, 2000.0)]),
        expr("price < 20 && title ~ /braided/"),
        expr("!(price < 20)"),
        expr(r#"category in ["rug", "mat"] || has(ISBN)"#),
        expr("price / 2 + 5 <= 20 && vendor in [0, 7, 12]"),
        // An expression condition nested inside a legacy conjunction — the
        // compiler splices the sub-program with rebased pools and jumps.
        Condition::All(vec![re("rugs?"), expr(r#"price < 50 || `Brand Name` == "apple""#)]),
    ]
}

fn adversarial_products() -> Vec<Product> {
    vec![
        mk("Braided Area Rug 5x7", &[("Price", "17.99"), ("Category", "Rug")], 7),
        mk("Braided Area Rug", &[("Price", "99")], 0),
        mk("apple iphone", &[("Brand Name", "Apple"), ("Price", "899.00")], 12),
        mk("apple usb-c cable", &[("Brand Name", "apple"), ("Price", "12.99")], 3),
        mk("novel", &[("ISBN", "9781"), ("Pages", "300")], 1),
        mk("bestselling books set", &[("ISBN", "9"), ("Pages", "49.5")], 2),
        mk("Lenovo ThinkPad X1", &[("Price", "1999")], 7),
        mk("überbook pro 14", &[], 0),
        mk("quaker state motor oil", &[("Price", "20")], 5),
        mk("synthetic oil", &[("Price", "20.0000000000")], 5),
        mk("cheap oil", &[("Price", "19.9999999999")], 5),
        mk("edge oil", &[("Price", "19.999999999")], 5),
        mk("no attrs at all", &[], 9),
        mk("", &[], 0),
        mk("price n/a", &[("Price", "n/a"), ("Pages", " 300 ")], 4),
        mk("ΟΔΟΣ café crème", &[("Category", "MAT")], 11),
    ]
}

#[test]
fn bytecode_agrees_with_interpreter_on_every_condition() {
    let taxonomy = Taxonomy::builtin();
    let mut generator = CatalogGenerator::with_seed(taxonomy, 0xE593);
    let mut products: Vec<Product> =
        generator.generate(500).into_iter().map(|i| i.product).collect();
    products.extend(adversarial_products());

    let conditions = condition_corpus();
    let programs: Vec<_> = conditions.iter().map(Condition::compile).collect();

    for p in &products {
        let prepared = PreparedProduct::new(p);
        let ctx = ExecContext::new(&prepared);
        for (cond, prog) in conditions.iter().zip(&programs) {
            assert_eq!(
                prog.eval(&ctx),
                tree_walk::matches(cond, &prepared),
                "bytecode vs interpreter disagree for `{cond}` on {:?} {:?}",
                p.title,
                p.attributes,
            );
        }
    }
}

/// Expressions mixing literal-only subtrees with product references —
/// fodder for the constant folder. Each must evaluate identically with and
/// without folding on every product.
fn constant_heavy_corpus() -> Vec<&'static str> {
    vec![
        "price < 10 + 5 * 2",
        "price / 2 + 5 <= 20 && 1 < 2",
        "2 < 1 || title ~ /rug/",
        "1 < 2 || title ~ /rug/",
        "1 < 2 && title ~ /rug/",
        "price < 20 && 2 < 1",
        r#""A" == "a" && has(ISBN)"#,
        r#""A" != "a" || has(ISBN)"#,
        "vendor in [0, 7, 12] && 3 in [1, 2, 3]",
        "vendor in [0, 7, 12] && 4 in [1, 2, 3]",
        "!(2 < 1) && price != 20",
        "!(1 < 2) || !(price < 20)",
        "0 / 0 == 0 / 0 || price < 20",
        "10 / 0 > 1000000 && has(Pages)",
        "-(3 - 5) == 2 && vendor == 7",
        r#""braided rug" ~ /braided/ && title ~ /rug/"#,
        r#"category in ["rug", "mat"] || "MAT" in ["mat"]"#,
        "price * 1 + 0 < 7 * 3",
        "(1 < 2 || price < 5) && (2 < 1 || price > 1)",
    ]
}

#[test]
fn folded_bytecode_agrees_with_unfolded_on_every_product() {
    let taxonomy = Taxonomy::builtin();
    let mut generator = CatalogGenerator::with_seed(taxonomy, 0xF01D);
    let mut products: Vec<Product> =
        generator.generate(400).into_iter().map(|i| i.product).collect();
    products.extend(adversarial_products());

    for src in constant_heavy_corpus() {
        let folded = rulekit_core::expr::compile(src).expect(src);
        let unfolded = rulekit_core::expr::compile_unfolded(src).expect(src);
        // Folding must never grow the program.
        assert!(
            folded.program().len() <= unfolded.program().len(),
            "folding grew `{src}`: {} -> {} instructions",
            unfolded.program().len(),
            folded.program().len(),
        );
        for p in &products {
            let prepared = PreparedProduct::new(p);
            assert_eq!(
                folded.matches_prepared(&prepared),
                unfolded.matches_prepared(&prepared),
                "folded vs unfolded disagree for `{src}` on {:?} {:?}",
                p.title,
                p.attributes,
            );
        }
    }
}

#[test]
fn bytecode_agrees_with_interpreter_on_parsed_dsl() {
    // Same property through the DSL front door: every parsed rule (legacy
    // and expression syntax alike) evaluates identically both ways.
    let taxonomy = Taxonomy::builtin();
    let mut parser = RuleParser::new(taxonomy.clone());
    parser.register_dictionary(Dictionary::new("pc_words", ["thinkpad", "ideapad"]));
    let repo = RuleRepository::new();
    for line in [
        "rings? -> rings",
        "laptop (bag|case|sleeve)s? -> NOT laptop computers",
        "attr(ISBN) -> books",
        "value(Brand Name = Apple) -> one of laptop computers; smartphones; tablets",
        "title(apple) and price < 100 -> NOT smartphones",
        "num(Pages) >= 100 -> books",
        "num(Pages) == 300 -> books",
        "price = 20 -> NOT motor oil",
        "dict(pc_words) -> one of laptop computers; desktop computers",
        "rule: price < 20 && category == \"rug\" && title ~ /braided/ => NOT area rugs",
        "rule: has(ISBN) || has(Pages) => books",
        "rule: vendor in [5, 7] && !(title ~ /cable/) => motor oil",
    ] {
        repo.add(parser.parse_rule(line).unwrap(), RuleMeta::default());
    }
    let rules: Vec<Rule> = repo.enabled_snapshot();

    let mut generator = CatalogGenerator::with_seed(taxonomy, 0xE594);
    let mut products: Vec<Product> =
        generator.generate(300).into_iter().map(|i| i.product).collect();
    products.extend(adversarial_products());

    for p in &products {
        let prepared = PreparedProduct::new(p);
        let ctx = ExecContext::new(&prepared);
        for rule in &rules {
            assert_eq!(
                rule.condition.compile().eval(&ctx),
                tree_walk::matches(&rule.condition, &prepared),
                "disagreement for {:?} on {:?}",
                rule.source,
                p.title,
            );
        }
    }
}
