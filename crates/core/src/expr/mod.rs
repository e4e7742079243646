//! The expression rule language: infix boolean/arithmetic predicates over a
//! typed product context, compiled once to stack bytecode.
//!
//! §4 of the paper asks for "more expressive rule languages that analysts
//! can use" — pricing thresholds, vendor gates, boolean combinations the
//! keyword/attribute DSL cannot state. This module is that tier:
//!
//! ```text
//! price < 20 && category == "rug" && title ~ /braided/
//! (vendor in [12, 97] || has(ISBN)) && !(title ~ /bulk lot/)
//! price / 2 + 5 <= 20
//! ```
//!
//! The pipeline is lexer → shunting-yard parser → typed AST → flat
//! stack-machine bytecode ([`Program`]), evaluated by an allocation-free VM
//! against an [`ExecContext`] built from a
//! [`PreparedProduct`](crate::prepared::PreparedProduct) (title folded once,
//! numeric attributes parsed once per product). A [`CompiledExpr`] carries
//! the program plus everything the executors need for admission: the
//! conservative required-literal CNF (so expression rules ride the
//! Aho-Corasick literal scan) and the required-attribute set (so they ride
//! the attribute index). [`ExprCache`] memoizes source text → compiled
//! program across WAL replays, checkpoint rebuilds, and snapshot rebuilds.
//!
//! Legacy [`Condition`](crate::rule::Condition) variants compile to the
//! same IR via [`compile_condition`], making the bytecode VM the only
//! condition evaluator in the library — for classification, fact inference
//! and one-shot [`Condition::matches`](crate::rule::Condition::matches)
//! alike. The readable tree-walk over `Condition` lives in the test suites
//! (`tests/tree_walk`), as the reference semantics the differential suite
//! checks the bytecode against.

mod cache;
mod compile;
mod fold;
mod lexer;
mod parser;
mod vm;

pub use cache::{ExprCache, ExprCacheStats};
pub use compile::compile_condition;
pub use vm::{ExecContext, Instr, Program, MAX_STACK};

use crate::prepared::PreparedProduct;
use std::fmt;
use std::sync::Arc;

/// An expression that failed to lex, parse, or compile. Every malformed
/// input becomes one of these — the front end never panics.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ExprError {
    /// Human-readable description.
    pub message: String,
}

impl ExprError {
    pub(crate) fn new(message: impl Into<String>) -> Self {
        ExprError { message: message.into() }
    }
}

impl fmt::Display for ExprError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.message)
    }
}

impl std::error::Error for ExprError {}

/// A compiled expression rule condition: source text, bytecode, and the
/// conservative admission analyses.
#[derive(Debug, Clone)]
pub struct CompiledExpr {
    source: String,
    program: Arc<Program>,
    cnf: Vec<Vec<String>>,
    attrs: Vec<String>,
}

impl CompiledExpr {
    /// The (trimmed) source text the expression was compiled from.
    pub fn source(&self) -> &str {
        &self.source
    }

    /// The bytecode program.
    pub fn program(&self) -> &Program {
        &self.program
    }

    /// Shared handle to the program (what executors store per rule).
    pub fn program_arc(&self) -> Arc<Program> {
        self.program.clone()
    }

    /// Conservative required-literal CNF over folded title substrings: any
    /// matching product's title contains, per clause, at least one literal.
    pub fn required_literals(&self) -> &[Vec<String>] {
        &self.cnf
    }

    /// Attributes that must be present on any matching product.
    pub fn required_attrs(&self) -> &[String] {
        &self.attrs
    }

    /// Evaluates against a prepared product (allocation-free).
    pub fn matches_prepared(&self, product: &PreparedProduct<'_>) -> bool {
        self.program.eval(&ExecContext::new(product))
    }
}

/// Compiles expression source text end to end (lex → parse → typecheck →
/// constant fold → bytecode → admission analyses). Use
/// [`ExprCache::compile`] when the same source may recur.
pub fn compile(source: &str) -> Result<CompiledExpr, ExprError> {
    compile_impl(source, true)
}

/// Compiles without the constant-folding pass. Semantically identical to
/// [`compile`] — this is the reference side of the folding differential
/// suite, and a debugging aid when a fold is suspected of changing
/// behaviour.
pub fn compile_unfolded(source: &str) -> Result<CompiledExpr, ExprError> {
    compile_impl(source, false)
}

fn compile_impl(source: &str, fold_constants: bool) -> Result<CompiledExpr, ExprError> {
    let source = source.trim();
    if source.is_empty() {
        return Err(ExprError::new("empty expression"));
    }
    let tokens = lexer::lex(source)?;
    let ast = parser::parse(&tokens)?;
    // Typecheck the full unfolded tree first: folding can collapse a dead
    // branch (`false && title < 5`), and a branch that is ill-typed must
    // stay an error even when a constant makes it unreachable.
    let unfolded = compile::compile_ast(&ast)?;
    let (ast, program) = if fold_constants {
        let folded = fold::fold(&ast);
        let program = compile::compile_ast(&folded)?;
        (folded, program)
    } else {
        (ast, unfolded)
    };
    // The admission analyses run on the (possibly folded) tree: folding is
    // semantics-preserving, and pruning a constant-false disjunct can only
    // tighten the conservative CNF / attribute requirements.
    Ok(CompiledExpr {
        source: source.to_string(),
        program: Arc::new(program),
        cnf: compile::literal_cnf(&ast),
        attrs: compile::required_attrs(&ast),
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use rulekit_data::{Product, VendorId};

    fn product(title: &str, attrs: &[(&str, &str)]) -> Product {
        Product {
            id: 1,
            title: title.to_string(),
            description: String::new(),
            attributes: attrs.iter().map(|(k, v)| (k.to_string(), v.to_string())).collect(),
            vendor: VendorId(7),
        }
    }

    fn eval(src: &str, p: &Product) -> bool {
        let compiled = compile(src).expect(src);
        compiled.matches_prepared(&PreparedProduct::new(p))
    }

    #[test]
    fn headline_example() {
        let src = r#"price < 20 && category == "rug" && title ~ /braided/"#;
        let hit = product("Braided Area Rug 5x7", &[("Price", "17.99"), ("Category", "Rug")]);
        let expensive = product("Braided Area Rug", &[("Price", "99"), ("Category", "Rug")]);
        let wrong_cat = product("Braided Area Rug", &[("Price", "5"), ("Category", "Mat")]);
        let no_braids = product("Area Rug", &[("Price", "5"), ("Category", "Rug")]);
        assert!(eval(src, &hit));
        assert!(!eval(src, &expensive));
        assert!(!eval(src, &wrong_cat));
        assert!(!eval(src, &no_braids));
    }

    #[test]
    fn boolean_structure_and_negation() {
        let src = "(has(ISBN) || has(Pages)) && !(title ~ /poster/)";
        assert!(eval(src, &product("novel", &[("ISBN", "978")])));
        assert!(eval(src, &product("novel", &[("Pages", "300")])));
        assert!(!eval(src, &product("book poster", &[("ISBN", "978")])));
        assert!(!eval(src, &product("novel", &[])));
    }

    #[test]
    fn arithmetic_and_vendor() {
        assert!(eval("price * 2 <= 40", &product("x", &[("Price", "20")])));
        assert!(!eval("price * 2 <= 40", &product("x", &[("Price", "20.01")])));
        assert!(eval("vendor == 7", &product("x", &[])));
        assert!(eval("vendor in [1, 7, 9]", &product("x", &[])));
        assert!(!eval("vendor in [1, 9]", &product("x", &[])));
    }

    #[test]
    fn in_list_of_strings() {
        let src = r#"category in ["rug", "mat", "runner"]"#;
        assert!(eval(src, &product("x", &[("Category", "MAT")])));
        assert!(!eval(src, &product("x", &[("Category", "sofa")])));
        assert!(!eval(src, &product("x", &[])));
    }

    #[test]
    fn missing_semantics() {
        // Comparisons on a missing attribute are false — for != too.
        assert!(!eval("price < 20", &product("x", &[])));
        assert!(!eval("price != 20", &product("x", &[])));
        assert!(!eval(r#"category != "rug""#, &product("x", &[])));
        // Negation of a failed comparison is true.
        assert!(eval("!(price < 20)", &product("x", &[])));
        // Non-numeric values are missing in numeric positions.
        assert!(!eval("price < 20", &product("x", &[("Price", "n/a")])));
    }

    #[test]
    fn exact_equality_is_exact() {
        assert!(eval("price == 20", &product("x", &[("Price", "20.0")])));
        assert!(!eval("price == 20", &product("x", &[("Price", "19.999999999")])));
    }

    #[test]
    fn string_equality_folds_case() {
        assert!(eval(r#"`Brand Name` == "Apple""#, &product("x", &[("Brand Name", "APPLE")])));
        assert!(eval(r#"title == "area rug""#, &product("Area RUG", &[])));
    }

    #[test]
    fn required_literals_from_the_headline_example() {
        let ce = compile(r#"price < 20 && category == "rug" && title ~ /braided/"#).unwrap();
        assert_eq!(ce.required_literals(), &[vec!["braided".to_string()]]);
        // Attribute names keep their as-written case; lookups are
        // case-insensitive so "category" finds "Category".
        assert_eq!(ce.required_attrs(), &["Price".to_string(), "category".to_string()]);
    }

    #[test]
    fn required_literals_push_through_or() {
        let ce = compile("title ~ /rug/ || title ~ /mat/").unwrap();
        assert_eq!(ce.required_literals(), &[vec!["mat".to_string(), "rug".to_string()]]);
        // A disjunct with no extractable literal erases the requirement.
        let ce = compile("title ~ /rug/ || price < 5").unwrap();
        assert!(ce.required_literals().is_empty());
    }

    #[test]
    fn negation_drops_literals_but_double_negation_keeps_them() {
        let ce = compile("!(title ~ /rug/)").unwrap();
        assert!(ce.required_literals().is_empty());
        let ce = compile("!!(title ~ /rug/)").unwrap();
        assert_eq!(ce.required_literals(), &[vec!["rug".to_string()]]);
    }

    #[test]
    fn or_intersects_required_attrs() {
        let ce = compile("price < 5 || price > 100").unwrap();
        assert_eq!(ce.required_attrs(), &["Price".to_string()]);
        let ce = compile("price < 5 || has(ISBN)").unwrap();
        assert!(ce.required_attrs().is_empty());
    }

    #[test]
    fn type_errors_are_reported() {
        for bad in [
            "price",               // not boolean
            "[1, 2]",              // bare list
            "title < 5",           // string in numeric position
            r#"5 ~ /x/"#,          // number in string position
            "price in [1, \"a\"]", // mixed list
            "price in []",         // empty list
            "title ~ \"rug\"",     // ~ needs a regex literal
            "5 == \"cheap\"",      // number vs string
            "has(ISBN) == 5",      // bool in equality
        ] {
            assert!(compile(bad).is_err(), "expected compile error for {bad:?}");
        }
    }

    #[test]
    fn folding_collapses_literal_subexpressions() {
        // A tautological disjunct folds the whole expression to one opcode.
        let folded = compile("1 < 2 || title ~ /rug/").unwrap();
        assert_eq!(folded.program().len(), 1);
        let unfolded = compile_unfolded("1 < 2 || title ~ /rug/").unwrap();
        assert!(unfolded.program().len() > 1);
        // Literal arithmetic folds into the comparison constant.
        let folded = compile("price < 10 + 5 * 2").unwrap();
        let unfolded = compile_unfolded("price < 10 + 5 * 2").unwrap();
        assert!(folded.program().len() < unfolded.program().len());
        let p = product("x", &[("Price", "15")]);
        let prepared = PreparedProduct::new(&p);
        assert!(folded.matches_prepared(&prepared));
        assert_eq!(folded.matches_prepared(&prepared), unfolded.matches_prepared(&prepared));
    }

    #[test]
    fn folding_matches_vm_semantics_on_literal_cases() {
        let p = product("anything", &[]);
        let prepared = PreparedProduct::new(&p);
        for (src, expected) in [
            // Exact numeric equality, not epsilon.
            ("1 == 1.0", true),
            ("19.999999999 == 20", false),
            // IEEE division: /0 is inf, 0/0 is NaN and NaN fails comparisons.
            ("10 / 0 > 1000000", true),
            ("0 / 0 == 0 / 0", false),
            ("-(3 - 5) == 2", true),
            // Case-folded string comparison.
            (r#""Apple" == "APPLE""#, true),
            (r#""a" != "b""#, true),
            // Literal regex match runs on the folded string.
            (r#""Braided Rug" ~ /rug/"#, true),
            (r#""mat" ~ /rug/"#, false),
            // Literal membership: exact numbers, folded strings.
            ("3 in [1, 2, 3]", true),
            ("3.5 in [1, 2, 3]", false),
            (r#""MAT" in ["mat", "rug"]"#, true),
            // NaN != NaN is IEEE-true, so the negation kills the conjunction.
            ("1 < 2 && !(0 / 0 != 0 / 0)", false),
        ] {
            let folded = compile(src).expect(src);
            // Each of these is literal-only: it must fold to a single
            // PushBool, and agree with the unfolded program.
            assert_eq!(folded.program().len(), 1, "not fully folded: {src}");
            assert_eq!(folded.matches_prepared(&prepared), expected, "{src}");
            let unfolded = compile_unfolded(src).expect(src);
            assert_eq!(unfolded.matches_prepared(&prepared), expected, "unfolded disagrees: {src}");
        }
    }

    #[test]
    fn folding_never_masks_errors_in_dead_branches() {
        for bad in [
            "2 < 1 && title < 5",      // dead right branch, ill-typed
            "1 < 2 || price in []",    // dead right branch, empty list
            "2 < 1 && 5 ~ /x/",        // dead branch with a non-string match
            r#"1 < 2 || 5 == "five""#, // dead branch, mixed equality
        ] {
            assert!(compile(bad).is_err(), "expected compile error for {bad:?}");
        }
    }

    #[test]
    fn folding_a_constant_false_disjunct_recovers_admission_requirements() {
        // Unfolded, the `||` merge sees a literal-free disjunct and drops the
        // requirement; folding prunes the impossible branch first.
        let folded = compile("title ~ /rug/ || 2 < 1").unwrap();
        assert_eq!(folded.required_literals(), &[vec!["rug".to_string()]]);
        let unfolded = compile_unfolded("title ~ /rug/ || 2 < 1").unwrap();
        assert!(unfolded.required_literals().is_empty());
        let folded = compile("price < 5 || 2 < 1").unwrap();
        assert_eq!(folded.required_attrs(), &["Price".to_string()]);
    }

    #[test]
    fn deep_nesting_is_rejected_not_overflowed() {
        let deep = format!("{}1 < 2{}", "(".repeat(400), ")".repeat(400));
        // Either the token cap or parsing handles it — never a panic.
        let _ = compile(&deep);
        let wide = (0..100).map(|_| "1 < 2").collect::<Vec<_>>().join(" && ");
        let _ = compile(&wide);
    }
}
