//! The analyst rule language.
//!
//! §4 asks: "Can we develop more expressive rule languages that analysts can
//! use?" This DSL is that language — one rule per line, readable by analysts
//! with no CS background, covering the paper's base language plus the §4
//! extensions:
//!
//! ```text
//! # whitelist / blacklist title rules (§3.3)
//! rings? -> rings
//! diamond.*trio sets? -> rings
//! denim.*jeans? -> NOT shorts
//!
//! # attribute and value rules (§3.3)
//! attr(ISBN) -> books
//! value(Brand Name = Apple) -> one of laptop computers; smartphones; tablets
//!
//! # §4 extensions: conjunctions, price predicates, dictionaries
//! title(apple) and price < 100 -> NOT smartphones
//! dict(pc_words) -> one of laptop computers; desktop computers
//!
//! # the expression tier: full boolean/arithmetic predicates
//! rule: price < 20 && category == "rug" && title ~ /braided/ => NOT area rugs
//! rule: (vendor in [12, 97] || has(ISBN)) && !(title ~ /poster/) => books
//! ```
//!
//! Patterns are written the way the paper prints them — spaces around `|`
//! are cosmetic and removed before compilation. A line starting with
//! `rule:` switches to the expression language (`<expr> => <action>`); the
//! expression is compiled through the parser's shared [`ExprCache`], so the
//! same rule text re-parsed on WAL replay or checkpoint rebuild reuses the
//! compiled bytecode. Title patterns go through the same memo: rules that
//! repeat a pattern under different guards or targets share one regex.

use crate::expr::ExprCache;
use crate::rule::{CompareOp, Condition, Dictionary, InferFact, RuleAction};
use rulekit_data::Taxonomy;
use rulekit_regex::Regex;
use std::collections::HashMap;
use std::fmt;
use std::sync::Arc;

/// A parsed rule, ready to be added to a repository.
#[derive(Debug, Clone)]
pub struct RuleSpec {
    /// The condition.
    pub condition: Condition,
    /// The action.
    pub action: RuleAction,
    /// Original source line.
    pub source: String,
}

/// DSL parse error.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ParseError {
    /// 1-based line number (0 for single-line parses).
    pub line: usize,
    /// Description.
    pub message: String,
}

impl fmt::Display for ParseError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "rule parse error on line {}: {}", self.line, self.message)
    }
}

impl std::error::Error for ParseError {}

/// Parser for the rule DSL, bound to a taxonomy for type-name resolution.
#[derive(Debug, Clone)]
pub struct RuleParser {
    taxonomy: Arc<Taxonomy>,
    dictionaries: HashMap<String, Arc<Dictionary>>,
    /// Shared source → compiled memo for expression rules and title
    /// patterns. Cloning the parser (the durable store and the serving tier
    /// each hold one) shares this cache, so one process compiles each
    /// distinct expression and each distinct pattern once.
    expr_cache: ExprCache,
}

impl RuleParser {
    /// Creates a parser over `taxonomy`.
    pub fn new(taxonomy: Arc<Taxonomy>) -> Self {
        RuleParser { taxonomy, dictionaries: HashMap::new(), expr_cache: ExprCache::new() }
    }

    /// Registers a dictionary usable via `dict(name)`.
    pub fn register_dictionary(&mut self, dict: Dictionary) {
        self.dictionaries.insert(dict.name.clone(), Arc::new(dict));
    }

    /// The compiled-expression cache this parser (and its clones) share.
    pub fn expr_cache(&self) -> &ExprCache {
        &self.expr_cache
    }

    /// Parses a multi-line rule file; `#` starts a comment, blank lines are
    /// skipped.
    pub fn parse_rules(&self, text: &str) -> Result<Vec<RuleSpec>, ParseError> {
        let mut out = Vec::new();
        for (i, raw) in text.lines().enumerate() {
            let line = strip_comment(raw).trim();
            if line.is_empty() {
                continue;
            }
            let spec = self.parse_rule(line).map_err(|mut e| {
                e.line = i + 1;
                e
            })?;
            out.push(spec);
        }
        Ok(out)
    }

    /// Parses one rule line.
    pub fn parse_rule(&self, line: &str) -> Result<RuleSpec, ParseError> {
        if let Some(rest) = line.trim_start().strip_prefix("rule:") {
            return self.parse_expr_rule(line, rest);
        }
        if let Some(rest) = line.trim_start().strip_prefix("infer:") {
            return self.parse_infer_rule(line, rest);
        }
        let (lhs, rhs) = line.rsplit_once("->").ok_or_else(|| err("missing '->'"))?;
        let condition = self.parse_condition(lhs.trim())?;
        let action = self.parse_action(rhs.trim())?;
        Ok(RuleSpec { condition, action, source: line.to_string() })
    }

    /// `rule: <expr> => <action>` — the expression-language tier.
    fn parse_expr_rule(&self, line: &str, rest: &str) -> Result<RuleSpec, ParseError> {
        let (expr_src, rhs) =
            rest.rsplit_once("=>").ok_or_else(|| err("expression rule needs '=>'"))?;
        let compiled =
            self.expr_cache.compile(expr_src).map_err(|e| err(&format!("bad expression: {e}")))?;
        let action = self.parse_action(rhs.trim())?;
        Ok(RuleSpec { condition: Condition::Expr(compiled), action, source: line.to_string() })
    }

    /// `infer: <expr> => fact <name> = <value> [@<conf>] [^<priority>]` —
    /// the fact-inference tier. The antecedent is a full expression-language
    /// predicate; the consequent derives a working-memory fact. Trailing
    /// `@0.9` (confidence, default 1.0) and `^10` (priority, default 0)
    /// modifiers may appear in either order.
    fn parse_infer_rule(&self, line: &str, rest: &str) -> Result<RuleSpec, ParseError> {
        let (expr_src, rhs) =
            rest.rsplit_once("=>").ok_or_else(|| err("inference rule needs '=>'"))?;
        let compiled =
            self.expr_cache.compile(expr_src).map_err(|e| err(&format!("bad antecedent: {e}")))?;
        let fact = parse_fact_consequent(rhs.trim())?;
        Ok(RuleSpec {
            condition: Condition::Expr(compiled),
            action: RuleAction::Infer(fact),
            source: line.to_string(),
        })
    }

    fn parse_condition(&self, lhs: &str) -> Result<Condition, ParseError> {
        let mut conds = Vec::new();
        for part in split_top_level_and(lhs) {
            conds.push(self.parse_atom(part.trim())?);
        }
        match conds.len() {
            0 => Err(err("empty condition")),
            1 => Ok(conds.pop().expect("len checked")),
            _ => Ok(Condition::All(conds)),
        }
    }

    fn parse_atom(&self, atom: &str) -> Result<Condition, ParseError> {
        if let Some(inner) = call_body(atom, "title") {
            return Ok(Condition::TitleMatches(self.compile_pattern(inner)?));
        }
        if let Some(inner) = call_body(atom, "attr") {
            if inner.is_empty() {
                return Err(err("attr() needs an attribute name"));
            }
            return Ok(Condition::AttrExists(inner.to_string()));
        }
        if let Some(inner) = call_body(atom, "value") {
            let (attr, values) =
                inner.split_once('=').ok_or_else(|| err("value() needs 'name = v1 | v2 | …'"))?;
            let values: Vec<String> = values
                .split('|')
                // Context-free fold, matching PreparedProduct's attribute
                // folding so comparisons agree on non-ASCII values.
                .map(|v| crate::prepared::fold_lower(v.trim()).into_owned())
                .filter(|v| !v.is_empty())
                .collect();
            if values.is_empty() {
                return Err(err("value() needs at least one value"));
            }
            return Ok(Condition::AttrValueIn { attr: attr.trim().to_string(), values });
        }
        if let Some(inner) = call_body(atom, "dict") {
            let dict = self
                .dictionaries
                .get(inner)
                .ok_or_else(|| err(&format!("unknown dictionary {inner:?}")))?;
            return Ok(Condition::InDictionary(dict.clone()));
        }
        if let Some(cond) = self.try_parse_compare(atom)? {
            return Ok(cond);
        }
        // Bare pattern sugar: `rings? -> rings` ≡ `title(rings?) -> rings`.
        Ok(Condition::TitleMatches(self.compile_pattern(atom)?))
    }

    /// [`compile_pattern`] through the shared memo: every rule of this
    /// parser family with the same pattern text holds the same regex.
    fn compile_pattern(&self, pattern: &str) -> Result<Regex, ParseError> {
        self.expr_cache
            .pattern(&normalize_pattern_whitespace(pattern))
            .map_err(|e| bad_pattern(pattern, &e))
    }

    /// `price < 100`, `num(Weight) >= 5`, `num(Pages) == 300` …
    fn try_parse_compare(&self, atom: &str) -> Result<Option<Condition>, ParseError> {
        for op_text in ["<=", ">=", "==", "<", ">", "="] {
            if let Some((lhs, rhs)) = atom.split_once(op_text) {
                let lhs = lhs.trim();
                let attr = if let Some(inner) = call_body(lhs, "num") {
                    inner.to_string()
                } else if lhs.eq_ignore_ascii_case("price") {
                    "Price".to_string()
                } else {
                    // Not a numeric predicate (e.g. a regex containing '=').
                    return Ok(None);
                };
                let rhs = rhs.trim().trim_start_matches('$');
                let value: f64 =
                    rhs.parse().map_err(|_| err(&format!("invalid number {rhs:?}")))?;
                let op = match op_text {
                    "<=" => CompareOp::Le,
                    ">=" => CompareOp::Ge,
                    "==" => CompareOp::EqExact,
                    "<" => CompareOp::Lt,
                    ">" => CompareOp::Gt,
                    _ => CompareOp::Eq,
                };
                return Ok(Some(Condition::NumCompare { attr, op, value }));
            }
        }
        Ok(None)
    }

    fn parse_action(&self, rhs: &str) -> Result<RuleAction, ParseError> {
        if let Some(rest) = rhs.strip_prefix("NOT ").or_else(|| rhs.strip_prefix("not ")) {
            let ty = self.resolve_type(rest.trim())?;
            return Ok(RuleAction::Forbid(ty));
        }
        if let Some(rest) = rhs.strip_prefix("one of ").or_else(|| rhs.strip_prefix("ONE OF ")) {
            let mut types = Vec::new();
            for name in rest.split(';') {
                let name = name.trim();
                if !name.is_empty() {
                    types.push(self.resolve_type(name)?);
                }
            }
            if types.is_empty() {
                return Err(err("'one of' needs at least one type"));
            }
            return Ok(RuleAction::Restrict(types));
        }
        Ok(RuleAction::Assign(self.resolve_type(rhs)?))
    }

    fn resolve_type(&self, name: &str) -> Result<rulekit_data::TypeId, ParseError> {
        self.taxonomy.id_of(name).ok_or_else(|| err(&format!("unknown product type {name:?}")))
    }
}

/// Compiles a pattern, tolerating the paper's cosmetic whitespace around `|`
/// and inside groups: `(motor | engine) oils?` ≡ `(motor|engine) oils?`.
pub fn compile_pattern(pattern: &str) -> Result<Regex, ParseError> {
    Regex::case_insensitive(&normalize_pattern_whitespace(pattern))
        .map_err(|e| bad_pattern(pattern, &e))
}

fn bad_pattern(pattern: &str, e: &rulekit_regex::Error) -> ParseError {
    err(&format!("bad pattern {pattern:?}: {e}"))
}

fn normalize_pattern_whitespace(pattern: &str) -> String {
    let mut out = String::with_capacity(pattern.len());
    let chars: Vec<char> = pattern.chars().collect();
    for (i, &c) in chars.iter().enumerate() {
        if c == ' ' {
            let prev = out.chars().last();
            let next = chars[i + 1..].iter().find(|&&n| n != ' ');
            let around_meta =
                matches!(prev, Some('|') | Some('(')) || matches!(next, Some('|') | Some(')'));
            if around_meta {
                continue;
            }
        }
        out.push(c);
    }
    out
}

/// Parses `fact <name> = <value> [@<conf>] [^<priority>]` (modifiers in
/// either order, at most once each). The value may contain spaces and `=`;
/// name and value are case-folded to match prepared-product lookups.
fn parse_fact_consequent(rhs: &str) -> Result<InferFact, ParseError> {
    let body = rhs.strip_prefix("fact").filter(|r| r.starts_with(char::is_whitespace)).ok_or_else(
        || err("inference consequent must be 'fact <name> = <value> [@conf] [^prio]'"),
    )?;
    let mut body = body.trim();
    let mut confidence_ppm: Option<u32> = None;
    let mut priority: Option<i32> = None;
    // Peel trailing @conf / ^prio modifier tokens off the end.
    while let Some((head, tail)) = body.rsplit_once(char::is_whitespace) {
        let tail = tail.trim();
        if let Some(conf) = tail.strip_prefix('@') {
            if confidence_ppm.is_some() {
                return Err(err("duplicate '@confidence' modifier"));
            }
            let c: f64 = conf.parse().map_err(|_| err(&format!("invalid confidence {conf:?}")))?;
            if !(0.0..=1.0).contains(&c) {
                return Err(err("confidence must be in [0, 1]"));
            }
            confidence_ppm = Some((c * 1_000_000.0).round() as u32);
            body = head.trim_end();
            continue;
        }
        if let Some(prio) = tail.strip_prefix('^') {
            if priority.is_some() {
                return Err(err("duplicate '^priority' modifier"));
            }
            priority = Some(prio.parse().map_err(|_| err(&format!("invalid priority {prio:?}")))?);
            body = head.trim_end();
            continue;
        }
        break;
    }
    let (name, value) =
        body.split_once('=').ok_or_else(|| err("fact consequent needs '<name> = <value>'"))?;
    let name = crate::prepared::fold_lower(name.trim()).into_owned();
    let value = crate::prepared::fold_lower(value.trim()).into_owned();
    if name.is_empty() {
        return Err(err("fact name must not be empty"));
    }
    if value.is_empty() {
        return Err(err("fact value must not be empty"));
    }
    Ok(InferFact {
        name,
        value,
        confidence_ppm: confidence_ppm.unwrap_or(1_000_000),
        priority: priority.unwrap_or(0),
    })
}

fn call_body<'a>(atom: &'a str, func: &str) -> Option<&'a str> {
    let rest = atom.strip_prefix(func)?.trim_start();
    let inner = rest.strip_prefix('(')?.strip_suffix(')')?;
    Some(inner.trim())
}

/// Splits on top-level ` and ` (not inside parentheses or classes).
fn split_top_level_and(s: &str) -> Vec<&str> {
    let mut parts = Vec::new();
    let bytes = s.as_bytes();
    let mut depth = 0i32;
    let mut start = 0usize;
    let mut i = 0usize;
    while i < bytes.len() {
        match bytes[i] {
            b'(' | b'[' => depth += 1,
            b')' | b']' => depth -= 1,
            _ => {}
        }
        // `is_char_boundary` guards the slice: ` and ` is ASCII, so a real
        // separator always starts on a boundary; a continuation byte of a
        // multi-byte char can never begin one.
        if depth == 0 && s.is_char_boundary(i) && s[i..].starts_with(" and ") {
            parts.push(&s[start..i]);
            i += 5;
            start = i;
            continue;
        }
        i += 1;
    }
    parts.push(&s[start..]);
    parts
}

fn strip_comment(line: &str) -> &str {
    match line.find('#') {
        Some(i) => &line[..i],
        None => line,
    }
}

fn err(message: &str) -> ParseError {
    ParseError { line: 0, message: message.to_string() }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rule::RuleAction;
    use rulekit_data::{Product, VendorId};

    fn parser() -> RuleParser {
        let mut p = RuleParser::new(Taxonomy::builtin());
        p.register_dictionary(Dictionary::new("pc_words", ["thinkpad", "ideapad", "chromebook"]));
        p
    }

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
    fn whitelist_rule_parses_and_matches() {
        let spec = parser().parse_rule("rings? -> rings").unwrap();
        assert!(matches!(spec.action, RuleAction::Assign(_)));
        assert!(spec.condition.matches(&product("Diamond Ring", &[])));
    }

    #[test]
    fn blacklist_rule() {
        let spec =
            parser().parse_rule("laptop (bag|case|sleeve)s? -> NOT laptop computers").unwrap();
        assert!(matches!(spec.action, RuleAction::Forbid(_)));
        assert!(spec.condition.matches(&product("padded laptop sleeve 15.6", &[])));
    }

    #[test]
    fn paper_whitespace_in_patterns_tolerated() {
        let spec = parser().parse_rule("(motor | engine) oils? -> motor oil").unwrap();
        assert!(spec.condition.matches(&product("synthetic engine oil 5qt", &[])));
        assert!(spec.condition.matches(&product("motor oils", &[])));
        assert!(!spec.condition.matches(&product("motor vehicle", &[])));
    }

    #[test]
    fn attr_rule() {
        let spec = parser().parse_rule("attr(ISBN) -> books").unwrap();
        assert!(spec.condition.matches(&product("anything", &[("ISBN", "978")])));
        assert!(!spec.condition.matches(&product("anything", &[])));
    }

    #[test]
    fn value_rule_with_restriction() {
        let spec = parser()
            .parse_rule(
                "value(Brand Name = Apple) -> one of laptop computers; smartphones; tablets",
            )
            .unwrap();
        let RuleAction::Restrict(types) = &spec.action else { panic!("expected restrict") };
        assert_eq!(types.len(), 3);
        assert!(spec.condition.matches(&product("x", &[("Brand Name", "apple")])));
    }

    #[test]
    fn value_rule_with_alternatives() {
        let spec = parser().parse_rule("value(Color = navy | blue) -> jeans").unwrap();
        assert!(spec.condition.matches(&product("x", &[("Color", "Navy")])));
        assert!(!spec.condition.matches(&product("x", &[("Color", "red")])));
    }

    #[test]
    fn conjunction_with_price() {
        // The §4 example the base language could NOT express.
        let spec = parser().parse_rule("title(apple) and price < 100 -> NOT smartphones").unwrap();
        assert!(spec.condition.matches(&product("apple usb-c cable", &[("Price", "12.99")])));
        assert!(!spec.condition.matches(&product("apple iphone", &[("Price", "799.00")])));
    }

    #[test]
    fn price_with_dollar_sign() {
        let spec = parser().parse_rule("title(apple) and price < $100 -> NOT smartphones").unwrap();
        assert!(spec.condition.matches(&product("apple cable", &[("Price", "5")])));
    }

    #[test]
    fn dictionary_rule() {
        let spec = parser()
            .parse_rule("dict(pc_words) -> one of laptop computers; desktop computers")
            .unwrap();
        assert!(spec.condition.matches(&product("Lenovo ThinkPad X1 Carbon", &[])));
        assert!(!spec.condition.matches(&product("Lenovo tablet", &[])));
    }

    #[test]
    fn unknown_dictionary_rejected() {
        let e = parser().parse_rule("dict(nope) -> books").unwrap_err();
        assert!(e.message.contains("unknown dictionary"));
    }

    #[test]
    fn unknown_type_rejected() {
        let e = parser().parse_rule("rings? -> flying carpets").unwrap_err();
        assert!(e.message.contains("unknown product type"));
    }

    #[test]
    fn missing_arrow_rejected() {
        assert!(parser().parse_rule("rings?").is_err());
    }

    #[test]
    fn num_compare_custom_attr() {
        let spec = parser().parse_rule("num(Pages) >= 100 -> books").unwrap();
        assert!(spec.condition.matches(&product("x", &[("Pages", "250")])));
        assert!(!spec.condition.matches(&product("x", &[("Pages", "50")])));
    }

    #[test]
    fn parse_rules_file_with_comments() {
        let text = "\n# ring rules\nrings? -> rings   # classic\ndiamond.*trio sets? -> rings\n\nattr(ISBN) -> books\n";
        let specs = parser().parse_rules(text).unwrap();
        assert_eq!(specs.len(), 3);
    }

    #[test]
    fn parse_rules_reports_line_numbers() {
        let text = "rings? -> rings\nbroken -> nowhere";
        let e = parser().parse_rules(text).unwrap_err();
        assert_eq!(e.line, 2);
    }

    #[test]
    fn expression_rule_parses_and_matches() {
        let spec = parser()
            .parse_rule(r#"rule: price < 20 && title ~ /braided/ => NOT area rugs"#)
            .unwrap();
        assert!(matches!(spec.action, RuleAction::Forbid(_)));
        assert!(matches!(spec.condition, Condition::Expr(_)));
        assert!(spec.condition.matches(&product("Braided Rug", &[("Price", "9.99")])));
        assert!(!spec.condition.matches(&product("Braided Rug", &[("Price", "49.99")])));
        assert!(!spec.condition.matches(&product("Shag Rug", &[("Price", "9.99")])));
    }

    #[test]
    fn expression_rule_with_restriction_action() {
        let spec =
            parser().parse_rule("rule: has(ISBN) || has(Pages) => one of books; tablets").unwrap();
        let RuleAction::Restrict(types) = &spec.action else { panic!("expected restrict") };
        assert_eq!(types.len(), 2);
        assert!(spec.condition.matches(&product("x", &[("Pages", "30")])));
    }

    #[test]
    fn expression_rule_reuses_the_cache() {
        let p = parser();
        let line = "rule: vendor in [3, 9] => books";
        p.parse_rule(line).unwrap();
        p.parse_rule(line).unwrap();
        let stats = p.expr_cache().stats();
        assert_eq!((stats.hits, stats.misses), (1, 1));
        // Clones (the durable store, the serving tier) share the memo.
        let clone = p.clone();
        clone.parse_rule(line).unwrap();
        assert_eq!(clone.expr_cache().stats().hits, 2);
    }

    #[test]
    fn rules_with_the_same_pattern_share_one_dfa() {
        let p = parser();
        let regex_of = |spec: &RuleSpec| spec.condition.title_regex().expect("title rule").clone();
        let plain = regex_of(&p.parse_rule("denim.*jeans? -> jeans").unwrap());
        // Different guard, different target, cosmetic whitespace: same regex.
        let guarded =
            regex_of(&p.parse_rule("title(denim.*jeans?) and price < 40 -> NOT shorts").unwrap());
        assert!(plain.shares_dfa_with(&guarded));
        assert!(plain.shares_dfa_with(&regex_of(
            &p.parse_rule("title( denim.*jeans? ) and price < 9 -> jeans").unwrap()
        )));
        assert!(!plain.shares_dfa_with(&regex_of(&p.parse_rule("jeans? -> jeans").unwrap())));

        // Across a parser clone (the store and the serving tier hold one).
        let from_clone = regex_of(&p.clone().parse_rule("denim.*jeans? -> jeans").unwrap());
        assert!(plain.shares_dfa_with(&from_clone));

        // Across a snapshot rebuild: rules cloned out of the repository, and
        // the same source parsed again afterwards, are still that regex.
        let repo = crate::RuleRepository::new();
        let specs = p.parse_rules("denim.*jeans? -> jeans\ndenim.*jeans? and price < 5 -> jeans");
        repo.add_all(specs.unwrap(), &crate::RuleMeta::default());
        for rule in repo.enabled_snapshot().iter().chain(&repo.enabled_snapshot()) {
            assert!(plain.shares_dfa_with(rule.condition.title_regex().unwrap()));
        }
        // A standalone compile stays standalone.
        assert!(!plain.shares_dfa_with(&compile_pattern("denim.*jeans?").unwrap()));
    }

    #[test]
    fn malformed_expression_rule_reports_error() {
        for bad in ["rule: price < => books", "rule: price < 20", "rule: title ~ /(/ => books"] {
            assert!(parser().parse_rule(bad).is_err(), "expected error for {bad:?}");
        }
    }

    #[test]
    fn infer_rule_parses() {
        let spec = parser()
            .parse_rule(
                r#"infer: `brand name` == "lego" && has(Pieces) => fact category = toys @0.9 ^10"#,
            )
            .unwrap();
        let RuleAction::Infer(fact) = &spec.action else { panic!("expected Infer") };
        assert_eq!(fact.name, "category");
        assert_eq!(fact.value, "toys");
        assert_eq!(fact.confidence_ppm, 900_000);
        assert_eq!(fact.priority, 10);
        assert!(matches!(spec.condition, Condition::Expr(_)));
    }

    #[test]
    fn infer_rule_defaults_and_modifier_order() {
        let p = parser();
        let spec = p.parse_rule("infer: has(ISBN) => fact media = book").unwrap();
        let RuleAction::Infer(fact) = &spec.action else { panic!("expected Infer") };
        assert_eq!((fact.confidence_ppm, fact.priority), (1_000_000, 0));
        // Modifiers are order-independent; values may hold spaces and '='.
        let spec = p.parse_rule("infer: has(a) => fact k = v one = two ^-3 @0.5").unwrap();
        let RuleAction::Infer(fact) = &spec.action else { panic!("expected Infer") };
        assert_eq!(fact.value, "v one = two");
        assert_eq!((fact.confidence_ppm, fact.priority), (500_000, -3));
    }

    #[test]
    fn infer_rule_folds_name_and_value() {
        let spec = parser().parse_rule("infer: has(a) => fact Category = TOYS").unwrap();
        let RuleAction::Infer(fact) = &spec.action else { panic!("expected Infer") };
        assert_eq!((fact.name.as_str(), fact.value.as_str()), ("category", "toys"));
    }

    #[test]
    fn malformed_infer_rules_report_typed_errors() {
        for bad in [
            "infer: has(a) fact k = v",          // missing =>
            "infer: has(a) => k = v",            // missing 'fact'
            "infer: has(a) => fact k",           // missing '='
            "infer: has(a) => fact = v",         // empty name
            "infer: has(a) => fact k =",         // empty value
            "infer: has(a) => fact k = v @2",    // confidence out of range
            "infer: has(a) => fact k = v @x",    // unparsable confidence
            "infer: has(a) => fact k = v ^x",    // unparsable priority
            "infer: has(a) => fact k = v @1 @1", // duplicate modifier
            "infer: price < => fact k = v",      // bad antecedent
        ] {
            assert!(parser().parse_rule(bad).is_err(), "expected error for {bad:?}");
        }
    }

    #[test]
    fn exact_equality_in_legacy_dsl() {
        let spec = parser().parse_rule("num(Pages) == 300 -> books").unwrap();
        assert!(spec.condition.matches(&product("x", &[("Pages", "300")])));
        assert!(!spec.condition.matches(&product("x", &[("Pages", "299.9999999999")])));
    }

    #[test]
    fn and_inside_pattern_not_split() {
        // "(sand and grit)" contains " and " inside parens — stays one atom.
        let spec =
            parser().parse_rule("(sand and grit) blaster -> abrasive wheels & discs").unwrap();
        assert!(spec.condition.matches(&product("sand and grit blaster", &[])));
    }
}
