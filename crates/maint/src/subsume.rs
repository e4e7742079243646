//! Subsumption detection (§4 "Rule Maintenance", third challenge): find
//! rules that are subsumed by other rules, e.g. `denim.*jeans?` by `jeans?`,
//! "and hence should be removed".
//!
//! Two detectors, as production systems want both:
//!
//! * **formal** — language containment on the patterns themselves
//!   ([`rulekit_regex::touch_subset`]); sound, no data needed;
//! * **empirical** — coverage-subset testing over a development corpus;
//!   catches containments the formal analysis gives up on, at the price of
//!   being corpus-relative.

use rulekit_core::{Rule, RuleAction, RuleId, TitleIndex};
use rulekit_regex::{parser, touch_subset, Ast, Containment, Regex};
use std::cell::OnceCell;

/// How a subsumption was established.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Evidence {
    /// Pattern-language containment (holds for all possible titles).
    Formal,
    /// Coverage containment on the given corpus.
    Empirical,
}

/// One detected subsumption: `subsumed` can be removed because `by` touches
/// a superset of what it touches (and both have the same action target).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Subsumption {
    /// The redundant rule.
    pub subsumed: RuleId,
    /// The rule that covers it.
    pub by: RuleId,
    /// How it was established.
    pub evidence: Evidence,
}

/// Finds subsumed whitelist-rule pairs among rules targeting the same type.
///
/// When `corpus` is given, pairs the formal analysis could not decide are
/// checked empirically (subset of coverage on the corpus, requiring the
/// subsumed rule to touch at least `min_empirical_touches` titles so that
/// trivially-empty rules don't flag).
pub fn find_subsumptions(
    rules: &[Rule],
    corpus: Option<&TitleIndex>,
    min_empirical_touches: usize,
) -> Vec<Subsumption> {
    let mut out = Vec::new();
    let whitelist: Vec<&Rule> =
        rules.iter().filter(|r| matches!(r.action, RuleAction::Assign(_))).collect();
    let patterns = ParsedPatterns::new(whitelist.iter().map(|r| r.condition.title_regex()));

    for (ai, a) in whitelist.iter().enumerate() {
        let Some(re_a) = a.condition.title_regex() else { continue };
        for (bi, b) in whitelist.iter().enumerate() {
            if a.id == b.id || a.target_type() != b.target_type() {
                continue;
            }
            let Some(re_b) = b.condition.title_regex() else { continue };
            // Tie-break identical patterns by id so exactly one direction is
            // reported.
            if re_a.pattern() == re_b.pattern() && a.id < b.id {
                continue;
            }
            match patterns.subsumed(ai, bi) {
                Containment::Subset => {
                    // Mutual containment (equivalent patterns): keep the
                    // older rule, flag the newer one.
                    if patterns.subsumed(bi, ai) == Containment::Subset && a.id < b.id {
                        continue;
                    }
                    out.push(Subsumption { subsumed: a.id, by: b.id, evidence: Evidence::Formal });
                }
                Containment::NotSubset => {}
                Containment::Unknown => {
                    if let Some(index) = corpus {
                        let cov_a = index.matching(re_a);
                        let cov_b = index.matching(re_b);
                        if cov_a.len() >= min_empirical_touches
                            && !cov_a.is_empty()
                            && cov_a.iter().all(|d| cov_b.contains(d))
                        {
                            out.push(Subsumption {
                                subsumed: a.id,
                                by: b.id,
                                evidence: Evidence::Empirical,
                            });
                        }
                    }
                }
            }
        }
    }
    out.sort_by_key(|s| (s.subsumed, s.by));
    out.dedup();
    out
}

/// Title patterns for one maintenance pass, each parsed at most once: a
/// compiled [`Regex`] keeps no AST, and the containment checks need one.
pub(crate) struct ParsedPatterns<'r> {
    regexes: Vec<Option<&'r Regex>>,
    asts: Vec<OnceCell<Ast>>,
}

impl<'r> ParsedPatterns<'r> {
    /// Patterns by position: `regexes` yields each rule's title regex, if any.
    pub(crate) fn new(regexes: impl IntoIterator<Item = Option<&'r Regex>>) -> Self {
        let regexes: Vec<_> = regexes.into_iter().collect();
        let asts = regexes.iter().map(|_| OnceCell::new()).collect();
        ParsedPatterns { regexes, asts }
    }

    /// Whether every text pattern `a` touches is also touched by pattern
    /// `b` ([`touch_subset`], case-folded when either regex folds case).
    pub(crate) fn subsumed(&self, a: usize, b: usize) -> Containment {
        let (Some(re_a), Some(re_b)) = (self.regexes[a], self.regexes[b]) else {
            return Containment::Unknown;
        };
        let case_insensitive = re_a.options().case_insensitive || re_b.options().case_insensitive;
        touch_subset(self.ast(a, re_a), self.ast(b, re_b), case_insensitive)
    }

    fn ast(&self, i: usize, re: &Regex) -> &Ast {
        self.asts[i].get_or_init(|| parser::parse(re.pattern()).expect("a compiled pattern parses"))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rulekit_core::{RuleMeta, RuleParser, RuleRepository};
    use rulekit_data::Taxonomy;

    fn rules(lines: &[&str]) -> Vec<Rule> {
        let parser = RuleParser::new(Taxonomy::builtin());
        let repo = RuleRepository::new();
        for line in lines {
            repo.add(parser.parse_rule(line).unwrap(), RuleMeta::default());
        }
        repo.enabled_snapshot()
    }

    #[test]
    fn paper_jeans_example_detected() {
        let rs = rules(&["denim.*jeans? -> jeans", "jeans? -> jeans"]);
        let subs = find_subsumptions(&rs, None, 1);
        assert_eq!(subs.len(), 1);
        assert_eq!(subs[0].subsumed, rs[0].id);
        assert_eq!(subs[0].by, rs[1].id);
        assert_eq!(subs[0].evidence, Evidence::Formal);
    }

    #[test]
    fn different_types_never_subsume() {
        let rs = rules(&["denim.*jeans? -> jeans", "jeans? -> shorts"]);
        assert!(find_subsumptions(&rs, None, 1).is_empty());
    }

    #[test]
    fn equivalent_patterns_flag_exactly_one_direction() {
        let rs = rules(&["rings? -> rings", "rings? -> rings"]);
        let subs = find_subsumptions(&rs, None, 1);
        assert_eq!(subs.len(), 1);
        // The newer rule is the redundant one.
        assert_eq!(subs[0].subsumed, rs[1].id);
    }

    #[test]
    fn overlapping_but_incomparable_rules_do_not_flag() {
        // §4's "wheels & discs" pair: overlap without subsumption.
        let rs = rules(&[
            "(abrasive|sand(er|ing))[ -](wheels?|discs?) -> abrasive wheels & discs",
            "abrasive.*(wheels?|discs?) -> abrasive wheels & discs",
        ]);
        assert!(find_subsumptions(&rs, None, 1).is_empty());
    }

    #[test]
    fn no_false_positives_on_disjoint_rules() {
        let rs = rules(&["rings? -> rings", "wedding bands? -> rings"]);
        assert!(find_subsumptions(&rs, None, 1).is_empty());
    }

    #[test]
    fn blacklist_rules_ignored() {
        let rs = rules(&["denim.*jeans? -> NOT shorts", "jeans? -> NOT shorts"]);
        assert!(find_subsumptions(&rs, None, 1).is_empty());
    }
}
