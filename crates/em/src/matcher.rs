//! End-to-end matching: duplicate synthesis (the labeled-pair corpus the
//! paper's product-matching team gets from production), blocking, parallel
//! rule execution over candidate pairs, and precision/recall scoring.

use crate::blocking::{multi_pass_pairs, BlockingKey};
use crate::rules::RuleMatcher;
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::{Rng, SeedableRng};
use rulekit_data::{GeneratedItem, Product};
use std::collections::HashSet;

/// A corpus of records with known duplicate pairs.
#[derive(Debug, Clone)]
pub struct DedupCorpus {
    /// All records (originals and duplicates interleaved).
    pub records: Vec<Product>,
    /// Ground-truth duplicate pairs (indices, `i < j`).
    pub truth: HashSet<(u32, u32)>,
}

/// Synthesizes duplicates: each selected item is re-listed (another vendor
/// re-describing the same product) with title perturbations and occasional
/// attribute noise.
pub fn synthesize_duplicates(
    items: &[GeneratedItem],
    duplicate_fraction: f64,
    seed: u64,
) -> DedupCorpus {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut records = Vec::with_capacity(items.len() * 2);
    let mut truth = HashSet::new();
    let mut next_id = 10_000_000u64;

    for item in items {
        let idx = records.len() as u32;
        records.push(item.product.clone());
        if rng.gen_bool(duplicate_fraction.clamp(0.0, 1.0)) {
            let mut dup = item.product.clone();
            dup.id = next_id;
            next_id += 1;
            dup.title = perturb_title(&dup.title, &mut rng);
            // Occasionally the re-lister drops or garbles a non-key
            // attribute.
            if !dup.attributes.is_empty() && rng.gen_bool(0.3) {
                let k = rng.gen_range(0..dup.attributes.len());
                if dup.attributes[k].0 != "ISBN" {
                    dup.attributes.remove(k);
                }
            }
            let dup_idx = records.len() as u32;
            records.push(dup);
            truth.insert((idx, dup_idx));
        }
    }
    DedupCorpus { records, truth }
}

fn perturb_title(title: &str, rng: &mut StdRng) -> String {
    let mut tokens: Vec<&str> = title.split_whitespace().collect();
    match rng.gen_range(0..4) {
        // Drop a token.
        0 if tokens.len() > 3 => {
            let k = rng.gen_range(0..tokens.len());
            tokens.remove(k);
        }
        // Swap two adjacent tokens.
        1 if tokens.len() > 2 => {
            let k = rng.gen_range(0..tokens.len() - 1);
            tokens.swap(k, k + 1);
        }
        // Append a re-lister suffix.
        2 => tokens.push("(renewed)"),
        // Leave as-is (case change only).
        _ => {}
    }
    let joined = tokens.join(" ");
    if rng.gen_bool(0.5) {
        joined.to_lowercase()
    } else {
        joined
    }
}

/// Match results with oracle scoring.
#[derive(Debug, Clone, Default)]
pub struct MatchReport {
    /// Candidate pairs after blocking.
    pub candidates: usize,
    /// Pairs declared matches.
    pub predicted: usize,
    /// Correctly predicted duplicate pairs.
    pub true_positives: usize,
    /// Ground-truth pairs (for recall; includes pairs lost by blocking).
    pub truth_pairs: usize,
}

impl MatchReport {
    /// Precision over predicted pairs.
    pub fn precision(&self) -> f64 {
        if self.predicted == 0 {
            1.0
        } else {
            self.true_positives as f64 / self.predicted as f64
        }
    }

    /// Recall over all ground-truth pairs.
    pub fn recall(&self) -> f64 {
        if self.truth_pairs == 0 {
            1.0
        } else {
            self.true_positives as f64 / self.truth_pairs as f64
        }
    }

    /// F1.
    pub fn f1(&self) -> f64 {
        let (p, r) = (self.precision(), self.recall());
        if p + r == 0.0 {
            0.0
        } else {
            2.0 * p * r / (p + r)
        }
    }
}

/// Runs `matcher` over the corpus with the given blocking keys, scoring on
/// `threads` workers.
pub fn run_matcher(
    corpus: &DedupCorpus,
    matcher: &RuleMatcher,
    blocking: &[BlockingKey],
    threads: usize,
) -> MatchReport {
    let pairs = multi_pass_pairs(&corpus.records, blocking);
    let threads = threads.max(1);
    let chunk = pairs.len().div_ceil(threads).max(1);
    let mut predicted_pairs: Vec<(u32, u32)> = Vec::new();
    std::thread::scope(|scope| {
        let handles: Vec<_> = pairs
            .chunks(chunk)
            .map(|slice| {
                scope.spawn(move || {
                    slice
                        .iter()
                        .filter(|&&(i, j)| {
                            matcher
                                .matches(&corpus.records[i as usize], &corpus.records[j as usize])
                        })
                        .copied()
                        .collect::<Vec<_>>()
                })
            })
            .collect();
        for h in handles {
            predicted_pairs.extend(h.join().expect("matcher worker panicked"));
        }
    });

    let true_positives = predicted_pairs.iter().filter(|p| corpus.truth.contains(p)).count();
    MatchReport {
        candidates: pairs.len(),
        predicted: predicted_pairs.len(),
        true_positives,
        truth_pairs: corpus.truth.len(),
    }
}

/// Shuffled-order determinism check used by the §5.3 semantics experiment.
pub fn order_sensitivity(
    corpus: &DedupCorpus,
    matcher: &RuleMatcher,
    blocking: &[BlockingKey],
) -> bool {
    let forward = run_matcher(corpus, matcher, blocking, 2);
    let reversed = run_matcher(corpus, &matcher.reversed(), blocking, 2);
    forward.predicted != reversed.predicted || forward.true_positives != reversed.true_positives
}

/// Takes a random sample of `n` items (used by examples/benches).
pub fn sample_items(items: &[GeneratedItem], n: usize, seed: u64) -> Vec<GeneratedItem> {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut v: Vec<GeneratedItem> = items.to_vec();
    v.shuffle(&mut rng);
    v.truncate(n);
    v
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::predicate::Predicate;
    use crate::rules::{MatchAction, MatchRule, Semantics};
    use rulekit_data::{CatalogGenerator, Taxonomy};

    fn book_corpus() -> DedupCorpus {
        let tax = Taxonomy::builtin();
        let mut g = CatalogGenerator::with_seed(tax.clone(), 61);
        let books = tax.id_of("books").unwrap();
        let items = g.generate_n_for_type(books, 300);
        synthesize_duplicates(&items, 0.5, 62)
    }

    #[test]
    fn duplicates_share_isbn() {
        let corpus = book_corpus();
        assert!(!corpus.truth.is_empty());
        for &(i, j) in &corpus.truth {
            assert_eq!(
                corpus.records[i as usize].attr("ISBN"),
                corpus.records[j as usize].attr("ISBN")
            );
        }
    }

    #[test]
    fn paper_book_rules_achieve_high_f1() {
        let corpus = book_corpus();
        let matcher = RuleMatcher::paper_book_rules();
        let report = run_matcher(&corpus, &matcher, &[BlockingKey::Attr("ISBN".into())], 2);
        assert!(report.precision() > 0.95, "precision {}", report.precision());
        assert!(report.recall() > 0.9, "recall {}", report.recall());
        assert!(report.f1() > 0.92);
    }

    #[test]
    fn blocking_loses_nothing_when_key_is_stable() {
        let corpus = book_corpus();
        let pairs = multi_pass_pairs(&corpus.records, &[BlockingKey::Attr("ISBN".into())]);
        let pair_set: HashSet<(u32, u32)> = pairs.into_iter().collect();
        for t in &corpus.truth {
            assert!(pair_set.contains(t), "blocking lost truth pair {t:?}");
        }
    }

    #[test]
    fn title_only_baseline_has_lower_precision_than_conjunction() {
        // The E11 shape: single-predicate baselines vs the paper's rule.
        let corpus = book_corpus();
        let title_only = RuleMatcher::new(
            vec![MatchRule {
                name: "title-only".into(),
                predicates: vec![Predicate::TitleQgramJaccard { q: 3, threshold: 0.5 }],
                action: MatchAction::Match,
            }],
            Semantics::Declarative,
        );
        let blocking = [BlockingKey::TitlePrefix(1), BlockingKey::Attr("ISBN".into())];
        let loose = run_matcher(&corpus, &title_only, &blocking, 2);
        let strict = run_matcher(&corpus, &RuleMatcher::paper_book_rules(), &blocking, 2);
        assert!(
            strict.precision() >= loose.precision(),
            "strict {} vs loose {}",
            strict.precision(),
            loose.precision()
        );
    }

    #[test]
    fn parallel_thread_counts_agree() {
        let corpus = book_corpus();
        let matcher = RuleMatcher::paper_book_rules();
        let blocking = [BlockingKey::Attr("ISBN".into())];
        let a = run_matcher(&corpus, &matcher, &blocking, 1);
        let b = run_matcher(&corpus, &matcher, &blocking, 4);
        assert_eq!(a.predicted, b.predicted);
        assert_eq!(a.true_positives, b.true_positives);
    }

    #[test]
    fn declarative_book_rules_are_order_insensitive() {
        let corpus = book_corpus();
        assert!(!order_sensitivity(
            &corpus,
            &RuleMatcher::paper_book_rules(),
            &[BlockingKey::Attr("ISBN".into())]
        ));
    }

    #[test]
    fn empty_corpus_report() {
        let corpus = DedupCorpus { records: vec![], truth: HashSet::new() };
        let report = run_matcher(
            &corpus,
            &RuleMatcher::paper_book_rules(),
            &[BlockingKey::TitlePrefix(1)],
            2,
        );
        assert_eq!(report.predicted, 0);
        assert_eq!(report.precision(), 1.0);
        assert_eq!(report.recall(), 1.0);
    }
}
