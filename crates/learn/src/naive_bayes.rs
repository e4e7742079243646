//! Multinomial Naive Bayes with Laplace smoothing — the first learner in the
//! paper's ensemble (§3.1).

use crate::classifier::{Classifier, Prediction, TrainingSet};
use crate::table::{class_index, slot, top_k, with_scratch, TermRows};
use rulekit_data::TypeId;
use rulekit_text::Vocabulary;

/// A trained multinomial Naive Bayes model.
#[derive(Debug)]
pub struct NaiveBayes {
    /// Classes seen in training, ascending; tables index them by position.
    classes: Vec<TypeId>,
    /// log prior per class.
    log_prior: Vec<f64>,
    /// Tokens seen in training.
    vocab: Vocabulary,
    /// term → `(class, ln((count + α) / denom))` for every class that saw
    /// the term.
    seen: TermRows,
    /// Per class `ln(α / denom)`: the smoothed likelihood of a token the
    /// class never saw.
    unseen: Vec<f64>,
    /// How many top classes to report.
    top_k: usize,
}

impl NaiveBayes {
    /// Trains a model with Laplace `alpha = 1.0`.
    pub fn train(data: &TrainingSet) -> NaiveBayes {
        NaiveBayes::train_with_alpha(data, 1.0)
    }

    /// Trains with an explicit smoothing constant.
    pub fn train_with_alpha(data: &TrainingSet, alpha: f64) -> NaiveBayes {
        assert!(alpha > 0.0, "alpha must be positive");
        let classes = data.labels();
        let mut class_docs = vec![0u64; classes.len()];
        let mut class_totals = vec![0u64; classes.len()];
        let mut vocab = Vocabulary::new();
        let mut counts: Vec<Vec<(u32, u32)>> = Vec::new();

        for (feats, label) in &data.docs {
            let class = class_index(&classes, *label);
            class_docs[class as usize] += 1;
            class_totals[class as usize] += feats.len() as u64;
            for tok in feats {
                let term = vocab.intern(tok) as usize;
                if term == counts.len() {
                    counts.push(Vec::new());
                }
                *slot(&mut counts[term], class) += 1;
            }
        }

        let n_docs = data.docs.len().max(1) as f64;
        let log_prior = class_docs.iter().map(|&n| (n as f64 / n_docs).ln()).collect();
        let vocab_size = vocab.len().max(1);
        let denom: Vec<f64> =
            class_totals.iter().map(|&total| total as f64 + alpha * vocab_size as f64).collect();
        let likelihood = |count: u32, class: usize| ((count as f64 + alpha) / denom[class]).ln();
        let seen = counts
            .into_iter()
            .map(|row| row.into_iter().map(|(c, n)| (c, likelihood(n, c as usize))).collect())
            .collect();
        let unseen = (0..classes.len()).map(|class| likelihood(0, class)).collect();

        NaiveBayes { classes, log_prior, vocab, seen: TermRows::from_rows(seen), unseen, top_k: 3 }
    }

    /// Sets how many classes the prediction reports (default 3).
    pub fn with_top_k(mut self, k: usize) -> Self {
        self.top_k = k.max(1);
        self
    }
}

impl Classifier for NaiveBayes {
    fn name(&self) -> &str {
        "naive-bayes"
    }

    fn predict(&self, features: &[String]) -> Prediction {
        if self.classes.is_empty() {
            return Prediction::empty();
        }
        with_scratch(|s| {
            // Every class takes exactly one term per token, in token order.
            s.classes.clear();
            s.classes.extend_from_slice(&self.log_prior);
            for tok in features {
                let term_row = match self.vocab.get(tok) {
                    Some(term) => {
                        s.term_row.clear();
                        s.term_row.extend_from_slice(&self.unseen);
                        for &(class, ll) in self.seen.row(term) {
                            s.term_row[class as usize] = ll;
                        }
                        &s.term_row
                    }
                    None => &self.unseen,
                };
                for (sum, ll) in s.classes.iter_mut().zip(term_row) {
                    *sum += ll;
                }
            }
            let scored = self.classes.iter().copied().zip(s.classes.iter().copied());
            let mut best = top_k(scored, self.top_k);
            // Convert log scores to relative weights via softmax over the top-k.
            let max = best[0].1;
            for (_, ll) in &mut best {
                *ll = (*ll - max).exp();
            }
            Prediction::from_scores(best)
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::classifier::accuracy;

    fn toy() -> TrainingSet {
        TrainingSet::from_pairs(vec![
            (vec!["diamond".into(), "ring".into()], TypeId(0)),
            (vec!["wedding".into(), "ring".into()], TypeId(0)),
            (vec!["gold".into(), "ring".into()], TypeId(0)),
            (vec!["area".into(), "rug".into()], TypeId(1)),
            (vec!["oriental".into(), "rug".into()], TypeId(1)),
            (vec!["shag".into(), "rug".into()], TypeId(1)),
        ])
    }

    #[test]
    fn classifies_toy_data() {
        let nb = NaiveBayes::train(&toy());
        let p = nb.predict(&["diamond".into(), "ring".into()]);
        assert_eq!(p.top().unwrap().0, TypeId(0));
        let p = nb.predict(&["braided".into(), "rug".into()]);
        assert_eq!(p.top().unwrap().0, TypeId(1));
    }

    #[test]
    fn perfect_accuracy_on_training_data() {
        let data = toy();
        let nb = NaiveBayes::train(&data);
        assert_eq!(accuracy(&nb, &data), 1.0);
    }

    #[test]
    fn unseen_tokens_still_yield_a_prediction() {
        // NB never abstains: unseen tokens are smoothed, not fatal. (This is
        // why the ensemble's confidence threshold matters — see §3.1's need
        // to decline low-confidence items.)
        let nb = NaiveBayes::train(&toy());
        let p = nb.predict(&["zzz".into(), "qqq".into()]);
        assert!(!p.is_abstention());
        // Equal priors + equal class sizes ⇒ deterministic tie-break by id.
        assert_eq!(p.top().unwrap().0, TypeId(0));
    }

    #[test]
    fn prediction_weights_normalized() {
        let nb = NaiveBayes::train(&toy());
        let p = nb.predict(&["ring".into()]);
        let total: f64 = p.scores.iter().map(|&(_, w)| w).sum();
        assert!((total - 1.0).abs() < 1e-9);
        assert!(p.scores.len() <= 3);
    }

    #[test]
    fn empty_model_abstains() {
        let nb = NaiveBayes::train(&TrainingSet::default());
        assert!(nb.predict(&["x".into()]).is_abstention());
    }

    #[test]
    fn top_k_respected() {
        let nb = NaiveBayes::train(&toy()).with_top_k(1);
        assert_eq!(nb.predict(&["ring".into()]).scores.len(), 1);
    }
}
