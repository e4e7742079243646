//! Averaged multiclass perceptron — the linear max-margin-ish member of the
//! ensemble, standing in for the paper's "SVM, etc." (§3.1). The averaged
//! variant (Freund & Schapire) is far more stable than the vanilla update.

use crate::classifier::{Classifier, Prediction, TrainingSet};
use crate::table::{class_index, slot, top_k, with_scratch, zeroed, TermRows};
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::SeedableRng;
use rulekit_data::TypeId;
use rulekit_text::Vocabulary;

/// A trained averaged perceptron.
pub struct Perceptron {
    /// Classes seen in training, ascending; `weights` indexes them by
    /// position.
    classes: Vec<TypeId>,
    /// Tokens seen in training.
    vocab: Vocabulary,
    /// term → `(class, averaged weight)` for every pair an update touched.
    weights: TermRows,
    top_k: usize,
}

/// Training options.
#[derive(Debug, Clone, Copy)]
pub struct PerceptronConfig {
    /// Passes over the training data.
    pub epochs: usize,
    /// Shuffle seed.
    pub seed: u64,
}

impl Default for PerceptronConfig {
    fn default() -> Self {
        PerceptronConfig { epochs: 5, seed: 0 }
    }
}

/// One `(term, class)` weight during training.
#[derive(Default)]
struct Cell {
    current: f64,
    /// Σ `update step × delta`, for the average.
    accumulated: f64,
}

impl Perceptron {
    /// Trains with default options.
    pub fn train(data: &TrainingSet) -> Perceptron {
        Perceptron::train_with(data, PerceptronConfig::default())
    }

    /// Trains with explicit options.
    pub fn train_with(data: &TrainingSet, cfg: PerceptronConfig) -> Perceptron {
        let classes = data.labels();
        let mut vocab = Vocabulary::new();
        let docs: Vec<(Vec<u32>, u32)> = data
            .docs
            .iter()
            .map(|(feats, label)| {
                (feats.iter().map(|tok| vocab.intern(tok)).collect(), class_index(&classes, *label))
            })
            .collect();
        let mut rows: Vec<Vec<(u32, Cell)>> = Vec::new();
        rows.resize_with(vocab.len(), Vec::new);
        let mut scores = vec![0.0; classes.len()];

        let mut order: Vec<usize> = (0..docs.len()).collect();
        let mut rng = StdRng::seed_from_u64(cfg.seed);
        let mut updates = 0u64;

        for _ in 0..cfg.epochs.max(1) {
            order.shuffle(&mut rng);
            for &i in &order {
                let (terms, truth) = &docs[i];
                scores.fill(0.0);
                for &term in terms {
                    for (class, cell) in &rows[term as usize] {
                        scores[*class as usize] += cell.current;
                    }
                }
                // Highest score; the lowest type id among equals.
                let predicted =
                    (1..scores.len())
                        .fold(0, |best, c| if scores[c] > scores[best] { c } else { best })
                        as u32;
                if predicted != *truth {
                    // Promote truth, demote the (wrong) prediction.
                    for (class, delta) in [(*truth, 1.0), (predicted, -1.0)] {
                        for &term in terms {
                            let cell = slot(&mut rows[term as usize], class);
                            cell.current += delta;
                            cell.accumulated += delta * updates as f64;
                        }
                    }
                }
                updates += 1;
            }
        }

        // Final averaged weights: w_avg = w_current − accumulated/updates.
        let total = updates.max(1) as f64;
        let weights = rows
            .into_iter()
            .map(|row| {
                row.into_iter()
                    .map(|(c, cell)| (c, cell.current - cell.accumulated / total))
                    .collect()
            })
            .collect();
        Perceptron { classes, vocab, weights: TermRows::from_rows(weights), top_k: 3 }
    }

    /// Sets how many classes the prediction reports (default 3).
    pub fn with_top_k(mut self, k: usize) -> Self {
        self.top_k = k.max(1);
        self
    }

    /// Every stored `(class, token, averaged weight)`.
    pub fn weights(&self) -> impl Iterator<Item = (TypeId, &str, f64)> + '_ {
        (0..self.weights.len() as u32).flat_map(move |term| {
            let token = self.vocab.term(term).expect("one row per interned token");
            self.weights.row(term).iter().map(move |&(c, w)| (self.classes[c as usize], token, w))
        })
    }
}

impl Classifier for Perceptron {
    fn name(&self) -> &str {
        "perceptron"
    }

    fn predict(&self, features: &[String]) -> Prediction {
        if self.classes.is_empty() {
            return Prediction::empty();
        }
        with_scratch(|s| {
            // A class without a weight for a token adds 0.0, i.e. nothing.
            let scores = zeroed(&mut s.classes, self.classes.len());
            for term in features.iter().filter_map(|tok| self.vocab.get(tok)) {
                for &(class, w) in self.weights.row(term) {
                    scores[class as usize] += w;
                }
            }
            let scored = self.classes.iter().copied().zip(scores.iter().copied());
            let mut best = top_k(scored, self.top_k);
            // Shift so the weakest retained score maps to a small positive weight.
            let min = best.last().map_or(0.0, |&(_, s)| s);
            for (_, s) in &mut best {
                *s = *s - min + 1e-6;
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
            (vec!["laptop".into(), "computer".into()], TypeId(2)),
            (vec!["gaming".into(), "laptop".into()], TypeId(2)),
        ])
    }

    #[test]
    fn separable_data_learned_perfectly() {
        let data = toy();
        let p = Perceptron::train(&data);
        assert_eq!(accuracy(&p, &data), 1.0);
    }

    #[test]
    fn predicts_by_discriminative_tokens() {
        let p = Perceptron::train(&toy());
        assert_eq!(p.predict(&["diamond".into(), "ring".into()]).top().unwrap().0, TypeId(0));
        assert_eq!(p.predict(&["laptop".into()]).top().unwrap().0, TypeId(2));
    }

    #[test]
    fn empty_model_abstains() {
        let p = Perceptron::train(&TrainingSet::default());
        assert!(p.predict(&["x".into()]).is_abstention());
    }

    #[test]
    fn training_is_deterministic_per_seed() {
        let data = toy();
        let a = Perceptron::train_with(&data, PerceptronConfig { epochs: 3, seed: 1 });
        let b = Perceptron::train_with(&data, PerceptronConfig { epochs: 3, seed: 1 });
        for feats in [["ring".to_string()], ["rug".to_string()]] {
            assert_eq!(a.predict(&feats).top().map(|t| t.0), b.predict(&feats).top().map(|t| t.0));
        }
    }
}
