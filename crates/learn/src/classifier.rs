//! The classifier abstraction: every learner maps a feature bag to a ranked
//! list of `(type, weight)` predictions — exactly the contract the paper's
//! Voting Master consumes ("each prediction is a list of product types
//! together with weights", §3.3).

use rulekit_data::TypeId;
use rulekit_text::{FrozenTfIdf, TfIdf};

/// A ranked prediction.
#[derive(Debug, Clone, PartialEq)]
pub struct Prediction {
    /// `(type, weight)` pairs sorted by descending weight. Weights are
    /// normalized to sum to 1 when non-empty.
    pub scores: Vec<(TypeId, f64)>,
}

impl Prediction {
    /// An abstention.
    pub fn empty() -> Self {
        Prediction { scores: Vec::new() }
    }

    /// Builds a normalized, sorted prediction from raw scores.
    pub fn from_scores(mut scores: Vec<(TypeId, f64)>) -> Self {
        scores.retain(|&(_, w)| w.is_finite() && w > 0.0);
        // Sum in id order so normalization is bit-for-bit deterministic even
        // when callers collected the scores from a HashMap.
        scores.sort_by_key(|&(ty, _)| ty);
        let total: f64 = scores.iter().map(|&(_, w)| w).sum();
        if total > 0.0 {
            for (_, w) in &mut scores {
                *w /= total;
            }
        }
        scores
            .sort_by(|a, b| b.1.partial_cmp(&a.1).expect("weights are finite").then(a.0.cmp(&b.0)));
        Prediction { scores }
    }

    /// The top-ranked type and its weight.
    pub fn top(&self) -> Option<(TypeId, f64)> {
        self.scores.first().copied()
    }

    /// Whether the learner abstained.
    pub fn is_abstention(&self) -> bool {
        self.scores.is_empty()
    }

    /// Margin between the top two weights (top weight when only one).
    pub fn margin(&self) -> f64 {
        match (self.scores.first(), self.scores.get(1)) {
            (Some(&(_, a)), Some(&(_, b))) => a - b,
            (Some(&(_, a)), None) => a,
            _ => 0.0,
        }
    }

    /// Truncates to the top `k` entries (weights are not re-normalized).
    pub fn truncate(mut self, k: usize) -> Self {
        self.scores.truncate(k);
        self
    }
}

/// Adds `weight` to the vote for `ty`. Votes span a handful of types, so a
/// scan of the list replaces a map; per-type sums keep the order votes
/// arrive in.
pub(crate) fn add_vote(votes: &mut Vec<(TypeId, f64)>, ty: TypeId, weight: f64) {
    match votes.iter_mut().find(|(t, _)| *t == ty) {
        Some((_, sum)) => *sum += weight,
        None => votes.push((ty, weight)),
    }
}

/// A trained classifier.
pub trait Classifier: Send + Sync {
    /// Short human-readable name ("naive-bayes", "knn", …).
    fn name(&self) -> &str;

    /// Predicts from a feature bag.
    fn predict(&self, features: &[String]) -> Prediction;
}

/// A labeled training set of feature bags.
#[derive(Debug, Clone, Default)]
pub struct TrainingSet {
    /// `(features, label)` documents.
    pub docs: Vec<(Vec<String>, TypeId)>,
}

impl TrainingSet {
    /// Builds from raw pairs.
    pub fn from_pairs(docs: Vec<(Vec<String>, TypeId)>) -> Self {
        TrainingSet { docs }
    }

    /// Number of documents.
    pub fn len(&self) -> usize {
        self.docs.len()
    }

    /// Whether the set is empty.
    pub fn is_empty(&self) -> bool {
        self.docs.is_empty()
    }

    /// TF/IDF fitted over the documents, frozen for read-only weighting.
    pub(crate) fn fit_tfidf(&self) -> FrozenTfIdf {
        TfIdf::fit(self.docs.iter().map(|(f, _)| f.iter().map(String::as_str))).freeze()
    }

    /// Distinct labels present, sorted.
    pub fn labels(&self) -> Vec<TypeId> {
        let mut labels: Vec<TypeId> = self.docs.iter().map(|(_, t)| *t).collect();
        labels.sort_unstable();
        labels.dedup();
        labels
    }
}

/// Accuracy of `classifier` on a labeled evaluation set, counting abstentions
/// as errors.
pub fn accuracy(classifier: &dyn Classifier, eval: &TrainingSet) -> f64 {
    if eval.is_empty() {
        return 0.0;
    }
    let correct = eval
        .docs
        .iter()
        .filter(|(feats, truth)| classifier.predict(feats).top().map(|(t, _)| t) == Some(*truth))
        .count();
    correct as f64 / eval.len() as f64
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn prediction_normalizes_and_sorts() {
        let p = Prediction::from_scores(vec![(TypeId(2), 1.0), (TypeId(1), 3.0)]);
        assert_eq!(p.top(), Some((TypeId(1), 0.75)));
        assert_eq!(p.scores[1], (TypeId(2), 0.25));
    }

    #[test]
    fn prediction_drops_non_positive() {
        let p = Prediction::from_scores(vec![(TypeId(1), 0.0), (TypeId(2), -1.0)]);
        assert!(p.is_abstention());
    }

    #[test]
    fn margin_cases() {
        assert_eq!(Prediction::empty().margin(), 0.0);
        let single = Prediction::from_scores(vec![(TypeId(1), 2.0)]);
        assert_eq!(single.margin(), 1.0);
        let two = Prediction::from_scores(vec![(TypeId(1), 3.0), (TypeId(2), 1.0)]);
        assert!((two.margin() - 0.5).abs() < 1e-12);
    }

    #[test]
    fn ties_break_by_type_id() {
        let p = Prediction::from_scores(vec![(TypeId(5), 1.0), (TypeId(2), 1.0)]);
        assert_eq!(p.top().unwrap().0, TypeId(2));
    }

    #[test]
    fn training_set_labels() {
        let set = TrainingSet::from_pairs(vec![
            (vec!["a".into()], TypeId(3)),
            (vec!["b".into()], TypeId(1)),
            (vec!["c".into()], TypeId(3)),
        ]);
        assert_eq!(set.labels(), vec![TypeId(1), TypeId(3)]);
        assert_eq!(set.len(), 3);
    }
}
