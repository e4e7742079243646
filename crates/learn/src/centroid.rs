//! Nearest-centroid (Rocchio) classifier: one mean TF/IDF vector per class.
//! Cheap, robust, and a natural third member of the paper's ensemble.

use crate::classifier::{Classifier, Prediction, TrainingSet};
use crate::table::{class_index, slot, top_k, with_scratch, zeroed, TermRows};
use rulekit_data::TypeId;
use rulekit_text::{FrozenTfIdf, WeightedQuery};
use std::sync::Arc;

/// A trained nearest-centroid model.
pub struct Centroid {
    tfidf: Arc<FrozenTfIdf>,
    /// Classes seen in training, ascending; `centroids` indexes them by
    /// position.
    classes: Vec<TypeId>,
    /// The unit-length class centroids stored by term: term →
    /// `(class, weight)`.
    centroids: TermRows,
    top_k: usize,
}

impl Centroid {
    /// Trains centroids from `data`.
    pub fn train(data: &TrainingSet) -> Centroid {
        Centroid::train_with(data, Arc::new(data.fit_tfidf()))
    }

    /// [`Centroid::train`] over a TF/IDF model already fitted to `data`.
    pub(crate) fn train_with(data: &TrainingSet, tfidf: Arc<FrozenTfIdf>) -> Centroid {
        let classes = data.labels();
        let mut class_docs = vec![0usize; classes.len()];
        // Per (term, class), the sum of the unit-length document vectors.
        let mut rows: Vec<Vec<(u32, f64)>> = vec![Vec::new(); tfidf.vocab_len()];
        let mut v = WeightedQuery::default();
        for (feats, label) in &data.docs {
            let class = class_index(&classes, *label);
            class_docs[class as usize] += 1;
            tfidf.weigh_into(feats, &mut v);
            let unit = 1.0 / v.norm();
            for &(term, w) in v.entries() {
                *slot(&mut rows[term as usize], class) += w * unit;
            }
        }
        // Sum → mean → unit length, the norm summed over ascending terms.
        let mut square_sums = vec![0.0; classes.len()];
        for (class, w) in rows.iter_mut().flatten() {
            *w *= 1.0 / class_docs[*class as usize] as f64;
            square_sums[*class as usize] += *w * *w;
        }
        for (class, w) in rows.iter_mut().flatten() {
            let norm = square_sums[*class as usize].sqrt();
            if norm != 0.0 {
                *w *= 1.0 / norm;
            }
        }
        Centroid { tfidf, classes, centroids: TermRows::from_rows(rows), top_k: 3 }
    }

    /// Sets how many classes the prediction reports (default 3).
    pub fn with_top_k(mut self, k: usize) -> Self {
        self.top_k = k.max(1);
        self
    }

    /// Number of classes with centroids.
    pub fn class_count(&self) -> usize {
        self.classes.len()
    }

    /// Number of terms in the vocabulary, fixed at training time.
    pub fn vocab_len(&self) -> usize {
        self.tfidf.vocab_len()
    }
}

impl Classifier for Centroid {
    fn name(&self) -> &str {
        "centroid"
    }

    fn predict(&self, features: &[String]) -> Prediction {
        if self.classes.is_empty() {
            return Prediction::empty();
        }
        with_scratch(|s| {
            self.tfidf.weigh_into(features, &mut s.query);
            if s.query.norm() == 0.0 {
                return Prediction::empty();
            }
            // One pass over the query's terms, ascending, accumulates every
            // class's cosine in the order a merge-join per class would.
            let unit = 1.0 / s.query.norm();
            let cosines = zeroed(&mut s.classes, self.classes.len());
            for &(term, qw) in s.query.entries() {
                let qw = qw * unit;
                for &(class, cw) in self.centroids.row(term) {
                    cosines[class as usize] += qw * cw;
                }
            }
            let scored = self.classes.iter().copied().zip(cosines.iter().copied());
            let best = top_k(scored.filter(|&(_, cos)| cos > 0.0), self.top_k);
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
            (vec!["area".into(), "rug".into()], TypeId(1)),
            (vec!["shag".into(), "rug".into()], TypeId(1)),
        ])
    }

    #[test]
    fn classifies_toy_data() {
        let c = Centroid::train(&toy());
        assert_eq!(c.class_count(), 2);
        assert_eq!(c.predict(&["diamond".into()]).top().unwrap().0, TypeId(0));
        assert_eq!(c.predict(&["shag".into(), "area".into()]).top().unwrap().0, TypeId(1));
    }

    #[test]
    fn training_accuracy() {
        let data = toy();
        let c = Centroid::train(&data);
        assert_eq!(accuracy(&c, &data), 1.0);
    }

    #[test]
    fn abstains_on_unseen_vocabulary() {
        let c = Centroid::train(&toy());
        assert!(c.predict(&["zzz".into()]).is_abstention());
    }

    #[test]
    fn empty_model_abstains() {
        let c = Centroid::train(&TrainingSet::default());
        assert!(c.predict(&["ring".into()]).is_abstention());
    }
}
