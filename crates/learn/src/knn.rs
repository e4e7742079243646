//! k-nearest-neighbour classifier over TF/IDF vectors (§3.1's "k-NN").
//!
//! Scoring walks an inverted index over the training vectors, so a
//! prediction costs the postings of the query's terms plus one pass over the
//! documents they touch — not a scan of every training vector. On product
//! feeds that is still about three postings per training document, because
//! attribute-presence terms such as `attr::brand_name` sit in nearly every
//! document with a tiny but non-zero IDF: the cost grows with the training
//! set, only with a small constant (see DESIGN.md, "Learn stage").

use crate::classifier::{add_vote, Classifier, Prediction, TrainingSet};
use crate::table::{with_scratch, TermRows, TopK};
use rulekit_data::TypeId;
use rulekit_text::{FrozenTfIdf, WeightedQuery};

/// A trained k-NN model.
pub struct Knn {
    k: usize,
    tfidf: FrozenTfIdf,
    labels: Vec<TypeId>,
    /// Norms of training vectors (vectors themselves live in the postings).
    norms: Vec<f64>,
    /// term id → `(doc index, weight)` postings, ascending by doc.
    postings: TermRows,
}

impl Knn {
    /// Trains a model with neighbourhood size `k`.
    pub fn train(data: &TrainingSet, k: usize) -> Knn {
        assert!(k >= 1, "k must be at least 1");
        let tfidf = data.fit_tfidf();
        let mut labels = Vec::with_capacity(data.len());
        let mut norms = Vec::with_capacity(data.len());
        let mut postings: Vec<Vec<(u32, f64)>> = vec![Vec::new(); tfidf.vocab_len()];
        let mut v = WeightedQuery::default();
        for (i, (feats, label)) in data.docs.iter().enumerate() {
            tfidf.weigh_into(feats, &mut v);
            labels.push(*label);
            norms.push(v.norm());
            for &(term, w) in v.entries() {
                postings[term as usize].push((i as u32, w));
            }
        }
        Knn { k, tfidf, labels, norms, postings: TermRows::from_rows(postings) }
    }

    /// Number of training documents.
    pub fn len(&self) -> usize {
        self.labels.len()
    }

    /// Whether the model has no training documents.
    pub fn is_empty(&self) -> bool {
        self.labels.is_empty()
    }

    /// Number of terms in the vocabulary, fixed at training time.
    pub fn vocab_len(&self) -> usize {
        self.tfidf.vocab_len()
    }
}

impl Classifier for Knn {
    fn name(&self) -> &str {
        "knn"
    }

    fn predict(&self, features: &[String]) -> Prediction {
        if self.is_empty() {
            return Prediction::empty();
        }
        with_scratch(|s| {
            self.tfidf.weigh_into(features, &mut s.query);
            let qnorm = s.query.norm();
            if qnorm == 0.0 {
                return Prediction::empty();
            }
            // Dot products via postings. Terms ascend, so each document's
            // sum adds its terms in the order a merge-join would.
            s.dots.begin(self.len());
            for &(term, qw) in s.query.entries() {
                s.dots.add_row(self.postings.row(term), qw);
            }
            // A division costs more than the rest of this pass, so skip it
            // where the cosine is below the k-th best by more than the
            // rounding of the operations involved (a few parts in 1e16)
            // could hide.
            let mut nearest = TopK::new(self.k.min(self.len()));
            let mut cutoff = f64::NEG_INFINITY;
            for (doc, dot) in s.dots.touched() {
                let denom = qnorm * self.norms[doc as usize];
                if dot < cutoff * denom {
                    continue;
                }
                nearest.offer(doc, dot / denom);
                cutoff = nearest.floor() * (1.0 - 1e-12);
            }

            // Similarity-weighted vote among the k nearest.
            let mut votes: Vec<(TypeId, f64)> = Vec::with_capacity(self.k.min(self.len()));
            for (doc, sim) in nearest.into_vec() {
                add_vote(&mut votes, self.labels[doc as usize], sim);
            }
            Prediction::from_scores(votes)
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
            (vec!["wedding".into(), "band".into(), "ring".into()], TypeId(0)),
            (vec!["gold".into(), "ring".into()], TypeId(0)),
            (vec!["area".into(), "rug".into()], TypeId(1)),
            (vec!["oriental".into(), "rug".into()], TypeId(1)),
            (vec!["braided".into(), "area".into(), "rug".into()], TypeId(1)),
        ])
    }

    #[test]
    fn classifies_toy_data() {
        let knn = Knn::train(&toy(), 3);
        assert_eq!(knn.predict(&["diamond".into(), "band".into()]).top().unwrap().0, TypeId(0));
        assert_eq!(knn.predict(&["oriental".into(), "area".into()]).top().unwrap().0, TypeId(1));
    }

    #[test]
    fn training_accuracy_is_high() {
        let data = toy();
        let knn = Knn::train(&data, 1);
        assert_eq!(accuracy(&knn, &data), 1.0);
    }

    #[test]
    fn abstains_on_fully_unseen_features() {
        let knn = Knn::train(&toy(), 3);
        assert!(knn.predict(&["zzz".into()]).is_abstention());
        assert!(knn.predict(&[]).is_abstention());
    }

    #[test]
    fn empty_model_abstains() {
        let knn = Knn::train(&TrainingSet::default(), 3);
        assert!(knn.predict(&["ring".into()]).is_abstention());
        assert!(knn.is_empty());
    }

    #[test]
    fn k_one_matches_nearest_label() {
        let knn = Knn::train(&toy(), 1);
        let p = knn.predict(&["wedding".into(), "band".into(), "ring".into()]);
        assert_eq!(p.top().unwrap(), (TypeId(0), 1.0));
    }

    #[test]
    fn common_token_across_classes_is_downweighted() {
        // "set" appears in both classes, type tokens are discriminative.
        let data = TrainingSet::from_pairs(vec![
            (vec!["set".into(), "ring".into()], TypeId(0)),
            (vec!["set".into(), "ring".into()], TypeId(0)),
            (vec!["set".into(), "rug".into()], TypeId(1)),
            (vec!["set".into(), "rug".into()], TypeId(1)),
        ]);
        let knn = Knn::train(&data, 4);
        let p = knn.predict(&["set".into(), "rug".into()]);
        assert_eq!(p.top().unwrap().0, TypeId(1));
    }
}
