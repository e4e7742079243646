//! k-nearest-neighbour classifier over TF/IDF vectors (§3.1's "k-NN").
//!
//! A prediction reads only the postings that can change the answer. The
//! query's terms are accumulated heaviest first — rare words, short lists —
//! and before a list longer than everything touched so far is opened, the
//! k-th best partial cosine is held against the most a still-untouched
//! document could reach, `‖q_rest‖ / ‖q‖` (Cauchy–Schwarz). Once that bound
//! loses, the lists left are never opened: on product feeds those are the
//! attribute-presence terms such as `attr::brand_name` that sit in nearly
//! every training document with a near-zero IDF. The touched documents that
//! could still reach the k-th best are then scored again, exactly, from a
//! forward index in ascending term order, so every cosine carries the bits an
//! exhaustive walk of all the query's postings would give it (see DESIGN.md,
//! "Learn stage"; `tests/reference/` keeps that walk as the oracle).
//!
//! Weights are stored once per *group* — a distinct `(term, weight)` pair; a
//! term has one group per term frequency that occurs in training, nearly
//! always just tf = 1 — so a posting is a bare document index and a forward
//! entry a bare group index, 4 bytes each.

use crate::classifier::{add_vote, Classifier, Prediction, TrainingSet};
use crate::table::{with_scratch, Csr, DocSums, Scratch, TopK};
use rulekit_data::TypeId;
use rulekit_text::{FrozenTfIdf, WeightedQuery};
use std::ops::Range;
use std::sync::Arc;

/// How far below a bound a cosine may sit and still count as reaching it:
/// far more than the rounding that separates a partial sum from the exact
/// one (parts in 1e16), far less than any gap worth pruning on.
const SLACK: f64 = 1e-9;

/// A trained k-NN model.
pub struct Knn {
    k: usize,
    tfidf: Arc<FrozenTfIdf>,
    labels: Vec<TypeId>,
    /// Norms of the training vectors.
    norms: Vec<f64>,
    /// group → its weight. Groups are numbered by ascending term.
    weights: Vec<f64>,
    /// Term `t`'s groups are `term_groups[t]..term_groups[t + 1]`.
    term_groups: Vec<u32>,
    /// group → the documents with that term at that weight, ascending.
    postings: Csr<u32>,
    /// document → its groups, ascending and so ascending by term.
    forward: Csr<u32>,
}

/// What one prediction read, for the work guard in `tests/knn_work.rs`.
#[doc(hidden)]
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct KnnWork {
    /// Postings added into partial sums.
    pub postings_walked: usize,
    /// Documents those postings reached.
    pub docs_touched: usize,
    /// Documents scored exactly from the forward index.
    pub docs_rescored: usize,
}

impl Knn {
    /// Trains a model with neighbourhood size `k`.
    pub fn train(data: &TrainingSet, k: usize) -> Knn {
        Knn::train_with(data, k, Arc::new(data.fit_tfidf()))
    }

    /// [`Knn::train`] over a TF/IDF model already fitted to `data`.
    pub(crate) fn train_with(data: &TrainingSet, k: usize, tfidf: Arc<FrozenTfIdf>) -> Knn {
        assert!(k >= 1, "k must be at least 1");
        // Each vector as `(term, which of the term's distinct weights)`.
        let mut labels = Vec::with_capacity(data.len());
        let mut norms = Vec::with_capacity(data.len());
        let mut vectors = Csr::with_capacity(data.len());
        let mut term_weights: Vec<Vec<f64>> = vec![Vec::new(); tfidf.vocab_len()];
        let mut v = WeightedQuery::default();
        let mut row = Vec::new();
        for (feats, label) in &data.docs {
            tfidf.weigh_into(feats, &mut v);
            labels.push(*label);
            norms.push(v.norm());
            row.clear();
            row.extend(v.entries().iter().map(|&(term, w)| {
                let seen = &mut term_weights[term as usize];
                let at = seen.iter().position(|&s| s == w).unwrap_or_else(|| {
                    seen.push(w);
                    seen.len() - 1
                });
                (term, at as u32)
            }));
            vectors.push_row(&row);
        }
        // Groups numbered term by term; then the vectors by group index, and
        // the same table by group.
        let mut term_groups = Vec::with_capacity(term_weights.len() + 1);
        let mut weights = Vec::new();
        for of_term in &term_weights {
            term_groups.push(weights.len() as u32);
            weights.extend_from_slice(of_term);
        }
        term_groups.push(u32::try_from(weights.len()).expect("groups fit u32"));
        let forward = vectors.map(|(term, at)| term_groups[term as usize] + at);
        let postings = forward.transposed(weights.len());
        Knn { k, tfidf, labels, norms, weights, term_groups, postings, forward }
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

    fn groups_of(&self, term: u32) -> Range<u32> {
        self.term_groups[term as usize]..self.term_groups[term as usize + 1]
    }

    /// The k-th best partial cosine among the documents touched so far, or
    /// −∞ when fewer than k are. Partial sums only grow (weights are
    /// positive), so this never exceeds the k-th best final cosine.
    fn kth_partial_cosine(&self, dots: &DocSums, qnorm: f64, best: &mut TopK<u32>) -> f64 {
        best.reset(self.k.min(self.len()));
        let mut floor = f64::NEG_INFINITY;
        for (doc, dot) in dots.touched() {
            // A division costs more than the rest of this pass; skipping a
            // document can only lower the bound returned.
            let denom = qnorm * self.norms[doc as usize];
            if dot <= floor * denom {
                continue;
            }
            best.offer(doc, dot / denom);
            floor = best.floor();
        }
        floor
    }

    /// `query · doc` with the products added in ascending term order — the
    /// order a walk of every posting of the query's terms adds them in.
    fn exact_dot(&self, query: &[(u32, f64)], doc: u32) -> f64 {
        let mut groups = self.forward.row(doc).iter().copied().peekable();
        let mut dot = 0.0;
        for &(term, qw) in query {
            let of_term = self.groups_of(term);
            while groups.next_if(|&g| g < of_term.start).is_some() {}
            if let Some(g) = groups.next_if(|&g| g < of_term.end) {
                dot += qw * self.weights[g as usize];
            }
        }
        dot
    }

    /// [`Classifier::predict`], also reporting what the prediction read.
    #[doc(hidden)]
    pub fn predict_counted(&self, features: &[String]) -> (Prediction, KnnWork) {
        let mut work = KnnWork::default();
        if self.is_empty() {
            return (Prediction::empty(), work);
        }
        let prediction = with_scratch(|s| {
            let Scratch { query, dots, heaviest, partial_best, .. } = s;
            self.tfidf.weigh_into(features, query);
            let qnorm = query.norm();
            if qnorm == 0.0 {
                return Prediction::empty();
            }
            heaviest.clear();
            heaviest.extend_from_slice(query.entries());
            heaviest.sort_unstable_by(|a, b| b.1.total_cmp(&a.1).then(a.0.cmp(&b.0)));

            // Partial dot products, heaviest term first. `floor` is a lower
            // bound on the k-th best final cosine; `opened` counts the lists
            // that went into the sums.
            dots.begin(self.len());
            let mut floor = f64::NEG_INFINITY;
            let mut opened = heaviest.len();
            let mut opened_sq = 0.0;
            for (i, &(term, qw)) in heaviest.iter().enumerate() {
                let groups = self.groups_of(term);
                let list_len = self.postings.rows(groups.start, groups.end).len();
                // Checking costs a pass over the touched documents, so it is
                // worth it only against a list longer than that.
                if list_len > dots.len() {
                    // A document no opened list reached shares only the rest
                    // of the query: its cosine is at most ‖q_rest‖ / ‖q‖. A
                    // touched one has at most ‖q_opened‖ / ‖q‖ so far, so
                    // until the opened terms outweigh the rest there is
                    // nothing to look for.
                    let rest_sq: f64 = heaviest[i..].iter().rev().map(|&(_, qw)| qw * qw).sum();
                    if opened_sq > rest_sq {
                        floor = self.kth_partial_cosine(dots, qnorm, partial_best);
                        if floor > rest_sq.sqrt() / qnorm + SLACK {
                            opened = i;
                            break;
                        }
                    }
                }
                for g in groups {
                    dots.add_docs(self.postings.row(g), qw * self.weights[g as usize]);
                }
                opened_sq += qw * qw;
                work.postings_walked += list_len;
            }
            work.docs_touched = dots.len();

            // The unopened lists can still add this much to a touched
            // document's dot product, and no more.
            let headroom: f64 = heaviest[opened..]
                .iter()
                .map(|&(term, qw)| {
                    let heaviest_group = self.groups_of(term).map(|g| self.weights[g as usize]);
                    qw * heaviest_group.fold(0.0, f64::max)
                })
                .sum();
            // Rescore, exactly, every touched document that could still be
            // among the k nearest.
            let mut nearest = TopK::new(self.k.min(self.len()));
            let mut cutoff = floor - SLACK;
            for (doc, partial) in dots.touched() {
                let denom = qnorm * self.norms[doc as usize];
                if partial + headroom < cutoff * denom {
                    continue;
                }
                nearest.offer(doc, self.exact_dot(query.entries(), doc) / denom);
                cutoff = cutoff.max(nearest.floor() - SLACK);
                work.docs_rescored += 1;
            }

            // Similarity-weighted vote among the k nearest.
            let mut votes: Vec<(TypeId, f64)> = Vec::with_capacity(self.k.min(self.len()));
            for (doc, sim) in nearest.into_vec() {
                add_vote(&mut votes, self.labels[doc as usize], sim);
            }
            Prediction::from_scores(votes)
        });
        (prediction, work)
    }
}

impl Classifier for Knn {
    fn name(&self) -> &str {
        "knn"
    }

    fn predict(&self, features: &[String]) -> Prediction {
        self.predict_counted(features).0
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
