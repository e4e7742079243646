//! The learn stage as it stood before the dense-id rebuild: the four
//! `HashMap`-bodied members, perceptron training included, and the
//! `HashMap` vote. Kept verbatim as the reference the differential suite
//! holds the production implementations to; nothing outside `tests/` may
//! use it.
#![allow(dead_code)]

use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::SeedableRng;
use rulekit_data::TypeId;
use rulekit_learn::{Classifier, PerceptronConfig, Prediction, TrainingSet};
use rulekit_text::{SparseVector, TfIdf};
use std::collections::HashMap;
use std::sync::Arc;

/// A trained multinomial Naive Bayes model.
#[derive(Debug)]
pub struct NaiveBayes {
    /// Laplace smoothing constant.
    alpha: f64,
    /// log prior per class.
    log_prior: HashMap<TypeId, f64>,
    /// Per-class token counts.
    token_counts: HashMap<TypeId, HashMap<String, u32>>,
    /// Per-class total token count.
    class_totals: HashMap<TypeId, u64>,
    /// Vocabulary size (distinct tokens across all classes).
    vocab_size: usize,
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
        let mut class_docs: HashMap<TypeId, u64> = HashMap::new();
        let mut token_counts: HashMap<TypeId, HashMap<String, u32>> = HashMap::new();
        let mut class_totals: HashMap<TypeId, u64> = HashMap::new();
        let mut vocab: HashMap<&str, ()> = HashMap::new();

        for (feats, label) in &data.docs {
            *class_docs.entry(*label).or_insert(0) += 1;
            let counts = token_counts.entry(*label).or_default();
            let total = class_totals.entry(*label).or_insert(0);
            for tok in feats {
                *counts.entry(tok.clone()).or_insert(0) += 1;
                *total += 1;
                vocab.entry(tok.as_str()).or_insert(());
            }
        }

        let n_docs = data.docs.len().max(1) as f64;
        let log_prior = class_docs.iter().map(|(&ty, &n)| (ty, (n as f64 / n_docs).ln())).collect();

        NaiveBayes {
            alpha,
            log_prior,
            token_counts,
            class_totals,
            vocab_size: vocab.len().max(1),
            top_k: 3,
        }
    }

    /// Sets how many classes the prediction reports (default 3).
    pub fn with_top_k(mut self, k: usize) -> Self {
        self.top_k = k.max(1);
        self
    }

    fn log_likelihood(&self, ty: TypeId, features: &[String]) -> f64 {
        let counts = self.token_counts.get(&ty);
        let total = self.class_totals.get(&ty).copied().unwrap_or(0) as f64;
        let denom = total + self.alpha * self.vocab_size as f64;
        let mut ll = *self.log_prior.get(&ty).unwrap_or(&f64::NEG_INFINITY);
        for tok in features {
            let c = counts.and_then(|m| m.get(tok)).copied().unwrap_or(0) as f64;
            ll += ((c + self.alpha) / denom).ln();
        }
        ll
    }
}

impl Classifier for NaiveBayes {
    fn name(&self) -> &str {
        "naive-bayes"
    }

    fn predict(&self, features: &[String]) -> Prediction {
        if self.log_prior.is_empty() {
            return Prediction::empty();
        }
        let mut scored: Vec<(TypeId, f64)> =
            self.log_prior.keys().map(|&ty| (ty, self.log_likelihood(ty, features))).collect();
        scored.sort_by(|a, b| {
            b.1.partial_cmp(&a.1).expect("finite log-likelihoods").then(a.0.cmp(&b.0))
        });
        scored.truncate(self.top_k);
        // Convert log scores to relative weights via softmax over the top-k.
        let max = scored[0].1;
        let weights: Vec<(TypeId, f64)> =
            scored.into_iter().map(|(ty, ll)| (ty, (ll - max).exp())).collect();
        Prediction::from_scores(weights)
    }
}

/// A trained k-NN model.
pub struct Knn {
    k: usize,
    tfidf: Arc<TfIdf>,
    labels: Vec<TypeId>,
    /// Norms of training vectors (vectors themselves live in the postings).
    norms: Vec<f64>,
    /// term id → `(doc index, weight)` postings.
    postings: HashMap<u32, Vec<(u32, f64)>>,
}

impl Knn {
    /// Trains a model with neighbourhood size `k`.
    pub fn train(data: &TrainingSet, k: usize) -> Knn {
        assert!(k >= 1, "k must be at least 1");
        let tfidf = TfIdf::fit(data.docs.iter().map(|(f, _)| f.iter().map(String::as_str)));
        let mut labels = Vec::with_capacity(data.len());
        let mut norms = Vec::with_capacity(data.len());
        let mut postings: HashMap<u32, Vec<(u32, f64)>> = HashMap::new();
        for (i, (feats, label)) in data.docs.iter().enumerate() {
            let v = tfidf.weigh(feats.iter().map(String::as_str));
            labels.push(*label);
            norms.push(v.norm());
            for &(term, w) in v.entries() {
                postings.entry(term).or_default().push((i as u32, w));
            }
        }
        Knn { k, tfidf, labels, norms, postings }
    }

    /// Number of training documents.
    pub fn len(&self) -> usize {
        self.labels.len()
    }

    /// Whether the model has no training documents.
    pub fn is_empty(&self) -> bool {
        self.labels.is_empty()
    }

    fn query_vector(&self, features: &[String]) -> SparseVector {
        self.tfidf.weigh(features.iter().map(String::as_str))
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
        let q = self.query_vector(features);
        let qnorm = q.norm();
        if qnorm == 0.0 {
            return Prediction::empty();
        }
        // Accumulate dot products via postings.
        let mut dots: HashMap<u32, f64> = HashMap::new();
        for &(term, qw) in q.entries() {
            if let Some(list) = self.postings.get(&term) {
                for &(doc, dw) in list {
                    *dots.entry(doc).or_insert(0.0) += qw * dw;
                }
            }
        }
        if dots.is_empty() {
            return Prediction::empty();
        }
        let mut scored: Vec<(u32, f64)> = dots
            .into_iter()
            .map(|(doc, dot)| {
                let denom = qnorm * self.norms[doc as usize];
                (doc, if denom > 0.0 { dot / denom } else { 0.0 })
            })
            .collect();
        scored.sort_by(|a, b| b.1.partial_cmp(&a.1).expect("finite cosines").then(a.0.cmp(&b.0)));
        scored.truncate(self.k);

        // Similarity-weighted vote among the k nearest.
        let mut votes: HashMap<TypeId, f64> = HashMap::new();
        for (doc, sim) in scored {
            *votes.entry(self.labels[doc as usize]).or_insert(0.0) += sim;
        }
        Prediction::from_scores(votes.into_iter().collect())
    }
}

/// A trained nearest-centroid model.
pub struct Centroid {
    tfidf: Arc<TfIdf>,
    /// Normalized per-class centroid vectors.
    centroids: Vec<(TypeId, SparseVector)>,
    top_k: usize,
}

impl Centroid {
    /// Trains centroids from `data`.
    pub fn train(data: &TrainingSet) -> Centroid {
        let tfidf = TfIdf::fit(data.docs.iter().map(|(f, _)| f.iter().map(String::as_str)));
        let mut sums: HashMap<TypeId, (SparseVector, usize)> = HashMap::new();
        for (feats, label) in &data.docs {
            let v = tfidf.weigh(feats.iter().map(String::as_str)).normalized();
            let entry = sums.entry(*label).or_insert_with(|| (SparseVector::new(), 0));
            entry.0.add_scaled(&v, 1.0);
            entry.1 += 1;
        }
        let mut centroids: Vec<(TypeId, SparseVector)> = sums
            .into_iter()
            .map(|(ty, (sum, n))| (ty, sum.scaled(1.0 / n as f64).normalized()))
            .collect();
        centroids.sort_by_key(|&(ty, _)| ty);
        Centroid { tfidf, centroids, top_k: 3 }
    }

    /// Sets how many classes the prediction reports (default 3).
    pub fn with_top_k(mut self, k: usize) -> Self {
        self.top_k = k.max(1);
        self
    }

    /// Number of classes with centroids.
    pub fn class_count(&self) -> usize {
        self.centroids.len()
    }
}

impl Classifier for Centroid {
    fn name(&self) -> &str {
        "centroid"
    }

    fn predict(&self, features: &[String]) -> Prediction {
        if self.centroids.is_empty() {
            return Prediction::empty();
        }
        let q = self.tfidf.weigh(features.iter().map(String::as_str)).normalized();
        if q.is_zero() {
            return Prediction::empty();
        }
        let mut scored: Vec<(TypeId, f64)> = self
            .centroids
            .iter()
            .map(|(ty, c)| (*ty, q.dot(c)))
            .filter(|&(_, s)| s > 0.0)
            .collect();
        scored.sort_by(|a, b| b.1.partial_cmp(&a.1).expect("finite cosines").then(a.0.cmp(&b.0)));
        scored.truncate(self.top_k);
        Prediction::from_scores(scored)
    }
}

/// A trained averaged perceptron.
pub struct Perceptron {
    /// Per-class averaged weights over feature tokens.
    pub weights: HashMap<TypeId, HashMap<String, f64>>,
    top_k: usize,
}

impl Perceptron {
    /// Trains with default options.
    pub fn train(data: &TrainingSet) -> Perceptron {
        Perceptron::train_with(data, PerceptronConfig::default())
    }

    /// Trains with explicit options.
    pub fn train_with(data: &TrainingSet, cfg: PerceptronConfig) -> Perceptron {
        let labels = data.labels();
        let mut current: HashMap<TypeId, HashMap<String, f64>> =
            labels.iter().map(|&l| (l, HashMap::new())).collect();
        let mut averaged: HashMap<TypeId, HashMap<String, f64>> =
            labels.iter().map(|&l| (l, HashMap::new())).collect();

        let mut order: Vec<usize> = (0..data.len()).collect();
        let mut rng = StdRng::seed_from_u64(cfg.seed);
        let mut updates = 0u64;

        for _ in 0..cfg.epochs.max(1) {
            order.shuffle(&mut rng);
            for &i in &order {
                let (feats, truth) = &data.docs[i];
                let predicted = argmax(&current, feats);
                if predicted != Some(*truth) {
                    // Promote truth, demote the (wrong) prediction.
                    bump(current.get_mut(truth).expect("label present"), feats, 1.0);
                    bump_avg(
                        averaged.get_mut(truth).expect("label present"),
                        feats,
                        updates as f64,
                    );
                    if let Some(wrong) = predicted {
                        bump(current.get_mut(&wrong).expect("label present"), feats, -1.0);
                        bump_avg(
                            averaged.get_mut(&wrong).expect("label present"),
                            feats,
                            -(updates as f64),
                        );
                    }
                }
                updates += 1;
            }
        }

        // Final averaged weights: w_avg = w_current − accumulated/updates.
        let total = updates.max(1) as f64;
        let mut weights = current;
        for (label, acc) in averaged {
            let w = weights.get_mut(&label).expect("label present");
            for (tok, a) in acc {
                *w.entry(tok).or_insert(0.0) -= a / total;
            }
        }
        Perceptron { weights, top_k: 3 }
    }

    /// Sets how many classes the prediction reports (default 3).
    pub fn with_top_k(mut self, k: usize) -> Self {
        self.top_k = k.max(1);
        self
    }
}

fn score(weights: &HashMap<String, f64>, feats: &[String]) -> f64 {
    feats.iter().map(|t| weights.get(t).copied().unwrap_or(0.0)).sum()
}

fn argmax(weights: &HashMap<TypeId, HashMap<String, f64>>, feats: &[String]) -> Option<TypeId> {
    weights
        .iter()
        .map(|(&ty, w)| (ty, score(w, feats)))
        .max_by(|a, b| a.1.partial_cmp(&b.1).expect("finite scores").then(b.0.cmp(&a.0)))
        .map(|(ty, _)| ty)
}

fn bump(weights: &mut HashMap<String, f64>, feats: &[String], delta: f64) {
    for tok in feats {
        *weights.entry(tok.clone()).or_insert(0.0) += delta;
    }
}

fn bump_avg(acc: &mut HashMap<String, f64>, feats: &[String], scaled: f64) {
    for tok in feats {
        *acc.entry(tok.clone()).or_insert(0.0) += scaled;
    }
}

impl Classifier for Perceptron {
    fn name(&self) -> &str {
        "perceptron"
    }

    fn predict(&self, features: &[String]) -> Prediction {
        if self.weights.is_empty() {
            return Prediction::empty();
        }
        let mut scored: Vec<(TypeId, f64)> =
            self.weights.iter().map(|(&ty, w)| (ty, score(w, features))).collect();
        scored.sort_by(|a, b| b.1.partial_cmp(&a.1).expect("finite scores").then(a.0.cmp(&b.0)));
        scored.truncate(self.top_k);
        // Shift so the weakest retained score maps to a small positive weight.
        let min = scored.last().map_or(0.0, |&(_, s)| s);
        let shifted: Vec<(TypeId, f64)> =
            scored.into_iter().map(|(ty, s)| (ty, s - min + 1e-6)).collect();
        Prediction::from_scores(shifted)
    }
}

/// A weighted-voting ensemble of classifiers.
pub struct Ensemble {
    members: Vec<(Box<dyn Classifier>, f64)>,
    /// Minimum combined weight for the winner; below it the ensemble
    /// abstains ("the Voting Master refuses to make a prediction due to low
    /// confidence", §3.3).
    confidence_threshold: f64,
}

impl Ensemble {
    /// An empty ensemble with the given abstention threshold (on the
    /// winner's normalized combined weight, range 0–1).
    pub fn new(confidence_threshold: f64) -> Ensemble {
        Ensemble { members: Vec::new(), confidence_threshold }
    }

    /// Adds a member with voting weight `weight`.
    pub fn add(mut self, member: Box<dyn Classifier>, weight: f64) -> Self {
        assert!(weight > 0.0, "member weight must be positive");
        self.members.push((member, weight));
        self
    }

    /// Number of members.
    pub fn len(&self) -> usize {
        self.members.len()
    }

    /// Whether the ensemble has no members.
    pub fn is_empty(&self) -> bool {
        self.members.is_empty()
    }

    /// Member names, in insertion order.
    pub fn member_names(&self) -> Vec<&str> {
        self.members.iter().map(|(m, _)| m.name()).collect()
    }

    /// Per-member raw predictions (for diagnostics and the Chimera filter).
    pub fn member_predictions(&self, features: &[String]) -> Vec<(&str, Prediction)> {
        self.members.iter().map(|(m, _)| (m.name(), m.predict(features))).collect()
    }
}

impl Classifier for Ensemble {
    fn name(&self) -> &str {
        "ensemble"
    }

    fn predict(&self, features: &[String]) -> Prediction {
        let mut votes: HashMap<TypeId, f64> = HashMap::new();
        let mut voting_weight = 0.0;
        for (member, weight) in &self.members {
            let p = member.predict(features);
            if p.is_abstention() {
                continue;
            }
            voting_weight += weight;
            for (ty, w) in p.scores {
                *votes.entry(ty).or_insert(0.0) += weight * w;
            }
        }
        if voting_weight == 0.0 {
            return Prediction::empty();
        }
        let combined = Prediction::from_scores(votes.into_iter().collect());
        match combined.top() {
            Some((_, w)) if w >= self.confidence_threshold => combined,
            _ => Prediction::empty(),
        }
    }
}
