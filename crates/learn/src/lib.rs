//! # rulekit-learn
//!
//! The learning-based classification substrate (§3.1's "popular
//! learning-based solution"): feature extraction from product records,
//! multinomial Naive Bayes, inverted-index k-NN, nearest-centroid, an
//! averaged perceptron, and a weighted-voting ensemble with abstention.
//!
//! These learners are deliberately classical — the paper's point is not
//! model sophistication but the *system* question of what learning alone
//! cannot provide (debuggability, corner cases, cold-start types, drift
//! response), which the rule layers in `rulekit-core`/`rulekit-chimera`
//! address.

pub mod centroid;
pub mod classifier;
pub mod ensemble;
pub mod features;
pub mod knn;
pub mod linear;
pub mod naive_bayes;
mod table;

pub use centroid::Centroid;
pub use classifier::{accuracy, Classifier, Prediction, TrainingSet};
pub use ensemble::Ensemble;
pub use features::Featurizer;
pub use knn::Knn;
pub use linear::{Perceptron, PerceptronConfig};
pub use naive_bayes::NaiveBayes;

use std::sync::Arc;

/// Builds the paper's default ensemble (NB + k-NN + centroid + perceptron,
/// equal weights) with the given abstention threshold. The two TF/IDF
/// members share one fitted vocabulary and IDF table.
pub fn default_ensemble(data: &TrainingSet, confidence_threshold: f64) -> Ensemble {
    let tfidf = Arc::new(data.fit_tfidf());
    Ensemble::new(confidence_threshold)
        .add(Box::new(NaiveBayes::train(data)), 1.0)
        .add(Box::new(Knn::train_with(data, 5, tfidf.clone())), 1.0)
        .add(Box::new(Centroid::train_with(data, tfidf)), 1.0)
        .add(Box::new(Perceptron::train(data)), 1.0)
}
