//! Differential wall for the learn stage.
//!
//! `reference/` keeps the `HashMap`-bodied ensemble members as they stood
//! before they moved to dense term ids. This suite holds the production
//! members to them: trained perceptron weights identical, and every
//! member's and the ensemble's `Prediction` identical to the bit, on the
//! benchmark-shaped corpus (generated items minus the 30% of types with
//! least data, queries from the vendor feed) and on the degenerate inputs.
//!
//! The one stated exception: a query with two or more out-of-vocabulary
//! terms of differing counts. The reference interns such terms on first
//! sight, so the order their squares enter the query norm is the history of
//! the process; production adds them in order of first occurrence in the
//! query. There the TF/IDF members (and the ensemble over them) may differ
//! by at most 1e-12 per weight, with the same ranking.
//!
//! k-NN reads only part of the query's postings and rescores a few documents
//! from a forward index; `reference::Knn` still walks everything. The
//! presence-term corpus and the tiny random corpora below aim at what such
//! pruning can get wrong: exact ties at the k-th place, `k` beyond the
//! documents touched, queries with nothing rare in them.

mod common;
mod reference;

use common::corpus;
use proptest::prelude::*;
use rulekit_data::TypeId;
use rulekit_learn::{
    default_ensemble, Centroid, Classifier, Ensemble, Knn, NaiveBayes, Perceptron,
    PerceptronConfig, Prediction, TrainingSet,
};
use std::collections::{HashMap, HashSet};
use std::sync::OnceLock;

const CONFIDENCE: f64 = 0.45;

/// Production and reference ensembles over the same training set, the
/// perceptron weights already compared.
struct Pair {
    production: Ensemble,
    reference: reference::Ensemble,
    vocabulary: HashSet<String>,
}

impl Pair {
    fn train(data: &TrainingSet, k: usize) -> Pair {
        let perceptron = Perceptron::train(data);
        let reference_perceptron = reference::Perceptron::train(data);
        assert_same_weights(&perceptron, &reference_perceptron);
        let production = Ensemble::new(CONFIDENCE)
            .add(Box::new(NaiveBayes::train(data)), 1.0)
            .add(Box::new(Knn::train(data, k)), 1.0)
            .add(Box::new(Centroid::train(data)), 1.0)
            .add(Box::new(perceptron), 1.0);
        let reference = reference::Ensemble::new(CONFIDENCE)
            .add(Box::new(reference::NaiveBayes::train(data)), 1.0)
            .add(Box::new(reference::Knn::train(data, k)), 1.0)
            .add(Box::new(reference::Centroid::train(data)), 1.0)
            .add(Box::new(reference_perceptron), 1.0);
        let vocabulary = data.docs.iter().flat_map(|(feats, _)| feats.iter().cloned()).collect();
        Pair { production, reference, vocabulary }
    }

    /// Whether the reference's query norm depends on what it served before.
    fn norm_order_is_history(&self, bag: &[String]) -> bool {
        let mut unseen: HashMap<&str, usize> = HashMap::new();
        for tok in bag.iter().filter(|tok| !self.vocabulary.contains(*tok)) {
            *unseen.entry(tok).or_insert(0) += 1;
        }
        let counts: HashSet<usize> = unseen.values().copied().collect();
        counts.len() >= 2
    }

    /// Asserts every member and the ensemble agree on `bag`; returns whether
    /// the comparison was the exact one.
    fn check(&self, bag: &[String]) -> bool {
        let exact = !self.norm_order_is_history(bag);
        let ours = self.production.member_predictions(bag);
        let theirs = self.reference.member_predictions(bag);
        assert_eq!(ours.len(), theirs.len());
        for ((name, ours), (reference_name, theirs)) in ours.iter().zip(&theirs) {
            assert_eq!(name, reference_name);
            let tfidf_member = matches!(*name, "knn" | "centroid");
            assert_same(name, bag, ours, theirs, exact || !tfidf_member);
        }
        let (ours, theirs) = (self.production.predict(bag), self.reference.predict(bag));
        assert_same("ensemble", bag, &ours, &theirs, exact);
        exact
    }
}

fn assert_same(who: &str, bag: &[String], ours: &Prediction, theirs: &Prediction, exact: bool) {
    let types = |p: &Prediction| p.scores.iter().map(|&(ty, _)| ty).collect::<Vec<_>>();
    assert_eq!(types(ours), types(theirs), "{who} ranks differently on {bag:?}");
    for (&(_, a), &(_, b)) in ours.scores.iter().zip(&theirs.scores) {
        if exact {
            assert_eq!(a.to_bits(), b.to_bits(), "{who} weighs {a:e} vs {b:e} on {bag:?}");
        } else {
            assert!((a - b).abs() <= 1e-12, "{who} weighs {a:e} vs {b:e} on {bag:?}");
        }
    }
}

fn assert_same_weights(ours: &Perceptron, theirs: &reference::Perceptron) {
    let nonzero = |w: &f64| *w != 0.0;
    let mut a: Vec<(TypeId, &str, u64)> = ours
        .weights()
        .filter(|(_, _, w)| nonzero(w))
        .map(|(ty, tok, w)| (ty, tok, w.to_bits()))
        .collect();
    let mut b: Vec<(TypeId, &str, u64)> = theirs
        .weights
        .iter()
        .flat_map(|(&ty, row)| row.iter().map(move |(tok, w)| (ty, tok.as_str(), *w)))
        .filter(|(_, _, w)| nonzero(w))
        .map(|(ty, tok, w)| (ty, tok, w.to_bits()))
        .collect();
    a.sort_unstable();
    b.sort_unstable();
    assert_eq!(a.len(), b.len(), "perceptron weight counts differ");
    assert!(a == b, "perceptron weights differ");
}

fn bag(tokens: &[&str]) -> Vec<String> {
    tokens.iter().map(|t| t.to_string()).collect()
}

/// Inputs every training set is probed with besides its feed.
fn degenerate_bags(data: &TrainingSet) -> Vec<Vec<String>> {
    let mut bags = vec![
        bag(&[]),
        bag(&["zzz-novel"]),
        bag(&["zzz-novel", "qqq-novel", "zzz-novel"]),
        bag(&["qqq-novel", "zzz-novel", "zzz-novel", "www-novel", "www-novel", "www-novel"]),
    ];
    if let Some((feats, _)) = data.docs.first() {
        let known = feats[0].as_str();
        bags.push(bag(&[known, known, known]));
        bags.push(bag(&[known, "zzz-novel", known, "zzz-novel"]));
        bags.push(feats.iter().chain(feats.iter()).cloned().collect());
    }
    bags
}

fn run_corpus(items: usize) {
    for seed in 1..=3 {
        let (data, feed) = corpus(seed, items, 2_000);
        let pair = Pair::train(&data, 5);
        let exact =
            feed.iter().chain(&degenerate_bags(&data)).filter(|bag| pair.check(bag)).count();
        // `default_ensemble` fits TF/IDF once for k-NN and the centroids;
        // `Pair` trained each member alone. Same models, to the bit.
        let shared_fit = default_ensemble(&data, CONFIDENCE);
        for bag in feed.iter().step_by(5) {
            assert_eq!(shared_fit.member_predictions(bag), pair.production.member_predictions(bag));
        }
        // The exception must stay an exception.
        assert!(exact >= 1_990, "seed {seed}: only {exact} of the queries were compared exactly");
    }
}

#[test]
fn identical_on_2k_items() {
    run_corpus(2_000);
}

#[test]
fn identical_on_20k_items() {
    run_corpus(20_000);
}

#[test]
fn identical_on_degenerate_training_sets() {
    let (data, feed) = corpus(4, 300, 50);
    let single_class = TrainingSet::from_pairs(
        data.docs.iter().filter(|(_, ty)| *ty == data.docs[0].1).cloned().collect(),
    );
    let one_doc = TrainingSet::from_pairs(data.docs[..1].to_vec());
    // Every document the same bag: all IDFs are zero, all vectors empty.
    let zero_vectors = TrainingSet::from_pairs(vec![data.docs[0].clone(); 3]);
    let sets = [TrainingSet::default(), single_class, one_doc, zero_vectors, data];
    for (data, k) in sets.iter().flat_map(|data| [(data, 1), (data, 5), (data, 10_000)]) {
        let pair = Pair::train(data, k);
        for bag in feed.iter().chain(&degenerate_bags(data)) {
            pair.check(bag);
        }
    }
}

/// A corpus shaped to make pruning decide: every document carries
/// `attr::all` (IDF 0), nearly every one `attr::most` (IDF near 0), half
/// `attr::half`; eight documents are the same bag under different labels,
/// so their cosines tie exactly and document order picks the neighbours;
/// one document is nothing but `attr::all` (a zero vector: no postings, no
/// forward row) and one repeats a token.
fn presence_corpus() -> TrainingSet {
    let mut docs = Vec::new();
    for i in 0..120u32 {
        let mut feats = vec![format!("w{}", i % 30), format!("v{}", i % 7), "attr::all".into()];
        if i % 40 != 3 {
            feats.push("attr::most".into());
        }
        if i % 2 == 0 {
            feats.push("attr::half".into());
        }
        docs.push((feats, TypeId(i % 4)));
        if i % 15 == 7 {
            docs.push((bag(&["rare", "attr::all", "attr::most"]), TypeId(docs.len() as u32 % 5)));
        }
    }
    docs.push((bag(&["attr::all"]), TypeId(1)));
    docs.push((bag(&["w1", "w1", "w1", "v2", "attr::all"]), TypeId(2)));
    TrainingSet::from_pairs(docs)
}

#[test]
fn identical_where_pruning_decides() {
    let data = presence_corpus();
    let queries = [
        // The eight duplicates tie at the top; k cuts through the tie.
        bag(&["rare", "attr::all", "attr::most"]),
        bag(&["rare"]),
        // One rare term, then lists that reach nearly every document.
        bag(&["rare", "attr::most", "attr::half"]),
        bag(&["w7", "attr::most", "attr::half", "attr::all"]),
        bag(&["w7", "v3", "attr::most"]),
        // Nothing rare: every-document terms only.
        bag(&["attr::most", "attr::half"]),
        bag(&["attr::most"]),
        bag(&["attr::all"]),
        bag(&["attr::all", "attr::all", "attr::most", "attr::most"]),
        // Unseen terms only (equal counts, so the comparison stays exact).
        bag(&["zzz-novel", "qqq-novel"]),
        // Repeated tokens, in the query and (w1) in a training document.
        bag(&["w1", "w1", "attr::most", "v2", "v2", "v2"]),
        bag(&["rare", "rare", "rare", "attr::half", "zzz-novel"]),
    ];
    // k = 50 exceeds the documents `rare` touches; 10,000 the training set.
    for k in [1, 2, 3, 5, 7, 8, 9, 50, 10_000] {
        let pair = Pair::train(&data, k);
        for query in &queries {
            assert!(pair.check(query), "{query:?} was not compared exactly");
        }
        for query in &degenerate_bags(&data) {
            pair.check(query);
        }
    }
}

#[test]
fn perceptron_training_identical_across_options() {
    let (data, _) = corpus(5, 600, 0);
    for cfg in [
        PerceptronConfig { epochs: 1, seed: 0 },
        PerceptronConfig { epochs: 0, seed: 9 },
        PerceptronConfig { epochs: 7, seed: 3 },
    ] {
        let ours = Perceptron::train_with(&data, cfg);
        assert_same_weights(&ours, &reference::Perceptron::train_with(&data, cfg));
    }
}

/// A small trained pair and a token pool mixing its vocabulary with novel
/// tokens, shared by the property cases (the reference's vocabulary grows
/// as they run — exactly the history the exception is about).
fn property_fixture() -> &'static (Pair, Vec<String>) {
    static FIXTURE: OnceLock<(Pair, Vec<String>)> = OnceLock::new();
    FIXTURE.get_or_init(|| {
        let (data, _) = corpus(6, 400, 0);
        let pair = Pair::train(&data, 5);
        let mut pool: Vec<String> = pair.vocabulary.iter().cloned().collect();
        pool.sort_unstable();
        let mut pool: Vec<String> = pool.into_iter().step_by(7).take(60).collect();
        pool.extend(bag(&["attr::price", "attr::brand_name", "n1", "n2", "n3", "n4", "n5"]));
        (pair, pool)
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    #[test]
    fn identical_on_random_bags(picks in prop::collection::vec(0usize..67, 0..24)) {
        let (pair, pool) = property_fixture();
        let bag: Vec<String> = picks.iter().map(|&i| pool[i].clone()).collect();
        pair.check(&bag);
    }

    /// Tiny corpora over a dozen terms: duplicates, empty documents and
    /// zero-IDF terms are the rule, so cosines tie at every rank.
    #[test]
    fn knn_identical_on_random_tiny_corpora(
        docs in prop::collection::vec((prop::collection::vec(0usize..12, 0..6), 0u32..4), 1..40),
        queries in prop::collection::vec(prop::collection::vec(0usize..13, 0..8), 1..6),
        k in 1usize..8,
    ) {
        // Term 12 is in no document: the one unseen term a query may carry.
        let tokens = |ids: &[usize]| ids.iter().map(|t| format!("t{t}")).collect::<Vec<_>>();
        let data = TrainingSet::from_pairs(
            docs.iter().map(|(terms, label)| (tokens(terms), TypeId(*label))).collect(),
        );
        let (ours, theirs) = (Knn::train(&data, k), reference::Knn::train(&data, k));
        for query in &queries {
            let query = tokens(query);
            assert_same("knn", &query, &ours.predict(&query), &theirs.predict(&query), true);
        }
    }
}

/// Reads leave a model as training left it: no query can grow the
/// vocabulary, and what a model has served does not change what it answers.
#[test]
fn served_history_does_not_change_answers() {
    let (data, feed) = corpus(7, 2_000, 1_000);
    let ensemble = |data: &TrainingSet| {
        Ensemble::new(CONFIDENCE)
            .add(Box::new(Knn::train(data, 5)), 1.0)
            .add(Box::new(Centroid::train(data)), 1.0)
    };
    let (knn, centroid) = (Knn::train(&data, 5), Centroid::train(&data));
    let (knn_terms, centroid_terms) = (knn.vocab_len(), centroid.vocab_len());
    let novel = |i: usize| -> Vec<String> {
        let mut bag = feed[i % feed.len()].clone();
        bag.extend([format!("novel-{i}"), format!("novel-{}", i / 2), format!("novel-{i}")]);
        bag
    };
    for i in 0..10_000 {
        knn.predict(&novel(i));
        centroid.predict(&novel(i));
    }
    assert_eq!(knn.vocab_len(), knn_terms);
    assert_eq!(centroid.vocab_len(), centroid_terms);

    // One model has served the novel-token traffic above in order, the other
    // sees it backwards, a third nothing: all three answer alike, to the bit.
    let (forwards, backwards, fresh) = (ensemble(&data), ensemble(&data), ensemble(&data));
    for i in 0..500 {
        forwards.predict(&novel(i));
        backwards.predict(&novel(499 - i));
    }
    for i in (0..500).step_by(7) {
        let members = fresh.member_predictions(&novel(i));
        assert_eq!(forwards.member_predictions(&novel(i)), members);
        assert_eq!(backwards.member_predictions(&novel(i)), members);
    }
}
