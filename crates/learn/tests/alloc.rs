//! Allocation guard for the learn stage's steady state.
//!
//! Prediction works in per-thread scratch that is sized once, so a warm
//! `predict` allocates the `Prediction` it returns and a couple of
//! `k`-sized lists — never anything sized by the training set or by the
//! documents a query touches. This counts heap allocations per warm
//! prediction for models trained on 2k and on 20k items and holds both to
//! the same small constant. A change that brings back a per-query map, a
//! sort of every touched document, or a scratch that is rebuilt per call
//! fails here, not in a profile.

mod common;
#[path = "../../../tests/support/counting_alloc.rs"]
mod counting_alloc;

use counting_alloc::tally;
use rulekit_learn::{default_ensemble, Classifier, Knn};

/// Runs `f` with allocation counting enabled and returns how many heap
/// allocations it performed on this thread.
fn count_allocs(f: impl FnOnce()) -> u64 {
    tally(f).0.allocs
}

/// The most allocations any one warm prediction over `bags` makes.
fn worst_predict(classifier: &dyn Classifier, bags: &[Vec<String>]) -> u64 {
    for bag in bags {
        std::hint::black_box(classifier.predict(bag));
    }
    bags.iter()
        .map(|bag| count_allocs(|| drop(std::hint::black_box(classifier.predict(bag)))))
        .max()
        .expect("some queries")
}

#[test]
fn warm_predictions_allocate_a_small_constant() {
    // The same queries against both sizes, some carrying unseen and repeated
    // tokens, so neither the touched-document count (a few hundred vs nearly
    // all 18.7k) nor the vocabulary decides the number.
    let (small, mut bags) = common::corpus(1, 2_000, 500);
    let (large, _) = common::corpus(1, 20_000, 0);
    for (i, bag) in bags.iter_mut().enumerate().filter(|(i, _)| i % 3 == 0) {
        bag.extend([format!("novel-{i}"), "novel".to_string(), format!("novel-{i}")]);
    }
    assert!(large.len() > 8 * small.len());

    let knn = [&small, &large].map(|data| worst_predict(&Knn::train(data, 5), &bags));
    assert_eq!(knn[0], knn[1], "k-NN allocations depend on the training-set size");
    assert!(knn[0] <= 2, "a warm Knn::predict allocated {} times", knn[0]);

    let ensemble = [&small, &large].map(|data| worst_predict(&default_ensemble(data, 0.45), &bags));
    assert_eq!(ensemble[0], ensemble[1], "ensemble allocations depend on the training-set size");
    assert!(ensemble[0] <= 8, "a warm Ensemble::predict allocated {} times", ensemble[0]);
}
