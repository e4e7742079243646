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

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use rulekit_learn::{default_ensemble, Classifier, Knn};

thread_local! {
    /// `Some(n)` while counting on this thread; thread-local so the test
    /// harness's own allocations never pollute the count.
    static ALLOCS: Cell<Option<u64>> = const { Cell::new(None) };
}

struct CountingAlloc;

fn count_one() {
    ALLOCS.with(|c| {
        if let Some(n) = c.get() {
            c.set(Some(n + 1));
        }
    });
}

unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count_one();
        System.alloc(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count_one();
        System.realloc(ptr, layout, new_size)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        count_one();
        System.alloc_zeroed(layout)
    }
}

#[global_allocator]
static ALLOCATOR: CountingAlloc = CountingAlloc;

/// Runs `f` with allocation counting enabled and returns how many heap
/// allocations it performed on this thread.
fn count_allocs(f: impl FnOnce()) -> u64 {
    ALLOCS.with(|c| c.set(Some(0)));
    f();
    ALLOCS.with(|c| c.replace(None)).expect("counter armed")
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
