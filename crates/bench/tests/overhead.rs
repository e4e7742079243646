//! Overhead guard: instrumented rule execution must stay within 5% of the
//! uninstrumented path. `ExecMetrics` recording is a couple of relaxed
//! atomic adds per product, so the delta should be far below the threshold;
//! the test exists to catch an accidental lock, allocation, or snapshot
//! creeping into the hot path.
//!
//! Timing-sensitive, so it only asserts in release builds (CI runs it under
//! `--release`); a debug invocation exits early. Trials interleave the
//! on/off configurations and compare best-of-N so scheduler noise and
//! frequency drift cancel rather than accumulate.

use rulekit_bench::exp::execution::synthetic_rules;
use rulekit_bench::setup::{analyst_rules, world, Scale};
use rulekit_core::{ExecMetrics, ExecutorKind, RuleExecutor};
use rulekit_data::Product;
use rulekit_obs::Registry;
use std::sync::Arc;
use std::time::{Duration, Instant};

const TRIALS: usize = 9;
const PASSES_PER_TRIAL: usize = 4;
const MAX_OVERHEAD: f64 = 1.05;

fn one_trial(executor: &Arc<dyn RuleExecutor>, products: &[Product]) -> Duration {
    let start = Instant::now();
    let mut fired = 0usize;
    for _ in 0..PASSES_PER_TRIAL {
        fired += products.iter().map(|p| executor.matching_rules(p).len()).sum::<usize>();
    }
    std::hint::black_box(fired);
    start.elapsed()
}

#[test]
fn instrumentation_overhead_is_below_five_percent() {
    if cfg!(debug_assertions) {
        eprintln!("overhead guard skipped: timing assertions are release-only");
        return;
    }
    let scale = Scale { train_items: 1000, eval_items: 1000, seed: 5 };
    let (taxonomy, mut generator) = world(scale);
    let products: Vec<Product> = generator.generate(200).into_iter().map(|i| i.product).collect();
    let mut rules = analyst_rules(&taxonomy);
    rules.extend(synthetic_rules(&taxonomy, 5_000usize.saturating_sub(rules.len())));

    let kind = ExecutorKind::LiteralScan;
    let registry = Registry::new();
    let metrics = ExecMetrics::register(&registry, kind);
    let off = kind.build_with(rules.clone(), None);
    let on = kind.build_with(rules.clone(), Some(metrics.clone()));

    // Warm caches, page in the automaton, settle the allocator.
    one_trial(&off, &products);
    one_trial(&on, &products);

    let (mut best_off, mut best_on) = (Duration::MAX, Duration::MAX);
    for _ in 0..TRIALS {
        best_off = best_off.min(one_trial(&off, &products));
        best_on = best_on.min(one_trial(&on, &products));
    }
    let ratio = best_on.as_secs_f64() / best_off.as_secs_f64();
    eprintln!("{kind}: off={best_off:?} on={best_on:?} ratio={ratio:.4}");
    assert!(
        ratio < MAX_OVERHEAD,
        "{kind}: instrumented path {ratio:.3}x the uninstrumented path \
         (off={best_off:?}, on={best_on:?}); budget is {MAX_OVERHEAD}x"
    );
    // The instrumented runs actually recorded: warmup + timed trials.
    let expected = ((TRIALS + 1) * PASSES_PER_TRIAL * products.len()) as u64;
    assert_eq!(metrics.products.value(), expected);
    assert_eq!(metrics.candidates.count(), expected);
}
