//! E17 — the fact-inference tier's pipeline overhead.
//!
//! The tier's contract is "opt-in and cheap": with the flag on but no
//! `infer:` rules loaded, the only added work per product is an emptiness
//! check and an `Arc` clone for the aggregate store, so end-to-end
//! classification throughput must stay within 10% of a tier-off pipeline.
//! With fact rules actually chaining, the cost is reported (not bounded) —
//! it buys derived facts every executor can match on.

use crate::setup::{analyst_rule_pack, partial_training_corpus, world, Scale};
use crate::table::Table;
use rulekit_chimera::{Chimera, ChimeraConfig};
use rulekit_data::Product;
use std::time::{Duration, Instant};

/// Fact rules for the "chaining" configuration: a two-deep chain off the
/// ISBN attribute, a numeric-guard fact, and an aggregate-gated fact.
const INFER_PACK: &str = "infer: has(isbn) => fact media = book\n\
                          infer: media == \"book\" => fact shelved = yes\n\
                          infer: price < 5 => fact bargain = yes\n\
                          infer: agg(\"vendor_mismatch_rate\") > 0.25 => fact risky_vendor = yes\n";

fn best_of(runs: usize, mut f: impl FnMut() -> Duration) -> Duration {
    (0..runs).map(|_| f()).min().expect("at least one run")
}

fn timed_batch(chimera: &Chimera, products: &[Product]) -> Duration {
    let start = Instant::now();
    let decisions = chimera.classify_batch(products);
    let elapsed = start.elapsed();
    assert_eq!(decisions.len(), products.len());
    elapsed
}

pub fn e17(scale: Scale) {
    println!("\n=== E17: fact-inference tier overhead ===");

    // The production pipeline (partial training + analyst rule pack),
    // rebuilt three times with only the tier knob and rule pack varying.
    let build = |infer_enabled: bool, pack: Option<&str>| -> Chimera {
        let (taxonomy, _, partial) = partial_training_corpus(scale);
        let mut chimera = Chimera::new(
            taxonomy.clone(),
            ChimeraConfig { seed: scale.seed, infer_enabled, ..Default::default() },
        );
        chimera.train(partial.items());
        chimera.add_rules(&analyst_rule_pack(&taxonomy)).expect("rule pack parses");
        if let Some(pack) = pack {
            chimera.add_rules(pack).expect("infer pack parses");
        }
        chimera
    };

    let off = build(false, None);
    let on_empty = build(true, None);
    let on_chaining = build(true, Some(INFER_PACK));
    let (_, mut generator) = world(scale);
    // Give the aggregate-gated rule a live series to read.
    let rate = on_chaining.aggregates().ratio("vendor_mismatch_rate");
    for i in 0..100 {
        rate.record(i % 2 == 0);
    }

    let n = scale.eval_items.clamp(1_000, 20_000);
    let products: Vec<Product> = generator.generate(n).into_iter().map(|i| i.product).collect();

    // Warm up once (lazy ie pipeline), then best-of-3.
    for c in [&off, &on_empty, &on_chaining] {
        let _ = c.classify_batch(&products[..200.min(n)]);
    }
    let t_off = best_of(3, || timed_batch(&off, &products));
    let t_empty = best_of(3, || timed_batch(&on_empty, &products));
    let t_chain = best_of(3, || timed_batch(&on_chaining, &products));

    let per_item = |d: Duration| d.as_nanos() as f64 / n as f64;
    let overhead = |d: Duration| (per_item(d) / per_item(t_off) - 1.0) * 100.0;

    let mut table = Table::new(&["configuration", "batch ms", "ns/item", "overhead vs off"]);
    for (name, d) in [
        ("tier off (baseline)", t_off),
        ("tier on, no infer rules", t_empty),
        ("tier on, 4-rule chaining pack", t_chain),
    ] {
        table.row(vec![
            name.into(),
            format!("{:.1}", d.as_secs_f64() * 1e3),
            format!("{:.0}", per_item(d)),
            format!("{:+.1}%", overhead(d)),
        ]);
    }
    table.print();

    let inert_overhead = overhead(t_empty);
    println!(
        "inert-tier overhead: {inert_overhead:+.1}% (target < 10%); chaining pack ran on {} \
         products and derived {} facts",
        on_chaining.metrics().infer.products.value(),
        on_chaining.metrics().infer.facts.value(),
    );
    if inert_overhead >= 10.0 {
        println!("WARNING: inert inference tier exceeded the 10% overhead budget");
    }
}
