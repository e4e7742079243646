//! E8 — the three rule-quality evaluation methods (§4) compared on cost,
//! accuracy, and tail-rule blindness.

use crate::setup::{analyst_rules, world, Scale};
use crate::table::{f3, Table};
use rulekit_core::LiteralScanExecutor;
use rulekit_crowd::{CrowdConfig, CrowdSim};
use rulekit_eval::{
    compute_coverages, head_tail_split, module_eval, per_rule_eval, validation_set_eval,
};

fn crowd(scale: Scale, offset: u64) -> CrowdSim {
    CrowdSim::new(CrowdConfig { seed: scale.seed + offset, ..Default::default() })
}

/// E8 — evaluation-method comparison.
pub fn e8(scale: Scale) {
    println!("\n=== E8: rule quality evaluation — the three methods (§4) ===");
    let (taxonomy, mut generator) = world(scale);
    let rules = analyst_rules(&taxonomy);
    let items = generator.generate(scale.eval_items.min(8_000));
    let executor = LiteralScanExecutor::new(rules.clone());
    let coverages = compute_coverages(&rules, &executor, &items);

    let (head, tail) = head_tail_split(&coverages, 20);
    println!(
        "{} whitelist rules over {} items: {} head rules (>=20 touches), {} tail rules",
        coverages.len(),
        items.len(),
        head.len(),
        tail.len()
    );

    let mut table = Table::new(&[
        "method",
        "crowd tasks",
        "rules with estimates",
        "rules unevaluated",
        "mean abs err vs oracle",
    ]);

    // Method 1: one validation set.
    let mut c1 = crowd(scale, 1);
    let r1 = validation_set_eval(&coverages, &items, 500, &mut c1, scale.seed);
    let with_samples = r1.estimates.values().filter(|e| e.samples > 0).count();
    table.row(vec![
        "1: shared validation set (|S|=500)".into(),
        r1.tasks_used.to_string(),
        with_samples.to_string(),
        r1.unevaluated.len().to_string(),
        f3(r1.mean_abs_error(&coverages, &items)),
    ]);

    // Method 2 without and with overlap exploitation.
    let mut c2 = crowd(scale, 2);
    let r2 = per_rule_eval(&coverages, &items, 10, false, &mut c2, scale.seed);
    table.row(vec![
        "2: per-rule samples (k=10)".into(),
        r2.tasks_used.to_string(),
        r2.estimates.values().filter(|e| e.samples > 0).count().to_string(),
        r2.unevaluated.len().to_string(),
        f3(r2.mean_abs_error(&coverages, &items)),
    ]);
    let mut c3 = crowd(scale, 2);
    let r3 = per_rule_eval(&coverages, &items, 10, true, &mut c3, scale.seed);
    table.row(vec![
        "2+: per-rule with overlap exploitation".into(),
        r3.tasks_used.to_string(),
        r3.estimates.values().filter(|e| e.samples > 0).count().to_string(),
        r3.unevaluated.len().to_string(),
        f3(r3.mean_abs_error(&coverages, &items)),
    ]);

    // Method 3: module-level.
    let mut c4 = crowd(scale, 3);
    let (est, tasks) = module_eval(&coverages, &items, 300, &mut c4, scale.seed);
    table.row(vec![
        "3: module-level estimate".into(),
        tasks.to_string(),
        format!("1 (whole module: {})", f3(est.precision())),
        coverages.len().to_string(),
        "n/a (no per-rule estimates)".into(),
    ]);
    table.print();

    // Tail blindness of Method 1 in detail.
    let tail_missed =
        tail.iter().filter(|c| r1.estimates.get(&c.rule_id).is_none_or(|e| e.samples == 0)).count();
    println!(
        "method 1 tail blindness: {tail_missed} of {} tail rules got zero validation samples",
        tail.len()
    );
    println!("(the paper: S evaluates head rules; tail rules need per-rule sampling; module-level gives up per-rule estimates)");
}
