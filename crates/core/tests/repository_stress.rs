//! Concurrency stress test for `RuleRepository`: writer threads hammer
//! add/disable/enable/remove while reader threads continuously take
//! snapshots, asserting the two invariants serving depends on —
//! revision monotonicity and snapshot consistency (a snapshot is a single
//! point in the revision order, never a torn mix of two states).

use rulekit_core::{RuleMeta, RuleParser, RuleRepository, RuleSpec, RuleStatus};
use rulekit_data::Taxonomy;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

fn specs() -> Vec<RuleSpec> {
    let taxonomy = Taxonomy::builtin();
    let parser = RuleParser::new(taxonomy);
    [
        "rings? -> rings",
        "sofas? -> sofas",
        "attr(ISBN) -> books",
        "laptop (bag|case|sleeve)s? -> NOT laptop computers",
        "wedding bands? -> rings",
    ]
    .iter()
    .map(|line| parser.parse_rule(line).expect("spec parses"))
    .collect()
}

#[test]
fn concurrent_mutation_keeps_snapshots_consistent() {
    const WRITERS: usize = 4;
    const READERS: usize = 3;
    let run_for = Duration::from_millis(400);

    let repo = RuleRepository::new();
    let specs = specs();
    // Seed some rules so disable/enable/remove have targets immediately.
    let seeded: Vec<_> =
        (0..20).map(|i| repo.add(specs[i % specs.len()].clone(), RuleMeta::default())).collect();

    let stop = Arc::new(AtomicBool::new(false));
    std::thread::scope(|scope| {
        for w in 0..WRITERS {
            let repo = repo.clone();
            let specs = specs.clone();
            let stop = stop.clone();
            let mut targets = seeded.clone();
            scope.spawn(move || {
                let mut step = w; // de-correlate the writers
                while !stop.load(Ordering::Relaxed) {
                    match step % 4 {
                        0 => {
                            let id =
                                repo.add(specs[step % specs.len()].clone(), RuleMeta::default());
                            targets.push(id);
                        }
                        1 => {
                            repo.disable(targets[step % targets.len()], "stress");
                        }
                        2 => {
                            repo.enable(targets[step % targets.len()]);
                        }
                        _ => {
                            repo.remove(targets[step % targets.len()], "stress");
                        }
                    }
                    step = step.wrapping_add(WRITERS + 1);
                }
            });
        }

        for _ in 0..READERS {
            let repo = repo.clone();
            let stop = stop.clone();
            scope.spawn(move || {
                let mut last_revision = 0u64;
                let mut observed = 0usize;
                while !stop.load(Ordering::Relaxed) {
                    let (revision, rules) = repo.versioned_snapshot();

                    // Revision monotonicity: each reader must never observe
                    // the repository moving backwards.
                    assert!(
                        revision >= last_revision,
                        "revision went backwards: {last_revision} -> {revision}"
                    );
                    last_revision = revision;

                    // Snapshot consistency: an enabled snapshot contains only
                    // enabled rules and no duplicate ids.
                    let mut ids: Vec<_> = rules.iter().map(|r| r.id).collect();
                    ids.sort_unstable();
                    ids.dedup();
                    assert_eq!(ids.len(), rules.len(), "duplicate rule id in snapshot");
                    for rule in &rules {
                        assert_eq!(rule.meta.status, RuleStatus::Enabled);
                    }

                    // A snapshot is a point in the revision order: if the
                    // revision did not move between two captures, the
                    // contents must be identical (no torn reads).
                    let (revision2, rules2) = repo.versioned_snapshot();
                    if revision2 == revision {
                        assert_eq!(rules2.len(), rules.len(), "same revision, different snapshot");
                    }
                    observed += 1;
                }
                assert!(observed > 0, "reader never got a snapshot");
            });
        }

        let deadline = Instant::now() + run_for;
        while Instant::now() < deadline {
            std::thread::sleep(Duration::from_millis(10));
        }
        stop.store(true, Ordering::Relaxed);
    });

    // Post-mortem: the final state is internally consistent.
    let (revision, enabled) = repo.versioned_snapshot();
    assert!(revision > 0);
    let stats = repo.stats();
    assert_eq!(stats.enabled, enabled.len());
    for rule in repo.full_snapshot() {
        if rule.meta.status == RuleStatus::Enabled {
            assert!(enabled.iter().any(|r| r.id == rule.id));
        }
    }
}

#[test]
fn change_signal_fires_under_concurrent_churn() {
    let repo = RuleRepository::new();
    let specs = specs();
    let seen = repo.changes();

    let writer = {
        let repo = repo.clone();
        let spec = specs[0].clone();
        std::thread::spawn(move || {
            for _ in 0..50 {
                repo.add(spec.clone(), RuleMeta::default());
                std::thread::sleep(Duration::from_millis(1));
            }
        })
    };

    // The watcher must observe a strictly increasing change signal without
    // ever blocking past its timeout budget.
    let mut last = seen;
    let mut wakes = 0;
    while wakes < 10 {
        let now = repo.wait_for_change(last, Duration::from_secs(5));
        assert!(now > last, "wait_for_change returned a stale change count");
        last = now;
        wakes += 1;
    }
    writer.join().unwrap();
}
