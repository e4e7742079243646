//! Seeded crash-recovery fuzz: thousands of crash-and-reopen cycles over a
//! [`DurableRepository`] running on fault-injected storage, checked against
//! an in-memory model.
//!
//! Invariants:
//! - `FsyncPolicy::Always`: after a crash, the recovered repository equals
//!   the model of all *acknowledged* mutations — or that model plus at most
//!   the single trailing mutation whose append/fsync failed (written but
//!   unacknowledged). No acknowledged mutation is ever lost, none applies
//!   twice, and `open` never serves corrupt state.
//! - Weaker policies (`EveryN`, `Never`): the recovered repository equals
//!   the state after some *prefix* of the acknowledged mutations (bounded
//!   loss window, never reordering or corruption).
//! - The replicated path: a follower applies every record a fault-free
//!   leader ships, with seeded bad records (duplicate, gap, no-op toggle,
//!   `Add` with the wrong id) sent between them. Each bad record is
//!   skipped or refused without being logged, the follower mirrors the
//!   leader after every step, and its reopen replays exactly the applied
//!   records.
//!
//! Seeds and cycle counts are overridable for CI sweeps:
//! `RULEKIT_FUZZ_SEEDS="1,2,3" RULEKIT_FUZZ_CYCLES=500 cargo test -p
//! rulekit-store --test fuzz`.

use std::collections::hash_map::DefaultHasher;
use std::hash::{Hash, Hasher};
use std::sync::{Arc, Mutex};

use rand::{rngs::StdRng, Rng, SeedableRng};
use rulekit_core::{RuleId, RuleMeta, RuleParser, RuleRepository};
use rulekit_data::Taxonomy;
use rulekit_store::{
    DurableConfig, DurableRepository, FaultConfig, FaultyStorage, FsyncPolicy, MemStorage,
    PersistedRule, ReplayOutcome, Storage, WalOp, WalRecord,
};

const SOURCES: &[&str] = &[
    "rings? -> rings",
    "wedding bands? -> rings",
    "rugs? -> area rugs",
    "sofas? -> sofas",
    "laptop bags? -> NOT laptop computers",
];

/// Keep the rule count bounded so checkpoint encode/parse stays cheap
/// across thousands of cycles.
const MAX_RULES: usize = 40;

#[derive(Debug, Clone)]
enum Op {
    Add { source: &'static str, confidence: f64 },
    Disable { id: u64, reason: String },
    Enable { id: u64 },
    Remove { id: u64, reason: String },
}

fn parser() -> RuleParser {
    RuleParser::new(Taxonomy::builtin())
}

fn fingerprint(repo: &RuleRepository) -> u64 {
    let mut rules: Vec<(u64, String, bool, u64, u64)> = repo
        .full_snapshot()
        .iter()
        .map(|r| {
            (r.id.0, r.source.clone(), r.is_enabled(), r.meta.confidence.to_bits(), r.meta.added_at)
        })
        .collect();
    rules.sort();
    let mut h = DefaultHasher::new();
    (repo.revision(), repo.next_rule_id(), rules).hash(&mut h);
    h.finish()
}

fn gen_op(rng: &mut StdRng, model: &RuleRepository) -> Op {
    let rules = model.full_snapshot();
    let roll = if rules.is_empty() { 0 } else { rng.gen_range(0u32..100) };
    if roll < 40 && rules.len() < MAX_RULES {
        Op::Add {
            source: SOURCES[rng.gen_range(0..SOURCES.len())],
            confidence: (rng.gen_range(0u32..=100) as f64) / 100.0,
        }
    } else if rules.is_empty() {
        Op::Add { source: SOURCES[0], confidence: 1.0 }
    } else {
        let target = rules[rng.gen_range(0..rules.len())].id.0;
        match roll % 3 {
            0 => Op::Disable { id: target, reason: format!("fuzz-{target}") },
            1 => Op::Enable { id: target },
            _ => Op::Remove { id: target, reason: format!("fuzz-{target}") },
        }
    }
}

/// Applies `op` through the durable wrapper. `Ok(true)` = acknowledged and
/// state-changing, `Ok(false)` = acknowledged no-op, `Err` = unacknowledged.
fn apply_durable(durable: &DurableRepository, op: &Op) -> Result<bool, rulekit_store::StoreError> {
    match op {
        Op::Add { source, confidence } => {
            let spec = durable.parser().parse_rule(source).expect("fuzz sources parse");
            let meta = RuleMeta { confidence: *confidence, ..RuleMeta::default() };
            durable.add_rule(spec, meta).map(|_| true)
        }
        Op::Disable { id, reason } => durable.disable(RuleId(*id), reason.clone()),
        Op::Enable { id } => durable.enable(RuleId(*id)),
        Op::Remove { id, reason } => durable.remove(RuleId(*id), reason.clone()),
    }
}

/// Applies `op` to the plain in-memory model. Returns whether it changed
/// state (must agree with the durable wrapper's answer).
fn apply_model(model: &RuleRepository, parser: &RuleParser, op: &Op) -> bool {
    match op {
        Op::Add { source, confidence } => {
            let spec = parser.parse_rule(source).expect("fuzz sources parse");
            let meta = RuleMeta { confidence: *confidence, ..RuleMeta::default() };
            model.add(spec, meta);
            true
        }
        Op::Disable { id, reason } => model.disable(RuleId(*id), reason.clone()),
        Op::Enable { id } => model.enable(RuleId(*id)),
        Op::Remove { id, reason } => model.remove(RuleId(*id), reason.clone()),
    }
}

fn env_u64_list(var: &str, default: &[u64]) -> Vec<u64> {
    match std::env::var(var) {
        Ok(v) => v.split(',').filter_map(|s| s.trim().parse().ok()).collect::<Vec<u64>>(),
        Err(_) => default.to_vec(),
    }
}

fn env_u64(var: &str, default: u64) -> u64 {
    std::env::var(var).ok().and_then(|v| v.trim().parse().ok()).unwrap_or(default)
}

fn cycle_seed(seed: u64, cycle: u64) -> u64 {
    seed ^ cycle.wrapping_mul(0x9E37_79B9_7F4A_7C15)
}

/// One full fuzz run under `FsyncPolicy::Always`: `cycles` crash/reopen
/// cycles on one seed. Returns (acknowledged ops, injected faults).
fn run_always(seed: u64, cycles: u64) -> (u64, u64) {
    let mem = Arc::new(MemStorage::new());
    let parser = parser();
    let model = RuleRepository::new();
    let mut rng = StdRng::seed_from_u64(seed);
    let mut pending: Option<Op> = None;
    let mut acked = 0u64;
    let mut faults = 0u64;
    let config =
        DurableConfig { fsync: FsyncPolicy::Always, checkpoint_every: 5, keep_checkpoints: 2 };

    for cycle in 0..cycles {
        let faulty = Arc::new(FaultyStorage::new(
            Arc::clone(&mem) as Arc<dyn Storage>,
            FaultConfig::aggressive(cycle_seed(seed, cycle)),
        ));
        // Recovery itself runs on clean I/O (read/truncate are unfaulted in
        // the aggressive profile); mutations below hit the fault schedule.
        let durable = DurableRepository::open(
            Arc::clone(&faulty) as Arc<dyn Storage>,
            parser.clone(),
            config,
        )
        .unwrap_or_else(|e| panic!("seed {seed} cycle {cycle}: open failed: {e}"));

        // Check the recovered state against the model: either every
        // acknowledged op, or that plus the one trailing unacknowledged op.
        let recovered = fingerprint(durable.repository());
        if recovered != fingerprint(&model) {
            let p = pending.take().unwrap_or_else(|| {
                panic!("seed {seed} cycle {cycle}: recovered state diverged with no pending op")
            });
            assert!(
                apply_model(&model, &parser, &p),
                "seed {seed} cycle {cycle}: pending op must apply cleanly"
            );
            assert_eq!(
                recovered,
                fingerprint(&model),
                "seed {seed} cycle {cycle}: recovered state is neither acked nor acked+pending"
            );
        }
        pending = None;

        for _ in 0..rng.gen_range(3u32..9) {
            let op = gen_op(&mut rng, &model);
            match apply_durable(&durable, &op) {
                Ok(changed) => {
                    assert_eq!(
                        apply_model(&model, &parser, &op),
                        changed,
                        "seed {seed} cycle {cycle}: model/durable no-op disagreement"
                    );
                    if changed {
                        acked += 1;
                    }
                    pending = None;
                }
                Err(_) => pending = Some(op),
            }
        }
        faults += faulty.stats().total();

        // Power loss: synced bytes survive, each unsynced tail is cut at a
        // random point.
        mem.crash(|_, unsynced| rng.gen_range(0..=unsynced));
    }

    // Final clean reopen: everything acknowledged must be there.
    let durable =
        DurableRepository::open(Arc::clone(&mem) as Arc<dyn Storage>, parser.clone(), config)
            .expect("final open");
    let recovered = fingerprint(durable.repository());
    if recovered != fingerprint(&model) {
        let p = pending.expect("diverged with no pending op");
        apply_model(&model, &parser, &p);
        assert_eq!(recovered, fingerprint(&model));
    }
    (acked, faults)
}

/// Fuzz run for a weaker fsync policy: the recovered state must equal some
/// prefix of the acknowledged mutation stream.
fn run_bounded_loss(seed: u64, cycles: u64, policy: FsyncPolicy) {
    let mem = Arc::new(MemStorage::new());
    let parser = parser();
    let mut model = RuleRepository::new();
    let mut rng = StdRng::seed_from_u64(seed);
    // Fingerprints of every state the model passed through since the last
    // crash (index 0 = the post-recovery baseline).
    let mut history: Vec<u64> = vec![fingerprint(&model)];
    let config = DurableConfig { fsync: policy, checkpoint_every: 5, keep_checkpoints: 2 };

    for cycle in 0..cycles {
        let faulty = Arc::new(FaultyStorage::new(
            Arc::clone(&mem) as Arc<dyn Storage>,
            FaultConfig::aggressive(cycle_seed(seed, cycle)),
        ));
        let durable = DurableRepository::open(
            Arc::clone(&faulty) as Arc<dyn Storage>,
            parser.clone(),
            config,
        )
        .unwrap_or_else(|e| panic!("seed {seed} cycle {cycle}: open failed: {e}"));

        let recovered = fingerprint(durable.repository());
        assert!(
            history.contains(&recovered),
            "seed {seed} cycle {cycle}: recovered state is not a prefix of acknowledged ops \
             (policy {policy:?})"
        );
        // Rebase the model on whatever prefix survived.
        let repo = durable.repository();
        model = RuleRepository::new();
        model.restore(repo.full_snapshot(), repo.next_rule_id(), repo.revision());
        history = vec![fingerprint(&model)];

        for _ in 0..rng.gen_range(3u32..9) {
            let op = gen_op(&mut rng, &model);
            if let Ok(changed) = apply_durable(&durable, &op) {
                let model_changed = apply_model(&model, &parser, &op);
                assert_eq!(model_changed, changed);
                if changed {
                    history.push(fingerprint(&model));
                }
            }
            // Unacknowledged ops never enter the model or the history: a
            // torn record is truncated on recovery, and no complete record
            // can survive an append fault under these policies.
        }
        mem.crash(|_, unsynced| rng.gen_range(0..=unsynced));
    }
}

/// A record the follower must not log: a gap, a no-op `Disable` /
/// `Enable` / `Remove` at the next revision, or an `Add` with the wrong id.
fn bad_record(rng: &mut StdRng, follower: &RuleRepository, next: &WalRecord) -> WalRecord {
    let revision = follower.revision() + 1;
    let rules = follower.full_snapshot();
    let absent = follower.next_rule_id() + rng.gen_range(0u64..3);
    let pick = |rng: &mut StdRng, enabled: bool| {
        let ids: Vec<u64> =
            rules.iter().filter(|r| r.is_enabled() == enabled).map(|r| r.id.0).collect();
        if ids.is_empty() || rng.gen_bool(0.3) {
            absent
        } else {
            ids[rng.gen_range(0..ids.len())]
        }
    };
    let op = match rng.gen_range(0u32..5) {
        0 => return WalRecord { revision: revision + rng.gen_range(1u64..4), ..next.clone() },
        1 => WalOp::Disable { id: pick(rng, false), reason: "no-op".into() },
        2 => WalOp::Enable { id: pick(rng, true) },
        3 => WalOp::Remove { id: absent, reason: "no-op".into() },
        _ => {
            let next_id = follower.next_rule_id();
            let id = if next_id > 0 && rng.gen_bool(0.5) {
                rng.gen_range(0..next_id)
            } else {
                next_id + rng.gen_range(1u64..4)
            };
            WalOp::Add(PersistedRule::new(id, SOURCES[0], &RuleMeta::default()))
        }
    };
    WalRecord { revision, op }
}

/// One seeded run of the replicated path over `steps` leader mutations.
fn run_replicated(seed: u64, steps: u64) {
    let parser = parser();
    let open = |mem: &Arc<MemStorage>, checkpoint_every| {
        let config = DurableConfig { checkpoint_every, ..DurableConfig::default() };
        DurableRepository::open(Arc::clone(mem) as Arc<dyn Storage>, parser.clone(), config)
            .expect("open")
    };
    let leader = open(&Arc::new(MemStorage::new()), 5);
    let shipped: Arc<Mutex<Vec<WalRecord>>> = Arc::default();
    let sink = Arc::clone(&shipped);
    leader
        .set_record_sink(Some(Arc::new(move |r: &WalRecord| sink.lock().unwrap().push(r.clone()))));
    // No compaction on the follower: its reopen replays every applied record.
    let follower_mem = Arc::new(MemStorage::new());
    let follower = open(&follower_mem, 0);
    let mut rng = StdRng::seed_from_u64(seed);
    let mut applied: Vec<WalRecord> = Vec::new();
    let mut refused = 0u64;

    for step in 0..steps {
        let op = gen_op(&mut rng, leader.repository());
        apply_durable(&leader, &op).expect("fault-free leader");
        let records = std::mem::take(&mut *shipped.lock().unwrap());
        for record in &records {
            let logged = follower.stats().wal_records;
            if !applied.is_empty() && rng.gen_bool(0.3) {
                let dup = &applied[rng.gen_range(0..applied.len())];
                assert_eq!(
                    follower.apply_replicated(dup).unwrap(),
                    ReplayOutcome::Skipped,
                    "seed {seed} step {step}: duplicate {dup:?}"
                );
            }
            if rng.gen_bool(0.5) {
                let bad = bad_record(&mut rng, follower.repository(), record);
                assert!(
                    follower.apply_replicated(&bad).is_err(),
                    "seed {seed} step {step}: bad record {bad:?} accepted"
                );
                refused += 1;
            }
            assert_eq!(
                follower.stats().wal_records,
                logged,
                "seed {seed} step {step}: a skipped or refused record was logged"
            );
            assert_eq!(
                follower.apply_replicated(record).unwrap(),
                ReplayOutcome::Applied,
                "seed {seed} step {step}: {record:?}"
            );
            applied.push(record.clone());
        }
        assert_eq!(
            fingerprint(follower.repository()),
            fingerprint(leader.repository()),
            "seed {seed} step {step}: follower diverged from leader"
        );
    }
    assert!(refused > 0, "seed {seed}: no bad record was sent");

    drop(follower);
    let reopened = open(&follower_mem, 0);
    let report = reopened.recovery();
    assert_eq!(report.replayed, applied.len() as u64, "seed {seed}: replayed records");
    assert_eq!(report.discarded_records, 0, "seed {seed}: {:?}", report.wal_stop_reason);
    assert_eq!(fingerprint(reopened.repository()), fingerprint(leader.repository()));
}

#[test]
fn fuzz_always_policy_loses_nothing_across_1000_cycles() {
    let seeds = env_u64_list("RULEKIT_FUZZ_SEEDS", &[11, 42, 777, 31337]);
    let cycles = env_u64("RULEKIT_FUZZ_CYCLES", 250);
    let mut total_acked = 0;
    let mut total_faults = 0;
    for &seed in &seeds {
        let (acked, faults) = run_always(seed, cycles);
        total_acked += acked;
        total_faults += faults;
    }
    assert!(
        seeds.len() as u64 * cycles >= 1000 || std::env::var("RULEKIT_FUZZ_SEEDS").is_ok(),
        "default configuration must cover >= 1000 crash/reopen cycles"
    );
    assert!(total_acked > 0, "fuzz acknowledged no mutations");
    assert!(total_faults > 0, "fault injection never fired — the fuzz tested nothing");
}

#[test]
fn fuzz_every_n_policy_loses_at_most_a_suffix() {
    let seeds = env_u64_list("RULEKIT_FUZZ_SEEDS", &[5, 99]);
    let cycles = env_u64("RULEKIT_FUZZ_CYCLES", 100);
    for &seed in &seeds {
        run_bounded_loss(seed, cycles, FsyncPolicy::EveryN(3));
    }
}

#[test]
fn fuzz_never_policy_loses_at_most_a_suffix() {
    let seeds = env_u64_list("RULEKIT_FUZZ_SEEDS", &[6, 100]);
    let cycles = env_u64("RULEKIT_FUZZ_CYCLES", 100);
    for &seed in &seeds {
        run_bounded_loss(seed, cycles, FsyncPolicy::Never);
    }
}

#[test]
fn fuzz_replicated_follower_logs_only_applying_records() {
    let seeds = env_u64_list("RULEKIT_FUZZ_SEEDS", &[13, 2024]);
    let steps = env_u64("RULEKIT_FUZZ_CYCLES", 250);
    for &seed in &seeds {
        run_replicated(seed, steps);
    }
}
