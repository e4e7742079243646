//! Corruption-matrix recovery tests: each case damages durable state in a
//! specific way (torn tail, bit flip, stale WAL after a mid-compaction
//! crash, empty log, rotted checkpoint) and asserts recovery repairs or
//! falls back instead of serving corrupt state.

use std::sync::Arc;

use rulekit_core::{RuleMeta, RuleParser, RuleRepository};
use rulekit_data::Taxonomy;
use rulekit_store::{DurableConfig, DurableRepository, FileStorage, MemStorage, Storage, WAL_NAME};

fn parser() -> RuleParser {
    RuleParser::new(Taxonomy::builtin())
}

fn manual_config() -> DurableConfig {
    // No auto-compaction: tests control checkpoint timing explicitly.
    DurableConfig { checkpoint_every: 0, ..DurableConfig::default() }
}

fn open(storage: &Arc<MemStorage>) -> DurableRepository {
    let dyn_storage = Arc::clone(storage) as Arc<dyn Storage>;
    DurableRepository::open(dyn_storage, parser(), manual_config()).expect("open")
}

fn fingerprint(repo: &RuleRepository) -> (u64, u64, Vec<(u64, String, bool)>) {
    let mut rules: Vec<(u64, String, bool)> =
        repo.full_snapshot().iter().map(|r| (r.id.0, r.source.clone(), r.is_enabled())).collect();
    rules.sort();
    (repo.revision(), repo.next_rule_id(), rules)
}

#[test]
fn torn_tail_record_is_truncated_and_prefix_recovers() {
    let storage = Arc::new(MemStorage::new());
    let durable = open(&storage);
    let ids = durable
        .add_rules("rings? -> rings\nrugs? -> area rugs\nsofas? -> sofas", &RuleMeta::default())
        .unwrap();
    durable.disable(ids[2], "drift").unwrap();
    let expected = fingerprint(durable.repository());
    drop(durable);

    // A crash mid-append leaves a partial frame on the tail.
    storage.append(WAL_NAME, &[0x21, 0x00, 0x00, 0x00, 0xAA, 0xBB]).unwrap();

    let reopened = open(&storage);
    let report = reopened.recovery();
    assert_eq!(report.truncated_bytes, 6);
    assert!(report.wal_stop_reason.as_deref().unwrap().contains("torn"));
    assert_eq!(report.replayed, 4);
    assert_eq!(fingerprint(reopened.repository()), expected);

    // The torn bytes were physically truncated: a second reopen is clean.
    drop(reopened);
    let again = open(&storage);
    assert_eq!(again.recovery().truncated_bytes, 0);
    assert_eq!(fingerprint(again.repository()), expected);
}

#[test]
fn bit_flipped_checksum_truncates_from_corrupt_record() {
    let storage = Arc::new(MemStorage::new());
    let durable = open(&storage);
    let ids = durable.add_rules("rings? -> rings", &RuleMeta::default()).unwrap();
    let after_add = fingerprint(durable.repository());
    durable.disable(ids[0], "a long reason so the record has a tail to corrupt").unwrap();
    drop(durable);

    // Flip one payload bit inside the *second* record.
    let wal_len = storage.len(WAL_NAME).unwrap().unwrap() as usize;
    assert!(storage.flip_bit(WAL_NAME, wal_len - 3));

    let reopened = open(&storage);
    let report = reopened.recovery();
    assert!(report.wal_stop_reason.as_deref().unwrap().contains("checksum"));
    assert_eq!(report.replayed, 1, "only the intact add survives");
    assert_eq!(
        fingerprint(reopened.repository()),
        after_add,
        "state rolls back to the last intact record"
    );
    assert!(reopened.repository().get(ids[0]).unwrap().is_enabled());
}

#[test]
fn stale_wal_after_mid_compaction_crash_is_skipped_not_replayed_twice() {
    let storage = Arc::new(MemStorage::new());
    let durable = open(&storage);
    let ids =
        durable.add_rules("rings? -> rings\nrugs? -> area rugs", &RuleMeta::default()).unwrap();
    durable.disable(ids[0], "drift").unwrap();
    // Save the pre-checkpoint WAL, checkpoint (which resets it), then put
    // the stale records back: exactly the state after a crash between
    // checkpoint publish and WAL reset.
    let stale_wal = storage.read(WAL_NAME).unwrap();
    durable.checkpoint().unwrap();
    let expected = fingerprint(durable.repository());
    drop(durable);
    storage.append(WAL_NAME, &stale_wal).unwrap();

    let reopened = open(&storage);
    let report = reopened.recovery();
    assert_eq!(report.skipped, 3, "stale records are already in the checkpoint");
    assert_eq!(report.replayed, 0);
    assert_eq!(fingerprint(reopened.repository()), expected);
    assert_eq!(reopened.repository().len(), 2, "no rule applied twice");
}

#[test]
fn empty_and_zero_length_wal_recover_clean() {
    // No files at all.
    let storage = Arc::new(MemStorage::new());
    let fresh = open(&storage);
    assert!(fresh.repository().is_empty());
    assert_eq!(fresh.recovery().recovered_revision, 0);
    drop(fresh);

    // Zero-length WAL file present (created, nothing ever written back).
    storage.append(WAL_NAME, b"").unwrap();
    let reopened = open(&storage);
    assert!(reopened.repository().is_empty());
    assert!(reopened.recovery().wal_stop_reason.is_none());

    // Zero-length WAL next to a checkpoint: checkpoint state wins.
    reopened.add_rules("rings? -> rings", &RuleMeta::default()).unwrap();
    reopened.checkpoint().unwrap();
    let expected = fingerprint(reopened.repository());
    drop(reopened);
    assert_eq!(storage.len(WAL_NAME).unwrap(), Some(0));
    let third = open(&storage);
    assert_eq!(fingerprint(third.repository()), expected);
}

#[test]
fn rotted_checkpoint_falls_back_to_previous_and_replays_stale_wal() {
    let storage = Arc::new(MemStorage::new());
    let durable = open(&storage);
    durable.add_rules("rings? -> rings", &RuleMeta::default()).unwrap();
    durable.checkpoint().unwrap(); // checkpoint A (revision 1)
    let ids = durable.add_rules("rugs? -> area rugs", &RuleMeta::default()).unwrap();
    durable.disable(ids[0], "drift").unwrap();
    let stale_wal = storage.read(WAL_NAME).unwrap();
    durable.checkpoint().unwrap(); // checkpoint B (revision 3)
    let expected = fingerprint(durable.repository());
    drop(durable);

    // Crash-before-reset left the stale WAL behind, and checkpoint B later
    // suffers bit rot.
    storage.append(WAL_NAME, &stale_wal).unwrap();
    let ckpt_b =
        storage.list().unwrap().into_iter().filter(|n| n.starts_with("ckpt-")).max().unwrap();
    assert!(storage.flip_bit(&ckpt_b, 25));

    let reopened = open(&storage);
    let report = reopened.recovery();
    assert_eq!(report.corrupt_checkpoints, 1);
    assert_eq!(report.checkpoint_revision, 1, "fell back to checkpoint A");
    assert_eq!(report.replayed, 2, "WAL tail re-applies the post-A mutations");
    assert_eq!(fingerprint(reopened.repository()), expected);
    // Housekeeping deleted the rotted file.
    assert!(!storage.list().unwrap().contains(&ckpt_b));
}

#[test]
fn file_storage_survives_restart_and_torn_tail() {
    let dir = std::env::temp_dir()
        .join(format!("rulekit-store-it-{}", std::process::id()))
        .join("file-recovery");
    let _ = std::fs::remove_dir_all(&dir);

    let expected = {
        let storage: Arc<dyn Storage> = Arc::new(FileStorage::open(&dir).unwrap());
        let durable = DurableRepository::open(storage, parser(), manual_config()).unwrap();
        let ids =
            durable.add_rules("rings? -> rings\nrugs? -> area rugs", &RuleMeta::default()).unwrap();
        durable.checkpoint().unwrap();
        durable.disable(ids[1], "drift").unwrap();
        fingerprint(durable.repository())
    };

    // Torn tail on the real file.
    {
        let storage = FileStorage::open(&dir).unwrap();
        storage.append(WAL_NAME, &[0x10, 0x00, 0x00]).unwrap();
    }

    let storage: Arc<dyn Storage> = Arc::new(FileStorage::open(&dir).unwrap());
    let reopened = DurableRepository::open(storage, parser(), manual_config()).unwrap();
    assert_eq!(reopened.recovery().truncated_bytes, 3);
    assert_eq!(reopened.recovery().checkpoint_rules, 2);
    assert_eq!(reopened.recovery().replayed, 1);
    assert_eq!(fingerprint(reopened.repository()), expected);

    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn recovery_metrics_are_idempotent_across_reopens() {
    // Persisted-entry metrics are levels, set from recovered state. If
    // recovery *incremented* them per replayed record, every crash-reopen
    // cycle would double-count rules that were persisted exactly once.
    use rulekit_obs::Registry;

    let registry = Arc::new(Registry::new());
    let storage = Arc::new(MemStorage::new());
    let dyn_storage = Arc::clone(&storage) as Arc<dyn Storage>;

    let durable =
        DurableRepository::open_observed(dyn_storage, parser(), manual_config(), &registry)
            .expect("open");
    durable
        .add_rules("rings? -> rings\nrugs? -> area rugs\nsofas? -> sofas", &RuleMeta::default())
        .unwrap();
    let m = durable.metrics().clone();
    assert_eq!(m.persisted_rules.value(), 3);
    assert_eq!(m.persisted_revision.value(), 3);
    assert_eq!(m.wal_appends.value(), 3);
    assert_eq!(m.wal_append_nanos.count(), 3);
    assert_eq!(m.wal_fsync_nanos.count(), 3, "FsyncPolicy::Always syncs per record");
    assert_eq!(m.wal_records.value(), 3);
    drop(durable);

    // Crash-reopen twice into the SAME registry: replay applies 3 records
    // each time, but the persisted levels must stay flat at 3 and no WAL
    // appends/fsyncs may be recorded (replay bypasses the writer).
    for reopen in 1..=2u64 {
        let dyn_storage = Arc::clone(&storage) as Arc<dyn Storage>;
        let reopened =
            DurableRepository::open_observed(dyn_storage, parser(), manual_config(), &registry)
                .expect("reopen");
        let m = reopened.metrics();
        assert_eq!(m.persisted_rules.value(), 3, "reopen {reopen} double-counted rules");
        assert_eq!(m.persisted_revision.value(), 3);
        assert_eq!(m.wal_appends.value(), 3, "replay must not count as appends");
        assert_eq!(m.wal_append_nanos.count(), 3);
        assert_eq!(reopened.recovery().replayed, 3);
        // Replay-work counters DO accumulate: they measure effort, not state.
        assert_eq!(m.replay_applied.value(), 3 * reopen);
        assert_eq!(m.recoveries.value(), reopen + 1);
    }

    // Checkpoint + reopen: records fold into the checkpoint, levels hold.
    let dyn_storage = Arc::clone(&storage) as Arc<dyn Storage>;
    let durable =
        DurableRepository::open_observed(dyn_storage, parser(), manual_config(), &registry)
            .expect("reopen for checkpoint");
    durable.checkpoint().unwrap();
    let m = durable.metrics().clone();
    assert_eq!(m.checkpoints.value(), 1);
    assert_eq!(m.checkpoint_nanos.count(), 1);
    assert_eq!(m.wal_records.value(), 0, "WAL reset after checkpoint");
    drop(durable);

    let dyn_storage = Arc::clone(&storage) as Arc<dyn Storage>;
    let reopened =
        DurableRepository::open_observed(dyn_storage, parser(), manual_config(), &registry)
            .expect("reopen from checkpoint");
    let m = reopened.metrics();
    assert_eq!(m.persisted_rules.value(), 3);
    assert_eq!(m.persisted_revision.value(), 3);
    assert_eq!(reopened.recovery().replayed, 0, "checkpoint absorbed the log");

    // A plain open records too, into a registry of its own.
    let plain = DurableRepository::open(Arc::new(MemStorage::new()), parser(), manual_config())
        .expect("plain open");
    plain
        .add_rules("rings? -> rings\nrugs? -> area rugs\nsofas? -> sofas", &RuleMeta::default())
        .unwrap();
    assert_eq!(plain.metrics().wal_appends.value(), 3);
    assert_eq!(m.wal_appends.value(), 3, "the plain open must not record into `registry`");
}

#[test]
fn an_oversized_record_is_refused_and_the_next_add_survives_reopen() {
    // A record the WAL reader would reject as implausibly long must not be
    // acknowledged: recovery would stop at it and drop every later record.
    let storage = Arc::new(MemStorage::new());
    let durable = open(&storage);
    let shipped = Arc::new(std::sync::atomic::AtomicUsize::new(0));
    let sink_count = Arc::clone(&shipped);
    durable.set_record_sink(Some(Arc::new(move |_: &rulekit_store::WalRecord| {
        sink_count.fetch_add(1, std::sync::atomic::Ordering::SeqCst);
    })));
    durable.add_rules("rings? -> rings", &RuleMeta::default()).unwrap();
    let before = fingerprint(durable.repository());
    let wal_before = storage.read(WAL_NAME).unwrap();

    let huge = RuleMeta { author: "x".repeat(17 << 20), ..RuleMeta::default() };
    assert!(durable.add_rules("rugs? -> area rugs", &huge).is_err());
    assert_eq!(fingerprint(durable.repository()), before, "nothing applied");
    assert_eq!(storage.read(WAL_NAME).unwrap(), wal_before, "nothing logged");
    assert_eq!(shipped.load(std::sync::atomic::Ordering::SeqCst), 1, "nothing shipped");

    durable.add_rules("sofas? -> sofas", &RuleMeta::default()).unwrap();
    let expected = fingerprint(durable.repository());
    assert_eq!(expected.0, 2);
    drop(durable);

    let reopened = open(&storage);
    assert!(reopened.recovery().wal_stop_reason.is_none());
    assert_eq!(fingerprint(reopened.repository()), expected);
}
