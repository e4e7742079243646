//! [`DurableRepository`]: a [`RuleRepository`] whose every mutation is
//! write-ahead logged before it is applied, with periodic checkpoint
//! compaction and crash recovery on open.
//!
//! The ordering contract is log-then-apply under one mutation lock: a
//! mutation is *acknowledged* (returned `Ok`) only after its WAL record is
//! durable to the extent the [`FsyncPolicy`] promises; only then does it
//! touch the in-memory repository. First-hand, replicated and replayed
//! edits share one write path: a record from elsewhere (a leader's, or the
//! WAL's at open) passes one admission check — next revision, changes the
//! repository, an `Add`'s source parses — before anything is logged or
//! applied, and one apply maps every [`WalOp`] onto the repository.
//! Recovery ([`DurableRepository::open`]) loads the newest valid
//! checkpoint, replays the WAL tail through that path, truncates any torn
//! tail, and returns a [`RecoveryReport`] describing what it found.

use std::sync::{Arc, Mutex, MutexGuard};

use rulekit_core::{Rule, RuleId, RuleMeta, RuleParser, RuleRepository, RuleSpec, RuleStatus};
use rulekit_data::TypeId;

use crate::checkpoint::{self, CheckpointData, CheckpointStats};
use crate::codec::{self, PersistedRule};
use crate::obs::StoreMetrics;
use crate::storage::{Storage, StoreError};
use crate::wal::{self, WalOp, WalRecord, WalWriter};
use rulekit_obs::{Registry, SpanTimer};

/// The WAL's file name inside its storage namespace.
pub const WAL_NAME: &str = "wal";

/// File holding the replication leader epoch (incarnation counter).
pub const EPOCH_NAME: &str = "epoch";
const EPOCH_TMP: &str = "epoch.tmp";

/// When acknowledged mutations become crash-proof.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum FsyncPolicy {
    /// Fsync after every record: an `Ok` mutation survives any crash. The
    /// durable default.
    #[default]
    Always,
    /// Fsync every `n` records: bounded loss window, much higher
    /// throughput. A crash may lose up to `n - 1` acknowledged tail
    /// mutations (never reordered, never corrupted).
    EveryN(u32),
    /// Never fsync explicitly; durability rides on OS writeback. Crash may
    /// lose any acknowledged suffix.
    Never,
}

/// Tuning for a [`DurableRepository`].
#[derive(Debug, Clone, Copy)]
pub struct DurableConfig {
    /// Fsync policy for the WAL.
    pub fsync: FsyncPolicy,
    /// Compact (checkpoint + WAL reset) once the WAL holds this many
    /// records. `0` disables automatic compaction (explicit
    /// [`DurableRepository::checkpoint`] still works).
    pub checkpoint_every: u64,
    /// How many recent checkpoints to retain (minimum 1; the default 2
    /// keeps one fallback if the newest suffers bit rot).
    pub keep_checkpoints: usize,
}

impl Default for DurableConfig {
    fn default() -> Self {
        DurableConfig { fsync: FsyncPolicy::Always, checkpoint_every: 1024, keep_checkpoints: 2 }
    }
}

/// What [`DurableRepository::open`] found and did.
#[derive(Debug, Clone, Default)]
pub struct RecoveryReport {
    /// Revision of the checkpoint recovery started from (0 = none found).
    pub checkpoint_revision: u64,
    /// Rules in that checkpoint.
    pub checkpoint_rules: usize,
    /// Checkpoint candidates that failed validation and were skipped.
    pub corrupt_checkpoints: usize,
    /// WAL records applied on top of the checkpoint.
    pub replayed: u64,
    /// WAL records skipped because the checkpoint already contained them
    /// (a crash between checkpoint publish and WAL reset leaves them).
    pub skipped: u64,
    /// Torn/corrupt WAL tail bytes truncated (including the bytes of any
    /// discarded non-applying suffix).
    pub truncated_bytes: u64,
    /// Well-formed WAL records discarded because they could not apply on
    /// top of the recovered state (revision gap, id mismatch, no-op
    /// replay). Non-zero only after an interrupted snapshot install left
    /// records from a divergent history behind; the suffix is truncated
    /// from disk so the next open is clean.
    pub discarded_records: u64,
    /// Why the WAL scan stopped early, if it did.
    pub wal_stop_reason: Option<String>,
    /// Repository revision after recovery.
    pub recovered_revision: u64,
    /// Rules (any status) after recovery.
    pub recovered_rules: usize,
}

/// Durability counters (experiments and operational introspection).
#[derive(Debug, Clone, Copy, Default)]
pub struct StoreStats {
    /// Acknowledged records currently in the WAL.
    pub wal_records: u64,
    /// Acknowledged WAL bytes.
    pub wal_bytes: u64,
    /// Checkpoints written since open.
    pub checkpoints_written: u64,
    /// The most recent checkpoint, if any.
    pub last_checkpoint: CheckpointStats,
}

struct WriterState {
    wal: WalWriter,
    checkpoints_written: u64,
    last_checkpoint: CheckpointStats,
}

/// Observer invoked (under the mutation lock, so in exact log order) with
/// every WAL record this repository acknowledges. Replication leaders hang
/// their shipping log off this hook; keep the callback cheap — it runs on
/// the mutating thread.
pub type RecordSink = Arc<dyn Fn(&WalRecord) + Send + Sync>;

/// What [`DurableRepository::apply_replicated`] did with a shipped record.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ReplayOutcome {
    /// The record was the next revision: logged locally and applied.
    Applied,
    /// The record's revision was already folded in (duplicate after a
    /// resume); nothing logged, nothing applied.
    Skipped,
}

/// Digest of the full rule catalog: FNV-1a over the revision, the next id
/// and each rule's persisted image ([`PersistedRule`]) in id order. Two
/// repositories with equal hashes hold identical rule state — the
/// replication suite's divergence check. Only equality is meaningful.
pub fn catalog_hash(repo: &RuleRepository) -> u64 {
    const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
    const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;
    let mut h = FNV_OFFSET;
    let mut eat = |bytes: &[u8]| {
        for &b in bytes {
            h ^= b as u64;
            h = h.wrapping_mul(FNV_PRIME);
        }
    };
    let mut rules = repo.full_snapshot();
    rules.sort_by_key(|r| r.id.0);
    eat(&repo.revision().to_le_bytes());
    eat(&repo.next_rule_id().to_le_bytes());
    let mut image = Vec::new();
    for r in &rules {
        image.clear();
        PersistedRule::from(r).put(&mut image);
        eat(&image);
    }
    h
}

/// A [`RuleRepository`] with a write-ahead log and checkpoints underneath.
/// Reads go straight to [`DurableRepository::repository`]; all mutations
/// must flow through this wrapper, which serializes them internally.
pub struct DurableRepository {
    repo: Arc<RuleRepository>,
    parser: RuleParser,
    storage: Arc<dyn Storage>,
    config: DurableConfig,
    state: Mutex<WriterState>,
    recovery: RecoveryReport,
    metrics: Arc<StoreMetrics>,
    sink: Mutex<Option<RecordSink>>,
}

impl DurableRepository {
    /// Opens (recovering if durable state exists) over a fresh repository,
    /// with its telemetry in a registry of its own
    /// ([`DurableRepository::metrics`] reads it).
    pub fn open(
        storage: Arc<dyn Storage>,
        parser: RuleParser,
        config: DurableConfig,
    ) -> Result<DurableRepository, StoreError> {
        DurableRepository::open_observed(storage, parser, config, &Registry::new())
    }

    /// [`DurableRepository::open`] with durability telemetry (WAL append/
    /// fsync latency, checkpoint timing, recovery accounting) registered in
    /// `registry`.
    pub fn open_observed(
        storage: Arc<dyn Storage>,
        parser: RuleParser,
        config: DurableConfig,
        registry: &Registry,
    ) -> Result<DurableRepository, StoreError> {
        DurableRepository::open_into_observed(
            RuleRepository::new(),
            storage,
            parser,
            config,
            registry,
        )
    }

    /// Opens over a caller-supplied repository (e.g. one already wired into
    /// a pipeline), with its telemetry registered in `registry`. The
    /// repository's previous contents are replaced by the recovered state;
    /// watchers see one change notification.
    ///
    /// Recovery treats persisted-entry metrics as *levels*: it **sets**
    /// `rulekit_store_persisted_rules` / `_revision` from the recovered
    /// state rather than incrementing per replayed record, so reopening the
    /// same durable state twice cannot double-count entries that were
    /// persisted exactly once. Replay work counters (`replay_applied` /
    /// `replay_skipped`) do accumulate — they measure replay effort, not
    /// persisted state.
    pub fn open_into_observed(
        repo: Arc<RuleRepository>,
        storage: Arc<dyn Storage>,
        parser: RuleParser,
        config: DurableConfig,
        registry: &Registry,
    ) -> Result<DurableRepository, StoreError> {
        let mut report = RecoveryReport::default();

        // 1. Newest valid checkpoint (corrupt candidates skipped, then
        //    deleted by housekeeping below).
        let ckpt_scan = checkpoint::load_latest(&*storage)?;
        report.corrupt_checkpoints = ckpt_scan.corrupt.len();
        let (rules, next_id, base_revision) = match &ckpt_scan.latest {
            Some(data) => {
                report.checkpoint_revision = data.revision;
                report.checkpoint_rules = data.rules.len();
                (rebuild_rules(&parser, &data.rules)?, data.next_id, data.revision)
            }
            None => (Vec::new(), 0, 0),
        };
        repo.restore(rules, next_id, base_revision);

        // 2. WAL: accept the longest valid prefix, truncate the torn tail.
        let wal_bytes = match storage.read(WAL_NAME) {
            Ok(bytes) => bytes,
            Err(e) if e.kind() == std::io::ErrorKind::NotFound => Vec::new(),
            Err(e) => return Err(e.into()),
        };
        let wal_scan = wal::scan(&wal_bytes);
        report.truncated_bytes = wal_scan.truncated_bytes;
        report.wal_stop_reason = wal_scan.stop_reason.clone();
        if wal_scan.truncated_bytes > 0 {
            storage.truncate(WAL_NAME, wal_scan.valid_len)?;
        }

        // 3. Replay the tail through the admission check and the apply a
        //    replicated record takes. Records at or below the checkpoint
        //    revision are already folded in (crash between checkpoint
        //    publish and WAL reset) and are skipped. A suffix that is
        //    refused is the residue of an interrupted snapshot install
        //    (divergent pre-snapshot history alongside a newer checkpoint)
        //    and is discarded: truncated from disk and reported, rather
        //    than failing the open and stranding the node. Admission runs
        //    *before* applying, so a discarded record never half-mutates
        //    the repository.
        let mut wal_len = wal_scan.valid_len;
        let mut wal_records = wal_scan.records.len() as u64;
        for (i, record) in wal_scan.records.iter().enumerate() {
            let replayed = admit(&repo, &parser, record)
                .and_then(|edit| edit.map(|edit| edit.apply(&repo)).transpose());
            match replayed {
                Ok(Some(())) => report.replayed += 1,
                Ok(None) => report.skipped += 1,
                Err(e) => {
                    let cut = wal_scan.record_starts[i];
                    storage.truncate(WAL_NAME, cut)?;
                    report.discarded_records = (wal_scan.records.len() - i) as u64;
                    report.truncated_bytes += wal_len - cut;
                    report.wal_stop_reason = Some(format!("discarded non-applying suffix: {e}"));
                    wal_len = cut;
                    wal_records = i as u64;
                    break;
                }
            }
        }

        checkpoint::housekeep(&*storage, &ckpt_scan.corrupt, config.keep_checkpoints);

        report.recovered_revision = repo.revision();
        report.recovered_rules = repo.len();
        let metrics = StoreMetrics::register(registry);
        metrics.recoveries.inc();
        metrics.replay_applied.add(report.replayed);
        metrics.replay_skipped.add(report.skipped);
        metrics.persisted_rules.set(report.recovered_rules as i64);
        metrics.persisted_revision.set(report.recovered_revision as i64);
        metrics.wal_records.set(wal_records as i64);
        let wal = WalWriter::new(
            Arc::clone(&storage),
            WAL_NAME,
            config.fsync,
            wal_len,
            wal_records,
            Arc::clone(&metrics),
        );
        Ok(DurableRepository {
            repo,
            parser,
            storage,
            config,
            state: Mutex::new(WriterState {
                wal,
                checkpoints_written: 0,
                last_checkpoint: CheckpointStats::default(),
            }),
            recovery: report,
            metrics,
            sink: Mutex::new(None),
        })
    }

    /// Installs (or clears) the acknowledged-record observer. The sink sees
    /// every record logged *after* this call, in exact log order; a leader
    /// that needs the records before the hookup reads them via
    /// [`DurableRepository::snapshot_data`].
    pub fn set_record_sink(&self, sink: Option<RecordSink>) {
        *self.sink.lock().unwrap_or_else(|e| e.into_inner()) = sink;
    }

    fn emit(&self, record: &WalRecord) {
        let guard = self.sink.lock().unwrap_or_else(|e| e.into_inner());
        if let Some(sink) = guard.as_ref() {
            sink(record);
        }
    }

    /// The durability telemetry handles.
    pub fn metrics(&self) -> &Arc<StoreMetrics> {
        &self.metrics
    }

    /// Re-points the persisted-state level gauges at the current repository
    /// state. Levels are set, never incremented (see
    /// [`DurableRepository::open_into_observed`]).
    fn note_persisted_levels(&self) {
        self.metrics.persisted_rules.set(self.repo.len() as i64);
        self.metrics.persisted_revision.set(self.repo.revision() as i64);
    }

    /// The underlying repository (shareable with executors/snapshots; do
    /// not mutate it directly — un-logged mutations will not survive a
    /// restart and desynchronize WAL revisions).
    pub fn repository(&self) -> &Arc<RuleRepository> {
        &self.repo
    }

    /// The parser used to rebuild rules during recovery.
    pub fn parser(&self) -> &RuleParser {
        &self.parser
    }

    /// What recovery found when this instance opened.
    pub fn recovery(&self) -> &RecoveryReport {
        &self.recovery
    }

    /// Current durability counters.
    pub fn stats(&self) -> StoreStats {
        let st = self.lock_state();
        StoreStats {
            wal_records: st.wal.records(),
            wal_bytes: st.wal.len(),
            checkpoints_written: st.checkpoints_written,
            last_checkpoint: st.last_checkpoint,
        }
    }

    fn lock_state(&self) -> MutexGuard<'_, WriterState> {
        self.state.lock().unwrap_or_else(|e| e.into_inner())
    }

    /// Durably adds a parsed rule. On `Ok` the rule is logged (and applied);
    /// on `Err` neither happened.
    pub fn add_rule(&self, spec: RuleSpec, mut meta: RuleMeta) -> Result<RuleId, StoreError> {
        let st = self.lock_state();
        let id = self.repo.next_rule_id();
        meta.added_at = self.repo.revision();
        let record = WalRecord {
            revision: meta.added_at + 1,
            op: WalOp::Add(PersistedRule::new(id, &spec.source, &meta)),
        };
        self.log_and_apply(st, Admitted { record: &record, add: Some((spec, meta)) })?;
        Ok(RuleId(id))
    }

    /// Durably parses and adds every rule line in `text`.
    pub fn add_rules(&self, text: &str, meta: &RuleMeta) -> Result<Vec<RuleId>, StoreError> {
        let specs = self.parser.parse_rules(text).map_err(|e| StoreError::Parse(e.to_string()))?;
        specs.into_iter().map(|s| self.add_rule(s, meta.clone())).collect()
    }

    /// Durably disables a rule. `Ok(false)` = no-op (absent or already
    /// disabled), nothing logged.
    pub fn disable(&self, id: RuleId, reason: impl Into<String>) -> Result<bool, StoreError> {
        self.edit(WalOp::Disable { id: id.0, reason: reason.into() })
    }

    /// Durably re-enables a rule. `Ok(false)` = no-op, nothing logged.
    pub fn enable(&self, id: RuleId) -> Result<bool, StoreError> {
        self.edit(WalOp::Enable { id: id.0 })
    }

    /// Durably removes a rule. `Ok(false)` = absent, nothing logged.
    pub fn remove(&self, id: RuleId, reason: impl Into<String>) -> Result<bool, StoreError> {
        self.edit(WalOp::Remove { id: id.0, reason: reason.into() })
    }

    /// A first-hand disable, enable or remove: `Ok(false)`, with nothing
    /// logged, when the op would change nothing.
    fn edit(&self, op: WalOp) -> Result<bool, StoreError> {
        let st = self.lock_state();
        if !changes(&self.repo, &op) {
            return Ok(false);
        }
        let record = WalRecord { revision: self.repo.revision() + 1, op };
        self.log_and_apply(st, Admitted { record: &record, add: None })?;
        Ok(true)
    }

    /// Durably disables every enabled rule targeting `ty` (the per-type
    /// scale-down lever), one WAL record per rule. Stops at the first
    /// storage error; already-logged disables stand.
    pub fn disable_type(
        &self,
        ty: TypeId,
        reason: impl Into<String>,
    ) -> Result<Vec<RuleId>, StoreError> {
        let reason = reason.into();
        let mut affected = Vec::new();
        for entry in self.repo.versioned_entries().1 {
            let id = entry.rule().id;
            if entry.rule().target_type() == Some(ty) && self.disable(id, reason.clone())? {
                affected.push(id);
            }
        }
        Ok(affected)
    }

    /// Durably re-enables every disabled rule targeting `ty`.
    pub fn enable_type(&self, ty: TypeId) -> Result<Vec<RuleId>, StoreError> {
        let mut affected = Vec::new();
        for entry in self.repo.entries() {
            let rule = entry.rule();
            if !rule.is_enabled() && rule.target_type() == Some(ty) && self.enable(rule.id)? {
                affected.push(rule.id);
            }
        }
        Ok(affected)
    }

    /// The log-then-apply step of first-hand and replicated edits: appends
    /// the admitted record (an append error leaves the repository
    /// untouched), applies it, then refreshes the levels, shows the record
    /// to the sink and compacts when due.
    fn log_and_apply(
        &self,
        mut st: MutexGuard<'_, WriterState>,
        edit: Admitted<'_>,
    ) -> Result<(), StoreError> {
        let record = edit.record;
        st.wal.append(record)?;
        edit.apply(&self.repo)?;
        self.note_persisted_levels();
        self.emit(record);
        self.maybe_compact(st);
        Ok(())
    }

    /// Consistent full-catalog image (rules + next id + revision) under the
    /// mutation lock, without writing anything. The leader serves this to
    /// cold or gap-stranded followers as the catch-up snapshot.
    pub fn snapshot_data(&self) -> CheckpointData {
        let _st = self.lock_state();
        self.build_checkpoint_data()
    }

    /// Reads the persisted replication epoch. `0` means "unknown" — no file,
    /// or one that failed its checksum — and by convention never matches a
    /// live leader's epoch, so an epoch-less node always resyncs by
    /// snapshot.
    pub fn load_epoch(&self) -> u64 {
        let Ok(bytes) = self.storage.read(EPOCH_NAME) else { return 0 };
        codec::unseal(&bytes).ok().and_then(|p| p.try_into().ok()).map_or(0, u64::from_le_bytes)
    }

    /// Durably records `epoch` (a sealed image, temp → fsync → rename).
    pub fn save_epoch(&self, epoch: u64) -> Result<(), StoreError> {
        self.storage.remove(EPOCH_TMP)?;
        self.storage.append(EPOCH_TMP, &codec::seal(&epoch.to_le_bytes()))?;
        self.storage.sync(EPOCH_TMP)?;
        self.storage.rename(EPOCH_TMP, EPOCH_NAME)?;
        Ok(())
    }

    /// Advances and persists the epoch; returns the new value (always ≥ 1).
    /// A replication leader calls this once per process start so followers
    /// can tell a restarted leader — which may have lost an unsynced WAL
    /// tail and silently re-advanced its revisions — from the incarnation
    /// they were tailing.
    pub fn bump_epoch(&self) -> Result<u64, StoreError> {
        let next = self.load_epoch() + 1;
        self.save_epoch(next)?;
        Ok(next)
    }

    /// Replaces all local state with a leader-supplied snapshot: persists it
    /// as a local checkpoint (temp → fsync → rename), restores the
    /// repository from it, and resets the WAL. Afterwards the follower
    /// resumes the record stream from `data.revision`. A snapshot *older*
    /// than local state is installed too — the follower's contract is to
    /// mirror the leader, even one that lost an unsynced tail in a crash.
    ///
    /// Ordering is crash-window-safe. Higher-revision local checkpoints are
    /// removed first (recovery picks the newest by revision, so a divergent
    /// survivor would win the next scan and resurrect the fork), then the
    /// WAL is reset, then the snapshot checkpoint is written. A crash after
    /// any single step recovers to either the old consistent state or the
    /// installed snapshot — never a mix; the one residue (divergent WAL over
    /// an older checkpoint) is discarded by tolerant recovery.
    pub fn install_snapshot(&self, data: &CheckpointData) -> Result<(), StoreError> {
        let mut st = self.lock_state();
        let rules = rebuild_rules(&self.parser, &data.rules)?;
        let span = SpanTimer::start(&self.metrics.checkpoint_nanos);
        checkpoint::remove_above(&*self.storage, data.revision)?;
        st.wal.reset()?;
        let stats = checkpoint::write(&*self.storage, data)?;
        self.repo.restore(rules, data.next_id, data.revision);
        self.note_persisted_levels();
        self.note_checkpoint(&mut st, stats, span);
        Ok(())
    }

    /// Applies one leader-shipped record through the admission check and
    /// the log-then-apply step of first-hand edits, so a follower restart
    /// recovers replicated edits from its *own* WAL. Duplicates (revision
    /// already folded in) are skipped; a refused record — a gap, a no-op,
    /// an `Add` with the wrong id — is [`StoreError::Corrupt`] (an `Add`
    /// whose source does not parse is [`StoreError::Parse`]), the
    /// follower's signal to resync from a snapshot. A refused record is
    /// never logged.
    pub fn apply_replicated(&self, record: &WalRecord) -> Result<ReplayOutcome, StoreError> {
        let st = self.lock_state();
        match admit(&self.repo, &self.parser, record)? {
            Some(edit) => self.log_and_apply(st, edit).map(|()| ReplayOutcome::Applied),
            None => Ok(ReplayOutcome::Skipped),
        }
    }

    fn maybe_compact(&self, st: MutexGuard<'_, WriterState>) {
        if self.config.checkpoint_every > 0 && st.wal.records() >= self.config.checkpoint_every {
            // Best-effort: compaction failure (e.g. injected rename fault)
            // leaves the WAL long but the acknowledged mutation intact; the
            // next mutation retries.
            let _ = self.checkpoint_locked(st);
        }
    }

    /// Writes a checkpoint of the current state and resets the WAL.
    /// Returns stats for the checkpoint written.
    pub fn checkpoint(&self) -> Result<CheckpointStats, StoreError> {
        self.checkpoint_locked(self.lock_state())
    }

    fn checkpoint_locked(
        &self,
        mut st: MutexGuard<'_, WriterState>,
    ) -> Result<CheckpointStats, StoreError> {
        let span = SpanTimer::start(&self.metrics.checkpoint_nanos);
        let stats = checkpoint::write(&*self.storage, &self.build_checkpoint_data())?;
        // Checkpoint is published; stale WAL records are now redundant
        // (replay would skip them by revision), so a reset failure is
        // harmless beyond log length.
        let _ = st.wal.reset();
        self.note_checkpoint(&mut st, stats, span);
        Ok(stats)
    }

    /// The bookkeeping after a checkpoint write, shared by compaction and
    /// snapshot install (whose crash-safe write orders differ):
    /// housekeeping, the counters and the timing span.
    fn note_checkpoint(&self, st: &mut WriterState, stats: CheckpointStats, span: SpanTimer<'_>) {
        checkpoint::housekeep(&*self.storage, &[], self.config.keep_checkpoints);
        st.checkpoints_written += 1;
        st.last_checkpoint = stats;
        self.metrics.checkpoints.inc();
        span.finish();
    }

    /// Consistent catalog image. Callers must hold the mutation lock (or
    /// accept a torn read — no internal callers do).
    fn build_checkpoint_data(&self) -> CheckpointData {
        CheckpointData {
            revision: self.repo.revision(),
            next_id: self.repo.next_rule_id(),
            rules: self.repo.full_snapshot().iter().map(PersistedRule::from).collect(),
        }
    }
}

/// Rebuilds full [`Rule`] values from checkpoint entries, into a vector
/// sized once (a 50k-rule catalog is re-parsed here on every open).
fn rebuild_rules(parser: &RuleParser, entries: &[PersistedRule]) -> Result<Vec<Rule>, StoreError> {
    let mut rules = Vec::with_capacity(entries.len());
    for e in entries {
        rules.push(e.to_rule(parser)?);
    }
    Ok(rules)
}

/// A record the admission check let through (or a first-hand edit that
/// passed [`changes`]): the next revision, an op that changes the
/// repository, and for an `Add` its source parsed once, with its metadata.
struct Admitted<'r> {
    record: &'r WalRecord,
    add: Option<(RuleSpec, RuleMeta)>,
}

impl Admitted<'_> {
    /// Applies the op to `repo`. Admission makes it move the revision by
    /// exactly one; the check after it catches a repository mutated behind
    /// the store's back.
    fn apply(self, repo: &RuleRepository) -> Result<(), StoreError> {
        match &self.record.op {
            WalOp::Add(_) => {
                // Admission fills `add` for every `Add`; without it nothing
                // moves and the revision check refuses the record.
                if let Some((spec, meta)) = self.add {
                    repo.add(spec, meta);
                }
            }
            WalOp::Disable { id, reason } => {
                repo.disable(RuleId(*id), reason.as_str());
            }
            WalOp::Enable { id } => {
                repo.enable(RuleId(*id));
            }
            WalOp::Remove { id, reason } => {
                repo.remove(RuleId(*id), reason.as_str());
            }
        }
        if repo.revision() != self.record.revision {
            return Err(StoreError::Corrupt(format!(
                "revision mismatch: record {}, repository at {}",
                self.record.revision,
                repo.revision()
            )));
        }
        Ok(())
    }
}

/// Whether `op` changes `repo`: an `Add` names the next id, a `Disable` or
/// `Enable` a rule in the other state, a `Remove` a present rule.
fn changes(repo: &RuleRepository, op: &WalOp) -> bool {
    match op {
        WalOp::Add(rule) => rule.id == repo.next_rule_id(),
        WalOp::Disable { id, .. } => repo.status(RuleId(*id)) == Some(RuleStatus::Enabled),
        WalOp::Enable { id } => repo.status(RuleId(*id)).is_some_and(|s| s != RuleStatus::Enabled),
        WalOp::Remove { id, .. } => repo.status(RuleId(*id)).is_some(),
    }
}

/// The admission check for a record from elsewhere: shipped by a leader,
/// or read back from the WAL at open. `Ok(None)`: its revision is already
/// folded in. A revision gap or an op that changes nothing (an `Add` with
/// the wrong id included) is [`StoreError::Corrupt`]; an `Add` whose
/// source does not parse is
/// [`StoreError::Parse`].
fn admit<'r>(
    repo: &RuleRepository,
    parser: &RuleParser,
    record: &'r WalRecord,
) -> Result<Option<Admitted<'r>>, StoreError> {
    let current = repo.revision();
    if record.revision <= current {
        return Ok(None);
    }
    if record.revision != current + 1 {
        return Err(StoreError::Corrupt(format!(
            "revision gap: record {} after revision {current}",
            record.revision
        )));
    }
    if !changes(repo, &record.op) {
        return Err(StoreError::Corrupt(format!(
            "record {} does not apply (next id {}): {:?}",
            record.revision,
            repo.next_rule_id(),
            record.op
        )));
    }
    let add = match &record.op {
        WalOp::Add(rule) => Some((rule.parse(parser)?, rule.meta())),
        _ => None,
    };
    Ok(Some(Admitted { record, add }))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::storage::MemStorage;
    use rulekit_data::Taxonomy;

    fn parser() -> RuleParser {
        RuleParser::new(Taxonomy::builtin())
    }

    fn open(storage: &Arc<MemStorage>, config: DurableConfig) -> DurableRepository {
        let dyn_storage: Arc<dyn Storage> = Arc::clone(storage) as Arc<dyn Storage>;
        DurableRepository::open(dyn_storage, parser(), config).unwrap()
    }

    #[test]
    fn mutations_survive_reopen_without_checkpoint() {
        let storage = Arc::new(MemStorage::new());
        let config = DurableConfig { checkpoint_every: 0, ..DurableConfig::default() };
        let durable = open(&storage, config);
        let ids =
            durable.add_rules("rings? -> rings\nrugs? -> area rugs", &RuleMeta::default()).unwrap();
        durable.disable(ids[1], "drift").unwrap();
        let revision = durable.repository().revision();
        drop(durable);

        let reopened = open(&storage, config);
        let repo = reopened.repository();
        assert_eq!(repo.revision(), revision);
        assert_eq!(repo.len(), 2);
        assert!(repo.get(ids[0]).unwrap().is_enabled());
        assert!(!repo.get(ids[1]).unwrap().is_enabled());
        let report = reopened.recovery();
        assert_eq!(report.replayed, 3);
        assert_eq!(report.checkpoint_revision, 0);
    }

    #[test]
    fn expression_rules_survive_reopen_and_reuse_compiled_bytecode() {
        use rulekit_core::Condition;
        let storage = Arc::new(MemStorage::new());
        let config = DurableConfig { checkpoint_every: 0, ..DurableConfig::default() };
        let p = parser();
        let line = "rule: price < 20 && title ~ /braided/ => NOT area rugs";

        let dyn_storage: Arc<dyn Storage> = Arc::clone(&storage) as Arc<dyn Storage>;
        let durable = DurableRepository::open(dyn_storage, p.clone(), config).unwrap();
        let ids = durable.add_rules(line, &RuleMeta::default()).unwrap();
        drop(durable);
        assert_eq!(p.expr_cache().stats().misses, 1);

        // WAL replay re-parses the persisted source — expression rules come
        // back as compiled bytecode, via the shared cache (a hit, not a
        // recompile, because the process already compiled this source).
        let dyn_storage: Arc<dyn Storage> = Arc::clone(&storage) as Arc<dyn Storage>;
        let reopened = DurableRepository::open(dyn_storage, p.clone(), config).unwrap();
        let rule = reopened.repository().get(ids[0]).unwrap();
        assert_eq!(rule.source, line);
        assert!(matches!(rule.condition, Condition::Expr(_)));
        let stats = p.expr_cache().stats();
        assert_eq!(stats.misses, 1, "recovery recompiled the expression");
        assert!(stats.hits >= 1);

        // Checkpoint compaction and recovery-from-checkpoint round-trip the
        // rule too (checkpoints store the same source text).
        reopened.checkpoint().unwrap();
        drop(reopened);
        let dyn_storage: Arc<dyn Storage> = Arc::clone(&storage) as Arc<dyn Storage>;
        let again = DurableRepository::open(dyn_storage, p.clone(), config).unwrap();
        let rule = again.repository().get(ids[0]).unwrap();
        assert!(matches!(rule.condition, Condition::Expr(_)));
        assert_eq!(p.expr_cache().stats().misses, 1, "checkpoint rebuild recompiled");
    }

    #[test]
    fn checkpoint_resets_wal_and_recovers_alone() {
        let storage = Arc::new(MemStorage::new());
        let config = DurableConfig { checkpoint_every: 0, ..DurableConfig::default() };
        let durable = open(&storage, config);
        durable.add_rules("rings? -> rings\nrugs? -> area rugs", &RuleMeta::default()).unwrap();
        let stats = durable.checkpoint().unwrap();
        assert_eq!(stats.rules, 2);
        assert_eq!(durable.stats().wal_records, 0, "WAL reset after checkpoint");
        drop(durable);

        let reopened = open(&storage, config);
        assert_eq!(reopened.repository().len(), 2);
        let report = reopened.recovery();
        assert_eq!(report.checkpoint_rules, 2);
        assert_eq!(report.replayed, 0);
    }

    #[test]
    fn auto_compaction_triggers_on_record_count() {
        let storage = Arc::new(MemStorage::new());
        let config = DurableConfig { checkpoint_every: 4, ..DurableConfig::default() };
        let durable = open(&storage, config);
        let id = durable
            .add_rule(parser().parse_rule("rings? -> rings").unwrap(), RuleMeta::default())
            .unwrap();
        for _ in 0..3 {
            durable.disable(id, "churn").unwrap();
            durable.enable(id).unwrap();
        }
        assert!(durable.stats().checkpoints_written >= 1);
        assert!(durable.stats().wal_records < 4);
    }

    #[test]
    fn skipped_records_after_mid_compaction_crash() {
        let storage = Arc::new(MemStorage::new());
        let config = DurableConfig { checkpoint_every: 0, ..DurableConfig::default() };
        let durable = open(&storage, config);
        let ids =
            durable.add_rules("rings? -> rings\nrugs? -> area rugs", &RuleMeta::default()).unwrap();
        durable.disable(ids[0], "drift").unwrap();
        // Simulate crash between checkpoint publish and WAL reset: write the
        // checkpoint with the storage directly, leaving the WAL untouched.
        let data = CheckpointData {
            revision: durable.repository().revision(),
            next_id: durable.repository().next_rule_id(),
            rules: durable.repository().full_snapshot().iter().map(PersistedRule::from).collect(),
        };
        checkpoint::write(&*storage, &data).unwrap();
        drop(durable);

        let reopened = open(&storage, config);
        let report = reopened.recovery();
        assert_eq!(report.skipped, 3, "all WAL records were already in the checkpoint");
        assert_eq!(report.replayed, 0);
        assert_eq!(reopened.repository().len(), 2);
        assert!(!reopened.repository().get(ids[0]).unwrap().is_enabled());
    }

    #[test]
    fn disable_type_logs_one_record_per_rule() {
        let storage = Arc::new(MemStorage::new());
        let config = DurableConfig { checkpoint_every: 0, ..DurableConfig::default() };
        let durable = open(&storage, config);
        durable
            .add_rules(
                "rings? -> rings\nwedding bands? -> rings\nrugs? -> area rugs",
                &RuleMeta::default(),
            )
            .unwrap();
        let tax = Taxonomy::builtin();
        let rings = tax.id_of("rings").unwrap();
        let affected = durable.disable_type(rings, "precision alarm").unwrap();
        assert_eq!(affected.len(), 2);
        drop(durable);

        let reopened = open(&storage, config);
        assert_eq!(reopened.recovery().replayed, 5, "3 adds + 2 disables");
        assert_eq!(reopened.repository().enabled_snapshot().len(), 1);
        let restored = reopened.enable_type(rings).unwrap();
        assert_eq!(restored.len(), 2);
    }

    #[test]
    fn noop_mutations_log_nothing() {
        let storage = Arc::new(MemStorage::new());
        let config = DurableConfig { checkpoint_every: 0, ..DurableConfig::default() };
        let durable = open(&storage, config);
        let id = durable
            .add_rule(parser().parse_rule("rings? -> rings").unwrap(), RuleMeta::default())
            .unwrap();
        assert!(!durable.enable(id).unwrap(), "already enabled");
        assert!(!durable.disable(RuleId(999), "ghost").unwrap());
        assert!(!durable.remove(RuleId(999), "ghost").unwrap());
        assert_eq!(durable.stats().wal_records, 1, "only the add was logged");
    }

    #[test]
    fn record_sink_sees_every_mutation_in_log_order() {
        let storage = Arc::new(MemStorage::new());
        let config = DurableConfig { checkpoint_every: 0, ..DurableConfig::default() };
        let durable = open(&storage, config);
        let seen: Arc<Mutex<Vec<WalRecord>>> = Arc::new(Mutex::new(Vec::new()));
        let sink_seen = Arc::clone(&seen);
        durable.set_record_sink(Some(Arc::new(move |r: &WalRecord| {
            sink_seen.lock().unwrap().push(r.clone());
        })));
        let ids =
            durable.add_rules("rings? -> rings\nrugs? -> area rugs", &RuleMeta::default()).unwrap();
        durable.disable(ids[0], "drift").unwrap();
        assert!(!durable.enable(ids[1]).unwrap(), "no-op must not reach the sink");
        let records = seen.lock().unwrap().clone();
        assert_eq!(records.len(), 3);
        for (i, r) in records.iter().enumerate() {
            assert_eq!(r.revision, i as u64 + 1, "sink sees contiguous revisions");
        }
        assert!(matches!(records[2].op, WalOp::Disable { .. }));
        durable.set_record_sink(None);
        durable.disable(ids[1], "quiet").unwrap();
        assert_eq!(seen.lock().unwrap().len(), 3, "cleared sink sees nothing");
    }

    #[test]
    fn apply_replicated_mirrors_leader_and_survives_reopen() {
        let config = DurableConfig { checkpoint_every: 0, ..DurableConfig::default() };
        let leader_storage = Arc::new(MemStorage::new());
        let leader = open(&leader_storage, config);
        let shipped: Arc<Mutex<Vec<WalRecord>>> = Arc::new(Mutex::new(Vec::new()));
        let sink_shipped = Arc::clone(&shipped);
        leader.set_record_sink(Some(Arc::new(move |r: &WalRecord| {
            sink_shipped.lock().unwrap().push(r.clone());
        })));
        let ids =
            leader.add_rules("rings? -> rings\nrugs? -> area rugs", &RuleMeta::default()).unwrap();
        leader.disable(ids[0], "drift").unwrap();

        let follower_storage = Arc::new(MemStorage::new());
        let follower = open(&follower_storage, config);
        let records = shipped.lock().unwrap().clone();
        for r in &records {
            assert_eq!(follower.apply_replicated(r).unwrap(), ReplayOutcome::Applied);
        }
        assert_eq!(
            catalog_hash(leader.repository()),
            catalog_hash(follower.repository()),
            "follower mirrors leader"
        );
        // Duplicates after a resume are skipped, not re-applied.
        assert_eq!(follower.apply_replicated(&records[1]).unwrap(), ReplayOutcome::Skipped);
        // A gap is corruption — the resync signal.
        let mut gap = records[2].clone();
        gap.revision = 99;
        assert!(matches!(follower.apply_replicated(&gap), Err(StoreError::Corrupt(_))));

        // Replicated records went through the follower's own WAL.
        drop(follower);
        let reopened = open(&follower_storage, config);
        assert_eq!(catalog_hash(leader.repository()), catalog_hash(reopened.repository()));
        assert_eq!(reopened.recovery().replayed, 3);
    }

    #[test]
    fn refused_replicated_records_are_not_logged() {
        let config = DurableConfig { checkpoint_every: 0, ..DurableConfig::default() };
        let storage = Arc::new(MemStorage::new());
        let follower = open(&storage, config);
        let add = |revision, id, source: &str| WalRecord {
            revision,
            op: WalOp::Add(PersistedRule::new(id, source, &RuleMeta::default())),
        };
        let first = add(1, 0, "rings? -> rings");
        assert_eq!(follower.apply_replicated(&first).unwrap(), ReplayOutcome::Applied);
        assert!(parser().parse_rule("not a rule").is_err());

        // Each refused record and its error, then the correct record at the
        // same revision.
        let cases = [
            (
                WalRecord { revision: 2, op: WalOp::Enable { id: 0 } }, // already enabled
                "corrupt",
                WalRecord { revision: 2, op: WalOp::Disable { id: 0, reason: "drift".into() } },
            ),
            (add(3, 7, "rugs? -> area rugs"), "corrupt", add(3, 1, "rugs? -> area rugs")),
            (add(4, 2, "not a rule"), "parse", add(4, 2, "sofas? -> sofas")),
        ];
        for (refused, kind, correct) in &cases {
            let logged = follower.stats().wal_records;
            match follower.apply_replicated(refused) {
                Err(StoreError::Corrupt(_)) => assert_eq!(*kind, "corrupt"),
                Err(StoreError::Parse(_)) => assert_eq!(*kind, "parse"),
                other => panic!("{refused:?}: {other:?}"),
            }
            assert_eq!(follower.stats().wal_records, logged, "{refused:?} was logged");
            let reopened = open(&storage, config);
            assert_eq!(reopened.recovery().discarded_records, 0, "{refused:?}");
            assert_eq!(reopened.recovery().replayed, logged);
            drop(reopened);
            assert_eq!(follower.apply_replicated(correct).unwrap(), ReplayOutcome::Applied);
        }
        assert!(matches!(follower.apply_replicated(&cases[2].0), Ok(ReplayOutcome::Skipped)));
        assert_eq!(follower.stats().wal_records, 4);
    }

    #[test]
    fn install_snapshot_resets_follower_to_leader_image() {
        let config = DurableConfig { checkpoint_every: 0, ..DurableConfig::default() };
        let leader_storage = Arc::new(MemStorage::new());
        let leader = open(&leader_storage, config);
        let ids = leader
            .add_rules("rings? -> rings\nrugs? -> area rugs\nsofas? -> sofas", &RuleMeta::default())
            .unwrap();
        leader.remove(ids[2], "churn").unwrap();

        // Follower with unrelated local state (divergent trial data).
        let follower_storage = Arc::new(MemStorage::new());
        let follower = open(&follower_storage, config);
        follower.add_rules("bands? -> rings", &RuleMeta::default()).unwrap();

        let snap = leader.snapshot_data();
        follower.install_snapshot(&snap).unwrap();
        assert_eq!(catalog_hash(leader.repository()), catalog_hash(follower.repository()));
        assert_eq!(follower.stats().wal_records, 0, "WAL reset under the new checkpoint");

        // The stream resumes from the snapshot revision.
        let shipped: Arc<Mutex<Vec<WalRecord>>> = Arc::new(Mutex::new(Vec::new()));
        let sink_shipped = Arc::clone(&shipped);
        leader.set_record_sink(Some(Arc::new(move |r: &WalRecord| {
            sink_shipped.lock().unwrap().push(r.clone());
        })));
        leader.disable(ids[0], "post-snapshot").unwrap();
        for r in shipped.lock().unwrap().iter() {
            follower.apply_replicated(r).unwrap();
        }
        assert_eq!(catalog_hash(leader.repository()), catalog_hash(follower.repository()));

        // And the whole follower state survives its own crash/reopen.
        drop(follower);
        let reopened = open(&follower_storage, config);
        assert_eq!(catalog_hash(leader.repository()), catalog_hash(reopened.repository()));
    }

    #[test]
    fn install_snapshot_clears_stale_higher_checkpoints() {
        // Follower ahead of a restarted leader: its divergent state sits at a
        // *higher* revision, checkpointed locally. Installing the older
        // leader snapshot must not let that checkpoint win the next recovery
        // scan — even with keep_checkpoints: 1, where housekeeping retains
        // only the newest-by-revision survivor.
        let config =
            DurableConfig { checkpoint_every: 0, keep_checkpoints: 1, ..DurableConfig::default() };
        let leader_storage = Arc::new(MemStorage::new());
        let leader = open(&leader_storage, config);
        leader.add_rules("rings? -> rings\nrugs? -> area rugs", &RuleMeta::default()).unwrap();

        let follower_storage = Arc::new(MemStorage::new());
        let follower = open(&follower_storage, config);
        follower
            .add_rules("rings? -> rings\nrugs? -> area rugs\nsofas? -> sofas", &RuleMeta::default())
            .unwrap();
        follower.checkpoint().unwrap(); // divergent checkpoint at revision 3

        let snap = leader.snapshot_data();
        assert!(snap.revision < follower.repository().revision());
        follower.install_snapshot(&snap).unwrap();
        assert_eq!(catalog_hash(leader.repository()), catalog_hash(follower.repository()));
        drop(follower);

        let reopened = open(&follower_storage, config);
        assert_eq!(
            catalog_hash(leader.repository()),
            catalog_hash(reopened.repository()),
            "reopen must not resurrect the divergent higher-revision checkpoint"
        );
        assert_eq!(reopened.recovery().checkpoint_revision, snap.revision);
    }

    #[test]
    fn recovery_discards_non_applying_wal_suffix() {
        // The residue of an interrupted snapshot install: a checkpoint plus
        // WAL records from a *different* history above its revision. Open
        // must succeed, discard the suffix, and leave disk clean.
        let config = DurableConfig { checkpoint_every: 0, ..DurableConfig::default() };
        let storage = Arc::new(MemStorage::new());
        let durable = open(&storage, config);
        durable.add_rules("rings? -> rings\nrugs? -> area rugs", &RuleMeta::default()).unwrap();
        durable.checkpoint().unwrap(); // checkpoint at revision 2, WAL empty
        let revision = durable.repository().revision();
        drop(durable);

        // Divergent leftovers: a contiguous no-op (Enable of an already
        // enabled rule) and a gap record, appended straight to the WAL.
        let divergent = [
            WalRecord { revision: revision + 1, op: WalOp::Enable { id: 0 } },
            WalRecord { revision: revision + 5, op: WalOp::Disable { id: 1, reason: "x".into() } },
        ];
        for r in &divergent {
            storage.append(WAL_NAME, &r.encode_frame().unwrap()).unwrap();
        }

        let reopened = open(&storage, config);
        let report = reopened.recovery();
        assert_eq!(report.discarded_records, 2, "whole divergent suffix discarded");
        assert_eq!(report.replayed, 0);
        assert_eq!(report.recovered_revision, revision);
        assert!(report.wal_stop_reason.as_deref().unwrap().contains("non-applying"));
        assert_eq!(reopened.repository().len(), 2);
        drop(reopened);

        // The suffix was truncated from disk: the next open is clean.
        let again = open(&storage, config);
        assert_eq!(again.recovery().discarded_records, 0);
        assert!(again.recovery().wal_stop_reason.is_none());
        assert_eq!(again.repository().revision(), revision);
    }

    #[test]
    fn epoch_persists_and_bumps() {
        let storage = Arc::new(MemStorage::new());
        let config = DurableConfig::default();
        let durable = open(&storage, config);
        assert_eq!(durable.load_epoch(), 0, "no epoch file yet");
        assert_eq!(durable.bump_epoch().unwrap(), 1);
        assert_eq!(durable.bump_epoch().unwrap(), 2);
        drop(durable);

        let reopened = open(&storage, config);
        assert_eq!(reopened.load_epoch(), 2, "epoch survives reopen");
        // Corruption degrades to 0 (unknown), never to a stale value.
        assert!(storage.flip_bit(EPOCH_NAME, 5), "corrupt a payload byte");
        assert_eq!(reopened.load_epoch(), 0);
        assert_eq!(reopened.bump_epoch().unwrap(), 1);
    }

    #[test]
    fn failed_append_is_not_applied() {
        use crate::fault::{FaultConfig, FaultyStorage};
        let mem: Arc<dyn Storage> = Arc::new(MemStorage::new());
        let mut fc = FaultConfig::none(0);
        let faulty = Arc::new(FaultyStorage::new(Arc::clone(&mem), fc));
        let config = DurableConfig { checkpoint_every: 0, ..DurableConfig::default() };
        let durable =
            DurableRepository::open(Arc::clone(&faulty) as Arc<dyn Storage>, parser(), config)
                .unwrap();
        let id = durable
            .add_rule(parser().parse_rule("rings? -> rings").unwrap(), RuleMeta::default())
            .unwrap();

        // Flip to always-fail appends via a second wrapper? Simpler: the
        // config is immutable, so rebuild with append_error = 1.0 against
        // the same underlying bytes and a fresh DurableRepository.
        fc.append_error = 1.0;
        let faulty2 = Arc::new(FaultyStorage::new(Arc::clone(&mem), fc));
        faulty2.disarm();
        let durable2 =
            DurableRepository::open(Arc::clone(&faulty2) as Arc<dyn Storage>, parser(), config)
                .unwrap();
        faulty2.arm();
        let before = durable2.repository().revision();
        assert!(durable2.disable(id, "doomed").is_err());
        assert_eq!(durable2.repository().revision(), before, "unacknowledged op not applied");
        assert!(durable2.repository().get(id).unwrap().is_enabled());
    }
}
