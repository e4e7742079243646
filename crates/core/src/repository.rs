//! The rule repository: the system of record for tens of thousands of rules.
//!
//! §4 observes that "over time, many developers and analysts will modify,
//! add, and remove rules … it is important that the system remain robust and
//! predictable throughout such activities". The repository therefore stamps
//! every change with a monotonic revision, supports per-rule and per-type
//! enable/disable (the §2.2 "scale down" lever), and hands out immutable
//! snapshots to executors. The change history itself lives in
//! `rulekit-store`'s write-ahead log (and the replication leader's log).
//!
//! Each rule is held as one shared, immutable [`RuleEntry`]: the [`Rule`]
//! plus its [`CompiledRule`], filled in by the first executor build that
//! needs it. A snapshot for serving ([`RuleRepository::versioned_entries`])
//! is `Arc` clones of the enabled entries, in insertion order, taken under
//! one read lock, so every rebuild after an edit reuses every untouched
//! rule's compiled form. A status toggle swaps in a new entry that keeps the
//! old one's compiled form; snapshots holding the old entry are unaffected.
//! `enabled_snapshot` and `full_snapshot` still return owned `Rule`s for
//! callers that edit them.
//!
//! One change signal ([`RuleRepository::changes`]) counts every mutation and
//! every restore. Compiled-rule caches key on it and the serving refresher
//! waits on it; the revision cannot serve either, because a restore may set
//! it back or reinstate one a cache already saw.

use crate::dsl::RuleSpec;
use crate::engine::CompiledRule;
use crate::rule::{Rule, RuleAction, RuleId, RuleMeta, RuleStatus};
use parking_lot::RwLock;
use rulekit_data::TypeId;
use std::collections::HashMap;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, OnceLock};

/// One rule as the repository holds it: the rule and its compiled form,
/// shared by every snapshot that serves the rule.
///
/// The compiled form is computed by the first build that asks for it, so a
/// store that never serves (a follower, WAL replay, a verification reopen)
/// never pays for it. The memo lives here and not on [`Rule`]: a `Rule` is
/// edited by value (the offline optimizer rewrites `condition` in place), and
/// a copy carrying a memo would serve a stale program.
#[derive(Debug, Clone)]
pub struct RuleEntry {
    rule: Rule,
    compiled: OnceLock<CompiledRule>,
}

impl RuleEntry {
    /// An entry whose compiled form is not computed yet.
    pub fn new(rule: Rule) -> RuleEntry {
        RuleEntry { rule, compiled: OnceLock::new() }
    }

    /// The rule.
    pub fn rule(&self) -> &Rule {
        &self.rule
    }

    /// The rule's compiled form, computed on first use.
    pub fn compiled(&self) -> &CompiledRule {
        self.compiled.get_or_init(|| CompiledRule::of(&self.rule.condition))
    }
}

/// Thread-safe rule store.
#[derive(Debug)]
pub struct RuleRepository {
    inner: RwLock<Inner>,
    /// The change signal: counts every mutation and every restore, so it
    /// never moves backwards even when a restore lowers or reinstates the
    /// revision. `changed` wakes [`RuleRepository::wait_for_change`]
    /// blockers (the serving layer's snapshot refresher).
    changes: std::sync::Mutex<u64>,
    changed: std::sync::Condvar,
    /// A pending [`RuleRepository::wake_waiter`]; read and written under
    /// the `changes` lock.
    wake: AtomicBool,
}

impl Default for RuleRepository {
    fn default() -> Self {
        RuleRepository {
            inner: RwLock::new(Inner {
                rules: HashMap::new(),
                order: Vec::new(),
                next_id: 0,
                revision: 0,
            }),
            changes: std::sync::Mutex::new(0),
            changed: std::sync::Condvar::new(),
            wake: AtomicBool::new(false),
        }
    }
}

#[derive(Debug)]
struct Inner {
    /// Every rule by id.
    rules: HashMap<RuleId, Arc<RuleEntry>>,
    /// The same entries in insertion order, so a snapshot is one scan.
    order: Vec<Arc<RuleEntry>>,
    next_id: u64,
    /// Monotonic mutation counter.
    revision: u64,
}

impl RuleRepository {
    /// An empty repository.
    pub fn new() -> Arc<RuleRepository> {
        Arc::new(RuleRepository::default())
    }

    fn lock_changes(&self) -> std::sync::MutexGuard<'_, u64> {
        self.changes.lock().unwrap_or_else(std::sync::PoisonError::into_inner)
    }

    /// Advances the change signal and wakes watchers. Always called *after*
    /// the write lock is released, so a watcher that sees the new count
    /// reads the new state.
    fn notify_change(&self) {
        *self.lock_changes() += 1;
        self.changed.notify_all();
    }

    /// The change signal: how many mutations and restores the repository
    /// has seen. Unlike [`RuleRepository::revision`], which a restore may
    /// set to any value, it never moves backwards and moves on every change,
    /// so a cache of anything derived from the rules is current exactly when
    /// this has not moved since it was read (read it *before* the rules).
    pub fn changes(&self) -> u64 {
        *self.lock_changes()
    }

    /// Blocks until the change signal exceeds `last_seen`, `timeout`
    /// elapses or [`RuleRepository::wake_waiter`] ends the wait; returns the
    /// signal either way. This is the rebuild hook for the serving layer: a
    /// refresher sleeps here instead of polling.
    pub fn wait_for_change(&self, last_seen: u64, timeout: std::time::Duration) -> u64 {
        let deadline = std::time::Instant::now() + timeout;
        let mut changes = self.lock_changes();
        loop {
            if self.wake.swap(false, Ordering::Relaxed) || *changes > last_seen {
                return *changes;
            }
            let now = std::time::Instant::now();
            if now >= deadline {
                return *changes;
            }
            let (guard, _) = self
                .changed
                .wait_timeout(changes, deadline - now)
                .unwrap_or_else(std::sync::PoisonError::into_inner);
            changes = guard;
        }
    }

    /// Ends the current (or else the next) [`RuleRepository::wait_for_change`]
    /// early: a one-shot permit, like `Thread::unpark`.
    pub fn wake_waiter(&self) {
        let changes = self.lock_changes();
        self.wake.store(true, Ordering::Relaxed);
        drop(changes);
        self.changed.notify_all();
    }

    /// Adds a parsed rule with the given metadata template; returns its id.
    pub fn add(&self, spec: RuleSpec, mut meta: RuleMeta) -> RuleId {
        let id = {
            let mut inner = self.inner.write();
            let id = RuleId(inner.next_id);
            inner.next_id += 1;
            meta.added_at = inner.revision;
            inner.revision += 1;
            let rule = Rule {
                id,
                condition: spec.condition,
                action: spec.action,
                meta,
                source: spec.source,
            };
            let entry = Arc::new(RuleEntry::new(rule));
            inner.order.push(entry.clone());
            inner.rules.insert(id, entry);
            id
        };
        self.notify_change();
        id
    }

    /// Adds many rules with the same metadata template.
    pub fn add_all(&self, specs: Vec<RuleSpec>, meta: &RuleMeta) -> Vec<RuleId> {
        specs.into_iter().map(|s| self.add(s, meta.clone())).collect()
    }

    /// Fetches a rule by id.
    pub fn get(&self, id: RuleId) -> Option<Rule> {
        self.inner.read().rules.get(&id).map(|e| e.rule.clone())
    }

    /// A rule's status, read without copying the rule.
    pub fn status(&self, id: RuleId) -> Option<RuleStatus> {
        self.inner.read().rules.get(&id).map(|e| e.rule.meta.status)
    }

    /// Sets one rule's status, advancing the revision when it changed.
    /// Entries are immutable once shared, so the rule gets a new entry that
    /// keeps the old one's compiled form: the condition did not change.
    fn set_status(&self, id: RuleId, status: RuleStatus) -> bool {
        {
            let mut inner = self.inner.write();
            let Some(old) = inner.rules.get(&id) else { return false };
            if old.rule.meta.status == status {
                return false;
            }
            let mut entry = RuleEntry::clone(old);
            entry.rule.meta.status = status;
            let entry = Arc::new(entry);
            let old = inner.rules.insert(id, entry.clone()).expect("rule present");
            let slot =
                inner.order.iter_mut().find(|e| Arc::ptr_eq(e, &old)).expect("rule in order");
            *slot = entry;
            inner.revision += 1;
        }
        self.notify_change();
        true
    }

    /// Disables one rule ("if that rule misclassifies widely, we can simply
    /// disable it, with minimal impacts on the rest of the system", §3.2).
    /// The reason is not kept here: `rulekit-store` logs it in the WAL
    /// record of a durable disable.
    pub fn disable(&self, id: RuleId, _reason: impl Into<String>) -> bool {
        self.set_status(id, RuleStatus::Disabled)
    }

    /// Re-enables one rule.
    pub fn enable(&self, id: RuleId) -> bool {
        self.set_status(id, RuleStatus::Enabled)
    }

    /// Permanently removes a rule (maintenance: subsumed/imprecise rules).
    /// As with [`RuleRepository::disable`], the reason is the WAL's to keep.
    pub fn remove(&self, id: RuleId, _reason: impl Into<String>) -> bool {
        let changed = {
            let mut inner = self.inner.write();
            let Some(old) = inner.rules.remove(&id) else { return false };
            inner.order.retain(|e| !Arc::ptr_eq(e, &old));
            inner.revision += 1;
            true
        };
        self.notify_change();
        changed
    }

    /// Disables every rule that assigns or forbids `ty` — the per-type
    /// scale-down of §2.2. Returns the affected rule ids.
    pub fn disable_type(&self, ty: TypeId, _reason: impl Into<String>) -> Vec<RuleId> {
        let ids: Vec<RuleId> = {
            let inner = self.inner.read();
            inner
                .order
                .iter()
                .filter(|e| e.rule.is_enabled() && e.rule.target_type() == Some(ty))
                .map(|e| e.rule.id)
                .collect()
        };
        for &id in &ids {
            self.set_status(id, RuleStatus::Disabled);
        }
        ids
    }

    /// Re-enables every disabled rule targeting `ty` (restore after repair).
    pub fn enable_type(&self, ty: TypeId) -> Vec<RuleId> {
        let ids: Vec<RuleId> = {
            let inner = self.inner.read();
            inner
                .order
                .iter()
                .filter(|e| !e.rule.is_enabled() && e.rule.target_type() == Some(ty))
                .map(|e| e.rule.id)
                .collect()
        };
        for &id in &ids {
            self.enable(id);
        }
        ids
    }

    /// Owned copies of all enabled rules, in insertion order.
    pub fn enabled_snapshot(&self) -> Vec<Rule> {
        self.versioned_snapshot().1
    }

    /// Atomically captures `(revision, enabled entries)` under a single read
    /// lock, so the entries are exactly the state at that revision — the
    /// consistency hook for snapshot caches and the serving layer's
    /// hot-swap rebuilds (a separate `revision()` + snapshot pair could
    /// interleave with a writer). The entries are `Arc` clones: no rule is
    /// copied.
    pub fn versioned_entries(&self) -> (u64, Vec<Arc<RuleEntry>>) {
        let inner = self.inner.read();
        let entries = inner.order.iter().filter(|e| e.rule.is_enabled()).cloned().collect();
        (inner.revision, entries)
    }

    /// [`RuleRepository::versioned_entries`] as owned rule copies.
    pub fn versioned_snapshot(&self) -> (u64, Vec<Rule>) {
        let (revision, entries) = self.versioned_entries();
        (revision, entries.iter().map(|e| e.rule.clone()).collect())
    }

    /// Every rule regardless of status, in insertion order, as shared
    /// entries: no rule is copied.
    pub fn entries(&self) -> Vec<Arc<RuleEntry>> {
        self.inner.read().order.clone()
    }

    /// Owned copies of all rules regardless of status.
    pub fn full_snapshot(&self) -> Vec<Rule> {
        let inner = self.inner.read();
        inner.order.iter().map(|e| e.rule.clone()).collect()
    }

    /// Enabled rules targeting `ty`.
    pub fn rules_for_type(&self, ty: TypeId) -> Vec<Rule> {
        self.enabled_snapshot().into_iter().filter(|r| r.target_type() == Some(ty)).collect()
    }

    /// Counts: `(total, enabled, whitelist, blacklist)`.
    pub fn stats(&self) -> RepositoryStats {
        let inner = self.inner.read();
        let mut stats = RepositoryStats { total: inner.rules.len(), ..Default::default() };
        for rule in inner.rules.values().map(|e| &e.rule) {
            if rule.is_enabled() {
                stats.enabled += 1;
            }
            match rule.action {
                RuleAction::Assign(_) => stats.whitelist += 1,
                RuleAction::Forbid(_) => stats.blacklist += 1,
                RuleAction::Restrict(_) => stats.restriction += 1,
                RuleAction::Infer(_) => stats.infer += 1,
            }
        }
        stats
    }

    /// Renders the repository back to DSL text, one rule per line, with
    /// disabled rules commented out — the format analysts edit and check
    /// into version control.
    pub fn export_dsl(&self) -> String {
        let inner = self.inner.read();
        let mut out = String::new();
        for rule in inner.order.iter().map(|e| &e.rule) {
            if rule.is_enabled() {
                out.push_str(&rule.source);
            } else {
                out.push_str("# disabled: ");
                out.push_str(&rule.source);
            }
            out.push('\n');
        }
        out
    }

    /// The revision: increments on every mutation and is what the durable
    /// log sequences by. A [`RuleRepository::restore`] sets it to the
    /// recovered value, so caches key on [`RuleRepository::changes`].
    pub fn revision(&self) -> u64 {
        self.inner.read().revision
    }

    /// The id the next [`RuleRepository::add`] will assign. Used by the
    /// durability layer to stamp WAL records before applying a mutation;
    /// only meaningful while writers are externally serialized.
    pub fn next_rule_id(&self) -> u64 {
        self.inner.read().next_id
    }

    /// Replaces the repository's entire contents with recovered durable
    /// state: `rules` (in order, with their original ids and metadata), the
    /// id counter, and the revision counter as of the recovered state.
    /// Watchers blocked in [`RuleRepository::wait_for_change`] are woken.
    pub fn restore(&self, rules: Vec<Rule>, next_id: u64, revision: u64) {
        {
            let mut inner = self.inner.write();
            inner.order = rules.into_iter().map(|r| Arc::new(RuleEntry::new(r))).collect();
            inner.rules = inner.order.iter().map(|e| (e.rule.id, e.clone())).collect();
            inner.next_id = next_id;
            inner.revision = revision;
        }
        self.notify_change();
    }

    /// Number of rules (any status).
    pub fn len(&self) -> usize {
        self.inner.read().rules.len()
    }

    /// Whether the repository is empty.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

/// Aggregate counts for a repository (the §3.3 inventory numbers).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct RepositoryStats {
    /// All rules, any status.
    pub total: usize,
    /// Enabled rules.
    pub enabled: usize,
    /// Whitelist (`Assign`) rules.
    pub whitelist: usize,
    /// Blacklist (`Forbid`) rules.
    pub blacklist: usize,
    /// Restriction rules.
    pub restriction: usize,
    /// Fact-inference (`Infer`) rules.
    pub infer: usize,
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dsl::RuleParser;
    use rulekit_data::Taxonomy;

    fn repo_with(lines: &[&str]) -> (Arc<RuleRepository>, Vec<RuleId>, Arc<Taxonomy>) {
        let tax = Taxonomy::builtin();
        let parser = RuleParser::new(tax.clone());
        let repo = RuleRepository::new();
        let ids = lines
            .iter()
            .map(|l| repo.add(parser.parse_rule(l).unwrap(), RuleMeta::default()))
            .collect();
        (repo, ids, tax)
    }

    #[test]
    fn add_assigns_sequential_ids() {
        let (_, ids, _) = repo_with(&["rings? -> rings", "rugs? -> area rugs"]);
        assert_eq!(ids, vec![RuleId(0), RuleId(1)]);
    }

    #[test]
    fn disable_enable_round_trip() {
        let (repo, ids, _) = repo_with(&["rings? -> rings"]);
        assert!(repo.disable(ids[0], "test"));
        assert!(!repo.get(ids[0]).unwrap().is_enabled());
        assert!(!repo.disable(ids[0], "again"), "double disable is a no-op");
        assert!(repo.enable(ids[0]));
        assert!(repo.get(ids[0]).unwrap().is_enabled());
        for _ in 0..5 {
            repo.disable(ids[0], "churn");
            repo.enable(ids[0]);
        }
        assert_eq!(repo.revision(), 13, "1 add + 12 toggles; the no-op disable is not one");
    }

    #[test]
    fn status_and_entries_follow_toggles_and_removal() {
        let (repo, ids, _) = repo_with(&["rings? -> rings", "rugs? -> area rugs"]);
        assert_eq!(repo.status(ids[0]), Some(RuleStatus::Enabled));
        assert!(repo.disable(ids[0], "test"));
        assert_eq!(repo.status(ids[0]), Some(RuleStatus::Disabled));
        let entries = repo.entries();
        assert_eq!(entries.iter().map(|e| e.rule().id).collect::<Vec<_>>(), ids);
        assert!(!entries[0].rule().is_enabled(), "a disabled rule is still listed");
        assert!(repo.remove(ids[0], "subsumed"));
        assert_eq!(repo.status(ids[0]), None);
        assert_eq!(repo.status(RuleId(99)), None);
        assert_eq!(repo.entries().len(), 1);
    }

    #[test]
    fn remove_deletes_permanently() {
        let (repo, ids, _) = repo_with(&["rings? -> rings"]);
        assert!(repo.remove(ids[0], "subsumed"));
        assert!(repo.get(ids[0]).is_none());
        assert!(!repo.remove(ids[0], "again"));
        assert!(repo.is_empty());
    }

    #[test]
    fn disable_type_scales_down() {
        let (repo, _, tax) =
            repo_with(&["rings? -> rings", "wedding bands? -> rings", "rugs? -> area rugs"]);
        let rings = tax.id_of("rings").unwrap();
        let affected = repo.disable_type(rings, "precision alarm");
        assert_eq!(affected.len(), 2);
        assert_eq!(repo.enabled_snapshot().len(), 1);
        let restored = repo.enable_type(rings);
        assert_eq!(restored.len(), 2);
        assert_eq!(repo.enabled_snapshot().len(), 3);
    }

    #[test]
    fn snapshots_are_stable_against_later_writes() {
        let (repo, ids, _) = repo_with(&["rings? -> rings", "rugs? -> area rugs"]);
        let snap = repo.enabled_snapshot();
        repo.disable(ids[0], "later");
        assert_eq!(snap.len(), 2, "snapshot unaffected by later disable");
        assert_eq!(repo.enabled_snapshot().len(), 1);
    }

    #[test]
    fn restore_reinstates_ids_revision_and_contents() {
        let (repo, ids, _) = repo_with(&["rings? -> rings", "rugs? -> area rugs"]);
        repo.disable(ids[1], "drift");
        let rules = repo.full_snapshot();
        let (next_id, revision) = (repo.next_rule_id(), repo.revision());

        let fresh = RuleRepository::new();
        fresh.restore(rules, next_id, revision);
        assert_eq!(fresh.revision(), revision);
        assert_eq!((repo.changes(), fresh.changes()), (3, 1));
        assert_eq!(fresh.next_rule_id(), next_id);
        assert_eq!(fresh.len(), 2);
        assert!(!fresh.get(ids[1]).unwrap().is_enabled());
        // Ids keep advancing from the restored counter.
        let parser = RuleParser::new(Taxonomy::builtin());
        let new_id = fresh.add(parser.parse_rule("sofas? -> sofas").unwrap(), RuleMeta::default());
        assert_eq!(new_id, RuleId(next_id));
        assert_eq!(fresh.revision(), revision + 1);
    }

    #[test]
    fn stats_count_rule_kinds() {
        let (repo, _, _) = repo_with(&[
            "rings? -> rings",
            "rugs? -> area rugs",
            "laptop bags? -> NOT laptop computers",
            "value(Brand Name = Apple) -> one of laptop computers; smartphones",
        ]);
        let stats = repo.stats();
        assert_eq!(stats.total, 4);
        assert_eq!(stats.enabled, 4);
        assert_eq!(stats.whitelist, 2);
        assert_eq!(stats.blacklist, 1);
        assert_eq!(stats.restriction, 1);
    }

    #[test]
    fn rules_for_type_filters() {
        let (repo, _, tax) = repo_with(&["rings? -> rings", "rugs? -> area rugs"]);
        let rings = tax.id_of("rings").unwrap();
        let rules = repo.rules_for_type(rings);
        assert_eq!(rules.len(), 1);
        assert_eq!(rules[0].target_type(), Some(rings));
    }

    #[test]
    fn export_dsl_round_trips() {
        let tax = Taxonomy::builtin();
        let parser = RuleParser::new(tax.clone());
        let (repo, ids, _) = repo_with(&[
            "rings? -> rings",
            "rugs? -> area rugs",
            "laptop (bag|case|sleeve)s? -> NOT laptop computers",
        ]);
        repo.disable(ids[1], "drift");
        let text = repo.export_dsl();
        assert!(text.contains("rings? -> rings\n"));
        assert!(text.contains("# disabled: rugs? -> area rugs"));
        // Re-importing yields the enabled subset, behaviourally identical.
        let reimported = RuleRepository::new();
        reimported.add_all(parser.parse_rules(&text).unwrap(), &RuleMeta::default());
        assert_eq!(reimported.len(), 2);
        let _ = tax;
    }

    #[test]
    fn versioned_snapshot_is_consistent() {
        let (repo, ids, _) = repo_with(&["rings? -> rings", "rugs? -> area rugs"]);
        let (rev, rules) = repo.versioned_snapshot();
        assert_eq!(rev, repo.revision());
        assert_eq!(rules.len(), 2);
        repo.disable(ids[0], "drift");
        let (rev2, rules2) = repo.versioned_snapshot();
        assert_eq!(rev2, rev + 1);
        assert_eq!(rules2.len(), 1);
    }

    #[test]
    fn a_toggle_swaps_the_entry_and_keeps_its_compiled_form() {
        let (repo, ids, _) = repo_with(&["rings? -> rings", "rugs? -> area rugs"]);
        let (_, held) = repo.versioned_entries();
        let program = held[0].compiled().program.clone();
        repo.disable(ids[0], "drift");
        assert!(held[0].rule().is_enabled(), "an entry a snapshot holds never changes");
        repo.enable(ids[0]);
        let (_, now) = repo.versioned_entries();
        assert!(!Arc::ptr_eq(&held[0], &now[0]));
        assert!(Arc::ptr_eq(&program, &now[0].compiled().program), "toggle recompiled the rule");
        assert!(Arc::ptr_eq(&held[1], &now[1]), "the untouched rule's entry is shared");
    }

    #[test]
    fn wait_for_change_wakes_on_mutation() {
        use std::time::Duration;
        let (repo, ids, _) = repo_with(&["rings? -> rings"]);
        let before = repo.changes();
        // Timeout path: nothing changes.
        assert_eq!(repo.wait_for_change(before, Duration::from_millis(20)), before);
        // Wake path: a writer thread disables a rule while we block.
        std::thread::scope(|scope| {
            let repo2 = repo.clone();
            scope.spawn(move || {
                std::thread::sleep(Duration::from_millis(30));
                repo2.disable(ids[0], "churn");
            });
            let seen = repo.wait_for_change(before, Duration::from_secs(5));
            assert!(seen > before, "watcher saw change {seen} <= {before}");
        });
    }

    #[test]
    fn a_wake_ends_the_current_or_the_next_wait_once() {
        use std::time::{Duration, Instant};
        let (repo, _, _) = repo_with(&["rings? -> rings"]);
        let before = repo.changes();
        // Before the wait: the next wait returns at once, and only that one.
        repo.wake_waiter();
        let start = Instant::now();
        assert_eq!(repo.wait_for_change(before, Duration::from_secs(30)), before);
        assert!(start.elapsed() < Duration::from_secs(5), "the pending wake was lost");
        assert_eq!(repo.wait_for_change(before, Duration::from_millis(20)), before);
        assert!(start.elapsed() >= Duration::from_millis(20), "the wake ended two waits");
        // During the wait: a blocked waiter returns.
        std::thread::scope(|scope| {
            let waiter = scope.spawn(|| repo.wait_for_change(before, Duration::from_secs(30)));
            std::thread::sleep(Duration::from_millis(20));
            repo.wake_waiter();
            assert_eq!(waiter.join().unwrap(), before);
        });
    }

    #[test]
    fn every_restore_moves_the_change_signal_forward() {
        use std::time::Duration;
        let (repo, _, _) = repo_with(&["rings? -> rings", "rugs? -> area rugs"]);
        let (rules, next_id) = (repo.full_snapshot(), repo.next_rule_id());
        // The same revision, then a lower one: the revision stays or falls,
        // the change signal moves on, and a watcher that saw it blocks.
        for revision in [repo.revision(), 1] {
            let before = repo.changes();
            repo.restore(rules.clone(), next_id, revision);
            assert_eq!(repo.revision(), revision);
            assert_eq!(repo.changes(), before + 1);
            assert_eq!(repo.wait_for_change(before, Duration::ZERO), before + 1);
            let start = std::time::Instant::now();
            repo.wait_for_change(before + 1, Duration::from_millis(20));
            assert!(start.elapsed() >= Duration::from_millis(20), "returned before the timeout");
        }
    }

    #[test]
    fn concurrent_adds_are_safe() {
        let tax = Taxonomy::builtin();
        let repo = RuleRepository::new();
        std::thread::scope(|scope| {
            for _ in 0..4 {
                let repo = repo.clone();
                let tax = tax.clone();
                scope.spawn(move || {
                    let parser = RuleParser::new(tax);
                    for _ in 0..50 {
                        let spec = parser.parse_rule("rings? -> rings").unwrap();
                        repo.add(spec, RuleMeta::default());
                    }
                });
            }
        });
        assert_eq!(repo.len(), 200);
        // Ids are unique.
        let mut ids: Vec<u64> = repo.full_snapshot().iter().map(|r| r.id.0).collect();
        ids.sort_unstable();
        ids.dedup();
        assert_eq!(ids.len(), 200);
    }
}
