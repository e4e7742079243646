//! The replication follower: a background thread that keeps one session to
//! the leader alive, replays shipped records into its *own*
//! [`DurableRepository`] (log-then-apply, so replicated edits survive the
//! follower's own crashes), and installs full snapshots when it is too far
//! behind to tail.
//!
//! ## State machine
//!
//! ```text
//!          connect + Hello        caught up (heard leader, no lag)
//! Syncing ────────────────▶ ... ─────────────────────────▶ Tailing
//!    ▲                                                        │
//!    │ reconnect + handshake        deadline missed / EOF /   │
//!    └──────────────────── Stale ◀── torn frame / gap ────────┘
//! ```
//!
//! * **Syncing** — a session is being established or the follower is
//!   behind the last sequence the leader advertised;
//! * **Tailing** — live at the head of the log (the healthy steady state);
//! * **Stale** — no live session: the heartbeat deadline passed, the
//!   connection dropped, or the stream corrupted. Classification keeps
//!   serving the last applied snapshot — staleness is explicit, visible in
//!   `/health`, and bounded by reconnect backoff.
//!
//! ## Failure handling
//!
//! Reconnects use deterministic jittered exponential backoff. A record
//! [`DurableRepository::apply_replicated`] refuses — a revision *gap*, a
//! no-op, an `Add` with the wrong id — is never logged; it means this
//! follower's state diverged from what the leader ships (e.g. the leader
//! lost an unsynced tail in a crash), so the follower reconnects with
//! `force_snapshot` and rebuilds from the leader's image — it never
//! guesses. Duplicate records after a resume are skipped by revision, so
//! replay is idempotent across any partition pattern.

use crate::now_nanos;
use crate::proto::{self, Frame};
use rulekit_core::{Threads, ThreadsHandle};
use rulekit_net::backoff::Backoff;
use rulekit_net::ReplicationInfo;
use rulekit_obs::{Counter, Gauge, Histogram, Registry};
use rulekit_store::{DurableRepository, ReplayOutcome, StoreError};
use std::net::{SocketAddr, TcpStream};
use std::sync::atomic::{AtomicU64, AtomicU8, Ordering};
use std::sync::Arc;
use std::time::Duration;

/// Follower tuning.
#[derive(Debug, Clone)]
pub struct FollowerConfig {
    /// The leader's replication address.
    pub leader_addr: SocketAddr,
    /// No frame (record *or* heartbeat) within this window ⇒ the leader is
    /// presumed dead: state drops to Stale and the session reconnects.
    /// Must comfortably exceed the leader's heartbeat interval.
    pub heartbeat_deadline: Duration,
    /// First rung of the reconnect backoff.
    pub backoff_base: Duration,
    /// Reconnect backoff ceiling.
    pub backoff_cap: Duration,
    /// Jitter seed (deterministic reconnect schedules in tests).
    pub seed: u64,
}

impl FollowerConfig {
    /// Defaults for everything but the leader address.
    pub fn new(leader_addr: SocketAddr) -> FollowerConfig {
        FollowerConfig {
            leader_addr,
            heartbeat_deadline: Duration::from_secs(1),
            backoff_base: Duration::from_millis(50),
            backoff_cap: Duration::from_secs(2),
            seed: 0xf011_0e5e,
        }
    }
}

/// TCP connect timeout per attempt, also the session's write timeout.
const CONNECT_TIMEOUT: Duration = Duration::from_secs(1);

/// The follower's position in the state machine.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FollowerState {
    /// Establishing a session or replaying toward the leader's head.
    Syncing,
    /// Live at the head of the leader's log.
    Tailing,
    /// No live session; serving the last applied state.
    Stale,
}

impl FollowerState {
    /// Lower-case name (`/health` and metrics).
    pub fn as_str(self) -> &'static str {
        match self {
            FollowerState::Syncing => "syncing",
            FollowerState::Tailing => "tailing",
            FollowerState::Stale => "stale",
        }
    }

    fn code(self) -> u8 {
        match self {
            FollowerState::Syncing => 0,
            FollowerState::Tailing => 1,
            FollowerState::Stale => 2,
        }
    }

    fn from_code(code: u8) -> FollowerState {
        match code {
            0 => FollowerState::Syncing,
            1 => FollowerState::Tailing,
            _ => FollowerState::Stale,
        }
    }
}

struct FollowerMetrics {
    last_applied: Gauge,
    leader_seq_seen: Gauge,
    seq_delta: Gauge,
    state: Gauge,
    records_applied: Counter,
    records_skipped: Counter,
    snapshots_installed: Counter,
    reconnects: Counter,
    divergences: Counter,
    edit_visibility_lag: Histogram,
}

impl FollowerMetrics {
    fn register(registry: &Registry) -> FollowerMetrics {
        FollowerMetrics {
            last_applied: registry.gauge("rulekit_repl_last_applied_seq"),
            leader_seq_seen: registry.gauge("rulekit_repl_leader_seq_seen"),
            seq_delta: registry.gauge("rulekit_repl_seq_delta"),
            state: registry.gauge("rulekit_repl_follower_state"),
            records_applied: registry.counter("rulekit_repl_records_applied_total"),
            records_skipped: registry.counter("rulekit_repl_records_skipped_total"),
            snapshots_installed: registry.counter("rulekit_repl_snapshots_installed_total"),
            reconnects: registry.counter("rulekit_repl_reconnects_total"),
            divergences: registry.counter("rulekit_repl_divergences_total"),
            edit_visibility_lag: registry.histogram("rulekit_repl_edit_visibility_lag_nanos"),
        }
    }
}

struct FollowerShared {
    store: Arc<DurableRepository>,
    cfg: FollowerConfig,
    state: AtomicU8,
    last_applied: AtomicU64,
    leader_seq_seen: AtomicU64,
    /// Leader incarnation this follower's state was last grounded under
    /// (persisted; 0 = unknown). Sent in Hello so a restarted leader — same
    /// revisions, different history — forces a snapshot instead of silently
    /// letting the follower tail a fork.
    epoch: AtomicU64,
    threads: ThreadsHandle,
    metrics: FollowerMetrics,
}

impl FollowerShared {
    fn set_state(&self, s: FollowerState) {
        self.state.store(s.code(), Ordering::Release);
        self.metrics.state.set(s.code() as i64);
    }

    fn state(&self) -> FollowerState {
        FollowerState::from_code(self.state.load(Ordering::Acquire))
    }

    /// Refreshes position gauges and resolves Syncing/Tailing from lag.
    /// `heard` is whether this session has received any post-handshake
    /// frame yet — without one the leader's head is unknown and the
    /// follower cannot claim to be tailing.
    fn note_progress(&self, heard: bool) {
        let applied = self.store.repository().revision();
        self.last_applied.store(applied, Ordering::Release);
        let seen = self.leader_seq_seen.load(Ordering::Acquire).max(applied);
        self.leader_seq_seen.store(seen, Ordering::Release);
        self.metrics.last_applied.set(applied as i64);
        self.metrics.leader_seq_seen.set(seen as i64);
        self.metrics.seq_delta.set(seen.saturating_sub(applied) as i64);
        if self.state() != FollowerState::Stale || heard {
            // A Stale follower only leaves Stale through a live session
            // (heard = true); a live one flips between Syncing/Tailing
            // with lag.
            if heard && seen <= applied {
                self.set_state(FollowerState::Tailing);
            } else if !heard || seen > applied {
                self.set_state(FollowerState::Syncing);
            }
        }
    }
}

/// A running follower. Dropping it stops the replication thread; the
/// store keeps serving whatever was last applied.
pub struct ReplFollower {
    /// The replication loop, joined before `shared` drops.
    threads: Threads,
    shared: Arc<FollowerShared>,
}

impl ReplFollower {
    /// Starts the replication thread (connecting happens there — a dead
    /// leader at start just means backoff-retry, not a start failure).
    pub fn start(
        store: Arc<DurableRepository>,
        cfg: FollowerConfig,
        registry: &Registry,
    ) -> ReplFollower {
        let metrics = FollowerMetrics::register(registry);
        let threads = Threads::default();
        let shared = Arc::new(FollowerShared {
            last_applied: AtomicU64::new(store.repository().revision()),
            leader_seq_seen: AtomicU64::new(0),
            epoch: AtomicU64::new(store.load_epoch()),
            store,
            cfg,
            state: AtomicU8::new(FollowerState::Syncing.code()),
            threads: threads.handle(),
            metrics,
        });
        shared.note_progress(false);
        let looping = shared.clone();
        shared.threads.spawn("rulekit-repl-follower", move || follower_loop(&looping));
        ReplFollower { shared, threads }
    }

    /// Current state.
    pub fn state(&self) -> FollowerState {
        self.shared.state()
    }

    /// Highest locally applied revision.
    pub fn last_applied(&self) -> u64 {
        self.shared.last_applied.load(Ordering::Acquire)
    }

    /// Highest leader revision heard (0 before first contact).
    pub fn leader_seq_seen(&self) -> u64 {
        self.shared.leader_seq_seen.load(Ordering::Acquire)
    }

    /// The `/health` surface for this role.
    pub fn info(&self) -> Arc<dyn ReplicationInfo> {
        Arc::new(FollowerInfo { shared: self.shared.clone() })
    }

    /// Blocks until the follower reaches `state` or the timeout passes.
    pub fn wait_for_state(&self, state: FollowerState, timeout: Duration) -> bool {
        let deadline = std::time::Instant::now() + timeout;
        while std::time::Instant::now() < deadline {
            if self.state() == state {
                return true;
            }
            std::thread::sleep(Duration::from_millis(5));
        }
        self.state() == state
    }

    /// Stops the replication thread. Idempotent.
    pub fn shutdown(&mut self) {
        self.threads.stop();
    }
}

struct FollowerInfo {
    shared: Arc<FollowerShared>,
}

impl ReplicationInfo for FollowerInfo {
    fn role(&self) -> &'static str {
        "follower"
    }

    fn state(&self) -> &'static str {
        self.shared.state().as_str()
    }

    fn last_applied(&self) -> u64 {
        self.shared.last_applied.load(Ordering::Acquire)
    }

    fn leader_seq(&self) -> u64 {
        self.shared.leader_seq_seen.load(Ordering::Acquire)
    }

    fn epoch(&self) -> u64 {
        self.shared.epoch.load(Ordering::Acquire)
    }
}

/// How a session ended (drives the next Hello).
enum SessionEnd {
    /// Transport-level end: reconnect and resume from the local revision.
    Disconnect,
    /// Divergence: reconnect demanding a full snapshot.
    NeedSnapshot,
    /// Leader told us nothing yet and we are shutting down.
    Shutdown,
}

fn follower_loop(shared: &Arc<FollowerShared>) {
    let mut backoff =
        Backoff::new(shared.cfg.backoff_base, shared.cfg.backoff_cap, shared.cfg.seed);
    let mut force_snapshot = false;
    let mut ever_connected = false;
    while !shared.threads.stopping() {
        let stream = match TcpStream::connect_timeout(&shared.cfg.leader_addr, CONNECT_TIMEOUT) {
            Ok(s) => s,
            Err(_) => {
                sleep_interruptible(shared, backoff.next_delay());
                continue;
            }
        };
        if ever_connected {
            shared.metrics.reconnects.inc();
        }
        ever_connected = true;
        match run_session(shared, stream, force_snapshot, &mut backoff) {
            SessionEnd::Shutdown => return,
            SessionEnd::Disconnect => {
                force_snapshot = false;
                shared.set_state(FollowerState::Stale);
            }
            SessionEnd::NeedSnapshot => {
                force_snapshot = true;
                shared.set_state(FollowerState::Stale);
            }
        }
        sleep_interruptible(shared, backoff.next_delay());
    }
}

/// Backoff sleep that wakes promptly on shutdown.
fn sleep_interruptible(shared: &FollowerShared, total: Duration) {
    let deadline = std::time::Instant::now() + total;
    while std::time::Instant::now() < deadline {
        if shared.threads.stopping() {
            return;
        }
        std::thread::sleep(Duration::from_millis(10).min(total));
    }
}

fn run_session(
    shared: &Arc<FollowerShared>,
    stream: TcpStream,
    force_snapshot: bool,
    backoff: &mut Backoff,
) -> SessionEnd {
    let _ = stream.set_nodelay(true);
    if stream.set_read_timeout(Some(shared.cfg.heartbeat_deadline)).is_err()
        || stream.set_write_timeout(Some(CONNECT_TIMEOUT)).is_err()
    {
        return SessionEnd::Disconnect;
    }
    let mut w = &stream;
    let hello = Frame::Hello {
        last_seq: shared.store.repository().revision(),
        epoch: shared.epoch.load(Ordering::Acquire),
        force_snapshot,
    };
    if proto::write_frame(&mut w, &hello).is_err() {
        return SessionEnd::Disconnect;
    }
    shared.note_progress(false);
    let mut reader = &stream;
    let mut heard = false;
    loop {
        if shared.threads.stopping() {
            return SessionEnd::Shutdown;
        }
        let frame = match proto::read_frame(&mut reader) {
            Ok(f) => f,
            // Timeout (missed heartbeat deadline), EOF, or a torn/corrupt
            // frame: drop the session. Resume is idempotent, so a record
            // half-received now is simply re-shipped after reconnect.
            Err(_) => return SessionEnd::Disconnect,
        };
        if !heard {
            // Live session established: the reconnect schedule restarts.
            backoff.reset();
            heard = true;
        }
        match frame {
            Frame::Snapshot { ts_nanos, epoch, data } => {
                let revision = data.revision;
                if shared.store.install_snapshot(&data).is_err() {
                    // Local storage trouble; retry the whole catch-up.
                    return SessionEnd::NeedSnapshot;
                }
                // Adopt the leader's epoch only *after* local state matches
                // its image. Persistence is best-effort: a lost epoch reads
                // back as 0, which merely costs one extra snapshot at the
                // next handshake — never a fork.
                let _ = shared.store.save_epoch(epoch);
                shared.epoch.store(epoch, Ordering::Release);
                shared.metrics.snapshots_installed.inc();
                record_lag(shared, ts_nanos);
                // A snapshot *replaces* our view of the leader's head — a
                // restarted leader's head may be lower than anything we
                // heard before, and keeping the old maximum would pin the
                // follower in Syncing forever.
                shared.leader_seq_seen.store(revision, Ordering::Release);
            }
            Frame::Record { ts_nanos, record } => {
                let revision = record.revision;
                match shared.store.apply_replicated(&record) {
                    Ok(ReplayOutcome::Applied) => {
                        shared.metrics.records_applied.inc();
                        record_lag(shared, ts_nanos);
                    }
                    Ok(ReplayOutcome::Skipped) => {
                        shared.metrics.records_skipped.inc();
                    }
                    Err(StoreError::Corrupt(_)) | Err(StoreError::Parse(_)) => {
                        // Gap or divergence: rebuild from the leader's image.
                        shared.metrics.divergences.inc();
                        return SessionEnd::NeedSnapshot;
                    }
                    Err(StoreError::Io(_)) => {
                        // Local WAL append failed (the record was NOT
                        // applied). Reconnect; the leader re-ships from our
                        // acknowledged revision.
                        return SessionEnd::Disconnect;
                    }
                }
                bump_seen(shared, revision);
            }
            Frame::Heartbeat { ts_nanos: _, leader_seq } => {
                bump_seen(shared, leader_seq);
            }
            Frame::Hello { .. } => return SessionEnd::Disconnect, // protocol violation
        }
        shared.note_progress(true);
    }
}

fn bump_seen(shared: &FollowerShared, seq: u64) {
    shared.leader_seq_seen.fetch_max(seq, Ordering::AcqRel);
}

fn record_lag(shared: &FollowerShared, sent_ts_nanos: u64) {
    let lag = now_nanos().saturating_sub(sent_ts_nanos);
    shared.metrics.edit_visibility_lag.record(lag);
}
