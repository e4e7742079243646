//! The replication leader: tails its own durable store (via the store's
//! record sink, so the shipping order *is* the WAL order) and serves one
//! session thread per connected follower.
//!
//! A session starts with the follower's `Hello { last_seq }` and then
//! decides, forever, between three moves:
//!
//! * the shipping ring covers `(last_seq, head]` → stream those records;
//! * it doesn't (cold follower, long partition, or a follower *ahead* of a
//!   restarted leader) → send a full [`CheckpointData`] snapshot from
//!   [`DurableRepository::snapshot_data`] and resume from its revision;
//! * nothing new for a heartbeat interval → send a heartbeat carrying the
//!   head sequence, so followers can measure lag while idle and detect a
//!   dead leader by deadline.
//!
//! Consistency: the sink fires under the store's mutation lock, and
//! `snapshot_data` takes the same lock — a snapshot can never miss a
//! record that the ring also missed. Worst case is overlap (a record both
//! in the snapshot and re-shipped), which follower-side idempotent replay
//! skips by revision.
//!
//! [`CheckpointData`]: rulekit_store::CheckpointData
//! [`DurableRepository::snapshot_data`]: rulekit_store::DurableRepository::snapshot_data

use crate::log::{Coverage, ReplLog};
use crate::now_nanos;
use crate::proto::{self, Frame};
use rulekit_core::{Threads, ThreadsHandle};
use rulekit_net::ReplicationInfo;
use rulekit_obs::{Counter, Gauge, Registry};
use rulekit_store::DurableRepository;
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::Arc;
use std::time::Duration;

/// Leader tuning.
#[derive(Debug, Clone)]
pub struct LeaderConfig {
    /// Bind address for the replication port (0 = ephemeral).
    pub addr: String,
    /// Idle interval between heartbeats; followers treat several missed
    /// intervals as a dead leader.
    pub heartbeat: Duration,
    /// Shipping-ring capacity in records. A follower partitioned for more
    /// records than this catches up by snapshot instead of replay.
    pub ring_capacity: usize,
}

impl Default for LeaderConfig {
    fn default() -> Self {
        LeaderConfig {
            addr: "127.0.0.1:0".to_string(),
            heartbeat: Duration::from_millis(200),
            ring_capacity: 4096,
        }
    }
}

/// How long a session waits for the follower's `Hello`.
const HELLO_TIMEOUT: Duration = Duration::from_secs(5);
/// Per-frame write timeout (bounds how long a dead follower can pin a
/// session thread).
const WRITE_TIMEOUT: Duration = Duration::from_secs(5);

struct LeaderMetrics {
    leader_seq: Gauge,
    followers: Gauge,
    records_shipped: Counter,
    snapshots_served: Counter,
    heartbeats_sent: Counter,
}

impl LeaderMetrics {
    fn register(registry: &Registry) -> LeaderMetrics {
        LeaderMetrics {
            leader_seq: registry.gauge("rulekit_repl_leader_seq"),
            followers: registry.gauge("rulekit_repl_connected_followers"),
            records_shipped: registry.counter("rulekit_repl_records_shipped_total"),
            snapshots_served: registry.counter("rulekit_repl_snapshots_served_total"),
            heartbeats_sent: registry.counter("rulekit_repl_heartbeats_sent_total"),
        }
    }
}

struct LeaderShared {
    store: Arc<DurableRepository>,
    log: Arc<ReplLog>,
    cfg: LeaderConfig,
    /// This leader incarnation (persisted, bumped at every start). Followers
    /// compare it at handshake; a mismatch forces a snapshot because a
    /// restarted leader may hold different history at the same revisions.
    epoch: u64,
    threads: ThreadsHandle,
    metrics: LeaderMetrics,
}

/// A running leader. Dropping it shuts down the replication port and
/// unhooks the store's record sink (the store itself keeps serving).
pub struct ReplLeader {
    /// The acceptor and one session per follower, joined before the fields
    /// below drop.
    threads: Threads,
    shared: Arc<LeaderShared>,
    local_addr: SocketAddr,
}

impl ReplLeader {
    /// Binds the replication port, hooks the store's record sink into the
    /// shipping ring, and starts accepting followers.
    pub fn start(
        store: Arc<DurableRepository>,
        cfg: LeaderConfig,
        registry: &Registry,
    ) -> std::io::Result<ReplLeader> {
        let listener = TcpListener::bind(&cfg.addr)?;
        let epoch = store.bump_epoch().map_err(|e| std::io::Error::other(e.to_string()))?;
        let log = Arc::new(ReplLog::new(cfg.ring_capacity, 0));
        let metrics = LeaderMetrics::register(registry);
        let mut threads = Threads::default();
        let shared = Arc::new(LeaderShared {
            store: store.clone(),
            log: log.clone(),
            cfg,
            epoch,
            threads: threads.handle(),
            metrics,
        });
        {
            let log = log.clone();
            let seq_gauge = shared.metrics.leader_seq.clone();
            store.set_record_sink(Some(Arc::new(move |record| {
                log.publish(record.clone());
                seq_gauge.set(record.revision as i64);
            })));
        }
        // Sink first, *then* fold in the store revision: a mutation racing
        // the hookup either reached the sink (advance_to is then a no-op) or
        // raises the head here so followers see a Gap and snapshot, instead
        // of tailing a stale head. Never read the revision before the sink
        // is live.
        log.advance_to(store.repository().revision());
        shared.metrics.leader_seq.set(log.leader_seq() as i64);
        threads.on_stop(move || {
            store.set_record_sink(None);
            log.close();
        });
        let accepting = shared.clone();
        let local_addr = threads.accept("rulekit-repl-accept", listener, move |stream| {
            let shared = accepting.clone();
            accepting.threads.spawn("rulekit-repl-session", move || session(&shared, stream));
        })?;
        Ok(ReplLeader { shared, local_addr, threads })
    }

    /// The bound replication address (resolves an ephemeral port).
    pub fn local_addr(&self) -> SocketAddr {
        self.local_addr
    }

    /// Highest acknowledged revision (what heartbeats advertise).
    pub fn leader_seq(&self) -> u64 {
        self.shared.log.leader_seq()
    }

    /// This leader incarnation (bumped and persisted at start).
    pub fn epoch(&self) -> u64 {
        self.shared.epoch
    }

    /// Currently connected follower sessions.
    pub fn connected_followers(&self) -> i64 {
        self.shared.metrics.followers.value()
    }

    /// The `/health` surface for this role.
    pub fn info(&self) -> Arc<dyn ReplicationInfo> {
        Arc::new(LeaderInfo { shared: self.shared.clone() })
    }

    /// Stops accepting, unhooks the record sink, wakes idle sessions and
    /// joins every thread. Idempotent.
    pub fn shutdown(&mut self) {
        self.threads.stop();
    }
}

struct LeaderInfo {
    shared: Arc<LeaderShared>,
}

impl ReplicationInfo for LeaderInfo {
    fn role(&self) -> &'static str {
        "leader"
    }

    fn state(&self) -> &'static str {
        "leading"
    }

    fn last_applied(&self) -> u64 {
        self.shared.store.repository().revision()
    }

    fn leader_seq(&self) -> u64 {
        self.shared.log.leader_seq()
    }

    fn epoch(&self) -> u64 {
        self.shared.epoch
    }
}

/// One follower's session: handshake, then stream snapshots / records /
/// heartbeats until the connection dies or the leader shuts down. All I/O
/// errors just end the session — the follower reconnects and resumes.
fn session(shared: &LeaderShared, stream: TcpStream) {
    let _ = stream.set_nodelay(true);
    if stream.set_read_timeout(Some(HELLO_TIMEOUT)).is_err()
        || stream.set_write_timeout(Some(WRITE_TIMEOUT)).is_err()
    {
        return;
    }
    let mut reader = &stream;
    let Ok(Frame::Hello { last_seq, epoch, force_snapshot }) = proto::read_frame(&mut reader)
    else {
        return;
    };
    // A follower fed by a different leader incarnation (or by none — epoch
    // 0) may hold divergent history at revisions the ring would happily
    // skip past; only a snapshot re-grounds it.
    let need_snapshot = force_snapshot || epoch != shared.epoch;
    shared.metrics.followers.inc();
    let _ = run_session(shared, &stream, last_seq, need_snapshot);
    shared.metrics.followers.dec();
}

fn run_session(
    shared: &LeaderShared,
    stream: &TcpStream,
    last_seq: u64,
    force_snapshot: bool,
) -> std::io::Result<()> {
    let mut w = stream;
    let mut cursor = last_seq;
    if force_snapshot {
        cursor = send_snapshot(shared, &mut w)?;
    }
    loop {
        if shared.threads.stopping() {
            return Ok(());
        }
        match shared.log.after(cursor) {
            Coverage::Records(records) => {
                for record in records {
                    let revision = record.revision;
                    proto::write_frame(&mut w, &Frame::Record { ts_nanos: now_nanos(), record })?;
                    shared.metrics.records_shipped.inc();
                    cursor = revision;
                }
            }
            Coverage::Gap => {
                cursor = send_snapshot(shared, &mut w)?;
            }
            Coverage::UpToDate => {
                if !shared.log.wait_newer(cursor, shared.cfg.heartbeat) {
                    if shared.threads.stopping() {
                        return Ok(());
                    }
                    proto::write_frame(
                        &mut w,
                        &Frame::Heartbeat {
                            ts_nanos: now_nanos(),
                            leader_seq: shared.log.leader_seq(),
                        },
                    )?;
                    shared.metrics.heartbeats_sent.inc();
                }
            }
        }
    }
}

/// Ships a consistent full-catalog snapshot; returns its revision (the new
/// cursor).
fn send_snapshot(shared: &LeaderShared, w: &mut impl std::io::Write) -> std::io::Result<u64> {
    let data = shared.store.snapshot_data();
    let revision = data.revision;
    proto::write_frame(w, &Frame::Snapshot { ts_nanos: now_nanos(), epoch: shared.epoch, data })?;
    shared.metrics.snapshots_served.inc();
    Ok(revision)
}
