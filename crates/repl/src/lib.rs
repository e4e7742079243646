//! rulekit-repl — leader/follower WAL-shipping replication for the rule
//! store, in the spirit of the paper's serving tier: rule *edits* are rare
//! and small, rule *evaluation* is hot, so replicas scale reads while a
//! single leader owns writes.
//!
//! The design in one paragraph: the leader's [`DurableRepository`] already
//! serializes every mutation through its WAL; a record sink hooked under
//! that same mutation lock feeds an in-memory shipping ring
//! ([`log::ReplLog`]), and one session thread per follower streams the ring
//! over CRC-framed TCP ([`proto`]). A follower that is cold, too far
//! behind the ring, or divergent catches up from a full checkpoint
//! snapshot instead, then resumes tailing. Replay is idempotent by
//! revision, so every failure mode — torn frame, partition, crash on
//! either side — reduces to "reconnect and resume (or resync)".
//!
//! Pieces:
//!
//! * [`proto`] — the framed wire protocol (Hello / Snapshot / Record /
//!   Heartbeat);
//! * [`log`] — the leader's bounded shipping ring;
//! * [`leader`] / [`follower`] — the two role loops, with liveness
//!   (heartbeats + deadline), jittered-backoff reconnect, and explicit
//!   follower states (Syncing → Tailing → Stale); each role's threads (the
//!   leader's acceptor and sessions, the follower's loop) are one
//!   [`rulekit_core::Threads`] group, stopped and joined on drop;
//! * [`node`] — wiring either role together with the HTTP serving tier
//!   (`rulekit-net`).
//!
//! [`DurableRepository`]: rulekit_store::DurableRepository

#![forbid(unsafe_code)]

mod backoff;
pub mod follower;
pub mod leader;
pub mod log;
pub mod node;
pub mod proto;

pub use follower::{FollowerConfig, FollowerState, ReplFollower};
pub use leader::{LeaderConfig, ReplLeader};
pub use node::{FollowerNode, LeaderNode, NodeConfig};
pub use proto::{Frame, MAX_FRAME, PROTO_VERSION};

/// Wall-clock nanoseconds since the Unix epoch; the timestamp carried by
/// shipped frames so followers can report edit-visibility lag. Clock skew
/// between nodes shifts the measurement, not correctness — replication
/// ordering never depends on it.
pub(crate) fn now_nanos() -> u64 {
    std::time::SystemTime::now()
        .duration_since(std::time::UNIX_EPOCH)
        .map(|d| d.as_nanos() as u64)
        .unwrap_or(0)
}
