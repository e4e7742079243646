//! # rulekit-store
//!
//! The durability layer under [`rulekit_core::RuleRepository`]: the paper's
//! §3.3 rule corpora are long-lived production assets — Chimera's ~20k
//! hand-written rules accumulated over years of analyst edits — so the rule
//! store must survive process death without losing a single acknowledged
//! edit. This crate provides:
//!
//! - **[`Storage`]** — a tiny append/read/fsync/atomic-rename abstraction
//!   with a real file backend ([`FileStorage`]) and a deterministic
//!   in-memory backend ([`MemStorage`]) whose `crash()` models
//!   kernel-page-cache loss (synced prefix survives, unsynced tail is
//!   partially dropped).
//! - **Write-ahead log** ([`wal`]) — every repository mutation (add /
//!   disable / enable / remove, including per-type scale-downs decomposed
//!   to their per-rule edits) is a length-prefixed, CRC-32-checksummed,
//!   revision-stamped record, appended under a configurable
//!   [`FsyncPolicy`].
//! - **Checkpoints** ([`checkpoint`]) — periodic compaction serializes the
//!   full rule set (DSL source + metadata, enabled *and* disabled) via
//!   write-temp → fsync → atomic-rename, then resets the WAL; recovery
//!   replays only records newer than the checkpoint, so a crash between
//!   rename and reset cannot double-apply.
//! - **Recovery** — [`DurableRepository::open`] loads the newest *valid*
//!   checkpoint (corrupt candidates are skipped), replays the WAL tail,
//!   and truncates at the first torn or checksum-corrupt record instead of
//!   failing — a half-written tail can never be served.
//! - **Telemetry** ([`StoreMetrics`]) — WAL append/fsync latency,
//!   checkpoint timing, replay accounting and persisted-state levels. Every
//!   open records them: [`DurableRepository::open`] into a registry of its
//!   own, [`DurableRepository::open_observed`] and
//!   [`DurableRepository::open_into_observed`] into the caller's;
//!   [`DurableRepository::metrics`] reads the handles.
//! - **Fault injection** ([`FaultyStorage`]) — a seeded wrapper that
//!   injects partial writes, fsync failures, and transient I/O errors, so
//!   the recovery fuzz can crash-and-reopen the repository thousands of
//!   times and assert that no acknowledged mutation is ever lost.
//!
//! The serving tier consumes this through `rulekit_net::RuleApp::durable`,
//! which opens the store into the pipeline's rule repository
//! ([`DurableRepository::open_into_observed`]) before the service starts: a
//! restarted service recovers its rules and rebuilds a compiled snapshot
//! before admitting traffic.

#![forbid(unsafe_code)]

pub mod checkpoint;
pub mod codec;
pub mod crc;
pub mod durable;
pub mod fault;
pub mod obs;
pub mod storage;
pub mod wal;

pub use checkpoint::{CheckpointData, CheckpointRule, CheckpointStats};
pub use crc::crc32;
pub use durable::{
    catalog_hash, DurableConfig, DurableRepository, FsyncPolicy, RecordSink, RecoveryReport,
    ReplayOutcome, StoreStats, WAL_NAME,
};
pub use fault::{FaultConfig, FaultStats, FaultyStorage};
pub use obs::StoreMetrics;
pub use storage::{FileStorage, MemStorage, Storage, StoreError};
pub use wal::{WalOp, WalRecord, WalScan, WalWriter};
