//! The write-ahead log: one length-prefixed, CRC-checksummed, revision-
//! stamped record per repository mutation.
//!
//! Frame layout (all little-endian):
//!
//! ```text
//! [ payload_len: u32 ][ crc32(payload): u32 ][ payload: payload_len bytes ]
//! payload = [ revision: u64 ][ kind: u8 ][ kind-specific fields ]
//! ```
//!
//! The reader ([`scan`]) accepts the longest valid prefix and reports the
//! first torn or checksum-corrupt offset; recovery truncates there instead
//! of failing — a half-written tail (the normal state after a crash) is
//! repaired, never served. The writer ([`WalWriter`]) tracks the
//! acknowledged byte length and, after any failed append (which may have
//! persisted a partial frame), truncates the garbage tail before the next
//! record goes out, so one transient fault cannot poison later appends.

use crate::codec::{put_str, put_u32, put_u64, Cursor};
use crate::crc::crc32;
use crate::durable::FsyncPolicy;
use crate::obs::StoreMetrics;
use crate::storage::{Storage, StoreError};
use rulekit_obs::SpanTimer;
use std::sync::Arc;

/// Cap on a single record's payload; anything larger in a length prefix is
/// treated as corruption rather than an allocation request.
pub const MAX_PAYLOAD: u32 = 16 * 1024 * 1024;

const KIND_ADD: u8 = 1;
const KIND_DISABLE: u8 = 2;
const KIND_ENABLE: u8 = 3;
const KIND_REMOVE: u8 = 4;

/// One durable repository mutation. Per-type scale-downs are decomposed
/// into their per-rule `Disable`/`Enable` edits before logging, so replay
/// is a flat, order-faithful stream.
#[derive(Debug, Clone, PartialEq)]
pub struct WalRecord {
    /// The repository revision *after* applying this mutation (1-based).
    /// Replay uses this to skip records already folded into a checkpoint
    /// and to detect gaps.
    pub revision: u64,
    /// The mutation itself.
    pub op: WalOp,
}

/// The mutation payload of a [`WalRecord`].
#[derive(Debug, Clone, PartialEq)]
pub enum WalOp {
    /// Rule added. Carries everything needed to rebuild the rule: the DSL
    /// source line plus the metadata the repository stamped on it.
    Add {
        /// Assigned rule id (must match the id replay re-assigns).
        id: u64,
        /// DSL source line.
        source: String,
        /// Author from [`rulekit_core::RuleMeta`].
        author: String,
        /// Provenance, encoded via [`encode_provenance`].
        provenance: u8,
        /// Status at add time (0 enabled / 1 disabled).
        status: u8,
        /// Confidence score.
        confidence: f64,
        /// Revision at which the rule was added.
        added_at: u64,
    },
    /// Rule disabled.
    Disable {
        /// Rule id.
        id: u64,
        /// Analyst-facing reason.
        reason: String,
    },
    /// Rule re-enabled.
    Enable {
        /// Rule id.
        id: u64,
    },
    /// Rule permanently removed.
    Remove {
        /// Rule id.
        id: u64,
        /// Analyst-facing reason.
        reason: String,
    },
}

/// Maps [`rulekit_core::Provenance`] to its wire byte.
pub fn encode_provenance(p: rulekit_core::Provenance) -> u8 {
    match p {
        rulekit_core::Provenance::Analyst => 0,
        rulekit_core::Provenance::Developer => 1,
        rulekit_core::Provenance::Mined => 2,
        rulekit_core::Provenance::Curation => 3,
        rulekit_core::Provenance::Crowd => 4,
    }
}

/// Inverse of [`encode_provenance`].
pub fn decode_provenance(b: u8) -> Result<rulekit_core::Provenance, StoreError> {
    Ok(match b {
        0 => rulekit_core::Provenance::Analyst,
        1 => rulekit_core::Provenance::Developer,
        2 => rulekit_core::Provenance::Mined,
        3 => rulekit_core::Provenance::Curation,
        4 => rulekit_core::Provenance::Crowd,
        other => return Err(StoreError::Corrupt(format!("unknown provenance byte {other}"))),
    })
}

/// Maps [`rulekit_core::RuleStatus`] to its wire byte.
pub fn encode_status(s: rulekit_core::RuleStatus) -> u8 {
    match s {
        rulekit_core::RuleStatus::Enabled => 0,
        rulekit_core::RuleStatus::Disabled => 1,
    }
}

/// Inverse of [`encode_status`].
pub fn decode_status(b: u8) -> Result<rulekit_core::RuleStatus, StoreError> {
    Ok(match b {
        0 => rulekit_core::RuleStatus::Enabled,
        1 => rulekit_core::RuleStatus::Disabled,
        other => return Err(StoreError::Corrupt(format!("unknown status byte {other}"))),
    })
}

impl WalRecord {
    fn encode_payload(&self) -> Vec<u8> {
        let mut out = Vec::with_capacity(64);
        put_u64(&mut out, self.revision);
        match &self.op {
            WalOp::Add { id, source, author, provenance, status, confidence, added_at } => {
                out.push(KIND_ADD);
                put_u64(&mut out, *id);
                put_str(&mut out, source);
                put_str(&mut out, author);
                out.push(*provenance);
                out.push(*status);
                crate::codec::put_f64(&mut out, *confidence);
                put_u64(&mut out, *added_at);
            }
            WalOp::Disable { id, reason } => {
                out.push(KIND_DISABLE);
                put_u64(&mut out, *id);
                put_str(&mut out, reason);
            }
            WalOp::Enable { id } => {
                out.push(KIND_ENABLE);
                put_u64(&mut out, *id);
            }
            WalOp::Remove { id, reason } => {
                out.push(KIND_REMOVE);
                put_u64(&mut out, *id);
                put_str(&mut out, reason);
            }
        }
        out
    }

    /// Encodes the record as a complete framed entry (length + CRC +
    /// payload), ready to append.
    pub fn encode_frame(&self) -> Vec<u8> {
        let payload = self.encode_payload();
        let mut frame = Vec::with_capacity(8 + payload.len());
        put_u32(&mut frame, payload.len() as u32);
        put_u32(&mut frame, crc32(&payload));
        frame.extend_from_slice(&payload);
        frame
    }

    /// Decodes exactly one framed record from `bytes` (the inverse of
    /// [`WalRecord::encode_frame`]); trailing bytes are corruption. This is
    /// what the replication wire uses: each shipped record travels as its
    /// own WAL frame, so the receiver re-verifies length and CRC end to end.
    pub fn decode_frame(bytes: &[u8]) -> Result<WalRecord, StoreError> {
        if bytes.len() < 8 {
            return Err(StoreError::Corrupt(format!("torn frame header ({} bytes)", bytes.len())));
        }
        let len = u32::from_le_bytes(bytes[0..4].try_into().expect("4 bytes")) as usize;
        if len as u32 > MAX_PAYLOAD {
            return Err(StoreError::Corrupt(format!("implausible payload length {len}")));
        }
        let crc = u32::from_le_bytes(bytes[4..8].try_into().expect("4 bytes"));
        if bytes.len() != 8 + len {
            return Err(StoreError::Corrupt(format!(
                "frame length mismatch: header says {len}, have {}",
                bytes.len() - 8
            )));
        }
        let payload = &bytes[8..];
        if crc32(payload) != crc {
            return Err(StoreError::Corrupt("payload checksum mismatch".to_string()));
        }
        WalRecord::decode_payload(payload)
    }

    fn decode_payload(payload: &[u8]) -> Result<WalRecord, StoreError> {
        let mut c = Cursor::new(payload);
        let revision = c.get_u64()?;
        let kind = c.get_u8()?;
        let op = match kind {
            KIND_ADD => WalOp::Add {
                id: c.get_u64()?,
                source: c.get_str()?,
                author: c.get_str()?,
                provenance: c.get_u8()?,
                status: c.get_u8()?,
                confidence: c.get_f64()?,
                added_at: c.get_u64()?,
            },
            KIND_DISABLE => WalOp::Disable { id: c.get_u64()?, reason: c.get_str()? },
            KIND_ENABLE => WalOp::Enable { id: c.get_u64()? },
            KIND_REMOVE => WalOp::Remove { id: c.get_u64()?, reason: c.get_str()? },
            other => return Err(StoreError::Corrupt(format!("unknown record kind {other}"))),
        };
        if c.remaining() != 0 {
            return Err(StoreError::Corrupt(format!("{} trailing payload bytes", c.remaining())));
        }
        Ok(WalRecord { revision, op })
    }
}

/// Result of scanning a WAL byte image: the longest valid record prefix.
#[derive(Debug)]
pub struct WalScan {
    /// Records decoded from the valid prefix, in append order.
    pub records: Vec<WalRecord>,
    /// Byte offset where `records[i]` starts (parallel to `records`).
    /// Recovery that discards a suffix of records truncates the file at
    /// the first discarded record's start.
    pub record_starts: Vec<u64>,
    /// Byte length of the valid prefix; recovery truncates the file here.
    pub valid_len: u64,
    /// Bytes past `valid_len` (torn/corrupt tail). Zero for a clean log.
    pub truncated_bytes: u64,
    /// Why scanning stopped, if before end-of-file.
    pub stop_reason: Option<String>,
}

/// Scans `bytes` as a sequence of framed records, stopping (not failing) at
/// the first torn or corrupt frame.
pub fn scan(bytes: &[u8]) -> WalScan {
    let mut records = Vec::new();
    let mut record_starts = Vec::new();
    let mut pos = 0usize;
    let mut stop_reason = None;
    while pos < bytes.len() {
        let rest = &bytes[pos..];
        if rest.len() < 8 {
            stop_reason = Some(format!("torn frame header ({} bytes)", rest.len()));
            break;
        }
        let len = u32::from_le_bytes(rest[0..4].try_into().expect("4 bytes")) as usize;
        if len as u32 > MAX_PAYLOAD {
            stop_reason = Some(format!("implausible payload length {len}"));
            break;
        }
        let crc = u32::from_le_bytes(rest[4..8].try_into().expect("4 bytes"));
        if rest.len() < 8 + len {
            stop_reason = Some(format!("torn payload (need {len}, have {})", rest.len() - 8));
            break;
        }
        let payload = &rest[8..8 + len];
        if crc32(payload) != crc {
            stop_reason = Some("payload checksum mismatch".to_string());
            break;
        }
        match WalRecord::decode_payload(payload) {
            Ok(record) => {
                records.push(record);
                record_starts.push(pos as u64);
            }
            Err(e) => {
                stop_reason = Some(format!("undecodable payload: {e}"));
                break;
            }
        }
        pos += 8 + len;
    }
    WalScan {
        records,
        record_starts,
        valid_len: pos as u64,
        truncated_bytes: (bytes.len() - pos) as u64,
        stop_reason,
    }
}

/// Append half of the WAL: frames records, enforces the fsync policy, and
/// self-repairs after failed appends by truncating the garbage tail before
/// the next record. All calls must be externally serialized (the
/// [`crate::DurableRepository`] mutation lock).
pub struct WalWriter {
    storage: Arc<dyn Storage>,
    name: String,
    policy: FsyncPolicy,
    /// Byte length of fully acknowledged records.
    acked_len: u64,
    /// Acknowledged records currently in the log.
    records: u64,
    /// Set after a failed append/fsync: the tail past `acked_len` may hold
    /// a partial or unacknowledged frame and must be truncated before the
    /// next append.
    dirty: bool,
    appends_since_sync: u32,
    metrics: Arc<StoreMetrics>,
}

impl WalWriter {
    /// A writer positioned at the end of an existing (already validated)
    /// log of `records` records and `acked_len` bytes, recording append and
    /// fsync telemetry into `metrics`.
    pub fn new(
        storage: Arc<dyn Storage>,
        name: impl Into<String>,
        policy: FsyncPolicy,
        acked_len: u64,
        records: u64,
        metrics: Arc<StoreMetrics>,
    ) -> WalWriter {
        WalWriter {
            storage,
            name: name.into(),
            policy,
            acked_len,
            records,
            dirty: false,
            appends_since_sync: 0,
            metrics,
        }
    }

    /// Acknowledged log length in bytes.
    pub fn len(&self) -> u64 {
        self.acked_len
    }

    /// Whether the log holds no acknowledged records.
    pub fn is_empty(&self) -> bool {
        self.records == 0
    }

    /// Acknowledged records in the log (since the last reset).
    pub fn records(&self) -> u64 {
        self.records
    }

    fn repair_if_dirty(&mut self) -> Result<(), StoreError> {
        if self.dirty {
            match self.storage.truncate(&self.name, self.acked_len) {
                Ok(()) => self.dirty = false,
                // Never created: nothing to repair.
                Err(e) if e.kind() == std::io::ErrorKind::NotFound => self.dirty = false,
                Err(e) => return Err(e.into()),
            }
        }
        Ok(())
    }

    /// Appends one record. On `Ok` the mutation is *acknowledged*: durable
    /// to the extent the fsync policy promises ([`FsyncPolicy::Always`]
    /// means it survives any crash). On `Err` nothing is acknowledged and
    /// the writer will clear any partial bytes before the next append.
    pub fn append(&mut self, record: &WalRecord) -> Result<(), StoreError> {
        self.repair_if_dirty()?;
        let frame = record.encode_frame();
        if let Err(e) = self.timed_append(&frame) {
            // The failed append may have persisted a prefix of the frame.
            self.dirty = true;
            return Err(e.into());
        }
        match self.policy {
            FsyncPolicy::Always => {
                if let Err(e) = self.timed_sync() {
                    // Written but not durable — not acknowledged. Truncate
                    // before the next append so recovery can never see an
                    // unacknowledged record *behind* an acknowledged one.
                    self.dirty = true;
                    return Err(e.into());
                }
            }
            FsyncPolicy::EveryN(n) => {
                self.appends_since_sync += 1;
                if self.appends_since_sync >= n.max(1) {
                    // Periodic syncs are best-effort; a failure narrows the
                    // durability window but the append itself stands.
                    let _ = self.timed_sync();
                    self.appends_since_sync = 0;
                }
            }
            FsyncPolicy::Never => {}
        }
        self.acked_len += frame.len() as u64;
        self.records += 1;
        self.metrics.wal_appends.inc();
        self.metrics.wal_records.set(self.records as i64);
        Ok(())
    }

    /// `storage.append` with attempt latency recorded (failed attempts
    /// included: a stalling disk should show up in the histogram).
    fn timed_append(&self, frame: &[u8]) -> std::io::Result<()> {
        let span = SpanTimer::start(&self.metrics.wal_append_nanos);
        let out = self.storage.append(&self.name, frame);
        span.finish();
        out
    }

    /// `storage.sync` with attempt latency recorded.
    fn timed_sync(&self) -> std::io::Result<()> {
        let span = SpanTimer::start(&self.metrics.wal_fsync_nanos);
        let out = self.storage.sync(&self.name);
        span.finish();
        out
    }

    /// Empties the log after a successful checkpoint. Crash *before* this
    /// call leaves stale records behind — replay skips them by revision.
    pub fn reset(&mut self) -> Result<(), StoreError> {
        match self.storage.truncate(&self.name, 0) {
            Ok(()) => {}
            Err(e) if e.kind() == std::io::ErrorKind::NotFound => {}
            Err(e) => return Err(e.into()),
        }
        self.acked_len = 0;
        self.records = 0;
        self.dirty = false;
        self.appends_since_sync = 0;
        self.metrics.wal_records.set(0);
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::storage::MemStorage;

    fn rec(revision: u64) -> WalRecord {
        WalRecord { revision, op: WalOp::Enable { id: revision * 10 } }
    }

    #[test]
    fn frame_roundtrip_all_kinds() {
        let records = vec![
            WalRecord {
                revision: 1,
                op: WalOp::Add {
                    id: 0,
                    source: "rings? -> rings".into(),
                    author: "analyst".into(),
                    provenance: 2,
                    status: 0,
                    confidence: 0.93,
                    added_at: 0,
                },
            },
            WalRecord { revision: 2, op: WalOp::Disable { id: 0, reason: "drift".into() } },
            WalRecord { revision: 3, op: WalOp::Enable { id: 0 } },
            WalRecord { revision: 4, op: WalOp::Remove { id: 0, reason: "subsumed".into() } },
        ];
        let mut bytes = Vec::new();
        for r in &records {
            bytes.extend_from_slice(&r.encode_frame());
        }
        let scan = scan(&bytes);
        assert_eq!(scan.records, records);
        assert_eq!(scan.valid_len, bytes.len() as u64);
        assert_eq!(scan.truncated_bytes, 0);
        assert!(scan.stop_reason.is_none());
    }

    #[test]
    fn scan_stops_at_torn_tail() {
        let mut bytes = rec(1).encode_frame();
        let good = bytes.len();
        let torn = rec(2).encode_frame();
        bytes.extend_from_slice(&torn[..torn.len() - 3]);
        let s = scan(&bytes);
        assert_eq!(s.records.len(), 1);
        assert_eq!(s.valid_len, good as u64);
        assert_eq!(s.truncated_bytes, (torn.len() - 3) as u64);
        assert!(s.stop_reason.unwrap().contains("torn"));
    }

    #[test]
    fn scan_stops_at_checksum_corruption() {
        let mut bytes = rec(1).encode_frame();
        let good = bytes.len();
        bytes.extend_from_slice(&rec(2).encode_frame());
        bytes[good + 10] ^= 0x40; // flip a payload bit of record 2
        let s = scan(&bytes);
        assert_eq!(s.records.len(), 1);
        assert_eq!(s.valid_len, good as u64);
        assert!(s.stop_reason.unwrap().contains("checksum"));
    }

    #[test]
    fn scan_rejects_implausible_length() {
        let mut bytes = Vec::new();
        put_u32(&mut bytes, u32::MAX); // absurd length prefix
        put_u32(&mut bytes, 0);
        bytes.extend_from_slice(&[0u8; 32]);
        let s = scan(&bytes);
        assert!(s.records.is_empty());
        assert_eq!(s.valid_len, 0);
        assert!(s.stop_reason.unwrap().contains("implausible"));
    }

    #[test]
    fn empty_log_scans_clean() {
        let s = scan(&[]);
        assert!(s.records.is_empty());
        assert_eq!(s.valid_len, 0);
        assert!(s.stop_reason.is_none());
    }

    fn writer(storage: &Arc<MemStorage>) -> WalWriter {
        let metrics = StoreMetrics::register(&rulekit_obs::Registry::new());
        WalWriter::new(storage.clone(), "wal", FsyncPolicy::Always, 0, 0, metrics)
    }

    #[test]
    fn writer_appends_and_resets() {
        let storage = Arc::new(MemStorage::new());
        let mut w = writer(&storage);
        w.append(&rec(1)).unwrap();
        w.append(&rec(2)).unwrap();
        assert_eq!(w.records(), 2);
        assert_eq!(w.metrics.wal_appends.value(), 2);
        let s = scan(&storage.read("wal").unwrap());
        assert_eq!(s.records.len(), 2);
        w.reset().unwrap();
        assert!(w.is_empty());
        assert_eq!(storage.read("wal").unwrap().len(), 0);
        w.append(&rec(3)).unwrap();
        assert_eq!(scan(&storage.read("wal").unwrap()).records, vec![rec(3)]);
    }

    #[test]
    fn writer_repairs_partial_append_before_next_record() {
        let storage = Arc::new(MemStorage::new());
        let mut w = writer(&storage);
        w.append(&rec(1)).unwrap();
        // Simulate a partial append that failed: garbage lands on the tail
        // and the writer is told the append failed.
        storage.append("wal", &[0xDE, 0xAD, 0xBE]).unwrap();
        w.dirty = true;
        w.append(&rec(2)).unwrap();
        let s = scan(&storage.read("wal").unwrap());
        assert_eq!(s.records, vec![rec(1), rec(2)]);
        assert_eq!(s.truncated_bytes, 0, "garbage was repaired, not appended over");
    }
}
