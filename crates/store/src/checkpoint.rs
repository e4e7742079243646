//! Checkpoints: a full serialization of the repository (every rule's DSL
//! source plus its metadata — enabled *and* disabled, the durable analogue
//! of `export_dsl`), written temp-file-first, fsynced, then atomically
//! renamed into place. Files are named `ckpt-<revision>` so recovery can
//! pick the newest; a corrupt candidate (torn temp promoted by a buggy
//! filesystem, bit rot) is skipped in favour of the next-newest valid one.
//!
//! The file is a `codec` sealed image (`[crc][payload]`) whose payload is
//! `["RKCP1"][revision][next_id][count][count rule images]`.

use crate::codec::{self, put_u32, put_u64, Cursor, PersistedRule};
use crate::storage::{Storage, StoreError};

const MAGIC: &[u8; 5] = b"RKCP1";
const PREFIX: &str = "ckpt-";
const TMP_NAME: &str = "ckpt.tmp";

/// A decoded checkpoint: the complete repository state at `revision`.
#[derive(Debug, Clone, PartialEq)]
pub struct CheckpointData {
    /// Revision the checkpoint captures.
    pub revision: u64,
    /// The repository's id counter at that revision.
    pub next_id: u64,
    /// All rules, in repository order.
    pub rules: Vec<PersistedRule>,
}

impl CheckpointData {
    /// Serializes to the on-disk image (CRC header + payload).
    pub fn encode(&self) -> Vec<u8> {
        let mut payload = Vec::with_capacity(64 + self.rules.len() * 64);
        payload.extend_from_slice(MAGIC);
        put_u64(&mut payload, self.revision);
        put_u64(&mut payload, self.next_id);
        put_u32(&mut payload, self.rules.len() as u32);
        for r in &self.rules {
            r.put(&mut payload);
        }
        codec::seal(&payload)
    }

    /// Validates and decodes an on-disk image.
    pub fn decode(bytes: &[u8]) -> Result<CheckpointData, StoreError> {
        let payload = codec::unseal(bytes)?;
        let body = payload
            .strip_prefix(MAGIC)
            .ok_or_else(|| StoreError::Corrupt("bad checkpoint magic".into()))?;
        let mut c = Cursor::new(body);
        let revision = c.get_u64()?;
        let next_id = c.get_u64()?;
        let count = c.get_u32()? as usize;
        let mut rules = Vec::with_capacity(count.min(1 << 20));
        for _ in 0..count {
            rules.push(PersistedRule::get(&mut c)?);
        }
        if c.remaining() != 0 {
            return Err(StoreError::Corrupt("trailing checkpoint bytes".into()));
        }
        Ok(CheckpointData { revision, next_id, rules })
    }
}

/// The durable file name for a checkpoint at `revision` (zero-padded so
/// lexicographic order is numeric order).
pub fn checkpoint_name(revision: u64) -> String {
    format!("{PREFIX}{revision:020}")
}

fn parse_name(name: &str) -> Option<u64> {
    name.strip_prefix(PREFIX)?.parse().ok()
}

/// Writes a checkpoint durably, encoding it once: temp file → fsync →
/// atomic rename to [`checkpoint_name`]. A crash anywhere before the
/// rename leaves only a temp file that recovery ignores and deletes.
pub fn write(storage: &dyn Storage, data: &CheckpointData) -> Result<CheckpointStats, StoreError> {
    storage.remove(TMP_NAME)?;
    let bytes = data.encode();
    storage.append(TMP_NAME, &bytes)?;
    storage.sync(TMP_NAME)?;
    storage.rename(TMP_NAME, &checkpoint_name(data.revision))?;
    Ok(CheckpointStats {
        revision: data.revision,
        rules: data.rules.len(),
        bytes: bytes.len() as u64,
    })
}

/// Result of scanning storage for checkpoints.
#[derive(Debug, Default)]
pub struct CheckpointScan {
    /// The newest checkpoint that validated, if any.
    pub latest: Option<CheckpointData>,
    /// Candidates that failed validation (skipped, then deleted by
    /// housekeeping).
    pub corrupt: Vec<String>,
}

/// Finds the newest *valid* checkpoint. Candidates are tried newest-first;
/// corrupt ones are recorded and skipped — recovery only fails if storage
/// itself errors.
pub fn load_latest(storage: &dyn Storage) -> Result<CheckpointScan, StoreError> {
    let mut revisions: Vec<(u64, String)> =
        storage.list()?.into_iter().filter_map(|n| parse_name(&n).map(|rev| (rev, n))).collect();
    revisions.sort_unstable_by_key(|r| std::cmp::Reverse(r.0));
    let mut scan = CheckpointScan::default();
    for (_, name) in revisions {
        match storage.read(&name).map_err(StoreError::from).and_then(|b| CheckpointData::decode(&b))
        {
            Ok(data) if scan.latest.is_none() => scan.latest = Some(data),
            Ok(_) => {} // older valid checkpoint — retained by housekeeping policy
            Err(StoreError::Io(e)) => return Err(StoreError::Io(e)),
            Err(_) => scan.corrupt.push(name),
        }
    }
    Ok(scan)
}

/// Deletes every checkpoint whose revision is strictly above `revision`.
/// Recovery picks the newest checkpoint, so when a follower installs a
/// leader snapshot *older* than its own divergent history (the
/// follower-ahead-of-restarted-leader path), any higher-revision local
/// checkpoint must go first or it would win the next recovery scan and
/// resurrect the forked state. Unlike housekeeping this is a correctness
/// operation: failures propagate so the install aborts instead of
/// publishing alongside a survivor.
pub fn remove_above(storage: &dyn Storage, revision: u64) -> Result<(), StoreError> {
    for name in storage.list()? {
        if parse_name(&name).is_some_and(|rev| rev > revision) {
            storage.remove(&name)?;
        }
    }
    Ok(())
}

/// Deletes temp leftovers, corrupt candidates, and all but the newest
/// `keep` checkpoints. Best-effort: deletion failures are ignored (they
/// re-run next time).
pub fn housekeep(storage: &dyn Storage, corrupt: &[String], keep: usize) {
    let _ = storage.remove(TMP_NAME);
    for name in corrupt {
        let _ = storage.remove(name);
    }
    let Ok(names) = storage.list() else { return };
    let mut revisions: Vec<(u64, String)> =
        names.into_iter().filter_map(|n| parse_name(&n).map(|rev| (rev, n))).collect();
    revisions.sort_unstable_by_key(|r| std::cmp::Reverse(r.0));
    for (_, name) in revisions.into_iter().skip(keep.max(1)) {
        let _ = storage.remove(&name);
    }
}

/// Summary of one compaction (for stats/experiments).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CheckpointStats {
    /// Revision the last checkpoint captured.
    pub revision: u64,
    /// Rules in it.
    pub rules: usize,
    /// Encoded size in bytes.
    pub bytes: u64,
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::storage::MemStorage;
    use rulekit_core::{Provenance, RuleStatus};

    fn sample(revision: u64) -> CheckpointData {
        CheckpointData {
            revision,
            next_id: 7,
            rules: vec![
                PersistedRule {
                    id: 0,
                    source: "rings? -> rings".into(),
                    author: "analyst".into(),
                    provenance: Provenance::Analyst,
                    status: RuleStatus::Enabled,
                    confidence: 1.0,
                    added_at: 0,
                },
                PersistedRule {
                    id: 3,
                    source: "rugs? -> area rugs".into(),
                    author: "miner".into(),
                    provenance: Provenance::Mined,
                    status: RuleStatus::Disabled,
                    confidence: 0.8,
                    added_at: 2,
                },
            ],
        }
    }

    #[test]
    fn encode_decode_roundtrip() {
        let data = sample(42);
        assert_eq!(CheckpointData::decode(&data.encode()).unwrap(), data);
    }

    #[test]
    fn decode_rejects_corruption() {
        let mut bytes = sample(1).encode();
        bytes[20] ^= 0x02;
        assert!(matches!(CheckpointData::decode(&bytes), Err(StoreError::Corrupt(_))));
        assert!(CheckpointData::decode(&[1, 2, 3]).is_err());
    }

    #[test]
    fn write_then_load_latest() {
        let storage = MemStorage::new();
        write(&storage, &sample(5)).unwrap();
        write(&storage, &sample(9)).unwrap();
        let scan = load_latest(&storage).unwrap();
        assert_eq!(scan.latest.unwrap().revision, 9);
        assert!(scan.corrupt.is_empty());
    }

    #[test]
    fn corrupt_latest_falls_back_to_previous() {
        let storage = MemStorage::new();
        write(&storage, &sample(5)).unwrap();
        write(&storage, &sample(9)).unwrap();
        let newest = checkpoint_name(9);
        // Bit-rot the newest checkpoint.
        storage.flip_bit(&newest, 30);
        let scan = load_latest(&storage).unwrap();
        assert_eq!(scan.latest.unwrap().revision, 5, "falls back to older valid checkpoint");
        assert_eq!(scan.corrupt, vec![newest.clone()]);
        housekeep(&storage, &scan.corrupt, 2);
        assert!(!storage.list().unwrap().contains(&newest));
    }

    #[test]
    fn housekeep_prunes_old_checkpoints_and_tmp() {
        let storage = MemStorage::new();
        for rev in [3u64, 6, 9, 12] {
            write(&storage, &sample(rev)).unwrap();
        }
        storage.append(TMP_NAME, b"partial").unwrap();
        housekeep(&storage, &[], 2);
        let mut names = storage.list().unwrap();
        names.sort();
        assert_eq!(names, vec![checkpoint_name(9), checkpoint_name(12)]);
    }
}
