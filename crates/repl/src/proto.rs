//! The replication wire protocol: messages over a plain TCP stream, each
//! one `rulekit_store::codec` frame (`[len][crc][payload]`, bounded by
//! [`MAX_FRAME`]) with `payload = [kind: u8][kind-specific fields]`, so the
//! whole stack has exactly one encoding discipline.
//!
//! Kinds:
//!
//! | kind | name      | direction         | fields                                                    |
//! |-----:|-----------|-------------------|-----------------------------------------------------------|
//! | 1    | Hello     | follower → leader | proto version u32, last_seq u64, epoch u64, force_snap u8 |
//! | 2    | Snapshot  | leader → follower | ts_nanos u64, epoch u64, `CheckpointData::encode` bytes   |
//! | 3    | Record    | leader → follower | ts_nanos u64, one `WalRecord::encode_frame`               |
//! | 4    | Heartbeat | leader → follower | ts_nanos u64, leader_seq u64                              |
//!
//! `epoch` is the leader's incarnation counter (bumped at every leader
//! start). A follower sends the epoch it last installed state under; the
//! leader forces a snapshot on any mismatch, because revision arithmetic
//! alone cannot see a leader that lost an unsynced WAL tail, restarted, and
//! re-advanced past the follower's revision with different history. Epoch
//! `0` means "unknown" and never matches.
//!
//! A `Record` payload embeds the record's *WAL frame* (the record's own
//! length, CRC, and payload), so a shipped record is covered by two
//! independent checksums and the follower appends the exact bytes the
//! leader logged. Torn or corrupt frames surface as
//! [`StoreError::Corrupt`]; transport failures as [`StoreError::Io`] — the
//! session loop treats both as "drop the connection and resync", never a
//! panic.

use rulekit_store::codec::{self, put_u32, put_u64, Cursor, FRAME_HEADER};
use rulekit_store::{CheckpointData, StoreError, WalRecord};
use std::io::{Read, Write};

/// Protocol version in `Hello`; a leader refuses mismatches so a frame
/// layout change cannot be half-understood. v2 added the epoch fields to
/// `Hello` and `Snapshot`.
pub const PROTO_VERSION: u32 = 2;

/// Frame size ceiling — generous because a `Snapshot` carries the full
/// catalog (the WAL's own per-record ceiling is 16 MB).
pub const MAX_FRAME: u32 = 64 * 1024 * 1024;

const KIND_HELLO: u8 = 1;
const KIND_SNAPSHOT: u8 = 2;
const KIND_RECORD: u8 = 3;
const KIND_HEARTBEAT: u8 = 4;

/// One protocol message.
#[derive(Debug, Clone, PartialEq)]
pub enum Frame {
    /// Follower's opening message: where its log ends, which leader
    /// incarnation last fed it (0 = unknown), and whether it wants a full
    /// snapshot regardless (the divergence-recovery path).
    Hello { last_seq: u64, epoch: u64, force_snapshot: bool },
    /// Full-catalog catch-up image, stamped with the leader's epoch; the
    /// follower installs it and resumes the stream from the snapshot's
    /// revision.
    Snapshot { ts_nanos: u64, epoch: u64, data: CheckpointData },
    /// One WAL record, as the leader logged it.
    Record { ts_nanos: u64, record: WalRecord },
    /// Liveness + lag signal while the log is idle.
    Heartbeat { ts_nanos: u64, leader_seq: u64 },
}

impl Frame {
    /// Serializes into a complete wire frame; a payload over [`MAX_FRAME`]
    /// is refused.
    pub fn encode(&self) -> std::io::Result<Vec<u8>> {
        let mut out = Vec::with_capacity(32);
        match self {
            Frame::Hello { last_seq, epoch, force_snapshot } => {
                out.push(KIND_HELLO);
                put_u32(&mut out, PROTO_VERSION);
                put_u64(&mut out, *last_seq);
                put_u64(&mut out, *epoch);
                out.push(u8::from(*force_snapshot));
            }
            Frame::Snapshot { ts_nanos, epoch, data } => {
                out.push(KIND_SNAPSHOT);
                put_u64(&mut out, *ts_nanos);
                put_u64(&mut out, *epoch);
                out.extend_from_slice(&data.encode());
            }
            Frame::Record { ts_nanos, record } => {
                out.push(KIND_RECORD);
                put_u64(&mut out, *ts_nanos);
                out.extend_from_slice(&record.encode_frame()?);
            }
            Frame::Heartbeat { ts_nanos, leader_seq } => {
                out.push(KIND_HEARTBEAT);
                put_u64(&mut out, *ts_nanos);
                put_u64(&mut out, *leader_seq);
            }
        }
        codec::frame(&out, MAX_FRAME)
    }

    fn decode_payload(payload: &[u8]) -> Result<Frame, StoreError> {
        let mut c = Cursor::new(payload);
        let kind = c.get_u8()?;
        match kind {
            KIND_HELLO => {
                let version = c.get_u32()?;
                if version != PROTO_VERSION {
                    return Err(StoreError::Corrupt(format!(
                        "protocol version mismatch: peer speaks {version}, this node {PROTO_VERSION}"
                    )));
                }
                let last_seq = c.get_u64()?;
                let epoch = c.get_u64()?;
                let force_snapshot = c.get_u8()? != 0;
                expect_drained(&c)?;
                Ok(Frame::Hello { last_seq, epoch, force_snapshot })
            }
            KIND_SNAPSHOT => {
                let ts_nanos = c.get_u64()?;
                let epoch = c.get_u64()?;
                let data = CheckpointData::decode(c.rest())?;
                Ok(Frame::Snapshot { ts_nanos, epoch, data })
            }
            KIND_RECORD => {
                let ts_nanos = c.get_u64()?;
                let record = WalRecord::decode_frame(c.rest())?;
                Ok(Frame::Record { ts_nanos, record })
            }
            KIND_HEARTBEAT => {
                let ts_nanos = c.get_u64()?;
                let leader_seq = c.get_u64()?;
                expect_drained(&c)?;
                Ok(Frame::Heartbeat { ts_nanos, leader_seq })
            }
            other => Err(StoreError::Corrupt(format!("unknown frame kind {other}"))),
        }
    }
}

fn expect_drained(c: &Cursor<'_>) -> Result<(), StoreError> {
    if c.remaining() != 0 {
        return Err(StoreError::Corrupt(format!("{} trailing frame bytes", c.remaining())));
    }
    Ok(())
}

/// Writes one frame (buffered by the caller's stream; flushed here).
pub fn write_frame(w: &mut impl Write, frame: &Frame) -> std::io::Result<()> {
    w.write_all(&frame.encode()?)?;
    w.flush()
}

/// Reads one frame, verifying length bound and checksum. Blocks up to the
/// stream's read timeout; a timeout surfaces as [`StoreError::Io`].
pub fn read_frame(r: &mut impl Read) -> Result<Frame, StoreError> {
    let mut header = [0u8; FRAME_HEADER];
    r.read_exact(&mut header)?;
    let (len, crc) = codec::frame_header(header, MAX_FRAME)?;
    let mut payload = vec![0u8; len];
    r.read_exact(&mut payload)?;
    codec::check_crc(&payload, crc)?;
    Frame::decode_payload(&payload)
}

#[cfg(test)]
mod tests {
    use super::*;
    use rulekit_core::{Provenance, RuleStatus};
    use rulekit_store::{PersistedRule, WalOp};

    fn sample_record() -> WalRecord {
        WalRecord {
            revision: 42,
            op: WalOp::Add(PersistedRule {
                id: 7,
                source: "rings? -> rings".into(),
                author: "analyst".into(),
                provenance: Provenance::Analyst,
                status: RuleStatus::Enabled,
                confidence: 0.9,
                added_at: 41,
            }),
        }
    }

    fn roundtrip(frame: Frame) {
        let bytes = frame.encode().unwrap();
        let mut cursor = &bytes[..];
        let decoded = read_frame(&mut cursor).expect("roundtrip");
        assert_eq!(decoded, frame);
        assert!(cursor.is_empty(), "frame self-describes its length");
    }

    /// One frame of each kind.
    fn samples() -> [Frame; 4] {
        [
            Frame::Hello { last_seq: 9, epoch: 3, force_snapshot: true },
            Frame::Heartbeat { ts_nanos: 123, leader_seq: 5 },
            Frame::Record { ts_nanos: 7, record: sample_record() },
            Frame::Snapshot {
                ts_nanos: 1,
                epoch: 2,
                data: CheckpointData {
                    revision: 3,
                    next_id: 4,
                    rules: vec![PersistedRule {
                        id: 1,
                        source: "rings? -> rings".into(),
                        author: String::new(),
                        provenance: Provenance::Analyst,
                        status: RuleStatus::Enabled,
                        confidence: 1.0,
                        added_at: 0,
                    }],
                },
            },
        ]
    }

    #[test]
    fn all_kinds_roundtrip() {
        for frame in samples() {
            roundtrip(frame);
        }
    }

    #[test]
    fn frame_bytes_are_frozen() {
        // [len u32][crc32 u32] + payload [kind u8][fields]. A Record payload
        // ends in the record's WAL frame, a Snapshot payload in the
        // checkpoint image.
        let pins = [
            "16000000 d35cf974 01 02000000 0900000000000000 0300000000000000 01",
            "11000000 b240ba77 04 7b00000000000000 0500000000000000",
            "52000000 4ac8ed57 03 0700000000000000 \
             41000000 2b927c66 2a00000000000000 01 0700000000000000 \
             0f000000 72696e67733f202d3e2072696e6773 07000000 616e616c797374 00 00 \
             cdccccccccccec3f 2900000000000000",
            "5f000000 24cfe96d 02 0100000000000000 0200000000000000 \
             5a05e0e3 524b435031 0300000000000000 0400000000000000 01000000 \
             0100000000000000 0f000000 72696e67733f202d3e2072696e6773 00000000 00 00 \
             000000000000f03f 0000000000000000",
        ];
        for (frame, pin) in samples().iter().zip(pins) {
            let hex: String = frame.encode().unwrap().iter().map(|b| format!("{b:02x}")).collect();
            assert_eq!(hex, pin.split_whitespace().collect::<String>(), "{frame:?}");
        }
    }

    #[test]
    fn torn_and_corrupt_frames_are_errors_not_panics() {
        let bytes = Frame::Heartbeat { ts_nanos: 1, leader_seq: 2 }.encode().unwrap();
        // Torn at every prefix length.
        for cut in 0..bytes.len() {
            let mut cursor = &bytes[..cut];
            assert!(read_frame(&mut cursor).is_err(), "cut at {cut} must fail");
        }
        // Any single flipped bit fails the checksum (or the parse).
        for byte in 0..bytes.len() {
            let mut bad = bytes.clone();
            bad[byte] ^= 0x10;
            let mut cursor = &bad[..];
            assert!(read_frame(&mut cursor).is_err(), "flip in byte {byte} must fail");
        }
    }

    #[test]
    fn version_mismatch_is_rejected() {
        let mut bytes =
            Frame::Hello { last_seq: 0, epoch: 0, force_snapshot: false }.encode().unwrap();
        // Corrupt the version field (the first payload byte after the kind)
        // and re-frame, so only the version check can object.
        bytes[9] = 99;
        let bytes = codec::frame(&bytes[FRAME_HEADER..], MAX_FRAME).unwrap();
        let mut cursor = &bytes[..];
        let err = read_frame(&mut cursor).unwrap_err();
        assert!(err.to_string().contains("version"), "{err}");
    }

    #[test]
    fn oversized_length_is_rejected_before_allocation() {
        let mut bytes = vec![];
        put_u32(&mut bytes, MAX_FRAME + 1);
        put_u32(&mut bytes, 0);
        let mut cursor = &bytes[..];
        assert!(read_frame(&mut cursor).is_err());
    }
}
