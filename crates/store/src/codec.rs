//! The store's binary formats, each defined once here: little-endian
//! fixed-width integers, u32-length-prefixed UTF-8 strings, and three
//! layouts built from them. No serde offline; the formats are deliberately
//! trivial so corruption handling stays auditable.
//!
//! ```text
//! frame  = [ len: u32 ][ crc32(payload): u32 ][ payload: len bytes ]
//! sealed = [ crc32(payload): u32 ][ payload ]
//! rule   = [ id: u64 ][ source: str ][ author: str ][ provenance: u8 ]
//!          [ status: u8 ][ confidence: f64 ][ added_at: u64 ]
//! str    = [ len: u32 ][ UTF-8 bytes ]
//! ```
//!
//! A **frame** ([`frame`], [`split_frame`]) carries one WAL record
//! (`payload = [revision: u64][kind: u8][fields]`, an `Add`'s fields being
//! one rule image) under [`crate::wal::MAX_PAYLOAD`], and one replication
//! message (`rulekit_repl::proto`) under its own larger bound. The encoder
//! refuses what the reader would reject, so nothing is acknowledged that
//! recovery would drop. A **sealed** image ([`seal`], [`unseal`]) is a
//! whole file: a checkpoint (`payload = ["RKCP1"][revision: u64]
//! [next_id: u64][count: u32][count rule images]`) or the epoch file
//! (`payload = [epoch: u64]`). The **rule image** is [`PersistedRule`].

use crate::crc::crc32;
use crate::storage::StoreError;
use rulekit_core::{Provenance, Rule, RuleId, RuleMeta, RuleParser, RuleSpec, RuleStatus};

pub fn put_u32(out: &mut Vec<u8>, v: u32) {
    out.extend_from_slice(&v.to_le_bytes());
}

pub fn put_u64(out: &mut Vec<u8>, v: u64) {
    out.extend_from_slice(&v.to_le_bytes());
}

pub fn put_f64(out: &mut Vec<u8>, v: f64) {
    out.extend_from_slice(&v.to_bits().to_le_bytes());
}

pub fn put_str(out: &mut Vec<u8>, s: &str) {
    put_u32(out, s.len() as u32);
    out.extend_from_slice(s.as_bytes());
}

/// A cursor over encoded bytes; every getter fails loudly on underrun so a
/// truncated payload surfaces as [`StoreError::Corrupt`], never a panic.
pub struct Cursor<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl<'a> Cursor<'a> {
    pub fn new(bytes: &'a [u8]) -> Self {
        Cursor { bytes, pos: 0 }
    }

    pub fn remaining(&self) -> usize {
        self.bytes.len() - self.pos
    }

    fn take(&mut self, n: usize) -> Result<&'a [u8], StoreError> {
        if self.remaining() < n {
            return Err(StoreError::Corrupt(format!(
                "payload underrun: need {n} bytes, have {}",
                self.remaining()
            )));
        }
        let slice = &self.bytes[self.pos..self.pos + n];
        self.pos += n;
        Ok(slice)
    }

    pub fn get_u8(&mut self) -> Result<u8, StoreError> {
        Ok(self.take(1)?[0])
    }

    pub fn get_u32(&mut self) -> Result<u32, StoreError> {
        Ok(u32::from_le_bytes(self.take(4)?.try_into().expect("4 bytes")))
    }

    pub fn get_u64(&mut self) -> Result<u64, StoreError> {
        Ok(u64::from_le_bytes(self.take(8)?.try_into().expect("8 bytes")))
    }

    pub fn get_f64(&mut self) -> Result<f64, StoreError> {
        Ok(f64::from_bits(self.get_u64()?))
    }

    /// Consumes and returns every remaining byte (for trailing
    /// variable-length fields that carry their own framing).
    pub fn rest(&mut self) -> &'a [u8] {
        let slice = &self.bytes[self.pos..];
        self.pos = self.bytes.len();
        slice
    }

    pub fn get_str(&mut self) -> Result<String, StoreError> {
        let len = self.get_u32()? as usize;
        let bytes = self.take(len)?;
        String::from_utf8(bytes.to_vec())
            .map_err(|_| StoreError::Corrupt("string field is not UTF-8".into()))
    }
}

/// Bytes in a frame header, `[len][crc]`.
pub const FRAME_HEADER: usize = 8;

/// Frames `payload` as `[len][crc][payload]`. A payload longer than `max`
/// is refused ([`std::io::ErrorKind::InvalidInput`]): the reader would
/// reject its length, so it must never be written or sent.
pub fn frame(payload: &[u8], max: u32) -> std::io::Result<Vec<u8>> {
    if payload.len() > max as usize {
        return Err(std::io::Error::new(
            std::io::ErrorKind::InvalidInput,
            format!("payload of {} bytes exceeds the {max}-byte frame bound", payload.len()),
        ));
    }
    let mut out = Vec::with_capacity(FRAME_HEADER + payload.len());
    put_u32(&mut out, payload.len() as u32);
    put_u32(&mut out, crc32(payload));
    out.extend_from_slice(payload);
    Ok(out)
}

/// Reads a frame header: the payload length, checked against `max` before
/// anything is allocated for it, and the payload's CRC.
pub fn frame_header(header: [u8; FRAME_HEADER], max: u32) -> Result<(usize, u32), StoreError> {
    let [l0, l1, l2, l3, c0, c1, c2, c3] = header;
    let len = u32::from_le_bytes([l0, l1, l2, l3]);
    if len > max {
        return Err(StoreError::Corrupt(format!("implausible payload length {len}")));
    }
    Ok((len as usize, u32::from_le_bytes([c0, c1, c2, c3])))
}

/// Checks `payload` against the CRC its header carried.
pub fn check_crc(payload: &[u8], crc: u32) -> Result<(), StoreError> {
    if crc32(payload) != crc {
        return Err(StoreError::Corrupt("payload checksum mismatch".into()));
    }
    Ok(())
}

/// Splits the first frame off `bytes`: its verified payload and the bytes
/// after it. Every error is [`StoreError::Corrupt`] (a torn header or
/// payload, an implausible length, a checksum mismatch).
pub fn split_frame(bytes: &[u8], max: u32) -> Result<(&[u8], &[u8]), StoreError> {
    let Some((header, rest)) = bytes.split_first_chunk::<FRAME_HEADER>() else {
        return Err(StoreError::Corrupt(format!("torn frame header ({} bytes)", bytes.len())));
    };
    let (len, crc) = frame_header(*header, max)?;
    if rest.len() < len {
        return Err(StoreError::Corrupt(format!("torn payload (need {len}, have {})", rest.len())));
    }
    let (payload, rest) = rest.split_at(len);
    check_crc(payload, crc)?;
    Ok((payload, rest))
}

/// Seals a whole-file image as `[crc][payload]`.
pub fn seal(payload: &[u8]) -> Vec<u8> {
    let mut out = Vec::with_capacity(4 + payload.len());
    put_u32(&mut out, crc32(payload));
    out.extend_from_slice(payload);
    out
}

/// Verifies a sealed image and returns its payload.
pub fn unseal(bytes: &[u8]) -> Result<&[u8], StoreError> {
    let Some((crc, payload)) = bytes.split_first_chunk::<4>() else {
        return Err(StoreError::Corrupt(format!("sealed image too short ({} bytes)", bytes.len())));
    };
    check_crc(payload, u32::from_le_bytes(*crc))?;
    Ok(payload)
}

/// One rule as persisted: what a WAL `Add` record and a checkpoint entry
/// carry. Loading re-parses `source` (disabled state is in `status`, not a
/// comment prefix as in `export_dsl`) and re-attaches the metadata.
#[derive(Debug, Clone, PartialEq)]
pub struct PersistedRule {
    /// Repository-assigned id.
    pub id: u64,
    /// DSL source line.
    pub source: String,
    /// Author.
    pub author: String,
    /// Provenance.
    pub provenance: Provenance,
    /// Status.
    pub status: RuleStatus,
    /// Confidence score.
    pub confidence: f64,
    /// Revision the rule was added at.
    pub added_at: u64,
}

impl PersistedRule {
    /// The image of rule `id` with `source` and `meta`.
    pub fn new(id: u64, source: &str, meta: &RuleMeta) -> PersistedRule {
        PersistedRule {
            id,
            source: source.to_string(),
            author: meta.author.clone(),
            provenance: meta.provenance,
            status: meta.status,
            confidence: meta.confidence,
            added_at: meta.added_at,
        }
    }

    /// Appends the image.
    pub fn put(&self, out: &mut Vec<u8>) {
        put_u64(out, self.id);
        put_str(out, &self.source);
        put_str(out, &self.author);
        out.push(provenance_byte(self.provenance));
        out.push(status_byte(self.status));
        put_f64(out, self.confidence);
        put_u64(out, self.added_at);
    }

    /// Reads one image.
    pub fn get(c: &mut Cursor<'_>) -> Result<PersistedRule, StoreError> {
        Ok(PersistedRule {
            id: c.get_u64()?,
            source: c.get_str()?,
            author: c.get_str()?,
            provenance: provenance_of(c.get_u8()?)?,
            status: status_of(c.get_u8()?)?,
            confidence: c.get_f64()?,
            added_at: c.get_u64()?,
        })
    }

    /// The rule's metadata.
    pub fn meta(&self) -> RuleMeta {
        RuleMeta {
            author: self.author.clone(),
            provenance: self.provenance,
            status: self.status,
            confidence: self.confidence,
            added_at: self.added_at,
        }
    }

    /// Re-parses the source; an error names the rule.
    pub fn parse(&self, parser: &RuleParser) -> Result<RuleSpec, StoreError> {
        parser
            .parse_rule(&self.source)
            .map_err(|e| StoreError::Parse(format!("rule {}: {e}: {:?}", self.id, self.source)))
    }

    /// The full rule: the source re-parsed, the metadata re-attached.
    pub fn to_rule(&self, parser: &RuleParser) -> Result<Rule, StoreError> {
        let spec = self.parse(parser)?;
        Ok(Rule {
            id: RuleId(self.id),
            condition: spec.condition,
            action: spec.action,
            meta: self.meta(),
            source: spec.source,
        })
    }
}

impl From<&Rule> for PersistedRule {
    fn from(rule: &Rule) -> PersistedRule {
        PersistedRule::new(rule.id.0, &rule.source, &rule.meta)
    }
}

fn provenance_byte(p: Provenance) -> u8 {
    match p {
        Provenance::Analyst => 0,
        Provenance::Developer => 1,
        Provenance::Mined => 2,
        Provenance::Curation => 3,
        Provenance::Crowd => 4,
    }
}

fn provenance_of(b: u8) -> Result<Provenance, StoreError> {
    Ok(match b {
        0 => Provenance::Analyst,
        1 => Provenance::Developer,
        2 => Provenance::Mined,
        3 => Provenance::Curation,
        4 => Provenance::Crowd,
        other => return Err(StoreError::Corrupt(format!("unknown provenance byte {other}"))),
    })
}

fn status_byte(s: RuleStatus) -> u8 {
    match s {
        RuleStatus::Enabled => 0,
        RuleStatus::Disabled => 1,
    }
}

fn status_of(b: u8) -> Result<RuleStatus, StoreError> {
    Ok(match b {
        0 => RuleStatus::Enabled,
        1 => RuleStatus::Disabled,
        other => return Err(StoreError::Corrupt(format!("unknown status byte {other}"))),
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn roundtrip_all_types() {
        let mut buf = Vec::new();
        put_u32(&mut buf, 7);
        put_u64(&mut buf, u64::MAX - 3);
        put_f64(&mut buf, 0.25);
        put_str(&mut buf, "rings? -> rings");
        let mut c = Cursor::new(&buf);
        assert_eq!(c.get_u32().unwrap(), 7);
        assert_eq!(c.get_u64().unwrap(), u64::MAX - 3);
        assert_eq!(c.get_f64().unwrap(), 0.25);
        assert_eq!(c.get_str().unwrap(), "rings? -> rings");
        assert_eq!(c.remaining(), 0);
    }

    #[test]
    fn a_frame_is_refused_exactly_where_its_reader_would_reject_it() {
        let at_bound = frame(&[7; 9], 9).unwrap();
        assert_eq!(split_frame(&at_bound, 9).unwrap(), (&[7u8; 9][..], &[][..]));
        let err = split_frame(&at_bound, 8).unwrap_err().to_string();
        assert!(err.contains("implausible"), "{err}");
        let refused = frame(&[7; 10], 9).unwrap_err();
        assert_eq!(refused.kind(), std::io::ErrorKind::InvalidInput);
    }

    #[test]
    fn a_rule_image_rejects_unknown_provenance_and_status_bytes() {
        let rule = PersistedRule {
            id: 3,
            source: "rugs? -> area rugs".into(),
            author: "miner".into(),
            provenance: Provenance::Curation,
            status: RuleStatus::Disabled,
            confidence: 0.5,
            added_at: 2,
        };
        let mut buf = Vec::new();
        rule.put(&mut buf);
        let provenance_at = 8 + 4 + rule.source.len() + 4 + rule.author.len();
        for (at, what) in [(provenance_at, "provenance"), (provenance_at + 1, "status")] {
            let mut bad = buf.clone();
            bad[at] = 9;
            let err = PersistedRule::get(&mut Cursor::new(&bad)).unwrap_err().to_string();
            assert!(err.contains(what), "{err}");
        }
    }

    #[test]
    fn underrun_is_an_error_not_a_panic() {
        let mut c = Cursor::new(&[1, 2]);
        assert!(c.get_u64().is_err());
        let mut buf = Vec::new();
        put_u32(&mut buf, 100); // claims a 100-byte string, provides none
        let mut c = Cursor::new(&buf);
        assert!(c.get_str().is_err());
    }
}
