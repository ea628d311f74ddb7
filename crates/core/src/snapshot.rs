//! Deterministic, byte-stable snapshots of resumable detector state.
//!
//! A production deployment of the paper's pipeline (§8 "Internet Health
//! Report") runs for months: the delay references take `warmup_bins` to
//! warm, the magnitude windows hold a week of history, and the event
//! table carries open incidents. A crash that loses this state costs far
//! more than the crash itself. This module serializes the complete
//! resumable state of an [`Analyzer`](crate::pipeline::Analyzer) (or a
//! whole [`StreamRouter`](crate::stream::StreamRouter) fleet) into a
//! byte-stable buffer and restores it into a fresh process.
//!
//! ## The snapshot determinism rule
//!
//! Snapshots obey the same contract reports do, extended one level:
//!
//! 1. **Byte-stable across the execution matrix.** The snapshot of an
//!    analyzer at bin *k* is byte-identical regardless of thread count
//!    (and so of the chunk cut the engine derives from it). Hash maps
//!    serialize in sorted key order; intern tables serialize in dense-id
//!    (insertion) order, which *is* deterministic by the chunk-order
//!    merge rule; the throughput knob `threads` is normalized to 0
//!    ("auto") inside the serialized config, so machines with different
//!    pinned thread counts produce the same bytes. The config slot of a
//!    retired chunk-size knob stays in the layout as a reserved `0`.
//! 2. **Resume parity.** Snapshot at bin *k*, restore into a fresh
//!    process (possibly with a different thread count), feed bins
//!    *k+1..n*: every report is byte-identical to the uninterrupted run.
//!    `tests/snapshot_parity.rs` proves both properties across the CI
//!    thread matrix.
//!
//! ## Wire format
//!
//! Little-endian integers, `f64` as IEEE-754 bit patterns, sequences
//! length-prefixed with `u64`, `Ipv4Addr` as its `u32` value. A snapshot
//! starts with a magic + version header and a kind tag (solo analyzer vs
//! fleet). Checkpoint *files* add an outer frame — magic, `u64` payload
//! length, CRC-32 — so a partial write (crash mid-`rename`, torn disk)
//! is detected and skipped rather than restored ([`frame`]/[`unframe`]).

use std::fmt;

/// Snapshot header magic: "PNPT".
const MAGIC: [u8; 4] = *b"PNPT";
/// Snapshot format version. Bump on any wire-format change.
const VERSION: u32 = 2;
/// Checkpoint-file frame magic: "PNCK".
const FRAME_MAGIC: [u8; 4] = *b"PNCK";

/// Snapshot kind tag: a single [`Analyzer`](crate::pipeline::Analyzer).
pub(crate) const KIND_ANALYZER: u8 = 1;
/// Snapshot kind tag: a [`StreamRouter`](crate::stream::StreamRouter).
pub(crate) const KIND_FLEET: u8 = 2;

/// Why a snapshot failed to decode.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SnapshotError {
    /// The buffer ended before the structure did.
    Truncated,
    /// The magic bytes are not a snapshot's.
    BadMagic,
    /// The snapshot was written by an incompatible format version.
    BadVersion(u32),
    /// A structural invariant does not hold (bad tag, checksum
    /// mismatch, impossible length).
    Corrupt(&'static str),
}

impl fmt::Display for SnapshotError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SnapshotError::Truncated => write!(f, "snapshot truncated"),
            SnapshotError::BadMagic => write!(f, "not a snapshot (bad magic)"),
            SnapshotError::BadVersion(v) => write!(f, "unsupported snapshot version {v}"),
            SnapshotError::Corrupt(what) => write!(f, "corrupt snapshot: {what}"),
        }
    }
}

impl std::error::Error for SnapshotError {}

/// Byte-stable snapshot writer: append-only buffer with typed primitives.
#[derive(Debug, Default)]
pub struct Writer {
    buf: Vec<u8>,
}

impl Writer {
    /// Fresh writer with the snapshot header already emitted.
    pub(crate) fn with_header(kind: u8) -> Self {
        let mut w = Writer::default();
        w.buf.extend_from_slice(&MAGIC);
        w.u32(VERSION);
        w.u8(kind);
        w
    }

    /// The serialized bytes.
    pub fn into_bytes(self) -> Vec<u8> {
        self.buf
    }

    /// Append one raw byte.
    pub fn u8(&mut self, v: u8) {
        self.buf.push(v);
    }

    /// Append a bool as one byte.
    pub fn bool(&mut self, v: bool) {
        self.buf.push(u8::from(v));
    }

    /// Append a `u32`, little-endian.
    pub fn u32(&mut self, v: u32) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Append a `u64`, little-endian.
    pub fn u64(&mut self, v: u64) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Append a `usize` as `u64`.
    pub fn usize(&mut self, v: usize) {
        self.u64(v as u64);
    }

    /// Append an `f64` as its IEEE-754 bit pattern (bit-exact, no
    /// formatting round-trip).
    pub fn f64(&mut self, v: f64) {
        self.u64(v.to_bits());
    }

    /// Append an IPv4 address as its `u32` value.
    pub fn ip(&mut self, v: std::net::Ipv4Addr) {
        self.u32(u32::from(v));
    }

    /// Append a string: `u64` length + UTF-8 bytes.
    pub fn str(&mut self, v: &str) {
        self.usize(v.len());
        self.buf.extend_from_slice(v.as_bytes());
    }

    /// Append a sequence length prefix.
    pub fn seq(&mut self, len: usize) {
        self.usize(len);
    }
}

/// Snapshot reader: a cursor over serialized bytes. Every accessor
/// returns [`SnapshotError::Truncated`] past the end — corrupt input can
/// never panic a restore.
#[derive(Debug)]
pub struct Reader<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> Reader<'a> {
    /// Open a snapshot, checking magic + version, returning the kind tag.
    pub(crate) fn open(buf: &'a [u8]) -> Result<(u8, Self), SnapshotError> {
        let mut r = Reader { buf, pos: 0 };
        if r.bytes(4)? != MAGIC {
            return Err(SnapshotError::BadMagic);
        }
        let version = r.u32()?;
        if version != VERSION {
            return Err(SnapshotError::BadVersion(version));
        }
        let kind = r.u8()?;
        Ok((kind, r))
    }

    fn bytes(&mut self, n: usize) -> Result<&'a [u8], SnapshotError> {
        let end = self.pos.checked_add(n).ok_or(SnapshotError::Truncated)?;
        if end > self.buf.len() {
            return Err(SnapshotError::Truncated);
        }
        let s = &self.buf[self.pos..end];
        self.pos = end;
        Ok(s)
    }

    /// Whether the cursor has consumed the whole buffer.
    pub fn is_exhausted(&self) -> bool {
        self.pos == self.buf.len()
    }

    /// Read one raw byte.
    pub fn u8(&mut self) -> Result<u8, SnapshotError> {
        Ok(self.bytes(1)?[0])
    }

    /// Read a bool byte (strictly 0 or 1).
    pub fn bool(&mut self) -> Result<bool, SnapshotError> {
        match self.u8()? {
            0 => Ok(false),
            1 => Ok(true),
            _ => Err(SnapshotError::Corrupt("bool byte")),
        }
    }

    /// Read a little-endian `u32`.
    pub fn u32(&mut self) -> Result<u32, SnapshotError> {
        Ok(u32::from_le_bytes(self.bytes(4)?.try_into().unwrap()))
    }

    /// Read a little-endian `u64`.
    pub fn u64(&mut self) -> Result<u64, SnapshotError> {
        Ok(u64::from_le_bytes(self.bytes(8)?.try_into().unwrap()))
    }

    /// Read a `u64` into `usize`.
    pub fn usize(&mut self) -> Result<usize, SnapshotError> {
        usize::try_from(self.u64()?).map_err(|_| SnapshotError::Corrupt("usize overflow"))
    }

    /// Read an `f64` bit pattern.
    pub fn f64(&mut self) -> Result<f64, SnapshotError> {
        Ok(f64::from_bits(self.u64()?))
    }

    /// Read an IPv4 address.
    pub fn ip(&mut self) -> Result<std::net::Ipv4Addr, SnapshotError> {
        Ok(std::net::Ipv4Addr::from(self.u32()?))
    }

    /// Read a length-prefixed UTF-8 string.
    pub fn str(&mut self) -> Result<String, SnapshotError> {
        let len = self.seq()?;
        let bytes = self.bytes(len)?;
        String::from_utf8(bytes.to_vec()).map_err(|_| SnapshotError::Corrupt("utf-8"))
    }

    /// Read a sequence length prefix, bounds-checked against the bytes
    /// remaining (an element needs at least one byte, so a length larger
    /// than the residue is corrupt — this keeps a flipped length byte
    /// from attempting a giant allocation).
    pub fn seq(&mut self) -> Result<usize, SnapshotError> {
        let len = self.usize()?;
        if len > self.buf.len() - self.pos {
            return Err(SnapshotError::Corrupt("sequence length"));
        }
        Ok(len)
    }
}

/// CRC-32 (IEEE 802.3, reflected) over `bytes` — hand-rolled so
/// checkpoint framing needs no external crate.
pub fn crc32(bytes: &[u8]) -> u32 {
    let mut crc: u32 = !0;
    for &b in bytes {
        crc ^= u32::from(b);
        for _ in 0..8 {
            let mask = (crc & 1).wrapping_neg();
            crc = (crc >> 1) ^ (0xEDB8_8320 & mask);
        }
    }
    !crc
}

/// Wrap a payload in the checkpoint-file frame: magic, `u64` payload
/// length, CRC-32 of the payload, then the payload. [`unframe`] rejects
/// any partial or bit-flipped write.
pub fn frame(payload: &[u8]) -> Vec<u8> {
    let mut out = Vec::with_capacity(payload.len() + 16);
    out.extend_from_slice(&FRAME_MAGIC);
    out.extend_from_slice(&(payload.len() as u64).to_le_bytes());
    out.extend_from_slice(&crc32(payload).to_le_bytes());
    out.extend_from_slice(payload);
    out
}

/// Validate a checkpoint-file frame and return its payload. Truncated
/// files, wrong magic, length mismatches, and checksum failures all
/// report a distinct error — a resume scan skips such files and falls
/// back to the previous checkpoint.
pub fn unframe(bytes: &[u8]) -> Result<&[u8], SnapshotError> {
    if bytes.len() < 16 {
        return Err(SnapshotError::Truncated);
    }
    if bytes[..4] != FRAME_MAGIC {
        return Err(SnapshotError::BadMagic);
    }
    let len = u64::from_le_bytes(bytes[4..12].try_into().unwrap());
    let crc = u32::from_le_bytes(bytes[12..16].try_into().unwrap());
    let payload = &bytes[16..];
    if payload.len() as u64 != len {
        return Err(SnapshotError::Truncated);
    }
    if crc32(payload) != crc {
        return Err(SnapshotError::Corrupt("frame checksum"));
    }
    Ok(payload)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn primitives_roundtrip() {
        let mut w = Writer::with_header(KIND_ANALYZER);
        w.u8(7);
        w.bool(true);
        w.u32(0xDEAD_BEEF);
        w.u64(u64::MAX - 1);
        w.f64(-0.0);
        w.f64(f64::NAN);
        w.ip(std::net::Ipv4Addr::new(10, 1, 2, 3));
        w.str("amsterdam");
        let bytes = w.into_bytes();
        let (kind, mut r) = Reader::open(&bytes).unwrap();
        assert_eq!(kind, KIND_ANALYZER);
        assert_eq!(r.u8().unwrap(), 7);
        assert!(r.bool().unwrap());
        assert_eq!(r.u32().unwrap(), 0xDEAD_BEEF);
        assert_eq!(r.u64().unwrap(), u64::MAX - 1);
        assert_eq!(r.f64().unwrap().to_bits(), (-0.0f64).to_bits());
        assert!(r.f64().unwrap().is_nan());
        assert_eq!(r.ip().unwrap(), std::net::Ipv4Addr::new(10, 1, 2, 3));
        assert_eq!(r.str().unwrap(), "amsterdam");
        assert!(r.is_exhausted());
    }

    #[test]
    fn truncation_is_an_error_not_a_panic() {
        let mut w = Writer::with_header(KIND_FLEET);
        w.u64(42);
        let bytes = w.into_bytes();
        for cut in 0..bytes.len() {
            let r = Reader::open(&bytes[..cut]);
            match r {
                Ok((_, mut r)) => assert!(r.u64().is_err()),
                Err(e) => assert!(matches!(
                    e,
                    SnapshotError::Truncated | SnapshotError::BadMagic
                )),
            }
        }
    }

    #[test]
    fn bad_magic_and_version_are_rejected() {
        assert_eq!(
            Reader::open(b"XXXXxxxxx").unwrap_err(),
            SnapshotError::BadMagic
        );
        // 1 is the previous format (its config block carried two more
        // knob slots): it must be refused by version, not misparsed.
        for version in [999u32, 1] {
            let mut w = Writer::default();
            w.buf.extend_from_slice(&MAGIC);
            w.u32(version);
            w.u8(KIND_ANALYZER);
            assert_eq!(
                Reader::open(&w.into_bytes()).unwrap_err(),
                SnapshotError::BadVersion(version)
            );
        }
    }

    #[test]
    fn oversized_sequence_length_is_corrupt() {
        let mut w = Writer::with_header(KIND_ANALYZER);
        w.usize(1 << 40);
        let bytes = w.into_bytes();
        let (_, mut r) = Reader::open(&bytes).unwrap();
        assert_eq!(
            r.seq().unwrap_err(),
            SnapshotError::Corrupt("sequence length")
        );
    }

    #[test]
    fn crc32_matches_known_vector() {
        // The classic IEEE 802.3 check value.
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
        assert_eq!(crc32(b""), 0);
    }

    #[test]
    fn frame_roundtrip_and_rejection() {
        let payload = b"checkpoint payload".to_vec();
        let framed = frame(&payload);
        assert_eq!(unframe(&framed).unwrap(), &payload[..]);
        // Partial write: every prefix is rejected.
        for cut in 0..framed.len() {
            assert!(unframe(&framed[..cut]).is_err(), "prefix {cut} accepted");
        }
        // A single flipped payload bit fails the checksum.
        let mut flipped = framed.clone();
        *flipped.last_mut().unwrap() ^= 1;
        assert_eq!(
            unframe(&flipped).unwrap_err(),
            SnapshotError::Corrupt("frame checksum")
        );
        // Wrong magic.
        let mut wrong = framed;
        wrong[0] = b'X';
        assert_eq!(unframe(&wrong).unwrap_err(), SnapshotError::BadMagic);
    }
}
