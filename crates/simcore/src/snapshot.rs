//! Versioned, checksummed, byte-stable state snapshots (DESIGN.md §14).
//!
//! A snapshot is a flat little-endian byte stream wrapped in a fixed
//! header:
//!
//! ```text
//! magic "HSNP" | version u32 | payload_len u64 | fnv1a(payload) u64 | payload
//! ```
//!
//! The encoding is deliberately primitive — length-prefixed sequences of
//! fixed-width integers, floats stored as their IEEE-754 bit patterns —
//! so the same state always produces the same bytes, on any host, at any
//! thread count. That byte-stability is what makes "resume is
//! byte-identical to the uninterrupted run" a testable contract: two
//! snapshots of equal state compare equal as byte strings, and a trace
//! produced after [`Snapshot::restore`] can be diffed against the
//! original run directly.
//!
//! Readers verify the magic, version, length, and FNV-1a checksum before
//! yielding a single byte of payload ([`SnapshotReader::new`]). The
//! unchecked constructor ([`SnapshotReader::new_unchecked`]) exists only
//! for forensic tooling that wants to poke at a corrupt file; shipping
//! code must never restore state through it — the root `clippy.toml` lists
//! it under `disallowed-methods`, so a call is a Clippy error.

use std::collections::{BTreeMap, BTreeSet, VecDeque};
use std::fmt;

use crate::time::{SimDuration, SimTime};

/// First four bytes of every snapshot file.
pub const SNAPSHOT_MAGIC: [u8; 4] = *b"HSNP";

/// Format version; bump on any incompatible encoding change. Readers
/// refuse other versions rather than guessing.
pub const SNAPSHOT_VERSION: u32 = 1;

/// Byte length of the fixed header (magic + version + length + checksum).
pub const SNAPSHOT_HEADER_LEN: usize = 4 + 4 + 8 + 8;

/// FNV-1a 64-bit offset basis.
pub const FNV_BASIS: u64 = 0xcbf2_9ce4_8422_2325;
/// FNV-1a 64-bit prime.
pub const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;

/// Continue an FNV-1a 64-bit fold whose hash so far is `h` over `bytes`.
/// Folding in pieces equals folding the concatenation, which is what lets
/// trace fingerprints accumulate line by line.
#[inline]
pub fn fnv1a_fold(mut h: u64, bytes: &[u8]) -> u64 {
    for &b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(FNV_PRIME);
    }
    h
}

/// 64-bit FNV-1a — the same fingerprint the trace-hash harness uses, so
/// one hash function covers both artifacts.
pub fn fnv1a(bytes: &[u8]) -> u64 {
    fnv1a_fold(FNV_BASIS, bytes)
}

/// Why a snapshot could not be decoded. Every variant is a *typed*
/// outcome: corruption is detected and reported, never panicked on.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum SnapshotError {
    /// Fewer bytes than the fixed header, or the payload is cut short.
    Truncated { needed: usize, have: usize },
    /// The first four bytes are not `HSNP` — not a snapshot at all.
    BadMagic,
    /// A snapshot, but from an incompatible format version.
    BadVersion { found: u32, supported: u32 },
    /// Header checksum does not match the payload bytes.
    ChecksumMismatch { expected: u64, found: u64 },
    /// Structurally invalid payload (bad tag, length overflow, trailing
    /// bytes, non-UTF-8 string...).
    Malformed(&'static str),
}

impl fmt::Display for SnapshotError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SnapshotError::Truncated { needed, have } => {
                write!(f, "snapshot truncated: need {needed} bytes, have {have}")
            }
            SnapshotError::BadMagic => write!(f, "not a snapshot (bad magic)"),
            SnapshotError::BadVersion { found, supported } => {
                write!(f, "snapshot version {found} unsupported (this build reads v{supported})")
            }
            SnapshotError::ChecksumMismatch { expected, found } => write!(
                f,
                "snapshot checksum mismatch: header says {expected:016x}, payload hashes to {found:016x}"
            ),
            SnapshotError::Malformed(what) => write!(f, "malformed snapshot payload: {what}"),
        }
    }
}

impl std::error::Error for SnapshotError {}

/// Append-only encoder. Build the payload with the `put_*` methods, then
/// [`SnapshotWriter::finish`] wraps it in the checksummed header.
#[derive(Default)]
pub struct SnapshotWriter {
    buf: Vec<u8>,
}

impl SnapshotWriter {
    pub fn new() -> SnapshotWriter {
        SnapshotWriter { buf: Vec::new() }
    }

    pub fn put_u8(&mut self, v: u8) {
        self.buf.push(v);
    }

    pub fn put_u32(&mut self, v: u32) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    pub fn put_u64(&mut self, v: u64) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    pub fn put_i64(&mut self, v: i64) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Floats are stored as raw bit patterns: restore reproduces the
    /// exact value, including -0.0 and every NaN payload.
    pub fn put_f64(&mut self, v: f64) {
        self.put_u64(v.to_bits());
    }

    pub fn put_bool(&mut self, v: bool) {
        self.put_u8(v as u8);
    }

    /// Sequence lengths and other host-width values travel as u64.
    pub fn put_len(&mut self, v: usize) {
        self.put_u64(v as u64);
    }

    pub fn put_str(&mut self, s: &str) {
        self.put_len(s.len());
        self.buf.extend_from_slice(s.as_bytes());
    }

    /// Encode any [`Snapshot`] value in place.
    pub fn put<T: Snapshot>(&mut self, v: &T) {
        v.snapshot(self);
    }

    /// Payload bytes written so far (header not included).
    pub fn payload(&self) -> &[u8] {
        &self.buf
    }

    /// Wrap the payload in the versioned, checksummed header.
    pub fn finish(self) -> Vec<u8> {
        let mut out = Vec::with_capacity(SNAPSHOT_HEADER_LEN + self.buf.len());
        out.extend_from_slice(&SNAPSHOT_MAGIC);
        out.extend_from_slice(&SNAPSHOT_VERSION.to_le_bytes());
        out.extend_from_slice(&(self.buf.len() as u64).to_le_bytes());
        out.extend_from_slice(&fnv1a(&self.buf).to_le_bytes());
        out.extend_from_slice(&self.buf);
        out
    }
}

/// Cursor over a verified snapshot payload.
#[derive(Debug)]
pub struct SnapshotReader<'a> {
    payload: &'a [u8],
    pos: usize,
}

impl<'a> SnapshotReader<'a> {
    /// Open a snapshot, verifying magic, version, length, and checksum
    /// before any payload is exposed. This is the only constructor
    /// shipping code may use.
    pub fn new(bytes: &'a [u8]) -> Result<SnapshotReader<'a>, SnapshotError> {
        let (payload, expected) = Self::parse_header(bytes)?;
        let found = fnv1a(payload);
        if found != expected {
            return Err(SnapshotError::ChecksumMismatch { expected, found });
        }
        Ok(SnapshotReader { payload, pos: 0 })
    }

    /// Open a snapshot *without* checksum verification. Forensics only:
    /// lets tooling inspect a corrupt file's readable prefix. Restoring
    /// live state through this constructor is forbidden (a Clippy error) — a
    /// silently-wrong resume is strictly worse than a failed one.
    pub fn new_unchecked(bytes: &'a [u8]) -> Result<SnapshotReader<'a>, SnapshotError> {
        let (payload, _) = Self::parse_header(bytes)?;
        Ok(SnapshotReader { payload, pos: 0 })
    }

    fn parse_header(bytes: &'a [u8]) -> Result<(&'a [u8], u64), SnapshotError> {
        if bytes.len() < SNAPSHOT_HEADER_LEN {
            return Err(SnapshotError::Truncated { needed: SNAPSHOT_HEADER_LEN, have: bytes.len() });
        }
        if bytes[..4] != SNAPSHOT_MAGIC {
            return Err(SnapshotError::BadMagic);
        }
        let version = u32::from_le_bytes([bytes[4], bytes[5], bytes[6], bytes[7]]);
        if version != SNAPSHOT_VERSION {
            return Err(SnapshotError::BadVersion { found: version, supported: SNAPSHOT_VERSION });
        }
        let mut len8 = [0u8; 8];
        len8.copy_from_slice(&bytes[8..16]);
        let payload_len = u64::from_le_bytes(len8) as usize;
        let mut sum8 = [0u8; 8];
        sum8.copy_from_slice(&bytes[16..24]);
        let checksum = u64::from_le_bytes(sum8);
        let have = bytes.len() - SNAPSHOT_HEADER_LEN;
        if have < payload_len {
            return Err(SnapshotError::Truncated { needed: payload_len, have });
        }
        if have > payload_len {
            return Err(SnapshotError::Malformed("trailing bytes after payload"));
        }
        Ok((&bytes[SNAPSHOT_HEADER_LEN..], checksum))
    }

    fn take(&mut self, n: usize) -> Result<&'a [u8], SnapshotError> {
        let end = self
            .pos
            .checked_add(n)
            .ok_or(SnapshotError::Malformed("length overflow"))?;
        if end > self.payload.len() {
            return Err(SnapshotError::Truncated { needed: end, have: self.payload.len() });
        }
        let s = &self.payload[self.pos..end];
        self.pos = end;
        Ok(s)
    }

    pub fn get_u8(&mut self) -> Result<u8, SnapshotError> {
        Ok(self.take(1)?[0])
    }

    pub fn get_u32(&mut self) -> Result<u32, SnapshotError> {
        let b = self.take(4)?;
        Ok(u32::from_le_bytes([b[0], b[1], b[2], b[3]]))
    }

    pub fn get_u64(&mut self) -> Result<u64, SnapshotError> {
        let b = self.take(8)?;
        let mut a = [0u8; 8];
        a.copy_from_slice(b);
        Ok(u64::from_le_bytes(a))
    }

    pub fn get_i64(&mut self) -> Result<i64, SnapshotError> {
        Ok(self.get_u64()? as i64)
    }

    pub fn get_f64(&mut self) -> Result<f64, SnapshotError> {
        Ok(f64::from_bits(self.get_u64()?))
    }

    pub fn get_bool(&mut self) -> Result<bool, SnapshotError> {
        match self.get_u8()? {
            0 => Ok(false),
            1 => Ok(true),
            _ => Err(SnapshotError::Malformed("bool tag out of range")),
        }
    }

    pub fn get_len(&mut self) -> Result<usize, SnapshotError> {
        let v = self.get_u64()?;
        usize::try_from(v).map_err(|_| SnapshotError::Malformed("length exceeds usize"))
    }

    pub fn get_str(&mut self) -> Result<String, SnapshotError> {
        let n = self.get_len()?;
        let bytes = self.take(n)?;
        String::from_utf8(bytes.to_vec())
            .map_err(|_| SnapshotError::Malformed("string is not UTF-8"))
    }

    /// Decode any [`Snapshot`] value in place.
    pub fn get<T: Snapshot>(&mut self) -> Result<T, SnapshotError> {
        T::restore(self)
    }

    /// Bytes not yet consumed.
    pub fn remaining(&self) -> usize {
        self.payload.len() - self.pos
    }

    /// Assert the payload was consumed exactly — leftover bytes mean the
    /// reader and writer disagree about the schema.
    pub fn finish(self) -> Result<(), SnapshotError> {
        if self.pos != self.payload.len() {
            return Err(SnapshotError::Malformed("payload has unconsumed bytes"));
        }
        Ok(())
    }
}

/// Byte-stable encode/decode for one value. Implementations must be
/// exact inverses: `restore(snapshot(x)) == x`, and equal values must
/// produce equal bytes (the determinism contract rides on this — never
/// iterate an unordered container inside `snapshot`).
pub trait Snapshot: Sized {
    fn snapshot(&self, w: &mut SnapshotWriter);
    fn restore(r: &mut SnapshotReader<'_>) -> Result<Self, SnapshotError>;
}

impl Snapshot for u8 {
    fn snapshot(&self, w: &mut SnapshotWriter) {
        w.put_u8(*self);
    }
    fn restore(r: &mut SnapshotReader<'_>) -> Result<Self, SnapshotError> {
        r.get_u8()
    }
}

impl Snapshot for i8 {
    fn snapshot(&self, w: &mut SnapshotWriter) {
        w.put_u8(*self as u8);
    }
    fn restore(r: &mut SnapshotReader<'_>) -> Result<Self, SnapshotError> {
        Ok(r.get_u8()? as i8)
    }
}

impl Snapshot for u32 {
    fn snapshot(&self, w: &mut SnapshotWriter) {
        w.put_u32(*self);
    }
    fn restore(r: &mut SnapshotReader<'_>) -> Result<Self, SnapshotError> {
        r.get_u32()
    }
}

impl Snapshot for u64 {
    fn snapshot(&self, w: &mut SnapshotWriter) {
        w.put_u64(*self);
    }
    fn restore(r: &mut SnapshotReader<'_>) -> Result<Self, SnapshotError> {
        r.get_u64()
    }
}

impl Snapshot for i64 {
    fn snapshot(&self, w: &mut SnapshotWriter) {
        w.put_i64(*self);
    }
    fn restore(r: &mut SnapshotReader<'_>) -> Result<Self, SnapshotError> {
        r.get_i64()
    }
}

impl Snapshot for usize {
    fn snapshot(&self, w: &mut SnapshotWriter) {
        w.put_len(*self);
    }
    fn restore(r: &mut SnapshotReader<'_>) -> Result<Self, SnapshotError> {
        r.get_len()
    }
}

impl Snapshot for bool {
    fn snapshot(&self, w: &mut SnapshotWriter) {
        w.put_bool(*self);
    }
    fn restore(r: &mut SnapshotReader<'_>) -> Result<Self, SnapshotError> {
        r.get_bool()
    }
}

impl Snapshot for f64 {
    fn snapshot(&self, w: &mut SnapshotWriter) {
        w.put_f64(*self);
    }
    fn restore(r: &mut SnapshotReader<'_>) -> Result<Self, SnapshotError> {
        r.get_f64()
    }
}

impl Snapshot for String {
    fn snapshot(&self, w: &mut SnapshotWriter) {
        w.put_str(self);
    }
    fn restore(r: &mut SnapshotReader<'_>) -> Result<Self, SnapshotError> {
        r.get_str()
    }
}

impl Snapshot for SimTime {
    fn snapshot(&self, w: &mut SnapshotWriter) {
        w.put_u64(self.0);
    }
    fn restore(r: &mut SnapshotReader<'_>) -> Result<Self, SnapshotError> {
        Ok(SimTime(r.get_u64()?))
    }
}

impl Snapshot for SimDuration {
    fn snapshot(&self, w: &mut SnapshotWriter) {
        w.put_u64(self.0);
    }
    fn restore(r: &mut SnapshotReader<'_>) -> Result<Self, SnapshotError> {
        Ok(SimDuration(r.get_u64()?))
    }
}

impl<T: Snapshot> Snapshot for Option<T> {
    fn snapshot(&self, w: &mut SnapshotWriter) {
        match self {
            None => w.put_u8(0),
            Some(v) => {
                w.put_u8(1);
                v.snapshot(w);
            }
        }
    }
    fn restore(r: &mut SnapshotReader<'_>) -> Result<Self, SnapshotError> {
        match r.get_u8()? {
            0 => Ok(None),
            1 => Ok(Some(T::restore(r)?)),
            _ => Err(SnapshotError::Malformed("Option tag out of range")),
        }
    }
}

impl<T: Snapshot> Snapshot for Vec<T> {
    fn snapshot(&self, w: &mut SnapshotWriter) {
        w.put_len(self.len());
        for v in self {
            v.snapshot(w);
        }
    }
    fn restore(r: &mut SnapshotReader<'_>) -> Result<Self, SnapshotError> {
        let n = r.get_len()?;
        let mut out = Vec::new();
        for _ in 0..n {
            out.push(T::restore(r)?);
        }
        Ok(out)
    }
}

impl<T: Snapshot> Snapshot for VecDeque<T> {
    fn snapshot(&self, w: &mut SnapshotWriter) {
        w.put_len(self.len());
        for v in self {
            v.snapshot(w);
        }
    }
    fn restore(r: &mut SnapshotReader<'_>) -> Result<Self, SnapshotError> {
        let n = r.get_len()?;
        let mut out = VecDeque::new();
        for _ in 0..n {
            out.push_back(T::restore(r)?);
        }
        Ok(out)
    }
}

impl<T: Snapshot + Ord> Snapshot for BTreeSet<T> {
    fn snapshot(&self, w: &mut SnapshotWriter) {
        w.put_len(self.len());
        for v in self {
            v.snapshot(w);
        }
    }
    fn restore(r: &mut SnapshotReader<'_>) -> Result<Self, SnapshotError> {
        let n = r.get_len()?;
        let mut out = BTreeSet::new();
        for _ in 0..n {
            out.insert(T::restore(r)?);
        }
        Ok(out)
    }
}

impl<K: Snapshot + Ord, V: Snapshot> Snapshot for BTreeMap<K, V> {
    fn snapshot(&self, w: &mut SnapshotWriter) {
        w.put_len(self.len());
        for (k, v) in self {
            k.snapshot(w);
            v.snapshot(w);
        }
    }
    fn restore(r: &mut SnapshotReader<'_>) -> Result<Self, SnapshotError> {
        let n = r.get_len()?;
        let mut out = BTreeMap::new();
        for _ in 0..n {
            let k = K::restore(r)?;
            let v = V::restore(r)?;
            out.insert(k, v);
        }
        Ok(out)
    }
}

impl<A: Snapshot, B: Snapshot> Snapshot for (A, B) {
    fn snapshot(&self, w: &mut SnapshotWriter) {
        self.0.snapshot(w);
        self.1.snapshot(w);
    }
    fn restore(r: &mut SnapshotReader<'_>) -> Result<Self, SnapshotError> {
        Ok((A::restore(r)?, B::restore(r)?))
    }
}

impl<A: Snapshot, B: Snapshot, C: Snapshot> Snapshot for (A, B, C) {
    fn snapshot(&self, w: &mut SnapshotWriter) {
        self.0.snapshot(w);
        self.1.snapshot(w);
        self.2.snapshot(w);
    }
    fn restore(r: &mut SnapshotReader<'_>) -> Result<Self, SnapshotError> {
        Ok((A::restore(r)?, B::restore(r)?, C::restore(r)?))
    }
}

impl<A: Snapshot, B: Snapshot, C: Snapshot, D: Snapshot> Snapshot for (A, B, C, D) {
    fn snapshot(&self, w: &mut SnapshotWriter) {
        self.0.snapshot(w);
        self.1.snapshot(w);
        self.2.snapshot(w);
        self.3.snapshot(w);
    }
    fn restore(r: &mut SnapshotReader<'_>) -> Result<Self, SnapshotError> {
        Ok((A::restore(r)?, B::restore(r)?, C::restore(r)?, D::restore(r)?))
    }
}

impl Snapshot for telemetry::HistogramStats {
    fn snapshot(&self, w: &mut SnapshotWriter) {
        w.put_u64(self.count);
        w.put_u64(self.sum);
        w.put_u64(self.min);
        w.put_u64(self.max);
        self.buckets.snapshot(w);
    }
    fn restore(r: &mut SnapshotReader<'_>) -> Result<Self, SnapshotError> {
        Ok(telemetry::HistogramStats {
            count: r.get_u64()?,
            sum: r.get_u64()?,
            min: r.get_u64()?,
            max: r.get_u64()?,
            buckets: Vec::restore(r)?,
        })
    }
}

impl Snapshot for telemetry::MetricValue {
    fn snapshot(&self, w: &mut SnapshotWriter) {
        match self {
            telemetry::MetricValue::Counter(v) => {
                w.put_u8(0);
                w.put_u64(*v);
            }
            telemetry::MetricValue::Gauge(v) => {
                w.put_u8(1);
                w.put_i64(*v);
            }
            telemetry::MetricValue::Histogram(h) => {
                w.put_u8(2);
                h.snapshot(w);
            }
        }
    }
    fn restore(r: &mut SnapshotReader<'_>) -> Result<Self, SnapshotError> {
        Ok(match r.get_u8()? {
            0 => telemetry::MetricValue::Counter(r.get_u64()?),
            1 => telemetry::MetricValue::Gauge(r.get_i64()?),
            2 => telemetry::MetricValue::Histogram(telemetry::HistogramStats::restore(r)?),
            _ => return Err(SnapshotError::Malformed("MetricValue tag out of range")),
        })
    }
}

impl Snapshot for telemetry::MetricsSnapshot {
    fn snapshot(&self, w: &mut SnapshotWriter) {
        self.metrics.snapshot(w);
    }
    fn restore(r: &mut SnapshotReader<'_>) -> Result<Self, SnapshotError> {
        Ok(telemetry::MetricsSnapshot { metrics: Vec::restore(r)? })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn roundtrip<T: Snapshot + PartialEq + std::fmt::Debug>(v: T) {
        let mut w = SnapshotWriter::new();
        w.put(&v);
        let bytes = w.finish();
        let mut r = SnapshotReader::new(&bytes).expect("checked open");
        let back: T = r.get().expect("decode");
        assert_eq!(back, v);
        r.finish().expect("fully consumed");
    }

    #[test]
    fn metrics_snapshot_round_trips() {
        let registry = telemetry::MetricsRegistry::new();
        registry.counter("batch.jobs.completed").add(5);
        registry.gauge("batch.queue.peak").set(11);
        registry.histogram("batch.wait.us").record(321);
        roundtrip(registry.snapshot());
        roundtrip(telemetry::MetricsSnapshot::default());
    }

    #[test]
    fn primitives_round_trip() {
        roundtrip(0u8);
        roundtrip(-5i8);
        roundtrip(123456789u32);
        roundtrip(u64::MAX);
        roundtrip(-42i64);
        roundtrip(usize::MAX);
        roundtrip(true);
        roundtrip(core::f64::consts::PI);
        roundtrip(-0.0f64);
        roundtrip("héllo wörld".to_string());
        roundtrip(SimTime(17));
        roundtrip(SimDuration(99));
    }

    #[test]
    fn nan_bit_pattern_survives() {
        let v = f64::from_bits(0x7ff8_dead_beef_0001);
        let mut w = SnapshotWriter::new();
        w.put_f64(v);
        let bytes = w.finish();
        let mut r = SnapshotReader::new(&bytes).unwrap();
        assert_eq!(r.get_f64().unwrap().to_bits(), v.to_bits());
    }

    #[test]
    fn containers_round_trip() {
        roundtrip(vec![1u64, 2, 3]);
        roundtrip(Option::<u64>::None);
        roundtrip(Some(7u64));
        roundtrip(VecDeque::from(vec![1.5f64, -2.5]));
        roundtrip(BTreeSet::from([3u64, 1, 2]));
        roundtrip(BTreeMap::from([(1u64, "a".to_string()), (2, "b".to_string())]));
        roundtrip((1u32, 2u64, true, -1i64));
    }

    #[test]
    fn equal_state_equal_bytes() {
        let enc = |m: &BTreeMap<u64, f64>| {
            let mut w = SnapshotWriter::new();
            w.put(m);
            w.finish()
        };
        // Different insertion orders, same map — same bytes.
        let mut a = BTreeMap::new();
        a.insert(2u64, 0.5);
        a.insert(1u64, 1.5);
        let mut b = BTreeMap::new();
        b.insert(1u64, 1.5);
        b.insert(2u64, 0.5);
        assert_eq!(enc(&a), enc(&b));
    }

    #[test]
    #[expect(
        clippy::disallowed_methods,
        reason = "the test shows the forensic constructor opens what the checked one rejects"
    )]
    fn corruption_is_detected() {
        let mut w = SnapshotWriter::new();
        w.put_u64(42);
        w.put_str("state");
        let mut bytes = w.finish();
        // Flip one payload byte: checked open fails with a checksum error.
        let last = bytes.len() - 1;
        bytes[last] ^= 0xff;
        match SnapshotReader::new(&bytes) {
            Err(SnapshotError::ChecksumMismatch { .. }) => {}
            other => panic!("want checksum mismatch, got {other:?}"),
        }
        // The forensic constructor still opens it.
        assert!(SnapshotReader::new_unchecked(&bytes).is_ok());
    }

    #[test]
    fn truncation_bad_magic_and_version_are_detected() {
        let mut w = SnapshotWriter::new();
        w.put_u64(42);
        let bytes = w.finish();

        match SnapshotReader::new(&bytes[..10]) {
            Err(SnapshotError::Truncated { .. }) => {}
            other => panic!("want truncated, got {other:?}"),
        }
        match SnapshotReader::new(&bytes[..bytes.len() - 4]) {
            Err(SnapshotError::Truncated { .. }) => {}
            other => panic!("want truncated payload, got {other:?}"),
        }

        let mut magic = bytes.clone();
        magic[0] = b'X';
        match SnapshotReader::new(&magic) {
            Err(SnapshotError::BadMagic) => {}
            other => panic!("want bad magic, got {other:?}"),
        }

        let mut version = bytes.clone();
        version[4] = 99;
        match SnapshotReader::new(&version) {
            Err(SnapshotError::BadVersion { found: 99, supported: SNAPSHOT_VERSION }) => {}
            other => panic!("want bad version, got {other:?}"),
        }
    }

    #[test]
    fn trailing_bytes_are_malformed() {
        let mut w = SnapshotWriter::new();
        w.put_u64(1);
        let mut bytes = w.finish();
        bytes.push(0);
        match SnapshotReader::new(&bytes) {
            Err(SnapshotError::Malformed(_)) => {}
            other => panic!("want malformed, got {other:?}"),
        }
    }

    #[test]
    fn unconsumed_payload_fails_finish() {
        let mut w = SnapshotWriter::new();
        w.put_u64(1);
        w.put_u64(2);
        let bytes = w.finish();
        let mut r = SnapshotReader::new(&bytes).unwrap();
        let _ = r.get_u64().unwrap();
        assert!(r.finish().is_err());
    }
}
