//! Versioned, dependency-free binary snapshots for crash-safe simulation.
//!
//! A snapshot is a flat little-endian byte stream behind a fixed header:
//!
//! | offset | bytes | field                                     |
//! |--------|-------|-------------------------------------------|
//! | 0      | 4     | magic `"DCKP"`                            |
//! | 4      | 4     | format version (`u32`, currently 2)       |
//! | 8      | 8     | configuration fingerprint (`u64`)         |
//! | 16     | …     | component state, written by [`SnapState`] |
//!
//! The fingerprint is a hash of the *configuration* the state was captured
//! under (device spec, policies, workload parameters, seeds). Restoring
//! against a different configuration would silently diverge, so
//! [`SnapReader::new`] refuses a mismatched fingerprint loudly instead.
//!
//! The format deliberately has no self-describing field tags: every
//! component writes and reads its fields in one fixed order, and the
//! version number in the header is bumped whenever any component's layout
//! changes. That keeps snapshots byte-deterministic (the same state always
//! serialises to the same bytes) and the code dependency-free.

use std::fmt;

/// Magic bytes opening every snapshot file.
pub const SNAP_MAGIC: [u8; 4] = *b"DCKP";

/// Current snapshot format version. Bump on any layout change — there is
/// deliberately no cross-version migration, only loud rejection.
pub const SNAP_VERSION: u32 = 2;

/// Why a snapshot could not be restored.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SnapError {
    /// The buffer does not start with [`SNAP_MAGIC`].
    BadMagic,
    /// The snapshot was written by a different format version.
    Version {
        /// Version found in the header.
        found: u32,
    },
    /// The snapshot was captured under a different configuration.
    Fingerprint {
        /// Fingerprint the restoring configuration hashes to.
        expected: u64,
        /// Fingerprint found in the header.
        found: u64,
    },
    /// The buffer ended before the expected state did.
    Truncated,
    /// A decoded value violated an invariant of the component being
    /// restored.
    Corrupt(String),
}

impl fmt::Display for SnapError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SnapError::BadMagic => write!(f, "not a dramctrl checkpoint (bad magic)"),
            SnapError::Version { found } => write!(
                f,
                "checkpoint format version {found} is not the supported version {SNAP_VERSION}"
            ),
            SnapError::Fingerprint { expected, found } => write!(
                f,
                "checkpoint was taken under a different configuration \
                 (fingerprint {found:#018x}, this configuration is {expected:#018x})"
            ),
            SnapError::Truncated => write!(f, "checkpoint is truncated"),
            SnapError::Corrupt(why) => write!(f, "checkpoint is corrupt: {why}"),
        }
    }
}

impl std::error::Error for SnapError {}

/// FNV-1a over `bytes`: the configuration fingerprint hash. Stable across
/// platforms and processes; not cryptographic (a checkpoint is trusted
/// input, the fingerprint only guards against honest mistakes).
#[must_use]
pub fn fingerprint(bytes: &[u8]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// Serialises component state into a snapshot byte stream.
#[derive(Debug)]
pub struct SnapWriter {
    buf: Vec<u8>,
}

impl SnapWriter {
    /// Starts a snapshot for a configuration hashing to `fingerprint`.
    #[must_use]
    pub fn new(fingerprint: u64) -> Self {
        let mut buf = Vec::with_capacity(4096);
        buf.extend_from_slice(&SNAP_MAGIC);
        buf.extend_from_slice(&SNAP_VERSION.to_le_bytes());
        buf.extend_from_slice(&fingerprint.to_le_bytes());
        Self { buf }
    }

    /// Finishes the snapshot and returns its bytes.
    #[must_use]
    pub fn into_bytes(self) -> Vec<u8> {
        self.buf
    }

    /// Writes one byte.
    pub fn u8(&mut self, v: u8) {
        self.buf.push(v);
    }

    /// Writes a `u16`, little-endian.
    pub fn u16(&mut self, v: u16) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Writes a `u32`, little-endian.
    pub fn u32(&mut self, v: u32) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Writes a `u64`, little-endian.
    pub fn u64(&mut self, v: u64) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Writes a `u128`, little-endian.
    pub fn u128(&mut self, v: u128) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Writes a `usize` as a `u64`.
    pub fn usize(&mut self, v: usize) {
        self.u64(v as u64);
    }

    /// Writes a `bool` as one byte.
    pub fn bool(&mut self, v: bool) {
        self.u8(u8::from(v));
    }

    /// Writes an `f64` bit-exactly (`to_bits`), so restored floating-point
    /// statistics reproduce byte-identical reports.
    pub fn f64(&mut self, v: f64) {
        self.u64(v.to_bits());
    }

    /// Writes an `Option<u64>` as a presence byte plus the value.
    pub fn opt_u64(&mut self, v: Option<u64>) {
        match v {
            Some(v) => {
                self.bool(true);
                self.u64(v);
            }
            None => self.bool(false),
        }
    }

    /// Writes a length-prefixed UTF-8 string.
    pub fn str(&mut self, s: &str) {
        self.usize(s.len());
        self.buf.extend_from_slice(s.as_bytes());
    }
}

/// Deserialises component state from a snapshot byte stream, validating
/// the header first.
#[derive(Debug)]
pub struct SnapReader<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> SnapReader<'a> {
    /// Opens `buf`, checking magic, version and the configuration
    /// fingerprint against `expected_fingerprint`.
    ///
    /// # Errors
    /// Returns the specific [`SnapError`] for a bad magic, an unsupported
    /// version or a fingerprint mismatch.
    pub fn new(buf: &'a [u8], expected_fingerprint: u64) -> Result<Self, SnapError> {
        let mut r = Self { buf, pos: 0 };
        let mut magic = [0u8; 4];
        for m in &mut magic {
            *m = r.u8()?;
        }
        if magic != SNAP_MAGIC {
            return Err(SnapError::BadMagic);
        }
        let version = r.u32()?;
        if version != SNAP_VERSION {
            return Err(SnapError::Version { found: version });
        }
        let found = r.u64()?;
        if found != expected_fingerprint {
            return Err(SnapError::Fingerprint {
                expected: expected_fingerprint,
                found,
            });
        }
        Ok(r)
    }

    /// Whether every byte has been consumed — a restore that leaves bytes
    /// behind read a snapshot of something else.
    #[must_use]
    pub fn is_exhausted(&self) -> bool {
        self.pos == self.buf.len()
    }

    fn take(&mut self, n: usize) -> Result<&'a [u8], SnapError> {
        let end = self.pos.checked_add(n).ok_or(SnapError::Truncated)?;
        if end > self.buf.len() {
            return Err(SnapError::Truncated);
        }
        let s = &self.buf[self.pos..end];
        self.pos = end;
        Ok(s)
    }

    /// Reads one byte.
    pub fn u8(&mut self) -> Result<u8, SnapError> {
        Ok(self.take(1)?[0])
    }

    /// Reads a `u16`.
    pub fn u16(&mut self) -> Result<u16, SnapError> {
        Ok(u16::from_le_bytes(self.take(2)?.try_into().unwrap()))
    }

    /// Reads a `u32`.
    pub fn u32(&mut self) -> Result<u32, SnapError> {
        Ok(u32::from_le_bytes(self.take(4)?.try_into().unwrap()))
    }

    /// Reads a `u64`.
    pub fn u64(&mut self) -> Result<u64, SnapError> {
        Ok(u64::from_le_bytes(self.take(8)?.try_into().unwrap()))
    }

    /// Reads a `u128`.
    pub fn u128(&mut self) -> Result<u128, SnapError> {
        Ok(u128::from_le_bytes(self.take(16)?.try_into().unwrap()))
    }

    /// Reads a `usize` (stored as `u64`).
    pub fn usize(&mut self) -> Result<usize, SnapError> {
        let v = self.u64()?;
        usize::try_from(v).map_err(|_| SnapError::Corrupt(format!("length {v} exceeds usize")))
    }

    /// Reads a `bool`, rejecting anything but 0 or 1.
    pub fn bool(&mut self) -> Result<bool, SnapError> {
        match self.u8()? {
            0 => Ok(false),
            1 => Ok(true),
            other => Err(SnapError::Corrupt(format!("bool byte {other}"))),
        }
    }

    /// Reads a bit-exact `f64`.
    pub fn f64(&mut self) -> Result<f64, SnapError> {
        Ok(f64::from_bits(self.u64()?))
    }

    /// Reads an `Option<u64>`.
    pub fn opt_u64(&mut self) -> Result<Option<u64>, SnapError> {
        if self.bool()? {
            Ok(Some(self.u64()?))
        } else {
            Ok(None)
        }
    }

    /// Reads a length-prefixed UTF-8 string.
    pub fn str(&mut self) -> Result<String, SnapError> {
        let len = self.usize()?;
        let bytes = self.take(len)?;
        String::from_utf8(bytes.to_vec())
            .map_err(|_| SnapError::Corrupt("string is not UTF-8".into()))
    }
}

/// A component whose dynamic state can be captured into a snapshot and
/// restored into a freshly constructed instance.
///
/// The contract is split deliberately: *configuration* is rebuilt by the
/// caller (construct the component from its `Config` first), then
/// `restore_state` overwrites the dynamic state. After a restore the
/// component must behave byte-identically to the instance that was saved —
/// same future event order, same statistics, same random streams.
pub trait SnapState {
    /// Appends this component's dynamic state to `w`.
    fn save_state(&self, w: &mut SnapWriter);

    /// Overwrites this component's dynamic state from `r`.
    ///
    /// # Errors
    /// Returns a [`SnapError`] if the stream is truncated or violates one
    /// of the component's invariants.
    fn restore_state(&mut self, r: &mut SnapReader<'_>) -> Result<(), SnapError>;
}

impl<T: SnapState + ?Sized> SnapState for Box<T> {
    fn save_state(&self, w: &mut SnapWriter) {
        (**self).save_state(w);
    }

    fn restore_state(&mut self, r: &mut SnapReader<'_>) -> Result<(), SnapError> {
        (**self).restore_state(r)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn round_trips_primitives() {
        let mut w = SnapWriter::new(7);
        w.u8(0xAB);
        w.u16(0xCDEF);
        w.u32(123);
        w.u64(u64::MAX);
        w.u128(1 << 100);
        w.usize(42);
        w.bool(true);
        w.bool(false);
        w.f64(-0.0);
        w.f64(f64::NAN);
        w.opt_u64(Some(5));
        w.opt_u64(None);
        w.str("héllo");
        let bytes = w.into_bytes();

        let mut r = SnapReader::new(&bytes, 7).unwrap();
        assert_eq!(r.u8().unwrap(), 0xAB);
        assert_eq!(r.u16().unwrap(), 0xCDEF);
        assert_eq!(r.u32().unwrap(), 123);
        assert_eq!(r.u64().unwrap(), u64::MAX);
        assert_eq!(r.u128().unwrap(), 1 << 100);
        assert_eq!(r.usize().unwrap(), 42);
        assert!(r.bool().unwrap());
        assert!(!r.bool().unwrap());
        // Bit-exact floats: -0.0 and NaN survive with their exact bits.
        assert_eq!(r.f64().unwrap().to_bits(), (-0.0f64).to_bits());
        assert!(r.f64().unwrap().is_nan());
        assert_eq!(r.opt_u64().unwrap(), Some(5));
        assert_eq!(r.opt_u64().unwrap(), None);
        assert_eq!(r.str().unwrap(), "héllo");
        assert!(r.is_exhausted());
    }

    #[test]
    fn header_is_validated() {
        let bytes = SnapWriter::new(1).into_bytes();
        assert!(SnapReader::new(&bytes, 1).is_ok());
        assert_eq!(
            SnapReader::new(&bytes, 2).map(|_| ()).unwrap_err(),
            SnapError::Fingerprint {
                expected: 2,
                found: 1
            },
        );

        let mut bad_magic = bytes.clone();
        bad_magic[0] = b'X';
        assert!(matches!(
            SnapReader::new(&bad_magic, 1),
            Err(SnapError::BadMagic)
        ));

        let mut bad_version = bytes.clone();
        bad_version[4] = 0xFF;
        assert!(matches!(
            SnapReader::new(&bad_version, 1),
            Err(SnapError::Version { .. })
        ));

        assert!(matches!(
            SnapReader::new(&bytes[..10], 1),
            Err(SnapError::Truncated)
        ));
    }

    #[test]
    fn truncation_and_corruption_are_detected() {
        let mut w = SnapWriter::new(0);
        w.u64(9);
        let bytes = w.into_bytes();
        let mut r = SnapReader::new(&bytes[..bytes.len() - 1], 0).unwrap();
        assert_eq!(r.u64(), Err(SnapError::Truncated));

        let mut w = SnapWriter::new(0);
        w.u8(7); // not a valid bool
        let bytes = w.into_bytes();
        let mut r = SnapReader::new(&bytes, 0).unwrap();
        assert!(matches!(r.bool(), Err(SnapError::Corrupt(_))));
    }

    #[test]
    fn fingerprint_is_stable_and_input_sensitive() {
        assert_eq!(fingerprint(b"abc"), fingerprint(b"abc"));
        assert_ne!(fingerprint(b"abc"), fingerprint(b"abd"));
        // The canonical FNV-1a 64 test vector.
        assert_eq!(fingerprint(b""), 0xcbf2_9ce4_8422_2325);
    }

    #[test]
    fn error_messages_name_the_cause() {
        let msg = SnapError::Fingerprint {
            expected: 1,
            found: 2,
        }
        .to_string();
        assert!(msg.contains("different configuration"));
        assert!(SnapError::Truncated.to_string().contains("truncated"));
    }
}
