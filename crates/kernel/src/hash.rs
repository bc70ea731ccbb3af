//! Deterministic hashing for simulation-state indices.
//!
//! The standard library's `HashMap` seeds its hasher randomly per process,
//! which makes *iteration order* differ from run to run. Simulation indices
//! must never let such an order leak into scheduling decisions, and the
//! safest way to guarantee that — and to keep two controllers bit-identical
//! under differential testing — is a fixed-seed hasher: same keys, same
//! table layout, same behaviour, every run.
//!
//! [`DetHasher`] is an FxHash-style multiply-rotate hasher (the scheme
//! rustc itself uses for its interned maps): not DoS-resistant, but fast on
//! the small integer keys (addresses, bank/row ids) these indices use.
//! [`finish`](Hasher::finish) rotates the product's high bits down: the
//! low bits of `key × SEED` depend only on the low bits of `key`, and the
//! standard table indexes buckets by the hash's low bits, so without the
//! fold every 64-byte-aligned burst address would start its probe in one
//! of two buckets of a 128-bucket table.
//!
//! Iteration order is a function of the hash and is *not* part of any
//! output: every `DetMap`/`DetSet` in the workspace is probed point-wise
//! or sorted before it is written (`mem::coverage`, `traffic::tester`,
//! `ras::inject` all sort their keys in `save_state`).
//!
//! # Example
//! ```
//! use dramctrl_kernel::hash::DetMap;
//!
//! let mut m: DetMap<u64, u32> = DetMap::default();
//! m.insert(0x80, 1);
//! assert_eq!(m.get(&0x80), Some(&1));
//! ```

use std::collections::{HashMap, HashSet};
use std::hash::{BuildHasherDefault, Hasher};

/// Multiplier from FxHash (a truncated golden-ratio constant).
const SEED: u64 = 0x51_7c_c1_b7_27_22_0a_95;

/// A fixed-seed, deterministic [`Hasher`].
///
/// Identical key sequences produce identical hashes in every process, so
/// maps built on it lay out (and iterate) identically across runs.
#[derive(Debug, Clone, Default)]
pub struct DetHasher {
    hash: u64,
}

impl DetHasher {
    #[inline]
    fn add(&mut self, word: u64) {
        self.hash = (self.hash.rotate_left(5) ^ word).wrapping_mul(SEED);
    }
}

impl Hasher for DetHasher {
    /// The multiply leaves its entropy in the high bits; the table reads
    /// the low ones (bucket index) and the top seven (control byte), so
    /// bring the high bits down and leave mixed ones on top.
    #[inline]
    fn finish(&self) -> u64 {
        self.hash.rotate_left(26)
    }

    #[inline]
    fn write(&mut self, bytes: &[u8]) {
        for chunk in bytes.chunks(8) {
            let mut buf = [0u8; 8];
            buf[..chunk.len()].copy_from_slice(chunk);
            self.add(u64::from_le_bytes(buf));
        }
    }

    #[inline]
    fn write_u8(&mut self, n: u8) {
        self.add(u64::from(n));
    }

    #[inline]
    fn write_u16(&mut self, n: u16) {
        self.add(u64::from(n));
    }

    #[inline]
    fn write_u32(&mut self, n: u32) {
        self.add(u64::from(n));
    }

    #[inline]
    fn write_u64(&mut self, n: u64) {
        self.add(n);
    }

    #[inline]
    fn write_usize(&mut self, n: usize) {
        self.add(n as u64);
    }
}

/// [`std::hash::BuildHasher`] for [`DetHasher`].
pub type DetState = BuildHasherDefault<DetHasher>;

/// A `HashMap` with deterministic (fixed-seed) hashing.
pub type DetMap<K, V> = HashMap<K, V, DetState>;

/// A `HashSet` with deterministic (fixed-seed) hashing.
pub type DetSet<K> = HashSet<K, DetState>;

#[cfg(test)]
mod tests {
    use super::*;
    use std::hash::{BuildHasher, Hash};

    fn hash_of<T: Hash>(v: &T) -> u64 {
        DetState::default().hash_one(v)
    }

    #[test]
    fn same_input_same_hash() {
        assert_eq!(hash_of(&0xdead_beefu64), hash_of(&0xdead_beefu64));
        assert_eq!(hash_of(&(3u32, 7u64)), hash_of(&(3u32, 7u64)));
        assert_eq!(hash_of(&"row"), hash_of(&"row"));
    }

    #[test]
    fn different_inputs_differ() {
        // Not a cryptographic guarantee, but these must not all collide.
        let hs: Vec<u64> = (0u64..64).map(|i| hash_of(&i)).collect();
        let distinct: std::collections::BTreeSet<_> = hs.iter().collect();
        assert_eq!(distinct.len(), hs.len());
    }

    /// Burst-aligned addresses (six zero low bits) spread over a small
    /// table's buckets instead of sharing one or two probe starts.
    #[test]
    fn burst_aligned_keys_spread_over_the_low_bits() {
        let starts: std::collections::BTreeSet<u64> =
            (0u64..64).map(|i| hash_of(&(i * 64)) & 127).collect();
        assert!(starts.len() >= 32, "only {} probe starts", starts.len());
        // And the control byte (top seven bits) is not constant either.
        let tags: std::collections::BTreeSet<u64> =
            (0u64..64).map(|i| hash_of(&(i * 64)) >> 57).collect();
        assert!(tags.len() >= 32, "only {} control bytes", tags.len());
    }

    #[test]
    fn map_iteration_is_reproducible() {
        let build = || {
            let mut m: DetMap<u64, u64> = DetMap::default();
            for i in 0..1_000 {
                m.insert(i * 0x9e37, i);
            }
            m.into_iter().collect::<Vec<_>>()
        };
        assert_eq!(build(), build());
    }

    #[test]
    fn byte_writes_match_chunked_words() {
        // write() must be stable regardless of how the input splits.
        let mut a = DetHasher::default();
        a.write(&[1, 2, 3, 4, 5, 6, 7, 8, 9]);
        let mut b = DetHasher::default();
        b.write(&[1, 2, 3, 4, 5, 6, 7, 8, 9]);
        assert_eq!(a.finish(), b.finish());
    }
}
