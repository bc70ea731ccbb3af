//! A small, deterministic pseudo-random number generator.
//!
//! The simulator family needs reproducible randomness (traffic generators,
//! workload models, randomised tests) without pulling in an external crate:
//! the same seed must produce the same stream on every platform, toolchain
//! and — crucially for the campaign engine — every worker-thread count.
//!
//! The implementation is xoshiro256** (Blackman & Vigna), seeded through
//! SplitMix64 so that consecutive integer seeds yield well-decorrelated
//! streams.
//!
//! # Example
//!
//! ```
//! use dramctrl_kernel::rng::Rng;
//!
//! let mut a = Rng::seed_from_u64(7);
//! let mut b = Rng::seed_from_u64(7);
//! assert_eq!(a.next_u64(), b.next_u64());
//! assert!(a.gen_range(0..10) < 10);
//! let x = a.gen_f64();
//! assert!((0.0..1.0).contains(&x));
//! ```

/// A deterministic xoshiro256** generator.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Rng {
    s: [u64; 4],
}

/// One step of SplitMix64 — used for seeding and for hashing job indices
/// into decorrelated per-job seeds.
#[must_use]
pub fn splitmix64(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

impl Rng {
    /// Creates a generator from a 64-bit seed via SplitMix64 expansion.
    #[must_use]
    pub fn seed_from_u64(seed: u64) -> Self {
        let mut sm = seed;
        let s = [
            splitmix64(&mut sm),
            splitmix64(&mut sm),
            splitmix64(&mut sm),
            splitmix64(&mut sm),
        ];
        Self { s }
    }

    /// The next 64 uniformly random bits.
    pub fn next_u64(&mut self) -> u64 {
        let [s0, s1, s2, s3] = self.s;
        let result = s1.wrapping_mul(5).rotate_left(7).wrapping_mul(9);
        let t = s1 << 17;
        let mut s2 = s2 ^ s0;
        let s3 = s3 ^ s1;
        let s1 = s1 ^ s2;
        let s0 = s0 ^ s3;
        s2 ^= t;
        self.s = [s0, s1, s2, s3.rotate_left(45)];
        result
    }

    /// A uniform draw from `range` (debiased by rejection sampling).
    ///
    /// # Panics
    /// Panics when the range is empty.
    #[inline]
    pub fn gen_range(&mut self, range: std::ops::Range<u64>) -> u64 {
        assert!(range.start < range.end, "gen_range: empty range");
        let span = range.end - range.start;
        if span.is_power_of_two() {
            return range.start + (self.next_u64() & (span - 1));
        }
        // Rejection-sample the top of the u64 space to avoid modulo bias.
        let zone = u64::MAX - (u64::MAX % span) - 1;
        loop {
            let v = self.next_u64();
            if v <= zone {
                return range.start + v % span;
            }
        }
    }

    /// A uniform draw from the inclusive `range`.
    ///
    /// # Panics
    /// Panics when the range is empty.
    pub fn gen_range_inclusive(&mut self, range: std::ops::RangeInclusive<u64>) -> u64 {
        let (lo, hi) = (*range.start(), *range.end());
        assert!(lo <= hi, "gen_range_inclusive: empty range");
        if lo == 0 && hi == u64::MAX {
            return self.next_u64();
        }
        self.gen_range(lo..hi + 1)
    }

    /// A uniform `f64` in `[0, 1)` with 53 bits of precision.
    pub fn gen_f64(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }

    /// A uniform `bool`.
    pub fn gen_bool(&mut self) -> bool {
        self.next_u64() & 1 == 1
    }

    /// The raw xoshiro256** state, for checkpointing. A generator rebuilt
    /// with [`from_state`](Self::from_state) continues the exact stream.
    #[must_use]
    pub fn state(&self) -> [u64; 4] {
        self.s
    }

    /// Rebuilds a generator from a state captured by
    /// [`state`](Self::state).
    #[must_use]
    pub fn from_state(s: [u64; 4]) -> Self {
        Self { s }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn deterministic_per_seed() {
        let mut a = Rng::seed_from_u64(42);
        let mut b = Rng::seed_from_u64(42);
        for _ in 0..100 {
            assert_eq!(a.next_u64(), b.next_u64());
        }
        let mut c = Rng::seed_from_u64(43);
        assert_ne!(Rng::seed_from_u64(42).next_u64(), c.next_u64());
    }

    #[test]
    fn range_bounds_respected() {
        let mut r = Rng::seed_from_u64(1);
        for _ in 0..10_000 {
            let v = r.gen_range(10..17);
            assert!((10..17).contains(&v));
        }
    }

    #[test]
    fn range_covers_all_values() {
        let mut r = Rng::seed_from_u64(2);
        let mut seen = [false; 7];
        for _ in 0..1_000 {
            seen[r.gen_range(0..7) as usize] = true;
        }
        assert!(seen.iter().all(|&s| s), "all residues reachable: {seen:?}");
    }

    #[test]
    fn f64_in_unit_interval() {
        let mut r = Rng::seed_from_u64(3);
        let mut sum = 0.0;
        for _ in 0..10_000 {
            let x = r.gen_f64();
            assert!((0.0..1.0).contains(&x));
            sum += x;
        }
        // Mean of U(0,1) is 0.5; loose bound to stay robust.
        assert!((sum / 10_000.0 - 0.5).abs() < 0.02);
    }

    #[test]
    #[should_panic(expected = "empty range")]
    fn empty_range_panics() {
        Rng::seed_from_u64(0).gen_range(5..5);
    }

    #[test]
    fn state_round_trip_continues_the_stream() {
        let mut a = Rng::seed_from_u64(99);
        for _ in 0..10 {
            a.next_u64();
        }
        let mut b = Rng::from_state(a.state());
        for _ in 0..100 {
            assert_eq!(a.next_u64(), b.next_u64());
        }
    }

    #[test]
    fn splitmix_decorrelates_consecutive_seeds() {
        let mut a = 1u64;
        let mut b = 2u64;
        let (x, y) = (splitmix64(&mut a), splitmix64(&mut b));
        assert_ne!(x, y);
        assert_ne!(x ^ y, 1, "not a trivial xor relation");
    }
}
