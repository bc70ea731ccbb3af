//! Uniformly random traffic.

use crate::{Pacer, TrafficGen};
use dramctrl_kernel::rng::Rng;
use dramctrl_kernel::snap::{SnapError, SnapReader, SnapState, SnapWriter};
use dramctrl_kernel::Tick;
use dramctrl_mem::MemRequest;

/// Generates block-aligned requests at uniformly random addresses within a
/// range (paper Section III-A), defeating row-buffer locality.
#[derive(Debug)]
pub struct RandomGen {
    pacer: Pacer,
    start: u64,
    blocks: u64,
    block: u32,
    read_pct: u8,
    rng: Rng,
}

impl RandomGen {
    /// Creates a random generator over `[start, end)` issuing
    /// `block`-byte aligned requests, `read_pct`% reads, `period` ticks
    /// apart, for `count` requests, seeded with `seed`.
    ///
    /// # Panics
    /// Panics if the range holds no block or `read_pct > 100`.
    pub fn new(
        start: u64,
        end: u64,
        block: u32,
        read_pct: u8,
        period: Tick,
        count: u64,
        seed: u64,
    ) -> Self {
        assert!(block > 0, "block size must be non-zero");
        assert!(read_pct <= 100, "read percentage must be at most 100");
        let blocks = end.saturating_sub(start) / u64::from(block);
        assert!(blocks > 0, "range must hold at least one block");
        Self {
            pacer: Pacer::new(period, count),
            start,
            blocks,
            block,
            read_pct,
            rng: Rng::seed_from_u64(seed),
        }
    }
}

impl SnapState for RandomGen {
    fn save_state(&self, w: &mut SnapWriter) {
        self.pacer.save_state(w);
        self.rng.save_state(w);
    }

    fn restore_state(&mut self, r: &mut SnapReader<'_>) -> Result<(), SnapError> {
        self.pacer.restore_state(r)?;
        self.rng.restore_state(r)
    }
}

impl TrafficGen for RandomGen {
    fn next_request(&mut self) -> Option<(Tick, MemRequest)> {
        let (tick, id) = self.pacer.take()?;
        let addr = self.start + self.rng.gen_range(0..self.blocks) * u64::from(self.block);
        let req = if self.rng.gen_range(0..100) < u64::from(self.read_pct) {
            MemRequest::read(id, addr, self.block)
        } else {
            MemRequest::write(id, addr, self.block)
        };
        Some((tick, req))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn addresses_in_range_and_aligned() {
        let mut g = RandomGen::new(0x1000, 0x9000, 64, 50, 5, 500, 3);
        for (_, r) in std::iter::from_fn(|| g.next_request()) {
            assert!(r.addr >= 0x1000 && r.addr + 64 <= 0x9000);
            assert_eq!(r.addr % 64, 0);
        }
    }

    #[test]
    fn deterministic_for_same_seed() {
        let collect = |seed| {
            let mut g = RandomGen::new(0, 1 << 20, 64, 50, 0, 100, seed);
            std::iter::from_fn(move || g.next_request())
                .map(|(_, r)| (r.addr, r.cmd.is_read()))
                .collect::<Vec<_>>()
        };
        assert_eq!(collect(9), collect(9));
        assert_ne!(collect(9), collect(10));
    }

    #[test]
    fn spreads_over_many_rows() {
        // Random traffic over 64 MB touches many distinct 8 KB rows.
        let mut g = RandomGen::new(0, 64 << 20, 64, 100, 0, 1_000, 1);
        let mut rows: Vec<u64> = std::iter::from_fn(|| g.next_request())
            .map(|(_, r)| r.addr / 8192)
            .collect();
        rows.sort_unstable();
        rows.dedup();
        assert!(rows.len() > 900, "only {} distinct rows", rows.len());
    }

    /// A checkpoint whose generator words were zeroed would replay one
    /// address forever (xoshiro256**'s fixed point): restore refuses it.
    #[test]
    fn restore_refuses_a_zeroed_generator_state() {
        let mut g = RandomGen::new(0, 1 << 20, 64, 50, 0, 100, 5);
        g.next_request();
        let mut w = SnapWriter::new(0);
        g.save_state(&mut w);
        let mut bytes = w.into_bytes();
        let rng_words = bytes.len() - 32;
        bytes[rng_words..].fill(0);
        let mut fresh = RandomGen::new(0, 1 << 20, 64, 50, 0, 100, 5);
        let err = fresh
            .restore_state(&mut SnapReader::new(&bytes, 0).unwrap())
            .unwrap_err();
        assert!(err.to_string().contains("all-zero"), "{err}");
    }
}
