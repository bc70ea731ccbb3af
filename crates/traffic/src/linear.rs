//! Sequential-address traffic.

use crate::{Pacer, TrafficGen};
use dramctrl_kernel::rng::Rng;
use dramctrl_kernel::snap::{SnapError, SnapReader, SnapState, SnapWriter};
use dramctrl_kernel::Tick;
use dramctrl_mem::MemRequest;

/// Generates bursts with a sequential address stream (paper Section
/// III-A), wrapping at the end of the range. The read/write mix is chosen
/// per request from a seeded RNG.
///
/// # Example
/// ```
/// use dramctrl_traffic::{LinearGen, TrafficGen};
///
/// let mut g = LinearGen::new(0x0, 0x1000, 64, 100, 0, 4, 1);
/// let addrs: Vec<u64> = std::iter::from_fn(|| g.next_request())
///     .map(|(_, r)| r.addr)
///     .collect();
/// assert_eq!(addrs, vec![0, 64, 128, 192]);
/// ```
#[derive(Debug)]
pub struct LinearGen {
    pacer: Pacer,
    start: u64,
    end: u64,
    block: u32,
    read_pct: u8,
    cur: u64,
    rng: Rng,
}

impl LinearGen {
    /// Creates a linear generator over `[start, end)` issuing
    /// `block`-byte requests, `read_pct`% of them reads, `period` ticks
    /// apart, for `count` requests, seeded with `seed`.
    ///
    /// # Panics
    /// Panics if the range is empty, `block` is zero or `read_pct > 100`.
    pub fn new(
        start: u64,
        end: u64,
        block: u32,
        read_pct: u8,
        period: Tick,
        count: u64,
        seed: u64,
    ) -> Self {
        assert!(end > start, "address range must be non-empty");
        assert!(block > 0, "block size must be non-zero");
        assert!(read_pct <= 100, "read percentage must be at most 100");
        assert!(
            end - start >= u64::from(block),
            "range must hold at least one block"
        );
        Self {
            pacer: Pacer::new(period, count),
            start,
            end,
            block,
            read_pct,
            cur: start,
            rng: Rng::seed_from_u64(seed),
        }
    }
}

impl SnapState for LinearGen {
    fn save_state(&self, w: &mut SnapWriter) {
        self.pacer.save_state(w);
        w.u64(self.cur);
        self.rng.save_state(w);
    }

    fn restore_state(&mut self, r: &mut SnapReader<'_>) -> Result<(), SnapError> {
        self.pacer.restore_state(r)?;
        let cur = r.u64()?;
        if cur < self.start || cur > self.end {
            return Err(SnapError::Corrupt(format!(
                "linear cursor {cur:#x} outside the address range"
            )));
        }
        self.cur = cur;
        self.rng.restore_state(r)
    }
}

impl TrafficGen for LinearGen {
    fn next_request(&mut self) -> Option<(Tick, MemRequest)> {
        let (tick, id) = self.pacer.take()?;
        if self.cur + u64::from(self.block) > self.end {
            self.cur = self.start; // wrap
        }
        let addr = self.cur;
        self.cur += u64::from(self.block);
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
    fn wraps_at_range_end() {
        let mut g = LinearGen::new(0, 128, 64, 100, 10, 5, 0);
        let addrs: Vec<_> = std::iter::from_fn(|| g.next_request())
            .map(|(_, r)| r.addr)
            .collect();
        assert_eq!(addrs, vec![0, 64, 0, 64, 0]);
    }

    #[test]
    fn read_pct_zero_is_all_writes() {
        let mut g = LinearGen::new(0, 4096, 64, 0, 0, 20, 7);
        assert!(std::iter::from_fn(|| g.next_request()).all(|(_, r)| r.cmd.is_write()));
    }

    #[test]
    fn read_pct_hundred_is_all_reads() {
        let mut g = LinearGen::new(0, 4096, 64, 100, 0, 20, 7);
        assert!(std::iter::from_fn(|| g.next_request()).all(|(_, r)| r.cmd.is_read()));
    }

    #[test]
    fn mixed_ratio_roughly_respected() {
        let mut g = LinearGen::new(0, 1 << 20, 64, 50, 0, 2_000, 42);
        let reads = std::iter::from_fn(|| g.next_request())
            .filter(|(_, r)| r.cmd.is_read())
            .count();
        assert!((800..1_200).contains(&reads), "reads = {reads}");
    }

    #[test]
    #[should_panic(expected = "non-empty")]
    fn empty_range_panics() {
        let _ = LinearGen::new(64, 64, 64, 100, 0, 1, 0);
    }
}
