//! Shared pacing and identity state for generators.

use dramctrl_kernel::snap::{SnapError, SnapReader, SnapState, SnapWriter};
use dramctrl_kernel::Tick;
use dramctrl_mem::ReqId;

/// Issue pacing shared by all generators: a fixed inter-transaction time
/// and a running request id.
///
/// A `period` of zero asks for back-to-back injection (the controller's
/// flow control then sets the pace — used for saturation sweeps).
#[derive(Debug, Clone)]
pub struct Pacer {
    period: Tick,
    next_tick: Tick,
    next_id: u64,
    remaining: u64,
}

impl Pacer {
    /// Creates a pacer issuing `count` requests `period` ticks apart,
    /// starting at tick 0.
    pub fn new(period: Tick, count: u64) -> Self {
        Self {
            period,
            next_tick: 0,
            next_id: 0,
            remaining: count,
        }
    }

    /// Takes the next (tick, id) slot, or `None` when exhausted.
    pub fn take(&mut self) -> Option<(Tick, ReqId)> {
        if self.remaining == 0 {
            return None;
        }
        self.remaining -= 1;
        let slot = (self.next_tick, ReqId(self.next_id));
        self.next_id += 1;
        self.next_tick += self.period;
        Some(slot)
    }

    /// Requests not yet issued.
    pub fn remaining(&self) -> u64 {
        self.remaining
    }
}

impl SnapState for Pacer {
    /// Captures the issue cursor: next tick, next id and the remaining
    /// count. The period is a construction parameter and is not written.
    fn save_state(&self, w: &mut SnapWriter) {
        w.u64(self.next_tick);
        w.u64(self.next_id);
        w.u64(self.remaining);
    }

    fn restore_state(&mut self, r: &mut SnapReader<'_>) -> Result<(), SnapError> {
        self.next_tick = r.u64()?;
        self.next_id = r.u64()?;
        self.remaining = r.u64()?;
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paces_and_numbers() {
        let mut p = Pacer::new(100, 3);
        assert_eq!(p.take(), Some((0, ReqId(0))));
        assert_eq!(p.take(), Some((100, ReqId(1))));
        assert_eq!(p.take(), Some((200, ReqId(2))));
        assert_eq!(p.take(), None);
    }

    #[test]
    fn zero_period_back_to_back() {
        let mut p = Pacer::new(0, 2);
        assert_eq!(p.take(), Some((0, ReqId(0))));
        assert_eq!(p.take(), Some((0, ReqId(1))));
        assert_eq!(p.remaining(), 0);
    }
}
