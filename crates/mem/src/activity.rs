//! Activity summary consumed by the power model.
//!
//! Both controller models (event-based and cycle-based) export the same
//! activity counters, which the Micron power model (paper Section II-G)
//! turns into a power breakdown off-line.

use std::ops::AddAssign;

use dramctrl_kernel::Tick;

use crate::ctrl_if::CommonStats;

/// DRAM activity accumulated over a simulation window.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct ActivityStats {
    /// Length of the window in ticks.
    pub sim_time: Tick,
    /// Row activations issued.
    pub activates: u64,
    /// Precharges issued (explicit and auto).
    pub precharges: u64,
    /// Read bursts transferred on the data bus.
    pub rd_bursts: u64,
    /// Write bursts transferred on the data bus.
    pub wr_bursts: u64,
    /// Refresh operations performed.
    pub refreshes: u64,
    /// Time with *all* banks precharged, summed over ranks (so the maximum
    /// is `sim_time * ranks`).
    pub time_all_banks_precharged: Tick,
    /// Time spent in precharge power-down, summed over ranks (a subset of
    /// `time_all_banks_precharged`).
    pub time_powered_down: Tick,
    /// Time spent in self-refresh, summed over ranks (disjoint from
    /// `time_powered_down`, also a subset of the precharged time).
    pub time_self_refresh: Tick,
    /// Number of ranks contributing to the sums.
    pub ranks: u32,
}

impl ActivityStats {
    /// The command counts of `c` over `[0, sim_time]` on `ranks` ranks,
    /// with the time integrals zero for the model to fill in.
    #[inline]
    pub fn counted(c: &CommonStats, sim_time: Tick, ranks: u32) -> Self {
        ActivityStats {
            sim_time,
            activates: c.activates,
            precharges: c.precharges,
            rd_bursts: c.rd_bursts,
            wr_bursts: c.wr_bursts,
            refreshes: c.refreshes,
            ranks,
            ..ActivityStats::default()
        }
    }

    /// Fraction of time all banks were precharged, averaged over ranks.
    /// Returns 1.0 for an empty window (an idle device is precharged).
    pub fn precharged_fraction(&self) -> f64 {
        if self.sim_time == 0 || self.ranks == 0 {
            return 1.0;
        }
        self.time_all_banks_precharged as f64 / (self.sim_time as f64 * f64::from(self.ranks))
    }

    /// Fraction of time spent in precharge power-down, averaged over
    /// ranks. Zero for an empty window.
    pub fn powered_down_fraction(&self) -> f64 {
        if self.sim_time == 0 || self.ranks == 0 {
            return 0.0;
        }
        self.time_powered_down as f64 / (self.sim_time as f64 * f64::from(self.ranks))
    }

    /// Fraction of time spent in self-refresh, averaged over ranks. Zero
    /// for an empty window.
    pub fn self_refresh_fraction(&self) -> f64 {
        if self.sim_time == 0 || self.ranks == 0 {
            return 0.0;
        }
        self.time_self_refresh as f64 / (self.sim_time as f64 * f64::from(self.ranks))
    }
}

/// Sums the activity of independent parts (crossbar channels, memory
/// tiers): counts, time integrals and ranks add up, and the window is
/// the longest part's.
impl AddAssign for ActivityStats {
    #[inline]
    fn add_assign(&mut self, o: ActivityStats) {
        self.sim_time = self.sim_time.max(o.sim_time);
        self.activates += o.activates;
        self.precharges += o.precharges;
        self.rd_bursts += o.rd_bursts;
        self.wr_bursts += o.wr_bursts;
        self.refreshes += o.refreshes;
        self.time_all_banks_precharged += o.time_all_banks_precharged;
        self.time_powered_down += o.time_powered_down;
        self.time_self_refresh += o.time_self_refresh;
        self.ranks += o.ranks;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn precharged_fraction_bounds() {
        let a = ActivityStats {
            sim_time: 1_000,
            time_all_banks_precharged: 250,
            ranks: 1,
            ..Default::default()
        };
        assert_eq!(a.precharged_fraction(), 0.25);
        assert_eq!(ActivityStats::default().precharged_fraction(), 1.0);
    }

    #[test]
    fn precharged_fraction_multi_rank() {
        let a = ActivityStats {
            sim_time: 1_000,
            time_all_banks_precharged: 1_500,
            ranks: 2,
            ..Default::default()
        };
        assert_eq!(a.precharged_fraction(), 0.75);
    }
}
