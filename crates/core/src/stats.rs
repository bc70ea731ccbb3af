//! Controller statistics (paper Section II-E/II-G).

use dramctrl_kernel::snap::{SnapError, SnapReader, SnapState, SnapWriter};
use dramctrl_kernel::{tick, Tick};
use dramctrl_mem::CommonStats;
use dramctrl_stats::{Average, Report};

use crate::config::CtrlConfig;

/// Time-weighted queue-occupancy accumulator.
#[derive(Debug, Clone, Default)]
pub(crate) struct QueueOcc {
    integral: u128,
    last_change: Tick,
    len: usize,
}

impl QueueOcc {
    /// Accounts for the queue holding `self.len` entries up to `now`, then
    /// records the new length.
    pub fn update(&mut self, new_len: usize, now: Tick) {
        if now >= self.last_change {
            self.integral += (self.len as u128) * u128::from(now - self.last_change);
            self.last_change = now;
        }
        self.len = new_len;
    }

    /// Average occupancy over `[0, max(now, last update)]`.
    ///
    /// The integral already covers time up to the last update, so a `now`
    /// that lags behind it (out-of-order queries) must not shrink the
    /// divisor — that would overstate the average.
    pub fn average(&self, now: Tick) -> f64 {
        let end = now.max(self.last_change);
        if end == 0 {
            return self.len as f64;
        }
        let integral =
            self.integral + (self.len as u128) * u128::from(now.saturating_sub(self.last_change));
        integral as f64 / end as f64
    }
}

impl SnapState for QueueOcc {
    fn save_state(&self, w: &mut SnapWriter) {
        w.u128(self.integral);
        w.u64(self.last_change);
        w.usize(self.len);
    }

    fn restore_state(&mut self, r: &mut SnapReader<'_>) -> Result<(), SnapError> {
        self.integral = r.u128()?;
        self.last_change = r.u64()?;
        self.len = r.usize()?;
        Ok(())
    }
}

/// Counters and distributions accumulated by a [`DramCtrl`](crate::DramCtrl).
///
/// The counts both models share (requests, bursts, bytes, row hits, ACT,
/// PRE, REF, bus time) are in `common`, counted from the command stream
/// by [`CommonStats::record`]; the fields here are the event model's own.
/// Latency components are recorded per *read burst*:
/// `queue` (entry to scheduling decision), `bank` (decision to first data
/// beat, covering PRE/ACT/CAS and bus waiting), plus the constant bus
/// (`t_burst`) and static (front+backend) portions — the breakdown shown
/// in paper Figure 9.
#[derive(Debug, Clone, Default)]
pub struct CtrlStats {
    /// The counts shared with the cycle baseline.
    pub common: CommonStats,
    /// Read bursts that hit an open row (the write hits are
    /// `common.row_hits` minus these).
    pub rd_row_hits: u64,
    /// Writes merged into an existing write-queue entry.
    pub merged_writes: u64,
    /// Read bursts serviced from the write queue.
    pub forwarded_reads: u64,
    /// Read-to-write or write-to-read bus turnarounds.
    pub bus_turnarounds: u64,
    /// Precharge power-down episodes entered.
    pub powerdowns: u64,
    /// Self-refresh descents.
    pub self_refreshes: u64,
    /// Internal events processed (the event-based model's unit of work —
    /// contrast with the cycle model's `cycles_simulated`).
    pub events_processed: u64,
    /// Per-read-burst queueing latency (ticks).
    pub queue_lat: Average,
    /// Per-read-burst bank-access latency (ticks).
    pub bank_lat: Average,
    /// Per-read-burst total latency inside the controller (ticks).
    pub total_lat: Average,
    pub(crate) rdq_occ: QueueOcc,
    pub(crate) wrq_occ: QueueOcc,
}

impl CtrlStats {
    /// Write bursts that hit an open row.
    pub fn wr_row_hits(&self) -> u64 {
        self.common.row_hits - self.rd_row_hits
    }

    /// Builds a gem5-style report of all statistics at time `now`.
    pub fn report(&self, prefix: &str, now: Tick, cfg: &CtrlConfig) -> Report {
        let c = &self.common;
        let mut r = Report::new(prefix);
        r.text("device", cfg.spec.name);
        r.counter("reads_accepted", c.reads_accepted);
        r.counter("writes_accepted", c.writes_accepted);
        r.counter("rd_bursts", c.rd_bursts);
        r.counter("wr_bursts", c.wr_bursts);
        r.counter("bytes_read", c.bytes_read);
        r.counter("bytes_written", c.bytes_written);
        r.counter("rd_row_hits", self.rd_row_hits);
        r.counter("wr_row_hits", self.wr_row_hits());
        r.counter("activates", c.activates);
        r.counter("precharges", c.precharges);
        r.counter("refreshes", c.refreshes);
        r.counter("merged_writes", self.merged_writes);
        r.counter("forwarded_reads", self.forwarded_reads);
        r.counter("bus_turnarounds", self.bus_turnarounds);
        r.counter("powerdowns", self.powerdowns);
        r.counter("self_refreshes", self.self_refreshes);
        r.counter("events_processed", self.events_processed);
        r.scalar("page_hit_rate", c.page_hit_rate());
        r.scalar("bus_util", c.bus_utilisation(now));
        r.scalar("bandwidth_gbps", c.bandwidth_gbps(now));
        r.scalar(
            "avg_queue_lat_ns",
            tick::to_ns(self.queue_lat.mean() as Tick),
        );
        r.scalar("avg_bank_lat_ns", tick::to_ns(self.bank_lat.mean() as Tick));
        r.scalar(
            "avg_read_lat_ns",
            tick::to_ns(self.total_lat.mean() as Tick),
        );
        r.scalar("avg_rdq_occupancy", self.rdq_occ.average(now));
        r.scalar("avg_wrq_occupancy", self.wrq_occ.average(now));
        r
    }
}

impl SnapState for CtrlStats {
    fn save_state(&self, w: &mut SnapWriter) {
        let c = &self.common;
        w.u64(c.reads_accepted);
        w.u64(c.writes_accepted);
        w.u64(c.rd_bursts);
        w.u64(c.wr_bursts);
        w.u64(c.bytes_read);
        w.u64(c.bytes_written);
        w.u64(self.rd_row_hits);
        w.u64(self.wr_row_hits());
        w.u64(c.activates);
        w.u64(c.precharges);
        w.u64(c.refreshes);
        w.u64(self.merged_writes);
        w.u64(self.forwarded_reads);
        w.u64(self.bus_turnarounds);
        w.u64(self.powerdowns);
        w.u64(self.self_refreshes);
        w.u64(self.events_processed);
        w.u64(c.bus_busy);
        self.queue_lat.save_state(w);
        self.bank_lat.save_state(w);
        self.total_lat.save_state(w);
        self.rdq_occ.save_state(w);
        self.wrq_occ.save_state(w);
    }

    fn restore_state(&mut self, r: &mut SnapReader<'_>) -> Result<(), SnapError> {
        let c = &mut self.common;
        c.reads_accepted = r.u64()?;
        c.writes_accepted = r.u64()?;
        c.rd_bursts = r.u64()?;
        c.wr_bursts = r.u64()?;
        c.bytes_read = r.u64()?;
        c.bytes_written = r.u64()?;
        self.rd_row_hits = r.u64()?;
        let wr_row_hits = r.u64()?;
        c.row_hits = self.rd_row_hits.checked_add(wr_row_hits).ok_or_else(|| {
            SnapError::Corrupt(format!(
                "row hits {} + {wr_row_hits} overflow",
                self.rd_row_hits
            ))
        })?;
        c.activates = r.u64()?;
        c.precharges = r.u64()?;
        c.refreshes = r.u64()?;
        self.merged_writes = r.u64()?;
        self.forwarded_reads = r.u64()?;
        self.bus_turnarounds = r.u64()?;
        self.powerdowns = r.u64()?;
        self.self_refreshes = r.u64()?;
        self.events_processed = r.u64()?;
        c.bus_busy = r.u64()?;
        self.queue_lat.restore_state(r)?;
        self.bank_lat.restore_state(r)?;
        self.total_lat.restore_state(r)?;
        self.rdq_occ.restore_state(r)?;
        self.wrq_occ.restore_state(r)?;
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn occupancy_time_weighting() {
        let mut occ = QueueOcc::default();
        occ.update(2, 0); // empty over [0,0), then 2 entries
        occ.update(4, 100); // 2 entries over [0,100)
        occ.update(0, 200); // 4 entries over [100,200)
                            // average over [0,200]: (2*100 + 4*100) / 200 = 3
        assert_eq!(occ.average(200), 3.0);
        // extending the window with an empty queue dilutes the average
        assert_eq!(occ.average(400), 1.5);
    }

    #[test]
    fn occupancy_at_time_zero() {
        let mut occ = QueueOcc::default();
        occ.update(5, 0);
        assert_eq!(occ.average(0), 5.0);
    }

    #[test]
    fn occupancy_same_tick_update_replaces_without_double_count() {
        let mut occ = QueueOcc::default();
        occ.update(3, 100); // 0 entries over [0,100)
        occ.update(7, 100); // same tick: zero-width span, len replaced
        occ.update(7, 200); // 7 entries over [100,200)
        assert_eq!(occ.average(200), 3.5);
    }

    #[test]
    fn occupancy_query_behind_last_update_does_not_overstate() {
        let mut occ = QueueOcc::default();
        occ.update(4, 0);
        occ.update(0, 1_000); // integral now covers [0,1000)
                              // Querying at an earlier tick must use the
                              // integrated window, not divide by the stale
                              // `now`: 4*1000 / 1000, not 4*1000 / 10.
        assert_eq!(occ.average(10), 4.0);
        assert_eq!(occ.average(1_000), 4.0);
    }

    #[test]
    fn occupancy_out_of_order_update_is_sane() {
        let mut occ = QueueOcc::default();
        occ.update(2, 1_000); // 0 entries over [0,1000)
        occ.update(6, 500); // earlier tick: no negative span, len applies
                            // from the last in-order change
        occ.update(6, 1_000); // zero-width; still 6 from tick 1000 on
        occ.update(0, 2_000); // 6 entries over [1000,2000)
        assert_eq!(occ.average(2_000), 3.0);
    }

    /// The snapshot keeps read and write row hits apart; their sum is
    /// `common.row_hits`, so a pair that overflows it is refused.
    #[test]
    fn restore_refuses_row_hits_that_overflow() {
        let mut w = SnapWriter::new(0);
        for v in [0, 0, 0, 0, 0, 0, 1, u64::MAX] {
            w.u64(v);
        }
        let bytes = w.into_bytes();
        let mut r = SnapReader::new(&bytes, 0).unwrap();
        let err = CtrlStats::default().restore_state(&mut r).unwrap_err();
        assert!(err.to_string().contains("overflow"), "{err}");
    }

    #[test]
    fn occupancy_zero_query_after_updates_uses_integrated_window() {
        let mut occ = QueueOcc::default();
        occ.update(8, 0);
        occ.update(0, 400); // 8 entries over [0,400)
        assert_eq!(occ.average(0), 8.0);
    }
}
