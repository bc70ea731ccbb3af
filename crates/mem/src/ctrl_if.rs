//! The common controller interface.
//!
//! The validation experiments (paper Section III) drive two very different
//! controller models — the event-based model and a cycle-based
//! DRAMSim2-style baseline — with identical traffic. This trait is the
//! pull-style interface both implement, so generators, testers and the
//! system model are generic over the controller.

use dramctrl_kernel::Tick;
use dramctrl_stats::Report;

use crate::activity::ActivityStats;
use crate::packet::{MemCmd, MemRequest, MemResponse};
use crate::spec::MemSpec;

/// Why a controller refused a request.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Rejected {
    /// No queue space; retry after progress.
    Full,
    /// The request can never fit the controller's queues.
    TooLarge,
}

impl std::fmt::Display for Rejected {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Rejected::Full => write!(f, "controller queue full"),
            Rejected::TooLarge => write!(f, "request larger than controller queues"),
        }
    }
}

impl std::error::Error for Rejected {}

/// Counters shared by all controller implementations, used by the
/// validation figures.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct CommonStats {
    /// Read requests accepted.
    pub reads_accepted: u64,
    /// Write requests accepted.
    pub writes_accepted: u64,
    /// Read bursts serviced by the DRAM.
    pub rd_bursts: u64,
    /// Write bursts serviced by the DRAM.
    pub wr_bursts: u64,
    /// Bytes read.
    pub bytes_read: u64,
    /// Bytes written.
    pub bytes_written: u64,
    /// Bursts that hit an open row.
    pub row_hits: u64,
    /// Row activations.
    pub activates: u64,
    /// Accumulated data-bus busy time.
    pub bus_busy: Tick,
    /// Sum of per-read-burst latencies inside the controller, in ticks
    /// (divide by `rd_bursts` for the mean — see
    /// [`avg_read_lat`](CommonStats::avg_read_lat)).
    pub read_lat_sum: f64,
}

impl CommonStats {
    /// Data-bus utilisation over `[0, now]`.
    pub fn bus_utilisation(&self, now: Tick) -> f64 {
        if now == 0 {
            0.0
        } else {
            self.bus_busy as f64 / now as f64
        }
    }

    /// Mean read latency inside the controller, in ticks.
    pub fn avg_read_lat(&self) -> f64 {
        if self.rd_bursts == 0 {
            0.0
        } else {
            self.read_lat_sum / self.rd_bursts as f64
        }
    }

    /// The activity between an earlier snapshot and this one — gem5-style
    /// windowed statistics (paper Section II-E: reset and output numbers
    /// at arbitrary points in time). All counters and sums subtract, so
    /// derived rates (hit rate, mean latency) describe the window alone.
    ///
    /// # Panics
    /// Panics in debug builds if `base` is not an earlier snapshot of the
    /// same controller (counters would go backwards).
    pub fn since(&self, base: &CommonStats) -> CommonStats {
        debug_assert!(self.rd_bursts >= base.rd_bursts);
        debug_assert!(self.wr_bursts >= base.wr_bursts);
        CommonStats {
            reads_accepted: self.reads_accepted - base.reads_accepted,
            writes_accepted: self.writes_accepted - base.writes_accepted,
            rd_bursts: self.rd_bursts - base.rd_bursts,
            wr_bursts: self.wr_bursts - base.wr_bursts,
            bytes_read: self.bytes_read - base.bytes_read,
            bytes_written: self.bytes_written - base.bytes_written,
            row_hits: self.row_hits - base.row_hits,
            activates: self.activates - base.activates,
            bus_busy: self.bus_busy - base.bus_busy,
            read_lat_sum: self.read_lat_sum - base.read_lat_sum,
        }
    }

    /// Row-hit rate over all serviced bursts.
    pub fn page_hit_rate(&self) -> f64 {
        let bursts = self.rd_bursts + self.wr_bursts;
        if bursts == 0 {
            0.0
        } else {
            self.row_hits as f64 / bursts as f64
        }
    }
}

/// A pull-driven DRAM controller model.
///
/// The protocol: offer requests with [`try_send`](Controller::try_send)
/// (respecting [`Rejected::Full`] backpressure), ask for the next internal
/// event time with [`next_event`](Controller::next_event), and execute up
/// to a tick with [`advance_to`](Controller::advance_to), which yields
/// responses. All `now` arguments must be non-decreasing.
///
/// # The event contract
///
/// A controller executes only at its events, and whoever holds one may
/// rely on that (the crossbar does: it caches each channel's
/// `next_event()` and calls into a channel only when the cached tick is
/// due):
///
/// * [`advance_to(limit)`](Controller::advance_to) changes nothing and
///   emits nothing when [`next_event()`](Controller::next_event) is `None`
///   or `> limit` — skipping such a call is indistinguishable from making
///   it;
/// * `next_event()` changes only through `&mut self` calls. It need not
///   be monotone across them: an arrival may schedule work earlier than
///   anything pending, and [`activity`](Controller::activity) or a state
///   restore may move it too, so a holder re-reads it after *every*
///   `&mut` call, including a rejected `try_send`.
///
/// `system/tests/controller_contract.rs` asserts both, at every step of
/// seeded runs, for the event model (refresh and power-down on) and the
/// cycle model.
pub trait Controller {
    /// Offers a request at time `now`.
    ///
    /// # Errors
    /// [`Rejected::Full`] when queues lack space (retry later) and
    /// [`Rejected::TooLarge`] when the request can never fit.
    fn try_send(&mut self, req: MemRequest, now: Tick) -> Result<(), Rejected>;

    /// Whether a request would currently be accepted.
    fn can_accept(&self, cmd: MemCmd, addr: u64, size: u32) -> bool;

    /// The tick of the next internal event, if any work is pending.
    fn next_event(&self) -> Option<Tick>;

    /// Executes all internal events up to and including `limit`, appending
    /// responses that became ready to `out`. A no-op when nothing is due
    /// (see the event contract above).
    fn advance_to(&mut self, limit: Tick, out: &mut Vec<MemResponse>);

    /// Runs until all queued requests have been serviced, returning the
    /// idle tick.
    fn drain(&mut self, out: &mut Vec<MemResponse>) -> Tick;

    /// Whether all request queues are empty.
    fn is_idle(&self) -> bool;

    /// The device specification behind this controller.
    fn spec(&self) -> &MemSpec;

    /// Cross-model statistics snapshot.
    fn common_stats(&self) -> CommonStats;

    /// Activity summary for the power model over `[0, now]`.
    fn activity(&mut self, now: Tick) -> ActivityStats;

    /// Full statistics report at time `now`.
    fn report(&self, prefix: &str, now: Tick) -> Report;
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn common_stats_rates() {
        let s = CommonStats {
            rd_bursts: 3,
            wr_bursts: 1,
            row_hits: 2,
            bus_busy: 400,
            ..Default::default()
        };
        assert_eq!(s.page_hit_rate(), 0.5);
        assert_eq!(s.bus_utilisation(800), 0.5);
        assert_eq!(CommonStats::default().page_hit_rate(), 0.0);
        assert_eq!(CommonStats::default().bus_utilisation(0), 0.0);
    }

    #[test]
    fn rejected_displays() {
        assert_eq!(Rejected::Full.to_string(), "controller queue full");
        assert!(Rejected::TooLarge.to_string().contains("larger"));
    }
}
