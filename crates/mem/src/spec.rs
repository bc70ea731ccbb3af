//! DRAM device specifications.
//!
//! A [`MemSpec`] bundles the *organisation* of a channel (widths, burst
//! length, banks, ranks, row-buffer size), the *timing parameters* the paper
//! selects as performance-critical (Section II-B, Table I/IV), and the IDD
//! currents needed by the Micron power model (Section II-G).
//!
//! Following the paper, the specification is deliberately minimal: no
//! command/address-bus model, no rank-to-rank switching, no bank groups, no
//! explicit SDR/DDR distinction — `t_burst` alone captures the data-transfer
//! time, which is what makes the same controller model cover DDR3, LPDDR3
//! and WideIO.

use dramctrl_kernel::{tick, Tick};
use std::fmt;
use std::ops::Range;

use crate::protocol::Scope;

/// Organisation of one memory channel.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Organisation {
    /// Interface width of a single device, in bits (e.g. 8 for a x8 part).
    pub device_bus_width: u32,
    /// Burst length in beats (e.g. 8 for DDR3's BL8).
    pub burst_length: u32,
    /// Row-buffer (page) size of a single device, in bytes.
    pub device_rowbuffer_bytes: u64,
    /// Number of devices ganged into one rank.
    pub devices_per_rank: u32,
    /// Ranks sharing the channel's busses.
    pub ranks: u32,
    /// Banks per rank.
    pub banks: u32,
    /// Capacity of a single device in megabits (e.g. 2048 for a 2 Gbit die).
    pub device_capacity_mbit: u64,
}

impl Organisation {
    /// Total data-bus width of the channel in bits.
    pub fn bus_width_bits(&self) -> u32 {
        self.device_bus_width * self.devices_per_rank
    }

    /// Bytes transferred by one DRAM burst.
    pub fn burst_bytes(&self) -> u64 {
        u64::from(self.bus_width_bits() / 8) * u64::from(self.burst_length)
    }

    /// Logical row-buffer size of one bank across all devices in a rank.
    pub fn row_buffer_bytes(&self) -> u64 {
        self.device_rowbuffer_bytes * u64::from(self.devices_per_rank)
    }

    /// Number of bursts (column accesses) that fit in one row buffer.
    pub fn bursts_per_row(&self) -> u64 {
        self.row_buffer_bytes() / self.burst_bytes()
    }

    /// Rows per bank, derived from device capacity.
    pub fn rows_per_bank(&self) -> u64 {
        let device_bytes = self.device_capacity_mbit * 1024 * 1024 / 8;
        device_bytes / (self.device_rowbuffer_bytes * u64::from(self.banks))
    }

    /// Total channel capacity in bytes.
    pub fn capacity_bytes(&self) -> u64 {
        self.device_capacity_mbit * 1024 * 1024 / 8
            * u64::from(self.devices_per_rank)
            * u64::from(self.ranks)
    }

    /// Banks on the channel: the length of every per-bank array.
    #[inline]
    pub fn slots(&self) -> usize {
        (self.ranks * self.banks) as usize
    }

    /// Where `bank` of `rank` sits in a per-bank array: rank-major, so
    /// each rank's banks are one contiguous run of [`slots`](Self::slots).
    #[inline]
    pub fn slot(&self, rank: u32, bank: u32) -> usize {
        (rank * self.banks + bank) as usize
    }

    /// The (rank, bank) at `slot`, the inverse of [`slot`](Self::slot).
    #[inline]
    pub fn rank_bank(&self, slot: usize) -> (u32, u32) {
        let banks = self.banks as usize;
        ((slot / banks) as u32, (slot % banks) as u32)
    }

    /// The slots that share `scope` with `bank` of `rank`: that bank
    /// alone, its rank's banks, or every bank on the channel.
    #[inline]
    pub fn scope(&self, scope: Scope, rank: u32, bank: u32) -> Range<usize> {
        match scope {
            Scope::Bank => self.slot(rank, bank)..self.slot(rank, bank) + 1,
            Scope::Rank => self.slot(rank, 0)..self.slot(rank + 1, 0),
            Scope::Channel => 0..self.slots(),
        }
    }

    /// Whether the channel has `bank` of `rank`, so that its
    /// [`slot`](Self::slot) indexes a per-bank array.
    #[inline]
    pub fn has_bank(&self, rank: u32, bank: u32) -> bool {
        rank < self.ranks && bank < self.banks
    }
}

/// The DRAM timing parameters modelled by the controllers.
///
/// All values are in [`Tick`]s (picoseconds). Per the paper, `t_cl`
/// implicitly covers `tWR`-like write recovery at the system level and
/// `t_burst` implicitly models `tCCD`; `t_xaw` generalises `tFAW`/`tTAW`
/// with [`Timing::activation_limit`] activates per window.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Timing {
    /// Interface clock period.
    pub t_ck: Tick,
    /// Data-bus occupancy of one burst.
    pub t_burst: Tick,
    /// ACT to internal read/write delay (row open).
    pub t_rcd: Tick,
    /// Column access (CAS) latency.
    pub t_cl: Tick,
    /// Precharge period (row close).
    pub t_rp: Tick,
    /// Minimum row-open time (ACT to PRE).
    pub t_ras: Tick,
    /// Write recovery: end of write burst to PRE of the same bank.
    pub t_wr: Tick,
    /// Read to precharge delay.
    pub t_rtp: Tick,
    /// ACT-to-ACT delay between banks of the same rank.
    pub t_rrd: Tick,
    /// Rolling activation window (tFAW/tTAW generalised).
    pub t_xaw: Tick,
    /// Number of activates allowed within `t_xaw` (0 disables the limit).
    pub activation_limit: u32,
    /// Write-to-read turnaround (end of write burst to read command).
    pub t_wtr: Tick,
    /// Read-to-write turnaround bubble on the data bus.
    pub t_rtw: Tick,
    /// Refresh cycle time (duration of one refresh).
    pub t_rfc: Tick,
    /// Average refresh interval.
    pub t_refi: Tick,
    /// Power-down exit latency (exit to first valid command).
    pub t_xp: Tick,
    /// Self-refresh exit latency (exit to first valid command).
    pub t_xs: Tick,
}

/// IDD currents (mA) and supply voltage for the Micron power model
/// (TN-41-01). One entry per device; the power model scales by
/// `devices_per_rank * ranks`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct IddCurrents {
    /// Supply voltage in volts.
    pub vdd: f64,
    /// Active precharge current (one bank ACT/PRE cycling at tRC).
    pub idd0: f64,
    /// Precharge standby current (all banks closed).
    pub idd2n: f64,
    /// Precharge power-down current.
    pub idd2p: f64,
    /// Active standby current (at least one bank open).
    pub idd3n: f64,
    /// Burst read current.
    pub idd4r: f64,
    /// Burst write current.
    pub idd4w: f64,
    /// Refresh current.
    pub idd5: f64,
    /// Self-refresh current.
    pub idd6: f64,
}

/// A complete DRAM device/channel specification.
#[derive(Debug, Clone, PartialEq)]
pub struct MemSpec {
    /// Human-readable name, e.g. `"DDR3-1333-x64"`.
    pub name: &'static str,
    /// Channel organisation.
    pub org: Organisation,
    /// Timing parameters.
    pub timing: Timing,
    /// Currents for the power model.
    pub idd: IddCurrents,
}

/// Validation failure for a [`MemSpec`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SpecError(String);

impl fmt::Display for SpecError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "invalid memory spec: {}", self.0)
    }
}

impl std::error::Error for SpecError {}

impl MemSpec {
    /// Checks internal consistency of the specification.
    ///
    /// # Errors
    /// Returns a [`SpecError`] naming the violated invariant: zero-sized
    /// organisation fields, a row buffer that does not hold a whole number
    /// of bursts, `t_ras < t_rcd`, an activation window shorter than the
    /// activates it must admit, or a refresh interval shorter than the
    /// refresh itself.
    pub fn validate(&self) -> Result<(), SpecError> {
        let o = &self.org;
        if o.device_bus_width == 0
            || o.burst_length == 0
            || o.devices_per_rank == 0
            || o.ranks == 0
            || o.banks == 0
            || o.device_rowbuffer_bytes == 0
            || o.device_capacity_mbit == 0
        {
            return Err(SpecError("organisation fields must be non-zero".into()));
        }
        if o.bus_width_bits() % 8 != 0 {
            return Err(SpecError(format!(
                "bus width {} bits is not a whole number of bytes",
                o.bus_width_bits()
            )));
        }
        if o.row_buffer_bytes() % o.burst_bytes() != 0 {
            return Err(SpecError(format!(
                "row buffer ({} B) must hold a whole number of bursts ({} B)",
                o.row_buffer_bytes(),
                o.burst_bytes()
            )));
        }
        if o.rows_per_bank() == 0 {
            return Err(SpecError("device capacity too small for one row".into()));
        }
        let t = &self.timing;
        if t.t_ck == 0 || t.t_burst == 0 {
            return Err(SpecError("t_ck and t_burst must be non-zero".into()));
        }
        if t.t_ras < t.t_rcd {
            return Err(SpecError(format!(
                "t_ras ({}) must cover t_rcd ({})",
                t.t_ras, t.t_rcd
            )));
        }
        if t.activation_limit > 1 && t.t_xaw < Tick::from(t.activation_limit - 1) * t.t_rrd {
            return Err(SpecError(
                "t_xaw shorter than (activation_limit-1) * t_rrd".into(),
            ));
        }
        if t.t_refi != 0 && t.t_refi <= t.t_rfc {
            return Err(SpecError("t_refi must exceed t_rfc".into()));
        }
        Ok(())
    }

    /// Peak data-bus bandwidth in bytes per second.
    pub fn peak_bandwidth(&self) -> f64 {
        self.org.burst_bytes() as f64 / tick::to_s(self.timing.t_burst)
    }

    /// Peak data-bus bandwidth in GB/s (10^9 bytes per second).
    pub fn peak_bandwidth_gbps(&self) -> f64 {
        self.peak_bandwidth() / 1e9
    }

    /// Random-access cycle time of a bank: tRP + tRCD + tCL.
    pub fn bank_cycle(&self) -> Tick {
        self.timing.t_rp + self.timing.t_rcd + self.timing.t_cl
    }
}

#[cfg(test)]
mod tests {
    use crate::presets;

    #[test]
    fn ddr3_1333_geometry() {
        // The validation device of paper Section III: 2 Gbit, 8 x8 devices,
        // 666 MHz.
        let spec = presets::ddr3_1333_x64();
        assert_eq!(spec.org.bus_width_bits(), 64);
        assert_eq!(spec.org.burst_bytes(), 64);
        assert_eq!(spec.org.row_buffer_bytes(), 8 * 1024);
        assert_eq!(spec.org.bursts_per_row(), 128);
        // 2 Gbit x8: 256 MB / (1 KB page * 8 banks) = 32768 rows.
        assert_eq!(spec.org.rows_per_bank(), 32_768);
        // 8 devices, 1 rank => 2 GB channel.
        assert_eq!(spec.org.capacity_bytes(), 2 * 1024 * 1024 * 1024);
        spec.validate().expect("preset must be valid");
    }

    #[test]
    fn ddr3_1333_peak_bandwidth() {
        let spec = presets::ddr3_1333_x64();
        // 64 B per 6 ns burst = 10.67 GB/s.
        assert!((spec.peak_bandwidth_gbps() - 10.67).abs() < 0.01);
    }

    #[test]
    fn validate_rejects_bad_ras() {
        let mut spec = presets::ddr3_1333_x64();
        spec.timing.t_ras = spec.timing.t_rcd - 1;
        assert!(spec.validate().is_err());
    }

    #[test]
    fn validate_rejects_short_xaw() {
        let mut spec = presets::ddr3_1333_x64();
        spec.timing.t_xaw = spec.timing.t_rrd; // window for 4 acts, too short
        let err = spec.validate().unwrap_err();
        assert!(err.to_string().contains("t_xaw"));
    }

    #[test]
    fn validate_rejects_zero_fields() {
        let mut spec = presets::ddr3_1333_x64();
        spec.org.banks = 0;
        assert!(spec.validate().is_err());
    }

    #[test]
    fn validate_rejects_refi_below_rfc() {
        let mut spec = presets::ddr3_1333_x64();
        spec.timing.t_refi = spec.timing.t_rfc;
        assert!(spec.validate().is_err());
    }

    #[test]
    fn bank_cycle_sums_core_timings() {
        let spec = presets::ddr3_1333_x64();
        assert_eq!(
            spec.bank_cycle(),
            spec.timing.t_rp + spec.timing.t_rcd + spec.timing.t_cl
        );
    }
}
