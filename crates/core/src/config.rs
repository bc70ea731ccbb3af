//! Controller configuration (paper Table I).

use dramctrl_kernel::Tick;
use dramctrl_mem::{AddrMapping, MemSpec, PagePolicy, SchedPolicy};
use dramctrl_ras::RasConfig;
use std::fmt;

/// Full configuration of one controller instance — the parameters of
/// paper Table I plus the device specification.
#[derive(Debug, Clone, PartialEq)]
pub struct CtrlConfig {
    /// The DRAM device behind this controller.
    pub spec: MemSpec,
    /// Read queue entries (in DRAM bursts).
    pub read_buffer_size: usize,
    /// Write queue entries (in DRAM bursts).
    pub write_buffer_size: usize,
    /// Write-queue fill fraction above which the controller forcefully
    /// switches to draining writes (paper: "high water mark").
    pub write_high_thresh: f64,
    /// Write-queue fill fraction at which draining starts when no reads are
    /// pending (paper: "low water mark").
    pub write_low_thresh: f64,
    /// Minimum number of writes issued per drain episode.
    pub min_writes_per_switch: usize,
    /// Request scheduling policy.
    pub scheduling: SchedPolicy,
    /// Address decoding scheme.
    pub mapping: AddrMapping,
    /// Row-buffer management policy.
    pub page_policy: PagePolicy,
    /// Static pipeline latency of the controller frontend.
    pub frontend_latency: Tick,
    /// Static PHY/IO latency of the controller backend.
    pub backend_latency: Tick,
    /// Forced row close after this many accesses (0 = unlimited); a
    /// starvation guard for open-page policies.
    pub max_accesses_per_row: u32,
    /// Number of channels interleaved by the upstream crossbar (used to
    /// skip channel bits during address decode).
    pub channels: u32,
    /// Enter precharge power-down after the controller has been idle this
    /// long (0 disables power-down). An extension beyond the paper, which
    /// lists low-power states as future work; exit costs `t_xp`.
    pub powerdown_idle: Tick,
    /// Descend from power-down into self-refresh after this much
    /// additional time powered down (0 disables self-refresh). While in
    /// self-refresh the DRAM refreshes itself — external refreshes are
    /// suppressed — and exit costs `t_xs`.
    pub selfrefresh_after: Tick,
    /// Per-source QoS priorities, indexed by `MemRequest::source` (paper
    /// Section II-C: scheduling respects the requestors' QoS
    /// requirements). Higher is more important; sources beyond the end of
    /// the vector get priority 0. Empty disables QoS (all traffic equal).
    pub qos_priorities: Vec<u8>,
    /// Reliability model: fault injection, ECC and recovery
    /// (`dramctrl-ras`). `None` — the default — compiles and runs
    /// byte-identically to a build without any RAS support (asserted by the
    /// differential harness).
    pub ras: Option<RasConfig>,
}

impl CtrlConfig {
    /// A configuration with the paper's defaults for the given device:
    /// 32-entry read queue, 64-entry write queue, 70%/50% watermarks,
    /// 16 writes per switch, FR-FCFS, `RoRaBaCoCh`, open page, zero static
    /// latencies, single channel.
    pub fn new(spec: MemSpec) -> Self {
        Self {
            spec,
            read_buffer_size: 32,
            write_buffer_size: 64,
            write_high_thresh: 0.7,
            write_low_thresh: 0.5,
            min_writes_per_switch: 16,
            scheduling: SchedPolicy::FrFcfs,
            mapping: AddrMapping::RoRaBaCoCh,
            page_policy: PagePolicy::Open,
            frontend_latency: 0,
            backend_latency: 0,
            max_accesses_per_row: 0,
            channels: 1,
            powerdown_idle: 0,
            selfrefresh_after: 0,
            qos_priorities: Vec::new(),
            ras: None,
        }
    }

    /// The QoS priority of a source port.
    pub fn priority_of(&self, source: u16) -> u8 {
        self.qos_priorities
            .get(usize::from(source))
            .copied()
            .unwrap_or(0)
    }

    /// Write-queue entry count corresponding to the high watermark.
    pub fn write_high_entries(&self) -> usize {
        ((self.write_buffer_size as f64) * self.write_high_thresh).ceil() as usize
    }

    /// Write-queue entry count corresponding to the low watermark.
    pub fn write_low_entries(&self) -> usize {
        ((self.write_buffer_size as f64) * self.write_low_thresh).ceil() as usize
    }

    /// Checks the configuration for consistency.
    ///
    /// # Errors
    /// Returns a [`ConfigError`] if the device spec is invalid, a queue is
    /// empty, the watermarks are outside `(0, 1]` or inverted, or the
    /// channel count is zero.
    pub fn validate(&self) -> Result<(), ConfigError> {
        self.spec
            .validate()
            .map_err(|e| ConfigError(e.to_string()))?;
        if self.read_buffer_size == 0 || self.write_buffer_size == 0 {
            return Err(ConfigError("queues must have at least one entry".into()));
        }
        for (name, v) in [
            ("write_high_thresh", self.write_high_thresh),
            ("write_low_thresh", self.write_low_thresh),
        ] {
            if !(v > 0.0 && v <= 1.0) {
                return Err(ConfigError(format!("{name} must be in (0, 1], got {v}")));
            }
        }
        if self.write_low_thresh > self.write_high_thresh {
            return Err(ConfigError(
                "write_low_thresh must not exceed write_high_thresh".into(),
            ));
        }
        if self.min_writes_per_switch == 0 {
            return Err(ConfigError("min_writes_per_switch must be positive".into()));
        }
        if self.channels == 0 {
            return Err(ConfigError("channels must be positive".into()));
        }
        if self.selfrefresh_after > 0 && self.powerdown_idle == 0 {
            return Err(ConfigError(
                "selfrefresh_after requires powerdown_idle".into(),
            ));
        }
        if let Some(ras) = &self.ras {
            ras.validate().map_err(|e| ConfigError(e.to_string()))?;
        }
        Ok(())
    }
}

/// Invalid controller configuration.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ConfigError(pub(crate) String);

impl fmt::Display for ConfigError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "invalid controller config: {}", self.0)
    }
}

impl std::error::Error for ConfigError {}

#[cfg(test)]
mod tests {
    use super::*;
    use dramctrl_mem::presets;

    #[test]
    fn defaults_are_valid() {
        CtrlConfig::new(presets::ddr3_1333_x64())
            .validate()
            .unwrap();
        for spec in presets::all() {
            CtrlConfig::new(spec).validate().unwrap();
        }
    }

    #[test]
    fn watermark_entries() {
        let mut c = CtrlConfig::new(presets::ddr3_1333_x64());
        c.write_buffer_size = 20;
        c.write_high_thresh = 0.7;
        c.write_low_thresh = 0.5;
        assert_eq!(c.write_high_entries(), 14);
        assert_eq!(c.write_low_entries(), 10);
    }

    #[test]
    fn rejects_inverted_watermarks() {
        let mut c = CtrlConfig::new(presets::ddr3_1333_x64());
        c.write_high_thresh = 0.4;
        c.write_low_thresh = 0.6;
        assert!(c.validate().is_err());
    }

    #[test]
    fn rejects_zero_queue() {
        let mut c = CtrlConfig::new(presets::ddr3_1333_x64());
        c.read_buffer_size = 0;
        assert!(c.validate().is_err());
    }

    #[test]
    fn rejects_out_of_range_thresholds() {
        let mut c = CtrlConfig::new(presets::ddr3_1333_x64());
        c.write_high_thresh = 1.5;
        assert!(c.validate().is_err());
        c.write_high_thresh = 0.7;
        c.write_low_thresh = 0.0;
        assert!(c.validate().is_err());
    }

    #[test]
    fn policy_display_names() {
        assert_eq!(PagePolicy::OpenAdaptive.to_string(), "open_adaptive");
        assert_eq!(SchedPolicy::FrFcfs.to_string(), "frfcfs");
        assert!(PagePolicy::Open.is_open());
        assert!(!PagePolicy::ClosedAdaptive.is_open());
    }
}
