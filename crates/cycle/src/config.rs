//! Configuration of the cycle-based baseline controller.

use dramctrl_mem::{AddrMapping, MemSpec, PagePolicy, SchedPolicy};
use dramctrl_ras::RasConfig;
use std::fmt;

/// Configuration of the cycle-based controller.
///
/// Deliberately mirrors DRAMSim2's architecture rather than the event-based
/// model's: one *unified* transaction queue shared by reads and writes, no
/// write-drain watermarks and — by default — no write merging and no read
/// forwarding. These are exactly the architectural differences the paper's
/// validation discusses (Sections II-A and III).
/// [`write_snooping`](CycleConfig::write_snooping) optionally lifts the
/// last difference for apples-to-apples model comparisons.
#[derive(Debug, Clone, PartialEq)]
pub struct CycleConfig {
    /// The DRAM device behind this controller.
    pub spec: MemSpec,
    /// Unified transaction-queue depth, in bursts.
    pub queue_depth: usize,
    /// Address decoding scheme.
    pub mapping: AddrMapping,
    /// Row-buffer policy. DRAMSim2 has no adaptive policies, so the
    /// baseline runs [`PagePolicy::OpenAdaptive`] as [`PagePolicy::Open`]
    /// and [`PagePolicy::ClosedAdaptive`] as [`PagePolicy::Closed`]: it
    /// auto-precharges after every column access exactly when the policy
    /// is not [`is_open`](PagePolicy::is_open).
    pub page_policy: PagePolicy,
    /// Scheduling policy: [`SchedPolicy::Fcfs`] is strict in-order service
    /// (head-of-line blocking), [`SchedPolicy::FrFcfs`] first-ready FCFS
    /// over the unified transaction queue.
    pub scheduling: SchedPolicy,
    /// Number of channels interleaved upstream (skipped in decode).
    pub channels: u32,
    /// Snoop queued writes on arrival: merge fully-covered incoming
    /// writes and forward fully-covered incoming reads, exactly as the
    /// event-based model does (paper Section II-A), using the same O(1)
    /// coverage index.
    ///
    /// Off by default — DRAMSim2 has no write snooping, and the baseline's
    /// job is to mirror it. Turn it on when comparing the two models'
    /// *simulation speed* so both service the same burst stream.
    pub write_snooping: bool,
    /// Optional RAS model: deterministic fault injection, ECC
    /// classification and link-error retry, mirroring the event-based
    /// model. `None` (the default) leaves the controller byte-identical to
    /// a build without the RAS subsystem.
    pub ras: Option<RasConfig>,
}

impl CycleConfig {
    /// A configuration with DRAMSim2-like defaults: a 64-entry unified
    /// queue, FR-FCFS, `RoRaBaCoCh`, open page, single channel.
    pub fn new(spec: MemSpec) -> Self {
        Self {
            spec,
            queue_depth: 64,
            mapping: AddrMapping::RoRaBaCoCh,
            page_policy: PagePolicy::Open,
            scheduling: SchedPolicy::FrFcfs,
            channels: 1,
            write_snooping: false,
            ras: None,
        }
    }

    /// Checks the configuration for consistency.
    ///
    /// # Errors
    /// Returns an error naming the violated invariant (invalid spec, empty
    /// queue or zero channels).
    pub fn validate(&self) -> Result<(), CycleConfigError> {
        self.spec
            .validate()
            .map_err(|e| CycleConfigError(e.to_string()))?;
        if self.queue_depth == 0 {
            return Err(CycleConfigError("queue_depth must be positive".into()));
        }
        if self.channels == 0 {
            return Err(CycleConfigError("channels must be positive".into()));
        }
        if let Some(ras) = &self.ras {
            ras.validate()
                .map_err(|e| CycleConfigError(e.to_string()))?;
        }
        Ok(())
    }
}

/// Invalid cycle-controller configuration.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CycleConfigError(pub(crate) String);

impl fmt::Display for CycleConfigError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "invalid cycle controller config: {}", self.0)
    }
}

impl std::error::Error for CycleConfigError {}

#[cfg(test)]
mod tests {
    use super::*;
    use dramctrl_mem::presets;

    #[test]
    fn defaults_valid_for_all_presets() {
        for spec in presets::all() {
            CycleConfig::new(spec).validate().unwrap();
        }
    }

    #[test]
    fn rejects_zero_depth() {
        let mut c = CycleConfig::new(presets::ddr3_1333_x64());
        c.queue_depth = 0;
        assert!(c.validate().is_err());
    }

    #[test]
    fn policy_names() {
        // DRAMSim2's defaults, in the names both timing models share.
        let c = CycleConfig::new(presets::ddr3_1333_x64());
        assert_eq!(c.page_policy.to_string(), "open");
        assert_eq!(c.scheduling.to_string(), "frfcfs");
    }
}
