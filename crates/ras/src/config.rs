//! RAS configuration: fault rates, ECC selection, and retry and sparing
//! budgets.

use crate::ecc::EccMode;
use dramctrl_kernel::Tick;

/// Configuration of the fault-injection / ECC / recovery layer.
///
/// Cell-fault rates are expressed per **gigabit-hour** of simulated time —
/// the unit DRAM reliability field studies use — and are scaled internally
/// by the capacity the stream covers (a row for transient and stuck-at
/// faults, a rank for hard failures). Simulated runs are microseconds
/// long, so interesting experiments use heavily accelerated rates
/// (`1e9`–`1e12`); see [`RasConfig::from_error_rate`].
#[derive(Debug, Clone, PartialEq)]
pub struct RasConfig {
    /// Seed of every SplitMix64 fault stream.
    pub seed: u64,
    /// The ECC scheme classifying faulty bursts.
    pub ecc: EccMode,
    /// Transient single-bit upsets per gigabit-hour (scrub-on-access:
    /// cleared once observed).
    pub transient_per_gbh: f64,
    /// Stuck-at row fault onsets per gigabit-hour (persist until the row
    /// is remapped to a spare).
    pub stuck_per_gbh: f64,
    /// Hard chip/rank failures per gigabit-hour (persist; trigger rank
    /// offlining).
    pub rank_fail_per_gbh: f64,
    /// Probability per burst of a link error: write-CRC (ALERT_n) on
    /// writes, command/address parity on reads. Must be in `[0, 1)`.
    pub link_error_rate: f64,
    /// Bounded in-queue retries per burst before the controller gives up
    /// on a link error and treats it as detected-uncorrected.
    pub max_retries: u32,
    /// Base retry backoff in ticks, doubled on every attempt.
    pub retry_backoff: Tick,
    /// Spare rows per bank available for remapping stuck rows; once a
    /// bank's pool is exhausted the next hard fault offlines the rank.
    pub spare_rows_per_bank: u32,
}

impl RasConfig {
    /// A fault-free configuration (all rates zero) with the given seed,
    /// SEC-DED ECC and default retry/sparing budgets.
    pub fn new(seed: u64) -> Self {
        Self {
            seed,
            ecc: EccMode::SecDed,
            transient_per_gbh: 0.0,
            stuck_per_gbh: 0.0,
            rank_fail_per_gbh: 0.0,
            link_error_rate: 0.0,
            max_retries: 4,
            retry_backoff: 20_000, // 20 ns
            spare_rows_per_bank: 16,
        }
    }

    /// The standard single-knob error-rate scaling used by the campaign
    /// axis and the CLI `--ras RATE` flag: `rate` transient upsets per
    /// gigabit-hour, with stuck-at rows at `rate/64`, hard rank failures
    /// at `rate/4096`, and a link-error probability of `rate × 1e-13`
    /// (capped at 25%) per burst.
    pub fn from_error_rate(rate: f64, seed: u64) -> Self {
        Self {
            transient_per_gbh: rate,
            stuck_per_gbh: rate / 64.0,
            rank_fail_per_gbh: rate / 4096.0,
            link_error_rate: (rate * 1e-13).clamp(0.0, 0.25),
            ..Self::new(seed)
        }
    }

    /// Builder-style ECC selection.
    pub fn with_ecc(mut self, ecc: EccMode) -> Self {
        self.ecc = ecc;
        self
    }

    /// Whether every fault source is disabled. A fault-free model is
    /// behaviourally transparent: it observes accesses but never alters
    /// the simulation.
    pub fn is_fault_free(&self) -> bool {
        self.transient_per_gbh == 0.0
            && self.stuck_per_gbh == 0.0
            && self.rank_fail_per_gbh == 0.0
            && self.link_error_rate == 0.0
    }

    /// Validates rates and budgets.
    pub fn validate(&self) -> Result<(), RasConfigError> {
        for (name, v) in [
            ("transient_per_gbh", self.transient_per_gbh),
            ("stuck_per_gbh", self.stuck_per_gbh),
            ("rank_fail_per_gbh", self.rank_fail_per_gbh),
        ] {
            if !v.is_finite() || v < 0.0 {
                return Err(RasConfigError(format!(
                    "{name} must be a finite non-negative rate, got {v}"
                )));
            }
        }
        if !self.link_error_rate.is_finite() || !(0.0..1.0).contains(&self.link_error_rate) {
            return Err(RasConfigError(format!(
                "link_error_rate must be in [0, 1), got {}",
                self.link_error_rate
            )));
        }
        if self.max_retries > 0 && self.retry_backoff == 0 {
            return Err(RasConfigError(
                "retry_backoff must be non-zero when retries are enabled".to_owned(),
            ));
        }
        Ok(())
    }
}

/// An invalid [`RasConfig`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RasConfigError(pub(crate) String);

impl std::fmt::Display for RasConfigError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "invalid RAS config: {}", self.0)
    }
}

impl std::error::Error for RasConfigError {}

/// Converts a per-gigabit-hour rate over `gigabits` of capacity into a
/// per-tick (picosecond) Poisson intensity.
pub(crate) fn per_tick(rate_per_gbh: f64, gigabits: f64) -> f64 {
    // 1 hour = 3600 s = 3.6e15 ps.
    rate_per_gbh * gigabits / 3.6e15
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_are_fault_free_and_valid() {
        let c = RasConfig::new(7);
        assert!(c.is_fault_free());
        c.validate().unwrap();
        assert_eq!(c.ecc, EccMode::SecDed);
    }

    #[test]
    fn error_rate_scaling() {
        let c = RasConfig::from_error_rate(4096.0, 1);
        assert!(!c.is_fault_free());
        assert_eq!(c.transient_per_gbh, 4096.0);
        assert_eq!(c.stuck_per_gbh, 64.0);
        assert_eq!(c.rank_fail_per_gbh, 1.0);
        c.validate().unwrap();
        // The link probability saturates for extreme rates.
        let hot = RasConfig::from_error_rate(1e14, 1);
        assert_eq!(hot.link_error_rate, 0.25);
        hot.validate().unwrap();
    }

    #[test]
    fn validation_rejects_bad_rates() {
        let mut c = RasConfig::new(0);
        c.transient_per_gbh = -1.0;
        assert!(c.validate().is_err());
        let mut c = RasConfig::new(0);
        c.link_error_rate = 1.0;
        assert!(c.validate().is_err());
        let mut c = RasConfig::new(0);
        c.link_error_rate = f64::NAN;
        assert!(c.validate().is_err());
        let mut c = RasConfig::new(0);
        c.retry_backoff = 0;
        assert!(c.validate().is_err());
        c.max_retries = 0;
        c.validate().unwrap();
    }

    #[test]
    fn per_tick_scaling() {
        // 3.6e15 faults/Gb·h over 1 Gb is one fault per picosecond.
        assert!((per_tick(3.6e15, 1.0) - 1.0).abs() < 1e-12);
        assert_eq!(per_tick(0.0, 64.0), 0.0);
    }
}
