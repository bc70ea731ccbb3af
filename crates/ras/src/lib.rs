//! # dramctrl-ras — deterministic fault injection, ECC and degradation
//!
//! Reliability/availability/serviceability modelling for the `dramctrl`
//! simulator family. It decides *what goes wrong and when*, and keeps the
//! recovery policy both controllers share: which bursts replay, where an
//! offlined rank's traffic goes, what the `ras_*` report rows say. The
//! controllers only time the replays.
//!
//! Three pieces:
//!
//! * [`RasConfig`] — seeded fault rates (per **gigabit-hour** of simulated
//!   time, the unit DRAM field studies report), link-error probability,
//!   ECC mode, retry and sparing budgets;
//! * [`EccMode`] — none / SEC-DED / Chipkill-style symbol correction,
//!   classifying every faulty burst as corrected, detected-uncorrected or
//!   silent;
//! * [`FaultModel`] — the injector + bookkeeping engine the controllers
//!   consult once per serviced burst.
//!
//! ## Determinism
//!
//! Every random decision is drawn from a SplitMix64 stream keyed by
//! `(seed, rank, bank, row)` (plus a per-rank stream for rank failures),
//! so the fault sequence for a given seed and access sequence is exactly
//! reproducible — across runs, worker counts and platforms. Time-dependent
//! fault probabilities use a saturating linear approximation of the
//! exponential inter-arrival CDF (`p = min(λ·Δt, 1)`), which avoids any
//! libm call and is bit-exact everywhere.
//!
//! ## Zero-cost when disabled
//!
//! The controllers hold an `Option<FaultModel>`; a `None` (or a config
//! with [`RasConfig::is_fault_free`] rates) leaves every simulated
//! quantity byte-identical to a build without the RAS layer, which the
//! `dramctrl` differential harness asserts (`assert_ras_transparent`).

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

mod config;
mod ecc;
mod inject;

pub use config::{RasConfig, RasConfigError};
pub use ecc::{EccMode, EccOutcome};
pub use inject::{BurstOutcome, BurstReport, FaultKind, FaultModel, FaultRecord, RasStats};
