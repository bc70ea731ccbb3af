//! # dramctrl-cycle — a cycle-based DRAM controller baseline
//!
//! A DRAMSim2-style cycle-by-cycle controller used as the comparison
//! baseline for the event-based model, exactly as in paper Section III.
//! The architectural differences are intentional and mirror those the paper
//! calls out between its model and DRAMSim2:
//!
//! | Property | event-based (`dramctrl`) | this crate |
//! |---|---|---|
//! | Execution | per event | per memory-clock cycle |
//! | Queues | split read/write | unified transaction queue |
//! | Write handling | drain mode with watermarks | interleaved with reads |
//! | Write merging / read forwarding | yes | no |
//! | Early write response | yes | yes (both ack on accept) |
//!
//! Both controllers implement
//! [`dramctrl_mem::Controller`], so validation harnesses drive them with
//! identical traffic and compare bandwidth, latency distributions, power
//! and — crucially — simulation speed.

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

mod config;
mod ctrl;

pub use config::{CycleConfig, CycleConfigError};
pub use ctrl::{CycleCtrl, CycleStats};

// Re-exported so front ends configure RAS without a direct `dramctrl-ras`
// dependency.
pub use dramctrl_ras::{EccMode, FaultModel, RasConfig};
