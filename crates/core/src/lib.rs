//! # dramctrl — an event-based DRAM controller model
//!
//! A Rust reproduction of the DRAM controller presented in *"Simulating
//! DRAM controllers for future system architecture exploration"* (ISPASS
//! 2014) — the model that became gem5's standard DRAM controller.
//!
//! Instead of stepping the DRAM cycle by cycle, the controller:
//!
//! * tracks only the *state transitions* of banks and busses as
//!   earliest-allowed timestamps (Section II-B);
//! * executes only on *events* — next-request scheduling decisions,
//!   response deliveries and refreshes (Section II-D);
//! * models the controller architecture, not the DRAM: split read/write
//!   queues, early write responses, write merging, read forwarding, a
//!   write-drain state machine with watermarks, FR-FCFS scheduling and
//!   four page policies (Sections II-A and II-C).
//!
//! This makes it roughly an order of magnitude faster than cycle-based
//! models while matching their system-level behaviour — the claim this
//! repository reproduces experimentally (see the `dramctrl-bench` crate).
//!
//! # Quick start
//!
//! ```
//! use dramctrl::{CtrlConfig, DramCtrl, PagePolicy};
//! use dramctrl_mem::{presets, MemRequest, ReqId};
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let mut cfg = CtrlConfig::new(presets::ddr3_1333_x64());
//! cfg.page_policy = PagePolicy::OpenAdaptive;
//! let mut ctrl = DramCtrl::new(cfg)?;
//!
//! // Issue a few sequential reads.
//! for i in 0..4 {
//!     ctrl.try_send(MemRequest::read(ReqId(i), i * 64, 64), 0)?;
//! }
//!
//! // Run the controller to completion, collecting responses. (Refresh
//! // events recur forever, so use `drain` rather than looping on
//! // `next_event`.)
//! let mut responses = Vec::new();
//! ctrl.drain(&mut responses);
//! assert_eq!(responses.len(), 4);
//! assert_eq!(ctrl.stats().rd_row_hits, 3); // bursts 2..4 hit the open row
//! # Ok(())
//! # }
//! ```

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

mod bank;
mod config;
mod ctrl;
#[cfg(test)]
pub mod diff;
mod queue;
mod sched;
mod stats;

pub use config::{ConfigError, CtrlConfig};
pub use ctrl::{DramCtrl, SendError};
pub use stats::CtrlStats;

// Re-exported so front ends configure RAS without a direct `dramctrl-ras`
// dependency.
pub use dramctrl_ras::{EccMode, FaultModel, RasConfig};

// The policies are defined once, in `dramctrl-mem`, for both timing
// models; re-exported so the controller's config names them here too.
pub use dramctrl_mem::{PagePolicy, SchedPolicy};
