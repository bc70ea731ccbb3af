//! Shared memory-system types for the `dramctrl` simulator family.
//!
//! This crate holds everything that is common between the event-based
//! controller ([`dramctrl`](https://docs.rs/dramctrl)), the cycle-based
//! baseline, the traffic generators and the system model:
//!
//! * [`packet`] — memory requests and responses as exchanged between
//!   masters (cores, traffic generators) and slaves (controllers) over
//!   transaction-level ports;
//! * [`spec`] — DRAM device descriptions: organisation (widths, burst
//!   length, banks, ranks, row-buffer size) and the timing parameters the
//!   paper identifies as performance-critical (Section II-B);
//! * [`map`] — address mappings as layouts, the order of the fields
//!   `Ro Ra Ba Co Ch` (Table I's `RoRaBaCoCh`, `RoRaBaChCo`, `RoCoRaBaCh`
//!   and any other order), and the [`Decoder`] that decodes and encodes
//!   them in burst units;
//! * [`policy`] — the page and scheduling policies of Section II-C, one
//!   vocabulary for both timing models;
//! * [`protocol`] — the DRAM timing rules as one table of inter-command
//!   constraints, and [`ProtocolState`], the one interpreter of it;
//! * [`queue`] — burst chopping and the burst-group arena, the request
//!   plumbing both controllers run;
//! * [`ctrl_if`] — the [`Controller`] trait both models implement and
//!   [`CommonStats`], the counts both keep, folded from the command
//!   stream by [`CommonStats::record`];
//! * [`epoch`] — the [`EpochRecorder`] probe, which folds the same stream
//!   with the same rule into gem5-style periodic statistics, so a run's
//!   epochs sum to its counts;
//! * [`presets`] — ready-made specs for DDR3, DDR4, LPDDR2/3, WideIO,
//!   GDDR5 and HBM, including the exact Table IV configurations used in the
//!   paper's future-system case study.

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod activity;
pub mod coverage;
pub mod ctrl_if;
pub mod epoch;
pub mod map;
pub mod packet;
pub mod policy;
pub mod presets;
pub mod protocol;
pub mod queue;
pub mod snapio;
pub mod spec;

pub use activity::ActivityStats;
pub use coverage::WriteCoverage;
pub use ctrl_if::{CommonStats, Controller, Rejected};
pub use epoch::{EpochBin, EpochRecorder, EpochRow};
pub use map::{AddrMapping, Decoder, DramAddr};
pub use packet::{MemCmd, MemRequest, MemResponse, ReqId};
pub use policy::{PagePolicy, SchedPolicy};
pub use protocol::{ProtocolState, Rule};
pub use queue::{burst_count, chop, BurstGroup, GroupArena};
pub use spec::{IddCurrents, MemSpec, Organisation, Timing};
