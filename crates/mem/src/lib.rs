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
//! * [`protocol`] — the DRAM timing rules as one table of inter-command
//!   constraints, and [`ProtocolState`], the one interpreter of it;
//! * [`queue`] — burst chopping and the burst-group arena, the request
//!   plumbing both controllers run;
//! * [`presets`] — ready-made specs for DDR3, DDR4, LPDDR2/3, WideIO,
//!   GDDR5 and HBM, including the exact Table IV configurations used in the
//!   paper's future-system case study.

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod activity;
pub mod coverage;
pub mod ctrl_if;
pub mod map;
pub mod packet;
pub mod presets;
pub mod protocol;
pub mod queue;
pub mod snapio;
pub mod spec;

pub use activity::ActivityStats;
pub use coverage::WriteCoverage;
pub use ctrl_if::{CommonStats, Controller, Rejected};
pub use map::{AddrMapping, Decoder, DramAddr};
pub use packet::{MemCmd, MemRequest, MemResponse, ReqId};
pub use protocol::{ProtocolState, Rule};
pub use queue::{burst_count, chop, BurstGroup, GroupArena};
pub use spec::{IddCurrents, MemSpec, Organisation, Timing};
