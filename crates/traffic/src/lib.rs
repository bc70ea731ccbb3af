//! # dramctrl-traffic — synthetic traffic generation and measurement
//!
//! The generators of paper Section III-A:
//!
//! * [`LinearGen`] — sequential address stream with a configurable
//!   read/write mix;
//! * [`RandomGen`] — uniformly random burst addresses;
//! * [`DramAwareGen`] — created as part of the paper: knows the DRAM's
//!   page size, bank count and address mapping, so experiments can dial in
//!   a target row-hit rate (via the sequential stride) and bank-level
//!   parallelism (via the number of banks touched) to expose individual
//!   timing constraints (tRCD, tCL, tRP, tRRD, tFAW, tWTR);
//! * [`TraceGen`] — replays a recorded trace (with a text file format);
//! * [`BurstyGen`] — reshapes any generator into on/off duty cycles (for
//!   the low-power extension studies).
//!
//! [`Tester`] drives any generator into any
//! [`Controller`](dramctrl_mem::Controller) with flow control, measuring
//! end-to-end read latency distributions and achieved bandwidth — the
//! harness behind the validation figures (paper Figures 3–7).

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

mod bursty;
mod dram_aware;
mod interleave;
mod linear;
mod pacer;
mod random;
mod tester;
mod trace;

pub use bursty::BurstyGen;
pub use dram_aware::DramAwareGen;
pub use interleave::InterleaveGen;
pub use linear::LinearGen;
pub use pacer::Pacer;
pub use random::RandomGen;
pub use tester::{TestRun, TestSummary, Tester};
pub use trace::{ParseTraceError, TraceEntry, TraceGen};

use dramctrl_kernel::Tick;
use dramctrl_mem::MemRequest;

/// A source of timed memory requests.
///
/// Generators are open-loop: they propose an injection tick for every
/// request; the [`Tester`] applies controller backpressure on top.
pub trait TrafficGen {
    /// The next request and its intended injection time, or `None` when
    /// the stream is exhausted. Ticks are non-decreasing.
    fn next_request(&mut self) -> Option<(Tick, MemRequest)>;
}

impl<T: TrafficGen + ?Sized> TrafficGen for Box<T> {
    fn next_request(&mut self) -> Option<(Tick, MemRequest)> {
        (**self).next_request()
    }
}

/// A traffic generator whose stream position can be checkpointed:
/// [`TrafficGen`] plus [`SnapState`](dramctrl_kernel::snap::SnapState).
///
/// Every generator in this crate implements it (blanket impl), and
/// `Box<dyn SnapGen>` is itself both a generator and snapshottable, so
/// run-time-selected workloads participate in crash-safe checkpoints.
/// `Send`, so that a paused run may be resumed by another thread.
pub trait SnapGen: TrafficGen + dramctrl_kernel::snap::SnapState + Send {}

impl<T: TrafficGen + dramctrl_kernel::snap::SnapState + Send> SnapGen for T {}
