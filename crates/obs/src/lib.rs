//! # dramctrl-obs — zero-perturbation instrumentation
//!
//! Observability substrate for the `dramctrl` simulator family. The design
//! splits instrumentation into two halves:
//!
//! * **Probe points** — the controllers carry a generic [`Probe`] type
//!   parameter and call its hooks at every interesting transition: DRAM
//!   commands, request lifecycle stages, queue-depth changes and power-state
//!   transitions. The default probe, [`NoProbe`], compiles every hook to a
//!   no-op (the parameter is monomorphised, so the disabled path costs
//!   exactly nothing — there is no branch, no indirect call, not even an
//!   argument computation thanks to the [`Probe::ENABLED`] guard).
//! * **Sinks** — concrete probes that turn the event stream into artefacts:
//!   [`ChromeTracer`] renders banks as tracks and commands as duration
//!   slices in the Chrome trace-event JSON format (loadable in
//!   [ui.perfetto.dev](https://ui.perfetto.dev)). The epoch recorder,
//!   which folds the stream into a gem5-style periodic time-series, lives
//!   in `dramctrl-mem` beside the command counts it sums
//!   (`dramctrl_mem::EpochRecorder`), so both count a command by one rule.
//!
//! Probes observe and never influence: a hook receives data and returns
//! nothing, so a traced simulation is byte-identical to an untraced one by
//! construction — a property the `dramctrl` differential harness asserts
//! end to end.
//!
//! A third half (the operational one) serves the *service* layer rather
//! than the simulator: [`metrics`] is a dependency-free registry of
//! atomic counters/gauges/histograms with Prometheus text exposition and
//! stable JSON export, and [`log`] is a leveled `key="value"` structured
//! logger for daemon stderr. Both follow the same discipline — recording
//! a metric or a log line never changes a simulation result.
//!
//! # Example
//!
//! ```
//! use dramctrl_obs::{ChromeTracer, CmdEvent, DramCmd, Probe};
//!
//! let mut t = ChromeTracer::new();
//! t.dram_cmd(CmdEvent::act(0, 3, 42, 1_000, 13_500));
//! t.dram_cmd(CmdEvent {
//!     req: Some(7),
//!     ..CmdEvent::data(DramCmd::Rd, 0, 3, 42, 14_500, 6_000, 64, false)
//! });
//! let json = t.to_json();
//! assert!(json.contains("\"ACT\""));
//! dramctrl_obs::json::validate(&json).unwrap();
//! ```

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

mod chrome;
pub mod json;
pub mod log;
pub mod metrics;
mod probe;

pub use chrome::ChromeTracer;
pub use log::Level;
pub use metrics::{Counter, FloatCounter, Gauge, Histogram, Registry};
pub use probe::{CmdEvent, DramCmd, NoProbe, PowerState, Probe, RasMark};
