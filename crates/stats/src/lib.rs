//! Statistics framework for the `dramctrl` simulators.
//!
//! Loosely modelled on gem5's statistics package (which the paper's
//! controller reuses, Section II-E): simulation components accumulate
//! [`Average`]s and [`Histogram`]s while running, and emit a flat, ordered
//! [`Report`] of named values at the end of (or at arbitrary points during) a
//! simulation. Reports can be reset mid-run to measure a region of interest,
//! just like gem5's `reset stats` functionality.
//!
//! # Example
//!
//! ```
//! use dramctrl_stats::{Average, Histogram, Report};
//!
//! let mut lat = Histogram::new(0, 1_000, 10);
//! let mut avg = Average::new();
//! for v in [10u64, 20, 30] {
//!     lat.record(v);
//!     avg.record(v as f64);
//! }
//! assert_eq!(avg.mean(), 20.0);
//!
//! let mut report = Report::new("memctrl");
//! report.scalar("reads", 3.0);
//! report.histogram("read_latency", &lat);
//! assert!(report.to_string().contains("memctrl.reads"));
//! ```

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

mod average;
mod histogram;
mod report;
mod table;

pub use average::Average;
pub use histogram::Histogram;
pub use report::Report;
pub use table::Table;
