//! Discrete-event simulation kernel for the `dramctrl` simulator family.
//!
//! The kernel is deliberately tiny: simulated time ([`Tick`], one tick equals
//! one picosecond, as in gem5), clock-domain helpers ([`Clock`]) and a
//! deterministic [`EventQueue`]. Components built on top of the kernel are
//! *event-based*: they only execute when something changes and otherwise skip
//! ahead to the next interesting point in time. This is the modelling
//! technique at the heart of the paper this project reproduces
//! ("Simulating DRAM controllers for future system architecture
//! exploration", ISPASS 2014, Section II-D): rather than updating DRAM state
//! cycle by cycle, the controller schedules a handful of events and computes
//! state transitions from timestamps.
//!
//! # Example
//!
//! ```
//! use dramctrl_kernel::{EventQueue, tick};
//!
//! #[derive(Debug, PartialEq)]
//! enum Ev { Ping, Pong }
//!
//! let mut q = EventQueue::new();
//! q.schedule(tick::from_ns(5.0), Ev::Pong);
//! q.schedule(tick::from_ns(1.0), Ev::Ping);
//! assert_eq!(q.pop(), Some((tick::from_ns(1.0), Ev::Ping)));
//! assert_eq!(q.pop(), Some((tick::from_ns(5.0), Ev::Pong)));
//! assert_eq!(q.pop(), None);
//! ```

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod backoff;
mod clock;
mod event;
pub mod fsio;
pub mod hash;
pub mod json;
pub mod rng;
pub mod snap;
pub mod tick;

pub use clock::Clock;
pub use event::{EventQueue, SimStall};
pub use tick::Tick;
