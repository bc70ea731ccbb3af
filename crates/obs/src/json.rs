//! JSON helpers for the sinks and their callers: re-exports of the
//! workspace's one JSON module, [`dramctrl_kernel::json`].

pub use dramctrl_kernel::json::{escape_into, json_f64, json_str, validate, ParseError};
