//! Simulated time.
//!
//! One [`Tick`] is one picosecond, following gem5's convention. A `u64` tick
//! counter wraps after ~213 days of simulated time at picosecond resolution,
//! which is far beyond any realistic simulation; arithmetic is therefore done
//! with plain (checked-in-debug) `u64` operations.

/// Simulated time in picoseconds.
pub type Tick = u64;

/// One picosecond.
pub const PS: Tick = 1;
/// One nanosecond.
pub const NS: Tick = 1_000;
/// One microsecond.
pub const US: Tick = 1_000_000;
/// One millisecond.
pub const MS: Tick = 1_000_000_000;
/// One second.
pub const S: Tick = 1_000_000_000_000;

/// The maximum representable tick, used as "never".
pub const MAX: Tick = Tick::MAX;

/// Converts a (possibly fractional) number of nanoseconds to ticks,
/// rounding to the nearest picosecond.
///
/// # Example
/// ```
/// use dramctrl_kernel::tick;
/// assert_eq!(tick::from_ns(13.75), 13_750);
/// ```
pub fn from_ns(ns: f64) -> Tick {
    debug_assert!(ns >= 0.0, "negative durations are not representable");
    (ns * NS as f64).round() as Tick
}

/// Converts a (possibly fractional) number of microseconds to ticks.
///
/// # Example
/// ```
/// use dramctrl_kernel::tick;
/// assert_eq!(tick::from_us(7.8), 7_800_000);
/// ```
pub fn from_us(us: f64) -> Tick {
    debug_assert!(us >= 0.0, "negative durations are not representable");
    (us * US as f64).round() as Tick
}

/// Converts ticks to fractional nanoseconds (for reporting).
pub fn to_ns(t: Tick) -> f64 {
    t as f64 / NS as f64
}

/// Converts ticks to fractional seconds (for reporting).
pub fn to_s(t: Tick) -> f64 {
    t as f64 / S as f64
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ns_round_trip() {
        assert_eq!(from_ns(1.0), NS);
        assert_eq!(from_ns(0.001), PS);
        assert_eq!(to_ns(from_ns(35.0)), 35.0);
    }

    #[test]
    fn fractional_ns_rounds_to_ps() {
        // tCK of DDR3-1333 is 1.5 ns; half a cycle is 750 ps.
        assert_eq!(from_ns(0.75), 750);
        // Rounding, not truncation.
        assert_eq!(from_ns(0.0006), 1);
        assert_eq!(from_ns(0.0004), 0);
    }

    #[test]
    fn us_conversions() {
        assert_eq!(from_us(1.0), US);
        assert_eq!(from_us(7.8), 7_800 * NS);
    }

    #[test]
    fn to_s_of_one_second() {
        assert_eq!(to_s(S), 1.0);
    }
}
