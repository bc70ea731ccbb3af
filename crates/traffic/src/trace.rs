//! Trace recording and replay.
//!
//! The text format is one request per line:
//!
//! ```text
//! # tick cmd addr size
//! 0 R 0x1000 64
//! 1500 W 0x2040 64
//! ```
//!
//! Ticks are picoseconds, addresses hexadecimal (with or without `0x`),
//! sizes bytes. Blank lines and `#` comments are ignored.

use crate::TrafficGen;
use dramctrl_kernel::snap::{SnapError, SnapReader, SnapState, SnapWriter};
use dramctrl_kernel::Tick;
use dramctrl_mem::{MemCmd, MemRequest, ReqId};
use std::fmt::Write as _;
use std::str::FromStr;

/// One record of a memory trace.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TraceEntry {
    /// Intended injection tick.
    pub tick: Tick,
    /// Read or write.
    pub cmd: MemCmd,
    /// Byte address.
    pub addr: u64,
    /// Size in bytes.
    pub size: u32,
}

/// Error parsing a trace.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ParseTraceError {
    line: usize,
    reason: String,
}

impl std::fmt::Display for ParseTraceError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "trace line {}: {}", self.line, self.reason)
    }
}

impl std::error::Error for ParseTraceError {}

/// Replays a sequence of [`TraceEntry`]s as traffic.
///
/// # Example
/// ```
/// use dramctrl_traffic::{TraceGen, TrafficGen};
///
/// let mut g: TraceGen = "0 R 0x40 64\n100 W 0x80 64".parse()?;
/// let (t0, r0) = g.next_request().unwrap();
/// assert_eq!((t0, r0.addr), (0, 0x40));
/// assert!(g.next_request().unwrap().1.cmd.is_write());
/// assert!(g.next_request().is_none());
/// # Ok::<(), dramctrl_traffic::ParseTraceError>(())
/// ```
#[derive(Debug, Clone)]
pub struct TraceGen {
    entries: Vec<TraceEntry>,
    pos: usize,
    next_id: u64,
}

impl TraceGen {
    /// Creates a replayer over the given entries.
    ///
    /// # Panics
    /// Panics if ticks are not non-decreasing or any size is zero.
    pub fn new(entries: Vec<TraceEntry>) -> Self {
        assert!(
            entries.windows(2).all(|w| w[0].tick <= w[1].tick),
            "trace ticks must be non-decreasing"
        );
        assert!(entries.iter().all(|e| e.size > 0), "zero-sized trace entry");
        Self {
            entries,
            pos: 0,
            next_id: 0,
        }
    }

    /// Number of entries in the trace.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Whether the trace is empty.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Serialises entries to the text format, suitable for `parse()`.
    pub fn to_text(entries: &[TraceEntry]) -> String {
        let mut s = String::from("# tick cmd addr size\n");
        for e in entries {
            let cmd = if e.cmd.is_read() { 'R' } else { 'W' };
            writeln!(s, "{} {} {:#x} {}", e.tick, cmd, e.addr, e.size).expect("string write");
        }
        s
    }
}

impl FromStr for TraceGen {
    type Err = ParseTraceError;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        let mut entries = Vec::new();
        for (i, line) in s.lines().enumerate() {
            let line = line.trim();
            if line.is_empty() || line.starts_with('#') {
                continue;
            }
            let err = |reason: &str| ParseTraceError {
                line: i + 1,
                reason: reason.to_owned(),
            };
            let mut parts = line.split_whitespace();
            let tick: Tick = parts
                .next()
                .ok_or_else(|| err("missing tick"))?
                .parse()
                .map_err(|_| err("bad tick"))?;
            let cmd = match parts.next().ok_or_else(|| err("missing cmd"))? {
                "R" | "r" => MemCmd::Read,
                "W" | "w" => MemCmd::Write,
                other => return Err(err(&format!("bad cmd {other:?}"))),
            };
            let addr_s = parts.next().ok_or_else(|| err("missing addr"))?;
            let addr_s = addr_s.strip_prefix("0x").unwrap_or(addr_s);
            let addr = u64::from_str_radix(addr_s, 16).map_err(|_| err("bad addr"))?;
            let size: u32 = parts
                .next()
                .ok_or_else(|| err("missing size"))?
                .parse()
                .map_err(|_| err("bad size"))?;
            if size == 0 {
                return Err(err("zero size"));
            }
            if addr.checked_add(u64::from(size)).is_none() {
                return Err(err("addr + size passes 2^64"));
            }
            if parts.next().is_some() {
                return Err(err("trailing fields"));
            }
            if entries
                .last()
                .is_some_and(|prev: &TraceEntry| prev.tick > tick)
            {
                return Err(err("ticks must be non-decreasing"));
            }
            entries.push(TraceEntry {
                tick,
                cmd,
                addr,
                size,
            });
        }
        Ok(TraceGen::new(entries))
    }
}

impl SnapState for TraceGen {
    /// Captures the replay cursor and id counter. The trace entries are
    /// configuration (reloaded from the trace file) and are not written.
    fn save_state(&self, w: &mut SnapWriter) {
        w.usize(self.pos);
        w.u64(self.next_id);
    }

    fn restore_state(&mut self, r: &mut SnapReader<'_>) -> Result<(), SnapError> {
        let pos = r.usize()?;
        if pos > self.entries.len() {
            return Err(SnapError::Corrupt(format!(
                "replay cursor {pos} beyond the {}-entry trace",
                self.entries.len()
            )));
        }
        self.pos = pos;
        self.next_id = r.u64()?;
        Ok(())
    }
}

impl TrafficGen for TraceGen {
    fn next_request(&mut self) -> Option<(Tick, MemRequest)> {
        let e = *self.entries.get(self.pos)?;
        self.pos += 1;
        let id = ReqId(self.next_id);
        self.next_id += 1;
        let req = match e.cmd {
            MemCmd::Read => MemRequest::read(id, e.addr, e.size),
            MemCmd::Write => MemRequest::write(id, e.addr, e.size),
        };
        Some((e.tick, req))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn round_trip_text() {
        let entries = vec![
            TraceEntry {
                tick: 0,
                cmd: MemCmd::Read,
                addr: 0x40,
                size: 64,
            },
            TraceEntry {
                tick: 1500,
                cmd: MemCmd::Write,
                addr: 0x1000,
                size: 32,
            },
        ];
        let text = TraceGen::to_text(&entries);
        let parsed: TraceGen = text.parse().unwrap();
        assert_eq!(parsed.entries, entries);
    }

    #[test]
    fn comments_and_blanks_ignored() {
        let g: TraceGen = "# header\n\n0 R 40 64\n".parse().unwrap();
        assert_eq!(g.len(), 1);
        assert_eq!(g.entries[0].addr, 0x40);
    }

    #[test]
    fn messy_input_survives_full_round_trip() {
        // Comments (leading and interior), blank lines, surrounding
        // whitespace, lower-case commands, `0x`-less addresses and
        // unaligned sizes must all survive
        // parse → to_text → parse → replay.
        let messy = "\
# recorded by hand

  0 r 40 64
10 W 0xff8 64

# a burst of unaligned accesses
20 R 1fff 3
20 w 0x2000 100
\t30 R 0 1
";
        let first: TraceGen = messy.parse().unwrap();
        assert_eq!(first.len(), 5);
        assert_eq!(first.entries[0].addr, 0x40);
        assert_eq!(first.entries[2].addr, 0x1fff);
        assert_eq!(first.entries[2].size, 3);

        let canonical = TraceGen::to_text(&first.entries);
        let mut second: TraceGen = canonical.parse().unwrap();
        assert_eq!(second.entries, first.entries);
        // Canonical text is a fixed point.
        assert_eq!(TraceGen::to_text(&second.entries), canonical);

        // Replay matches the entries record for record.
        let mut replayed = Vec::new();
        while let Some((tick, req)) = second.next_request() {
            replayed.push((tick, req.cmd, req.addr, req.size));
        }
        let expected: Vec<_> = first
            .entries
            .iter()
            .map(|e| (e.tick, e.cmd, e.addr, e.size))
            .collect();
        assert_eq!(replayed, expected);
    }

    #[test]
    fn extreme_values_round_trip() {
        // The largest size, ending on the last byte of the address space.
        let entries = vec![TraceEntry {
            tick: Tick::MAX,
            cmd: MemCmd::Write,
            addr: u64::MAX - u64::from(u32::MAX),
            size: u32::MAX,
        }];
        let parsed: TraceGen = TraceGen::to_text(&entries).parse().unwrap();
        assert_eq!(parsed.entries, entries);
    }

    #[test]
    fn rejects_descending_ticks() {
        let e = "100 R 0x0 64\n50 R 0x40 64".parse::<TraceGen>();
        assert!(e.unwrap_err().to_string().contains("non-decreasing"));
    }

    #[test]
    fn rejects_garbage() {
        assert!("x R 0 64".parse::<TraceGen>().is_err());
        assert!("0 Q 0 64".parse::<TraceGen>().is_err());
        assert!("0 R zz 64".parse::<TraceGen>().is_err());
        assert!("0 R 0 0".parse::<TraceGen>().is_err());
        assert!("0 R 0 64 extra".parse::<TraceGen>().is_err());
    }

    /// An entry whose bytes run past 2^64 would overflow the burst
    /// chopping (a panic in debug builds, an empty chop in release).
    #[test]
    fn rejects_an_entry_past_the_address_space() {
        let e = "0 R 0xffffffffffffffc0 64".parse::<TraceGen>();
        assert!(e.unwrap_err().to_string().contains("passes 2^64"));
        let e = "0 R 0xffffffffffffffff 1".parse::<TraceGen>();
        assert!(e.is_err());
        let last: TraceGen = "0 R 0xffffffffffffffbf 64".parse().unwrap();
        assert_eq!(last.len(), 1);
    }

    #[test]
    fn assigns_sequential_ids() {
        let mut g: TraceGen = "0 R 0 64\n0 W 40 64".parse().unwrap();
        assert_eq!(g.next_request().unwrap().1.id, ReqId(0));
        assert_eq!(g.next_request().unwrap().1.id, ReqId(1));
    }
}
