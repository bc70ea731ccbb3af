//! Chrome trace-event / Perfetto JSON exporter ([`ChromeTracer`]).

use crate::probe::{CmdEvent, DramCmd, PowerState, Probe, RasMark};
use dramctrl_kernel::Tick;
use std::fmt::Write as _;

/// Records the probe event stream and serialises it as Chrome trace-event
/// JSON.
///
/// The output is the classic Chrome trace-event JSON format
/// (`{"traceEvents":[...]}`), which [ui.perfetto.dev](https://ui.perfetto.dev)
/// and `chrome://tracing` both load directly. The mapping:
///
/// * **process** = memory channel (`pid` is the channel index),
/// * **thread 0** = the request-lifecycle track: each request is a nestable
///   async span from acceptance to response delivery,
/// * one **thread per bank** (sorted by `(rank, bank)`): ACT/PRE/RD/WR
///   duration slices, with row / bytes / row-hit annotations in `args`,
/// * one **thread per rank**: REF slices plus power-down / self-refresh
///   residency slices (active time is the gap between them).
///
/// Timestamps are microseconds (the format's unit); ticks are picoseconds,
/// so `ts = ticks / 1e6` with sub-microsecond precision preserved in the
/// fractional part.
///
/// One tracer observes one controller (one channel); for multi-channel
/// systems give each controller its own tracer (constructed with
/// [`ChromeTracer::for_channel`]) and merge them with
/// [`ChromeTracer::combined_json`].
#[derive(Debug, Clone, Default)]
pub struct ChromeTracer {
    channel: u32,
    cmds: Vec<CmdEvent>,
    accepts: Vec<(u64, bool, u64, u32, Tick)>,
    completes: Vec<(u64, bool, Tick)>,
    power: Vec<(u32, PowerState, Tick)>,
    ras: Vec<(u32, u32, u64, RasMark, Tick)>,
}

impl ChromeTracer {
    /// A tracer for a single-channel controller (channel 0).
    pub fn new() -> Self {
        Self::default()
    }

    /// A tracer labelled as channel `channel` (becomes the trace `pid`).
    pub fn for_channel(channel: u32) -> Self {
        Self {
            channel,
            ..Self::default()
        }
    }

    /// The channel this tracer is labelled as.
    pub fn channel(&self) -> u32 {
        self.channel
    }

    /// Number of raw events recorded so far (commands, lifecycle marks,
    /// power transitions and RAS marks).
    pub fn event_count(&self) -> usize {
        self.cmds.len()
            + self.accepts.len()
            + self.completes.len()
            + self.power.len()
            + self.ras.len()
    }

    /// Whether nothing has been recorded.
    pub fn is_empty(&self) -> bool {
        self.event_count() == 0
    }

    /// Serialises everything recorded as a complete Chrome trace JSON
    /// document.
    pub fn to_json(&self) -> String {
        Self::combined_json([self])
    }

    /// Merges several tracers (one per channel) into one trace document.
    pub fn combined_json<'a>(tracers: impl IntoIterator<Item = &'a ChromeTracer>) -> String {
        let mut events: Vec<String> = Vec::new();
        for t in tracers {
            t.emit(&mut events);
        }
        let mut out = String::from("{\"traceEvents\":[");
        for (i, ev) in events.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push('\n');
            out.push_str(ev);
        }
        out.push_str("\n],\"displayTimeUnit\":\"ns\"}\n");
        out
    }

    /// Appends this tracer's event objects (one JSON object per string) to
    /// `out` in a deterministic order.
    fn emit(&self, out: &mut Vec<String>) {
        let pid = self.channel;

        // Track layout: tid 0 = requests, then one tid per (rank, bank)
        // in sorted order, then one per rank.
        let mut banks: Vec<(u32, u32)> = self
            .cmds
            .iter()
            .filter(|c| c.cmd != DramCmd::Ref)
            .map(|c| (c.rank, c.bank))
            .chain(self.ras.iter().map(|&(r, b, _, _, _)| (r, b)))
            .collect();
        banks.sort_unstable();
        banks.dedup();
        let mut ranks: Vec<u32> = self
            .cmds
            .iter()
            .map(|c| c.rank)
            .chain(self.power.iter().map(|&(r, _, _)| r))
            .collect();
        ranks.sort_unstable();
        ranks.dedup();
        let bank_tid = |rank: u32, bank: u32| -> u64 {
            1 + banks.binary_search(&(rank, bank)).unwrap() as u64
        };
        let rank_tid = |rank: u32| -> u64 {
            1 + banks.len() as u64 + ranks.binary_search(&rank).unwrap() as u64
        };

        // Metadata: name the process and every track.
        out.push(meta(pid, 0, "process_name", &format!("channel {pid}")));
        out.push(meta(pid, 0, "thread_name", "requests"));
        for &(r, b) in &banks {
            out.push(meta(
                pid,
                bank_tid(r, b),
                "thread_name",
                &format!("rank {r} bank {b}"),
            ));
        }
        for &r in &ranks {
            out.push(meta(
                pid,
                rank_tid(r),
                "thread_name",
                &format!("rank {r} power"),
            ));
        }

        // Command slices.
        for c in &self.cmds {
            let tid = if c.cmd == DramCmd::Ref {
                rank_tid(c.rank)
            } else {
                bank_tid(c.rank, c.bank)
            };
            let mut args = String::new();
            match c.cmd {
                DramCmd::Act => {
                    let _ = write!(args, "\"row\":{}", c.row);
                }
                DramCmd::Rd | DramCmd::Wr => {
                    let _ = write!(
                        args,
                        "\"row\":{},\"bytes\":{},\"row_hit\":{}",
                        c.row, c.bytes, c.row_hit
                    );
                    if let Some(req) = c.req {
                        let _ = write!(args, ",\"req\":{req}");
                    }
                }
                DramCmd::Pre | DramCmd::Ref => {}
            }
            out.push(slice(c.cmd.name(), "dram", pid, tid, c.at, c.dur, &args));
        }

        // Power residency: a slice per power-down / self-refresh span,
        // closed by the next transition (or the end of the trace).
        let end = self.end_tick();
        for &r in &ranks {
            let mut spans: Vec<(PowerState, Tick)> = self
                .power
                .iter()
                .filter(|&&(pr, _, _)| pr == r)
                .map(|&(_, s, at)| (s, at))
                .collect();
            spans.sort_by_key(|&(_, at)| at);
            for (i, &(state, at)) in spans.iter().enumerate() {
                if state == PowerState::Active {
                    continue;
                }
                let until = spans
                    .get(i + 1)
                    .map(|&(_, next)| next)
                    .unwrap_or(end)
                    .max(at);
                out.push(slice(
                    state.name(),
                    "power",
                    pid,
                    rank_tid(r),
                    at,
                    until - at,
                    "",
                ));
            }
        }

        // RAS marks as instant events on the bank track they hit.
        for &(r, b, row, mark, at) in &self.ras {
            let args = format!("\"row\":{row}");
            out.push(instant(mark.name(), "ras", pid, bank_tid(r, b), at, &args));
        }

        // Request lifecycles as nestable async spans on tid 0.
        for &(id, is_read, addr, size, at) in &self.accepts {
            let name = if is_read { "read" } else { "write" };
            let args = format!("\"addr\":\"{addr:#x}\",\"bytes\":{size}");
            out.push(flow("b", name, pid, id, at, &args));
        }
        for &(id, is_read, ready_at) in &self.completes {
            let name = if is_read { "read" } else { "write" };
            out.push(flow("e", name, pid, id, ready_at, ""));
        }
    }

    /// The latest timestamp recorded, used to close open residency spans.
    fn end_tick(&self) -> Tick {
        let mut end = 0;
        for c in &self.cmds {
            end = end.max(c.at + c.dur);
        }
        for &(_, _, _, _, at) in &self.accepts {
            end = end.max(at);
        }
        for &(_, _, at) in &self.completes {
            end = end.max(at);
        }
        for &(_, _, at) in &self.power {
            end = end.max(at);
        }
        for &(_, _, _, _, at) in &self.ras {
            end = end.max(at);
        }
        end
    }
}

impl Probe for ChromeTracer {
    fn dram_cmd(&mut self, ev: CmdEvent) {
        self.cmds.push(ev);
    }

    fn req_accepted(&mut self, id: u64, is_read: bool, addr: u64, size: u32, now: Tick) {
        self.accepts.push((id, is_read, addr, size, now));
    }

    fn req_completed(&mut self, id: u64, is_read: bool, ready_at: Tick) {
        self.completes.push((id, is_read, ready_at));
    }

    fn power_state(&mut self, rank: u32, state: PowerState, at: Tick) {
        self.power.push((rank, state, at));
    }

    fn ras_event(&mut self, rank: u32, bank: u32, row: u64, mark: RasMark, at: Tick) {
        self.ras.push((rank, bank, row, mark, at));
    }
}

/// Ticks (picoseconds) → trace timestamp (microseconds), shortest form.
fn ts(t: Tick) -> impl std::fmt::Display {
    crate::json::json_f64(t as f64 / 1e6)
}

fn meta(pid: u32, tid: u64, name: &str, value: &str) -> String {
    format!(
        "{{\"name\":\"{name}\",\"ph\":\"M\",\"pid\":{pid},\"tid\":{tid},\
         \"args\":{{\"name\":\"{value}\"}}}}"
    )
}

fn slice(name: &str, cat: &str, pid: u32, tid: u64, at: Tick, dur: Tick, args: &str) -> String {
    format!(
        "{{\"name\":\"{name}\",\"cat\":\"{cat}\",\"ph\":\"X\",\"ts\":{},\"dur\":{},\
         \"pid\":{pid},\"tid\":{tid},\"args\":{{{args}}}}}",
        ts(at),
        ts(dur),
    )
}

fn instant(name: &str, cat: &str, pid: u32, tid: u64, at: Tick, args: &str) -> String {
    format!(
        "{{\"name\":\"{name}\",\"cat\":\"{cat}\",\"ph\":\"i\",\"s\":\"t\",\"ts\":{},\
         \"pid\":{pid},\"tid\":{tid},\"args\":{{{args}}}}}",
        ts(at),
    )
}

fn flow(ph: &str, name: &str, pid: u32, id: u64, at: Tick, args: &str) -> String {
    format!(
        "{{\"name\":\"{name}\",\"cat\":\"req\",\"ph\":\"{ph}\",\"id\":\"{id:#x}\",\
         \"ts\":{},\"pid\":{pid},\"tid\":0,\"args\":{{{args}}}}}",
        ts(at),
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> ChromeTracer {
        let mut t = ChromeTracer::for_channel(1);
        t.req_accepted(7, true, 0x1000, 64, 500);
        t.dram_cmd(CmdEvent::act(0, 3, 42, 1_000, 13_500));
        t.dram_cmd(CmdEvent {
            req: Some(7),
            ..CmdEvent::data(DramCmd::Rd, 0, 3, 42, 14_500, 6_000, 64, false)
        });
        t.dram_cmd(CmdEvent::pre(0, 3, 21_000, 13_500));
        t.dram_cmd(CmdEvent::refresh(0, 40_000, 260_000));
        t.power_state(0, PowerState::PoweredDown, 310_000);
        t.power_state(0, PowerState::Active, 350_000);
        t.req_completed(7, true, 25_000);
        t
    }

    #[test]
    fn json_is_valid_and_complete() {
        let t = sample();
        let json = t.to_json();
        crate::json::validate(&json).expect("valid JSON");
        for needle in [
            "\"ACT\"",
            "\"PRE\"",
            "\"RD\"",
            "\"REF\"",
            "\"powerdown\"",
            "\"rank 0 bank 3\"",
            "\"rank 0 power\"",
            "\"requests\"",
            "\"channel 1\"",
            "\"ph\":\"b\"",
            "\"ph\":\"e\"",
            "\"id\":\"0x7\"",
            "\"row\":42",
            "\"row_hit\":false",
            "\"req\":7",
        ] {
            assert!(json.contains(needle), "missing {needle} in {json}");
        }
        assert_eq!(t.event_count(), 8);
    }

    #[test]
    fn timestamps_are_microseconds() {
        let mut t = ChromeTracer::new();
        t.dram_cmd(CmdEvent::act(0, 0, 1, 2_500_000, 1_000_000));
        let json = t.to_json();
        assert!(json.contains("\"ts\":2.5,\"dur\":1,"), "{json}");
    }

    #[test]
    fn residency_closed_by_trace_end() {
        let mut t = ChromeTracer::new();
        t.power_state(0, PowerState::SelfRefresh, 1_000_000);
        t.dram_cmd(CmdEvent::refresh(0, 2_000_000, 500_000));
        let json = t.to_json();
        // Span runs from 1 µs to the trace end at 2.5 µs → dur 1.5 µs.
        assert!(json.contains("\"selfrefresh\""), "{json}");
        assert!(json.contains("\"ts\":1,\"dur\":1.5,"), "{json}");
    }

    #[test]
    fn combined_merges_channels() {
        let mut a = ChromeTracer::for_channel(0);
        a.dram_cmd(CmdEvent::act(0, 0, 1, 0, 10));
        let mut b = ChromeTracer::for_channel(1);
        b.dram_cmd(CmdEvent::act(0, 0, 2, 0, 10));
        let json = ChromeTracer::combined_json([&a, &b]);
        crate::json::validate(&json).unwrap();
        assert!(json.contains("\"channel 0\"") && json.contains("\"channel 1\""));
        assert!(json.contains("\"pid\":0") && json.contains("\"pid\":1"));
    }

    #[test]
    fn ras_marks_render_as_instants() {
        let mut t = ChromeTracer::new();
        // No command ever touches (1, 5): the RAS mark alone must create
        // the bank track.
        t.ras_event(1, 5, 77, RasMark::Corrected, 3_000_000);
        t.ras_event(1, 5, 77, RasMark::Retry, 4_000_000);
        let json = t.to_json();
        crate::json::validate(&json).unwrap();
        for needle in [
            "\"corrected\"",
            "\"retry\"",
            "\"cat\":\"ras\"",
            "\"ph\":\"i\"",
            "\"rank 1 bank 5\"",
            "\"row\":77",
        ] {
            assert!(json.contains(needle), "missing {needle} in {json}");
        }
        assert_eq!(t.event_count(), 2);
    }

    #[test]
    fn empty_trace_is_valid() {
        let json = ChromeTracer::new().to_json();
        crate::json::validate(&json).unwrap();
        assert!(ChromeTracer::new().is_empty());
    }
}
