//! Epoch time-series recorder: gem5-style periodic statistics.
//!
//! [`EpochRecorder`] folds the probe event stream into fixed-width time
//! bins ("epochs") of `interval` ticks. Each epoch captures bandwidth, data
//! bus utilisation, row-hit rate, command counts, time-weighted queue
//! occupancy and low-power residency — the quantities gem5's periodic
//! `stats.txt` dumps provide for every DRAM figure in the literature.
//!
//! An epoch counts the commands issued in it with [`CommonStats::record`],
//! the rule the controllers count their own statistics with, so the
//! epochs of a run sum to its `common_stats()`. Quantities that span time
//! (bus busy, queue occupancy, power residency) are split proportionally
//! across the epochs they overlap, so a transfer crossing an epoch
//! boundary contributes to both epochs' utilisation. Because DRAM command
//! timestamps point into the future (the event model schedules ahead of
//! `now`), bins are indexed by absolute time and grown on demand rather
//! than rolled forward.

use std::fmt::{self, Write as _};
use std::ops::AddAssign;

use dramctrl_kernel::json::json_f64;
use dramctrl_kernel::Tick;
use dramctrl_obs::{CmdEvent, PowerState, Probe, RasMark};

use crate::ctrl_if::CommonStats;

/// One epoch's raw sums; [`EpochRow`] derives the rates from them.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct EpochBin {
    /// The commands issued in the epoch, counted by
    /// [`CommonStats::record`]. A burst's `bus_busy` counts whole here,
    /// in the epoch the burst starts in.
    pub cmds: CommonStats,
    /// Ticks the data bus was busy within the epoch: a transfer that
    /// crosses an epoch boundary counts in both epochs, each its share.
    pub bus_time: Tick,
    /// Read-queue depth integrated over the epoch's ticks.
    pub rdq_integral: u128,
    /// Write-queue depth integrated over the epoch's ticks.
    pub wrq_integral: u128,
    /// Rank-ticks spent in precharge power-down (summed over ranks).
    pub powerdown: Tick,
    /// Rank-ticks spent in self-refresh (summed over ranks).
    pub selfref: Tick,
    /// Faulty bursts corrected by ECC in the epoch.
    pub ras_corrected: u64,
    /// Faulty bursts detected but not corrected (including silent
    /// corruptions, counted by the controller's fault model).
    pub ras_uncorrected: u64,
    /// Link-error retries issued in the epoch.
    pub ras_retries: u64,
}

/// Sums epochs of independent recorders (the channels of a system).
impl AddAssign for EpochBin {
    fn add_assign(&mut self, o: EpochBin) {
        self.cmds += o.cmds;
        self.bus_time += o.bus_time;
        self.rdq_integral += o.rdq_integral;
        self.wrq_integral += o.wrq_integral;
        self.powerdown += o.powerdown;
        self.selfref += o.selfref;
        self.ras_corrected += o.ras_corrected;
        self.ras_uncorrected += o.ras_uncorrected;
        self.ras_retries += o.ras_retries;
    }
}

/// One finished epoch: its place in time and its sums, with derived rates.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct EpochRow {
    /// Epoch index (0-based).
    pub epoch: usize,
    /// First tick of the epoch (inclusive).
    pub start: Tick,
    /// First tick after the epoch: every epoch, the last one included,
    /// spans a full interval.
    pub end: Tick,
    /// What the epoch summed.
    pub bin: EpochBin,
}

impl EpochRow {
    fn span(&self) -> f64 {
        (self.end - self.start) as f64
    }

    /// Total data bandwidth over the epoch in GB/s (ticks are picoseconds,
    /// so bytes/tick × 1000 = GB/s).
    pub fn bandwidth_gbps(&self) -> f64 {
        let c = &self.bin.cmds;
        (c.bytes_read + c.bytes_written) as f64 / self.span() * 1000.0
    }

    /// Fraction of the epoch the data bus was transferring.
    pub fn bus_util(&self) -> f64 {
        self.bin.bus_time as f64 / self.span()
    }

    /// Column accesses that missed (required activation).
    pub fn row_misses(&self) -> u64 {
        let c = &self.bin.cmds;
        c.rd_bursts + c.wr_bursts - c.row_hits
    }

    /// Row-hit fraction of column accesses in the epoch (0 when idle).
    pub fn row_hit_rate(&self) -> f64 {
        self.bin.cmds.page_hit_rate()
    }

    /// Time-weighted average read-queue depth.
    pub fn avg_rdq(&self) -> f64 {
        self.bin.rdq_integral as f64 / self.span()
    }

    /// Time-weighted average write-queue depth.
    pub fn avg_wrq(&self) -> f64 {
        self.bin.wrq_integral as f64 / self.span()
    }
}

/// One exported value: a count, or a rate the CSV prints with six
/// decimals and the JSON lines as the shortest exact number.
enum Cell {
    Count(u64),
    Rate(f64),
}

/// An exported column: its name, and the row's value under it.
type Column = (&'static str, fn(&EpochRow) -> Cell);

/// The exported columns, in order. Both renderers walk this table.
const COLUMNS: [Column; 20] = [
    ("epoch", |r| Cell::Count(r.epoch as u64)),
    ("start_ps", |r| Cell::Count(r.start)),
    ("end_ps", |r| Cell::Count(r.end)),
    ("bytes_read", |r| Cell::Count(r.bin.cmds.bytes_read)),
    ("bytes_written", |r| Cell::Count(r.bin.cmds.bytes_written)),
    ("bandwidth_gbps", |r| Cell::Rate(r.bandwidth_gbps())),
    ("bus_util", |r| Cell::Rate(r.bus_util())),
    ("row_hits", |r| Cell::Count(r.bin.cmds.row_hits)),
    ("row_misses", |r| Cell::Count(r.row_misses())),
    ("row_hit_rate", |r| Cell::Rate(r.row_hit_rate())),
    ("acts", |r| Cell::Count(r.bin.cmds.activates)),
    ("pres", |r| Cell::Count(r.bin.cmds.precharges)),
    ("refs", |r| Cell::Count(r.bin.cmds.refreshes)),
    ("avg_rdq", |r| Cell::Rate(r.avg_rdq())),
    ("avg_wrq", |r| Cell::Rate(r.avg_wrq())),
    ("powerdown_ps", |r| Cell::Count(r.bin.powerdown)),
    ("selfref_ps", |r| Cell::Count(r.bin.selfref)),
    ("ras_corrected", |r| Cell::Count(r.bin.ras_corrected)),
    ("ras_uncorrected", |r| Cell::Count(r.bin.ras_uncorrected)),
    ("ras_retries", |r| Cell::Count(r.bin.ras_retries)),
];

/// Folds probe events into fixed-width epochs. Implements [`Probe`], so it
/// plugs directly into an instrumented controller; call
/// [`finish`](Self::finish) once at the end of the run to close the open
/// occupancy and residency spans, then export with [`to_csv`](Self::to_csv)
/// or [`to_jsonl`](Self::to_jsonl).
#[derive(Debug, Clone)]
pub struct EpochRecorder {
    interval: Tick,
    bins: Vec<EpochBin>,
    /// Current queue depths and the tick they took effect.
    rdq: usize,
    wrq: usize,
    q_since: Tick,
    /// Per-rank power state and the tick it was entered.
    ranks: Vec<(u32, PowerState, Tick)>,
    /// The latest tick seen; [`finish`](Self::finish) closes the open
    /// spans no earlier.
    end: Tick,
}

impl EpochRecorder {
    /// A recorder binning every `interval` ticks. `interval` must be
    /// non-zero.
    pub fn new(interval: Tick) -> Self {
        assert!(interval > 0, "epoch interval must be non-zero");
        Self {
            interval,
            bins: Vec::new(),
            rdq: 0,
            wrq: 0,
            q_since: 0,
            ranks: Vec::new(),
            end: 0,
        }
    }

    /// The configured epoch width in ticks.
    pub fn interval(&self) -> Tick {
        self.interval
    }

    /// Closes the open queue-occupancy and power-residency spans at `end`
    /// and fixes the recording length. Call exactly once, after the
    /// simulation has drained.
    pub fn finish(&mut self, end: Tick) {
        let end = end.max(self.end);
        self.close_queue_span(end);
        for i in 0..self.ranks.len() {
            let (_, state, since) = self.ranks[i];
            if end > since {
                self.add_residency(state, since, end);
                self.ranks[i].2 = end;
            }
        }
        self.end = end;
    }

    /// The rows recorded so far. Spans still open (no [`finish`] yet) are
    /// not included in their bins.
    ///
    /// [`finish`]: Self::finish
    pub fn rows(&self) -> Vec<EpochRow> {
        self.bins
            .iter()
            .enumerate()
            .map(|(i, bin)| {
                let start = i as Tick * self.interval;
                EpochRow {
                    epoch: i,
                    start,
                    end: start + self.interval,
                    bin: *bin,
                }
            })
            .collect()
    }

    /// Renders the time-series as CSV with a header row.
    pub fn to_csv(&self) -> String {
        let names = COLUMNS.map(|(name, _)| name);
        let mut out = names.join(",");
        out.push('\n');
        self.render_rows(&mut out, "", |out, i, _, cell| {
            let sep = if i == 0 { "" } else { "," };
            match cell {
                Cell::Count(v) => write!(out, "{sep}{v}"),
                Cell::Rate(v) => write!(out, "{sep}{v:.6}"),
            }
        });
        out
    }

    /// Renders the time-series as JSON lines (one object per epoch, same
    /// fields as the CSV).
    pub fn to_jsonl(&self) -> String {
        let mut out = String::new();
        self.render_rows(&mut out, "}", |out, i, name, cell| {
            let sep = if i == 0 { '{' } else { ',' };
            match cell {
                Cell::Count(v) => write!(out, "{sep}\"{name}\":{v}"),
                Cell::Rate(v) => write!(out, "{sep}\"{name}\":{}", json_f64(v)),
            }
        });
        out
    }

    /// Appends one line per row: each column written by `cell(out, column
    /// index, column name, value)`, then `close`.
    fn render_rows(
        &self,
        out: &mut String,
        close: &str,
        mut cell: impl FnMut(&mut String, usize, &str, Cell) -> fmt::Result,
    ) {
        for r in self.rows() {
            for (i, (name, value)) in COLUMNS.iter().enumerate() {
                cell(out, i, name, value(&r)).expect("writing to a String cannot fail");
            }
            out.push_str(close);
            out.push('\n');
        }
    }

    /// Merges another recorder's bins into this one (element-wise sums),
    /// e.g. to combine the per-channel recorders of a multi-channel system
    /// into one system-level time-series. Both recorders must use the same
    /// interval, and both should be [`finish`](Self::finish)ed first so no
    /// open spans are lost.
    ///
    /// # Panics
    /// Panics if the intervals differ.
    pub fn absorb(&mut self, other: &EpochRecorder) {
        assert_eq!(
            self.interval, other.interval,
            "cannot absorb a recorder with a different epoch interval"
        );
        if other.bins.len() > self.bins.len() {
            self.bins.resize(other.bins.len(), EpochBin::default());
        }
        for (dst, src) in self.bins.iter_mut().zip(&other.bins) {
            *dst += *src;
        }
        self.end = self.end.max(other.end);
    }

    fn bin_mut(&mut self, at: Tick) -> &mut EpochBin {
        let idx = (at / self.interval) as usize;
        if idx >= self.bins.len() {
            self.bins.resize(idx + 1, EpochBin::default());
        }
        self.end = self.end.max(at);
        &mut self.bins[idx]
    }

    /// Applies `f(bin, overlap_ticks)` to every bin overlapping
    /// `[from, to)`.
    fn add_span(&mut self, from: Tick, to: Tick, mut f: impl FnMut(&mut EpochBin, Tick)) {
        if to <= from {
            return;
        }
        let interval = self.interval;
        let mut at = from;
        while at < to {
            let bin_end = (at / interval + 1) * interval;
            let seg_end = bin_end.min(to);
            let span = seg_end - at;
            f(self.bin_mut(at), span);
            at = seg_end;
        }
        self.end = self.end.max(to);
    }

    /// Adds the current queue depths over `[q_since, now)`.
    fn close_queue_span(&mut self, now: Tick) {
        if now > self.q_since {
            let (rdq, wrq, since) = (self.rdq as u128, self.wrq as u128, self.q_since);
            self.add_span(since, now, |bin, span| {
                bin.rdq_integral += rdq * u128::from(span);
                bin.wrq_integral += wrq * u128::from(span);
            });
            self.q_since = now;
        }
    }

    fn add_residency(&mut self, state: PowerState, from: Tick, to: Tick) {
        match state {
            PowerState::Active => {}
            PowerState::PoweredDown => {
                self.add_span(from, to, |bin, span| bin.powerdown += span);
            }
            PowerState::SelfRefresh => {
                self.add_span(from, to, |bin, span| bin.selfref += span);
            }
        }
    }
}

impl Probe for EpochRecorder {
    /// Counts the command in the epoch it is issued in, and splits the
    /// bus time [`CommonStats::record`] charges it over the epochs the
    /// transfer overlaps.
    fn dram_cmd(&mut self, ev: CmdEvent) {
        let cmds = &mut self.bin_mut(ev.at).cmds;
        let busy_before = cmds.bus_busy;
        cmds.record(&ev);
        let busy = cmds.bus_busy - busy_before;
        self.add_span(ev.at, ev.at + busy, |bin, span| bin.bus_time += span);
    }

    fn queue_depth(&mut self, read_q: usize, write_q: usize, now: Tick) {
        self.close_queue_span(now);
        self.rdq = read_q;
        self.wrq = write_q;
    }

    fn ras_event(&mut self, _rank: u32, _bank: u32, _row: u64, mark: RasMark, at: Tick) {
        let bin = self.bin_mut(at);
        match mark {
            RasMark::Corrected => bin.ras_corrected += 1,
            RasMark::Uncorrected | RasMark::Silent => bin.ras_uncorrected += 1,
            RasMark::Retry => bin.ras_retries += 1,
            RasMark::Remap | RasMark::RankOffline => {}
        }
    }

    fn power_state(&mut self, rank: u32, state: PowerState, at: Tick) {
        if let Some(entry) = self.ranks.iter_mut().find(|(r, _, _)| *r == rank) {
            let (_, old, since) = *entry;
            *entry = (rank, state, at);
            if at > since {
                self.add_residency(old, since, at);
            }
        } else {
            // First sighting: the rank was active from tick 0.
            self.ranks.push((rank, state, at));
            self.end = self.end.max(at);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dramctrl_kernel::json::validate;
    use dramctrl_obs::DramCmd;

    #[test]
    fn bandwidth_and_hit_rate_per_epoch() {
        let mut r = EpochRecorder::new(1_000);
        // Epoch 0: one 64-byte read, row miss.
        r.dram_cmd(CmdEvent::data(DramCmd::Rd, 0, 0, 1, 100, 200, 64, false));
        // Epoch 2: one 64-byte write, row hit.
        r.dram_cmd(CmdEvent::data(DramCmd::Wr, 0, 0, 1, 2_100, 200, 64, true));
        r.finish(3_000);
        let rows = r.rows();
        assert_eq!(rows.len(), 3);
        assert_eq!(rows[0].bin.cmds.bytes_read, 64);
        assert_eq!(rows[0].row_misses(), 1);
        assert!((rows[0].bandwidth_gbps() - 64.0).abs() < 1e-9);
        assert!((rows[0].bus_util() - 0.2).abs() < 1e-9);
        assert_eq!(rows[1].bandwidth_gbps(), 0.0);
        assert_eq!(rows[2].bin.cmds.bytes_written, 64);
        assert!((rows[2].row_hit_rate() - 1.0).abs() < 1e-9);
    }

    #[test]
    fn spans_split_across_epochs() {
        let mut r = EpochRecorder::new(1_000);
        // A transfer crossing the epoch boundary: 600 ticks in epoch 0,
        // 400 in epoch 1.
        r.dram_cmd(CmdEvent::data(DramCmd::Rd, 0, 0, 1, 400, 1_000, 64, false));
        r.finish(2_000);
        let rows = r.rows();
        assert_eq!(rows[0].bin.bus_time, 600);
        assert_eq!(rows[1].bin.bus_time, 400);
        // Bytes, and the burst's whole bus time, are attributed to the
        // start epoch only.
        assert_eq!(rows[0].bin.cmds.bytes_read, 64);
        assert_eq!(rows[1].bin.cmds.bytes_read, 0);
        assert_eq!(
            [rows[0].bin.cmds.bus_busy, rows[1].bin.cmds.bus_busy],
            [1_000, 0]
        );
    }

    #[test]
    fn queue_occupancy_is_time_weighted() {
        let mut r = EpochRecorder::new(1_000);
        r.queue_depth(4, 0, 500); // depth 0 for [0,500)
        r.queue_depth(0, 2, 1_500); // rd 4 for [500,1500)
        r.finish(2_000); // wr 2 for [1500,2000)
        let rows = r.rows();
        // Epoch 0: rd 4 over [500,1000) → integral 2000 / 1000 = 2.0.
        assert!((rows[0].avg_rdq() - 2.0).abs() < 1e-9);
        // Epoch 1: rd 4 over [1000,1500) → 2.0; wr 2 over [1500,2000) → 1.0.
        assert!((rows[1].avg_rdq() - 2.0).abs() < 1e-9);
        assert!((rows[1].avg_wrq() - 1.0).abs() < 1e-9);
    }

    #[test]
    fn power_residency_split() {
        let mut r = EpochRecorder::new(1_000);
        r.power_state(0, PowerState::PoweredDown, 800);
        r.power_state(0, PowerState::Active, 1_200);
        r.power_state(1, PowerState::SelfRefresh, 1_500);
        r.finish(2_000);
        let rows = r.rows();
        assert_eq!(rows[0].bin.powerdown, 200);
        assert_eq!(rows[1].bin.powerdown, 200);
        assert_eq!(rows[1].bin.selfref, 500);
    }

    #[test]
    fn exports_are_parseable() {
        let mut r = EpochRecorder::new(1_000);
        r.dram_cmd(CmdEvent::data(DramCmd::Rd, 0, 0, 1, 100, 200, 64, true));
        r.dram_cmd(CmdEvent::act(0, 0, 1, 1_200, 300));
        r.finish(2_000);
        let csv = r.to_csv();
        assert_eq!(csv.lines().count(), 3); // header + 2 epochs
        assert!(csv.starts_with("epoch,start_ps"));
        for line in r.to_jsonl().lines() {
            validate(line).expect("valid JSONL row");
        }
        assert_eq!(r.to_jsonl().lines().count(), 2);
        // Both exports walk one column table: the JSON keys are the CSV
        // header, and every value agrees with its CSV cell (`{:.6}`).
        let header: Vec<&str> = csv.lines().next().unwrap().split(',').collect();
        let jsonl = r.to_jsonl();
        for (line, row) in jsonl.lines().zip(csv.lines().skip(1)) {
            let fields = line[1..line.len() - 1]
                .split(',')
                .map(|kv| kv.split_once(':').unwrap());
            let keys: Vec<&str> = fields.clone().map(|(k, _)| k.trim_matches('"')).collect();
            assert_eq!(keys, header);
            for ((_, value), cell) in fields.zip(row.split(',')) {
                let (j, c): (f64, f64) = (value.parse().unwrap(), cell.parse().unwrap());
                assert!((j - c).abs() < 1e-6, "{value} vs {cell}");
            }
        }
    }

    #[test]
    fn absorb_sums_channels() {
        let mut a = EpochRecorder::new(1_000);
        a.dram_cmd(CmdEvent::data(DramCmd::Rd, 0, 0, 1, 100, 200, 64, true));
        a.finish(2_000);
        let mut b = EpochRecorder::new(1_000);
        b.dram_cmd(CmdEvent::data(DramCmd::Wr, 0, 1, 2, 1_100, 200, 32, false));
        b.dram_cmd(CmdEvent::act(0, 1, 2, 900, 300));
        b.finish(3_000);
        a.absorb(&b);
        let rows = a.rows();
        assert_eq!(rows.len(), 3);
        assert_eq!(rows[0].bin.cmds.bytes_read, 64);
        assert_eq!(rows[0].bin.cmds.activates, 1);
        assert_eq!(rows[1].bin.cmds.bytes_written, 32);
        assert_eq!(rows[1].row_misses(), 1);
    }

    #[test]
    fn ras_marks_are_binned_and_exported() {
        let mut r = EpochRecorder::new(1_000);
        r.ras_event(0, 0, 7, RasMark::Corrected, 100);
        r.ras_event(0, 0, 7, RasMark::Retry, 200);
        r.ras_event(0, 1, 8, RasMark::Uncorrected, 1_100);
        r.ras_event(0, 1, 8, RasMark::Silent, 1_200);
        r.ras_event(0, 1, 8, RasMark::Remap, 1_300); // not counted
        r.finish(2_000);
        let rows = r.rows();
        assert_eq!(rows[0].bin.ras_corrected, 1);
        assert_eq!(rows[0].bin.ras_retries, 1);
        assert_eq!(rows[1].bin.ras_uncorrected, 2);
        let csv = r.to_csv();
        assert!(
            csv.lines().next().unwrap().ends_with("ras_retries"),
            "{csv}"
        );
        for line in r.to_jsonl().lines() {
            validate(line).unwrap();
        }
        assert!(r.to_jsonl().contains("\"ras_corrected\":1"));
        // Absorb sums the RAS columns too.
        let mut other = EpochRecorder::new(1_000);
        other.ras_event(0, 0, 9, RasMark::Corrected, 150);
        other.finish(2_000);
        r.absorb(&other);
        assert_eq!(r.rows()[0].bin.ras_corrected, 2);
    }

    #[test]
    fn out_of_order_queue_updates_do_not_panic() {
        let mut r = EpochRecorder::new(1_000);
        r.queue_depth(1, 0, 1_000);
        r.queue_depth(2, 0, 500); // earlier tick: depth updates, no negative span
        r.finish(2_000);
        let rows = r.rows();
        assert_eq!(rows.len(), 2);
        assert!((rows[1].avg_rdq() - 2.0).abs() < 1e-9);
    }
}
