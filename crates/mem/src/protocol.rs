//! The DRAM protocol as one table of inter-command constraints ([`rows`],
//! each read off its [`Timing`] field's datasheet meaning, over the levels
//! channel, rank and bank, as Ramulator declares a standard) and its one
//! interpreter, [`ProtocolState`]. The timing checker runs it in
//! picoseconds, the cycle baseline in cycles; the event model derives its
//! timing by hand, so the checker judging it stays independent evidence.

use std::fmt;

use dramctrl_kernel::snap::{SnapError, SnapReader, SnapState, SnapWriter};
use dramctrl_kernel::Tick;
use dramctrl_obs::DramCmd;

use crate::{MemSpec, Organisation, Timing};

/// A protocol rule.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum Rule {
    /// tRCD: a column command waits tRCD after the ACT that opened its row.
    Rcd,
    /// tRP: after a PRE, no ACT to its bank and no REF to its rank.
    Rp,
    /// tRAS: a row stays open at least tRAS from its ACT to its PRE.
    Ras,
    /// tRRD: two ACTs to one rank are at least tRRD apart.
    Rrd,
    /// tXAW: at most `activation_limit` ACTs to one rank in any tXAW.
    Xaw,
    /// tRTP: a PRE waits tRTP after the last read command of its bank.
    Rtp,
    /// tWR: a PRE waits tWR after the last write burst of its bank ends.
    Wr,
    /// tRFC: a rank is refreshing for tRFC after a REF; no ACT before.
    Rfc,
    /// tBURST: a burst holds the data bus for tBURST; no two overlap.
    DataBus,
    /// tWTR: a read command waits tWTR after its rank's last write burst.
    Wtr,
    /// tRTW: write data waits tRTW after the last read data left the bus.
    Rtw,
    /// RD/WR only to its bank's open row, ACT and REF only to closed banks.
    OpenRow,
    /// A command to a rank or bank the device does not have.
    Address,
}

impl Rule {
    /// The rule's datasheet name.
    pub fn name(self) -> &'static str {
        match self {
            Rule::Rcd => "tRCD",
            Rule::Rp => "tRP",
            Rule::Ras => "tRAS",
            Rule::Rrd => "tRRD",
            Rule::Xaw => "tXAW",
            Rule::Rtp => "tRTP",
            Rule::Wr => "tWR",
            Rule::Rfc => "tRFC",
            Rule::DataBus => "data bus",
            Rule::Wtr => "tWTR",
            Rule::Rtw => "tRTW",
            Rule::OpenRow => "open row",
            Rule::Address => "address",
        }
    }
}

impl fmt::Display for Rule {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

/// Which commands must share a resource for a row to apply.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Scope {
    /// The same bank of the same rank.
    Bank,
    /// The same rank.
    Rank,
    /// Anywhere on the channel.
    Channel,
}

/// The instant of a command a gap is measured from or to.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Edge {
    /// When the command issues (a burst's column command).
    Issue,
    /// When a burst's data starts on the bus, `t_cl` after its command.
    DataStart,
    /// When a burst's data leaves the bus, `t_burst` after it started.
    DataEnd,
}

/// One row of the table: `next` may not come sooner than `gap` after the
/// `nth` latest `prev` in the same `scope`, measured from edge
/// `from` of that one to edge `to` of `next`.
#[derive(Debug, Clone, Copy)]
pub struct Row {
    /// The rule the row belongs to.
    pub rule: Rule,
    /// The commands the gap is measured from.
    pub prev: &'static [DramCmd],
    /// The edge of `prev` the gap starts at.
    pub from: Edge,
    /// The commands the gap constrains.
    pub next: &'static [DramCmd],
    /// The edge of `next` the gap ends at.
    pub to: Edge,
    /// The resource `prev` and `next` must share.
    pub scope: Scope,
    /// Which earlier `prev` counts: 1 is the latest.
    pub nth: usize,
    /// The minimum gap.
    pub gap: Tick,
}

const ACT: &[DramCmd] = &[DramCmd::Act];
const PRE: &[DramCmd] = &[DramCmd::Pre];
const RD: &[DramCmd] = &[DramCmd::Rd];
const WR: &[DramCmd] = &[DramCmd::Wr];
const REF: &[DramCmd] = &[DramCmd::Ref];
const COL: &[DramCmd] = &[DramCmd::Rd, DramCmd::Wr];

/// The table for a device, each row read off its field's meaning.
pub fn rows(t: &Timing) -> Vec<Row> {
    use Edge::{DataEnd, DataStart, Issue};
    use Scope::{Bank, Channel, Rank};
    let row = |rule, prev, from, next, to, scope, gap| Row {
        rule,
        prev,
        from,
        next,
        to,
        scope,
        nth: 1,
        gap,
    };
    let mut rows = vec![
        // "ACT to internal read/write delay (row open)".
        row(Rule::Rcd, ACT, Issue, COL, Issue, Bank, t.t_rcd),
        // "Precharge period (row close)": the next ACT waits it out.
        row(Rule::Rp, PRE, Issue, ACT, Issue, Bank, t.t_rp),
        // "Minimum row-open time (ACT to PRE)".
        row(Rule::Ras, ACT, Issue, PRE, Issue, Bank, t.t_ras),
        // "ACT-to-ACT delay between banks of the same rank".
        row(Rule::Rrd, ACT, Issue, ACT, Issue, Rank, t.t_rrd),
        // "Read to precharge delay".
        row(Rule::Rtp, RD, Issue, PRE, Issue, Bank, t.t_rtp),
        // "Write recovery: end of write burst to PRE of the same bank".
        row(Rule::Wr, WR, DataEnd, PRE, Issue, Bank, t.t_wr),
        // "Refresh cycle time": the rank is busy refreshing until then.
        row(Rule::Rfc, REF, Issue, ACT, Issue, Rank, t.t_rfc),
        // "Data-bus occupancy of one burst": a burst may start once the
        // one before it has left the bus (the DataEnd edge adds t_burst).
        row(Rule::DataBus, COL, DataEnd, COL, DataStart, Channel, 0),
        // "Write-to-read turnaround (end of write burst to read command)".
        row(Rule::Wtr, WR, DataEnd, RD, Issue, Rank, t.t_wtr),
        // "Read-to-write turnaround bubble on the data bus".
        row(Rule::Rtw, RD, DataEnd, WR, DataStart, Channel, t.t_rtw),
        // "Precharge period" again: a REF needs every bank of its rank
        // precharged, the last PRE's tRP included.
        row(Rule::Rp, PRE, Issue, REF, Issue, Rank, t.t_rp),
    ];
    if t.activation_limit > 0 {
        // "Rolling activation window": any `activation_limit + 1` ACTs of
        // a rank span more than tXAW, so an ACT comes tXAW after the
        // `activation_limit`-th ACT before it.
        rows.push(Row {
            nth: t.activation_limit as usize,
            ..row(Rule::Xaw, ACT, Issue, ACT, Issue, Rank, t.t_xaw)
        });
    }
    rows
}

/// The table's interpreter, in one unit chosen at construction: per row
/// and bank, the `nth` latest edges of a `prev` in the row's scope (for
/// `nth = 1` the max, not the last recorded, so a command may be recorded
/// ahead of ones that issue before it); per command and bank, the
/// earliest issue time over its rows, kept up to date as commands are
/// recorded. Flat arrays sized from the organisation, no hashing.
#[derive(Debug, Clone)]
pub struct ProtocolState {
    rows: Vec<Row>,
    /// Per [`Edge`], its offset from the command's issue.
    offsets: [u64; 3],
    /// The channel, whose slots index every per-bank entry.
    org: Organisation,
    /// Per row, the index of its first entry.
    base: Vec<usize>,
    /// Per row, bank and `nth`, in ascending order: the `from` edge plus
    /// the gap (0 binds nothing), and the caller's tag of its command.
    bound: Vec<(u64, u64)>,
    /// Per command (`DramCmd as usize`) and bank, the earliest issue time.
    ready: Vec<u64>,
}

impl ProtocolState {
    /// The table of `spec`, every gap and edge offset mapped through
    /// `unit`, with nothing recorded.
    pub fn new(spec: &MemSpec, unit: impl Fn(Tick) -> u64) -> Self {
        let org = spec.org;
        let (mut rows, mut base, mut entries) = (self::rows(&spec.timing), Vec::new(), 0);
        for row in &mut rows {
            row.gap = unit(row.gap);
            base.push(entries);
            entries += row.nth * org.slots();
        }
        let data_start = unit(spec.timing.t_cl);
        Self {
            rows,
            offsets: [0, data_start, data_start + unit(spec.timing.t_burst)],
            org,
            base,
            bound: vec![(0, 0); entries],
            ready: vec![0; 5 * org.slots()],
        }
    }

    /// The table, gaps in this state's unit.
    pub fn rows(&self) -> &[Row] {
        &self.rows
    }

    /// The gap of `rule`'s first row, in this state's unit (0 for a rule
    /// with no row).
    pub fn gap(&self, rule: Rule) -> u64 {
        let row = self.rows.iter().find(|r| r.rule == rule);
        row.map_or(0, |r| r.gap)
    }

    /// How long after a burst's command `edge` comes.
    #[inline]
    pub fn offset(&self, edge: Edge) -> u64 {
        self.offsets[edge as usize]
    }

    /// Whether the device has the rank (and, but for a REF, the bank) a
    /// command names. The state indexes by them, so a command that does
    /// not fit must not reach it; a REF asks with bank 0.
    pub fn fits(&self, cmd: DramCmd, rank: u32, bank: u32) -> bool {
        let bank = if cmd == DramCmd::Ref { 0 } else { bank };
        self.org.has_bank(rank, bank)
    }

    /// The earliest issue time row `row` allows its `next` at `rank` and
    /// `bank`, with the tag of the command that binds it (meaningless
    /// when the time is 0).
    pub fn row_earliest(&self, row: usize, rank: u32, bank: u32) -> (u64, u64) {
        self.row_at(row, self.org.slot(rank, bank))
    }

    /// [`row_earliest`](Self::row_earliest) at bank `slot`.
    fn row_at(&self, row: usize, slot: usize) -> (u64, u64) {
        let (bound, tag) = self.bound[self.base[row] + slot * self.rows[row].nth];
        (bound.saturating_sub(self.offset(self.rows[row].to)), tag)
    }

    /// The earliest time `cmd` may issue at `rank` and `bank`: the max
    /// over every row naming it as `next`.
    #[inline]
    pub fn earliest(&self, cmd: DramCmd, rank: u32, bank: u32) -> u64 {
        self.ready[cmd as usize * self.org.slots() + self.org.slot(rank, bank)]
    }

    /// Records `cmd` issued at `issue` to `rank` and `bank`; `tag` names
    /// it to later [`row_earliest`](Self::row_earliest) queries.
    pub fn record(&mut self, cmd: DramCmd, rank: u32, bank: u32, issue: u64, tag: u64) {
        for r in 0..self.rows.len() {
            let row = self.rows[r];
            if !row.prev.contains(&cmd) {
                continue;
            }
            let bound = (issue + self.offset(row.from) + row.gap, tag);
            for slot in self.org.scope(row.scope, rank, bank) {
                // Keep the `nth` latest: shift out the oldest, insert in order.
                let (e, mut at) = (self.base[r] + slot * row.nth, 0);
                while at < row.nth && self.bound[e + at].0 <= bound.0 {
                    self.bound[e + at.saturating_sub(1)] = self.bound[e + at];
                    at += 1;
                }
                if at > 0 {
                    self.bound[e + at - 1] = bound;
                    self.raise(r, slot);
                }
            }
        }
    }

    /// Raises the ready time of each `next` of row `r` at bank `slot` to
    /// the row's earliest there.
    fn raise(&mut self, r: usize, slot: usize) {
        let (at, n) = (self.row_at(r, slot).0, self.org.slots());
        for &cmd in self.rows[r].next {
            let t = &mut self.ready[cmd as usize * n + slot];
            *t = (*t).max(at);
        }
    }
}

impl SnapState for ProtocolState {
    /// Writes every row's entries; the ready times are derived from them.
    fn save_state(&self, w: &mut SnapWriter) {
        w.usize(self.bound.len());
        for &(bound, tag) in &self.bound {
            w.u64(bound);
            w.u64(tag);
        }
    }

    fn restore_state(&mut self, r: &mut SnapReader<'_>) -> Result<(), SnapError> {
        let n = r.usize()?;
        if n != self.bound.len() {
            return Err(SnapError::Corrupt(format!(
                "snapshot has {n} protocol entries, configuration has {}",
                self.bound.len()
            )));
        }
        for b in &mut self.bound {
            *b = (r.u64()?, r.u64()?);
        }
        self.ready.fill(0);
        for row in 0..self.rows.len() {
            (0..self.org.slots()).for_each(|slot| self.raise(row, slot));
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::presets;

    /// A PRE recorded ahead of one that issues before it (the cycle
    /// baseline's closed-page auto-precharge) still binds, and the
    /// activation window counts from the oldest of the latest ACTs,
    /// whatever order they were recorded in.
    #[test]
    fn rows_keep_the_latest_edges_not_the_last_recorded() {
        let spec = presets::ddr3_1333_x64();
        let t = spec.timing;
        let mut p = ProtocolState::new(&spec, |t| t);
        p.record(DramCmd::Pre, 0, 0, 100_000, 1);
        p.record(DramCmd::Pre, 0, 1, 50_000, 2);
        assert_eq!(p.earliest(DramCmd::Ref, 0, 0), 100_000 + t.t_rp);
        assert_eq!(p.earliest(DramCmd::Act, 0, 1), 50_000 + t.t_rp);

        let mut p = ProtocolState::new(&spec, |t| t);
        for (bank, at) in [(0, 30_000), (1, 0), (2, 10_000), (3, 20_000)] {
            p.record(DramCmd::Act, 0, bank, at, u64::from(bank));
        }
        let xaw = p.rows().iter().position(|r| r.rule == Rule::Xaw);
        assert_eq!(p.row_earliest(xaw.expect("a tXAW row"), 0, 4), (t.t_xaw, 1));
        let act = (30_000 + t.t_rrd).max(t.t_xaw);
        assert_eq!(p.earliest(DramCmd::Act, 0, 4), act);
    }
}
