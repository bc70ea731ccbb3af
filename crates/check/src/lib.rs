//! # dramctrl-check — an independent DRAM timing oracle
//!
//! [`TimingChecker`] is a [`Probe`]: attached to a controller it records
//! the DRAM command stream the controller reports through
//! [`Probe::dram_cmd`], and [`TimingChecker::violations`] replays that
//! stream against the device's timing rules.
//!
//! The rules are a table of rows — previous command, next command, the
//! scope both must share (bank, rank or channel) and the minimum gap
//! between them — and each row is written down from what its
//! [`Timing`] field *means* (its datasheet definition), not from how any
//! controller computes it. This crate depends on the device description
//! and the probe interface only, so it shares no code with a controller's
//! bank state: a timing bug that every controller, every refactor and
//! every differential test agree on is still a violation here.
//!
//! A controller decides commands ahead of simulated time and reports each
//! one when it decides it, with the tick it takes effect, so the stream is
//! not in time order. The checker stores it and sorts it by issue time
//! before replaying; ties keep the order the controller reported them in,
//! which is the causal order.
//!
//! Times follow [`CmdEvent`]: `at` is when an ACT, PRE or REF issues, and
//! where a RD or WR burst's *data* starts on the bus. The device has one
//! column latency for both directions (`t_cl`), so the column command of
//! a burst issued `t_cl` before its data, and the data holds the bus for
//! `t_burst`. Both come from the checker's own [`MemSpec`], never from the
//! event's `dur`.
//!
//! Checked: tRCD, tRP, tRAS, tRRD, the activation window (tXAW with
//! `activation_limit` activates), tRTP, tWR, tRFC before the next ACT, no
//! overlap of two bursts on the data bus, the bus turnarounds tWTR (write
//! data end to the rank's next read command) and tRTW (read data end to
//! the channel's next write data), and column commands only to the row an
//! ACT opened (with no second ACT to an open bank). Not checked:
//! power-state entry and exit, and the refresh deadline.
//!
//! # Example
//!
//! ```
//! use dramctrl_check::{Rule, TimingChecker};
//! use dramctrl_mem::presets;
//! use dramctrl_obs::{CmdEvent, DramCmd, Probe};
//!
//! let spec = presets::ddr3_1333_x64();
//! let t = spec.timing;
//! let mut check = TimingChecker::new(&spec);
//! check.dram_cmd(CmdEvent::act(0, 2, 7, 0, t.t_rcd));
//! // The read's data starts one tick too early: its column command
//! // precedes the end of tRCD.
//! let data = t.t_rcd + t.t_cl - 1;
//! check.dram_cmd(CmdEvent::data(DramCmd::Rd, 0, 2, 7, data, t.t_burst, 64, false));
//! let found = check.violations();
//! assert_eq!(found.len(), 1);
//! assert_eq!(found[0].rule, Rule::Rcd);
//! ```

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

use std::collections::{BTreeMap, HashMap, VecDeque};
use std::fmt;

use dramctrl_mem::{MemSpec, Timing};
use dramctrl_obs::{CmdEvent, DramCmd, Probe};

/// Simulated time in picoseconds, as everywhere in `dramctrl`.
type Tick = u64;

/// A protocol rule the checker enforces.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum Rule {
    /// tRCD: a column command waits tRCD after the ACT that opened its row.
    Rcd,
    /// tRP: a bank is precharging for tRP after a PRE; no ACT before.
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
    /// tWTR: a read command waits tWTR after the end of the last write
    /// burst of its rank.
    Wtr,
    /// tRTW: a write burst's data waits tRTW after the last read burst
    /// has left the data bus.
    Rtw,
    /// RD/WR only to the row open in its bank, and ACT only to a closed
    /// bank.
    OpenRow,
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
enum Scope {
    Bank,
    Rank,
    Channel,
}

/// The instant of a command a gap is measured from or to.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Edge {
    /// When the command issues (a burst's column command).
    Issue,
    /// When a burst's data starts on the bus.
    DataStart,
    /// When a burst's data leaves the bus.
    DataEnd,
}

/// One row of the rule table: `next` may not come sooner than `gap`
/// after the `nth` most recent `prev` in the same `scope`, measured from
/// edge `from` of that one to edge `to` of `next`.
#[derive(Debug, Clone, Copy)]
struct Row {
    rule: Rule,
    prev: &'static [DramCmd],
    from: Edge,
    next: &'static [DramCmd],
    to: Edge,
    scope: Scope,
    nth: usize,
    gap: Tick,
}

const ACT: &[DramCmd] = &[DramCmd::Act];
const PRE: &[DramCmd] = &[DramCmd::Pre];
const RD: &[DramCmd] = &[DramCmd::Rd];
const WR: &[DramCmd] = &[DramCmd::Wr];
const REF: &[DramCmd] = &[DramCmd::Ref];
const COL: &[DramCmd] = &[DramCmd::Rd, DramCmd::Wr];

/// The rule table for a device, each row read off its field's meaning.
fn rule_table(t: &Timing) -> Vec<Row> {
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

/// One DRAM command as the checker keeps it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Cmd {
    /// Command category.
    pub cmd: DramCmd,
    /// Target rank.
    pub rank: u32,
    /// Target bank (ignored for REF).
    pub bank: u32,
    /// Target row (ACT, RD, WR).
    pub row: u64,
    /// Issue tick (ACT, PRE, REF) or data start (RD, WR).
    pub at: Tick,
}

impl From<CmdEvent> for Cmd {
    fn from(ev: CmdEvent) -> Self {
        Self {
            cmd: ev.cmd,
            rank: ev.rank,
            bank: ev.bank,
            row: ev.row,
            at: ev.at,
        }
    }
}

impl fmt::Display for Cmd {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self.cmd {
            DramCmd::Ref => write!(f, "REF rank {} @ {}", self.rank, self.at),
            DramCmd::Pre => write!(f, "PRE rank {} bank {} @ {}", self.rank, self.bank, self.at),
            cmd => write!(
                f,
                "{} rank {} bank {} row {} @ {}",
                cmd.name(),
                self.rank,
                self.bank,
                self.row,
                self.at
            ),
        }
    }
}

/// A command that broke a rule.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Violation {
    /// The rule broken.
    pub rule: Rule,
    /// The command the rule measures from: for a gap rule the earlier
    /// command of the pair, for [`Rule::OpenRow`] the bank's last ACT or
    /// PRE (none if the bank was never opened).
    pub earlier: Option<Cmd>,
    /// The command that came too soon, or to the wrong row.
    pub later: Cmd,
    /// For a gap rule, `(measured, required)` in ticks.
    pub gap: Option<(i128, Tick)>,
}

impl fmt::Display for Violation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{} violated: ", self.rule)?;
        if let Some(earlier) = &self.earlier {
            write!(f, "{earlier} -> ")?;
        }
        write!(f, "{}", self.later)?;
        match self.gap {
            Some((measured, required)) => write!(f, " ({measured} < {required} ps)"),
            None => Ok(()),
        }
    }
}

/// Records a controller's DRAM commands and checks them against the
/// device's timing rules (see the crate docs for what is checked).
#[derive(Debug, Clone)]
pub struct TimingChecker {
    rows: Vec<Row>,
    t_cl: Tick,
    t_burst: Tick,
    cmds: Vec<Cmd>,
}

impl TimingChecker {
    /// A checker for a controller driving `spec`. Give it the device's
    /// real description, not the copy the controller was built from: the
    /// two differ exactly when the controller's is wrong.
    pub fn new(spec: &MemSpec) -> Self {
        Self {
            rows: rule_table(&spec.timing),
            t_cl: spec.timing.t_cl,
            t_burst: spec.timing.t_burst,
            cmds: Vec::new(),
        }
    }

    /// The commands recorded so far, in the order they were reported.
    pub fn commands(&self) -> &[Cmd] {
        &self.cmds
    }

    fn edge(&self, edge: Edge, c: &Cmd) -> i128 {
        let at = i128::from(c.at);
        match (edge, c.cmd) {
            (Edge::Issue, DramCmd::Rd | DramCmd::Wr) => at - i128::from(self.t_cl),
            (Edge::DataEnd, _) => at + i128::from(self.t_burst),
            _ => at,
        }
    }

    /// Every rule violation in the recorded stream, in time order.
    pub fn violations(&self) -> Vec<Violation> {
        let mut order: Vec<usize> = (0..self.cmds.len()).collect();
        order.sort_by_key(|&i| (self.edge(Edge::Issue, &self.cmds[i]), i));
        let scope_of = |scope: Scope, c: &Cmd| match scope {
            Scope::Bank => (c.rank, c.bank),
            Scope::Rank => (c.rank, u32::MAX),
            Scope::Channel => (u32::MAX, u32::MAX),
        };
        // Per row and scope, the edges of the `nth` most recent `prev`s
        // (with their command's index).
        type Recent = HashMap<(u32, u32), VecDeque<(i128, usize)>>;
        let mut recent: Vec<Recent> = vec![HashMap::new(); self.rows.len()];
        // Per bank, the open row and the ACT or PRE that set it.
        let mut banks: HashMap<(u32, u32), (Option<u64>, usize)> = HashMap::new();
        let mut found = Vec::new();
        for &i in &order {
            let c = self.cmds[i];
            for (row, recent) in self.rows.iter().zip(&mut recent) {
                if !row.next.contains(&c.cmd) {
                    continue;
                }
                let Some(prevs) = recent.get(&scope_of(row.scope, &c)) else {
                    continue;
                };
                if prevs.len() < row.nth {
                    continue;
                }
                let (from, j) = prevs[prevs.len() - row.nth];
                let measured = self.edge(row.to, &c) - from;
                if measured < i128::from(row.gap) {
                    found.push(Violation {
                        rule: row.rule,
                        earlier: Some(self.cmds[j]),
                        later: c,
                        gap: Some((measured, row.gap)),
                    });
                }
            }
            for (row, recent) in self.rows.iter().zip(&mut recent) {
                if row.prev.contains(&c.cmd) {
                    let prevs = recent.entry(scope_of(row.scope, &c)).or_default();
                    prevs.push_back((self.edge(row.from, &c), i));
                    if prevs.len() > row.nth {
                        prevs.pop_front();
                    }
                }
            }
            let bank = banks.get(&(c.rank, c.bank)).copied();
            let open = bank.and_then(|(open, _)| open);
            let bad = match c.cmd {
                DramCmd::Act => open.is_some(),
                DramCmd::Rd | DramCmd::Wr => open != Some(c.row),
                DramCmd::Pre | DramCmd::Ref => false,
            };
            if bad {
                found.push(Violation {
                    rule: Rule::OpenRow,
                    earlier: bank.map(|(_, j)| self.cmds[j]),
                    later: c,
                    gap: None,
                });
            }
            match c.cmd {
                DramCmd::Act => {
                    banks.insert((c.rank, c.bank), (Some(c.row), i));
                }
                DramCmd::Pre => {
                    banks.insert((c.rank, c.bank), (None, i));
                }
                _ => {}
            }
        }
        found
    }

    /// Violations counted per rule (rules with none are left out).
    pub fn tally(&self) -> BTreeMap<Rule, usize> {
        let mut tally = BTreeMap::new();
        for v in self.violations() {
            *tally.entry(v.rule).or_insert(0) += 1;
        }
        tally
    }

    /// Panics, naming the count per rule and the first few violations,
    /// unless the recorded stream keeps every rule.
    ///
    /// # Panics
    /// On any violation.
    pub fn assert_clean(&self) {
        let found = self.violations();
        if found.is_empty() {
            return;
        }
        let mut msg = format!(
            "{} timing violation(s) in {} commands: {:?}",
            found.len(),
            self.cmds.len(),
            self.tally()
        );
        for v in found.iter().take(5) {
            msg.push_str(&format!("\n  {v}"));
        }
        panic!("{msg}");
    }
}

impl Probe for TimingChecker {
    fn dram_cmd(&mut self, ev: CmdEvent) {
        self.cmds.push(ev.into());
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dramctrl_mem::presets;

    fn spec() -> MemSpec {
        presets::ddr3_1333_x64()
    }

    fn act(bank: u32, row: u64, at: Tick) -> CmdEvent {
        CmdEvent::act(0, bank, row, at, 0)
    }

    fn pre(bank: u32, at: Tick) -> CmdEvent {
        CmdEvent::pre(0, bank, at, 0)
    }

    /// A burst whose column command issues at `cmd_at`.
    fn col(cmd: DramCmd, bank: u32, row: u64, cmd_at: Tick) -> CmdEvent {
        let t = spec().timing;
        CmdEvent::data(cmd, 0, bank, row, cmd_at + t.t_cl, t.t_burst, 64, false)
    }

    fn check(events: &[CmdEvent]) -> Vec<Rule> {
        let mut c = TimingChecker::new(&spec());
        for &ev in events {
            c.dram_cmd(ev);
        }
        c.violations().into_iter().map(|v| v.rule).collect()
    }

    /// A legal stream exercising every row at exactly its minimum gap —
    /// reported out of time order, as a controller deciding ahead does —
    /// is clean; every rule is then tripped by moving one command one
    /// tick earlier, and only that rule.
    #[test]
    fn each_rule_holds_at_its_gap_and_trips_one_tick_inside() {
        let t = spec().timing;
        // Bank 0: ACT, RD at tRCD, a row hit right behind it on the data
        // bus, PRE at max(tRAS, last RD + tRTP), ACT at +tRP.
        let act0 = 0;
        let rd0 = act0 + t.t_rcd;
        let rd0b = rd0 + t.t_burst;
        let pre0 = (act0 + t.t_ras).max(rd0b + t.t_rtp);
        let act0b = pre0 + t.t_rp;
        // Bank 1: ACT at tRRD, WR data tRTW after bank 0's reads left
        // the bus, PRE at max(tRAS, end of write + tWR).
        let act1 = act0 + t.t_rrd;
        let wr1 = rd0b + t.t_burst + t.t_rtw;
        let wr1_end = wr1 + t.t_cl + t.t_burst;
        let pre1 = (act1 + t.t_ras).max(wr1_end + t.t_wr);
        // Banks 2 and 3 fill the activation window; the fifth ACT of
        // the rank (bank 4) comes tXAW after the first. Bank 2 reads
        // tWTR after the write's data ended.
        let act2 = act1 + t.t_rrd;
        let rd2 = wr1_end + t.t_wtr;
        let act3 = act2 + t.t_rrd;
        let act4 = (act3 + t.t_rrd).max(act0 + t.t_xaw);
        // A refresh after everything closes, then an ACT tRFC later.
        let pre_rest = (act4 + t.t_ras).max(rd2 + t.t_rtp);
        let refresh = act0b.max(pre1).max(pre_rest) + t.t_ras + t.t_rp;
        let act_after = refresh + t.t_rfc;
        let stream = |shift: Option<usize>| {
            let mut s = vec![
                act(0, 7, act0),
                col(DramCmd::Rd, 0, 7, rd0),
                col(DramCmd::Rd, 0, 7, rd0b),
                pre(0, pre0),
                act(1, 9, act1),
                col(DramCmd::Wr, 1, 9, wr1),
                pre(1, pre1),
                act(2, 1, act2),
                col(DramCmd::Rd, 2, 1, rd2),
                act(3, 1, act3),
                act(4, 1, act4),
                act(0, 8, act0b),
                pre(0, act0b + t.t_ras),
                pre(2, pre_rest),
                pre(3, pre_rest),
                pre(4, pre_rest),
                CmdEvent::refresh(0, refresh, t.t_rfc),
                act(5, 3, act_after),
            ];
            if let Some(i) = shift {
                s[i].at -= 1;
            }
            // Reported in decision order, not time order.
            s.reverse();
            s
        };
        assert_eq!(check(&stream(None)), vec![], "the legal stream is clean");
        let expect = [
            (1, Rule::Rcd),
            (2, Rule::DataBus),
            (3, Rule::Ras),
            (5, Rule::Rtw),
            (6, Rule::Wr),
            (7, Rule::Rrd),
            (8, Rule::Wtr),
            (10, Rule::Xaw),
            (11, Rule::Rp),
            (17, Rule::Rfc),
        ];
        for (i, rule) in expect {
            assert!(
                check(&stream(Some(i))).contains(&rule),
                "{rule} not tripped by moving command {i}"
            );
        }
        // tRTP binds bank 0's PRE when the read comes late in the row.
        let late_rd = act0 + t.t_ras;
        let s = [
            act(0, 7, act0),
            col(DramCmd::Rd, 0, 7, late_rd),
            pre(0, late_rd + t.t_rtp - 1),
        ];
        assert_eq!(check(&s), vec![Rule::Rtp]);
    }

    #[test]
    fn column_commands_need_their_row_open() {
        let t = spec().timing;
        // Never opened.
        assert_eq!(check(&[col(DramCmd::Rd, 0, 7, 0)]), vec![Rule::OpenRow]);
        // Another row open.
        assert_eq!(
            check(&[act(0, 7, 0), col(DramCmd::Wr, 0, 8, t.t_rcd)]),
            vec![Rule::OpenRow]
        );
        // Closed again before the read.
        let closed = check(&[
            act(0, 7, 0),
            pre(0, t.t_ras),
            col(DramCmd::Rd, 0, 7, 60_000),
        ]);
        assert!(closed.contains(&Rule::OpenRow), "{closed:?}");
        // A second ACT to an open bank.
        assert_eq!(
            check(&[act(0, 7, 0), act(0, 8, 100_000)]),
            vec![Rule::OpenRow]
        );
        // Banks are separate, ranks too.
        let other_rank = CmdEvent::data(DramCmd::Rd, 1, 0, 7, 50_000, t.t_burst, 64, false);
        assert_eq!(check(&[act(0, 7, 0), other_rank]), vec![Rule::OpenRow]);
    }

    #[test]
    fn the_table_reads_every_gap_from_the_spec() {
        let t = spec().timing;
        let gaps: Vec<(Rule, Tick, usize)> = rule_table(&t)
            .iter()
            .map(|r| (r.rule, r.gap, r.nth))
            .collect();
        assert_eq!(
            gaps,
            vec![
                (Rule::Rcd, t.t_rcd, 1),
                (Rule::Rp, t.t_rp, 1),
                (Rule::Ras, t.t_ras, 1),
                (Rule::Rrd, t.t_rrd, 1),
                (Rule::Rtp, t.t_rtp, 1),
                (Rule::Wr, t.t_wr, 1),
                (Rule::Rfc, t.t_rfc, 1),
                (Rule::DataBus, 0, 1),
                (Rule::Wtr, t.t_wtr, 1),
                (Rule::Rtw, t.t_rtw, 1),
                (Rule::Xaw, t.t_xaw, t.activation_limit as usize),
            ]
        );
        let mut unlimited = t;
        unlimited.activation_limit = 0;
        assert!(rule_table(&unlimited).iter().all(|r| r.rule != Rule::Xaw));
    }

    #[test]
    fn violations_name_both_commands_and_the_gap() {
        let t = spec().timing;
        let mut c = TimingChecker::new(&spec());
        c.dram_cmd(act(3, 42, 1_000));
        c.dram_cmd(act(4, 43, 1_000 + t.t_rrd - 5));
        let found = c.violations();
        assert_eq!(found.len(), 1);
        let text = found[0].to_string();
        assert!(text.starts_with("tRRD violated: ACT rank 0 bank 3 row 42 @ 1000 -> ACT"));
        assert!(text.ends_with(&format!("({} < {} ps)", t.t_rrd - 5, t.t_rrd)));
        assert_eq!(c.tally().get(&Rule::Rrd), Some(&1));
        let caught = std::panic::catch_unwind(|| c.assert_clean());
        assert!(caught.is_err(), "assert_clean passed a violation");
    }
}
