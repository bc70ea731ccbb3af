//! # dramctrl-check — a DRAM timing oracle
//!
//! [`TimingChecker`] is a [`Probe`]: attached to a controller it records
//! the DRAM command stream the controller reports through
//! [`Probe::dram_cmd`], and [`TimingChecker::violations`] replays that
//! stream against the device's timing rules.
//!
//! The rules are the protocol table of [`dramctrl_mem::protocol`] — rows
//! of previous command, next command, the scope both must share (bank,
//! rank or channel) and the minimum gap between them, each written down
//! from what its `Timing` field *means* (its datasheet definition) — and
//! the checker replays the stream through that table's one interpreter,
//! [`ProtocolState`], in picoseconds. It keeps open-row tracking itself.
//! This crate depends on the device description and the probe interface
//! only, so it shares no code with the event model's bank state: a timing
//! bug that every controller, every refactor and every differential test
//! agree on is still a violation here. The cycle baseline decides its
//! commands from the same table, in cycles, so on it the checker checks
//! the interpreter, not the rules.
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
//! Checked: tRCD, tRP (before the bank's next ACT and the rank's next
//! REF), tRAS, tRRD, the activation window (tXAW with `activation_limit`
//! activates), tRTP, tWR, tRFC before the next ACT, no overlap of two
//! bursts on the data bus, the bus turnarounds tWTR (write data end to
//! the rank's next read command) and tRTW (read data end to the channel's
//! next write data), column commands only to the row an ACT opened (with
//! no second ACT to an open bank, and no REF to a rank with a bank open),
//! and only ranks and banks the organisation has ([`Rule::Address`]).
//! Not checked: power-state entry and exit, and the refresh deadline.
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

use std::collections::BTreeMap;
use std::fmt;

use dramctrl_mem::protocol::{Edge, ProtocolState, Scope};
use dramctrl_mem::{MemSpec, Organisation};
use dramctrl_obs::{CmdEvent, DramCmd, Probe};

pub use dramctrl_mem::Rule;

/// Simulated time in picoseconds, as everywhere in `dramctrl`.
type Tick = u64;

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
    /// PRE (none if the bank was never opened; for a REF, the ACT of an
    /// open bank), for [`Rule::Address`] none.
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
    /// The protocol table in picoseconds, with nothing recorded.
    table: ProtocolState,
    org: Organisation,
    cmds: Vec<Cmd>,
}

impl TimingChecker {
    /// A checker for a controller driving `spec`. Give it the device's
    /// real description, not the copy the controller was built from: the
    /// two differ exactly when the controller's is wrong.
    pub fn new(spec: &MemSpec) -> Self {
        Self {
            table: ProtocolState::new(spec, |t| t),
            org: spec.org,
            cmds: Vec::new(),
        }
    }

    /// The commands recorded so far, in the order they were reported.
    pub fn commands(&self) -> &[Cmd] {
        &self.cmds
    }

    /// When `c` issued: a burst's column command is `t_cl` before its data.
    fn issue(&self, c: &Cmd) -> Tick {
        match c.cmd {
            DramCmd::Rd | DramCmd::Wr => c.at.saturating_sub(self.table.offset(Edge::DataStart)),
            _ => c.at,
        }
    }

    /// Every rule violation in the recorded stream, in time order.
    pub fn violations(&self) -> Vec<Violation> {
        let mut order: Vec<usize> = (0..self.cmds.len()).collect();
        order.sort_by_key(|&i| (self.issue(&self.cmds[i]), i));
        let mut table = self.table.clone();
        // Per bank, the open row and the ACT or PRE that set it.
        let mut open = vec![(None, None); self.org.slots()];
        let mut found = Vec::new();
        for &i in &order {
            let c = self.cmds[i];
            let violation = |rule, earlier: Option<usize>, gap| Violation {
                rule,
                earlier: earlier.map(|j| self.cmds[j]),
                later: c,
                gap,
            };
            if !table.fits(c.cmd, c.rank, c.bank) {
                found.push(violation(Rule::Address, None, None));
                continue;
            }
            // A REF names no bank.
            let bank = if c.cmd == DramCmd::Ref { 0 } else { c.bank };
            let issue = self.issue(&c);
            for (r, row) in table.rows().iter().enumerate() {
                let (earliest, tag) = table.row_earliest(r, c.rank, bank);
                if row.next.contains(&c.cmd) && issue < earliest {
                    let measured = i128::from(row.gap) - i128::from(earliest - issue);
                    let gap = Some((measured, row.gap));
                    found.push(violation(row.rule, Some(tag as usize), gap));
                }
            }
            table.record(c.cmd, c.rank, bank, issue, i as u64);
            let slots = self.org.scope(Scope::Rank, c.rank, bank);
            let (rank, b) = (&mut open[slots], bank as usize);
            let (bad, earlier) = match c.cmd {
                DramCmd::Act => (rank[b].0.is_some(), rank[b].1),
                DramCmd::Rd | DramCmd::Wr => (rank[b].0 != Some(c.row), rank[b].1),
                DramCmd::Pre => (false, None),
                DramCmd::Ref => {
                    let open = rank.iter().find(|(row, _)| row.is_some());
                    (open.is_some(), open.and_then(|b| b.1))
                }
            };
            if bad {
                found.push(violation(Rule::OpenRow, earlier, None));
            }
            match c.cmd {
                DramCmd::Act => rank[b] = (Some(c.row), Some(i)),
                DramCmd::Pre => rank[b] = (None, Some(i)),
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
    use dramctrl_mem::protocol::rows;

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
        check_on(&spec(), events)
    }

    fn check_on(spec: &MemSpec, events: &[CmdEvent]) -> Vec<Rule> {
        let mut c = TimingChecker::new(spec);
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
        // A refresh tRP after the last PRE, then an ACT tRFC later.
        let pre_rest = (act4 + t.t_ras).max(rd2 + t.t_rtp);
        let refresh = (act0b + t.t_ras).max(pre1).max(pre_rest) + t.t_rp;
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
            (16, Rule::Rp),
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
        // A REF to a rank with a bank still open.
        let s = [act(3, 7, 0), CmdEvent::refresh(0, 1_000_000, t.t_rfc)];
        assert_eq!(check(&s), vec![Rule::OpenRow]);
    }

    /// A rank or bank the device does not have is a violation, not an
    /// index out of bounds; a REF's bank is ignored.
    #[test]
    fn commands_outside_the_organisation_are_address_violations() {
        let org = spec().org;
        let mut far_data = col(DramCmd::Rd, 0, 7, 0);
        far_data.bank = u32::MAX;
        let far = [
            CmdEvent::act(org.ranks, 0, 7, 0, 0),
            CmdEvent::act(0, org.banks, 7, 0, 0),
            CmdEvent::pre(u32::MAX, 0, 0, 0),
            CmdEvent::refresh(org.ranks, 0, 0),
            far_data,
        ];
        assert_eq!(check(&far), vec![Rule::Address; 5]);
        let mut any_bank = CmdEvent::refresh(0, 0, 0);
        any_bank.bank = u32::MAX;
        assert_eq!(check(&[any_bank]), vec![]);
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
        // Banks are separate, ranks too (on a device that has two).
        let mut two_ranks = spec();
        two_ranks.org.ranks = 2;
        let other_rank = CmdEvent::data(DramCmd::Rd, 1, 0, 7, 50_000, t.t_burst, 64, false);
        assert_eq!(
            check_on(&two_ranks, &[act(0, 7, 0), other_rank]),
            vec![Rule::OpenRow]
        );
    }

    #[test]
    fn the_table_reads_every_gap_from_the_spec() {
        let t = spec().timing;
        let gaps: Vec<(Rule, Tick, usize)> =
            rows(&t).iter().map(|r| (r.rule, r.gap, r.nth)).collect();
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
                (Rule::Rp, t.t_rp, 1),
                (Rule::Xaw, t.t_xaw, t.activation_limit as usize),
            ]
        );
        let mut unlimited = t;
        unlimited.activation_limit = 0;
        assert!(rows(&unlimited).iter().all(|r| r.rule != Rule::Xaw));
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
