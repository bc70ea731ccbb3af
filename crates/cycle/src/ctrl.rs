//! The cycle-by-cycle controller.
//!
//! Faithful to the *structure* of DRAMSim2 (the paper's comparison
//! baseline): a unified transaction queue, per-bank state machines, one
//! DRAM command per clock cycle, and an `update()` that runs every
//! memory-clock cycle while any work is pending. When a command may
//! issue is not hand-kept per bank, as DRAMSim2's `nextActivate`-style
//! counters are: every command asks the protocol table
//! ([`dramctrl_mem::protocol`], in cycles) and records itself there. The per-cycle
//! execution is precisely what makes this model slow relative to the
//! event-based controller — the property measured in paper Section III-D.

use std::collections::VecDeque;

use dramctrl_kernel::snap::{SnapError, SnapReader, SnapState, SnapWriter};
use dramctrl_kernel::{Clock, EventQueue, Tick};
use dramctrl_mem::protocol::{Edge, ProtocolState};
use dramctrl_mem::{
    burst_count, chop, snapio, ActivityStats, BurstGroup, CommonStats, Controller, Decoder,
    DramAddr, GroupArena, MemCmd, MemRequest, MemResponse, MemSpec, Rejected, Rule, SchedPolicy,
    WriteCoverage,
};
use dramctrl_obs::{CmdEvent, DramCmd, NoProbe, Probe};
use dramctrl_ras::FaultModel;
use dramctrl_stats::{Average, Report};

use crate::config::{CycleConfig, CycleConfigError};

#[derive(Debug, Clone, Default)]
struct CycBank {
    open_row: Option<u64>,
    /// Cycle at which a scheduled auto-precharge takes effect (row already
    /// marked closed for scheduling purposes).
    pending_close: Option<u64>,
}

impl CycBank {
    fn is_physically_open(&self, cycle: u64) -> bool {
        self.open_row.is_some() || self.pending_close.is_some_and(|p| cycle < p)
    }
}

#[derive(Debug, Clone)]
struct CycRank {
    banks: Vec<CycBank>,
    refresh_due: u64,
    want_refresh: bool,
    refreshing_until: u64,
    closed_cycles: u64,
}

impl CycRank {
    fn new(banks: u32, refi: u64) -> Self {
        Self {
            banks: vec![CycBank::default(); banks as usize],
            refresh_due: if refi == 0 { u64::MAX } else { refi },
            want_refresh: false,
            refreshing_until: 0,
            closed_cycles: 0,
        }
    }

    fn blocked(&self, cycle: u64) -> bool {
        self.want_refresh || cycle < self.refreshing_until
    }
}

/// One DRAM burst in the unified transaction queue.
#[derive(Debug, Clone)]
struct Txn {
    is_read: bool,
    da: DramAddr,
    /// Burst-aligned base address (keys the write-coverage index).
    burst_addr: u64,
    /// Covered byte range within the burst, relative to `burst_addr`.
    lo: u32,
    /// Exclusive end of the covered range.
    hi: u32,
    entry: Tick,
    group: usize,
    /// Whether this transaction triggered its own activation (a burst is a
    /// row hit only if the row was open on someone else's behalf).
    activated: bool,
    /// Link-error replays already made for this burst (RAS; always 0
    /// without a fault model).
    retries: u8,
    /// Earliest cycle at which this transaction may issue again — the
    /// retry backoff of the RAS model (0 without one).
    not_before: u64,
}

/// The column command of a read or a write burst.
fn col_cmd(is_read: bool) -> DramCmd {
    if is_read {
        DramCmd::Rd
    } else {
        DramCmd::Wr
    }
}

/// Statistics of the cycle-based controller.
#[derive(Debug, Clone, Default)]
pub struct CycleStats {
    /// The counts shared with the event model, counted from the command
    /// stream by [`CommonStats::record`].
    pub common: CommonStats,
    /// Incoming writes dropped because a queued write already covered
    /// them (only with `write_snooping`).
    pub merged_writes: u64,
    /// Incoming read bursts serviced from the queued write data (only
    /// with `write_snooping`).
    pub forwarded_reads: u64,
    /// Total clock cycles executed by the model (the cost of being
    /// cycle-based).
    pub cycles_simulated: u64,
    /// Read latency from acceptance to data, in ticks.
    pub read_lat: Average,
}

/// The cycle-based DRAMSim2-style controller.
///
/// Implements the same pull interface as the event-based model (the
/// [`Controller`] trait), so identical harnesses drive both. Like the
/// event-based model, the controller carries a `dramctrl-obs` probe type
/// parameter; the default [`NoProbe`] compiles all instrumentation away,
/// and [`with_probe`](Self::with_probe) attaches a live sink without
/// perturbing the simulation.
///
/// # Example
/// ```
/// use dramctrl_cycle::{CycleConfig, CycleCtrl};
/// use dramctrl_mem::{presets, Controller, MemRequest, ReqId};
///
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let mut ctrl = CycleCtrl::new(CycleConfig::new(presets::ddr3_1333_x64()))?;
/// ctrl.try_send(MemRequest::read(ReqId(0), 0x40, 64), 0)?;
/// let mut out = Vec::new();
/// ctrl.drain(&mut out);
/// assert_eq!(out.len(), 1);
/// # Ok(())
/// # }
/// ```
#[derive(Debug)]
pub struct CycleCtrl<P: Probe = NoProbe> {
    cfg: CycleConfig,
    /// `cfg.mapping` bound to the organisation and channel count.
    decoder: Decoder,
    probe: P,
    clk: Clock,
    /// The refresh interval in cycles (0: the device needs no refresh).
    refi: u64,
    /// Every inter-command constraint, in cycles.
    protocol: ProtocolState,
    cycle: u64,
    queue: VecDeque<Txn>,
    groups: GroupArena,
    ranks: Vec<CycRank>,
    resp_q: EventQueue<MemResponse>,
    pending_closes: usize,
    /// Coverage of queued writes; only maintained with `write_snooping`.
    coverage: WriteCoverage,
    /// RAS fault model, when configured (`None` is byte-identical to the
    /// pre-RAS controller).
    fault: Option<FaultModel>,
    stats: CycleStats,
}

impl CycleCtrl {
    /// Creates an uninstrumented controller for the given configuration.
    ///
    /// # Errors
    /// Returns a [`CycleConfigError`] if the configuration is inconsistent.
    pub fn new(cfg: CycleConfig) -> Result<Self, CycleConfigError> {
        Self::with_probe(cfg, NoProbe)
    }
}

impl<P: Probe> CycleCtrl<P> {
    /// Creates a controller with an attached instrumentation probe (see
    /// the type-level docs for the zero-perturbation contract).
    ///
    /// # Errors
    /// Returns a [`CycleConfigError`] if the configuration is inconsistent.
    pub fn with_probe(cfg: CycleConfig, probe: P) -> Result<Self, CycleConfigError> {
        cfg.validate()?;
        let clk = Clock::from_period(cfg.spec.timing.t_ck);
        let refi = clk.to_cycles_ceil(cfg.spec.timing.t_refi);
        let ranks = (0..cfg.spec.org.ranks)
            .map(|_| CycRank::new(cfg.spec.org.banks, refi))
            .collect();
        let protocol = ProtocolState::new(&cfg.spec, |t| clk.to_cycles_ceil(t));
        let queue = VecDeque::with_capacity(cfg.queue_depth);
        let groups = GroupArena::with_capacity(cfg.queue_depth);
        let resp_q = EventQueue::with_capacity(cfg.queue_depth);
        let org = &cfg.spec.org;
        let fault = cfg.ras.clone().map(|ras| FaultModel::new(ras, org));
        Ok(Self {
            decoder: Decoder::new(cfg.mapping, org, cfg.channels),
            cfg,
            probe,
            protocol,
            clk,
            refi,
            cycle: 0,
            queue,
            groups,
            ranks,
            resp_q,
            pending_closes: 0,
            coverage: WriteCoverage::default(),
            fault,
            stats: CycleStats::default(),
        })
    }

    /// The controller's configuration.
    pub fn config(&self) -> &CycleConfig {
        &self.cfg
    }

    /// Accumulated statistics.
    pub fn stats(&self) -> &CycleStats {
        &self.stats
    }

    /// The RAS fault model, when one is configured.
    pub fn fault_model(&self) -> Option<&FaultModel> {
        self.fault.as_ref()
    }

    /// The attached instrumentation probe.
    pub fn probe(&self) -> &P {
        &self.probe
    }

    /// Mutable access to the probe (e.g. to close an epoch recorder).
    pub fn probe_mut(&mut self) -> &mut P {
        &mut self.probe
    }

    /// Consumes the controller, returning the probe and its recordings.
    pub fn into_probe(self) -> P {
        self.probe
    }

    /// Read/write transaction counts for the queue-depth probe. Only
    /// evaluated when a live probe is attached.
    fn probe_queue_depth(&mut self, now: Tick) {
        if P::ENABLED {
            let reads = self.queue.iter().filter(|t| t.is_read).count();
            self.probe.queue_depth(reads, self.queue.len() - reads, now);
        }
    }

    // --------------------------------------------------------------
    // Per-cycle update (the DRAMSim2-style core loop)
    // --------------------------------------------------------------

    /// Whether per-cycle work is pending.
    fn busy(&self) -> bool {
        !self.queue.is_empty()
            || self.pending_closes > 0
            || self
                .ranks
                .iter()
                .any(|r| r.want_refresh || self.cycle < r.refreshing_until)
    }

    /// Executes one memory-clock cycle.
    fn tick(&mut self) {
        self.cycle += 1;
        let c = self.cycle;
        self.stats.cycles_simulated += 1;

        // Expire pending auto-precharges and refresh completions; arm
        // refreshes that became due. (A real cycle-based model walks all
        // bank state machines every cycle; so do we.)
        for rank in &mut self.ranks {
            for bank in &mut rank.banks {
                if bank.pending_close.is_some_and(|p| c >= p) {
                    bank.pending_close = None;
                    self.pending_closes -= 1;
                }
            }
            if !rank.want_refresh && c >= rank.refreshing_until && c >= rank.refresh_due {
                rank.want_refresh = true;
                rank.refresh_due = rank.refresh_due.saturating_add(self.refi);
            }
        }

        // One command slot per cycle.
        self.issue_one(c);

        // Power accounting: a rank contributes "all banks precharged" time
        // when no bank is physically open this cycle.
        for rank in &mut self.ranks {
            if rank.banks.iter().all(|b| !b.is_physically_open(c)) {
                rank.closed_cycles += 1;
            }
        }
    }

    fn issue_one(&mut self, c: u64) {
        // Refresh has priority: start a due refresh, or precharge towards
        // it.
        for ri in 0..self.ranks.len() {
            if !self.ranks[ri].want_refresh || c < self.ranks[ri].refreshing_until {
                continue;
            }
            let r = ri as u32;
            // A pending auto-precharge is recorded, so tRP covers it too.
            let all_closed = self.ranks[ri].banks.iter().all(|b| b.open_row.is_none());
            if all_closed && c >= self.protocol.earliest(DramCmd::Ref, r, 0) {
                let rfc = self.protocol.gap(Rule::Rfc);
                let rank = &mut self.ranks[ri];
                rank.want_refresh = false;
                rank.refreshing_until = c + rfc;
                self.protocol.record(DramCmd::Ref, r, 0, c, 0);
                let (at, dur) = (self.clk.cycles(c), self.clk.cycles(rfc));
                self.emit(CmdEvent::refresh(r, at, dur));
                return;
            }
            // Precharge the first open bank that is ready.
            let ready = |(bi, b): (usize, &CycBank)| {
                b.open_row.is_some() && c >= self.protocol.earliest(DramCmd::Pre, r, bi as u32)
            };
            if let Some(bi) = self.ranks[ri].banks.iter().enumerate().position(ready) {
                self.precharge(r, bi as u32, c);
                return;
            }
        }

        // Transaction scheduling.
        match self.cfg.scheduling {
            SchedPolicy::Fcfs => {
                if !self.queue.is_empty() {
                    self.try_progress(0, c);
                }
            }
            SchedPolicy::FrFcfs => {
                // Pass 1: oldest row hit whose column command is issuable.
                let hit = (0..self.queue.len()).find(|&i| self.col_issuable(i, c));
                if let Some(i) = hit {
                    self.do_col(i, c);
                    return;
                }
                // Pass 2: oldest transaction that can make *any* progress.
                for i in 0..self.queue.len() {
                    if self.try_progress(i, c) {
                        return;
                    }
                }
            }
        }
    }

    /// Whether transaction `i` is an issuable row hit at cycle `c`.
    fn col_issuable(&self, i: usize, c: u64) -> bool {
        let (txn, da) = (&self.queue[i], self.queue[i].da);
        let (rank, cmd) = (&self.ranks[da.rank as usize], col_cmd(txn.is_read));
        c >= txn.not_before
            && !rank.blocked(c)
            && rank.banks[da.bank as usize].open_row == Some(da.row)
            && c >= self.protocol.earliest(cmd, da.rank, da.bank)
    }

    /// Closes bank `bi` of rank `ri` with a PRE issued at `c`.
    fn precharge(&mut self, ri: u32, bi: u32, c: u64) {
        self.ranks[ri as usize].banks[bi as usize].open_row = None;
        self.protocol.record(DramCmd::Pre, ri, bi, c, 0);
        let rp = self.clk.cycles(self.protocol.gap(Rule::Rp));
        self.emit(CmdEvent::pre(ri, bi, self.clk.cycles(c), rp));
    }

    /// Issues `ev`: counts it, then shows it to the probe. Every DRAM
    /// command the model issues goes through here.
    #[inline]
    fn emit(&mut self, ev: CmdEvent) {
        self.stats.common.record(&ev);
        if P::ENABLED {
            self.probe.dram_cmd(ev);
        }
    }

    /// Issues the column command for transaction `i` (which must be an
    /// issuable row hit); completes the transaction.
    fn do_col(&mut self, i: usize, c: u64) {
        let txn = self.queue.remove(i).expect("index checked by caller");
        let (ri, bi) = (txn.da.rank as usize, txn.da.bank as usize);
        if self.cfg.write_snooping && !txn.is_read {
            self.coverage.remove(txn.burst_addr, txn.lo, txn.hi);
        }
        let cmd = col_cmd(txn.is_read);
        let data_start = c + self.protocol.offset(Edge::DataStart);
        let data_end = c + self.protocol.offset(Edge::DataEnd);
        let burst = self.clk.cycles(data_end - data_start);
        self.protocol.record(cmd, txn.da.rank, txn.da.bank, c, 0);
        let mut ev = CmdEvent::data(
            cmd,
            txn.da.rank,
            txn.da.bank,
            txn.da.row,
            self.clk.cycles(data_start),
            burst,
            txn.hi - txn.lo,
            !txn.activated,
        );
        if P::ENABLED {
            ev.req = txn.is_read.then(|| self.groups.get(txn.group).req.id.0);
        }
        self.emit(ev);
        self.probe_queue_depth(self.clk.cycles(c));

        if !self.cfg.page_policy.is_open() {
            // Auto-precharge at the first cycle the table allows a PRE,
            // recorded ahead of the commands that issue before it.
            let (r, b) = (txn.da.rank, txn.da.bank);
            let pre_at = self.protocol.earliest(DramCmd::Pre, r, b);
            self.precharge(r, b, pre_at);
            self.ranks[ri].banks[bi].pending_close = Some(pre_at);
            self.pending_closes += 1;
        }

        // Response bookkeeping.
        let ready = self.clk.cycles(data_end);
        let replay = match &mut self.fault {
            Some(fm) => {
                fm.classify_burst(&mut self.probe, &txn.da, txn.is_read, txn.retries, ready)
            }
            None => None,
        };
        if let Some(backoff) = replay {
            // Link-layer error: the burst is replayed after a backoff. The
            // command and bus time are already spent; only completion is
            // withheld, so the group stays pending and the transaction
            // re-enters the unified queue (FIFO — the cycle baseline has no
            // priority lanes).
            let mut txn = txn;
            txn.retries += 1;
            txn.not_before = data_end + self.clk.to_cycles_ceil(backoff);
            if self.cfg.write_snooping && !txn.is_read {
                self.coverage.insert(txn.burst_addr, txn.lo, txn.hi);
            }
            self.queue.push_back(txn);
            return;
        }
        if txn.is_read {
            self.stats.read_lat.record((ready - txn.entry) as f64);
        }
        let group = self.groups.get_mut(txn.group);
        group.remaining -= 1;
        group.ready_at = group.ready_at.max(ready);
        if group.remaining == 0 {
            let group = self.groups.remove(txn.group);
            if group.req.cmd.is_read() {
                self.resp_q.schedule(
                    group.ready_at.max(self.resp_q.now()),
                    MemResponse::to(&group.req, group.ready_at),
                );
                if P::ENABLED {
                    self.probe
                        .req_completed(group.req.id.0, true, group.ready_at);
                }
            }
        }
    }

    /// Attempts PRE/ACT/column progress for transaction `i`; returns true
    /// if a command was issued.
    fn try_progress(&mut self, i: usize, c: u64) -> bool {
        let txn = self.queue[i].clone();
        if c < txn.not_before {
            return false;
        }
        let (ri, bi) = (txn.da.rank as usize, txn.da.bank as usize);
        if self.ranks[ri].blocked(c) {
            return false;
        }
        let (r, b) = (txn.da.rank, txn.da.bank);
        let open_row = self.ranks[ri].banks[bi].open_row;
        match open_row {
            Some(row) if row == txn.da.row => {
                let issuable = self.col_issuable(i, c);
                if issuable {
                    self.do_col(i, c);
                }
                issuable
            }
            Some(open) => {
                // Conflict: precharge, but (under FR-FCFS only) never
                // while other queued transactions still hit the open row —
                // closing it would throw their locality away; FR-FCFS will
                // serve those hits first. Under strict FCFS the head must
                // make progress unconditionally or the queue deadlocks.
                let hit_pending = self.cfg.scheduling == SchedPolicy::FrFcfs
                    && self
                        .queue
                        .iter()
                        .any(|q| q.da.rank == r && q.da.bank == b && q.da.row == open);
                if hit_pending || c < self.protocol.earliest(DramCmd::Pre, r, b) {
                    return false;
                }
                self.precharge(r, b, c);
                true
            }
            None => {
                // Closed: activate if the table (tRP, tRRD, tXAW, tRFC)
                // allows. A pending auto-precharge must finish first.
                let closing = self.ranks[ri].banks[bi].pending_close;
                if closing.is_some_and(|p| c < p) || c < self.protocol.earliest(DramCmd::Act, r, b)
                {
                    return false;
                }
                self.protocol.record(DramCmd::Act, r, b, c, 0);
                self.ranks[ri].banks[bi].open_row = Some(txn.da.row);
                self.queue[i].activated = true;
                let rcd = self.clk.cycles(self.protocol.gap(Rule::Rcd));
                self.emit(CmdEvent::act(r, b, txn.da.row, self.clk.cycles(c), rcd));
                true
            }
        }
    }

    // --------------------------------------------------------------
    // Time advancement
    // --------------------------------------------------------------

    /// Tick of the next cycle the model must execute, if any.
    fn next_work_tick(&self) -> Option<Tick> {
        if self.busy() {
            return Some(self.clk.cycles(self.cycle + 1));
        }
        // Idle: skip straight to the next refresh deadline.
        let due = self.next_refresh_due();
        (due != u64::MAX).then(|| self.clk.cycles(due))
    }

    /// The earliest cycle a rank's refresh falls due (`u64::MAX`: never).
    fn next_refresh_due(&self) -> u64 {
        self.ranks
            .iter()
            .map(|r| r.refresh_due)
            .min()
            .unwrap_or(u64::MAX)
    }

    /// Advances the cycle counter to `target`, ticking through any work
    /// (including refreshes that become due) and skipping idle gaps.
    fn advance_cycles_to(&mut self, target: u64) {
        while self.cycle < target {
            if self.busy() {
                self.tick();
            } else {
                let due = self.next_refresh_due();
                if due > target {
                    self.skip_idle_to(target);
                } else {
                    self.skip_idle_to(due.saturating_sub(1).max(self.cycle));
                    self.tick();
                }
            }
        }
    }

    /// Jumps the cycle counter across an idle gap, accounting precharged
    /// time for power.
    fn skip_idle_to(&mut self, target_cycle: u64) {
        debug_assert!(!self.busy());
        if target_cycle <= self.cycle {
            return;
        }
        let span = target_cycle - self.cycle;
        let c = self.cycle;
        for rank in &mut self.ranks {
            if rank.banks.iter().all(|b| !b.is_physically_open(c)) {
                rank.closed_cycles += span;
            }
        }
        self.cycle = target_cycle;
    }
}

impl<P: Probe> Controller for CycleCtrl<P> {
    fn try_send(&mut self, req: MemRequest, now: Tick) -> Result<(), Rejected> {
        assert!(req.size > 0, "zero-sized request");
        let n = burst_count(req.addr, req.size, self.cfg.spec.org.burst_bytes());
        if n > self.cfg.queue_depth {
            return Err(Rejected::TooLarge);
        }
        if self.queue.len() + n > self.cfg.queue_depth {
            return Err(Rejected::Full);
        }
        // Catch the cycle counter up to the present before enqueuing, so
        // commands never issue in the simulated past.
        let now_cycle = self.clk.to_cycles(now);
        if now_cycle > self.cycle {
            self.advance_cycles_to(now_cycle);
        }
        let is_read = req.cmd.is_read();
        self.stats.common.accepted(is_read);
        if P::ENABLED {
            self.probe
                .req_accepted(req.id.0, is_read, req.addr, req.size, now);
        }
        let gidx = self.groups.insert(BurstGroup {
            req,
            remaining: 0,
            ready_at: 0,
        });
        let mut pending = 0u32;
        for (b, lo, hi) in chop(req.addr, req.size, self.cfg.spec.org.burst_bytes()) {
            // Optional write snooping (paper Section II-A), answered from
            // the same O(1) coverage index the event-based model uses.
            if self.cfg.write_snooping && self.coverage.covers(b, lo, hi) {
                if is_read {
                    self.stats.forwarded_reads += 1;
                } else {
                    self.stats.merged_writes += 1;
                }
                continue;
            }
            if self.cfg.write_snooping && !is_read {
                self.coverage.insert(b, lo, hi);
            }
            let mut da = self.decoder.decode(b);
            if let Some(fm) = &self.fault {
                da.rank = fm.live_rank(da.rank);
            }
            self.queue.push_back(Txn {
                is_read,
                da,
                burst_addr: b,
                lo,
                hi,
                entry: now,
                group: gidx,
                activated: false,
                retries: 0,
                not_before: 0,
            });
            pending += 1;
        }
        if pending == 0 {
            // Entirely covered by queued writes: nothing to simulate.
            self.groups.remove(gidx);
            if is_read {
                self.resp_q
                    .schedule(now.max(self.resp_q.now()), MemResponse::to(&req, now));
                if P::ENABLED {
                    self.probe.req_completed(req.id.0, true, now);
                }
            }
        } else {
            self.groups.get_mut(gidx).remaining = pending;
        }
        self.probe_queue_depth(now);
        if !is_read {
            // Early write acknowledgement, as in the event-based model.
            self.resp_q
                .schedule(now.max(self.resp_q.now()), MemResponse::to(&req, now));
            if P::ENABLED {
                self.probe.req_completed(req.id.0, false, now);
            }
        }
        Ok(())
    }

    fn can_accept(&self, _cmd: MemCmd, addr: u64, size: u32) -> bool {
        let n = burst_count(addr, size, self.cfg.spec.org.burst_bytes());
        self.queue.len() + n <= self.cfg.queue_depth
    }

    fn next_event(&self) -> Option<Tick> {
        match (self.resp_q.peek_tick(), self.next_work_tick()) {
            (Some(a), Some(b)) => Some(a.min(b)),
            (a, b) => a.or(b),
        }
    }

    fn advance_to(&mut self, limit: Tick, out: &mut Vec<MemResponse>) {
        loop {
            // Deliver responses due before (or at) the next work cycle.
            let work = self.next_work_tick();
            let resp = self.resp_q.peek_tick();
            let next = match (resp, work) {
                (Some(r), Some(w)) => {
                    if r <= w {
                        resp
                    } else {
                        work
                    }
                }
                (r, w) => r.or(w),
            };
            let Some(next) = next else { break };
            if next > limit {
                break;
            }
            if resp == Some(next) && (work.is_none() || next <= work.unwrap()) {
                let (_, r) = self.resp_q.pop().expect("peeked");
                out.push(r);
                continue;
            }
            // Execute the cycle at `next`.
            if self.busy() {
                self.tick();
            } else {
                // Idle skip to the refresh deadline, then run it.
                let target = self.clk.to_cycles(next);
                self.skip_idle_to(target.saturating_sub(1));
                self.tick();
            }
        }
    }

    fn drain(&mut self, out: &mut Vec<MemResponse>) -> Tick {
        while self.busy() || !self.resp_q.is_empty() {
            // Refreshes recur forever; only follow them while real work
            // remains.
            if self.queue.is_empty() && self.pending_closes == 0 && self.resp_q.is_empty() {
                // Let in-progress refreshes finish, then stop.
                let until = self
                    .ranks
                    .iter()
                    .map(|r| r.refreshing_until)
                    .max()
                    .unwrap_or(0);
                while self.cycle < until {
                    self.tick();
                }
                for r in &mut self.ranks {
                    r.want_refresh = false;
                }
                break;
            }
            let next = self.next_event().expect("busy implies a next event");
            self.advance_to(next, out);
        }
        self.clk.cycles(self.cycle).max(self.resp_q.now())
    }

    fn is_idle(&self) -> bool {
        self.queue.is_empty()
    }

    fn spec(&self) -> &MemSpec {
        &self.cfg.spec
    }

    fn common_stats(&self) -> CommonStats {
        CommonStats {
            read_lat_sum: self.stats.read_lat.sum(),
            ..self.stats.common
        }
    }

    fn activity(&mut self, now: Tick) -> ActivityStats {
        let now_cycle = self.clk.to_cycles(now);
        if !self.busy() {
            self.skip_idle_to(now_cycle);
        }
        // The baseline has no low-power states: no power-down or
        // self-refresh time.
        ActivityStats {
            time_all_banks_precharged: self
                .ranks
                .iter()
                .map(|r| self.clk.cycles(r.closed_cycles))
                .sum(),
            ..ActivityStats::counted(&self.stats.common, now, self.cfg.spec.org.ranks)
        }
    }

    fn report(&self, prefix: &str, now: Tick) -> Report {
        let mut r = Report::new(prefix);
        let (s, c) = (&self.stats, &self.stats.common);
        r.text("device", self.cfg.spec.name);
        r.text("model", "cycle");
        r.counter("reads_accepted", c.reads_accepted);
        r.counter("writes_accepted", c.writes_accepted);
        r.counter("rd_bursts", c.rd_bursts);
        r.counter("wr_bursts", c.wr_bursts);
        r.counter("bytes_read", c.bytes_read);
        r.counter("bytes_written", c.bytes_written);
        r.counter("row_hits", c.row_hits);
        r.counter("activates", c.activates);
        r.counter("precharges", c.precharges);
        r.counter("refreshes", c.refreshes);
        if self.cfg.write_snooping {
            r.counter("merged_writes", s.merged_writes);
            r.counter("forwarded_reads", s.forwarded_reads);
        }
        r.counter("cycles_simulated", s.cycles_simulated);
        r.scalar("page_hit_rate", c.page_hit_rate());
        r.scalar("bus_util", c.bus_utilisation(now));
        r.scalar(
            "avg_read_lat_ns",
            dramctrl_kernel::tick::to_ns(s.read_lat.mean() as Tick),
        );
        if let Some(fm) = &self.fault {
            fm.report_into(&mut r);
        }
        r
    }
}

// ------------------------------------------------------------------
// Checkpointing
// ------------------------------------------------------------------

fn save_txn(w: &mut SnapWriter, txn: &Txn) {
    w.bool(txn.is_read);
    snapio::save_addr(w, &txn.da);
    w.u64(txn.burst_addr);
    w.u32(txn.lo);
    w.u32(txn.hi);
    w.u64(txn.entry);
    w.usize(txn.group);
    w.bool(txn.activated);
    w.u8(txn.retries);
    w.u64(txn.not_before);
}

impl<P: Probe> CycleCtrl<P> {
    /// Reads one queued burst, refusing what would panic once it is
    /// served: an empty byte range or one past the burst, a rank or bank
    /// outside the organisation, or an entry after the restored cycle
    /// (`try_send` catches the cycle up to its `now` before it stamps the
    /// entry). Needs the restored `cycle`.
    fn read_txn(&self, r: &mut SnapReader<'_>) -> Result<Txn, SnapError> {
        let txn = Txn {
            is_read: r.bool()?,
            da: snapio::read_addr(r)?,
            burst_addr: r.u64()?,
            lo: r.u32()?,
            hi: r.u32()?,
            entry: r.u64()?,
            group: r.usize()?,
            activated: r.bool()?,
            retries: r.u8()?,
            not_before: r.u64()?,
        };
        let burst = self.cfg.spec.org.burst_bytes();
        let (lo, hi, da) = (txn.lo, txn.hi, txn.da);
        let corrupt = |what: String| Err(SnapError::Corrupt(what));
        if hi <= lo || u64::from(hi) > burst {
            return corrupt(format!(
                "burst byte range {lo}..{hi} not inside {burst} bytes"
            ));
        }
        if !self.cfg.spec.org.has_bank(da.rank, da.bank) {
            return corrupt(format!(
                "burst at rank {} bank {} outside the organisation",
                da.rank, da.bank
            ));
        }
        if txn.entry >= self.clk.cycles(self.cycle + 1) {
            return corrupt(format!(
                "burst entered at {} ps, after cycle {}",
                txn.entry, self.cycle
            ));
        }
        Ok(txn)
    }
}

impl<P: Probe> SnapState for CycleCtrl<P> {
    /// Captures the full dynamic state of the controller: the cycle
    /// counter, the unified transaction queue, burst groups (slots *and*
    /// free list, preserving slot-reuse order), open rows and pending
    /// auto-precharges, refresh bookkeeping, the protocol table's state,
    /// the response queue, write coverage, the RAS fault model and
    /// statistics.
    ///
    /// Configuration-derived fields (the config itself, the clock, the
    /// protocol table's rows in cycles and the probe) are *not* written;
    /// restore targets a freshly constructed controller built from the
    /// same [`CycleConfig`].
    fn save_state(&self, w: &mut SnapWriter) {
        w.u64(self.cycle);
        w.usize(self.queue.len());
        for txn in &self.queue {
            save_txn(w, txn);
        }
        self.groups.save_state(w);
        w.usize(self.ranks.len());
        for rank in &self.ranks {
            w.usize(rank.banks.len());
            for bank in &rank.banks {
                w.opt_u64(bank.open_row);
                w.opt_u64(bank.pending_close);
            }
            w.u64(rank.refresh_due);
            w.bool(rank.want_refresh);
            w.u64(rank.refreshing_until);
            w.u64(rank.closed_cycles);
        }
        self.protocol.save_state(w);
        self.resp_q.save_state(w, snapio::save_response);
        self.coverage.save_state(w);
        w.bool(self.fault.is_some());
        if let Some(fm) = &self.fault {
            fm.save_state(w);
        }
        let (s, c) = (&self.stats, &self.stats.common);
        w.u64(c.reads_accepted);
        w.u64(c.writes_accepted);
        w.u64(c.rd_bursts);
        w.u64(c.wr_bursts);
        w.u64(c.bytes_read);
        w.u64(c.bytes_written);
        w.u64(c.row_hits);
        w.u64(c.activates);
        w.u64(c.precharges);
        w.u64(c.refreshes);
        w.u64(c.bus_busy);
        w.u64(s.merged_writes);
        w.u64(s.forwarded_reads);
        w.u64(s.cycles_simulated);
        s.read_lat.save_state(w);
    }

    fn restore_state(&mut self, r: &mut SnapReader<'_>) -> Result<(), SnapError> {
        // `next_event` turns the next cycle and every refresh deadline
        // into ticks: both must stay inside the tick range.
        let horizon = u64::MAX / self.clk.period() - 1;
        self.cycle = r.u64()?;
        if self.cycle > horizon {
            return Err(SnapError::Corrupt(format!(
                "cycle {} past the tick range",
                self.cycle
            )));
        }
        let n_txn = r.usize()?;
        self.queue.clear();
        for _ in 0..n_txn {
            let txn = self.read_txn(r)?;
            self.queue.push_back(txn);
        }
        self.groups.restore_state(r)?;
        for txn in &self.queue {
            self.groups.check_live(txn.group)?;
        }
        let n_ranks = r.usize()?;
        if n_ranks != self.ranks.len() {
            return Err(SnapError::Corrupt(format!(
                "snapshot has {n_ranks} ranks, configuration has {}",
                self.ranks.len()
            )));
        }
        for rank in &mut self.ranks {
            let n_banks = r.usize()?;
            if n_banks != rank.banks.len() {
                return Err(SnapError::Corrupt(format!(
                    "snapshot has {n_banks} banks per rank, configuration has {}",
                    rank.banks.len()
                )));
            }
            for bank in &mut rank.banks {
                bank.open_row = r.opt_u64()?;
                bank.pending_close = r.opt_u64()?;
            }
            rank.refresh_due = r.u64()?;
            if rank.refresh_due > horizon && rank.refresh_due != u64::MAX {
                return Err(SnapError::Corrupt(format!(
                    "refresh due at cycle {} past the tick range",
                    rank.refresh_due
                )));
            }
            rank.want_refresh = r.bool()?;
            rank.refreshing_until = r.u64()?;
            rank.closed_cycles = r.u64()?;
        }
        self.protocol.restore_state(r)?;
        self.resp_q.restore_state(r, snapio::read_response)?;
        // Derived: the count of banks with a scheduled auto-precharge.
        self.pending_closes = self
            .ranks
            .iter()
            .flat_map(|r| &r.banks)
            .filter(|b| b.pending_close.is_some())
            .count();
        self.coverage.restore_state(r)?;
        let has_fault = r.bool()?;
        if has_fault != self.fault.is_some() {
            return Err(SnapError::Corrupt(
                "RAS presence differs between snapshot and configuration".into(),
            ));
        }
        if let Some(fm) = &mut self.fault {
            fm.restore_state(r)?;
        }
        let s = &mut self.stats;
        let c = &mut s.common;
        c.reads_accepted = r.u64()?;
        c.writes_accepted = r.u64()?;
        c.rd_bursts = r.u64()?;
        c.wr_bursts = r.u64()?;
        c.bytes_read = r.u64()?;
        c.bytes_written = r.u64()?;
        c.row_hits = r.u64()?;
        c.activates = r.u64()?;
        c.precharges = r.u64()?;
        c.refreshes = r.u64()?;
        c.bus_busy = r.u64()?;
        s.merged_writes = r.u64()?;
        s.forwarded_reads = r.u64()?;
        s.cycles_simulated = r.u64()?;
        s.read_lat.restore_state(r)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dramctrl_mem::{presets, ReqId};

    fn cfg() -> CycleConfig {
        CycleConfig::new(presets::ddr3_1333_x64())
    }

    /// The snapshot of a controller holding one queued 64-byte read, its
    /// burst first edited by `edit`.
    fn holding(edit: impl Fn(&mut Txn, &Clock)) -> Vec<u8> {
        let mut ctrl = CycleCtrl::new(cfg()).unwrap();
        ctrl.try_send(MemRequest::read(ReqId(0), 0x40, 64), 0)
            .unwrap();
        edit(&mut ctrl.queue[0], &ctrl.clk);
        let mut w = SnapWriter::new(0);
        ctrl.save_state(&mut w);
        w.into_bytes()
    }

    fn restore(bytes: &[u8]) -> Result<CycleCtrl, SnapError> {
        let mut ctrl = CycleCtrl::new(cfg()).expect("valid config");
        ctrl.restore_state(&mut SnapReader::new(bytes, 0)?)?;
        Ok(ctrl)
    }

    fn assert_refused(edit: impl Fn(&mut Txn, &Clock), why: &str) {
        match restore(&holding(edit)) {
            Err(e) => assert!(e.to_string().contains(why), "{e}"),
            Ok(_) => panic!("restored a snapshot with a burst {why}"),
        }
    }

    /// The edit is sound: left alone, the queued read restores and is
    /// answered.
    #[test]
    fn restore_serves_a_queued_burst() {
        let mut out = Vec::new();
        restore(&holding(|_, _| {})).unwrap().drain(&mut out);
        assert_eq!(out.len(), 1);
    }

    /// `hi - lo` is the burst's byte count when it is served.
    #[test]
    fn restore_refuses_a_burst_whose_byte_range_is_empty_or_past_the_burst() {
        let why = "not inside 64 bytes";
        assert_refused(|t, _| t.hi = t.lo, why);
        assert_refused(|t, _| (t.lo, t.hi) = (32, 16), why);
        assert_refused(|t, _| t.hi = 65, why);
    }

    /// Serving a burst indexes its rank's bank state.
    #[test]
    fn restore_refuses_a_burst_outside_the_organisation() {
        let org = cfg().spec.org;
        let why = "outside the organisation";
        assert_refused(|t, _| t.da.rank = org.ranks, why);
        assert_refused(|t, _| t.da.bank = org.banks, why);
    }

    /// A read's latency is its completion minus its entry: an entry after
    /// the restored cycle would come out negative.
    #[test]
    fn restore_refuses_a_burst_that_entered_after_the_restored_cycle() {
        assert_refused(|t, clk| t.entry = clk.cycles(1), "after cycle 0");
        assert_refused(|t, _| t.entry = Tick::MAX, "after cycle 0");
    }
}
