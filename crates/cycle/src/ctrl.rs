//! The cycle-by-cycle controller.
//!
//! Faithful to the *structure* of DRAMSim2 (the paper's comparison
//! baseline): a unified transaction queue, per-bank down-counter state
//! machines, one DRAM command per clock cycle, and an `update()` that runs
//! every memory-clock cycle while any work is pending. The per-cycle
//! execution is precisely what makes this model slow relative to the
//! event-based controller — the property measured in paper Section III-D.

use std::collections::VecDeque;

use dramctrl_kernel::snap::{SnapError, SnapReader, SnapState, SnapWriter};
use dramctrl_kernel::{Clock, EventQueue, Tick};
use dramctrl_mem::{
    snapio, ActivityStats, CommonStats, Controller, Decoder, DramAddr, MemCmd, MemRequest,
    MemResponse, MemSpec, Rejected, WriteCoverage,
};
use dramctrl_obs::{CmdEvent, DramCmd, NoProbe, Probe, RasMark};
use dramctrl_ras::{BurstOutcome, FaultModel, RasGeometry};
use dramctrl_stats::{Average, Report};

use crate::config::{CycleConfig, CycleConfigError, CyclePagePolicy, CycleSched};

/// Timing parameters converted to memory-clock cycles.
#[derive(Debug, Clone, Copy)]
struct CycTiming {
    burst: u64,
    rcd: u64,
    cl: u64,
    rp: u64,
    ras: u64,
    wr: u64,
    rtp: u64,
    rrd: u64,
    xaw: u64,
    act_limit: u32,
    wtr: u64,
    rtw: u64,
    rfc: u64,
    refi: u64,
}

impl CycTiming {
    fn from_spec(spec: &MemSpec, clk: &Clock) -> Self {
        let t = &spec.timing;
        let c = |x| clk.to_cycles_ceil(x);
        Self {
            burst: c(t.t_burst),
            rcd: c(t.t_rcd),
            cl: c(t.t_cl),
            rp: c(t.t_rp),
            ras: c(t.t_ras),
            wr: c(t.t_wr),
            rtp: c(t.t_rtp),
            rrd: c(t.t_rrd),
            xaw: c(t.t_xaw),
            act_limit: t.activation_limit,
            wtr: c(t.t_wtr),
            rtw: c(t.t_rtw),
            rfc: c(t.t_rfc),
            refi: if t.t_refi == 0 { 0 } else { c(t.t_refi) },
        }
    }
}

#[derive(Debug, Clone, Default)]
struct CycBank {
    open_row: Option<u64>,
    next_act: u64,
    next_pre: u64,
    next_col: u64,
    /// Cycle at which a scheduled auto-precharge takes effect (row already
    /// marked closed for scheduling purposes).
    pending_close: Option<u64>,
    /// Cycle at which the most recent precharge completes.
    pre_done: u64,
}

impl CycBank {
    fn is_physically_open(&self, cycle: u64) -> bool {
        self.open_row.is_some() || self.pending_close.is_some_and(|p| cycle < p)
    }
}

#[derive(Debug, Clone)]
struct CycRank {
    banks: Vec<CycBank>,
    act_times: VecDeque<u64>,
    next_act_rank: u64,
    refresh_due: u64,
    want_refresh: bool,
    refreshing_until: u64,
    closed_cycles: u64,
}

impl CycRank {
    fn new(banks: u32, refi: u64) -> Self {
        Self {
            banks: vec![CycBank::default(); banks as usize],
            act_times: VecDeque::new(),
            next_act_rank: 0,
            refresh_due: if refi == 0 { u64::MAX } else { refi },
            want_refresh: false,
            refreshing_until: 0,
            closed_cycles: 0,
        }
    }

    fn act_allowed(&self, cycle: u64, t: &CycTiming) -> bool {
        if cycle < self.next_act_rank {
            return false;
        }
        if t.act_limit == 0 || (self.act_times.len() as u32) < t.act_limit {
            return true;
        }
        let oldest = self.act_times[self.act_times.len() - t.act_limit as usize];
        cycle >= oldest + t.xaw
    }

    fn record_act(&mut self, cycle: u64, t: &CycTiming) {
        self.next_act_rank = self.next_act_rank.max(cycle + t.rrd);
        if t.act_limit > 0 {
            self.act_times.push_back(cycle);
            while self.act_times.len() > t.act_limit as usize {
                self.act_times.pop_front();
            }
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

#[derive(Debug, Clone)]
struct Group {
    req: MemRequest,
    remaining: u32,
    ready_at: Tick,
}

/// Bus direction of the most recent data transfer.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Dir {
    Rd,
    Wr,
}

/// Statistics of the cycle-based controller.
#[derive(Debug, Clone, Default)]
pub struct CycleStats {
    /// Read requests accepted.
    pub reads_accepted: u64,
    /// Write requests accepted.
    pub writes_accepted: u64,
    /// Read bursts serviced.
    pub rd_bursts: u64,
    /// Write bursts serviced.
    pub wr_bursts: u64,
    /// Bytes read.
    pub bytes_read: u64,
    /// Bytes written.
    pub bytes_written: u64,
    /// Bursts that hit an open row.
    pub row_hits: u64,
    /// Row activations.
    pub activates: u64,
    /// Precharges.
    pub precharges: u64,
    /// Refreshes.
    pub refreshes: u64,
    /// Accumulated data-bus busy time (ticks).
    pub bus_busy: Tick,
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
    t: CycTiming,
    cycle: u64,
    queue: VecDeque<Txn>,
    groups: Vec<Option<Group>>,
    free_groups: Vec<usize>,
    ranks: Vec<CycRank>,
    resp_q: EventQueue<MemResponse>,
    bus_free: u64,
    last_data_end: u64,
    last_dir: Option<Dir>,
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
        let t = CycTiming::from_spec(&cfg.spec, &clk);
        let ranks = (0..cfg.spec.org.ranks)
            .map(|_| CycRank::new(cfg.spec.org.banks, t.refi))
            .collect();
        let queue = VecDeque::with_capacity(cfg.queue_depth);
        let resp_q = EventQueue::with_capacity(cfg.queue_depth);
        let org = &cfg.spec.org;
        let fault = cfg.ras.clone().map(|ras| {
            FaultModel::new(
                ras,
                RasGeometry {
                    ranks: org.ranks,
                    banks: org.banks,
                    row_bytes: org.row_buffer_bytes(),
                    rank_bytes: org.capacity_bytes() / u64::from(org.ranks),
                },
            )
        });
        Ok(Self {
            decoder: Decoder::new(cfg.mapping, org, cfg.channels),
            cfg,
            probe,
            clk,
            t,
            cycle: 0,
            queue,
            groups: Vec::new(),
            free_groups: Vec::new(),
            ranks,
            resp_q,
            bus_free: 0,
            last_data_end: 0,
            last_dir: None,
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

    fn burst_count(&self, addr: u64, size: u32) -> usize {
        let bb = self.cfg.spec.org.burst_bytes();
        let first = addr / bb;
        let last = (addr + u64::from(size)).div_ceil(bb);
        (last - first) as usize
    }

    fn alloc_group(&mut self, g: Group) -> usize {
        if let Some(i) = self.free_groups.pop() {
            self.groups[i] = Some(g);
            i
        } else {
            self.groups.push(Some(g));
            self.groups.len() - 1
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
                rank.refresh_due = rank.refresh_due.saturating_add(self.t.refi);
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
            let all_closed = self.ranks[ri]
                .banks
                .iter()
                .all(|b| b.open_row.is_none() && b.pending_close.is_none() && c >= b.pre_done);
            if all_closed {
                let rank = &mut self.ranks[ri];
                rank.want_refresh = false;
                rank.refreshing_until = c + self.t.rfc;
                for bank in &mut rank.banks {
                    bank.next_act = bank.next_act.max(rank.refreshing_until);
                }
                rank.next_act_rank = rank.next_act_rank.max(rank.refreshing_until);
                self.stats.refreshes += 1;
                if P::ENABLED {
                    self.probe.dram_cmd(CmdEvent::refresh(
                        ri as u32,
                        self.clk.cycles(c),
                        self.clk.cycles(self.t.rfc),
                    ));
                }
                return;
            }
            // Precharge the first open bank that is ready.
            let t_rp = self.t.rp;
            let rank = &mut self.ranks[ri];
            if let Some(bi) = rank
                .banks
                .iter()
                .position(|b| b.open_row.is_some() && c >= b.next_pre)
            {
                let bank = &mut rank.banks[bi];
                bank.open_row = None;
                bank.next_act = bank.next_act.max(c + t_rp);
                bank.pre_done = c + t_rp;
                self.stats.precharges += 1;
                if P::ENABLED {
                    self.probe.dram_cmd(CmdEvent::pre(
                        ri as u32,
                        bi as u32,
                        self.clk.cycles(c),
                        self.clk.cycles(t_rp),
                    ));
                }
                return;
            }
        }

        // Transaction scheduling.
        match self.cfg.scheduling {
            CycleSched::Fcfs => {
                if !self.queue.is_empty() {
                    self.try_progress(0, c);
                }
            }
            CycleSched::FrFcfs => {
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
        let txn = &self.queue[i];
        if c < txn.not_before {
            return false;
        }
        let rank = &self.ranks[txn.da.rank as usize];
        if rank.blocked(c) {
            return false;
        }
        let bank = &rank.banks[txn.da.bank as usize];
        bank.open_row == Some(txn.da.row) && c >= bank.next_col && self.bus_ok(txn.is_read, c)
    }

    /// Data-bus availability and turnaround for a column command at `c`.
    fn bus_ok(&self, is_read: bool, c: u64) -> bool {
        let data_start = c + self.t.cl;
        if data_start < self.bus_free {
            return false;
        }
        match (self.last_dir, is_read) {
            (Some(Dir::Wr), true) => c >= self.last_data_end + self.t.wtr,
            (Some(Dir::Rd), false) => data_start >= self.last_data_end + self.t.rtw,
            _ => true,
        }
    }

    /// Issues the column command for transaction `i` (which must be a row
    /// hit with `bus_ok`); completes the transaction.
    fn do_col(&mut self, i: usize, c: u64) {
        let txn = self.queue.remove(i).expect("index checked by caller");
        let (ri, bi) = (txn.da.rank as usize, txn.da.bank as usize);
        if self.cfg.write_snooping && !txn.is_read {
            self.coverage.remove(txn.burst_addr, txn.lo, txn.hi);
        }
        if !txn.activated {
            self.stats.row_hits += 1;
        }
        let data_start = c + self.t.cl;
        let data_end = data_start + self.t.burst;
        self.bus_free = data_end;
        self.last_data_end = data_end;
        self.last_dir = Some(if txn.is_read { Dir::Rd } else { Dir::Wr });
        self.stats.bus_busy += self.clk.cycles(self.t.burst);
        if P::ENABLED {
            let cmd = if txn.is_read {
                DramCmd::Rd
            } else {
                DramCmd::Wr
            };
            self.probe.dram_cmd(CmdEvent {
                req: txn.is_read.then(|| {
                    self.groups[txn.group]
                        .as_ref()
                        .expect("live group")
                        .req
                        .id
                        .0
                }),
                ..CmdEvent::data(
                    cmd,
                    txn.da.rank,
                    txn.da.bank,
                    txn.da.row,
                    self.clk.cycles(data_start),
                    self.clk.cycles(self.t.burst),
                    txn.hi - txn.lo,
                    !txn.activated,
                )
            });
            self.probe_queue_depth(self.clk.cycles(c));
        }

        let t = self.t;
        let bank = &mut self.ranks[ri].banks[bi];
        bank.next_col = bank.next_col.max(c + t.burst);
        if txn.is_read {
            bank.next_pre = bank.next_pre.max(c + t.rtp);
            self.stats.rd_bursts += 1;
            self.stats.bytes_read += u64::from(txn.hi - txn.lo);
        } else {
            bank.next_pre = bank.next_pre.max(data_end + t.wr);
            self.stats.wr_bursts += 1;
            self.stats.bytes_written += u64::from(txn.hi - txn.lo);
        }

        if self.cfg.page_policy == CyclePagePolicy::Closed {
            let bank = &mut self.ranks[ri].banks[bi];
            let pre_at = bank.next_pre;
            bank.open_row = None;
            bank.pending_close = Some(pre_at);
            bank.next_act = bank.next_act.max(pre_at + t.rp);
            bank.pre_done = pre_at + t.rp;
            self.pending_closes += 1;
            self.stats.precharges += 1;
            if P::ENABLED {
                self.probe.dram_cmd(CmdEvent::pre(
                    txn.da.rank,
                    txn.da.bank,
                    self.clk.cycles(pre_at),
                    self.clk.cycles(t.rp),
                ));
            }
        }

        // Response bookkeeping.
        let ready = self.clk.cycles(data_end);
        if self.fault.is_some() && self.ras_check(&txn, ready) {
            // Link-layer error: the burst is replayed after a backoff. The
            // command and bus time are already spent; only completion is
            // withheld, so the group stays pending and the transaction
            // re-enters the unified queue (FIFO — the cycle baseline has no
            // priority lanes).
            let mut txn = txn;
            let attempt = txn.retries;
            txn.retries += 1;
            let fm = self.fault.as_mut().expect("checked above");
            fm.note_retry();
            let backoff = self.clk.to_cycles_ceil(fm.retry_delay(u32::from(attempt)));
            txn.not_before = data_end + backoff;
            if P::ENABLED {
                self.probe
                    .ras_event(txn.da.rank, txn.da.bank, txn.da.row, RasMark::Retry, ready);
            }
            if self.cfg.write_snooping && !txn.is_read {
                self.coverage.insert(txn.burst_addr, txn.lo, txn.hi);
            }
            self.queue.push_back(txn);
            return;
        }
        if txn.is_read {
            self.stats.read_lat.record((ready - txn.entry) as f64);
        }
        let group = self.groups[txn.group].as_mut().expect("live group");
        group.remaining -= 1;
        group.ready_at = group.ready_at.max(ready);
        if group.remaining == 0 {
            let group = self.groups[txn.group].take().expect("live group");
            self.free_groups.push(txn.group);
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
        let t = self.t;
        let open_row = self.ranks[ri].banks[bi].open_row;
        match open_row {
            Some(row) if row == txn.da.row => {
                if self.col_issuable(i, c) {
                    self.do_col(i, c);
                    true
                } else {
                    false
                }
            }
            Some(open) => {
                // Conflict: precharge, but (under FR-FCFS only) never
                // while other queued transactions still hit the open row —
                // closing it would throw their locality away; FR-FCFS will
                // serve those hits first. Under strict FCFS the head must
                // make progress unconditionally or the queue deadlocks.
                let hit_pending = self.cfg.scheduling == CycleSched::FrFcfs
                    && self.queue.iter().any(|q| {
                        q.da.rank == txn.da.rank && q.da.bank == txn.da.bank && q.da.row == open
                    });
                let bank = &mut self.ranks[ri].banks[bi];
                if !hit_pending && c >= bank.next_pre {
                    bank.open_row = None;
                    bank.next_act = bank.next_act.max(c + t.rp);
                    bank.pre_done = c + t.rp;
                    self.stats.precharges += 1;
                    if P::ENABLED {
                        self.probe.dram_cmd(CmdEvent::pre(
                            txn.da.rank,
                            txn.da.bank,
                            self.clk.cycles(c),
                            self.clk.cycles(t.rp),
                        ));
                    }
                    true
                } else {
                    false
                }
            }
            None => {
                // Closed: activate if the bank, rank (tRRD) and window
                // (tXAW) allow. A pending auto-precharge must finish first.
                let rank = &self.ranks[ri];
                let bank = &rank.banks[bi];
                if bank.pending_close.is_some_and(|p| c < p) {
                    return false;
                }
                if c >= bank.next_act && rank.act_allowed(c, &t) {
                    let rank = &mut self.ranks[ri];
                    rank.record_act(c, &t);
                    let bank = &mut rank.banks[bi];
                    bank.open_row = Some(txn.da.row);
                    bank.next_col = bank.next_col.max(c + t.rcd);
                    bank.next_pre = bank.next_pre.max(c + t.ras);
                    self.stats.activates += 1;
                    self.queue[i].activated = true;
                    if P::ENABLED {
                        self.probe.dram_cmd(CmdEvent::act(
                            txn.da.rank,
                            txn.da.bank,
                            txn.da.row,
                            self.clk.cycles(c),
                            self.clk.cycles(t.rcd),
                        ));
                    }
                    true
                } else {
                    false
                }
            }
        }
    }

    // --------------------------------------------------------------
    // RAS (fault injection, ECC, link retry) — mirrors the event model
    // --------------------------------------------------------------

    /// Runs the fault model for a burst whose data ends at `data_end`
    /// (ticks). Returns true when the burst must be replayed (a link error
    /// with retry budget left); the caller re-queues it. Only called when
    /// a fault model is configured.
    fn ras_check(&mut self, txn: &Txn, data_end: Tick) -> bool {
        let fm = self.fault.as_mut().expect("caller checked");
        let rep = fm.check(txn.da.rank, txn.da.bank, txn.da.row, txn.is_read, data_end);
        let mut retry = false;
        let mark = match rep.outcome {
            BurstOutcome::Clean => None,
            BurstOutcome::Corrected => Some(RasMark::Corrected),
            BurstOutcome::Uncorrected => Some(RasMark::Uncorrected),
            BurstOutcome::Silent => Some(RasMark::Silent),
            BurstOutcome::LinkError => {
                if u32::from(txn.retries) < fm.max_retries() {
                    retry = true;
                    None // the caller emits the retry mark
                } else {
                    fm.note_retry_exhausted();
                    Some(RasMark::Uncorrected)
                }
            }
        };
        if P::ENABLED {
            if let Some(mark) = mark {
                self.probe
                    .ras_event(txn.da.rank, txn.da.bank, txn.da.row, mark, data_end);
            }
            if rep.remapped {
                self.probe.ras_event(
                    txn.da.rank,
                    txn.da.bank,
                    txn.da.row,
                    RasMark::Remap,
                    data_end,
                );
            }
            if let Some(r) = rep.offlined_rank {
                self.probe
                    .ras_event(r, 0, 0, RasMark::RankOffline, data_end);
            }
        }
        retry
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
        let due = self
            .ranks
            .iter()
            .map(|r| r.refresh_due)
            .min()
            .unwrap_or(u64::MAX);
        (due != u64::MAX).then(|| self.clk.cycles(due))
    }

    /// Advances the cycle counter to `target`, ticking through any work
    /// (including refreshes that become due) and skipping idle gaps.
    fn advance_cycles_to(&mut self, target: u64) {
        while self.cycle < target {
            if self.busy() {
                self.tick();
            } else {
                let due = self
                    .ranks
                    .iter()
                    .map(|r| r.refresh_due)
                    .min()
                    .unwrap_or(u64::MAX);
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
        let n = self.burst_count(req.addr, req.size);
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
        if is_read {
            self.stats.reads_accepted += 1;
        } else {
            self.stats.writes_accepted += 1;
        }
        if P::ENABLED {
            self.probe
                .req_accepted(req.id.0, is_read, req.addr, req.size, now);
        }
        let gidx = self.alloc_group(Group {
            req,
            remaining: 0,
            ready_at: 0,
        });
        let bb = self.cfg.spec.org.burst_bytes();
        let end = req.addr + u64::from(req.size);
        let mut b = req.addr / bb * bb;
        let mut pending = 0u32;
        while b < end {
            let lo = (req.addr.max(b) - b) as u32;
            let hi = (end.min(b + bb) - b) as u32;
            // Optional write snooping (paper Section II-A), answered from
            // the same O(1) coverage index the event-based model uses.
            if self.cfg.write_snooping && self.coverage.covers(b, lo, hi) {
                if is_read {
                    self.stats.forwarded_reads += 1;
                } else {
                    self.stats.merged_writes += 1;
                }
                b += bb;
                continue;
            }
            if self.cfg.write_snooping && !is_read {
                self.coverage.insert(b, lo, hi);
            }
            let mut da = self.decoder.decode(b);
            if let Some(fm) = &self.fault {
                // Degraded mode: traffic to offlined ranks lands on the
                // remaining live ones (capacity loss, not an abort).
                if fm.offline_mask() != 0 {
                    da.rank = dramctrl_mem::remap_rank(
                        da.rank,
                        fm.offline_mask(),
                        self.cfg.spec.org.ranks,
                    );
                }
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
            b += bb;
        }
        if pending == 0 {
            // Entirely covered by queued writes: nothing to simulate.
            self.groups[gidx] = None;
            self.free_groups.push(gidx);
            if is_read {
                self.resp_q
                    .schedule(now.max(self.resp_q.now()), MemResponse::to(&req, now));
                if P::ENABLED {
                    self.probe.req_completed(req.id.0, true, now);
                }
            }
        } else {
            self.groups[gidx].as_mut().expect("live group").remaining = pending;
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
        self.queue.len() + self.burst_count(addr, size) <= self.cfg.queue_depth
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
        let s = &self.stats;
        CommonStats {
            reads_accepted: s.reads_accepted,
            writes_accepted: s.writes_accepted,
            rd_bursts: s.rd_bursts,
            wr_bursts: s.wr_bursts,
            bytes_read: s.bytes_read,
            bytes_written: s.bytes_written,
            row_hits: s.row_hits,
            activates: s.activates,
            bus_busy: s.bus_busy,
            read_lat_sum: s.read_lat.sum(),
        }
    }

    fn activity(&mut self, now: Tick) -> ActivityStats {
        let now_cycle = self.clk.to_cycles(now);
        if !self.busy() {
            self.skip_idle_to(now_cycle);
        }
        ActivityStats {
            sim_time: now,
            activates: self.stats.activates,
            precharges: self.stats.precharges,
            rd_bursts: self.stats.rd_bursts,
            wr_bursts: self.stats.wr_bursts,
            refreshes: self.stats.refreshes,
            time_all_banks_precharged: self
                .ranks
                .iter()
                .map(|r| self.clk.cycles(r.closed_cycles))
                .sum(),
            time_powered_down: 0, // the baseline has no low-power states
            time_self_refresh: 0,
            ranks: self.cfg.spec.org.ranks,
        }
    }

    fn report(&self, prefix: &str, now: Tick) -> Report {
        let mut r = Report::new(prefix);
        let s = &self.stats;
        r.text("device", self.cfg.spec.name);
        r.text("model", "cycle");
        r.counter("reads_accepted", s.reads_accepted);
        r.counter("writes_accepted", s.writes_accepted);
        r.counter("rd_bursts", s.rd_bursts);
        r.counter("wr_bursts", s.wr_bursts);
        r.counter("bytes_read", s.bytes_read);
        r.counter("bytes_written", s.bytes_written);
        r.counter("row_hits", s.row_hits);
        r.counter("activates", s.activates);
        r.counter("precharges", s.precharges);
        r.counter("refreshes", s.refreshes);
        if self.cfg.write_snooping {
            r.counter("merged_writes", s.merged_writes);
            r.counter("forwarded_reads", s.forwarded_reads);
        }
        r.counter("cycles_simulated", s.cycles_simulated);
        let common = self.common_stats();
        r.scalar("page_hit_rate", common.page_hit_rate());
        r.scalar("bus_util", common.bus_utilisation(now));
        r.scalar(
            "avg_read_lat_ns",
            dramctrl_kernel::tick::to_ns(s.read_lat.mean() as Tick),
        );
        if let Some(fm) = &self.fault {
            for (name, v) in fm.stats().entries() {
                r.counter(name, v);
            }
            r.counter(
                "ras_usable_capacity_bytes",
                dramctrl_mem::degraded_capacity_bytes(&self.cfg.spec.org, fm.offline_mask()),
            );
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

fn read_txn(r: &mut SnapReader<'_>) -> Result<Txn, SnapError> {
    Ok(Txn {
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
    })
}

fn save_bank(w: &mut SnapWriter, bank: &CycBank) {
    w.opt_u64(bank.open_row);
    w.u64(bank.next_act);
    w.u64(bank.next_pre);
    w.u64(bank.next_col);
    w.opt_u64(bank.pending_close);
    w.u64(bank.pre_done);
}

fn read_bank(r: &mut SnapReader<'_>) -> Result<CycBank, SnapError> {
    Ok(CycBank {
        open_row: r.opt_u64()?,
        next_act: r.u64()?,
        next_pre: r.u64()?,
        next_col: r.u64()?,
        pending_close: r.opt_u64()?,
        pre_done: r.u64()?,
    })
}

impl<P: Probe> SnapState for CycleCtrl<P> {
    /// Captures the full dynamic state of the controller: the cycle
    /// counter, the unified transaction queue, burst groups (slots *and*
    /// free list, preserving slot-reuse order), per-bank FSM timers,
    /// refresh bookkeeping, the response queue, bus direction/turnaround
    /// state, write coverage, the RAS fault model and statistics.
    ///
    /// Configuration-derived fields (the config itself, the clock, the
    /// cycle-converted timing table and the probe) are *not* written;
    /// restore targets a freshly constructed controller built from the
    /// same [`CycleConfig`].
    fn save_state(&self, w: &mut SnapWriter) {
        w.u64(self.cycle);
        w.usize(self.queue.len());
        for txn in &self.queue {
            save_txn(w, txn);
        }
        w.usize(self.groups.len());
        for slot in &self.groups {
            match slot {
                Some(g) => {
                    w.bool(true);
                    snapio::save_request(w, &g.req);
                    w.u32(g.remaining);
                    w.u64(g.ready_at);
                }
                None => w.bool(false),
            }
        }
        w.usize(self.free_groups.len());
        for &f in &self.free_groups {
            w.usize(f);
        }
        w.usize(self.ranks.len());
        for rank in &self.ranks {
            w.usize(rank.banks.len());
            for bank in &rank.banks {
                save_bank(w, bank);
            }
            w.usize(rank.act_times.len());
            for &t in &rank.act_times {
                w.u64(t);
            }
            w.u64(rank.next_act_rank);
            w.u64(rank.refresh_due);
            w.bool(rank.want_refresh);
            w.u64(rank.refreshing_until);
            w.u64(rank.closed_cycles);
        }
        self.resp_q.save_state(w, snapio::save_response);
        w.u64(self.bus_free);
        w.u64(self.last_data_end);
        w.u8(match self.last_dir {
            None => 0,
            Some(Dir::Rd) => 1,
            Some(Dir::Wr) => 2,
        });
        self.coverage.save_state(w);
        w.bool(self.fault.is_some());
        if let Some(fm) = &self.fault {
            fm.save_state(w);
        }
        let s = &self.stats;
        w.u64(s.reads_accepted);
        w.u64(s.writes_accepted);
        w.u64(s.rd_bursts);
        w.u64(s.wr_bursts);
        w.u64(s.bytes_read);
        w.u64(s.bytes_written);
        w.u64(s.row_hits);
        w.u64(s.activates);
        w.u64(s.precharges);
        w.u64(s.refreshes);
        w.u64(s.bus_busy);
        w.u64(s.merged_writes);
        w.u64(s.forwarded_reads);
        w.u64(s.cycles_simulated);
        let (sum, count, min, max) = s.read_lat.to_parts();
        w.f64(sum);
        w.u64(count);
        w.f64(min);
        w.f64(max);
    }

    fn restore_state(&mut self, r: &mut SnapReader<'_>) -> Result<(), SnapError> {
        self.cycle = r.u64()?;
        let n_txn = r.usize()?;
        self.queue.clear();
        for _ in 0..n_txn {
            self.queue.push_back(read_txn(r)?);
        }
        let n_groups = r.usize()?;
        self.groups.clear();
        for _ in 0..n_groups {
            if r.bool()? {
                self.groups.push(Some(Group {
                    req: snapio::read_request(r)?,
                    remaining: r.u32()?,
                    ready_at: r.u64()?,
                }));
            } else {
                self.groups.push(None);
            }
        }
        let n_free = r.usize()?;
        self.free_groups.clear();
        for _ in 0..n_free {
            let f = r.usize()?;
            if self.groups.get(f).map_or(true, Option::is_some) {
                return Err(SnapError::Corrupt(format!("free-list entry {f} not free")));
            }
            self.free_groups.push(f);
        }
        let empty = self.groups.iter().filter(|s| s.is_none()).count();
        if empty != self.free_groups.len() {
            return Err(SnapError::Corrupt(format!(
                "{empty} empty group slots but {} free-list entries",
                self.free_groups.len()
            )));
        }
        for txn in &self.queue {
            if self.groups.get(txn.group).map_or(true, Option::is_none) {
                return Err(SnapError::Corrupt(format!(
                    "queued burst references dead group {}",
                    txn.group
                )));
            }
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
                *bank = read_bank(r)?;
            }
            let n_acts = r.usize()?;
            rank.act_times.clear();
            for _ in 0..n_acts {
                let t = r.u64()?;
                if rank.act_times.back().is_some_and(|&last| t < last) {
                    return Err(SnapError::Corrupt(
                        "activation window times out of order".into(),
                    ));
                }
                rank.act_times.push_back(t);
            }
            rank.next_act_rank = r.u64()?;
            rank.refresh_due = r.u64()?;
            rank.want_refresh = r.bool()?;
            rank.refreshing_until = r.u64()?;
            rank.closed_cycles = r.u64()?;
        }
        self.resp_q.restore_state(r, snapio::read_response)?;
        self.bus_free = r.u64()?;
        self.last_data_end = r.u64()?;
        self.last_dir = match r.u8()? {
            0 => None,
            1 => Some(Dir::Rd),
            2 => Some(Dir::Wr),
            t => return Err(SnapError::Corrupt(format!("unknown bus direction tag {t}"))),
        };
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
        s.reads_accepted = r.u64()?;
        s.writes_accepted = r.u64()?;
        s.rd_bursts = r.u64()?;
        s.wr_bursts = r.u64()?;
        s.bytes_read = r.u64()?;
        s.bytes_written = r.u64()?;
        s.row_hits = r.u64()?;
        s.activates = r.u64()?;
        s.precharges = r.u64()?;
        s.refreshes = r.u64()?;
        s.bus_busy = r.u64()?;
        s.merged_writes = r.u64()?;
        s.forwarded_reads = r.u64()?;
        s.cycles_simulated = r.u64()?;
        let sum = r.f64()?;
        let count = r.u64()?;
        let min = r.f64()?;
        let max = r.f64()?;
        s.read_lat = Average::from_parts(sum, count, min, max);
        Ok(())
    }
}
