//! The event-based DRAM controller (the paper's contribution, Section II).

use std::fmt;

use dramctrl_kernel::snap::{SnapError, SnapReader, SnapState, SnapWriter};
use dramctrl_kernel::{EventQueue, SimStall, Tick};
use dramctrl_mem::{snapio, ActivityStats, Decoder, MemCmd, MemRequest, MemResponse};
use dramctrl_obs::{CmdEvent, DramCmd, NoProbe, PowerState, Probe, RasMark};
use dramctrl_ras::{BurstOutcome, FaultModel, RasGeometry};

use crate::bank::Rank;
use crate::config::{ConfigError, CtrlConfig, PagePolicy, SchedPolicy};
#[cfg(test)]
use crate::queue::covers;
use crate::queue::{burst_count, chop, BurstGroup, DramPacket, GroupArena};
use crate::sched::SchedQueue;
use crate::stats::CtrlStats;

/// Why a request was rejected by [`DramCtrl::try_send`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SendError {
    /// The read queue cannot hold all bursts of the request; retry once
    /// responses have drained.
    ReadQueueFull,
    /// The write queue cannot hold all bursts of the request; retry once
    /// writes have drained.
    WriteQueueFull,
    /// The request spans more bursts than the queue can ever hold.
    TooLarge {
        /// Bursts required by the request.
        bursts: usize,
        /// Queue capacity in bursts.
        capacity: usize,
    },
}

impl fmt::Display for SendError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SendError::ReadQueueFull => write!(f, "read queue full"),
            SendError::WriteQueueFull => write!(f, "write queue full"),
            SendError::TooLarge { bursts, capacity } => {
                write!(f, "request needs {bursts} bursts, queue holds {capacity}")
            }
        }
    }
}

impl std::error::Error for SendError {}

/// Internal controller events: the model only executes at these points
/// (paper Section II-D).
#[derive(Debug)]
enum Ev {
    /// Consider issuing the next request from the read or write queue.
    NextReq,
    /// Deliver a response (read completion, early write ack, forwarded
    /// read) to the master.
    Ack(MemResponse),
    /// A rank's refresh interval elapsed.
    Refresh(u32),
    /// Idle long enough? Consider entering precharge power-down.
    PowerDownCheck,
    /// Powered down long enough? Consider descending into self-refresh.
    SelfRefreshCheck,
    /// Re-enqueue a burst whose transfer hit a link error (RAS retry,
    /// carrying the packet through its backoff delay). Boxed: retries are
    /// rare, and an inline 80-byte packet would set the size of *every*
    /// event the queue moves.
    Retry(Box<DramPacket>),
}

// Every pop and push in every controller's event queue moves an
// `Entry<Ev>`; the largest common variant (`Ack`) is 32 bytes and nothing
// rarer may grow the enum past it.
const _: () = assert!(std::mem::size_of::<Ev>() <= 32);

impl Ev {
    fn save(&self, w: &mut SnapWriter) {
        match self {
            Ev::NextReq => w.u8(0),
            Ev::Ack(resp) => {
                w.u8(1);
                snapio::save_response(w, resp);
            }
            Ev::Refresh(rank) => {
                w.u8(2);
                w.u32(*rank);
            }
            Ev::PowerDownCheck => w.u8(3),
            Ev::SelfRefreshCheck => w.u8(4),
            Ev::Retry(pkt) => {
                w.u8(5);
                crate::queue::save_packet(w, pkt);
            }
        }
    }

    fn read(r: &mut SnapReader<'_>) -> Result<Self, SnapError> {
        Ok(match r.u8()? {
            0 => Ev::NextReq,
            1 => Ev::Ack(snapio::read_response(r)?),
            2 => Ev::Refresh(r.u32()?),
            3 => Ev::PowerDownCheck,
            4 => Ev::SelfRefreshCheck,
            5 => Ev::Retry(Box::new(crate::queue::read_packet(r)?)),
            t => return Err(SnapError::Corrupt(format!("controller event tag {t}"))),
        })
    }
}

/// Data-bus direction.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum BusState {
    Read,
    Write,
}

/// The event-based DRAM controller model.
///
/// The controller owns split read and write queues, per-bank timing state
/// and a private event queue; it is driven from the outside through a pull
/// interface:
///
/// 1. [`try_send`](Self::try_send) — offer a request (flow control via
///    [`SendError`]);
/// 2. [`next_event`](Self::next_event) — the tick of the controller's next
///    internal event, letting the harness skip ahead;
/// 3. [`advance_to`](Self::advance_to) — execute all events up to a tick,
///    collecting responses.
///
/// All calls must use non-decreasing `now` values.
///
/// The `P` type parameter is an instrumentation hook (see `dramctrl-obs`):
/// the default [`NoProbe`] compiles every probe call away, so an
/// uninstrumented controller is exactly the controller before
/// instrumentation existed. [`with_probe`](Self::with_probe) attaches a
/// live sink; probes observe and never influence, so a traced run is
/// byte-identical to an untraced one (asserted by the test-only
/// differential harness, `diff::assert_probe_transparent`).
///
/// # Example
///
/// ```
/// use dramctrl::{CtrlConfig, DramCtrl};
/// use dramctrl_mem::{presets, MemRequest, ReqId};
///
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let mut ctrl = DramCtrl::new(CtrlConfig::new(presets::ddr3_1333_x64()))?;
/// ctrl.try_send(MemRequest::read(ReqId(0), 0x80, 64), 0)?;
/// let mut responses = Vec::new();
/// ctrl.drain(&mut responses);
/// assert_eq!(responses.len(), 1);
/// // Idle bank: tRCD + tCL + tBURST = 13.5 + 13.5 + 6 ns.
/// assert_eq!(responses[0].ready_at, 33_000);
/// # Ok(())
/// # }
/// ```
#[derive(Debug)]
pub struct DramCtrl<P: Probe = NoProbe> {
    cfg: CtrlConfig,
    /// `cfg.mapping` bound to the organisation and channel count: the
    /// per-burst address decode, with every divisor worked out once.
    decoder: Decoder,
    probe: P,
    events: EventQueue<Ev>,
    read_q: SchedQueue,
    write_q: SchedQueue,
    /// `cfg.write_high_entries()` and `cfg.write_low_entries()`, worked
    /// out once: the bus-direction decision reads them every time.
    write_high: usize,
    write_low: usize,
    groups: GroupArena,
    /// Answer scheduling questions with the original linear queue scans
    /// instead of the indices (see [`Self::new_reference`]).
    #[cfg(test)]
    use_reference: bool,
    ranks: Vec<Rank>,
    bus_state: BusState,
    /// Direction of the most recent data burst (for turnaround timing).
    last_burst_read: Option<bool>,
    bus_busy_until: Tick,
    writes_this_switch: usize,
    next_req_scheduled: bool,
    draining: bool,
    /// Write drain forced by an imminent power-down entry.
    pd_drain: bool,
    pd_check_scheduled: bool,
    last_activity: Tick,
    stats: CtrlStats,
    /// Fault injection / ECC / recovery state (`None` without RAS — the
    /// hot paths then short-circuit to exactly the fault-free code).
    fault: Option<FaultModel>,
}

/// The fault model a configuration's RAS section implies (`None` without
/// RAS). Shared by construction and [`DramCtrl::reset`], which must seed
/// identically.
fn fault_for(cfg: &CtrlConfig) -> Option<FaultModel> {
    let org = &cfg.spec.org;
    cfg.ras.clone().map(|ras| {
        FaultModel::new(
            ras,
            RasGeometry {
                ranks: org.ranks,
                banks: org.banks,
                row_bytes: org.row_buffer_bytes(),
                rank_bytes: org.capacity_bytes() / u64::from(org.ranks),
            },
        )
    })
}

impl DramCtrl {
    /// Creates an uninstrumented controller for the given configuration.
    ///
    /// # Errors
    /// Returns a [`ConfigError`] if the configuration is inconsistent (see
    /// [`CtrlConfig::validate`]).
    pub fn new(cfg: CtrlConfig) -> Result<Self, ConfigError> {
        Self::with_probe(cfg, NoProbe)
    }

    /// Returns the controller to its just-constructed state while keeping
    /// its allocations (event queue, queue arenas, group arena) — the
    /// per-worker reuse path for campaigns of short jobs, where rebuilding
    /// these structures would otherwise dominate sub-millisecond runs.
    ///
    /// Behaviour after `reset` is byte-identical to a fresh
    /// [`new`](Self::new) with the same configuration: every piece of
    /// mutable state is returned to its constructed value, the refresh
    /// events are re-scheduled, and the fault model (if any) is re-seeded
    /// from the configuration. The watchdog is disarmed — re-arm it with
    /// [`set_tick_budget`](Self::set_tick_budget) if needed. Only offered
    /// on uninstrumented controllers; a probe's recordings are not
    /// rewindable.
    pub fn reset(&mut self) {
        for r in &mut self.ranks {
            *r = Rank::new(self.cfg.spec.org.banks, self.cfg.spec.timing.t_refi);
        }
        self.events.reset();
        for (i, r) in self.ranks.iter().enumerate() {
            if r.refresh_due != Tick::MAX {
                self.events.schedule(r.refresh_due, Ev::Refresh(i as u32));
            }
        }
        self.read_q.reset();
        self.write_q.reset();
        self.groups.clear();
        self.bus_state = BusState::Read;
        self.last_burst_read = None;
        self.bus_busy_until = 0;
        self.writes_this_switch = 0;
        self.next_req_scheduled = false;
        self.draining = false;
        self.pd_drain = false;
        self.pd_check_scheduled = false;
        self.last_activity = 0;
        self.stats = CtrlStats::default();
        self.fault = fault_for(&self.cfg);
    }
}

impl<P: Probe> DramCtrl<P> {
    /// Creates a controller that schedules with the original linear queue
    /// scans instead of the incremental indices, carrying `probe`.
    ///
    /// Behaviourally identical to [`new`](DramCtrl::new) — the
    /// differential harness in [`diff`](crate::diff) asserts byte-identical
    /// responses and reports — but O(queue depth) per decision. Kept as
    /// the reference model for equivalence tests; test-only code.
    ///
    /// # Errors
    /// Returns a [`ConfigError`] if the configuration is inconsistent.
    #[cfg(test)]
    pub fn new_reference(cfg: CtrlConfig, probe: P) -> Result<Self, ConfigError> {
        let mut ctrl = Self::with_probe(cfg, probe)?;
        ctrl.use_reference = true;
        Ok(ctrl)
    }

    /// Creates a controller with an attached instrumentation probe (see
    /// the type-level docs for the zero-perturbation contract).
    ///
    /// # Errors
    /// Returns a [`ConfigError`] if the configuration is inconsistent (see
    /// [`CtrlConfig::validate`]).
    pub fn with_probe(cfg: CtrlConfig, probe: P) -> Result<Self, ConfigError> {
        cfg.validate()?;
        let ranks = (0..cfg.spec.org.ranks)
            .map(|_| Rank::new(cfg.spec.org.banks, cfg.spec.timing.t_refi))
            .collect::<Vec<_>>();
        // Pending events are bounded by one ack per queued request, one
        // refresh per rank and a few singletons (NextReq, the power-down
        // checks), but an ack is pending for one access latency only: a
        // handful are at any time, mostly in the queue's runs, so nothing
        // is reserved and the first few hundred events size it.
        let mut events = EventQueue::new();
        for (i, r) in ranks.iter().enumerate() {
            if r.refresh_due != Tick::MAX {
                events.schedule(r.refresh_due, Ev::Refresh(i as u32));
            }
        }
        let org = &cfg.spec.org;
        let read_q = SchedQueue::new(org.ranks, org.banks, cfg.read_buffer_size);
        let write_q = SchedQueue::new(org.ranks, org.banks, cfg.write_buffer_size);
        let groups = GroupArena::with_capacity(cfg.read_buffer_size);
        let fault = fault_for(&cfg);
        Ok(Self {
            decoder: Decoder::new(cfg.mapping, org, cfg.channels),
            write_high: cfg.write_high_entries(),
            write_low: cfg.write_low_entries(),
            cfg,
            probe,
            events,
            read_q,
            write_q,
            groups,
            #[cfg(test)]
            use_reference: false,
            ranks,
            bus_state: BusState::Read,
            last_burst_read: None,
            bus_busy_until: 0,
            writes_this_switch: 0,
            next_req_scheduled: false,
            draining: false,
            pd_drain: false,
            pd_check_scheduled: false,
            last_activity: 0,
            stats: CtrlStats::default(),
            fault,
        })
    }

    /// The controller's configuration.
    pub fn config(&self) -> &CtrlConfig {
        &self.cfg
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

    /// Accumulated statistics.
    pub fn stats(&self) -> &CtrlStats {
        &self.stats
    }

    /// The fault model, when the configuration enables RAS.
    pub fn fault_model(&self) -> Option<&FaultModel> {
        self.fault.as_ref()
    }

    /// Arms (or disarms) the kernel watchdog's tick budget: once simulated
    /// time passes `budget`, [`check_stall`](Self::check_stall) reports a
    /// [`SimStall`].
    pub fn set_tick_budget(&mut self, budget: Option<Tick>) {
        self.events.set_tick_budget(budget);
    }

    /// Runs the kernel no-progress watchdog: queued bursts with no pending
    /// event, or an exceeded tick budget, yield a [`SimStall`] carrying a
    /// controller state summary. Cheap enough to call every drain
    /// iteration.
    ///
    /// # Errors
    /// Returns the diagnosed [`SimStall`] so drivers can fail loudly
    /// instead of hanging.
    pub fn check_stall(&self) -> Result<(), SimStall> {
        let outstanding = self.read_q.len() + self.write_q.len();
        self.events.check_progress(outstanding, || {
            format!(
                "read_q={} write_q={} bus_state={:?} bus_busy_until={} draining={} \
                 last_activity={}",
                self.read_q.len(),
                self.write_q.len(),
                self.bus_state,
                self.bus_busy_until,
                self.draining,
                self.last_activity,
            )
        })
    }

    /// Whether a request of `cmd`/`addr`/`size` would currently be
    /// accepted.
    pub fn can_accept(&self, cmd: MemCmd, addr: u64, size: u32) -> bool {
        self.admission_check(cmd, addr, size).is_ok()
    }

    /// Flow-control decision for a request: `Ok` if the target queue can
    /// hold every burst the request chops into. Shared by
    /// [`can_accept`](Self::can_accept) and [`try_send`](Self::try_send)
    /// so the two can never disagree.
    fn admission_check(&self, cmd: MemCmd, addr: u64, size: u32) -> Result<(), SendError> {
        let n = burst_count(addr, size, self.cfg.spec.org.burst_bytes());
        let (len, capacity, full) = match cmd {
            MemCmd::Read => (
                self.read_q.len(),
                self.cfg.read_buffer_size,
                SendError::ReadQueueFull,
            ),
            MemCmd::Write => (
                self.write_q.len(),
                self.cfg.write_buffer_size,
                SendError::WriteQueueFull,
            ),
        };
        if n > capacity {
            Err(SendError::TooLarge {
                bursts: n,
                capacity,
            })
        } else if len + n > capacity {
            Err(full)
        } else {
            Ok(())
        }
    }

    /// Whether all queues (and in-flight state) are empty.
    pub fn is_idle(&self) -> bool {
        self.read_q.is_empty() && self.write_q.is_empty()
    }

    /// Current read-queue depth in bursts.
    pub fn read_queue_len(&self) -> usize {
        self.read_q.len()
    }

    /// Current write-queue depth in bursts.
    pub fn write_queue_len(&self) -> usize {
        self.write_q.len()
    }

    /// The row currently open in the given bank, for tests and debugging.
    ///
    /// # Panics
    /// Panics if `rank` or `bank` is out of range.
    #[doc(hidden)]
    pub fn open_row(&self, rank: u32, bank: u32) -> Option<u64> {
        self.ranks[rank as usize].banks[bank as usize].open_row
    }

    /// Offers a request to the controller at time `now`.
    ///
    /// Reads snoop the write queue and may be serviced without touching
    /// DRAM; writes receive an early acknowledgement and sub-burst writes
    /// merge into covering queue entries (paper Section II-A). Responses
    /// (including write acks) are delivered through
    /// [`advance_to`](Self::advance_to).
    ///
    /// # Errors
    /// [`SendError::ReadQueueFull`]/[`SendError::WriteQueueFull`] when the
    /// queue lacks space (retry later), [`SendError::TooLarge`] when the
    /// request can never fit.
    ///
    /// # Panics
    /// Panics if `size` is zero or `now` precedes an already-processed
    /// event.
    pub fn try_send(&mut self, req: MemRequest, now: Tick) -> Result<(), SendError> {
        assert!(req.size > 0, "zero-sized request");
        // Arrival side effects happen even for rejected requests: the
        // controller saw activity and must leave power-down to be able to
        // accept the retry.
        self.last_activity = self.last_activity.max(now);
        self.pd_drain = false;
        self.wake_ranks(now);
        self.admission_check(req.cmd, req.addr, req.size)?;
        if P::ENABLED {
            self.probe
                .req_accepted(req.id.0, req.cmd == MemCmd::Read, req.addr, req.size, now);
        }
        match req.cmd {
            MemCmd::Read => {
                self.stats.reads_accepted += 1;
                self.enqueue_read(req, now);
            }
            MemCmd::Write => {
                self.stats.writes_accepted += 1;
                self.enqueue_write(req, now);
            }
        }
        Ok(())
    }

    /// Whether a queued write fully covers `[lo, hi)` of the burst at
    /// `burst_addr` — the write-merging / read-forwarding test (paper
    /// Section II-A). Answered in O(1) from the coverage index; the
    /// reference model keeps the original O(queue depth) scan.
    fn write_queue_covers(&self, burst_addr: u64, lo: u32, hi: u32) -> bool {
        #[cfg(test)]
        if self.use_reference {
            return self
                .write_q
                .iter_packets()
                .any(|w| covers(w, burst_addr, lo, hi));
        }
        self.write_q.write_covers(burst_addr, lo, hi)
    }

    fn enqueue_read(&mut self, req: MemRequest, now: Tick) {
        let org = &self.cfg.spec.org;
        let burst_bytes = org.burst_bytes();
        let gidx = self.groups.insert(BurstGroup {
            req,
            remaining: 0,
            ready_at: 0,
        });
        let mut pending = 0u32;
        for (burst_addr, lo, hi) in chop(req.addr, req.size, burst_bytes) {
            if self.write_queue_covers(burst_addr, lo, hi) {
                self.stats.forwarded_reads += 1;
                continue;
            }
            let mut da = self.decoder.decode(burst_addr);
            if let Some(fm) = &self.fault {
                if fm.offline_mask() != 0 {
                    da.rank = dramctrl_mem::remap_rank(da.rank, fm.offline_mask(), org.ranks);
                }
            }
            self.read_q.push(DramPacket {
                is_read: true,
                burst_addr,
                lo,
                hi,
                da,
                entry_time: now,
                priority: self.cfg.priority_of(req.source),
                group: Some(gidx),
                seq: 0, // stamped by push
                retries: 0,
            });
            pending += 1;
        }
        self.stats.rdq_occ.update(self.read_q.len(), now);
        if P::ENABLED {
            self.probe
                .queue_depth(self.read_q.len(), self.write_q.len(), now);
        }
        if pending == 0 {
            // Entirely serviced from the write queue.
            self.groups.remove(gidx);
            let ready = now + self.cfg.frontend_latency;
            self.events.schedule(
                ready.max(self.events.now()),
                Ev::Ack(MemResponse::to(&req, ready)),
            );
            if P::ENABLED {
                self.probe.req_completed(req.id.0, true, ready);
            }
        } else {
            self.groups.get_mut(gidx).remaining = pending;
            self.schedule_next_req(now);
        }
    }

    fn enqueue_write(&mut self, req: MemRequest, now: Tick) {
        let org = &self.cfg.spec.org;
        let burst_bytes = org.burst_bytes();
        for (burst_addr, lo, hi) in chop(req.addr, req.size, burst_bytes) {
            if self.write_queue_covers(burst_addr, lo, hi) {
                self.stats.merged_writes += 1;
                continue;
            }
            let mut da = self.decoder.decode(burst_addr);
            if let Some(fm) = &self.fault {
                if fm.offline_mask() != 0 {
                    da.rank = dramctrl_mem::remap_rank(da.rank, fm.offline_mask(), org.ranks);
                }
            }
            self.write_q.push(DramPacket {
                is_read: false,
                burst_addr,
                lo,
                hi,
                da,
                entry_time: now,
                priority: self.cfg.priority_of(req.source),
                group: None,
                seq: 0, // stamped by push
                retries: 0,
            });
        }
        self.stats.wrq_occ.update(self.write_q.len(), now);
        if P::ENABLED {
            self.probe
                .queue_depth(self.read_q.len(), self.write_q.len(), now);
        }
        // Early write response (paper Section II-A).
        let ready = now + self.cfg.frontend_latency;
        self.events.schedule(
            ready.max(self.events.now()),
            Ev::Ack(MemResponse::to(&req, ready)),
        );
        if P::ENABLED {
            self.probe.req_completed(req.id.0, false, ready);
        }
        self.schedule_next_req(now);
    }

    /// Schedules the next scheduling decision, paced by the data bus: the
    /// decision fires no earlier than one bank-preparation time
    /// (tRP + tRCD + tCL) before the bus frees. This keeps the controller
    /// from racing arbitrarily far ahead of simulated time when masters
    /// inject faster than the DRAM can serve — decisions, refreshes and
    /// arrivals stay causally interleaved, while bank preparation still
    /// overlaps the in-flight data transfer.
    fn schedule_next_req(&mut self, at: Tick) {
        if !self.next_req_scheduled {
            let t = &self.cfg.spec.timing;
            let prep = t.t_rp + t.t_rcd + t.t_cl;
            let at = at
                .max(self.bus_busy_until.saturating_sub(prep))
                .max(self.events.now());
            self.events.schedule(at, Ev::NextReq);
            self.next_req_scheduled = true;
        }
    }

    /// The tick of the controller's next internal event, if any.
    pub fn next_event(&self) -> Option<Tick> {
        self.events.peek_tick()
    }

    /// Executes all internal events up to and including `limit`, appending
    /// any responses that become ready to `out`.
    pub fn advance_to(&mut self, limit: Tick, out: &mut Vec<MemResponse>) {
        while let Some((t, ev)) = self.events.pop_until(limit) {
            self.stats.events_processed += 1;
            match ev {
                Ev::NextReq => {
                    self.next_req_scheduled = false;
                    self.process_next_req(t);
                }
                Ev::Ack(resp) => out.push(resp),
                Ev::Refresh(rank) => self.process_refresh(rank as usize, t),
                Ev::PowerDownCheck => {
                    self.pd_check_scheduled = false;
                    self.process_pd_check(t);
                }
                Ev::SelfRefreshCheck => self.process_sr_check(t),
                Ev::Retry(pkt) => self.process_retry(*pkt, t),
            }
        }
    }

    /// Drains all queued requests (ignoring the write low watermark),
    /// returning the tick at which the controller went idle. Responses are
    /// appended to `out`.
    ///
    /// Refresh events recur forever, so draining stops once the queues are
    /// empty and only the per-rank refresh events remain pending.
    pub fn drain(&mut self, out: &mut Vec<MemResponse>) -> Tick {
        self.draining = true;
        self.schedule_next_req(self.events.now());
        // Each rank perpetually reschedules its own refresh, so the number
        // of pending refresh events is invariant after construction —
        // hoist it out of the drain loop.
        let refresh_events = self.refresh_event_count();
        loop {
            if self.is_idle() && self.events.len() == refresh_events {
                break;
            }
            let Some(t) = self.next_event() else { break };
            self.advance_to(t, out);
        }
        self.draining = false;
        self.events.now()
    }

    fn refresh_event_count(&self) -> usize {
        self.ranks
            .iter()
            .filter(|r| r.refresh_due != Tick::MAX)
            .count()
    }

    // ------------------------------------------------------------------
    // Event processing
    // ------------------------------------------------------------------

    fn process_next_req(&mut self, now: Tick) {
        // First level of scheduling: bus direction (paper Section II-C).
        match self.bus_state {
            BusState::Read => {
                if self.read_q.is_empty() {
                    let threshold = if self.draining || self.pd_drain {
                        1
                    } else {
                        self.write_low.max(1)
                    };
                    if self.write_q.len() >= threshold {
                        self.bus_state = BusState::Write;
                        self.writes_this_switch = 0;
                    } else {
                        // Idle: keep writes on chip; maybe power down.
                        self.maybe_schedule_pd_check(now);
                        return;
                    }
                } else if self.write_q.len() >= self.write_high {
                    // Forced switch at the high watermark.
                    self.bus_state = BusState::Write;
                    self.writes_this_switch = 0;
                }
            }
            BusState::Write => {
                if self.write_q.is_empty() {
                    self.bus_state = BusState::Read;
                    if self.read_q.is_empty() {
                        self.maybe_schedule_pd_check(now);
                        return;
                    }
                }
            }
        }

        // Second level: pick a request from the active queue. The chosen
        // slot is recycled by `take` in O(1) — no queue compaction.
        let is_read = self.bus_state == BusState::Read;
        let slot = self.choose_next(is_read, now);
        let pkt = if is_read {
            self.read_q.take(slot)
        } else {
            self.write_q.take(slot)
        };
        if is_read {
            self.stats.rdq_occ.update(self.read_q.len(), now);
        } else {
            self.stats.wrq_occ.update(self.write_q.len(), now);
        }
        if P::ENABLED {
            self.probe
                .queue_depth(self.read_q.len(), self.write_q.len(), now);
        }

        let (data_start, data_end) = self.do_access(&pkt, now);

        // RAS: classify the burst against the fault model; a link error
        // (write CRC / CA parity) re-enqueues the packet after a bounded
        // exponential backoff instead of completing it.
        if self.fault.is_some() && self.ras_check(&pkt, data_end) {
            let mut pkt = pkt;
            let attempt = pkt.retries;
            pkt.retries += 1;
            pkt.priority = u8::MAX; // retried bursts are served first
            let fm = self.fault.as_mut().expect("checked above");
            fm.note_retry();
            let delay = fm.retry_delay(u32::from(attempt));
            if P::ENABLED {
                self.probe.ras_event(
                    pkt.da.rank,
                    pkt.da.bank,
                    pkt.da.row,
                    RasMark::Retry,
                    data_end,
                );
            }
            // The bus was consumed even though the data is discarded, so
            // the write-switch accounting below must still run for writes;
            // read completion is what the retry defers.
            if !pkt.is_read {
                self.writes_this_switch += 1;
                let switch_back = self.write_q.is_empty()
                    || (!self.read_q.is_empty()
                        && self.writes_this_switch >= self.cfg.min_writes_per_switch)
                    || (self.read_q.is_empty()
                        && !self.draining
                        && !self.pd_drain
                        && self.write_q.len() < self.write_low);
                if switch_back {
                    self.bus_state = BusState::Read;
                }
            }
            self.events.schedule(
                (data_end + delay).max(self.events.now()),
                Ev::Retry(Box::new(pkt)),
            );
            if !self.read_q.is_empty() || !self.write_q.is_empty() {
                self.schedule_next_req(now);
            }
            return;
        }

        if pkt.is_read {
            let ready = data_end + self.cfg.frontend_latency + self.cfg.backend_latency;
            self.stats.queue_lat.record((now - pkt.entry_time) as f64);
            self.stats.bank_lat.record((data_start - now) as f64);
            self.stats.total_lat.record((ready - pkt.entry_time) as f64);
            let gidx = pkt.group.expect("read packets carry a group");
            let group = self.groups.get_mut(gidx);
            group.remaining -= 1;
            group.ready_at = group.ready_at.max(ready);
            if group.remaining == 0 {
                let group = self.groups.remove(gidx);
                self.events.schedule(
                    group.ready_at,
                    Ev::Ack(MemResponse::to(&group.req, group.ready_at)),
                );
                if P::ENABLED {
                    self.probe
                        .req_completed(group.req.id.0, true, group.ready_at);
                }
            }
        } else {
            self.writes_this_switch += 1;
            // Switch back to reads? (paper: minimum writes per switch,
            // unless the queue empties or, absent reads, the low watermark
            // is reached.)
            let switch_back = self.write_q.is_empty()
                || (!self.read_q.is_empty()
                    && self.writes_this_switch >= self.cfg.min_writes_per_switch)
                || (self.read_q.is_empty()
                    && !self.draining
                    && !self.pd_drain
                    && self.write_q.len() < self.write_low);
            if switch_back {
                self.bus_state = BusState::Read;
            }
        }

        // Schedule the next scheduling decision (paced by the bus inside
        // `schedule_next_req`).
        if !self.read_q.is_empty() || !self.write_q.is_empty() {
            self.schedule_next_req(now);
        } else {
            self.maybe_schedule_pd_check(now);
        }
    }

    // ------------------------------------------------------------------
    // RAS (fault injection, ECC, retry and degradation; `dramctrl-ras`)
    // ------------------------------------------------------------------

    /// Runs the fault model on a just-transferred burst. Counts and marks
    /// every outcome; returns `true` when the burst hit a link error with
    /// retry budget left, telling the caller to re-enqueue it.
    fn ras_check(&mut self, pkt: &DramPacket, data_end: Tick) -> bool {
        let fm = self.fault.as_mut().expect("caller checked fault.is_some()");
        let rep = fm.check(pkt.da.rank, pkt.da.bank, pkt.da.row, pkt.is_read, data_end);
        let max_retries = fm.max_retries();
        let mut retry = false;
        let mark = match rep.outcome {
            BurstOutcome::Clean => None,
            BurstOutcome::Corrected => Some(RasMark::Corrected),
            BurstOutcome::Uncorrected => Some(RasMark::Uncorrected),
            BurstOutcome::Silent => Some(RasMark::Silent),
            BurstOutcome::LinkError => {
                if u32::from(pkt.retries) < max_retries {
                    retry = true;
                    None // the caller emits the Retry mark
                } else {
                    fm.note_retry_exhausted();
                    Some(RasMark::Uncorrected)
                }
            }
        };
        if P::ENABLED {
            if let Some(mark) = mark {
                self.probe
                    .ras_event(pkt.da.rank, pkt.da.bank, pkt.da.row, mark, data_end);
            }
            if rep.remapped {
                self.probe.ras_event(
                    pkt.da.rank,
                    pkt.da.bank,
                    pkt.da.row,
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

    /// Returns a retried packet to its queue at elevated priority once the
    /// backoff delay has elapsed.
    fn process_retry(&mut self, pkt: DramPacket, now: Tick) {
        self.last_activity = self.last_activity.max(now);
        self.pd_drain = false;
        self.wake_ranks(now);
        if pkt.is_read {
            self.read_q.push(pkt);
            self.stats.rdq_occ.update(self.read_q.len(), now);
        } else {
            self.write_q.push(pkt);
            self.stats.wrq_occ.update(self.write_q.len(), now);
        }
        if P::ENABLED {
            self.probe
                .queue_depth(self.read_q.len(), self.write_q.len(), now);
        }
        self.schedule_next_req(now);
    }

    // ------------------------------------------------------------------
    // Power-down (extension beyond the paper; see CtrlConfig::powerdown_idle)
    // ------------------------------------------------------------------

    /// Arms a power-down check for one idle period from now (or from the
    /// end of the in-flight data transfer, whichever is later).
    fn maybe_schedule_pd_check(&mut self, now: Tick) {
        // Armed when no reads are pending; parked writes are drained by the
        // check itself before entering power-down.
        if self.cfg.powerdown_idle == 0
            || self.pd_check_scheduled
            || self.ranks.iter().all(|r| r.powered_down)
            || !self.read_q.is_empty()
        {
            return;
        }
        let at = now.max(self.bus_busy_until).max(self.last_activity) + self.cfg.powerdown_idle;
        self.events
            .schedule(at.max(self.events.now()), Ev::PowerDownCheck);
        self.pd_check_scheduled = true;
    }

    /// Enters precharge power-down on every rank if the controller has
    /// stayed idle for the configured period.
    fn process_pd_check(&mut self, now: Tick) {
        if self.cfg.powerdown_idle == 0 || !self.read_q.is_empty() {
            return;
        }
        let idle_since = self.last_activity.max(self.bus_busy_until);
        if now < idle_since + self.cfg.powerdown_idle {
            // Activity happened since the check was armed; re-arm.
            self.maybe_schedule_pd_check(now);
            return;
        }
        if !self.write_q.is_empty() {
            // Flush parked writes first; once the queue empties the idle
            // path re-arms this check and power-down follows.
            self.pd_drain = true;
            self.schedule_next_req(now);
            return;
        }
        self.pd_drain = false;
        let t = self.cfg.spec.timing;
        for ri in 0..self.ranks.len() {
            if self.ranks[ri].powered_down {
                continue;
            }
            // All banks must be precharged before entering power-down.
            let mut entry = now;
            let banks = self.ranks[ri].banks.len();
            for bi in 0..banks {
                let bank = &mut self.ranks[ri].banks[bi];
                if bank.open_row.is_some() {
                    let pre_at = bank.pre_allowed_at.max(now);
                    bank.open_row = None;
                    bank.act_allowed_at = bank.act_allowed_at.max(pre_at + t.t_rp);
                    entry = entry.max(pre_at + t.t_rp);
                    self.ranks[ri].timeline.close_at(pre_at);
                    self.stats.precharges += 1;
                    if P::ENABLED {
                        self.probe
                            .dram_cmd(CmdEvent::pre(ri as u32, bi as u32, pre_at, t.t_rp));
                    }
                    let fb = self.read_q.flat_bank(ri as u32, bi as u32);
                    self.read_q.set_open_row(fb, None);
                    self.write_q.set_open_row(fb, None);
                }
            }
            let rank = &mut self.ranks[ri];
            rank.powered_down = true;
            rank.self_refreshing = false;
            rank.pd_since = entry;
            self.stats.powerdowns += 1;
            if P::ENABLED {
                self.probe
                    .power_state(ri as u32, PowerState::PoweredDown, entry);
            }
        }
        if self.cfg.selfrefresh_after > 0 {
            let latest_entry = self
                .ranks
                .iter()
                .filter(|r| r.powered_down)
                .map(|r| r.pd_since)
                .max()
                .unwrap_or(now);
            self.events.schedule(
                (latest_entry + self.cfg.selfrefresh_after).max(self.events.now()),
                Ev::SelfRefreshCheck,
            );
        }
    }

    /// Descends still-powered-down ranks into self-refresh once they have
    /// been powered down for `selfrefresh_after`.
    fn process_sr_check(&mut self, now: Tick) {
        for (i, rank) in self.ranks.iter_mut().enumerate() {
            if rank.powered_down
                && !rank.self_refreshing
                && now >= rank.pd_since + self.cfg.selfrefresh_after
            {
                // Close the power-down chapter, open the self-refresh one.
                rank.pd_time += now - rank.pd_since;
                rank.self_refreshing = true;
                rank.pd_since = now;
                self.stats.self_refreshes += 1;
                if P::ENABLED {
                    self.probe
                        .power_state(i as u32, PowerState::SelfRefresh, now);
                }
            }
        }
    }

    /// Exits power-down on all ranks (new work arrived); the first command
    /// to each rank pays the `t_xp` exit latency.
    fn wake_ranks(&mut self, now: Tick) {
        let t = self.cfg.spec.timing;
        for (i, rank) in self.ranks.iter_mut().enumerate() {
            if !rank.powered_down {
                continue;
            }
            if P::ENABLED {
                self.probe.power_state(i as u32, PowerState::Active, now);
            }
            let exit = if rank.self_refreshing {
                rank.sr_time += now.saturating_sub(rank.pd_since);
                t.t_xs
            } else {
                rank.pd_time += now.saturating_sub(rank.pd_since);
                t.t_xp
            };
            rank.powered_down = false;
            rank.self_refreshing = false;
            rank.next_act_at = rank.next_act_at.max(now + exit);
            for bank in &mut rank.banks {
                bank.act_allowed_at = bank.act_allowed_at.max(now + exit);
            }
        }
    }

    /// FR-FCFS / FCFS selection (paper Section II-C): slot of the packet
    /// in the active queue to serve next.
    ///
    /// Answered from the queue indices instead of scanning packets:
    ///
    /// * the QoS top class and the FCFS pick come from the per-class
    ///   intrusive lists (O(1));
    /// * the FR-FCFS first pass reads the oldest top-class head over the
    ///   queue's hit banks — the banks whose open row has packets queued,
    ///   a mask and a bucket handle per bank kept on enqueue/dequeue and
    ///   on every activate/precharge the controller announces via
    ///   `set_open_row` — which is exactly the first hit a FIFO scan
    ///   would find;
    /// * with no eligible hit every top-class packet misses, so the
    ///   reference's column-time estimate depends only on a packet's
    ///   bank: pass two evaluates one candidate per *non-empty* bank
    ///   (bitmask-guided) and minimises the packed key (estimate, age) —
    ///   reproducing the scan's first-wins minimum — without a branch on
    ///   which candidate wins.
    ///
    /// Selection cost is O(hit banks + occupied banks), independent of
    /// queue depth.
    fn choose_next(&self, is_read: bool, now: Tick) -> u32 {
        #[cfg(test)]
        if self.use_reference {
            return self.choose_next_reference(is_read, now);
        }
        let queue = if is_read { &self.read_q } else { &self.write_q };
        debug_assert!(!queue.is_empty());
        // QoS first level: only the highest priority class present in the
        // queue competes for the slot (paper Section II-C).
        let top = queue.top_priority().expect("non-empty");
        match self.cfg.scheduling {
            SchedPolicy::Fcfs => queue.first_in_order().expect("non-empty"),
            SchedPolicy::FrFcfs => {
                // First ready: the oldest row hit in the class, over the
                // queue's hit banks only.
                if let Some((_, slot)) = queue.best_row_hit(top) {
                    return slot;
                }
                // No row hits: the packet whose bank can deliver data
                // soonest (first available bank), FCFS on ties. Only banks
                // with queued packets are probed, in ascending flat-bank
                // order (the order the full scan visited them). Every
                // candidate needs an activate, after a precharge if its
                // bank holds another row, so the reference's estimate is
                // max(bank ready, rank activate floor) + tRCD: the floor
                // (tRRD, tXAW window) is worked out once per rank, the
                // bank term from the flat bank id alone, and the common
                // tRCD left out of the comparison.
                let t = &self.cfg.spec.timing;
                let banks_per_rank = self.cfg.spec.org.banks;
                // Banks come in ascending flat order, so the rank of the
                // current bank is found by stepping, not dividing.
                let act_floor = |rank: &Rank| {
                    rank.act_constrained(rank.next_act_at, t.t_xaw, t.activation_limit)
                };
                let mut ranks = self.ranks.iter();
                let mut rank = ranks.next().expect("a device has a rank");
                let mut rank_end = banks_per_rank;
                let mut floor = act_floor(rank);
                // Each candidate as one key, its estimate above its
                // sequence number: the scan's "earlier, else older" is a
                // plain `<`, and the running minimum a compare and two
                // conditional moves. Selecting the winner's slot as well
                // would be a third, and three make the compiler branch on
                // random timing data; the winner's sequence number names
                // it, so a second walk over the bank heads finds its slot.
                let mut best_key = u128::MAX;
                queue.for_each_nonempty_bank(|b| {
                    let Some((seq, _)) = queue.bank_candidate(b, top) else {
                        return;
                    };
                    while b >= rank_end {
                        rank = ranks.next().expect("bank id within the device");
                        rank_end += banks_per_rank;
                        floor = act_floor(rank);
                    }
                    let bank = &rank.banks[(b + banks_per_rank - rank_end) as usize];
                    // Both estimates computed and one selected: written as
                    // a branch, the compiler keeps the branch, on a bit
                    // that adaptive page policies leave unpredictable.
                    let after_pre = bank.pre_allowed_at.max(now) + t.t_rp;
                    let closed = bank.act_allowed_at.max(now);
                    let ready = if bank.open_row.is_some() {
                        after_pre
                    } else {
                        closed
                    };
                    let key = (u128::from(ready.max(floor)) << 64) | u128::from(seq);
                    best_key = best_key.min(key);
                });
                let best_seq = best_key as u64;
                queue
                    .find_bank_candidate(top, |seq| seq == best_seq)
                    .expect("some candidate in a non-empty queue")
            }
        }
    }

    /// The original linear-scan scheduler, preserved verbatim over a FIFO
    /// view of the queue. The differential harness ([`diff`](crate::diff))
    /// asserts it agrees with [`choose_next`](Self::choose_next) down to
    /// byte-identical simulation outputs.
    #[cfg(test)]
    fn choose_next_reference(&self, is_read: bool, now: Tick) -> u32 {
        let queue = if is_read { &self.read_q } else { &self.write_q };
        let fifo = queue.fifo_packets();
        debug_assert!(!fifo.is_empty());
        let top = fifo
            .iter()
            .map(|(_, p)| p.priority)
            .max()
            .expect("non-empty");
        let eligible = |p: &DramPacket| p.priority == top;
        match self.cfg.scheduling {
            SchedPolicy::Fcfs => {
                fifo.iter()
                    .find(|&&(_, p)| eligible(p))
                    .expect("some packet has the top priority")
                    .0
            }
            SchedPolicy::FrFcfs => {
                // First ready: prefer the oldest row hit in the class.
                for &(slot, pkt) in &fifo {
                    if !eligible(pkt) {
                        continue;
                    }
                    let bank = &self.ranks[pkt.da.rank as usize].banks[pkt.da.bank as usize];
                    if bank.open_row == Some(pkt.da.row) {
                        return slot;
                    }
                }
                // No row hits: the packet whose bank can deliver data
                // soonest (first available bank), FCFS on ties.
                let mut best = 0;
                let mut best_at = Tick::MAX;
                for &(slot, pkt) in &fifo {
                    if !eligible(pkt) {
                        continue;
                    }
                    let at = self.estimate_col_at(pkt, now);
                    if at < best_at {
                        best_at = at;
                        best = slot;
                    }
                }
                best
            }
        }
    }

    /// Earliest tick the column command for `pkt` could issue, used by the
    /// reference FR-FCFS "first available bank" rule
    /// ([`choose_next`](Self::choose_next) evaluates its two miss cases
    /// per bank instead of per packet).
    #[cfg(test)]
    fn estimate_col_at(&self, pkt: &DramPacket, now: Tick) -> Tick {
        let t = &self.cfg.spec.timing;
        let rank = &self.ranks[pkt.da.rank as usize];
        let bank = &rank.banks[pkt.da.bank as usize];
        match bank.open_row {
            Some(row) if row == pkt.da.row => bank.col_allowed_at.max(now),
            Some(_) => {
                // Precharge, activate, then the column command.
                let pre_at = bank.pre_allowed_at.max(now);
                let act_at = rank.act_constrained(
                    (pre_at + t.t_rp).max(rank.next_act_at),
                    t.t_xaw,
                    t.activation_limit,
                );
                act_at + t.t_rcd
            }
            None => {
                let act_at = rank.act_constrained(
                    bank.act_allowed_at.max(rank.next_act_at).max(now),
                    t.t_xaw,
                    t.activation_limit,
                );
                act_at + t.t_rcd
            }
        }
    }

    /// Whether any queued packet (either queue) targets `pkt`'s bank with
    /// (`same_row == true`) or without (`same_row == false`) matching its
    /// row — the question the adaptive page policies ask after every
    /// access. Answered in O(1) from the per-bank and per-row occupancy
    /// counters: a matching-row packet exists iff the row count is
    /// non-zero, and an other-row packet exists iff the bank count exceeds
    /// the row count.
    fn queued_to_row(&self, pkt: &DramPacket, same_row: bool) -> bool {
        #[cfg(test)]
        if self.use_reference {
            return self.queued_to_row_reference(pkt, same_row);
        }
        let b = self.read_q.flat_bank(pkt.da.rank, pkt.da.bank);
        let row = self.read_q.row_len(b, pkt.da.row) + self.write_q.row_len(b, pkt.da.row);
        if same_row {
            row > 0
        } else {
            self.read_q.bank_len(b) + self.write_q.bank_len(b) > row
        }
    }

    /// The original both-queue scan for [`queued_to_row`](Self::queued_to_row)
    /// (an existence test, so iteration order is irrelevant).
    #[cfg(test)]
    fn queued_to_row_reference(&self, pkt: &DramPacket, same_row: bool) -> bool {
        self.read_q
            .iter_packets()
            .chain(self.write_q.iter_packets())
            .filter(|p| p.da.rank == pkt.da.rank && p.da.bank == pkt.da.bank)
            .any(|p| (p.da.row == pkt.da.row) == same_row)
    }

    /// Performs the DRAM access for `pkt`: updates bank, rank and bus
    /// timing state and returns the data transfer window.
    fn do_access(&mut self, pkt: &DramPacket, now: Tick) -> (Tick, Tick) {
        let t = self.cfg.spec.timing;
        let (ri, bi) = (pkt.da.rank as usize, pkt.da.bank as usize);

        // Row management: precharge on conflict, activate on miss.
        let open_row = self.ranks[ri].banks[bi].open_row;
        let row_hit = open_row == Some(pkt.da.row);
        if open_row != Some(pkt.da.row) {
            if open_row.is_some() {
                let bank = &mut self.ranks[ri].banks[bi];
                let pre_at = bank.pre_allowed_at.max(now);
                bank.act_allowed_at = bank.act_allowed_at.max(pre_at + t.t_rp);
                bank.open_row = None;
                self.ranks[ri].timeline.close_at(pre_at);
                self.stats.precharges += 1;
                if P::ENABLED {
                    self.probe
                        .dram_cmd(CmdEvent::pre(pkt.da.rank, pkt.da.bank, pre_at, t.t_rp));
                }
            }
            let rank = &self.ranks[ri];
            let earliest = rank.banks[bi].act_allowed_at.max(rank.next_act_at).max(now);
            let act_at = rank.act_constrained(earliest, t.t_xaw, t.activation_limit);
            let rank = &mut self.ranks[ri];
            rank.record_act(act_at, t.t_rrd, t.activation_limit);
            rank.timeline.open_at(act_at);
            let bank = &mut rank.banks[bi];
            bank.open_row = Some(pkt.da.row);
            bank.row_accesses = 0;
            bank.col_allowed_at = bank.col_allowed_at.max(act_at + t.t_rcd);
            bank.pre_allowed_at = bank.pre_allowed_at.max(act_at + t.t_ras);
            self.stats.activates += 1;
            if P::ENABLED {
                self.probe.dram_cmd(CmdEvent::act(
                    pkt.da.rank,
                    pkt.da.bank,
                    pkt.da.row,
                    act_at,
                    t.t_rcd,
                ));
            }
            // One transition covers the conflict precharge + activate:
            // the queues' hit indices track the row now open.
            let fb = self.read_q.flat_bank(pkt.da.rank, pkt.da.bank);
            self.read_q.set_open_row(fb, Some(pkt.da.row));
            self.write_q.set_open_row(fb, Some(pkt.da.row));
        } else if pkt.is_read {
            self.stats.rd_row_hits += 1;
        } else {
            self.stats.wr_row_hits += 1;
        }

        // Column command and data bus (including read/write turnaround).
        let cmd_at = self.ranks[ri].banks[bi].col_allowed_at.max(now);
        let mut data_start = (cmd_at + t.t_cl).max(self.bus_busy_until);
        if let Some(last_read) = self.last_burst_read {
            if last_read != pkt.is_read {
                let gap = if pkt.is_read {
                    t.t_wtr + t.t_cl // end of write data to read data
                } else {
                    t.t_rtw // read-to-write bus bubble
                };
                data_start = data_start.max(self.bus_busy_until + gap);
                self.stats.bus_turnarounds += 1;
            }
        }
        let cmd_at = data_start - t.t_cl;
        let data_end = data_start + t.t_burst;
        self.bus_busy_until = data_end;
        self.last_burst_read = Some(pkt.is_read);
        self.stats.bus_busy += t.t_burst;
        if P::ENABLED {
            let cmd = if pkt.is_read {
                DramCmd::Rd
            } else {
                DramCmd::Wr
            };
            self.probe.dram_cmd(CmdEvent {
                req: pkt.group.map(|g| self.groups.get(g).req.id.0),
                ..CmdEvent::data(
                    cmd,
                    pkt.da.rank,
                    pkt.da.bank,
                    pkt.da.row,
                    data_start,
                    t.t_burst,
                    pkt.hi - pkt.lo,
                    row_hit,
                )
            });
        }

        // Post-access bank bookkeeping.
        let row_accesses = {
            let bank = &mut self.ranks[ri].banks[bi];
            bank.col_allowed_at = bank.col_allowed_at.max(cmd_at + t.t_burst);
            if pkt.is_read {
                bank.pre_allowed_at = bank.pre_allowed_at.max(cmd_at + t.t_rtp);
            } else {
                bank.pre_allowed_at = bank.pre_allowed_at.max(data_end + t.t_wr);
            }
            bank.row_accesses += 1;
            bank.row_accesses
        };
        if pkt.is_read {
            self.stats.rd_bursts += 1;
            self.stats.bytes_read += u64::from(pkt.hi - pkt.lo);
        } else {
            self.stats.wr_bursts += 1;
            self.stats.bytes_written += u64::from(pkt.hi - pkt.lo);
        }

        // Page policy (paper Section II-C).
        let force_close =
            self.cfg.max_accesses_per_row > 0 && row_accesses >= self.cfg.max_accesses_per_row;
        let close = force_close
            || match self.cfg.page_policy {
                PagePolicy::Closed => true,
                PagePolicy::ClosedAdaptive => !self.queued_to_row(pkt, true),
                PagePolicy::Open => false,
                PagePolicy::OpenAdaptive => {
                    self.queued_to_row(pkt, false) && !self.queued_to_row(pkt, true)
                }
            };
        if close {
            let bank = &mut self.ranks[ri].banks[bi];
            let pre_at = bank.pre_allowed_at;
            bank.open_row = None;
            bank.act_allowed_at = bank.act_allowed_at.max(pre_at + t.t_rp);
            self.ranks[ri].timeline.close_at(pre_at);
            self.stats.precharges += 1;
            if P::ENABLED {
                self.probe
                    .dram_cmd(CmdEvent::pre(pkt.da.rank, pkt.da.bank, pre_at, t.t_rp));
            }
            let fb = self.read_q.flat_bank(pkt.da.rank, pkt.da.bank);
            self.read_q.set_open_row(fb, None);
            self.write_q.set_open_row(fb, None);
        }

        // Fold bank open/close deltas that are now in the past.
        self.ranks[ri].timeline.sync(now);

        (data_start, data_end)
    }

    fn process_refresh(&mut self, rank_idx: usize, now: Tick) {
        let t = self.cfg.spec.timing;
        // A rank in self-refresh refreshes itself: the external refresh is
        // suppressed (rescheduled) and costs nothing.
        if self.ranks[rank_idx].self_refreshing {
            let rank = &mut self.ranks[rank_idx];
            rank.refresh_due += t.t_refi;
            let due = rank.refresh_due;
            self.events.schedule(due, Ev::Refresh(rank_idx as u32));
            return;
        }
        // A powered-down rank wakes up (paying t_xp) to refresh.
        let mut start = now;
        if self.ranks[rank_idx].powered_down {
            let rank = &mut self.ranks[rank_idx];
            rank.powered_down = false;
            rank.pd_time += now.saturating_sub(rank.pd_since);
            start = now + t.t_xp;
            if P::ENABLED {
                self.probe
                    .power_state(rank_idx as u32, PowerState::Active, now);
            }
        }
        // All banks must be precharged before REF may issue.
        let banks = self.ranks[rank_idx].banks.len();
        for bi in 0..banks {
            let bank = &mut self.ranks[rank_idx].banks[bi];
            if bank.open_row.is_some() {
                let pre_at = bank.pre_allowed_at.max(now);
                bank.open_row = None;
                start = start.max(pre_at + t.t_rp);
                self.ranks[rank_idx].timeline.close_at(pre_at);
                self.stats.precharges += 1;
                if P::ENABLED {
                    self.probe
                        .dram_cmd(CmdEvent::pre(rank_idx as u32, bi as u32, pre_at, t.t_rp));
                }
                let fb = self.read_q.flat_bank(rank_idx as u32, bi as u32);
                self.read_q.set_open_row(fb, None);
                self.write_q.set_open_row(fb, None);
            } else {
                start = start.max(bank.act_allowed_at);
            }
        }
        let done = start + t.t_rfc;
        let rank = &mut self.ranks[rank_idx];
        rank.refresh_done = done;
        rank.next_act_at = rank.next_act_at.max(done);
        for bank in &mut rank.banks {
            bank.act_allowed_at = bank.act_allowed_at.max(done);
        }
        self.stats.refreshes += 1;
        if P::ENABLED {
            self.probe
                .dram_cmd(CmdEvent::refresh(rank_idx as u32, start, t.t_rfc));
        }
        rank.refresh_due += t.t_refi;
        self.events
            .schedule(rank.refresh_due, Ev::Refresh(rank_idx as u32));
        // An idle controller may re-enter power-down after the refresh.
        self.maybe_schedule_pd_check(done);
    }

    // ------------------------------------------------------------------
    // Reporting
    // ------------------------------------------------------------------

    /// Activity summary for the power model, over `[0, now]`.
    pub fn activity(&mut self, now: Tick) -> ActivityStats {
        let mut time_all_closed = 0;
        let mut time_pd = 0;
        let mut time_sr = 0;
        for rank in &mut self.ranks {
            rank.timeline.sync(now);
            time_all_closed += rank.timeline.time_all_closed();
            let live = now.saturating_sub(rank.pd_since);
            time_pd += rank.pd_time
                + if rank.powered_down && !rank.self_refreshing {
                    live
                } else {
                    0
                };
            time_sr += rank.sr_time + if rank.self_refreshing { live } else { 0 };
        }
        ActivityStats {
            sim_time: now,
            activates: self.stats.activates,
            precharges: self.stats.precharges,
            rd_bursts: self.stats.rd_bursts,
            wr_bursts: self.stats.wr_bursts,
            refreshes: self.stats.refreshes,
            time_all_banks_precharged: time_all_closed,
            time_powered_down: time_pd,
            time_self_refresh: time_sr,
            ranks: self.cfg.spec.org.ranks,
        }
    }

    /// Full statistics report at time `now`. With RAS configured the
    /// report gains the `ras_*` error/retry/degradation counters and the
    /// usable capacity left after rank offlining; without RAS the report
    /// is byte-identical to a build that never heard of faults.
    pub fn report(&self, prefix: &str, now: Tick) -> dramctrl_stats::Report {
        let mut r = self.stats.report(prefix, now, &self.cfg);
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

impl<P: Probe> SnapState for DramCtrl<P> {
    // Everything configuration-derived (cfg, probe wiring, queue geometry,
    // the reference-model flag) is rebuilt by constructing the restore
    // target with the same `CtrlConfig`; only dynamic state is captured.
    // The caller guards against config drift with the snapshot fingerprint.
    fn save_state(&self, w: &mut SnapWriter) {
        self.events.save_state(w, |w, ev| ev.save(w));
        self.read_q.save_state(w);
        self.write_q.save_state(w);
        self.groups.save_state(w);
        w.usize(self.ranks.len());
        for rank in &self.ranks {
            rank.save_state(w);
        }
        w.u8(match self.bus_state {
            BusState::Read => 0,
            BusState::Write => 1,
        });
        w.u8(match self.last_burst_read {
            None => 0,
            Some(false) => 1,
            Some(true) => 2,
        });
        w.u64(self.bus_busy_until);
        w.usize(self.writes_this_switch);
        w.bool(self.next_req_scheduled);
        w.bool(self.draining);
        w.bool(self.pd_drain);
        w.bool(self.pd_check_scheduled);
        w.u64(self.last_activity);
        self.stats.save_state(w);
        match &self.fault {
            Some(fm) => {
                w.bool(true);
                fm.save_state(w);
            }
            None => w.bool(false),
        }
    }

    fn restore_state(&mut self, r: &mut SnapReader<'_>) -> Result<(), SnapError> {
        self.events.restore_state(r, Ev::read)?;
        self.read_q.restore_state(r)?;
        self.write_q.restore_state(r)?;
        self.groups.restore_state(r)?;
        let n_ranks = r.usize()?;
        if n_ranks != self.ranks.len() {
            return Err(SnapError::Corrupt(format!(
                "rank count {n_ranks} != device organisation {}",
                self.ranks.len()
            )));
        }
        for rank in &mut self.ranks {
            rank.restore_state(r)?;
        }
        // The queues restore with an all-closed open-row mirror; re-announce
        // the restored banks' open rows so the queues' hit banks are exact.
        for ri in 0..self.ranks.len() {
            for bi in 0..self.ranks[ri].banks.len() {
                let row = self.ranks[ri].banks[bi].open_row;
                let fb = self.read_q.flat_bank(ri as u32, bi as u32);
                self.read_q.set_open_row(fb, row);
                self.write_q.set_open_row(fb, row);
            }
        }
        self.bus_state = match r.u8()? {
            0 => BusState::Read,
            1 => BusState::Write,
            t => return Err(SnapError::Corrupt(format!("bus state tag {t}"))),
        };
        self.last_burst_read = match r.u8()? {
            0 => None,
            1 => Some(false),
            2 => Some(true),
            t => return Err(SnapError::Corrupt(format!("bus direction tag {t}"))),
        };
        self.bus_busy_until = r.u64()?;
        self.writes_this_switch = r.usize()?;
        self.next_req_scheduled = r.bool()?;
        self.draining = r.bool()?;
        self.pd_drain = r.bool()?;
        self.pd_check_scheduled = r.bool()?;
        self.last_activity = r.u64()?;
        self.stats.restore_state(r)?;
        let has_fault = r.bool()?;
        match (&mut self.fault, has_fault) {
            (Some(fm), true) => fm.restore_state(r)?,
            (None, false) => {}
            _ => {
                return Err(SnapError::Corrupt(
                    "RAS presence differs between snapshot and config".into(),
                ))
            }
        }
        Ok(())
    }
}

impl<P: Probe> dramctrl_mem::Controller for DramCtrl<P> {
    fn try_send(&mut self, req: MemRequest, now: Tick) -> Result<(), dramctrl_mem::Rejected> {
        DramCtrl::try_send(self, req, now).map_err(|e| match e {
            SendError::TooLarge { .. } => dramctrl_mem::Rejected::TooLarge,
            _ => dramctrl_mem::Rejected::Full,
        })
    }

    fn can_accept(&self, cmd: MemCmd, addr: u64, size: u32) -> bool {
        DramCtrl::can_accept(self, cmd, addr, size)
    }

    fn next_event(&self) -> Option<Tick> {
        DramCtrl::next_event(self)
    }

    fn advance_to(&mut self, limit: Tick, out: &mut Vec<MemResponse>) {
        DramCtrl::advance_to(self, limit, out);
    }

    fn drain(&mut self, out: &mut Vec<MemResponse>) -> Tick {
        DramCtrl::drain(self, out)
    }

    fn is_idle(&self) -> bool {
        DramCtrl::is_idle(self)
    }

    fn spec(&self) -> &dramctrl_mem::MemSpec {
        &self.cfg.spec
    }

    fn common_stats(&self) -> dramctrl_mem::CommonStats {
        let s = &self.stats;
        dramctrl_mem::CommonStats {
            reads_accepted: s.reads_accepted,
            writes_accepted: s.writes_accepted,
            rd_bursts: s.rd_bursts,
            wr_bursts: s.wr_bursts,
            bytes_read: s.bytes_read,
            bytes_written: s.bytes_written,
            row_hits: s.rd_row_hits + s.wr_row_hits,
            activates: s.activates,
            bus_busy: s.bus_busy,
            read_lat_sum: s.total_lat.sum(),
        }
    }

    fn activity(&mut self, now: Tick) -> ActivityStats {
        DramCtrl::activity(self, now)
    }

    fn report(&self, prefix: &str, now: Tick) -> dramctrl_stats::Report {
        DramCtrl::report(self, prefix, now)
    }
}
