//! The closed-loop multicore memory system (paper Section IV).
//!
//! Cores with a bounded window of outstanding misses run
//! [`WorkloadProfile`]s behind private L1 caches and a shared LLC; misses
//! go to any [`Controller`] (single channel, or a
//! [`MultiChannel`](crate::MultiChannel)). Miss latency throttles the
//! cores, MSHRs bound memory-level parallelism and the caches filter
//! locality — the feedback loops that traces cannot capture and that
//! motivate full-system evaluation in the paper (Section I).

use std::collections::VecDeque;

use dramctrl_kernel::hash::DetMap;
use dramctrl_kernel::{Clock, EventQueue, Tick};
use dramctrl_mem::{CommonStats, Controller, MemRequest, MemResponse, ReqId};
use dramctrl_stats::{Average, Report};

use crate::cache::{CacheArray, CacheGeometry};
use crate::workload::{AccessStream, MemRef, WorkloadProfile};

/// Core parameters (paper Table II flavour).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CoreParams {
    /// Core clock.
    pub clock: Clock,
    /// Peak sustained IPC when never missing.
    pub peak_ipc: f64,
    /// Maximum in-flight load misses before the core stalls (ROB/MSHR
    /// window).
    pub max_outstanding: usize,
}

impl Default for CoreParams {
    /// 2 GHz, peak IPC 2, 6 outstanding load misses — the flavour of the
    /// paper's Table II core.
    fn default() -> Self {
        Self {
            clock: Clock::from_frequency_mhz(2_000.0),
            peak_ipc: 2.0,
            max_outstanding: 6,
        }
    }
}

/// Configuration of the memory hierarchy around the controller.
#[derive(Debug, Clone, PartialEq)]
pub struct SystemConfig {
    /// Core parameters (shared by all cores).
    pub core: CoreParams,
    /// Private L1 data cache geometry.
    pub l1: CacheGeometry,
    /// L1 hit latency.
    pub l1_lat: Tick,
    /// Shared last-level cache geometry.
    pub llc: CacheGeometry,
    /// LLC hit latency.
    pub llc_lat: Tick,
    /// LLC miss-status holding registers (outstanding line fills).
    pub llc_mshrs: usize,
    /// Next-N-line prefetch degree at the LLC (0 disables prefetching).
    pub prefetch_degree: u32,
    /// Instructions each core executes before statistics collection
    /// begins (cache warm-up; 0 measures from the start). IPC, DRAM
    /// statistics and miss latencies in the report cover only the region
    /// of interest after every core passed warm-up.
    pub warmup_insts: u64,
    /// Instructions each core must retire (including warm-up).
    pub target_insts: u64,
}

impl SystemConfig {
    /// The paper's Table II configuration: 64 KB 2-way L1 (2 ns),
    /// 512 KB-per-core 8-way shared LLC (12 ns), 16 MSHRs.
    pub fn table2(cores: usize, target_insts: u64) -> Self {
        Self {
            core: CoreParams::default(),
            l1: CacheGeometry {
                size: 64 << 10,
                assoc: 2,
                line: 64,
            },
            l1_lat: 2_000,
            llc: CacheGeometry {
                size: (512 << 10) * cores as u64,
                assoc: 8,
                line: 64,
            },
            llc_lat: 12_000,
            llc_mshrs: 16,
            prefetch_degree: 0,
            warmup_insts: 0,
            target_insts,
        }
    }

    /// Validates the configuration.
    ///
    /// # Errors
    /// Returns a message naming the violated invariant.
    pub fn validate(&self) -> Result<(), String> {
        if self.l1.line != self.llc.line {
            return Err("L1 and LLC must share one line size".into());
        }
        if self.llc_mshrs == 0 {
            return Err("llc_mshrs must be positive".into());
        }
        if self.core.max_outstanding == 0 {
            return Err("max_outstanding must be positive".into());
        }
        if self.target_insts == 0 {
            return Err("target_insts must be positive".into());
        }
        if self.warmup_insts >= self.target_insts {
            return Err("warmup_insts must be below target_insts".into());
        }
        Ok(())
    }
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Blocked {
    No,
    /// Waiting for an LLC MSHR (or controller queue space); the current
    /// access has not been sent.
    Mshr,
    /// Too many outstanding load misses; the current access was sent,
    /// issue of the next is deferred.
    LoadLimit,
}

#[derive(Debug)]
struct CoreState {
    stream: AccessStream,
    cur: MemRef,
    insts_done: u64,
    outstanding_loads: usize,
    blocked: Blocked,
    /// Tick at which this core crossed the warm-up boundary.
    warm_at: Option<Tick>,
    finish: Option<Tick>,
}

#[derive(Debug)]
struct Fill {
    /// (core, is_load) pairs waiting for this line.
    waiters: Vec<(usize, bool)>,
    issued: Tick,
    dirty: bool,
    /// Issued by the prefetcher rather than a demand miss.
    prefetch: bool,
}

#[derive(Debug)]
enum SysEv {
    /// Core `i` performs its current memory access.
    Issue(usize),
}

/// Results of a [`System::run`].
#[derive(Debug, Clone)]
pub struct SystemReport {
    /// Tick at which the last core retired its final instruction.
    pub duration: Tick,
    /// Total instructions retired.
    pub insts: u64,
    /// Per-core IPC.
    pub per_core_ipc: Vec<f64>,
    /// Mean of the per-core IPCs.
    pub ipc: f64,
    /// L1 hit rate over all cores.
    pub l1_hit_rate: f64,
    /// Shared LLC hit rate.
    pub llc_hit_rate: f64,
    /// LLC miss (DRAM round-trip) latency, in ticks.
    pub llc_miss_lat: Average,
    /// Controller statistics snapshot (covering only the region of
    /// interest when warm-up is configured).
    pub dram: CommonStats,
    /// Length of the measured region of interest (equals `duration` when
    /// no warm-up was configured).
    pub roi_duration: Tick,
    /// LLC prefetches issued.
    pub prefetches: u64,
}

impl SystemReport {
    /// Formats the report under `prefix`.
    pub fn report(&self, prefix: &str) -> Report {
        let mut r = Report::new(prefix);
        r.scalar("ipc", self.ipc);
        r.counter("insts", self.insts);
        r.scalar(
            "duration_ms",
            dramctrl_kernel::tick::to_ns(self.duration) / 1e6,
        );
        r.scalar("l1_hit_rate", self.l1_hit_rate);
        r.scalar("llc_hit_rate", self.llc_hit_rate);
        r.scalar(
            "llc_miss_lat_ns",
            dramctrl_kernel::tick::to_ns(self.llc_miss_lat.mean() as Tick),
        );
        r
    }
}

/// A multicore system bound to a controller.
#[derive(Debug)]
pub struct System<C: Controller> {
    cfg: SystemConfig,
    ctrl: C,
    cores: Vec<CoreState>,
    l1: Vec<CacheArray>,
    llc: CacheArray,
    events: EventQueue<SysEv>,
    outstanding: DetMap<u64, Fill>,
    wb_queue: VecDeque<u64>,
    llc_miss_lat: Average,
    resp_buf: Vec<MemResponse>,
    next_req_id: u64,
    prefetches_issued: u64,
    /// DRAM statistics at the start of the region of interest.
    roi_dram_base: Option<(Tick, CommonStats)>,
}

impl<C: Controller> System<C> {
    /// Builds a system with one core per workload profile, each in its own
    /// address region sized to its footprint.
    ///
    /// # Errors
    /// Returns a message if the configuration is inconsistent.
    pub fn new(
        cfg: SystemConfig,
        ctrl: C,
        profiles: &[WorkloadProfile],
        seed: u64,
    ) -> Result<Self, String> {
        cfg.validate()?;
        if profiles.is_empty() {
            return Err("at least one core/profile required".into());
        }
        let line = cfg.l1.line;
        let mut base = 0u64;
        let mut cores = Vec::new();
        let mut events = EventQueue::new();
        for (i, &p) in profiles.iter().enumerate() {
            let mut stream = AccessStream::new(p, base, line, seed.wrapping_add(i as u64));
            base += p.footprint.next_power_of_two();
            let cur = stream.next_ref();
            cores.push(CoreState {
                stream,
                cur,
                insts_done: 0,
                outstanding_loads: 0,
                blocked: Blocked::No,
                warm_at: None,
                finish: None,
            });
            // Stagger the first issues so cores do not run in lockstep.
            events.schedule(i as Tick * 100, SysEv::Issue(i));
        }
        Ok(Self {
            l1: profiles.iter().map(|_| CacheArray::new(cfg.l1)).collect(),
            llc: CacheArray::new(cfg.llc),
            cfg,
            ctrl,
            cores,
            events,
            outstanding: DetMap::default(),
            wb_queue: VecDeque::new(),
            llc_miss_lat: Average::new(),
            resp_buf: Vec::new(),
            next_req_id: 0,
            prefetches_issued: 0,
            roi_dram_base: None,
        })
    }

    /// Access to the controller (e.g. for reports or power).
    pub fn controller(&self) -> &C {
        &self.ctrl
    }

    /// Mutable access to the controller.
    pub fn controller_mut(&mut self) -> &mut C {
        &mut self.ctrl
    }

    fn line_of(&self, addr: u64) -> u64 {
        self.llc.geometry().line_addr(addr)
    }

    fn sched(&mut self, at: Tick, ev: SysEv) {
        self.events.schedule(at.max(self.events.now()), ev);
    }

    /// Runs all cores to their instruction targets and returns the report.
    pub fn run(&mut self) -> SystemReport {
        loop {
            if self.cores.iter().all(|c| c.finish.is_some())
                && self.outstanding.is_empty()
                && self.wb_queue.is_empty()
            {
                break;
            }
            let te = self.events.peek_tick();
            let tc = self.ctrl.next_event();
            let next = match (te, tc) {
                (Some(a), Some(b)) => a.min(b),
                (a, b) => match a.or(b) {
                    Some(t) => t,
                    None => break,
                },
            };
            // Controller first: deliver any responses due at or before the
            // next step.
            let mut resp = std::mem::take(&mut self.resp_buf);
            self.ctrl.advance_to(next, &mut resp);
            for r in resp.drain(..) {
                self.handle_response(r);
            }
            self.resp_buf = resp;
            // Then the system events due at this tick.
            while let Some((t, ev)) = self.events.pop_until(next) {
                match ev {
                    SysEv::Issue(i) => self.handle_issue(i, t),
                }
            }
            self.drain_writebacks(next);
        }
        self.finish_report()
    }

    fn handle_issue(&mut self, i: usize, t: Tick) {
        if self.cores[i].finish.is_some() {
            return;
        }
        self.cores[i].blocked = Blocked::No;
        let access = self.cores[i].cur;
        let line = self.line_of(access.addr);

        // L1 lookup.
        if self.l1[i].access(access.addr, access.is_write) {
            let lat = if access.is_write { 0 } else { self.cfg.l1_lat };
            self.advance_core(i, t + lat);
            return;
        }
        // LLC lookup (hit latency charged on the return path).
        if self.llc.access(access.addr, false) {
            self.fill_l1(i, line, access.is_write);
            let lat = if access.is_write {
                0
            } else {
                self.cfg.l1_lat + self.cfg.llc_lat
            };
            self.advance_core(i, t + lat);
            return;
        }
        // LLC miss: need a DRAM line fill.
        if let Some(fill) = self.outstanding.get_mut(&line) {
            fill.waiters.push((i, !access.is_write));
            fill.dirty |= access.is_write;
            self.after_miss_sent(i, t, access.is_write);
            return;
        }
        if self.outstanding.len() >= self.cfg.llc_mshrs {
            self.cores[i].blocked = Blocked::Mshr;
            return; // woken by the next fill completion
        }
        let id = ReqId(self.next_req_id);
        self.next_req_id += 1;
        let req = MemRequest::read(id, line, self.cfg.llc.line).with_source(i as u16);
        match self.ctrl.try_send(req, t) {
            Ok(()) => {
                self.outstanding.insert(
                    line,
                    Fill {
                        waiters: vec![(i, !access.is_write)],
                        issued: t,
                        dirty: access.is_write,
                        prefetch: false,
                    },
                );
                self.issue_prefetches(line, t);
                self.after_miss_sent(i, t, access.is_write);
            }
            Err(_) => {
                // Controller backpressure behaves like MSHR exhaustion.
                self.cores[i].blocked = Blocked::Mshr;
            }
        }
    }

    /// Core bookkeeping after its miss is (or was already) in flight.
    fn after_miss_sent(&mut self, i: usize, t: Tick, is_write: bool) {
        if is_write {
            // Stores retire through the store buffer without blocking.
            self.advance_core(i, t);
            return;
        }
        let core = &mut self.cores[i];
        core.outstanding_loads += 1;
        if core.outstanding_loads <= self.cfg.core.max_outstanding {
            // Hit-under-miss: keep executing.
            self.advance_core(i, t);
        } else {
            core.blocked = Blocked::LoadLimit;
        }
    }

    /// Retires the current access at `t`, draws the next reference and
    /// schedules the next issue.
    fn advance_core(&mut self, i: usize, t: Tick) {
        let target = self.cfg.target_insts;
        let cycle = self.cfg.core.clock.period();
        let ipc = self.cfg.core.peak_ipc;
        let core = &mut self.cores[i];
        core.insts_done += 1;
        if self.cfg.warmup_insts > 0
            && core.warm_at.is_none()
            && core.insts_done >= self.cfg.warmup_insts
        {
            core.warm_at = Some(t);
            if self.cores.iter().all(|c| c.warm_at.is_some()) && self.roi_dram_base.is_none() {
                // All cores warmed up: the region of interest begins.
                self.roi_dram_base = Some((t, self.ctrl.common_stats()));
                self.llc_miss_lat.reset();
            }
            let core = &mut self.cores[i];
            let _ = core;
        }
        let core = &mut self.cores[i];
        if core.insts_done >= target {
            core.finish = Some(t);
            return;
        }
        let next = core.stream.next_ref();
        core.insts_done += u64::from(next.gap_insts);
        core.cur = next;
        let gap_time = (f64::from(next.gap_insts) / ipc * cycle as f64) as Tick;
        self.sched(t + gap_time, SysEv::Issue(i));
    }

    fn handle_response(&mut self, resp: MemResponse) {
        if resp.cmd.is_write() {
            return; // write-back acknowledgement
        }
        let line = resp.addr;
        let fill = self
            .outstanding
            .remove(&line)
            .expect("fill response for unknown line");
        if !fill.prefetch {
            self.llc_miss_lat
                .record((resp.ready_at - fill.issued) as f64);
        }
        if let Some(victim) = self.llc.fill(line, fill.dirty) {
            if victim.dirty {
                self.wb_queue.push_back(victim.addr);
            }
        }
        let return_lat = self.cfg.llc_lat + self.cfg.l1_lat;
        for (core_idx, is_load) in fill.waiters {
            self.fill_l1(core_idx, line, !is_load);
            let core = &mut self.cores[core_idx];
            if is_load {
                core.outstanding_loads = core.outstanding_loads.saturating_sub(1);
            }
            if core.blocked == Blocked::LoadLimit
                && core.outstanding_loads < self.cfg.core.max_outstanding
            {
                core.blocked = Blocked::No;
                self.advance_core(core_idx, resp.ready_at + return_lat);
            }
        }
        // A completed fill frees an MSHR: retry cores blocked on one.
        for i in 0..self.cores.len() {
            if self.cores[i].blocked == Blocked::Mshr {
                self.sched(resp.ready_at, SysEv::Issue(i));
            }
        }
    }

    /// Issues next-N-line prefetches into the LLC after a demand miss.
    fn issue_prefetches(&mut self, demand_line: u64, t: Tick) {
        let line_bytes = u64::from(self.cfg.llc.line);
        for d in 1..=u64::from(self.cfg.prefetch_degree) {
            let line = demand_line + d * line_bytes;
            if self.llc.contains(line)
                || self.outstanding.contains_key(&line)
                || self.outstanding.len() >= self.cfg.llc_mshrs
            {
                continue;
            }
            let id = ReqId(self.next_req_id);
            let req = MemRequest::read(id, line, self.cfg.llc.line);
            if self.ctrl.try_send(req, t).is_ok() {
                self.next_req_id += 1;
                self.prefetches_issued += 1;
                self.outstanding.insert(
                    line,
                    Fill {
                        waiters: Vec::new(),
                        issued: t,
                        dirty: false,
                        prefetch: true,
                    },
                );
            }
        }
    }

    /// Inserts `line` into core `i`'s L1, spilling dirty victims into the
    /// LLC (and onwards to the write-back queue).
    fn fill_l1(&mut self, i: usize, line: u64, dirty: bool) {
        if let Some(victim) = self.l1[i].fill(line, dirty) {
            if victim.dirty && !self.llc.access(victim.addr, true) {
                if let Some(v2) = self.llc.fill(victim.addr, true) {
                    if v2.dirty {
                        self.wb_queue.push_back(v2.addr);
                    }
                }
            }
        }
    }

    fn drain_writebacks(&mut self, t: Tick) {
        while let Some(&line) = self.wb_queue.front() {
            let id = ReqId(self.next_req_id);
            let req = MemRequest::write(id, line, self.cfg.llc.line);
            match self.ctrl.try_send(req, t) {
                Ok(()) => {
                    self.next_req_id += 1;
                    self.wb_queue.pop_front();
                }
                Err(_) => break, // retry on the next iteration
            }
        }
    }

    fn finish_report(&mut self) -> SystemReport {
        let mut out = Vec::new();
        let dram_end = self.ctrl.drain(&mut out);
        let duration = self
            .cores
            .iter()
            .map(|c| c.finish.unwrap_or(dram_end))
            .max()
            .unwrap_or(dram_end);
        let cycle = self.cfg.core.clock.period() as f64;
        // IPC over the region of interest: each core's post-warm-up
        // instructions over its post-warm-up time.
        let per_core_ipc: Vec<f64> = self
            .cores
            .iter()
            .map(|c| {
                let start = c.warm_at.unwrap_or(0);
                let end = c.finish.unwrap_or(duration).max(start + 1);
                let insts = if c.warm_at.is_some() {
                    c.insts_done.saturating_sub(self.cfg.warmup_insts)
                } else {
                    c.insts_done
                };
                insts as f64 / ((end - start) as f64 / cycle)
            })
            .collect();
        let ipc = per_core_ipc.iter().sum::<f64>() / per_core_ipc.len() as f64;
        let (l1_hits, l1_total): (u64, u64) = self.l1.iter().fold((0, 0), |(h, t), c| {
            (h + c.hits(), t + c.hits() + c.misses())
        });
        SystemReport {
            duration,
            insts: self.cores.iter().map(|c| c.insts_done).sum(),
            ipc,
            per_core_ipc,
            l1_hit_rate: if l1_total == 0 {
                0.0
            } else {
                l1_hits as f64 / l1_total as f64
            },
            llc_hit_rate: self.llc.hit_rate(),
            llc_miss_lat: self.llc_miss_lat.clone(),
            dram: match &self.roi_dram_base {
                Some((_, base)) => self.ctrl.common_stats().since(base),
                None => self.ctrl.common_stats(),
            },
            roi_duration: duration - self.roi_dram_base.as_ref().map_or(0, |(t, _)| *t),
            prefetches: self.prefetches_issued,
        }
    }
}
