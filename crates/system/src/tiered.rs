//! Tiered (heterogeneous) memory.
//!
//! Paper Section II-F: "The modularity and configurability makes it
//! possible to model multi-channel UMA and NUMA configurations, or
//! emerging heterogeneous memory systems. For example, a tiered memory is
//! easily created by instantiating a WideIO and LPDDR3 DRAM". A
//! [`TieredMemory`] splits the physical address space at a boundary: the
//! near tier (e.g. stacked WideIO) serves addresses below it, the far
//! tier (e.g. LPDDR3) the rest. Both tiers are arbitrary
//! [`Controller`]s — single channels, crossbars, or even further tiers.

use dramctrl_kernel::Tick;
use dramctrl_mem::{
    ActivityStats, CommonStats, Controller, MemCmd, MemRequest, MemResponse, MemSpec, Rejected,
};
use dramctrl_stats::Report;

/// Two memory tiers split at an address boundary.
///
/// # Example
/// ```
/// use dramctrl::{CtrlConfig, DramCtrl};
/// use dramctrl_mem::{presets, Controller, MemRequest, ReqId};
/// use dramctrl_system::TieredMemory;
///
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let near = DramCtrl::new(CtrlConfig::new(presets::wideio_200_x128()))?;
/// let far = DramCtrl::new(CtrlConfig::new(presets::lpddr3_1600_x32()))?;
/// let mut mem = TieredMemory::new(near, far, 256 << 20); // 256 MB near tier
/// mem.try_send(MemRequest::read(ReqId(0), 0x1000, 64), 0)?; // near
/// mem.try_send(MemRequest::read(ReqId(1), 512 << 20, 64), 0)?; // far
/// let mut out = Vec::new();
/// mem.drain(&mut out);
/// assert_eq!(out.len(), 2);
/// # Ok(())
/// # }
/// ```
#[derive(Debug)]
pub struct TieredMemory<N: Controller, F: Controller> {
    near: N,
    far: F,
    boundary: u64,
}

impl<N: Controller, F: Controller> TieredMemory<N, F> {
    /// Creates a tiered memory: addresses below `boundary` go to `near`,
    /// the rest to `far` (rebased to the far tier's zero).
    ///
    /// # Panics
    /// Panics if `boundary` is zero.
    pub fn new(near: N, far: F, boundary: u64) -> Self {
        assert!(boundary > 0, "near tier must cover some address space");
        Self {
            near,
            far,
            boundary,
        }
    }

    /// The near tier.
    pub fn near(&self) -> &N {
        &self.near
    }

    /// The far tier.
    pub fn far(&self) -> &F {
        &self.far
    }

    /// The near/far address boundary.
    pub fn boundary(&self) -> u64 {
        self.boundary
    }

    fn is_near(&self, addr: u64) -> bool {
        addr < self.boundary
    }
}

impl<N: Controller, F: Controller> Controller for TieredMemory<N, F> {
    fn try_send(&mut self, req: MemRequest, now: Tick) -> Result<(), Rejected> {
        if self.is_near(req.addr) {
            self.near.try_send(req, now)
        } else {
            // Rebase so the far tier sees its own zero-based space; the
            // response still carries the original request id.
            let rebased = MemRequest {
                addr: req.addr - self.boundary,
                ..req
            };
            self.far.try_send(rebased, now)
        }
    }

    fn can_accept(&self, cmd: MemCmd, addr: u64, size: u32) -> bool {
        if self.is_near(addr) {
            self.near.can_accept(cmd, addr, size)
        } else {
            self.far.can_accept(cmd, addr - self.boundary, size)
        }
    }

    fn next_event(&self) -> Option<Tick> {
        match (self.near.next_event(), self.far.next_event()) {
            (Some(a), Some(b)) => Some(a.min(b)),
            (a, b) => a.or(b),
        }
    }

    fn advance_to(&mut self, limit: Tick, out: &mut Vec<MemResponse>) {
        let before = out.len();
        self.near.advance_to(limit, out);
        let near_end = out.len();
        self.far.advance_to(limit, out);
        // Restore the original addresses of far-tier responses.
        for resp in &mut out[near_end..] {
            resp.addr += self.boundary;
        }
        out[before..].sort_by_key(|r| r.ready_at);
    }

    fn drain(&mut self, out: &mut Vec<MemResponse>) -> Tick {
        let before = out.len();
        let a = self.near.drain(out);
        let near_end = out.len();
        let b = self.far.drain(out);
        for resp in &mut out[near_end..] {
            resp.addr += self.boundary;
        }
        out[before..].sort_by_key(|r| r.ready_at);
        a.max(b)
    }

    fn is_idle(&self) -> bool {
        self.near.is_idle() && self.far.is_idle()
    }

    /// The near tier's specification (the tiers may differ; use
    /// [`TieredMemory::near`]/[`TieredMemory::far`] for per-tier specs).
    fn spec(&self) -> &MemSpec {
        self.near.spec()
    }

    fn common_stats(&self) -> CommonStats {
        let mut total = self.near.common_stats();
        total += self.far.common_stats();
        total
    }

    fn activity(&mut self, now: Tick) -> ActivityStats {
        let mut total = self.near.activity(now);
        total += self.far.activity(now);
        total
    }

    fn report(&self, prefix: &str, now: Tick) -> Report {
        let mut r = Report::new(prefix);
        r.counter("boundary", self.boundary);
        r.nest(&self.near.report("near", now));
        r.nest(&self.far.report("far", now));
        r
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dramctrl::{CtrlConfig, DramCtrl};
    use dramctrl_mem::{presets, ReqId};

    fn tiers() -> TieredMemory<DramCtrl, DramCtrl> {
        let mk = |spec| {
            let mut cfg = CtrlConfig::new(spec);
            cfg.spec.timing.t_refi = 0;
            DramCtrl::new(cfg).unwrap()
        };
        TieredMemory::new(
            mk(presets::wideio_200_x128()),
            mk(presets::lpddr3_1600_x32()),
            256 << 20,
        )
    }

    #[test]
    fn routes_by_boundary() {
        let mut m = tiers();
        m.try_send(MemRequest::read(ReqId(0), 0x40, 64), 0).unwrap();
        m.try_send(MemRequest::read(ReqId(1), (256 << 20) + 0x40, 64), 0)
            .unwrap();
        let mut out = Vec::new();
        m.drain(&mut out);
        assert_eq!(out.len(), 2);
        assert_eq!(m.near().common_stats().rd_bursts, 1);
        // LPDDR3 chops the 64 B line into two 32 B bursts.
        assert_eq!(m.far().common_stats().rd_bursts, 2);
    }

    #[test]
    fn far_responses_keep_original_addresses() {
        let mut m = tiers();
        let far_addr = (256 << 20) + 0x80;
        m.try_send(MemRequest::read(ReqId(7), far_addr, 64), 0)
            .unwrap();
        let mut out = Vec::new();
        m.drain(&mut out);
        assert_eq!(out[0].addr, far_addr);
        assert_eq!(out[0].id, ReqId(7));
    }

    #[test]
    fn near_tier_is_faster_than_far_tier_for_single_reads() {
        let mut m = tiers();
        m.try_send(MemRequest::read(ReqId(0), 0x40, 64), 0).unwrap();
        m.try_send(MemRequest::read(ReqId(1), (256 << 20) + 0x40, 64), 0)
            .unwrap();
        let mut out = Vec::new();
        m.drain(&mut out);
        let near = out.iter().find(|r| r.id == ReqId(0)).unwrap();
        let far = out.iter().find(|r| r.id == ReqId(1)).unwrap();
        // WideIO: tRCD+tCL+tBURST = 18+18+20 = 56 ns;
        // LPDDR3 (2 bursts): 15+15+10 = 40 ns. The tiers keep their own
        // timing — here the "near" stacked tier is actually slower per
        // access but four of them provide the bandwidth (see fig9).
        assert_eq!(near.ready_at, 56_000);
        assert_eq!(far.ready_at, 40_000);
    }

    #[test]
    fn flow_control_is_per_tier() {
        let mk_small = |spec| {
            let mut cfg = CtrlConfig::new(spec);
            cfg.spec.timing.t_refi = 0;
            cfg.read_buffer_size = 1;
            DramCtrl::new(cfg).unwrap()
        };
        let mut m = TieredMemory::new(
            mk_small(presets::wideio_200_x128()),
            mk_small(presets::lpddr3_1600_x32()),
            256 << 20,
        );
        m.try_send(MemRequest::read(ReqId(0), 0, 64), 0).unwrap();
        // Near tier full; far tier still accepts.
        assert!(m.try_send(MemRequest::read(ReqId(1), 64, 64), 0).is_err());
        assert!(m.can_accept(MemCmd::Read, 300 << 20, 32));
    }

    #[test]
    fn aggregate_stats_sum_tiers() {
        let mut m = tiers();
        for i in 0..4u64 {
            m.try_send(MemRequest::read(ReqId(i), i * (128 << 20), 64), 0)
                .unwrap();
        }
        let mut out = Vec::new();
        let end = m.drain(&mut out);
        let s = m.common_stats();
        assert_eq!(s.reads_accepted, 4);
        assert_eq!(
            s.rd_bursts,
            m.near().common_stats().rd_bursts + m.far().common_stats().rd_bursts
        );
        let act = m.activity(end);
        assert_eq!(act.ranks, 2);
        assert!(act.activates >= 2);
    }

    #[test]
    #[should_panic(expected = "near tier")]
    fn zero_boundary_panics() {
        let m = tiers();
        let (n, f) = (m.near, m.far);
        let _ = TieredMemory::new(n, f, 0);
    }
}
