//! Property-based tests for the cycle-based baseline, mirroring the
//! invariants of the event-based controller's suite: conservation of
//! requests, ordering of responses and statistics consistency.

use dramctrl_cycle::{CycleConfig, CycleCtrl};
use dramctrl_kernel::rng::Rng;
use dramctrl_mem::{
    presets, AddrMapping, Controller, MemRequest, PagePolicy, Rejected, ReqId, SchedPolicy,
};

/// A seeded batch of requests with mixed commands, sizes and localities.
fn requests(rng: &mut Rng) -> Vec<(bool, u64, u32)> {
    let sizes = [16u32, 64, 128, 256];
    (0..rng.gen_range(1..40))
        .map(|_| {
            (
                rng.gen_bool(),
                rng.gen_range(0..1 << 22),
                sizes[rng.gen_range(0..4) as usize],
            )
        })
        .collect()
}

/// Every accepted request produces exactly one response under any
/// policy combination; the controller ends idle with consistent
/// statistics.
#[test]
fn one_response_per_request() {
    let mut rng = Rng::seed_from_u64(0x000C_7C1E_0001);
    for _ in 0..48 {
        let reqs = requests(&mut rng);
        let closed = rng.gen_bool();
        let fcfs = rng.gen_bool();
        let mapping_idx = rng.gen_range(0..3) as usize;
        let mut cfg = CycleConfig::new(presets::ddr3_1333_x64());
        cfg.spec.timing.t_refi = 0;
        cfg.page_policy = if closed {
            PagePolicy::Closed
        } else {
            PagePolicy::Open
        };
        cfg.scheduling = if fcfs {
            SchedPolicy::Fcfs
        } else {
            SchedPolicy::FrFcfs
        };
        cfg.mapping = [
            AddrMapping::RoRaBaCoCh,
            AddrMapping::RoRaBaChCo,
            AddrMapping::RoCoRaBaCh,
        ][mapping_idx];
        let mut c = CycleCtrl::new(cfg).unwrap();

        let mut out = Vec::new();
        let mut t = 0;
        let mut accepted = 0u64;
        for (i, &(is_read, addr, size)) in reqs.iter().enumerate() {
            let req = if is_read {
                MemRequest::read(ReqId(i as u64), addr, size)
            } else {
                MemRequest::write(ReqId(i as u64), addr, size)
            };
            loop {
                match c.try_send(req, t) {
                    Ok(()) => {
                        accepted += 1;
                        break;
                    }
                    Err(Rejected::TooLarge) => break,
                    Err(Rejected::Full) => {
                        let next = c.next_event().expect("full implies pending work");
                        t = t.max(next);
                        c.advance_to(t, &mut out);
                    }
                }
            }
        }
        c.drain(&mut out);

        assert_eq!(out.len() as u64, accepted);
        assert!(c.is_idle());
        assert!(out.windows(2).all(|w| w[0].ready_at <= w[1].ready_at));
        let s = c.common_stats();
        assert_eq!(s.reads_accepted + s.writes_accepted, accepted);
        let bursts = s.rd_bursts + s.wr_bursts;
        assert_eq!(s.bus_busy, bursts * c.config().spec.timing.t_burst);
        assert!(s.row_hits <= bursts);
        assert!(s.activates <= bursts);
        // Cycle accounting: the model did per-cycle work.
        assert!(c.stats().cycles_simulated > 0);
    }
}

/// Burst counts are identical between the two models for read-only
/// traffic (no merging/forwarding differences apply), regardless of
/// chopping.
#[test]
fn models_chop_identically() {
    use dramctrl::{CtrlConfig, DramCtrl};

    let mut rng = Rng::seed_from_u64(0x000C_7C1E_0002);
    for _ in 0..48 {
        let addrs: Vec<(u64, u32)> = (0..rng.gen_range(1..30))
            .map(|_| (rng.gen_range(0..1 << 22), rng.gen_range(1..300) as u32))
            .collect();
        let mut ev_cfg = CtrlConfig::new(presets::ddr3_1333_x64());
        ev_cfg.spec.timing.t_refi = 0;
        ev_cfg.read_buffer_size = 512;
        let mut ev = DramCtrl::new(ev_cfg).unwrap();
        let mut cy_cfg = CycleConfig::new(presets::ddr3_1333_x64());
        cy_cfg.spec.timing.t_refi = 0;
        cy_cfg.queue_depth = 512;
        let mut cy = CycleCtrl::new(cy_cfg).unwrap();

        let mut out = Vec::new();
        for (i, &(addr, size)) in addrs.iter().enumerate() {
            let req = MemRequest::read(ReqId(i as u64), addr, size);
            let _ = Controller::try_send(&mut ev, req, 0);
            let _ = cy.try_send(req, 0);
        }
        Controller::drain(&mut ev, &mut out);
        cy.drain(&mut out);
        assert_eq!(
            Controller::common_stats(&ev).rd_bursts,
            cy.common_stats().rd_bursts
        );
        assert_eq!(
            Controller::common_stats(&ev).bytes_read,
            cy.common_stats().bytes_read
        );
    }
}
