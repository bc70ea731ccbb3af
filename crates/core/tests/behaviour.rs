//! Behavioural and property-based tests for the event-based controller:
//! flow control, conservation invariants and statistics plumbing.

use dramctrl::{CtrlConfig, DramCtrl, PagePolicy, SchedPolicy};
use dramctrl_kernel::rng::Rng;
use dramctrl_mem::{presets, AddrMapping, Controller, MemCmd, MemRequest, Rejected, ReqId};

fn small_ctrl() -> DramCtrl {
    let mut cfg = CtrlConfig::new(presets::ddr3_1333_x64());
    cfg.spec.timing.t_refi = 0;
    cfg.read_buffer_size = 2;
    cfg.write_buffer_size = 2;
    DramCtrl::new(cfg).unwrap()
}

#[test]
fn oversized_request_is_too_large() {
    let mut c = small_ctrl();
    let err = c
        .try_send(MemRequest::read(ReqId(0), 0, 256), 0)
        .unwrap_err();
    // Four bursts, a two-burst queue: it could never fit.
    assert_eq!(err, Rejected::TooLarge);
    assert_eq!(c.read_queue_len(), 0);
}

#[test]
fn read_queue_full_backpressure() {
    let mut c = small_ctrl();
    c.try_send(MemRequest::read(ReqId(0), 0, 64), 0).unwrap();
    c.try_send(MemRequest::read(ReqId(1), 64, 64), 0).unwrap();
    assert!(!c.can_accept(MemCmd::Read, 128, 64));
    let err = c
        .try_send(MemRequest::read(ReqId(2), 128, 64), 0)
        .unwrap_err();
    assert_eq!(err, Rejected::Full);
    // The read queue is the full one.
    assert_eq!((c.read_queue_len(), c.write_queue_len()), (2, 0));
    // Draining frees space again.
    let mut out = Vec::new();
    c.drain(&mut out);
    assert!(c.can_accept(MemCmd::Read, 128, 64));
}

#[test]
fn write_queue_full_backpressure() {
    let mut c = small_ctrl();
    c.try_send(MemRequest::write(ReqId(0), 0, 64), 0).unwrap();
    c.try_send(MemRequest::write(ReqId(1), 64, 64), 0).unwrap();
    assert_eq!(
        c.try_send(MemRequest::write(ReqId(2), 128, 64), 0),
        Err(Rejected::Full)
    );
    // The write queue is the full one.
    assert_eq!((c.read_queue_len(), c.write_queue_len()), (0, 2));
}

#[test]
#[should_panic(expected = "zero-sized request")]
fn zero_size_panics() {
    let mut c = small_ctrl();
    let _ = c.try_send(MemRequest::read(ReqId(0), 0, 0), 0);
}

#[test]
fn invalid_config_is_rejected() {
    let mut cfg = CtrlConfig::new(presets::ddr3_1333_x64());
    cfg.write_low_thresh = 0.9;
    cfg.write_high_thresh = 0.5;
    assert!(DramCtrl::new(cfg).is_err());
}

#[test]
fn report_contains_key_metrics() {
    let mut c = small_ctrl();
    c.try_send(MemRequest::read(ReqId(0), 0, 64), 0).unwrap();
    let mut out = Vec::new();
    let end = c.drain(&mut out);
    let report = c.report("ctrl", end);
    for key in [
        "rd_bursts",
        "bus_util",
        "page_hit_rate",
        "avg_read_lat_ns",
        "activates",
    ] {
        assert!(report.get(key).is_some(), "missing {key}");
    }
    assert_eq!(report.get("rd_bursts"), Some(1.0));
    assert!(report.get("bus_util").unwrap() > 0.0);
}

#[test]
fn activity_stats_track_bank_state() {
    let mut cfg = CtrlConfig::new(presets::ddr3_1333_x64());
    cfg.spec.timing.t_refi = 0;
    cfg.page_policy = PagePolicy::Closed;
    let mut c = DramCtrl::new(cfg).unwrap();
    c.try_send(MemRequest::read(ReqId(0), 0, 64), 0).unwrap();
    let mut out = Vec::new();
    c.drain(&mut out);
    let act = c.activity(1_000_000);
    assert_eq!(act.activates, 1);
    assert_eq!(act.precharges, 1);
    assert_eq!(act.rd_bursts, 1);
    // Closed-page: the bank is open only from ACT (0 ns) to the
    // auto-precharge (gated by tRAS at 36 ns) out of the 1 us window.
    assert_eq!(act.sim_time - act.time_all_banks_precharged, 36_000);
}

#[test]
fn deterministic_across_runs() {
    let run = || {
        let mut c = small_ctrl();
        let mut out = Vec::new();
        let mut t = 0;
        for i in 0..50u64 {
            t += 5_000;
            let req = if i % 3 == 0 {
                MemRequest::write(ReqId(i), i * 64, 64)
            } else {
                MemRequest::read(ReqId(i), (i % 7) * 4096 + i * 64, 64)
            };
            c.advance_to(t, &mut out);
            while c.try_send(req, t).is_err() {
                let next = c.next_event().expect("progress must be possible");
                t = t.max(next);
                c.advance_to(t, &mut out);
            }
        }
        c.drain(&mut out);
        out.iter().map(|r| (r.id, r.ready_at)).collect::<Vec<_>>()
    };
    assert_eq!(run(), run());
}

/// A seeded batch of requests with mixed commands, sizes and localities.
fn requests(rng: &mut Rng, max_len: u64) -> Vec<(bool, u64, u32)> {
    let sizes = [16u32, 64, 128, 256];
    (0..rng.gen_range(1..max_len))
        .map(|_| {
            (
                rng.gen_bool(),
                rng.gen_range(0..1 << 22),
                sizes[rng.gen_range(0..4) as usize],
            )
        })
        .collect()
}

/// Every accepted request produces exactly one response, regardless of
/// command mix, chopping, merging and forwarding; the controller ends
/// idle and conservation holds between bursts and queue traffic.
#[test]
fn one_response_per_request() {
    let mut rng = Rng::seed_from_u64(0xBE4A_0001);
    for _ in 0..64 {
        let reqs = requests(&mut rng, 60);
        let policy_idx = rng.gen_range(0..4) as usize;
        let sched = rng.gen_range(0..2) as usize;
        let mapping_idx = rng.gen_range(0..3) as usize;
        let mut cfg = CtrlConfig::new(presets::ddr3_1333_x64());
        cfg.spec.timing.t_refi = 0;
        cfg.page_policy = [
            PagePolicy::Open,
            PagePolicy::OpenAdaptive,
            PagePolicy::Closed,
            PagePolicy::ClosedAdaptive,
        ][policy_idx];
        cfg.scheduling = [SchedPolicy::Fcfs, SchedPolicy::FrFcfs][sched];
        cfg.mapping = [
            AddrMapping::RoRaBaCoCh,
            AddrMapping::RoRaBaChCo,
            AddrMapping::RoCoRaBaCh,
        ][mapping_idx];
        let mut c = DramCtrl::new(cfg).unwrap();

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
                    Err(_) => {
                        let next = c.next_event().expect("backpressure implies pending work");
                        t = t.max(next);
                        c.advance_to(t, &mut out);
                    }
                }
            }
        }
        c.drain(&mut out);

        assert_eq!(out.len() as u64, accepted);
        assert!(c.is_idle());
        // Responses are delivered in non-decreasing ready order.
        assert!(out.windows(2).all(|w| w[0].ready_at <= w[1].ready_at));
        // All response ids are distinct and were actually sent.
        let mut ids: Vec<_> = out.iter().map(|r| r.id.0).collect();
        ids.sort_unstable();
        ids.dedup();
        assert_eq!(ids.len() as u64, accepted);

        let s = c.stats();
        assert_eq!(s.common.reads_accepted + s.common.writes_accepted, accepted);
        // Bus time equals bursts * tBURST.
        let bursts = s.common.rd_bursts + s.common.wr_bursts;
        assert_eq!(s.common.bus_busy, bursts * c.config().spec.timing.t_burst);
        // Row hits never exceed bursts; activates need a matching burst
        // unless the access was a pure reopen (impossible here).
        assert!(s.rd_row_hits + s.wr_row_hits() <= bursts);
        assert!(s.common.activates <= bursts);
    }
}

/// The bank-state timeline never goes negative and the precharged time
/// never exceeds the window.
#[test]
fn activity_bounds() {
    let mut rng = Rng::seed_from_u64(0xBE4A_0002);
    for _ in 0..64 {
        let reqs = requests(&mut rng, 60);
        let mut cfg = CtrlConfig::new(presets::ddr3_1333_x64());
        cfg.spec.timing.t_refi = 0;
        let mut c = DramCtrl::new(cfg).unwrap();
        let mut out = Vec::new();
        let mut t = 0;
        for (i, &(is_read, addr, size)) in reqs.iter().enumerate() {
            let req = if is_read {
                MemRequest::read(ReqId(i as u64), addr, size)
            } else {
                MemRequest::write(ReqId(i as u64), addr, size)
            };
            loop {
                match c.try_send(req, t) {
                    Ok(()) => break,
                    Err(Rejected::TooLarge) => break,
                    Err(_) => {
                        let next = c.next_event().unwrap();
                        t = t.max(next);
                        c.advance_to(t, &mut out);
                    }
                }
            }
        }
        let end = c.drain(&mut out).max(t) + 1_000_000;
        let act = c.activity(end);
        assert!(act.time_all_banks_precharged <= end);
        assert_eq!(act.ranks, 1);
        // With an open-page policy the last row stays open forever, so the
        // fraction may legitimately reach 0.0.
        assert!((0.0..=1.0).contains(&act.precharged_fraction()));
    }
}

/// gem5-style windowed statistics (paper Section II-E): snapshot, run a
/// region of interest, and diff.
#[test]
fn windowed_stats_isolate_a_region() {
    let mut c = small_ctrl();
    let mut out = Vec::new();
    // Warm-up phase: 10 reads.
    for i in 0..10u64 {
        DramCtrl::try_send(&mut c, MemRequest::read(ReqId(i), i * 64, 64), 0).unwrap();
        DramCtrl::drain(&mut c, &mut out);
    }
    let snapshot = dramctrl_mem::Controller::common_stats(&c);
    assert_eq!(snapshot.rd_bursts, 10);

    // Region of interest: 2 writes (the small queue's capacity) and 3
    // reads.
    for i in 0..2u64 {
        DramCtrl::try_send(&mut c, MemRequest::write(ReqId(100 + i), i * 64, 64), 0).unwrap();
    }
    for i in 0..3u64 {
        DramCtrl::try_send(
            &mut c,
            MemRequest::read(ReqId(200 + i), 4096 + i * 64, 64),
            0,
        )
        .unwrap();
        DramCtrl::drain(&mut c, &mut out);
    }
    DramCtrl::drain(&mut c, &mut out);

    let window = dramctrl_mem::Controller::common_stats(&c).since(&snapshot);
    assert_eq!(window.rd_bursts, 3);
    assert_eq!(window.wr_bursts, 2);
    assert_eq!(window.bytes_read, 3 * 64);
    // The window's mean latency only covers the three region reads.
    assert!(window.avg_read_lat() > 0.0);
    assert_eq!(window.bus_busy, 5 * c.config().spec.timing.t_burst);
}

#[test]
fn reset_restores_a_fresh_controller_bit_for_bit() {
    use dramctrl_kernel::snap::{SnapState, SnapWriter};
    let snap = |c: &DramCtrl| {
        let mut w = SnapWriter::new(0);
        c.save_state(&mut w);
        w.into_bytes()
    };
    // Mixed reads/writes spread over rows and banks, drained in batches so
    // time advances and refreshes fire between sends.
    let drive = |c: &mut DramCtrl| {
        let mut out = Vec::new();
        let mut t = 0;
        for batch in 0..3u64 {
            for i in 0..8u64 {
                let n = batch * 8 + i;
                let req = if i % 3 == 0 {
                    MemRequest::write(ReqId(n), n * 8192, 64)
                } else {
                    MemRequest::read(ReqId(n), n * 8192, 64)
                };
                c.try_send(req, t).unwrap();
            }
            t = c.drain(&mut out);
        }
        (t, out.len())
    };
    let cfg = CtrlConfig::new(presets::ddr3_1333_x64());
    let mut fresh = DramCtrl::new(cfg.clone()).unwrap();
    let mut used = DramCtrl::new(cfg).unwrap();
    drive(&mut used);
    used.reset();
    // Every piece of mutable state is back to its constructed value…
    assert_eq!(snap(&used), snap(&fresh));
    // …and the reused controller services a new workload identically.
    let a = drive(&mut used);
    let b = drive(&mut fresh);
    assert_eq!(a, b);
    assert_eq!(snap(&used), snap(&fresh));
    assert_eq!(
        format!("{:?}", used.stats()),
        format!("{:?}", fresh.stats())
    );
}
