//! Tests for the cycle-based baseline: cycle-exact latencies, refresh,
//! flow control, and first-order agreement with the event-based model.

use dramctrl_cycle::{CycleConfig, CycleCtrl, CyclePagePolicy, CycleSched};
use dramctrl_mem::{
    presets, AddrMapping, Controller, Decoder, DramAddr, MemRequest, Rejected, ReqId,
};

fn ctrl_with(f: impl FnOnce(&mut CycleConfig)) -> CycleCtrl {
    let mut cfg = CycleConfig::new(presets::ddr3_1333_x64());
    cfg.spec.timing.t_refi = 0;
    f(&mut cfg);
    CycleCtrl::new(cfg).unwrap()
}

fn addr(bank: u32, row: u64, col: u64) -> u64 {
    let dec = Decoder::new(AddrMapping::RoRaBaCoCh, &presets::ddr3_1333_x64().org, 1);
    dec.encode(
        &DramAddr {
            rank: 0,
            bank,
            row,
            col,
        },
        0,
    )
}

#[test]
fn cold_read_latency_in_cycles() {
    // DDR3-1333 at tCK = 1.5 ns: tRCD = tCL = ceil(13.5/1.5) = 9 cycles,
    // tBURST = 4 cycles. ACT issues on cycle 1 (the first executed cycle),
    // RD on cycle 1+9, data ends at 1+9+9+4 = 23 cycles = 34.5 ns.
    let mut c = ctrl_with(|_| {});
    c.try_send(MemRequest::read(ReqId(0), addr(0, 5, 0), 64), 0)
        .unwrap();
    let mut out = Vec::new();
    c.drain(&mut out);
    assert_eq!(out.len(), 1);
    assert_eq!(out[0].ready_at, 23 * 1_500);
    assert_eq!(c.stats().common.activates, 1);
}

#[test]
fn row_hits_pipeline_on_the_bus() {
    let mut c = ctrl_with(|_| {});
    for i in 0..4 {
        c.try_send(MemRequest::read(ReqId(i), addr(0, 5, i), 64), 0)
            .unwrap();
    }
    let mut out = Vec::new();
    c.drain(&mut out);
    // Bursts follow back to back: each adds 4 cycles.
    for (i, r) in out.iter().enumerate() {
        assert_eq!(r.ready_at, (23 + 4 * i as u64) * 1_500);
    }
    assert_eq!(c.stats().common.row_hits, 3);
    assert_eq!(c.stats().common.activates, 1);
}

#[test]
fn bank_conflict_reopens_row() {
    let mut c = ctrl_with(|_| {});
    c.try_send(MemRequest::read(ReqId(0), addr(0, 5, 0), 64), 0)
        .unwrap();
    c.try_send(MemRequest::read(ReqId(1), addr(0, 6, 0), 64), 0)
        .unwrap();
    let mut out = Vec::new();
    c.drain(&mut out);
    assert_eq!(c.stats().common.precharges, 1);
    assert_eq!(c.stats().common.activates, 2);
    // PRE gated by tRAS (24 cycles from ACT at cycle 1), +tRP +tRCD +tCL
    // +tBURST = 25 + 9 + 9 + 9 + 4 = 56 cycles.
    assert_eq!(out[1].ready_at, 56 * 1_500);
}

#[test]
fn writes_ack_immediately_but_occupy_queue() {
    let mut c = ctrl_with(|_| {});
    c.try_send(MemRequest::write(ReqId(0), addr(0, 1, 0), 64), 0)
        .unwrap();
    let mut out = Vec::new();
    c.advance_to(0, &mut out);
    assert_eq!(out.len(), 1, "early write acknowledgement");
    assert_eq!(out[0].ready_at, 0);
    // Unlike the event-based model, the unified queue drains the write
    // without any watermark: it reaches DRAM during a normal drain.
    c.drain(&mut out);
    assert_eq!(c.stats().common.wr_bursts, 1);
}

#[test]
fn unified_queue_interleaves_reads_and_writes() {
    // DRAMSim2-style: no write drain mode, so a write between two reads to
    // the same row is serviced in arrival order under FCFS, paying both
    // turnarounds.
    let mut c = ctrl_with(|cfg| cfg.scheduling = CycleSched::Fcfs);
    c.try_send(MemRequest::read(ReqId(0), addr(0, 5, 0), 64), 0)
        .unwrap();
    c.try_send(MemRequest::write(ReqId(1), addr(0, 5, 1), 64), 0)
        .unwrap();
    c.try_send(MemRequest::read(ReqId(2), addr(0, 5, 2), 64), 0)
        .unwrap();
    let mut out = Vec::new();
    c.drain(&mut out);
    assert_eq!(c.stats().common.rd_bursts, 2);
    assert_eq!(c.stats().common.wr_bursts, 1);
    // The second read pays the write-to-read turnaround: its data cannot
    // start before the write data end + tWTR + tCL.
    let r2 = out.iter().find(|r| r.id == ReqId(2)).unwrap();
    let r0 = out.iter().find(|r| r.id == ReqId(0)).unwrap();
    assert!(r2.ready_at > r0.ready_at + 2 * 4 * 1_500, "turnaround gap");
}

#[test]
fn closed_page_auto_precharges() {
    let mut c = ctrl_with(|cfg| cfg.page_policy = CyclePagePolicy::Closed);
    for i in 0..2 {
        c.try_send(MemRequest::read(ReqId(i), addr(0, 5, i), 64), 0)
            .unwrap();
    }
    let mut out = Vec::new();
    c.drain(&mut out);
    assert_eq!(c.stats().common.row_hits, 0, "closed page never hits");
    assert_eq!(c.stats().common.activates, 2);
    assert_eq!(c.stats().common.precharges, 2);
}

#[test]
fn refresh_blocks_and_recurs() {
    let cfg = CycleConfig::new(presets::ddr3_1333_x64());
    let t_refi = cfg.spec.timing.t_refi;
    let mut c = CycleCtrl::new(cfg).unwrap();
    let mut out = Vec::new();
    c.advance_to(3 * t_refi + 1_000_000, &mut out);
    assert_eq!(c.stats().common.refreshes, 3);
    // A read right at the refresh deadline waits out tRFC.
    let mut c = CycleCtrl::new(CycleConfig::new(presets::ddr3_1333_x64())).unwrap();
    c.advance_to(t_refi, &mut out);
    c.try_send(MemRequest::read(ReqId(0), addr(0, 5, 0), 64), t_refi)
        .unwrap();
    out.clear();
    c.drain(&mut out);
    let t_rfc = presets::ddr3_1333_x64().timing.t_rfc;
    assert!(out[0].ready_at >= t_refi + t_rfc, "read waits for refresh");
}

#[test]
fn queue_backpressure() {
    let mut c = ctrl_with(|cfg| cfg.queue_depth = 2);
    assert_eq!(
        c.try_send(MemRequest::read(ReqId(0), 0, 256), 0),
        Err(Rejected::TooLarge)
    );
    c.try_send(MemRequest::read(ReqId(1), 0, 64), 0).unwrap();
    c.try_send(MemRequest::write(ReqId(2), 64, 64), 0).unwrap();
    assert_eq!(
        c.try_send(MemRequest::read(ReqId(3), 128, 64), 0),
        Err(Rejected::Full)
    );
    let mut out = Vec::new();
    c.drain(&mut out);
    assert!(c.can_accept(dramctrl_mem::MemCmd::Read, 128, 64));
}

#[test]
fn frfcfs_prefers_row_hits() {
    let mut c = ctrl_with(|_| {});
    c.try_send(MemRequest::read(ReqId(0), addr(0, 5, 0), 64), 0)
        .unwrap();
    c.try_send(MemRequest::read(ReqId(1), addr(0, 6, 0), 64), 0)
        .unwrap();
    c.try_send(MemRequest::read(ReqId(2), addr(0, 5, 1), 64), 0)
        .unwrap();
    let mut out = Vec::new();
    c.drain(&mut out);
    let order: Vec<_> = out.iter().map(|r| r.id.0).collect();
    assert_eq!(order, vec![0, 2, 1]);
}

#[test]
fn deterministic_across_runs() {
    let run = || {
        let mut c = ctrl_with(|_| {});
        let mut out = Vec::new();
        for i in 0..100u64 {
            let t = i * 3_000;
            c.advance_to(t, &mut out);
            let req = if i % 4 == 0 {
                MemRequest::write(ReqId(i), (i % 16) * 4096 + i * 64, 64)
            } else {
                MemRequest::read(ReqId(i), (i % 16) * 4096 + i * 64, 64)
            };
            if c.can_accept(req.cmd, req.addr, req.size) {
                c.try_send(req, t).unwrap();
            }
        }
        c.drain(&mut out);
        out.iter().map(|r| (r.id, r.ready_at)).collect::<Vec<_>>()
    };
    assert_eq!(run(), run());
}

#[test]
fn activity_tracks_precharged_time() {
    let mut c = ctrl_with(|cfg| cfg.page_policy = CyclePagePolicy::Closed);
    c.try_send(MemRequest::read(ReqId(0), addr(0, 5, 0), 64), 0)
        .unwrap();
    let mut out = Vec::new();
    c.drain(&mut out);
    let act = c.activity(1_500_000); // 1000 cycles
    assert_eq!(act.activates, 1);
    assert_eq!(act.refreshes, 0);
    assert!(act.time_all_banks_precharged > 0);
    assert!(act.time_all_banks_precharged < act.sim_time);
}

/// First-order agreement between the two models (paper Section III): same
/// work done, comparable bus occupancy, identical burst counts on a
/// read-only sequential stream.
#[test]
fn models_agree_on_sequential_reads() {
    use dramctrl::{CtrlConfig, DramCtrl};

    let mut evcfg = CtrlConfig::new(presets::ddr3_1333_x64());
    evcfg.spec.timing.t_refi = 0;
    let mut ev = DramCtrl::new(evcfg).unwrap();
    let mut cy = ctrl_with(|_| {});

    let mut ev_out = Vec::new();
    let mut cy_out = Vec::new();
    for i in 0..200u64 {
        let req = MemRequest::read(ReqId(i), i * 64, 64);
        let t = i * 6_000; // one burst-time apart: saturating
        Controller::advance_to(&mut ev, t, &mut ev_out);
        cy.advance_to(t, &mut cy_out);
        while Controller::try_send(&mut ev, req, t).is_err() {
            let n = Controller::next_event(&ev).unwrap();
            Controller::advance_to(&mut ev, n.max(t), &mut ev_out);
        }
        while cy.try_send(req, t).is_err() {
            let n = cy.next_event().unwrap();
            cy.advance_to(n.max(t), &mut cy_out);
        }
    }
    let ev_end = Controller::drain(&mut ev, &mut ev_out);
    let cy_end = cy.drain(&mut cy_out);

    assert_eq!(ev_out.len(), 200);
    assert_eq!(cy_out.len(), 200);
    let (es, cs) = (Controller::common_stats(&ev), cy.common_stats());
    assert_eq!(es.rd_bursts, cs.rd_bursts);
    assert_eq!(es.activates, cs.activates);
    // Completion times within 15% of each other (cycle quantisation and
    // command-bus modelling differ).
    let ratio = ev_end as f64 / cy_end as f64;
    assert!((0.85..1.15).contains(&ratio), "end ratio {ratio}");
    // Both models near-saturate the bus.
    assert!(es.bus_utilisation(ev_end) > 0.8);
    assert!(cs.bus_utilisation(cy_end) > 0.8);
}

/// Regression: under strict FCFS, a conflicting head transaction must be
/// allowed to precharge even when a row hit sits *behind* it — otherwise
/// the queue deadlocks (the hit can never be served out of order).
#[test]
fn fcfs_head_conflict_with_trailing_hit_makes_progress() {
    let mut c = ctrl_with(|cfg| cfg.scheduling = CycleSched::Fcfs);
    // Open row 5, then queue a conflict (row 6) ahead of a hit (row 5).
    c.try_send(MemRequest::read(ReqId(0), addr(0, 5, 0), 64), 0)
        .unwrap();
    let mut out = Vec::new();
    c.drain(&mut out);
    c.try_send(MemRequest::read(ReqId(1), addr(0, 6, 0), 64), 100_000)
        .unwrap();
    c.try_send(MemRequest::read(ReqId(2), addr(0, 5, 1), 64), 100_000)
        .unwrap();
    out.clear();
    c.drain(&mut out);
    let order: Vec<_> = out.iter().map(|r| r.id.0).collect();
    assert_eq!(order, vec![1, 2], "FCFS order, no deadlock");
}

/// With `write_snooping` on, a read fully covered by a queued write is
/// forwarded (no DRAM access) and a covered write is merged away — the
/// event-based model's Section II-A behaviour, via the same coverage index.
#[test]
fn write_snooping_forwards_reads_and_merges_writes() {
    let mut c = ctrl_with(|cfg| cfg.write_snooping = true);
    let a = addr(2, 7, 0);
    c.try_send(MemRequest::write(ReqId(0), a, 64), 0).unwrap();
    c.try_send(MemRequest::write(ReqId(1), a, 64), 0).unwrap();
    c.try_send(MemRequest::read(ReqId(2), a, 64), 0).unwrap();
    let mut out = Vec::new();
    c.drain(&mut out);
    // Two write acks plus the forwarded read, all at tick 0.
    assert_eq!(out.len(), 3);
    assert!(out.iter().all(|r| r.ready_at == 0));
    assert_eq!(c.stats().merged_writes, 1);
    assert_eq!(c.stats().forwarded_reads, 1);
    assert_eq!(c.stats().common.wr_bursts, 1, "only one write touches DRAM");
    assert_eq!(c.stats().common.rd_bursts, 0, "the read never touches DRAM");
}

/// A partial write does not cover a wider read; coverage ends when the
/// write leaves the queue.
#[test]
fn write_snooping_respects_spans_and_drain() {
    let mut c = ctrl_with(|cfg| cfg.write_snooping = true);
    let a = addr(1, 3, 0);
    c.try_send(MemRequest::write(ReqId(0), a + 8, 16), 0)
        .unwrap();
    // Wider than the queued write: must go to DRAM.
    c.try_send(MemRequest::read(ReqId(1), a, 64), 0).unwrap();
    // Subsumed by the queued write: forwarded.
    c.try_send(MemRequest::read(ReqId(2), a + 12, 4), 0)
        .unwrap();
    let mut out = Vec::new();
    c.drain(&mut out);
    assert_eq!(c.stats().forwarded_reads, 1);
    assert_eq!(c.stats().common.rd_bursts, 1);
    // Once drained, the write no longer covers anything.
    c.try_send(
        MemRequest::read(ReqId(3), a + 12, 4),
        c.next_event().unwrap_or(10_000_000),
    )
    .unwrap();
    out.clear();
    c.drain(&mut out);
    assert_eq!(c.stats().forwarded_reads, 1, "no stale coverage");
    assert_eq!(c.stats().common.rd_bursts, 2);
}

/// Snooping off (the default) keeps DRAMSim2 behaviour: every burst
/// reaches DRAM.
#[test]
fn snooping_off_by_default_services_every_burst() {
    let mut c = ctrl_with(|_| {});
    let a = addr(2, 7, 0);
    c.try_send(MemRequest::write(ReqId(0), a, 64), 0).unwrap();
    c.try_send(MemRequest::write(ReqId(1), a, 64), 0).unwrap();
    c.try_send(MemRequest::read(ReqId(2), a, 64), 0).unwrap();
    let mut out = Vec::new();
    c.drain(&mut out);
    assert_eq!(c.stats().merged_writes, 0);
    assert_eq!(c.stats().forwarded_reads, 0);
    assert_eq!(c.stats().common.wr_bursts, 2);
    assert_eq!(c.stats().common.rd_bursts, 1);
}

/// The instrumentation layer must not perturb the cycle model either:
/// a controller carrying live Chrome-trace + epoch sinks produces the
/// same responses, drain tick and rendered report as a plain one, while
/// the sinks see real commands.
#[test]
fn tracing_is_zero_perturbation() {
    use dramctrl_obs::{ChromeTracer, EpochRecorder};

    let mut cfg = CycleConfig::new(presets::ddr3_1333_x64());
    cfg.page_policy = CyclePagePolicy::Open;
    let mut plain = CycleCtrl::new(cfg.clone()).unwrap();
    let mut traced =
        CycleCtrl::with_probe(cfg, (ChromeTracer::new(), EpochRecorder::new(1_000_000))).unwrap();

    // Deterministic mixed workload over several banks and rows.
    let mut state = 0x0B5u64;
    let mut step = || {
        state = state
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        state >> 33
    };
    let mut t = 0;
    for i in 0..200u64 {
        let a = addr((step() % 8) as u32, step() % 64, step() % 64);
        let req = if step() % 3 == 0 {
            MemRequest::write(ReqId(i), a, 64)
        } else {
            MemRequest::read(ReqId(i), a, 64)
        };
        t += step() % 20_000;
        let (mut o1, mut o2) = (Vec::new(), Vec::new());
        plain.advance_to(t, &mut o1);
        traced.advance_to(t, &mut o2);
        assert_eq!(o1, o2, "tracing perturbed responses before tick {t}");
        assert_eq!(
            plain.try_send(req, t).is_ok(),
            traced.try_send(req, t).is_ok(),
            "tracing perturbed flow control at tick {t}"
        );
    }
    let (mut o1, mut o2) = (Vec::new(), Vec::new());
    let t1 = plain.drain(&mut o1);
    let t2 = traced.drain(&mut o2);
    assert_eq!(t1, t2, "tracing perturbed the drain tick");
    assert_eq!(o1, o2, "tracing perturbed the final responses");
    assert_eq!(
        plain.report("ctrl", t1).to_string(),
        traced.report("ctrl", t2).to_string(),
        "tracing perturbed the statistics report"
    );

    let (tracer, mut epochs) = traced.into_probe();
    epochs.finish(t2);
    assert!(!tracer.is_empty(), "tracer saw no events");
    let json = tracer.to_json();
    dramctrl_obs::json::validate(&json).expect("loadable trace JSON");
    assert!(json.contains("\"ACT\"") && json.contains("\"RD\""));
    assert!(!epochs.rows().is_empty(), "no epochs recorded");
}

/// Zero-rate RAS must be byte-transparent on the cycle model too: same
/// responses, flow control, drain tick and (modulo the ras_* counters
/// themselves) the same report as a controller without a fault model.
#[test]
fn zero_rate_ras_is_transparent() {
    use dramctrl_cycle::RasConfig;

    // Drop the ras_* entries and the JSON document closer, which lands on
    // whatever the last entry line is.
    let strip_ras = |json: &str| {
        json.lines()
            .filter(|l| !l.contains("\"ras_"))
            .map(|l| l.trim_end_matches("]}").trim_end_matches(','))
            .collect::<Vec<_>>()
            .join("\n")
    };

    for policy in [CyclePagePolicy::Open, CyclePagePolicy::Closed] {
        for sched in [CycleSched::Fcfs, CycleSched::FrFcfs] {
            let mut cfg = CycleConfig::new(presets::ddr3_1333_x64());
            cfg.page_policy = policy;
            cfg.scheduling = sched;
            let mut armed_cfg = cfg.clone();
            armed_cfg.ras = Some(RasConfig::new(0xA5)); // all rates zero
            let mut plain = CycleCtrl::new(cfg).unwrap();
            let mut armed = CycleCtrl::new(armed_cfg).unwrap();

            let mut state = 0x5EEDu64;
            let mut step = || {
                state = state
                    .wrapping_mul(6364136223846793005)
                    .wrapping_add(1442695040888963407);
                state >> 33
            };
            let mut t = 0;
            for i in 0..300u64 {
                let a = addr((step() % 8) as u32, step() % 64, step() % 64);
                let req = if step() % 3 == 0 {
                    MemRequest::write(ReqId(i), a, 64)
                } else {
                    MemRequest::read(ReqId(i), a, 64)
                };
                t += step() % 15_000;
                let (mut o1, mut o2) = (Vec::new(), Vec::new());
                plain.advance_to(t, &mut o1);
                armed.advance_to(t, &mut o2);
                assert_eq!(o1, o2, "RAS perturbed responses ({policy}/{sched:?})");
                assert_eq!(
                    plain.try_send(req, t).is_ok(),
                    armed.try_send(req, t).is_ok(),
                    "RAS perturbed flow control ({policy}/{sched:?})"
                );
            }
            let (mut o1, mut o2) = (Vec::new(), Vec::new());
            let t1 = plain.drain(&mut o1);
            let t2 = armed.drain(&mut o2);
            assert_eq!(t1, t2, "RAS perturbed the drain tick");
            assert_eq!(o1, o2, "RAS perturbed the final responses");
            assert_eq!(
                strip_ras(&plain.report("ctrl", t1).to_json()),
                strip_ras(&armed.report("ctrl", t2).to_json()),
                "RAS perturbed the statistics ({policy}/{sched:?})"
            );
            let fm = armed.fault_model().unwrap();
            assert!(
                fm.stats().entries().iter().all(|&(_, v)| v == 0),
                "zero-rate model recorded faults"
            );
            assert!(fm.log().is_empty());
        }
    }
}

/// A seeded faulty cycle run is fully deterministic: byte-identical fault
/// log and stats JSON across repeated runs, with corrected errors under
/// SEC-DED at single-bit rates and zero silent corruptions.
#[test]
fn faulty_cycle_runs_are_deterministic() {
    use dramctrl_cycle::{EccMode, RasConfig};

    let run = || {
        let mut cfg = CycleConfig::new(presets::ddr3_1333_x64());
        cfg.ras = Some(RasConfig::from_error_rate(2e11, 0xFA_15).with_ecc(EccMode::SecDed));
        let mut c = CycleCtrl::new(cfg).unwrap();
        let mut state = 0xDEAFu64;
        let mut step = || {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            state >> 33
        };
        let mut t = 0;
        let mut out = Vec::new();
        for i in 0..400u64 {
            let a = addr((step() % 8) as u32, step() % 128, step() % 64);
            let req = if step() % 3 == 0 {
                MemRequest::write(ReqId(i), a, 64)
            } else {
                MemRequest::read(ReqId(i), a, 64)
            };
            t += step() % 25_000;
            c.advance_to(t, &mut out);
            if c.can_accept(req.cmd, req.addr, req.size) {
                c.try_send(req, t).unwrap();
            }
        }
        let end = c.drain(&mut out);
        let report = c.report("ctrl", end);
        let fm = c.fault_model().unwrap();
        (fm.log_text(), report.to_json(), report)
    };

    let (log1, json1, report) = run();
    let (log2, json2, _) = run();
    assert_eq!(log1, log2, "fault log not deterministic");
    assert_eq!(json1, json2, "stats JSON not deterministic");
    assert!(!log1.is_empty(), "no faults injected at a high rate");
    assert!(
        report.get("ras_corrected").unwrap() > 0.0,
        "SEC-DED corrected nothing"
    );
    // SEC-DED only goes silent on the modelled multi-symbol syndrome
    // alias, never on a single-symbol fault.
    assert!(
        report.get("ras_silent").unwrap() <= report.get("ras_rank_failures").unwrap(),
        "single-symbol fault escaped SEC-DED"
    );
}

/// Link-error retries on the cycle model: every request still completes,
/// retries are counted, and the run stays deterministic.
#[test]
fn cycle_link_retries_complete_and_count() {
    use dramctrl_cycle::RasConfig;

    let run = |ras: Option<RasConfig>| {
        let mut cfg = CycleConfig::new(presets::ddr3_1333_x64());
        cfg.ras = ras;
        let mut c = CycleCtrl::new(cfg).unwrap();
        let mut out = Vec::new();
        for i in 0..200u64 {
            let t = i * 10_000;
            c.advance_to(t, &mut out);
            let req = if i % 4 == 0 {
                MemRequest::write(ReqId(i), (i % 16) * 4096 + i * 64, 64)
            } else {
                MemRequest::read(ReqId(i), (i % 16) * 4096 + i * 64, 64)
            };
            if c.can_accept(req.cmd, req.addr, req.size) {
                c.try_send(req, t).unwrap();
            }
        }
        let end = c.drain(&mut out);
        (out.len(), c.report("ctrl", end))
    };

    let mut ras = RasConfig::new(0x11E);
    ras.link_error_rate = 0.05;
    let (n_plain, _) = run(None);
    let (n1, r1) = run(Some(ras.clone()));
    let (n2, r2) = run(Some(ras));
    assert_eq!(n1, n_plain, "retries lost responses");
    assert_eq!(n1, n2, "faulty run response count not deterministic");
    assert_eq!(r1.to_json(), r2.to_json(), "faulty run not deterministic");
    assert!(r1.get("ras_retries").unwrap() > 0.0, "no retries recorded");
    assert!(
        r1.get("ras_crc_errors").unwrap() + r1.get("ras_parity_errors").unwrap() > 0.0,
        "no link errors recorded"
    );
}

/// Checkpoint/restore equivalence on the cycle model: pause a run
/// mid-flight, snapshot, restore into a *fresh* controller built from the
/// same configuration, and run both to completion in lockstep — every
/// response, the drain tick, the rendered report and the post-pause trace
/// suffix must be byte-identical to the uninterrupted run. Covers the
/// policy × scheduler matrix plus a RAS-armed, write-snooping run.
#[test]
fn checkpoint_restore_equivalent() {
    use dramctrl_cycle::{CycleCtrl, EccMode, RasConfig};
    use dramctrl_kernel::snap::{fingerprint, SnapReader, SnapState, SnapWriter};
    use dramctrl_obs::ChromeTracer;

    let mut cfgs = Vec::new();
    for policy in [CyclePagePolicy::Open, CyclePagePolicy::Closed] {
        for sched in [CycleSched::Fcfs, CycleSched::FrFcfs] {
            let mut cfg = CycleConfig::new(presets::ddr3_1333_x64());
            cfg.page_policy = policy;
            cfg.scheduling = sched;
            cfgs.push(cfg);
        }
    }
    let mut ras_cfg = CycleConfig::new(presets::ddr3_1333_x64());
    ras_cfg.ras = Some(RasConfig::from_error_rate(2e11, 0xC4C1).with_ecc(EccMode::SecDed));
    ras_cfg.write_snooping = true;
    cfgs.push(ras_cfg);

    for cfg in cfgs {
        let fp = fingerprint(format!("{cfg:?}").as_bytes());
        let label = format!("{}/{:?}", cfg.page_policy, cfg.scheduling);
        let mut base = CycleCtrl::with_probe(cfg.clone(), ChromeTracer::new()).unwrap();
        let mut resumed: Option<CycleCtrl<ChromeTracer>> = None;

        let mut state = 0xC4C2u64;
        let mut step = || {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            state >> 33
        };
        let mut t = 0;
        let (mut bout, mut rout) = (Vec::new(), Vec::new());
        for i in 0..300u64 {
            if i == 150 {
                let mut w = SnapWriter::new(fp);
                base.save_state(&mut w);
                let bytes = w.into_bytes();
                assert!(bytes.len() > 64, "implausibly small snapshot");
                // A mismatched fingerprint must be refused loudly.
                assert!(SnapReader::new(&bytes, fp ^ 1).is_err());
                let mut fresh = CycleCtrl::with_probe(cfg.clone(), ChromeTracer::new()).unwrap();
                let mut r = SnapReader::new(&bytes, fp).unwrap();
                fresh.restore_state(&mut r).unwrap();
                assert!(r.is_exhausted(), "trailing snapshot bytes ({label})");
                // From here the baseline records only the trace suffix,
                // directly comparable with the resumed controller's trace.
                let _prefix = std::mem::take(base.probe_mut());
                bout.clear();
                resumed = Some(fresh);
            }
            let a = addr((step() % 8) as u32, step() % 64, step() % 64);
            let req = if step() % 3 == 0 {
                MemRequest::write(ReqId(i), a, 64)
            } else {
                MemRequest::read(ReqId(i), a, 64)
            };
            t += step() % 20_000;
            base.advance_to(t, &mut bout);
            let sent = base.try_send(req, t).is_ok();
            if let Some(res) = resumed.as_mut() {
                res.advance_to(t, &mut rout);
                assert_eq!(bout, rout, "responses diverged at tick {t} ({label})");
                assert_eq!(
                    sent,
                    res.try_send(req, t).is_ok(),
                    "flow control diverged at tick {t} ({label})"
                );
            }
        }
        let end_b = base.drain(&mut bout);
        let res = resumed.as_mut().expect("pause point reached");
        let end_r = res.drain(&mut rout);
        assert_eq!(end_b, end_r, "drain ticks diverged ({label})");
        assert_eq!(bout, rout, "final responses diverged ({label})");
        assert_eq!(
            base.report("ctrl", end_b).to_json(),
            res.report("ctrl", end_r).to_json(),
            "reports diverged ({label})"
        );
        if let (Some(fb), Some(fr)) = (base.fault_model(), res.fault_model()) {
            assert_eq!(fb.log_text(), fr.log_text(), "fault logs diverged");
            assert!(!fb.log_text().is_empty(), "RAS run injected no faults");
        }
        let resumed = resumed.take().expect("pause point reached");
        assert_eq!(
            base.into_probe().to_json(),
            resumed.into_probe().to_json(),
            "trace suffixes diverged ({label})"
        );
    }
}
