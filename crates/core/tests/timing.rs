//! Cycle-exact timing tests for the event-based controller.
//!
//! Every expected latency below is derived by hand from the DDR3-1333
//! timing parameters (`tRCD = tCL = tRP = 13.5 ns`, `tRAS = 36 ns`,
//! `tBURST = 6 ns`, `tRRD = 6 ns`, `tXAW = 30 ns` with a 4-activate limit,
//! `tWTR = 7.5 ns`, `tRTW = 3 ns`, `tRTP = 7.5 ns`, `tWR = 15 ns`,
//! `tRFC = 160 ns`, `tREFI = 7.8 us`). Ticks are picoseconds.

use dramctrl::{CtrlConfig, DramCtrl, PagePolicy, SchedPolicy};
use dramctrl_mem::{
    presets, AddrMapping, Controller, Decoder, DramAddr, MemRequest, MemResponse, ReqId,
};

/// A DDR3-1333 controller with refresh disabled (deterministic timing) and
/// the given tweaks applied.
fn ctrl_with(f: impl FnOnce(&mut CtrlConfig)) -> DramCtrl {
    let mut cfg = CtrlConfig::new(presets::ddr3_1333_x64());
    cfg.spec.timing.t_refi = 0; // no refresh unless a test asks for it
    f(&mut cfg);
    DramCtrl::new(cfg).expect("valid test config")
}

fn ctrl() -> DramCtrl {
    ctrl_with(|_| {})
}

/// Byte address of (bank, row, col) under the default mapping.
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

fn run(ctrl: &mut DramCtrl) -> Vec<MemResponse> {
    let mut out = Vec::new();
    ctrl.drain(&mut out);
    out
}

#[test]
fn cold_read_is_rcd_cl_burst() {
    let mut c = ctrl();
    c.try_send(MemRequest::read(ReqId(0), addr(0, 5, 0), 64), 0)
        .unwrap();
    let out = run(&mut c);
    // tRCD + tCL + tBURST = 13.5 + 13.5 + 6 ns.
    assert_eq!(out[0].ready_at, 33_000);
    assert_eq!(c.stats().common.activates, 1);
    assert_eq!(c.stats().rd_row_hits, 0);
}

#[test]
fn row_hit_streams_back_to_back() {
    let mut c = ctrl();
    for i in 0..2 {
        c.try_send(MemRequest::read(ReqId(i), addr(0, 5, i), 64), 0)
            .unwrap();
    }
    let out = run(&mut c);
    assert_eq!(out[0].ready_at, 33_000);
    // The second burst follows immediately on the data bus.
    assert_eq!(out[1].ready_at, 39_000);
    assert_eq!(c.stats().rd_row_hits, 1);
    assert_eq!(c.stats().common.activates, 1);
}

#[test]
fn bank_conflict_pays_ras_rp_rcd() {
    let mut c = ctrl();
    c.try_send(MemRequest::read(ReqId(0), addr(0, 5, 0), 64), 0)
        .unwrap();
    c.try_send(MemRequest::read(ReqId(1), addr(0, 6, 0), 64), 0)
        .unwrap();
    let out = run(&mut c);
    assert_eq!(out[0].ready_at, 33_000);
    // PRE gated by tRAS (36 ns), then tRP + tRCD + tCL + tBURST.
    // 36 + 13.5 + 13.5 + 13.5 + 6 = 82.5 ns.
    assert_eq!(out[1].ready_at, 82_500);
    assert_eq!(c.stats().common.precharges, 1);
    assert_eq!(c.stats().common.activates, 2);
}

#[test]
fn different_banks_overlap_fully() {
    let mut c = ctrl();
    c.try_send(MemRequest::read(ReqId(0), addr(0, 5, 0), 64), 0)
        .unwrap();
    c.try_send(MemRequest::read(ReqId(1), addr(1, 9, 0), 64), 0)
        .unwrap();
    let out = run(&mut c);
    // Bank 1's ACT (at tRRD = 6 ns) hides behind bank 0's access; the
    // second burst is bus-limited, as if it were a row hit.
    assert_eq!(out[0].ready_at, 33_000);
    assert_eq!(out[1].ready_at, 39_000);
    assert_eq!(c.stats().common.activates, 2);
    assert_eq!(c.stats().rd_row_hits, 0);
}

#[test]
fn activation_window_gates_fifth_bank() {
    let send_five = |c: &mut DramCtrl| {
        for b in 0..5 {
            c.try_send(MemRequest::read(ReqId(b.into()), addr(b, 1, 0), 64), 0)
                .unwrap();
        }
    };
    // With the tXAW window (30 ns, 4 activates): ACTs at 0, 6, 12, 18 ns,
    // then the 5th waits until 30 ns, pushing its data to 57..63 ns.
    let mut limited = ctrl();
    send_five(&mut limited);
    let out = run(&mut limited);
    assert_eq!(out[4].ready_at, 63_000);

    // Without the limit the 5th ACT goes at 24 ns and data stays
    // bus-limited: 51..57 ns.
    let mut unlimited = ctrl_with(|cfg| cfg.spec.timing.activation_limit = 0);
    send_five(&mut unlimited);
    let out = run(&mut unlimited);
    assert_eq!(out[4].ready_at, 57_000);
}

#[test]
fn write_acknowledged_on_enqueue() {
    let mut c = ctrl();
    c.try_send(MemRequest::write(ReqId(0), addr(0, 2, 0), 64), 0)
        .unwrap();
    let mut out = Vec::new();
    c.advance_to(0, &mut out);
    // Early write response at enqueue time (zero frontend latency).
    assert_eq!(out.len(), 1);
    assert_eq!(out[0].ready_at, 0);
    // The write itself has not touched DRAM yet (held below the low
    // watermark).
    assert_eq!(c.stats().common.wr_bursts, 0);
    assert_eq!(c.write_queue_len(), 1);
    run(&mut c);
    assert_eq!(c.stats().common.wr_bursts, 1);
}

#[test]
fn read_forwarded_from_write_queue() {
    let mut c = ctrl();
    let a = addr(0, 2, 0);
    c.try_send(MemRequest::write(ReqId(0), a, 64), 0).unwrap();
    c.try_send(MemRequest::read(ReqId(1), a, 64), 0).unwrap();
    let out = run(&mut c);
    let read = out.iter().find(|r| r.id == ReqId(1)).unwrap();
    // Serviced from the write queue: no DRAM latency at all.
    assert_eq!(read.ready_at, 0);
    assert_eq!(c.stats().forwarded_reads, 1);
    assert_eq!(c.stats().common.rd_bursts, 0);
}

#[test]
fn partial_read_not_forwarded() {
    let mut c = ctrl();
    let a = addr(0, 2, 0);
    // Write covers only the first 16 bytes of the burst.
    c.try_send(MemRequest::write(ReqId(0), a, 16), 0).unwrap();
    c.try_send(MemRequest::read(ReqId(1), a, 64), 0).unwrap();
    run(&mut c);
    assert_eq!(c.stats().forwarded_reads, 0);
    assert_eq!(c.stats().common.rd_bursts, 1);
}

#[test]
fn writes_merge_when_subsumed() {
    let mut c = ctrl();
    let a = addr(0, 2, 0);
    c.try_send(MemRequest::write(ReqId(0), a, 64), 0).unwrap();
    c.try_send(MemRequest::write(ReqId(1), a + 8, 8), 0)
        .unwrap();
    assert_eq!(c.stats().merged_writes, 1);
    assert_eq!(c.write_queue_len(), 1);
    // A write that is not subsumed gets its own entry.
    c.try_send(MemRequest::write(ReqId(2), a + 64, 64), 0)
        .unwrap();
    assert_eq!(c.write_queue_len(), 2);
}

#[test]
fn large_read_chopped_single_response() {
    let mut c = ctrl();
    // 256 B = 4 bursts, same row.
    c.try_send(MemRequest::read(ReqId(0), addr(0, 5, 0), 256), 0)
        .unwrap();
    let out = run(&mut c);
    assert_eq!(out.len(), 1);
    // tRCD + tCL + 4 * tBURST.
    assert_eq!(out[0].ready_at, 51_000);
    assert_eq!(c.stats().common.rd_bursts, 4);
    assert_eq!(c.stats().rd_row_hits, 3);
}

#[test]
fn cache_line_chopped_on_narrow_interface() {
    // LPDDR3 x32: 32-byte bursts, so a 64-byte line needs two bursts —
    // the sub-cache-line handling of paper Section II-A.
    let mut cfg = CtrlConfig::new(presets::lpddr3_1600_x32());
    cfg.spec.timing.t_refi = 0;
    let mut c = DramCtrl::new(cfg).unwrap();
    c.try_send(MemRequest::read(ReqId(0), 0, 64), 0).unwrap();
    let out = run(&mut c);
    assert_eq!(out.len(), 1);
    assert_eq!(c.stats().common.rd_bursts, 2);
    // Second burst is a row hit (sequential sub-accesses benefit).
    assert_eq!(c.stats().rd_row_hits, 1);
    // tRCD + tCL + 2*tBURST = 15 + 15 + 10 ns.
    assert_eq!(out[0].ready_at, 40_000);
}

#[test]
fn static_latencies_add_to_reads_and_acks() {
    let mut c = ctrl_with(|cfg| {
        cfg.frontend_latency = 10_000;
        cfg.backend_latency = 20_000;
    });
    c.try_send(MemRequest::write(ReqId(0), addr(0, 1, 0), 64), 0)
        .unwrap();
    c.try_send(MemRequest::read(ReqId(1), addr(0, 5, 0), 64), 0)
        .unwrap();
    let out = run(&mut c);
    let ack = out.iter().find(|r| r.id == ReqId(0)).unwrap();
    let read = out.iter().find(|r| r.id == ReqId(1)).unwrap();
    assert_eq!(ack.ready_at, 10_000, "write ack pays the frontend");
    assert_eq!(read.ready_at, 33_000 + 30_000, "read pays front+back");
}

#[test]
fn write_then_read_pays_wtr_turnaround() {
    // Single-entry write buffer so the write drains immediately.
    let mut c = ctrl_with(|cfg| {
        cfg.write_buffer_size = 1;
        cfg.write_high_thresh = 1.0;
        cfg.write_low_thresh = 1.0;
    });
    c.try_send(MemRequest::write(ReqId(0), addr(0, 5, 0), 64), 0)
        .unwrap();
    let mut out = Vec::new();
    c.advance_to(500, &mut out); // write issue decided; data on bus 27..33 ns
    assert_eq!(c.stats().common.wr_bursts, 1);
    // Read arrives while the write burst is still in flight.
    c.try_send(MemRequest::read(ReqId(1), addr(0, 5, 1), 64), 1_000)
        .unwrap();
    c.advance_to(200_000, &mut out);
    let read = out.iter().find(|r| r.id == ReqId(1)).unwrap();
    // Write data ends at 33 ns; the row hit's CAS could deliver at 20.5 ns
    // + tCL, but the turnaround pins the read data to start no earlier
    // than 33 + tWTR + tCL = 54 ns; ends 60 ns.
    assert_eq!(read.ready_at, 60_000);
    assert_eq!(c.stats().bus_turnarounds, 1);
}

#[test]
fn read_then_write_pays_rtw_bubble() {
    let mut c = ctrl_with(|cfg| {
        cfg.write_buffer_size = 1;
        cfg.write_high_thresh = 1.0;
        cfg.write_low_thresh = 1.0;
    });
    c.try_send(MemRequest::read(ReqId(0), addr(0, 5, 0), 64), 0)
        .unwrap();
    c.try_send(MemRequest::write(ReqId(1), addr(0, 5, 1), 64), 0)
        .unwrap();
    run(&mut c);
    // Read data 27..33 ns; write data start = 33 + tRTW(3) = 36 ns.
    // Visible through the accumulated turnaround count and bus busy time.
    assert_eq!(c.stats().bus_turnarounds, 1);
    assert_eq!(c.stats().common.rd_bursts, 1);
    assert_eq!(c.stats().common.wr_bursts, 1);
}

#[test]
fn high_watermark_forces_write_drain_before_reads() {
    let mut c = ctrl_with(|cfg| {
        cfg.write_buffer_size = 8;
        cfg.write_high_thresh = 0.5; // 4 entries
        cfg.write_low_thresh = 0.5;
        cfg.min_writes_per_switch = 2;
    });
    // Four writes to one row of bank 1 reach the high watermark; one read
    // to bank 0 waits.
    for i in 0..4u64 {
        c.try_send(MemRequest::write(ReqId(i), addr(1, 1, i), 64), 0)
            .unwrap();
    }
    c.try_send(MemRequest::read(ReqId(9), addr(0, 5, 0), 64), 0)
        .unwrap();
    let mut out = Vec::new();
    c.advance_to(1_000_000, &mut out);
    let read = out.iter().find(|r| r.id == ReqId(9)).unwrap();
    // Two writes (the minimum per switch) go first: data 27..33, 33..39 ns.
    // Read turnaround: 39 + tWTR + tCL = 60 ns; data ends 66 ns.
    assert_eq!(read.ready_at, 66_000);
    assert_eq!(
        c.stats().common.wr_bursts,
        2,
        "min_writes_per_switch honoured"
    );
}

#[test]
fn refresh_delays_reads_by_rfc() {
    // Keep the default 7.8 us refresh interval.
    let mut cfg = CtrlConfig::new(presets::ddr3_1333_x64());
    let t_refi = cfg.spec.timing.t_refi;
    let t_rfc = cfg.spec.timing.t_rfc;
    cfg.page_policy = PagePolicy::Open;
    let mut c = DramCtrl::new(cfg).unwrap();
    // A read arriving exactly at the refresh deadline sees the full tRFC.
    c.try_send(MemRequest::read(ReqId(0), addr(0, 5, 0), 64), t_refi)
        .unwrap();
    let mut out = Vec::new();
    c.advance_to(t_refi + t_rfc + 100_000, &mut out);
    assert_eq!(out[0].ready_at, t_refi + t_rfc + 33_000);
    assert_eq!(c.stats().common.refreshes, 1);
}

#[test]
fn refreshes_recur_every_refi() {
    let mut cfg = CtrlConfig::new(presets::ddr3_1333_x64());
    let t_refi = cfg.spec.timing.t_refi;
    cfg.page_policy = PagePolicy::Open;
    let mut c = DramCtrl::new(cfg).unwrap();
    let mut out = Vec::new();
    c.advance_to(10 * t_refi, &mut out);
    assert_eq!(c.stats().common.refreshes, 10);
    assert!(out.is_empty());
}

#[test]
fn frfcfs_prioritises_row_hits() {
    let mut c = ctrl();
    c.try_send(MemRequest::read(ReqId(0), addr(0, 5, 0), 64), 0)
        .unwrap();
    c.try_send(MemRequest::read(ReqId(1), addr(0, 6, 0), 64), 0)
        .unwrap();
    c.try_send(MemRequest::read(ReqId(2), addr(0, 5, 1), 64), 0)
        .unwrap();
    let out = run(&mut c);
    let order: Vec<_> = out.iter().map(|r| r.id.0).collect();
    assert_eq!(order, vec![0, 2, 1], "row hit (id 2) bypasses conflict");
    assert_eq!(out[1].ready_at, 39_000);
    assert_eq!(out[2].ready_at, 82_500);
}

#[test]
fn fcfs_serves_in_arrival_order() {
    let mut c = ctrl_with(|cfg| cfg.scheduling = SchedPolicy::Fcfs);
    c.try_send(MemRequest::read(ReqId(0), addr(0, 5, 0), 64), 0)
        .unwrap();
    c.try_send(MemRequest::read(ReqId(1), addr(0, 6, 0), 64), 0)
        .unwrap();
    c.try_send(MemRequest::read(ReqId(2), addr(0, 5, 1), 64), 0)
        .unwrap();
    let out = run(&mut c);
    let order: Vec<_> = out.iter().map(|r| r.id.0).collect();
    assert_eq!(order, vec![0, 1, 2]);
    // Request 2 reopens row 5 after the conflict: 82.5 + 36 + 13.5 ns of
    // bank cycling... derived: pre at 85.5 (tRAS after ACT at 49.5),
    // ACT 99, CAS 112.5, data 126..132 ns.
    assert_eq!(out[2].ready_at, 132_000);
}

#[test]
fn closed_adaptive_keeps_row_for_queued_hits() {
    let two_same_row = |c: &mut DramCtrl| {
        c.try_send(MemRequest::read(ReqId(0), addr(0, 5, 0), 64), 0)
            .unwrap();
        c.try_send(MemRequest::read(ReqId(1), addr(0, 5, 1), 64), 0)
            .unwrap();
    };
    let mut closed = ctrl_with(|cfg| cfg.page_policy = PagePolicy::Closed);
    two_same_row(&mut closed);
    let out = run(&mut closed);
    assert_eq!(closed.stats().rd_row_hits, 0);
    assert_eq!(closed.stats().common.activates, 2);
    // Reopen after auto-precharge: PRE allowed at tRAS = 36, +tRP +tRCD
    // +tCL +tBURST = 82.5 ns.
    assert_eq!(out[1].ready_at, 82_500);

    let mut adaptive = ctrl_with(|cfg| cfg.page_policy = PagePolicy::ClosedAdaptive);
    two_same_row(&mut adaptive);
    let out = run(&mut adaptive);
    assert_eq!(adaptive.stats().rd_row_hits, 1);
    assert_eq!(adaptive.stats().common.activates, 1);
    assert_eq!(out[1].ready_at, 39_000);
    // With nothing left queued the row was auto-precharged.
    assert_eq!(adaptive.open_row(0, 0), None);
}

#[test]
fn open_adaptive_closes_on_queued_conflict() {
    // A write to another row of the same bank sits in the write queue
    // (below the low watermark, so it is never drained); the adaptive
    // policy closes the row right after the read, the plain open policy
    // leaves it open.
    let scenario = |policy| {
        let mut c = ctrl_with(|cfg| cfg.page_policy = policy);
        c.try_send(MemRequest::write(ReqId(0), addr(0, 9, 0), 64), 0)
            .unwrap();
        c.try_send(MemRequest::read(ReqId(1), addr(0, 5, 0), 64), 0)
            .unwrap();
        let mut out = Vec::new();
        c.advance_to(1_000_000, &mut out);
        c
    };
    let open = scenario(PagePolicy::Open);
    assert_eq!(open.open_row(0, 0), Some(5));
    assert_eq!(open.stats().common.precharges, 0);

    let adaptive = scenario(PagePolicy::OpenAdaptive);
    assert_eq!(adaptive.open_row(0, 0), None);
    assert_eq!(adaptive.stats().common.precharges, 1);
}

#[test]
fn starvation_guard_closes_hot_row() {
    let mut c = ctrl_with(|cfg| cfg.max_accesses_per_row = 4);
    for i in 0..8 {
        c.try_send(MemRequest::read(ReqId(i), addr(0, 5, i), 64), 0)
            .unwrap();
    }
    run(&mut c);
    // 8 accesses with a forced close every 4: two activates.
    assert_eq!(c.stats().common.activates, 2);
    assert_eq!(c.stats().rd_row_hits, 6);
}

#[test]
fn write_recovery_gates_precharge() {
    // A write to row A followed by a read to row B of the same bank: the
    // precharge may not issue until tWR after the write data (48 ns),
    // later than the tRAS bound (36 ns) — unlike the read-read conflict
    // case (82.5 ns), this one lands at 94.5 ns.
    let mut c = ctrl_with(|cfg| {
        cfg.write_buffer_size = 1;
        cfg.write_high_thresh = 1.0;
        cfg.write_low_thresh = 1.0;
    });
    c.try_send(MemRequest::write(ReqId(0), addr(0, 1, 0), 64), 0)
        .unwrap();
    let mut out = Vec::new();
    c.advance_to(500, &mut out); // write issued: data 27..33 ns
    c.try_send(MemRequest::read(ReqId(1), addr(0, 2, 0), 64), 1_000)
        .unwrap();
    c.advance_to(300_000, &mut out);
    let read = out.iter().find(|r| r.id == ReqId(1)).unwrap();
    // PRE at 33 + tWR(15) = 48; ACT 61.5; CAS 75; data 88.5..94.5 ns.
    assert_eq!(read.ready_at, 94_500);
}

#[test]
fn read_to_precharge_delay_gates_early_close() {
    // Closed-page single read: the auto-precharge waits for
    // max(ACT + tRAS, CAS + tRTP) = max(36, 13.5 + 7.5) = 36 ns, so the
    // second read to another row starts its ACT at 49.5 ns.
    let mut c = ctrl_with(|cfg| cfg.page_policy = PagePolicy::Closed);
    c.try_send(MemRequest::read(ReqId(0), addr(0, 1, 0), 64), 0)
        .unwrap();
    c.try_send(MemRequest::read(ReqId(1), addr(0, 2, 0), 64), 0)
        .unwrap();
    let out = run(&mut c);
    assert_eq!(out[0].ready_at, 33_000);
    assert_eq!(out[1].ready_at, 82_500);
    // With a long tRTP the close (and thus the reopen) slips by the
    // difference: tRTP = 30 ns makes PRE wait until CAS + 30 = 43.5 ns.
    let mut c = ctrl_with(|cfg| {
        cfg.page_policy = PagePolicy::Closed;
        cfg.spec.timing.t_rtp = 30_000;
    });
    c.try_send(MemRequest::read(ReqId(0), addr(0, 1, 0), 64), 0)
        .unwrap();
    c.try_send(MemRequest::read(ReqId(1), addr(0, 2, 0), 64), 0)
        .unwrap();
    let out = run(&mut c);
    assert_eq!(out[1].ready_at, 90_000); // 43.5 + 13.5 + 27 + 6
}
