//! QoS scheduling tests (paper Section II-C: "The memory controller
//! schedules requests based on the Quality-of-Service requirements of the
//! requesting CPUs and I/O devices").
//!
//! Priorities are per source port; within the highest class present, the
//! normal FR-FCFS/FCFS rules apply.

use dramctrl::{CtrlConfig, DramCtrl, SchedPolicy};
use dramctrl_mem::{
    presets, AddrMapping, Controller, Decoder, DramAddr, MemRequest, MemResponse, ReqId,
};

fn ctrl(qos: Vec<u8>, sched: SchedPolicy) -> DramCtrl {
    let mut cfg = CtrlConfig::new(presets::ddr3_1333_x64());
    cfg.spec.timing.t_refi = 0;
    cfg.qos_priorities = qos;
    cfg.scheduling = sched;
    DramCtrl::new(cfg).unwrap()
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

fn drain(c: &mut DramCtrl) -> Vec<MemResponse> {
    let mut out = Vec::new();
    c.drain(&mut out);
    out
}

/// Background reads from source 0, one urgent read from source 1.
fn flood_plus_urgent(c: &mut DramCtrl) {
    for i in 0..16u64 {
        // Conflict-heavy background: a different row of bank 0 each time.
        let req = MemRequest::read(ReqId(i), addr(0, i, 0), 64).with_source(0);
        c.try_send(req, 0).unwrap();
    }
    let urgent = MemRequest::read(ReqId(99), addr(1, 5, 0), 64).with_source(1);
    c.try_send(urgent, 0).unwrap();
}

#[test]
fn high_priority_bypasses_the_flood() {
    let mut with_qos = ctrl(vec![0, 7], SchedPolicy::FrFcfs);
    flood_plus_urgent(&mut with_qos);
    let out = drain(&mut with_qos);
    let urgent = out.iter().find(|r| r.id == ReqId(99)).unwrap();
    // Served ahead of all 16 background conflicts — wait, the first
    // background access was already chosen before the urgent request...
    // no: all arrive at tick 0; the urgent one wins the first slot.
    assert_eq!(urgent.ready_at, 33_000, "urgent read served first");

    let mut no_qos = ctrl(vec![], SchedPolicy::FrFcfs);
    flood_plus_urgent(&mut no_qos);
    let out = drain(&mut no_qos);
    let urgent = out.iter().find(|r| r.id == ReqId(99)).unwrap();
    // Without QoS, FR-FCFS treats it like any other request; bank 1 is
    // free so it goes early, but behind at least the first bank-0 access
    // on the bus. With QoS it must be strictly first.
    assert!(urgent.ready_at >= 33_000);
}

#[test]
fn equal_priorities_behave_like_no_qos() {
    let run = |qos: Vec<u8>| {
        let mut c = ctrl(qos, SchedPolicy::FrFcfs);
        flood_plus_urgent(&mut c);
        drain(&mut c)
            .iter()
            .map(|r| (r.id, r.ready_at))
            .collect::<Vec<_>>()
    };
    assert_eq!(run(vec![]), run(vec![3, 3]));
}

#[test]
fn row_hits_still_win_within_a_class() {
    let mut c = ctrl(vec![0, 7], SchedPolicy::FrFcfs);
    // Two high-priority reads: a conflict then a row hit; the hit (sent
    // second) is served first within the class.
    c.try_send(
        MemRequest::read(ReqId(0), addr(0, 1, 0), 64).with_source(1),
        0,
    )
    .unwrap();
    c.try_send(
        MemRequest::read(ReqId(1), addr(0, 2, 0), 64).with_source(1),
        0,
    )
    .unwrap();
    c.try_send(
        MemRequest::read(ReqId(2), addr(0, 1, 1), 64).with_source(1),
        0,
    )
    .unwrap();
    let out = drain(&mut c);
    let order: Vec<_> = out.iter().map(|r| r.id.0).collect();
    assert_eq!(order, vec![0, 2, 1]);
}

#[test]
fn fcfs_respects_priority_classes() {
    let mut c = ctrl(vec![0, 7], SchedPolicy::Fcfs);
    flood_plus_urgent(&mut c);
    let out = drain(&mut c);
    assert_eq!(out[0].id, ReqId(99), "urgent first even under FCFS");
}

#[test]
fn unmapped_sources_default_to_lowest() {
    let mut c = ctrl(vec![0, 7], SchedPolicy::FrFcfs);
    // Source 5 is beyond the priority table: priority 0.
    c.try_send(
        MemRequest::read(ReqId(0), addr(0, 1, 0), 64).with_source(5),
        0,
    )
    .unwrap();
    c.try_send(
        MemRequest::read(ReqId(1), addr(1, 1, 0), 64).with_source(1),
        0,
    )
    .unwrap();
    let out = drain(&mut c);
    assert_eq!(out[0].id, ReqId(1));
}

#[test]
fn writes_also_prioritised_within_drain() {
    // Two writes, low priority to bank 0 row A first, then high priority
    // to bank 1; during the drain the high-priority write issues first.
    let mut cfg = CtrlConfig::new(presets::ddr3_1333_x64());
    cfg.spec.timing.t_refi = 0;
    cfg.qos_priorities = vec![0, 7];
    cfg.write_buffer_size = 4;
    cfg.write_high_thresh = 0.5; // drain at 2 queued writes
    cfg.write_low_thresh = 0.25;
    let mut c = DramCtrl::new(cfg).unwrap();
    c.try_send(
        MemRequest::write(ReqId(0), addr(0, 1, 0), 64).with_source(0),
        0,
    )
    .unwrap();
    c.try_send(
        MemRequest::write(ReqId(1), addr(1, 1, 0), 64).with_source(1),
        0,
    )
    .unwrap();
    drain(&mut c);
    // Observable through bank state: the LAST write leaves its row open;
    // high priority went first, so bank 0's row is the one left open by
    // the final (low-priority) write.
    assert_eq!(c.open_row(0, 0), Some(1));
    assert_eq!(c.open_row(0, 1), Some(1));
    // And both were serviced.
    assert_eq!(c.stats().common.wr_bursts, 2);
}
