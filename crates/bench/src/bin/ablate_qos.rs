//! Ablation — QoS priorities (paper Section II-C: scheduling respects the
//! requestors' Quality-of-Service requirements).
//!
//! The adversarial case for a latency-sensitive requestor is a backlog of
//! *same-bank* row conflicts: FR-FCFS's first-ready-bank rule cannot dodge
//! them (every candidate waits on the same bank), so without QoS the
//! probe queues behind the whole backlog. With a higher priority it is
//! served first at near-unloaded latency.

use dramctrl::PagePolicy;
use dramctrl_bench::{f1, Table};
use dramctrl_campaign::Model;
use dramctrl_mem::{presets, AddrMapping, Controller, DramAddr, MemRequest, MemResponse, ReqId};
use dramctrl_runner::Wiring;
use dramctrl_stats::Average;

fn addr(bank: u32, row: u64) -> u64 {
    AddrMapping::RoRaBaCoCh.encode(
        &DramAddr {
            rank: 0,
            bank,
            row,
            col: 0,
        },
        0,
        &presets::ddr3_1333_x64().org,
        1,
    )
}

/// Average probe latency (ns) over many trials, each with a
/// `backlog`-deep same-bank conflict flood queued alongside the probe.
fn probe_latency(qos: bool, backlog: u64) -> f64 {
    let mut w = Wiring::new(presets::ddr3_1333_x64(), Model::Event);
    w.ctrl.spec.timing.t_refi = 0;
    w.ctrl.page_policy = PagePolicy::Open;
    if qos {
        w.ctrl.qos_priorities = vec![0, 7];
    }
    let mut mem = w.build().expect("valid wiring");
    let mut lat = Average::new();
    let mut out: Vec<MemResponse> = Vec::new();
    let mut t0 = 0u64;
    let mut id = 0u64;
    for trial in 0..200u64 {
        for i in 0..backlog {
            let row = trial * backlog + i + 1_000;
            let req = MemRequest::read(ReqId(id), addr(0, row), 64).with_source(0);
            id += 1;
            mem.try_send(req, t0).unwrap();
        }
        let probe = MemRequest::read(ReqId(id), addr(0, trial), 64).with_source(1);
        let probe_id = probe.id;
        id += 1;
        mem.try_send(probe, t0).unwrap();
        let end = mem.drain(&mut out);
        let resp = out
            .iter()
            .find(|r| r.id == probe_id)
            .expect("probe answered");
        lat.record((resp.ready_at - t0) as f64 / 1_000.0);
        out.clear();
        t0 = end + 1_000_000; // 1 us of silence between trials
    }
    lat.mean()
}

fn main() {
    println!("Ablation: QoS isolation under same-bank conflict backlogs (DDR3-1333)\n");
    let mut table = Table::new([
        "backlog depth",
        "probe lat, no QoS (ns)",
        "probe lat, QoS (ns)",
        "isolation",
    ]);
    for backlog in [4u64, 8, 16, 31] {
        let off = probe_latency(false, backlog);
        let on = probe_latency(true, backlog);
        table.row([
            backlog.to_string(),
            f1(off),
            f1(on),
            format!("{:.1}x", off / on),
        ]);
    }
    table.print();
    println!("\n(Without QoS the probe rides behind the whole bank backlog;");
    println!(" with priority 7 it is served first at near-unloaded latency.)");
}
