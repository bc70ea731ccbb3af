//! Closed-loop system tests: the feedback properties the paper's case
//! studies rely on (Section IV), at miniature scale.

use dramctrl::{CtrlConfig, DramCtrl};
use dramctrl_cycle::{CycleConfig, CycleCtrl};
use dramctrl_mem::{presets, AddrMapping, MemSpec, PagePolicy};
use dramctrl_system::{workload, MultiChannel, System, SystemConfig};

fn ev_ctrl(spec: MemSpec, channels: u32) -> DramCtrl {
    let mut cfg = CtrlConfig::new(spec);
    cfg.channels = channels;
    DramCtrl::new(cfg).unwrap()
}

fn run_on(spec: MemSpec, cores: usize, profile: workload::WorkloadProfile, insts: u64) -> f64 {
    let ctrl = ev_ctrl(spec, 1);
    let profiles = vec![profile; cores];
    let mut sys = System::new(SystemConfig::table2(cores, insts), ctrl, &profiles, 7).unwrap();
    sys.run().ipc
}

#[test]
fn faster_memory_raises_ipc_for_memory_bound_work() {
    let slow = run_on(presets::wideio_200_x128(), 2, workload::canneal(), 60_000);
    let fast = run_on(presets::gddr5_4000_x64(), 2, workload::canneal(), 60_000);
    assert!(
        fast > slow * 1.05,
        "canneal should feel memory speed: {slow:.3} -> {fast:.3}"
    );
}

#[test]
fn compute_bound_work_is_memory_insensitive() {
    // An L1-resident working set: after the cold phase the core never
    // leaves its private cache, so memory speed is irrelevant.
    let tiny = workload::WorkloadProfile {
        name: "l1-resident",
        footprint: 16 << 10,
        read_pct: 80,
        mem_ref_interval: 6,
        seq_lines: 4,
        hot_fraction: 0.5,
        hot_pct: 50,
    };
    // A long run so the (memory-sensitive) cold phase is negligible.
    let slow = run_on(presets::wideio_200_x128(), 1, tiny, 1_000_000);
    let fast = run_on(presets::gddr5_4000_x64(), 1, tiny, 1_000_000);
    let ratio = fast / slow;
    assert!(
        (0.95..1.1).contains(&ratio),
        "an L1-resident workload should barely feel memory speed, got {ratio:.3}"
    );
}

#[test]
fn multi_channel_helps_bandwidth_bound_workloads() {
    let stream = workload::parsec()
        .into_iter()
        .find(|p| p.name == "streamcluster")
        .unwrap();
    let cores = 4;
    let single = {
        let ctrl = ev_ctrl(presets::wideio_200_x128(), 1);
        let mut sys = System::new(
            SystemConfig::table2(cores, 60_000),
            ctrl,
            &vec![stream; cores],
            7,
        )
        .unwrap();
        sys.run().ipc
    };
    let quad = {
        let ctrls = (0..4)
            .map(|_| ev_ctrl(presets::wideio_200_x128(), 4))
            .collect();
        let xbar = MultiChannel::new(ctrls, 0).unwrap();
        let mut sys = System::new(
            SystemConfig::table2(cores, 60_000),
            xbar,
            &vec![stream; cores],
            7,
        )
        .unwrap();
        sys.run().ipc
    };
    assert!(
        quad > single * 1.2,
        "4 WideIO channels should beat 1: {single:.3} -> {quad:.3}"
    );
}

#[test]
fn deterministic_runs() {
    let run = || {
        let ctrl = ev_ctrl(presets::ddr3_1600_x64(), 1);
        let profiles = vec![workload::canneal(); 2];
        let mut sys = System::new(SystemConfig::table2(2, 40_000), ctrl, &profiles, 99).unwrap();
        let r = sys.run();
        (
            r.duration,
            r.insts,
            r.dram.rd_bursts,
            r.dram.wr_bursts,
            format!("{:?}", r.per_core_ipc),
        )
    };
    assert_eq!(run(), run());
}

#[test]
fn writebacks_reach_dram() {
    // A write-heavy workload with an LLC-overflowing footprint must
    // produce DRAM writes via dirty evictions.
    let mut p = workload::canneal();
    p.read_pct = 40;
    let ctrl = ev_ctrl(presets::ddr3_1600_x64(), 1);
    let mut sys = System::new(SystemConfig::table2(2, 60_000), ctrl, &[p; 2], 5).unwrap();
    let r = sys.run();
    assert!(r.dram.wr_bursts > 0, "dirty evictions must write back");
    assert!(r.dram.rd_bursts > r.dram.wr_bursts, "fills dominate");
}

#[test]
fn llc_filters_traffic() {
    // The same workload with a bigger LLC sends less traffic to DRAM.
    let run_with_llc = |mb: u64| {
        let ctrl = ev_ctrl(presets::ddr3_1600_x64(), 1);
        let mut cfg = SystemConfig::table2(2, 60_000);
        cfg.llc.size = mb << 20;
        let p = workload::parsec()
            .into_iter()
            .find(|p| p.name == "freqmine")
            .unwrap();
        let mut sys = System::new(cfg, ctrl, &[p; 2], 11).unwrap();
        let r = sys.run();
        (r.llc_hit_rate, r.dram.rd_bursts)
    };
    let (hit_small, traffic_small) = run_with_llc(1);
    let (hit_big, traffic_big) = run_with_llc(16);
    assert!(hit_big > hit_small, "{hit_small:.3} -> {hit_big:.3}");
    assert!(traffic_big < traffic_small);
}

/// Miniature Figure 8: both controller models under the same closed loop
/// agree to first order on IPC, LLC miss latency and DRAM traffic.
#[test]
fn event_and_cycle_models_agree_in_closed_loop() {
    let profile = workload::canneal();
    let cores = 2;
    let insts = 50_000;

    let ev = {
        let mut cfg = CtrlConfig::new(presets::ddr3_1333_x64());
        cfg.page_policy = PagePolicy::Closed;
        cfg.mapping = AddrMapping::RoCoRaBaCh;
        let ctrl = DramCtrl::new(cfg).unwrap();
        let mut sys = System::new(
            SystemConfig::table2(cores, insts),
            ctrl,
            &vec![profile; cores],
            13,
        )
        .unwrap();
        sys.run()
    };
    let cy = {
        let mut cfg = CycleConfig::new(presets::ddr3_1333_x64());
        cfg.page_policy = PagePolicy::Closed;
        cfg.mapping = AddrMapping::RoCoRaBaCh;
        let ctrl = CycleCtrl::new(cfg).unwrap();
        let mut sys = System::new(
            SystemConfig::table2(cores, insts),
            ctrl,
            &vec![profile; cores],
            13,
        )
        .unwrap();
        sys.run()
    };

    let ipc_ratio = cy.ipc / ev.ipc;
    assert!(
        (0.85..1.15).contains(&ipc_ratio),
        "IPC ratio {ipc_ratio:.3}"
    );
    let lat_ratio = cy.llc_miss_lat.mean() / ev.llc_miss_lat.mean();
    assert!(
        (0.75..1.3).contains(&lat_ratio),
        "miss latency ratio {lat_ratio:.3}"
    );
    // Identical instruction streams produce near-identical fill traffic.
    let traffic_ratio = cy.dram.rd_bursts as f64 / ev.dram.rd_bursts as f64;
    assert!(
        (0.95..1.05).contains(&traffic_ratio),
        "traffic ratio {traffic_ratio:.3}"
    );
}

#[test]
fn prefetcher_helps_latency_bound_sequential_work() {
    // Prefetching pays when the workload is latency-bound with spatial
    // locality: the in-flight next-line fills merge with (or beat) the
    // demand accesses. On bandwidth-bound traffic it cannot help — the
    // bus is the bottleneck — which is why the gain here is a few
    // percent, not a multiple.
    let profile = workload::WorkloadProfile {
        name: "latency-bound-seq",
        footprint: 8 << 20,
        read_pct: 100,
        mem_ref_interval: 20,
        seq_lines: 32,
        hot_fraction: 0.05,
        hot_pct: 5,
    };
    let run = |degree: u32| {
        let ctrl = ev_ctrl(presets::ddr3_1600_x64(), 1);
        let mut cfg = SystemConfig::table2(2, 80_000);
        cfg.prefetch_degree = degree;
        let mut sys = System::new(cfg, ctrl, &[profile; 2], 21).unwrap();
        sys.run()
    };
    let off = run(0);
    let on = run(4);
    assert_eq!(off.prefetches, 0);
    assert!(on.prefetches > 1_000, "prefetches = {}", on.prefetches);
    assert!(
        on.ipc > off.ipc * 1.01,
        "IPC should improve: {:.4} -> {:.4}",
        off.ipc,
        on.ipc
    );
}

#[test]
fn prefetcher_harmless_on_random_workloads() {
    // canneal's scattered reads gain little, but the prefetcher must not
    // tank performance either (MSHR-bounded, drops on pressure).
    let run = |degree: u32| {
        let ctrl = ev_ctrl(presets::ddr3_1600_x64(), 1);
        let mut cfg = SystemConfig::table2(2, 50_000);
        cfg.prefetch_degree = degree;
        let mut sys = System::new(cfg, ctrl, &[workload::canneal(); 2], 21).unwrap();
        sys.run()
    };
    let (off, on) = (run(0), run(2));
    let ratio = on.ipc / off.ipc;
    assert!(ratio > 0.85, "prefetching cost too much: ratio {ratio:.3}");
}

#[test]
fn warmup_isolates_the_region_of_interest() {
    let p = workload::canneal();
    let run = |warmup: u64| {
        let ctrl = ev_ctrl(presets::ddr3_1600_x64(), 1);
        let mut cfg = SystemConfig::table2(2, 60_000);
        cfg.warmup_insts = warmup;
        let mut sys = System::new(cfg, ctrl, &[p; 2], 17).unwrap();
        sys.run()
    };
    let cold = run(0);
    let warm = run(20_000);
    // The warm report covers only post-warm-up work: strictly less DRAM
    // traffic and a shorter region, with ROI-relative utilisation defined.
    assert!(warm.dram.rd_bursts < cold.dram.rd_bursts);
    assert!(warm.roi_duration < warm.duration);
    assert_eq!(cold.roi_duration, cold.duration);
    // Warm IPC excludes the cold-cache region (canneal stays
    // miss-dominated, so the effect is small but the plumbing must hold).
    assert!(warm.ipc > 0.0);
    assert!(warm.llc_miss_lat.count() < cold.llc_miss_lat.count());
}

#[test]
fn warmup_must_be_below_target() {
    let mut cfg = SystemConfig::table2(1, 1_000);
    cfg.warmup_insts = 1_000;
    let ctrl = ev_ctrl(presets::ddr3_1600_x64(), 1);
    assert!(System::new(cfg, ctrl, &[workload::canneal()], 0).is_err());
}
