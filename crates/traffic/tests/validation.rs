//! Small-scale versions of the paper's validation experiments (Section
//! III), asserting the qualitative *shapes* of Figures 3–7 and the
//! first-order agreement between the event-based model and the cycle-based
//! baseline.

use dramctrl::{CtrlConfig, DramCtrl, PagePolicy};
use dramctrl_cycle::{CycleConfig, CycleCtrl};
use dramctrl_mem::{presets, AddrMapping};
use dramctrl_traffic::{DramAwareGen, LinearGen, TestSummary, Tester};

const N: u64 = 2_000;

fn ev(policy: PagePolicy, mapping: AddrMapping) -> DramCtrl {
    let mut cfg = CtrlConfig::new(presets::ddr3_1333_x64());
    cfg.page_policy = policy;
    cfg.mapping = mapping;
    DramCtrl::new(cfg).unwrap()
}

fn cy(policy: PagePolicy, mapping: AddrMapping) -> CycleCtrl {
    let mut cfg = CycleConfig::new(presets::ddr3_1333_x64());
    cfg.page_policy = policy;
    cfg.mapping = mapping;
    CycleCtrl::new(cfg).unwrap()
}

fn aware(mapping: AddrMapping, stride: u64, banks: u32, read_pct: u8) -> DramAwareGen {
    DramAwareGen::new(
        presets::ddr3_1333_x64().org,
        mapping,
        1,
        0,
        stride,
        banks,
        read_pct,
        0,
        N,
        7,
    )
}

/// Utilisation of both models on the fig3 workload (open page, reads).
fn fig3_point(stride: u64, banks: u32) -> (f64, f64) {
    let m = AddrMapping::RoRaBaCoCh;
    let t = Tester::new(50_000, 500);
    let e = t.run(
        &mut aware(m, stride, banks, 100),
        &mut ev(PagePolicy::Open, m),
    );
    let c = t.run(
        &mut aware(m, stride, banks, 100),
        &mut cy(PagePolicy::Open, m),
    );
    (e.bus_util, c.bus_util)
}

/// Utilisation of both models on the fig5 workload (closed page, writes).
fn fig5_point(stride: u64, banks: u32) -> (f64, f64) {
    let m = AddrMapping::RoCoRaBaCh;
    let t = Tester::new(50_000, 500);
    let e = t.run(
        &mut aware(m, stride, banks, 0),
        &mut ev(PagePolicy::Closed, m),
    );
    let c = t.run(
        &mut aware(m, stride, banks, 0),
        &mut cy(PagePolicy::Closed, m),
    );
    (e.bus_util, c.bus_util)
}

#[test]
fn fig3_util_rises_with_stride() {
    // Longer sequential strides raise the row-hit rate and thus bus
    // utilisation under an open-page policy, for both models.
    let points: Vec<_> = [1, 4, 16, 128].iter().map(|&s| fig3_point(s, 1)).collect();
    for w in points.windows(2) {
        assert!(w[1].0 > w[0].0, "event model: {points:?}");
        assert!(w[1].1 > w[0].1, "cycle model: {points:?}");
    }
    // Full-page strides saturate the bus (paper: ~90%).
    let (e, c) = fig3_point(128, 8);
    assert!(e > 0.9, "event saturation {e}");
    assert!(c > 0.9, "cycle saturation {c}");
}

#[test]
fn fig3_util_rises_with_banks() {
    let points: Vec<_> = [1, 2, 4, 8].iter().map(|&b| fig3_point(1, b)).collect();
    for w in points.windows(2) {
        assert!(w[1].0 > w[0].0, "event model: {points:?}");
        assert!(w[1].1 > w[0].1, "cycle model: {points:?}");
    }
}

#[test]
fn fig3_models_agree() {
    for (stride, banks) in [(1, 1), (4, 2), (16, 4), (128, 8)] {
        let (e, c) = fig3_point(stride, banks);
        let diff = (e - c).abs() / c.max(1e-9);
        assert!(
            diff < 0.15,
            "stride {stride}, banks {banks}: ev {e:.3} vs cy {c:.3}"
        );
    }
}

#[test]
fn fig5_single_bank_is_trc_bound() {
    // Closed page, one bank: every access pays the full bank cycle, so
    // utilisation is low and independent of stride.
    let (e1, c1) = fig5_point(1, 1);
    let (e2, c2) = fig5_point(64, 1);
    assert!(e1 < 0.15 && c1 < 0.15, "ev {e1}, cy {c1}");
    assert!((e1 - e2).abs() < 0.02);
    assert!((c1 - c2).abs() < 0.02);
}

#[test]
fn fig5_banks_improve_and_stride_hurts() {
    // Bank-level parallelism improves utilisation for both models...
    let (e1, _) = fig5_point(1, 1);
    let (e4, c4) = fig5_point(1, 4);
    let (e8, c8) = fig5_point(1, 8);
    assert!(e4 > 2.0 * e1, "4 banks should give ~4x: {e1} -> {e4}");
    assert!(e8 > e4 && c8 > c4);
    // ...and longer strides concentrate work on one bank at a time,
    // reducing the parallelism visible in the queues (paper: utilisation
    // decreases with stride under the closed-page policy).
    let (e_s4, c_s4) = fig5_point(4, 8);
    let (e_s128, c_s128) = fig5_point(128, 8);
    assert!(e_s128 < e_s4, "event: {e_s4} -> {e_s128}");
    assert!(c_s128 < c_s4, "cycle: {c_s4} -> {c_s128}");
    // The event model's buffered write drain gives it a wider reorder
    // window: it never does worse than the interleaving baseline (the
    // paper saw DRAMSim2 ~15% lower at high bank counts).
    assert!(e8 >= c8 * 0.99, "ev {e8} vs cy {c8}");
}

#[test]
fn fig6_read_latency_distributions_match() {
    // Linear read-only traffic, open page: both models produce a tight,
    // unimodal distribution with closely matching means.
    let run_ev = |_| {
        let mut gen = LinearGen::new(0, 1 << 22, 64, 100, 10_000, N, 3);
        Tester::new(2_000, 40).run(&mut gen, &mut ev(PagePolicy::Open, AddrMapping::RoRaBaCoCh))
    };
    let run_cy = |_| {
        let mut gen = LinearGen::new(0, 1 << 22, 64, 100, 10_000, N, 3);
        Tester::new(2_000, 40).run(&mut gen, &mut cy(PagePolicy::Open, AddrMapping::RoRaBaCoCh))
    };
    let (e, c): (TestSummary, TestSummary) = (run_ev(()), run_cy(()));
    let (em, cm) = (e.read_lat_ns.mean(), c.read_lat_ns.mean());
    assert!((em - cm).abs() / cm < 0.1, "means {em:.1} vs {cm:.1}");
    // Tight distributions: the bulk of reads cluster (the only outliers
    // are the occasional refresh-delayed reads, under 5% of samples).
    for s in [&e, &c] {
        let p50 = s.read_lat_ns.quantile(0.5).unwrap();
        let p95 = s.read_lat_ns.quantile(0.95).unwrap();
        assert!(p95 <= 2 * p50, "p50={p50} p95={p95}");
    }
    // Under light load the latency sits near the ideal tRCD+tCL+tBURST.
    assert!((20.0..45.0).contains(&em), "event mean {em}");
}

#[test]
fn fig7_write_drain_spreads_read_latency() {
    // Linear 1:1 mixed traffic, closed page. The event-based model's write
    // drain creates two populations of reads: those serviced immediately
    // and those stalled behind a drain episode (the paper's bimodal
    // distribution). The cycle model interleaves reads and writes, paying
    // turnarounds on most accesses instead.
    let mk_gen = || LinearGen::new(0, 1 << 22, 64, 50, 10_000, N, 3);
    let t = Tester::new(4_000, 100);
    let e = t.run(
        &mut mk_gen(),
        &mut ev(PagePolicy::Closed, AddrMapping::RoCoRaBaCh),
    );
    let c = t.run(
        &mut mk_gen(),
        &mut cy(PagePolicy::Closed, AddrMapping::RoCoRaBaCh),
    );
    // Wide spread for the event model: the 90th percentile read waited for
    // a write drain, the 10th did not.
    let p10 = e.read_lat_ns.quantile(0.1).unwrap() as f64;
    let p90 = e.read_lat_ns.quantile(0.9).unwrap() as f64;
    assert!(p90 > 2.0 * p10, "event spread p10={p10} p90={p90}");
    // Interleaving writes costs the cycle model more on average.
    assert!(
        c.read_lat_ns.mean() > e.read_lat_ns.mean(),
        "cy {:.1} vs ev {:.1}",
        c.read_lat_ns.mean(),
        e.read_lat_ns.mean()
    );
    // Both models achieve the same throughput (all requests completed).
    assert_eq!(e.reads_completed + e.writes_completed, N);
    assert_eq!(c.reads_completed + c.writes_completed, N);
}

#[test]
fn refresh_overhead_costs_utilisation() {
    // With refresh enabled, long runs lose roughly tRFC/tREFI of
    // utilisation (~2% for DDR3-1333) compared to a refresh-free device.
    let m = AddrMapping::RoRaBaCoCh;
    let gen = || {
        DramAwareGen::new(
            presets::ddr3_1333_x64().org,
            m,
            1,
            0,
            128,
            8,
            100,
            0,
            20_000,
            7,
        )
    };
    let t = Tester::new(50_000, 500);
    let with_refresh = t.run(&mut gen(), &mut ev(PagePolicy::Open, m));
    let mut cfg = CtrlConfig::new(presets::ddr3_1333_x64());
    cfg.mapping = m;
    cfg.spec.timing.t_refi = 0;
    let mut no_refresh_ctrl = DramCtrl::new(cfg).unwrap();
    let no_refresh = t.run(&mut gen(), &mut no_refresh_ctrl);
    let loss = no_refresh.bus_util - with_refresh.bus_util;
    assert!(
        (0.005..0.05).contains(&loss),
        "refresh utilisation loss {loss:.4} ({} vs {})",
        with_refresh.bus_util,
        no_refresh.bus_util
    );
}
