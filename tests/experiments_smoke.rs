//! Smoke tests asserting that every experiment in the reproduction index
//! (DESIGN.md) produces its paper-shaped result at reduced scale. The full
//! tables come from the `dramctrl-bench` binaries; these tests keep the
//! claims from silently regressing.

use dramctrl::PagePolicy;
use dramctrl_bench::{simulate, sweep, timed, wiring};
use dramctrl_campaign::Model;
use dramctrl_mem::{presets, AddrMapping, MemCmd};
use dramctrl_power::micron_power;
use dramctrl_runner::Wiring;
use dramctrl_system::{workload, System, SystemConfig};
use dramctrl_traffic::{DramAwareGen, LinearGen, Tester, TraceEntry, TraceGen};

/// fig3: open-page read utilisation rises with stride and banks, and the
/// models track each other.
#[test]
fn fig3_shape() {
    let spec = presets::ddr3_1333_x64();
    let points = sweep::bandwidth(
        &spec,
        PagePolicy::Open,
        AddrMapping::RoRaBaCoCh,
        100,
        &[1, 16, 128],
        &[1, 8],
        3_000,
    );
    // Rising in stride for each bank count.
    for banks in [1u32, 8] {
        let series: Vec<_> = points.iter().filter(|p| p.banks == banks).collect();
        assert!(series.windows(2).all(|w| w[1].ev_util >= w[0].ev_util));
        assert!(series.windows(2).all(|w| w[1].cy_util >= w[0].cy_util));
    }
    // Saturation at the top-right corner, models within 10%.
    let top = points.last().unwrap();
    assert!(top.ev_util > 0.9 && top.cy_util > 0.9);
    for p in &points {
        assert!((p.ev_util - p.cy_util).abs() / p.cy_util < 0.15);
    }
}

/// fig4: the 1:1 mix costs utilisation relative to fig3 at equal stride
/// (read/write switching eats the row-hit benefit).
#[test]
fn fig4_mix_costs_utilisation() {
    let spec = presets::ddr3_1333_x64();
    let reads = sweep::bandwidth(
        &spec,
        PagePolicy::Open,
        AddrMapping::RoRaBaCoCh,
        100,
        &[16],
        &[1],
        3_000,
    );
    let mixed = sweep::bandwidth(
        &spec,
        PagePolicy::Open,
        AddrMapping::RoRaBaCoCh,
        50,
        &[16],
        &[1],
        3_000,
    );
    assert!(mixed[0].ev_util < reads[0].ev_util);
    assert!(mixed[0].cy_util < reads[0].cy_util);
}

/// fig5: closed-page writes — single bank is flat and tRC-bound, more
/// banks help, larger strides hurt, and the event model's drain reordering
/// never loses to the baseline.
#[test]
fn fig5_shape() {
    let spec = presets::ddr3_1333_x64();
    let points = sweep::bandwidth(
        &spec,
        PagePolicy::Closed,
        AddrMapping::RoCoRaBaCh,
        0,
        &[1, 128],
        &[1, 8],
        3_000,
    );
    let at = |stride, banks| {
        *points
            .iter()
            .find(|p| p.stride == stride && p.banks == banks)
            .unwrap()
    };
    assert!((at(1, 1).ev_util - at(128, 1).ev_util).abs() < 0.03);
    assert!(at(1, 8).ev_util > 3.0 * at(1, 1).ev_util);
    assert!(at(128, 8).ev_util < at(1, 8).ev_util);
    assert!(at(1, 8).ev_util >= at(1, 8).cy_util * 0.98);
}

/// fig6/fig7: latency distribution means agree on reads; the mixed
/// closed-page case spreads the event model's reads (write drain) and
/// costs the interleaving baseline more on average.
#[test]
fn fig6_fig7_latency_shapes() {
    let spec = presets::ddr3_1333_x64();
    let t = Tester::new(4_000, 100);
    // Linear traffic with `rd` % reads on both models, event first.
    let run = |policy, mapping, rd| {
        [Model::Event, Model::Cycle].map(|model| {
            let gen = LinearGen::new(0, 1 << 22, 64, rd, 10_000, 2_000, 3);
            let w = wiring(spec.clone(), model, policy, mapping, 1);
            simulate(w, Box::new(gen), &t).summary
        })
    };

    let [ev6, cy6] = run(PagePolicy::Open, AddrMapping::RoRaBaCoCh, 100);
    let ratio = ev6.read_lat_ns.mean() / cy6.read_lat_ns.mean();
    assert!((0.9..1.1).contains(&ratio), "fig6 mean ratio {ratio:.3}");

    let [ev7, cy7] = run(PagePolicy::Closed, AddrMapping::RoCoRaBaCh, 50);
    let p10 = ev7.read_lat_ns.quantile(0.1).unwrap();
    let p90 = ev7.read_lat_ns.quantile(0.9).unwrap();
    assert!(p90 > 2 * p10, "fig7 spread p10={p10} p90={p90}");
    assert!(cy7.read_lat_ns.mean() > ev7.read_lat_ns.mean());
}

/// Power correlation (Section III-C3): both models' Micron power agrees.
#[test]
fn power_correlation() {
    let spec = presets::ddr3_1333_x64();
    let m = AddrMapping::RoRaBaCoCh;
    let t = Tester::new(100_000, 1_000);
    let [ep, cp] = [Model::Event, Model::Cycle].map(|model| {
        let gen = DramAwareGen::new(spec.org, m, 1, 0, 16, 4, 70, 0, 3_000, 11);
        let w = wiring(spec.clone(), model, PagePolicy::Open, m, 1);
        micron_power(&spec, &simulate(w, Box::new(gen), &t).activity()).total_mw()
    });
    let diff = (ep - cp).abs() / cp;
    assert!(diff < 0.1, "power diff {diff:.3} ({ep:.0} vs {cp:.0} mW)");
}

/// Model performance (Section III-D): the event model beats the
/// cycle-based baseline by a large factor on saturating traffic.
#[test]
fn speedup_holds() {
    let spec = presets::ddr3_1333_x64();
    let m = AddrMapping::RoRaBaCoCh;
    let t = Tester::new(100_000, 1_000);
    let n = 40_000;
    let [ev_s, cy_s] = [Model::Event, Model::Cycle].map(|model| {
        let w = wiring(spec.clone(), model, PagePolicy::Open, m, 1);
        let gen = LinearGen::new(0, 256 << 20, 64, 100, 0, n, 1);
        timed(|| simulate(w, Box::new(gen), &t)).1
    });
    let speedup = cy_s / ev_s;
    // The paper reports ~7x on average; debug builds and small runs blur
    // the constant, so demand a conservative 2x here.
    assert!(speedup > 2.0, "speedup only {speedup:.2}x");
}

/// fig9: WideIO's four wide channels beat one DDR3 channel for the
/// memory-bound canneal, as in the paper's case study.
#[test]
fn fig9_memory_sensitivity() {
    let cores = 4;
    let insts = 40_000;
    let mut cfg = SystemConfig::table2(cores, insts);
    cfg.llc.size = 2 << 20;
    let run = |spec, channels| {
        let mut w = Wiring::new(spec, Model::Event);
        w.ctrl.channels = channels;
        let mem = w.build().unwrap();
        let mut sys = System::new(cfg.clone(), mem, &vec![workload::canneal(); cores], 42).unwrap();
        sys.run()
    };
    let ddr3 = run(presets::ddr3_1600_x64(), 1);
    let wideio = run(presets::wideio_200_x128(), 4);
    assert!(
        wideio.ipc > ddr3.ipc,
        "WideIO {:.4} should beat DDR3 {:.4} on canneal",
        wideio.ipc,
        ddr3.ipc
    );
    assert!(wideio.llc_miss_lat.mean() < ddr3.llc_miss_lat.mean());
}

/// A closed-form envelope derived from neither model: one read of one
/// burst, alone at a closed page, takes frontend + tRCD + tCL + tBURST +
/// backend. The event model lands on it (the tester rounds to whole ns,
/// so within 500 ps); the cycle baseline, which rounds to its clock, is
/// never faster.
#[test]
fn unloaded_closed_page_read_latency_is_the_closed_form() {
    for spec in presets::all() {
        let read = TraceEntry {
            tick: 1_000_000,
            cmd: MemCmd::Read,
            addr: 0,
            size: spec.org.burst_bytes() as u32,
        };
        let [ev, cy] = [Model::Event, Model::Cycle].map(|model| {
            let w = wiring(
                spec.clone(),
                model,
                PagePolicy::Closed,
                AddrMapping::RoRaBaCoCh,
                1,
            );
            let gen = TraceGen::new(vec![read]);
            let s = simulate(w, Box::new(gen), &Tester::new(1_000, 1_000)).summary;
            assert_eq!(s.reads_completed, 1, "{} {model:?}", spec.name);
            s.read_lat_ns.mean() * 1_000.0
        });
        let d = Wiring::new(spec.clone(), Model::Event).ctrl;
        let t = &spec.timing;
        let closed_form =
            (d.frontend_latency + t.t_rcd + t.t_cl + t.t_burst + d.backend_latency) as f64;
        assert!(
            (ev - closed_form).abs() <= 500.0,
            "{}: event {ev} ps vs closed form {closed_form} ps",
            spec.name
        );
        assert!(
            cy >= closed_form,
            "{}: cycle {cy} ps below closed form {closed_form} ps",
            spec.name
        );
    }
}
