//! Workspace-level integration tests spanning every crate: kernel → mem →
//! controllers → traffic → crossbar → system → power, end to end.

use dramctrl::{CtrlConfig, DramCtrl, PagePolicy};
use dramctrl_bench::{simulate, wiring};
use dramctrl_campaign::Model;
use dramctrl_cycle::{CycleConfig, CycleCtrl};
use dramctrl_mem::{presets, AddrMapping, Controller, MemRequest, ReqId};
use dramctrl_power::micron_power;
use dramctrl_system::{workload, MultiChannel, System, SystemConfig};
use dramctrl_traffic::{DramAwareGen, LinearGen, RandomGen, Tester, TraceEntry, TraceGen};

/// Every preset drives both controller models through the tester without
/// losing a request, across policies.
#[test]
fn every_preset_round_trips_both_models() {
    for spec in presets::all() {
        for policy in [PagePolicy::Open, PagePolicy::Closed] {
            let mapping = if policy.is_open() {
                AddrMapping::RoRaBaCoCh
            } else {
                AddrMapping::RoCoRaBaCh
            };
            let n = 500;
            let t = Tester::new(200_000, 1_000);
            for model in [Model::Event, Model::Cycle] {
                let gen = LinearGen::new(0, 16 << 20, 64, 70, 0, n, 1);
                let w = wiring(spec.clone(), model, policy, mapping, 1);
                let s = simulate(w, Box::new(gen), &t).summary;
                assert_eq!(
                    s.reads_completed + s.writes_completed,
                    n,
                    "{} {model:?} {policy}",
                    spec.name
                );
            }
        }
    }
}

/// The full pipeline: random generator → crossbar → controllers → power
/// model, over two LPDDR3 channels (the paper's mobile configuration).
#[test]
fn lpddr3_two_channel_pipeline() {
    let spec = presets::lpddr3_1600_x32();
    let channels = 2;
    let ctrls = (0..channels)
        .map(|_| {
            let mut cfg = CtrlConfig::new(spec.clone());
            cfg.channels = channels;
            DramCtrl::new(cfg).unwrap()
        })
        .collect();
    let mut xbar = MultiChannel::new(ctrls, 1_000).unwrap();
    // Cache lines are 64 B; LPDDR3 bursts are 32 B — every request chops.
    let mut gen = RandomGen::new(0, 256 << 20, 64, 80, 0, 4_000, 3);
    let s = Tester::new(50_000, 500).run(&mut gen, &mut xbar);
    assert_eq!(s.reads_completed + s.writes_completed, 4_000);
    let stats = xbar.common_stats();
    // Two bursts per request.
    assert_eq!(stats.rd_bursts + stats.wr_bursts, 8_000);
    // Both channels participated.
    for ch in 0..channels as usize {
        let c = xbar.channel(ch).common_stats();
        assert!(c.rd_bursts + c.wr_bursts > 3_000, "channel {ch} starved");
    }
    let power = micron_power(&spec, &xbar.activity(s.duration));
    assert!(power.total_mw() > 0.0);
    assert!(power.refresh_mw > 0.0, "refresh ran during the window");
}

/// A trace recorded from one generator replays identically into both
/// controller models.
#[test]
fn trace_bridges_models() {
    let spec = presets::ddr3_1333_x64();
    let mut gen = DramAwareGen::new(
        spec.org,
        AddrMapping::RoRaBaCoCh,
        1,
        0,
        8,
        4,
        60,
        5_000,
        2_000,
        17,
    );
    let mut entries = Vec::new();
    use dramctrl_traffic::TrafficGen;
    while let Some((tick, req)) = gen.next_request() {
        entries.push(TraceEntry {
            tick,
            cmd: req.cmd,
            addr: req.addr,
            size: req.size,
        });
    }
    let text = TraceGen::to_text(&entries);
    let t = Tester::new(50_000, 500);

    let [ev, cy] = [Model::Event, Model::Cycle].map(|model| {
        let trace: TraceGen = text.parse().unwrap();
        let w = wiring(
            spec.clone(),
            model,
            PagePolicy::Open,
            AddrMapping::RoRaBaCoCh,
            1,
        );
        simulate(w, Box::new(trace), &t).summary
    });
    assert_eq!(ev.reads_completed, cy.reads_completed);
    assert_eq!(ev.writes_completed, cy.writes_completed);
    // First-order latency agreement on identical traces.
    let ratio = cy.read_lat_ns.mean() / ev.read_lat_ns.mean();
    assert!((0.7..1.4).contains(&ratio), "latency ratio {ratio:.3}");
}

/// The same system accepts a single-channel event controller, a
/// cycle-based baseline, and a 4-channel crossbar interchangeably (the
/// `Controller` abstraction), and the fill traffic agrees.
#[test]
fn system_is_generic_over_controllers() {
    let profiles = vec![workload::canneal(); 2];
    let cfg = SystemConfig::table2(2, 30_000);

    let ev = DramCtrl::new(CtrlConfig::new(presets::ddr3_1600_x64())).unwrap();
    let r1 = System::new(cfg.clone(), ev, &profiles, 3).unwrap().run();

    let cy = CycleCtrl::new(CycleConfig::new(presets::ddr3_1600_x64())).unwrap();
    let r2 = System::new(cfg.clone(), cy, &profiles, 3).unwrap().run();

    let ctrls = (0..4)
        .map(|_| {
            let mut c = CtrlConfig::new(presets::wideio_200_x128());
            c.channels = 4;
            DramCtrl::new(c).unwrap()
        })
        .collect();
    let xbar = MultiChannel::new(ctrls, 0).unwrap();
    let r3 = System::new(cfg, xbar, &profiles, 3).unwrap().run();

    for r in [&r1, &r2, &r3] {
        assert!(r.ipc > 0.0);
        assert!(r.insts >= 2 * 30_000);
        assert!(r.dram.rd_bursts > 0);
    }
    // Same workload, same instruction count: fill traffic agrees across
    // all three memory systems to first order.
    let base = r1.dram.rd_bursts as f64;
    for r in [&r2, &r3] {
        let ratio = r.dram.rd_bursts as f64 / base;
        assert!((0.9..1.1).contains(&ratio), "fill ratio {ratio:.3}");
    }
}

/// Chopping invariance: the same byte traffic expressed as one 256-byte
/// request or four 64-byte requests produces identical DRAM burst counts
/// and bytes (paper Section II-A: the rest of the memory system is
/// oblivious to the DRAM burst size).
#[test]
fn chopping_is_transparent() {
    let run = |sizes: &[(u64, u32)]| {
        let mut cfg = CtrlConfig::new(presets::ddr3_1333_x64());
        cfg.spec.timing.t_refi = 0;
        let mut ctrl = DramCtrl::new(cfg).unwrap();
        let mut out = Vec::new();
        for (i, &(addr, size)) in sizes.iter().enumerate() {
            DramCtrl::try_send(&mut ctrl, MemRequest::read(ReqId(i as u64), addr, size), 0)
                .unwrap();
        }
        DramCtrl::drain(&mut ctrl, &mut out);
        (
            ctrl.stats().common.rd_bursts,
            ctrl.stats().common.bytes_read,
            out.len(),
        )
    };
    let (bursts_a, bytes_a, resps_a) = run(&[(0, 256)]);
    let (bursts_b, bytes_b, resps_b) = run(&[(0, 64), (64, 64), (128, 64), (192, 64)]);
    assert_eq!(bursts_a, bursts_b);
    assert_eq!(bytes_a, bytes_b);
    assert_eq!((resps_a, resps_b), (1, 4));
}
