//! The benchmark's three simulation streams, short, and the closed loop,
//! under the timing oracle: every channel's command stream keeps the DRAM
//! timing rules of its device.
//!
//! The streams are the ones `benchmark/run.sh` times (same device,
//! generator, read share, address range, saturating injection, open page,
//! FR-FCFS), cut to a few tens of thousands of requests; the checker
//! ([`dramctrl_check::TimingChecker`]) knows the protocol and nothing of
//! the controller's bank state.

use dramctrl::{CtrlConfig, DramCtrl, PagePolicy, SchedPolicy};
use dramctrl_check::TimingChecker;
use dramctrl_mem::{presets, AddrMapping};
use dramctrl_system::{workload, MultiChannel, System, SystemConfig};
use dramctrl_traffic::{LinearGen, RandomGen, Tester, TrafficGen};

const MAPPING: AddrMapping = AddrMapping::RoRaBaCoCh;

fn checked_channel(device: &str, channels: u32) -> DramCtrl<TimingChecker> {
    let spec = presets::by_name(device).expect("benchmark devices are presets");
    let mut cfg = CtrlConfig::new(spec.clone());
    cfg.page_policy = PagePolicy::Open;
    cfg.scheduling = SchedPolicy::FrFcfs;
    cfg.mapping = MAPPING;
    cfg.channels = channels;
    DramCtrl::with_probe(cfg, TimingChecker::new(&spec)).expect("valid config")
}

/// Runs `gen` to completion over `channels` checked channels and asserts
/// each one clean; returns the commands checked.
fn run_checked(device: &str, channels: u32, gen: &mut impl TrafficGen) -> usize {
    let tester = Tester::new(200_000, 1_000);
    let ctrls = (0..channels)
        .map(|_| checked_channel(device, channels))
        .collect::<Vec<_>>();
    let checkers: Vec<TimingChecker> = if channels == 1 {
        let mut ctrl = ctrls.into_iter().next().expect("one channel");
        let summary = tester.run(gen, &mut ctrl);
        assert_eq!(summary.dropped, 0);
        vec![ctrl.into_probe()]
    } else {
        let mut xbar = MultiChannel::new(ctrls, 0)
            .expect("identical channels")
            .with_mapping(MAPPING);
        let summary = tester.run(gen, &mut xbar);
        assert_eq!(summary.dropped, 0);
        (0..channels as usize)
            .map(|i| xbar.channel(i).probe().clone())
            .collect()
    };
    for (i, checker) in checkers.iter().enumerate() {
        assert!(!checker.commands().is_empty(), "channel {i} issued nothing");
        checker.assert_clean();
    }
    checkers.iter().map(|c| c.commands().len()).sum()
}

#[test]
fn stream_read_keeps_the_timing_rules() {
    let mut gen = LinearGen::new(0, 256 << 20, 64, 100, 0, 40_000, 1);
    assert!(run_checked("DDR3-1600-x64", 1, &mut gen) > 40_000);
}

#[test]
fn random_mixed_keeps_the_timing_rules() {
    let mut gen = RandomGen::new(0, 256 << 20, 64, 67, 0, 40_000, 1);
    // Nearly every burst a row miss: ACT, RD/WR and PRE per request.
    assert!(run_checked("DDR3-1600-x64", 1, &mut gen) > 100_000);
}

#[test]
fn hmc_16ch_keeps_the_timing_rules() {
    let mut gen = LinearGen::new(0, 1 << 30, 64, 67, 0, 40_000, 1);
    assert!(run_checked("HBM-1000-x128", 16, &mut gen) > 40_000);
}

/// The closed loop's stream is a shape no open-loop generator produces:
/// reads throttled by the cores' miss windows and the LLC's MSHRs, with
/// dirty-line writebacks riding along. Four cores of canneal and of
/// streamcluster, over one DDR3-1600 channel and over four WideIO
/// channels behind the crossbar.
#[test]
fn closed_loop_keeps_the_timing_rules() {
    let cfg = SystemConfig::table2(4, 20_000);
    for name in ["canneal", "streamcluster"] {
        let profile = workload::parsec().into_iter().find(|p| p.name == name);
        let profiles = vec![profile.expect("a PARSEC profile"); 4];

        let ddr3 = checked_channel("DDR3-1600-x64", 1);
        let mut sys = System::new(cfg.clone(), ddr3, &profiles, 42).expect("valid system");
        let r = sys.run();
        assert!(r.dram.wr_bursts > 0, "{name}: no writeback reached DDR3");
        sys.controller().probe().assert_clean();

        let ctrls = (0..4)
            .map(|_| checked_channel("WideIO-200-x128", 4))
            .collect();
        let xbar = MultiChannel::new(ctrls, 0)
            .expect("identical channels")
            .with_mapping(MAPPING);
        let mut sys = System::new(cfg.clone(), xbar, &profiles, 42).expect("valid system");
        let r = sys.run();
        assert!(r.dram.wr_bursts > 0, "{name}: no writeback reached WideIO");
        for ch in 0..4 {
            let checker = sys.controller().channel(ch).probe();
            assert!(
                !checker.commands().is_empty(),
                "{name}: WideIO channel {ch} sent no command"
            );
            checker.assert_clean();
        }
    }
}
