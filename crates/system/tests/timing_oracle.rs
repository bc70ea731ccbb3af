//! The benchmark's three simulation streams, short, and the closed loop,
//! under the timing oracle: every channel's command stream keeps the DRAM
//! timing rules of its device.
//!
//! The streams are the ones `benchmark/run.sh` times (same device,
//! generator, read share, address range, saturating injection, open page,
//! FR-FCFS), cut to a few tens of thousands of requests, on the event
//! model and on the cycle baseline; the checker
//! ([`dramctrl_check::TimingChecker`]) knows the protocol and nothing of
//! the event model's bank state. The cycle baseline reads the same
//! protocol table as the checker, so on it the oracle checks the table's
//! interpreter; the mutation test at the end shows that interpreter uses
//! every row. Two-rank runs of both models separate the rows scoped to a
//! rank from one rank to the other.

use dramctrl::{CtrlConfig, DramCtrl, PagePolicy, SchedPolicy};
use dramctrl_check::{Rule, TimingChecker};
use dramctrl_cycle::{CycleConfig, CycleCtrl};
use dramctrl_kernel::rng::Rng;
use dramctrl_kernel::Tick;
use dramctrl_mem::{presets, AddrMapping, Controller, MemRequest, MemSpec, ReqId, Timing};
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

/// The cycle baseline as the runner wires it for a model comparison:
/// the same device, page policy, scheduler, mapping and channel count,
/// with write snooping on.
fn checked_cycle_channel(device: &str, channels: u32) -> CycleCtrl<TimingChecker> {
    let spec = presets::by_name(device).expect("benchmark devices are presets");
    let mut cfg = CycleConfig::new(spec.clone());
    cfg.page_policy = PagePolicy::Open;
    cfg.scheduling = SchedPolicy::FrFcfs;
    cfg.mapping = MAPPING;
    cfg.channels = channels;
    cfg.write_snooping = true;
    CycleCtrl::with_probe(cfg, TimingChecker::new(&spec)).expect("valid config")
}

/// A controller whose probe is a timing checker.
trait Checked: Controller {
    fn checker(&self) -> &TimingChecker;
}

impl Checked for DramCtrl<TimingChecker> {
    fn checker(&self) -> &TimingChecker {
        self.probe()
    }
}

impl Checked for CycleCtrl<TimingChecker> {
    fn checker(&self) -> &TimingChecker {
        self.probe()
    }
}

/// Runs `gen` to completion over `ctrls` (behind the crossbar when there
/// are several) and asserts each one clean; returns the commands checked.
fn run_checked<C: Checked>(ctrls: Vec<C>, gen: &mut impl TrafficGen) -> usize {
    let channels = run_clean(ctrls, gen);
    channels.iter().map(|c| c.checker().commands().len()).sum()
}

/// [`run_checked`], handing back the controllers.
fn run_clean<C: Checked>(ctrls: Vec<C>, gen: &mut impl TrafficGen) -> Vec<C> {
    let tester = Tester::new(200_000, 1_000);
    let channels = if ctrls.len() == 1 {
        let mut ctrl = ctrls.into_iter().next().expect("one channel");
        assert_eq!(tester.run(gen, &mut ctrl).dropped, 0);
        vec![ctrl]
    } else {
        let mut xbar = MultiChannel::new(ctrls, 0)
            .expect("identical channels")
            .with_mapping(MAPPING);
        assert_eq!(tester.run(gen, &mut xbar).dropped, 0);
        xbar.into_channels()
    };
    for (i, ctrl) in channels.iter().enumerate() {
        let checker = ctrl.checker();
        assert!(!checker.commands().is_empty(), "channel {i} issued nothing");
        checker.assert_clean();
    }
    channels
}

fn event(device: &str, channels: u32) -> Vec<DramCtrl<TimingChecker>> {
    (0..channels)
        .map(|_| checked_channel(device, channels))
        .collect()
}

fn cycle(device: &str, channels: u32) -> Vec<CycleCtrl<TimingChecker>> {
    (0..channels)
        .map(|_| checked_cycle_channel(device, channels))
        .collect()
}

#[test]
fn stream_read_keeps_the_timing_rules() {
    let mut gen = LinearGen::new(0, 256 << 20, 64, 100, 0, 40_000, 1);
    assert!(run_checked(event("DDR3-1600-x64", 1), &mut gen) > 40_000);
}

#[test]
fn random_mixed_keeps_the_timing_rules() {
    let mut gen = RandomGen::new(0, 256 << 20, 64, 67, 0, 40_000, 1);
    // Nearly every burst a row miss: ACT, RD/WR and PRE per request.
    assert!(run_checked(event("DDR3-1600-x64", 1), &mut gen) > 100_000);
}

#[test]
fn hmc_16ch_keeps_the_timing_rules() {
    let mut gen = LinearGen::new(0, 1 << 30, 64, 67, 0, 40_000, 1);
    assert!(run_checked(event("HBM-1000-x128", 16), &mut gen) > 40_000);
}

#[test]
fn stream_read_on_the_cycle_baseline_keeps_the_timing_rules() {
    let mut gen = LinearGen::new(0, 256 << 20, 64, 100, 0, 10_000, 1);
    assert!(run_checked(cycle("DDR3-1600-x64", 1), &mut gen) > 10_000);
}

#[test]
fn random_mixed_on_the_cycle_baseline_keeps_the_timing_rules() {
    let mut gen = RandomGen::new(0, 256 << 20, 64, 67, 0, 10_000, 1);
    assert!(run_checked(cycle("DDR3-1600-x64", 1), &mut gen) > 25_000);
}

#[test]
fn hmc_16ch_on_the_cycle_baseline_keeps_the_timing_rules() {
    let mut gen = LinearGen::new(0, 1 << 30, 64, 67, 0, 10_000, 1);
    assert!(run_checked(cycle("HBM-1000-x128", 16), &mut gen) > 10_000);
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

/// The event model and the cycle baseline on a two- and a three-rank
/// DDR3-1600 channel, open and closed page, saturated with random 67 %
/// reads: every rank activates, refreshes and turns the bus around, so
/// tRRD, tXAW, tRFC, tWTR and PRE→REF each see one rank's commands beside
/// the others', and three ranks put a rank's banks at slots that are no
/// power of two.
#[test]
fn two_ranks_keep_the_timing_rules_on_both_models() {
    let requests = 10_000;
    for (ranks, page) in [
        (2, PagePolicy::Open),
        (2, PagePolicy::Closed),
        (3, PagePolicy::Open),
        (3, PagePolicy::Closed),
    ] {
        let mut spec = presets::by_name("DDR3-1600-x64").expect("a preset");
        spec.org.ranks = ranks;
        let every_rank = |checker: &TimingChecker| {
            let refs = |rank| {
                let cmds = checker.commands().iter().filter(|c| c.rank == rank);
                cmds.filter(|c| c.cmd == dramctrl_obs::DramCmd::Ref).count()
            };
            let quiet = (0..ranks).find(|&rank| refs(rank) == 0);
            assert_eq!(quiet, None, "{ranks} ranks: a rank never refreshed");
            checker.commands().len()
        };
        let mut cfg = CtrlConfig::new(spec.clone());
        cfg.page_policy = page;
        cfg.scheduling = SchedPolicy::FrFcfs;
        cfg.mapping = MAPPING;
        let ctrl = DramCtrl::with_probe(cfg, TimingChecker::new(&spec)).expect("valid config");
        let mut gen = RandomGen::new(0, 512 << 20, 64, 67, 0, requests, 1);
        let done = run_clean(vec![ctrl], &mut gen);
        assert!(
            every_rank(done[0].checker()) > requests as usize,
            "{ranks} ranks {page:?}"
        );

        let mut cfg = CycleConfig::new(spec.clone());
        cfg.page_policy = page;
        cfg.scheduling = SchedPolicy::FrFcfs;
        cfg.mapping = MAPPING;
        let ctrl = CycleCtrl::with_probe(cfg, TimingChecker::new(&spec)).expect("valid config");
        let mut gen = RandomGen::new(0, 512 << 20, 64, 67, 0, requests, 1);
        let done = run_clean(vec![ctrl], &mut gen);
        assert!(
            every_rank(done[0].checker()) > requests as usize,
            "{ranks} ranks {page:?}"
        );
    }
}

/// A bursty random stream: half the arrivals back to back, reads and
/// writes of 1 to 256 bytes over a hot 16 KiB (row hits) and a wide 64 MiB
/// (bank spread), with gaps long enough for refreshes to interleave.
fn bursty_random(seed: u64, n: u64) -> Vec<(Tick, MemRequest)> {
    let mut rng = Rng::seed_from_u64(seed);
    let mut t = 0;
    (0..n)
        .map(|i| {
            if rng.gen_bool() {
                t += rng.gen_range(0..100_000);
            }
            let addr = if rng.gen_bool() {
                rng.gen_range(0..1 << 14)
            } else {
                rng.gen_range(0..1 << 26)
            };
            let size = match rng.gen_range(0..4) {
                0 => rng.gen_range_inclusive(1..=64) as u32,
                1 => 64,
                2 => 128,
                _ => 256,
            };
            let req = if rng.gen_bool() {
                MemRequest::read(ReqId(i), addr, size)
            } else {
                MemRequest::write(ReqId(i), addr, size)
            };
            (t, req)
        })
        .collect()
}

/// The cycle baseline's mutation test. Shaving one clock period off a
/// timing field in the controller's copy of the spec only — the checker
/// keeps the device's — makes the baseline break the rule that field
/// defines, under open page and under closed page. (One picosecond would vanish in
/// the rounding up to whole cycles.) Every row of the protocol table
/// reaches the baseline's decisions, so every shave shows.
#[test]
fn every_shaved_timing_field_trips_its_rule_on_the_cycle_baseline() {
    type Field = fn(&mut Timing) -> &mut Tick;
    let mutants: [(Rule, Field); 11] = [
        (Rule::Rcd, |t| &mut t.t_rcd),
        (Rule::Rp, |t| &mut t.t_rp),
        (Rule::Ras, |t| &mut t.t_ras),
        (Rule::Rrd, |t| &mut t.t_rrd),
        (Rule::Xaw, |t| &mut t.t_xaw),
        (Rule::Rtp, |t| &mut t.t_rtp),
        (Rule::Wr, |t| &mut t.t_wr),
        (Rule::Rfc, |t| &mut t.t_rfc),
        (Rule::DataBus, |t| &mut t.t_burst),
        (Rule::Wtr, |t| &mut t.t_wtr),
        (Rule::Rtw, |t| &mut t.t_rtw),
    ];
    let device: MemSpec = presets::ddr3_1333_x64();
    let wl = bursty_random(0x7A1E, 600);
    for (rule, field) in mutants {
        for page in [PagePolicy::Open, PagePolicy::Closed] {
            let mut cfg = CycleConfig::new(device.clone());
            cfg.page_policy = page;
            cfg.scheduling = SchedPolicy::FrFcfs;
            *field(&mut cfg.spec.timing) -= device.timing.t_ck;
            let checker = TimingChecker::new(&device);
            let mut ctrl = CycleCtrl::with_probe(cfg, checker).expect("valid config");
            let mut out = Vec::new();
            for &(t, req) in &wl {
                ctrl.advance_to(t, &mut out);
                let _ = ctrl.try_send(req, t);
            }
            ctrl.drain(&mut out);
            let tripped = ctrl.probe().tally();
            assert!(
                tripped.contains_key(&rule),
                "{rule}, {page} page: shaving its field tripped only {tripped:?}"
            );
        }
    }
}
