//! The event contract of [`Controller`] (see the trait docs), asserted at
//! every step of seeded runs: `advance_to(limit)` changes nothing and
//! emits nothing when `next_event()` is `None` or `> limit`, and
//! `next_event()` changes only through `&mut self` calls. The crossbar's
//! cached next-event ticks are sound only while both hold.
//!
//! Also asserted on the same workloads: a controller's counts are its
//! command stream — `common_stats()` equals a probe's fold of the
//! `dram_cmd` events it emitted, `activity()` reports the same command
//! counts, and a crossbar or a tiered memory reports the sum of its parts.

use dramctrl::{CtrlConfig, DramCtrl, EccMode, RasConfig};
use dramctrl_cycle::{CycleConfig, CycleCtrl};
use dramctrl_kernel::snap::{SnapState, SnapWriter};
use dramctrl_kernel::Tick;
use dramctrl_mem::{
    presets, ActivityStats, CommonStats, Controller, MemCmd, MemRequest, MemResponse, MemSpec,
    Rejected,
};
use dramctrl_obs::{CmdEvent, DramCmd, Probe};
use dramctrl_stats::Report;
use dramctrl_system::{MultiChannel, TieredMemory};
use dramctrl_traffic::{BurstyGen, InterleaveGen, LinearGen, RandomGen, Tester, TrafficGen};

fn state_bytes(c: &impl SnapState) -> Vec<u8> {
    let mut w = SnapWriter::new(0);
    c.save_state(&mut w);
    w.into_bytes()
}

/// Forwards every call and checks the contract around it.
struct Checked<C> {
    inner: C,
    /// `next_event()` as read right after the last `&mut` call.
    seen: Option<Tick>,
    noop_probes: u64,
}

impl<C: Controller + SnapState> Checked<C> {
    fn new(inner: C) -> Self {
        let seen = inner.next_event();
        Self {
            inner,
            seen,
            noop_probes: 0,
        }
    }

    /// Before every forwarded call: the next event is what it was after
    /// the last `&mut` call, and advancing to any tick short of it is
    /// invisible — in the output and in the serialised state.
    fn check(&mut self) {
        let next = self.inner.next_event();
        assert_eq!(next, self.seen, "next_event moved without a &mut call");
        let before = state_bytes(&self.inner);
        let limits = match next {
            None => vec![0, Tick::MAX],
            Some(0) => vec![],
            Some(t) => vec![t - 1, t / 2],
        };
        for limit in limits {
            let mut out = Vec::new();
            self.inner.advance_to(limit, &mut out);
            assert!(
                out.is_empty(),
                "response emitted with nothing due (next event {next:?}, limit {limit})"
            );
            assert_eq!(
                self.inner.next_event(),
                next,
                "no-op advance moved next_event"
            );
            self.noop_probes += 1;
        }
        assert!(
            before == state_bytes(&self.inner),
            "no-op advance changed controller state (next event {next:?})"
        );
    }

    fn after<T>(&mut self, result: T) -> T {
        self.seen = self.inner.next_event();
        result
    }
}

impl<C: Controller + SnapState> Controller for Checked<C> {
    fn try_send(&mut self, req: MemRequest, now: Tick) -> Result<(), Rejected> {
        self.check();
        let r = self.inner.try_send(req, now);
        self.after(r)
    }
    fn can_accept(&self, cmd: MemCmd, addr: u64, size: u32) -> bool {
        self.inner.can_accept(cmd, addr, size)
    }
    fn next_event(&self) -> Option<Tick> {
        self.inner.next_event()
    }
    fn advance_to(&mut self, limit: Tick, out: &mut Vec<MemResponse>) {
        self.check();
        self.inner.advance_to(limit, out);
        self.after(());
    }
    fn drain(&mut self, out: &mut Vec<MemResponse>) -> Tick {
        self.check();
        let end = self.inner.drain(out);
        self.after(end)
    }
    fn is_idle(&self) -> bool {
        self.inner.is_idle()
    }
    fn spec(&self) -> &MemSpec {
        self.inner.spec()
    }
    fn common_stats(&self) -> CommonStats {
        self.inner.common_stats()
    }
    fn activity(&mut self, now: Tick) -> ActivityStats {
        self.check();
        let a = self.inner.activity(now);
        self.after(a)
    }
    fn report(&self, prefix: &str, now: Tick) -> Report {
        self.inner.report(prefix, now)
    }
}

/// Saturating, paced and duty-cycled streams: the last leaves idle gaps
/// long enough for power-down, self-refresh and several refreshes.
fn workloads(seed: u64) -> Vec<Box<dyn TrafficGen>> {
    let range = 64 << 20;
    vec![
        Box::new(LinearGen::new(0, range, 64, 67, 0, 600, seed)),
        Box::new(RandomGen::new(0, range, 64, 50, 4_000, 600, seed)),
        Box::new(InterleaveGen::new(
            LinearGen::new(0, range, 64, 100, 0, 300, seed),
            RandomGen::new(0, range, 32, 30, 0, 300, seed + 1),
            3,
            1,
        )),
        Box::new(BurstyGen::new(
            RandomGen::new(0, range, 64, 70, 20_000, 400, seed),
            1_000_000,
            30_000_000,
        )),
    ]
}

/// Runs every workload through a checked controller; `seen` gets each
/// finished controller. Returns the number of no-op advances probed.
fn drive<C: Controller + SnapState>(mk: impl Fn() -> C, mut seen: impl FnMut(&C)) -> u64 {
    let mut probes = 0;
    for seed in 1..=4 {
        for mut gen in workloads(seed) {
            let mut ctrl = Checked::new(mk());
            let summary = Tester::default().run(&mut gen, &mut ctrl);
            assert_eq!(summary.dropped, 0);
            // One more call of each remaining `&mut` kind, past the drain.
            ctrl.activity(summary.duration);
            ctrl.advance_to(summary.duration, &mut Vec::new());
            probes += ctrl.noop_probes;
            seen(&ctrl.inner);
        }
    }
    probes
}

#[test]
fn event_model_with_refresh_and_powerdown_keeps_the_contract() {
    let (mut refreshes, mut powerdowns, mut self_refreshes) = (0, 0, 0);
    let probes = drive(
        || {
            let mut cfg = CtrlConfig::new(presets::ddr3_1600_x64());
            cfg.powerdown_idle = 200_000;
            cfg.selfrefresh_after = 2_000_000;
            DramCtrl::new(cfg).unwrap()
        },
        |c| {
            refreshes += c.stats().common.refreshes;
            powerdowns += c.stats().powerdowns;
            self_refreshes += c.stats().self_refreshes;
        },
    );
    assert!(probes > 10_000, "only {probes} no-op advances were probed");
    // The runs really went through the states the contract is risky in.
    assert!(refreshes > 0 && powerdowns > 0 && self_refreshes > 0);
}

#[test]
fn cycle_model_keeps_the_contract() {
    let probes = drive(
        || CycleCtrl::new(CycleConfig::new(presets::ddr3_1600_x64())).unwrap(),
        |_| {},
    );
    assert!(probes > 10_000, "only {probes} no-op advances were probed");
}

/// The command stream folded by hand, as a power model reads it, plus the
/// requests the probe saw accepted.
#[derive(Debug, Clone, Copy, Default)]
struct Fold {
    reads: u64,
    writes: u64,
    act: u64,
    pre: u64,
    refs: u64,
    rd: u64,
    wr: u64,
    rd_bytes: u64,
    wr_bytes: u64,
    hits: u64,
    bus: Tick,
}

impl Probe for Fold {
    fn dram_cmd(&mut self, ev: CmdEvent) {
        let bytes = u64::from(ev.bytes);
        match ev.cmd {
            DramCmd::Act => self.act += 1,
            DramCmd::Pre => self.pre += 1,
            DramCmd::Ref => self.refs += 1,
            DramCmd::Rd => (self.rd, self.rd_bytes) = (self.rd + 1, self.rd_bytes + bytes),
            DramCmd::Wr => (self.wr, self.wr_bytes) = (self.wr + 1, self.wr_bytes + bytes),
        }
        if matches!(ev.cmd, DramCmd::Rd | DramCmd::Wr) {
            self.hits += u64::from(ev.row_hit);
            self.bus += ev.dur;
        }
    }

    fn req_accepted(&mut self, _: u64, is_read: bool, _: u64, _: u32, _: Tick) {
        if is_read {
            self.reads += 1;
        } else {
            self.writes += 1;
        }
    }
}

impl Fold {
    fn plus(self, o: Fold) -> Fold {
        Fold {
            reads: self.reads + o.reads,
            writes: self.writes + o.writes,
            act: self.act + o.act,
            pre: self.pre + o.pre,
            refs: self.refs + o.refs,
            rd: self.rd + o.rd,
            wr: self.wr + o.wr,
            rd_bytes: self.rd_bytes + o.rd_bytes,
            wr_bytes: self.wr_bytes + o.wr_bytes,
            hits: self.hits + o.hits,
            bus: self.bus + o.bus,
        }
    }

    /// Asserts that `ctrl`, drained at `end`, counts exactly this stream:
    /// in `common_stats()` (whose read-latency sum no command carries)
    /// and in `activity(end)`'s command counts.
    fn assert_counted_by(&self, ctrl: &mut impl Controller, end: Tick, what: &str) {
        let s = ctrl.common_stats();
        let folded = CommonStats {
            reads_accepted: self.reads,
            writes_accepted: self.writes,
            rd_bursts: self.rd,
            wr_bursts: self.wr,
            bytes_read: self.rd_bytes,
            bytes_written: self.wr_bytes,
            row_hits: self.hits,
            activates: self.act,
            precharges: self.pre,
            refreshes: self.refs,
            bus_busy: self.bus,
            read_lat_sum: s.read_lat_sum,
        };
        assert_eq!(s, folded, "{what}: common_stats is not the command stream");
        let a = ctrl.activity(end);
        assert_eq!(
            [
                a.activates,
                a.precharges,
                a.rd_bursts,
                a.wr_bursts,
                a.refreshes
            ],
            [
                s.activates,
                s.precharges,
                s.rd_bursts,
                s.wr_bursts,
                s.refreshes
            ],
            "{what}: activity counts differ from common_stats"
        );
    }
}

/// Runs every workload of two seeds through `mk()`; `probe` reads the
/// controller's fold. Returns the summed folds.
fn assert_counts_are_the_stream<C: Controller>(
    model: &str,
    mk: impl Fn(u64) -> C,
    probe: impl Fn(&C) -> Fold,
) -> Fold {
    let mut total = Fold::default();
    for seed in 1..=2 {
        for (i, mut gen) in workloads(seed).into_iter().enumerate() {
            let mut ctrl = mk(seed);
            let summary = Tester::default().run(&mut gen, &mut ctrl);
            let fold = probe(&ctrl);
            fold.assert_counted_by(
                &mut ctrl,
                summary.duration,
                &format!("{model}, seed {seed}, workload {i}"),
            );
            total = total.plus(fold);
        }
    }
    assert!(total.rd > 0 && total.wr > 0 && total.act > 0 && total.pre > 0);
    total
}

fn event_cfg() -> CtrlConfig {
    let mut cfg = CtrlConfig::new(presets::ddr3_1600_x64());
    cfg.powerdown_idle = 200_000;
    cfg.selfrefresh_after = 2_000_000;
    cfg
}

/// Link errors at 2 % of bursts: replayed bursts are issued (and counted)
/// again.
fn ras(seed: u64) -> Option<RasConfig> {
    Some(RasConfig::from_error_rate(2e11, seed).with_ecc(EccMode::SecDed))
}

#[test]
fn event_model_counts_are_its_command_stream() {
    let low_power = std::cell::Cell::new((0, 0));
    let total = assert_counts_are_the_stream(
        "event",
        |_| DramCtrl::with_probe(event_cfg(), Fold::default()).unwrap(),
        |c| {
            let (pd, sr) = low_power.get();
            low_power.set((pd + c.stats().powerdowns, sr + c.stats().self_refreshes));
            *c.probe()
        },
    );
    // The runs went through refresh, power-down and self-refresh.
    let (pd, sr) = low_power.get();
    assert!(total.refs > 0 && pd > 0 && sr > 0);
    let total = assert_counts_are_the_stream(
        "event, RAS",
        |seed| {
            let mut cfg = event_cfg();
            cfg.ras = ras(seed);
            DramCtrl::with_probe(cfg, Fold::default()).unwrap()
        },
        |c| {
            assert!(c.fault_model().unwrap().stats().retries > 0, "no replay");
            *c.probe()
        },
    );
    assert!(total.refs > 0);
}

#[test]
fn cycle_model_counts_are_its_command_stream() {
    let cfg = || CycleConfig::new(presets::ddr3_1600_x64());
    let total = assert_counts_are_the_stream(
        "cycle",
        |_| CycleCtrl::with_probe(cfg(), Fold::default()).unwrap(),
        |c| *c.probe(),
    );
    assert!(total.refs > 0);
    assert_counts_are_the_stream(
        "cycle, RAS",
        |seed| {
            let mut cfg = cfg();
            cfg.ras = ras(seed);
            CycleCtrl::with_probe(cfg, Fold::default()).unwrap()
        },
        |c| {
            assert!(c.fault_model().unwrap().stats().retries > 0, "no replay");
            *c.probe()
        },
    );
}

/// A two-channel crossbar and a tiered memory count what their parts'
/// command streams hold, together.
#[test]
fn composed_memories_count_the_sum_of_their_parts() {
    let channel = || {
        let mut cfg = event_cfg();
        cfg.channels = 2;
        DramCtrl::with_probe(cfg, Fold::default()).unwrap()
    };
    assert_counts_are_the_stream(
        "2-channel crossbar",
        |_| MultiChannel::new(vec![channel(), channel()], 0).unwrap(),
        |x| (0..2).fold(Fold::default(), |f, c| f.plus(*x.channel(c).probe())),
    );
    assert_counts_are_the_stream(
        "tiered",
        |_| {
            let near = DramCtrl::with_probe(event_cfg(), Fold::default()).unwrap();
            let far =
                CycleCtrl::with_probe(CycleConfig::new(presets::ddr3_1600_x64()), Fold::default())
                    .unwrap();
            TieredMemory::new(near, far, 32 << 20)
        },
        |t| t.near().probe().plus(*t.far().probe()),
    );
}
