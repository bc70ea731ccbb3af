//! The event contract of [`Controller`] (see the trait docs), asserted at
//! every step of seeded runs: `advance_to(limit)` changes nothing and
//! emits nothing when `next_event()` is `None` or `> limit`, and
//! `next_event()` changes only through `&mut self` calls. The crossbar's
//! cached next-event ticks are sound only while both hold.

use dramctrl::{CtrlConfig, DramCtrl};
use dramctrl_cycle::{CycleConfig, CycleCtrl};
use dramctrl_kernel::snap::{SnapState, SnapWriter};
use dramctrl_kernel::Tick;
use dramctrl_mem::{
    presets, ActivityStats, CommonStats, Controller, MemCmd, MemRequest, MemResponse, MemSpec,
    Rejected,
};
use dramctrl_stats::Report;
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
            refreshes += c.stats().refreshes;
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
