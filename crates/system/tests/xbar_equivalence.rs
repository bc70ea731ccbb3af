//! The event-driven crossbar against the polling one it replaced.
//!
//! [`MultiChannel`] calls into a channel only when that channel's cached
//! next-event tick is due. [`PollingXbar`] below is the crossbar as it was
//! before: it calls every channel on every advance and asks every channel
//! for its next event. The two must be indistinguishable from outside —
//! same responses in the same order, same tester summary, same report,
//! same snapshot bytes — and a counting mock shows the event-driven one
//! really does leave idle channels alone. Every event-model channel runs
//! under its own [`TimingChecker`], so the whole matrix also keeps the
//! DRAM timing rules, judged by a checker that knows the protocol and
//! nothing of the controller.

use std::cell::Cell;
use std::collections::VecDeque;

use dramctrl::{CtrlConfig, DramCtrl};
use dramctrl_check::TimingChecker;
use dramctrl_cycle::{CycleConfig, CycleCtrl};
use dramctrl_kernel::snap::{SnapError, SnapReader, SnapState, SnapWriter};
use dramctrl_kernel::Tick;
use dramctrl_mem::{
    presets, ActivityStats, AddrMapping, CommonStats, Controller, Decoder, MemCmd, MemRequest,
    MemResponse, MemSpec, Rejected, ReqId,
};
use dramctrl_stats::Report;
use dramctrl_system::MultiChannel;
use dramctrl_traffic::{InterleaveGen, LinearGen, RandomGen, Tester, TrafficGen};

/// The pre-cache crossbar: stateless between calls, polls every channel.
struct PollingXbar<C> {
    channels: Vec<C>,
    mapping: AddrMapping,
    latency: Tick,
}

impl<C: Controller> PollingXbar<C> {
    fn route(&self, addr: u64) -> usize {
        let n = self.channels.len() as u32;
        Decoder::new(self.mapping, &self.channels[0].spec().org, n).channel_of(addr) as usize
    }

    fn merge(&self, out: &mut [MemResponse]) {
        for resp in out.iter_mut() {
            resp.ready_at += self.latency;
        }
        out.sort_by_key(|r| r.ready_at);
    }
}

impl<C: Controller> Controller for PollingXbar<C> {
    fn try_send(&mut self, req: MemRequest, now: Tick) -> Result<(), Rejected> {
        let ch = self.route(req.addr);
        self.channels[ch].try_send(req, now)
    }
    fn can_accept(&self, cmd: MemCmd, addr: u64, size: u32) -> bool {
        self.channels[self.route(addr)].can_accept(cmd, addr, size)
    }
    fn next_event(&self) -> Option<Tick> {
        self.channels.iter().filter_map(|c| c.next_event()).min()
    }
    fn advance_to(&mut self, limit: Tick, out: &mut Vec<MemResponse>) {
        let before = out.len();
        for c in &mut self.channels {
            c.advance_to(limit, out);
        }
        self.merge(&mut out[before..]);
    }
    fn drain(&mut self, out: &mut Vec<MemResponse>) -> Tick {
        let before = out.len();
        let end = self
            .channels
            .iter_mut()
            .map(|c| c.drain(out))
            .max()
            .unwrap_or(0);
        self.merge(&mut out[before..]);
        end + self.latency
    }
    fn is_idle(&self) -> bool {
        self.channels.iter().all(|c| c.is_idle())
    }
    fn spec(&self) -> &MemSpec {
        self.channels[0].spec()
    }
    fn common_stats(&self) -> CommonStats {
        let mut total = CommonStats::default();
        for s in self.channels.iter().map(|c| c.common_stats()) {
            total.reads_accepted += s.reads_accepted;
            total.writes_accepted += s.writes_accepted;
            total.rd_bursts += s.rd_bursts;
            total.wr_bursts += s.wr_bursts;
            total.bytes_read += s.bytes_read;
            total.bytes_written += s.bytes_written;
            total.row_hits += s.row_hits;
            total.activates += s.activates;
            total.precharges += s.precharges;
            total.refreshes += s.refreshes;
            total.bus_busy += s.bus_busy;
            total.read_lat_sum += s.read_lat_sum;
        }
        total
    }
    fn activity(&mut self, now: Tick) -> ActivityStats {
        let mut total = ActivityStats::default();
        for a in self.channels.iter_mut().map(|c| c.activity(now)) {
            total.activates += a.activates;
            total.precharges += a.precharges;
            total.rd_bursts += a.rd_bursts;
            total.wr_bursts += a.wr_bursts;
            total.refreshes += a.refreshes;
            total.time_all_banks_precharged += a.time_all_banks_precharged;
            total.time_powered_down += a.time_powered_down;
            total.time_self_refresh += a.time_self_refresh;
            total.ranks += a.ranks;
        }
        total.sim_time = now;
        total
    }
    fn report(&self, prefix: &str, now: Tick) -> Report {
        let n = self.channels.len() as u32;
        let stats = self.common_stats();
        let mut r = Report::new(prefix);
        r.counter("channels", u64::from(n));
        r.counter("rd_bursts", stats.rd_bursts);
        r.counter("wr_bursts", stats.wr_bursts);
        r.scalar("avg_bus_util", stats.bus_utilisation(now) / f64::from(n));
        r.scalar("page_hit_rate", stats.page_hit_rate());
        for (i, c) in self.channels.iter().enumerate() {
            r.nest(&c.report(&format!("ch{i}"), now));
        }
        r
    }
}

impl<C: Controller + SnapState> SnapState for PollingXbar<C> {
    fn save_state(&self, w: &mut SnapWriter) {
        w.usize(self.channels.len());
        for c in &self.channels {
            c.save_state(w);
        }
    }
    fn restore_state(&mut self, r: &mut SnapReader<'_>) -> Result<(), SnapError> {
        assert_eq!(r.usize()?, self.channels.len());
        self.channels
            .iter_mut()
            .try_for_each(|c| c.restore_state(r))
    }
}

/// Logs every response in delivery order on its way to the tester.
struct Recording<X> {
    inner: X,
    delivered: Vec<(u64, Tick)>,
}

impl<X: Controller> Controller for Recording<X> {
    fn try_send(&mut self, req: MemRequest, now: Tick) -> Result<(), Rejected> {
        self.inner.try_send(req, now)
    }
    fn can_accept(&self, cmd: MemCmd, addr: u64, size: u32) -> bool {
        self.inner.can_accept(cmd, addr, size)
    }
    fn next_event(&self) -> Option<Tick> {
        self.inner.next_event()
    }
    fn advance_to(&mut self, limit: Tick, out: &mut Vec<MemResponse>) {
        let before = out.len();
        self.inner.advance_to(limit, out);
        self.delivered
            .extend(out[before..].iter().map(|r| (r.id.0, r.ready_at)));
    }
    fn drain(&mut self, out: &mut Vec<MemResponse>) -> Tick {
        let before = out.len();
        let end = self.inner.drain(out);
        self.delivered
            .extend(out[before..].iter().map(|r| (r.id.0, r.ready_at)));
        end
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
        self.inner.activity(now)
    }
    fn report(&self, prefix: &str, now: Tick) -> Report {
        self.inner.report(prefix, now)
    }
}

fn state_bytes(c: &impl SnapState) -> Vec<u8> {
    let mut w = SnapWriter::new(0);
    c.save_state(&mut w);
    w.into_bytes()
}

/// Everything observable about one run.
#[derive(Debug, PartialEq)]
struct Observed {
    delivered: Vec<(u64, Tick)>,
    /// `TestSummary` rendered with `{:?}` (shortest round-trip floats, so
    /// equal strings are bit-equal values) — `inject_stalls` and
    /// `duration` included.
    summary: String,
    report: String,
    mid_activity: ActivityStats,
    mid_snapshot: Vec<u8>,
}

const REQUESTS: u64 = 240;

/// One `Tester` run with two interruptions: `activity(now)` a third of
/// the way in and a snapshot at two thirds — which, with `restore`, is
/// loaded into a crossbar fresh from `mk` that then finishes the run.
/// Also returns the crossbar the run ended in.
fn observe<X: Controller + SnapState>(
    mk: &dyn Fn() -> X,
    mut gen: Box<dyn TrafficGen>,
    restore: bool,
) -> (Observed, X) {
    let mut x = Recording {
        inner: mk(),
        delivered: Vec::new(),
    };
    let mut run = Tester::default().begin();
    let mut mid_activity = None;
    let mut mid_snapshot = None;
    while run.step(&mut gen, &mut x, Tick::MAX) {
        if run.injected() == REQUESTS / 3 {
            mid_activity = Some(x.activity(run.now()));
        }
        if run.injected() == 2 * REQUESTS / 3 {
            let bytes = state_bytes(&x.inner);
            if restore {
                x.inner = mk();
                let mut r = SnapReader::new(&bytes, 0).unwrap();
                x.inner.restore_state(&mut r).unwrap();
                assert!(r.is_exhausted());
            }
            mid_snapshot = Some(bytes);
        }
    }
    let summary = run.finish(&mut x);
    let observed = Observed {
        delivered: x.delivered,
        report: x.inner.report("xbar", summary.duration).to_json(),
        summary: format!("{summary:?}"),
        mid_activity: mid_activity.expect("run reached a third"),
        mid_snapshot: mid_snapshot.expect("run reached two thirds"),
    };
    (observed, x.inner)
}

/// 33 seeded workloads: linear, random and a 3:1 linear/random mix, over
/// three working-set sizes, read shares from 0 to 100 % and saturating or
/// paced injection.
fn workload(i: u64) -> Box<dyn TrafficGen> {
    let seed = 0xB0A7 + i;
    let range = [1 << 20, 16 << 20, 256 << 20][(i / 3 % 3) as usize];
    let read_pct = [100, 67, 50, 0][(i % 4) as usize];
    let period = [0, 0, 3_000][(i / 9 % 3) as usize];
    match i % 3 {
        0 => Box::new(LinearGen::new(
            0, range, 64, read_pct, period, REQUESTS, seed,
        )),
        1 => Box::new(RandomGen::new(
            0, range, 64, read_pct, period, REQUESTS, seed,
        )),
        _ => Box::new(InterleaveGen::new(
            LinearGen::new(0, range, 64, read_pct, period, REQUESTS * 3 / 4, seed),
            RandomGen::new(0, range, 32, 50, period, REQUESTS / 4, seed + 1),
            3,
            1,
        )),
    }
}
const WORKLOADS: u64 = 33;

/// Runs the matrix; `check` is called on every channel of every run that
/// went through without a restore (a restored channel's probe starts
/// mid-stream, so it has nothing to judge the first commands by).
fn assert_equivalent<C: Controller + SnapState>(
    model: &str,
    mk_channel: impl Fn(u32, AddrMapping) -> C,
    check: impl Fn(&C),
) {
    for channels in [2u32, 3, 4, 16] {
        for latency in [0, 5_000] {
            for mapping in [AddrMapping::RoRaBaCoCh, AddrMapping::RoRaBaChCo] {
                let mk_channels = || -> Vec<C> {
                    (0..channels)
                        .map(|_| mk_channel(channels, mapping))
                        .collect()
                };
                let polling = || PollingXbar {
                    channels: mk_channels(),
                    mapping,
                    latency,
                };
                let event_driven = || {
                    MultiChannel::new(mk_channels(), latency)
                        .unwrap()
                        .with_mapping(mapping)
                };
                for i in 0..WORKLOADS {
                    let what =
                        format!("{model} x{channels}, latency {latency}, {mapping}, workload {i}");
                    // The reference runs through; the crossbar under test
                    // is also torn down and restored mid-run.
                    let (want, polled) = observe(&polling, workload(i), false);
                    assert_eq!(want.delivered.len() as u64, REQUESTS, "{what}");
                    polled.channels.iter().for_each(&check);
                    for restore in [false, true] {
                        let (got, xbar) = observe(&event_driven, workload(i), restore);
                        assert!(got == want, "{what}, restore {restore}: diverged");
                        if !restore {
                            (0..channels as usize).for_each(|c| check(xbar.channel(c)));
                        }
                    }
                }
            }
        }
    }
}

/// Each event-model channel carries its own timing oracle, and every
/// channel of every unrestored run keeps the device's timing rules.
#[test]
fn event_driven_crossbar_matches_polling_over_event_channels() {
    assert_equivalent(
        "event",
        |channels, mapping| {
            let spec = presets::hbm_1000_x128();
            let mut cfg = CtrlConfig::new(spec.clone());
            cfg.channels = channels;
            cfg.mapping = mapping;
            DramCtrl::with_probe(cfg, TimingChecker::new(&spec)).unwrap()
        },
        |ch| ch.probe().assert_clean(),
    );
}

#[test]
fn event_driven_crossbar_matches_polling_over_cycle_channels() {
    assert_equivalent(
        "cycle",
        |channels, mapping| {
            let mut cfg = CycleConfig::new(presets::hbm_1000_x128());
            cfg.channels = channels;
            cfg.mapping = mapping;
            CycleCtrl::new(cfg).unwrap()
        },
        |_| {},
    );
}

/// A scripted channel that counts the calls it receives. Every accepted
/// request is answered `delay` ticks later; a request to an address with
/// bit 12 set is refused but still schedules a (response-less) wake-up —
/// the way a rejected arrival wakes a powered-down rank.
struct Mock {
    spec: MemSpec,
    delay: Tick,
    pending: VecDeque<(Tick, Option<MemResponse>)>,
    advances: Vec<Tick>,
    next_event_calls: Cell<u64>,
}

impl Mock {
    fn new(delay: Tick) -> Self {
        Self {
            spec: presets::ddr3_1600_x64(),
            delay,
            pending: VecDeque::new(),
            advances: Vec::new(),
            next_event_calls: Cell::new(0),
        }
    }

    fn schedule(&mut self, at: Tick, resp: Option<MemResponse>) {
        let pos = self.pending.partition_point(|&(t, _)| t <= at);
        self.pending.insert(pos, (at, resp));
    }
}

impl Controller for Mock {
    fn try_send(&mut self, req: MemRequest, now: Tick) -> Result<(), Rejected> {
        if req.addr & (1 << 12) != 0 {
            self.schedule(now + 1, None);
            return Err(Rejected::Full);
        }
        let at = now + self.delay;
        self.schedule(at, Some(MemResponse::to(&req, at)));
        Ok(())
    }
    fn can_accept(&self, _: MemCmd, _: u64, _: u32) -> bool {
        true
    }
    fn next_event(&self) -> Option<Tick> {
        self.next_event_calls.set(self.next_event_calls.get() + 1);
        self.pending.front().map(|&(t, _)| t)
    }
    fn advance_to(&mut self, limit: Tick, out: &mut Vec<MemResponse>) {
        self.advances.push(limit);
        while self.pending.front().is_some_and(|&(t, _)| t <= limit) {
            out.extend(self.pending.pop_front().and_then(|(_, resp)| resp));
        }
    }
    fn drain(&mut self, out: &mut Vec<MemResponse>) -> Tick {
        let end = self.pending.back().map_or(0, |&(t, _)| t);
        out.extend(self.pending.drain(..).filter_map(|(_, resp)| resp));
        end
    }
    fn is_idle(&self) -> bool {
        self.pending.is_empty()
    }
    fn spec(&self) -> &MemSpec {
        &self.spec
    }
    fn common_stats(&self) -> CommonStats {
        CommonStats::default()
    }
    fn activity(&mut self, _: Tick) -> ActivityStats {
        ActivityStats::default()
    }
    fn report(&self, prefix: &str, _: Tick) -> Report {
        Report::new(prefix)
    }
}

#[test]
fn only_due_channels_are_advanced_and_next_event_touches_none() {
    // Channel i answers after 100 * (i + 1) ticks; 64-byte interleaving.
    let mocks = (0..4).map(|i| Mock::new(100 * (i + 1))).collect();
    let mut x = MultiChannel::new(mocks, 0).unwrap();
    let to = |ch: u64, id: u64| MemRequest::read(ReqId(id), ch * 64, 64);
    let advances = |x: &MultiChannel<Mock>| -> Vec<Vec<Tick>> {
        (0..4).map(|i| x.channel(i).advances.clone()).collect()
    };
    let polled = |x: &MultiChannel<Mock>| -> u64 {
        (0..4).map(|i| x.channel(i).next_event_calls.get()).sum()
    };

    x.try_send(to(2, 0), 0).unwrap(); // due at 300
    x.try_send(to(0, 1), 0).unwrap(); // due at 100
    let before = polled(&x);
    assert_eq!(x.next_event(), Some(100));
    assert_eq!(polled(&x), before, "next_event() asked a channel");

    let mut out = Vec::new();
    x.advance_to(99, &mut out);
    assert!(out.is_empty());
    assert_eq!(
        advances(&x),
        [vec![], vec![], vec![], vec![]],
        "limit < min"
    );

    x.advance_to(100, &mut out);
    assert_eq!(out.len(), 1);
    assert_eq!(advances(&x), [vec![100], vec![], vec![], vec![]]);
    assert_eq!(x.next_event(), Some(300));

    x.advance_to(250, &mut out);
    assert_eq!(advances(&x), [vec![100], vec![], vec![], vec![]]);

    // An arrival may put a channel's next event *before* everyone's
    // (channel 1 at 260 + 200 > channel 0 at 260 + 100 < channel 2 at 300).
    x.try_send(to(1, 2), 260).unwrap();
    x.try_send(to(0, 3), 260).unwrap();
    assert_eq!(x.next_event(), Some(300));
    // A refused request still moved its channel's next event.
    let refused = MemRequest::read(ReqId(4), (3 * 64) | (1 << 12), 64);
    assert_eq!(x.try_send(refused, 270), Err(Rejected::Full));
    assert_eq!(x.next_event(), Some(271));

    x.advance_to(300, &mut out);
    assert_eq!(out.len(), 2, "the wake-up carries no response");
    assert_eq!(advances(&x), [vec![100], vec![], vec![300], vec![300]]);
    x.advance_to(460, &mut out);
    assert_eq!(
        advances(&x),
        [vec![100, 460], vec![460], vec![300], vec![300]]
    );
    assert_eq!(out.len(), 4);
    assert!(out.windows(2).all(|w| w[0].ready_at <= w[1].ready_at));

    let before = polled(&x);
    assert_eq!(x.next_event(), None);
    assert_eq!(polled(&x), before);
    x.advance_to(Tick::MAX - 1, &mut out);
    assert_eq!(
        advances(&x),
        [vec![100, 460], vec![460], vec![300], vec![300]]
    );
}
