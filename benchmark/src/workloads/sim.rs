//! The three simulation workloads: one `Tester::run` per repeat, the
//! event model timed, the cycle model and the paced accuracy pair run
//! only in the traced invocation.
//!
//! - `stream_read`: row hits dominate and the scheduler has nothing to
//!   choose, so host time sits in the event queue, the bank-timing
//!   update and the tester itself.
//! - `random_mixed`: the same controller used differently — deep queues,
//!   row misses, write-queue snooping and drain switching, FR-FCFS doing
//!   real work. A gain bought for reads at the cost of writes shows here.
//! - `hmc_16ch`: sixteen channels behind the crossbar; the only workload
//!   where routing and sixteen event queues matter.

use super::{Ctx, SETUPS};
use crate::calib::Calibrator;
use crate::report::Outcome;
use crate::span::{CtrlFolds, Spanned, SpannedGen};
use crate::stats::{median, undisturbed};
use dramctrl::{DramCtrl, PagePolicy};
use dramctrl_bench::{cy_ctrl, ev_ctrl};
use dramctrl_cycle::CycleCtrl;
use dramctrl_kernel::EventQueue;
use dramctrl_kernel::{tick, Tick};
use dramctrl_mem::{
    presets, ActivityStats, AddrMapping, CommonStats, Controller, MemCmd, MemRequest, MemResponse,
    MemSpec, Rejected,
};
use dramctrl_stats::Report;
use dramctrl_system::MultiChannel;
use dramctrl_traffic::{LinearGen, RandomGen, TestSummary, TrafficGen};
use std::time::Instant;

const MAPPING: AddrMapping = AddrMapping::RoRaBaCoCh;
const BLOCK: u32 = 64;

/// One simulation workload's inputs. Request counts are sized so a
/// repeat takes 0.1-0.3 s on the reference host: short enough for a few
/// dozen repeats per run (the median needs them), long enough that
/// construction and the final drain are noise.
struct Def {
    device: &'static str,
    channels: u32,
    random: bool,
    range: u64,
    read_pct: u8,
    requests: u64,
    cycle_requests: u64,
    paced_requests: u64,
}

fn def(name: &str) -> Def {
    match name {
        "stream_read" => Def {
            device: "DDR3-1600-x64",
            channels: 1,
            random: false,
            range: 256 << 20,
            read_pct: 100,
            requests: 400_000,
            cycle_requests: 100_000,
            paced_requests: 60_000,
        },
        "random_mixed" => Def {
            device: "DDR3-1600-x64",
            channels: 1,
            random: true,
            range: 256 << 20,
            read_pct: 67,
            requests: 250_000,
            cycle_requests: 25_000,
            paced_requests: 30_000,
        },
        "hmc_16ch" => Def {
            device: "HBM-1000-x128",
            channels: 16,
            random: false,
            range: 1 << 30,
            read_pct: 67,
            requests: 250_000,
            cycle_requests: 100_000,
            paced_requests: 60_000,
        },
        other => unreachable!("not a simulation workload: {other}"),
    }
}

impl Def {
    fn spec(&self) -> MemSpec {
        presets::by_name(self.device).expect("workload devices are presets")
    }

    /// The request stream: `count` requests `period` ticks apart
    /// (0 saturates the controller).
    fn gen(&self, period: Tick, count: u64, seed: u64) -> Box<dyn TrafficGen> {
        if self.random {
            Box::new(RandomGen::new(
                0,
                self.range,
                BLOCK,
                self.read_pct,
                period,
                count,
                seed,
            ))
        } else {
            Box::new(LinearGen::new(
                0,
                self.range,
                BLOCK,
                self.read_pct,
                period,
                count,
                seed,
            ))
        }
    }

    /// Injection period that loads the data bus to about one half.
    fn paced_period(&self, spec: &MemSpec) -> Tick {
        let bursts_per_req = u64::from(BLOCK).div_ceil(spec.org.burst_bytes()).max(1);
        (2 * spec.timing.t_burst * bursts_per_req / u64::from(self.channels)).max(1)
    }

    fn rig<C: Controller>(&self, mk: impl Fn() -> C) -> Rig<C> {
        if self.channels == 1 {
            Rig::One(mk())
        } else {
            let xbar = MultiChannel::new((0..self.channels).map(|_| mk()).collect(), 0)
                .expect("identical channels make a valid crossbar");
            Rig::Many(xbar.with_mapping(MAPPING))
        }
    }

    fn event(&self, spec: &MemSpec) -> Rig<DramCtrl> {
        self.rig(|| ev_ctrl(spec.clone(), PagePolicy::Open, MAPPING, self.channels))
    }

    fn cycle(&self, spec: &MemSpec) -> Rig<CycleCtrl> {
        self.rig(|| cy_ctrl(spec.clone(), PagePolicy::Open, MAPPING, self.channels))
    }

    /// The event rig with every boundary timed: per channel inside the
    /// crossbar, and once more outside it.
    fn traced(&self, spec: &MemSpec) -> TracedRig {
        let mk = || ev_ctrl(spec.clone(), PagePolicy::Open, MAPPING, self.channels);
        if self.channels == 1 {
            TracedRig::One(Spanned::new(mk()))
        } else {
            let inner = (0..self.channels).map(|_| Spanned::new(mk())).collect();
            let xbar = MultiChannel::new(inner, 0).expect("identical channels");
            TracedRig::Many(Spanned::new(xbar.with_mapping(MAPPING)))
        }
    }
}

/// A controller that is one channel or a crossbar of them, so the
/// measuring code below is written once.
enum Rig<C: Controller> {
    One(C),
    Many(MultiChannel<C>),
}

// One rig lives per repeat; boxing the large variant would put an
// indirection on the measured path.
#[allow(clippy::large_enum_variant)]
enum TracedRig {
    One(Spanned<DramCtrl>),
    Many(Spanned<MultiChannel<Spanned<DramCtrl>>>),
}

impl TracedRig {
    /// `(boundary the tester sees, per-channel boundaries)`; the second
    /// is empty without a crossbar.
    fn folds(&self) -> (CtrlFolds, Vec<CtrlFolds>) {
        match self {
            TracedRig::One(c) => (c.folds, Vec::new()),
            TracedRig::Many(x) => {
                let chans = (0..x.inner().channels() as usize)
                    .map(|i| x.inner().channel(i).folds)
                    .collect();
                (x.folds, chans)
            }
        }
    }
}

macro_rules! delegate_controller {
    ($ty:ty, [$($generics:tt)*], $($variant:path),+) => {
        impl<$($generics)*> Controller for $ty {
            fn try_send(&mut self, req: MemRequest, now: Tick) -> Result<(), Rejected> {
                match self { $($variant(c) => c.try_send(req, now),)+ }
            }
            fn can_accept(&self, cmd: MemCmd, addr: u64, size: u32) -> bool {
                match self { $($variant(c) => c.can_accept(cmd, addr, size),)+ }
            }
            fn next_event(&self) -> Option<Tick> {
                match self { $($variant(c) => c.next_event(),)+ }
            }
            fn advance_to(&mut self, limit: Tick, out: &mut Vec<MemResponse>) {
                match self { $($variant(c) => c.advance_to(limit, out),)+ }
            }
            fn drain(&mut self, out: &mut Vec<MemResponse>) -> Tick {
                match self { $($variant(c) => c.drain(out),)+ }
            }
            fn is_idle(&self) -> bool {
                match self { $($variant(c) => c.is_idle(),)+ }
            }
            fn spec(&self) -> &MemSpec {
                match self { $($variant(c) => c.spec(),)+ }
            }
            fn common_stats(&self) -> CommonStats {
                match self { $($variant(c) => c.common_stats(),)+ }
            }
            fn activity(&mut self, now: Tick) -> ActivityStats {
                match self { $($variant(c) => c.activity(now),)+ }
            }
            fn report(&self, prefix: &str, now: Tick) -> Report {
                match self { $($variant(c) => c.report(prefix, now),)+ }
            }
        }
    };
}

delegate_controller!(Rig<C>, [C: Controller], Rig::One, Rig::Many);
delegate_controller!(TracedRig, [], TracedRig::One, TracedRig::Many);

/// One `Tester::run`, timed.
struct Run {
    summary: TestSummary,
    started: Instant,
    ended: Instant,
    /// The controller's full statistics report, for the determinism check.
    report: String,
}

impl Run {
    fn secs(&self) -> f64 {
        (self.ended - self.started).as_secs_f64()
    }
}

fn timed_run(gen: &mut impl TrafficGen, ctrl: &mut impl Controller) -> Run {
    let tester = dramctrl_bench::std_tester();
    let started = Instant::now();
    let summary = tester.run(gen, ctrl);
    let ended = Instant::now();
    let report = ctrl.report("ctrl", summary.duration).to_json();
    Run {
        summary,
        started,
        ended,
        report,
    }
}

/// Tallies completions and the determinism check over repeats.
#[derive(Default)]
struct Tally {
    attempted: u64,
    failed: u64,
    first_report: Option<String>,
    reports_identical: bool,
}

impl Tally {
    fn new() -> Self {
        Self {
            reports_identical: true,
            ..Self::default()
        }
    }

    fn add(&mut self, requests: u64, run: &Run) {
        let s = &run.summary;
        let completed = s.reads_completed + s.writes_completed;
        self.attempted += requests;
        self.failed += requests.saturating_sub(completed) + s.dropped;
        match &self.first_report {
            None => self.first_report = Some(run.report.clone()),
            Some(first) => self.reports_identical &= *first == run.report,
        }
    }
}

/// Simulated statistics of one run under `prefix` (`core` or `cycle`).
fn simulated(out: &mut Outcome, names: [&'static str; 4], s: &TestSummary, channels: u32) {
    let [ticks, hit, util, lat] = names;
    out.set(ticks, s.duration as f64);
    out.set(hit, s.ctrl.page_hit_rate());
    out.set(util, s.bus_util / f64::from(channels));
    out.set(lat, s.ctrl.avg_read_lat() / tick::NS as f64);
}

/// `EventQueue` schedule + pop pairs per second at a steady depth of 64.
fn evq_ops_per_s() -> f64 {
    const DEPTH: u64 = 64;
    const OPS: u64 = 2_000_000;
    let batches: Vec<f64> = (0..5)
        .map(|_| {
            let mut q: EventQueue<u32> = EventQueue::with_capacity(DEPTH as usize);
            for i in 0..DEPTH {
                q.schedule(i * 7 % DEPTH, i as u32);
            }
            let t = Instant::now();
            for i in 0..OPS {
                let (at, e) = q.pop().expect("depth stays at 64");
                // A spread of deltas, so pushes land throughout the heap.
                q.schedule(at + 1 + (i * 31) % 97, std::hint::black_box(e));
            }
            OPS as f64 / t.elapsed().as_secs_f64()
        })
        .collect();
    median(&batches)
}

pub fn run(name: &str, ctx: &mut Ctx) -> Result<Outcome, String> {
    let d = def(name);
    let seed = ctx.sub_seed(0);
    let mut out = Outcome::default();
    let mut tally = Tally::new();
    let mut cal = Calibrator::new(1);

    // Set-up: everything before the first timed repeat — preset lookup,
    // controller (and crossbar) construction, and the warm-up repeat
    // that fills allocations and caches.
    let mut setups = Vec::with_capacity(SETUPS);
    for _ in 0..SETUPS {
        let t = Instant::now();
        let spec = d.spec();
        let mut ctrl = d.event(&spec);
        let warm = timed_run(&mut d.gen(0, d.requests, seed), &mut ctrl);
        setups.push(cal.scale(t.elapsed().as_secs_f64()));
        tally.add(d.requests, &warm);
    }
    let spec = d.spec();

    // Untraced repeats: the end-to-end numbers always come from these.
    let deadline = ctx.deadline(if ctx.trace { 0.3 } else { 1.0 });
    let (mut secs, mut wall) = (Vec::new(), Vec::new());
    while secs.len() < 3 || Instant::now() < deadline {
        let mut ctrl = d.event(&spec);
        let run = timed_run(&mut d.gen(0, d.requests, seed), &mut ctrl);
        tally.add(d.requests, &run);
        secs.push(cal.scale(run.secs()));
        wall.push(run.secs());
    }
    let run_s = undisturbed(&secs);
    out.set_whole_result(run_s, 1.0, d.requests as f64);
    out.set("setup_s", undisturbed(&setups));
    out.set("harness.samples", secs.len() as f64);
    out.notes.push(format!(
        "{} requests per repeat, {} timed repeats, saturating injection, {} channel(s) {}",
        d.requests,
        secs.len(),
        d.channels,
        d.device
    ));
    out.notes.push(format!(
        "raw wall clock: {:.0} req/s, repeat {:.3} ms",
        d.requests as f64 / undisturbed(&wall),
        undisturbed(&wall) * 1e3
    ));

    if ctx.trace {
        traced(ctx, &d, &spec, seed, run_s, &mut cal, &mut tally, &mut out);
    }

    out.check(
        "every injected request completed and none was dropped",
        tally.failed == 0,
    );
    out.check(
        "controller statistics report byte-identical across repeats",
        tally.reports_identical,
    );
    out.attempted = tally.attempted;
    out.failed = tally.failed;
    out.set("harness.host_speed", cal.median_speed());
    out.set("peak_rss_mb", crate::host::peak_rss_mb());
    Ok(out)
}

/// The per-layer half: traced event repeats, the cycle model on the same
/// (shorter) stream, the paced accuracy pair and the event-queue micro.
#[allow(clippy::too_many_arguments)]
fn traced(
    ctx: &mut Ctx,
    d: &Def,
    spec: &MemSpec,
    seed: u64,
    untraced_run_s: f64,
    cal: &mut Calibrator,
    tally: &mut Tally,
    out: &mut Outcome,
) {
    let timer = ctx.timer;
    let n = d.requests as f64;

    // Per-repeat values; each metric is the median over traced repeats.
    let mut cols: Vec<(&'static str, Vec<f64>)> = [
        "traffic.gen_busy_s",
        "traffic.tester_self_s",
        "core.try_send_busy_s",
        "core.advance_busy_s",
        "core.drain_busy_s",
        "system.xbar_self_s",
        "system.channel_busy_s_sum",
        "system.channel_busy_s_max",
    ]
    .into_iter()
    .map(|name| (name, Vec::new()))
    .collect();
    let mut traced_secs = Vec::new();
    let mut last = None;
    let deadline = ctx.deadline(0.3);
    let mut repeat = 0u64;
    cal.sample();
    while traced_secs.len() < 2 || Instant::now() < deadline {
        let mut ctrl = d.traced(spec);
        let mut gen = SpannedGen::new(d.gen(0, d.requests, seed));
        let run = timed_run(&mut gen, &mut ctrl);
        let speed = cal.speed_since_last();
        tally.add(d.requests, &run);
        let (outer, chans) = ctrl.folds();

        let root = ctx
            .recorder
            .push("traffic.tester_run", run.started, run.ended, None, repeat);
        ctx.recorder.fold("traffic.gen", root, &gen.fold, &timer);
        let boundary = if chans.is_empty() { "core" } else { "system" };
        for (call, f) in [
            ("try_send", &outer.try_send),
            ("advance_to", &outer.advance),
            ("drain", &outer.drain),
        ] {
            ctx.recorder
                .fold(format!("{boundary}.{call}"), root, f, &timer);
        }
        let tester_self = ctx.recorder.self_s(root);

        // The core layer's boundary is the per-channel one when there is
        // a crossbar, the tester-facing one when there is not.
        let core = if chans.is_empty() {
            outer
        } else {
            let mut sum = CtrlFolds::default();
            for c in &chans {
                sum.try_send.add(&c.try_send);
                sum.advance.add(&c.advance);
                sum.drain.add(&c.drain);
                sum.rejected_full += c.rejected_full;
            }
            sum
        };
        let chan_busy: Vec<f64> = chans.iter().map(|c| c.total().busy_s(&timer)).collect();
        let chan_sum: f64 = chan_busy.iter().sum();
        let chan_max = chan_busy.iter().copied().fold(0.0, f64::max);
        let values = [
            gen.fold.busy_s(&timer),
            tester_self,
            core.try_send.busy_s(&timer),
            core.advance.busy_s(&timer),
            core.drain.busy_s(&timer),
            if chans.is_empty() {
                0.0
            } else {
                // What the crossbar's boundary saw, minus its channels
                // and minus what timing the channels cost it.
                let timing = core.total().overhead_s(&timer);
                (outer.total().busy_s(&timer) - chan_sum - timing).max(0.0)
            },
            chan_sum,
            chan_max,
        ];
        for ((_, col), v) in cols.iter_mut().zip(values) {
            col.push(v * speed);
        }
        traced_secs.push(run.secs() * speed);
        last = Some((run.summary, gen.fold.calls, core));
        repeat += 1;
    }
    for (name, col) in &cols {
        out.set(name, median(col));
    }
    let (summary, gen_calls, core) = last.expect("at least two traced repeats ran");
    out.set("traffic.gen_calls", gen_calls as f64);
    out.set("traffic.inject_stalls", summary.inject_stalls as f64);
    out.set("core.try_send_calls", core.try_send.calls as f64);
    out.set("core.rejected_full", core.rejected_full as f64);
    out.set("core.advance_calls", core.advance.calls as f64);
    let core_busy = [
        "core.try_send_busy_s",
        "core.advance_busy_s",
        "core.drain_busy_s",
    ]
    .iter()
    .map(|k| out.metrics[k])
    .sum::<f64>();
    out.set("core.ns_per_req", core_busy * 1e9 / n);
    let sum = out.metrics["system.channel_busy_s_sum"];
    let max = out.metrics["system.channel_busy_s_max"];
    if max > 0.0 {
        // 1.0 is a perfectly even split; a channel-parallel crossbar is
        // bounded by sum/max.
        out.set(
            "system.channel_imbalance",
            max * f64::from(d.channels) / sum,
        );
    }
    simulated(
        out,
        [
            "core.sim_ticks",
            "core.row_hit_rate",
            "core.bus_util",
            "core.avg_read_lat_ns",
        ],
        &summary,
        d.channels,
    );
    out.set("core.rd_bursts", summary.ctrl.rd_bursts as f64);
    out.set("core.wr_bursts", summary.ctrl.wr_bursts as f64);
    out.set("core.activates", summary.ctrl.activates as f64);
    out.set("harness.timer_cost_ns", timer.pair_ns);
    out.set(
        "harness.trace_overhead_pct",
        (undisturbed(&traced_secs) / untraced_run_s - 1.0) * 100.0,
    );

    // The cycle model on the same stream, shorter: it is the slower,
    // more detailed reference the paper's speed claim is made against.
    let deadline = ctx.deadline(0.2);
    let mut cycle_secs = Vec::new();
    let mut cycle_summary = None;
    while cycle_secs.len() < 2 || Instant::now() < deadline {
        let mut ctrl = d.cycle(spec);
        let run = timed_run(&mut d.gen(0, d.cycle_requests, seed), &mut ctrl);
        let done = run.summary.reads_completed + run.summary.writes_completed;
        out.check(
            "cycle model completed its stream",
            done == d.cycle_requests && run.summary.dropped == 0,
        );
        cycle_secs.push(cal.scale(run.secs()));
        cycle_summary = Some(run.summary);
    }
    let cycle_rate = d.cycle_requests as f64 / undisturbed(&cycle_secs);
    out.set("cycle.req_per_s", cycle_rate);
    out.set("cycle.ns_per_req", 1e9 / cycle_rate);
    out.set("cycle.event_over_cycle", n / untraced_run_s / cycle_rate);
    simulated(
        out,
        [
            "cycle.sim_ticks",
            "cycle.row_hit_rate",
            "cycle.bus_util",
            "cycle.avg_read_lat_ns",
        ],
        &cycle_summary.expect("at least two cycle repeats ran"),
        d.channels,
    );

    // Accuracy: both models on a paced variant of the stream (about half
    // the bus), where queueing does not hide timing differences. The
    // cycle model is the reference; neither is validated against
    // hardware, so this is model-vs-model error, not error against truth.
    let period = d.paced_period(spec);
    let ev = timed_run(
        &mut d.gen(period, d.paced_requests, seed),
        &mut d.event(spec),
    )
    .summary;
    let cy = timed_run(
        &mut d.gen(period, d.paced_requests, seed),
        &mut d.cycle(spec),
    )
    .summary;
    let err = |e: f64, c: f64| {
        if c == 0.0 {
            0.0
        } else {
            (e - c).abs() / c * 100.0
        }
    };
    out.set(
        "model.bw_err_pct",
        err(ev.bandwidth_gbps, cy.bandwidth_gbps),
    );
    out.set(
        "model.lat_err_pct",
        err(ev.ctrl.avg_read_lat(), cy.ctrl.avg_read_lat()),
    );
    out.notes.push(format!(
        "paced pair: period {period} ticks, event bus_util {:.3} vs cycle {:.3}; \
         the model is unvalidated against hardware",
        ev.bus_util / f64::from(d.channels),
        cy.bus_util / f64::from(d.channels)
    ));

    cal.sample();
    let evq = evq_ops_per_s();
    out.set("kernel.evq_ops_per_s", evq / cal.speed_since_last());
}
