//! The canonical runner: wires a [`Wiring`] — spelled out by a front end,
//! or implied by a declarative [`JobSpec`] — to real controllers, a
//! traffic generator and the [`Tester`] run loop, or hands the memory it
//! describes to a caller that drives it itself ([`Wiring::build`]).
//!
//! This is the scaffolding every figure/ablation binary and the CLI used
//! to duplicate — build a controller for a (policy, scheduler, mapping,
//! channels) tuple, build a seeded generator, push the stream through
//! the tester, read the summary — extracted once so that the binaries,
//! the `dramctrl-campaign` executor, the daemon and `dramctrl run` share
//! it.

use dramctrl::{CtrlConfig, DramCtrl, EccMode, FaultModel, RasConfig};
use dramctrl_campaign::{JobMetrics, JobSpec, Model, TrafficPattern};
use dramctrl_cycle::{CycleConfig, CycleCtrl};
use dramctrl_kernel::fsio::write_atomic;
use dramctrl_kernel::snap::{fingerprint, SnapError, SnapReader, SnapState, SnapWriter};
use dramctrl_kernel::Tick;
use dramctrl_mem::{
    presets, ActivityStats, AddrMapping, CommonStats, Controller, EpochRecorder, MemCmd,
    MemRequest, MemResponse, MemSpec, Rejected,
};
use dramctrl_obs::{ChromeTracer, NoProbe, Probe};
use dramctrl_stats::Report;
use dramctrl_system::MultiChannel;
use dramctrl_traffic::{DramAwareGen, LinearGen, RandomGen, SnapGen, TestRun, TestSummary, Tester};
use std::cell::RefCell;
use std::collections::BTreeMap;
use std::io;
use std::path::Path;

thread_local! {
    /// One retired event-model controller per worker thread, reused via
    /// [`DramCtrl::reset`] when the next job wants an identical
    /// configuration — the common case in a campaign sweeping traffic
    /// axes over a fixed device. Keyed by config equality, so any config
    /// change falls back to a fresh build.
    static EV_CTRL_CACHE: RefCell<Option<Box<DramCtrl>>> = const { RefCell::new(None) };
}

/// The worker's cached controller, reset and re-armed, when its
/// configuration is `cfg` (any other cached controller is dropped).
/// Boxed, so that handing it to a run and back moves a pointer, not the
/// controller.
fn cached_ev_ctrl(cfg: &CtrlConfig) -> Option<Box<DramCtrl>> {
    let cached = EV_CTRL_CACHE.with(|c| c.borrow_mut().take());
    let mut ctrl = cached.filter(|c| c.config() == cfg)?;
    ctrl.reset();
    ctrl.set_tick_budget(Some(JOB_TICK_BUDGET));
    Some(ctrl)
}

/// Retires a finished controller into the worker's cache for the next
/// job. Its queues, event heap and group arena keep their allocations.
fn retire_ev_ctrl(ctrl: Box<DramCtrl>) {
    EV_CTRL_CACHE.with(|c| *c.borrow_mut() = Some(ctrl));
}

/// Drops the calling thread's retired controller. For a long-lived
/// worker about to block with nothing to run: an idle thread should not
/// pin a controller's queues and arenas, and the next job it starts
/// builds a fresh one.
pub fn release_idle_cache() {
    EV_CTRL_CACHE.with(|c| *c.borrow_mut() = None);
}

/// The cycle baseline matching the event-model configuration `ctrl`: the
/// device, page policy, scheduler, mapping, channel count and fault model
/// copied (both models speak one [`PagePolicy`](dramctrl_mem::PagePolicy);
/// the baseline runs an adaptive one as its plain form), and the event
/// model's write snooping switched on, so that model comparisons service
/// the same burst stream on both sides.
///
/// # Errors
/// An event-only setting — one the baseline has no counterpart for —
/// that differs from [`CtrlConfig::new`]'s value, named; the baseline
/// refuses it rather than simulate something else.
pub fn cy_cfg(ctrl: &CtrlConfig) -> Result<CycleConfig, String> {
    let d = CtrlConfig::new(ctrl.spec.clone());
    macro_rules! first_changed {
        ($($field:ident),*) => {
            [$((stringify!($field), ctrl.$field != d.$field)),*].into_iter().find(|f| f.1)
        };
    }
    let changed = first_changed!(
        powerdown_idle,
        selfrefresh_after,
        qos_priorities,
        write_high_thresh,
        write_low_thresh,
        min_writes_per_switch,
        read_buffer_size,
        write_buffer_size,
        frontend_latency,
        backend_latency,
        max_accesses_per_row
    );
    if let Some((field, _)) = changed {
        return Err(format!(
            "{field} needs the event model: the cycle baseline has no such setting"
        ));
    }
    let mut cfg = CycleConfig::new(ctrl.spec.clone());
    (cfg.page_policy, cfg.scheduling) = (ctrl.page_policy, ctrl.scheduling);
    (cfg.mapping, cfg.channels) = (ctrl.mapping, ctrl.channels);
    cfg.write_snooping = true;
    cfg.ras = ctrl.ras.clone();
    Ok(cfg)
}

/// The tester configuration shared by the campaign runner and the
/// ablation binaries: 200 µs latency cap, 1 000 histogram buckets.
pub fn std_tester() -> Tester {
    Tester::new(200_000, 1_000)
}

/// Builds the seeded traffic generator described by `job`. The box is a
/// [`SnapGen`], so the generator's stream position participates in job
/// checkpoints.
pub fn gen_for_job(job: &JobSpec, spec: &MemSpec) -> Box<dyn SnapGen> {
    let rd = job.read_pct;
    let n = job.requests;
    match job.traffic {
        TrafficPattern::Linear { range, block } => {
            Box::new(LinearGen::new(0, range, block, rd, 0, n, job.seed))
        }
        TrafficPattern::Random { range, block } => {
            Box::new(RandomGen::new(0, range, block, rd, 0, n, job.seed))
        }
        TrafficPattern::DramAware { stride, banks } => Box::new(DramAwareGen::new(
            spec.org,
            job.mapping,
            job.channels,
            0,
            stride,
            banks,
            rd,
            0,
            n,
            job.seed,
        )),
    }
}

/// The RAS configuration a job's `error_rate` axis implies: `None` at
/// rate 0 (byte-identical to a build without the RAS subsystem), else a
/// SEC-DED fault model seeded with the job seed.
pub fn ras_for_job(job: &JobSpec) -> Option<RasConfig> {
    (job.error_rate > 0.0)
        .then(|| RasConfig::from_error_rate(job.error_rate, job.seed).with_ecc(EccMode::SecDed))
}

/// Tick budget armed on every event-model controller the runner builds:
/// one hour of simulated time, orders of magnitude beyond any job in this
/// repository. A controller that sails past it is stuck in a scheduling
/// or retry livelock, and the watchdog turns that into a loud
/// [`JobOutcome::Failed`](dramctrl_campaign::JobOutcome) instead of a
/// silent never-ending worker.
pub const JOB_TICK_BUDGET: Tick = 3_600_000_000_000_000;

/// Converts a run's [`TestSummary`] into campaign metrics: its ten
/// names in sorted order, so the metrics are built in one exact-size
/// allocation with no search (`p95_read_lat_ns` only when a read
/// completed).
pub fn job_metrics(s: &TestSummary) -> JobMetrics {
    let p95 = s.read_lat_ns.quantile(0.95).map(|p| p as f64);
    let values = [
        ("activates", Some(s.ctrl.activates as f64)),
        ("avg_read_lat_ns", Some(s.read_lat_ns.mean())),
        ("bandwidth_gbps", Some(s.bandwidth_gbps)),
        ("bus_util", Some(s.bus_util)),
        ("dropped", Some(s.dropped as f64)),
        ("duration_ticks", Some(s.duration as f64)),
        ("p95_read_lat_ns", p95),
        ("reads", Some(s.reads_completed as f64)),
        ("row_hit_rate", Some(s.ctrl.page_hit_rate())),
        ("writes", Some(s.writes_completed as f64)),
    ];
    JobMetrics::from_sorted(values.into_iter().filter_map(|(k, v)| Some((k, v?))))
}

/// The canonical runner for [`dramctrl_campaign::run_campaign`]:
/// simulates one [`JobSpec`] end to end and returns its metrics.
///
/// Deterministic in the spec: the traffic generator is seeded with
/// `job.seed` and the simulation itself contains no other randomness,
/// so the same spec always yields the same metrics.
///
/// # Panics
/// Panics on an unknown device preset or an invalid configuration —
/// under the campaign executor these become
/// [`JobOutcome::Failed`](dramctrl_campaign::JobOutcome) records rather
/// than aborting the sweep.
pub fn run_job(job: &JobSpec) -> JobMetrics {
    match JobRun::start(job, 0).advance(None) {
        SliceOutcome::Done(metrics, _) => metrics,
        SliceOutcome::Paused { .. } => unreachable!("an unpaused run always completes"),
    }
}

/// Fingerprint of a job's full specification — the compatibility guard
/// stamped into job checkpoints, so a snapshot of one job can never be
/// restored into a differently configured simulation.
#[must_use]
pub fn job_fingerprint(job: &JobSpec) -> u64 {
    fingerprint(format!("{job:?}").as_bytes())
}

/// What one bounded slice of a job ([`JobRun::advance`]) produced.
/// `Paused` carries the injection count at the pause point so a
/// preemptive scheduler can set the *next* slice's pause target relative
/// to actual progress (`injected + quantum`) instead of guessing.
#[derive(Debug, Clone, PartialEq)]
pub enum SliceOutcome {
    /// The job ran to completion; here are its metrics and, for an
    /// observed run, its rendered artifacts.
    Done(JobMetrics, Option<JobArtifacts>),
    /// The job paused at a request boundary.
    Paused {
        /// Requests injected so far (monotonic across slices).
        injected: u64,
    },
}

/// A zero-latency crossbar over `ctrls`, interleaved by `mapping`.
fn xbar<C: Controller>(ctrls: Vec<C>, mapping: AddrMapping) -> MultiChannel<C> {
    MultiChannel::new(ctrls, 0)
        .expect("valid crossbar")
        .with_mapping(mapping)
}

/// The controllers behind a crossbar, in channel order.
fn channels_of<C: Controller>(x: &MultiChannel<C>) -> impl Iterator<Item = &C> {
    (0..x.channels() as usize).map(|i| x.channel(i))
}

/// What a simulator is made of — the one description every front end
/// (campaign jobs, `dramctrl run`/`replay`, the figure binaries, the
/// examples) hands to [`SimRun::start`], or builds into a [`Memory`].
#[derive(Debug, Clone, PartialEq)]
pub struct Wiring {
    /// Controller model.
    pub model: Model,
    /// Every channel's configuration. `channels` `0` and `1` both mean a
    /// single controller, more means that many behind a zero-latency
    /// crossbar interleaved by `mapping`. The cycle baseline takes the
    /// fields [`cy_cfg`] carries over and refuses any other that differs
    /// from [`CtrlConfig::new`]'s value.
    pub ctrl: CtrlConfig,
}

impl Wiring {
    /// One channel of `spec` on `model`, every setting at the paper's
    /// defaults ([`CtrlConfig::new`]).
    #[must_use]
    pub fn new(spec: MemSpec, model: Model) -> Self {
        let ctrl = CtrlConfig::new(spec);
        Self { model, ctrl }
    }

    /// The simulator a campaign job describes.
    ///
    /// # Panics
    /// Panics on an unknown device preset.
    #[must_use]
    pub fn for_job(job: &JobSpec) -> Self {
        let spec = presets::by_name(&job.device)
            .unwrap_or_else(|| panic!("unknown device preset '{}'", job.device));
        let mut w = Self::new(spec, job.model);
        let c = &mut w.ctrl;
        (c.page_policy, c.scheduling, c.mapping) = (job.policy, job.sched, job.mapping);
        (c.channels, c.ras) = (job.channels, ras_for_job(job));
        w
    }

    /// The memory this wiring describes, unobserved, for a caller that
    /// drives it itself — a closed-loop `System`, a `TieredMemory`, or
    /// requests sent by hand. It is the simulator [`SimRun::start`] runs:
    /// the same controllers, crossbar and [`JOB_TICK_BUDGET`], built fresh.
    ///
    /// # Errors
    /// An inconsistent controller configuration, or an event-only
    /// setting on the cycle baseline ([`cy_cfg`]).
    pub fn build(self) -> Result<Memory, String> {
        Sim::build(self, |_| NoProbe, |_| None).map(Memory)
    }
}

/// The per-channel probe pair of an observed run.
type ObsProbe = (ChromeTracer, EpochRecorder);

/// The concrete simulator behind a [`SimRun`], every channel carrying a
/// probe `P`: one variant per (model × single/multi-channel), so the
/// step loop stays monomorphic.
enum Sim<P: Probe> {
    Ev(Box<DramCtrl<P>>),
    EvX(Box<MultiChannel<DramCtrl<P>>>),
    Cy(Box<CycleCtrl<P>>),
    CyX(Box<MultiChannel<CycleCtrl<P>>>),
}

/// A [`Sim`] with or without probes — chosen once, by
/// [`SimRun::start`]'s epoch interval, never per step.
enum Wired {
    Plain(Sim<NoProbe>),
    Observed(Sim<ObsProbe>),
}

/// Evaluates `$body` with `$c` bound to the boxed controller in `$sim`.
macro_rules! on_sim {
    ($sim:expr, $c:ident => $body:expr) => {
        match $sim {
            Sim::Ev($c) => $body,
            Sim::EvX($c) => $body,
            Sim::Cy($c) => $body,
            Sim::CyX($c) => $body,
        }
    };
}

/// Evaluates `$body` with `$s` bound to the [`Sim`] in `$wired`.
macro_rules! with_sim {
    ($wired:expr, $s:ident => $body:expr) => {
        match $wired {
            Wired::Plain($s) => $body,
            Wired::Observed($s) => $body,
        }
    };
}

/// Evaluates `$body` with `$c` bound to the boxed controller in `$wired`:
/// one arm per concrete controller type, for the step loop.
macro_rules! with_ctrl {
    ($wired:expr, $c:ident => $body:expr) => {
        with_sim!($wired, s => on_sim!(s, $c => $body))
    };
}

/// `impl Controller for $ty` by sending each call to the one controller
/// or crossbar inside the [`Sim`] at `(*self)$(.$field)?`, matched per call.
/// The step loop does not use it: it matches once per slice
/// ([`with_ctrl!`]).
macro_rules! controller_via_sim {
    ([$($gen:tt)*] $ty:ty $(, $field:tt)?) => {
        impl<$($gen)*> Controller for $ty {
            fn try_send(&mut self, req: MemRequest, now: Tick) -> Result<(), Rejected> {
                on_sim!(&mut (*self)$(.$field)?, c => Controller::try_send(&mut **c, req, now))
            }

            fn can_accept(&self, cmd: MemCmd, addr: u64, size: u32) -> bool {
                on_sim!(&(*self)$(.$field)?, c => Controller::can_accept(&**c, cmd, addr, size))
            }

            fn next_event(&self) -> Option<Tick> {
                on_sim!(&(*self)$(.$field)?, c => Controller::next_event(&**c))
            }

            fn advance_to(&mut self, limit: Tick, out: &mut Vec<MemResponse>) {
                on_sim!(&mut (*self)$(.$field)?, c => Controller::advance_to(&mut **c, limit, out));
            }

            fn drain(&mut self, out: &mut Vec<MemResponse>) -> Tick {
                on_sim!(&mut (*self)$(.$field)?, c => Controller::drain(&mut **c, out))
            }

            fn is_idle(&self) -> bool {
                on_sim!(&(*self)$(.$field)?, c => Controller::is_idle(&**c))
            }

            fn spec(&self) -> &MemSpec {
                on_sim!(&(*self)$(.$field)?, c => Controller::spec(&**c))
            }

            fn common_stats(&self) -> CommonStats {
                on_sim!(&(*self)$(.$field)?, c => Controller::common_stats(&**c))
            }

            fn activity(&mut self, now: Tick) -> ActivityStats {
                on_sim!(&mut (*self)$(.$field)?, c => Controller::activity(&mut **c, now))
            }

            fn report(&self, prefix: &str, now: Tick) -> Report {
                on_sim!(&(*self)$(.$field)?, c => Controller::report(&**c, prefix, now))
            }
        }
    };
}

controller_via_sim!([P: Probe] Sim<P>);

/// A memory built from a [`Wiring`] ([`Wiring::build`]): one controller,
/// or several behind the runner's crossbar, of either model. It is a
/// [`Controller`] like any other.
pub struct Memory(Sim<NoProbe>);

controller_via_sim!([] Memory, 0);

impl Memory {
    /// The event-model controllers, in channel order, for per-channel
    /// statistics; none on the cycle baseline.
    pub fn event_channels(&self) -> impl Iterator<Item = &DramCtrl> {
        let (one, many) = match &self.0 {
            Sim::Ev(c) => (Some(&**c), None),
            Sim::EvX(x) => (None, Some(channels_of(x))),
            Sim::Cy(_) | Sim::CyX(_) => (None, None),
        };
        one.into_iter().chain(many.into_iter().flatten())
    }
}

impl<P: Probe> Sim<P> {
    /// The one place a [`Wiring`] becomes controllers: `channels` (at
    /// least one) of `w.model`, channel `ch` carrying `probe(ch)`, every
    /// event controller with [`JOB_TICK_BUDGET`] armed. `reuse` may supply
    /// a retired (and re-armed) controller for the single-channel event
    /// case — the campaign hot path of short jobs, where rebuilding
    /// queues and arenas per job would dominate.
    fn build(
        w: Wiring,
        probe: impl Fn(u32) -> P,
        reuse: impl FnOnce(&CtrlConfig) -> Option<Box<DramCtrl<P>>>,
    ) -> Result<Self, String> {
        let mut cfg = w.ctrl;
        cfg.channels = cfg.channels.max(1);
        let (chans, mapping) = (cfg.channels, cfg.mapping);
        match w.model {
            Model::Event => {
                let mk = |cfg, ch| -> Result<DramCtrl<P>, String> {
                    let mut ctrl =
                        DramCtrl::with_probe(cfg, probe(ch)).map_err(|e| e.to_string())?;
                    ctrl.set_tick_budget(Some(JOB_TICK_BUDGET));
                    Ok(ctrl)
                };
                if chans == 1 {
                    let ctrl = match reuse(&cfg) {
                        Some(reused) => reused,
                        None => Box::new(mk(cfg, 0)?),
                    };
                    Ok(Sim::Ev(ctrl))
                } else {
                    let ctrls = (0..chans).map(|ch| mk(cfg.clone(), ch));
                    let ctrls = ctrls.collect::<Result<_, _>>()?;
                    Ok(Sim::EvX(Box::new(xbar(ctrls, mapping))))
                }
            }
            Model::Cycle => {
                let cfg = cy_cfg(&cfg)?;
                let mk =
                    |ch| CycleCtrl::with_probe(cfg.clone(), probe(ch)).map_err(|e| e.to_string());
                if chans == 1 {
                    Ok(Sim::Cy(Box::new(mk(0)?)))
                } else {
                    let ctrls = (0..chans).map(mk).collect::<Result<_, _>>()?;
                    Ok(Sim::CyX(Box::new(xbar(ctrls, mapping))))
                }
            }
        }
    }

    /// What every finished run owes its caller: no tripped stall watchdog
    /// on any event controller (a panic with the diagnostic, which the
    /// campaign executor records as a failed job), and the channels' RAS
    /// counters summed by name — `None` when no fault model is armed.
    fn close(&self) -> Option<BTreeMap<&'static str, u64>> {
        let mut sums = None;
        let mut add = |fm: Option<&FaultModel>| {
            for (name, v) in fm.iter().flat_map(|fm| fm.stats().entries()) {
                *sums
                    .get_or_insert_with(BTreeMap::new)
                    .entry(name)
                    .or_insert(0) += v;
            }
        };
        let mut checked = |c: &DramCtrl<P>| match c.check_stall() {
            Ok(()) => add(c.fault_model()),
            Err(stall) => panic!("{stall}"),
        };
        match self {
            Sim::Ev(c) => checked(c),
            Sim::EvX(x) => channels_of(x).for_each(checked),
            Sim::Cy(c) => add(c.fault_model()),
            Sim::CyX(x) => channels_of(x).for_each(|c| add(c.fault_model())),
        }
        sums
    }
}

/// One simulation, live: a tester run, its traffic generator and the
/// controller(s) a [`Wiring`] describes — with or without probes —
/// steppable a slice at a time. The one place anything in this
/// repository is wired to an open-loop simulator: [`JobRun`] is its
/// `JobSpec` front, `dramctrl run`/`replay` are its command-line front,
/// and the figure binaries call it through `dramctrl_bench::simulate`.
pub struct SimRun {
    /// Epoch interval of the probes; `0` for an unobserved run.
    epochs: Tick,
    gen: Box<dyn SnapGen>,
    /// `None` once the run has finished and handed itself back.
    live: Option<(TestRun, Wired)>,
}

impl SimRun {
    /// Builds the controller(s) `wiring` describes, ready for the first
    /// request of `gen`, measured by `tester`. With `epochs > 0` the run
    /// is *observed*: every channel carries a [`ChromeTracer`] and an
    /// [`EpochRecorder`] binning at `epochs` ticks. The probes are pure
    /// observers — summary, pause points and checkpoint bytes are those
    /// of the unobserved run.
    ///
    /// # Errors
    /// An inconsistent controller configuration, or an event-only
    /// setting on the cycle baseline ([`cy_cfg`]).
    pub fn start(
        wiring: Wiring,
        gen: Box<dyn SnapGen>,
        tester: &Tester,
        epochs: Tick,
    ) -> Result<Self, String> {
        let wired = if epochs == 0 {
            Wired::Plain(Sim::build(wiring, |_| NoProbe, cached_ev_ctrl)?)
        } else {
            let probe = |ch| (ChromeTracer::for_channel(ch), EpochRecorder::new(epochs));
            Wired::Observed(Sim::build(wiring, probe, |_| None)?)
        };
        let live = Some((tester.begin(), wired));
        Ok(Self { epochs, gen, live })
    }

    /// Requests injected so far.
    ///
    /// # Panics
    /// Panics, as every method does, on a run that has already finished.
    #[must_use]
    pub fn injected(&self) -> u64 {
        self.live.as_ref().expect(SPENT).0.injected()
    }

    /// Simulates until the generator is exhausted and every response is
    /// in — `Some(finished)` — or, with `pause_after: Some(n)`, until the
    /// first request boundary at or past `n` injections — `None`. The
    /// next call picks up exactly there: chained slices finish
    /// byte-identically to one `advance(None)`.
    ///
    /// # Panics
    /// Panics if a controller trips its stall watchdog.
    pub fn advance(&mut self, pause_after: Option<u64>) -> Option<Finished> {
        let (run, wired) = self.live.as_mut().expect(SPENT);
        let gen = &mut self.gen;
        let paused = with_ctrl!(wired, c => {
            loop {
                if !run.step(gen, &mut **c, Tick::MAX) {
                    break false;
                }
                if pause_after.is_some_and(|n| run.injected() >= n) {
                    break true;
                }
            }
        });
        if paused {
            return None;
        }
        let (run, mut sim) = self.live.take().expect(SPENT);
        let (summary, ras) = with_sim!(&mut sim, s => (run.finish(s), s.close()));
        let epochs = self.epochs;
        Some(Finished {
            summary,
            ras,
            sim,
            epochs,
        })
    }

    /// Writes a checkpoint atomically to `path`: a header stamped with
    /// the caller's configuration fingerprint `fp`, then the tester run,
    /// the traffic generator and the controller — the layout
    /// [`restore`](Self::restore) reads, and nobody else knows. It covers
    /// the simulation only: probe recordings are not part of it, so a
    /// restored observed run renders only the suffix of each track.
    ///
    /// # Errors
    /// I/O errors from the atomic write.
    pub fn save(&self, path: &Path, fp: u64) -> io::Result<()> {
        let (run, wired) = self.live.as_ref().expect(SPENT);
        let mut w = SnapWriter::new(fp);
        run.save_state(&mut w);
        self.gen.save_state(&mut w);
        with_ctrl!(wired, c => c.save_state(&mut w));
        write_atomic(path, w.into_bytes())
    }

    /// Replaces the run's simulation state with the checkpoint `bytes`.
    ///
    /// # Errors
    /// A checkpoint stamped with a fingerprint other than `fp`, torn or
    /// corrupt component state, or bytes left over after the controller;
    /// the run must not be advanced after an error.
    pub fn restore(&mut self, bytes: &[u8], fp: u64) -> Result<(), SnapError> {
        let (run, wired) = self.live.as_mut().expect(SPENT);
        let mut r = SnapReader::new(bytes, fp)?;
        run.restore_state(&mut r)?;
        self.gen.restore_state(&mut r)?;
        with_ctrl!(wired, c => c.restore_state(&mut r))?;
        if r.is_exhausted() {
            return Ok(());
        }
        let why = "snapshot has trailing bytes after the controller state";
        Err(SnapError::Corrupt(why.into()))
    }
}

/// Panic message for driving a run past its end.
const SPENT: &str = "this run has already finished";

/// A finished [`SimRun`]: what the tester measured and the simulator it
/// was measured on, from which each front end derives what it reports.
pub struct Finished {
    /// What the tester measured.
    pub summary: TestSummary,
    /// Every channel's RAS counters, summed by name; `None` when no fault
    /// model was armed.
    pub ras: Option<BTreeMap<&'static str, u64>>,
    sim: Wired,
    epochs: Tick,
}

impl Finished {
    /// Activity summary for the power models over the whole run (all
    /// channels summed).
    pub fn activity(&mut self) -> ActivityStats {
        let end = self.summary.duration;
        with_sim!(&mut self.sim, s => s.activity(end))
    }

    /// The statistics report over the whole run: the controller's
    /// (prefix `ctrl`), or across a crossbar the system's (`system`).
    #[must_use]
    pub fn report(&self) -> Report {
        with_sim!(&self.sim, s => {
            let bare = matches!(s, Sim::Ev(_) | Sim::Cy(_));
            s.report(if bare { "ctrl" } else { "system" }, self.summary.duration)
        })
    }

    /// Renders an observed run — the final [`report`](Self::report), and
    /// every channel's probes merged and binned at the epoch interval;
    /// `None` for an unobserved one, whose single-channel event
    /// controller retires to the calling thread's cache for the next run
    /// of the same configuration.
    #[must_use]
    pub fn into_artifacts(self) -> Option<JobArtifacts> {
        let (end, report) = match self.sim {
            Wired::Plain(Sim::Ev(c)) => {
                retire_ev_ctrl(c);
                return None;
            }
            Wired::Plain(_) => return None,
            Wired::Observed(_) => (self.summary.duration, self.report()),
        };
        let probes = match self.sim {
            Wired::Observed(Sim::Ev(c)) => vec![c.into_probe()],
            Wired::Observed(Sim::Cy(c)) => vec![c.into_probe()],
            Wired::Observed(Sim::EvX(x)) => {
                let ctrls = x.into_channels().into_iter();
                ctrls.map(DramCtrl::into_probe).collect()
            }
            Wired::Observed(Sim::CyX(x)) => {
                let ctrls = x.into_channels().into_iter();
                ctrls.map(CycleCtrl::into_probe).collect()
            }
            Wired::Plain(_) => unreachable!("returned above"),
        };
        let mut merged = EpochRecorder::new(self.epochs);
        let mut tracers = Vec::with_capacity(probes.len());
        for (tracer, mut epochs) in probes {
            epochs.finish(end);
            merged.absorb(&epochs);
            tracers.push(tracer);
        }
        Some(JobArtifacts {
            perfetto_json: ChromeTracer::combined_json(&tracers),
            epochs_csv: merged.to_csv(),
            epochs_jsonl: merged.to_jsonl(),
            stats_json: report.to_json(),
        })
    }
}

/// One campaign job, live: the [`JobSpec`] front of [`SimRun`], which
/// [`run_job`] wraps. A scheduler preempts a job, observed or not, by
/// keeping its `JobRun` and calling [`advance`](Self::advance) again
/// later; checkpoints ([`run_resumable`](Self::run_resumable)) are for
/// pauses that must outlive the process. An observed run's probes are
/// pure observers: its metrics equal an unobserved run's of the same
/// spec.
pub struct JobRun {
    job: JobSpec,
    run: SimRun,
}

impl JobRun {
    /// Builds the generator and controller(s) `job` describes, ready for
    /// its first request. With `epochs > 0` the run is *observed*
    /// ([`SimRun::start`]) and `Done` comes with [`JobArtifacts`].
    ///
    /// # Panics
    /// Panics on an unknown device preset or an invalid configuration.
    #[must_use]
    pub fn start(job: &JobSpec, epochs: Tick) -> Self {
        let wiring = Wiring::for_job(job);
        let gen = gen_for_job(job, &wiring.ctrl.spec);
        let run = SimRun::start(wiring, gen, &std_tester(), epochs)
            .unwrap_or_else(|e| panic!("invalid configuration: {e}"));
        let job = job.clone();
        Self { job, run }
    }

    /// Simulates until the job completes or — with `pause_after:
    /// Some(n)` — the first request boundary at or past `n` injections.
    /// The next call picks up exactly there: chained slices yield
    /// metrics and artifacts byte-identical to one `advance(None)`.
    ///
    /// # Panics
    /// Panics if a controller trips its stall watchdog, or on a run that
    /// has already returned `Done`.
    pub fn advance(&mut self, pause_after: Option<u64>) -> SliceOutcome {
        let Some(finished) = self.run.advance(pause_after) else {
            let injected = self.run.injected();
            return SliceOutcome::Paused { injected };
        };
        let mut m = job_metrics(&finished.summary);
        for (&name, &v) in finished.ras.iter().flatten() {
            m.set(name, v as f64);
        }
        SliceOutcome::Done(m, finished.into_artifacts())
    }

    /// Runs to completion with deterministic checkpoint/restore.
    ///
    /// When `checkpoint` names a file that exists, the run first
    /// *resumes* from it. While running, the run is saved to
    /// `checkpoint`, stamped with [`job_fingerprint`], every `every`
    /// injected requests (`0` disables periodic checkpointing), and —
    /// when `pause_after` is `Some(n)` — it stops at the first request
    /// boundary at or past `n` injections, writes a final checkpoint and
    /// returns `None`.
    ///
    /// # Panics
    /// Panics like [`advance`](Self::advance), on checkpoint I/O errors,
    /// on a checkpoint that does not match the job (wrong fingerprint,
    /// torn or corrupt state), and when asked to pause without a
    /// checkpoint path.
    pub fn run_resumable(
        mut self,
        checkpoint: Option<&Path>,
        every: u64,
        pause_after: Option<u64>,
    ) -> Option<(JobMetrics, Option<JobArtifacts>)> {
        if let Some(path) = checkpoint.filter(|p| p.exists()) {
            let bytes = std::fs::read(path)
                .unwrap_or_else(|e| panic!("reading checkpoint {}: {e}", path.display()));
            self.run
                .restore(&bytes, job_fingerprint(&self.job))
                .unwrap_or_else(|e| panic!("restoring checkpoint {}: {e}", path.display()));
        }
        loop {
            // Stop at the pause point or the next periodic checkpoint,
            // whichever comes first.
            let periodic = checkpoint
                .filter(|_| every > 0)
                .map(|_| (self.run.injected() / every + 1) * every);
            let stop = pause_after.into_iter().chain(periodic).min();
            match self.advance(stop) {
                SliceOutcome::Paused { injected } => {
                    let path = checkpoint.expect("pausing a run requires a checkpoint path");
                    self.run
                        .save(path, job_fingerprint(&self.job))
                        .unwrap_or_else(|e| panic!("writing checkpoint {}: {e}", path.display()));
                    if pause_after.is_some_and(|n| injected >= n) {
                        return None;
                    }
                }
                SliceOutcome::Done(metrics, artifacts) => return Some((metrics, artifacts)),
            }
        }
    }
}

/// Observability artifacts of a finished observed run, ready to be
/// written next to the campaign report.
#[derive(Debug, Clone, PartialEq)]
pub struct JobArtifacts {
    /// Chrome trace-event JSON of every DRAM command, request flow and
    /// power-state residency (all channels merged; load at
    /// <https://ui.perfetto.dev>).
    pub perfetto_json: String,
    /// Epoch time-series CSV (per-channel recorders summed per epoch).
    pub epochs_csv: String,
    /// The same epoch series as JSON lines — the streaming form the
    /// simulation service forwards to clients record by record.
    pub epochs_jsonl: String,
    /// Stable machine-readable statistics report
    /// ([`dramctrl_stats::Report::to_json`]).
    pub stats_json: String,
}

#[cfg(test)]
mod tests {
    use super::*;
    use dramctrl_campaign::Campaign;
    use dramctrl_system::TieredMemory;

    /// The daemon's workers hand paused runs to one another.
    #[test]
    fn a_job_run_may_cross_threads() {
        fn assert_send<T: Send>() {}
        assert_send::<JobRun>();
    }

    /// What `dramctrl run --powerdown` used to do on the cycle arm: drop
    /// the setting and simulate something else. Every event-only setting
    /// is refused by name; the defaults start on both models.
    #[test]
    fn power_down_on_the_cycle_baseline_is_refused_not_dropped() {
        let job = Campaign::new("pd", 1).requests([10]).expand().remove(0);
        let start = |model, set: &dyn Fn(&mut CtrlConfig)| {
            let mut wiring = Wiring::for_job(&job);
            wiring.model = model;
            set(&mut wiring.ctrl);
            let gen = gen_for_job(&job, &wiring.ctrl.spec);
            SimRun::start(wiring, gen, &std_tester(), 0).map(drop)
        };
        type Set = fn(&mut CtrlConfig);
        let rows: [(&str, Set); 11] = [
            ("powerdown_idle", |c| c.powerdown_idle = 1_000_000),
            ("selfrefresh_after", |c| c.selfrefresh_after = 1_000_000),
            ("qos_priorities", |c| c.qos_priorities = vec![0, 7]),
            ("write_high_thresh", |c| c.write_high_thresh = 0.9),
            ("write_low_thresh", |c| c.write_low_thresh = 0.3),
            ("min_writes_per_switch", |c| c.min_writes_per_switch = 4),
            ("read_buffer_size", |c| c.read_buffer_size = 20),
            ("write_buffer_size", |c| c.write_buffer_size = 20),
            ("frontend_latency", |c| c.frontend_latency = 10_000),
            ("backend_latency", |c| c.backend_latency = 10_000),
            ("max_accesses_per_row", |c| c.max_accesses_per_row = 16),
        ];
        assert_eq!(start(Model::Event, &|_| {}), Ok(()));
        assert_eq!(start(Model::Cycle, &|_| {}), Ok(()));
        for (field, set) in rows {
            let err = start(Model::Cycle, &set).expect_err(field);
            assert!(err.contains(field), "{field}: {err}");
            assert!(err.contains("needs the event model"), "{field}: {err}");
        }
    }

    #[test]
    fn run_job_is_deterministic() {
        let jobs = Campaign::new("det", 77)
            .traffic([TrafficPattern::DramAware {
                stride: 4,
                banks: 8,
            }])
            .read_pcts([50])
            .requests([500])
            .expand();
        assert_eq!(run_job(&jobs[0]), run_job(&jobs[0]));
    }

    #[test]
    fn run_job_covers_models_and_channels() {
        let jobs = Campaign::new("cov", 3)
            .models([Model::Event, Model::Cycle])
            .channels([1, 2])
            .requests([300])
            .expand();
        for job in &jobs {
            let m = run_job(job);
            assert_eq!(m.get("reads"), Some(300.0), "{job:?}");
            assert!(m.get("bus_util").unwrap() > 0.0);
        }
    }

    #[test]
    fn observed_run_matches_plain_run_and_renders_artifacts() {
        // `channels = 0` means one channel, observed or not.
        let jobs = Campaign::new("obs", 9)
            .models([Model::Event, Model::Cycle])
            .channels([0, 1, 2])
            .requests([300])
            .expand();
        for job in &jobs {
            let SliceOutcome::Done(m, Some(art)) = JobRun::start(job, 1_000_000).advance(None)
            else {
                panic!("an observed run renders its artifacts");
            };
            // Zero perturbation all the way up: observed metrics equal the
            // unobserved run's bit for bit.
            assert_eq!(m, run_job(job), "{job:?}");
            dramctrl_obs::json::validate(&art.perfetto_json).expect("loadable trace");
            assert!(art.perfetto_json.contains("\"ACT\""), "{job:?}");
            assert!(art.epochs_csv.lines().count() > 1, "{job:?}");
            dramctrl_obs::json::validate(&art.stats_json).expect("valid stats JSON");
        }
    }

    #[test]
    fn sliced_observed_run_matches_the_whole_run_byte_for_byte() {
        let jobs = Campaign::new("obs-sliced", 9)
            .models([Model::Event, Model::Cycle])
            .channels([1, 2])
            .read_pcts([70])
            .requests([1_500])
            .expand();
        for job in &jobs {
            let whole = JobRun::start(job, 100_000).advance(None);
            assert!(matches!(whole, SliceOutcome::Done(_, Some(_))));
            for step in [1, 7, 1_000] {
                let mut run = JobRun::start(job, 100_000);
                let (mut target, mut pauses) = (step, 0);
                let sliced = loop {
                    match run.advance(Some(target)) {
                        SliceOutcome::Paused { injected } => {
                            pauses += 1;
                            target = injected + step;
                        }
                        done => break done,
                    }
                };
                assert!(pauses >= 1, "{job:?} never paused at step {step}");
                // Metrics and all four artifacts, in one comparison.
                assert_eq!(sliced, whole, "{job:?} at step {step}");
            }
        }
    }

    #[test]
    fn faulty_jobs_complete_with_ras_metrics_on_both_models() {
        let jobs = Campaign::new("ras", 21)
            .models([Model::Event, Model::Cycle])
            .channels([1, 2])
            .read_pcts([70])
            .requests([400])
            .error_rates([2e11])
            .expand();
        for job in &jobs {
            let m = run_job(job);
            assert_eq!(
                m.get("reads").unwrap() + m.get("writes").unwrap() + m.get("dropped").unwrap(),
                400.0,
                "{job:?}"
            );
            assert!(
                m.get("ras_corrected").unwrap() + m.get("ras_transient_faults").unwrap() >= 0.0,
                "RAS counters missing: {job:?}"
            );
            // Silent events can only be the multi-symbol syndrome alias.
            assert!(
                m.get("ras_silent").unwrap() <= m.get("ras_rank_failures").unwrap(),
                "single-symbol fault escaped SEC-DED: {job:?}"
            );
            // Determinism across repeated runs, RAS counters included.
            assert_eq!(m, run_job(job), "{job:?}");
        }
        // Fault-free jobs carry no ras_* metrics at all.
        let mut clean = jobs[0].clone();
        clean.error_rate = 0.0;
        assert_eq!(run_job(&clean).get("ras_corrected"), None);
    }

    #[test]
    fn controller_reuse_is_invisible_in_metrics() {
        // Alternating specs on one thread exercises both cache paths —
        // config-match reset and config-change rebuild — and every run
        // must match a cache-cold run of the same job on a fresh thread.
        let jobs = Campaign::new("reuse", 5)
            .read_pcts([30, 80])
            .requests([200, 500])
            .expand();
        let warm: Vec<JobMetrics> = jobs.iter().chain(jobs.iter()).map(run_job).collect();
        for (job, m) in jobs.iter().chain(jobs.iter()).zip(&warm) {
            let cold = std::thread::scope(|s| s.spawn(|| run_job(job)).join().unwrap());
            assert_eq!(m, &cold, "{job:?}");
        }
    }

    /// DRAMSim2 has no adaptive page policies, so the cycle baseline runs
    /// `OpenAdaptive` as `Open` and `ClosedAdaptive` as `Closed`: a mixed
    /// random stream gives the same summary and report under each pair,
    /// to the byte. The event model, which does adapt, tells each pair
    /// apart on the same stream.
    #[test]
    fn the_cycle_baseline_runs_an_adaptive_policy_as_its_plain_form() {
        use dramctrl_mem::PagePolicy::{Closed, ClosedAdaptive, Open, OpenAdaptive};
        let run = |model, page| {
            let mut w = Wiring::new(presets::ddr3_1600_x64(), model);
            w.ctrl.page_policy = page;
            let gen = Box::new(RandomGen::new(0, 1 << 20, 64, 67, 0, 4_000, 7));
            let mut run = SimRun::start(w, gen, &std_tester(), 0).expect("valid wiring");
            let done = run.advance(None).expect("no pause point");
            (format!("{:?}", done.summary), done.report().to_string())
        };
        for (adaptive, plain) in [(OpenAdaptive, Open), (ClosedAdaptive, Closed)] {
            let cycle = run(Model::Cycle, adaptive);
            assert_eq!(cycle, run(Model::Cycle, plain), "{adaptive} vs {plain}");
            let event = run(Model::Event, adaptive);
            assert_ne!(event, run(Model::Event, plain), "{adaptive} vs {plain}");
        }
    }

    /// A closed-loop run over `mem`, every field of its report rendered.
    fn closed_loop<C: Controller>(mem: C) -> String {
        let profiles = [dramctrl_system::workload::canneal(); 2];
        let cfg = dramctrl_system::SystemConfig::table2(2, 5_000);
        let mut sys = dramctrl_system::System::new(cfg, mem, &profiles, 42).expect("valid system");
        format!("{:?}", sys.run())
    }

    /// `ctrls` behind a zero-latency crossbar, wired by hand.
    fn hand_xbar<C: Controller>(ctrls: Vec<C>, mapping: AddrMapping) -> MultiChannel<C> {
        let x = MultiChannel::new(ctrls, 0).expect("valid crossbar");
        x.with_mapping(mapping)
    }

    /// [`closed_loop`] over `ctrls` wired by hand: alone, or behind a
    /// zero-latency crossbar.
    fn by_hand<C: Controller>(ctrls: Vec<C>, mapping: AddrMapping) -> String {
        if ctrls.len() == 1 {
            closed_loop(ctrls.into_iter().next().expect("one channel"))
        } else {
            closed_loop(hand_xbar(ctrls, mapping))
        }
    }

    /// `Wiring::build` is the memory a hand wiring gives the closed loop:
    /// on both models at 1, 2 and 4 channels, and as the two tiers of a
    /// `TieredMemory`, `System::run` reports the same to the last field.
    #[test]
    fn a_built_memory_runs_the_closed_loop_like_hand_built_controllers() {
        let wiring = |spec, model, channels| {
            let mut w = Wiring::new(spec, model);
            w.ctrl.channels = channels;
            w
        };
        let ev = |w: &Wiring| DramCtrl::new(w.ctrl.clone()).expect("valid config");
        let cy = |w: &Wiring| CycleCtrl::new(cy_cfg(&w.ctrl).expect("shared")).expect("valid");
        for model in [Model::Event, Model::Cycle] {
            for channels in [1u32, 2, 4] {
                let w = wiring(presets::lpddr3_1600_x32(), model, channels);
                let (n, mapping) = (channels as usize, w.ctrl.mapping);
                let hand = match model {
                    Model::Event => by_hand((0..n).map(|_| ev(&w)).collect(), mapping),
                    Model::Cycle => by_hand((0..n).map(|_| cy(&w)).collect(), mapping),
                };
                let mem = w.build().expect("valid wiring");
                let event = if model == Model::Event { n } else { 0 };
                assert_eq!(mem.event_channels().count(), event);
                assert_eq!(closed_loop(mem), hand, "{model:?} x{channels}");
            }
        }
        let near = wiring(presets::wideio_200_x128(), Model::Event, 2);
        let far = wiring(presets::lpddr3_1600_x32(), Model::Cycle, 1);
        let near_hand = hand_xbar(vec![ev(&near), ev(&near)], near.ctrl.mapping);
        let hand = closed_loop(TieredMemory::new(near_hand, cy(&far), 64 << 20));
        let built = TieredMemory::new(near.build().unwrap(), far.build().unwrap(), 64 << 20);
        assert_eq!(closed_loop(built), hand);
    }

    #[test]
    #[should_panic(expected = "unknown device preset")]
    fn unknown_device_panics() {
        let mut jobs = Campaign::new("bad", 1).requests([10]).expand();
        jobs[0].device = "SDRAM-66-x16".to_owned();
        let _ = run_job(&jobs[0]);
    }
}
