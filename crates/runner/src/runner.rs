//! The canonical campaign runner: wires a declarative
//! [`JobSpec`](dramctrl_campaign::JobSpec) to real controllers, traffic
//! generators and the [`Tester`] run loop.
//!
//! This is the scaffolding every figure/ablation binary used to
//! duplicate — build a controller for a (policy, scheduler, mapping,
//! channels) tuple, build a seeded generator, push the stream through
//! the tester, read the summary — extracted once so that both the
//! binaries and the `dramctrl-campaign` executor share it.

use dramctrl::{CtrlConfig, DramCtrl, EccMode, FaultModel, PagePolicy, RasConfig, SchedPolicy};
use dramctrl_campaign::{JobMetrics, JobSpec, Model, TrafficPattern};
use dramctrl_cycle::{CycleConfig, CycleCtrl, CyclePagePolicy, CycleSched};
use dramctrl_kernel::fsio::write_atomic;
use dramctrl_kernel::snap::{fingerprint, SnapError, SnapReader, SnapState, SnapWriter};
use dramctrl_kernel::Tick;
use dramctrl_mem::{presets, AddrMapping, Controller, MemSpec};
use dramctrl_obs::{ChromeTracer, EpochRecorder};
use dramctrl_stats::Report;
use dramctrl_system::MultiChannel;
use dramctrl_traffic::{DramAwareGen, LinearGen, RandomGen, SnapGen, TestRun, TestSummary, Tester};
use std::cell::RefCell;
use std::path::Path;

thread_local! {
    /// One retired event-model controller per worker thread, reused via
    /// [`DramCtrl::reset`] when the next job wants an identical
    /// configuration — the common case in a campaign sweeping traffic
    /// axes over a fixed device. Keyed by config equality, so any config
    /// change falls back to a fresh build.
    static EV_CTRL_CACHE: RefCell<Option<Box<DramCtrl>>> = const { RefCell::new(None) };
}

/// A controller for `cfg`: the worker's cached one, reset, when its
/// configuration matches; a freshly built one otherwise. Boxed, so that
/// handing it to a run and back moves a pointer, not the controller.
fn cached_ev_ctrl(cfg: CtrlConfig) -> Box<DramCtrl> {
    match EV_CTRL_CACHE.with(|c| c.borrow_mut().take()) {
        Some(mut ctrl) if *ctrl.config() == cfg => {
            ctrl.reset();
            ctrl
        }
        _ => Box::new(DramCtrl::new(cfg).expect("valid config")),
    }
}

/// Retires a finished controller into the worker's cache for the next
/// job. Its queues, event heap and group arena keep their allocations.
fn retire_ev_ctrl(ctrl: Box<DramCtrl>) {
    EV_CTRL_CACHE.with(|c| *c.borrow_mut() = Some(ctrl));
}

/// The event-model configuration for a (policy, scheduler, mapping,
/// channels) tuple.
pub fn ev_cfg(
    spec: MemSpec,
    policy: PagePolicy,
    sched: SchedPolicy,
    mapping: AddrMapping,
    channels: u32,
) -> CtrlConfig {
    let mut cfg = CtrlConfig::new(spec);
    cfg.page_policy = policy;
    cfg.mapping = mapping;
    cfg.channels = channels;
    cfg.scheduling = sched;
    cfg
}

/// The matching cycle-baseline configuration.
pub fn cy_cfg(
    spec: MemSpec,
    policy: PagePolicy,
    sched: SchedPolicy,
    mapping: AddrMapping,
    channels: u32,
) -> CycleConfig {
    let mut cfg = CycleConfig::new(spec);
    cfg.page_policy = if policy.is_open() {
        CyclePagePolicy::Open
    } else {
        CyclePagePolicy::Closed
    };
    cfg.mapping = mapping;
    cfg.channels = channels;
    cfg.scheduling = match sched {
        SchedPolicy::Fcfs => CycleSched::Fcfs,
        SchedPolicy::FrFcfs => CycleSched::FrFcfs,
    };
    // Model comparisons must service the same burst stream on both sides,
    // so give the baseline the event model's write snooping too.
    cfg.write_snooping = true;
    cfg
}

/// Builds an event-based controller with an explicit scheduler (the
/// general form of `dramctrl_bench::ev_ctrl`).
pub fn ev_ctrl_with(
    spec: MemSpec,
    policy: PagePolicy,
    sched: SchedPolicy,
    mapping: AddrMapping,
    channels: u32,
) -> DramCtrl {
    DramCtrl::new(ev_cfg(spec, policy, sched, mapping, channels)).expect("valid config")
}

/// Builds the matching cycle-based baseline with an explicit scheduler
/// (the general form of `dramctrl_bench::cy_ctrl`).
pub fn cy_ctrl_with(
    spec: MemSpec,
    policy: PagePolicy,
    sched: SchedPolicy,
    mapping: AddrMapping,
    channels: u32,
) -> CycleCtrl {
    CycleCtrl::new(cy_cfg(spec, policy, sched, mapping, channels)).expect("valid config")
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

/// Tick budget armed on every event-model campaign controller: one hour
/// of simulated time, orders of magnitude beyond any job in this
/// repository. A controller that sails past it is stuck in a scheduling
/// or retry livelock, and the watchdog turns that into a loud
/// [`JobOutcome::Failed`](dramctrl_campaign::JobOutcome) instead of a
/// silent never-ending worker.
pub const JOB_TICK_BUDGET: Tick = 3_600_000_000_000_000;

/// Sums the RAS counters of every channel's fault model into `m`
/// (no-op when no fault model is armed).
fn add_ras_metrics<'a>(m: &mut JobMetrics, fms: impl Iterator<Item = &'a FaultModel>) {
    let mut sums: std::collections::BTreeMap<&'static str, u64> = std::collections::BTreeMap::new();
    let mut any = false;
    for fm in fms {
        any = true;
        for (name, v) in fm.stats().entries() {
            *sums.entry(name).or_insert(0) += v;
        }
    }
    if any {
        for (name, v) in sums {
            m.set(name, v as f64);
        }
    }
}

/// Panics with the stall diagnostic if any event controller tripped its
/// watchdog (the campaign executor records the panic as a failed job).
fn assert_no_stall<'a>(ctrls: impl Iterator<Item = &'a DramCtrl>) {
    for c in ctrls {
        if let Err(stall) = c.check_stall() {
            panic!("{stall}");
        }
    }
}

/// Converts a run's [`TestSummary`] into campaign metrics.
pub fn job_metrics(s: &TestSummary) -> JobMetrics {
    let mut m = JobMetrics::new();
    m.set("reads", s.reads_completed as f64);
    m.set("writes", s.writes_completed as f64);
    m.set("dropped", s.dropped as f64);
    m.set("duration_ticks", s.duration as f64);
    m.set("bus_util", s.bus_util);
    m.set("bandwidth_gbps", s.bandwidth_gbps);
    m.set("avg_read_lat_ns", s.read_lat_ns.mean());
    if let Some(p95) = s.read_lat_ns.quantile(0.95) {
        m.set("p95_read_lat_ns", p95 as f64);
    }
    m.set("row_hit_rate", s.ctrl.page_hit_rate());
    m.set("activates", s.ctrl.activates as f64);
    m
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
    run_job_resumable(job, None, 0, None).expect("an unpaused run always completes")
}

/// Fingerprint of a job's full specification — the compatibility guard
/// stamped into job checkpoints, so a snapshot of one job can never be
/// restored into a differently configured simulation.
#[must_use]
pub fn job_fingerprint(job: &JobSpec) -> u64 {
    fingerprint(format!("{job:?}").as_bytes())
}

/// [`run_job`] with deterministic checkpoint/restore.
///
/// When `checkpoint` names a file that exists, the run *resumes* from it
/// (the snapshot must carry [`job_fingerprint`]`(job)` — anything else
/// panics loudly). While running, a snapshot of the tester run, the
/// traffic generator and the controller is written atomically to
/// `checkpoint` every `every` injected requests (`0` disables periodic
/// checkpointing), and — when `pause_after` is `Some(n)` — the run stops
/// at the first request boundary at or past `n` injections, writes a
/// final checkpoint and returns `None`.
///
/// Restoring a checkpoint into a fresh process and running to completion
/// yields metrics byte-identical to an uninterrupted [`run_job`]: request
/// boundaries are legal checkpoints for every model, channel count and
/// RAS configuration.
///
/// # Panics
/// Panics like [`run_job`], and additionally on checkpoint I/O errors or
/// a checkpoint that does not match the job (wrong fingerprint, torn or
/// corrupt state) — under the campaign executor these become failed-job
/// records.
pub fn run_job_resumable(
    job: &JobSpec,
    checkpoint: Option<&Path>,
    every: u64,
    pause_after: Option<u64>,
) -> Option<JobMetrics> {
    let mut run = JobRun::start(job);
    if let Some(path) = checkpoint.filter(|p| p.exists()) {
        run.restore(path);
    }
    loop {
        // Stop at the pause point or the next periodic checkpoint,
        // whichever comes first.
        let periodic = checkpoint
            .filter(|_| every > 0)
            .map(|_| (run.injected() / every + 1) * every);
        let stop = pause_after.into_iter().chain(periodic).min();
        match run.advance(stop) {
            SliceOutcome::Paused { injected } => {
                run.save(checkpoint.expect("pausing a run requires a checkpoint path"));
                if pause_after.is_some_and(|n| injected >= n) {
                    return None;
                }
            }
            SliceOutcome::Done(m) => return Some(m),
        }
    }
}

/// What one bounded slice of a job ([`JobRun::advance`]) produced.
/// `Paused` carries the injection count at the pause point so a
/// preemptive scheduler can set the *next* slice's pause target relative
/// to actual progress (`injected + quantum`) instead of guessing.
#[derive(Debug, Clone, PartialEq)]
pub enum SliceOutcome {
    /// The job ran to completion; here are its metrics.
    Done(JobMetrics),
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

/// The concrete simulator behind a [`JobRun`]: one variant per
/// (model × single/multi-channel), so the step loop stays monomorphic.
enum Sim {
    Ev(Box<DramCtrl>),
    EvX(Box<MultiChannel<DramCtrl>>),
    Cy(Box<CycleCtrl>),
    CyX(Box<MultiChannel<CycleCtrl>>),
}

/// Evaluates `$body` with `$c` bound to the boxed controller in `$sim`.
macro_rules! with_ctrl {
    ($sim:expr, $c:ident => $body:expr) => {
        match $sim {
            Sim::Ev($c) => $body,
            Sim::EvX($c) => $body,
            Sim::Cy($c) => $body,
            Sim::CyX($c) => $body,
        }
    };
}

/// One job, live: the tester run, its traffic generator and the
/// controller it drives, steppable a slice at a time. The one place a
/// [`JobSpec`] is wired to a simulator — [`run_job`] and
/// [`run_job_resumable`] wrap it. A scheduler
/// preempts a job by keeping its `JobRun` and calling
/// [`advance`](Self::advance) again later; [`save`](Self::save) and
/// [`restore`](Self::restore) are for pauses that must outlive the process.
pub struct JobRun {
    job: JobSpec,
    gen: Box<dyn SnapGen>,
    /// `None` once the run has finished and handed back its metrics.
    live: Option<(TestRun, Sim)>,
}

impl JobRun {
    /// Builds the generator and controller(s) `job` describes, ready for
    /// its first request.
    ///
    /// # Panics
    /// Panics on an unknown device preset or an invalid configuration.
    #[must_use]
    pub fn start(job: &JobSpec) -> Self {
        let spec = presets::by_name(&job.device)
            .unwrap_or_else(|| panic!("unknown device preset '{}'", job.device));
        let gen = gen_for_job(job, &spec);
        let chans = job.channels.max(1);
        let sim = match job.model {
            Model::Event => {
                let mut cfg = ev_cfg(spec, job.policy, job.sched, job.mapping, chans);
                cfg.ras = ras_for_job(job);
                if chans == 1 {
                    // The single-channel short job is the campaign hot
                    // path: take the worker's cached controller instead
                    // of rebuilding queues and arenas per job.
                    let mut ctrl = cached_ev_ctrl(cfg);
                    ctrl.set_tick_budget(Some(JOB_TICK_BUDGET));
                    Sim::Ev(ctrl)
                } else {
                    let mk = |_| {
                        let mut ctrl = DramCtrl::new(cfg.clone()).expect("valid config");
                        ctrl.set_tick_budget(Some(JOB_TICK_BUDGET));
                        ctrl
                    };
                    Sim::EvX(Box::new(xbar((0..chans).map(mk).collect(), job.mapping)))
                }
            }
            Model::Cycle => {
                let mut cfg = cy_cfg(spec, job.policy, job.sched, job.mapping, chans);
                cfg.ras = ras_for_job(job);
                let mk = |_| CycleCtrl::new(cfg.clone()).expect("valid config");
                if chans == 1 {
                    Sim::Cy(Box::new(mk(0)))
                } else {
                    Sim::CyX(Box::new(xbar((0..chans).map(mk).collect(), job.mapping)))
                }
            }
        };
        Self {
            job: job.clone(),
            gen,
            live: Some((std_tester().begin(), sim)),
        }
    }

    /// Requests injected so far.
    ///
    /// # Panics
    /// Panics on a run that has already returned `Done`.
    #[must_use]
    pub fn injected(&self) -> u64 {
        self.live.as_ref().expect(SPENT).0.injected()
    }

    /// Simulates until the job completes or — with `pause_after:
    /// Some(n)` — the first request boundary at or past `n` injections.
    /// The next call picks up exactly there: chained slices yield
    /// metrics byte-identical to one `advance(None)`.
    ///
    /// # Panics
    /// Panics if a controller trips its stall watchdog, or on a run that
    /// has already returned `Done`.
    pub fn advance(&mut self, pause_after: Option<u64>) -> SliceOutcome {
        let (run, sim) = self.live.as_mut().expect(SPENT);
        let gen = &mut self.gen;
        let paused = with_ctrl!(sim, c => {
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
            return SliceOutcome::Paused {
                injected: run.injected(),
            };
        }
        let (run, mut sim) = self.live.take().expect(SPENT);
        let mut m = job_metrics(&with_ctrl!(&mut sim, c => run.finish(&mut **c)));
        match &sim {
            Sim::Ev(c) => {
                assert_no_stall(std::iter::once(&**c));
                add_ras_metrics(&mut m, c.fault_model().into_iter());
            }
            Sim::EvX(x) => {
                assert_no_stall(channels_of(x));
                add_ras_metrics(&mut m, channels_of(x).filter_map(DramCtrl::fault_model));
            }
            Sim::Cy(c) => add_ras_metrics(&mut m, c.fault_model().into_iter()),
            Sim::CyX(x) => {
                add_ras_metrics(&mut m, channels_of(x).filter_map(CycleCtrl::fault_model));
            }
        }
        if let Sim::Ev(c) = sim {
            retire_ev_ctrl(c);
        }
        SliceOutcome::Done(m)
    }

    /// Writes the run's state — tester, generator, controller, in that
    /// order, stamped with [`job_fingerprint`] — atomically to `path`.
    ///
    /// # Panics
    /// Panics on I/O errors, or on a run that has already returned `Done`.
    pub fn save(&self, path: &Path) {
        let (run, sim) = self.live.as_ref().expect(SPENT);
        let mut w = SnapWriter::new(job_fingerprint(&self.job));
        run.save_state(&mut w);
        self.gen.save_state(&mut w);
        with_ctrl!(sim, c => c.save_state(&mut w));
        write_atomic(path, w.into_bytes())
            .unwrap_or_else(|e| panic!("writing checkpoint {}: {e}", path.display()));
    }

    /// Replaces the run's state with the checkpoint at `path`.
    ///
    /// # Panics
    /// Panics on I/O errors or a checkpoint that does not match the job
    /// (wrong fingerprint, torn or corrupt state).
    pub fn restore(&mut self, path: &Path) {
        let bytes = std::fs::read(path)
            .unwrap_or_else(|e| panic!("reading checkpoint {}: {e}", path.display()));
        let (run, sim) = self.live.as_mut().expect(SPENT);
        let (gen, fp) = (&mut self.gen, job_fingerprint(&self.job));
        let restored = (|| {
            let mut r = SnapReader::new(&bytes, fp)?;
            run.restore_state(&mut r)?;
            gen.restore_state(&mut r)?;
            with_ctrl!(sim, c => c.restore_state(&mut r))?;
            if r.is_exhausted() {
                return Ok(());
            }
            let why = "checkpoint has trailing bytes after the controller state";
            Err(SnapError::Corrupt(why.into()))
        })();
        restored.unwrap_or_else(|e| panic!("restoring checkpoint {}: {e}", path.display()));
    }
}

/// Panic message for driving a [`JobRun`] past its `Done`.
const SPENT: &str = "this JobRun has already finished";

/// Observability artifacts produced by [`run_job_observed`], ready to be
/// written next to the campaign report.
#[derive(Debug, Clone)]
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
    /// ([`Report::to_json`]).
    pub stats_json: String,
}

/// The per-channel probe pair used by [`run_job_observed`].
type ObsProbe = (ChromeTracer, EpochRecorder);

/// Merges per-channel probes and the final report into [`JobArtifacts`].
fn collect_artifacts(
    probes: Vec<ObsProbe>,
    report: &Report,
    end: Tick,
    interval: Tick,
) -> JobArtifacts {
    let mut merged = EpochRecorder::new(interval);
    let mut tracers = Vec::with_capacity(probes.len());
    for (tracer, mut epochs) in probes {
        epochs.finish(end);
        merged.absorb(&epochs);
        tracers.push(tracer);
    }
    JobArtifacts {
        perfetto_json: ChromeTracer::combined_json(&tracers),
        epochs_csv: merged.to_csv(),
        epochs_jsonl: merged.to_jsonl(),
        stats_json: report.to_json(),
    }
}

/// Runs `job` whole over the channels `mk` builds (one, or a crossbar
/// of `job.channels`) and collects metrics and artifacts; the two
/// accessors name the concrete controller's inherent methods.
fn observe<C: Controller>(
    job: &JobSpec,
    gen: &mut Box<dyn SnapGen>,
    epoch_interval: Tick,
    mk: impl Fn(u32) -> C,
    fault_model: fn(&C) -> Option<&FaultModel>,
    into_probe: fn(C) -> ObsProbe,
) -> (JobMetrics, JobArtifacts) {
    let (s, report, ctrls) = if job.channels <= 1 {
        let mut ctrl = mk(0);
        let s = std_tester().run(gen, &mut ctrl);
        let report = ctrl.report("ctrl", s.duration);
        (s, report, vec![ctrl])
    } else {
        let mut xbar = xbar((0..job.channels).map(mk).collect(), job.mapping);
        let s = std_tester().run(gen, &mut xbar);
        let report = xbar.report("system", s.duration);
        (s, report, xbar.into_parts().0)
    };
    let mut m = job_metrics(&s);
    add_ras_metrics(&mut m, ctrls.iter().filter_map(fault_model));
    let probes = ctrls.into_iter().map(into_probe).collect();
    (
        m,
        collect_artifacts(probes, &report, s.duration, epoch_interval),
    )
}

/// [`run_job`] with live instrumentation: every channel carries a
/// [`ChromeTracer`] and an [`EpochRecorder`] binning at `epoch_interval`
/// ticks, and the returned metrics come with the rendered artifacts.
///
/// The probes are pure observers, so the metrics are identical to an
/// unobserved [`run_job`] of the same spec — the zero-perturbation
/// property the differential harness asserts controller-by-controller.
pub fn run_job_observed(job: &JobSpec, epoch_interval: Tick) -> (JobMetrics, JobArtifacts) {
    let spec = presets::by_name(&job.device)
        .unwrap_or_else(|| panic!("unknown device preset '{}'", job.device));
    let mut gen = gen_for_job(job, &spec);
    let probe = |ch: u32| {
        (
            ChromeTracer::for_channel(ch),
            EpochRecorder::new(epoch_interval),
        )
    };
    match job.model {
        Model::Event => {
            let mut cfg = ev_cfg(spec, job.policy, job.sched, job.mapping, job.channels);
            cfg.ras = ras_for_job(job);
            let mk = |ch| DramCtrl::with_probe(cfg.clone(), probe(ch)).expect("valid config");
            let (fm, ip) = (DramCtrl::fault_model, DramCtrl::into_probe);
            observe(job, &mut gen, epoch_interval, mk, fm, ip)
        }
        Model::Cycle => {
            let mut cfg = cy_cfg(spec, job.policy, job.sched, job.mapping, job.channels);
            cfg.ras = ras_for_job(job);
            let mk = |ch| CycleCtrl::with_probe(cfg.clone(), probe(ch)).expect("valid config");
            let (fm, ip) = (CycleCtrl::fault_model, CycleCtrl::into_probe);
            observe(job, &mut gen, epoch_interval, mk, fm, ip)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dramctrl_campaign::Campaign;

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
            assert_eq!(m.get("reads"), Some(300.0), "{}", job.label());
            assert!(m.get("bus_util").unwrap() > 0.0);
        }
    }

    #[test]
    fn observed_run_matches_plain_run_and_renders_artifacts() {
        let jobs = Campaign::new("obs", 9)
            .models([Model::Event, Model::Cycle])
            .channels([1, 2])
            .requests([300])
            .expand();
        for job in &jobs {
            let (m, art) = run_job_observed(job, 1_000_000);
            // Zero perturbation all the way up: observed metrics equal the
            // unobserved run's bit for bit.
            assert_eq!(m, run_job(job), "{}", job.label());
            dramctrl_obs::json::validate(&art.perfetto_json).expect("loadable trace");
            assert!(art.perfetto_json.contains("\"ACT\""), "{}", job.label());
            assert!(art.epochs_csv.lines().count() > 1, "{}", job.label());
            dramctrl_obs::json::validate(&art.stats_json).expect("valid stats JSON");
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
                "{}",
                job.label()
            );
            assert!(
                m.get("ras_corrected").unwrap() + m.get("ras_transient_faults").unwrap() >= 0.0,
                "RAS counters missing: {}",
                job.label()
            );
            // Silent events can only be the multi-symbol syndrome alias.
            assert!(
                m.get("ras_silent").unwrap() <= m.get("ras_rank_failures").unwrap(),
                "single-symbol fault escaped SEC-DED: {}",
                job.label()
            );
            // Determinism across repeated runs, RAS counters included.
            assert_eq!(m, run_job(job), "{}", job.label());
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
            assert_eq!(m, &cold, "{}", job.label());
        }
    }

    #[test]
    #[should_panic(expected = "unknown device preset")]
    fn unknown_device_panics() {
        let mut jobs = Campaign::new("bad", 1).requests([10]).expand();
        jobs[0].device = "SDRAM-66-x16".to_owned();
        let _ = run_job(&jobs[0]);
    }
}
