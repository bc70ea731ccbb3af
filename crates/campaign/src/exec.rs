//! The campaign executor: a work-stealing thread pool with panic
//! isolation, collected and reported on by the calling thread.
//!
//! Workers pull job indices from a shared atomic counter (the cheapest
//! possible work-stealing deque for identical-cost jobs), run the
//! caller's runner under [`std::panic::catch_unwind`], retry panicked
//! jobs up to a bound, and stream `(index, outcome)` pairs over a
//! channel to the collector — the thread that called in, which would
//! otherwise only wait — which also reports progress. Results are
//! stored by job index, so the final report is independent of scheduling
//! order and worker count.

use crate::journal::CampaignJournal;
use crate::report::{CampaignReport, JobMetrics, JobRecord};
use crate::spec::{Campaign, JobSpec};
use dramctrl_kernel::backoff::deterministic_ms;
use dramctrl_obs::metrics::{
    Counter, FloatCounter, Gauge, Histogram, Registry, LATENCY_BUCKETS, SIZE_BUCKETS,
};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::mpsc;
use std::time::{Duration, Instant};

/// Minimum interval between progress-line rewrites: at tens of thousands
/// of jobs per second, unthrottled `\r` rewrites cost more than the jobs.
const PROGRESS_INTERVAL: Duration = Duration::from_millis(100);

/// What happened to one job.
#[derive(Debug, Clone, PartialEq)]
pub enum JobOutcome {
    /// The job ran to completion (possibly after retries).
    Completed {
        /// The metrics it produced.
        metrics: JobMetrics,
        /// Attempts used (1 = first try succeeded).
        attempts: u32,
    },
    /// Every attempt panicked; the campaign carried on without it.
    Failed {
        /// The final panic's message.
        panic_msg: String,
        /// Attempts used (equals the executor's `max_attempts`).
        attempts: u32,
    },
}

impl JobOutcome {
    /// Whether this job ultimately failed.
    pub fn is_failed(&self) -> bool {
        matches!(self, JobOutcome::Failed { .. })
    }

    /// Attempts used.
    pub fn attempts(&self) -> u32 {
        match self {
            JobOutcome::Completed { attempts, .. } | JobOutcome::Failed { attempts, .. } => {
                *attempts
            }
        }
    }
}

/// Where progress updates go.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum Progress {
    /// No progress output (library / test use).
    #[default]
    Silent,
    /// Carriage-return progress line on stderr with ETA.
    Stderr,
}

/// Operational metrics for one executor run, pre-registered in a
/// [`Registry`] so a service embedding the executor exposes them over
/// its `/metrics` endpoint. All handles are cheap atomic clones; when
/// [`ExecutorConfig::metrics`] is `None` the executor records nothing
/// and costs one branch per job — report bytes are identical either
/// way (metrics watch the executor, never steer it).
#[derive(Debug, Clone)]
pub struct ExecMetrics {
    /// Jobs completed (possibly after retries).
    pub units_completed: Counter,
    /// Jobs recorded as failed after the retry budget.
    pub units_failed: Counter,
    /// Extra attempts spent on panicked jobs (attempts beyond the first).
    pub retries: Counter,
    /// Records per journal commit batch.
    pub batch_records: Histogram,
    /// Journal batch-commit latency (append + fsync), seconds.
    pub commit_seconds: Histogram,
    /// Total seconds workers spent running jobs.
    pub busy_seconds: FloatCounter,
    /// Total seconds workers existed but were not running jobs.
    pub idle_seconds: FloatCounter,
    /// Finished jobs per second of campaign wall time so far.
    pub units_per_second: Gauge,
}

impl ExecMetrics {
    /// Registers the executor families in `registry` and returns the
    /// handles. Call once per process; repeated calls return handles to
    /// the same atomics.
    #[must_use]
    pub fn register(registry: &Registry) -> Self {
        Self {
            units_completed: registry.counter(
                "dramctrl_executor_units_total",
                "Executor jobs finished, by outcome.",
                &[("outcome", "completed")],
            ),
            units_failed: registry.counter(
                "dramctrl_executor_units_total",
                "Executor jobs finished, by outcome.",
                &[("outcome", "failed")],
            ),
            retries: registry.counter(
                "dramctrl_executor_retries_total",
                "Extra attempts spent re-running panicked jobs.",
                &[],
            ),
            batch_records: registry.histogram(
                "dramctrl_executor_batch_records",
                "Records per journal commit batch.",
                &[],
                SIZE_BUCKETS,
            ),
            commit_seconds: registry.histogram(
                "dramctrl_executor_commit_seconds",
                "Journal batch-commit latency (append + fsync).",
                &[],
                LATENCY_BUCKETS,
            ),
            busy_seconds: registry.fcounter(
                "dramctrl_executor_worker_busy_seconds_total",
                "Seconds workers spent running jobs.",
                &[],
            ),
            idle_seconds: registry.fcounter(
                "dramctrl_executor_worker_idle_seconds_total",
                "Seconds workers existed but ran no job.",
                &[],
            ),
            units_per_second: registry.gauge(
                "dramctrl_executor_units_per_second",
                "Finished jobs per second of campaign wall time.",
                &[],
            ),
        }
    }
}

/// Executor tuning knobs.
#[derive(Debug, Clone)]
pub struct ExecutorConfig {
    /// Worker threads; `0` means [`std::thread::available_parallelism`].
    pub workers: usize,
    /// Maximum attempts per job (must be ≥ 1); a job failing this many
    /// times is recorded as [`JobOutcome::Failed`].
    pub max_attempts: u32,
    /// Base backoff before the second attempt of a panicked job, in
    /// milliseconds; doubles per further attempt, plus a deterministic
    /// per-(job, attempt) jitter. `0` retries immediately.
    pub retry_backoff_ms: u64,
    /// Progress reporting sink.
    pub progress: Progress,
    /// Operational metric handles; `None` (the default) records nothing.
    pub metrics: Option<ExecMetrics>,
}

impl Default for ExecutorConfig {
    fn default() -> Self {
        Self {
            workers: 0,
            max_attempts: 2,
            retry_backoff_ms: 10,
            progress: Progress::Silent,
            metrics: None,
        }
    }
}

impl ExecutorConfig {
    /// A serial configuration (one worker) — useful for baselines.
    pub fn serial() -> Self {
        Self {
            workers: 1,
            ..Self::default()
        }
    }

    /// Sets the worker count.
    pub fn with_workers(mut self, workers: usize) -> Self {
        self.workers = workers;
        self
    }

    /// Sets the retry bound.
    pub fn with_max_attempts(mut self, max_attempts: u32) -> Self {
        self.max_attempts = max_attempts;
        self
    }

    /// Sets the base retry backoff in milliseconds (`0` disables it).
    pub fn with_retry_backoff_ms(mut self, ms: u64) -> Self {
        self.retry_backoff_ms = ms;
        self
    }

    /// Sets the progress sink.
    pub fn with_progress(mut self, progress: Progress) -> Self {
        self.progress = progress;
        self
    }

    /// Attaches operational metric handles (see [`ExecMetrics`]).
    pub fn with_metrics(mut self, metrics: ExecMetrics) -> Self {
        self.metrics = Some(metrics);
        self
    }

    /// The worker count this configuration yields for `total` units of
    /// work: [`workers`](Self::workers), or the host's available
    /// parallelism when that is `0`; at least 1, at most `total`.
    #[must_use]
    pub fn effective_workers(&self, total: usize) -> usize {
        let hw = || {
            std::thread::available_parallelism()
                .map(std::num::NonZeroUsize::get)
                .unwrap_or(1)
        };
        let w = if self.workers == 0 {
            hw()
        } else {
            self.workers
        };
        w.clamp(1, total.max(1))
    }
}

/// Expands `campaign` and runs every job through `runner` on a worker
/// pool, returning the aggregated report.
///
/// `runner` maps a [`JobSpec`] to its [`JobMetrics`]; it must be
/// deterministic in the spec (including `spec.seed`) for the campaign's
/// reproducibility guarantee to hold. Panics inside the runner are
/// caught, retried up to [`ExecutorConfig::max_attempts`] times, and
/// recorded as [`JobOutcome::Failed`] — a panicking job never aborts the
/// campaign.
///
/// # Panics
/// Panics if `max_attempts` is zero, if the campaign has an empty axis,
/// or if an internal executor thread is broken (never by a runner
/// panic).
pub fn run_campaign<F>(campaign: &Campaign, cfg: &ExecutorConfig, runner: F) -> CampaignReport
where
    F: Fn(&JobSpec) -> JobMetrics + Sync,
{
    run_campaign_inner(campaign, cfg, None, None, runner)
}

/// [`run_campaign`] with a durable write-ahead journal: every finished
/// job is committed to `journal` (appended and fsync'd) *before* it
/// counts as done, and jobs the journal already records — from an earlier
/// run that crashed or was killed — are skipped, their outcomes merged
/// into the report from the journal.
///
/// The journal append is the single commit point: a job that produced
/// artifacts but died before its append re-runs cleanly on resume, and a
/// journaled job is never appended twice. The merged
/// [`CampaignReport::to_jsonl`] is byte-identical to an uninterrupted
/// run's at any worker count, because journaled lines and report lines
/// come from one renderer and per-job results depend only on the spec.
///
/// # Panics
/// Panics like [`run_campaign`], and additionally if a journal append
/// fails — a record that cannot be made durable must not be reported as
/// done.
pub fn run_campaign_journaled<F>(
    campaign: &Campaign,
    cfg: &ExecutorConfig,
    journal: &mut CampaignJournal,
    runner: F,
) -> CampaignReport
where
    F: Fn(&JobSpec) -> JobMetrics + Sync,
{
    run_campaign_inner(campaign, cfg, Some(journal), None, runner)
}

/// [`run_campaign_journaled`] restricted to one deterministic shard of the
/// campaign: only jobs whose index `i` satisfies `i % count == index` are
/// dispatched (journaled jobs are still skipped and merged in, whichever
/// shard committed them).
///
/// Sharding is by job *index*, so `N` processes — or hosts — given shards
/// `0/N .. N-1/N` of the same campaign partition the work exactly, and
/// their journals merge back into the uninterrupted report via
/// [`merge_journals`](crate::merge_journals): per-job seeds depend only on
/// `(campaign seed, index)`, never on which shard ran the job.
///
/// The returned report holds records for the jobs this process has
/// outcomes for (its shard plus anything already journaled) — a *partial*
/// view; the full report comes from the merge.
///
/// # Panics
/// Panics like [`run_campaign_journaled`], and if `index >= count` or
/// `count == 0`.
pub fn run_campaign_shard<F>(
    campaign: &Campaign,
    cfg: &ExecutorConfig,
    journal: &mut CampaignJournal,
    shard: (u32, u32),
    runner: F,
) -> CampaignReport
where
    F: Fn(&JobSpec) -> JobMetrics + Sync,
{
    assert!(
        shard.1 > 0 && shard.0 < shard.1,
        "shard {}/{} is not a valid shard (need index < count)",
        shard.0,
        shard.1
    );
    run_campaign_inner(campaign, cfg, Some(journal), Some(shard), runner)
}

fn run_campaign_inner<F>(
    campaign: &Campaign,
    cfg: &ExecutorConfig,
    journal: Option<&mut CampaignJournal>,
    shard: Option<(u32, u32)>,
    runner: F,
) -> CampaignReport
where
    F: Fn(&JobSpec) -> JobMetrics + Sync,
{
    assert!(cfg.max_attempts >= 1, "max_attempts must be at least 1");
    let jobs = campaign.expand();
    let total = jobs.len();

    // Seed the outcome table with what the journal already holds; only
    // the remainder is dispatched to workers.
    let mut prefilled: Vec<Option<JobOutcome>> = (0..total).map(|_| None).collect();
    if let Some(j) = journal.as_deref() {
        for (&i, outcome) in j.completed() {
            prefilled[i] = Some(outcome.clone());
        }
    }
    let in_shard = |i: usize| shard.map_or(true, |(idx, n)| i % n as usize == idx as usize);
    let pending: Vec<usize> = (0..total)
        .filter(|&i| prefilled[i].is_none() && in_shard(i))
        .collect();

    let workers = cfg.effective_workers(pending.len());
    let next = AtomicUsize::new(0);
    let (tx, rx) = mpsc::channel::<(usize, JobOutcome)>();
    let start = Instant::now();

    let outcomes = std::thread::scope(|s| {
        let jobs = &jobs;
        let next = &next;
        let runner = &runner;
        let pending = &pending;
        for _ in 0..workers {
            let tx = tx.clone();
            s.spawn(move || {
                let spawned = Instant::now();
                let mut busy = 0.0f64;
                loop {
                    let slot = next.fetch_add(1, Ordering::Relaxed);
                    let Some(&i) = pending.get(slot) else { break };
                    let job_started = Instant::now();
                    let outcome = run_one(&jobs[i], cfg, runner);
                    busy += job_started.elapsed().as_secs_f64();
                    if let Some(m) = &cfg.metrics {
                        m.retries
                            .add(u64::from(outcome.attempts().saturating_sub(1)));
                        if outcome.is_failed() {
                            m.units_failed.inc();
                        } else {
                            m.units_completed.inc();
                        }
                    }
                    if tx.send((i, outcome)).is_err() {
                        break;
                    }
                }
                if let Some(m) = &cfg.metrics {
                    m.busy_seconds.add(busy);
                    m.idle_seconds
                        .add((spawned.elapsed().as_secs_f64() - busy).max(0.0));
                }
            });
        }
        drop(tx);

        let name = &campaign.name;
        let progress = cfg.progress;
        let exec_metrics = &cfg.metrics;
        let to_run = pending.len();
        // The caller collects. Its journal copies of the outcomes then
        // live in the one allocator arena that outlasts the campaign,
        // not in whichever arena a fresh collector thread is handed, so
        // a process running campaign after campaign has a steady
        // resident set. A failed commit unwinds through `rx`, and the
        // workers stop at their next send.
        {
            let rx = rx;
            let mut journal = journal;
            let mut outcomes = prefilled;
            let mut done = 0usize;
            let mut failed = 0usize;
            let mut batch: Vec<(usize, JobOutcome)> = Vec::new();
            let mut last_progress: Option<Instant> = None;
            let mut line_width = 0usize;
            while let Ok(first) = rx.recv() {
                // Greedy drain: everything the workers have finished since
                // the last iteration commits as one batch — one journal
                // fsync amortised over the whole batch instead of one per
                // record. Under load the batch grows to match the workers'
                // rate, so the fsync never becomes the bottleneck again.
                batch.push(first);
                while let Ok(more) = rx.try_recv() {
                    batch.push(more);
                }
                // The commit point: the records hit the durable journal
                // before their outcomes are accepted into the report.
                // Lines render from borrows of the job table and the
                // batch — no per-record JobSpec/JobOutcome clones.
                if let Some(j) = journal.as_deref_mut() {
                    let commit_started = Instant::now();
                    j.commit_batch(batch.iter().map(|&(i, ref o)| (&jobs[i], o)))
                        .unwrap_or_else(|e| {
                            panic!(
                                "cannot commit {} job(s) to the campaign journal at {}: {e}",
                                batch.len(),
                                j.path().display()
                            )
                        });
                    if let Some(m) = exec_metrics {
                        m.commit_seconds
                            .observe(commit_started.elapsed().as_secs_f64());
                        m.batch_records.observe(batch.len() as f64);
                    }
                }
                for (i, outcome) in batch.drain(..) {
                    done += 1;
                    if outcome.is_failed() {
                        failed += 1;
                    }
                    outcomes[i] = Some(outcome);
                }
                let elapsed = start.elapsed().as_secs_f64();
                if let Some(m) = exec_metrics {
                    if elapsed > 0.0 {
                        m.units_per_second.set(done as f64 / elapsed);
                    }
                }
                // Progress is throttled: at high job rates rewriting the
                // terminal per record costs more than the jobs themselves.
                if progress == Progress::Stderr
                    && last_progress.map_or(true, |t| t.elapsed() >= PROGRESS_INTERVAL)
                {
                    last_progress = Some(Instant::now());
                    let eta = elapsed / done as f64 * (to_run - done) as f64;
                    let line =
                        format!("[{name}] {done}/{to_run} done, {failed} failed, ETA {eta:.0}s");
                    eprint!("\r{}", pad_progress(&mut line_width, &line));
                }
            }
            // The terminal line is unconditional — never throttled — so a
            // campaign that finishes inside the 100ms window still prints
            // its final count; padding covers any longer ETA line that a
            // throttled rewrite left on the terminal.
            if progress == Progress::Stderr && to_run > 0 {
                let line = format!("[{name}] {done}/{to_run} done, {failed} failed");
                eprintln!("\r{}", pad_progress(&mut line_width, &line));
            }
            outcomes
        }
    });

    // Unsharded, every index must have an outcome; a shard only has
    // outcomes for its own indices plus whatever the journal carried in.
    let records = jobs
        .into_iter()
        .zip(outcomes)
        .filter_map(|(job, outcome)| match outcome {
            Some(outcome) => Some(JobRecord { job, outcome }),
            None if shard.is_some() => None,
            None => panic!("every job index is executed exactly once"),
        })
        .collect();
    CampaignReport {
        name: campaign.name.clone(),
        seed: campaign.seed,
        workers,
        wall_secs: start.elapsed().as_secs_f64(),
        records,
    }
}

/// Pads `line` with spaces to cover the widest progress line printed so
/// far, so a `\r` rewrite by a shorter line (the terminal line drops the
/// ETA; ETAs shrink as the campaign drains) never leaves stale trailing
/// characters. Tracks the running maximum in `width`.
fn pad_progress(width: &mut usize, line: &str) -> String {
    let mut s = line.to_owned();
    if s.len() < *width {
        s.push_str(&" ".repeat(*width - s.len()));
    }
    *width = (*width).max(line.len());
    s
}

fn run_one<F>(job: &JobSpec, cfg: &ExecutorConfig, runner: &F) -> JobOutcome
where
    F: Fn(&JobSpec) -> JobMetrics + Sync,
{
    let mut attempts = 0;
    loop {
        attempts += 1;
        match catch_unwind(AssertUnwindSafe(|| runner(job))) {
            Ok(metrics) => return JobOutcome::Completed { metrics, attempts },
            Err(payload) => {
                if attempts >= cfg.max_attempts {
                    return JobOutcome::Failed {
                        panic_msg: panic_message(payload.as_ref()),
                        attempts,
                    };
                }
                let ms = retry_backoff_ms(cfg.retry_backoff_ms, job.seed, attempts);
                if ms > 0 {
                    std::thread::sleep(Duration::from_millis(ms));
                }
            }
        }
    }
}

/// Backoff before re-running a job that has already panicked `attempt`
/// times: the kernel's deterministic exponential-with-jitter schedule,
/// keyed by `(job_seed, attempt)` — never the wall clock or the worker
/// id — so reruns pace their retries identically at any worker count.
fn retry_backoff_ms(base_ms: u64, job_seed: u64, attempt: u32) -> u64 {
    deterministic_ms(base_ms, job_seed, attempt)
}

/// Extracts a human-readable message from a panic payload — the text a
/// [`JobOutcome::Failed`] record carries, shared with every executor of
/// campaign units so failure records read the same everywhere.
pub fn panic_message(payload: &(dyn std::any::Any + Send)) -> String {
    if let Some(s) = payload.downcast_ref::<&'static str>() {
        (*s).to_owned()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "non-string panic payload".to_owned()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::spec::Campaign;
    use std::sync::atomic::AtomicU32;

    /// A runner that records which thread computed each job, for
    /// asserting that parallelism actually happened.
    fn toy_runner(job: &JobSpec) -> JobMetrics {
        // Busy-ish work keyed off the seed so results differ per job.
        let mut acc = job.seed;
        for _ in 0..1_000 {
            acc = acc.wrapping_mul(6_364_136_223_846_793_005).wrapping_add(1);
        }
        JobMetrics::new()
            .with("acc_low", (acc & 0xFFFF) as f64)
            .with("index", job.index as f64)
    }

    fn campaign(n_read_pcts: u8) -> Campaign {
        Campaign::new("exec-test", 31).read_pcts(0..n_read_pcts)
    }

    #[test]
    fn outcomes_are_keyed_by_job_not_schedule() {
        let c = campaign(24);
        for workers in [1usize, 3, 8] {
            let cfg = ExecutorConfig::default().with_workers(workers);
            let r = run_campaign(&c, &cfg, toy_runner);
            assert_eq!(r.workers, workers.min(24));
            assert_eq!(r.records.len(), 24);
            for (i, rec) in r.records.iter().enumerate() {
                assert_eq!(rec.job.index, i);
                match &rec.outcome {
                    JobOutcome::Completed { metrics, attempts } => {
                        assert_eq!(*attempts, 1);
                        assert_eq!(metrics.get("index"), Some(i as f64));
                    }
                    JobOutcome::Failed { .. } => panic!("toy runner never fails"),
                }
            }
        }
    }

    #[test]
    fn worker_zero_uses_available_parallelism() {
        let r = run_campaign(&campaign(4), &ExecutorConfig::default(), toy_runner);
        assert!(r.workers >= 1);
        assert!(r.workers <= 4, "clamped to job count");
    }

    #[test]
    fn panicking_job_is_retried_then_reported() {
        // Quiet hook: these panics are intentional.
        let prev = std::panic::take_hook();
        std::panic::set_hook(Box::new(|_| {}));
        let c = campaign(8);
        let tries = AtomicU32::new(0);
        let cfg = ExecutorConfig::serial().with_max_attempts(3);
        let r = run_campaign(&c, &cfg, |job| {
            if job.index == 5 {
                tries.fetch_add(1, Ordering::Relaxed);
                panic!("job 5 always dies (read_pct={})", job.read_pct);
            }
            toy_runner(job)
        });
        std::panic::set_hook(prev);

        assert_eq!(tries.load(Ordering::Relaxed), 3, "bounded retry");
        assert_eq!(r.failed(), 1);
        assert_eq!(r.completed(), 7, "campaign did not abort");
        match &r.records[5].outcome {
            JobOutcome::Failed {
                panic_msg,
                attempts,
            } => {
                assert_eq!(*attempts, 3);
                assert!(panic_msg.contains("job 5 always dies"));
            }
            other => panic!("expected failure, got {other:?}"),
        }
    }

    #[test]
    fn flaky_job_succeeds_on_retry() {
        let prev = std::panic::take_hook();
        std::panic::set_hook(Box::new(|_| {}));
        let c = campaign(2);
        let first = AtomicU32::new(0);
        let cfg = ExecutorConfig::serial().with_max_attempts(2);
        let r = run_campaign(&c, &cfg, |job| {
            if job.index == 0 && first.fetch_add(1, Ordering::Relaxed) == 0 {
                panic!("transient");
            }
            toy_runner(job)
        });
        std::panic::set_hook(prev);

        assert_eq!(r.failed(), 0);
        assert_eq!(r.records[0].outcome.attempts(), 2);
        assert_eq!(r.records[1].outcome.attempts(), 1);
    }

    #[test]
    fn reports_identical_across_worker_counts() {
        let c = campaign(32);
        let base = run_campaign(&c, &ExecutorConfig::serial(), toy_runner);
        for workers in [2usize, 8] {
            let r = run_campaign(
                &c,
                &ExecutorConfig::default().with_workers(workers),
                toy_runner,
            );
            assert_eq!(base.records, r.records);
            assert_eq!(base.to_jsonl(), r.to_jsonl());
        }
    }

    #[test]
    fn retry_backoff_is_deterministic_and_exponential() {
        // Same (seed, attempt) → same sleep; growth dominated by the
        // doubling base; jitter bounded by half the base.
        for seed in [0u64, 31, u64::MAX] {
            for attempt in 1..=5u32 {
                let a = retry_backoff_ms(10, seed, attempt);
                let b = retry_backoff_ms(10, seed, attempt);
                assert_eq!(a, b, "backoff must not depend on ambient state");
                let expo = 10 * (1 << (attempt - 1));
                assert!((expo..=expo + expo / 2).contains(&a));
            }
        }
        // Different jobs spread out (not all identical).
        let spread: std::collections::BTreeSet<u64> =
            (0..16u64).map(|s| retry_backoff_ms(100, s, 1)).collect();
        assert!(spread.len() > 1, "jitter never varies");
        assert_eq!(retry_backoff_ms(0, 7, 3), 0, "zero base disables backoff");
    }

    #[test]
    #[should_panic(expected = "max_attempts")]
    fn zero_attempts_rejected() {
        let cfg = ExecutorConfig::serial().with_max_attempts(0);
        let _ = run_campaign(&campaign(1), &cfg, toy_runner);
    }

    #[test]
    fn pad_progress_covers_prior_longer_line() {
        let mut width = 0;
        let long = pad_progress(&mut width, "[c] 1/10 done, 0 failed, ETA 123s");
        assert_eq!(long.len(), 33);
        // The shorter final line is padded to overwrite the ETA tail.
        let short = pad_progress(&mut width, "[c] 10/10 done, 0 failed");
        assert_eq!(short.len(), long.len());
        assert!(short.ends_with("         "));
        // A longer line later needs no padding and raises the bar.
        let longer = pad_progress(&mut width, &"x".repeat(40));
        assert_eq!(longer.len(), 40);
        assert_eq!(width, 40);
    }

    #[test]
    fn metrics_never_change_report_bytes() {
        let c = campaign(8);
        let bare = run_campaign(&c, &ExecutorConfig::serial(), toy_runner);
        let registry = Registry::new();
        let m = ExecMetrics::register(&registry);
        let cfg = ExecutorConfig::serial().with_metrics(m.clone());
        let metered = run_campaign(&c, &cfg, toy_runner);
        // Metrics watch, never steer: report bytes are unchanged.
        assert_eq!(bare.to_jsonl(), metered.to_jsonl());
        assert_eq!(m.units_completed.get(), 8);
        assert_eq!(m.units_failed.get(), 0);
        assert!(m.busy_seconds.get() > 0.0);
        assert!(m.units_per_second.get() > 0.0);
        dramctrl_obs::metrics::validate_exposition(&registry.render_prometheus()).unwrap();
    }

    #[test]
    fn metrics_count_retries_and_failures() {
        let prev = std::panic::take_hook();
        std::panic::set_hook(Box::new(|_| {}));
        let registry = Registry::new();
        let m = ExecMetrics::register(&registry);
        let cfg = ExecutorConfig::serial()
            .with_max_attempts(2)
            .with_retry_backoff_ms(0)
            .with_metrics(m.clone());
        let first = AtomicU32::new(0);
        let r = run_campaign(&campaign(8), &cfg, |job| {
            match job.index {
                // One transient panic: costs a retry, then completes.
                3 if first.fetch_add(1, Ordering::Relaxed) == 0 => panic!("transient"),
                // One hard failure: burns the whole attempt budget.
                5 => panic!("always"),
                _ => {}
            }
            toy_runner(job)
        });
        std::panic::set_hook(prev);

        assert_eq!(r.failed(), 1);
        assert_eq!(m.units_completed.get(), 7);
        assert_eq!(m.units_failed.get(), 1);
        // Job 3 used one extra attempt, job 5 used one beyond its first.
        assert_eq!(m.retries.get(), 2);
    }

    #[test]
    fn journaled_run_observes_batches_and_commit_latency() {
        let dir = std::env::temp_dir().join(format!("dramctrl-execm-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        let c = campaign(12);
        let registry = Registry::new();
        let m = ExecMetrics::register(&registry);
        let cfg = ExecutorConfig::serial().with_metrics(m.clone());
        let mut journal = CampaignJournal::create(dir.join("j.jsonl"), &c).unwrap();
        let r = run_campaign_journaled(&c, &cfg, &mut journal, toy_runner);
        assert_eq!(r.records.len(), 12);
        assert_eq!(m.batch_records.count(), m.commit_seconds.count());
        assert!(m.batch_records.count() >= 1);
        assert!(
            (m.batch_records.sum() - 12.0).abs() < 1e-9,
            "every record batched once"
        );
        let _ = std::fs::remove_dir_all(&dir);
    }
}
