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
//!
//! The collector renders each finished record's line once, into one
//! reused batch buffer; the journal appends those bytes and the report
//! keeps them, in job order ([`ReportLines`]). Workers never render:
//! a line a worker rendered into its own `String` would cross threads
//! and be freed on another, which measured slower than rendering on the
//! collector.

use crate::journal::CampaignJournal;
use crate::report::{render_parts_into, CampaignReport, JobMetrics, JobRecord};
use crate::spec::{Campaign, JobSpec};
use dramctrl_kernel::backoff::deterministic_ms;
use dramctrl_obs::metrics::{
    Counter, FloatCounter, Gauge, Histogram, Registry, LATENCY_BUCKETS, SIZE_BUCKETS,
};
use std::collections::BTreeMap;
use std::ops::Range;
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
    let pending: Vec<usize> = (0..total)
        .filter(|&i| prefilled[i].is_none() && in_shard(shard, i))
        .collect();

    let workers = cfg.effective_workers(pending.len());
    let next = AtomicUsize::new(0);
    let (tx, rx) = mpsc::channel::<(usize, JobOutcome)>();
    let start = Instant::now();

    let (outcomes, jsonl) = std::thread::scope(|s| {
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
            let expected = outcomes.iter().flatten().count() + to_run;
            let mut report = ReportLines::new(name, jobs, shard, expected);
            report.advance(&outcomes);
            let mut done = 0usize;
            let mut failed = 0usize;
            let mut batch: Vec<(usize, JobOutcome)> = Vec::new();
            // The batch's lines, in batch order, and where each one ends.
            let mut lines = String::new();
            let mut ends: Vec<usize> = Vec::new();
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
                // Each record renders once, from borrows of the job table
                // and the batch, into the one reused buffer.
                lines.clear();
                ends.clear();
                for (i, outcome) in &batch {
                    render_parts_into(&mut lines, name, &jobs[*i], outcome);
                    ends.push(lines.len());
                    lines.push('\n');
                }
                // The commit point: the records hit the durable journal
                // before their outcomes are accepted into the report.
                if let Some(j) = journal.as_deref_mut() {
                    let commit_started = Instant::now();
                    let records = batch.iter().zip(batch_lines(&lines, &ends));
                    j.commit_batch(records.map(|(&(i, ref o), line)| (i, o, line)))
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
                for ((i, outcome), line) in batch.drain(..).zip(batch_lines(&lines, &ends)) {
                    done += 1;
                    if outcome.is_failed() {
                        failed += 1;
                    }
                    report.take(i, line);
                    outcomes[i] = Some(outcome);
                }
                report.advance(&outcomes);
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
            (outcomes, report.into_jsonl())
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
    CampaignReport::with_lines(
        campaign.name.clone(),
        campaign.seed,
        workers,
        start.elapsed().as_secs_f64(),
        records,
        jsonl,
    )
}

/// Whether job `index` belongs to `shard` (every job does when unsharded).
fn in_shard(shard: Option<(u32, u32)>, index: usize) -> bool {
    shard.map_or(true, |(idx, n)| index % n as usize == idx as usize)
}

/// The lines of a batch buffer, each without its newline, where line `k`
/// ends at byte `ends[k]`.
fn batch_lines<'a>(lines: &'a str, ends: &'a [usize]) -> impl Iterator<Item = &'a str> + 'a {
    let starts = std::iter::once(0).chain(ends.iter().map(|end| end + 1));
    starts
        .zip(ends)
        .map(move |(start, &end)| &lines[start..end])
}

/// The report's bytes, assembled on the collector: lines arrive in
/// completion order and leave in job order. `out` holds the line of
/// every job below `next` that has an outcome; a line that finished
/// ahead of a job still running waits in `held`, one buffer for all of
/// them. Workers take jobs in index order, so about as many lines wait
/// as there are workers, and the whole report is never held twice.
struct ReportLines<'a> {
    name: &'a str,
    jobs: &'a [JobSpec],
    shard: Option<(u32, u32)>,
    /// Lines the report will hold.
    expected: usize,
    out: String,
    next: usize,
    held: String,
    held_at: BTreeMap<usize, Range<usize>>,
    /// Bytes of `held` still waiting; the rest have moved to `out`.
    held_live: usize,
}

impl<'a> ReportLines<'a> {
    fn new(name: &'a str, jobs: &'a [JobSpec], shard: Option<(u32, u32)>, expected: usize) -> Self {
        Self {
            name,
            jobs,
            shard,
            expected,
            out: String::new(),
            next: 0,
            held: String::new(),
            held_at: BTreeMap::new(),
            held_live: 0,
        }
    }

    /// Takes job `index`'s freshly rendered line (without its newline).
    fn take(&mut self, index: usize, line: &str) {
        if self.out.capacity() == 0 {
            // Sized once, from the first line: a buffer that doubled
            // while the collector's other allocations interleave leaves
            // its old copies behind in the heap. Rounded up to a power of
            // two, so the campaigns a process runs one after another ask
            // for the same block and reuse it.
            let estimate = self.expected * (line.len() + 1) * 9 / 8;
            self.out.reserve(estimate.next_power_of_two());
        }
        if index == self.next {
            self.out.push_str(line);
            self.out.push('\n');
            self.next += 1;
        } else {
            let start = self.held.len();
            self.held.push_str(line);
            self.held_at.insert(index, start..self.held.len());
            self.held_live += line.len();
        }
    }

    /// Moves every line now in order to the output: held lines, and the
    /// outcomes a resumed journal carried in, rendered here, once. Stops
    /// at the first job of the shard that is still running.
    fn advance(&mut self, outcomes: &[Option<JobOutcome>]) {
        while self.next < self.jobs.len() {
            let i = self.next;
            if let Some(at) = self.held_at.remove(&i) {
                self.held_live -= at.len();
                self.out.push_str(&self.held[at]);
            } else if let Some(outcome) = &outcomes[i] {
                render_parts_into(&mut self.out, self.name, &self.jobs[i], outcome);
            } else if in_shard(self.shard, i) {
                break;
            } else {
                self.next += 1;
                continue;
            }
            self.out.push('\n');
            self.next += 1;
        }
        if self.held_at.is_empty() {
            self.held.clear();
            self.held_live = 0;
        } else if self.held.len() > 4 * self.held_live.max(4096) {
            // Mostly moved out while something early still runs: keep
            // only the waiting lines.
            let mut held = String::with_capacity(2 * self.held_live);
            for at in self.held_at.values_mut() {
                let start = held.len();
                held.push_str(&self.held[at.clone()]);
                *at = start..held.len();
            }
            self.held = held;
        }
    }

    /// The report's lines; every held line must have been moved out.
    fn into_jsonl(self) -> String {
        debug_assert!(self.held_at.is_empty(), "a line outlived its job");
        self.out
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
            assert_eq!(r.records().len(), 24);
            for (i, rec) in r.records().iter().enumerate() {
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
        match &r.records()[5].outcome {
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
        assert_eq!(r.records()[0].outcome.attempts(), 2);
        assert_eq!(r.records()[1].outcome.attempts(), 1);
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
            assert_eq!(base.records(), r.records());
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

    /// Runs `f` and counts the record renders it made on this thread,
    /// where the collector and the journal readers run.
    fn renders<T>(f: impl FnOnce() -> T) -> (T, usize) {
        use crate::report::RENDERS;
        let before = RENDERS.with(std::cell::Cell::get);
        let out = f();
        (out, RENDERS.with(std::cell::Cell::get) - before)
    }

    /// `report`'s bytes are its records, each rendered once more here.
    fn assert_lines_are_records(report: &CampaignReport) {
        let rendered: String = report
            .records()
            .iter()
            .map(|r| r.render(&report.name) + "\n")
            .collect();
        assert!(report.to_jsonl() == rendered, "report bytes != its records");
    }

    /// A campaign with one job that always fails, so failed records ride
    /// through every path too.
    fn failing_runner(job: &JobSpec) -> JobMetrics {
        if job.index == 7 {
            panic!("job 7 \"always\" dies");
        }
        toy_runner(job)
    }

    fn tmp_dir(name: &str) -> std::path::PathBuf {
        let dir =
            std::env::temp_dir().join(format!("dramctrl-render-{}-{name}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        dir
    }

    #[test]
    fn a_campaign_renders_each_record_once() {
        let prev = std::panic::take_hook();
        std::panic::set_hook(Box::new(|_| {}));
        let c = campaign(24);
        let cfg = ExecutorConfig::default()
            .with_workers(3)
            .with_max_attempts(1);
        let (plain, n) = renders(|| {
            let r = run_campaign(&c, &cfg, failing_runner);
            let _ = r.to_jsonl();
            r
        });
        assert_eq!(n, 24, "plain: one render per job, to_jsonl included");
        assert_eq!(plain.failed(), 1);

        let dir = tmp_dir("once");
        let mut journal = CampaignJournal::create(dir.join("j.jsonl"), &c).unwrap();
        let (journaled, n) = renders(|| {
            let r = run_campaign_journaled(&c, &cfg, &mut journal, failing_runner);
            let _ = r.to_jsonl();
            r
        });
        std::panic::set_hook(prev);
        assert_eq!(n, 24, "journaled: the journal appends the report's bytes");
        assert_lines_are_records(&plain);
        assert_lines_are_records(&journaled);
        assert_eq!(plain.to_jsonl(), journaled.to_jsonl());
        let serial = run_campaign(&c, &cfg.clone().with_workers(1), failing_runner);
        assert_eq!(serial.to_jsonl(), plain.to_jsonl());
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn a_resume_renders_journaled_lines_once_more_and_the_rest_once() {
        let c = campaign(20);
        let reference = run_campaign(&c, &ExecutorConfig::serial(), toy_runner);
        let dir = tmp_dir("resume");
        let path = dir.join("j.jsonl");
        let mut journal = CampaignJournal::create(&path, &c).unwrap();
        for r in reference.records().iter().filter(|r| r.job.index % 2 == 0) {
            journal.commit(r).unwrap();
        }
        drop(journal);

        let (mut journal, n) = renders(|| CampaignJournal::resume(&path, &c).unwrap());
        assert_eq!(n, 10, "one verification per journaled line");
        let cfg = ExecutorConfig::default().with_workers(2);
        let (resumed, n) = renders(|| run_campaign_journaled(&c, &cfg, &mut journal, toy_runner));
        assert_eq!(
            n,
            10 + 10,
            "journaled lines once into the report, the rest once"
        );
        let (jsonl, n) = renders(|| resumed.to_jsonl());
        assert_eq!(n, 0, "to_jsonl renders nothing");
        assert_eq!(jsonl, reference.to_jsonl());
        assert_lines_are_records(&resumed);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn a_merge_keeps_the_lines_it_validated() {
        let prev = std::panic::take_hook();
        std::panic::set_hook(Box::new(|_| {}));
        let c = campaign(15);
        let cfg = ExecutorConfig::default()
            .with_workers(2)
            .with_max_attempts(1);
        let reference = run_campaign(&c, &cfg, failing_runner);
        let dir = tmp_dir("merge");
        let paths: Vec<_> = (0..3u32)
            .map(|k| dir.join(format!("shard-{k}.jsonl")))
            .collect();
        let mut lines = 0;
        for (k, path) in (0..3u32).zip(&paths) {
            let mut journal = CampaignJournal::create(path, &c).unwrap();
            let shard = run_campaign_shard(&c, &cfg, &mut journal, (k, 3), failing_runner);
            assert_lines_are_records(&shard);
            assert_eq!(shard.records().len(), 5);
            lines += shard.records().len();
        }
        std::panic::set_hook(prev);
        let (merged, n) = renders(|| {
            let r = crate::merge_journals(&c, &paths).unwrap();
            let _ = r.to_jsonl();
            r
        });
        assert_eq!(n, lines, "validation only: one render per journal line");
        assert_eq!(merged.failed(), 1);
        assert_eq!(merged.to_jsonl(), reference.to_jsonl());
        assert_lines_are_records(&merged);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn report_lines_leave_in_job_order_whatever_order_they_arrive_in() {
        let jobs = campaign(255).expand();
        // 0 and 201 run long; everything else arrives first. Job 3 came
        // from a resumed journal.
        let line = |i: usize| format!("{i:0>100}");
        let mut outcomes: Vec<Option<JobOutcome>> = vec![None; jobs.len()];
        let carried = JobOutcome::Completed {
            metrics: JobMetrics::new().with("carried", 1.0),
            attempts: 1,
        };
        outcomes[3] = Some(carried.clone());
        let mut lines = ReportLines::new("order", &jobs, None, jobs.len());
        lines.advance(&outcomes);
        let order = (1..=200)
            .chain([202, 0, 201])
            .chain(203..255)
            .filter(|&i| i != 3);
        let mut held_peak = 0;
        for i in order {
            lines.take(i, &line(i));
            outcomes[i] = Some(carried.clone());
            lines.advance(&outcomes);
            held_peak = held_peak.max(lines.held.len());
            if i == 0 {
                assert_eq!(lines.held_at.len(), 1, "202 still waits on 201");
                assert!(lines.held.len() < 4096, "the moved-out lines were dropped");
            }
        }
        assert!(held_peak > 16 * 1024);
        let mut want = String::new();
        for (i, job) in jobs.iter().enumerate() {
            if i == 3 {
                let rec = JobRecord {
                    job: job.clone(),
                    outcome: carried.clone(),
                };
                want.push_str(&rec.render("order"));
            } else {
                want.push_str(&line(i));
            }
            want.push('\n');
        }
        assert!(lines.into_jsonl() == want);
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
        assert_eq!(r.records().len(), 12);
        assert_eq!(m.batch_records.count(), m.commit_seconds.count());
        assert!(m.batch_records.count() >= 1);
        assert!(
            (m.batch_records.sum() - 12.0).abs() < 1e-9,
            "every record batched once"
        );
        let _ = std::fs::remove_dir_all(&dir);
    }
}
