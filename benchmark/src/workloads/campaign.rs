//! `campaign_tiny`: one local campaign of many very small jobs.
//!
//! Overhead-isolating on purpose: each job simulates 16-48 random
//! requests, so simulation is the minority of a job's time and the
//! runner's fixed cost, the executor's hand-off, record rendering and
//! the batched journal commit dominate. `core` does little here; a gain
//! in the controller should not move this workload.

use super::{fdatasync_ms_p50, total_requests, Ctx, SETUPS};
use crate::calib::Calibrator;
use crate::report::Outcome;
use crate::stats::{median, undisturbed};
use dramctrl::{PagePolicy, SchedPolicy};
use dramctrl_bench::run_job;
use dramctrl_campaign::{
    run_campaign, run_campaign_journaled, Campaign, CampaignJournal, ExecMetrics, ExecutorConfig,
    JobSpec, TrafficPattern,
};
use dramctrl_kernel::fsio::fault::op_count;
use dramctrl_obs::metrics::Registry;
use std::sync::Mutex;
use std::time::Instant;

/// read % 1..=100 x requests 16..=48 x {open, closed} x {FR-FCFS, FCFS}:
/// 13 200 jobs, 32 requests each on average. A third of the issue's
/// 40 k so that a run holds a dozen repeats instead of four.
fn campaign(seed: u64) -> Campaign {
    Campaign::new("campaign_tiny", seed)
        .devices(["DDR3-1600-x64"])
        .policies([PagePolicy::Open, PagePolicy::Closed])
        .scheds([SchedPolicy::FrFcfs, SchedPolicy::Fcfs])
        .traffic([TrafficPattern::Random {
            range: 256 << 20,
            block: 64,
        }])
        .read_pcts(1..=100)
        .requests(16..=48)
}

/// Campaign spec in, complete report bytes out, through the journaled
/// executor. Returns `(seconds, report bytes, render seconds, executor
/// wall seconds)`.
fn journaled(
    ctx: &Ctx,
    c: &Campaign,
    cfg: &ExecutorConfig,
    runner: impl Fn(&JobSpec) -> dramctrl_campaign::JobMetrics + Sync,
) -> Result<(f64, String, f64, f64), String> {
    let path = ctx.workdir.join("campaign_tiny.journal");
    let t = Instant::now();
    let mut journal =
        CampaignJournal::create(&path, c).map_err(|e| format!("create journal: {e}"))?;
    let report = run_campaign_journaled(c, cfg, &mut journal, runner);
    let rendering = Instant::now();
    let bytes = report.to_jsonl();
    let done = Instant::now();
    drop(journal);
    std::fs::remove_file(&path).map_err(|e| format!("remove journal: {e}"))?;
    Ok((
        (done - t).as_secs_f64(),
        bytes,
        (done - rendering).as_secs_f64(),
        report.wall_secs,
    ))
}

pub fn run(ctx: &mut Ctx) -> Result<Outcome, String> {
    let mut out = Outcome::default();
    let nproc = ctx.host.nproc;
    let workers = ctx.host.clamp("workers", nproc);
    ctx.host.check_threads("workers", workers)?;
    let cfg = ExecutorConfig::default().with_workers(workers);
    let seed = ctx.sub_seed(0);
    let mut cal = Calibrator::new(workers);

    // Set-up: campaign expansion, journal creation and the warm-up
    // campaign (page cache, allocator, journal path).
    let mut setups = Vec::with_capacity(SETUPS);
    for _ in 0..SETUPS {
        let t = Instant::now();
        let c = campaign(seed);
        std::hint::black_box(c.expand());
        journaled(ctx, &c, &cfg, run_job)?;
        setups.push(cal.scale(t.elapsed().as_secs_f64()));
    }
    let c = campaign(seed);
    let jobs = c.len() as u64;
    let requests = total_requests(&c);

    // Plain (unjournaled) and journaled runs alternate, so that drift of
    // the host lands on both sides of `journal_overhead` alike. The
    // first plain report is the reference every other one must equal.
    let deadline = ctx.deadline(if ctx.trace { 0.6 } else { 1.0 });
    let mut plain_secs = Vec::new();
    let (mut secs, mut wall) = (Vec::new(), Vec::new());
    let mut reference = String::new();
    let mut identical = true;
    while secs.len() < 3 || Instant::now() < deadline {
        if reference.is_empty() || ctx.trace {
            let t = Instant::now();
            let report = run_campaign(&c, &cfg, run_job);
            let bytes = report.to_jsonl();
            plain_secs.push(cal.scale(t.elapsed().as_secs_f64()));
            out.check("plain run has no failed job", report.failed() == 0);
            if reference.is_empty() {
                reference = bytes;
            } else {
                identical &= bytes == reference;
            }
        }
        let (s, bytes, _, _) = journaled(ctx, &c, &cfg, run_job)?;
        identical &= bytes == reference;
        secs.push(cal.scale(s));
        wall.push(s);
    }
    out.check(
        "reference report holds one record per job",
        reference.lines().count() as u64 == jobs,
    );
    let run_s = undisturbed(&secs);
    out.set_whole_result(run_s, jobs as f64, requests as f64);
    out.set("setup_s", undisturbed(&setups));
    out.set("harness.samples", secs.len() as f64);
    out.set("campaign.local_sims_per_s", jobs as f64 / run_s);
    out.notes.push(format!(
        "{jobs} jobs, {requests} requests per campaign, {workers} worker(s), {} timed repeats",
        secs.len()
    ));
    out.notes.push(format!(
        "raw wall clock: {:.0} jobs/s, campaign {:.1} ms",
        jobs as f64 / undisturbed(&wall),
        undisturbed(&wall) * 1e3
    ));
    out.attempted = jobs * (secs.len() + plain_secs.len() + SETUPS) as u64;

    if ctx.trace {
        out.set(
            "campaign.journal_overhead",
            run_s / undisturbed(&plain_secs),
        );
        identical &= traced(ctx, &c, &cfg, &reference, run_s, &mut cal, &mut out)?;
    }
    out.set("harness.host_speed", cal.median_speed());
    out.check(
        "journaled report byte-identical to the plain executor's",
        identical,
    );
    if !identical {
        out.failed += jobs;
    }
    out.set("peak_rss_mb", crate::host::peak_rss_mb());
    Ok(out)
}

/// The per-layer half. Returns whether every traced report matched.
fn traced(
    ctx: &mut Ctx,
    c: &Campaign,
    cfg: &ExecutorConfig,
    reference: &str,
    untraced_run_s: f64,
    cal: &mut Calibrator,
    out: &mut Outcome,
) -> Result<bool, String> {
    let jobs = c.len() as f64;
    let mut identical = true;
    let mut cols: Vec<(&'static str, Vec<f64>)> = [
        "campaign.expand_s",
        "campaign.exec_wall_s",
        "campaign.worker_busy_s",
        "campaign.worker_idle_s",
        "campaign.journal_batches",
        "campaign.batch_records_mean",
        "campaign.commit_ms_mean",
        "campaign.render_s",
        "campaign.retries",
        "runner.job_busy_s",
        "runner.job_us_p50",
        "kernel.durability_ops",
    ]
    .into_iter()
    .map(|n| (n, Vec::new()))
    .collect();
    let mut traced_secs = Vec::new();
    let deadline = ctx.deadline(0.3);
    let mut repeat = 0u64;
    cal.sample();
    while traced_secs.len() < 2 || Instant::now() < deadline {
        let t = Instant::now();
        std::hint::black_box(c.expand());
        let expand_s = t.elapsed().as_secs_f64();

        // Fresh handles per repeat, so every value is one campaign's.
        let m = ExecMetrics::register(&Registry::new());
        let cfg = cfg.clone().with_metrics(m.clone());
        let spans: Mutex<Vec<(usize, Instant, Instant)>> = Mutex::new(Vec::new());
        let ops_before = op_count();
        let started = Instant::now();
        let (s, bytes, render_s, exec_wall_s) = journaled(ctx, c, &cfg, |job| {
            let t0 = Instant::now();
            let metrics = run_job(job);
            let t1 = Instant::now();
            spans
                .lock()
                .expect("no job panics while holding the span lock")
                .push((job.index, t0, t1));
            metrics
        })?;
        let ended = Instant::now();
        let ops = op_count() - ops_before;
        let speed = cal.speed_since_last();
        identical &= bytes == reference;
        traced_secs.push(s * speed);

        let spans = spans.into_inner().expect("workers have finished");
        let job_us: Vec<f64> = spans
            .iter()
            .map(|(_, a, b)| (*b - *a).as_secs_f64() * 1e6 * speed)
            .collect();
        // Job spans of the first traced campaign are kept one by one;
        // later repeats only feed the medians.
        if repeat == 0 {
            let root = ctx
                .recorder
                .push("campaign.run", started, ended, None, repeat);
            for &(index, a, b) in &spans {
                ctx.recorder
                    .push("runner.job", a, b, Some(root), index as u64);
            }
        }
        let batches = m.batch_records.count() as f64;
        let per_batch = |total: f64| if batches > 0.0 { total / batches } else { 0.0 };
        let values = [
            expand_s * speed,
            exec_wall_s * speed,
            m.busy_seconds.get() * speed,
            m.idle_seconds.get() * speed,
            batches,
            per_batch(m.batch_records.sum()),
            per_batch(m.commit_seconds.sum()) * 1e3 * speed,
            render_s * speed,
            m.retries.get() as f64,
            job_us.iter().sum::<f64>() / 1e6,
            median(&job_us),
            ops as f64,
        ];
        for ((_, col), v) in cols.iter_mut().zip(values) {
            col.push(v);
        }
        repeat += 1;
    }
    for (name, col) in &cols {
        out.set(name, median(col));
    }
    let busy = out.metrics["campaign.worker_busy_s"];
    let idle = out.metrics["campaign.worker_idle_s"];
    if busy + idle > 0.0 {
        out.set("campaign.worker_util", busy / (busy + idle));
    }
    out.set("runner.jobs", jobs);
    out.set(
        "kernel.durability_ops_per_sim",
        out.metrics["kernel.durability_ops"] / jobs,
    );
    out.set("kernel.fdatasync_ms_p50", fdatasync_ms_p50(ctx));
    out.set(
        "harness.trace_overhead_pct",
        (undisturbed(&traced_secs) / untraced_run_s - 1.0) * 100.0,
    );

    // The runner's fixed cost: a one-request job on a warm thread (the
    // worker's cached controller is reused), and the first job on a
    // fresh thread (the controller is built).
    let one = Campaign::new("fixed-cost", ctx.sub_seed(1))
        .devices(["DDR3-1600-x64"])
        .traffic([TrafficPattern::Random {
            range: 256 << 20,
            block: 64,
        }])
        .requests([1])
        .expand()
        .remove(0);
    let time_one = |job: &JobSpec| {
        let t = Instant::now();
        std::hint::black_box(run_job(job));
        t.elapsed().as_secs_f64() * 1e6
    };
    time_one(&one);
    let mut cal = Calibrator::new(1);
    let warm: Vec<f64> = (0..2_000).map(|_| time_one(&one)).collect();
    out.set("runner.job_fixed_us", cal.scale(median(&warm)));
    let cold: Vec<f64> = (0..9)
        .map(|_| {
            std::thread::scope(|s| {
                s.spawn(|| time_one(&one))
                    .join()
                    .expect("a one-request job does not panic")
            })
        })
        .collect();
    out.set("runner.cold_build_us", cal.scale(median(&cold)));
    Ok(identical)
}
