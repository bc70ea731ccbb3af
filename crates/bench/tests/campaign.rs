//! Integration tests for the campaign engine driving the real simulation
//! runner: bit-for-bit determinism across worker counts, fault isolation
//! with bounded retry, and executor scaling on latency-bound jobs.

use dramctrl::{PagePolicy, SchedPolicy};
use dramctrl_bench::run_job;
use dramctrl_campaign::{
    run_campaign, Campaign, ExecutorConfig, JobOutcome, Model, TrafficPattern,
};
use std::sync::atomic::{AtomicU32, Ordering};
use std::time::{Duration, Instant};

/// A 64-job campaign over real controller simulations: models ×
/// policies × schedulers × traffic × read mixes.
fn campaign_64() -> Campaign {
    let c = Campaign::new("determinism-64", 0xD15C_0BA1)
        .models([Model::Event, Model::Cycle])
        .policies([PagePolicy::Open, PagePolicy::Closed])
        .scheds([SchedPolicy::Fcfs, SchedPolicy::FrFcfs])
        .traffic([
            TrafficPattern::Random {
                range: 64 << 20,
                block: 64,
            },
            TrafficPattern::DramAware {
                stride: 4,
                banks: 8,
            },
        ])
        .read_pcts([50, 100])
        .requests([150, 300]);
    assert_eq!(c.len(), 64);
    c
}

/// The tentpole guarantee: the same campaign seed produces byte-identical
/// JSONL reports at any worker count, with the real simulation runner.
#[test]
fn report_identical_for_1_2_and_8_workers() {
    let c = campaign_64();
    let baseline = run_campaign(&c, &ExecutorConfig::serial(), run_job);
    assert_eq!(baseline.failed(), 0, "real runner must not fail");
    let jsonl = baseline.to_jsonl();
    assert_eq!(jsonl.lines().count(), 64);
    for workers in [2usize, 8] {
        let r = run_campaign(
            &c,
            &ExecutorConfig::default().with_workers(workers),
            run_job,
        );
        assert_eq!(
            jsonl,
            r.to_jsonl(),
            "JSONL must be byte-identical at {workers} workers"
        );
    }
}

/// Fault isolation: a job that panics on every attempt is retried up to
/// the bound, recorded as failed with its panic message, and the other
/// 63 jobs still complete.
#[test]
fn panicking_job_is_isolated_retried_and_reported() {
    // These panics are intentional; keep the test output clean.
    let prev = std::panic::take_hook();
    std::panic::set_hook(Box::new(|_| {}));

    let c = campaign_64();
    let attempts_seen = AtomicU32::new(0);
    let cfg = ExecutorConfig::default()
        .with_workers(4)
        .with_max_attempts(2);
    let r = run_campaign(&c, &cfg, |job| {
        if job.index == 13 {
            attempts_seen.fetch_add(1, Ordering::Relaxed);
            panic!("injected fault in {job:?}");
        }
        run_job(job)
    });
    std::panic::set_hook(prev);

    assert_eq!(attempts_seen.load(Ordering::Relaxed), 2, "bounded retry");
    assert_eq!(r.failed(), 1);
    assert_eq!(r.completed(), 63, "campaign must not abort");
    match &r.records()[13].outcome {
        JobOutcome::Failed {
            panic_msg,
            attempts,
        } => {
            assert_eq!(*attempts, 2);
            assert!(panic_msg.contains("injected fault"));
        }
        other => panic!("job 13 should have failed, got {other:?}"),
    }
    // The failure is visible in the serialized report too.
    let jsonl = r.to_jsonl();
    let line13 = jsonl.lines().nth(13).unwrap();
    assert!(line13.contains("\"outcome\":\"failed\""));
    assert!(line13.contains("injected fault"));
}

/// Executor scaling: on latency-bound jobs (each parked for a fixed
/// wait, the shape of trace-fetch or I/O-heavy campaigns) 8 workers
/// complete a 64-job campaign at least 3x faster than 1 worker. Uses
/// sleeps rather than simulation so the result holds on single-core CI
/// hosts, where CPU-bound work cannot parallelise.
#[test]
fn eight_workers_beat_serial_by_3x_on_latency_bound_jobs() {
    let c = Campaign::new("throughput", 1).read_pcts(0..64);
    let runner = |_job: &dramctrl_campaign::JobSpec| {
        std::thread::sleep(Duration::from_millis(5));
        dramctrl_campaign::JobMetrics::new()
    };
    let t0 = Instant::now();
    let serial = run_campaign(&c, &ExecutorConfig::serial(), runner);
    let serial_secs = t0.elapsed().as_secs_f64();
    let t1 = Instant::now();
    let parallel = run_campaign(&c, &ExecutorConfig::default().with_workers(8), runner);
    let parallel_secs = t1.elapsed().as_secs_f64();

    assert_eq!(serial.completed(), 64);
    assert_eq!(parallel.completed(), 64);
    let speedup = serial_secs / parallel_secs;
    assert!(
        speedup >= 3.0,
        "expected >=3x speedup, got {speedup:.2}x ({serial_secs:.3}s vs {parallel_secs:.3}s)"
    );
}
