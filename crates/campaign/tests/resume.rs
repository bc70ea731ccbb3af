//! Journaled execution and resume: merged reports must be byte-identical
//! to an uninterrupted run's, at any worker count, and the journal append
//! must be the single commit point.

use dramctrl_campaign::{
    run_campaign, run_campaign_journaled, Campaign, CampaignJournal, ExecutorConfig, JobMetrics,
    JobOutcome, JobRecord, JobSpec,
};
use std::path::PathBuf;
use std::sync::atomic::{AtomicUsize, Ordering};

fn tmp(name: &str) -> PathBuf {
    let d = std::env::temp_dir().join(format!("dramctrl-resume-{}", std::process::id()));
    std::fs::create_dir_all(&d).unwrap();
    d.join(name)
}

fn campaign() -> Campaign {
    Campaign::new("resume-test", 77)
        .read_pcts([0, 25, 50, 75, 100])
        .requests([100, 200])
}

/// Deterministic toy runner: metrics depend only on the spec.
fn toy_runner(job: &JobSpec) -> JobMetrics {
    let mut acc = job.seed;
    for _ in 0..500 {
        acc = acc.wrapping_mul(6_364_136_223_846_793_005).wrapping_add(1);
    }
    JobMetrics::new()
        .with("acc_low", (acc & 0xFFFF) as f64)
        .with("index", job.index as f64)
}

#[test]
fn journaled_full_run_matches_plain_run() {
    let c = campaign();
    let plain = run_campaign(&c, &ExecutorConfig::serial(), toy_runner);
    let p = tmp("full.jsonl");
    let mut j = CampaignJournal::create(&p, &c).unwrap();
    let journaled = run_campaign_journaled(&c, &ExecutorConfig::serial(), &mut j, toy_runner);
    assert_eq!(plain.to_jsonl(), journaled.to_jsonl());
    // Every report line is in the journal, byte for byte, after the header.
    let text = std::fs::read_to_string(&p).unwrap();
    let mut journal_lines: Vec<&str> = text.lines().skip(1).collect();
    journal_lines.sort_unstable();
    let jsonl = plain.to_jsonl();
    let mut report_lines: Vec<&str> = jsonl.lines().collect();
    report_lines.sort_unstable();
    assert_eq!(journal_lines, report_lines);
}

#[test]
fn resume_after_partial_run_is_byte_identical_at_any_worker_count() {
    let c = campaign();
    let baseline = run_campaign(&c, &ExecutorConfig::serial(), toy_runner);
    let jobs = c.expand();

    for workers in [1usize, 2, 8] {
        let p = tmp(&format!("partial-{workers}.jsonl"));
        // Simulate a run killed after 4 of 10 jobs: only those records made
        // it into the durable journal.
        let mut j = CampaignJournal::create(&p, &c).unwrap();
        for job in jobs.iter().take(4) {
            j.commit(&JobRecord {
                job: job.clone(),
                outcome: JobOutcome::Completed {
                    metrics: toy_runner(job),
                    attempts: 1,
                },
            })
            .unwrap();
        }
        drop(j);

        // Resume from disk at a different worker count.
        let mut j = CampaignJournal::resume(&p, &c).unwrap();
        assert_eq!(j.committed(), 4);
        let ran = AtomicUsize::new(0);
        let cfg = ExecutorConfig::default().with_workers(workers);
        let resumed = run_campaign_journaled(&c, &cfg, &mut j, |job| {
            ran.fetch_add(1, Ordering::Relaxed);
            assert!(job.index >= 4, "journaled job {} re-ran", job.index);
            toy_runner(job)
        });

        // Only the remainder ran, and the merged report is byte-identical.
        assert_eq!(ran.load(Ordering::Relaxed), jobs.len() - 4);
        assert_eq!(baseline.to_jsonl(), resumed.to_jsonl());
        assert_eq!(
            baseline.table(&["acc_low", "index"]).render(),
            resumed.table(&["acc_low", "index"]).render()
        );
        // The finished journal holds every job exactly once.
        let text = std::fs::read_to_string(&p).unwrap();
        assert_eq!(text.lines().count(), 1 + jobs.len());
        let resumed_again = CampaignJournal::resume(&p, &c).unwrap();
        assert_eq!(resumed_again.committed(), jobs.len());
    }
}

#[test]
fn artifacts_before_commit_rerun_cleanly_without_double_append() {
    // Satellite guarantee: a job that wrote its artifacts but died before
    // the journal append re-runs on resume — the artifact is atomically
    // overwritten and the journal gains exactly one record for the job.
    let c = Campaign::new("artifact-test", 5).read_pcts([0, 50, 100]);
    let jobs = c.expand();
    let dir = tmp("artifacts");
    std::fs::create_dir_all(&dir).unwrap();
    let artifact = |i: usize| dir.join(format!("job-{i}.txt"));

    let runner = |job: &JobSpec| {
        dramctrl_kernel::fsio::write_atomic(
            artifact(job.index),
            format!("metrics for job {}\n", job.index),
        )
        .unwrap();
        toy_runner(job)
    };

    let p = tmp("artifact.jsonl");
    let mut j = CampaignJournal::create(&p, &c).unwrap();
    // Job 0 completed and committed; job 1 "crashed" after writing its
    // artifact but before its journal append.
    j.commit(&JobRecord {
        job: jobs[0].clone(),
        outcome: JobOutcome::Completed {
            metrics: toy_runner(&jobs[0]),
            attempts: 1,
        },
    })
    .unwrap();
    std::fs::write(artifact(1), "torn artifact from the crashed run").unwrap();
    drop(j);

    let mut j = CampaignJournal::resume(&p, &c).unwrap();
    let report = run_campaign_journaled(&c, &ExecutorConfig::serial(), &mut j, runner);
    assert_eq!(report.failed(), 0);
    // The half-done job re-ran: its artifact was rewritten whole.
    assert_eq!(
        std::fs::read_to_string(artifact(1)).unwrap(),
        "metrics for job 1\n"
    );
    // And the journal holds each job exactly once — no double append.
    let text = std::fs::read_to_string(&p).unwrap();
    assert_eq!(text.lines().count(), 1 + jobs.len());
    let baseline = run_campaign(&c, &ExecutorConfig::serial(), runner);
    assert_eq!(baseline.to_jsonl(), report.to_jsonl());
}
