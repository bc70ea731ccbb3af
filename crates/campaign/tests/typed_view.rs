//! A report keeps record lines only; its typed view is parsed back from
//! them. That view must be exactly what the runner returned — failed
//! jobs with messages that need escaping, non-finite metrics (written
//! `null`, read back as NaN) — for plain, sharded, resumed and merged
//! reports alike.

use dramctrl_campaign::{
    merge_journals, run_campaign, run_campaign_journaled, run_campaign_shard, Campaign,
    CampaignJournal, CampaignReport, ExecutorConfig, JobMetrics, JobOutcome, JobRecord, JobSpec,
};
use std::path::PathBuf;

fn tmp(name: &str) -> PathBuf {
    let d = std::env::temp_dir().join(format!("dramctrl-typed-view-{}", std::process::id()));
    std::fs::create_dir_all(&d).unwrap();
    let p = d.join(name);
    let _ = std::fs::remove_file(&p);
    p
}

fn campaign() -> Campaign {
    Campaign::new("typed \"view\"", 17)
        .read_pcts([0, 33, 67, 100])
        .requests([10, 20, 30])
        .error_rates([0.0, 2.5e11])
}

/// The panic message job `index` dies with, if it dies.
fn panic_msg(index: usize) -> Option<String> {
    (index % 7 == 3).then(|| format!("job {index}: \"quoted\" \\ back\nslash\ttab \u{1} λ"))
}

/// What the runner returns for `job`: odd metrics on some jobs.
fn metrics(job: &JobSpec) -> JobMetrics {
    let mut m = JobMetrics::new()
        .with("bus_util", job.seed as f64 / u64::MAX as f64)
        .with("reads", f64::from(job.read_pct))
        .with("tiny", 5e-324)
        .with("huge", f64::MAX)
        .with("negative zero", -0.0)
        .with("weird \"name\"\n", 0.1 + 0.2);
    match job.index % 5 {
        0 => m.set("nan", f64::NAN),
        1 => m.set("inf", f64::INFINITY),
        2 => m.set("-inf", f64::NEG_INFINITY),
        _ => {}
    }
    m
}

fn runner(job: &JobSpec) -> JobMetrics {
    if let Some(msg) = panic_msg(job.index) {
        std::panic::panic_any(msg);
    }
    metrics(job)
}

fn cfg() -> ExecutorConfig {
    ExecutorConfig::default()
        .with_workers(3)
        .with_max_attempts(1)
}

/// The records the runner produced, for the jobs `keep` selects.
fn expected(c: &Campaign, keep: impl Fn(usize) -> bool) -> Vec<JobRecord> {
    c.expand()
        .into_iter()
        .filter(|j| keep(j.index))
        .map(|job| {
            let outcome = match panic_msg(job.index) {
                Some(panic_msg) => JobOutcome::Failed {
                    panic_msg,
                    attempts: 1,
                },
                None => JobOutcome::Completed {
                    metrics: metrics(&job),
                    attempts: 1,
                },
            };
            JobRecord { job, outcome }
        })
        .collect()
}

/// A value as a record line can hold it: a finite value exactly, any
/// other as `null`, which reads back as NaN.
fn stored(v: f64) -> Option<u64> {
    v.is_finite().then_some(v.to_bits())
}

/// `got` is `want` through a record line: equal, but for non-finite
/// metrics, which a line holds only as `null`.
fn assert_same(got: &JobRecord, want: &JobRecord, what: &str) {
    assert_eq!(got.job, want.job, "{what}: job {}", want.job.index);
    match (&got.outcome, &want.outcome) {
        (
            JobOutcome::Completed {
                metrics: g,
                attempts: ga,
            },
            JobOutcome::Completed {
                metrics: w,
                attempts: wa,
            },
        ) => {
            assert_eq!(ga, wa, "{what}: attempts of job {}", want.job.index);
            let g: Vec<_> = g.iter().map(|(k, v)| (k, stored(v))).collect();
            let w: Vec<_> = w.iter().map(|(k, v)| (k, stored(v))).collect();
            assert_eq!(g, w, "{what}: metrics of job {}", want.job.index);
        }
        _ => assert_eq!(got.outcome, want.outcome, "{what}: job {}", want.job.index),
    }
}

/// Every typed accessor of `report` agrees with `want`, the records it
/// should hold, and jobs it does not hold are absent.
fn assert_typed_view(report: &CampaignReport, c: &Campaign, want: &[JobRecord], what: &str) {
    let got = report.records();
    assert_eq!(got.len(), want.len(), "{what}: record count");
    assert_eq!(report.len(), want.len(), "{what}: len");
    let failed = want.iter().filter(|r| r.outcome.is_failed()).count();
    assert_eq!(
        (report.completed(), report.failed()),
        (want.len() - failed, failed)
    );
    for (g, w) in got.iter().zip(want) {
        assert_same(g, w, what);
    }
    for i in 0..c.len() {
        let w = want.iter().find(|r| r.job.index == i);
        match (report.record(i), w) {
            (Some(g), Some(w)) => assert_same(&g, w, what),
            (None, None) => {}
            (g, w) => panic!("{what}: record({i}) is {g:?}, want {w:?}"),
        }
        let found = report.find(|j| j.index == i);
        match (found, w.map(|w| &w.outcome)) {
            (Some((job, m)), Some(JobOutcome::Completed { metrics, attempts })) => {
                let outcome = JobOutcome::Completed {
                    metrics: m,
                    attempts: *attempts,
                };
                let want = JobRecord {
                    job: job.clone(),
                    outcome: JobOutcome::Completed {
                        metrics: metrics.clone(),
                        attempts: *attempts,
                    },
                };
                assert_same(&JobRecord { job, outcome }, &want, what);
            }
            (None, None | Some(JobOutcome::Failed { .. })) => {}
            (g, w) => panic!("{what}: find(job {i}) is {g:?}, want {w:?}"),
        }
    }
}

fn quietly<T>(f: impl FnOnce() -> T) -> T {
    let prev = std::panic::take_hook();
    std::panic::set_hook(Box::new(|_| {}));
    let out = f();
    std::panic::set_hook(prev);
    out
}

#[test]
fn the_typed_view_is_what_the_runner_returned() {
    let c = campaign();
    let all = expected(&c, |_| true);
    assert!(all.iter().any(|r| r.outcome.is_failed()));
    quietly(|| {
        // Plain.
        let plain = run_campaign(&c, &cfg(), runner);
        assert_typed_view(&plain, &c, &all, "plain");

        // Sharded, each shard into its own journal, then merged.
        let paths: Vec<PathBuf> = (0..3).map(|k| tmp(&format!("shard-{k}.jsonl"))).collect();
        for (k, path) in (0..3u32).zip(&paths) {
            let mut j = CampaignJournal::create(path, &c).unwrap();
            let shard = run_campaign_shard(&c, &cfg(), &mut j, (k, 3), runner);
            let mine = expected(&c, |i| i % 3 == k as usize);
            assert_typed_view(&shard, &c, &mine, &format!("shard {k}/3"));
        }
        let merged = merge_journals(&c, &paths).unwrap();
        assert_typed_view(&merged, &c, &all, "merged");
        assert_eq!(merged.to_jsonl(), plain.to_jsonl());

        // Resumed: shard 1's journal picked up and run to the end, its
        // lines spliced in, not rendered again.
        let mut j = CampaignJournal::resume(&paths[1], &c).unwrap();
        let resumed = run_campaign_journaled(&c, &cfg(), &mut j, runner);
        assert_typed_view(&resumed, &c, &all, "resumed");
        assert_eq!(resumed.to_jsonl(), plain.to_jsonl());
        let cols = ["bus_util", "nan", "inf", "tiny", "missing"];
        assert_eq!(resumed.table(&cols).render(), plain.table(&cols).render());

        // Run again on the same handle: every job is committed, and the
        // lines are read back from the file.
        let again = run_campaign_journaled(&c, &cfg(), &mut j, |_| unreachable!("all committed"));
        assert_typed_view(&again, &c, &all, "re-run");
        assert_eq!(again.to_jsonl(), plain.to_jsonl());
    });
}
