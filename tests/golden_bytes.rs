//! Every JSON byte the stack emits, pinned against files the commit
//! *before* the one-JSON refactor (PR 13, `99a1c0c`) wrote: a mixed
//! ok/failed campaign report whose names and panic message exercise the
//! escaper, that campaign's journal, and a two-channel observed job's
//! `stats.json` and Perfetto trace. Each compact single-line emitter must
//! also survive `parse` → `encode` unchanged under the one reader.

use dramctrl::PagePolicy;
use dramctrl_campaign::{
    run_campaign_journaled, Campaign, CampaignJournal, ExecutorConfig, JobMetrics, JobSpec,
};
use dramctrl_kernel::json::{validate, Value};
use dramctrl_runner::{run_job, JobArtifacts, JobRun, SliceOutcome};

/// Quote, backslash, newline and U+0001: one of each escape class.
const NASTY: &str = "boom \"q\" back\\slash\nline2 \u{1} end";

fn campaign() -> Campaign {
    Campaign::new("golden \"q\" \\ \t", 14)
        .policies([PagePolicy::Open, PagePolicy::Closed])
        .read_pcts([0, 100])
        .requests([200])
}

/// Runs the campaign serially (so journal order is the job order) with
/// job 2 panicking, and returns `(report JSONL, journal bytes)`.
fn report_and_journal() -> (String, String) {
    let path = std::env::temp_dir().join(format!("dramctrl-golden-{}.jsonl", std::process::id()));
    let c = campaign();
    let mut journal = CampaignJournal::create(&path, &c).unwrap();
    let cfg = ExecutorConfig::serial().with_max_attempts(1);
    let runner = |job: &JobSpec| -> JobMetrics {
        if job.index == 2 {
            panic!("{NASTY}");
        }
        // A non-finite metric renders as `null` in both files.
        run_job(job).with("undefined", f64::NAN)
    };
    let report = run_campaign_journaled(&c, &cfg, &mut journal, runner);
    drop(journal);
    let journal = std::fs::read_to_string(&path).unwrap();
    std::fs::remove_file(&path).unwrap();
    // The journal the writer wrote is the journal the reader accepts.
    assert_eq!((report.completed(), report.failed()), (3, 1));
    (report.to_jsonl(), journal)
}

fn observed() -> JobArtifacts {
    let job = Campaign::new("golden-obs", 14)
        .channels([2])
        .read_pcts([70])
        .requests([60])
        .expand()
        .remove(0);
    let SliceOutcome::Done(_, Some(artifacts)) = JobRun::start(&job, 100_000).advance(None) else {
        panic!("an observed run renders its artifacts");
    };
    artifacts
}

fn assert_lines_round_trip(what: &str, text: &str) {
    assert!(text.ends_with('\n'), "{what}");
    for line in text.lines() {
        let v = Value::parse(line).unwrap_or_else(|e| panic!("{what}: {e}: {line}"));
        assert_eq!(v.encode(), line, "{what}");
    }
}

#[test]
fn campaign_report_and_journal_match_the_previous_commit_byte_for_byte() {
    let (report, journal) = report_and_journal();
    assert!(report == include_str!("fixtures/pr13_report.jsonl"));
    assert!(journal == include_str!("fixtures/pr13_journal.jsonl"));
    assert_lines_round_trip("report", &report);
    assert_lines_round_trip("journal", &journal);
    assert!(report.contains("\\\"q\\\" back\\\\slash\\nline2 \\u0001 end"));
}

#[test]
fn stats_and_perfetto_match_the_previous_commit_byte_for_byte() {
    let art = observed();
    assert!(art.stats_json == include_str!("fixtures/pr13_stats.json"));
    assert!(art.perfetto_json == include_str!("fixtures/pr13_perfetto_2ch.json"));
    validate(&art.stats_json).expect("stats.json validates");
    validate(&art.perfetto_json).expect("trace validates");
    assert_lines_round_trip("epochs", &art.epochs_jsonl);
}
