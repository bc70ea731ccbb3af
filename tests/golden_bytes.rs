//! Every JSON byte the stack emits, pinned against files the commit
//! *before* the one-JSON refactor (PR 13, `99a1c0c`) wrote: a mixed
//! ok/failed campaign report whose names and panic message exercise the
//! escaper, that campaign's journal, and a two-channel observed job's
//! `stats.json` and Perfetto trace. Each compact single-line emitter must
//! also survive `parse` → `encode` unchanged under the one reader.
//!
//! The `pr34_*` files pin what a campaign's axes turn into, written by
//! the commit before the axis table (PR 34, `a89e410`): a campaign with
//! two or more values on every axis as the daemon's accept log holds it,
//! its spec hash (journal headers), the checkpoint fingerprints of its
//! first and last job, and its report table.

use dramctrl::{PagePolicy, SchedPolicy};
use dramctrl_campaign::{
    campaign_hash, run_campaign, run_campaign_journaled, Campaign, CampaignJournal, ExecutorConfig,
    JobMetrics, JobSpec, Model, TrafficPattern,
};
use dramctrl_kernel::json::{validate, Value};
use dramctrl_mem::AddrMapping;
use dramctrl_runner::{job_fingerprint, run_job, JobArtifacts, JobRun, SliceOutcome};
use dramctrl_serve::proto::campaign_to_wire;

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

/// Two or more values on every axis, all three traffic kinds, a faulty
/// error rate, a seed and a request count past 2^53, and a name that
/// needs escaping.
fn multi_axis_campaign() -> Campaign {
    Campaign::new("axes \"all\" \\ \t", u64::MAX - 34)
        .devices(["DDR3-1600-x64", "LPDDR3-1600-x32"])
        .models([Model::Event, Model::Cycle])
        .policies([PagePolicy::OpenAdaptive, PagePolicy::Closed])
        .scheds([SchedPolicy::Fcfs, SchedPolicy::FrFcfs])
        .mappings([AddrMapping::RoRaBaChCo, AddrMapping::RoCoRaBaCh])
        .channels([1, 16])
        .traffic([
            TrafficPattern::Linear {
                range: 1 << 28,
                block: 64,
            },
            TrafficPattern::Random {
                range: 1 << 20,
                block: 128,
            },
            TrafficPattern::DramAware {
                stride: 8,
                banks: 4,
            },
        ])
        .read_pcts([33, 100])
        .requests([1_000, u64::MAX])
        .error_rates([0.0, 2e11])
}

#[test]
fn a_multi_axis_campaign_keeps_its_wire_bytes_hashes_and_table() {
    let c = multi_axis_campaign();
    let wire = campaign_to_wire(&c).encode();
    assert!(wire + "\n" == include_str!("fixtures/pr34_campaign_wire.json"));
    let jobs = c.expand();
    assert_eq!(jobs.len(), 1_536);
    let hash = format!("{:#018x}\n", campaign_hash(&c));
    assert_eq!(hash, include_str!("fixtures/pr34_campaign_hash.txt"));
    let fingerprints = format!(
        "{:#018x}\n{:#018x}\n",
        job_fingerprint(&jobs[0]),
        job_fingerprint(&jobs[jobs.len() - 1]),
    );
    assert_eq!(
        fingerprints,
        include_str!("fixtures/pr34_job_fingerprints.txt")
    );
    // A fixed-metrics stub runner, one job failing: the table's axis
    // columns, outcome column and `-` cells.
    let cfg = ExecutorConfig::serial().with_max_attempts(1);
    let report = run_campaign(&c, &cfg, |job: &JobSpec| {
        assert!(job.index != 1_000, "stub failure");
        JobMetrics::new().with("bus_util", 0.5)
    });
    let table = report.table(&["bus_util", "absent"]).render();
    assert!(table == include_str!("fixtures/pr34_table.md"));
}
