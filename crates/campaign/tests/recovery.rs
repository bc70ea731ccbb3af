//! Journal recovery under damage, and shard merging:
//!
//! - a torn tail (the partial line a crash mid-append leaves) is dropped
//!   and truncated at *every* possible cut point, and the resumed run is
//!   byte-identical to an uninterrupted one;
//! - duplicate records keep the first committed copy;
//! - trailing garbage that *looks* like a durable line (newline present)
//!   is a loud error, never silently skipped;
//! - shard journals merge into the unsharded report byte for byte, and a
//!   missing shard is a loud `Incomplete` error.

use dramctrl_campaign::{
    merge_journals, run_campaign, run_campaign_journaled, run_campaign_shard, Campaign,
    CampaignJournal, ExecutorConfig, JobMetrics, JobSpec, JournalError,
};
use std::path::PathBuf;

fn tmp(name: &str) -> PathBuf {
    let d = std::env::temp_dir().join(format!("dramctrl-recovery-{}", std::process::id()));
    std::fs::create_dir_all(&d).unwrap();
    d.join(name)
}

fn campaign() -> Campaign {
    Campaign::new("recovery-test", 1234)
        .read_pcts([0, 30, 60, 100])
        .requests([100, 300])
}

fn toy_runner(job: &JobSpec) -> JobMetrics {
    let mut acc = job.seed;
    for _ in 0..500 {
        acc = acc.wrapping_mul(6_364_136_223_846_793_005).wrapping_add(1);
    }
    JobMetrics::new()
        .with("acc_low", (acc & 0xFFFF) as f64)
        .with("index", job.index as f64)
}

/// A full journaled run's journal text and report JSONL.
fn full_run(name: &str) -> (PathBuf, String, String) {
    let c = campaign();
    let p = tmp(name);
    let _ = std::fs::remove_file(&p);
    let mut j = CampaignJournal::create(&p, &c).unwrap();
    let report = run_campaign_journaled(&c, &ExecutorConfig::serial(), &mut j, toy_runner);
    drop(j);
    let text = std::fs::read_to_string(&p).unwrap();
    (p, text, report.to_jsonl())
}

#[test]
fn truncation_at_every_byte_of_the_last_record_resumes_cleanly() {
    let c = campaign();
    let (p, text, want) = full_run("torn.jsonl");
    // Cut anywhere strictly inside the last line (from just after the
    // previous newline to just before the final newline): each cut is a
    // crash mid-append of the final record.
    let last_start = text[..text.len() - 1].rfind('\n').unwrap() + 1;
    for cut in last_start..text.len() - 1 {
        std::fs::write(&p, &text.as_bytes()[..cut]).unwrap();
        let mut j = CampaignJournal::resume(&p, &c).unwrap();
        assert_eq!(
            j.committed(),
            c.len() - 1,
            "cut at byte {cut}: exactly the torn record is lost"
        );
        assert!(cut == last_start || j.dropped_torn_tail(), "cut at {cut}");
        // The file was truncated back to the last durable line.
        assert_eq!(std::fs::read_to_string(&p).unwrap(), text[..last_start]);
        let report = run_campaign_journaled(&c, &ExecutorConfig::serial(), &mut j, toy_runner);
        assert_eq!(report.to_jsonl(), want, "cut at byte {cut}");
        // Restore the intact journal for the next cut.
        std::fs::write(&p, &text).unwrap();
    }
}

#[test]
fn duplicate_records_keep_the_first_copy() {
    let c = campaign();
    let (p, text, want) = full_run("dup.jsonl");
    // Append a forged duplicate of the first record (attempts doctored):
    // keep-first must make the original canonical.
    let first_record = text.lines().nth(1).unwrap();
    let forged = first_record.replace("\"attempts\":1", "\"attempts\":9");
    assert_ne!(first_record, forged, "doctoring must change the line");
    std::fs::write(&p, format!("{text}{forged}\n")).unwrap();

    let lines = CampaignJournal::replay(&p, &c).unwrap();
    assert_eq!(lines.len(), c.len());
    assert_eq!(lines.get(0), Some(first_record), "first copy wins");

    let mut j = CampaignJournal::resume(&p, &c).unwrap();
    let report = run_campaign_journaled(&c, &ExecutorConfig::serial(), &mut j, toy_runner);
    assert_eq!(report.to_jsonl(), want);
}

#[test]
fn trailing_garbage_without_newline_is_dropped_with_newline_is_loud() {
    let c = campaign();
    let (p, text, want) = full_run("garbage.jsonl");

    // No newline: indistinguishable from a torn append — dropped.
    std::fs::write(&p, format!("{text}{{\"job\":gar")).unwrap();
    let mut j = CampaignJournal::resume(&p, &c).unwrap();
    assert!(j.dropped_torn_tail());
    assert_eq!(j.committed(), c.len());
    let report = run_campaign_journaled(&c, &ExecutorConfig::serial(), &mut j, toy_runner);
    assert_eq!(report.to_jsonl(), want);

    // With a newline the line claims to be durable and complete; garbage
    // there means corruption, and silence would hide lost results.
    std::fs::write(&p, format!("{text}this is not a record\n")).unwrap();
    let err = CampaignJournal::resume(&p, &c).unwrap_err();
    assert!(
        matches!(err, JournalError::Corrupt { .. }),
        "expected Corrupt, got {err}"
    );

    // Same contract for the read-only replay path.
    assert!(CampaignJournal::replay(&p, &c).is_err());
}

#[test]
fn replay_never_truncates_a_live_journal() {
    let c = campaign();
    let (p, text, _) = full_run("live.jsonl");
    let torn = format!("{text}{{\"torn");
    std::fs::write(&p, &torn).unwrap();
    let outcomes = CampaignJournal::replay(&p, &c).unwrap();
    assert_eq!(outcomes.len(), c.len());
    assert_eq!(
        std::fs::read_to_string(&p).unwrap(),
        torn,
        "replay is read-only: another process may still be appending"
    );
}

#[test]
fn shard_journals_merge_into_the_unsharded_report() {
    let c = campaign();
    let want = run_campaign(&c, &ExecutorConfig::serial(), toy_runner).to_jsonl();
    let shards = 3u32;
    let paths: Vec<PathBuf> = (0..shards)
        .map(|i| {
            let p = tmp(&format!("shard-{i}.jsonl"));
            let _ = std::fs::remove_file(&p);
            let mut j = CampaignJournal::create(&p, &c).unwrap();
            let partial = run_campaign_shard(
                &c,
                &ExecutorConfig::serial(),
                &mut j,
                (i, shards),
                toy_runner,
            );
            // A shard's own report covers exactly its residue class.
            let mine = (0..c.len()).filter(|k| k % shards as usize == i as usize);
            assert_eq!(partial.records().len(), mine.count());
            p
        })
        .collect();

    let merged = merge_journals(&c, &paths).unwrap();
    assert_eq!(
        merged.to_jsonl(),
        want,
        "merge == unsharded run, byte for byte"
    );
    assert_eq!(merged.workers, 0, "a merge is not a run");

    // Overlapping journals (a full journal plus a shard's) dedup
    // keep-first instead of double-counting.
    let full = tmp("shard-full.jsonl");
    let _ = std::fs::remove_file(&full);
    let mut j = CampaignJournal::create(&full, &c).unwrap();
    run_campaign_journaled(&c, &ExecutorConfig::serial(), &mut j, toy_runner);
    drop(j);
    let mut overlapping = paths.clone();
    overlapping.push(full);
    assert_eq!(merge_journals(&c, &overlapping).unwrap().to_jsonl(), want);
}

#[test]
fn merging_with_a_missing_shard_is_incomplete() {
    let c = campaign();
    let a = tmp("missing-0.jsonl");
    let _ = std::fs::remove_file(&a);
    let mut j = CampaignJournal::create(&a, &c).unwrap();
    run_campaign_shard(&c, &ExecutorConfig::serial(), &mut j, (0, 2), toy_runner);
    drop(j);

    let err = merge_journals(&c, &[&a]).unwrap_err();
    match err {
        JournalError::Incomplete {
            missing,
            first_missing,
            total,
        } => {
            assert_eq!(missing, c.len() / 2);
            assert_eq!(first_missing, 1, "index 1 belongs to the absent shard");
            assert_eq!(total, c.len());
        }
        other => panic!("expected Incomplete, got {other}"),
    }
}
