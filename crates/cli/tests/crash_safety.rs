//! Crash-safety end-to-end tests: checkpoint/restore across *processes*
//! and kill-and-resume of journaled sweeps, gating the byte-identical
//! guarantees the crash-safety layer promises.

use std::path::{Path, PathBuf};
use std::process::Command;

fn dramctrl() -> Command {
    Command::new(env!("CARGO_BIN_EXE_dramctrl"))
}

fn tmp_dir(name: &str) -> PathBuf {
    let d = std::env::temp_dir().join(format!("dramctrl-crash-{}-{name}", std::process::id()));
    let _ = std::fs::remove_dir_all(&d);
    std::fs::create_dir_all(&d).unwrap();
    d
}

fn ok(out: &std::process::Output) -> &std::process::Output {
    assert!(
        out.status.success(),
        "command failed ({:?}):\n{}",
        out.status.code(),
        String::from_utf8_lossy(&out.stderr)
    );
    out
}

/// One event's grouping key inside a Perfetto trace file: our tracer
/// serialises each (track, phase, name) group in emission order, so
/// restore equivalence means every group of the resumed trace is a
/// *suffix* of the same group in the uninterrupted trace.
fn group_key(line: &str) -> String {
    let field = |key: &str| {
        let pat = format!("\"{key}\":");
        line.find(&pat)
            .map(|i| {
                let rest = &line[i + pat.len()..];
                let end = rest.find([',', '}']).unwrap_or(rest.len());
                &rest[..end]
            })
            .unwrap_or("")
            .to_owned()
    };
    format!(
        "{}|{}|{}|{}",
        field("name"),
        field("cat"),
        field("ph"),
        field("tid")
    )
}

/// Event lines of a trace file (trailing commas stripped), grouped.
fn trace_groups(path: &Path) -> std::collections::BTreeMap<String, Vec<String>> {
    let text = std::fs::read_to_string(path).unwrap();
    let mut groups = std::collections::BTreeMap::<String, Vec<String>>::new();
    for line in text.lines().filter(|l| l.starts_with("{\"name\"")) {
        let line = line.strip_suffix(',').unwrap_or(line);
        groups
            .entry(group_key(line))
            .or_default()
            .push(line.to_owned());
    }
    groups
}

const RUN_ARGS: &[&str] = &[
    "run",
    "--device",
    "ddr3-1333-x64",
    "--gen",
    "random",
    "--reads",
    "70",
    "--requests",
    "4000",
    "--ras",
    "2e11",
    "--ecc",
    "secded",
];

#[test]
fn restore_in_fresh_process_is_byte_identical() {
    let dir = tmp_dir("restore");
    let p = |n: &str| dir.join(n).to_str().unwrap().to_owned();

    // Uninterrupted reference run.
    let full = ok(&dramctrl()
        .args(RUN_ARGS)
        .args([
            "--stats-json",
            &p("full.json"),
            "--perfetto",
            &p("full.trace"),
        ])
        .output()
        .unwrap())
    .stdout
    .clone();

    // Same simulation, paused at 2000 injected requests...
    let out = ok(&dramctrl()
        .args(RUN_ARGS)
        .args(["--checkpoint", &p("ck.snap"), "--checkpoint-at", "2000"])
        .output()
        .unwrap())
    .clone();
    assert!(
        String::from_utf8_lossy(&out.stderr).contains("checkpoint written"),
        "pause should announce the snapshot"
    );

    // ...then restored in a fresh process and run to completion.
    let resumed = ok(&dramctrl()
        .args(RUN_ARGS)
        .args([
            "--restore",
            &p("ck.snap"),
            "--stats-json",
            &p("resumed.json"),
            "--perfetto",
            &p("resumed.trace"),
        ])
        .output()
        .unwrap())
    .stdout
    .clone();

    // The summary (bandwidth, latency percentiles, RAS fault log counts)
    // and the machine-readable statistics report are byte-identical.
    assert_eq!(
        String::from_utf8(full).unwrap(),
        String::from_utf8(resumed).unwrap(),
        "stdout summary diverged after restore"
    );
    assert_eq!(
        std::fs::read(p("full.json")).unwrap(),
        std::fs::read(p("resumed.json")).unwrap(),
        "statistics report diverged after restore"
    );

    // Every group of the resumed Perfetto trace is byte-identical to the
    // tail of the uninterrupted trace's group: the restored run emits
    // exactly the suffix of the command/request/fault event stream.
    let full_groups = trace_groups(&dir.join("full.trace"));
    let resumed_groups = trace_groups(&dir.join("resumed.trace"));
    assert!(!resumed_groups.is_empty());
    for (key, events) in &resumed_groups {
        let reference = full_groups
            .get(key)
            .unwrap_or_else(|| panic!("group {key:?} missing from the full trace"));
        assert!(
            reference.len() >= events.len(),
            "group {key:?} grew after restore"
        );
        assert_eq!(
            &reference[reference.len() - events.len()..],
            &events[..],
            "group {key:?} is not a suffix of the uninterrupted trace"
        );
    }
}

#[test]
fn cycle_model_restore_matches_too() {
    let dir = tmp_dir("cycle");
    let p = |n: &str| dir.join(n).to_str().unwrap().to_owned();
    let args = [
        "run",
        "--model",
        "cycle",
        "--gen",
        "linear",
        "--requests",
        "2000",
    ];
    let full = ok(&dramctrl().args(args).output().unwrap()).stdout.clone();
    ok(&dramctrl()
        .args(args)
        .args(["--checkpoint", &p("ck.snap"), "--checkpoint-at", "900"])
        .output()
        .unwrap());
    let resumed = ok(&dramctrl()
        .args(args)
        .args(["--restore", &p("ck.snap")])
        .output()
        .unwrap())
    .stdout
    .clone();
    assert_eq!(full, resumed, "cycle-model stdout diverged after restore");
}

#[test]
fn restore_against_different_config_exits_2() {
    let dir = tmp_dir("mismatch");
    let snap = dir.join("ck.snap");
    let snap = snap.to_str().unwrap();
    ok(&dramctrl()
        .args(RUN_ARGS)
        .args(["--checkpoint", snap, "--checkpoint-at", "1000"])
        .output()
        .unwrap());

    // Same snapshot, different device / policy / fault rate: refused
    // loudly with the usage-error exit code, never a hybrid simulation.
    for wrong in [
        vec![
            "run",
            "--device",
            "ddr3-1600-x64",
            "--gen",
            "random",
            "--reads",
            "70",
            "--requests",
            "4000",
            "--ras",
            "2e11",
            "--ecc",
            "secded",
            "--restore",
            snap,
        ],
        vec![
            "run",
            "--device",
            "ddr3-1333-x64",
            "--gen",
            "random",
            "--reads",
            "70",
            "--requests",
            "4000",
            "--restore",
            snap,
        ],
        vec![
            "run",
            "--device",
            "ddr3-1333-x64",
            "--gen",
            "linear",
            "--reads",
            "70",
            "--requests",
            "4000",
            "--ras",
            "2e11",
            "--ecc",
            "secded",
            "--restore",
            snap,
        ],
    ] {
        let out = dramctrl().args(&wrong).output().unwrap();
        let err = String::from_utf8(out.stderr).unwrap();
        assert_eq!(out.status.code(), Some(2), "{wrong:?} should exit 2: {err}");
        assert!(err.contains("cannot restore"), "unhelpful message: {err}");
        assert!(!err.contains("panicked"), "{wrong:?} panicked: {err}");
    }

    // The matching command line still restores fine afterwards.
    ok(&dramctrl()
        .args(RUN_ARGS)
        .args(["--restore", snap])
        .output()
        .unwrap());
}

const SWEEP_ARGS: &[&str] = &[
    "sweep",
    "--models",
    "event,cycle",
    "--reads",
    "0,100",
    "--ras",
    "0,2e11",
    "--requests",
    "1500",
    "--quiet",
];

/// A fault plan that crashes a sweep just before it writes journal
/// record `n` (1-based): the header is the journal's first write.
fn crash_before_record(n: u32) -> String {
    format!("crash,op=write,path=journal.jsonl,at={}", n + 1)
}

#[test]
fn killed_sweep_resumes_byte_identical_at_different_worker_count() {
    let dir = tmp_dir("kill");
    let p = |n: &str| dir.join(n).to_str().unwrap().to_owned();

    // Uninterrupted reference sweep (8 jobs).
    ok(&dramctrl()
        .args(SWEEP_ARGS)
        .args(["--jsonl", &p("base.jsonl"), "--md", &p("base.md")])
        .output()
        .unwrap());

    // Journaled sweep killed right before the 4th record's write (the
    // header is the journal's first write): the fault plan exits the
    // process with code 86 inside the executor, so everything after
    // those three journal lines is lost.
    let out = dramctrl()
        .args(SWEEP_ARGS)
        .args(["--journal", &p("journal.jsonl"), "--workers", "2"])
        .env("DRAMCTRL_FAULT_PLAN", crash_before_record(4))
        .output()
        .unwrap();
    assert_eq!(
        out.status.code(),
        Some(86),
        "injected crash did not fire: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    let journal = std::fs::read_to_string(p("journal.jsonl")).unwrap();
    assert_eq!(journal.lines().count(), 1 + 3, "header + 3 committed jobs");

    // Resume at a different worker count: skips the journaled jobs, runs
    // the rest, and the merged reports are byte-identical to the
    // uninterrupted sweep's.
    let out = ok(&dramctrl()
        .args(SWEEP_ARGS)
        .args([
            "--resume",
            &p("journal.jsonl"),
            "--workers",
            "1",
            "--jsonl",
            &p("resumed.jsonl"),
            "--md",
            &p("resumed.md"),
        ])
        .output()
        .unwrap())
    .clone();
    assert!(
        String::from_utf8_lossy(&out.stderr).contains("resuming: 3 of 8 jobs"),
        "resume should report the skip count: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    assert_eq!(
        std::fs::read(p("base.jsonl")).unwrap(),
        std::fs::read(p("resumed.jsonl")).unwrap(),
        "JSONL report diverged after kill + resume"
    );
    assert_eq!(
        std::fs::read(p("base.md")).unwrap(),
        std::fs::read(p("resumed.md")).unwrap(),
        "markdown report diverged after kill + resume"
    );
    // The journal now holds each of the 8 jobs exactly once.
    let journal = std::fs::read_to_string(p("journal.jsonl")).unwrap();
    assert_eq!(journal.lines().count(), 1 + 8);

    // Resuming an already-finished sweep is a no-op with the same output.
    ok(&dramctrl()
        .args(SWEEP_ARGS)
        .args([
            "--resume",
            &p("journal.jsonl"),
            "--jsonl",
            &p("again.jsonl"),
        ])
        .output()
        .unwrap());
    assert_eq!(
        std::fs::read(p("base.jsonl")).unwrap(),
        std::fs::read(p("again.jsonl")).unwrap()
    );
}

#[test]
fn sweep_directory_journal_and_checkpoint_every() {
    let dir = tmp_dir("ckevery");
    let jdir = dir.join("camp");
    let jdir_arg = format!("{}/", jdir.display());

    // --journal DIR/ resolves to DIR/journal.jsonl; --checkpoint-every
    // snapshots each job beside it and cleans up after success.
    ok(&dramctrl()
        .args([
            "sweep",
            "--models",
            "event",
            "--reads",
            "0,100",
            "--requests",
            "1200",
            "--quiet",
            "--journal",
            &jdir_arg,
            "--checkpoint-every",
            "400",
        ])
        .output()
        .unwrap());
    assert!(jdir.join("journal.jsonl").exists());
    let leftovers: Vec<_> = std::fs::read_dir(&jdir)
        .unwrap()
        .filter_map(|e| e.ok())
        .filter(|e| e.file_name().to_string_lossy().starts_with("ckpt-job-"))
        .collect();
    assert!(leftovers.is_empty(), "snapshots left behind: {leftovers:?}");
}

#[test]
fn resume_with_wrong_campaign_exits_2() {
    let dir = tmp_dir("wrongspec");
    let journal = dir.join("journal.jsonl");
    let journal = journal.to_str().unwrap();
    let out = dramctrl()
        .args(SWEEP_ARGS)
        .args(["--journal", journal])
        .env("DRAMCTRL_FAULT_PLAN", crash_before_record(3))
        .output()
        .unwrap();
    assert_eq!(out.status.code(), Some(86));

    // A different campaign spec (extra read point) must be refused: the
    // journal's records would not line up with the new expansion.
    let out = dramctrl()
        .args([
            "sweep",
            "--models",
            "event,cycle",
            "--reads",
            "0,50,100",
            "--ras",
            "0,2e11",
            "--requests",
            "1500",
            "--quiet",
            "--resume",
            journal,
        ])
        .output()
        .unwrap();
    let err = String::from_utf8(out.stderr).unwrap();
    assert_eq!(
        out.status.code(),
        Some(2),
        "wrong spec should exit 2: {err}"
    );
    assert!(
        err.contains("resuming") || err.contains("journal"),
        "unhelpful message: {err}"
    );
    assert!(!err.contains("panicked"), "panicked: {err}");
}
