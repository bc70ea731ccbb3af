//! Every byte `run`, `record` and `replay` produce, pinned against files
//! written by the binary of the commit *before* those commands became
//! callers of `dramctrl-runner` (PR 19, `c58e0a3`): stdout,
//! `--stats-json`, `--epochs-out` (CSV and JSON lines), `--perfetto`, a
//! recorded trace and two `--checkpoint` snapshots.
//!
//! The fixtures are only ever regenerated with *that* binary:
//! `DRAMCTRL_BLESS_BIN=/path/to/c58e0a3/dramctrl cargo test -p
//! dramctrl-cli --test run_fixtures` rewrites them instead of comparing.

use dramctrl_kernel::snap::fingerprint;
use std::path::{Path, PathBuf};
use std::process::Command;

/// The binary under test, or the parent commit's when blessing.
fn dramctrl() -> Command {
    match bless_bin() {
        Some(bin) => Command::new(bin),
        None => Command::new(env!("CARGO_BIN_EXE_dramctrl")),
    }
}

fn bless_bin() -> Option<String> {
    std::env::var("DRAMCTRL_BLESS_BIN").ok()
}

fn fixture(name: &str) -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("tests/fixtures")
        .join(name)
}

fn tmp_dir(name: &str) -> PathBuf {
    let d = std::env::temp_dir().join(format!("dramctrl-fixt-{}-{name}", std::process::id()));
    let _ = std::fs::remove_dir_all(&d);
    std::fs::create_dir_all(&d).unwrap();
    d
}

/// Compares `actual` with the fixture `name` (or, blessing, writes it).
fn check(name: &str, actual: &[u8]) {
    let path = fixture(name);
    if bless_bin().is_some() {
        std::fs::write(&path, actual).unwrap();
        return;
    }
    let expected = std::fs::read(&path).unwrap_or_else(|e| panic!("{}: {e}", path.display()));
    if expected != actual {
        let got = std::env::temp_dir().join(format!("{name}.actual"));
        std::fs::write(&got, actual).unwrap();
        panic!("{name} moved; this build's bytes are in {}", got.display());
    }
}

/// Runs `dramctrl ARGS` in `dir` and returns its stdout.
fn stdout_of(dir: &Path, args: &[&str]) -> String {
    let out = dramctrl().current_dir(dir).args(args).output().unwrap();
    assert!(
        out.status.success(),
        "{args:?} failed ({:?}):\n{}",
        out.status.code(),
        String::from_utf8_lossy(&out.stderr)
    );
    String::from_utf8(out.stdout).unwrap()
}

/// One command's whole observable output as one text: stdout, then the
/// statistics report and both epoch renderings, then the Perfetto trace
/// by length and fingerprint (`whole_trace` pins its bytes in a sibling
/// fixture as well). `new_stats` are statistics lines the previous commit
/// did not write: they must be there, and are left out of the comparison.
fn pin(name: &str, dir: &Path, args: &[&str], whole_trace: bool, new_stats: &[&str]) {
    let all = [
        args,
        &["--epochs", "1us", "--epochs-out", "e.csv"],
        &["--stats-json", "s.json", "--perfetto", "p.json"],
    ]
    .concat();
    let stdout = stdout_of(dir, &all);
    // The JSON-lines rendering needs its own run; a run observed through
    // one flag prints what a run observed through all of them does.
    let jsonl_only = [args, &["--epochs-out", "e.jsonl"]].concat();
    assert_eq!(stdout_of(dir, &jsonl_only), stdout, "{name}");
    // ... and so does a run that is not observed at all.
    assert_eq!(stdout_of(dir, args), stdout, "{name}");

    let read = |f: &str| std::fs::read_to_string(dir.join(f)).unwrap();
    let trace = read("p.json");
    let mut stats = read("s.json");
    if bless_bin().is_none() {
        for line in new_stats {
            assert!(stats.contains(line), "{name}: no {line} in\n{stats}");
            stats = stats.replace(line, "");
        }
    }
    let text = format!(
        "$ dramctrl {}\n{stdout}--- stats.json\n{}\n--- epochs.csv\n{}--- epochs.jsonl\n{}\
         --- perfetto\n{} bytes, fnv1a {:#018x}\n",
        args.join(" "),
        stats,
        read("e.csv"),
        read("e.jsonl"),
        trace.len(),
        fingerprint(trace.as_bytes()),
    );
    check(&format!("{name}.txt"), text.as_bytes());
    if whole_trace {
        check(&format!("{name}.trace.json"), trace.as_bytes());
    }
}

#[test]
fn event_run_matrix_matches_the_previous_commit_byte_for_byte() {
    let dir = tmp_dir("matrix");
    for gen in ["linear", "random", "dram-aware"] {
        for policy in ["open", "closed-adaptive"] {
            for ras in [false, true] {
                for powerdown in [false, true] {
                    let mut args = vec!["run", "--gen", gen, "--policy", policy];
                    args.extend(["--reads", "70", "--requests", "100"]);
                    let mut name = format!("pr19_run_{gen}_{policy}");
                    if ras {
                        args.extend(["--ras", "2e11", "--ecc", "chipkill"]);
                        name.push_str("_ras");
                    }
                    if powerdown {
                        args.extend(["--powerdown", "1us", "--period", "200ns", "--energy"]);
                        name.push_str("_pd");
                    }
                    let whole = name == "pr19_run_random_closed-adaptive_ras_pd";
                    pin(&name, &dir, &args, whole, &[]);
                }
            }
        }
    }
}

#[test]
fn cycle_run_matches_the_previous_commit_byte_for_byte() {
    // Reads only: the baseline now snoops its write queue, as every other
    // path builds it (CHANGELOG.md). With writes in the mix that may move
    // numbers; without, it adds its two (zero) counters to the report.
    let args = "run --model cycle --reads 100 --requests 100";
    let args: Vec<&str> = args.split(' ').collect();
    let snooping = [
        "{\"name\":\"merged_writes\",\"type\":\"counter\",\"value\":0},\n",
        "{\"name\":\"forwarded_reads\",\"type\":\"counter\",\"value\":0},\n",
    ];
    pin("pr19_run_cycle", &tmp_dir("cycle"), &args, true, &snooping);
}

#[test]
fn record_and_replay_match_the_previous_commit_byte_for_byte() {
    let dir = tmp_dir("replay");
    let record = "record --gen random --reads 60 --requests 100 -o t.trace";
    let stdout = stdout_of(&dir, &record.split(' ').collect::<Vec<_>>());
    assert_eq!(stdout, "wrote 100 requests to t.trace\n");
    check(
        "pr19_record.trace",
        &std::fs::read(dir.join("t.trace")).unwrap(),
    );

    let replay = "replay t.trace --device lpddr3 --policy closed --ras 2e11";
    let replay: Vec<&str> = replay.split(' ').collect();
    pin("pr19_replay", &dir, &replay, false, &[]);
}

const SNAP_ARGS: &[&str] = &[
    "--gen",
    "random",
    "--reads",
    "70",
    "--requests",
    "300",
    "--ras",
    "2e11",
];

/// Blessing, pauses `run ARGS` at 100 injections into the fixture
/// `name`; otherwise copies the fixture into `dir`. Returns the snapshot
/// to restore.
fn parent_snapshot(name: &str, dir: &Path, args: &[&str]) -> String {
    let snap = dir.join(name);
    let snap_s = snap.to_str().unwrap().to_owned();
    if bless_bin().is_some() {
        let pause = [args, &["--checkpoint", &snap_s, "--checkpoint-at", "100"]].concat();
        stdout_of(dir, &pause);
        std::fs::copy(&snap, fixture(name)).unwrap();
    } else {
        std::fs::copy(fixture(name), &snap).unwrap();
    }
    snap_s
}

#[test]
fn an_event_snapshot_written_by_the_previous_commit_restores_and_finishes_identically() {
    let dir = tmp_dir("snap-event");
    let args = [&["run"], SNAP_ARGS].concat();
    let snap = parent_snapshot("pr19_run_event.snap", &dir, &args);
    let resumed = stdout_of(&dir, &[&args[..], &["--restore", &snap]].concat());
    assert_eq!(resumed, stdout_of(&dir, &args));
    check("pr19_run_event_resumed.txt", resumed.as_bytes());
}

#[test]
fn a_cycle_snapshot_written_by_the_previous_commit_is_refused_by_fingerprint() {
    let dir = tmp_dir("snap-cycle");
    let args = [&["run", "--model", "cycle"], SNAP_ARGS].concat();
    let snap = parent_snapshot("pr19_run_cycle.snap", &dir, &args);
    if bless_bin().is_some() {
        return;
    }
    // The parent built `run --model cycle` without write snooping; this
    // build's baseline snoops, so the snapshot belongs to a different
    // simulation and the fingerprint says so.
    let out = dramctrl()
        .args(&args)
        .args(["--restore", &snap])
        .output()
        .unwrap();
    let err = String::from_utf8(out.stderr).unwrap();
    assert_eq!(out.status.code(), Some(2), "{err}");
    assert!(
        err.contains("cannot restore") && err.contains("different configuration"),
        "{err}"
    );
    assert!(out.stdout.is_empty(), "a refused restore simulates nothing");
}
