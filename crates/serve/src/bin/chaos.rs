//! `chaos`: the crash-point explorer.
//!
//! Re-runs a deterministic durable workload with a process crash
//! injected at *every* durability operation in turn, then re-runs it
//! once more to recover, and asserts the recovery invariants at each
//! crash point:
//!
//! - the recovered journal (and report / accept log) is **byte-identical**
//!   to a never-crashed run's;
//! - everything acknowledged before the crash is still on disk after it
//!   (complete, parsable lines — committed-before-ack survives);
//! - recovery itself exits cleanly (torn tails truncated, header-less
//!   files recreated, nothing refused that a crash can legally leave).
//!
//! Two workloads are explored:
//!
//! - `campaign`: a journaled campaign run (`CampaignJournal` +
//!   `run_campaign_journaled` + an atomic report write) — the CLI sweep
//!   path;
//! - `store`: a serve-store session (`JobStore::accept`, per-job journal,
//!   unit commits with acks) — the daemon's durable path, minus sockets.
//!
//! The matrix is sized from [`fault::op_count`]: a fault-free reference
//! run reports how many durability ops the workload performs, and the
//! explorer crashes at op 1, 2, … N via `DRAMCTRL_FAULT_PLAN=crash,at=K`
//! in a re-exec of this same binary. Usage:
//!
//! ```text
//! chaos explore [--mode campaign|store|all] [--dir DIR] [--report FILE]
//! chaos campaign --dir DIR     (worker: one campaign session)
//! chaos store --dir DIR        (worker: one store session)
//! ```
//!
//! Exit code: 0 when every crash point recovers byte-identically, 1
//! otherwise. `--report` appends one JSON line per crash point.

use dramctrl_campaign::{merge_journals, Campaign, CampaignJournal, JobOutcome, JobRecord};
use dramctrl_kernel::fsio::{fault, write_atomic};
use dramctrl_runner::run_job;
use dramctrl_serve::JobStore;
use std::path::{Path, PathBuf};
use std::process::{Command, ExitCode};

/// The workload every mode runs: small enough that the crash matrix
/// stays cheap, wide enough (two units) that crash points fall between
/// commits, not just around one.
fn chaos_campaign() -> Campaign {
    Campaign::new("chaos", 7)
        .read_pcts([0, 100])
        .requests([200])
}

// ----- workers ---------------------------------------------------------

/// One campaign session in `dir`: create-or-recover the journal, commit
/// every uncommitted unit serially (ack each), render the report from
/// the journal and write it atomically. Idempotent: the recovery run is
/// the same invocation.
///
/// Commits are serial on purpose — the parallel executor's greedy batch
/// drain makes its *fsync count* timing-dependent, and the explorer
/// needs the same durability-op sequence every run. The bytes are
/// unaffected either way (one renderer, keep-first journal).
fn worker_campaign(dir: &Path) -> Result<(), String> {
    std::fs::create_dir_all(dir).map_err(|e| e.to_string())?;
    let c = chaos_campaign();
    let jpath = dir.join("journal.jsonl");
    let mut journal = CampaignJournal::recover(&jpath, &c).map_err(|e| e.to_string())?;
    for (i, unit) in c.expand().iter().enumerate() {
        if journal.completed().contains_key(&i) {
            continue;
        }
        let metrics = run_job(unit);
        journal
            .commit(&JobRecord {
                job: unit.clone(),
                outcome: JobOutcome::Completed {
                    metrics,
                    attempts: 1,
                },
            })
            .map_err(|e| e.to_string())?;
        println!("ack commit {i}");
    }
    let report = merge_journals(&c, &[&jpath]).map_err(|e| e.to_string())?;
    write_atomic(dir.join("report.jsonl"), report.to_jsonl().as_bytes())
        .map_err(|e| e.to_string())?;
    println!("ops={}", fault::op_count());
    Ok(())
}

/// One serve-store session in `dir`: repair + accept (ack), per-job
/// journal, one commit per unit (ack each). Idempotent the same way the
/// daemon's restart recovery is: accepted jobs are re-used, committed
/// units are skipped.
fn worker_store(dir: &Path) -> Result<(), String> {
    std::fs::create_dir_all(dir).map_err(|e| e.to_string())?;
    let c = chaos_campaign();
    let (mut store, accepted) = JobStore::open(dir).map_err(|e| e.to_string())?;
    store.repair().map_err(|e| e.to_string())?;
    let stored = match accepted.into_iter().next() {
        Some(s) => s,
        None => {
            let s = store.accept("chaos", 0, &c).map_err(|e| e.to_string())?;
            println!("ack accept {}", s.id);
            s
        }
    };
    let jdir = store.job_dir(&stored.id);
    std::fs::create_dir_all(&jdir).map_err(|e| e.to_string())?;
    let mut journal =
        CampaignJournal::recover(jdir.join("journal.jsonl"), &c).map_err(|e| e.to_string())?;
    for (i, unit) in c.expand().iter().enumerate() {
        if journal.completed().contains_key(&i) {
            continue;
        }
        let metrics = run_job(unit);
        journal
            .commit(&JobRecord {
                job: unit.clone(),
                outcome: JobOutcome::Completed {
                    metrics,
                    attempts: 1,
                },
            })
            .map_err(|e| e.to_string())?;
        println!("ack commit {i}");
    }
    println!("ops={}", fault::op_count());
    Ok(())
}

// ----- explorer --------------------------------------------------------

/// The files whose final bytes must match the reference, per mode.
fn artifact_files(mode: &str) -> Vec<&'static str> {
    match mode {
        "campaign" => vec!["journal.jsonl", "report.jsonl"],
        "store" => vec!["accept.jsonl", "job-0001/journal.jsonl"],
        _ => unreachable!(),
    }
}

struct RunOutput {
    status: Option<i32>,
    acks: Vec<String>,
    ops: Option<u64>,
    stderr: String,
}

/// Re-execs this binary as `chaos <mode> --dir <dir>`, with or without
/// a crash plan.
fn run_worker(mode: &str, dir: &Path, crash_at: Option<u64>) -> RunOutput {
    let exe = std::env::current_exe().expect("own executable path");
    let mut cmd = Command::new(exe);
    cmd.arg(mode).arg("--dir").arg(dir);
    match crash_at {
        Some(k) => {
            cmd.env("DRAMCTRL_FAULT_PLAN", format!("crash,at={k}"));
        }
        None => {
            cmd.env_remove("DRAMCTRL_FAULT_PLAN");
        }
    }
    let out = cmd.output().expect("spawning chaos worker");
    let stdout = String::from_utf8_lossy(&out.stdout);
    let mut acks = Vec::new();
    let mut ops = None;
    for line in stdout.lines() {
        if let Some(rest) = line.strip_prefix("ack ") {
            acks.push(rest.to_owned());
        } else if let Some(n) = line.strip_prefix("ops=") {
            ops = n.parse().ok();
        }
    }
    RunOutput {
        status: out.status.code(),
        acks,
        ops,
        stderr: String::from_utf8_lossy(&out.stderr).into_owned(),
    }
}

/// Counts complete (newline-terminated) non-header lines in a journal
/// or accept log — the durable-record count an ack must be covered by.
fn complete_lines(path: &Path) -> usize {
    let Ok(text) = std::fs::read_to_string(path) else {
        return 0;
    };
    text.split_inclusive('\n')
        .filter(|l| l.ends_with('\n'))
        .count()
}

/// Verifies every pre-crash ack against the crashed (un-recovered)
/// on-disk state. Acks: `accept <id>` needs a complete accept-log line;
/// `commit <i>` needs a complete journal record past the header.
fn acks_survived(mode: &str, dir: &Path, acks: &[String]) -> Result<(), String> {
    let accepts = acks.iter().filter(|a| a.starts_with("accept")).count();
    let commits = acks.iter().filter(|a| a.starts_with("commit")).count();
    if accepts > 0 && complete_lines(&dir.join("accept.jsonl")) < accepts {
        return Err(format!("{accepts} acked accepts not all on disk"));
    }
    let journal = match mode {
        "campaign" => dir.join("journal.jsonl"),
        _ => dir.join("job-0001/journal.jsonl"),
    };
    // Header line + one line per acked commit, at minimum.
    if commits > 0 && complete_lines(&journal) < commits + 1 {
        return Err(format!("{commits} acked commits not all on disk"));
    }
    Ok(())
}

struct CrashPointResult {
    mode: String,
    crash_at: u64,
    crash_exit: Option<i32>,
    acked: usize,
    failure: Option<String>,
}

impl CrashPointResult {
    fn jsonl(&self) -> String {
        format!(
            "{{\"mode\":\"{}\",\"crash_at\":{},\"crash_exit\":{},\"acked\":{},\
             \"ok\":{},\"failure\":{}}}",
            self.mode,
            self.crash_at,
            self.crash_exit.map_or("null".into(), |c| c.to_string()),
            self.acked,
            self.failure.is_none(),
            match &self.failure {
                None => "null".to_owned(),
                Some(f) => format!("{:?}", f),
            },
        )
    }
}

/// Explores every crash point of one mode. Returns per-point results.
fn explore_mode(mode: &str, base: &Path) -> Vec<CrashPointResult> {
    // Reference: a fault-free run, for the op count and the final bytes.
    let ref_dir = base.join(format!("{mode}-ref"));
    let reference = run_worker(mode, &ref_dir, None);
    assert_eq!(
        reference.status,
        Some(0),
        "reference {mode} run failed:\n{}",
        reference.stderr
    );
    let ops = reference.ops.expect("reference run reports ops=N");
    let want: Vec<(PathBuf, Vec<u8>)> = artifact_files(mode)
        .iter()
        .map(|f| {
            let p = ref_dir.join(f);
            let bytes = std::fs::read(&p)
                .unwrap_or_else(|e| panic!("reference artifact {}: {e}", p.display()));
            (PathBuf::from(f), bytes)
        })
        .collect();
    println!("mode={mode}: {ops} durability ops; exploring every crash point");

    let mut results = Vec::new();
    for k in 1..=ops {
        let dir = base.join(format!("{mode}-{k}"));
        let crashed = run_worker(mode, &dir, Some(k));
        let mut failure = None;
        if crashed.status != Some(fault::CRASH_EXIT_CODE) {
            failure = Some(format!(
                "expected crash exit {} at op {k}, got {:?}:\n{}",
                fault::CRASH_EXIT_CODE,
                crashed.status,
                crashed.stderr
            ));
        }
        if failure.is_none() {
            failure = acks_survived(mode, &dir, &crashed.acks).err();
        }
        if failure.is_none() {
            let recovery = run_worker(mode, &dir, None);
            if recovery.status != Some(0) {
                failure = Some(format!(
                    "recovery after crash at op {k} failed ({:?}):\n{}",
                    recovery.status, recovery.stderr
                ));
            }
        }
        if failure.is_none() {
            for (file, want_bytes) in &want {
                let got = std::fs::read(dir.join(file)).unwrap_or_default();
                if &got != want_bytes {
                    failure = Some(format!(
                        "{} differs from the never-crashed run after crash at op {k}",
                        file.display()
                    ));
                    break;
                }
            }
        }
        if let Some(f) = &failure {
            eprintln!("FAIL mode={mode} crash_at={k}: {f}");
        }
        results.push(CrashPointResult {
            mode: mode.to_owned(),
            crash_at: k,
            crash_exit: crashed.status,
            acked: crashed.acks.len(),
            failure,
        });
    }
    results
}

fn usage() -> ! {
    eprintln!(
        "usage: chaos explore [--mode campaign|store|all] [--dir DIR] [--report FILE]\n\
         \x20      chaos campaign --dir DIR\n\
         \x20      chaos store --dir DIR"
    );
    std::process::exit(2)
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let cmd = args.first().map(String::as_str).unwrap_or("");
    let flag = |name: &str| {
        args.iter()
            .position(|a| a == name)
            .and_then(|i| args.get(i + 1))
            .cloned()
    };
    match cmd {
        "campaign" | "store" => {
            let dir = PathBuf::from(flag("--dir").unwrap_or_else(|| usage()));
            let run = if cmd == "campaign" {
                worker_campaign(&dir)
            } else {
                worker_store(&dir)
            };
            match run {
                Ok(()) => ExitCode::SUCCESS,
                Err(e) => {
                    eprintln!("chaos {cmd} worker: {e}");
                    ExitCode::FAILURE
                }
            }
        }
        "explore" => {
            let mode = flag("--mode").unwrap_or_else(|| "all".to_owned());
            let base = flag("--dir").map_or_else(
                || std::env::temp_dir().join(format!("dramctrl-chaos-{}", std::process::id())),
                PathBuf::from,
            );
            let _ = std::fs::remove_dir_all(&base);
            let modes: Vec<&str> = match mode.as_str() {
                "all" => vec!["campaign", "store"],
                "campaign" => vec!["campaign"],
                "store" => vec!["store"],
                _ => usage(),
            };
            let mut all = Vec::new();
            for m in &modes {
                all.extend(explore_mode(m, &base));
            }
            if let Some(report) = flag("--report") {
                let lines: String = all.iter().map(|r| r.jsonl() + "\n").collect();
                if let Err(e) = std::fs::write(&report, lines) {
                    eprintln!("writing report {report}: {e}");
                    return ExitCode::FAILURE;
                }
            }
            let failed = all.iter().filter(|r| r.failure.is_some()).count();
            println!(
                "explored {} crash points across {} mode(s): {} failed",
                all.len(),
                modes.len(),
                failed
            );
            let _ = std::fs::remove_dir_all(&base);
            if failed == 0 {
                ExitCode::SUCCESS
            } else {
                ExitCode::FAILURE
            }
        }
        _ => usage(),
    }
}
