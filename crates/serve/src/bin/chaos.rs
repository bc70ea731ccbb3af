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
//! Three workloads are explored:
//!
//! - `campaign`: a journaled campaign run (`CampaignJournal` +
//!   `run_campaign_journaled` + an atomic report write) — the CLI sweep
//!   path;
//! - `store`: a serve-store session (`JobStore::accept`, per-job journal,
//!   unit commits with acks) — the daemon's durable path, minus sockets;
//! - `pool`: the daemon itself with two workers and two tenants' jobs in
//!   flight at once. Which job's op a crash point lands on varies from
//!   run to run; the invariants do not, and on top of them the restarted
//!   daemon must run exactly the units that had not committed — a crash
//!   costs a job the one unit it had in flight, never a committed one.
//!
//! The matrix is sized from [`fault::op_count`]: a fault-free reference
//! run reports how many durability ops the workload performs, and the
//! explorer crashes at op 1, 2, … N via `DRAMCTRL_FAULT_PLAN=crash,at=K`
//! in a re-exec of this same binary. Usage:
//!
//! ```text
//! chaos explore [--mode campaign|store|pool|all] [--dir DIR] [--report FILE]
//! chaos campaign --dir DIR     (worker: one campaign session)
//! chaos store --dir DIR        (worker: one store session)
//! chaos pool --dir DIR         (worker: one two-worker daemon session)
//! ```
//!
//! Exit code: 0 when every crash point recovers byte-identically, 1
//! otherwise. `--report` appends one JSON line per crash point.

use dramctrl_campaign::{merge_journals, Campaign, CampaignJournal, JobOutcome, JobRecord};
use dramctrl_kernel::fsio::{fault, write_atomic};
use dramctrl_runner::run_job;
use dramctrl_serve::wire::Value;
use dramctrl_serve::{Client, JobStore, Listener, ServeConfig, Server};
use std::path::{Path, PathBuf};
use std::process::{Command, ExitCode};

/// The workload every mode runs: small enough that the crash matrix
/// stays cheap, wide enough (two units) that crash points fall between
/// commits, not just around one.
fn chaos_campaign(seed: u64) -> Campaign {
    Campaign::new("chaos", seed)
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
    let c = chaos_campaign(7);
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
    let c = chaos_campaign(7);
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

/// The pool session's jobs, in submission order: tenant, job id and
/// campaign seed (two different journals, so a commit that landed in
/// the wrong one would show).
const POOL_JOBS: [(&str, &str, u64); 2] = [("a", "job-0001", 7), ("b", "job-0002", 8)];

/// One daemon session in `dir`: a two-worker [`Server`] on `dir/store`,
/// one job per tenant accepted (ack each) unless a previous session
/// already did, and only then the scheduler started — so both jobs are in
/// flight together, one per worker, their commits interleaving — and
/// both watched to `done` (ack each streamed record).
fn worker_pool(dir: &Path) -> Result<(), String> {
    std::fs::create_dir_all(dir).map_err(|e| e.to_string())?;
    let mut cfg = ServeConfig::new(dir.join("store"));
    cfg.workers = 2;
    // A quarter of a unit: paused runs change hands between the workers.
    cfg.quantum = 50;
    let server = Server::open(cfg).map_err(|e| e.to_string())?;
    let sock = dir.join("d.sock").display().to_string();
    let listener = Listener::bind(&sock).map_err(|e| e.to_string())?;
    let accept = server.clone();
    std::thread::spawn(move || accept.serve(&listener));
    let mut client = Client::connect(&sock).map_err(|e| e.to_string())?;
    let status = client.status().map_err(|e| e.to_string())?;
    let known = status
        .get("jobs")
        .and_then(Value::as_arr)
        .map_or(0, <[_]>::len);
    for (tenant, _, seed) in POOL_JOBS.iter().skip(known) {
        let c = chaos_campaign(*seed);
        let (id, _) = client.submit(tenant, 0, &c).map_err(|e| e.to_string())?;
        println!("ack accept {id}");
    }
    drop(server.start_scheduler());
    std::thread::scope(|s| {
        let watches = POOL_JOBS.map(|(_, id, _)| {
            let sock = &sock;
            s.spawn(move || {
                let mut client = Client::connect(sock)?;
                client.watch(id, |v, _| {
                    if v.get("event").and_then(Value::as_str) == Some("record") {
                        println!("ack commit {id}");
                    }
                })
            })
        });
        watches
            .into_iter()
            .try_for_each(|w| w.join().expect("watcher panicked").map(|_| ()))
    })
    .map_err(|e| e.to_string())?;
    // `status` takes the state lock: once it answers, the last commit's
    // counters have moved.
    client.status().map_err(|e| e.to_string())?;
    println!("ran={}", server.metrics().units_completed.get());
    println!("ops={}", fault::op_count());
    Ok(())
}

// ----- explorer --------------------------------------------------------

/// The files whose final bytes must match the reference, per mode.
fn artifact_files(mode: &str) -> Vec<&'static str> {
    match mode {
        "campaign" => vec!["journal.jsonl", "report.jsonl"],
        "store" => vec!["accept.jsonl", "job-0001/journal.jsonl"],
        "pool" => vec![
            "store/accept.jsonl",
            "store/job-0001/journal.jsonl",
            "store/job-0002/journal.jsonl",
        ],
        _ => unreachable!(),
    }
}

/// Per mode, the accept log and each journal with the prefix its commit
/// acks carry.
fn durable_logs(mode: &str, dir: &Path) -> (PathBuf, Vec<(String, PathBuf)>) {
    let one = |journal: &str| vec![("commit".to_owned(), dir.join(journal))];
    match mode {
        "campaign" => (dir.join("accept.jsonl"), one("journal.jsonl")),
        "store" => (dir.join("accept.jsonl"), one("job-0001/journal.jsonl")),
        _ => {
            let store = dir.join("store");
            let journal = |id: &str| store.join(id).join("journal.jsonl");
            let journals = POOL_JOBS.map(|(_, id, _)| (format!("commit {id}"), journal(id)));
            (store.join("accept.jsonl"), journals.to_vec())
        }
    }
}

struct RunOutput {
    status: Option<i32>,
    acks: Vec<String>,
    ops: Option<u64>,
    /// Units a `pool` session simulated and committed.
    ran: Option<usize>,
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
    let (mut ops, mut ran) = (None, None);
    for line in stdout.lines() {
        if let Some(rest) = line.strip_prefix("ack ") {
            acks.push(rest.to_owned());
        } else if let Some(n) = line.strip_prefix("ops=") {
            ops = n.parse().ok();
        } else if let Some(n) = line.strip_prefix("ran=") {
            ran = n.parse().ok();
        }
    }
    RunOutput {
        status: out.status.code(),
        acks,
        ops,
        ran,
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
/// `commit <i>` (`commit <id>` in `pool`) needs a complete record past
/// the header of its journal.
fn acks_survived(mode: &str, dir: &Path, acks: &[String]) -> Result<(), String> {
    let (accept_log, journals) = durable_logs(mode, dir);
    let accepts = acks.iter().filter(|a| a.starts_with("accept")).count();
    if accepts > 0 && complete_lines(&accept_log) < accepts {
        return Err(format!("{accepts} acked accepts not all on disk"));
    }
    for (ack, journal) in &journals {
        let commits = acks.iter().filter(|a| a.starts_with(ack)).count();
        // Header line + one line per acked commit, at minimum.
        if commits > 0 && complete_lines(journal) < commits + 1 {
            return Err(format!("{commits} acked '{ack}' not all on disk"));
        }
    }
    Ok(())
}

/// Units with a complete journal record in `dir`, over all the mode's
/// journals.
fn committed_units(mode: &str, dir: &Path) -> usize {
    let journals = durable_logs(mode, dir).1;
    let records = |j: &PathBuf| complete_lines(j).saturating_sub(1);
    journals.iter().map(|(_, j)| records(j)).sum()
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
            // What the restarted daemon simulates is exactly what had not
            // committed (`pool` only; the other workers report no count):
            // no committed unit re-runs, and the crash cost each job no
            // more than the one unit it had in flight.
            let uncommitted = reference
                .ran
                .map(|total| total - committed_units(mode, &dir));
            let recovery = run_worker(mode, &dir, None);
            if recovery.status != Some(0) {
                failure = Some(format!(
                    "recovery after crash at op {k} failed ({:?}):\n{}",
                    recovery.status, recovery.stderr
                ));
            } else if recovery.ran != uncommitted {
                failure = Some(format!(
                    "recovery after crash at op {k} ran {:?} units, {uncommitted:?} were uncommitted",
                    recovery.ran
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
        "usage: chaos explore [--mode campaign|store|pool|all] [--dir DIR] [--report FILE]\n\
         \x20      chaos campaign --dir DIR\n\
         \x20      chaos store --dir DIR\n\
         \x20      chaos pool --dir DIR"
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
        "campaign" | "store" | "pool" => {
            let dir = PathBuf::from(flag("--dir").unwrap_or_else(|| usage()));
            let run = match cmd {
                "campaign" => worker_campaign(&dir),
                "store" => worker_store(&dir),
                _ => worker_pool(&dir),
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
                "all" => vec!["campaign", "store", "pool"],
                "campaign" => vec!["campaign"],
                "store" => vec!["store"],
                "pool" => vec!["pool"],
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
