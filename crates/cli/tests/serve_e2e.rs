//! Service end-to-end tests driving the real `dramctrl` binary: a
//! daemon process on a Unix socket, CLI clients submitting and watching
//! sweeps, byte-comparison against the standalone `sweep` command, and a
//! SIGKILL'd daemon restarted on the same store resuming every job.

use std::path::PathBuf;
use std::process::{Child, Command, Stdio};
use std::time::{Duration, Instant};

fn dramctrl() -> Command {
    Command::new(env!("CARGO_BIN_EXE_dramctrl"))
}

fn tmp_dir(name: &str) -> PathBuf {
    let d = std::env::temp_dir().join(format!("dramctrl-e2e-{}-{name}", std::process::id()));
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

/// A daemon child that is killed even when the test panics.
struct Daemon(Child);

impl Daemon {
    fn spawn(sock: &str, store: &str, quantum: &str) -> Self {
        Self::spawn_with(sock, store, quantum, &[])
    }

    fn spawn_with(sock: &str, store: &str, quantum: &str, extra: &[&str]) -> Self {
        let child = dramctrl()
            .args([
                "serve",
                "--listen",
                sock,
                "--store",
                store,
                "--quantum",
                quantum,
            ])
            .args(extra)
            .stdout(Stdio::null())
            .stderr(Stdio::null())
            .spawn()
            .expect("spawn daemon");
        Self(child)
    }

    /// SIGKILL — no cleanup handlers run, exactly the crash we promise
    /// to survive.
    fn kill(&mut self) {
        let _ = self.0.kill();
        let _ = self.0.wait();
    }
}

impl Drop for Daemon {
    fn drop(&mut self) {
        self.kill();
    }
}

/// Polls `dramctrl status` until the daemon answers on its socket.
fn wait_ready(sock: &str) {
    let deadline = Instant::now() + Duration::from_secs(30);
    loop {
        let out = dramctrl().args(["status", "--to", sock]).output().unwrap();
        if out.status.success() {
            return;
        }
        assert!(
            Instant::now() < deadline,
            "daemon never became ready:\n{}",
            String::from_utf8_lossy(&out.stderr)
        );
        std::thread::sleep(Duration::from_millis(25));
    }
}

/// Submits the axes to the daemon; returns the accepted job id.
fn submit(sock: &str, tenant: &str, axes: &[&str]) -> String {
    let out = dramctrl()
        .args(["submit", "--to", sock, "--tenant", tenant])
        .args(axes)
        .output()
        .unwrap();
    let stdout = String::from_utf8(ok(&out).stdout.clone()).unwrap();
    // "accepted job-0000 (3 units)"
    stdout
        .split_whitespace()
        .nth(1)
        .unwrap_or_else(|| panic!("no job id in {stdout:?}"))
        .to_owned()
}

/// Axes small enough to finish fast, large enough that a 500-request
/// quantum forces several preemption cycles per unit.
const AXES: &[&str] = &["--seed", "7", "--reads", "0,50,100", "--requests", "3000"];

#[test]
fn two_concurrent_clients_each_get_results_byte_identical_to_cli_sweep() {
    let dir = tmp_dir("two-clients");
    let p = |n: &str| dir.join(n).to_str().unwrap().to_owned();
    let sock = p("daemon.sock");

    // The reference: a plain standalone sweep of the same axes.
    ok(&dramctrl()
        .args(["sweep", "--quiet", "--jsonl", &p("base.jsonl")])
        .args(AXES)
        .output()
        .unwrap());

    let _daemon = Daemon::spawn(&sock, &p("store"), "500");
    wait_ready(&sock);

    let id_a = submit(&sock, "alice", AXES);
    let id_b = submit(&sock, "bob", AXES);
    assert_ne!(id_a, id_b);

    // Both tenants watch concurrently while the scheduler interleaves
    // their jobs at quantum boundaries.
    let watchers: Vec<Child> = [(&id_a, "a.jsonl"), (&id_b, "b.jsonl")]
        .iter()
        .map(|(id, out)| {
            dramctrl()
                .args(["watch", id, "--to", &sock, "--jsonl", &p(out)])
                .stdout(Stdio::piped())
                .stderr(Stdio::null())
                .spawn()
                .unwrap()
        })
        .collect();
    for w in watchers {
        ok(&w.wait_with_output().unwrap());
    }
    let base = std::fs::read(p("base.jsonl")).unwrap();
    let a = std::fs::read(p("a.jsonl")).unwrap();
    let b = std::fs::read(p("b.jsonl")).unwrap();
    assert_eq!(a, base, "tenant A's streamed report != standalone sweep");
    assert_eq!(b, base, "tenant B's streamed report != standalone sweep");

    // The job table knows both jobs by id, both finished.
    let status = ok(&dramctrl().args(["status", "--to", &sock]).output().unwrap()).clone();
    let table = String::from_utf8(status.stdout).unwrap();
    assert!(table.contains(&id_a) && table.contains(&id_b), "{table}");
    assert!(table.contains("done"), "{table}");
}

#[test]
fn sigkilled_daemon_restarted_on_same_store_resumes_every_job() {
    let dir = tmp_dir("sigkill");
    let p = |n: &str| dir.join(n).to_str().unwrap().to_owned();
    let sock = p("daemon.sock");
    let store = p("store");
    // Sized like the reconnect test below: six units of ~10 ms each, so
    // the kill after the first commit finds most of the sweep undone.
    let axes: &[&str] = &[
        "--seed",
        "11",
        "--reads",
        "0,20,40,60,80,100",
        "--requests",
        "40000",
    ];

    ok(&dramctrl()
        .args(["sweep", "--quiet", "--jsonl", &p("base.jsonl")])
        .args(axes)
        .output()
        .unwrap());

    // Daemon #1: accept the job, commit at least one unit, then die by
    // SIGKILL mid-sweep.
    let mut daemon1 = Daemon::spawn(&sock, &store, "400");
    wait_ready(&sock);
    let id = submit(&sock, "alice", axes);
    let journal = dir.join("store").join(&id).join("journal.jsonl");
    let deadline = Instant::now() + Duration::from_secs(60);
    loop {
        let committed = std::fs::read_to_string(&journal)
            .map(|t| t.lines().count())
            .unwrap_or(0);
        if committed >= 2 {
            break; // header + at least one record is on disk
        }
        assert!(Instant::now() < deadline, "no unit ever committed");
        std::thread::sleep(Duration::from_millis(5));
    }
    daemon1.kill();
    let before = std::fs::read_to_string(&journal).unwrap();

    // Daemon #2 on the same store: recovery re-queues the job; a watch
    // replays the committed records and streams the rest as they finish.
    let _daemon2 = Daemon::spawn(&sock, &store, "400");
    wait_ready(&sock);
    let out = ok(&dramctrl()
        .args(["watch", &id, "--to", &sock, "--jsonl", &p("resumed.jsonl")])
        .output()
        .unwrap())
    .clone();
    let stdout = String::from_utf8(out.stdout).unwrap();
    assert!(stdout.contains("6 ok, 0 failed"), "{stdout}");

    assert_eq!(
        std::fs::read(p("resumed.jsonl")).unwrap(),
        std::fs::read(p("base.jsonl")).unwrap(),
        "resumed service results != uninterrupted standalone sweep"
    );
    let after = std::fs::read_to_string(&journal).unwrap();
    assert!(
        after.starts_with(&before),
        "restart rewrote committed journal lines"
    );
    assert_eq!(
        after.lines().count(),
        1 + 6,
        "each unit committed exactly once after the restart"
    );
}

#[test]
fn watch_reconnect_rides_through_a_daemon_kill_and_restart() {
    let dir = tmp_dir("reconnect");
    let p = |n: &str| dir.join(n).to_str().unwrap().to_owned();
    let sock = p("daemon.sock");
    let store = p("store");
    // Six units of 40 000 requests: the kill below lands after the second
    // commit, and at ~10 ms a unit (release; the controller does ~3 M
    // requests/s) the other four are still queued or running then — at
    // 4 000 requests the whole job could finish inside one 5 ms poll.
    let axes: &[&str] = &[
        "--seed",
        "13",
        "--reads",
        "0,20,40,60,80,100",
        "--requests",
        "40000",
    ];

    ok(&dramctrl()
        .args(["sweep", "--quiet", "--jsonl", &p("base.jsonl")])
        .args(axes)
        .output()
        .unwrap());

    // Daemon #1 accepts the job; a `--reconnect` watcher starts
    // streaming while the daemon is still alive.
    let mut daemon1 = Daemon::spawn(&sock, &store, "400");
    wait_ready(&sock);
    let id = submit(&sock, "alice", axes);
    let mut watcher = dramctrl()
        .args([
            "watch",
            &id,
            "--to",
            &sock,
            "--reconnect",
            "--jsonl",
            &p("resumed.jsonl"),
        ])
        .stdout(Stdio::piped())
        .stderr(Stdio::piped())
        .spawn()
        .unwrap();
    // The watcher's stderr is its progress display and, if it fails, the
    // reason: collect it for the assertion below, and learn from its
    // first bytes (the progress line every watch opens with) that the
    // stream is live.
    let mut stderr = watcher.stderr.take().unwrap();
    let (live_tx, live_rx) = std::sync::mpsc::channel();
    let watcher_log = std::thread::spawn(move || {
        use std::io::Read;
        let mut log = Vec::new();
        let mut buf = [0u8; 512];
        while let Ok(n @ 1..) = stderr.read(&mut buf) {
            log.extend_from_slice(&buf[..n]);
            let _ = live_tx.send(());
        }
        String::from_utf8_lossy(&log).into_owned()
    });
    live_rx
        .recv_timeout(Duration::from_secs(60))
        .expect("the watcher never showed progress");

    // Let at least one unit commit, then SIGKILL the daemon out from
    // under the live watch.
    let journal = dir.join("store").join(&id).join("journal.jsonl");
    let deadline = Instant::now() + Duration::from_secs(60);
    loop {
        let committed = std::fs::read_to_string(&journal)
            .map(|t| t.lines().count())
            .unwrap_or(0);
        if committed >= 2 {
            break;
        }
        assert!(Instant::now() < deadline, "no unit ever committed");
        std::thread::sleep(Duration::from_millis(5));
    }
    daemon1.kill();
    // Leave the watcher retrying against a dead socket for a moment —
    // it must back off, not exit.
    std::thread::sleep(Duration::from_millis(300));

    // Daemon #2 on the same store resumes the job; the watcher should
    // reconnect by itself and run the stream to completion.
    let _daemon2 = Daemon::spawn(&sock, &store, "400");
    let out = watcher.wait_with_output().unwrap();
    let log = watcher_log.join().unwrap();
    assert!(out.status.success(), "{:?}:\n{log}", out.status.code());
    let stdout = String::from_utf8(out.stdout).unwrap();
    assert!(stdout.contains("6 ok, 0 failed"), "{stdout}");

    // Replay dedup on resume: the reassembled report is byte-identical
    // to an uninterrupted standalone sweep — no gap, no duplicate.
    assert_eq!(
        std::fs::read(p("resumed.jsonl")).unwrap(),
        std::fs::read(p("base.jsonl")).unwrap(),
        "reconnected watch report != uninterrupted standalone sweep"
    );
}

/// A watcher that cannot write an artifact still reads the stream to its
/// end — the records land — and then fails with the path and the error,
/// where it used to panic with a backtrace at the first lost write.
#[test]
fn watch_reports_an_artifact_it_could_not_write_and_keeps_the_records() {
    let dir = tmp_dir("obs-fault");
    let p = |n: &str| dir.join(n).to_str().unwrap().to_owned();
    let sock = p("daemon.sock");
    ok(&dramctrl()
        .args(["sweep", "--quiet", "--jsonl", &p("base.jsonl")])
        .args(AXES)
        .output()
        .unwrap());
    let _daemon = Daemon::spawn(&sock, &p("store"), "500");
    wait_ready(&sock);
    let mut axes = AXES.to_vec();
    axes.extend(["--epochs", "1us"]);
    let id = submit(&sock, "observer", &axes);

    // The plan fails every write under `--obs-dir` and nothing else: the
    // report's own temp file is named after `watched.jsonl`.
    let out = dramctrl()
        .args(["watch", &id, "--to", &sock, "--obs-dir", &p("obs")])
        .args(["--jsonl", &p("watched.jsonl")])
        .env("DRAMCTRL_FAULT_PLAN", "enospc,op=write,path=unit-")
        .output()
        .unwrap();
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(2), "{stderr}");
    assert!(!stderr.contains("panicked"), "{stderr}");
    assert!(
        stderr.contains("writing") && stderr.contains("unit-000000."),
        "the first lost artifact should be named: {stderr}"
    );
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("3 ok, 0 failed"), "{stdout}");
    assert_eq!(
        std::fs::read(p("watched.jsonl")).unwrap(),
        std::fs::read(p("base.jsonl")).unwrap()
    );
}

/// One raw HTTP/1.1 GET; returns (status, body).
fn http_get(addr: &str, path: &str) -> (u16, String) {
    use std::io::{Read, Write};
    let mut s = std::net::TcpStream::connect(addr).unwrap();
    write!(
        s,
        "GET {path} HTTP/1.1\r\nHost: e2e\r\nConnection: close\r\n\r\n"
    )
    .unwrap();
    let mut text = String::new();
    s.read_to_string(&mut text).unwrap();
    let (head, body) = text.split_once("\r\n\r\n").expect("header/body split");
    let status = head.split_whitespace().nth(1).unwrap().parse().unwrap();
    (status, body.to_owned())
}

#[test]
fn http_observability_endpoints_respond_on_a_live_daemon() {
    let dir = tmp_dir("http");
    let p = |n: &str| dir.join(n).to_str().unwrap().to_owned();
    let sock = p("daemon.sock");
    // Daemon stderr is nulled, so the resolved addr of port 0 would be
    // lost — derive a per-process port instead.
    let http = format!("127.0.0.1:{}", 21000 + std::process::id() % 20000);
    let _daemon = Daemon::spawn_with(
        &sock,
        &p("store"),
        "500",
        &["--http", &http, "--log-level", "debug"],
    );
    wait_ready(&sock);

    let id = submit(&sock, "alice", AXES);
    ok(&dramctrl()
        .args(["watch", &id, "--to", &sock])
        .output()
        .unwrap());

    let (code, metrics) = http_get(&http, "/metrics");
    assert_eq!(code, 200);
    for needle in [
        "# TYPE dramctrl_admission_total counter",
        "dramctrl_admission_total{result=\"accepted\"} 1",
        "dramctrl_tenant_served_units_total{tenant=\"alice\"} 3",
        "dramctrl_store_fsync_seconds_count{op=\"commit\"} 3",
        "dramctrl_executor_units_per_second",
    ] {
        assert!(metrics.contains(needle), "missing {needle} in:\n{metrics}");
    }
    let (code, health) = http_get(&http, "/healthz");
    assert_eq!(code, 200);
    assert!(health.contains("\"status\":\"ok\""), "{health}");
    let (code, jobs) = http_get(&http, "/jobs");
    assert_eq!(code, 200);
    assert!(jobs.contains(&format!("\"id\":\"{id}\"")), "{jobs}");

    // `status --json` emits the same machine-readable shape on one line.
    let out = ok(&dramctrl()
        .args(["status", "--to", &sock, "--json"])
        .output()
        .unwrap())
    .clone();
    let line = String::from_utf8(out.stdout).unwrap();
    assert_eq!(line.lines().count(), 1);
    assert!(
        line.starts_with("{\"event\":\"status\"") && line.contains("\"tenants\":"),
        "{line}"
    );
}

#[test]
fn version_prints_all_format_versions() {
    let out = ok(&dramctrl().arg("version").output().unwrap()).clone();
    let text = String::from_utf8(out.stdout.clone()).unwrap();
    for needle in ["dramctrl", "proto", "snap", "journal"] {
        assert!(text.contains(needle), "{text}");
    }
    // --version and -V say the same thing.
    for flag in ["--version", "-V"] {
        let alias = ok(&dramctrl().arg(flag).output().unwrap()).clone();
        assert_eq!(alias.stdout, out.stdout);
    }
}
