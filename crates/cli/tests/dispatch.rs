//! Distributed-dispatch chaos tests: a coordinator fanning a campaign
//! out to a daemon fleet must produce a merged report byte-identical to
//! a local `dramctrl sweep` — with every peer healthy, with a peer
//! SIGKILLed mid-campaign, and with a peer whose store is poisoned —
//! and must refuse to emit anything when the fleet cannot cover the
//! campaign.

#![cfg(unix)]

use std::path::{Path, PathBuf};
use std::process::{Child, Command, Stdio};
use std::time::{Duration, Instant};

fn dramctrl() -> Command {
    Command::new(env!("CARGO_BIN_EXE_dramctrl"))
}

fn tmp_dir(name: &str) -> PathBuf {
    let d = std::env::temp_dir().join(format!("dramctrl-dispatch-{}-{name}", std::process::id()));
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

/// A daemon child whose process is reaped (and killed if still alive)
/// on drop, so a failing assertion never leaks daemons.
struct Daemon {
    child: Child,
    sock: PathBuf,
}

impl Drop for Daemon {
    fn drop(&mut self) {
        let _ = self.child.kill();
        let _ = self.child.wait();
    }
}

/// Starts `dramctrl serve` on a Unix socket under `dir` and waits for
/// the socket file to appear.
fn start_daemon(dir: &Path, name: &str, envs: &[(&str, &str)]) -> Daemon {
    let sock = dir.join(format!("{name}.sock"));
    let store = dir.join(format!("{name}.store"));
    let mut cmd = dramctrl();
    cmd.args(["serve", "--listen"])
        .arg(&sock)
        .arg("--store")
        .arg(&store)
        .stderr(Stdio::null());
    for (k, v) in envs {
        cmd.env(k, v);
    }
    let child = cmd.spawn().unwrap();
    let deadline = Instant::now() + Duration::from_secs(10);
    while !sock.exists() {
        assert!(
            Instant::now() < deadline,
            "daemon {name} never bound {sock:?}"
        );
        std::thread::sleep(Duration::from_millis(20));
    }
    Daemon { child, sock }
}

/// The shared campaign: 10 jobs.
const AXES: &[&str] = &[
    "--reads",
    "0,25,50,75,100",
    "--policies",
    "open,closed",
    "--requests",
    "20000",
    "--seed",
    "7",
];

/// [`AXES`] with units three times as long, for the test that must catch
/// a peer mid-campaign: the victim's shard is four units of ~20 ms
/// (release), and it is killed at its first commit.
const LONG_AXES: &[&str] = &[
    "--reads",
    "0,25,50,75,100",
    "--policies",
    "open,closed",
    "--requests",
    "60000",
    "--seed",
    "7",
];

/// The never-faulted local reference report for `axes`.
fn local_reference(dir: &Path, axes: &[&str]) -> Vec<u8> {
    let jsonl = dir.join("local.jsonl");
    ok(&dramctrl()
        .args(["sweep", "--quiet", "--jsonl"])
        .arg(&jsonl)
        .args(axes)
        .output()
        .unwrap());
    std::fs::read(&jsonl).unwrap()
}

fn dispatch_cmd(dir: &Path, peers: &[&Daemon], merged: &Path, axes: &[&str]) -> Command {
    let mut cmd = dramctrl();
    cmd.arg("dispatch");
    for p in peers {
        cmd.arg("--peer").arg(&p.sock);
    }
    cmd.arg("--workdir")
        .arg(dir.join("wd"))
        .arg("--jsonl")
        .arg(merged)
        .args(["--timeout", "10s"])
        .args(axes)
        .stdout(Stdio::null());
    cmd
}

#[test]
fn healthy_fleet_matches_local_sweep_byte_for_byte() {
    let dir = tmp_dir("healthy");
    let daemons: Vec<Daemon> = (0..3)
        .map(|i| start_daemon(&dir, &format!("d{i}"), &[]))
        .collect();
    let merged = dir.join("merged.jsonl");
    let out = dispatch_cmd(&dir, &daemons.iter().collect::<Vec<_>>(), &merged, AXES)
        .args(["--json"])
        .output()
        .unwrap();
    ok(&out);
    // --json: every progress event on stderr is a JSON line with the
    // dispatch target, and the campaign was sharded across the fleet.
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(
        stderr.contains("\"target\":\"dispatch\"") && stderr.contains("\"msg\":\"shard assigned\""),
        "expected JSON progress events, got:\n{stderr}"
    );
    assert!(stderr.contains("\"msg\":\"shards merged\""), "{stderr}");
    assert_eq!(
        std::fs::read(&merged).unwrap(),
        local_reference(&dir, AXES),
        "merged report diverged from the local sweep"
    );
    assert!(dir.join("wd").is_dir(), "a named --workdir is the user's");
}

#[test]
fn sigkilled_peer_mid_campaign_is_survived_byte_identically() {
    let dir = tmp_dir("sigkill");
    let mut daemons: Vec<Daemon> = (0..3)
        .map(|i| start_daemon(&dir, &format!("d{i}"), &[]))
        .collect();
    let merged = dir.join("merged.jsonl");
    let peers: Vec<&Daemon> = daemons.iter().collect();
    let mut dispatch = dispatch_cmd(&dir, &peers, &merged, LONG_AXES)
        .stderr(Stdio::null())
        .spawn()
        .unwrap();
    // SIGKILL one daemon while the campaign is in flight: as soon as its
    // store shows its shard's first committed unit (journal header + one
    // record), with three more of its units queued or running.
    let store = dir.join("d0.store");
    let first_commit = || {
        let jobs = std::fs::read_dir(&store).ok()?;
        jobs.flatten()
            .filter_map(|job| std::fs::read_to_string(job.path().join("journal.jsonl")).ok())
            .find(|journal| journal.lines().count() >= 2)
    };
    let deadline = Instant::now() + Duration::from_secs(60);
    while first_commit().is_none() {
        assert!(Instant::now() < deadline, "the victim never committed");
        std::thread::sleep(Duration::from_millis(2));
    }
    let victim = daemons.remove(0);
    drop(victim); // kill + reap
    let status = dispatch.wait().unwrap();
    assert!(status.success(), "dispatch failed: {status:?}");
    assert_eq!(
        std::fs::read(&merged).unwrap(),
        local_reference(&dir, LONG_AXES),
        "merged report diverged after a SIGKILLed peer"
    );
}

#[test]
fn poisoned_store_peer_is_routed_around_byte_identically() {
    let dir = tmp_dir("poison");
    // d0's store fails every fsync: the daemon stays up and answers
    // hello, but rejects every submit ("store unavailable") — the
    // degraded-peer path, distinct from a dead socket.
    let poisoned = start_daemon(
        &dir,
        "d0",
        &[("DRAMCTRL_FAULT_PLAN", "eio,op=fsync,path=d0")],
    );
    let healthy = start_daemon(&dir, "d1", &[]);
    let merged = dir.join("merged.jsonl");
    let out = dispatch_cmd(&dir, &[&poisoned, &healthy], &merged, AXES)
        .output()
        .unwrap();
    ok(&out);
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(
        stderr.contains("store unavailable"),
        "expected the poisoned peer's rejection to surface:\n{stderr}"
    );
    assert_eq!(
        std::fs::read(&merged).unwrap(),
        local_reference(&dir, AXES),
        "merged report diverged with a poisoned peer in the fleet"
    );
}

/// Without `--workdir`, dispatch journals its shards in a directory of
/// its own under the system temp dir: kept when the dispatch fails, gone
/// once the report is written.
#[test]
fn a_dispatch_without_workdir_cleans_up_its_temp_dir_only_on_success() {
    let dir = tmp_dir("tmpdir");
    let tmp = dir.join("tmp");
    std::fs::create_dir_all(&tmp).unwrap();
    let leftovers = || std::fs::read_dir(&tmp).unwrap().count();
    let dispatch = |peer: &Path| {
        dramctrl()
            .env("TMPDIR", &tmp)
            .arg("dispatch")
            .arg("--peer")
            .arg(peer)
            .arg("--jsonl")
            .arg(dir.join("merged.jsonl"))
            .args(AXES)
            .stdout(Stdio::null())
            .output()
            .unwrap()
    };
    let failed = dispatch(&dir.join("never-bound.sock"));
    assert_eq!(failed.status.code(), Some(2));
    assert_eq!(leftovers(), 1, "a failed dispatch keeps its journals");
    std::fs::remove_dir_all(&tmp).unwrap();
    std::fs::create_dir_all(&tmp).unwrap();
    let daemon = start_daemon(&dir, "d0", &[]);
    ok(&dispatch(&daemon.sock));
    assert_eq!(
        std::fs::read(dir.join("merged.jsonl")).unwrap(),
        local_reference(&dir, AXES)
    );
    assert_eq!(leftovers(), 0, "dispatch left its temp dir behind");
}

#[test]
fn all_peers_dead_refuses_loudly_with_no_report() {
    let dir = tmp_dir("alldead");
    let merged = dir.join("merged.jsonl");
    let out = dramctrl()
        .arg("dispatch")
        .arg("--peer")
        .arg(dir.join("never-bound.sock"))
        .args(["--peer", "127.0.0.1:1"])
        .arg("--workdir")
        .arg(dir.join("wd"))
        .arg("--jsonl")
        .arg(&merged)
        .args(AXES)
        .output()
        .unwrap();
    assert_eq!(out.status.code(), Some(2), "expected a usage-style failure");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("no healthy peers"), "{stderr}");
    assert!(!merged.exists(), "a report must never appear on failure");
}

#[test]
fn merge_of_a_foreign_spec_hash_exits_2() {
    let dir = tmp_dir("foreign-merge");
    let journal = dir.join("journal.jsonl");
    // A journaled sweep with seed 7...
    ok(&dramctrl()
        .args(["sweep", "--quiet", "--journal"])
        .arg(&journal)
        .args(AXES)
        .output()
        .unwrap());
    // ...merged under seed 8 flags must be refused with exit 2, not
    // silently re-keyed.
    let out = dramctrl()
        .args(["sweep", "--merge"])
        .arg(&journal)
        .args(["--reads", "0,25,50,75,100"])
        .args(["--policies", "open,closed"])
        .args(["--requests", "20000"])
        .args(["--seed", "8"])
        .output()
        .unwrap();
    assert_eq!(out.status.code(), Some(2));
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(
        stderr.contains("belongs to a different campaign"),
        "expected a spec-hash refusal:\n{stderr}"
    );
}

#[test]
fn fleet_status_reports_reachability_per_peer() {
    let dir = tmp_dir("fleet-status");
    let up = start_daemon(&dir, "up", &[]);
    let out = dramctrl()
        .arg("status")
        .arg("--peer")
        .arg(&up.sock)
        .arg("--peer")
        .arg(dir.join("down.sock"))
        .output()
        .unwrap();
    ok(&out);
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("yes"), "{stdout}");
    assert!(stdout.contains("no "), "{stdout}");
    assert!(stdout.contains("fleet: 1/2 peers reachable"), "{stdout}");
    // All peers down is a non-zero exit.
    let out = dramctrl()
        .arg("status")
        .arg("--peer")
        .arg(dir.join("down.sock"))
        .output()
        .unwrap();
    assert_eq!(out.status.code(), Some(2));
}
