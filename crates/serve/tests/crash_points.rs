//! Drives the `chaos` crash-point explorer end to end: every durability
//! operation of the journaled-campaign and two-worker-daemon workloads
//! gets a process crash, and recovery must be byte-identical to a
//! never-crashed run. Also checks the loud-refusal contract for
//! corrupted checkpoints.

use std::path::PathBuf;
use std::process::Command;

fn tmp(name: &str) -> PathBuf {
    let d = std::env::temp_dir().join(format!("dramctrl-chaos-test-{}-{name}", std::process::id()));
    let _ = std::fs::remove_dir_all(&d);
    std::fs::create_dir_all(&d).unwrap();
    d
}

fn explore(mode: &str) -> (bool, String, String) {
    let dir = tmp(mode);
    let report = dir.join("report.jsonl");
    let out = Command::new(env!("CARGO_BIN_EXE_chaos"))
        .args(["explore", "--mode", mode, "--report"])
        .arg(&report)
        .arg("--dir")
        .arg(dir.join("work"))
        .env_remove("DRAMCTRL_FAULT_PLAN")
        .output()
        .expect("running chaos explorer");
    let report_text = std::fs::read_to_string(&report).unwrap_or_default();
    let _ = std::fs::remove_dir_all(&dir);
    (
        out.status.success(),
        report_text,
        format!(
            "{}\n{}",
            String::from_utf8_lossy(&out.stdout),
            String::from_utf8_lossy(&out.stderr)
        ),
    )
}

#[test]
fn every_campaign_crash_point_recovers_byte_identically() {
    let (ok, report, log) = explore("campaign");
    assert!(ok, "explorer failed:\n{log}");
    let lines: Vec<&str> = report.lines().collect();
    assert!(
        lines.len() >= 10,
        "suspiciously few crash points ({}):\n{log}",
        lines.len()
    );
    for line in &lines {
        assert!(line.contains("\"ok\":true"), "{line}\n{log}");
        assert!(line.contains("\"crash_exit\":86"), "{line}");
    }
}

#[test]
fn every_pool_crash_point_recovers_byte_identically_and_reruns_only_uncommitted_units() {
    // A two-worker daemon with two tenants' jobs in flight, then a third
    // job alone with both its units in flight. The explorer fails a crash
    // point whose restart simulates anything but the units that had no
    // journal record yet — per job, those it had in flight or parked.
    let (ok, report, log) = explore("pool");
    assert!(ok, "explorer failed:\n{log}");
    let lines: Vec<&str> = report.lines().collect();
    assert!(lines.len() >= 20, "suspiciously few crash points:\n{log}");
    for line in &lines {
        assert!(line.contains("\"ok\":true"), "{line}\n{log}");
    }
    // Both accepts were acked before the scheduler even started, so the
    // ack-survival check ran against real acks at every later crash point
    // (commit acks come from watcher threads and may trail the crash).
    let last = lines.last().unwrap();
    assert!(line_acked(last) >= 2, "{last}");
}

fn line_acked(line: &str) -> u64 {
    line.split("\"acked\":")
        .nth(1)
        .and_then(|r| r.split(',').next())
        .and_then(|n| n.parse().ok())
        .unwrap_or(0)
}

#[test]
fn corrupted_checkpoints_are_refused_loudly_not_misread() {
    use dramctrl_campaign::Campaign;
    use dramctrl_runner::JobRun;
    let dir = tmp("torn-snap");
    let c = Campaign::new("snap", 3).read_pcts([50]).requests([5_000]);
    let unit = &c.expand()[0];
    let snap = dir.join("unit.snap");
    let run = |pause_after| JobRun::start(unit, 0).run_resumable(Some(&snap), 0, pause_after);

    // A checkpoint that is garbage from byte 0.
    std::fs::write(&snap, b"not a snapshot at all").unwrap();
    let garbage = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| run(Some(1_000))));
    let msg = panic_text(garbage.expect_err("garbage checkpoint must be refused"));
    assert!(msg.contains("checkpoint"), "unhelpful refusal: {msg}");

    // A real checkpoint torn in half (as if a non-atomic writer died):
    // must also be refused loudly, never half-restored.
    let _ = std::fs::remove_file(&snap);
    assert!(
        run(Some(1_000)).is_none(),
        "quantum too large: never paused"
    );
    let whole = std::fs::read(&snap).unwrap();
    std::fs::write(&snap, &whole[..whole.len() / 2]).unwrap();
    let torn = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| run(None)));
    let msg = panic_text(torn.expect_err("torn checkpoint must be refused"));
    assert!(msg.contains("checkpoint"), "unhelpful refusal: {msg}");
    let _ = std::fs::remove_dir_all(&dir);
}

fn panic_text(payload: Box<dyn std::any::Any + Send>) -> String {
    if let Some(s) = payload.downcast_ref::<&'static str>() {
        (*s).to_owned()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        String::new()
    }
}
