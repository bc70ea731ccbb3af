//! End-to-end tests driving the `dramctrl` binary.

use std::process::Command;

fn dramctrl() -> Command {
    Command::new(env!("CARGO_BIN_EXE_dramctrl"))
}

#[test]
fn devices_lists_presets() {
    let out = dramctrl().arg("devices").output().unwrap();
    assert!(out.status.success());
    let text = String::from_utf8(out.stdout).unwrap();
    for name in [
        "DDR3-1600-x64",
        "LPDDR3-1600-x32",
        "WideIO-200-x128",
        "HBM-1000-x128",
    ] {
        assert!(text.contains(name), "missing {name} in\n{text}");
    }
}

#[test]
fn run_reports_bandwidth_and_power() {
    let out = dramctrl()
        .args([
            "run",
            "--device",
            "ddr3-1600-x64",
            "--gen",
            "linear",
            "--requests",
            "5000",
            "--reads",
            "80",
        ])
        .output()
        .unwrap();
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let text = String::from_utf8(out.stdout).unwrap();
    assert!(text.contains("requests completed : 5000"));
    assert!(text.contains("bandwidth"));
    assert!(text.contains("DRAM power"));
}

#[test]
fn cycle_model_also_runs() {
    let out = dramctrl()
        .args(["run", "--model", "cycle", "--requests", "2000"])
        .output()
        .unwrap();
    assert!(out.status.success());
    assert!(String::from_utf8(out.stdout)
        .unwrap()
        .contains("cycle-based baseline"));
}

#[test]
fn record_then_replay_round_trips() {
    let dir = std::env::temp_dir().join("dramctrl-cli-test");
    std::fs::create_dir_all(&dir).unwrap();
    let trace = dir.join("t.trace");
    let trace_s = trace.to_str().unwrap();

    let out = dramctrl()
        .args([
            "record",
            "--gen",
            "random",
            "--requests",
            "3000",
            "--reads",
            "60",
            "--o",
            trace_s,
        ])
        .output()
        .unwrap();
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );

    let out = dramctrl()
        .args([
            "replay", trace_s, "--device", "lpddr3", "--policy", "closed",
        ])
        .output()
        .unwrap();
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let text = String::from_utf8(out.stdout).unwrap();
    assert!(text.contains("requests completed : 3000"));
    assert!(text.contains("LPDDR3"));
}

/// Asserts a bad invocation exits with the usage-error code (2) and a
/// single actionable `error:` line on stderr, never a panic.
fn assert_usage_error(args: &[&str]) -> String {
    let out = dramctrl().args(args).output().unwrap();
    let err = String::from_utf8(out.stderr).unwrap();
    assert_eq!(out.status.code(), Some(2), "{args:?} should exit 2: {err}");
    let error_lines: Vec<_> = err.lines().filter(|l| l.starts_with("error:")).collect();
    assert_eq!(error_lines.len(), 1, "{args:?} wants one error line: {err}");
    assert!(!err.contains("panicked"), "{args:?} panicked: {err}");
    error_lines[0].to_owned()
}

#[test]
fn bad_arguments_fail_cleanly() {
    for args in [
        vec!["run", "--device", "sram"],
        vec!["run", "--bogus", "1"],
        vec!["frobnicate"],
        vec!["replay"],
        vec!["run", "--reads", "150"],
        vec!["run", "--ras", "-3"],
        vec!["run", "--ras", "2e11", "--ecc", "parity"],
        vec!["sweep", "--ras", "1e11,banana"],
        vec!["run", "--gen", "dram-aware", "--banks", "64"],
        vec!["run", "--gen", "dram-aware", "--banks", "0"],
    ] {
        assert_usage_error(&args);
    }
}

#[test]
fn unknown_preset_exits_2_with_available_list() {
    let err = assert_usage_error(&["run", "--device", "sram"]);
    assert!(
        err.contains("unknown device") && err.contains("available:"),
        "message should name the alternatives: {err}"
    );
}

#[test]
fn malformed_trace_exits_2() {
    let dir = std::env::temp_dir().join("dramctrl-cli-test");
    std::fs::create_dir_all(&dir).unwrap();
    let bad = dir.join("garbage.trace");
    std::fs::write(&bad, "0 FROB 0x10 64\nnot a trace line\n").unwrap();
    assert_usage_error(&["replay", bad.to_str().unwrap()]);
    // A missing file is the same class of error, not a panic.
    assert_usage_error(&["replay", "/nonexistent/trace.txt"]);
}

#[test]
fn contradictory_ras_flags_exit_2() {
    let err = assert_usage_error(&["run", "--ecc", "secded", "--requests", "100"]);
    assert!(err.contains("--ras"), "should point at the fix: {err}");
    let err = assert_usage_error(&["replay", "x.trace", "--ecc", "none"]);
    assert!(err.contains("--ras"), "should point at the fix: {err}");
}

#[test]
fn ras_run_reports_fault_statistics() {
    let out = dramctrl()
        .args([
            "run",
            "--requests",
            "5000",
            "--gen",
            "random",
            "--reads",
            "70",
            "--ras",
            "2e11",
            "--ecc",
            "secded",
        ])
        .output()
        .unwrap();
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let text = String::from_utf8(out.stdout).unwrap();
    assert!(text.contains("requests completed : 5000"), "{text}");
    assert!(
        text.contains("RAS") && text.contains("corrected"),
        "armed run should print the RAS line: {text}"
    );
}

#[test]
fn sweep_error_rate_axis_runs_fault_free_and_faulty_jobs() {
    let dir = std::env::temp_dir().join("dramctrl-cli-test");
    std::fs::create_dir_all(&dir).unwrap();
    let jsonl = dir.join("ras-sweep.jsonl");
    let out = dramctrl()
        .args([
            "sweep",
            "--requests",
            "2000",
            "--models",
            "event,cycle",
            "--ras",
            "0,2e11",
            "--quiet",
            "--jsonl",
            jsonl.to_str().unwrap(),
        ])
        .output()
        .unwrap();
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let records = std::fs::read_to_string(&jsonl).unwrap();
    assert_eq!(records.lines().count(), 4, "2 models x 2 rates");
    assert!(
        records.contains("\"error_rate\":200000000000") && records.contains("\"error_rate\":0"),
        "JSONL should carry the error-rate axis: {records}"
    );
    assert!(
        records.contains("\"ras_corrected\""),
        "faulty jobs should report RAS metrics: {records}"
    );
    assert!(!records.contains("\"outcome\":\"failed\""), "{records}");
}

/// Flags a command would have to ignore are refused, not dropped: each
/// of these exited 0 (and simulated something else) before `run`/`replay`
/// got their own option lists.
#[test]
fn flags_a_command_cannot_honour_are_usage_errors_naming_the_flag() {
    for (args, flag) in [
        (vec!["replay", "t.trace", "--model", "cycle"], "--model"),
        (vec!["replay", "t.trace", "--requests", "5"], "--requests"),
        (vec!["record", "--policy", "closed", "-o", "x"], "--policy"),
        (
            vec!["record", "--perfetto", "p.json", "-o", "x"],
            "--perfetto",
        ),
        (
            vec!["run", "--model", "cycle", "--powerdown", "1us"],
            "--powerdown",
        ),
        (vec!["run", "--model", "cycle", "--energy"], "--energy"),
        // A token beyond the declared positionals, named in the error.
        (vec!["run", "stray", "--requests", "100"], "\"stray\""),
        (vec!["record", "-o", "x", "extra"], "\"extra\""),
        (
            vec!["sweep", "--quiet", "yes", "--requests", "10"],
            "\"yes\"",
        ),
        (
            vec!["sweep", "--requests", "10", "--csv", "true"],
            "\"true\"",
        ),
        (vec!["devices", "ddr3"], "\"ddr3\""),
        (vec!["replay", "a.trace", "b.trace"], "exactly one"),
        // Unknown, where it used to be "--bogus needs a value".
        (vec!["sweep", "--bogus"], "unknown option --bogus"),
        // `--merge` simulates nothing, so it refuses what only a run
        // can honour — all nine flags, not the five once listed by hand.
        (vec!["sweep", "--merge", "j", "--workers", "2"], "--workers"),
        (vec!["sweep", "--merge", "j", "--retries", "3"], "--retries"),
        (vec!["sweep", "--merge", "j", "--quiet"], "--quiet"),
        (
            vec!["sweep", "--merge", "j", "--metrics-json", "m"],
            "--metrics-json",
        ),
        (vec!["sweep", "--merge", "j", "--shard", "0/2"], "--shard"),
    ] {
        let err = assert_usage_error(&args);
        assert!(err.contains(flag), "{args:?} should name {flag}: {err}");
    }
    // The service commands say the same through the structured logger.
    for (args, token) in [
        (vec!["serve", "--listen", "l", "--store", "s", "now"], "now"),
        (vec!["submit", "--to", "a", "job"], "job"),
        (vec!["status", "--to", "a", "all"], "all"),
        (vec!["dispatch", "--peer", "a", "go"], "go"),
        (vec!["dispatch", "--peer", "a", "--quiet"], "--quiet"),
        (vec!["watch", "job-1", "job-2", "--to", "a"], "exactly one"),
    ] {
        let out = dramctrl().args(&args).output().unwrap();
        let err = String::from_utf8(out.stderr).unwrap();
        assert_eq!(out.status.code(), Some(2), "{args:?}: {err}");
        assert!(
            err.contains("level=error") && err.contains(token),
            "{args:?} should name {token}: {err}"
        );
    }
}

/// `dramctrl <cmd> --help` (and `-h`) print that command's options,
/// rendered from the table its parser reads, and exit 0.
#[test]
fn every_command_explains_itself() {
    let top = dramctrl().arg("help").output().unwrap();
    assert!(top.status.success());
    let top = String::from_utf8(top.stdout).unwrap();
    for (cmd, flag) in [
        ("devices", None),
        ("run", Some("--powerdown DUR")),
        ("record", Some("-o FILE")),
        ("trace-record", Some("-o FILE")),
        ("replay", Some("--restore FILE")),
        ("sweep", Some("--merge P1,P2,...")),
        ("serve", Some("--subscriber-buffer N")),
        ("submit", Some("--tenant NAME")),
        ("watch", Some("--reconnect")),
        ("status", Some("--json")),
        ("dispatch", Some("--log-level LEVEL")),
        ("version", None),
    ] {
        for help in [&["--help"][..], &["--requests", "5", "-h"]] {
            let out = dramctrl().arg(cmd).args(help).output().unwrap();
            assert_eq!(out.status.code(), Some(0), "{cmd} {help:?}");
            assert!(out.stderr.is_empty(), "{cmd} {help:?}");
            let text = String::from_utf8(out.stdout).unwrap();
            let name = cmd.trim_start_matches("trace-");
            assert!(text.starts_with(&format!("    dramctrl {name} ")), "{text}");
            if let Some(want) = flag {
                assert!(text.contains(want), "{cmd}: no {want:?} in\n{text}");
                assert!(top.contains(want), "help: no {want:?} in\n{top}");
            }
        }
    }
}

/// One wiring: what `run --seed S` prints is what the campaign runner
/// measures for the `JobSpec` with `seed = S` — same controllers, same
/// generator, same burst stream. The last case is the one that differed:
/// on a 4 KiB range queued writes are re-referenced all the time, and
/// `run` built the cycle baseline without write snooping.
#[test]
fn run_prints_what_run_job_measures_for_the_same_spec() {
    use dramctrl_campaign::{Campaign, Model, TrafficPattern};

    let (range, block) = (4096, 64);
    for (model, gen, traffic, reads) in [
        (
            "event",
            "linear",
            TrafficPattern::Linear { range, block },
            70,
        ),
        (
            "event",
            "random",
            TrafficPattern::Random { range, block },
            50,
        ),
        (
            "event",
            "dram-aware",
            TrafficPattern::DramAware {
                stride: 8,
                banks: 4,
            },
            70,
        ),
        (
            "cycle",
            "linear",
            TrafficPattern::Linear { range, block },
            70,
        ),
        (
            "cycle",
            "dram-aware",
            TrafficPattern::DramAware {
                stride: 8,
                banks: 4,
            },
            100,
        ),
        (
            "cycle",
            "random",
            TrafficPattern::Random { range, block },
            50,
        ),
    ] {
        let mut job = Campaign::new("one-wiring", 0)
            .devices(["DDR3-1600-x64"])
            .models([model.parse::<Model>().unwrap()])
            .traffic([traffic])
            .read_pcts([reads])
            .requests([20_000])
            .expand()
            .remove(0);
        job.seed = 9;
        let m = dramctrl_runner::run_job(&job);
        let get = |name: &str| m.get(name).unwrap();

        let reads = reads.to_string();
        let out = dramctrl()
            .args(["run", "--model", model, "--gen", gen, "--reads", &reads])
            .args(["--requests", "20000", "--range", "4KiB", "--seed", "9"])
            .output()
            .unwrap();
        assert!(out.status.success());
        let text = String::from_utf8(out.stdout).unwrap();
        for line in [
            format!("  reads / writes   : {} / {}", get("reads"), get("writes")),
            format!("simulated time     : {:.3} us", get("duration_ticks") / 1e6),
            format!("bandwidth          : {:.2} GB/s", get("bandwidth_gbps")),
            format!("row-hit rate       : {:.1}%", get("row_hit_rate") * 100.0),
        ] {
            assert!(
                text.contains(&line),
                "{model}/{gen}: no {line:?} in\n{text}"
            );
        }
    }
}

/// `dramctrl ... | head -1`: the reader goes away after the first line
/// and the process ends quietly — no panic, no backtrace. The sweep's
/// table (808 rows, ~100 kB) cannot fit in a pipe buffer, so its writer
/// is certain to find the pipe closed; `run` merely may.
#[test]
fn a_closed_stdout_ends_the_process_quietly() {
    use std::io::{BufRead, BufReader};
    use std::process::Stdio;

    let reads: Vec<String> = (0..=100).map(|r| r.to_string()).collect();
    let reads = reads.join(",");
    let policies = "open,closed,open-adaptive,closed-adaptive";
    let mut sweep = vec!["sweep", "--requests", "10", "--reads", &reads];
    sweep.extend(["--scheds", "fcfs,frfcfs", "--policies", policies]);
    sweep.extend(["--csv", "--quiet"]);
    for args in [&sweep[..], &["run", "--requests", "200"]] {
        let mut child = dramctrl()
            .args(args)
            .stdout(Stdio::piped())
            .stderr(Stdio::piped())
            .spawn()
            .unwrap();
        let mut stdout = BufReader::with_capacity(64, child.stdout.take().unwrap());
        let mut first = String::new();
        stdout.read_line(&mut first).unwrap();
        assert!(!first.is_empty(), "{args:?} printed nothing");
        drop(stdout);
        let out = child.wait_with_output().unwrap();
        let err = String::from_utf8(out.stderr).unwrap();
        assert!(
            !err.contains("panicked") && !err.contains("Broken pipe"),
            "{args:?}: {err}"
        );
    }
}
