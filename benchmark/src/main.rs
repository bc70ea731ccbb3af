//! The repo's benchmark: six workloads from the event kernel to a daemon
//! fleet, end-to-end metrics with bounds, per-layer metrics from a
//! traced run, correctness checks, and `compare`.
//!
//! ```text
//! perfbench run --workload W --seed N --seconds S --trace 0|1
//! perfbench run [--seed N] [--seconds S] [--runs K] [--trace 0|1] [--out FILE]
//! perfbench compare A.json B.json
//! ```
//!
//! With `--workload`, one workload runs in this process and the last
//! line of standard output is its result as one JSON object. Without,
//! every workload runs, untraced and traced, each in a process of its
//! own (so peak memory is per workload), `--runs` times on consecutive
//! seeds, and the results are written to one file `compare` reads.
//! Everything the program under test does is driven in-process through
//! its public functions; nothing under `crates/` knows this exists.

mod calib;
mod compare;
mod host;
mod report;
mod span;
mod stats;
mod workloads;

use host::Host;
use std::io::Write as _;
use std::path::{Path, PathBuf};
use std::process::{Command, ExitCode, Stdio};
use workloads::{Ctx, NAMES};

const OUT_DIR: &str = "benchmark/out";

struct Args {
    workload: Option<String>,
    seed: u64,
    seconds: f64,
    /// `None`: both the untraced and the traced run.
    trace: Option<bool>,
    runs: u64,
    out: Option<String>,
}

fn parse_run_args(args: &[String]) -> Result<Args, String> {
    let mut a = Args {
        workload: None,
        seed: 1,
        seconds: 16.0,
        trace: None,
        runs: 1,
        out: None,
    };
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or_else(|| format!("{flag} needs a value"));
        let bad = |v: &str| format!("{flag}: cannot read '{v}'");
        match flag.as_str() {
            "--workload" => a.workload = Some(value()?.clone()),
            "--seed" => a.seed = value().and_then(|v| v.parse().map_err(|_| bad(v)))?,
            "--seconds" => a.seconds = value().and_then(|v| v.parse().map_err(|_| bad(v)))?,
            "--runs" => a.runs = value().and_then(|v| v.parse().map_err(|_| bad(v)))?,
            "--out" => a.out = Some(value()?.clone()),
            "--trace" => {
                a.trace = Some(match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    v => return Err(bad(v)),
                });
            }
            other => return Err(format!("unknown argument '{other}'")),
        }
    }
    if !(a.seconds > 0.0 && a.seconds <= 600.0) {
        return Err("--seconds must be in (0, 600]".to_owned());
    }
    if a.runs == 0 {
        return Err("--runs must be at least 1".to_owned());
    }
    Ok(a)
}

/// One workload in this process. Prints every metric by name with its
/// unit, the checks, and the result line last.
fn run_one(name: &str, a: &Args) -> Result<bool, String> {
    let trace = a.trace.unwrap_or(false);
    // Daemon and coordinator logfmt would otherwise land in the timings.
    dramctrl_obs::log::set_level(dramctrl_obs::log::Level::Error);
    let workdir = PathBuf::from(OUT_DIR).join(format!("work-{}", std::process::id()));
    std::fs::create_dir_all(&workdir).map_err(|e| format!("{}: {e}", workdir.display()))?;
    let mut ctx = Ctx {
        seed: a.seed,
        seconds: a.seconds,
        trace,
        host: Host::probe(&workdir),
        workdir: workdir.clone(),
        recorder: span::Recorder::new(),
        timer: if trace {
            span::Timer::calibrate()
        } else {
            span::Timer::default()
        },
        daemons: Vec::new(),
    };
    let result = workloads::run(name, &mut ctx).and_then(|outcome| {
        let rows = outcome.rows(trace)?;
        let line = outcome.result_line(trace)?;
        let stamp = ctx.host.to_json(a.seed);
        if trace {
            let path = format!("{OUT_DIR}/trace-{name}.json");
            let json = ctx.recorder.to_json(name, &stamp);
            dramctrl_obs::json::validate(&json).map_err(|e| format!("trace json: {e}"))?;
            std::fs::write(&path, json).map_err(|e| format!("{path}: {e}"))?;
            println!(
                "trace: {path} ({} spans, {} folded)",
                ctx.recorder.spans.len(),
                ctx.recorder.folded.len()
            );
        }
        println!(
            "workload: {name} (trace {}, {} s)",
            u8::from(trace),
            a.seconds
        );
        println!("host: {stamp}");
        for note in &outcome.notes {
            println!("note: {note}");
        }
        for c in &outcome.checks {
            println!(
                "check: {} {}",
                if c.ok { "ok    " } else { "FAILED" },
                c.what
            );
        }
        for (metric, value, unit) in rows {
            println!("{metric} = {value} {unit}");
        }
        println!("{line}");
        Ok(outcome.correct())
    });

    // Stores, journals and sockets go with the run. A daemon can only
    // be stopped by `Client::shutdown`, which exits the process with
    // code 0 — so connect first (the socket file is about to go), clean
    // up, and make the shutdown the last thing a correct run does.
    let mut control = ctx
        .daemons
        .first()
        .and_then(|addr| dramctrl_serve::Client::connect(addr).ok());
    let _ = std::fs::remove_dir_all(&workdir);
    let _ = std::io::stdout().flush();
    if let (Ok(true), Some(daemon)) = (&result, control.as_mut()) {
        let _ = daemon.shutdown();
    }
    result
}

/// The last line of a child's output, checked to be a result object.
fn result_line_of(stdout: &str) -> Result<&str, String> {
    let line = stdout.lines().last().unwrap_or_default();
    dramctrl_obs::json::validate(line).map_err(|e| format!("result line: {e}"))?;
    if !line.starts_with("{\"correct\":") {
        return Err("no result line".to_owned());
    }
    Ok(line)
}

/// Every workload, each in its own process, `runs` times.
fn run_all(a: &Args) -> Result<bool, String> {
    let exe = std::env::current_exe().map_err(|e| format!("current_exe: {e}"))?;
    std::fs::create_dir_all(OUT_DIR).map_err(|e| format!("{OUT_DIR}: {e}"))?;
    let out_path = a
        .out
        .clone()
        .unwrap_or_else(|| format!("{OUT_DIR}/results-seed{}.json", a.seed));
    let traces: &[bool] = match a.trace {
        None => &[false, true],
        Some(false) => &[false],
        Some(true) => &[true],
    };
    let mut entries = Vec::new();
    let mut all_correct = true;
    for seed in a.seed..a.seed + a.runs {
        for name in NAMES {
            for &trace in traces {
                let output = Command::new(&exe)
                    .args(["run", "--workload", name])
                    .args(["--seed", &seed.to_string()])
                    .args(["--seconds", &a.seconds.to_string()])
                    .args(["--trace", if trace { "1" } else { "0" }])
                    .stderr(Stdio::inherit())
                    .output()
                    .map_err(|e| format!("spawning {name}: {e}"))?;
                let stdout = String::from_utf8_lossy(&output.stdout);
                print!("{stdout}");
                println!();
                if !output.status.success() {
                    all_correct = false;
                    eprintln!(
                        "{name} (seed {seed}, trace {}) failed: {}",
                        u8::from(trace),
                        output.status
                    );
                    continue;
                }
                let line = result_line_of(&stdout).map_err(|e| format!("{name}: {e}"))?;
                entries.push(format!(
                    "{{\"workload\":\"{name}\",\"seed\":{seed},\"trace\":{},\"result\":{line}}}",
                    u8::from(trace)
                ));
            }
        }
    }
    let stamp = Host::probe(Path::new(OUT_DIR)).to_json(a.seed);
    let doc = format!(
        "{{\"host\":{stamp},\"seconds\":{},\"runs\":[\n{}\n]}}\n",
        a.seconds,
        entries.join(",\n")
    );
    dramctrl_obs::json::validate(&doc).map_err(|e| format!("results json: {e}"))?;
    std::fs::write(&out_path, doc).map_err(|e| format!("{out_path}: {e}"))?;
    println!("results: {out_path} ({} runs)", entries.len());
    Ok(all_correct)
}

fn real_main() -> Result<bool, String> {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match args.first().map(String::as_str) {
        Some("run") => {
            let a = parse_run_args(&args[1..])?;
            match &a.workload {
                Some(name) => run_one(name, &a),
                None => run_all(&a),
            }
        }
        Some("compare") => match &args[1..] {
            [a, b] => compare::compare(a, b),
            _ => Err("usage: compare A.json B.json".to_owned()),
        },
        _ => Err(
            "usage: perfbench run [--workload W] [--seed N] [--seconds S] [--trace 0|1] \
             [--runs K] [--out FILE] | perfbench compare A.json B.json"
                .to_owned(),
        ),
    }
}

fn main() -> ExitCode {
    match real_main() {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::FAILURE,
        Err(e) => {
            eprintln!("perfbench: {e}");
            ExitCode::from(2)
        }
    }
}
