//! CI gate for the instrumentation layer: runs the same short workload
//! through the runner's `SimRun` once unobserved and once observed (live
//! Chrome-trace + epoch probes, as `dramctrl run --perfetto` has them),
//! then asserts
//!
//! 1. the rendered statistics reports are **byte-identical** (the
//!    zero-perturbation guarantee, end to end through the CLI-visible
//!    surface),
//! 2. the emitted Perfetto JSON is a valid JSON document with at least
//!    one track per (rank, bank) plus request and per-rank power tracks,
//! 3. the epoch time-series is non-trivial and parseable.
//!
//! Exits non-zero on any violation. `--out FILE` writes the trace for
//! artifact upload; `--requests N` scales the workload.

use dramctrl::PagePolicy;
use dramctrl_campaign::Model;
use dramctrl_mem::presets;
use dramctrl_runner::{SimRun, Wiring};
use dramctrl_traffic::{RandomGen, Tester};

fn main() {
    let mut requests: u64 = 20_000;
    let mut out: Option<String> = None;
    let mut args = std::env::args().skip(1);
    while let Some(a) = args.next() {
        match a.as_str() {
            "--requests" => {
                requests = args
                    .next()
                    .and_then(|v| v.parse().ok())
                    .expect("--requests needs a number");
            }
            "--out" => out = Some(args.next().expect("--out needs a path")),
            other => panic!("unknown argument {other:?}"),
        }
    }

    let spec = presets::ddr3_1333_x64();
    let mut wiring = Wiring::new(spec.clone(), Model::Event);
    wiring.ctrl.page_policy = PagePolicy::OpenAdaptive;
    // Exercise the power-state tracks too.
    wiring.ctrl.powerdown_idle = 500_000;
    let tester = Tester::new(1_000_000, 1_000);
    // Unobserved (`epochs` 0) or observed with 1 us epochs.
    let run = |epochs| {
        let gen = RandomGen::new(0, 64 << 20, 64, 70, 0, requests, 42);
        let sim = SimRun::start(wiring.clone(), Box::new(gen), &tester, epochs);
        sim.expect("valid config")
            .advance(None)
            .expect("runs to the end")
    };

    // Untraced reference run.
    let plain = run(0);
    let stats_plain = plain.report().to_json();

    // Traced run: Chrome tracer + 1 us epochs.
    let traced = run(1_000_000);
    let duration = traced.summary.duration;
    let art = traced.into_artifacts().expect("an observed run renders");
    let stats_traced = art.stats_json;

    assert_eq!(
        plain.summary.duration, duration,
        "tracing changed the simulated duration"
    );
    assert!(
        stats_plain == stats_traced,
        "tracing perturbed the statistics report:\n--- untraced ---\n{stats_plain}\n--- traced ---\n{stats_traced}"
    );
    println!(
        "zero-perturbation: OK ({} stats bytes identical over {} requests)",
        stats_plain.len(),
        requests
    );

    let trace_json = art.perfetto_json;
    dramctrl_obs::json::validate(&trace_json)
        .unwrap_or_else(|e| panic!("Perfetto trace is not valid JSON: {e}"));
    for rank in 0..spec.org.ranks {
        for bank in 0..spec.org.banks {
            let track = format!("rank {rank} bank {bank}");
            assert!(
                trace_json.contains(&track),
                "trace is missing the {track} track"
            );
        }
        let power = format!("rank {rank} power");
        assert!(
            trace_json.contains(&power),
            "trace is missing the {power} track"
        );
    }
    assert!(
        trace_json.contains("\"requests\""),
        "trace is missing the request-flow track"
    );
    for needle in ["\"ACT\"", "\"PRE\"", "\"RD\"", "\"WR\"", "\"REF\""] {
        assert!(trace_json.contains(needle), "trace has no {needle} slices");
    }
    println!(
        "perfetto: OK ({} events, {} bytes, {} banks x {} ranks tracked)",
        trace_json.matches("\"cat\":").count(),
        trace_json.len(),
        spec.org.banks,
        spec.org.ranks
    );

    let rows: Vec<&str> = art.epochs_jsonl.lines().collect();
    assert!(
        rows.len() > 1,
        "expected multiple epochs, got {}",
        rows.len()
    );
    assert!(
        rows.iter().any(|r| !r.contains("\"bytes_read\":0,")),
        "no epoch recorded read traffic"
    );
    for line in &rows {
        dramctrl_obs::json::validate(line).expect("valid epoch JSONL row");
    }
    println!("epochs: OK ({} rows)", rows.len());

    if let Some(path) = out {
        std::fs::write(&path, &trace_json).unwrap_or_else(|e| panic!("writing {path:?}: {e}"));
        println!("wrote trace to {path}");
    }
}
