//! CI gate for the RAS subsystem: exercises fault injection, ECC and
//! retry on **both** controller models, each run through the runner's
//! `SimRun` as `dramctrl run --ras` has it, and asserts
//!
//! 1. a fault-free (`ras: None` vs zero-rate `RasConfig`) run is
//!    **byte-identical** through the CLI-visible report surface on both
//!    models — the zero-cost guarantee,
//! 2. a short faulty run at single-bit rates under SEC-DED corrects a
//!    nonzero number of errors and goes silent only on the modelled
//!    multi-symbol syndrome alias (never on a single-symbol fault),
//!    again on both models,
//! 3. a run with link errors retries and still completes every request,
//! 4. seeded faulty runs are byte-for-byte deterministic: their reports
//!    and their traces, which mark every fault where it struck.
//!
//! Exits non-zero on any violation. `--out FILE` writes the faulty-run
//! RAS stats JSON for artifact upload; `--requests N` scales the
//! workload.

use dramctrl::{EccMode, PagePolicy, RasConfig};
use dramctrl_campaign::Model;
use dramctrl_mem::presets;
use dramctrl_runner::{Finished, SimRun, Wiring};
use dramctrl_traffic::{RandomGen, Tester};

/// Drops ras_* entries and per-line JSON closers so fault-free reports
/// can be compared against unarmed ones.
fn strip_ras(json: &str) -> String {
    json.lines()
        .filter(|l| !l.contains("\"ras_"))
        .map(|l| l.trim_end_matches("]}").trim_end_matches(','))
        .collect::<Vec<_>>()
        .join("\n")
}

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
    let tester = Tester::new(1_000_000, 1_000);
    // The workload on `w`, observed at `epochs` (0 = unobserved).
    let run = |w: Wiring, epochs| -> Finished {
        let gen = RandomGen::new(0, 64 << 20, 64, 70, 0, requests, 42);
        let sim = SimRun::start(w, Box::new(gen), &tester, epochs);
        sim.expect("valid config")
            .advance(None)
            .expect("runs to the end")
    };
    // `model`, open-adaptive pages, with `ras` armed.
    let wiring = |model, ras| {
        let mut w = Wiring::new(spec.clone(), model);
        (w.ctrl.page_policy, w.ctrl.ras) = (PagePolicy::OpenAdaptive, ras);
        w
    };
    let models = [("event", Model::Event), ("cycle", Model::Cycle)];

    // 1. Fault-free transparency, both models.
    for (model, m) in models {
        let plain = run(wiring(m, None), 0);
        let armed = run(wiring(m, Some(RasConfig::new(7))), 0); // all rates zero
        let (sp, sa) = (&plain.summary, &armed.summary);
        assert_eq!(
            sp.duration, sa.duration,
            "{model}: RAS changed the duration"
        );
        assert_eq!(
            strip_ras(&plain.report().to_json()),
            strip_ras(&armed.report().to_json()),
            "{model}: zero-rate RAS perturbed the report"
        );
    }
    println!("fault-free transparency: OK on both models ({requests} requests)");

    // 2 + 4. Faulty runs at single-bit rates under SEC-DED, both models:
    // corrected > 0, silent == 0, deterministic across repeats.
    let ras = RasConfig::from_error_rate(2e11, 0xBEEF).with_ecc(EccMode::SecDed);
    let mut stats_artifact = String::new();
    for (model, m) in models {
        let faulty = || {
            let done = run(wiring(m, Some(ras.clone())), 1_000_000);
            (done.report(), done.into_artifacts().expect("observed"))
        };
        let ((r1, art1), (r2, art2)) = (faulty(), faulty());
        assert_eq!(
            r1.to_json(),
            r2.to_json(),
            "{model}: faulty run not deterministic"
        );
        assert!(art1 == art2, "{model}: fault trace not deterministic");
        let corrected = r1.get("ras_corrected").expect("ras_corrected in report");
        let silent = r1.get("ras_silent").expect("ras_silent in report");
        let rank_failures = r1.get("ras_rank_failures").unwrap_or(0.0);
        assert!(corrected > 0.0, "{model}: SEC-DED corrected no errors");
        // SEC-DED never misses a single-symbol fault; the only silent
        // outcomes allowed are the modelled 1-in-16 syndrome alias on
        // multi-symbol rank failures.
        assert!(
            silent <= rank_failures,
            "{model}: {silent} silent events but only {rank_failures} rank failures — \
             a single-symbol fault escaped SEC-DED"
        );
        println!(
            "faulty run ({model}): OK ({corrected} corrected, {silent} silent of \
             {rank_failures} multi-symbol, {} RAS marks traced)",
            art1.perfetto_json.matches("\"cat\":\"ras\"").count()
        );
        stats_artifact.push_str(&r1.to_json());
    }

    // 3. Link errors: bounded retry completes every request.
    {
        let mut link = RasConfig::new(0x5EED);
        link.link_error_rate = 0.02;
        let mut w = Wiring::new(spec.clone(), Model::Event);
        w.ctrl.ras = Some(link);
        let done = run(w, 0);
        let s = &done.summary;
        assert_eq!(
            s.reads_completed + s.writes_completed + s.dropped,
            requests,
            "event: link-error retries lost requests"
        );
        let r = done.report();
        assert!(
            r.get("ras_retries").expect("ras_retries") > 0.0,
            "event: no retries at a 2% link error rate"
        );
        println!(
            "link retries (event): OK ({} retries, every request completed)",
            r.get("ras_retries").unwrap()
        );
    }

    if let Some(path) = out {
        std::fs::write(&path, &stats_artifact).unwrap_or_else(|e| panic!("writing {path:?}: {e}"));
        println!("wrote RAS stats to {path}");
    }
}
