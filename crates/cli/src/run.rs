//! `run`, `record` and `replay`: flags become a [`Wiring`], a traffic
//! generator and a checkpoint fingerprint, and `dramctrl-runner` does the
//! rest — these commands build no controller of their own.

use crate::args::{
    parse_device, parse_duration, parse_ecc, parse_mapping, parse_policy, parse_ras_rate,
    parse_sched, parse_size, ArgError, Args,
};
use dramctrl::RasConfig;
use dramctrl_campaign::Model;
use dramctrl_kernel::fsio::write_atomic;
use dramctrl_kernel::snap::fingerprint;
use dramctrl_kernel::Tick;
use dramctrl_mem::MemSpec;
use dramctrl_power::{drampower_energy, micron_power};
use dramctrl_runner::{Finished, JobArtifacts, SimRun, Wiring};
use dramctrl_traffic::{
    DramAwareGen, LinearGen, RandomGen, SnapGen, TestSummary, Tester, TraceEntry, TraceGen,
    TrafficGen,
};
use std::path::Path;

/// Flags that shape the request stream (`run`, `record`).
const WORKLOAD_OPTS: &[&str] = &[
    "device", "gen", "reads", "requests", "period", "range", "block", "stride", "banks", "mapping",
    "seed",
];

/// Flags that shape the controller, what is observed of it and where it
/// pauses (`run`, `replay`; `--seed` also seeds the fault model).
const SIM_OPTS: &[&str] = &[
    "device",
    "policy",
    "sched",
    "mapping",
    "seed",
    "ras",
    "ecc",
    "perfetto",
    "epochs",
    "epochs-out",
    "stats-json",
    "checkpoint",
    "checkpoint-at",
    "restore",
];

/// Observability outputs requested on the command line.
struct ObsOpts {
    perfetto: Option<String>,
    epochs_out: Option<String>,
    stats_json: Option<String>,
    /// The epoch interval to start the run with: `0` — unobserved, no
    /// probe compiled into the controller — unless some output was asked
    /// for.
    epochs: Tick,
}

impl ObsOpts {
    fn parse(a: &Args) -> Result<Self, ArgError> {
        let interval = parse_duration(a.get("epochs").unwrap_or("1us"))?;
        if interval == 0 {
            return Err(ArgError("--epochs interval must be non-zero".into()));
        }
        // --epochs alone picks the default output path; --epochs-out alone
        // uses the default 1 us interval.
        let epochs_out = match (a.get("epochs-out"), a.get("epochs")) {
            (Some(path), _) => Some(path.to_owned()),
            (None, Some(_)) => Some("epochs.csv".to_owned()),
            (None, None) => None,
        };
        let perfetto = a.get("perfetto").map(str::to_owned);
        let stats_json = a.get("stats-json").map(str::to_owned);
        let observed = perfetto.is_some() || epochs_out.is_some() || stats_json.is_some();
        Ok(Self {
            perfetto,
            epochs_out,
            stats_json,
            epochs: if observed { interval } else { 0 },
        })
    }

    /// Writes the requested files from a finished observed run.
    fn write(&self, art: &JobArtifacts) -> Result<(), ArgError> {
        let epochs = match &self.epochs_out {
            Some(path) if path.ends_with(".jsonl") => &art.epochs_jsonl,
            _ => &art.epochs_csv,
        };
        for (what, path, text) in [
            ("statistics report", &self.stats_json, &art.stats_json),
            (
                "Perfetto trace (open at https://ui.perfetto.dev)",
                &self.perfetto,
                &art.perfetto_json,
            ),
            ("epoch series", &self.epochs_out, epochs),
        ] {
            if let Some(path) = path {
                write_atomic(path, text).map_err(|e| ArgError(format!("writing {path:?}: {e}")))?;
                eprintln!("wrote {what} to {path}");
            }
        }
        Ok(())
    }
}

/// Builds the optional fault model config from `--ras` / `--ecc`.
/// `--ecc` alone is rejected: an ECC mode without a fault rate has no
/// observable effect, so the contradiction is surfaced instead of
/// silently ignored.
fn parse_ras_config(a: &Args) -> Result<Option<RasConfig>, ArgError> {
    match (a.get("ras"), a.get("ecc")) {
        (None, None) => Ok(None),
        (None, Some(_)) => Err(ArgError(
            "--ecc has no effect without --ras RATE; add --ras or drop --ecc".into(),
        )),
        (Some(rate), ecc) => {
            let seed: u64 = a.parse_or("seed", 1u64)?;
            let mut ras = RasConfig::from_error_rate(parse_ras_rate(rate)?, seed);
            if let Some(mode) = ecc {
                ras = ras.with_ecc(parse_ecc(mode)?);
            }
            Ok(Some(ras))
        }
    }
}

/// The single-channel simulator the `SIM_OPTS` flags describe, of
/// `model`, powering down after `powerdown_idle`.
fn parse_wiring(a: &Args, model: Model, powerdown_idle: Tick) -> Result<Wiring, ArgError> {
    Ok(Wiring {
        spec: parse_device(a.get("device").unwrap_or("ddr3-1600-x64"))?,
        model,
        policy: parse_policy(a.get("policy").unwrap_or("open"))?,
        sched: parse_sched(a.get("sched").unwrap_or("frfcfs"))?,
        mapping: parse_mapping(a.get("mapping").unwrap_or("rorabacoch"))?,
        channels: 1,
        ras: parse_ras_config(a)?,
        powerdown_idle,
    })
}

/// The generator the `WORKLOAD_OPTS` flags describe, and a canonical
/// description of every parameter that shapes its request stream — one
/// input to the checkpoint fingerprint.
fn build_workload(a: &Args) -> Result<(Box<dyn SnapGen>, String), ArgError> {
    let spec = parse_device(a.get("device").unwrap_or("ddr3-1600-x64"))?;
    let reads: u8 = a.parse_or("reads", 100u8)?;
    if reads > 100 {
        return Err(ArgError("--reads must be 0..=100".into()));
    }
    let requests: u64 = a.parse_or("requests", 100_000u64)?;
    let period = parse_duration(a.get("period").unwrap_or("0"))?;
    let range = parse_size(a.get("range").unwrap_or("256MiB"))?;
    let block: u32 = a.parse_or("block", 64u32)?;
    let stride: u64 = a.parse_or("stride", 8u64)?;
    let banks: u32 = a.parse_or("banks", 4u32)?;
    let seed: u64 = a.parse_or("seed", 1u64)?;
    let mapping = parse_mapping(a.get("mapping").unwrap_or("rorabacoch"))?;
    let gen_name = a.get("gen").unwrap_or("linear");
    let gen: Box<dyn SnapGen> = match gen_name {
        "linear" => Box::new(LinearGen::new(
            0, range, block, reads, period, requests, seed,
        )),
        "random" => Box::new(RandomGen::new(
            0, range, block, reads, period, requests, seed,
        )),
        "dram-aware" | "dram_aware" => Box::new(DramAwareGen::new(
            spec.org, mapping, 1, 0, stride, banks, reads, period, requests, seed,
        )),
        other => return Err(ArgError(format!("unknown generator {other:?}"))),
    };
    let desc = format!(
        "device={} gen={gen_name} reads={reads} requests={requests} period={period} \
         range={range} block={block} stride={stride} banks={banks} seed={seed} \
         mapping={mapping:?}",
        spec.name
    );
    Ok((gen, desc))
}

/// What `run` and `replay` share once they know what to simulate: start
/// the runner's simulation of `gen` on `wiring` — observed iff an output
/// was asked for — restore into it and pause it as the checkpoint flags
/// say (`config` is what a snapshot must match: its hash is the
/// checkpoint fingerprint), then print the summary under `title`, let
/// `epilogue` add to it, and write the observability files. A run that
/// pauses writes its snapshot and prints nothing.
fn simulate(
    a: &Args,
    wiring: Wiring,
    gen: Box<dyn SnapGen>,
    config: &str,
    title: &str,
    epilogue: impl FnOnce(&mut Finished, &MemSpec),
) -> Result<(), ArgError> {
    let obs = ObsOpts::parse(a)?;
    let at = (a.get("checkpoint-at").map(str::parse::<u64>).transpose())
        .map_err(|_| ArgError("--checkpoint-at: cannot parse injection count".into()))?;
    if a.get("checkpoint").is_some() != at.is_some() {
        let why = "--checkpoint FILE (where to write) and --checkpoint-at N (where to pause) \
                   need each other";
        return Err(ArgError(why.into()));
    }
    let (fp, spec) = (fingerprint(config.as_bytes()), wiring.spec.clone());
    // The tester's latency range and bucket count pin the printed
    // quantiles.
    let tester = Tester::new(1_000_000, 10_000);
    let mut run = SimRun::start(wiring, gen, &tester, obs.epochs).map_err(ArgError)?;
    if let Some(path) = a.get("restore") {
        let bytes = std::fs::read(path)
            .map_err(|e| ArgError(format!("reading checkpoint {path:?}: {e}")))?;
        run.restore(&bytes, fp)
            .map_err(|e| ArgError(format!("cannot restore checkpoint {path:?}: {e}")))?;
        eprintln!(
            "restored checkpoint {path} ({} requests already injected)",
            run.injected()
        );
    }
    let Some(mut finished) = run.advance(at) else {
        let path = a.get("checkpoint").expect("only --checkpoint-at pauses");
        run.save(Path::new(path), fp)
            .map_err(|e| ArgError(format!("writing checkpoint {path:?}: {e}")))?;
        eprintln!(
            "checkpoint written to {path} at {} injected requests; \
             continue with --restore {path}",
            run.injected()
        );
        return Ok(());
    };
    println!("== {title} ==");
    print_summary(&finished.summary, &spec);
    if let Some(ras) = &finished.ras {
        let get = |name: &str| ras.get(name).copied().unwrap_or(0);
        println!(
            "RAS                : {} corrected, {} uncorrectable, {} silent, {} retries, {} row remaps, {} rank(s) offlined",
            get("ras_corrected"),
            get("ras_uncorrected"),
            get("ras_silent"),
            get("ras_retries"),
            get("ras_row_remaps"),
            get("ras_ranks_offlined"),
        );
    }
    epilogue(&mut finished, &spec);
    finished
        .into_artifacts()
        .map_or(Ok(()), |art| obs.write(&art))
}

fn print_summary(s: &TestSummary, spec: &MemSpec) {
    println!(
        "requests completed : {}",
        s.reads_completed + s.writes_completed
    );
    println!(
        "  reads / writes   : {} / {}",
        s.reads_completed, s.writes_completed
    );
    println!("simulated time     : {:.3} us", s.duration as f64 / 1e6);
    println!(
        "bandwidth          : {:.2} GB/s of {:.2} GB/s peak ({:.1}% bus)",
        s.bandwidth_gbps,
        spec.peak_bandwidth_gbps(),
        s.bus_util * 100.0
    );
    println!(
        "read latency       : mean {:.1} ns, p50 {} ns, p95 {} ns, p99 {} ns",
        s.read_lat_ns.mean(),
        s.read_lat_ns.quantile(0.5).unwrap_or(0),
        s.read_lat_ns.quantile(0.95).unwrap_or(0),
        s.read_lat_ns.quantile(0.99).unwrap_or(0),
    );
    println!(
        "row-hit rate       : {:.1}%",
        s.ctrl.page_hit_rate() * 100.0
    );
}

pub fn run(argv: Vec<String>) -> Result<(), ArgError> {
    let a = Args::parse(argv, &["energy"])?;
    a.ensure_known(&[WORKLOAD_OPTS, SIM_OPTS, &["model", "powerdown", "energy"]].concat())?;
    let (gen, workload) = build_workload(&a)?;
    let model: Model = (a.get("model").unwrap_or("event").parse()).map_err(ArgError)?;
    if model == Model::Cycle {
        for flag in ["powerdown", "energy"] {
            if a.get(flag).is_some() || a.switch(flag) {
                return Err(ArgError(format!(
                    "--{flag} needs --model event: the cycle baseline has no low-power states"
                )));
            }
        }
    }
    let powerdown = a.get("powerdown").unwrap_or("0");
    let wiring = parse_wiring(&a, model, parse_duration(powerdown)?)?;
    let (model, title) = match model {
        Model::Event => ("event", "event-based model"),
        // Write snooping changes the burst stream, so it is part of what a
        // cycle snapshot belongs to: one written before `run` adopted the
        // runner's snooping baseline is refused, not resumed.
        Model::Cycle => ("cycle write_snooping=on", "cycle-based baseline"),
    };
    // Everything that shapes the simulation, so a snapshot can only be
    // restored by the command line that matches it.
    let config = format!(
        "run model={model} policy={:?} sched={:?} ras={:?} powerdown={powerdown} {workload}",
        wiring.policy, wiring.sched, wiring.ras
    );
    let title = format!("{} ({title})", wiring.spec.name);
    simulate(&a, wiring, gen, &config, &title, |finished, spec| {
        let act = finished.activity();
        println!(
            "DRAM power         : {:.1} mW",
            micron_power(spec, &act).total_mw()
        );
        if a.switch("energy") {
            println!();
            print!("{}", drampower_energy(spec, &act).report("energy"));
        }
    })
}

pub fn record(argv: Vec<String>) -> Result<(), ArgError> {
    let a = Args::parse(argv, &[])?;
    a.ensure_known(&[WORKLOAD_OPTS, &["o"]].concat())?;
    let out_path = (a.get("o")).ok_or_else(|| ArgError("record needs -o/--o FILE".into()))?;
    let (mut gen, _) = build_workload(&a)?;
    let mut entries = Vec::new();
    while let Some((tick, req)) = gen.next_request() {
        entries.push(TraceEntry {
            tick,
            cmd: req.cmd,
            addr: req.addr,
            size: req.size,
        });
    }
    write_atomic(out_path, TraceGen::to_text(&entries))
        .map_err(|e| ArgError(format!("writing {out_path:?}: {e}")))?;
    println!("wrote {} requests to {}", entries.len(), out_path);
    Ok(())
}

pub fn replay(argv: Vec<String>) -> Result<(), ArgError> {
    let a = Args::parse(argv, &[])?;
    a.ensure_known(SIM_OPTS)?;
    let [path] = a.positional() else {
        return Err(ArgError("replay needs exactly one trace file".into()));
    };
    // Validate the flag set before touching the filesystem so a
    // contradictory invocation is diagnosed as such even when the trace
    // path is also bad.
    let wiring = parse_wiring(&a, Model::Event, 0)?;
    let text =
        std::fs::read_to_string(path).map_err(|e| ArgError(format!("reading {path:?}: {e}")))?;
    let trace: TraceGen = text.parse().map_err(|e| ArgError(format!("{e}")))?;
    // The trace *contents* (not the file name) are part of what a
    // snapshot must match: restoring against an edited trace is refused.
    let config = format!(
        "replay trace={:#018x} device={} policy={:?} sched={:?} mapping={:?} ras={:?}",
        fingerprint(text.as_bytes()),
        wiring.spec.name,
        wiring.policy,
        wiring.sched,
        wiring.mapping,
        wiring.ras,
    );
    let title = format!("replay of {path} on {}", wiring.spec.name);
    simulate(&a, wiring, Box::new(trace), &config, &title, |_, _| {})
}
