//! `run`, `record` and `replay`: flags become a [`Wiring`], a traffic
//! generator and a checkpoint fingerprint, and `dramctrl-runner` does the
//! rest — these commands build no controller of their own.

use crate::args::{
    check_banks, err, parse_device, parse_duration, parse_ecc, parse_epochs, parse_gen,
    parse_ras_rate, parse_size, ArgError, Args, Group, Opt,
};
use crate::write_output;
use dramctrl::RasConfig;
use dramctrl_campaign::{Model, TrafficPattern};
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

#[rustfmt::skip]
pub const DEVICE: Group = Group { heading: "DEVICE OPTIONS", opts: &[
    Opt::new("device", "NAME", "device preset").or("ddr3-1600-x64"),
    Opt::new("mapping", "M", "field order, each of Ro Ra Ba Co Ch once").or("RoRaBaCoCh"),
    Opt::new("seed", "N", "RNG seed").or("1"),
]};

#[rustfmt::skip]
pub const WORKLOAD: Group = Group { heading: "WORKLOAD OPTIONS — the request stream", opts: &[
    Opt::new("gen", "linear|random|dram-aware", "traffic pattern").or("linear"),
    Opt::new("reads", "PCT", "read percentage 0..100").or("100"),
    Opt::new("requests", "N", "number of requests").or("100000"),
    Opt::new("period", "DUR", "inter-transaction time, e.g. 10ns; 0 = saturate").or("0"),
    Opt::new("range", "SIZE", "address range, e.g. 256MiB").or("256MiB"),
    Opt::new("block", "SIZE", "request size in bytes").or("64"),
    Opt::new("stride", "N", "dram-aware: sequential bursts per row").or("8"),
    Opt::new("banks", "N", "dram-aware: banks targeted").or("4"),
]};

#[rustfmt::skip]
pub const CONTROLLER: Group = Group { heading: "CONTROLLER OPTIONS — the simulator; anything else is a usage error, so `replay --model cycle` or `record --policy closed` exit 2", opts: &[
    Opt::new("policy", "P", "open|open-adaptive|closed|closed-adaptive").or("open"),
    Opt::new("sched", "S", "fcfs|frfcfs").or("frfcfs"),
]};

#[rustfmt::skip]
pub const MODEL: Group = Group { heading: "MODEL OPTIONS — replay always uses the event model", opts: &[
    Opt::new("model", "event|cycle", "controller model").or("event"),
    Opt::new("powerdown", "DUR", "event model only: power down after this idle time; 0 = never").or("0"),
    Opt::new("energy", "", "event model only: also print the DRAMPower-style energy breakdown"),
]};

#[rustfmt::skip]
pub const RAS: Group = Group { heading: "RAS OPTIONS — faults are seeded by --seed and deterministic", opts: &[
    Opt::new("ras", "RATE", "inject faults at RATE transient upsets per gigabit-hour (e.g. 2e11); derived stuck-row, rank-failure and link-error rates scale with it"),
    Opt::new("ecc", "MODE", "none|secded|chipkill; requires --ras").or("secded"),
]};

#[rustfmt::skip]
pub const CHECKPOINT: Group = Group { heading: "CHECKPOINT OPTIONS — snapshots are deterministic: resuming in a fresh process is byte-identical to never having stopped", opts: &[
    Opt::new("checkpoint", "FILE", "write a state snapshot to FILE and stop once --checkpoint-at requests have been injected"),
    Opt::new("checkpoint-at", "N", "injection count at which to pause (requires --checkpoint)"),
    Opt::new("restore", "FILE", "resume a run from a snapshot; the command line must describe the same simulation that wrote it (a mismatch is refused)"),
]};

#[rustfmt::skip]
pub const OBS: Group = Group { heading: "OBSERVABILITY OPTIONS", opts: &[
    Opt::new("perfetto", "FILE", "write a Chrome/Perfetto trace of every DRAM command (open the file at https://ui.perfetto.dev)"),
    Opt::new("epochs", "DUR", "record an epoch time-series at this interval, e.g. 1us, written to --epochs-out").or("1us"),
    Opt::new("epochs-out", "FILE", "epoch output path; .jsonl writes JSON lines, anything else CSV").or("epochs.csv"),
    Opt::new("stats-json", "FILE", "write the full statistics report as JSON"),
]};

#[rustfmt::skip]
pub const TRACE_OUT: Group = Group { heading: "OUTPUT OPTIONS", opts: &[
    Opt::new("o", "FILE", "where to write the trace"),
]};

/// The observability files asked for — statistics report, Perfetto trace,
/// epoch series, in the order they are written — and the epoch interval
/// to start the run with: `0` (unobserved, no probe compiled into the
/// controller) unless one of them was.
fn observed(a: &Args) -> Result<([Option<&str>; 3], Tick), ArgError> {
    let interval = parse_epochs(a.value("epochs"))?;
    // Either epoch flag alone asks for the series, at the other's default.
    let series = (a.has("epochs") || a.has("epochs-out")).then(|| a.value("epochs-out"));
    let files = [a.get("stats-json"), a.get("perfetto"), series];
    let any = files.iter().any(Option::is_some);
    Ok((files, if any { interval } else { 0 }))
}

/// Writes `files` from a finished observed run.
fn write_observed(files: [Option<&str>; 3], art: &JobArtifacts) -> Result<(), ArgError> {
    let series = match files[2] {
        Some(path) if path.ends_with(".jsonl") => &art.epochs_jsonl,
        _ => &art.epochs_csv,
    };
    let perfetto = "Perfetto trace (open at https://ui.perfetto.dev)";
    for (what, path, text) in [
        ("statistics report", files[0], &art.stats_json),
        (perfetto, files[1], &art.perfetto_json),
        ("epoch series", files[2], series),
    ] {
        if let Some(path) = path {
            write_output(path, text)?;
            eprintln!("wrote {what} to {path}");
        }
    }
    Ok(())
}

/// Builds the optional fault model config from `--ras` / `--ecc`.
/// `--ecc` alone is rejected: an ECC mode without a fault rate has no
/// observable effect, so the contradiction is surfaced instead of
/// silently ignored.
fn parse_ras_config(a: &Args) -> Result<Option<RasConfig>, ArgError> {
    let Some(rate) = a.get("ras") else {
        if a.has("ecc") {
            return err("--ecc has no effect without --ras RATE; add --ras or drop --ecc");
        }
        return Ok(None);
    };
    let ras = RasConfig::from_error_rate(parse_ras_rate(rate)?, a.parsed("seed")?);
    Ok(Some(ras.with_ecc(parse_ecc(a.value("ecc"))?)))
}

/// The single-channel simulator the device, controller and RAS flags
/// describe, of `model`, powering down after `powerdown_idle`.
fn parse_wiring(a: &Args, model: Model, powerdown_idle: Tick) -> Result<Wiring, ArgError> {
    let mut w = Wiring::new(parse_device(a.value("device"))?, model);
    let c = &mut w.ctrl;
    c.page_policy = a.value("policy").parse().map_err(ArgError)?;
    c.scheduling = a.value("sched").parse().map_err(ArgError)?;
    c.mapping = a.value("mapping").parse().map_err(ArgError)?;
    (c.ras, c.powerdown_idle) = (parse_ras_config(a)?, powerdown_idle);
    Ok(w)
}

/// The generator the device and workload flags describe, and a canonical
/// description of every parameter that shapes its request stream — one
/// input to the checkpoint fingerprint.
fn build_workload(a: &Args) -> Result<(Box<dyn SnapGen>, String), ArgError> {
    let spec = parse_device(a.value("device"))?;
    let reads: u8 = a.parsed("reads")?;
    if reads > 100 {
        return Err(ArgError("--reads must be 0..=100".into()));
    }
    let requests: u64 = a.parsed("requests")?;
    let period = parse_duration(a.value("period"))?;
    let range = parse_size(a.value("range"))?;
    let block: u32 = a.parsed("block")?;
    let stride: u64 = a.parsed("stride")?;
    let banks: u32 = a.parsed("banks")?;
    let seed: u64 = a.parsed("seed")?;
    let mapping = a.value("mapping").parse().map_err(ArgError)?;
    let gen_name = a.value("gen");
    let gen: Box<dyn SnapGen> = match parse_gen(gen_name, range, block, stride, banks)? {
        TrafficPattern::Linear { .. } => Box::new(LinearGen::new(
            0, range, block, reads, period, requests, seed,
        )),
        TrafficPattern::Random { .. } => Box::new(RandomGen::new(
            0, range, block, reads, period, requests, seed,
        )),
        TrafficPattern::DramAware { .. } => {
            check_banks(&spec, banks)?;
            Box::new(DramAwareGen::new(
                spec.org, mapping, 1, 0, stride, banks, reads, period, requests, seed,
            ))
        }
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
    let (files, epochs) = observed(a)?;
    let at = (a.get("checkpoint-at").map(str::parse::<u64>).transpose())
        .map_err(|_| ArgError("--checkpoint-at: cannot parse injection count".into()))?;
    if a.get("checkpoint").is_some() != at.is_some() {
        let why = "--checkpoint FILE (where to write) and --checkpoint-at N (where to pause) \
                   need each other";
        return Err(ArgError(why.into()));
    }
    let (fp, spec) = (fingerprint(config.as_bytes()), wiring.ctrl.spec.clone());
    // The tester's latency range and bucket count pin the printed
    // quantiles.
    let tester = Tester::new(1_000_000, 10_000);
    let mut run = SimRun::start(wiring, gen, &tester, epochs).map_err(ArgError)?;
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
        .map_or(Ok(()), |art| write_observed(files, &art))
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

pub fn run(a: &Args) -> Result<(), ArgError> {
    let (gen, workload) = build_workload(a)?;
    let model: Model = a.value("model").parse().map_err(ArgError)?;
    if model == Model::Cycle {
        for flag in ["powerdown", "energy"] {
            if a.has(flag) {
                return Err(ArgError(format!(
                    "--{flag} needs --model event: the cycle baseline has no low-power states"
                )));
            }
        }
    }
    let powerdown = a.value("powerdown");
    let wiring = parse_wiring(a, model, parse_duration(powerdown)?)?;
    let (model, title) = match model {
        Model::Event => ("event", "event-based model"),
        // Write snooping changes the burst stream, so it is part of what a
        // cycle snapshot belongs to: one written before `run` adopted the
        // runner's snooping baseline is refused, not resumed.
        Model::Cycle => ("cycle write_snooping=on", "cycle-based baseline"),
    };
    // Everything that shapes the simulation, so a snapshot can only be
    // restored by the command line that matches it.
    let c = &wiring.ctrl;
    let config = format!(
        "run model={model} policy={:?} sched={:?} ras={:?} powerdown={powerdown} {workload}",
        c.page_policy, c.scheduling, c.ras
    );
    let title = format!("{} ({title})", c.spec.name);
    simulate(a, wiring, gen, &config, &title, |finished, spec| {
        let act = finished.activity();
        println!(
            "DRAM power         : {:.1} mW",
            micron_power(spec, &act).total_mw()
        );
        if a.has("energy") {
            println!();
            print!("{}", drampower_energy(spec, &act).report("energy"));
        }
    })
}

pub fn record(a: &Args) -> Result<(), ArgError> {
    let out_path = (a.get("o")).ok_or_else(|| ArgError("record needs -o/--o FILE".into()))?;
    let (mut gen, _) = build_workload(a)?;
    let mut entries = Vec::new();
    while let Some((tick, req)) = gen.next_request() {
        entries.push(TraceEntry {
            tick,
            cmd: req.cmd,
            addr: req.addr,
            size: req.size,
        });
    }
    write_output(out_path, TraceGen::to_text(&entries))?;
    println!("wrote {} requests to {}", entries.len(), out_path);
    Ok(())
}

pub fn replay(a: &Args) -> Result<(), ArgError> {
    let path = a.positional();
    // Validate the flag set before touching the filesystem so a
    // contradictory invocation is diagnosed as such even when the trace
    // path is also bad.
    let wiring = parse_wiring(a, Model::Event, 0)?;
    let text =
        std::fs::read_to_string(path).map_err(|e| ArgError(format!("reading {path:?}: {e}")))?;
    let trace: TraceGen = text.parse().map_err(|e| ArgError(format!("{e}")))?;
    // The trace *contents* (not the file name) are part of what a
    // snapshot must match: restoring against an edited trace is refused.
    let c = &wiring.ctrl;
    let config = format!(
        "replay trace={:#018x} device={} policy={:?} sched={:?} mapping={:?} ras={:?}",
        fingerprint(text.as_bytes()),
        c.spec.name,
        c.page_policy,
        c.scheduling,
        c.mapping,
        c.ras,
    );
    let title = format!("replay of {path} on {}", c.spec.name);
    simulate(a, wiring, Box::new(trace), &config, &title, |_, _| {})
}
