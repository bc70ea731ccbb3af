//! `dramctrl` — command-line front end to the simulator family.
//!
//! ```text
//! dramctrl devices
//! dramctrl run --device ddr3-1600 --gen random --reads 70 --requests 100000
//! dramctrl record --gen linear --requests 10000 -o trace.txt
//! dramctrl replay trace.txt --device lpddr3 --policy closed
//! dramctrl sweep --policies open,closed --reads 0,50,100 --jsonl report.jsonl
//! ```

/// `print!` to a stdout that may go away: when the reader closes the pipe
/// (`dramctrl ... | head`) the process ends quietly, as one killed by
/// SIGPIPE would, where std's macro panics with a backtrace. Shadows
/// std's macro in every module below.
macro_rules! print {
    ($($arg:tt)*) => {
        $crate::write_stdout(format_args!($($arg)*))
    };
}

/// `println!` over this crate's [`print!`].
macro_rules! println {
    () => {
        print!("\n")
    };
    ($($arg:tt)*) => {
        print!("{}\n", format_args!($($arg)*))
    };
}

mod args;
mod run;

use args::{
    parse_device, parse_duration, parse_mapping, parse_policy, parse_ras_rate, parse_sched,
    parse_size, ArgError, Args,
};
use dramctrl_kernel::fsio::write_atomic;
use dramctrl_kernel::Tick;
use dramctrl_mem::presets;
use std::path::{Path, PathBuf};
use std::process::ExitCode;

/// Writes to stdout; ends the process if stdout is gone — silently for a
/// closed pipe, with an `error:` line for anything else.
fn write_stdout(args: std::fmt::Arguments<'_>) {
    use std::io::Write;
    if let Err(e) = std::io::stdout().write_fmt(args) {
        if e.kind() != std::io::ErrorKind::BrokenPipe {
            eprintln!("error: writing to stdout: {e}");
        }
        std::process::exit(1);
    }
}

const USAGE: &str = "\
dramctrl — event-based DRAM controller simulator (ISPASS 2014 reproduction)

USAGE:
    dramctrl devices                          list device presets
    dramctrl run [OPTIONS]                    run a synthetic workload
    dramctrl record [OPTIONS] -o FILE         write a request trace file
                                              (alias: trace-record)
    dramctrl replay FILE [OPTIONS]            replay a trace file
    dramctrl sweep [OPTIONS]                  run a parallel parameter-sweep campaign
    dramctrl serve --listen ADDR --store DIR  run the always-up simulation service
    dramctrl submit --to ADDR [AXES]          submit a sweep to a running service
    dramctrl watch ID --to ADDR [OPTIONS]     stream a submitted job's results
    dramctrl status --to ADDR                 show a service's job table
    dramctrl dispatch --peer ADDR... [AXES]   fan a sweep out to a daemon fleet,
                                              surviving dead/slow/lying peers
    dramctrl version                          print crate/protocol/format versions

WORKLOAD OPTIONS (run and record — the request stream):
    --device NAME        device preset (default ddr3-1600-x64)
    --gen linear|random|dram-aware   traffic pattern (default linear)
    --reads PCT          read percentage 0..100 (default 100)
    --requests N         number of requests (default 100000)
    --period DUR         inter-transaction time, e.g. 10ns (default 0 = saturate)
    --range SIZE         address range, e.g. 256MiB (default 256MiB)
    --block SIZE         request size in bytes (default 64)
    --stride N           dram-aware: sequential bursts per row (default 8)
    --banks N            dram-aware: banks targeted (default 4)
    --mapping M          RoRaBaCoCh|RoRaBaChCo|RoCoRaBaCh (default RoRaBaCoCh)
    --seed N             RNG seed (default 1)
    -o FILE              record only: where to write the trace

CONTROLLER OPTIONS (run and replay — the simulator; anything else is a
usage error, so `replay --model cycle` or `record --policy closed` exit 2):
    --device NAME        device preset (default ddr3-1600-x64)
    --policy P           open|open-adaptive|closed|closed-adaptive (default open)
    --sched S            fcfs|frfcfs (default frfcfs)
    --mapping M          RoRaBaCoCh|RoRaBaChCo|RoCoRaBaCh (default RoRaBaCoCh)
    --model event|cycle  run only: controller model (default event; replay
                         always uses the event model)
    --powerdown DUR      run only, event model only: power down after this
                         idle time
    --energy             run only, event model only: also print the
                         DRAMPower-style energy breakdown

RAS OPTIONS (run and replay; faults are seeded by --seed and deterministic):
    --ras RATE           inject faults at RATE transient upsets per
                         gigabit-hour (e.g. 2e11); derived stuck-row,
                         rank-failure and link-error rates scale with it
    --ecc MODE           none|secded|chipkill (default secded;
                         requires --ras)

CHECKPOINT OPTIONS (run and replay; snapshots are deterministic — resuming
in a fresh process is byte-identical to never having stopped):
    --checkpoint FILE    write a state snapshot to FILE and stop once
                         --checkpoint-at requests have been injected
    --checkpoint-at N    injection count at which to pause (requires
                         --checkpoint)
    --restore FILE       resume a run from a snapshot; the command line
                         must describe the same simulation that wrote it
                         (a mismatch is refused)

OBSERVABILITY OPTIONS (run and replay):
    --perfetto FILE      write a Chrome/Perfetto trace of every DRAM command
                         (open the file at https://ui.perfetto.dev)
    --epochs DUR         record an epoch time-series at this interval
                         (e.g. 1us; written to --epochs-out)
    --epochs-out FILE    epoch output path; .jsonl writes JSON lines,
                         anything else CSV (default epochs.csv)
    --stats-json FILE    write the full statistics report as JSON

SWEEP OPTIONS (comma-separated lists become campaign axes; their
Cartesian product runs in parallel with per-job deterministic seeds):
    --devices A,B        device presets (default ddr3-1333-x64)
    --models L           event,cycle (default event)
    --policies L         page policies (default open)
    --scheds L           schedulers (default frfcfs)
    --mappings L         address mappings (default RoRaBaCoCh)
    --channels L         channel counts (default 1)
    --gens L             linear,random,dram-aware (default linear)
    --reads L            read percentages (default 100)
    --requests L         request counts (default 10000)
    --range SIZE         linear/random address range (default 256MiB)
    --block N            request size in bytes (default 64)
    --stride N           dram-aware stride in bursts (default 8)
    --banks N            dram-aware banks (default 4)
    --ras L              fault-rate axis, faults per gigabit-hour
                         (default 0 = fault-free; e.g. 0,1e11,2e11)
    --seed N             campaign seed (default 1)
    --workers N          worker threads, 0 = all cores (default 0)
    --retries N          attempts per job before it is recorded failed (default 2)
    --jsonl FILE         also write the deterministic JSON-lines report
    --md FILE            also write the result table as markdown
    --csv                print the result table as CSV
    --quiet              suppress the stderr progress line
    --obs-dir DIR        per-job observability artifacts: DIR/job-<index>
                         gets .trace.json (Perfetto), .epochs.csv and
                         .stats.json
    --journal PATH       write-ahead journal: every finished job is
                         fsync'd to PATH (a directory gets journal.jsonl)
                         before it counts as done
    --resume PATH        resume a killed sweep from its journal: verifies
                         the campaign matches, skips journaled jobs, runs
                         the rest; merged reports are byte-identical to an
                         uninterrupted run's
    --checkpoint-every N checkpoint each running job every N injected
                         requests (requires --journal/--resume; snapshots
                         live beside the journal and are removed when the
                         sweep completes)
    --shard I/N          run only jobs with index % N == I (requires
                         --journal/--resume); N cooperating processes
                         given shards 0/N..N-1/N partition the campaign,
                         and --merge recombines their journals
    --merge P1,P2,...    merge shard journals into the full report (with
                         the same axis flags the shards ran); no
                         simulation happens, and the merged --jsonl/--md
                         are byte-identical to an unsharded run's
    --metrics-json FILE  write executor operational metrics (units/s,
                         worker busy/idle, journal batch sizes, retries)
                         as JSON when the sweep finishes

SERVICE OPTIONS:
    serve:
      --listen ADDR      socket to listen on: a path (Unix socket) or
                         host:port (TCP); port 0 picks one (announced on
                         stderr)
      --store DIR        durable job store; a killed daemon restarted on
                         the same store resumes every in-flight job
      --max-jobs N       admission bound: reject submits at N unfinished
                         jobs (default 8)
      --quantum N        preemption quantum in injected requests: long
                         jobs checkpoint-pause at request boundaries so
                         tenants share the simulator fairly (default 1000)
      --workers N        jobs run at once, one scheduler worker each;
                         0 = all cores (default 0). A job has one unit
                         in flight, so this is parallelism across jobs
      --http ADDR        also serve read-only HTTP observability
                         endpoints on ADDR (path or host:port):
                         /metrics (Prometheus), /metrics.json, /healthz
                         (503 when the store is unwritable), /jobs
      --log-level LEVEL  stderr log threshold: error|warn|info|debug|trace
                         (default info; lines are structured key=\"value\")
      --client-timeout D per-connection read/write deadline; idle or
                         non-reading clients are evicted after D
                         (e.g. 30s, 250ms; 0 disables; default 30s)
      --subscriber-buffer N
                         outbound event-buffer depth per watcher; a
                         watcher that stops reading is evicted once its
                         buffer fills (default 1024)
      --retain N         garbage-collect the store: keep at most N
                         finished jobs (oldest evicted first, at startup
                         and on every completion; running and queued jobs
                         are never touched; default: keep everything)
    submit (takes the same axis flags as sweep, plus):
      --to ADDR          the service to submit to
      --tenant NAME      tenant for fair scheduling (default cli)
      --epochs DUR       request observed units: epoch series binned at
                         this interval streamed to watchers (e.g. 1ms)
    watch:
      --to ADDR          the service to connect to
      --jsonl FILE       write streamed records as a JSON-lines report
                         (byte-identical to the same campaign's
                         `sweep --jsonl` output)
      --obs-dir DIR      write streamed stats/epoch artifacts per unit
      --reconnect        survive daemon restarts: retry with exponential
                         backoff and resume the stream gap- and dup-free
                         from the last-seen record
    status:
      --to ADDR          the service to query
      --peer ADDR        (repeatable) query a whole fleet instead: one
                         row per peer with a reachability column and
                         aggregated job counts
      --json             print the raw status event (one JSON line with
                         per-job and per-tenant detail) instead of tables;
                         with --peer, one JSON line per peer
    dispatch (takes the same axis flags as sweep, plus):
      --peer ADDR        (repeatable) a daemon to dispatch shards to
      --peers-file FILE  additional peers, one address per line
                         (# comments and blank lines ignored)
      --workdir DIR      where shard journals accumulate (default: a
                         fresh directory under the system temp dir)
      --tenant NAME      tenant submitted to every peer (default dispatch)
      --timeout D        per-read streaming deadline; a connected peer
                         silent for this long fails its shard and the
                         shard is re-dispatched (e.g. 30s; 0 disables;
                         default 60s)
      --rounds N         assignment rounds before giving up with an
                         `incomplete` error (default 10)
      --no-hedge         don't re-issue slow shards to idle peers
      --json             emit progress events (shard assigned /
                         re-dispatched / hedged / finished / merged,
                         with each shard's estimated cost and the
                         per-peer totals) as JSON lines on stderr
                         instead of logfmt
      --jsonl/--md/--csv as sweep; the merged report is byte-identical
                         to a local `dramctrl sweep` of the same flags
";

fn main() -> ExitCode {
    let mut argv: Vec<String> = std::env::args().skip(1).collect();
    if argv.is_empty() {
        eprint!("{USAGE}");
        return ExitCode::from(2);
    }
    let cmd = argv.remove(0);
    let result = match cmd.as_str() {
        "devices" => devices(),
        "run" => run::run(argv),
        "record" | "trace-record" => run::record(argv),
        "replay" => run::replay(argv),
        "sweep" => sweep(argv),
        "serve" => serve(argv),
        "submit" => submit(argv),
        "watch" => watch(argv),
        "status" => status(argv),
        "dispatch" => dispatch(argv),
        "version" | "--version" | "-V" => {
            print_version();
            Ok(())
        }
        "help" | "--help" | "-h" => {
            print!("{USAGE}");
            Ok(())
        }
        other => Err(ArgError(format!("unknown command {other:?}"))),
    };
    match result {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            // One line, actionable, and the conventional usage-error code
            // (2) so scripts can tell bad invocations from failed runs.
            // Service commands emit the line through the structured logger
            // so daemon/client stderr stays machine-parseable end to end.
            if matches!(
                cmd.as_str(),
                "serve" | "submit" | "watch" | "status" | "dispatch"
            ) {
                dramctrl_obs::log_error!(
                    cmd.as_str(), e;
                    "hint" => "run `dramctrl help` for usage"
                );
            } else {
                eprintln!("error: {e} (run `dramctrl help` for usage)");
            }
            ExitCode::from(2)
        }
    }
}

fn devices() -> Result<(), ArgError> {
    println!(
        "{:<18} {:>9} {:>6} {:>6} {:>9} {:>10} {:>11}",
        "device", "bus bits", "banks", "ranks", "burst B", "peak GB/s", "capacity"
    );
    for spec in presets::all() {
        println!(
            "{:<18} {:>9} {:>6} {:>6} {:>9} {:>10.2} {:>8} MiB",
            spec.name,
            spec.org.bus_width_bits(),
            spec.org.banks,
            spec.org.ranks,
            spec.org.burst_bytes(),
            spec.peak_bandwidth_gbps(),
            spec.org.capacity_bytes() >> 20,
        );
    }
    Ok(())
}

/// The campaign axis flags — every flag [`campaign_from_args`] reads —
/// shared by `sweep`, `submit` and `dispatch`.
const AXIS_OPTS: &[&str] = &[
    "devices", "models", "policies", "scheds", "mappings", "channels", "gens", "reads", "requests",
    "range", "block", "stride", "banks", "ras", "seed",
];

const SWEEP_OPTS: &[&[&str]] = &[AXIS_OPTS, SWEEP_ONLY_OPTS];

const SWEEP_ONLY_OPTS: &[&str] = &[
    "workers",
    "retries",
    "jsonl",
    "md",
    "csv",
    "quiet",
    "obs-dir",
    "journal",
    "resume",
    "checkpoint-every",
    "shard",
    "merge",
    "metrics-json",
];

/// Resolves `--journal`/`--resume` PATH: a directory (existing, or a
/// trailing separator) means `PATH/journal.jsonl`.
fn journal_path(p: &str) -> PathBuf {
    let path = PathBuf::from(p);
    if path.is_dir() || p.ends_with('/') {
        path.join("journal.jsonl")
    } else {
        path
    }
}

/// One comma-separated axis flag: its items (or `default`'s), each
/// through `parse`.
fn axis<T>(
    a: &Args,
    name: &str,
    default: &str,
    parse: impl Fn(&str) -> Result<T, ArgError>,
) -> Result<Vec<T>, ArgError> {
    let items = a.get(name).unwrap_or(default).split(',').map(str::trim);
    let items: Vec<&str> = items.filter(|s| !s.is_empty()).collect();
    if items.is_empty() {
        return Err(ArgError(format!("--{name}: list must not be empty")));
    }
    items.into_iter().map(parse).collect()
}

/// Builds the campaign the sweep/submit axis flags describe. The name is
/// fixed (`sweep`) so a campaign submitted to a service produces records
/// byte-comparable with a local `sweep` run of the same flags.
fn campaign_from_args(a: &Args) -> Result<dramctrl_campaign::Campaign, ArgError> {
    use dramctrl_campaign::{Campaign, Model, TrafficPattern};

    fn number<T: std::str::FromStr>(name: &str) -> impl Fn(&str) -> Result<T, ArgError> + '_ {
        move |n| (n.parse()).map_err(|_| ArgError(format!("--{name}: cannot parse {n:?}")))
    }
    let range = parse_size(a.get("range").unwrap_or("256MiB"))?;
    let block: u32 = a.parse_or("block", 64u32)?;
    let stride: u64 = a.parse_or("stride", 8u64)?;
    let banks: u32 = a.parse_or("banks", 4u32)?;
    let seed: u64 = a.parse_or("seed", 1u64)?;
    Ok(Campaign::new("sweep", seed)
        .devices(axis(a, "devices", "ddr3-1333-x64", |d| {
            parse_device(d).map(|s| s.name.to_owned())
        })?)
        .models(axis(a, "models", "event", |m| {
            m.parse::<Model>().map_err(ArgError)
        })?)
        .policies(axis(a, "policies", "open", parse_policy)?)
        .scheds(axis(a, "scheds", "frfcfs", parse_sched)?)
        .mappings(axis(a, "mappings", "rorabacoch", parse_mapping)?)
        .channels(axis(a, "channels", "1", number("channels"))?)
        .traffic(axis(a, "gens", "linear", |g| match g {
            "linear" => Ok(TrafficPattern::Linear { range, block }),
            "random" => Ok(TrafficPattern::Random { range, block }),
            "dram-aware" | "dram_aware" => Ok(TrafficPattern::DramAware { stride, banks }),
            other => Err(ArgError(format!("unknown generator {other:?}"))),
        })?)
        .read_pcts(axis(a, "reads", "100", |r| {
            let pct = r.parse::<u8>().ok().filter(|r| *r <= 100);
            pct.ok_or_else(|| ArgError(format!("--reads: {r:?} is not 0..=100")))
        })?)
        .requests(axis(a, "requests", "10000", number("requests"))?)
        .error_rates(axis(a, "ras", "0", parse_ras_rate)?))
}

/// Parses `--shard I/N` into `(index, count)`.
fn parse_shard(s: &str) -> Result<(u32, u32), ArgError> {
    let bad = || ArgError(format!("--shard: expected I/N with I < N, got {s:?}"));
    let (i, n) = s.split_once('/').ok_or_else(bad)?;
    let i: u32 = i.trim().parse().map_err(|_| bad())?;
    let n: u32 = n.trim().parse().map_err(|_| bad())?;
    if n == 0 || i >= n {
        return Err(bad());
    }
    Ok((i, n))
}

fn sweep(argv: Vec<String>) -> Result<(), ArgError> {
    use dramctrl_campaign::{
        merge_journals, run_campaign, run_campaign_journaled, run_campaign_shard, CampaignJournal,
        ExecutorConfig, JobSpec, Progress,
    };
    use dramctrl_runner::JobRun;

    let a = Args::parse(argv, &["csv", "quiet"])?;
    a.ensure_known(&SWEEP_OPTS.concat())?;
    let campaign = campaign_from_args(&a)?;
    let seed = campaign.seed;

    // --merge: recombine shard journals into the full report. Pure file
    // work — no simulation, no executor.
    if let Some(m) = a.get("merge") {
        for conflict in ["journal", "resume", "shard", "obs-dir", "checkpoint-every"] {
            if a.get(conflict).is_some() {
                return Err(ArgError(format!(
                    "--merge only reads journals; drop --{conflict}"
                )));
            }
        }
        let paths: Vec<PathBuf> = m.split(',').map(|p| journal_path(p.trim())).collect();
        let report = merge_journals(&campaign, &paths)
            .map_err(|e| ArgError(format!("merging journals: {e}")))?;
        return finish_report(&a, &report);
    }

    // Opt-in operational metrics: the registry outlives the run so the
    // final JSON export sees every sample. Metrics never touch report or
    // journal bytes (the executor guarantees it).
    let metrics_out = a.get("metrics-json").map(|p| {
        let registry = dramctrl_obs::Registry::new();
        let m = dramctrl_campaign::ExecMetrics::register(&registry);
        (p.to_owned(), registry, m)
    });
    let cfg = ExecutorConfig {
        workers: a.parse_or("workers", 0usize)?,
        max_attempts: {
            let retries: u32 = a.parse_or("retries", 2u32)?;
            if retries == 0 {
                return Err(ArgError("--retries must be at least 1".into()));
            }
            retries
        },
        progress: if a.switch("quiet") {
            Progress::Silent
        } else {
            Progress::Stderr
        },
        metrics: metrics_out.as_ref().map(|(_, _, m)| m.clone()),
        ..ExecutorConfig::default()
    };
    // Durable journal: --journal starts one, --resume picks an existing
    // one back up (verifying it matches this campaign).
    let mut journal = match (a.get("journal"), a.get("resume")) {
        (Some(_), Some(_)) => {
            return Err(ArgError(
                "--journal and --resume are mutually exclusive; --resume \
                 already knows its journal"
                    .into(),
            ))
        }
        (Some(p), None) => {
            let path = journal_path(p);
            if let Some(parent) = path.parent().filter(|d| !d.as_os_str().is_empty()) {
                std::fs::create_dir_all(parent)
                    .map_err(|e| ArgError(format!("creating {}: {e}", parent.display())))?;
            }
            Some(
                CampaignJournal::create(&path, &campaign)
                    .map_err(|e| ArgError(format!("creating journal {}: {e}", path.display())))?,
            )
        }
        (None, Some(p)) => {
            let path = journal_path(p);
            let j = CampaignJournal::resume(&path, &campaign)
                .map_err(|e| ArgError(format!("resuming {}: {e}", path.display())))?;
            eprintln!(
                "resuming: {} of {} jobs already journaled",
                j.completed().len(),
                campaign.len()
            );
            Some(j)
        }
        (None, None) => None,
    };

    let shard = a.get("shard").map(parse_shard).transpose()?;
    if shard.is_some() && journal.is_none() {
        return Err(ArgError(
            "--shard needs --journal or --resume: shards meet again only \
             through their journals"
                .into(),
        ));
    }
    let every: u64 = a.parse_or("checkpoint-every", 0u64)?;
    if every > 0 {
        if journal.is_none() {
            return Err(ArgError(
                "--checkpoint-every needs --journal or --resume (snapshots \
                 live beside the journal)"
                    .into(),
            ));
        }
        if a.get("obs-dir").is_some() {
            return Err(ArgError(
                "--checkpoint-every cannot be combined with --obs-dir".into(),
            ));
        }
    }
    // Snapshots live beside the journal; remember the directory even when
    // this invocation doesn't checkpoint, so a plain `--resume` still
    // cleans up snapshots left by an interrupted `--checkpoint-every` run.
    let ckpt_dir = journal
        .as_ref()
        .map(|j| j.path().parent().unwrap_or(Path::new(".")).to_path_buf());
    let job_ckpt =
        move |dir: &Path, job: &JobSpec| dir.join(format!("ckpt-job-{:04}.snap", job.index));

    match shard {
        Some((i, n)) => eprintln!(
            "sweep: shard {i}/{n} of {} jobs, seed {}",
            campaign.len(),
            seed
        ),
        None => eprintln!("sweep: {} jobs, seed {}", campaign.len(), seed),
    }
    // One runner: a `JobRun`, observed when --obs-dir asks for artifacts
    // (a checkpoint does not hold probe state, so those runs never
    // restore one) and checkpointed beside the journal otherwise.
    let obs_dir = a.get("obs-dir").map(PathBuf::from);
    if let Some(dir) = &obs_dir {
        std::fs::create_dir_all(dir).map_err(|e| ArgError(format!("creating {dir:?}: {e}")))?;
    }
    let epochs: Tick = if obs_dir.is_some() { 1_000_000 } else { 0 };
    let runner = |job: &JobSpec| {
        let ckpt = ckpt_dir.as_ref().filter(|_| epochs == 0);
        let ckpt = ckpt.map(|dir| job_ckpt(dir, job));
        let (metrics, artifacts) = JobRun::start(job, epochs)
            .run_resumable(ckpt.as_deref(), every, None)
            .expect("an unpaused job run always completes");
        if let (Some(dir), Some(art)) = (&obs_dir, artifacts) {
            let base = dir.join(format!("job-{:04}", job.index));
            for (ext, text) in [
                ("trace.json", &art.perfetto_json),
                ("epochs.csv", &art.epochs_csv),
                ("stats.json", &art.stats_json),
            ] {
                // A failed write panics so the executor records the job
                // as failed instead of silently dropping the artifact.
                let path = base.with_extension(ext);
                write_atomic(&path, text)
                    .unwrap_or_else(|e| panic!("writing {}: {e}", path.display()));
            }
        }
        metrics
    };
    let report = match (&mut journal, shard) {
        (Some(j), Some(s)) => run_campaign_shard(&campaign, &cfg, j, s, runner),
        (Some(j), None) => run_campaign_journaled(&campaign, &cfg, j, runner),
        (None, _) => run_campaign(&campaign, &cfg, runner),
    };
    // A finished sweep no longer needs its per-job snapshots. (Shards
    // only tried to remove their own jobs' snapshots plus already-absent
    // paths, so cross-shard cleanup is a harmless no-op.)
    if let Some(dir) = &ckpt_dir {
        for job in campaign.expand() {
            let _ = std::fs::remove_file(job_ckpt(dir, &job));
        }
    }
    if shard.is_some() {
        eprintln!(
            "shard report covers {} of {} jobs; merge the shard journals \
             with --merge for the full report",
            report.records.len(),
            campaign.len()
        );
    }
    if let Some((path, registry, _)) = &metrics_out {
        write_atomic(path, registry.render_json())
            .map_err(|e| ArgError(format!("writing {path:?}: {e}")))?;
        eprintln!("wrote executor metrics to {path}");
    }
    finish_report(&a, &report)
}

/// Writes the report outputs (`--jsonl`, `--md`, the printed table and
/// summary) and turns failed jobs into a non-zero exit.
fn finish_report(a: &Args, report: &dramctrl_campaign::CampaignReport) -> Result<(), ArgError> {
    if let Some(path) = a.get("jsonl") {
        write_atomic(path, report.to_jsonl())
            .map_err(|e| ArgError(format!("writing {path:?}: {e}")))?;
        eprintln!("wrote {} JSONL records to {path}", report.records.len());
    }
    let table = report.table(&[
        "bus_util",
        "bandwidth_gbps",
        "avg_read_lat_ns",
        "row_hit_rate",
    ]);
    if let Some(path) = a.get("md") {
        write_atomic(path, table.render())
            .map_err(|e| ArgError(format!("writing {path:?}: {e}")))?;
        eprintln!("wrote result table to {path}");
    }
    if a.switch("csv") {
        print!("{}", table.render_csv());
    } else {
        print!("{}", table.render());
    }
    eprintln!("{}", report.summary());
    if report.failed() > 0 {
        return Err(ArgError(format!("{} job(s) failed", report.failed())));
    }
    Ok(())
}

/// Prints the version tuple a service handshake exchanges: crate,
/// protocol, snapshot format, journal format. Scripts parse this to
/// check that a client and a daemon binary will interoperate.
fn print_version() {
    println!(
        "dramctrl {} (proto {}, snap {}, journal {})",
        env!("CARGO_PKG_VERSION"),
        dramctrl_serve::PROTO_VERSION,
        dramctrl_kernel::snap::SNAP_VERSION,
        dramctrl_campaign::JOURNAL_VERSION,
    );
}

const SERVE_OPTS: &[&str] = &[
    "listen",
    "store",
    "max-jobs",
    "quantum",
    "workers",
    "http",
    "log-level",
    "client-timeout",
    "subscriber-buffer",
    "retain",
];

fn serve(argv: Vec<String>) -> Result<(), ArgError> {
    use dramctrl_serve::{serve_http, Listener, ServeConfig, Server};
    let a = Args::parse(argv, &[])?;
    a.ensure_known(SERVE_OPTS)?;
    if let Some(level) = a.get("log-level") {
        dramctrl_obs::log::set_level(dramctrl_obs::log::parse_level(level).map_err(ArgError)?);
    }
    let listen = a
        .get("listen")
        .ok_or_else(|| ArgError("serve needs --listen ADDR (a path or host:port)".into()))?;
    let store = a
        .get("store")
        .ok_or_else(|| ArgError("serve needs --store DIR (the durable job store)".into()))?;
    let mut cfg = ServeConfig::new(store);
    cfg.max_jobs = a.parse_or("max-jobs", cfg.max_jobs)?;
    cfg.quantum = a.parse_or("quantum", cfg.quantum)?;
    if cfg.quantum == 0 {
        return Err(ArgError("--quantum must be at least 1".into()));
    }
    cfg.workers = a.parse_or("workers", cfg.workers)?;
    if let Some(t) = a.get("client-timeout") {
        // `parse_duration` yields picoseconds; the deadline is wall
        // clock, so convert. `0` disables the deadline entirely.
        let ps = parse_duration(t)?;
        if ps > 0 && ps < 1_000_000_000 {
            return Err(ArgError("--client-timeout below 1ms is not usable".into()));
        }
        cfg.client_timeout = (ps > 0).then(|| std::time::Duration::from_nanos(ps / 1_000));
    }
    cfg.subscriber_buffer = a.parse_or("subscriber-buffer", cfg.subscriber_buffer)?;
    if cfg.subscriber_buffer == 0 {
        return Err(ArgError("--subscriber-buffer must be at least 1".into()));
    }
    cfg.retain = a
        .get("retain")
        .map(|v| {
            v.parse::<usize>()
                .map_err(|_| ArgError(format!("--retain: cannot parse {v:?}")))
        })
        .transpose()?;
    let (quantum, max_jobs) = (cfg.quantum, cfg.max_jobs);
    let server =
        Server::open(cfg).map_err(|e| ArgError(format!("opening store {store:?}: {e}")))?;
    server.start_scheduler();
    let listener =
        Listener::bind(listen).map_err(|e| ArgError(format!("binding {listen:?}: {e}")))?;
    // Read-only observability endpoints on a second listener, served from
    // a background thread so a slow scrape never blocks job clients.
    if let Some(http) = a.get("http") {
        let http_listener =
            Listener::bind(http).map_err(|e| ArgError(format!("binding {http:?}: {e}")))?;
        dramctrl_obs::log_info!(
            "serve", "http listening";
            "addr" => http_listener.local_addr()
        );
        let http_server = server.clone();
        std::thread::Builder::new()
            .name("dramctrl-http".into())
            .spawn(move || {
                if let Err(e) = serve_http(&http_server, &http_listener) {
                    dramctrl_obs::log_error!("serve", "http accept loop failed"; "error" => e);
                }
            })
            .expect("spawning the http thread");
    }
    // The resolved address matters when --listen used port 0.
    dramctrl_obs::log_info!(
        "serve", "listening";
        "addr" => listener.local_addr(),
        "store" => store,
        "quantum" => quantum,
        "max_jobs" => max_jobs
    );
    server
        .serve(&listener)
        .map_err(|e| ArgError(format!("accept loop failed: {e}")))
}

const SUBMIT_OPTS: &[&[&str]] = &[AXIS_OPTS, &["to", "tenant", "epochs"]];

fn submit(argv: Vec<String>) -> Result<(), ArgError> {
    let a = Args::parse(argv, &[])?;
    a.ensure_known(&SUBMIT_OPTS.concat())?;
    let to = a
        .get("to")
        .ok_or_else(|| ArgError("submit needs --to ADDR (a running `dramctrl serve`)".into()))?;
    let campaign = campaign_from_args(&a)?;
    let epochs = match a.get("epochs") {
        Some(d) => {
            let ticks = parse_duration(d)?;
            if ticks == 0 {
                return Err(ArgError("--epochs interval must be non-zero".into()));
            }
            ticks
        }
        None => 0,
    };
    let tenant = a.get("tenant").unwrap_or("cli");
    let mut client = connect(to)?;
    let (id, total) = client
        .submit(tenant, epochs, &campaign)
        .map_err(|e| ArgError(e.to_string()))?;
    println!("accepted {id} ({total} units)");
    dramctrl_obs::log_info!(
        "submit", "accepted";
        "job" => id, "units" => total, "watch" => format!("dramctrl watch {id} --to {to}")
    );
    Ok(())
}

/// Connects to a service, refusing version-mismatched daemons.
fn connect(addr: &str) -> Result<dramctrl_serve::Client, ArgError> {
    dramctrl_serve::Client::connect(addr)
        .map_err(|e| ArgError(format!("connecting to {addr:?}: {e}")))
}

const WATCH_OPTS: &[&str] = &["to", "jsonl", "obs-dir", "reconnect"];

fn watch(argv: Vec<String>) -> Result<(), ArgError> {
    use dramctrl_serve::wire::Value;
    let a = Args::parse(argv, &["reconnect"])?;
    a.ensure_known(WATCH_OPTS)?;
    let [id] = a.positional() else {
        return Err(ArgError("watch needs exactly one job id".into()));
    };
    let to = a
        .get("to")
        .ok_or_else(|| ArgError("watch needs --to ADDR (a running `dramctrl serve`)".into()))?;
    let obs_dir = a.get("obs-dir").map(PathBuf::from);
    if let Some(dir) = &obs_dir {
        std::fs::create_dir_all(dir)
            .map_err(|e| ArgError(format!("creating {}: {e}", dir.display())))?;
    }

    let mut records: std::collections::BTreeMap<usize, String> = Default::default();
    let mut on_event = |v: &Value, line: &str| {
        let index = || v.get("index").and_then(Value::as_u64).unwrap_or(0) as usize;
        match v.get("event").and_then(Value::as_str) {
            Some("record") => {
                if let Some(data) = dramctrl_serve::record_data(line) {
                    records.insert(index(), data.to_owned());
                }
            }
            Some("progress") => {
                let done = v.get("done").and_then(Value::as_u64).unwrap_or(0);
                let total = v.get("total").and_then(Value::as_u64).unwrap_or(0);
                eprint!("\r[{id}] {done}/{total} units committed  ");
            }
            Some(event @ ("stats" | "epochs")) => {
                if let (Some(dir), Some(text)) = (&obs_dir, v.get("text").and_then(Value::as_str)) {
                    let ext = if event == "stats" {
                        "stats.json"
                    } else {
                        "epochs.jsonl"
                    };
                    let path = dir.join(format!("unit-{:06}.{ext}", index()));
                    write_atomic(&path, text)
                        .unwrap_or_else(|e| panic!("writing artifact {}: {e}", path.display()));
                }
            }
            _ => {}
        }
    };
    let summary = if a.switch("reconnect") {
        // Rides through daemon restarts: retryable transport errors
        // reconnect with backoff, and the replayed history is deduped by
        // unit index, so the collected records stay gap- and dup-free.
        dramctrl_serve::Client::watch_with_reconnect(to, id, &mut on_event)
    } else {
        connect(to)?.watch(id, &mut on_event)
    }
    .map_err(|e| ArgError(e.to_string()))?;
    eprintln!();

    if let Some(path) = a.get("jsonl") {
        // Records keyed by index render in campaign order — the same
        // bytes `sweep --jsonl` writes for this campaign.
        let jsonl: String = records.into_values().map(|l| l + "\n").collect();
        write_atomic(path, jsonl).map_err(|e| ArgError(format!("writing {path:?}: {e}")))?;
        dramctrl_obs::log_info!("watch", "wrote JSONL report"; "path" => path);
    }
    println!("{id}: {} ok, {} failed", summary.ok, summary.failed);
    if summary.failed > 0 {
        return Err(ArgError(format!("{} unit(s) failed", summary.failed)));
    }
    Ok(())
}

const DISPATCH_OPTS: &[&[&str]] = &[AXIS_OPTS, DISPATCH_ONLY_OPTS];

const DISPATCH_ONLY_OPTS: &[&str] = &[
    "peer",
    "peers-file",
    "workdir",
    "tenant",
    "timeout",
    "rounds",
    "no-hedge",
    "json",
    "log-level",
    "jsonl",
    "md",
    "csv",
];

fn dispatch(argv: Vec<String>) -> Result<(), ArgError> {
    use dramctrl_serve::dispatch::DispatchConfig;
    let a = Args::parse_with_repeats(argv, &["csv", "json", "no-hedge"], &["peer"])?;
    a.ensure_known(&DISPATCH_OPTS.concat())?;
    if a.switch("json") {
        dramctrl_obs::log::set_format(dramctrl_obs::log::Format::Json);
    }
    if let Some(level) = a.get("log-level") {
        dramctrl_obs::log::set_level(dramctrl_obs::log::parse_level(level).map_err(ArgError)?);
    }
    let mut peers: Vec<String> = a.get_all("peer").to_vec();
    if let Some(file) = a.get("peers-file") {
        let text = std::fs::read_to_string(file)
            .map_err(|e| ArgError(format!("reading {file:?}: {e}")))?;
        peers.extend(
            text.lines()
                .map(str::trim)
                .filter(|l| !l.is_empty() && !l.starts_with('#'))
                .map(str::to_owned),
        );
    }
    if peers.is_empty() {
        return Err(ArgError(
            "dispatch needs at least one --peer ADDR (or --peers-file)".into(),
        ));
    }
    let campaign = campaign_from_args(&a)?;
    let workdir = a.get("workdir").map_or_else(
        || {
            std::env::temp_dir().join(format!(
                "dramctrl-dispatch-{}-{}",
                std::process::id(),
                campaign.seed
            ))
        },
        PathBuf::from,
    );
    let mut cfg = DispatchConfig::new(&workdir);
    if let Some(tenant) = a.get("tenant") {
        cfg.tenant = tenant.to_owned();
    }
    if let Some(t) = a.get("timeout") {
        let ps = parse_duration(t)?;
        if ps > 0 && ps < 1_000_000_000 {
            return Err(ArgError("--timeout below 1ms is not usable".into()));
        }
        cfg.io_timeout = (ps > 0).then(|| std::time::Duration::from_nanos(ps / 1_000));
    }
    cfg.hedge = !a.switch("no-hedge");
    cfg.max_rounds = a.parse_or("rounds", cfg.max_rounds)?;
    if cfg.max_rounds == 0 {
        return Err(ArgError("--rounds must be at least 1".into()));
    }
    let (report, stats) =
        dramctrl_serve::dispatch(&campaign, &peers, &cfg).map_err(|e| ArgError(e.to_string()))?;
    dramctrl_obs::log_info!(
        "dispatch", "campaign complete";
        "jobs" => report.records.len(), "shards" => stats.shards,
        "rounds" => stats.rounds, "redispatches" => stats.redispatches,
        "hedges" => stats.hedges, "peers_lost" => stats.peers_lost
    );
    finish_report(&a, &report)
}

fn status(argv: Vec<String>) -> Result<(), ArgError> {
    use dramctrl_serve::wire::Value;
    let a = Args::parse_with_repeats(argv, &["json"], &["peer"])?;
    a.ensure_known(&["to", "json", "peer"])?;
    if !a.get_all("peer").is_empty() {
        if a.get("to").is_some() {
            return Err(ArgError(
                "status takes either --to ADDR or --peer ADDR..., not both".into(),
            ));
        }
        return fleet_status(&a);
    }
    let to = a
        .get("to")
        .ok_or_else(|| ArgError("status needs --to ADDR (or --peer ADDR...)".into()))?;
    let mut client = connect(to)?;
    let table = client.status().map_err(|e| ArgError(e.to_string()))?;
    if a.switch("json") {
        // The raw status event: one JSON line with the full per-job and
        // per-tenant detail, for scripts.
        println!("{}", table.encode());
        return Ok(());
    }
    let jobs = table.get("jobs").and_then(Value::as_arr).unwrap_or(&[]);
    println!(
        "{:<10} {:<12} {:>6} {:>7} {:>6}  state",
        "job", "tenant", "done", "failed", "total"
    );
    for j in jobs {
        let s = |k: &str| j.get(k).and_then(Value::as_str).unwrap_or("?").to_owned();
        let n = |k: &str| j.get(k).and_then(Value::as_u64).unwrap_or(0);
        println!(
            "{:<10} {:<12} {:>6} {:>7} {:>6}  {}",
            s("id"),
            s("tenant"),
            n("done"),
            n("failed"),
            n("total"),
            s("state")
        );
    }
    let tenants = table.get("tenants").and_then(Value::as_arr).unwrap_or(&[]);
    if !tenants.is_empty() {
        println!();
        println!(
            "{:<12} {:>6} {:>6} {:>7} {:>7} {:>8}  running",
            "tenant", "queued", "jobs", "served", "failed", "rejected"
        );
        for t in tenants {
            let s = |k: &str| t.get(k).and_then(Value::as_str).unwrap_or("?").to_owned();
            let n = |k: &str| t.get(k).and_then(Value::as_u64).unwrap_or(0);
            // Every unit in flight, `job#unit`, comma-separated.
            let running = t.get("running").and_then(Value::as_arr).unwrap_or(&[]);
            let running: Vec<String> = running
                .iter()
                .filter_map(|r| {
                    let job = r.get("job").and_then(Value::as_str)?;
                    let unit = r.get("unit").and_then(Value::as_u64)?;
                    Some(format!("{job}#{unit}"))
                })
                .collect();
            let running = if running.is_empty() {
                "-".to_owned()
            } else {
                running.join(",")
            };
            println!(
                "{:<12} {:>6} {:>6} {:>7} {:>7} {:>8}  {}",
                s("tenant"),
                n("queued"),
                n("active_jobs"),
                n("served"),
                n("failed"),
                n("rejected"),
                running
            );
        }
    }
    dramctrl_obs::log_info!("status", "queried"; "to" => to, "jobs" => jobs.len());
    Ok(())
}

/// `status --peer A --peer B ...`: one row per peer with a reachability
/// column and job tallies, plus a fleet summary line. Unreachable peers
/// are reported, not fatal — unless *no* peer answers.
fn fleet_status(a: &Args) -> Result<(), ArgError> {
    use dramctrl_serve::wire::Value;
    let peers = a.get_all("peer");
    let json = a.switch("json");
    if !json {
        println!(
            "{:<32} {:<9} {:>5} {:>6} {:>7}",
            "peer", "reachable", "jobs", "done", "failed"
        );
    }
    let (mut reachable, mut jobs_total, mut done_total, mut failed_total) = (0usize, 0, 0, 0);
    for peer in peers {
        let reply = dramctrl_serve::Client::connect(peer).and_then(|mut c| c.status());
        match reply {
            Ok(table) => {
                reachable += 1;
                let jobs = table.get("jobs").and_then(Value::as_arr).unwrap_or(&[]);
                let sum = |k: &str| {
                    jobs.iter()
                        .map(|j| j.get(k).and_then(Value::as_u64).unwrap_or(0))
                        .sum::<u64>()
                };
                let (done, failed) = (sum("done"), sum("failed"));
                jobs_total += jobs.len();
                done_total += done;
                failed_total += failed;
                if json {
                    println!(
                        "{{\"peer\":{},\"reachable\":true,\"status\":{}}}",
                        Value::Str(peer.clone()).encode(),
                        table.encode()
                    );
                } else {
                    println!(
                        "{:<32} {:<9} {:>5} {:>6} {:>7}",
                        peer,
                        "yes",
                        jobs.len(),
                        done,
                        failed
                    );
                }
            }
            Err(e) => {
                if json {
                    println!(
                        "{{\"peer\":{},\"reachable\":false,\"error\":{}}}",
                        Value::Str(peer.clone()).encode(),
                        Value::Str(e.to_string()).encode()
                    );
                } else {
                    println!("{:<32} {:<9} {e}", peer, "no");
                }
            }
        }
    }
    dramctrl_obs::log_info!(
        "status", "fleet queried";
        "peers" => peers.len(), "reachable" => reachable,
        "jobs" => jobs_total, "done" => done_total, "failed" => failed_total
    );
    if !json {
        println!(
            "fleet: {reachable}/{} peers reachable, {jobs_total} jobs \
             ({done_total} units done, {failed_total} failed)",
            peers.len()
        );
    }
    if reachable == 0 {
        return Err(ArgError("no reachable peers".into()));
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    /// `AXIS_OPTS` is exactly what `campaign_from_args` reads, and every
    /// command that builds a campaign accepts all of it.
    #[test]
    fn every_axis_flag_is_accepted_wherever_a_campaign_is_built() {
        let a = Args::default();
        campaign_from_args(&a).unwrap();
        let asked = a.asked.borrow();
        let asked: Vec<&str> = asked.iter().map(String::as_str).collect();
        let mut axes = AXIS_OPTS.to_vec();
        axes.sort_unstable();
        assert_eq!(asked, axes);
        for opts in [SWEEP_OPTS, SUBMIT_OPTS, DISPATCH_OPTS] {
            let known = opts.concat();
            for flag in &asked {
                assert!(known.contains(flag), "--{flag} is not in {known:?}");
            }
        }
    }
}
