//! `sweep`: the campaign the axis flags describe, run on the local
//! executor (journaled, sharded, resumed) or merged from shard journals.
//! `submit` and `dispatch` build their campaign and write their report
//! through the same two functions.

use crate::args::{
    err, parse_device, parse_gen, parse_ras_rate, parse_size, ArgError, Args, Group, Opt,
};
use crate::write_output;
use dramctrl_kernel::Tick;
use std::path::{Path, PathBuf};

#[rustfmt::skip]
pub const AXES: Group = Group { heading: "AXIS OPTIONS — comma-separated lists become campaign axes; their Cartesian product runs in parallel with per-job deterministic seeds", opts: &[
    Opt::new("devices", "A,B", "device presets").or("ddr3-1333-x64"),
    Opt::new("models", "L", "event,cycle").or("event"),
    Opt::new("policies", "L", "page policies").or("open"),
    Opt::new("scheds", "L", "schedulers").or("frfcfs"),
    Opt::new("mappings", "L", "address mappings").or("RoRaBaCoCh"),
    Opt::new("channels", "L", "channel counts").or("1"),
    Opt::new("gens", "L", "linear,random,dram-aware").or("linear"),
    Opt::new("reads", "L", "read percentages").or("100"),
    Opt::new("requests", "L", "request counts").or("10000"),
    Opt::new("range", "SIZE", "linear/random address range").or("256MiB"),
    Opt::new("block", "N", "request size in bytes").or("64"),
    Opt::new("stride", "N", "dram-aware stride in bursts").or("8"),
    Opt::new("banks", "N", "dram-aware banks").or("4"),
    Opt::new("ras", "L", "fault-rate axis, faults per gigabit-hour, e.g. 0,1e11,2e11; 0 = fault-free").or("0"),
    Opt::new("seed", "N", "campaign seed").or("1"),
]};

#[rustfmt::skip]
pub const REPORT: Group = Group { heading: "REPORT OPTIONS — a merged or dispatched report is byte-identical to a local `dramctrl sweep` of the same flags", opts: &[
    Opt::new("jsonl", "FILE", "also write the deterministic JSON-lines report"),
    Opt::new("md", "FILE", "also write the result table as markdown"),
    Opt::new("csv", "", "print the result table as CSV"),
]};

/// What only a run can honour: `--merge` simulates nothing and refuses
/// every flag declared here.
#[rustfmt::skip]
pub const EXECUTION: Group = Group { heading: "EXECUTION OPTIONS — what only a run can honour; --merge refuses them", opts: &[
    Opt::new("workers", "N", "worker threads, 0 = all cores").or("0"),
    Opt::new("retries", "N", "attempts per job before it is recorded failed").or("2"),
    Opt::new("quiet", "", "suppress the stderr progress line"),
    Opt::new("obs-dir", "DIR", "per-job observability artifacts: DIR/job-<index> gets .trace.json (Perfetto), .epochs.csv and .stats.json"),
    Opt::new("journal", "PATH", "write-ahead journal: every finished job is fsync'd to PATH (a directory gets journal.jsonl) before it counts as done"),
    Opt::new("resume", "PATH", "resume a killed sweep from its journal: verifies the campaign matches, skips journaled jobs, runs the rest; merged reports are byte-identical to an uninterrupted run's"),
    Opt::new("checkpoint-every", "N", "checkpoint each running job every N injected requests (requires --journal/--resume; snapshots live beside the journal and are removed when the sweep completes); 0 = never").or("0"),
    Opt::new("shard", "I/N", "run only jobs with index % N == I (requires --journal/--resume); N cooperating processes given shards 0/N..N-1/N partition the campaign, and --merge recombines their journals"),
    Opt::new("metrics-json", "FILE", "write executor operational metrics (units/s, worker busy/idle, journal batch sizes, retries) as JSON when the sweep finishes"),
]};

#[rustfmt::skip]
pub const MERGE: Group = Group { heading: "MERGE OPTIONS", opts: &[
    Opt::new("merge", "P1,P2,...", "merge shard journals into the full report (with the same axis flags the shards ran); no simulation happens, and the merged --jsonl/--md are byte-identical to an unsharded run's"),
]};

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

/// One comma-separated axis flag: its items, each through `parse`.
fn axis<T>(
    a: &Args,
    name: &str,
    parse: impl Fn(&str) -> Result<T, ArgError>,
) -> Result<Vec<T>, ArgError> {
    let items = a.value(name).split(',').map(str::trim);
    let items: Vec<&str> = items.filter(|s| !s.is_empty()).collect();
    if items.is_empty() {
        return Err(ArgError(format!("--{name}: list must not be empty")));
    }
    items.into_iter().map(parse).collect()
}

/// Builds the campaign the [`AXES`] flags describe. The name is fixed
/// (`sweep`) so a campaign submitted to a service produces records
/// byte-comparable with a local `sweep` run of the same flags.
pub fn campaign_from_args(a: &Args) -> Result<dramctrl_campaign::Campaign, ArgError> {
    use dramctrl_campaign::Campaign;

    fn number<T: std::str::FromStr>(name: &str) -> impl Fn(&str) -> Result<T, ArgError> + '_ {
        move |n| (n.parse()).map_err(|_| ArgError(format!("--{name}: cannot parse {n:?}")))
    }
    let range = parse_size(a.value("range"))?;
    let block: u32 = a.parsed("block")?;
    let stride: u64 = a.parsed("stride")?;
    let banks: u32 = a.parsed("banks")?;
    Ok(Campaign::new("sweep", a.parsed("seed")?)
        .devices(axis(a, "devices", |d| {
            parse_device(d).map(|s| s.name.to_owned())
        })?)
        .models(axis(a, "models", |s| s.parse().map_err(ArgError))?)
        .policies(axis(a, "policies", |s| s.parse().map_err(ArgError))?)
        .scheds(axis(a, "scheds", |s| s.parse().map_err(ArgError))?)
        .mappings(axis(a, "mappings", |s| s.parse().map_err(ArgError))?)
        .channels(axis(a, "channels", number("channels"))?)
        .traffic(axis(a, "gens", |g| {
            parse_gen(g, range, block, stride, banks)
        })?)
        .read_pcts(axis(a, "reads", |r| {
            let pct = r.parse::<u8>().ok().filter(|r| *r <= 100);
            pct.ok_or_else(|| ArgError(format!("--reads: {r:?} is not 0..=100")))
        })?)
        .requests(axis(a, "requests", number("requests"))?)
        .error_rates(axis(a, "ras", parse_ras_rate)?))
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

pub fn sweep(a: &Args) -> Result<(), ArgError> {
    use dramctrl_campaign::{
        merge_journals, run_campaign, run_campaign_journaled, run_campaign_shard, CampaignJournal,
        ExecutorConfig, JobSpec, Progress,
    };
    use dramctrl_runner::JobRun;

    let campaign = campaign_from_args(a)?;
    let seed = campaign.seed;

    // --merge: recombine shard journals into the full report. Pure file
    // work — no simulation, no executor.
    if let Some(m) = a.get("merge") {
        if let Some(Opt { name, .. }) = EXECUTION.opts.iter().find(|o| a.has(o.name)) {
            return Err(ArgError(format!(
                "--merge only reads journals; drop --{name}"
            )));
        }
        let paths: Vec<PathBuf> = m.split(',').map(|p| journal_path(p.trim())).collect();
        let report = merge_journals(&campaign, &paths)
            .map_err(|e| ArgError(format!("merging journals: {e}")))?;
        return finish_report(a, &report);
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
        workers: a.parsed("workers")?,
        max_attempts: a.positive("retries")?,
        progress: if a.has("quiet") {
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
            return err(
                "--journal and --resume are mutually exclusive; --resume already knows its journal",
            )
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
        return err(
            "--shard needs --journal or --resume: shards meet again only through their journals",
        );
    }
    let every: u64 = a.parsed("checkpoint-every")?;
    if every > 0 {
        if journal.is_none() {
            return err(
                "--checkpoint-every needs --journal or --resume (snapshots live beside \
                 the journal)",
            );
        }
        if a.has("obs-dir") {
            return err("--checkpoint-every cannot be combined with --obs-dir");
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
                write_output(base.with_extension(ext), text).unwrap_or_else(|e| panic!("{e}"));
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
            report.records().len(),
            campaign.len()
        );
    }
    if let Some((path, registry, _)) = &metrics_out {
        write_output(path, registry.render_json())?;
        eprintln!("wrote executor metrics to {path}");
    }
    finish_report(a, &report)
}

/// Writes the report outputs (`--jsonl`, `--md`, the printed table and
/// summary) and turns failed jobs into a non-zero exit.
pub fn finish_report(a: &Args, report: &dramctrl_campaign::CampaignReport) -> Result<(), ArgError> {
    if let Some(path) = a.get("jsonl") {
        write_output(path, report.to_jsonl())?;
        eprintln!("wrote {} JSONL records to {path}", report.records().len());
    }
    let table = report.table(&[
        "bus_util",
        "bandwidth_gbps",
        "avg_read_lat_ns",
        "row_hit_rate",
    ]);
    if let Some(path) = a.get("md") {
        write_output(path, table.render())?;
        eprintln!("wrote result table to {path}");
    }
    if a.has("csv") {
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
