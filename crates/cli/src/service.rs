//! The service commands: `serve` (the daemon), its clients `submit`,
//! `watch` and `status`, and `dispatch` (one campaign across a fleet).

use crate::args::{err, parse_duration, parse_epochs, ArgError, Args, Group, Opt};
use crate::sweep::{campaign_from_args, finish_report};
use crate::write_output;
use dramctrl_serve::wire::Value;
use std::path::PathBuf;
use std::time::Duration;

#[rustfmt::skip]
pub const DAEMON: Group = Group { heading: "SERVICE OPTIONS", opts: &[
    Opt::new("listen", "ADDR", "socket to listen on: a path (Unix socket) or host:port (TCP); port 0 picks one (announced on stderr)"),
    Opt::new("store", "DIR", "durable job store; a killed daemon restarted on the same store resumes every in-flight job"),
    Opt::new("max-jobs", "N", "admission bound: reject submits at N unfinished jobs").or("8"),
    Opt::new("quantum", "N", "preemption quantum in injected requests: long jobs checkpoint-pause at request boundaries so tenants share the simulator fairly").or("1000"),
    Opt::new("workers", "N", "jobs run at once, one scheduler worker each; 0 = all cores. A job has one unit in flight, so this is parallelism across jobs").or("0"),
    Opt::new("http", "ADDR", "also serve read-only HTTP observability endpoints on ADDR (path or host:port): /metrics (Prometheus), /metrics.json, /healthz (503 when the store is unwritable), /jobs"),
    Opt::new("client-timeout", "D", "per-connection read/write deadline; idle or non-reading clients are evicted after D, e.g. 30s or 250ms; 0 disables").or("30s"),
    Opt::new("subscriber-buffer", "N", "outbound event-buffer depth per watcher; a watcher that stops reading is evicted once its buffer fills").or("1024"),
    Opt::new("retain", "N", "garbage-collect the store: keep at most N finished jobs (oldest evicted first, at startup and on every completion; running and queued jobs are never touched; default: keep everything)"),
]};

#[rustfmt::skip]
pub const LOGGING: Group = Group { heading: "LOGGING OPTIONS", opts: &[
    Opt::new("log-level", "LEVEL", "stderr log threshold: error|warn|info|debug|trace; lines are structured key=\"value\"").or("info"),
]};

#[rustfmt::skip]
pub const SUBMISSION: Group = Group { heading: "SUBMIT OPTIONS", opts: &[
    Opt::new("to", "ADDR", "the service to submit to"),
    Opt::new("tenant", "NAME", "tenant for fair scheduling").or("cli"),
    Opt::new("epochs", "DUR", "request observed units: epoch series binned at this interval streamed to watchers (e.g. 1ms)"),
]};

#[rustfmt::skip]
pub const STREAM: Group = Group { heading: "WATCH OPTIONS", opts: &[
    Opt::new("to", "ADDR", "the service to connect to"),
    Opt::new("jsonl", "FILE", "write streamed records as a JSON-lines report (byte-identical to the same campaign's `sweep --jsonl` output)"),
    Opt::new("obs-dir", "DIR", "write streamed stats/epoch artifacts per unit"),
    Opt::new("reconnect", "", "survive daemon restarts: retry with exponential backoff and resume the stream gap- and dup-free from the last-seen record"),
]};

#[rustfmt::skip]
pub const QUERY: Group = Group { heading: "STATUS OPTIONS", opts: &[
    Opt::new("to", "ADDR", "the service to query"),
    Opt::new("peer", "ADDR...", "(repeatable) query a whole fleet instead: one row per peer with a reachability column and aggregated job counts"),
    Opt::new("json", "", "print the raw status event (one JSON line with per-job and per-tenant detail) instead of tables; with --peer, one JSON line per peer"),
]};

#[rustfmt::skip]
pub const FLEET: Group = Group { heading: "DISPATCH OPTIONS", opts: &[
    Opt::new("peer", "ADDR...", "(repeatable) a daemon to dispatch shards to"),
    Opt::new("peers-file", "FILE", "additional peers, one address per line (# comments and blank lines ignored)"),
    Opt::new("workdir", "DIR", "where shard journals accumulate (default: a fresh directory under the system temp dir)"),
    Opt::new("tenant", "NAME", "tenant submitted to every peer").or("dispatch"),
    Opt::new("timeout", "D", "per-read streaming deadline; a connected peer silent for this long fails its shard and the shard is re-dispatched, e.g. 30s; 0 disables").or("60s"),
    Opt::new("rounds", "N", "assignment rounds before giving up with an `incomplete` error").or("10"),
    Opt::new("no-hedge", "", "don't re-issue slow shards to idle peers"),
    Opt::new("json", "", "emit progress events (shard assigned / re-dispatched / hedged / finished / merged, with each shard's estimated cost and the per-peer totals) as JSON lines on stderr instead of logfmt"),
]};

const A_DAEMON: &str = "a running `dramctrl serve`";

/// Connects to a service, refusing version-mismatched daemons.
fn connect(addr: &str) -> Result<dramctrl_serve::Client, ArgError> {
    dramctrl_serve::Client::connect(addr)
        .map_err(|e| ArgError(format!("connecting to {addr:?}: {e}")))
}

/// A wall-clock deadline flag (`30s`, `250ms`); `0` disables it.
fn deadline(a: &Args, name: &str) -> Result<Option<Duration>, ArgError> {
    // `parse_duration` yields picoseconds; the deadline is wall clock.
    let ps = parse_duration(a.value(name))?;
    if ps > 0 && ps < 1_000_000_000 {
        return Err(ArgError(format!("--{name} below 1ms is not usable")));
    }
    Ok((ps > 0).then(|| Duration::from_nanos(ps / 1_000)))
}

fn set_log_level(a: &Args) -> Result<(), ArgError> {
    let level = dramctrl_obs::log::parse_level(a.value("log-level")).map_err(ArgError)?;
    dramctrl_obs::log::set_level(level);
    Ok(())
}

// Fields of a wire event, as `watch` and both `status` tables read them.
fn text<'a>(v: &'a Value, key: &str) -> &'a str {
    v.get(key).and_then(Value::as_str).unwrap_or("?")
}

fn num(v: &Value, key: &str) -> u64 {
    v.get(key).and_then(Value::as_u64).unwrap_or(0)
}

fn list<'a>(v: &'a Value, key: &str) -> &'a [Value] {
    v.get(key).and_then(Value::as_arr).unwrap_or(&[])
}

pub fn serve(a: &Args) -> Result<(), ArgError> {
    use dramctrl_serve::{serve_http, Listener, ServeConfig, Server};
    set_log_level(a)?;
    let listen = a.need("listen", "a path or host:port")?;
    let store = a.need("store", "the durable job store")?;
    let http = a.get("http");
    let mut cfg = ServeConfig::new(store);
    cfg.max_jobs = a.parsed("max-jobs")?;
    cfg.quantum = a.positive("quantum")?;
    cfg.workers = a.parsed("workers")?;
    cfg.client_timeout = deadline(a, "client-timeout")?;
    cfg.subscriber_buffer = a.positive("subscriber-buffer")?;
    cfg.retain = a.has("retain").then(|| a.parsed("retain")).transpose()?;
    let (quantum, max_jobs) = (cfg.quantum, cfg.max_jobs);
    let server =
        Server::open(cfg).map_err(|e| ArgError(format!("opening store {store:?}: {e}")))?;
    server.start_scheduler();
    let listener =
        Listener::bind(listen).map_err(|e| ArgError(format!("binding {listen:?}: {e}")))?;
    // Read-only observability endpoints on a second listener, served from
    // a background thread so a slow scrape never blocks job clients.
    if let Some(http) = http {
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

pub fn submit(a: &Args) -> Result<(), ArgError> {
    let to = a.need("to", A_DAEMON)?;
    let campaign = campaign_from_args(a)?;
    let epochs = a.get("epochs").map(parse_epochs).transpose()?;
    let mut client = connect(to)?;
    let (id, total) = client
        .submit(a.value("tenant"), epochs.unwrap_or(0), &campaign)
        .map_err(|e| ArgError(e.to_string()))?;
    println!("accepted {id} ({total} units)");
    dramctrl_obs::log_info!(
        "submit", "accepted";
        "job" => id, "units" => total, "watch" => format!("dramctrl watch {id} --to {to}")
    );
    Ok(())
}

pub fn watch(a: &Args) -> Result<(), ArgError> {
    let id = a.positional();
    let to = a.need("to", A_DAEMON)?;
    let (obs_dir, jsonl) = (a.get("obs-dir").map(PathBuf::from), a.get("jsonl"));
    if let Some(dir) = &obs_dir {
        std::fs::create_dir_all(dir)
            .map_err(|e| ArgError(format!("creating {}: {e}", dir.display())))?;
    }

    let mut records: std::collections::BTreeMap<usize, String> = Default::default();
    // The first artifact that could not be written. The stream is read to
    // its end all the same: the records are worth having without it.
    let mut lost = None;
    let mut on_event = |v: &Value, line: &str| {
        let index = num(v, "index") as usize;
        match text(v, "event") {
            "record" => {
                if let Some(data) = dramctrl_serve::record_data(line) {
                    records.insert(index, data.to_owned());
                }
            }
            "progress" => {
                let (done, total) = (num(v, "done"), num(v, "total"));
                eprint!("\r[{id}] {done}/{total} units committed  ");
            }
            event @ ("stats" | "epochs") => {
                if let (Some(dir), Some(body)) = (&obs_dir, v.get("text").and_then(Value::as_str)) {
                    let ext = if event == "stats" {
                        "stats.json"
                    } else {
                        "epochs.jsonl"
                    };
                    let written = write_output(dir.join(format!("unit-{index:06}.{ext}")), body);
                    lost = lost.take().or(written.err());
                }
            }
            _ => {}
        }
    };
    let summary = if a.has("reconnect") {
        // Rides through daemon restarts: retryable transport errors
        // reconnect with backoff, and the replayed history is deduped by
        // unit index, so the collected records stay gap- and dup-free.
        dramctrl_serve::Client::watch_with_reconnect(to, id, &mut on_event)
    } else {
        connect(to)?.watch(id, &mut on_event)
    }
    .map_err(|e| ArgError(e.to_string()))?;
    eprintln!();

    if let Some(path) = jsonl {
        // Records keyed by index render in campaign order — the same
        // bytes `sweep --jsonl` writes for this campaign.
        let jsonl: String = records.into_values().map(|l| l + "\n").collect();
        write_output(path, jsonl)?;
        dramctrl_obs::log_info!("watch", "wrote JSONL report"; "path" => path);
    }
    println!("{id}: {} ok, {} failed", summary.ok, summary.failed);
    if let Some(e) = lost {
        return Err(e);
    }
    if summary.failed > 0 {
        return Err(ArgError(format!("{} unit(s) failed", summary.failed)));
    }
    Ok(())
}

pub fn dispatch(a: &Args) -> Result<(), ArgError> {
    use dramctrl_serve::dispatch::DispatchConfig;
    if a.has("json") {
        dramctrl_obs::log::set_format(dramctrl_obs::log::Format::Json);
    }
    set_log_level(a)?;
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
        return err("dispatch needs at least one --peer ADDR (or --peers-file)");
    }
    let campaign = campaign_from_args(a)?;
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
    let cfg = DispatchConfig {
        tenant: a.value("tenant").to_owned(),
        io_timeout: deadline(a, "timeout")?,
        hedge: !a.has("no-hedge"),
        max_rounds: a.positive("rounds")?,
        ..DispatchConfig::new(&workdir)
    };
    let (report, stats) =
        dramctrl_serve::dispatch(&campaign, &peers, &cfg).map_err(|e| ArgError(e.to_string()))?;
    dramctrl_obs::log_info!(
        "dispatch", "campaign complete";
        "jobs" => report.records().len(), "shards" => stats.shards,
        "rounds" => stats.rounds, "redispatches" => stats.redispatches,
        "hedges" => stats.hedges, "peers_lost" => stats.peers_lost
    );
    finish_report(a, &report)
}

pub fn status(a: &Args) -> Result<(), ArgError> {
    let json = a.has("json");
    if a.has("peer") {
        if a.has("to") {
            return err("status takes either --to ADDR or --peer ADDR..., not both");
        }
        return fleet_status(a.get_all("peer"), json);
    }
    let to = a.need("to", "or --peer ADDR...")?;
    let table = (connect(to)?.status()).map_err(|e| ArgError(e.to_string()))?;
    if json {
        // The raw status event: one JSON line with the full per-job and
        // per-tenant detail, for scripts.
        println!("{}", table.encode());
        return Ok(());
    }
    let jobs = list(&table, "jobs");
    println!(
        "{:<10} {:<12} {:>6} {:>7} {:>6}  state",
        "job", "tenant", "done", "failed", "total"
    );
    for j in jobs {
        println!(
            "{:<10} {:<12} {:>6} {:>7} {:>6}  {}",
            text(j, "id"),
            text(j, "tenant"),
            num(j, "done"),
            num(j, "failed"),
            num(j, "total"),
            text(j, "state")
        );
    }
    let tenants = list(&table, "tenants");
    if !tenants.is_empty() {
        println!();
        println!(
            "{:<12} {:>6} {:>6} {:>7} {:>7} {:>8}  running",
            "tenant", "queued", "jobs", "served", "failed", "rejected"
        );
        for t in tenants {
            // Every unit in flight, `job#unit`, comma-separated.
            let running: Vec<String> = list(t, "running")
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
                text(t, "tenant"),
                num(t, "queued"),
                num(t, "active_jobs"),
                num(t, "served"),
                num(t, "failed"),
                num(t, "rejected"),
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
fn fleet_status(peers: &[String], json: bool) -> Result<(), ArgError> {
    if !json {
        println!(
            "{:<32} {:<9} {:>5} {:>6} {:>7}",
            "peer", "reachable", "jobs", "done", "failed"
        );
    }
    let (mut reachable, mut jobs_total, mut done_total, mut failed_total) = (0usize, 0, 0, 0);
    for peer in peers {
        let reply = dramctrl_serve::Client::connect(peer).and_then(|mut c| c.status());
        // The rest of the peer's table row, and of its JSON line.
        let (cells, fields) = match reply {
            Ok(table) => {
                let jobs = list(&table, "jobs");
                let sum = |k: &str| jobs.iter().map(|j| num(j, k)).sum::<u64>();
                let (done, failed) = (sum("done"), sum("failed"));
                reachable += 1;
                jobs_total += jobs.len();
                done_total += done;
                failed_total += failed;
                (
                    format!("{:<9} {:>5} {done:>6} {failed:>7}", "yes", jobs.len()),
                    format!("true,\"status\":{}", table.encode()),
                )
            }
            Err(e) => (
                format!("{:<9} {e}", "no"),
                format!("false,\"error\":{}", Value::Str(e.to_string()).encode()),
            ),
        };
        if json {
            let peer = Value::Str(peer.clone()).encode();
            println!("{{\"peer\":{peer},\"reachable\":{fields}}}");
        } else {
            println!("{peer:<32} {cells}");
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
    use crate::tests::command;
    use dramctrl_serve::dispatch::DispatchConfig;
    use dramctrl_serve::ServeConfig;

    /// What the tables print as a default is what the library does with
    /// no flag given.
    #[test]
    fn table_defaults_are_the_library_defaults() {
        let a = Args::parse([], command("serve")).unwrap();
        let cfg = ServeConfig::new("store");
        assert_eq!(a.parsed("max-jobs").ok(), Some(cfg.max_jobs));
        assert_eq!(a.parsed("quantum").ok(), Some(cfg.quantum));
        assert_eq!(a.parsed("workers").ok(), Some(cfg.workers));
        assert_eq!(deadline(&a, "client-timeout").unwrap(), cfg.client_timeout);
        assert_eq!(
            a.parsed("subscriber-buffer").ok(),
            Some(cfg.subscriber_buffer)
        );
        assert_eq!(a.get("retain"), None);
        assert_eq!(cfg.retain, None);

        let a = Args::parse([], command("dispatch")).unwrap();
        let cfg = DispatchConfig::new("workdir");
        assert_eq!(a.value("tenant"), cfg.tenant);
        assert_eq!(deadline(&a, "timeout").unwrap(), cfg.io_timeout);
        assert_eq!(a.parsed("rounds").ok(), Some(cfg.max_rounds));
        assert!(cfg.hedge, "--no-hedge is the switch");

        let a = Args::parse([], command("sweep")).unwrap();
        let cfg = dramctrl_campaign::ExecutorConfig::default();
        assert_eq!(a.parsed("workers").ok(), Some(cfg.workers));
        assert_eq!(a.parsed("retries").ok(), Some(cfg.max_attempts));
    }
}
