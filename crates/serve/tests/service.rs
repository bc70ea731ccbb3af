//! End-to-end service tests: a real daemon on a real socket, asserting
//! the two acceptance properties — streamed results byte-identical to a
//! standalone campaign run, and restart-on-the-same-store resuming
//! without re-running or losing committed work.

use dramctrl_campaign::{
    run_campaign_journaled, Campaign, CampaignJournal, ExecutorConfig, JobRecord,
};
use dramctrl_runner::run_job;
use dramctrl_serve::proto;
use dramctrl_serve::wire::Value;
use dramctrl_serve::{Client, Listener, ServeConfig, Server};
use std::io::{BufRead, BufReader, Write};
use std::path::PathBuf;

fn tmp(name: &str) -> PathBuf {
    let d = std::env::temp_dir().join(format!("dramctrl-serve-{}-{name}", std::process::id()));
    let _ = std::fs::remove_dir_all(&d);
    d
}

/// A campaign small enough to finish quickly but with enough requests
/// that the 1 000-request default quantum actually preempts.
fn campaign(name: &str) -> Campaign {
    Campaign::new(name, 42)
        .read_pcts([0, 50, 100])
        .requests([5_000])
}

/// Starts a daemon on an ephemeral TCP port; returns its address.
fn spawn_daemon(store: PathBuf, quantum: u64) -> String {
    let mut cfg = ServeConfig::new(store);
    cfg.quantum = quantum;
    let server = Server::open(cfg).expect("open store");
    server.start_scheduler();
    let listener = Listener::bind("127.0.0.1:0").expect("bind");
    let addr = listener.local_addr();
    std::thread::spawn(move || {
        let _ = server.serve(&listener);
    });
    addr
}

/// The reference: what a standalone journaled CLI sweep of `c` produces.
fn reference_jsonl(c: &Campaign, dir: &PathBuf) -> String {
    std::fs::create_dir_all(dir).unwrap();
    let mut j = CampaignJournal::create(dir.join("ref.jsonl"), c).unwrap();
    run_campaign_journaled(c, &ExecutorConfig::serial(), &mut j, run_job).to_jsonl()
}

/// A TCP round trip is a few socket hops, not a Nagle/delayed-ACK
/// stand-off: connect + hello + `status` + reply took 45 ms before
/// `TCP_NODELAY` (2-3 ms over a Unix socket).
#[test]
fn a_tcp_status_round_trip_does_not_wait_for_delayed_acks() {
    let addr = spawn_daemon(tmp("nodelay").join("store"), 1_000);
    let mut took: Vec<_> = (0..5)
        .map(|_| {
            let start = std::time::Instant::now();
            Client::connect(&addr).unwrap().status().unwrap();
            start.elapsed()
        })
        .collect();
    took.sort();
    let median = took[2];
    assert!(median.as_millis() < 20, "status round trips took {took:?}");
}

#[test]
fn served_records_are_byte_identical_to_standalone_run() {
    let root = tmp("bytes");
    let addr = spawn_daemon(root.join("store"), 1_000);
    let c = campaign("sweep");
    let want = reference_jsonl(&c, &root.join("ref"));

    let mut client = Client::connect(&addr).unwrap();
    let (id, total) = client.submit("alice", 0, &c).unwrap();
    assert_eq!(total, 3);

    // Collect streamed record lines in index order.
    let mut records = vec![None; total];
    let summary = client
        .watch(&id, |v, line| {
            if v.get("event").and_then(Value::as_str) == Some("record") {
                let i = v.get("index").and_then(Value::as_u64).unwrap() as usize;
                let data = proto::record_data(line).expect("record payload").to_owned();
                records[i] = Some(data);
            }
        })
        .unwrap();
    assert_eq!(summary.ok, 3);
    assert_eq!(summary.failed, 0);

    let got: String = records
        .into_iter()
        .map(|r| r.expect("every unit streamed") + "\n")
        .collect();
    assert_eq!(
        got, want,
        "streamed records == standalone sweep, byte for byte"
    );
}

#[test]
fn two_tenants_interleave_and_both_match_standalone() {
    let root = tmp("tenants");
    let addr = spawn_daemon(root.join("store"), 500);
    let ca = campaign("alice-sweep");
    let cb = campaign("bob-sweep");
    let want_a = reference_jsonl(&ca, &root.join("ref-a"));
    let want_b = reference_jsonl(&cb, &root.join("ref-b"));

    let mut ka = Client::connect(&addr).unwrap();
    let mut kb = Client::connect(&addr).unwrap();
    let (ia, _) = ka.submit("alice", 0, &ca).unwrap();
    let (ib, _) = kb.submit("bob", 0, &cb).unwrap();

    let collect = |client: &mut Client, id: &str| {
        let mut out = std::collections::BTreeMap::new();
        client
            .watch(id, |v, line| {
                if v.get("event").and_then(Value::as_str) == Some("record") {
                    let i = v.get("index").and_then(Value::as_u64).unwrap() as usize;
                    out.insert(i, proto::record_data(line).unwrap().to_owned());
                }
            })
            .unwrap();
        out.into_values().map(|l| l + "\n").collect::<String>()
    };
    // Watch concurrently: both jobs are in flight at once.
    let got_b = std::thread::scope(|s| {
        let h = s.spawn(|| collect(&mut kb, &ib));
        let got_a = collect(&mut ka, &ia);
        assert_eq!(got_a, want_a, "tenant A sees a byte-exact sweep");
        h.join().unwrap()
    });
    assert_eq!(got_b, want_b, "tenant B sees a byte-exact sweep");
}

/// Hand-crafts the store a daemon leaves behind when SIGKILL'd after
/// committing exactly one unit, with unit 1 in flight — an accepted job
/// and a journal with one record, plus whatever `strays` names — then
/// opens a daemon on it and checks that the job finishes byte-identical
/// to an uninterrupted run. (The process-level kill of a live daemon is
/// exercised in the CLI e2e test.)
fn finishes_from_a_committed_prefix(name: &str, strays: &[&str]) {
    let root = tmp(name);
    let store = root.join("store");
    let c = campaign("sweep");
    let want = reference_jsonl(&c, &root.join("ref"));

    let id = {
        let (mut js, _) = dramctrl_serve::JobStore::open(&store).unwrap();
        let stored = js.accept("alice", 0, &c, None).unwrap();
        let dir = js.job_dir(&stored.id);
        let mut journal = CampaignJournal::create(dir.join("journal.jsonl"), &c).unwrap();
        let unit0 = &c.expand()[0];
        journal
            .commit(&JobRecord {
                job: unit0.clone(),
                outcome: dramctrl_campaign::JobOutcome::Completed {
                    metrics: run_job(unit0),
                    attempts: 1,
                },
            })
            .unwrap();
        for stray in strays {
            std::fs::write(dir.join(stray), b"stale").unwrap();
        }
        stored.id
    };
    let journal = store.join(&id).join("journal.jsonl");
    let committed_before = std::fs::read_to_string(&journal).unwrap();

    // A daemon opened on that store recovers, re-queues the job, and
    // finishes the remaining units — committed lines untouched, nothing
    // duplicated, nothing lost.
    let addr2 = spawn_daemon(store.clone(), 1_000);
    let mut client2 = Client::connect(&addr2).unwrap();
    let mut records = std::collections::BTreeMap::new();
    let summary = client2
        .watch(&id, |v, line| {
            if v.get("event").and_then(Value::as_str) == Some("record") {
                let i = v.get("index").and_then(Value::as_u64).unwrap() as usize;
                records.insert(i, proto::record_data(line).unwrap().to_owned());
            }
        })
        .unwrap();
    assert_eq!((summary.ok, summary.failed), (3, 0));

    let after = std::fs::read_to_string(&journal).unwrap();
    assert!(
        after.starts_with(&committed_before),
        "restart never rewrites committed journal lines"
    );
    let got: String = records.into_values().map(|l| l + "\n").collect();
    assert_eq!(got, want, "resumed results == uninterrupted standalone run");
    for stray in strays {
        assert!(
            !store.join(&id).join(stray).exists(),
            "recovery deletes {stray} unread"
        );
    }
}

#[test]
fn restart_resumes_committed_work_without_rerunning() {
    // Checkpoints stranded by a daemon from before preemption moved into
    // memory — one for the committed unit, one (garbage, as far as any
    // reader is concerned) for the unit that was in flight. Neither may
    // be read: the in-flight unit restarts from its first request.
    finishes_from_a_committed_prefix("restart", &["unit-000000.snap", "unit-000001.snap"]);
}

#[test]
fn killed_mid_unit_with_no_snapshot_finishes_byte_identically() {
    // What this daemon leaves when killed mid-unit: a committed prefix
    // and nothing else. Preemptions wrote no file to resume from.
    finishes_from_a_committed_prefix("killed-mid-unit", &[]);
}

#[test]
fn admission_control_rejects_with_reason_and_version_gate_refuses() {
    let root = tmp("admission");
    let store = root.join("store");
    let mut cfg = ServeConfig::new(store);
    cfg.max_jobs = 1;
    let server = Server::open(cfg).unwrap();
    // No scheduler: jobs stay active, so the second submit must bounce.
    let listener = Listener::bind("127.0.0.1:0").unwrap();
    let addr = listener.local_addr();
    {
        let server = server.clone();
        std::thread::spawn(move || {
            let _ = server.serve(&listener);
        });
    }

    let mut client = Client::connect(&addr).unwrap();
    client.submit("alice", 0, &campaign("first")).unwrap();
    let err = client.submit("alice", 0, &campaign("second")).unwrap_err();
    assert!(err.to_string().contains("queue full"), "{err}");

    // A daemon speaking a different protocol is refused at connect.
    let fake = std::net::TcpListener::bind("127.0.0.1:0").unwrap();
    let fake_addr = fake.local_addr().unwrap().to_string();
    std::thread::spawn(move || {
        let (mut s, _) = fake.accept().unwrap();
        let line = dramctrl_serve::VersionInfo::current().hello_line();
        writeln!(
            s,
            "{}",
            line.replace(
                &format!("\"proto\":{}", dramctrl_serve::PROTO_VERSION),
                "\"proto\":999"
            )
        )
        .unwrap();
    });
    let err = Client::connect(&fake_addr).unwrap_err();
    assert!(err.to_string().contains("protocol"), "{err}");
}

#[test]
fn status_reports_the_job_table() {
    let root = tmp("status");
    let addr = spawn_daemon(root.join("store"), 1_000);
    let mut client = Client::connect(&addr).unwrap();
    let (id, _) = client.submit("alice", 0, &campaign("sweep")).unwrap();
    client.watch(&id, |_, _| {}).unwrap();
    let status = client.status().unwrap();
    let jobs = status.get("jobs").and_then(Value::as_arr).unwrap();
    assert_eq!(jobs.len(), 1);
    assert_eq!(jobs[0].get("id").and_then(Value::as_str), Some(id.as_str()));
    assert_eq!(jobs[0].get("state").and_then(Value::as_str), Some("done"));
    assert_eq!(jobs[0].get("done").and_then(Value::as_u64), Some(3));
}

#[test]
fn observed_jobs_stream_stats_and_epochs() {
    let root = tmp("observed");
    let addr = spawn_daemon(root.join("store"), 1_000);
    let c = Campaign::new("obs", 9).read_pcts([50]).requests([2_000]);
    let want = reference_jsonl(&c, &root.join("ref"));

    let mut client = Client::connect(&addr).unwrap();
    let (id, _) = client.submit("alice", 1_000_000, &c).unwrap();
    let mut stats = None;
    let mut epochs = None;
    let mut record = None;
    client
        .watch(&id, |v, line| {
            match v.get("event").and_then(Value::as_str) {
                Some("stats") => stats = v.get("text").and_then(Value::as_str).map(str::to_owned),
                Some("epochs") => epochs = v.get("text").and_then(Value::as_str).map(str::to_owned),
                Some("record") => record = proto::record_data(line).map(str::to_owned),
                _ => {}
            }
        })
        .unwrap();
    let stats = stats.expect("stats streamed");
    assert!(
        stats.contains("\"prefix\""),
        "stats is the stable report JSON"
    );
    let epochs = epochs.expect("epoch series streamed");
    assert!(epochs.lines().count() >= 1, "at least one epoch line");
    // Zero perturbation: the observed unit's record matches the
    // unobserved standalone run byte for byte.
    assert_eq!(record.unwrap() + "\n", want);

    // Artifacts also landed server-side, next to the journal.
    let dir = root.join("store").join(&id);
    for ext in ["stats.json", "epochs.jsonl", "epochs.csv", "trace.json"] {
        assert!(
            dir.join(format!("unit-000000.{ext}")).exists(),
            "missing {ext}"
        );
    }

    // A watch after completion replays the same artifacts from disk.
    let mut late = Client::connect(&addr).unwrap();
    let mut replayed_stats = None;
    late.watch(&id, |v, _| {
        if v.get("event").and_then(Value::as_str) == Some("stats") {
            replayed_stats = v.get("text").and_then(Value::as_str).map(str::to_owned);
        }
    })
    .unwrap();
    assert_eq!(replayed_stats.as_deref(), Some(stats.as_str()));
}

/// Like [`spawn_daemon`], but also starts the read-only HTTP
/// observability listener and returns the [`Server`] handle.
fn spawn_daemon_http(store: PathBuf, quantum: u64) -> (String, String, Server) {
    let mut cfg = ServeConfig::new(store);
    cfg.quantum = quantum;
    let server = Server::open(cfg).expect("open store");
    server.start_scheduler();
    let listener = Listener::bind("127.0.0.1:0").expect("bind");
    let addr = listener.local_addr();
    {
        let server = server.clone();
        std::thread::spawn(move || {
            let _ = server.serve(&listener);
        });
    }
    let http = Listener::bind("127.0.0.1:0").expect("bind http");
    let http_addr = http.local_addr();
    {
        let server = server.clone();
        std::thread::spawn(move || {
            let _ = dramctrl_serve::serve_http(&server, &http);
        });
    }
    (addr, http_addr, server)
}

/// One raw HTTP/1.1 exchange; returns (status, head, body).
fn http_request(addr: &str, verb: &str, path: &str) -> (u16, String, String) {
    use std::io::Read;
    let mut s = std::net::TcpStream::connect(addr).unwrap();
    write!(
        s,
        "{verb} {path} HTTP/1.1\r\nHost: test\r\nConnection: close\r\n\r\n"
    )
    .unwrap();
    let mut text = String::new();
    s.read_to_string(&mut text).unwrap();
    let (head, body) = text.split_once("\r\n\r\n").expect("header/body split");
    let status = head
        .split_whitespace()
        .nth(1)
        .and_then(|c| c.parse().ok())
        .unwrap_or_else(|| panic!("no status in {head:?}"));
    (status, head.to_owned(), body.to_owned())
}

#[test]
fn http_endpoints_expose_metrics_health_and_jobs() {
    let root = tmp("http");
    let (addr, http, _server) = spawn_daemon_http(root.join("store"), 500);
    let mut client = Client::connect(&addr).unwrap();
    let (id, total) = client.submit("alice", 0, &campaign("sweep")).unwrap();
    client.watch(&id, |_, _| {}).unwrap();

    let (code, head, body) = http_request(&http, "GET", "/metrics");
    assert_eq!(code, 200);
    assert!(head.contains("text/plain"), "{head}");
    dramctrl_obs::metrics::validate_exposition(&body).expect("well-formed exposition");
    for needle in [
        "dramctrl_admission_total{result=\"accepted\"} 1",
        &format!("dramctrl_tenant_served_units_total{{tenant=\"alice\"}} {total}"),
        "dramctrl_store_fsync_seconds_count{op=\"commit\"}",
        "dramctrl_store_fsync_seconds_count{op=\"accept\"}",
        "dramctrl_executor_units_per_second",
        "dramctrl_sched_preemptions_total",
        "dramctrl_sched_wait_seconds_count",
        // Every worker went idle before the `done` the watch waited for
        // was broadcast.
        "dramctrl_sched_workers_busy 0\n",
    ] {
        assert!(body.contains(needle), "missing {needle} in:\n{body}");
    }
    // A lone job's three units spread over the pool: at most one worker
    // per unit, and no more than the host's cores.
    let cores = std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get);
    let workers: usize = body
        .lines()
        .find_map(|l| l.strip_prefix("dramctrl_sched_workers "))
        .and_then(|v| v.parse().ok())
        .expect("the worker gauge");
    assert!(
        (1..=cores.min(total)).contains(&workers),
        "{workers} workers"
    );

    let (code, head, body) = http_request(&http, "GET", "/metrics.json");
    assert_eq!(code, 200);
    assert!(head.contains("application/json"), "{head}");
    assert!(body.starts_with("{\"families\":["), "{body}");

    let (code, _, body) = http_request(&http, "GET", "/jobs");
    assert_eq!(code, 200);
    assert!(
        body.contains(&format!("\"id\":\"{id}\"")) && body.contains("\"tenants\":"),
        "{body}"
    );
    assert!(body.contains("\"running\":[]"), "idle tenant: {body}");

    let (code, _, body) = http_request(&http, "GET", "/healthz");
    assert_eq!(code, 200);
    assert!(body.contains("\"status\":\"ok\""), "{body}");

    let (code, _, _) = http_request(&http, "GET", "/nope");
    assert_eq!(code, 404);
    let (code, _, _) = http_request(&http, "POST", "/metrics");
    assert_eq!(code, 405);
}

#[test]
fn healthz_reports_unwritable_store_as_503() {
    let root = tmp("health");
    let store = root.join("store");
    let (_addr, http, _server) = spawn_daemon_http(store.clone(), 1_000);
    let (code, _, _) = http_request(&http, "GET", "/healthz");
    assert_eq!(code, 200);

    // Yank the store out from under the daemon: the probe write fails,
    // so the endpoint must flip to 503 (and recover when the directory
    // comes back).
    std::fs::remove_dir_all(&store).unwrap();
    let (code, _, body) = http_request(&http, "GET", "/healthz");
    assert_eq!(code, 503, "{body}");
    assert!(body.contains("\"status\":\"unwritable\""), "{body}");
    std::fs::create_dir_all(&store).unwrap();
    let (code, _, _) = http_request(&http, "GET", "/healthz");
    assert_eq!(code, 200);
}

#[test]
fn concurrent_scrapes_never_perturb_streamed_records() {
    use std::sync::atomic::{AtomicBool, Ordering};
    let root = tmp("zero-perturb");
    let (addr, http, _server) = spawn_daemon_http(root.join("store"), 500);
    let c = campaign("sweep");
    let want = reference_jsonl(&c, &root.join("ref"));

    let mut client = Client::connect(&addr).unwrap();
    let (id, total) = client.submit("alice", 0, &c).unwrap();

    // Hammer /metrics from another thread for the whole run.
    let stop = std::sync::Arc::new(AtomicBool::new(false));
    let scraper = {
        let (stop, http) = (stop.clone(), http.clone());
        std::thread::spawn(move || {
            let mut n = 0u64;
            while !stop.load(Ordering::Relaxed) {
                let (code, _, _) = http_request(&http, "GET", "/metrics");
                assert_eq!(code, 200);
                n += 1;
            }
            n
        })
    };

    let mut records = vec![None; total];
    client
        .watch(&id, |v, line| {
            if v.get("event").and_then(Value::as_str) == Some("record") {
                let i = v.get("index").and_then(Value::as_u64).unwrap() as usize;
                records[i] = Some(proto::record_data(line).unwrap().to_owned());
            }
        })
        .unwrap();
    stop.store(true, Ordering::Relaxed);
    assert!(scraper.join().unwrap() >= 1, "scraper never ran");

    let got: String = records
        .into_iter()
        .map(|r| r.expect("every unit streamed") + "\n")
        .collect();
    assert_eq!(got, want, "scraped run == unscraped standalone run");
}

#[test]
fn preemption_counter_matches_independent_slice_replay() {
    use dramctrl_runner::{JobRun, SliceOutcome};
    let root = tmp("preempt");
    let quantum = 700;
    let (addr, _http, server) = spawn_daemon_http(root.join("store"), quantum);
    // An unobserved job and an observed one: probes ride along in the
    // resident run, so both are sliced by the same rule.
    let inputs = [(0, campaign("sweep")), (1_000_000, campaign("observed"))];
    let mut client = Client::connect(&addr).unwrap();
    for (epochs, c) in &inputs {
        let (id, _) = client.submit("alice", *epochs, c).unwrap();
        client.watch(&id, |_, _| {}).unwrap();
    }

    let text = server.metrics_exposition();
    let got: u64 = text
        .lines()
        .find(|l| l.starts_with("dramctrl_sched_preemptions_total "))
        .and_then(|l| l.rsplit(' ').next()?.parse().ok())
        .expect("preemption counter present");

    // Replay each unit through the same slicing rule the scheduler uses
    // (first target = quantum, then injected + quantum) — and the same
    // call, `JobRun::advance` — and count pauses. Slicing is
    // simulation-deterministic, so the counts must agree.
    let mut want = 0u64;
    for (epochs, c) in &inputs {
        for unit in &c.expand() {
            let mut run = JobRun::start(unit, *epochs);
            let mut target = quantum;
            while let SliceOutcome::Paused { injected } = run.advance(Some(target)) {
                want += 1;
                target = injected + quantum;
            }
        }
    }
    assert!(want >= 1, "quantum too large to preempt at all");
    assert_eq!(got, want, "daemon preemptions == slice-replay preemptions");
}

#[test]
fn a_long_observed_unit_does_not_stall_another_tenant() {
    let root = tmp("observed-fair");
    let addr = spawn_daemon(root.join("store"), 200);
    let big = Campaign::new("big", 3).read_pcts([100]).requests([200_000]);
    let small = Campaign::new("small", 4).read_pcts([50]).requests([2_000]);
    let want_big = reference_jsonl(&big, &root.join("ref-big"));
    let want_small = reference_jsonl(&small, &root.join("ref-small"));

    let records = |client: &mut Client, id: &str| {
        let mut out = String::new();
        client
            .watch(id, |v, line| {
                if v.get("event").and_then(Value::as_str) == Some("record") {
                    out += proto::record_data(line).unwrap();
                    out.push('\n');
                }
            })
            .unwrap();
        out
    };
    let mut ka = Client::connect(&addr).unwrap();
    let mut kb = Client::connect(&addr).unwrap();
    let (ia, _) = ka.submit("a", 100_000_000, &big).unwrap();
    let (ib, _) = kb.submit("b", 0, &small).unwrap();

    // B's whole job fits between slices of A's single observed unit.
    assert_eq!(records(&mut kb, &ib), want_small);
    let status = kb.status().unwrap();
    let jobs = status.get("jobs").and_then(Value::as_arr).unwrap();
    let a = jobs
        .iter()
        .find(|j| j.get("id").and_then(Value::as_str) == Some(ia.as_str()))
        .expect("job a in status");
    assert_eq!(
        a.get("done").and_then(Value::as_u64),
        Some(0),
        "b finished only after a's observed unit: {}",
        status.encode()
    );
    assert_eq!(records(&mut ka, &ia), want_big);
}

#[test]
fn dispatch_of_observed_units_merges_a_byte_identical_report() {
    use dramctrl_serve::{dispatch, DispatchConfig};
    let root = tmp("dispatch-observed");
    let addr = spawn_daemon(root.join("store"), 500);
    let c = campaign("sweep");
    let want = reference_jsonl(&c, &root.join("ref"));
    let mut cfg = DispatchConfig::new(root.join("work"));
    cfg.epochs = 1_000_000;
    let (report, _) = dispatch(&c, &[addr], &cfg).unwrap();
    assert_eq!(report.to_jsonl(), want);
}

#[test]
fn hello_is_first_line_on_every_connection() {
    let root = tmp("hello");
    let addr = spawn_daemon(root.join("store"), 1_000);
    let stream = std::net::TcpStream::connect(&addr).unwrap();
    let mut reader = BufReader::new(stream);
    let mut line = String::new();
    reader.read_line(&mut line).unwrap();
    let v = Value::parse(line.trim()).unwrap();
    assert_eq!(v.get("event").and_then(Value::as_str), Some("hello"));
    assert_eq!(
        v.get("proto").and_then(Value::as_u64),
        Some(u64::from(dramctrl_serve::PROTO_VERSION))
    );
}

#[test]
fn sharded_submit_runs_only_the_residue_class_byte_identically() {
    let root = tmp("shard");
    let addr = spawn_daemon(root.join("store"), 1_000);
    let c = campaign("sweep");
    let want = reference_jsonl(&c, &root.join("ref"));

    let mut client = Client::connect(&addr).unwrap();
    let (id, total) = client.submit_sharded("alice", 0, &c, Some((1, 3))).unwrap();
    assert_eq!(total, 1, "accepted total is the shard size");
    let mut streamed = Vec::new();
    let summary = client
        .watch(&id, |v, line| {
            if v.get("event").and_then(Value::as_str) == Some("record") {
                let i = v.get("index").and_then(Value::as_u64).unwrap() as usize;
                streamed.push((i, proto::record_data(line).unwrap().to_owned()));
            }
        })
        .unwrap();
    assert_eq!((summary.ok, summary.failed), (1, 0));
    let [(index, data)] = streamed.as_slice() else {
        panic!("expected exactly one record, got {streamed:?}");
    };
    assert_eq!(*index, 1, "only the shard's residue class runs");
    assert_eq!(
        data,
        want.lines().nth(1).unwrap(),
        "shard record bytes == the full run's bytes for that index"
    );
    // Malformed shard fields are rejected at submission, not run.
    let err = client
        .submit_sharded("alice", 0, &c, Some((3, 3)))
        .unwrap_err();
    assert!(err.to_string().contains("out of range"), "{err}");
}

#[test]
fn retain_gc_evicts_oldest_finished_jobs_and_spares_the_rest() {
    use dramctrl_campaign::JobOutcome;
    let root = tmp("retain");
    let store = root.join("store");
    let c = Campaign::new("gc-sweep", 42).read_pcts([0]).requests([500]);

    // Hand-craft a store with two finished jobs and one incomplete job.
    let ids: Vec<String> = {
        let (mut js, _) = dramctrl_serve::JobStore::open(&store).unwrap();
        (0..3)
            .map(|k| {
                let stored = js.accept("alice", 0, &c, None).unwrap();
                let dir = js.job_dir(&stored.id);
                let mut journal = CampaignJournal::create(dir.join("journal.jsonl"), &c).unwrap();
                if k < 2 {
                    let unit = &c.expand()[0];
                    journal
                        .commit(&JobRecord {
                            job: unit.clone(),
                            outcome: JobOutcome::Completed {
                                metrics: run_job(unit),
                                attempts: 1,
                            },
                        })
                        .unwrap();
                }
                stored.id
            })
            .collect()
    };

    // Startup GC with --retain 1: the OLDEST finished job goes; the
    // newest finished job and the incomplete one stay.
    let mut cfg = ServeConfig::new(store.clone());
    cfg.retain = Some(1);
    let server = Server::open(cfg).unwrap();
    server.start_scheduler();
    let listener = Listener::bind("127.0.0.1:0").unwrap();
    let addr = listener.local_addr();
    std::thread::spawn(move || {
        let _ = server.serve(&listener);
    });
    assert!(
        !store.join(&ids[0]).exists(),
        "oldest finished job evicted at startup"
    );
    assert!(store.join(&ids[1]).exists());
    assert!(
        store.join(&ids[2]).exists(),
        "running/queued jobs are never GC'd"
    );

    // The recovered incomplete job finishes; its completion triggers
    // another GC pass which now evicts ids[1]. The pass runs just after
    // the done event broadcasts, so poll status for the counter.
    let mut client = Client::connect(&addr).unwrap();
    client.watch(&ids[2], |_, _| {}).unwrap();
    let deadline = std::time::Instant::now() + std::time::Duration::from_secs(10);
    loop {
        let status = client.status().unwrap();
        let evicted = status
            .get("gc_evicted")
            .and_then(Value::as_u64)
            .unwrap_or(0);
        if evicted >= 2 {
            break;
        }
        assert!(
            std::time::Instant::now() < deadline,
            "gc_evicted never reached 2: {}",
            status.encode()
        );
        std::thread::sleep(std::time::Duration::from_millis(50));
    }
    assert!(!store.join(&ids[1]).exists());
    assert!(store.join(&ids[2]).exists(), "newest finished job retained");
}

/// Like [`spawn_daemon`], with the pool's size pinned and on a Unix
/// socket next to the store (a status round trip is tens of
/// microseconds there, so polling can catch a state that lasts
/// milliseconds); also returns the [`Server`] handle.
fn spawn_daemon_pool(store: PathBuf, quantum: u64, workers: usize) -> (String, Server) {
    let sock = store.with_extension("sock");
    let mut cfg = ServeConfig::new(store);
    cfg.quantum = quantum;
    cfg.workers = workers;
    let server = Server::open(cfg).expect("open store");
    drop(server.start_scheduler());
    let listener = Listener::bind(sock.to_str().unwrap()).expect("bind");
    let addr = listener.local_addr();
    let accept = server.clone();
    std::thread::spawn(move || {
        let _ = accept.serve(&listener);
    });
    (addr, server)
}

/// Watches `id` to `done`; the streamed records in index order.
fn watch_records(addr: &str, id: &str) -> String {
    let mut out = std::collections::BTreeMap::new();
    Client::connect(addr)
        .unwrap()
        .watch(id, |v, line| {
            if v.get("event").and_then(Value::as_str) == Some("record") {
                let i = v.get("index").and_then(Value::as_u64).unwrap() as usize;
                out.insert(i, proto::record_data(line).unwrap().to_owned());
            }
        })
        .unwrap();
    out.into_values().map(|l| l + "\n").collect()
}

#[test]
fn every_worker_count_streams_the_same_bytes_and_preempts_the_same() {
    let root = tmp("pool-bytes");
    // One job of nine units from one tenant at a 200-request quantum: a
    // pool runs as many of its units at once as it has workers, so a run
    // one worker pauses is routinely resumed by another, 25 times per
    // unit, and units finish out of index order.
    let jobs = [("alice", "solo")].map(|(tenant, name)| {
        let c = Campaign::new(name, 42)
            .read_pcts([0, 10, 25, 40, 50, 60, 75, 90, 100])
            .requests([5_000]);
        let dir = root.join(format!("ref-{name}"));
        let records = reference_jsonl(&c, &dir);
        let journal = std::fs::read_to_string(dir.join("ref.jsonl")).unwrap();
        (tenant, c, records, journal)
    });

    let mut preemptions = Vec::new();
    for workers in [1, 2, 4] {
        let store = root.join(format!("store-{workers}"));
        let (addr, server) = spawn_daemon_pool(store.clone(), 200, workers);
        let mut client = Client::connect(&addr).unwrap();
        let ids: Vec<String> = jobs
            .iter()
            .map(|(tenant, c, ..)| client.submit(tenant, 0, c).unwrap().0)
            .collect();
        // Watched while it runs: records arrive as its units commit.
        let streams: Vec<String> = std::thread::scope(|s| {
            let watchers: Vec<_> = ids
                .iter()
                .map(|id| s.spawn(|| watch_records(&addr, id)))
                .collect();
            watchers.into_iter().map(|w| w.join().unwrap()).collect()
        });
        for ((id, got), (_, c, records, journal)) in ids.iter().zip(&streams).zip(&jobs) {
            assert_eq!(got, records, "{workers} workers, {}: stream", c.name);
            let on_disk = std::fs::read_to_string(store.join(id).join("journal.jsonl")).unwrap();
            assert_eq!(&on_disk, journal, "{workers} workers, {}: journal", c.name);
        }
        let m = server.metrics();
        assert!(m.sched_workers.get() <= workers as f64, "{workers} workers");
        preemptions.push(m.preemptions.get());
    }
    // A function of the units and the quantum only: 9 units of 5 000
    // requests pause 25 times each, whoever runs them.
    assert_eq!(preemptions, [225, 225, 225]);
}

#[test]
fn a_late_guest_finishes_while_two_hogs_hold_both_workers() {
    let root = tmp("pool-fair");
    let (addr, server) = spawn_daemon_pool(root.join("store"), 200, 2);
    // One unit each, never watched to its end (the daemon is dropped with
    // both still running), so its length costs nothing: ~1 s of simulation
    // against the few milliseconds — mostly fsyncs — the guest needs.
    let hog = |name: &str| {
        Campaign::new(name, 3)
            .read_pcts([100])
            .requests([4_000_000])
    };
    let small = Campaign::new("small", 4).read_pcts([50]).requests([2_000]);
    let want_small = reference_jsonl(&small, &root.join("ref-small"));

    let mut client = Client::connect(&addr).unwrap();
    let hogs = [("hog-a", hog("a")), ("hog-b", hog("b"))]
        .map(|(tenant, c)| client.submit(tenant, 0, &c).unwrap().0);
    // Both hogs in flight, one per worker, before the guest shows up.
    // The busy gauge dips between a worker's slices, so poll for it.
    let deadline = std::time::Instant::now() + std::time::Duration::from_secs(30);
    loop {
        let text = server.metrics_exposition();
        let both_busy = text.contains("dramctrl_sched_workers 2\n")
            && text.contains("dramctrl_sched_workers_busy 2\n");
        let status = client.status().unwrap();
        let tenants = status.get("tenants").and_then(Value::as_arr).unwrap();
        let running = |t: &Value| t.get("running").and_then(Value::as_arr).map(<[_]>::len);
        if both_busy && tenants.iter().all(|t| running(t) == Some(1)) {
            break;
        }
        assert!(
            std::time::Instant::now() < deadline,
            "the hogs never held both workers: {}\n{text}",
            status.encode()
        );
        std::thread::sleep(std::time::Duration::from_millis(1));
    }

    let (guest, _) = client.submit("guest", 0, &small).unwrap();
    assert_eq!(watch_records(&addr, &guest), want_small);
    let status = client.status().unwrap();
    let jobs = status.get("jobs").and_then(Value::as_arr).unwrap();
    for id in &hogs {
        let job = jobs
            .iter()
            .find(|j| j.get("id").and_then(Value::as_str) == Some(id.as_str()))
            .expect("hog in status");
        assert_eq!(
            job.get("done").and_then(Value::as_u64),
            Some(0),
            "the guest finished only after {id}'s unit: {}",
            status.encode()
        );
    }
}

#[test]
fn a_lone_hog_holds_both_workers() {
    let root = tmp("pool-lone");
    let (addr, server) = spawn_daemon_pool(root.join("store"), 200, 2);
    // Two long units of one job, never watched to their end (the daemon
    // is dropped with both still running).
    let hog = Campaign::new("hog", 3)
        .read_pcts([50, 100])
        .requests([4_000_000]);
    let mut client = Client::connect(&addr).unwrap();
    let (id, _) = client.submit("hog", 0, &hog).unwrap();
    // The busy gauge dips between a worker's slices, so poll for it.
    let deadline = std::time::Instant::now() + std::time::Duration::from_secs(30);
    loop {
        let text = server.metrics_exposition();
        let both_busy = text.contains("dramctrl_sched_workers 2\n")
            && text.contains("dramctrl_sched_workers_busy 2\n");
        let status = client.status().unwrap();
        let tenants = status.get("tenants").and_then(Value::as_arr).unwrap();
        let running = tenants[0].get("running").and_then(Value::as_arr).unwrap();
        let units: Vec<_> = running
            .iter()
            .map(|r| {
                let job = r.get("job").and_then(Value::as_str);
                (
                    job.map(str::to_owned),
                    r.get("unit").and_then(Value::as_u64),
                )
            })
            .collect();
        if both_busy && units == [(Some(id.clone()), Some(0)), (Some(id.clone()), Some(1))] {
            break;
        }
        assert!(
            std::time::Instant::now() < deadline,
            "the lone hog never held both workers: {}\n{text}",
            status.encode()
        );
        std::thread::sleep(std::time::Duration::from_millis(1));
    }
}
