//! Degraded-mode and hostile-client tests: a daemon whose store starts
//! failing writes must shed admissions (never die), keep serving what it
//! has, and recover by itself when the store heals — with every byte it
//! ever acknowledges identical to an unfaulted run. Clients that idle,
//! send unbounded lines, or stop reading are evicted, not accumulated.
//!
//! All fault rules filter on this test's own temp store path, so
//! parallel tests (and the reference runs) never see each other's
//! faults.

use dramctrl_campaign::{run_campaign_journaled, Campaign, CampaignJournal, ExecutorConfig};
use dramctrl_kernel::fsio::fault;
use dramctrl_runner::run_job;
use dramctrl_serve::proto;
use dramctrl_serve::wire::Value;
use dramctrl_serve::{Client, Listener, ServeConfig, Server};
use std::io::{BufRead, BufReader, Write};
use std::path::PathBuf;
use std::time::{Duration, Instant};

fn tmp(name: &str) -> PathBuf {
    let d = std::env::temp_dir().join(format!("dramctrl-degraded-{}-{name}", std::process::id()));
    let _ = std::fs::remove_dir_all(&d);
    d
}

fn campaign(name: &str) -> Campaign {
    Campaign::new(name, 42)
        .read_pcts([0, 50, 100])
        .requests([5_000])
}

/// What a standalone journaled sweep of `c` produces — both the report
/// lines and the journal file itself (the byte-identity references).
fn reference(c: &Campaign, dir: &PathBuf) -> (String, String) {
    std::fs::create_dir_all(dir).unwrap();
    let jpath = dir.join("ref.jsonl");
    let mut j = CampaignJournal::create(&jpath, c).unwrap();
    let report = run_campaign_journaled(c, &ExecutorConfig::serial(), &mut j, run_job).to_jsonl();
    (report, std::fs::read_to_string(&jpath).unwrap())
}

/// Daemon on an ephemeral TCP port. Preemption writes nothing, so a
/// store-wide fault filter only ever hits the accept log, the journals
/// and the recovery probe, whatever the quantum.
fn spawn(cfg: ServeConfig) -> (String, Server) {
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
    (addr, server)
}

fn collect_records(client: &mut Client, id: &str) -> String {
    let mut out = std::collections::BTreeMap::new();
    client
        .watch(id, |v, line| {
            if v.get("event").and_then(Value::as_str) == Some("record") {
                let i = v.get("index").and_then(Value::as_u64).unwrap() as usize;
                out.insert(i, proto::record_data(line).unwrap().to_owned());
            }
        })
        .unwrap();
    out.into_values().map(|l| l + "\n").collect()
}

/// Like [`collect_records`], but rides through evictions: a fresh
/// connection per retry, replayed history deduped by unit index.
fn collect_records_resilient(addr: &str, id: &str) -> String {
    let mut out = std::collections::BTreeMap::new();
    Client::watch_with_reconnect(addr, id, None, |v, line| {
        if v.get("event").and_then(Value::as_str) == Some("record") {
            let i = v.get("index").and_then(Value::as_u64).unwrap() as usize;
            out.insert(i, proto::record_data(line).unwrap().to_owned());
        }
    })
    .unwrap();
    out.into_values().map(|l| l + "\n").collect()
}

fn wait_until(what: &str, timeout: Duration, mut ok: impl FnMut() -> bool) {
    let deadline = Instant::now() + timeout;
    while !ok() {
        assert!(Instant::now() < deadline, "timed out waiting for {what}");
        std::thread::sleep(Duration::from_millis(20));
    }
}

#[test]
fn faulting_store_sheds_submits_and_daemon_recovers_without_restart() {
    let root = tmp("shed");
    let store = root.join("store");
    let mut cfg = ServeConfig::new(&store);
    cfg.quantum = 1_000_000;
    let (addr, server) = spawn(cfg);
    let c = campaign("sweep");
    let (want, _) = reference(&c, &root.join("ref"));

    // Healthy baseline: a submit+watch round trip works and matches the
    // standalone run byte for byte.
    let mut client = Client::connect(&addr).unwrap();
    let (id1, _) = client.submit("alice", 0, &c).unwrap();
    assert_eq!(collect_records(&mut client, &id1), want);
    assert!(server.health().is_ok());

    // Break every durable write under this store.
    let guard = fault::arm_str(&format!("enospc,path={}", store.display())).unwrap();

    // The first submit trips over the store and flips the daemon into
    // degraded mode; it and every later submit shed with a
    // store-unavailable rejection — no panic, no exit.
    for _ in 0..2 {
        let err = Client::connect(&addr)
            .unwrap()
            .submit("bob", 0, &c)
            .unwrap_err();
        assert!(err.to_string().contains("store unavailable"), "{err}");
    }

    // Degraded is visible: health 503 body, gauge at 1 — while reads
    // (status from memory, completed-job watch from the journal file)
    // keep working.
    let body = server.health().unwrap_err();
    assert!(body.contains("\"status\":\"degraded\""), "{body}");
    assert!(server
        .metrics_exposition()
        .contains("dramctrl_store_degraded 1"));
    assert_eq!(collect_records(&mut client, &id1), want);
    client.status().unwrap();

    // Heal the store: the scheduler's backoff retry recovers on its own.
    drop(guard);
    wait_until("store recovery", Duration::from_secs(10), || {
        server.health().is_ok()
    });
    let text = server.metrics_exposition();
    assert!(text.contains("dramctrl_store_degraded 0"), "{text}");
    assert!(
        !text.contains("dramctrl_store_retries_total 0"),
        "at least one retry was recorded:\n{text}"
    );

    // Post-recovery submits work and are still byte-exact.
    let mut after = Client::connect(&addr).unwrap();
    let (id2, _) = after.submit("bob", 0, &c).unwrap();
    assert_eq!(collect_records(&mut after, &id2), want);
}

#[test]
fn torn_commit_parks_the_outcome_and_recovery_lands_it_byte_identically() {
    let root = tmp("parked");
    let store = root.join("store");
    let mut cfg = ServeConfig::new(&store);
    cfg.quantum = 1_000_000;
    let (addr, server) = spawn(cfg);
    let c = campaign("sweep");
    let (want, want_journal) = reference(&c, &root.join("ref"));

    // Writes under this store, in order: accept line (1), journal
    // header (2), then one commit per unit. Tear exactly the first
    // commit mid-record; the window heals everything after it, so the
    // daemon's own retry loop recovers with no outside help.
    let _guard = fault::arm_str(&format!(
        "short,op=write,path={},from=3,to=3",
        store.display()
    ))
    .unwrap();

    let mut client = Client::connect(&addr).unwrap();
    let (id, _) = client.submit("alice", 0, &c).unwrap();
    // The watch rides through the fault: the unit's outcome is parked,
    // recovery truncates the torn journal bytes, re-commits, and the
    // stream continues — no record lost, none duplicated.
    assert_eq!(collect_records(&mut client, &id), want);

    // The journal on disk is byte-identical to an unfaulted standalone
    // run: the torn tail left by the short write is gone.
    let journal = std::fs::read_to_string(store.join(&id).join("journal.jsonl")).unwrap();
    assert_eq!(journal, want_journal, "torn bytes must not survive");

    wait_until("degraded exit", Duration::from_secs(10), || {
        server.health().is_ok()
    });
    let text = server.metrics_exposition();
    assert!(text.contains("dramctrl_store_degraded 0"), "{text}");
}

#[test]
fn two_workers_commits_failing_in_one_episode_both_land_exactly_once() {
    let root = tmp("parked-two");
    let store = root.join("store");
    let mut cfg = ServeConfig::new(&store);
    cfg.workers = 2;
    cfg.quantum = u64::MAX; // one slice per unit: slices count simulations
    let server = Server::open(cfg).expect("open store");
    let listener = Listener::bind("127.0.0.1:0").expect("bind");
    let addr = listener.local_addr();
    let accept = server.clone();
    std::thread::spawn(move || accept.serve(&listener));
    let units = |name: &str| {
        Campaign::new(name, 42)
            .read_pcts([0, 50, 100])
            .requests([20_000])
    };
    let (ca, cb) = (units("alice-sweep"), units("bob-sweep"));
    let (want_a, journal_a) = reference(&ca, &root.join("ref-a"));
    let (want_b, journal_b) = reference(&cb, &root.join("ref-b"));

    // Per journal, write 1 is the header and write 2 the first commit.
    // Tear both jobs' first commits, and bob's once more on the way back
    // in, so the first recovery attempt lands part of what is parked and
    // re-parks the rest.
    let journal = |id: &str| format!("{}/{id}/journal", store.display());
    let _guard = fault::arm_str(&format!(
        "short,op=write,path={},at=2;short,op=write,path={},from=2,to=3",
        journal("job-0001"),
        journal("job-0002")
    ))
    .unwrap();

    let mut ka = Client::connect(&addr).unwrap();
    let mut kb = Client::connect(&addr).unwrap();
    let (ia, _) = ka.submit("alice", 0, &ca).unwrap();
    let (ib, _) = kb.submit("bob", 0, &cb).unwrap();
    assert_eq!((ia.as_str(), ib.as_str()), ("job-0001", "job-0002"));
    // Both queued before the first worker exists: it takes alice's job
    // and spawns the second for bob's, so the two first units run side by
    // side and the second to finish finds the daemon already degraded.
    drop(server.start_scheduler());

    let got_b = std::thread::scope(|s| {
        let watch_b = s.spawn(|| collect_records(&mut kb, &ib));
        assert_eq!(collect_records(&mut ka, &ia), want_a);
        watch_b.join().unwrap()
    });
    assert_eq!(got_b, want_b);
    for (id, want) in [(&ia, &journal_a), (&ib, &journal_b)] {
        let on_disk = std::fs::read_to_string(store.join(id).join("journal.jsonl")).unwrap();
        assert_eq!(&on_disk, want, "{id}: torn bytes must not survive");
    }

    wait_until("degraded exit", Duration::from_secs(10), || {
        server.health().is_ok()
    });
    let m = server.metrics();
    assert!(m.store_retries.get() >= 2, "bob's commit re-parked once");
    wait_until("the last unit's counter", Duration::from_secs(10), || {
        m.units_completed.get() + m.units_failed.get() == 6
    });
    assert_eq!((m.units_completed.get(), m.units_failed.get()), (6, 0));
    // One pick per slice and one slice per unit: a parked outcome was
    // committed from memory, never simulated again.
    assert_eq!(m.sched_wait.count(), 6, "a unit ran twice");
}

#[test]
fn a_lone_job_on_two_workers_lands_every_parked_outcome_once_and_in_order() {
    let root = tmp("parked-lone");
    let store = root.join("store");
    let mut cfg = ServeConfig::new(&store);
    cfg.workers = 2;
    cfg.quantum = u64::MAX; // one slice per unit: slices count simulations
    let (addr, server) = spawn(cfg);
    let c = Campaign::new("lone-sweep", 42)
        .read_pcts([0, 25, 50, 100])
        .requests([20_000]);
    let (want, want_journal) = reference(&c, &root.join("ref"));

    // Write 1 of the journal is its header, write 2 unit 0's commit. Tear
    // that commit and the next two attempts to land it: an outage of at
    // least two backoff delays, while unit 1, run beside unit 0 on the
    // other worker, finishes and parks behind it.
    let _guard = fault::arm_str(&format!(
        "short,op=write,path={}/job-0001/journal,from=2,to=4",
        store.display()
    ))
    .unwrap();

    let mut client = Client::connect(&addr).unwrap();
    let (id, _) = client.submit("alice", 0, &c).unwrap();
    let mut seen = Vec::new();
    client
        .watch(&id, |v, line| {
            if v.get("event").and_then(Value::as_str) == Some("record") {
                let i = v.get("index").and_then(Value::as_u64).unwrap();
                seen.push((i, proto::record_data(line).unwrap().to_owned()));
            }
        })
        .unwrap();
    let indices: Vec<u64> = seen.iter().map(|&(i, _)| i).collect();
    assert_eq!(indices, [0, 1, 2, 3], "each record once, in index order");
    let got: String = seen.into_iter().map(|(_, l)| l + "\n").collect();
    assert_eq!(got, want);
    let journal = std::fs::read_to_string(store.join(&id).join("journal.jsonl")).unwrap();
    assert_eq!(journal, want_journal, "torn bytes must not survive");

    wait_until("degraded exit", Duration::from_secs(10), || {
        server.health().is_ok()
    });
    let m = server.metrics();
    assert!(
        m.store_retries.get() >= 2,
        "the first landing was refused too"
    );
    wait_until("the last unit's counter", Duration::from_secs(10), || {
        m.units_completed.get() + m.units_failed.get() == 4
    });
    assert_eq!((m.units_completed.get(), m.units_failed.get()), (4, 0));
    // One pick per slice and one slice per unit: the parked outcomes were
    // committed from memory, never simulated again.
    assert_eq!(m.sched_wait.count(), 4, "a unit ran twice");
}

#[test]
fn a_store_fault_at_a_preemption_never_fails_a_healthy_unit() {
    let root = tmp("preempt-fault");
    let c = campaign("sweep");
    let (want, want_journal) = reference(&c, &root.join("ref"));

    // Fail every store op on the job's per-unit files — everything that
    // is neither the accept log nor the journal — for the whole run. A
    // preemption must not depend on any of them: when it checkpointed
    // through the store, this turned healthy units into `Failed` records.
    // An observed unit's artifacts are per-unit files too, so its case
    // fails only the snapshot a preemption used to write.
    for (case, epochs) in [("plain", 0), ("observed", 1_000_000)] {
        let store = root.join(case);
        let mut cfg = ServeConfig::new(&store);
        cfg.quantum = 200; // 25 preemptions per 5 000-request unit
        let (addr, server) = spawn(cfg);
        let unit = format!("eio,path={}/job-0001/unit-", store.display());
        let plan = match epochs {
            0 => unit,
            _ => [0, 1, 2].map(|u| format!("{unit}00000{u}.snap")).join(";"),
        };
        let _guard = fault::arm_str(&plan).unwrap();

        let mut client = Client::connect(&addr).unwrap();
        let (id, _) = client.submit("alice", epochs, &c).unwrap();
        assert_eq!(id, "job-0001");
        assert_eq!(collect_records(&mut client, &id), want, "{case}");
        let journal = std::fs::read_to_string(store.join(&id).join("journal.jsonl")).unwrap();
        assert_eq!(journal, want_journal, "{case}");
        let m = server.metrics();
        assert!(m.preemptions.get() >= 25, "{case}: the units never paused");
        // The counters move just after the `done` broadcast the watch saw.
        wait_until("the last unit's counter", Duration::from_secs(10), || {
            m.units_completed.get() + m.units_failed.get() == 3
        });
        assert_eq!(
            (m.units_completed.get(), m.units_failed.get()),
            (3, 0),
            "{case}"
        );
        assert!(server.health().is_ok(), "a preemption touched the store");
    }
}

#[test]
fn idle_clients_are_evicted_at_the_read_deadline() {
    let root = tmp("idle");
    let mut cfg = ServeConfig::new(root.join("store"));
    cfg.client_timeout = Some(Duration::from_millis(250));
    let (addr, server) = spawn(cfg);

    let stream = std::net::TcpStream::connect(&addr).unwrap();
    stream
        .set_read_timeout(Some(Duration::from_secs(10)))
        .unwrap();
    let mut reader = BufReader::new(stream);
    let mut line = String::new();
    reader.read_line(&mut line).unwrap();
    assert!(line.contains("\"hello\""), "{line}");

    // Send nothing. The daemon must hang up on us at the deadline.
    let started = Instant::now();
    line.clear();
    let n = reader.read_line(&mut line).unwrap();
    assert_eq!(n, 0, "daemon closed the idle connection, got {line:?}");
    assert!(
        started.elapsed() < Duration::from_secs(5),
        "eviction took {:?}",
        started.elapsed()
    );
    wait_until("eviction counter", Duration::from_secs(5), || {
        server
            .metrics_exposition()
            .lines()
            .any(|l| l.starts_with("dramctrl_clients_evicted_total") && !l.ends_with(" 0"))
    });
}

#[test]
fn oversized_command_lines_get_an_error_then_the_boot() {
    let root = tmp("oversized");
    let (addr, _server) = spawn(ServeConfig::new(root.join("store")));

    let mut stream = std::net::TcpStream::connect(&addr).unwrap();
    stream
        .set_read_timeout(Some(Duration::from_secs(10)))
        .unwrap();
    let mut reader = BufReader::new(stream.try_clone().unwrap());
    let mut line = String::new();
    reader.read_line(&mut line).unwrap();

    // Just over the 1 MiB command bound (small enough to fit in socket
    // buffers even though the daemon stops reading at the bound).
    let huge = vec![b'x'; (1 << 20) + 64];
    stream.write_all(&huge).unwrap();
    stream.write_all(b"\n").unwrap();

    line.clear();
    reader.read_line(&mut line).unwrap();
    assert!(
        line.contains("\"error\"") && line.contains("exceeds"),
        "{line}"
    );
    line.clear();
    assert_eq!(
        reader.read_line(&mut line).unwrap(),
        0,
        "connection must be dropped after an oversized line"
    );
}

#[test]
fn a_watcher_that_stops_reading_does_not_wedge_the_scheduler() {
    let root = tmp("deaf");
    let store = root.join("store");
    let mut cfg = ServeConfig::new(&store);
    cfg.quantum = 200; // many progress events per unit
    cfg.client_timeout = Some(Duration::from_millis(500));
    cfg.subscriber_buffer = 2; // tiny outbound buffer
    let (addr, _server) = spawn(cfg);
    let c = campaign("sweep");
    let (want, _) = reference(&c, &root.join("ref"));

    // A "deaf" watcher: subscribes, then never reads a byte. Its
    // bounded buffer fills (or its socket write times out) and it is
    // evicted — while a healthy watcher on the same job still
    // assembles a complete, byte-exact stream. The healthy watcher
    // goes through `watch_with_reconnect`: with a cap-2 buffer even a
    // briefly descheduled reader can be evicted mid-burst (commit =
    // record + progress + maybe done, back to back), and the contract
    // we care about is that resuming always yields the full gap- and
    // dup-free record set.
    let mut submitter = Client::connect(&addr).unwrap();
    let (id, _) = submitter.submit("alice", 0, &c).unwrap();
    let mut deaf = std::net::TcpStream::connect(&addr).unwrap();
    {
        let mut r = BufReader::new(deaf.try_clone().unwrap());
        let mut l = String::new();
        r.read_line(&mut l).unwrap(); // hello
    }
    writeln!(deaf, "{{\"cmd\":\"watch\",\"id\":\"{id}\"}}").unwrap();
    // Keep the socket open but never read it.

    assert_eq!(collect_records_resilient(&addr, &id), want);

    // Prove the daemon is still fully alive after the deaf client.
    let mut again = Client::connect(&addr).unwrap();
    let (id2, _) = again.submit("alice", 0, &c).unwrap();
    assert_eq!(collect_records_resilient(&addr, &id2), want);
    drop(deaf);
}
