//! Checks on process-wide counts — durability ops and open file
//! descriptors — which any other test's daemon would disturb. Hence
//! their own test binary, and one lock so the two never overlap.

use dramctrl_campaign::{run_campaign, Campaign, ExecutorConfig};
use dramctrl_kernel::fsio::fault::op_count;
use dramctrl_runner::run_job;
use dramctrl_serve::wire::Value;
use dramctrl_serve::{proto, Client, Listener, ServeConfig, Server};
use std::path::PathBuf;
use std::sync::Mutex;

static ALONE: Mutex<()> = Mutex::new(());

fn tmp(name: &str) -> PathBuf {
    let d = std::env::temp_dir().join(format!("dramctrl-counts-{}-{name}", std::process::id()));
    let _ = std::fs::remove_dir_all(&d);
    d
}

fn spawn_daemon(store: PathBuf, quantum: u64) -> (String, Server) {
    let mut cfg = ServeConfig::new(store);
    cfg.quantum = quantum;
    let server = Server::open(cfg).expect("open store");
    server.start_scheduler();
    let listener = Listener::bind("127.0.0.1:0").expect("bind");
    let addr = listener.local_addr();
    let accept = server.clone();
    std::thread::spawn(move || {
        let _ = accept.serve(&listener);
    });
    (addr, server)
}

/// Submits `c`, watches it to `done` and returns the streamed records in
/// index order, one per line.
fn run_to_done(client: &mut Client, epochs: u64, c: &Campaign) -> (String, String) {
    let (id, _) = client.submit("alice", epochs, c).unwrap();
    let records = watch_records(client, &id);
    (id, records)
}

fn watch_records(client: &mut Client, id: &str) -> String {
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

#[test]
fn durability_ops_do_not_depend_on_the_quantum() {
    let _alone = ALONE
        .lock()
        .unwrap_or_else(std::sync::PoisonError::into_inner);
    let c = Campaign::new("ops", 42)
        .read_pcts([0, 50, 100])
        .requests([5_000]);
    let ops_at = |name: &str, quantum: u64, epochs: u64| {
        let (addr, server) = spawn_daemon(tmp(name).join("store"), quantum);
        let mut client = Client::connect(&addr).unwrap();
        let before = op_count();
        run_to_done(&mut client, epochs, &c);
        (op_count() - before, server.metrics().preemptions.get())
    };
    // Unobserved, then observed: a preempted observed unit keeps its
    // probes in memory too, and its artifacts are written once, at commit.
    for epochs in [0, 1_000_000] {
        let (sliced_ops, sliced_pauses) = ops_at("ops-sliced", 200, epochs);
        let (whole_ops, whole_pauses) = ops_at("ops-whole", u64::MAX, epochs);
        assert!(sliced_pauses >= 25 && whole_pauses == 0, "epochs {epochs}");
        assert_eq!(
            sliced_ops, whole_ops,
            "epochs {epochs}: {sliced_pauses} preemptions cost durability ops"
        );
    }
}

#[cfg(target_os = "linux")]
#[test]
fn finished_jobs_hold_no_file_handle_and_replay_from_the_journal() {
    let _alone = ALONE
        .lock()
        .unwrap_or_else(std::sync::PoisonError::into_inner);
    let open_fds = || std::fs::read_dir("/proc/self/fd").unwrap().count();
    let (addr, server) = spawn_daemon(tmp("fds").join("store"), 1_000);
    let c = Campaign::new("fds", 7)
        .read_pcts([0, 100])
        .requests([1_500]);
    let want = run_campaign(&c, &ExecutorConfig::serial(), run_job).to_jsonl();
    let mut client = Client::connect(&addr).unwrap();

    // `status` takes the state lock, so once it answers, the scheduler
    // has finished releasing the job whose `done` the watch just saw.
    let (first, got) = run_to_done(&mut client, 0, &c);
    assert_eq!(got, want);
    client.status().unwrap();
    let baseline = open_fds();
    for _ in 0..12 {
        assert_eq!(run_to_done(&mut client, 0, &c).1, want);
    }
    client.status().unwrap();
    assert_eq!(open_fds(), baseline, "finished jobs leak file descriptors");

    let jobs = Value::parse(&server.jobs_json()).unwrap();
    let jobs = jobs.get("jobs").and_then(Value::as_arr).unwrap();
    assert_eq!(jobs.len(), 13);
    for job in jobs {
        let field = |k| job.get(k).and_then(Value::as_u64);
        assert_eq!(job.get("state").and_then(Value::as_str), Some("done"));
        assert_eq!(
            (field("done"), field("failed"), field("total")),
            (Some(2), Some(0), Some(2))
        );
    }
    // A late watch has nothing in memory to replay from: same bytes.
    assert_eq!(watch_records(&mut client, &first), want);
    assert_eq!(open_fds(), baseline);
}
