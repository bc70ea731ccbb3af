//! A slow disk must not wedge the control plane. While one tenant's unit
//! commit sits in its fsync, another tenant's job runs to `done`, the
//! daemon answers `status`, and a `watch` of the held job — issued during
//! the hold — streams every record exactly once after the fsync returns.
//!
//! The hold is `fsio::fault`'s `stall` action, released by removing its
//! gate file; [`fault::stalled`] says when the commit is in flight. The
//! count is process-wide, so this binary holds no other stalling test.

use dramctrl_campaign::{run_campaign_journaled, Campaign, CampaignJournal, ExecutorConfig};
use dramctrl_kernel::fsio::fault;
use dramctrl_runner::run_job;
use dramctrl_serve::proto;
use dramctrl_serve::wire::Value;
use dramctrl_serve::{Client, Listener, ServeConfig, Server};
use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};

/// Every client call gets a deadline: at a daemon that commits under its
/// state lock, the calls made during the hold block on that lock, and
/// the test must fail there rather than hang.
const DEADLINE: Duration = Duration::from_secs(20);

fn tmp(name: &str) -> PathBuf {
    let d = std::env::temp_dir().join(format!("dramctrl-slowdisk-{}-{name}", std::process::id()));
    let _ = std::fs::remove_dir_all(&d);
    std::fs::create_dir_all(&d).unwrap();
    d
}

/// What a standalone journaled sweep of `c` produces: the report lines
/// and the journal file.
fn reference(c: &Campaign, dir: &Path) -> (String, String) {
    std::fs::create_dir_all(dir).unwrap();
    let jpath = dir.join("ref.jsonl");
    let mut j = CampaignJournal::create(&jpath, c).unwrap();
    let report = run_campaign_journaled(c, &ExecutorConfig::serial(), &mut j, run_job).to_jsonl();
    (report, std::fs::read_to_string(&jpath).unwrap())
}

fn connect(addr: &str) -> Client {
    let client = Client::connect(addr).unwrap();
    client.set_io_timeout(Some(DEADLINE)).unwrap();
    client
}

/// Watches `id` to `done`: its `(index, record)` pairs in arrival order.
fn watch_records(addr: &str, id: &str) -> Vec<(usize, String)> {
    let mut seen = Vec::new();
    connect(addr)
        .watch(id, |v, line| {
            if v.get("event").and_then(Value::as_str) == Some("record") {
                let i = v.get("index").and_then(Value::as_u64).unwrap() as usize;
                seen.push((i, proto::record_data(line).unwrap().to_owned()));
            }
        })
        .unwrap();
    seen
}

fn report(records: Vec<(usize, String)>) -> String {
    records.into_iter().map(|(_, l)| l + "\n").collect()
}

/// Removes the gate on drop, so a failed assertion releases the held
/// fsync instead of leaving a worker parked in it.
struct Gate(PathBuf);

impl Drop for Gate {
    fn drop(&mut self) {
        let _ = std::fs::remove_file(&self.0);
    }
}

#[test]
fn a_held_commit_blocks_neither_another_tenant_nor_status_and_its_watch_sees_each_record_once() {
    let root = tmp("held-commit");
    let store = root.join("store");
    let gate = Gate(root.join("gate"));
    std::fs::write(&gate.0, "").unwrap();
    // Fsync 1 of A's journal is its header, written at submit; fsync 2 is
    // the commit of A's first unit.
    let _faults = fault::arm_str(&format!(
        "stall,op=fsync,path={}/job-0001/journal,at=2,gate={}",
        store.display(),
        gate.0.display()
    ))
    .unwrap();

    let mut cfg = ServeConfig::new(&store);
    cfg.workers = 2;
    let server = Server::open(cfg).expect("open store");
    drop(server.start_scheduler());
    let listener = Listener::bind("127.0.0.1:0").expect("bind");
    let addr = listener.local_addr();
    let accept = server.clone();
    std::thread::spawn(move || accept.serve(&listener));

    let ca = Campaign::new("held", 42)
        .read_pcts([0, 50, 100])
        .requests([1_000]);
    let cb = Campaign::new("free", 43)
        .read_pcts([0, 50, 100])
        .requests([20_000]);
    let (want_a, journal_a) = reference(&ca, &root.join("ref-a"));
    let (want_b, journal_b) = reference(&cb, &root.join("ref-b"));

    // A alone: its units run on both workers, and its first commit is
    // held; the units after it finish and park behind it.
    let mut client = connect(&addr);
    let (ia, _) = client.submit("alice", 0, &ca).unwrap();
    assert_eq!(ia, "job-0001");
    let deadline = Instant::now() + DEADLINE;
    while fault::stalled() != 1 {
        assert!(
            Instant::now() < deadline,
            "A's first commit never reached its fsync"
        );
        std::thread::sleep(Duration::from_millis(1));
    }

    // Issued during the hold; it can replay nothing of A until the
    // held commit has landed and been broadcast.
    let watch_a = {
        let (addr, ia) = (addr.clone(), ia.clone());
        std::thread::spawn(move || watch_records(&addr, &ia))
    };

    // B arrives during the hold, while one worker sits in A's fsync: the
    // other runs B to `done`.
    let (ib, _) = client.submit("bob", 0, &cb).unwrap();
    assert_eq!(
        report(watch_records(&addr, &ib)),
        want_b,
        "B, run during the hold"
    );
    let status = client.status().unwrap();
    let job = |id: &str| {
        let jobs = status.get("jobs").and_then(Value::as_arr).unwrap();
        let job = jobs
            .iter()
            .find(|j| j.get("id").and_then(Value::as_str) == Some(id))
            .unwrap_or_else(|| panic!("{id} missing from {}", status.encode()));
        let field = |k| job.get(k).and_then(Value::as_u64);
        (field("done"), field("unit"))
    };
    assert_eq!(job(&ib), (Some(3), None), "{}", status.encode());
    // A's unit 0 is still in flight: committing, not yet counted.
    assert_eq!(job(&ia), (Some(0), Some(0)), "{}", status.encode());
    assert_eq!(fault::stalled(), 1, "the commit was held throughout");
    assert!(!watch_a.is_finished(), "A's watch ended during the hold");

    drop(gate);
    let seen = watch_a.join().unwrap();
    let indices: Vec<usize> = seen.iter().map(|&(i, _)| i).collect();
    assert_eq!(indices, [0, 1, 2], "each of A's records once, in order");
    assert_eq!(report(seen), want_a);
    for (id, want) in [(&ia, &journal_a), (&ib, &journal_b)] {
        let on_disk = std::fs::read_to_string(store.join(id).join("journal.jsonl")).unwrap();
        assert_eq!(&on_disk, want, "{id}: a serial run's journal bytes");
    }
}
