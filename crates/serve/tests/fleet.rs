//! The dispatch coordinator's pull queue, on in-process daemons: an
//! unequal cut is evened out, a slow peer takes fewer shards, a peer
//! lost mid-round costs one re-dispatched shard, and spare peers still
//! hedge — every merged report byte-identical to a local run.

use dramctrl::PagePolicy;
use dramctrl_campaign::{run_campaign, Campaign, ExecutorConfig, JobSpec};
use dramctrl_runner::run_job;
use dramctrl_serve::{dispatch, DispatchConfig, Listener, ServeConfig, Server};
use std::io::{BufRead, BufReader, Write};
use std::net::{Shutdown, TcpListener, TcpStream};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex, MutexGuard};
use std::time::Duration;

/// Who takes which shard is decided by who finishes first, so these
/// tests do not compete with each other for the host's cores.
fn one_at_a_time() -> MutexGuard<'static, ()> {
    static SERIAL: Mutex<()> = Mutex::new(());
    SERIAL
        .lock()
        .unwrap_or_else(std::sync::PoisonError::into_inner)
}

fn tmp(name: &str) -> PathBuf {
    let d = std::env::temp_dir().join(format!("dramctrl-fleet-{}-{name}", std::process::id()));
    let _ = std::fs::remove_dir_all(&d);
    d
}

/// Starts a one-worker daemon on an ephemeral TCP port.
fn spawn_daemon(store: PathBuf) -> String {
    let mut cfg = ServeConfig::new(store);
    cfg.workers = 1;
    let server = Server::open(cfg).expect("open store");
    drop(server.start_scheduler());
    let listener = Listener::bind("127.0.0.1:0").expect("bind");
    let addr = listener.local_addr();
    std::thread::spawn(move || {
        let _ = server.serve(&listener);
    });
    addr
}

fn local_jsonl(c: &Campaign) -> String {
    run_campaign(c, &ExecutorConfig::serial(), run_job).to_jsonl()
}

/// What a daemon ran, read from its store (`<store>/<job>/journal.jsonl`,
/// one job per shard it accepted): `(shards, requests of their units)`.
fn ran_on(store: &Path, units: &[JobSpec]) -> (usize, u64) {
    let (mut shards, mut requests) = (0, 0);
    for job in std::fs::read_dir(store).unwrap().flatten() {
        let Ok(journal) = std::fs::read_to_string(job.path().join("journal.jsonl")) else {
            continue;
        };
        shards += 1;
        for line in journal.lines().skip(1) {
            let at = line.find("\"job\":").expect("a record line") + 6;
            let digits = line[at..].bytes().take_while(u8::is_ascii_digit).count();
            let index: usize = line[at..at + digits].parse().unwrap();
            requests += units[index].requests;
        }
    }
    (shards, requests)
}

/// What the coordinator's work dir says each peer (by position in the
/// peer list) delivered in `round`: `(shard journals, records in them)`.
/// Journals are named `shard-SofN-rR-pPEER.jsonl`.
fn delivered(workdir: &Path, round: u32, peers: usize) -> Vec<(usize, usize)> {
    let mut by_peer = vec![(0, 0); peers];
    for entry in std::fs::read_dir(workdir).unwrap().flatten() {
        let name = entry.file_name().into_string().unwrap();
        let Some((head, peer)) = name.trim_end_matches(".jsonl").rsplit_once("-p") else {
            continue;
        };
        if head.ends_with(&format!("-r{round}")) {
            let slot = &mut by_peer[peer.parse::<usize>().unwrap()];
            slot.0 += 1;
            slot.1 += std::fs::read_to_string(entry.path())
                .unwrap()
                .lines()
                .count()
                - 1;
        }
    }
    by_peer
}

/// A link between the coordinator and one daemon that can be slow or
/// cut: forwards commands as they come and the daemon's lines one by
/// one. After `cut_after` record lines (over all connections) it closes
/// every connection and answers new ones like a stranger, which the
/// coordinator's client treats as final — the peer is gone, without the
/// client's 15 s of reconnect attempts against a refused port.
fn link(daemon: String, delay: Duration, cut_after: Option<usize>) -> String {
    let listener = TcpListener::bind("127.0.0.1:0").unwrap();
    let addr = listener.local_addr().unwrap().to_string();
    let cut = Arc::new(AtomicBool::new(false));
    let records = Arc::new(Mutex::new(0usize));
    std::thread::spawn(move || {
        for down in listener.incoming().flatten() {
            let (cut, records, daemon) = (cut.clone(), records.clone(), daemon.clone());
            std::thread::spawn(move || {
                let mut down_w = down.try_clone().unwrap();
                if cut.load(Ordering::SeqCst) {
                    let _ = down_w.write_all(b"gone\n");
                    return;
                }
                let up = TcpStream::connect(&daemon).unwrap();
                let (mut up_w, mut down_r) = (up.try_clone().unwrap(), down);
                std::thread::spawn(move || {
                    let _ = std::io::copy(&mut down_r, &mut up_w);
                    let _ = up_w.shutdown(Shutdown::Both);
                });
                for line in BufReader::new(up).lines().map_while(Result::ok) {
                    if line.contains("\"event\":\"record\"") {
                        std::thread::sleep(delay);
                        let mut seen = records.lock().unwrap();
                        *seen += 1;
                        if cut_after.is_some_and(|k| *seen > k) {
                            cut.store(true, Ordering::SeqCst);
                        }
                    }
                    if cut.load(Ordering::SeqCst) || writeln!(down_w, "{line}").is_err() {
                        break;
                    }
                }
                let _ = down_w.shutdown(Shutdown::Both);
            });
        }
    });
    addr
}

/// 128 units whose innermost axis alternates 500 and 4 000 requests:
/// under `i % 2` one peer of two would get every long unit (8:1).
fn skewed() -> Campaign {
    Campaign::new("skew", 11)
        .devices(["DDR3-1600-x64", "DDR4-2400-x64"])
        .policies([PagePolicy::Open, PagePolicy::Closed])
        .read_pcts((0..16).map(|i| i * 6))
        .requests([500, 4_000])
}

/// 64 units of 500 requests — a few milliseconds each, so that the
/// tests' slow link is slow by an order of magnitude even on a loaded
/// host: 8 shards of 8 over two peers.
fn even() -> Campaign {
    Campaign::new("even", 12)
        .policies([PagePolicy::Open, PagePolicy::Closed])
        .read_pcts((0..32).map(|i| i * 3))
        .requests([500])
}

#[test]
fn an_unequal_cut_is_evened_out_by_the_queue() {
    let _serial = one_at_a_time();
    let root = tmp("skew");
    let c = skewed();
    let units = c.expand();
    // The queue equalises finish times, and requests only as far as the
    // peers are equally fast. Both peers therefore sit behind the same
    // slow link: a shard of 16 units takes 16 × 10 ms whichever units it
    // holds and however the host schedules the daemons, so the peers
    // take turns down the queue and each gets two of the four long
    // shards. `i % 2` hands all four — every 4 000-request unit — to one.
    let stores = [root.join("store0"), root.join("store1")];
    let peers: Vec<String> = stores
        .iter()
        .map(|s| link(spawn_daemon(s.clone()), Duration::from_millis(10), None))
        .collect();
    let cfg = DispatchConfig::new(root.join("work"));
    let (report, stats) = dispatch(&c, &peers, &cfg).unwrap();
    assert_eq!(report.to_jsonl(), local_jsonl(&c));
    assert_eq!((stats.shards, stats.rounds, stats.redispatches), (8, 1, 0));
    let (a, b) = (ran_on(&stores[0], &units), ran_on(&stores[1], &units));
    assert_eq!((a.0 + b.0, stats.hedges), (8, 0));
    assert_eq!(a.1 + b.1, 64 * 4_500, "every unit exactly once");
    assert!(
        a.1.abs_diff(b.1) * 5 <= a.1.max(b.1),
        "the peers' requests differ by more than 20 %: {} against {}",
        a.1,
        b.1
    );
}

#[test]
fn a_slow_peer_takes_fewer_shards_and_the_round_still_covers_everything() {
    let _serial = one_at_a_time();
    let root = tmp("slow");
    let stores = [root.join("slow"), root.join("fast")];
    let slow = link(
        spawn_daemon(stores[0].clone()),
        Duration::from_millis(40),
        None,
    );
    let fast = spawn_daemon(stores[1].clone());
    let c = even();
    let cfg = DispatchConfig::new(root.join("work"));
    let (report, stats) = dispatch(&c, &[slow, fast], &cfg).unwrap();
    assert_eq!((stats.shards, stats.rounds, stats.redispatches), (8, 1, 0));
    assert_eq!(report.to_jsonl(), local_jsonl(&c));
    let units = c.expand();
    let (slow, fast) = (ran_on(&stores[0], &units).0, ran_on(&stores[1], &units).0);
    assert_eq!(slow + fast, 8);
    assert!(slow < fast, "the slow peer took {slow} shards of 8");
}

#[test]
fn a_peer_lost_mid_round_costs_one_redispatched_shard() {
    let _serial = one_at_a_time();
    let root = tmp("lost");
    // The victim is cut three records into its first shard of eight.
    let victim = link(
        spawn_daemon(root.join("victim")),
        Duration::from_millis(5),
        Some(3),
    );
    let survivor = spawn_daemon(root.join("survivor"));
    let c = even();
    let cfg = DispatchConfig::new(root.join("work"));
    let (report, stats) = dispatch(&c, &[victim, survivor], &cfg).unwrap();
    assert_eq!(report.to_jsonl(), local_jsonl(&c));
    assert_eq!((stats.shards, stats.rounds), (8, 2));
    assert_eq!((stats.redispatches, stats.peers_lost), (1, 1));
    // Round 1: the survivor drained the queue — seven whole shards —
    // while the victim delivered three records of its one. Round 2 is
    // that one shard again, on the survivor.
    assert_eq!(delivered(&cfg.workdir, 1, 2), [(1, 3), (7, 56)]);
    assert_eq!(delivered(&cfg.workdir, 2, 2), [(0, 0), (1, 8)]);
}

#[test]
fn spare_peers_hedge_when_peers_outnumber_shards() {
    let _serial = one_at_a_time();
    let root = tmp("hedge");
    let peers: Vec<String> = (0..3)
        .map(|p| spawn_daemon(root.join(format!("store{p}"))))
        .collect();
    let c = Campaign::new("two", 13)
        .read_pcts([0, 100])
        .requests([2_000]);
    let cfg = DispatchConfig::new(root.join("work"));
    let (report, stats) = dispatch(&c, &peers, &cfg).unwrap();
    assert_eq!(report.to_jsonl(), local_jsonl(&c));
    assert_eq!((stats.shards, stats.rounds, stats.redispatches), (2, 1, 0));
    assert_eq!(stats.hedges, 1);
    // Without hedging the spare peer gets nothing.
    let mut cfg = DispatchConfig::new(root.join("work-nohedge"));
    cfg.hedge = false;
    let (_, stats) = dispatch(&c, &peers, &cfg).unwrap();
    assert_eq!((stats.shards, stats.hedges, stats.rounds), (2, 0, 1));
}
