//! Seeded fuzz of the daemon's decoders: deterministic garbage thrown at
//! the wire parser, at a live daemon socket, at the files a store reads
//! back — accept log, tombstone log, campaign journal — and at the record
//! validator whose accepted bytes become a report's bytes. The
//! contract under test is narrow and absolute — for any byte sequence a
//! client sends, the daemon answers with an `error` event or drops the
//! connection; it never panics, never aborts, and the scheduler keeps
//! serving honest clients throughout. For any bytes on disk, a decoder
//! returns `Ok` or `Err`, never a panic.
//!
//! Everything is driven by the workspace's own `Rng` (xoshiro256**),
//! so a failure reproduces from the seed printed in the assert.

use dramctrl::{PagePolicy, SchedPolicy};
use dramctrl_campaign::{
    run_campaign, verify_record_line, Campaign, CampaignJournal, ExecutorConfig, JobRecord,
};
use dramctrl_campaign::{Model, TrafficPattern};
use dramctrl_kernel::rng::Rng;
use dramctrl_mem::AddrMapping;
use dramctrl_runner::run_job;
use dramctrl_serve::proto::{self, campaign_to_wire};
use dramctrl_serve::wire::Value;
use dramctrl_serve::{Client, JobStore, Listener, ServeConfig, Server};
use std::io::{Read, Write};
use std::net::TcpStream;
use std::panic::catch_unwind;
use std::path::{Path, PathBuf};
use std::time::Duration;

const SEED: u64 = 0xD1A6_C7B1;

fn tmp(name: &str) -> PathBuf {
    let d = std::env::temp_dir().join(format!("dramctrl-fuzz-{}-{name}", std::process::id()));
    let _ = std::fs::remove_dir_all(&d);
    d
}

/// Well-formed command lines to mutate. `shutdown` is deliberately
/// absent: the daemon under test runs in-process, and an accidental
/// clean shutdown would kill the test harness, not prove anything.
fn base_lines() -> Vec<String> {
    let c = Campaign::new("fuzz", 9).read_pcts([0, 100]).requests([100]);
    vec![
        Value::Obj(vec![
            ("cmd".to_owned(), Value::Str("submit".to_owned())),
            ("tenant".to_owned(), Value::Str("fuzz".to_owned())),
            ("epochs".to_owned(), Value::num(0u64)),
            ("campaign".to_owned(), campaign_to_wire(&c)),
        ])
        .encode(),
        "{\"cmd\":\"status\"}".to_owned(),
        "{\"cmd\":\"watch\",\"id\":\"job-9999\"}".to_owned(),
        "{\"cmd\":\"submit\",\"tenant\":\"fuzz\"}".to_owned(),
    ]
}

/// A few random byte-level mutations: truncate, flip, insert, duplicate
/// a slice, or drop a slice. Newlines are scrubbed so the result stays
/// one protocol line.
fn mutate(rng: &mut Rng, base: &str) -> Vec<u8> {
    let mut b = base.as_bytes().to_vec();
    for _ in 0..=rng.gen_range(0..4) {
        if b.is_empty() {
            break;
        }
        let len = b.len() as u64;
        match rng.gen_range(0..5) {
            0 => b.truncate(rng.gen_range(0..len) as usize),
            1 => {
                let i = rng.gen_range(0..len) as usize;
                b[i] = (rng.next_u64() & 0xff) as u8;
            }
            2 => {
                let i = rng.gen_range(0..len + 1) as usize;
                for _ in 0..rng.gen_range(1..8) {
                    b.insert(i, (rng.next_u64() & 0x7f) as u8);
                }
            }
            3 => {
                let i = rng.gen_range(0..len) as usize;
                let j = rng.gen_range(i as u64..len) as usize + 1;
                let slice: Vec<u8> = b[i..j].to_vec();
                b.extend_from_slice(&slice);
            }
            _ => {
                let i = rng.gen_range(0..len) as usize;
                let j = rng.gen_range(i as u64..len) as usize + 1;
                b.drain(i..j);
            }
        }
    }
    b.retain(|&x| x != b'\n' && x != b'\r');
    b
}

/// Picks one base line and mutates it.
fn mutate_one(rng: &mut Rng, bases: &[String]) -> Vec<u8> {
    let i = rng.gen_range(0..bases.len() as u64) as usize;
    mutate(rng, &bases[i])
}

/// Unstructured noise — full byte range, newline-scrubbed.
fn garbage(rng: &mut Rng) -> Vec<u8> {
    (0..rng.gen_range(0..300))
        .map(|_| {
            let x = (rng.next_u64() & 0xff) as u8;
            if x == b'\n' || x == b'\r' {
                b' '
            } else {
                x
            }
        })
        .collect()
}

/// Structured nasties the byte mutators rarely stumble into.
fn nasty(rng: &mut Rng) -> Vec<u8> {
    match rng.gen_range(0..6) {
        0 => "[".repeat(50_000).into_bytes(), // hostile nesting
        1 => "{\"a\":".repeat(20_000).into_bytes(),
        2 => {
            let mut v = b"{\"cmd\":\"submit\",\"campaign\":\"".to_vec();
            v.extend(vec![b'A'; 100_000]);
            v // string never terminated
        }
        3 => b"{\"cmd\":9,\"cmd\":\"status\",\"cmd\":null}".to_vec(),
        4 => "{\"cmd\":\"watch\",\"id\":\"\\ud800\"}".into(), // lone surrogate
        _ => {
            let mut v = b"\xff\xfe{\"cmd\":\"status\"}".to_vec();
            v.extend_from_slice("{\"cmd\":\"статус\"}💥".as_bytes());
            v
        }
    }
}

/// The parser half: no input may panic it, and whatever it accepts
/// must round-trip stably (parse → encode → parse → same value).
#[test]
fn wire_parser_survives_seeded_garbage_and_round_trips() {
    let mut rng = Rng::seed_from_u64(SEED);
    let bases = base_lines();
    for i in 0..20_000u64 {
        let raw = match rng.gen_range(0..10) {
            0..=5 => mutate_one(&mut rng, &bases),
            6..=8 => garbage(&mut rng),
            _ => nasty(&mut rng),
        };
        let text = String::from_utf8_lossy(&raw);
        if let Ok(v) = Value::parse(&text) {
            let encoded = v.encode();
            let again = Value::parse(&encoded)
                .unwrap_or_else(|e| panic!("iteration {i}: re-parse of {encoded:?} failed: {e}"));
            assert_eq!(again, v, "iteration {i}: unstable round-trip");
        }
    }
}

fn spawn_daemon(store: &PathBuf) -> String {
    let mut cfg = ServeConfig::new(store);
    // Short deadline so a fuzz case that wedges a handler fails the
    // test quickly instead of after the default 30 s.
    cfg.client_timeout = Some(Duration::from_secs(5));
    let server = Server::open(cfg).expect("open store");
    server.start_scheduler();
    let listener = Listener::bind("127.0.0.1:0").expect("bind");
    let addr = listener.local_addr();
    std::thread::spawn(move || {
        let _ = server.serve(&listener);
    });
    addr
}

/// One hostile connection: send `payloads` (each already a full line or
/// a deliberate fragment), then close the write half and drain whatever
/// the daemon answers. Returns what it said. A read timeout here means
/// the daemon wedged — that is the one unacceptable outcome.
fn hostile_conn(addr: &str, payloads: &[Vec<u8>], terminate: bool) -> String {
    let mut s = TcpStream::connect(addr).expect("connect");
    s.set_read_timeout(Some(Duration::from_secs(20))).unwrap();
    for p in payloads {
        if s.write_all(p).is_err() {
            break; // daemon already dropped us — a legal outcome
        }
        if terminate && s.write_all(b"\n").is_err() {
            break;
        }
    }
    let _ = s.shutdown(std::net::Shutdown::Write);
    let mut out = String::new();
    match s.read_to_string(&mut out) {
        Ok(_) => out,
        // Reset mid-read is a drop, not a wedge.
        Err(e) if e.kind() == std::io::ErrorKind::ConnectionReset => out,
        Err(e) => panic!("daemon wedged on hostile input: {e}"),
    }
}

#[test]
fn daemon_survives_malformed_truncated_and_interleaved_clients() {
    let root = tmp("daemon");
    let addr = spawn_daemon(&root.join("store"));
    let mut rng = Rng::seed_from_u64(SEED ^ 0xF00D);
    let bases = base_lines();

    // A healthy round trip first, so the final liveness check compares
    // against a daemon that demonstrably worked before the abuse.
    // (The client is dropped right away: the daemon's 5 s read deadline
    // would evict an idle connection while the fuzz loop runs.)
    let c = Campaign::new("fuzz", 9).read_pcts([0, 100]).requests([100]);
    let (id0, total0) = Client::connect(&addr)
        .expect("pre-fuzz connect")
        .submit("alice", 0, &c)
        .expect("pre-fuzz submit");

    // 120 hostile connections: mutated commands, raw noise, structured
    // nasties, and truncated lines (write half a command, hang up).
    for i in 0..120u64 {
        let (payload, terminate) = match rng.gen_range(0..10) {
            0..=4 => (mutate_one(&mut rng, &bases), true),
            5..=6 => (garbage(&mut rng), true),
            7 => (nasty(&mut rng), true),
            // Truncated: a prefix of a valid command, no newline, EOF.
            _ => {
                let i = rng.gen_range(0..bases.len() as u64) as usize;
                let base = &bases[i];
                let cut = rng.gen_range(1..base.len() as u64) as usize;
                (base.as_bytes()[..cut].to_vec(), false)
            }
        };
        let reply = hostile_conn(&addr, std::slice::from_ref(&payload), terminate);
        // Every reply line after the hello must be a well-formed event —
        // the daemon never echoes garbage back.
        for line in reply.lines().skip(1) {
            assert!(
                Value::parse(line).is_ok(),
                "connection {i}: daemon emitted a malformed line {line:?} for input {:?}",
                String::from_utf8_lossy(&payload)
            );
        }
    }

    // Interleaved fragments: eight concurrent connections each dribble
    // a mutated command byte-by-byte-ish in turns, so partial lines from
    // different clients are in flight at once.
    let mut conns: Vec<TcpStream> = (0..8)
        .map(|_| {
            let s = TcpStream::connect(&addr).expect("connect");
            s.set_read_timeout(Some(Duration::from_secs(20))).unwrap();
            s
        })
        .collect();
    let lines: Vec<Vec<u8>> = (0..conns.len())
        .map(|_| mutate_one(&mut rng, &bases))
        .collect();
    let chunk = 7;
    let mut offset = 0;
    while lines.iter().any(|l| offset < l.len()) {
        for (s, l) in conns.iter_mut().zip(&lines) {
            if offset < l.len() {
                let end = (offset + chunk).min(l.len());
                let _ = s.write_all(&l[offset..end]);
            }
        }
        offset += chunk;
    }
    for s in &mut conns {
        let _ = s.write_all(b"\n");
        let _ = s.shutdown(std::net::Shutdown::Write);
        let mut out = String::new();
        match s.read_to_string(&mut out) {
            Ok(_) => {}
            Err(e) if e.kind() == std::io::ErrorKind::ConnectionReset => {}
            Err(e) => panic!("daemon wedged on interleaved input: {e}"),
        }
    }

    // The scheduler must still be alive and correct: the pre-fuzz job
    // finished, and a fresh submit+watch completes every unit.
    let mut records = 0;
    let summary = Client::connect(&addr)
        .expect("post-fuzz connect for the pre-fuzz job")
        .watch(&id0, |v, _| {
            if v.get("event").and_then(Value::as_str) == Some("record") {
                records += 1;
            }
        })
        .expect("post-fuzz watch of pre-fuzz job");
    assert_eq!(summary.ok, total0, "pre-fuzz job lost units");
    assert_eq!(records, total0);

    let mut fresh = Client::connect(&addr).expect("post-fuzz connect");
    let (id1, total1) = fresh.submit("bob", 0, &c).expect("post-fuzz submit");
    let summary = fresh.watch(&id1, |_, _| {}).expect("post-fuzz watch");
    assert_eq!(summary.ok, total1, "scheduler damaged by fuzz traffic");
    assert_eq!(summary.failed, 0);

    // Version-line sanity: the hello survives hostile traffic unchanged.
    let hello = hostile_conn(&addr, &[b"{\"cmd\":\"status\"}".to_vec()], true);
    assert!(hello.contains("\"event\":\"status\""), "{hello}");

    let _ = std::fs::remove_dir_all(&root);
}

/// A campaign whose axes multiply past the daemon's unit cap is refused
/// before the accept log grows — just over the cap, and so far over that
/// the product overflows `usize` — and the daemon keeps serving: an
/// honest submit afterwards streams exactly what `run_campaign` reports.
#[test]
fn oversized_campaigns_are_refused_before_the_accept_log() {
    let root = tmp("oversized");
    let store = root.join("store");
    let addr = spawn_daemon(&store);
    let accept_log = store.join("accept.jsonl");
    let before = std::fs::read(&accept_log).unwrap();

    // 1 025 × 1 024 units, about 8 KB on the wire.
    let just_over = Campaign::new("over", 1)
        .read_pcts((0..1_025).map(|i| (i % 101) as u8))
        .requests(1..=1_024);
    assert_eq!(just_over.len(), proto::MAX_CAMPAIGN_UNITS + 1_024);
    // Ten axes of 100 values each: 10^20 units.
    let linear = TrafficPattern::Linear {
        range: 1 << 20,
        block: 64,
    };
    let overflowing = Campaign::new("overflow", 1)
        .devices(vec!["DDR3-1333-x64"; 100])
        .models(vec![Model::Event; 100])
        .policies(vec![PagePolicy::Open; 100])
        .scheds(vec![SchedPolicy::FrFcfs; 100])
        .mappings(vec![AddrMapping::RoRaBaCoCh; 100])
        .channels(vec![1; 100])
        .traffic(vec![linear; 100])
        .read_pcts(vec![100; 100])
        .requests(vec![10; 100])
        .error_rates(vec![0.0; 100]);
    assert_eq!(overflowing.checked_len(), None);
    for c in [&just_over, &overflowing] {
        let mut client = Client::connect(&addr).unwrap();
        let err = client.submit("big", 0, c).unwrap_err().to_string();
        assert!(err.contains("units"), "{}: {err}", c.name);
    }
    assert!(
        std::fs::read(&accept_log).unwrap() == before,
        "the accept log grew"
    );

    let honest = Campaign::new("honest", 9)
        .read_pcts([0, 100])
        .requests([100]);
    let mut client = Client::connect(&addr).unwrap();
    let (id, _) = client.submit("small", 0, &honest).unwrap();
    let mut records = std::collections::BTreeMap::new();
    client
        .watch(&id, |v, line| {
            if v.get("event").and_then(Value::as_str) == Some("record") {
                let i = v.get("index").and_then(Value::as_u64).unwrap();
                records.insert(i, proto::record_data(line).unwrap().to_owned() + "\n");
            }
        })
        .unwrap();
    let want = run_campaign(&honest, &ExecutorConfig::serial(), run_job).to_jsonl();
    assert_eq!(records.into_values().collect::<String>(), want);
    let _ = std::fs::remove_dir_all(&root);
}

/// Mutates a log file line by line with [`mutate`], hitting one line in
/// four, and cuts a third of the results short, so a torn tail comes up
/// as often as a damaged interior.
fn mutate_log(rng: &mut Rng, text: &str) -> Vec<u8> {
    let mut out = Vec::new();
    for line in text.lines() {
        if rng.gen_range(0..4) == 0 {
            out.extend(mutate(rng, line));
        } else {
            out.extend_from_slice(line.as_bytes());
        }
        out.push(b'\n');
    }
    if rng.gen_range(0..3) == 0 {
        out.truncate(rng.gen_range(0..out.len() as u64 + 1) as usize);
    }
    out
}

/// Whether the file at `path` ends on a line boundary.
fn only_complete_lines(path: &Path) -> bool {
    let bytes = std::fs::read(path).unwrap();
    bytes.is_empty() || bytes.ends_with(b"\n")
}

/// `JobStore::open` over mutated accept and tombstone logs taken from a
/// store this test writes: `Ok` or `Err`, never a panic, and a store it
/// opens has an accept log of complete lines only.
#[test]
fn the_store_decoder_survives_mutated_logs() {
    let base = tmp("store-decoder");
    let root = base.join("store");
    let (mut store, _) = JobStore::open(&root).unwrap();
    let c = Campaign::new("fuzz", 9).read_pcts([0, 100]).requests([100]);
    store.accept("alice", 0, &c).unwrap();
    store
        .accept_sharded("bob", 1_000_000, &c, Some((1, 2)))
        .unwrap();
    let gone = store.accept("carol", 0, &c).unwrap();
    store.evict(&gone.id).unwrap();
    drop(store);
    let logs = [root.join("accept.jsonl"), root.join("evicted.jsonl")];
    let texts = logs.clone().map(|p| std::fs::read_to_string(p).unwrap());

    let seed = SEED ^ 0x5708E;
    let mut rng = Rng::seed_from_u64(seed);
    for i in 0..3_000u64 {
        // The accept log, the tombstone log, or both, mutated afresh.
        let hit = rng.gen_range(1..4);
        for (k, (path, text)) in logs.iter().zip(&texts).enumerate() {
            let bytes = match hit & (1 << k) {
                0 => text.clone().into_bytes(),
                _ => mutate_log(&mut rng, text),
            };
            std::fs::write(path, bytes).unwrap();
        }
        let opened = catch_unwind(|| JobStore::open(&root).is_ok())
            .unwrap_or_else(|_| panic!("seed {seed:#x}, iteration {i}: JobStore::open panicked"));
        if opened {
            assert!(
                only_complete_lines(&logs[0]),
                "seed {seed:#x}, iteration {i}: open left a torn accept log"
            );
        }
    }
    let _ = std::fs::remove_dir_all(&base);
}

/// `CampaignJournal::{replay, resume, recover}` over mutations of the
/// committed journal fixture, against its campaign: `Ok` or `Err`,
/// never a panic, and a journal `resume` or `recover` opens holds
/// complete lines only.
#[test]
fn the_journal_decoders_survive_mutated_journals() {
    const FIXTURE: &str = include_str!("../../../tests/fixtures/pr13_journal.jsonl");
    let c = golden_campaign();
    let dir = tmp("journal-decoders");
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join("journal.jsonl");
    std::fs::write(&path, FIXTURE).unwrap();
    let clean = CampaignJournal::replay(&path, &c).expect("the fixture is this campaign's");
    assert_eq!(clean.len(), 4);

    type Decoder = fn(&Path, &Campaign) -> bool;
    let decoders: [(&str, Decoder); 3] = [
        ("replay", |p, c| CampaignJournal::replay(p, c).is_ok()),
        ("resume", |p, c| CampaignJournal::resume(p, c).is_ok()),
        ("recover", |p, c| CampaignJournal::recover(p, c).is_ok()),
    ];
    let seed = SEED ^ 0x10E4;
    let mut rng = Rng::seed_from_u64(seed);
    for i in 0..3_000u64 {
        let bytes = mutate_log(&mut rng, FIXTURE);
        for (name, decode) in decoders {
            std::fs::write(&path, &bytes).unwrap();
            let opened = catch_unwind(|| decode(&path, &c))
                .unwrap_or_else(|_| panic!("seed {seed:#x}, iteration {i}: {name} panicked"));
            if opened && name != "replay" {
                assert!(
                    only_complete_lines(&path),
                    "seed {seed:#x}, iteration {i}: {name} left a torn line"
                );
            }
        }
    }
    let _ = std::fs::remove_dir_all(&dir);
}

/// The campaign `tests/golden_bytes.rs` writes its report and journal
/// fixtures for.
fn golden_campaign() -> Campaign {
    Campaign::new("golden \"q\" \\ \t", 14)
        .policies([PagePolicy::Open, PagePolicy::Closed])
        .read_pcts([0, 100])
        .requests([200])
}

/// `verify_record_line` and the JSON reader under it, over mutations of
/// the committed report fixture's lines: `Err`, or an accepted line that
/// is exactly the record it decodes to, rendered again — the validator's
/// bytes become a merged report's bytes — and never a panic. The reader
/// alone may accept what the renderer never writes (whitespace between
/// tokens, `\/`), so what it accepts must re-encode to a fixed point.
#[test]
fn the_record_validator_accepts_only_its_own_bytes() {
    const FIXTURE: &str = include_str!("../../../tests/fixtures/pr13_report.jsonl");
    let c = golden_campaign();
    let jobs = c.expand();
    let lines: Vec<String> = FIXTURE.lines().map(str::to_owned).collect();
    for line in &lines {
        assert!(verify_record_line(line, &c.name, &jobs).is_ok(), "{line}");
    }

    let seed = SEED ^ 0x7EC0;
    let mut rng = Rng::seed_from_u64(seed);
    let (mut accepted, mut parsed) = (0, 0);
    for i in 0..3_000u64 {
        let raw = mutate_one(&mut rng, &lines);
        let text = String::from_utf8_lossy(&raw);
        let verdict =
            catch_unwind(|| verify_record_line(&text, &c.name, &jobs)).unwrap_or_else(|_| {
                panic!("seed {seed:#x}, iteration {i}: verify_record_line panicked")
            });
        if let Ok((index, outcome)) = verdict {
            let again = JobRecord {
                job: jobs[index].clone(),
                outcome,
            }
            .render(&c.name);
            assert_eq!(
                again, text,
                "seed {seed:#x}, iteration {i}: accepted bytes it does not render"
            );
            accepted += 1;
        }
        let value = catch_unwind(|| dramctrl_kernel::json::Value::parse(&text))
            .unwrap_or_else(|_| panic!("seed {seed:#x}, iteration {i}: Value::parse panicked"));
        if let Ok(v) = value {
            let encoded = v.encode();
            let again = dramctrl_kernel::json::Value::parse(&encoded).unwrap_or_else(|e| {
                panic!("seed {seed:#x}, iteration {i}: re-parse of {encoded:?} failed: {e}")
            });
            assert_eq!(again, v, "seed {seed:#x}, iteration {i}: unstable value");
            assert_eq!(again.encode(), encoded, "seed {seed:#x}, iteration {i}");
            parsed += 1;
        }
    }
    // The mutator must reach both sides of each decoder.
    assert!(
        accepted > 0 && accepted < 3_000,
        "seed {seed:#x}: {accepted} accepted"
    );
    assert!(parsed > accepted, "seed {seed:#x}: {parsed} parsed");
}

/// The daemon's campaign decoder over mutations of the pinned multi-axis
/// wire bytes (`tests/golden_bytes.rs` writes them): `Err`, or a campaign
/// within the unit cap whose re-encoding decodes to the same campaign —
/// and never a panic.
#[test]
fn the_campaign_decoder_survives_mutated_campaigns() {
    const FIXTURE: &str = include_str!("../../../tests/fixtures/pr34_campaign_wire.json");
    let base = FIXTURE.trim_end();
    let decode = |text: &str| {
        Value::parse(text)
            .map_err(|e| e.to_string())
            .and_then(|v| proto::campaign_from_wire(&v))
    };
    assert!(decode(base).is_ok(), "the fixture decodes");

    let seed = SEED ^ 0xCA3E;
    let mut rng = Rng::seed_from_u64(seed);
    let mut accepted = 0;
    for i in 0..3_000u64 {
        let raw = mutate(&mut rng, base);
        let text = String::from_utf8_lossy(&raw);
        let verdict = catch_unwind(|| decode(&text))
            .unwrap_or_else(|_| panic!("seed {seed:#x}, iteration {i}: the decoder panicked"));
        let Ok(c) = verdict else { continue };
        let units = c.checked_len();
        assert!(
            units.is_some_and(|n| n <= proto::MAX_CAMPAIGN_UNITS),
            "seed {seed:#x}, iteration {i}: accepted {units:?} units"
        );
        let again = decode(&campaign_to_wire(&c).encode()).unwrap_or_else(|e| {
            panic!("seed {seed:#x}, iteration {i}: its re-encoding is refused: {e}")
        });
        assert_eq!(
            format!("{again:?}"),
            format!("{c:?}"),
            "seed {seed:#x}, iteration {i}: the re-encoding decodes to another campaign"
        );
        accepted += 1;
    }
    // The mutator must reach both sides of the decoder.
    assert!(
        accepted > 0 && accepted < 3_000,
        "seed {seed:#x}: {accepted} accepted"
    );
}
