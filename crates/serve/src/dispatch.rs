//! The dispatch coordinator: fan a campaign out to a daemon fleet and
//! survive dead, slow, and lying peers.
//!
//! `dispatch` partitions a campaign's job space into residue-class
//! shards (job `i` belongs to shard `i % n` — the same rule as the
//! executor's `run_campaign_shard`, so per-job seeds and record bytes
//! are independent of the partitioning), submits one shard per healthy
//! peer over the line protocol, streams each shard's records back via
//! `watch`, and merges everything with `merge_journals` into a report
//! byte-identical to a local unsharded sweep.
//!
//! The robustness model, in lifecycle order:
//!
//! 1. **Probe**: every peer must answer `hello` with compatible
//!    versions before it is assigned anything. A peer speaking an older
//!    protocol (no shard-aware submit) fails the version gate here.
//! 2. **Assign**: each incomplete shard goes to a live peer
//!    (round-robin when shards outnumber peers). Spare peers *hedge*:
//!    they re-run a shard someone slower already owns, and whichever
//!    copy commits a record first wins.
//! 3. **Validate**: every streamed record is parsed, index- and
//!    residue-checked, then re-rendered from the coordinator's own
//!    campaign spec and byte-compared. A peer that streams anything
//!    else is *banned* — marked lying, never re-assigned — and its
//!    shard re-dispatched. Only validated bytes reach a shard journal.
//! 4. **Re-dispatch**: a peer that dies (connect refused, stream cut,
//!    submit rejected) or stalls past the I/O deadline fails its
//!    assignment; the shard returns to the pool for the next round,
//!    paced by capped exponential backoff. Dead peers are re-probed
//!    each round (a restarted daemon rejoins); banned peers are not.
//! 5. **Merge**: every assignment appended to its *own* journal, so
//!    overlapping partial shards (hedges, re-runs after partial
//!    progress) union keep-first — duplicates are byte-identical by
//!    determinism, making re-dispatch idempotent. `merge_journals`
//!    validates every journal against the spec hash and refuses to
//!    emit a report with gaps: an uncoverable campaign is a loud
//!    [`DispatchError::Incomplete`], never a truncated report.

use crate::client::{Client, WatchSummary};
use crate::proto::record_data;
use dramctrl_campaign::{
    merge_journals, verify_record_line, CampaignJournal, CampaignReport, JobRecord, JobSpec,
    JournalError,
};
use dramctrl_kernel::backoff::Backoff;
use std::collections::BTreeSet;
use std::fmt;
use std::path::PathBuf;
use std::sync::Mutex;
use std::time::Duration;

/// Coordinator tuning knobs.
#[derive(Debug, Clone)]
pub struct DispatchConfig {
    /// Tenant name submitted to every peer.
    pub tenant: String,
    /// Directory for the coordinator's shard journals (one per
    /// assignment). Created if missing.
    pub workdir: PathBuf,
    /// Per-read deadline while streaming a shard: a connected peer that
    /// delivers nothing for this long fails the assignment. `None`
    /// trusts peers never to hang.
    pub io_timeout: Option<Duration>,
    /// Re-issue incomplete shards to idle peers within a round.
    pub hedge: bool,
    /// Assignment rounds before giving up and reporting `Incomplete`.
    pub max_rounds: u32,
    /// Epoch-series interval forwarded to peers (0 = unobserved, the
    /// byte-identity mode).
    pub epochs: u64,
}

impl DispatchConfig {
    /// Defaults: 60 s I/O deadline, hedging on, 10 rounds.
    #[must_use]
    pub fn new(workdir: impl Into<PathBuf>) -> Self {
        Self {
            tenant: "dispatch".to_owned(),
            workdir: workdir.into(),
            io_timeout: Some(Duration::from_secs(60)),
            hedge: true,
            max_rounds: 10,
            epochs: 0,
        }
    }
}

/// What the fleet did, for the final summary line.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct DispatchStats {
    /// Shard count (`n` in `i/n`).
    pub shards: u32,
    /// Assignment rounds executed.
    pub rounds: u32,
    /// Assignments beyond each shard's first — re-dispatches after a
    /// peer died, stalled, or lied.
    pub redispatches: u32,
    /// Hedged (duplicate) assignments to otherwise idle peers.
    pub hedges: u32,
    /// Peers that failed at least one assignment or probe.
    pub peers_lost: u32,
}

/// Why a dispatch produced no report.
#[derive(Debug)]
pub enum DispatchError {
    /// No peer survived the hello probe; each entry is `(addr, why)`.
    NoHealthyPeers(Vec<(String, String)>),
    /// Coordinator-side I/O (workdir, shard journals).
    Local(std::io::Error),
    /// The fleet could not cover the whole job space before the round
    /// budget (or every peer) was exhausted.
    Incomplete {
        /// Uncovered job count.
        missing: usize,
        /// Lowest uncovered index.
        first_missing: usize,
        /// Campaign job count.
        total: usize,
    },
    /// A shard journal failed validation at merge time.
    Journal(JournalError),
}

impl fmt::Display for DispatchError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            DispatchError::NoHealthyPeers(peers) => {
                write!(f, "no healthy peers among {}:", peers.len())?;
                for (addr, why) in peers {
                    write!(f, "\n  {addr}: {why}")?;
                }
                Ok(())
            }
            DispatchError::Local(e) => write!(f, "coordinator i/o: {e}"),
            DispatchError::Incomplete {
                missing,
                first_missing,
                total,
            } => write!(
                f,
                "campaign incomplete: {missing} of {total} jobs uncovered \
                 (first missing index {first_missing}); refusing to emit a \
                 truncated report — add peers or re-run dispatch"
            ),
            DispatchError::Journal(e) => write!(f, "shard journal: {e}"),
        }
    }
}

impl std::error::Error for DispatchError {}

impl From<std::io::Error> for DispatchError {
    fn from(e: std::io::Error) -> Self {
        DispatchError::Local(e)
    }
}

/// Per-peer lifecycle. `Dead` peers are re-probed every round (daemons
/// restart); `Banned` peers streamed invalid bytes and are never
/// trusted again.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum PeerState {
    Healthy,
    Dead,
    Banned,
}

#[derive(Debug)]
struct Peer {
    addr: String,
    state: PeerState,
    ever_failed: bool,
}

/// One shard assignment for the current round.
struct Assignment {
    shard: u32,
    peer: usize,
    hedged: bool,
    journal: PathBuf,
}

/// Runs a campaign across `peers` and merges the result.
///
/// # Errors
/// See [`DispatchError`]; `Incomplete` is the refuses-to-truncate path.
pub fn dispatch(
    campaign: &dramctrl_campaign::Campaign,
    peers: &[String],
    cfg: &DispatchConfig,
) -> Result<(CampaignReport, DispatchStats), DispatchError> {
    let units = campaign.expand();
    let total = units.len();
    std::fs::create_dir_all(&cfg.workdir)?;

    // ---- probe ------------------------------------------------------
    let mut fleet: Vec<Peer> = Vec::with_capacity(peers.len());
    let mut failures = Vec::new();
    for addr in peers {
        let state = match Client::connect(addr) {
            Ok(_) => PeerState::Healthy,
            Err(e) => {
                failures.push((addr.clone(), e.to_string()));
                PeerState::Dead
            }
        };
        dramctrl_obs::log_info!(
            "dispatch", "peer probed";
            "peer" => addr,
            "healthy" => (state == PeerState::Healthy)
        );
        fleet.push(Peer {
            addr: addr.clone(),
            state,
            ever_failed: state != PeerState::Healthy,
        });
    }
    let healthy = fleet
        .iter()
        .filter(|p| p.state == PeerState::Healthy)
        .count();
    if healthy == 0 {
        return Err(DispatchError::NoHealthyPeers(failures));
    }

    // Shard count is fixed for the campaign's lifetime: residue classes
    // from different `n` would not line up across re-dispatches.
    let n = u32::try_from(healthy.min(total.max(1))).unwrap_or(1).max(1);
    let mut stats = DispatchStats {
        shards: n,
        ..DispatchStats::default()
    };
    dramctrl_obs::log_info!(
        "dispatch", "campaign partitioned";
        "jobs" => total, "shards" => n, "peers" => fleet.len()
    );

    // ---- rounds -----------------------------------------------------
    let done: Mutex<BTreeSet<usize>> = Mutex::new(BTreeSet::new());
    let mut journals: Vec<PathBuf> = Vec::new();
    let mut assigned_before: BTreeSet<u32> = BTreeSet::new();
    let mut seq = 0usize; // per-assignment journal file sequence
    let mut backoff = Backoff::new(Duration::from_millis(200), Duration::from_secs(5));
    while stats.rounds < cfg.max_rounds {
        let incomplete: Vec<u32> = (0..n)
            .filter(|&s| {
                let d = done
                    .lock()
                    .unwrap_or_else(std::sync::PoisonError::into_inner);
                shard_has_gap(&d, s, n, total)
            })
            .collect();
        if incomplete.is_empty() {
            break;
        }
        // Re-probe dead peers: a restarted daemon rejoins the fleet.
        for p in &mut fleet {
            if p.state == PeerState::Dead && Client::connect(&p.addr).is_ok() {
                p.state = PeerState::Healthy;
                dramctrl_obs::log_info!("dispatch", "peer rejoined"; "peer" => p.addr);
            }
        }
        let avail: Vec<usize> = fleet
            .iter()
            .enumerate()
            .filter(|(_, p)| p.state == PeerState::Healthy)
            .map(|(i, _)| i)
            .collect();
        if avail.is_empty() {
            break;
        }
        stats.rounds += 1;

        // Every incomplete shard gets a peer (round-robin, rotated by
        // round so a shard whose owner keeps failing lands on a
        // *different* peer next round even without hedging); spare
        // peers hedge the slowest shards.
        let rotate = stats.rounds as usize - 1;
        let mut assignments = Vec::new();
        for (k, &shard) in incomplete.iter().enumerate() {
            assignments.push((shard, avail[(k + rotate) % avail.len()], false));
        }
        if cfg.hedge && avail.len() > incomplete.len() {
            for (k, &peer) in avail[incomplete.len()..].iter().enumerate() {
                assignments.push((incomplete[k % incomplete.len()], peer, true));
            }
        }
        let round = stats.rounds;
        let planned: Vec<Assignment> = assignments
            .into_iter()
            .map(|(shard, peer, hedged)| {
                // Every assignment owns a distinct journal file — two
                // hedges of one shard must never share an appender.
                seq += 1;
                Assignment {
                    shard,
                    peer,
                    hedged,
                    journal: cfg
                        .workdir
                        .join(format!("shard-{shard}of{n}-r{round}-a{seq}.jsonl")),
                }
            })
            .collect();
        for a in &planned {
            let event = if a.hedged {
                "shard hedged"
            } else if assigned_before.contains(&a.shard) {
                "shard re-dispatched"
            } else {
                "shard assigned"
            };
            if a.hedged {
                stats.hedges += 1;
            } else if assigned_before.contains(&a.shard) {
                stats.redispatches += 1;
            }
            assigned_before.insert(a.shard);
            dramctrl_obs::log_info!(
                "dispatch", event;
                "shard" => format!("{}/{n}", a.shard),
                "peer" => fleet[a.peer].addr,
                "round" => round
            );
        }

        // Run the round's assignments concurrently; each worker owns
        // its journal file and reports (peer verdict, outcome).
        let results: Vec<(usize, Result<WatchSummary, AssignmentFailure>)> =
            std::thread::scope(|scope| {
                let handles: Vec<_> = planned
                    .iter()
                    .map(|a| {
                        let addr = fleet[a.peer].addr.clone();
                        let done = &done;
                        let units = &units;
                        scope.spawn(move || {
                            (
                                a.peer,
                                run_assignment(campaign, units, &addr, a, n, cfg, done),
                            )
                        })
                    })
                    .collect();
                handles
                    .into_iter()
                    .map(|h| h.join().expect("worker panicked"))
                    .collect()
            });
        for a in &planned {
            journals.push(a.journal.clone());
        }

        let mut progressed = false;
        for (peer, result) in results {
            match result {
                Ok(_) => progressed = true,
                Err(fail) => {
                    let p = &mut fleet[peer];
                    p.state = match fail.verdict {
                        PeerVerdict::Dead => PeerState::Dead,
                        PeerVerdict::Lying => PeerState::Banned,
                    };
                    if !p.ever_failed {
                        p.ever_failed = true;
                        stats.peers_lost += 1;
                    }
                    progressed |= fail.delivered > 0;
                    dramctrl_obs::log_warn!(
                        "dispatch", "assignment failed";
                        "peer" => p.addr, "shard" => format!("{}/{n}", fail.shard),
                        "verdict" => match fail.verdict {
                            PeerVerdict::Dead => "dead",
                            PeerVerdict::Lying => "banned",
                        },
                        "error" => fail.why
                    );
                }
            }
        }
        if progressed {
            backoff.reset();
        } else {
            std::thread::sleep(backoff.next_delay());
        }
    }

    // ---- merge ------------------------------------------------------
    // Only journals that exist participate: an assignment that died
    // before its journal header was written contributes nothing.
    journals.retain(|p| p.exists());
    let report = match merge_journals(campaign, &journals) {
        Ok(r) => r,
        Err(JournalError::Incomplete {
            missing,
            first_missing,
            total,
        }) => {
            return Err(DispatchError::Incomplete {
                missing,
                first_missing,
                total,
            })
        }
        Err(e) => return Err(DispatchError::Journal(e)),
    };
    dramctrl_obs::log_info!(
        "dispatch", "shards merged";
        "jobs" => report.records.len(), "journals" => journals.len(),
        "rounds" => stats.rounds, "redispatches" => stats.redispatches,
        "hedges" => stats.hedges
    );
    Ok((report, stats))
}

/// Whether shard `s` (of `n`) still has uncommitted indices.
fn shard_has_gap(done: &BTreeSet<usize>, s: u32, n: u32, total: usize) -> bool {
    (s as usize..total)
        .step_by(n as usize)
        .any(|i| !done.contains(&i))
}

/// Why an assignment failed, and what it says about the peer.
enum PeerVerdict {
    /// Transport-level death or refusal: retryable, re-probe later.
    Dead,
    /// Streamed a record failing validation: never trust again.
    Lying,
}

struct AssignmentFailure {
    shard: u32,
    verdict: PeerVerdict,
    why: String,
    delivered: usize,
}

/// One assignment: submit the shard, stream its records with
/// reconnect + deadline, validate each byte-for-byte, and commit the
/// valid ones to this assignment's own journal.
fn run_assignment(
    campaign: &dramctrl_campaign::Campaign,
    units: &[JobSpec],
    addr: &str,
    a: &Assignment,
    n: u32,
    cfg: &DispatchConfig,
    done: &Mutex<BTreeSet<usize>>,
) -> Result<WatchSummary, AssignmentFailure> {
    let shard = a.shard;
    let fail = |verdict, why: String, delivered| AssignmentFailure {
        shard,
        verdict,
        why,
        delivered,
    };
    let submit = || -> std::io::Result<(String, usize)> {
        let mut c = Client::connect(addr)?;
        c.set_io_timeout(cfg.io_timeout)?;
        c.submit_sharded(&cfg.tenant, cfg.epochs, campaign, Some((shard, n)))
    };
    let (id, _total) = submit().map_err(|e| fail(PeerVerdict::Dead, e.to_string(), 0))?;

    let mut journal = CampaignJournal::create(&a.journal, campaign)
        .map_err(|e| fail(PeerVerdict::Dead, format!("local journal: {e}"), 0))?;
    let mut delivered = 0usize;
    let mut poison: Option<String> = None;
    let watched = Client::watch_with_reconnect_deadline(addr, &id, cfg.io_timeout, |v, line| {
        if poison.is_some() {
            return;
        }
        if v.get("event").and_then(crate::wire::Value::as_str) != Some("record") {
            return;
        }
        match validate_record(campaign, units, line, shard, n) {
            Ok(rec) => {
                // Commit before publishing: `done` only ever names
                // durably journaled indices.
                match journal.commit(&rec) {
                    Ok(_) => {
                        delivered += 1;
                        done.lock()
                            .unwrap_or_else(std::sync::PoisonError::into_inner)
                            .insert(rec.job.index);
                    }
                    Err(e) => poison = Some(format!("local journal: {e}")),
                }
            }
            Err(why) => poison = Some(format!("invalid record: {why}")),
        }
    });
    if let Some(why) = poison {
        let verdict = if why.starts_with("local journal") {
            PeerVerdict::Dead
        } else {
            PeerVerdict::Lying
        };
        return Err(fail(verdict, why, delivered));
    }
    watched.map_err(|e| fail(PeerVerdict::Dead, e.to_string(), delivered))
}

/// The lying-peer gate: a streamed `record` event is accepted only if
/// its payload is byte for byte the record the coordinator's *own* spec
/// renders for that index ([`verify_record_line`], the check the journal
/// reader applies to every line on disk) and the index is in this
/// shard's residue class.
fn validate_record(
    campaign: &dramctrl_campaign::Campaign,
    units: &[JobSpec],
    line: &str,
    shard: u32,
    n: u32,
) -> Result<JobRecord, String> {
    let data = record_data(line).ok_or_else(|| "record event carries no payload".to_owned())?;
    let (index, outcome) = verify_record_line(data, &campaign.name, units)?;
    if index as u64 % u64::from(n) != u64::from(shard) {
        return Err(format!("index {index} outside shard {shard}/{n}"));
    }
    Ok(JobRecord {
        job: units[index].clone(),
        outcome,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use dramctrl_campaign::{Campaign, JobMetrics, JobOutcome};

    fn campaign() -> Campaign {
        Campaign::new("dispatch-test", 9).read_pcts([0, 50, 100])
    }

    fn record_line(c: &Campaign, index: usize) -> String {
        let rec = JobRecord {
            job: c.expand()[index].clone(),
            outcome: JobOutcome::Completed {
                metrics: JobMetrics::new().with("bus_util", 0.5),
                attempts: 1,
            },
        };
        rec.render(&c.name)
    }

    #[test]
    fn validate_accepts_honest_records_and_rejects_lies() {
        let c = campaign();
        let units = c.expand();
        let data = record_line(&c, 1);
        let event = crate::proto::record_event("job-0001", 1, &data);
        // Honest: index 1 is in shard 1 of 3.
        assert!(validate_record(&c, &units, &event, 1, 3).is_ok());
        // Wrong residue class.
        let err = validate_record(&c, &units, &event, 0, 3).unwrap_err();
        assert!(err.contains("outside shard"), "{err}");
        // Out of range index.
        let far =
            crate::proto::record_event("job-0001", 7, &data.replace("\"job\":1", "\"job\":7"));
        let err = validate_record(&c, &units, &far, 1, 3).unwrap_err();
        assert!(err.contains("out of range"), "{err}");
        // Foreign campaign: same shape, different seed → different
        // per-job seed bytes → byte divergence.
        let foreign = Campaign::new("dispatch-test", 10).read_pcts([0, 50, 100]);
        let forged = crate::proto::record_event("job-0001", 1, &record_line(&foreign, 1));
        let err = validate_record(&c, &units, &forged, 1, 3).unwrap_err();
        assert!(err.contains("diverge"), "{err}");
        // Garbage payload.
        let junk = "{\"event\":\"record\",\"id\":\"x\",\"index\":1,\"data\":{\"nope\":1}}";
        assert!(validate_record(&c, &units, junk, 1, 3).is_err());
    }

    #[test]
    fn shard_gap_detection_walks_the_residue_class() {
        let mut done = BTreeSet::new();
        // Shard 1 of 3 over 8 jobs owns {1, 4, 7}.
        assert!(shard_has_gap(&done, 1, 3, 8));
        done.extend([1, 4]);
        assert!(shard_has_gap(&done, 1, 3, 8));
        done.insert(7);
        assert!(!shard_has_gap(&done, 1, 3, 8));
        // Other shards' indices are irrelevant.
        assert!(shard_has_gap(&done, 0, 3, 8));
    }

    #[test]
    fn all_peers_dead_is_no_healthy_peers() {
        let dir = std::env::temp_dir().join(format!("dramctrl-dispatch-{}", std::process::id()));
        let cfg = DispatchConfig::new(&dir);
        let peers = vec!["127.0.0.1:1".to_owned(), "/nonexistent/sock".to_owned()];
        match dispatch(&campaign(), &peers, &cfg) {
            Err(DispatchError::NoHealthyPeers(fails)) => assert_eq!(fails.len(), 2),
            other => panic!("expected NoHealthyPeers, got {other:?}"),
        }
    }
}
