//! The dispatch coordinator: fan a campaign out to a daemon fleet and
//! survive dead, slow, and lying peers.
//!
//! `dispatch` partitions a campaign's job space into residue-class
//! shards (job `i` belongs to shard `i % n` — the same rule as the
//! executor's `run_campaign_shard`, so per-job seeds and record bytes
//! are independent of the partitioning), lets every healthy peer pull
//! shards off a cost-ordered queue over the line protocol, streams each
//! shard's records back via `watch`, and merges everything with
//! `merge_journals` into a report byte-identical to a local unsharded
//! sweep.
//!
//! The robustness model, in lifecycle order:
//!
//! 1. **Probe**: every peer must answer `hello` with compatible
//!    versions before it is assigned anything. A peer speaking an older
//!    protocol (no shard-aware submit) fails the version gate here.
//! 2. **Pull**: the campaign is cut into `SHARDS_PER_PEER` shards per
//!    healthy peer and each round queues the incomplete ones costliest
//!    first (`plan_round`). One thread per live peer takes the next
//!    shard when it finishes its last, so a slow peer — or an
//!    underestimated shard — takes fewer and nobody idles behind an
//!    unequal cut. Spare peers (more peers than incomplete shards)
//!    *hedge*: they re-run a shard someone else already owns, and
//!    whichever copy delivers a record first wins.
//! 3. **Validate**: every streamed record is parsed, index- and
//!    residue-checked, then re-rendered from the coordinator's own
//!    campaign spec and byte-compared. A peer that streams anything
//!    else is *banned* — marked lying, never re-assigned — and its
//!    shard re-dispatched. Only validated bytes reach a shard journal.
//! 4. **Re-dispatch**: a peer that dies (connect refused, stream cut,
//!    submit rejected) or stalls past the I/O deadline fails its
//!    assignment and pulls no more this round; its shard stays
//!    incomplete for the next round, paced by capped exponential
//!    backoff. Dead peers are re-probed each round (a restarted daemon
//!    rejoins); banned peers are not. A coordinator-side journal
//!    failure (a write or the sync below) fails the assignment the same
//!    way: it costs a re-dispatch, never a wrong report.
//! 5. **Merge**: every assignment appended to its *own* journal, so
//!    overlapping partial shards (hedges, re-runs after partial
//!    progress) union keep-first — duplicates are byte-identical by
//!    determinism, making re-dispatch idempotent. A shard journal is
//!    synced once per assignment, when its stream ends and before its
//!    indices count as done: no code path resumes a coordinator journal
//!    (`merge_journals` reads it once, in this process), the peers'
//!    journals are the durable copy, and a line torn by a failed write
//!    is dropped by the merge's torn-tail rule. `merge_journals`
//!    validates every journal against the spec hash and refuses to
//!    emit a report with gaps: an uncoverable campaign is a loud
//!    [`DispatchError::Incomplete`], never a truncated report.

use crate::client::{Client, WatchSummary};
use crate::proto::record_data;
use dramctrl_campaign::{
    merge_journals, verify_record_line, CampaignJournal, CampaignReport, JobOutcome, JobSpec,
    JournalError,
};
use dramctrl_kernel::backoff::Backoff;
use std::cmp::Reverse;
use std::collections::BTreeSet;
use std::fmt;
use std::path::PathBuf;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Mutex, MutexGuard, PoisonError};
use std::time::{Duration, Instant};

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
    /// Assignments taken and their estimated cost, over all rounds.
    shards: u32,
    cost: u64,
}

/// Shards per healthy peer. One per peer makes a shard a slice of the
/// campaign's innermost axis whenever the peer count divides it, and
/// the peer with the short slice idles; shares off a queue even that
/// out. Measured on `fleet_sweep` (2 equal peers; median sims/s of 9
/// runs at `--seconds 4`): 2 → 875, 4 → 830, 8 → 800 (each shard costs
/// a submit, an accept and two journal set-ups), 703 with one up-front
/// shard per peer; 2 and 4 lie inside each other's spread. 4 over 2 is
/// for unequal or straggling peers (a straggler holds a quarter share,
/// not a half) — which no benchmark workload measures yet.
const SHARDS_PER_PEER: usize = 4;

/// The shard count for `jobs` units over `healthy` peers.
fn shard_count(jobs: usize, healthy: usize) -> u32 {
    u32::try_from((SHARDS_PER_PEER * healthy).min(jobs.max(1))).unwrap_or(u32::MAX)
}

/// One incomplete shard in a round's queue.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct Planned {
    shard: u32,
    /// Estimated cost: requests over the not-yet-done `units`. Crude (a
    /// cycle-model unit costs 3-33x an event-model one) and
    /// enough: the queue absorbs the error, the order only decides
    /// which shards are left for the end.
    cost: u64,
    units: usize,
}

/// A round's pull queue: every shard (of `n`) with a unit not yet
/// `done`, costliest first — longest processing time first, so the
/// short shards fill the gaps at the end — ties by shard number.
fn plan_round(units: &[JobSpec], done: &BTreeSet<usize>, n: u32) -> Vec<Planned> {
    let mut plan: Vec<Planned> = (0..n)
        .map(|shard| Planned {
            shard,
            cost: 0,
            units: 0,
        })
        .collect();
    for job in units.iter().filter(|j| !done.contains(&j.index)) {
        let p = &mut plan[job.index % n as usize];
        p.cost += job.requests;
        p.units += 1;
    }
    plan.retain(|p| p.units > 0);
    plan.sort_by_key(|p| (Reverse(p.cost), p.shard));
    plan
}

/// One shard assignment.
struct Assignment {
    plan: Planned,
    hedged: bool,
    journal: PathBuf,
}

fn lock<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(PoisonError::into_inner)
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
            shards: 0,
            cost: 0,
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
    let n = shard_count(total, healthy);
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
    let mut backoff = Backoff::new(Duration::from_millis(200), Duration::from_secs(5));
    while stats.rounds < cfg.max_rounds {
        let queue = plan_round(&units, &lock(&done), n);
        if queue.is_empty() {
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
        let round = stats.rounds;

        // One lane per live peer. Lane `k` starts on `queue[k]` and then
        // takes whatever `next` hands out — one assignment in flight
        // per peer, which the peer runs on all of its workers, several
        // units of the shard at once. Rotating lanes by round only
        // varies which peer starts where: the queue is re-planned from
        // what is left, so it promises a failed shard no particular peer
        // next round.
        // Lanes beyond the queue's end are spare peers: they hedge one
        // shard each (`next` is already past the end).
        let lanes = avail
            .len()
            .min(if cfg.hedge { usize::MAX } else { queue.len() });
        let next = AtomicUsize::new(lanes.min(queue.len()));
        let run_lane = |k: usize| {
            let peer = avail[(k + round as usize - 1) % avail.len()];
            let addr = &fleet[peer].addr;
            let hedged = k >= queue.len();
            let mut taken = Vec::new();
            let mut pos = k % queue.len();
            while let Some(&plan) = queue.get(pos) {
                let event = if hedged {
                    "shard hedged"
                } else if assigned_before.contains(&plan.shard) {
                    "shard re-dispatched"
                } else {
                    "shard assigned"
                };
                let shard = format!("{}/{n}", plan.shard);
                dramctrl_obs::log_info!(
                    "dispatch", event;
                    "shard" => shard, "peer" => addr, "round" => round,
                    "cost" => plan.cost, "units" => plan.units
                );
                // Every assignment owns a distinct journal file — two
                // hedges of one shard must never share an appender.
                let name = format!("shard-{}of{n}-r{round}-p{peer}.jsonl", plan.shard);
                let a = Assignment {
                    plan,
                    hedged,
                    journal: cfg.workdir.join(name),
                };
                let t = Instant::now();
                let result = run_assignment(campaign, &units, addr, &a, n, cfg, &done);
                taken.push(a);
                if let Err(fail) = result {
                    return (peer, taken, Some(fail));
                }
                dramctrl_obs::log_info!(
                    "dispatch", "shard finished";
                    "shard" => shard, "peer" => addr, "units" => plan.units,
                    "wall_ms" => t.elapsed().as_millis()
                );
                // Relaxed: a ticket counter, it publishes nothing.
                pos = next.fetch_add(1, Ordering::Relaxed);
            }
            (peer, taken, None)
        };
        let results: Vec<_> = std::thread::scope(|scope| {
            let handles: Vec<_> = (0..lanes)
                .map(|k| {
                    let run_lane = &run_lane;
                    scope.spawn(move || run_lane(k))
                })
                .collect();
            handles
                .into_iter()
                .map(|h| h.join().expect("worker panicked"))
                .collect()
        });

        let mut progressed = false;
        for (peer, taken, failure) in results {
            // A failure is the lane's last assignment; its shard stays
            // incomplete for the next round.
            let finished = taken.len() - usize::from(failure.is_some());
            progressed |= finished > 0;
            for a in taken {
                if a.hedged {
                    stats.hedges += 1;
                } else if !assigned_before.insert(a.plan.shard) {
                    stats.redispatches += 1;
                }
                fleet[peer].shards += 1;
                fleet[peer].cost += a.plan.cost;
                journals.push(a.journal);
            }
            if let Some(fail) = failure {
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
    let by_peer: Vec<String> = fleet
        .iter()
        .map(|p| format!("{} shards={} cost={}", p.addr, p.shards, p.cost))
        .collect();
    dramctrl_obs::log_info!(
        "dispatch", "shards merged";
        "jobs" => report.len(), "journals" => journals.len(),
        "rounds" => stats.rounds, "redispatches" => stats.redispatches,
        "hedges" => stats.hedges, "by_peer" => by_peer.join("; ")
    );
    Ok((report, stats))
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
/// reconnect + deadline, validate each byte-for-byte, append the valid
/// ones to this assignment's own journal and sync it once at the end.
fn run_assignment(
    campaign: &dramctrl_campaign::Campaign,
    units: &[JobSpec],
    addr: &str,
    a: &Assignment,
    n: u32,
    cfg: &DispatchConfig,
    done: &Mutex<BTreeSet<usize>>,
) -> Result<WatchSummary, AssignmentFailure> {
    let shard = a.plan.shard;
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
    let mut got: Vec<usize> = Vec::with_capacity(a.plan.units);
    let mut poison: Option<String> = None;
    let watched = Client::watch_with_reconnect(addr, &id, cfg.io_timeout, |v, line| {
        if poison.is_some() {
            return;
        }
        if v.get("event").and_then(crate::wire::Value::as_str) != Some("record") {
            return;
        }
        match validate_record(campaign, units, line, shard, n) {
            Ok((index, outcome, data)) => match journal.append_deferred(index, &outcome, data) {
                Ok(new) => got.extend(new.then_some(index)), // false: a re-sent line
                Err(e) => poison = Some(format!("local journal: {e}")),
            },
            Err(why) => poison = Some(format!("invalid record: {why}")),
        }
    });
    // One sync per assignment, however the stream ended, and publish
    // after it: `done` only ever names validated indices whose lines
    // were made durable before merge. A failed sync — or a failed
    // append, after which the journal refuses to sync — publishes
    // nothing, so the shard is fetched again; the lines stay readable.
    match journal.sync() {
        Ok(()) => lock(done).extend(&got),
        Err(e) => {
            got.clear();
            poison.get_or_insert(format!("local journal: {e}"));
        }
    }
    if let Some(why) = poison {
        let verdict = if why.starts_with("local journal") {
            PeerVerdict::Dead
        } else {
            PeerVerdict::Lying
        };
        return Err(fail(verdict, why, got.len()));
    }
    watched.map_err(|e| fail(PeerVerdict::Dead, e.to_string(), got.len()))
}

/// The lying-peer gate: a streamed `record` event is accepted only if
/// its payload is byte for byte the record the coordinator's *own* spec
/// renders for that index ([`verify_record_line`], the check the journal
/// reader applies to every line on disk) and the index is in this
/// shard's residue class. Returns the payload too: those verified bytes
/// are what the coordinator's journal appends.
fn validate_record<'l>(
    campaign: &dramctrl_campaign::Campaign,
    units: &[JobSpec],
    line: &'l str,
    shard: u32,
    n: u32,
) -> Result<(usize, JobOutcome, &'l str), String> {
    let data = record_data(line).ok_or_else(|| "record event carries no payload".to_owned())?;
    let (index, outcome) = verify_record_line(data, &campaign.name, units)?;
    if index as u64 % u64::from(n) != u64::from(shard) {
        return Err(format!("index {index} outside shard {shard}/{n}"));
    }
    Ok((index, outcome, data))
}

#[cfg(test)]
mod tests {
    use super::*;
    use dramctrl_campaign::{Campaign, JobMetrics, JobRecord};

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
        let units = Campaign::new("gaps", 1)
            .read_pcts([0, 10, 20, 30, 40, 50, 60, 70])
            .expand();
        let open = |done: &BTreeSet<usize>| -> Vec<u32> {
            let mut shards: Vec<u32> = plan_round(&units, done, 3)
                .iter()
                .map(|p| p.shard)
                .collect();
            shards.sort_unstable();
            shards
        };
        let mut done = BTreeSet::new();
        // Shard 1 of 3 over 8 jobs owns {1, 4, 7}.
        assert_eq!(open(&done), [0, 1, 2]);
        done.extend([1, 4]);
        assert_eq!(open(&done), [0, 1, 2]);
        done.insert(7);
        // Complete: gone from the queue; other shards' indices are
        // irrelevant to it.
        assert_eq!(open(&done), [0, 2]);
    }

    /// `requests` innermost, alternating 500/4 000: job `i` costs
    /// 500 when even, 4 000 when odd.
    fn skewed() -> Vec<JobSpec> {
        Campaign::new("skew", 3)
            .read_pcts([0, 25, 50, 100])
            .requests([500, 4_000])
            .expand()
    }

    #[test]
    fn the_queue_is_costliest_first_with_ties_by_shard_number() {
        let units = skewed();
        assert_eq!(units[2].requests, 500);
        assert_eq!(units[3].requests, 4_000);
        let plan = plan_round(&units, &BTreeSet::new(), 4);
        let order: Vec<(u32, u64, usize)> =
            plan.iter().map(|p| (p.shard, p.cost, p.units)).collect();
        // Shards 1 and 3 hold the odd (long) jobs; equal costs keep
        // shard order.
        assert_eq!(
            order,
            [(1, 8_000, 2), (3, 8_000, 2), (0, 1_000, 2), (2, 1_000, 2)]
        );
    }

    #[test]
    fn done_units_leave_the_estimate_and_complete_shards_leave_the_queue() {
        let units = skewed();
        // Shard 1 of 4 = {1, 5}, shard 2 = {2, 6}.
        let done = BTreeSet::from([1, 2, 6]);
        let plan = plan_round(&units, &done, 4);
        let order: Vec<(u32, u64, usize)> =
            plan.iter().map(|p| (p.shard, p.cost, p.units)).collect();
        assert_eq!(order, [(3, 8_000, 2), (1, 4_000, 1), (0, 1_000, 2)]);
        let all: BTreeSet<usize> = (0..units.len()).collect();
        assert!(plan_round(&units, &all, 4).is_empty());
    }

    #[test]
    fn shard_count_is_four_per_healthy_peer_capped_by_jobs() {
        assert_eq!(shard_count(128, 2), 8);
        assert_eq!(shard_count(10, 3), 10);
        assert_eq!(shard_count(2, 3), 2);
        assert_eq!(shard_count(1, 1), 1);
        // An empty campaign still has one (empty) residue class.
        assert_eq!(shard_count(0, 2), 1);
    }

    /// An in-process daemon on an ephemeral TCP port.
    fn spawn_daemon(store: PathBuf) -> String {
        let server = crate::Server::open(crate::ServeConfig::new(store)).expect("open store");
        drop(server.start_scheduler());
        let listener = crate::Listener::bind("127.0.0.1:0").expect("bind");
        let addr = listener.local_addr();
        std::thread::spawn(move || {
            let _ = server.serve(&listener);
        });
        addr
    }

    fn tmp(name: &str) -> PathBuf {
        let d = std::env::temp_dir().join(format!("dramctrl-coord-{}-{name}", std::process::id()));
        let _ = std::fs::remove_dir_all(&d);
        std::fs::create_dir_all(&d).unwrap();
        d
    }

    /// 8 units in 4 shards of 2 on one peer.
    fn small() -> Campaign {
        Campaign::new("coord-faults", 5)
            .read_pcts([0, 10, 25, 40, 50, 60, 75, 100])
            .requests([1_000])
    }

    fn local_jsonl(c: &Campaign) -> String {
        use dramctrl_campaign::{run_campaign, ExecutorConfig};
        run_campaign(c, &ExecutorConfig::serial(), dramctrl_runner::run_job).to_jsonl()
    }

    // The two coordinator-journal faults below are armed with
    // `fsio::fault` rules filtered on this test's own work dir, so they
    // touch no other test's files.

    #[test]
    fn a_failed_journal_sync_fails_the_assignment_and_publishes_nothing() {
        let root = tmp("syncfail-one");
        let addr = spawn_daemon(root.join("store"));
        let c = small();
        let units = c.expand();
        let plan = plan_round(&units, &BTreeSet::new(), 4)[0];
        let a = Assignment {
            plan,
            hedged: false,
            journal: root.join("shard-0of4-r1-p0.jsonl"),
        };
        let cfg = DispatchConfig::new(&root);
        let done = Mutex::new(BTreeSet::new());
        // The file's first fsync is the header's, the second the
        // assignment's one sync.
        let rule = format!("eio,op=fsync,path={}/shard-,at=2", root.display());
        let guard = dramctrl_kernel::fsio::fault::arm_str(&rule).unwrap();
        let Err(fail) = run_assignment(&c, &units, &addr, &a, 4, &cfg, &done) else {
            panic!("the sync fault did not fail the assignment");
        };
        drop(guard);
        assert!(fail.why.starts_with("local journal: "), "{}", fail.why);
        assert!(matches!(fail.verdict, PeerVerdict::Dead));
        assert_eq!((fail.shard, fail.delivered), (plan.shard, 0));
        assert!(lock(&done).is_empty(), "unsynced indices were published");
    }

    #[test]
    fn a_coordinator_sync_failure_costs_a_redispatch_not_a_wrong_report() {
        let root = tmp("syncfail");
        let addr = spawn_daemon(root.join("store"));
        let c = small();
        let cfg = DispatchConfig::new(root.join("work"));
        let rule = format!("eio,op=fsync,path={}/shard-,at=2", cfg.workdir.display());
        let _guard = dramctrl_kernel::fsio::fault::arm_str(&rule).unwrap();
        let (report, stats) = dispatch(&c, &[addr], &cfg).unwrap();
        // Round 1 ended at the first shard's failed sync (the peer's
        // lane stops at a failure); round 2 ran all four shards, the
        // first of them for the second time.
        assert_eq!((stats.shards, stats.rounds), (4, 2));
        assert_eq!((stats.redispatches, stats.peers_lost), (1, 1));
        assert_eq!(report.to_jsonl(), local_jsonl(&c));
    }

    #[test]
    fn a_torn_coordinator_write_is_dropped_by_the_merge_and_refetched() {
        let root = tmp("tornwrite");
        let addr = spawn_daemon(root.join("store"));
        let c = small();
        let cfg = DispatchConfig::new(root.join("work"));
        // Writes to the first shard journal: header, record, record —
        // the second record is written half and fails.
        let rule = format!("short,op=write,path={}/shard-,at=3", cfg.workdir.display());
        let _guard = dramctrl_kernel::fsio::fault::arm_str(&rule).unwrap();
        let (report, stats) = dispatch(&c, &[addr], &cfg).unwrap();
        assert_eq!((stats.rounds, stats.redispatches), (2, 1));
        assert_eq!(report.to_jsonl(), local_jsonl(&c));
        let torn = std::fs::read_to_string(cfg.workdir.join("shard-0of4-r1-p0.jsonl")).unwrap();
        assert_eq!(torn.lines().count(), 3, "header, one record, a torn one");
        assert!(!torn.ends_with('\n'), "the torn line stayed in the file");
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
