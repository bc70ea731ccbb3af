//! The durable job store: an append-only accept log plus one campaign
//! journal per job.
//!
//! Layout under the store root:
//!
//! ```text
//! store/
//!   accept.jsonl            every accepted job, fsync'd before the ack
//!   evicted.jsonl           GC tombstones: jobs whose dirs are deleted
//!   job-0001/
//!     journal.jsonl         the job's CampaignJournal (unit commit log)
//!     unit-000002.stats.json   observed-job artifacts (epochs > 0)
//!     unit-000002.epochs.jsonl
//!     unit-000002.trace.json
//! accept.jsonl line: {"id":"job-0001","tenant":"alice","epochs":0,
//!                     "campaign":{...}}           (optionally "shard":[i,n])
//! evicted.jsonl line: {"id":"job-0001"}
//! ```
//!
//! Commit-point ordering is the whole durability story:
//!
//! 1. **Accept**: the accept line is appended and fsync'd *before* the
//!    job's directory and journal are created and *before* the client
//!    sees `accepted`. A torn accept tail therefore belongs to a job
//!    that was never acknowledged — recovery drops it.
//! 2. **Unit done**: artifacts (if any) are written atomically, then the
//!    unit's record is committed to the job journal (append + fsync),
//!    then subscribers are notified. A crash between artifacts and
//!    commit re-runs the unit; artifacts are overwritten bit-identically.
//!
//! Accept and commit are the *only* durable transitions. Preemption
//! writes nothing: a paused unit lives in the daemon's memory, and a
//! crash re-runs at most the units each job had in flight or had parked
//! (finished, waiting for an earlier unit's commit), never a committed
//! one.
//!
//! Recovery replays the accept log, resumes every job journal (torn
//! tails truncated, keep-first dedup), deletes `unit-*.snap` preemption
//! checkpoints left by older daemons, and re-queues every job with
//! uncommitted units. No accepted job is lost; no committed unit re-runs.
//!
//! Every log here is a [`DurableAppender`] line log, read by its
//! [`read_lines`](DurableAppender::read_lines): an append that failed
//! in a live store — a full disk, a failing fsync — is cut off by that
//! log's next append, so the store needs no repair step of its own.
//!
//! Garbage collection never rewrites the accept log. Evicting a job
//! appends a tombstone to `evicted.jsonl` (fsync'd) *before* deleting
//! the job directory, so a crash between the two leaves a tombstone
//! whose directory [`open`](JobStore::open) lazily removes — an evicted
//! job can never be resurrected and re-run on restart.

use crate::proto::{campaign_from_wire, campaign_to_wire};
use crate::wire::{json_str, Value};
use dramctrl_campaign::Campaign;
use dramctrl_kernel::fsio::DurableAppender;
use std::collections::BTreeSet;
use std::io;
use std::path::{Path, PathBuf};

/// One accepted job, as recorded in the accept log.
#[derive(Debug, Clone)]
pub struct StoredJob {
    /// Stable job id (`job-0001`); also the job's directory name.
    pub id: String,
    /// Submitting tenant (fair scheduling is across tenants).
    pub tenant: String,
    /// Epoch-series interval in ticks; `0` runs unobserved.
    pub epochs: u64,
    /// The work itself.
    pub campaign: Campaign,
    /// Residue-class restriction: run only indices `i` with
    /// `i % shard.1 == shard.0`. `None` runs the full campaign.
    pub shard: Option<(u32, u32)>,
}

/// The durable job store.
#[derive(Debug)]
pub struct JobStore {
    root: PathBuf,
    accept: DurableAppender,
    next_id: u64,
    evicted: BTreeSet<String>,
    /// The tombstone log, once the first eviction has created it.
    tombstones: Option<DurableAppender>,
}

fn corrupt(log: &str, line: usize, why: &str) -> io::Error {
    let why = format!("{log} log line {line} is corrupt: {why}");
    io::Error::new(io::ErrorKind::InvalidData, why)
}

impl JobStore {
    /// Opens (or creates) the store at `root`, returning the store and
    /// every job the accept log records, in acceptance order.
    ///
    /// A torn final line — a crash mid-accept, before any client was
    /// acked — is dropped and truncated away. A corrupt line anywhere
    /// else is a loud error: the store was edited or the disk lied.
    ///
    /// # Errors
    /// I/O errors, or a corrupt accept log.
    pub fn open(root: impl Into<PathBuf>) -> io::Result<(Self, Vec<StoredJob>)> {
        let root = root.into();
        std::fs::create_dir_all(&root)?;
        let (evicted, tombstones) = open_evicted(&root)?;
        let log = root.join("accept.jsonl");
        let mut jobs = Vec::new();
        let accept = if log.exists() {
            let valid_len = DurableAppender::read_lines(&log, |n, line| -> io::Result<()> {
                jobs.push(parse_accept_line(line).map_err(|why| corrupt("accept", n, &why))?);
                Ok(())
            })?;
            // A torn final line was never acked: safe to drop.
            DurableAppender::reopen(&log, valid_len)?
        } else {
            DurableAppender::create(&log)?
        };
        let next_id = jobs
            .iter()
            .filter_map(|j| j.id.strip_prefix("job-")?.parse::<u64>().ok())
            .max()
            .unwrap_or(0)
            + 1;
        // Tombstoned jobs stay in the accept log (it is append-only) but
        // must not be replayed; a crash between tombstone and directory
        // removal is finished here.
        jobs.retain(|j| {
            if evicted.contains(&j.id) {
                let _ = std::fs::remove_dir_all(root.join(&j.id));
                false
            } else {
                true
            }
        });
        let store = Self {
            root,
            accept,
            next_id,
            evicted,
            tombstones,
        };
        Ok((store, jobs))
    }

    /// The store's root directory.
    #[must_use]
    pub fn root(&self) -> &Path {
        &self.root
    }

    /// A job's directory (journal, artifacts).
    #[must_use]
    pub fn job_dir(&self, id: &str) -> PathBuf {
        self.root.join(id)
    }

    /// Durably accepts a job: assigns the next id, appends the accept
    /// line (fsync'd), and creates the job's directory. Only after this
    /// returns may the client be acked — the ordering that makes a
    /// daemon kill between ack and first unit harmless. A residue-class
    /// `shard` restriction is recorded in the accept line, so a
    /// restarted daemon resumes the shard (not the full campaign).
    ///
    /// # Errors
    /// Any I/O error; the job is then *not* accepted, and the next
    /// accept cuts whatever this one left in the log.
    pub fn accept(
        &mut self,
        tenant: &str,
        epochs: u64,
        campaign: &Campaign,
        shard: Option<(u32, u32)>,
    ) -> io::Result<StoredJob> {
        let id = format!("job-{:04}", self.next_id);
        let shard_field = shard.map_or(String::new(), |(i, n)| format!("\"shard\":[{i},{n}],"));
        let line = format!(
            "{{\"id\":{},\"tenant\":{},\"epochs\":{},{}\"campaign\":{}}}",
            json_str(&id),
            json_str(tenant),
            epochs,
            shard_field,
            campaign_to_wire(campaign).encode()
        );
        self.accept.append_line(&line)?;
        self.next_id += 1;
        std::fs::create_dir_all(self.job_dir(&id))?;
        Ok(StoredJob {
            id,
            tenant: tenant.to_owned(),
            epochs,
            campaign: campaign.clone(),
            shard,
        })
    }

    /// Durably evicts a finished job: appends a tombstone to
    /// `evicted.jsonl` (fsync'd) and then deletes the job directory —
    /// journal and artifacts. Tombstone-first ordering means
    /// a crash in between is repaired at the next [`open`](Self::open),
    /// never resurrected. Idempotent for already evicted ids.
    ///
    /// # Errors
    /// Any I/O error writing the tombstone or removing the directory.
    pub fn evict(&mut self, id: &str) -> io::Result<()> {
        if !self.evicted.contains(id) {
            let tombstones = match &mut self.tombstones {
                Some(log) => log,
                None => self
                    .tombstones
                    .insert(DurableAppender::create(self.root.join("evicted.jsonl"))?),
            };
            tombstones.append_line(&format!("{{\"id\":{}}}", json_str(id)))?;
            self.evicted.insert(id.to_owned());
        }
        let dir = self.job_dir(id);
        if dir.exists() {
            std::fs::remove_dir_all(&dir)?;
        }
        Ok(())
    }

    /// How many jobs have been evicted over the store's lifetime.
    #[must_use]
    pub fn evicted_count(&self) -> usize {
        self.evicted.len()
    }

    /// Deletes the `*.snap` preemption checkpoints a pre-resident-run
    /// daemon left in `job_dir`. Nothing reads them any more: a unit
    /// that was in flight at a crash restarts from its first request.
    pub(crate) fn remove_stale_snaps(job_dir: &Path) {
        for entry in std::fs::read_dir(job_dir).into_iter().flatten().flatten() {
            if entry.path().extension().is_some_and(|ext| ext == "snap") {
                let _ = std::fs::remove_file(entry.path());
            }
        }
    }

    /// Path of a unit's artifact with the given extension
    /// (`stats.json`, `epochs.jsonl`, `trace.json`).
    #[must_use]
    pub fn unit_artifact(job_dir: &Path, index: usize, ext: &str) -> PathBuf {
        job_dir.join(format!("unit-{index:06}.{ext}"))
    }
}

fn parse_accept_line(line: &str) -> Result<StoredJob, String> {
    let v = Value::parse(line).map_err(|e| e.to_string())?;
    let id = v
        .get("id")
        .and_then(Value::as_str)
        .ok_or_else(|| "missing 'id'".to_owned())?
        .to_owned();
    let tenant = v
        .get("tenant")
        .and_then(Value::as_str)
        .ok_or_else(|| "missing 'tenant'".to_owned())?
        .to_owned();
    let epochs = v
        .get("epochs")
        .and_then(Value::as_u64)
        .ok_or_else(|| "missing 'epochs'".to_owned())?;
    // Optional, so pre-shard accept logs keep parsing.
    let shard = match v.get("shard") {
        None => None,
        Some(s) => {
            let pair = s
                .as_arr()
                .filter(|a| a.len() == 2)
                .ok_or_else(|| "'shard' must be a [index, count] pair".to_owned())?;
            let num = |i: usize| {
                pair[i]
                    .as_u64()
                    .and_then(|n| u32::try_from(n).ok())
                    .ok_or_else(|| "'shard' members must be u32".to_owned())
            };
            let (idx, n) = (num(0)?, num(1)?);
            if n == 0 || idx >= n {
                return Err(format!("'shard' [{idx},{n}] is out of range"));
            }
            Some((idx, n))
        }
    };
    let campaign = campaign_from_wire(
        v.get("campaign")
            .ok_or_else(|| "missing 'campaign'".to_owned())?,
    )?;
    Ok(StoredJob {
        id,
        tenant,
        epochs,
        campaign,
        shard,
    })
}

/// Opens the eviction tombstone log (if any): the evicted ids, and the
/// log reopened for appends. A torn tail is not a tombstone — it was
/// never fsync-acknowledged, so its job directory is still intact and the
/// job simply survives — and it is cut off here. A complete line that is
/// not a tombstone is a loud error, as in the accept log: skipping it
/// would resurrect a deleted job.
///
/// # Errors
/// I/O errors, or a corrupt tombstone log.
fn open_evicted(root: &Path) -> io::Result<(BTreeSet<String>, Option<DurableAppender>)> {
    let log = root.join("evicted.jsonl");
    let mut out = BTreeSet::new();
    if !log.exists() {
        return Ok((out, None));
    }
    let valid_len = DurableAppender::read_lines(&log, |n, line| -> io::Result<()> {
        let v = Value::parse(line).map_err(|e| corrupt("tombstone", n, &e.to_string()))?;
        let id = v.get("id").and_then(Value::as_str);
        out.insert(
            id.ok_or_else(|| corrupt("tombstone", n, "missing 'id'"))?
                .to_owned(),
        );
        Ok(())
    })?;
    Ok((out, Some(DurableAppender::reopen(&log, valid_len)?)))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tmp(name: &str) -> PathBuf {
        let d = std::env::temp_dir().join(format!("dramctrl-store-{}-{name}", std::process::id()));
        let _ = std::fs::remove_dir_all(&d);
        d
    }

    fn campaign(name: &str) -> Campaign {
        Campaign::new(name, 7).read_pcts([0, 100]).requests([200])
    }

    #[test]
    fn accept_assigns_ids_and_survives_reopen() {
        let root = tmp("reopen");
        let (mut store, jobs) = JobStore::open(&root).unwrap();
        assert!(jobs.is_empty());
        let a = store.accept("alice", 0, &campaign("a"), None).unwrap();
        let b = store
            .accept("bob", 1_000_000, &campaign("b"), None)
            .unwrap();
        assert_eq!(a.id, "job-0001");
        assert_eq!(b.id, "job-0002");
        assert!(store.job_dir(&a.id).is_dir());
        drop(store);

        let (mut store, jobs) = JobStore::open(&root).unwrap();
        assert_eq!(jobs.len(), 2);
        assert_eq!(jobs[0].tenant, "alice");
        assert_eq!(jobs[1].epochs, 1_000_000);
        assert_eq!(jobs[1].campaign.expand(), campaign("b").expand());
        // Ids keep counting, never reuse.
        let c = store.accept("carol", 0, &campaign("c"), None).unwrap();
        assert_eq!(c.id, "job-0003");
    }

    #[test]
    fn torn_accept_tail_is_dropped_and_truncated() {
        let root = tmp("torn");
        let (mut store, _) = JobStore::open(&root).unwrap();
        store.accept("alice", 0, &campaign("a"), None).unwrap();
        drop(store);
        let log = root.join("accept.jsonl");
        let good = std::fs::read_to_string(&log).unwrap();
        std::fs::write(&log, format!("{good}{{\"id\":\"job-00")).unwrap();

        let (mut store, jobs) = JobStore::open(&root).unwrap();
        assert_eq!(jobs.len(), 1, "torn line dropped");
        assert_eq!(std::fs::read_to_string(&log).unwrap(), good, "truncated");
        // The next accept gets the id the torn job never durably claimed.
        assert_eq!(
            store.accept("bob", 0, &campaign("b"), None).unwrap().id,
            "job-0002"
        );
    }

    #[test]
    fn corrupt_interior_line_is_loud() {
        let root = tmp("corrupt");
        let (mut store, _) = JobStore::open(&root).unwrap();
        store.accept("alice", 0, &campaign("a"), None).unwrap();
        drop(store);
        let log = root.join("accept.jsonl");
        let mut text = std::fs::read_to_string(&log).unwrap();
        text.insert_str(0, "{\"id\":\"mangled\"}\n");
        std::fs::write(&log, text).unwrap();
        let err = JobStore::open(&root).unwrap_err();
        assert!(err.to_string().contains("line 1"), "{err}");
    }

    #[test]
    fn an_accept_whose_fsync_failed_is_cut_by_the_next_accept() {
        let root = tmp("fsync-accept");
        let (mut store, _) = JobStore::open(&root).unwrap();
        store.accept("alice", 0, &campaign("a"), None).unwrap();
        let log = root.join("accept.jsonl");
        let good = std::fs::read_to_string(&log).unwrap();
        // The whole line lands, its fsync fails: never acknowledged.
        let spec = format!("eio,op=fsync,path={},at=1", log.display());
        let g = dramctrl_kernel::fsio::fault::arm_str(&spec).unwrap();
        store.accept("bob", 0, &campaign("b"), None).unwrap_err();
        drop(g);
        assert!(std::fs::read_to_string(&log).unwrap().len() > good.len());
        // The next accept cuts it before it appends, so the id the failed
        // accept never claimed is not claimed twice.
        let b = store.accept("bob", 0, &campaign("b"), None).unwrap();
        assert_eq!(b.id, "job-0002");
        let text = std::fs::read_to_string(&log).unwrap();
        assert_eq!(text.matches("job-0002").count(), 1, "{text}");
        let (_, jobs) = JobStore::open(&root).unwrap();
        let ids: Vec<_> = jobs.iter().map(|j| j.id.as_str()).collect();
        assert_eq!(ids, ["job-0001", "job-0002"]);
    }

    #[test]
    fn injected_fault_fails_accept_then_repair_recovers() {
        let root = tmp("fault-accept");
        let (mut store, _) = JobStore::open(&root).unwrap();
        let g = dramctrl_kernel::fsio::fault::arm_str(&format!(
            "short,op=write,path={}",
            root.join("accept.jsonl").to_str().unwrap()
        ))
        .unwrap();
        let err = store.accept("alice", 0, &campaign("a"), None).unwrap_err();
        assert!(err.to_string().contains("short write"), "{err}");
        drop(g);
        // The next accept is the repair: the torn bytes go first, and the
        // store works again.
        let a = store.accept("alice", 0, &campaign("a"), None).unwrap();
        assert_eq!(a.id, "job-0001");
        let (_, jobs) = JobStore::open(&root).unwrap();
        assert_eq!(jobs.len(), 1);
    }

    #[test]
    fn an_accept_line_over_the_unit_cap_is_corrupt_not_an_abort() {
        let root = tmp("over-cap");
        let (mut store, _) = JobStore::open(&root).unwrap();
        let over = Campaign::new("over", 1)
            .read_pcts((0..1_025).map(|i| (i % 101) as u8))
            .requests(1..=1_024);
        // `accept` encodes without decoding: the line a daemon without
        // the cap would have accepted.
        store.accept("alice", 0, &over, None).unwrap();
        drop(store);
        let err = JobStore::open(&root).unwrap_err();
        assert!(
            err.to_string().contains("accept log line 1 is corrupt"),
            "{err}"
        );
    }

    #[test]
    fn shard_round_trips_through_accept_log() {
        let root = tmp("shard");
        let (mut store, _) = JobStore::open(&root).unwrap();
        store.accept("alice", 0, &campaign("a"), None).unwrap();
        let b = store
            .accept("bob", 0, &campaign("b"), Some((2, 3)))
            .unwrap();
        assert_eq!(b.shard, Some((2, 3)));
        drop(store);
        let (_, jobs) = JobStore::open(&root).unwrap();
        assert_eq!(jobs[0].shard, None);
        assert_eq!(jobs[1].shard, Some((2, 3)));
    }

    #[test]
    fn out_of_range_shard_is_corrupt() {
        let root = tmp("shard-bad");
        let (mut store, _) = JobStore::open(&root).unwrap();
        store
            .accept("alice", 0, &campaign("a"), Some((1, 2)))
            .unwrap();
        drop(store);
        let log = root.join("accept.jsonl");
        let text = std::fs::read_to_string(&log)
            .unwrap()
            .replace("\"shard\":[1,2]", "\"shard\":[5,2]");
        std::fs::write(&log, text).unwrap();
        let err = JobStore::open(&root).unwrap_err();
        assert!(err.to_string().contains("out of range"), "{err}");
    }

    #[test]
    fn evicted_jobs_stay_dead_across_reopen() {
        let root = tmp("evict");
        let (mut store, _) = JobStore::open(&root).unwrap();
        let a = store.accept("alice", 0, &campaign("a"), None).unwrap();
        let b = store.accept("bob", 0, &campaign("b"), None).unwrap();
        store.evict(&a.id).unwrap();
        assert!(!store.job_dir(&a.id).exists(), "dir deleted");
        assert!(store.job_dir(&b.id).exists(), "other jobs untouched");
        assert_eq!(store.evicted_count(), 1);
        store.evict(&a.id).unwrap(); // idempotent
        assert_eq!(store.evicted_count(), 1);
        drop(store);

        let (mut store, jobs) = JobStore::open(&root).unwrap();
        assert_eq!(jobs.len(), 1, "tombstoned job not replayed");
        assert_eq!(jobs[0].id, b.id);
        assert_eq!(store.evicted_count(), 1);
        // Ids never reuse: the accept log still remembers job-0001/2.
        let c = store.accept("carol", 0, &campaign("c"), None).unwrap();
        assert_eq!(c.id, "job-0003");
    }

    #[test]
    fn crash_between_tombstone_and_removal_is_repaired_at_open() {
        let root = tmp("evict-crash");
        let (mut store, _) = JobStore::open(&root).unwrap();
        let a = store.accept("alice", 0, &campaign("a"), None).unwrap();
        drop(store);
        // Simulate the crash window: tombstone durably written, dir
        // still on disk.
        std::fs::write(
            root.join("evicted.jsonl"),
            format!("{{\"id\":\"{}\"}}\n", a.id),
        )
        .unwrap();
        assert!(root.join(&a.id).exists());
        let (_, jobs) = JobStore::open(&root).unwrap();
        assert!(jobs.is_empty(), "tombstone wins");
        assert!(!root.join(&a.id).exists(), "leftover dir removed");
    }

    #[test]
    fn a_torn_tombstone_does_not_resurrect_the_next_evicted_job() {
        let root = tmp("evict-torn");
        let (mut store, _) = JobStore::open(&root).unwrap();
        let a = store.accept("alice", 0, &campaign("a"), None).unwrap();
        let b = store.accept("bob", 0, &campaign("b"), None).unwrap();
        drop(store);
        // A tombstone append for `a` that died partway (SIGKILL, ENOSPC):
        // never acknowledged, so `a` survives...
        let log = root.join("evicted.jsonl");
        std::fs::write(&log, "{\"id\":\"job-00").unwrap();
        let (mut store, jobs) = JobStore::open(&root).unwrap();
        assert_eq!(jobs.len(), 2);
        // ...but the next tombstone must not be glued to the torn bytes.
        store.evict(&b.id).unwrap();
        assert_eq!(
            std::fs::read_to_string(&log).unwrap(),
            "{\"id\":\"job-0002\"}\n"
        );
        drop(store);
        let (_, jobs) = JobStore::open(&root).unwrap();
        let ids: Vec<_> = jobs.iter().map(|j| j.id.as_str()).collect();
        assert_eq!(ids, [a.id.as_str()], "an evicted job stays dead");
    }

    #[test]
    fn a_tombstone_append_torn_by_a_fault_is_cut_off_by_the_next_eviction() {
        let root = tmp("evict-fault");
        let (mut store, _) = JobStore::open(&root).unwrap();
        let a = store.accept("alice", 0, &campaign("a"), None).unwrap();
        let b = store.accept("bob", 0, &campaign("b"), None).unwrap();
        let c = store.accept("carol", 0, &campaign("c"), None).unwrap();
        store.evict(&a.id).unwrap();
        let log = root.join("evicted.jsonl");
        let spec = format!("short,op=write,path={},at=1", log.display());
        let guard = dramctrl_kernel::fsio::fault::arm_str(&spec).unwrap();
        let err = store.evict(&b.id).unwrap_err();
        assert!(err.to_string().contains("short write"), "{err}");
        assert!(store.job_dir(&b.id).exists(), "no tombstone, no deletion");
        // The same process evicts again, over the torn bytes.
        store.evict(&c.id).unwrap();
        drop(guard);
        assert_eq!(
            std::fs::read_to_string(&log).unwrap(),
            "{\"id\":\"job-0001\"}\n{\"id\":\"job-0003\"}\n"
        );
        drop(store);
        let (store, jobs) = JobStore::open(&root).unwrap();
        let ids: Vec<_> = jobs.iter().map(|j| j.id.as_str()).collect();
        assert_eq!(ids, [b.id.as_str()], "only the failed eviction's job lives");
        assert_eq!(store.evicted_count(), 2);
    }

    #[test]
    fn a_complete_line_that_is_no_tombstone_is_a_loud_error() {
        let root = tmp("evict-corrupt");
        let (mut store, _) = JobStore::open(&root).unwrap();
        let a = store.accept("alice", 0, &campaign("a"), None).unwrap();
        store.evict(&a.id).unwrap();
        drop(store);
        let log = root.join("evicted.jsonl");
        for garbage in ["{\"id\":\"job-00{\"id\":\"job-0001\"}\n", "{\"job\":1}\n"] {
            std::fs::write(&log, garbage).unwrap();
            let err = JobStore::open(&root).unwrap_err();
            assert_eq!(err.kind(), io::ErrorKind::InvalidData);
            assert!(err.to_string().contains("tombstone log line 1"), "{err}");
        }
    }

    #[test]
    fn unit_paths_are_stable() {
        let dir = Path::new("/store/job-0001");
        assert_eq!(
            JobStore::unit_artifact(dir, 12, "stats.json"),
            Path::new("/store/job-0001/unit-000012.stats.json")
        );
    }
}
