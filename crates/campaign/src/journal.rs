//! The durable campaign journal: a write-ahead record of completed jobs
//! that makes a sweep resumable after a crash or kill.
//!
//! The journal is a JSON-lines file. The first line is a header naming
//! the campaign and carrying a hash of its full specification; every
//! further line is one completed job's record, byte-identical to the
//! line [`CampaignReport::to_jsonl`](crate::CampaignReport::to_jsonl)
//! holds for the same record (the caller renders a line once and hands
//! the same bytes to both). Appends
//! are fsync'd before they return ([`DurableAppender`]), and the append
//! is the executor's *single commit point*: a job only counts as done
//! once its line is on disk. A process dying between a job's artifact
//! writes and its journal append simply re-runs that job on resume —
//! artifacts are overwritten atomically, the journal never double-counts.
//!
//! Resuming tolerates a torn tail (a crash mid-append leaves a partial
//! last line): the partial line is dropped and the file truncated back to
//! the last complete record. A journal written for a *different* campaign
//! specification is rejected loudly via the header hash.

use crate::exec::JobOutcome;
use crate::report::{render_parts, JobMetrics, JobRecord};
use crate::spec::{Campaign, JobSpec};
use dramctrl_kernel::fsio::DurableAppender;
use dramctrl_kernel::json::{escape_into, Value};
use dramctrl_kernel::snap::fingerprint;
use std::collections::btree_map::{BTreeMap, Entry};
use std::fmt::{self, Write as _};
use std::io;
use std::path::{Path, PathBuf};

/// Journal format version; bumped on any header or record layout change.
pub const JOURNAL_VERSION: u32 = 1;

/// Hash of a campaign's complete specification (name, seed and every
/// axis). Two campaigns expand to the same jobs in the same order if and
/// only if their specifications match, so the hash guards a journal
/// against being resumed under a different sweep.
#[must_use]
pub fn campaign_hash(campaign: &Campaign) -> u64 {
    fingerprint(format!("{campaign:?}").as_bytes())
}

/// Why a journal could not be opened for resuming.
#[derive(Debug)]
pub enum JournalError {
    /// The file could not be read or written.
    Io(io::Error),
    /// The file does not start with a journal header.
    NotAJournal,
    /// The journal was written by a different format version.
    Version(u32),
    /// The journal belongs to a different campaign specification.
    SpecMismatch {
        /// Hash of the campaign being resumed.
        expected: u64,
        /// Hash found in the journal header.
        found: u64,
    },
    /// A record line (other than a torn tail) failed to parse.
    Corrupt {
        /// 1-based line number.
        line: usize,
        /// What went wrong.
        why: String,
    },
    /// A merge was asked to produce a complete report but some job
    /// indices appear in none of the journals (a shard has not finished,
    /// or a shard journal was left out of the merge).
    Incomplete {
        /// How many job indices have no record.
        missing: usize,
        /// The lowest missing index, as a concrete pointer.
        first_missing: usize,
        /// Jobs the campaign expands into.
        total: usize,
    },
}

impl fmt::Display for JournalError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            JournalError::Io(e) => write!(f, "journal I/O error: {e}"),
            JournalError::NotAJournal => write!(f, "not a dramctrl campaign journal"),
            JournalError::Version(v) => write!(
                f,
                "journal format version {v} is not the supported version {JOURNAL_VERSION}"
            ),
            JournalError::SpecMismatch { expected, found } => write!(
                f,
                "journal belongs to a different campaign (spec hash {found:#018x}, \
                 this sweep is {expected:#018x}); re-run the original sweep command \
                 line or start a fresh journal"
            ),
            JournalError::Corrupt { line, why } => {
                write!(f, "journal line {line} is corrupt: {why}")
            }
            JournalError::Incomplete {
                missing,
                first_missing,
                total,
            } => write!(
                f,
                "merged journals cover only {}/{total} jobs ({missing} missing, \
                 first missing index {first_missing}); run the remaining shards \
                 or include their journals in the merge",
                total - missing
            ),
        }
    }
}

impl std::error::Error for JournalError {}

impl From<io::Error> for JournalError {
    fn from(e: io::Error) -> Self {
        JournalError::Io(e)
    }
}

/// A write-ahead journal of completed campaign jobs.
///
/// Create one with [`create`](Self::create) for a fresh sweep or
/// [`resume`](Self::resume) to pick up a crashed one, then hand it to
/// [`run_campaign_journaled`](crate::run_campaign_journaled).
#[derive(Debug)]
pub struct CampaignJournal {
    path: PathBuf,
    appender: DurableAppender,
    campaign_name: String,
    completed: BTreeMap<usize, JobOutcome>,
    total: usize,
    dropped_torn_tail: bool,
}

impl CampaignJournal {
    /// Creates a fresh journal at `path` for `campaign`, writing the
    /// durable header line.
    ///
    /// # Errors
    /// Any I/O error from creating or syncing the file.
    pub fn create(path: impl Into<PathBuf>, campaign: &Campaign) -> Result<Self, JournalError> {
        let path = path.into();
        let mut appender = DurableAppender::create(&path)?;
        appender.append_line(&render_header(campaign))?;
        Ok(Self {
            path,
            appender,
            campaign_name: campaign.name.clone(),
            completed: BTreeMap::new(),
            total: campaign.len(),
            dropped_torn_tail: false,
        })
    }

    /// Opens an existing journal at `path` and replays it.
    ///
    /// The header's spec hash must match `campaign`; completed job records
    /// are parsed back (keeping the *first* record for an index, should a
    /// duplicate ever appear) and a torn tail — a crash mid-append — is
    /// dropped, truncating the file back to the last complete record so
    /// new appends start on a clean line boundary.
    ///
    /// # Errors
    /// I/O errors, a missing or mismatching header, or a corrupt record
    /// line that is not the torn tail.
    pub fn resume(path: impl Into<PathBuf>, campaign: &Campaign) -> Result<Self, JournalError> {
        let path = path.into();
        let mut completed = BTreeMap::new();
        let scan = scan_journal(&path, campaign, &campaign.expand(), |i, o, _| {
            keep_first(&mut completed, i, o);
        })?;
        let appender = DurableAppender::reopen(&path, scan.valid_len as u64)?;
        Ok(Self {
            path,
            appender,
            campaign_name: campaign.name.clone(),
            completed,
            total: campaign.len(),
            dropped_torn_tail: scan.dropped_torn_tail,
        })
    }

    /// Opens `path` in whatever state a crash left it: a missing file —
    /// or one whose header line never landed whole (the crash window
    /// between file creation and the header append) — is created fresh;
    /// anything with a durable header resumes normally.
    ///
    /// A header-less file can hold no records, so recreating it loses
    /// nothing. A file whose *complete* first line is not our header is
    /// still refused: that is someone else's data, not a crash artifact.
    ///
    /// # Errors
    /// The same errors as [`create`](Self::create) and
    /// [`resume`](Self::resume), minus the torn-header `NotAJournal`.
    pub fn recover(path: impl Into<PathBuf>, campaign: &Campaign) -> Result<Self, JournalError> {
        let path = path.into();
        if !path.exists() {
            return Self::create(path, campaign);
        }
        match Self::resume(&path, campaign) {
            Err(JournalError::NotAJournal) if !std::fs::read_to_string(&path)?.contains('\n') => {
                Self::create(path, campaign)
            }
            other => other,
        }
    }

    /// Reads a journal without opening it for appends and without
    /// modifying the file: validates the header against `campaign` and
    /// returns the journaled outcomes (keep-first, torn tail ignored).
    ///
    /// This is the read path for merging shard journals and for serving
    /// finished results — the journal may still be live in another
    /// process, so replay must not truncate.
    ///
    /// # Errors
    /// The same validation errors as [`resume`](Self::resume).
    pub fn replay(
        path: impl AsRef<Path>,
        campaign: &Campaign,
    ) -> Result<BTreeMap<usize, JobOutcome>, JournalError> {
        let mut completed = BTreeMap::new();
        scan_journal(path.as_ref(), campaign, &campaign.expand(), |i, o, _| {
            keep_first(&mut completed, i, o);
        })?;
        Ok(completed)
    }

    /// The journal file's path.
    #[must_use]
    pub fn path(&self) -> &Path {
        &self.path
    }

    /// Outcomes already durably journaled, keyed by job index.
    #[must_use]
    pub fn completed(&self) -> &BTreeMap<usize, JobOutcome> {
        &self.completed
    }

    /// Number of jobs the campaign expands into.
    #[must_use]
    pub fn total(&self) -> usize {
        self.total
    }

    /// Whether [`resume`](Self::resume) dropped a torn (partially
    /// written) final line.
    #[must_use]
    pub fn dropped_torn_tail(&self) -> bool {
        self.dropped_torn_tail
    }

    /// Commits one finished job: renders its record line, appends it and
    /// fsyncs — [`commit_line`](Self::commit_line) for a caller that has
    /// no use for the line itself.
    ///
    /// # Errors
    /// As [`commit_line`](Self::commit_line).
    pub fn commit(&mut self, record: &JobRecord) -> io::Result<bool> {
        if self.completed.contains_key(&record.job.index) {
            return Ok(false);
        }
        let line = record.render(&self.campaign_name);
        self.commit_line(record.job.index, &record.outcome, &line)
    }

    /// Commits one finished job whose record line the caller rendered:
    /// appends `line` and fsyncs.
    ///
    /// This is the campaign's single commit point — when it returns
    /// `Ok(true)` the record is on disk and the job will be skipped by any
    /// future resume. Committing an index that is already journaled is a
    /// durable no-op (returns `Ok(false)`), so a record can never be
    /// appended twice.
    ///
    /// `line` must be job `index`'s record with `outcome`, as
    /// [`JobRecord::render`] writes it or [`verify_record_line`] accepted
    /// it; the journal stores those bytes without rendering them again.
    ///
    /// # Errors
    /// Any I/O error from appending or syncing; the record is then *not*
    /// committed and the job must be treated as not done.
    pub fn commit_line(
        &mut self,
        index: usize,
        outcome: &JobOutcome,
        line: &str,
    ) -> io::Result<bool> {
        if self.completed.contains_key(&index) {
            return Ok(false);
        }
        self.appender.append_line(line)?;
        self.completed.insert(index, outcome.clone());
        Ok(true)
    }

    /// Appends one finished job's record line *without* syncing: `line`
    /// is in the file, not yet durable, until [`sync`](Self::sync). An
    /// already-journaled index is skipped (keep-first, as
    /// [`commit_line`](Self::commit_line), whose rule for `line` this
    /// shares) and reads `Ok(false)`.
    ///
    /// # Errors
    /// Any I/O error from appending; the job must be treated as not done.
    pub fn append_deferred(
        &mut self,
        index: usize,
        outcome: &JobOutcome,
        line: &str,
    ) -> io::Result<bool> {
        if self.completed.contains_key(&index) {
            return Ok(false);
        }
        self.appender.append_line_deferred(line)?;
        self.completed.insert(index, outcome.clone());
        Ok(true)
    }

    /// Makes every [`append_deferred`](Self::append_deferred) line
    /// durable with one fsync (none when nothing is pending).
    ///
    /// # Errors
    /// Any I/O error from syncing; the pending lines are then *not*
    /// committed.
    pub fn sync(&mut self) -> io::Result<()> {
        self.appender.commit_batch()
    }

    /// Commits a batch of finished jobs with one fsync: every
    /// `(index, outcome, line)` is
    /// [`append_deferred`](Self::append_deferred), then a single
    /// [`sync`](Self::sync) is the whole batch's commit point; the
    /// journal's bytes are exactly what the same records committed
    /// one-by-one would have written.
    ///
    /// A process killed mid-batch (after some appends, before the sync)
    /// leaves complete record lines plus at most one torn tail —
    /// [`resume`](Self::resume) replays the prefix and re-runs the rest.
    ///
    /// Returns how many records were newly appended.
    ///
    /// # Errors
    /// Any I/O error from appending or syncing; the batch is then *not*
    /// committed (some lines may be on disk, which resume handles as
    /// above) and its jobs must be treated as not done.
    pub fn commit_batch<'a, I>(&mut self, records: I) -> io::Result<usize>
    where
        I: IntoIterator<Item = (usize, &'a JobOutcome, &'a str)>,
    {
        let mut appended = 0;
        for (index, outcome, line) in records {
            appended += usize::from(self.append_deferred(index, outcome, line)?);
        }
        self.sync()?;
        Ok(appended)
    }
}

/// Keep-first: the earliest durable record for an index wins.
fn keep_first(completed: &mut BTreeMap<usize, JobOutcome>, index: usize, outcome: JobOutcome) {
    completed.entry(index).or_insert(outcome);
}

/// Where a validating read of a journal file stopped.
struct JournalScan {
    /// Bytes up to and including the last complete record line.
    valid_len: usize,
    dropped_torn_tail: bool,
}

/// The header line [`CampaignJournal::create`] writes for `campaign`.
fn render_header(campaign: &Campaign) -> String {
    let mut h =
        format!("{{\"journal\":\"dramctrl-campaign\",\"version\":{JOURNAL_VERSION},\"name\":");
    escape_into(&campaign.name, &mut h);
    write!(
        h,
        ",\"spec_hash\":\"{:#018x}\",\"total\":{}}}",
        campaign_hash(campaign),
        campaign.len()
    )
    .expect("writing to a String cannot fail");
    h
}

/// Reads and validates a journal file against `campaign` (whose
/// expansion is `jobs`) without modifying it: header checks, record
/// replay, torn-tail detection. Every complete line must be byte-for-byte
/// what this campaign's writer would have written; each one is handed to
/// `record` as `(index, outcome, line)` in file order, duplicates
/// included, for the caller to keep first. Shared by
/// [`CampaignJournal::resume`] (which then truncates and reopens for
/// append) and the read-only paths ([`CampaignJournal::replay`],
/// [`merge_journals`]).
fn scan_journal(
    path: &Path,
    campaign: &Campaign,
    jobs: &[JobSpec],
    mut record: impl FnMut(usize, JobOutcome, &str),
) -> Result<JournalScan, JournalError> {
    let text = std::fs::read_to_string(path)?;
    let mut lines = text.split_inclusive('\n');

    let header = lines.next().ok_or(JournalError::NotAJournal)?;
    if !header.ends_with('\n') {
        // Even the header never made it to disk whole.
        return Err(JournalError::NotAJournal);
    }
    let (version, spec_hash) =
        parse_header(header.trim_end_matches('\n')).ok_or(JournalError::NotAJournal)?;
    if version != JOURNAL_VERSION {
        return Err(JournalError::Version(version));
    }
    let expected = campaign_hash(campaign);
    if spec_hash != expected {
        return Err(JournalError::SpecMismatch {
            expected,
            found: spec_hash,
        });
    }
    if header.trim_end_matches('\n') != render_header(campaign) {
        return Err(JournalError::Corrupt {
            line: 1,
            why: format!(
                "header is not the one this campaign of {} jobs writes",
                jobs.len()
            ),
        });
    }

    let mut valid_len = header.len();
    let mut dropped_torn_tail = false;
    for (i, line) in lines.enumerate() {
        if !line.ends_with('\n') {
            // Torn tail: the process died mid-append. Drop it.
            dropped_torn_tail = true;
            break;
        }
        let line_bytes = line.trim_end_matches('\n');
        let (index, outcome) = verify_record_line(line_bytes, &campaign.name, jobs)
            .map_err(|why| JournalError::Corrupt { line: i + 2, why })?;
        record(index, outcome, line_bytes);
        valid_len = valid_len.saturating_add(line.len());
    }
    Ok(JournalScan {
        valid_len,
        dropped_torn_tail,
    })
}

/// Merges shard journals for one campaign into a complete
/// [`CampaignReport`](crate::CampaignReport).
///
/// Every journal is validated against `campaign` (header hash, version,
/// total) and replayed read-only; outcomes are unioned keep-first in
/// `paths` order, matching the single-journal dedup rule. The merged
/// report's [`to_jsonl`](crate::CampaignReport::to_jsonl) is
/// byte-identical to an unsharded run's, because records are keyed by
/// job index and each job's result depends only on its spec — never on
/// which shard ran it. The report keeps the lines the journals hold:
/// validating a line renders it once, and nothing renders it again.
/// Host-dependent fields (`workers`, `wall_secs`) are zeroed: a merge is
/// not a run.
///
/// # Errors
/// Any per-journal validation error, or [`JournalError::Incomplete`] if
/// the union does not cover every job index.
pub fn merge_journals(
    campaign: &Campaign,
    paths: &[impl AsRef<Path>],
) -> Result<crate::CampaignReport, JournalError> {
    let jobs = campaign.expand();
    // The first validated line per index, its bytes in one buffer.
    let mut lines = String::new();
    let mut merged: BTreeMap<usize, (JobOutcome, std::ops::Range<usize>)> = BTreeMap::new();
    for path in paths {
        scan_journal(path.as_ref(), campaign, &jobs, |index, outcome, line| {
            if let Entry::Vacant(slot) = merged.entry(index) {
                let start = lines.len();
                lines.push_str(line);
                slot.insert((outcome, start..lines.len()));
            }
        })?;
    }
    let missing: Vec<usize> = (0..jobs.len())
        .filter(|i| !merged.contains_key(i))
        .collect();
    if let Some(&first_missing) = missing.first() {
        return Err(JournalError::Incomplete {
            missing: missing.len(),
            first_missing,
            total: jobs.len(),
        });
    }
    let mut jsonl = String::with_capacity(lines.len() + jobs.len());
    let records = jobs
        .into_iter()
        .map(|job| {
            let (outcome, at) = merged
                .remove(&job.index)
                .expect("missing indices were rejected above");
            jsonl.push_str(&lines[at]);
            jsonl.push('\n');
            JobRecord { job, outcome }
        })
        .collect();
    Ok(crate::CampaignReport::with_lines(
        campaign.name.clone(),
        campaign.seed,
        0,
        0.0,
        records,
        jsonl,
    ))
}

/// Parses the header line, returning `(version, spec_hash)`.
fn parse_header(line: &str) -> Option<(u32, u64)> {
    let v = Value::parse(line).ok()?;
    if v.get("journal")?.as_str()? != "dramctrl-campaign" {
        return None;
    }
    let version = u32::try_from(v.get("version")?.as_u64()?).ok()?;
    let hex = v.get("spec_hash")?.as_str()?.strip_prefix("0x")?;
    Some((version, u64::from_str_radix(hex, 16).ok()?))
}

/// Parses one record line and proves it is exactly what the campaign
/// writes for that job: the index is in range, and re-rendering the
/// parsed outcome against `jobs[index]` reproduces `line` byte for byte
/// — which checks every spec field (seed, axes, campaign name), exactly
/// as a spec-hash check would, at record granularity.
///
/// This is the validation primitive for record lines from anywhere — a
/// journal on disk, or a peer's stream in the dispatch coordinator, so a
/// lying peer (wrong spec, foreign campaign, out-of-range index) is
/// caught before anything reaches a journal.
///
/// # Errors
/// A description of the first violation.
pub fn verify_record_line(
    line: &str,
    campaign_name: &str,
    jobs: &[JobSpec],
) -> Result<(usize, JobOutcome), String> {
    let (index, outcome) = parse_record_line(line)?;
    let job = jobs.get(index).ok_or_else(|| {
        format!(
            "job index {index} out of range (the campaign has {} jobs)",
            jobs.len()
        )
    })?;
    if render_parts(campaign_name, job, &outcome) != line {
        return Err(format!(
            "record bytes diverge from the campaign's own rendering of job {index}"
        ));
    }
    Ok((index, outcome))
}

/// Extracts `(job index, outcome)` from one record line. Metric values
/// round-trip exactly because the renderer uses Rust's shortest
/// round-trip float formatting; `null` reads back as NaN.
fn parse_record_line(line: &str) -> Result<(usize, JobOutcome), String> {
    let v = Value::parse(line).map_err(|e| e.to_string())?;
    let field = |key: &str| v.get(key).ok_or_else(|| format!("no {key:?} field"));
    let index = field("job")?
        .as_u64()
        .and_then(|i| usize::try_from(i).ok())
        .ok_or("bad job index")?;
    let attempts = field("attempts")?
        .as_u64()
        .and_then(|a| u32::try_from(a).ok())
        .ok_or("bad attempts")?;
    let outcome = match field("outcome")?.as_str() {
        Some("ok") => {
            let Value::Obj(fields) = field("metrics")? else {
                return Err("metrics is not an object".to_owned());
            };
            let mut metrics = JobMetrics::new();
            for (name, value) in fields {
                let value = match value {
                    Value::Null => f64::NAN,
                    v => v
                        .as_f64()
                        .ok_or_else(|| format!("bad metric value for {name:?}"))?,
                };
                metrics.set(name.clone(), value);
            }
            JobOutcome::Completed { metrics, attempts }
        }
        Some("failed") => JobOutcome::Failed {
            panic_msg: field("panic_msg")?
                .as_str()
                .ok_or("panic_msg is not a string")?
                .to_owned(),
            attempts,
        },
        _ => return Err("outcome is neither \"ok\" nor \"failed\"".to_owned()),
    };
    Ok((index, outcome))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::spec::Campaign;

    fn tmp(name: &str) -> PathBuf {
        let d = std::env::temp_dir().join(format!("dramctrl-journal-{}", std::process::id()));
        std::fs::create_dir_all(&d).unwrap();
        d.join(name)
    }

    fn campaign() -> Campaign {
        Campaign::new("journal-test", 11).read_pcts([0, 50, 100])
    }

    fn record(c: &Campaign, index: usize) -> JobRecord {
        let job = c.expand()[index].clone();
        JobRecord {
            job,
            outcome: JobOutcome::Completed {
                metrics: JobMetrics::new()
                    .with("bus_util", 0.625)
                    .with("weird \"name\"", f64::NAN),
                attempts: 1,
            },
        }
    }

    #[test]
    fn create_commit_resume_round_trip() {
        let p = tmp("round.jsonl");
        let c = campaign();
        let mut j = CampaignJournal::create(&p, &c).unwrap();
        assert!(j.commit(&record(&c, 1)).unwrap());
        assert!(j.commit(&record(&c, 0)).unwrap());
        drop(j);

        let j = CampaignJournal::resume(&p, &c).unwrap();
        assert_eq!(j.total(), 3);
        assert!(!j.dropped_torn_tail());
        assert_eq!(
            j.completed().keys().copied().collect::<Vec<_>>(),
            vec![0, 1]
        );
        // Metrics survive the round trip, non-finite values as NaN.
        let JobOutcome::Completed { metrics, attempts } = &j.completed()[&1] else {
            panic!("expected completed");
        };
        assert_eq!(*attempts, 1);
        assert_eq!(metrics.get("bus_util"), Some(0.625));
        assert!(metrics.get("weird \"name\"").unwrap().is_nan());
    }

    #[test]
    fn commit_is_the_single_append_point() {
        let p = tmp("dedup.jsonl");
        let c = campaign();
        let mut j = CampaignJournal::create(&p, &c).unwrap();
        assert!(j.commit(&record(&c, 2)).unwrap(), "first commit appends");
        assert!(!j.commit(&record(&c, 2)).unwrap(), "second is a no-op");
        drop(j);
        let text = std::fs::read_to_string(&p).unwrap();
        assert_eq!(text.lines().count(), 2, "header + exactly one record");
        // And a resumed journal refuses the double append just the same.
        let mut j = CampaignJournal::resume(&p, &c).unwrap();
        assert!(!j.commit(&record(&c, 2)).unwrap());
    }

    #[test]
    fn journaled_lines_match_report_lines_byte_for_byte() {
        let p = tmp("bytes.jsonl");
        let c = campaign();
        let mut j = CampaignJournal::create(&p, &c).unwrap();
        let failed = JobRecord {
            job: c.expand()[0].clone(),
            outcome: JobOutcome::Failed {
                panic_msg: "boom \"quoted\"\nline2".to_owned(),
                attempts: 2,
            },
        };
        j.commit(&failed).unwrap();
        j.commit(&record(&c, 1)).unwrap();
        drop(j);
        let text = std::fs::read_to_string(&p).unwrap();
        let mut lines = text.lines().skip(1);
        assert_eq!(lines.next().unwrap(), failed.render("journal-test"));
        assert_eq!(lines.next().unwrap(), record(&c, 1).render("journal-test"));
        // Failed outcomes round-trip through resume too.
        let j = CampaignJournal::resume(&p, &c).unwrap();
        assert_eq!(j.completed()[&0], failed.outcome);
    }

    #[test]
    fn torn_tail_is_dropped_and_truncated() {
        let p = tmp("torn.jsonl");
        let c = campaign();
        let mut j = CampaignJournal::create(&p, &c).unwrap();
        j.commit(&record(&c, 0)).unwrap();
        drop(j);
        let good = std::fs::read_to_string(&p).unwrap();
        // Simulate a crash mid-append: half a record, no newline.
        let full_line = record(&c, 1).render("journal-test");
        std::fs::write(&p, format!("{good}{}", &full_line[..full_line.len() / 2])).unwrap();

        let mut j = CampaignJournal::resume(&p, &c).unwrap();
        assert!(j.dropped_torn_tail());
        assert_eq!(j.completed().len(), 1);
        // The torn bytes are gone and new appends land on a clean line.
        j.commit(&record(&c, 1)).unwrap();
        drop(j);
        let text = std::fs::read_to_string(&p).unwrap();
        assert_eq!(text.lines().count(), 3);
        assert!(text.ends_with('\n'));
        let j = CampaignJournal::resume(&p, &c).unwrap();
        assert_eq!(j.completed().len(), 2);
    }

    #[test]
    fn duplicate_index_keeps_first() {
        let p = tmp("dup.jsonl");
        let c = campaign();
        let mut j = CampaignJournal::create(&p, &c).unwrap();
        j.commit(&record(&c, 0)).unwrap();
        drop(j);
        // Hand-append a second record for the same index with different
        // metrics; the first (earliest durable) record must win.
        let mut second = record(&c, 0);
        second.outcome = JobOutcome::Completed {
            metrics: JobMetrics::new().with("bus_util", 0.0),
            attempts: 9,
        };
        let mut f = std::fs::OpenOptions::new().append(true).open(&p).unwrap();
        use std::io::Write as _;
        writeln!(f, "{}", second.render("journal-test")).unwrap();
        drop(f);
        let j = CampaignJournal::resume(&p, &c).unwrap();
        let JobOutcome::Completed { metrics, attempts } = &j.completed()[&0] else {
            panic!("expected completed");
        };
        assert_eq!(metrics.get("bus_util"), Some(0.625), "first record wins");
        assert_eq!(*attempts, 1);
    }

    #[test]
    fn wrong_campaign_is_rejected_loudly() {
        let p = tmp("mismatch.jsonl");
        let c = campaign();
        CampaignJournal::create(&p, &c).unwrap();
        let other = Campaign::new("journal-test", 11).read_pcts([0, 50]);
        match CampaignJournal::resume(&p, &other) {
            Err(JournalError::SpecMismatch { expected, found }) => {
                assert_ne!(expected, found);
            }
            other => panic!("expected SpecMismatch, got {other:?}"),
        }
        // Same axes, different seed: also a different campaign.
        let reseeded = Campaign::new("journal-test", 12).read_pcts([0, 50, 100]);
        assert!(matches!(
            CampaignJournal::resume(&p, &reseeded),
            Err(JournalError::SpecMismatch { .. })
        ));
    }

    #[test]
    fn merge_overlapping_partial_shards_keeps_first_byte_identically() {
        let c = campaign(); // 3 jobs
                            // A full single journal is the byte-identity reference.
        let full = tmp("merge-full.jsonl");
        let mut j = CampaignJournal::create(&full, &c).unwrap();
        for i in 0..3 {
            j.commit(&record(&c, i)).unwrap();
        }
        drop(j);
        let reference = merge_journals(&c, &[&full]).unwrap();

        // Shard A covers {0, 1}; shard B overlaps on 1 (with a
        // *different* outcome — a re-dispatched shard re-ran the job
        // with more attempts) and adds 2.
        let a = tmp("merge-a.jsonl");
        let mut j = CampaignJournal::create(&a, &c).unwrap();
        j.commit(&record(&c, 0)).unwrap();
        j.commit(&record(&c, 1)).unwrap();
        drop(j);
        let b = tmp("merge-b.jsonl");
        let mut j = CampaignJournal::create(&b, &c).unwrap();
        let mut dup = record(&c, 1);
        dup.outcome = JobOutcome::Completed {
            metrics: JobMetrics::new().with("bus_util", 0.999),
            attempts: 2,
        };
        j.commit(&dup).unwrap();
        j.commit(&record(&c, 2)).unwrap();
        drop(j);

        let merged = merge_journals(&c, &[&a, &b]).unwrap();
        assert_eq!(
            merged.to_jsonl(),
            reference.to_jsonl(),
            "keep-first must pick shard A's record for the overlap"
        );
        // Path order decides the winner: B first surfaces B's duplicate.
        let swapped = merge_journals(&c, &[&b, &a]).unwrap();
        assert_ne!(swapped.to_jsonl(), reference.to_jsonl());
    }

    #[test]
    fn merge_refuses_a_foreign_spec_hash() {
        let c = campaign();
        let mine = tmp("merge-mine.jsonl");
        let mut j = CampaignJournal::create(&mine, &c).unwrap();
        for i in 0..3 {
            j.commit(&record(&c, i)).unwrap();
        }
        drop(j);
        // Same name and job count, different seed: the spec hash (and
        // every per-job seed) differs, so merging would fabricate
        // results. The refusal must be loud, not a silent skip.
        let foreign_campaign = Campaign::new("journal-test", 12).read_pcts([0, 50, 100]);
        let foreign = tmp("merge-foreign.jsonl");
        let mut j = CampaignJournal::create(&foreign, &foreign_campaign).unwrap();
        j.commit(&JobRecord {
            job: foreign_campaign.expand()[0].clone(),
            outcome: JobOutcome::Completed {
                metrics: JobMetrics::new(),
                attempts: 1,
            },
        })
        .unwrap();
        drop(j);
        assert!(matches!(
            merge_journals(&c, &[&mine, &foreign]),
            Err(JournalError::SpecMismatch { .. })
        ));
    }

    #[test]
    fn merge_accepts_an_empty_but_headered_shard() {
        let c = campaign();
        let full = tmp("merge-full2.jsonl");
        let mut j = CampaignJournal::create(&full, &c).unwrap();
        for i in 0..3 {
            j.commit(&record(&c, i)).unwrap();
        }
        drop(j);
        // A shard whose peer never committed anything before dying:
        // valid journal, zero contribution.
        let empty = tmp("merge-empty.jsonl");
        drop(CampaignJournal::create(&empty, &c).unwrap());

        let reference = merge_journals(&c, &[&full]).unwrap();
        let merged = merge_journals(&c, &[&empty, &full]).unwrap();
        assert_eq!(merged.to_jsonl(), reference.to_jsonl());

        // And alone, it is Incomplete — every job missing — never a
        // truncated report.
        match merge_journals(&c, &[&empty]) {
            Err(JournalError::Incomplete {
                missing,
                first_missing,
                total,
            }) => {
                assert_eq!((missing, first_missing, total), (3, 0, 3));
            }
            other => panic!("expected Incomplete, got {other:?}"),
        }
    }

    #[test]
    fn parse_record_line_round_trips_and_rejects_garbage() {
        let c = campaign();
        let rec = record(&c, 1);
        let line = rec.render(&c.name);
        let (index, outcome) = parse_record_line(&line).unwrap();
        assert_eq!(index, 1);
        // Re-rendering the parsed outcome against the local spec is the
        // coordinator's byte-level validation of streamed records.
        let rebuilt = JobRecord {
            job: c.expand()[index].clone(),
            outcome,
        };
        assert_eq!(rebuilt.render(&c.name), line);
        assert_eq!(
            verify_record_line(&line, &c.name, &c.expand()).unwrap().0,
            1
        );
        // Spec fields that lie (another seed) still parse, but the line
        // is not the one this campaign writes.
        let forged = line.replacen("\"seed\":", "\"seed\":1", 1);
        assert!(parse_record_line(&forged).is_ok());
        let err = verify_record_line(&forged, &c.name, &c.expand()).unwrap_err();
        assert!(err.contains("diverge"), "{err}");
        assert!(parse_record_line("{\"event\":\"record\"}").is_err());
        assert!(parse_record_line("").is_err());
    }

    #[test]
    fn non_journal_and_corrupt_files_are_rejected() {
        let p = tmp("bogus.jsonl");
        std::fs::write(&p, "{\"not\":\"a journal\"}\n").unwrap();
        assert!(matches!(
            CampaignJournal::resume(&p, &campaign()),
            Err(JournalError::NotAJournal)
        ));
        // A corrupt line that is *not* the torn tail is an error, not a
        // silent skip: it means the file was edited or the disk lied.
        let p2 = tmp("corrupt.jsonl");
        let c = campaign();
        let mut j = CampaignJournal::create(&p2, &c).unwrap();
        j.commit(&record(&c, 0)).unwrap();
        drop(j);
        let mut text = std::fs::read_to_string(&p2).unwrap();
        text.push_str("{\"campaign\":\"mangled\n");
        text.push_str(&record(&c, 1).render("journal-test"));
        text.push('\n');
        std::fs::write(&p2, text).unwrap();
        assert!(matches!(
            CampaignJournal::resume(&p2, &c),
            Err(JournalError::Corrupt { line: 3, .. })
        ));
    }

    #[test]
    fn out_of_range_index_is_corrupt() {
        let p = tmp("range.jsonl");
        let c = campaign();
        CampaignJournal::create(&p, &c).unwrap();
        // A record from a bigger campaign that happens to share a prefix.
        let big = Campaign::new("journal-test", 11).read_pcts(0..100);
        let mut text = std::fs::read_to_string(&p).unwrap();
        text.push_str(&record(&big, 50).render("journal-test"));
        text.push('\n');
        std::fs::write(&p, text).unwrap();
        assert!(matches!(
            CampaignJournal::resume(&p, &c),
            Err(JournalError::Corrupt { line: 2, .. })
        ));
    }

    #[test]
    fn campaign_hash_is_sensitive_to_every_axis() {
        let base = campaign();
        let h = campaign_hash(&base);
        assert_eq!(h, campaign_hash(&campaign()), "deterministic");
        assert_ne!(h, campaign_hash(&base.clone().read_pcts([0, 50])));
        assert_ne!(h, campaign_hash(&base.clone().channels([2])));
        assert_ne!(h, campaign_hash(&base.clone().error_rates([1e11])));
        assert_ne!(
            h,
            campaign_hash(&Campaign::new("journal-test", 12).read_pcts([0, 50, 100]))
        );
    }
}
