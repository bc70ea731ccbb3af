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
//! the last complete record. A live journal whose append or sync failed
//! forgets the records no sync covered, and its next append cuts their
//! bytes off ([`DurableAppender`]'s rule). A journal written for a
//! *different* campaign specification is rejected loudly via the header
//! hash.

use crate::exec::JobOutcome;
use crate::report::{render_parts, JobMetrics, JobRecord, Lines};
use crate::spec::{Campaign, JobSpec};
use dramctrl_kernel::fsio::DurableAppender;
use dramctrl_kernel::json::{escape_into, Value};
use dramctrl_kernel::snap::fingerprint;
use std::borrow::Cow;
use std::fmt::{self, Write as _};
use std::io;
use std::ops::Range;
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

/// The validated record lines of a journal, or of several merged: one
/// per job index — the first line read for it — in job index order.
///
/// These bytes are a record's only copy once it is read back:
/// [`CampaignJournal::take_lines`] hands the lines a resume read to the
/// executor, which splices them into its report, and the daemon replays
/// them to its watchers. No outcome is kept beside them.
#[derive(Debug, Clone, Default)]
pub struct JournalLines {
    /// The lines' bytes, in the order they were read, without newlines.
    text: String,
    /// Where each index's line is, sorted by index.
    entries: Vec<LineAt>,
    /// How many of the lines are failed records.
    failed: usize,
}

#[derive(Debug, Clone)]
struct LineAt {
    index: usize,
    at: Range<usize>,
    failed: bool,
}

/// One line of [`JournalLines`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct JournalLine<'a> {
    /// The job index the record is of.
    pub index: usize,
    /// Whether the record is a failed job's.
    pub failed: bool,
    /// The record's bytes, without a newline.
    pub line: &'a str,
}

impl JournalLines {
    /// Number of records (one per index).
    #[must_use]
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Whether there is no record.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Number of failed records.
    #[must_use]
    pub fn failed(&self) -> usize {
        self.failed
    }

    /// The records, in job index order.
    pub fn iter(&self) -> impl Iterator<Item = JournalLine<'_>> + '_ {
        self.entries.iter().map(|e| self.line_of(e))
    }

    /// The record line of job `index`, if there is one.
    #[must_use]
    pub fn get(&self, index: usize) -> Option<&str> {
        let k = self
            .entries
            .binary_search_by_key(&index, |e| e.index)
            .ok()?;
        Some(self.line_of(&self.entries[k]).line)
    }

    /// Adds job `index`'s record `line` unless the index has one
    /// already (keep-first), keeping index order; returns whether it was
    /// added. For records that arrive one at a time, about in order.
    pub fn insert(&mut self, index: usize, failed: bool, line: &str) -> bool {
        let Err(k) = self.entries.binary_search_by_key(&index, |e| e.index) else {
            return false;
        };
        let at = self.append_text(line);
        self.entries.insert(k, LineAt { index, at, failed });
        self.failed += usize::from(failed);
        true
    }

    /// The `k`-th record in index order.
    pub(crate) fn nth(&self, k: usize) -> Option<JournalLine<'_>> {
        self.entries.get(k).map(|e| self.line_of(e))
    }

    fn line_of(&self, e: &LineAt) -> JournalLine<'_> {
        JournalLine {
            index: e.index,
            failed: e.failed,
            line: &self.text[e.at.clone()],
        }
    }

    fn append_text(&mut self, line: &str) -> Range<usize> {
        let start = self.text.len();
        self.text.push_str(line);
        start..self.text.len()
    }

    /// Adds a line read from a journal, in any order and duplicates
    /// included; [`sort_keep_first`](Self::sort_keep_first) orders them.
    fn push_unsorted(&mut self, index: usize, failed: bool, line: &str) {
        let at = self.append_text(line);
        self.entries.push(LineAt { index, at, failed });
    }

    /// Sorts the pushed lines by index and keeps the first pushed for
    /// each. A duplicate's bytes stay in `text`: duplicates are the rare
    /// crash-and-re-dispatch case.
    fn sort_keep_first(&mut self) {
        // Stable: among equal indices, push order survives the sort.
        self.entries.sort_by_key(|e| e.index);
        self.entries.dedup_by_key(|e| e.index);
        self.failed = self.entries.iter().filter(|e| e.failed).count();
    }
}

/// A write-ahead journal of completed campaign jobs.
///
/// Create one with [`create`](Self::create) for a fresh sweep or
/// [`resume`](Self::resume) to pick up a crashed one, then hand it to
/// [`run_campaign_journaled`](crate::run_campaign_journaled).
///
/// The journal keeps which jobs are committed and how many failed, and
/// no copy of their results: the record lines are in the file, and a
/// resume hands the ones it read over ([`take_lines`](Self::take_lines)).
#[derive(Debug)]
pub struct CampaignJournal {
    path: PathBuf,
    appender: DurableAppender,
    campaign: Campaign,
    total: usize,
    /// Bit `i` set iff job `i` is committed (or appended and awaiting
    /// its sync).
    committed: Vec<u64>,
    count: usize,
    failed: usize,
    /// Jobs appended since the last sync, and whether each failed:
    /// committed until an append or sync fails, when the appender cuts
    /// their lines.
    pending: Vec<(usize, bool)>,
    /// The lines [`resume`](Self::resume) read, until taken.
    resumed: Option<JournalLines>,
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
        Ok(Self::opened(path, appender, campaign, None, false))
    }

    /// Opens an existing journal at `path` and replays it.
    ///
    /// The header's spec hash must match `campaign`; every complete
    /// record line is validated (keeping the *first* record for an
    /// index, should a duplicate ever appear) and kept for
    /// [`take_lines`](Self::take_lines), and a torn tail — a crash
    /// mid-append — is dropped, truncating the file back to the last
    /// complete record so new appends start on a clean line boundary.
    ///
    /// # Errors
    /// I/O errors, a missing or mismatching header, or a corrupt record
    /// line that is not the torn tail.
    pub fn resume(path: impl Into<PathBuf>, campaign: &Campaign) -> Result<Self, JournalError> {
        Self::reopen(path.into(), campaign)?.ok_or(JournalError::NotAJournal)
    }

    /// [`resume`](Self::resume), or `None` when not even the header line
    /// is complete.
    fn reopen(path: PathBuf, campaign: &Campaign) -> Result<Option<Self>, JournalError> {
        let mut lines = JournalLines::default();
        let scan = scan_journal(&path, campaign, |i, failed, line| {
            lines.push_unsorted(i, failed, line);
        })?;
        let Some(valid_len) = scan else {
            return Ok(None);
        };
        lines.sort_keep_first();
        let dropped_torn_tail = std::fs::metadata(&path)?.len() > valid_len;
        let appender = DurableAppender::reopen(&path, valid_len)?;
        Ok(Some(Self::opened(
            path,
            appender,
            campaign,
            Some(lines),
            dropped_torn_tail,
        )))
    }

    fn opened(
        path: PathBuf,
        appender: DurableAppender,
        campaign: &Campaign,
        resumed: Option<JournalLines>,
        dropped_torn_tail: bool,
    ) -> Self {
        let total = campaign.len();
        let mut journal = Self {
            path,
            appender,
            campaign: campaign.clone(),
            total,
            committed: vec![0; total.div_ceil(64)],
            count: 0,
            failed: 0,
            pending: Vec::new(),
            resumed: None,
            dropped_torn_tail,
        };
        for l in resumed.iter().flat_map(JournalLines::iter) {
            journal.mark(l.index, l.failed);
        }
        journal.resumed = resumed;
        journal
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
        if path.exists() {
            if let Some(journal) = Self::reopen(path.clone(), campaign)? {
                return Ok(journal);
            }
        }
        Self::create(path, campaign)
    }

    /// Reads a journal without opening it for appends and without
    /// modifying the file: validates the header against `campaign` and
    /// returns the journaled record lines (keep-first, torn tail
    /// ignored).
    ///
    /// This is the read path for serving finished results — the journal
    /// may still be live in another process, so replay must not
    /// truncate.
    ///
    /// # Errors
    /// The same validation errors as [`resume`](Self::resume).
    pub fn replay(
        path: impl AsRef<Path>,
        campaign: &Campaign,
    ) -> Result<JournalLines, JournalError> {
        let mut lines = JournalLines::default();
        scan_journal(path.as_ref(), campaign, |i, failed, line| {
            lines.push_unsorted(i, failed, line);
        })?
        .ok_or(JournalError::NotAJournal)?;
        lines.sort_keep_first();
        Ok(lines)
    }

    /// The committed records' lines: the ones [`resume`](Self::resume)
    /// read, handed over once and not copied. A journal that has
    /// committed records through this handle since, or whose lines were
    /// taken already, reads them back from its file.
    ///
    /// # Errors
    /// The validation errors of [`replay`](Self::replay), when the lines
    /// are read back.
    pub fn take_lines(&mut self) -> Result<JournalLines, JournalError> {
        match self.resumed.take() {
            Some(lines) if lines.len() == self.count => Ok(lines),
            _ if self.count == 0 => Ok(JournalLines::default()),
            _ => {
                let mut lines = JournalLines::default();
                scan_journal(&self.path, &self.campaign, |i, failed, line| {
                    if self.is_committed(i) {
                        lines.push_unsorted(i, failed, line);
                    }
                })?
                .ok_or(JournalError::NotAJournal)?;
                lines.sort_keep_first();
                Ok(lines)
            }
        }
    }

    /// The journal file's path.
    #[must_use]
    pub fn path(&self) -> &Path {
        &self.path
    }

    /// Number of jobs already durably journaled.
    #[must_use]
    pub fn committed(&self) -> usize {
        self.count
    }

    /// Whether job `index` is already durably journaled.
    #[must_use]
    pub fn is_committed(&self, index: usize) -> bool {
        self.committed
            .get(index / 64)
            .is_some_and(|&w| w & (1u64 << (index % 64)) != 0)
    }

    /// Number of journaled jobs that failed.
    #[must_use]
    pub fn failed(&self) -> usize {
        self.failed
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
    /// fsyncs.
    ///
    /// This is the single commit point of a caller that commits one record
    /// at a time — when it returns `Ok(true)` the record is on disk and
    /// the job will be skipped by any future resume. Committing an index
    /// that is already journaled is a durable no-op (returns `Ok(false)`),
    /// so a record can never be appended twice.
    ///
    /// # Errors
    /// As [`append_deferred`](Self::append_deferred) and
    /// [`sync`](Self::sync).
    pub fn commit(&mut self, record: &JobRecord) -> io::Result<bool> {
        if self.is_committed(record.job.index) {
            return Ok(false);
        }
        let line = record.render(&self.campaign.name);
        self.append_deferred(record.job.index, &record.outcome, &line)?;
        self.sync()?;
        Ok(true)
    }

    /// Appends one finished job's record line *without* syncing: `line`
    /// is in the file, not yet durable, until [`sync`](Self::sync) — one
    /// fsync then commits a whole batch, and the journal's bytes are
    /// exactly what the same records committed one by one would have
    /// written. An already-journaled index is skipped (keep-first) and
    /// reads `Ok(false)`.
    ///
    /// `line` must be job `index`'s record with `outcome`, as
    /// [`JobRecord::render`] writes it or [`verify_record_line`] accepted
    /// it; the journal stores those bytes without rendering them again,
    /// and of `outcome` notes only whether it failed.
    ///
    /// # Errors
    /// Any I/O error from appending. The job must be treated as not done,
    /// and so must every job appended since the last sync: the journal
    /// forgets them all, and the next append cuts their lines.
    pub fn append_deferred(
        &mut self,
        index: usize,
        outcome: &JobOutcome,
        line: &str,
    ) -> io::Result<bool> {
        assert!(
            index < self.total,
            "job {index} of a campaign of {} jobs",
            self.total
        );
        if self.is_committed(index) {
            return Ok(false);
        }
        let appended = self.appender.append_line_deferred(line);
        self.settle(appended)?;
        self.mark(index, outcome.is_failed());
        self.pending.push((index, outcome.is_failed()));
        Ok(true)
    }

    /// Makes every [`append_deferred`](Self::append_deferred) line
    /// durable with one fsync (none when nothing is pending).
    ///
    /// # Errors
    /// Any I/O error from syncing; the pending lines are then *not*
    /// committed, and the journal forgets them.
    pub fn sync(&mut self) -> io::Result<()> {
        let synced = self.appender.sync();
        self.settle(synced)?;
        self.pending.clear();
        Ok(())
    }

    /// Notes job `index` as committed; it must not be yet.
    fn mark(&mut self, index: usize, failed: bool) {
        self.committed[index / 64] |= 1u64 << (index % 64);
        self.count += 1;
        self.failed += usize::from(failed);
    }

    /// Forgets the pending records when `result` failed: the appender
    /// cuts their lines before its next append.
    fn settle<T>(&mut self, result: io::Result<T>) -> io::Result<T> {
        if result.is_err() {
            for (index, failed) in self.pending.drain(..) {
                self.committed[index / 64] &= !(1u64 << (index % 64));
                self.count -= 1;
                self.failed -= usize::from(failed);
            }
        }
        result
    }
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

/// Reads and validates a journal file against `campaign` without
/// modifying it: header checks and record replay over the file's
/// complete lines ([`DurableAppender::read_lines`]). Every complete line
/// must be byte for byte what this campaign's writer would have written;
/// each record is handed to `record` as `(index, failed, line)` in file
/// order, duplicates included, for the caller to keep first. Returns
/// where the complete lines end, or `None` when not even the header line
/// is complete (a crash between the file's creation and its header's
/// sync). Shared by [`CampaignJournal::resume`] (which then cuts the torn
/// tail and reopens for append) and the read-only paths
/// ([`CampaignJournal::replay`], [`merge_journals`]).
fn scan_journal(
    path: &Path,
    campaign: &Campaign,
    mut record: impl FnMut(usize, bool, &str),
) -> Result<Option<u64>, JournalError> {
    let total = campaign.len();
    let valid_len = DurableAppender::read_lines(path, |n, line| {
        if n == 1 {
            return check_header(line, campaign, total);
        }
        let (index, outcome) =
            verify_line(line, &campaign.name, total, |i| Cow::Owned(campaign.job(i)))
                .map_err(|why| JournalError::Corrupt { line: n, why })?;
        record(index, outcome.is_failed(), line);
        Ok(())
    })?;
    // A complete line is at least its newline.
    Ok((valid_len > 0).then_some(valid_len))
}

/// Checks that `line` is the header [`CampaignJournal::create`] writes
/// for `campaign` (of `total` jobs).
fn check_header(line: &str, campaign: &Campaign, total: usize) -> Result<(), JournalError> {
    let (version, spec_hash) = parse_header(line).ok_or(JournalError::NotAJournal)?;
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
    if line != render_header(campaign) {
        return Err(JournalError::Corrupt {
            line: 1,
            why: format!("header is not the one this campaign of {total} jobs writes"),
        });
    }
    Ok(())
}

/// Merges shard journals for one campaign into a complete
/// [`CampaignReport`](crate::CampaignReport).
///
/// Every journal is validated against `campaign` (header hash, version,
/// total) and replayed read-only; records are unioned keep-first in
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
    let mut merged = JournalLines::default();
    for path in paths {
        scan_journal(path.as_ref(), campaign, |index, failed, line| {
            merged.push_unsorted(index, failed, line);
        })?
        .ok_or(JournalError::NotAJournal)?;
    }
    merged.sort_keep_first();
    let total = campaign.len();
    if merged.len() < total {
        // Sorted and unique: index `i` is missing where entry `i` is not
        // job `i`.
        let first_missing = merged
            .iter()
            .enumerate()
            .find(|(i, l)| l.index != *i)
            .map_or(merged.len(), |(i, _)| i);
        return Err(JournalError::Incomplete {
            missing: total - merged.len(),
            first_missing,
            total,
        });
    }
    let mut lines = Lines::default();
    lines.reserve(merged.text.len() + total, total);
    for l in merged.iter() {
        lines.push(l.line, l.failed);
    }
    Ok(crate::CampaignReport::with_lines(campaign, 0, 0.0, lines))
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
    verify_line(line, campaign_name, jobs.len(), |i| Cow::Borrowed(&jobs[i]))
}

/// [`verify_record_line`] over a campaign of `total` jobs whose job `i`
/// is `job(i)`.
fn verify_line<'j>(
    line: &str,
    campaign_name: &str,
    total: usize,
    job: impl FnOnce(usize) -> Cow<'j, JobSpec>,
) -> Result<(usize, JobOutcome), String> {
    let (index, outcome) = parse_record_line(line)?;
    if index >= total {
        return Err(format!(
            "job index {index} out of range (the campaign has {total} jobs)"
        ));
    }
    if render_parts(campaign_name, &job(index), &outcome) != line {
        return Err(format!(
            "record bytes diverge from the campaign's own rendering of job {index}"
        ));
    }
    Ok((index, outcome))
}

/// Extracts `(job index, outcome)` from one record line. Metric values
/// round-trip exactly because the renderer uses Rust's shortest
/// round-trip float formatting; `null` reads back as NaN.
pub(crate) fn parse_record_line(line: &str) -> Result<(usize, JobOutcome), String> {
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

        let mut j = CampaignJournal::resume(&p, &c).unwrap();
        assert_eq!(j.total(), 3);
        assert!(!j.dropped_torn_tail());
        assert_eq!((j.committed(), j.failed()), (2, 0));
        assert!(j.is_committed(0) && j.is_committed(1) && !j.is_committed(2));
        // Resume hands over the lines it read, in job order.
        let lines = j.take_lines().unwrap();
        assert_eq!(lines.iter().map(|l| l.index).collect::<Vec<_>>(), [0, 1]);
        assert_eq!(lines.get(1), Some(record(&c, 1).render(&c.name).as_str()));
        // Metrics survive the round trip, non-finite values as NaN.
        let (_, outcome) = parse_record_line(lines.get(1).unwrap()).unwrap();
        let JobOutcome::Completed { metrics, attempts } = outcome else {
            panic!("expected completed");
        };
        assert_eq!(attempts, 1);
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
        let mut j = CampaignJournal::resume(&p, &c).unwrap();
        assert_eq!((j.committed(), j.failed()), (2, 1));
        let lines = j.take_lines().unwrap();
        assert_eq!(lines.failed(), 1);
        let (_, outcome) = parse_record_line(lines.get(0).unwrap()).unwrap();
        assert_eq!(outcome, failed.outcome);
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
        assert_eq!(j.committed(), 1);
        // The torn bytes are gone and new appends land on a clean line.
        j.commit(&record(&c, 1)).unwrap();
        drop(j);
        let text = std::fs::read_to_string(&p).unwrap();
        assert_eq!(text.lines().count(), 3);
        assert!(text.ends_with('\n'));
        let j = CampaignJournal::resume(&p, &c).unwrap();
        assert_eq!(j.committed(), 2);
    }

    #[test]
    fn a_short_write_on_a_fresh_journal_is_cut_before_the_next_record() {
        let p = tmp("short-fresh.jsonl");
        let c = campaign();
        let mut j = CampaignJournal::create(&p, &c).unwrap();
        let header = std::fs::read_to_string(&p).unwrap();
        let spec = format!("short,op=write,path={},at=1", p.display());
        let g = dramctrl_kernel::fsio::fault::arm_str(&spec).unwrap();
        j.commit(&record(&c, 0)).unwrap_err();
        drop(g);
        assert_eq!(j.committed(), 0);
        assert!(j.commit(&record(&c, 0)).unwrap());
        // Exactly the header and the record: the torn half is gone, and
        // the record landed at the cut — no hole of NUL bytes before it.
        let line = record(&c, 0).render("journal-test");
        let bytes = std::fs::read(&p).unwrap();
        assert!(!bytes.contains(&0), "a hole in the journal");
        assert_eq!(
            String::from_utf8(bytes).unwrap(),
            format!("{header}{line}\n")
        );
    }

    #[test]
    fn a_batch_whose_sync_failed_is_forgotten_and_lands_once_when_appended_again() {
        let p = tmp("sync-fail.jsonl");
        let c = campaign();
        let mut j = CampaignJournal::create(&p, &c).unwrap();
        j.commit(&record(&c, 2)).unwrap();
        let batch: Vec<_> = (0..2).map(|i| record(&c, i)).collect();
        let append = |j: &mut CampaignJournal| {
            for r in &batch {
                let line = r.render("journal-test");
                assert!(j.append_deferred(r.job.index, &r.outcome, &line).unwrap());
            }
        };
        append(&mut j);
        let spec = format!("eio,op=fsync,path={},at=1", p.display());
        let g = dramctrl_kernel::fsio::fault::arm_str(&spec).unwrap();
        j.sync().unwrap_err();
        drop(g);
        assert_eq!(j.committed(), 1);
        assert!(j.is_committed(2));
        append(&mut j);
        j.sync().unwrap();
        let text = std::fs::read_to_string(&p).unwrap();
        for i in 0..3 {
            let line = record(&c, i).render("journal-test");
            assert_eq!(text.matches(&line).count(), 1, "record {i}");
        }
        assert_eq!(text.lines().count(), 4);
        let j = CampaignJournal::resume(&p, &c).unwrap();
        assert_eq!(j.committed(), 3);
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
        let mut j = CampaignJournal::resume(&p, &c).unwrap();
        assert_eq!(j.committed(), 1);
        let lines = j.take_lines().unwrap();
        assert_eq!(lines.len(), 1);
        let (_, outcome) = parse_record_line(lines.get(0).unwrap()).unwrap();
        let JobOutcome::Completed { metrics, attempts } = outcome else {
            panic!("expected completed");
        };
        assert_eq!(metrics.get("bus_util"), Some(0.625), "first record wins");
        assert_eq!(attempts, 1);
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
