//! A parallel, fault-isolated simulation-campaign engine for the
//! `dramctrl` simulators.
//!
//! Architecture-exploration studies (the point of the source paper) run
//! the same controller models over large parameter grids. This crate
//! turns those grids into first-class objects:
//!
//! - [`Campaign`] declares named axes (device, model, page policy,
//!   scheduler, mapping, channels, traffic, read mix, request count)
//!   whose Cartesian product expands into [`JobSpec`]s, each with a
//!   deterministic seed derived from the campaign seed and job index.
//! - [`run_campaign`] executes the jobs on a worker pool
//!   ([`ExecutorConfig`] controls width and retries). Panics inside a
//!   job are caught, retried up to a bound, and recorded as
//!   [`JobOutcome::Failed`] — one diverging configuration never takes
//!   down a thousand-job sweep.
//! - [`CampaignReport`] keeps each job's deterministic JSON line
//!   ([`CampaignReport::to_jsonl`]) — the one copy of its result — and
//!   parses its typed view ([`CampaignReport::records`], markdown
//!   [`CampaignReport::table`]s) back from those lines on demand.
//! - [`CampaignJournal`] is a durable write-ahead journal of completed
//!   jobs: [`run_campaign_journaled`] fsyncs every record before counting
//!   the job as done, so a killed sweep resumes exactly where it stopped —
//!   skipping journaled jobs and splicing their lines into a report
//!   byte-identical to an uninterrupted run's.
//!
//! The engine is generic over the runner (`Fn(&JobSpec) -> JobMetrics`),
//! so it has no dependency on the controller crates beyond the axis
//! types; the canonical runner wiring specs to real controllers lives in
//! `dramctrl-runner` (`run_job`).
//!
//! # Determinism
//!
//! The same campaign seed produces byte-identical
//! [`CampaignReport::to_jsonl`] output at *any* worker count: per-job
//! seeds depend only on `(campaign seed, job index)`, results are keyed
//! by job index rather than completion order, and host-dependent values
//! (wall-clock, worker count) are excluded from the JSONL.
//!
//! # Example
//!
//! ```
//! use dramctrl_mem::PagePolicy;
//! use dramctrl_campaign::{run_campaign, Campaign, ExecutorConfig, JobMetrics};
//!
//! let campaign = Campaign::new("demo", 42)
//!     .policies([PagePolicy::Open, PagePolicy::Closed])
//!     .read_pcts([0, 50, 100]);
//! let report = run_campaign(&campaign, &ExecutorConfig::default(), |job| {
//!     // A real runner simulates `job`; see dramctrl-runner::run_job.
//!     JobMetrics::new().with("seed_low", (job.seed & 0xFF) as f64)
//! });
//! assert_eq!(report.completed(), 6);
//! ```

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

mod exec;
mod journal;
mod report;
mod spec;

pub use exec::{
    panic_message, run_campaign, run_campaign_journaled, run_campaign_shard, ExecMetrics,
    ExecutorConfig, JobOutcome, Progress,
};
pub use journal::{
    campaign_hash, merge_journals, verify_record_line, CampaignJournal, JournalError, JournalLine,
    JournalLines, JOURNAL_VERSION,
};
pub use report::{CampaignReport, JobMetrics, JobRecord};
pub use spec::{
    campaign_from_wire, campaign_to_wire, job_seed, Campaign, JobSpec, Model, TrafficPattern,
};
