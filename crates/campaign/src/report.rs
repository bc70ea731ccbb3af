//! Campaign results: per-job metrics aggregated into a serializable
//! report.
//!
//! The JSON-lines rendering is deliberately deterministic: metric keys
//! are kept sorted, the line order is the job expansion order, and
//! host-dependent values (wall-clock time, worker count) are kept out of
//! [`CampaignReport::to_jsonl`]. The same campaign seed therefore
//! produces byte-identical JSONL at any worker count.
//!
//! A record's line is rendered once, by whoever owns its bytes (the
//! executor's collector, the daemon's commit), and reused from there:
//! the journal appends it and the report keeps it, so
//! [`CampaignReport::to_jsonl`] renders nothing.

use crate::exec::JobOutcome;
use crate::spec::JobSpec;
use dramctrl_kernel::json::{escape_into, json_f64};
use dramctrl_stats::Table;
use std::borrow::Cow;
use std::fmt::Write as _;

/// Named scalar results of one job, with stable (sorted) key order.
///
/// Keys are `Cow<'static, str>`: the literal names a runner records are
/// borrowed, so filling, cloning and dropping a job's metrics allocates
/// no key; only names parsed back from a record line are owned.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct JobMetrics {
    /// Sorted by key in `str` order, one entry per key.
    values: Vec<(Cow<'static, str>, f64)>,
}

impl JobMetrics {
    /// Creates an empty metrics set.
    pub fn new() -> Self {
        Self::default()
    }

    /// Sets `name` to `value`, replacing any previous value.
    pub fn set(&mut self, name: impl Into<Cow<'static, str>>, value: f64) {
        let name = name.into();
        match self.position(&name) {
            Ok(i) => self.values[i].1 = value,
            Err(i) => self.values.insert(i, (name, value)),
        }
    }

    /// Builder-style [`set`](Self::set).
    pub fn with(mut self, name: impl Into<Cow<'static, str>>, value: f64) -> Self {
        self.set(name, value);
        self
    }

    /// Looks up a metric by name.
    pub fn get(&self, name: &str) -> Option<f64> {
        self.position(name).ok().map(|i| self.values[i].1)
    }

    /// Iterates metrics in sorted key order.
    pub fn iter(&self) -> impl Iterator<Item = (&str, f64)> {
        self.values.iter().map(|(k, v)| (&**k, *v))
    }

    /// Number of metrics recorded.
    pub fn len(&self) -> usize {
        self.values.len()
    }

    /// Whether no metrics have been recorded.
    pub fn is_empty(&self) -> bool {
        self.values.is_empty()
    }

    /// Where `name` is, or where it would go to keep the keys sorted.
    fn position(&self, name: &str) -> Result<usize, usize> {
        self.values.binary_search_by(|(k, _)| (**k).cmp(name))
    }
}

/// One job plus its outcome.
#[derive(Debug, Clone, PartialEq)]
pub struct JobRecord {
    /// The job that ran.
    pub job: JobSpec,
    /// What happened.
    pub outcome: JobOutcome,
}

impl JobRecord {
    /// Renders this record as its JSON-lines object, without a trailing
    /// newline — the exact bytes [`CampaignReport::to_jsonl`] and the
    /// campaign journal hold for it, so consumers (the simulation
    /// service streams these to clients) deliver results byte-identical
    /// to a local sweep's report.
    #[must_use]
    pub fn render(&self, campaign_name: &str) -> String {
        render_parts(campaign_name, &self.job, &self.outcome)
    }
}

/// The aggregated result of a campaign run.
#[derive(Debug, Clone)]
pub struct CampaignReport {
    /// Campaign name.
    pub name: String,
    /// Campaign master seed.
    pub seed: u64,
    /// Worker threads actually used (host-dependent; excluded from
    /// [`to_jsonl`](Self::to_jsonl)).
    pub workers: usize,
    /// Wall-clock seconds for the whole run (host-dependent; excluded
    /// from [`to_jsonl`](Self::to_jsonl)).
    pub wall_secs: f64,
    /// Per-job records in expansion order.
    records: Vec<JobRecord>,
    /// `records` rendered, one newline-terminated line each, in the same
    /// order: the bytes [`to_jsonl`](Self::to_jsonl) returns.
    jsonl: String,
}

impl CampaignReport {
    /// A report over `records` whose lines the caller already holds:
    /// `jsonl` must be exactly the records' rendered lines, in order,
    /// each ending in a newline.
    pub(crate) fn with_lines(
        name: String,
        seed: u64,
        workers: usize,
        wall_secs: f64,
        records: Vec<JobRecord>,
        jsonl: String,
    ) -> Self {
        debug_assert_eq!(
            jsonl.bytes().filter(|&b| b == b'\n').count(),
            records.len(),
            "one line per record"
        );
        Self {
            name,
            seed,
            workers,
            wall_secs,
            records,
            jsonl,
        }
    }

    /// Per-job records in expansion order.
    #[must_use]
    pub fn records(&self) -> &[JobRecord] {
        &self.records
    }

    /// Number of jobs that completed successfully.
    pub fn completed(&self) -> usize {
        self.records
            .iter()
            .filter(|r| !r.outcome.is_failed())
            .count()
    }

    /// Number of jobs that failed (panicked on every attempt).
    pub fn failed(&self) -> usize {
        self.records.len() - self.completed()
    }

    /// Jobs completed or failed per wall-clock second.
    pub fn jobs_per_sec(&self) -> f64 {
        if self.wall_secs > 0.0 {
            self.records.len() as f64 / self.wall_secs
        } else {
            0.0
        }
    }

    /// The record for job `index`, if it exists.
    pub fn record(&self, index: usize) -> Option<&JobRecord> {
        self.records.get(index)
    }

    /// Finds the first completed record matching `pred`, returning its
    /// spec and metrics.
    pub fn find(&self, mut pred: impl FnMut(&JobSpec) -> bool) -> Option<(&JobSpec, &JobMetrics)> {
        self.records.iter().find_map(|r| match &r.outcome {
            JobOutcome::Completed { metrics, .. } if pred(&r.job) => Some((&r.job, metrics)),
            _ => None,
        })
    }

    /// Renders the report as JSON lines, one object per job in expansion
    /// order.
    ///
    /// Only seed-determined data is included — no wall-clock time, no
    /// worker count — so the output is byte-identical for the same
    /// campaign seed regardless of parallelism. The lines were rendered
    /// when the report was assembled; this copies them.
    pub fn to_jsonl(&self) -> String {
        self.jsonl.clone()
    }

    /// Renders a markdown [`Table`] with one row per job: the swept axes
    /// plus the named metric columns (`-` for metrics a job did not
    /// record and for failed jobs).
    pub fn table(&self, metric_cols: &[&str]) -> Table {
        let mut header = vec!["job"];
        header.extend(JobSpec::COLUMNS);
        header.push("outcome");
        header.extend(metric_cols);
        let mut t = Table::new(header);
        for r in &self.records {
            let mut row = vec![r.job.index.to_string()];
            r.job.push_cells(&mut row);
            match &r.outcome {
                JobOutcome::Completed { metrics, .. } => {
                    row.push("ok".to_owned());
                    for &col in metric_cols {
                        row.push(
                            metrics
                                .get(col)
                                .map_or_else(|| "-".to_owned(), |v| format!("{v:.3}")),
                        );
                    }
                }
                JobOutcome::Failed { .. } => {
                    row.push("failed".to_owned());
                    for _ in metric_cols {
                        row.push("-".to_owned());
                    }
                }
            }
            t.row(row);
        }
        t
    }

    /// A one-line human summary including the host-dependent timing.
    pub fn summary(&self) -> String {
        format!(
            "campaign '{}': {} jobs ({} ok, {} failed) in {:.2}s wall, {:.1} jobs/s, {} workers",
            self.name,
            self.records.len(),
            self.completed(),
            self.failed(),
            self.wall_secs,
            self.jobs_per_sec(),
            self.workers
        )
    }
}

/// Renders one [`JobRecord`] as its JSON-lines object, without a
/// trailing newline: [`render_parts_into`] into a fresh buffer.
pub(crate) fn render_parts(campaign_name: &str, j: &JobSpec, outcome: &JobOutcome) -> String {
    let mut out = String::with_capacity(512);
    render_parts_into(&mut out, campaign_name, j, outcome);
    out
}

/// Appends the JSON-lines object for one job and its outcome to `out`,
/// without a trailing newline. This is the one renderer of record lines:
/// the report, the journal and the service all hold the bytes it writes,
/// so a journaled line is byte-identical to the report line the same
/// record produces — resuming a crashed sweep can merge journaled and
/// freshly computed records into one byte-identical report.
pub(crate) fn render_parts_into(
    out: &mut String,
    campaign_name: &str,
    j: &JobSpec,
    outcome: &JobOutcome,
) {
    const INFALLIBLE: &str = "writing to a String cannot fail";
    #[cfg(test)]
    RENDERS.with(|n| n.set(n.get() + 1));
    out.push_str("{\"campaign\":");
    escape_into(campaign_name, out);
    write!(out, ",\"job\":{},\"seed\":{}", j.index, j.seed).expect(INFALLIBLE);
    j.write_members(out);
    match outcome {
        JobOutcome::Completed { metrics, attempts } => {
            write!(
                out,
                ",\"outcome\":\"ok\",\"attempts\":{attempts},\"metrics\":{{"
            )
            .expect(INFALLIBLE);
            for (i, (k, v)) in metrics.iter().enumerate() {
                if i > 0 {
                    out.push(',');
                }
                escape_into(k, out);
                write!(out, ":{}", json_f64(v)).expect(INFALLIBLE);
            }
            out.push_str("}}");
        }
        JobOutcome::Failed {
            panic_msg,
            attempts,
        } => {
            write!(
                out,
                ",\"outcome\":\"failed\",\"attempts\":{attempts},\"panic_msg\":"
            )
            .expect(INFALLIBLE);
            escape_into(panic_msg, out);
            out.push('}');
        }
    }
}

#[cfg(test)]
thread_local! {
    /// Record renders on this thread: the tests count them to pin that a
    /// record is rendered once however many places reuse its bytes.
    pub(crate) static RENDERS: std::cell::Cell<usize> = const { std::cell::Cell::new(0) };
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::spec::Campaign;

    fn toy_report() -> CampaignReport {
        let jobs = Campaign::new("toy", 9).read_pcts([0, 100]).expand();
        let records: Vec<JobRecord> = jobs
            .into_iter()
            .map(|job| {
                let outcome = if job.index == 1 {
                    JobOutcome::Failed {
                        panic_msg: "boom \"quoted\"\nline2".to_owned(),
                        attempts: 2,
                    }
                } else {
                    JobOutcome::Completed {
                        metrics: JobMetrics::new()
                            .with("bus_util", 0.5)
                            .with("avg_read_lat_ns", 60.25),
                        attempts: 1,
                    }
                };
                JobRecord { job, outcome }
            })
            .collect();
        let jsonl = records.iter().map(|r| r.render("toy") + "\n").collect();
        CampaignReport::with_lines("toy".to_owned(), 9, 4, 1.5, records, jsonl)
    }

    #[test]
    fn jsonl_is_deterministic_and_excludes_host_state() {
        let r = toy_report();
        let jsonl = r.to_jsonl();
        assert_eq!(jsonl, r.to_jsonl());
        assert_eq!(jsonl.lines().count(), 2);
        // Host-dependent fields stay out.
        assert!(!jsonl.contains("wall"));
        assert!(!jsonl.contains("workers"));
        // Worker count must not leak into the lines.
        let mut other = toy_report();
        other.workers = 1;
        other.wall_secs = 99.0;
        assert_eq!(jsonl, other.to_jsonl());
    }

    #[test]
    fn jsonl_escapes_panic_messages() {
        let jsonl = toy_report().to_jsonl();
        let failed_line = jsonl.lines().nth(1).unwrap();
        assert!(failed_line.contains("\"outcome\":\"failed\""));
        assert!(failed_line.contains("boom \\\"quoted\\\"\\nline2"));
        assert!(failed_line.contains("\"attempts\":2"));
    }

    #[test]
    fn counters_and_lookup() {
        let r = toy_report();
        assert_eq!(r.completed(), 1);
        assert_eq!(r.failed(), 1);
        let (job, metrics) = r.find(|j| j.read_pct == 0).unwrap();
        assert_eq!(job.index, 0);
        assert_eq!(metrics.get("bus_util"), Some(0.5));
        assert!(r.find(|j| j.read_pct == 100).is_none(), "failed job");
    }

    #[test]
    fn table_marks_failures() {
        let t = toy_report().table(&["bus_util", "missing"]);
        let s = t.render();
        assert!(s.contains("ok"));
        assert!(s.contains("failed"));
        assert!(s.contains("0.500"));
        assert!(s.contains('-'));
    }

    #[test]
    fn summary_mentions_throughput() {
        let s = toy_report().summary();
        assert!(s.contains("2 jobs"));
        assert!(s.contains("1 failed"));
        assert!(s.contains("4 workers"));
    }

    #[test]
    fn metrics_iterate_and_render_like_a_sorted_string_map() {
        use dramctrl_kernel::rng::Rng;
        use std::collections::BTreeMap;
        const BORROWED: [&str; 9] = [
            "bus_util",
            "activates",
            "weird \"name\"",
            "back\\slash",
            "tab\tnew\nline\u{1}",
            "λ-latency",
            "日本",
            "Zeta",
            "",
        ];
        let job = Campaign::new("metrics", 3).expand().remove(0);
        let seed = 0x3E7B1C5;
        let mut rng = Rng::seed_from_u64(seed);
        for i in 0..500 {
            let mut metrics = JobMetrics::new();
            let mut reference: BTreeMap<String, f64> = BTreeMap::new();
            for _ in 0..rng.gen_range(0..24) {
                let value = match rng.gen_range(0..8) {
                    0 => f64::NAN,
                    1 => f64::INFINITY,
                    2 => rng.gen_range(0..1000) as f64,
                    _ => rng.gen_f64() * 1e6 - 5e5,
                };
                // Borrowed literals, owned strings equal to them, and
                // owned strings nothing else uses.
                match rng.gen_range(0..3) {
                    0 => {
                        let k = BORROWED[rng.gen_range(0..9) as usize];
                        metrics.set(k, value);
                        reference.insert(k.to_owned(), value);
                    }
                    1 => {
                        let k = BORROWED[rng.gen_range(0..9) as usize].to_owned();
                        metrics.set(k.clone(), value);
                        reference.insert(k, value);
                    }
                    _ => {
                        let k = format!("k{}é", rng.gen_range(0..40));
                        metrics.set(k.clone(), value);
                        reference.insert(k, value);
                    }
                }
            }
            let got: Vec<(&str, u64)> = metrics.iter().map(|(k, v)| (k, v.to_bits())).collect();
            let want: Vec<(&str, u64)> = reference
                .iter()
                .map(|(k, v)| (k.as_str(), v.to_bits()))
                .collect();
            assert_eq!(got, want, "seed {seed:#x}, case {i}: iteration order");
            assert_eq!(metrics.len(), reference.len());
            for (k, v) in &reference {
                assert_eq!(metrics.get(k).map(f64::to_bits), Some(v.to_bits()));
            }
            assert_eq!(metrics.get("absent"), None);

            // The line the old map rendered: the members in its order.
            let mut object = String::from("{");
            for (n, (k, v)) in reference.iter().enumerate() {
                if n > 0 {
                    object.push(',');
                }
                escape_into(k, &mut object);
                write!(object, ":{}", json_f64(*v)).unwrap();
            }
            object.push('}');
            let empty = JobOutcome::Completed {
                metrics: JobMetrics::new(),
                attempts: 1,
            };
            let prefix = render_parts("m", &job, &empty);
            let want = format!("{}{object}}}", prefix.strip_suffix("{}}").unwrap());
            let outcome = JobOutcome::Completed {
                metrics,
                attempts: 1,
            };
            assert_eq!(
                render_parts("m", &job, &outcome),
                want,
                "seed {seed:#x}, case {i}: rendered bytes"
            );
        }
    }

    #[test]
    fn json_helpers() {
        // Metric names are escaped like any string; values use the
        // shortest round-trip form, non-finite ones become null.
        let mut r = toy_report().records()[0].clone();
        r.outcome = JobOutcome::Completed {
            metrics: JobMetrics::new()
                .with("a\"b\\c\u{1}", 1.5)
                .with("nan", f64::NAN)
                .with("three", 3.0),
            attempts: 1,
        };
        let line = r.render("helpers");
        assert!(
            line.ends_with("\"metrics\":{\"a\\\"b\\\\c\\u0001\":1.5,\"nan\":null,\"three\":3}}"),
            "{line}"
        );
    }
}
