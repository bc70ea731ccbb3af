//! The metric registry and the result a workload run hands back.
//!
//! `BENCHMARK.json` at the repository root lists the same names, units,
//! directions and bounds; a self-test keeps the two in step.

use std::collections::BTreeMap;

/// Which way a metric improves.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    /// Larger is better.
    Higher,
    /// Smaller is better.
    Lower,
}

impl Better {
    /// As written in `BENCHMARK.json`.
    #[cfg(test)]
    pub fn as_str(self) -> &'static str {
        match self {
            Better::Higher => "higher",
            Better::Lower => "lower",
        }
    }

    /// How much worse `new` is than `old`, as a share of `old`
    /// (negative when better).
    pub fn worsening(self, old: f64, new: f64) -> f64 {
        if old == 0.0 {
            return 0.0;
        }
        match self {
            Better::Higher => (old - new) / old.abs(),
            Better::Lower => (new - old) / old.abs(),
        }
    }
}

/// An end-to-end metric: what a user of the stack sees. Host time.
#[derive(Debug, Clone, Copy)]
pub struct EndToEnd {
    /// Metric name.
    pub name: &'static str,
    /// Unit.
    pub unit: &'static str,
    /// Direction.
    pub better: Better,
    /// Share of the parent's median by which it may worsen.
    pub bound: f64,
}

/// A single layer's metric, from the traced run. No bound.
#[derive(Debug, Clone, Copy)]
pub struct PerLayer {
    /// `layer.metric`.
    pub name: &'static str,
    /// Unit.
    pub unit: &'static str,
    /// Direction.
    pub better: Better,
    /// Repeats bit-for-bit for one seed: a simulated statistic or a
    /// count the program makes, not a host time.
    pub exact: bool,
}

use Better::{Higher, Lower};

/// Every end-to-end metric, reported by every workload.
pub const END_TO_END: &[EndToEnd] = &[
    EndToEnd {
        name: "sim_req_per_s",
        unit: "1/s",
        better: Higher,
        bound: 0.25,
    },
    EndToEnd {
        name: "sims_per_s",
        unit: "1/s",
        better: Higher,
        bound: 0.25,
    },
    EndToEnd {
        name: "done_ms_p50",
        unit: "ms",
        better: Lower,
        bound: 0.25,
    },
    EndToEnd {
        name: "peak_rss_mb",
        unit: "MiB",
        better: Lower,
        bound: 0.15,
    },
    EndToEnd {
        name: "setup_s",
        unit: "s",
        better: Lower,
        bound: 0.25,
    },
];

const fn host(name: &'static str, unit: &'static str, better: Better) -> PerLayer {
    PerLayer {
        name,
        unit,
        better,
        exact: false,
    }
}

const fn exact(name: &'static str, unit: &'static str, better: Better) -> PerLayer {
    PerLayer {
        name,
        unit,
        better,
        exact: true,
    }
}

/// Every per-layer metric. A workload that does not exercise a layer
/// reports that layer's metrics as 0.
pub const PER_LAYER: &[PerLayer] = &[
    host("kernel.evq_ops_per_s", "1/s", Higher),
    host("kernel.durability_ops", "count", Lower),
    host("kernel.durability_ops_per_sim", "count", Lower),
    host("kernel.fdatasync_ms_p50", "ms", Lower),
    host("traffic.gen_busy_s", "s", Lower),
    exact("traffic.gen_calls", "count", Lower),
    host("traffic.tester_self_s", "s", Lower),
    exact("traffic.inject_stalls", "count", Lower),
    host("core.try_send_busy_s", "s", Lower),
    exact("core.try_send_calls", "count", Lower),
    exact("core.rejected_full", "count", Lower),
    host("core.advance_busy_s", "s", Lower),
    exact("core.advance_calls", "count", Lower),
    host("core.drain_busy_s", "s", Lower),
    host("core.ns_per_req", "ns", Lower),
    exact("core.sim_ticks", "ticks", Lower),
    exact("core.rd_bursts", "count", Higher),
    exact("core.wr_bursts", "count", Higher),
    exact("core.row_hit_rate", "ratio", Higher),
    exact("core.activates", "count", Lower),
    exact("core.bus_util", "ratio", Higher),
    exact("core.avg_read_lat_ns", "ns", Lower),
    host("cycle.req_per_s", "1/s", Higher),
    host("cycle.event_over_cycle", "x", Higher),
    host("cycle.ns_per_req", "ns", Lower),
    exact("cycle.sim_ticks", "ticks", Lower),
    exact("cycle.row_hit_rate", "ratio", Higher),
    exact("cycle.bus_util", "ratio", Higher),
    exact("cycle.avg_read_lat_ns", "ns", Lower),
    exact("model.bw_err_pct", "%", Lower),
    exact("model.lat_err_pct", "%", Lower),
    host("system.xbar_self_s", "s", Lower),
    host("system.channel_busy_s_sum", "s", Lower),
    host("system.channel_busy_s_max", "s", Lower),
    host("system.channel_imbalance", "x", Lower),
    exact("runner.jobs", "count", Higher),
    host("runner.job_busy_s", "s", Lower),
    host("runner.job_us_p50", "us", Lower),
    host("runner.job_fixed_us", "us", Lower),
    host("runner.cold_build_us", "us", Lower),
    host("campaign.expand_s", "s", Lower),
    host("campaign.exec_wall_s", "s", Lower),
    host("campaign.worker_busy_s", "s", Lower),
    host("campaign.worker_idle_s", "s", Lower),
    host("campaign.worker_util", "ratio", Higher),
    host("campaign.journal_batches", "count", Lower),
    host("campaign.batch_records_mean", "count", Higher),
    host("campaign.commit_ms_mean", "ms", Lower),
    host("campaign.journal_overhead", "x", Lower),
    host("campaign.render_s", "s", Lower),
    exact("campaign.retries", "count", Lower),
    host("campaign.local_sims_per_s", "1/s", Higher),
    host("serve.wire_parse_mb_per_s", "MB/s", Higher),
    host("serve.wire_encode_mb_per_s", "MB/s", Higher),
    host("serve.submit_ack_ms_p50", "ms", Lower),
    host("serve.first_record_ms_p50", "ms", Lower),
    host("serve.first_record_ms_p80", "ms", Lower),
    host("serve.done_ms_p80", "ms", Lower),
    host("serve.preemptions", "count", Lower),
    host("serve.sched_wait_ms_mean", "ms", Lower),
    host("serve.store_fsync_s_accept", "s", Lower),
    host("serve.store_fsync_s_commit", "s", Lower),
    host("serve.streamed_bytes", "bytes", Lower),
    exact("serve.rejected", "count", Lower),
    host("serve.remote_over_local", "x", Lower),
    host("dispatch.wall_s", "s", Lower),
    exact("dispatch.shards", "count", Higher),
    exact("dispatch.rounds", "count", Lower),
    exact("dispatch.redispatches", "count", Lower),
    exact("dispatch.hedges", "count", Lower),
    exact("dispatch.hedge_waste", "ratio", Lower),
    host("dispatch.fleet_over_local", "x", Lower),
    host("harness.samples", "count", Higher),
    host("harness.host_speed", "x", Higher),
    host("harness.timer_cost_ns", "ns", Lower),
    host("harness.trace_overhead_pct", "%", Lower),
];

/// One correctness check and how it went.
#[derive(Debug, Clone)]
pub struct Check {
    /// What was checked.
    pub what: String,
    /// Whether it held.
    pub ok: bool,
}

/// What one workload run produced.
#[derive(Debug, Default)]
pub struct Outcome {
    /// Measured values by metric name.
    pub metrics: BTreeMap<&'static str, f64>,
    /// Operations attempted (requests on the simulation workloads,
    /// simulations elsewhere).
    pub attempted: u64,
    /// Operations that failed: dropped requests, failed jobs, rejected
    /// submits, mismatched bytes.
    pub failed: u64,
    /// Correctness checks, each a hard failure.
    pub checks: Vec<Check>,
    /// Free-form lines for the human-readable output.
    pub notes: Vec<String>,
}

impl Outcome {
    /// Records a metric.
    ///
    /// # Panics
    /// Panics on a non-finite value: a NaN must never reach a results
    /// file as a number.
    pub fn set(&mut self, name: &'static str, value: f64) {
        assert!(value.is_finite(), "metric {name} is not finite: {value}");
        self.metrics.insert(name, value);
    }

    /// The rate and latency metrics of a workload whose unit of work
    /// (`sims` simulations, `requests` simulated requests) takes `run_s`
    /// and hands its result back whole.
    pub fn set_whole_result(&mut self, run_s: f64, sims: f64, requests: f64) {
        self.set("sims_per_s", sims / run_s);
        self.set("sim_req_per_s", requests / run_s);
        self.set("done_ms_p50", run_s * 1e3);
    }

    /// Records a correctness check; a failed one fails the run. A check
    /// made once per repeat is one check that must hold every time.
    pub fn check(&mut self, what: &str, ok: bool) {
        match self.checks.iter_mut().find(|c| c.what == what) {
            Some(c) => c.ok &= ok,
            None => self.checks.push(Check {
                what: what.to_owned(),
                ok,
            }),
        }
    }

    /// Whether every check held and no operation failed.
    pub fn correct(&self) -> bool {
        self.failed == 0 && self.checks.iter().all(|c| c.ok)
    }

    /// The `(name, value, unit)` rows a run in this mode must emit:
    /// every end-to-end metric untraced, every per-layer metric traced.
    ///
    /// # Errors
    /// Names an end-to-end metric the workload failed to produce.
    pub fn rows(&self, trace: bool) -> Result<Vec<(&'static str, f64, &'static str)>, String> {
        if trace {
            Ok(PER_LAYER
                .iter()
                .map(|m| {
                    (
                        m.name,
                        self.metrics.get(m.name).copied().unwrap_or(0.0),
                        m.unit,
                    )
                })
                .collect())
        } else {
            END_TO_END
                .iter()
                .map(|m| {
                    self.metrics
                        .get(m.name)
                        .map(|&v| (m.name, v, m.unit))
                        .ok_or_else(|| format!("workload produced no '{}'", m.name))
                })
                .collect()
        }
    }

    /// The result line the benchmark contract asks for: one JSON object
    /// with exactly `correct`, `attempted`, `failed` and `metrics`.
    ///
    /// # Errors
    /// As [`rows`](Self::rows).
    pub fn result_line(&self, trace: bool) -> Result<String, String> {
        let metrics: Vec<String> = self
            .rows(trace)?
            .into_iter()
            .map(|(name, v, unit)| {
                format!("\"{name}\":{{\"value\":{},\"unit\":\"{unit}\"}}", num(v))
            })
            .collect();
        Ok(format!(
            "{{\"correct\":{},\"attempted\":{},\"failed\":{},\"metrics\":{{{}}}}}",
            self.correct(),
            self.attempted.max(1),
            self.failed,
            metrics.join(",")
        ))
    }
}

/// A finite `f64` as a JSON number with all its digits.
pub fn num(v: f64) -> String {
    assert!(v.is_finite(), "not a JSON number: {v}");
    format!("{v}")
}

#[cfg(test)]
mod tests {
    use super::*;
    use dramctrl_serve::wire::Value;

    #[test]
    fn worsening_follows_direction() {
        assert!((Higher.worsening(100.0, 90.0) - 0.10).abs() < 1e-12);
        assert!((Lower.worsening(100.0, 90.0) + 0.10).abs() < 1e-12);
        assert_eq!(Lower.worsening(0.0, 5.0), 0.0);
    }

    #[test]
    fn names_are_unique_and_well_formed() {
        let mut seen = std::collections::BTreeSet::new();
        let names = END_TO_END
            .iter()
            .map(|m| m.name)
            .chain(PER_LAYER.iter().map(|m| m.name));
        for n in names {
            assert!(seen.insert(n), "duplicate metric {n}");
            assert!(n.len() <= 64 && n.chars().next().unwrap().is_ascii_alphanumeric());
            assert!(n
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c)));
        }
        assert!(END_TO_END.iter().all(|m| m.bound > 0.0 && m.bound <= 0.25));
        assert!(END_TO_END
            .iter()
            .any(|m| m.name == "setup_s" && m.unit == "s"));
    }

    #[test]
    fn result_line_validates_and_fails_closed() {
        let mut o = Outcome::default();
        assert!(o.result_line(false).is_err(), "missing end-to-end metrics");
        for m in END_TO_END {
            o.set(m.name, 1.25);
        }
        o.attempted = 10;
        o.check("bytes identical", true);
        let line = o.result_line(false).unwrap();
        dramctrl_obs::json::validate(&line).expect("valid JSON");
        let v = Value::parse(&line).unwrap();
        assert_eq!(v.get("correct").and_then(Value::as_bool), Some(true));
        let m = v.get("metrics").unwrap();
        assert_eq!(
            m.get("setup_s")
                .and_then(|s| s.get("value"))
                .and_then(Value::as_f64),
            Some(1.25)
        );
        // Traced: every per-layer metric, zero where the layer did nothing.
        o.set("core.rd_bursts", 7.0);
        let traced = Value::parse(&o.result_line(true).unwrap()).unwrap();
        let tm = traced.get("metrics").unwrap();
        assert!(tm.get("setup_s").is_none());
        assert_eq!(
            tm.get("serve.rejected")
                .and_then(|s| s.get("value"))
                .and_then(Value::as_f64),
            Some(0.0)
        );
        // A failed check or a failed operation makes the run incorrect.
        o.failed = 1;
        assert!(!o.correct());
        o.failed = 0;
        o.check("x", false);
        assert!(o.result_line(false).unwrap().contains("\"correct\":false"));
    }

    /// `BENCHMARK.json` and the registry must list the same metrics with
    /// the same units, directions and bounds, and the six workloads.
    #[test]
    fn benchmark_json_matches_registry() {
        let text =
            std::fs::read_to_string(concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json"))
                .expect("BENCHMARK.json at the repository root");
        let v = Value::parse(&text).expect("BENCHMARK.json parses");
        let s = |x: &Value, k: &str| x.get(k).and_then(Value::as_str).unwrap().to_owned();
        let e2e = v.get("end_to_end").and_then(Value::as_arr).unwrap();
        assert_eq!(e2e.len(), END_TO_END.len());
        for (j, m) in e2e.iter().zip(END_TO_END) {
            assert_eq!(s(j, "name"), m.name);
            assert_eq!(s(j, "unit"), m.unit);
            assert_eq!(s(j, "better"), m.better.as_str());
            assert_eq!(j.get("bound").and_then(Value::as_f64), Some(m.bound));
        }
        let layers = v.get("per_layer").and_then(Value::as_arr).unwrap();
        assert_eq!(layers.len(), PER_LAYER.len());
        for (j, m) in layers.iter().zip(PER_LAYER) {
            assert_eq!(s(j, "name"), m.name);
            assert_eq!(s(j, "unit"), m.unit);
            assert_eq!(s(j, "better"), m.better.as_str());
        }
        let names: Vec<String> = v
            .get("workloads")
            .and_then(Value::as_arr)
            .unwrap()
            .iter()
            .map(|w| s(w, "name"))
            .collect();
        assert_eq!(names, crate::workloads::NAMES);
    }
}
