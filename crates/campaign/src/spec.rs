//! Declarative campaign specifications.
//!
//! A [`Campaign`] names a set of axes (device, model, page policy,
//! scheduler, address mapping, channel count, traffic pattern, read
//! percentage, request count); [`Campaign::expand`] takes the Cartesian
//! product and yields one [`JobSpec`] per point, each with a
//! deterministic seed derived from the campaign seed and the job index.

use dramctrl::{PagePolicy, SchedPolicy};
use dramctrl_kernel::rng::splitmix64;
use dramctrl_mem::AddrMapping;
use std::fmt;

/// Which controller model a job simulates.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum Model {
    /// The event-based controller (`dramctrl::DramCtrl`).
    #[default]
    Event,
    /// The cycle-based baseline (`dramctrl_cycle::CycleCtrl`).
    Cycle,
}

impl fmt::Display for Model {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            Model::Event => "event",
            Model::Cycle => "cycle",
        })
    }
}

impl std::str::FromStr for Model {
    type Err = String;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        match s {
            "event" => Ok(Model::Event),
            "cycle" => Ok(Model::Cycle),
            other => Err(format!("unknown model '{other}' (event|cycle)")),
        }
    }
}

/// The synthetic traffic driven at the controller in one job.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TrafficPattern {
    /// Linearly incrementing addresses over `range` bytes in `block`-byte
    /// requests.
    Linear {
        /// Address range in bytes.
        range: u64,
        /// Request size in bytes.
        block: u32,
    },
    /// Uniformly random addresses over `range` bytes in `block`-byte
    /// requests.
    Random {
        /// Address range in bytes.
        range: u64,
        /// Request size in bytes.
        block: u32,
    },
    /// The DRAM-aware generator: sequential runs of `stride` bursts
    /// interleaved over `banks` banks (the paper's bandwidth sweeps).
    DramAware {
        /// Sequential stride in bursts.
        stride: u64,
        /// Number of banks targeted.
        banks: u32,
    },
}

impl fmt::Display for TrafficPattern {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            TrafficPattern::Linear { range, block } => {
                write!(f, "linear(range={range},block={block})")
            }
            TrafficPattern::Random { range, block } => {
                write!(f, "random(range={range},block={block})")
            }
            TrafficPattern::DramAware { stride, banks } => {
                write!(f, "dram-aware(stride={stride},banks={banks})")
            }
        }
    }
}

impl std::str::FromStr for TrafficPattern {
    type Err = String;

    /// Parses the exact form [`Display`](fmt::Display) renders, e.g.
    /// `linear(range=268435456,block=64)` — so patterns round-trip through
    /// reports, journals and the service protocol.
    fn from_str(s: &str) -> Result<Self, Self::Err> {
        let (kind, rest) = s
            .split_once('(')
            .ok_or_else(|| format!("bad traffic pattern {s:?}"))?;
        let body = rest
            .strip_suffix(')')
            .ok_or_else(|| format!("bad traffic pattern {s:?}"))?;
        let field = |key: &str| -> Result<u64, String> {
            body.split(',')
                .find_map(|kv| kv.strip_prefix(key)?.strip_prefix('='))
                .ok_or_else(|| format!("traffic pattern {s:?} is missing '{key}='"))?
                .parse()
                .map_err(|_| format!("bad '{key}' value in {s:?}"))
        };
        match kind {
            "linear" => Ok(TrafficPattern::Linear {
                range: field("range")?,
                block: field("block")? as u32,
            }),
            "random" => Ok(TrafficPattern::Random {
                range: field("range")?,
                block: field("block")? as u32,
            }),
            "dram-aware" => Ok(TrafficPattern::DramAware {
                stride: field("stride")?,
                banks: field("banks")? as u32,
            }),
            other => Err(format!(
                "unknown traffic pattern kind '{other}' (linear, random, dram-aware)"
            )),
        }
    }
}

/// One fully specified simulation: a single point of a campaign's
/// Cartesian product.
#[derive(Debug, Clone, PartialEq)]
pub struct JobSpec {
    /// Position in the campaign's expansion order (stable across runs).
    pub index: usize,
    /// Device preset name (`dramctrl_mem::presets`, e.g.
    /// "DDR3-1333-x64").
    pub device: String,
    /// Controller model.
    pub model: Model,
    /// Row-buffer management policy.
    pub policy: PagePolicy,
    /// Request scheduling policy.
    pub sched: SchedPolicy,
    /// Address mapping.
    pub mapping: AddrMapping,
    /// Number of memory channels (1 = single controller, >1 = crossbar).
    pub channels: u32,
    /// Traffic pattern.
    pub traffic: TrafficPattern,
    /// Percentage of reads in the traffic mix (0–100).
    pub read_pct: u8,
    /// Number of requests to inject.
    pub requests: u64,
    /// RAS error rate (faults per gigabit-hour of simulated time); `0.0`
    /// runs without a fault model.
    pub error_rate: f64,
    /// Deterministic per-job seed derived from the campaign seed and
    /// `index`.
    pub seed: u64,
}

impl JobSpec {
    /// A compact human-readable label identifying this job.
    pub fn label(&self) -> String {
        let mut label = format!(
            "{}/{}/{}/{}/{}/ch{}/{}/r{}/n{}",
            self.device,
            self.model,
            self.policy,
            self.sched,
            self.mapping,
            self.channels,
            self.traffic,
            self.read_pct,
            self.requests
        );
        if self.error_rate > 0.0 {
            label.push_str(&format!("/e{}", self.error_rate));
        }
        label
    }
}

/// Derives the seed for job `index` of a campaign seeded with `campaign_seed`.
///
/// Uses a SplitMix64 finalisation so consecutive job indices get
/// decorrelated seeds, and the derivation depends only on
/// `(campaign_seed, index)` — never on scheduling order or worker count.
pub fn job_seed(campaign_seed: u64, index: usize) -> u64 {
    let mut state = campaign_seed.wrapping_add((index as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15));
    splitmix64(&mut state)
}

/// A declarative parameter sweep: named axes whose Cartesian product
/// expands into [`JobSpec`]s.
///
/// Every axis defaults to a single sensible value, so a campaign only
/// names the axes it actually sweeps:
///
/// ```
/// use dramctrl::PagePolicy;
/// use dramctrl_campaign::Campaign;
///
/// let jobs = Campaign::new("policy-sweep", 42)
///     .policies([PagePolicy::Open, PagePolicy::Closed])
///     .read_pcts([0, 50, 100])
///     .expand();
/// assert_eq!(jobs.len(), 6);
/// // Seeds depend only on (campaign seed, index).
/// assert_eq!(jobs[3].seed, dramctrl_campaign::job_seed(42, 3));
/// ```
#[derive(Debug, Clone)]
pub struct Campaign {
    /// Campaign name (used in reports).
    pub name: String,
    /// Master seed; per-job seeds are derived from it.
    pub seed: u64,
    /// Device preset names.
    pub devices: Vec<String>,
    /// Controller models.
    pub models: Vec<Model>,
    /// Page policies.
    pub policies: Vec<PagePolicy>,
    /// Scheduling policies.
    pub scheds: Vec<SchedPolicy>,
    /// Address mappings.
    pub mappings: Vec<AddrMapping>,
    /// Channel counts.
    pub channels: Vec<u32>,
    /// Traffic patterns.
    pub traffic: Vec<TrafficPattern>,
    /// Read percentages.
    pub read_pcts: Vec<u8>,
    /// Request counts.
    pub request_counts: Vec<u64>,
    /// RAS error rates (faults per gigabit-hour); `0.0` means no fault
    /// model.
    pub error_rates: Vec<f64>,
}

impl Campaign {
    /// Creates a campaign with single-valued default axes: DDR3-1333-x64,
    /// event model, open page, FR-FCFS, RoRaBaCoCh, 1 channel, linear
    /// traffic over 256 MiB in 64-byte blocks, 100% reads, 10 000
    /// requests.
    pub fn new(name: impl Into<String>, seed: u64) -> Self {
        Self {
            name: name.into(),
            seed,
            devices: vec!["DDR3-1333-x64".to_owned()],
            models: vec![Model::Event],
            policies: vec![PagePolicy::Open],
            scheds: vec![SchedPolicy::FrFcfs],
            mappings: vec![AddrMapping::RoRaBaCoCh],
            channels: vec![1],
            traffic: vec![TrafficPattern::Linear {
                range: 256 << 20,
                block: 64,
            }],
            read_pcts: vec![100],
            request_counts: vec![10_000],
            error_rates: vec![0.0],
        }
    }

    /// Replaces the device axis.
    pub fn devices<S: Into<String>>(mut self, axis: impl IntoIterator<Item = S>) -> Self {
        self.devices = axis.into_iter().map(Into::into).collect();
        self
    }

    /// Replaces the model axis.
    pub fn models(mut self, axis: impl IntoIterator<Item = Model>) -> Self {
        self.models = axis.into_iter().collect();
        self
    }

    /// Replaces the page-policy axis.
    pub fn policies(mut self, axis: impl IntoIterator<Item = PagePolicy>) -> Self {
        self.policies = axis.into_iter().collect();
        self
    }

    /// Replaces the scheduler axis.
    pub fn scheds(mut self, axis: impl IntoIterator<Item = SchedPolicy>) -> Self {
        self.scheds = axis.into_iter().collect();
        self
    }

    /// Replaces the address-mapping axis.
    pub fn mappings(mut self, axis: impl IntoIterator<Item = AddrMapping>) -> Self {
        self.mappings = axis.into_iter().collect();
        self
    }

    /// Replaces the channel-count axis.
    pub fn channels(mut self, axis: impl IntoIterator<Item = u32>) -> Self {
        self.channels = axis.into_iter().collect();
        self
    }

    /// Replaces the traffic-pattern axis.
    pub fn traffic(mut self, axis: impl IntoIterator<Item = TrafficPattern>) -> Self {
        self.traffic = axis.into_iter().collect();
        self
    }

    /// Replaces the read-percentage axis.
    pub fn read_pcts(mut self, axis: impl IntoIterator<Item = u8>) -> Self {
        self.read_pcts = axis.into_iter().collect();
        self
    }

    /// Replaces the request-count axis.
    pub fn requests(mut self, axis: impl IntoIterator<Item = u64>) -> Self {
        self.request_counts = axis.into_iter().collect();
        self
    }

    /// Replaces the error-rate axis (faults per gigabit-hour; `0.0` runs
    /// fault-free).
    pub fn error_rates(mut self, axis: impl IntoIterator<Item = f64>) -> Self {
        self.error_rates = axis.into_iter().collect();
        self
    }

    /// Number of jobs the campaign expands into.
    ///
    /// # Panics
    /// Panics if the product overflows `usize`; see
    /// [`checked_len`](Self::checked_len).
    pub fn len(&self) -> usize {
        self.checked_len().expect("campaign size overflows usize")
    }

    /// Number of jobs the campaign expands into, or `None` when the
    /// product of the axis lengths overflows `usize`.
    pub fn checked_len(&self) -> Option<usize> {
        [
            self.devices.len(),
            self.models.len(),
            self.policies.len(),
            self.scheds.len(),
            self.mappings.len(),
            self.channels.len(),
            self.traffic.len(),
            self.read_pcts.len(),
            self.request_counts.len(),
            self.error_rates.len(),
        ]
        .into_iter()
        .try_fold(1, usize::checked_mul)
    }

    /// Whether the Cartesian product is empty (some axis has no values).
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Expands the Cartesian product into jobs, in a stable nesting
    /// order (devices outermost, request counts innermost).
    ///
    /// # Panics
    /// Panics if any axis is empty — an empty axis silently annihilating
    /// the whole product is never what a sweep author meant.
    pub fn expand(&self) -> Vec<JobSpec> {
        for (axis, len) in [
            ("devices", self.devices.len()),
            ("models", self.models.len()),
            ("policies", self.policies.len()),
            ("scheds", self.scheds.len()),
            ("mappings", self.mappings.len()),
            ("channels", self.channels.len()),
            ("traffic", self.traffic.len()),
            ("read_pcts", self.read_pcts.len()),
            ("request_counts", self.request_counts.len()),
            ("error_rates", self.error_rates.len()),
        ] {
            assert!(len > 0, "campaign axis '{axis}' is empty");
        }
        let mut jobs = Vec::with_capacity(self.len());
        for device in &self.devices {
            for &model in &self.models {
                for &policy in &self.policies {
                    for &sched in &self.scheds {
                        for &mapping in &self.mappings {
                            for &channels in &self.channels {
                                for &traffic in &self.traffic {
                                    for &read_pct in &self.read_pcts {
                                        for &requests in &self.request_counts {
                                            for &error_rate in &self.error_rates {
                                                let index = jobs.len();
                                                jobs.push(JobSpec {
                                                    index,
                                                    device: device.clone(),
                                                    model,
                                                    policy,
                                                    sched,
                                                    mapping,
                                                    channels,
                                                    traffic,
                                                    read_pct,
                                                    requests,
                                                    error_rate,
                                                    seed: job_seed(self.seed, index),
                                                });
                                            }
                                        }
                                    }
                                }
                            }
                        }
                    }
                }
            }
        }
        jobs
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn expansion_is_cartesian_and_stable() {
        let c = Campaign::new("t", 1)
            .policies([PagePolicy::Open, PagePolicy::Closed])
            .read_pcts([0, 50, 100])
            .requests([100, 200]);
        assert_eq!(c.len(), 12);
        let jobs = c.expand();
        assert_eq!(jobs.len(), 12);
        // Innermost axis varies fastest.
        assert_eq!(jobs[0].requests, 100);
        assert_eq!(jobs[1].requests, 200);
        assert_eq!(jobs[0].read_pct, 0);
        assert_eq!(jobs[2].read_pct, 50);
        // Indices are positions.
        for (i, j) in jobs.iter().enumerate() {
            assert_eq!(j.index, i);
        }
        // Expansion is deterministic.
        assert_eq!(c.expand(), jobs);
    }

    #[test]
    fn seeds_depend_only_on_campaign_seed_and_index() {
        let a = Campaign::new("a", 7).read_pcts([0, 100]).expand();
        let b = Campaign::new("b", 7)
            .policies([PagePolicy::Closed])
            .read_pcts([0, 100])
            .expand();
        // Different axes, same seed + index: same job seeds.
        assert_eq!(a[1].seed, b[1].seed);
        assert_eq!(a[1].seed, job_seed(7, 1));
        // Different campaign seed: different job seeds.
        assert_ne!(a[0].seed, Campaign::new("a", 8).expand()[0].seed);
        // Consecutive indices decorrelate.
        assert_ne!(a[0].seed, a[1].seed);
    }

    #[test]
    #[should_panic(expected = "axis 'policies' is empty")]
    fn empty_axis_panics() {
        let _ = Campaign::new("t", 1).policies([]).expand();
    }

    #[test]
    fn labels_are_readable() {
        let jobs = Campaign::new("t", 1).expand();
        let l = jobs[0].label();
        assert!(l.contains("DDR3-1333-x64"));
        assert!(l.contains("event"));
        assert!(l.contains("open"));
        assert!(l.contains("linear"));
    }

    #[test]
    fn error_rate_axis_expands_innermost_and_labels() {
        let c = Campaign::new("ras", 5)
            .read_pcts([0, 100])
            .error_rates([0.0, 1e10, 1e12]);
        assert_eq!(c.len(), 6);
        let jobs = c.expand();
        // Innermost: error rate varies fastest.
        assert_eq!(jobs[0].error_rate, 0.0);
        assert_eq!(jobs[1].error_rate, 1e10);
        assert_eq!(jobs[2].error_rate, 1e12);
        assert_eq!(jobs[3].read_pct, 100);
        // The default single-valued axis leaves indices and seeds exactly
        // as they were before the axis existed.
        let plain = Campaign::new("ras", 5).read_pcts([0, 100]).expand();
        assert_eq!(plain.len(), 2);
        assert!(plain.iter().all(|j| j.error_rate == 0.0));
        // Fault-free labels are unchanged; faulty ones name the rate.
        assert_eq!(jobs[0].label(), plain[0].label());
        assert!(jobs[1].label().ends_with("/e10000000000"));
    }

    #[test]
    fn model_round_trips_from_str() {
        assert_eq!("event".parse::<Model>().unwrap(), Model::Event);
        assert_eq!("cycle".parse::<Model>().unwrap(), Model::Cycle);
        assert!("quantum".parse::<Model>().is_err());
    }
}
