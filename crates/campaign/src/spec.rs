//! Declarative campaign specifications.
//!
//! A [`Campaign`] names a set of axes (device, model, page policy,
//! scheduler, address mapping, channel count, traffic pattern, read
//! percentage, request count, error rate); [`Campaign::expand`] takes the
//! Cartesian product and yields one [`JobSpec`] per point, each with a
//! deterministic seed derived from the campaign seed and the job index.
//!
//! The axes are declared once, as the rows of the axis table at the end
//! of this file. Everything that names an axis is generated from those
//! rows: the [`Campaign`] fields, constructor, builders and size, the
//! expansion, the [`JobSpec`] fields, the axis members of a record line,
//! the report table's axis columns and the wire codec
//! ([`campaign_to_wire`], [`campaign_from_wire`]).

use dramctrl_kernel::json::{escape_into, json_f64, Value};
use dramctrl_kernel::rng::splitmix64;
use dramctrl_mem::{AddrMapping, PagePolicy, SchedPolicy};
use std::fmt::{self, Write as _};

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
        // Each field parses at its own width: an out-of-range value is
        // refused, never truncated into a pattern nobody asked for.
        fn field<T: std::str::FromStr>(s: &str, body: &str, key: &str) -> Result<T, String> {
            body.split(',')
                .find_map(|kv| kv.strip_prefix(key)?.strip_prefix('='))
                .ok_or_else(|| format!("traffic pattern {s:?} is missing '{key}='"))?
                .parse()
                .map_err(|_| format!("bad '{key}' value in {s:?}"))
        }
        match kind {
            "linear" => Ok(TrafficPattern::Linear {
                range: field(s, body, "range")?,
                block: field(s, body, "block")?,
            }),
            "random" => Ok(TrafficPattern::Random {
                range: field(s, body, "range")?,
                block: field(s, body, "block")?,
            }),
            "dram-aware" => Ok(TrafficPattern::DramAware {
                stride: field(s, body, "stride")?,
                banks: field(s, body, "banks")?,
            }),
            other => Err(format!(
                "unknown traffic pattern kind '{other}' (linear, random, dram-aware)"
            )),
        }
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

impl Campaign {
    /// Number of jobs the campaign expands into.
    ///
    /// # Panics
    /// Panics if the product overflows `usize`; see
    /// [`checked_len`](Self::checked_len).
    pub fn len(&self) -> usize {
        self.checked_len().expect("campaign size overflows usize")
    }

    /// Whether the Cartesian product is empty (some axis has no values).
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

const INFALLIBLE: &str = "writing to a String cannot fail";

/// An axis value's one JSON form: the string its `Display` writes, or a
/// raw number. That form is both the wire array element and the record
/// member, so one writer ([`write_json`], [`to_value`]) and one validated
/// reader ([`AxisValue::read`]) per value type serve the codec and the
/// record renderer alike.
trait AxisValue: fmt::Display + Sized {
    /// Whether the form is a JSON string rather than a raw number.
    const QUOTED: bool = false;
    /// Appends the form's text, unquoted and unescaped.
    fn write_text(&self, out: &mut String) {
        write!(out, "{self}").expect(INFALLIBLE);
    }
    /// Reads a wire value back into an axis value.
    fn read(v: &Value) -> Result<Self, String>;
}

macro_rules! quoted_axis_values {
    ($($t:ty),*) => {$(
        impl AxisValue for $t {
            const QUOTED: bool = true;
            fn read(v: &Value) -> Result<Self, String> {
                let text = v.as_str().ok_or_else(|| "expected a string".to_owned())?;
                text.parse().map_err(|e| format!("{e}"))
            }
        }
    )*};
}
quoted_axis_values! { String, Model, PagePolicy, SchedPolicy, AddrMapping, TrafficPattern }

macro_rules! integer_axis_values {
    ($($t:ty),*) => {$(
        impl AxisValue for $t {
            fn read(v: &Value) -> Result<Self, String> {
                v.as_u64()
                    .and_then(|n| Self::try_from(n).ok())
                    .ok_or_else(|| concat!("expected a ", stringify!($t)).to_owned())
            }
        }
    )*};
}
integer_axis_values! { u8, u32, u64 }

impl AxisValue for f64 {
    fn write_text(&self, out: &mut String) {
        write!(out, "{}", json_f64(*self)).expect(INFALLIBLE);
    }
    fn read(v: &Value) -> Result<Self, String> {
        v.as_f64().ok_or_else(|| "expected a number".to_owned())
    }
}

/// Appends `v`'s JSON form to `out`. A string form is written in place
/// and escaped like any other string; axis values never need escaping in
/// practice, so the escaped copy is the rare path.
#[inline]
fn write_json<T: AxisValue>(v: &T, out: &mut String) {
    if !T::QUOTED {
        return v.write_text(out);
    }
    out.push('"');
    let start = out.len();
    v.write_text(out);
    if out[start..]
        .bytes()
        .any(|b| matches!(b, b'"' | b'\\' | 0..=0x1f))
    {
        let raw = out.split_off(start);
        out.pop();
        escape_into(&raw, out);
    } else {
        out.push('"');
    }
}

/// `v`'s JSON form as a wire value.
fn to_value<T: AxisValue>(v: &T) -> Value {
    let mut text = String::new();
    v.write_text(&mut text);
    if T::QUOTED {
        Value::Str(text)
    } else {
        Value::Num(text)
    }
}

/// Reads wire axis `key` of campaign `v`: present, non-empty (an empty
/// axis would annihilate the Cartesian product), every item through
/// `read`.
fn read_axis<T>(
    v: &Value,
    key: &str,
    read: impl Fn(&Value) -> Result<T, String>,
) -> Result<Vec<T>, String> {
    let items = v
        .get(key)
        .and_then(Value::as_arr)
        .ok_or_else(|| format!("campaign is missing the '{key}' axis"))?;
    if items.is_empty() {
        return Err(format!("campaign axis '{key}' is empty"));
    }
    items
        .iter()
        .map(|item| read(item).map_err(|e| format!("campaign axis '{key}': {e}")))
        .collect()
}

/// `for $job in &$c.$field` over each axis named, the first outermost,
/// around `body`: the expansion's nested loops, one per axis-table row.
macro_rules! nest_loops {
    ($c:ident; ; $body:block) => { $body };
    ($c:ident; $job:ident in $field:ident $(, $jobs:ident in $fields:ident)*; $body:block) => {
        for $job in &$c.$field {
            nest_loops!($c; $($jobs in $fields),*; $body)
        }
    };
}

/// Declares the campaign axes, one row each, in expansion order
/// (outermost first). A row
///
/// ```text
/// /// What one job's value means.
/// read_pct: u8 = 100, in read_pcts by read_pcts(u8), column "read%",
///     check |p| *p <= 100 => "expected a read percentage 0..=100";
/// ```
///
/// names the [`JobSpec`] field and its type, which is also the record
/// key; the default, the `Campaign`'s one value for the axis until a
/// builder replaces it; the [`Campaign`] field; the builder, also the
/// wire key, and the item type it takes; the report table's column
/// header, if the table shows the axis; and a check the wire decoder
/// applies to each value, with the error it reports.
///
/// The `Campaign` field names, types and order are frozen:
/// [`campaign_hash`](crate::campaign_hash) hashes the campaign's `Debug`
/// form, and journal headers hold that hash. `JobSpec`'s `Debug` form is
/// a checkpoint fingerprint, so its fields keep `index` first and `seed`
/// last.
macro_rules! axes {
    ($(
        $(#[doc = $doc:literal])*
        $job:ident: $ty:ty = $default:expr, in $field:ident by $builder:ident($item:ty)
        $(, column $column:literal)?
        $(, check $check:expr => $expect:literal)?;
    )*) => {
        /// One fully specified simulation: a single point of a campaign's
        /// Cartesian product.
        #[derive(Debug, Clone, PartialEq)]
        pub struct JobSpec {
            /// Position in the campaign's expansion order (stable across runs).
            pub index: usize,
            $($(#[doc = $doc])* pub $job: $ty,)*
            /// Deterministic per-job seed derived from the campaign seed and
            /// `index`.
            pub seed: u64,
        }

        /// A declarative parameter sweep: named axes whose Cartesian product
        /// expands into [`JobSpec`]s.
        ///
        /// Every axis defaults to a single sensible value, so a campaign only
        /// names the axes it actually sweeps:
        ///
        /// ```
        /// use dramctrl_mem::PagePolicy;
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
            $(
                #[doc = concat!("Values of the [`JobSpec::", stringify!($job), "`] axis.")]
                pub $field: Vec<$ty>,
            )*
        }

        impl Campaign {
            /// Creates a campaign with one value on every axis: its row's
            /// default (DDR3-1333-x64, event model, open page, FR-FCFS,
            /// 100% reads of 64-byte blocks, …).
            pub fn new(name: impl Into<String>, seed: u64) -> Self {
                Self {
                    name: name.into(),
                    seed,
                    $($field: vec![$default],)*
                }
            }

            $(
                #[doc = concat!("Replaces the [`JobSpec::", stringify!($job), "`] axis.")]
                pub fn $builder(mut self, axis: impl IntoIterator<Item = $item>) -> Self {
                    self.$field = axis.into_iter().map(Into::into).collect();
                    self
                }
            )*

            /// Number of jobs the campaign expands into, or `None` when the
            /// product of the axis lengths overflows `usize`.
            pub fn checked_len(&self) -> Option<usize> {
                [$(self.$field.len()),*]
                    .into_iter()
                    .try_fold(1, usize::checked_mul)
            }

            /// Expands the Cartesian product into jobs, in a stable nesting
            /// order: the axis table's first row outermost, its last row
            /// innermost.
            ///
            /// # Panics
            /// Panics if any axis is empty — an empty axis silently
            /// annihilating the whole product is never what a sweep author
            /// meant.
            pub fn expand(&self) -> Vec<JobSpec> {
                $(assert!(
                    !self.$field.is_empty(),
                    concat!("campaign axis '", stringify!($field), "' is empty")
                );)*
                let mut jobs = Vec::with_capacity(self.len());
                nest_loops!(self; $($job in $field),*; {
                    let index = jobs.len();
                    jobs.push(JobSpec {
                        index,
                        $($job: $job.clone(),)*
                        seed: job_seed(self.seed, index),
                    });
                });
                jobs
            }

            /// Job `index` of the expansion, decoded from the index alone
            /// — `self.job(i) == self.expand()[i]` — so a caller that
            /// needs one job at a time never holds the whole expansion.
            /// The index is a mixed-radix number whose digits are the
            /// rows' value positions, the last row least significant.
            ///
            /// # Panics
            /// Panics if `index` is not below [`len`](Self::len).
            pub fn job(&self, index: usize) -> JobSpec {
                let len = self.len();
                assert!(index < len, "job {index} of a campaign of {len} jobs");
                // Divided by each row's length in turn, outermost first:
                // at a row, the jobs one step of its value spans.
                let mut stride = len;
                $(
                    stride /= self.$field.len();
                    let $job = self.$field[index / stride % self.$field.len()].clone();
                )*
                JobSpec {
                    index,
                    $($job,)*
                    seed: job_seed(self.seed, index),
                }
            }
        }

        impl JobSpec {
            /// The report table's axis column headers, in row order.
            pub(crate) const COLUMNS: &'static [&'static str] = &[$($($column,)?)*];

            /// Appends this job's cells under [`JobSpec::COLUMNS`] to `row`.
            pub(crate) fn push_cells(&self, row: &mut Vec<String>) {
                // `$column` only selects the rows the table shows.
                $($({
                    let _: &str = $column;
                    row.push(self.$job.to_string());
                })?)*
            }

            /// Appends this job's axis members to a record line,
            /// `,"device":…` through the last row's: straight-line code,
            /// one statically dispatched writer per axis.
            #[inline]
            pub(crate) fn write_members(&self, out: &mut String) {
                $(
                    out.push_str(concat!(",\"", stringify!($job), "\":"));
                    write_json(&self.$job, out);
                )*
            }
        }

        /// Encodes a campaign for the wire: its name, its seed as a raw
        /// number token (a `u64` seed is never coerced through a float),
        /// then every axis as an array of its values' JSON forms.
        #[must_use]
        pub fn campaign_to_wire(c: &Campaign) -> Value {
            Value::Obj(vec![
                ("name".to_owned(), Value::Str(c.name.clone())),
                ("seed".to_owned(), Value::num(c.seed)),
                $((
                    stringify!($builder).to_owned(),
                    Value::Arr(c.$field.iter().map(to_value).collect()),
                ),)*
            ])
        }

        /// Decodes a wire campaign ([`campaign_to_wire`]), validating that
        /// every axis is present and non-empty and that every value reads
        /// back and passes its row's check.
        pub fn campaign_from_wire(v: &Value) -> Result<Campaign, String> {
            let name = v
                .get("name")
                .and_then(Value::as_str)
                .ok_or_else(|| "campaign is missing 'name'".to_owned())?;
            let seed = v
                .get("seed")
                .and_then(Value::as_u64)
                .ok_or_else(|| "campaign is missing a u64 'seed'".to_owned())?;
            Ok(Campaign {
                name: name.to_owned(),
                seed,
                $($field: read_axis(v, stringify!($builder), |item| {
                    let value = <$ty as AxisValue>::read(item);
                    $(
                        let check: fn(&$ty) -> bool = $check;
                        let value = value.ok().filter(check).ok_or_else(|| $expect.to_owned());
                    )?
                    value
                })?,)*
            })
        }
    };
}

// The axis table.
axes! {
    /// Device preset name (`dramctrl_mem::presets`, e.g.
    /// "DDR3-1333-x64").
    device: String = "DDR3-1333-x64".to_owned(), in devices by devices(impl Into<String>),
        column "device";
    /// Controller model.
    model: Model = Model::Event, in models by models(Model), column "model";
    /// Row-buffer management policy.
    policy: PagePolicy = PagePolicy::Open, in policies by policies(PagePolicy),
        column "policy";
    /// Request scheduling policy.
    sched: SchedPolicy = SchedPolicy::FrFcfs, in scheds by scheds(SchedPolicy),
        column "sched";
    /// Address mapping.
    mapping: AddrMapping = AddrMapping::RoRaBaCoCh, in mappings by mappings(AddrMapping),
        column "mapping";
    /// Number of memory channels (1 = single controller, >1 = crossbar).
    channels: u32 = 1, in channels by channels(u32), column "ch";
    /// Traffic pattern.
    traffic: TrafficPattern = TrafficPattern::Linear { range: 256 << 20, block: 64 },
        in traffic by traffic(TrafficPattern), column "traffic";
    /// Percentage of reads in the traffic mix (0–100).
    read_pct: u8 = 100, in read_pcts by read_pcts(u8), column "read%",
        check |p| *p <= 100 => "expected a read percentage 0..=100";
    /// Number of requests to inject.
    requests: u64 = 10_000, in request_counts by requests(u64), column "reqs";
    /// RAS error rate (faults per gigabit-hour of simulated time); `0.0`
    /// runs without a fault model.
    error_rate: f64 = 0.0, in error_rates by error_rates(f64),
        check |r| r.is_finite() && *r >= 0.0 => "expected a non-negative fault rate";
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
        // And each job decodes from its index alone.
        for (i, j) in jobs.iter().enumerate() {
            assert_eq!(&c.job(i), j);
        }
    }

    #[test]
    #[should_panic(expected = "job 12 of a campaign of 12 jobs")]
    fn job_past_the_end_panics() {
        let _ = Campaign::new("t", 1)
            .read_pcts([0, 50, 100])
            .requests([1, 2, 3, 4])
            .job(12);
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
        // A job's label is its `Debug` form: every axis, named.
        let jobs = Campaign::new("t", 1).expand();
        let l = format!("{:?}", jobs[0]);
        assert!(l.contains("device: \"DDR3-1333-x64\""));
        assert!(l.contains("model: Event"));
        assert!(l.contains("policy: Open"));
        assert!(l.contains("traffic: Linear"));
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
        // Fault-free jobs are unchanged; faulty ones name the rate.
        assert_eq!(jobs[0], plain[0]);
        assert!(format!("{:?}", jobs[1]).contains("error_rate: 10000000000.0"));
    }

    #[test]
    fn model_round_trips_from_str() {
        assert_eq!("event".parse::<Model>().unwrap(), Model::Event);
        assert_eq!("cycle".parse::<Model>().unwrap(), Model::Cycle);
        assert!("quantum".parse::<Model>().is_err());
    }
}
