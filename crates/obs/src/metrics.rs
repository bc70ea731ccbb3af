//! A dependency-free metrics registry with Prometheus text exposition.
//!
//! The simulator crates must stay free of external dependencies, so this
//! module provides the minimal operational-metrics vocabulary in plain
//! `std`: monotonically increasing [`Counter`]s, settable [`Gauge`]s, and
//! fixed-bucket [`Histogram`]s, all backed by atomics so hot paths record
//! without taking a lock. A [`Registry`] owns the families and renders
//! them in two stable formats:
//!
//! * [`Registry::render_prometheus`] — the Prometheus text exposition
//!   format (`# HELP`/`# TYPE` headers, `_bucket{le=...}`/`_sum`/`_count`
//!   histogram series), suitable for a `/metrics` endpoint.
//! * [`Registry::render_json`] — a stable line-free JSON export for
//!   programmatic consumers.
//!
//! Handles are cheap `Arc` clones: instrumented code keeps its handle and
//! touches one atomic per event; the registry lock is only taken at
//! registration and render time. Observing a metric never influences the
//! simulation — the same zero-perturbation discipline as the probe layer.
//!
//! ```
//! use dramctrl_obs::metrics::Registry;
//!
//! let reg = Registry::new();
//! let hits = reg.counter("cache_hits_total", "Cache hits.", &[("tier", "l1")]);
//! hits.inc();
//! let text = reg.render_prometheus();
//! assert!(text.contains("cache_hits_total{tier=\"l1\"} 1"));
//! dramctrl_obs::metrics::validate_exposition(&text).unwrap();
//! ```

use crate::json::{escape_into, json_f64};
use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

/// A monotonically increasing counter.
///
/// Cloning shares the underlying atomic; all clones observe the same
/// value. Counters only go up — rates and deltas are the scraper's job.
#[derive(Debug, Clone, Default)]
pub struct Counter(Arc<AtomicU64>);

impl Counter {
    /// Increments by one.
    pub fn inc(&self) {
        self.0.fetch_add(1, Ordering::Relaxed);
    }

    /// Increments by `n`.
    pub fn add(&self, n: u64) {
        self.0.fetch_add(n, Ordering::Relaxed);
    }

    /// Current value.
    pub fn get(&self) -> u64 {
        self.0.load(Ordering::Relaxed)
    }
}

/// A gauge: a value that can go up and down (queue depth, connections,
/// rates). Stored as `f64` bits in an atomic so readers never tear.
#[derive(Debug, Clone)]
pub struct Gauge(Arc<AtomicU64>);

impl Default for Gauge {
    fn default() -> Self {
        Self(Arc::new(AtomicU64::new(0f64.to_bits())))
    }
}

impl Gauge {
    /// Sets the gauge to `v`.
    pub fn set(&self, v: f64) {
        self.0.store(v.to_bits(), Ordering::Relaxed);
    }

    /// Adds `d` (negative to decrement) with a compare-and-swap loop.
    pub fn add(&self, d: f64) {
        let mut cur = self.0.load(Ordering::Relaxed);
        loop {
            let next = (f64::from_bits(cur) + d).to_bits();
            match self
                .0
                .compare_exchange_weak(cur, next, Ordering::Relaxed, Ordering::Relaxed)
            {
                Ok(_) => return,
                Err(seen) => cur = seen,
            }
        }
    }

    /// Increments by one.
    pub fn inc(&self) {
        self.add(1.0);
    }

    /// Decrements by one.
    pub fn dec(&self) {
        self.add(-1.0);
    }

    /// Current value.
    pub fn get(&self) -> f64 {
        f64::from_bits(self.0.load(Ordering::Relaxed))
    }
}

/// A float-valued counter for accumulated durations (e.g. total busy
/// seconds). Prometheus counters may be floats; this one only adds.
#[derive(Debug, Clone, Default)]
pub struct FloatCounter(Gauge);

impl FloatCounter {
    /// Adds `d` seconds (or whatever the unit is). `d` must be >= 0.
    pub fn add(&self, d: f64) {
        self.0.add(d.max(0.0));
    }

    /// Current value.
    pub fn get(&self) -> f64 {
        self.0.get()
    }
}

#[derive(Debug)]
struct HistInner {
    /// Upper bounds of the finite buckets, ascending. An implicit +Inf
    /// bucket follows.
    bounds: Vec<f64>,
    /// `bounds.len() + 1` cumulative-by-render (stored per-bucket) counts.
    counts: Vec<AtomicU64>,
    /// Total observations.
    count: AtomicU64,
    /// Sum of observations in nanounits (fixed point: 1e-9), so the sum
    /// is exact for latencies and survives atomic addition.
    sum_nano: AtomicU64,
}

/// A fixed-bucket histogram (latencies, batch sizes).
///
/// Buckets are chosen at registration; observation is two relaxed atomic
/// adds plus a linear scan over the (small) bound list.
#[derive(Debug, Clone)]
pub struct Histogram(Arc<HistInner>);

impl Histogram {
    fn new(bounds: &[f64]) -> Self {
        let mut b: Vec<f64> = bounds.to_vec();
        b.sort_by(|x, y| x.partial_cmp(y).unwrap());
        b.dedup();
        let counts = (0..=b.len()).map(|_| AtomicU64::new(0)).collect();
        Self(Arc::new(HistInner {
            bounds: b,
            counts,
            count: AtomicU64::new(0),
            sum_nano: AtomicU64::new(0),
        }))
    }

    /// Records one observation.
    pub fn observe(&self, v: f64) {
        let i = self
            .0
            .bounds
            .iter()
            .position(|&b| v <= b)
            .unwrap_or(self.0.bounds.len());
        self.0.counts[i].fetch_add(1, Ordering::Relaxed);
        self.0.count.fetch_add(1, Ordering::Relaxed);
        let nanos = (v.max(0.0) * 1e9).round() as u64;
        self.0.sum_nano.fetch_add(nanos, Ordering::Relaxed);
    }

    /// Total number of observations.
    pub fn count(&self) -> u64 {
        self.0.count.load(Ordering::Relaxed)
    }

    /// Sum of all observations.
    pub fn sum(&self) -> f64 {
        self.0.sum_nano.load(Ordering::Relaxed) as f64 / 1e9
    }
}

/// Default latency buckets (seconds): 50µs .. 10s, roughly 1-2.5-5 per
/// decade — wide enough for fsync latencies on anything from tmpfs to a
/// loaded spinning disk.
pub const LATENCY_BUCKETS: &[f64] = &[
    50e-6, 100e-6, 250e-6, 500e-6, 1e-3, 2.5e-3, 5e-3, 10e-3, 25e-3, 50e-3, 100e-3, 250e-3, 500e-3,
    1.0, 2.5, 10.0,
];

/// Default size buckets (counts): powers of two 1 .. 4096, for batch
/// sizes and queue depths.
pub const SIZE_BUCKETS: &[f64] = &[
    1.0, 2.0, 4.0, 8.0, 16.0, 32.0, 64.0, 128.0, 256.0, 512.0, 1024.0, 4096.0,
];

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Kind {
    Counter,
    FloatCounter,
    Gauge,
    Histogram,
}

impl Kind {
    fn type_str(self) -> &'static str {
        match self {
            Kind::Counter | Kind::FloatCounter => "counter",
            Kind::Gauge => "gauge",
            Kind::Histogram => "histogram",
        }
    }
}

#[derive(Debug, Clone)]
enum Child {
    Counter(Counter),
    FloatCounter(FloatCounter),
    Gauge(Gauge),
    Histogram(Histogram),
}

#[derive(Debug)]
struct Family {
    name: String,
    help: String,
    kind: Kind,
    /// Children keyed by their rendered label string (`{k="v",...}` or
    /// empty), kept sorted for stable output.
    children: BTreeMap<String, Child>,
}

/// The metric registry: a named, labelled family store with stable
/// Prometheus and JSON rendering. Cheap to clone (shared `Arc`).
#[derive(Debug, Clone, Default)]
pub struct Registry {
    families: Arc<Mutex<Vec<Family>>>,
}

fn label_str(labels: &[(&str, &str)]) -> String {
    if labels.is_empty() {
        return String::new();
    }
    let mut sorted: Vec<_> = labels.to_vec();
    sorted.sort();
    let mut s = String::from("{");
    for (i, (k, v)) in sorted.iter().enumerate() {
        if i > 0 {
            s.push(',');
        }
        let _ = write!(s, "{k}=\"{}\"", escape_label(v));
    }
    s.push('}');
    s
}

fn escape_label(v: &str) -> String {
    let mut out = String::with_capacity(v.len());
    for c in v.chars() {
        match c {
            '\\' => out.push_str("\\\\"),
            '"' => out.push_str("\\\""),
            '\n' => out.push_str("\\n"),
            c => out.push(c),
        }
    }
    out
}

/// Renders an `f64` the way Prometheus expects: `+Inf` for infinity,
/// integral values without a trailing `.0` kept as-is via `{}`.
fn fmt_f64(v: f64) -> String {
    if v == f64::INFINITY {
        "+Inf".into()
    } else {
        format!("{v}")
    }
}

impl Registry {
    /// A fresh, empty registry.
    pub fn new() -> Self {
        Self::default()
    }

    fn child(&self, name: &str, help: &str, kind: Kind, labels: &[(&str, &str)]) -> Child {
        let ls = label_str(labels);
        let mut fams = self.families.lock().unwrap();
        let fam = match fams.iter_mut().find(|f| f.name == name) {
            Some(f) => {
                assert!(
                    f.kind == kind,
                    "metric {name} re-registered with a different kind"
                );
                f
            }
            None => {
                fams.push(Family {
                    name: name.into(),
                    help: help.into(),
                    kind,
                    children: BTreeMap::new(),
                });
                fams.last_mut().unwrap()
            }
        };
        fam.children
            .entry(ls)
            .or_insert_with(|| match kind {
                Kind::Counter => Child::Counter(Counter::default()),
                Kind::FloatCounter => Child::FloatCounter(FloatCounter::default()),
                Kind::Gauge => Child::Gauge(Gauge::default()),
                Kind::Histogram => unreachable!("histograms use histogram()"),
            })
            .clone()
    }

    /// Finds or creates the counter `name{labels}`. Repeated calls with
    /// the same name and labels return handles to the same atomic.
    pub fn counter(&self, name: &str, help: &str, labels: &[(&str, &str)]) -> Counter {
        match self.child(name, help, Kind::Counter, labels) {
            Child::Counter(c) => c,
            _ => unreachable!(),
        }
    }

    /// Finds or creates a float-valued counter (for accumulated seconds).
    pub fn fcounter(&self, name: &str, help: &str, labels: &[(&str, &str)]) -> FloatCounter {
        match self.child(name, help, Kind::FloatCounter, labels) {
            Child::FloatCounter(c) => c,
            _ => unreachable!(),
        }
    }

    /// Finds or creates the gauge `name{labels}`.
    pub fn gauge(&self, name: &str, help: &str, labels: &[(&str, &str)]) -> Gauge {
        match self.child(name, help, Kind::Gauge, labels) {
            Child::Gauge(g) => g,
            _ => unreachable!(),
        }
    }

    /// Finds or creates the histogram `name{labels}` with the given
    /// finite bucket bounds (an implicit `+Inf` bucket is appended).
    pub fn histogram(
        &self,
        name: &str,
        help: &str,
        labels: &[(&str, &str)],
        bounds: &[f64],
    ) -> Histogram {
        let ls = label_str(labels);
        let mut fams = self.families.lock().unwrap();
        let fam = match fams.iter_mut().find(|f| f.name == name) {
            Some(f) => {
                assert!(
                    f.kind == Kind::Histogram,
                    "metric {name} re-registered with a different kind"
                );
                f
            }
            None => {
                fams.push(Family {
                    name: name.into(),
                    help: help.into(),
                    kind: Kind::Histogram,
                    children: BTreeMap::new(),
                });
                fams.last_mut().unwrap()
            }
        };
        match fam
            .children
            .entry(ls)
            .or_insert_with(|| Child::Histogram(Histogram::new(bounds)))
        {
            Child::Histogram(h) => h.clone(),
            _ => unreachable!(),
        }
    }

    /// Renders every family in the Prometheus text exposition format,
    /// families sorted by name and children by label string, so output
    /// is stable across renders and registration orders.
    pub fn render_prometheus(&self) -> String {
        let fams = self.families.lock().unwrap();
        let mut order: Vec<usize> = (0..fams.len()).collect();
        order.sort_by(|&a, &b| fams[a].name.cmp(&fams[b].name));
        let mut out = String::new();
        for &i in &order {
            let f = &fams[i];
            let _ = writeln!(out, "# HELP {} {}", f.name, f.help);
            let _ = writeln!(out, "# TYPE {} {}", f.name, f.kind.type_str());
            for (ls, child) in &f.children {
                match child {
                    Child::Counter(c) => {
                        let _ = writeln!(out, "{}{} {}", f.name, ls, c.get());
                    }
                    Child::FloatCounter(c) => {
                        let _ = writeln!(out, "{}{} {}", f.name, ls, fmt_f64(c.get()));
                    }
                    Child::Gauge(g) => {
                        let _ = writeln!(out, "{}{} {}", f.name, ls, fmt_f64(g.get()));
                    }
                    Child::Histogram(h) => {
                        let inner = &h.0;
                        let mut cum = 0u64;
                        for (bi, bound) in inner
                            .bounds
                            .iter()
                            .copied()
                            .chain(std::iter::once(f64::INFINITY))
                            .enumerate()
                        {
                            cum += inner.counts[bi].load(Ordering::Relaxed);
                            let le = fmt_f64(bound);
                            let lbl = if ls.is_empty() {
                                format!("{{le=\"{le}\"}}")
                            } else {
                                format!("{},le=\"{le}\"}}", &ls[..ls.len() - 1])
                            };
                            let _ = writeln!(out, "{}_bucket{} {}", f.name, lbl, cum);
                        }
                        let _ = writeln!(out, "{}_sum{} {}", f.name, ls, fmt_f64(h.sum()));
                        let _ = writeln!(out, "{}_count{} {}", f.name, ls, h.count());
                    }
                }
            }
        }
        out
    }

    /// Renders every family as one stable JSON object:
    /// `{"families":[{"name":...,"type":...,"samples":[{"labels":...,"value":...}]}]}`.
    /// Histograms export count, sum and per-bucket cumulative counts.
    pub fn render_json(&self) -> String {
        let fams = self.families.lock().unwrap();
        let mut order: Vec<usize> = (0..fams.len()).collect();
        order.sort_by(|&a, &b| fams[a].name.cmp(&fams[b].name));
        let mut out = String::from("{\"families\":[");
        for (oi, &i) in order.iter().enumerate() {
            let f = &fams[i];
            if oi > 0 {
                out.push(',');
            }
            let _ = write!(
                out,
                "{{\"name\":\"{}\",\"type\":\"{}\",\"samples\":[",
                f.name,
                f.kind.type_str()
            );
            for (ci, (ls, child)) in f.children.iter().enumerate() {
                if ci > 0 {
                    out.push(',');
                }
                out.push_str("{\"labels\":");
                escape_into(ls, &mut out);
                out.push(',');
                match child {
                    Child::Counter(c) => {
                        let _ = write!(out, "\"value\":{}}}", c.get());
                    }
                    Child::FloatCounter(c) => {
                        let _ = write!(out, "\"value\":{}}}", json_f64(c.get()));
                    }
                    Child::Gauge(g) => {
                        let _ = write!(out, "\"value\":{}}}", json_f64(g.get()));
                    }
                    Child::Histogram(h) => {
                        let inner = &h.0;
                        let _ = write!(
                            out,
                            "\"count\":{},\"sum\":{},\"buckets\":[",
                            h.count(),
                            json_f64(h.sum())
                        );
                        let mut cum = 0u64;
                        for (bi, bound) in inner
                            .bounds
                            .iter()
                            .copied()
                            .chain(std::iter::once(f64::INFINITY))
                            .enumerate()
                        {
                            cum += inner.counts[bi].load(Ordering::Relaxed);
                            if bi > 0 {
                                out.push(',');
                            }
                            let _ = if bound == f64::INFINITY {
                                write!(out, "{{\"le\":\"+Inf\",\"count\":{cum}}}")
                            } else {
                                write!(out, "{{\"le\":{},\"count\":{cum}}}", json_f64(bound))
                            };
                        }
                        out.push_str("]}");
                    }
                }
            }
            out.push_str("]}");
        }
        out.push_str("]}");
        out
    }
}

/// Validates Prometheus text exposition: every family has exactly one
/// `# TYPE` line appearing before its samples, no duplicate families,
/// every sample line parses (`name{labels} value`), and every histogram
/// carries a `+Inf` bucket plus `_sum`/`_count` series.
pub fn validate_exposition(text: &str) -> Result<(), String> {
    let mut typed: BTreeMap<String, String> = BTreeMap::new();
    let mut hist_has_inf: BTreeMap<String, bool> = BTreeMap::new();
    let mut hist_has_sum: BTreeMap<String, bool> = BTreeMap::new();
    let mut hist_has_count: BTreeMap<String, bool> = BTreeMap::new();
    for (ln, line) in text.lines().enumerate() {
        let ln = ln + 1;
        if line.is_empty() {
            continue;
        }
        if let Some(rest) = line.strip_prefix("# TYPE ") {
            let mut parts = rest.splitn(2, ' ');
            let name = parts.next().unwrap_or("").to_string();
            let kind = parts.next().unwrap_or("").to_string();
            if name.is_empty() || kind.is_empty() {
                return Err(format!("line {ln}: malformed TYPE line: {line}"));
            }
            if typed.insert(name.clone(), kind.clone()).is_some() {
                return Err(format!("line {ln}: duplicate family {name}"));
            }
            if kind == "histogram" {
                hist_has_inf.insert(name.clone(), false);
                hist_has_sum.insert(name.clone(), false);
                hist_has_count.insert(name, false);
            }
            continue;
        }
        if line.starts_with('#') {
            continue;
        }
        // Sample: name[{labels}] value
        let name_end = line
            .find(['{', ' '])
            .ok_or_else(|| format!("line {ln}: no name terminator: {line}"))?;
        let name = &line[..name_end];
        let rest = &line[name_end..];
        let value = if let Some(stripped) = rest.strip_prefix('{') {
            let close = stripped
                .find('}')
                .ok_or_else(|| format!("line {ln}: unclosed labels: {line}"))?;
            if stripped.contains("+Inf") {
                if let Some(base) = name.strip_suffix("_bucket") {
                    if let Some(v) = hist_has_inf.get_mut(base) {
                        *v = true;
                    }
                }
            }
            stripped[close + 1..].trim()
        } else {
            rest.trim()
        };
        if value.is_empty() || value.parse::<f64>().is_err() && value != "+Inf" && value != "NaN" {
            return Err(format!("line {ln}: bad sample value {value:?}: {line}"));
        }
        // Resolve the family this sample belongs to: exact, or a
        // histogram series suffix.
        let base = ["_bucket", "_sum", "_count"]
            .iter()
            .find_map(|suf| {
                name.strip_suffix(suf)
                    .filter(|b| typed.get(*b).map(|k| k == "histogram").unwrap_or(false))
            })
            .unwrap_or(name);
        if !typed.contains_key(base) {
            return Err(format!("line {ln}: sample {name} has no TYPE line"));
        }
        if typed.get(base).map(|k| k == "histogram").unwrap_or(false) {
            if name.ends_with("_sum") {
                hist_has_sum.insert(base.to_string(), true);
            }
            if name.ends_with("_count") {
                hist_has_count.insert(base.to_string(), true);
            }
        }
    }
    for (name, seen) in &hist_has_inf {
        if !*seen {
            return Err(format!("histogram {name} has no +Inf bucket"));
        }
    }
    for (name, seen) in &hist_has_sum {
        if !*seen {
            return Err(format!("histogram {name} has no _sum series"));
        }
    }
    for (name, seen) in &hist_has_count {
        if !*seen {
            return Err(format!("histogram {name} has no _count series"));
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counter_and_gauge_roundtrip() {
        let reg = Registry::new();
        let c = reg.counter("reqs_total", "Requests.", &[("tenant", "a")]);
        c.inc();
        c.add(4);
        assert_eq!(c.get(), 5);
        // Same name+labels returns the same atomic.
        let c2 = reg.counter("reqs_total", "Requests.", &[("tenant", "a")]);
        c2.inc();
        assert_eq!(c.get(), 6);
        let g = reg.gauge("depth", "Queue depth.", &[]);
        g.set(3.0);
        g.dec();
        assert_eq!(g.get(), 2.0);
        let text = reg.render_prometheus();
        assert!(text.contains("reqs_total{tenant=\"a\"} 6"), "{text}");
        assert!(text.contains("depth 2"), "{text}");
        validate_exposition(&text).unwrap();
    }

    #[test]
    fn histogram_buckets_cumulative() {
        let reg = Registry::new();
        let h = reg.histogram("lat_seconds", "Latency.", &[], &[0.001, 0.01, 0.1]);
        h.observe(0.0005);
        h.observe(0.005);
        h.observe(0.5);
        assert_eq!(h.count(), 3);
        assert!((h.sum() - 0.5055).abs() < 1e-9);
        let text = reg.render_prometheus();
        assert!(
            text.contains("lat_seconds_bucket{le=\"0.001\"} 1"),
            "{text}"
        );
        assert!(text.contains("lat_seconds_bucket{le=\"0.01\"} 2"), "{text}");
        assert!(text.contains("lat_seconds_bucket{le=\"0.1\"} 2"), "{text}");
        assert!(text.contains("lat_seconds_bucket{le=\"+Inf\"} 3"), "{text}");
        assert!(text.contains("lat_seconds_count 3"), "{text}");
        validate_exposition(&text).unwrap();
    }

    #[test]
    fn labelled_histogram_renders_le_inside_braces() {
        let reg = Registry::new();
        let h = reg.histogram("x_seconds", "X.", &[("op", "fsync")], &[0.5]);
        h.observe(0.1);
        let text = reg.render_prometheus();
        assert!(
            text.contains("x_seconds_bucket{op=\"fsync\",le=\"0.5\"} 1"),
            "{text}"
        );
        validate_exposition(&text).unwrap();
    }

    #[test]
    fn render_is_stable_and_sorted() {
        let reg = Registry::new();
        reg.counter("z_total", "Z.", &[]);
        reg.counter("a_total", "A.", &[("t", "b")]);
        reg.counter("a_total", "A.", &[("t", "a")]);
        let t1 = reg.render_prometheus();
        let t2 = reg.render_prometheus();
        assert_eq!(t1, t2);
        let a = t1.find("# TYPE a_total").unwrap();
        let z = t1.find("# TYPE z_total").unwrap();
        assert!(a < z);
        let ta = t1.find("a_total{t=\"a\"}").unwrap();
        let tb = t1.find("a_total{t=\"b\"}").unwrap();
        assert!(ta < tb);
    }

    #[test]
    fn json_export_is_valid() {
        let reg = Registry::new();
        reg.counter("c_total", "C.", &[]).add(7);
        reg.gauge("g", "G.", &[("k", "v")]).set(1.5);
        reg.histogram("h_seconds", "H.", &[], &[1.0]).observe(0.5);
        let json = reg.render_json();
        crate::json::validate(&json).unwrap();
        assert!(json.contains("\"name\":\"c_total\""), "{json}");
        assert!(json.contains("\"le\":\"+Inf\""), "{json}");
    }

    #[test]
    fn validator_rejects_garbage() {
        assert!(validate_exposition("no_type_line 3\n").is_err());
        assert!(validate_exposition("# TYPE a counter\n# TYPE a counter\na 1\n").is_err());
        assert!(validate_exposition("# TYPE a counter\na pancake\n").is_err());
        // Histogram without +Inf bucket.
        let bad = "# TYPE h histogram\nh_bucket{le=\"1\"} 1\nh_sum 1\nh_count 1\n";
        assert!(validate_exposition(bad).is_err());
    }

    #[test]
    fn label_values_are_escaped() {
        let reg = Registry::new();
        reg.counter("e_total", "E.", &[("p", "a\"b\\c")]).inc();
        let text = reg.render_prometheus();
        assert!(text.contains("e_total{p=\"a\\\"b\\\\c\"} 1"), "{text}");
        validate_exposition(&text).unwrap();
    }
}
