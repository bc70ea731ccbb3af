//! Spans recorded from the harness's side of each layer boundary.
//!
//! Nothing inside the program is instrumented: [`Spanned`] implements
//! the public [`Controller`] trait around any controller and
//! [`SpannedGen`] the public [`TrafficGen`] trait around any generator,
//! so `Tester` and `MultiChannel` take them unchanged. Calls too fine to
//! keep one by one (a few million per simulated second) are folded into
//! per-boundary `(calls, busy)` pairs with the calibrated cost of the
//! timer itself subtracted; everything coarser is a [`Span`] kept in
//! memory and written out once, at exit.

use dramctrl_kernel::Tick;
use dramctrl_mem::{
    ActivityStats, CommonStats, Controller, MemCmd, MemRequest, MemResponse, MemSpec, Rejected,
};
use dramctrl_stats::Report;
use dramctrl_traffic::TrafficGen;
use std::fmt::Write as _;
use std::time::Instant;

/// Calls and busy time folded over one boundary.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct Fold {
    /// Calls made across the boundary.
    pub calls: u64,
    /// Host nanoseconds spent inside them, timer cost included.
    pub raw_ns: u64,
}

impl Fold {
    #[inline]
    fn time<R>(&mut self, f: impl FnOnce() -> R) -> R {
        let t = Instant::now();
        let r = f();
        self.raw_ns += t.elapsed().as_nanos() as u64;
        self.calls += 1;
        r
    }

    /// Busy seconds with the timer's share of each measurement taken
    /// back out.
    pub fn busy_s(&self, timer: &Timer) -> f64 {
        (self.raw_ns as f64 - self.calls as f64 * timer.inside_ns).max(0.0) / 1e9
    }

    /// Seconds the enclosing span lost to timing these calls at all.
    pub fn overhead_s(&self, timer: &Timer) -> f64 {
        self.calls as f64 * timer.pair_ns / 1e9
    }

    /// Adds another fold's calls and time.
    pub fn add(&mut self, other: &Fold) {
        self.calls += other.calls;
        self.raw_ns += other.raw_ns;
    }
}

/// What timing one folded call costs, calibrated on this host.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct Timer {
    /// Nanoseconds of the timer itself that land *inside* a measurement
    /// (between the two clock reads): subtracted from the call's busy.
    pub inside_ns: f64,
    /// Nanoseconds one timed call of an empty body takes in all:
    /// subtracted, per call, from the enclosing span's self time.
    pub pair_ns: f64,
}

impl Timer {
    /// Times an empty body: the median of several batches, so that a
    /// preempted batch does not inflate the result.
    pub fn calibrate() -> Self {
        const BATCH: u64 = 100_000;
        let (mut inside, mut pair) = (Vec::new(), Vec::new());
        for _ in 0..9 {
            let mut f = Fold::default();
            let t = Instant::now();
            for _ in 0..BATCH {
                f.time(|| std::hint::black_box(()));
            }
            pair.push(t.elapsed().as_nanos() as f64 / BATCH as f64);
            inside.push(f.raw_ns as f64 / BATCH as f64);
        }
        Self {
            inside_ns: crate::stats::median(&inside),
            pair_ns: crate::stats::median(&pair),
        }
    }
}

/// What a [`Spanned`] controller saw at its boundary.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct CtrlFolds {
    /// `try_send` calls.
    pub try_send: Fold,
    /// `try_send` calls refused with [`Rejected::Full`].
    pub rejected_full: u64,
    /// `advance_to` calls.
    pub advance: Fold,
    /// `drain` calls.
    pub drain: Fold,
}

impl CtrlFolds {
    /// The three timed calls as one fold.
    pub fn total(&self) -> Fold {
        let mut all = self.try_send;
        all.add(&self.advance);
        all.add(&self.drain);
        all
    }
}

/// A controller with its boundary timed. Behaviour is the wrapped
/// controller's, call for call.
#[derive(Debug)]
pub struct Spanned<C> {
    inner: C,
    /// Accumulated calls and time.
    pub folds: CtrlFolds,
}

impl<C: Controller> Spanned<C> {
    /// Wraps `inner`.
    pub fn new(inner: C) -> Self {
        Self {
            inner,
            folds: CtrlFolds::default(),
        }
    }

    /// The wrapped controller.
    pub fn inner(&self) -> &C {
        &self.inner
    }
}

impl<C: Controller> Controller for Spanned<C> {
    fn try_send(&mut self, req: MemRequest, now: Tick) -> Result<(), Rejected> {
        let inner = &mut self.inner;
        let r = self.folds.try_send.time(|| inner.try_send(req, now));
        if r == Err(Rejected::Full) {
            self.folds.rejected_full += 1;
        }
        r
    }

    fn can_accept(&self, cmd: MemCmd, addr: u64, size: u32) -> bool {
        self.inner.can_accept(cmd, addr, size)
    }

    fn next_event(&self) -> Option<Tick> {
        self.inner.next_event()
    }

    fn advance_to(&mut self, limit: Tick, out: &mut Vec<MemResponse>) {
        let inner = &mut self.inner;
        self.folds.advance.time(|| inner.advance_to(limit, out));
    }

    fn drain(&mut self, out: &mut Vec<MemResponse>) -> Tick {
        let inner = &mut self.inner;
        self.folds.drain.time(|| inner.drain(out))
    }

    fn is_idle(&self) -> bool {
        self.inner.is_idle()
    }

    fn spec(&self) -> &MemSpec {
        self.inner.spec()
    }

    fn common_stats(&self) -> CommonStats {
        self.inner.common_stats()
    }

    fn activity(&mut self, now: Tick) -> ActivityStats {
        self.inner.activity(now)
    }

    fn report(&self, prefix: &str, now: Tick) -> Report {
        self.inner.report(prefix, now)
    }
}

/// A traffic generator with `next_request` timed.
#[derive(Debug)]
pub struct SpannedGen<G> {
    inner: G,
    /// Accumulated calls and time.
    pub fold: Fold,
}

impl<G: TrafficGen> SpannedGen<G> {
    /// Wraps `inner`.
    pub fn new(inner: G) -> Self {
        Self {
            inner,
            fold: Fold::default(),
        }
    }
}

impl<G: TrafficGen> TrafficGen for SpannedGen<G> {
    fn next_request(&mut self) -> Option<(Tick, MemRequest)> {
        let inner = &mut self.inner;
        self.fold.time(|| inner.next_request())
    }
}

/// One kept span. `parent` is the index of the span that caused it;
/// spans of one request, job or campaign share `id`.
#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    /// `layer.what`, e.g. `runner.job`.
    pub name: &'static str,
    /// Nanoseconds since the recorder's epoch.
    pub start_ns: u64,
    /// Nanoseconds since the recorder's epoch.
    pub end_ns: u64,
    /// Index of the causing span in the recorder, if any.
    pub parent: Option<usize>,
    /// Request, job or campaign identifier shared along one cause chain.
    pub id: u64,
}

impl Span {
    /// Duration in seconds.
    pub fn secs(&self) -> f64 {
        (self.end_ns - self.start_ns) as f64 / 1e9
    }
}

/// A folded boundary attached to the span it ran under.
#[derive(Debug, Clone, PartialEq)]
pub struct Folded {
    /// `layer.call`, e.g. `core.try_send`.
    pub name: String,
    /// Index of the enclosing span.
    pub parent: usize,
    /// Calls made.
    pub calls: u64,
    /// Busy seconds, timer cost already subtracted.
    pub busy_s: f64,
    /// Seconds of the parent that went into timing these calls.
    pub overhead_s: f64,
}

/// In-memory span store for one traced run.
#[derive(Debug)]
pub struct Recorder {
    epoch: Instant,
    /// Kept spans, in recording order.
    pub spans: Vec<Span>,
    /// Folded boundaries.
    pub folded: Vec<Folded>,
}

impl Default for Recorder {
    fn default() -> Self {
        Self::new()
    }
}

impl Recorder {
    /// An empty recorder whose epoch is now.
    pub fn new() -> Self {
        Self {
            epoch: Instant::now(),
            spans: Vec::new(),
            folded: Vec::new(),
        }
    }

    /// Nanoseconds from the epoch to `t`.
    pub fn ns(&self, t: Instant) -> u64 {
        t.saturating_duration_since(self.epoch).as_nanos() as u64
    }

    /// Records a finished span; returns its index for use as a parent.
    pub fn push(
        &mut self,
        name: &'static str,
        start: Instant,
        end: Instant,
        parent: Option<usize>,
        id: u64,
    ) -> usize {
        let (start_ns, end_ns) = (self.ns(start), self.ns(end));
        self.spans.push(Span {
            name,
            start_ns,
            end_ns,
            parent,
            id,
        });
        self.spans.len() - 1
    }

    /// Attaches a folded boundary to span `parent`.
    pub fn fold(&mut self, name: impl Into<String>, parent: usize, fold: &Fold, timer: &Timer) {
        self.folded.push(Folded {
            name: name.into(),
            parent,
            calls: fold.calls,
            busy_s: fold.busy_s(timer),
            overhead_s: fold.overhead_s(timer),
        });
    }

    /// Self time of span `idx`: its duration minus the part of it its
    /// direct children cover — kept child spans (clipped to the parent,
    /// overlaps between siblings counted once) plus folded children and
    /// what timing those cost.
    pub fn self_s(&self, idx: usize) -> f64 {
        let me = &self.spans[idx];
        let mut kids: Vec<(u64, u64)> = self
            .spans
            .iter()
            .filter(|s| s.parent == Some(idx))
            .map(|s| (s.start_ns.max(me.start_ns), s.end_ns.min(me.end_ns)))
            .filter(|(a, b)| b > a)
            .collect();
        kids.sort_unstable();
        let mut covered = 0u64;
        let mut cursor = me.start_ns;
        for (a, b) in kids {
            let a = a.max(cursor);
            if b > a {
                covered += b - a;
                cursor = b;
            }
        }
        let folded: f64 = self
            .folded
            .iter()
            .filter(|f| f.parent == idx)
            .map(|f| f.busy_s + f.overhead_s)
            .sum();
        (me.secs() - covered as f64 / 1e9 - folded).max(0.0)
    }

    /// The whole recording as one JSON document.
    pub fn to_json(&self, workload: &str, host_json: &str) -> String {
        let mut out = String::with_capacity(64 + self.spans.len() * 96);
        let _ = write!(
            out,
            "{{\"workload\":\"{workload}\",\"host\":{host_json},\"unit\":\"ns since trace epoch\",\"spans\":["
        );
        for (i, s) in self.spans.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            let _ = write!(
                out,
                "\n{{\"i\":{i},\"name\":\"{}\",\"start\":{},\"end\":{},\"parent\":{},\"id\":{}}}",
                s.name,
                s.start_ns,
                s.end_ns,
                s.parent.map_or("null".to_owned(), |p| p.to_string()),
                s.id
            );
        }
        out.push_str("\n],\"folded\":[");
        for (i, f) in self.folded.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            let _ = write!(
                out,
                "\n{{\"name\":\"{}\",\"parent\":{},\"calls\":{},\"busy_s\":{},\"timer_s\":{}}}",
                f.name,
                f.parent,
                f.calls,
                crate::report::num(f.busy_s),
                crate::report::num(f.overhead_s)
            );
        }
        out.push_str("\n]}\n");
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dramctrl::PagePolicy;
    use dramctrl_bench::ev_ctrl;
    use dramctrl_mem::{presets, AddrMapping};
    use dramctrl_system::MultiChannel;
    use dramctrl_traffic::{RandomGen, Tester};
    use std::time::Duration;

    #[test]
    fn self_time_is_span_minus_children() {
        let mut r = Recorder::new();
        let t0 = r.epoch;
        let at = |ms: u64| t0 + Duration::from_millis(ms);
        let root = r.push("a.root", at(0), at(100), None, 1);
        // Two overlapping children cover [10, 50]; one sticks out past
        // the parent and is clipped to [90, 100].
        r.push("b.kid", at(10), at(40), Some(root), 1);
        r.push("b.kid", at(30), at(50), Some(root), 1);
        r.push("b.kid", at(90), at(130), Some(root), 1);
        // A grandchild is its parent's business, not the root's.
        r.push("c.grandkid", at(12), at(20), Some(1), 1);
        // 1 000 calls of 10 us each; the timer adds 25 ns inside every
        // measurement and costs the parent 1 us per call in all.
        let timer = Timer {
            inside_ns: 25.0,
            pair_ns: 1_000.0,
        };
        let f = Fold {
            calls: 1_000,
            raw_ns: 10_000_000 + 1_000 * 25,
        };
        r.fold("b.folded", root, &f, &timer);
        assert!((r.folded[0].busy_s - 0.010).abs() < 1e-12);
        // 100 ms - (40 + 10) ms kept - 10 ms folded - 1 ms of timing
        assert!((r.self_s(root) - 0.039).abs() < 1e-9, "{}", r.self_s(root));
        assert!((r.self_s(1) - 0.022).abs() < 1e-9);
        dramctrl_obs::json::validate(&r.to_json("t", "{}")).expect("trace json validates");
    }

    #[test]
    fn fold_never_goes_negative() {
        let f = Fold {
            calls: 10,
            raw_ns: 100,
        };
        let timer = Timer {
            inside_ns: 50.0,
            pair_ns: 80.0,
        };
        assert_eq!(f.busy_s(&timer), 0.0);
        let t = Timer::calibrate();
        assert!(t.inside_ns > 0.0 && t.pair_ns >= t.inside_ns, "{t:?}");
    }

    /// Wrapped and bare runs must be the same simulation: identical
    /// summary and identical report bytes, single- and multi-channel.
    #[test]
    fn spanned_wrappers_are_transparent() {
        let tester = Tester::new(200_000, 1_000);
        let gen = || RandomGen::new(0, 64 << 20, 64, 67, 0, 5_000, 7);
        let ctrl = |ch| {
            ev_ctrl(
                presets::ddr3_1600_x64(),
                PagePolicy::Open,
                AddrMapping::RoRaBaCoCh,
                ch,
            )
        };

        let mut bare = ctrl(1);
        let a = tester.run(&mut gen(), &mut bare);
        let mut wrapped = Spanned::new(ctrl(1));
        let mut g = SpannedGen::new(gen());
        let b = tester.run(&mut g, &mut wrapped);
        assert_eq!(format!("{a:?}"), format!("{b:?}"));
        assert_eq!(
            bare.report("c", a.duration).to_json(),
            wrapped.report("c", b.duration).to_json()
        );
        assert_eq!(g.fold.calls, 5_001); // 5 000 requests + the final None
        assert_eq!(
            wrapped.folds.try_send.calls,
            5_000 + wrapped.folds.rejected_full
        );
        assert_eq!(wrapped.folds.rejected_full, b.inject_stalls);
        assert_eq!(wrapped.folds.drain.calls, 1);

        let mut bare = MultiChannel::new((0..4).map(|_| ctrl(4)).collect(), 0).unwrap();
        let a = tester.run(&mut gen(), &mut bare);
        let inner = (0..4).map(|_| Spanned::new(ctrl(4))).collect();
        let mut wrapped = Spanned::new(MultiChannel::new(inner, 0).unwrap());
        let b = tester.run(&mut gen(), &mut wrapped);
        assert_eq!(format!("{a:?}"), format!("{b:?}"));
        assert_eq!(
            bare.report("x", a.duration).to_json(),
            wrapped.report("x", b.duration).to_json()
        );
        let inner_sends: u64 = (0..4)
            .map(|i| wrapped.inner().channel(i).folds.try_send.calls)
            .sum();
        assert_eq!(inner_sends, wrapped.folds.try_send.calls);
    }
}
