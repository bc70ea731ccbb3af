//! The measurement harness that drives a generator into a controller.

use crate::TrafficGen;
use dramctrl_kernel::hash::DetMap;
use dramctrl_kernel::snap::{SnapError, SnapReader, SnapState, SnapWriter};
use dramctrl_kernel::{tick, Tick};
use dramctrl_mem::{CommonStats, Controller, MemResponse, Rejected, ReqId};
use dramctrl_stats::Histogram;
use std::collections::VecDeque;

/// Drives a [`TrafficGen`] into a [`Controller`] with flow control and
/// measures what the paper's validation plots need: end-to-end latency
/// distributions (Figures 6–7) and achieved bandwidth / bus utilisation
/// (Figures 3–5). Latency is measured *from the traffic generator*,
/// including queueing, exactly as in paper Section III-C2.
///
/// [`run`](Self::run) drives a whole stream in one call; [`begin`](Self::begin) hands out a resumable
/// [`TestRun`] whose per-request [`step`](TestRun::step) loop can be
/// paused at any request boundary, checkpointed (it implements
/// [`SnapState`]) and continued — the basis of crash-safe simulation.
///
/// # Example
/// ```
/// use dramctrl::{CtrlConfig, DramCtrl};
/// use dramctrl_mem::presets;
/// use dramctrl_traffic::{LinearGen, Tester};
///
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let mut ctrl = DramCtrl::new(CtrlConfig::new(presets::ddr3_1333_x64()))?;
/// let mut gen = LinearGen::new(0, 1 << 20, 64, 100, 6_000, 1_000, 1);
/// let summary = Tester::new(2_000, 200).run(&mut gen, &mut ctrl);
/// assert_eq!(summary.reads_completed, 1_000);
/// assert!(summary.bus_util > 0.5);
/// # Ok(())
/// # }
/// ```
#[derive(Debug)]
pub struct Tester {
    max_lat_ns: u64,
    buckets: usize,
}

/// The results of a [`Tester`] run.
#[derive(Debug, Clone)]
pub struct TestSummary {
    /// Tick at which the run (including the final drain) completed.
    pub duration: Tick,
    /// Read responses received.
    pub reads_completed: u64,
    /// Write acknowledgements received.
    pub writes_completed: u64,
    /// Requests dropped because they could never fit the controller.
    pub dropped: u64,
    /// Injection attempts that hit controller backpressure.
    pub inject_stalls: u64,
    /// End-to-end read latency distribution, in nanoseconds.
    pub read_lat_ns: Histogram,
    /// End-to-end write-acknowledgement latency distribution, in
    /// nanoseconds.
    pub write_lat_ns: Histogram,
    /// Controller statistics snapshot at the end of the run.
    pub ctrl: CommonStats,
    /// Data-bus utilisation over the run.
    pub bus_util: f64,
    /// Achieved bandwidth in GB/s over the run.
    pub bandwidth_gbps: f64,
}

impl Tester {
    /// Creates a tester whose latency histograms span `[0, max_lat_ns)` ns
    /// with `buckets` bins.
    ///
    /// # Panics
    /// Panics if `max_lat_ns` does not divide evenly into `buckets`.
    pub fn new(max_lat_ns: u64, buckets: usize) -> Self {
        // Validate eagerly so misconfiguration fails before a long run.
        let _ = Histogram::new(0, max_lat_ns, buckets);
        Self {
            max_lat_ns,
            buckets,
        }
    }

    /// Starts a resumable run. Drive it with [`TestRun::step`], then call
    /// [`TestRun::finish`]; [`run`](Self::run) is a convenience wrapper
    /// around exactly this loop.
    pub fn begin(&self) -> TestRun {
        TestRun {
            read_lat: Histogram::new(0, self.max_lat_ns, self.buckets),
            write_lat: Histogram::new(0, self.max_lat_ns, self.buckets),
            sent: Outstanding::new(),
            out: Vec::new(),
            reads: 0,
            writes: 0,
            dropped: 0,
            stalls: 0,
            now: 0,
            injected: 0,
            done: false,
        }
    }

    /// Runs the full generator stream through `ctrl` and drains.
    pub fn run<C: Controller>(&self, gen: &mut impl TrafficGen, ctrl: &mut C) -> TestSummary {
        let mut run = self.begin();
        while run.step(gen, ctrl, Tick::MAX) {}
        run.finish(ctrl)
    }
}

impl Default for Tester {
    /// A tester with a 2 us / 200-bucket latency histogram.
    fn default() -> Self {
        Self::new(2_000, 200)
    }
}

/// An in-flight [`Tester`] run that can be paused between requests.
///
/// Each [`step`](Self::step) pulls one request from the generator and
/// injects it (applying controller backpressure); the boundary between
/// steps is a legal checkpoint: snapshotting the run, the generator and
/// the controller there, then restoring all three into fresh instances,
/// continues the simulation with byte-identical results.
#[derive(Debug)]
pub struct TestRun {
    read_lat: Histogram,
    write_lat: Histogram,
    /// Injection tick of every outstanding request.
    sent: Outstanding,
    /// Scratch response buffer; always drained within a step, so it is
    /// empty at every checkpoint boundary and never serialised.
    out: Vec<MemResponse>,
    reads: u64,
    writes: u64,
    dropped: u64,
    stalls: u64,
    now: Tick,
    injected: u64,
    done: bool,
}

impl TestRun {
    /// Requests pulled from the generator so far (the step count — used to
    /// place periodic checkpoints).
    pub fn injected(&self) -> u64 {
        self.injected
    }

    /// Current simulation time at the injection frontier.
    pub fn now(&self) -> Tick {
        self.now
    }

    /// Whether the stream is exhausted (further `step` calls are no-ops).
    pub fn is_done(&self) -> bool {
        self.done
    }

    #[inline]
    fn absorb(&mut self) {
        for resp in self.out.drain(..) {
            let at = self
                .sent
                .remove(resp.id)
                .expect("response for unknown request");
            let lat_ns = round_to_ns(resp.ready_at.saturating_sub(at));
            if resp.cmd.is_read() {
                self.read_lat.record(lat_ns);
                self.reads += 1;
            } else {
                self.write_lat.record(lat_ns);
                self.writes += 1;
            }
        }
    }

    /// Pulls the next request and injects it, advancing the controller
    /// under backpressure. Returns `false` when the generator is exhausted
    /// or proposes an injection past `until` — the run is then ready for
    /// [`finish`](Self::finish).
    ///
    /// # Panics
    /// Panics if the controller rejects a request as full with no event
    /// pending, or if the generator reuses the id of a request that is
    /// still outstanding (the response could not be attributed).
    pub fn step<C: Controller>(
        &mut self,
        gen: &mut impl TrafficGen,
        ctrl: &mut C,
        until: Tick,
    ) -> bool {
        if self.done {
            return false;
        }
        let Some((t, req)) = gen.next_request() else {
            self.done = true;
            return false;
        };
        if t > until {
            self.done = true;
            return false;
        }
        self.injected += 1;
        self.now = self.now.max(t);
        ctrl.advance_to(self.now, &mut self.out);
        self.absorb();
        loop {
            match ctrl.try_send(req, self.now) {
                Ok(()) => {
                    if self.sent.insert(req.id, self.now).is_some() {
                        panic!(
                            "generator reused request id {} at tick {} while the \
                             earlier request with that id is still outstanding",
                            req.id.0, self.now
                        );
                    }
                    return true;
                }
                Err(Rejected::TooLarge) => {
                    self.dropped += 1;
                    return true;
                }
                Err(Rejected::Full) => {
                    self.stalls += 1;
                    let next = ctrl.next_event().unwrap_or_else(|| {
                        panic!(
                            "simulation stalled at tick {}: controller rejected a \
                             request as Full but schedules no event to drain it \
                             (queued work with no way forward)",
                            self.now
                        )
                    });
                    self.now = self.now.max(next);
                    if self.now > until {
                        self.dropped += 1;
                        self.done = true;
                        return false;
                    }
                    ctrl.advance_to(self.now, &mut self.out);
                    self.absorb();
                }
            }
        }
    }

    /// Drains outstanding work and produces the summary.
    ///
    /// # Panics
    /// Panics if the drained controller left a request unanswered: a
    /// lost request fails here rather than as a short completion count.
    pub fn finish<C: Controller>(mut self, ctrl: &mut C) -> TestSummary {
        let end = ctrl.drain(&mut self.out).max(self.now);
        self.absorb();
        if let Some(oldest) = self.sent.oldest() {
            panic!(
                "{} request(s) never answered after the drain (oldest outstanding id {})",
                self.sent.len(),
                oldest.0
            );
        }

        let stats = ctrl.common_stats();
        TestSummary {
            duration: end,
            reads_completed: self.reads,
            writes_completed: self.writes,
            dropped: self.dropped,
            inject_stalls: self.stalls,
            read_lat_ns: self.read_lat,
            write_lat_ns: self.write_lat,
            bus_util: stats.bus_utilisation(end),
            bandwidth_gbps: stats.bandwidth_gbps(end),
            ctrl: stats,
        }
    }
}

/// Slots in the id-indexed window of [`Outstanding`] at most: four times
/// the ~1 000 requests a tester keeps in flight in front of sixteen
/// channels (whose oldest outstanding request does lag 2 000+ ids behind
/// the newest now and then), in 64 KiB.
const WINDOW: u64 = 4096;

/// Slots a window starts with: more than one channel keeps in flight
/// (under 180 ids from oldest to newest on the benchmark's streams).
const FIRST: usize = 256;

/// The injection tick of every outstanding request, by id.
///
/// Every generator numbers its requests consecutively and they complete
/// roughly in order, so the ids in flight are a short run from the
/// oldest: slot `i` of a window belongs to id `base + i`, and an insert
/// or a remove is an index, not a hash. The window starts at the oldest
/// outstanding id (it rebases once it drains) and never grows past
/// [`WINDOW`] slots; ids below its base or beyond its cap live in a hash
/// table instead, so any id order works and only the cost differs. An id
/// is in one of the two, never both.
#[derive(Debug)]
struct Outstanding {
    /// Slot `i` is occupied iff it holds id `base + i`; a vacant slot
    /// holds another id. The front slot is always occupied.
    window: VecDeque<(ReqId, Tick)>,
    base: u64,
    /// Occupied slots of `window`.
    in_window: usize,
    spill: DetMap<ReqId, Tick>,
}

impl Outstanding {
    fn new() -> Self {
        Self {
            window: VecDeque::with_capacity(FIRST),
            base: 0,
            in_window: 0,
            spill: DetMap::default(),
        }
    }

    /// Records `id` as sent at `at`; the previous tick if `id` was already
    /// outstanding (it is overwritten, as a map insert would).
    #[inline]
    fn insert(&mut self, id: ReqId, at: Tick) -> Option<Tick> {
        if self.window.is_empty() {
            self.base = id.0;
        }
        // Below the base `i` wraps past the cap.
        let i = id.0.wrapping_sub(self.base);
        if i >= WINDOW || self.spill.contains_key(&id) {
            return self.spill.insert(id, at);
        }
        let i = i as usize;
        while self.window.len() <= i {
            if self.window.len() == self.window.capacity() {
                // Outgrown: take the cap at once rather than double up to
                // it, so a run's steady state does not wait on the rare
                // peak that would size the window.
                self.window
                    .reserve_exact(WINDOW as usize - self.window.len());
            }
            let vacant = self.base + self.window.len() as u64;
            self.window.push_back((ReqId(!vacant), 0));
        }
        let slot = &mut self.window[i];
        if slot.0 == id {
            return Some(std::mem::replace(&mut slot.1, at));
        }
        *slot = (id, at);
        self.in_window += 1;
        None
    }

    /// Forgets `id`, returning the tick it was sent at.
    #[inline]
    fn remove(&mut self, id: ReqId) -> Option<Tick> {
        let i = id.0.wrapping_sub(self.base);
        // A huge `i` (an id below the base) truncated on a narrow target
        // still cannot match: the slot's own id is compared.
        match self.window.get_mut(i as usize) {
            Some(slot) if slot.0 == id => {
                slot.0 = ReqId(!id.0);
                let at = slot.1;
                self.in_window -= 1;
                while self.window.front().is_some_and(|s| s.0 .0 != self.base) {
                    self.window.pop_front();
                    self.base += 1;
                }
                Some(at)
            }
            _ => self.spill.remove(&id),
        }
    }

    fn len(&self) -> usize {
        self.in_window + self.spill.len()
    }

    fn clear(&mut self) {
        self.window.clear();
        self.in_window = 0;
        self.spill.clear();
    }

    /// Every outstanding `(id, tick)`: the window's in ascending id order,
    /// then the hash table's in no particular order.
    fn iter(&self) -> impl Iterator<Item = (&ReqId, &Tick)> {
        let base = self.base;
        (0u64..)
            .zip(&self.window)
            .filter(move |&(i, (id, _))| id.0 == base + i)
            .map(|(_, (id, at))| (id, at))
            .chain(&self.spill)
    }

    /// The smallest outstanding id, if any.
    fn oldest(&self) -> Option<ReqId> {
        let front = self.window.front().map(|&(id, _)| id);
        front.into_iter().chain(self.spill.keys().copied()).min()
    }
}

/// `tick::to_ns(d).round()` without the float divide and libm `round`
/// per response. Below 2^50 ticks (13 days) the two agree exactly: the
/// quotient's `f64` error is far smaller than the 0.001 ns between a
/// tick count and the nearest half, and an exact half is representable.
fn round_to_ns(d: Tick) -> u64 {
    if d < 1 << 50 {
        (d + tick::NS / 2) / tick::NS
    } else {
        tick::to_ns(d).round() as u64
    }
}

impl SnapState for TestRun {
    fn save_state(&self, w: &mut SnapWriter) {
        debug_assert!(self.out.is_empty(), "responses pending mid-step");
        self.read_lat.save_state(w);
        self.write_lat.save_state(w);
        // Ascending id order: the bytes a sorted map would write, whatever
        // order the table holds them in.
        let mut sent: Vec<(ReqId, Tick)> = self.sent.iter().map(|(&id, &at)| (id, at)).collect();
        sent.sort_unstable();
        w.usize(sent.len());
        for (id, at) in sent {
            w.u64(id.0);
            w.u64(at);
        }
        w.u64(self.reads);
        w.u64(self.writes);
        w.u64(self.dropped);
        w.u64(self.stalls);
        w.u64(self.now);
        w.u64(self.injected);
        w.bool(self.done);
    }

    fn restore_state(&mut self, r: &mut SnapReader<'_>) -> Result<(), SnapError> {
        self.read_lat.restore_state(r)?;
        self.write_lat.restore_state(r)?;
        let n = r.usize()?;
        self.sent.clear();
        for _ in 0..n {
            let id = ReqId(r.u64()?);
            let at = r.u64()?;
            if self.sent.insert(id, at).is_some() {
                return Err(SnapError::Corrupt(format!(
                    "duplicate outstanding request id {}",
                    id.0
                )));
            }
        }
        self.out.clear();
        self.reads = r.u64()?;
        self.writes = r.u64()?;
        self.dropped = r.u64()?;
        self.stalls = r.u64()?;
        self.now = r.u64()?;
        self.injected = r.u64()?;
        self.done = r.bool()?;
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::LinearGen;
    use dramctrl_mem::{presets, ActivityStats, MemCmd, MemRequest, MemSpec};
    use dramctrl_stats::Report;
    use std::collections::{BTreeMap, VecDeque};

    #[test]
    fn integer_rounding_is_the_float_rounding() {
        // Every magnitude below the bound, at and around the half.
        for exp in 0..50 {
            for rem in [0, 1, 499, 500, 501, 999] {
                let d = (1u64 << exp) / 1_000 * 1_000 + rem;
                let float = tick::to_ns(d).round() as u64;
                assert_eq!(round_to_ns(d), float, "d = {d}");
            }
        }
        // Past the bound it *is* the float expression.
        for d in [1 << 50, (1 << 60) + 499, Tick::MAX] {
            assert_eq!(round_to_ns(d), tick::to_ns(d).round() as u64);
        }
    }

    /// Accepts everything and answers `latency` ticks later, so a paced
    /// stream keeps `latency / period` requests outstanding — the ~1 000
    /// ids a tester holds in front of sixteen channels.
    struct SlowMemory {
        spec: MemSpec,
        latency: Tick,
        pending: VecDeque<MemResponse>,
    }

    impl SlowMemory {
        fn new(latency: Tick) -> Self {
            Self {
                spec: presets::ddr3_1600_x64(),
                latency,
                pending: VecDeque::new(),
            }
        }
    }

    impl Controller for SlowMemory {
        fn try_send(&mut self, req: MemRequest, now: Tick) -> Result<(), Rejected> {
            self.pending
                .push_back(MemResponse::to(&req, now + self.latency));
            Ok(())
        }
        fn can_accept(&self, _: MemCmd, _: u64, _: u32) -> bool {
            true
        }
        fn next_event(&self) -> Option<Tick> {
            self.pending.front().map(|r| r.ready_at)
        }
        fn advance_to(&mut self, limit: Tick, out: &mut Vec<MemResponse>) {
            while self.pending.front().is_some_and(|r| r.ready_at <= limit) {
                out.extend(self.pending.pop_front());
            }
        }
        fn drain(&mut self, out: &mut Vec<MemResponse>) -> Tick {
            let end = self.pending.back().map_or(0, |r| r.ready_at);
            out.extend(self.pending.drain(..));
            end
        }
        fn is_idle(&self) -> bool {
            self.pending.is_empty()
        }
        fn spec(&self) -> &MemSpec {
            &self.spec
        }
        fn common_stats(&self) -> CommonStats {
            CommonStats::default()
        }
        fn activity(&mut self, _: Tick) -> ActivityStats {
            ActivityStats::default()
        }
        fn report(&self, prefix: &str, _: Tick) -> Report {
            Report::new(prefix)
        }
    }

    fn snapshot(run: &TestRun) -> Vec<u8> {
        let mut w = SnapWriter::new(0);
        run.save_state(&mut w);
        w.into_bytes()
    }

    /// `save_state` as it was while `sent` was a `BTreeMap`: the map
    /// written in its own iteration order.
    fn snapshot_via_btreemap(run: &TestRun) -> Vec<u8> {
        let sent: BTreeMap<ReqId, Tick> = run.sent.iter().map(|(&id, &at)| (id, at)).collect();
        let mut w = SnapWriter::new(0);
        run.read_lat.save_state(&mut w);
        run.write_lat.save_state(&mut w);
        w.usize(sent.len());
        for (&id, &at) in &sent {
            w.u64(id.0);
            w.u64(at);
        }
        w.u64(run.reads);
        w.u64(run.writes);
        w.u64(run.dropped);
        w.u64(run.stalls);
        w.u64(run.now);
        w.u64(run.injected);
        w.bool(run.done);
        w.into_bytes()
    }

    #[test]
    fn outstanding_ids_serialise_ascending_whatever_the_insertion_order() {
        let mut run = Tester::default().begin();
        for id in (0..300u64).rev() {
            run.sent.insert(ReqId(id * 7), id);
        }
        let bytes = snapshot(&run);
        assert_eq!(bytes, snapshot_via_btreemap(&run));
        // Skip both histograms, then read the table back in file order.
        let mut r = SnapReader::new(&bytes, 0).unwrap();
        let mut skip = Tester::default().begin();
        skip.read_lat.restore_state(&mut r).unwrap();
        skip.write_lat.restore_state(&mut r).unwrap();
        let n = r.usize().unwrap();
        let ids: Vec<u64> = (0..n)
            .map(|_| {
                let id = r.u64().unwrap();
                r.u64().unwrap();
                id
            })
            .collect();
        assert_eq!(ids, (0..300u64).map(|id| id * 7).collect::<Vec<_>>());
    }

    #[test]
    fn mid_stream_snapshot_is_byte_identical_to_the_btreemap_encoding() {
        // The hmc_16ch stream (linear, 67 % reads), paced so that about a
        // thousand requests are in flight at the checkpoint.
        let mut gen = LinearGen::new(0, 1 << 30, 64, 67, 1_000, 5_000, 3);
        let mut mem = SlowMemory::new(1_000_000);
        let mut run = Tester::default().begin();
        while run.injected() < 3_000 && run.step(&mut gen, &mut mem, Tick::MAX) {}
        assert!(run.sent.len() >= 900, "only {} outstanding", run.sent.len());
        let bytes = snapshot(&run);
        assert_eq!(bytes, snapshot_via_btreemap(&run));

        // And it restores: a fresh run loaded from it finishes the stream
        // exactly as the original does.
        let mut restored = Tester::default().begin();
        let mut r = SnapReader::new(&bytes, 0).unwrap();
        restored.restore_state(&mut r).unwrap();
        assert!(r.is_exhausted());
        assert_eq!(snapshot(&restored), bytes);
    }

    /// A run restores only into a tester of its own histogram geometry:
    /// anywhere else every percentile's bucket edges would move.
    #[test]
    fn restore_refuses_a_run_of_another_histogram_geometry() {
        let mut gen = LinearGen::new(0, 1 << 20, 64, 67, 1_000, 500, 3);
        let mut mem = SlowMemory::new(1_000_000);
        let mut run = Tester::new(200_000, 1_000).begin();
        while run.injected() < 300 && run.step(&mut gen, &mut mem, Tick::MAX) {}
        let bytes = snapshot(&run);
        let restore = |tester: Tester| {
            let mut into = tester.begin();
            into.restore_state(&mut SnapReader::new(&bytes, 0).unwrap())
        };
        assert!(restore(Tester::new(200_000, 1_000)).is_ok());
        let err = restore(Tester::new(100_000, 1_000)).unwrap_err();
        assert!(err.to_string().contains("histogram"), "{err}");
    }

    #[test]
    #[should_panic(expected = "reused request id 7 at tick 2000")]
    fn reusing_an_outstanding_id_panics_at_injection() {
        struct Repeats(u64);
        impl TrafficGen for Repeats {
            fn next_request(&mut self) -> Option<(Tick, MemRequest)> {
                self.0 += 1;
                // Ids 6, 7, then 7 again while the first is in flight.
                let id = (5 + self.0).min(7);
                Some((self.0 * 1_000 - 1_000, MemRequest::read(ReqId(id), 0, 64)))
            }
        }
        Tester::default().run(&mut Repeats(0), &mut SlowMemory::new(1_000_000));
    }

    /// Every outstanding `(id, tick)`, ascending — what a snapshot writes.
    fn sorted(sent: &Outstanding) -> Vec<(ReqId, Tick)> {
        let mut all: Vec<_> = sent.iter().map(|(&id, &at)| (id, at)).collect();
        all.sort_unstable();
        all
    }

    #[test]
    fn outstanding_window_matches_a_btreemap_over_random_completion_orders() {
        use dramctrl_kernel::rng::Rng;
        for seed in 0..8 {
            let mut rng = Rng::seed_from_u64(seed);
            let mut sent = Outstanding::new();
            let mut model = BTreeMap::new();
            let mut next = rng.gen_range(0..1 << 40);
            for step in 0..20_000u64 {
                // Alternate phases that fill (spans past the cap) and that
                // drain (to empty, so the window rebases).
                let insert_pct = if step / 2_500 % 2 == 0 { 70 } else { 20 };
                if model.is_empty() || rng.gen_range(0..100) < insert_pct {
                    let id = match rng.gen_range(0..40) {
                        // Below the base: a stale id, or a duplicate.
                        0 => ReqId(next.saturating_sub(rng.gen_range(1..2 * WINDOW))),
                        // Far beyond the cap.
                        1 => {
                            next += rng.gen_range(WINDOW..3 * WINDOW);
                            ReqId(next)
                        }
                        _ => {
                            next += 1;
                            ReqId(next)
                        }
                    };
                    assert_eq!(
                        sent.insert(id, step),
                        model.insert(id, step),
                        "insert {id:?}"
                    );
                } else {
                    // A random outstanding id, or now and then one that
                    // is not outstanding.
                    let probe = ReqId(rng.gen_range(next.saturating_sub(3 * WINDOW)..next + 2));
                    let id = match model.range(probe..).next() {
                        Some((&id, _)) if rng.gen_range(0..10) != 0 => id,
                        _ => probe,
                    };
                    assert_eq!(sent.remove(id), model.remove(&id), "remove {id:?}");
                }
                assert_eq!(sent.len(), model.len());
                if step % 500 == 0 {
                    assert_eq!(sent.oldest(), model.keys().next().copied());
                    let want: Vec<_> = model.iter().map(|(&id, &at)| (id, at)).collect();
                    assert_eq!(sorted(&sent), want);
                }
            }
        }
    }

    #[test]
    fn outstanding_ids_below_the_base_and_past_the_cap_spill_and_come_back() {
        let mut sent = Outstanding::new();
        assert_eq!(sent.window.capacity(), FIRST);
        for id in 100..100 + WINDOW {
            assert_eq!(sent.insert(ReqId(id), id), None);
        }
        assert_eq!(sent.in_window, WINDOW as usize);
        assert_eq!(
            sent.window.capacity(),
            WINDOW as usize,
            "one step to the cap"
        );
        // Past the cap and below the base: both spill.
        assert_eq!(sent.insert(ReqId(100 + WINDOW), 1), None);
        assert_eq!(sent.insert(ReqId(99), 2), None);
        assert_eq!(sent.spill.len(), 2);
        assert_eq!(sent.oldest(), Some(ReqId(99)));
        // A duplicate is reported wherever the id lives.
        assert_eq!(sent.insert(ReqId(99), 3), Some(2));
        assert_eq!(sent.insert(ReqId(150), 4), Some(150));
        assert_eq!(sent.remove(ReqId(99)), Some(3));
        assert_eq!(sent.remove(ReqId(99)), None);
        // Retiring the oldest slides the base; ids keep their ticks.
        assert_eq!(sent.remove(ReqId(100)), Some(100));
        assert_eq!(sent.base, 101);
        assert_eq!(sent.remove(ReqId(100 + WINDOW)), Some(1));
        assert_eq!(sent.len(), WINDOW as usize - 1);
    }

    #[test]
    fn outstanding_window_rebases_once_it_drains() {
        let mut sent = Outstanding::new();
        for id in 10..20 {
            sent.insert(ReqId(id), id);
        }
        // Out of order: the front slot stays until id 10 goes.
        for id in (11..20).rev() {
            assert_eq!(sent.remove(ReqId(id)), Some(id));
            assert_eq!(sent.base, 10);
        }
        assert_eq!(sent.remove(ReqId(10)), Some(10));
        assert!(sent.window.is_empty() && sent.len() == 0);
        // The next id starts a fresh window wherever it is, even far below
        // the old base or far above its cap.
        for start in [3, 1 << 50] {
            assert_eq!(sent.insert(ReqId(start), 7), None);
            assert_eq!((sent.base, sent.in_window, sent.spill.len()), (start, 1, 0));
            assert_eq!(sent.remove(ReqId(start)), Some(7));
        }
        // A drained window with a spilled id in its new range still finds
        // the duplicate there.
        sent.insert(ReqId(0), 1);
        sent.insert(ReqId(WINDOW + 5), 2);
        sent.remove(ReqId(0));
        sent.insert(ReqId(WINDOW), 3);
        assert_eq!(sent.insert(ReqId(WINDOW + 5), 4), Some(2));
        assert_eq!(sorted(&sent), [(ReqId(WINDOW), 3), (ReqId(WINDOW + 5), 4)]);
    }

    #[test]
    #[should_panic(expected = "3 request(s) never answered after the drain \
                               (oldest outstanding id 0)")]
    fn a_controller_that_loses_requests_fails_the_run() {
        /// Accepts everything and answers nothing.
        struct Lossy(MemSpec);
        impl Controller for Lossy {
            fn try_send(&mut self, _: MemRequest, _: Tick) -> Result<(), Rejected> {
                Ok(())
            }
            fn can_accept(&self, _: MemCmd, _: u64, _: u32) -> bool {
                true
            }
            fn next_event(&self) -> Option<Tick> {
                None
            }
            fn advance_to(&mut self, _: Tick, _: &mut Vec<MemResponse>) {}
            fn drain(&mut self, _: &mut Vec<MemResponse>) -> Tick {
                0
            }
            fn is_idle(&self) -> bool {
                true
            }
            fn spec(&self) -> &MemSpec {
                &self.0
            }
            fn common_stats(&self) -> CommonStats {
                CommonStats::default()
            }
            fn activity(&mut self, _: Tick) -> ActivityStats {
                ActivityStats::default()
            }
            fn report(&self, prefix: &str, _: Tick) -> Report {
                Report::new(prefix)
            }
        }
        let mut gen = LinearGen::new(0, 1 << 20, 64, 100, 1_000, 3, 1);
        Tester::default().run(&mut gen, &mut Lossy(presets::ddr3_1600_x64()));
    }
}
