use std::cmp::Ordering;
use std::collections::{BinaryHeap, VecDeque};

use crate::tick::Tick;

/// Monotone runs in front of the heap: one is captured by a standing
/// far-future event (a controller's next refresh), which leaves one each
/// for decisions near `now` and acks one access latency ahead.
const RUNS: usize = 3;

/// A deterministic discrete-event queue.
///
/// Events are ordered by tick; events scheduled for the same tick are
/// delivered in insertion order (FIFO). This tie-break makes simulations
/// reproducible regardless of container internals.
///
/// Delivery order is the total order on `(tick, seq)`, where `seq` is the
/// insertion count — and nothing else. Where an entry is *stored* is a
/// cost decision only: simulators mostly schedule in tick order, so an
/// entry that is not earlier than the tail of one of a few FIFO runs is
/// appended there in O(1), and only the out-of-order remainder pays the
/// binary heap's sift. Each run is sorted by `(tick, seq)` by
/// construction (ticks non-decreasing on append, `seq` always
/// increasing), so the global minimum is the smallest of the run fronts
/// and the heap top, which is what [`pop`](Self::pop) takes: exactly the
/// order a single heap delivers.
///
/// The queue tracks the current simulated time: popping an event advances
/// `now()` to the event's tick. Scheduling in the past is a logic error and
/// panics (in both debug and release builds) — an event-based model must
/// never rewind time.
///
/// # Example
/// ```
/// use dramctrl_kernel::EventQueue;
///
/// let mut q = EventQueue::new();
/// q.schedule(100, "b");
/// q.schedule(100, "c"); // same tick: FIFO order
/// q.schedule(50, "a");
/// let order: Vec<_> = std::iter::from_fn(|| q.pop()).collect();
/// assert_eq!(order, vec![(50, "a"), (100, "b"), (100, "c")]);
/// ```
#[derive(Debug)]
pub struct EventQueue<E> {
    /// Each sorted by `(tick, seq)`; an entry joins the first run whose
    /// tail is not later than it.
    runs: [VecDeque<Entry<E>>; RUNS],
    /// Entries earlier than every run's tail when they were scheduled.
    heap: BinaryHeap<Entry<E>>,
    /// Pending entries over the runs and the heap.
    len: usize,
    /// The earliest pending entry and where it sits, kept current by
    /// `place` and `pop_until`: peeking is a field read, and a pop scans
    /// the run fronts and the heap top once, for its successor.
    next: Option<Next>,
    seq: u64,
    now: Tick,
    /// Optional watchdog: latest tick the simulation is allowed to reach.
    budget: Option<Tick>,
}

/// A diagnosed no-progress condition: the simulation holds outstanding
/// work but no event that could retire it, or it ran past its tick
/// budget. Raised by [`EventQueue::check_progress`] so drivers fail with
/// a state summary instead of hanging silently.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SimStall {
    /// Simulated time at which the stall was detected.
    pub at: Tick,
    /// A component state summary (queue depths, bus state, …) supplied by
    /// the caller for the diagnostic.
    pub detail: String,
}

impl std::fmt::Display for SimStall {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "simulation stalled at tick {}: {}", self.at, self.detail)
    }
}

impl std::error::Error for SimStall {}

#[derive(Debug)]
struct Entry<E> {
    tick: Tick,
    seq: u64,
    event: E,
}

impl<E> Entry<E> {
    #[inline]
    fn key(&self) -> (Tick, u64) {
        (self.tick, self.seq)
    }
}

/// Tick and place of the earliest pending entry: `source` is a run's
/// index, or `RUNS` for the heap.
#[derive(Debug, Clone, Copy)]
struct Next {
    tick: Tick,
    source: usize,
}

// Min-heap ordering on (tick, seq): BinaryHeap is a max-heap, so reverse.
impl<E> Ord for Entry<E> {
    fn cmp(&self, other: &Self) -> Ordering {
        other.key().cmp(&self.key())
    }
}

impl<E> PartialOrd for Entry<E> {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl<E> PartialEq for Entry<E> {
    fn eq(&self, other: &Self) -> bool {
        self.key() == other.key()
    }
}

impl<E> Eq for Entry<E> {}

impl<E> EventQueue<E> {
    /// Creates an empty queue with `now() == 0`. Runs and heap grow on
    /// demand; a component's steady state sizes them within its first
    /// few hundred events.
    pub fn new() -> Self {
        Self::with_capacity(0)
    }

    /// Creates an empty queue whose heap has room for `capacity` events
    /// before it reallocates — for a component that schedules mostly out
    /// of tick order and knows how many events it keeps pending. The
    /// runs always grow on demand: reserving a bound in each would hold
    /// it several times over.
    pub fn with_capacity(capacity: usize) -> Self {
        Self {
            runs: std::array::from_fn(|_| VecDeque::new()),
            heap: BinaryHeap::with_capacity(capacity),
            len: 0,
            next: None,
            seq: 0,
            now: 0,
            budget: None,
        }
    }

    /// Arms (or disarms, with `None`) the watchdog: once `now()` passes
    /// `budget`, [`check_progress`](Self::check_progress) reports a
    /// [`SimStall`]. Off by default.
    pub fn set_tick_budget(&mut self, budget: Option<Tick>) {
        self.budget = budget;
    }

    /// The no-progress guard. Returns a [`SimStall`] when the component
    /// holds `outstanding > 0` items of work but no event is pending (the
    /// simulation would hang), or when the armed tick budget has been
    /// exceeded (the simulation is live-locked or runaway). `detail` is
    /// evaluated lazily, only on a stall, to render the component's state
    /// summary.
    pub fn check_progress(
        &self,
        outstanding: usize,
        detail: impl FnOnce() -> String,
    ) -> Result<(), SimStall> {
        if outstanding > 0 && self.is_empty() {
            return Err(SimStall {
                at: self.now,
                detail: format!(
                    "{outstanding} outstanding item(s) but no event scheduled; {}",
                    detail()
                ),
            });
        }
        if let Some(budget) = self.budget {
            if self.now > budget {
                return Err(SimStall {
                    at: self.now,
                    detail: format!("tick budget {budget} exceeded; {}", detail()),
                });
            }
        }
        Ok(())
    }

    /// The current simulated time (the tick of the last popped event).
    pub fn now(&self) -> Tick {
        self.now
    }

    /// Schedules `event` at absolute time `at`.
    ///
    /// # Panics
    /// Panics if `at` is earlier than `now()`.
    pub fn schedule(&mut self, at: Tick, event: E) {
        assert!(
            at >= self.now,
            "scheduling in the past: at={} now={}",
            at,
            self.now
        );
        let seq = self.seq;
        self.seq += 1;
        self.place(Entry {
            tick: at,
            seq,
            event,
        });
    }

    /// Stores `entry`, whose `seq` is larger than any stored one: behind
    /// the first run it is not earlier than the tail of, else in the heap.
    #[inline]
    fn place(&mut self, entry: Entry<E>) {
        self.len += 1;
        // Earlier than everything pending only by tick: on a tie the
        // pending entry has the smaller `seq`. (Behind a non-empty run's
        // tail it never is — the run's front is not later than its tail.)
        let tick = entry.tick;
        let source = self
            .runs
            .iter()
            .position(|run| run.back().map_or(true, |tail| tail.tick <= tick))
            .unwrap_or(RUNS);
        if self.next.map_or(true, |next| tick < next.tick) {
            self.next = Some(Next { tick, source });
        }
        match self.runs.get_mut(source) {
            Some(run) => run.push_back(entry),
            None => self.heap.push(entry),
        }
    }

    /// The smallest `(tick, seq)` over the run fronts and the heap top.
    #[inline]
    fn scan(&self) -> Option<Next> {
        let mut best: Option<((Tick, u64), usize)> = None;
        let fronts = self.runs.iter().map(VecDeque::front);
        for (source, front) in fronts.chain([self.heap.peek()]).enumerate() {
            let Some(front) = front else { continue };
            if best.map_or(true, |(key, _)| front.key() < key) {
                best = Some((front.key(), source));
            }
        }
        best.map(|((tick, _), source)| Next { tick, source })
    }

    /// The tick of the earliest pending event, if any.
    #[inline]
    pub fn peek_tick(&self) -> Option<Tick> {
        self.next.map(|next| next.tick)
    }

    /// Removes and returns the earliest event, advancing `now()` to its tick.
    pub fn pop(&mut self) -> Option<(Tick, E)> {
        self.pop_until(Tick::MAX)
    }

    /// Removes and returns the earliest event only if it is due at or before
    /// `limit`. Leaves `now()` untouched otherwise.
    #[inline]
    pub fn pop_until(&mut self, limit: Tick) -> Option<(Tick, E)> {
        let next = self.next.filter(|next| next.tick <= limit)?;
        let entry = match self.runs.get_mut(next.source) {
            Some(run) => run.pop_front(),
            None => self.heap.pop(),
        }
        .expect("`next` names a non-empty source");
        debug_assert_eq!(entry.tick, next.tick);
        debug_assert!(entry.tick >= self.now);
        self.len -= 1;
        self.now = entry.tick;
        self.next = self.scan();
        Some((entry.tick, entry.event))
    }

    /// Number of pending events.
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether no events are pending.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Drops all pending events; `now()` is preserved.
    pub fn clear(&mut self) {
        for run in &mut self.runs {
            run.clear();
        }
        self.heap.clear();
        self.len = 0;
        self.next = None;
    }

    /// Returns the queue to its just-constructed state — no pending
    /// events, `now() == 0`, sequence counter rewound, watchdog disarmed
    /// — while keeping the runs' and the heap's allocations.
    pub fn reset(&mut self) {
        self.clear();
        self.seq = 0;
        self.now = 0;
        self.budget = None;
    }

    /// Appends the queue's full state — current time, the sequence
    /// counter, the watchdog budget and every pending entry — to a
    /// snapshot. Entries are written in pop order, i.e. sorted by
    /// `(tick, seq)`; since that pair totally orders delivery, a queue
    /// rebuilt from them pops identically to this one, and the bytes do
    /// not say which run or heap an entry was stored in. `enc` serialises
    /// one event payload.
    pub fn save_state(
        &self,
        w: &mut crate::snap::SnapWriter,
        mut enc: impl FnMut(&mut crate::snap::SnapWriter, &E),
    ) {
        w.u64(self.now);
        w.u64(self.seq);
        w.opt_u64(self.budget);
        let mut entries: Vec<&Entry<E>> = self.runs.iter().flatten().chain(&self.heap).collect();
        entries.sort_by_key(|e| e.key());
        w.usize(entries.len());
        for e in entries {
            w.u64(e.tick);
            w.u64(e.seq);
            enc(w, &e.event);
        }
    }

    /// Replaces the queue's state with one previously captured by
    /// [`save_state`](Self::save_state). `dec` deserialises one event
    /// payload. The queue is left as it was on an error.
    ///
    /// # Errors
    /// Returns a [`SnapError`](crate::snap::SnapError) on a truncated
    /// stream, a failing `dec`, or entries that violate the queue's
    /// ordering invariants (an entry before `now`, or a pending `seq` at
    /// or beyond the sequence counter).
    pub fn restore_state(
        &mut self,
        r: &mut crate::snap::SnapReader<'_>,
        mut dec: impl FnMut(&mut crate::snap::SnapReader<'_>) -> Result<E, crate::snap::SnapError>,
    ) -> Result<(), crate::snap::SnapError> {
        use crate::snap::SnapError;
        let now = r.u64()?;
        let seq = r.u64()?;
        let budget = r.opt_u64()?;
        let n = r.usize()?;
        let mut entries = Vec::new();
        for _ in 0..n {
            let tick = r.u64()?;
            let entry_seq = r.u64()?;
            if tick < now {
                return Err(SnapError::Corrupt(format!(
                    "pending event at tick {tick} is before now {now}"
                )));
            }
            if entry_seq >= seq {
                return Err(SnapError::Corrupt(format!(
                    "pending event seq {entry_seq} is at or beyond the counter {seq}"
                )));
            }
            let event = dec(r)?;
            entries.push(Entry {
                tick,
                seq: entry_seq,
                event,
            });
        }
        // A run is sorted by `(tick, seq)` only if appends carry rising
        // `seq`s; a saved queue's entries are in pop order, so sorting is
        // a no-op there and a guard against a hand-made stream.
        entries.sort_by_key(Entry::key);
        self.clear();
        for entry in entries {
            self.place(entry);
        }
        self.seq = seq;
        self.now = now;
        self.budget = budget;
        Ok(())
    }
}

impl<E> Default for EventQueue<E> {
    fn default() -> Self {
        Self::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rng::Rng;

    #[test]
    fn pop_advances_now() {
        let mut q = EventQueue::new();
        q.schedule(10, ());
        q.schedule(20, ());
        assert_eq!(q.now(), 0);
        q.pop();
        assert_eq!(q.now(), 10);
        q.pop();
        assert_eq!(q.now(), 20);
    }

    #[test]
    fn fifo_within_same_tick() {
        let mut q = EventQueue::new();
        for i in 0..100 {
            q.schedule(42, i);
        }
        for i in 0..100 {
            assert_eq!(q.pop(), Some((42, i)));
        }
    }

    /// The controllers' events are 32-byte payloads (48-byte heap
    /// entries); whatever their size, delivery order is the `(tick, seq)`
    /// key alone — FIFO at equal ticks, through interleaved pops and a
    /// heap deep enough to sift.
    #[test]
    fn fifo_within_same_tick_for_32_byte_payloads() {
        type Payload = [u64; 4];
        assert_eq!(std::mem::size_of::<Payload>(), 32);
        assert_eq!(std::mem::size_of::<Entry<Payload>>(), 48);
        let mut q = EventQueue::new();
        let mut rng = Rng::seed_from_u64(0x32B);
        let mut expect: Vec<(Tick, u64)> = Vec::new();
        let mut got = Vec::new();
        let mut n = 0u64;
        for round in 0..200u64 {
            // A handful of distinct ticks per round, so ties are common.
            for _ in 0..rng.gen_range(1..12) {
                let t = round * 10 + rng.gen_range(0..3) * 5;
                q.schedule(t.max(q.now()), [n, !n, t, 0xEE]);
                expect.push((t.max(q.now()), n));
                n += 1;
            }
            for _ in 0..rng.gen_range(0..8) {
                if let Some((t, p)) = q.pop() {
                    assert_eq!(p, [p[0], !p[0], p[2], 0xEE], "payload intact");
                    got.push((t, p[0]));
                }
            }
        }
        got.extend(std::iter::from_fn(|| q.pop()).map(|(t, p)| (t, p[0])));
        // Insertion order is ascending `n`, so a stable sort by tick is
        // exactly "by tick, FIFO within a tick".
        expect.sort_by_key(|&(t, _)| t);
        assert_eq!(got, expect);
    }

    #[test]
    #[should_panic(expected = "scheduling in the past")]
    fn scheduling_in_past_panics() {
        let mut q = EventQueue::new();
        q.schedule(10, ());
        q.pop();
        q.schedule(5, ());
    }

    #[test]
    fn pop_until_respects_limit() {
        let mut q = EventQueue::new();
        q.schedule(10, "a");
        q.schedule(30, "b");
        assert_eq!(q.pop_until(20), Some((10, "a")));
        assert_eq!(q.pop_until(20), None);
        assert_eq!(q.now(), 10);
        assert_eq!(q.pop_until(30), Some((30, "b")));
    }

    #[test]
    fn with_capacity_behaves_like_new() {
        let mut q = EventQueue::with_capacity(16);
        assert_eq!(q.now(), 0);
        assert!(q.is_empty());
        q.schedule(3, "x");
        assert_eq!(q.pop(), Some((3, "x")));
    }

    #[test]
    fn watchdog_detects_no_progress_and_budget() {
        let mut q = EventQueue::new();
        // Idle and empty: fine.
        q.check_progress(0, || unreachable!("detail not rendered"))
            .unwrap();
        // Outstanding work with no event: stall.
        let err = q.check_progress(3, || "readq=3".to_owned()).unwrap_err();
        assert_eq!(err.at, 0);
        assert!(err.detail.contains("3 outstanding"));
        assert!(err.detail.contains("readq=3"));
        assert!(format!("{err}").contains("stalled at tick 0"));
        // Pending event: no stall even with outstanding work.
        q.schedule(10, ());
        q.check_progress(3, || unreachable!()).unwrap();
        // Budget watchdog fires once now passes the budget.
        q.set_tick_budget(Some(5));
        q.pop();
        let err = q.check_progress(0, || "bus=idle".to_owned()).unwrap_err();
        assert_eq!(err.at, 10);
        assert!(err.detail.contains("tick budget 5 exceeded"));
        q.set_tick_budget(None);
        q.check_progress(0, || unreachable!()).unwrap();
    }

    #[test]
    fn len_and_clear() {
        let mut q = EventQueue::new();
        assert!(q.is_empty());
        q.schedule(1, ());
        q.schedule(2, ());
        assert_eq!(q.len(), 2);
        q.clear();
        assert!(q.is_empty());
        assert_eq!(q.peek_tick(), None);
    }

    /// Randomised (seeded, deterministic) case generator: vectors of
    /// ticks in `[0, 1000)` with lengths in `[1, max_len)`.
    fn random_tick_vecs(seed: u64, cases: usize, max_len: u64) -> Vec<Vec<Tick>> {
        let mut rng = Rng::seed_from_u64(seed);
        (0..cases)
            .map(|_| {
                let len = rng.gen_range(1..max_len);
                (0..len).map(|_| rng.gen_range(0..1_000)).collect()
            })
            .collect()
    }

    /// Events always come out in non-decreasing tick order, and events
    /// with equal ticks come out in insertion order.
    #[test]
    fn ordering_invariant() {
        for ticks in random_tick_vecs(0xE0E0, 256, 200) {
            let mut q = EventQueue::new();
            for (i, &t) in ticks.iter().enumerate() {
                q.schedule(t, i);
            }
            let mut prev: Option<(Tick, usize)> = None;
            while let Some((t, i)) = q.pop() {
                if let Some((pt, pi)) = prev {
                    assert!(t >= pt);
                    if t == pt {
                        assert!(i > pi);
                    }
                }
                prev = Some((t, i));
            }
        }
    }

    /// A queue restored from a snapshot pops the exact same stream as the
    /// original — including FIFO tie-breaks and the watchdog budget.
    #[test]
    fn snapshot_round_trip_preserves_pop_order() {
        use crate::snap::{SnapReader, SnapWriter};
        for ticks in random_tick_vecs(0xBEEF, 64, 100) {
            let mut q = EventQueue::new();
            q.set_tick_budget(Some(5_000));
            for (i, &t) in ticks.iter().enumerate() {
                q.schedule(t, i as u64);
            }
            // Pop a few to move `now` and the counter off their defaults.
            for _ in 0..ticks.len() / 3 {
                q.pop();
            }

            let mut w = SnapWriter::new(0);
            q.save_state(&mut w, |w, e| w.u64(*e));
            let bytes = w.into_bytes();
            let mut r = SnapReader::new(&bytes, 0).unwrap();
            let mut restored: EventQueue<u64> = EventQueue::new();
            restored.restore_state(&mut r, |r| r.u64()).unwrap();
            assert!(r.is_exhausted());

            assert_eq!(restored.now(), q.now());
            assert_eq!(restored.len(), q.len());
            // Future scheduling interleaves identically (same seq counter).
            q.schedule(q.now() + 1, 999);
            restored.schedule(restored.now() + 1, 999);
            let a: Vec<_> = std::iter::from_fn(|| q.pop()).collect();
            let b: Vec<_> = std::iter::from_fn(|| restored.pop()).collect();
            assert_eq!(a, b);
        }
    }

    #[test]
    fn snapshot_rejects_corrupt_entries() {
        use crate::snap::{SnapError, SnapReader, SnapWriter};
        let mut q = EventQueue::new();
        q.schedule(10, ());
        q.pop(); // now = 10
        let mut w = SnapWriter::new(0);
        // Hand-craft: an entry at tick 5, before now=10.
        w.u64(10); // now
        w.u64(7); // seq counter
        w.opt_u64(None);
        w.usize(1);
        w.u64(5); // tick < now
        w.u64(0);
        let bytes = w.into_bytes();
        let mut r = SnapReader::new(&bytes, 0).unwrap();
        let err = q.restore_state(&mut r, |_| Ok(())).unwrap_err();
        assert!(matches!(err, SnapError::Corrupt(_)));
    }

    /// now() equals the tick of the last popped event.
    #[test]
    fn now_tracks_pops() {
        for ticks in random_tick_vecs(0x1111, 256, 50) {
            let mut q = EventQueue::new();
            for &t in &ticks {
                q.schedule(t, ());
            }
            let mut max_seen = 0;
            while let Some((t, ())) = q.pop() {
                max_seen = max_seen.max(t);
                assert_eq!(q.now(), t);
            }
            assert_eq!(q.now(), max_seen);
        }
    }
}
