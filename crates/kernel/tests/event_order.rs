//! `EventQueue` against the definition of its order: a `Vec` of
//! `(tick, insertion number)` stably sorted by tick. Where the queue
//! keeps an entry (a run or the heap) must never show: every pop, peek,
//! length and snapshot byte is compared, so an order that differs by one
//! element anywhere fails here.

use dramctrl_kernel::rng::Rng;
use dramctrl_kernel::snap::{SnapReader, SnapWriter};
use dramctrl_kernel::{EventQueue, Tick};

/// The order, spelled out: pending `(tick, id)` in insertion order; the
/// next event is the first one with the smallest tick.
#[derive(Default)]
struct Model {
    pending: Vec<(Tick, u64)>,
    now: Tick,
}

impl Model {
    fn peek_tick(&self) -> Option<Tick> {
        self.pending.iter().map(|&(t, _)| t).min()
    }

    fn pop(&mut self) -> Option<(Tick, u64)> {
        let tick = self.peek_tick()?;
        let at = self.pending.iter().position(|&(t, _)| t == tick)?;
        self.now = tick;
        Some(self.pending.remove(at))
    }

    fn pop_until(&mut self, limit: Tick) -> Option<(Tick, u64)> {
        if self.peek_tick()? <= limit {
            self.pop()
        } else {
            None
        }
    }
}

/// Both sides of the comparison, driven by the same calls.
#[derive(Default)]
struct Pair {
    q: EventQueue<u64>,
    m: Model,
    next_id: u64,
}

impl Pair {
    /// Schedules the next id at `at` on both sides and returns it.
    fn schedule(&mut self, at: Tick) -> u64 {
        let id = self.next_id;
        self.q.schedule(at, id);
        self.m.pending.push((at, id));
        self.next_id += 1;
        id
    }

    fn pop(&mut self) -> Option<(Tick, u64)> {
        let got = self.q.pop();
        assert_eq!(got, self.m.pop());
        self.check();
        got
    }

    fn pop_until(&mut self, limit: Tick) {
        assert_eq!(self.q.pop_until(limit), self.m.pop_until(limit));
        self.check();
    }

    fn check(&self) {
        assert_eq!(self.q.len(), self.m.pending.len());
        assert_eq!(self.q.is_empty(), self.m.pending.is_empty());
        assert_eq!(self.q.peek_tick(), self.m.peek_tick());
        assert_eq!(self.q.now(), self.m.now);
    }

    fn drain(&mut self) {
        while !self.m.pending.is_empty() {
            self.pop();
        }
        assert_eq!(self.q.pop(), None);
    }
}

/// A standing far-future event scheduled first — a controller's refresh —
/// takes the first run and must not disturb the near-now streams behind
/// it, including when it finally comes due between them.
#[test]
fn far_future_event_first() {
    let mut p = Pair::default();
    let mut refresh = p.schedule(7_800_000);
    for round in 0..4_000u64 {
        let now = p.q.now();
        p.schedule(now + 30_000 + (round % 3) * 1_000); // an ack, one latency ahead
        p.schedule(now + 5_000); // the next decision
        for _ in 0..2 {
            let (t, id) = p.pop().expect("two scheduled per round");
            if id == refresh {
                // Rescheduled one interval on, as a controller does.
                refresh = p.schedule(t + 7_800_000);
            }
        }
    }
    assert!(p.q.now() > 2 * 7_800_000, "the refresh came due twice");
    p.drain();
}

/// One tick's events spread over every run and the heap still leave in
/// insertion order.
#[test]
fn equal_tick_ties_split_across_runs_and_heap() {
    let mut p = Pair::default();
    // Descending heads send 20 to each run in turn and then to the heap;
    // the later ticks in between keep each run's tail above 20.
    for at in [20, 30, 20, 30, 25, 20, 25, 22, 20, 21, 20, 20, 22, 25, 30] {
        p.schedule(at);
    }
    // A long tie on top, scheduled while pops eat into it.
    for i in 0..400u64 {
        p.schedule(20 + (i % 2) * 10);
        if i % 3 == 0 {
            p.pop();
        }
    }
    p.drain();
}

/// Seeded adversarial mixes: few distinct ticks (ties everywhere),
/// bursts that descend (overflowing the runs into the heap), far-future
/// stragglers, and `pop_until` limits that fall between, on and past the
/// pending ticks.
#[test]
fn random_schedules_pop_in_stable_tick_order() {
    for seed in 0..48u64 {
        let mut rng = Rng::seed_from_u64(0xE7E7 ^ seed);
        let mut p = Pair::default();
        let step = 1 + rng.gen_range(0..50);
        for _ in 0..600 {
            let now = p.q.now();
            match rng.gen_range(0..10) {
                0..=4 => {
                    p.schedule(now + rng.gen_range(0..6) * step);
                }
                5 => {
                    let top = now + rng.gen_range(4..12) * step;
                    for k in 0..rng.gen_range(2..9) {
                        p.schedule(top.saturating_sub(k * step).max(now));
                    }
                }
                6 => {
                    p.schedule(now + 1_000_000 + rng.gen_range(0..3));
                }
                7 | 8 => {
                    p.pop();
                }
                _ => p.pop_until(now + rng.gen_range(0..4) * step),
            }
            p.check();
        }
        p.drain();
    }
}

/// The schedule behind `fixtures/event_queue_heap_only.snap`: the parent
/// commit's heap-only queue ran exactly these calls and saved.
fn fixture_schedule() -> Pair {
    let mut rng = Rng::seed_from_u64(0x19_F1C5);
    let mut p = Pair::default();
    p.q.set_tick_budget(Some(9_000_000));
    p.schedule(7_800_000);
    for _ in 0..500 {
        let now = p.q.now();
        match rng.gen_range(0..8) {
            0..=2 => {
                p.schedule(now + rng.gen_range(0..5) * 1_250);
            }
            3 => {
                p.schedule(now + 30_000 + rng.gen_range(0..4) * 1_250);
            }
            4 => {
                for k in 0..rng.gen_range(2..7) {
                    p.schedule(now + (8 - k) * 1_250);
                }
            }
            5 | 6 => {
                p.pop();
            }
            _ => p.pop_until(now + rng.gen_range(0..3) * 1_250),
        }
    }
    p
}

fn saved(q: &EventQueue<u64>) -> Vec<u8> {
    let mut w = SnapWriter::new(0);
    q.save_state(&mut w, |w, e| w.u64(*e));
    w.into_bytes()
}

/// Mid-stream, the queue writes the bytes the heap-only queue wrote, and
/// a queue restored from them delivers the rest of the stream as the
/// original does — new events interleaving identically.
#[test]
fn snapshot_bytes_equal_the_heap_only_encoding_and_restore_the_stream() {
    const FIXTURE: &[u8] = include_bytes!("fixtures/event_queue_heap_only.snap");
    let mut p = fixture_schedule();
    assert!(p.m.pending.len() > 40, "the fixture holds a real backlog");
    let bytes = saved(&p.q);
    assert!(bytes == FIXTURE, "snapshot bytes changed");

    let mut restored: EventQueue<u64> = EventQueue::new();
    restored.schedule(3, 99); // stale state is replaced, not merged
    let mut r = SnapReader::new(FIXTURE, 0).unwrap();
    restored.restore_state(&mut r, |r| r.u64()).unwrap();
    assert!(r.is_exhausted());
    assert!(saved(&restored) == FIXTURE, "restore then save round-trips");

    for i in 0..200u64 {
        if i % 3 != 2 {
            let at = p.q.now() + (i % 5) * 1_250;
            restored.schedule(at, p.next_id);
            p.schedule(at);
        }
        let expect = p.m.pop();
        assert_eq!(p.q.pop(), expect);
        assert_eq!(restored.pop(), expect);
        assert_eq!(restored.now(), p.m.now);
    }
    while let Some(expect) = p.m.pop() {
        assert_eq!(restored.pop(), Some(expect));
    }
    assert_eq!(restored.pop(), None);
}
