//! Bank and rank state.
//!
//! The paper's key modelling insight (Section II-B): DRAM behaviour is
//! captured by tracking, per bank, the *earliest tick* at which each command
//! class may issue, rather than stepping a DRAM state machine every cycle.
//! A simplified DRAM state machine is thus implicitly encoded in these
//! timestamps.

use dramctrl_kernel::snap::{SnapError, SnapReader, SnapState, SnapWriter};
use dramctrl_kernel::Tick;
use std::collections::VecDeque;

/// Per-bank state: the open row and the earliest-allowed times for
/// activate, precharge and column commands.
#[derive(Debug, Clone, Default)]
pub struct Bank {
    /// Currently open row, if any.
    pub open_row: Option<u64>,
    /// Earliest tick an ACT to this bank may issue.
    pub act_allowed_at: Tick,
    /// Earliest tick a PRE to this bank may issue.
    pub pre_allowed_at: Tick,
    /// Earliest tick a RD/WR to this bank may issue.
    pub col_allowed_at: Tick,
    /// Column accesses since the row was opened (for the starvation guard).
    pub row_accesses: u32,
}

/// Per-rank state: the banks plus the rolling activation window that
/// enforces `t_rrd` and the generalised `t_xaw` constraint, and the refresh
/// schedule.
#[derive(Debug, Clone)]
pub struct Rank {
    /// The banks of this rank.
    pub banks: Vec<Bank>,
    /// Ticks of the most recent activates, newest at the back; bounded by
    /// the activation limit.
    act_window: VecDeque<Tick>,
    /// Earliest tick the *next* ACT to any bank of this rank may issue
    /// (enforces `t_rrd`).
    pub next_act_at: Tick,
    /// Tick at which the next refresh becomes due.
    pub refresh_due: Tick,
    /// End of the most recent (or in-progress) refresh.
    pub refresh_done: Tick,
    /// Tracks how many banks are open over time, for the power model's
    /// "time with all banks precharged" statistic.
    pub timeline: OpenTimeline,
    /// Whether the rank is in precharge power-down.
    pub powered_down: bool,
    /// Whether the rank has descended into self-refresh.
    pub self_refreshing: bool,
    /// Tick at which the current low-power episode (or its self-refresh
    /// phase) began.
    pub pd_since: Tick,
    /// Accumulated power-down time from completed episodes.
    pub pd_time: Tick,
    /// Accumulated self-refresh time from completed episodes.
    pub sr_time: Tick,
}

impl Rank {
    /// Creates a rank with `banks` closed banks; the first refresh is due
    /// at `t_refi`.
    pub fn new(banks: u32, t_refi: Tick) -> Self {
        Self {
            banks: vec![Bank::default(); banks as usize],
            act_window: VecDeque::new(),
            next_act_at: 0,
            refresh_due: if t_refi == 0 { Tick::MAX } else { t_refi },
            refresh_done: 0,
            timeline: OpenTimeline::new(),
            powered_down: false,
            self_refreshing: false,
            pd_since: 0,
            pd_time: 0,
            sr_time: 0,
        }
    }

    /// Computes the earliest tick an ACT may issue given the rolling
    /// activation window, without recording it. `earliest` already reflects
    /// the bank's own `act_allowed_at` and the rank's `t_rrd` constraint.
    #[inline]
    pub fn act_constrained(&self, earliest: Tick, t_xaw: Tick, limit: u32) -> Tick {
        if limit == 0 || (self.act_window.len() as u32) < limit {
            earliest
        } else {
            // The oldest of the last `limit` activates pins the window.
            let oldest = self.act_window[self.act_window.len() - limit as usize];
            earliest.max(oldest + t_xaw)
        }
    }

    /// Records an ACT at `at` and updates the rank-wide constraints.
    #[inline]
    pub fn record_act(&mut self, at: Tick, t_rrd: Tick, limit: u32) {
        debug_assert!(
            !self.act_window.back().is_some_and(|&last| at < last),
            "activates must be recorded in order"
        );
        self.next_act_at = self.next_act_at.max(at + t_rrd);
        if limit > 0 {
            self.act_window.push_back(at);
            while self.act_window.len() > limit as usize {
                self.act_window.pop_front();
            }
        }
    }

    /// Number of banks with an open row.
    #[cfg(test)]
    pub fn open_banks(&self) -> usize {
        self.banks.iter().filter(|b| b.open_row.is_some()).count()
    }
}

impl SnapState for Bank {
    fn save_state(&self, w: &mut SnapWriter) {
        w.opt_u64(self.open_row);
        w.u64(self.act_allowed_at);
        w.u64(self.pre_allowed_at);
        w.u64(self.col_allowed_at);
        w.u32(self.row_accesses);
    }

    fn restore_state(&mut self, r: &mut SnapReader<'_>) -> Result<(), SnapError> {
        self.open_row = r.opt_u64()?;
        self.act_allowed_at = r.u64()?;
        self.pre_allowed_at = r.u64()?;
        self.col_allowed_at = r.u64()?;
        self.row_accesses = r.u32()?;
        Ok(())
    }
}

impl SnapState for Rank {
    // The bank count is configuration, not state: restore targets a rank
    // freshly built for the same device and fails loudly on a mismatch.
    fn save_state(&self, w: &mut SnapWriter) {
        w.usize(self.banks.len());
        for b in &self.banks {
            b.save_state(w);
        }
        w.usize(self.act_window.len());
        for &t in &self.act_window {
            w.u64(t);
        }
        w.u64(self.next_act_at);
        w.u64(self.refresh_due);
        w.u64(self.refresh_done);
        self.timeline.save_state(w);
        w.bool(self.powered_down);
        w.bool(self.self_refreshing);
        w.u64(self.pd_since);
        w.u64(self.pd_time);
        w.u64(self.sr_time);
    }

    fn restore_state(&mut self, r: &mut SnapReader<'_>) -> Result<(), SnapError> {
        let n_banks = r.usize()?;
        if n_banks != self.banks.len() {
            return Err(SnapError::Corrupt(format!(
                "bank count {n_banks} != device organisation {}",
                self.banks.len()
            )));
        }
        for b in &mut self.banks {
            b.restore_state(r)?;
        }
        let n_acts = r.usize()?;
        self.act_window.clear();
        for _ in 0..n_acts {
            let t = r.u64()?;
            if self.act_window.back().is_some_and(|&last| t < last) {
                return Err(SnapError::Corrupt("activation window out of order".into()));
            }
            self.act_window.push_back(t);
        }
        self.next_act_at = r.u64()?;
        self.refresh_due = r.u64()?;
        self.refresh_done = r.u64()?;
        self.timeline.restore_state(r)?;
        self.powered_down = r.bool()?;
        self.self_refreshing = r.bool()?;
        self.pd_since = r.u64()?;
        self.pd_time = r.u64()?;
        self.sr_time = r.u64()?;
        Ok(())
    }
}

/// Folded entries an [`OpenTimeline`] keeps before moving its pending ones
/// to the front; a few bank-preparation times of look-ahead is far less.
const COMPACT_AFTER: usize = 64;

/// Integrates the number-of-open-banks signal over time to produce the
/// "time with all banks precharged" statistic required by the Micron power
/// model (paper Section II-G).
///
/// Opens and closes are decided with *future* timestamps (the controller
/// skips ahead); deltas are buffered and folded into the running integral
/// once simulated time passes them. The buffer is a vector sorted by tick
/// with one net delta per tick: a handful of entries (one bank-preparation
/// time of look-ahead), arriving nearly in order, so an insert is a short
/// scan from the back and a move of the few later entries, and a fold
/// moves a head index forward. Folded entries are dropped when the buffer
/// empties, or `COMPACT_AFTER` at a time, so nothing ever wraps around a
/// ring and nothing allocates once the vector has grown.
#[derive(Debug, Clone, Default)]
pub struct OpenTimeline {
    /// `(tick, net delta)`; from `head` on, the pending deltas, strictly
    /// ascending by tick (before it, folded ones). A net delta of zero
    /// stays until folded: it is part of the snapshot.
    pending: Vec<(Tick, i64)>,
    head: usize,
    open: i64,
    frontier: Tick,
    time_all_closed: Tick,
    time_some_open: Tick,
}

impl OpenTimeline {
    /// Creates an empty timeline at tick 0 with all banks closed.
    pub fn new() -> Self {
        Self::default()
    }

    /// Records that a bank opens at `at`.
    #[inline]
    pub fn open_at(&mut self, at: Tick) {
        self.add(at, 1);
    }

    /// Records that a bank closes at `at`.
    #[inline]
    pub fn close_at(&mut self, at: Tick) {
        self.add(at, -1);
    }

    #[inline]
    fn add(&mut self, at: Tick, delta: i64) {
        let at = at.max(self.frontier);
        let mut idx = self.pending.len();
        while idx > self.head && self.pending[idx - 1].0 > at {
            idx -= 1;
        }
        if idx > self.head && self.pending[idx - 1].0 == at {
            self.pending[idx - 1].1 += delta;
        } else {
            self.pending.insert(idx, (at, delta));
        }
    }

    /// Folds all deltas at or before `now` into the running integral.
    #[inline]
    pub fn sync(&mut self, now: Tick) {
        if now < self.frontier {
            return;
        }
        while let Some(&(t, delta)) = self.pending.get(self.head) {
            if t > now {
                break;
            }
            self.head += 1;
            self.account(t);
            self.open += delta;
            debug_assert!(self.open >= 0, "more closes than opens");
        }
        if self.head == self.pending.len() {
            self.pending.clear();
            self.head = 0;
        } else if self.head >= COMPACT_AFTER {
            self.pending.drain(..self.head);
            self.head = 0;
        }
        self.account(now);
    }

    fn account(&mut self, until: Tick) {
        let span = until - self.frontier;
        if self.open == 0 {
            self.time_all_closed += span;
        } else {
            self.time_some_open += span;
        }
        self.frontier = until;
    }

    /// Time spent with zero banks open, up to the last `sync`.
    pub fn time_all_closed(&self) -> Tick {
        self.time_all_closed
    }

    /// Time spent with at least one bank open, up to the last `sync`.
    #[cfg(test)]
    pub fn time_some_open(&self) -> Tick {
        self.time_some_open
    }
}

impl SnapState for OpenTimeline {
    fn save_state(&self, w: &mut SnapWriter) {
        let pending = &self.pending[self.head..];
        w.usize(pending.len());
        for &(t, delta) in pending {
            w.u64(t);
            w.u64(delta as u64);
        }
        w.u64(self.open as u64);
        w.u64(self.frontier);
        w.u64(self.time_all_closed);
        w.u64(self.time_some_open);
    }

    fn restore_state(&mut self, r: &mut SnapReader<'_>) -> Result<(), SnapError> {
        let n = r.usize()?;
        self.pending.clear();
        self.head = 0;
        for _ in 0..n {
            let t = r.u64()?;
            let delta = r.u64()? as i64;
            if self.pending.last().is_some_and(|last| last.0 >= t) {
                return Err(SnapError::Corrupt(format!(
                    "timeline tick {t} repeats or is out of order"
                )));
            }
            self.pending.push((t, delta));
        }
        self.open = r.u64()? as i64;
        if self.open < 0 {
            return Err(SnapError::Corrupt("negative open-bank count".into()));
        }
        self.frontier = r.u64()?;
        self.time_all_closed = r.u64()?;
        self.time_some_open = r.u64()?;
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn xaw_window_gates_fifth_act() {
        // activation_limit = 4, t_xaw = 40 ns.
        let mut rank = Rank::new(8, 0);
        let (t_rrd, t_xaw, limit) = (6_000, 40_000, 4);
        let mut at = 0;
        let mut acts = Vec::new();
        for _ in 0..5 {
            at = rank.act_constrained(at.max(rank.next_act_at), t_xaw, limit);
            rank.record_act(at, t_rrd, limit);
            acts.push(at);
        }
        // First four pace at tRRD: 0, 6, 12, 18 ns.
        assert_eq!(&acts[..4], &[0, 6_000, 12_000, 18_000]);
        // The fifth must wait for the window: 0 + 40 ns, not 24 ns.
        assert_eq!(acts[4], 40_000);
    }

    #[test]
    fn no_limit_means_only_rrd() {
        let mut rank = Rank::new(4, 0);
        let mut at = 0;
        for i in 0..10 {
            at = rank.act_constrained(at.max(rank.next_act_at), 40_000, 0);
            rank.record_act(at, 6_000, 0);
            assert_eq!(at, i * 6_000);
        }
    }

    #[test]
    fn wideio_limit_two() {
        // WideIO: activation limit 2, t_xaw = 50 ns, t_rrd = 10 ns.
        let mut rank = Rank::new(4, 0);
        let mut acts = Vec::new();
        let mut at = 0;
        for _ in 0..4 {
            at = rank.act_constrained(at.max(rank.next_act_at), 50_000, 2);
            rank.record_act(at, 10_000, 2);
            acts.push(at);
        }
        // 0, 10 (tRRD), then window: 0+50, 10+50.
        assert_eq!(acts, vec![0, 10_000, 50_000, 60_000]);
    }

    #[test]
    fn refresh_due_initialised_from_refi() {
        let r = Rank::new(8, 7_800_000);
        assert_eq!(r.refresh_due, 7_800_000);
        let never = Rank::new(8, 0);
        assert_eq!(never.refresh_due, Tick::MAX);
    }

    #[test]
    fn open_banks_counts() {
        let mut r = Rank::new(4, 0);
        assert_eq!(r.open_banks(), 0);
        r.banks[1].open_row = Some(7);
        r.banks[3].open_row = Some(9);
        assert_eq!(r.open_banks(), 2);
    }

    #[test]
    fn timeline_integrates_intervals() {
        let mut tl = OpenTimeline::new();
        tl.open_at(100);
        tl.close_at(300);
        tl.sync(1_000);
        assert_eq!(tl.time_some_open(), 200);
        assert_eq!(tl.time_all_closed(), 800);
    }

    #[test]
    fn timeline_overlapping_banks() {
        let mut tl = OpenTimeline::new();
        tl.open_at(0); // bank A
        tl.open_at(50); // bank B
        tl.close_at(100); // A closes
        tl.close_at(200); // B closes
        tl.sync(400);
        assert_eq!(tl.time_some_open(), 200);
        assert_eq!(tl.time_all_closed(), 200);
    }

    #[test]
    fn timeline_partial_sync_then_more() {
        let mut tl = OpenTimeline::new();
        tl.open_at(100);
        tl.sync(50); // nothing folded yet
        assert_eq!(tl.time_all_closed(), 50);
        tl.close_at(150);
        tl.sync(200);
        assert_eq!(tl.time_some_open(), 50);
        assert_eq!(tl.time_all_closed(), 150);
    }

    /// The ordered-map timeline this one replaced, kept as the oracle.
    #[derive(Default)]
    struct MapTimeline {
        pending: std::collections::BTreeMap<Tick, i64>,
        open: i64,
        frontier: Tick,
        time_all_closed: Tick,
        time_some_open: Tick,
    }

    impl MapTimeline {
        fn add(&mut self, at: Tick, delta: i64) {
            *self.pending.entry(at.max(self.frontier)).or_insert(0) += delta;
        }

        fn sync(&mut self, now: Tick) {
            if now < self.frontier {
                return;
            }
            while let Some((&t, _)) = self.pending.first_key_value() {
                if t > now {
                    break;
                }
                let (t, delta) = self.pending.pop_first().unwrap();
                self.account(t);
                self.open += delta;
            }
            self.account(now);
        }

        fn account(&mut self, until: Tick) {
            let span = until - self.frontier;
            if self.open == 0 {
                self.time_all_closed += span;
            } else {
                self.time_some_open += span;
            }
            self.frontier = until;
        }

        fn save_state(&self, w: &mut SnapWriter) {
            w.usize(self.pending.len());
            for (&t, &delta) in &self.pending {
                w.u64(t);
                w.u64(delta as u64);
            }
            w.u64(self.open as u64);
            w.u64(self.frontier);
            w.u64(self.time_all_closed);
            w.u64(self.time_some_open);
        }
    }

    /// Seeded open/close/sync mixes — deltas out of order, several on one
    /// tick (a net zero included), deltas behind the frontier, syncs that
    /// go backwards — leave the deque timeline and the map timeline with
    /// the same integrals and the same snapshot bytes at every step, and
    /// a timeline restored from those bytes carries on identically.
    #[test]
    fn timeline_matches_the_ordered_map_it_replaced() {
        use dramctrl_kernel::rng::Rng;
        let bytes_of = |save: &dyn Fn(&mut SnapWriter)| {
            let mut w = SnapWriter::new(0);
            save(&mut w);
            w.into_bytes()
        };
        for seed in 0..32u64 {
            let mut rng = Rng::seed_from_u64(0x71AE ^ seed);
            let mut tl = OpenTimeline::new();
            let mut map = MapTimeline::default();
            let mut now: Tick = 0;
            let mut open_banks = 0u32;
            for step in 0..400 {
                // Few distinct ticks ahead of `now`, so merges are common;
                // sometimes behind it, which clamps to the frontier.
                let at =
                    (now + rng.gen_range(0..6) * 500).saturating_sub(rng.gen_range(0..2) * 700);
                match rng.gen_range(0..5) {
                    0 | 1 => {
                        tl.open_at(at);
                        map.add(at, 1);
                        open_banks += 1;
                    }
                    2 | 3 if open_banks > 0 => {
                        // Not before the frontier's opens: place closes
                        // late enough that the count never goes negative.
                        let at = at + 3_000;
                        tl.close_at(at);
                        map.add(at, -1);
                        open_banks -= 1;
                    }
                    _ => {
                        now = (now + rng.gen_range(0..4) * 500)
                            .saturating_sub(rng.gen_range(0..2) * 250);
                        tl.sync(now);
                        map.sync(now);
                    }
                }
                assert_eq!(tl.time_all_closed(), map.time_all_closed);
                assert_eq!(tl.time_some_open(), map.time_some_open);
                let bytes = bytes_of(&|w| tl.save_state(w));
                assert_eq!(bytes, bytes_of(&|w| map.save_state(w)), "seed {seed}");
                if step % 97 == 0 {
                    let mut restored = OpenTimeline::new();
                    restored.open_at(5); // stale state is replaced
                    let mut r = SnapReader::new(&bytes, 0).unwrap();
                    restored.restore_state(&mut r).unwrap();
                    assert!(r.is_exhausted());
                    assert_eq!(bytes, bytes_of(&|w| restored.save_state(w)));
                    tl = restored;
                }
            }
        }
    }

    /// A steady look-ahead never lets the buffer drain, so folded entries
    /// are only ever dropped by compaction: the integrals and snapshot
    /// bytes stay the map's, and the vector stays bounded.
    #[test]
    fn timeline_compacts_a_buffer_that_never_drains() {
        let bytes_of = |save: &dyn Fn(&mut SnapWriter)| {
            let mut w = SnapWriter::new(0);
            save(&mut w);
            w.into_bytes()
        };
        let mut tl = OpenTimeline::new();
        let mut map = MapTimeline::default();
        for step in 0..1_000u64 {
            let now = step * 10;
            // Out of order: the close lands before the open above it.
            for (at, delta) in [(now + 45, 1), (now + 40, 1), (now + 42, -1), (now + 48, -1)] {
                tl.add(at, delta);
                map.add(at, delta);
            }
            tl.sync(now);
            map.sync(now);
            assert!(tl.head < tl.pending.len(), "the buffer never drains");
            assert!(tl.pending.len() <= COMPACT_AFTER + 24);
            assert_eq!(tl.time_all_closed(), map.time_all_closed);
            assert_eq!(tl.time_some_open(), map.time_some_open);
            assert_eq!(
                bytes_of(&|w| tl.save_state(w)),
                bytes_of(&|w| map.save_state(w))
            );
        }
    }

    #[test]
    fn timeline_restore_rejects_unsorted_ticks() {
        for ticks in [[10u64, 10], [20, 10]] {
            let mut w = SnapWriter::new(0);
            w.usize(2);
            for t in ticks {
                w.u64(t);
                w.u64(1);
            }
            let bytes = w.into_bytes();
            let mut r = SnapReader::new(&bytes, 0).unwrap();
            let err = OpenTimeline::new().restore_state(&mut r).unwrap_err();
            assert!(matches!(err, SnapError::Corrupt(_)));
        }
    }

    #[test]
    fn timeline_sync_is_idempotent() {
        let mut tl = OpenTimeline::new();
        tl.open_at(10);
        tl.close_at(20);
        tl.sync(100);
        let (a, b) = (tl.time_all_closed(), tl.time_some_open());
        tl.sync(100);
        assert_eq!((a, b), (tl.time_all_closed(), tl.time_some_open()));
    }
}
