//! Request-queue plumbing both controllers share: burst chopping and the
//! burst-group arena (paper Section II-A).
//!
//! A system-level [`MemRequest`] may be smaller or larger than a DRAM
//! burst (e.g. a 64-byte cache line on a 32-byte-burst LPDDR3 channel).
//! A controller chops each request into per-burst pieces with [`chop`],
//! sizes its flow control with [`burst_count`], and tracks the pieces of
//! one request in a [`GroupArena`] slot so the response is sent once the
//! last burst completes. The event model and the cycle baseline run this
//! same code; they differ only in how they time the bursts.

use dramctrl_kernel::snap::{SnapError, SnapReader, SnapState, SnapWriter};
use dramctrl_kernel::Tick;

use crate::{snapio, MemRequest};

/// Tracks the outstanding bursts of a chopped request so the response is
/// only sent once the last burst completes.
#[derive(Debug, Clone)]
pub struct BurstGroup {
    /// The request awaiting a response.
    pub req: MemRequest,
    /// Bursts not yet serviced.
    pub remaining: u32,
    /// Latest ready time over the serviced bursts.
    pub ready_at: Tick,
}

/// An arena of [`BurstGroup`]s with slot reuse. Queued bursts name their
/// group by slot index.
#[derive(Debug, Default)]
pub struct GroupArena {
    slots: Vec<Option<BurstGroup>>,
    free: Vec<usize>,
}

impl GroupArena {
    /// Creates an arena pre-sized for `capacity` live groups.
    pub fn with_capacity(capacity: usize) -> Self {
        Self {
            slots: Vec::with_capacity(capacity),
            free: Vec::with_capacity(capacity),
        }
    }

    /// Stores `group` in a free slot (the most recently freed one first)
    /// and returns its index.
    #[inline]
    pub fn insert(&mut self, group: BurstGroup) -> usize {
        if let Some(idx) = self.free.pop() {
            self.slots[idx] = Some(group);
            idx
        } else {
            self.slots.push(Some(group));
            self.slots.len() - 1
        }
    }

    /// The live group in slot `idx`.
    ///
    /// # Panics
    /// Panics if the slot is free.
    #[inline]
    pub fn get(&self, idx: usize) -> &BurstGroup {
        self.slots[idx].as_ref().expect("stale group index")
    }

    /// The live group in slot `idx`, mutably.
    ///
    /// # Panics
    /// Panics if the slot is free.
    #[inline]
    pub fn get_mut(&mut self, idx: usize) -> &mut BurstGroup {
        self.slots[idx].as_mut().expect("stale group index")
    }

    /// Frees slot `idx`, returning its group.
    ///
    /// # Panics
    /// Panics if the slot is already free.
    #[inline]
    pub fn remove(&mut self, idx: usize) -> BurstGroup {
        let g = self.slots[idx].take().expect("stale group index");
        self.free.push(idx);
        g
    }

    /// Drops every group and the free list, keeping both allocations.
    pub fn clear(&mut self) {
        self.slots.clear();
        self.free.clear();
    }

    /// Refuses a restored burst that names slot `idx` unless the slot
    /// holds a live group: serving that burst would otherwise panic on
    /// the stale index long after the restore reported success.
    ///
    /// # Errors
    /// [`SnapError::Corrupt`] for a free or out-of-range slot.
    pub fn check_live(&self, idx: usize) -> Result<(), SnapError> {
        if self.slots.get(idx).is_some_and(Option::is_some) {
            Ok(())
        } else {
            Err(SnapError::Corrupt(format!(
                "queued burst references dead group {idx}"
            )))
        }
    }

    /// Number of live groups.
    #[cfg(test)]
    pub fn live(&self) -> usize {
        self.slots.iter().filter(|s| s.is_some()).count()
    }
}

impl SnapState for GroupArena {
    /// Writes the arena: slot contents *and* the free list, so restored
    /// slot indices (held by queued bursts and in-flight events) and the
    /// slot-reuse order stay exactly as checkpointed.
    fn save_state(&self, w: &mut SnapWriter) {
        w.usize(self.slots.len());
        for slot in &self.slots {
            match slot {
                Some(g) => {
                    w.bool(true);
                    snapio::save_request(w, &g.req);
                    w.u32(g.remaining);
                    w.u64(g.ready_at);
                }
                None => w.bool(false),
            }
        }
        w.usize(self.free.len());
        for &f in &self.free {
            w.usize(f);
        }
    }

    fn restore_state(&mut self, r: &mut SnapReader<'_>) -> Result<(), SnapError> {
        let n_slots = r.usize()?;
        self.slots.clear();
        for _ in 0..n_slots {
            if r.bool()? {
                self.slots.push(Some(BurstGroup {
                    req: snapio::read_request(r)?,
                    remaining: r.u32()?,
                    ready_at: r.u64()?,
                }));
            } else {
                self.slots.push(None);
            }
        }
        let n_free = r.usize()?;
        self.free.clear();
        for _ in 0..n_free {
            let f = r.usize()?;
            if self.slots.get(f).map_or(true, Option::is_some) {
                return Err(SnapError::Corrupt(format!("free-list entry {f} not free")));
            }
            self.free.push(f);
        }
        let empty = self.slots.iter().filter(|s| s.is_none()).count();
        if empty != self.free.len() {
            return Err(SnapError::Corrupt(format!(
                "{empty} empty slots but {} free-list entries",
                self.free.len()
            )));
        }
        Ok(())
    }
}

/// `(addr / burst_bytes, addr % burst_bytes)`. A power-of-two burst
/// (every preset) is a shift and a mask instead of a hardware divide —
/// this runs on every `try_send`, accepted or refused.
#[inline]
fn burst_div_rem(addr: u64, burst_bytes: u64) -> (u64, u64) {
    if burst_bytes.is_power_of_two() {
        (
            addr >> burst_bytes.trailing_zeros(),
            addr & (burst_bytes - 1),
        )
    } else {
        (addr / burst_bytes, addr % burst_bytes)
    }
}

/// Splits `[addr, addr + size)` into per-burst pieces.
///
/// Yields `(burst_addr, lo, hi)` where `burst_addr` is burst-aligned and
/// `[lo, hi)` is the covered byte range relative to `burst_addr`.
#[inline]
pub fn chop(addr: u64, size: u32, burst_bytes: u64) -> impl Iterator<Item = (u64, u32, u32)> {
    let end = addr + u64::from(size);
    let first = addr - burst_div_rem(addr, burst_bytes).1;
    (0..)
        .map(move |i| first + i * burst_bytes)
        .take_while(move |&b| b < end)
        .map(move |b| {
            let lo = addr.max(b) - b;
            let hi = end.min(b + burst_bytes) - b;
            (b, lo as u32, hi as u32)
        })
}

/// Number of bursts `[addr, addr + size)` spans.
#[inline]
pub fn burst_count(addr: u64, size: u32, burst_bytes: u64) -> usize {
    let (last, partial) = burst_div_rem(addr + u64::from(size), burst_bytes);
    let first = burst_div_rem(addr, burst_bytes).0;
    (last + u64::from(partial != 0) - first) as usize
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{MemCmd, ReqId};

    #[test]
    fn chop_aligned_single_burst() {
        let pieces: Vec<_> = chop(128, 64, 64).collect();
        assert_eq!(pieces, vec![(128, 0, 64)]);
        assert_eq!(burst_count(128, 64, 64), 1);
    }

    #[test]
    fn chop_cache_line_into_lpddr_bursts() {
        // 64-byte line on a 32-byte-burst channel: two full bursts.
        let pieces: Vec<_> = chop(256, 64, 32).collect();
        assert_eq!(pieces, vec![(256, 0, 32), (288, 0, 32)]);
        assert_eq!(burst_count(256, 64, 32), 2);
    }

    #[test]
    fn chop_unaligned_partial_bursts() {
        // 16 bytes starting 8 before a burst boundary.
        let pieces: Vec<_> = chop(56, 16, 64).collect();
        assert_eq!(pieces, vec![(0, 56, 64), (64, 0, 8)]);
        assert_eq!(burst_count(56, 16, 64), 2);
    }

    #[test]
    fn shifted_and_divided_burst_arithmetic_agree() {
        // 32/64/128 take the shift path, 96 the divide; both must be
        // the plain quotient, and `chop` must yield that many pieces.
        for burst in [32u64, 64, 96, 128] {
            assert_eq!(burst.is_power_of_two(), burst != 96);
            for addr in (0..4 * burst).chain([(1 << 40) - 1, 1 << 40, (1 << 40) + 95]) {
                assert_eq!(
                    burst_div_rem(addr, burst),
                    (addr / burst, addr % burst),
                    "{addr} / {burst}"
                );
                for size in [1u32, 4, 31, 32, 33, 64, 65, 96, 128, 255, 256] {
                    let end = addr + u64::from(size);
                    let want = (end.div_ceil(burst) - addr / burst) as usize;
                    assert_eq!(
                        burst_count(addr, size, burst),
                        want,
                        "{addr}+{size} / {burst}"
                    );
                    assert_eq!(
                        chop(addr, size, burst).count(),
                        want,
                        "{addr}+{size} / {burst}"
                    );
                    assert_eq!(
                        chop(addr, size, burst).next().unwrap().0,
                        addr / burst * burst
                    );
                }
            }
        }
    }

    #[test]
    fn chop_small_write_within_burst() {
        let pieces: Vec<_> = chop(100, 4, 64).collect();
        assert_eq!(pieces, vec![(64, 36, 40)]);
    }

    #[test]
    fn chop_pieces_reassemble_request() {
        for (addr, size, burst) in [(0u64, 256u32, 64u64), (7, 100, 32), (63, 2, 64)] {
            let pieces: Vec<_> = chop(addr, size, burst).collect();
            let total: u32 = pieces.iter().map(|&(_, lo, hi)| hi - lo).sum();
            assert_eq!(total, size);
            // Pieces are contiguous and ordered.
            let mut expected = addr;
            for &(b, lo, hi) in &pieces {
                assert_eq!(b + u64::from(lo), expected);
                expected = b + u64::from(hi);
            }
        }
    }

    fn group(n: u64) -> BurstGroup {
        BurstGroup {
            req: MemRequest::read(ReqId(n), 0, 64),
            remaining: 1,
            ready_at: 0,
        }
    }

    #[test]
    fn arena_reuses_slots() {
        let mut arena = GroupArena::default();
        let a = arena.insert(group(1));
        let b = arena.insert(group(2));
        assert_ne!(a, b);
        arena.remove(a);
        assert_eq!(arena.live(), 1);
        let c = arena.insert(group(3));
        assert_eq!(c, a, "freed slot is reused");
        assert_eq!(arena.get_mut(c).req.id, ReqId(3));
        assert_eq!(arena.get_mut(b).req.cmd, MemCmd::Read);
    }

    #[test]
    #[should_panic(expected = "stale group index")]
    fn arena_rejects_stale_index() {
        let mut arena = GroupArena::default();
        let idx = arena.insert(group(0));
        arena.remove(idx);
        let _ = arena.get_mut(idx);
    }

    #[test]
    fn only_live_slots_pass_the_restore_check() {
        let mut arena = GroupArena::default();
        let (a, b) = (arena.insert(group(0)), arena.insert(group(1)));
        arena.remove(a);
        assert!(arena.check_live(b).is_ok());
        for dead in [a, 2, usize::MAX] {
            let err = arena.check_live(dead).unwrap_err().to_string();
            assert!(err.contains(&format!("dead group {dead}")), "{err}");
        }
    }
}
