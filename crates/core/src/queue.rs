//! DRAM packets and queue helpers: burst chopping, write merging and read
//! forwarding (paper Section II-A).
//!
//! A system-level [`MemRequest`](dramctrl_mem::MemRequest) may be smaller or
//! larger than a DRAM burst (e.g. a 64-byte cache line on a 32-byte-burst
//! LPDDR3 channel). The controller chops each request into per-burst
//! [`DramPacket`]s and merges/forwards at burst granularity, leaving the
//! rest of the memory system oblivious to the DRAM burst size.

use dramctrl_kernel::snap::{SnapError, SnapReader, SnapWriter};
use dramctrl_kernel::Tick;
use dramctrl_mem::{snapio, DramAddr, MemRequest};

/// One DRAM burst's worth of a memory request, as held in the controller's
/// read or write queue.
#[derive(Debug, Clone)]
pub(crate) struct DramPacket {
    /// Whether this packet reads (true) or writes.
    pub is_read: bool,
    /// Burst-aligned base address.
    pub burst_addr: u64,
    /// Covered byte range within the burst, relative to `burst_addr`.
    pub lo: u32,
    /// Exclusive end of the covered range.
    pub hi: u32,
    /// Decoded rank/bank/row/column.
    pub da: DramAddr,
    /// Tick at which the packet entered the queue.
    pub entry_time: Tick,
    /// QoS priority inherited from the source port (higher = sooner).
    pub priority: u8,
    /// Index of the burst group this read belongs to (reads only).
    pub group: Option<usize>,
    /// Queue-local arrival sequence number, stamped on enqueue. Strictly
    /// increasing within a queue, so it encodes FCFS age independently of
    /// where the packet is stored.
    pub seq: u64,
    /// Link-error retry attempts already made for this burst (RAS; always
    /// 0 without a fault model).
    pub retries: u8,
}

/// Writes a queued packet's fields.
pub(crate) fn save_packet(w: &mut SnapWriter, pkt: &DramPacket) {
    w.bool(pkt.is_read);
    w.u64(pkt.burst_addr);
    w.u32(pkt.lo);
    w.u32(pkt.hi);
    snapio::save_addr(w, &pkt.da);
    w.u64(pkt.entry_time);
    w.u8(pkt.priority);
    w.opt_u64(pkt.group.map(|g| g as u64));
    w.u64(pkt.seq);
    w.u8(pkt.retries);
}

/// Reads a packet written by [`save_packet`].
pub(crate) fn read_packet(r: &mut SnapReader<'_>) -> Result<DramPacket, SnapError> {
    Ok(DramPacket {
        is_read: r.bool()?,
        burst_addr: r.u64()?,
        lo: r.u32()?,
        hi: r.u32()?,
        da: snapio::read_addr(r)?,
        entry_time: r.u64()?,
        priority: r.u8()?,
        group: r.opt_u64()?.map(|g| g as usize),
        seq: r.u64()?,
        retries: r.u8()?,
    })
}

/// Tracks the outstanding bursts of a chopped read so the response is only
/// sent once the last burst completes.
#[derive(Debug, Clone)]
pub(crate) struct BurstGroup {
    /// The request awaiting a response.
    pub req: MemRequest,
    /// Bursts not yet serviced.
    pub remaining: u32,
    /// Latest ready time over the serviced bursts.
    pub ready_at: Tick,
}

/// An arena of [`BurstGroup`]s with slot reuse.
#[derive(Debug, Default)]
pub(crate) struct GroupArena {
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

    pub fn get(&self, idx: usize) -> &BurstGroup {
        self.slots[idx].as_ref().expect("stale group index")
    }

    #[inline]
    pub fn get_mut(&mut self, idx: usize) -> &mut BurstGroup {
        self.slots[idx].as_mut().expect("stale group index")
    }

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

    #[cfg(test)]
    pub fn live(&self) -> usize {
        self.slots.iter().filter(|s| s.is_some()).count()
    }

    /// Writes the arena: slot contents *and* the free list, so restored
    /// slot indices (held by queued packets and in-flight events) and the
    /// slot-reuse order stay exactly as checkpointed.
    pub fn save_state(&self, w: &mut SnapWriter) {
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

    /// Restores an arena written by [`save_state`](Self::save_state).
    pub fn restore_state(&mut self, r: &mut SnapReader<'_>) -> Result<(), SnapError> {
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
pub(crate) fn chop(
    addr: u64,
    size: u32,
    burst_bytes: u64,
) -> impl Iterator<Item = (u64, u32, u32)> {
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
pub(crate) fn burst_count(addr: u64, size: u32, burst_bytes: u64) -> usize {
    let (last, partial) = burst_div_rem(addr + u64::from(size), burst_bytes);
    let first = burst_div_rem(addr, burst_bytes).0;
    (last + u64::from(partial != 0) - first) as usize
}

/// Whether an existing write packet fully covers `[lo, hi)` of the same
/// burst — the condition for merging an incoming write (it is subsumed) or
/// forwarding a read from the write queue.
///
/// Only the reference model scans packets for coverage; the indexed
/// controller asks the [`WriteCoverage`](dramctrl_mem::WriteCoverage)
/// multiset instead.
#[cfg(test)]
pub(crate) fn covers(pkt: &DramPacket, burst_addr: u64, lo: u32, hi: u32) -> bool {
    !pkt.is_read && pkt.burst_addr == burst_addr && pkt.lo <= lo && pkt.hi >= hi
}

#[cfg(test)]
mod tests {
    use super::*;
    use dramctrl_mem::{MemCmd, ReqId};

    fn wpkt(burst_addr: u64, lo: u32, hi: u32) -> DramPacket {
        DramPacket {
            is_read: false,
            burst_addr,
            lo,
            hi,
            da: DramAddr {
                rank: 0,
                bank: 0,
                row: 0,
                col: 0,
            },
            entry_time: 0,
            priority: 0,
            group: None,
            seq: 0,
            retries: 0,
        }
    }

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

    #[test]
    fn covers_requires_write_same_burst_and_subsumption() {
        let w = wpkt(64, 8, 40);
        assert!(covers(&w, 64, 8, 40));
        assert!(covers(&w, 64, 10, 20));
        assert!(!covers(&w, 64, 0, 40), "starts before the write");
        assert!(!covers(&w, 64, 8, 48), "ends after the write");
        assert!(!covers(&w, 128, 8, 40), "different burst");
        let mut r = wpkt(64, 0, 64);
        r.is_read = true;
        assert!(!covers(&r, 64, 8, 40), "reads never cover");
    }

    #[test]
    fn arena_reuses_slots() {
        let mut arena = GroupArena::default();
        let g = |n| BurstGroup {
            req: MemRequest::read(ReqId(n), 0, 64),
            remaining: 1,
            ready_at: 0,
        };
        let a = arena.insert(g(1));
        let b = arena.insert(g(2));
        assert_ne!(a, b);
        arena.remove(a);
        assert_eq!(arena.live(), 1);
        let c = arena.insert(g(3));
        assert_eq!(c, a, "freed slot is reused");
        assert_eq!(arena.get_mut(c).req.id, ReqId(3));
        assert_eq!(arena.get_mut(b).req.cmd, MemCmd::Read);
    }

    #[test]
    #[should_panic(expected = "stale group index")]
    fn arena_rejects_stale_index() {
        let mut arena = GroupArena::default();
        let idx = arena.insert(BurstGroup {
            req: MemRequest::read(ReqId(0), 0, 64),
            remaining: 1,
            ready_at: 0,
        });
        arena.remove(idx);
        let _ = arena.get_mut(idx);
    }
}
