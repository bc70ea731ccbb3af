//! Indexed controller queues: incremental data structures that answer the
//! scheduler's hot-path questions without scanning the queue.
//!
//! The original implementation held each queue as a `VecDeque<DramPacket>`
//! and answered every question with a linear scan:
//!
//! * write snooping (merge/forward) scanned the write queue per incoming
//!   burst;
//! * the adaptive page policies scanned *both* queues per serviced burst
//!   (`queued_to_row`);
//! * FR-FCFS scanned the active queue twice per scheduling decision and
//!   removed the winner with an O(n) `VecDeque::remove`.
//!
//! At the deep queues the ROADMAP targets this is O(depth) work per burst
//! — quadratic per simulation. [`SchedQueue`] replaces the scans with
//! indices maintained incrementally on enqueue/dequeue:
//!
//! * a slot arena with free-list reuse (packets never move; removal is
//!   O(1) slot recycling instead of `VecDeque::remove`'s memmove);
//! * a monotonically increasing per-queue *sequence number* stamped on
//!   every packet, so FCFS age survives arbitrary removal order;
//! * per-priority-class intrusive FIFO lists threaded through the slot
//!   arena — sequence numbers are stamped monotonically, so enqueue is a
//!   tail append and dequeue an O(1) unlink, making the FCFS pick and the
//!   QoS top class O(1) with no allocation (this replaced an earlier
//!   `BTreeMap` order index whose node churn dominated deep queues);
//! * `by_bank` — per-(rank, bank) sorted candidate lists plus a bank
//!   occupancy bitmask, so FR-FCFS probes only *non-empty* banks instead
//!   of packets (O(occupied banks) per decision);
//! * `by_row` — per-(rank, bank, row) sorted candidate lists (backed by a
//!   recycled-`Vec` pool so row churn never hits the allocator), so
//!   row-hit detection and the adaptive page policies' `queued_to_row`
//!   are point lookups;
//! * `hits` — an incrementally maintained set of the queued packets whose
//!   target row is *currently open* in their bank, updated on
//!   enqueue/dequeue and on every activate/precharge the controller
//!   reports via [`set_open_row`](SchedQueue::set_open_row). The oldest
//!   row hit of the top QoS class — the FR-FCFS first pass — is one
//!   ordered-set lookup, independent of queue depth and bank count;
//! * a [`WriteCoverage`] multiset for O(1) write snooping.
//!
//! Determinism: the intrusive lists and sorted vectors order by
//! `(priority, seq)`; the hash maps use the fixed-seed hasher from
//! [`dramctrl_kernel::hash`] and are only probed point-wise. No iteration
//! order can differ between runs or leak into scheduling. The scan
//! implementations survive as test-only code (`#[cfg(test)]` in
//! `ctrl.rs`), and the differential harness (`diff.rs`) proves both
//! produce byte-identical results.

use std::collections::BTreeSet;

use dramctrl_kernel::hash::DetMap;
use dramctrl_kernel::snap::{SnapError, SnapReader, SnapWriter};
use dramctrl_mem::WriteCoverage;

use crate::queue::{read_packet, save_packet, DramPacket};

/// Sort key of a queued packet: QoS-descending, then age-ascending.
///
/// `255 - priority` makes the natural ascending order of sorted vectors
/// and ordered sets yield the highest-priority, oldest packet first.
#[inline]
fn order_key(pkt: &DramPacket) -> (u8, u64) {
    (255 - pkt.priority, pkt.seq)
}

/// Sentinel for "no slot" in the intrusive per-class lists.
const NIL: u32 = u32::MAX;

/// Intrusive FIFO links of one queued packet within its priority class.
#[derive(Debug, Clone, Copy)]
struct Link {
    prev: u32,
    next: u32,
}

/// A sorted candidate list for one bank (or one row of one bank):
/// `(255 - priority, seq, slot)` triples in ascending order.
///
/// Per-bucket population is small (queue depth spread over banks × rows),
/// so a sorted `Vec` beats a tree: inserts are a short memmove, lookups a
/// binary search, and iteration is cache-friendly.
#[derive(Debug, Default, Clone)]
struct Bucket {
    entries: Vec<(u8, u64, u32)>,
}

impl Bucket {
    /// Sequence numbers are stamped monotonically, so within one priority
    /// class a new entry sorts after everything queued: the common insert
    /// is a tail append, and the binary search is only for a packet that
    /// outranks (or, restored from a snapshot, predates) the tail.
    fn insert(&mut self, key: (u8, u64), slot: u32) {
        let probe = (key.0, key.1, slot);
        if self.entries.last().map_or(true, |&last| last < probe) {
            self.entries.push(probe);
            return;
        }
        let at = self.entries.partition_point(|&e| e < probe);
        self.entries.insert(at, probe);
    }

    /// FCFS and row-hit service take the oldest entry, which is the head;
    /// anything else is found by binary search.
    fn remove(&mut self, key: (u8, u64), slot: u32) {
        let probe = (key.0, key.1, slot);
        let at = if self.entries.first() == Some(&probe) {
            0
        } else {
            self.entries.partition_point(|&e| e < probe)
        };
        debug_assert_eq!(self.entries.get(at), Some(&probe), "bucket out of sync");
        self.entries.remove(at);
    }

    /// Oldest entry of exactly the given inverted-priority class.
    fn first_of(&self, inv_prio: u8) -> Option<(u64, u32)> {
        let at = self.entries.partition_point(|&e| e.0 < inv_prio);
        match self.entries.get(at) {
            Some(&(ip, seq, slot)) if ip == inv_prio => Some((seq, slot)),
            _ => None,
        }
    }

    fn len(&self) -> usize {
        self.entries.len()
    }
}

/// One controller queue (read or write) with incremental scheduling
/// indices. See the module docs for the structure inventory.
#[derive(Debug)]
pub(crate) struct SchedQueue {
    slots: Vec<Option<DramPacket>>,
    /// Intrusive per-class FIFO links, parallel to `slots`.
    links: Vec<Link>,
    free: Vec<u32>,
    next_seq: u64,
    len: usize,
    banks_per_rank: u32,
    /// Head/tail slot of each priority class's FIFO list (`NIL` if empty).
    class_head: Box<[u32; 256]>,
    class_tail: Box<[u32; 256]>,
    /// Bit `p` set iff priority class `p` has queued packets.
    class_mask: [u64; 4],
    /// Flat bank id → candidates in that bank.
    by_bank: Vec<Bucket>,
    /// Bit `b` set iff flat bank `b` has queued packets.
    bank_mask: Vec<u64>,
    /// (flat bank id, row) → candidates for that row.
    by_row: DetMap<(u32, u64), Bucket>,
    /// Emptied row buckets kept for reuse, so steady-state row churn does
    /// not allocate.
    spare_buckets: Vec<Bucket>,
    /// Mirror of each flat bank's open row, driven by
    /// [`set_open_row`](Self::set_open_row).
    open_rows: Vec<Option<u64>>,
    /// `(255 - priority, seq, slot)` of every queued packet whose target
    /// row is currently open in its bank — the FR-FCFS first-pass
    /// candidates, kept consistent on enqueue/dequeue/activate/precharge.
    hits: BTreeSet<(u8, u64, u32)>,
    /// Byte-span coverage of queued writes (empty for the read queue).
    coverage: WriteCoverage,
}

impl SchedQueue {
    /// Creates a queue for a device with `ranks` × `banks_per_rank` banks,
    /// pre-sized for `capacity` packets.
    pub fn new(ranks: u32, banks_per_rank: u32, capacity: usize) -> Self {
        let flat = (ranks * banks_per_rank) as usize;
        Self {
            slots: Vec::with_capacity(capacity),
            links: Vec::with_capacity(capacity),
            free: Vec::with_capacity(capacity),
            next_seq: 0,
            len: 0,
            banks_per_rank,
            class_head: Box::new([NIL; 256]),
            class_tail: Box::new([NIL; 256]),
            class_mask: [0; 4],
            by_bank: vec![Bucket::default(); flat],
            bank_mask: vec![0; flat.div_ceil(64)],
            by_row: DetMap::default(),
            spare_buckets: Vec::new(),
            open_rows: vec![None; flat],
            hits: BTreeSet::new(),
            coverage: WriteCoverage::default(),
        }
    }

    /// Clears every slot and derived index while keeping the allocations
    /// (slot arena, links, bank buckets, masks). Shared by
    /// [`reset`](Self::reset) and [`restore_state`](Self::restore_state),
    /// which must agree on what "empty" means.
    fn clear_to_empty(&mut self) {
        self.slots.clear();
        self.links.clear();
        self.free.clear();
        self.len = 0;
        *self.class_head = [NIL; 256];
        *self.class_tail = [NIL; 256];
        self.class_mask = [0; 4];
        for bucket in &mut self.by_bank {
            bucket.entries.clear();
        }
        for word in &mut self.bank_mask {
            *word = 0;
        }
        self.by_row.clear();
        self.open_rows.fill(None);
        self.hits.clear();
        self.coverage = WriteCoverage::default();
    }

    /// Returns the queue to its just-constructed state — byte-identical
    /// behaviour to a fresh [`new`](Self::new) with the same geometry —
    /// while keeping its allocations, so a worker thread can run many
    /// short jobs without rebuilding the arena each time.
    pub fn reset(&mut self) {
        self.clear_to_empty();
        self.next_seq = 0;
    }

    /// Flat bank id of a packet's (rank, bank).
    #[inline]
    pub fn flat_bank(&self, rank: u32, bank: u32) -> u32 {
        rank * self.banks_per_rank + bank
    }

    /// Number of queued packets (the queue depth in bursts).
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether the queue is empty.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Appends `slot` to its priority class's FIFO list. Sequence numbers
    /// are stamped monotonically, so a tail append keeps the list
    /// age-sorted.
    #[inline]
    fn list_push_back(&mut self, prio: u8, slot: u32) {
        let p = prio as usize;
        let tail = self.class_tail[p];
        self.links[slot as usize] = Link {
            prev: tail,
            next: NIL,
        };
        if tail == NIL {
            self.class_head[p] = slot;
            self.class_mask[p >> 6] |= 1 << (p & 63);
        } else {
            self.links[tail as usize].next = slot;
        }
        self.class_tail[p] = slot;
    }

    /// Unlinks `slot` from its priority class's FIFO list in O(1).
    #[inline]
    fn list_unlink(&mut self, prio: u8, slot: u32) {
        let p = prio as usize;
        let Link { prev, next } = self.links[slot as usize];
        if prev == NIL {
            self.class_head[p] = next;
        } else {
            self.links[prev as usize].next = next;
        }
        if next == NIL {
            self.class_tail[p] = prev;
        } else {
            self.links[next as usize].prev = prev;
        }
        if self.class_head[p] == NIL {
            self.class_mask[p >> 6] &= !(1 << (p & 63));
        }
    }

    /// Enqueues `pkt`, stamping its sequence number; returns its slot.
    pub fn push(&mut self, mut pkt: DramPacket) -> u32 {
        pkt.seq = self.next_seq;
        self.next_seq += 1;
        let key = order_key(&pkt);
        let b = self.flat_bank(pkt.da.rank, pkt.da.bank);
        let row = pkt.da.row;
        let prio = pkt.priority;
        if !pkt.is_read {
            self.coverage.insert(pkt.burst_addr, pkt.lo, pkt.hi);
        }
        let slot = match self.free.pop() {
            Some(s) => {
                self.slots[s as usize] = Some(pkt);
                s
            }
            None => {
                self.slots.push(Some(pkt));
                self.links.push(Link {
                    prev: NIL,
                    next: NIL,
                });
                (self.slots.len() - 1) as u32
            }
        };
        self.list_push_back(prio, slot);
        let bank_bucket = &mut self.by_bank[b as usize];
        if bank_bucket.entries.is_empty() {
            self.bank_mask[(b >> 6) as usize] |= 1 << (b & 63);
        }
        bank_bucket.insert(key, slot);
        match self.by_row.entry((b, row)) {
            std::collections::hash_map::Entry::Occupied(e) => e.into_mut(),
            std::collections::hash_map::Entry::Vacant(v) => {
                v.insert(self.spare_buckets.pop().unwrap_or_default())
            }
        }
        .insert(key, slot);
        if self.open_rows[b as usize] == Some(row) {
            self.hits.insert((key.0, key.1, slot));
        }
        self.len += 1;
        slot
    }

    /// The packet in `slot`.
    ///
    /// # Panics
    /// Panics on a stale slot.
    pub fn get(&self, slot: u32) -> &DramPacket {
        self.slots[slot as usize].as_ref().expect("stale slot")
    }

    /// Removes and returns the packet in `slot`, updating every index.
    pub fn take(&mut self, slot: u32) -> DramPacket {
        let pkt = self.slots[slot as usize].take().expect("stale slot");
        self.free.push(slot);
        let key = order_key(&pkt);
        let b = self.flat_bank(pkt.da.rank, pkt.da.bank);
        self.list_unlink(pkt.priority, slot);
        let bank_bucket = &mut self.by_bank[b as usize];
        bank_bucket.remove(key, slot);
        if bank_bucket.entries.is_empty() {
            self.bank_mask[(b >> 6) as usize] &= !(1 << (b & 63));
        }
        let bucket = self
            .by_row
            .get_mut(&(b, pkt.da.row))
            .expect("row bucket for queued packet");
        bucket.remove(key, slot);
        if bucket.len() == 0 {
            let bucket = self
                .by_row
                .remove(&(b, pkt.da.row))
                .expect("bucket looked up above");
            self.spare_buckets.push(bucket);
        }
        if self.open_rows[b as usize] == Some(pkt.da.row) {
            self.hits.remove(&(key.0, key.1, slot));
        }
        if !pkt.is_read {
            self.coverage.remove(pkt.burst_addr, pkt.lo, pkt.hi);
        }
        self.len -= 1;
        pkt
    }

    /// Highest QoS priority present in the queue.
    pub fn top_priority(&self) -> Option<u8> {
        for (w, &word) in self.class_mask.iter().enumerate().rev() {
            if word != 0 {
                return Some((w as u8) * 64 + (63 - word.leading_zeros() as u8));
            }
        }
        None
    }

    /// Slot of the oldest packet of the highest priority class (the FCFS
    /// pick).
    pub fn first_in_order(&self) -> Option<u32> {
        self.top_priority()
            .map(|p| self.class_head[p as usize])
            .filter(|&s| s != NIL)
    }

    /// Records that flat bank `b`'s open row changed (activate, precharge
    /// or refresh/power-down closure): packets queued to the previously
    /// open row leave the hit set, packets queued to the newly open row
    /// join it. The controller calls this on every row transition, which
    /// is what keeps [`best_row_hit`](Self::best_row_hit) depth- and
    /// bank-count-independent.
    pub fn set_open_row(&mut self, b: u32, row: Option<u64>) {
        let old = self.open_rows[b as usize];
        if old == row {
            return;
        }
        if let Some(r) = old {
            if let Some(bucket) = self.by_row.get(&(b, r)) {
                for e in &bucket.entries {
                    self.hits.remove(e);
                }
            }
        }
        self.open_rows[b as usize] = row;
        if let Some(r) = row {
            if let Some(bucket) = self.by_row.get(&(b, r)) {
                for e in &bucket.entries {
                    self.hits.insert(*e);
                }
            }
        }
    }

    /// Oldest `(seq, slot)` of priority `prio` whose target row is open in
    /// its bank — the FR-FCFS first pass, answered in O(log hits) without
    /// touching the banks.
    pub fn best_row_hit(&self, prio: u8) -> Option<(u64, u32)> {
        let ip = 255 - prio;
        match self.hits.range((ip, 0, 0)..).next() {
            Some(&(p, seq, slot)) if p == ip => Some((seq, slot)),
            _ => None,
        }
    }

    /// Calls `f` for every flat bank with queued packets, in ascending
    /// bank order (the order the miss-pass scan used).
    pub fn for_each_nonempty_bank(&self, mut f: impl FnMut(u32)) {
        for (w, &word) in self.bank_mask.iter().enumerate() {
            let mut bits = word;
            while bits != 0 {
                f((w as u32) * 64 + bits.trailing_zeros());
                bits &= bits - 1;
            }
        }
    }

    /// Oldest `(seq, slot)` of priority `prio` queued to `row` of the flat
    /// bank `b`, if any. Superseded in the scheduler by the incremental
    /// hit index ([`best_row_hit`](Self::best_row_hit)); kept for tests.
    #[cfg(test)]
    pub fn row_candidate(&self, b: u32, row: u64, prio: u8) -> Option<(u64, u32)> {
        self.by_row.get(&(b, row))?.first_of(255 - prio)
    }

    /// Oldest `(seq, slot)` of priority `prio` queued to the flat bank
    /// `b`, if any — the FR-FCFS first-available-bank probe.
    pub fn bank_candidate(&self, b: u32, prio: u8) -> Option<(u64, u32)> {
        self.by_bank[b as usize].first_of(255 - prio)
    }

    /// Packets queued to the flat bank `b` (any row, any priority).
    pub fn bank_len(&self, b: u32) -> usize {
        self.by_bank[b as usize].len()
    }

    /// Packets queued to `row` of the flat bank `b`.
    pub fn row_len(&self, b: u32, row: u64) -> usize {
        self.by_row.get(&(b, row)).map_or(0, Bucket::len)
    }

    /// Whether a queued write fully covers `[lo, hi)` of `burst_addr`
    /// (O(1) write snooping).
    pub fn write_covers(&self, burst_addr: u64, lo: u32, hi: u32) -> bool {
        self.coverage.covers(burst_addr, lo, hi)
    }

    /// Writes the queue: slot contents, the free list and the sequence
    /// counter. The derived indices (class lists, `by_bank`, `by_row`,
    /// `hits`, `coverage`) are pure functions of the live packets and the
    /// controller's bank state and are rebuilt on restore rather than
    /// serialised.
    pub fn save_state(&self, w: &mut SnapWriter) {
        w.u64(self.next_seq);
        w.usize(self.slots.len());
        for slot in &self.slots {
            match slot {
                Some(pkt) => {
                    w.bool(true);
                    save_packet(w, pkt);
                }
                None => w.bool(false),
            }
        }
        w.usize(self.free.len());
        for &f in &self.free {
            w.u32(f);
        }
    }

    /// Restores a queue written by [`save_state`](Self::save_state),
    /// rebuilding every index. The bank geometry is configuration and must
    /// match the snapshot's packets. The open-row mirror resets to
    /// all-closed; the controller re-announces open rows via
    /// [`set_open_row`](Self::set_open_row) after restoring its banks.
    pub fn restore_state(&mut self, r: &mut SnapReader<'_>) -> Result<(), SnapError> {
        self.next_seq = r.u64()?;
        let n_slots = r.usize()?;
        self.clear_to_empty();
        let mut order: Vec<(u64, u8, u32)> = Vec::new();
        for slot in 0..n_slots {
            if !r.bool()? {
                self.slots.push(None);
                self.links.push(Link {
                    prev: NIL,
                    next: NIL,
                });
                continue;
            }
            let pkt = read_packet(r)?;
            if pkt.seq >= self.next_seq {
                return Err(SnapError::Corrupt(format!(
                    "packet seq {} >= queue counter {}",
                    pkt.seq, self.next_seq
                )));
            }
            let key = order_key(&pkt);
            let b = self.flat_bank(pkt.da.rank, pkt.da.bank);
            if b as usize >= self.by_bank.len() {
                return Err(SnapError::Corrupt(format!(
                    "packet bank {b} outside device geometry"
                )));
            }
            order.push((pkt.seq, pkt.priority, slot as u32));
            let bank_bucket = &mut self.by_bank[b as usize];
            if bank_bucket.entries.is_empty() {
                self.bank_mask[(b >> 6) as usize] |= 1 << (b & 63);
            }
            bank_bucket.insert(key, slot as u32);
            self.by_row
                .entry((b, pkt.da.row))
                .or_default()
                .insert(key, slot as u32);
            if !pkt.is_read {
                self.coverage.insert(pkt.burst_addr, pkt.lo, pkt.hi);
            }
            self.slots.push(Some(pkt));
            self.links.push(Link {
                prev: NIL,
                next: NIL,
            });
            self.len += 1;
        }
        // Rebuild the per-class FIFO lists in age order; duplicate
        // sequence numbers cannot come from a saved queue.
        order.sort_unstable();
        for pair in order.windows(2) {
            if pair[0].0 == pair[1].0 {
                return Err(SnapError::Corrupt(format!(
                    "duplicate packet seq {}",
                    pair[0].0
                )));
            }
        }
        for &(_, prio, slot) in &order {
            self.list_push_back(prio, slot);
        }
        let n_free = r.usize()?;
        for _ in 0..n_free {
            let f = r.u32()?;
            if self.slots.get(f as usize).map_or(true, Option::is_some) {
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

    /// Live packets in unspecified order (for order-independent scans).
    #[cfg(test)]
    pub fn iter_packets(&self) -> impl Iterator<Item = &DramPacket> {
        self.slots.iter().filter_map(Option::as_ref)
    }

    /// Live `(slot, packet)` pairs in FIFO (sequence) order — the queue
    /// order the reference scheduler scans. O(n log n); reference only.
    #[cfg(test)]
    pub fn fifo_packets(&self) -> Vec<(u32, &DramPacket)> {
        let mut v: Vec<(u32, &DramPacket)> = self
            .slots
            .iter()
            .enumerate()
            .filter_map(|(i, s)| s.as_ref().map(|p| (i as u32, p)))
            .collect();
        v.sort_by_key(|(_, p)| p.seq);
        v
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dramctrl_mem::DramAddr;

    fn pkt(is_read: bool, rank: u32, bank: u32, row: u64, priority: u8) -> DramPacket {
        DramPacket {
            is_read,
            burst_addr: row * 0x1000 + u64::from(bank) * 64,
            lo: 0,
            hi: 64,
            da: DramAddr {
                rank,
                bank,
                row,
                col: 0,
            },
            entry_time: 0,
            priority,
            group: None,
            seq: 0, // stamped by push
            retries: 0,
        }
    }

    fn q() -> SchedQueue {
        SchedQueue::new(2, 8, 32)
    }

    /// The tail-append and head-removal fast paths leave a bucket exactly
    /// as the binary-search paths alone would: sorted, whatever mix of
    /// in-order, out-of-order (higher class, older seq) and mid-bucket
    /// operations it sees.
    #[test]
    fn bucket_fast_paths_keep_the_sorted_order() {
        use dramctrl_kernel::rng::Rng;
        let mut rng = Rng::seed_from_u64(0xB0C);
        let mut bucket = Bucket::default();
        let mut model: Vec<(u8, u64, u32)> = Vec::new();
        for seq in 0..2_000u64 {
            // Mostly one class in arrival order (appends); now and then a
            // packet that outranks the tail, or an old seq as a restore
            // would replay it.
            let inv_prio = if rng.gen_range(0..8) == 0 { 250 } else { 255 };
            let seq = if rng.gen_range(0..16) == 0 {
                seq / 2
            } else {
                seq + 2_000
            };
            let slot = rng.gen_range(0..64) as u32;
            if model.contains(&(inv_prio, seq, slot)) {
                continue;
            }
            bucket.insert((inv_prio, seq), slot);
            model.push((inv_prio, seq, slot));
            model.sort_unstable();
            assert_eq!(bucket.entries, model);
            while model.len() > rng.gen_range(0..12) as usize {
                // Mostly the head (FCFS / row-hit service), else anywhere.
                let at = if rng.gen_range(0..4) == 0 {
                    rng.gen_range(0..model.len() as u64) as usize
                } else {
                    0
                };
                let (p, s, slot) = model.remove(at);
                bucket.remove((p, s), slot);
                assert_eq!(bucket.entries, model);
            }
        }
    }

    #[test]
    fn fcfs_order_survives_slot_reuse() {
        let mut q = q();
        let a = q.push(pkt(true, 0, 0, 1, 0));
        let _b = q.push(pkt(true, 0, 1, 2, 0));
        q.take(a); // free slot 0
        let c = q.push(pkt(true, 0, 2, 3, 0)); // reuses slot 0
        assert_eq!(c, a, "slot reused");
        // FCFS pick is still the older packet despite the newer one
        // occupying a lower slot.
        let first = q.first_in_order().unwrap();
        assert_eq!(q.get(first).da.bank, 1);
    }

    #[test]
    fn priority_classes_order_before_age() {
        let mut q = q();
        q.push(pkt(true, 0, 0, 1, 0));
        let hi = q.push(pkt(true, 0, 1, 2, 3));
        assert_eq!(q.top_priority(), Some(3));
        assert_eq!(q.first_in_order(), Some(hi));
    }

    #[test]
    fn row_and_bank_candidates() {
        let mut q = q();
        q.push(pkt(true, 1, 2, 7, 0));
        let second = q.push(pkt(true, 1, 2, 7, 0));
        q.push(pkt(true, 1, 2, 9, 0));
        let b = q.flat_bank(1, 2);
        // Oldest packet for row 7 is the first push.
        let (seq, slot) = q.row_candidate(b, 7, 0).unwrap();
        assert_eq!(q.get(slot).da.row, 7);
        assert!(seq < q.get(second).seq);
        assert_eq!(q.row_len(b, 7), 2);
        assert_eq!(q.row_len(b, 9), 1);
        assert_eq!(q.bank_len(b), 3);
        assert!(q.row_candidate(b, 8, 0).is_none());
        assert!(q.bank_candidate(b, 1).is_none(), "no priority-1 packets");
    }

    #[test]
    fn hit_index_tracks_enqueue_dequeue_and_row_transitions() {
        let mut q = q();
        let b = q.flat_bank(0, 3);
        // No open rows: nothing hits.
        let a = q.push(pkt(true, 0, 3, 7, 0));
        assert_eq!(q.best_row_hit(0), None);
        // Activate row 7: the queued packet becomes the hit.
        q.set_open_row(b, Some(7));
        let (seq_a, slot_a) = q.best_row_hit(0).expect("hit after activate");
        assert_eq!(slot_a, a);
        // A younger packet to the same open row does not displace it.
        let _a2 = q.push(pkt(true, 0, 3, 7, 0));
        assert_eq!(q.best_row_hit(0).unwrap(), (seq_a, slot_a));
        // Enqueue to a different (closed) row: not a hit.
        q.push(pkt(true, 0, 3, 9, 0));
        assert_eq!(q.best_row_hit(0).unwrap(), (seq_a, slot_a));
        // Precharge removes both row-7 packets from the hit set.
        q.set_open_row(b, None);
        assert_eq!(q.best_row_hit(0), None);
        // Re-activate row 9: the row-9 packet hits now.
        q.set_open_row(b, Some(9));
        let (_, slot9) = q.best_row_hit(0).expect("row 9 open");
        assert_eq!(q.get(slot9).da.row, 9);
        // Taking the hit empties the set again.
        q.take(slot9);
        assert_eq!(q.best_row_hit(0), None);
        // Redundant transitions are no-ops.
        q.set_open_row(b, Some(9));
        assert_eq!(q.best_row_hit(0), None);
    }

    #[test]
    fn hit_index_respects_priority_classes() {
        let mut q = q();
        let b = q.flat_bank(0, 0);
        q.set_open_row(b, Some(5));
        let lo = q.push(pkt(true, 0, 0, 5, 0));
        let hi = q.push(pkt(true, 0, 0, 5, 3));
        // Per class: the class-3 hit is the younger packet, the class-0
        // hit the older one; a class with no hits reports none.
        assert_eq!(q.best_row_hit(3).unwrap().1, hi);
        assert_eq!(q.best_row_hit(0).unwrap().1, lo);
        assert_eq!(q.best_row_hit(1), None);
    }

    #[test]
    fn nonempty_bank_iteration_matches_occupancy() {
        let mut q = q();
        let collect = |q: &SchedQueue| {
            let mut v = Vec::new();
            q.for_each_nonempty_bank(|b| v.push(b));
            v
        };
        assert!(collect(&q).is_empty());
        let a = q.push(pkt(true, 0, 2, 1, 0));
        q.push(pkt(true, 1, 7, 2, 0));
        q.push(pkt(false, 1, 7, 3, 0));
        let b07 = q.flat_bank(0, 2);
        let b17 = q.flat_bank(1, 7);
        assert_eq!(collect(&q), vec![b07, b17], "ascending flat bank order");
        q.take(a);
        assert_eq!(collect(&q), vec![b17], "emptied bank drops out");
    }

    #[test]
    fn coverage_tracks_writes_only() {
        let mut q = q();
        let w = q.push(pkt(false, 0, 0, 1, 0));
        let r = q.push(pkt(true, 0, 0, 1, 0));
        let wa = q.get(w).burst_addr;
        let ra = q.get(r).burst_addr;
        assert!(q.write_covers(wa, 0, 64));
        assert!(q.write_covers(wa, 8, 16));
        assert_eq!(wa, ra);
        q.take(w);
        assert!(!q.write_covers(wa, 0, 64), "removed with the write");
    }

    #[test]
    fn fifo_packets_sorted_by_seq() {
        let mut q = q();
        let a = q.push(pkt(true, 0, 0, 1, 2));
        q.push(pkt(true, 0, 1, 2, 0));
        q.take(a);
        q.push(pkt(true, 0, 3, 4, 1));
        let seqs: Vec<u64> = q.fifo_packets().iter().map(|(_, p)| p.seq).collect();
        assert_eq!(seqs, vec![1, 2]);
        assert_eq!(q.iter_packets().count(), 2);
    }

    #[test]
    fn len_tracks_push_take() {
        let mut q = q();
        assert!(q.is_empty());
        let a = q.push(pkt(true, 0, 0, 1, 0));
        let b = q.push(pkt(false, 0, 0, 2, 0));
        assert_eq!(q.len(), 2);
        q.take(b);
        q.take(a);
        assert!(q.is_empty());
        assert_eq!(q.bank_len(0), 0);
    }

    #[test]
    #[should_panic(expected = "stale slot")]
    fn take_twice_panics() {
        let mut q = q();
        let a = q.push(pkt(true, 0, 0, 1, 0));
        q.take(a);
        q.take(a);
    }
}
