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
//! * a node column parallel to the slots (one [`Node`] per slot: the
//!   packet's `(priority, seq)` order key packed in one word, the handle
//!   of its row bucket and its three list links), so list walks and
//!   unlinks never read a packet;
//! * three intrusive doubly-linked lists threaded through the nodes (a
//!   [`Bucket`] of head, tail and length per list), each in
//!   `(priority descending, age)` order. Sequence numbers are stamped
//!   monotonically, so enqueue is a tail append — only a packet that
//!   outranks queued ones walks back from the tail — and dequeue an O(1)
//!   unlink from anywhere, its row bucket found by the node's handle
//!   rather than a lookup; no list ever allocates:
//!   * per priority class, with a 256-bit class mask: the FCFS pick and
//!     the QoS top class;
//!   * `by_bank` — per (rank, bank), with a bank occupancy bitmask, so
//!     FR-FCFS probes only *non-empty* banks instead of packets
//!     (O(occupied banks) per decision);
//!   * `by_row` — per (rank, bank, row), the list heads in an arena of
//!     recycled buckets behind a hash index, so row-hit detection and the
//!     adaptive page policies' `queued_to_row` are point lookups;
//! * the hit banks — a bank holds a row hit exactly when the bucket of
//!   its open row is non-empty, so per bank the queue keeps the handle of
//!   that bucket (`open_bucket`) and a bitmask of the banks that have
//!   one (`hit_mask`). A row transition the controller reports via
//!   [`set_open_row`](SchedQueue::set_open_row) swaps one handle and one
//!   bit whatever is queued to either row; enqueue/dequeue touch them
//!   only when a bucket appears or empties. The oldest row hit of the
//!   top QoS class — the FR-FCFS first pass — is the smallest
//!   `(seq, slot)` over the hit banks' bucket heads;
//! * a [`WriteCoverage`] multiset for O(1) write snooping.
//!
//! Determinism: the lists order by `(priority, seq)`; the hash maps use
//! the fixed-seed hasher from [`dramctrl_kernel::hash`] and are only
//! probed point-wise. No iteration order can differ between runs or leak
//! into scheduling. The scan implementations survive as test-only code
//! (`#[cfg(test)]` in `ctrl.rs`), and the differential harness
//! (`diff.rs`) proves both produce byte-identical results.

use std::collections::hash_map::Entry;

use dramctrl_kernel::hash::DetMap;
use dramctrl_kernel::snap::{SnapError, SnapReader, SnapWriter};
use dramctrl_mem::{Organisation, WriteCoverage};

use crate::queue::{read_packet, save_packet, DramPacket};

/// Sequence numbers stay below `2^56`, so a packet's order key fits one
/// word beside its inverted priority. A queue would need centuries of
/// bursts to get there; a snapshot claiming more is refused.
const SEQ_BITS: u32 = 56;
const SEQ_MASK: u64 = (1 << SEQ_BITS) - 1;

/// Sort key of a queued packet, packed in one word: QoS-descending, then
/// age-ascending. `255 - priority` in the top byte makes ascending key
/// order yield the highest-priority, oldest packet first, and the
/// sequence number below it makes every key distinct.
#[inline]
fn order_key(priority: u8, seq: u64) -> u64 {
    debug_assert!(seq <= SEQ_MASK, "sequence number {seq} overflows its key");
    (u64::from(255 - priority) << SEQ_BITS) | seq
}

/// The inverted priority class (`255 - priority`) of a packed key.
#[inline]
fn class_of(key: u64) -> u8 {
    (key >> SEQ_BITS) as u8
}

/// Sentinel for "no slot" / "no bucket".
const NIL: u32 = u32::MAX;

/// Calls `f` with the index of every set bit of `mask`, ascending, until
/// it returns `Some`; returns that.
#[inline]
fn find_bit<T>(mask: &[u64], mut f: impl FnMut(u32) -> Option<T>) -> Option<T> {
    for (w, &word) in mask.iter().enumerate() {
        let mut bits = word;
        while bits != 0 {
            if let Some(found) = f((w as u32) * 64 + bits.trailing_zeros()) {
                return Some(found);
            }
            bits &= bits - 1;
        }
    }
    None
}

/// Calls `f` with the index of every set bit of `mask`, ascending.
#[inline]
fn for_each_bit(mask: &[u64], mut f: impl FnMut(u32)) {
    find_bit(mask, |b| {
        f(b);
        None::<()>
    });
}

/// Neighbours of one queued packet within one of its lists.
#[derive(Debug, Clone, Copy)]
struct Link {
    prev: u32,
    next: u32,
}

/// What the indices know of one slot's packet, kept beside the packet
/// rather than read from it: every list walk compares keys and follows
/// links, so a walk touches these 40 bytes per step, never the packet.
#[derive(Debug, Clone, Copy)]
struct Node {
    /// The packet's [`order_key`].
    key: u64,
    /// Index in `rows` of the bucket the packet is listed in: `take`
    /// unlinks it there without looking the row up.
    row: u32,
    /// A queued packet is on three lists at once; each threads its own
    /// link.
    links: [Link; 3],
}

const CLASS: usize = 0;
const BANK: usize = 1;
const ROW: usize = 2;
const UNLINKED: Node = Node {
    key: u64::MAX,
    row: NIL,
    links: [Link {
        prev: NIL,
        next: NIL,
    }; 3],
};

/// One intrusive list of queued packets — a priority class, a bank's
/// candidates or a row's — in ascending [`order_key`] order. The links
/// and keys live in the queue's node column; the bucket is the list's
/// ends and length, so it never owns memory.
#[derive(Debug, Clone, Copy)]
struct Bucket {
    head: u32,
    tail: u32,
    len: u32,
}

const EMPTY: Bucket = Bucket {
    head: NIL,
    tail: NIL,
    len: 0,
};

impl Bucket {
    /// Links `slot` in behind `after` (`NIL`: at the head), threading
    /// link `via`.
    #[inline]
    fn insert_after(&mut self, nodes: &mut [Node], via: usize, after: u32, slot: u32) {
        let next = match after {
            NIL => std::mem::replace(&mut self.head, slot),
            _ => std::mem::replace(&mut nodes[after as usize].links[via].next, slot),
        };
        match next {
            NIL => self.tail = slot,
            _ => nodes[next as usize].links[via].prev = slot,
        }
        nodes[slot as usize].links[via] = Link { prev: after, next };
        self.len += 1;
    }

    /// Unlinks `slot`, wherever in the list it is.
    #[inline]
    fn unlink(&mut self, nodes: &mut [Node], via: usize, slot: u32) {
        let Link { prev, next } = nodes[slot as usize].links[via];
        match prev {
            NIL => self.head = next,
            _ => nodes[prev as usize].links[via].next = next,
        }
        match next {
            NIL => self.tail = prev,
            _ => nodes[next as usize].links[via].prev = prev,
        }
        self.len -= 1;
    }

    /// Links `slot`, whose node carries its key already, in at its
    /// place. Sequence numbers are stamped monotonically, so within one
    /// priority class a new packet sorts after everything queued and the
    /// loop does not run; it walks back from the tail past the packets a
    /// newcomer outranks (a higher QoS class, a RAS retry re-entering at
    /// top priority).
    #[inline]
    fn insert(&mut self, nodes: &mut [Node], via: usize, slot: u32) {
        let key = nodes[slot as usize].key;
        let mut after = self.tail;
        while after != NIL && nodes[after as usize].key > key {
            after = nodes[after as usize].links[via].prev;
        }
        self.insert_after(nodes, via, after, slot);
    }

    /// Oldest `(seq, slot)` of exactly the given inverted-priority class.
    /// The scheduler only asks for the queue's top class, which nothing
    /// queued outranks: the head then is of that class or no entry is,
    /// and the walk past higher classes is for other callers.
    #[inline]
    fn first_of(&self, nodes: &[Node], via: usize, inv_prio: u8) -> Option<(u64, u32)> {
        let mut slot = self.head;
        while slot != NIL {
            let node = &nodes[slot as usize];
            let class = class_of(node.key);
            if class >= inv_prio {
                return (class == inv_prio).then_some((node.key & SEQ_MASK, slot));
            }
            slot = node.links[via].next;
        }
        None
    }
}

/// One controller queue (read or write) with incremental scheduling
/// indices. See the module docs for the structure inventory.
#[derive(Debug)]
pub(crate) struct SchedQueue {
    slots: Vec<Option<DramPacket>>,
    /// Each slot's key, row bucket and list links, parallel to
    /// `slots`: derived from the packet when it is linked, never saved.
    nodes: Vec<Node>,
    free: Vec<u32>,
    next_seq: u64,
    len: usize,
    /// The channel, whose slots are the flat bank ids.
    org: Organisation,
    /// Each priority class's FIFO list.
    classes: Box<[Bucket; 256]>,
    /// Bit `p` set iff priority class `p` has queued packets.
    class_mask: [u64; 4],
    /// Flat bank id → candidates in that bank.
    by_bank: Vec<Bucket>,
    /// Bit `b` set iff flat bank `b` has queued packets.
    bank_mask: Vec<u64>,
    /// (flat bank id, row) → index in `rows` of that row's candidates;
    /// present exactly while the bucket is non-empty.
    by_row: DetMap<(u32, u64), u32>,
    /// Row-bucket arena: `open_bucket` needs a handle that stays put.
    rows: Vec<Bucket>,
    /// Indices of `rows` not in use.
    free_rows: Vec<u32>,
    /// Mirror of each flat bank's open row, driven by
    /// [`set_open_row`](Self::set_open_row).
    open_rows: Vec<Option<u64>>,
    /// Per flat bank, the `rows` index of its open row's bucket — the
    /// bank's queued row hits — or `NIL` when no row is open or nothing
    /// is queued to it.
    open_bucket: Vec<u32>,
    /// Bit `b` set iff `open_bucket[b] != NIL`.
    hit_mask: Vec<u64>,
    /// Byte-span coverage of queued writes (empty for the read queue).
    coverage: WriteCoverage,
}

impl SchedQueue {
    /// Creates a queue for a channel organised as `org`, pre-sized for
    /// `capacity` packets — and as many row buckets, the most that can be
    /// in use: the row index otherwise grows to its worst case one rare
    /// peak at a time, which a channel that sees a sixteenth of the
    /// traffic takes hundreds of thousands of requests to reach.
    pub fn new(org: Organisation, capacity: usize) -> Self {
        let flat = org.slots();
        Self {
            slots: Vec::with_capacity(capacity),
            nodes: Vec::with_capacity(capacity),
            free: Vec::with_capacity(capacity),
            next_seq: 0,
            len: 0,
            org,
            classes: Box::new([EMPTY; 256]),
            class_mask: [0; 4],
            by_bank: vec![EMPTY; flat],
            bank_mask: vec![0; flat.div_ceil(64)],
            by_row: DetMap::with_capacity_and_hasher(capacity, Default::default()),
            rows: Vec::with_capacity(capacity),
            free_rows: Vec::with_capacity(capacity),
            open_rows: vec![None; flat],
            open_bucket: vec![NIL; flat],
            hit_mask: vec![0; flat.div_ceil(64)],
            coverage: WriteCoverage::default(),
        }
    }

    /// Clears every slot and derived index while keeping the allocations
    /// (slot arena, nodes, bank buckets, masks, coverage table). Shared
    /// by [`reset`](Self::reset) and
    /// [`restore_state`](Self::restore_state), which must agree on what
    /// "empty" means.
    fn clear_to_empty(&mut self) {
        if self.len == 0 {
            // Drained: taking the last packet left every list, mask and
            // bucket handle empty, so only the arena and the open-row
            // mirror are left to clear.
            self.debug_assert_drained();
        } else {
            self.classes.fill(EMPTY);
            self.class_mask = [0; 4];
            self.by_bank.fill(EMPTY);
            self.bank_mask.fill(0);
            self.by_row.clear();
            self.open_bucket.fill(NIL);
            self.hit_mask.fill(0);
            self.coverage.clear();
        }
        self.slots.clear();
        self.nodes.clear();
        self.free.clear();
        self.len = 0;
        self.rows.clear();
        self.free_rows.clear();
        self.open_rows.fill(None);
    }

    /// Checks (debug builds) that an empty queue's indices are what
    /// [`new`](Self::new) builds.
    fn debug_assert_drained(&self) {
        let empty = |b: &Bucket| b.head == NIL && b.tail == NIL && b.len == 0;
        debug_assert!(
            self.classes.iter().all(empty),
            "a class list outlived its packets"
        );
        debug_assert!(
            self.by_bank.iter().all(empty),
            "a bank list outlived its packets"
        );
        debug_assert_eq!(self.class_mask, [0; 4]);
        debug_assert!(self.bank_mask.iter().all(|&w| w == 0));
        debug_assert!(self.by_row.is_empty(), "a row bucket outlived its packets");
        debug_assert!(self.open_bucket.iter().all(|&b| b == NIL));
        debug_assert!(self.hit_mask.iter().all(|&w| w == 0));
        debug_assert!(self.coverage.is_empty(), "a write span outlived its packet");
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
        self.org.slot(rank, bank) as u32
    }

    /// Number of queued packets (the queue depth in bursts).
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether the queue is empty.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Links `slot`, holding a packet of `priority` (its `seq` the
    /// youngest in its class unless a restore is replaying) queued to
    /// `row` of flat bank `b`, into its class, bank and row lists.
    #[inline]
    fn index(&mut self, slot: u32, priority: u8, seq: u64, b: u32, row: u64) {
        let p = priority as usize;
        // The bank's hit bucket if the row is open and has one; else the
        // row's bucket, taken from the arena if this is its first packet —
        // which, for the open row, makes the bank a hit bank.
        let open = self.open_rows[b as usize] == Some(row);
        let mut idx = if open {
            self.open_bucket[b as usize]
        } else {
            NIL
        };
        if idx == NIL {
            idx = match self.by_row.entry((b, row)) {
                Entry::Occupied(e) => *e.get(),
                Entry::Vacant(v) => *v.insert(self.free_rows.pop().unwrap_or_else(|| {
                    self.rows.push(EMPTY);
                    (self.rows.len() - 1) as u32
                })),
            };
            if open {
                self.open_bucket[b as usize] = idx;
                self.hit_mask[(b >> 6) as usize] |= 1 << (b & 63);
            }
        }
        let node = &mut self.nodes[slot as usize];
        node.key = order_key(priority, seq);
        node.row = idx;
        self.classes[p].insert(&mut self.nodes, CLASS, slot);
        self.class_mask[p >> 6] |= 1 << (p & 63);
        self.by_bank[b as usize].insert(&mut self.nodes, BANK, slot);
        self.bank_mask[(b >> 6) as usize] |= 1 << (b & 63);
        self.rows[idx as usize].insert(&mut self.nodes, ROW, slot);
    }

    /// Enqueues `pkt`, stamping its sequence number; returns its slot.
    #[inline]
    pub fn push(&mut self, mut pkt: DramPacket) -> u32 {
        pkt.seq = self.next_seq;
        self.next_seq += 1;
        if !pkt.is_read {
            self.coverage.insert(pkt.burst_addr, pkt.lo, pkt.hi);
        }
        let (priority, seq, row) = (pkt.priority, pkt.seq, pkt.da.row);
        let b = self.flat_bank(pkt.da.rank, pkt.da.bank);
        let slot = match self.free.pop() {
            Some(s) => {
                self.slots[s as usize] = Some(pkt);
                s
            }
            None => {
                self.slots.push(Some(pkt));
                self.nodes.push(UNLINKED);
                (self.slots.len() - 1) as u32
            }
        };
        self.index(slot, priority, seq, b, row);
        self.len += 1;
        slot
    }

    /// The packet in `slot`.
    ///
    /// # Panics
    /// Panics on a stale slot.
    #[cfg(test)]
    pub fn get(&self, slot: u32) -> &DramPacket {
        self.slots[slot as usize].as_ref().expect("stale slot")
    }

    /// Removes and returns the packet in `slot`, updating every index.
    #[inline]
    pub fn take(&mut self, slot: u32) -> DramPacket {
        let pkt = self.slots[slot as usize].take().expect("stale slot");
        self.free.push(slot);
        let Node { key, row, .. } = self.nodes[slot as usize];
        let p = usize::from(255 - class_of(key));
        let b = self.flat_bank(pkt.da.rank, pkt.da.bank);
        self.classes[p].unlink(&mut self.nodes, CLASS, slot);
        if self.classes[p].len == 0 {
            self.class_mask[p >> 6] &= !(1 << (p & 63));
        }
        let bank_bucket = &mut self.by_bank[b as usize];
        bank_bucket.unlink(&mut self.nodes, BANK, slot);
        if bank_bucket.len == 0 {
            self.bank_mask[(b >> 6) as usize] &= !(1 << (b & 63));
        }
        let bucket = &mut self.rows[row as usize];
        bucket.unlink(&mut self.nodes, ROW, slot);
        if bucket.len == 0 {
            self.by_row.remove(&(b, pkt.da.row));
            self.free_rows.push(row);
            // The open row's bucket is the bank's hit bucket: the bank
            // has no hit left.
            if self.open_bucket[b as usize] == row {
                self.open_bucket[b as usize] = NIL;
                self.hit_mask[(b >> 6) as usize] &= !(1 << (b & 63));
            }
        }
        if !pkt.is_read {
            self.coverage.remove(pkt.burst_addr, pkt.lo, pkt.hi);
        }
        self.len -= 1;
        pkt
    }

    /// Highest QoS priority present in the queue.
    #[inline]
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
    #[inline]
    pub fn first_in_order(&self) -> Option<u32> {
        self.top_priority()
            .map(|p| self.classes[p as usize].head)
            .filter(|&s| s != NIL)
    }

    /// Records that flat bank `b`'s open row changed (activate, precharge
    /// or refresh/power-down closure): the bank's hits are now the bucket
    /// of the new row, if it has one. One handle and one bit, however
    /// many packets are queued to the old or the new row — a closed-page
    /// policy makes two of these per burst.
    #[inline]
    pub fn set_open_row(&mut self, b: u32, row: Option<u64>) {
        if self.open_rows[b as usize] == row {
            return;
        }
        self.open_rows[b as usize] = row;
        let idx = match row {
            Some(r) if self.by_bank[b as usize].len != 0 => {
                self.by_row.get(&(b, r)).copied().unwrap_or(NIL)
            }
            _ => NIL,
        };
        self.open_bucket[b as usize] = idx;
        let (word, bit) = ((b >> 6) as usize, 1u64 << (b & 63));
        if idx == NIL {
            self.hit_mask[word] &= !bit;
        } else {
            self.hit_mask[word] |= bit;
        }
    }

    /// Oldest `(seq, slot)` of priority `prio` whose target row is open in
    /// its bank — the FR-FCFS first pass: the smallest sequence number
    /// over the heads of the hit banks' buckets, O(banks with a hit).
    #[inline]
    pub fn best_row_hit(&self, prio: u8) -> Option<(u64, u32)> {
        // `(seq, slot)` packed in one key: sequence numbers are distinct,
        // so its minimum is the oldest hit, found without a branch on
        // which hit is older.
        let mut best = u128::MAX;
        for_each_bit(&self.hit_mask, |b| {
            let hits = &self.rows[self.open_bucket[b as usize] as usize];
            if let Some((seq, slot)) = hits.first_of(&self.nodes, ROW, 255 - prio) {
                best = best.min((u128::from(seq) << 32) | u128::from(slot));
            }
        });
        (best != u128::MAX).then_some(((best >> 32) as u64, best as u32))
    }

    /// Calls `f` for every flat bank with queued packets, in ascending
    /// bank order (the order the miss-pass scan used).
    #[inline]
    pub fn for_each_nonempty_bank(&self, f: impl FnMut(u32)) {
        for_each_bit(&self.bank_mask, f);
    }

    /// Oldest `(seq, slot)` of priority `prio` queued to `row` of the flat
    /// bank `b`, if any. Superseded in the scheduler by the hit banks
    /// ([`best_row_hit`](Self::best_row_hit)); kept for tests.
    #[cfg(test)]
    pub fn row_candidate(&self, b: u32, row: u64, prio: u8) -> Option<(u64, u32)> {
        let bucket = &self.rows[*self.by_row.get(&(b, row))? as usize];
        bucket.first_of(&self.nodes, ROW, 255 - prio)
    }

    /// Oldest `(seq, slot)` of priority `prio` queued to the flat bank
    /// `b`, if any — the FR-FCFS first-available-bank probe.
    #[inline]
    pub fn bank_candidate(&self, b: u32, prio: u8) -> Option<(u64, u32)> {
        self.by_bank[b as usize].first_of(&self.nodes, BANK, 255 - prio)
    }

    /// Slot of the first bank candidate of priority `prio`, in ascending
    /// bank order, whose sequence number passes `pick`.
    #[inline]
    pub fn find_bank_candidate(&self, prio: u8, mut pick: impl FnMut(u64) -> bool) -> Option<u32> {
        find_bit(&self.bank_mask, |b| {
            let (seq, slot) = self.bank_candidate(b, prio)?;
            pick(seq).then_some(slot)
        })
    }

    /// Packets queued to the flat bank `b` (any row, any priority).
    pub fn bank_len(&self, b: u32) -> usize {
        self.by_bank[b as usize].len as usize
    }

    /// Packets queued to `row` of the flat bank `b`.
    #[inline]
    pub fn row_len(&self, b: u32, row: u64) -> usize {
        self.by_row
            .get(&(b, row))
            .map_or(0, |&idx| self.rows[idx as usize].len as usize)
    }

    /// Whether a queued write fully covers `[lo, hi)` of `burst_addr`
    /// (O(1) write snooping).
    #[inline]
    pub fn write_covers(&self, burst_addr: u64, lo: u32, hi: u32) -> bool {
        self.coverage.covers(burst_addr, lo, hi)
    }

    /// Writes the queue: slot contents, the free list and the sequence
    /// counter. The derived indices (the node column, the lists, `by_row`,
    /// the hit banks, `coverage`) are pure functions of the live packets and the
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
        if self.next_seq > SEQ_MASK {
            return Err(SnapError::Corrupt(format!(
                "queue counter {} past the sequence-number range",
                self.next_seq
            )));
        }
        let n_slots = r.usize()?;
        self.clear_to_empty();
        let mut order: Vec<(u64, u32)> = Vec::new();
        for slot in 0..n_slots {
            self.nodes.push(UNLINKED);
            if !r.bool()? {
                self.slots.push(None);
                continue;
            }
            let pkt = read_packet(r)?;
            if pkt.seq >= self.next_seq {
                return Err(SnapError::Corrupt(format!(
                    "packet seq {} >= queue counter {}",
                    pkt.seq, self.next_seq
                )));
            }
            if !self.org.has_bank(pkt.da.rank, pkt.da.bank) {
                return Err(SnapError::Corrupt(format!(
                    "packet rank {} bank {} outside device geometry",
                    pkt.da.rank, pkt.da.bank
                )));
            }
            if pkt.lo >= pkt.hi {
                return Err(SnapError::Corrupt(format!(
                    "packet covers the empty span [{}, {})",
                    pkt.lo, pkt.hi
                )));
            }
            order.push((pkt.seq, slot as u32));
            if !pkt.is_read {
                self.coverage.insert(pkt.burst_addr, pkt.lo, pkt.hi);
            }
            self.slots.push(Some(pkt));
            self.len += 1;
        }
        // Rebuild the lists in age order, as the packets were first
        // linked; duplicate sequence numbers cannot come from a saved
        // queue.
        order.sort_unstable();
        for pair in order.windows(2) {
            if pair[0].0 == pair[1].0 {
                return Err(SnapError::Corrupt(format!(
                    "duplicate packet seq {}",
                    pair[0].0
                )));
            }
        }
        for &(seq, slot) in &order {
            let pkt = self.slots[slot as usize].as_ref().expect("stored above");
            let (priority, row) = (pkt.priority, pkt.da.row);
            let b = self.flat_bank(pkt.da.rank, pkt.da.bank);
            self.index(slot, priority, seq, b, row);
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

    /// A channel of `ranks` × `banks`.
    fn geometry(ranks: u32, banks: u32) -> Organisation {
        let org = dramctrl_mem::presets::ddr3_1333_x64().org;
        Organisation {
            ranks,
            banks,
            ..org
        }
    }

    fn q() -> SchedQueue {
        SchedQueue::new(geometry(2, 8), 32)
    }

    /// The tail-append fast path and the walk back from the tail leave a
    /// bucket in sorted order — forwards and backwards, ends and length
    /// right — whatever mix of in-order, out-of-order (higher class, older
    /// seq) and mid-bucket operations it sees.
    #[test]
    fn bucket_fast_paths_keep_the_sorted_order() {
        use dramctrl_kernel::rng::Rng;
        let mut rng = Rng::seed_from_u64(0xB0C);
        let mut live = [false; 64];
        let mut nodes = vec![UNLINKED; 64];
        let mut bucket = EMPTY;
        let mut model: Vec<(u8, u64, u32)> = Vec::new();
        let check = |bucket: &Bucket, nodes: &[Node], model: &[(u8, u64, u32)]| {
            let mut forward = Vec::new();
            let mut slot = bucket.head;
            while slot != NIL {
                forward.push(slot);
                slot = nodes[slot as usize].links[BANK].next;
            }
            let mut backward = Vec::new();
            let mut slot = bucket.tail;
            while slot != NIL {
                backward.push(slot);
                slot = nodes[slot as usize].links[BANK].prev;
            }
            backward.reverse();
            let expect: Vec<u32> = model.iter().map(|e| e.2).collect();
            assert_eq!(forward, expect);
            assert_eq!(backward, expect);
            assert_eq!(bucket.len as usize, model.len());
        };
        for seq in 0..2_000u64 {
            // Mostly one class in arrival order (appends); now and then a
            // packet that outranks the tail, or an old seq as a restore
            // would replay it.
            let priority = if rng.gen_range(0..8) == 0 { 5 } else { 0 };
            let seq = if rng.gen_range(0..16) == 0 {
                seq / 2
            } else {
                seq + 2_000
            };
            let slot = rng.gen_range(0..64) as u32;
            if live[slot as usize] || model.iter().any(|e| e.1 == seq) {
                continue;
            }
            live[slot as usize] = true;
            nodes[slot as usize].key = order_key(priority, seq);
            bucket.insert(&mut nodes, BANK, slot);
            model.push((255 - priority, seq, slot));
            model.sort_unstable();
            check(&bucket, &nodes, &model);
            for class in [250, 255, 7] {
                let oldest = model.iter().find(|e| e.0 == class).map(|e| (e.1, e.2));
                assert_eq!(bucket.first_of(&nodes, BANK, class), oldest);
            }
            while model.len() > rng.gen_range(0..12) as usize {
                // Mostly the head (FCFS / row-hit service), else anywhere.
                let at = if rng.gen_range(0..4) == 0 {
                    rng.gen_range(0..model.len() as u64) as usize
                } else {
                    0
                };
                let (_, _, slot) = model.remove(at);
                bucket.unlink(&mut nodes, BANK, slot);
                live[slot as usize] = false;
                check(&bucket, &nodes, &model);
            }
        }
    }

    /// Every scheduling answer, worked out by scanning the live packets.
    struct Brute<'a> {
        q: &'a SchedQueue,
        open: &'a [Option<u64>],
    }

    impl Brute<'_> {
        fn oldest(&self, keep: impl Fn(u32, &DramPacket) -> bool) -> Option<(u64, u32)> {
            let live = self.q.slots.iter().enumerate();
            live.filter_map(|(slot, p)| Some((slot as u32, p.as_ref()?)))
                .filter(|(_, p)| keep(self.q.flat_bank(p.da.rank, p.da.bank), p))
                .map(|(slot, p)| (p.seq, slot))
                .min()
        }

        fn row_hit(&self, prio: u8) -> Option<(u64, u32)> {
            self.oldest(|b, p| p.priority == prio && self.open[b as usize] == Some(p.da.row))
        }

        fn bank_candidate(&self, bank: u32, prio: u8) -> Option<(u64, u32)> {
            self.oldest(|b, p| b == bank && p.priority == prio)
        }

        /// Compares everything the controller asks the queue.
        fn check(&self, classes: &[u8]) {
            let q = self.q;
            for &prio in classes {
                assert_eq!(q.best_row_hit(prio), self.row_hit(prio), "class {prio}");
                for b in 0..q.by_bank.len() as u32 {
                    assert_eq!(q.bank_candidate(b, prio), self.bank_candidate(b, prio));
                }
            }
            let mut occupied = Vec::new();
            q.for_each_nonempty_bank(|b| occupied.push(b));
            for b in 0..q.by_bank.len() as u32 {
                let in_bank = self.oldest(|pb, _| pb == b).is_some();
                assert_eq!(occupied.contains(&b), in_bank);
                let count = |keep: &dyn Fn(&DramPacket) -> bool| {
                    q.iter_packets()
                        .filter(|p| q.flat_bank(p.da.rank, p.da.bank) == b && keep(p))
                        .count()
                };
                assert_eq!(q.bank_len(b), count(&|_| true));
                for row in 0..4 {
                    assert_eq!(q.row_len(b, row), count(&|p| p.da.row == row));
                }
            }
            // The node column is the packets' own data: the key, and the
            // handle of the row bucket a lookup would find.
            for (slot, p) in q.fifo_packets() {
                let node = q.nodes[slot as usize];
                let b = q.flat_bank(p.da.rank, p.da.bank);
                assert_eq!(node.key, order_key(p.priority, p.seq));
                assert_eq!(Some(&node.row), q.by_row.get(&(b, p.da.row)));
            }
            let first = q
                .fifo_packets()
                .into_iter()
                .min_by_key(|(_, p)| order_key(p.priority, p.seq));
            assert_eq!(q.first_in_order(), first.map(|(slot, _)| slot));
            assert_eq!(q.top_priority(), first.map(|(_, p)| p.priority));
            assert_eq!(q.len(), q.iter_packets().count());
        }
    }

    /// Seeded push / take / row-transition mixes over a small geometry —
    /// three QoS classes, a packet now and then re-entering at priority
    /// 255 as a RAS retry does, slots reused constantly, a snapshot
    /// restored mid-way — answer every scheduling question exactly as a
    /// scan of the live packets does, after every single operation.
    #[test]
    fn hit_banks_and_candidates_match_a_brute_force_scan() {
        use dramctrl_kernel::rng::Rng;
        const CLASSES: [u8; 4] = [0, 3, 7, 255];
        for seed in 0..24u64 {
            let mut rng = Rng::seed_from_u64(0x5C4ED ^ seed);
            let mut q = SchedQueue::new(geometry(2, 4), 48);
            let mut open: Vec<Option<u64>> = vec![None; 8];
            for step in 0..700 {
                let live: Vec<u32> = q.fifo_packets().iter().map(|&(slot, _)| slot).collect();
                match rng.gen_range(0..10) {
                    0..=3 if q.len() < 48 => {
                        let prio = CLASSES[rng.gen_range(0..3) as usize];
                        let (rank, bank) = (rng.gen_range(0..2) as u32, rng.gen_range(0..4) as u32);
                        q.push(pkt(rng.gen_bool(), rank, bank, rng.gen_range(0..4), prio));
                    }
                    4 | 5 if !live.is_empty() => {
                        // What the controller takes: a row hit if there is
                        // one, else any packet.
                        let top = q.top_priority().unwrap();
                        let slot = match q.best_row_hit(top) {
                            Some((_, slot)) if rng.gen_bool() => slot,
                            _ => live[rng.gen_range(0..live.len() as u64) as usize],
                        };
                        let mut taken = q.take(slot);
                        if rng.gen_range(0..6) == 0 {
                            taken.priority = u8::MAX;
                            taken.retries += 1;
                            q.push(taken);
                        }
                    }
                    6..=8 => {
                        let b = rng.gen_range(0..8) as usize;
                        open[b] = match rng.gen_range(0..3) {
                            0 => None,
                            _ => Some(rng.gen_range(0..4)),
                        };
                        q.set_open_row(b as u32, open[b]);
                    }
                    _ => {}
                }
                Brute { q: &q, open: &open }.check(&CLASSES);
                if step == 350 {
                    let mut w = SnapWriter::new(0);
                    q.save_state(&mut w);
                    let bytes = w.into_bytes();
                    let mut restored = SchedQueue::new(geometry(2, 4), 48);
                    restored.push(pkt(true, 0, 0, 1, 9)); // replaced, not merged
                    let mut r = SnapReader::new(&bytes, 0).unwrap();
                    restored.restore_state(&mut r).unwrap();
                    assert!(r.is_exhausted());
                    // Restored all-closed; the controller re-announces.
                    Brute {
                        q: &restored,
                        open: &[None; 8],
                    }
                    .check(&CLASSES);
                    for (b, &row) in open.iter().enumerate() {
                        restored.set_open_row(b as u32, row);
                    }
                    q = restored;
                    Brute { q: &q, open: &open }.check(&CLASSES);
                }
            }
        }
    }

    /// A closed-page policy on a linear stream: the row is opened for one
    /// burst and closed again, with a queue 1 024 deep on that very row.
    /// Each transition flips the whole queue between "all hits" and "no
    /// hit", and the answers stay the scan's.
    #[test]
    fn closed_page_transitions_on_a_deep_same_row_queue() {
        let mut q = SchedQueue::new(geometry(1, 8), 1024);
        let b = q.flat_bank(0, 5);
        let mut open = vec![None; 8];
        for _ in 0..1024 {
            q.push(pkt(true, 0, 5, 3, 0));
        }
        for round in 0..300 {
            // Activate: every queued packet is a hit, the oldest first.
            open[b as usize] = Some(3);
            q.set_open_row(b, Some(3));
            let brute = Brute { q: &q, open: &open };
            let hit = q.best_row_hit(0).expect("1 024 hits");
            assert_eq!(Some(hit), brute.row_hit(0));
            assert_eq!(Some(hit), q.bank_candidate(b, 0));
            let taken = q.take(hit.1);
            assert_eq!(taken.seq, round, "oldest first");
            // Auto-precharge: nothing hits, the bank still has its queue.
            open[b as usize] = None;
            q.set_open_row(b, None);
            assert_eq!(q.best_row_hit(0), None);
            let brute = Brute { q: &q, open: &open };
            assert_eq!(q.bank_candidate(b, 0), brute.bank_candidate(b, 0));
            assert_eq!(q.row_len(b, 3), 1023);
            // The stream refills the slot just freed.
            assert_eq!(q.push(pkt(true, 0, 5, 3, 0)), hit.1);
        }
        Brute { q: &q, open: &open }.check(&[0]);
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
