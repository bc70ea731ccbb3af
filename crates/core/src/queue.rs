//! DRAM packets: one queued burst of a chopped request, and the
//! write-coverage test of the reference model (paper Section II-A).
//!
//! Chopping and the burst-group arena are
//! [`dramctrl_mem::queue`]'s, shared with the cycle baseline.

use dramctrl_kernel::snap::{SnapError, SnapReader, SnapWriter};
use dramctrl_kernel::Tick;
use dramctrl_mem::{snapio, DramAddr};

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
}
