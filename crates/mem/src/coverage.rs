//! O(1) write-queue burst-coverage index.
//!
//! Both controller models snoop their write queue on every incoming
//! request: a read burst fully covered by a queued write is serviced from
//! the queue (read forwarding), and a write burst fully covered by a queued
//! write is dropped (write merging) — paper Section II-A. Scanning the
//! queue makes every acceptance O(queue depth); gem5's production
//! controller grew an `isInWriteQueue` address set for exactly this reason.
//!
//! [`WriteCoverage`] is that set, generalised to the sub-burst writes this
//! model supports: a deterministic hash multiset keyed by burst-aligned
//! address, whose value is the list of byte spans `[lo, hi)` of the queued
//! write packets for that burst. Lookup, insert and removal are O(1)
//! expected — the span list of a single burst is almost always one entry,
//! because a new span subsumed by an existing one is merged away by the
//! caller rather than inserted. That one span is stored in the table
//! itself; only a burst with several partial writes queued has a span
//! vector, taken from and returned to a spare pool — so a queue in steady
//! state never calls the allocator.
//!
//! A *widest-span-only* summary (as a first cut might try) would not be
//! equivalent to scanning the queue: two partial writes `[0,10)` and
//! `[20,64)` cover `[5,8)` via the *narrower* span. Keeping every span
//! preserves exact scan semantics, which the differential tests in the
//! `dramctrl` crate rely on.
//!
//! Determinism: the map is only ever probed point-wise (never iterated),
//! and the hasher is fixed-seed ([`dramctrl_kernel::hash`]), so no hash
//! order can leak into scheduling decisions.

use dramctrl_kernel::hash::DetMap;
use std::collections::hash_map::Entry;

/// The spans queued for one burst, in insertion order (`swap_remove` on
/// removal): one inline, or a vector once there are more.
#[derive(Debug, Clone)]
enum Spans {
    One((u32, u32)),
    Many(Vec<(u32, u32)>),
}

impl Spans {
    fn as_slice(&self) -> &[(u32, u32)] {
        match self {
            Spans::One(span) => std::slice::from_ref(span),
            Spans::Many(spans) => spans,
        }
    }
}

/// Deterministic multiset of queued-write byte spans, keyed by
/// burst-aligned address.
///
/// # Example
/// ```
/// use dramctrl_mem::WriteCoverage;
///
/// let mut cov = WriteCoverage::default();
/// cov.insert(0x80, 0, 64);
/// assert!(cov.covers(0x80, 16, 32)); // subsumed read: forward it
/// assert!(!cov.covers(0xc0, 0, 8)); // different burst
/// cov.remove(0x80, 0, 64);
/// assert!(cov.is_empty());
/// ```
#[derive(Debug, Clone, Default)]
pub struct WriteCoverage {
    by_burst: DetMap<u64, Spans>,
    /// Emptied span vectors awaiting the next multi-span burst.
    spare: Vec<Vec<(u32, u32)>>,
    len: usize,
}

impl WriteCoverage {
    /// Records a queued write covering `[lo, hi)` of the burst at
    /// `burst_addr`.
    #[inline]
    pub fn insert(&mut self, burst_addr: u64, lo: u32, hi: u32) {
        debug_assert!(lo < hi, "empty span");
        match self.by_burst.entry(burst_addr) {
            Entry::Vacant(v) => {
                v.insert(Spans::One((lo, hi)));
            }
            Entry::Occupied(mut e) => match e.get_mut() {
                Spans::Many(spans) => spans.push((lo, hi)),
                &mut Spans::One(first) => {
                    let mut spans = self.spare.pop().unwrap_or_default();
                    spans.extend([first, (lo, hi)]);
                    e.insert(Spans::Many(spans));
                }
            },
        }
        self.len += 1;
    }

    /// Removes one previously inserted span (the write left the queue).
    ///
    /// # Panics
    /// Panics if the span was never inserted — the index and the queue
    /// would be out of sync, which is a controller bug.
    #[inline]
    pub fn remove(&mut self, burst_addr: u64, lo: u32, hi: u32) {
        let Entry::Occupied(mut e) = self.by_burst.entry(burst_addr) else {
            panic!("coverage entry for removed write");
        };
        let at = e.get().as_slice().iter().position(|&s| s == (lo, hi));
        let at = at.expect("span for removed write");
        match e.get_mut() {
            Spans::Many(spans) if spans.len() > 1 => {
                spans.swap_remove(at);
            }
            _ => {
                if let Spans::Many(mut spans) = e.remove() {
                    spans.clear();
                    self.spare.push(spans);
                }
            }
        }
        self.len -= 1;
    }

    /// Whether some queued write fully covers `[lo, hi)` of the burst at
    /// `burst_addr` — exactly the condition the linear queue scan tests.
    #[inline]
    pub fn covers(&self, burst_addr: u64, lo: u32, hi: u32) -> bool {
        self.by_burst
            .get(&burst_addr)
            .is_some_and(|spans| spans.as_slice().iter().any(|&(l, h)| l <= lo && h >= hi))
    }

    /// Empties the index, keeping its table's and its span vectors'
    /// allocations: a queue reset between short jobs neither frees the
    /// map nor regrows and rehashes it in the next job.
    pub fn clear(&mut self) {
        for (_, spans) in self.by_burst.drain() {
            if let Spans::Many(mut spans) = spans {
                spans.clear();
                self.spare.push(spans);
            }
        }
        self.len = 0;
    }

    /// Number of spans currently indexed (equals queued write bursts).
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether no spans are indexed.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }
}

impl dramctrl_kernel::snap::SnapState for WriteCoverage {
    // The map is only ever probed point-wise, so the multiset is the whole
    // observable state; keys are written sorted to keep the snapshot bytes
    // deterministic regardless of insertion history.
    fn save_state(&self, w: &mut dramctrl_kernel::snap::SnapWriter) {
        let mut keys: Vec<u64> = self.by_burst.keys().copied().collect();
        keys.sort_unstable();
        w.usize(keys.len());
        for k in keys {
            let spans = self.by_burst[&k].as_slice();
            w.u64(k);
            w.usize(spans.len());
            for &(lo, hi) in spans {
                w.u32(lo);
                w.u32(hi);
            }
        }
    }

    fn restore_state(
        &mut self,
        r: &mut dramctrl_kernel::snap::SnapReader<'_>,
    ) -> Result<(), dramctrl_kernel::snap::SnapError> {
        use dramctrl_kernel::snap::SnapError;
        self.by_burst.clear();
        self.len = 0;
        let n_keys = r.usize()?;
        for _ in 0..n_keys {
            let k = r.u64()?;
            let n_spans = r.usize()?;
            if n_spans == 0 {
                return Err(SnapError::Corrupt(format!("burst {k:#x} with no spans")));
            }
            let mut spans = Vec::new(); // not reserved: the count is unchecked input
            for _ in 0..n_spans {
                let lo = r.u32()?;
                let hi = r.u32()?;
                if lo >= hi {
                    return Err(SnapError::Corrupt(format!("empty span [{lo}, {hi})")));
                }
                spans.push((lo, hi));
            }
            self.len += spans.len();
            let spans = match spans[..] {
                [one] => Spans::One(one),
                _ => Spans::Many(spans),
            };
            if self.by_burst.insert(k, spans).is_some() {
                return Err(SnapError::Corrupt(format!("duplicate burst key {k:#x}")));
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn covers_requires_subsumption() {
        let mut cov = WriteCoverage::default();
        cov.insert(64, 8, 40);
        assert!(cov.covers(64, 8, 40));
        assert!(cov.covers(64, 10, 20));
        assert!(!cov.covers(64, 0, 40), "starts before the write");
        assert!(!cov.covers(64, 8, 48), "ends after the write");
        assert!(!cov.covers(128, 8, 40), "different burst");
    }

    #[test]
    fn multiple_spans_per_burst() {
        let mut cov = WriteCoverage::default();
        cov.insert(0, 0, 10);
        cov.insert(0, 20, 64);
        // The narrower span answers; a widest-only summary would miss this.
        assert!(cov.covers(0, 5, 8));
        assert!(cov.covers(0, 30, 60));
        assert!(!cov.covers(0, 5, 30));
        cov.remove(0, 0, 10);
        assert!(!cov.covers(0, 5, 8));
        assert!(cov.covers(0, 30, 60));
        assert_eq!(cov.len(), 1);
    }

    #[test]
    fn remove_clears_entries() {
        let mut cov = WriteCoverage::default();
        cov.insert(0x40, 0, 64);
        cov.insert(0x80, 0, 64);
        cov.remove(0x40, 0, 64);
        cov.remove(0x80, 0, 64);
        assert!(cov.is_empty());
        assert!(!cov.covers(0x40, 0, 64));
    }

    #[test]
    fn snapshot_round_trip_preserves_multiset() {
        use dramctrl_kernel::snap::{SnapReader, SnapState, SnapWriter};
        let mut cov = WriteCoverage::default();
        cov.insert(0x80, 0, 64);
        cov.insert(0x80, 8, 16);
        cov.insert(0x40, 0, 32);
        let mut w = SnapWriter::new(0);
        cov.save_state(&mut w);
        let bytes = w.into_bytes();
        let mut restored = WriteCoverage::default();
        restored.insert(0xFF, 0, 1); // stale state is replaced, not merged
        let mut r = SnapReader::new(&bytes, 0).unwrap();
        restored.restore_state(&mut r).unwrap();
        assert!(r.is_exhausted());
        assert_eq!(restored.len(), 3);
        assert!(restored.covers(0x80, 10, 14));
        assert!(restored.covers(0x40, 0, 32));
        assert!(!restored.covers(0xFF, 0, 1));
        // Restored index accepts removals exactly like the original.
        restored.remove(0x80, 8, 16);
        assert!(restored.covers(0x80, 8, 16), "wider span still covers");
        // Snapshot bytes are deterministic regardless of insertion order.
        let mut cov2 = WriteCoverage::default();
        cov2.insert(0x40, 0, 32);
        cov2.insert(0x80, 0, 64);
        cov2.insert(0x80, 8, 16);
        let mut w2 = SnapWriter::new(0);
        cov2.save_state(&mut w2);
        assert_eq!(bytes, w2.into_bytes());
    }

    #[test]
    #[should_panic(expected = "span for removed write")]
    fn removing_unknown_span_panics() {
        let mut cov = WriteCoverage::default();
        cov.insert(0, 0, 64);
        cov.remove(0, 0, 32);
    }
}
