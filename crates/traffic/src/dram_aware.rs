//! The DRAM-aware traffic generator (created as part of the paper,
//! Section III-A).

use crate::{Pacer, TrafficGen};
use dramctrl_kernel::rng::Rng;
use dramctrl_kernel::snap::{SnapError, SnapReader, SnapState, SnapWriter};
use dramctrl_kernel::Tick;
use dramctrl_mem::{AddrMapping, Decoder, DramAddr, MemRequest, Organisation};

/// A generator that knows the DRAM's internal organisation — page size,
/// bank count and address mapping — and uses [`Decoder::encode`] to
/// construct addresses with an exact row-hit run length (`stride_bursts`)
/// spread over an exact number of banks (`banks_used`).
///
/// * `stride_bursts = 1` makes every access open a fresh row (0% hit
///   rate); `stride_bursts = bursts_per_row` walks whole pages (maximum
///   hit rate under an open-page policy).
/// * `banks_used` controls bank-level parallelism and exposes tRRD/tFAW.
/// * the read/write mix exposes tWTR and the write-switching scheme.
///
/// Groups of `stride_bursts` sequential bursts round-robin over the first
/// `banks_used` banks (across all ranks, rank-major); each visit to a bank
/// starts a fresh row so the first burst of a group always misses.
#[derive(Debug)]
pub struct DramAwareGen {
    pacer: Pacer,
    org: Organisation,
    decoder: Decoder,
    channel: u32,
    stride_bursts: u64,
    banks_used: u32,
    read_pct: u8,
    rng: Rng,
    bank_idx: u32,
    rows: Vec<u64>,
    seq: u64,
}

impl DramAwareGen {
    /// Creates a DRAM-aware generator.
    ///
    /// `stride_bursts` is clamped into `1..=bursts_per_row`; requests are
    /// one burst each and round-robin over `banks_used` banks
    /// (`1..=org.slots()`), targeting `channel` of `channels`.
    ///
    /// # Panics
    /// Panics if `banks_used` is zero or exceeds the device's bank count,
    /// or `read_pct > 100`.
    #[allow(clippy::too_many_arguments)]
    pub fn new(
        org: Organisation,
        mapping: AddrMapping,
        channels: u32,
        channel: u32,
        stride_bursts: u64,
        banks_used: u32,
        read_pct: u8,
        period: Tick,
        count: u64,
        seed: u64,
    ) -> Self {
        let total_banks = org.slots();
        assert!(
            (1..=total_banks).contains(&(banks_used as usize)),
            "banks_used must be in 1..={total_banks}"
        );
        assert!(read_pct <= 100, "read percentage must be at most 100");
        let stride_bursts = stride_bursts.clamp(1, org.bursts_per_row());
        Self {
            pacer: Pacer::new(period, count),
            org,
            decoder: Decoder::new(mapping, &org, channels),
            channel,
            stride_bursts,
            banks_used,
            read_pct,
            rng: Rng::seed_from_u64(seed),
            bank_idx: 0,
            rows: vec![0; banks_used as usize],
            seq: 0,
        }
    }

    /// The stride (row-hit run length) in bursts.
    pub fn stride_bursts(&self) -> u64 {
        self.stride_bursts
    }
}

impl SnapState for DramAwareGen {
    fn save_state(&self, w: &mut SnapWriter) {
        self.pacer.save_state(w);
        self.rng.save_state(w);
        w.u32(self.bank_idx);
        w.usize(self.rows.len());
        for &row in &self.rows {
            w.u64(row);
        }
        w.u64(self.seq);
    }

    fn restore_state(&mut self, r: &mut SnapReader<'_>) -> Result<(), SnapError> {
        self.pacer.restore_state(r)?;
        self.rng.restore_state(r)?;
        let bank_idx = r.u32()?;
        if bank_idx >= self.banks_used {
            return Err(SnapError::Corrupt(format!(
                "bank cursor {bank_idx} outside the {} banks used",
                self.banks_used
            )));
        }
        self.bank_idx = bank_idx;
        let n_rows = r.usize()?;
        if n_rows != self.rows.len() {
            return Err(SnapError::Corrupt(format!(
                "snapshot tracks {n_rows} banks, generator uses {}",
                self.rows.len()
            )));
        }
        for row in &mut self.rows {
            *row = r.u64()?;
        }
        let seq = r.u64()?;
        if seq >= self.stride_bursts {
            return Err(SnapError::Corrupt(format!(
                "stride cursor {seq} at or beyond stride {}",
                self.stride_bursts
            )));
        }
        self.seq = seq;
        Ok(())
    }
}

impl TrafficGen for DramAwareGen {
    fn next_request(&mut self) -> Option<(Tick, MemRequest)> {
        let (tick, id) = self.pacer.take()?;
        let (rank, bank) = self.org.rank_bank(self.bank_idx as usize);
        let row = self.rows[self.bank_idx as usize] % self.org.rows_per_bank();
        let addr = self.decoder.encode(
            &DramAddr {
                rank,
                bank,
                row,
                col: self.seq,
            },
            self.channel,
        );

        // Advance: next burst in the stride, or move to the next bank with
        // a fresh row.
        self.seq += 1;
        if self.seq == self.stride_bursts {
            self.seq = 0;
            self.rows[self.bank_idx as usize] += 1;
            self.bank_idx = (self.bank_idx + 1) % self.banks_used;
        }

        let size = self.org.burst_bytes() as u32;
        let req = if self.rng.gen_range(0..100) < u64::from(self.read_pct) {
            MemRequest::read(id, addr, size)
        } else {
            MemRequest::write(id, addr, size)
        };
        Some((tick, req))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dramctrl_mem::presets;

    fn gen_with(stride: u64, banks: u32, count: u64) -> DramAwareGen {
        DramAwareGen::new(
            presets::ddr3_1333_x64().org,
            AddrMapping::RoRaBaCoCh,
            1,
            0,
            stride,
            banks,
            100,
            0,
            count,
            1,
        )
    }

    fn decode_all(g: &mut DramAwareGen) -> Vec<DramAddr> {
        let dec = Decoder::new(AddrMapping::RoRaBaCoCh, &presets::ddr3_1333_x64().org, 1);
        std::iter::from_fn(|| g.next_request())
            .map(|(_, r)| dec.decode(r.addr))
            .collect()
    }

    #[test]
    fn stride_one_never_repeats_a_row() {
        let mut g = gen_with(1, 1, 16);
        let das = decode_all(&mut g);
        assert!(das.iter().all(|d| d.bank == 0));
        let mut rows: Vec<_> = das.iter().map(|d| d.row).collect();
        rows.dedup();
        assert_eq!(rows.len(), 16, "every access opens a fresh row");
    }

    #[test]
    fn stride_runs_within_one_row() {
        let mut g = gen_with(4, 1, 12);
        let das = decode_all(&mut g);
        for group in das.chunks(4) {
            assert!(group.iter().all(|d| d.row == group[0].row));
            let cols: Vec<_> = group.iter().map(|d| d.col).collect();
            assert_eq!(cols, vec![0, 1, 2, 3]);
        }
        assert_ne!(das[0].row, das[4].row);
    }

    #[test]
    fn banks_round_robin() {
        let mut g = gen_with(2, 4, 16);
        let das = decode_all(&mut g);
        let banks: Vec<_> = das.iter().map(|d| d.bank).collect();
        assert_eq!(banks, vec![0, 0, 1, 1, 2, 2, 3, 3, 0, 0, 1, 1, 2, 2, 3, 3]);
    }

    #[test]
    fn stride_clamped_to_page() {
        let g = gen_with(10_000, 1, 1);
        assert_eq!(
            g.stride_bursts(),
            presets::ddr3_1333_x64().org.bursts_per_row()
        );
    }

    #[test]
    fn expected_hit_rate_from_stride() {
        // With stride S, (S-1)/S of accesses are row hits under open page.
        let mut g = gen_with(8, 2, 800);
        let das = decode_all(&mut g);
        let mut hits = 0;
        let mut last_row = [None; 8];
        for d in &das {
            if last_row[d.bank as usize] == Some(d.row) {
                hits += 1;
            }
            last_row[d.bank as usize] = Some(d.row);
        }
        assert_eq!(hits, 800 / 8 * 7);
    }

    #[test]
    #[should_panic(expected = "banks_used")]
    fn too_many_banks_panics() {
        let _ = gen_with(1, 99, 1);
    }
}
