//! Address decoding schemes (paper Table I).
//!
//! The controller decodes a physical address into rank, bank, row and
//! column; channel interleaving happens *outside* the controller, in the
//! crossbar (Section II-A). The mapping name lists the fields from most to
//! least significant, so the last field changes fastest with sequential
//! addresses:
//!
//! * `RoRaBaCoCh` — channel bits at the bottom, columns above: sequential
//!   addresses sweep channels and then columns of the same row, maximising
//!   row-buffer hits (used with open-page policies, Section III-B);
//! * `RoRaBaChCo` — a whole row per channel; channel interleaving at
//!   row-buffer granularity;
//! * `RoCoRaBaCh` — banks and ranks just above the channel bits:
//!   sequential addresses sweep banks, maximising bank-level parallelism
//!   (used with closed-page policies).
//!
//! Columns are addressed in *burst* units: the low `log2(burst_bytes)` bits
//! of the address are the byte offset within a burst and carry no decode
//! information.

use crate::spec::Organisation;

/// The three address decoding schemes of Table I.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum AddrMapping {
    /// Row-Rank-Bank-Column-Channel (channel fastest; row-hit friendly).
    #[default]
    RoRaBaCoCh,
    /// Row-Rank-Bank-Channel-Column (row-buffer-granularity interleaving).
    RoRaBaChCo,
    /// Row-Column-Rank-Bank-Channel (bank-parallelism friendly).
    RoCoRaBaCh,
}

impl std::fmt::Display for AddrMapping {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let s = match self {
            AddrMapping::RoRaBaCoCh => "RoRaBaCoCh",
            AddrMapping::RoRaBaChCo => "RoRaBaChCo",
            AddrMapping::RoCoRaBaCh => "RoCoRaBaCh",
        };
        f.write_str(s)
    }
}

impl std::str::FromStr for AddrMapping {
    type Err = String;

    /// Parses a mapping name case-insensitively; round-trips
    /// [`Display`](std::fmt::Display).
    fn from_str(s: &str) -> Result<Self, Self::Err> {
        match s.to_ascii_lowercase().as_str() {
            "rorabacoch" => Ok(AddrMapping::RoRaBaCoCh),
            "rorabachco" => Ok(AddrMapping::RoRaBaChCo),
            "rocorabach" => Ok(AddrMapping::RoCoRaBaCh),
            other => Err(format!(
                "unknown mapping '{other}' (RoRaBaCoCh, RoRaBaChCo, RoCoRaBaCh)"
            )),
        }
    }
}

/// A decoded DRAM address (channel handled separately by the crossbar).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct DramAddr {
    /// Rank index within the channel.
    pub rank: u32,
    /// Bank index within the rank.
    pub bank: u32,
    /// Row index within the bank.
    pub row: u64,
    /// Column index within the row, in burst units.
    pub col: u64,
}

impl DramAddr {
    /// Flat index of the (rank, bank) pair, useful for per-bank arrays.
    pub fn bank_id(&self, org: &Organisation) -> usize {
        (self.rank * org.banks + self.bank) as usize
    }
}

impl AddrMapping {
    /// The granularity at which the crossbar interleaves channels for this
    /// mapping: one DRAM burst — but never less than a 64-byte cache line,
    /// so whole lines stay within one channel and the *controller* chops
    /// them into sub-line bursts (paper Section II-A) — for the `..Ch`
    /// mappings, and a whole row buffer for `RoRaBaChCo`.
    pub fn interleave_granularity(self, org: &Organisation) -> u64 {
        match self {
            AddrMapping::RoRaBaCoCh | AddrMapping::RoCoRaBaCh => {
                org.burst_bytes().max(MIN_CHANNEL_GRANULE)
            }
            AddrMapping::RoRaBaChCo => org.row_buffer_bytes(),
        }
    }

    /// The channel an address routes to (one-off form of
    /// [`Decoder::channel_of`]).
    pub fn channel_of(self, addr: u64, org: &Organisation, channels: u32) -> u32 {
        Decoder::new(self, org, channels).channel_of(addr)
    }

    /// Inserts channel bits into a channel-local address — the inverse of
    /// the channel stripping [`Decoder::decode`] performs.
    fn insert_channel(self, local: u64, channel: u32, org: &Organisation, channels: u32) -> u64 {
        let g = self.interleave_granularity(org);
        let ch = u64::from(channels);
        (local / g) * g * ch + u64::from(channel) * g + local % g
    }

    /// Decodes a physical byte address into rank/bank/row/column — the
    /// one-off form of [`Decoder::decode`]; anything decoding per burst
    /// builds the [`Decoder`] once instead.
    pub fn decode(self, addr: u64, org: &Organisation, channels: u32) -> DramAddr {
        Decoder::new(self, org, channels).decode(addr)
    }

    /// Encodes rank/bank/row/column (and a channel) back into a physical
    /// byte address — the inverse of [`AddrMapping::decode`]. Used by the
    /// DRAM-aware traffic generator to construct addresses that target
    /// specific banks and rows (paper Section III-A).
    ///
    /// # Panics
    /// Panics (in debug builds) if any field exceeds the organisation's
    /// limits.
    pub fn encode(self, da: &DramAddr, channel: u32, org: &Organisation, channels: u32) -> u64 {
        debug_assert!(da.col < org.bursts_per_row());
        debug_assert!(da.bank < org.banks);
        debug_assert!(da.rank < org.ranks);
        debug_assert!(da.row < org.rows_per_bank());
        debug_assert!(channel < channels);

        let burst = org.burst_bytes();
        let cols = org.bursts_per_row();
        let banks = u64::from(org.banks);
        let ranks = u64::from(org.ranks);
        let (rank, bank, row, col) = (u64::from(da.rank), u64::from(da.bank), da.row, da.col);

        let a = match self {
            AddrMapping::RoRaBaCoCh | AddrMapping::RoRaBaChCo => {
                ((row * ranks + rank) * banks + bank) * cols + col
            }
            AddrMapping::RoCoRaBaCh => {
                let gb = (self.interleave_granularity(org) / burst).max(1);
                let (col_hi, sub) = (col / gb, col % gb);
                let stripes = cols / gb;
                (((row * stripes + col_hi) * ranks + rank) * banks + bank) * gb + sub
            }
        };
        self.insert_channel(a * burst, channel, org, channels)
    }
}

/// One positional field of the address: splits a value into (quotient,
/// remainder) by the field's radix — a shift and a mask when the radix is
/// a power of two, a division otherwise.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct Radix {
    n: u64,
    /// `log2(n)`, or [`Radix::DIVIDE`] when `n` is not a power of two.
    shift: u32,
}

impl Radix {
    const DIVIDE: u32 = u32::MAX;

    fn new(n: u64) -> Self {
        let shift = if n.is_power_of_two() {
            n.trailing_zeros()
        } else {
            Self::DIVIDE
        };
        Self { n, shift }
    }

    #[inline]
    fn split(self, a: u64) -> (u64, u64) {
        if self.shift == Self::DIVIDE {
            (a / self.n, a % self.n)
        } else {
            (a >> self.shift, a & (self.n - 1))
        }
    }
}

/// An [`AddrMapping`] bound to one organisation and channel count, with
/// every field width worked out once: the per-burst decode and the
/// crossbar's per-request routing are then shifts and masks (all shipped
/// presets have power-of-two geometry; any field that does not — three
/// channels, say — falls back to a division by its hoisted radix).
///
/// # Example
/// ```
/// use dramctrl_mem::{presets, AddrMapping, Decoder};
///
/// let org = presets::ddr3_1333_x64().org;
/// let dec = Decoder::new(AddrMapping::RoRaBaCoCh, &org, 4);
/// // Burst-interleaved: consecutive bursts round-robin the channels and
/// // land in consecutive columns of the same row.
/// assert_eq!(dec.channel_of(5 * 64), 1);
/// assert_eq!(dec.decode(5 * 64).col, 1);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Decoder {
    mapping: AddrMapping,
    /// Channel-interleaving granule, in bytes.
    granule: Radix,
    channels: Radix,
    burst: Radix,
    /// Bursts per interleaving granule (`RoCoRaBaCh` keeps these low
    /// column bits below the bank bits).
    granule_bursts: Radix,
    /// Columns above the granule: all of them for the `Ro..Co..` mappings,
    /// the per-row stripe count for `RoCoRaBaCh`.
    cols: Radix,
    banks: Radix,
    ranks: Radix,
    rows: Radix,
}

impl Decoder {
    /// Binds `mapping` to a channel organisation interleaved over
    /// `channels` channels.
    pub fn new(mapping: AddrMapping, org: &Organisation, channels: u32) -> Self {
        let granule = mapping.interleave_granularity(org);
        let burst = org.burst_bytes();
        let cols = org.bursts_per_row();
        let granule_bursts = match mapping {
            // With the channel bits stripped, both row-hit-friendly
            // mappings order the fields identically: Co lowest.
            AddrMapping::RoRaBaCoCh | AddrMapping::RoRaBaChCo => 1,
            // Bank bits lowest (above any intra-granule columns), so
            // sequential granules sweep banks.
            AddrMapping::RoCoRaBaCh => (granule / burst).max(1),
        };
        Self {
            mapping,
            granule: Radix::new(granule),
            channels: Radix::new(u64::from(channels)),
            burst: Radix::new(burst),
            granule_bursts: Radix::new(granule_bursts),
            cols: Radix::new(cols / granule_bursts),
            banks: Radix::new(u64::from(org.banks)),
            ranks: Radix::new(u64::from(org.ranks)),
            rows: Radix::new(org.rows_per_bank()),
        }
    }

    /// The channel an address routes to.
    #[inline]
    pub fn channel_of(&self, addr: u64) -> u32 {
        let (granules, _) = self.granule.split(addr);
        self.channels.split(granules).1 as u32
    }

    /// Decodes a physical byte address into rank/bank/row/column.
    ///
    /// The channel bits (at the mapping's
    /// [`interleave_granularity`](AddrMapping::interleave_granularity))
    /// are skipped — the crossbar routed the packet here. Addresses beyond
    /// the channel capacity wrap in the row field.
    #[inline]
    pub fn decode(&self, addr: u64) -> DramAddr {
        // Strip the channel bits: the address as seen inside one channel.
        let (granules, offset) = self.granule.split(addr);
        let (local_granules, _) = self.channels.split(granules);
        let local = local_granules * self.granule.n + offset;

        let (a, _) = self.burst.split(local);
        let (a, sub) = self.granule_bursts.split(a);
        let (a, col, bank, rank) = match self.mapping {
            AddrMapping::RoRaBaCoCh | AddrMapping::RoRaBaChCo => {
                let (a, col) = self.cols.split(a);
                let (a, bank) = self.banks.split(a);
                let (a, rank) = self.ranks.split(a);
                (a, col, bank, rank)
            }
            AddrMapping::RoCoRaBaCh => {
                let (a, bank) = self.banks.split(a);
                let (a, rank) = self.ranks.split(a);
                let (a, col_hi) = self.cols.split(a);
                (a, col_hi * self.granule_bursts.n + sub, bank, rank)
            }
        };
        DramAddr {
            rank: rank as u32,
            bank: bank as u32,
            row: self.rows.split(a).1,
            col,
        }
    }
}

/// Minimum channel-interleaving granule for the burst-interleaved
/// mappings: one cache line, so a line never straddles channels even on
/// narrow (sub-line-burst) interfaces like LPDDR3 x32.
pub const MIN_CHANNEL_GRANULE: u64 = 64;

#[cfg(test)]
mod tests {
    use super::*;
    use crate::presets;
    use dramctrl_kernel::rng::Rng;

    fn org() -> Organisation {
        presets::ddr3_1333_x64().org
    }

    const ALL: [AddrMapping; 3] = [
        AddrMapping::RoRaBaCoCh,
        AddrMapping::RoRaBaChCo,
        AddrMapping::RoCoRaBaCh,
    ];

    #[test]
    fn sequential_addresses_hit_same_row_with_rorabacoch() {
        let org = org();
        let m = AddrMapping::RoRaBaCoCh;
        let first = m.decode(0, &org, 1);
        // A full row's worth of sequential bursts stays in (rank0, bank0).
        for i in 0..org.bursts_per_row() {
            let d = m.decode(i * org.burst_bytes(), &org, 1);
            assert_eq!((d.rank, d.bank, d.row), (first.rank, first.bank, first.row));
            assert_eq!(d.col, i);
        }
        // The next burst moves to another bank (row change only after all
        // banks are swept).
        let next = m.decode(org.row_buffer_bytes(), &org, 1);
        assert_ne!(next.bank, first.bank);
    }

    #[test]
    fn sequential_addresses_sweep_banks_with_rocorabach() {
        let org = org();
        let m = AddrMapping::RoCoRaBaCh;
        for i in 0..u64::from(org.banks) {
            let d = m.decode(i * org.burst_bytes(), &org, 1);
            assert_eq!(d.bank, i as u32);
            assert_eq!(d.col, 0);
        }
        // After sweeping all banks the column advances.
        let d = m.decode(u64::from(org.banks) * org.burst_bytes(), &org, 1);
        assert_eq!(d.bank, 0);
        assert_eq!(d.col, 1);
    }

    #[test]
    fn channel_interleaving_granularity() {
        let org = org();
        assert_eq!(
            AddrMapping::RoRaBaCoCh.interleave_granularity(&org),
            org.burst_bytes()
        );
        assert_eq!(
            AddrMapping::RoRaBaChCo.interleave_granularity(&org),
            org.row_buffer_bytes()
        );
        // Four channels, burst interleaved: bursts round-robin channels.
        for i in 0..8u64 {
            let ch = AddrMapping::RoRaBaCoCh.channel_of(i * org.burst_bytes(), &org, 4);
            assert_eq!(u64::from(ch), i % 4);
        }
    }

    #[test]
    fn decode_ignores_byte_offset_within_burst() {
        let org = org();
        for m in ALL {
            let a = m.decode(0x1_2345_0000, &org, 2);
            let b = m.decode(0x1_2345_0000 + org.burst_bytes() - 1, &org, 2);
            assert_eq!(a, b, "mapping {m}");
        }
    }

    /// encode is the right inverse of decode for every mapping.
    #[test]
    fn decode_encode_round_trip() {
        let mut rng = Rng::seed_from_u64(0x3A9_0001);
        for _ in 0..1_024 {
            let raw = rng.gen_range(0..2 << 30);
            let channels = rng.gen_range(1..5) as u32;
            let m = ALL[rng.gen_range(0..3) as usize];
            let org = org();
            // Align to a burst within one channel's capacity.
            let addr = raw / org.burst_bytes() * org.burst_bytes()
                % (org.capacity_bytes() * u64::from(channels));
            let ch = m.channel_of(addr, &org, channels);
            let d = m.decode(addr, &org, channels);
            let back = m.encode(&d, ch, &org, channels);
            assert_eq!(back, addr);
        }
    }

    /// Decoded fields are always within the organisation's bounds.
    #[test]
    fn decode_in_bounds() {
        let mut rng = Rng::seed_from_u64(0x3A9_0002);
        for _ in 0..1_024 {
            let raw = rng.next_u64();
            let org = org();
            let d = ALL[rng.gen_range(0..3) as usize].decode(raw, &org, 2);
            assert!(d.rank < org.ranks);
            assert!(d.bank < org.banks);
            assert!(d.row < org.rows_per_bank());
            assert!(d.col < org.bursts_per_row());
        }
    }

    /// Distinct burst-aligned addresses within one channel never decode
    /// to the same (rank, bank, row, col) tuple.
    #[test]
    fn decode_injective() {
        let mut rng = Rng::seed_from_u64(0x3A9_0003);
        for _ in 0..1_024 {
            let org = org();
            let m = ALL[rng.gen_range(0..3) as usize];
            let a = rng.gen_range(0..1 << 24) * org.burst_bytes();
            let b = rng.gen_range(0..1 << 24) * org.burst_bytes();
            if a == b || a >= org.capacity_bytes() || b >= org.capacity_bytes() {
                continue;
            }
            assert_ne!(m.decode(a, &org, 1), m.decode(b, &org, 1));
        }
    }
}
