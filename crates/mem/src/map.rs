//! Address decoding schemes (paper Table I).
//!
//! The controller decodes a physical address into rank, bank, row and
//! column; channel interleaving happens *outside* the controller, in the
//! crossbar (Section II-A). A mapping is a *layout* of five fields — `Ro`
//! (row), `Ra` (rank), `Ba` (bank), `Co` (column), `Ch` (channel) — and
//! its name lists them from most to least significant, so the last field
//! changes fastest with sequential addresses:
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
//! Any order of the five is a mapping, decoded by one rule that gives
//! Table I's three bit for bit: channels interleave at `max(burst ×
//! Π(fields below Ch), 64 B)`, and column bits inside that granule which
//! the fields below `Ch` do not account for sit below every other field.
//!
//! Columns are addressed in *burst* units: the low `log2(burst_bytes)` bits
//! of the address are the byte offset within a burst and carry no decode
//! information.

use crate::spec::Organisation;
use Field::{Ba, Ch, Co, Ra, Ro};

/// One field of an address layout; `as usize` indexes the per-field
/// values of a [`DramAddr`] (`Ch` is handled by the crossbar).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
enum Field {
    Ro,
    Ra,
    Ba,
    Co,
    Ch,
}

impl Field {
    fn name(self) -> &'static str {
        ["Ro", "Ra", "Ba", "Co", "Ch"][self as usize]
    }

    /// How many values the field takes inside one channel of `org`, in
    /// bursts for `Co`.
    fn extent(self, org: &Organisation) -> u64 {
        match self {
            Ro => org.rows_per_bank(),
            Ra => u64::from(org.ranks),
            Ba => u64::from(org.banks),
            Co => org.bursts_per_row(),
            Ch => 1,
        }
    }
}

/// An address layout: the five fields `Ro Ra Ba Co Ch`, most significant
/// first. Table I's three layouts are the associated constants; any other
/// order parses from its name (see the [module docs](self)).
#[derive(Clone, Copy, PartialEq, Eq, Hash)]
pub struct AddrMapping([Field; 5]);

#[allow(non_upper_case_globals)]
impl AddrMapping {
    /// Row-Rank-Bank-Column-Channel (channel fastest; row-hit friendly).
    pub const RoRaBaCoCh: AddrMapping = AddrMapping([Ro, Ra, Ba, Co, Ch]);
    /// Row-Rank-Bank-Channel-Column (row-buffer-granularity interleaving).
    pub const RoRaBaChCo: AddrMapping = AddrMapping([Ro, Ra, Ba, Ch, Co]);
    /// Row-Column-Rank-Bank-Channel (bank-parallelism friendly).
    pub const RoCoRaBaCh: AddrMapping = AddrMapping([Ro, Co, Ra, Ba, Ch]);

    /// The granularity at which the crossbar interleaves channels: the
    /// span of the fields below `Ch` (a burst for the `..Ch` mappings, a row
    /// buffer for `RoRaBaChCo`), but never less than a 64-byte cache line,
    /// which the *controller* chops into bursts (paper Section II-A).
    pub fn interleave_granularity(self, org: &Organisation) -> u64 {
        self.granule(org).0
    }

    /// The granule in bytes and the column bursts in it left over by the
    /// fields below `Ch`: the fewest whole spans of those fields reaching
    /// [`MIN_CHANNEL_GRANULE`], `max(span, 64 B)` for power-of-two sizes.
    fn granule(self, org: &Organisation) -> (u64, u64) {
        let below = self.0.iter().rev().take_while(|&&f| f != Ch);
        let span: u64 = org.burst_bytes() * below.map(|f| f.extent(org)).product::<u64>();
        let sub = MIN_CHANNEL_GRANULE.div_ceil(span);
        (span * sub, sub)
    }
}

impl Default for AddrMapping {
    fn default() -> Self {
        AddrMapping::RoRaBaCoCh
    }
}

impl std::fmt::Display for AddrMapping {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        self.0.iter().try_for_each(|x| f.write_str(x.name()))
    }
}

/// The name, as `Display` prints it: configuration fingerprints hash `{:?}`.
impl std::fmt::Debug for AddrMapping {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        std::fmt::Display::fmt(self, f)
    }
}

impl std::str::FromStr for AddrMapping {
    type Err = String;

    /// Parses a field order naming each of `Ro Ra Ba Co Ch` once,
    /// case-insensitively; round-trips [`Display`](std::fmt::Display).
    fn from_str(s: &str) -> Result<Self, Self::Err> {
        let err = || format!("unknown mapping '{s}' (a field order, each of Ro Ra Ba Co Ch once)");
        let mut fields = [Ch; 5];
        for (slot, token) in fields.iter_mut().zip(s.as_bytes().chunks(2)) {
            *slot = [Ro, Ra, Ba, Co, Ch]
                .into_iter()
                .find(|f| f.name().as_bytes().eq_ignore_ascii_case(token))
                .ok_or_else(err)?;
        }
        if s.len() != 10 || (1..5).any(|i| fields[..i].contains(&fields[i])) {
            return Err(err());
        }
        Ok(AddrMapping(fields))
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
/// let da = dec.decode(5 * 64);
/// assert_eq!(da.col, 1);
/// assert_eq!(dec.encode(&da, 1), 5 * 64);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Decoder {
    /// Channel-interleaving granule, in bytes.
    granule: Radix,
    channels: Radix,
    burst: Radix,
    /// Column bursts in the granule left over by the fields below `Ch`.
    sub: Radix,
    /// The fields but `Ch`, least significant first; `Co` is above `sub`.
    fields: [(Field, Radix); 4],
}

impl Decoder {
    /// Binds `mapping` to a channel organisation interleaved over
    /// `channels` channels.
    pub fn new(mapping: AddrMapping, org: &Organisation, channels: u32) -> Self {
        let (granule, sub) = mapping.granule(org);
        let mut fields = [(Ch, Radix::new(1)); 4];
        let inner = mapping.0.iter().rev().filter(|&&f| f != Ch);
        for (slot, &f) in fields.iter_mut().zip(inner) {
            *slot = (f, Radix::new(f.extent(org) / if f == Co { sub } else { 1 }));
        }
        Self {
            granule: Radix::new(granule),
            channels: Radix::new(u64::from(channels)),
            burst: Radix::new(org.burst_bytes()),
            sub: Radix::new(sub),
            fields,
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
    /// the channel capacity wrap in the most significant field.
    #[inline]
    pub fn decode(&self, addr: u64) -> DramAddr {
        // Strip the channel bits: the address as seen inside one channel.
        let (granules, offset) = self.granule.split(addr);
        let (local_granules, _) = self.channels.split(granules);
        let local = local_granules * self.granule.n + offset;

        let (a, _) = self.burst.split(local);
        let (mut a, sub) = self.sub.split(a);
        // By `Field as usize`; five slots, so the index needs no check.
        let mut v = [0u64; 5];
        for &(field, radix) in &self.fields {
            let (rest, digit) = radix.split(a);
            v[field as usize] = digit;
            a = rest;
        }
        DramAddr {
            rank: v[Ra as usize] as u32,
            bank: v[Ba as usize] as u32,
            row: v[Ro as usize],
            col: v[Co as usize] * self.sub.n + sub,
        }
    }

    /// Encodes rank/bank/row/column and a channel back into a physical
    /// byte address — the inverse of [`decode`](Self::decode) and
    /// [`channel_of`](Self::channel_of), folding the same fields. The
    /// DRAM-aware traffic generator targets banks and rows with it.
    ///
    /// # Panics
    /// Panics (in debug builds) if any field exceeds the organisation's
    /// limits.
    pub fn encode(&self, da: &DramAddr, channel: u32) -> u64 {
        debug_assert!(u64::from(channel) < self.channels.n);
        let sub = self.sub.n;
        let v = [da.row, da.rank.into(), da.bank.into(), da.col / sub];
        let a = self.fields.iter().rev().fold(0, |a, &(field, radix)| {
            debug_assert!(v[field as usize] < radix.n, "{field:?} of {da:?}");
            a * radix.n + v[field as usize]
        });
        let local = (a * sub + da.col % sub) * self.burst.n;
        let (g, ch) = (self.granule.n, self.channels.n);
        (local / g) * g * ch + u64::from(channel) * g + local % g
    }
}

/// Minimum channel-interleaving granule: one cache line, so a line never
/// straddles channels even on sub-line-burst interfaces like LPDDR3 x32.
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
        let dec = Decoder::new(AddrMapping::RoRaBaCoCh, &org, 1);
        let first = dec.decode(0);
        // A full row's worth of sequential bursts stays in (rank0, bank0).
        for i in 0..org.bursts_per_row() {
            let d = dec.decode(i * org.burst_bytes());
            assert_eq!((d.rank, d.bank, d.row), (first.rank, first.bank, first.row));
            assert_eq!(d.col, i);
        }
        // The next burst moves to another bank (row change only after all
        // banks are swept).
        let next = dec.decode(org.row_buffer_bytes());
        assert_ne!(next.bank, first.bank);
    }

    #[test]
    fn sequential_addresses_sweep_banks_with_rocorabach() {
        let org = org();
        let dec = Decoder::new(AddrMapping::RoCoRaBaCh, &org, 1);
        for i in 0..u64::from(org.banks) {
            let d = dec.decode(i * org.burst_bytes());
            assert_eq!(d.bank, i as u32);
            assert_eq!(d.col, 0);
        }
        // After sweeping all banks the column advances.
        let d = dec.decode(u64::from(org.banks) * org.burst_bytes());
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
        let dec = Decoder::new(AddrMapping::RoRaBaCoCh, &org, 4);
        for i in 0..8u64 {
            assert_eq!(u64::from(dec.channel_of(i * org.burst_bytes())), i % 4);
        }
    }

    #[test]
    fn decode_ignores_byte_offset_within_burst() {
        let org = org();
        for m in ALL {
            let dec = Decoder::new(m, &org, 2);
            let a = dec.decode(0x1_2345_0000);
            let b = dec.decode(0x1_2345_0000 + org.burst_bytes() - 1);
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
            let dec = Decoder::new(m, &org, channels);
            // Align to a burst within one channel's capacity.
            let addr = raw / org.burst_bytes() * org.burst_bytes()
                % (org.capacity_bytes() * u64::from(channels));
            let ch = dec.channel_of(addr);
            let d = dec.decode(addr);
            assert_eq!(dec.encode(&d, ch), addr);
        }
    }

    /// Decoded fields are always within the organisation's bounds.
    #[test]
    fn decode_in_bounds() {
        let mut rng = Rng::seed_from_u64(0x3A9_0002);
        for _ in 0..1_024 {
            let raw = rng.next_u64();
            let org = org();
            let d = Decoder::new(ALL[rng.gen_range(0..3) as usize], &org, 2).decode(raw);
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
            let dec = Decoder::new(ALL[rng.gen_range(0..3) as usize], &org, 1);
            let a = rng.gen_range(0..1 << 24) * org.burst_bytes();
            let b = rng.gen_range(0..1 << 24) * org.burst_bytes();
            if a == b || a >= org.capacity_bytes() || b >= org.capacity_bytes() {
                continue;
            }
            assert_ne!(dec.decode(a), dec.decode(b));
        }
    }
}
