//! Cross-preset invariants: every device specification the library ships
//! must be internally consistent and survive the derived-geometry maths.

use dramctrl_kernel::rng::Rng;
use dramctrl_mem::{
    presets, AddrMapping, Decoder, DramAddr, MemCmd, MemRequest, MemResponse, Organisation, ReqId,
};

#[test]
fn presets_have_power_of_two_geometry() {
    for spec in presets::all() {
        let o = &spec.org;
        assert!(o.burst_bytes().is_power_of_two(), "{}", spec.name);
        assert!(o.row_buffer_bytes().is_power_of_two(), "{}", spec.name);
        assert!(o.bursts_per_row().is_power_of_two(), "{}", spec.name);
        assert!(o.rows_per_bank().is_power_of_two(), "{}", spec.name);
        assert!(o.banks.is_power_of_two(), "{}", spec.name);
    }
}

#[test]
fn presets_timing_orderings() {
    for spec in presets::all() {
        let t = &spec.timing;
        let n = spec.name;
        assert!(t.t_ras >= t.t_rcd, "{n}: tRAS covers tRCD");
        assert!(t.t_xaw >= t.t_rrd, "{n}: window at least one tRRD");
        assert!(t.t_refi == 0 || t.t_refi > t.t_rfc, "{n}: tREFI > tRFC");
        assert!(t.t_xs >= t.t_xp, "{n}: self-refresh exit dominates tXP");
        assert!(t.t_burst % t.t_ck == 0, "{n}: whole-cycle bursts");
    }
}

#[test]
fn presets_idd_orderings() {
    for spec in presets::all() {
        let i = &spec.idd;
        let n = spec.name;
        assert!(i.idd6 < i.idd2p || i.idd6 < i.idd2n, "{n}: IDD6 deepest");
        assert!(i.idd2p < i.idd2n, "{n}: power-down below standby");
        assert!(i.idd2n < i.idd3n, "{n}: precharge below active standby");
        assert!(i.idd4r > i.idd3n && i.idd4w > i.idd3n, "{n}: bursts cost");
        assert!(i.vdd > 0.0, "{n}");
    }
}

/// Channel routing and decode agree for every preset, mapping and
/// channel count: the routed channel's decode round-trips through
/// encode with that channel.
#[test]
fn routing_and_decode_consistent() {
    let mut rng = Rng::seed_from_u64(0x57EC_0001);
    let n_presets = presets::all().len() as u64;
    for _ in 0..1_024 {
        let spec = presets::all()[rng.gen_range(0..n_presets) as usize].clone();
        let m = [
            AddrMapping::RoRaBaCoCh,
            AddrMapping::RoRaBaChCo,
            AddrMapping::RoCoRaBaCh,
        ][rng.gen_range(0..3) as usize];
        let channels = rng.gen_range(1..5) as u32;
        let raw = rng.gen_range(0..1 << 30);
        let g = m.interleave_granularity(&spec.org);
        let addr = raw / g * g % (spec.org.capacity_bytes() * u64::from(channels));
        let ch = m.channel_of(addr, &spec.org, channels);
        assert!(ch < channels);
        let da = m.decode(addr, &spec.org, channels);
        let back = m.encode(&da, ch, &spec.org, channels);
        assert_eq!(back, addr, "{} {}", spec.name, m);
    }
}

/// The address arithmetic as it stood before [`Decoder`] existed — a
/// division or modulo per field, every divisor recomputed per call — kept
/// here as the oracle the precomputed decoder must agree with.
fn oracle(m: AddrMapping, addr: u64, org: &Organisation, channels: u32) -> (u32, DramAddr) {
    let g = m.interleave_granularity(org);
    let ch = u64::from(channels);
    let channel = ((addr / g) % ch) as u32;
    let local = (addr / (g * ch)) * g + addr % g;
    let burst = org.burst_bytes();
    let cols = org.bursts_per_row();
    let banks = u64::from(org.banks);
    let ranks = u64::from(org.ranks);
    let rows = org.rows_per_bank();
    let mut a = local / burst;
    let da = match m {
        AddrMapping::RoRaBaCoCh | AddrMapping::RoRaBaChCo => {
            let col = a % cols;
            a /= cols;
            let bank = (a % banks) as u32;
            a /= banks;
            let rank = (a % ranks) as u32;
            a /= ranks;
            DramAddr {
                rank,
                bank,
                row: a % rows,
                col,
            }
        }
        AddrMapping::RoCoRaBaCh => {
            let gb = (g / burst).max(1);
            let sub = a % gb;
            a /= gb;
            let bank = (a % banks) as u32;
            a /= banks;
            let rank = (a % ranks) as u32;
            a /= ranks;
            let stripes = cols / gb;
            let col_hi = a % stripes;
            a /= stripes;
            DramAddr {
                rank,
                bank,
                row: a % rows,
                col: col_hi * gb + sub,
            }
        }
    };
    (channel, da)
}

/// The precomputed decoder is the old arithmetic, bit for bit: every
/// preset x mapping x channel count (powers of two and not) x 10 000
/// seeded addresses, plus a three-rank organisation so a non-power-of-two
/// field *inside* the channel takes the division path too. `encode` still
/// inverts it.
#[test]
fn decoder_matches_the_division_arithmetic() {
    let mut rng = Rng::seed_from_u64(0x57EC_0003);
    let mut orgs: Vec<(&str, Organisation)> =
        presets::all().iter().map(|s| (s.name, s.org)).collect();
    let mut three_ranks = presets::ddr3_1333_x64().org;
    three_ranks.ranks = 3;
    orgs.push(("three-rank DDR3", three_ranks));
    for (name, org) in &orgs {
        for m in [
            AddrMapping::RoRaBaCoCh,
            AddrMapping::RoRaBaChCo,
            AddrMapping::RoCoRaBaCh,
        ] {
            for channels in [1u32, 2, 3, 4, 16] {
                let dec = Decoder::new(m, org, channels);
                let span = org.capacity_bytes() * u64::from(channels);
                for i in 0..10_000 {
                    // Mostly in range; every eighth address anywhere in
                    // the 64-bit space (rows wrap there).
                    let addr = if i % 8 == 0 {
                        rng.next_u64()
                    } else {
                        rng.gen_range(0..span)
                    };
                    let (ch, da) = oracle(m, addr, org, channels);
                    assert_eq!(dec.channel_of(addr), ch, "{name} {m} x{channels} {addr:#x}");
                    assert_eq!(dec.decode(addr), da, "{name} {m} x{channels} {addr:#x}");
                    assert_eq!(m.channel_of(addr, org, channels), ch);
                    assert_eq!(m.decode(addr, org, channels), da);
                    if addr < span {
                        let aligned = addr / org.burst_bytes() * org.burst_bytes();
                        let da = dec.decode(aligned);
                        let back = m.encode(&da, dec.channel_of(aligned), org, channels);
                        assert_eq!(back, aligned, "{name} {m} x{channels}");
                    }
                }
            }
        }
    }
}

/// Independent of the library's own geometry helpers: the channel's
/// shape worked out from the datasheet fields alone (device width, burst
/// length, page size, devices per rank, ranks, banks, die capacity).
/// For every preset x mapping x channel count, the first and last byte
/// of the address range, a dense run of bursts at either end and 10 000
/// seeded addresses all decode to a (rank, bank, row, column) that
/// exists in that shape, and no two distinct bursts share a
/// (channel, rank, bank, row, column) — an out-of-bounds rank or an
/// aliased cell is exactly what a wrong decode delivers silently.
#[test]
fn decoded_addresses_exist_in_the_datasheet_organisation_and_never_alias() {
    use std::collections::HashMap;
    let mut rng = Rng::seed_from_u64(0x57EC_0004);
    for spec in presets::all() {
        let o = &spec.org;
        let burst = u64::from(o.device_bus_width * o.devices_per_rank / 8 * o.burst_length);
        let cols = o.device_rowbuffer_bytes * u64::from(o.devices_per_rank) / burst;
        let die_bytes = o.device_capacity_mbit * (1 << 20) / 8;
        let rows = die_bytes / (o.device_rowbuffer_bytes * u64::from(o.banks));
        let channel_bytes = die_bytes * u64::from(o.devices_per_rank) * u64::from(o.ranks);
        assert_eq!(
            burst * cols * rows * u64::from(o.banks) * u64::from(o.ranks),
            channel_bytes,
            "{}: the fields tile the capacity",
            spec.name
        );
        for m in [
            AddrMapping::RoRaBaCoCh,
            AddrMapping::RoRaBaChCo,
            AddrMapping::RoCoRaBaCh,
        ] {
            for channels in [1u32, 2, 4, 16] {
                let what = format!("{} {m} x{channels}", spec.name);
                let dec = Decoder::new(m, o, channels);
                let span = channel_bytes * u64::from(channels);
                let bursts = span / burst;
                let mut cells: HashMap<(u32, u32, u32, u64, u64), u64> = HashMap::new();
                let dense = (0..4_096).chain(bursts - 4_096..bursts);
                let seeded: Vec<u64> = (0..10_000).map(|_| rng.gen_range(0..span)).collect();
                for addr in dense.map(|b| b * burst).chain(seeded).chain([0, span - 1]) {
                    let (ch, da) = (dec.channel_of(addr), dec.decode(addr));
                    assert!(ch < channels, "{what} {addr:#x}: channel {ch}");
                    assert!(da.rank < o.ranks, "{what} {addr:#x}: rank {}", da.rank);
                    assert!(da.bank < o.banks, "{what} {addr:#x}: bank {}", da.bank);
                    assert!(da.row < rows, "{what} {addr:#x}: row {}", da.row);
                    assert!(da.col < cols, "{what} {addr:#x}: column {}", da.col);
                    let cell = (ch, da.rank, da.bank, da.row, da.col);
                    let first = *cells.entry(cell).or_insert(addr / burst);
                    assert_eq!(
                        first,
                        addr / burst,
                        "{what}: bursts {first:#x} and {:#x} share {cell:?}",
                        addr / burst
                    );
                }
            }
        }
    }
}

/// Burst-granule neighbours within one interleave granule always land
/// in the same channel (lines never straddle channels).
#[test]
fn lines_never_straddle_channels() {
    let mut rng = Rng::seed_from_u64(0x57EC_0002);
    let n_presets = presets::all().len() as u64;
    for _ in 0..1_024 {
        let spec = presets::all()[rng.gen_range(0..n_presets) as usize].clone();
        let channels = rng.gen_range(2..5) as u32;
        let line = rng.gen_range(0..1 << 22);
        let m = AddrMapping::RoRaBaCoCh;
        let base = line * 64;
        let ch = m.channel_of(base, &spec.org, channels);
        for off in [0u64, 16, 32, 63] {
            assert_eq!(m.channel_of(base + off, &spec.org, channels), ch);
        }
    }
}

#[test]
fn request_response_round_trip_fields() {
    let req = MemRequest {
        id: ReqId(42),
        cmd: MemCmd::Write,
        addr: 0xdead_b000,
        size: 128,
        source: 9,
    };
    let resp = MemResponse::to(&req, 1_000);
    assert_eq!(resp.id, req.id);
    assert_eq!(resp.cmd, req.cmd);
    assert_eq!(resp.addr, req.addr);
    assert_eq!(resp.source, req.source);
    assert_eq!(resp.ready_at, 1_000);
}
