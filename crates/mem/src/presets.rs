//! Ready-made DRAM device specifications.
//!
//! Three groups:
//!
//! * [`ddr3_1333_x64`] — the validation device of paper Section III
//!   (2 Gbit, 8 x8 devices, 666 MHz), matched against the DRAMSim2-style
//!   baseline;
//! * [`ddr3_1600_x64`], [`lpddr3_1600_x32`], [`wideio_200_x128`] — the
//!   exact Table IV configurations used in the future-system case study
//!   (Section IV-B): one 64-bit DDR3 channel, two 32-bit LPDDR3 channels or
//!   four 128-bit WideIO channels, all peaking at 12.8 GB/s;
//! * [`ddr4_2400_x64`], [`lpddr2_1066_x32`], [`gddr5_4000_x64`],
//!   [`hbm_1000_x128`] — additional interfaces demonstrating the model's
//!   controller-centric flexibility (Section II: "the difference between
//!   LPDDR and DDR is only distinguished by their timings and DRAM
//!   organisations").
//!
//! IDD currents follow datasheet classes for each technology; absolute
//! power is approximate, but both controller models consume the same values
//! so the *comparisons* (Section III-C3) are meaningful.
//!
//! Note on `t_refi`: the paper's Table IV prints refresh intervals of
//! 7.8/15/35 for DDR3/LPDDR3/WideIO; these are microseconds (the standard
//! DDR3 interval is 7.8 us) and are encoded as such here.

use crate::spec::{IddCurrents, MemSpec, Organisation, Timing};
use dramctrl_kernel::tick::{from_ns, from_us};

/// DDR3-1333: the validation device of Section III — 2 Gbit, 8 x8 devices
/// forming a 64-bit rank at 666 MHz (1333 MT/s). 8 KB logical row buffer.
pub fn ddr3_1333_x64() -> MemSpec {
    MemSpec {
        name: "DDR3-1333-x64",
        org: Organisation {
            device_bus_width: 8,
            burst_length: 8,
            device_rowbuffer_bytes: 1024,
            devices_per_rank: 8,
            ranks: 1,
            banks: 8,
            device_capacity_mbit: 2048,
        },
        timing: Timing {
            t_ck: from_ns(1.5),
            t_burst: from_ns(6.0),
            t_rcd: from_ns(13.5),
            t_cl: from_ns(13.5),
            t_rp: from_ns(13.5),
            t_ras: from_ns(36.0),
            t_wr: from_ns(15.0),
            t_rtp: from_ns(7.5),
            t_rrd: from_ns(6.0),
            t_xaw: from_ns(30.0),
            activation_limit: 4,
            t_wtr: from_ns(7.5),
            t_rtw: from_ns(3.0),
            t_rfc: from_ns(160.0),
            t_xp: from_ns(7.5),
            t_xs: from_ns(170.0),
            t_refi: from_us(7.8),
        },
        idd: IddCurrents {
            vdd: 1.5,
            idd0: 95.0,
            idd2p: 12.0,
            idd2n: 42.0,
            idd3n: 45.0,
            idd4r: 180.0,
            idd4w: 185.0,
            idd5: 215.0,
            idd6: 1.5,
        },
    }
}

/// DDR3-1600, one 64-bit channel — paper Table IV, first column.
pub fn ddr3_1600_x64() -> MemSpec {
    MemSpec {
        name: "DDR3-1600-x64",
        org: Organisation {
            device_bus_width: 64,
            burst_length: 8,
            device_rowbuffer_bytes: 1024,
            devices_per_rank: 1,
            ranks: 1,
            banks: 8,
            device_capacity_mbit: 16 * 1024,
        },
        timing: Timing {
            t_ck: from_ns(1.25),
            t_burst: from_ns(5.0),
            t_rcd: from_ns(13.75),
            t_cl: from_ns(13.75),
            t_rp: from_ns(13.75),
            t_ras: from_ns(35.0),
            t_wr: from_ns(15.0),
            t_rtp: from_ns(7.5),
            t_rrd: from_ns(6.25),
            t_xaw: from_ns(40.0),
            activation_limit: 4,
            t_wtr: from_ns(7.5),
            t_rtw: from_ns(2.5),
            t_rfc: from_ns(300.0),
            t_xp: from_ns(7.5),
            t_xs: from_ns(310.0),
            t_refi: from_us(7.8),
        },
        idd: IddCurrents {
            vdd: 1.5,
            idd0: 75.0,
            idd2p: 10.0,
            idd2n: 35.0,
            idd3n: 40.0,
            idd4r: 157.0,
            idd4w: 165.0,
            idd5: 220.0,
            idd6: 1.2,
        },
    }
}

/// LPDDR3-1600, one 32-bit channel — paper Table IV, second column.
/// Two such channels match the DDR3 configuration's 12.8 GB/s.
pub fn lpddr3_1600_x32() -> MemSpec {
    MemSpec {
        name: "LPDDR3-1600-x32",
        org: Organisation {
            device_bus_width: 32,
            burst_length: 8,
            device_rowbuffer_bytes: 1024,
            devices_per_rank: 1,
            ranks: 1,
            banks: 8,
            device_capacity_mbit: 8 * 1024,
        },
        timing: Timing {
            t_ck: from_ns(1.25),
            t_burst: from_ns(5.0),
            t_rcd: from_ns(15.0),
            t_cl: from_ns(15.0),
            t_rp: from_ns(15.0),
            t_ras: from_ns(42.0),
            t_wr: from_ns(15.0),
            t_rtp: from_ns(7.5),
            t_rrd: from_ns(10.0),
            t_xaw: from_ns(50.0),
            activation_limit: 4,
            t_wtr: from_ns(7.5),
            t_rtw: from_ns(2.5),
            t_rfc: from_ns(130.0),
            t_xp: from_ns(7.5),
            t_xs: from_ns(140.0),
            t_refi: from_us(15.0),
        },
        idd: IddCurrents {
            vdd: 1.2,
            idd0: 25.0,
            idd2p: 1.2,
            idd2n: 8.0,
            idd3n: 12.0,
            idd4r: 150.0,
            idd4w: 150.0,
            idd5: 100.0,
            idd6: 0.5,
        },
    }
}

/// WideIO SDR-200, one 128-bit channel — paper Table IV, third column.
/// Four such channels match the DDR3 configuration's 12.8 GB/s.
pub fn wideio_200_x128() -> MemSpec {
    MemSpec {
        name: "WideIO-200-x128",
        org: Organisation {
            device_bus_width: 128,
            burst_length: 4,
            device_rowbuffer_bytes: 4096,
            devices_per_rank: 1,
            ranks: 1,
            banks: 4,
            device_capacity_mbit: 4 * 1024,
        },
        timing: Timing {
            t_ck: from_ns(5.0),
            t_burst: from_ns(20.0),
            t_rcd: from_ns(18.0),
            t_cl: from_ns(18.0),
            t_rp: from_ns(18.0),
            t_ras: from_ns(42.0),
            t_wr: from_ns(15.0),
            t_rtp: from_ns(7.5),
            t_rrd: from_ns(10.0),
            t_xaw: from_ns(50.0),
            activation_limit: 2,
            t_wtr: from_ns(15.0),
            t_rtw: from_ns(10.0),
            t_rfc: from_ns(210.0),
            t_xp: from_ns(10.0),
            t_xs: from_ns(220.0),
            t_refi: from_us(35.0),
        },
        idd: IddCurrents {
            vdd: 1.2,
            idd0: 12.0,
            idd2p: 0.6,
            idd2n: 3.0,
            idd3n: 5.0,
            idd4r: 115.0,
            idd4w: 115.0,
            idd5: 60.0,
            idd6: 0.3,
        },
    }
}

/// DDR4-2400, one 64-bit channel (bank groups are intentionally not
/// modelled, as in the paper; 16 flat banks approximate the parallelism).
pub fn ddr4_2400_x64() -> MemSpec {
    MemSpec {
        name: "DDR4-2400-x64",
        org: Organisation {
            device_bus_width: 8,
            burst_length: 8,
            device_rowbuffer_bytes: 1024,
            devices_per_rank: 8,
            ranks: 1,
            banks: 16,
            device_capacity_mbit: 8 * 1024,
        },
        timing: Timing {
            t_ck: from_ns(0.833),
            t_burst: from_ns(3.332),
            t_rcd: from_ns(14.16),
            t_cl: from_ns(14.16),
            t_rp: from_ns(14.16),
            t_ras: from_ns(32.0),
            t_wr: from_ns(15.0),
            t_rtp: from_ns(7.5),
            t_rrd: from_ns(4.9),
            t_xaw: from_ns(21.0),
            activation_limit: 4,
            t_wtr: from_ns(7.5),
            t_rtw: from_ns(1.666),
            t_rfc: from_ns(350.0),
            t_xp: from_ns(6.0),
            t_xs: from_ns(360.0),
            t_refi: from_us(7.8),
        },
        idd: IddCurrents {
            vdd: 1.2,
            idd0: 58.0,
            idd2p: 6.0,
            idd2n: 30.0,
            idd3n: 40.0,
            idd4r: 145.0,
            idd4w: 125.0,
            idd5: 190.0,
            idd6: 2.0,
        },
    }
}

/// LPDDR2-S4-1066, one 32-bit channel (mobile baseline).
pub fn lpddr2_1066_x32() -> MemSpec {
    MemSpec {
        name: "LPDDR2-1066-x32",
        org: Organisation {
            device_bus_width: 32,
            burst_length: 4,
            device_rowbuffer_bytes: 1024,
            devices_per_rank: 1,
            ranks: 1,
            banks: 8,
            device_capacity_mbit: 4 * 1024,
        },
        timing: Timing {
            t_ck: from_ns(1.876),
            t_burst: from_ns(3.752),
            t_rcd: from_ns(15.0),
            t_cl: from_ns(15.0),
            t_rp: from_ns(18.0),
            t_ras: from_ns(42.0),
            t_wr: from_ns(15.0),
            t_rtp: from_ns(7.5),
            t_rrd: from_ns(10.0),
            t_xaw: from_ns(50.0),
            activation_limit: 4,
            t_wtr: from_ns(7.5),
            t_rtw: from_ns(3.752),
            t_rfc: from_ns(130.0),
            t_xp: from_ns(7.5),
            t_xs: from_ns(140.0),
            t_refi: from_us(3.9),
        },
        idd: IddCurrents {
            vdd: 1.2,
            idd0: 20.0,
            idd2p: 1.5,
            idd2n: 7.0,
            idd3n: 10.0,
            idd4r: 130.0,
            idd4w: 130.0,
            idd5: 90.0,
            idd6: 0.6,
        },
    }
}

/// GDDR5-4000, one 64-bit channel (two x32 devices) — a high-bandwidth
/// graphics interface.
pub fn gddr5_4000_x64() -> MemSpec {
    MemSpec {
        name: "GDDR5-4000-x64",
        org: Organisation {
            device_bus_width: 32,
            burst_length: 8,
            device_rowbuffer_bytes: 2048,
            devices_per_rank: 2,
            ranks: 1,
            banks: 16,
            device_capacity_mbit: 2 * 1024,
        },
        timing: Timing {
            t_ck: from_ns(1.0),
            t_burst: from_ns(2.0),
            t_rcd: from_ns(12.0),
            t_cl: from_ns(12.0),
            t_rp: from_ns(12.0),
            t_ras: from_ns(28.0),
            t_wr: from_ns(12.0),
            t_rtp: from_ns(2.0),
            t_rrd: from_ns(6.0),
            t_xaw: from_ns(23.0),
            activation_limit: 4,
            t_wtr: from_ns(5.0),
            t_rtw: from_ns(2.0),
            t_rfc: from_ns(65.0),
            t_xp: from_ns(8.0),
            t_xs: from_ns(75.0),
            t_refi: from_us(3.9),
        },
        idd: IddCurrents {
            vdd: 1.5,
            idd0: 90.0,
            idd2p: 20.0,
            idd2n: 45.0,
            idd3n: 60.0,
            idd4r: 230.0,
            idd4w: 240.0,
            idd5: 240.0,
            idd6: 5.0,
        },
    }
}

/// HBM gen-1, one 128-bit pseudo-channel at 500 MHz DDR. Sixteen such
/// channels behind a crossbar approximate an HMC-like stacked cube
/// (Section II-F).
pub fn hbm_1000_x128() -> MemSpec {
    MemSpec {
        name: "HBM-1000-x128",
        org: Organisation {
            device_bus_width: 128,
            burst_length: 4,
            device_rowbuffer_bytes: 2048,
            devices_per_rank: 1,
            ranks: 1,
            banks: 8,
            device_capacity_mbit: 2 * 1024,
        },
        timing: Timing {
            t_ck: from_ns(2.0),
            t_burst: from_ns(4.0),
            t_rcd: from_ns(15.0),
            t_cl: from_ns(15.0),
            t_rp: from_ns(15.0),
            t_ras: from_ns(33.0),
            t_wr: from_ns(18.0),
            t_rtp: from_ns(7.5),
            t_rrd: from_ns(4.0),
            t_xaw: from_ns(30.0),
            activation_limit: 4,
            t_wtr: from_ns(7.5),
            t_rtw: from_ns(4.0),
            t_rfc: from_ns(160.0),
            t_xp: from_ns(8.0),
            t_xs: from_ns(170.0),
            t_refi: from_us(3.9),
        },
        idd: IddCurrents {
            vdd: 1.2,
            idd0: 15.0,
            idd2p: 1.5,
            idd2n: 4.0,
            idd3n: 6.0,
            idd4r: 120.0,
            idd4w: 120.0,
            idd5: 70.0,
            idd6: 0.5,
        },
    }
}

/// LPDDR4-3200, one 32-bit channel — a post-paper mobile interface,
/// included for the "future system exploration" the model is built for
/// (BL16, so a whole 64-byte line is one burst on a 32-bit channel).
pub fn lpddr4_3200_x32() -> MemSpec {
    MemSpec {
        name: "LPDDR4-3200-x32",
        org: Organisation {
            device_bus_width: 32,
            burst_length: 16,
            device_rowbuffer_bytes: 2048,
            devices_per_rank: 1,
            ranks: 1,
            banks: 8,
            device_capacity_mbit: 8 * 1024,
        },
        timing: Timing {
            t_ck: from_ns(0.625),
            t_burst: from_ns(5.0),
            t_rcd: from_ns(18.0),
            t_cl: from_ns(17.1),
            t_rp: from_ns(18.0),
            t_ras: from_ns(42.0),
            t_wr: from_ns(18.0),
            t_rtp: from_ns(7.5),
            t_rrd: from_ns(10.0),
            t_xaw: from_ns(40.0),
            activation_limit: 4,
            t_wtr: from_ns(10.0),
            t_rtw: from_ns(2.5),
            t_rfc: from_ns(180.0),
            t_xp: from_ns(7.5),
            t_xs: from_ns(190.0),
            t_refi: from_us(3.9),
        },
        idd: IddCurrents {
            vdd: 1.1,
            idd0: 20.0,
            idd2p: 0.8,
            idd2n: 5.0,
            idd3n: 8.0,
            idd4r: 140.0,
            idd4w: 140.0,
            idd5: 90.0,
            idd6: 0.4,
        },
    }
}

/// Looks up a preset by its `name` field (e.g. `"DDR3-1333-x64"`),
/// building only the preset asked for.
pub fn by_name(name: &str) -> Option<MemSpec> {
    let build = match name {
        "DDR3-1333-x64" => ddr3_1333_x64,
        "DDR3-1600-x64" => ddr3_1600_x64,
        "LPDDR3-1600-x32" => lpddr3_1600_x32,
        "WideIO-200-x128" => wideio_200_x128,
        "DDR4-2400-x64" => ddr4_2400_x64,
        "LPDDR2-1066-x32" => lpddr2_1066_x32,
        "GDDR5-4000-x64" => gddr5_4000_x64,
        "HBM-1000-x128" => hbm_1000_x128,
        "LPDDR4-3200-x32" => lpddr4_3200_x32,
        _ => return None,
    };
    Some(build())
}

/// All presets, for exhaustive sweeps in tests and benchmarks.
pub fn all() -> Vec<MemSpec> {
    vec![
        ddr3_1333_x64(),
        ddr3_1600_x64(),
        lpddr3_1600_x32(),
        wideio_200_x128(),
        ddr4_2400_x64(),
        lpddr2_1066_x32(),
        gddr5_4000_x64(),
        hbm_1000_x128(),
        lpddr4_3200_x32(),
    ]
}

#[cfg(test)]
mod tests {
    use super::*;
    use dramctrl_kernel::tick::from_ns;

    #[test]
    fn by_name_finds_every_preset_and_nothing_else() {
        for spec in all() {
            assert_eq!(by_name(spec.name), Some(spec));
        }
        assert_eq!(by_name("DDR3"), None);
        assert_eq!(by_name("ddr3-1600-x64"), None);
        assert_eq!(by_name(""), None);
    }

    #[test]
    fn every_preset_is_valid() {
        for spec in all() {
            spec.validate()
                .unwrap_or_else(|e| panic!("{}: {e}", spec.name));
        }
    }

    #[test]
    fn preset_names_are_unique() {
        let mut names: Vec<_> = all().iter().map(|s| s.name).collect();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), all().len());
    }

    /// Paper Table IV: the three case-study memories all peak at 12.8 GB/s
    /// once channel counts are applied (1x DDR3, 2x LPDDR3, 4x WideIO).
    #[test]
    fn table4_channels_match_12_8_gbps() {
        assert!((ddr3_1600_x64().peak_bandwidth_gbps() * 1.0 - 12.8).abs() < 0.1);
        assert!((lpddr3_1600_x32().peak_bandwidth_gbps() * 2.0 - 12.8).abs() < 0.1);
        assert!((wideio_200_x128().peak_bandwidth_gbps() * 4.0 - 12.8).abs() < 0.1);
    }

    /// Paper Table IV timing rows, asserted verbatim.
    #[test]
    fn table4_timings_verbatim() {
        let (d, l, w) = (ddr3_1600_x64(), lpddr3_1600_x32(), wideio_200_x128());
        // Bus width / burst length / row buffer / banks.
        assert_eq!(
            [
                d.org.bus_width_bits(),
                l.org.bus_width_bits(),
                w.org.bus_width_bits()
            ],
            [64, 32, 128]
        );
        assert_eq!(
            [d.org.burst_length, l.org.burst_length, w.org.burst_length],
            [8, 8, 4]
        );
        assert_eq!(
            [
                d.org.row_buffer_bytes(),
                l.org.row_buffer_bytes(),
                w.org.row_buffer_bytes()
            ],
            [1024, 1024, 4096]
        );
        assert_eq!([d.org.banks, l.org.banks, w.org.banks], [8, 8, 4]);
        // Timings.
        assert_eq!(
            [d.timing.t_rcd, l.timing.t_rcd, w.timing.t_rcd],
            [from_ns(13.75), from_ns(15.0), from_ns(18.0)]
        );
        assert_eq!(
            [d.timing.t_ras, l.timing.t_ras, w.timing.t_ras],
            [from_ns(35.0), from_ns(42.0), from_ns(42.0)]
        );
        assert_eq!(
            [d.timing.t_burst, l.timing.t_burst, w.timing.t_burst],
            [from_ns(5.0), from_ns(5.0), from_ns(20.0)]
        );
        assert_eq!(
            [d.timing.t_rfc, l.timing.t_rfc, w.timing.t_rfc],
            [from_ns(300.0), from_ns(130.0), from_ns(210.0)]
        );
        assert_eq!(
            [d.timing.t_wtr, l.timing.t_wtr, w.timing.t_wtr],
            [from_ns(7.5), from_ns(7.5), from_ns(15.0)]
        );
        assert_eq!(
            [d.timing.t_rrd, l.timing.t_rrd, w.timing.t_rrd],
            [from_ns(6.25), from_ns(10.0), from_ns(10.0)]
        );
        assert_eq!(
            [d.timing.t_xaw, l.timing.t_xaw, w.timing.t_xaw],
            [from_ns(40.0), from_ns(50.0), from_ns(50.0)]
        );
        assert_eq!(
            [
                d.timing.activation_limit,
                l.timing.activation_limit,
                w.timing.activation_limit
            ],
            [4, 4, 2]
        );
    }

    /// The three case-study configurations have equal total capacity, so
    /// the same physical address space fits all of them.
    #[test]
    fn table4_capacities_match() {
        let ddr3 = ddr3_1600_x64().org.capacity_bytes();
        let lpddr3 = 2 * lpddr3_1600_x32().org.capacity_bytes();
        let wideio = 4 * wideio_200_x128().org.capacity_bytes();
        assert_eq!(ddr3, lpddr3);
        assert_eq!(ddr3, wideio);
    }

    #[test]
    fn lpddr4_line_is_one_burst() {
        let s = lpddr4_3200_x32();
        assert_eq!(s.org.burst_bytes(), 64);
        assert!((s.peak_bandwidth_gbps() - 12.8).abs() < 0.1);
    }

    #[test]
    fn gddr5_is_fastest_preset() {
        let max = all()
            .iter()
            .map(|s| s.peak_bandwidth_gbps())
            .fold(0.0f64, f64::max);
        assert_eq!(max, gddr5_4000_x64().peak_bandwidth_gbps());
    }
}
