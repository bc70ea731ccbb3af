//! Synthetic workload profiles standing in for the paper's PARSEC runs.
//!
//! The paper's case studies (Section IV) run PARSEC benchmarks on gem5's
//! full-system OoO cores. We cannot boot Linux, but the property the paper
//! relies on is the *closed loop* between cores, caches and the DRAM
//! controller — not the exact instruction streams. Each
//! [`WorkloadProfile`] reproduces a benchmark's published memory
//! characteristics (footprint, spatial/temporal locality, read/write mix,
//! memory intensity, after Bienia et al.'s PARSEC characterisation),
//! scaled to simulation-friendly footprints; an [`AccessStream`] turns a
//! profile into a deterministic per-core address stream.

use dramctrl_kernel::rng::Rng;
use dramctrl_kernel::snap::{SnapError, SnapReader, SnapState, SnapWriter};

/// Memory behaviour of one benchmark.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct WorkloadProfile {
    /// Benchmark name.
    pub name: &'static str,
    /// Per-core working set in bytes.
    pub footprint: u64,
    /// Percentage of memory references that are reads.
    pub read_pct: u8,
    /// Average instructions between memory references (memory intensity;
    /// smaller = more intense).
    pub mem_ref_interval: u32,
    /// Average sequential run length in cache lines (spatial locality).
    pub seq_lines: u32,
    /// Fraction of the footprint that is "hot".
    pub hot_fraction: f64,
    /// Percentage of references that target the hot region (temporal
    /// locality).
    pub hot_pct: u8,
}

const MB: u64 = 1 << 20;

/// The canneal profile used by the paper's memory-sensitivity case study
/// (Section IV-B): a large working set with poor locality, read-dominated.
pub fn canneal() -> WorkloadProfile {
    WorkloadProfile {
        name: "canneal",
        footprint: 48 * MB,
        read_pct: 85,
        mem_ref_interval: 4,
        seq_lines: 1,
        hot_fraction: 0.05,
        hot_pct: 20,
    }
}

/// The eleven PARSEC workload profiles used for the model comparison
/// (paper Figure 8).
pub fn parsec() -> Vec<WorkloadProfile> {
    vec![
        WorkloadProfile {
            name: "blackscholes",
            footprint: 2 * MB,
            read_pct: 75,
            mem_ref_interval: 6,
            seq_lines: 8,
            hot_fraction: 0.2,
            hot_pct: 80,
        },
        WorkloadProfile {
            name: "bodytrack",
            footprint: 8 * MB,
            read_pct: 80,
            mem_ref_interval: 5,
            seq_lines: 4,
            hot_fraction: 0.1,
            hot_pct: 60,
        },
        canneal(),
        WorkloadProfile {
            name: "dedup",
            footprint: 24 * MB,
            read_pct: 65,
            mem_ref_interval: 4,
            seq_lines: 6,
            hot_fraction: 0.1,
            hot_pct: 40,
        },
        WorkloadProfile {
            name: "facesim",
            footprint: 32 * MB,
            read_pct: 70,
            mem_ref_interval: 5,
            seq_lines: 12,
            hot_fraction: 0.15,
            hot_pct: 50,
        },
        WorkloadProfile {
            name: "ferret",
            footprint: 16 * MB,
            read_pct: 80,
            mem_ref_interval: 5,
            seq_lines: 4,
            hot_fraction: 0.2,
            hot_pct: 60,
        },
        WorkloadProfile {
            name: "fluidanimate",
            footprint: 16 * MB,
            read_pct: 70,
            mem_ref_interval: 5,
            seq_lines: 6,
            hot_fraction: 0.15,
            hot_pct: 55,
        },
        WorkloadProfile {
            name: "freqmine",
            footprint: 12 * MB,
            read_pct: 85,
            mem_ref_interval: 5,
            seq_lines: 3,
            hot_fraction: 0.25,
            hot_pct: 70,
        },
        WorkloadProfile {
            name: "streamcluster",
            footprint: 32 * MB,
            read_pct: 90,
            mem_ref_interval: 3,
            seq_lines: 16,
            hot_fraction: 0.02,
            hot_pct: 10,
        },
        WorkloadProfile {
            name: "swaptions",
            footprint: MB,
            read_pct: 75,
            mem_ref_interval: 7,
            seq_lines: 4,
            hot_fraction: 0.3,
            hot_pct: 85,
        },
        WorkloadProfile {
            name: "x264",
            footprint: 16 * MB,
            read_pct: 70,
            mem_ref_interval: 5,
            seq_lines: 10,
            hot_fraction: 0.1,
            hot_pct: 45,
        },
    ]
}

/// One memory reference produced by an [`AccessStream`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MemRef {
    /// Byte address.
    pub addr: u64,
    /// Store (true) or load.
    pub is_write: bool,
    /// Instructions executed since the previous reference.
    pub gap_insts: u32,
}

/// Deterministic address-stream generator for one core running a
/// [`WorkloadProfile`] in its own `[base, base + footprint)` region.
#[derive(Debug)]
pub struct AccessStream {
    profile: WorkloadProfile,
    base: u64,
    line: u64,
    rng: Rng,
    cursor: u64,
    seq_left: u32,
}

impl AccessStream {
    /// Creates a stream over `[base, base + profile.footprint)` with
    /// `line`-byte granularity, seeded deterministically.
    ///
    /// # Panics
    /// Panics if the footprint holds fewer than two lines or the hot
    /// fraction is outside `(0, 1]`.
    pub fn new(profile: WorkloadProfile, base: u64, line: u32, seed: u64) -> Self {
        assert!(
            profile.footprint / u64::from(line) >= 2,
            "footprint must hold at least two lines"
        );
        assert!(
            profile.hot_fraction > 0.0 && profile.hot_fraction <= 1.0,
            "hot fraction must be in (0, 1]"
        );
        assert!(profile.read_pct <= 100 && profile.hot_pct <= 100);
        Self {
            profile,
            base,
            line: u64::from(line),
            rng: Rng::seed_from_u64(seed),
            cursor: base,
            seq_left: 0,
        }
    }

    /// The workload profile driving this stream.
    pub fn profile(&self) -> &WorkloadProfile {
        &self.profile
    }

    /// Produces the next memory reference.
    pub fn next_ref(&mut self) -> MemRef {
        let p = self.profile;
        let lines = p.footprint / self.line;
        if self.seq_left > 0 {
            self.seq_left -= 1;
            self.cursor += self.line;
            if self.cursor >= self.base + p.footprint {
                self.cursor = self.base;
            }
        } else {
            // Start a new run: hot or cold region, geometric-ish length.
            let hot_lines = ((lines as f64 * p.hot_fraction) as u64).max(1);
            let line_idx = if self.rng.gen_range(0..100) < u64::from(p.hot_pct) {
                self.rng.gen_range(0..hot_lines)
            } else {
                self.rng.gen_range(0..lines)
            };
            self.cursor = self.base + line_idx * self.line;
            self.seq_left = if p.seq_lines <= 1 {
                0
            } else {
                self.rng.gen_range(0..2 * u64::from(p.seq_lines)) as u32
            };
        }
        let gap = if p.mem_ref_interval <= 1 {
            1
        } else {
            (self.rng.gen_range_inclusive(
                u64::from(p.mem_ref_interval / 2)..=u64::from(p.mem_ref_interval * 3 / 2),
            ) as u32)
                .max(1)
        };
        MemRef {
            addr: self.cursor,
            is_write: self.rng.gen_range(0..100) >= u64::from(p.read_pct),
            gap_insts: gap,
        }
    }
}

impl SnapState for AccessStream {
    /// Captures the stream's dynamic state: the RNG, the cursor and the
    /// remaining sequential-run length. The profile, base and line size
    /// are construction parameters and are not written.
    fn save_state(&self, w: &mut SnapWriter) {
        self.rng.save_state(w);
        w.u64(self.cursor);
        w.u32(self.seq_left);
    }

    fn restore_state(&mut self, r: &mut SnapReader<'_>) -> Result<(), SnapError> {
        self.rng.restore_state(r)?;
        let cursor = r.u64()?;
        if cursor < self.base || cursor >= self.base + self.profile.footprint {
            return Err(SnapError::Corrupt(format!(
                "stream cursor {cursor:#x} outside the workload region"
            )));
        }
        self.cursor = cursor;
        self.seq_left = r.u32()?;
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn profiles_are_distinct_and_sane() {
        let all = parsec();
        assert_eq!(all.len(), 11);
        let mut names: Vec<_> = all.iter().map(|p| p.name).collect();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), 11);
        for p in &all {
            assert!(p.read_pct <= 100 && p.hot_pct <= 100);
            assert!(p.footprint >= MB);
            assert!(p.mem_ref_interval >= 1);
        }
    }

    #[test]
    fn stream_stays_in_region() {
        let mut s = AccessStream::new(canneal(), 0x1000_0000, 64, 1);
        for _ in 0..10_000 {
            let r = s.next_ref();
            assert!(r.addr >= 0x1000_0000);
            assert!(r.addr < 0x1000_0000 + canneal().footprint);
            assert_eq!(r.addr % 64, 0);
            assert!(r.gap_insts >= 1);
        }
    }

    #[test]
    fn deterministic_for_seed() {
        let collect = |seed| {
            let mut s = AccessStream::new(canneal(), 0, 64, seed);
            (0..100).map(|_| s.next_ref()).collect::<Vec<_>>()
        };
        assert_eq!(collect(5), collect(5));
        assert_ne!(collect(5), collect(6));
    }

    #[test]
    fn read_ratio_respected() {
        let mut s = AccessStream::new(canneal(), 0, 64, 2);
        let reads = (0..10_000).filter(|_| !s.next_ref().is_write).count();
        assert!((8_200..8_800).contains(&reads), "reads = {reads}");
    }

    #[test]
    fn streaming_profile_is_more_sequential() {
        let seq_score = |p: WorkloadProfile| {
            let mut s = AccessStream::new(p, 0, 64, 3);
            let mut prev = 0u64;
            let mut seq = 0;
            for _ in 0..5_000 {
                let r = s.next_ref();
                if r.addr == prev + 64 {
                    seq += 1;
                }
                prev = r.addr;
            }
            seq
        };
        let stream = parsec()
            .into_iter()
            .find(|p| p.name == "streamcluster")
            .unwrap();
        assert!(seq_score(stream) > 3 * seq_score(canneal()));
    }

    #[test]
    fn hot_region_concentrates_accesses() {
        let p = parsec()
            .into_iter()
            .find(|p| p.name == "swaptions")
            .unwrap();
        let mut s = AccessStream::new(p, 0, 64, 4);
        let hot_limit = (p.footprint as f64 * p.hot_fraction) as u64;
        let hot = (0..10_000)
            .filter(|_| s.next_ref().addr < hot_limit)
            .count();
        // 85% of runs start hot; sequential runs blur it somewhat.
        assert!(hot > 5_000, "hot accesses = {hot}");
    }

    #[test]
    #[should_panic(expected = "two lines")]
    fn tiny_footprint_panics() {
        let mut p = canneal();
        p.footprint = 64;
        let _ = AccessStream::new(p, 0, 64, 0);
    }
}
