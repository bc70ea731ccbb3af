//! Host-speed calibration: times in reference-host seconds.
//!
//! The sandbox this benchmark runs in is a small shared VM whose speed
//! wanders by 20-40 % in phases of several seconds (measured: the same
//! 400 k-request simulation takes 128 ms in a quiet phase, 165-185 ms in
//! a contended one and over 200 ms in a bad one). A phase can outlast a
//! whole run, so no median over repeats inside the run removes it, and
//! run-to-run spreads of raw wall time came out at 13-20 % on the
//! simulation workloads — wider than any bound worth gating on.
//!
//! So every timed repeat is bracketed by a fixed [reference kernel], run
//! on as many threads as the workload keeps busy, and its wall time is
//! scaled by the host's speed at that moment: `reference seconds = wall
//! seconds x host_speed`, where `host_speed` is the kernel's measured
//! rate over [`NOMINAL_ITERS_PER_S`], its rate on the quiet reference
//! host. The kernel lives here, in the benchmark's own files, and never
//! changes with the program: a change in the program moves a metric one
//! for one, while a slow phase of the host moves program and kernel
//! together and cancels.
//!
//! The kernel was chosen by measurement. Fitting `log(repeat time)`
//! against `log(kernel time)` over 80-second series, a compute-only
//! kernel (binary heap + xorshift, no allocation) tracks the three
//! simulation workloads with exponents 1.0-1.2; an ordered-map kernel
//! (allocating) gives 0.5-0.7 and a pointer chase 0.4-0.6 — both slow
//! down more than the simulator does and over-correct. With the
//! compute-only kernel, ten-second window medians that drift 7-22 % raw
//! drift 2-4 % scaled. What it cannot see is contention for memory
//! alone, which `hmc_16ch` (the largest working set) feels most.
//!
//! The two daemon workloads spend over half their time in fsynced writes
//! and socket hand-offs, which the compute kernel does not track; they
//! mix in a second, [durable kernel](durable_chunk) by the share fitted
//! in [`SERVICE_DURABLE_SHARE`].
//!
//! Raw wall-clock values are printed beside the scaled ones, and
//! `harness.host_speed` reports the median speed seen, so nothing is
//! hidden: `wall = reference / host_speed`.
//!
//! [reference kernel]: reference_chunk

use std::collections::BinaryHeap;
use std::io::{Read, Write};
use std::os::unix::net::UnixStream;
use std::path::{Path, PathBuf};
use std::time::Instant;

/// Iterations in one reference chunk: about 16 ms on the quiet host, a
/// tenth of a typical repeat.
const CHUNK_ITERS: u64 = 1_200_000;

/// The kernel's rate on the quiet reference host (2-vCPU Xeon @ 2.1 GHz
/// VM), which defines `host_speed == 1.0`.
pub const NOMINAL_ITERS_PER_S: f64 = 75.0e6;

/// One chunk of reference work — pops and pushes on a 64-entry binary
/// heap driven by a xorshift generator: branchy, cache-resident integer
/// work like the simulator's own event loop — returning its rate in
/// iterations per second.
fn reference_chunk() -> f64 {
    let t = Instant::now();
    let mut heap: BinaryHeap<u64> = BinaryHeap::with_capacity(128);
    let mut x: u64 = 0x9E37_79B9_7F4A_7C15;
    for i in 0..64u64 {
        heap.push(i * 7919 % 64);
    }
    for _ in 0..CHUNK_ITERS {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        let top = heap.pop().unwrap_or(0);
        heap.push(top.wrapping_add(x % 97));
    }
    std::hint::black_box((x, heap.len()));
    CHUNK_ITERS as f64 / t.elapsed().as_secs_f64()
}

/// Requests in one durable chunk: about 35 ms on the quiet host.
const DURABLE_OPS: usize = 40;

/// The durable kernel's rate on the quiet reference host.
pub const NOMINAL_DURABLE_OPS_PER_S: f64 = 1_200.0;

/// One chunk of service-shaped reference work, returning its rate in
/// requests per second: a client thread sends a line over a Unix socket
/// pair; the server thread replaces a 2 KiB file durably (write, fdatasync,
/// rename), appends the line to a journal, fdatasyncs it and replies.
/// That is what a daemon does per slice and per unit, with none of the
/// daemon's code: `std` only, so it never changes with the program.
fn durable_chunk(dir: &Path) -> std::io::Result<f64> {
    let (mut client, mut server) = UnixStream::pair()?;
    let (tmp, fin) = (dir.join("calib.tmp"), dir.join("calib.snap"));
    let mut journal = std::fs::File::create(dir.join("calib.journal"))?;
    let serve = std::thread::spawn(move || -> std::io::Result<()> {
        let mut line = [0u8; 64];
        while server.read_exact(&mut line).is_ok() {
            let mut snap = std::fs::File::create(&tmp)?;
            snap.write_all(&[line[0]; 2048])?;
            snap.sync_data()?;
            drop(snap);
            std::fs::rename(&tmp, &fin)?;
            journal.write_all(&line)?;
            journal.sync_data()?;
            server.write_all(&line)?;
        }
        Ok(())
    });
    let mut line = [b'.'; 64];
    let t = Instant::now();
    let mut sent = Ok(());
    for _ in 0..DURABLE_OPS {
        sent = client
            .write_all(&line)
            .and_then(|()| client.read_exact(&mut line));
        if sent.is_err() {
            break;
        }
    }
    let secs = t.elapsed().as_secs_f64();
    drop(client);
    serve
        .join()
        .expect("the durable kernel does not panic")
        .and(sent)?;
    Ok(DURABLE_OPS as f64 / secs)
}

/// Share of a daemon workload's reference-host time that moves with the
/// durable kernel. Fitted like the compute kernel was chosen: over 150-
/// and 170-second series of `daemon_sweep` rounds, round time against the
/// two kernels' times gives a durable share of 0.55-0.65; over six sets
/// of ten runs each, recomputed from the recorded samples at every share,
/// the run-to-run spread is flat and lowest from 0.5 to 0.65 on
/// `daemon_sweep` and from 0.45 to 0.55 on `fleet_sweep` (raw wall time
/// 20-63 %, compute kernel alone 17-60 %, this mix 3-13 %).
pub const SERVICE_DURABLE_SHARE: f64 = 0.55;

/// The durable kernel's part in a [`Calibrator`].
#[derive(Debug)]
struct Durable {
    /// Where its files go: the run's work dir, the daemons' filesystem.
    dir: PathBuf,
    /// Share of the workload's reference-host time that moves with the
    /// durable kernel rather than the compute one.
    share: f64,
}

/// Measures host speed between timed repeats.
#[derive(Debug)]
pub struct Calibrator {
    threads: usize,
    durable: Option<Durable>,
    last: f64,
    /// Every speed sampled, for `harness.host_speed`.
    pub samples: Vec<f64>,
}

impl Calibrator {
    /// A calibrator that loads `threads` CPUs at once — as many as the
    /// workload it brackets keeps busy. Takes the first sample.
    pub fn new(threads: usize) -> Self {
        let mut c = Self {
            threads: threads.max(1),
            durable: None,
            last: 1.0,
            samples: Vec::new(),
        };
        c.sample();
        c
    }

    /// A calibrator for a workload that spends `share` of its time the
    /// way the [durable kernel](durable_chunk) does — socket hand-offs
    /// and fsynced writes under `dir` — and the rest computing: host
    /// speed is then the harmonic mix of the two kernels' speeds, i.e.
    /// reference time is split `1 - share : share` and each part scaled
    /// by its own kernel.
    pub fn with_durable(threads: usize, dir: &Path, share: f64) -> Self {
        let mut c = Self {
            threads: threads.max(1),
            durable: Some(Durable {
                dir: dir.to_owned(),
                share,
            }),
            last: 1.0,
            samples: Vec::new(),
        };
        c.sample();
        c
    }

    /// Samples host speed now (1.0 = the quiet reference host): the mean
    /// over `threads` concurrent chunks.
    pub fn sample(&mut self) -> f64 {
        let rate = std::thread::scope(|s| {
            let others: Vec<_> = (1..self.threads)
                .map(|_| s.spawn(reference_chunk))
                .collect();
            let mine = reference_chunk();
            let sum: f64 = others
                .into_iter()
                .map(|h| h.join().expect("the reference kernel does not panic"))
                .sum();
            (mine + sum) / self.threads as f64
        });
        let compute = rate / NOMINAL_ITERS_PER_S;
        self.last = match &self.durable {
            // A kernel that cannot write its files says nothing: the
            // workload itself is about to fail on the same directory.
            Some(d) => match durable_chunk(&d.dir) {
                Ok(ops) => {
                    let durable = ops / NOMINAL_DURABLE_OPS_PER_S;
                    1.0 / ((1.0 - d.share) / compute + d.share / durable)
                }
                Err(_) => compute,
            },
            None => compute,
        };
        self.samples.push(self.last);
        self.last
    }

    /// Host speed over work that started right after the previous sample
    /// and has just ended: the mean of that sample and a fresh one.
    pub fn speed_since_last(&mut self) -> f64 {
        let before = self.last;
        (before + self.sample()) / 2.0
    }

    /// `wall_secs` of such work, in reference-host seconds.
    pub fn scale(&mut self, wall_secs: f64) -> f64 {
        wall_secs * self.speed_since_last()
    }

    /// Median speed over every sample taken.
    pub fn median_speed(&self) -> f64 {
        crate::stats::median(&self.samples)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scales_by_the_mean_of_the_bracketing_samples() {
        let mut c = Calibrator::new(1);
        assert_eq!(c.samples.len(), 1);
        let before = c.samples[0];
        let scaled = c.scale(2.0);
        let after = c.samples[1];
        assert!(before > 0.0 && after > 0.0);
        assert!((scaled - 2.0 * (before + after) / 2.0).abs() < 1e-12);
        assert!(c.median_speed() > 0.0);
        // Two threads sample as readily as one.
        assert!(Calibrator::new(2).sample() > 0.0);
    }

    #[test]
    fn durable_kernel_mixes_harmonically() {
        // Tests run from the package root; `out/` is ignored by git.
        let dir = PathBuf::from(format!("out/test-calib-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        assert!(durable_chunk(&dir).unwrap() > 0.0);
        // All durable, then none: the mix is the one kernel or the other.
        let all = Calibrator::with_durable(1, &dir, 1.0).sample();
        let none = Calibrator::with_durable(1, &dir, 0.0).sample();
        assert!(all > 0.0 && none > 0.0);
        // A directory that is not there falls back to the compute kernel.
        let gone = Calibrator::with_durable(1, &dir.join("missing"), 0.5).sample();
        assert!(gone > 0.0);
        std::fs::remove_dir_all(&dir).unwrap();
    }
}
