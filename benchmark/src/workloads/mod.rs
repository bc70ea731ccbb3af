//! The six workloads, bottom of the stack to top.
//!
//! Each stresses a different layer, so that for any one optimisation
//! there is a workload that exercises its mechanism and one that
//! bypasses it (see README.md for the table of which layer metric
//! should move which end-to-end metric on which workload).

mod campaign;
mod daemon;
mod fleet;
mod sim;

use crate::host::Host;
use crate::report::Outcome;
use crate::span::{Recorder, Timer};
use dramctrl_campaign::Campaign;
use dramctrl_kernel::fsio::DurableAppender;
use dramctrl_serve::{Listener, ServeConfig, Server};
use std::path::PathBuf;
use std::time::{Duration, Instant};

/// Workload names, in stack order — the order `BENCHMARK.json` lists them.
pub const NAMES: [&str; 6] = [
    "stream_read",
    "random_mixed",
    "hmc_16ch",
    "campaign_tiny",
    "daemon_sweep",
    "fleet_sweep",
];

/// Times a workload sets its system up (`fleet_sweep`, whose set-up is
/// five times as long, has its own count). `setup_s` is the fast decile
/// of them on the compute-bound workloads and the median on the daemon
/// ones. Nine rather than five: with five, the medians of two sets of ten
/// runs of the same code lay up to 17 % apart.
pub const SETUPS: usize = 9;

/// Everything a workload run is given.
#[derive(Debug)]
pub struct Ctx {
    /// Feeds every generator and campaign seed.
    pub seed: u64,
    /// How long to measure.
    pub seconds: f64,
    /// Whether this is the traced run.
    pub trace: bool,
    /// The host stamp; thread counts are clamped through it.
    pub host: Host,
    /// Per-run directory for stores, journals and sockets. Relative to
    /// the checkout root, which keeps Unix socket paths short.
    pub workdir: PathBuf,
    /// Spans of the traced run.
    pub recorder: Recorder,
    /// Calibrated cost of timing one folded call.
    pub timer: Timer,
    /// Addresses of the in-process daemons started so far, for the
    /// shutdown at exit: `Client::shutdown` is the only way to stop one,
    /// and it stops the whole process.
    pub daemons: Vec<String>,
}

impl Ctx {
    /// A deadline `share` of the measuring time from now.
    pub fn deadline(&self, share: f64) -> Instant {
        Instant::now() + Duration::from_secs_f64(self.seconds * share)
    }

    /// A seed for stream `n` of this run, distinct per `(seed, n)`.
    pub fn sub_seed(&self, n: u64) -> u64 {
        dramctrl_campaign::job_seed(self.seed, n as usize)
    }
}

/// An in-process daemon: store, listener, accept loop and scheduler.
pub struct Daemon {
    /// Handle for reading `Server::metrics()`.
    pub server: Server,
    /// The Unix socket it listens on.
    pub addr: String,
}

impl Daemon {
    /// Opens a store under the run's work dir, binds a Unix socket next
    /// to it and starts the accept loop and the scheduler, all with the
    /// default `ServeConfig`.
    ///
    /// The two threads are detached on purpose: `Server::serve` and the
    /// scheduler loop run for the life of the process and can only be
    /// ended by `Client::shutdown`, which ends the process.
    ///
    /// # Errors
    /// Store, bind or spawn failures.
    pub fn start(ctx: &mut Ctx, tag: &str) -> Result<Self, String> {
        let store = ctx.workdir.join(format!("{tag}.store"));
        let addr = ctx
            .workdir
            .join(format!("{tag}.sock"))
            .to_str()
            .ok_or("work dir is not UTF-8")?
            .to_owned();
        let server =
            Server::open(ServeConfig::new(store)).map_err(|e| format!("open store: {e}"))?;
        let listener = Listener::bind(&addr).map_err(|e| format!("bind {addr}: {e}"))?;
        let accept = server.clone();
        std::thread::Builder::new()
            .name(format!("perfbench-accept-{tag}"))
            .spawn(move || {
                let _ = accept.serve(&listener);
            })
            .map_err(|e| format!("spawn accept loop: {e}"))?;
        drop(server.start_scheduler());
        ctx.daemons.push(addr.clone());
        Ok(Self { server, addr })
    }
}

/// Median fsync-ed append on the work dir's filesystem, in ms: what one
/// durability op costs here. Moves with the disk, not with the code.
pub fn fdatasync_ms_p50(ctx: &Ctx) -> f64 {
    let path = ctx.workdir.join("fdatasync.cal");
    let Ok(mut log) = DurableAppender::create(&path) else {
        return 0.0;
    };
    let ms: Vec<f64> = (0..40)
        .filter_map(|i| {
            let t = Instant::now();
            log.append_line(&format!("{{\"calibration\":{i}}}")).ok()?;
            Some(t.elapsed().as_secs_f64() * 1e3)
        })
        .collect();
    let _ = std::fs::remove_file(&path);
    crate::stats::median(&ms)
}

/// Total simulated requests in `campaign`.
pub fn total_requests(campaign: &Campaign) -> u64 {
    campaign.expand().iter().map(|j| j.requests).sum()
}

/// Runs workload `name`.
///
/// # Errors
/// An unknown name, or a failure to set the workload up at all (a store
/// that cannot be opened, a socket that cannot be bound).
pub fn run(name: &str, ctx: &mut Ctx) -> Result<Outcome, String> {
    match name {
        "stream_read" | "random_mixed" | "hmc_16ch" => sim::run(name, ctx),
        "campaign_tiny" => campaign::run(ctx),
        "daemon_sweep" => daemon::run(ctx),
        "fleet_sweep" => fleet::run(ctx),
        other => Err(format!(
            "unknown workload '{other}' (expected one of {})",
            NAMES.join(", ")
        )),
    }
}
