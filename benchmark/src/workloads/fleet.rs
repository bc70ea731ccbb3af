//! `fleet_sweep`: one larger campaign dispatched across a daemon fleet.
//!
//! The `serve` layer used the other way round from `daemon_sweep`: one
//! tenant per daemon, a long queue, throughput- not latency-bound, plus
//! the coordinator's own work — residue-class sharding, per-record byte
//! validation against its own campaign spec, shard journals and the
//! final merge. The merged report must equal a local `run_campaign`'s.

use super::daemon::{serve_metrics, wire_micro};
use super::{fdatasync_ms_p50, total_requests, Ctx, Daemon};
use crate::calib::{Calibrator, SERVICE_DURABLE_SHARE};
use crate::report::Outcome;
use crate::stats::{median, undisturbed};
use dramctrl::PagePolicy;
use dramctrl_bench::run_job;
use dramctrl_campaign::{run_campaign, Campaign, ExecutorConfig, TrafficPattern};
use dramctrl_kernel::fsio::fault::op_count;
use dramctrl_serve::{dispatch, DispatchConfig, DispatchStats};
use std::time::Instant;

/// Times the fleet is set up: each is two daemons started and a warm-up
/// dispatch, 0.7 s and more, so fewer than the other workloads' nine.
const SETUPS: usize = 5;

/// devices 2 x generators 2 x reads 4 x requests {1 000 .. 8 000} x
/// policies 2: 128 units, 3 750 requests each on average. A quarter of
/// the issue's 512 so that a run holds a dozen dispatches, not three.
fn campaign(seed: u64) -> Campaign {
    Campaign::new("fleet_sweep", seed)
        .devices(["DDR3-1600-x64", "DDR4-2400-x64"])
        .policies([PagePolicy::Open, PagePolicy::Closed])
        .traffic([
            TrafficPattern::Linear {
                range: 256 << 20,
                block: 64,
            },
            TrafficPattern::Random {
                range: 256 << 20,
                block: 64,
            },
        ])
        .read_pcts([25, 50, 75, 100])
        .requests([1_000, 2_000, 4_000, 8_000])
}

/// One dispatch: fresh coordinator work dir, campaign in, merged report
/// bytes out. Returns `(bytes, stats, started, ended)`.
fn dispatch_once(
    ctx: &Ctx,
    c: &Campaign,
    peers: &[String],
    n: usize,
) -> Result<(String, DispatchStats, Instant, Instant), String> {
    let dir = ctx.workdir.join(format!("dispatch-{n}"));
    let started = Instant::now();
    let (report, stats) =
        dispatch(c, peers, &DispatchConfig::new(&dir)).map_err(|e| format!("dispatch: {e}"))?;
    let bytes = report.to_jsonl();
    let ended = Instant::now();
    let failed = report.failed();
    std::fs::remove_dir_all(&dir).map_err(|e| format!("remove {}: {e}", dir.display()))?;
    if failed != 0 {
        return Err(format!("{failed} unit(s) failed on the fleet"));
    }
    Ok((bytes, stats, started, ended))
}

pub fn run(ctx: &mut Ctx) -> Result<Outcome, String> {
    let mut out = Outcome::default();
    let peers = ctx.host.clamp("peers", 2);
    // One busy scheduler thread per daemon; the coordinator's per-shard
    // threads block on their sockets.
    ctx.host.check_threads("peers", peers)?;
    let c = campaign(ctx.sub_seed(0));
    let units = c.len() as u64;
    let requests = total_requests(&c);

    // The reference, off the clock — and, timed, the local number the
    // fleet is compared with, at as many workers as there are peers.
    let cfg = ExecutorConfig::default().with_workers(peers);
    // The local executor computes; the fleet's scheduler threads spend
    // half their time in fsynced writes and socket hand-offs, like
    // `daemon_sweep`'s, so the fleet gets the mixed calibration.
    let mut cal = Calibrator::new(peers);
    let mut fleet_cal = Calibrator::with_durable(peers, &ctx.workdir, SERVICE_DURABLE_SHARE);
    let mut local_secs = Vec::new();
    let mut reference = String::new();
    for _ in 0..if ctx.trace { 3 } else { 1 } {
        let t = Instant::now();
        let report = run_campaign(&c, &cfg, run_job);
        reference = report.to_jsonl();
        local_secs.push(cal.scale(t.elapsed().as_secs_f64()));
        out.check(
            "local reference run has no failed unit",
            report.failed() == 0,
        );
    }

    // Set-up: open and start every daemon, then one warm-up dispatch.
    let mut setups = Vec::with_capacity(SETUPS);
    let mut live = Vec::new();
    let mut n = 0;
    fleet_cal.sample();
    for k in 0..SETUPS {
        let t = Instant::now();
        let fleet = (0..peers)
            .map(|p| Daemon::start(ctx, &format!("s{k}p{p}")))
            .collect::<Result<Vec<_>, _>>()?;
        let addrs: Vec<String> = fleet.iter().map(|d| d.addr.clone()).collect();
        let (bytes, ..) = dispatch_once(ctx, &c, &addrs, n)?;
        n += 1;
        setups.push(fleet_cal.scale(t.elapsed().as_secs_f64()));
        out.check(
            "warm-up dispatch merged the reference bytes",
            bytes == reference,
        );
        live = fleet;
    }
    let addrs: Vec<String> = live.iter().map(|d| d.addr.clone()).collect();

    let ops_before = op_count();
    let deadline = ctx.deadline(1.0);
    let (mut secs, mut wall) = (Vec::new(), Vec::new());
    let mut mismatched = 0u64;
    let mut unhealthy = 0u64;
    let mut last_stats = DispatchStats::default();
    while secs.len() < 3 || Instant::now() < deadline {
        let (bytes, stats, started, ended) = dispatch_once(ctx, &c, &addrs, n)?;
        let s = (ended - started).as_secs_f64();
        n += 1;
        if ctx.trace {
            ctx.recorder
                .push("dispatch.dispatch", started, ended, None, secs.len() as u64);
        }
        mismatched += u64::from(bytes != reference);
        unhealthy += u64::from(stats.rounds != 1 || stats.redispatches != 0);
        secs.push(fleet_cal.scale(s));
        wall.push(s);
        last_stats = stats;
    }
    let ops = op_count() - ops_before;
    out.check(
        "merged report byte-identical to a local run_campaign's",
        mismatched == 0,
    );
    out.check(
        "healthy fleet: every dispatch took one round and no re-dispatch",
        unhealthy == 0,
    );
    out.attempted = units * (secs.len() + SETUPS) as u64;
    out.failed = units * mismatched.max(unhealthy);

    // The median, as on `daemon_sweep`: over two sets of ten runs the
    // dispatches' decile spread 10-18 % where their median spread 3-11 %.
    let run_s = median(&secs);
    out.set_whole_result(run_s, units as f64, requests as f64);
    out.set("setup_s", median(&setups));
    out.set("harness.samples", secs.len() as f64);
    out.notes.push(format!(
        "{units} units, {requests} requests per dispatch, {peers} peer(s), {} timed dispatches",
        secs.len()
    ));
    out.notes.push(format!(
        "raw wall clock: {:.1} sims/s, dispatch {:.1} ms",
        units as f64 / median(&wall),
        median(&wall) * 1e3
    ));
    out.set("harness.host_speed", fleet_cal.median_speed());

    if ctx.trace {
        let sims = (units * secs.len() as u64) as f64;
        out.set("kernel.durability_ops", ops as f64);
        out.set("kernel.durability_ops_per_sim", ops as f64 / sims);
        out.set("kernel.fdatasync_ms_p50", fdatasync_ms_p50(ctx));
        let fleet: Vec<&Daemon> = live.iter().collect();
        serve_metrics(&fleet, &mut out);
        wire_micro(&reference, &mut out);
        let local_s = undisturbed(&local_secs);
        out.set("campaign.local_sims_per_s", units as f64 / local_s);
        out.set("dispatch.wall_s", run_s);
        out.set("dispatch.shards", f64::from(last_stats.shards));
        out.set("dispatch.rounds", f64::from(last_stats.rounds));
        out.set("dispatch.redispatches", f64::from(last_stats.redispatches));
        out.set("dispatch.hedges", f64::from(last_stats.hedges));
        out.set(
            "dispatch.hedge_waste",
            f64::from(last_stats.hedges) / f64::from(last_stats.shards.max(1)),
        );
        out.set("dispatch.fleet_over_local", run_s / local_s);
        out.set("serve.remote_over_local", run_s / local_s);
    }
    out.set("peak_rss_mb", crate::host::peak_rss_mb());
    Ok(out)
}
