//! Differential-equivalence harness: indexed scheduler vs reference scans.
//!
//! The controller's hot paths (write snooping, FR-FCFS selection, the
//! adaptive page policies' occupancy test) are answered from incremental
//! indices (`sched`). The pre-index linear scans survive behind
//! [`DramCtrl::new_reference`], and this module proves the two are
//! *byte-identical*: a lockstep driver feeds both controllers the same
//! request stream and asserts equal acceptance decisions, equal response
//! streams (every field of every [`MemResponse`]), equal drain ticks and
//! equal rendered statistics reports.
//!
//! The module is compiled for tests only.
//!
//! The same lockstep driver also proves the *zero-perturbation guarantee*
//! of the instrumentation layer ([`assert_probe_transparent`]): a
//! controller carrying live observability sinks must produce byte-identical
//! responses, drain ticks and statistics reports to an uninstrumented one.

use dramctrl_check::TimingChecker;
use dramctrl_kernel::rng::Rng;
use dramctrl_kernel::Tick;
use dramctrl_mem::{EpochRecorder, MemRequest, ReqId};
use dramctrl_obs::ChromeTracer;

use crate::config::CtrlConfig;
use crate::ctrl::DramCtrl;

/// What one lockstep comparison observed (for sanity assertions: a
/// workload that exercises nothing proves nothing).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DiffSummary {
    /// Requests both controllers accepted.
    pub accepted: usize,
    /// Requests both controllers rejected (flow control).
    pub rejected: usize,
    /// Responses both controllers delivered.
    pub responses: usize,
    /// Tick at which both controllers drained idle.
    pub drain_tick: Tick,
}

/// Drives an indexed and a reference controller in lockstep over
/// `requests` (ticks must be non-decreasing) and asserts byte-identical
/// behaviour at every step. The reference carries a [`TimingChecker`]
/// for the device, so the schedule both produce is also held to the DRAM
/// timing rules; the indexed controller is the uninstrumented one that
/// ships.
///
/// # Panics
/// Panics on the first divergence: acceptance decision, response stream,
/// drain tick or rendered statistics report; and on a timing violation.
pub fn assert_equivalent(cfg: &CtrlConfig, requests: &[(Tick, MemRequest)]) -> DiffSummary {
    let mut indexed = DramCtrl::new(cfg.clone()).expect("valid config");
    let checker = TimingChecker::new(&cfg.spec);
    let mut reference = DramCtrl::new_reference(cfg.clone(), checker).expect("valid config");
    let mut iresp = Vec::new();
    let mut rresp = Vec::new();
    let mut accepted = 0;
    let mut rejected = 0;
    for &(t, req) in requests {
        indexed.advance_to(t, &mut iresp);
        reference.advance_to(t, &mut rresp);
        assert_eq!(iresp, rresp, "response streams diverged before tick {t}");
        let can = indexed.can_accept(req.cmd, req.addr, req.size);
        assert_eq!(
            can,
            reference.can_accept(req.cmd, req.addr, req.size),
            "can_accept diverged at tick {t} for {req:?}"
        );
        let sent = indexed.try_send(req, t);
        assert_eq!(
            sent,
            reference.try_send(req, t),
            "try_send diverged at tick {t} for {req:?}"
        );
        assert_eq!(sent.is_ok(), can, "can_accept disagreed with try_send");
        if sent.is_ok() {
            accepted += 1;
        } else {
            rejected += 1;
        }
    }
    let it = indexed.drain(&mut iresp);
    let rt = reference.drain(&mut rresp);
    assert_eq!(it, rt, "drain ticks diverged");
    assert_eq!(iresp, rresp, "final response streams diverged");
    assert_eq!(
        indexed.report("ctrl", it).to_string(),
        reference.report("ctrl", rt).to_string(),
        "rendered statistics reports diverged"
    );
    let checker = reference.probe();
    assert!(
        accepted == 0 || !checker.commands().is_empty(),
        "the timing checker saw no command"
    );
    checker.assert_clean();
    DiffSummary {
        accepted,
        rejected,
        responses: iresp.len(),
        drain_tick: it,
    }
}

/// Drives an uninstrumented controller and one carrying live observability
/// sinks (a [`ChromeTracer`] paired with an [`EpochRecorder`]) in lockstep
/// over `requests`, asserting the zero-perturbation guarantee: byte-identical
/// acceptance decisions, response streams, drain ticks and rendered +
/// JSON-serialised statistics reports. Returns the traced run's probe so
/// callers can additionally assert the sinks saw real events.
///
/// # Panics
/// Panics on the first divergence between the traced and untraced run.
pub fn assert_probe_transparent(
    cfg: &CtrlConfig,
    requests: &[(Tick, MemRequest)],
) -> (DiffSummary, (ChromeTracer, EpochRecorder)) {
    let mut plain = DramCtrl::new(cfg.clone()).expect("valid config");
    let probe = (ChromeTracer::new(), EpochRecorder::new(1_000_000));
    let mut traced = DramCtrl::with_probe(cfg.clone(), probe).expect("valid config");
    let mut presp = Vec::new();
    let mut tresp = Vec::new();
    let mut accepted = 0;
    let mut rejected = 0;
    for &(t, req) in requests {
        plain.advance_to(t, &mut presp);
        traced.advance_to(t, &mut tresp);
        assert_eq!(
            presp, tresp,
            "tracing perturbed the response stream before tick {t}"
        );
        let sent = plain.try_send(req, t);
        assert_eq!(
            sent,
            traced.try_send(req, t),
            "tracing perturbed flow control at tick {t} for {req:?}"
        );
        if sent.is_ok() {
            accepted += 1;
        } else {
            rejected += 1;
        }
    }
    let pt = plain.drain(&mut presp);
    let tt = traced.drain(&mut tresp);
    assert_eq!(pt, tt, "tracing perturbed the drain tick");
    assert_eq!(presp, tresp, "tracing perturbed the final response stream");
    assert_eq!(
        plain.report("ctrl", pt).to_string(),
        traced.report("ctrl", tt).to_string(),
        "tracing perturbed the rendered statistics report"
    );
    assert_eq!(
        plain.report("ctrl", pt).to_json(),
        traced.report("ctrl", tt).to_json(),
        "tracing perturbed the JSON statistics report"
    );
    let summary = DiffSummary {
        accepted,
        rejected,
        responses: tresp.len(),
        drain_tick: tt,
    };
    let mut probe = traced.into_probe();
    probe.1.finish(tt);
    (summary, probe)
}

/// Drives a controller with `ras: None` and one armed with a zero-rate
/// [`RasConfig`](dramctrl_ras::RasConfig) in lockstep over `requests`,
/// asserting the RAS plumbing is invisible when no fault can fire:
/// byte-identical acceptance decisions, response streams and drain ticks,
/// a byte-identical statistics report once the armed run's `ras_*` entries
/// are stripped — and every one of those `ras_*` counters zero.
///
/// # Panics
/// Panics on the first divergence, or if `cfg` already has RAS configured.
pub fn assert_ras_transparent(cfg: &CtrlConfig, requests: &[(Tick, MemRequest)]) -> DiffSummary {
    assert!(cfg.ras.is_none(), "pass a fault-free base config");
    let mut armed_cfg = cfg.clone();
    armed_cfg.ras = Some(dramctrl_ras::RasConfig::new(0xA5));
    let mut plain = DramCtrl::new(cfg.clone()).expect("valid config");
    let mut armed = DramCtrl::new(armed_cfg).expect("valid config");
    let mut presp = Vec::new();
    let mut aresp = Vec::new();
    let mut accepted = 0;
    let mut rejected = 0;
    for &(t, req) in requests {
        plain.advance_to(t, &mut presp);
        armed.advance_to(t, &mut aresp);
        assert_eq!(
            presp, aresp,
            "zero-rate RAS perturbed the response stream before tick {t}"
        );
        let sent = plain.try_send(req, t);
        assert_eq!(
            sent,
            armed.try_send(req, t),
            "zero-rate RAS perturbed flow control at tick {t} for {req:?}"
        );
        if sent.is_ok() {
            accepted += 1;
        } else {
            rejected += 1;
        }
    }
    let pt = plain.drain(&mut presp);
    let at = armed.drain(&mut aresp);
    assert_eq!(pt, at, "zero-rate RAS perturbed the drain tick");
    assert_eq!(
        presp, aresp,
        "zero-rate RAS perturbed the final response stream"
    );
    // Compare the JSON reports (stable schema, no column alignment to
    // disturb) after stripping the armed run's `ras_*` entries.
    // One entry per line; the document closer `]}` sits on whichever line
    // is last, so trim it off along with the entry separator.
    let strip_ras = |json: String| -> String {
        json.lines()
            .filter(|l| !l.contains("\"ras_"))
            .map(|l| l.trim_end_matches("]}").trim_end_matches(','))
            .collect::<Vec<_>>()
            .join("\n")
    };
    assert_eq!(
        strip_ras(plain.report("ctrl", pt).to_json()),
        strip_ras(armed.report("ctrl", at).to_json()),
        "zero-rate RAS perturbed the statistics report"
    );
    let fm = armed.fault_model().expect("armed controller carries RAS");
    for (name, v) in fm.stats().entries() {
        assert_eq!(v, 0, "zero-rate RAS counted {name}={v}");
    }
    assert!(fm.log().is_empty(), "zero-rate RAS logged faults");
    DiffSummary {
        accepted,
        rejected,
        responses: aresp.len(),
        drain_tick: at,
    }
}

/// Drives an uninterrupted controller and a checkpoint/restore pair over
/// the same `requests`, asserting the crash-safety guarantee of the
/// snapshot layer: pausing after `pause_after` requests, serialising the
/// controller, restoring the bytes into a *freshly constructed* controller
/// and continuing must be byte-identical to never having stopped — same
/// post-pause response stream, same drain tick, same rendered and JSON
/// statistics reports, same fault log (when RAS is armed), and a Perfetto
/// trace identical to the uninterrupted run's post-pause trace suffix
/// (captured by swapping a fresh tracer in at the pause point).
///
/// Returns the summary of the uninterrupted run plus the snapshot size in
/// bytes, so callers can assert the pause actually split live state.
///
/// # Panics
/// Panics on the first divergence, or if `pause_after` is out of range.
pub fn assert_checkpoint_equivalent(
    cfg: &CtrlConfig,
    requests: &[(Tick, MemRequest)],
    pause_after: usize,
) -> (DiffSummary, usize) {
    use dramctrl_kernel::snap::{SnapReader, SnapState, SnapWriter};
    assert!(
        pause_after < requests.len(),
        "pause point outside the workload"
    );
    let mut base = DramCtrl::with_probe(cfg.clone(), ChromeTracer::new()).expect("valid config");
    let mut resumed: Option<DramCtrl<ChromeTracer>> = None;
    let mut bresp = Vec::new();
    let mut rresp = Vec::new();
    let mut snap_len = 0;
    let mut accepted = 0;
    let mut rejected = 0;
    for (i, &(t, req)) in requests.iter().enumerate() {
        if i == pause_after {
            // Snapshot the live controller mid-flight...
            let mut w = SnapWriter::new(0xC0FFEE);
            base.save_state(&mut w);
            let bytes = w.into_bytes();
            snap_len = bytes.len();
            // ...restore into a virgin controller built from the same
            // config...
            let mut fresh =
                DramCtrl::with_probe(cfg.clone(), ChromeTracer::new()).expect("valid config");
            let mut r = SnapReader::new(&bytes, 0xC0FFEE).expect("fresh snapshot header");
            fresh.restore_state(&mut r).expect("fresh snapshot body");
            assert!(r.is_exhausted(), "snapshot has trailing bytes");
            resumed = Some(fresh);
            // ...and start the baseline's trace suffix: from here on the
            // uninterrupted run records into a fresh tracer, which must
            // match the resumed run's tracer byte for byte.
            let _prefix = std::mem::take(base.probe_mut());
            bresp.clear();
        }
        base.advance_to(t, &mut bresp);
        let sent = base.try_send(req, t);
        if sent.is_ok() {
            accepted += 1;
        } else {
            rejected += 1;
        }
        if let Some(res) = resumed.as_mut() {
            res.advance_to(t, &mut rresp);
            assert_eq!(bresp, rresp, "response streams diverged before tick {t}");
            assert_eq!(
                sent,
                res.try_send(req, t),
                "try_send diverged at tick {t} for {req:?}"
            );
        }
    }
    let mut resumed = resumed.expect("pause point inside the workload");
    let bt = base.drain(&mut bresp);
    let rt = resumed.drain(&mut rresp);
    assert_eq!(bt, rt, "drain ticks diverged");
    assert_eq!(bresp, rresp, "final response streams diverged");
    assert_eq!(
        base.report("ctrl", bt).to_string(),
        resumed.report("ctrl", rt).to_string(),
        "rendered statistics reports diverged"
    );
    assert_eq!(
        base.report("ctrl", bt).to_json(),
        resumed.report("ctrl", rt).to_json(),
        "JSON statistics reports diverged"
    );
    if base.fault_model().is_some() {
        assert_eq!(
            base.fault_model().unwrap().log_text(),
            resumed.fault_model().unwrap().log_text(),
            "fault logs diverged"
        );
    }
    assert_eq!(
        base.into_probe().to_json(),
        resumed.into_probe().to_json(),
        "post-pause Perfetto trace suffixes diverged"
    );
    (
        DiffSummary {
            accepted,
            rejected,
            responses: bresp.len(),
            drain_tick: bt,
        },
        snap_len,
    )
}

/// Generates a deterministic random request stream that exercises every
/// controller path the indices touch: row hits and conflicts (a hot
/// region), bank spread (a wide region), write merging and read forwarding
/// (revisited addresses), sub-burst unaligned accesses, multi-burst
/// chopped requests, QoS sources `0..qos_sources` and bursty arrivals.
///
/// Ticks are non-decreasing, as [`assert_equivalent`] requires.
pub fn random_workload(seed: u64, n: usize, qos_sources: u16) -> Vec<(Tick, MemRequest)> {
    let mut rng = Rng::seed_from_u64(seed);
    let mut t: Tick = 0;
    (0..n)
        .map(|i| {
            // Bursty: half the arrivals are back-to-back, the rest spread
            // out to let queues drain and refreshes interleave.
            if rng.gen_bool() {
                t += rng.gen_range(0..100_000);
            }
            let addr = if rng.gen_bool() {
                rng.gen_range(0..1 << 14) // hot: hits, merges, forwards
            } else {
                rng.gen_range(0..1 << 26) // wide: bank/row spread
            };
            let size = match rng.gen_range(0..4) {
                0 => rng.gen_range_inclusive(1..=64) as u32, // sub-burst
                1 => 64,
                2 => 128,
                _ => 256, // chopped into several bursts
            };
            let req = if rng.gen_bool() {
                MemRequest::read(ReqId(i as u64), addr, size)
            } else {
                MemRequest::write(ReqId(i as u64), addr, size)
            };
            let source = if qos_sources > 1 {
                (rng.next_u64() % u64::from(qos_sources)) as u16
            } else {
                0
            };
            (t, req.with_source(source))
        })
        .collect()
}

/// Splits a workload across `channels` controllers the way an interleaving
/// crossbar would, by burst-aligned address bits.
pub fn split_by_channel(
    requests: &[(Tick, MemRequest)],
    channels: u64,
) -> Vec<Vec<(Tick, MemRequest)>> {
    let mut per: Vec<Vec<(Tick, MemRequest)>> = vec![Vec::new(); channels as usize];
    for &(t, req) in requests {
        per[((req.addr >> 6) % channels) as usize].push((t, req));
    }
    per
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{PagePolicy, SchedPolicy};
    use dramctrl_mem::presets;
    use dramctrl_ras::EccMode;

    fn cfg_matrix() -> Vec<CtrlConfig> {
        let mut cfgs = Vec::new();
        for pp in [
            PagePolicy::Open,
            PagePolicy::OpenAdaptive,
            PagePolicy::Closed,
            PagePolicy::ClosedAdaptive,
        ] {
            for sp in [SchedPolicy::FrFcfs, SchedPolicy::Fcfs] {
                let mut cfg = CtrlConfig::new(presets::ddr3_1333_x64());
                cfg.page_policy = pp;
                cfg.scheduling = sp;
                cfgs.push(cfg);
            }
        }
        cfgs
    }

    /// Every page policy × scheduling policy is byte-identical between the
    /// indexed and reference controllers, and the workload actually
    /// exercises the paths (responses flow).
    #[test]
    fn all_policies_and_schedulers_equivalent() {
        for (i, cfg) in cfg_matrix().into_iter().enumerate() {
            let wl = random_workload(0xD1FF + i as u64, 150, 1);
            let summary = assert_equivalent(&cfg, &wl);
            assert!(summary.responses > 0);
            assert!(summary.accepted > 50, "workload barely exercised paths");
        }
    }

    /// QoS classes reorder service; the indexed order index must agree
    /// with the priority scan.
    #[test]
    fn qos_priorities_equivalent() {
        for sp in [SchedPolicy::FrFcfs, SchedPolicy::Fcfs] {
            let mut cfg = CtrlConfig::new(presets::ddr3_1333_x64());
            cfg.page_policy = PagePolicy::OpenAdaptive;
            cfg.scheduling = sp;
            cfg.qos_priorities = vec![0, 1, 3, 7];
            let wl = random_workload(0x905, 200, 4);
            let summary = assert_equivalent(&cfg, &wl);
            assert!(summary.responses > 0);
        }
    }

    /// Tiny queues force rejections, so flow control (including the
    /// `can_accept`/`try_send` agreement) is exercised on both sides.
    #[test]
    fn flow_control_equivalent_with_tiny_queues() {
        let mut cfg = CtrlConfig::new(presets::ddr3_1333_x64());
        cfg.read_buffer_size = 4;
        cfg.write_buffer_size = 4;
        let wl = random_workload(0xF10, 150, 1);
        let summary = assert_equivalent(&cfg, &wl);
        assert!(summary.rejected > 0, "workload never hit flow control");
    }

    /// Satellite property test: 64 seeded random workloads, each run at
    /// one channel and split across four channels, stay byte-identical.
    /// Policies rotate with the seed so the whole matrix keeps being
    /// covered as seeds grow.
    #[test]
    fn sixty_four_random_workloads_at_one_and_four_channels() {
        let cfgs = cfg_matrix();
        for seed in 0..64u64 {
            let cfg = &cfgs[(seed as usize) % cfgs.len()];
            let qos = if seed % 3 == 0 { 4 } else { 1 };
            let wl = random_workload(0x5EED_0000 + seed, 96, qos);
            let mut single = cfg.clone();
            if qos == 4 {
                single.qos_priorities = vec![0, 2, 5, 6];
            }
            assert_equivalent(&single, &wl);
            let mut multi = single.clone();
            multi.channels = 4;
            for sub in split_by_channel(&wl, 4) {
                if !sub.is_empty() {
                    assert_equivalent(&multi, &sub);
                }
            }
        }
    }

    /// The zero-perturbation guarantee: live Chrome-trace + epoch sinks
    /// leave every output of every page/scheduling policy byte-identical,
    /// while the sinks themselves see real commands and produce loadable
    /// JSON.
    #[test]
    fn tracing_is_zero_perturbation_across_policies() {
        for (i, cfg) in cfg_matrix().into_iter().enumerate() {
            let wl = random_workload(0x0B5 + i as u64, 150, 1);
            let (summary, (tracer, epochs)) = assert_probe_transparent(&cfg, &wl);
            assert!(summary.responses > 0);
            assert!(!tracer.is_empty(), "tracer saw no events");
            let json = tracer.to_json();
            dramctrl_obs::json::validate(&json).expect("loadable trace JSON");
            assert!(json.contains("\"RD\"") || json.contains("\"WR\""));
            assert!(!epochs.rows().is_empty(), "no epochs recorded");
        }
    }

    /// Zero-perturbation also holds through the power-down/self-refresh
    /// state machine, and the tracer records the residency transitions.
    #[test]
    fn tracing_is_zero_perturbation_with_powerdown() {
        let mut cfg = CtrlConfig::new(presets::ddr3_1333_x64());
        cfg.powerdown_idle = 200_000;
        cfg.selfrefresh_after = 400_000;
        let wl = random_workload(0x0B6, 120, 1);
        let (summary, (tracer, _)) = assert_probe_transparent(&cfg, &wl);
        assert!(summary.responses > 0);
        let json = tracer.to_json();
        assert!(json.contains("\"powerdown\""), "no power-down slice traced");
    }

    /// The indices at their edges: 1 024-entry queues, and 8 ranks × 16
    /// banks so the bank and hit masks span two words and the miss pass
    /// steps across ranks — under both schedulers, with four QoS classes
    /// and link errors whose retries re-enter at the top priority. The
    /// miss pass's packed `(ready, seq)` tie-break and the slot-held row
    /// bucket handles must answer as the scans do; arrivals are packed
    /// sixteen times denser than `random_workload`'s so the deep queues
    /// fill.
    #[test]
    fn deep_queues_and_two_word_bank_masks_equivalent() {
        let mut wide = presets::ddr3_1333_x64();
        wide.org.ranks = 8;
        wide.org.banks = 16;
        let cases = [
            (presets::ddr3_1333_x64(), 1024),
            (wide.clone(), 32),
            (wide, 1024),
        ];
        for (i, (spec, depth)) in cases.into_iter().enumerate() {
            for sp in [SchedPolicy::FrFcfs, SchedPolicy::Fcfs] {
                let mut cfg = CtrlConfig::new(spec.clone());
                cfg.scheduling = sp;
                cfg.read_buffer_size = depth;
                cfg.write_buffer_size = depth;
                cfg.qos_priorities = vec![0, 1, 3, 7];
                let mut ras = dramctrl_ras::RasConfig::new(0xED6E + i as u64);
                ras.link_error_rate = 0.02;
                cfg.ras = Some(ras);
                let wl: Vec<_> = random_workload(0xED6E + i as u64, 1_500, 4)
                    .into_iter()
                    .map(|(t, req)| (t / 16, req))
                    .collect();
                let summary = assert_equivalent(&cfg, &wl);
                assert!(summary.responses > 200, "{summary:?}");
                // The edges were reached: the queues held more than the
                // default depth, and banks past the first mask word ran.
                let checker = TimingChecker::new(&cfg.spec);
                let mut ctrl = DramCtrl::with_probe(cfg, checker).expect("valid config");
                let (mut out, mut peak) = (Vec::new(), 0);
                for &(t, req) in &wl {
                    ctrl.advance_to(t, &mut out);
                    let _ = ctrl.try_send(req, t);
                    peak = peak.max(ctrl.read_queue_len().max(ctrl.write_queue_len()));
                }
                ctrl.drain(&mut out);
                assert!(
                    peak > 64 || depth < 64,
                    "queues peaked at {peak} of {depth}"
                );
                let ranks = spec.org.ranks;
                let cmds = ctrl.probe().commands();
                assert!(ranks == 1 || cmds.iter().any(|c| c.rank * 16 + c.bank >= 64));
                let retries = ctrl.fault_model().expect("RAS armed").stats().retries;
                assert!(retries > 0, "no retry re-entered the queue");
            }
        }
    }

    /// Power-down and self-refresh interact with arrival side effects;
    /// the indexed controller must wake and drain identically.
    #[test]
    fn powerdown_paths_equivalent() {
        let mut cfg = CtrlConfig::new(presets::ddr3_1333_x64());
        cfg.page_policy = PagePolicy::ClosedAdaptive;
        cfg.powerdown_idle = 200_000;
        cfg.selfrefresh_after = 400_000;
        let wl = random_workload(0x9D, 120, 1);
        let summary = assert_equivalent(&cfg, &wl);
        assert!(summary.responses > 0);
    }

    /// A zero-rate fault model is invisible across the whole policy ×
    /// scheduler matrix, with power-down, and at one and four channels.
    #[test]
    fn zero_rate_ras_is_transparent_across_policies_and_channels() {
        for (i, cfg) in cfg_matrix().into_iter().enumerate() {
            let wl = random_workload(0x9A5 + i as u64, 120, 1);
            let summary = assert_ras_transparent(&cfg, &wl);
            assert!(summary.responses > 0);
            let mut multi = cfg.clone();
            multi.channels = 4;
            for sub in split_by_channel(&wl, 4) {
                if !sub.is_empty() {
                    assert_ras_transparent(&multi, &sub);
                }
            }
        }
        let mut pd = CtrlConfig::new(presets::ddr3_1333_x64());
        pd.powerdown_idle = 200_000;
        pd.selfrefresh_after = 400_000;
        assert_ras_transparent(&pd, &random_workload(0x9A5F, 120, 1));
    }

    /// Runs a faulty configuration to completion, returning every
    /// determinism-relevant artefact: responses, fault log, stats JSON and
    /// the Perfetto trace.
    fn faulty_run(channels: u32, wl: &[(Tick, MemRequest)]) -> (String, String, String) {
        let mut cfg = CtrlConfig::new(presets::ddr3_1333_x64());
        cfg.channels = channels;
        cfg.ras =
            Some(dramctrl_ras::RasConfig::from_error_rate(2e11, 0xFA_15).with_ecc(EccMode::SecDed));
        let probe = (ChromeTracer::new(), EpochRecorder::new(1_000_000));
        let mut ctrl = DramCtrl::with_probe(cfg, probe).expect("valid config");
        let mut resp = Vec::new();
        for &(t, req) in wl {
            ctrl.advance_to(t, &mut resp);
            let _ = ctrl.try_send(req, t);
        }
        let end = ctrl.drain(&mut resp);
        let log = ctrl.fault_model().expect("RAS armed").log_text();
        let stats = ctrl.report("ctrl", end).to_json();
        let trace = ctrl.into_probe().0.to_json();
        (log, stats, trace)
    }

    /// Same seed + config ⇒ byte-identical fault logs, stats JSON and
    /// Perfetto traces, at one and four channels — and the runs actually
    /// inject faults.
    #[test]
    fn faulty_runs_are_deterministic() {
        let wl = random_workload(0xDE7, 200, 1);
        for channels in [1u32, 4] {
            let subs = if channels == 1 {
                vec![wl.clone()]
            } else {
                split_by_channel(&wl, u64::from(channels))
            };
            for sub in &subs {
                if sub.is_empty() {
                    continue;
                }
                let a = faulty_run(channels, sub);
                let b = faulty_run(channels, sub);
                assert_eq!(a.0, b.0, "fault logs diverged at {channels} channel(s)");
                assert_eq!(a.1, b.1, "stats JSON diverged at {channels} channel(s)");
                assert_eq!(a.2, b.2, "traces diverged at {channels} channel(s)");
            }
            let (log, stats, _) = faulty_run(channels, &subs[0]);
            assert!(
                !log.is_empty(),
                "no faults injected at {channels} channel(s)"
            );
            assert!(stats.contains("\"ras_corrected\""));
        }
    }

    /// Checkpoint/restore is byte-identical across the page-policy ×
    /// scheduler matrix, and the snapshot actually carries live state.
    #[test]
    fn checkpoint_restore_equivalent_across_policies() {
        for (i, cfg) in cfg_matrix().into_iter().enumerate() {
            let wl = random_workload(0xC4E0 + i as u64, 150, 1);
            let (summary, snap_len) = assert_checkpoint_equivalent(&cfg, &wl, 75);
            assert!(summary.responses > 0);
            assert!(snap_len > 64, "snapshot suspiciously empty");
        }
    }

    /// Checkpoint/restore equivalence holds with a live fault model: the
    /// restored run continues the per-site fault streams, retry state and
    /// the fault log exactly.
    #[test]
    fn checkpoint_restore_equivalent_with_ras() {
        for seed in [0xC4E1u64, 0xC4E2] {
            let mut cfg = CtrlConfig::new(presets::ddr3_1333_x64());
            cfg.ras = Some(
                dramctrl_ras::RasConfig::from_error_rate(2e11, seed).with_ecc(EccMode::SecDed),
            );
            let wl = random_workload(seed, 200, 1);
            let (summary, _) = assert_checkpoint_equivalent(&cfg, &wl, 100);
            assert!(summary.responses > 0);
        }
    }

    /// Checkpoint/restore equivalence holds through the power-down /
    /// self-refresh machinery and with QoS classes in play.
    #[test]
    fn checkpoint_restore_equivalent_with_powerdown_and_qos() {
        let mut cfg = CtrlConfig::new(presets::ddr3_1333_x64());
        cfg.powerdown_idle = 200_000;
        cfg.selfrefresh_after = 400_000;
        cfg.qos_priorities = vec![0, 1, 3, 7];
        let wl = random_workload(0xC4E3, 150, 4);
        for pause in [1, 40, 149] {
            let (summary, _) = assert_checkpoint_equivalent(&cfg, &wl, pause);
            assert!(summary.responses > 0);
        }
    }

    /// The timing checker is not vacuous: shaving one tick off a timing
    /// field in the controller's copy of the spec only — the checker
    /// keeps the device's — makes the controller break the rule that
    /// field defines, and the checker names that rule. Each mutant runs
    /// the open- and closed-page policies over a workload dense enough to
    /// keep every constraint binding, refresh included.
    #[test]
    fn every_shaved_timing_field_trips_its_rule() {
        use dramctrl_check::Rule;
        use dramctrl_mem::Timing;
        type Field = fn(&mut Timing) -> &mut Tick;
        let mutants: [(Rule, Field); 11] = [
            (Rule::Rcd, |t| &mut t.t_rcd),
            (Rule::Rp, |t| &mut t.t_rp),
            (Rule::Ras, |t| &mut t.t_ras),
            (Rule::Rrd, |t| &mut t.t_rrd),
            (Rule::Xaw, |t| &mut t.t_xaw),
            (Rule::Rtp, |t| &mut t.t_rtp),
            (Rule::Wr, |t| &mut t.t_wr),
            (Rule::Rfc, |t| &mut t.t_rfc),
            (Rule::DataBus, |t| &mut t.t_burst),
            (Rule::Wtr, |t| &mut t.t_wtr),
            (Rule::Rtw, |t| &mut t.t_rtw),
        ];
        let wl = random_workload(0x7A1E, 600, 1);
        for (rule, field) in mutants {
            let mut tripped = Vec::new();
            for pp in [PagePolicy::Open, PagePolicy::Closed] {
                let mut cfg = CtrlConfig::new(presets::ddr3_1333_x64());
                cfg.page_policy = pp;
                let device = cfg.spec.clone();
                *field(&mut cfg.spec.timing) -= 1;
                let checker = TimingChecker::new(&device);
                let mut ctrl = DramCtrl::with_probe(cfg, checker).expect("valid config");
                let mut out = Vec::new();
                for &(t, req) in &wl {
                    ctrl.advance_to(t, &mut out);
                    let _ = ctrl.try_send(req, t);
                }
                ctrl.drain(&mut out);
                tripped.extend(ctrl.probe().tally().into_keys());
            }
            assert!(
                tripped.contains(&rule),
                "{rule}: shaving its field tripped only {tripped:?}"
            );
        }
    }

    /// Link errors drive the in-queue retry path: retries are counted, the
    /// run still completes every request, and it stays deterministic.
    #[test]
    fn link_error_retries_complete_and_count() {
        let mut cfg = CtrlConfig::new(presets::ddr3_1333_x64());
        let mut ras = dramctrl_ras::RasConfig::new(0x11E);
        ras.link_error_rate = 0.05;
        cfg.ras = Some(ras);
        let wl = random_workload(0x11E7, 200, 1);
        let run = |cfg: &CtrlConfig| {
            let mut ctrl = DramCtrl::new(cfg.clone()).expect("valid config");
            let mut resp = Vec::new();
            for &(t, req) in &wl {
                ctrl.advance_to(t, &mut resp);
                let _ = ctrl.try_send(req, t);
            }
            let end = ctrl.drain(&mut resp);
            (resp.len(), ctrl.report("ctrl", end))
        };
        let (n1, r1) = run(&cfg);
        let (n2, r2) = run(&cfg);
        assert_eq!(r1.to_json(), r2.to_json(), "retrying run not deterministic");
        // Every accepted request still gets exactly one response.
        let mut plain = cfg.clone();
        plain.ras = None;
        let (n_plain, _) = run(&plain);
        assert_eq!(n1, n_plain, "retries lost or duplicated responses");
        assert_eq!(n1, n2);
        let retries = r1.get("ras_retries").expect("ras_retries in report");
        assert!(retries > 0.0, "no retries exercised");
        let crc = r1.get("ras_crc_errors").unwrap() + r1.get("ras_parity_errors").unwrap();
        assert!(crc > 0.0, "no link errors injected");
    }
}
