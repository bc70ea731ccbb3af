//! Shared harness code for the figure/table regeneration binaries.
//!
//! Each binary under `src/bin/` regenerates one table or figure of the
//! paper (see `DESIGN.md` for the index and `EXPERIMENTS.md` for recorded
//! results):
//!
//! ```text
//! cargo run --release -p dramctrl-bench --bin fig3
//! ```
//!
//! An open-loop binary gets its simulator the way every product run does:
//! a [`Wiring`] handed to `dramctrl_runner::SimRun` ([`simulate`]).

#![warn(missing_docs)]

/// Re-exported because the frozen `benchmark/` harness imports it from here.
pub use dramctrl_runner::run_job;
/// Re-exported because the frozen `benchmark/` harness imports it from here.
pub use dramctrl_runner::std_tester;

use std::time::Instant;

use dramctrl::{DramCtrl, PagePolicy};
use dramctrl_campaign::Model;
use dramctrl_cycle::CycleCtrl;
use dramctrl_mem::{AddrMapping, MemSpec};
use dramctrl_runner::{cy_cfg, Finished, SimRun, Wiring};
use dramctrl_traffic::{SnapGen, Tester};

/// The figures' simulator: `channels` of `spec` on `model`, with `policy`
/// and `mapping` and every other setting at the paper's defaults.
pub fn wiring(
    spec: MemSpec,
    model: Model,
    policy: PagePolicy,
    mapping: AddrMapping,
    channels: u32,
) -> Wiring {
    let mut w = Wiring::new(spec, model);
    (w.ctrl.page_policy, w.ctrl.mapping, w.ctrl.channels) = (policy, mapping, channels);
    w
}

/// Runs `gen` to completion on the simulator `wiring` describes, measured
/// by `tester`: an unobserved `SimRun`.
///
/// # Panics
/// On a configuration the runner refuses.
pub fn simulate(wiring: Wiring, gen: Box<dyn SnapGen>, tester: &Tester) -> Finished {
    let mut run = SimRun::start(wiring, gen, tester, 0).unwrap_or_else(|e| panic!("{e}"));
    run.advance(None).expect("an unpaused run finishes")
}

/// A bare event-based controller of [`wiring`]'s configuration. Kept
/// because the frozen `benchmark/` harness builds its controllers by hand.
pub fn ev_ctrl(spec: MemSpec, policy: PagePolicy, mapping: AddrMapping, channels: u32) -> DramCtrl {
    let w = wiring(spec, Model::Event, policy, mapping, channels);
    DramCtrl::new(w.ctrl).expect("valid config")
}

/// The matching bare cycle-based baseline (paper Section III: matched
/// timing, matched policies, unified queue architecture). Kept because
/// the frozen `benchmark/` harness builds its controllers by hand.
pub fn cy_ctrl(
    spec: MemSpec,
    policy: PagePolicy,
    mapping: AddrMapping,
    channels: u32,
) -> CycleCtrl {
    let cfg = cy_cfg(&wiring(spec, Model::Cycle, policy, mapping, channels).ctrl);
    CycleCtrl::new(cfg.expect("shared settings only")).expect("valid config")
}

/// Runs `f`, returning its result and the host wall-clock seconds spent.
pub fn timed<R>(f: impl FnOnce() -> R) -> (R, f64) {
    let start = Instant::now();
    let r = f();
    (r, start.elapsed().as_secs_f64())
}

pub use dramctrl_stats::Table;

/// The bus-utilisation sweeps behind paper Figures 3–5.
pub mod sweep {
    use super::*;
    use dramctrl_traffic::DramAwareGen;

    /// One point of a bandwidth sweep.
    #[derive(Debug, Clone, Copy)]
    pub struct BwPoint {
        /// Sequential stride in bursts.
        pub stride: u64,
        /// Banks targeted.
        pub banks: u32,
        /// Event-based model bus utilisation.
        pub ev_util: f64,
        /// Cycle-based baseline bus utilisation.
        pub cy_util: f64,
    }

    /// Sweeps stride × banks with the DRAM-aware generator on both models.
    pub fn bandwidth(
        spec: &MemSpec,
        policy: PagePolicy,
        mapping: AddrMapping,
        read_pct: u8,
        strides: &[u64],
        banks: &[u32],
        requests: u64,
    ) -> Vec<BwPoint> {
        let mut points = Vec::new();
        let tester = Tester::new(100_000, 1_000);
        for &b in banks {
            for &s in strides {
                let [ev_util, cy_util] = [Model::Event, Model::Cycle].map(|model| {
                    let gen =
                        DramAwareGen::new(spec.org, mapping, 1, 0, s, b, read_pct, 0, requests, 7);
                    let w = wiring(spec.clone(), model, policy, mapping, 1);
                    simulate(w, Box::new(gen), &tester).summary.bus_util
                });
                points.push(BwPoint {
                    stride: s,
                    banks: b,
                    ev_util,
                    cy_util,
                });
            }
        }
        points
    }

    /// Prints a sweep as the figure's table.
    pub fn print_points(title: &str, points: &[BwPoint]) {
        println!("{title}\n");
        let mut t = Table::new(["banks", "stride (bursts)", "event util", "cycle util"]);
        for p in points {
            t.row([
                p.banks.to_string(),
                p.stride.to_string(),
                f3(p.ev_util),
                f3(p.cy_util),
            ]);
        }
        t.print();
        println!();
    }
}

/// Formats a float with 3 decimals.
pub fn f3(x: f64) -> String {
    format!("{x:.3}")
}

/// Formats a float with 1 decimal.
pub fn f1(x: f64) -> String {
    format!("{x:.1}")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn controllers_build_for_all_presets() {
        for spec in dramctrl_mem::presets::all() {
            let _ = ev_ctrl(spec.clone(), PagePolicy::Open, AddrMapping::RoRaBaCoCh, 1);
            let _ = cy_ctrl(spec, PagePolicy::Closed, AddrMapping::RoCoRaBaCh, 1);
        }
    }

    #[test]
    fn timed_measures_something() {
        let (v, secs) = timed(|| 40 + 2);
        assert_eq!(v, 42);
        assert!(secs >= 0.0);
    }
}
