//! Ablation — the write-drain watermarks and minimum-writes-per-switch
//! parameters of Section II-C, on mixed traffic.
//!
//! Expected: tiny drain batches thrash the bus with turnarounds; very
//! large high watermarks delay reads behind long drain episodes. The
//! defaults sit in the efficient middle.

use dramctrl::PagePolicy;
use dramctrl_bench::{f1, f3, simulate, wiring, Table};
use dramctrl_campaign::Model;
use dramctrl_mem::{presets, AddrMapping};
use dramctrl_traffic::{DramAwareGen, Tester};

fn main() {
    let spec = presets::ddr3_1333_x64();
    let m = AddrMapping::RoRaBaCoCh;
    println!("Ablation: write drain parameters (DDR3-1333, open page, 1:1 mix)\n");
    let mut table = Table::new([
        "high/low thresh",
        "min writes/switch",
        "bus util",
        "read p50 (ns)",
        "read p95 (ns)",
        "turnarounds",
    ]);
    let t = Tester::new(100_000, 1_000);
    for (hi, lo) in [(0.9, 0.7), (0.7, 0.5), (0.5, 0.3), (0.2, 0.1)] {
        for min_writes in [1usize, 4, 16, 32] {
            let mut w = wiring(spec.clone(), Model::Event, PagePolicy::Open, m, 1);
            (w.ctrl.write_high_thresh, w.ctrl.write_low_thresh) = (hi, lo);
            w.ctrl.min_writes_per_switch = min_writes;
            let gen = DramAwareGen::new(spec.org, m, 1, 0, 8, 4, 50, 0, 10_000, 5);
            let run = simulate(w, Box::new(gen), &t);
            let s = &run.summary;
            table.row([
                format!("{hi:.1}/{lo:.1}"),
                min_writes.to_string(),
                f3(s.bus_util),
                f1(s.read_lat_ns.quantile(0.5).unwrap_or(0) as f64),
                f1(s.read_lat_ns.quantile(0.95).unwrap_or(0) as f64),
                run.report()
                    .get("bus_turnarounds")
                    .expect("counted")
                    .to_string(),
            ]);
        }
    }
    table.print();
}
