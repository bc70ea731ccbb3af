//! Quickstart: describe a DDR3 controller as a `Wiring`, stream
//! sequential reads through it, and print the gem5-style statistics
//! report.
//!
//! ```text
//! cargo run --release -p dramctrl-runner --example quickstart
//! ```

use dramctrl::PagePolicy;
use dramctrl_campaign::Model;
use dramctrl_mem::presets;
use dramctrl_power::micron_power;
use dramctrl_runner::{SimRun, Wiring};
use dramctrl_traffic::{LinearGen, Tester};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    // 1. Pick a device and a model, and configure the controller (paper
    //    Table I parameters).
    let spec = presets::ddr3_1600_x64();
    let mut wiring = Wiring::new(spec.clone(), Model::Event);
    wiring.ctrl.page_policy = PagePolicy::OpenAdaptive;

    // 2. Drive it with a linear read/write mix at a 10 ns injection pace.
    let gen = LinearGen::new(0, 64 << 20, 64, 70, 10_000, 50_000, 1);
    let mut run = SimRun::start(wiring, Box::new(gen), &Tester::new(2_000, 100), 0)?;
    let mut done = run.advance(None).expect("an unpaused run finishes");
    let summary = &done.summary;

    // 3. Report.
    println!("== dramctrl quickstart: {} ==\n", spec.name);
    println!("{}", done.report());
    println!(
        "achieved bandwidth: {:.2} GB/s of {:.2} GB/s peak ({:.1}% bus utilisation)",
        summary.bandwidth_gbps,
        spec.peak_bandwidth_gbps(),
        summary.bus_util * 100.0
    );
    println!(
        "read latency: mean {:.1} ns, p95 {} ns",
        summary.read_lat_ns.mean(),
        summary.read_lat_ns.quantile(0.95).unwrap_or(0)
    );

    // 4. DRAM power from the Micron model.
    let power = micron_power(&spec, &done.activity());
    println!("\n{}", power.report("dram_power"));
    Ok(())
}
