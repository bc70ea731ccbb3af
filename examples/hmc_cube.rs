//! An HMC-like stacked memory cube (paper Section II-F): "a model of HMC
//! is only a matter of combining the crossbar model with 16 instances of
//! our controller" — here 16 HBM-class channels behind one crossbar,
//! hammered with random traffic, demonstrating near-linear bandwidth
//! scaling and the event model's modest simulation cost.
//!
//! ```text
//! cargo run --release -p dramctrl-runner --example hmc_cube
//! ```

use std::time::Instant;

use dramctrl::{CtrlConfig, DramCtrl, PagePolicy};
use dramctrl_mem::{presets, AddrMapping};
use dramctrl_system::MultiChannel;
use dramctrl_traffic::{RandomGen, Tester};

fn cube(channels: u32) -> Result<MultiChannel<DramCtrl>, Box<dyn std::error::Error>> {
    let ctrls = (0..channels)
        .map(|_| {
            let mut cfg = CtrlConfig::new(presets::hbm_1000_x128());
            cfg.channels = channels;
            cfg.page_policy = PagePolicy::ClosedAdaptive; // random traffic
            cfg.mapping = AddrMapping::RoCoRaBaCh;
            DramCtrl::new(cfg)
        })
        .collect::<Result<Vec<_>, _>>()?;
    Ok(MultiChannel::new(ctrls, 2_000)?.with_mapping(AddrMapping::RoCoRaBaCh))
}

fn main() -> Result<(), Box<dyn std::error::Error>> {
    println!("== HMC-like cube: HBM channels under random traffic ==\n");
    println!(
        "{:>8} {:>14} {:>12} {:>12} {:>10}",
        "channels", "bandwidth GB/s", "per-ch util", "read lat ns", "host s"
    );
    for channels in [1u32, 2, 4, 8, 16] {
        let mut mem = cube(channels)?;
        let mut gen = RandomGen::new(0, 1 << 28, 64, 67, 0, 100_000, 9);
        let start = Instant::now();
        let s = Tester::new(10_000, 500).run(&mut gen, &mut mem);
        let host = start.elapsed().as_secs_f64();
        println!(
            "{:>8} {:>14.2} {:>11.1}% {:>12.1} {:>10.3}",
            channels,
            s.bandwidth_gbps,
            s.ctrl.bus_utilisation(s.duration) / f64::from(mem.channels()) * 100.0,
            s.read_lat_ns.mean(),
            host,
        );
    }
    println!("\nSixteen channels cost barely more host time than one: the event");
    println!("model's work scales with traffic, not with instantiated hardware.");
    Ok(())
}
