//! Heterogeneous tiered memory (paper Section II-F): a small stacked
//! WideIO near tier in front of a larger LPDDR3 far tier. A workload with
//! a hot working set shows why placement matters: when the hot data fits
//! the near tier, most traffic enjoys its four wide channels; pushed to
//! the far tier, everything crosses the narrow mobile interface.
//!
//! ```text
//! cargo run --release -p dramctrl-runner --example tiered_memory
//! ```

use dramctrl_campaign::Model;
use dramctrl_mem::{presets, Controller};
use dramctrl_runner::{Memory, Wiring};
use dramctrl_system::TieredMemory;
use dramctrl_traffic::{InterleaveGen, RandomGen, Tester};

const NEAR_SIZE: u64 = 256 << 20;

/// 4 WideIO channels (near) in front of a single LPDDR3 channel (far).
fn build_memory() -> Result<TieredMemory<Memory, Memory>, String> {
    let mut near = Wiring::new(presets::wideio_200_x128(), Model::Event);
    near.ctrl.channels = 4;
    let far = Wiring::new(presets::lpddr3_1600_x32(), Model::Event);
    Ok(TieredMemory::new(near.build()?, far.build()?, NEAR_SIZE))
}

/// Nine accesses to a 64 MiB hot region at `hot_base` for every access
/// across the whole 512 MiB space.
fn workload(hot_base: u64) -> InterleaveGen<RandomGen, RandomGen> {
    let hot = RandomGen::new(hot_base, hot_base + (64 << 20), 64, 80, 0, 90_000, 3);
    let cold = RandomGen::new(0, 512 << 20, 64, 80, 0, 10_000, 4);
    InterleaveGen::new(hot, cold, 9, 1)
}

fn main() -> Result<(), Box<dyn std::error::Error>> {
    println!("== tiered memory: 4x WideIO (near, 256 MiB) + LPDDR3 (far) ==\n");
    for (name, hot_base) in [
        ("hot set in the near tier", 0u64),
        ("hot set in the far tier ", 300 << 20),
    ] {
        let mut mem = build_memory()?;
        let mut gen = workload(hot_base);
        let s = Tester::new(20_000, 1_000).run(&mut gen, &mut mem);
        let near = mem.near().common_stats();
        let far = mem.far().common_stats();
        println!(
            "{name}: {:6.2} GB/s, read mean {:6.1} ns  (near bursts {:6}, far bursts {:6})",
            s.bandwidth_gbps,
            s.read_lat_ns.mean(),
            near.rd_bursts + near.wr_bursts,
            far.rd_bursts + far.wr_bursts,
        );
    }
    println!("\nPlacement is the whole game: the same workload loses most of its");
    println!("bandwidth when its hot pages migrate past the near-tier boundary.");
    Ok(())
}
