//! Future-system exploration (paper Section IV-B in miniature): run the
//! same multicore workload over DDR3, LPDDR3 and WideIO memory systems —
//! all 12.8 GB/s peak — by swapping only the device specification and the
//! channel count. The controller model itself never changes; that
//! flexibility is the case study's point.
//!
//! ```text
//! cargo run --release -p dramctrl-runner --example explore_memories
//! ```

use dramctrl::PagePolicy;
use dramctrl_campaign::Model;
use dramctrl_kernel::tick;
use dramctrl_mem::{presets, AddrMapping, Controller};
use dramctrl_power::micron_power;
use dramctrl_runner::Wiring;
use dramctrl_system::{workload, System, SystemConfig};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let cores = 8;
    let insts = 80_000;
    let profile = workload::canneal();
    println!("== canneal on {cores} cores, three 12.8 GB/s memory systems ==\n");
    for (spec, channels) in [
        (presets::ddr3_1600_x64(), 1u32),
        (presets::lpddr3_1600_x32(), 2),
        (presets::wideio_200_x128(), 4),
    ] {
        let mut wiring = Wiring::new(spec.clone(), Model::Event);
        let c = &mut wiring.ctrl;
        (c.page_policy, c.mapping, c.channels) =
            (PagePolicy::Open, AddrMapping::RoRaBaCoCh, channels);
        let mem = wiring.build()?;
        let mut cfg = SystemConfig::table2(cores, insts);
        cfg.llc.size = 8 << 20;
        let mut sys = System::new(cfg, mem, &vec![profile; cores], 42)?;
        let r = sys.run();
        let power = micron_power(&spec, &sys.controller_mut().activity(r.duration));
        println!(
            "{:>16} x{channels}: IPC {:.3}  miss-lat {:>6.1} ns  bus {:>5.1}%  power {:.2} W",
            spec.name,
            r.ipc,
            tick::to_ns(r.llc_miss_lat.mean() as u64),
            r.dram.bus_utilisation(r.duration) / f64::from(channels) * 100.0,
            power.total_mw() * f64::from(channels) / 1000.0,
        );
    }
    println!("\n(WideIO's four wide, slow channels suit canneal's scattered reads;");
    println!(" the single DDR3 channel queues them behind each other.)");
    Ok(())
}
