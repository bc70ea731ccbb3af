//! Figure 9 — memory sensitivity and read-latency breakdown for a 16-core
//! canneal run on three memory technologies (paper Section IV-B).
//!
//! DDR3 (1x64-bit), LPDDR3 (2x32-bit) and WideIO (4x128-bit) all offer
//! 12.8 GB/s peak (Table IV); the controller model is identical — only
//! timings and organisation differ (the controller-centric flexibility
//! that is the point of the case study). The latency breakdown splits the
//! average read latency inside the controller into queueing, bank access,
//! data-bus and static components.

use dramctrl::PagePolicy;
use dramctrl_bench::{f1, f3, wiring, Table};
use dramctrl_campaign::Model;
use dramctrl_kernel::tick;
use dramctrl_mem::{presets, AddrMapping, Controller, MemSpec};
use dramctrl_power::micron_power;
use dramctrl_system::{workload, System, SystemConfig};

fn main() {
    let cores = 16;
    let insts = 60_000u64;
    let memories: [(&str, MemSpec, u32); 3] = [
        ("DDR3 1x64", presets::ddr3_1600_x64(), 1),
        ("LPDDR3 2x32", presets::lpddr3_1600_x32(), 2),
        ("WideIO 4x128", presets::wideio_200_x128(), 4),
    ];

    println!("Figure 9: 16-core canneal over three 12.8 GB/s memory systems\n");
    let mut perf = Table::new([
        "memory",
        "IPC",
        "L2 miss lat (ns)",
        "avg bus util",
        "DRAM power (W)",
    ]);
    let mut brk = Table::new([
        "memory",
        "queue (ns)",
        "bank (ns)",
        "bus (ns)",
        "static (ns)",
    ]);
    // Shared LLC of 8 MB as in the paper's case study.
    let mut cfg = SystemConfig::table2(cores, insts);
    cfg.llc.size = 8 << 20;

    // Table III: open page, 20-entry buffers.
    let (policy, mapping) = (PagePolicy::Open, AddrMapping::RoRaBaCoCh);
    for (name, spec, channels) in memories {
        let mut w = wiring(spec.clone(), Model::Event, policy, mapping, channels);
        (w.ctrl.read_buffer_size, w.ctrl.write_buffer_size) = (20, 20);
        let mem = w.build().expect("valid wiring");
        let mut sys = System::new(cfg.clone(), mem, &vec![workload::canneal(); cores], 42)
            .expect("valid system");
        let r = sys.run();
        let power = {
            let act = sys.controller_mut().activity(r.duration);
            micron_power(&spec, &act).total_mw() / 1_000.0 * f64::from(channels)
        };
        perf.row([
            name.to_string(),
            f3(r.ipc),
            f1(tick::to_ns(r.llc_miss_lat.mean() as u64)),
            f3(r.dram.bus_utilisation(r.duration) / f64::from(channels)),
            f3(power),
        ]);

        // Latency breakdown, averaged over channels (weighted by bursts).
        let (mut q, mut b, mut total_bursts) = (0.0, 0.0, 0u64);
        for s in sys.controller().event_channels().map(|c| c.stats()) {
            let n = s.rd_bursts;
            q += s.queue_lat.mean() * n as f64;
            b += s.bank_lat.mean() * n as f64;
            total_bursts += n;
        }
        let n = total_bursts.max(1) as f64;
        brk.row([
            name.to_string(),
            f1(tick::to_ns((q / n) as u64)),
            f1(tick::to_ns((b / n) as u64)),
            f1(tick::to_ns(spec.timing.t_burst)),
            "0.0".to_string(), // front/backend latencies are zero here
        ]);
    }
    perf.print();
    println!("\nRead latency breakdown inside the controller:\n");
    brk.print();
}
