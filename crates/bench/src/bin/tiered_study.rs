//! Extension study — tiered memory capacity sweep (paper Section II-F's
//! heterogeneous-memory direction).
//!
//! A 4-core canneal run over a WideIO near tier backed by LPDDR3. The
//! measured result is non-monotonic — the best configuration sizes the
//! near tier to the hot data and keeps BOTH tiers' bandwidth in play;
//! pushing everything near forfeits the far channel. The memory system is
//! swapped without touching the controller model — the controller-centric
//! flexibility the paper demonstrates in Section IV-B, extended to
//! heterogeneous tiers.

use dramctrl::PagePolicy;
use dramctrl_bench::{f1, f3, Table};
use dramctrl_campaign::Model;
use dramctrl_kernel::tick;
use dramctrl_mem::{presets, Controller};
use dramctrl_runner::Wiring;
use dramctrl_system::{workload, System, SystemConfig, TieredMemory};

fn main() {
    let cores = 4;
    let insts = 60_000;
    println!("Tiered memory: 2x WideIO near tier + LPDDR3 far tier, {cores}-core canneal\n");
    let mut table = Table::new(["near tier", "IPC", "L2 miss lat (ns)", "near share"]);
    // canneal per-core footprint is 48 MiB, rounded to 64 MiB regions:
    // 4 cores occupy 256 MiB.
    // Both tiers open-adaptive; the near one two channels wide.
    let tier = |spec, channels| {
        let mut w = Wiring::new(spec, Model::Event);
        (w.ctrl.page_policy, w.ctrl.channels) = (PagePolicy::OpenAdaptive, channels);
        w.build().expect("valid wiring")
    };
    for near_mb in [16u64, 64, 128, 256] {
        let near = tier(presets::wideio_200_x128(), 2);
        let mem = TieredMemory::new(near, tier(presets::lpddr3_1600_x32(), 1), near_mb << 20);
        let mut cfg = SystemConfig::table2(cores, insts);
        cfg.llc.size = 2 << 20;
        let mut sys = System::new(cfg, mem, &vec![workload::canneal(); cores], 42).expect("valid");
        let r = sys.run();
        let near_bursts = {
            let n = sys.controller().near().common_stats();
            n.rd_bursts + n.wr_bursts
        };
        let far_bursts = {
            let f = sys.controller().far().common_stats();
            f.rd_bursts + f.wr_bursts
        };
        table.row([
            format!("{near_mb} MiB"),
            f3(r.ipc),
            f1(tick::to_ns(r.llc_miss_lat.mean() as u64)),
            format!(
                "{:.0}%",
                near_bursts as f64 / (near_bursts + far_bursts).max(1) as f64 * 100.0
            ),
        ]);
    }
    table.print();
    println!("\n(The sweet spot SPLITS traffic across both tiers: a near tier sized");
    println!(" to the hot data wins, while an all-near placement throws away the");
    println!(" far tier's bandwidth and an all-far one queues behind one channel.)");
}
