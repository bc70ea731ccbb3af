//! Figure 8 — full-system comparison between the event-based model and
//! the cycle-based baseline on PARSEC-like workloads (paper Section IV-A).
//!
//! For each benchmark the bar is the *ratio* (cycle-based / event-based)
//! of: host simulation time, IPC, average LLC(L2) miss latency and DRAM
//! bus utilisation. Ratios near 1 mean the faster model loses no fidelity;
//! simulation-time ratios above 1 are the speed advantage. The paper saw
//! near-perfect correlation with a 13% average simulation-time reduction.

use dramctrl::PagePolicy;
use dramctrl_bench::{timed, wiring, Table};
use dramctrl_campaign::Model;
use dramctrl_mem::{presets, AddrMapping};
use dramctrl_system::{workload, System, SystemConfig};

fn main() {
    let cores = 4;
    let insts = 150_000u64;
    let warmup = 30_000u64;
    let policy = PagePolicy::Closed; // as in the paper's comparison
    let mapping = AddrMapping::RoCoRaBaCh;

    println!("Figure 8: event vs cycle model, {cores}-core PARSEC-like runs\n");
    let mut table = Table::new([
        "benchmark",
        "sim-time ratio",
        "IPC ratio",
        "L2-miss-lat ratio",
        "bus-util ratio",
    ]);
    let mut sums = [0.0f64; 4];
    let profiles = workload::parsec();
    for p in &profiles {
        let mut cfg = SystemConfig::table2(cores, insts);
        cfg.warmup_insts = warmup;
        let [(ev, ev_s), (cy, cy_s)] = [Model::Event, Model::Cycle].map(|model| {
            timed(|| {
                let w = wiring(presets::ddr3_1333_x64(), model, policy, mapping, 1);
                let mem = w.build().expect("valid wiring");
                let mut sys = System::new(cfg.clone(), mem, &vec![*p; cores], 42).unwrap();
                sys.run()
            })
        });
        let ratios = [
            cy_s / ev_s,
            cy.ipc / ev.ipc,
            cy.llc_miss_lat.mean() / ev.llc_miss_lat.mean(),
            (cy.dram.bus_utilisation(cy.roi_duration)) / (ev.dram.bus_utilisation(ev.roi_duration)),
        ];
        for (s, r) in sums.iter_mut().zip(ratios) {
            *s += r;
        }
        table.row([
            p.name.to_string(),
            format!("{:.2}", ratios[0]),
            format!("{:.3}", ratios[1]),
            format!("{:.3}", ratios[2]),
            format!("{:.3}", ratios[3]),
        ]);
    }
    let n = profiles.len() as f64;
    table.row([
        "geomean-ish (mean)".to_string(),
        format!("{:.2}", sums[0] / n),
        format!("{:.3}", sums[1] / n),
        format!("{:.3}", sums[2] / n),
        format!("{:.3}", sums[3] / n),
    ]);
    table.print();
    println!("\n(ratios of cycle-based / event-based; 1.0 = perfect correlation)");
}
