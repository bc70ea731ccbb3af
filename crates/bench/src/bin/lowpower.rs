//! Extension study — the precharge power-down states the paper lists as
//! future work (Section II-G), exercised with duty-cycled traffic.
//!
//! A bursty workload (active windows separated by idle gaps) runs over
//! DDR3 and LPDDR3 with power-down disabled and enabled. Expected: at low
//! duty cycles power-down slashes background power (IDD2P vs IDD2N) for a
//! tiny latency tax (tXP on the first access of each window); at high
//! duty cycles it never engages and costs nothing.

use dramctrl_bench::{f1, f3, simulate, Table};
use dramctrl_campaign::Model;
use dramctrl_mem::{presets, MemSpec};
use dramctrl_power::micron_power;
use dramctrl_runner::Wiring;
use dramctrl_traffic::{BurstyGen, LinearGen, Tester};

fn run(spec: &MemSpec, duty_pct: u64, powerdown: bool) -> (f64, f64, f64) {
    let window = 10_000_000u64; // 10 us macro-period
    let on = (window * duty_pct / 100).max(100_000);
    let off = window - on;
    // Inner stream: one 64 B access every 100 ns while "on".
    let n = 2_000;
    let inner = LinearGen::new(0, 64 << 20, 64, 80, 100_000, n, 1);
    let gen = BurstyGen::new(inner, on, off);

    let mut w = Wiring::new(spec.clone(), Model::Event);
    w.ctrl.powerdown_idle = if powerdown { 500_000 } else { 0 }; // 500 ns
    let mut run = simulate(w, Box::new(gen), &Tester::new(10_000, 500));
    let act = run.activity();
    let power = micron_power(spec, &act);
    (
        power.total_mw(),
        run.summary.read_lat_ns.mean(),
        act.powered_down_fraction(),
    )
}

fn main() {
    println!("Low-power extension: duty-cycled traffic, 500 ns power-down threshold\n");
    for spec in [presets::ddr3_1600_x64(), presets::lpddr3_1600_x32()] {
        println!("{}:", spec.name);
        let mut t = Table::new([
            "duty %",
            "power off-PD (mW)",
            "power on-PD (mW)",
            "saved",
            "lat off (ns)",
            "lat on (ns)",
            "PD fraction",
        ]);
        for duty in [1u64, 5, 20, 50, 100] {
            let (p_off, l_off, _) = run(&spec, duty, false);
            let (p_on, l_on, frac) = run(&spec, duty, true);
            t.row([
                duty.to_string(),
                f1(p_off),
                f1(p_on),
                format!("{:.0}%", (1.0 - p_on / p_off) * 100.0),
                f1(l_off),
                f1(l_on),
                f3(frac),
            ]);
        }
        t.print();
        println!();
    }
}
