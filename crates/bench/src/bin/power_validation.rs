//! Section III-C3 — power correlation between the two controller models.
//!
//! Both models feed the same Micron TN-41-01 power model with their own
//! activity statistics; the paper reports an average difference of ~3%
//! and a maximum of ~8% across all synthetic test cases.

use dramctrl::PagePolicy;
use dramctrl_bench::{f1, f3, simulate, wiring, Table};
use dramctrl_campaign::Model;
use dramctrl_mem::{presets, AddrMapping};
use dramctrl_power::micron_power;
use dramctrl_traffic::{DramAwareGen, Tester};

fn main() {
    let spec = presets::ddr3_1333_x64();
    let cases: Vec<(u64, u32, u8, bool)> = vec![
        (1, 1, 100, true),
        (4, 2, 100, true),
        (16, 4, 100, true),
        (128, 8, 100, true),
        (16, 4, 50, true),
        (128, 8, 50, true),
        (1, 4, 0, true),
        (1, 1, 100, false),
        (4, 4, 100, false),
        (1, 8, 0, false),
        (16, 8, 50, false),
        (128, 8, 0, false),
    ];
    let t = Tester::new(100_000, 1_000);
    let mut table = Table::new([
        "stride", "banks", "read %", "page", "event mW", "cycle mW", "diff",
    ]);
    let mut max_diff: f64 = 0.0;
    let mut sum = 0.0;
    for &(stride, banks, rd, open) in &cases {
        let (policy, mapping) = if open {
            (PagePolicy::Open, AddrMapping::RoRaBaCoCh)
        } else {
            (PagePolicy::Closed, AddrMapping::RoCoRaBaCh)
        };
        let [ep, cp] = [Model::Event, Model::Cycle].map(|model| {
            let gen = DramAwareGen::new(spec.org, mapping, 1, 0, stride, banks, rd, 0, 10_000, 11);
            let w = wiring(spec.clone(), model, policy, mapping, 1);
            let mut run = simulate(w, Box::new(gen), &t);
            micron_power(&spec, &run.activity()).total_mw()
        });
        let diff = (ep - cp).abs() / cp;
        max_diff = max_diff.max(diff);
        sum += diff;
        table.row([
            stride.to_string(),
            banks.to_string(),
            rd.to_string(),
            if open { "open" } else { "closed" }.to_string(),
            f1(ep),
            f1(cp),
            format!("{:.1}%", diff * 100.0),
        ]);
    }
    println!("Power correlation (Section III-C3) — DDR3-1333, Micron model\n");
    table.print();
    println!(
        "\naverage difference: {}%, maximum: {}% (paper: ~3% avg, ~8% max)",
        f3(sum / cases.len() as f64 * 100.0),
        f3(max_diff * 100.0)
    );
}
