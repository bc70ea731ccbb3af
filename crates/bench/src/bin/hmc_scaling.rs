//! Section III-D's closing observation — event-model simulation speed as
//! the channel count grows from 1 to 16 (an HMC-like cube is "only a
//! matter of combining the crossbar model with 16 instances of our
//! controller"). The event model's cost grows with *traffic*, not with
//! idle channels; a cycle model pays per channel per cycle.

use dramctrl::PagePolicy;
use dramctrl_bench::{f1, simulate, timed, wiring, Table};
use dramctrl_campaign::Model;
use dramctrl_mem::{presets, AddrMapping};
use dramctrl_traffic::{LinearGen, Tester};

fn main() {
    println!("HMC-like channel scaling (HBM channels, 100k linear requests)\n");
    let mut table = Table::new([
        "channels",
        "event s",
        "cycle s",
        "speedup",
        "aggregate GB/s",
    ]);
    let t = Tester::new(100_000, 1_000);
    for n in [1u32, 2, 4, 8, 16] {
        let [(ev, ev_s), (_, cy_s)] = [Model::Event, Model::Cycle].map(|model| {
            let (policy, mapping) = (PagePolicy::Open, AddrMapping::RoRaBaCoCh);
            let w = wiring(presets::hbm_1000_x128(), model, policy, mapping, n);
            let gen = LinearGen::new(0, 1 << 30, 64, 67, 0, 100_000, 4);
            timed(|| simulate(w, Box::new(gen), &t).summary)
        });
        table.row([
            n.to_string(),
            format!("{ev_s:.3}"),
            format!("{cy_s:.3}"),
            format!("{:.1}x", cy_s / ev_s),
            f1(ev.bandwidth_gbps),
        ]);
    }
    table.print();
}
