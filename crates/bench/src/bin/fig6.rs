//! Figure 6 — read-latency distribution for linear read-only traffic
//! under an open-page policy (paper Section III-C2).
//!
//! Expected shape: a tight, unimodal distribution for both models, with
//! closely matching means (latency measured from the traffic generator,
//! including on-chip queueing).

use dramctrl::PagePolicy;
use dramctrl_bench::{f1, simulate, wiring, Table};
use dramctrl_campaign::Model;
use dramctrl_mem::{presets, AddrMapping};
use dramctrl_traffic::{LinearGen, Tester};

fn main() {
    let spec = presets::ddr3_1333_x64();
    let m = AddrMapping::RoRaBaCoCh;
    let mk_gen = || LinearGen::new(0, 64 << 20, 64, 100, 10_000, 20_000, 3);
    let t = Tester::new(1_000, 50); // 20 ns buckets

    let [ev, cy] = [Model::Event, Model::Cycle].map(|model| {
        let w = wiring(spec.clone(), model, PagePolicy::Open, m, 1);
        simulate(w, Box::new(mk_gen()), &t).summary
    });

    println!("Figure 6: read latency distribution — linear reads, open page\n");
    let mut table = Table::new(["latency bucket (ns)", "event count", "cycle count"]);
    for ((lo, hi, e), (_, _, c)) in ev.read_lat_ns.iter().zip(cy.read_lat_ns.iter()) {
        if e > 0 || c > 0 {
            table.row([format!("[{lo:4}, {hi:4})"), e.to_string(), c.to_string()]);
        }
    }
    table.row([
        "overflow".to_string(),
        ev.read_lat_ns.overflow().to_string(),
        cy.read_lat_ns.overflow().to_string(),
    ]);
    table.print();
    println!(
        "\nmean: event {} ns, cycle {} ns; stddev: event {} ns, cycle {} ns",
        f1(ev.read_lat_ns.mean()),
        f1(cy.read_lat_ns.mean()),
        f1(ev.read_lat_ns.stddev()),
        f1(cy.read_lat_ns.stddev()),
    );
}
