//! Figure 7 — read-latency distribution for linear 1:1 read/write traffic
//! under a closed-page policy (paper Section III-C2).
//!
//! Expected shape: the event-based model's write-drain scheme splits reads
//! into two populations — serviced immediately, or stalled behind a drain
//! episode — producing the paper's bimodal distribution. The cycle-based
//! baseline interleaves reads and writes, spreading the cost as bus
//! turnarounds instead (higher mean, different shape).

use dramctrl::PagePolicy;
use dramctrl_bench::{f1, simulate, wiring, Table};
use dramctrl_campaign::Model;
use dramctrl_mem::{presets, AddrMapping};
use dramctrl_traffic::{LinearGen, Tester};

fn main() {
    let spec = presets::ddr3_1333_x64();
    let m = AddrMapping::RoCoRaBaCh;
    let mk_gen = || LinearGen::new(0, 64 << 20, 64, 50, 10_000, 20_000, 3);
    let t = Tester::new(2_000, 100); // 20 ns buckets

    let [ev, cy] = [Model::Event, Model::Cycle].map(|model| {
        let w = wiring(spec.clone(), model, PagePolicy::Closed, m, 1);
        simulate(w, Box::new(mk_gen()), &t).summary
    });

    println!("Figure 7: read latency distribution — linear 1:1 mix, closed page\n");
    let mut table = Table::new(["latency bucket (ns)", "event count", "cycle count"]);
    for ((lo, hi, e), (_, _, c)) in ev.read_lat_ns.iter().zip(cy.read_lat_ns.iter()) {
        if e > 0 || c > 0 {
            table.row([format!("[{lo:4}, {hi:4})"), e.to_string(), c.to_string()]);
        }
    }
    table.print();
    let (e10, e90) = (
        ev.read_lat_ns.quantile(0.1).unwrap(),
        ev.read_lat_ns.quantile(0.9).unwrap(),
    );
    println!(
        "\nmean: event {} ns, cycle {} ns",
        f1(ev.read_lat_ns.mean()),
        f1(cy.read_lat_ns.mean()),
    );
    println!("event model spread (write drain): p10 = {e10} ns, p90 = {e90} ns");
}
