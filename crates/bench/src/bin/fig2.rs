//! Figure 2 — the modelling-technique illustration, made quantitative.
//!
//! The paper's Figure 2 contrasts cycle-based models (which execute every
//! clock cycle) with event-based models (which "only execute when
//! something changes, and thus skip ahead to the next event"). This
//! binary counts both models' units of work on identical workloads: the
//! ratio of cycles ticked to events processed is the work the event
//! model never does.

use dramctrl::PagePolicy;
use dramctrl_bench::{f1, simulate, wiring, Table};
use dramctrl_campaign::Model;
use dramctrl_mem::{presets, AddrMapping};
use dramctrl_traffic::{LinearGen, RandomGen, SnapGen, Tester};

fn main() {
    println!("Figure 2 (quantified): events processed vs cycles simulated\n");
    let t = Tester::new(100_000, 1_000);
    let n = 50_000u64;
    let mut table = Table::new([
        "workload",
        "requests",
        "event-model events",
        "cycle-model cycles",
        "work ratio",
    ]);
    type GenFactory = Box<dyn Fn() -> Box<dyn SnapGen>>;
    let workloads: Vec<(&str, GenFactory)> = vec![
        (
            "linear, saturating",
            Box::new(move || Box::new(LinearGen::new(0, 256 << 20, 64, 100, 0, n, 1))),
        ),
        (
            "random, saturating",
            Box::new(move || Box::new(RandomGen::new(0, 256 << 20, 64, 67, 0, n, 2))),
        ),
        (
            "linear, 1 req / 100 ns",
            Box::new(move || Box::new(LinearGen::new(0, 256 << 20, 64, 100, 100_000, n, 3))),
        ),
    ];
    for (name, mk) in &workloads {
        let work = [
            (Model::Event, "events_processed"),
            (Model::Cycle, "cycles_simulated"),
        ];
        let [events, cycles] = work.map(|(model, unit)| {
            let (policy, mapping) = (PagePolicy::Open, AddrMapping::RoRaBaCoCh);
            let w = wiring(presets::ddr3_1333_x64(), model, policy, mapping, 1);
            simulate(w, mk(), &t).report().get(unit).expect("counted") as u64
        });
        table.row([
            name.to_string(),
            n.to_string(),
            events.to_string(),
            cycles.to_string(),
            format!("{}x", f1(cycles as f64 / events as f64)),
        ]);
    }
    table.print();
    println!("\n(The event model does a constant ~2 events per request, independent of");
    println!(" simulated time. Our cycle baseline charitably skips fully idle spans —");
    println!(" DRAMSim2 would tick through them, inflating the third row ~50x. The");
    println!(" wall-clock speedups in `speed` exceed these unit ratios because each");
    println!(" cycle also walks every bank state machine.)");
}
