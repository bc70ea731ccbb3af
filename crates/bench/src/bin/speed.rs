//! Section III-D — model performance: wall-clock speed of the event-based
//! model vs the cycle-based baseline on identical synthetic workloads.
//!
//! The paper reports 7x faster on average and up to 10x across synthetic
//! traffic, and an order of magnitude for a 16-channel (HMC-like) memory.
//! Absolute times are host-dependent; the *ratio* is the result. The
//! benchmark harness (`benchmark/run.sh`, `cycle.event_over_cycle`)
//! tracks the same quantity with its own calibration and bounds.

use dramctrl::PagePolicy;
use dramctrl_bench::{f1, simulate, timed, wiring, Table};
use dramctrl_campaign::Model;
use dramctrl_mem::{presets, AddrMapping, MemSpec};
use dramctrl_traffic::{DramAwareGen, LinearGen, RandomGen, SnapGen, Tester};

/// Default request count per workload; override with `--requests <n>`.
const N: u64 = 200_000;

type GenFactory = Box<dyn Fn() -> Box<dyn SnapGen>>;

/// A workload and the device, channel count, page policy and mapping it
/// runs on.
type Workload = (
    &'static str,
    GenFactory,
    MemSpec,
    u32,
    PagePolicy,
    AddrMapping,
);

fn workloads(n: u64) -> Vec<Workload> {
    let ddr3 = presets::ddr3_1333_x64;
    vec![
        (
            "linear reads",
            Box::new(move || Box::new(LinearGen::new(0, 256 << 20, 64, 100, 0, n, 1))),
            ddr3(),
            1,
            PagePolicy::Open,
            AddrMapping::RoRaBaCoCh,
        ),
        (
            "random mixed",
            Box::new(move || Box::new(RandomGen::new(0, 256 << 20, 64, 67, 0, n, 2))),
            ddr3(),
            1,
            PagePolicy::Open,
            AddrMapping::RoRaBaCoCh,
        ),
        (
            "dram-aware 8-bank",
            Box::new(move || {
                let m = AddrMapping::RoCoRaBaCh;
                Box::new(DramAwareGen::new(ddr3().org, m, 1, 0, 4, 8, 50, 0, n, 3))
            }),
            ddr3(),
            1,
            PagePolicy::Closed,
            AddrMapping::RoCoRaBaCh,
        ),
        // 16-channel HMC-like configuration (Section III-D's closing claim).
        (
            "16-channel HMC-like",
            Box::new(move || Box::new(LinearGen::new(0, 1 << 30, 64, 67, 0, n, 4))),
            presets::hbm_1000_x128(),
            16,
            PagePolicy::Open,
            AddrMapping::RoRaBaCoCh,
        ),
    ]
}

fn main() {
    let mut n = N;
    let mut args = std::env::args().skip(1);
    while let Some(a) = args.next() {
        match a.as_str() {
            "--requests" => {
                n = args
                    .next()
                    .expect("--requests needs a value")
                    .parse()
                    .expect("--requests takes a number");
            }
            other => panic!("unknown argument {other:?}"),
        }
    }
    println!("Model performance (Section III-D) — {n} requests per workload\n");
    let t = Tester::new(100_000, 1_000);
    let mut table = Table::new(["workload", "event s", "cycle s", "speedup"]);
    let mut speedups = Vec::new();
    for (name, mk_gen, spec, channels, policy, mapping) in workloads(n) {
        let [ev_s, cy_s] = [Model::Event, Model::Cycle].map(|model| {
            let w = wiring(spec.clone(), model, policy, mapping, channels);
            timed(|| simulate(w, mk_gen(), &t)).1
        });
        speedups.push(cy_s / ev_s);
        table.row([
            name.to_string(),
            format!("{ev_s:.3}"),
            format!("{cy_s:.3}"),
            format!("{:.1}x", cy_s / ev_s),
        ]);
    }
    table.print();
    let avg = speedups.iter().sum::<f64>() / speedups.len() as f64;
    let max = speedups.iter().cloned().fold(0.0f64, f64::max);
    println!(
        "\naverage speedup {}x, max {}x (paper: ~7x average, ~10x max, >10x for 16-channel)",
        f1(avg),
        f1(max)
    );
}
