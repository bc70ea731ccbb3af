//! Trace workflow: record a trace from one run, write it to disk in the
//! text format, then replay it against two different controller
//! configurations — the classic "what if" exploration loop.
//!
//! (The paper cautions that traces cannot capture feedback loops — Section
//! I — which is why the closed-loop `System` exists; traces remain useful
//! for controller-local what-if studies like this one.)
//!
//! ```text
//! cargo run --release -p dramctrl-runner --example trace_replay
//! ```

use dramctrl::PagePolicy;
use dramctrl_campaign::Model;
use dramctrl_mem::{presets, AddrMapping, MemCmd};
use dramctrl_runner::{SimRun, Wiring};
use dramctrl_traffic::{DramAwareGen, Tester, TraceEntry, TraceGen, TrafficGen};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    // 1. Generate a bursty DRAM-aware access pattern and record it.
    let spec = presets::ddr3_1600_x64();
    let mut gen = DramAwareGen::new(
        spec.org,
        AddrMapping::RoRaBaCoCh,
        1,
        0,
        8,
        4,
        70,
        8_000,
        20_000,
        21,
    );
    let mut entries = Vec::new();
    while let Some((tick, req)) = gen.next_request() {
        entries.push(TraceEntry {
            tick,
            cmd: req.cmd,
            addr: req.addr,
            size: req.size,
        });
    }
    let path = std::env::temp_dir().join("dramctrl_example.trace");
    std::fs::write(&path, TraceGen::to_text(&entries))?;
    println!(
        "recorded {} requests to {}\n",
        entries.len(),
        path.display()
    );

    // 2. Replay against two page policies.
    for policy in [PagePolicy::Open, PagePolicy::Closed] {
        let trace: TraceGen = std::fs::read_to_string(&path)?.parse()?;
        let mut wiring = Wiring::new(spec.clone(), Model::Event);
        wiring.ctrl.page_policy = policy;
        let mut run = SimRun::start(wiring, Box::new(trace), &Tester::new(5_000, 250), 0)?;
        let s = run.advance(None).expect("an unpaused run finishes").summary;
        println!(
            "{policy:>16}: bus {:>5.1}%  read mean {:>6.1} ns  p95 {:>5} ns  row hits {:.1}%",
            s.bus_util * 100.0,
            s.read_lat_ns.mean(),
            s.read_lat_ns.quantile(0.95).unwrap_or(0),
            s.ctrl.page_hit_rate() * 100.0,
        );
    }

    // 3. Sanity: the trace file round-trips.
    let parsed: TraceGen = std::fs::read_to_string(&path)?.parse()?;
    assert_eq!(parsed.len(), entries.len());
    let reads = entries.iter().filter(|e| e.cmd == MemCmd::Read).count();
    println!(
        "\ntrace round-trip ok ({reads} reads / {} writes)",
        entries.len() - reads
    );
    Ok(())
}
