//! Seeded fuzz of the trace text decoder: [`TraceGen`]'s parser over
//! mutated copies of a recorded trace (`pr19_record.trace`, the CLI's
//! `record` fixture).
//!
//! The property: for any text, parsing returns `Ok` or `Err` — it never
//! panics — and every request an accepted trace replays can be chopped
//! into bursts. Each mutation is seeded on its own, and every assert
//! names the seed that reproduces it with [`Rng::mutate`].

use dramctrl_kernel::rng::Rng;
use dramctrl_mem::{burst_count, chop};
use dramctrl_traffic::{TraceGen, TrafficGen};
use std::panic::{catch_unwind, AssertUnwindSafe};

const SEED: u64 = 0x7ACE_F022;
const MUTATIONS: u64 = 3_000;
const TRACE: &[u8] = include_bytes!("../../cli/tests/fixtures/pr19_record.trace");

/// Parses `text` and replays what it accepts through the burst chopper;
/// `true` if the parser refused it.
fn refused(text: &str) -> bool {
    let Ok(mut gen) = text.parse::<TraceGen>() else {
        return true;
    };
    while let Some((_, req)) = gen.next_request() {
        let n = burst_count(req.addr, req.size, 64);
        assert_eq!(chop(req.addr, req.size, 64).count(), n);
    }
    false
}

#[test]
fn parsing_a_mutated_trace_never_panics() {
    let text = std::str::from_utf8(TRACE).expect("fixture is text");
    assert!(!refused(text), "the unmutated trace parses");
    let mut refusals = 0;
    for i in 0..MUTATIONS {
        let seed = SEED ^ i;
        let bytes = Rng::seed_from_u64(seed).mutate(TRACE);
        let text = String::from_utf8_lossy(&bytes);
        match catch_unwind(AssertUnwindSafe(|| refused(&text))) {
            Ok(r) => refusals += u64::from(r),
            Err(_) => panic!("seed {seed:#x}: parsing or replaying a mutated trace panicked"),
        }
    }
    // Most mutations cut or garble a line; some leave a valid trace.
    assert!(
        refusals > 0 && refusals < MUTATIONS,
        "seed {SEED:#x}: {refusals} of {MUTATIONS} refused"
    );
}
