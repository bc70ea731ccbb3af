//! Seeded fuzz of the checkpoint decoders: [`SimRun::restore`] over
//! mutated copies of two pinned checkpoints — the cycle baseline's
//! (`pr38_cycle_2ch_ras.snap`) and the event model's
//! (`pr12_event_2ch_ras_retry_pending.snap`, its version bytes patched to
//! the current format as `checkpoint_equivalence.rs` does). Both are
//! two-channel RAS runs, so the tester, the generator, the crossbar, both
//! controllers, their queues, burst-group arenas, protocol or bank state
//! and fault models all sit under the mutator.
//!
//! The property: for any bytes, restore returns `Ok` or `Err` — it never
//! panics. Each mutation is seeded on its own, and every assert names the
//! seed that reproduces it with [`Rng::mutate`].

use dramctrl::SchedPolicy;
use dramctrl_campaign::{Campaign, JobSpec, Model};
use dramctrl_kernel::rng::Rng;
use dramctrl_kernel::snap::SNAP_VERSION;
use dramctrl_runner::{gen_for_job, job_fingerprint, std_tester, SimRun, Wiring};
use std::panic::{catch_unwind, AssertUnwindSafe};

const SEED: u64 = 0x5A4F_F022;
const MUTATIONS: u64 = 3_000;

/// Job `index` of the matrix the fixtures were written for: event/cycle
/// × one/two channels × both schedulers × RAS off/on, 300 requests.
fn job(index: usize) -> JobSpec {
    Campaign::new("ckpt-equiv", 19)
        .models([Model::Event, Model::Cycle])
        .channels([1, 2])
        .scheds([SchedPolicy::Fcfs, SchedPolicy::FrFcfs])
        .error_rates([0.0, 2e11])
        .requests([300])
        .expand()
        .swap_remove(index)
}

/// A fresh, unobserved run of `job`, ready to restore into.
fn fresh(job: &JobSpec) -> SimRun {
    let wiring = Wiring::for_job(job);
    let gen = gen_for_job(job, &wiring.ctrl.spec);
    SimRun::start(wiring, gen, &std_tester(), 0).expect("valid configuration")
}

/// Restores `MUTATIONS` mutated copies of `snapshot` into fresh runs of
/// `job`; returns how many were refused.
fn fuzz(job: &JobSpec, snapshot: &[u8]) -> u64 {
    let fp = job_fingerprint(job);
    fresh(job)
        .restore(snapshot, fp)
        .expect("the unmutated checkpoint restores");
    let mut refused = 0;
    for i in 0..MUTATIONS {
        let seed = SEED ^ ((job.index as u64) << 32) ^ i;
        let bytes = Rng::seed_from_u64(seed).mutate(snapshot);
        let mut run = fresh(job);
        let outcome = catch_unwind(AssertUnwindSafe(|| run.restore(&bytes, fp).is_err()));
        match outcome {
            Ok(err) => refused += u64::from(err),
            Err(_) => panic!(
                "seed {seed:#x}: restore panicked on mutated job {} checkpoint",
                job.index
            ),
        }
    }
    refused
}

#[test]
fn restoring_a_mutated_cycle_checkpoint_never_panics() {
    let job = job(15);
    assert_eq!(job.model, Model::Cycle);
    let refused = fuzz(
        &job,
        include_bytes!("../../../tests/fixtures/pr38_cycle_2ch_ras.snap"),
    );
    assert!(
        refused > MUTATIONS / 2,
        "seed {SEED:#x}: only {refused} refused"
    );
}

#[test]
fn restoring_a_mutated_event_checkpoint_never_panics() {
    let job = job(7);
    assert_eq!(job.model, Model::Event);
    let mut snapshot =
        include_bytes!("../../../tests/fixtures/pr12_event_2ch_ras_retry_pending.snap").to_vec();
    snapshot[4..8].copy_from_slice(&SNAP_VERSION.to_le_bytes());
    let refused = fuzz(&job, &snapshot);
    assert!(
        refused > MUTATIONS / 2,
        "seed {SEED:#x}: only {refused} refused"
    );
}
