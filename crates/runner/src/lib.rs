//! The canonical runner shared by the `dramctrl` CLI (`run`, `replay`,
//! `sweep`), the `serve` daemon, the figure binaries, the examples and the
//! benchmark: the one place a simulation is wired. See [`SimRun`], its
//! `JobSpec` front [`JobRun`], [`run_job`], and [`Wiring::build`] for the
//! closed loop.

#![warn(missing_docs)]

mod runner;

pub use runner::{
    cy_cfg, gen_for_job, job_fingerprint, job_metrics, ras_for_job, release_idle_cache, run_job,
    run_job_observed, run_job_resumable, std_tester, Finished, JobArtifacts, JobRun, Memory,
    SimRun, SliceOutcome, Wiring, JOB_TICK_BUDGET,
};
