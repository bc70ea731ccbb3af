//! The canonical runner shared by the `dramctrl` CLI (`run`, `replay`,
//! `sweep`), the `serve` daemon, the figure binaries and the benchmark:
//! the one place a simulation is wired. See [`SimRun`], its `JobSpec`
//! front [`JobRun`], and [`run_job`].

#![warn(missing_docs)]

mod runner;

pub use runner::{
    cy_cfg, gen_for_job, job_fingerprint, job_metrics, ras_for_job, release_idle_cache, run_job,
    run_job_observed, run_job_resumable, std_tester, Finished, JobArtifacts, JobRun, SimRun,
    SliceOutcome, Wiring, JOB_TICK_BUDGET,
};
