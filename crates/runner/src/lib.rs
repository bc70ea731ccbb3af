//! The canonical job runner shared by the `sweep` CLI, the `serve`
//! daemon, the figure binaries and the benchmark: one place where a
//! declarative [`JobSpec`](dramctrl_campaign::JobSpec) becomes a running
//! simulation. See [`run_job`] and [`JobRun`].

#![warn(missing_docs)]

mod checkpoint;
mod runner;

pub use checkpoint::{restore_checkpoint, save_checkpoint};
pub use runner::{
    cy_cfg, cy_ctrl_with, ev_cfg, ev_ctrl_with, gen_for_job, job_fingerprint, job_metrics,
    ras_for_job, release_idle_cache, run_job, run_job_observed, run_job_resumable, std_tester,
    JobArtifacts, JobRun, SliceOutcome, JOB_TICK_BUDGET,
};
