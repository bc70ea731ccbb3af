//! Checkpoint/restore equivalence gate: a job paused at a checkpoint and
//! resumed — even in a different process, as the CLI tests do — must
//! produce metrics byte-identical to an uninterrupted run, across the
//! model × channels × scheduler × RAS matrix. Periodic snapshots taken
//! mid-run must never perturb the simulation.

use dramctrl::SchedPolicy;
use dramctrl_campaign::{Campaign, JobSpec, Model};
use dramctrl_runner::{job_fingerprint, run_job, JobRun};
use std::path::PathBuf;

fn tmp(name: &str) -> PathBuf {
    let d = std::env::temp_dir().join(format!("dramctrl-ckpt-eq-{}", std::process::id()));
    std::fs::create_dir_all(&d).unwrap();
    d.join(name)
}

/// Event/cycle × single/multi-channel × both schedulers × RAS on/off.
fn matrix() -> Vec<JobSpec> {
    Campaign::new("ckpt-equiv", 19)
        .models([Model::Event, Model::Cycle])
        .channels([1, 2])
        .scheds([SchedPolicy::Fcfs, SchedPolicy::FrFcfs])
        .error_rates([0.0, 2e11])
        .requests([300])
        .expand()
}

/// Metrics as an exact, order-stable string (f64 `Debug` is shortest
/// round-trip, so equal strings mean bit-equal values).
fn exact(m: &dramctrl_campaign::JobMetrics) -> String {
    format!("{m:?}")
}

#[test]
fn periodic_checkpoints_do_not_perturb_the_run() {
    for job in matrix() {
        let baseline = run_job(&job);
        let p = tmp(&format!("periodic-{}.snap", job.index));
        let _ = std::fs::remove_file(&p);
        let (ckpted, _) = JobRun::start(&job, 0)
            .run_resumable(Some(&p), 50, None)
            .expect("unpaused run completes");
        assert_eq!(
            exact(&baseline),
            exact(&ckpted),
            "job {} ({job:?}) diverged under periodic checkpointing",
            job.index
        );
        // Snapshots were actually written along the way.
        assert!(p.exists(), "job {} wrote no checkpoint", job.index);
        std::fs::remove_file(&p).unwrap();
    }
}

#[test]
fn pause_and_resume_matches_uninterrupted_run() {
    for job in matrix() {
        let baseline = run_job(&job);
        let p = tmp(&format!("pause-{}.snap", job.index));
        let _ = std::fs::remove_file(&p);
        // Pause mid-run: the job stops at the first request boundary past
        // 150 injections and persists its full state.
        assert!(
            JobRun::start(&job, 0)
                .run_resumable(Some(&p), 0, Some(150))
                .is_none(),
            "job {} did not pause",
            job.index
        );
        assert!(p.exists());
        // Resume from the snapshot and run to completion.
        let (resumed, _) = JobRun::start(&job, 0)
            .run_resumable(Some(&p), 0, None)
            .expect("resumed run completes");
        assert_eq!(
            exact(&baseline),
            exact(&resumed),
            "job {} ({job:?}) diverged after pause/resume",
            job.index
        );
        std::fs::remove_file(&p).unwrap();
    }
}

#[test]
fn checkpoint_of_one_job_refuses_to_restore_another() {
    let jobs = matrix();
    let (a, b) = (&jobs[0], &jobs[1]);
    assert_ne!(job_fingerprint(a), job_fingerprint(b));
    let p = tmp("mismatch.snap");
    let _ = std::fs::remove_file(&p);
    assert!(JobRun::start(a, 0)
        .run_resumable(Some(&p), 0, Some(100))
        .is_none());
    // Restoring job A's snapshot into job B's configuration must fail
    // loudly, never silently produce a hybrid simulation.
    let err = std::panic::catch_unwind(|| JobRun::start(b, 0).run_resumable(Some(&p), 0, None));
    assert!(err.is_err(), "fingerprint mismatch was not rejected");
    std::fs::remove_file(&p).unwrap();
}

/// Snapshot formats did not change when the crossbar became event-driven,
/// the tester's outstanding-request table a hash map and the controller's
/// retry event boxed: a checkpoint written by the commit before all
/// three (PR 12, `18e2c35`) restores here and finishes byte-identically.
///
/// The fixture is what that commit's `run_job_resumable(job, path, 0,
/// Some(125))`, an unobserved `JobRun::run_resumable`, wrote for matrix
/// job 7 (event model, FR-FCFS, two channels behind the crossbar, RAS at
/// 2e11): a pause point chosen, by instrumenting `Ev::save` there, so
/// that a link-error `Retry` event is pending in a channel's event queue,
/// next to ~50 outstanding ids in the tester.
#[test]
fn a_checkpoint_written_by_the_previous_commit_resumes_byte_identically() {
    const FIXTURE: &[u8] = include_bytes!("fixtures/pr12_event_2ch_ras_retry_pending.snap");
    let job = matrix().into_iter().nth(7).expect("matrix has 16 jobs");
    assert_eq!(
        format!("{job:?}"),
        "JobSpec { index: 7, device: \"DDR3-1333-x64\", model: Event, policy: Open, \
         sched: FrFcfs, mapping: RoRaBaCoCh, channels: 2, traffic: Linear { range: 268435456, \
         block: 64 }, read_pct: 100, requests: 300, error_rate: 200000000000.0, \
         seed: 10507770595773694144 }",
        "the fixture belongs to this job"
    );
    let p = tmp("cross-version.snap");
    std::fs::write(&p, FIXTURE).unwrap();
    let (resumed, _) = JobRun::start(&job, 0)
        .run_resumable(Some(&p), 0, None)
        .expect("resumed run completes");
    assert_eq!(exact(&run_job(&job)), exact(&resumed));

    // And this commit writes the very same bytes at the same pause point.
    let _ = std::fs::remove_file(&p);
    assert!(JobRun::start(&job, 0)
        .run_resumable(Some(&p), 0, Some(125))
        .is_none());
    assert!(
        std::fs::read(&p).unwrap() == FIXTURE,
        "snapshot bytes changed"
    );
    std::fs::remove_file(&p).unwrap();
}
