//! The heap a journaled campaign holds: one copy of each result.
//!
//! A counting global allocator tracks the live heap of this binary (its
//! one test runs alone, so nothing else allocates meanwhile). A
//! journaled campaign of a few thousand jobs, whose stub runner records
//! ten metrics a job, must peak within a small multiple of its report's
//! bytes — the report's lines are the only per-job data kept — and its
//! journal must hold nothing per job but a committed bit.

use dramctrl_campaign::{
    run_campaign_journaled, Campaign, CampaignJournal, ExecutorConfig, JobMetrics, JobSpec,
};
use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicUsize, Ordering};

/// The system allocator, counting live bytes and their peak.
struct Counting;

static LIVE: AtomicUsize = AtomicUsize::new(0);
static PEAK: AtomicUsize = AtomicUsize::new(0);

fn grew(bytes: usize) {
    let live = LIVE.fetch_add(bytes, Ordering::Relaxed) + bytes;
    PEAK.fetch_max(live, Ordering::Relaxed);
}

unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        let p = System.alloc(layout);
        if !p.is_null() {
            grew(layout.size());
        }
        p
    }

    unsafe fn dealloc(&self, p: *mut u8, layout: Layout) {
        System.dealloc(p, layout);
        LIVE.fetch_sub(layout.size(), Ordering::Relaxed);
    }

    unsafe fn realloc(&self, p: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        let q = System.realloc(p, layout, new_size);
        if !q.is_null() {
            if new_size >= layout.size() {
                grew(new_size - layout.size());
            } else {
                LIVE.fetch_sub(layout.size() - new_size, Ordering::Relaxed);
            }
        }
        q
    }
}

#[global_allocator]
static COUNTING: Counting = Counting;

/// Ten metrics a job, under literal names, like the real runner's, and
/// a few tens of microseconds a job, like a small simulated one: the
/// collector keeps up with the workers, as it does in a real sweep, so
/// finished outcomes do not queue up unrendered.
fn stub_runner(job: &JobSpec) -> JobMetrics {
    std::thread::sleep(std::time::Duration::from_micros(20));
    let x = (job.seed >> 11) as f64 / (1u64 << 53) as f64;
    JobMetrics::new()
        .with("activates", job.requests as f64)
        .with("avg_read_lat_ns", 40.0 + 30.0 * x)
        .with("bandwidth_gbps", 12.8 * x)
        .with("bus_util", x)
        .with("dropped", 0.0)
        .with("duration_ticks", (job.seed % 1_000_000) as f64)
        .with("p95_read_lat_ns", 90.0 + x)
        .with("reads", f64::from(job.read_pct))
        .with("row_hit_rate", 1.0 - x)
        .with("writes", f64::from(100 - job.read_pct))
}

#[test]
fn a_journaled_campaign_keeps_one_copy_of_each_result() {
    // 100 x 40 = 4 000 jobs.
    let c = Campaign::new("footprint", 3)
        .read_pcts(0..100)
        .requests(1..=40);
    let dir = std::env::temp_dir().join(format!("dramctrl-footprint-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    let cfg = ExecutorConfig::default().with_workers(2);

    let mut journal = CampaignJournal::create(dir.join("j.jsonl"), &c).unwrap();
    let before = LIVE.load(Ordering::Relaxed);
    PEAK.store(before, Ordering::Relaxed);
    let report = run_campaign_journaled(&c, &cfg, &mut journal, stub_runner);
    let peak = PEAK.load(Ordering::Relaxed) - before;

    let with_journal = LIVE.load(Ordering::Relaxed);
    drop(journal);
    let journal_bytes = with_journal - LIVE.load(Ordering::Relaxed);

    assert_eq!(report.failed(), 0);
    let report_bytes = report.to_jsonl().len();
    let jobs = c.len();
    assert_eq!(jobs, 4_000);
    println!(
        "{jobs} jobs: report {report_bytes} B, peak live heap {peak} B ({:.2}x), journal {journal_bytes} B",
        peak as f64 / report_bytes as f64
    );
    // The report's line buffer is sized once, to a power of two above
    // its estimate (up to ~2.25x the bytes); the job table, the batch
    // buffers and the threads are the rest. A typed copy of each outcome
    // (a ten-metric `JobMetrics` is a 320-byte vector) on top of the
    // line would pass 4x.
    assert!(
        peak < 3 * report_bytes,
        "peak live heap {peak} B is {:.2}x the {report_bytes} report bytes",
        peak as f64 / report_bytes as f64
    );
    // A committed bit per job, the path and the campaign: well under a
    // byte per job.
    assert!(
        journal_bytes < jobs,
        "the journal of {jobs} jobs holds {journal_bytes} B"
    );
    let _ = std::fs::remove_dir_all(&dir);
}
