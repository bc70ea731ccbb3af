//! The always-up simulation daemon: admission control, a fair preemptive
//! scheduler, and crash-safe execution on top of the durable job store.
//!
//! ## Anatomy
//!
//! A pool of identical **scheduler workers** — up to
//! [`ServeConfig::workers`], one per core by default — runs all
//! simulation work, one quantum at a time each: a worker pops the next
//! job from the [`FairQueue`], picks the job's first uncommitted work
//! unit, and runs one slice of it *outside* the state lock
//! ([`JobRun::advance`] pauses at the first request boundary past the
//! quantum target). A paused unit stays **resident in memory** as a live
//! [`JobRun`] on its job's record, at most one per unfinished job, and
//! whichever worker pops the job next keeps stepping it: preemption is a
//! scheduling event, not a durability event. An observed unit
//! (`epochs > 0`) is the same [`JobRun`] with probes attached, preempted
//! at the same quantum; its artifacts come back with the metrics of its
//! last slice. A job is in the queue at most once and stays out of it
//! for the whole slice and, when the slice finishes the unit, for the
//! unit's commit, so it has **one unit in flight**: the pool runs
//! different jobs side by side, while each job's commits land in index
//! order and its journal file is byte for byte a serial run's. Workers
//! are spawned on demand — the first by [`Server::start_scheduler`],
//! another whenever a pick or a submit leaves work queued with every
//! worker busy (in a slice or in a commit) — and an idle one gives up
//! its cached controller, so a daemon serving one job at a time costs
//! one thread's memory.
//! **Connection threads** (one per client) only touch
//! state briefly — submit, watch, status — so a 10-million-request unit
//! in flight never blocks a submit, and a competing tenant waits at most
//! one quantum.
//!
//! **The state lock** — one mutex over the job table, the fair queue and
//! the degraded-mode bookkeeping — is held for bookkeeping only. An
//! unfinished job's record is the one place the scheduler keeps anything
//! about it: its paused run, whether a worker holds it, when it was
//! queued, its subscribers and an outcome the store refused. Neither
//! simulation nor a unit's commit runs under the lock: a worker releases
//! it for the slice, and again for the commit's artifact writes, journal
//! append and fsync, so a slow disk stalls the worker whose unit is
//! committing and nothing else — not the other workers' picks and
//! returns, not `submit`, `watch`, `status` or `/metrics`. Store I/O
//! still under the lock: submit's accept-log append and journal
//! creation, and a recovery attempt's accept-log repair and writability
//! probe.
//!
//! ## Durability
//!
//! Durable means **accept and commit**, nothing else, and both land
//! before they are acknowledged or broadcast:
//!
//! - submit: accept-log fsync → journal created → `accepted` sent;
//! - unit done: artifacts written atomically → journal commit (fsync) →
//!   events broadcast;
//! - preemption: nothing is written; the store's op count does not
//!   depend on the quantum.
//!
//! A unit's commit is a **journal hand-off**. Under the lock, the worker
//! takes the job's journal out of its live state; the job is not
//! requeued, so no other worker can touch it. With the lock released,
//! the worker writes the artifacts and appends and fsyncs the record.
//! It re-takes the lock, hands the journal back, and broadcasts in that
//! same lock hold — or, if the store refused, parks the outcome on the
//! job (degraded mode, below).
//!
//! `watch` replays the journal's committed units and subscribes in one
//! lock hold, and every broadcast happens under the lock too; that is
//! why its stream has no gap and no duplicate. The hand-off opens one
//! window that would break this: from the append to the hand-back, the
//! record is in the journal but not yet broadcast, so a watch that
//! replayed the journal then would get the unit twice. A watch of a job
//! whose journal is out therefore waits — on a condvar, without the
//! lock — until it is back, by which time the record has been
//! broadcast to the old subscribers and is in the journal the new one
//! replays.
//!
//! Kill the daemon at any instant and [`Server::open`] rebuilds
//! everything from the store: accepted jobs re-queue, committed units
//! are never re-run, and the unit in flight restarts from its first
//! request — a crash costs at most one unit of re-execution per job.
//! Re-execution is deterministic and the journal's keep-first dedup
//! makes the first commit canonical, so results are byte-identical to a
//! never-killed run, which is byte-identical to a standalone `dramctrl
//! sweep` of the same campaign. A finished job keeps its accept record
//! and three counters; its units, outcomes and journal handle are
//! released, and a late `watch` replays it from the journal file.
//!
//! ## Degraded mode
//!
//! A store that stops taking writes (disk full, failing fsyncs) must not
//! kill the daemon. On any store I/O error the daemon enters **degraded
//! mode**: a unit outcome whose commit was refused is parked in memory on
//! its job, which stays out of the queue; the workers stop starting new
//! slices, new submits are shed with `rejected
//! reason=store_unavailable`, `/healthz` answers 503 and the
//! `dramctrl_store_degraded` gauge reads 1 — while status, metrics and
//! in-flight `watch` streams keep serving from memory. The workers retry
//! the store with bounded exponential backoff
//! ([`STORE_BACKOFF_START`]..[`STORE_BACKOFF_MAX`]): each attempt repairs
//! the accept log (truncating torn bytes) and probes the store root. The
//! first successful attempt leaves degraded mode and then lands the
//! parked outcomes, in job-id order, through the commit path every
//! healthy unit takes; each first re-resumes its journal, cutting the
//! torn tail the refused append left. A landing the store refuses again
//! parks its outcome once more and re-enters degraded mode, on the same
//! outage's backoff schedule. No restart,
//! no lost unit, no re-simulation, and the journal bytes are exactly
//! what an unfaulted run would have written.
//!
//! ## Hostile clients
//!
//! Connections carry read/write deadlines
//! ([`ServeConfig::client_timeout`]): a client that connects and sends
//! nothing, or stops reading its stream, is evicted at the deadline.
//! Command lines are length-bounded, and each watch subscriber rides a
//! bounded outbound buffer ([`ServeConfig::subscriber_buffer`]) — a
//! consumer that falls behind a full buffer is dropped from the
//! broadcast list rather than wedging a worker.

use crate::metrics::ServeMetrics;
use crate::net::{discard_line, read_line_bounded, Listener, Stream};
use crate::proto::{
    accepted_event, campaign_from_wire, done_event, error_event, progress_event, record_event,
    rejected_event, text_event, VersionInfo,
};
use crate::sched::FairQueue;
use crate::store::{JobStore, StoredJob};
use crate::wire::{json_str, Value};
use dramctrl_campaign::{
    panic_message, Campaign, CampaignJournal, ExecutorConfig, JobOutcome, JobRecord, JobSpec,
};
use dramctrl_kernel::backoff::Backoff;
use dramctrl_kernel::fsio::write_atomic;
use dramctrl_obs::metrics::Gauge;
use dramctrl_runner::{JobArtifacts, JobRun, SliceOutcome};
use std::collections::BTreeMap;
use std::io::{self, BufReader, Write};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::PathBuf;
use std::sync::mpsc;
use std::sync::{Arc, Condvar, Mutex, MutexGuard};
use std::time::{Duration, Instant};

/// Daemon tuning knobs.
#[derive(Debug, Clone)]
pub struct ServeConfig {
    /// Root of the durable job store.
    pub store: PathBuf,
    /// Admission bound: submits are rejected while this many jobs are
    /// still unfinished.
    pub max_jobs: usize,
    /// Preemption quantum in injected requests: a work unit is paused at
    /// the first request boundary at or past this many injections since
    /// its last pause.
    pub quantum: u64,
    /// Per-connection read/write deadline. A client that sends nothing
    /// (or reads nothing) for this long is evicted; `None` disables the
    /// deadline (trusted-network mode).
    pub client_timeout: Option<Duration>,
    /// Outbound event-buffer depth per watch subscriber. A subscriber
    /// whose buffer is full when a broadcast arrives is evicted.
    pub subscriber_buffer: usize,
    /// Store garbage collection: keep at most this many finished jobs
    /// on disk, evicting the oldest (by acceptance order) beyond it at
    /// startup and on every job completion. Running and queued jobs are
    /// never touched. `None` retains everything.
    pub retain: Option<usize>,
    /// Scheduler workers — how many jobs may run at once — with
    /// [`ExecutorConfig::workers`]' meaning: `0` is the host's available
    /// parallelism, anything else that many (at least one).
    pub workers: usize,
}

impl ServeConfig {
    /// Defaults: 8 active jobs, 1 000-request quantum, 30 s client
    /// deadline, 1 024-event subscriber buffers, no GC, one worker per
    /// core.
    #[must_use]
    pub fn new(store: impl Into<PathBuf>) -> Self {
        Self {
            store: store.into(),
            max_jobs: 8,
            quantum: 1_000,
            client_timeout: Some(Duration::from_secs(30)),
            subscriber_buffer: 1024,
            retain: None,
            workers: 0,
        }
    }
}

/// Everything the daemon knows about one job.
struct JobState {
    stored: StoredJob,
    /// Units this job will actually run: the shard size for sharded
    /// jobs, the full campaign otherwise. This is the `total` clients
    /// see in `accepted`/`progress` events.
    total: usize,
    /// In-shard units committed so far, and how many of them failed.
    done: usize,
    failed: usize,
    /// The working set, dropped with the last commit: a finished job
    /// holds no units, no outcomes and no open journal.
    live: Option<LiveJob>,
}

/// What only an unfinished job needs: everything the scheduler knows
/// about the job between and during its turns.
struct LiveJob {
    /// The campaign's expanded work units.
    units: Vec<JobSpec>,
    /// The job's durable commit log; `None` while it is lent to the
    /// worker committing the job's unit with the state lock released.
    journal: Option<CampaignJournal>,
    /// The first uncommitted in-shard unit — the one to run next. Only
    /// ever moves forward, `stride` (the shard count, or 1) at a time.
    next: usize,
    stride: usize,
    /// Panicked attempts of the unit currently in flight.
    failures: u32,
    /// Absolute injection target for the current unit's next slice.
    pause_target: u64,
    /// Unit `next`, live between its slices, resumed by whichever worker
    /// picks the job next. Nothing here is durable — after a crash the
    /// unit re-runs from its first request and commits the same bytes.
    paused: Option<JobRun>,
    /// Whether a worker holds the job: in a slice of unit `next`, or in
    /// its commit.
    turn: bool,
    /// When the job entered the queue; taken at its pick, for the
    /// scheduler fairness-lag histogram.
    queued_at: Option<Instant>,
    /// Unit `next`'s outcome, computed but refused by the store: parked
    /// here, with the job out of the queue, until a store recovery
    /// attempt lands it — the simulation never re-runs.
    refused: Option<UnitDone>,
    /// Live `watch` subscribers (event lines), each behind a bounded
    /// buffer.
    subscribers: Vec<mpsc::SyncSender<String>>,
}

/// A finished unit's result, from its last slice until its commit lands.
struct UnitDone {
    outcome: JobOutcome,
    artifacts: Option<JobArtifacts>,
}

impl JobState {
    /// The job as its journal describes it: counters tallied once,
    /// working set only if units remain.
    fn new(stored: StoredJob, journal: CampaignJournal, quantum: u64) -> Self {
        // A shard is a residue class; unsharded jobs own every unit.
        let (first, stride) = stored
            .shard
            .map_or((0, 1), |(i, n)| (i as usize, n as usize));
        let total = stored.campaign.len().saturating_sub(first).div_ceil(stride);
        let mut js = Self {
            total,
            done: 0,
            failed: 0,
            live: None,
            stored,
        };
        let mine = journal.completed().iter();
        for (_, outcome) in mine.filter(|(i, _)| *i % stride == first) {
            js.done += 1;
            js.failed += usize::from(outcome.is_failed());
        }
        if !js.finished() {
            let mut live = LiveJob {
                units: js.stored.campaign.expand(),
                journal: Some(journal),
                next: first,
                stride,
                failures: 0,
                pause_target: quantum,
                paused: None,
                turn: false,
                // Every caller queues an unfinished job it builds.
                queued_at: Some(Instant::now()),
                refused: None,
                subscribers: Vec::new(),
            };
            live.skip_committed();
            js.live = Some(live);
        }
        js
    }

    fn finished(&self) -> bool {
        self.done == self.total
    }
}

impl LiveJob {
    /// The journal, for callers that know the job is not mid-commit.
    fn journal(&self) -> &CampaignJournal {
        self.journal.as_ref().expect("the journal is not lent out")
    }

    /// Moves `next` past every already-committed unit of the shard.
    fn skip_committed(&mut self) {
        while self.journal().completed().contains_key(&self.next) {
            self.next += self.stride;
        }
    }

    /// Sends `line` to every subscriber, evicting any whose bounded
    /// buffer is full: a watcher that stopped draining must not wedge
    /// the scheduler or grow memory without limit. Disconnected
    /// subscribers are pruned silently (normal hang-up).
    fn broadcast(&mut self, line: &str, m: &ServeMetrics) {
        self.subscribers
            .retain(|s| match s.try_send(line.to_owned()) {
                Ok(()) => true,
                Err(mpsc::TrySendError::Full(_)) => {
                    m.clients_evicted.inc();
                    false
                }
                Err(mpsc::TrySendError::Disconnected(_)) => false,
            });
    }
}

/// Shared daemon state.
struct State {
    store: JobStore,
    jobs: BTreeMap<String, JobState>,
    queue: FairQueue,
    /// Rejected submits per tenant (process lifetime, for status).
    rejects: BTreeMap<String, u64>,
    /// Finished jobs garbage-collected this process lifetime (the
    /// store's tombstone log holds the all-time count).
    gc_evicted: u64,
    /// Workers spawned so far: on demand, never retired.
    workers: usize,
    /// Workers holding a job right now, in a slice or in a commit.
    busy: usize,
    /// `Some` while the store is failing writes (degraded mode).
    degraded: Option<Degraded>,
}

impl State {
    /// The record of a job the queue names or a worker holds. Such a job
    /// is unfinished: only its holder can finish it, and only finished
    /// jobs are evicted.
    fn live(&mut self, id: &str) -> &mut LiveJob {
        let live = self.jobs.get_mut(id).and_then(|js| js.live.as_mut());
        live.expect("a queued or held job is unfinished")
    }
}

/// Degraded-mode bookkeeping: why, since when, and the retry schedule.
/// The outcomes the store refused wait on their jobs.
struct Degraded {
    reason: String,
    since: Instant,
    backoff: Backoff,
    next_retry: Instant,
}

/// First retry delay after entering degraded mode.
pub const STORE_BACKOFF_START: Duration = Duration::from_millis(50);
/// Retry delays double up to this cap while the store stays broken.
pub const STORE_BACKOFF_MAX: Duration = Duration::from_secs(2);

/// Longest accepted protocol command line (bytes, newline included).
const MAX_CMD_LINE: usize = 1 << 20;

struct Inner {
    cfg: ServeConfig,
    /// [`ServeConfig::workers`] resolved against the host.
    max_workers: usize,
    state: Mutex<State>,
    work: Condvar,
    /// Signalled whenever a worker hands a lent journal back; a `watch`
    /// of a job mid-commit waits on it.
    journal_back: Condvar,
    metrics: ServeMetrics,
    started: Instant,
}

/// The daemon. Cloneable handle; all state lives behind one mutex.
#[derive(Clone)]
pub struct Server {
    inner: Arc<Inner>,
}

impl Server {
    /// Opens the store at `cfg.store`, recovers every journaled job, and
    /// re-queues all unfinished work. Committed units never re-run; a
    /// unit that was in flight restarts from its first request, and
    /// checkpoint files left by older daemons are deleted unread.
    ///
    /// # Errors
    /// Store or journal I/O and corruption errors.
    pub fn open(cfg: ServeConfig) -> io::Result<Self> {
        let metrics = ServeMetrics::new();
        let (mut store, accepted) = JobStore::open(&cfg.store)?;
        let mut jobs = BTreeMap::new();
        let mut queue = FairQueue::new();
        for stored in accepted {
            let dir = store.job_dir(&stored.id);
            std::fs::create_dir_all(&dir)?;
            // Killed between accept fsync and journal creation (or mid
            // header write): the job is still fully described by the
            // accept line, so `recover` starts it from scratch.
            let jpath = dir.join("journal.jsonl");
            let journal = CampaignJournal::recover(&jpath, &stored.campaign).map_err(|e| {
                io::Error::new(
                    io::ErrorKind::InvalidData,
                    format!("recovering journal for {}: {e}", stored.id),
                )
            })?;
            JobStore::remove_stale_snaps(&dir);
            let js = JobState::new(stored, journal, cfg.quantum);
            if !js.finished() {
                queue.push(&js.stored.tenant, js.stored.id.clone());
            }
            jobs.insert(js.stored.id.clone(), js);
        }
        // Startup GC: a store that accumulated finished jobs while the
        // retention limit was lower (or unset) is trimmed before the
        // daemon takes traffic.
        let mut gc_evicted = 0;
        if let Some(retain) = cfg.retain {
            gc_evicted = gc_finished(&mut store, &mut jobs, retain, &metrics);
        }
        for (tenant, depth) in queue.tenant_depths() {
            metrics.tenant_queue_depth(&tenant).set(depth as f64);
        }
        let max_workers = ExecutorConfig::default()
            .with_workers(cfg.workers)
            .effective_workers(usize::MAX);
        Ok(Self {
            inner: Arc::new(Inner {
                cfg,
                max_workers,
                state: Mutex::new(State {
                    store,
                    jobs,
                    queue,
                    rejects: BTreeMap::new(),
                    gc_evicted,
                    workers: 0,
                    busy: 0,
                    degraded: None,
                }),
                work: Condvar::new(),
                journal_back: Condvar::new(),
                metrics,
                started: Instant::now(),
            }),
        })
    }

    /// The daemon's metric handles (shared registry behind `/metrics`).
    #[must_use]
    pub fn metrics(&self) -> &ServeMetrics {
        &self.inner.metrics
    }

    fn lock(&self) -> MutexGuard<'_, State> {
        self.inner
            .state
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner)
    }

    /// Starts the scheduler: spawns its first worker and returns that
    /// thread's handle. The rest of the pool follows on demand; every
    /// worker runs for the life of the process.
    pub fn start_scheduler(&self) -> std::thread::JoinHandle<()> {
        self.spawn_worker(&mut self.lock())
    }

    fn spawn_worker(&self, st: &mut State) -> std::thread::JoinHandle<()> {
        st.workers += 1;
        self.inner.metrics.sched_workers.set(st.workers as f64);
        let this = self.clone();
        std::thread::Builder::new()
            .name("dramctrl-sched".into())
            .spawn(move || this.scheduler_loop())
            .expect("spawning a scheduler worker")
    }

    /// The pool grows only when it is the bottleneck: work is waiting and
    /// every worker has some — a slice, or a commit's disk round trip.
    /// Checked at every pick and every submit, so work queued while each
    /// worker sits in a slow fsync still gets a worker. A daemon whose
    /// scheduler was never started stays at zero.
    fn grow_if_saturated(&self, st: &mut State) {
        if !st.queue.is_empty()
            && st.workers > 0
            && st.busy >= st.workers
            && st.workers < self.inner.max_workers
        {
            drop(self.spawn_worker(st));
        }
    }

    /// Accept loop: one thread per connection, forever.
    ///
    /// # Errors
    /// Only a broken listener ends the loop.
    pub fn serve(&self, listener: &Listener) -> io::Result<()> {
        loop {
            let conn = listener.accept()?;
            let this = self.clone();
            std::thread::spawn(move || {
                let _ = this.handle_conn(conn);
            });
        }
    }

    // ----- scheduler ---------------------------------------------------

    /// One worker; all of them run this loop over the same state.
    fn scheduler_loop(&self) {
        let m = &self.inner.metrics;
        loop {
            // Pick the next job under the lock, with its unit's paused run
            // if a slice of the unit already ran.
            let (id, spec, epochs, target, mut run) = {
                let mut st = self.lock();
                loop {
                    // Degraded: the store owes us a successful probe
                    // before any new simulation work is worth starting.
                    // Retry on the backoff schedule — every worker waits
                    // for it, the first one awake past it makes the
                    // attempt; the condvar wait keeps them cold between.
                    if let Some(next_retry) = st.degraded.as_ref().map(|d| d.next_retry) {
                        let now = Instant::now();
                        if now < next_retry {
                            let (guard, _) = self
                                .inner
                                .work
                                .wait_timeout(st, next_retry - now)
                                .unwrap_or_else(std::sync::PoisonError::into_inner);
                            st = guard;
                        } else {
                            st = self.try_store_recovery(st);
                        }
                        continue;
                    }
                    if let Some(id) = st.queue.pop() {
                        self.start_turn(&mut st, &id);
                        self.grow_if_saturated(&mut st);
                        let js = &st.jobs[&id];
                        sync_queue_gauge(m, &st.queue, &js.stored.tenant);
                        let epochs = js.stored.epochs;
                        let live = st.live(&id);
                        if let Some(since) = live.queued_at.take() {
                            m.sched_wait.observe(since.elapsed().as_secs_f64());
                        }
                        let spec = live.units[live.next].clone();
                        break (id, spec, epochs, live.pause_target, live.paused.take());
                    }
                    // Idle threads hold no simulator memory.
                    dramctrl_runner::release_idle_cache();
                    st = self
                        .inner
                        .work
                        .wait(st)
                        .unwrap_or_else(std::sync::PoisonError::into_inner);
                }
            };

            // Run the slice outside the lock: submits, watches and other
            // tenants' turns are never blocked by simulation work.
            let sliced = catch_unwind(AssertUnwindSafe(|| {
                let run = run.get_or_insert_with(|| JobRun::start(&spec, epochs));
                run.advance(Some(target))
            }));

            let mut st = self.lock();
            let quantum = self.inner.cfg.quantum;
            let live = st.live(&id);
            // Only a pause keeps `run`: a finished or panicked unit's run
            // is dropped with this iteration, so a retry starts from the
            // unit's first request.
            let done = match sliced {
                Ok(SliceOutcome::Paused { injected }) => {
                    m.preemptions.inc();
                    live.pause_target = injected + quantum;
                    live.paused = run;
                    None
                }
                Ok(SliceOutcome::Done(metrics, artifacts)) => {
                    let attempts = live.failures + 1;
                    let outcome = JobOutcome::Completed { metrics, attempts };
                    Some(UnitDone { outcome, artifacts })
                }
                Err(payload) => {
                    live.failures += 1;
                    live.pause_target = quantum;
                    let outcome = JobOutcome::Failed {
                        panic_msg: panic_message(payload.as_ref()),
                        attempts: live.failures,
                    };
                    // The campaign executor's bound, so failure records
                    // carry identical `attempts` counts either way.
                    let max_attempts = ExecutorConfig::default().max_attempts;
                    (live.failures >= max_attempts).then_some(UnitDone {
                        outcome,
                        artifacts: None,
                    })
                }
            };
            match done {
                Some(done) => self.commit_unit(st, &id, done, false),
                None => {
                    self.end_turn(&mut st, &id);
                    self.requeue(&mut st, &id);
                }
            }
        }
    }

    /// Hands job `id` to the calling worker until [`Self::end_turn`].
    fn start_turn(&self, st: &mut State, id: &str) {
        st.live(id).turn = true;
        st.busy += 1;
        self.inner.metrics.sched_workers_busy.set(st.busy as f64);
    }

    /// The calling worker is done with job `id`.
    fn end_turn(&self, st: &mut State, id: &str) {
        st.live(id).turn = false;
        st.busy -= 1;
        self.inner.metrics.sched_workers_busy.set(st.busy as f64);
    }

    /// Commits job `id`'s finished unit, its I/O with the state lock
    /// released. The job's journal is lent to this worker: the job is out
    /// of the queue until the commit ends, so it still has exactly one
    /// unit in flight and its journal gets a serial run's bytes.
    /// Artifacts and the journal commit land with nothing locked; then
    /// the journal goes back, and [`Self::finish_unit`] broadcasts under
    /// the lock. A store that refuses parks the outcome on the job
    /// instead: it is never lost and the simulation never re-runs.
    ///
    /// `retry` lands an outcome the store refused before: the journal is
    /// first re-resumed from disk, cutting any torn bytes the refused
    /// append left behind; keep-first dedup then makes the commit
    /// idempotent if the record actually survived.
    fn commit_unit(&self, mut st: MutexGuard<'_, State>, id: &str, done: UnitDone, retry: bool) {
        let dir = st.store.job_dir(id);
        let js = st.jobs.get_mut(id).expect("a held job is in the table");
        let campaign = &js.stored.campaign;
        let (name, resume) = (campaign.name.clone(), retry.then(|| campaign.clone()));
        let live = js.live.as_mut().expect("a held job is unfinished");
        let rec = JobRecord {
            job: live.units[live.next].clone(),
            outcome: done.outcome.clone(),
        };
        let mut journal = live.journal.take().expect("a held job's journal is home");
        drop(st);

        let m = &self.inner.metrics;
        let committed = write_commit(m, &dir, &mut journal, resume.as_ref(), &rec, &done)
            .map(|()| rec.render(&name));

        let mut st = self.lock();
        st.live(id).journal = Some(journal);
        self.inner.journal_back.notify_all();
        self.end_turn(&mut st, id);
        match committed {
            Ok(line) => self.finish_unit(&mut st, id, &done, &line),
            Err(e) => {
                st.live(id).refused = Some(done);
                self.enter_degraded(&mut st, &e.to_string());
            }
        }
    }

    /// The bookkeeping half of finishing a unit whose commit landed:
    /// counters, failure reset, broadcast of `line` (the record) and the
    /// unit's events, metrics, re-queue, releasing a finished job's
    /// working set. Broadcast happens only after the commit lands, so
    /// nothing a watcher sees can be lost to a store failure.
    fn finish_unit(&self, st: &mut State, id: &str, done: &UnitDone, line: &str) {
        let m = &self.inner.metrics;
        let js = st.jobs.get_mut(id).expect("a held job is in the table");
        let live = js.live.as_mut().expect("a held job is unfinished");
        let unit = live.next;
        // Counted here and not by the commit's "newly appended" flag: a
        // repaired journal may already hold the record whose append
        // reported failure, and each unit completes exactly once.
        js.done += 1;
        js.failed += usize::from(done.outcome.is_failed());
        live.skip_committed();
        live.failures = 0;
        live.pause_target = self.inner.cfg.quantum;

        live.broadcast(&record_event(id, unit, line), m);
        if let Some(a) = &done.artifacts {
            live.broadcast(&text_event("stats", id, unit, &a.stats_json), m);
            live.broadcast(&text_event("epochs", id, unit, &a.epochs_jsonl), m);
        }
        live.broadcast(&progress_event(id, js.done, js.total), m);
        if js.done == js.total {
            live.broadcast(&done_event(id, js.done - js.failed, js.failed), m);
            // Last commit: release the units, the outcomes, the
            // subscriber list and the journal's file handle.
            js.live = None;
        }
        m.tenant_served(&js.stored.tenant).inc();
        if done.outcome.is_failed() {
            m.units_failed.inc();
        } else {
            m.units_completed.inc();
            let elapsed = self.inner.started.elapsed().as_secs_f64();
            if elapsed > 0.0 {
                let done = m.units_completed.get() + m.units_failed.get();
                m.units_per_second.set(done as f64 / elapsed);
            }
        }
        self.requeue(st, id);
        // A completion may push the finished-job count past the
        // retention limit; trim eagerly so disk use stays bounded
        // without a periodic sweep.
        if let Some(retain) = self.inner.cfg.retain {
            if st.jobs[id].finished() {
                st.gc_evicted += gc_finished(&mut st.store, &mut st.jobs, retain, m);
            }
        }
    }

    /// Flips the daemon into degraded mode (idempotent): records why,
    /// raises the gauge and wakes the workers so they switch to the retry
    /// loop.
    fn enter_degraded(&self, st: &mut State, reason: &str) {
        self.inner.metrics.store_degraded.set(1.0);
        // Already degraded: another worker's commit, or a submit, hit
        // the broken store first.
        if st.degraded.is_some() {
            return;
        }
        dramctrl_obs::log_warn!(
            "serve", "store degraded; shedding new admissions";
            "reason" => reason
        );
        let now = Instant::now();
        let mut backoff = Backoff::new(STORE_BACKOFF_START, STORE_BACKOFF_MAX);
        let first = backoff.next_delay();
        st.degraded = Some(Degraded {
            reason: reason.to_owned(),
            since: now,
            backoff,
            next_retry: now + first,
        });
        self.inner.work.notify_all();
    }

    /// One recovery attempt: repair the accept log and probe the store
    /// root, under the lock. A failure doubles the backoff (capped).
    /// Success leaves degraded mode, then lands each parked outcome, in
    /// job-id order, through [`Self::commit_unit`] — its I/O unlocked like
    /// any commit's. Each job's journal is its own file, so the order
    /// moves no byte. A landing the store refuses parks its outcome again
    /// and re-enters degraded mode; the outcomes behind it wait for the
    /// next attempt.
    fn try_store_recovery<'a>(&'a self, mut st: MutexGuard<'a, State>) -> MutexGuard<'a, State> {
        let m = &self.inner.metrics;
        m.store_retries.inc();
        // An end-to-end writability probe through the same fsio layer
        // real writes use, so injected faults and genuinely full disks
        // agree on when the store is healthy.
        let probe = st.store.root().join(".recovery.probe");
        let healthy = st.store.repair().and_then(|()| {
            write_atomic(&probe, b"ok")?;
            std::fs::remove_file(&probe)
        });
        if let Err(e) = healthy {
            if let Some(d) = st.degraded.as_mut() {
                let delay = d.backoff.next_delay();
                d.next_retry = Instant::now() + delay;
                dramctrl_obs::log_warn!(
                    "serve", "store still failing; backing off";
                    "error" => e, "retry_in_ms" => delay.as_millis()
                );
            }
            return st;
        }
        let was = st.degraded.take();
        m.store_degraded.set(0.0);
        dramctrl_obs::log_info!(
            "serve", "store recovered; accepting submissions again";
            "degraded_seconds" => format!(
                "{:.3}",
                was.as_ref().map_or(0.0, |d| d.since.elapsed().as_secs_f64())
            )
        );
        self.inner.work.notify_all();
        while st.degraded.is_none() {
            let parked = st.jobs.iter_mut().find_map(|(id, js)| {
                let done = js.live.as_mut()?.refused.take()?;
                Some((id.clone(), done))
            });
            let Some((id, done)) = parked else {
                break;
            };
            self.start_turn(&mut st, &id);
            self.commit_unit(st, &id, done, true);
            st = self.lock();
        }
        // Degraded again before every parked outcome landed: the same
        // outage, so it keeps its start and its backoff — a store that
        // passes the probe but refuses a journal is retried at the
        // capped delay, not every 50 ms.
        if let (Some(d), Some(was)) = (st.degraded.as_mut(), was) {
            d.since = was.since;
            d.backoff = was.backoff;
            d.next_retry = Instant::now() + d.backoff.next_delay();
        }
        st
    }

    /// Puts an unfinished job back in rotation after its turn, and wakes
    /// an idle worker for it.
    fn requeue(&self, st: &mut State, id: &str) {
        let js = st.jobs.get_mut(id).expect("a held job is in the table");
        let Some(live) = js.live.as_mut() else {
            return; // finished
        };
        live.queued_at = Some(Instant::now());
        st.queue.push(&js.stored.tenant, id.to_owned());
        sync_queue_gauge(&self.inner.metrics, &st.queue, &js.stored.tenant);
        self.inner.work.notify_one();
    }

    // ----- connections -------------------------------------------------

    fn handle_conn(&self, conn: Stream) -> io::Result<()> {
        let _guard = self.connection_guard();
        // Deadlines are socket options, so they cover the cloned writer
        // too: a client that stops reading its stream blocks the writer
        // only until the write deadline, then the connection dies.
        conn.set_read_timeout(self.inner.cfg.client_timeout)?;
        conn.set_write_timeout(self.inner.cfg.client_timeout)?;
        let mut writer = conn.try_clone()?;
        let mut reader = BufReader::new(conn);
        writeln!(writer, "{}", VersionInfo::current().hello_line())?;
        let mut line = String::new();
        loop {
            line.clear();
            let read = read_line_bounded(&mut reader, &mut line, MAX_CMD_LINE);
            match read {
                Ok(0) => return Ok(()), // client hung up
                Ok(_) => {}
                Err(e) if e.kind() == io::ErrorKind::InvalidData => {
                    // Oversized line: the connection is no longer
                    // line-synchronized, so answer and drop it.
                    self.inner.metrics.clients_evicted.inc();
                    let _ = writeln!(writer, "{}", error_event(&format!("bad command: {e}")));
                    // Closed on a FIN, so the error line above arrives.
                    discard_line(&mut reader, MAX_CMD_LINE);
                    return Err(e);
                }
                Err(e)
                    if e.kind() == io::ErrorKind::WouldBlock
                        || e.kind() == io::ErrorKind::TimedOut =>
                {
                    // Idle past the read deadline: evict.
                    self.inner.metrics.clients_evicted.inc();
                    return Err(e);
                }
                Err(e) => return Err(e),
            }
            let trimmed = line.trim();
            if trimmed.is_empty() {
                continue;
            }
            let cmd = match Value::parse(trimmed) {
                Ok(v) => v,
                Err(e) => {
                    writeln!(writer, "{}", error_event(&format!("bad command: {e}")))?;
                    continue;
                }
            };
            match cmd.get("cmd").and_then(Value::as_str) {
                Some("submit") => {
                    let reply = self.submit(&cmd);
                    writeln!(writer, "{reply}")?;
                }
                Some("watch") => {
                    let id = cmd.get("id").and_then(Value::as_str).unwrap_or("");
                    self.watch(id, &mut writer)?;
                }
                Some("status") => {
                    writeln!(writer, "{}", self.status_line())?;
                }
                Some("shutdown") => {
                    // Every accepted job and committed unit is already
                    // durable; there is nothing to flush.
                    writeln!(writer, "{{\"event\":\"bye\"}}")?;
                    let _ = writer.flush();
                    std::process::exit(0);
                }
                other => {
                    let what = other.unwrap_or("<none>");
                    writeln!(writer, "{}", error_event(&format!("unknown cmd '{what}'")))?;
                }
            }
        }
    }

    /// Records one rejected submit (counters + per-tenant status tally)
    /// and renders the rejection event.
    fn reject(&self, st: &mut State, tenant: &str, reason: &str, msg: &str) -> String {
        self.inner.metrics.rejected(reason).inc();
        self.inner.metrics.tenant_rejected(tenant).inc();
        *st.rejects.entry(tenant.to_owned()).or_insert(0) += 1;
        rejected_event(msg)
    }

    /// Admission + durable accept. Returns the event line to send.
    fn submit(&self, cmd: &Value) -> String {
        let tenant = cmd.get("tenant").and_then(Value::as_str).unwrap_or("anon");
        let epochs = cmd.get("epochs").and_then(Value::as_u64).unwrap_or(0);
        let campaign = match cmd
            .get("campaign")
            .ok_or_else(|| "submit is missing 'campaign'".to_owned())
            .and_then(campaign_from_wire)
        {
            Ok(c) => c,
            Err(e) => return self.reject(&mut self.lock(), tenant, "bad_campaign", &e),
        };
        let shard = match parse_shard_fields(cmd) {
            Ok(s) => s,
            Err(e) => return self.reject(&mut self.lock(), tenant, "bad_shard", &e),
        };

        let mut st = self.lock();
        // Degraded store: shed before touching it. The retry loop owns
        // the store until it recovers.
        if let Some(d) = &st.degraded {
            let msg = format!("store unavailable: {}", d.reason);
            return self.reject(&mut st, tenant, "store_unavailable", &msg);
        }
        let active = st.jobs.values().filter(|j| !j.finished()).count();
        if active >= self.inner.cfg.max_jobs {
            let msg = format!(
                "queue full: {active} active jobs (limit {})",
                self.inner.cfg.max_jobs
            );
            return self.reject(&mut st, tenant, "queue_full", &msg);
        }
        // The accept-log append inside is the commit point: once it
        // returns, a kill at any later instant still runs this job.
        let fsync_started = Instant::now();
        let stored = match st.store.accept_sharded(tenant, epochs, &campaign, shard) {
            Ok(s) => s,
            Err(e) => {
                // A failed accept is an unhealthy store, not a one-off:
                // degrade so later submits shed instead of re-poking it.
                let msg = format!("store unavailable: {e}");
                self.enter_degraded(&mut st, &e.to_string());
                return self.reject(&mut st, tenant, "store_unavailable", &msg);
            }
        };
        self.inner
            .metrics
            .store_fsync("accept")
            .observe(fsync_started.elapsed().as_secs_f64());
        let dir = st.store.job_dir(&stored.id);
        let journal = match CampaignJournal::create(dir.join("journal.jsonl"), &campaign) {
            Ok(j) => j,
            Err(e) => {
                // The accept line is durable, so a restart re-creates the
                // journal and runs the job.
                let msg = format!("store unavailable: {e}");
                self.enter_degraded(&mut st, &e.to_string());
                return self.reject(&mut st, tenant, "store_unavailable", &msg);
            }
        };
        let js = JobState::new(stored, journal, self.inner.cfg.quantum);
        let (id, total) = (js.stored.id.clone(), js.total);
        if !js.finished() {
            st.queue.push(&js.stored.tenant, id.clone());
        }
        sync_queue_gauge(&self.inner.metrics, &st.queue, &js.stored.tenant);
        st.jobs.insert(id.clone(), js);
        self.grow_if_saturated(&mut st);
        self.inner.metrics.admission_accepted.inc();
        drop(st);
        self.inner.work.notify_all();
        accepted_event(&id, total)
    }

    /// Replays a job's committed history, then streams live events until
    /// the job finishes.
    fn watch(&self, id: &str, writer: &mut Stream) -> io::Result<()> {
        let (replay, live) = {
            let mut st = self.lock();
            // A job mid-commit has lent its journal out, and the unit
            // being committed may be in the file but not yet broadcast:
            // replaying now would send it twice. Wait, unlocked, for the
            // worker to hand the journal back — it broadcasts in the
            // same lock hold.
            while st
                .jobs
                .get(id)
                .and_then(|js| js.live.as_ref())
                .is_some_and(|live| live.journal.is_none())
            {
                st = self
                    .inner
                    .journal_back
                    .wait(st)
                    .unwrap_or_else(std::sync::PoisonError::into_inner);
            }
            let dir = st.store.job_dir(id);
            let Some(js) = st.jobs.get_mut(id) else {
                drop(st);
                writeln!(writer, "{}", error_event(&format!("no such job '{id}'")))?;
                return Ok(());
            };
            let progress = progress_event(id, js.done, js.total);
            if let Some(live) = js.live.as_mut() {
                let done = live.journal().completed();
                let mut replay = replay_events(&js.stored, &dir, &live.units, done);
                replay.push(progress);
                // Subscribe under the same lock that replayed: commits
                // broadcast under this lock too, right after their
                // journal comes back, so the stream has no gap and no
                // duplicate. The buffer is bounded — fall this far
                // behind and the broadcaster evicts you.
                let (tx, rx) = mpsc::sync_channel(self.inner.cfg.subscriber_buffer);
                live.subscribers.push(tx);
                (replay, Some(rx))
            } else {
                // Finished jobs are immutable and hold nothing in
                // memory: read the journal back, outside the lock.
                let (stored, ok, failed) = (js.stored.clone(), js.done - js.failed, js.failed);
                drop(st);
                let done =
                    match CampaignJournal::replay(dir.join("journal.jsonl"), &stored.campaign) {
                        Ok(done) => done,
                        Err(e) => {
                            writeln!(writer, "{}", error_event(&format!("job '{id}': {e}")))?;
                            return Ok(());
                        }
                    };
                let mut replay = replay_events(&stored, &dir, &stored.campaign.expand(), &done);
                replay.push(progress);
                replay.push(done_event(id, ok, failed));
                (replay, None)
            }
        };
        let streamed = &self.inner.metrics.streamed_bytes;
        for line in replay {
            writeln!(writer, "{line}")?;
            streamed.add(line.len() as u64 + 1);
        }
        if let Some(rx) = live {
            for line in rx {
                let is_done = line.starts_with("{\"event\":\"done\"");
                writeln!(writer, "{line}")?;
                streamed.add(line.len() as u64 + 1);
                if is_done {
                    break;
                }
            }
            // Dropping `rx` unsubscribes: the server's next send fails
            // and the sender is pruned.
        }
        writer.flush()
    }

    fn status_line(&self) -> String {
        let st = self.lock();
        format!("{{\"event\":\"status\",{}}}", jobs_tenants_json(&st))
    }

    // ----- observability surfaces (HTTP + status) ----------------------

    /// The `/jobs` body: job table plus per-tenant rollup.
    #[must_use]
    pub fn jobs_json(&self) -> String {
        let st = self.lock();
        format!("{{{}}}", jobs_tenants_json(&st))
    }

    /// The `/metrics` body: scrape-time gauges refreshed, then the
    /// registry rendered as Prometheus text exposition.
    #[must_use]
    pub fn metrics_exposition(&self) -> String {
        self.refresh_scrape_gauges();
        self.inner.metrics.registry.render_prometheus()
    }

    /// The `/metrics.json` body: the same registry as stable JSON.
    #[must_use]
    pub fn metrics_json(&self) -> String {
        self.refresh_scrape_gauges();
        self.inner.metrics.registry.render_json()
    }

    fn refresh_scrape_gauges(&self) {
        let m = &self.inner.metrics;
        m.uptime.set(self.inner.started.elapsed().as_secs_f64());
        let st = self.lock();
        let active = st.jobs.values().filter(|j| !j.finished()).count();
        m.jobs_active.set(active as f64);
    }

    /// The `/healthz` probe: reports degraded mode (503) while the store
    /// is failing writes, otherwise checks that the durable store is
    /// writable by writing and removing a probe file in the store root.
    /// `Ok` is the 200 body, `Err` the 503 body.
    ///
    /// # Errors
    /// A JSON body naming the failure when the store is degraded or its
    /// root is unwritable.
    pub fn health(&self) -> Result<String, String> {
        let (root, active) = {
            let st = self.lock();
            if let Some(d) = &st.degraded {
                return Err(format!(
                    "{{\"status\":\"degraded\",\"store\":{},\"reason\":{},\
                     \"degraded_seconds\":{:.3},\"retries\":{}}}",
                    json_str(&st.store.root().display().to_string()),
                    json_str(&d.reason),
                    d.since.elapsed().as_secs_f64(),
                    self.inner.metrics.store_retries.get(),
                ));
            }
            let active = st.jobs.values().filter(|j| !j.finished()).count();
            (st.store.root().to_path_buf(), active)
        };
        let probe = root.join(".healthz.probe");
        let outcome = std::fs::write(&probe, b"ok").and_then(|()| std::fs::remove_file(&probe));
        match outcome {
            Ok(()) => Ok(format!(
                "{{\"status\":\"ok\",\"store\":{},\"active_jobs\":{},\"uptime_seconds\":{:.3}}}",
                json_str(&root.display().to_string()),
                active,
                self.inner.started.elapsed().as_secs_f64(),
            )),
            Err(e) => Err(format!(
                "{{\"status\":\"unwritable\",\"store\":{},\"error\":{}}}",
                json_str(&root.display().to_string()),
                json_str(&e.to_string()),
            )),
        }
    }

    /// The configured per-connection deadline (shared with the HTTP
    /// front-end).
    pub(crate) fn client_timeout(&self) -> Option<Duration> {
        self.inner.cfg.client_timeout
    }

    /// Bumps the active-connection gauge until the guard drops.
    #[must_use]
    pub(crate) fn connection_guard(&self) -> ConnGuard {
        let gauge = self.inner.metrics.active_connections.clone();
        gauge.inc();
        ConnGuard(gauge)
    }
}

/// Decrements the active-connection gauge on drop.
pub(crate) struct ConnGuard(Gauge);

impl Drop for ConnGuard {
    fn drop(&mut self) {
        self.0.dec();
    }
}

/// Renders `"jobs":[...],"tenants":[...]` — shared by the `status`
/// protocol event and the HTTP `/jobs` body. Jobs come straight from
/// the journals (so the view survives restarts); the tenant rollup adds
/// queue depth, the units in flight, and this process's rejection tally.
fn jobs_tenants_json(st: &State) -> String {
    let mut jobs = String::new();
    struct Roll {
        queued: usize,
        active: usize,
        served: usize,
        failed: usize,
        running: Vec<String>,
    }
    let mut tenants: BTreeMap<&str, Roll> = BTreeMap::new();
    for (id, js) in &st.jobs {
        if !jobs.is_empty() {
            jobs.push(',');
        }
        let running_unit = js.live.as_ref().filter(|l| l.turn).map(|l| l.next);
        jobs.push_str(&format!(
            "{{\"id\":{},\"tenant\":{},\"done\":{},\"failed\":{},\"total\":{},\"state\":{}{}{}}}",
            json_str(id),
            json_str(&js.stored.tenant),
            js.done,
            js.failed,
            js.total,
            json_str(if js.finished() { "done" } else { "active" }),
            match js.stored.shard {
                Some((i, n)) => format!(",\"shard\":\"{i}/{n}\""),
                None => String::new(),
            },
            match running_unit {
                Some(u) => format!(",\"unit\":{u}"),
                None => String::new(),
            },
        ));
        let roll = tenants.entry(&js.stored.tenant).or_insert_with(|| Roll {
            queued: st.queue.depth(&js.stored.tenant),
            active: 0,
            served: 0,
            failed: 0,
            running: Vec::new(),
        });
        roll.active += usize::from(!js.finished());
        roll.served += js.done;
        roll.failed += js.failed;
        if let Some(u) = running_unit {
            let job = json_str(id);
            roll.running.push(format!("{{\"job\":{job},\"unit\":{u}}}"));
        }
    }
    let mut out = String::new();
    for (tenant, roll) in &tenants {
        if !out.is_empty() {
            out.push(',');
        }
        out.push_str(&format!(
            "{{\"tenant\":{},\"queued\":{},\"active_jobs\":{},\"served\":{},\"failed\":{},\
             \"rejected\":{},\"running\":[{}]}}",
            json_str(tenant),
            roll.queued,
            roll.active,
            roll.served,
            roll.failed,
            st.rejects.get(*tenant).copied().unwrap_or(0),
            roll.running.join(","),
        ));
    }
    format!(
        "\"jobs\":[{jobs}],\"tenants\":[{out}],\"gc_evicted\":{}",
        st.gc_evicted
    )
}

/// Extracts the optional `shard_index`/`shard_count` pair from a submit
/// command. Both must be present together, `count` must be positive and
/// `index < count` — residue classes outside that range select nothing
/// a client could have meant.
fn parse_shard_fields(cmd: &Value) -> Result<Option<(u32, u32)>, String> {
    let field = |key: &str| -> Result<Option<u32>, String> {
        match cmd.get(key) {
            None => Ok(None),
            Some(v) => v
                .as_u64()
                .and_then(|n| u32::try_from(n).ok())
                .map(Some)
                .ok_or_else(|| format!("'{key}' must be a u32")),
        }
    };
    match (field("shard_index")?, field("shard_count")?) {
        (None, None) => Ok(None),
        (Some(idx), Some(n)) if n > 0 && idx < n => Ok(Some((idx, n))),
        (Some(idx), Some(n)) => Err(format!("shard {idx}/{n} is out of range")),
        _ => Err("shard_index and shard_count must be given together".to_owned()),
    }
}

/// Evicts the oldest finished jobs beyond `retain`, in acceptance order
/// (job ids sort that way). Running and queued jobs are structurally
/// exempt: only `finished()` jobs are candidates. A failed eviction
/// stops the sweep — the next completion retries it.
fn gc_finished(
    store: &mut JobStore,
    jobs: &mut BTreeMap<String, JobState>,
    retain: usize,
    m: &ServeMetrics,
) -> u64 {
    let finished: Vec<String> = jobs
        .values()
        .filter(|j| j.finished())
        .map(|j| j.stored.id.clone())
        .collect();
    let Some(excess) = finished.len().checked_sub(retain).filter(|&e| e > 0) else {
        return 0;
    };
    let mut evicted = 0;
    for id in finished.iter().take(excess) {
        match store.evict(id) {
            Ok(()) => {
                jobs.remove(id);
                m.store_gc.inc();
                evicted += 1;
                dramctrl_obs::log_info!("serve", "gc evicted finished job"; "id" => id);
            }
            Err(e) => {
                dramctrl_obs::log_warn!(
                    "serve", "gc eviction failed; will retry on next completion";
                    "id" => id, "error" => e
                );
                break;
            }
        }
    }
    evicted
}

/// Sets `tenant`'s queue-depth gauge (0 once out of rotation); called
/// wherever the tenant's ring changes, so a drained tenant's never goes stale.
fn sync_queue_gauge(m: &ServeMetrics, queue: &FairQueue, tenant: &str) {
    m.tenant_queue_depth(tenant).set(queue.depth(tenant) as f64);
}

/// The events a `watch` opens with: every committed unit's record (and,
/// for observed jobs, its stored artifacts) in index order.
fn replay_events(
    stored: &StoredJob,
    dir: &std::path::Path,
    units: &[JobSpec],
    done: &BTreeMap<usize, JobOutcome>,
) -> Vec<String> {
    let id = &stored.id;
    let mut replay = Vec::new();
    for (&i, outcome) in done {
        let rec = JobRecord {
            job: units[i].clone(),
            outcome: outcome.clone(),
        };
        replay.push(record_event(id, i, &rec.render(&stored.campaign.name)));
        if stored.epochs > 0 {
            for (event, ext) in [("stats", "stats.json"), ("epochs", "epochs.jsonl")] {
                if let Ok(text) = std::fs::read_to_string(JobStore::unit_artifact(dir, i, ext)) {
                    replay.push(text_event(event, id, i, &text));
                }
            }
        }
    }
    replay
}

/// The I/O of committing a unit: its artifacts, then the journal commit —
/// the commit point, its fsync timed into the store-fsync histogram.
/// Artifacts land (atomically) before the commit: a crash in between
/// re-runs the unit and rewrites them bit-identically. With `resume`, the
/// journal is first re-resumed from disk against that campaign.
///
/// # Errors
/// Store I/O — the caller routes it into degraded mode.
fn write_commit(
    m: &ServeMetrics,
    dir: &std::path::Path,
    journal: &mut CampaignJournal,
    resume: Option<&Campaign>,
    rec: &JobRecord,
    done: &UnitDone,
) -> io::Result<()> {
    if let Some(campaign) = resume {
        let path = journal.path().to_path_buf();
        *journal = CampaignJournal::resume(&path, campaign).map_err(|e| {
            let why = format!("re-resuming {}: {e}", path.display());
            io::Error::new(io::ErrorKind::InvalidData, why)
        })?;
    }
    if let Some(a) = &done.artifacts {
        write_unit_artifacts(dir, rec.job.index, a)?;
    }
    let fsync_started = Instant::now();
    journal.commit(rec)?;
    m.store_fsync("commit")
        .observe(fsync_started.elapsed().as_secs_f64());
    Ok(())
}

/// Writes an observed unit's artifacts atomically next to the journal.
///
/// # Errors
/// Store I/O — the caller routes it into degraded mode.
fn write_unit_artifacts(dir: &std::path::Path, unit: usize, a: &JobArtifacts) -> io::Result<()> {
    for (ext, text) in [
        ("stats.json", &a.stats_json),
        ("epochs.jsonl", &a.epochs_jsonl),
        ("epochs.csv", &a.epochs_csv),
        ("trace.json", &a.perfetto_json),
    ] {
        let path = JobStore::unit_artifact(dir, unit, ext);
        write_atomic(&path, text.as_bytes())
            .map_err(|e| io::Error::new(e.kind(), format!("artifact {}: {e}", path.display())))?;
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn broadcast_evicts_full_subscribers_and_prunes_hangups() {
        let dir = std::env::temp_dir().join(format!("dramctrl-serve-bcast-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        let c = Campaign::new("b", 1).read_pcts([50]).requests([10]);
        let journal = CampaignJournal::create(dir.join("j.jsonl"), &c).unwrap();
        let stored = StoredJob {
            id: "job-0001".into(),
            tenant: "t".into(),
            epochs: 0,
            campaign: c,
            shard: None,
        };
        let mut js = JobState::new(stored, journal, 0).live.unwrap();
        let m = ServeMetrics::new();
        let (tx_full, _rx_never_drained) = mpsc::sync_channel(1);
        let (tx_gone, rx_gone) = mpsc::sync_channel(1);
        drop(rx_gone);
        let (tx_ok, rx_ok) = mpsc::sync_channel(8);
        js.subscribers = vec![tx_full, tx_gone, tx_ok];

        // First broadcast: fills the never-drained buffer, prunes the
        // hang-up (not an eviction), delivers to the healthy one.
        js.broadcast("one", &m);
        assert_eq!(js.subscribers.len(), 2);
        assert_eq!(m.clients_evicted.get(), 0);

        // Second broadcast: the full buffer now evicts its subscriber.
        js.broadcast("two", &m);
        assert_eq!(js.subscribers.len(), 1);
        assert_eq!(m.clients_evicted.get(), 1);
        assert_eq!(rx_ok.try_recv().unwrap(), "one");
        assert_eq!(rx_ok.try_recv().unwrap(), "two");
        let _ = std::fs::remove_dir_all(&dir);
    }
}
