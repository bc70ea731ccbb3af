//! The always-up simulation daemon: admission control, a fair preemptive
//! scheduler, and crash-safe execution on top of the durable job store.
//!
//! ## Anatomy
//!
//! A pool of identical **scheduler workers** — up to
//! [`ServeConfig::workers`], one per core by default — runs all
//! simulation work, one quantum at a time each: a worker pops the next
//! job from the [`FairQueue`], takes the job's oldest paused unit or else
//! its next unstarted one, and runs one slice of it *outside* the state
//! lock ([`JobRun::advance`] pauses at the first request boundary past
//! the quantum target). A paused unit stays **resident in memory** as a
//! live [`JobRun`] on its job's record, and whichever worker picks it
//! next keeps stepping it: preemption is a scheduling event, not a
//! durability event. An observed unit (`epochs > 0`) is the same
//! [`JobRun`] with probes attached, preempted at the same quantum; its
//! artifacts come back with the metrics of its last slice. A job is in
//! the queue at most once, and goes back into it at the pick itself
//! while it has another slice to give, so one job's **units run side by
//! side** — up to the pool size of them in flight (paused or held by a
//! worker) — and a campaign submitted alone gets every worker. A unit
//! that finishes before an earlier one has committed **parks** its
//! outcome on the job (at most the pool size of them; past that the job
//! starts no new unit), and commits land strictly in index order, so each
//! job's journal file is byte for byte a serial run's at any worker
//! count. Workers are spawned on demand — the first by
//! [`Server::start_scheduler`], another whenever a pick or a submit
//! leaves work queued with every worker busy (in a slice or in a commit)
//! — and an idle one gives up its cached controller, so a daemon that
//! only ever ran one-unit jobs one at a time costs one thread's memory.
//! **Connection threads** (one per client) only touch
//! state briefly — submit, watch, status — so a 10-million-request unit
//! in flight never blocks a submit, and a competing tenant waits at most
//! one quantum.
//!
//! **The state lock** — one mutex over the job table, the fair queue and
//! the degraded-mode bookkeeping — is held for bookkeeping only. An
//! unfinished job's record is the one place the scheduler keeps anything
//! about it: its units in flight (paused runs, or held by a worker), its
//! parked outcomes, when it was queued and its subscribers. Neither
//! simulation nor a unit's commit runs under the lock: a worker releases
//! it for the slice, and again for the commit's artifact writes, journal
//! append and fsync, so a slow disk stalls the worker whose unit is
//! committing and nothing else — not the other workers' picks and
//! returns, not `submit`, `watch`, `status` or `/metrics`. Store I/O
//! still under the lock: submit's accept-log append and journal
//! creation, and a recovery attempt's writability probe.
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
//! whose unit is next in index order takes the job's journal out of its
//! live state; while it is lent, no other worker can commit for the job,
//! and a unit that finishes meanwhile parks. With the lock released, the
//! worker writes the artifacts and appends and fsyncs the record. It
//! re-takes the lock, hands the journal back, and broadcasts in that same
//! lock hold — or, if the store refused, parks the outcome again
//! (degraded mode, below). If the next unit has parked meanwhile, the
//! same worker commits it the same way, one record and one fsync at a
//! time, so the store's ops and their order per job are a serial run's.
//!
//! `watch` replays the job's committed record lines and subscribes in
//! one lock hold, and every broadcast happens under the lock too; that
//! is why its stream has no gap and no duplicate. The live job keeps
//! those lines itself — the ones the journal's open read, and each
//! unit's line from the lock hold that broadcasts it — so a record that
//! is in the journal file but not yet broadcast (the worker is between
//! its append and the hand-back) is not replayed either: a watch never
//! waits on a commit.
//!
//! Kill the daemon at any instant and [`Server::open`] rebuilds
//! everything from the store: accepted jobs re-queue, committed units
//! are never re-run, and the units in flight or parked restart from their
//! first request — a crash costs a job at most the units it had in flight
//! or had parked, never a committed one.
//! Re-execution is deterministic and the journal's keep-first dedup
//! makes the first commit canonical, so results are byte-identical to a
//! never-killed run, which is byte-identical to a standalone `dramctrl
//! sweep` of the same campaign. A finished job keeps its accept record
//! and three counters; its record lines and journal handle are
//! released, and a late `watch` replays it from the journal file.
//!
//! ## Degraded mode
//!
//! A store that stops taking writes (disk full, failing fsyncs) must not
//! kill the daemon. On any store I/O error the daemon enters **degraded
//! mode**: a unit outcome whose commit was refused is parked in memory on
//! its job, with the outcomes behind it; the workers stop starting new
//! slices, new submits are shed with `rejected
//! reason=store_unavailable`, `/healthz` answers 503 and the
//! `dramctrl_store_degraded` gauge reads 1 — while status, metrics and
//! in-flight `watch` streams keep serving from memory. The workers retry
//! the store with bounded exponential backoff
//! ([`STORE_BACKOFF_START`]..[`STORE_BACKOFF_MAX`]): each attempt probes
//! the store root with a real write. The first successful attempt
//! leaves degraded mode and then lands the parked outcomes, job by job in
//! id order and each job's in index order, through the commit path every
//! healthy unit takes. Nothing is
//! repaired by hand: every store log is a
//! [`DurableAppender`](dramctrl_kernel::fsio::DurableAppender), and a
//! log whose append failed cuts the unacknowledged bytes off at its
//! next append — the accept log at the next submit, a journal at its
//! parked outcome's landing. A landing the store refuses again parks its
//! outcome once more and re-enters degraded mode, on the same outage's
//! backoff schedule. No restart, no lost unit, no re-simulation, and
//! the journal bytes are exactly what an unfaulted run would have
//! written.
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
    panic_message, CampaignJournal, ExecutorConfig, JobOutcome, JobRecord, JournalLines,
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
    /// Scheduler workers — how many unit slices run at once, of one job
    /// or of several — with [`ExecutorConfig::workers`]' meaning: `0` is
    /// the host's available parallelism, anything else that many (at
    /// least one).
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
    /// holds no record lines and no open journal.
    live: Option<LiveJob>,
}

/// What only an unfinished job needs: everything the scheduler knows
/// about the job between and during its turns.
struct LiveJob {
    /// The committed units' record lines, for `watch` to replay: the
    /// ones the journal's open read, and each unit's from the lock hold
    /// that broadcasts it. The job's only copy of its results.
    lines: JournalLines,
    /// The job's durable commit log; `None` while it is lent to the
    /// worker committing the job's units with the state lock released.
    journal: Option<CampaignJournal>,
    /// The first uncommitted in-shard unit — the one to commit next.
    /// Only ever moves forward, `stride` (the shard count, or 1) at a
    /// time.
    next: usize,
    /// The first in-shard unit not yet started; `len` or past it once
    /// every unit has started.
    unstarted: usize,
    stride: usize,
    /// The campaign's unit count: no unit starts at or past it.
    len: usize,
    /// The units started and not yet committed, by index: at most the
    /// pool size in flight and as many parked (see [`Self::can_start`]).
    /// Nothing here is durable — after a crash each of them re-runs from
    /// its first request and commits the same bytes.
    units: BTreeMap<usize, Unit>,
    /// When the job entered the queue; `Some` exactly while it is in
    /// it, taken at its pick for the scheduler fairness-lag histogram.
    queued_at: Option<Instant>,
    /// Live `watch` subscribers (event lines), each behind a bounded
    /// buffer.
    subscribers: Vec<mpsc::SyncSender<String>>,
}

/// One started, uncommitted unit of a live job.
struct Unit {
    /// Panicked attempts so far.
    failures: u32,
    /// Absolute injection target for the unit's next slice.
    pause_target: u64,
    stage: Stage,
}

enum Stage {
    /// Waiting for a worker: paused between slices with its run live in
    /// memory, or (`None`) due to start from its first request — not yet
    /// run, or retried after a panic.
    Ready(Option<Box<JobRun>>),
    /// A worker holds it: in a slice, or in its commit.
    Held,
    /// Finished, its outcome waiting for its commit: behind an earlier
    /// unit that has not committed yet, or refused by the store until a
    /// recovery attempt lands it. The simulation never re-runs.
    Parked(UnitDone),
}

/// A finished unit's result, from its last slice until its commit lands.
struct UnitDone {
    outcome: JobOutcome,
    artifacts: Option<JobArtifacts>,
}

impl JobState {
    /// The job as its journal describes it — `lines`, the committed
    /// records its open read: counters tallied once, working set only if
    /// units remain.
    fn new(stored: StoredJob, journal: CampaignJournal, lines: JournalLines) -> Self {
        // A shard is a residue class; unsharded jobs own every unit.
        let (first, stride) = stored
            .shard
            .map_or((0, 1), |(i, n)| (i as usize, n as usize));
        let len = stored.campaign.len();
        let total = len.saturating_sub(first).div_ceil(stride);
        let mut js = Self {
            total,
            done: 0,
            failed: 0,
            live: None,
            stored,
        };
        for l in lines.iter().filter(|l| l.index % stride == first) {
            js.done += 1;
            js.failed += usize::from(l.failed);
        }
        if !js.finished() {
            let mut live = LiveJob {
                lines,
                journal: Some(journal),
                next: first,
                unstarted: first,
                stride,
                len,
                units: BTreeMap::new(),
                // Every caller queues an unfinished job it builds.
                queued_at: Some(Instant::now()),
                subscribers: Vec::new(),
            };
            live.next = live.uncommitted_from(first);
            live.unstarted = live.next;
            js.live = Some(live);
        }
        js
    }

    fn finished(&self) -> bool {
        self.done == self.total
    }
}

impl LiveJob {
    /// The first uncommitted in-shard unit at or after `unit`.
    fn uncommitted_from(&self, mut unit: usize) -> usize {
        while self.lines.get(unit).is_some() {
            unit += self.stride;
        }
        unit
    }

    /// Whether a worker could start the job's next unit: one is left,
    /// fewer than `cap` are in flight — paused or held — and fewer than
    /// `cap` more are parked behind an earlier one. A unit that runs long
    /// stalls the job's others once `cap` outcomes wait on it, so memory
    /// stays bounded whatever the campaign's length.
    fn can_start(&self, cap: usize) -> bool {
        let parked = self.in_stage(|s| matches!(s, Stage::Parked(_))).count();
        self.unstarted < self.len && self.units.len() - parked < cap && parked < cap
    }

    /// Whether a worker that picked the job would find a slice to run.
    fn runnable(&self, cap: usize) -> bool {
        let ready = |s: &Stage| matches!(s, Stage::Ready(_));
        self.can_start(cap) || self.in_stage(ready).next().is_some()
    }

    /// The units whose stage passes `pick`, oldest first.
    fn in_stage(&self, pick: fn(&Stage) -> bool) -> impl Iterator<Item = usize> + '_ {
        let units = self.units.iter().filter(move |(_, u)| pick(&u.stage));
        units.map(|(&i, _)| i)
    }

    /// Hands a worker the job's next slice: its oldest waiting unit, or
    /// else its next unstarted one. Returns the unit, its pause target
    /// and its paused run; the unit is held until the worker returns it.
    fn take_slice(
        &mut self,
        cap: usize,
        quantum: u64,
    ) -> Option<(usize, u64, Option<Box<JobRun>>)> {
        let waiting = self
            .units
            .iter_mut()
            .find(|(_, u)| matches!(u.stage, Stage::Ready(_)));
        if let Some((&i, u)) = waiting {
            let Stage::Ready(run) = std::mem::replace(&mut u.stage, Stage::Held) else {
                unreachable!("found ready")
            };
            return Some((i, u.pause_target, run));
        }
        if !self.can_start(cap) {
            return None;
        }
        let unit = self.unstarted;
        self.unstarted = self.uncommitted_from(unit + self.stride);
        let fresh = Unit {
            failures: 0,
            pause_target: quantum,
            stage: Stage::Held,
        };
        self.units.insert(unit, fresh);
        Some((unit, quantum, None))
    }

    /// Whether unit `next` is parked with the journal home: its commit
    /// is due, and no worker is making it.
    fn commit_due(&self) -> bool {
        let parked = self.units.get(&self.next).map(|u| &u.stage);
        self.journal.is_some() && matches!(parked, Some(Stage::Parked(_)))
    }

    /// Takes unit `next`'s parked outcome for its commit, if
    /// [`Self::commit_due`]: the unit is held until the commit ends.
    fn take_commit(&mut self) -> Option<UnitDone> {
        if !self.commit_due() {
            return None;
        }
        let unit = self.units.get_mut(&self.next)?;
        match std::mem::replace(&mut unit.stage, Stage::Held) {
            Stage::Parked(done) => Some(done),
            _ => unreachable!("commit_due"),
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
            let (lines, journal) = CampaignJournal::recover(&jpath, &stored.campaign)
                .and_then(|mut j| Ok((j.take_lines()?, j)))
                .map_err(|e| {
                    io::Error::new(
                        io::ErrorKind::InvalidData,
                        format!("recovering journal for {}: {e}", stored.id),
                    )
                })?;
            JobStore::remove_stale_snaps(&dir);
            let js = JobState::new(stored, journal, lines);
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
        let (quantum, cap) = (self.inner.cfg.quantum, self.inner.max_workers);
        loop {
            // Pick the next job under the lock, and a slice of it: its
            // oldest paused unit's run, or its next unit, fresh.
            let (id, unit, spec, epochs, target, mut run) = {
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
                        let live = st.live(&id);
                        if let Some(since) = live.queued_at.take() {
                            m.sched_wait.observe(since.elapsed().as_secs_f64());
                        }
                        // A queued job always has a slice to give: only
                        // a pick takes one, and it re-queues the rest.
                        let Some((unit, target, paused)) = live.take_slice(cap, quantum) else {
                            continue;
                        };
                        self.start_turn(&mut st);
                        // The rest of the job goes back in line, for an
                        // idle worker or, if none is, a new one.
                        self.requeue(&mut st, &id);
                        self.grow_if_saturated(&mut st);
                        let js = &st.jobs[&id];
                        sync_queue_gauge(m, &st.queue, &js.stored.tenant);
                        let spec = js.stored.campaign.job(unit);
                        break (id, unit, spec, js.stored.epochs, target, paused);
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
                let run = run.get_or_insert_with(|| Box::new(JobRun::start(&spec, epochs)));
                run.advance(Some(target))
            }));

            let mut st = self.lock();
            let u = st.live(&id).units.get_mut(&unit);
            let u = u.expect("a held unit is in flight");
            // Only a pause keeps `run`: a finished or panicked unit's run
            // is dropped with this iteration, so a retry starts from the
            // unit's first request.
            u.stage = match sliced {
                Ok(SliceOutcome::Paused { injected }) => {
                    m.preemptions.inc();
                    u.pause_target = injected + quantum;
                    Stage::Ready(run)
                }
                Ok(SliceOutcome::Done(metrics, artifacts)) => {
                    let attempts = u.failures + 1;
                    let outcome = JobOutcome::Completed { metrics, attempts };
                    Stage::Parked(UnitDone { outcome, artifacts })
                }
                Err(payload) => {
                    u.failures += 1;
                    u.pause_target = quantum;
                    // The campaign executor's bound, so failure records
                    // carry identical `attempts` counts either way.
                    if u.failures >= ExecutorConfig::default().max_attempts {
                        let outcome = JobOutcome::Failed {
                            panic_msg: panic_message(payload.as_ref()),
                            attempts: u.failures,
                        };
                        Stage::Parked(UnitDone {
                            outcome,
                            artifacts: None,
                        })
                    } else {
                        Stage::Ready(None)
                    }
                }
            };
            // A finished unit commits now if it is next in index order;
            // otherwise it stays parked for the worker that commits its
            // predecessor.
            let mut st = self.commit_in_order(st, &id);
            self.end_turn(&mut st);
            self.requeue(&mut st, &id);
        }
    }

    /// Counts the calling worker busy until [`Self::end_turn`].
    fn start_turn(&self, st: &mut State) {
        st.busy += 1;
        self.inner.metrics.sched_workers_busy.set(st.busy as f64);
    }

    /// The calling worker is done with its slice and its commits.
    fn end_turn(&self, st: &mut State) {
        st.busy -= 1;
        self.inner.metrics.sched_workers_busy.set(st.busy as f64);
    }

    /// Commits job `id`'s parked outcomes that are next in index order,
    /// one record at a time, each with its I/O done with the state lock
    /// released. Under the lock, the worker takes the job's journal and
    /// unit `next`'s outcome; no other worker can commit for the job
    /// until the journal comes back, so its commits land in index order
    /// and its journal gets a serial run's bytes, however many of its
    /// units ran at once. Artifacts and the journal commit land with
    /// nothing locked; then the journal goes back, and
    /// [`Self::finish_unit`] broadcasts under the lock — and the next
    /// unit, if it finished meanwhile, commits the same way. A store that
    /// refuses parks the outcome again instead: it is never lost and the
    /// simulation never re-runs. The same call lands a parked outcome
    /// later: the journal forgot the refused record, and its next append
    /// cuts the bytes that record left behind.
    fn commit_in_order<'a>(
        &'a self,
        mut st: MutexGuard<'a, State>,
        id: &str,
    ) -> MutexGuard<'a, State> {
        let m = &self.inner.metrics;
        loop {
            let dir = st.store.job_dir(id);
            // The job finished (and may have been collected) with the
            // previous commit.
            let Some(js) = st.jobs.get_mut(id) else {
                return st;
            };
            let Some(live) = js.live.as_mut() else {
                return st;
            };
            let Some(done) = live.take_commit() else {
                return st;
            };
            let mut journal = live.journal.take().expect("take_commit found it home");
            let rec = JobRecord {
                job: js.stored.campaign.job(live.next),
                outcome: done.outcome.clone(),
            };
            let name = js.stored.campaign.name.clone();
            drop(st);

            // The unit's one render: the journal appends these bytes and
            // the broadcast sends them.
            let line = rec.render(&name);
            let committed = write_commit(m, &dir, &mut journal, &rec, &line, &done);

            st = self.lock();
            let live = st.live(id);
            live.journal = Some(journal);
            if let Err(e) = committed {
                let unit = live.units.get_mut(&live.next);
                unit.expect("a committing unit is in flight").stage = Stage::Parked(done);
                self.enter_degraded(&mut st, &e.to_string());
                return st;
            }
            self.finish_unit(&mut st, id, &done, &line);
        }
    }

    /// The bookkeeping half of finishing a unit whose commit landed:
    /// counters, broadcast of `line` (the record) and the unit's events,
    /// metrics, re-queue, releasing a finished job's working set.
    /// Broadcast happens only after the commit lands, so nothing a
    /// watcher sees can be lost to a store failure.
    fn finish_unit(&self, st: &mut State, id: &str, done: &UnitDone, line: &str) {
        let m = &self.inner.metrics;
        let js = st.jobs.get_mut(id).expect("a held job is in the table");
        let live = js.live.as_mut().expect("a held job is unfinished");
        let unit = live.next;
        js.done += 1;
        js.failed += usize::from(done.outcome.is_failed());
        live.units.remove(&unit);
        live.lines.insert(unit, done.outcome.is_failed(), line);
        live.next = live.uncommitted_from(unit);

        live.broadcast(&record_event(id, unit, line), m);
        if let Some(a) = &done.artifacts {
            live.broadcast(&text_event("stats", id, unit, &a.stats_json), m);
            live.broadcast(&text_event("epochs", id, unit, &a.epochs_jsonl), m);
        }
        live.broadcast(&progress_event(id, js.done, js.total), m);
        if js.done == js.total {
            live.broadcast(&done_event(id, js.done - js.failed, js.failed), m);
            // Last commit: release the record lines, the subscriber
            // list and the journal's file handle.
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
        // A commit frees a place for the job's next unit.
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

    /// One recovery attempt: probe the store root, under the lock. A
    /// failure doubles the backoff (capped).
    /// Success leaves degraded mode, then lands each refused job's parked
    /// outcomes, in job-id order, through [`Self::commit_in_order`] — its
    /// I/O unlocked like any commit's. Each job's journal is its own
    /// file, so the order moves no byte. A landing the store refuses parks
    /// its outcome again and re-enters degraded mode; the outcomes behind
    /// it wait for the next attempt.
    fn try_store_recovery<'a>(&'a self, mut st: MutexGuard<'a, State>) -> MutexGuard<'a, State> {
        let m = &self.inner.metrics;
        m.store_retries.inc();
        // An end-to-end writability probe through the same fsio layer
        // real writes use, so injected faults and genuinely full disks
        // agree on when the store is healthy.
        let probe = st.store.root().join(".recovery.probe");
        let healthy = write_atomic(&probe, b"ok").and_then(|()| std::fs::remove_file(&probe));
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
        // A job whose next unit is parked with its journal home was
        // refused: a healthy commit never leaves one behind.
        let refused: Vec<String> = st
            .jobs
            .iter()
            .filter(|(_, js)| js.live.as_ref().is_some_and(LiveJob::commit_due))
            .map(|(id, _)| id.clone())
            .collect();
        for id in refused {
            if st.degraded.is_some() {
                break;
            }
            self.start_turn(&mut st);
            st = self.commit_in_order(st, &id);
            self.end_turn(&mut st);
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

    /// Puts job `id` back in line if it has a slice to give and is not in
    /// line already, and wakes an idle worker for it.
    fn requeue(&self, st: &mut State, id: &str) {
        let cap = self.inner.max_workers;
        let Some(js) = st.jobs.get_mut(id) else {
            return; // finished and collected
        };
        let Some(live) = js.live.as_mut() else {
            return; // finished
        };
        if live.queued_at.is_some() || !live.runnable(cap) {
            return; // in line already, or every unit it may run is held
        }
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
        let stored = match st.store.accept(tenant, epochs, &campaign, shard) {
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
        let js = JobState::new(stored, journal, JournalLines::default());
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
            let dir = st.store.job_dir(id);
            let Some(js) = st.jobs.get_mut(id) else {
                drop(st);
                writeln!(writer, "{}", error_event(&format!("no such job '{id}'")))?;
                return Ok(());
            };
            let progress = progress_event(id, js.done, js.total);
            if let Some(live) = js.live.as_mut() {
                let mut replay = replay_events(&js.stored, &dir, &live.lines);
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
                let lines =
                    match CampaignJournal::replay(dir.join("journal.jsonl"), &stored.campaign) {
                        Ok(lines) => lines,
                        Err(e) => {
                            writeln!(writer, "{}", error_event(&format!("job '{id}': {e}")))?;
                            return Ok(());
                        }
                    };
                let mut replay = replay_events(&stored, &dir, &lines);
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
/// the journals (so the view survives restarts), each unfinished job with
/// the oldest unit a worker holds as `unit`; the tenant rollup adds queue
/// depth, every unit a worker holds, and this process's rejection tally.
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
        let held: Vec<usize> = js.live.as_ref().map_or(Vec::new(), |l| {
            l.in_stage(|s| matches!(s, Stage::Held)).collect()
        });
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
            match held.first() {
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
        for u in held {
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

/// The events a `watch` opens with: every committed unit's record line
/// (and, for observed jobs, its stored artifacts) in index order.
fn replay_events(stored: &StoredJob, dir: &std::path::Path, lines: &JournalLines) -> Vec<String> {
    let id = &stored.id;
    let mut replay = Vec::new();
    for l in lines.iter() {
        let i = l.index;
        replay.push(record_event(id, i, l.line));
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

/// The I/O of committing a unit: its artifacts, then the journal commit of
/// `line`, the record's rendered bytes — the commit point, its fsync
/// timed into the store-fsync histogram.
/// Artifacts land (atomically) before the commit: a crash in between
/// re-runs the unit and rewrites them bit-identically.
///
/// # Errors
/// Store I/O — the caller routes it into degraded mode.
fn write_commit(
    m: &ServeMetrics,
    dir: &std::path::Path,
    journal: &mut CampaignJournal,
    rec: &JobRecord,
    line: &str,
    done: &UnitDone,
) -> io::Result<()> {
    if let Some(a) = &done.artifacts {
        write_unit_artifacts(dir, rec.job.index, a)?;
    }
    let fsync_started = Instant::now();
    journal.append_deferred(rec.job.index, &rec.outcome, line)?;
    journal.sync()?;
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
    use dramctrl_campaign::Campaign;

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
        let mut js = JobState::new(stored, journal, JournalLines::default())
            .live
            .unwrap();
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
