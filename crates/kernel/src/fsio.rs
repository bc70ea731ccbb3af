//! Crash-safe filesystem primitives shared by every artifact writer.
//!
//! Two durability patterns cover everything the simulators write:
//!
//! - [`write_atomic`]: whole-file artifacts (reports, traces, checkpoints)
//!   are written to a temporary sibling, fsync'd, then renamed over the
//!   destination. A crash at any point leaves either the old file or the
//!   new one — never a torn half of each.
//! - [`DurableAppender`]: append-only journals get every record flushed
//!   and fsync'd before the append returns, so a record that was reported
//!   as committed survives the process dying on the very next instruction.
//!
//! Both primitives route every durability operation through the
//! [`fault`] injection layer, so a test (or the chaos explorer) can make
//! any write, fsync or rename fail with `ENOSPC`/`EIO`, tear a write in
//! half, or kill the process — deterministically, at the Nth matching
//! operation.

use std::fs::{File, OpenOptions};
use std::io::{self, Write};
use std::path::Path;
use std::sync::atomic::{AtomicU64, Ordering};

use fault::DurOp;

/// Distinguishes temp files created by concurrent threads of one process
/// writing the same destination path.
static TMP_SEQ: AtomicU64 = AtomicU64::new(0);

/// Writes `contents` to `path` atomically: the data lands in a temporary
/// file in the same directory (same filesystem, so the rename is atomic),
/// is fsync'd, and is then renamed over `path`. On Unix the parent
/// directory is fsync'd too, making the rename itself durable.
///
/// # Errors
/// Any I/O error from creating, writing, syncing or renaming the
/// temporary file; the temporary is removed on failure.
pub fn write_atomic(path: impl AsRef<Path>, contents: impl AsRef<[u8]>) -> io::Result<()> {
    let path = path.as_ref();
    let dir = path.parent().filter(|p| !p.as_os_str().is_empty());
    let file_name = path
        .file_name()
        .ok_or_else(|| io::Error::new(io::ErrorKind::InvalidInput, "path has no file name"))?;
    let mut tmp = std::ffi::OsString::from(".");
    tmp.push(file_name);
    // Pid alone is not enough: two threads of one process writing the
    // same path would race on a shared temp sibling. A per-process
    // counter makes every in-flight temp name unique.
    tmp.push(format!(
        ".tmp.{}.{}",
        std::process::id(),
        TMP_SEQ.fetch_add(1, Ordering::Relaxed)
    ));
    let tmp_path = match dir {
        Some(d) => d.join(&tmp),
        None => std::path::PathBuf::from(&tmp),
    };

    let result = (|| {
        fault::check(DurOp::Create, path)?;
        let mut f = File::create(&tmp_path)?;
        let bytes = contents.as_ref();
        fault::checked_write(&mut f, bytes, path)?;
        fault::check(DurOp::Fsync, path)?;
        f.sync_all()?;
        fault::check(DurOp::Rename, path)?;
        std::fs::rename(&tmp_path, path)?;
        if let Some(d) = dir {
            sync_dir(d)?;
        }
        Ok(())
    })();
    if result.is_err() {
        let _ = std::fs::remove_file(&tmp_path);
    }
    result
}

/// Fsyncs a directory so a rename inside it is durable. Windows cannot
/// open directories for syncing; the rename is still atomic there.
fn sync_dir(dir: &Path) -> io::Result<()> {
    fault::check(DurOp::DirSync, dir)?;
    #[cfg(unix)]
    {
        File::open(dir)?.sync_all()?;
    }
    #[cfg(not(unix))]
    {
        let _ = dir;
    }
    Ok(())
}

/// An append-only file whose every appended record is durable before the
/// append returns: written, flushed and fsync'd — or, for a caller that
/// batches ([`append_line_deferred`](Self::append_line_deferred) then
/// [`commit_batch`](Self::commit_batch)), before the batch's commit returns.
#[derive(Debug)]
pub struct DurableAppender {
    file: File,
    /// Where the file lives — kept for fault-injection path filters.
    path: std::path::PathBuf,
    /// Whether bytes have been written since the last fsync.
    dirty: bool,
}

impl DurableAppender {
    /// Creates the file (truncating any previous content) and makes the
    /// creation itself durable by syncing the parent directory.
    ///
    /// # Errors
    /// Any I/O error from creating or syncing.
    pub fn create(path: impl AsRef<Path>) -> io::Result<Self> {
        let path = path.as_ref();
        fault::check(DurOp::Create, path)?;
        let file = File::create(path)?;
        if let Some(dir) = path.parent().filter(|p| !p.as_os_str().is_empty()) {
            sync_dir(dir)?;
        }
        Ok(Self {
            file,
            path: path.to_path_buf(),
            dirty: false,
        })
    }

    /// Reopens an existing append-only line log whose complete, valid
    /// lines end at byte `valid_len` — the recovery rule of every such log
    /// here (campaign journals, the store's accept and tombstone logs).
    /// Whatever follows `valid_len` is the torn tail of an append that
    /// died partway and was never acknowledged: it is cut off (fsync'd)
    /// so the next append starts on a line boundary instead of gluing
    /// itself to the torn bytes. A file that already ends at `valid_len`
    /// is not touched, and no durability op is counted for it.
    ///
    /// # Errors
    /// Any I/O error from truncating, syncing or opening.
    pub fn reopen(path: impl AsRef<Path>, valid_len: u64) -> io::Result<Self> {
        let path = path.as_ref();
        if std::fs::metadata(path)?.len() > valid_len {
            fault::check(DurOp::Truncate, path)?;
            let file = OpenOptions::new().write(true).open(path)?;
            file.set_len(valid_len)?;
            fault::check(DurOp::Fsync, path)?;
            file.sync_data()?;
        }
        fault::check(DurOp::Create, path)?;
        let file = OpenOptions::new().append(true).open(path)?;
        Ok(Self {
            file,
            path: path.to_path_buf(),
            dirty: false,
        })
    }

    /// Appends `line` plus a newline; the record is fsync'd before this
    /// returns.
    ///
    /// # Errors
    /// Any I/O error from writing or syncing.
    pub fn append_line(&mut self, line: &str) -> io::Result<()> {
        self.append_line_deferred(line)?;
        self.sync()
    }

    /// Appends `line` plus a newline *without* forcing a sync: the bytes
    /// hit the file (a complete line, so a reader never sees a torn
    /// record from a live process) and the appender is marked dirty. The
    /// caller batches several of these and then calls
    /// [`commit_batch`](Self::commit_batch) — one fsync covers them all.
    ///
    /// # Errors
    /// Any I/O error from writing.
    pub fn append_line_deferred(&mut self, line: &str) -> io::Result<()> {
        fault::checked_write(&mut self.file, line.as_bytes(), &self.path)?;
        self.file.write_all(b"\n")?;
        self.dirty = true;
        Ok(())
    }

    /// Closes a batch of [`append_line_deferred`](Self::append_line_deferred)
    /// calls: fsyncs if and only if the appender is dirty, so a single
    /// fsync covers everything written since the last one.
    ///
    /// # Errors
    /// Any I/O error from syncing.
    pub fn commit_batch(&mut self) -> io::Result<()> {
        if self.dirty {
            self.sync()
        } else {
            Ok(())
        }
    }

    /// Whether appended bytes are still awaiting their fsync (a batch
    /// opened by [`append_line_deferred`](Self::append_line_deferred)).
    /// On-disk lines are complete either way; pending only means a crash
    /// could lose the tail.
    pub fn has_pending_batch(&self) -> bool {
        self.dirty
    }

    /// Fsyncs now, closing any open batch. A no-op when nothing is
    /// pending is still just one cheap fsync.
    ///
    /// # Errors
    /// Any I/O error from syncing.
    pub fn sync(&mut self) -> io::Result<()> {
        self.dirty = false;
        fault::check(DurOp::Fsync, &self.path)?;
        self.file.sync_data()
    }
}

impl Drop for DurableAppender {
    fn drop(&mut self) {
        // Best effort: don't let an open batch die with the handle. Errors
        // are unreportable here; the crash contract already tolerates a
        // lost tail.
        if self.dirty {
            let _ = self.file.sync_data();
        }
    }
}

pub mod fault {
    //! Deterministic storage-fault injection for every durability
    //! operation in this module (and therefore for everything built on
    //! it: campaign journals, snapshots, the serve store).
    //!
    //! A [`FaultPlan`] is a list of rules. Each rule names an action
    //! (`enospc`, `eio`, `short`, `crash`, `stall`), optional filters
    //! (`op=`, `path=` substring) and an optional window (`at=N`,
    //! `from=N`, `to=M` over the rule's own 1-based match count, or
    //! `gate=FILE` which keeps the rule live only while `FILE` exists —
    //! the handle that lets a test clear a fault on a *running* daemon).
    //! Plans are armed in-process with [`arm`] (scoped by the returned
    //! guard, so parallel tests compose as long as they filter by path)
    //! or for a whole process tree via the `DRAMCTRL_FAULT_PLAN`
    //! environment variable.
    //!
    //! `stall` is the one action that does not fail: it holds each op it
    //! fires on until its `gate=` file is removed, then lets the op run
    //! normally — a slow disk on demand. It requires `gate=`, and
    //! [`stalled`] counts the ops held right now, so a test can wait for
    //! "this fsync is in flight" instead of sleeping.
    //!
    //! Grammar, rules separated by `;`, fields by `,`:
    //!
    //! ```text
    //! enospc,op=fsync,path=accept.jsonl,at=3
    //! crash,at=17
    //! eio,op=write,from=2,to=4
    //! enospc,gate=/tmp/gate-file
    //! short,op=write,path=journal,at=5
    //! stall,op=fsync,path=job-0001/journal,at=2,gate=/tmp/gate-file
    //! ```
    //!
    //! Determinism: rules fire on their own match counters, never on
    //! wall-clock or randomness, so the Nth durability op of a
    //! deterministic workload is the same op every run. The disarmed
    //! fast path is one relaxed atomic load plus one relaxed increment
    //! of the global op counter ([`op_count`]) — it never changes any
    //! output byte, preserving the zero-perturbation discipline.
    //!
    //! `crash` terminates the process with exit code
    //! [`CRASH_EXIT_CODE`] before the op runs. To kill a campaign right
    //! after its Nth journal record, crash before the next record's
    //! write: `crash,op=write,path=journal.jsonl,at=N+2` (the header is
    //! the journal's first write).

    use std::io::{self, Write};
    use std::path::Path;
    use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
    use std::sync::{Mutex, OnceLock};

    /// Exit code used by injected crashes — distinguishable from a panic
    /// (101) and from clean exits.
    pub const CRASH_EXIT_CODE: i32 = 86;

    /// The durability operations a fault can attach to.
    #[derive(Debug, Clone, Copy, PartialEq, Eq)]
    pub enum DurOp {
        /// Creating (or opening for append) a durable file.
        Create,
        /// Writing payload bytes.
        Write,
        /// fsync / fdatasync of a file.
        Fsync,
        /// Atomic rename over the destination.
        Rename,
        /// Cutting a torn tail off an append-only log.
        Truncate,
        /// fsync of a parent directory.
        DirSync,
    }

    impl DurOp {
        /// Stable lower-case name used by the plan grammar and reports.
        pub fn name(self) -> &'static str {
            match self {
                DurOp::Create => "create",
                DurOp::Write => "write",
                DurOp::Fsync => "fsync",
                DurOp::Rename => "rename",
                DurOp::Truncate => "truncate",
                DurOp::DirSync => "dirsync",
            }
        }

        fn parse(s: &str) -> Result<Self, String> {
            Ok(match s {
                "create" => DurOp::Create,
                "write" => DurOp::Write,
                "fsync" => DurOp::Fsync,
                "rename" => DurOp::Rename,
                "truncate" => DurOp::Truncate,
                "dirsync" => DurOp::DirSync,
                other => return Err(format!("unknown op {other:?}")),
            })
        }
    }

    /// What an armed rule does when it fires.
    #[derive(Debug, Clone, Copy, PartialEq, Eq)]
    pub enum Action {
        /// Fail with `ENOSPC` (disk full).
        Enospc,
        /// Fail with `EIO` (generic I/O error).
        Eio,
        /// Write only half the payload, then fail with `ENOSPC` —
        /// produces a real torn record on disk. On non-write ops this
        /// degenerates to plain `ENOSPC`.
        Short,
        /// Kill the process with [`CRASH_EXIT_CODE`] before the op runs.
        Crash,
        /// Hold the op until the rule's gate file is removed, then let it
        /// run normally.
        Stall,
    }

    impl Action {
        fn parse(s: &str) -> Result<Self, String> {
            Ok(match s {
                "enospc" => Action::Enospc,
                "eio" => Action::Eio,
                "short" => Action::Short,
                "crash" => Action::Crash,
                "stall" => Action::Stall,
                other => return Err(format!("unknown action {other:?}")),
            })
        }
    }

    /// One injection rule: action + filters + firing window.
    #[derive(Debug, Clone)]
    pub struct FaultRule {
        action: Action,
        /// Only ops of this kind match (`None`: all ops).
        op: Option<DurOp>,
        /// Only paths whose UTF-8 form contains this substring match.
        path_substr: Option<String>,
        /// Rule is live only while this file exists.
        gate: Option<std::path::PathBuf>,
        /// 1-based first match that fires (`at=`/`from=`).
        from: u64,
        /// 1-based last match that fires (`at=`/`to=`), inclusive.
        to: u64,
    }

    impl FaultRule {
        fn parse(spec: &str) -> Result<Self, String> {
            let mut fields = spec.split(',').map(str::trim);
            let action = Action::parse(fields.next().unwrap_or(""))?;
            let mut rule = FaultRule {
                action,
                op: None,
                path_substr: None,
                gate: None,
                from: 1,
                to: u64::MAX,
            };
            for field in fields {
                let (key, value) = field
                    .split_once('=')
                    .ok_or_else(|| format!("expected key=value, got {field:?}"))?;
                let num = || {
                    value
                        .parse::<u64>()
                        .map_err(|_| format!("{key}= wants a number, got {value:?}"))
                };
                match key {
                    "op" => rule.op = Some(DurOp::parse(value)?),
                    "path" => rule.path_substr = Some(value.to_owned()),
                    "gate" => rule.gate = Some(std::path::PathBuf::from(value)),
                    "at" => {
                        rule.from = num()?;
                        rule.to = rule.from;
                    }
                    "from" => rule.from = num()?,
                    "to" => rule.to = num()?,
                    other => return Err(format!("unknown field {other:?} in {spec:?}")),
                }
            }
            if rule.from == 0 {
                return Err(format!("match counts are 1-based in {spec:?}"));
            }
            if rule.action == Action::Stall && rule.gate.is_none() {
                return Err(format!("stall needs gate=FILE to release it in {spec:?}"));
            }
            Ok(rule)
        }
    }

    /// A parsed, not-yet-armed set of fault rules.
    #[derive(Debug, Clone, Default)]
    pub struct FaultPlan {
        rules: Vec<FaultRule>,
    }

    impl FaultPlan {
        /// Parses a plan from the `;`-separated grammar described in the
        /// module docs. Empty specs yield an empty (no-op) plan.
        ///
        /// # Errors
        /// A description of the first malformed rule.
        pub fn parse(spec: &str) -> Result<Self, String> {
            let rules = spec
                .split(';')
                .map(str::trim)
                .filter(|r| !r.is_empty())
                .map(FaultRule::parse)
                .collect::<Result<Vec<_>, _>>()?;
            Ok(Self { rules })
        }

        /// Number of rules in the plan.
        pub fn len(&self) -> usize {
            self.rules.len()
        }

        /// Whether the plan has no rules (a no-op when armed).
        pub fn is_empty(&self) -> bool {
            self.rules.is_empty()
        }
    }

    /// One armed rule plus its private match counter.
    #[derive(Debug)]
    struct ActiveRule {
        guard_id: u64,
        rule: FaultRule,
        matches: u64,
    }

    /// Fast path: false ⇒ `check` costs two relaxed atomics and no lock.
    static ARMED: AtomicBool = AtomicBool::new(false);
    /// Every durability op ever checked in this process, armed or not —
    /// the crash-point explorer sizes its matrix from this.
    static OPS: AtomicU64 = AtomicU64::new(0);
    static NEXT_GUARD: AtomicU64 = AtomicU64::new(1);
    /// Ops a `stall` rule is holding right now.
    static STALLED: AtomicU64 = AtomicU64::new(0);

    fn rules() -> &'static Mutex<Vec<ActiveRule>> {
        static RULES: OnceLock<Mutex<Vec<ActiveRule>>> = OnceLock::new();
        RULES.get_or_init(|| {
            let mut initial = Vec::new();
            if let Ok(spec) = std::env::var("DRAMCTRL_FAULT_PLAN") {
                // A malformed plan must not be silently ignored: the
                // test believes faults are armed.
                let plan = FaultPlan::parse(&spec)
                    .unwrap_or_else(|e| panic!("bad DRAMCTRL_FAULT_PLAN {spec:?}: {e}"));
                for rule in plan.rules {
                    initial.push(ActiveRule {
                        guard_id: 0,
                        rule,
                        matches: 0,
                    });
                }
            }
            if !initial.is_empty() {
                ARMED.store(true, Ordering::Relaxed);
            }
            Mutex::new(initial)
        })
    }

    /// Disarms the rules of a dropped [`arm`] guard. Env-armed rules
    /// (guard id 0) live for the whole process.
    #[derive(Debug)]
    pub struct FaultGuard {
        id: u64,
    }

    impl Drop for FaultGuard {
        fn drop(&mut self) {
            let mut rules = rules().lock().unwrap();
            rules.retain(|r| r.guard_id != self.id);
            ARMED.store(!rules.is_empty(), Ordering::Relaxed);
        }
    }

    /// Arms `plan` in-process, *adding* its rules to whatever is already
    /// armed; the rules live until the returned guard drops. Parallel
    /// tests stay independent by filtering on their own temp paths.
    pub fn arm(plan: FaultPlan) -> FaultGuard {
        let id = NEXT_GUARD.fetch_add(1, Ordering::Relaxed);
        let mut rules = rules().lock().unwrap();
        for rule in plan.rules {
            rules.push(ActiveRule {
                guard_id: id,
                rule,
                matches: 0,
            });
        }
        ARMED.store(!rules.is_empty(), Ordering::Relaxed);
        FaultGuard { id }
    }

    /// Parses and arms in one step.
    ///
    /// # Errors
    /// A description of the first malformed rule.
    pub fn arm_str(spec: &str) -> Result<FaultGuard, String> {
        Ok(arm(FaultPlan::parse(spec)?))
    }

    /// Total durability operations checked by this process so far
    /// (armed or not). A deterministic workload always reports the same
    /// count, which is exactly what the crash-point explorer enumerates.
    pub fn op_count() -> u64 {
        OPS.load(Ordering::Relaxed)
    }

    /// Durability ops a `stall` rule is holding at this instant, across
    /// the process.
    pub fn stalled() -> u64 {
        STALLED.load(Ordering::SeqCst)
    }

    /// Terminates the process the way an injected crash does: exit code
    /// [`CRASH_EXIT_CODE`], stdout flushed so a harness reading our
    /// progress lines sees everything acknowledged before the "power
    /// cut".
    fn crash_now() -> ! {
        let _ = io::stdout().flush();
        std::process::exit(CRASH_EXIT_CODE)
    }

    fn injected(kind: i32, what: &str, op: DurOp, path: &Path) -> io::Error {
        let base = io::Error::from_raw_os_error(kind);
        io::Error::new(
            base.kind(),
            format!("injected {what} at {} {}", op.name(), path.display()),
        )
    }

    #[cfg(unix)]
    const ENOSPC: i32 = 28;
    #[cfg(unix)]
    const EIO: i32 = 5;
    #[cfg(not(unix))]
    const ENOSPC: i32 = 112;
    #[cfg(not(unix))]
    const EIO: i32 = 1117;

    /// The failure `op` on `path` must report, if any. A `stall` is
    /// served here — held, with the plan unlocked so other ops go on
    /// being checked, until its gate file goes — and then reads `None`:
    /// the op proceeds.
    fn fire(op: DurOp, path: &Path) -> Option<Action> {
        let (action, gate) = matching_rule(op, path)?;
        if action != Action::Stall {
            return Some(action);
        }
        let gate = gate.expect("a stall rule parses only with a gate");
        STALLED.fetch_add(1, Ordering::SeqCst);
        while gate.exists() {
            std::thread::sleep(std::time::Duration::from_millis(1));
        }
        STALLED.fetch_sub(1, Ordering::SeqCst);
        None
    }

    /// Consults the armed plan for `op` on `path`: returns the action and
    /// gate of the first rule whose filters, gate and window all match
    /// (also bumping that rule's match counter), or `None`. An
    /// un-windowed matching rule keeps firing until disarmed.
    fn matching_rule(op: DurOp, path: &Path) -> Option<(Action, Option<std::path::PathBuf>)> {
        OPS.fetch_add(1, Ordering::Relaxed);
        // The env-var plan loads inside `rules()`, which nothing calls
        // until a plan is armed in-process — so force that one-time load
        // here, or `ARMED` would short-circuit an env-armed process
        // forever. After the first call this is a single atomic load.
        static ENV_INIT: std::sync::Once = std::sync::Once::new();
        ENV_INIT.call_once(|| {
            let _ = rules();
        });
        if !ARMED.load(Ordering::Relaxed) {
            return None;
        }
        let mut rules = rules().lock().unwrap();
        let text = path.to_string_lossy();
        for active in rules.iter_mut() {
            let r = &active.rule;
            if r.op.is_some_and(|want| want != op) {
                continue;
            }
            if r.path_substr.as_deref().is_some_and(|s| !text.contains(s)) {
                continue;
            }
            if r.gate.as_deref().is_some_and(|g| !g.exists()) {
                continue;
            }
            active.matches += 1;
            if active.matches >= active.rule.from && active.matches <= active.rule.to {
                return Some((active.rule.action, active.rule.gate.clone()));
            }
        }
        None
    }

    /// Gate for non-write durability ops: fails (or crashes) if an armed
    /// rule fires, else lets the real operation proceed.
    ///
    /// # Errors
    /// The injected `ENOSPC`/`EIO` when a rule fires.
    pub fn check(op: DurOp, path: &Path) -> io::Result<()> {
        match fire(op, path) {
            None | Some(Action::Stall) => Ok(()),
            Some(Action::Crash) => crash_now(),
            Some(Action::Eio) => Err(injected(EIO, "eio", op, path)),
            Some(Action::Enospc | Action::Short) => Err(injected(ENOSPC, "enospc", op, path)),
        }
    }

    /// Gate for payload writes: on `short` it writes the first half of
    /// `bytes` for real before failing, leaving a genuinely torn record
    /// for recovery code to face.
    ///
    /// # Errors
    /// The injected `ENOSPC`/`EIO` when a rule fires, or a real error
    /// from the underlying write.
    pub fn checked_write(file: &mut impl Write, bytes: &[u8], path: &Path) -> io::Result<()> {
        match fire(DurOp::Write, path) {
            None | Some(Action::Stall) => file.write_all(bytes),
            Some(Action::Crash) => crash_now(),
            Some(Action::Eio) => Err(injected(EIO, "eio", DurOp::Write, path)),
            Some(Action::Enospc) => Err(injected(ENOSPC, "enospc", DurOp::Write, path)),
            Some(Action::Short) => {
                file.write_all(&bytes[..bytes.len() / 2])?;
                Err(injected(ENOSPC, "short write", DurOp::Write, path))
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tmp_dir(name: &str) -> std::path::PathBuf {
        let d = std::env::temp_dir().join(format!("dramctrl-fsio-{}-{name}", std::process::id()));
        let _ = std::fs::remove_dir_all(&d);
        std::fs::create_dir_all(&d).unwrap();
        d
    }

    #[test]
    fn write_atomic_replaces_and_leaves_no_temp() {
        let d = tmp_dir("atomic");
        let p = d.join("out.json");
        write_atomic(&p, "first").unwrap();
        assert_eq!(std::fs::read_to_string(&p).unwrap(), "first");
        write_atomic(&p, "second").unwrap();
        assert_eq!(std::fs::read_to_string(&p).unwrap(), "second");
        // No stray temporaries survive a successful write.
        let stray: Vec<_> = std::fs::read_dir(&d)
            .unwrap()
            .map(|e| e.unwrap().file_name())
            .filter(|n| n != "out.json")
            .collect();
        assert!(stray.is_empty(), "leftover files: {stray:?}");
        std::fs::remove_dir_all(&d).unwrap();
    }

    #[test]
    fn write_atomic_relative_path_in_cwd_works() {
        let d = tmp_dir("rel");
        let p = d.join("nested").join("out.txt");
        std::fs::create_dir_all(p.parent().unwrap()).unwrap();
        write_atomic(&p, b"data".as_slice()).unwrap();
        assert_eq!(std::fs::read(&p).unwrap(), b"data");
        std::fs::remove_dir_all(&d).unwrap();
    }

    #[test]
    fn appender_accumulates_lines() {
        let d = tmp_dir("append");
        let p = d.join("j.jsonl");
        let mut a = DurableAppender::create(&p).unwrap();
        a.append_line("one").unwrap();
        a.append_line("two").unwrap();
        drop(a);
        let mut b = DurableAppender::reopen(&p, 8).unwrap();
        b.append_line("three").unwrap();
        assert!(
            !b.has_pending_batch(),
            "append_line syncs before it returns"
        );
        // Deferred appends are complete, visible lines awaiting one sync.
        b.append_line_deferred("four").unwrap();
        b.append_line_deferred("five").unwrap();
        assert!(b.has_pending_batch());
        assert_eq!(
            std::fs::read_to_string(&p).unwrap(),
            "one\ntwo\nthree\nfour\nfive\n"
        );
        b.commit_batch().unwrap();
        assert!(!b.has_pending_batch());
        std::fs::remove_dir_all(&d).unwrap();
    }

    #[test]
    fn reopen_cuts_a_torn_tail_and_truncates_only_then() {
        let d = tmp_dir("reopen");
        let p = d.join("log.jsonl");
        // A truncate that is attempted fails: the op is in the stream only
        // when there are bytes to cut.
        let spec = format!("eio,op=truncate,path={}", p.display());
        let guard = fault::arm_str(&spec).unwrap();
        std::fs::write(&p, "one\ntwo\n").unwrap();
        DurableAppender::reopen(&p, 8).expect("nothing to cut, nothing truncated");
        std::fs::write(&p, "one\ntwo\n{\"torn").unwrap();
        let err = DurableAppender::reopen(&p, 8).unwrap_err();
        assert!(
            err.to_string().contains("injected eio at truncate"),
            "{err}"
        );
        drop(guard);
        // Disarmed, the torn bytes go and the next line starts clean.
        let mut a = DurableAppender::reopen(&p, 8).unwrap();
        a.append_line("three").unwrap();
        assert_eq!(std::fs::read_to_string(&p).unwrap(), "one\ntwo\nthree\n");
        std::fs::remove_dir_all(&d).unwrap();
    }

    #[test]
    fn concurrent_write_atomic_to_one_path_never_collides() {
        let d = tmp_dir("race");
        let p = d.join("shared.json");
        std::thread::scope(|s| {
            for t in 0..8 {
                let p = p.clone();
                s.spawn(move || {
                    for i in 0..20 {
                        write_atomic(&p, format!("writer-{t}-{i}")).unwrap();
                    }
                });
            }
        });
        // Whoever won last, the file is a complete record and no temp
        // sibling survived the race.
        let text = std::fs::read_to_string(&p).unwrap();
        assert!(text.starts_with("writer-"), "{text:?}");
        let stray: Vec<_> = std::fs::read_dir(&d)
            .unwrap()
            .map(|e| e.unwrap().file_name())
            .filter(|n| n != "shared.json")
            .collect();
        assert!(stray.is_empty(), "leftover temp files: {stray:?}");
        std::fs::remove_dir_all(&d).unwrap();
    }

    #[test]
    fn fault_plan_grammar_rejects_nonsense() {
        for bad in [
            "explode",
            "enospc,at=zero",
            "enospc,op=telepathy",
            "crash,at=0",
            "enospc,window",
            // Nothing would ever release the held op.
            "stall,op=fsync,path=journal,at=2",
        ] {
            assert!(fault::FaultPlan::parse(bad).is_err(), "accepted {bad:?}");
        }
        assert!(fault::FaultPlan::parse("").unwrap().is_empty());
        assert_eq!(
            fault::FaultPlan::parse("enospc,op=fsync,at=3; crash,path=x; stall,at=2,gate=/g")
                .unwrap()
                .len(),
            3
        );
    }

    /// The only test here that stalls: `stalled()` is process-wide.
    #[test]
    fn stall_holds_the_matching_op_until_its_gate_goes_then_performs_it() {
        let d = tmp_dir("fault-stall");
        let gate = d.join("gate");
        let p = d.join("j.jsonl");
        std::fs::write(&gate, "").unwrap();
        let spec = format!(
            "stall,op=fsync,path=fault-stall/j,at=2,gate={}",
            gate.display()
        );
        let _g = fault::arm_str(&spec).unwrap();
        let mut a = DurableAppender::create(&p).unwrap();
        a.append_line("first").unwrap(); // fsync match 1: outside the window
        assert_eq!(fault::stalled(), 0);
        let held = std::thread::spawn(move || {
            a.append_line("second").unwrap(); // match 2: held
            a
        });
        let deadline = std::time::Instant::now() + std::time::Duration::from_secs(10);
        while fault::stalled() != 1 {
            assert!(
                std::time::Instant::now() < deadline,
                "the fsync never stalled"
            );
            std::thread::yield_now();
        }
        // The write before the held fsync has landed; the append has not
        // returned.
        assert_eq!(std::fs::read_to_string(&p).unwrap(), "first\nsecond\n");
        assert!(!held.is_finished());
        // Other ops are checked (and run) while one is held.
        write_atomic(d.join("other"), "x").unwrap();
        std::fs::remove_file(&gate).unwrap();
        let mut a = held.join().unwrap();
        assert_eq!(fault::stalled(), 0);
        // Gate gone, rule dead: later fsyncs are not held.
        a.append_line("third").unwrap();
        assert_eq!(
            std::fs::read_to_string(&p).unwrap(),
            "first\nsecond\nthird\n"
        );
        std::fs::remove_dir_all(&d).unwrap();
    }

    #[test]
    fn injected_enospc_fails_write_atomic_and_preserves_old_contents() {
        let d = tmp_dir("fault-enospc");
        let p = d.join("report.json");
        write_atomic(&p, "good").unwrap();
        let _g = fault::arm_str("enospc,op=fsync,path=fault-enospc").unwrap();
        let err = write_atomic(&p, "doomed").unwrap_err();
        assert!(err.to_string().contains("injected enospc"), "{err}");
        drop(_g);
        // Old contents intact, failed temp cleaned up, and after disarm
        // the same write succeeds.
        assert_eq!(std::fs::read_to_string(&p).unwrap(), "good");
        assert_eq!(std::fs::read_dir(&d).unwrap().count(), 1);
        write_atomic(&p, "better").unwrap();
        assert_eq!(std::fs::read_to_string(&p).unwrap(), "better");
        std::fs::remove_dir_all(&d).unwrap();
    }

    #[test]
    fn short_write_tears_an_append_mid_record() {
        let d = tmp_dir("fault-short");
        let p = d.join("j.jsonl");
        let mut a = DurableAppender::create(&p).unwrap();
        a.append_line("whole-record-1").unwrap();
        let g = fault::arm_str("short,op=write,path=fault-short").unwrap();
        let err = a.append_line("whole-record-2").unwrap_err();
        assert!(err.to_string().contains("short write"), "{err}");
        drop(g);
        // Half the record and no newline: a genuinely torn tail.
        assert_eq!(
            std::fs::read_to_string(&p).unwrap(),
            "whole-record-1\nwhole-r"
        );
        std::fs::remove_dir_all(&d).unwrap();
    }

    #[test]
    fn at_window_fires_exactly_once_then_heals() {
        let d = tmp_dir("fault-window");
        let p = d.join("j.jsonl");
        let _g = fault::arm_str("eio,op=write,path=fault-window,at=3").unwrap();
        let mut a = DurableAppender::create(&p).unwrap();
        a.append_line("one").unwrap();
        a.append_line("two").unwrap();
        let err = a.append_line("three").unwrap_err();
        assert!(err.to_string().contains("injected eio"), "{err}");
        a.append_line("four").unwrap();
        assert_eq!(std::fs::read_to_string(&p).unwrap(), "one\ntwo\nfour\n");
        std::fs::remove_dir_all(&d).unwrap();
    }

    #[test]
    fn gate_rule_faults_only_while_gate_file_exists() {
        let d = tmp_dir("fault-gate");
        let gate = d.join("gate");
        let p = d.join("j.jsonl");
        let spec = format!(
            "enospc,op=fsync,path=fault-gate,gate={}",
            gate.to_str().unwrap()
        );
        let _g = fault::arm_str(&spec).unwrap();
        let mut a = DurableAppender::create(&p).unwrap();
        a.append_line("before").unwrap();
        std::fs::write(&gate, "").unwrap();
        assert!(a
            .append_line("while-gated")
            .unwrap_err()
            .to_string()
            .contains("enospc"));
        std::fs::remove_file(&gate).unwrap();
        a.append_line("after").unwrap();
        std::fs::remove_dir_all(&d).unwrap();
    }

    #[test]
    fn op_count_grows_with_every_durability_op() {
        let d = tmp_dir("fault-count");
        let before = fault::op_count();
        // create(tmp) + write + fsync + rename + dirsync = 5 ops, though
        // parallel tests may add their own — only monotonicity and a
        // lower bound are portable assertions.
        write_atomic(d.join("x"), "x").unwrap();
        assert!(fault::op_count() >= before + 5);
        std::fs::remove_dir_all(&d).unwrap();
    }
}
