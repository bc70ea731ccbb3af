//! The fault injector and degradation bookkeeping engine.
//!
//! The controllers call [`FaultModel::classify_burst`] once per serviced
//! burst (at the tick the data transfer completes): it runs
//! [`FaultModel::check`], marks the outcome on the controller's probe and
//! tells the controller whether to replay the burst (a link error with
//! retry budget left). Corrected and silent faults keep going,
//! uncorrectable ones degrade (remap / offline) — the degradation decision
//! is made here, and [`FaultModel::live_rank`] folds an offlined rank's
//! traffic onto the survivors, so both controllers share one policy.

use crate::config::{per_tick, RasConfig};
use crate::ecc::{classify, EccOutcome};
use dramctrl_kernel::hash::DetMap;
use dramctrl_kernel::rng::splitmix64;
use dramctrl_kernel::snap::{SnapError, SnapReader, SnapState, SnapWriter};
use dramctrl_kernel::Tick;
use dramctrl_mem::{DramAddr, Organisation};
use dramctrl_obs::{Probe, RasMark};
use dramctrl_stats::Report;

/// The kinds of fault the injector models.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum FaultKind {
    /// Transient single-bit upset (cleared once observed).
    Transient,
    /// Stuck-at row: a persistent single-symbol fault in one row.
    StuckRow,
    /// Hard chip/rank failure: persistent multi-symbol corruption.
    RankFail,
    /// Write-CRC error signalled via ALERT_n (DDR4-style).
    WriteCrc,
    /// Command/address parity error.
    CaParity,
}

impl FaultKind {
    /// Canonical lower-case name used in fault logs.
    pub fn name(self) -> &'static str {
        match self {
            FaultKind::Transient => "transient",
            FaultKind::StuckRow => "stuck-row",
            FaultKind::RankFail => "rank-fail",
            FaultKind::WriteCrc => "write-crc",
            FaultKind::CaParity => "ca-parity",
        }
    }
}

/// What the controller should do with a just-serviced burst.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BurstOutcome {
    /// No fault: proceed normally.
    Clean,
    /// A fault occurred and ECC corrected it: proceed, count it.
    Corrected,
    /// A detected-uncorrectable fault: data is poisoned, degradation has
    /// been recorded; proceed (deliver the poisoned response) rather than
    /// abort.
    Uncorrected,
    /// An undetected fault: silent data corruption (only the simulator
    /// knows); proceed.
    Silent,
    /// A link error (write CRC or C/A parity): the burst did not take
    /// effect — retry it with backoff, or give up after
    /// [`RasConfig::max_retries`].
    LinkError,
}

impl BurstOutcome {
    /// Canonical lower-case name used in fault logs.
    pub fn name(self) -> &'static str {
        match self {
            BurstOutcome::Clean => "clean",
            BurstOutcome::Corrected => "corrected",
            BurstOutcome::Uncorrected => "uncorrected",
            BurstOutcome::Silent => "silent",
            BurstOutcome::LinkError => "link-error",
        }
    }
}

/// Everything [`FaultModel::check`] decided about one burst.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BurstReport {
    /// The controller-facing disposition.
    pub outcome: BurstOutcome,
    /// The underlying fault, when one occurred.
    pub kind: Option<FaultKind>,
    /// Whether this burst's row was just remapped to a spare.
    pub remapped: bool,
    /// A rank that was just taken offline by this burst, if any.
    pub offlined_rank: Option<u32>,
}

impl BurstReport {
    fn clean() -> Self {
        Self {
            outcome: BurstOutcome::Clean,
            kind: None,
            remapped: false,
            offlined_rank: None,
        }
    }
}

/// One entry of the deterministic fault log.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FaultRecord {
    /// Tick the fault was observed (burst data-end time).
    pub at: Tick,
    /// Faulting rank.
    pub rank: u32,
    /// Faulting bank.
    pub bank: u32,
    /// Faulting row.
    pub row: u64,
    /// What went wrong.
    pub kind: FaultKind,
    /// How it was classified / handled.
    pub outcome: BurstOutcome,
}

/// Error, retry and degradation counters. All start at zero; the
/// controllers publish them as `ras_*` report entries.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct RasStats {
    /// Transient single-bit upsets injected.
    pub transient_faults: u64,
    /// Stuck-at row onsets injected.
    pub stuck_rows: u64,
    /// Hard rank failures injected.
    pub rank_failures: u64,
    /// Write-CRC (ALERT_n) link errors.
    pub crc_errors: u64,
    /// Command/address parity errors.
    pub parity_errors: u64,
    /// Bursts whose fault ECC corrected.
    pub corrected: u64,
    /// Bursts with detected-uncorrectable faults (including retry
    /// give-ups).
    pub uncorrected: u64,
    /// Bursts with silent (undetected) corruption.
    pub silent: u64,
    /// In-queue burst retries performed.
    pub retries: u64,
    /// Bursts whose retry budget was exhausted.
    pub retries_exhausted: u64,
    /// Rows remapped to the spare-row pool.
    pub row_remaps: u64,
    /// Ranks taken offline.
    pub ranks_offlined: u64,
}

impl RasStats {
    /// The counters as stable `(name, value)` report entries, in a fixed
    /// order, prefixed `ras_`.
    pub fn entries(&self) -> [(&'static str, u64); 12] {
        [
            ("ras_transient_faults", self.transient_faults),
            ("ras_stuck_rows", self.stuck_rows),
            ("ras_rank_failures", self.rank_failures),
            ("ras_crc_errors", self.crc_errors),
            ("ras_parity_errors", self.parity_errors),
            ("ras_corrected", self.corrected),
            ("ras_uncorrected", self.uncorrected),
            ("ras_silent", self.silent),
            ("ras_retries", self.retries),
            ("ras_retries_exhausted", self.retries_exhausted),
            ("ras_row_remaps", self.row_remaps),
            ("ras_ranks_offlined", self.ranks_offlined),
        ]
    }
}

/// Per-row fault stream state.
#[derive(Debug, Clone)]
struct RowState {
    /// SplitMix64 stream state, keyed by `(seed, rank, bank, row)`.
    stream: u64,
    /// Tick of the last cell-fault evaluation for this row.
    last: Tick,
    /// A stuck-at fault is active on this row.
    stuck: bool,
    /// The row has been remapped to a spare (clean again).
    remapped: bool,
}

/// Per-rank hard-failure stream state.
#[derive(Debug, Clone)]
struct RankState {
    stream: u64,
    last: Tick,
}

/// The seeded deterministic fault injector plus the shared degradation
/// policy (spare-row remap, then rank offlining).
///
/// All probability draws advance SplitMix64 streams keyed by the fault
/// site, so the decision for an access depends only on the seed and the
/// sequence of accesses to that site — never on unrelated traffic,
/// thread interleaving or map iteration order.
#[derive(Debug, Clone)]
pub struct FaultModel {
    cfg: RasConfig,
    /// The channel: its slots index `spares`, its sizes scale the rates.
    org: Organisation,
    /// Per-tick Poisson intensities (precomputed from the per-Gb·h rates).
    l_transient: f64,
    l_stuck: f64,
    l_rank: f64,
    rows: DetMap<(u32, u32, u64), RowState>,
    ranks: Vec<RankState>,
    /// Bit `r` set = rank `r` is offline.
    offline_mask: u32,
    /// Remaining spare rows per flat (rank, bank).
    spares: Vec<u32>,
    stats: RasStats,
    log: Vec<FaultRecord>,
}

impl FaultKind {
    fn tag(self) -> u8 {
        match self {
            FaultKind::Transient => 0,
            FaultKind::StuckRow => 1,
            FaultKind::RankFail => 2,
            FaultKind::WriteCrc => 3,
            FaultKind::CaParity => 4,
        }
    }

    fn from_tag(t: u8) -> Result<Self, SnapError> {
        Ok(match t {
            0 => FaultKind::Transient,
            1 => FaultKind::StuckRow,
            2 => FaultKind::RankFail,
            3 => FaultKind::WriteCrc,
            4 => FaultKind::CaParity,
            _ => return Err(SnapError::Corrupt(format!("fault kind tag {t}"))),
        })
    }
}

impl BurstOutcome {
    fn tag(self) -> u8 {
        match self {
            BurstOutcome::Clean => 0,
            BurstOutcome::Corrected => 1,
            BurstOutcome::Uncorrected => 2,
            BurstOutcome::Silent => 3,
            BurstOutcome::LinkError => 4,
        }
    }

    fn from_tag(t: u8) -> Result<Self, SnapError> {
        Ok(match t {
            0 => BurstOutcome::Clean,
            1 => BurstOutcome::Corrected,
            2 => BurstOutcome::Uncorrected,
            3 => BurstOutcome::Silent,
            4 => BurstOutcome::LinkError,
            _ => return Err(SnapError::Corrupt(format!("burst outcome tag {t}"))),
        })
    }
}

impl SnapState for FaultModel {
    // The config-derived fields (`cfg`, `org`, `l_*`) are rebuilt by
    // constructing the restore target with [`FaultModel::new`]; only the
    // dynamic fault-stream state is captured. Row keys are written sorted
    // so the snapshot bytes do not depend on access order.
    fn save_state(&self, w: &mut SnapWriter) {
        let mut keys: Vec<(u32, u32, u64)> = self.rows.keys().copied().collect();
        keys.sort_unstable();
        w.usize(keys.len());
        for k in keys {
            let rs = &self.rows[&k];
            w.u32(k.0);
            w.u32(k.1);
            w.u64(k.2);
            w.u64(rs.stream);
            w.u64(rs.last);
            w.bool(rs.stuck);
            w.bool(rs.remapped);
        }
        w.usize(self.ranks.len());
        for rk in &self.ranks {
            w.u64(rk.stream);
            w.u64(rk.last);
        }
        w.u32(self.offline_mask);
        w.usize(self.spares.len());
        for &s in &self.spares {
            w.u32(s);
        }
        for (_, v) in self.stats.entries() {
            w.u64(v);
        }
        w.usize(self.log.len());
        for r in &self.log {
            w.u64(r.at);
            w.u32(r.rank);
            w.u32(r.bank);
            w.u64(r.row);
            w.u8(r.kind.tag());
            w.u8(r.outcome.tag());
        }
    }

    fn restore_state(&mut self, r: &mut SnapReader<'_>) -> Result<(), SnapError> {
        self.rows.clear();
        let n_rows = r.usize()?;
        for _ in 0..n_rows {
            let key = (r.u32()?, r.u32()?, r.u64()?);
            let rs = RowState {
                stream: r.u64()?,
                last: r.u64()?,
                stuck: r.bool()?,
                remapped: r.bool()?,
            };
            if self.rows.insert(key, rs).is_some() {
                return Err(SnapError::Corrupt(format!("duplicate row key {key:?}")));
            }
        }
        let n_ranks = r.usize()?;
        if n_ranks != self.ranks.len() {
            return Err(SnapError::Corrupt(format!(
                "rank count {n_ranks} != geometry {}",
                self.ranks.len()
            )));
        }
        for rk in &mut self.ranks {
            rk.stream = r.u64()?;
            rk.last = r.u64()?;
        }
        self.offline_mask = r.u32()?;
        let n_spares = r.usize()?;
        if n_spares != self.spares.len() {
            return Err(SnapError::Corrupt(format!(
                "spare-pool count {n_spares} != geometry {}",
                self.spares.len()
            )));
        }
        for s in &mut self.spares {
            *s = r.u32()?;
        }
        self.stats = RasStats {
            transient_faults: r.u64()?,
            stuck_rows: r.u64()?,
            rank_failures: r.u64()?,
            crc_errors: r.u64()?,
            parity_errors: r.u64()?,
            corrected: r.u64()?,
            uncorrected: r.u64()?,
            silent: r.u64()?,
            retries: r.u64()?,
            retries_exhausted: r.u64()?,
            row_remaps: r.u64()?,
            ranks_offlined: r.u64()?,
        };
        let n_log = r.usize()?;
        self.log.clear();
        for _ in 0..n_log {
            self.log.push(FaultRecord {
                at: r.u64()?,
                rank: r.u32()?,
                bank: r.u32()?,
                row: r.u64()?,
                kind: FaultKind::from_tag(r.u8()?)?,
                outcome: BurstOutcome::from_tag(r.u8()?)?,
            });
        }
        Ok(())
    }
}

/// The first rank at or (cyclically) after `rank` whose bit in
/// `offline_mask` is clear. With every rank offline the rank is returned
/// unchanged — the model never offlines the last survivor.
fn remap_rank(rank: u32, offline_mask: u32, ranks: u32) -> u32 {
    if ranks == 0 || offline_mask.count_ones() >= ranks {
        return rank;
    }
    let mut r = rank % ranks;
    while offline_mask & (1 << r) != 0 {
        r = (r + 1) % ranks;
    }
    r
}

/// Uniform `[0, 1)` from a u64 draw, bit-exact on every platform.
fn unit(draw: u64) -> f64 {
    (draw >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
}

/// Decorrelated SplitMix64 stream seed for a fault site.
fn stream_seed(seed: u64, rank: u32, bank: u32, row: u64) -> u64 {
    let mut s = seed
        ^ u64::from(rank).wrapping_mul(0xA24B_AED4_963E_E407)
        ^ u64::from(bank).wrapping_mul(0x9E6D_62D0_6F6A_9A9B)
        ^ row.wrapping_mul(0xD134_2543_DE82_EF95);
    let _ = splitmix64(&mut s); // whiten so nearby sites decorrelate
    s
}

impl FaultModel {
    /// Builds an injector for a channel organised as `org`.
    ///
    /// # Panics
    /// Panics if the config fails [`RasConfig::validate`] or the
    /// organisation has no rank or no bank.
    pub fn new(cfg: RasConfig, org: &Organisation) -> Self {
        cfg.validate().expect("invalid RAS config");
        assert!(org.ranks > 0 && org.banks > 0, "degenerate geometry");
        assert!(org.ranks <= 32, "offline mask supports up to 32 ranks");
        // A row's faults scale with the row, a rank failure with the rank.
        let over_bytes = |rate, bytes: u64| per_tick(rate, bytes as f64 * 8.0 / 1e9);
        let rank_bytes = org.capacity_bytes() / u64::from(org.ranks);
        let l_transient = over_bytes(cfg.transient_per_gbh, org.row_buffer_bytes());
        let l_stuck = over_bytes(cfg.stuck_per_gbh, org.row_buffer_bytes());
        let l_rank = over_bytes(cfg.rank_fail_per_gbh, rank_bytes);
        let ranks = (0..org.ranks)
            .map(|r| RankState {
                stream: stream_seed(cfg.seed, r, u32::MAX, u64::MAX),
                last: 0,
            })
            .collect();
        let spares = vec![cfg.spare_rows_per_bank; org.slots()];
        Self {
            cfg,
            org: *org,
            l_transient,
            l_stuck,
            l_rank,
            rows: DetMap::default(),
            ranks,
            offline_mask: 0,
            spares,
            stats: RasStats::default(),
            log: Vec::new(),
        }
    }

    /// The configuration the model was built with.
    pub fn config(&self) -> &RasConfig {
        &self.cfg
    }

    /// Whether every fault source is disabled (the model is transparent).
    pub fn is_fault_free(&self) -> bool {
        self.cfg.is_fault_free()
    }

    /// Bitmask of offlined ranks (bit `r` = rank `r` offline).
    pub fn offline_mask(&self) -> u32 {
        self.offline_mask
    }

    /// Number of ranks still online.
    pub fn live_ranks(&self) -> u32 {
        self.org.ranks - self.offline_mask.count_ones()
    }

    /// The error/retry/degradation counters.
    pub fn stats(&self) -> &RasStats {
        &self.stats
    }

    /// The fault log, in occurrence order.
    pub fn log(&self) -> &[FaultRecord] {
        &self.log
    }

    /// The fault log rendered one line per record — the byte-identical
    /// artifact the determinism tests compare.
    pub fn log_text(&self) -> String {
        use std::fmt::Write as _;
        let mut out = String::new();
        for r in &self.log {
            let _ = writeln!(
                out,
                "{} rank {} bank {} row {} {} {}",
                r.at,
                r.rank,
                r.bank,
                r.row,
                r.kind.name(),
                r.outcome.name()
            );
        }
        out
    }

    /// Retry budget per burst.
    pub fn max_retries(&self) -> u32 {
        self.cfg.max_retries
    }

    /// Exponential backoff before retry `attempt` (0-based): the base
    /// backoff doubled per attempt.
    pub fn retry_delay(&self, attempt: u32) -> Tick {
        self.cfg.retry_backoff << attempt.min(16)
    }

    /// The rank that serves a burst the address mapping decoded to
    /// `rank`: the rank itself while it is online, else the first live
    /// rank at or (cyclically) after it. The mapping is never changed: a
    /// dead rank's traffic folds onto the survivors, trading capacity
    /// (`ras_usable_capacity_bytes`) for availability.
    #[inline]
    pub fn live_rank(&self, rank: u32) -> u32 {
        if self.offline_mask == 0 {
            rank
        } else {
            remap_rank(rank, self.offline_mask, self.org.ranks)
        }
    }

    /// The usable channel capacity once the offlined ranks are gone.
    fn usable_capacity_bytes(&self) -> u64 {
        let live = self.org.ranks - self.offline_mask.count_ones().min(self.org.ranks);
        self.org.capacity_bytes() / u64::from(self.org.ranks) * u64::from(live)
    }

    /// Runs the fault model on the burst to `da` whose data transfer ends
    /// at `data_end`, counting the outcome and marking it on `probe`.
    ///
    /// Returns the backoff after which the controller must replay the
    /// burst when it hit a link error and has retry budget left (`retries`
    /// replays already made); the retry is counted and marked here. `None`
    /// means the burst completes: clean, corrected, poisoned, silently
    /// corrupted, or a link error that exhausted its budget.
    pub fn classify_burst<P: Probe>(
        &mut self,
        probe: &mut P,
        da: &DramAddr,
        is_read: bool,
        retries: u8,
        data_end: Tick,
    ) -> Option<Tick> {
        let rep = self.check(da.rank, da.bank, da.row, is_read, data_end);
        let mark = match rep.outcome {
            BurstOutcome::Clean => None,
            BurstOutcome::Corrected => Some(RasMark::Corrected),
            BurstOutcome::Uncorrected => Some(RasMark::Uncorrected),
            BurstOutcome::Silent => Some(RasMark::Silent),
            BurstOutcome::LinkError => {
                if u32::from(retries) < self.cfg.max_retries {
                    self.stats.retries += 1;
                    if P::ENABLED {
                        probe.ras_event(da.rank, da.bank, da.row, RasMark::Retry, data_end);
                    }
                    return Some(self.retry_delay(u32::from(retries)));
                }
                // The give-up is a detected-uncorrected error.
                self.stats.retries_exhausted += 1;
                self.stats.uncorrected += 1;
                Some(RasMark::Uncorrected)
            }
        };
        if P::ENABLED {
            if let Some(mark) = mark {
                probe.ras_event(da.rank, da.bank, da.row, mark, data_end);
            }
            if rep.remapped {
                probe.ras_event(da.rank, da.bank, da.row, RasMark::Remap, data_end);
            }
            if let Some(r) = rep.offlined_rank {
                probe.ras_event(r, 0, 0, RasMark::RankOffline, data_end);
            }
        }
        None
    }

    /// Appends the `ras_*` counters and the usable capacity left after
    /// rank offlining (`ras_usable_capacity_bytes`) to a controller's
    /// report.
    pub fn report_into(&self, r: &mut Report) {
        for (name, v) in self.stats.entries() {
            r.counter(name, v);
        }
        r.counter("ras_usable_capacity_bytes", self.usable_capacity_bytes());
    }

    fn count(&mut self, outcome: BurstOutcome) {
        match outcome {
            BurstOutcome::Corrected => self.stats.corrected += 1,
            BurstOutcome::Uncorrected => self.stats.uncorrected += 1,
            BurstOutcome::Silent => self.stats.silent += 1,
            BurstOutcome::Clean | BurstOutcome::LinkError => {}
        }
    }

    fn record(
        &mut self,
        at: Tick,
        rank: u32,
        bank: u32,
        row: u64,
        kind: FaultKind,
        o: BurstOutcome,
    ) {
        self.log.push(FaultRecord {
            at,
            rank,
            bank,
            row,
            kind,
            outcome: o,
        });
    }

    /// Takes `rank` offline unless it is the last one standing (the
    /// channel keeps serving, degraded, rather than dying entirely).
    /// Returns the rank when it was actually offlined.
    fn offline(&mut self, rank: u32) -> Option<u32> {
        if self.live_ranks() > 1 && self.offline_mask & (1 << rank) == 0 {
            self.offline_mask |= 1 << rank;
            self.stats.ranks_offlined += 1;
            Some(rank)
        } else {
            None
        }
    }

    /// Evaluates the fault streams for one serviced burst at `now` (its
    /// data-end tick) and applies the degradation policy. Call exactly
    /// once per burst, in service order.
    pub fn check(
        &mut self,
        rank: u32,
        bank: u32,
        row: u64,
        is_read: bool,
        now: Tick,
    ) -> BurstReport {
        let mut rep = BurstReport::clean();

        // 1. Accesses touching an offlined rank (packets enqueued before
        // the failure) are hard faults; no new degradation.
        if self.offline_mask & (1 << rank) != 0 {
            rep.outcome = BurstOutcome::Uncorrected;
            rep.kind = Some(FaultKind::RankFail);
            self.count(rep.outcome);
            self.record(now, rank, bank, row, FaultKind::RankFail, rep.outcome);
            return rep;
        }

        // 2. Hard rank failure: per-rank Poisson stream over elapsed time.
        if self.l_rank > 0.0 {
            let rk = &mut self.ranks[rank as usize];
            let dt = now.saturating_sub(rk.last);
            rk.last = now;
            if dt > 0 {
                let p = (self.l_rank * dt as f64).min(1.0);
                let draw = splitmix64(&mut rk.stream);
                if unit(draw) < p {
                    let alias = splitmix64(&mut rk.stream);
                    self.stats.rank_failures += 1;
                    let outcome = match classify(self.cfg.ecc, FaultKind::RankFail, alias) {
                        EccOutcome::Corrected => BurstOutcome::Corrected,
                        EccOutcome::Uncorrected => BurstOutcome::Uncorrected,
                        EccOutcome::Silent => BurstOutcome::Silent,
                    };
                    self.count(outcome);
                    self.record(now, rank, bank, row, FaultKind::RankFail, outcome);
                    if outcome != BurstOutcome::Silent {
                        rep.offlined_rank = self.offline(rank);
                    }
                    rep.outcome = outcome;
                    rep.kind = Some(FaultKind::RankFail);
                    return rep;
                }
            }
        }

        let has_link = self.cfg.link_error_rate > 0.0;
        let has_cells = self.l_transient > 0.0 || self.l_stuck > 0.0;
        if !(has_link || (is_read && has_cells)) {
            return rep;
        }

        let seed = self.cfg.seed;
        let rs = self
            .rows
            .entry((rank, bank, row))
            .or_insert_with(|| RowState {
                stream: stream_seed(seed, rank, bank, row),
                last: 0,
                stuck: false,
                remapped: false,
            });

        // 3. Link errors: write CRC (ALERT_n) on writes, C/A parity on
        // reads. The burst did not take effect; the controller retries.
        if has_link {
            let draw = splitmix64(&mut rs.stream);
            if unit(draw) < self.cfg.link_error_rate {
                let kind = if is_read {
                    FaultKind::CaParity
                } else {
                    FaultKind::WriteCrc
                };
                if is_read {
                    self.stats.parity_errors += 1;
                } else {
                    self.stats.crc_errors += 1;
                }
                self.record(now, rank, bank, row, kind, BurstOutcome::LinkError);
                rep.outcome = BurstOutcome::LinkError;
                rep.kind = Some(kind);
                return rep;
            }
        }

        // 4. Cell faults are observed on reads (writes land faults that a
        // later read of a stuck row will see).
        if is_read && has_cells {
            let dt = now.saturating_sub(rs.last);
            rs.last = now;
            if !rs.stuck && !rs.remapped && self.l_stuck > 0.0 && dt > 0 {
                let p = (self.l_stuck * dt as f64).min(1.0);
                let draw = splitmix64(&mut rs.stream);
                if unit(draw) < p {
                    rs.stuck = true;
                    self.stats.stuck_rows += 1;
                }
            }
            if rs.stuck {
                let outcome = match classify(self.cfg.ecc, FaultKind::StuckRow, 0) {
                    EccOutcome::Corrected => BurstOutcome::Corrected,
                    EccOutcome::Uncorrected => BurstOutcome::Uncorrected,
                    EccOutcome::Silent => BurstOutcome::Silent,
                };
                self.count(outcome);
                self.record(now, rank, bank, row, FaultKind::StuckRow, outcome);
                rep.outcome = outcome;
                rep.kind = Some(FaultKind::StuckRow);
                // Detected persistent faults are repaired: remap the row
                // to a spare, or offline the rank once the pool is dry.
                if outcome != BurstOutcome::Silent {
                    let slot = self.org.slot(rank, bank);
                    if self.spares[slot] > 0 {
                        self.spares[slot] -= 1;
                        self.stats.row_remaps += 1;
                        if let Some(rs) = self.rows.get_mut(&(rank, bank, row)) {
                            rs.stuck = false;
                            rs.remapped = true;
                        }
                        rep.remapped = true;
                    } else {
                        rep.offlined_rank = self.offline(rank);
                    }
                }
                return rep;
            }
            if self.l_transient > 0.0 && dt > 0 {
                let p = (self.l_transient * dt as f64).min(1.0);
                let draw = splitmix64(&mut rs.stream);
                if unit(draw) < p {
                    self.stats.transient_faults += 1;
                    let outcome = match classify(self.cfg.ecc, FaultKind::Transient, 0) {
                        EccOutcome::Corrected => BurstOutcome::Corrected,
                        EccOutcome::Uncorrected => BurstOutcome::Uncorrected,
                        EccOutcome::Silent => BurstOutcome::Silent,
                    };
                    self.count(outcome);
                    self.record(now, rank, bank, row, FaultKind::Transient, outcome);
                    rep.outcome = outcome;
                    rep.kind = Some(FaultKind::Transient);
                    return rep;
                }
            }
        }

        rep
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::EccMode;

    /// Two ranks of DDR3-1333-x64: 8 banks, 8 KiB rows, 2 GiB a rank.
    fn geom() -> Organisation {
        let org = dramctrl_mem::presets::ddr3_1333_x64().org;
        Organisation { ranks: 2, ..org }
    }

    #[test]
    fn remap_rank_skips_offline_ranks() {
        // No offlining: identity.
        for r in 0..4 {
            assert_eq!(remap_rank(r, 0, 4), r);
        }
        // Rank 1 offline: its traffic folds onto rank 2.
        assert_eq!(remap_rank(1, 0b0010, 4), 2);
        assert_eq!(remap_rank(0, 0b0010, 4), 0);
        // Wrap-around: ranks 2 and 3 offline, rank 3 folds onto 0.
        assert_eq!(remap_rank(3, 0b1100, 4), 0);
        // Degenerate masks leave the rank alone.
        assert_eq!(remap_rank(2, 0b1111, 4), 2);
        assert_eq!(remap_rank(2, 0, 0), 2);
    }

    #[test]
    fn degraded_capacity_scales_with_live_ranks() {
        let mut fm = FaultModel::new(RasConfig::new(1), &geom());
        let full = geom().capacity_bytes();
        assert_eq!(fm.usable_capacity_bytes(), full);
        fm.offline_mask = 0b01;
        assert_eq!(fm.usable_capacity_bytes(), full / 2);
        assert_eq!(fm.live_rank(0), 1, "rank 0's traffic folds onto rank 1");
        // All ranks claimed offline: capacity floors at zero.
        fm.offline_mask = u32::MAX;
        assert_eq!(fm.usable_capacity_bytes(), 0);
    }

    /// A synthetic access sequence sweeping rows over simulated time.
    fn drive(fm: &mut FaultModel, accesses: u64) {
        for i in 0..accesses {
            let rank = (i % 2) as u32;
            let bank = ((i / 2) % 8) as u32;
            let row = (i / 16) % 64;
            let now = (i + 1) * 1_000_000; // 1 us apart
            let _ = fm.check(rank, bank, row, i % 4 != 3, now);
        }
    }

    #[test]
    fn fault_free_model_is_transparent() {
        let mut fm = FaultModel::new(RasConfig::new(1), &geom());
        assert!(fm.is_fault_free());
        for i in 0..10_000u64 {
            let rep = fm.check((i % 2) as u32, (i % 8) as u32, i % 32, true, i * 1_000);
            assert_eq!(rep.outcome, BurstOutcome::Clean);
        }
        assert_eq!(fm.stats(), &RasStats::default());
        assert!(fm.log().is_empty());
        assert_eq!(fm.log_text(), "");
        assert_eq!(fm.offline_mask(), 0);
    }

    #[test]
    fn same_seed_same_log() {
        let cfg = RasConfig::from_error_rate(1e11, 42);
        let run = || {
            let mut fm = FaultModel::new(cfg.clone(), &geom());
            drive(&mut fm, 20_000);
            (fm.log_text(), *fm.stats())
        };
        let (log_a, stats_a) = run();
        let (log_b, stats_b) = run();
        assert!(!log_a.is_empty(), "accelerated rates must inject faults");
        assert_eq!(log_a, log_b);
        assert_eq!(stats_a, stats_b);
        // A different seed yields a different fault sequence.
        let mut other = FaultModel::new(RasConfig::from_error_rate(1e11, 43), &geom());
        drive(&mut other, 20_000);
        assert_ne!(log_a, other.log_text());
    }

    #[test]
    fn single_bit_rates_under_secded_never_go_silent() {
        let mut cfg = RasConfig::new(7);
        cfg.transient_per_gbh = 1e12; // single-bit transients only
        let mut fm = FaultModel::new(cfg, &geom());
        drive(&mut fm, 50_000);
        let s = fm.stats();
        assert!(s.transient_faults > 0, "rate high enough to fire");
        assert_eq!(s.corrected, s.transient_faults);
        assert_eq!(s.silent, 0);
        assert_eq!(s.uncorrected, 0);
    }

    #[test]
    fn no_ecc_makes_everything_silent() {
        let mut cfg = RasConfig::new(7).with_ecc(EccMode::None);
        cfg.transient_per_gbh = 1e12;
        let mut fm = FaultModel::new(cfg, &geom());
        drive(&mut fm, 20_000);
        assert!(fm.stats().silent > 0);
        assert_eq!(fm.stats().corrected, 0);
        // Undetected faults are never repaired.
        assert_eq!(fm.stats().row_remaps, 0);
    }

    #[test]
    fn stuck_rows_remap_until_spares_run_out_then_offline() {
        let mut cfg = RasConfig::new(3);
        cfg.stuck_per_gbh = 1e13;
        cfg.spare_rows_per_bank = 2;
        let mut fm = FaultModel::new(cfg, &geom());
        // Hammer distinct rows of one bank far apart in time so each
        // first touch trips the stuck-at onset.
        let mut offlined = None;
        for row in 0..64u64 {
            let rep = fm.check(0, 0, row, true, (row + 1) * 1_000_000_000);
            if rep.offlined_rank.is_some() {
                offlined = rep.offlined_rank;
                break;
            }
        }
        let s = fm.stats();
        assert_eq!(s.row_remaps, 2, "both spares consumed first");
        assert_eq!(offlined, Some(0), "then the rank goes offline");
        assert_eq!(fm.offline_mask(), 1);
        assert_eq!(fm.live_ranks(), 1);
        // Later accesses to the dead rank are hard faults, but the other
        // rank keeps serving cleanly at these (stuck-only) rates for
        // already-remapped rows.
        let rep = fm.check(0, 3, 9, true, 1 << 40);
        assert_eq!(rep.outcome, BurstOutcome::Uncorrected);
        assert_eq!(rep.kind, Some(FaultKind::RankFail));
    }

    #[test]
    fn remapped_rows_are_clean_again() {
        let mut cfg = RasConfig::new(3);
        cfg.stuck_per_gbh = 1e13;
        let mut fm = FaultModel::new(cfg, &geom());
        let first = fm.check(1, 2, 5, true, 1_000_000_000);
        assert_eq!(first.outcome, BurstOutcome::Uncorrected);
        assert!(first.remapped);
        let again = fm.check(1, 2, 5, true, 2_000_000_000);
        assert_eq!(again.outcome, BurstOutcome::Clean, "spare row is clean");
        assert_eq!(fm.stats().row_remaps, 1);
    }

    #[test]
    fn chipkill_corrects_stuck_rows_without_offlining() {
        let mut cfg = RasConfig::new(3).with_ecc(EccMode::Chipkill);
        cfg.stuck_per_gbh = 1e13;
        let mut fm = FaultModel::new(cfg, &geom());
        let rep = fm.check(0, 0, 1, true, 1_000_000_000);
        assert_eq!(rep.outcome, BurstOutcome::Corrected);
        assert!(rep.remapped, "still proactively remapped");
        assert_eq!(fm.offline_mask(), 0);
    }

    #[test]
    fn link_errors_hit_both_directions_and_respect_rate() {
        let mut cfg = RasConfig::new(9);
        cfg.link_error_rate = 0.1;
        let mut fm = FaultModel::new(cfg, &geom());
        drive(&mut fm, 40_000);
        let s = *fm.stats();
        assert!(s.parity_errors > 0, "reads see C/A parity errors");
        assert!(s.crc_errors > 0, "writes see CRC errors");
        let hits = s.parity_errors + s.crc_errors;
        // 10% of 40k accesses, loose 3-sigma-ish bound.
        assert!((3_000..5_000).contains(&hits), "got {hits}");
    }

    #[test]
    fn rank_failures_offline_all_but_the_last_rank() {
        let mut cfg = RasConfig::new(11);
        cfg.rank_fail_per_gbh = 1e9;
        let mut fm = FaultModel::new(cfg, &geom());
        for i in 0..10_000u64 {
            let _ = fm.check((i % 2) as u32, 0, 0, true, (i + 1) * 1_000_000_000);
        }
        assert!(fm.stats().rank_failures > 0);
        assert_eq!(fm.stats().ranks_offlined, 1, "last rank never offlined");
        assert_eq!(fm.live_ranks(), 1);
    }

    #[test]
    fn retry_plumbing() {
        let mut cfg = RasConfig::new(0);
        cfg.link_error_rate = 0.99;
        let mut fm = FaultModel::new(cfg, &geom());
        assert_eq!(fm.max_retries(), 4);
        assert_eq!(fm.retry_delay(0), 20_000);
        assert_eq!(fm.retry_delay(3), 160_000);
        // These bursts hit link errors: replayed while budget is left,
        // then given up as uncorrected.
        let da = DramAddr {
            rank: 0,
            bank: 0,
            row: 0,
            col: 0,
        };
        let mut probe = dramctrl_obs::NoProbe;
        assert_eq!(
            fm.classify_burst(&mut probe, &da, false, 0, 1),
            Some(20_000)
        );
        assert_eq!(
            fm.classify_burst(&mut probe, &da, true, 3, 2),
            Some(160_000)
        );
        assert_eq!(fm.classify_burst(&mut probe, &da, false, 4, 3), None);
        assert_eq!(fm.stats().retries, 2);
        assert_eq!(fm.stats().retries_exhausted, 1);
        assert_eq!(fm.stats().uncorrected, 1);
    }

    #[test]
    fn stats_entries_are_stable() {
        let fm = FaultModel::new(RasConfig::new(0), &geom());
        let entries = fm.stats().entries();
        assert_eq!(entries.len(), 12);
        assert_eq!(entries[0].0, "ras_transient_faults");
        assert_eq!(entries[11].0, "ras_ranks_offlined");
        assert!(entries.iter().all(|&(_, v)| v == 0));
    }

    #[test]
    fn snapshot_round_trip_continues_fault_streams() {
        let cfg = RasConfig::from_error_rate(1e11, 42);
        // Uninterrupted baseline.
        let mut base = FaultModel::new(cfg.clone(), &geom());
        drive(&mut base, 20_000);

        // Same prefix, snapshot at the midpoint, restore into a fresh
        // model, drive the identical suffix.
        let mut first = FaultModel::new(cfg.clone(), &geom());
        for i in 0..10_000u64 {
            let rank = (i % 2) as u32;
            let bank = ((i / 2) % 8) as u32;
            let row = (i / 16) % 64;
            let _ = first.check(rank, bank, row, i % 4 != 3, (i + 1) * 1_000_000);
        }
        let mut w = SnapWriter::new(7);
        first.save_state(&mut w);
        let bytes = w.into_bytes();

        let mut resumed = FaultModel::new(cfg.clone(), &geom());
        let mut r = SnapReader::new(&bytes, 7).unwrap();
        resumed.restore_state(&mut r).unwrap();
        assert!(r.is_exhausted());
        for i in 10_000..20_000u64 {
            let rank = (i % 2) as u32;
            let bank = ((i / 2) % 8) as u32;
            let row = (i / 16) % 64;
            let _ = resumed.check(rank, bank, row, i % 4 != 3, (i + 1) * 1_000_000);
        }
        assert_eq!(resumed.log_text(), base.log_text());
        assert_eq!(resumed.stats(), base.stats());
        assert_eq!(resumed.offline_mask(), base.offline_mask());

        // Geometry mismatch fails loudly rather than restoring nonsense.
        let small = Organisation { ranks: 1, ..geom() };
        let mut wrong = FaultModel::new(cfg, &small);
        let mut r2 = SnapReader::new(&bytes, 7).unwrap();
        assert!(wrong.restore_state(&mut r2).is_err());
    }

    #[test]
    fn log_text_format() {
        let mut cfg = RasConfig::new(3);
        cfg.stuck_per_gbh = 1e13;
        let mut fm = FaultModel::new(cfg, &geom());
        let _ = fm.check(1, 2, 5, true, 1_000_000_000);
        assert_eq!(
            fm.log_text(),
            "1000000000 rank 1 bank 2 row 5 stuck-row uncorrected\n"
        );
    }
}
