//! The probe interface: hooks the simulators call at every observable
//! transition, and the zero-cost disabled implementation.

use dramctrl_kernel::Tick;

/// A DRAM command category, as seen on the command bus.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum DramCmd {
    /// Row activation (RAS).
    Act,
    /// Precharge (explicit, auto or refresh-forced).
    Pre,
    /// Column read (CAS).
    Rd,
    /// Column write (CAS-W).
    Wr,
    /// Rank-wide refresh.
    Ref,
}

impl DramCmd {
    /// The canonical upper-case mnemonic.
    pub fn name(self) -> &'static str {
        match self {
            DramCmd::Act => "ACT",
            DramCmd::Pre => "PRE",
            DramCmd::Rd => "RD",
            DramCmd::Wr => "WR",
            DramCmd::Ref => "REF",
        }
    }
}

/// A rank's power state, reported on transitions.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PowerState {
    /// Normal operation (clock running, banks usable).
    Active,
    /// Precharge power-down.
    PoweredDown,
    /// Self-refresh (deepest state; the device refreshes itself).
    SelfRefresh,
}

impl PowerState {
    /// Display name for trace tracks.
    pub fn name(self) -> &'static str {
        match self {
            PowerState::Active => "active",
            PowerState::PoweredDown => "powerdown",
            PowerState::SelfRefresh => "selfrefresh",
        }
    }
}

/// One DRAM command with its timing window, emitted by the controllers.
///
/// `at` is the tick the command takes effect; `dur` is the span the command
/// occupies on its resource (tRCD for ACT, tRP for PRE, the data transfer
/// for RD/WR, tRFC for REF) — exactly what a trace viewer should render as
/// a slice.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CmdEvent {
    /// Command category.
    pub cmd: DramCmd,
    /// Target rank.
    pub rank: u32,
    /// Target bank ([`DramCmd::Ref`] is rank-wide; the field is ignored).
    pub bank: u32,
    /// Target row (ACT/RD/WR; 0 otherwise).
    pub row: u64,
    /// Tick at which the command takes effect.
    pub at: Tick,
    /// Duration the command occupies its resource.
    pub dur: Tick,
    /// Data bytes moved (RD/WR only).
    pub bytes: u32,
    /// Whether a RD/WR hit the already-open row.
    pub row_hit: bool,
    /// Originating request id, when the controller can attribute the
    /// command to one (reads carry their burst group's request).
    pub req: Option<u64>,
}

impl CmdEvent {
    fn base(cmd: DramCmd, rank: u32, bank: u32, at: Tick, dur: Tick) -> Self {
        Self {
            cmd,
            rank,
            bank,
            row: 0,
            at,
            dur,
            bytes: 0,
            row_hit: false,
            req: None,
        }
    }

    /// An activation of `row` at `at`, occupying the bank for `dur`
    /// (typically tRCD).
    pub fn act(rank: u32, bank: u32, row: u64, at: Tick, dur: Tick) -> Self {
        Self {
            row,
            ..Self::base(DramCmd::Act, rank, bank, at, dur)
        }
    }

    /// A precharge at `at`, occupying the bank for `dur` (typically tRP).
    pub fn pre(rank: u32, bank: u32, at: Tick, dur: Tick) -> Self {
        Self::base(DramCmd::Pre, rank, bank, at, dur)
    }

    /// A data transfer ([`DramCmd::Rd`] or [`DramCmd::Wr`]) spanning
    /// `[at, at + dur)` on the data bus.
    #[allow(clippy::too_many_arguments)]
    pub fn data(
        cmd: DramCmd,
        rank: u32,
        bank: u32,
        row: u64,
        at: Tick,
        dur: Tick,
        bytes: u32,
        row_hit: bool,
    ) -> Self {
        Self {
            row,
            bytes,
            row_hit,
            ..Self::base(cmd, rank, bank, at, dur)
        }
    }

    /// A rank-wide refresh at `at`, lasting `dur` (typically tRFC).
    pub fn refresh(rank: u32, at: Tick, dur: Tick) -> Self {
        Self::base(DramCmd::Ref, rank, 0, at, dur)
    }
}

/// A reliability (RAS) event category, reported by the controllers when a
/// fault model is armed.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RasMark {
    /// A faulty burst was corrected by ECC.
    Corrected,
    /// A faulty burst was detected but could not be corrected.
    Uncorrected,
    /// A faulty burst escaped detection (silent data corruption).
    Silent,
    /// A link error (write CRC / command-address parity) triggered an
    /// in-queue retry of the burst.
    Retry,
    /// A stuck row was remapped to a spare row.
    Remap,
    /// A rank was taken offline after exhausting recovery options.
    RankOffline,
}

impl RasMark {
    /// Display name for trace tracks and reports.
    pub fn name(self) -> &'static str {
        match self {
            RasMark::Corrected => "corrected",
            RasMark::Uncorrected => "uncorrected",
            RasMark::Silent => "silent",
            RasMark::Retry => "retry",
            RasMark::Remap => "remap",
            RasMark::RankOffline => "rank-offline",
        }
    }
}

/// Instrumentation hooks called by the simulators.
///
/// Every method has a no-op default, so a sink implements only what it
/// needs. Implementations must be pure observers: a probe receives event
/// data and returns nothing, and the instrumented components guarantee that
/// no simulation state depends on it — tracing a run must never change its
/// outcome (the *zero-perturbation* property, asserted by the `dramctrl`
/// differential harness).
///
/// Hot paths guard their calls with [`Probe::ENABLED`] so that argument
/// computation is also compiled away for [`NoProbe`]:
///
/// ```ignore
/// if P::ENABLED {
///     self.probe.dram_cmd(CmdEvent::act(ri, bi, row, act_at, t.t_rcd));
/// }
/// ```
pub trait Probe {
    /// Whether this probe observes anything at all. `false` lets the
    /// compiler eliminate the instrumentation entirely (the calls sit
    /// behind `if P::ENABLED` in the hot paths).
    const ENABLED: bool = true;

    /// A DRAM command was issued.
    fn dram_cmd(&mut self, ev: CmdEvent) {
        let _ = ev;
    }

    /// A request was accepted into the controller at `now`.
    fn req_accepted(&mut self, id: u64, is_read: bool, addr: u64, size: u32, now: Tick) {
        let _ = (id, is_read, addr, size, now);
    }

    /// A response for request `id` was scheduled, to be delivered at
    /// `ready_at` (early write acknowledgements included).
    fn req_completed(&mut self, id: u64, is_read: bool, ready_at: Tick) {
        let _ = (id, is_read, ready_at);
    }

    /// The read/write queue depths changed at `now` (depths are in bursts).
    fn queue_depth(&mut self, read_q: usize, write_q: usize, now: Tick) {
        let _ = (read_q, write_q, now);
    }

    /// Rank `rank` entered `state` at `at`.
    fn power_state(&mut self, rank: u32, state: PowerState, at: Tick) {
        let _ = (rank, state, at);
    }

    /// A reliability event (`mark`) occurred at `(rank, bank, row)` at `at`.
    /// Only emitted when a fault model is armed; fault-free runs never call
    /// this hook.
    fn ras_event(&mut self, rank: u32, bank: u32, row: u64, mark: RasMark, at: Tick) {
        let _ = (rank, bank, row, mark, at);
    }
}

/// The disabled probe: every hook is a no-op and [`Probe::ENABLED`] is
/// `false`, so instrumented code monomorphises to exactly the uninstrumented
/// code. This is the default probe of every simulator component.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct NoProbe;

impl Probe for NoProbe {
    const ENABLED: bool = false;
}

/// Fan-out: a pair of probes both observe every event. Nest pairs for more
/// than two sinks: `((a, b), c)`.
impl<A: Probe, B: Probe> Probe for (A, B) {
    const ENABLED: bool = A::ENABLED || B::ENABLED;

    fn dram_cmd(&mut self, ev: CmdEvent) {
        self.0.dram_cmd(ev);
        self.1.dram_cmd(ev);
    }

    fn req_accepted(&mut self, id: u64, is_read: bool, addr: u64, size: u32, now: Tick) {
        self.0.req_accepted(id, is_read, addr, size, now);
        self.1.req_accepted(id, is_read, addr, size, now);
    }

    fn req_completed(&mut self, id: u64, is_read: bool, ready_at: Tick) {
        self.0.req_completed(id, is_read, ready_at);
        self.1.req_completed(id, is_read, ready_at);
    }

    fn queue_depth(&mut self, read_q: usize, write_q: usize, now: Tick) {
        self.0.queue_depth(read_q, write_q, now);
        self.1.queue_depth(read_q, write_q, now);
    }

    fn power_state(&mut self, rank: u32, state: PowerState, at: Tick) {
        self.0.power_state(rank, state, at);
        self.1.power_state(rank, state, at);
    }

    fn ras_event(&mut self, rank: u32, bank: u32, row: u64, mark: RasMark, at: Tick) {
        self.0.ras_event(rank, bank, row, mark, at);
        self.1.ras_event(rank, bank, row, mark, at);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[derive(Debug, Default)]
    struct Counter {
        cmds: usize,
        accepts: usize,
    }

    impl Probe for Counter {
        fn dram_cmd(&mut self, _ev: CmdEvent) {
            self.cmds += 1;
        }
        fn req_accepted(&mut self, _id: u64, _r: bool, _a: u64, _s: u32, _n: Tick) {
            self.accepts += 1;
        }
    }

    #[test]
    #[allow(clippy::assertions_on_constants)]
    fn noprobe_is_disabled() {
        assert!(!NoProbe::ENABLED);
        assert!(Counter::ENABLED);
        assert!(<(NoProbe, Counter)>::ENABLED);
        assert!(!<(NoProbe, NoProbe)>::ENABLED);
    }

    #[test]
    fn pair_fans_out() {
        let mut pair = (Counter::default(), Counter::default());
        pair.dram_cmd(CmdEvent::pre(0, 0, 10, 20));
        pair.req_accepted(1, true, 0x40, 64, 0);
        assert_eq!((pair.0.cmds, pair.1.cmds), (1, 1));
        assert_eq!((pair.0.accepts, pair.1.accepts), (1, 1));
    }

    #[test]
    fn constructors_fill_fields() {
        let a = CmdEvent::act(1, 2, 99, 10, 20);
        assert_eq!((a.cmd, a.rank, a.bank, a.row), (DramCmd::Act, 1, 2, 99));
        let d = CmdEvent::data(DramCmd::Wr, 0, 1, 7, 5, 6, 64, true);
        assert!(d.row_hit);
        assert_eq!(d.bytes, 64);
        assert_eq!(DramCmd::Ref.name(), "REF");
        assert_eq!(PowerState::SelfRefresh.name(), "selfrefresh");
    }
}
