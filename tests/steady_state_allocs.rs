//! The per-request path makes no allocator call in steady state.
//!
//! A counting global allocator (its own test binary, so nothing else is
//! counted) watches `TestRun::step` drive the event controller: after a
//! warm-up that lets every arena, deque, hash table and recycling pool
//! reach its working size, further requests must be served from what is
//! already there. A structure on that path that allocates per packet,
//! per row transition, per queued write or per outstanding request (the
//! tester's id window) fails here by its count.

use dramctrl::{CtrlConfig, DramCtrl, PagePolicy};
use dramctrl_kernel::Tick;
use dramctrl_mem::{presets, AddrMapping, Controller, MemSpec};
use dramctrl_system::MultiChannel;
use dramctrl_traffic::{LinearGen, RandomGen, Tester, TrafficGen};
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

thread_local! {
    /// Allocator calls (`alloc`, `alloc_zeroed`, `realloc`) made by this
    /// thread. `const`-initialised and without a destructor, so touching
    /// it from inside the allocator neither allocates nor re-enters.
    static ALLOCS: Cell<u64> = const { Cell::new(0) };
}

struct Counting;

// SAFETY: every method forwards its arguments unchanged to `System`, which
// upholds the `GlobalAlloc` contract; the counter is a plain thread-local
// integer and influences nothing that is returned.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCS.with(|n| n.set(n.get() + 1));
        // SAFETY: the caller's obligations are passed on as they are.
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        ALLOCS.with(|n| n.set(n.get() + 1));
        // SAFETY: as above.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCS.with(|n| n.set(n.get() + 1));
        // SAFETY: as above.
        unsafe { System.realloc(ptr, layout, new_size) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: as above.
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

const WARM_UP: u64 = 20_000;
const MEASURED: u64 = 50_000;

/// Runs `gen` into a fresh controller and returns the allocator calls made
/// while requests `WARM_UP .. WARM_UP + MEASURED` were stepped.
fn allocs_in_steady_state(spec: MemSpec, policy: PagePolicy, gen: &mut impl TrafficGen) -> u64 {
    let mut cfg = CtrlConfig::new(spec);
    cfg.page_policy = policy;
    let mut ctrl = DramCtrl::new(cfg).expect("preset configurations are valid");
    allocs_stepping(&mut ctrl, gen, WARM_UP)
}

/// [`allocs_in_steady_state`] for an already built controller, after
/// `warm_up` requests.
fn allocs_stepping(ctrl: &mut impl Controller, gen: &mut impl TrafficGen, warm_up: u64) -> u64 {
    let mut run = Tester::default().begin();
    for _ in 0..warm_up {
        assert!(run.step(gen, ctrl, Tick::MAX), "stream ended early");
    }
    let before = ALLOCS.with(Cell::get);
    for _ in 0..MEASURED {
        assert!(run.step(gen, ctrl, Tick::MAX), "stream ended early");
    }
    let during = ALLOCS.with(Cell::get) - before;
    let summary = run.finish(ctrl);
    assert_eq!(summary.dropped, 0);
    assert!(summary.reads_completed + summary.writes_completed >= warm_up + MEASURED);
    during
}

const TOTAL: u64 = WARM_UP + MEASURED;

/// Deep queues, row misses on most bursts, write snooping and drain
/// switching: row buckets and coverage spans come and go per request.
#[test]
fn random_mixed_open_page() {
    let mut gen = RandomGen::new(0, 256 << 20, 64, 67, 0, TOTAL, 11);
    let n = allocs_in_steady_state(presets::ddr3_1600_x64(), PagePolicy::Open, &mut gen);
    assert_eq!(n, 0, "{n} allocator calls in {MEASURED} requests");
}

/// A closed-page policy on a linear stream: two row transitions per burst
/// with a queue full of packets for the row being opened and closed.
#[test]
fn linear_mixed_closed_page() {
    let mut gen = LinearGen::new(0, 256 << 20, 64, 50, 0, TOTAL, 12);
    let n = allocs_in_steady_state(presets::ddr3_1600_x64(), PagePolicy::Closed, &mut gen);
    assert_eq!(n, 0, "{n} allocator calls in {MEASURED} requests");
}

/// 128-byte requests on a 32-byte-burst device: every request is chopped
/// into four packets and every read answered through a burst group.
#[test]
fn chopped_requests_on_a_narrow_device() {
    let spec = presets::lpddr3_1600_x32();
    assert_eq!(spec.org.burst_bytes(), 32);
    let mut gen = RandomGen::new(0, 256 << 20, 128, 67, 0, TOTAL, 13);
    let n = allocs_in_steady_state(spec, PagePolicy::Open, &mut gen);
    assert_eq!(n, 0, "{n} allocator calls in {MEASURED} requests");
}

/// The `hmc_16ch` benchmark stream: sixteen HBM channels behind the
/// crossbar, linear, 67 % reads, saturating — the crossbar's routing and
/// sixteen event queues on the path, and the most requests the tester
/// holds outstanding at once. Each channel sees a sixteenth of the
/// stream, so each gets the warm-up a lone controller gets.
#[test]
fn sixteen_channels_behind_the_crossbar() {
    const CHANNELS: u32 = 16;
    let mapping = AddrMapping::RoRaBaCoCh;
    let channels = (0..CHANNELS)
        .map(|_| {
            let mut cfg = CtrlConfig::new(presets::hbm_1000_x128());
            cfg.mapping = mapping;
            cfg.channels = CHANNELS;
            DramCtrl::new(cfg).expect("preset configurations are valid")
        })
        .collect();
    let mut xbar = MultiChannel::new(channels, 0)
        .expect("identical channels make a valid crossbar")
        .with_mapping(mapping);
    let warm_up = WARM_UP * u64::from(CHANNELS);
    let mut gen = LinearGen::new(0, 1 << 30, 64, 67, 0, warm_up + MEASURED, 14);
    let n = allocs_stepping(&mut xbar, &mut gen, warm_up);
    assert_eq!(n, 0, "{n} allocator calls in {MEASURED} requests");
}
