//! Tests for the precharge power-down extension (the paper lists
//! low-power states as future work — Section II-G: "Currently, we do not
//! model the low-power states and associated timing constraints").
//!
//! Semantics: after `powerdown_idle` ticks with empty queues and a quiet
//! bus, every rank precharges its open banks and enters power-down. The
//! first command after wake-up pays `t_xp`; a refresh wakes the rank
//! (paying `t_xp`) and the controller may re-enter power-down afterwards.

use dramctrl::{CtrlConfig, DramCtrl};
use dramctrl_mem::{presets, Controller, MemRequest, MemResponse, ReqId};

const IDLE: u64 = 100_000; // 100 ns
const T_XP: u64 = 7_500;

fn ctrl(powerdown: bool) -> DramCtrl {
    let mut cfg = CtrlConfig::new(presets::ddr3_1333_x64());
    cfg.spec.timing.t_refi = 0;
    cfg.powerdown_idle = if powerdown { IDLE } else { 0 };
    DramCtrl::new(cfg).unwrap()
}

fn run_to(c: &mut DramCtrl, t: u64) -> Vec<MemResponse> {
    let mut out = Vec::new();
    c.advance_to(t, &mut out);
    out
}

#[test]
fn disabled_by_default() {
    let mut c = ctrl(false);
    c.try_send(MemRequest::read(ReqId(0), 0, 64), 0).unwrap();
    run_to(&mut c, 10_000_000);
    assert_eq!(c.stats().powerdowns, 0);
    let act = c.activity(10_000_000);
    assert_eq!(act.time_powered_down, 0);
}

#[test]
fn enters_after_idle_and_wakes_with_txp() {
    let mut c = ctrl(true);
    c.try_send(MemRequest::read(ReqId(0), 0, 64), 0).unwrap();
    let out = run_to(&mut c, 5_000_000);
    assert_eq!(out[0].ready_at, 33_000);
    assert_eq!(c.stats().powerdowns, 1, "entered power-down while idle");
    // The check fired at bus-idle (33 us) + 100 ns; the open row was
    // precharged on entry.
    assert_eq!(c.open_row(0, 0), None);

    // A read at 10 us pays tXP on top of the cold-bank latency.
    c.try_send(MemRequest::read(ReqId(1), 0, 64), 10_000_000)
        .unwrap();
    let out = run_to(&mut c, 20_000_000);
    assert_eq!(out[0].ready_at, 10_000_000 + T_XP + 33_000);
}

#[test]
fn accumulates_powerdown_time() {
    let mut c = ctrl(true);
    c.try_send(MemRequest::read(ReqId(0), 0, 64), 0).unwrap();
    run_to(&mut c, 5_000_000);
    // Entry: bus idle at 33 us... the check runs at 33_000 + 100_000 =
    // 133 us(ns scale): entry completes after the precharge (tRP).
    let entry = 133_000 + 13_500;
    let act = c.activity(5_000_000);
    assert_eq!(act.time_powered_down, 5_000_000 - entry);
    // Waking stops the clock.
    c.try_send(MemRequest::read(ReqId(1), 0, 64), 10_000_000)
        .unwrap();
    let act = c.activity(10_000_000);
    assert_eq!(act.time_powered_down, 10_000_000 - entry);
}

#[test]
fn no_powerdown_under_steady_traffic() {
    let mut c = ctrl(true);
    let mut out = Vec::new();
    // A request every 50 ns — never idle for the full 100 ns window.
    for i in 0..200u64 {
        let t = i * 50_000;
        c.advance_to(t, &mut out);
        c.try_send(MemRequest::read(ReqId(i), (i % 16) * 4096, 64), t)
            .unwrap();
    }
    // Stop just after the last request: during the traffic no idle window
    // ever reached 100 ns. (Running further WOULD power down — the tail
    // after the last request is genuinely idle.)
    c.advance_to(10_000_000, &mut out);
    assert_eq!(c.stats().powerdowns, 0);
    assert_eq!(out.len(), 200);
}

#[test]
fn reenters_after_each_idle_period() {
    let mut c = ctrl(true);
    let mut out = Vec::new();
    for burst in 0..3u64 {
        let t = burst * 5_000_000;
        c.advance_to(t, &mut out);
        c.try_send(MemRequest::read(ReqId(burst), 0, 64), t)
            .unwrap();
    }
    c.advance_to(20_000_000, &mut out);
    assert_eq!(c.stats().powerdowns, 3);
    let act = c.activity(20_000_000);
    // Powered down for most of the 20 us.
    assert!(act.time_powered_down > 18_000_000);
    assert!(act.powered_down_fraction() > 0.9);
}

#[test]
fn refresh_wakes_and_reenters() {
    let mut cfg = CtrlConfig::new(presets::ddr3_1333_x64());
    cfg.powerdown_idle = IDLE;
    let t_refi = cfg.spec.timing.t_refi;
    let mut c = DramCtrl::new(cfg).unwrap();
    c.try_send(MemRequest::read(ReqId(0), 0, 64), 0).unwrap();
    let mut out = Vec::new();
    // Run across 4 refresh intervals.
    c.advance_to(4 * t_refi + 1_000_000, &mut out);
    assert_eq!(c.stats().common.refreshes, 4);
    // Re-entered power-down after the initial access and after each
    // refresh episode.
    assert!(c.stats().powerdowns >= 4, "got {}", c.stats().powerdowns);
    let act = c.activity(4 * t_refi + 1_000_000);
    // Still powered down nearly the whole time (refreshes are short).
    assert!(act.powered_down_fraction() > 0.95);
}

#[test]
fn powerdown_saves_background_power() {
    use dramctrl_power::micron_power;

    let run = |pd: bool| {
        let mut c = ctrl(pd);
        c.try_send(MemRequest::read(ReqId(0), 0, 64), 0).unwrap();
        let mut out = Vec::new();
        c.advance_to(10_000_000, &mut out);
        let spec = c.config().spec.clone();
        micron_power(&spec, &c.activity(10_000_000)).total_mw()
    };
    let with_pd = run(true);
    let without = run(false);
    assert!(
        with_pd < without * 0.5,
        "power-down should cut idle power: {with_pd:.0} vs {without:.0} mW"
    );
}

#[test]
fn parked_writes_drain_before_powerdown() {
    let mut c = ctrl(true);
    // A single write parks below the low watermark and would normally
    // stay on chip; the power-down path flushes it first.
    c.try_send(MemRequest::write(ReqId(0), 0, 64), 0).unwrap();
    let mut out = Vec::new();
    c.advance_to(5_000_000, &mut out);
    assert_eq!(c.stats().common.wr_bursts, 1, "write reached DRAM");
    assert_eq!(c.write_queue_len(), 0);
    assert_eq!(c.stats().powerdowns, 1);
    let act = c.activity(5_000_000);
    assert!(act.time_powered_down > 4_000_000);
}

#[test]
fn new_traffic_cancels_pd_drain_urgency() {
    let mut c = ctrl(true);
    c.try_send(MemRequest::write(ReqId(0), 0, 64), 0).unwrap();
    // Before the idle threshold elapses, more traffic arrives: the write
    // goes back to being governed by the normal watermarks.
    let mut out = Vec::new();
    c.advance_to(50_000, &mut out);
    c.try_send(MemRequest::read(ReqId(1), 4096, 64), 50_000)
        .unwrap();
    c.advance_to(90_000, &mut out);
    assert_eq!(c.stats().powerdowns, 0);
    // Eventually everything drains and power-down engages once.
    c.advance_to(5_000_000, &mut out);
    assert_eq!(c.stats().powerdowns, 1);
}
