//! Tests for the self-refresh extension: the deeper of the two low-power
//! states. Power-down descends into self-refresh after
//! `selfrefresh_after` more idle time; while self-refreshing the DRAM
//! refreshes itself (external refreshes are suppressed) and exit costs
//! `t_xs` instead of `t_xp`.

use dramctrl::{CtrlConfig, DramCtrl};
use dramctrl_mem::{presets, Controller, MemRequest, ReqId};

const PD_IDLE: u64 = 100_000; // 100 ns
const SR_AFTER: u64 = 1_000_000; // 1 us of power-down, then self-refresh
const T_XS: u64 = 170_000;

fn ctrl(refresh: bool) -> DramCtrl {
    let mut cfg = CtrlConfig::new(presets::ddr3_1333_x64());
    if !refresh {
        cfg.spec.timing.t_refi = 0;
    }
    cfg.powerdown_idle = PD_IDLE;
    cfg.selfrefresh_after = SR_AFTER;
    DramCtrl::new(cfg).unwrap()
}

#[test]
fn config_requires_powerdown() {
    let mut cfg = CtrlConfig::new(presets::ddr3_1333_x64());
    cfg.selfrefresh_after = SR_AFTER;
    cfg.powerdown_idle = 0;
    assert!(DramCtrl::new(cfg).is_err());
}

#[test]
fn descends_after_powerdown_period() {
    let mut c = ctrl(false);
    c.try_send(MemRequest::read(ReqId(0), 0, 64), 0).unwrap();
    let mut out = Vec::new();
    c.advance_to(10_000_000, &mut out);
    assert_eq!(c.stats().powerdowns, 1);
    assert_eq!(c.stats().self_refreshes, 1);
    let act = c.activity(10_000_000);
    // PD phase lasted exactly `selfrefresh_after`; the rest is SR.
    assert_eq!(act.time_powered_down, SR_AFTER);
    assert!(act.time_self_refresh > 8_000_000);
    assert!(act.self_refresh_fraction() > 0.8);
}

#[test]
fn wake_from_self_refresh_costs_txs() {
    let mut c = ctrl(false);
    c.try_send(MemRequest::read(ReqId(0), 0, 64), 0).unwrap();
    let mut out = Vec::new();
    c.advance_to(10_000_000, &mut out);
    assert_eq!(c.stats().self_refreshes, 1);
    c.try_send(MemRequest::read(ReqId(1), 0, 64), 20_000_000)
        .unwrap();
    out.clear();
    c.advance_to(30_000_000, &mut out);
    // Cold bank after SR exit: tXS + tRCD + tCL + tBURST.
    assert_eq!(out[0].ready_at, 20_000_000 + T_XS + 33_000);
}

#[test]
fn self_refresh_suppresses_external_refreshes() {
    let mut c = ctrl(true);
    let t_refi = c.config().spec.timing.t_refi;
    c.try_send(MemRequest::read(ReqId(0), 0, 64), 0).unwrap();
    let mut out = Vec::new();
    // Ten refresh intervals: the rank descends into SR after ~1.1 us and
    // stays there, so almost no external refreshes are performed.
    c.advance_to(10 * t_refi, &mut out);
    assert_eq!(c.stats().self_refreshes, 1);
    assert!(
        c.stats().common.refreshes <= 1,
        "external refreshes should be suppressed, got {}",
        c.stats().common.refreshes
    );
}

#[test]
fn wake_before_descent_costs_only_txp() {
    let mut c = ctrl(false);
    c.try_send(MemRequest::read(ReqId(0), 0, 64), 0).unwrap();
    let mut out = Vec::new();
    // Wake during the PD phase (entry ~146.5 ns, descent at ~1.15 us).
    c.advance_to(500_000, &mut out);
    assert_eq!(c.stats().powerdowns, 1);
    assert_eq!(c.stats().self_refreshes, 0);
    c.try_send(MemRequest::read(ReqId(1), 0, 64), 500_000)
        .unwrap();
    out.clear();
    // The stale self-refresh check (armed by the first power-down entry)
    // fires around 1.15 us; the rank re-entered power-down at ~0.79 us,
    // so descent must NOT happen yet.
    c.advance_to(1_500_000, &mut out);
    assert_eq!(out[0].ready_at, 500_000 + 7_500 + 33_000);
    assert_eq!(c.stats().self_refreshes, 0, "stale check must not descend");
    assert_eq!(c.stats().powerdowns, 2);
    // The fresh check (armed by the second entry) descends on schedule.
    c.advance_to(2_000_000, &mut out);
    assert_eq!(c.stats().self_refreshes, 1);
}

#[test]
fn self_refresh_draws_less_power_than_powerdown() {
    use dramctrl_power::micron_power;
    let spec = presets::ddr3_1333_x64();
    let base = dramctrl_mem::ActivityStats {
        sim_time: 1_000_000,
        time_all_banks_precharged: 1_000_000,
        ranks: 1,
        ..Default::default()
    };
    let pd = micron_power(
        &spec,
        &dramctrl_mem::ActivityStats {
            time_powered_down: 1_000_000,
            ..base
        },
    );
    let sr = micron_power(
        &spec,
        &dramctrl_mem::ActivityStats {
            time_self_refresh: 1_000_000,
            ..base
        },
    );
    let awake = micron_power(&spec, &base);
    assert!(sr.total_mw() < pd.total_mw());
    assert!(pd.total_mw() < awake.total_mw());
}

#[test]
fn long_idle_ends_fully_self_refreshed() {
    let mut c = ctrl(true);
    c.try_send(MemRequest::write(ReqId(0), 0, 64), 0).unwrap();
    let mut out = Vec::new();
    let horizon = 100_000_000; // 100 us
    c.advance_to(horizon, &mut out);
    let act = c.activity(horizon);
    let covered = act.time_powered_down + act.time_self_refresh;
    assert!(
        covered > horizon * 97 / 100,
        "low-power states should cover the idle run: {covered} of {horizon}"
    );
    assert!(act.self_refresh_fraction() > 0.9);
}
