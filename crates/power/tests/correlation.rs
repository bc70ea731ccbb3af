//! The paper's power-correlation experiment (Section III-C3): run the same
//! workloads through both controller models and compare the Micron power
//! numbers. The paper reports an average difference of ~3% and a maximum
//! of ~8%; the differences stem from the controllers' architectural and
//! scheduling differences, not from the power model (which is shared).

use dramctrl::{CtrlConfig, DramCtrl, PagePolicy};
use dramctrl_cycle::{CycleConfig, CycleCtrl};
use dramctrl_mem::{presets, AddrMapping, Controller};
use dramctrl_power::micron_power;
use dramctrl_traffic::{DramAwareGen, Tester};

/// Runs a DRAM-aware workload through both models and returns
/// (event power mW, cycle power mW).
fn power_pair(stride: u64, banks: u32, read_pct: u8, open_page: bool) -> (f64, f64) {
    let spec = presets::ddr3_1333_x64();
    let mapping = if open_page {
        AddrMapping::RoRaBaCoCh
    } else {
        AddrMapping::RoCoRaBaCh
    };
    let mk_gen = || {
        DramAwareGen::new(
            spec.org, mapping, 1, 0, stride, banks, read_pct, 0, 3_000, 11,
        )
    };
    let page = if open_page {
        PagePolicy::Open
    } else {
        PagePolicy::Closed
    };
    let t = Tester::new(50_000, 500);

    let mut ev_cfg = CtrlConfig::new(spec.clone());
    ev_cfg.mapping = mapping;
    ev_cfg.page_policy = page;
    let mut ev = DramCtrl::new(ev_cfg).unwrap();
    let ev_sum = t.run(&mut mk_gen(), &mut ev);
    let ev_power = micron_power(&spec, &Controller::activity(&mut ev, ev_sum.duration));

    let mut cy_cfg = CycleConfig::new(spec.clone());
    cy_cfg.mapping = mapping;
    cy_cfg.page_policy = page;
    let mut cy = CycleCtrl::new(cy_cfg).unwrap();
    let cy_sum = t.run(&mut mk_gen(), &mut cy);
    let cy_power = micron_power(&spec, &cy.activity(cy_sum.duration));

    (ev_power.total_mw(), cy_power.total_mw())
}

#[test]
fn power_correlates_across_test_cases() {
    let cases = [
        (1, 1, 100, true),
        (16, 4, 100, true),
        (128, 8, 100, true),
        (16, 4, 50, true),
        (1, 8, 0, false),
        (16, 8, 50, false),
    ];
    let mut max_diff: f64 = 0.0;
    let mut sum_diff = 0.0;
    for &(stride, banks, read_pct, open) in &cases {
        let (e, c) = power_pair(stride, banks, read_pct, open);
        assert!(e > 0.0 && c > 0.0);
        let diff = (e - c).abs() / c;
        eprintln!(
            "case stride={stride} banks={banks} rd={read_pct} open={open}: ev={e:.1} cy={c:.1} diff={diff:.3}"
        );
        max_diff = max_diff.max(diff);
        sum_diff += diff;
    }
    let avg_diff = sum_diff / cases.len() as f64;
    // Paper: average ~3%, max ~8%. Allow headroom for our re-implemented
    // baseline but keep the claim's order of magnitude.
    assert!(avg_diff < 0.08, "average power difference {avg_diff:.3}");
    assert!(max_diff < 0.15, "max power difference {max_diff:.3}");
}

#[test]
fn busier_workload_burns_more_power() {
    let (idle_ish, _) = power_pair(1, 1, 100, true);
    let (busy, _) = power_pair(128, 8, 100, true);
    assert!(
        busy > idle_ish,
        "saturated ({busy:.0} mW) should exceed bank-bound ({idle_ish:.0} mW)"
    );
}
