//! Multi-rank behaviour: ranks provide parallelism beyond banks (paper
//! Section II: "a number of DRAM devices can be connected to the same
//! busses in ranks, offering additional parallelism"), with per-rank
//! activation windows and refresh.

use dramctrl::{CtrlConfig, DramCtrl};
use dramctrl_mem::{
    presets, AddrMapping, Controller, Decoder, DramAddr, MemRequest, MemResponse, ReqId,
};

fn two_rank_ctrl(refresh: bool) -> DramCtrl {
    let mut cfg = CtrlConfig::new(presets::ddr3_1333_x64());
    cfg.spec.org.ranks = 2;
    if !refresh {
        cfg.spec.timing.t_refi = 0;
    }
    DramCtrl::new(cfg).unwrap()
}

fn decoder() -> Decoder {
    let mut org = presets::ddr3_1333_x64().org;
    org.ranks = 2;
    Decoder::new(AddrMapping::RoRaBaCoCh, &org, 1)
}

fn addr(rank: u32, bank: u32, row: u64, col: u64) -> u64 {
    decoder().encode(
        &DramAddr {
            rank,
            bank,
            row,
            col,
        },
        0,
    )
}

fn drain(c: &mut DramCtrl) -> Vec<MemResponse> {
    let mut out = Vec::new();
    c.drain(&mut out);
    out
}

#[test]
fn ranks_overlap_like_banks() {
    let mut c = two_rank_ctrl(false);
    // Same bank index, different ranks: ACTs are independent.
    c.try_send(MemRequest::read(ReqId(0), addr(0, 0, 5, 0), 64), 0)
        .unwrap();
    c.try_send(MemRequest::read(ReqId(1), addr(1, 0, 9, 0), 64), 0)
        .unwrap();
    let out = drain(&mut c);
    assert_eq!(out[0].ready_at, 33_000);
    // The second rank's access is purely bus-limited.
    assert_eq!(out[1].ready_at, 39_000);
    assert_eq!(c.stats().common.activates, 2);
}

#[test]
fn trrd_does_not_couple_ranks() {
    // Within one rank, back-to-back ACTs are tRRD (6 ns) apart; across
    // ranks they are not coupled at all, so four interleaved activates
    // across two ranks finish as fast as two per rank allow.
    let mut c = two_rank_ctrl(false);
    for (i, (rank, bank)) in [(0, 0), (1, 0), (0, 1), (1, 1)].iter().enumerate() {
        c.try_send(
            MemRequest::read(ReqId(i as u64), addr(*rank, *bank, 1, 0), 64),
            0,
        )
        .unwrap();
    }
    let out = drain(&mut c);
    // All four stream on the bus back-to-back: 33, 39, 45, 51 ns.
    let times: Vec<_> = out.iter().map(|r| r.ready_at).collect();
    assert_eq!(times, vec![33_000, 39_000, 45_000, 51_000]);
}

#[test]
fn activation_window_is_per_rank() {
    // Five activates to ONE rank hit the tXAW window (30 ns, 4 acts);
    // five activates spread over two ranks do not.
    let run = |ranks: &[u32]| {
        let mut c = two_rank_ctrl(false);
        for (i, &r) in ranks.iter().enumerate() {
            let bank = (i as u32) % 8;
            c.try_send(
                MemRequest::read(ReqId(i as u64), addr(r, bank, 1, 0), 64),
                0,
            )
            .unwrap();
        }
        drain(&mut c).last().unwrap().ready_at
    };
    let one_rank = run(&[0, 0, 0, 0, 0]);
    let two_ranks = run(&[0, 1, 0, 1, 0]);
    assert_eq!(one_rank, 63_000, "tXAW gates the 5th ACT in one rank");
    assert_eq!(two_ranks, 57_000, "no window pressure across ranks");
}

#[test]
fn each_rank_refreshes() {
    let mut c = two_rank_ctrl(true);
    let t_refi = c.config().spec.timing.t_refi;
    let mut out = Vec::new();
    c.advance_to(3 * t_refi, &mut out);
    assert_eq!(
        c.stats().common.refreshes,
        6,
        "both ranks refresh every tREFI"
    );
}

#[test]
fn refresh_blocks_only_its_rank() {
    let mut c = two_rank_ctrl(true);
    let t_refi = c.config().spec.timing.t_refi;
    // Two reads arriving exactly at the refresh deadline, one per rank.
    // Both ranks refresh at the same tick (no staggering), so both pay
    // tRFC; but bank state stays per-rank (no cross-rank precharges).
    c.try_send(MemRequest::read(ReqId(0), addr(0, 0, 5, 0), 64), t_refi)
        .unwrap();
    c.try_send(MemRequest::read(ReqId(1), addr(1, 0, 5, 0), 64), t_refi)
        .unwrap();
    let mut out = Vec::new();
    c.advance_to(t_refi + 1_000_000, &mut out);
    let t_rfc = c.config().spec.timing.t_rfc;
    assert_eq!(out[0].ready_at, t_refi + t_rfc + 33_000);
    assert_eq!(out[1].ready_at, t_refi + t_rfc + 39_000);
    assert_eq!(c.stats().common.refreshes, 2);
}

#[test]
fn capacity_doubles_with_ranks() {
    let mut org = presets::ddr3_1333_x64().org;
    let single = org.capacity_bytes();
    org.ranks = 2;
    assert_eq!(org.capacity_bytes(), 2 * single);
    // And the decoder covers the whole space injectively at the rank bit.
    let a0 = decoder().decode(addr(0, 3, 7, 2));
    let a1 = decoder().decode(addr(1, 3, 7, 2));
    assert_eq!((a0.bank, a0.row, a0.col), (a1.bank, a1.row, a1.col));
    assert_ne!(a0.rank, a1.rank);
}
