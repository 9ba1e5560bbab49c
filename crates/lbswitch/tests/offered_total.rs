//! The switch's kept offered-load total must equal, bit for bit, a fresh
//! re-sum of its VIP table in address order, after every configuration
//! change and every bulk load set.

use lbswitch::{LbSwitch, RipAddr, SwitchId, SwitchLimits, VipAddr};
use proptest::prelude::*;

/// VIP addresses are drawn from this many slots, so adds, removes and
/// duplicates collide often.
const SLOTS: u32 = 24;

#[derive(Debug, Clone)]
enum Op {
    AddVip(u32),
    RemoveVip(u32),
    ForceRemoveVip(u32),
    AddRip(u32, u32),
    OpenSession(u32),
    /// Bulk set: VIP `v` offers `loads[v % SLOTS]`.
    SetLoads(Vec<f64>),
}

fn arb_load() -> impl Strategy<Value = f64> {
    prop_oneof![
        Just(0.0),
        Just(-0.0),
        Just(0.1),
        0.0f64..4e9,
        (0.0f64..1.0).prop_map(|x| x * 1e-3),
        (0.0f64..1.0).prop_map(|x| 1e15 + x),
    ]
}

fn arb_op() -> impl Strategy<Value = Op> {
    prop_oneof![
        (0..SLOTS).prop_map(Op::AddVip),
        (0..SLOTS).prop_map(Op::AddVip),
        (0..SLOTS).prop_map(Op::RemoveVip),
        (0..SLOTS).prop_map(Op::ForceRemoveVip),
        (0..SLOTS, 0u32..64).prop_map(|(v, r)| Op::AddRip(v, r)),
        (0..SLOTS).prop_map(Op::OpenSession),
        proptest::collection::vec(arb_load(), SLOTS as usize).prop_map(Op::SetLoads),
        // An all-zero epoch: every total is `+0.0` on a non-empty switch.
        Just(Op::SetLoads(vec![0.0; SLOTS as usize])),
    ]
}

fn switch() -> LbSwitch {
    let limits = SwitchLimits {
        max_vips: 16,
        max_rips: 48,
        ..SwitchLimits::CISCO_CATALYST
    };
    LbSwitch::new(SwitchId(0), limits)
}

/// The reference: the whole VIP table re-summed in map order.
fn fresh_sum(sw: &LbSwitch) -> f64 {
    sw.vips().map(|(_, c)| c.offered_bps).sum()
}

fn assert_total_is_fresh(sw: &LbSwitch, after: &Op) {
    assert_eq!(
        sw.offered_bps().to_bits(),
        fresh_sum(sw).to_bits(),
        "kept total {} != re-sum {} after {after:?}",
        sw.offered_bps(),
        fresh_sum(sw)
    );
    assert_eq!(
        sw.utilization().to_bits(),
        (fresh_sum(sw) / sw.limits().capacity_bps).to_bits()
    );
}

fn apply(sw: &mut LbSwitch, op: &Op) {
    // Every call may fail (limits, unknown or duplicate targets, live
    // sessions); the total must hold either way.
    match op {
        Op::AddVip(v) => {
            let _ = sw.add_vip(VipAddr(*v));
        }
        Op::RemoveVip(v) => {
            let _ = sw.remove_vip(VipAddr(*v));
        }
        Op::ForceRemoveVip(v) => {
            let _ = sw.force_remove_vip(VipAddr(*v));
        }
        Op::AddRip(v, r) => {
            let _ = sw.add_rip(VipAddr(*v), RipAddr(*r), 1.0);
        }
        Op::OpenSession(v) => {
            let _ = sw.open_session(VipAddr(*v), u64::from(*v));
        }
        Op::SetLoads(loads) => sw.set_offered_loads(|v| loads[(v.0 % SLOTS) as usize]),
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn kept_total_matches_a_fresh_resum(ops in proptest::collection::vec(arb_op(), 1..60)) {
        let mut sw = switch();
        for op in &ops {
            apply(&mut sw, op);
            assert_total_is_fresh(&sw, op);
        }
    }
}

#[test]
fn empty_switch_total_is_negative_zero() {
    let mut sw = switch();
    assert_eq!(sw.offered_bps().to_bits(), (-0.0f64).to_bits());
    assert_eq!(sw.offered_bps().to_bits(), fresh_sum(&sw).to_bits());
    sw.set_offered_loads(|_| unreachable!("no VIPs"));
    assert_eq!(sw.offered_bps().to_bits(), (-0.0f64).to_bits());
    // Emptied again after holding load.
    sw.add_vip(VipAddr(3)).unwrap();
    sw.set_offered_loads(|_| 2e9);
    sw.remove_vip(VipAddr(3)).unwrap();
    assert_eq!(sw.offered_bps().to_bits(), (-0.0f64).to_bits());
    sw.add_vip(VipAddr(4)).unwrap();
    sw.set_offered_loads(|_| 2e9);
    sw.force_remove_vip(VipAddr(4)).unwrap();
    assert_eq!(sw.offered_bps().to_bits(), (-0.0f64).to_bits());
}

#[test]
fn all_zero_loads_total_positive_zero() {
    let mut sw = switch();
    sw.add_vip(VipAddr(1)).unwrap();
    assert_eq!(sw.offered_bps().to_bits(), 0.0f64.to_bits());
    sw.add_vip(VipAddr(2)).unwrap();
    sw.set_offered_loads(|_| 0.0);
    assert_eq!(sw.offered_bps().to_bits(), 0.0f64.to_bits());
    // Loads of `-0.0` on every VIP re-sum to `-0.0`, and adding a VIP
    // (which offers `+0.0`) turns that into `+0.0`.
    sw.set_offered_loads(|_| -0.0);
    assert_eq!(sw.offered_bps().to_bits(), (-0.0f64).to_bits());
    sw.add_vip(VipAddr(0)).unwrap();
    assert_eq!(sw.offered_bps().to_bits(), 0.0f64.to_bits());
    assert_eq!(sw.offered_bps().to_bits(), fresh_sum(&sw).to_bits());
}
