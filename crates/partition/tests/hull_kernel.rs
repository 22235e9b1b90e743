//! The planning kernel against its references.
//!
//! `hill_climb_hulls` must hand out exactly what `hill_climb` hands out on
//! the same hulls turned back into curves, and `Planner::plan` must be
//! exactly hulls → allocate → `plan_with_hull`. The serving plane's
//! equivalence chain and the repo benchmark both compare a published plan
//! with an offline `Planner::plan`, i.e. the planner with itself, so an
//! allocator that is wrong on both sides is caught only here.

mod common;

use common::{Case, Rng};
use proptest::prelude::*;
use std::sync::Arc;
use talus_core::{plan_with_hull, ConvexHull, MissCurve};
use talus_partition::{
    fair, hill_climb, hill_climb_hulls, imbalanced, lookahead, AllocPolicy, Planner,
};

/// [`common::case`] with the 1–70-point grids this file was written on.
fn arb_case(max_grains: u64) -> impl Strategy<Value = Case> {
    any::<u64>().prop_map(move |seed| common::case(&mut Rng(seed | 1), 70, max_grains))
}

fn hulls_of(curves: &[MissCurve]) -> Vec<ConvexHull> {
    curves.iter().map(MissCurve::convex_hull).collect()
}

const POLICIES: [AllocPolicy; 4] = [
    AllocPolicy::Hill,
    AllocPolicy::Lookahead,
    AllocPolicy::Fair,
    AllocPolicy::Imbalanced,
];

/// The policy's free function, as the planner documents its dispatch.
fn reference_alloc(policy: AllocPolicy, curves: &[MissCurve], case: &Case, round: u64) -> Vec<u64> {
    let (capacity, grain) = (case.capacity, case.grain);
    match policy {
        AllocPolicy::Hill => hill_climb(curves, capacity, grain),
        AllocPolicy::Lookahead => lookahead(curves, capacity, grain),
        AllocPolicy::Fair => fair(curves.len(), capacity, grain),
        AllocPolicy::Imbalanced => {
            imbalanced(curves, capacity, grain, round as usize % curves.len())
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(2000))]

    #[test]
    fn hull_native_hill_climb_equals_the_reference(case in arb_case(600)) {
        let hulls = hulls_of(&case.curves);
        let as_curves: Vec<MissCurve> = hulls.iter().map(ConvexHull::to_curve).collect();
        let got = hill_climb_hulls(&hulls, case.capacity, case.grain);
        let want = hill_climb(&as_curves, case.capacity, case.grain);
        prop_assert_eq!(&got, &want, "{:?}", case);
        prop_assert_eq!(got.iter().sum::<u64>(), case.capacity / case.grain * case.grain);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(2000))]

    /// Runs of grants to one tenant, exact ties before and after it, and
    /// zero-gain tails: where a climb that skips the comparison while one
    /// tenant keeps winning could hand out a grain the reference would
    /// not.
    #[test]
    fn runs_ties_and_zero_gain_tails_equal_the_reference(seed in any::<u64>()) {
        let case = common::run_case(&mut Rng(seed | 1));
        let hulls = hulls_of(&case.curves);
        let as_curves: Vec<MissCurve> = hulls.iter().map(ConvexHull::to_curve).collect();
        let got = hill_climb_hulls(&hulls, case.capacity, case.grain);
        prop_assert_eq!(&got, &hill_climb(&as_curves, case.capacity, case.grain), "{:?}", case);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(300))]

    #[test]
    fn planner_equals_the_manual_pipeline(case in arb_case(96), round in 0u64..9, raw in any::<bool>()) {
        let hulls = hulls_of(&case.curves);
        let as_curves: Vec<MissCurve> = hulls.iter().map(ConvexHull::to_curve).collect();
        let shared: Vec<Arc<MissCurve>> = case.curves.iter().cloned().map(Arc::new).collect();
        for policy in POLICIES {
            let mut planner = Planner::new(case.grain).with_policy(policy);
            if raw {
                planner = planner.raw_curves();
            }
            let seen = if raw { &case.curves } else { &as_curves };
            let sizes = reference_alloc(policy, seen, &case, round);
            prop_assert_eq!(&planner.allocate(&case.curves, case.capacity, round), &sizes);

            // A grid that starts above zero can leave a tenant below its
            // curve's domain: the manual pipeline and the planner must
            // then report the same error.
            let manual: Result<Vec<_>, _> = hulls
                .iter()
                .zip(&sizes)
                .map(|(hull, &size)| plan_with_hull(hull, size as f64, planner.options))
                .collect();
            let got = planner.plan(&case.curves, case.capacity, round);
            prop_assert_eq!(&got, &planner.plan(&shared, case.capacity, round));
            match (got, manual) {
                (Ok(plan), Ok(manual)) => {
                    prop_assert_eq!(plan.round, round);
                    prop_assert_eq!(&plan.allocations(), &sizes);
                    let plans: Vec<_> = plan.tenants.iter().map(|t| t.plan).collect();
                    prop_assert_eq!(plans, manual);
                }
                (Err(got), Err(manual)) => prop_assert_eq!(got, manual),
                (got, manual) => prop_assert!(false, "{:?} vs manual {:?}", got, manual),
            }
        }
    }
}

/// `hill_climb_hulls` against `hill_climb` on one hand-built case.
fn assert_kernel_matches(curves: &[MissCurve], capacity: u64, grain: u64) -> Vec<u64> {
    let hulls = hulls_of(curves);
    let as_curves: Vec<MissCurve> = hulls.iter().map(ConvexHull::to_curve).collect();
    let got = hill_climb_hulls(&hulls, capacity, grain);
    assert_eq!(
        got,
        hill_climb(&as_curves, capacity, grain),
        "capacity {capacity}, grain {grain}, {curves:?}"
    );
    got
}

fn curve(sizes: &[f64], misses: &[f64]) -> MissCurve {
    MissCurve::from_samples(sizes, misses).expect("valid curve")
}

/// A cliff, a decay and a flat tenant on one 5-point grid.
fn trio() -> Vec<MissCurve> {
    let sizes = [0.0, 64.0, 128.0, 192.0, 256.0];
    vec![
        curve(&sizes, &[9.0, 9.0, 9.0, 1.0, 1.0]),
        curve(&sizes, &[8.0, 4.0, 2.0, 1.0, 0.5]),
        curve(&sizes, &[3.0; 5]),
    ]
}

// The kernel keeps each tenant's hull value two grains past its
// allocation. The cases below are the ones that look-ahead adds: grants
// that end before the second grain is ever used, sizes two grains out
// that leave the hull or the integers, and climbs decided entirely by the
// zero-gain branch.

#[test]
fn look_ahead_is_harmless_when_fewer_than_two_grains_fit() {
    for (capacity, grain) in [(0, 64), (63, 64), (64, 64), (127, 64), (1, u64::MAX)] {
        let got = assert_kernel_matches(&trio(), capacity, grain);
        assert_eq!(got.iter().sum::<u64>(), capacity / grain * grain);
    }
}

#[test]
fn look_ahead_saturates_where_two_grains_overflow() {
    // `alloc + 2·grain` passes `u64::MAX` before the first grant (grain
    // above half the range), after it, and after the second of three.
    let half = u64::MAX / 2;
    for grain in [half + 1, half, u64::MAX / 3] {
        let got = assert_kernel_matches(&trio(), u64::MAX, grain);
        assert_eq!(got.iter().sum::<u64>(), u64::MAX / grain * grain);
        assert_kernel_matches(&trio()[..1], u64::MAX, grain);
    }
}

#[test]
fn one_tenant_takes_every_grain() {
    for tenant in trio() {
        assert_eq!(assert_kernel_matches(&[tenant], 1000, 64), vec![960]);
    }
}

#[test]
fn a_single_vertex_hull_offers_nothing_at_any_distance() {
    let point = curve(&[128.0], &[5.0]);
    assert_eq!(point.convex_hull().len(), 1);
    assert_eq!(
        assert_kernel_matches(std::slice::from_ref(&point), 640, 64),
        vec![640]
    );
    // Beside tenants that do gain, it is served by round-robin only.
    let mut mixed = trio();
    mixed.insert(1, point);
    assert_kernel_matches(&mixed, 640, 64);
    assert_kernel_matches(&mixed, 6400, 64);
}

#[test]
fn twin_flat_tenants_alternate_on_the_zero_gain_branch() {
    let flat = curve(&[0.0, 512.0, 1024.0], &[7.0; 3]);
    assert_eq!(
        assert_kernel_matches(&[flat.clone(), flat.clone()], 64 * 9, 64),
        vec![64 * 5, 64 * 4]
    );
    assert_eq!(
        assert_kernel_matches(&[flat.clone(), flat.clone(), flat], 64 * 9, 64),
        vec![64 * 3; 3]
    );
}

#[test]
fn capacity_far_past_every_last_vertex_is_still_handed_out() {
    // 256 lines of curve, a million of capacity: past the last vertex
    // both look-ahead values clamp and every grant is round-robin.
    for grain in [1, 64, 100] {
        let got = assert_kernel_matches(&trio(), 1_000_000, grain);
        assert_eq!(got.iter().sum::<u64>(), 1_000_000 / grain * grain);
    }
}

/// The run cases reach what they are for: a tenant winning many grains in
/// a row, ties between tenants' standing gains, and zero-gain grants.
#[test]
fn run_cases_reach_runs_ties_and_zero_gain_tails() {
    let (mut runs, mut ties, mut tails) = (0, 0, 0);
    for seed in 1..=500u64 {
        let case = common::run_case(&mut Rng(seed.wrapping_mul(0x9E37_79B9_7F4A_7C15) | 1));
        let grain = case.grain as f64;
        let gain = |c: &MissCurve, at: u64| {
            c.value_at(at as f64 * grain) - c.value_at((at + 1) as f64 * grain)
        };
        let first: Vec<f64> = case.curves.iter().map(|c| gain(c, 0)).collect();
        ties +=
            usize::from((1..first.len()).any(|i| first[..i].contains(&first[i]) && first[i] > 0.0));
        runs += usize::from(
            case.curves
                .iter()
                .any(|c| gain(c, 0) > 0.0 && gain(c, 0) == gain(c, 3)),
        );
        let reach: f64 = case.curves.iter().map(MissCurve::max_size).sum();
        tails += usize::from(case.capacity as f64 > reach);
    }
    assert!(runs > 200, "{runs} cases open with a run");
    assert!(ties > 50, "{ties} cases tie at the start");
    assert!(tails > 200, "{tails} cases end in zero-gain grants");
}

#[test]
fn a_run_stops_at_a_tie_before_it_and_not_at_one_after_it() {
    // Tenant 1 gains 3 a grain for four grains, then 2; tenants 0 and 2
    // gain 2 throughout, then nothing. Once tenant 1 drops to 2 it ties
    // both: tenant 0, before it, must take the next grain, and the
    // round-robin hands out what is left once every gain is zero.
    let grid = [0.0, 256.0, 512.0, 768.0];
    let even = curve(&grid, &[60.0, 52.0, 44.0, 44.0]);
    let steep = curve(&grid, &[60.0, 48.0, 40.0, 40.0]);
    let tenants = [even.clone(), steep, even];
    for capacity in [64 * 4, 64 * 5, 64 * 9, 64 * 40, 64 * 41] {
        assert_kernel_matches(&tenants, capacity, 64);
    }
    assert_eq!(
        assert_kernel_matches(&tenants, 64 * 5, 64),
        vec![64, 256, 0]
    );
    // The last winner ties one after it: the run goes on through it.
    let tenants = [tenants[1].clone(), tenants[0].clone()];
    assert_eq!(assert_kernel_matches(&tenants, 64 * 6, 64)[0], 64 * 6);
}
