//! The scratch oracle: one [`PlanScratch`] reused across a random sequence
//! of planning calls must never show in a result.
//!
//! `Planner::plan`, `Planner::allocate` and `hill_climb_hulls` each run on
//! a scratch they build and drop, so they are what a *fresh* scratch
//! yields; what they compute is pinned to the manual pipeline and to
//! `hill_climb` in `hull_kernel.rs`. This file pins the other half: that a
//! scratch which has already served other tenants counts, curve lengths,
//! policies — and calls that failed, and been given back plans of any
//! width to refill — yields the same bits.

mod common;

use common::{Case, Rng};
use proptest::prelude::*;
use talus_core::{ConvexHull, MissCurve, PlanError, TalusPlan};
use talus_partition::{
    hill_climb, hill_climb_hulls, hill_climb_hulls_into, AllocPolicy, CachePlan, PlanScratch,
    Planner,
};

const POLICIES: [AllocPolicy; 4] = [
    AllocPolicy::Hill,
    AllocPolicy::Lookahead,
    AllocPolicy::Fair,
    AllocPolicy::Imbalanced,
];

/// One call of a sequence: 1–8 tenants of 1–200 points (or a
/// [`common::run_case`]), any policy, hulls or raw curves. A grid that
/// starts above zero with a capacity that leaves a tenant below it makes
/// `plan_with_hull` fail — about one `common::case` call in eight (a run
/// case's grids start at zero, so it never fails).
struct Call {
    case: Case,
    planner: Planner,
    round: u64,
}

fn call(rng: &mut Rng) -> Call {
    // One call in four is a run case: long runs, exact ties, zero-gain
    // tails.
    let case = if rng.below(4) == 0 {
        common::run_case(rng)
    } else {
        common::case(rng, 200, 96)
    };
    let mut planner = Planner::new(case.grain).with_policy(POLICIES[rng.below(4) as usize]);
    if rng.below(3) == 0 {
        planner = planner.raw_curves();
    }
    Call {
        case,
        planner,
        round: rng.below(9),
    }
}

/// A plan's every number as its bit pattern (`==` on `f64` would let
/// `0.0` pass for `-0.0`).
fn bits(plan: &Result<CachePlan, PlanError>) -> Result<Vec<u64>, PlanError> {
    let plan = plan.as_ref().map_err(Clone::clone)?;
    let mut out = vec![plan.round];
    for tenant in &plan.tenants {
        out.push(tenant.capacity);
        match tenant.plan {
            TalusPlan::Unpartitioned {
                size,
                expected_misses,
            } => out.extend([0, size.to_bits(), expected_misses.to_bits()]),
            TalusPlan::Shadow(cfg) => out.extend(
                [
                    cfg.total,
                    cfg.alpha,
                    cfg.beta,
                    cfg.rho,
                    cfg.ideal_rho,
                    cfg.s1,
                    cfg.s2,
                    cfg.expected_misses,
                ]
                .map(f64::to_bits),
            ),
        }
    }
    Ok(out)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(400))]

    #[test]
    fn a_reused_scratch_never_shows_in_a_result(seed in any::<u64>()) {
        let mut rng = Rng(seed | 1);
        let mut scratch = PlanScratch::default();
        for step in 0..2 + rng.below(10) {
            let Call { case, planner, round } = call(&mut rng);
            let Case { curves, capacity, grain } = &case;

            let fresh = planner.plan(curves, *capacity, round);
            let reused = planner.plan_in(&mut scratch, curves, *capacity, round);
            prop_assert_eq!(bits(&reused), bits(&fresh), "step {}: {:?} {:?}", step, planner, case);
            // Plans given back are refilled by later calls of any width.
            for plan in [reused, fresh.clone()].into_iter().flatten() {
                if rng.below(3) > 0 {
                    scratch.recycle(plan);
                }
            }

            let sizes = planner.allocate_in(&mut scratch, curves, *capacity, round).to_vec();
            prop_assert_eq!(&sizes, &planner.allocate(curves, *capacity, round), "step {}", step);
            if let Ok(plan) = &fresh {
                prop_assert_eq!(&sizes, &plan.allocations());
            }

            let hulls: Vec<ConvexHull> = curves.iter().map(MissCurve::convex_hull).collect();
            let as_curves: Vec<MissCurve> = hulls.iter().map(ConvexHull::to_curve).collect();
            let climbed = hill_climb_hulls_into(&mut scratch, &hulls, *capacity, *grain).to_vec();
            prop_assert_eq!(&climbed, &hill_climb_hulls(&hulls, *capacity, *grain), "step {}", step);
            prop_assert_eq!(&climbed, &hill_climb(&as_curves, *capacity, *grain), "step {}", step);
        }
    }
}

/// The property above is only as good as the sequences it sees: the
/// generator must reach the transitions a stale scratch would show in.
#[test]
fn sequences_reach_the_transitions_that_matter() {
    let (mut ok_after_err, mut narrower, mut shorter, mut errs, mut calls) = (0, 0, 0, 0, 0);
    for seed in 1..=200u64 {
        let mut rng = Rng(seed.wrapping_mul(0x9E37_79B9_7F4A_7C15) | 1);
        let mut before: Option<(bool, usize, usize)> = None;
        for _ in 0..2 + rng.below(10) {
            let Call {
                case,
                planner,
                round,
            } = call(&mut rng);
            let failed = planner.plan(&case.curves, case.capacity, round).is_err();
            let (tenants, first_len) = (case.curves.len(), case.curves[0].len());
            if let Some((failed_before, tenants_before, len_before)) = before {
                ok_after_err += usize::from(failed_before && !failed);
                narrower += usize::from(tenants < tenants_before);
                shorter += usize::from(first_len < len_before);
            }
            errs += usize::from(failed);
            calls += 1;
            before = Some((failed, tenants, first_len));
        }
    }
    assert!(calls > 1000, "{calls} calls");
    assert!(errs * 20 > calls, "{errs} of {calls} calls fail");
    assert!(
        ok_after_err > 30,
        "{ok_after_err} successes follow a failure"
    );
    assert!(narrower > 200, "{narrower} calls have fewer tenants");
    assert!(shorter > 200, "{shorter} calls start on a shorter curve");
}

/// The four ways a scratch could go stale, each on the smallest sequence
/// that would show it.
#[test]
fn hand_built_sequences_a_stale_scratch_would_fail() {
    let curve = |sizes: &[f64], misses: &[f64]| MissCurve::from_samples(sizes, misses).unwrap();
    let grid: Vec<f64> = (0..=8).map(|i| i as f64 * 64.0).collect();
    let cliff = curve(&grid, &[9.0, 9.0, 9.0, 9.0, 9.0, 1.0, 1.0, 1.0, 1.0]);
    let decay = curve(&grid, &[8.0, 5.0, 3.0, 2.0, 1.5, 1.2, 1.0, 0.9, 0.8]);
    let line = curve(&[0.0, 512.0], &[6.0, 0.0]);
    let high = curve(&[256.0, 512.0], &[4.0, 1.0]);
    let planner = Planner::new(64);
    let mut scratch = PlanScratch::default();
    let mut check = |curves: &[MissCurve], capacity: u64| {
        let fresh = planner.plan(curves, capacity, 0);
        assert_eq!(
            bits(&planner.plan_in(&mut scratch, curves, capacity, 0)),
            bits(&fresh)
        );
        fresh
    };
    // Wide, then narrow (stale offers, stale `alloc`), then wide again.
    check(&[cliff.clone(), decay.clone(), line.clone()], 512).unwrap();
    check(std::slice::from_ref(&decay), 512).unwrap();
    check(&[decay.clone(), cliff.clone(), line.clone()], 448).unwrap();
    // A nine-point hull's buffer, then a two-point curve in it (vertices
    // not truncated), in both tenant slots.
    check(&[line.clone(), line.clone()], 512).unwrap();
    // A call that fails (tenant 1 is granted less than its first
    // monitored size), then the same slots planned successfully.
    check(&[decay.clone(), high.clone()], 64).unwrap_err();
    check(&[decay, high], 1024).unwrap();
}
