//! Property-based tests for the Talus math.
//!
//! These check the paper's theorems on *arbitrary* miss curves, not just the
//! worked examples: hulls are convex minorants, the Theorem-4 transform is
//! consistent, plans land on the hull, and bypassing never beats Talus.

use proptest::prelude::*;
use talus_core::bypass::{optimal_bypass, optimal_bypass_curve};
use talus_core::{
    plan, shadow_miss_rate, talus_curve, ConvexHull, CurvePoint, MissCurve, TalusOptions, TalusPlan,
};

/// Strategy: an arbitrary valid miss curve with 2..=40 points, sizes on an
/// integer-ish grid, non-negative miss values. Optionally forced monotone
/// non-increasing (realistic miss curves).
fn arb_curve(monotone: bool) -> impl Strategy<Value = MissCurve> {
    (2usize..40, any::<u64>()).prop_map(move |(n, seed)| {
        // Simple deterministic PRNG so shrinking stays meaningful.
        let mut state = seed | 1;
        let mut next = move || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            state
        };
        let mut sizes = Vec::with_capacity(n);
        let mut s = 0.0f64;
        for _ in 0..n {
            sizes.push(s);
            s += 1.0 + (next() % 8) as f64 / 2.0;
        }
        let mut misses = Vec::with_capacity(n);
        let mut m = 100.0 + (next() % 100) as f64;
        for _ in 0..n {
            misses.push(m);
            let drop = (next() % 32) as f64;
            if monotone {
                m = (m - drop).max(0.0);
            } else {
                // Mostly decreasing with occasional bumps (measurement noise).
                let bump = if next() % 5 == 0 {
                    (next() % 8) as f64
                } else {
                    0.0
                };
                m = (m - drop + bump).max(0.0);
            }
        }
        MissCurve::from_samples(&sizes, &misses).expect("generated curve is valid")
    })
}

/// The monotone-chain scan in its plainest form — every pop test
/// re-indexes the `Vec` — kept apart from `ConvexHull`'s scan (`of_curve`,
/// and `assign` into a used buffer) as its oracle: however that scan is
/// tuned, it must keep these vertices.
fn indexed_scan(points: &[CurvePoint]) -> Vec<CurvePoint> {
    let mut hull: Vec<CurvePoint> = Vec::new();
    for &p in points {
        while hull.len() >= 2 {
            let a = hull[hull.len() - 2];
            let b = hull[hull.len() - 1];
            let cross = (b.size - a.size) * (p.misses - a.misses)
                - (b.misses - a.misses) * (p.size - a.size);
            if cross <= 0.0 {
                hull.pop();
            } else {
                break;
            }
        }
        hull.push(p);
    }
    hull
}

/// A curve of `points` points in the `shape`th of the six shapes that decide
/// what the scan pops: all-flat and exactly collinear runs (cross product
/// exactly zero), the repo benchmark's plateaus (0.1 % a point: collinear
/// up to rounding) between cliffs, integer staircases, smooth decays, and
/// noise that rises — on grids from zero or from a positive origin, on
/// round steps or off them, evenly spaced or not.
fn scan_curve(points: usize, shape: u64, seed: u64) -> MissCurve {
    let mut state = seed | 1;
    let mut next = move || {
        state ^= state << 13;
        state ^= state >> 7;
        state ^= state << 17;
        state
    };
    let origin = [0.0, 0.0, 37.25, 300.0][(next() % 4) as usize];
    let step = [1.0, 64.0, 1024.0, 7.3][(next() % 4) as usize];
    let even = next() % 3 != 0;
    let mut size = origin;
    let sizes: Vec<f64> = (0..points)
        .map(|_| {
            let here = size;
            size += if even {
                step
            } else {
                step * (1 + next() % 5) as f64 / 2.0
            };
            here
        })
        .collect();
    let top = (8 + next() % 33) as f64;
    let run = 1 + (next() % 40) as usize;
    let knee = 1.0 + (next() % 24) as f64;
    let misses: Vec<f64> = (0..points)
        .map(|i| match shape {
            0 => top,
            // Straight runs with a kink every `run` points.
            1 => 100.0 + top - (i + i / run) as f64 / 8.0,
            2 => {
                let level = top * (1.0 - 0.3 * ((i / run) as f64).min(3.0));
                level * (1.0 - 0.001 * i as f64)
            }
            3 => (top - (i / run) as f64).max(0.0),
            4 => 0.5 + top * (-(i as f64) / knee).exp(),
            _ => (next() % 12) as f64,
        })
        .collect();
    MissCurve::from_samples(&sizes, &misses).expect("generated curve is valid")
}

fn assert_scan_matches(curve: &MissCurve) {
    let got = ConvexHull::of_curve(curve);
    let want = indexed_scan(&curve.iter().collect::<Vec<_>>());
    let bits = |v: &[CurvePoint]| -> Vec<(u64, u64)> {
        v.iter()
            .map(|p| (p.size.to_bits(), p.misses.to_bits()))
            .collect()
    };
    assert_eq!(bits(got.vertices()), bits(&want), "{curve:?}");
    // The in-place form, over buffers that held longer and shorter hulls.
    for points in [1, 40, 400] {
        let mut reused = ConvexHull::of_curve(&scan_curve(points, 4, 7));
        reused.assign(curve);
        assert_eq!(bits(reused.vertices()), bits(&want), "{curve:?}");
    }
}

#[test]
fn hull_scan_equals_the_indexed_scan_on_the_smallest_curves() {
    // One point, two, and the first sizes at which a pop can happen,
    // cascade, and empty the stack down to its first vertex.
    for points in 1..=6 {
        for shape in 0..6 {
            for seed in 0..16 {
                assert_scan_matches(&scan_curve(points, shape, seed));
            }
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(1500))]

    #[test]
    fn hull_scan_equals_the_indexed_scan(
        points in 1usize..=300,
        shape in 0u64..6,
        seed in any::<u64>(),
    ) {
        assert_scan_matches(&scan_curve(points, shape, seed));
    }
}

proptest! {
    #[test]
    fn hull_is_convex_minorant(curve in arb_curve(false)) {
        let hull = curve.convex_hull();
        // Convex.
        prop_assert!(hull.to_curve().is_convex(1e-7));
        // Minorant: never above the curve at any sampled size.
        for p in curve.iter() {
            prop_assert!(hull.value_at(p.size) <= p.misses + 1e-7);
        }
        // Touches the curve at its own vertices.
        for v in hull.vertices() {
            prop_assert!((curve.value_at(v.size) - v.misses).abs() < 1e-7);
        }
        // Endpoints preserved.
        prop_assert_eq!(hull.min_size(), curve.min_size());
        prop_assert_eq!(hull.max_size(), curve.max_size());
    }

    #[test]
    fn hull_is_idempotent(curve in arb_curve(false)) {
        let once = curve.convex_hull().to_curve();
        let twice = once.convex_hull().to_curve();
        prop_assert_eq!(once.len(), twice.len());
        for (a, b) in once.iter().zip(twice.iter()) {
            prop_assert!((a.size - b.size).abs() < 1e-12);
            prop_assert!((a.misses - b.misses).abs() < 1e-12);
        }
    }

    #[test]
    fn theorem4_transform_scales_consistently(
        curve in arb_curve(true),
        rho_pct in 1u32..=100,
    ) {
        let rho = rho_pct as f64 / 100.0;
        let sampled = curve.sampled(rho);
        // m'(rho * s) == rho * m(s) at every original knot.
        for p in curve.iter() {
            let got = sampled.value_at(rho * p.size);
            prop_assert!((got - rho * p.misses).abs() < 1e-7,
                "at size {}: {} vs {}", p.size, got, rho * p.misses);
        }
    }

    #[test]
    fn proportional_split_is_invisible(curve in arb_curve(true), pct in 1u32..100) {
        // Splitting a cache in proportion to its access split leaves the
        // total miss rate unchanged (paper §IV-B intuition, Figs. 2a/2b).
        let rho = pct as f64 / 100.0;
        let s = curve.max_size() * 0.7;
        let combined = shadow_miss_rate(&curve, rho * s, (1.0 - rho) * s, rho);
        prop_assert!((combined - curve.value_at(s)).abs() < 1e-7);
    }

    #[test]
    fn plan_lands_on_hull(curve in arb_curve(true), frac in 0.0f64..1.0) {
        let hull = curve.convex_hull();
        let s = curve.min_size() + frac * (curve.max_size() - curve.min_size());
        let p = plan(&curve, s, TalusOptions::exact()).unwrap();
        prop_assert!((p.expected_misses() - hull.value_at(s)).abs() < 1e-7);
        // And the shadow formula agrees with the plan's expectation.
        if let TalusPlan::Shadow(cfg) = p {
            let m = shadow_miss_rate(&curve, cfg.s1, cfg.s2, cfg.rho);
            // With the exact rho, Eq. 2 must land on the hull; tolerance is
            // loose because s1/rho hits interpolated (non-knot) sizes.
            prop_assert!(m <= curve.value_at(s) + 1e-7);
            // Partition sizes are a valid decomposition.
            prop_assert!(cfg.s1 >= 0.0 && cfg.s2 >= 0.0);
            prop_assert!((cfg.s1 + cfg.s2 - s).abs() < 1e-9);
            prop_assert!(cfg.rho > 0.0 && cfg.rho < 1.0);
            prop_assert!(cfg.alpha <= s && s < cfg.beta);
        }
    }

    #[test]
    fn plan_with_margin_is_still_valid(curve in arb_curve(true), frac in 0.0f64..1.0) {
        let s = curve.min_size() + frac * (curve.max_size() - curve.min_size());
        let p = plan(&curve, s, TalusOptions::new()).unwrap();
        if let TalusPlan::Shadow(cfg) = p {
            prop_assert!(cfg.rho > 0.0 && cfg.rho < 1.0);
            prop_assert!(cfg.rho >= cfg.ideal_rho);
            // Margin shrinks emulated alpha and grows emulated beta.
            prop_assert!(cfg.emulated_alpha() <= cfg.alpha + 1e-9);
            prop_assert!(cfg.emulated_beta() >= cfg.beta - 1e-9);
        }
    }

    #[test]
    fn bypass_sandwiched_between_hull_and_curve(curve in arb_curve(true)) {
        let talus = talus_curve(&curve);
        let bypass = optimal_bypass_curve(&curve);
        for p in curve.iter() {
            let b = bypass.value_at(p.size);
            prop_assert!(b >= talus.value_at(p.size) - 1e-7,
                "bypass beats hull at {}", p.size);
            prop_assert!(b <= p.misses + 1e-7,
                "bypass worse than original at {}", p.size);
        }
    }

    #[test]
    fn bypass_plan_is_internally_consistent(curve in arb_curve(true), frac in 0.0f64..1.0) {
        let s = curve.min_size() + frac * (curve.max_size() - curve.min_size());
        let plan = optimal_bypass(&curve, s).unwrap();
        prop_assert!(plan.rho > 0.0 && plan.rho <= 1.0);
        let total = plan.admitted_misses(&curve) + plan.bypassed_misses(&curve);
        prop_assert!((total - plan.expected_misses).abs() < 1e-7);
    }

    #[test]
    fn monotone_envelope_is_monotone_minorant(curve in arb_curve(false)) {
        let env = curve.monotone_envelope();
        prop_assert!(env.is_monotone(1e-12));
        for (e, p) in env.iter().zip(curve.iter()) {
            prop_assert!(e.misses <= p.misses);
        }
    }

    #[test]
    fn sum_is_commutative(a in arb_curve(true), b in arb_curve(true)) {
        let ab = a.sum(&b);
        let ba = b.sum(&a);
        for p in ab.iter() {
            prop_assert!((p.misses - ba.value_at(p.size)).abs() < 1e-7);
        }
    }
}
