//! Accuracy and invariant battery for the analytic curve backend.
//!
//! Mirrors PR 3's sampled-vs-exact style: per profile class, the analytic
//! curve is compared L∞ against [`SampledMattson`] run over the *actual
//! generator streams*, with guard bands around scan cliffs (where a
//! vertical step makes L∞ ill-conditioned in exactly the band whose width
//! is the interleaving/sampling noise — same rationale as
//! `scan_cliff_survives_sampling` in `crates/sim`).
//!
//! Sampling-ratio choices per class: at `ratio == 1` the sampled monitor
//! is the pipeline's exact mode (the spatial filter is off), so smooth
//! classes pin *tight* tolerances there — the analytic model tracks the
//! measured curve to a few hundredths, cold-miss fraction included. At
//! realistic ratios the SHARDS-adj rescale (`observed/sampled` accesses)
//! is only reliable when access mass is roughly proportional to line
//! count among sampled lines — true for scans and uniform sets, noisy for
//! skewed Zipf streams where one hot rank's sampling luck moves the whole
//! scale. The realistic-ratio checks therefore run on the scan and
//! uniform classes (as PR 3's battery did), and the Zipf classes assert
//! the exact-mode match.

use proptest::prelude::*;
use talus_core::{limits::WIRE_MAX_CURVE_POINTS, MissCurve};
use talus_sim::mb_to_lines;
use talus_sim::monitor::{Monitor, SampledMattson};
use talus_workloads::{
    multi_tenant, profile, AccessGenerator, AnalyticModel, AppProfile, ComponentKind,
};

/// L∞ distance between two curves on a grid.
fn linf(a: &MissCurve, b: &MissCurve, grid: &[u64]) -> f64 {
    grid.iter()
        .map(|&g| (a.value_at(g as f64) - b.value_at(g as f64)).abs())
        .fold(0.0, f64::max)
}

/// Runs `accesses` of the profile's generator stream through a
/// [`SampledMattson`] resolving `cap` lines at `ratio`.
fn sampled_curve_for(
    p: &AppProfile,
    cap: u64,
    ratio: u64,
    accesses: usize,
    seed: u64,
) -> SampledMattson {
    let mut gen = p.generator(seed, 0);
    let mut m = SampledMattson::new(cap, ratio, seed ^ 0xA11A);
    for _ in 0..accesses {
        m.record(gen.next_line());
    }
    m
}

/// Grid over `[0, cap]` with every point inside a `[0.8·c, 2.5·c]` band
/// around any scan-component footprint `c` removed — the guard bands
/// where mixture interleaving smears the analytic step.
fn guarded_grid(p: &AppProfile, cap: u64) -> Vec<u64> {
    let cliffs: Vec<u64> = p
        .components
        .iter()
        .filter(|c| matches!(c.kind, ComponentKind::Scan))
        .map(|c| mb_to_lines(c.mb).max(1))
        .collect();
    (0..=cap)
        .step_by((cap / 64).max(1) as usize)
        .filter(|&s| {
            cliffs
                .iter()
                .all(|&c| (s as f64) < 0.8 * c as f64 || (s as f64) > 2.5 * c as f64)
        })
        .collect()
}

/// Zipf class (smooth, convex): pure and mixed Zipf profiles match the
/// sampled pipeline's exact mode within a few hundredths — the largest
/// contribution is the stream's cold-miss fraction, which the
/// steady-state model deliberately omits.
#[test]
fn zipf_class_matches_sampled_exact_mode() {
    for (name, tol) in [("astar", 0.03), ("mcf", 0.03), ("sphinx3", 0.04)] {
        let p = profile(name).unwrap().scaled(1.0 / 256.0);
        let cap = 2 * mb_to_lines(p.footprint_mb()).max(1);
        let analytic = AnalyticModel::from_profile(&p).curve(cap);
        let m = sampled_curve_for(&p, cap, 1, 400_000, 11);
        let grid: Vec<u64> = (0..=cap).step_by((cap / 64).max(1) as usize).collect();
        let err = linf(&analytic, &m.curve_on_grid(&grid), &grid);
        assert!(err < tol, "{name}: L∞ {err} over tolerance {tol}");
    }
}

/// Scan class under *realistic* sampling (ratio 16): off a ±15% guard
/// band the curves agree, and the analytic cliff lands inside the band.
#[test]
fn scan_class_cliff_survives_real_sampling() {
    let p = profile("libquantum").unwrap().scaled(1.0 / 1024.0);
    let lines = mb_to_lines(p.footprint_mb()).max(1);
    let cap = 2 * lines;
    let analytic = AnalyticModel::from_profile(&p).curve(cap);
    let m = sampled_curve_for(&p, cap, 16, 400_000, 17);
    let guard = (lines as f64 * 0.15) as u64;
    let grid: Vec<u64> = (0..=cap)
        .step_by((cap / 64).max(1) as usize)
        .filter(|&g| g < lines - guard || g > lines + guard)
        .collect();
    let err = linf(&analytic, &m.curve_on_grid(&grid), &grid);
    assert!(err < 0.05, "L∞ off the cliff band: {err}");
    assert!(analytic.value_at((lines - guard) as f64) > 0.9);
    assert!(analytic.value_at((lines + guard) as f64) < 0.1);
}

/// Uniform class under realistic sampling (ratio 8): smooth knee, no
/// guard bands needed, and the SHARDS-adj rescale is reliable here.
#[test]
fn uniform_class_matches_under_real_sampling() {
    let p = profile("hmmer").unwrap().scaled(1.0 / 16.0);
    let cap = 2 * mb_to_lines(p.footprint_mb()).max(1);
    let analytic = AnalyticModel::from_profile(&p).curve(cap);
    let m = sampled_curve_for(&p, cap, 8, 400_000, 7);
    let grid: Vec<u64> = (0..=cap).step_by((cap / 64).max(1) as usize).collect();
    let err = linf(&analytic, &m.curve_on_grid(&grid), &grid);
    assert!(err < 0.06, "L∞ on uniform class: {err}");
}

/// Scan+Zipf mixture class: outside the scan-cliff guard bands the
/// analytic superposition tracks the measured curve, including the
/// partial-weight plateaus between cliffs.
#[test]
fn mixture_class_matches_outside_cliff_bands() {
    for (name, tol) in [("omnetpp", 0.04), ("perlbench", 0.04), ("xalancbmk", 0.04)] {
        let p = profile(name).unwrap().scaled(1.0 / 256.0);
        let cap = 2 * mb_to_lines(p.footprint_mb()).max(1);
        let analytic = AnalyticModel::from_profile(&p).curve(cap);
        let m = sampled_curve_for(&p, cap, 1, 400_000, 11);
        let grid = guarded_grid(&p, cap);
        let err = linf(&analytic, &m.curve_on_grid(&grid), &grid);
        assert!(err < tol, "{name}: guarded L∞ {err} over tolerance {tol}");
    }
}

/// Multi-tenant interference class: one tenant's phased stream (rotating
/// shared-window scan + private Zipf) against the steady-state phase
/// model, guarded around the window cliff. The model omits cross-rotation
/// reuse of old windows, which shows up as a ~1-2% residual above the
/// cliff — inside the tolerance, and the reason it is looser than the
/// pure classes.
#[test]
fn multi_tenant_class_matches_steady_state_phase() {
    let mt = multi_tenant(4).scaled(1.0 / 64.0);
    let cap = 2 * mt.tenant_footprint_lines();
    let window = (mt.shared_lines() / mt.windows as u64).max(1);
    let analytic = AnalyticModel::from_multi_tenant(&mt).curve(cap);
    for (tenant, seed) in [(0usize, 5u64), (1, 19)] {
        let mut gen = mt.tenant_generator(tenant, seed);
        let mut m = SampledMattson::new(cap, 1, seed);
        for _ in 0..800_000 {
            m.record(gen.next_line());
        }
        let grid: Vec<u64> = (0..=cap)
            .step_by((cap / 64).max(1) as usize)
            .filter(|&s| (s as f64) < 0.8 * window as f64 || (s as f64) > 2.5 * window as f64)
            .collect();
        let err = linf(&analytic, &m.curve_on_grid(&grid), &grid);
        assert!(err < 0.05, "tenant {tenant}: guarded L∞ {err}");
    }
}

/// Degenerate footprints the ISSUE calls out explicitly.
#[test]
fn degenerate_footprints_yield_valid_curves() {
    // 0-size scan: clamps to one line, cliff at 1.
    let zero_scan = AnalyticModel::from_components(&[(ComponentKind::Scan, 0, 1.0)]).curve(64);
    assert_eq!(zero_scan.value_at(0.0), 1.0);
    assert!(zero_scan.value_at(1.0) < 1e-9);
    assert!(zero_scan.is_monotone(1e-12));
    // Single-object Zipf: one line, hits at size 1.
    let one_zipf = AnalyticModel::from_components(&[(ComponentKind::Zipf(1.2), 1, 1.0)]).curve(64);
    assert_eq!(one_zipf.value_at(0.0), 1.0);
    assert!(one_zipf.value_at(1.0) < 1e-12);
    // Both mixed with a real component still satisfy the invariants.
    let mixed = AnalyticModel::from_components(&[
        (ComponentKind::Scan, 0, 0.5),
        (ComponentKind::Zipf(0.9), 1, 0.25),
        (ComponentKind::Random, 4096, 0.25),
    ])
    .curve(1024);
    assert!(mixed.is_monotone(1e-12));
    assert_eq!(mixed.value_at(0.0), 1.0);
    assert_eq!(mixed.max_size(), 1024.0);
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// `MissCurve` invariants hold for *random* specs: monotone
    /// non-increasing, clamped to [0, 1], a valid strictly-increasing
    /// grid spanning exactly [0, max_lines], wire-transportable point
    /// count — including degenerate footprints (the `lines` range starts
    /// at 0) and degenerate weights.
    #[test]
    fn analytic_curves_always_satisfy_miss_curve_invariants(
        raw in proptest::collection::vec((0u64..3, 0u64..100_000, 0u32..1000), 1..6),
        cap in 1u64..200_000,
    ) {
        let comps: Vec<(ComponentKind, u64, f64)> = raw
            .iter()
            .map(|&(kind, lines, w)| {
                let kind = match kind {
                    0 => ComponentKind::Scan,
                    1 => ComponentKind::Random,
                    // Exponents 0.0 .. 2.0 in steps of ~0.002.
                    _ => ComponentKind::Zipf(f64::from(w) / 500.0),
                };
                (kind, lines, f64::from(w) / 100.0)
            })
            .collect();
        let curve = AnalyticModel::from_components(&comps).curve(cap);
        prop_assert!(curve.is_monotone(1e-12), "monotone non-increasing");
        prop_assert!(
            curve.iter().all(|p| (0.0..=1.0).contains(&p.misses)),
            "values clamped to [0, 1]"
        );
        prop_assert_eq!(curve.min_size(), 0.0);
        prop_assert_eq!(curve.max_size(), cap as f64);
        prop_assert_eq!(curve.value_at(0.0), 1.0);
        prop_assert!(
            curve.len() <= WIRE_MAX_CURVE_POINTS as usize,
            "fits the wire-protocol curve bound"
        );
        // Grid validity (strictly increasing, finite) is enforced by the
        // MissCurve constructor; re-building from the points proves it.
        let rebuilt = MissCurve::new(curve.iter());
        prop_assert!(rebuilt.is_ok(), "points form a valid curve");
    }
}
