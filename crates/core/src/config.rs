//! Shadow-partition planning: turning a miss curve and a target size into a
//! Talus configuration.
//!
//! Given a miss curve `m(s)` and a cache of size `s`, Talus (paper §IV):
//!
//! 1. computes the convex hull of `m`,
//! 2. finds the hull vertices α ≤ s < β bracketing `s` (Theorem 6),
//! 3. splits the cache into two shadow partitions of sizes `s1 = ρ·α` and
//!    `s2 = s − s1`, where `ρ = (β − s)/(β − α)` (Lemma 5), and
//! 4. steers a pseudo-random fraction ρ of accesses to the first partition.
//!
//! The first partition then emulates a cache of size α, the second a cache
//! of size β, and the total miss rate interpolates linearly between `m(α)`
//! and `m(β)` — i.e. it lies on the convex hull.

use crate::curve::{CurvePoint, MissCurve};
use crate::error::PlanError;
use crate::hull::ConvexHull;

/// Tuning knobs for [`plan`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TalusOptions {
    /// Relative increase applied to ρ to build in a margin of safety
    /// (paper §VI-B). Increasing ρ by x% while keeping the partition sizes
    /// fixed shrinks the emulated α by x% and grows the emulated β by x%,
    /// pushing both away from the cliff. The paper determined 5% empirically.
    pub safety_margin: f64,
    /// Absolute tolerance when deciding whether the target size coincides
    /// with a hull vertex (in which case the cache runs unpartitioned).
    pub vertex_tolerance: f64,
}

impl TalusOptions {
    /// Options matching the paper's evaluated configuration (5% margin).
    pub fn new() -> Self {
        TalusOptions {
            safety_margin: 0.05,
            vertex_tolerance: 1e-9,
        }
    }

    /// Options with no safety margin: the exact textbook math. Useful for
    /// verifying the theory; real deployments should keep a margin.
    pub fn exact() -> Self {
        TalusOptions {
            safety_margin: 0.0,
            vertex_tolerance: 1e-9,
        }
    }

    /// Sets the safety margin (e.g. `0.05` for 5%).
    pub fn with_safety_margin(mut self, margin: f64) -> Self {
        self.safety_margin = margin;
        self
    }
}

impl Default for TalusOptions {
    fn default() -> Self {
        Self::new()
    }
}

/// A complete shadow-partition configuration for one cache (or one logical
/// partition of a partitioned cache).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ShadowConfig {
    /// Total capacity being managed.
    pub total: f64,
    /// Hull vertex the first shadow partition emulates (the smaller cache).
    pub alpha: f64,
    /// Hull vertex the second shadow partition emulates (the larger cache).
    pub beta: f64,
    /// Fraction of accesses sampled into the α partition, *after* the
    /// safety-margin adjustment. In `(0, 1)`.
    pub rho: f64,
    /// The exact Lemma-5 sampling rate before the margin adjustment.
    pub ideal_rho: f64,
    /// Size of the α shadow partition (`ρ_ideal · α`).
    pub s1: f64,
    /// Size of the β shadow partition (`total − s1`).
    pub s2: f64,
    /// Miss metric Talus expects to achieve: the hull value at `total`
    /// (Eq. 5).
    pub expected_misses: f64,
}

impl ShadowConfig {
    /// Cache size the α partition emulates under the adjusted ρ:
    /// `s1 / ρ` (Theorem 4). With a positive margin this is slightly below
    /// the hull vertex α.
    pub fn emulated_alpha(&self) -> f64 {
        if self.rho > 0.0 {
            self.s1 / self.rho
        } else {
            0.0
        }
    }

    /// Cache size the β partition emulates under the adjusted ρ:
    /// `s2 / (1 − ρ)` (Theorem 4). With a positive margin this is slightly
    /// above the hull vertex β.
    pub fn emulated_beta(&self) -> f64 {
        self.s2 / (1.0 - self.rho)
    }

    /// Recomputes the sampling rate after a partitioning scheme has
    /// coarsened the partition sizes (paper §VI-B, "Talus on way
    /// partitioning"): with actual sizes `(s1, s2)`, sampling at
    /// `ρ = s1 / α` keeps the α partition emulating exactly α.
    ///
    /// Returns an updated configuration with the coarsened sizes. If
    /// `alpha` is zero (a bypass partition) the rate is unchanged.
    ///
    /// # Panics
    ///
    /// Panics if `s1_actual` or `s2_actual` is negative.
    pub fn coarsened(&self, s1_actual: f64, s2_actual: f64) -> ShadowConfig {
        assert!(
            s1_actual >= 0.0 && s2_actual >= 0.0,
            "sizes must be non-negative"
        );
        let mut cfg = *self;
        cfg.s1 = s1_actual;
        cfg.s2 = s2_actual;
        cfg.total = s1_actual + s2_actual;
        if self.alpha > 0.0 {
            cfg.rho = (s1_actual / self.alpha).clamp(0.0, MAX_RHO);
        }
        cfg
    }
}

/// The outcome of Talus planning at one size.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum TalusPlan {
    /// The target size sits on a hull vertex (or past the last one): the
    /// underlying policy is already efficient there, so the cache runs as a
    /// single partition receiving all accesses.
    Unpartitioned {
        /// The cache size.
        size: f64,
        /// Miss metric the policy achieves at this size.
        expected_misses: f64,
    },
    /// The target size falls strictly inside a non-convex bridge: split
    /// into two shadow partitions.
    Shadow(ShadowConfig),
}

impl TalusPlan {
    /// Miss metric this plan expects to achieve (the hull value).
    pub fn expected_misses(&self) -> f64 {
        match self {
            TalusPlan::Unpartitioned {
                expected_misses, ..
            } => *expected_misses,
            TalusPlan::Shadow(cfg) => cfg.expected_misses,
        }
    }

    /// The shadow configuration, if the plan partitions the cache.
    pub fn shadow(&self) -> Option<&ShadowConfig> {
        match self {
            TalusPlan::Shadow(cfg) => Some(cfg),
            TalusPlan::Unpartitioned { .. } => None,
        }
    }
}

/// Highest sampling rate we will configure; keeps `1 − ρ` bounded away from
/// zero so the β partition's emulated size stays finite.
const MAX_RHO: f64 = 0.999_9;

/// Plans a Talus configuration for a cache of `size` given the underlying
/// policy's miss curve.
///
/// Computes the hull internally; use [`plan_with_hull`] when planning many
/// sizes against one curve.
///
/// # Errors
///
/// Returns [`PlanError`] if `size` is negative/non-finite, below the curve's
/// smallest monitored size, or the options are invalid.
///
/// # Examples
///
/// The paper's §III worked example: a 4 MB cache bracketed by hull vertices
/// at 2 MB and 5 MB yields ρ = 1/3, s1 = 2/3 MB, s2 = 10/3 MB, 6 MPKI.
///
/// ```
/// use talus_core::{plan, MissCurve, TalusOptions, TalusPlan};
/// let curve = MissCurve::from_samples(
///     &[0.0, 1.0, 2.0, 3.0, 4.0, 5.0, 10.0],
///     &[24.0, 18.0, 12.0, 12.0, 12.0, 3.0, 3.0],
/// )?;
/// let plan = plan(&curve, 4.0, TalusOptions::exact())?;
/// let cfg = plan.shadow().expect("4 MB is on the plateau");
/// assert!((cfg.rho - 1.0 / 3.0).abs() < 1e-9);
/// assert!((cfg.s1 - 2.0 / 3.0).abs() < 1e-9);
/// assert!((cfg.s2 - 10.0 / 3.0).abs() < 1e-9);
/// assert!((cfg.expected_misses - 6.0).abs() < 1e-9);
/// # Ok::<(), Box<dyn std::error::Error>>(())
/// ```
pub fn plan(curve: &MissCurve, size: f64, options: TalusOptions) -> Result<TalusPlan, PlanError> {
    plan_with_hull(&curve.convex_hull(), size, options)
}

/// Plans a Talus configuration against a precomputed hull.
///
/// # Errors
///
/// Same as [`plan`].
pub fn plan_with_hull(
    hull: &ConvexHull,
    size: f64,
    options: TalusOptions,
) -> Result<TalusPlan, PlanError> {
    if !size.is_finite() || size < 0.0 {
        return Err(PlanError::InvalidSize { size });
    }
    if !options.safety_margin.is_finite() || options.safety_margin < 0.0 {
        return Err(PlanError::InvalidMargin {
            margin: options.safety_margin,
        });
    }
    if size < hull.min_size() - options.vertex_tolerance {
        return Err(PlanError::SizeOutOfRange {
            size,
            min: hull.min_size(),
            max: hull.max_size(),
        });
    }
    // At or beyond the last vertex, or on any vertex: the policy is
    // already on its hull; run unpartitioned. A size's nearest vertices
    // are its bracket's two ends — float subtraction rounds monotonically,
    // so no farther vertex is within the tolerance when neither end is —
    // and a size below the first vertex, yet inside the tolerance band the
    // range check let through, is on that vertex.
    let on_vertex = |v: CurvePoint| (v.size - size).abs() <= options.vertex_tolerance;
    let bracket = match hull.bracket(size) {
        Some((a, b)) if !on_vertex(a) && !on_vertex(b) => Some((a, b)),
        _ => None,
    };
    let Some((a, b)) = bracket else {
        return Ok(TalusPlan::Unpartitioned {
            size,
            expected_misses: hull.value_at(size),
        });
    };
    let (alpha, beta) = (a.size, b.size);
    debug_assert!(alpha < size && size < beta);

    // Lemma 5: rho is the normalised distance from s to beta.
    let ideal_rho = (beta - size) / (beta - alpha);
    let s1 = ideal_rho * alpha;
    let s2 = size - s1;
    // Eq. 5: linear interpolation of the endpoint miss rates.
    let expected_misses = ((beta - size) * a.misses + (size - alpha) * b.misses) / (beta - alpha);

    // Safety margin (§VI-B): raise the *sampling rate* while keeping the
    // partition sizes, which shrinks the emulated alpha and grows the
    // emulated beta, moving both off the cliff edge. Growing beta by the
    // margin m requires shrinking (1 − ρ) by m: ρ' = 1 − (1 − ρ)/(1 + m).
    // (Scaling ρ itself would protect nothing as ρ → 0, i.e. exactly in
    // the bypass-heavy plans where the cliff sits closest.)
    let rho = apply_margin(ideal_rho, options.safety_margin);

    Ok(TalusPlan::Shadow(ShadowConfig {
        total: size,
        alpha,
        beta,
        rho,
        ideal_rho,
        s1,
        s2,
        expected_misses,
    }))
}

/// Applies the §VI-B safety margin to a sampling rate: the emulated β
/// grows by `margin` (the emulated α shrinks correspondingly), keeping the
/// cached fraction of the stream safely below the larger vertex's knee.
///
/// Exposed so hardware layers that recompute ρ after coarsening can
/// re-apply the same adjustment.
///
/// The result is capped at the highest configurable rate (0.9999) but is
/// never below `rho`: a size within 0.01 % of a bridge's lower vertex
/// already has an ideal rate above the cap, and keeps it.
///
/// # Panics
///
/// Panics if `rho` is outside `[0, 1]` or `margin` is negative.
pub fn apply_margin(rho: f64, margin: f64) -> f64 {
    assert!(
        (0.0..=1.0).contains(&rho),
        "rho must be in [0, 1], got {rho}"
    );
    assert!(
        margin >= 0.0 && margin.is_finite(),
        "margin must be non-negative"
    );
    // Not `clamp(rho, MAX_RHO)`, which panics when `rho > MAX_RHO`.
    (1.0 - (1.0 - rho) / (1.0 + margin)).min(MAX_RHO).max(rho)
}

/// Evaluates the general shadow-partition miss formula (paper Eq. 2):
/// `m_shadow = ρ·m(s1/ρ) + (1−ρ)·m(s2/(1−ρ))`.
///
/// This is the miss metric of *any* two-partition split of the stream, not
/// just Talus's choice; Talus picks `(s1, s2, ρ)` so this lands on the hull.
/// Degenerate rates (`ρ = 0` or `ρ = 1`) reduce to a single partition.
///
/// # Panics
///
/// Panics if `rho` is outside `[0, 1]` or any size is negative.
pub fn shadow_miss_rate(curve: &MissCurve, s1: f64, s2: f64, rho: f64) -> f64 {
    assert!(
        (0.0..=1.0).contains(&rho),
        "rho must be in [0, 1], got {rho}"
    );
    assert!(
        s1 >= 0.0 && s2 >= 0.0,
        "partition sizes must be non-negative"
    );
    let part1 = if rho > 0.0 {
        rho * curve.value_at(s1 / rho)
    } else {
        0.0
    };
    let part2 = if rho < 1.0 {
        (1.0 - rho) * curve.value_at(s2 / (1.0 - rho))
    } else {
        0.0
    };
    part1 + part2
}

/// The full miss curve Talus realises on top of `curve`: its convex hull,
/// resampled onto the original curve's size grid.
///
/// This is the dashed "Talus" line in the paper's Fig. 1 and Fig. 3, and the
/// curve Talus's pre-processing step hands to partitioning algorithms
/// (§VI-A).
pub fn talus_curve(curve: &MissCurve) -> MissCurve {
    curve
        .convex_hull()
        .to_curve_on_grid(curve.sizes())
        .expect("curve grid is valid")
}

#[cfg(test)]
mod tests {
    use super::*;

    fn fig3_curve() -> MissCurve {
        MissCurve::from_samples(
            &[0.0, 1.0, 2.0, 3.0, 4.0, 5.0, 10.0],
            &[24.0, 18.0, 12.0, 12.0, 12.0, 3.0, 3.0],
        )
        .unwrap()
    }

    #[test]
    fn paper_worked_example_exact() {
        let plan = plan(&fig3_curve(), 4.0, TalusOptions::exact()).unwrap();
        let cfg = plan.shadow().unwrap();
        assert_eq!(cfg.alpha, 2.0);
        assert_eq!(cfg.beta, 5.0);
        assert!((cfg.rho - 1.0 / 3.0).abs() < 1e-12);
        assert!((cfg.s1 - 2.0 / 3.0).abs() < 1e-12);
        assert!((cfg.s2 - 10.0 / 3.0).abs() < 1e-12);
        assert!((cfg.expected_misses - 6.0).abs() < 1e-12);
        assert!((cfg.emulated_alpha() - 2.0).abs() < 1e-12);
        assert!((cfg.emulated_beta() - 5.0).abs() < 1e-12);
    }

    #[test]
    fn safety_margin_moves_emulated_sizes_off_the_cliff() {
        let plan = plan(&fig3_curve(), 4.0, TalusOptions::new()).unwrap();
        let cfg = plan.shadow().unwrap();
        // rho raised so that (1 - rho) shrinks by 5%; sizes unchanged.
        let expected_rho = 1.0 - (2.0 / 3.0) / 1.05;
        assert!((cfg.rho - expected_rho).abs() < 1e-12);
        assert!((cfg.s1 - 2.0 / 3.0).abs() < 1e-12);
        // alpha emulated smaller, beta emulated exactly 5% larger.
        assert!(cfg.emulated_alpha() < 2.0);
        assert!((cfg.emulated_beta() - 5.0 * 1.05).abs() < 1e-9);
    }

    #[test]
    fn margin_protects_bypass_plans_too() {
        // alpha = 0: scaling rho itself would do nothing; the corrected
        // margin still grows the emulated beta by 5%.
        let c = MissCurve::from_samples(&[0.0, 1.0, 2.0, 3.0], &[10.0, 10.0, 10.0, 1.0]).unwrap();
        let cfg = *plan(&c, 1.5, TalusOptions::new())
            .unwrap()
            .shadow()
            .unwrap();
        assert_eq!(cfg.alpha, 0.0);
        assert!(cfg.rho > cfg.ideal_rho);
        assert!((cfg.emulated_beta() - 3.0 * 1.05).abs() < 1e-9);
    }

    #[test]
    fn apply_margin_endpoints() {
        assert!((apply_margin(0.0, 0.05) - 0.05 / 1.05).abs() < 1e-12);
        assert_eq!(apply_margin(0.5, 0.0), 0.5);
        // Never exceeds MAX_RHO or drops below the input.
        assert!(apply_margin(0.9999, 0.5) <= 0.9999 + 1e-12);
        assert!(apply_margin(0.2, 0.1) >= 0.2);
    }

    #[test]
    fn size_just_above_a_vertex_plans_without_panicking() {
        // An allocation a hair above the bridge's lower vertex — outside
        // the default `vertex_tolerance`, inside the last 0.01 % of the
        // bridge — has an ideal rho above MAX_RHO. It used to panic in
        // `clamp` (min > max); it must keep its ideal rate.
        let c = MissCurve::from_samples(&[0.0, 1024.0, 65_536.0], &[10.0, 5.0, 1.0]).unwrap();
        let cfg = *plan(&c, 1024.0 + 1e-3, TalusOptions::new())
            .unwrap()
            .shadow()
            .expect("outside the vertex tolerance: a shadow plan");
        assert!(cfg.ideal_rho > MAX_RHO && cfg.ideal_rho < 1.0);
        assert_eq!(cfg.rho, cfg.ideal_rho);
        assert!(cfg.emulated_beta().is_finite());
        assert_eq!(apply_margin(1.0, 0.05), 1.0);
    }

    #[test]
    fn a_size_in_the_tolerance_band_below_the_first_vertex_is_on_it() {
        // 1000.1 − 0.1 rounds to at most 1000.0, so 1000.0 passes the range
        // check, but 1000.1 − 1000.0 rounds to just above 0.1: the vertex
        // scan said "not a vertex" and `bracket` (below the first vertex)
        // had nothing to return — a panic, a quarantined cache in the
        // plane.
        let c = MissCurve::from_samples(&[1000.1, 2000.0, 4000.0], &[9.0, 9.0, 1.0]).unwrap();
        let options = TalusOptions {
            vertex_tolerance: 0.1,
            ..TalusOptions::new()
        };
        assert!(1000.0 >= 1000.1 - options.vertex_tolerance);
        assert!((1000.1f64 - 1000.0).abs() > options.vertex_tolerance);
        let hull = c.convex_hull();
        for size in [1000.0, 1000.1 - 0.1, 1000.05] {
            assert_eq!(
                plan_with_hull(&hull, size, options),
                Ok(TalusPlan::Unpartitioned {
                    size,
                    expected_misses: 9.0
                }),
                "size {size}"
            );
        }
        // Below the band is still out of range.
        assert!(matches!(
            plan_with_hull(&hull, 999.0, options),
            Err(PlanError::SizeOutOfRange { .. })
        ));
    }

    #[test]
    fn bracket_first_answers_what_the_vertex_scan_answered() {
        // Wherever the old order (scan every vertex, then bracket) did not
        // panic, bracketing first gives the same plan: random hulls,
        // tolerances from none to wider than a segment, sizes on, beside
        // and between vertices.
        let mut state = 0x9E37_79B9_7F4A_7C15u64;
        let mut next = move || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            state
        };
        for _ in 0..20_000 {
            let n = 1 + (next() % 6) as usize;
            let mut size = (next() % 3) as f64 * 1000.1;
            let sizes: Vec<f64> = (0..n)
                .map(|_| {
                    let here = size;
                    size += 0.05 + (next() % 400) as f64 / 8.0;
                    here
                })
                .collect();
            let misses: Vec<f64> = (0..n).map(|_| (next() % 16) as f64).collect();
            let hull = MissCurve::from_samples(&sizes, &misses)
                .unwrap()
                .convex_hull();
            let tol = [0.0, 1e-9, 0.1, 0.5, 3.0][(next() % 5) as usize];
            let options = TalusOptions {
                vertex_tolerance: tol,
                ..TalusOptions::new()
            };
            let v = hull.vertices()[(next() % hull.len() as u64) as usize].size;
            let nudge = [0.0, tol, -tol, tol * 0.999, -tol * 1.001, 0.3, -0.3];
            let at = (v + nudge[(next() % nudge.len() as u64) as usize]).max(0.0);
            let got = plan_with_hull(&hull, at, options);
            let (refused, on_vertex) = (
                matches!(got, Err(PlanError::SizeOutOfRange { .. })),
                matches!(got, Ok(TalusPlan::Unpartitioned { .. })),
            );
            if at < hull.min_size() - tol {
                assert!(refused, "size {at}, tol {tol}, {hull:?}");
            } else if at >= hull.max_size() || hull.is_vertex(at, tol) {
                assert!(on_vertex, "size {at}, tol {tol}, {hull:?}");
            } else if at < hull.min_size() {
                // The old order panicked here; now it is on the first vertex.
                assert!(on_vertex, "size {at}, tol {tol}, {hull:?}");
            } else {
                assert!(
                    matches!(got, Ok(TalusPlan::Shadow(_))),
                    "size {at}, tol {tol}"
                );
            }
        }
    }

    #[test]
    fn plan_at_vertex_is_unpartitioned() {
        for &s in &[0.0, 2.0, 5.0, 10.0] {
            let p = plan(&fig3_curve(), s, TalusOptions::new()).unwrap();
            assert!(matches!(p, TalusPlan::Unpartitioned { .. }), "size {s}");
        }
    }

    #[test]
    fn plan_beyond_domain_is_unpartitioned() {
        let p = plan(&fig3_curve(), 64.0, TalusOptions::new()).unwrap();
        assert_eq!(
            p,
            TalusPlan::Unpartitioned {
                size: 64.0,
                expected_misses: 3.0
            }
        );
    }

    #[test]
    fn plan_rejects_negative_size() {
        let err = plan(&fig3_curve(), -1.0, TalusOptions::new()).unwrap_err();
        assert!(matches!(err, PlanError::InvalidSize { .. }));
    }

    #[test]
    fn plan_rejects_size_below_domain() {
        let c = MissCurve::from_samples(&[2.0, 5.0], &[12.0, 3.0]).unwrap();
        let err = plan(&c, 1.0, TalusOptions::new()).unwrap_err();
        assert!(matches!(err, PlanError::SizeOutOfRange { .. }));
    }

    #[test]
    fn plan_rejects_negative_margin() {
        let opts = TalusOptions::new().with_safety_margin(-0.1);
        let err = plan(&fig3_curve(), 4.0, opts).unwrap_err();
        assert!(matches!(err, PlanError::InvalidMargin { .. }));
    }

    #[test]
    fn plan_below_first_nonzero_vertex_bypasses() {
        // Curve whose hull starts at (0, m0): sizes inside the first bridge
        // get alpha = 0, i.e. the first partition is a pure bypass.
        let c = MissCurve::from_samples(&[0.0, 1.0, 2.0, 3.0], &[10.0, 10.0, 10.0, 1.0]).unwrap();
        let p = plan(&c, 1.5, TalusOptions::exact()).unwrap();
        let cfg = p.shadow().unwrap();
        assert_eq!(cfg.alpha, 0.0);
        assert_eq!(cfg.s1, 0.0);
        assert_eq!(cfg.s2, 1.5);
        // rho = (3 - 1.5) / 3 = 0.5 of accesses are bypassed.
        assert!((cfg.rho - 0.5).abs() < 1e-12);
        // Expected: halfway between m(0)=10 and m(3)=1.
        assert!((cfg.expected_misses - 5.5).abs() < 1e-12);
    }

    #[test]
    fn shadow_miss_rate_matches_plan_expectation() {
        let c = fig3_curve();
        let p = plan(&c, 4.0, TalusOptions::exact()).unwrap();
        let cfg = p.shadow().unwrap();
        let m = shadow_miss_rate(&c, cfg.s1, cfg.s2, cfg.rho);
        assert!((m - cfg.expected_misses).abs() < 1e-12);
    }

    #[test]
    fn shadow_miss_rate_degenerate_rates() {
        let c = fig3_curve();
        // rho = 1: everything goes to partition 1 of size 2 => m(2) = 12.
        assert!((shadow_miss_rate(&c, 2.0, 0.0, 1.0) - 12.0).abs() < 1e-12);
        // rho = 0: everything goes to partition 2 of size 5 => m(5) = 3.
        assert!((shadow_miss_rate(&c, 0.0, 5.0, 0.0) - 3.0).abs() < 1e-12);
    }

    #[test]
    fn plan_sweep_traces_hull() {
        let c = fig3_curve();
        let hull = c.convex_hull();
        for i in 0..=100 {
            let s = 10.0 * i as f64 / 100.0;
            let p = plan_with_hull(&hull, s, TalusOptions::exact()).unwrap();
            let expect = hull.value_at(s);
            assert!(
                (p.expected_misses() - expect).abs() < 1e-9,
                "size {s}: plan {} vs hull {expect}",
                p.expected_misses()
            );
        }
    }

    #[test]
    fn coarsened_recomputes_rho() {
        let c = fig3_curve();
        let p = plan(&c, 4.0, TalusOptions::exact()).unwrap();
        let cfg = p.shadow().unwrap();
        // Way partitioning rounds s1 = 2/3 MB up to 1 MB (total still 4 MB).
        let coarse = cfg.coarsened(1.0, 3.0);
        assert!((coarse.rho - 0.5).abs() < 1e-12); // 1.0 / alpha=2.0
        assert!((coarse.emulated_alpha() - 2.0).abs() < 1e-12);
        assert_eq!(coarse.total, 4.0);
    }

    #[test]
    fn coarsened_with_zero_alpha_keeps_rho() {
        let c = MissCurve::from_samples(&[0.0, 1.0, 2.0, 3.0], &[10.0, 10.0, 10.0, 1.0]).unwrap();
        let cfg = *plan(&c, 1.5, TalusOptions::exact())
            .unwrap()
            .shadow()
            .unwrap();
        let coarse = cfg.coarsened(0.0, 2.0);
        assert_eq!(coarse.rho, cfg.rho);
        assert_eq!(coarse.total, 2.0);
    }

    #[test]
    fn talus_curve_is_convex_and_below_original() {
        let c = fig3_curve();
        let t = talus_curve(&c);
        assert!(t.is_convex(1e-9));
        for p in &c {
            assert!(t.value_at(p.size) <= p.misses + 1e-9);
        }
        // And it actually improves the plateau.
        assert!(t.value_at(4.0) < c.value_at(4.0));
    }

    #[test]
    fn expected_misses_accessor() {
        let p = TalusPlan::Unpartitioned {
            size: 1.0,
            expected_misses: 7.0,
        };
        assert_eq!(p.expected_misses(), 7.0);
        assert!(p.shadow().is_none());
    }
}
