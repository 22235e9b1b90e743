//! Optimal cache bypassing, and why Talus beats it (paper §V-C).
//!
//! Bypassing sends a fraction `1 − ρ` of accesses straight to memory so
//! that the remaining `ρ` fraction behaves like a larger cache of size
//! `s/ρ` (Theorem 4). Corollary 8 shows this is a *special case* of shadow
//! partitioning — a split between a partition of size `s` and a partition
//! of size zero — so its miss rate is a chord from `(0, m(0))` to
//! `(s0, m(s0))`, which can never undercut the convex hull Talus traces.
//!
//! This module computes the *optimal* bypass rate for a given curve and
//! size, used by the paper's Figs. 5 and 6 to contrast with Talus.

use crate::curve::MissCurve;
use crate::error::PlanError;

/// An optimal-bypassing decision at one cache size.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct BypassPlan {
    /// Cache size being managed.
    pub size: f64,
    /// Fraction of accesses admitted to the cache (the rest bypass).
    /// `rho == 1` means bypassing does not help at this size.
    pub rho: f64,
    /// The cache size the admitted stream emulates: `size / rho`.
    pub emulated_size: f64,
    /// Total expected miss metric: admitted misses plus bypassed accesses.
    pub expected_misses: f64,
}

impl BypassPlan {
    /// Miss contribution of the admitted (non-bypassed) stream:
    /// `ρ · m(s/ρ)` — the dotted line in the paper's Fig. 5.
    pub fn admitted_misses(&self, curve: &MissCurve) -> f64 {
        self.rho * curve.value_at(self.emulated_size)
    }

    /// Miss contribution of the bypassed stream: `(1 − ρ) · m(0)` — every
    /// bypassed access is a miss. The dashed line in the paper's Fig. 5.
    pub fn bypassed_misses(&self, curve: &MissCurve) -> f64 {
        (1.0 - self.rho) * curve.value_at(0.0)
    }
}

/// Finds the bypass rate minimising total misses at `size` (paper Fig. 5).
///
/// The bypass miss rate at admitted-stream size `s0 = size/ρ` is the chord
/// from `(0, m(0))` to `(s0, m(s0))` evaluated at `size`; on a
/// piecewise-linear curve the optimum is attained at a knot, so the search
/// is a linear scan over knots with `s0 ≥ size`.
///
/// # Errors
///
/// Returns [`PlanError::InvalidSize`] if `size` is negative or non-finite.
///
/// # Examples
///
/// On the paper's §III example at 4 MB, optimal bypassing admits 80% of
/// accesses (emulating the 5 MB cache) and achieves 7.2 MPKI — better than
/// LRU's 12 but worse than Talus's 6.
///
/// ```
/// use talus_core::{bypass::optimal_bypass, MissCurve};
/// let curve = MissCurve::from_samples(
///     &[0.0, 1.0, 2.0, 3.0, 4.0, 5.0, 10.0],
///     &[24.0, 18.0, 12.0, 12.0, 12.0, 3.0, 3.0],
/// )?;
/// let plan = optimal_bypass(&curve, 4.0)?;
/// assert!((plan.rho - 0.8).abs() < 1e-9);
/// assert!((plan.emulated_size - 5.0).abs() < 1e-9);
/// assert!((plan.expected_misses - 7.2).abs() < 1e-9);
/// # Ok::<(), Box<dyn std::error::Error>>(())
/// ```
pub fn optimal_bypass(curve: &MissCurve, size: f64) -> Result<BypassPlan, PlanError> {
    if !size.is_finite() || size < 0.0 {
        return Err(PlanError::InvalidSize { size });
    }
    let m0 = curve.value_at(0.0);
    // rho = 1 (no bypassing) is always feasible.
    let mut best = BypassPlan {
        size,
        rho: 1.0,
        emulated_size: size,
        expected_misses: curve.value_at(size),
    };
    if size == 0.0 {
        // Zero-size cache: everything misses regardless of rho.
        return Ok(best);
    }
    for p in curve.iter() {
        if p.size <= size {
            continue;
        }
        let rho = size / p.size;
        let misses = rho * p.misses + (1.0 - rho) * m0;
        if misses < best.expected_misses {
            best = BypassPlan {
                size,
                rho,
                emulated_size: p.size,
                expected_misses: misses,
            };
        }
    }
    Ok(best)
}

/// The miss curve achieved by optimal bypassing at every size on the
/// curve's grid (the dashed "Bypassing" line in the paper's Fig. 6).
pub fn optimal_bypass_curve(curve: &MissCurve) -> MissCurve {
    MissCurve::new(curve.iter().map(|p| {
        let plan = optimal_bypass(curve, p.size).expect("grid sizes are valid");
        (p.size, plan.expected_misses)
    }))
    .expect("curve grid is valid")
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::talus_curve;

    fn fig3_curve() -> MissCurve {
        MissCurve::from_samples(
            &[0.0, 1.0, 2.0, 3.0, 4.0, 5.0, 10.0],
            &[24.0, 18.0, 12.0, 12.0, 12.0, 3.0, 3.0],
        )
        .unwrap()
    }

    #[test]
    fn paper_fig5_example() {
        // At 4 MB the best bypass admits 4/5 of accesses into an emulated
        // 5 MB cache: 0.8*3 + 0.2*24 = 7.2 MPKI ("roughly 8" in the text).
        let plan = optimal_bypass(&fig3_curve(), 4.0).unwrap();
        assert!((plan.rho - 0.8).abs() < 1e-12);
        assert!((plan.expected_misses - 7.2).abs() < 1e-12);
        // Decomposition shown in Fig. 5.
        let c = fig3_curve();
        assert!((plan.admitted_misses(&c) - 2.4).abs() < 1e-12);
        assert!((plan.bypassed_misses(&c) - 4.8).abs() < 1e-12);
        assert!(
            (plan.admitted_misses(&c) + plan.bypassed_misses(&c) - plan.expected_misses).abs()
                < 1e-12
        );
    }

    #[test]
    fn bypass_never_beats_talus() {
        // Corollary 8: bypass curve lies on or above the hull.
        let c = fig3_curve();
        let talus = talus_curve(&c);
        let bypass = optimal_bypass_curve(&c);
        for p in bypass.iter() {
            assert!(
                p.misses >= talus.value_at(p.size) - 1e-9,
                "bypass below hull at {}",
                p.size
            );
        }
    }

    #[test]
    fn bypass_never_worse_than_original() {
        // rho = 1 is always an option.
        let c = fig3_curve();
        let bypass = optimal_bypass_curve(&c);
        for p in c.iter() {
            assert!(bypass.value_at(p.size) <= p.misses + 1e-12);
        }
    }

    #[test]
    fn bypass_useless_on_convex_curve() {
        let c = MissCurve::from_samples(&[0.0, 2.0, 5.0, 10.0], &[24.0, 12.0, 3.0, 3.0]).unwrap();
        for &s in &[0.0, 1.0, 2.0, 3.5, 5.0, 8.0] {
            let plan = optimal_bypass(&c, s).unwrap();
            assert_eq!(plan.rho, 1.0, "bypassing should not help at {s}");
        }
    }

    #[test]
    fn bypass_at_zero_size() {
        let plan = optimal_bypass(&fig3_curve(), 0.0).unwrap();
        assert_eq!(plan.expected_misses, 24.0);
        assert_eq!(plan.rho, 1.0);
    }

    #[test]
    fn bypass_rejects_invalid_size() {
        assert!(optimal_bypass(&fig3_curve(), -1.0).is_err());
        assert!(optimal_bypass(&fig3_curve(), f64::NAN).is_err());
    }

    #[test]
    fn bypass_matches_hull_when_alpha_is_zero() {
        // When the hull bridge starts at size 0, Talus *is* bypassing, so
        // the two coincide exactly.
        let c = MissCurve::from_samples(&[0.0, 1.0, 2.0, 3.0], &[10.0, 10.0, 10.0, 1.0]).unwrap();
        let talus = talus_curve(&c);
        let bypass = optimal_bypass_curve(&c);
        for p in c.iter() {
            assert!((talus.value_at(p.size) - bypass.value_at(p.size)).abs() < 1e-9);
        }
    }
}
