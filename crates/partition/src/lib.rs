//! # talus-partition — allocation algorithms over miss curves
//!
//! The algorithms the paper compares in §VII-D, all minimising total
//! misses `Σᵢ mᵢ(sᵢ)` subject to `Σᵢ sᵢ ≤ capacity`:
//!
//! - [`hill_climb`]: the trivial linear-time greedy — give the next grain
//!   of capacity to whoever benefits most. **Optimal on convex curves**,
//!   and therefore optimal under Talus; stuck in local optima on cliffs.
//!   [`hill_climb_hulls`] is the same greedy run on the hulls themselves,
//!   one interpolation per grain — what [`Planner`] runs each interval
//!   ([`hill_climb_hulls_into`] when the caller keeps a [`PlanScratch`]).
//! - [`lookahead`]: Qureshi & Patt's UCP Lookahead — quadratic, considers
//!   multi-grain extensions so it can leap across plateaus, but is forced
//!   into all-or-nothing allocations at cliffs.
//! - [`fair`]: equal allocations — what a fairness-first system wants;
//!   only effective when curves are convex (paper §II-D).
//! - [`optimal_dp`]: exact dynamic program over the discretised problem —
//!   the oracle the others are measured against in tests (exponential-ish
//!   state but pseudo-polynomial: `O(N·C²)` in capacity grains).
//!
//! The [`planner`] module packages these behind [`Planner`] — the shared
//! convexify → allocate → shadow-plan pipeline that the simulated 8-core
//! system (`talus-multicore`) and the online reconfiguration service
//! (`talus-serve`) both run, so online plans provably match offline ones.
//! The [`spec`] module holds [`CacheSpec`] — a cache's capacity, tenant
//! count and planner — and the one byte layout the wire and the journal
//! both register a cache with.
//!
//! All functions take curves in arbitrary (but mutually comparable) linear
//! miss units — MPKI or misses-per-access × access weight — with sizes in
//! lines, and allocate in multiples of `grain` lines.
//!
//! ```
//! use talus_core::MissCurve;
//! use talus_partition::{hill_climb, total_misses};
//! let a = MissCurve::from_samples(&[0.0, 64.0, 128.0], &[10.0, 2.0, 1.0])?;
//! let b = MissCurve::from_samples(&[0.0, 64.0, 128.0], &[4.0, 3.0, 2.9])?;
//! // App a benefits much more from capacity: hill climbing favours it.
//! let alloc = hill_climb(&[a.clone(), b.clone()], 128, 32);
//! assert!(alloc[0] > alloc[1]);
//! assert_eq!(alloc.iter().sum::<u64>(), 128);
//! # Ok::<(), talus_core::CurveError>(())
//! ```

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]
#![forbid(unsafe_code)]

pub mod planner;
pub mod spec;

pub use planner::{AllocPolicy, CachePlan, PlanScratch, Planner, TenantPlan};
pub use spec::{check_spec, put_spec, read_spec, CacheSpec};

use std::borrow::Borrow;
use talus_core::{ConvexHull, MissCurve};

/// Total misses of an allocation: `Σᵢ curves[i](alloc[i])`.
///
/// # Panics
///
/// Panics if the slices differ in length.
pub fn total_misses(curves: &[MissCurve], alloc: &[u64]) -> f64 {
    assert_eq!(curves.len(), alloc.len(), "one allocation per curve");
    curves
        .iter()
        .zip(alloc)
        .map(|(c, &s)| c.value_at(s as f64))
        .sum()
}

fn check_inputs<T>(curves: &[T], capacity: u64, grain: u64) -> u64 {
    assert!(!curves.is_empty(), "need at least one partition");
    assert!(grain > 0, "allocation grain must be positive");
    capacity / grain
}

/// Hill climbing: repeatedly grant one grain to the partition with the
/// largest marginal miss reduction. Linear time in capacity grains.
///
/// On convex curves the greedy choice is globally optimal (the classic
/// result the paper leans on); on non-convex curves it stalls at plateaus
/// — which is exactly what Fig. 12's "Hill" baseline shows.
///
/// Capacity that no partition benefits from (all marginal utilities zero)
/// is still handed out round-robin, mirroring hardware where ways cannot
/// be left unpowered.
///
/// This is the reference form — every partition re-interpolated twice per
/// grain — used on raw curves and as the oracle [`hill_climb_hulls`] is
/// tested against.
///
/// # Panics
///
/// Panics if `curves` is empty or `grain` is zero.
pub fn hill_climb<C: Borrow<MissCurve>>(curves: &[C], capacity: u64, grain: u64) -> Vec<u64> {
    let grains = check_inputs(curves, capacity, grain);
    let n = curves.len();
    let mut alloc = vec![0u64; n];
    for _ in 0..grains {
        let mut best = 0usize;
        let mut best_gain = f64::NEG_INFINITY;
        for (i, c) in curves.iter().enumerate() {
            let c = c.borrow();
            let here = c.value_at(alloc[i] as f64);
            let there = c.value_at((alloc[i] + grain) as f64);
            let gain = here - there;
            if gain > best_gain {
                best_gain = gain;
                best = i;
            }
        }
        // Tie-break zero-gain grants round-robin so plateaus don't dogpile
        // partition 0.
        if best_gain <= 0.0 {
            let min = *alloc.iter().min().expect("non-empty");
            best = alloc.iter().position(|&a| a == min).expect("non-empty");
        }
        alloc[best] += grain;
    }
    alloc
}

/// [`hill_climb`] on convex hulls, without turning them back into curves:
/// bit-identical to `hill_climb(&hulls.map(ConvexHull::to_curve), …)`,
/// ties and zero-gain round-robin included.
///
/// A grant changes only the winner's marginal gain, so each partition
/// keeps its gain and a cursor into its hull, and a grain costs at most
/// one comparison per partition plus one interpolation found by advancing
/// the winner's cursor: `O(grains · n)` comparisons and
/// `O(grains + vertices)` interpolation work in total, against the
/// reference's `2 · grains · n` binary searches. That interpolation is
/// for the size *two* grains past the winner's new allocation — one grant
/// before any choice depends on it — so its cursor walk and division
/// overlap the next grant's comparisons instead of preceding them. And
/// since no other offer moves while one partition keeps winning, the
/// partitions are compared only when the winner changes: a run of grants
/// to one partition costs one comparison each.
///
/// This form allocates its working state and returns the sizes owned; a
/// caller that climbs interval after interval keeps a [`PlanScratch`] and
/// calls [`hill_climb_hulls_into`], which is this function's body.
///
/// ```
/// use talus_core::MissCurve;
/// use talus_partition::{hill_climb, hill_climb_hulls};
/// let cliff = MissCurve::from_samples(&[0.0, 64.0, 128.0], &[9.0, 9.0, 1.0])?.convex_hull();
/// let decay = MissCurve::from_samples(&[0.0, 64.0, 128.0], &[4.0, 2.0, 1.5])?.convex_hull();
/// let alloc = hill_climb_hulls(&[cliff.clone(), decay.clone()], 128, 32);
/// assert_eq!(alloc, hill_climb(&[cliff.to_curve(), decay.to_curve()], 128, 32));
/// # Ok::<(), talus_core::CurveError>(())
/// ```
///
/// # Panics
///
/// Panics if `hulls` is empty or `grain` is zero.
pub fn hill_climb_hulls(hulls: &[ConvexHull], capacity: u64, grain: u64) -> Vec<u64> {
    let mut scratch = PlanScratch::default();
    hill_climb_hulls_into(&mut scratch, hulls, capacity, grain);
    scratch.alloc
}

/// [`hill_climb_hulls`] with its working state — the allocation and each
/// partition's standing offer — kept in `scratch`: the same grants in the
/// same order, and nothing allocated once the scratch has served a call
/// with as many partitions. Returns the sizes, which stay readable in the
/// scratch until its next use. What the scratch held before is irrelevant:
/// every call rebuilds all of it.
///
/// ```
/// use talus_core::MissCurve;
/// use talus_partition::{hill_climb_hulls, hill_climb_hulls_into, PlanScratch};
/// let cliff = MissCurve::from_samples(&[0.0, 64.0, 128.0], &[9.0, 9.0, 1.0])?.convex_hull();
/// let decay = MissCurve::from_samples(&[0.0, 64.0, 128.0], &[4.0, 2.0, 1.5])?.convex_hull();
/// let hulls = [cliff, decay];
/// let mut scratch = PlanScratch::default();
/// for capacity in [128, 64, 96] {
///     let alloc = hill_climb_hulls_into(&mut scratch, &hulls, capacity, 32);
///     assert_eq!(alloc, hill_climb_hulls(&hulls, capacity, 32));
/// }
/// # Ok::<(), talus_core::CurveError>(())
/// ```
///
/// # Panics
///
/// Panics if `hulls` is empty or `grain` is zero.
pub fn hill_climb_hulls_into<'s>(
    scratch: &'s mut PlanScratch,
    hulls: &[ConvexHull],
    capacity: u64,
    grain: u64,
) -> &'s [u64] {
    climb(
        hulls,
        capacity,
        grain,
        &mut scratch.alloc,
        &mut scratch.offers,
    );
    &scratch.alloc
}

/// One partition's standing offer in the hull climb: the hull values one
/// and two grains past its allocation, what the first of those grains would
/// save, and where on the hull the second is.
#[derive(Debug, Clone, Copy)]
pub(crate) struct Offer {
    cursor: usize,
    there: f64,
    beyond: f64,
    gain: f64,
}

/// The hull climb itself, on buffers it clears and refills: `alloc` ends
/// as the sizes, `offers` is working state only.
pub(crate) fn climb(
    hulls: &[ConvexHull],
    capacity: u64,
    grain: u64,
    alloc: &mut Vec<u64>,
    offers: &mut Vec<Offer>,
) {
    let grains = check_inputs(hulls, capacity, grain);
    alloc.clear();
    alloc.resize(hulls.len(), 0);
    offers.clear();
    offers.extend(hulls.iter().map(|hull| {
        let mut cursor = 0;
        let here = hull.value_at_from(&mut cursor, 0.0);
        let there = hull.value_at_from(&mut cursor, grain as f64);
        let beyond = hull.value_at_from(&mut cursor, grain.saturating_add(grain) as f64);
        Offer {
            cursor,
            there,
            beyond,
            gain: here - there,
        }
    }));
    let (alloc, offers) = (alloc.as_mut_slice(), offers.as_mut_slice());
    let mut left = grains;
    while left > 0 {
        // The argmax, first index on ties, with the best gains before and
        // after the winner beside it.
        let mut best = 0usize;
        let mut best_gain = f64::NEG_INFINITY;
        let (mut before, mut after) = (f64::NEG_INFINITY, f64::NEG_INFINITY);
        for (i, offer) in offers.iter().enumerate() {
            if offer.gain > best_gain {
                before = best_gain;
                best_gain = offer.gain;
                best = i;
                after = f64::NEG_INFINITY;
            } else if offer.gain > after {
                after = offer.gain;
            }
        }
        if best_gain <= 0.0 {
            // The round-robin grants one grain at a time.
            let min = *alloc.iter().min().expect("non-empty");
            best = alloc.iter().position(|&a| a == min).expect("non-empty");
            before = f64::INFINITY;
        }
        // A run of grants to `best`. No other offer moves while it wins,
        // so the next argmax would pick it again exactly while its next
        // gain beats every gain before it (an earlier tie wins), at least
        // ties every gain after it, and is positive (not the round-robin)
        // — granted without comparing the others again.
        loop {
            alloc[best] += grain;
            left -= 1;
            // The winner now stands where its offer pointed, and both ends
            // of its next gain are already known: the next grant's choice
            // waits on a subtraction, and the interpolation issued here is
            // first read by the grant after it. A size is read by a grant
            // only if it fits in the capacity, so a sum that saturates is
            // never read.
            let offer = &mut offers[best];
            offer.gain = offer.there - offer.beyond;
            offer.there = offer.beyond;
            let ahead = alloc[best].saturating_add(grain).saturating_add(grain) as f64;
            offer.beyond = hulls[best].value_at_from(&mut offer.cursor, ahead);
            let gain = offer.gain;
            if left == 0 || !(gain > before && gain >= after && gain > 0.0) {
                break;
            }
        }
    }
}

/// UCP Lookahead (Qureshi & Patt, MICRO 2006): at each step, for every
/// partition find the extension (any number of grains) with the highest
/// *utility per grain*, grant the winner its whole extension, repeat.
///
/// Looking ahead lets it cross plateaus that trap [`hill_climb`], at
/// quadratic cost — and at the price of all-or-nothing behaviour on
/// cliffs (the fairness failure the paper's Fig. 13 shows).
///
/// # Panics
///
/// Panics if `curves` is empty or `grain` is zero.
pub fn lookahead<C: Borrow<MissCurve>>(curves: &[C], capacity: u64, grain: u64) -> Vec<u64> {
    let mut grains_left = check_inputs(curves, capacity, grain);
    let n = curves.len();
    let mut alloc = vec![0u64; n];
    while grains_left > 0 {
        let mut best: Option<(usize, u64, f64)> = None; // (who, grains, utility/grain)
        for (i, c) in curves.iter().enumerate() {
            let c = c.borrow();
            let here = c.value_at(alloc[i] as f64);
            for k in 1..=grains_left {
                let there = c.value_at((alloc[i] + k * grain) as f64);
                let per_grain = (here - there) / k as f64;
                if best.is_none_or(|(_, _, b)| per_grain > b) {
                    best = Some((i, k, per_grain));
                }
            }
        }
        let (who, k, util) = best.expect("grains_left > 0 and curves non-empty");
        if util <= 0.0 {
            // Nobody benefits: hand the rest out evenly (round-robin).
            let mut i = 0;
            while grains_left > 0 {
                alloc[i % n] += grain;
                grains_left -= 1;
                i += 1;
            }
            break;
        }
        alloc[who] += k * grain;
        grains_left -= k;
    }
    alloc
}

/// Equal allocations: `capacity / n` each (rounded down to grains, with
/// leftover grains handed out from partition 0).
///
/// # Panics
///
/// Panics if `n` is zero or `grain` is zero.
pub fn fair(n: usize, capacity: u64, grain: u64) -> Vec<u64> {
    assert!(n > 0, "need at least one partition");
    assert!(grain > 0, "allocation grain must be positive");
    let grains = capacity / grain;
    let per = grains / n as u64;
    let mut extra = grains % n as u64;
    (0..n)
        .map(|_| {
            let bonus = if extra > 0 {
                extra -= 1;
                1
            } else {
                0
            };
            (per + bonus) * grain
        })
        .collect()
}

/// Imbalanced partitioning (Pan & Pai, MICRO-46 2013): give one *favored*
/// partition the allocation with the best utility-per-grain (typically
/// enough to cross its cliff) and split the remainder evenly among the
/// others.
///
/// The paper's §II-D and §VII-D cite this as the pre-Talus answer to
/// cliffs in homogeneous workloads: since no fair split can cross
/// anyone's cliff, speed up one thread at a time and *time-multiplex* the
/// favored slot across intervals for long-run fairness. Talus makes this
/// machinery unnecessary — with convex curves, plain equal allocations
/// are both fair and utility-maximal. The `imbalanced` experiment and
/// Fig. 13 quantify that comparison; rotate `favored` across
/// reconfiguration intervals to reproduce the time-multiplexing.
///
/// # Examples
///
/// ```
/// use talus_core::MissCurve;
/// use talus_partition::imbalanced;
/// // Two identical cliff apps needing 512 lines; capacity for one.
/// let cliff = MissCurve::from_samples(
///     &[0.0, 256.0, 512.0, 1024.0],
///     &[10.0, 10.0, 1.0, 1.0],
/// )?;
/// let alloc = imbalanced(&[cliff.clone(), cliff], 640, 64, 0);
/// assert!(alloc[0] >= 512); // the favored app crosses its cliff
/// # Ok::<(), talus_core::CurveError>(())
/// ```
///
/// # Panics
///
/// Panics if `curves` is empty, `grain` is zero, or `favored` is out of
/// range.
pub fn imbalanced<C: Borrow<MissCurve>>(
    curves: &[C],
    capacity: u64,
    grain: u64,
    favored: usize,
) -> Vec<u64> {
    let grains = check_inputs(curves, capacity, grain);
    let n = curves.len();
    assert!(
        favored < n,
        "favored partition {favored} out of range (n = {n})"
    );
    let mut alloc = vec![0u64; n];
    if grains == 0 {
        return alloc;
    }
    // The favored partition takes its best extension (lookahead's first
    // step from zero): the size with the highest utility per grain.
    let c = curves[favored].borrow();
    let here = c.value_at(0.0);
    let mut best_k = 1u64;
    let mut best_per_grain = f64::NEG_INFINITY;
    for k in 1..=grains {
        let per_grain = (here - c.value_at((k * grain) as f64)) / k as f64;
        if per_grain > best_per_grain {
            best_per_grain = per_grain;
            best_k = k;
        }
    }
    alloc[favored] = best_k * grain;
    // Everyone else splits the leftovers evenly. Leftover grains are
    // handed out in rotation order starting after the favored index, so a
    // full favored-slot rotation gives every partition the same total
    // (the time-multiplexed fairness the scheme relies on).
    let rest = grains - best_k;
    if n > 1 {
        let others = n as u64 - 1;
        let per = rest / others;
        let mut extra = rest % others;
        for step in 1..n {
            let i = (favored + step) % n;
            let bonus = if extra > 0 {
                extra -= 1;
                1
            } else {
                0
            };
            alloc[i] = (per + bonus) * grain;
        }
    } else {
        alloc[favored] = grains * grain;
    }
    alloc
}

/// Exact optimum of the discretised problem by dynamic programming:
/// `O(N · C²)` in capacity grains. Used as the oracle in tests and to
/// quantify how far heuristics fall from optimal (the NP-completeness the
/// paper cites concerns richer formulations; the discrete single-resource
/// problem is pseudo-polynomial).
///
/// # Panics
///
/// Panics if `curves` is empty or `grain` is zero.
pub fn optimal_dp(curves: &[MissCurve], capacity: u64, grain: u64) -> Vec<u64> {
    let grains = check_inputs(curves, capacity, grain) as usize;
    let n = curves.len();
    // dp[c] = best total misses using partitions 0..=i with c grains.
    let mut dp = vec![0.0f64; grains + 1];
    let mut choice = vec![vec![0u32; grains + 1]; n];
    // Initialise with partition 0 alone.
    for c in 0..=grains {
        dp[c] = curves[0].value_at((c as u64 * grain) as f64);
        choice[0][c] = c as u32;
    }
    for i in 1..n {
        let mut next = vec![f64::INFINITY; grains + 1];
        for c in 0..=grains {
            for k in 0..=c {
                let total = dp[c - k] + curves[i].value_at((k as u64 * grain) as f64);
                if total < next[c] {
                    next[c] = total;
                    choice[i][c] = k as u32;
                }
            }
        }
        dp = next;
    }
    // Backtrack. The optimum may leave capacity unused only when curves are
    // non-increasing; spend everything for comparability.
    let mut alloc = vec![0u64; n];
    let mut c = grains;
    for i in (1..n).rev() {
        let k = choice[i][c] as usize;
        alloc[i] = (k as u64) * grain;
        c -= k;
    }
    alloc[0] = (c as u64) * grain;
    alloc
}

#[cfg(test)]
mod tests {
    use super::*;

    fn convex(knee: f64, floor: f64) -> MissCurve {
        // Exponential-ish decay sampled on a grid: strictly convex.
        let sizes: Vec<f64> = (0..=16).map(|i| i as f64 * 64.0).collect();
        let misses: Vec<f64> = sizes
            .iter()
            .map(|&s| floor + 30.0 * (-s / knee).exp())
            .collect();
        MissCurve::from_samples(&sizes, &misses).unwrap()
    }

    fn cliff(at: f64, high: f64, low: f64) -> MissCurve {
        // Flat at `high` until `at`, then `low` (libquantum shape).
        let sizes: Vec<f64> = (0..=16).map(|i| i as f64 * 64.0).collect();
        let misses: Vec<f64> = sizes
            .iter()
            .map(|&s| if s < at { high } else { low })
            .collect();
        MissCurve::from_samples(&sizes, &misses).unwrap()
    }

    #[test]
    fn hill_climb_optimal_on_convex_curves() {
        let curves = vec![convex(200.0, 1.0), convex(400.0, 0.5), convex(100.0, 2.0)];
        let hc = hill_climb(&curves, 1024, 64);
        let dp = optimal_dp(&curves, 1024, 64);
        let m_hc = total_misses(&curves, &hc);
        let m_dp = total_misses(&curves, &dp);
        assert!(
            (m_hc - m_dp).abs() < 1e-9,
            "hill climbing should be optimal on convex curves: {m_hc} vs {m_dp}"
        );
    }

    #[test]
    fn hill_climb_stalls_on_cliffs() {
        // Two cliff apps, each needing 512 lines; capacity for exactly one.
        let curves = vec![cliff(512.0, 10.0, 1.0), cliff(512.0, 10.0, 1.0)];
        let hc = hill_climb(&curves, 512, 64);
        let la = lookahead(&curves, 512, 64);
        // Hill climbing sees zero marginal gain everywhere and splits
        // evenly — nobody crosses their cliff.
        assert!(
            total_misses(&curves, &hc) > total_misses(&curves, &la),
            "hill climbing should lose to lookahead on cliffs"
        );
        // Lookahead gives everything to one app.
        assert!(
            la.contains(&512) && la.contains(&0),
            "lookahead alloc: {la:?}"
        );
    }

    #[test]
    fn lookahead_crosses_plateaus() {
        // One cliff app and one barely-benefiting app.
        let curves = vec![cliff(768.0, 20.0, 0.5), convex(50.0, 5.0)];
        let la = lookahead(&curves, 1024, 64);
        assert!(la[0] >= 768, "lookahead should fund the cliff: {la:?}");
    }

    #[test]
    fn lookahead_matches_dp_on_paper_style_mixes() {
        let curves = vec![
            cliff(512.0, 15.0, 2.0),
            convex(300.0, 1.0),
            cliff(256.0, 8.0, 0.2),
            convex(150.0, 0.5),
        ];
        let la = lookahead(&curves, 1024, 64);
        let dp = optimal_dp(&curves, 1024, 64);
        let gap = total_misses(&curves, &la) - total_misses(&curves, &dp);
        // Lookahead is a good heuristic: within a few percent of optimal.
        assert!(gap <= 0.05 * total_misses(&curves, &dp) + 1e-9, "gap {gap}");
    }

    #[test]
    fn hill_climb_on_hulls_matches_dp_on_hulls() {
        // Talus's pitch: convexify first, then trivial hill climbing is
        // optimal. Compare on the *hulls*.
        let raw = [
            cliff(512.0, 15.0, 2.0),
            cliff(320.0, 9.0, 1.0),
            convex(200.0, 1.0),
        ];
        let hulls: Vec<MissCurve> = raw.iter().map(|c| c.convex_hull().to_curve()).collect();
        let hc = hill_climb(&hulls, 1024, 64);
        let dp = optimal_dp(&hulls, 1024, 64);
        let diff = total_misses(&hulls, &hc) - total_misses(&hulls, &dp);
        assert!(
            diff.abs() < 1e-9,
            "hill climb on hulls must be optimal: {diff}"
        );
    }

    #[test]
    fn allocations_respect_capacity_and_grain() {
        let curves = vec![convex(100.0, 1.0), cliff(512.0, 9.0, 1.0)];
        for alloc in [
            hill_climb(&curves, 960, 64),
            lookahead(&curves, 960, 64),
            optimal_dp(&curves, 960, 64),
            fair(2, 960, 64),
        ] {
            assert_eq!(alloc.iter().sum::<u64>(), 960, "{alloc:?}");
            assert!(alloc.iter().all(|a| a % 64 == 0), "{alloc:?}");
        }
    }

    #[test]
    fn fair_splits_evenly_with_remainder() {
        assert_eq!(fair(3, 960, 64), vec![320, 320, 320]);
        // 10 grains across 3: 4,3,3 grains.
        assert_eq!(fair(3, 640, 64), vec![256, 192, 192]);
    }

    #[test]
    #[should_panic(expected = "at least one partition")]
    fn fair_rejects_zero_partitions() {
        fair(0, 100, 10);
    }

    #[test]
    fn single_partition_gets_everything() {
        let curves = vec![convex(100.0, 1.0)];
        assert_eq!(hill_climb(&curves, 512, 64), vec![512]);
        assert_eq!(lookahead(&curves, 512, 64), vec![512]);
        assert_eq!(optimal_dp(&curves, 512, 64), vec![512]);
    }

    #[test]
    fn dp_beats_or_ties_everyone() {
        let curves = vec![
            cliff(448.0, 12.0, 1.5),
            convex(250.0, 0.8),
            cliff(128.0, 5.0, 0.3),
        ];
        let dp = total_misses(&curves, &optimal_dp(&curves, 768, 64));
        for alloc in [
            hill_climb(&curves, 768, 64),
            lookahead(&curves, 768, 64),
            fair(3, 768, 64),
        ] {
            assert!(total_misses(&curves, &alloc) >= dp - 1e-9);
        }
    }

    #[test]
    fn zero_capacity_allocates_nothing() {
        let curves = vec![convex(100.0, 1.0), convex(50.0, 1.0)];
        assert_eq!(hill_climb(&curves, 0, 64), vec![0, 0]);
        assert_eq!(lookahead(&curves, 0, 64), vec![0, 0]);
        assert_eq!(optimal_dp(&curves, 0, 64), vec![0, 0]);
        assert_eq!(imbalanced(&curves, 0, 64, 0), vec![0, 0]);
    }

    #[test]
    fn imbalanced_funds_the_favored_cliff() {
        // Three identical cliff apps needing 512 lines; 1024 available.
        // Fair gives everyone 341 (nobody crosses); imbalanced funds the
        // favored app's cliff and splits the rest.
        let curves = vec![
            cliff(512.0, 10.0, 1.0),
            cliff(512.0, 10.0, 1.0),
            cliff(512.0, 10.0, 1.0),
        ];
        let alloc = imbalanced(&curves, 1024, 64, 1);
        assert!(alloc[1] >= 512, "favored app crosses its cliff: {alloc:?}");
        assert_eq!(alloc[0], alloc[2], "others split evenly: {alloc:?}");
        assert!(
            total_misses(&curves, &alloc) < total_misses(&curves, &fair(3, 1024, 64)),
            "imbalanced beats fair on homogeneous cliffs"
        );
    }

    #[test]
    fn imbalanced_rotation_is_fair_over_a_full_cycle() {
        let curves = vec![cliff(512.0, 10.0, 1.0), cliff(512.0, 10.0, 1.0)];
        let mut totals = vec![0u64; 2];
        for round in 0..2 {
            let alloc = imbalanced(&curves, 768, 64, round % 2);
            for (t, a) in totals.iter_mut().zip(&alloc) {
                *t += a;
            }
        }
        assert_eq!(
            totals[0], totals[1],
            "time-multiplexing evens out: {totals:?}"
        );
    }

    #[test]
    fn imbalanced_single_partition_gets_everything() {
        let curves = vec![cliff(512.0, 10.0, 1.0)];
        assert_eq!(imbalanced(&curves, 1024, 64, 0), vec![1024]);
    }

    #[test]
    fn imbalanced_respects_capacity_and_grain() {
        let curves = vec![
            cliff(448.0, 12.0, 1.5),
            convex(250.0, 0.8),
            convex(100.0, 2.0),
        ];
        let alloc = imbalanced(&curves, 960, 64, 0);
        assert!(alloc.iter().sum::<u64>() <= 960);
        assert!(alloc.iter().all(|a| a % 64 == 0), "{alloc:?}");
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn imbalanced_rejects_bad_favored_index() {
        let curves = vec![convex(100.0, 1.0)];
        imbalanced(&curves, 100, 10, 3);
    }
}
