//! Partitioned caches.
//!
//! Talus builds on existing partitioning hardware (paper §VI-B). This
//! module provides the schemes the paper evaluates:
//!
//! - [`WayPartitioned`]: coarse way masks — cheap, but allocations are
//!   quantised to whole ways (Talus corrects for this via
//!   `ShadowConfig::coarsened`);
//! - [`SetPartitioned`]: partitions own disjoint set ranges — the §III
//!   worked example's scheme;
//! - [`VantageLike`]: fine-grained line-granularity targets with soft
//!   enforcement and an unmanaged region, standing in for Vantage on a
//!   zcache (see DESIGN.md for the substitution argument);
//! - [`FutilityScaled`]: fine-grained partitioning via per-partition
//!   futility scaling factors — the §VI-B alternative that manages 100%
//!   of capacity (no unmanaged region);
//! - [`IdealPartitioned`]: exact fully-associative partitions — the
//!   "Talus+I" idealised configuration of Fig. 8.
//!
//! `VantageLike` and `FutilityScaled` are one skew-associative engine
//! (array, candidate gather, insertion and eviction, occupancy, stats)
//! with two enforcement rules: how a partition is held to its grant is
//! all that tells them apart. `WayPartitioned` and `SetPartitioned` are
//! one set-associative engine over
//! [`SetAssocCache`](crate::SetAssocCache)'s array and probe, with two
//! layouts: a partition owns a run of ways or a run of sets. The skewed
//! schemes and `IdealPartitioned` grant requests exactly when they fit
//! and scale them down in proportion when they do not; way and set
//! partitioning apportion whole ways or sets. Every scheme's grant fits
//! its capacity for any request vector.

#[cfg(test)]
mod checks;
mod futility;
mod ideal;
mod setassoc;
mod setpart;
mod skewed;
mod vantage;
mod way;

pub use futility::FutilityScaled;
pub use ideal::IdealPartitioned;
pub use setpart::SetPartitioned;
pub use vantage::VantageLike;
pub use way::WayPartitioned;

use crate::addr::{LineAddr, PartitionId};
use crate::policy::AccessCtx;
use crate::stats::{AccessResult, CacheStats};

/// A cache divided into partitions with software-controlled sizes.
///
/// Partitions with a granted size of zero behave as *bypass* partitions:
/// every access misses and nothing is inserted. Talus relies on this when
/// a hull bridge starts at α = 0.
pub trait PartitionedCacheModel {
    /// Number of partitions this cache was built with.
    fn num_partitions(&self) -> usize;

    /// Requests per-partition target sizes in lines and returns the sizes
    /// actually granted after the scheme's coarsening (whole ways, whole
    /// sets, or exact lines). For any request vector — `u64::MAX` entries
    /// included — the granted total never exceeds capacity and a request
    /// of zero is granted zero.
    ///
    /// # Panics
    ///
    /// Implementations panic if `lines.len() != num_partitions()`.
    fn set_partition_sizes(&mut self, lines: &[u64]) -> Vec<u64>;

    /// Performs one access on behalf of `part`.
    ///
    /// # Panics
    ///
    /// Implementations panic if `part` is out of range.
    fn access(&mut self, part: PartitionId, line: LineAddr, ctx: &AccessCtx) -> AccessResult;

    /// Performs a block of accesses on behalf of `part`.
    ///
    /// Semantically identical to calling [`access`](Self::access) per
    /// line, in order — bit-for-bit, property-tested. The schemes
    /// specialize this to hoist partition-range lookups, bounds checks,
    /// and stats updates out of the per-line loop.
    ///
    /// # Panics
    ///
    /// Implementations panic if `part` is out of range.
    fn access_block(&mut self, part: PartitionId, lines: &[LineAddr], ctx: &AccessCtx) {
        for &line in lines {
            self.access(part, line, ctx);
        }
    }

    /// Hit/miss counters for one partition since the last reset.
    fn partition_stats(&self, part: PartitionId) -> &CacheStats;

    /// Combined counters over all partitions.
    fn total_stats(&self) -> CacheStats {
        let mut total = CacheStats::new();
        for p in 0..self.num_partitions() {
            total.merge(self.partition_stats(PartitionId(p as u32)));
        }
        total
    }

    /// Clears all counters (contents are kept).
    fn reset_stats(&mut self);

    /// Total capacity in lines.
    fn capacity_lines(&self) -> u64;

    /// Short scheme name for reports ("way", "set", "vantage", "ideal").
    fn scheme_name(&self) -> &'static str;

    /// The fraction of each granted allocation the scheme guarantees
    /// (paper §VI-B): Talus shadow-plans a partition at this share of its
    /// allocation and converts grants back through it. 1.0 for schemes
    /// that enforce over the whole cache; a Vantage-like scheme manages
    /// `1.0 − unmanaged_fraction`.
    fn managed_fraction(&self) -> f64 {
        1.0
    }
}

/// Exact line-granularity grants: the requests themselves when they fit
/// in `capacity`, otherwise each scaled down in proportion (floored), so
/// the total never exceeds `capacity`. Sums in `u128`, so no request
/// vector overflows.
pub(crate) fn exact_grants(requests: &[u64], capacity: u64) -> Vec<u64> {
    let requested: u128 = requests.iter().map(|&l| u128::from(l)).sum();
    if requested <= u128::from(capacity) {
        return requests.to_vec();
    }
    requests
        .iter()
        .map(|&l| (u128::from(l) * u128::from(capacity) / requested) as u64)
        .collect()
}

/// Largest-remainder apportionment of line requests into coarse units
/// (ways or sets): partitions get `floor(request/unit)` units each, and
/// leftover units go to the largest fractional remainders. Requests of
/// zero stay exactly zero (bypass partitions). The grand total never
/// exceeds `total_units`.
pub(crate) fn apportion(requests: &[u64], unit_lines: u64, total_units: u64) -> Vec<u64> {
    debug_assert!(unit_lines > 0);
    let raw: Vec<f64> = requests
        .iter()
        .map(|&r| r as f64 / unit_lines as f64)
        .collect();
    let mut units: Vec<u64> = raw.iter().map(|&x| x.floor() as u64).collect();
    // Cap at the available total (proportional scale-down if oversubscribed).
    let used: u128 = units.iter().map(|&u| u128::from(u)).sum();
    if used > u128::from(total_units) {
        // Oversubscribed even at floors: shave from the largest, one unit
        // off each nonzero partition per pass. Whole passes are taken at
        // once (a request near `u64::MAX` is ~2^58 of them), then the last,
        // partial pass runs in order.
        let mut order: Vec<usize> = (0..units.len()).collect();
        order.sort_by_key(|&i| std::cmp::Reverse(units[i]));
        let mut excess = used - u128::from(total_units);
        while excess > 0 {
            let (nonzero, smallest) = units
                .iter()
                .filter(|&&u| u > 0)
                .fold((0u128, u64::MAX), |(n, m), &u| (n + 1, m.min(u)));
            let passes = (excess / nonzero).min(u128::from(smallest)) as u64;
            if passes == 0 {
                break;
            }
            for u in units.iter_mut().filter(|u| **u > 0) {
                *u -= passes;
            }
            excess -= u128::from(passes) * nonzero;
        }
        for &i in &order {
            if excess == 0 {
                break;
            }
            if units[i] > 0 {
                units[i] -= 1;
                excess -= 1;
            }
        }
        return units;
    }
    let mut used = used as u64;
    // Hand out leftover units by fractional remainder, but never exceed
    // the rounded total request.
    let desired: u64 = raw.iter().sum::<f64>().round() as u64;
    let target = desired.min(total_units);
    let mut order: Vec<usize> = (0..units.len()).collect();
    order.sort_by(|&a, &b| {
        let ra = raw[a] - raw[a].floor();
        let rb = raw[b] - raw[b].floor();
        rb.partial_cmp(&ra).expect("remainders are finite")
    });
    for &i in &order {
        if used >= target {
            break;
        }
        if raw[i] > units[i] as f64 {
            units[i] += 1;
            used += 1;
        }
    }
    units
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn apportion_exact_fit() {
        // 3 partitions requesting 2, 4, 2 units' worth of lines.
        let got = apportion(&[200, 400, 200], 100, 8);
        assert_eq!(got, vec![2, 4, 2]);
    }

    #[test]
    fn apportion_rounds_by_remainder() {
        // Requests 1.5 and 2.5 units, 4 available: remainders give 2/2...
        // floor = [1, 2], desired total = 4, largest remainder first.
        let got = apportion(&[150, 250], 100, 4);
        assert_eq!(got.iter().sum::<u64>(), 4);
        assert!(got[1] >= 2);
    }

    #[test]
    fn apportion_keeps_zero_requests_zero() {
        let got = apportion(&[0, 800], 100, 8);
        assert_eq!(got, vec![0, 8]);
    }

    #[test]
    fn apportion_never_exceeds_total() {
        let got = apportion(&[900, 900], 100, 8);
        assert_eq!(got.iter().sum::<u64>(), 8);
    }

    #[test]
    fn apportion_undersubscribed_stays_small() {
        // Requests sum to 3 units; should not be inflated to fill 8.
        let got = apportion(&[100, 200], 100, 8);
        assert_eq!(got, vec![1, 2]);
    }

    /// `apportion` as it was before whole passes: the oversubscribed shave
    /// takes one unit a turn (summing in `u64`).
    fn apportion_one_unit_a_turn(requests: &[u64], unit_lines: u64, total_units: u64) -> Vec<u64> {
        let raw: Vec<f64> = requests
            .iter()
            .map(|&r| r as f64 / unit_lines as f64)
            .collect();
        let mut units: Vec<u64> = raw.iter().map(|&x| x.floor() as u64).collect();
        let mut used: u64 = units.iter().sum();
        if used > total_units {
            let mut order: Vec<usize> = (0..units.len()).collect();
            order.sort_by_key(|&i| std::cmp::Reverse(units[i]));
            let mut excess = used - total_units;
            for &i in order.iter().cycle() {
                if excess == 0 {
                    break;
                }
                if units[i] > 0 {
                    units[i] -= 1;
                    excess -= 1;
                }
            }
            return units;
        }
        let desired: u64 = raw.iter().sum::<f64>().round() as u64;
        let target = desired.min(total_units);
        let mut order: Vec<usize> = (0..units.len()).collect();
        order.sort_by(|&a, &b| {
            let ra = raw[a] - raw[a].floor();
            let rb = raw[b] - raw[b].floor();
            rb.partial_cmp(&ra).expect("remainders are finite")
        });
        for &i in &order {
            if used >= target {
                break;
            }
            if raw[i] > units[i] as f64 {
                units[i] += 1;
                used += 1;
            }
        }
        units
    }

    #[test]
    fn whole_pass_shave_equals_one_unit_a_turn() {
        // Up to 8 partitions, excess up to ~3000 units, with zero requests
        // and equal requests (ties in the shave order) mixed in.
        let mut state = 0x9E37_79B9_7F4A_7C15u64;
        let mut below = move |bound: u64| {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            (state >> 33) % bound
        };
        for _ in 0..4000 {
            let n = 1 + below(8) as usize;
            let unit = [1, 3, 16, 100][below(4) as usize];
            let total = below(65);
            let most = (total + below(3000)) / n as u64 + 1;
            let mut requests: Vec<u64> = Vec::with_capacity(n);
            for _ in 0..n {
                let r = match (below(4), requests.last()) {
                    (0, _) => 0,
                    (1, Some(&prev)) => prev,
                    _ => below(most * unit + 1),
                };
                requests.push(r);
            }
            assert_eq!(
                apportion(&requests, unit, total),
                apportion_one_unit_a_turn(&requests, unit, total),
                "{requests:?} in units of {unit}, {total} units"
            );
        }
    }

    #[test]
    fn huge_requests_apportion_at_once() {
        // The one-unit-a-turn shave took ~2.9e17 turns here, and summed
        // past `u64::MAX` for the second.
        assert_eq!(apportion(&[u64::MAX, 2], 64, 16), vec![16, 0]);
        assert_eq!(apportion(&[u64::MAX, u64::MAX, 0], 1, 16), vec![8, 8, 0]);
    }

    #[test]
    fn exact_grants_fit_for_any_request() {
        assert_eq!(exact_grants(&[300, 700], 1000), vec![300, 700]);
        assert_eq!(exact_grants(&[u64::MAX, 2], 100), vec![99, 0]);
        assert_eq!(exact_grants(&[u64::MAX, u64::MAX], 100), vec![50, 50]);
    }

    #[test]
    fn apportion_paper_worked_example() {
        // §III: 4 MB split as s1 = 2/3 MB, s2 = 10/3 MB on a set-partitioned
        // cache with 1 MB units → 1:3 in whole units (2/3 rounds up via
        // remainder, 10/3 rounds down).
        let mb = 16384; // lines per MB
        let got = apportion(&[(2 * mb) / 3, (10 * mb) / 3], mb, 4);
        assert_eq!(got.iter().sum::<u64>(), 4);
        assert_eq!(got, vec![1, 3]);
    }

    #[test]
    fn each_scheme_reports_the_fraction_talus_plans_over() {
        // The fractions Talus plans over: Vantage's managed 90 % (§VI-B),
        // the whole allocation everywhere else. Compared bit for bit.
        use crate::policy::Lru;
        let bits = |cache: &dyn PartitionedCacheModel| cache.managed_fraction().to_bits();
        assert_eq!(bits(&VantageLike::new(1024, 16, 2, 1)), 0.9f64.to_bits());
        assert_eq!(0.9f64.to_bits(), (1.0f64 - 0.10).to_bits());
        for u in [0.0, 0.05, 0.10, 0.20, 0.9] {
            let cache = VantageLike::with_unmanaged_fraction(1024, 16, 2, 1, u);
            assert_eq!(bits(&cache), (1.0 - u).to_bits(), "unmanaged {u}");
        }
        assert_eq!(bits(&FutilityScaled::new(1024, 16, 2, 1)), 1.0f64.to_bits());
        let way = WayPartitioned::new(1024, 16, 2, Lru::new(), 1);
        assert_eq!(bits(&way), 1.0f64.to_bits());
        let set = SetPartitioned::new(1024, 16, 2, Lru::new(), 1);
        assert_eq!(bits(&set), 1.0f64.to_bits());
        assert_eq!(bits(&IdealPartitioned::new(1024, 2)), 1.0f64.to_bits());
    }
}
