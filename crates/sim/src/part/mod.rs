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

mod futility;
mod ideal;
mod setpart;
mod vantage;
mod way;

pub use futility::FutilityScaled;
pub use ideal::IdealPartitioned;
pub use setpart::SetPartitioned;
pub use vantage::VantageLike;
pub use way::WayPartitioned;

use crate::addr::{LineAddr, PartitionId};
use crate::hasher::{FastMod32, H3Bank};
use crate::policy::AccessCtx;
use crate::stats::{AccessResult, CacheStats};

/// The most ways (replacement candidates per access) the skew-associative
/// schemes support: their per-access candidate buffers are this long.
pub(crate) const MAX_SKEWED_WAYS: usize = 64;

/// The index function of a skew-associative array of `rows × ways` slots
/// ([`VantageLike`], [`FutilityScaled`]): way `w` indexes its column with
/// its own H3 hash — lane `w` of one [`H3Bank`], so a line's `W`
/// candidate rows come from a single walk over its address — reduced to a
/// row without a divide.
#[derive(Debug, Clone)]
pub(crate) struct SkewedIndex {
    ways: usize,
    way_hashes: H3Bank,
    row_of: FastMod32,
}

impl SkewedIndex {
    /// Way `w`'s hash is seeded `seed + seed_stride · (w + 1)`.
    ///
    /// # Panics
    ///
    /// Panics unless `capacity_lines` is a positive multiple of `ways`,
    /// `ways` is in `1..=64`, and the row count fits in 32 bits (rows are
    /// indexed by a 32-bit hash).
    pub(crate) fn new(capacity_lines: u64, ways: usize, seed: u64, seed_stride: u64) -> Self {
        assert!(capacity_lines > 0, "capacity must be positive");
        assert!(ways > 0, "associativity must be positive");
        assert!(
            ways <= MAX_SKEWED_WAYS,
            "at most {MAX_SKEWED_WAYS} ways (candidates per access), got {ways}"
        );
        assert!(
            capacity_lines.is_multiple_of(ways as u64),
            "capacity must be a multiple of ways"
        );
        let rows =
            u32::try_from(capacity_lines / ways as u64).expect("row count must fit in 32 bits");
        let seeds: Vec<u64> = (0..ways as u64)
            .map(|w| seed.wrapping_add(seed_stride * (w + 1)))
            .collect();
        SkewedIndex {
            ways,
            way_hashes: H3Bank::new(&seeds),
            row_of: FastMod32::new(rows),
        }
    }

    /// Total slots (`rows × ways`).
    pub(crate) fn slots(&self) -> usize {
        self.row_of.divisor() as usize * self.ways
    }

    /// Hashes `line` for every way into `buf`; entry `w` of the result
    /// goes to [`slot`](Self::slot) to get way `w`'s candidate.
    #[inline(always)]
    pub(crate) fn hash<'a>(
        &self,
        line: LineAddr,
        buf: &'a mut [u32; MAX_SKEWED_WAYS],
    ) -> &'a [u32] {
        let hashes = &mut buf[..self.ways];
        self.way_hashes.hash_into(line.value(), hashes);
        hashes
    }

    /// The slot `way` offers a line whose hash for that way is `hash`.
    #[inline(always)]
    pub(crate) fn slot(&self, way: usize, hash: u32) -> usize {
        self.row_of.rem(hash) as usize * self.ways + way
    }
}

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
    /// sets, or exact lines). The granted total never exceeds capacity.
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
    let mut used: u64 = units.iter().sum();
    if used > total_units {
        // Oversubscribed even at floors: shave from the largest.
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
}
