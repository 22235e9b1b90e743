//! Vantage-like fine-grained partitioning on a skew-associative array.
//!
//! Vantage (Sanchez & Kozyrakis, ISCA 2011) supports hundreds of partitions
//! sized at line granularity, enforced softly: partitions over their target
//! demote lines into a small *unmanaged region* (~10% of capacity) that
//! absorbs churn. The paper evaluates Talus primarily on Vantage over a
//! 4/52 **zcache**, whose high effective associativity (52 replacement
//! candidates drawn via different hash functions) is essential — it makes
//! a partition's usable capacity track its nominal size tightly
//! (Assumption 2).
//!
//! This implementation reproduces that behavioural contract (DESIGN.md) on
//! the skew-associative engine it shares with
//! [`FutilityScaled`](super::FutilityScaled) (line-granularity targets,
//! per-partition occupancy). What is Vantage's own is the rule:
//!
//! - **soft enforcement**: victims are drawn from the partition(s) with
//!   the highest occupancy-to-target ratio among the candidates — the
//!   demotion-from-over-budget-partitions analogue;
//! - a configurable **unmanaged fraction** that scales effective targets
//!   (the cause of Talus+V sitting slightly above the hull in Fig. 8).
//!
//! Replacement within a partition is LRU (the paper's Talus+V/LRU
//! configuration); SRRIP-style policies pair with way partitioning
//! ([`WayPartitioned`](super::WayPartitioned)) as in the paper's Fig. 9.

use super::skewed::{Enforcement, Skewed};
use crate::addr::PartitionId;

/// Fraction of capacity left unmanaged by default (paper §VI-B: 10%).
const DEFAULT_UNMANAGED_FRACTION: f64 = 0.10;

/// A Vantage-like fine-grained partitioned cache (skew-associative, LRU).
///
/// # Examples
///
/// ```
/// use talus_sim::part::{PartitionedCacheModel, VantageLike};
/// use talus_sim::{AccessCtx, LineAddr, PartitionId};
/// let mut cache = VantageLike::new(4096, 16, 2, 11);
/// // Line-granularity grants (enforced over the 90% managed region).
/// let granted = cache.set_partition_sizes(&[1000, 3096]);
/// assert_eq!(granted, vec![1000, 3096]);
/// cache.access(PartitionId(0), LineAddr(5), &AccessCtx::new());
/// ```
///
/// It implements [`PartitionedCacheModel`](super::PartitionedCacheModel),
/// and `occupancy(part)` reads a partition's resident lines.
pub type VantageLike = Skewed<Vantage>;

/// Vantage's rule: targets are the grants scaled to the managed region,
/// and the victim is the candidate most over its owner's target.
#[derive(Debug, Clone)]
pub struct Vantage {
    unmanaged_fraction: f64,
    /// Effective (managed-region-scaled) per-partition targets, in lines.
    targets: Vec<u64>,
    /// `occupancy / target` per partition (∞ for a zero target): the
    /// victim-selection key, refreshed wherever either side changes so a
    /// miss divides twice, not once per candidate.
    pressure: Vec<f64>,
}

impl VantageLike {
    /// Builds a Vantage-like cache with the default 10% unmanaged region.
    ///
    /// `ways` is the number of replacement candidates per access (the
    /// zcache analogue of its candidate count).
    ///
    /// # Panics
    ///
    /// Panics if the capacity is not a positive multiple of `ways` or
    /// `partitions` is zero.
    pub fn new(capacity_lines: u64, ways: usize, partitions: usize, seed: u64) -> Self {
        Self::with_unmanaged_fraction(
            capacity_lines,
            ways,
            partitions,
            seed,
            DEFAULT_UNMANAGED_FRACTION,
        )
    }

    /// Builds a Vantage-like cache with an explicit unmanaged fraction
    /// (for the ablation study).
    ///
    /// # Panics
    ///
    /// Panics on invalid geometry — `ways` above 64 (the candidate buffer
    /// holds that many) or more than `u32::MAX` rows included — or if
    /// `unmanaged_fraction` is outside `[0, 0.9]`.
    pub fn with_unmanaged_fraction(
        capacity_lines: u64,
        ways: usize,
        partitions: usize,
        seed: u64,
        unmanaged_fraction: f64,
    ) -> Self {
        assert!(
            (0.0..=0.9).contains(&unmanaged_fraction),
            "unmanaged fraction must be in [0, 0.9]"
        );
        let rule = Vantage {
            unmanaged_fraction,
            targets: vec![0; partitions],
            pressure: vec![f64::INFINITY; partitions],
        };
        Skewed::build(capacity_lines, ways, partitions, seed, rule)
    }

    /// The effective (managed-region-scaled) target of a partition.
    pub fn effective_target(&self, part: PartitionId) -> u64 {
        self.rule.targets[part.index()]
    }
}

impl Enforcement for Vantage {
    const NAME: &'static str = "vantage";
    const SEED_STRIDE: u64 = 0x1234_5678;

    fn managed_fraction(&self) -> f64 {
        1.0 - self.unmanaged_fraction
    }

    fn retarget(&mut self, granted: &[u64], occupancy: &[u64]) {
        // Vantage can only guarantee the managed region: effective targets
        // are scaled down, and the slack floats between partitions.
        let scale = self.managed_fraction();
        self.targets = granted.iter().map(|&g| (g as f64 * scale) as u64).collect();
        for (p, &lines) in occupancy.iter().enumerate() {
            self.occupancy_changed(p, lines);
        }
    }

    #[inline]
    fn occupancy_changed(&mut self, p: usize, lines: u64) {
        self.pressure[p] = if self.targets[p] == 0 {
            f64::INFINITY
        } else {
            lines as f64 / self.targets[p] as f64
        };
    }

    /// Source capacity from the partition(s) with the highest
    /// occupancy-to-target ratio (Vantage's demote-from-over-budget rule),
    /// breaking ties by LRU. Equal ratios tie before the `1e-9` test, so
    /// candidates of zero-target partitions (ratio `∞`, where
    /// `|∞ − ∞| ≤ 1e-9` does not hold) tie too and the oldest goes.
    #[inline]
    fn victim(&self, cands: &[usize], owner: &[u32], stamp: &[u64], clock: u64) -> usize {
        let mut best_slot = cands[0];
        let mut best_key = (f64::NEG_INFINITY, 0u64);
        for &s in cands {
            let ratio = self.pressure[owner[s] as usize];
            // Older (smaller stamp) is a better victim: compare age.
            let age = clock - stamp[s];
            let tie = ratio == best_key.0 || (ratio - best_key.0).abs() <= 1e-9;
            if ratio > best_key.0 + 1e-9 || (tie && age > best_key.1) {
                best_key = (ratio, age);
                best_slot = s;
            }
        }
        best_slot
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::addr::LineAddr;
    use crate::part::checks;
    use crate::part::PartitionedCacheModel;
    use crate::policy::AccessCtx;

    fn ctx() -> AccessCtx {
        AccessCtx::new()
    }

    // The engine's checks, on Vantage.

    #[test]
    fn grants_are_line_granular() {
        checks::grants_are_line_granular(&mut VantageLike::new(1024, 16, 2, 1));
    }

    #[test]
    fn hits_after_insert() {
        checks::hits_after_insert(&mut VantageLike::new(256, 16, 1, 1));
    }

    #[test]
    fn near_capacity_scan_fits() {
        checks::near_capacity_scan_fits(&mut VantageLike::with_unmanaged_fraction(
            4096, 16, 1, 1, 0.0,
        ));
    }

    #[test]
    fn zero_size_partition_bypasses() {
        let mut c = VantageLike::new(256, 16, 2, 1);
        checks::zero_size_partition_bypasses(&mut c);
        assert_eq!(c.occupancy(PartitionId(0)), 0);
    }

    #[test]
    fn oversubscription_scales_down() {
        checks::oversubscription_scales_down(&mut VantageLike::new(1000, 10, 2, 1));
    }

    #[test]
    fn protected_partition_survives_thrashing_neighbour() {
        checks::protected_partition_survives_thrashing_neighbour(&mut VantageLike::new(
            2048, 16, 2, 1,
        ));
    }

    #[test]
    fn per_partition_stats_are_separate() {
        checks::per_partition_stats_are_separate(&mut VantageLike::new(256, 16, 2, 1));
    }

    #[test]
    #[should_panic(expected = "at most 64 ways")]
    fn rejects_more_ways_than_the_candidate_buffer_holds() {
        checks::rejects_more_ways_than_the_candidate_buffer_holds(|lines, ways| {
            VantageLike::new(lines, ways, 1, 1)
        });
    }

    #[test]
    #[should_panic(expected = "row count must fit in 32 bits")]
    fn rejects_row_counts_past_32_bits() {
        checks::rejects_row_counts_past_32_bits(|lines, ways| VantageLike::new(lines, ways, 1, 1));
    }

    // Vantage's rule.

    #[test]
    fn effective_targets_scaled_by_managed_region() {
        let mut c = VantageLike::new(1000, 10, 2, 1);
        c.set_partition_sizes(&[500, 500]);
        assert_eq!(c.effective_target(PartitionId(0)), 450);
    }

    #[test]
    fn occupancy_converges_near_targets() {
        let mut c = VantageLike::new(4096, 16, 2, 1);
        c.set_partition_sizes(&[2048, 2048]);
        let mut state = 1u64;
        for _ in 0..200_000 {
            state = state.wrapping_mul(6364136223846793005).wrapping_add(1);
            let line = LineAddr((state >> 33) % 8192);
            let p = PartitionId(((state >> 20) & 1) as u32);
            c.access(p, line, &ctx());
        }
        let o0 = c.occupancy(PartitionId(0)) as f64;
        let o1 = c.occupancy(PartitionId(1)) as f64;
        assert!((o0 / (o0 + o1) - 0.5).abs() < 0.1, "o0 {o0} o1 {o1}");
    }

    #[test]
    fn skewed_targets_are_respected() {
        // Partition 0 targets 12.5% of lines; equal traffic. Enforcement
        // should keep partition 0 near its target even though it would
        // grab ~50% in an unpartitioned cache.
        let mut c = VantageLike::new(4096, 16, 2, 1);
        c.set_partition_sizes(&[512, 3584]);
        let mut state = 7u64;
        for _ in 0..300_000 {
            state = state.wrapping_mul(6364136223846793005).wrapping_add(1);
            let line = LineAddr((state >> 33) % 16384);
            let p = PartitionId(((state >> 21) & 1) as u32);
            c.access(p, line, &ctx());
        }
        let o0 = c.occupancy(PartitionId(0)) as f64;
        assert!(o0 < 512.0 * 1.5, "partition 0 holds {o0} lines");
        assert!(o0 > 512.0 * 0.5, "partition 0 holds {o0} lines");
    }

    #[test]
    fn sixty_four_ways_are_accepted() {
        let mut c = VantageLike::new(64 * 8, 64, 1, 1);
        c.set_partition_sizes(&[64 * 8]);
        assert!(c.access(PartitionId(0), LineAddr(7), &ctx()).is_miss());
        assert!(c.access(PartitionId(0), LineAddr(7), &ctx()).is_hit());
    }

    #[test]
    #[should_panic(expected = "unmanaged fraction")]
    fn rejects_bad_unmanaged_fraction() {
        VantageLike::with_unmanaged_fraction(256, 16, 1, 1, 0.95);
    }

    /// Pins the rule as it runs (changing it would move every V/LRU
    /// digest): a zero-target partition's candidates are not taken
    /// oldest first.
    #[test]
    fn zero_target_candidates_fall_in_lru_order() {
        // One row of 16 ways: every slot is a candidate for every line,
        // and an empty cache fills way `w` with the `w`-th line.
        let mut c = VantageLike::new(16, 16, 2, 1);
        c.set_partition_sizes(&[0, 16]);
        for i in 0..16 {
            assert!(c.access(PartitionId(1), LineAddr(i), &ctx()).is_miss());
        }
        // Line 0 (way 0) becomes the youngest; line 1 (way 1) the oldest.
        assert!(c.access(PartitionId(1), LineAddr(0), &ctx()).is_hit());
        c.set_partition_sizes(&[16, 0]);
        assert!(c.access(PartitionId(0), LineAddr(100), &ctx()).is_miss());
        assert_eq!(c.occupancy(PartitionId(1)), 15);
        // A zero-size partition inserts nothing, so these probes only look.
        let probe = |c: &mut VantageLike, line| c.access(PartitionId(1), LineAddr(line), &ctx());
        assert!(probe(&mut c, 1).is_miss(), "the oldest, in way 1, went");
        assert!(probe(&mut c, 0).is_hit(), "the youngest, in way 0, stayed");
    }

    #[test]
    fn stale_lines_of_resized_partitions_go_first() {
        let mut c = VantageLike::new(1024, 16, 2, 1);
        c.set_partition_sizes(&[1024, 0]);
        for i in 0..1024u64 {
            c.access(PartitionId(0), LineAddr(i), &ctx());
        }
        // Flip ownership: partition 0 now has target 0; its resident lines
        // should be the preferred victims for partition 1's inserts.
        c.set_partition_sizes(&[0, 1024]);
        for i in 0..700u64 {
            c.access(PartitionId(1), LineAddr(10_000 + i), &ctx());
        }
        c.reset_stats();
        for i in 0..700u64 {
            c.access(PartitionId(1), LineAddr(10_000 + i), &ctx());
        }
        let hr = c.partition_stats(PartitionId(1)).hit_rate();
        assert!(hr > 0.9, "new owner hit rate {hr}");
    }
}
