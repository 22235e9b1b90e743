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
//! This implementation reproduces that behavioural contract (DESIGN.md):
//!
//! - a **skew-associative array**: each way indexes with its own H3 hash,
//!   so a line has `W` candidate slots in `W` different rows — the
//!   balls-into-bins "power of many choices" effect that gives zcaches
//!   their near-ideal associativity (without modelling relocation walks);
//! - **line-granularity targets** with per-partition occupancy tracking;
//! - **soft enforcement**: victims are drawn from the partition(s) with
//!   the highest occupancy-to-target ratio among the candidates — the
//!   demotion-from-over-budget-partitions analogue;
//! - a configurable **unmanaged fraction** that scales effective targets
//!   (the cause of Talus+V sitting slightly above the hull in Fig. 8).
//!
//! Replacement within a partition is LRU (the paper's Talus+V/LRU
//! configuration); SRRIP-style policies pair with way partitioning
//! ([`WayPartitioned`](super::WayPartitioned)) as in the paper's Fig. 9.

use super::{PartitionedCacheModel, SkewedIndex, MAX_SKEWED_WAYS};
use crate::addr::{LineAddr, PartitionId};
use crate::policy::AccessCtx;
use crate::stats::{AccessResult, CacheStats};

const INVALID_TAG: u64 = u64::MAX;
const NO_OWNER: u32 = u32::MAX;

/// Fraction of capacity left unmanaged by default (paper §VI-B: 10%).
pub const DEFAULT_UNMANAGED_FRACTION: f64 = 0.10;

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
#[derive(Debug, Clone)]
pub struct VantageLike {
    index: SkewedIndex,
    tags: Vec<u64>,
    owner: Vec<u32>,
    stamp: Vec<u64>,
    clock: u64,
    /// Effective (managed-region-scaled) per-partition targets, in lines.
    targets: Vec<u64>,
    /// Requested sizes as granted to the caller.
    granted: Vec<u64>,
    occupancy: Vec<u64>,
    /// `occupancy / target` per partition (∞ for a zero target): the
    /// victim-selection key, refreshed wherever either side changes so a
    /// miss divides twice, not once per candidate.
    pressure: Vec<f64>,
    unmanaged_fraction: f64,
    stats: Vec<CacheStats>,
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
        assert!(partitions > 0, "partition count must be positive");
        assert!(
            (0.0..=0.9).contains(&unmanaged_fraction),
            "unmanaged fraction must be in [0, 0.9]"
        );
        let index = SkewedIndex::new(capacity_lines, ways, seed, 0x1234_5678);
        let slots = index.slots();
        VantageLike {
            index,
            tags: vec![INVALID_TAG; slots],
            owner: vec![NO_OWNER; slots],
            stamp: vec![0; slots],
            clock: 0,
            targets: vec![0; partitions],
            granted: vec![0; partitions],
            occupancy: vec![0; partitions],
            pressure: vec![f64::INFINITY; partitions],
            unmanaged_fraction,
            stats: vec![CacheStats::new(); partitions],
        }
    }

    /// Current resident lines of a partition.
    pub fn occupancy(&self, part: PartitionId) -> u64 {
        self.occupancy[part.index()]
    }

    /// The effective (managed-region-scaled) target of a partition.
    pub fn effective_target(&self, part: PartitionId) -> u64 {
        self.targets[part.index()]
    }

    /// Recomputes partition `p`'s occupancy-to-target ratio; called
    /// wherever `occupancy[p]` or `targets[p]` changes.
    #[inline]
    fn refresh_pressure(&mut self, p: usize) {
        self.pressure[p] = if self.targets[p] == 0 {
            f64::INFINITY
        } else {
            self.occupancy[p] as f64 / self.targets[p] as f64
        };
    }

    /// Victim selection among the candidate slots: source capacity from
    /// the partition(s) with the highest occupancy-to-target ratio
    /// (Vantage's demote-from-over-budget rule), breaking ties by LRU.
    fn pick_victim(&self, cands: &[usize]) -> usize {
        let mut best_slot = cands[0];
        let mut best_key = (f64::NEG_INFINITY, 0u64);
        for &s in cands {
            let ratio = self.pressure[self.owner[s] as usize];
            // Older (smaller stamp) is a better victim: compare age.
            let age = self.clock - self.stamp[s];
            if ratio > best_key.0 + 1e-9 || ((ratio - best_key.0).abs() <= 1e-9 && age > best_key.1)
            {
                best_key = (ratio, age);
                best_slot = s;
            }
        }
        best_slot
    }

    /// One access with the partition index already validated; shared by
    /// the per-access and block paths (stats are recorded by the caller).
    #[inline]
    fn access_inner(&mut self, p: usize, line: LineAddr, ctx: &AccessCtx) -> AccessResult {
        let _ = ctx;
        let tag = line.value();
        self.clock += 1;
        let mut hit_slot = None;
        let mut empty_slot = None;
        // Gather the W skewed candidates in one pass.
        let mut hashes = [0u32; MAX_SKEWED_WAYS];
        let hashes = self.index.hash(line, &mut hashes);
        let mut cands = [0usize; MAX_SKEWED_WAYS];
        for (w, &hash) in hashes.iter().enumerate() {
            let s = self.index.slot(w, hash);
            cands[w] = s;
            if self.tags[s] == tag {
                hit_slot = Some(s);
                break;
            }
            if self.tags[s] == INVALID_TAG && empty_slot.is_none() {
                empty_slot = Some(s);
            }
        }
        if let Some(s) = hit_slot {
            self.stamp[s] = self.clock;
            AccessResult::Hit
        } else if self.granted[p] == 0 {
            AccessResult::Miss // zero-size partitions bypass
        } else {
            let s = match empty_slot {
                Some(s) => s,
                None => {
                    let v = self.pick_victim(&cands[..hashes.len()]);
                    let old = self.owner[v];
                    debug_assert_ne!(old, NO_OWNER);
                    self.occupancy[old as usize] -= 1;
                    self.refresh_pressure(old as usize);
                    v
                }
            };
            self.tags[s] = tag;
            self.owner[s] = p as u32;
            self.stamp[s] = self.clock;
            self.occupancy[p] += 1;
            self.refresh_pressure(p);
            AccessResult::Miss
        }
    }
}

impl PartitionedCacheModel for VantageLike {
    fn num_partitions(&self) -> usize {
        self.stats.len()
    }

    fn set_partition_sizes(&mut self, lines: &[u64]) -> Vec<u64> {
        assert_eq!(
            lines.len(),
            self.num_partitions(),
            "one request per partition"
        );
        let capacity = self.capacity_lines();
        let requested: u64 = lines.iter().sum();
        // Grants are exact (line granularity) unless oversubscribed.
        self.granted = if requested <= capacity {
            lines.to_vec()
        } else {
            lines
                .iter()
                .map(|&l| (l as u128 * capacity as u128 / requested as u128) as u64)
                .collect()
        };
        // Vantage can only guarantee the managed region: effective targets
        // are scaled down, and the slack floats between partitions.
        let scale = 1.0 - self.unmanaged_fraction;
        self.targets = self
            .granted
            .iter()
            .map(|&g| (g as f64 * scale) as u64)
            .collect();
        for p in 0..self.targets.len() {
            self.refresh_pressure(p);
        }
        self.granted.clone()
    }

    fn access(&mut self, part: PartitionId, line: LineAddr, ctx: &AccessCtx) -> AccessResult {
        let p = part.index();
        assert!(p < self.num_partitions(), "unknown {part}");
        let result = self.access_inner(p, line, ctx);
        self.stats[p].record(result);
        result
    }

    fn access_block(&mut self, part: PartitionId, lines: &[LineAddr], ctx: &AccessCtx) {
        let p = part.index();
        assert!(p < self.num_partitions(), "unknown {part}");
        let mut hits = 0u64;
        for &line in lines {
            if self.access_inner(p, line, ctx) == AccessResult::Hit {
                hits += 1;
            }
        }
        self.stats[p].record_block(hits, lines.len() as u64 - hits);
    }

    fn partition_stats(&self, part: PartitionId) -> &CacheStats {
        &self.stats[part.index()]
    }

    fn reset_stats(&mut self) {
        for s in &mut self.stats {
            s.reset();
        }
    }

    fn capacity_lines(&self) -> u64 {
        self.index.slots() as u64
    }

    fn scheme_name(&self) -> &'static str {
        "vantage"
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ctx() -> AccessCtx {
        AccessCtx::new()
    }

    #[test]
    fn grants_are_line_granular() {
        let mut c = VantageLike::new(1024, 16, 2, 1);
        let granted = c.set_partition_sizes(&[123, 901]);
        assert_eq!(granted, vec![123, 901]);
    }

    #[test]
    fn effective_targets_scaled_by_managed_region() {
        let mut c = VantageLike::new(1000, 10, 2, 1);
        c.set_partition_sizes(&[500, 500]);
        assert_eq!(c.effective_target(PartitionId(0)), 450);
    }

    #[test]
    fn hits_after_insert() {
        let mut c = VantageLike::new(256, 16, 1, 1);
        c.set_partition_sizes(&[256]);
        assert!(c.access(PartitionId(0), LineAddr(7), &ctx()).is_miss());
        assert!(c.access(PartitionId(0), LineAddr(7), &ctx()).is_hit());
    }

    #[test]
    fn near_capacity_scan_fits() {
        // The knife-edge case Talus relies on (Assumption 2): a cyclic
        // scan over 90% of the partition's size must mostly hit. The
        // skewed array keeps conflict evictions rare.
        let mut c = VantageLike::with_unmanaged_fraction(4096, 16, 1, 1, 0.0);
        c.set_partition_sizes(&[4096]);
        let lines = 3686; // 90% of capacity
        for _ in 0..5 {
            for i in 0..lines {
                c.access(PartitionId(0), LineAddr(i), &ctx());
            }
        }
        let hr = c.partition_stats(PartitionId(0)).hit_rate();
        assert!(hr > 0.75, "hit rate {hr}");
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
    fn zero_size_partition_bypasses() {
        let mut c = VantageLike::new(256, 16, 2, 1);
        c.set_partition_sizes(&[0, 256]);
        assert!(c.access(PartitionId(0), LineAddr(1), &ctx()).is_miss());
        assert!(c.access(PartitionId(0), LineAddr(1), &ctx()).is_miss());
        assert_eq!(c.occupancy(PartitionId(0)), 0);
    }

    #[test]
    fn oversubscription_scales_down() {
        let mut c = VantageLike::new(1000, 10, 2, 1);
        let granted = c.set_partition_sizes(&[2000, 2000]);
        assert!(granted.iter().sum::<u64>() <= 1000);
    }

    #[test]
    #[should_panic(expected = "at most 64 ways")]
    fn rejects_more_ways_than_the_candidate_buffer_holds() {
        // 65 ways used to pass construction and index past the 64-slot
        // candidate buffer on the first access (a release-build panic
        // mid-simulation; the bound was only a debug assertion).
        VantageLike::new(65 * 4, 65, 1, 1);
    }

    #[test]
    #[should_panic(expected = "row count must fit in 32 bits")]
    fn rejects_row_counts_past_32_bits() {
        // Fails before any array is allocated.
        VantageLike::new((u64::from(u32::MAX) + 1) * 2, 2, 1, 1);
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

    #[test]
    fn protected_partition_survives_thrashing_neighbour() {
        let mut c = VantageLike::new(2048, 16, 2, 1);
        c.set_partition_sizes(&[1024, 1024]);
        for i in 0..512u64 {
            c.access(PartitionId(0), LineAddr(i), &ctx());
        }
        for i in 0..50_000u64 {
            c.access(PartitionId(1), LineAddr(1_000_000 + i), &ctx());
        }
        c.reset_stats();
        for i in 0..512u64 {
            c.access(PartitionId(0), LineAddr(i), &ctx());
        }
        let hr = c.partition_stats(PartitionId(0)).hit_rate();
        assert!(hr > 0.8, "partition 0 re-touch hit rate {hr}");
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
