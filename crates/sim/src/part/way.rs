//! Way partitioning: each partition owns a subset of the ways in every set.
//!
//! The classic scheme (Albonesi; Chiou et al.): simple, but allocations are
//! quantised to whole ways and associativity degrades as partitions shrink
//! — precisely the Assumption-2 violation the paper calls out in §VI-B and
//! corrects by recomputing ρ from the coarsened sizes.

use super::{apportion, PartitionedCacheModel};
use crate::addr::{LineAddr, PartitionId};
use crate::hasher::{FastMod32, H3Hasher};
use crate::policy::{AccessCtx, ReplacementPolicy};
use crate::stats::{AccessResult, CacheStats};
use std::ops::Range;

const INVALID_TAG: u64 = u64::MAX;

/// A way-partitioned set-associative cache.
///
/// Lookups search every way (partitioning constrains *insertion*, not
/// residency), so a line cached while owned by one partition still hits
/// when the ways are later reassigned; the new owner's insertions evict it
/// naturally.
///
/// # Examples
///
/// ```
/// use talus_sim::part::{PartitionedCacheModel, WayPartitioned};
/// use talus_sim::policy::Lru;
/// use talus_sim::{AccessCtx, LineAddr, PartitionId};
///
/// // 2048 lines, 16 ways, two partitions.
/// let mut cache = WayPartitioned::new(2048, 16, 2, Lru::new(), 7);
/// let granted = cache.set_partition_sizes(&[512, 1536]);
/// assert_eq!(granted, vec![512, 1536]); // 4 and 12 ways exactly
/// let ctx = AccessCtx::new();
/// cache.access(PartitionId(0), LineAddr(3), &ctx);
/// assert_eq!(cache.partition_stats(PartitionId(0)).misses(), 1);
/// ```
#[derive(Debug, Clone)]
pub struct WayPartitioned<P> {
    sets: usize,
    ways: usize,
    tags: Vec<u64>,
    /// The run of ways each partition owns (same in every set); ways past
    /// the last run are unassigned.
    own_ways: Vec<Range<usize>>,
    policy: P,
    hasher: H3Hasher,
    /// `hash % sets`, divide-free.
    set_index: FastMod32,
    stats: Vec<CacheStats>,
}

impl<P: ReplacementPolicy> WayPartitioned<P> {
    /// Builds a way-partitioned cache of `capacity_lines` with the given
    /// associativity and number of partitions. Initially all ways are
    /// unassigned; call
    /// [`set_partition_sizes`](PartitionedCacheModel::set_partition_sizes)
    /// before use (unsized partitions bypass).
    ///
    /// # Panics
    ///
    /// Panics if the capacity is not a positive multiple of `ways`, if
    /// there are more than `u32::MAX` sets, or if `partitions` is zero.
    pub fn new(
        capacity_lines: u64,
        ways: usize,
        partitions: usize,
        mut policy: P,
        seed: u64,
    ) -> Self {
        assert!(capacity_lines > 0, "capacity must be positive");
        assert!(ways > 0, "associativity must be positive");
        assert!(partitions > 0, "partition count must be positive");
        assert!(
            capacity_lines.is_multiple_of(ways as u64),
            "capacity must be a multiple of ways"
        );
        let set_index = FastMod32::new(
            u32::try_from(capacity_lines / ways as u64).expect("set count must fit in 32 bits"),
        );
        let sets = set_index.divisor() as usize;
        policy.attach(sets, ways);
        WayPartitioned {
            sets,
            ways,
            tags: vec![INVALID_TAG; sets * ways],
            own_ways: vec![0..0; partitions],
            policy,
            hasher: H3Hasher::new(32, seed),
            set_index,
            stats: vec![CacheStats::new(); partitions],
        }
    }

    /// Number of ways currently owned by a partition.
    pub fn ways_of(&self, part: PartitionId) -> usize {
        self.own_ways[part.index()].len()
    }

    fn set_of(&self, line: LineAddr) -> usize {
        // The hasher has 32 output bits, so the cast keeps all of them.
        self.set_index.rem(self.hasher.hash_line(line) as u32) as usize
    }

    /// One access with the partition index already validated; shared by
    /// the per-access and block paths (stats are recorded by the caller).
    #[inline]
    fn access_inner(&mut self, p: usize, line: LineAddr, ctx: &AccessCtx) -> AccessResult {
        let set = self.set_of(line);
        let tag = line.value();
        let row = &mut self.tags[set * self.ways..][..self.ways];
        let own = self.own_ways[p].clone();
        let ctx = &ctx.with_line(line); // signature-based policies need the address
        if let Some(way) = row.iter().position(|&t| t == tag) {
            self.policy.on_hit(set, way, ctx);
            AccessResult::Hit
        } else if own.is_empty() {
            // Zero ways: bypass partition.
            AccessResult::Miss
        } else {
            let way = match row[own.clone()].iter().position(|&t| t == INVALID_TAG) {
                Some(k) => own.start + k,
                None => self.policy.choose_victim(set, own),
            };
            row[way] = tag;
            self.policy.on_insert(set, way, ctx);
            AccessResult::Miss
        }
    }
}

impl<P: ReplacementPolicy> PartitionedCacheModel for WayPartitioned<P> {
    fn num_partitions(&self) -> usize {
        self.stats.len()
    }

    fn set_partition_sizes(&mut self, lines: &[u64]) -> Vec<u64> {
        assert_eq!(
            lines.len(),
            self.num_partitions(),
            "one request per partition"
        );
        let ways_per = apportion(lines, self.sets as u64, self.ways as u64);
        // Reassign way ownership: walk ways in order, handing each
        // partition its quota. Stable so small reallocations move few ways.
        let mut next_way = 0usize;
        for (own, &quota) in self.own_ways.iter_mut().zip(&ways_per) {
            *own = next_way..next_way + quota as usize;
            next_way = own.end;
        }
        ways_per.iter().map(|&w| w * self.sets as u64).collect()
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
        (self.sets * self.ways) as u64
    }

    fn scheme_name(&self) -> &'static str {
        "way"
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::policy::Lru;

    fn ctx() -> AccessCtx {
        AccessCtx::new()
    }

    #[test]
    fn sizes_round_to_whole_ways() {
        let mut c = WayPartitioned::new(1024, 16, 2, Lru::new(), 1);
        // 1024 lines / 16 ways = 64 lines per way. Request 100 and 900.
        let granted = c.set_partition_sizes(&[100, 900]);
        assert_eq!(granted.iter().sum::<u64>() % 64, 0);
        assert!(granted[0] == 64 || granted[0] == 128); // 1-2 ways
        assert!(granted[1] >= 832); // ~14 ways
        assert_eq!(c.ways_of(PartitionId(0)) + c.ways_of(PartitionId(1)), 16);
    }

    #[test]
    fn partitions_do_not_evict_each_other() {
        // Partition 0 gets 1 way, partition 1 gets 7. Partition 1's
        // traffic must not evict partition 0's single resident line per set.
        let mut c = WayPartitioned::new(8, 8, 2, Lru::new(), 1);
        c.set_partition_sizes(&[1, 7]);
        c.access(PartitionId(0), LineAddr(42), &ctx());
        for i in 0..1000u64 {
            c.access(PartitionId(1), LineAddr(100 + i), &ctx());
        }
        assert!(c.access(PartitionId(0), LineAddr(42), &ctx()).is_hit());
    }

    #[test]
    fn zero_way_partition_bypasses() {
        let mut c = WayPartitioned::new(64, 8, 2, Lru::new(), 1);
        c.set_partition_sizes(&[0, 512]);
        for _ in 0..3 {
            assert!(c.access(PartitionId(0), LineAddr(5), &ctx()).is_miss());
        }
        assert_eq!(c.partition_stats(PartitionId(0)).misses(), 3);
    }

    #[test]
    fn lookup_hits_across_partitions() {
        // A line inserted by partition 1 is still found by partition 0's
        // lookup (shared physical array).
        let mut c = WayPartitioned::new(64, 8, 2, Lru::new(), 1);
        c.set_partition_sizes(&[256, 256]);
        c.access(PartitionId(1), LineAddr(9), &ctx());
        assert!(c.access(PartitionId(0), LineAddr(9), &ctx()).is_hit());
    }

    #[test]
    fn per_partition_stats_are_separate() {
        let mut c = WayPartitioned::new(64, 8, 2, Lru::new(), 1);
        c.set_partition_sizes(&[256, 256]);
        c.access(PartitionId(0), LineAddr(1), &ctx());
        c.access(PartitionId(1), LineAddr(2), &ctx());
        c.access(PartitionId(1), LineAddr(2), &ctx());
        assert_eq!(c.partition_stats(PartitionId(0)).accesses(), 1);
        assert_eq!(c.partition_stats(PartitionId(1)).accesses(), 2);
        assert_eq!(c.total_stats().accesses(), 3);
        c.reset_stats();
        assert_eq!(c.total_stats().accesses(), 0);
    }

    #[test]
    fn reallocation_moves_capacity() {
        // 64-line cache: requests beyond capacity are capped at the full
        // 8 ways (64 lines).
        let mut c = WayPartitioned::new(64, 8, 2, Lru::new(), 1);
        c.set_partition_sizes(&[64, 0]);
        assert_eq!(c.ways_of(PartitionId(0)), 8);
        let granted = c.set_partition_sizes(&[0, 64]);
        assert_eq!(granted, vec![0, 64]);
        assert_eq!(c.ways_of(PartitionId(0)), 0);
        assert_eq!(c.ways_of(PartitionId(1)), 8);
        // Oversubscribed requests are shaved to fit.
        let granted = c.set_partition_sizes(&[512, 512]);
        assert!(granted.iter().sum::<u64>() <= 64);
    }

    #[test]
    fn working_set_fits_when_partition_large_enough() {
        let mut c = WayPartitioned::new(512, 8, 2, Lru::new(), 1);
        c.set_partition_sizes(&[256, 256]);
        // 128-line working set in a 256-line partition: after warmup, all hits.
        for _ in 0..4 {
            for i in 0..128u64 {
                c.access(PartitionId(0), LineAddr(i), &ctx());
            }
        }
        let s = c.partition_stats(PartitionId(0));
        assert!(s.hit_rate() > 0.70, "hit rate {}", s.hit_rate());
    }
}
