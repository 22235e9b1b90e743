//! Set partitioning: each partition owns a contiguous range of sets.
//!
//! This is the scheme used by the paper's §III worked example (Fig. 2),
//! where a 4 MB cache is split by sets in a 1:2 ratio with accesses
//! distributed 1:2 between the ranges. Implementable in real systems via
//! page colouring or reconfigurable caches.

use super::{apportion, PartitionedCacheModel};
use crate::addr::{LineAddr, PartitionId};
use crate::hasher::{FastMod32, H3Hasher};
use crate::policy::{AccessCtx, ReplacementPolicy};
use crate::stats::{AccessResult, CacheStats};

const INVALID_TAG: u64 = u64::MAX;

/// A set-partitioned cache: allocations are whole set ranges.
///
/// Resizing remaps partitions' set ranges; resident lines of shrunken
/// partitions are left behind and naturally evicted by the new owners
/// (real page-colouring systems behave the same way, modulo flushes).
#[derive(Debug, Clone)]
pub struct SetPartitioned<P> {
    sets: usize,
    ways: usize,
    tags: Vec<u64>,
    /// Per-partition set ranges: the base set, and `hash % count` in
    /// divide-free form (`None` for an empty range, a bypass partition).
    ranges: Vec<(usize, Option<FastMod32>)>,
    policy: P,
    hasher: H3Hasher,
    stats: Vec<CacheStats>,
}

impl<P: ReplacementPolicy> SetPartitioned<P> {
    /// Builds a set-partitioned cache. All partitions start with zero sets
    /// (bypass); call
    /// [`set_partition_sizes`](PartitionedCacheModel::set_partition_sizes).
    ///
    /// # Panics
    ///
    /// Panics if the capacity is not a positive multiple of `ways`, there
    /// are more than `u32::MAX` sets, or `partitions` is zero.
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
        let sets = u32::try_from(capacity_lines / ways as u64)
            .expect("set count must fit in 32 bits") as usize;
        policy.attach(sets, ways);
        SetPartitioned {
            sets,
            ways,
            tags: vec![INVALID_TAG; sets * ways],
            ranges: vec![(0, None); partitions],
            policy,
            hasher: H3Hasher::new(32, seed),
            stats: vec![CacheStats::new(); partitions],
        }
    }

    /// One access against an already-resolved set range; shared by the
    /// per-access and block paths (stats are recorded by the caller).
    /// The probe itself is [`crate::array::probe_set`], the same
    /// single-pass body `SetAssocCache` runs.
    #[inline]
    fn access_inner(
        &mut self,
        base_set: usize,
        index: Option<FastMod32>,
        line: LineAddr,
        ctx: &AccessCtx,
    ) -> AccessResult {
        let ctx = &ctx.with_line(line); // signature-based policies need the address
        let Some(index) = index else {
            return AccessResult::Miss; // bypass partition
        };
        // The hasher has 32 output bits, so the cast keeps all of them.
        let set = base_set + index.rem(self.hasher.hash_line(line) as u32) as usize;
        crate::array::probe_set(
            &mut self.tags,
            &mut self.policy,
            set,
            self.ways,
            line.value(),
            ctx,
        )
    }

    /// The set range `[base, base+count)` currently owned by a partition.
    pub fn set_range(&self, part: PartitionId) -> (usize, usize) {
        let (base, index) = self.ranges[part.index()];
        (base, index.map_or(0, |i| i.divisor() as usize))
    }
}

impl<P: ReplacementPolicy> PartitionedCacheModel for SetPartitioned<P> {
    fn num_partitions(&self) -> usize {
        self.stats.len()
    }

    fn set_partition_sizes(&mut self, lines: &[u64]) -> Vec<u64> {
        assert_eq!(
            lines.len(),
            self.num_partitions(),
            "one request per partition"
        );
        let sets_per = apportion(lines, self.ways as u64, self.sets as u64);
        let mut base = 0usize;
        for (p, &quota) in sets_per.iter().enumerate() {
            // Quotas sum to at most `sets`, which fits in 32 bits.
            let index = (quota > 0).then(|| FastMod32::new(quota as u32));
            self.ranges[p] = (base, index);
            base += quota as usize;
        }
        sets_per.iter().map(|&s| s * self.ways as u64).collect()
    }

    fn access(&mut self, part: PartitionId, line: LineAddr, ctx: &AccessCtx) -> AccessResult {
        let p = part.index();
        assert!(p < self.num_partitions(), "unknown {part}");
        let (base_set, index) = self.ranges[p];
        let result = self.access_inner(base_set, index, line, ctx);
        self.stats[p].record(result);
        result
    }

    fn access_block(&mut self, part: PartitionId, lines: &[LineAddr], ctx: &AccessCtx) {
        let p = part.index();
        assert!(p < self.num_partitions(), "unknown {part}");
        // The set range is fixed for the whole block: resolve it once.
        let (base_set, index) = self.ranges[p];
        let mut hits = 0u64;
        for &line in lines {
            if self.access_inner(base_set, index, line, ctx) == AccessResult::Hit {
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
        "set"
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
    fn sizes_round_to_whole_sets() {
        let mut c = SetPartitioned::new(512, 8, 2, Lru::new(), 1);
        // 64 sets of 8 lines. Request 100 and 412 lines.
        let granted = c.set_partition_sizes(&[100, 412]);
        assert!(granted.iter().all(|g| g % 8 == 0));
        assert!(granted.iter().sum::<u64>() <= 512);
    }

    #[test]
    fn ranges_are_disjoint_and_ordered() {
        let mut c = SetPartitioned::new(512, 8, 3, Lru::new(), 1);
        c.set_partition_sizes(&[128, 128, 256]);
        let r0 = c.set_range(PartitionId(0));
        let r1 = c.set_range(PartitionId(1));
        let r2 = c.set_range(PartitionId(2));
        assert_eq!(r0.0 + r0.1, r1.0);
        assert_eq!(r1.0 + r1.1, r2.0);
        assert_eq!(r2.0 + r2.1, 64);
    }

    #[test]
    fn partitions_are_isolated() {
        let mut c = SetPartitioned::new(128, 8, 2, Lru::new(), 1);
        c.set_partition_sizes(&[64, 64]);
        c.access(PartitionId(0), LineAddr(7), &ctx());
        for i in 0..500u64 {
            c.access(PartitionId(1), LineAddr(1000 + i), &ctx());
        }
        assert!(c.access(PartitionId(0), LineAddr(7), &ctx()).is_hit());
    }

    #[test]
    fn zero_set_partition_bypasses() {
        let mut c = SetPartitioned::new(128, 8, 2, Lru::new(), 1);
        c.set_partition_sizes(&[0, 1024]);
        assert!(c.access(PartitionId(0), LineAddr(1), &ctx()).is_miss());
        assert!(c.access(PartitionId(0), LineAddr(1), &ctx()).is_miss());
    }

    #[test]
    fn small_partition_behaves_like_small_cache() {
        // Give partition 0 one set (8 lines): a 9-line cyclic scan thrashes.
        let mut c = SetPartitioned::new(128, 8, 2, Lru::new(), 1);
        c.set_partition_sizes(&[8, 120]);
        let mut misses = 0;
        for _ in 0..5 {
            for i in 0..9u64 {
                if c.access(PartitionId(0), LineAddr(i), &ctx()).is_miss() {
                    misses += 1;
                }
            }
        }
        assert_eq!(misses, 45, "LRU thrashes a one-set partition");
    }
}
