//! Way partitioning: each partition owns a subset of the ways in every set.
//!
//! The classic scheme (Albonesi; Chiou et al.): simple, but allocations are
//! quantised to whole ways and associativity degrades as partitions shrink
//! — precisely the Assumption-2 violation the paper calls out in §VI-B and
//! corrects by recomputing ρ from the coarsened sizes.

use super::setassoc::{Layout, Run, SetAssoc, Slot};
use crate::addr::PartitionId;
use crate::hasher::FastMod32;

/// A way-partitioned set-associative cache.
///
/// Lookups search every way (partitioning constrains *insertion*, not
/// residency), so a line cached while owned by one partition still hits
/// when the ways are later reassigned; the new owner's insertions evict it
/// naturally. A partition with no ways looks up, then bypasses.
///
/// It implements [`PartitionedCacheModel`](super::PartitionedCacheModel);
/// `new(capacity_lines, ways, partitions, policy, seed)` builds it with
/// every way unassigned, and `ways_of(part)` reads a partition's ways.
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
pub type WayPartitioned<P> = SetAssoc<Ways, P>;

/// Way partitioning's layout: each partition owns a run of ways, the same
/// in every set; ways past the last run are unassigned.
#[derive(Debug, Clone)]
pub struct Ways;

impl<P> WayPartitioned<P> {
    /// Number of ways currently owned by a partition.
    pub fn ways_of(&self, part: PartitionId) -> usize {
        self.runs[part.index()].units.len()
    }
}

impl Layout for Ways {
    const NAME: &'static str = "way";
    const OWNS_SETS: bool = false;

    #[inline]
    fn place(run: &Run, hash: u32, sets: FastMod32, _ways: usize) -> Option<Slot> {
        Some((sets.rem(hash) as usize, run.units.clone()))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::addr::LineAddr;
    use crate::part::{checks, PartitionedCacheModel};
    use crate::policy::{AccessCtx, Lru};

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
        // A zero-way partition still looks up the whole row, then bypasses.
        checks::zero_size_partition_bypasses(&mut WayPartitioned::new(256, 16, 2, Lru::new(), 1));
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
        checks::per_partition_stats_are_separate(&mut WayPartitioned::new(64, 8, 2, Lru::new(), 1));
    }

    #[test]
    fn hits_after_insert() {
        checks::hits_after_insert(&mut WayPartitioned::new(256, 16, 1, Lru::new(), 1));
    }

    #[test]
    fn oversubscription_scales_down() {
        checks::oversubscription_scales_down(&mut WayPartitioned::new(1000, 10, 2, Lru::new(), 1));
    }

    #[test]
    fn protected_partition_survives_thrashing_neighbour() {
        checks::protected_partition_survives_thrashing_neighbour(&mut WayPartitioned::new(
            2048,
            16,
            2,
            Lru::new(),
            1,
        ));
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
