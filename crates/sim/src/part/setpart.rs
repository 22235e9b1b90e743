//! Set partitioning: each partition owns a contiguous range of sets.
//!
//! This is the scheme used by the paper's §III worked example (Fig. 2),
//! where a 4 MB cache is split by sets in a 1:2 ratio with accesses
//! distributed 1:2 between the ranges. Implementable in real systems via
//! page colouring or reconfigurable caches.

use super::setassoc::{Layout, Run, SetAssoc, Slot};
use crate::addr::PartitionId;
use crate::hasher::FastMod32;

/// A set-partitioned cache: allocations are whole set ranges.
///
/// Resizing remaps partitions' set ranges; resident lines of shrunken
/// partitions are left behind and naturally evicted by the new owners
/// (real page-colouring systems behave the same way, modulo flushes). A
/// partition with no sets bypasses with no lookup.
///
/// It implements [`PartitionedCacheModel`](super::PartitionedCacheModel);
/// `new(capacity_lines, ways, partitions, policy, seed)` builds it with
/// every partition at zero sets, and `set_range(part)` reads a
/// partition's sets.
pub type SetPartitioned<P> = SetAssoc<Sets, P>;

/// Set partitioning's layout: each partition owns a run of whole sets,
/// and an access indexes its run by `hash % len`.
#[derive(Debug, Clone)]
pub struct Sets;

impl<P> SetPartitioned<P> {
    /// The set range `[base, base+count)` currently owned by a partition.
    pub fn set_range(&self, part: PartitionId) -> (usize, usize) {
        let sets = &self.runs[part.index()].units;
        (sets.start, sets.len())
    }
}

impl Layout for Sets {
    const NAME: &'static str = "set";
    const OWNS_SETS: bool = true;

    #[inline]
    fn place(run: &Run, hash: u32, _sets: FastMod32, ways: usize) -> Option<Slot> {
        Some((run.units.start + run.index?.rem(hash) as usize, 0..ways))
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
        checks::zero_size_partition_bypasses(&mut SetPartitioned::new(256, 16, 2, Lru::new(), 1));
    }

    #[test]
    fn hits_after_insert() {
        checks::hits_after_insert(&mut SetPartitioned::new(256, 16, 1, Lru::new(), 1));
    }

    #[test]
    fn oversubscription_scales_down() {
        checks::oversubscription_scales_down(&mut SetPartitioned::new(1000, 10, 2, Lru::new(), 1));
    }

    #[test]
    fn protected_partition_survives_thrashing_neighbour() {
        checks::protected_partition_survives_thrashing_neighbour(&mut SetPartitioned::new(
            2048,
            16,
            2,
            Lru::new(),
            1,
        ));
    }

    #[test]
    fn per_partition_stats_are_separate() {
        checks::per_partition_stats_are_separate(&mut SetPartitioned::new(64, 8, 2, Lru::new(), 1));
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
