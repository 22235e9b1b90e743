//! Idealised partitioning: exact line-granularity, fully-associative
//! partitions — the "Talus+I" configuration of the paper's Fig. 8.
//!
//! Useful as a reference point: it satisfies Assumption 2 (miss rate is a
//! function of size alone) perfectly, so Talus on ideal partitioning
//! should trace the hull as closely as the workload's statistics allow.

use super::{exact_grants, PartitionedCacheModel};
use crate::addr::{LineAddr, PartitionId};
use crate::array::{CacheModel, FullyAssocLru};
use crate::policy::AccessCtx;
use crate::stats::{AccessResult, CacheStats};

/// A set of exact, fully-associative LRU partitions.
///
/// # Examples
///
/// ```
/// use talus_sim::part::{IdealPartitioned, PartitionedCacheModel};
/// use talus_sim::{AccessCtx, LineAddr, PartitionId};
/// let mut cache = IdealPartitioned::new(1000, 2);
/// let granted = cache.set_partition_sizes(&[300, 700]);
/// assert_eq!(granted, vec![300, 700]); // exact, no coarsening
/// cache.access(PartitionId(0), LineAddr(1), &AccessCtx::new());
/// ```
#[derive(Debug, Clone)]
pub struct IdealPartitioned {
    capacity: u64,
    parts: Vec<FullyAssocLru>,
}

impl IdealPartitioned {
    /// Creates `partitions` empty fully-associative LRU partitions sharing
    /// `capacity_lines`. All partitions start at size zero (bypass); call
    /// [`set_partition_sizes`](PartitionedCacheModel::set_partition_sizes).
    ///
    /// # Panics
    ///
    /// Panics if `partitions` is zero.
    pub fn new(capacity_lines: u64, partitions: usize) -> Self {
        assert!(partitions > 0, "partition count must be positive");
        IdealPartitioned {
            capacity: capacity_lines,
            parts: (0..partitions).map(|_| FullyAssocLru::new(0)).collect(),
        }
    }

    /// Current resident line count of one partition.
    pub fn occupancy(&self, part: PartitionId) -> usize {
        self.parts[part.index()].len()
    }
}

impl PartitionedCacheModel for IdealPartitioned {
    fn num_partitions(&self) -> usize {
        self.parts.len()
    }

    fn set_partition_sizes(&mut self, lines: &[u64]) -> Vec<u64> {
        assert_eq!(
            lines.len(),
            self.num_partitions(),
            "one request per partition"
        );
        let granted = exact_grants(lines, self.capacity);
        for (p, &g) in granted.iter().enumerate() {
            self.parts[p].set_capacity(g);
        }
        granted
    }

    fn access(&mut self, part: PartitionId, line: LineAddr, ctx: &AccessCtx) -> AccessResult {
        self.parts[part.index()].access(line, ctx)
    }

    fn access_block(&mut self, part: PartitionId, lines: &[LineAddr], ctx: &AccessCtx) {
        // Resolve the partition once for the whole block.
        self.parts[part.index()].access_block(lines, ctx);
    }

    fn partition_stats(&self, part: PartitionId) -> &CacheStats {
        self.parts[part.index()].stats()
    }

    fn reset_stats(&mut self) {
        for p in &mut self.parts {
            p.reset_stats();
        }
    }

    fn capacity_lines(&self) -> u64 {
        self.capacity
    }

    fn scheme_name(&self) -> &'static str {
        "ideal"
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::part::checks;

    fn ctx() -> AccessCtx {
        AccessCtx::new()
    }

    #[test]
    fn grants_are_exact() {
        let mut c = IdealPartitioned::new(100, 3);
        let granted = c.set_partition_sizes(&[13, 37, 50]);
        assert_eq!(granted, vec![13, 37, 50]);
    }

    #[test]
    fn oversubscription_scales_down() {
        let mut c = IdealPartitioned::new(100, 2);
        checks::oversubscription_scales_down(&mut c);
        let granted = c.set_partition_sizes(&[150, 150]);
        assert_eq!(granted[0], granted[1]);
    }

    #[test]
    fn partitions_are_isolated() {
        let mut c = IdealPartitioned::new(20, 2);
        c.set_partition_sizes(&[10, 10]);
        c.access(PartitionId(0), LineAddr(1), &ctx());
        // Same line in partition 1 is a separate residency.
        assert!(c.access(PartitionId(1), LineAddr(1), &ctx()).is_miss());
        assert!(c.access(PartitionId(0), LineAddr(1), &ctx()).is_hit());
    }

    #[test]
    fn zero_size_partition_bypasses() {
        let mut c = IdealPartitioned::new(256, 2);
        checks::zero_size_partition_bypasses(&mut c);
        assert_eq!(c.occupancy(PartitionId(0)), 0);
    }

    #[test]
    fn hits_after_insert() {
        checks::hits_after_insert(&mut IdealPartitioned::new(256, 1));
    }

    #[test]
    fn protected_partition_survives_thrashing_neighbour() {
        checks::protected_partition_survives_thrashing_neighbour(&mut IdealPartitioned::new(
            2048, 2,
        ));
    }

    #[test]
    fn per_partition_stats_are_separate() {
        checks::per_partition_stats_are_separate(&mut IdealPartitioned::new(64, 2));
    }

    #[test]
    fn shrinking_partition_evicts() {
        let mut c = IdealPartitioned::new(20, 2);
        c.set_partition_sizes(&[10, 10]);
        for i in 0..10u64 {
            c.access(PartitionId(0), LineAddr(i), &ctx());
        }
        assert_eq!(c.occupancy(PartitionId(0)), 10);
        c.set_partition_sizes(&[4, 16]);
        assert_eq!(c.occupancy(PartitionId(0)), 4);
    }

    #[test]
    fn exact_capacity_behaviour() {
        // A 5-line partition holds exactly a 5-line working set.
        let mut c = IdealPartitioned::new(10, 2);
        c.set_partition_sizes(&[5, 5]);
        for round in 0..3 {
            for i in 0..5u64 {
                let r = c.access(PartitionId(0), LineAddr(i), &ctx());
                if round > 0 {
                    assert!(r.is_hit());
                }
            }
        }
        // A 6-line cyclic working set in a 5-line LRU partition: 0 hits.
        let mut c = IdealPartitioned::new(10, 2);
        c.set_partition_sizes(&[5, 5]);
        for _ in 0..4 {
            for i in 0..6u64 {
                assert!(c.access(PartitionId(1), LineAddr(i), &ctx()).is_miss());
            }
        }
    }
}
