//! What every partitioning scheme owes its callers, each check written
//! once: the schemes' test modules run them on their own caches, under
//! their own test names.

use super::PartitionedCacheModel;
use crate::addr::{LineAddr, PartitionId};
use crate::policy::AccessCtx;

fn ctx() -> AccessCtx {
    AccessCtx::new()
}

/// Takes a 2-partition cache of 1 024 lines.
pub fn grants_are_line_granular<C: PartitionedCacheModel>(c: &mut C) {
    let granted = c.set_partition_sizes(&[123, 901]);
    assert_eq!(granted, vec![123, 901], "{}", c.scheme_name());
}

/// Takes a 1-partition cache of 256 lines.
pub fn hits_after_insert<C: PartitionedCacheModel>(c: &mut C) {
    c.set_partition_sizes(&[256]);
    assert!(c.access(PartitionId(0), LineAddr(7), &ctx()).is_miss());
    assert!(c.access(PartitionId(0), LineAddr(7), &ctx()).is_hit());
}

/// The knife-edge case Talus relies on (Assumption 2): a cyclic scan
/// over 90% of the partition's size must mostly hit. Takes a 1-partition
/// cache of 4 096 lines whose whole grant is enforced.
pub fn near_capacity_scan_fits<C: PartitionedCacheModel>(c: &mut C) {
    c.set_partition_sizes(&[4096]);
    let lines = 3686; // 90% of capacity
    for _ in 0..5 {
        for i in 0..lines {
            c.access(PartitionId(0), LineAddr(i), &ctx());
        }
    }
    let hr = c.partition_stats(PartitionId(0)).hit_rate();
    assert!(hr > 0.75, "{} hit rate {hr}", c.scheme_name());
}

/// A partition granted nothing misses every access and caches nothing:
/// its line is not resident for its neighbour either. Takes a
/// 2-partition cache of 256 lines.
pub fn zero_size_partition_bypasses<C: PartitionedCacheModel>(c: &mut C) {
    let granted = c.set_partition_sizes(&[0, 256]);
    assert_eq!(granted[0], 0, "{}", c.scheme_name());
    for _ in 0..3 {
        assert!(c.access(PartitionId(0), LineAddr(1), &ctx()).is_miss());
    }
    assert_eq!(c.partition_stats(PartitionId(0)).misses(), 3);
    assert!(c.access(PartitionId(1), LineAddr(1), &ctx()).is_miss());
}

/// Takes any 2-partition cache.
pub fn oversubscription_scales_down<C: PartitionedCacheModel>(c: &mut C) {
    let capacity = c.capacity_lines();
    let granted = c.set_partition_sizes(&[2 * capacity, 2 * capacity]);
    assert!(
        granted.iter().sum::<u64>() <= capacity,
        "{}",
        c.scheme_name()
    );
}

/// Takes a 2-partition cache of 2 048 lines.
pub fn protected_partition_survives_thrashing_neighbour<C: PartitionedCacheModel>(c: &mut C) {
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
    assert!(
        hr > 0.8,
        "{} partition 0 re-touch hit rate {hr}",
        c.scheme_name()
    );
}

/// Each partition counts its own accesses, the total is their sum, and a
/// reset clears the counters but keeps the contents. Takes any
/// 2-partition cache of at least 64 lines.
pub fn per_partition_stats_are_separate<C: PartitionedCacheModel>(c: &mut C) {
    let half = c.capacity_lines() / 2;
    c.set_partition_sizes(&[half, half]);
    c.access(PartitionId(0), LineAddr(1), &ctx());
    c.access(PartitionId(1), LineAddr(2), &ctx());
    c.access(PartitionId(1), LineAddr(2), &ctx());
    assert_eq!(c.partition_stats(PartitionId(0)).accesses(), 1);
    assert_eq!(c.partition_stats(PartitionId(1)).accesses(), 2);
    assert_eq!(c.partition_stats(PartitionId(1)).hits(), 1);
    assert_eq!(c.total_stats().accesses(), 3);
    c.reset_stats();
    assert_eq!(c.total_stats().accesses(), 0);
    assert!(c.access(PartitionId(1), LineAddr(2), &ctx()).is_hit());
}

/// 65 ways used to pass construction of a skewed array and index past
/// its 64-slot candidate buffer on the first access (a release-build
/// panic mid-simulation; the bound was only a debug assertion). `build`
/// makes a 1-partition cache of `capacity` lines and `ways` ways.
pub fn rejects_more_ways_than_the_candidate_buffer_holds<C: PartitionedCacheModel>(
    build: impl FnOnce(u64, usize) -> C,
) {
    build(65 * 4, 65);
}

/// Fails before any array is allocated. `build` as above.
pub fn rejects_row_counts_past_32_bits<C: PartitionedCacheModel>(
    build: impl FnOnce(u64, usize) -> C,
) {
    build((u64::from(u32::MAX) + 1) * 2, 2);
}
