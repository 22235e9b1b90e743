//! Futility Scaling: fine-grained partitioning with no unmanaged region.
//!
//! Futility Scaling (Wang & Chen, MICRO-47 2014) is the alternative
//! fine-grained scheme the paper points to in §VI-B: *"Using Talus with
//! Futility Scaling would avoid this complication"* — the complication
//! being Vantage's unmanaged region, which forces Talus+V to plan over
//! only 90% of each allocation and leaves it slightly above the hull in
//! Fig. 8.
//!
//! The scheme assigns every line a **futility** — a replacement-priority
//! rank under the partition's policy (LRU age here) — and *scales* each
//! partition's futilities by a per-partition factor λ. Victims are the
//! candidates with the highest scaled futility, and a feedback controller
//! steers each λ so occupancy tracks the partition's target:
//! over-occupying partitions get larger λ (their lines look more futile
//! and are evicted first), under-occupying ones get smaller λ. Unlike
//! Vantage, enforcement covers **the whole cache** — there is no
//! unmanaged region, so Talus can plan over the full allocation
//! (`planning_scale = 1.0`).
//!
//! Like [`VantageLike`](super::VantageLike), the array is
//! skew-associative (each way indexes through its own H3 hash), giving
//! the high effective associativity both schemes need for Assumption 2.

use super::{PartitionedCacheModel, SkewedIndex, MAX_SKEWED_WAYS};
use crate::addr::{LineAddr, PartitionId};
use crate::policy::AccessCtx;
use crate::stats::{AccessResult, CacheStats};

const INVALID_TAG: u64 = u64::MAX;
const NO_OWNER: u32 = u32::MAX;

/// Accesses between λ-controller updates.
const ADJUST_PERIOD: u64 = 64;
/// λ clamp range: wide enough to starve or protect a partition entirely,
/// tight enough that recovery from saturation is quick.
const LAMBDA_MIN: f64 = 1e-4;
const LAMBDA_MAX: f64 = 1e4;

/// A Futility Scaling partitioned cache (skew-associative, LRU futility).
///
/// # Examples
///
/// ```
/// use talus_sim::part::{FutilityScaled, PartitionedCacheModel};
/// use talus_sim::{AccessCtx, LineAddr, PartitionId};
/// let mut cache = FutilityScaled::new(4096, 16, 2, 11);
/// // Line-granularity grants over 100% of capacity (no unmanaged region).
/// let granted = cache.set_partition_sizes(&[1000, 3096]);
/// assert_eq!(granted, vec![1000, 3096]);
/// cache.access(PartitionId(0), LineAddr(5), &AccessCtx::new());
/// ```
#[derive(Debug, Clone)]
pub struct FutilityScaled {
    index: SkewedIndex,
    tags: Vec<u64>,
    owner: Vec<u32>,
    stamp: Vec<u64>,
    clock: u64,
    targets: Vec<u64>,
    occupancy: Vec<u64>,
    lambda: Vec<f64>,
    stats: Vec<CacheStats>,
}

impl FutilityScaled {
    /// Builds a Futility Scaling cache.
    ///
    /// `ways` is the number of replacement candidates per access (the
    /// skewed-array analogue of associativity).
    ///
    /// # Panics
    ///
    /// Panics if the capacity is not a positive multiple of `ways`,
    /// `ways` is above 64 (the candidate buffer holds that many), there
    /// are more than `u32::MAX` rows, or `partitions` is zero.
    pub fn new(capacity_lines: u64, ways: usize, partitions: usize, seed: u64) -> Self {
        assert!(partitions > 0, "partition count must be positive");
        let index = SkewedIndex::new(capacity_lines, ways, seed, 0x5CA1_AB1E);
        let slots = index.slots();
        FutilityScaled {
            index,
            tags: vec![INVALID_TAG; slots],
            owner: vec![NO_OWNER; slots],
            stamp: vec![0; slots],
            clock: 0,
            targets: vec![0; partitions],
            occupancy: vec![0; partitions],
            lambda: vec![1.0; partitions],
            stats: vec![CacheStats::new(); partitions],
        }
    }

    /// Current resident lines of a partition.
    pub fn occupancy(&self, part: PartitionId) -> u64 {
        self.occupancy[part.index()]
    }

    /// The partition's current futility scaling factor λ.
    pub fn scaling_factor(&self, part: PartitionId) -> f64 {
        self.lambda[part.index()]
    }

    /// Victim selection: the candidate with the highest scaled futility
    /// `λ_owner × age`.
    fn pick_victim(&self, cands: &[usize]) -> usize {
        let mut best_slot = cands[0];
        let mut best_futility = f64::NEG_INFINITY;
        for &s in cands {
            let oi = self.owner[s] as usize;
            // Age 0 lines still need non-zero futility so λ can order them.
            let age = (self.clock - self.stamp[s]) as f64 + 1.0;
            let futility = self.lambda[oi] * age;
            if futility > best_futility {
                best_futility = futility;
                best_slot = s;
            }
        }
        best_slot
    }

    /// Multiplicative feedback on λ: push each partition's factor towards
    /// the value that holds occupancy at target.
    fn adjust_lambdas(&mut self) {
        for p in 0..self.lambda.len() {
            if self.targets[p] == 0 {
                // Zero-target partitions never insert; λ is irrelevant but
                // pin it high so stale lines drain first after a resize.
                self.lambda[p] = LAMBDA_MAX;
                continue;
            }
            let err = self.occupancy[p] as f64 / self.targets[p] as f64;
            // Gain ½ on the multiplicative occupancy-error feedback, spelt
            // as the correctly rounded square root: `powf(0.5)` is only
            // that when the optimiser rewrites it, so λ — and everything
            // simulated downstream of it — would depend on `opt-level`.
            self.lambda[p] = (self.lambda[p] * err.sqrt()).clamp(LAMBDA_MIN, LAMBDA_MAX);
        }
    }

    /// One access with the partition index already validated; shared by
    /// the per-access and block paths (stats are recorded by the caller).
    /// The λ-controller cadence is clock-driven, so it ticks identically
    /// whether accesses arrive singly or in blocks.
    #[inline]
    fn access_inner(&mut self, p: usize, line: LineAddr, ctx: &AccessCtx) -> AccessResult {
        let _ = ctx;
        let tag = line.value();
        self.clock += 1;
        if self.clock.is_multiple_of(ADJUST_PERIOD) {
            self.adjust_lambdas();
        }
        let mut hit_slot = None;
        let mut empty_slot = None;
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
        } else if self.targets[p] == 0 {
            AccessResult::Miss // zero-size partitions bypass
        } else {
            let s = match empty_slot {
                Some(s) => s,
                None => {
                    let v = self.pick_victim(&cands[..hashes.len()]);
                    let old = self.owner[v];
                    debug_assert_ne!(old, NO_OWNER);
                    self.occupancy[old as usize] -= 1;
                    v
                }
            };
            self.tags[s] = tag;
            self.owner[s] = p as u32;
            self.stamp[s] = self.clock;
            self.occupancy[p] += 1;
            AccessResult::Miss
        }
    }
}

impl PartitionedCacheModel for FutilityScaled {
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
        let granted: Vec<u64> = if requested <= capacity {
            lines.to_vec()
        } else {
            lines
                .iter()
                .map(|&l| (l as u128 * capacity as u128 / requested as u128) as u64)
                .collect()
        };
        // No unmanaged region: the enforced target IS the grant.
        self.targets = granted.clone();
        // Resizes invalidate the controller's operating point; restart the
        // feedback from neutral so convergence is symmetric.
        for l in &mut self.lambda {
            *l = 1.0;
        }
        granted
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
        "futility"
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ctx() -> AccessCtx {
        AccessCtx::new()
    }

    /// A cheap deterministic line-address stream.
    fn lcg_stream(seed: u64) -> impl Iterator<Item = u64> {
        let mut state = seed | 1;
        std::iter::repeat_with(move || {
            state = state.wrapping_mul(6364136223846793005).wrapping_add(1);
            state >> 33
        })
    }

    #[test]
    fn grants_are_line_granular_and_unscaled() {
        let mut c = FutilityScaled::new(1024, 16, 2, 1);
        let granted = c.set_partition_sizes(&[123, 901]);
        assert_eq!(granted, vec![123, 901]);
    }

    #[test]
    fn no_unmanaged_region() {
        // Unlike VantageLike, the enforced targets equal the grants: a
        // full-capacity single partition is enforced at full capacity.
        let mut c = FutilityScaled::new(1000, 10, 1, 1);
        c.set_partition_sizes(&[1000]);
        for (i, l) in lcg_stream(3).take(50_000).enumerate() {
            let _ = i;
            c.access(PartitionId(0), LineAddr(l % 4000), &ctx());
        }
        assert_eq!(c.occupancy(PartitionId(0)), 1000);
    }

    #[test]
    #[should_panic(expected = "at most 64 ways")]
    fn rejects_more_ways_than_the_candidate_buffer_holds() {
        // See the `VantageLike` twin: the bound used to be a debug
        // assertion on the first access.
        FutilityScaled::new(65 * 4, 65, 1, 1);
    }

    #[test]
    #[should_panic(expected = "row count must fit in 32 bits")]
    fn rejects_row_counts_past_32_bits() {
        FutilityScaled::new((u64::from(u32::MAX) + 1) * 2, 2, 1, 1);
    }

    #[test]
    fn hits_after_insert() {
        let mut c = FutilityScaled::new(256, 16, 1, 1);
        c.set_partition_sizes(&[256]);
        assert!(c.access(PartitionId(0), LineAddr(7), &ctx()).is_miss());
        assert!(c.access(PartitionId(0), LineAddr(7), &ctx()).is_hit());
    }

    #[test]
    fn near_capacity_scan_fits() {
        // Assumption 2's knife edge: a cyclic scan slightly below the
        // partition size must mostly hit.
        let mut c = FutilityScaled::new(4096, 16, 1, 1);
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
    fn occupancy_converges_to_skewed_targets() {
        // The controller must hold a 1:7 split under equal traffic — the
        // scenario where an unmanaged region would blur the boundary.
        let mut c = FutilityScaled::new(4096, 16, 2, 1);
        c.set_partition_sizes(&[512, 3584]);
        for (i, l) in lcg_stream(7).take(300_000).enumerate() {
            let p = PartitionId((i & 1) as u32);
            c.access(p, LineAddr(l % 16384), &ctx());
        }
        let o0 = c.occupancy(PartitionId(0)) as f64;
        assert!(
            (o0 - 512.0).abs() < 512.0 * 0.25,
            "partition 0 holds {o0} lines (target 512)"
        );
    }

    #[test]
    fn tracks_targets_tighter_than_vantage_default() {
        // The §VI-B motivation: Futility Scaling enforces the full grant.
        // After convergence the total occupancy splits at the granted
        // ratio within a few percent of capacity.
        let mut c = FutilityScaled::new(8192, 16, 2, 5);
        c.set_partition_sizes(&[2048, 6144]);
        for (i, l) in lcg_stream(11).take(400_000).enumerate() {
            let p = PartitionId((i & 1) as u32);
            c.access(p, LineAddr(l % 32768), &ctx());
        }
        let o0 = c.occupancy(PartitionId(0)) as f64;
        let o1 = c.occupancy(PartitionId(1)) as f64;
        assert!(
            (o0 / (o0 + o1) - 0.25).abs() < 0.05,
            "split {}",
            o0 / (o0 + o1)
        );
    }

    #[test]
    fn zero_size_partition_bypasses() {
        let mut c = FutilityScaled::new(256, 16, 2, 1);
        c.set_partition_sizes(&[0, 256]);
        assert!(c.access(PartitionId(0), LineAddr(1), &ctx()).is_miss());
        assert!(c.access(PartitionId(0), LineAddr(1), &ctx()).is_miss());
        assert_eq!(c.occupancy(PartitionId(0)), 0);
    }

    #[test]
    fn oversubscription_scales_down() {
        let mut c = FutilityScaled::new(1000, 10, 2, 1);
        let granted = c.set_partition_sizes(&[2000, 2000]);
        assert!(granted.iter().sum::<u64>() <= 1000);
    }

    #[test]
    fn protected_partition_survives_thrashing_neighbour() {
        let mut c = FutilityScaled::new(2048, 16, 2, 1);
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
    fn resized_away_partition_drains() {
        let mut c = FutilityScaled::new(1024, 16, 2, 1);
        c.set_partition_sizes(&[1024, 0]);
        for i in 0..1024u64 {
            c.access(PartitionId(0), LineAddr(i), &ctx());
        }
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

    #[test]
    fn lambda_rises_for_over_occupier() {
        let mut c = FutilityScaled::new(1024, 16, 2, 1);
        c.set_partition_sizes(&[256, 768]);
        // Fill partition 0 well past its target by only accessing it.
        for i in 0..20_000u64 {
            c.access(PartitionId(0), LineAddr(i % 2048), &ctx());
        }
        assert!(
            c.scaling_factor(PartitionId(0)) > c.scaling_factor(PartitionId(1)),
            "over-occupier must have the larger λ: {} vs {}",
            c.scaling_factor(PartitionId(0)),
            c.scaling_factor(PartitionId(1))
        );
    }

    #[test]
    #[should_panic(expected = "multiple of ways")]
    fn rejects_ragged_geometry() {
        FutilityScaled::new(1000, 16, 1, 1);
    }
}
