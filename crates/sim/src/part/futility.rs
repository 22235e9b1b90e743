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
//! unmanaged region, so the scheme reports a managed fraction of 1.0
//! ([`PartitionedCacheModel::managed_fraction`](super::PartitionedCacheModel::managed_fraction)'s
//! default) and software plans Talus over the full allocation, which the
//! cache then applies as planned.
//!
//! It runs on the skew-associative engine it shares with
//! [`VantageLike`](super::VantageLike) (each way indexes through its own
//! H3 hash), giving the high effective associativity both schemes need for
//! Assumption 2; what is Futility Scaling's own is the rule: targets are
//! the grants, and the victim is the candidate with the highest scaled
//! futility.

use super::skewed::{Enforcement, Skewed};
use crate::addr::PartitionId;

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
///
/// It implements [`PartitionedCacheModel`](super::PartitionedCacheModel),
/// and `occupancy(part)` reads a partition's resident lines.
pub type FutilityScaled = Skewed<Futility>;

/// Futility Scaling's rule: the targets are the grants, a λ controller
/// scales each partition's futility, and the victim is the candidate with
/// the highest scaled futility.
#[derive(Debug, Clone)]
pub struct Futility {
    lambda: Vec<f64>,
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
        let rule = Futility {
            lambda: vec![1.0; partitions],
        };
        Skewed::build(capacity_lines, ways, partitions, seed, rule)
    }

    /// The partition's current futility scaling factor λ.
    pub fn scaling_factor(&self, part: PartitionId) -> f64 {
        self.rule.lambda[part.index()]
    }
}

impl Enforcement for Futility {
    const NAME: &'static str = "futility";
    const SEED_STRIDE: u64 = 0x5CA1_AB1E;

    fn retarget(&mut self, _granted: &[u64], _occupancy: &[u64]) {
        // No unmanaged region: the enforced target IS the grant. Resizes
        // invalidate the controller's operating point; restart the
        // feedback from neutral so convergence is symmetric.
        for l in &mut self.lambda {
            *l = 1.0;
        }
    }

    /// Multiplicative feedback on λ every `ADJUST_PERIOD` accesses: push
    /// each partition's factor towards the value that holds occupancy at
    /// target.
    #[inline]
    fn tick(&mut self, clock: u64, granted: &[u64], occupancy: &[u64]) {
        if !clock.is_multiple_of(ADJUST_PERIOD) {
            return;
        }
        for (p, lambda) in self.lambda.iter_mut().enumerate() {
            if granted[p] == 0 {
                // Zero-target partitions never insert; λ is irrelevant but
                // pin it high so stale lines drain first after a resize.
                *lambda = LAMBDA_MAX;
                continue;
            }
            let err = occupancy[p] as f64 / granted[p] as f64;
            // Gain ½ on the multiplicative occupancy-error feedback, spelt
            // as the correctly rounded square root: `powf(0.5)` is only
            // that when the optimiser rewrites it, so λ — and everything
            // simulated downstream of it — would depend on `opt-level`.
            *lambda = (*lambda * err.sqrt()).clamp(LAMBDA_MIN, LAMBDA_MAX);
        }
    }

    /// The candidate with the highest scaled futility `λ_owner × age`.
    #[inline]
    fn victim(&self, cands: &[usize], owner: &[u32], stamp: &[u64], clock: u64) -> usize {
        let mut best_slot = cands[0];
        let mut best_futility = f64::NEG_INFINITY;
        for &s in cands {
            // Age 0 lines still need non-zero futility so λ can order them.
            let age = (clock - stamp[s]) as f64 + 1.0;
            let futility = self.lambda[owner[s] as usize] * age;
            if futility > best_futility {
                best_futility = futility;
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

    /// A cheap deterministic line-address stream.
    fn lcg_stream(seed: u64) -> impl Iterator<Item = u64> {
        let mut state = seed | 1;
        std::iter::repeat_with(move || {
            state = state.wrapping_mul(6364136223846793005).wrapping_add(1);
            state >> 33
        })
    }

    // The engine's checks, on Futility Scaling.

    #[test]
    fn grants_are_line_granular_and_unscaled() {
        // No unmanaged region scales the grants down.
        checks::grants_are_line_granular(&mut FutilityScaled::new(1024, 16, 2, 1));
    }

    #[test]
    fn hits_after_insert() {
        checks::hits_after_insert(&mut FutilityScaled::new(256, 16, 1, 1));
    }

    #[test]
    fn near_capacity_scan_fits() {
        checks::near_capacity_scan_fits(&mut FutilityScaled::new(4096, 16, 1, 1));
    }

    #[test]
    fn zero_size_partition_bypasses() {
        let mut c = FutilityScaled::new(256, 16, 2, 1);
        checks::zero_size_partition_bypasses(&mut c);
        assert_eq!(c.occupancy(PartitionId(0)), 0);
    }

    #[test]
    fn oversubscription_scales_down() {
        checks::oversubscription_scales_down(&mut FutilityScaled::new(1000, 10, 2, 1));
    }

    #[test]
    fn protected_partition_survives_thrashing_neighbour() {
        checks::protected_partition_survives_thrashing_neighbour(&mut FutilityScaled::new(
            2048, 16, 2, 1,
        ));
    }

    #[test]
    fn per_partition_stats_are_separate() {
        checks::per_partition_stats_are_separate(&mut FutilityScaled::new(256, 16, 2, 1));
    }

    #[test]
    #[should_panic(expected = "at most 64 ways")]
    fn rejects_more_ways_than_the_candidate_buffer_holds() {
        checks::rejects_more_ways_than_the_candidate_buffer_holds(|lines, ways| {
            FutilityScaled::new(lines, ways, 1, 1)
        });
    }

    #[test]
    #[should_panic(expected = "row count must fit in 32 bits")]
    fn rejects_row_counts_past_32_bits() {
        checks::rejects_row_counts_past_32_bits(|lines, ways| {
            FutilityScaled::new(lines, ways, 1, 1)
        });
    }

    // Futility Scaling's rule.

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
