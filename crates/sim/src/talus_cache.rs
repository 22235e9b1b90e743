//! Talus on hardware: shadow partitions over any partitioning scheme.
//!
//! [`TalusCache`] implements the paper's Fig. 7 datapath. Each *logical*
//! (software-visible) partition is backed by two hidden *shadow*
//! partitions (α and β) plus an 8-bit hash + limit-register sampler that
//! steers a ρ fraction of accesses to α. Software plans (§VI-A: the
//! convex hulls, the allocation and each partition's α/β/ρ come from
//! `talus_core::plan` or `talus_partition::Planner`); the cache applies:
//! [`TalusCache::apply`] sizes the shadow partitions, takes the scheme's
//! grant, corrects ρ for its coarsening and re-applies the safety margin
//! (§VI-B), and sets the samplers. The share of an allocation a plan may
//! count on is the scheme's own,
//! [`PartitionedCacheModel::managed_fraction`]: the planner plans at it
//! and `apply` converts between planned and hardware sizes through it.
//!
//! [`TalusSingleCache`] packages the single-application configuration used
//! by the paper's Figs. 1 and 8–10: one logical partition spanning the
//! whole LLC, re-planned from an attached monitor at a fixed interval.

use crate::addr::{LineAddr, PartitionId};
use crate::hasher::ShadowSampler;
use crate::monitor::Monitor;
use crate::part::PartitionedCacheModel;
use crate::policy::AccessCtx;
use crate::stats::{AccessResult, CacheStats};
use talus_core::{TalusOptions, TalusPlan};

/// Configuration for a [`TalusCache`].
#[derive(Debug, Clone, Copy)]
pub struct TalusCacheConfig {
    /// Planner options (safety margin etc.).
    pub options: TalusOptions,
    /// Seed for the per-partition sampling hashes.
    pub seed: u64,
}

impl TalusCacheConfig {
    /// Default configuration: 5% safety margin.
    pub fn new() -> Self {
        TalusCacheConfig {
            options: TalusOptions::new(),
            seed: 0xD1CE,
        }
    }

    /// The same as [`new`](TalusCacheConfig::new): a Vantage-like cache
    /// reports its managed fraction itself.
    pub fn for_vantage() -> Self {
        Self::new()
    }

    /// Replaces the planner options.
    pub fn with_options(mut self, options: TalusOptions) -> Self {
        self.options = options;
        self
    }

    /// Replaces the sampler seed.
    pub fn with_seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }
}

impl Default for TalusCacheConfig {
    fn default() -> Self {
        Self::new()
    }
}

/// Talus wrapped around a partitioned cache.
///
/// The wrapped cache must expose exactly two hardware partitions per
/// logical partition: logical `p` uses hardware partitions `2p` (α) and
/// `2p+1` (β).
#[derive(Debug)]
pub struct TalusCache<C> {
    cache: C,
    samplers: Vec<ShadowSampler>,
    plans: Vec<Option<TalusPlan>>,
    config: TalusCacheConfig,
}

impl<C: PartitionedCacheModel> TalusCache<C> {
    /// Wraps `cache`, which must have `2 × logical_partitions` hardware
    /// partitions.
    ///
    /// # Panics
    ///
    /// Panics if the partition counts do not line up.
    pub fn new(cache: C, logical_partitions: usize, config: TalusCacheConfig) -> Self {
        assert_eq!(
            cache.num_partitions(),
            2 * logical_partitions,
            "need two shadow partitions per logical partition"
        );
        let samplers = (0..logical_partitions)
            .map(|i| {
                let mut s = ShadowSampler::new(config.seed.wrapping_add(i as u64 * 0x9E37));
                s.set_rate(1.0); // everything to α until the first plan
                s
            })
            .collect();
        TalusCache {
            cache,
            samplers,
            plans: vec![None; logical_partitions],
            config,
        }
    }

    /// Number of logical partitions.
    pub fn logical_partitions(&self) -> usize {
        self.samplers.len()
    }

    /// The wrapped hardware cache.
    pub fn inner(&self) -> &C {
        &self.cache
    }

    /// The plan currently in force for a logical partition (if any).
    pub fn plan(&self, logical: PartitionId) -> Option<&TalusPlan> {
        self.plans[logical.index()].as_ref()
    }

    /// The sampling rate currently steering a logical partition.
    pub fn sampling_rate(&self, logical: PartitionId) -> f64 {
        self.samplers[logical.index()].rate()
    }

    /// Puts plans in force: logical partition `p` gets `targets[p]` lines
    /// of hardware, configured by `plans[p]`, which software planned at
    /// the scheme's managed share of that target
    /// (`floor(targets[p] × managed_fraction)`; see
    /// `talus_partition::Planner::plan_managed_in`). A
    /// [`TalusPlan::Unpartitioned`] plan — the start before any curve is
    /// observed — runs the partition as one α partition of its whole
    /// target.
    ///
    /// This is the paper's hardware step: shadow-partition requests in
    /// hardware units, the scheme's grant, the §VI-B coarsening correction
    /// (`ρ = s1/α`, then the safety margin again), and the sampler rates.
    ///
    /// # Panics
    ///
    /// Panics if `targets` or `plans` length differs from the number of
    /// logical partitions.
    pub fn apply(&mut self, targets: &[u64], plans: &[TalusPlan]) {
        assert_eq!(
            targets.len(),
            self.logical_partitions(),
            "one target per partition"
        );
        assert_eq!(
            plans.len(),
            self.logical_partitions(),
            "one plan per partition"
        );
        let scale = self.cache.managed_fraction();
        let mut requests = vec![0u64; 2 * targets.len()];
        for (p, (&target, plan)) in targets.iter().zip(plans).enumerate() {
            if let TalusPlan::Shadow(cfg) = plan {
                // Requests are in hardware units; the managed fraction
                // cancels out.
                requests[2 * p] = ((cfg.s1 / scale).round() as u64).min(target);
                requests[2 * p + 1] = target - requests[2 * p];
            } else {
                requests[2 * p] = target;
            }
        }
        let granted = self.cache.set_partition_sizes(&requests);
        let margin = self.config.options.safety_margin;
        for (p, plan) in plans.iter().enumerate() {
            let rate = match plan {
                TalusPlan::Unpartitioned { .. } => 1.0,
                TalusPlan::Shadow(cfg) => {
                    let g1 = granted[2 * p] as f64 * scale;
                    let g2 = granted[2 * p + 1] as f64 * scale;
                    if g2 <= 0.0 {
                        1.0
                    } else if cfg.alpha > 0.0 {
                        if g1 <= 0.0 {
                            // α rounded away entirely: everything to β.
                            0.0
                        } else {
                            // §VI-B coarsening: anchor α, ρ = s1/α, then
                            // re-apply the safety margin.
                            let coarse = cfg.coarsened(g1, g2);
                            talus_core::apply_margin(coarse.rho.min(1.0), margin)
                        }
                    } else {
                        // α = 0 (bypass partition): anchor β instead, so
                        // the cached fraction emulates exactly β:
                        // (1 − ρ) = g2/β. The margin raises ρ, shrinking
                        // the cached stream below β's knee.
                        let rho = (1.0 - g2 / cfg.beta).max(0.0);
                        talus_core::apply_margin(rho, margin)
                    }
                }
            };
            self.samplers[p].set_rate(rate.clamp(0.0, 1.0));
            self.plans[p] = Some(*plan);
        }
    }

    /// Performs one access on behalf of logical partition `logical`.
    pub fn access(
        &mut self,
        logical: PartitionId,
        line: LineAddr,
        ctx: &AccessCtx,
    ) -> AccessResult {
        let p = logical.index();
        let shadow = if self.samplers[p].goes_to_alpha(line) {
            2 * p
        } else {
            2 * p + 1
        };
        self.cache.access(PartitionId(shadow as u32), line, ctx)
    }

    /// Combined statistics of a logical partition (both shadows).
    pub fn logical_stats(&self, logical: PartitionId) -> CacheStats {
        let p = logical.index();
        let mut s = *self.cache.partition_stats(PartitionId(2 * p as u32));
        s.merge(self.cache.partition_stats(PartitionId(2 * p as u32 + 1)));
        s
    }

    /// Clears all statistics.
    pub fn reset_stats(&mut self) {
        self.cache.reset_stats();
    }

    /// Capacity of the wrapped cache in lines.
    pub fn capacity_lines(&self) -> u64 {
        self.cache.capacity_lines()
    }
}

/// Single-application Talus: one logical partition spanning the LLC, driven
/// by an attached monitor and re-planned every `interval` accesses.
///
/// This is the configuration behind the paper's single-program results
/// (Figs. 1, 8, 9, 10): software reads the monitor, convexifies, and
/// re-plans periodically (the paper reconfigures every 10 ms; trace-driven
/// simulation uses an access count).
#[derive(Debug)]
pub struct TalusSingleCache<C, M> {
    talus: TalusCache<C>,
    monitor: M,
    interval: u64,
    since_reconfigure: u64,
    reconfigurations: u64,
}

impl<C: PartitionedCacheModel, M: Monitor> TalusSingleCache<C, M> {
    /// Wraps a two-partition cache and a monitor; reconfigures every
    /// `interval` accesses.
    ///
    /// # Panics
    ///
    /// Panics if the cache does not have exactly two partitions or
    /// `interval` is zero.
    pub fn new(cache: C, monitor: M, interval: u64, config: TalusCacheConfig) -> Self {
        assert!(interval > 0, "reconfiguration interval must be positive");
        TalusSingleCache {
            talus: TalusCache::new(cache, 1, config),
            monitor,
            interval,
            since_reconfigure: 0,
            reconfigurations: 0,
        }
    }

    /// Performs one access: feeds the monitor, accesses the cache, and
    /// reconfigures at interval boundaries.
    pub fn access(&mut self, line: LineAddr, ctx: &AccessCtx) -> AccessResult {
        self.monitor.record(line);
        let r = self.talus.access(PartitionId(0), line, ctx);
        self.since_reconfigure += 1;
        if self.since_reconfigure >= self.interval {
            self.reconfigure_now();
        }
        r
    }

    /// Performs a block of accesses: the monitor ingests whole chunks via
    /// [`Monitor::record_block`], chunks are split at reconfiguration
    /// boundaries, and the cache is then accessed line by line.
    ///
    /// Equivalent to calling [`access`](TalusSingleCache::access) per line:
    /// the monitor and the cache only interact at interval boundaries, and
    /// chunks never straddle one.
    pub fn access_block(&mut self, lines: &[LineAddr], ctx: &AccessCtx) {
        let mut rest = lines;
        while !rest.is_empty() {
            let take = ((self.interval - self.since_reconfigure) as usize).min(rest.len());
            let (chunk, tail) = rest.split_at(take);
            self.monitor.record_block(chunk);
            for &line in chunk {
                self.talus.access(PartitionId(0), line, ctx);
            }
            self.since_reconfigure += take as u64;
            if self.since_reconfigure >= self.interval {
                self.reconfigure_now();
            }
            rest = tail;
        }
    }

    /// Interval boundary: plan the whole cache from the monitor's curve at
    /// the scheme's managed size, apply, and reset the monitor.
    fn reconfigure_now(&mut self) {
        self.since_reconfigure = 0;
        let capacity = self.talus.capacity_lines();
        let managed = (capacity as f64 * self.talus.cache.managed_fraction()).floor();
        // Planning failures (e.g. an empty monitor) leave the previous
        // configuration in force — matching hardware, where a bad
        // reconfiguration simply isn't written.
        let options = self.talus.config.options;
        if let Ok(plan) = talus_core::plan(&self.monitor.curve(), managed, options) {
            self.talus.apply(&[capacity], &[plan]);
            self.reconfigurations += 1;
        }
        self.monitor.reset();
    }

    /// Statistics for the (single) logical partition.
    pub fn stats(&self) -> CacheStats {
        self.talus.logical_stats(PartitionId(0))
    }

    /// Clears access statistics (monitor and plans are kept warm).
    pub fn reset_stats(&mut self) {
        self.talus.reset_stats();
    }

    /// Number of successful reconfigurations so far.
    pub fn reconfigurations(&self) -> u64 {
        self.reconfigurations
    }

    /// The Talus layer, for plan introspection.
    pub fn talus(&self) -> &TalusCache<C> {
        &self.talus
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::monitor::{MattsonMonitor, SampledMattson};
    use crate::part::IdealPartitioned;
    use crate::policy::AccessCtx;
    use talus_core::{plan, MissCurve, PlanError};

    fn ctx() -> AccessCtx {
        AccessCtx::new()
    }

    /// Software's half, as `TalusSingleCache` does it: plan each partition
    /// at the scheme's managed share of its target, then apply.
    fn plan_and_apply<C: PartitionedCacheModel>(
        t: &mut TalusCache<C>,
        targets: &[u64],
        curves: &[MissCurve],
    ) -> Result<Vec<TalusPlan>, PlanError> {
        let fraction = t.inner().managed_fraction();
        let plans = targets
            .iter()
            .zip(curves)
            .map(|(&target, c)| plan(c, (target as f64 * fraction).floor(), t.config.options))
            .collect::<Result<Vec<_>, _>>()?;
        t.apply(targets, &plans);
        Ok(plans)
    }

    /// The §III example workload at line scale: ~2k lines random + 3k scan.
    fn fig3_stream(len: usize, seed: u64) -> Vec<LineAddr> {
        let mut state = seed | 1;
        let mut scan = 0u64;
        (0..len)
            .map(|_| {
                state = state.wrapping_mul(6364136223846793005).wrapping_add(99);
                if state >> 63 == 0 {
                    // Random half over 2048 lines.
                    LineAddr((state >> 30) % 2048)
                } else {
                    // Scanning half over 3072 lines, offset away.
                    scan += 1;
                    LineAddr(1 << 20 | (scan % 3072))
                }
            })
            .collect()
    }

    #[test]
    fn reconfigure_applies_paper_example() {
        // Ideal partitioning, 4096-line cache (≈ "4 MB"), curve with hull
        // vertices at 2048 and 5120: expect rho = 1/3 pre-margin.
        let cache = IdealPartitioned::new(4096, 2);
        let cfg = TalusCacheConfig::new().with_options(TalusOptions::exact());
        let mut t = TalusCache::new(cache, 1, cfg);
        let curve = MissCurve::from_samples(
            &[0.0, 1024.0, 2048.0, 3072.0, 4096.0, 5120.0, 10240.0],
            &[1.0, 0.75, 0.5, 0.5, 0.5, 0.125, 0.125],
        )
        .unwrap();
        let plans = plan_and_apply(&mut t, &[4096], &[curve]).unwrap();
        let cfg = plans[0].shadow().expect("4096 is on the plateau");
        assert_eq!(cfg.alpha, 2048.0);
        assert_eq!(cfg.beta, 5120.0);
        // rho = (5120-4096)/(5120-2048) = 1/3; s1 = 2048/3 ≈ 683.
        assert!((t.sampling_rate(PartitionId(0)) - 1.0 / 3.0).abs() < 0.01);
        let granted1 = t.inner().partition_stats(PartitionId(0)); // just exists
        let _ = granted1;
    }

    #[test]
    fn unpartitioned_plan_routes_everything_to_alpha() {
        let cache = IdealPartitioned::new(1000, 2);
        let mut t = TalusCache::new(cache, 1, TalusCacheConfig::new());
        // Convex curve: no cliff, plan is unpartitioned at every size.
        let curve = MissCurve::from_samples(&[0.0, 500.0, 1000.0], &[1.0, 0.4, 0.1]).unwrap();
        plan_and_apply(&mut t, &[1000], &[curve]).unwrap();
        assert_eq!(t.sampling_rate(PartitionId(0)), 1.0);
        for i in 0..100u64 {
            t.access(PartitionId(0), LineAddr(i), &ctx());
        }
        // All traffic went to shadow 0.
        assert_eq!(t.inner().partition_stats(PartitionId(0)).accesses(), 100);
        assert_eq!(t.inner().partition_stats(PartitionId(1)).accesses(), 0);
    }

    #[test]
    fn an_unpartitioned_start_is_one_alpha_partition_per_target() {
        let mut t = TalusCache::new(IdealPartitioned::new(1000, 4), 2, TalusCacheConfig::new());
        let cold = |size: u64| TalusPlan::Unpartitioned {
            size: size as f64,
            expected_misses: 1.0,
        };
        t.apply(&[600, 400], &[cold(600), cold(400)]);
        for p in 0..2u32 {
            assert_eq!(t.sampling_rate(PartitionId(p)), 1.0);
            assert!(t.plan(PartitionId(p)).unwrap().shadow().is_none());
        }
        for i in 0..100u64 {
            t.access(PartitionId((i % 2) as u32), LineAddr(i), &ctx());
        }
        let accesses = |p: u32| t.inner().partition_stats(PartitionId(p)).accesses();
        assert_eq!(
            [accesses(0), accesses(1), accesses(2), accesses(3)],
            [50, 0, 50, 0]
        );
    }

    #[test]
    fn shadow_split_matches_rho_statistically() {
        let cache = IdealPartitioned::new(4096, 2);
        let cfg = TalusCacheConfig::new().with_options(TalusOptions::exact());
        let mut t = TalusCache::new(cache, 1, cfg);
        let curve = MissCurve::from_samples(
            &[0.0, 2048.0, 3000.0, 4000.0, 5120.0, 8192.0],
            &[1.0, 0.5, 0.5, 0.5, 0.125, 0.125],
        )
        .unwrap();
        plan_and_apply(&mut t, &[4096], &[curve]).unwrap();
        let rho = t.sampling_rate(PartitionId(0));
        for i in 0..40_000u64 {
            t.access(PartitionId(0), LineAddr(i), &ctx());
        }
        let a = t.inner().partition_stats(PartitionId(0)).accesses() as f64;
        let b = t.inner().partition_stats(PartitionId(1)).accesses() as f64;
        assert!(
            (a / (a + b) - rho).abs() < 0.02,
            "alpha got {}",
            a / (a + b)
        );
    }

    #[test]
    fn multi_logical_partitions_are_independent() {
        let cache = IdealPartitioned::new(8192, 4); // 2 logical × 2 shadows
        let mut t = TalusCache::new(cache, 2, TalusCacheConfig::new());
        // Cliff at 6144 lines, plateau from 2048 (the curve must extend
        // past the allocation, as the paper's 4x-coverage monitors ensure).
        let cliff = MissCurve::from_samples(
            &[0.0, 2048.0, 4096.0, 6144.0, 8192.0],
            &[1.0, 0.5, 0.5, 0.05, 0.05],
        )
        .unwrap();
        let convex = MissCurve::from_samples(&[0.0, 2048.0, 4096.0], &[1.0, 0.3, 0.1]).unwrap();
        plan_and_apply(&mut t, &[4096, 4096], &[cliff, convex]).unwrap();
        assert!(t.plan(PartitionId(0)).unwrap().shadow().is_some());
        assert!(t.plan(PartitionId(1)).unwrap().shadow().is_none());
        // Partition 1 unpartitioned: rate 1.
        assert_eq!(t.sampling_rate(PartitionId(1)), 1.0);
    }

    #[test]
    fn talus_single_removes_cliff_on_scan() {
        // Cyclic scan over 3072 lines with a 2048-line cache. Plain LRU
        // gets ~0 hits (cliff); Talus should recover roughly 1 - 2048/3072
        // ≈ 2/3 of the hull, i.e. about 2048/3072 hit rate.
        let lines = 3072u64;
        let capacity = 2048u64;
        let cache = IdealPartitioned::new(capacity, 2);
        let monitor = MattsonMonitor::new(8192);
        let mut t = TalusSingleCache::new(cache, monitor, 50_000, TalusCacheConfig::new());
        let total = 1_200_000usize;
        for i in 0..total {
            t.access(LineAddr(i as u64 % lines), &ctx());
        }
        assert!(t.reconfigurations() > 0);
        // Ignore warmup: look at a fresh window.
        t.reset_stats();
        for i in 0..total {
            t.access(LineAddr(i as u64 % lines), &ctx());
        }
        let hit = t.stats().hit_rate();
        // Hull value at 2048 for a scan of 3072: miss rate = 1/3 of peak...
        // hull from (0,1) to (3072,~0): m(2048) ≈ 1/3 → hit ≈ 2/3.
        assert!(hit > 0.5, "Talus hit rate {hit}, expected ≈ 2/3");
    }

    #[test]
    fn talus_single_on_fig3_mixture() {
        // The §III mixture: Talus at "4 MB" (4096 lines) should clearly
        // beat plain LRU, which wastes the plateau.
        use crate::array::{CacheModel, FullyAssocLru};
        let stream = fig3_stream(1_500_000, 5);
        let cache = IdealPartitioned::new(4096, 2);
        let monitor = MattsonMonitor::new(10_240);
        let mut talus = TalusSingleCache::new(cache, monitor, 50_000, TalusCacheConfig::new());
        let mut lru = FullyAssocLru::new(4096);
        for &l in &stream {
            talus.access(l, &ctx());
            lru.access(l, &ctx());
        }
        talus.reset_stats();
        lru.reset_stats();
        for &l in &stream {
            talus.access(l, &ctx());
            lru.access(l, &ctx());
        }
        let mt = talus.stats().miss_rate();
        let ml = lru.stats().miss_rate();
        assert!(
            mt < ml * 0.75,
            "Talus ({mt:.3}) should significantly beat LRU ({ml:.3})"
        );
    }

    #[test]
    fn access_block_is_equivalent_to_per_access() {
        // Same stream, same seeds: the per-access and block paths must
        // reconfigure at the same boundaries and produce identical stats.
        let stream = fig3_stream(300_000, 7);
        let build = || {
            TalusSingleCache::new(
                IdealPartitioned::new(2048, 2),
                MattsonMonitor::new(8192),
                50_000,
                TalusCacheConfig::new(),
            )
        };
        let mut per_access = build();
        let mut block = build();
        for &l in &stream {
            per_access.access(l, &ctx());
        }
        for chunk in stream.chunks(4096) {
            block.access_block(chunk, &ctx());
        }
        assert_eq!(per_access.reconfigurations(), block.reconfigurations());
        assert_eq!(per_access.stats().accesses(), block.stats().accesses());
        assert_eq!(per_access.stats().misses(), block.stats().misses());
    }

    #[test]
    fn talus_single_works_with_sampled_monitor() {
        // The fast monitor drives the same reconfiguration loop: Talus
        // still bridges a 3072-line scan cliff on a 2048-line cache.
        let lines = 3072u64;
        let cache = IdealPartitioned::new(2048, 2);
        let monitor = SampledMattson::new(8192, 8, 21);
        let mut t = TalusSingleCache::new(cache, monitor, 50_000, TalusCacheConfig::new());
        let stream: Vec<LineAddr> = (0..1_200_000u64).map(|i| LineAddr(i % lines)).collect();
        for chunk in stream.chunks(2048) {
            t.access_block(chunk, &ctx());
        }
        assert!(t.reconfigurations() > 0);
        t.reset_stats();
        for chunk in stream.chunks(2048) {
            t.access_block(chunk, &ctx());
        }
        let hit = t.stats().hit_rate();
        assert!(hit > 0.5, "Talus-on-sampled hit rate {hit}, expected ≈ 2/3");
    }

    #[test]
    #[should_panic(expected = "two shadow partitions")]
    fn rejects_mismatched_partition_count() {
        let cache = IdealPartitioned::new(100, 3);
        let _ = TalusCache::new(cache, 2, TalusCacheConfig::new());
    }
}
