//! Shared-LLC systems: the schemes compared in the paper's §VII-D.
//!
//! Each [`LlcSystem`] owns the cache (and, for partitioned schemes, the
//! per-app monitors and allocation algorithm) and is driven by the mix
//! runner: one [`access`](LlcSystem::access) per LLC reference and one
//! [`reconfigure`](LlcSystem::reconfigure) per interval.

use talus_core::{MissCurve, TalusPlan};
use talus_partition::{fair, PlanScratch, Planner};
use talus_sim::monitor::{Monitor, UmonPair};
use talus_sim::part::{PartitionedCacheModel, VantageLike};
use talus_sim::policy::{Lru, PolicyKind, ReplacementPolicy, TaDrrip};
use talus_sim::{
    AccessCtx, AccessResult, CacheModel, CacheStats, LineAddr, PartitionId, SetAssocCache,
    TalusCache, TalusCacheConfig, ThreadId,
};

/// Allocation algorithms available to partitioned schemes.
///
/// This is `talus-partition`'s [`AllocPolicy`](talus_partition::AllocPolicy)
/// under its historical multicore name: the dispatch lives one layer down
/// so the offline tools and the online service run the identical code.
pub use talus_partition::AllocPolicy as AllocAlgo;

/// The scheme roster of Fig. 12/13.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum SchemeKind {
    /// Unpartitioned shared LRU (the baseline).
    SharedLru,
    /// Unpartitioned thread-aware DRRIP.
    TaDrrip,
    /// Unpartitioned shared cache running any built-in policy, selected
    /// at runtime but statically dispatched on the access path
    /// (`SharedLlc<AnyPolicy>`) — the roster hook for policy ablations
    /// beyond the paper's two shared baselines.
    Shared(PolicyKind),
    /// Partitioned LRU (no Talus) with the given algorithm on raw curves.
    PartitionedLru(AllocAlgo),
    /// Talus on Vantage-like partitioning over LRU, with the given
    /// algorithm running on convex hulls (the paper's Talus+V/LRU).
    TalusLru(AllocAlgo),
}

impl SchemeKind {
    /// Display label matching the paper's legends.
    pub fn label(self) -> String {
        match self {
            SchemeKind::SharedLru => "LRU".into(),
            SchemeKind::TaDrrip => "TA-DRRIP".into(),
            SchemeKind::Shared(kind) => kind.label().into(),
            SchemeKind::PartitionedLru(a) => format!("{}/LRU", a.label()),
            SchemeKind::TalusLru(a) => format!("Talus+V/LRU ({})", a.label()),
        }
    }

    /// Builds the system for `apps` cores sharing `llc_lines`.
    pub fn build(self, llc_lines: u64, apps: usize, seed: u64) -> Box<dyn LlcSystem> {
        match self {
            SchemeKind::SharedLru => Box::new(SharedLlc::new(llc_lines, apps, Lru::new(), seed)),
            SchemeKind::TaDrrip => {
                Box::new(SharedLlc::new(llc_lines, apps, TaDrrip::new(seed), seed))
            }
            SchemeKind::Shared(kind) => {
                Box::new(SharedLlc::new(llc_lines, apps, kind.build_any(seed), seed))
            }
            SchemeKind::PartitionedLru(algo) => {
                Box::new(PartitionedLlc::new(llc_lines, apps, algo, seed))
            }
            SchemeKind::TalusLru(algo) => Box::new(TalusLlc::new(llc_lines, apps, algo, seed)),
        }
    }
}

/// A shared LLC serving multiple applications.
pub trait LlcSystem: std::fmt::Debug {
    /// One access issued by application `app`.
    fn access(&mut self, app: usize, line: LineAddr) -> AccessResult;

    /// Interval boundary: `interval_accesses[a]` is how many LLC accesses
    /// app `a` issued since the previous call (used to weight miss curves).
    fn reconfigure(&mut self, interval_accesses: &[u64]);

    /// Per-application hit/miss counters since the last reset.
    fn app_stats(&self, app: usize) -> CacheStats;

    /// Clears the per-application counters.
    fn reset_stats(&mut self);

    /// Human-readable scheme name.
    fn name(&self) -> String;
}

/// Unpartitioned shared cache (LRU baseline and TA-DRRIP).
#[derive(Debug)]
pub struct SharedLlc<P> {
    cache: SetAssocCache<P>,
    stats: Vec<CacheStats>,
}

impl<P: ReplacementPolicy> SharedLlc<P> {
    /// Builds an unpartitioned `llc_lines` cache shared by `apps` cores.
    pub fn new(llc_lines: u64, apps: usize, policy: P, seed: u64) -> Self {
        SharedLlc {
            cache: SetAssocCache::new(llc_lines, 16, policy, seed),
            stats: vec![CacheStats::new(); apps],
        }
    }
}

impl<P: ReplacementPolicy + std::fmt::Debug> LlcSystem for SharedLlc<P> {
    fn access(&mut self, app: usize, line: LineAddr) -> AccessResult {
        let ctx = AccessCtx::from_thread(ThreadId(app as u16));
        let r = self.cache.access(line, &ctx);
        self.stats[app].record(r);
        r
    }

    fn reconfigure(&mut self, _interval_accesses: &[u64]) {}

    fn app_stats(&self, app: usize) -> CacheStats {
        self.stats[app]
    }

    fn reset_stats(&mut self) {
        for s in &mut self.stats {
            s.reset();
        }
        self.cache.reset_stats();
    }

    fn name(&self) -> String {
        self.cache.policy().name().to_string()
    }
}

/// How many grains the allocation algorithms work in.
const ALLOC_GRAINS: u64 = 64;

/// Monitor sets per UMON array: the paper uses 16 sets for an 8 MB LLC;
/// scaled-down LLCs get proportionally denser monitors so per-interval
/// sample counts (curve fidelity) match full scale.
fn umon_sets(llc_lines: u64) -> usize {
    ((131_072 / llc_lines.max(1)) as usize * 16).clamp(16, 128)
}

/// Partitioned LRU without Talus: per-app UMON pairs, raw (cliffy) curves
/// handed to the allocation algorithm, one Vantage-like partition per app.
#[derive(Debug)]
pub struct PartitionedLlc {
    cache: VantageLike,
    monitors: Vec<UmonPair>,
    planner: Planner,
    rounds: u64,
}

impl PartitionedLlc {
    /// Builds the system.
    pub fn new(llc_lines: u64, apps: usize, algo: AllocAlgo, seed: u64) -> Self {
        let mut cache = VantageLike::new(llc_lines, 16, apps, seed);
        // Start fair so the first interval is sane.
        let init: Vec<u64> = fair(apps, llc_lines, 1);
        cache.set_partition_sizes(&init);
        PartitionedLlc {
            cache,
            monitors: (0..apps)
                .map(|a| {
                    UmonPair::with_sets(
                        llc_lines,
                        umon_sets(llc_lines),
                        seed.wrapping_add(100 + a as u64),
                    )
                })
                .collect(),
            // No Talus: the allocator sees the raw (cliffy) curves.
            planner: Planner::new((llc_lines / ALLOC_GRAINS).max(1))
                .with_policy(algo)
                .raw_curves(),
            rounds: 0,
        }
    }
}

/// Weights each app's miss-per-access curve by its interval access count,
/// giving commensurable misses-per-interval curves.
fn weighted_curves(monitors: &[UmonPair], interval_accesses: &[u64]) -> Vec<MissCurve> {
    monitors
        .iter()
        .zip(interval_accesses)
        .map(|(m, &n)| m.curve().scaled(n as f64))
        .collect()
}

impl LlcSystem for PartitionedLlc {
    fn access(&mut self, app: usize, line: LineAddr) -> AccessResult {
        self.monitors[app].record(line);
        self.cache
            .access(PartitionId(app as u32), line, &AccessCtx::new())
    }

    fn reconfigure(&mut self, interval_accesses: &[u64]) {
        let curves = weighted_curves(&self.monitors, interval_accesses);
        let sizes = self
            .planner
            .allocate(&curves, self.cache.capacity_lines(), self.rounds);
        self.rounds += 1;
        self.cache.set_partition_sizes(&sizes);
        for m in &mut self.monitors {
            m.reset();
        }
    }

    fn app_stats(&self, app: usize) -> CacheStats {
        *self.cache.partition_stats(PartitionId(app as u32))
    }

    fn reset_stats(&mut self) {
        self.cache.reset_stats();
    }

    fn name(&self) -> String {
        format!("{}/LRU", self.planner.policy.label())
    }
}

/// Talus+V/LRU: the paper's headline configuration. Pre-processing hands
/// *convex hulls* to the allocation algorithm; post-processing turns the
/// resulting sizes into shadow-partition configurations.
#[derive(Debug)]
pub struct TalusLlc {
    talus: TalusCache<VantageLike>,
    monitors: Vec<UmonPair>,
    planner: Planner,
    /// The planner's working memory, kept across intervals.
    scratch: PlanScratch,
    rounds: u64,
}

impl TalusLlc {
    /// Builds the system.
    pub fn new(llc_lines: u64, apps: usize, algo: AllocAlgo, seed: u64) -> Self {
        let cache = VantageLike::new(llc_lines, 16, 2 * apps, seed);
        let mut talus = TalusCache::new(cache, apps, TalusCacheConfig::new().with_seed(seed));
        // Fair, unpartitioned start until the first interval's curves land
        // (a cold cache: every access expected to miss).
        let shares = fair(apps, llc_lines, 1);
        let cold: Vec<TalusPlan> = shares
            .iter()
            .map(|&size| TalusPlan::Unpartitioned {
                size: size as f64,
                expected_misses: 1.0,
            })
            .collect();
        talus.apply(&shares, &cold);
        TalusLlc {
            talus,
            monitors: (0..apps)
                .map(|a| {
                    UmonPair::with_sets(
                        llc_lines,
                        umon_sets(llc_lines),
                        seed.wrapping_add(200 + a as u64),
                    )
                })
                .collect(),
            // Talus's §VI-A pre-processing: the allocator sees hulls.
            planner: Planner::new((llc_lines / ALLOC_GRAINS).max(1)).with_policy(algo),
            scratch: PlanScratch::default(),
            rounds: 0,
        }
    }
}

impl LlcSystem for TalusLlc {
    fn access(&mut self, app: usize, line: LineAddr) -> AccessResult {
        self.monitors[app].record(line);
        self.talus
            .access(PartitionId(app as u32), line, &AccessCtx::new())
    }

    fn reconfigure(&mut self, interval_accesses: &[u64]) {
        let raw = weighted_curves(&self.monitors, interval_accesses);
        // Software (§VI-A), on the shared planner: hulls, allocation on
        // them, and each app's shadow plan on its hull at the share of its
        // allocation Vantage manages. A plan that fails is not written.
        let planned = self.planner.plan_managed_in(
            &mut self.scratch,
            &raw,
            self.talus.capacity_lines(),
            self.rounds,
            self.talus.inner().managed_fraction(),
        );
        self.rounds += 1;
        // Hardware (§VI-B): shadow partition sizes and sampling rates.
        if let Ok(planned) = planned {
            let plans: Vec<TalusPlan> = planned.tenants.iter().map(|t| t.plan).collect();
            self.talus.apply(&planned.allocations(), &plans);
            self.scratch.recycle(planned);
        }
        for m in &mut self.monitors {
            m.reset();
        }
    }

    fn app_stats(&self, app: usize) -> CacheStats {
        self.talus.logical_stats(PartitionId(app as u32))
    }

    fn reset_stats(&mut self) {
        self.talus.reset_stats();
    }

    fn name(&self) -> String {
        format!("Talus+V/LRU ({})", self.planner.policy.label())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn drive(system: &mut dyn LlcSystem, apps: usize, accesses: usize, seed: u64) {
        let mut state = seed | 1;
        let mut interval = vec![0u64; apps];
        for i in 0..accesses {
            state = state.wrapping_mul(6364136223846793005).wrapping_add(7);
            let app = ((state >> 60) as usize) % apps;
            // Each app touches its own 2048-line working set.
            let line = LineAddr(((app as u64) << 44) | ((state >> 30) % 2048));
            system.access(app, line);
            interval[app] += 1;
            if (i + 1) % 20_000 == 0 {
                system.reconfigure(&interval);
                interval.fill(0);
            }
        }
    }

    #[test]
    fn all_schemes_build_and_run() {
        let schemes = [
            SchemeKind::SharedLru,
            SchemeKind::TaDrrip,
            SchemeKind::PartitionedLru(AllocAlgo::Hill),
            SchemeKind::PartitionedLru(AllocAlgo::Lookahead),
            SchemeKind::PartitionedLru(AllocAlgo::Fair),
            SchemeKind::PartitionedLru(AllocAlgo::Imbalanced),
            SchemeKind::TalusLru(AllocAlgo::Hill),
            SchemeKind::TalusLru(AllocAlgo::Fair),
        ];
        for kind in schemes {
            let mut sys = kind.build(8192, 4, 42);
            drive(sys.as_mut(), 4, 100_000, 1);
            let total: u64 = (0..4).map(|a| sys.app_stats(a).accesses()).sum();
            assert_eq!(total, 100_000, "{}", kind.label());
            assert!(!sys.name().is_empty());
            sys.reset_stats();
            assert_eq!(sys.app_stats(0).accesses(), 0);
        }
    }

    #[test]
    fn shared_any_policy_matches_concrete_baselines() {
        // `Shared(kind)` must reproduce the dedicated SharedLru/TaDrrip
        // schemes access for access: AnyPolicy changes dispatch, never
        // behaviour.
        for (concrete, any) in [
            (SchemeKind::SharedLru, SchemeKind::Shared(PolicyKind::Lru)),
            (SchemeKind::TaDrrip, SchemeKind::Shared(PolicyKind::TaDrrip)),
        ] {
            let mut a = concrete.build(8192, 4, 42);
            let mut b = any.build(8192, 4, 42);
            drive(a.as_mut(), 4, 60_000, 9);
            drive(b.as_mut(), 4, 60_000, 9);
            for app in 0..4 {
                assert_eq!(
                    a.app_stats(app).misses(),
                    b.app_stats(app).misses(),
                    "{} vs {} app {app}",
                    concrete.label(),
                    any.label()
                );
            }
            assert_eq!(a.name(), b.name());
        }
    }

    #[test]
    fn labels_match_paper_legends() {
        assert_eq!(SchemeKind::SharedLru.label(), "LRU");
        assert_eq!(SchemeKind::TaDrrip.label(), "TA-DRRIP");
        assert_eq!(
            SchemeKind::PartitionedLru(AllocAlgo::Lookahead).label(),
            "Lookahead/LRU"
        );
        assert_eq!(
            SchemeKind::TalusLru(AllocAlgo::Hill).label(),
            "Talus+V/LRU (Hill)"
        );
    }

    #[test]
    fn partitioned_hill_gives_capacity_to_the_needy() {
        // App 0 has a small convex working set; app 1 streams uselessly.
        let mut sys = PartitionedLlc::new(8192, 2, AllocAlgo::Hill, 7);
        let mut interval = [0u64; 2];
        let mut scan = 0u64;
        let mut state = 1u64;
        for i in 0..400_000 {
            let app = (i % 2) as usize;
            let line = if app == 0 {
                state = state.wrapping_mul(6364136223846793005).wrapping_add(7);
                LineAddr((state >> 33) % 4096)
            } else {
                scan += 1;
                LineAddr((1 << 44) | (scan % 1_000_000))
            };
            sys.access(app, line);
            interval[app] += 1;
            if (i + 1) % 50_000 == 0 {
                sys.reconfigure(&interval);
                interval.fill(0);
            }
        }
        // After convergence, app 0 should hit much more than app 1.
        assert!(
            sys.app_stats(0).hit_rate() > 0.5,
            "app 0 hit rate {}",
            sys.app_stats(0).hit_rate()
        );
        assert!(sys.app_stats(1).hit_rate() < 0.05);
    }

    #[test]
    fn talus_system_reconfigures_samplers() {
        let mut sys = TalusLlc::new(4096, 2, AllocAlgo::Fair, 3);
        // Both apps scan over 3072 lines — a cliff no 2048-line fair share
        // can contain. Talus should set non-trivial sampling rates.
        let mut interval = [0u64; 2];
        for i in 0..600_000u64 {
            let app = (i % 2) as usize;
            let line = LineAddr(((app as u64) << 44) | ((i / 2) % 3072));
            sys.access(app, line);
            interval[app] += 1;
            if (i + 1) % 100_000 == 0 {
                sys.reconfigure(&interval);
                interval.fill(0);
            }
        }
        // Fair Talus should let both apps hit well above LRU's ~0%.
        for a in 0..2 {
            let hr = sys.app_stats(a).hit_rate();
            assert!(hr > 0.3, "app {a} hit rate {hr}");
        }
    }
}
