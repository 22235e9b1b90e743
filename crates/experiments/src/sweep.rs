//! Measurement helpers: miss curves of policies and Talus configurations
//! swept over cache sizes.

use crate::Scale;
use talus_sim::monitor::{CurveSampler, MattsonMonitor, Monitor, MonitorSource, UmonPair};
use talus_sim::part::{
    FutilityScaled, IdealPartitioned, PartitionedCacheModel, VantageLike, WayPartitioned,
};
use talus_sim::policy::{PolicyKind, Srrip};
use talus_sim::LineAddr;
use talus_sim::{AccessCtx, CacheModel, SetAssocCache, TalusCacheConfig, TalusSingleCache};
use talus_workloads::{AccessGenerator, AppProfile};

/// A measured curve point: paper-scale megabytes and MPKI.
pub type CurvePointMb = (f64, f64);

/// A warmed-up, Mattson-backed [`CurveSource`](talus_core::CurveSource)
/// for a profile: each `next_curve` simulates `scale.accesses` further
/// references and yields the updated exact-LRU curve (lines →
/// misses/access, resolving capacities up to `cap_lines`).
///
/// This is the profile-to-curve producer the sweeps are built on; the
/// online reconfiguration service consumes the same shape of source when
/// replaying synthetic tenants.
pub fn profile_curve_source(
    profile: &AppProfile,
    cap_lines: u64,
    scale: &Scale,
    seed: u64,
) -> MonitorSource<MattsonMonitor, impl FnMut() -> LineAddr> {
    let scaled = profile.scaled(scale.footprint);
    let mut gen = scaled.generator(seed, 0);
    let mut source =
        MonitorSource::new(MattsonMonitor::new(cap_lines), scale.accesses, move || {
            gen.next_line()
        });
    source.warm_up(scale.warmup);
    source
}

/// Exact LRU miss curve via one Mattson stack-distance pass, evaluated on
/// a grid of paper-scale megabyte sizes.
pub fn lru_curve(
    profile: &AppProfile,
    grid_paper_mb: &[f64],
    scale: &Scale,
    seed: u64,
) -> Vec<CurvePointMb> {
    let grid_lines: Vec<u64> = grid_paper_mb
        .iter()
        .map(|&mb| scale.mb_to_lines(mb))
        .collect();
    let cap = *grid_lines.iter().max().expect("non-empty grid");
    let mut source = profile_curve_source(profile, cap, scale, seed);
    // Drive one monitoring interval record-only, then evaluate on the
    // exact requested grid (`next_curve`'s generic result uses the
    // monitor's default 64-point grid, too coarse for paper-figure
    // cliffs, so building it would be wasted work).
    source.advance(scale.accesses);
    let curve = source.monitor().curve_on_grid(&grid_lines);
    grid_paper_mb
        .iter()
        .zip(&grid_lines)
        .map(|(&mb, &l)| (mb, profile.mpki(curve.value_at(l as f64))))
        .collect()
}

/// Miss curve of an arbitrary policy, simulating one 16-way cache per grid
/// size. The cache runs the statically dispatched `AnyPolicy` form of
/// `kind` and ingests the stream block-at-a-time (`access_block`), bit for
/// bit the per-access loop.
pub fn policy_curve(
    profile: &AppProfile,
    kind: PolicyKind,
    grid_paper_mb: &[f64],
    scale: &Scale,
    seed: u64,
) -> Vec<CurvePointMb> {
    const BLOCK: usize = 1024;
    let scaled = profile.scaled(scale.footprint);
    let ctx = AccessCtx::new();
    let mut buf = vec![LineAddr(0); BLOCK];
    grid_paper_mb
        .iter()
        .map(|&mb| {
            let lines = round_to(scale.mb_to_lines(mb), 16);
            let mut cache = SetAssocCache::new(lines, 16, kind.build_any(seed), seed ^ 0xACCE55);
            let mut gen = scaled.generator(seed, 0);
            let mut drive = |cache: &mut SetAssocCache<_>, accesses: u64| {
                let mut left = accesses;
                while left > 0 {
                    let n = left.min(BLOCK as u64) as usize;
                    gen.fill(&mut buf[..n]);
                    cache.access_block(&buf[..n], &ctx);
                    left -= n as u64;
                }
            };
            drive(&mut cache, scale.warmup);
            cache.reset_stats();
            drive(&mut cache, scale.accesses);
            (mb, profile.mpki(cache.stats().miss_rate()))
        })
        .collect()
}

/// The Talus hardware configurations of Figs. 8 and 9.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TalusScheme {
    /// Talus + idealised partitioning over LRU (Talus+I/LRU).
    IdealLru,
    /// Talus + Vantage-like partitioning over LRU (Talus+V/LRU).
    VantageLru,
    /// Talus + Futility Scaling over LRU (Talus+F/LRU) — the §VI-B
    /// alternative without an unmanaged region.
    FutilityLru,
    /// Talus + way partitioning over LRU (Talus+W/LRU).
    WayLru,
    /// Talus + way partitioning over SRRIP with multi-monitor curve
    /// sampling (Talus+W/SRRIP).
    WaySrrip,
}

impl TalusScheme {
    /// Figure legend label.
    pub fn label(self) -> &'static str {
        match self {
            TalusScheme::IdealLru => "Talus+I/LRU",
            TalusScheme::VantageLru => "Talus+V/LRU",
            TalusScheme::FutilityLru => "Talus+F/LRU",
            TalusScheme::WayLru => "Talus+W/LRU",
            TalusScheme::WaySrrip => "Talus+W/SRRIP",
        }
    }
}

fn round_to(lines: u64, multiple: u64) -> u64 {
    ((lines + multiple / 2) / multiple).max(1) * multiple
}

/// Measured Talus miss curve: one `TalusSingleCache` per grid size, driven
/// by the hardware-style monitors the scheme would use.
pub fn talus_curve(
    profile: &AppProfile,
    scheme: TalusScheme,
    grid_paper_mb: &[f64],
    scale: &Scale,
    seed: u64,
) -> Vec<CurvePointMb> {
    let scaled = profile.scaled(scale.footprint);
    let interval = (scale.accesses / 6).clamp(20_000, 500_000);
    grid_paper_mb
        .iter()
        .map(|&mb| {
            let miss_rate = match scheme {
                TalusScheme::IdealLru => {
                    let lines = scale.mb_to_lines(mb);
                    let cache = IdealPartitioned::new(lines, 2);
                    let mon = UmonPair::new(lines, seed ^ 0x111);
                    run_talus_point(
                        cache,
                        mon,
                        interval,
                        TalusCacheConfig::new(),
                        &scaled,
                        scale,
                        seed,
                    )
                }
                TalusScheme::VantageLru => {
                    let lines = round_to(scale.mb_to_lines(mb), 16);
                    let cache = VantageLike::new(lines, 16, 2, seed ^ 0x222);
                    let mon = UmonPair::new(lines, seed ^ 0x333);
                    run_talus_point(
                        cache,
                        mon,
                        interval,
                        TalusCacheConfig::new(),
                        &scaled,
                        scale,
                        seed,
                    )
                }
                TalusScheme::FutilityLru => {
                    let lines = round_to(scale.mb_to_lines(mb), 16);
                    let cache = FutilityScaled::new(lines, 16, 2, seed ^ 0x888);
                    let mon = UmonPair::new(lines, seed ^ 0x999);
                    // The whole cache is managed: Talus plans over all of it.
                    run_talus_point(
                        cache,
                        mon,
                        interval,
                        TalusCacheConfig::new(),
                        &scaled,
                        scale,
                        seed,
                    )
                }
                TalusScheme::WayLru => {
                    let lines = round_to(scale.mb_to_lines(mb), 32);
                    let cache = WayPartitioned::new(
                        lines,
                        32,
                        2,
                        talus_sim::policy::Lru::new(),
                        seed ^ 0x444,
                    );
                    let mon = UmonPair::new(lines, seed ^ 0x555);
                    run_talus_point(
                        cache,
                        mon,
                        interval,
                        TalusCacheConfig::new(),
                        &scaled,
                        scale,
                        seed,
                    )
                }
                TalusScheme::WaySrrip => {
                    let lines = round_to(scale.mb_to_lines(mb), 32);
                    let cache = WayPartitioned::new(lines, 32, 2, Srrip::new(), seed ^ 0x666);
                    let mon = srrip_monitor(lines, scale, seed ^ 0x777);
                    run_talus_point(
                        cache,
                        mon,
                        interval,
                        TalusCacheConfig::new(),
                        &scaled,
                        scale,
                        seed,
                    )
                }
            };
            (mb, profile.mpki(miss_rate))
        })
        .collect()
}

/// The impractically large multi-monitor bank the paper uses for SRRIP
/// (§VI-C): one sampled monitor per curve point, covering up to 4× the
/// cache size.
fn srrip_monitor(cache_lines: u64, scale: &Scale, seed: u64) -> CurveSampler {
    let points = if scale.quick { 16 } else { 64 };
    let max = 4 * cache_lines;
    let min = (max / 64).max(64);
    let mut sizes: Vec<u64> = (1..=points)
        .map(|i| min + (max - min) * i as u64 / points as u64)
        .collect();
    sizes.dedup();
    CurveSampler::new(PolicyKind::Srrip, &sizes, 1024.min(cache_lines), 16, seed)
}

fn run_talus_point<C, M>(
    cache: C,
    monitor: M,
    interval: u64,
    config: TalusCacheConfig,
    scaled_profile: &AppProfile,
    scale: &Scale,
    seed: u64,
) -> f64
where
    C: PartitionedCacheModel,
    M: Monitor,
{
    // Generate in blocks so the monitor takes its amortized
    // `record_block` path; `access_block` splits at interval boundaries,
    // keeping results identical to the per-access loop.
    const BLOCK: usize = 1024;
    let ctx = AccessCtx::new();
    let mut talus = TalusSingleCache::new(cache, monitor, interval, config);
    let mut gen = scaled_profile.generator(seed, 0);
    let mut buf = vec![LineAddr(0); BLOCK];
    let mut drive = |talus: &mut TalusSingleCache<C, M>, accesses: u64| {
        let mut left = accesses;
        while left > 0 {
            let n = left.min(BLOCK as u64) as usize;
            gen.fill(&mut buf[..n]);
            talus.access_block(&buf[..n], &ctx);
            left -= n as u64;
        }
    };
    drive(&mut talus, scale.warmup);
    talus.reset_stats();
    drive(&mut talus, scale.accesses);
    talus.stats().miss_rate()
}

/// A standard paper-style size grid in megabytes: `points` evenly spaced
/// sizes from `from_mb` to `to_mb` (inclusive).
pub fn mb_grid(from_mb: f64, to_mb: f64, points: usize) -> Vec<f64> {
    assert!(points >= 2, "need at least two grid points");
    (0..points)
        .map(|i| from_mb + (to_mb - from_mb) * i as f64 / (points - 1) as f64)
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use talus_workloads::profile;

    fn test_scale() -> Scale {
        Scale {
            footprint: 1.0 / 256.0,
            accesses: 120_000,
            warmup: 60_000,
            mixes: 1,
            work_instructions: 1e5,
            quick: true,
        }
    }

    #[test]
    fn mb_grid_is_inclusive_and_even() {
        let g = mb_grid(0.0, 4.0, 5);
        assert_eq!(g, vec![0.0, 1.0, 2.0, 3.0, 4.0]);
    }

    #[test]
    fn lru_curve_shows_libquantum_cliff() {
        let p = profile("libquantum").unwrap();
        let s = test_scale();
        let curve = lru_curve(&p, &[8.0, 16.0, 24.0, 31.0, 33.0, 40.0], &s, 1);
        let at31 = curve.iter().find(|(mb, _)| *mb == 31.0).unwrap().1;
        let at33 = curve.iter().find(|(mb, _)| *mb == 33.0).unwrap().1;
        assert!(at31 > 30.0, "below the cliff: {at31}");
        assert!(at33 < 3.0, "above the cliff: {at33}");
    }

    #[test]
    fn talus_ideal_bridges_the_cliff() {
        let p = profile("libquantum").unwrap();
        let s = test_scale();
        let talus = talus_curve(&p, TalusScheme::IdealLru, &[16.0], &s, 1);
        // Hull value at 16 MB is ~half of the 33 MPKI plateau.
        let mid = talus[0].1;
        assert!(mid < 28.0, "Talus at 16 MB should be well below 33: {mid}");
        assert!(mid > 8.0, "Talus at 16 MB can't beat the hull: {mid}");
    }

    #[test]
    fn talus_futility_bridges_the_cliff() {
        let p = profile("libquantum").unwrap();
        let s = test_scale();
        let talus = talus_curve(&p, TalusScheme::FutilityLru, &[16.0], &s, 1);
        let mid = talus[0].1;
        assert!(
            mid < 28.0,
            "Talus+F at 16 MB should be well below 33: {mid}"
        );
        assert!(mid > 8.0, "Talus+F at 16 MB can't beat the hull: {mid}");
    }

    #[test]
    fn policy_curve_runs_for_srrip() {
        let p = profile("libquantum").unwrap();
        let s = test_scale();
        let c = policy_curve(&p, PolicyKind::Srrip, &[16.0, 40.0], &s, 1);
        assert_eq!(c.len(), 2);
        // SRRIP also thrashes below the scan size and fits above it.
        assert!(c[0].1 > 25.0);
        assert!(c[1].1 < 5.0);
    }
}
