//! `sim_paper`: the paper's evaluation on the host. Talus miss curves
//! (`talus_experiments::sweep::talus_curve`, Talus+V/LRU and
//! Talus+W/SRRIP) and the exact-Mattson LRU reference for `libquantum`
//! and one gently-sloped profile (`mcf`) on an 8-point grid at the
//! quick scale, then one 8-app `memory_intensive()` mix through
//! `talus_multicore::run_mix` under shared LRU and Talus+V/LRU (hill
//! climbing). Caches start empty; statistics start after the warm-up
//! the sweeps already apply. `sim` and `multicore` do all the work.
//!
//! A *cycle* here is one call into the simulator (one sweep point, one
//! reference curve, one mix run); a segment is one full pass. There is
//! no plane, so a *plan* is one in-simulation Talus reconfiguration —
//! a monitored curve turned into shadow-partition sizes and applied —
//! and the latency metrics read host time per such plan, one sample
//! per call. Both move exactly with simulated accesses per host second.

use crate::manifest::{miss_rate_metric, SWEEP_PROFILES, SWEEP_SCHEMES};
use crate::report::Values;
use crate::run::{Acc, Ctx, Workload};
use crate::stats::ratio;
use crate::trace::Layer;
use talus_core::MissCurve;
use talus_experiments::sweep::{lru_curve, talus_curve, TalusScheme};
use talus_experiments::Scale;
use talus_multicore::{
    run_mix, weighted_speedup, AllocAlgo, RunConfig, RunResult, SchemeKind, SystemConfig,
};
use talus_sim::monitor::UmonPair;
use talus_sim::part::VantageLike;
use talus_sim::{AccessCtx, TalusCacheConfig, TalusSingleCache};
use talus_workloads::{memory_intensive, profile, AccessGenerator, AppProfile};

const SCHEMES: [TalusScheme; 2] = [TalusScheme::VantageLru, TalusScheme::WaySrrip];
/// Points of the exact-LRU reference curve whose hull Talus is held to.
const REFERENCE_POINTS: usize = 65;
/// The 8-app mix, all from `memory_intensive()`: cliffs, streaming and
/// convex profiles side by side. Composition and seed are fixed, as in
/// the Fig. 12 driver: `run_mix` runs until its slowest app finishes, so
/// its host time follows the simulated outcome, and between two seeds
/// that differed by a third (0.97 s against 1.30 s) — more than any
/// regression bound. `--seed` drives every stream of the sweeps.
const MIX_SEED: u64 = 2015;
const MIX: [&str; 8] = [
    "libquantum",
    "omnetpp",
    "xalancbmk",
    "mcf",
    "lbm",
    "soplex",
    "sphinx3",
    "cactusADM",
];
/// The sweep point the traced run replays through `TalusSingleCache`
/// directly: libquantum, Talus+V/LRU, mid-plateau.
const REPLAY_POINT: (usize, usize, usize) = (0, 0, 3);
/// Talus must sit at least this far (misses/access) below raw LRU in
/// the middle of libquantum's plateau, or the cliff was not removed.
const CLIFF_MARGIN: f64 = 0.2;

/// `talus_curve`'s reconfiguration interval (a copy: the sweep keeps it
/// private; the traced replay checks the copy against the real count).
fn talus_interval(scale: &Scale) -> u64 {
    (scale.accesses / 6).clamp(20_000, 500_000)
}

/// Fixed work per app in the mix: a quarter of the quick scale's, which
/// keeps the longest single call near 0.25 s. A call is the smallest
/// unit that can be timed, and the longer it runs the less likely the
/// host leaves any instance of it undisturbed.
const MIX_WORK_INSTRUCTIONS: f64 = 2e6;

/// The paper's 8-core system shrunk by the sweep's footprint scale, as
/// the Fig. 12 driver configures it.
fn mix_config(scale: &Scale, seed: u64) -> RunConfig {
    let mut system = SystemConfig::eight_core();
    system.llc_mb = 8.0 * scale.footprint;
    system.reconfig_accesses = 60_000;
    RunConfig::new(system)
        .with_work(MIX_WORK_INSTRUCTIONS)
        .with_seed(seed)
}

/// Everything one pass simulated, in the order it ran.
#[derive(Debug, Default, PartialEq)]
struct Pass {
    /// `rates[profile][scheme][point]`: Talus misses/access.
    rates: Vec<Vec<Vec<f64>>>,
    /// `reference[profile]`: exact LRU misses/access on the fine grid.
    reference: Vec<Vec<f64>>,
    shared: Vec<(u64, u64, u64)>,
    talus: Vec<(u64, u64, u64)>,
    weighted_speedup: f64,
    accesses: u64,
}

impl Pass {
    /// FNV-1a (the journal's checksum) over every simulated statistic
    /// of the pass, as little-endian words in the order they ran.
    fn digest(&self) -> u64 {
        let rates = self.rates.iter().flatten().flatten();
        let words = rates
            .chain(self.reference.iter().flatten())
            .map(|rate| rate.to_bits())
            .chain(
                self.shared
                    .iter()
                    .chain(&self.talus)
                    .flat_map(|&(accesses, misses, cycles)| [accesses, misses, cycles]),
            );
        let bytes: Vec<u8> = words.flat_map(u64::to_le_bytes).collect();
        talus_store::fnv1a64(&bytes)
    }

    /// Max |simulated Talus − hull of exact LRU| over the whole sweep.
    fn hull_gap_max(&self, grids: &[Vec<f64>]) -> f64 {
        let mut gap: f64 = 0.0;
        for (p, grid) in grids.iter().enumerate() {
            let hull = reference_curve(grid, &self.reference[p]).convex_hull();
            for rates in &self.rates[p] {
                for (mb, rate) in grid.iter().zip(rates) {
                    gap = gap.max((rate - hull.value_at(*mb)).abs());
                }
            }
        }
        gap
    }
}

fn reference_grid(grid: &[f64]) -> Vec<f64> {
    let max = grid.iter().copied().fold(0.0, f64::max) * 1.25;
    (0..REFERENCE_POINTS)
        .map(|i| max * i as f64 / (REFERENCE_POINTS - 1) as f64)
        .collect()
}

fn reference_curve(grid: &[f64], rates: &[f64]) -> MissCurve {
    MissCurve::from_samples(&reference_grid(grid), rates).expect("reference grid is increasing")
}

fn app_stats(result: &RunResult) -> Vec<(u64, u64, u64)> {
    result
        .apps
        .iter()
        .map(|a| (a.accesses, a.misses, a.cycles.to_bits()))
        .collect()
}

pub struct SimPaper {
    scale: Scale,
    profiles: Vec<AppProfile>,
    grids: Vec<Vec<f64>>,
    mix: Vec<AppProfile>,
    /// The first pass of the run; every later pass must equal it.
    first: Option<Pass>,
}

impl SimPaper {
    pub fn new() -> Self {
        let scale = Scale::quick();
        let pool = memory_intensive();
        let mix = MIX
            .iter()
            .map(|name| {
                let app = pool.iter().find(|p| p.name == *name);
                app.expect("the mix draws on the memory-intensive pool")
                    .scaled(scale.footprint)
            })
            .collect();
        SimPaper {
            scale,
            profiles: SWEEP_PROFILES
                .iter()
                .map(|(name, _)| profile(name).expect("roster has the sweep profiles"))
                .collect(),
            grids: SWEEP_PROFILES
                .iter()
                .map(|(_, grid)| grid.iter().map(|&mb| f64::from(mb)).collect())
                .collect(),
            mix,
            first: None,
        }
    }

    /// One timed call into the simulator: a cycle. `plans_of` says how
    /// many in-simulation Talus plans the call computed and applied.
    fn call<T>(
        ctx: &mut Ctx,
        acc: &mut Acc,
        position: &mut usize,
        layer: Layer,
        run: impl FnOnce() -> T,
        plans_of: impl FnOnce(&T) -> u64,
    ) -> T {
        ctx.tracer.next_cycle();
        let start_ns = ctx.tracer.now_ns();
        let root = ctx.tracer.begin(Layer::Cycle);
        let span = ctx.tracer.begin(layer);
        let out = run();
        ctx.tracer.end(span);
        ctx.tracer.end(root);
        let ns = ctx.tracer.now_ns() - start_ns;
        let plans = plans_of(&out);
        acc.measured_ns += ns;
        acc.cycle_ns.push(ns);
        acc.plans += plans;
        acc.latency_ns.extend(ns.checked_div(plans));
        // Every call is its own window: the n-th call of a pass does
        // the same work in every pass.
        *position += 1;
        acc.close_window(*position);
        ctx.ops.passed(1);
        out
    }

    fn pass(&self, ctx: &mut Ctx, acc: &mut Acc) -> Pass {
        let scale = &self.scale;
        let seed = ctx.seed;
        let point_accesses = scale.warmup + scale.accesses;
        let point_plans = point_accesses / talus_interval(scale);
        let mut pass = Pass::default();
        let position = &mut 0;
        for (app, grid) in self.profiles.iter().zip(&self.grids) {
            let fine = reference_grid(grid);
            let reference = Self::call(
                ctx,
                acc,
                position,
                Layer::SweepLruCurve,
                || lru_curve(app, &fine, scale, seed),
                |_| 0,
            );
            pass.reference
                .push(reference.iter().map(|&(_, mpki)| mpki / app.apki).collect());
            pass.accesses += point_accesses;
            let mut by_scheme = Vec::new();
            for scheme in SCHEMES {
                let mut rates = Vec::new();
                for &mb in grid {
                    let point = Self::call(
                        ctx,
                        acc,
                        position,
                        Layer::SweepTalusCurve,
                        || talus_curve(app, scheme, &[mb], scale, seed),
                        |_| point_plans,
                    );
                    rates.push(point[0].1 / app.apki);
                    pass.accesses += point_accesses;
                }
                by_scheme.push(rates);
            }
            pass.rates.push(by_scheme);
        }

        let cfg = mix_config(scale, MIX_SEED);
        let shared = Self::call(
            ctx,
            acc,
            position,
            Layer::MulticoreRunMix,
            || run_mix(&self.mix, SchemeKind::SharedLru, &cfg),
            |_| 0,
        );
        // `run_mix` reports each app's accesses up to its own finish
        // line, so this plan count is a floor — but a fixed one per seed.
        let talus = Self::call(
            ctx,
            acc,
            position,
            Layer::MulticoreRunMix,
            || run_mix(&self.mix, SchemeKind::TalusLru(AllocAlgo::Hill), &cfg),
            |r| {
                let accesses: u64 = r.apps.iter().map(|a| a.accesses).sum();
                MIX.len() as u64 * (accesses / cfg.system.reconfig_accesses)
            },
        );
        pass.weighted_speedup = weighted_speedup(&talus.ipcs(), &shared.ipcs());
        pass.shared = app_stats(&shared);
        pass.talus = app_stats(&talus);
        pass.accesses += pass
            .shared
            .iter()
            .chain(&pass.talus)
            .map(|&(accesses, _, _)| accesses)
            .sum::<u64>();
        pass
    }

    /// Decomposed replay of one sweep point: the `TalusSingleCache`
    /// `talus_curve` builds for it, driven from here so `access_block`
    /// gets its own spans and the reconfiguration count is visible.
    /// Returns (misses/access, reconfigurations).
    fn replay_point(&self, ctx: &mut Ctx) -> (f64, u64) {
        const BLOCK: usize = 1024;
        let (p, _, g) = REPLAY_POINT;
        let (scale, seed) = (&self.scale, ctx.seed);
        let scaled = self.profiles[p].scaled(scale.footprint);
        let lines = (scale.mb_to_lines(self.grids[p][g]) + 8) / 16 * 16;
        let cache = VantageLike::new(lines.max(16), 16, 2, seed ^ 0x222);
        let monitor = UmonPair::new(lines.max(16), seed ^ 0x333);
        let mut talus = TalusSingleCache::new(
            cache,
            monitor,
            talus_interval(scale),
            TalusCacheConfig::for_vantage(),
        );
        let mut gen = scaled.generator(seed, 0);
        let access = AccessCtx::new();
        let mut buf = Vec::with_capacity(BLOCK);
        for (accesses, reset) in [(scale.warmup, true), (scale.accesses, false)] {
            let mut left = accesses;
            while left > 0 {
                let n = left.min(BLOCK as u64) as usize;
                buf.clear();
                buf.extend((0..n).map(|_| gen.next_line()));
                let span = ctx.tracer.begin(Layer::TalusCacheAccess);
                talus.access_block(&buf, &access);
                ctx.tracer.end(span);
                left -= n as u64;
            }
            if reset {
                talus.reset_stats();
            }
        }
        (talus.stats().miss_rate(), talus.reconfigurations())
    }
}

impl Workload for SimPaper {
    type Segment = ();

    /// Nothing persists between passes; set-up is one warm-up sweep
    /// point, so the first timed call does not pay first-touch costs.
    fn setup(&mut self, ctx: &mut Ctx) {
        let point = talus_curve(
            &self.profiles[0],
            TalusScheme::VantageLru,
            &[self.grids[0][0]],
            &self.scale,
            ctx.seed,
        );
        ctx.ops
            .check(point.len() == 1 && point[0].1.is_finite(), || {
                format!("warm-up sweep point returned {point:?}")
            });
    }

    fn measure(&mut self, _seg: &mut (), ctx: &mut Ctx, acc: &mut Acc) {
        let pass = self.pass(ctx, acc);
        acc.extra("accesses", pass.accesses as f64);
        acc.extra("talus_hull_gap_max", pass.hull_gap_max(&self.grids));
        acc.extra("mix_weighted_speedup", pass.weighted_speedup);
        // 52 bits, so the digest survives a trip through a JSON double.
        acc.extra("stats_digest", (pass.digest() & ((1 << 52) - 1)) as f64);

        // The paper's claim, on this pass: mid-plateau, Talus+V/LRU sits
        // well below raw LRU (the cliff is gone), and nowhere above it.
        let (p, s, g) = REPLAY_POINT;
        let lru = reference_curve(&self.grids[p], &pass.reference[p]).value_at(self.grids[p][g]);
        let talus = pass.rates[p][s][g];
        ctx.ops.check(talus < lru - CLIFF_MARGIN, || {
            format!("libquantum mid-plateau: Talus {talus} vs LRU {lru}: cliff not removed")
        });

        if ctx.tracer.enabled() {
            ctx.tracer.set_replaying(true);
            let (rate, reconfigurations) = self.replay_point(ctx);
            ctx.tracer.set_replaying(false);
            ctx.ops.check(rate.to_bits() == talus.to_bits(), || {
                format!("replayed sweep point read {rate}, talus_curve read {talus}")
            });
            let want = (self.scale.warmup + self.scale.accesses) / talus_interval(&self.scale);
            ctx.ops.check(reconfigurations == want, || {
                format!("sweep point reconfigured {reconfigurations} times, counted as {want}")
            });
            acc.extra("reconfigurations", reconfigurations as f64);
            let mix: u64 = pass.shared.iter().chain(&pass.talus).map(|a| a.0).sum();
            acc.extra("llc_accesses", mix as f64);
            for (p, (name, grid)) in SWEEP_PROFILES.iter().enumerate() {
                for (s, scheme) in SWEEP_SCHEMES.iter().enumerate() {
                    for (g, mb) in grid.iter().enumerate() {
                        acc.extra(&miss_rate_metric(name, scheme, *mb), pass.rates[p][s][g]);
                    }
                }
            }
        }

        // A simulator is only measurable if it is a function of its
        // seed: every pass must reproduce the first one exactly.
        match &self.first {
            None => self.first = Some(pass),
            Some(first) => ctx.ops.check(*first == pass, || {
                "a pass simulated different statistics from the first pass".to_string()
            }),
        }
    }

    fn teardown(&mut self, _seg: (), _ctx: &mut Ctx, _acc: &mut Acc) {}

    fn layer_metrics(&self, ctx: &Ctx, acc: &Acc, values: &mut Values) {
        let tr = &ctx.tracer;
        let access = tr.aggregate(Layer::TalusCacheAccess);
        let passes = acc.extras.get("stats_digest").map_or(0, Vec::len) as f64;
        values.set(
            "sim.talus_cache.access_ns",
            ratio(
                access.total_ns as f64,
                passes * (self.scale.warmup + self.scale.accesses) as f64,
            ),
        );
        values.set(
            "experiments.lru_curve_s",
            tr.aggregate(Layer::SweepLruCurve).mean_ns() / 1e9,
        );
        let mix = tr.aggregate(Layer::MulticoreRunMix);
        values.set("multicore.run_mix_s", mix.mean_ns() / 1e9);
        if let Some(accesses) = acc.extra_exact("llc_accesses") {
            values.set("multicore.llc_accesses", accesses);
            values.set(
                "multicore.ns_per_access",
                ratio(mix.total_ns as f64, passes * accesses),
            );
        }
        values.set("partition.planner.plans", acc.plans as f64);
        if let Some(accesses) = acc.extra_exact("accesses") {
            let pass_s = acc.fastest_pass().ns as f64 / 1e9;
            values.set("sim_accesses_per_s", ratio(accesses, pass_s));
        }
        for (metric, extra) in [
            ("sim.talus_cache.reconfigurations", "reconfigurations"),
            ("sim.stats_digest", "stats_digest"),
            ("talus_hull_gap_max", "talus_hull_gap_max"),
            ("mix_weighted_speedup", "mix_weighted_speedup"),
        ] {
            if let Some(v) = acc.extra_exact(extra) {
                values.set(metric, v);
            }
        }
        for name in acc.extras.keys() {
            if let (true, Some(v)) = (
                name.starts_with("sim.talus_cache.miss_rate."),
                acc.extra_exact(name),
            ) {
                values.set(name, v);
            }
        }
    }
}
