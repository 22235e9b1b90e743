//! Allocation-algorithm cost (the Fig. 12 simplicity argument): hill
//! climbing is linear, Lookahead quadratic, the DP oracle worse — Talus's
//! convexity guarantee is what lets a system run the cheapest one.
//!
//! `plan/planner_4x65pt_hill` and `…_hill_pool` plan the *same* four
//! curves every iteration, so the hull scan's and the climb's branches are
//! memorised; they price a plan with every branch predicted, through the
//! allocate-per-call `Planner::plan`. `plan/planner_4x65pt_hill_rotating`
//! plans a different pool-shaped cache each iteration (256 of them, warm
//! in cache, in a long aperiodic order) the way a shard's epoch does — `Planner::plan_in` on one kept
//! `PlanScratch`, so the returned `CachePlan` is the only allocation. A
//! claim about what a plan costs *in situ* quotes the rotating row (for
//! the curves' cache misses on top of it, see `core_math.rs`).

use criterion::{black_box, criterion_group, criterion_main, BenchmarkId, Criterion};
use talus_bench::{pool_curves, rotation_order, synthetic_curve};
use talus_core::{ConvexHull, MissCurve};
use talus_partition::{
    hill_climb, hill_climb_hulls, imbalanced, lookahead, optimal_dp, PlanScratch, Planner,
};

fn curves(n: usize) -> Vec<MissCurve> {
    (0..n)
        .map(|i| synthetic_curve(64, 1000 + i as u64))
        .collect()
}

fn bench_algorithms(c: &mut Criterion) {
    let capacity = 64 * 64u64; // 64 grains of 64 lines
    for apps in [4usize, 8, 16] {
        let cs = curves(apps);
        let native: Vec<ConvexHull> = cs.iter().map(MissCurve::convex_hull).collect();
        let hulls: Vec<MissCurve> = native.iter().map(ConvexHull::to_curve).collect();
        let mut g = c.benchmark_group(format!("alloc_{apps}_apps"));
        g.bench_with_input(BenchmarkId::new("hill_climb", apps), &cs, |b, cs| {
            b.iter(|| black_box(hill_climb(cs, capacity, 64)))
        });
        g.bench_with_input(
            BenchmarkId::new("hill_climb_on_hulls", apps),
            &hulls,
            |b, hs| b.iter(|| black_box(hill_climb(hs, capacity, 64))),
        );
        // The planner's kernel against the reference on the same hulls.
        g.bench_with_input(
            BenchmarkId::new("hill_climb_hulls", apps),
            &native,
            |b, hs| b.iter(|| black_box(hill_climb_hulls(hs, capacity, 64))),
        );
        if apps == 4 {
            // The same kernel on the shapes the plane workloads submit.
            let pool: Vec<ConvexHull> =
                pool_curves(42).iter().map(MissCurve::convex_hull).collect();
            g.bench_with_input(
                BenchmarkId::new("hill_climb_hulls", "pool"),
                &pool,
                |b, hs| b.iter(|| black_box(hill_climb_hulls(hs, 65_536, 1024))),
            );
        }
        g.bench_with_input(BenchmarkId::new("lookahead", apps), &cs, |b, cs| {
            b.iter(|| black_box(lookahead(cs, capacity, 64)))
        });
        g.bench_with_input(BenchmarkId::new("optimal_dp", apps), &cs, |b, cs| {
            b.iter(|| black_box(optimal_dp(cs, capacity, 64)))
        });
        g.bench_with_input(BenchmarkId::new("imbalanced", apps), &cs, |b, cs| {
            b.iter(|| black_box(imbalanced(cs, capacity, 64, 0)))
        });
        g.finish();
    }
}

fn bench_preprocessing(c: &mut Criterion) {
    // Talus's pre-processing step: hulls for 8 apps at 64 points each.
    let cs = curves(8);
    c.bench_function("preprocess_hulls_8x64pt", |b| {
        b.iter(|| {
            let hulls: Vec<MissCurve> = cs.iter().map(|c| c.convex_hull().to_curve()).collect();
            black_box(hulls)
        })
    });
}

fn bench_planner(c: &mut Criterion) {
    // One cache of the repo benchmark's `plane_local` workload: 4 tenants
    // × 65 points, 64 grains — hulls, allocation and shadow configs.
    let cs: Vec<MissCurve> = (0..4).map(|i| synthetic_curve(65, 2000 + i)).collect();
    let planner = Planner::new(64);
    let mut g = c.benchmark_group("plan");
    g.bench_function("planner_4x65pt_hill", |b| {
        b.iter(|| black_box(planner.plan(&cs, 64 * 64, 0)))
    });
    // The same cache with the workload's curve shapes and sizes.
    let pool = pool_curves(42);
    let planner = Planner::new(1024);
    g.bench_function("planner_4x65pt_hill_pool", |b| {
        b.iter(|| black_box(planner.plan(&pool, 65_536, 0)))
    });
    // A different cache every iteration, planned as an epoch plans it.
    let caches: Vec<Vec<MissCurve>> = (0..256).map(|seed| pool_curves(seed * 4)).collect();
    let order = rotation_order(caches.len(), 1 << 15, 2);
    let mut scratch = PlanScratch::default();
    let mut step = 0;
    g.bench_function("planner_4x65pt_hill_rotating", |b| {
        b.iter(|| {
            step = (step + 1) % order.len();
            black_box(planner.plan_in(&mut scratch, &caches[order[step]], 65_536, 0))
        })
    });
    g.finish();
}

criterion_group!(name = benches; config = fast_criterion();
    targets = bench_algorithms, bench_preprocessing, bench_planner);

fn fast_criterion() -> Criterion {
    Criterion::default()
        .sample_size(10)
        .warm_up_time(std::time::Duration::from_millis(300))
        .measurement_time(std::time::Duration::from_millis(800))
}

criterion_main!(benches);
