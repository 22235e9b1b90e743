//! Benchmarks for the pure Talus math: hull construction (the §VI-D
//! "linear time via three-coins" claim), shadow planning (the "few
//! arithmetic operations" claim), and the bypass solver.

use criterion::{black_box, criterion_group, criterion_main, BenchmarkId, Criterion};
use talus_bench::{pool_curve, synthetic_curve, PoolShape};
use talus_core::bypass::optimal_bypass;
use talus_core::{plan, plan_with_hull, talus_curve, TalusOptions};

fn bench_convex_hull(c: &mut Criterion) {
    let mut g = c.benchmark_group("convex_hull");
    for points in [64usize, 256, 1024, 4096] {
        let curve = synthetic_curve(points, 42);
        g.bench_with_input(BenchmarkId::from_parameter(points), &curve, |b, curve| {
            b.iter(|| black_box(curve.convex_hull()))
        });
    }
    // The plane workloads' extremes: every point a vertex, and long
    // near-collinear plateaus that are pushed and popped again.
    for (name, shape) in [
        ("65_convex", PoolShape::Convex),
        ("65_plateau_cliff", PoolShape::PlateauCliff),
    ] {
        let curve = pool_curve(shape, 42);
        g.bench_function(name, |b| b.iter(|| black_box(curve.convex_hull())));
    }
    g.finish();
}

fn bench_plan(c: &mut Criterion) {
    let mut g = c.benchmark_group("plan");
    let curve = synthetic_curve(64, 42);
    // Planning from scratch (hull + solve), the per-reconfiguration cost.
    g.bench_function("curve_64pt", |b| {
        b.iter(|| plan(black_box(&curve), black_box(1234.0), TalusOptions::new()))
    });
    // Planning against a precomputed hull (the post-processing step only).
    let hull = curve.convex_hull();
    g.bench_function("hull_only", |b| {
        b.iter(|| plan_with_hull(black_box(&hull), black_box(1234.0), TalusOptions::new()))
    });
    g.finish();
}

fn bench_bypass_solver(c: &mut Criterion) {
    let curve = synthetic_curve(64, 42);
    c.bench_function("optimal_bypass_64pt", |b| {
        b.iter(|| optimal_bypass(black_box(&curve), black_box(1234.0)))
    });
}

fn bench_talus_curve(c: &mut Criterion) {
    let curve = synthetic_curve(256, 42);
    c.bench_function("talus_curve_256pt", |b| {
        b.iter(|| talus_curve(black_box(&curve)))
    });
}

fn bench_theorem4_transform(c: &mut Criterion) {
    let curve = synthetic_curve(256, 42);
    c.bench_function("sampled_transform_256pt", |b| {
        b.iter(|| black_box(&curve).sampled(black_box(0.37)))
    });
}

criterion_group!(name = benches; config = fast_criterion();
    targets =
    bench_convex_hull,
    bench_plan,
    bench_bypass_solver,
    bench_talus_curve,
    bench_theorem4_transform
);

fn fast_criterion() -> Criterion {
    Criterion::default()
        .sample_size(10)
        .warm_up_time(std::time::Duration::from_millis(300))
        .measurement_time(std::time::Duration::from_millis(800))
}

criterion_main!(benches);
