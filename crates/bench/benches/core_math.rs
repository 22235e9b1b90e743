//! Benchmarks for the pure Talus math: hull construction (the §VI-D
//! "linear time via three-coins" claim), shadow planning (the "few
//! arithmetic operations" claim), and the bypass solver.
//!
//! A criterion row repeats one input, so the branch predictor learns the
//! hull scan's pop/no-pop pattern outright: `convex_hull/64` and its
//! fixed-curve neighbours price the scan with every branch predicted.
//! `convex_hull/65_rotating` hulls one of 256 distinct pool-shaped curves
//! per iteration, in a long aperiodic order (`rotation_order`). All 266 KB
//! of them stay in the core's L2, so against the fixed rows it prices
//! branch history and nothing else (≈ 260 ns against ≈ 215 on the box
//! that took `BENCH_22.json`). A plane's curves are *not* cache-resident
//! — `plane_local` keeps 34 MB of them — and the same row over 8192
//! curves (8 MB, past L2) reads 460–510 ns, which is what the repo
//! benchmark's traced run reports in situ (`core.hull.us_per_curve`
//! 0.43–0.48): most of the in-situ premium is the curve's kilobyte coming
//! from L3, not the scan. A claim about what a hull costs in situ quotes
//! the rotating row for the scan and the traced run for the whole.

use criterion::{black_box, criterion_group, criterion_main, BenchmarkId, Criterion};
use talus_bench::{pool_curve, pool_curves, rotation_order, synthetic_curve, PoolShape};
use talus_core::bypass::optimal_bypass;
use talus_core::{plan, plan_with_hull, talus_curve, MissCurve, TalusOptions};

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
    // A different curve every iteration (see the module docs): the four
    // pool shapes over 64 seeds in a long aperiodic order, nothing in the
    // loop but the call.
    let rotation: Vec<MissCurve> = (0..64).flat_map(|seed| pool_curves(seed * 4)).collect();
    let order = rotation_order(rotation.len(), 1 << 15, 1);
    let mut step = 0;
    g.bench_function("65_rotating", |b| {
        b.iter(|| {
            step = (step + 1) % order.len();
            black_box(rotation[order[step]].convex_hull())
        })
    });
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
