//! End-to-end reconfiguration cost: the paper's §VI-D claim that Talus's
//! software steps cost "a few thousand cycles per reconfiguration".

use criterion::{black_box, criterion_group, criterion_main, Criterion};
use talus_bench::synthetic_curve;
use talus_core::{plan_with_hull, ConvexHull, MissCurve, TalusOptions, TalusPlan};
use talus_partition::{PlanScratch, Planner};
use talus_sim::part::{PartitionedCacheModel, VantageLike};
use talus_sim::{TalusCache, TalusCacheConfig};

const LLC_LINES: u64 = 131_072; // 8 MB

/// [`synthetic_curve`]'s staircase stretched over the whole LLC (65
/// points, 2 048 lines apart), so every share a row plans lands inside
/// the curve. On `synthetic_curve(64, _)` itself, whose sizes end at
/// 4 032 lines, every plan was unpartitioned and the rows timed no shadow
/// planning at all.
fn llc_curve(seed: u64) -> MissCurve {
    let staircase = synthetic_curve(65, seed);
    let stretch = LLC_LINES as f64 / staircase.max_size();
    let sizes: Vec<f64> = staircase.sizes().iter().map(|s| s * stretch).collect();
    MissCurve::from_samples(&sizes, staircase.misses()).expect("a stretched curve is valid")
}

/// A row times §VI-D's shadow planning only if every tenant it gives
/// lines gets a shadow configuration (one the allocator gives none is
/// unpartitioned at size 0): checked once, outside the timed loop.
fn assert_shadow(row: &str, plans: &[TalusPlan]) {
    let count = |keep: fn(&TalusPlan) -> bool| plans.iter().filter(|p| keep(p)).count();
    let shadow = count(|p| p.shadow().is_some());
    let granted = count(|p| !matches!(p, TalusPlan::Unpartitioned { size, .. } if *size == 0.0));
    assert!(
        shadow > 0 && shadow == granted,
        "{row} plans a granted tenant unpartitioned: {plans:?}"
    );
}

fn bench_full_interval_software(c: &mut Criterion) {
    // The whole software path for 8 logical partitions: hulls →
    // hill climbing → shadow planning → hardware grant.
    let curves: Vec<MissCurve> = (0..8).map(|i| llc_curve(77 + i)).collect();
    c.bench_function("interval_software_8apps", |b| {
        let cache = VantageLike::new(LLC_LINES, 16, 16, 3);
        let mut talus = TalusCache::new(cache, 8, TalusCacheConfig::new());
        let planner = Planner::new(LLC_LINES / 64);
        let fraction = talus.inner().managed_fraction();
        let mut scratch = PlanScratch::default();
        let planned = planner
            .plan_managed_in(&mut scratch, &curves, LLC_LINES, 0, fraction)
            .expect("valid plan");
        let plans: Vec<TalusPlan> = planned.tenants.iter().map(|t| t.plan).collect();
        assert_shadow("interval_software_8apps", &plans);
        scratch.recycle(planned);
        b.iter(|| {
            let planned = planner
                .plan_managed_in(&mut scratch, &curves, LLC_LINES, 0, fraction)
                .expect("valid plan");
            let plans: Vec<TalusPlan> = planned.tenants.iter().map(|t| t.plan).collect();
            talus.apply(&planned.allocations(), black_box(&plans));
            scratch.recycle(planned);
        })
    });
}

fn bench_talus_reconfigure_only(c: &mut Criterion) {
    // Post-processing at fixed sizes: shadow planning on the hulls the
    // allocator built, then the hardware grant and sampler rates.
    let hulls: Vec<ConvexHull> = (0..8).map(|i| llc_curve(77 + i).convex_hull()).collect();
    let sizes = vec![LLC_LINES / 8; 8];
    let plan = |fraction: f64| -> Vec<TalusPlan> {
        hulls
            .iter()
            .zip(&sizes)
            .map(|(hull, &size)| {
                let managed = (size as f64 * fraction).floor();
                plan_with_hull(hull, managed, TalusOptions::new()).expect("valid plan")
            })
            .collect()
    };
    c.bench_function("talus_reconfigure_8apps", |b| {
        let cache = VantageLike::new(LLC_LINES, 16, 16, 3);
        let mut talus = TalusCache::new(cache, 8, TalusCacheConfig::new());
        let fraction = talus.inner().managed_fraction();
        assert_shadow("talus_reconfigure_8apps", &plan(fraction));
        b.iter(|| {
            let plans = plan(fraction);
            talus.apply(&sizes, black_box(&plans));
        })
    });
}

criterion_group!(name = benches; config = fast_criterion();
    targets = bench_full_interval_software, bench_talus_reconfigure_only);

fn fast_criterion() -> Criterion {
    Criterion::default()
        .sample_size(10)
        .warm_up_time(std::time::Duration::from_millis(300))
        .measurement_time(std::time::Duration::from_millis(800))
}

criterion_main!(benches);
