//! End-to-end reconfiguration cost: the paper's §VI-D claim that Talus's
//! software steps cost "a few thousand cycles per reconfiguration".

use criterion::{black_box, criterion_group, criterion_main, Criterion};
use talus_bench::synthetic_curve;
use talus_core::{plan_with_hull, ConvexHull, MissCurve, TalusOptions, TalusPlan};
use talus_partition::{PlanScratch, Planner};
use talus_sim::part::{PartitionedCacheModel, VantageLike};
use talus_sim::{TalusCache, TalusCacheConfig};

const LLC_LINES: u64 = 131_072; // 8 MB

fn bench_full_interval_software(c: &mut Criterion) {
    // The whole software path for 8 logical partitions: hulls →
    // hill climbing → shadow planning → hardware grant.
    let curves: Vec<MissCurve> = (0..8).map(|i| synthetic_curve(64, 77 + i)).collect();
    c.bench_function("interval_software_8apps", |b| {
        let cache = VantageLike::new(LLC_LINES, 16, 16, 3);
        let mut talus = TalusCache::new(cache, 8, TalusCacheConfig::new());
        let planner = Planner::new(LLC_LINES / 64);
        let fraction = talus.inner().managed_fraction();
        let mut scratch = PlanScratch::default();
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
    let hulls: Vec<ConvexHull> = (0..8)
        .map(|i| synthetic_curve(64, 77 + i).convex_hull())
        .collect();
    let sizes = vec![LLC_LINES / 8; 8];
    c.bench_function("talus_reconfigure_8apps", |b| {
        let cache = VantageLike::new(LLC_LINES, 16, 16, 3);
        let mut talus = TalusCache::new(cache, 8, TalusCacheConfig::new());
        let fraction = talus.inner().managed_fraction();
        b.iter(|| {
            let plans: Vec<TalusPlan> = hulls
                .iter()
                .zip(&sizes)
                .map(|(hull, &size)| {
                    let managed = (size as f64 * fraction).floor();
                    plan_with_hull(hull, managed, TalusOptions::new()).expect("valid plan")
                })
                .collect();
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
