//! Monitor overheads: what it costs to *observe* miss curves — the
//! trade-off behind the paper's §VI-C monitoring discussion.

use criterion::{black_box, criterion_group, criterion_main, Criterion, Throughput};
use talus_bench::synthetic_stream;
use talus_core::CurveSource;
use talus_sim::monitor::{
    CurveSampler, MattsonMonitor, Monitor, SampledMattson, ThreePointMonitor, Umon, UmonPair,
};
use talus_sim::policy::PolicyKind;
use talus_sim::LineAddr;
use talus_workloads::{
    multi_tenant, profile, AccessGenerator, AnalyticCurveSource, AnalyticModel, ComponentKind,
};

const STREAM: usize = 20_000;
/// Accesses per iteration of the compacting exact-monitor row.
const COMPACTING: usize = 200_000;
/// Monitors in the many-tenant row, and the lines each records an
/// iteration.
const TENANTS: usize = 48;
const TENANT_INTERVAL: usize = 10_000;

fn bench_record(c: &mut Criterion) {
    let stream = synthetic_stream(STREAM, 8192, 32768, 11);
    let mut g = c.benchmark_group("monitor_record");
    g.throughput(Throughput::Elements(STREAM as u64));

    g.bench_function("mattson_exact", |b| {
        let mut m = MattsonMonitor::new(65536);
        b.iter(|| {
            for &l in &stream {
                m.record(black_box(LineAddr(l)));
            }
        })
    });

    let lines: Vec<LineAddr> = stream.iter().map(|&l| LineAddr(l)).collect();

    g.bench_function("mattson_exact_block", |b| {
        let mut m = MattsonMonitor::new(65536);
        b.iter(|| m.record_block(black_box(&lines)))
    });

    // The issue's headline target: ≥5× the exact monitor's recorded-access
    // throughput at a sampling rate of 1/16.
    g.bench_function("sampled_mattson", |b| {
        let mut m = SampledMattson::new(65536, 16, 5);
        b.iter(|| {
            for &l in &stream {
                m.record(black_box(LineAddr(l)));
            }
        })
    });

    g.bench_function("sampled_mattson_block", |b| {
        let mut m = SampledMattson::new(65536, 16, 5);
        b.iter(|| m.record_block(black_box(&lines)))
    });

    g.bench_function("umon_1k", |b| {
        let mut m = Umon::new(65536, 16, 64, 5);
        b.iter(|| {
            for &l in &stream {
                m.record(black_box(LineAddr(l)));
            }
        })
    });

    g.bench_function("umon_pair", |b| {
        let mut m = UmonPair::new(65536, 5);
        b.iter(|| {
            for &l in &stream {
                m.record(black_box(LineAddr(l)));
            }
        })
    });

    // The 8-app mix's monitors: 128 sets at this size, so the near array
    // samples every line and each record searches a 64-tag stack.
    g.bench_function("umon_pair_dense", |b| {
        let mut m = UmonPair::with_sets(8192, 128, 5);
        b.iter(|| {
            for &l in &stream {
                m.record(black_box(LineAddr(l)));
            }
        })
    });

    g.bench_function("three_point_cruise", |b| {
        let mut m = ThreePointMonitor::new(16384, 9);
        b.iter(|| {
            for &l in &stream {
                m.record(LineAddr(l));
            }
            black_box(m.sampled_accesses())
        })
    });

    // The §VI-C bank, as the sweeps now run it: one mix64 hash per access
    // compared against nested per-point thresholds, enum-dispatched SRRIP.
    g.bench_function("curve_sampler_srrip_16pt", |b| {
        let sizes: Vec<u64> = (1..=16).map(|i| i * 4096).collect();
        let mut m = CurveSampler::new(PolicyKind::Srrip, &sizes, 1024, 16, 5);
        b.iter(|| {
            for &l in &stream {
                m.record(black_box(LineAddr(l)));
            }
        })
    });

    g.bench_function("curve_sampler_srrip_16pt_block", |b| {
        let sizes: Vec<u64> = (1..=16).map(|i| i * 4096).collect();
        let mut m = CurveSampler::new(PolicyKind::Srrip, &sizes, 1024, 16, 5);
        b.iter(|| m.record_block(black_box(&lines)))
    });

    // The same bank with SRRIP passed in as `AnyPolicy::Custom`, the
    // dynamically dispatched way in for a policy from outside the crate:
    // what user-defined policies pay.
    g.bench_function("curve_sampler_srrip_16pt_custom", |b| {
        use talus_sim::policy::{AnyPolicy, Srrip};
        let sizes: Vec<u64> = (1..=16).map(|i| i * 4096).collect();
        let mut m = CurveSampler::with_policy(
            |_s| AnyPolicy::Custom(Box::new(Srrip::new())),
            &sizes,
            1024,
            16,
            5,
        );
        b.iter(|| {
            for &l in &stream {
                m.record(black_box(LineAddr(l)));
            }
        })
    });

    // `lru_curve`'s shape, which the rows above never reach: a 40 960-line
    // cap (a 163 840-timestamp window) over 73 k distinct lines, fed in
    // `MonitorSource`'s 256-line blocks, so every iteration compacts.
    let compacting: Vec<LineAddr> = synthetic_stream(COMPACTING, 8192, 65536, 13)
        .into_iter()
        .map(LineAddr)
        .collect();
    g.throughput(Throughput::Elements(COMPACTING as u64));
    g.bench_function("mattson_exact_compacting", |b| {
        let mut m = MattsonMonitor::new(40_960);
        b.iter(|| {
            for chunk in compacting.chunks(256) {
                m.record_block(black_box(chunk));
            }
        })
    });

    // `producer_fed`'s monitors: 48 tenants' `SampledMattson`s (8192
    // lines at 1-in-8), each fed an interval of its own `multi_tenant(4)`
    // stream in `MonitorSource`'s 256-line blocks. Their tables together
    // outgrow the private caches, so each one's footprint shows up as
    // misses, which the single-monitor rows above never pay.
    let profile = multi_tenant(4).scaled(1.0 / 32.0);
    let tenants: Vec<(SampledMattson, Vec<LineAddr>)> = (0..TENANTS)
        .map(|i| {
            let mut gen = profile.tenant_generator(i % 3, 1009 + (i / 3) as u64);
            let mut lines = vec![LineAddr(0); TENANT_INTERVAL];
            gen.fill(&mut lines);
            (SampledMattson::new(8192, 8, 0xCAFE + i as u64), lines)
        })
        .collect();
    g.throughput(Throughput::Elements((TENANTS * TENANT_INTERVAL) as u64));
    g.bench_function("sampled_mattson_tenants", |b| {
        let mut tenants = tenants.clone();
        b.iter(|| {
            for (m, lines) in &mut tenants {
                for chunk in lines.chunks(256) {
                    m.record_block(black_box(chunk));
                }
            }
        })
    });

    g.finish();
}

fn bench_curve_extraction(c: &mut Criterion) {
    let stream = synthetic_stream(200_000, 8192, 32768, 11);
    let mut g = c.benchmark_group("monitor_curve");

    let mut mattson = MattsonMonitor::new(65536);
    let mut sampled = SampledMattson::new(65536, 16, 5);
    let mut pair = UmonPair::new(65536, 5);
    for &l in &stream {
        mattson.record(LineAddr(l));
        sampled.record(LineAddr(l));
        pair.record(LineAddr(l));
    }
    g.bench_function("mattson_curve", |b| b.iter(|| black_box(mattson.curve())));
    g.bench_function("sampled_mattson_curve", |b| {
        b.iter(|| black_box(sampled.curve()))
    });
    g.bench_function("umon_pair_curve", |b| b.iter(|| black_box(pair.curve())));
    g.finish();
}

/// The analytic backend: each iteration is the *entire* measurement cost
/// of one tenant — model construction plus curve synthesis from the
/// workload spec — with no address stream generated or recorded. The
/// price point to beat is one simulated monitoring pass of equivalent
/// fidelity: `monitor_record/sampled_mattson` (a 20k-access stream) plus
/// `monitor_curve/sampled_mattson_curve`.
fn bench_analytic_curve(c: &mut Criterion) {
    let mut g = c.benchmark_group("analytic_curve");

    // The headline: a skewed Zipf tenant over the same 32k-line footprint
    // and 64k-line resolution the monitor benches above observe.
    g.bench_function("zipf_tenant", |b| {
        b.iter(|| {
            let model = AnalyticModel::from_components(&[(
                black_box(ComponentKind::Zipf(0.9)),
                32768,
                1.0,
            )]);
            black_box(model.curve(65536))
        })
    });

    // One tenant of the interference workload the serve benches run:
    // rotating shared-window scan superposed on a private Zipf hot set.
    let mt = multi_tenant(4).scaled(1.0 / 64.0);
    g.bench_function("multi_tenant", |b| {
        b.iter(|| {
            let model = AnalyticModel::from_multi_tenant(black_box(&mt));
            black_box(model.curve(2 * mt.tenant_footprint_lines()))
        })
    });

    // A mixed SPEC-shaped profile: scan plateaus + Zipf components.
    let omnetpp = profile("omnetpp")
        .expect("roster profile")
        .scaled(1.0 / 256.0);
    g.bench_function("mixed_spec", |b| {
        b.iter(|| {
            let model = AnalyticModel::from_profile(black_box(&omnetpp));
            black_box(model.curve(65536))
        })
    });

    // Steady state: the source synthesises once and replays; next_curve
    // is a clone — what the serving plane pays per interval after warmup.
    let mut source = AnalyticCurveSource::from_multi_tenant(&mt, 2 * mt.tenant_footprint_lines());
    g.bench_function("steady_state_next", |b| {
        b.iter(|| black_box(source.next_curve()))
    });

    g.finish();
}

criterion_group!(name = benches; config = fast_criterion();
    targets = bench_record, bench_curve_extraction, bench_analytic_curve);

fn fast_criterion() -> Criterion {
    Criterion::default()
        .sample_size(10)
        .warm_up_time(std::time::Duration::from_millis(300))
        .measurement_time(std::time::Duration::from_millis(800))
}

criterion_main!(benches);
