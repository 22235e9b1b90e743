//! Access-path throughput for every cache organisation: the simulator's
//! hot loop, and a proxy for relative hardware complexity.

use criterion::{black_box, criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use talus_bench::synthetic_stream;
use talus_core::{MissCurve, TalusOptions};
use talus_sim::part::{
    FutilityScaled, IdealPartitioned, PartitionedCacheModel, SetPartitioned, VantageLike,
    WayPartitioned,
};
use talus_sim::policy::{Lru, PolicyKind, ReplacementPolicy, Srrip};
use talus_sim::{
    AccessCtx, CacheModel, FastMod32, FullyAssocLru, H3Bank, H3Hasher, LineAddr, PartitionId,
    SetAssocCache, TalusCache, TalusCacheConfig,
};

const CACHE_LINES: u64 = 16384;
const STREAM: usize = 20_000;

const BENCH_POLICIES: [PolicyKind; 7] = [
    PolicyKind::Lru,
    PolicyKind::Srrip,
    PolicyKind::Drrip,
    PolicyKind::Dip,
    PolicyKind::Pdp,
    PolicyKind::Ship,
    PolicyKind::Random,
];

fn bench_policies(c: &mut Criterion) {
    let stream = synthetic_stream(STREAM, 8192, 32768, 7);
    // The simulator's hot loop as the rest of the workspace now runs it:
    // enum-dispatched (`AnyPolicy`) policies, one access at a time.
    let mut g = c.benchmark_group("set_assoc_access");
    g.throughput(Throughput::Elements(STREAM as u64));
    for kind in BENCH_POLICIES {
        g.bench_with_input(
            BenchmarkId::from_parameter(kind.label()),
            &kind,
            |b, &kind| {
                let mut cache = SetAssocCache::new(CACHE_LINES, 16, kind.build_any(1), 2);
                let ctx = AccessCtx::new();
                b.iter(|| {
                    for &l in &stream {
                        black_box(cache.access(LineAddr(l), &ctx));
                    }
                })
            },
        );
    }
    g.finish();

    // The old construction — `Box<dyn ReplacementPolicy>` virtual dispatch
    // — kept as the reference the enum-dispatch win is measured against.
    let mut g = c.benchmark_group("set_assoc_access_boxed");
    g.throughput(Throughput::Elements(STREAM as u64));
    for kind in [PolicyKind::Lru, PolicyKind::Srrip] {
        g.bench_with_input(
            BenchmarkId::from_parameter(kind.label()),
            &kind,
            |b, &kind| {
                let mut cache = SetAssocCache::new(CACHE_LINES, 16, kind.build(1), 2);
                let ctx = AccessCtx::new();
                b.iter(|| {
                    for &l in &stream {
                        black_box(cache.access(LineAddr(l), &ctx));
                    }
                })
            },
        );
    }
    g.finish();

    // Block-at-a-time ingest through `CacheModel::access_block`.
    let lines: Vec<LineAddr> = stream.iter().map(|&l| LineAddr(l)).collect();
    let mut g = c.benchmark_group("set_assoc_access_block");
    g.throughput(Throughput::Elements(STREAM as u64));
    for kind in BENCH_POLICIES {
        g.bench_with_input(
            BenchmarkId::from_parameter(kind.label()),
            &kind,
            |b, &kind| {
                let mut cache = SetAssocCache::new(CACHE_LINES, 16, kind.build_any(1), 2);
                let ctx = AccessCtx::new();
                b.iter(|| {
                    for chunk in lines.chunks(256) {
                        cache.access_block(black_box(chunk), &ctx);
                    }
                })
            },
        );
    }
    g.finish();
}

fn bench_organisations(c: &mut Criterion) {
    let stream = synthetic_stream(STREAM, 8192, 32768, 7);
    let ctx = AccessCtx::new();
    let mut g = c.benchmark_group("organisation_access");
    g.throughput(Throughput::Elements(STREAM as u64));

    g.bench_function("fully_assoc_lru", |b| {
        let mut cache = FullyAssocLru::new(CACHE_LINES);
        b.iter(|| {
            for &l in &stream {
                black_box(cache.access(LineAddr(l), &ctx));
            }
        })
    });

    g.bench_function("way_partitioned_lru", |b| {
        let mut cache = WayPartitioned::new(CACHE_LINES, 16, 2, Lru::new(), 3);
        cache.set_partition_sizes(&[CACHE_LINES / 2, CACHE_LINES / 2]);
        b.iter(|| {
            for &l in &stream {
                black_box(cache.access(PartitionId((l & 1) as u32), LineAddr(l), &ctx));
            }
        })
    });

    // The W/SRRIP sweep's LLC shape: 32 ways in 2 partitions (8 and 24
    // ways, so the second run starts mid-set).
    g.bench_function("way_partitioned_srrip_32", |b| {
        let mut cache = WayPartitioned::new(CACHE_LINES, 32, 2, Srrip::new(), 3);
        cache.set_partition_sizes(&[CACHE_LINES / 4, 3 * CACHE_LINES / 4]);
        b.iter(|| {
            for &l in &stream {
                black_box(cache.access(PartitionId((l & 1) as u32), LineAddr(l), &ctx));
            }
        })
    });

    g.bench_function("set_partitioned_lru", |b| {
        let mut cache = SetPartitioned::new(CACHE_LINES, 16, 2, Lru::new(), 3);
        cache.set_partition_sizes(&[CACHE_LINES / 2, CACHE_LINES / 2]);
        b.iter(|| {
            for &l in &stream {
                black_box(cache.access(PartitionId((l & 1) as u32), LineAddr(l), &ctx));
            }
        })
    });

    g.bench_function("vantage_like", |b| {
        let mut cache = VantageLike::new(CACHE_LINES, 16, 2, 3);
        cache.set_partition_sizes(&[CACHE_LINES / 2, CACHE_LINES / 2]);
        b.iter(|| {
            for &l in &stream {
                black_box(cache.access(PartitionId((l & 1) as u32), LineAddr(l), &ctx));
            }
        })
    });

    g.bench_function("futility_scaled", |b| {
        let mut cache = FutilityScaled::new(CACHE_LINES, 16, 2, 3);
        cache.set_partition_sizes(&[CACHE_LINES / 2, CACHE_LINES / 2]);
        b.iter(|| {
            for &l in &stream {
                black_box(cache.access(PartitionId((l & 1) as u32), LineAddr(l), &ctx));
            }
        })
    });

    // The partitioned block seam: same streams, ingested as per-partition
    // runs through `PartitionedCacheModel::access_block`.
    g.bench_function("vantage_like_block", |b| {
        let mut cache = VantageLike::new(CACHE_LINES, 16, 2, 3);
        cache.set_partition_sizes(&[CACHE_LINES / 2, CACHE_LINES / 2]);
        let per_part: Vec<Vec<LineAddr>> = (0..2u64)
            .map(|p| {
                stream
                    .iter()
                    .filter(|&&l| l & 1 == p)
                    .map(|&l| LineAddr(l))
                    .collect()
            })
            .collect();
        b.iter(|| {
            for (p, lines) in per_part.iter().enumerate() {
                for chunk in lines.chunks(256) {
                    cache.access_block(PartitionId(p as u32), black_box(chunk), &ctx);
                }
            }
        })
    });

    g.bench_function("talus_on_ideal", |b| {
        // Includes the sampling-function overhead (hash + limit compare).
        let cache = IdealPartitioned::new(CACHE_LINES, 2);
        let mut talus = TalusCache::new(cache, 1, TalusCacheConfig::new());
        let curve = MissCurve::from_samples(
            &[0.0, 4096.0, 8192.0, 12288.0, 16384.0, 32768.0],
            &[1.0, 0.8, 0.8, 0.8, 0.2, 0.2],
        )
        .expect("static bench curve");
        let plan = talus_core::plan(&curve, CACHE_LINES as f64, TalusOptions::new())
            .expect("the cache size is in the curve's domain");
        talus.apply(&[CACHE_LINES], &[plan]);
        b.iter(|| {
            for &l in &stream {
                black_box(talus.access(PartitionId(0), LineAddr(l), &ctx));
            }
        })
    });

    g.finish();
}

/// The two primitives under every hashed structure's access path: 16 H3
/// functions of one address (a 16-way skewed array's candidate rows) as
/// 16 independent hashers against one 16-lane bank, and `hash % rows`
/// as a hardware divide against the precomputed-reciprocal form.
fn bench_hash_primitives(c: &mut Criterion) {
    // Multicore-style addresses: an app base in the high bytes.
    let stream: Vec<u64> = synthetic_stream(STREAM, 8192, 32768, 7)
        .into_iter()
        .map(|l| (3 << 44) | l)
        .collect();
    let seeds: Vec<u64> = (1..=16u64).map(|w| 3 + 0x1234_5678 * w).collect();

    let mut g = c.benchmark_group("h3");
    g.throughput(Throughput::Elements(STREAM as u64));
    g.bench_function("16_hashers", |b| {
        let hashers: Vec<H3Hasher> = seeds.iter().map(|&s| H3Hasher::new(32, s)).collect();
        b.iter(|| {
            let mut acc = 0u64;
            for &l in &stream {
                for h in &hashers {
                    acc ^= h.hash(l);
                }
            }
            black_box(acc)
        })
    });
    g.bench_function("bank_16", |b| {
        let bank = H3Bank::new(&seeds);
        b.iter(|| {
            let mut acc = 0u32;
            let mut lanes = [0u32; 16];
            for &l in &stream {
                bank.hash_into(l, &mut lanes);
                for h in lanes {
                    acc ^= h;
                }
            }
            black_box(acc)
        })
    });
    g.finish();

    // 1023 rows: what a 16-way, 16368-line skewed array divides by.
    let hashes: Vec<u32> = {
        let h = H3Hasher::new(32, 5);
        stream.iter().map(|&l| h.hash(l) as u32).collect()
    };
    let mut g = c.benchmark_group("fastmod");
    g.throughput(Throughput::Elements(STREAM as u64));
    g.bench_function("hardware_rem", |b| {
        let rows = black_box(1023u64);
        b.iter(|| {
            let mut acc = 0u64;
            for &h in &hashes {
                acc += u64::from(h) % rows;
            }
            black_box(acc)
        })
    });
    g.bench_function("fastmod32_rem", |b| {
        let rows = FastMod32::new(black_box(1023));
        b.iter(|| {
            let mut acc = 0u64;
            for &h in &hashes {
                acc += u64::from(rows.rem(h));
            }
            black_box(acc)
        })
    });
    g.finish();
}

/// SRRIP's victim search by itself, over the way runs the simulator
/// hands it: a whole 16- or 32-way set (`SetAssocCache`, the §VI-C
/// monitor bank) and one partition's run of a 32-way set
/// (`WayPartitioned`; 5 and 27 ways, neither starting nor ending on a
/// 16-way boundary). Each step promotes one line of the run, evicts and
/// refills, so searches that find a distant line and searches that must
/// age the run first both occur.
fn bench_policy_victim(c: &mut Criterion) {
    const SETS: usize = 1024;
    let stream = synthetic_stream(STREAM, 8192, 32768, 7);
    let ctx = AccessCtx::new();
    let mut g = c.benchmark_group("policy_victim");
    g.throughput(Throughput::Elements(STREAM as u64));
    for (name, ways, run) in [
        ("srrip_16way_full_set", 16, 0..16),
        ("srrip_32way_full_set", 32, 0..32),
        ("srrip_way_run_5of32", 32, 3..8),
        ("srrip_way_run_27of32", 32, 5..32),
    ] {
        g.bench_function(name, |b| {
            let mut policy = Srrip::new();
            policy.attach(SETS, ways);
            b.iter(|| {
                for &l in &stream {
                    let set = l as usize % SETS;
                    policy.on_hit(set, run.start + (l >> 10) as usize % run.len(), &ctx);
                    let way = policy.choose_victim(set, black_box(run.clone()));
                    policy.on_insert(set, black_box(way), &ctx);
                }
            })
        });
    }
    g.finish();
}

criterion_group!(name = benches; config = fast_criterion();
    targets = bench_policies, bench_organisations, bench_hash_primitives, bench_policy_victim);

fn fast_criterion() -> Criterion {
    Criterion::default()
        .sample_size(10)
        .warm_up_time(std::time::Duration::from_millis(300))
        .measurement_time(std::time::Duration::from_millis(800))
}

criterion_main!(benches);
