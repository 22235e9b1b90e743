//! Journal hot paths: append throughput and warm-restart replay cost.
//!
//! The store rides the serving plane's ingest path — every `submit` adds
//! one encode + checksum + `write_all` under the shard's journal lock —
//! so appends must stay cheap relative to the planning work they shadow.
//! Replay bounds restart time: a plane is offline for exactly one
//! journal scan plus one state rebuild.
//!
//! Groups:
//! - `store_journal/append_*`: one iteration journals a full curve round
//!   for 32 caches (encode + checksum + file append per record).
//!   `append_curve_round` prices the dominant record type alone, straight
//!   into the store; `append_plane_round` sends a round of *changed*
//!   curves through a journaling plane and runs the epoch that plans
//!   them, and asserts afterwards that the journal grew by a curve and a
//!   plan per cache and a cut per shard each iteration;
//!   `append_batch_round` is that round handed over as one
//!   `submit_many` batch — one lock hold and one journal write per
//!   shard instead of one per curve — under the same assertion.
//! - `store_journal/encode_curve_65pt`: the encode half of one curve
//!   append alone — frame, body, checksum — into a reused buffer, no
//!   file behind it.
//! - `store_journal/replay_*`: one iteration scans a journal of N
//!   records back into `Record`s (the decode half of a warm restart);
//!   `restore_plane` also rebuilds the full service state, which is what
//!   an operator actually waits for after a crash.
//! - `store_journal/open_4x8mib`, `restore_4x8mib`: the two halves of a
//!   warm restart — `Store::open`, then `restore` — on a ≈ 32 MiB
//!   journal, many read windows long.

use criterion::{black_box, criterion_group, criterion_main, Criterion};
use std::path::PathBuf;
use std::sync::atomic::{AtomicU32, Ordering};
use std::sync::Arc;
use talus_core::MissCurve;
use talus_partition::Planner;
use talus_serve::{CacheSpec, ShardedReconfigService};
use talus_store::{encode_record, encode_record_into, Record, Store, StoreSink};

/// Logical caches journaling per iteration.
const CACHES: u64 = 32;
/// Shards (journal files) the records spread over.
const SHARDS: usize = 4;
/// Points per synthetic miss curve (the production-shaped size: the
/// serve ingest benches and the repo benchmark run 65-point monitor
/// curves).
const POINTS: usize = 65;

static DIR_SEQ: AtomicU32 = AtomicU32::new(0);

fn bench_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!(
        "talus-store-bench-{tag}-{}-{}",
        std::process::id(),
        DIR_SEQ.fetch_add(1, Ordering::Relaxed)
    ));
    std::fs::remove_dir_all(&dir).ok();
    std::fs::create_dir_all(&dir).expect("create bench dir");
    dir
}

/// A monotone miss curve with the production point count.
fn curve(seed: u64) -> MissCurve {
    let mut state = seed | 1;
    let mut next = move || {
        state ^= state << 13;
        state ^= state >> 7;
        state ^= state << 17;
        state
    };
    let mut m = 100.0 + (next() % 50) as f64;
    let sizes: Vec<f64> = (0..POINTS).map(|i| i as f64 * 64.0).collect();
    let misses: Vec<f64> = sizes
        .iter()
        .map(|_| {
            let v = m;
            m = (m - (next() % 4) as f64).max(0.0);
            v
        })
        .collect();
    MissCurve::from_samples(&sizes, &misses).expect("valid curve")
}

/// How many records shard `shard`'s journal holds, streamed and
/// collected into a `Scan`.
fn scanned_records(store: &Store, shard: usize) -> usize {
    let stream = store.stream_shard(shard).expect("open the shard");
    stream.into_scan().expect("scan").records.len()
}

/// Journals `rounds` curve rounds for CACHES caches through a sinked
/// plane (including one epoch per round), leaving a realistic mixed
/// journal on disk. Returns the store.
fn populate(dir: &PathBuf, rounds: u64) -> Arc<Store> {
    let store = Arc::new(Store::open(dir, SHARDS).expect("open store"));
    let plane =
        ShardedReconfigService::new(SHARDS).with_sink(Arc::clone(&store) as Arc<dyn StoreSink>);
    let ids: Vec<_> = (0..CACHES)
        .map(|_| plane.register(CacheSpec::new(4096, 1).with_planner(Planner::new(64))))
        .collect();
    for round in 0..rounds {
        for (c, id) in ids.iter().enumerate() {
            plane
                .submit(*id, 0, curve(round * CACHES + c as u64))
                .expect("registered");
        }
        plane.run_epoch();
    }
    assert_eq!(store.last_error(), None, "journaling must not fault");
    store
}

fn bench_append(c: &mut Criterion) {
    let mut group = c.benchmark_group("store_journal");

    // One record's bytes, no file: what the journal adds to a submission
    // before the write.
    let record = Record::Curve {
        seq: 1,
        id: 7,
        tenant: 0,
        curve: curve(1),
    };
    let mut buf = Vec::new();
    group.bench_function("encode_curve_65pt", |b| {
        b.iter(|| {
            buf.clear();
            encode_record_into(black_box(&record), &mut buf).expect("within the caps");
            black_box(buf.len())
        })
    });

    // The raw sink path: one iteration appends a full curve round (one
    // 65-point curve per cache) straight into the store — encode,
    // checksum, length-prefix, write_all, no plane in front.
    let dir = bench_dir("append-curve");
    let store = Store::open(&dir, SHARDS).expect("open store");
    let spec = CacheSpec::new(4096, 1).with_planner(Planner::new(64));
    for id in 0..CACHES {
        store.register(id, &spec);
    }
    let curves: Vec<MissCurve> = (0..CACHES).map(curve).collect();
    let mut round = 0u64;
    group.bench_function("append_curve_round", |b| {
        b.iter(|| {
            round += 1;
            for (id, curve) in curves.iter().enumerate() {
                store.submit(id as u64, 0, black_box(curve));
            }
        })
    });
    assert_eq!(store.last_error(), None);
    drop(store);
    std::fs::remove_dir_all(&dir).ok();

    // The same round through a journaling plane — what `submit` actually
    // costs a producer once persistence is on (registry lock + store
    // append under it) — followed by the epoch that plans and journals
    // it: curve by curve (`append_plane_round`), then as one
    // `submit_many` batch (`append_batch_round`). Rounds alternate
    // between two curve sets: a bit-identical resubmission is
    // deduplicated to a no-op and would journal nothing.
    let rounds = [curves, (CACHES..2 * CACHES).map(curve).collect()];
    for (name, batched) in [("append_plane_round", false), ("append_batch_round", true)] {
        let dir = bench_dir(name);
        let store = Arc::new(Store::open(&dir, SHARDS).expect("open store"));
        let plane =
            ShardedReconfigService::new(SHARDS).with_sink(Arc::clone(&store) as Arc<dyn StoreSink>);
        let ids: Vec<_> = (0..CACHES)
            .map(|_| plane.register(CacheSpec::new(4096, 1).with_planner(Planner::new(64))))
            .collect();
        let mut iterations = 0u64;
        group.bench_function(name, |b| {
            b.iter(|| {
                let curves = &rounds[(iterations % 2) as usize];
                iterations += 1;
                let round = ids
                    .iter()
                    .zip(curves)
                    .map(|(id, curve)| (*id, 0, black_box(curve).clone()));
                if batched {
                    let results = plane.submit_many(round);
                    assert!(results.iter().all(Result::is_ok), "registered");
                } else {
                    for (id, tenant, curve) in round {
                        plane.submit(id, tenant, curve).expect("registered");
                    }
                }
                black_box(plane.run_epoch());
            })
        });
        // Guard against measuring a no-op: every iteration must have
        // appended a curve and a plan per cache and an epoch cut per shard.
        let records: u64 = (0..SHARDS).map(|s| scanned_records(&store, s) as u64).sum();
        assert_eq!(
            records,
            CACHES + iterations * (2 * CACHES + SHARDS as u64),
            "journal did not grow by one full round per iteration"
        );
        assert_eq!(store.last_error(), None);
        drop(plane);
        drop(store);
        std::fs::remove_dir_all(&dir).ok();
    }
    group.finish();
}

fn bench_replay(c: &mut Criterion) {
    let mut group = c.benchmark_group("store_journal");

    for rounds in [4u64, 16] {
        let dir = bench_dir(&format!("replay-{rounds}"));
        let store = populate(&dir, rounds);
        let records: usize = (0..SHARDS).map(|s| scanned_records(&store, s)).sum();

        // Decode half only: scan every shard file back into Records.
        group.bench_function(format!("replay_scan_{records}_records"), |b| {
            b.iter(|| {
                let mut total = 0usize;
                for shard in 0..SHARDS {
                    total += scanned_records(&store, shard);
                }
                black_box(total)
            })
        });

        // The full warm restart an operator waits for: scan + rebuild
        // the whole plane state.
        group.bench_function(format!("restore_plane_{records}_records"), |b| {
            b.iter(|| {
                let plane = ShardedReconfigService::new(SHARDS);
                let summary = plane.restore(&store).expect("restore");
                black_box((plane, summary))
            })
        });
        drop(store);
        std::fs::remove_dir_all(&dir).ok();
    }
    group.finish();
}

/// Open and restore at a size where how the file is buffered matters:
/// a 4-shard journal of ≈ 8 MiB a shard, nearly all of it 65-point curve
/// records (what a plane's journal mostly holds), many windows long.
/// `open_4x8mib` is `Store::open` — stream, verify and decode every
/// record of every shard; `restore_4x8mib` is the replay into a fresh
/// plane that follows it. Divide by the record count the bench prints
/// for the cost per record.
fn bench_large_journal(c: &mut Criterion) {
    let mut group = c.benchmark_group("store_journal");
    let dir = bench_dir("large");
    let store = Store::open(&dir, SHARDS).expect("open store");
    let spec = CacheSpec::new(4096, 1).with_planner(Planner::new(64));
    for id in 0..CACHES {
        store.register(id, &spec);
    }
    let curves: Vec<MissCurve> = (0..CACHES).map(curve).collect();
    let record_len = encode_record(&Record::Curve {
        seq: 0,
        id: 0,
        tenant: 0,
        curve: curves[0].clone(),
    })
    .len() as u64;
    let rounds = (SHARDS as u64 * (8 << 20)) / (record_len * CACHES);
    for _ in 0..rounds {
        // One write per shard per round, as a plane's lock scopes do.
        (0..SHARDS).for_each(|shard| store.begin(shard));
        for (id, curve) in curves.iter().enumerate() {
            store.submit(id as u64, 0, curve);
        }
        (0..SHARDS).for_each(|shard| store.commit(shard));
    }
    assert_eq!(store.last_error(), None, "journaling must not fault");
    drop(store);
    let records = (CACHES + rounds * CACHES) as usize;
    println!("store_journal/*_4x8mib: {records} records");

    group.bench_function("open_4x8mib", |b| {
        b.iter(|| {
            let store = Store::open(black_box(&dir), SHARDS).expect("reopen");
            assert_eq!(store.recovery().records(), records);
            black_box(store)
        })
    });
    let store = Store::open(&dir, SHARDS).expect("reopen");
    group.bench_function("restore_4x8mib", |b| {
        b.iter(|| {
            let plane = ShardedReconfigService::new(SHARDS);
            let summary = plane.restore(&store).expect("restore");
            assert_eq!(summary.records, records);
            black_box((plane, summary))
        })
    });
    drop(store);
    std::fs::remove_dir_all(&dir).ok();
    group.finish();
}

criterion_group!(benches, bench_append, bench_replay, bench_large_journal);
criterion_main!(benches);
