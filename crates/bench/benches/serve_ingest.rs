//! Reconfiguration-plane ingest cost: submissions + epochs.
//!
//! What one full ingest cycle costs on each front-end of the plane, on
//! the `multi_tenant` interference workload: monitor-measured curve
//! updates for 32 logical caches are submitted in four producers'
//! stripes, then the plane drains its dirty queues — one iteration is
//! the full submissions + epochs cycle.
//!
//! Variants:
//! - `sharded_1`: [`ShardedReconfigService`] with one shard — one
//!   registry lock behind the router;
//! - `sharded_4`: four shards, epochs on the calling thread;
//! - `sharded_4_threaded`: four shards, each planning on its own worker —
//!   against `sharded_4`, the price of the hand-off to the workers;
//! - `rpc`: the same cycle through the network layer — each producer is
//!   a persistent `RpcClient` staging its round into one framed batch
//!   over a loopback socket, and epochs are driven by a remote
//!   `run_epoch`. The delta vs `sharded_4` prices the wire protocol
//!   (encode + TCP + decode) on the ingest hot path.
//! - `analytic`: the `sharded_4` cycle with the analytic curve backend in
//!   the loop — producers *synthesise* each curve from a workload spec at
//!   submission time instead of cloning a monitor-measured fixture. The
//!   delta vs `sharded_4` prices in-loop curve synthesis, the mode the
//!   `AnalyticCurveSource` backend enables (no monitors anywhere).
//!
//! How the rows are taken, and what they can rank. The producers'
//! stripes are submitted one after another *from the timing thread*: no
//! thread is started, woken or waited for inside an iteration (the rows
//! used to spawn four scoped threads per iteration and measured thread
//! start-up and the scheduler; parked on channels they still read
//! 265–645 µs for one row on a two-core box). The rows run in
//! [`ROTATIONS`] interleaved rounds (`sharded_1`, `sharded_4`, …,
//! `analytic`, then again), each round printing its own line per row;
//! `scripts/bench_baseline.sh` keeps each name's minimum, so every row's
//! number comes from the quietest of windows spread over the whole run
//! instead of one window at a fixed place in it. A difference between
//! two rows is therefore a difference between the planes on an
//! *uncontended* stream: `sharded_4` against `sharded_1` is the extra
//! shards, `sharded_4_threaded` against `sharded_4` the worker hand-off
//! at 32 dirty caches (the one row with other threads in it, so the one
//! that still moves with the scheduler), `rpc` and `analytic` against
//! `sharded_4` the wire and the synthesis. What
//! they cannot rank: the scale-out claim behind sharding — relief of
//! registry-lock contention between concurrent producers — which needs
//! as many cores as producers and a contended load; nothing here
//! contends.
//!
//! `serve_epoch/dirty_{64,1024}_{seq,threaded}` is what defends the
//! worker threads: on the repo benchmark's plane (8192 caches × 4 tenants
//! × 65-point pool curves, four shards) K caches get fresh curves and one
//! epoch replans them, sequentially or on the per-shard workers, the two
//! modes interleaved in [`ROTATIONS`] rounds like the rows above. A row
//! times the epoch alone: the K × 4 resubmissions are each iteration's
//! untimed set-up (`iter_batched`); the rows up to `BENCH_42.json`, the
//! figures below among them, timed both. A plan
//! is ≈ 3 µs and the hand-off to three workers costs about as much as
//! sixty of them: at K = 64 — the benchmark's epoch — the two modes are a
//! wash (208 against 221 µs in `BENCH_23.json`), at K = 1024 the
//! threaded cycle wins (4.25 against 2.91 ms; 1.2–1.5× run to run on a
//! two-core box, the resubmissions in it being sequential either way),
//! which is why `with_threads()` stays. The rows are outside
//! `HOT_PREFIXES`: the threaded ones move with the scheduler, so they
//! rank the modes against each other within one run, not across PRs.
//!
//! `serve_snapshot/random_8192` is the reader's side of the same plane:
//! one `snapshot` of a random id among 8192 registered and planned caches
//! on four shards — router hash, the shard's `RwLock` read, one probe of
//! its id-keyed snapshot map, an `Arc` clone and its drop. The ids come
//! from a precomputed random walk, a different one each iteration, so the
//! probe misses in cache the way a reader's does; the repo benchmark's
//! `plane_local` does 1088 of these a cycle.

use criterion::{black_box, criterion_group, criterion_main, BatchSize, Criterion};
use std::sync::Arc;
use talus_core::MissCurve;
use talus_serve::{CacheId, CacheSpec, RpcClient, RpcServer, ShardedReconfigService};
use talus_sim::monitor::{MonitorSource, SampledMattson};
use talus_sim::LineAddr;
use talus_workloads::{multi_tenant, AccessGenerator, AnalyticModel, ComponentKind};

/// Logical caches on the plane.
const CACHES: usize = 32;
/// Tenants per cache (each cache hosts one multi-tenant interference
/// workload).
const TENANTS: usize = 4;
/// Producers, striped over caches (over the wire, one connection each).
const PRODUCERS: usize = 4;
/// Interleaved rounds over the rows (see the module docs).
const ROTATIONS: usize = 3;
/// Curve-update rounds per iteration: each (cache, tenant) submits this
/// many successive monitor-measured updates. Epochs coalesce them (only
/// the latest curve is planned), so rounds weight the mix toward ingest —
/// the contended path sharding is for.
const ROUNDS: usize = 8;
/// Lines per logical cache.
const CAPACITY: u64 = 512;
/// Accesses per monitoring interval per tenant (feeding the fixture).
const INTERVAL: u64 = 10_000;
/// Footprint shrink factor for the interference profile.
const SCALE: f64 = 1.0 / 256.0;

/// Monitor-measured curves for every (cache, tenant, round), produced
/// once: the benches measure the serving plane, not the monitors.
struct Fixture {
    /// `curves[cache][tenant][round]`.
    curves: Vec<Vec<Vec<MissCurve>>>,
}

impl Fixture {
    fn build() -> Self {
        let profile = multi_tenant(TENANTS).scaled(SCALE);
        let curves = (0..CACHES)
            .map(|c| {
                (0..TENANTS)
                    .map(|t| {
                        let mut gen = profile.tenant_generator(t, 7 + c as u64);
                        let next: Box<dyn FnMut() -> LineAddr> = Box::new(move || gen.next_line());
                        let monitor =
                            SampledMattson::new(2 * CAPACITY, 8, 0xCAFE + (c * TENANTS + t) as u64);
                        let mut source = MonitorSource::new(monitor, INTERVAL, next);
                        source.warm_up(INTERVAL / 2);
                        (0..ROUNDS)
                            .map(|_| {
                                talus_core::CurveSource::next_curve(&mut source)
                                    .expect("monitors never exhaust")
                            })
                            .collect()
                    })
                    .collect()
            })
            .collect();
        Fixture { curves }
    }
}

/// Submits one curve to a registered cache.
fn submit(plane: &ShardedReconfigService, id: CacheId, tenant: usize, curve: MissCurve) {
    plane
        .submit(id, tenant, curve)
        .expect("cache registered and tenant in range")
}

/// Runs epochs until the plane is clean; returns the caches planned.
fn drain(plane: &ShardedReconfigService) -> usize {
    let reports = plane.run_until_clean();
    reports.iter().map(|r| r.planned.len()).sum()
}

/// The caches producer `p` submits for.
fn stripe(ids: &[CacheId], p: usize) -> impl Iterator<Item = (usize, CacheId)> + '_ {
    ids.iter().copied().enumerate().skip(p).step_by(PRODUCERS)
}

/// Registers the bench's caches on `plane`.
fn register_all(plane: &ShardedReconfigService) -> Vec<CacheId> {
    (0..CACHES)
        .map(|_| plane.register(CacheSpec::new(CAPACITY, TENANTS)))
        .collect()
}

/// One full ingest cycle: every producer's stripe of every round's
/// curves is submitted, then the plane drains its dirty queues.
fn ingest_cycle(plane: &ShardedReconfigService, ids: &[CacheId], fixture: &Fixture) -> usize {
    for p in 0..PRODUCERS {
        for round in 0..ROUNDS {
            for (c, id) in stripe(ids, p) {
                for (t, rounds) in fixture.curves[c].iter().enumerate() {
                    submit(plane, id, t, rounds[round].clone());
                }
            }
        }
    }
    drain(plane)
}

/// One full ingest cycle with curve *synthesis* in the loop: producers
/// derive each tenant's curve from its workload spec at submission time —
/// no fixture, no monitors. The Zipf exponent drifts per round so every
/// submission is a genuine plan-changing update rather than a
/// bit-identical no-op (which the plane dedupes).
fn analytic_cycle(plane: &ShardedReconfigService, ids: &[CacheId]) -> usize {
    for p in 0..PRODUCERS {
        for round in 0..ROUNDS {
            for (_, id) in stripe(ids, p) {
                for t in 0..TENANTS {
                    let q = 0.85 + 0.01 * ((round + t) % ROUNDS) as f64;
                    let model = AnalyticModel::from_components(&[(
                        ComponentKind::Zipf(q),
                        4 * CAPACITY,
                        1.0,
                    )]);
                    submit(plane, id, t, model.curve(2 * CAPACITY));
                }
            }
        }
    }
    drain(plane)
}

/// One full ingest cycle over the wire: each producer holds a persistent
/// connection and stages its stripe's curves round by round (one framed
/// batch per round), and a control client drains the dirty queues with
/// remote epochs.
fn rpc_cycle(
    service: &ShardedReconfigService,
    control: &mut RpcClient,
    clients: &mut [RpcClient],
    ids: &[CacheId],
    fixture: &Fixture,
) -> usize {
    for (p, client) in clients.iter_mut().enumerate() {
        for round in 0..ROUNDS {
            for (c, id) in stripe(ids, p) {
                for (t, rounds) in fixture.curves[c].iter().enumerate() {
                    client
                        .stage(id, t, rounds[round].clone())
                        .expect("staged within frame budget");
                }
            }
            client.flush().expect("flush over rpc");
        }
    }
    let mut planned = 0;
    while service.pending() > 0 {
        planned += control.run_epoch().expect("epoch over rpc").planned.len();
    }
    planned
}

/// One row's full cycle, returning the caches it planned.
type Cycle<'a> = Box<dyn FnMut() -> usize + 'a>;

fn bench_serve_ingest(c: &mut Criterion) {
    let fixture = &Fixture::build();
    let planes = [
        ("serve_ingest/sharded_1", ShardedReconfigService::new(1)),
        ("serve_ingest/sharded_4", ShardedReconfigService::new(4)),
        (
            "serve_ingest/sharded_4_threaded",
            ShardedReconfigService::new(4).with_threads(),
        ),
    ];
    let mut rows: Vec<(&str, Cycle<'_>)> = Vec::new();
    for (name, plane) in &planes {
        let ids = register_all(plane);
        rows.push((name, Box::new(move || ingest_cycle(plane, &ids, fixture))));
    }

    let service = Arc::new(ShardedReconfigService::new(4));
    let handle = RpcServer::bind("127.0.0.1:0", Arc::clone(&service))
        .expect("bind loopback")
        .spawn()
        .expect("spawn accept loop");
    let addr = handle.local_addr();
    let mut control = RpcClient::connect(addr).expect("connect control");
    let ids: Vec<CacheId> = (0..CACHES)
        .map(|_| {
            control
                .register(CAPACITY, TENANTS as u32)
                .expect("register over rpc")
        })
        .collect();
    let mut clients: Vec<RpcClient> = (0..PRODUCERS)
        .map(|_| RpcClient::connect(addr).expect("connect producer"))
        .collect();
    rows.push((
        "serve_ingest/rpc",
        Box::new(move || rpc_cycle(&service, &mut control, &mut clients, &ids, fixture)),
    ));

    let analytic_plane = ShardedReconfigService::new(4);
    let ids = register_all(&analytic_plane);
    rows.push((
        "serve_ingest/analytic",
        Box::new(move || analytic_cycle(&analytic_plane, &ids)),
    ));

    // Warm every plane into steady state (every cache has a published plan).
    for (name, cycle) in &mut rows {
        assert_eq!(cycle(), CACHES, "{name}");
    }
    for _ in 0..ROTATIONS {
        for (name, cycle) in &mut rows {
            c.bench_function(*name, |b| b.iter(|| black_box(cycle())));
        }
    }
    handle.shutdown();
}

/// Caches behind the epoch and snapshot-read rows (the repo benchmark's
/// plane size).
const SNAPSHOT_CACHES: usize = 8192;
/// Dirty caches an epoch row replans per iteration.
const DIRTY: [usize; 2] = [64, 1024];

/// One plane of the epoch rows: the repo benchmark's shape, every cache
/// planned once, and for the caches the rows dirty the two curve sets
/// their resubmissions alternate between (a bit-identical resubmission
/// is a no-op, so each must differ from the last).
struct EpochPlane {
    plane: ShardedReconfigService,
    /// `(id, curve sets, which set the cache holds)`, a fixed stride of
    /// the plane's caches.
    dirty: Vec<(CacheId, [Vec<MissCurve>; 2], bool)>,
}

impl EpochPlane {
    fn build(threaded: bool) -> Self {
        let most = DIRTY[1];
        // One epoch drains whatever a row dirtied, whichever shard it is on.
        let plane = ShardedReconfigService::new(4).with_max_batch(most);
        let plane = if threaded {
            plane.with_threads()
        } else {
            plane
        };
        let mut dirty = Vec::with_capacity(most);
        for i in 0..SNAPSHOT_CACHES {
            let id = plane.register(CacheSpec::new(65_536, TENANTS));
            let held = talus_bench::pool_curves(4 * i as u64);
            for (t, curve) in held.iter().enumerate() {
                submit(&plane, id, t, curve.clone());
            }
            if i % (SNAPSHOT_CACHES / most) == 0 {
                let other = talus_bench::pool_curves(4 * (SNAPSHOT_CACHES + i) as u64);
                dirty.push((id, [held, other], false));
            }
        }
        assert_eq!(drain(&plane), SNAPSHOT_CACHES);
        EpochPlane { plane, dirty }
    }
}

/// Hands the first `k` dirty caches the curve set they do not hold: what
/// the next epoch replans.
fn resubmit(
    plane: &ShardedReconfigService,
    dirty: &mut [(CacheId, [Vec<MissCurve>; 2], bool)],
    k: usize,
) {
    for (id, sets, second) in &mut dirty[..k] {
        *second = !*second;
        for (t, curve) in sets[*second as usize].iter().enumerate() {
            submit(plane, *id, t, curve.clone());
        }
    }
}

fn bench_serve_epoch(c: &mut Criterion) {
    let mut planes = [
        ("seq", EpochPlane::build(false)),
        ("threaded", EpochPlane::build(true)),
    ];
    for _ in 0..ROTATIONS {
        for k in DIRTY {
            for (mode, EpochPlane { plane, dirty }) in &mut planes {
                resubmit(plane, dirty, k);
                assert_eq!(
                    plane.run_epoch().planned.len(),
                    k,
                    "one epoch replans all {k}"
                );
                c.bench_function(format!("serve_epoch/dirty_{k}_{mode}"), |b| {
                    b.iter_batched(
                        || resubmit(plane, dirty, k),
                        |()| black_box(plane.run_epoch().planned.len()),
                        BatchSize::PerIteration,
                    )
                });
            }
        }
    }
}

fn bench_serve_snapshot(c: &mut Criterion) {
    let service = ShardedReconfigService::new(4);
    let sizes = [0.0, 128.0, 256.0, 512.0];
    let ids: Vec<CacheId> = (0..SNAPSHOT_CACHES)
        .map(|i| {
            let id = service.register(CacheSpec::new(CAPACITY, TENANTS));
            for t in 0..TENANTS {
                let top = 4.0 + ((i + t) % 7) as f64;
                let curve = MissCurve::from_samples(&sizes, &[top, top, 1.0, 0.5]);
                service
                    .submit(id, t, curve.expect("valid curve"))
                    .expect("cache registered and tenant in range");
            }
            id
        })
        .collect();
    let planned: usize = service
        .run_until_clean()
        .iter()
        .map(|report| report.planned.len())
        .sum();
    assert_eq!(planned, SNAPSHOT_CACHES);
    let order = talus_bench::rotation_order(SNAPSHOT_CACHES, 1 << 16, 3);
    let mut step = 0;
    c.bench_function("serve_snapshot/random_8192", |b| {
        b.iter(|| {
            step = (step + 1) % order.len();
            black_box(service.snapshot(ids[order[step]]))
        })
    });
}

criterion_group!(name = benches; config = fast_criterion();
    targets = bench_serve_ingest, bench_serve_epoch, bench_serve_snapshot);

/// Per row and rotation; a row's total is [`ROTATIONS`] times this.
fn fast_criterion() -> Criterion {
    Criterion::default()
        .sample_size(10)
        .warm_up_time(std::time::Duration::from_millis(150))
        .measurement_time(std::time::Duration::from_millis(400))
}

criterion_main!(benches);
