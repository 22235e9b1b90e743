//! `talus-serve` driver: a threaded, sharded reconfiguration-plane demo.
//! Producer threads stream monitor-measured curve updates for many logical
//! caches — each cache a multi-tenant interference workload — while the
//! planner thread batches dirty caches into per-shard epochs and publishes
//! versioned snapshots.
//!
//! ```text
//! cargo run -p talus-serve --release [-- <caches> <tenants> <intervals> <shards> <threaded 0|1> [rpc]]
//! cargo run -p talus-serve --release -- store [dir]                # crash/restore smoke
//! cargo run -p talus-serve --release -- store-dump <dir> [--json]  # print a journal
//! cargo run -p talus-serve --release -- cluster [dir]              # multi-process smoke
//! cargo run -p talus-serve --release -- analytic [caches tenants shards]  # analytic-backend smoke
//! ```
//!
//! With `<shards> > 1` the service is a [`ShardedReconfigService`]:
//! submissions for caches on different shards never contend, and with
//! `<threaded> = 1` each shard plans its epochs on a dedicated worker.
//!
//! With a trailing `rpc` argument the same profile runs through a real
//! loopback TCP socket: an [`RpcServer`] fronts the plane, every
//! producer thread is an [`RpcClient`] streaming curves over the wire,
//! epochs are driven by a remote `run_epoch`, and the final snapshots
//! are read back via remote `report` calls — the CI smoke test for the
//! whole network layer.
//!
//! `store` runs the persistence smoke test: journal a monitored
//! multi-tenant run into a `talus-store` directory (default
//! `target/store-smoke`), drop the plane, warm-restart a fresh one from
//! the journal, and verify the restored snapshots are bit-identical —
//! then keep serving. `store-dump` pretty-prints an existing journal
//! directory, record by record.
//!
//! `analytic` runs the analytic-backend smoke test: the same loopback
//! RPC plane, but every tenant's curve comes from
//! [`AnalyticCurveSource`] — synthesised in microseconds from workload
//! *specs* (SPEC-profile mixtures and the multi-tenant phase model),
//! with no address stream generated or recorded at all. The run prints
//! the measured per-curve synthesis cost and exits nonzero if any
//! analytic-fed cache ends without a published plan, with a
//! wrong-arity or empty allocation vector, or with a plan that
//! over-commits the cache's capacity — the CI gate that the analytic
//! backend feeds the full planning stack end to end.
//!
//! `cluster` runs the multi-process smoke test: three real
//! `cluster-server` child processes each own two of six global shards
//! (journaling into their own store directories), a [`ClusterClient`]
//! drives registration, curve ingest, and epochs over loopback — then
//! one member is killed mid-run, surviving shards keep serving while
//! the dead slice fails fast with a typed `ShardDown`, the member is
//! restarted from its journal and re-handshaked, and every final
//! snapshot is asserted bit-identical to a single-process twin plane
//! fed the same stream. (`cluster-server` is the hidden per-member
//! entry point the smoke re-executes itself with.)

use std::path::Path;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::thread;
use std::time::Duration;

use talus_serve::{CacheId, CacheSpec, RpcClient, RpcServer, ShardedReconfigService};
use talus_sim::monitor::{MonitorSource, SampledMattson};
use talus_sim::LineAddr;
use talus_store::{Record, Store, StoreSink};
use talus_workloads::{multi_tenant, AccessGenerator};

/// Footprint shrink factor for the demo workloads.
const SCALE: f64 = 1.0 / 256.0;
/// Lines per logical cache.
const CAPACITY: u64 = 4096;
/// Accesses per monitoring interval per tenant.
const INTERVAL: u64 = 40_000;
/// Producer-side monitor sampling ratio (one in `R` lines tracked). The
/// driver is the "production" configuration, so it runs the SHARDS-style
/// sampled monitor — `MonitorSource` feeds it block-at-a-time — rather
/// than the exact (and much slower) Mattson pass the replay example uses
/// for its bit-exact offline-equivalence checks.
const SAMPLE_RATIO: u64 = 8;

fn arg(n: usize, default: usize) -> usize {
    std::env::args()
        .nth(n)
        .and_then(|a| a.parse().ok())
        .unwrap_or(default)
}

fn main() {
    match std::env::args().nth(1).as_deref() {
        Some("store") => {
            let dir = std::env::args()
                .nth(2)
                .unwrap_or_else(|| "target/store-smoke".into());
            run_store_smoke(Path::new(&dir));
            return;
        }
        Some("store-dump") => {
            let dir = std::env::args()
                .nth(2)
                .expect("store-dump needs a journal directory");
            let json = std::env::args().nth(3).as_deref() == Some("--json");
            run_store_dump(Path::new(&dir), json);
            return;
        }
        Some("cluster") => {
            let dir = std::env::args()
                .nth(2)
                .unwrap_or_else(|| "target/cluster-smoke".into());
            run_cluster_smoke(Path::new(&dir));
            return;
        }
        Some("cluster-server") => {
            run_cluster_server();
            return;
        }
        Some("analytic") => {
            run_analytic_smoke();
            return;
        }
        _ => {}
    }
    let caches = arg(1, 4);
    let tenants = arg(2, 3);
    let intervals = arg(3, 4);
    let shards = arg(4, 4).max(1);
    let threaded = arg(5, 1) != 0;
    let rpc = std::env::args().nth(6).as_deref() == Some("rpc");
    println!(
        "talus-serve: {caches} caches x {tenants} tenants, {intervals} monitoring intervals, \
         {shards} shard(s){}{}",
        if threaded { " (threaded epochs)" } else { "" },
        if rpc { " (loopback rpc)" } else { "" }
    );

    let service = ShardedReconfigService::new(shards);
    let service = Arc::new(if threaded {
        service.with_threads()
    } else {
        service
    });
    if rpc {
        run_rpc(service, caches, tenants, intervals);
        return;
    }
    let producers_done = Arc::new(AtomicBool::new(false));

    // One producer thread per logical cache: each cache hosts one
    // multi-tenant interference workload (phase-shifted sweeps over a
    // shared region), measured per tenant and submitted every interval.
    let mut producer_handles = Vec::new();
    let mut ids: Vec<CacheId> = Vec::new();
    for c in 0..caches {
        let id = service.register(CacheSpec::new(CAPACITY, tenants));
        ids.push(id);
        let service = Arc::clone(&service);
        let profile = multi_tenant(tenants).scaled(SCALE);
        producer_handles.push(thread::spawn(move || {
            let mut sources: Vec<_> = (0..tenants)
                .map(|t| {
                    let mut gen = profile.tenant_generator(t, 7 + c as u64);
                    let next: Box<dyn FnMut() -> LineAddr> = Box::new(move || gen.next_line());
                    let monitor =
                        SampledMattson::new(2 * CAPACITY, SAMPLE_RATIO, 0xCAFE + c as u64);
                    let mut s = MonitorSource::new(monitor, INTERVAL, next);
                    s.warm_up(INTERVAL / 2);
                    s
                })
                .collect();
            for _ in 0..intervals {
                for (t, source) in sources.iter_mut().enumerate() {
                    service
                        .submit_from(id, t, source)
                        .expect("cache registered and tenant in range");
                }
            }
        }));
    }

    // The planner thread: every run_epoch call batches each shard's dirty
    // caches (concurrently across shards in threaded mode).
    let planner = {
        let service = Arc::clone(&service);
        let done = Arc::clone(&producers_done);
        thread::spawn(move || {
            let mut planned_total = 0usize;
            loop {
                let report = service.run_epoch();
                planned_total += report.planned.len();
                if !report.is_idle() {
                    println!(
                        "epoch {:>3}: planned {:>2}, deferred {}, failed {}, queued {}",
                        report.epoch,
                        report.planned.len(),
                        report.deferred.len(),
                        report.failed.len(),
                        report.remaining_dirty
                    );
                }
                for (_, err) in &report.failed {
                    // ServeError::Plan names the cache itself.
                    eprintln!("  {err}");
                }
                if done.load(Ordering::Acquire) && service.pending() == 0 {
                    break;
                }
                thread::sleep(Duration::from_millis(1));
            }
            planned_total
        })
    };

    for h in producer_handles {
        h.join().expect("producer thread panicked");
    }
    producers_done.store(true, Ordering::Release);
    let planned_total = planner.join().expect("planner thread panicked");

    println!("\nfinal published snapshots:");
    for id in &ids {
        match service.snapshot(*id) {
            Some(snap) => println!(
                "  {id} [shard {}]: version {} (epoch {}, {} updates) allocations {:?}",
                service.shard_index(*id),
                snap.version,
                snap.epoch,
                snap.updates,
                snap.allocations()
            ),
            None => println!(
                "  {id} [shard {}]: no plan published",
                service.shard_index(*id)
            ),
        }
    }
    println!(
        "{} epochs run, {planned_total} cache replans published across {} shard(s).",
        service.epochs(),
        service.shards()
    );
}

/// The same multi-tenant profile, but every interaction with the plane —
/// registration, curve ingest, epoch control, snapshot reads — crosses a
/// real loopback TCP socket through the v1 wire protocol.
fn run_rpc(service: Arc<ShardedReconfigService>, caches: usize, tenants: usize, intervals: usize) {
    let server = RpcServer::bind("127.0.0.1:0", Arc::clone(&service)).expect("bind loopback");
    let handle = server.spawn().expect("spawn accept loop");
    let addr = handle.local_addr();
    println!("rpc server listening on {addr}");

    let mut control = RpcClient::connect(addr).expect("connect control client");
    control.ping().expect("server answers ping");
    let ids: Vec<CacheId> = (0..caches)
        .map(|_| {
            control
                .register(CAPACITY, tenants as u32)
                .expect("register over rpc")
        })
        .collect();

    let producers_done = Arc::new(AtomicBool::new(false));
    let mut producer_handles = Vec::new();
    for (c, &id) in ids.iter().enumerate() {
        let profile = multi_tenant(tenants).scaled(SCALE);
        producer_handles.push(thread::spawn(move || {
            let mut client = RpcClient::connect(addr).expect("connect producer client");
            let mut sources: Vec<_> = (0..tenants)
                .map(|t| {
                    let mut gen = profile.tenant_generator(t, 7 + c as u64);
                    let next: Box<dyn FnMut() -> LineAddr> = Box::new(move || gen.next_line());
                    let monitor =
                        SampledMattson::new(2 * CAPACITY, SAMPLE_RATIO, 0xCAFE + c as u64);
                    let mut s = MonitorSource::new(monitor, INTERVAL, next);
                    s.warm_up(INTERVAL / 2);
                    s
                })
                .collect();
            for _ in 0..intervals {
                for (t, source) in sources.iter_mut().enumerate() {
                    client
                        .submit_from(id, t, source)
                        .expect("cache registered and tenant in range");
                }
            }
        }));
    }

    // The epoch driver is remote too: one client looping run_epoch.
    let planner = {
        let service = Arc::clone(&service);
        let done = Arc::clone(&producers_done);
        thread::spawn(move || {
            let mut client = RpcClient::connect(addr).expect("connect planner client");
            let mut planned_total = 0usize;
            loop {
                let report = client.run_epoch().expect("run epoch over rpc");
                planned_total += report.planned.len();
                if !report.is_idle() {
                    println!(
                        "epoch {:>3}: planned {:>2}, deferred {}, failed {}, queued {}",
                        report.epoch,
                        report.planned.len(),
                        report.deferred.len(),
                        report.failed.len(),
                        report.remaining_dirty
                    );
                }
                if done.load(Ordering::Acquire) && service.pending() == 0 {
                    break;
                }
                thread::sleep(Duration::from_millis(1));
            }
            planned_total
        })
    };

    for h in producer_handles {
        h.join().expect("producer thread panicked");
    }
    producers_done.store(true, Ordering::Release);
    let planned_total = planner.join().expect("planner thread panicked");

    println!("\nfinal published snapshots (read back over rpc):");
    for id in &ids {
        match control.report(*id).expect("report over rpc") {
            Some(summary) => {
                let allocations: Vec<u64> = summary.tenants.iter().map(|t| t.capacity).collect();
                println!(
                    "  {id} [shard {}]: version {} (epoch {}, {} updates) allocations {allocations:?}",
                    service.shard_index(*id),
                    summary.version,
                    summary.epoch,
                    summary.updates,
                );
                // The wire summary must mirror the in-process snapshot.
                let snap = service.snapshot(*id).expect("snapshot exists");
                assert_eq!(snap.allocations(), allocations, "rpc report drifted");
                assert_eq!(snap.version, summary.version, "rpc report drifted");
            }
            None => println!(
                "  {id} [shard {}]: no plan published",
                service.shard_index(*id)
            ),
        }
    }
    println!(
        "{} epochs run, {planned_total} cache replans published across {} shard(s), all over rpc.",
        service.epochs(),
        service.shards()
    );
    print_health(&handle.health());
    handle.shutdown();
}

/// One operator-readable line per health report.
fn print_health(health: &talus_core::PlaneHealth) {
    println!(
        "health: {} | {} epochs, {} caches ({} pending), shards {} ok / {} degraded, \
         quarantined {:?}, store {:?}, {} connection(s) ({} rejected)",
        if health.is_healthy() {
            "ok"
        } else {
            "DEGRADED"
        },
        health.epochs,
        health.caches,
        health.pending,
        health.ok(),
        health.degraded(),
        health.quarantined,
        health.store,
        health.connections,
        health.rejected,
    );
}

/// The analytic-backend smoke test: a loopback RPC plane fed entirely by
/// [`AnalyticCurveSource`] — curves synthesised from workload specs in
/// microseconds, no address stream generated or monitored anywhere in
/// the process. Tenant 0 of every cache runs the multi-tenant phase
/// model; the rest cycle through the memory-intensive SPEC roster, so
/// the plans have genuinely heterogeneous curves to trade off. Exits
/// nonzero if any cache ends without a valid plan — the shape checks
/// mirror what an applier would reject: missing snapshot, wrong
/// allocation arity, an all-zero carve-up, or capacity over-commit.
fn run_analytic_smoke() {
    use std::time::Instant;
    use talus_workloads::{memory_intensive, AnalyticCurveSource};

    let caches = arg(2, 4);
    let tenants = arg(3, 3).max(1);
    let shards = arg(4, 2).max(1);
    println!(
        "analytic smoke: {caches} caches x {tenants} tenants over loopback rpc, \
         {shards} shard(s), curves from specs (no address streams)"
    );

    let service = Arc::new(ShardedReconfigService::new(shards));
    let handle = RpcServer::bind("127.0.0.1:0", Arc::clone(&service))
        .expect("bind loopback")
        .spawn()
        .expect("spawn accept loop");
    let mut client = RpcClient::connect(handle.local_addr()).expect("connect");
    client.ping().expect("server answers ping");

    let ids: Vec<CacheId> = (0..caches)
        .map(|_| {
            client
                .register(CAPACITY, tenants as u32)
                .expect("register over rpc")
        })
        .collect();

    // Synthesise every tenant's curve straight from its spec. The timing
    // below is the backend's whole measurement cost — what replaces one
    // full monitoring interval (generate + record + extract) per tenant.
    let roster = memory_intensive();
    let mt = multi_tenant(tenants).scaled(SCALE);
    let started = Instant::now();
    let mut sources: Vec<Vec<AnalyticCurveSource>> = (0..caches)
        .map(|_| {
            (0..tenants)
                .map(|t| {
                    if t == 0 {
                        AnalyticCurveSource::from_multi_tenant(&mt, 2 * CAPACITY)
                    } else {
                        let p = roster[(t - 1) % roster.len()].scaled(SCALE);
                        AnalyticCurveSource::from_profile(&p, 2 * CAPACITY)
                    }
                })
                .collect()
        })
        .collect();
    let synth = started.elapsed();
    let curves = caches * tenants;
    println!(
        "synthesised {curves} curves in {:?} ({:.2} us/curve)",
        synth,
        synth.as_secs_f64() * 1e6 / curves as f64
    );

    for (c, id) in ids.iter().enumerate() {
        for (t, source) in sources[c].iter_mut().enumerate() {
            client
                .submit_from(*id, t, source)
                .expect("cache registered and tenant in range");
        }
    }
    while service.pending() > 0 {
        client.run_epoch().expect("run epoch over rpc");
    }

    // The exit-status gate: every analytic-fed cache must have published
    // a plan an applier could act on.
    let mut problems = Vec::new();
    println!("\nfinal published snapshots (analytic-fed):");
    for id in &ids {
        let Some(summary) = client.report(*id).expect("report over rpc") else {
            problems.push(format!("{id}: no plan published"));
            continue;
        };
        let allocations: Vec<u64> = summary.tenants.iter().map(|t| t.capacity).collect();
        println!(
            "  {id} [shard {}]: version {} (epoch {}, {} updates) allocations {allocations:?}",
            service.shard_index(*id),
            summary.version,
            summary.epoch,
            summary.updates,
        );
        if summary.version == 0 {
            problems.push(format!("{id}: unversioned plan"));
        }
        if allocations.len() != tenants {
            problems.push(format!(
                "{id}: {} allocation(s) for {tenants} tenant(s)",
                allocations.len()
            ));
        }
        let total: u64 = allocations.iter().sum();
        if total == 0 {
            problems.push(format!("{id}: empty carve-up"));
        }
        if total > CAPACITY {
            problems.push(format!("{id}: over-committed {total} of {CAPACITY} lines"));
        }
    }
    handle.shutdown();
    if !problems.is_empty() {
        eprintln!("analytic smoke FAILED: {problems:?}");
        std::process::exit(1);
    }
    println!(
        "{} epochs run, all {} analytic-fed caches published valid plans; analytic smoke ok",
        service.epochs(),
        ids.len()
    );
}

/// The persistence smoke test: journal a real monitored run, drop the
/// plane mid-life, warm-restart from the journal, verify the restored
/// snapshots bit-identical, and keep serving. This is the driver-level
/// proof the whole store stack (sink → journal → restore) holds together
/// outside the unit tests, and the CI `store` step runs exactly this.
fn run_store_smoke(dir: &Path) {
    let shards = 2;
    let caches = 3usize;
    let tenants = 2usize;
    let intervals = 3usize;
    println!(
        "store smoke: {caches} caches x {tenants} tenants, {intervals} intervals, \
         journaling into {} ({shards} shards)",
        dir.display()
    );
    std::fs::remove_dir_all(dir).ok();

    // Era one: a journaling plane serving monitored curves.
    let store = Arc::new(Store::open(dir, shards).expect("open store"));
    let plane =
        ShardedReconfigService::new(shards).with_sink(Arc::clone(&store) as Arc<dyn StoreSink>);
    let ids: Vec<CacheId> = (0..caches)
        .map(|_| plane.register(CacheSpec::new(CAPACITY, tenants)))
        .collect();
    for (c, id) in ids.iter().enumerate() {
        let profile = multi_tenant(tenants).scaled(SCALE);
        let mut sources: Vec<_> = (0..tenants)
            .map(|t| {
                let mut gen = profile.tenant_generator(t, 7 + c as u64);
                let next: Box<dyn FnMut() -> LineAddr> = Box::new(move || gen.next_line());
                let monitor = SampledMattson::new(2 * CAPACITY, SAMPLE_RATIO, 0xCAFE + c as u64);
                let mut s = MonitorSource::new(monitor, INTERVAL, next);
                s.warm_up(INTERVAL / 2);
                s
            })
            .collect();
        for _ in 0..intervals {
            for (t, source) in sources.iter_mut().enumerate() {
                plane
                    .submit_from(*id, t, source)
                    .expect("cache registered and tenant in range");
            }
            plane.run_epoch();
        }
    }
    assert_eq!(store.last_error(), None, "journaling must not fault");
    let health = plane.health();
    assert_eq!(
        health.store,
        talus_core::StoreHealth::Ok,
        "the journal's fault state is wired into plane health"
    );
    print_health(&health);
    let before: Vec<_> = ids.iter().map(|id| plane.snapshot(*id)).collect();
    let epochs_before = plane.epochs();
    println!(
        "era one: {} epochs, {} snapshots published; dropping the plane",
        epochs_before,
        before.iter().flatten().count()
    );
    drop(plane);
    drop(store);

    // Era two: a fresh process-worth of state, rebuilt from disk alone.
    let store = Arc::new(Store::open(dir, shards).expect("reopen store"));
    let plane = ShardedReconfigService::new(shards);
    let summary = plane.restore(&store).expect("journal restores");
    println!(
        "warm restart: {} records -> {} caches, {} snapshots, epoch {}, {} torn shard(s)",
        summary.records, summary.caches, summary.snapshots, summary.epochs, summary.torn_shards
    );
    assert_eq!(plane.epochs(), epochs_before, "epoch counter resumed");
    assert_eq!(plane.cache_ids(), ids, "cache handles recovered");
    for (id, want) in ids.iter().zip(&before) {
        assert_eq!(
            plane.snapshot(*id),
            *want,
            "{id}: snapshot bit-identical after warm restart"
        );
    }
    for id in &ids {
        let history = store.history(id.value()).expect("history reads");
        assert_eq!(
            history.len(),
            tenants * intervals,
            "{id}: every submitted curve is in the journal"
        );
        println!(
            "  {id}: {} journaled curves, snapshot version {:?}",
            history.len(),
            plane.snapshot(*id).map(|s| s.version)
        );
    }

    // Era two keeps serving — and journaling — where era one stopped.
    let plane = plane.with_sink(store as Arc<dyn StoreSink>);
    let id = plane.register(CacheSpec::new(CAPACITY, 1));
    let curve = talus_core::MissCurve::from_samples(&[0.0, 2048.0, 4096.0], &[9.0, 8.0, 1.0])
        .expect("valid curve");
    plane.submit(id, 0, curve).expect("fresh cache accepts");
    let report = plane.run_epoch();
    assert!(report.planned.contains(&id), "post-restart epoch plans");
    println!(
        "era two: epoch {} planned {:?}; store smoke ok",
        report.epoch, report.planned
    );
}

/// One JSON array of `u64`s, e.g. `[3,1,4]`.
fn json_u64s(values: &[u64]) -> String {
    let items: Vec<String> = values.iter().map(u64::to_string).collect();
    format!("[{}]", items.join(","))
}

/// One record as a single-line JSON object. Hand-rolled: every field is
/// an integer or an integer array, so no escaping is ever needed.
fn record_json(file_shard: usize, rec: &Record) -> String {
    match rec {
        Record::Register {
            seq,
            id,
            capacity,
            tenants,
            ..
        } => format!(
            r#"{{"shard":{file_shard},"seq":{seq},"type":"register","id":{id},"capacity":{capacity},"tenants":{tenants}}}"#
        ),
        Record::Deregister { seq, id } => {
            format!(r#"{{"shard":{file_shard},"seq":{seq},"type":"deregister","id":{id}}}"#)
        }
        Record::Curve {
            seq,
            id,
            tenant,
            curve,
        } => format!(
            r#"{{"shard":{file_shard},"seq":{seq},"type":"curve","id":{id},"tenant":{tenant},"points":{}}}"#,
            curve.len()
        ),
        Record::EpochCut {
            seq,
            shard,
            epoch,
            drained,
        } => format!(
            r#"{{"shard":{file_shard},"seq":{seq},"type":"epoch-cut","cut_shard":{shard},"epoch":{epoch},"drained":{}}}"#,
            json_u64s(drained)
        ),
        Record::Plan {
            seq,
            id,
            epoch,
            version,
            updates,
            plan,
        } => format!(
            r#"{{"shard":{file_shard},"seq":{seq},"type":"plan","id":{id},"epoch":{epoch},"version":{version},"updates":{updates},"allocations":{}}}"#,
            json_u64s(&plan.allocations())
        ),
    }
}

/// Pretty-prints a journal directory, record by record: the operator's
/// view of what a warm restart would replay. With `json`, emits one
/// JSON object per record on stdout (summaries go to stderr), so the
/// output pipes straight into `jq`.
fn run_store_dump(dir: &Path, json: bool) {
    let shards = std::fs::read_dir(dir)
        .unwrap_or_else(|e| panic!("cannot read {}: {e}", dir.display()))
        .filter_map(|entry| entry.ok())
        .filter(|entry| {
            let name = entry.file_name();
            let name = name.to_string_lossy();
            name.starts_with("shard-") && name.ends_with(".talus")
        })
        .count();
    assert!(shards > 0, "no shard-*.talus files in {}", dir.display());
    let store = Store::open(dir, shards).expect("open store");
    let summary = format!(
        "{}: {} shard(s), {} records, {} torn byte(s) dropped at open",
        dir.display(),
        shards,
        store.recovery().records(),
        store.recovery().torn_bytes()
    );
    // Records print as they stream off the file: a dump holds one window
    // of the journal, however long the journal is.
    if json {
        eprintln!("{summary}");
        for shard in 0..shards {
            let mut records = store.stream_shard(shard).expect("open shard");
            for rec in records.by_ref() {
                println!("{}", record_json(shard, &rec.expect("read shard")));
            }
            if let Some(tail) = records.tail() {
                eprintln!("shard {shard}: torn tail: {tail}");
            }
        }
        return;
    }
    println!("{summary}");
    for shard in 0..shards {
        println!("shard {shard}:");
        let mut records = store.stream_shard(shard).expect("open shard");
        let mut printed = 0usize;
        for rec in records.by_ref() {
            let rec = rec.expect("read shard");
            printed += 1;
            let detail = match &rec {
                Record::Register {
                    id,
                    capacity,
                    tenants,
                    ..
                } => format!("cache {id}: capacity {capacity}, {tenants} tenant(s)"),
                Record::Deregister { id, .. } => format!("cache {id}"),
                Record::Curve {
                    id, tenant, curve, ..
                } => format!("cache {id} tenant {tenant}: {} points", curve.len()),
                Record::EpochCut { epoch, drained, .. } => {
                    format!("epoch {epoch}: drained {drained:?}")
                }
                Record::Plan {
                    id,
                    epoch,
                    version,
                    plan,
                    ..
                } => format!(
                    "cache {id} v{version} (epoch {epoch}): allocations {:?}",
                    plan.allocations()
                ),
            };
            println!("  seq {:>5}  {:<10} {detail}", rec.seq(), rec.label());
        }
        if let Some(tail) = records.tail() {
            println!("  (torn tail: {tail})");
        }
        // Counted as printed, not taken from the open's recovery: the
        // stream covers the file as it was when the stream opened.
        println!("  {printed} records");
    }
}

/// Child processes of the cluster smoke, killed (and reaped) on drop so
/// a panicking parent never leaks servers holding the CI step open.
struct ClusterProcs {
    children: Vec<Option<std::process::Child>>,
}

impl ClusterProcs {
    fn kill(&mut self, member: usize) {
        if let Some(mut child) = self.children[member].take() {
            child.kill().expect("kill member");
            child.wait().expect("reap member");
        }
    }
}

impl Drop for ClusterProcs {
    fn drop(&mut self) {
        for child in self.children.iter_mut().filter_map(Option::take) {
            let mut child = child;
            let _ = child.kill();
            let _ = child.wait();
        }
    }
}

/// Re-executes this binary as one `cluster-server` member and waits for
/// it to publish its ephemeral port. `incarnation` names the port file,
/// so a restart never reads its predecessor's stale port.
fn spawn_member(
    dir: &Path,
    total: usize,
    first: usize,
    count: usize,
    member: usize,
    incarnation: u32,
) -> (std::process::Child, String) {
    let member_dir = dir.join(format!("member-{member}"));
    let portfile = dir.join(format!("member-{member}.port.{incarnation}"));
    std::fs::remove_file(&portfile).ok();
    let exe = std::env::current_exe().expect("current exe");
    let child = std::process::Command::new(exe)
        .args([
            "cluster-server".to_string(),
            total.to_string(),
            first.to_string(),
            count.to_string(),
            member_dir.display().to_string(),
            portfile.display().to_string(),
        ])
        // Children must not hold the parent's stdout: a CI step waits
        // for the pipe to close, and a leaked child would hang it.
        .stdout(std::process::Stdio::null())
        .spawn()
        .expect("spawn member process");
    let deadline = std::time::Instant::now() + Duration::from_secs(10);
    let addr = loop {
        match std::fs::read_to_string(&portfile) {
            Ok(s) if !s.trim().is_empty() => break s.trim().to_string(),
            _ => {
                assert!(
                    std::time::Instant::now() < deadline,
                    "member {member} did not publish its port within 10s"
                );
                thread::sleep(Duration::from_millis(20));
            }
        }
    };
    (child, addr)
}

/// The hidden per-member entry point the cluster smoke re-executes
/// itself with: `cluster-server <total> <first> <count> <dir>
/// <portfile>`. Opens (or re-opens) the member's journal slice,
/// restores its plane, binds an ephemeral loopback port, publishes the
/// address atomically via the port file, and serves until killed.
fn run_cluster_server() {
    let argv: Vec<String> = std::env::args().collect();
    assert!(
        argv.len() == 7,
        "usage: cluster-server <total> <first> <count> <dir> <portfile>"
    );
    let total: usize = argv[2].parse().expect("total shards");
    let first: usize = argv[3].parse().expect("first shard");
    let count: usize = argv[4].parse().expect("shard count");
    let dir = Path::new(&argv[5]);
    let portfile = Path::new(&argv[6]);

    let topology = talus_core::ShardTopology::range(total, first, count);
    let store = Arc::new(
        Store::open(dir, count)
            .expect("open member store")
            .with_topology(topology),
    );
    let plane = ShardedReconfigService::new(count).with_topology(topology);
    let summary = plane.restore(&store).expect("member journal restores");
    let plane = plane.with_sink(Arc::clone(&store) as Arc<dyn StoreSink>);
    let handle = RpcServer::bind("127.0.0.1:0", Arc::new(plane))
        .expect("bind member loopback")
        .spawn()
        .expect("spawn member accept loop");
    let addr = handle.local_addr();
    eprintln!(
        "cluster-server: shards {first}..{} of {total} on {addr} ({} records restored)",
        first + count,
        summary.records
    );
    // Write-then-rename so the parent never reads a half-written port.
    let tmp = dir.parent().unwrap_or(Path::new(".")).join(format!(
        "{}.tmp",
        portfile.file_name().unwrap().to_string_lossy()
    ));
    std::fs::write(&tmp, format!("{addr}\n")).expect("write port file");
    std::fs::rename(&tmp, portfile).expect("publish port file");
    loop {
        thread::sleep(Duration::from_secs(3600));
    }
}

/// The multi-process smoke test: a real shard cluster over loopback —
/// spawn three member processes, drive them through a
/// [`ClusterClient`] in lockstep with a single-process twin plane,
/// kill one member mid-run, verify typed fast-failure plus surviving
/// shards serving, resurrect the member from its journal, and assert
/// every final snapshot bit-identical to the twin's.
fn run_cluster_smoke(dir: &Path) {
    use talus_serve::{ClusterClient, ClusterConfig, ClusterError, RetryPolicy};

    const MEMBERS: usize = 3;
    const PER_MEMBER: usize = 2;
    let total = MEMBERS * PER_MEMBER;
    let caches = 8usize;
    println!(
        "cluster smoke: {MEMBERS} member processes x {PER_MEMBER} shards, {caches} caches, \
         journals under {}",
        dir.display()
    );
    std::fs::remove_dir_all(dir).ok();
    std::fs::create_dir_all(dir).expect("create cluster dir");

    let mut procs = ClusterProcs {
        children: Vec::new(),
    };
    let mut addrs = Vec::new();
    for m in 0..MEMBERS {
        let (child, addr) = spawn_member(dir, total, m * PER_MEMBER, PER_MEMBER, m, 0);
        procs.children.push(Some(child));
        addrs.push(addr);
    }
    let mut cluster = ClusterClient::connect_with(
        &addrs,
        ClusterConfig {
            deadline: Some(Duration::from_secs(2)),
            retry: RetryPolicy {
                attempts: 3,
                base: Duration::from_millis(5),
                cap: Duration::from_millis(50),
                seed: 0x7A15,
            },
            probe_interval: 2,
        },
    )
    .expect("cluster handshake");
    assert_eq!(
        cluster.total_shards(),
        total,
        "handshake assembled the plane"
    );
    println!("handshake ok: {total} global shards across {MEMBERS} members");

    // The oracle: one single-process plane with the same global layout,
    // fed the same stream. Bit-equality of ids, reports, and snapshots
    // is the whole point of fixed global placement.
    let twin = ShardedReconfigService::new(total);
    let curve = |tag: u64| {
        let sizes: Vec<f64> = (0..=8).map(|i| i as f64 * 512.0).collect();
        let misses: Vec<f64> = (0..=8)
            .map(|i| 40.0 - i as f64 * (3.0 + (tag % 5) as f64 * 0.5))
            .map(|m| m.max(0.0))
            .collect();
        talus_core::MissCurve::from_samples(&sizes, &misses).expect("valid curve")
    };
    let tenants = 2usize;

    // Phase 1: full-cluster traffic, epochs in lockstep with the twin.
    let ids: Vec<CacheId> = (0..caches)
        .map(|_| {
            let id = cluster
                .register(CAPACITY, tenants as u32)
                .expect("register");
            assert_eq!(
                id,
                twin.register(CacheSpec::new(CAPACITY, tenants)),
                "client-side minting matches the twin's server-side mint"
            );
            id
        })
        .collect();
    for (i, id) in ids.iter().enumerate() {
        for t in 0..tenants {
            let c = curve(1 + (i * tenants + t) as u64);
            cluster.submit(*id, t, c.clone()).expect("submit");
            twin.submit(*id, t, c).expect("registered");
        }
    }
    run_lockstep_epochs(&mut cluster, &twin);
    assert_snapshots_match(&mut cluster, &twin, &ids, "phase 1");
    println!(
        "phase 1: {} caches planned, snapshots bit-identical to the twin",
        ids.len()
    );

    // Phase 2: kill member 1. Its shards fail fast and typed; the
    // survivors' shards keep accepting work.
    let victim_member = 1usize;
    let victim_ids: Vec<CacheId> = ids
        .iter()
        .copied()
        .filter(|id| cluster.member_for(*id) == victim_member)
        .collect();
    let survivor_ids: Vec<CacheId> = ids
        .iter()
        .copied()
        .filter(|id| cluster.member_for(*id) != victim_member)
        .collect();
    assert!(
        !victim_ids.is_empty() && !survivor_ids.is_empty(),
        "the fixed mix64 placement spreads {caches} ids over both sides"
    );
    procs.kill(victim_member);
    println!(
        "phase 2: killed member {victim_member} (shards 2..4); {} cache(s) now dark",
        victim_ids.len()
    );
    for (i, id) in survivor_ids.iter().enumerate() {
        let c = curve(100 + i as u64);
        cluster
            .submit(*id, 0, c.clone())
            .expect("surviving shards keep accepting");
        twin.submit(*id, 0, c).expect("registered");
    }
    for id in &victim_ids {
        match cluster.submit(*id, 0, curve(200)) {
            Err(ClusterError::ShardDown {
                member,
                first_shard,
                shard_count,
                ..
            }) => {
                assert_eq!(member, victim_member, "the typed failure names the member");
                assert_eq!(
                    (first_shard, shard_count),
                    (victim_member * PER_MEMBER, PER_MEMBER),
                    "and its global shard range"
                );
            }
            other => panic!("{id}: expected ShardDown, got {other:?}"),
        }
    }
    let health = cluster.health();
    assert!(!health.is_healthy(), "the outage shows in cluster health");
    assert_eq!(
        health.unreachable_shards(),
        (victim_member * PER_MEMBER..(victim_member + 1) * PER_MEMBER).collect::<Vec<_>>(),
        "health names exactly the unreachable shards"
    );
    assert!(!health.members[victim_member].reachable);
    println!(
        "phase 2: {} survivor submit(s) ok, {} typed ShardDown(s), health names shards {:?}",
        survivor_ids.len(),
        victim_ids.len(),
        health.unreachable_shards()
    );

    // Phase 3: resurrect the member from its own journal slice, at a
    // fresh port, and re-handshake. Routing resumes; full traffic and
    // lockstep epochs; every snapshot must still match the twin.
    let (child, addr) = spawn_member(
        dir,
        total,
        victim_member * PER_MEMBER,
        PER_MEMBER,
        victim_member,
        1,
    );
    procs.children[victim_member] = Some(child);
    cluster
        .reconnect_member(victim_member, Some(addr.as_str()))
        .expect("journal-restored member rejoins");
    for (i, id) in ids.iter().enumerate() {
        let c = curve(300 + i as u64);
        cluster
            .submit(*id, 0, c.clone())
            .expect("submit after rejoin");
        twin.submit(*id, 0, c).expect("registered");
    }
    run_lockstep_epochs(&mut cluster, &twin);
    assert_snapshots_match(&mut cluster, &twin, &ids, "after resurrection");
    let health = cluster.health();
    assert!(health.is_healthy(), "cluster healthy after resurrection");
    assert_eq!(
        health.members[victim_member].outages, 1,
        "exactly one recorded outage"
    );
    println!(
        "phase 3: member {victim_member} restored from its journal and rejoined; all {} \
         snapshots bit-identical to the twin; cluster smoke ok",
        ids.len()
    );
}

/// Runs cluster and twin epochs in lockstep until both are idle,
/// asserting each merged cluster report bit-identical to the twin's.
fn run_lockstep_epochs(cluster: &mut talus_serve::ClusterClient, twin: &ShardedReconfigService) {
    loop {
        let ours = cluster.run_epoch().expect("cluster epoch");
        let theirs = twin.run_epoch();
        assert_eq!(
            ours.unreachable,
            Vec::<usize>::new(),
            "all members reachable"
        );
        assert_eq!(
            ours.report, theirs,
            "cluster epoch report bit-identical to the twin's"
        );
        if theirs.is_idle() {
            break;
        }
    }
}

/// Asserts every cache's wire-level snapshot summary from the cluster
/// equals the twin's local snapshot, bit for bit.
fn assert_snapshots_match(
    cluster: &mut talus_serve::ClusterClient,
    twin: &ShardedReconfigService,
    ids: &[CacheId],
    phase: &str,
) {
    for id in ids {
        let got = cluster.report(*id).expect("report");
        let want = twin
            .snapshot(*id)
            .map(|snap| talus_serve::wire::SnapshotSummary::from(&*snap));
        assert_eq!(got, want, "{id}: snapshot diverged from the twin ({phase})");
    }
}
