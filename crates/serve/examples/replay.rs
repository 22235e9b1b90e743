//! Replay a multi-tenant workload through the reconfiguration plane —
//! one shard, several, and across a socket.
//!
//! Two logical caches — one shared by three SPEC-shaped tenants, one by
//! two — stream monitor-measured miss curves into a one-shard
//! `ShardedReconfigService`, a 2-shard one,
//! **and** a third sharded plane reached only through `RpcClient` →
//! `RpcServer` over a real loopback TCP socket, over several monitoring
//! intervals. After each interval all three run one epoch, and we check
//! every published snapshot against a from-scratch offline computation
//! (talus-core hulls + talus-partition hill climbing + shadow planning)
//! on the very same curves — and the sharded and RPC-fed planes against
//! the one-shard plane, bit for bit: neither the router nor the wire
//! adds policy.
//!
//! A fourth twin journals everything into a `talus-store` directory and
//! is killed (dropped) after the first interval; a fresh plane
//! warm-restarts from the journal and plays the remaining intervals.
//! Its epochs and snapshots must keep matching the uninterrupted planes
//! bit for bit: the crash adds nothing either.
//!
//! A fifth plane is fed no measurements at all: every tenant's curve
//! comes from `AnalyticCurveSource`, synthesised directly from the same
//! profile specs the generators run. Its plans can't be bit-identical to
//! the monitored ones (the curves are models, not measurements), so it
//! is cross-checked for plan *shape* instead — every snapshot published
//! with a nonzero carve-up inside capacity, planned exactly once (its
//! curves are static and bit-identical resubmission is a no-op), stable
//! across intervals, and each tenant's allocation within a small band of
//! the monitored plane's — the paper's monitor-agnostic claim made
//! executable.
//!
//! Curves come from exact Mattson monitors (the checks are bit-exact, so
//! determinism matters more than speed here); ingest still rides the
//! batched path — `MonitorSource` feeds every monitor through
//! `Monitor::record_block`. A production producer would run the same
//! source over the SHARDS-style `SampledMattson`, as the repo
//! benchmark's `producer_fed` workload does.
//!
//! ```text
//! cargo run -p talus-serve --example replay
//! ```

use std::collections::HashMap;

use talus_core::{plan_with_hull, MissCurve, TalusOptions};
use talus_partition::hill_climb;
use talus_serve::{CacheId, CacheSpec, RpcClient, RpcServer, ShardedReconfigService};
use talus_sim::monitor::{MattsonMonitor, MonitorSource};
use talus_sim::LineAddr;
use talus_store::{Store, StoreSink};
use talus_workloads::{profile, AccessGenerator, AnalyticCurveSource};

/// Shrink every profile footprint by this factor (keeps the replay fast
/// while preserving curve shapes).
const SCALE: f64 = 1.0 / 256.0;
/// Accesses per monitoring interval per tenant.
const INTERVAL: u64 = 50_000;
/// Warmup accesses per tenant before the first interval.
const WARMUP: u64 = 25_000;
/// Monitoring intervals to replay.
const INTERVALS: usize = 3;
/// Shards in the sharded twin of the service.
const SHARDS: usize = 2;

type Source = MonitorSource<MattsonMonitor, Box<dyn FnMut() -> LineAddr>>;

/// A warmed-up Mattson-backed curve source for one named profile.
fn tenant_source(name: &str, cap_lines: u64, seed: u64) -> Source {
    let app = profile(name)
        .unwrap_or_else(|| panic!("unknown profile {name}"))
        .scaled(SCALE);
    let mut gen = app.generator(seed, 0);
    let mut source: Source = MonitorSource::new(
        MattsonMonitor::new(2 * cap_lines),
        INTERVAL,
        Box::new(move || gen.next_line()),
    );
    source.warm_up(WARMUP);
    source
}

/// Recomputes a cache's plan offline — raw talus-core + talus-partition,
/// no service involved — and checks it equals the published snapshot.
fn assert_matches_offline(
    service: &ShardedReconfigService,
    cache: CacheId,
    capacity: u64,
    curves: &[MissCurve],
) {
    let snap = service.snapshot(cache).expect("cache has a published plan");
    let grain = (capacity / 64).max(1);
    let hulls: Vec<MissCurve> = curves.iter().map(|c| c.convex_hull().to_curve()).collect();
    let sizes = hill_climb(&hulls, capacity, grain);
    assert_eq!(
        snap.allocations(),
        sizes,
        "{cache}: served allocation diverges from offline hill climb"
    );
    for (tenant, (curve, &size)) in curves.iter().zip(&sizes).enumerate() {
        let offline = plan_with_hull(&curve.convex_hull(), size as f64, TalusOptions::new())
            .expect("offline planning succeeds on monitor curves");
        assert_eq!(
            snap.plan.tenants[tenant].plan, offline,
            "{cache} tenant {tenant}: served shadow config diverges from offline plan"
        );
    }
}

fn main() {
    let service = ShardedReconfigService::new(1);
    let sharded = ShardedReconfigService::new(SHARDS);

    // The fifth plane never sees a measurement: its curves are
    // synthesised from the profile specs alone.
    let analytic_plane = ShardedReconfigService::new(1);

    // The third twin sits behind a real loopback socket; everything it
    // ingests crosses the wire protocol (`talus_serve::wire`).
    let remote = std::sync::Arc::new(ShardedReconfigService::new(SHARDS));
    let rpc = RpcServer::bind("127.0.0.1:0", std::sync::Arc::clone(&remote))
        .expect("bind loopback")
        .spawn()
        .expect("spawn accept loop");
    let mut client = RpcClient::connect(rpc.local_addr()).expect("connect");

    // The fourth twin journals every event; it dies after interval 0 and
    // a warm restart must put it right back in the equivalence chorus.
    let journal_dir =
        std::env::temp_dir().join(format!("talus-replay-journal-{}", std::process::id()));
    std::fs::remove_dir_all(&journal_dir).ok();
    let mut journal: Option<std::sync::Arc<Store>> = Some(std::sync::Arc::new(
        Store::open(&journal_dir, SHARDS).expect("open journal"),
    ));
    let mut journaled = Some(
        ShardedReconfigService::new(SHARDS).with_sink(std::sync::Arc::clone(
            journal.as_ref().expect("just opened"),
        ) as std::sync::Arc<dyn StoreSink>),
    );

    // Cache A: three tenants with very different curve shapes (a scan
    // cliff, a gentle convex decay, a mid-size working set) share 4096
    // lines. Cache B: two tenants share 2048 lines. Both services
    // register in the same order, so their CacheIds coincide.
    let mut caches: Vec<(CacheId, u64, Vec<&str>)> = Vec::new();
    for (capacity, tenants) in [
        (4096u64, vec!["libquantum", "omnetpp", "xalancbmk"]),
        (2048, vec!["milc", "mcf"]),
    ] {
        let id = service.register(CacheSpec::new(capacity, tenants.len()));
        let twin = sharded.register(CacheSpec::new(capacity, tenants.len()));
        assert_eq!(id, twin, "id allocation matches across configurations");
        let wire_twin = client
            .register(capacity, tenants.len() as u32)
            .expect("register over rpc");
        assert_eq!(id, wire_twin, "the rpc plane mints the same ids");
        let stored_twin = journaled
            .as_ref()
            .expect("alive before the kill")
            .register(CacheSpec::new(capacity, tenants.len()));
        assert_eq!(id, stored_twin, "the journaled plane mints the same ids");
        let analytic_twin = analytic_plane.register(CacheSpec::new(capacity, tenants.len()));
        assert_eq!(id, analytic_twin, "the analytic plane mints the same ids");
        caches.push((id, capacity, tenants));
    }

    // One analytic source per tenant, built from the same named specs the
    // generators run — no warmup, no accesses, no monitor.
    let mut analytic_sources: HashMap<(u64, usize), AnalyticCurveSource> = HashMap::new();
    for (id, capacity, tenants) in &caches {
        for (t, name) in tenants.iter().enumerate() {
            let app = profile(name)
                .unwrap_or_else(|| panic!("unknown profile {name}"))
                .scaled(SCALE);
            analytic_sources.insert(
                (id.value(), t),
                AnalyticCurveSource::from_profile(&app, 2 * capacity),
            );
        }
    }
    let mut analytic_allocs: HashMap<u64, Vec<u64>> = HashMap::new();

    // What the journal is *obliged* to hold: one record per submission
    // that actually changed a tenant's curve. Bit-identical resubmission
    // is a no-op by contract (no journal append), and a deterministic
    // scan like libquantum measures the same curve every interval.
    let mut last_submitted: HashMap<(u64, usize), MissCurve> = HashMap::new();
    let mut expected_journal: HashMap<u64, usize> = HashMap::new();

    let mut sources: HashMap<(u64, usize), Source> = HashMap::new();
    for (id, capacity, tenants) in &caches {
        for (t, name) in tenants.iter().enumerate() {
            sources.insert(
                (id.value(), t),
                tenant_source(name, *capacity, 42 + t as u64),
            );
        }
    }

    let mut published_epochs = 0u64;
    for interval in 0..INTERVALS {
        // Producers: one curve update per tenant per interval, fed to
        // both configurations.
        let mut latest: HashMap<u64, Vec<MissCurve>> = HashMap::new();
        for (id, _, tenants) in &caches {
            let mut curves = Vec::new();
            for t in 0..tenants.len() {
                let source = sources.get_mut(&(id.value(), t)).expect("registered");
                let curve = talus_core::CurveSource::next_curve(source)
                    .expect("monitor sources never exhaust");
                service
                    .submit(*id, t, curve.clone())
                    .expect("cache is registered and tenant in range");
                sharded
                    .submit(*id, t, curve.clone())
                    .expect("cache is registered and tenant in range");
                client
                    .stage(*id, t, curve.clone())
                    .expect("staging never hits the wire until flush");
                journaled
                    .as_ref()
                    .expect("restored before this interval")
                    .submit(*id, t, curve.clone())
                    .expect("cache is registered and tenant in range");
                if last_submitted.get(&(id.value(), t)) != Some(&curve) {
                    *expected_journal.entry(id.value()).or_default() += 1;
                    last_submitted.insert((id.value(), t), curve.clone());
                }
                // The analytic plane ingests through the same seam, but
                // its source replays a spec-derived model curve.
                let analytic_source = analytic_sources
                    .get_mut(&(id.value(), t))
                    .expect("registered");
                analytic_plane
                    .submit_latest(*id, t, analytic_source, 1)
                    .expect("cache is registered and tenant in range");
                curves.push(curve);
            }
            latest.insert(id.value(), curves);
        }

        // The planner: one epoch batches every dirty cache (per shard, in
        // the sharded twin).
        let report = service.run_epoch();
        let sharded_report = sharded.run_epoch();
        // run_epoch flushes the staged batch first, so every curve above
        // is visible; the report must be bit-identical to the local ones.
        let rpc_report = client.run_epoch().expect("epoch over rpc");
        assert_eq!(
            rpc_report, sharded_report,
            "the rpc-fed plane reports a different epoch"
        );
        let journaled_report = journaled
            .as_ref()
            .expect("restored before this interval")
            .run_epoch();
        assert_eq!(
            journaled_report, sharded_report,
            "the journaled plane reports a different epoch (interval {interval})"
        );
        // The analytic curves never change, and a bit-identical
        // resubmission is a no-op by contract — so the analytic plane has
        // work exactly once, and its first plan stands for the whole run.
        let analytic_report = analytic_plane.run_epoch();
        assert_eq!(
            analytic_report.planned.len(),
            if interval == 0 { caches.len() } else { 0 },
            "static analytic curves plan once, then resubmissions are no-ops"
        );
        println!(
            "interval {interval}: epoch {} planned {} cache(s), {} deferred, {} failed \
             (sharded twin planned {})",
            report.epoch,
            report.planned.len(),
            report.deferred.len(),
            report.failed.len(),
            sharded_report.planned.len(),
        );
        assert_eq!(report.planned.len(), caches.len());
        assert_eq!(
            report.planned, sharded_report.planned,
            "both configurations plan the same caches, in CacheId order"
        );
        published_epochs += 1;

        // Readers: snapshots must equal the offline planner's output, and
        // the sharded plane's snapshots must equal the one-shard plane's.
        for (id, capacity, _) in &caches {
            assert_matches_offline(&service, *id, *capacity, &latest[&id.value()]);
            let snap = service.snapshot(*id).expect("published");
            let sharded_snap = sharded.snapshot(*id).expect("published");
            assert_eq!(
                snap.plan, sharded_snap.plan,
                "{id}: sharded plan diverges from the one-shard plan"
            );
            assert_eq!(snap.version, sharded_snap.version);
            assert_eq!(snap.updates, sharded_snap.updates);
            // The RPC-fed plane: bit-identical server-side, and the wire
            // summary a remote applier reads must mirror that snapshot.
            let rpc_snap = remote.snapshot(*id).expect("published");
            assert_eq!(
                snap.plan, rpc_snap.plan,
                "{id}: rpc-fed plan diverges from the one-shard plan"
            );
            assert_eq!(snap.version, rpc_snap.version);
            let summary = client
                .report(*id)
                .expect("report over rpc")
                .expect("published");
            assert_eq!(summary.version, rpc_snap.version);
            let wire_allocs: Vec<u64> = summary.tenants.iter().map(|t| t.capacity).collect();
            assert_eq!(wire_allocs, rpc_snap.allocations());
            println!(
                "  {id} [shard {}]: version {} (epoch {}, {} updates) allocations {:?}",
                sharded.shard_index(*id),
                snap.version,
                snap.epoch,
                snap.updates,
                snap.allocations()
            );
            for (t, tenant) in snap.plan.tenants.iter().enumerate() {
                match tenant.plan.shadow() {
                    Some(cfg) => println!(
                        "    tenant {t}: {} lines, shadow α={:.0} β={:.0} ρ={:.3}",
                        tenant.capacity, cfg.alpha, cfg.beta, cfg.rho
                    ),
                    None => println!("    tenant {t}: {} lines, unpartitioned", tenant.capacity),
                }
            }
            let journaled_snap = journaled
                .as_ref()
                .expect("restored before this interval")
                .snapshot(*id)
                .expect("published");
            assert_eq!(
                snap.plan, journaled_snap.plan,
                "{id}: journaled plan diverges from the one-shard plan"
            );
            assert_eq!(snap.version, journaled_snap.version);

            // The analytic plane's plan-shape sanity: published and still
            // at version 1 (static curves → one plan), the right arity, a
            // nonzero carve-up inside capacity — and stable.
            let analytic_snap = analytic_plane
                .snapshot(*id)
                .expect("analytic plan published");
            assert_eq!(analytic_snap.version, 1, "{id}: one plan, standing");
            let allocs = analytic_snap.allocations();
            assert_eq!(allocs.len(), snap.allocations().len(), "{id}: arity");
            let total: u64 = allocs.iter().sum();
            assert!(
                total > 0 && total <= *capacity,
                "{id}: analytic carve-up {total} outside (0, {capacity}]"
            );
            match analytic_allocs.entry(id.value()) {
                std::collections::hash_map::Entry::Vacant(e) => {
                    e.insert(allocs);
                }
                std::collections::hash_map::Entry::Occupied(e) => assert_eq!(
                    e.get(),
                    &allocs,
                    "{id}: static analytic curves must yield a stable plan"
                ),
            }
        }

        // The kill: after the first interval the journaled plane dies —
        // dropped with its store handle — and a fresh plane warm-restarts
        // from the bytes on disk. Its very next epoch (interval 1) must
        // match the uninterrupted planes, proven by the asserts above.
        if interval == 0 {
            drop(journaled.take());
            drop(journal.take());
            let store =
                std::sync::Arc::new(Store::open(&journal_dir, SHARDS).expect("reopen journal"));
            let plane = ShardedReconfigService::new(SHARDS);
            let summary = plane.restore(&store).expect("warm restart");
            println!(
                "  journaled twin killed; warm restart replayed {} records \
                 ({} caches, {} snapshots, epoch {})",
                summary.records, summary.caches, summary.snapshots, summary.epochs
            );
            assert_eq!(summary.caches, caches.len());
            assert_eq!(summary.epochs, published_epochs);
            journal = Some(std::sync::Arc::clone(&store));
            journaled = Some(plane.with_sink(store as std::sync::Arc<dyn StoreSink>));
        }
    }

    // Every curve-*changing* submission to the journaled twin is on disk
    // — including the pre-kill interval — queryable per cache. (No-op
    // resubmissions of a bit-identical curve are deliberately absent.)
    let store = journal.expect("journal survives the run");
    for (id, _, tenants) in &caches {
        let history = store.history(id.value()).expect("history reads");
        assert_eq!(
            history.len(),
            expected_journal[&id.value()],
            "{id}: journal holds every distinct submitted curve across the crash"
        );
        assert!(
            history.len() >= tenants.len(),
            "{id}: every tenant journaled at least once"
        );
    }
    std::fs::remove_dir_all(&journal_dir).ok();

    // The monitor-agnostic cross-check: the analytic plane, planning on
    // spec-derived models alone, lands each tenant's allocation within a
    // small band of what the monitored planes chose from measurements.
    for (id, capacity, _) in &caches {
        let measured = service.snapshot(*id).expect("published").allocations();
        let modelled = &analytic_allocs[&id.value()];
        let band = capacity / 16;
        for (t, (&m, &a)) in measured.iter().zip(modelled).enumerate() {
            assert!(
                m.abs_diff(a) <= band,
                "{id} tenant {t}: analytic allocation {a} strays more than {band} lines \
                 from the monitored {m}"
            );
        }
        println!(
            "{id}: analytic allocations {modelled:?} vs monitored {measured:?} \
             (within {band} lines/tenant)"
        );
    }

    assert!(
        published_epochs >= 2,
        "replay must publish at least two plan epochs"
    );
    println!(
        "OK: {published_epochs} plan epochs published for {} caches; every snapshot matches the \
         offline planner, and the {SHARDS}-shard plane, the rpc-fed loopback plane, and \
         the journaled plane killed and warm-restarted after interval 0 all match the \
         one-shard plane bit for bit.",
        caches.len()
    );
    rpc.shutdown();
}
