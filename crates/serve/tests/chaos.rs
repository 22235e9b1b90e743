//! The partial-failure battery: every scripted fault the
//! [`talus_core::FaultScript`] seam can inject, asserted against the
//! plane's containment contracts.
//!
//! The discipline mirrors the equivalence suites: a faulted plane is
//! always compared against a fault-free twin fed the same operations,
//! and the assertion is *bit-identical* state for everything a fault
//! did not touch — a planner panic loses exactly one cache, a severed
//! connection loses exactly nothing (retries converge), a duplicated
//! batch changes exactly nothing (submission is idempotent), and every
//! degradation shows up in the health report.

mod common;

use std::sync::Arc;
use std::time::{Duration, Instant};

use common::temp_dir;
use proptest::prelude::*;
use talus_core::{
    FaultAction, FaultScript, MissCurve, PlanError, ShardState, ShardTopology, StoreHealth,
    TalusOptions,
};
use talus_serve::{
    CacheId, CacheSpec, PlanSnapshot, RetryPolicy, RpcClient, RpcError, RpcServer, ServeError,
    ServerHandle, ShardedReconfigService,
};
use talus_store::{Store, StoreError, StoreSink};

/// Wire opcodes faults key on at the `server.handle` site (pinned by
/// the golden bytes in `tests/wire.rs`).
const OP_SUBMIT: u64 = 0x03;
const OP_RUN_EPOCH: u64 = 0x04;
const OP_PING: u64 = 0x06;

/// The equivalence suites' curve family on a 9-point grid, so faulted and
/// fault-free planes receive identical inputs.
fn curve_from_seed(seed: u64) -> MissCurve {
    common::curve_on_grid(seed, 8)
}

/// Bit-level snapshot equality: the plan, its version, and its update
/// count. (Not the epoch stamp: a retried `RunEpoch` legitimately runs
/// an extra, empty epoch, shifting later stamps without changing any
/// published plan.)
fn assert_same_plan(a: &PlanSnapshot, b: &PlanSnapshot, context: &str) {
    assert_eq!(a.plan, b.plan, "{context}: plans diverge");
    assert_eq!(a.allocations(), b.allocations(), "{context}: allocations");
    assert_eq!(a.version, b.version, "{context}: versions diverge");
    assert_eq!(a.updates, b.updates, "{context}: update counts diverge");
}

fn loopback(service: Arc<ShardedReconfigService>, fault: Option<Arc<FaultScript>>) -> ServerHandle {
    let mut server = RpcServer::bind("127.0.0.1:0", service).expect("bind loopback");
    if let Some(script) = fault {
        server = server.with_fault_script(script);
    }
    server.spawn().expect("spawn accept loop")
}

// ---------------------------------------------------------------------
// Planner panics: quarantine exactly the victim.
// ---------------------------------------------------------------------

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// The headline containment property: with a scripted panic on one
    /// cache's planner, that cache — and only that cache — is
    /// quarantined. Its last-good snapshot keeps serving, every other
    /// cache's snapshot is bit-identical to a fault-free twin's, the
    /// quarantine is visible in both the `EpochReport` and the health
    /// report, and subsequent submissions bounce with a typed error.
    #[test]
    fn planner_panic_quarantines_exactly_the_victim(
        caches in 2usize..8,
        shards in 1usize..4,
        victim_index in 0usize..8,
        seed in any::<u64>(),
    ) {
        let faulted = ShardedReconfigService::new(shards);
        let clean = ShardedReconfigService::new(shards);
        let script = Arc::new(FaultScript::new());
        let faulted = faulted.with_fault_script(Arc::clone(&script));

        let ids: Vec<CacheId> = (0..caches)
            .map(|_| {
                let id = faulted.register(CacheSpec::new(512, 1));
                prop_assert_eq!(id, clean.register(CacheSpec::new(512, 1)));
                Ok(id)
            })
            .collect::<Result<_, _>>()?;
        let victim = ids[victim_index % ids.len()];

        // Round 1, fault-free: every cache gets a last-good snapshot.
        // (Round tags live above the generator's low-bit mangling so
        // round-2 curves are guaranteed distinct — an identical
        // resubmission would dedup to a no-op and never replan.)
        for (i, id) in ids.iter().enumerate() {
            let curve = curve_from_seed(seed ^ ((i as u64) << 8) ^ (1 << 32));
            faulted.submit(*id, 0, curve.clone()).expect("registered");
            clean.submit(*id, 0, curve).expect("registered");
        }
        faulted.run_until_clean();
        clean.run_until_clean();
        let last_good = faulted.snapshot(victim).expect("round-1 plan");

        // Round 2: fresh curves everywhere, and the victim's planner is
        // scripted to panic on its next plan.
        script.inject("shard.plan", Some(victim.value()), 0, 1, FaultAction::Panic);
        for (i, id) in ids.iter().enumerate() {
            let curve = curve_from_seed(seed ^ ((i as u64) << 8) ^ (2 << 32));
            faulted.submit(*id, 0, curve.clone()).expect("pre-quarantine");
            clean.submit(*id, 0, curve).expect("registered");
        }
        let faulted_reports = faulted.run_until_clean();
        clean.run_until_clean();
        prop_assert_eq!(script.fired("shard.plan"), 1, "the scripted panic fired");

        // The quarantine is reported exactly once, for exactly the victim.
        let reported: Vec<CacheId> = faulted_reports
            .iter()
            .flat_map(|r| r.quarantined.iter().copied())
            .collect();
        prop_assert_eq!(reported, vec![victim]);
        prop_assert_eq!(faulted.quarantined(), vec![victim]);

        // ... and in the health report, with the owning shard's count.
        let health = faulted.health();
        prop_assert_eq!(&health.quarantined, &vec![victim.value()]);
        prop_assert!(!health.is_healthy());
        let owner = faulted.shard_index(victim);
        prop_assert_eq!(health.shards[owner].quarantined, 1);

        // The victim still serves its last-good snapshot, bit-for-bit.
        let still_serving = faulted.snapshot(victim).expect("last-good survives");
        assert_same_plan(&still_serving, &last_good, "victim last-good");

        // Every sibling is bit-identical to the fault-free twin.
        for id in ids.iter().filter(|id| **id != victim) {
            let a = faulted.snapshot(*id).expect("sibling planned");
            let b = clean.snapshot(*id).expect("twin planned");
            assert_same_plan(&a, &b, "sibling");
        }

        // Submissions to the victim bounce with the typed rejection.
        prop_assert_eq!(
            faulted.submit(victim, 0, curve_from_seed(seed | 3)),
            Err(ServeError::Quarantined(victim))
        );
        // The plane is drained: the quarantined cache is not stuck in
        // the dirty queue burning every future epoch.
        prop_assert_eq!(faulted.pending(), 0);
    }
}

/// The quarantine protocol crosses the wire: a remote client sees the
/// victim in the epoch report, the typed submit rejection, and the
/// health report — all through `RpcClient`.
#[test]
fn quarantine_is_visible_over_rpc() {
    let script = Arc::new(FaultScript::new());
    let service = Arc::new(ShardedReconfigService::new(2).with_fault_script(Arc::clone(&script)));
    let handle = loopback(Arc::clone(&service), None);
    let mut client = RpcClient::connect(handle.local_addr()).expect("connect");

    let victim = client.register(512, 1).expect("register");
    let bystander = client.register(512, 1).expect("register");
    client
        .submit(victim, 0, curve_from_seed(1))
        .expect("submit");
    client
        .submit(bystander, 0, curve_from_seed(2))
        .expect("submit");
    script.inject("shard.plan", Some(victim.value()), 0, 1, FaultAction::Panic);

    let mut quarantined = Vec::new();
    while service.pending() > 0 {
        let report = client.run_epoch().expect("epoch over rpc");
        quarantined.extend(report.quarantined);
    }
    assert_eq!(quarantined, vec![victim], "epoch report, over the wire");

    match client.submit(victim, 0, curve_from_seed(3)) {
        Err(RpcError::Serve(ServeError::Quarantined(id))) => assert_eq!(id, victim),
        other => panic!("expected the typed quarantine rejection, got {other:?}"),
    }
    assert!(
        client.report(bystander).expect("report").is_some(),
        "the bystander planned normally"
    );

    let health = client.health().expect("health over rpc");
    assert_eq!(health.quarantined, vec![victim.value()]);
    assert!(!health.is_healthy());
    assert_eq!(health.caches, 2);
    // The one quarantine is all the damage: nothing else degraded.
    assert_eq!(health.degraded(), 0);
    assert_eq!(health.store, StoreHealth::None);
    handle.shutdown();
}

// ---------------------------------------------------------------------
// Deadlines: a hung server never blocks the client.
// ---------------------------------------------------------------------

/// A server scripted to sit on a request for far longer than the client
/// is willing to wait fails the call with [`RpcError::Deadline`] in
/// bounded time — the client never hangs on a hung server.
#[test]
fn deadline_bounds_a_hung_server() {
    let script = Arc::new(FaultScript::new());
    script.inject(
        "server.handle",
        Some(OP_PING),
        0,
        1,
        FaultAction::DelayMs(3_000),
    );
    let service = Arc::new(ShardedReconfigService::new(1));
    let handle = loopback(Arc::clone(&service), Some(Arc::clone(&script)));
    let mut client = RpcClient::connect(handle.local_addr())
        .expect("connect")
        .with_deadline(Duration::from_millis(100))
        .expect("deadline applies");

    let start = Instant::now();
    match client.ping() {
        Err(RpcError::Deadline) => {}
        other => panic!("expected Deadline, got {other:?}"),
    }
    assert!(
        start.elapsed() < Duration::from_millis(1_500),
        "the deadline bounded the wait (took {:?})",
        start.elapsed()
    );
    handle.shutdown();
}

// ---------------------------------------------------------------------
// Retry: connection chaos converges to the fault-free plane.
// ---------------------------------------------------------------------

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// Through scripted kill-connections, truncated replies, and busy
    /// sheds, a retrying client completes every idempotent operation
    /// and the plane converges to published state bit-identical to a
    /// fault-free local twin fed the same curves. Zero panics, zero
    /// surfaced transport errors.
    #[test]
    fn retry_converges_through_connection_chaos(
        seed in any::<u64>(),
        kill_skip in 0u64..3,
        truncate_skip in 0u64..2,
    ) {
        let script = Arc::new(FaultScript::new());
        // A severed connection mid-submit-stream, a truncated epoch
        // reply, and one mid-stream busy shed. Each fires once, at a
        // case-dependent point in the schedule.
        script.inject(
            "server.handle",
            Some(OP_SUBMIT),
            kill_skip,
            1,
            FaultAction::KillConnection,
        );
        script.inject(
            "server.handle",
            Some(OP_RUN_EPOCH),
            truncate_skip,
            1,
            FaultAction::TruncateFrame,
        );
        script.inject("server.handle", Some(OP_SUBMIT), 3, 1, FaultAction::Fail);

        let remote = Arc::new(ShardedReconfigService::new(2));
        let local = ShardedReconfigService::new(2);
        let handle = loopback(Arc::clone(&remote), Some(Arc::clone(&script)));
        let mut client = RpcClient::connect(handle.local_addr())
            .expect("connect")
            .with_deadline(Duration::from_secs(5))
            .expect("deadline applies")
            .with_retry(RetryPolicy {
                attempts: 5,
                base: Duration::from_millis(1),
                cap: Duration::from_millis(20),
                seed,
            });

        let ids: Vec<CacheId> = (0..4)
            .map(|_| {
                let id = client.register(512, 1).expect("register");
                prop_assert_eq!(id, local.register(CacheSpec::new(512, 1)));
                Ok(id)
            })
            .collect::<Result<_, _>>()?;

        for round in 0..3u64 {
            for (i, id) in ids.iter().enumerate() {
                let curve = curve_from_seed(seed ^ (round << 32) ^ (i as u64) << 8 | 1);
                client.submit(*id, 0, curve.clone()).expect("submit retries through chaos");
                local.submit(*id, 0, curve).expect("registered");
            }
            // Drain both planes (a retried epoch may leave the remote an
            // extra empty epoch ahead; published plans are unaffected).
            while remote.pending() > 0 {
                client.run_epoch().expect("epoch retries through chaos");
            }
            local.run_until_clean();
        }

        prop_assert!(
            script.fired("server.handle") >= 2,
            "the chaos schedule actually fired (fired {})",
            script.fired("server.handle")
        );
        for id in &ids {
            let a = remote.snapshot(*id).expect("published through chaos");
            let b = local.snapshot(*id).expect("published");
            assert_same_plan(&a, &b, "post-chaos");
        }
        prop_assert!(remote.quarantined().is_empty());
        prop_assert!(remote.health().quarantined.is_empty());
        handle.shutdown();
    }

    /// Submission is idempotent: a plane receiving every batch twice
    /// (duplicate delivery — exactly what an at-least-once retry
    /// produces) publishes state bit-identical to a plane receiving it
    /// once, *including* version and update counters, and both journals
    /// replay into planes bit-identical to their owners.
    #[test]
    fn duplicated_submission_batches_are_idempotent(
        seed in any::<u64>(),
        caches in 1usize..5,
        rounds in 1u64..4,
    ) {
        let dir_once = temp_dir("idem-once");
        let dir_twice = temp_dir("idem-twice");
        let store_once = Arc::new(Store::open(&dir_once, 2).expect("open"));
        let store_twice = Arc::new(Store::open(&dir_twice, 2).expect("open"));
        let once = ShardedReconfigService::new(2)
            .with_sink(Arc::clone(&store_once) as Arc<dyn StoreSink>);
        let twice = ShardedReconfigService::new(2)
            .with_sink(Arc::clone(&store_twice) as Arc<dyn StoreSink>);

        let ids: Vec<CacheId> = (0..caches)
            .map(|_| {
                let id = once.register(CacheSpec::new(512, 1));
                prop_assert_eq!(id, twice.register(CacheSpec::new(512, 1)));
                Ok(id)
            })
            .collect::<Result<_, _>>()?;

        for round in 0..rounds {
            for (i, id) in ids.iter().enumerate() {
                let curve = curve_from_seed(seed ^ (round << 32) ^ (i as u64) << 8 | 1);
                once.submit(*id, 0, curve.clone()).expect("registered");
                // Duplicate delivery: the same batch lands twice.
                twice.submit(*id, 0, curve.clone()).expect("registered");
                twice.submit(*id, 0, curve).expect("duplicate is accepted");
            }
            once.run_until_clean();
            twice.run_until_clean();
        }

        for id in &ids {
            let a = once.snapshot(*id).expect("published");
            let b = twice.snapshot(*id).expect("published");
            assert_same_plan(&a, &b, "duplicated delivery");
            prop_assert_eq!(a.epoch, b.epoch, "duplicates never cost an epoch");
        }
        prop_assert_eq!(once.epochs(), twice.epochs());

        // The journals agree too: each replays into a plane bit-identical
        // to its owner — the duplicate deliveries were never journaled.
        for (plane, store) in [(&once, &store_once), (&twice, &store_twice)] {
            let restored = ShardedReconfigService::new(2);
            restored.restore(store).expect("journal replays");
            prop_assert_eq!(restored.epochs(), plane.epochs());
            for id in &ids {
                let a = plane.snapshot(*id).expect("published");
                let b = restored.snapshot(*id).expect("restored");
                assert_same_plan(&a, &b, "restored");
                prop_assert_eq!(a.epoch, b.epoch);
            }
        }
        drop(once);
        drop(twice);
        std::fs::remove_dir_all(&dir_once).ok();
        std::fs::remove_dir_all(&dir_twice).ok();
    }
}

// ---------------------------------------------------------------------
// Worker death: one shard degrades, the epoch completes.
// ---------------------------------------------------------------------

/// A scripted panic kills shard 1's epoch worker mid-run. The epoch
/// still completes (the leader picks up the dead worker's shard after
/// the handoff deadline), every cache still gets its plan — identical
/// to an unthreaded twin's — and the health report shows exactly one
/// degraded shard.
#[test]
fn dead_worker_degrades_its_shard_not_the_epoch() {
    let script = Arc::new(FaultScript::new());
    script.inject("worker.epoch", Some(1), 0, 1, FaultAction::Panic);
    let threaded = ShardedReconfigService::new(3)
        .with_fault_script(Arc::clone(&script))
        .with_threads();
    let plain = ShardedReconfigService::new(3);

    let ids: Vec<CacheId> = (0..6)
        .map(|_| {
            let id = threaded.register(CacheSpec::new(512, 1));
            assert_eq!(id, plain.register(CacheSpec::new(512, 1)));
            id
        })
        .collect();
    for (i, id) in ids.iter().enumerate() {
        let curve = curve_from_seed(0xD00D ^ (i as u64) << 8);
        threaded.submit(*id, 0, curve.clone()).expect("registered");
        plain.submit(*id, 0, curve).expect("registered");
    }

    threaded.run_until_clean();
    plain.run_until_clean();
    assert_eq!(script.fired("worker.epoch"), 1, "the worker was killed");

    for id in &ids {
        let a = threaded
            .snapshot(*id)
            .expect("planned despite the dead worker");
        let b = plain.snapshot(*id).expect("planned");
        assert_same_plan(&a, &b, "degraded epoch");
    }
    let health = threaded.health();
    assert_eq!(health.degraded(), 1, "exactly the dead worker's shard");
    assert_eq!(health.shards[1].state, ShardState::Degraded);
    assert!(!health.is_healthy());

    // Degraded is sticky but not fatal: later epochs keep planning.
    for (i, id) in ids.iter().enumerate() {
        let curve = curve_from_seed(0xBEEF ^ (i as u64) << 8);
        threaded
            .submit(*id, 0, curve.clone())
            .expect("still serving");
        plain.submit(*id, 0, curve).expect("registered");
    }
    threaded.run_until_clean();
    plain.run_until_clean();
    for id in &ids {
        let a = threaded.snapshot(*id).expect("planned");
        let b = plain.snapshot(*id).expect("planned");
        assert_same_plan(&a, &b, "post-degradation epoch");
    }
}

// ---------------------------------------------------------------------
// Store faults and overload: every degradation is observable.
// ---------------------------------------------------------------------

/// A journal append failure trips the store's sticky fault flag, and
/// the plane's health report carries it — locally and over the wire.
#[test]
fn store_fault_surfaces_in_health() {
    let script = Arc::new(FaultScript::new());
    script.inject("store.append", None, 0, 1, FaultAction::Fail);
    let dir = temp_dir("store-fault");
    let store = Arc::new(
        Store::open(&dir, 1)
            .expect("open")
            .with_fault_script(Arc::clone(&script)),
    );
    let service = Arc::new(
        ShardedReconfigService::new(1).with_sink(Arc::clone(&store) as Arc<dyn StoreSink>),
    );
    assert_eq!(service.health().store, StoreHealth::Ok);

    // The next journaled event hits the scripted append failure.
    let id = service.register(CacheSpec::new(512, 1));
    assert!(store.faulted(), "the scripted append fault tripped");
    let health = service.health();
    assert_eq!(health.store, StoreHealth::Faulted);
    assert!(!health.is_healthy());

    // The plane itself keeps serving (journaling is best-effort by
    // design — the fault is observable, not fatal).
    service
        .submit(id, 0, curve_from_seed(5))
        .expect("still serving");
    service.run_until_clean();
    assert!(service.snapshot(id).is_some());

    // And the fault crosses the wire in a health reply.
    let handle = loopback(Arc::clone(&service), None);
    let mut client = RpcClient::connect(handle.local_addr()).expect("connect");
    assert_eq!(
        client.health().expect("health over rpc").store,
        StoreHealth::Faulted
    );
    handle.shutdown();
    drop(service);
    drop(store);
    std::fs::remove_dir_all(&dir).ok();
}
/// The three faults the journal's writer raises itself — an injected
/// append fault, a record for a shard the store does not own, an epoch
/// cut for a shard it does not have — keep `StoreError::Fault` in
/// `last_error`, not a decode failure, and the plane's health reports
/// each as a faulted store, as it reports a failed write.
#[test]
fn writer_faults_are_store_faults_not_decode_failures() {
    let topology = ShardTopology::range(2, 0, 1);
    let owned = (0..).find(|&id| topology.owns(id)).expect("an owned id");
    let unowned = (0..).find(|&id| !topology.owns(id)).expect("an unowned id");
    type Trigger = fn(&Store, u64, u64);
    let faults: [(&str, Trigger); 3] = [
        ("injected append fault", |store, owned, _| {
            store.deregister(owned)
        }),
        ("record for an unowned shard", |store, _, unowned| {
            store.deregister(unowned)
        }),
        ("epoch cut for unknown shard", |store, _, _| {
            store.epoch_cut(1, 1, &[])
        }),
    ];
    for (i, (what, trigger)) in faults.into_iter().enumerate() {
        let dir = temp_dir("writer-fault");
        let script = Arc::new(FaultScript::new());
        if i == 0 {
            script.inject("store.append", None, 0, 1, FaultAction::Fail);
        }
        let store = Arc::new(
            Store::open(&dir, 1)
                .expect("open")
                .with_topology(topology)
                .with_fault_script(script),
        );
        let plane = ShardedReconfigService::new(1)
            .with_topology(topology)
            .with_sink(Arc::clone(&store) as Arc<dyn StoreSink>);
        assert_eq!(plane.health().store, StoreHealth::Ok);
        trigger(&store, owned, unowned);
        assert_eq!(store.last_error(), Some(StoreError::Fault(what)));
        assert_eq!(plane.health().store, StoreHealth::Faulted, "{what}");
        std::fs::remove_dir_all(&dir).ok();
    }
}

/// A local caller may register a spec the wire refuses, here a negative
/// safety margin. The plane takes it and the journal records it as it
/// is: the store stays healthy, only that cache's plans fail, and the
/// reopened journal restores the cache under the spec it was given.
#[test]
fn a_local_spec_the_wire_refuses_is_journaled_and_costs_only_its_plans() {
    let dir = temp_dir("local-margin");
    let store = Arc::new(Store::open(&dir, 1).expect("open"));
    let service =
        ShardedReconfigService::new(1).with_sink(Arc::clone(&store) as Arc<dyn StoreSink>);
    let base = CacheSpec::new(512, 1);
    let bad_spec = base.with_planner(base.planner.with_options(TalusOptions {
        safety_margin: -0.5,
        ..TalusOptions::new()
    }));
    let good = service.register(base);
    let bad = service.register(bad_spec);
    for id in [good, bad] {
        service
            .submit(id, 0, curve_from_seed(5))
            .expect("registered");
    }
    let reports = service.run_until_clean();
    assert!(service.snapshot(good).is_some());
    assert!(service.snapshot(bad).is_none());
    assert!(reports
        .iter()
        .any(|r| r.failed.iter().any(|(id, e)| *id == bad
            && matches!(
                e,
                ServeError::Plan {
                    source: PlanError::InvalidMargin { .. },
                    ..
                }
            ))));
    assert_eq!(store.last_error(), None);
    assert_eq!(service.health().store, StoreHealth::Ok);
    drop(service);
    drop(store);

    let store = Store::open(&dir, 1).expect("reopen");
    assert_eq!(store.recovery().torn_bytes(), 0);
    let restored = ShardedReconfigService::new(1);
    restored.restore(&store).expect("restore");
    assert_eq!(restored.register_with_id(bad, bad_spec), Ok(bad));
    assert_eq!(
        restored.register_with_id(bad, base),
        Err(ServeError::DuplicateCache(bad))
    );
    drop(store);
    std::fs::remove_dir_all(&dir).ok();
}

/// A local `submit` may carry a curve the journal format cannot hold
/// (the wire's point cap does not bind in-process callers). The plane
/// takes it, plans it and publishes it — and the store faults instead
/// of writing a record its own reader would refuse: the next open finds
/// nothing to truncate, and everything journaled before the oversized
/// curve restores. (Written, that record read as a torn tail, and the
/// open cut it off *with every record after it*.)
#[test]
fn a_curve_the_journal_cannot_hold_faults_the_store_and_costs_no_history() {
    let dir = temp_dir("unjournalable");
    let store = Arc::new(Store::open(&dir, 1).expect("open"));
    let service =
        ShardedReconfigService::new(1).with_sink(Arc::clone(&store) as Arc<dyn StoreSink>);
    let small = service.register(CacheSpec::new(512, 1));
    let big = service.register(CacheSpec::new(1 << 20, 1));
    service
        .submit(small, 0, curve_from_seed(5))
        .expect("registered");
    service.run_until_clean();
    let published = service.snapshot(small).expect("planned");
    assert_eq!(service.health().store, StoreHealth::Ok);

    let oversized = MissCurve::new((0..5000).map(|i| (f64::from(i), 1.0))).expect("valid");
    service
        .submit(big, 0, oversized)
        .expect("the plane accepts");
    assert_eq!(service.health().store, StoreHealth::Faulted);
    service.run_until_clean();
    assert!(service.snapshot(big).is_some(), "faults stop the pen only");
    drop(service);
    drop(store);

    let store = Store::open(&dir, 1).expect("reopen");
    assert_eq!(store.recovery().torn_bytes(), 0, "no history was cut off");
    assert_eq!(store.recovery().shards[0].tail, None);
    let restored = ShardedReconfigService::new(1);
    restored.restore(&store).expect("restore");
    assert_same_plan(
        &restored.snapshot(small).expect("restored"),
        &published,
        "the cache journaled before the fault",
    );
    assert!(
        restored.snapshot(big).is_none(),
        "its curve never reached disk"
    );
    drop(store);
    std::fs::remove_dir_all(&dir).ok();
}

/// An over-cap connection receives a typed `Busy` frame — not a silent
/// drop — and the shed is counted on the server handle.
#[test]
fn overload_shed_is_typed_and_counted() {
    let service = Arc::new(ShardedReconfigService::new(1));
    let handle = RpcServer::bind("127.0.0.1:0", Arc::clone(&service))
        .expect("bind")
        .with_max_connections(1)
        .spawn()
        .expect("spawn");

    // Occupy the only slot (the ping proves the connection is serving,
    // not merely queued in the accept backlog).
    let mut occupant = RpcClient::connect(handle.local_addr()).expect("connect");
    occupant.ping().expect("ping");

    // The next connection is shed with the typed reply.
    let mut shed = RpcClient::connect(handle.local_addr()).expect("tcp connects");
    match shed.ping() {
        Err(RpcError::Busy) => {}
        other => panic!("expected the typed Busy shed, got {other:?}"),
    }
    assert_eq!(handle.rejected(), 1, "the shed was counted");

    // The occupant is unaffected, and the count reaches health reports.
    occupant.ping().expect("still serving");
    assert_eq!(handle.health().rejected, 1);
    assert!(
        handle.health().is_healthy(),
        "shedding load is admission control, not ill health"
    );
    handle.shutdown();
}

/// A remote `Health` request reads the server's connection counters —
/// the same report the in-process handle gives — and `Hello` carries
/// them too.
#[test]
fn remote_health_carries_the_connection_counters() {
    let service = Arc::new(ShardedReconfigService::new(1));
    let handle = RpcServer::bind("127.0.0.1:0", Arc::clone(&service))
        .expect("bind")
        .with_max_connections(1)
        .spawn()
        .expect("spawn");
    let mut occupant = RpcClient::connect(handle.local_addr()).expect("connect");
    occupant.ping().expect("ping");
    let mut shed = RpcClient::connect(handle.local_addr()).expect("tcp connects");
    assert_eq!(shed.ping(), Err(RpcError::Busy));

    let remote = occupant.health().expect("health over rpc");
    assert_eq!(remote, handle.health());
    assert_eq!((remote.connections, remote.rejected), (1, 1));
    let hello = occupant.hello().expect("hello over rpc");
    assert_eq!(hello.health, remote);
    handle.shutdown();
}
