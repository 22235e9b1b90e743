//! The service's defining invariant, and the first link of the
//! equivalence chain (offline ≡ sharded ≡ rpc ≡ cluster ≡ restored):
//! epoch replanning publishes exactly the plan a direct offline
//! `talus-core` + `talus-partition` computation produces from the same
//! curves, on any number of shards — batching, versioning, placement and
//! publication add scheduling, never policy.

mod common;

use proptest::prelude::*;
use talus_core::{plan_with_hull, CurveSource, MissCurve, TalusOptions};
use talus_partition::{fair, hill_climb, lookahead, AllocPolicy, Planner};
use talus_serve::{CacheSpec, ShardedReconfigService};
use talus_sim::monitor::{MattsonMonitor, MonitorSource};
use talus_sim::LineAddr;
use talus_workloads::{multi_tenant, profile, AccessGenerator, AnalyticCurveSource};

/// Offline reference: hulls, allocation, per-tenant shadow planning —
/// spelled out with the low-level primitives, *not* the shared `Planner`,
/// so the test would catch the planner and the service drifting apart.
fn offline_plans(
    curves: &[MissCurve],
    capacity: u64,
    grain: u64,
    policy: AllocPolicy,
) -> (Vec<u64>, Vec<talus_core::TalusPlan>) {
    let hulls: Vec<MissCurve> = curves.iter().map(|c| c.convex_hull().to_curve()).collect();
    let sizes = match policy {
        AllocPolicy::Hill => hill_climb(&hulls, capacity, grain),
        AllocPolicy::Lookahead => lookahead(&hulls, capacity, grain),
        AllocPolicy::Fair => fair(hulls.len(), capacity, grain),
        AllocPolicy::Imbalanced => unreachable!("not exercised here"),
    };
    let plans = curves
        .iter()
        .zip(&sizes)
        .map(|(c, &s)| {
            plan_with_hull(&c.convex_hull(), s as f64, TalusOptions::new())
                .expect("offline planning succeeds")
        })
        .collect();
    (sizes, plans)
}

/// Random monotone miss curve on a 0..=16 × 64-line grid (the same family
/// the partition property tests use).
fn arb_curve() -> impl Strategy<Value = MissCurve> {
    any::<u64>().prop_map(common::curve_from_seed)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Satellite property test: serve-epoch replanning == offline planning
    /// on identical curves, for random multi-tenant curve sets.
    #[test]
    fn epoch_replanning_matches_offline_planner(
        curves in proptest::collection::vec(arb_curve(), 1..6),
        grains in 4u64..16,
        shards in 1usize..=4,
    ) {
        let capacity = grains * 64;
        let grain = 64u64;
        let service = ShardedReconfigService::new(shards);
        let spec = CacheSpec::new(capacity, curves.len())
            .with_planner(Planner::new(grain));
        let id = service.register(spec);
        for (t, c) in curves.iter().enumerate() {
            service.submit(id, t, c.clone()).expect("in range");
        }
        let report = service.run_epoch();
        prop_assert_eq!(&report.planned, &vec![id]);
        let snap = service.snapshot(id).expect("published");

        let (sizes, plans) = offline_plans(&curves, capacity, grain, AllocPolicy::Hill);
        prop_assert_eq!(snap.allocations(), sizes);
        for (t, offline) in plans.iter().enumerate() {
            prop_assert_eq!(&snap.plan.tenants[t].plan, offline, "tenant {}", t);
        }
    }

    /// The invariant holds for the other (round-free) allocation policies.
    #[test]
    fn equivalence_holds_across_policies(
        curves in proptest::collection::vec(arb_curve(), 2..5),
        policy_idx in 0usize..3,
        shards in 1usize..=4,
    ) {
        let policy = [AllocPolicy::Hill, AllocPolicy::Lookahead, AllocPolicy::Fair][policy_idx];
        let capacity = 1024u64;
        let grain = 64u64;
        let service = ShardedReconfigService::new(shards);
        let id = service.register(
            CacheSpec::new(capacity, curves.len())
                .with_planner(Planner::new(grain).with_policy(policy)),
        );
        for (t, c) in curves.iter().enumerate() {
            service.submit(id, t, c.clone()).expect("in range");
        }
        service.run_epoch();
        let snap = service.snapshot(id).expect("published");
        let (sizes, plans) = offline_plans(&curves, capacity, grain, policy);
        prop_assert_eq!(snap.allocations(), sizes);
        for (t, offline) in plans.iter().enumerate() {
            prop_assert_eq!(&snap.plan.tenants[t].plan, offline, "tenant {}", t);
        }
    }
}

/// End-to-end replay: monitor-measured curves from SPEC-shaped workloads
/// stream through the service over multiple intervals, beside one tenant
/// whose curve is synthesised from a spec; every published epoch must
/// match the offline planner on the same curves.
#[test]
fn multi_tenant_replay_matches_offline_every_epoch() {
    const CAPACITY: u64 = 2048;
    const INTERVAL: u64 = 30_000;
    let names = ["libquantum", "omnetpp", "xalancbmk"];

    let mut sources: Vec<Box<dyn CurveSource>> = names
        .iter()
        .enumerate()
        .map(|(t, name)| {
            let app = profile(name).expect("roster profile").scaled(1.0 / 256.0);
            let mut gen = app.generator(11 + t as u64, 0);
            let next: Box<dyn FnMut() -> LineAddr> = Box::new(move || gen.next_line());
            let mut s = MonitorSource::new(MattsonMonitor::new(2 * CAPACITY), INTERVAL, next);
            s.warm_up(INTERVAL / 2);
            Box::new(s) as Box<dyn CurveSource>
        })
        .collect();
    // The analytic backend: the multi-tenant phase model's curve, derived
    // from its spec with no address stream. It is the same curve every
    // interval; the monitored tenants' curves are not, so the cache still
    // replans every epoch.
    let phases = multi_tenant(names.len()).scaled(1.0 / 256.0);
    sources.push(Box::new(AnalyticCurveSource::from_multi_tenant(
        &phases,
        2 * CAPACITY,
    )));

    let service = ShardedReconfigService::new(1);
    let id = service.register(CacheSpec::new(CAPACITY, sources.len()));

    for interval in 1..=3u64 {
        let mut latest = Vec::new();
        for (t, source) in sources.iter_mut().enumerate() {
            let curve = source.next_curve().expect("monitors never exhaust");
            service.submit(id, t, curve.clone()).expect("in range");
            latest.push(curve);
        }
        let report = service.run_epoch();
        assert_eq!(report.planned, vec![id], "interval {interval}");

        let snap = service.snapshot(id).expect("published");
        assert_eq!(snap.version, interval);
        assert_eq!(snap.epoch, interval);
        let (sizes, plans) =
            offline_plans(&latest, CAPACITY, (CAPACITY / 64).max(1), AllocPolicy::Hill);
        assert_eq!(snap.allocations(), sizes, "interval {interval}");
        for (t, offline) in plans.iter().enumerate() {
            assert_eq!(
                &snap.plan.tenants[t].plan, offline,
                "interval {interval} tenant {t}"
            );
        }
        // The budget is always fully spent.
        assert_eq!(snap.allocations().iter().sum::<u64>(), CAPACITY);
    }
}

/// Concurrent producers + a planner loop: the published end state is the
/// plan of the last-submitted curves, identical to offline.
#[test]
fn threaded_producers_converge_to_offline_plan() {
    use std::sync::Arc;

    let service = Arc::new(ShardedReconfigService::new(1));
    let capacity = 1024u64;
    let tenants = 4usize;
    let id = service.register(CacheSpec::new(capacity, tenants));

    // Each tenant's curves steepen over rounds; the *final* round is what
    // the converged plan must reflect.
    let curve_for = |tenant: usize, round: u64| {
        let knee = 64.0 * (tenant as f64 + 1.0) + 32.0 * round as f64;
        let sizes: Vec<f64> = (0..=16).map(|i| i as f64 * 64.0).collect();
        let misses: Vec<f64> = sizes
            .iter()
            .map(|&s| if s < knee { 10.0 } else { 1.0 })
            .collect();
        MissCurve::from_samples(&sizes, &misses).expect("valid")
    };

    let rounds = 5u64;
    let handles: Vec<_> = (0..tenants)
        .map(|t| {
            let service = Arc::clone(&service);
            std::thread::spawn(move || {
                for r in 0..rounds {
                    service.submit(id, t, curve_for(t, r)).expect("in range");
                    // Interleave with the planner.
                    if r % 2 == 0 {
                        std::thread::yield_now();
                    }
                }
            })
        })
        .collect();
    // Planner churns while producers run.
    for _ in 0..20 {
        service.run_epoch();
    }
    for h in handles {
        h.join().expect("producer");
    }
    // Drain whatever is still dirty, then replan once more with the final
    // curves to guarantee convergence.
    service.run_until_clean();
    let final_curves: Vec<MissCurve> = (0..tenants).map(|t| curve_for(t, rounds - 1)).collect();
    for (t, c) in final_curves.iter().enumerate() {
        service.submit(id, t, c.clone()).expect("in range");
    }
    service.run_until_clean();

    let snap = service.snapshot(id).expect("published");
    let (sizes, plans) = offline_plans(
        &final_curves,
        capacity,
        (capacity / 64).max(1),
        AllocPolicy::Hill,
    );
    assert_eq!(snap.allocations(), sizes);
    for (t, offline) in plans.iter().enumerate() {
        assert_eq!(&snap.plan.tenants[t].plan, offline, "tenant {t}");
    }
}
