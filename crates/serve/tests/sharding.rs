//! The sharded plane's defining invariant: for any submission sequence,
//! a [`ShardedReconfigService`] publishes exactly the same plans — per
//! cache, bit for bit — for every shard count.
//! The reference is `new(1)`, the single-lock configuration (itself held
//! to the offline planner in `tests/plan_equivalence.rs`). The router
//! adds *placement*, never *policy*: shard count is capacity.

mod common;

use std::sync::Arc;

use common::{apply, arb_op, curve_from_seed, Op, Slots};
use proptest::prelude::*;
use talus_partition::Planner;
use talus_serve::{CacheId, CacheSpec, ShardedReconfigService};

/// Asserts the sharded plane's final published state matches the
/// one-shard plane's, id by id.
fn assert_same_final_state(
    single: &ShardedReconfigService,
    sharded: &ShardedReconfigService,
    slots: &Slots,
) {
    assert_eq!(single.registered(), sharded.registered());
    for &(id, live, _) in slots {
        let a = single.snapshot(id);
        let b = sharded.snapshot(id);
        if !live {
            assert!(a.is_none() && b.is_none(), "{id}: dead cache has no plan");
            continue;
        }
        match (a, b) {
            (None, None) => {} // never fully reported or planning failed
            (Some(a), Some(b)) => {
                assert_eq!(a.plan, b.plan, "{id}: plans diverge");
                assert_eq!(a.allocations(), b.allocations());
                assert_eq!(a.version, b.version, "{id}: versions diverge");
                assert_eq!(a.updates, b.updates, "{id}: update counts diverge");
            }
            (a, b) => panic!(
                "{id}: published on one plane only (single: {}, sharded: {})",
                a.is_some(),
                b.is_some()
            ),
        }
    }
}

/// Replays `ops` on `sharded` and on a one-shard plane and asserts they
/// cannot be told apart: ids, every epoch report along the way, the
/// reports of the final drain, and the published state.
fn assert_matches_one_shard(sharded: &ShardedReconfigService, ops: &[Op]) {
    let single = ShardedReconfigService::new(1);
    let (mut slots_single, mut slots_sharded) = (Slots::new(), Slots::new());
    let reports_single = apply(&single, &mut slots_single, ops);
    let reports_sharded = apply(sharded, &mut slots_sharded, ops);
    assert_eq!(slots_single, slots_sharded, "id allocation must coincide");
    assert_eq!(
        reports_single, reports_sharded,
        "epoch reports must coincide"
    );

    // Drain whatever is still dirty, then compare final state.
    let drained_single = single.run_until_clean();
    let drained_sharded = sharded.run_until_clean();
    assert_eq!(
        drained_single, drained_sharded,
        "drain reports must coincide"
    );
    assert_same_final_state(&single, sharded, &slots_single);
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// The tentpole invariant: random register/submit/deregister/epoch
    /// interleavings publish identical plans on one shard and on planes
    /// of 1 to 4 shards — including intermediate epoch reports, which
    /// are deterministic (CacheId order) on both.
    #[test]
    fn sharded_plans_equal_single_service_plans(
        ops in proptest::collection::vec(arb_op(), 1..60),
        shards in 1usize..5,
    ) {
        assert_matches_one_shard(&ShardedReconfigService::new(shards), &ops);
    }

    /// The same invariant on planes of at least two shards only, where
    /// every epoch merges reports from several shards.
    #[test]
    fn threaded_sharded_plans_equal_single_service_plans(
        ops in proptest::collection::vec(arb_op(), 1..40),
        shards in 2usize..5,
    ) {
        assert_matches_one_shard(&ShardedReconfigService::new(shards), &ops);
    }
}

/// Concurrent producers hammering a 4-shard plane while another thread
/// runs its epochs: after the dust settles, the final plans equal a one-shard
/// plane's plans for the same final curves.
#[test]
fn concurrent_producers_on_threaded_shards_converge_to_single_service_plans() {
    let shards = 4;
    let caches = 16usize;
    let tenants = 2usize;
    let rounds = 5u64;

    let sharded = Arc::new(ShardedReconfigService::new(shards));
    let ids: Vec<CacheId> = (0..caches)
        .map(|_| sharded.register(CacheSpec::new(1024, tenants).with_planner(Planner::new(64))))
        .collect();

    let curve_for = |cache: usize, tenant: usize, round: u64| {
        curve_from_seed((cache as u64) << 24 | (tenant as u64) << 16 | round | 1)
    };

    // Four producer threads, striped over caches, racing the epoch loop.
    std::thread::scope(|scope| {
        for stripe in 0..4usize {
            let sharded = Arc::clone(&sharded);
            let ids = &ids;
            scope.spawn(move || {
                for round in 0..rounds {
                    for (c, id) in ids.iter().enumerate() {
                        if c % 4 != stripe {
                            continue;
                        }
                        for t in 0..tenants {
                            sharded
                                .submit(*id, t, curve_for(c, t, round))
                                .expect("registered");
                        }
                    }
                }
            });
        }
        for _ in 0..20 {
            sharded.run_epoch();
            std::thread::yield_now();
        }
    });
    // Converge on the final curves: resubmit them once and drain.
    for (c, id) in ids.iter().enumerate() {
        for t in 0..tenants {
            sharded
                .submit(*id, t, curve_for(c, t, rounds - 1))
                .expect("registered");
        }
    }
    sharded.run_until_clean();

    // The one-shard reference sees only the final curves, and its
    // version counter must be aligned for the comparison: replay the
    // same number of successful replans. Plans depend only on the latest
    // curves (and round only via AllocPolicy::Imbalanced, unused here),
    // so comparing the published plan and allocations suffices.
    let single = ShardedReconfigService::new(1);
    for (c, _) in ids.iter().enumerate() {
        let id = single.register(CacheSpec::new(1024, tenants).with_planner(Planner::new(64)));
        for t in 0..tenants {
            single
                .submit(id, t, curve_for(c, t, rounds - 1))
                .expect("registered");
        }
    }
    single.run_until_clean();

    for (c, id) in ids.iter().enumerate() {
        let got = sharded.snapshot(*id).expect("published");
        let want = single.snapshot(*id).expect("published");
        assert_eq!(got.plan.tenants, want.plan.tenants, "cache {c}");
        assert_eq!(got.allocations(), want.allocations(), "cache {c}");
    }
}
