//! A shard plans in a workspace it keeps for life and publishes into the
//! snapshots it replaces. Neither may show: a published plan is the bits
//! `Planner::plan` gives on a fresh scratch, whatever the workspace served
//! before, and a snapshot a reader holds is never written.
//!
//! The steady-state test is what stands in for an allocation counter: once
//! the plane is warm, an epoch that re-plans caches nobody holds leaves
//! every snapshot and its tenant list where they were.

mod common;

use std::sync::Arc;

use proptest::prelude::*;
use talus_core::{FaultAction, FaultScript, MissCurve, TalusPlan};
use talus_partition::{AllocPolicy, CachePlan, Planner};
use talus_serve::{CacheId, CacheSpec, PlanSnapshot, ShardedReconfigService};

/// A plan's every number as its bit pattern (`==` on `f64` would let
/// `0.0` pass for `-0.0`).
fn plan_bits(plan: &CachePlan) -> Vec<u64> {
    let mut out = vec![plan.round];
    for tenant in &plan.tenants {
        out.push(tenant.capacity);
        match tenant.plan {
            TalusPlan::Unpartitioned {
                size,
                expected_misses,
            } => out.extend([0, size.to_bits(), expected_misses.to_bits()]),
            TalusPlan::Shadow(cfg) => out.extend(
                [
                    cfg.total,
                    cfg.alpha,
                    cfg.beta,
                    cfg.rho,
                    cfg.ideal_rho,
                    cfg.s1,
                    cfg.s2,
                    cfg.expected_misses,
                ]
                .map(f64::to_bits),
            ),
        }
    }
    out
}

/// A snapshot's every field, its plan as bits.
fn snapshot_bits(snap: &PlanSnapshot) -> Vec<u64> {
    let mut out = vec![snap.cache.value(), snap.epoch, snap.version, snap.updates];
    out.extend(plan_bits(&snap.plan));
    out
}

/// Checks a published plan against `Planner::plan` on a fresh scratch
/// over the curves it covers.
fn assert_offline(snap: &PlanSnapshot, spec: CacheSpec, curves: &[MissCurve]) {
    let offline = spec
        .planner
        .plan(curves, spec.capacity, snap.plan.round)
        .expect("the offline plan");
    assert_eq!(
        plan_bits(&snap.plan),
        plan_bits(&offline),
        "{}: {} tenants of {} points, {:?}",
        snap.cache,
        curves.len(),
        curves[0].len(),
        spec.planner
    );
}

/// A falling curve of `points` sizes spread evenly over `[0, capacity]`,
/// with a cliff of a height and at a point `seed` chooses.
fn curve(points: usize, capacity: u64, seed: u64) -> MissCurve {
    let mut state = seed.wrapping_mul(0x9E37_79B9_7F4A_7C15) | 1;
    let mut next = move || {
        state ^= state << 13;
        state ^= state >> 7;
        state ^= state << 17;
        state
    };
    let last = (points - 1) as f64;
    let cliff = next() % points as u64;
    let height = 1.0 + (next() % 4000) as f64 / 100.0;
    let sizes: Vec<f64> = (0..points)
        .map(|i| i as f64 * capacity as f64 / last)
        .collect();
    let misses: Vec<f64> = (0..points)
        .map(|i| {
            let above = if (i as u64) < cliff { height } else { 0.0 };
            1.0 + above + (last - i as f64) / last
        })
        .collect();
    MissCurve::from_samples(&sizes, &misses).expect("valid curve")
}

/// Where a snapshot lives: its `Arc` and its tenant list.
fn place(plane: &ShardedReconfigService, id: CacheId) -> (*const PlanSnapshot, *const u8) {
    let snap = plane.snapshot(id).expect("a published plan");
    (Arc::as_ptr(&snap), snap.plan.tenants.as_ptr().cast())
}

#[derive(Debug, Clone)]
enum Step {
    Submit {
        cache: usize,
        tenant: usize,
        seed: u64,
    },
    Epoch,
    /// A reader takes the cache's snapshot and keeps it.
    Hold {
        cache: usize,
    },
    /// A reader lets one of the held snapshots go.
    Release {
        held: usize,
    },
}

fn arb_step() -> impl Strategy<Value = Step> {
    (any::<u64>(), any::<usize>(), any::<usize>(), any::<u64>()).prop_map(|(kind, a, b, seed)| {
        match kind % 8 {
            0..=3 => Step::Submit {
                cache: a,
                tenant: b,
                seed,
            },
            4 | 5 => Step::Epoch,
            6 => Step::Hold { cache: a },
            _ => Step::Release { held: a },
        }
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Submits, epochs, and readers taking and dropping snapshots in any
    /// order, on one shard or four: a held snapshot reads the same bits
    /// after every later step, and after every epoch each cache's live
    /// snapshot is the offline plan of its latest curves.
    #[test]
    fn held_snapshots_never_change_and_live_ones_are_offline(
        steps in proptest::collection::vec(arb_step(), 1..96),
        four_shards in any::<bool>(),
    ) {
        let plane = ShardedReconfigService::new(if four_shards { 4 } else { 1 });
        let specs: Vec<CacheSpec> = (0..6u64)
            .map(|c| {
                CacheSpec::new(64 * (8 + c), 1 + c as usize % 3).with_planner(Planner::new(64))
            })
            .collect();
        let ids: Vec<CacheId> = specs.iter().map(|&spec| plane.register(spec)).collect();
        let mut latest: Vec<Vec<Option<MissCurve>>> =
            specs.iter().map(|spec| vec![None; spec.tenants]).collect();
        let mut held: Vec<(Arc<PlanSnapshot>, Vec<u64>)> = Vec::new();
        for step in &steps {
            match *step {
                Step::Submit { cache, tenant, seed } => {
                    let c = cache % ids.len();
                    let t = tenant % specs[c].tenants;
                    let curve = common::curve_from_seed(seed);
                    plane.submit(ids[c], t, curve.clone()).expect("a live cache");
                    latest[c][t] = Some(curve);
                }
                Step::Epoch => {
                    prop_assert_eq!(plane.run_epoch().remaining_dirty, 0);
                    for (c, &id) in ids.iter().enumerate() {
                        let curves: Option<Vec<MissCurve>> = latest[c].iter().cloned().collect();
                        let snap = plane.snapshot(id);
                        prop_assert_eq!(snap.is_some(), curves.is_some(), "{}", id);
                        if let (Some(snap), Some(curves)) = (snap, curves) {
                            assert_offline(&snap, specs[c], &curves);
                        }
                    }
                }
                Step::Hold { cache } => {
                    if let Some(snap) = plane.snapshot(ids[cache % ids.len()]) {
                        let bits = snapshot_bits(&snap);
                        held.push((snap, bits));
                    }
                }
                Step::Release { held: which } => {
                    if !held.is_empty() {
                        held.swap_remove(which % held.len());
                    }
                }
            }
            for (snap, bits) in &held {
                prop_assert_eq!(&snapshot_bits(snap), bits, "{:?}", step);
            }
        }
    }
}

/// Once the plane is warm, an epoch that re-plans caches nobody holds
/// writes each new plan into the snapshot it replaces: the same `Arc`, the
/// same tenant list. A snapshot a reader holds is left as it was and the
/// cache moves to a fresh one, which is then written in place in turn.
#[test]
fn a_warm_plane_replans_into_the_snapshots_nobody_holds() {
    const CACHES: usize = 24;
    for shards in [1, 4] {
        let plane = ShardedReconfigService::new(shards);
        let spec = CacheSpec::new(4096, 4);
        let ids: Vec<CacheId> = (0..CACHES).map(|_| plane.register(spec)).collect();
        let feed = |round: u64| -> Vec<Vec<MissCurve>> {
            ids.iter()
                .enumerate()
                .map(|(c, &id)| {
                    (0..spec.tenants)
                        .map(|t| {
                            let curve = curve(65, spec.capacity, round << 32 | (c * 8 + t) as u64);
                            plane.submit(id, t, curve.clone()).unwrap();
                            curve
                        })
                        .collect()
                })
                .collect()
        };
        // The first epoch publishes every cache afresh, the second into
        // those snapshots.
        for round in 0..2 {
            feed(round);
            plane.run_epoch();
        }
        let warm: Vec<_> = ids.iter().map(|&id| place(&plane, id)).collect();

        let held = plane.snapshot(ids[0]).unwrap();
        let held_bits = snapshot_bits(&held);
        let mut moved = None;
        for round in 2..8 {
            let curves = feed(round);
            let report = plane.run_epoch();
            assert_eq!(report.planned, ids, "round {round}");
            for (c, &id) in ids.iter().enumerate() {
                assert_offline(&plane.snapshot(id).unwrap(), spec, &curves[c]);
                let now = place(&plane, id);
                if c > 0 {
                    assert_eq!(now, warm[c], "{shards} shards, round {round}: {id}");
                } else if round == 2 {
                    assert_ne!(now.0, warm[0].0, "the held snapshot was written");
                    assert_ne!(now.1, warm[0].1, "the held tenant list was written");
                    moved = Some(now);
                } else {
                    assert_eq!(Some(now), moved, "{shards} shards, round {round}");
                }
            }
            assert_eq!(snapshot_bits(&held), held_bits, "round {round}");
        }
    }
}

/// Whatever the kept workspace planned before — one tenant or sixteen,
/// curves of 2 to 4 096 points, any policy, hulls or raw curves, a
/// planner that panicked half-way — every plan a shard publishes is the
/// offline one. Caches are fed in changing subsets, so each epoch's
/// batch, and the order shapes meet the scratch in, changes too.
#[test]
fn the_kept_workspace_never_shows_in_a_plan() {
    const CAPACITY: u64 = 65_536;
    let hill = Planner::new(CAPACITY / 64);
    // (tenants, points a curve, planner); the 16 × 4 096 cache takes the
    // workspace past its cap, so the shard planning it starts afresh.
    let shapes = [
        (1, 2, hill),
        (16, 2, hill),
        (1, 4096, hill),
        (16, 65, hill),
        (16, 4096, hill),
        (4, 17, hill.with_policy(AllocPolicy::Lookahead)),
        (3, 9, hill.with_policy(AllocPolicy::Fair)),
        (2, 33, hill.with_policy(AllocPolicy::Imbalanced)),
        (4, 129, hill.raw_curves()),
        (
            16,
            33,
            hill.raw_curves().with_policy(AllocPolicy::Lookahead),
        ),
    ];
    let script = Arc::new(FaultScript::new());
    let plane = ShardedReconfigService::new(2).with_fault_script(Arc::clone(&script));
    let mut caches: Vec<(CacheId, CacheSpec, usize)> = Vec::new();
    for &(tenants, points, planner) in shapes.iter().chain(&shapes) {
        let spec = CacheSpec::new(CAPACITY, tenants).with_planner(planner);
        caches.push((plane.register(spec), spec, points));
    }
    // The second plan of a 16-tenant cache panics mid-epoch, among its
    // siblings: it is quarantined and its first plan keeps serving.
    let victim = caches[shapes.len() + 3].0;
    script.inject("shard.plan", Some(victim.value()), 1, 1, FaultAction::Panic);

    let mut latest: Vec<Vec<MissCurve>> = vec![Vec::new(); caches.len()];
    for round in 0..7u64 {
        for (c, &(id, spec, points)) in caches.iter().enumerate() {
            // Round 0 feeds every cache; later rounds two in three.
            let fed = round == 0 || !(c as u64 + round).is_multiple_of(3);
            if !fed || (round >= 2 && id == victim) {
                continue;
            }
            latest[c] = (0..spec.tenants)
                .map(|t| curve(points, CAPACITY, round << 40 | (c as u64) << 8 | t as u64))
                .collect();
            for (t, curve) in latest[c].iter().enumerate() {
                plane.submit(id, t, curve.clone()).unwrap();
            }
        }
        let report = plane.run_epoch();
        assert_eq!(report.remaining_dirty, 0);
        assert!(report.failed.is_empty(), "{:?}", report.failed);
        let quarantined: &[CacheId] = if round == 1 { &[victim] } else { &[] };
        assert_eq!(report.quarantined, quarantined, "round {round}");
        for (c, &(id, spec, _)) in caches.iter().enumerate() {
            let snap = plane.snapshot(id).unwrap();
            if id == victim && round >= 1 {
                assert_eq!(snap.epoch, 1, "the last good plan keeps serving");
                continue;
            }
            assert_offline(&snap, spec, &latest[c]);
        }
    }
    assert_eq!(script.fired("shard.plan"), 1);
}
