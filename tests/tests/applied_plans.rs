//! The "applied" link of the equivalence chain: a plan the plane
//! publishes, put in force on a simulated Talus cache with
//! `TalusCache::apply`, configures that cache exactly as the simulator's
//! own planning path does (the shared `Planner`, at the scheme's managed
//! fraction, then `apply`) — the same shadow plans and sampler rates, bit
//! for bit, and so the same hits and misses for every tenant.
//!
//! Two identical way-partitioned Talus caches see one multi-tenant access
//! stream. Per-tenant monitors measure each interval's curves; one cache
//! is configured from the `ShardedReconfigService` fed those curves, the
//! other plans them in process.

use talus_core::{MissCurve, TalusPlan};
use talus_integration::scaled_profile;
use talus_partition::{fair, PlanScratch, Planner};
use talus_serve::{CacheSpec, ShardedReconfigService};
use talus_sim::monitor::{MattsonMonitor, Monitor};
use talus_sim::part::{PartitionedCacheModel, WayPartitioned};
use talus_sim::policy::Lru;
use talus_sim::{AccessCtx, LineAddr, PartitionId, TalusCache, TalusCacheConfig};
use talus_workloads::AccessGenerator;

const CAPACITY: u64 = 4096;
const WAYS: usize = 32;
/// Accesses per interval, over all tenants.
const INTERVAL: u64 = 48_000;
const INTERVALS: u64 = 6;
/// A scan cliff past every allocation, a cliff inside the cache and a
/// smooth curve.
const APPS: [&str; 3] = ["libquantum", "omnetpp", "astar"];

fn talus_cache() -> TalusCache<WayPartitioned<Lru>> {
    let cache = WayPartitioned::new(CAPACITY, WAYS, 2 * APPS.len(), Lru::new(), 5);
    TalusCache::new(cache, APPS.len(), TalusCacheConfig::new().with_seed(9))
}

/// What a logical partition runs under, as bits: its plan's every field
/// (`Debug` prints each `f64` so that it round-trips) and its sampler rate.
fn applied(talus: &TalusCache<WayPartitioned<Lru>>, tenant: usize) -> (String, u64) {
    let p = PartitionId(tenant as u32);
    let plan = talus.plan(p).expect("every partition has a plan");
    (format!("{plan:?}"), talus.sampling_rate(p).to_bits())
}

#[test]
fn plane_published_plans_apply_bit_identical_to_in_process_plans() {
    let tenants = APPS.len();
    let mut plane_side = talus_cache();
    let mut local_side = talus_cache();
    assert_eq!(local_side.inner().managed_fraction(), 1.0);

    // The fair, unpartitioned start both sides share.
    let shares = fair(tenants, CAPACITY, 1);
    let cold: Vec<TalusPlan> = shares
        .iter()
        .map(|&size| TalusPlan::Unpartitioned {
            size: size as f64,
            expected_misses: 1.0,
        })
        .collect();
    plane_side.apply(&shares, &cold);
    local_side.apply(&shares, &cold);

    let planner = Planner::new(CAPACITY / 64);
    let service = ShardedReconfigService::new(2);
    let id = service.register(CacheSpec::new(CAPACITY, tenants).with_planner(planner));
    let mut scratch = PlanScratch::default();

    let mut generators: Vec<_> = APPS
        .iter()
        .enumerate()
        .map(|(t, name)| scaled_profile(name).generator(31 + t as u64, 0))
        .collect();
    let mut monitors: Vec<MattsonMonitor> = (0..tenants)
        .map(|_| MattsonMonitor::new(2 * CAPACITY))
        .collect();
    let ctx = AccessCtx::new();
    let mut shadow_plans = 0;

    for round in 0..INTERVALS {
        let mut counts = vec![0u64; tenants];
        for i in 0..INTERVAL {
            let t = (i % tenants as u64) as usize;
            // Tenants never share a line.
            let line = LineAddr(((t as u64) << 44) | generators[t].next_line().0);
            monitors[t].record(line);
            let p = PartitionId(t as u32);
            assert_eq!(
                plane_side.access(p, line, &ctx),
                local_side.access(p, line, &ctx),
                "round {round} access {i}"
            );
            counts[t] += 1;
        }
        let curves: Vec<MissCurve> = monitors
            .iter_mut()
            .zip(&counts)
            .map(|(m, &n)| {
                let curve = m.curve().scaled(n as f64);
                m.reset();
                curve
            })
            .collect();

        // Through the plane.
        for (t, curve) in curves.iter().enumerate() {
            service
                .submit(id, t, curve.clone())
                .expect("tenant in range");
        }
        let report = service.run_epoch();
        assert_eq!(report.planned, vec![id], "round {round}");
        let snapshot = service.snapshot(id).expect("published");
        let published: Vec<TalusPlan> = snapshot.plan.tenants.iter().map(|t| t.plan).collect();
        plane_side.apply(&snapshot.allocations(), &published);

        // In process, as the simulator's Talus LLC plans.
        let planned = planner
            .plan_managed_in(
                &mut scratch,
                &curves,
                CAPACITY,
                round,
                local_side.inner().managed_fraction(),
            )
            .expect("monitored curves plan");
        let plans: Vec<TalusPlan> = planned.tenants.iter().map(|t| t.plan).collect();
        local_side.apply(&planned.allocations(), &plans);

        for (t, plan) in plans.iter().enumerate() {
            assert_eq!(
                applied(&plane_side, t),
                applied(&local_side, t),
                "round {round} tenant {t}"
            );
            let rho = local_side.sampling_rate(PartitionId(t as u32));
            if plan.shadow().is_some() && rho > 0.0 && rho < 1.0 {
                shadow_plans += 1;
            }
        }
    }

    assert!(shadow_plans > 0, "no interval bridged a cliff");
    for t in 0..tenants {
        let p = PartitionId(t as u32);
        let (a, b) = (plane_side.logical_stats(p), local_side.logical_stats(p));
        assert_eq!((a.hits(), a.misses()), (b.hits(), b.misses()), "tenant {t}");
        assert_eq!(a.accesses(), INTERVAL * INTERVALS / tenants as u64);
    }
}
