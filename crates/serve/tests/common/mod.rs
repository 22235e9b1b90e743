//! Fixtures shared by the plane's equivalence suites: the random
//! op-interleaving history every front-end is driven with, the curve
//! family behind it, and a scratch directory for the suites that journal.

#![allow(dead_code)] // each test file uses its own subset

use std::path::PathBuf;
use std::sync::atomic::{AtomicU32, Ordering};

use proptest::prelude::*;
use talus_core::{MissCurve, TalusOptions};
use talus_partition::{AllocPolicy, Planner};
use talus_serve::{CacheId, CacheSpec, EpochReport, ServeError, ShardedReconfigService};

/// A fresh, empty directory unique to this process, tag and call.
pub fn temp_dir(tag: &str) -> PathBuf {
    static DIR_SEQ: AtomicU32 = AtomicU32::new(0);
    let dir = std::env::temp_dir().join(format!(
        "talus-serve-test-{tag}-{}-{}",
        std::process::id(),
        DIR_SEQ.fetch_add(1, Ordering::Relaxed)
    ));
    std::fs::remove_dir_all(&dir).ok();
    std::fs::create_dir_all(&dir).expect("create temp dir");
    dir
}

/// One step of a random plane history. Cache references are *slot*
/// indices into the list of ids registered so far (wrapped mod the slot
/// count), so every generated sequence is meaningful on any plane.
#[derive(Debug, Clone)]
pub enum Op {
    Register {
        spec: CacheSpec,
    },
    Submit {
        slot: usize,
        tenant: usize,
        curve_seed: u64,
    },
    Deregister {
        slot: usize,
    },
    RunEpoch,
}

/// Random monotone miss curve on a `0..=last` × 64-line grid, derived
/// deterministically from a seed so every plane under comparison
/// receives identical curves.
pub fn curve_on_grid(seed: u64, last: usize) -> MissCurve {
    let mut state = seed | 1;
    let mut next = move || {
        state ^= state << 13;
        state ^= state >> 7;
        state ^= state << 17;
        state
    };
    let mut m = 10.0 + (next() % 40) as f64;
    let sizes: Vec<f64> = (0..=last).map(|i| i as f64 * 64.0).collect();
    let misses: Vec<f64> = sizes
        .iter()
        .map(|_| {
            let v = m;
            m = (m - (next() % 12) as f64).max(0.0);
            v
        })
        .collect();
    MissCurve::from_samples(&sizes, &misses).expect("valid curve")
}

/// [`curve_on_grid`] on the 17-point grid the equivalence suites (and the
/// partition property tests) use.
pub fn curve_from_seed(seed: u64) -> MissCurve {
    curve_on_grid(seed, 16)
}

/// A spec drawn from `seed`, as the journal's tests draw a planner: 1–3
/// tenants, a capacity of 256–960 lines (inside the curves' 1 024-line
/// domain), every policy, hulls or raw curves, a 0–0.1 safety margin, and
/// 1–16 grains, so planning stays fast.
pub fn spec_from_seed(seed: u64) -> CacheSpec {
    let capacity = 64 * (4 + seed % 12);
    let grains = 1 + (seed >> 4) % 16;
    let policy = match (seed >> 8) % 4 {
        0 => AllocPolicy::Hill,
        1 => AllocPolicy::Lookahead,
        2 => AllocPolicy::Fair,
        _ => AllocPolicy::Imbalanced,
    };
    let mut planner = Planner::new(capacity / grains)
        .with_policy(policy)
        .with_options(TalusOptions {
            safety_margin: ((seed >> 12) % 11) as f64 * 0.01,
            ..TalusOptions::new()
        });
    if seed & (1 << 16) != 0 {
        planner = planner.raw_curves();
    }
    CacheSpec::new(capacity, 1 + ((seed >> 20) % 3) as usize).with_planner(planner)
}

pub fn arb_op() -> impl Strategy<Value = Op> {
    // Weighted mix by discriminant: 2/11 register, 6/11 submit,
    // 1/11 deregister, 2/11 run-epoch.
    (any::<u64>(), any::<u64>(), any::<usize>(), any::<u64>()).prop_map(
        |(kind, shape, slot, curve_seed)| match kind % 11 {
            0 | 1 => Op::Register {
                spec: spec_from_seed(shape),
            },
            2..=7 => Op::Submit {
                slot,
                tenant: (shape >> 8) as usize,
                curve_seed,
            },
            8 => Op::Deregister { slot },
            _ => Op::RunEpoch,
        },
    )
}

/// Slot table threaded through multi-phase replays: every id ever
/// registered, whether it is still live, and its tenant count.
pub type Slots = Vec<(CacheId, bool, usize)>;

/// Replays `ops` against a local plane, continuing from `slots` (so a
/// history can be split across a crash). Returns the report of every
/// explicit epoch.
pub fn apply(plane: &ShardedReconfigService, slots: &mut Slots, ops: &[Op]) -> Vec<EpochReport> {
    let mut reports = Vec::new();
    for op in ops {
        match op {
            Op::Register { spec } => slots.push((plane.register(*spec), true, spec.tenants)),
            Op::Submit {
                slot,
                tenant,
                curve_seed,
            } => {
                if slots.is_empty() {
                    continue;
                }
                let (id, live, tenants) = slots[slot % slots.len()];
                let result = plane.submit(id, tenant % tenants, curve_from_seed(*curve_seed));
                // Dead caches error; live ones accept.
                assert_eq!(result.is_err(), !live);
            }
            Op::Deregister { slot } => {
                if slots.is_empty() {
                    continue;
                }
                let index = slot % slots.len();
                let entry = &mut slots[index];
                let expect = entry.1;
                entry.1 = false;
                assert_eq!(plane.deregister(entry.0).is_ok(), expect);
            }
            Op::RunEpoch => reports.push(plane.run_epoch()),
        }
    }
    reports
}

/// A front-end the equivalence suites drive beside a local plane, op for
/// op: an `RpcClient`, a `ClusterClient`. A transport failure is a bug,
/// so an implementation panics on one.
pub trait Front {
    fn register(&mut self, spec: CacheSpec) -> CacheId;
    fn submit(&mut self, id: CacheId, tenant: usize, curve: MissCurve) -> Result<(), ServeError>;
    fn deregister(&mut self, id: CacheId) -> Result<(), ServeError>;
    fn run_epoch(&mut self) -> EpochReport;
}

/// Replays `ops` on `local`, as [`apply`] does, and through `front`,
/// asserting the two agree on every minted id, per-op outcome and epoch
/// report. Returns the slot table.
pub fn apply_both(local: &ShardedReconfigService, front: &mut impl Front, ops: &[Op]) -> Slots {
    let mut slots = Slots::new();
    for op in ops {
        match op {
            Op::Register { spec } => {
                let id = local.register(*spec);
                assert_eq!(front.register(*spec), id, "id minting must coincide");
                slots.push((id, true, spec.tenants));
            }
            Op::Submit {
                slot,
                tenant,
                curve_seed,
            } => {
                if slots.is_empty() {
                    continue;
                }
                let (id, live, tenants) = slots[slot % slots.len()];
                let curve = curve_from_seed(*curve_seed);
                let result = local.submit(id, tenant % tenants, curve.clone());
                assert_eq!(result.is_err(), !live);
                let theirs = front.submit(id, tenant % tenants, curve);
                assert_eq!(theirs, result, "submit outcomes diverge");
            }
            Op::Deregister { slot } => {
                if slots.is_empty() {
                    continue;
                }
                let index = slot % slots.len();
                let (id, live, _) = slots[index];
                slots[index].1 = false;
                let result = local.deregister(id);
                assert_eq!(result.is_ok(), live);
                assert_eq!(front.deregister(id), result, "deregister outcomes diverge");
            }
            Op::RunEpoch => {
                let report = local.run_epoch();
                assert_eq!(front.run_epoch(), report, "epoch reports diverge");
            }
        }
    }
    slots
}
