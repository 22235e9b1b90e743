//! Fixtures shared by the plane's equivalence suites: the random
//! op-interleaving history every front-end is driven with, the curve
//! family behind it, and a scratch directory for the suites that journal.

#![allow(dead_code)] // each test file uses its own subset

use std::path::PathBuf;
use std::sync::atomic::{AtomicU32, Ordering};

use proptest::prelude::*;
use talus_core::MissCurve;
use talus_partition::Planner;
use talus_serve::{CacheId, CacheSpec, EpochReport, ShardedReconfigService};

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
        capacity_grains: u64,
        tenants: usize,
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

pub fn arb_op() -> impl Strategy<Value = Op> {
    // Weighted mix by discriminant: 2/11 register, 6/11 submit,
    // 1/11 deregister, 2/11 run-epoch. Capacities stay small: RPC
    // registration always uses the default planner (capacity/64 grain),
    // and a coarse grain keeps planning fast.
    (any::<u64>(), any::<u64>(), any::<usize>(), any::<u64>()).prop_map(
        |(kind, shape, slot, curve_seed)| match kind % 11 {
            0 | 1 => Op::Register {
                capacity_grains: 4 + shape % 12,
                tenants: 1 + (shape % 3) as usize,
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
            Op::Register {
                capacity_grains,
                tenants,
            } => {
                let spec =
                    CacheSpec::new(capacity_grains * 64, *tenants).with_planner(Planner::new(64));
                slots.push((plane.register(spec), true, *tenants));
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
