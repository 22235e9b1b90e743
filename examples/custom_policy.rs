//! Bring your own replacement policy: Talus convexifies anything whose
//! miss curve you can measure.
//!
//! ```text
//! cargo run -p talus-examples --release --example custom_policy
//! ```
//!
//! The paper proves Talus is agnostic to the underlying replacement
//! policy (§IV works for *any* miss curve; §VII-B demonstrates it on
//! SRRIP with multi-monitor sampling). This example shows the downstream
//! workflow: implement [`ReplacementPolicy`] for a policy of your own —
//! here, FIFO, which thrashes on cyclic scans just like LRU — attach a
//! [`CurveSampler`] bank to measure its miss curve (FIFO does not obey
//! the stack property, so a single UMON will not do), and let Talus trace
//! its convex hull.

use std::ops::Range;
use talus_examples::{banner, row};
use talus_sim::monitor::{CurveSampler, Monitor};
use talus_sim::part::WayPartitioned;
use talus_sim::policy::{AccessCtx, ReplacementPolicy};
use talus_sim::{CacheModel, LineAddr, SetAssocCache, TalusCacheConfig, TalusSingleCache};

/// First-in, first-out replacement: evict the oldest *inserted* line,
/// ignoring hits entirely. Simple, real (many TLBs use it), and cliffy.
#[derive(Debug, Clone, Default)]
struct Fifo {
    inserted_at: Vec<u64>,
    ways: usize,
    clock: u64,
}

impl ReplacementPolicy for Fifo {
    fn attach(&mut self, sets: usize, ways: usize) {
        self.inserted_at = vec![0; sets * ways];
        self.ways = ways;
    }

    fn on_hit(&mut self, _set: usize, _way: usize, _ctx: &AccessCtx) {
        // FIFO: hits do not refresh age.
    }

    fn choose_victim(&mut self, set: usize, candidates: Range<usize>) -> usize {
        candidates
            .min_by_key(|&w| self.inserted_at[set * self.ways + w])
            .expect("candidates are non-empty")
    }

    fn on_insert(&mut self, set: usize, way: usize, _ctx: &AccessCtx) {
        self.clock += 1;
        self.inserted_at[set * self.ways + way] = self.clock;
    }

    fn name(&self) -> &'static str {
        "FIFO"
    }
}

/// The workload: a cyclic scan (cliff at 6144 lines) plus a small random
/// working set.
fn workload(i: u64, state: &mut u64) -> LineAddr {
    if i.is_multiple_of(3) {
        *state = state.wrapping_mul(6364136223846793005).wrapping_add(99);
        LineAddr((1 << 30) + (*state >> 33) % 1024)
    } else {
        LineAddr((i / 3) % 6144)
    }
}

fn main() {
    let cache_lines = 4096u64;

    banner("Plain FIFO: the cliff");
    let ctx = AccessCtx::new();
    let mut fifo = SetAssocCache::new(cache_lines, 16, Fifo::default(), 7);
    let mut state = 1u64;
    for i in 0..600_000u64 {
        fifo.access(workload(i, &mut state), &ctx);
    }
    fifo.reset_stats();
    let mut state2 = 1u64;
    for i in 0..600_000u64 {
        fifo.access(workload(i, &mut state2), &ctx);
    }
    let fifo_miss = fifo.stats().miss_rate();
    row("FIFO miss rate at 4096 lines", format!("{fifo_miss:.3}"));

    banner("Measure FIFO's miss curve (multi-monitor sampling)");
    // FIFO lacks the stack property, so we use the paper's §VI-C recipe:
    // one sampled shadow monitor per curve point (16 points up to 2x the
    // cache; each monitor runs FIFO at a different sampled scale).
    let sizes: Vec<u64> = (1..=16).map(|i| i * cache_lines * 2 / 16).collect();
    let mut sampler = CurveSampler::with_policy(
        |_seed| Box::new(Fifo::default()) as Box<dyn ReplacementPolicy>,
        &sizes,
        1024,
        16,
        42,
    );
    let mut state3 = 1u64;
    for i in 0..600_000u64 {
        sampler.record(workload(i, &mut state3));
    }
    let curve = sampler.curve();
    row(
        "measured miss rate at 2048",
        format!("{:.3}", curve.value_at(2048.0)),
    );
    row(
        "measured miss rate at 4096",
        format!("{:.3}", curve.value_at(4096.0)),
    );
    row(
        "measured miss rate at 8192",
        format!("{:.3}", curve.value_at(8192.0)),
    );

    banner("Talus on FIFO");
    // Same FIFO policy, now under Talus with way partitioning. The
    // planner reads the sampled curve every 50k accesses.
    let cache = WayPartitioned::new(cache_lines, 32, 2, Fifo::default(), 11);
    let monitor = CurveSampler::with_policy(
        |_seed| Box::new(Fifo::default()) as Box<dyn ReplacementPolicy>,
        &sizes,
        1024,
        16,
        43,
    );
    let mut talus = TalusSingleCache::new(cache, monitor, 50_000, TalusCacheConfig::new());
    let mut state4 = 1u64;
    for i in 0..600_000u64 {
        talus.access(workload(i, &mut state4), &ctx);
    }
    talus.reset_stats();
    let mut state5 = 1u64;
    for i in 0..600_000u64 {
        talus.access(workload(i, &mut state5), &ctx);
    }
    let talus_miss = talus.stats().miss_rate();
    row("Talus+W/FIFO miss rate", format!("{talus_miss:.3}"));
    row(
        "improvement over FIFO",
        format!("{:.0}%", (1.0 - talus_miss / fifo_miss) * 100.0),
    );

    banner("Takeaway");
    println!("  Talus never needed to know the policy was FIFO — only its miss curve.");
    println!("  Any policy + any curve source (UMON, sampling bank, offline profile) works.");
    assert!(
        talus_miss < fifo_miss * 0.9,
        "Talus should improve on plain FIFO ({talus_miss:.3} vs {fifo_miss:.3})"
    );
}
