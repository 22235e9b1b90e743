//! The set-associative engine under [`WayPartitioned`](super::WayPartitioned)
//! and [`SetPartitioned`](super::SetPartitioned).
//!
//! Both are [`SetAssocCache`]'s array and probe with per-partition stats,
//! each partition owning a run of ways or of sets: that unit, which picks
//! the set an access indexes and the ways a miss may fill, is the
//! [`Layout`] the engine is generic over (monomorphised, not matched).

use super::{apportion, PartitionedCacheModel};
use crate::addr::{LineAddr, PartitionId};
use crate::array::{SetArray, SetAssocCache};
use crate::hasher::FastMod32;
use crate::policy::{AccessCtx, ReplacementPolicy};
use crate::stats::{AccessResult, CacheStats};
use std::marker::PhantomData;
use std::ops::Range;

/// Where an access goes: a set, and the ways a miss may fill there.
pub type Slot = (usize, Range<usize>);

/// What a partition owns: a run of units (sets or ways), and `hash %` its
/// length in divide-free form (`None` for an empty run).
#[derive(Debug, Clone, Default)]
pub struct Run {
    pub(super) units: Range<usize>,
    pub(super) index: Option<FastMod32>,
}

/// How a [`SetAssoc`] array is divided among its partitions: the one
/// decision its schemes differ in.
pub trait Layout {
    /// Scheme name for reports.
    const NAME: &'static str;

    /// Whether a partition owns a run of whole sets; else it owns a run of
    /// ways, the same in every set.
    const OWNS_SETS: bool;

    /// Where an access of set hash `hash` goes for a partition owning
    /// `run` (`sets` reduces a hash over the whole array), or `None` to
    /// bypass with no lookup.
    fn place(run: &Run, hash: u32, sets: FastMod32, ways: usize) -> Option<Slot>;
}

/// A hashed set-associative partitioned cache whose partitions are laid
/// out by `L`, with replacement policy `P`.
#[derive(Debug, Clone)]
pub struct SetAssoc<L, P> {
    array: SetArray<P>,
    pub(super) runs: Vec<Run>,
    stats: Vec<CacheStats>,
    layout: PhantomData<L>,
}

impl<L: Layout, P: ReplacementPolicy> SetAssoc<L, P> {
    /// Builds a cache of `capacity_lines` with the given associativity and
    /// number of partitions, none of which owns anything (they bypass)
    /// until [`set_partition_sizes`](PartitionedCacheModel::set_partition_sizes).
    ///
    /// # Panics
    ///
    /// Panics if the capacity is not a positive multiple of `ways`, if
    /// there are more than `u32::MAX` sets, or if `partitions` is zero.
    pub fn new(capacity_lines: u64, ways: usize, partitions: usize, policy: P, seed: u64) -> Self {
        assert!(partitions > 0, "partition count must be positive");
        SetAssoc {
            array: SetAssocCache::new(capacity_lines, ways, policy, seed).array,
            runs: vec![Run::default(); partitions],
            stats: vec![CacheStats::new(); partitions],
            layout: PhantomData,
        }
    }

    /// One access with the partition index already validated; shared by
    /// the per-access and block paths (stats are recorded by the caller).
    #[inline]
    fn access_inner(&mut self, p: usize, line: LineAddr, ctx: &AccessCtx) -> AccessResult {
        let a = &mut self.array;
        match L::place(&self.runs[p], a.hash(line), a.set_index, a.ways) {
            Some((set, fill)) => a.probe(set, fill, line, ctx),
            None => AccessResult::Miss,
        }
    }
}

impl<L: Layout, P: ReplacementPolicy> PartitionedCacheModel for SetAssoc<L, P> {
    fn num_partitions(&self) -> usize {
        self.stats.len()
    }

    fn set_partition_sizes(&mut self, lines: &[u64]) -> Vec<u64> {
        assert_eq!(
            lines.len(),
            self.num_partitions(),
            "one request per partition"
        );
        let (sets, ways) = (self.array.sets() as u64, self.array.ways as u64);
        let (unit_lines, units) = if L::OWNS_SETS {
            (ways, sets)
        } else {
            (sets, ways)
        };
        let quotas = apportion(lines, unit_lines, units);
        // Runs are handed out in partition order, so small reallocations
        // move few units. Quotas sum to at most the units, which fit in 32
        // bits.
        let mut next = 0;
        for (run, &quota) in self.runs.iter_mut().zip(&quotas) {
            let index = (quota > 0).then(|| FastMod32::new(quota as u32));
            *run = Run {
                units: next..next + quota as usize,
                index,
            };
            next = run.units.end;
        }
        quotas.iter().map(|&q| q * unit_lines).collect()
    }

    fn access(&mut self, part: PartitionId, line: LineAddr, ctx: &AccessCtx) -> AccessResult {
        let p = part.index();
        assert!(p < self.num_partitions(), "unknown {part}");
        let result = self.access_inner(p, line, ctx);
        self.stats[p].record(result);
        result
    }

    fn access_block(&mut self, part: PartitionId, lines: &[LineAddr], ctx: &AccessCtx) {
        let p = part.index();
        assert!(p < self.num_partitions(), "unknown {part}");
        let mut hits = 0u64;
        for &line in lines {
            if self.access_inner(p, line, ctx) == AccessResult::Hit {
                hits += 1;
            }
        }
        self.stats[p].record_block(hits, lines.len() as u64 - hits);
    }

    fn partition_stats(&self, part: PartitionId) -> &CacheStats {
        &self.stats[part.index()]
    }

    fn reset_stats(&mut self) {
        for s in &mut self.stats {
            s.reset();
        }
    }

    fn capacity_lines(&self) -> u64 {
        self.array.capacity_lines()
    }

    fn scheme_name(&self) -> &'static str {
        L::NAME
    }
}

#[cfg(test)]
mod tests {
    //! The engine pinned to the two caches it replaced: test-only copies of
    //! the old `WayPartitioned` and `SetPartitioned` access paths, driven
    //! beside each layout with the same accesses and reassignments.

    use super::*;
    use crate::hasher::H3Hasher;
    use crate::part::{apportion, SetPartitioned, WayPartitioned};
    use crate::policy::{Lru, Srrip};

    const INVALID_TAG: u64 = u64::MAX;

    /// `WayPartitioned` before the engine: lookup over the whole row, then
    /// the first invalid way of the partition's run, else a victim in it.
    struct OldWay<P> {
        sets: usize,
        ways: usize,
        tags: Vec<u64>,
        own_ways: Vec<Range<usize>>,
        policy: P,
        hasher: H3Hasher,
        set_index: FastMod32,
    }

    impl<P: ReplacementPolicy> OldWay<P> {
        fn new(
            capacity_lines: u64,
            ways: usize,
            partitions: usize,
            mut policy: P,
            seed: u64,
        ) -> Self {
            let set_index = FastMod32::new((capacity_lines / ways as u64) as u32);
            let sets = set_index.divisor() as usize;
            policy.attach(sets, ways);
            OldWay {
                sets,
                ways,
                tags: vec![INVALID_TAG; sets * ways],
                own_ways: vec![0..0; partitions],
                policy,
                hasher: H3Hasher::new(32, seed),
                set_index,
            }
        }

        fn set_partition_sizes(&mut self, lines: &[u64]) -> Vec<u64> {
            let ways_per = apportion(lines, self.sets as u64, self.ways as u64);
            let mut next_way = 0usize;
            for (own, &quota) in self.own_ways.iter_mut().zip(&ways_per) {
                *own = next_way..next_way + quota as usize;
                next_way = own.end;
            }
            ways_per.iter().map(|&w| w * self.sets as u64).collect()
        }

        fn access_inner(&mut self, p: usize, line: LineAddr, ctx: &AccessCtx) -> AccessResult {
            let set = self.set_index.rem(self.hasher.hash_line(line) as u32) as usize;
            let tag = line.value();
            let row = &mut self.tags[set * self.ways..][..self.ways];
            let own = self.own_ways[p].clone();
            let ctx = &ctx.with_line(line);
            if let Some(way) = row.iter().position(|&t| t == tag) {
                self.policy.on_hit(set, way, ctx);
                AccessResult::Hit
            } else if own.is_empty() {
                AccessResult::Miss
            } else {
                let way = match row[own.clone()].iter().position(|&t| t == INVALID_TAG) {
                    Some(k) => own.start + k,
                    None => self.policy.choose_victim(set, own),
                };
                row[way] = tag;
                self.policy.on_insert(set, way, ctx);
                AccessResult::Miss
            }
        }
    }

    /// `SetPartitioned` before the engine: a bypass with no lookup for an
    /// empty range, else the single-pass probe of a set in the range.
    struct OldSet<P> {
        sets: usize,
        ways: usize,
        tags: Vec<u64>,
        ranges: Vec<(usize, Option<FastMod32>)>,
        policy: P,
        hasher: H3Hasher,
    }

    impl<P: ReplacementPolicy> OldSet<P> {
        fn new(
            capacity_lines: u64,
            ways: usize,
            partitions: usize,
            mut policy: P,
            seed: u64,
        ) -> Self {
            let sets = (capacity_lines / ways as u64) as usize;
            policy.attach(sets, ways);
            OldSet {
                sets,
                ways,
                tags: vec![INVALID_TAG; sets * ways],
                ranges: vec![(0, None); partitions],
                policy,
                hasher: H3Hasher::new(32, seed),
            }
        }

        fn set_partition_sizes(&mut self, lines: &[u64]) -> Vec<u64> {
            let sets_per = apportion(lines, self.ways as u64, self.sets as u64);
            let mut base = 0usize;
            for (p, &quota) in sets_per.iter().enumerate() {
                self.ranges[p] = (base, (quota > 0).then(|| FastMod32::new(quota as u32)));
                base += quota as usize;
            }
            sets_per.iter().map(|&s| s * self.ways as u64).collect()
        }

        fn access_inner(&mut self, p: usize, line: LineAddr, ctx: &AccessCtx) -> AccessResult {
            let ctx = &ctx.with_line(line);
            let (base_set, index) = self.ranges[p];
            let Some(index) = index else {
                return AccessResult::Miss;
            };
            let set = base_set + index.rem(self.hasher.hash_line(line) as u32) as usize;
            let (tag, base) = (line.value(), set * self.ways);
            let mut invalid = None;
            for (w, &t) in self.tags[base..base + self.ways].iter().enumerate() {
                if t == tag {
                    self.policy.on_hit(set, w, ctx);
                    return AccessResult::Hit;
                }
                if t == INVALID_TAG && invalid.is_none() {
                    invalid = Some(w);
                }
            }
            let way = match invalid {
                Some(w) => w,
                None => self.policy.choose_victim(set, 0..self.ways),
            };
            self.tags[base + way] = tag;
            self.policy.on_insert(set, way, ctx);
            AccessResult::Miss
        }
    }

    /// Drives `new` and `old` with one random stream of per-access and
    /// block accesses over 3 partitions, reassigning sizes at random
    /// (zero-unit partitions included) every few hundred accesses, and
    /// requires the same grants, results and per-partition stats.
    fn drive<L: Layout, P: ReplacementPolicy>(
        new: &mut SetAssoc<L, P>,
        old_sizes: &mut dyn FnMut(&[u64]) -> Vec<u64>,
        old_access: &mut dyn FnMut(usize, LineAddr) -> AccessResult,
        seed: u64,
    ) {
        let ctx = AccessCtx::new();
        let capacity = new.capacity_lines();
        let mut state = seed | 1;
        let mut below = move |bound: u64| {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            (state >> 33) % bound
        };
        let mut old_stats = [CacheStats::new(); 3];
        for round in 0..60 {
            let requests: Vec<u64> = (0..3)
                .map(|_| match below(4) {
                    0 => 0,
                    _ => below(capacity),
                })
                .collect();
            assert_eq!(new.set_partition_sizes(&requests), old_sizes(&requests));
            for _ in 0..below(400) {
                let p = below(3) as usize;
                let lines: Vec<LineAddr> = (0..1 + below(8))
                    .map(|_| LineAddr(below(3 * capacity)))
                    .collect();
                let expected: Vec<AccessResult> = lines.iter().map(|&l| old_access(p, l)).collect();
                for &r in &expected {
                    old_stats[p].record(r);
                }
                if round % 2 == 0 {
                    for (&l, &r) in lines.iter().zip(&expected) {
                        assert_eq!(new.access(PartitionId(p as u32), l, &ctx), r, "{l:?}");
                    }
                } else {
                    new.access_block(PartitionId(p as u32), &lines, &ctx);
                }
                for (q, stats) in old_stats.iter().enumerate() {
                    assert_eq!(new.partition_stats(PartitionId(q as u32)), stats);
                }
            }
        }
    }

    fn way_equivalence<P: ReplacementPolicy + Clone>(policy: P) {
        for seed in 1..=6 {
            let (lines, ways) = (512, [8, 16][seed as usize % 2]);
            let mut new = WayPartitioned::new(lines, ways, 3, policy.clone(), seed);
            let old = std::cell::RefCell::new(OldWay::new(lines, ways, 3, policy.clone(), seed));
            let ctx = AccessCtx::new();
            drive(
                &mut new,
                &mut |r| old.borrow_mut().set_partition_sizes(r),
                &mut |p, l| old.borrow_mut().access_inner(p, l, &ctx),
                seed,
            );
        }
    }

    fn set_equivalence<P: ReplacementPolicy + Clone>(policy: P) {
        for seed in 1..=6 {
            let (lines, ways) = (512, [4, 8][seed as usize % 2]);
            let mut new = SetPartitioned::new(lines, ways, 3, policy.clone(), seed);
            let old = std::cell::RefCell::new(OldSet::new(lines, ways, 3, policy.clone(), seed));
            let ctx = AccessCtx::new();
            drive(
                &mut new,
                &mut |r| old.borrow_mut().set_partition_sizes(r),
                &mut |p, l| old.borrow_mut().access_inner(p, l, &ctx),
                seed,
            );
        }
    }

    #[test]
    fn way_layout_equals_the_old_way_partitioned_under_lru() {
        way_equivalence(Lru::new());
    }

    #[test]
    fn way_layout_equals_the_old_way_partitioned_under_srrip() {
        way_equivalence(Srrip::new());
    }

    #[test]
    fn set_layout_equals_the_old_set_partitioned_under_lru() {
        set_equivalence(Lru::new());
    }

    #[test]
    fn set_layout_equals_the_old_set_partitioned_under_srrip() {
        set_equivalence(Srrip::new());
    }
}
