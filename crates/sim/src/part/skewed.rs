//! The skew-associative engine under [`VantageLike`](super::VantageLike)
//! and [`FutilityScaled`](super::FutilityScaled).
//!
//! Both schemes are one array: each way indexes its column with its own H3
//! hash, so a line has `W` candidate slots in `W` different rows — the
//! balls-into-bins "power of many choices" effect that gives zcaches their
//! near-ideal associativity (without modelling relocation walks). The
//! engine owns the array, its LRU stamps, per-partition occupancy and
//! stats, exact line-granularity grants and the zero-grant bypass. The
//! schemes differ in one decision only — how a partition is held to its
//! grant — which is the [`Enforcement`] rule the engine is generic over,
//! so the per-access path is monomorphised for each.

use super::{exact_grants, PartitionedCacheModel};
use crate::addr::{LineAddr, PartitionId};
use crate::hasher::{FastMod32, H3Bank};
use crate::policy::AccessCtx;
use crate::stats::{AccessResult, CacheStats};

/// The most ways (replacement candidates per access) the skewed array
/// supports: its per-access candidate buffers are this long.
const MAX_SKEWED_WAYS: usize = 64;

const INVALID_TAG: u64 = u64::MAX;
const NO_OWNER: u32 = u32::MAX;

/// How a [`Skewed`] array holds each partition to its grant: the one
/// decision its schemes differ in.
pub trait Enforcement {
    /// Scheme name for reports.
    const NAME: &'static str;
    /// Way `w`'s hash is seeded `seed + SEED_STRIDE · (w + 1)`.
    const SEED_STRIDE: u64;

    /// The share of a grant the rule guarantees
    /// ([`PartitionedCacheModel::managed_fraction`]).
    fn managed_fraction(&self) -> f64 {
        1.0
    }

    /// Takes new grants; `occupancy` is each partition's resident lines.
    fn retarget(&mut self, granted: &[u64], occupancy: &[u64]);

    /// Called on every access, once the clock has ticked to `clock`.
    #[inline(always)]
    fn tick(&mut self, _clock: u64, _granted: &[u64], _occupancy: &[u64]) {}

    /// Partition `p` now holds `lines` lines.
    #[inline(always)]
    fn occupancy_changed(&mut self, _p: usize, _lines: u64) {}

    /// The slot to evict among `cands` (all valid) at time `clock`, given
    /// every slot's owner and last-touch stamp.
    fn victim(&self, cands: &[usize], owner: &[u32], stamp: &[u64], clock: u64) -> usize;
}

/// A skew-associative partitioned cache (LRU within a partition) whose
/// partitions are held to their grants by the rule `E`: `rows × ways`
/// slots, where way `w` indexes its column with its own H3 hash — lane `w`
/// of one [`H3Bank`], so a line's `W` candidate rows come from a single
/// walk over its address — reduced to a row without a divide.
#[derive(Debug, Clone)]
pub struct Skewed<E> {
    ways: usize,
    way_hashes: H3Bank,
    row_of: FastMod32,
    tags: Vec<u64>,
    owner: Vec<u32>,
    stamp: Vec<u64>,
    clock: u64,
    granted: Vec<u64>,
    occupancy: Vec<u64>,
    stats: Vec<CacheStats>,
    pub(super) rule: E,
}

impl<E: Enforcement> Skewed<E> {
    /// An empty array of `capacity_lines` slots offering `ways` candidates
    /// per access, every partition granted nothing.
    ///
    /// # Panics
    ///
    /// Panics unless `partitions` is positive, `capacity_lines` is a
    /// positive multiple of `ways`, `ways` is in `1..=64`, and the row
    /// count fits in 32 bits (rows are indexed by a 32-bit hash).
    pub(super) fn build(
        capacity_lines: u64,
        ways: usize,
        partitions: usize,
        seed: u64,
        rule: E,
    ) -> Self {
        assert!(partitions > 0, "partition count must be positive");
        assert!(capacity_lines > 0, "capacity must be positive");
        assert!(ways > 0, "associativity must be positive");
        assert!(
            ways <= MAX_SKEWED_WAYS,
            "at most {MAX_SKEWED_WAYS} ways (candidates per access), got {ways}"
        );
        assert!(
            capacity_lines.is_multiple_of(ways as u64),
            "capacity must be a multiple of ways"
        );
        let rows =
            u32::try_from(capacity_lines / ways as u64).expect("row count must fit in 32 bits");
        let seeds: Vec<u64> = (0..ways as u64)
            .map(|w| seed.wrapping_add(E::SEED_STRIDE * (w + 1)))
            .collect();
        let slots = rows as usize * ways;
        Skewed {
            ways,
            way_hashes: H3Bank::new(&seeds),
            row_of: FastMod32::new(rows),
            tags: vec![INVALID_TAG; slots],
            owner: vec![NO_OWNER; slots],
            stamp: vec![0; slots],
            clock: 0,
            granted: vec![0; partitions],
            occupancy: vec![0; partitions],
            stats: vec![CacheStats::new(); partitions],
            rule,
        }
    }

    /// Current resident lines of a partition.
    pub fn occupancy(&self, part: PartitionId) -> u64 {
        self.occupancy[part.index()]
    }

    /// One access with the partition index already validated; shared by
    /// the per-access and block paths (stats are recorded by the caller).
    /// The rule's clock is ticked per access, so it runs identically
    /// whether accesses arrive singly or in blocks.
    #[inline]
    fn access_inner(&mut self, p: usize, line: LineAddr) -> AccessResult {
        let tag = line.value();
        self.clock += 1;
        self.rule.tick(self.clock, &self.granted, &self.occupancy);
        let mut hit_slot = None;
        let mut empty_slot = None;
        // Gather the W skewed candidates in one pass.
        let mut hashes = [0u32; MAX_SKEWED_WAYS];
        let hashes = &mut hashes[..self.ways];
        self.way_hashes.hash_into(tag, hashes);
        let mut cands = [0usize; MAX_SKEWED_WAYS];
        for (w, &hash) in hashes.iter().enumerate() {
            let s = self.row_of.rem(hash) as usize * self.ways + w;
            cands[w] = s;
            if self.tags[s] == tag {
                hit_slot = Some(s);
                break;
            }
            if self.tags[s] == INVALID_TAG && empty_slot.is_none() {
                empty_slot = Some(s);
            }
        }
        if let Some(s) = hit_slot {
            self.stamp[s] = self.clock;
            return AccessResult::Hit;
        }
        if self.granted[p] == 0 {
            return AccessResult::Miss; // zero-size partitions bypass
        }
        let s = match empty_slot {
            Some(s) => s,
            None => {
                let cands = &cands[..self.ways];
                let v = self
                    .rule
                    .victim(cands, &self.owner, &self.stamp, self.clock);
                let old = self.owner[v] as usize;
                debug_assert_ne!(old, NO_OWNER as usize);
                self.occupancy[old] -= 1;
                self.rule.occupancy_changed(old, self.occupancy[old]);
                v
            }
        };
        self.tags[s] = tag;
        self.owner[s] = p as u32;
        self.stamp[s] = self.clock;
        self.occupancy[p] += 1;
        self.rule.occupancy_changed(p, self.occupancy[p]);
        AccessResult::Miss
    }
}

impl<E: Enforcement> PartitionedCacheModel for Skewed<E> {
    fn num_partitions(&self) -> usize {
        self.stats.len()
    }

    fn set_partition_sizes(&mut self, lines: &[u64]) -> Vec<u64> {
        assert_eq!(
            lines.len(),
            self.num_partitions(),
            "one request per partition"
        );
        self.granted = exact_grants(lines, self.capacity_lines());
        self.rule.retarget(&self.granted, &self.occupancy);
        self.granted.clone()
    }

    fn access(&mut self, part: PartitionId, line: LineAddr, _ctx: &AccessCtx) -> AccessResult {
        let p = part.index();
        assert!(p < self.num_partitions(), "unknown {part}");
        let result = self.access_inner(p, line);
        self.stats[p].record(result);
        result
    }

    fn access_block(&mut self, part: PartitionId, lines: &[LineAddr], _ctx: &AccessCtx) {
        let p = part.index();
        assert!(p < self.num_partitions(), "unknown {part}");
        let mut hits = 0u64;
        for &line in lines {
            if self.access_inner(p, line) == AccessResult::Hit {
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
        self.tags.len() as u64
    }

    fn scheme_name(&self) -> &'static str {
        E::NAME
    }

    fn managed_fraction(&self) -> f64 {
        self.rule.managed_fraction()
    }
}
