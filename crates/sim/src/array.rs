//! Cache arrays: the set-associative array under [`SetAssocCache`] and the
//! way- and set-partitioned caches, and a fully-associative LRU.

use crate::addr::LineAddr;
use crate::hasher::{FastMod32, H3Hasher, LineHashBuilder};
use crate::policy::{AccessCtx, ReplacementPolicy};
use crate::stats::{AccessResult, CacheStats};
use std::collections::HashMap;
use std::ops::Range;

/// Tag value marking an empty way.
const INVALID_TAG: u64 = u64::MAX;

/// A hashed `sets × ways` tag array and its replacement policy: what
/// [`SetAssocCache`] and the way- and set-partitioned caches each hold,
/// and the one probe all three run.
#[derive(Debug, Clone)]
pub(crate) struct SetArray<P> {
    pub(crate) ways: usize,
    tags: Vec<u64>,
    policy: P,
    hasher: H3Hasher,
    /// `hash % sets`, divide-free.
    pub(crate) set_index: FastMod32,
}

impl<P: ReplacementPolicy> SetArray<P> {
    pub(crate) fn sets(&self) -> usize {
        self.set_index.divisor() as usize
    }

    pub(crate) fn capacity_lines(&self) -> u64 {
        self.tags.len() as u64
    }

    /// The line's set hash. The hasher has 32 output bits, so the cast
    /// keeps all of them.
    #[inline]
    pub(crate) fn hash(&self, line: LineAddr) -> u32 {
        self.hasher.hash_line(line) as u32
    }

    /// The probe: a tag match anywhere in `set`'s row is a hit; else the
    /// first invalid way in `fill`, or a policy-chosen victim among `fill`,
    /// receives the line (an empty `fill` bypasses). Two scans: one pass
    /// that also tests `fill` ran the criterion access rows 1.1–1.4×
    /// slower (medians, 2-vCPU x86-64).
    #[inline]
    pub(crate) fn probe(
        &mut self,
        set: usize,
        fill: Range<usize>,
        line: LineAddr,
        ctx: &AccessCtx,
    ) -> AccessResult {
        let tag = line.value();
        debug_assert_ne!(
            tag, INVALID_TAG,
            "line address collides with the invalid tag"
        );
        let ctx = &ctx.with_line(line); // signature-based policies need the address
        let row = &mut self.tags[set * self.ways..][..self.ways];
        if let Some(way) = row.iter().position(|&t| t == tag) {
            self.policy.on_hit(set, way, ctx);
            return AccessResult::Hit;
        }
        if fill.is_empty() {
            return AccessResult::Miss;
        }
        let way = match row[fill.clone()].iter().position(|&t| t == INVALID_TAG) {
            Some(k) => fill.start + k,
            None => self.policy.choose_victim(set, fill),
        };
        row[way] = tag;
        self.policy.on_insert(set, way, ctx);
        AccessResult::Miss
    }
}

/// Anything that behaves like a single cache: look up a line, insert on
/// miss, count hits and misses.
pub trait CacheModel {
    /// Performs one access, inserting the line on a miss.
    fn access(&mut self, line: LineAddr, ctx: &AccessCtx) -> AccessResult;

    /// Performs a block of accesses, inserting each line on a miss.
    ///
    /// Semantically identical to calling [`access`](Self::access) per
    /// line, in order — bit-for-bit, property-tested. Implementations
    /// with per-access setup (context plumbing, bounds checks) hoist it
    /// out of the per-line loop; this is the L2-array end of the batched
    /// seam that `Monitor::record_block` opened one layer up.
    fn access_block(&mut self, lines: &[LineAddr], ctx: &AccessCtx) {
        for &line in lines {
            self.access(line, ctx);
        }
    }

    /// Hit/miss counters since the last reset.
    fn stats(&self) -> &CacheStats;

    /// Clears the counters (cache contents are kept).
    fn reset_stats(&mut self);

    /// Total capacity in cache lines.
    fn capacity_lines(&self) -> u64;
}

/// A hashed set-associative cache with a pluggable replacement policy.
///
/// Addresses are spread across sets with an H3 hash (the paper's caches are
/// hashed; Assumption 3 relies on it). The policy is a type parameter so
/// hot loops monomorphise; a policy picked at runtime is an
/// [`AnyPolicy`](crate::policy::AnyPolicy).
///
/// # Examples
///
/// ```
/// use talus_sim::{AccessCtx, CacheModel, LineAddr, SetAssocCache};
/// use talus_sim::policy::Lru;
/// let mut cache = SetAssocCache::new(1024, 16, Lru::new(), 42);
/// let ctx = AccessCtx::new();
/// assert!(cache.access(LineAddr(7), &ctx).is_miss());
/// assert!(cache.access(LineAddr(7), &ctx).is_hit());
/// assert_eq!(cache.capacity_lines(), 1024);
/// ```
#[derive(Debug, Clone)]
pub struct SetAssocCache<P> {
    /// The array alone, which the partitioned caches build through
    /// [`new`](Self::new) and keep.
    pub(crate) array: SetArray<P>,
    stats: CacheStats,
}

impl<P: ReplacementPolicy> SetAssocCache<P> {
    /// Builds a cache of `capacity_lines` lines with the given
    /// associativity; the number of sets is `capacity / ways`.
    ///
    /// # Panics
    ///
    /// Panics if `capacity_lines` is zero, `ways` is zero, or the capacity
    /// is not a multiple of `ways`.
    pub fn new(capacity_lines: u64, ways: usize, policy: P, seed: u64) -> Self {
        assert!(capacity_lines > 0, "capacity must be positive");
        assert!(ways > 0, "associativity must be positive");
        assert!(
            capacity_lines.is_multiple_of(ways as u64),
            "capacity ({capacity_lines} lines) must be a multiple of ways ({ways})"
        );
        let sets = (capacity_lines / ways as u64) as usize;
        Self::with_geometry(sets, ways, policy, seed)
    }

    /// Builds a cache with an explicit `sets × ways` geometry.
    ///
    /// # Panics
    ///
    /// Panics if `sets` or `ways` is zero, or `sets` exceeds `u32::MAX`
    /// (sets are indexed by a 32-bit hash).
    pub fn with_geometry(sets: usize, ways: usize, mut policy: P, seed: u64) -> Self {
        assert!(sets > 0, "set count must be positive");
        assert!(ways > 0, "associativity must be positive");
        let set_index = FastMod32::new(u32::try_from(sets).expect("set count must fit in 32 bits"));
        policy.attach(sets, ways);
        SetAssocCache {
            array: SetArray {
                ways,
                tags: vec![INVALID_TAG; sets * ways],
                policy,
                hasher: H3Hasher::new(32, seed),
                set_index,
            },
            stats: CacheStats::new(),
        }
    }

    /// Number of sets.
    pub fn sets(&self) -> usize {
        self.array.sets()
    }

    /// Associativity.
    pub fn ways(&self) -> usize {
        self.array.ways
    }

    /// The replacement policy (e.g. to inspect adaptive state).
    pub fn policy(&self) -> &P {
        &self.array.policy
    }

    /// The access path without the stats update, for a line whose set
    /// hash is `hash`: a probe of its set that may fill any way.
    #[inline]
    fn access_inner(&mut self, line: LineAddr, hash: u32, ctx: &AccessCtx) -> AccessResult {
        let set = self.array.set_index.rem(hash) as usize;
        self.array.probe(set, 0..self.array.ways, line, ctx)
    }

    /// [`access`](CacheModel::access) with `hash` = this cache's set hash
    /// of `line`, for an owner that hashes each line for many caches at
    /// once (one [`H3Bank`](crate::hasher::H3Bank) lane per cache, seeded
    /// like the cache). Bit-for-bit the plain path.
    #[inline]
    pub(crate) fn access_hashed(
        &mut self,
        line: LineAddr,
        hash: u32,
        ctx: &AccessCtx,
    ) -> AccessResult {
        debug_assert_eq!(hash, self.array.hash(line));
        let result = self.access_inner(line, hash, ctx);
        self.stats.record(result);
        result
    }

    /// [`access_block`](CacheModel::access_block) with `hash_of(k)` =
    /// this cache's set hash of `lines[k]`, as above.
    pub(crate) fn access_block_hashed(
        &mut self,
        lines: &[LineAddr],
        hash_of: impl Fn(usize) -> u32,
        ctx: &AccessCtx,
    ) {
        let mut hits = 0u64;
        for (k, &line) in lines.iter().enumerate() {
            let hash = hash_of(k);
            debug_assert_eq!(hash, self.array.hash(line));
            if self.access_inner(line, hash, ctx) == AccessResult::Hit {
                hits += 1;
            }
        }
        self.stats.record_block(hits, lines.len() as u64 - hits);
    }
}

impl<P: ReplacementPolicy> CacheModel for SetAssocCache<P> {
    fn access(&mut self, line: LineAddr, ctx: &AccessCtx) -> AccessResult {
        self.access_hashed(line, self.array.hash(line), ctx)
    }

    fn access_block(&mut self, lines: &[LineAddr], ctx: &AccessCtx) {
        // Count hits locally and fold into the stats once per block.
        let mut hits = 0u64;
        for &line in lines {
            if self.access_inner(line, self.array.hash(line), ctx) == AccessResult::Hit {
                hits += 1;
            }
        }
        self.stats.record_block(hits, lines.len() as u64 - hits);
    }

    fn stats(&self) -> &CacheStats {
        &self.stats
    }

    fn reset_stats(&mut self) {
        self.stats.reset();
    }

    fn capacity_lines(&self) -> u64 {
        self.array.capacity_lines()
    }
}

/// A fully-associative LRU cache with exact line-count capacity.
///
/// Backbone of the *ideal* partitioning scheme (Talus+I in the paper's
/// Fig. 8): partitions sized to the line, no associativity artefacts.
/// Constant-time accesses via a hash map plus an intrusive doubly-linked
/// recency list. The map hashes with [`mix64`](crate::mix64) (via
/// [`LineHashBuilder`]) rather than the standard library's SipHash:
/// simulated addresses are not attacker-controlled, and the tag lookup is
/// this model's entire access path.
///
/// A capacity of zero models a *bypass* partition: every access misses and
/// nothing is cached (Talus uses this when the hull vertex α is size 0).
#[derive(Debug, Clone)]
pub struct FullyAssocLru {
    capacity: usize,
    map: HashMap<LineAddr, usize, LineHashBuilder>,
    nodes: Vec<Node>,
    free: Vec<usize>,
    head: usize, // most recently used; NIL if empty
    tail: usize, // least recently used; NIL if empty
    stats: CacheStats,
}

#[derive(Debug, Clone, Copy)]
struct Node {
    line: LineAddr,
    prev: usize,
    next: usize,
}

const NIL: usize = usize::MAX;

impl FullyAssocLru {
    /// Creates a fully-associative LRU cache holding exactly
    /// `capacity_lines` lines (zero means bypass-everything).
    pub fn new(capacity_lines: u64) -> Self {
        let capacity = capacity_lines as usize;
        FullyAssocLru {
            capacity,
            map: HashMap::with_capacity_and_hasher(capacity.min(1 << 20), LineHashBuilder),
            nodes: Vec::with_capacity(capacity.min(1 << 20)),
            free: Vec::new(),
            head: NIL,
            tail: NIL,
            stats: CacheStats::new(),
        }
    }

    /// Current number of resident lines.
    pub fn len(&self) -> usize {
        self.map.len()
    }

    /// Whether the cache currently holds no lines.
    pub fn is_empty(&self) -> bool {
        self.map.is_empty()
    }

    /// Changes the capacity. Shrinking evicts LRU lines immediately.
    pub fn set_capacity(&mut self, capacity_lines: u64) {
        self.capacity = capacity_lines as usize;
        while self.map.len() > self.capacity {
            self.evict_lru();
        }
    }

    fn detach(&mut self, idx: usize) {
        let Node { prev, next, .. } = self.nodes[idx];
        if prev != NIL {
            self.nodes[prev].next = next;
        } else {
            self.head = next;
        }
        if next != NIL {
            self.nodes[next].prev = prev;
        } else {
            self.tail = prev;
        }
    }

    fn push_front(&mut self, idx: usize) {
        self.nodes[idx].prev = NIL;
        self.nodes[idx].next = self.head;
        if self.head != NIL {
            self.nodes[self.head].prev = idx;
        }
        self.head = idx;
        if self.tail == NIL {
            self.tail = idx;
        }
    }

    fn evict_lru(&mut self) {
        let victim = self.tail;
        debug_assert_ne!(victim, NIL, "evict from empty cache");
        let line = self.nodes[victim].line;
        self.detach(victim);
        self.map.remove(&line);
        self.free.push(victim);
    }
}

impl CacheModel for FullyAssocLru {
    fn access(&mut self, line: LineAddr, ctx: &AccessCtx) -> AccessResult {
        let _ = ctx;
        let result = if let Some(&idx) = self.map.get(&line) {
            self.detach(idx);
            self.push_front(idx);
            AccessResult::Hit
        } else {
            if self.capacity > 0 {
                if self.map.len() >= self.capacity {
                    self.evict_lru();
                }
                let idx = match self.free.pop() {
                    Some(i) => {
                        self.nodes[i] = Node {
                            line,
                            prev: NIL,
                            next: NIL,
                        };
                        i
                    }
                    None => {
                        self.nodes.push(Node {
                            line,
                            prev: NIL,
                            next: NIL,
                        });
                        self.nodes.len() - 1
                    }
                };
                self.map.insert(line, idx);
                self.push_front(idx);
            }
            AccessResult::Miss
        };
        self.stats.record(result);
        result
    }

    fn stats(&self) -> &CacheStats {
        &self.stats
    }

    fn reset_stats(&mut self) {
        self.stats.reset();
    }

    fn capacity_lines(&self) -> u64 {
        self.capacity as u64
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::policy::{Belady, Lru, Srrip};

    fn ctx() -> AccessCtx {
        AccessCtx::new()
    }

    #[test]
    fn set_assoc_hits_after_insert() {
        let mut c = SetAssocCache::new(64, 4, Lru::new(), 1);
        assert!(c.access(LineAddr(10), &ctx()).is_miss());
        assert!(c.access(LineAddr(10), &ctx()).is_hit());
        assert_eq!(c.stats().hits(), 1);
        assert_eq!(c.stats().misses(), 1);
    }

    #[test]
    fn set_assoc_evicts_lru_within_set() {
        // Single set, 2 ways: classic LRU behaviour.
        let mut c = SetAssocCache::with_geometry(1, 2, Lru::new(), 1);
        c.access(LineAddr(1), &ctx());
        c.access(LineAddr(2), &ctx());
        c.access(LineAddr(1), &ctx()); // 2 is now LRU
        c.access(LineAddr(3), &ctx()); // evicts 2
        assert!(c.access(LineAddr(1), &ctx()).is_hit());
        assert!(c.access(LineAddr(2), &ctx()).is_miss());
    }

    #[test]
    fn set_assoc_lru_thrashes_on_cyclic_scan() {
        // The canonical cliff: a cyclic scan over capacity+1 lines in one
        // set gets zero hits under LRU.
        let mut c = SetAssocCache::with_geometry(1, 8, Lru::new(), 1);
        for _ in 0..10 {
            for i in 0..9u64 {
                c.access(LineAddr(i), &ctx());
            }
        }
        assert_eq!(c.stats().hits(), 0);
    }

    #[test]
    fn set_assoc_works_with_srrip() {
        let mut c = SetAssocCache::new(256, 16, Srrip::new(), 3);
        for i in 0..64u64 {
            c.access(LineAddr(i), &ctx());
        }
        for i in 0..64u64 {
            assert!(c.access(LineAddr(i), &ctx()).is_hit(), "line {i}");
        }
    }

    #[test]
    fn set_assoc_belady_beats_lru_on_cyclic_scan() {
        // MIN keeps part of the loop resident; LRU gets nothing.
        let trace: Vec<LineAddr> = (0..20).flat_map(|_| (0..12u64).map(LineAddr)).collect();
        let next = crate::policy::annotate_next_uses(&trace);

        let mut lru = SetAssocCache::with_geometry(1, 8, Lru::new(), 1);
        let mut min = SetAssocCache::with_geometry(1, 8, Belady::new(), 1);
        for (i, &line) in trace.iter().enumerate() {
            let c = AccessCtx::new().with_next_use(next[i]);
            lru.access(line, &c);
            min.access(line, &c);
        }
        assert_eq!(lru.stats().hits(), 0);
        assert!(
            min.stats().hit_rate() > 0.5,
            "MIN hit rate {}",
            min.stats().hit_rate()
        );
    }

    #[test]
    #[should_panic(expected = "multiple of ways")]
    fn set_assoc_rejects_ragged_capacity() {
        SetAssocCache::new(100, 16, Lru::new(), 1);
    }

    #[test]
    fn fully_assoc_exact_capacity() {
        let mut c = FullyAssocLru::new(3);
        for i in 0..3u64 {
            assert!(c.access(LineAddr(i), &ctx()).is_miss());
        }
        for i in 0..3u64 {
            assert!(c.access(LineAddr(i), &ctx()).is_hit());
        }
        c.access(LineAddr(99), &ctx()); // evicts LRU = line 0
        assert!(c.access(LineAddr(1), &ctx()).is_hit());
        assert!(c.access(LineAddr(2), &ctx()).is_hit());
        assert!(c.access(LineAddr(0), &ctx()).is_miss());
        assert_eq!(c.len(), 3);
    }

    #[test]
    fn fully_assoc_zero_capacity_bypasses() {
        let mut c = FullyAssocLru::new(0);
        for i in 0..10u64 {
            assert!(c.access(LineAddr(i % 2), &ctx()).is_miss());
        }
        assert_eq!(c.len(), 0);
        assert!(c.is_empty());
    }

    #[test]
    fn fully_assoc_shrink_evicts_lru_first() {
        let mut c = FullyAssocLru::new(4);
        for i in 0..4u64 {
            c.access(LineAddr(i), &ctx());
        }
        c.access(LineAddr(0), &ctx()); // 0 is MRU; LRU order now 1,2,3
        c.set_capacity(2);
        assert_eq!(c.len(), 2);
        assert!(c.access(LineAddr(0), &ctx()).is_hit());
        assert!(c.access(LineAddr(3), &ctx()).is_hit());
        assert!(c.access(LineAddr(1), &ctx()).is_miss());
    }

    #[test]
    fn fully_assoc_grow_keeps_contents() {
        let mut c = FullyAssocLru::new(2);
        c.access(LineAddr(1), &ctx());
        c.access(LineAddr(2), &ctx());
        c.set_capacity(4);
        assert!(c.access(LineAddr(1), &ctx()).is_hit());
        assert!(c.access(LineAddr(2), &ctx()).is_hit());
    }

    #[test]
    fn fully_assoc_matches_set_assoc_single_set() {
        // A fully-associative LRU and a 1-set LRU array must agree exactly.
        let mut fa = FullyAssocLru::new(8);
        let mut sa = SetAssocCache::with_geometry(1, 8, Lru::new(), 1);
        let mut state = 12345u64;
        for _ in 0..5000 {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            let line = LineAddr((state >> 33) % 24);
            assert_eq!(fa.access(line, &ctx()), sa.access(line, &ctx()));
        }
    }

    #[test]
    fn reset_stats_keeps_contents() {
        let mut c = FullyAssocLru::new(2);
        c.access(LineAddr(1), &ctx());
        c.reset_stats();
        assert_eq!(c.stats().accesses(), 0);
        assert!(c.access(LineAddr(1), &ctx()).is_hit());
    }
}
