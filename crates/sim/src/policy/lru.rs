//! The stamp engine under LRU, [`Bip`](super::Bip) and
//! [`Dip`](super::Dip), and random replacement.

use super::insertion::{Always, Insertion, Seeded};
use super::{AccessCtx, ReplacementPolicy};
use std::ops::Range;

/// Least-recently-used replacement.
///
/// The baseline policy throughout the paper: predictable (it obeys the
/// stack property, so UMONs can sample its whole miss curve) but prone to
/// cliffs on scanning/thrashing patterns.
pub type Lru = Stamps<Always>;

/// Recency by per-line logical timestamps: the victim is the candidate
/// with the oldest stamp, a hit moves its line to MRU, and the rule `I`
/// inserts a line at MRU or at the LRU position.
#[derive(Debug, Clone, Default)]
pub struct Stamps<I> {
    stamps: Vec<u64>,
    ways: usize,
    clock: u64,
    pub(super) rule: I,
}

impl Lru {
    /// Creates an LRU policy (call [`attach`](ReplacementPolicy::attach)
    /// before use).
    pub fn new() -> Self {
        Lru::default()
    }
}

impl<I: Seeded> Stamps<I> {
    /// Creates a BIP or DIP policy; `seed` offsets the bimodal phase.
    pub fn new(seed: u64) -> Self {
        Stamps {
            stamps: Vec::new(),
            ways: 0,
            clock: 0,
            rule: I::seeded(seed),
        }
    }
}

impl<I> Stamps<I> {
    fn touch_mru(&mut self, set: usize, way: usize) {
        self.clock += 1;
        self.stamps[set * self.ways + way] = self.clock;
    }

    /// Place the line at the LRU position: older than everything currently
    /// in the set, so it is the next victim unless promoted by a hit.
    fn place_lru(&mut self, set: usize, way: usize) {
        let base = set * self.ways;
        let min = (0..self.ways)
            .filter(|&w| w != way)
            .map(|w| self.stamps[base + w])
            .min()
            .unwrap_or(0);
        self.stamps[base + way] = min.saturating_sub(1);
    }
}

impl<I: Insertion> ReplacementPolicy for Stamps<I> {
    fn attach(&mut self, sets: usize, ways: usize) {
        self.stamps = vec![0; sets * ways];
        self.ways = ways;
        self.clock = 0;
    }

    fn on_hit(&mut self, set: usize, way: usize, _ctx: &AccessCtx) {
        self.touch_mru(set, way);
    }

    fn choose_victim(&mut self, set: usize, candidates: Range<usize>) -> usize {
        assert!(!candidates.is_empty(), "no victim candidates");
        candidates
            .min_by_key(|&w| self.stamps[set * self.ways + w])
            .expect("candidates is non-empty")
    }

    fn on_insert(&mut self, set: usize, way: usize, ctx: &AccessCtx) {
        if self.rule.protect(set, ctx) {
            self.touch_mru(set, way);
        } else {
            self.place_lru(set, way);
        }
    }

    fn name(&self) -> &'static str {
        I::LRU_NAME
    }
}

/// Uniform-random replacement: the simplest baseline, cliff-free on cyclic
/// patterns but with a worse floor than LRU on friendly ones.
#[derive(Debug, Clone)]
pub struct RandomRepl {
    state: u64,
}

impl RandomRepl {
    /// Creates a random policy from a deterministic seed.
    pub fn new(seed: u64) -> Self {
        RandomRepl { state: seed | 1 }
    }

    fn next(&mut self) -> u64 {
        // xorshift64
        self.state ^= self.state << 13;
        self.state ^= self.state >> 7;
        self.state ^= self.state << 17;
        self.state
    }
}

impl ReplacementPolicy for RandomRepl {
    fn attach(&mut self, _sets: usize, _ways: usize) {}

    fn on_hit(&mut self, _set: usize, _way: usize, _ctx: &AccessCtx) {}

    fn choose_victim(&mut self, _set: usize, candidates: Range<usize>) -> usize {
        assert!(!candidates.is_empty(), "no victim candidates");
        candidates.start + (self.next() % candidates.len() as u64) as usize
    }

    fn on_insert(&mut self, _set: usize, _way: usize, _ctx: &AccessCtx) {}

    fn name(&self) -> &'static str {
        "Random"
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn lru_evicts_least_recently_touched() {
        let mut lru = Lru::new();
        lru.attach(1, 4);
        let ctx = AccessCtx::new();
        for w in 0..4 {
            lru.on_insert(0, w, &ctx);
        }
        // Touch 0 and 2; oldest is now way 1.
        lru.on_hit(0, 0, &ctx);
        lru.on_hit(0, 2, &ctx);
        assert_eq!(lru.choose_victim(0, 0..4), 1);
    }

    #[test]
    fn lru_respects_candidate_restriction() {
        let mut lru = Lru::new();
        lru.attach(1, 4);
        let ctx = AccessCtx::new();
        for w in 0..4 {
            lru.on_insert(0, w, &ctx);
        }
        // Way 0 is globally oldest, but only 2 and 3 are candidates.
        assert_eq!(lru.choose_victim(0, 2..4), 2);
    }

    #[test]
    fn lru_sets_are_independent() {
        let mut lru = Lru::new();
        lru.attach(2, 2);
        let ctx = AccessCtx::new();
        lru.on_insert(0, 0, &ctx);
        lru.on_insert(1, 0, &ctx);
        lru.on_insert(0, 1, &ctx);
        lru.on_insert(1, 1, &ctx);
        lru.on_hit(0, 0, &ctx);
        // Set 0: way 1 older. Set 1: way 0 older.
        assert_eq!(lru.choose_victim(0, 0..2), 1);
        assert_eq!(lru.choose_victim(1, 0..2), 0);
    }

    #[test]
    #[should_panic(expected = "no victim candidates")]
    fn lru_panics_on_empty_candidates() {
        let mut lru = Lru::new();
        lru.attach(1, 1);
        lru.choose_victim(0, 0..0);
    }

    #[test]
    fn random_picks_only_candidates() {
        let mut r = RandomRepl::new(7);
        r.attach(1, 8);
        for _ in 0..100 {
            let v = r.choose_victim(0, 3..6);
            assert!((3..6).contains(&v));
        }
    }

    #[test]
    fn random_is_deterministic_per_seed() {
        let mut a = RandomRepl::new(9);
        let mut b = RandomRepl::new(9);
        for _ in 0..50 {
            assert_eq!(a.choose_victim(0, 0..16), b.choose_victim(0, 0..16));
        }
    }

    #[test]
    fn random_eventually_picks_every_candidate() {
        let mut r = RandomRepl::new(3);
        let mut seen = [false; 4];
        for _ in 0..200 {
            seen[r.choose_victim(0, 0..4)] = true;
        }
        assert!(seen.iter().all(|&s| s));
    }
}
