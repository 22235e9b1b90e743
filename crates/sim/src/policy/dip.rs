//! DIP: dynamic insertion policy (Qureshi et al., ISCA 2007).
//!
//! DIP duels LRU against BIP (bimodal insertion: new lines land in the LRU
//! position except for a 1/32 fraction inserted at MRU), protecting the
//! cache against thrashing while retaining LRU behaviour on friendly
//! workloads.

use super::{AccessCtx, ReplacementPolicy};
use std::ops::Range;

/// BIP inserts at MRU once every `1/ε` misses (paper: ε = 1/32).
const BIP_EPSILON: u64 = 32;
const DUEL_CONSTITUENCY: usize = 64;
const PSEL_MAX: i32 = 1023;
const PSEL_INIT: i32 = PSEL_MAX / 2;

/// Timestamp-ordered set state shared by DIP/BIP.
#[derive(Debug, Clone, Default)]
struct StampTable {
    stamps: Vec<u64>,
    ways: usize,
    clock: u64,
}

impl StampTable {
    fn attach(&mut self, sets: usize, ways: usize) {
        self.stamps = vec![0; sets * ways];
        self.ways = ways;
        self.clock = 0;
    }

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

    fn victim(&self, set: usize, candidates: Range<usize>) -> usize {
        assert!(!candidates.is_empty(), "no victim candidates");
        candidates
            .min_by_key(|&w| self.stamps[set * self.ways + w])
            .expect("candidates is non-empty")
    }
}

/// Bimodal insertion policy: LRU eviction, but insertions default to the
/// LRU position. Thrash-resistant on its own; used as one side of DIP.
#[derive(Debug, Clone)]
pub struct Bip {
    table: StampTable,
    miss_count: u64,
}

impl Bip {
    /// Creates a BIP policy; `seed` offsets the bimodal phase.
    pub fn new(seed: u64) -> Self {
        Bip {
            table: StampTable::default(),
            miss_count: seed % BIP_EPSILON,
        }
    }
}

impl ReplacementPolicy for Bip {
    fn attach(&mut self, sets: usize, ways: usize) {
        self.table.attach(sets, ways);
    }

    fn on_hit(&mut self, set: usize, way: usize, _ctx: &AccessCtx) {
        self.table.touch_mru(set, way);
    }

    fn choose_victim(&mut self, set: usize, candidates: Range<usize>) -> usize {
        self.table.victim(set, candidates)
    }

    fn on_insert(&mut self, set: usize, way: usize, _ctx: &AccessCtx) {
        self.miss_count += 1;
        if self.miss_count.is_multiple_of(BIP_EPSILON) {
            self.table.touch_mru(set, way);
        } else {
            self.table.place_lru(set, way);
        }
    }

    fn name(&self) -> &'static str {
        "BIP"
    }
}

/// DIP: set dueling between LRU and BIP insertion with a 10-bit PSEL.
#[derive(Debug, Clone)]
pub struct Dip {
    table: StampTable,
    bip_phase: u64,
    psel: i32,
}

impl Dip {
    /// Creates a DIP policy with a deterministic seed.
    pub fn new(seed: u64) -> Self {
        Dip {
            table: StampTable::default(),
            bip_phase: seed % BIP_EPSILON,
            psel: PSEL_INIT,
        }
    }

    fn bip_insert(&mut self, set: usize, way: usize) {
        self.bip_phase += 1;
        if self.bip_phase.is_multiple_of(BIP_EPSILON) {
            self.table.touch_mru(set, way);
        } else {
            self.table.place_lru(set, way);
        }
    }

    /// PSEL value (test hook).
    #[cfg(test)]
    fn psel(&self) -> i32 {
        self.psel
    }
}

impl ReplacementPolicy for Dip {
    fn attach(&mut self, sets: usize, ways: usize) {
        self.table.attach(sets, ways);
    }

    fn on_hit(&mut self, set: usize, way: usize, _ctx: &AccessCtx) {
        self.table.touch_mru(set, way);
    }

    fn choose_victim(&mut self, set: usize, candidates: Range<usize>) -> usize {
        self.table.victim(set, candidates)
    }

    fn on_insert(&mut self, set: usize, way: usize, _ctx: &AccessCtx) {
        match set % DUEL_CONSTITUENCY {
            // LRU leader: a miss here votes for BIP.
            0 => {
                self.psel = (self.psel + 1).min(PSEL_MAX);
                self.table.touch_mru(set, way);
            }
            // BIP leader: a miss here votes for LRU.
            1 => {
                self.psel = (self.psel - 1).max(0);
                self.bip_insert(set, way);
            }
            _ => {
                if self.psel > PSEL_INIT {
                    self.bip_insert(set, way);
                } else {
                    self.table.touch_mru(set, way);
                }
            }
        }
    }

    fn name(&self) -> &'static str {
        "DIP"
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ctx() -> AccessCtx {
        AccessCtx::new()
    }

    #[test]
    fn bip_inserted_line_is_next_victim() {
        let mut p = Bip::new(0);
        p.attach(1, 4);
        for w in 0..4 {
            p.on_insert(0, w, &ctx());
        }
        p.on_hit(0, 0, &ctx());
        p.on_hit(0, 1, &ctx());
        p.on_hit(0, 2, &ctx());
        // Way 3 was inserted at LRU and never promoted.
        assert_eq!(p.choose_victim(0, 0..4), 3);
    }

    #[test]
    fn bip_occasionally_inserts_at_mru() {
        let mut p = Bip::new(0);
        p.attach(1, 2);
        // 31 inserts at LRU, the 32nd at MRU.
        for i in 0..32 {
            p.on_insert(0, i % 2, &ctx());
        }
        // The 32nd insert (way 1) was MRU, so way 0 is the victim.
        assert_eq!(p.choose_victim(0, 0..2), 0);
    }

    #[test]
    fn bip_promotes_on_hit() {
        let mut p = Bip::new(0);
        p.attach(1, 2);
        p.on_insert(0, 0, &ctx());
        p.on_insert(0, 1, &ctx());
        p.on_hit(0, 0, &ctx()); // way 0 now MRU
        assert_eq!(p.choose_victim(0, 0..2), 1);
    }

    #[test]
    fn dip_thrashing_in_lru_leader_raises_psel() {
        let mut p = Dip::new(0);
        p.attach(DUEL_CONSTITUENCY * 2, 2);
        for _ in 0..200 {
            p.on_insert(0, 0, &ctx());
        }
        assert!(p.psel() > PSEL_INIT);
        // Misses in the BIP leader pull it back down.
        for _ in 0..400 {
            p.on_insert(1, 0, &ctx());
        }
        assert!(p.psel() < PSEL_INIT);
    }

    #[test]
    fn dip_follower_uses_lru_when_psel_low() {
        let mut p = Dip::new(0);
        p.attach(DUEL_CONSTITUENCY, 2);
        // PSEL at init: followers behave as LRU (insert at MRU).
        p.on_insert(2, 0, &ctx());
        p.on_insert(2, 1, &ctx());
        // Way 0 inserted first → LRU → victim.
        assert_eq!(p.choose_victim(2, 0..2), 0);
    }

    #[test]
    fn dip_psel_saturates() {
        let mut p = Dip::new(0);
        p.attach(DUEL_CONSTITUENCY, 1);
        for _ in 0..5000 {
            p.on_insert(0, 0, &ctx());
        }
        assert_eq!(p.psel(), PSEL_MAX);
    }
}
