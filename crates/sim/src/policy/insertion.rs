//! The insertion rules the two recency engines share: the stamp engine
//! under [`Lru`](super::Lru), [`Bip`](super::Bip) and [`Dip`](super::Dip),
//! and the RRIP engine under [`Srrip`](super::Srrip),
//! [`Brrip`](super::Brrip), [`Drrip`](super::Drrip) and
//! [`TaDrrip`](super::TaDrrip).
//!
//! Each policy of a family differs from the others only in where a new
//! line lands, and that is a yes/no question: the family's normal
//! (*protected*) insertion — MRU, or long RRPV — or the thrash-resistant
//! one — the LRU position, or distant RRPV. An [`Insertion`] answers it
//! once per insert: [`Always`] protects, [`Bimodal`] protects one insert
//! in 32 (paper §VII-A: ε = 1/32), and [`Duel`] picks between the two by
//! set dueling (Qureshi et al., ISCA 2007), one PSEL per thread.

use super::AccessCtx;

/// A bimodal rule protects one insertion in this many.
const BIMODAL_EPSILON: u64 = 32;
/// Set-dueling constituency: each thread leads one set of each side per
/// this many sets.
pub(super) const DUEL_CONSTITUENCY: usize = 64;
/// 10-bit saturating policy selector.
pub(super) const PSEL_MAX: i32 = 1023;
pub(super) const PSEL_INIT: i32 = PSEL_MAX / 2;

/// Where a recency engine inserts a line: the one decision its policies
/// differ in.
pub trait Insertion: std::fmt::Debug {
    /// The policy's name on the stamp engine.
    const LRU_NAME: &'static str;
    /// The policy's name on the RRIP engine.
    const RRIP_NAME: &'static str;

    /// Whether the line `ctx` inserts into `set` gets the family's normal
    /// insertion (`true`) or the distant one (`false`).
    fn protect(&mut self, set: usize, ctx: &AccessCtx) -> bool;
}

/// A rule with a bimodal phase, which a seed offsets so replicated caches
/// do not insert in lockstep.
pub trait Seeded {
    /// The rule, its phase offset by `seed`.
    fn seeded(seed: u64) -> Self;
}

/// Every insertion is protected: LRU and SRRIP.
#[derive(Debug, Clone, Copy, Default)]
pub struct Always;

impl Insertion for Always {
    const LRU_NAME: &'static str = "LRU";
    const RRIP_NAME: &'static str = "SRRIP";

    #[inline(always)]
    fn protect(&mut self, _set: usize, _ctx: &AccessCtx) -> bool {
        true
    }
}

/// One insertion in 32 is protected: BIP and BRRIP.
#[derive(Debug, Clone)]
pub struct Bimodal {
    phase: u64,
}

impl Seeded for Bimodal {
    fn seeded(seed: u64) -> Self {
        Bimodal {
            phase: seed % BIMODAL_EPSILON,
        }
    }
}

impl Insertion for Bimodal {
    const LRU_NAME: &'static str = "BIP";
    const RRIP_NAME: &'static str = "BRRIP";

    #[inline]
    fn protect(&mut self, _set: usize, _ctx: &AccessCtx) -> bool {
        self.phase += 1;
        self.phase.is_multiple_of(BIMODAL_EPSILON)
    }
}

/// Set dueling between [`Always`] and [`Bimodal`], one 10-bit PSEL per
/// thread: thread `t` leads slots `2t` (protected) and `2t + 1` (bimodal)
/// of every constituency, and its other sets follow whichever leader
/// misses less. One thread gives DIP and DRRIP, 16 give TA-DRRIP.
#[derive(Debug, Clone)]
pub struct Duel<const THREADS: usize> {
    pub(super) psel: [i32; THREADS],
    bimodal: Bimodal,
}

impl<const THREADS: usize> Seeded for Duel<THREADS> {
    fn seeded(seed: u64) -> Self {
        Duel {
            psel: [PSEL_INIT; THREADS],
            bimodal: Bimodal::seeded(seed),
        }
    }
}

impl<const THREADS: usize> Insertion for Duel<THREADS> {
    const LRU_NAME: &'static str = if THREADS == 1 { "DIP" } else { "TA-DIP" };
    const RRIP_NAME: &'static str = if THREADS == 1 { "DRRIP" } else { "TA-DRRIP" };

    #[inline]
    fn protect(&mut self, set: usize, ctx: &AccessCtx) -> bool {
        let t = ctx.thread.index() % THREADS;
        let psel = &mut self.psel[t];
        // A miss in a leader set votes against that leader's side.
        match (set % DUEL_CONSTITUENCY).wrapping_sub(2 * t) {
            0 => {
                *psel = (*psel + 1).min(PSEL_MAX);
                true
            }
            1 => {
                *psel = (*psel - 1).max(0);
                self.bimodal.protect(set, ctx)
            }
            // High PSEL: the protected leader misses more, so follow the
            // bimodal one.
            _ => *psel <= PSEL_INIT || self.bimodal.protect(set, ctx),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::super::{AccessCtx, Bip, Brrip, Dip, Drrip, ReplacementPolicy, TaDrrip};
    use super::{DUEL_CONSTITUENCY, PSEL_MAX};
    use crate::addr::ThreadId;
    use std::ops::Range;

    const SETS: usize = 256;
    const WAYS: usize = 8;
    const THREADS: usize = 4;
    /// Accesses per phase: long enough for every thread's PSEL to cross
    /// its whole range.
    const PHASE: u64 = 16_384;

    /// Drives `new` and `old` through one random stream and asserts they
    /// agree on every victim and, after every access, on every PSEL.
    ///
    /// Accesses come from 4 rotating threads, a quarter of them hits on a
    /// random way and the rest misses that evict from a random run of
    /// ways. Phases rotate: in the first, 5/8 of a thread's accesses go
    /// to its own protected leader sets (slot `2t` of a constituency) and
    /// 1/8 to its bimodal ones (`2t + 1`), which drives its PSEL to the
    /// top; the second is the mirror image and drives it to 0; the third
    /// picks sets uniformly, nearly all of them followers. Returns, per
    /// thread, whether its PSEL reached `PSEL_MAX` and whether it reached
    /// 0.
    fn replay<N, O>(
        mut new: N,
        mut old: O,
        seed: u64,
        new_psel: impl Fn(&N) -> Vec<i32>,
        old_psel: impl Fn(&O) -> Vec<i32>,
    ) -> Vec<(bool, bool)>
    where
        N: ReplacementPolicy,
        O: ReplacementPolicy,
    {
        new.attach(SETS, WAYS);
        old.attach(SETS, WAYS);
        let mut state = seed | 1;
        let mut next = |n: usize| {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            (state >> 33) as usize % n
        };
        let mut extremes = vec![(false, false); new_psel(&new).len()];
        for i in 0..6 * PHASE {
            let t = (i % THREADS as u64) as usize;
            let ctx = AccessCtx::from_thread(ThreadId(t as u16));
            let constituency = DUEL_CONSTITUENCY * next(SETS / DUEL_CONSTITUENCY);
            let set = match ((i / PHASE) % 3, next(8)) {
                (0, 0..=4) | (1, 5) => constituency + 2 * t,
                (1, 0..=4) | (0, 5) => constituency + 2 * t + 1,
                _ => next(SETS),
            };
            if next(4) == 0 {
                let way = next(WAYS);
                new.on_hit(set, way, &ctx);
                old.on_hit(set, way, &ctx);
            } else {
                let start = if next(2) == 0 { 0 } else { next(WAYS) };
                let candidates: Range<usize> = start..start + 1 + next(WAYS - start);
                let victim = new.choose_victim(set, candidates.clone());
                assert_eq!(
                    victim,
                    old.choose_victim(set, candidates.clone()),
                    "{} access {i}: victim in set {set} among {candidates:?}",
                    new.name()
                );
                new.on_insert(set, victim, &ctx);
                old.on_insert(set, victim, &ctx);
            }
            let psel = new_psel(&new);
            assert_eq!(psel, old_psel(&old), "{} access {i}: PSEL", new.name());
            for (seen, &p) in extremes.iter_mut().zip(&psel) {
                seen.0 |= p == PSEL_MAX;
                seen.1 |= p == 0;
            }
        }
        assert_eq!(new.name(), old.name());
        for set in 0..SETS {
            assert_eq!(
                new.choose_victim(set, 0..WAYS),
                old.choose_victim(set, 0..WAYS),
                "{} at the end: victim in set {set}",
                new.name()
            );
        }
        extremes
    }

    /// Every seed's stream on a fresh pair built with that seed.
    fn seeds() -> impl Iterator<Item = u64> {
        [0, 1, 31, 32, 77, 0x9E37_79B9_7F4A_7C15].into_iter()
    }

    fn no_psel<T>(_: &T) -> Vec<i32> {
        Vec::new()
    }

    #[test]
    fn brrip_equals_the_old_brrip() {
        for seed in seeds() {
            replay(
                Brrip::new(seed),
                old_rrip::Brrip::new(seed),
                seed,
                no_psel,
                no_psel,
            );
        }
    }

    #[test]
    fn bip_equals_the_old_bip() {
        for seed in seeds() {
            replay(
                Bip::new(seed),
                old_dip::Bip::new(seed),
                seed,
                no_psel,
                no_psel,
            );
        }
    }

    #[test]
    fn drrip_equals_the_old_drrip_psel_for_psel() {
        for seed in seeds() {
            let extremes = replay(
                Drrip::new(seed),
                old_rrip::Drrip::new(seed),
                seed,
                |p| p.rule.psel.to_vec(),
                |p| vec![p.psel],
            );
            assert_eq!(extremes, [(true, true)], "seed {seed}");
        }
    }

    #[test]
    fn dip_equals_the_old_dip_psel_for_psel() {
        for seed in seeds() {
            let extremes = replay(
                Dip::new(seed),
                old_dip::Dip::new(seed),
                seed,
                |p| p.rule.psel.to_vec(),
                |p| vec![p.psel()],
            );
            assert_eq!(extremes, [(true, true)], "seed {seed}");
        }
    }

    #[test]
    fn ta_drrip_equals_the_old_ta_drrip_psel_for_psel() {
        for seed in seeds() {
            let extremes = replay(
                TaDrrip::new(seed),
                old_rrip::TaDrrip::new(seed),
                seed,
                |p| p.rule.psel.to_vec(),
                |p| p.psel.clone(),
            );
            // The 4 threads saturate both ways; the other 12 never run.
            let mut expected = vec![(true, true); THREADS];
            expected.resize(16, (false, false));
            assert_eq!(extremes, expected, "seed {seed}");
        }
    }

    /// The BRRIP, DRRIP and TA-DRRIP structs the RRIP engine replaced,
    /// verbatim but for the imports and the PSEL fields' visibility: the
    /// oracle for the engine under its three rules.
    mod old_rrip {
        use crate::policy::rrip::{RrpvTable, RRPV_LONG, RRPV_MAX};
        use crate::policy::{AccessCtx, ReplacementPolicy};
        use std::ops::Range;

        /// BRRIP inserts at long (instead of distant) once every 1/ε misses.
        const BRRIP_EPSILON: u64 = 32;
        /// Set-dueling constituency: one SRRIP and one BRRIP leader per this many
        /// sets (per thread for the thread-aware variant).
        const DUEL_CONSTITUENCY: usize = 64;
        /// 10-bit saturating policy selector.
        const PSEL_MAX: i32 = 1023;
        const PSEL_INIT: i32 = PSEL_MAX / 2;

        /// Bimodal RRIP: inserts at distant RRPV except for a 1/32 fraction of
        /// misses inserted at long, protecting the cache from thrash.
        #[derive(Debug, Clone)]
        pub struct Brrip {
            table: RrpvTable,
            miss_count: u64,
        }

        impl Brrip {
            /// Creates a BRRIP policy; `seed` offsets the bimodal phase so
            /// replicated caches do not insert in lockstep.
            pub fn new(seed: u64) -> Self {
                Brrip {
                    table: RrpvTable::default(),
                    miss_count: seed % BRRIP_EPSILON,
                }
            }

            fn insertion_value(&mut self) -> u8 {
                self.miss_count += 1;
                if self.miss_count.is_multiple_of(BRRIP_EPSILON) {
                    RRPV_LONG
                } else {
                    RRPV_MAX
                }
            }
        }

        impl ReplacementPolicy for Brrip {
            fn attach(&mut self, sets: usize, ways: usize) {
                self.table.attach(sets, ways);
            }

            fn on_hit(&mut self, set: usize, way: usize, _ctx: &AccessCtx) {
                self.table.promote(set, way);
            }

            fn choose_victim(&mut self, set: usize, candidates: Range<usize>) -> usize {
                self.table.choose_victim(set, candidates)
            }

            fn on_insert(&mut self, set: usize, way: usize, _ctx: &AccessCtx) {
                let v = self.insertion_value();
                self.table.insert(set, way, v);
            }

            fn name(&self) -> &'static str {
                "BRRIP"
            }
        }

        /// Which of the duelling insertion policies a set belongs to.
        #[derive(Debug, Clone, Copy, PartialEq, Eq)]
        enum DuelRole {
            SrripLeader,
            BrripLeader,
            Follower,
        }

        /// Dynamic RRIP: set dueling between SRRIP and BRRIP insertion with a
        /// 10-bit PSEL counter (single-threaded variant).
        #[derive(Debug, Clone)]
        pub struct Drrip {
            table: RrpvTable,
            brrip_phase: u64,
            pub(in super::super) psel: i32,
        }

        impl Drrip {
            /// Creates a DRRIP policy with a deterministic seed.
            pub fn new(seed: u64) -> Self {
                Drrip {
                    table: RrpvTable::default(),
                    brrip_phase: seed % BRRIP_EPSILON,
                    psel: PSEL_INIT,
                }
            }

            fn role(set: usize) -> DuelRole {
                match set % DUEL_CONSTITUENCY {
                    0 => DuelRole::SrripLeader,
                    1 => DuelRole::BrripLeader,
                    _ => DuelRole::Follower,
                }
            }

            fn brrip_value(&mut self) -> u8 {
                self.brrip_phase += 1;
                if self.brrip_phase.is_multiple_of(BRRIP_EPSILON) {
                    RRPV_LONG
                } else {
                    RRPV_MAX
                }
            }
        }

        impl ReplacementPolicy for Drrip {
            fn attach(&mut self, sets: usize, ways: usize) {
                self.table.attach(sets, ways);
            }

            fn on_hit(&mut self, set: usize, way: usize, _ctx: &AccessCtx) {
                self.table.promote(set, way);
            }

            fn choose_victim(&mut self, set: usize, candidates: Range<usize>) -> usize {
                self.table.choose_victim(set, candidates)
            }

            fn on_insert(&mut self, set: usize, way: usize, _ctx: &AccessCtx) {
                // A miss in a leader set votes against that leader's policy.
                let value = match Self::role(set) {
                    DuelRole::SrripLeader => {
                        self.psel = (self.psel + 1).min(PSEL_MAX);
                        RRPV_LONG
                    }
                    DuelRole::BrripLeader => {
                        self.psel = (self.psel - 1).max(0);
                        self.brrip_value()
                    }
                    DuelRole::Follower => {
                        // High PSEL: SRRIP leaders miss more, so follow BRRIP.
                        if self.psel > PSEL_INIT {
                            self.brrip_value()
                        } else {
                            RRPV_LONG
                        }
                    }
                };
                self.table.insert(set, way, value);
            }

            fn name(&self) -> &'static str {
                "DRRIP"
            }
        }

        /// Thread-aware DRRIP (TA-DRRIP): one PSEL and one pair of leader-set
        /// groups per thread, so each thread chooses SRRIP or BRRIP insertion
        /// independently in a shared cache.
        #[derive(Debug, Clone)]
        pub struct TaDrrip {
            table: RrpvTable,
            brrip_phase: u64,
            pub(in super::super) psel: Vec<i32>,
        }

        /// Maximum threads TA-DRRIP tracks (Table I: 8-core CMP).
        const MAX_THREADS: usize = 16;

        impl TaDrrip {
            /// Creates a TA-DRRIP policy with a deterministic seed.
            pub fn new(seed: u64) -> Self {
                TaDrrip {
                    table: RrpvTable::default(),
                    brrip_phase: seed % BRRIP_EPSILON,
                    psel: vec![PSEL_INIT; MAX_THREADS],
                }
            }

            fn role(set: usize, thread: usize) -> DuelRole {
                // Each thread owns two slots in the constituency: 2t (SRRIP leader)
                // and 2t+1 (BRRIP leader).
                let slot = set % DUEL_CONSTITUENCY;
                if slot == 2 * thread {
                    DuelRole::SrripLeader
                } else if slot == 2 * thread + 1 {
                    DuelRole::BrripLeader
                } else {
                    DuelRole::Follower
                }
            }

            fn brrip_value(&mut self) -> u8 {
                self.brrip_phase += 1;
                if self.brrip_phase.is_multiple_of(BRRIP_EPSILON) {
                    RRPV_LONG
                } else {
                    RRPV_MAX
                }
            }
        }

        impl ReplacementPolicy for TaDrrip {
            fn attach(&mut self, sets: usize, ways: usize) {
                self.table.attach(sets, ways);
            }

            fn on_hit(&mut self, set: usize, way: usize, _ctx: &AccessCtx) {
                self.table.promote(set, way);
            }

            fn choose_victim(&mut self, set: usize, candidates: Range<usize>) -> usize {
                self.table.choose_victim(set, candidates)
            }

            fn on_insert(&mut self, set: usize, way: usize, ctx: &AccessCtx) {
                let t = ctx.thread.index() % MAX_THREADS;
                let value = match Self::role(set, t) {
                    DuelRole::SrripLeader => {
                        self.psel[t] = (self.psel[t] + 1).min(PSEL_MAX);
                        RRPV_LONG
                    }
                    DuelRole::BrripLeader => {
                        self.psel[t] = (self.psel[t] - 1).max(0);
                        self.brrip_value()
                    }
                    DuelRole::Follower => {
                        if self.psel[t] > PSEL_INIT {
                            self.brrip_value()
                        } else {
                            RRPV_LONG
                        }
                    }
                };
                self.table.insert(set, way, value);
            }

            fn name(&self) -> &'static str {
                "TA-DRRIP"
            }
        }
    }

    /// The BIP and DIP structs the stamp engine replaced, with their stamp
    /// table, verbatim but for the imports and the PSEL hook's visibility:
    /// the oracle for the engine under its two seeded rules.
    mod old_dip {
        use crate::policy::{AccessCtx, ReplacementPolicy};
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
            pub(in super::super) fn psel(&self) -> i32 {
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
    }
}
