//! RRIP-family policies: SRRIP, BRRIP, DRRIP, and thread-aware DRRIP
//! (Jaleel et al., ISCA 2010), as configured in the paper's evaluation
//! (M = 2 bits, ε = 1/32): one engine, [`Rrip`], over the insertion rules
//! of [`insertion`](super::insertion).

use super::insertion::{Always, Bimodal, Duel, Insertion, Seeded};
use super::{AccessCtx, ReplacementPolicy};
use std::ops::Range;

/// Number of RRPV bits (paper §VII-A: M = 2).
const RRPV_BITS: u8 = 2;
/// Maximum (distant) re-reference prediction value: 2^M − 1.
pub(crate) const RRPV_MAX: u8 = (1 << RRPV_BITS) - 1;
/// Long re-reference interval used by SRRIP insertion: 2^M − 2.
pub(crate) const RRPV_LONG: u8 = RRPV_MAX - 1;

/// RRPVs examined per step of the victim search: one `u128`, way `k` of
/// the chunk in byte `k`.
const CHUNK: usize = 16;
/// Bit 0 of every byte of a chunk.
const LANES: u128 = u128::from_le_bytes([1; CHUNK]);
// The chunked search tells RRPVs apart by their two low bits.
const _: () = assert!(RRPV_MAX == 3);

/// The lowest byte of `x` holding [`RRPV_MAX`], given every byte ≤ 3:
/// such a byte is the only kind with both low bits set.
#[inline(always)]
fn first_distant(x: u128) -> Option<usize> {
    let distant = x & (x >> 1) & LANES;
    (distant != 0).then(|| (distant.trailing_zeros() / 8) as usize)
}

/// Shared RRPV array logic.
#[derive(Debug, Clone, Default)]
pub(crate) struct RrpvTable {
    /// One RRPV per line, then `CHUNK - 1` spare bytes so a whole chunk
    /// can be read starting at any line.
    pub(crate) rrpv: Vec<u8>,
    ways: usize,
}

impl RrpvTable {
    pub(crate) fn attach(&mut self, sets: usize, ways: usize) {
        self.rrpv = vec![RRPV_MAX; sets * ways + CHUNK - 1];
        self.ways = ways;
    }

    pub(crate) fn promote(&mut self, set: usize, way: usize) {
        self.rrpv[set * self.ways + way] = 0;
    }

    pub(crate) fn insert(&mut self, set: usize, way: usize, value: u8) {
        self.rrpv[set * self.ways + way] = value;
    }

    /// The chunk of RRPVs starting at line `at`.
    #[inline(always)]
    fn chunk(&mut self, at: usize) -> &mut [u8; CHUNK] {
        (&mut self.rrpv[at..at + CHUNK])
            .try_into()
            .expect("CHUNK bytes")
    }

    /// SRRIP victim search: find a distant (RRPV max) candidate, aging all
    /// candidates until one appears. Ties break toward the lowest way.
    /// The run's RRPVs are read, compared and aged [`CHUNK`] at a time,
    /// the bytes of a chunk past the run's end masked out.
    pub(crate) fn choose_victim(&mut self, set: usize, candidates: Range<usize>) -> usize {
        assert!(!candidates.is_empty(), "no victim candidates");
        let base = set * self.ways;
        // The bytes of the chunk at `start` that belong to the run.
        let run_bytes = |start| u128::MAX >> (8 * CHUNK.saturating_sub(candidates.end - start));
        let mut seen = 0u128;
        for start in candidates.clone().step_by(CHUNK) {
            let x = u128::from_le_bytes(*self.chunk(base + start)) & run_bytes(start);
            if let Some(k) = first_distant(x) {
                return start + k;
            }
            seen |= x;
        }
        // Nobody distant, so every RRPV is ≤ 2 and the oldest is 2 if any
        // has bit 1 set, else 1 if any has bit 0 set. Age everyone by the
        // gap to RRPV_MAX: the first line to arrive there is the victim.
        let oldest = if seen & (LANES << 1) != 0 {
            2
        } else {
            u8::from(seen & LANES != 0)
        };
        let bump = u128::from(RRPV_MAX - oldest) * LANES;
        let mut victim = None;
        for start in candidates.clone().step_by(CHUNK) {
            let in_run = run_bytes(start);
            let chunk = self.chunk(base + start);
            // oldest + bump = RRPV_MAX: no byte carries into the next.
            let aged = u128::from_le_bytes(*chunk) + (bump & in_run);
            debug_assert_eq!(
                aged & in_run & !(3 * LANES),
                0,
                "an RRPV aged past {RRPV_MAX}"
            );
            *chunk = aged.to_le_bytes();
            if victim.is_none() {
                victim = first_distant(aged & in_run).map(|k| start + k);
            }
        }
        victim.expect("aging makes the oldest line distant")
    }
}

/// Static RRIP (SRRIP-HP): insert at long re-reference interval, promote
/// to near-immediate on hit, evict distant lines.
///
/// Scan-resistant relative to LRU, but still thrashes on working sets
/// slightly larger than the cache — which is why the paper shows Talus
/// convexifying SRRIP too (Fig. 9).
pub type Srrip = Rrip<Always>;

/// Bimodal RRIP: inserts at distant RRPV except for a 1/32 fraction of
/// misses inserted at long, protecting the cache from thrash. Built by
/// `Brrip::new(seed)`, the seed offsetting the bimodal phase.
pub type Brrip = Rrip<Bimodal>;

/// Dynamic RRIP: set dueling between SRRIP and BRRIP insertion with a
/// 10-bit PSEL counter (single-threaded variant). Built by
/// `Drrip::new(seed)`.
pub type Drrip = Rrip<Duel<1>>;

/// Thread-aware DRRIP (TA-DRRIP): one PSEL and one pair of leader-set
/// groups per thread (up to 16; Table I's CMP has 8 cores), so each
/// thread chooses SRRIP or BRRIP insertion independently in a shared
/// cache. Built by `TaDrrip::new(seed)`.
pub type TaDrrip = Rrip<Duel<16>>;

/// RRIP replacement: a hit promotes its line to RRPV 0, the victim is the
/// first distant line (aging the candidates until one is), and the rule
/// `I` inserts a line at long RRPV or at distant.
#[derive(Debug, Clone, Default)]
pub struct Rrip<I> {
    table: RrpvTable,
    pub(super) rule: I,
}

impl Srrip {
    /// Creates an SRRIP policy.
    pub fn new() -> Self {
        Srrip::default()
    }
}

impl<I: Seeded> Rrip<I> {
    /// Creates a BRRIP, DRRIP or TA-DRRIP policy; `seed` offsets the
    /// bimodal phase so replicated caches do not insert in lockstep.
    pub fn new(seed: u64) -> Self {
        Rrip {
            table: RrpvTable::default(),
            rule: I::seeded(seed),
        }
    }
}

impl<I: Insertion> ReplacementPolicy for Rrip<I> {
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
        let value = if self.rule.protect(set, ctx) {
            RRPV_LONG
        } else {
            RRPV_MAX
        };
        self.table.insert(set, way, value);
    }

    fn name(&self) -> &'static str {
        I::RRIP_NAME
    }
}

#[cfg(test)]
mod tests {
    use super::super::insertion::{DUEL_CONSTITUENCY, PSEL_INIT, PSEL_MAX};
    use super::*;
    use crate::addr::ThreadId;

    fn ctx() -> AccessCtx {
        AccessCtx::new()
    }

    /// The per-way victim search the chunked one replaced, kept as its
    /// oracle: same victim, same aging, one RRPV at a time.
    fn choose_victim_reference(
        rrpv: &mut [u8],
        ways: usize,
        set: usize,
        candidates: Range<usize>,
    ) -> usize {
        assert!(!candidates.is_empty(), "no victim candidates");
        loop {
            let mut oldest_v = 0;
            for w in candidates.clone() {
                let v = rrpv[set * ways + w];
                if v == RRPV_MAX {
                    return w;
                }
                if v > oldest_v {
                    oldest_v = v;
                }
            }
            let bump = RRPV_MAX - oldest_v;
            for w in candidates.clone() {
                rrpv[set * ways + w] += bump;
            }
        }
    }

    /// Runs both searches over `candidates` of the middle set of three
    /// whose RRPVs are `rrpv`, and compares the victim and every byte of
    /// the table (the run's aging, and everything outside it untouched).
    fn assert_matches_reference(rrpv: &[u8], ways: usize, candidates: Range<usize>) {
        assert_eq!(rrpv.len(), 3 * ways);
        let mut expected = rrpv.to_vec();
        let victim = choose_victim_reference(&mut expected, ways, 1, candidates.clone());
        let mut table = RrpvTable::default();
        table.attach(3, ways);
        table.rrpv[..3 * ways].copy_from_slice(rrpv);
        expected.extend_from_slice(&table.rrpv[3 * ways..]);
        assert_eq!(
            table.choose_victim(1, candidates.clone()),
            victim,
            "victim among {candidates:?} of {:?}",
            &rrpv[ways..2 * ways]
        );
        assert_eq!(
            table.rrpv,
            expected,
            "aging {candidates:?} of {:?}",
            &rrpv[ways..2 * ways]
        );
    }

    /// Every run of 1–64 ways at every start offset of a `ways`-wide set.
    fn every_run(ways: usize) -> impl Iterator<Item = Range<usize>> {
        (0..ways)
            .flat_map(move |start| (start + 1..=ways.min(start + 64)).map(move |end| start..end))
    }

    #[test]
    fn chunked_victim_search_equals_the_loop_on_uniform_rows() {
        // All-equal rows (all-distant included), inside neighbours of
        // every other value: a mask one way too wide or narrow, or a
        // search that reads past the run, meets a different RRPV there.
        for ways in [1, 5, 15, 16, 17, 32, 33, 64, 70] {
            for inside in 0..=RRPV_MAX {
                for outside in 0..=RRPV_MAX {
                    for run in every_run(ways) {
                        let mut rrpv = vec![outside; 3 * ways];
                        rrpv[ways + run.start..ways + run.end].fill(inside);
                        assert_matches_reference(&rrpv, ways, run);
                    }
                }
            }
        }
    }

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig::with_cases(48))]

        /// Random rows of RRPVs 0..=`cap` (a low cap makes rows with
        /// nobody distant, which age, as common as rows that do not):
        /// every run of every row agrees with the loop on the victim and
        /// on the aged table byte for byte.
        #[test]
        fn chunked_victim_search_equals_the_loop_on_random_rows(
            ways in 1usize..=80,
            cap in 0u8..=RRPV_MAX,
            seed in proptest::prelude::any::<u64>(),
        ) {
            let mut state = seed | 1;
            let rrpv: Vec<u8> = (0..3 * ways)
                .map(|_| {
                    state = state
                        .wrapping_mul(6364136223846793005)
                        .wrapping_add(1442695040888963407);
                    ((state >> 33) % (u64::from(cap) + 1)) as u8
                })
                .collect();
            for run in every_run(ways) {
                assert_matches_reference(&rrpv, ways, run);
            }
        }
    }

    #[test]
    fn srrip_promotes_on_hit_and_evicts_distant() {
        let mut p = Srrip::new();
        p.attach(1, 4);
        for w in 0..4 {
            p.on_insert(0, w, &ctx()); // all at RRPV_LONG = 2
        }
        p.on_hit(0, 1, &ctx()); // way 1 -> 0
                                // No distant lines: aging bumps everyone until some hit RRPV_MAX.
                                // Ways 0, 2, 3 (at 2) reach 3 first; lowest index wins.
        assert_eq!(p.choose_victim(0, 0..4), 0);
    }

    #[test]
    fn srrip_eviction_prefers_existing_distant_line() {
        let mut p = Srrip::new();
        p.attach(1, 2);
        // Untouched table starts at RRPV_MAX, so way 0 is already distant.
        assert_eq!(p.choose_victim(0, 0..2), 0);
    }

    #[test]
    fn srrip_aging_preserves_relative_order() {
        let mut p = Srrip::new();
        p.attach(1, 3);
        for w in 0..3 {
            p.on_insert(0, w, &ctx());
        }
        p.on_hit(0, 0, &ctx()); // rrpv 0
        p.on_hit(0, 1, &ctx());
        p.on_hit(0, 1, &ctx()); // still 0
                                // way 2 at RRPV_LONG ages to max first.
        assert_eq!(p.choose_victim(0, 0..3), 2);
    }

    #[test]
    fn brrip_mostly_inserts_distant() {
        let mut p = Brrip::new(0);
        p.attach(1, 1);
        let mut distant = 0;
        for _ in 0..320 {
            p.on_insert(0, 0, &ctx());
            if p.table.rrpv[0] == RRPV_MAX {
                distant += 1;
            }
        }
        assert_eq!(distant, 320 - 10); // exactly 1/32 at long
    }

    #[test]
    fn drrip_follower_tracks_psel() {
        let mut p = Drrip::new(0);
        p.attach(DUEL_CONSTITUENCY * 2, 1);
        // Hammer the SRRIP leader set with misses: PSEL rises.
        for _ in 0..600 {
            p.on_insert(0, 0, &ctx());
        }
        assert!(p.rule.psel[0] > PSEL_INIT);
        // Follower sets now use BRRIP insertion (mostly distant).
        p.on_insert(5, 0, &ctx());
        let v = p.table.rrpv[5];
        assert!(v == RRPV_MAX || v == RRPV_LONG);
        // And hammering the BRRIP leader drives PSEL down.
        for _ in 0..1200 {
            p.on_insert(1, 0, &ctx());
        }
        assert!(p.rule.psel[0] < PSEL_INIT);
    }

    #[test]
    fn drrip_psel_saturates() {
        let mut p = Drrip::new(0);
        p.attach(DUEL_CONSTITUENCY, 1);
        for _ in 0..5000 {
            p.on_insert(0, 0, &ctx());
        }
        assert_eq!(p.rule.psel[0], PSEL_MAX);
        for _ in 0..5000 {
            p.on_insert(1, 0, &ctx());
        }
        assert_eq!(p.rule.psel[0], 0);
    }

    #[test]
    fn ta_drrip_psel_is_per_thread() {
        let mut p = TaDrrip::new(0);
        p.attach(DUEL_CONSTITUENCY, 1);
        let t0 = AccessCtx::from_thread(ThreadId(0));
        let t1 = AccessCtx::from_thread(ThreadId(1));
        // Thread 0 misses in its SRRIP leader (set 0).
        for _ in 0..100 {
            p.on_insert(0, 0, &t0);
        }
        // Thread 1 misses in its BRRIP leader (set 3).
        for _ in 0..100 {
            p.on_insert(3, 0, &t1);
        }
        assert!(p.rule.psel[0] > PSEL_INIT);
        assert!(p.rule.psel[1] < PSEL_INIT);
    }

    #[test]
    fn ta_drrip_ignores_foreign_leader_sets() {
        let mut p = TaDrrip::new(0);
        p.attach(DUEL_CONSTITUENCY, 1);
        let t5 = AccessCtx::from_thread(ThreadId(5));
        // Set 0 is thread 0's leader, not thread 5's: PSEL[5] unchanged.
        for _ in 0..100 {
            p.on_insert(0, 0, &t5);
        }
        assert_eq!(p.rule.psel[5], PSEL_INIT);
    }

    #[test]
    fn victim_respects_candidates() {
        let mut p = Srrip::new();
        p.attach(1, 8);
        for w in 0..8 {
            p.on_insert(0, w, &ctx());
            p.on_hit(0, w, &ctx());
        }
        for _ in 0..10 {
            let v = p.choose_victim(0, 6..8);
            assert!(v == 6 || v == 7);
        }
    }
}
