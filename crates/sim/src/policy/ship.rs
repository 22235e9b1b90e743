//! SHiP: Signature-based Hit Predictor (Wu et al., MICRO-44 2011).
//!
//! SHiP extends RRIP with *classification* (paper §II-A): each inserted
//! line carries a **signature**, and a table of saturating counters (the
//! SHCT) learns whether lines with that signature are ever re-referenced.
//! Lines whose signature predicts no reuse are inserted at distant RRPV —
//! effectively bypassed — while predicted-reused lines are inserted at
//! long RRPV like SRRIP.
//!
//! The original proposal evaluates three signature sources: instruction
//! PC, instruction sequence, and **memory region**. Our traces are
//! address-only (no PCs — see DESIGN.md's substitution table), so this
//! implementation uses memory-region signatures (SHiP-Mem): the upper
//! bits of the line address, hashed into the SHCT. For the synthetic
//! workloads here this captures the same classification signal as
//! SHiP-PC, because each workload component (scan, random working set,
//! …) occupies its own address region, just as each would be issued by
//! its own load PCs.
//!
//! Like the other high-performance policies, SHiP does not obey the
//! stack property, so its miss curve cannot be sampled by a single UMON —
//! it has the predictability problem that motivates Talus on LRU (§II-C).

use super::insertion::{Bimodal, Insertion, Seeded};
use super::rrip::{RrpvTable, RRPV_LONG, RRPV_MAX};
use super::{AccessCtx, ReplacementPolicy};
use crate::hasher::H3Hasher;
use std::ops::Range;

/// SHCT entries (the SHiP paper uses 16K).
const SHCT_SIZE: usize = 1 << 14;
/// 3-bit saturating counters.
const SHCT_MAX: u8 = 7;
/// Initial counter value: weakly reused, so cold signatures are not
/// bypassed before the predictor has seen any evidence.
const SHCT_INIT: u8 = 1;
/// Lines per signature region: 64 lines = one 4 KB page.
const REGION_SHIFT: u32 = 6;

/// SHiP-Mem: SRRIP plus a signature history counter table that predicts,
/// per memory region, whether inserted lines will be reused.
///
/// # Examples
///
/// ```
/// use talus_sim::policy::Ship;
/// use talus_sim::{AccessCtx, CacheModel, LineAddr, SetAssocCache};
/// let mut cache = SetAssocCache::new(1024, 16, Ship::new(7), 42);
/// let ctx = AccessCtx::new();
/// cache.access(LineAddr(3), &ctx);
/// ```
#[derive(Debug, Clone)]
pub struct Ship {
    table: RrpvTable,
    /// Signature history counter table.
    shct: Vec<u8>,
    /// Per-line signature assigned at insertion.
    signature: Vec<u16>,
    /// Per-line outcome bit: has this line hit since insertion?
    reused: Vec<bool>,
    ways: usize,
    hasher: H3Hasher,
    /// One in 32 predicted-dead insertions goes in at long RRPV anyway
    /// (BRRIP-style exploration). Without it a signature trained to zero
    /// during cold-start churn could never prove itself again: distant
    /// insertion means eviction before reuse, which keeps the counter at
    /// zero — a permanent death spiral.
    explore: Bimodal,
}

impl Ship {
    /// Creates a SHiP policy; `seed` randomises the signature hash.
    pub fn new(seed: u64) -> Self {
        Ship {
            table: RrpvTable::default(),
            shct: vec![SHCT_INIT; SHCT_SIZE],
            signature: Vec::new(),
            reused: Vec::new(),
            ways: 0,
            hasher: H3Hasher::new(32, seed ^ 0x5417_9001),
            explore: Bimodal::seeded(seed),
        }
    }

    /// The signature of a line: its memory region hashed into the SHCT.
    fn signature_of(&self, line: crate::LineAddr) -> u16 {
        let region = line.value() >> REGION_SHIFT;
        (self.hasher.hash(region) % SHCT_SIZE as u64) as u16
    }

    /// The SHCT's current reuse counter for a line's signature (for tests
    /// and introspection).
    pub fn predicted_reuse(&self, line: crate::LineAddr) -> u8 {
        self.shct[self.signature_of(line) as usize]
    }
}

impl ReplacementPolicy for Ship {
    fn attach(&mut self, sets: usize, ways: usize) {
        self.table.attach(sets, ways);
        self.signature = vec![0; sets * ways];
        self.reused = vec![false; sets * ways];
        self.ways = ways;
    }

    fn on_hit(&mut self, set: usize, way: usize, _ctx: &AccessCtx) {
        self.table.promote(set, way);
        let idx = set * self.ways + way;
        // First reuse of this line trains its signature upward.
        if !self.reused[idx] {
            self.reused[idx] = true;
            let sig = self.signature[idx] as usize;
            self.shct[sig] = (self.shct[sig] + 1).min(SHCT_MAX);
        }
    }

    fn choose_victim(&mut self, set: usize, candidates: Range<usize>) -> usize {
        let victim = self.table.choose_victim(set, candidates);
        // The victim is about to be evicted: a dead (never-reused) line
        // votes against its signature.
        let idx = set * self.ways + victim;
        if !self.reused[idx] {
            let sig = self.signature[idx] as usize;
            self.shct[sig] = self.shct[sig].saturating_sub(1);
        }
        victim
    }

    fn on_insert(&mut self, set: usize, way: usize, ctx: &AccessCtx) {
        let sig = self.signature_of(ctx.line);
        let idx = set * self.ways + way;
        self.signature[idx] = sig;
        self.reused[idx] = false;
        // Zero counter: no observed reuse for this signature — insert
        // distant (bypass-like), except for the exploration fraction.
        // Otherwise insert at long, like SRRIP.
        let value = if self.shct[sig as usize] > 0 || self.explore.protect(set, ctx) {
            RRPV_LONG
        } else {
            RRPV_MAX
        };
        self.table.insert(set, way, value);
    }

    fn name(&self) -> &'static str {
        "SHiP"
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::array::{CacheModel, SetAssocCache};
    use crate::policy::Srrip;
    use crate::LineAddr;

    fn ctx_for(line: u64) -> AccessCtx {
        AccessCtx::new().with_line(LineAddr(line))
    }

    #[test]
    fn trains_down_on_dead_lines() {
        let mut p = Ship::new(1);
        p.attach(1, 2);
        let scan_line = LineAddr(0); // region 0
        let before = p.predicted_reuse(scan_line);
        // Insert two same-region lines, then evict both without reuse.
        p.on_insert(0, 0, &ctx_for(0));
        p.on_insert(0, 1, &ctx_for(1));
        let v = p.choose_victim(0, 0..2);
        let _ = v;
        let after = p.predicted_reuse(scan_line);
        assert!(
            after < before,
            "dead eviction must train SHCT down: {before} -> {after}"
        );
    }

    #[test]
    fn trains_up_on_reuse() {
        let mut p = Ship::new(1);
        p.attach(1, 2);
        p.on_insert(0, 0, &ctx_for(0));
        let before = p.predicted_reuse(LineAddr(0));
        p.on_hit(0, 0, &ctx_for(0));
        assert_eq!(p.predicted_reuse(LineAddr(0)), before + 1);
        // Further hits on the same line do not double-count.
        p.on_hit(0, 0, &ctx_for(0));
        assert_eq!(p.predicted_reuse(LineAddr(0)), before + 1);
    }

    #[test]
    fn dead_signatures_insert_distant() {
        let mut p = Ship::new(1);
        p.attach(1, 4);
        // Drive region 0's counter to zero with dead evictions.
        for i in 0..16u64 {
            p.on_insert(0, 0, &ctx_for(i));
            p.choose_victim(0, 0..1);
        }
        assert_eq!(p.predicted_reuse(LineAddr(0)), 0);
        // The next insert from that region lands at distant RRPV.
        p.on_insert(0, 2, &ctx_for(3));
        assert_eq!(p.table.rrpv[2], RRPV_MAX);
        // A fresh region still gets the SRRIP insertion.
        p.on_insert(0, 3, &ctx_for(1 << 30));
        assert_eq!(p.table.rrpv[3], RRPV_LONG);
    }

    /// The classification pay-off the SHiP paper reports: a reused
    /// working set mixed with a cyclic scan that does not fit. SHiP
    /// learns the scan regions are dead and effectively bypasses them,
    /// protecting the working set; SRRIP keeps inserting scan lines at
    /// long RRPV and churns.
    ///
    /// The scan is cyclic (like libquantum's), not an unbounded stream:
    /// with memory-region signatures, an infinite stream of fresh regions
    /// would saturate the whole SHCT through hash collisions — the known
    /// weakness of SHiP-Mem relative to SHiP-PC, where a scan maps to the
    /// single PC of the scanning load.
    #[test]
    fn ship_beats_srrip_on_scan_plus_reuse() {
        let run = |mut cache: SetAssocCache<Box<dyn ReplacementPolicy>>| {
            let working = 1024u64; // fits comfortably in cache
            let scan_len = 32_768u64; // 16x the cache: pure thrash
            let mut scan = 0u64;
            let mut misses_after_warmup = 0u64;
            let total = 600_000;
            for i in 0..total {
                let (line, is_ws) = if i % 2 == 0 {
                    (LineAddr((i / 2) % working), true)
                } else {
                    scan += 1;
                    (LineAddr((1 << 30) + scan % scan_len), false)
                };
                let ctx = AccessCtx::new(); // arrays enrich with the line
                let r = cache.access(line, &ctx);
                if i > total / 2 && is_ws && r.is_miss() {
                    misses_after_warmup += 1;
                }
            }
            misses_after_warmup
        };
        let ship = run(SetAssocCache::new(2048, 16, Box::new(Ship::new(3)), 9));
        let srrip = run(SetAssocCache::new(2048, 16, Box::new(Srrip::new()), 9));
        assert!(
            ship < srrip / 2,
            "SHiP should protect the reused working set: SHiP {ship} vs SRRIP {srrip} misses"
        );
    }

    #[test]
    fn victim_respects_candidates() {
        let mut p = Ship::new(1);
        p.attach(1, 8);
        for w in 0..8 {
            p.on_insert(0, w, &ctx_for(w as u64));
        }
        for _ in 0..10 {
            let v = p.choose_victim(0, 5..7);
            assert!(v == 5 || v == 6);
        }
    }
}
