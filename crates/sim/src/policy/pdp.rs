//! PDP: protecting distance policy (Duong et al., MICRO 2012).
//!
//! PDP protects each inserted or promoted line for a *protecting distance*
//! (PD) of subsequent accesses to its set. Victims are chosen among
//! unprotected lines; if every line is protected, PDP evicts the most
//! recently used one (as the Talus paper notes in §V-C, this is what lets
//! PDP occasionally beat pure bypassing).
//!
//! The PD is recomputed periodically from a sampled reuse-distance
//! histogram, maximising a hits-per-line-time estimate: protecting up to
//! distance `d` captures the hits with reuse distance ≤ d, at the cost of
//! occupying a line for up to `d` set-accesses.

use super::{AccessCtx, ReplacementPolicy};
use std::ops::Range;

/// Maximum reuse distance tracked (in set-local accesses). Distances are
/// measured per set, so this covers working sets far larger than the
/// associativity.
const MAX_RD: usize = 256;
/// Recompute the protecting distance every this many policy events.
const RECOMPUTE_EVERY: u64 = 64 * 1024;
/// Initial protecting distance before the first histogram solve.
const INITIAL_PD: u64 = 32;

/// Protecting distance policy.
#[derive(Debug, Clone)]
pub struct Pdp {
    /// Per-line timestamp of last insertion/promotion, in set-local ticks.
    protect_start: Vec<u64>,
    /// Per-set access counter (ticks).
    set_clock: Vec<u64>,
    ways: usize,
    /// Current protecting distance, in set-local accesses.
    pd: u64,
    /// Reuse-distance histogram; `rd_hist[d]` counts hits at distance `d`.
    rd_hist: Vec<u64>,
    /// Accesses that found no protected reuse within `MAX_RD`.
    rd_overflow: u64,
    events: u64,
}

impl Pdp {
    /// Creates a PDP policy. PDP draws no random numbers, so the seed is
    /// unused; it keeps the constructor in line with the seeded policies.
    pub fn new(_seed: u64) -> Self {
        Pdp {
            protect_start: Vec::new(),
            set_clock: Vec::new(),
            ways: 0,
            pd: INITIAL_PD,
            rd_hist: vec![0; MAX_RD + 1],
            rd_overflow: 0,
            events: 0,
        }
    }

    fn tick(&mut self, set: usize) -> u64 {
        self.set_clock[set] += 1;
        self.set_clock[set]
    }

    fn age(&self, set: usize, way: usize) -> u64 {
        self.set_clock[set].saturating_sub(self.protect_start[set * self.ways + way])
    }

    fn maybe_recompute(&mut self) {
        self.events += 1;
        if !self.events.is_multiple_of(RECOMPUTE_EVERY) {
            return;
        }
        self.pd = solve_pd(&self.rd_hist, self.rd_overflow).max(1);
        // Exponential decay so the histogram adapts to phase changes.
        for h in &mut self.rd_hist {
            *h /= 2;
        }
        self.rd_overflow /= 2;
    }
}

/// Picks the protecting distance maximising estimated hits per unit of
/// line-time: `E(d) = hits(≤d) / (Σ_{i≤d} i·N_i + d·(N − hits(≤d)))`.
///
/// The numerator counts reuses captured by protecting for `d`; the
/// denominator is the total set-accesses during which lines sit protected
/// (reused lines occupy `i` ticks, non-reused ones the full `d`).
fn solve_pd(hist: &[u64], overflow: u64) -> u64 {
    let total: u64 = hist.iter().sum::<u64>() + overflow;
    if total == 0 {
        return INITIAL_PD;
    }
    let mut best_d = 1u64;
    let mut best_e = 0.0f64;
    let mut hits = 0u64;
    let mut occupied = 0u64;
    for (d, &n) in hist.iter().enumerate().skip(1) {
        hits += n;
        occupied += d as u64 * n;
        let unreused = total - hits;
        let denom = (occupied + d as u64 * unreused) as f64;
        if denom <= 0.0 {
            continue;
        }
        let e = hits as f64 / denom;
        if e > best_e {
            best_e = e;
            best_d = d as u64;
        }
    }
    best_d
}

impl ReplacementPolicy for Pdp {
    fn attach(&mut self, sets: usize, ways: usize) {
        self.protect_start = vec![0; sets * ways];
        self.set_clock = vec![0; sets];
        self.ways = ways;
        self.pd = INITIAL_PD;
        self.rd_hist = vec![0; MAX_RD + 1];
        self.rd_overflow = 0;
        self.events = 0;
    }

    fn on_hit(&mut self, set: usize, way: usize, _ctx: &AccessCtx) {
        let now = self.tick(set);
        let idx = set * self.ways + way;
        let rd = now.saturating_sub(self.protect_start[idx]) as usize;
        if rd <= MAX_RD {
            self.rd_hist[rd] += 1;
        } else {
            self.rd_overflow += 1;
        }
        // Promotion re-protects the line.
        self.protect_start[idx] = now;
        self.maybe_recompute();
    }

    fn choose_victim(&mut self, set: usize, candidates: Range<usize>) -> usize {
        assert!(!candidates.is_empty(), "no victim candidates");
        // Prefer the unprotected line that has been idle longest.
        let mut best_unprot: Option<(u64, usize)> = None;
        let mut mru: Option<(u64, usize)> = None;
        for w in candidates {
            let age = self.age(set, w);
            if age >= self.pd && best_unprot.is_none_or(|(a, _)| age > a) {
                best_unprot = Some((age, w));
            }
            if mru.is_none_or(|(a, _)| age < a) {
                mru = Some((age, w));
            }
        }
        match best_unprot {
            Some((_, w)) => w,
            // Everyone protected: evict the MRU line (smallest age).
            None => mru.expect("candidates is non-empty").1,
        }
    }

    fn on_insert(&mut self, set: usize, way: usize, _ctx: &AccessCtx) {
        let now = self.tick(set);
        self.protect_start[set * self.ways + way] = now;
        // A miss counts as an access beyond any tracked reuse distance.
        self.rd_overflow += 1;
        self.maybe_recompute();
    }

    fn name(&self) -> &'static str {
        "PDP"
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ctx() -> AccessCtx {
        AccessCtx::new()
    }

    #[test]
    fn evicts_oldest_unprotected_line() {
        let mut p = Pdp::new(0);
        p.attach(1, 4);
        p.pd = 2;
        for w in 0..4 {
            p.on_insert(0, w, &ctx()); // ticks 1..4
        }
        // Ages now: way0=3, way1=2, way2=1, way3=0. pd=2 → unprotected:
        // way0 (3), way1 (2). Oldest unprotected = way0.
        assert_eq!(p.choose_victim(0, 0..4), 0);
    }

    #[test]
    fn evicts_mru_when_all_protected() {
        let mut p = Pdp::new(0);
        p.attach(1, 4);
        p.pd = 100;
        for w in 0..4 {
            p.on_insert(0, w, &ctx());
        }
        // All protected; MRU is the newest insert, way 3.
        assert_eq!(p.choose_victim(0, 0..4), 3);
    }

    #[test]
    fn hit_reprotects_line() {
        let mut p = Pdp::new(0);
        p.attach(1, 2);
        p.pd = 3;
        p.on_insert(0, 0, &ctx()); // tick 1
        p.on_insert(0, 1, &ctx()); // tick 2
        p.on_hit(0, 0, &ctx()); // tick 3; way0 re-protected at 3
        p.tick(0); // ticks 4
        p.tick(0); // 5
                   // Ages: way0 = 2 (protected, pd=3), way1 = 3 (unprotected).
        assert_eq!(p.choose_victim(0, 0..2), 1);
    }

    #[test]
    fn solver_prefers_capturing_short_reuses() {
        // 1000 hits at distance 4, nothing else: protecting to 4 is ideal.
        let mut hist = vec![0u64; MAX_RD + 1];
        hist[4] = 1000;
        assert_eq!(solve_pd(&hist, 0), 4);
    }

    #[test]
    fn solver_ignores_uncapturable_tail() {
        // Short reuses at 2 plus a heavy overflow tail: protect only to 2.
        let mut hist = vec![0u64; MAX_RD + 1];
        hist[2] = 500;
        assert_eq!(solve_pd(&hist, 10_000), 2);
    }

    #[test]
    fn solver_handles_empty_histogram() {
        let hist = vec![0u64; MAX_RD + 1];
        assert_eq!(solve_pd(&hist, 0), INITIAL_PD);
    }

    #[test]
    fn solver_balances_two_populations() {
        // Reuses at 3 and at 200, with the far ones too thin to justify
        // holding lines 200 ticks.
        let mut hist = vec![0u64; MAX_RD + 1];
        hist[3] = 1000;
        hist[200] = 10;
        let pd = solve_pd(&hist, 0);
        assert_eq!(pd, 3, "distant stragglers should not inflate pd");
        // If the far population dominates, protect far instead.
        let mut hist = vec![0u64; MAX_RD + 1];
        hist[3] = 10;
        hist[200] = 100_000;
        let pd = solve_pd(&hist, 0);
        assert_eq!(pd, 200);
    }

    #[test]
    fn recompute_updates_pd_from_observed_reuses() {
        let mut p = Pdp::new(0);
        p.attach(4, 4);
        p.pd = 50;
        // Synthesize a workload with all reuses at distance 1, then force a
        // recompute by driving the event counter.
        for i in 0..RECOMPUTE_EVERY + 10 {
            let set = (i % 4) as usize;
            p.on_insert(set, 0, &ctx());
            p.on_hit(set, 0, &ctx());
        }
        assert!(p.pd <= 2, "pd should collapse to ~1, got {}", p.pd);
    }
}
