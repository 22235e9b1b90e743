//! The Zipf rank sampler behind [`Zipfian`](crate::Zipfian): one exact
//! definition, and a table that answers for it.
//!
//! Ranks are drawn by rejection-inversion (Hörmann & Derflinger): a
//! uniform 53-bit draw `m` is mapped through the inverse of the density's
//! envelope integral to a candidate rank, which an accept test keeps or
//! rejects. `ZipfTable::decide_exact` is that definition, three `powf`
//! calls a draw.
//!
//! Both of its outcomes are monotone step functions of `m`: the candidate
//! rank rises with the draw, and within one rank's interval the draw is
//! accepted from some threshold up. So the table holds, per rank, where
//! its interval ends and where acceptance starts, *in draw space*, and a
//! guide table (Chen & Asau) of two buckets per rank finds the interval
//! in O(1): a bucket names the first rank a draw in it can belong to, and
//! a scan from there — under half a step for a uniform draw — ends on the
//! draw's own. The table is an accelerator in front of the exact path,
//! never a second sampler:
//!
//! - thresholds keep only the top 32 of the draw's 53 bits, and a draw
//!   within `GUARD` (2) of a threshold it is compared against is not decided
//!   by the table — it goes to `decide_exact`. A threshold computed here
//!   and the draw at which the exact path's floating point really flips
//!   differ by tens of units of `m`; the band is 2²¹ on either side. A
//!   draw lands in some band with probability ≈ 3·`lines`/2³² (under one
//!   in a million at 512 lines, one in 10⁵ at the cap);
//! - that bound weakens as `1/|1 − q|` (the envelope's `1 + u·(1 − q)`
//!   cancels), so exponents within `NEAR_ONE` (10⁻⁴) of 1 — other than the
//!   `q = 1` logarithmic case, which has no such term — get no table;
//! - footprints over [`MAX_TABLE_RANKS`] get no table either: at 12 bytes
//!   a rank, and up to 4 more of guide, it would outgrow the caches it is
//!   meant to stay in.
//!
//! Without a table every draw takes the exact path; the stream is the
//! same one either way (`tests/golden_streams.rs` pins it).

use std::sync::{Arc, Mutex, PoisonError, Weak};

/// Largest footprint, in lines, that gets a rank table (192 KB of ranks
/// plus a 64 KB guide); beyond it [`ZipfTable`] keeps to the exact path.
pub const MAX_TABLE_RANKS: u64 = 1 << 14;

/// Bits of a 53-bit draw dropped from a stored threshold.
const DROPPED_BITS: u32 = 21;
/// A draw decides against a threshold only when their top 32 bits differ
/// by at least this much: one unit for the truncation, one clear.
const GUARD: u64 = 2;
/// log₂ of the guide's buckets per rank (of the footprint rounded up to a
/// power of two). The scan that follows the guide steps once per rank
/// boundary between the bucket's start and the draw, and whether it steps
/// at all is a branch no predictor learns: at one bucket a rank a uniform
/// draw scans a whole step on average, at 2ᵇ buckets 2⁻ᵇ of one. Sized
/// in situ on `producer_fed` when its 192 tenants each owned a 512-rank
/// table (3 s rotations, medians; first scan step branch-free): b = 0
/// read 1936 plans/s at 15.5 MB peak RSS, **b = 1 2056–2099 at 15.7 MB**,
/// b = 2 2029 at 16.0 MB; b = 3 (without the branch-free step) 2058 at
/// 16.8 MB: past one bit, nothing the run-to-run spread resolves. Each bit
/// doubles 2 B × `next_power_of_two(lines)` a table, now paid once per
/// distribution ([`ZipfTable::shared`]), not per tenant; b stays 1.
const GUIDE_DENSITY_BITS: u32 = 1;
/// Exponents closer to 1 than this (and not the logarithmic case) keep
/// to the exact path.
const NEAR_ONE: f64 = 1e-4;
/// Odd multiplier of the rank scramble.
const SCRAMBLE: u64 = 0x9E37_79B9_7F4A_7C15;

/// One rank's row: the top 32 bits of the draw at which its interval ends
/// and of the draw from which it is accepted, and the line offset its
/// scramble lands on.
#[derive(Debug, Clone, Copy)]
struct RankRow {
    upper: u32,
    accept: u32,
    offset: u32,
}

/// A Zipf(`exponent`) distribution over `lines` ranks, ready to sample:
/// the rejection-inversion constants and, for all but very large
/// footprints, the rank table that stands in for the `powf` calls.
///
/// Immutable once built and a pure function of `(lines, exponent)`, so
/// all live generators of one distribution hold one: `Zipfian::new`
/// takes it from [`shared`](Self::shared).
#[derive(Debug, Clone)]
pub struct ZipfTable {
    lines: u64,
    /// `lines.next_power_of_two() - 1`: the scramble's cycle-walk domain.
    mask: u64,
    exponent: f64,
    /// The `q = 1` case: H is a logarithm.
    log_case: bool,
    one_minus_q: f64,
    inv_one_minus_q: f64,
    h_x1: f64,
    /// `h_n - h_x1`: the envelope integral's range, which draws span.
    h_span: f64,
    s: f64,
    /// Empty when the table is not built.
    rows: Vec<RankRow>,
    /// Per bucket of draw space, the first rank that can own a draw in it.
    guide: Vec<u16>,
    /// Top-32-bit draw → bucket.
    guide_shift: u32,
}

impl ZipfTable {
    /// Prepares Zipf(`exponent`) over `lines` ranks.
    ///
    /// # Panics
    ///
    /// Panics if `lines` is zero or `exponent` is not positive and finite.
    pub fn new(lines: u64, exponent: f64) -> Self {
        let near_one = (exponent - 1.0).abs();
        let tabulate = lines <= MAX_TABLE_RANKS && !(1e-9..NEAR_ONE).contains(&near_one);
        Self::build(lines, exponent, tabulate)
    }

    /// The table a live holder has for Zipf(`exponent`) over `lines`
    /// ranks, or a [`new`](Self::new) one (which panics as `new` does).
    /// Held weakly, a table lives exactly as long as some holder does;
    /// racing callers get one table, as it is built under the lock.
    pub fn shared(lines: u64, exponent: f64) -> Arc<ZipfTable> {
        static LIVE: Mutex<Vec<(u64, u64, Weak<ZipfTable>)>> = Mutex::new(Vec::new());
        let bits = exponent.to_bits();
        // A panicking `new` leaves the list as it was.
        let mut live = LIVE.lock().unwrap_or_else(PoisonError::into_inner);
        // Pruned, one entry a key, which may still die before `upgrade`.
        live.retain(|(.., table)| table.strong_count() > 0);
        let found = live.iter().find(|e| (e.0, e.1) == (lines, bits));
        if let Some(table) = found.and_then(|(.., table)| table.upgrade()) {
            return table;
        }
        let table = Arc::new(ZipfTable::new(lines, exponent));
        live.push((lines, bits, Arc::downgrade(&table)));
        table
    }

    fn build(lines: u64, exponent: f64, tabulate: bool) -> Self {
        assert!(lines > 0, "working set must be positive");
        assert!(
            exponent > 0.0 && exponent.is_finite(),
            "zipf exponent must be positive and finite"
        );
        let mut t = ZipfTable {
            lines,
            mask: lines.next_power_of_two() - 1,
            exponent,
            log_case: (exponent - 1.0).abs() < 1e-9,
            one_minus_q: 1.0 - exponent,
            inv_one_minus_q: 1.0 / (1.0 - exponent),
            h_x1: 0.0,
            h_span: 0.0,
            s: 0.0,
            rows: Vec::new(),
            guide: Vec::new(),
            guide_shift: 0,
        };
        let h_n = t.h(lines as f64 + 0.5);
        t.h_x1 = t.h(1.5) - 1.0;
        t.h_span = h_n - t.h_x1;
        t.s = 2.0 - t.h_inv(t.h(2.5) - 2.0f64.powf(-exponent));
        if tabulate {
            t.tabulate();
        }
        t
    }

    /// Number of ranks (the footprint in lines).
    pub fn lines(&self) -> u64 {
        self.lines
    }

    /// Integral of the Zipf density envelope: H(x) = (x^(1-q) - 1)/(1-q),
    /// or ln(x) for q = 1.
    fn h(&self, x: f64) -> f64 {
        if self.log_case {
            x.ln()
        } else {
            (x.powf(self.one_minus_q) - 1.0) / self.one_minus_q
        }
    }

    fn h_inv(&self, x: f64) -> f64 {
        if self.log_case {
            x.exp()
        } else {
            (1.0 + x * self.one_minus_q).powf(self.inv_one_minus_q)
        }
    }

    /// The sampler's definition: the candidate rank (1-based) the 53-bit
    /// draw `m` maps to, and whether the accept test keeps it.
    fn decide_exact(&self, m: u64) -> (u64, bool) {
        let u = self.h_x1 + (m as f64 * (1.0 / (1u64 << 53) as f64)) * self.h_span;
        let x = self.h_inv(u);
        let k = (x + 0.5).floor().max(1.0).min(self.lines as f64);
        let accepted = k - x <= self.s || u >= self.h(k + 0.5) - k.powf(-self.exponent);
        (k as u64, accepted)
    }

    /// Scrambles a 0-based rank so hot lines are spread across the address
    /// space (and therefore across cache sets). Multiplying by an odd
    /// constant permutes any power-of-two domain, so cycle-walk inside the
    /// next power of two until the image lands back in range: a true
    /// rank → line bijection for *every* footprint. (A plain `mul % lines`
    /// is only bijective for power-of-two `lines`; for other sizes it
    /// merges ~1/e of the ranks, silently deforming the delivered
    /// popularity distribution — cold ranks inherit hot lines' reuse.
    /// Power-of-two footprints take the loop's first iteration.)
    fn scramble(&self, rank: u64) -> u64 {
        let mut scrambled = rank;
        loop {
            scrambled = scrambled.wrapping_mul(SCRAMBLE) & self.mask;
            if scrambled < self.lines {
                return scrambled;
            }
        }
    }

    /// Fills `rows` and `guide`. Rank `k` owns the draws with
    /// `H(k − ½) ≤ u < H(k + ½)` and is accepted from
    /// `u ≥ min(H(k − s), H(k + ½) − k^−q)`; both are mapped back through
    /// `u = h_x1 + m·2⁻⁵³·h_span` and truncated to 32 bits.
    fn tabulate(&mut self) {
        let top_bits = |u: f64| -> u32 {
            let m = (u - self.h_x1) / self.h_span * (1u64 << 53) as f64;
            // Saturating: below the first draw is 0, past the last is MAX.
            (m / (1u64 << DROPPED_BITS) as f64) as u32
        };
        let mut rows = Vec::with_capacity(self.lines as usize);
        let mut floor = 0;
        for k in 1..=self.lines {
            let kf = k as f64;
            let end = self.h(kf + 0.5);
            // The last rank also takes every draw past its interval (the
            // exact path clamps), so nothing is above it.
            let upper = if k == self.lines {
                u32::MAX
            } else {
                top_bits(end).max(floor)
            };
            floor = upper;
            rows.push(RankRow {
                upper,
                accept: top_bits((end - kf.powf(-self.exponent)).min(self.h(kf - self.s))),
                offset: self.scramble(k - 1) as u32,
            });
        }
        // A bucket's guide entry skips the ranks every draw in the bucket
        // is clear above, so a lookup that starts there has already
        // cleared the lower end of the interval it stops in.
        let bucket_bits = self.mask.count_ones() + GUIDE_DENSITY_BITS;
        self.guide_shift = 32 - bucket_bits;
        let mut first = 0usize;
        self.guide = (0..1u64 << bucket_bits)
            .map(|bucket| {
                let lowest = bucket << self.guide_shift;
                while lowest >= u64::from(rows[first].upper) + GUARD {
                    first += 1;
                }
                first as u16
            })
            .collect();
        self.rows = rows;
    }

    /// The table's answer for draw `m`: `(0-based rank, accepted)`, or
    /// `None` when there is no table or `m` is within the guard band of a
    /// threshold it would have to be compared against.
    #[inline]
    fn lookup(&self, m: u64) -> Option<(usize, bool)> {
        if self.rows.is_empty() {
            return None;
        }
        let top = m >> DROPPED_BITS;
        let mut k = usize::from(self.guide[(top >> self.guide_shift) as usize]);
        // The scan's first step is taken by arithmetic: whether a draw
        // belongs to its bucket's first rank or a later one is a coin toss
        // no predictor learns (2056–2099 plans/s on `producer_fed` against
        // 1988–1993 with the plain loop). The last row's `upper` is
        // `u32::MAX`, which no draw clears, so `k` stays in range.
        k += usize::from(top >= u64::from(self.rows[k].upper) + GUARD);
        while top >= u64::from(self.rows[k].upper) + GUARD {
            k += 1;
        }
        let row = self.rows[k];
        if top + GUARD > u64::from(row.upper) {
            return None;
        }
        let accept = u64::from(row.accept);
        if top >= accept + GUARD {
            Some((k, true))
        } else if top + GUARD <= accept {
            Some((k, false))
        } else {
            None
        }
    }

    /// The line offset (scrambled 0-based rank) the 53-bit draw `m`
    /// yields, or `None` when the draw is rejected and the caller must
    /// draw again.
    #[inline]
    pub(crate) fn offset_of(&self, m: u64) -> Option<u64> {
        match self.lookup(m) {
            Some((k, true)) => Some(u64::from(self.rows[k].offset)),
            Some((_, false)) => None,
            None => self.offset_exact(m),
        }
    }

    #[inline(never)]
    fn offset_exact(&self, m: u64) -> Option<u64> {
        let (rank, accepted) = self.decide_exact(m);
        accepted.then(|| self.scramble(rank - 1))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::SmallRng;
    use rand::{RngCore, SeedableRng};

    const LOW_BITS: u64 = (1 << DROPPED_BITS) - 1;

    /// Heap bytes held by the rank table and its guide.
    fn table_bytes(t: &ZipfTable) -> usize {
        t.rows.len() * std::mem::size_of::<RankRow>() + t.guide.len() * std::mem::size_of::<u16>()
    }

    /// Asserts the table's answer for `m`, when it gives one, is the exact
    /// path's; returns whether it gave one.
    fn agrees(t: &ZipfTable, m: u64) -> bool {
        let Some((k, accepted)) = t.lookup(m) else {
            return false;
        };
        assert_eq!(
            (k as u64 + 1, accepted),
            t.decide_exact(m),
            "lines {} q {} draw {m:#x}",
            t.lines,
            t.exponent
        );
        true
    }

    /// Draws around the stored threshold `top`: every top-32-bit value
    /// within four guard widths, at both ends of its dropped bits and in
    /// the middle.
    fn around(top: u32) -> impl Iterator<Item = u64> {
        let reach = 4 * GUARD;
        let lo = u64::from(top).saturating_sub(reach);
        let hi = (u64::from(top) + reach).min(u64::from(u32::MAX));
        (lo..=hi).flat_map(|t| [0, LOW_BITS / 3, LOW_BITS].map(|low| t << DROPPED_BITS | low))
    }

    /// The distributions the proofs below run on: every exponent class,
    /// the edges of the near-one exclusion, degenerate and full-size
    /// footprints.
    fn cases() -> Vec<ZipfTable> {
        [
            (1, 0.9),
            (2, 1.0),
            (3, 0.6),
            (7, 1.3),
            (64, 1.0 - NEAR_ONE),
            (64, 1.0 + NEAR_ONE),
            (100, 3.0),
            (512, 0.9),
            (1000, 0.6),
            (8192, 1.0),
            (MAX_TABLE_RANKS, 1.3),
        ]
        .into_iter()
        // Forced, so the exclusion's edges are tabulated whichever side of
        // `NEAR_ONE` their rounding lands on.
        .map(|(lines, q)| ZipfTable::build(lines, q, true))
        .collect()
    }

    #[test]
    fn table_agrees_with_the_exact_path_around_every_threshold() {
        for t in cases() {
            for row in &t.rows {
                for m in around(row.upper).chain(around(row.accept)) {
                    agrees(&t, m);
                }
            }
        }
    }

    /// Largest draw at which `below(decide_exact(m))` still holds, by
    /// bisection between `lo` (holds) and `hi` (does not).
    fn last_draw(
        t: &ZipfTable,
        mut lo: u64,
        mut hi: u64,
        below: impl Fn((u64, bool)) -> bool,
    ) -> u64 {
        assert!(below(t.decide_exact(lo)) && !below(t.decide_exact(hi)));
        while hi - lo > 1 {
            let mid = lo + (hi - lo) / 2;
            if below(t.decide_exact(mid)) {
                lo = mid;
            } else {
                hi = mid;
            }
        }
        lo
    }

    #[test]
    fn exact_path_flips_inside_the_guard_band() {
        // Where the table may not answer, the exact path must do its
        // flipping: for every rank of the small footprints, the draw at
        // which `decide_exact` moves on to the next rank, and the one from
        // which it accepts, lie within one unit of the stored threshold.
        let last_draw_of = |top: u64| (top << DROPPED_BITS) | LOW_BITS;
        for t in cases().into_iter().filter(|t| t.lines <= 100) {
            for (k, row) in t.rows.iter().enumerate() {
                let rank = k as u64 + 1;
                let inside =
                    |flip: u64, top: u32| (flip >> DROPPED_BITS).abs_diff(u64::from(top)) <= 1;
                if rank < t.lines {
                    let flip = last_draw(&t, 0, (1 << 53) - 1, |(r, _)| r <= rank);
                    assert!(inside(flip, row.upper), "lines {} rank {rank}", t.lines);
                }
                // Acceptance starts inside the rank's own interval, or the
                // whole interval is accepted and there is no flip to find.
                let start = if k == 0 {
                    0
                } else {
                    last_draw_of(u64::from(t.rows[k - 1].upper) + GUARD)
                };
                let end = last_draw_of(
                    u64::from(row.upper)
                        .saturating_sub(GUARD)
                        .min(u64::from(u32::MAX) - 1),
                );
                if start < end && !t.decide_exact(start).1 && t.decide_exact(end).1 {
                    let flip = last_draw(&t, start, end, |(_, accepted)| !accepted);
                    assert!(
                        inside(flip, row.accept),
                        "lines {} rank {rank} accept",
                        t.lines
                    );
                }
            }
        }
    }

    #[test]
    fn random_draws_agree_and_almost_never_fall_back() {
        // Each rank has two thresholds with a three-value band around
        // each, out of 2³² values: a draw falls back with probability at
        // most 6·lines/2³², and about half that when acceptance starts at
        // the interval's edge (the bands overlap), as it mostly does.
        const PER_CASE: u64 = 1_000_000;
        let mut rng = SmallRng::seed_from_u64(0x21F);
        let (mut draws, mut fallbacks_to_1000_lines) = (0u64, 0u64);
        for t in cases() {
            let fallbacks = (0..PER_CASE)
                .filter(|_| !agrees(&t, rng.next_u64() >> 11))
                .count() as u64;
            let expected = PER_CASE as f64 * 6.0 * t.lines as f64 / (1u64 << 32) as f64;
            assert!(
                fallbacks as f64 <= expected + 5.0,
                "lines {} q {}: {fallbacks} fallbacks, at most {expected:.1} expected",
                t.lines,
                t.exponent
            );
            draws += PER_CASE;
            if t.lines <= 1000 {
                fallbacks_to_1000_lines += fallbacks;
            }
        }
        assert!(draws >= 10_000_000);
        // 9 M of those draws were on footprints of up to 1000 lines.
        assert!(fallbacks_to_1000_lines < 9, "{fallbacks_to_1000_lines}");
    }

    #[test]
    fn untabulated_distributions_keep_to_the_exact_path_and_the_same_stream() {
        for (lines, q) in [(MAX_TABLE_RANKS + 1, 0.9), (512, 1.0 - NEAR_ONE / 2.0)] {
            let t = ZipfTable::new(lines, q);
            assert_eq!(table_bytes(&t), 0, "lines {lines} q {q}");
            assert_eq!(t.lookup(1 << 40), None);
        }
        // With and without its table, a distribution turns the same draws
        // into the same lines.
        for (lines, q) in [(512, 0.9), (1000, 1.0), (3, 1.3)] {
            let (with, without) = (
                ZipfTable::build(lines, q, true),
                ZipfTable::build(lines, q, false),
            );
            assert!(table_bytes(&with) > 0 && table_bytes(&without) == 0);
            let mut rng = SmallRng::seed_from_u64(lines);
            for _ in 0..200_000 {
                let m = rng.next_u64() >> 11;
                assert_eq!(
                    with.offset_of(m),
                    without.offset_of(m),
                    "lines {lines} q {q} draw {m:#x}"
                );
            }
        }
    }

    #[test]
    fn guide_starts_at_or_before_every_draws_rank_and_the_scan_is_short() {
        // The exact scan the guide shortcuts: the first rank whose interval
        // the top-32-bit draw `top` is not clear above.
        let rank_of = |t: &ZipfTable, top: u64| {
            t.rows
                .partition_point(|row| top >= u64::from(row.upper) + GUARD)
        };
        for t in cases() {
            assert_eq!(
                t.guide.len() as u64,
                (t.mask + 1) << GUIDE_DENSITY_BITS,
                "lines {}",
                t.lines
            );
            let (mut steps, mut longest) = (0, 0);
            for (bucket, &entry) in t.guide.iter().enumerate() {
                let lowest = (bucket as u64) << t.guide_shift;
                let highest = lowest + (1 << t.guide_shift) - 1;
                let first = usize::from(entry);
                // Never past a rank a draw in the bucket can belong to…
                assert!(
                    first <= rank_of(&t, lowest),
                    "lines {} bucket {bucket}",
                    t.lines
                );
                // …and the bucket's last draw is the longest scan from it.
                let scan = rank_of(&t, highest) - first;
                steps += scan;
                longest = longest.max(scan);
            }
            // Every step crosses a rank boundary and no boundary is crossed
            // from two buckets: summed over the (equiprobable) buckets the
            // worst scans are under one step a rank, so a uniform draw
            // expects under 2⁻ᵇ of a step.
            assert!(
                (steps as u64) < t.lines,
                "lines {} q {}: {steps} steps",
                t.lines,
                t.exponent
            );
            // The worst bucket holds the tail of a steep distribution; the
            // serving profiles' private set (512 ranks at 0.9) stays flat.
            if (t.lines, t.exponent) == (512, 0.9) {
                assert!(longest <= 3, "{longest} steps");
            }
        }
    }

    #[test]
    fn table_is_twelve_bytes_a_rank_plus_the_guide() {
        assert_eq!(std::mem::size_of::<RankRow>(), 12);
        for lines in [1u64, 3, 512, 1000, MAX_TABLE_RANKS] {
            let t = ZipfTable::new(lines, 0.9);
            // Two 2-byte buckets per rank of the rounded-up footprint.
            let guide = 4 * lines.next_power_of_two() as usize;
            assert_eq!(
                table_bytes(&t),
                12 * lines as usize + guide,
                "lines {lines}: 12 B a rank + a 4 B-a-rank guide"
            );
            assert!(t.rows.capacity() == t.rows.len() && t.guide.capacity() == t.guide.len());
        }
    }

    // The registry is process-wide and tests run in parallel: each test
    // below has a `(lines, exponent)` no other test in this binary builds,
    // and none asserts the registry's size.

    #[test]
    fn one_key_gives_one_table_and_one_ulp_gives_another() {
        let q = 0.71;
        let a = ZipfTable::shared(4097, q);
        let b = ZipfTable::shared(4097, q);
        assert!(Arc::ptr_eq(&a, &b));
        assert_eq!(Arc::strong_count(&a), 2);
        let next = ZipfTable::shared(4097, f64::from_bits(q.to_bits() + 1));
        assert!(!Arc::ptr_eq(&a, &next));
        assert_eq!(Arc::strong_count(&next), 1);
    }

    #[test]
    fn the_registry_keeps_no_table_alive() {
        let only = ZipfTable::shared(4099, 0.72);
        assert_eq!(Arc::strong_count(&only), 1);
        let weak = Arc::downgrade(&only);
        drop(only);
        assert!(weak.upgrade().is_none());
        // The next caller builds it afresh.
        assert_eq!(Arc::strong_count(&ZipfTable::shared(4099, 0.72)), 1);
    }

    #[test]
    fn racing_callers_get_one_table() {
        const THREADS: usize = 8;
        let start = std::sync::Barrier::new(THREADS);
        let tables: Vec<Arc<ZipfTable>> = std::thread::scope(|s| {
            let handles: Vec<_> = (0..THREADS)
                .map(|_| {
                    s.spawn(|| {
                        start.wait();
                        ZipfTable::shared(4101, 0.73)
                    })
                })
                .collect();
            handles.into_iter().map(|h| h.join().unwrap()).collect()
        });
        assert!(tables.iter().all(|t| Arc::ptr_eq(t, &tables[0])));
        assert_eq!(Arc::strong_count(&tables[0]), THREADS);
    }
}
