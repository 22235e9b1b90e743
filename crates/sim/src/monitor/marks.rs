//! The timestamp occupancy bitmap both stack-distance monitors count
//! distances on, and the compaction both run.
//!
//! A Mattson pass stamps every access with a timestamp and keeps one mark
//! per live line, on the timestamp of its latest access: the stack
//! distance of a reuse is then one plus the marks after the line's
//! previous timestamp. [`Marks`] holds those marks one bit per timestamp,
//! with a popcount per 512-timestamp block so a count skips whole blocks.
//! [`SampledMattson`](super::SampledMattson) counts on it directly;
//! [`MattsonMonitor`](super::MattsonMonitor), whose windows span hundreds
//! of blocks, keeps a Fenwick tree over the block counts beside it.
//!
//! Both monitors keep their lines' latest timestamps in a `HashMap` of
//! 12-byte slots, [`LineKey`] → `u32` (each constructor asserts through
//! [`window`] that its timestamps fit), and when the window fills both
//! compact it in place through [`Marks::compact`]: the newest `keep`
//! lines move to timestamps `0..k`, in order, and the rest are dropped.
//! The oldest kept timestamp is the `live − keep`-th mark, `retain` drops
//! the lines below it and renumbers each kept one to its rank among the
//! kept marks (counted from block prefix sums taken once per compaction),
//! and the marks reset to `0..k`. No entry is copied or sorted.

use crate::addr::LineAddr;
use std::collections::HashMap;
use std::hash::{Hash, Hasher};

/// A line as the `last_seen` maps key it: two `u32` halves, so a
/// `(LineKey, u32)` slot is 12 bytes. It hashes as the `u64` a `LineAddr`
/// hashes as, so every map probes the buckets it probed when so keyed.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(super) struct LineKey([u32; 2]);

impl LineKey {
    pub(super) fn line(self) -> LineAddr {
        LineAddr(u64::from(self.0[0]) | u64::from(self.0[1]) << 32)
    }
}

impl From<LineAddr> for LineKey {
    fn from(line: LineAddr) -> Self {
        LineKey([line.0 as u32, (line.0 >> 32) as u32])
    }
}

impl Hash for LineKey {
    fn hash<H: Hasher>(&self, state: &mut H) {
        self.line().hash(state);
    }
}

/// The timestamp window of a monitor tracking `lines` (sampled) lines,
/// 4 × `lines` and at least 4096: no timestamp given out passes it.
/// Panics if it does not fit the `u32` of a `last_seen` slot.
pub(super) fn window(lines: u64) -> usize {
    let window = u32::try_from(lines.saturating_mul(4).max(1 << 12));
    window.expect("the window's timestamps overflow a u32") as usize
}

/// Words per popcount block: 8 × 64 = 512 timestamps summarised per entry.
pub(super) const BLOCK_WORDS: usize = 8;

/// Timestamps per popcount block.
pub(super) const BLOCK_BITS: usize = 64 * BLOCK_WORDS;

/// Occupancy bitmap over timestamps ("this timestamp is the latest access
/// to some live line") with per-block popcounts. Updates are O(1);
/// counting the live marks between two timestamps scans at most
/// `BLOCK_WORDS` words on each edge and skips full blocks via the
/// summaries.
#[derive(Debug, Clone)]
pub(super) struct Marks {
    words: Vec<u64>,
    blocks: Vec<u32>,
}

impl Marks {
    pub(super) fn new(timestamps: usize) -> Self {
        let words = timestamps.div_ceil(64);
        let blocks = words.div_ceil(BLOCK_WORDS);
        Marks {
            words: vec![0; words],
            blocks: vec![0; blocks],
        }
    }

    #[inline]
    pub(super) fn set(&mut self, t: usize) {
        self.words[t >> 6] |= 1 << (t & 63);
        self.blocks[t >> 6 >> 3] += 1;
    }

    #[inline]
    pub(super) fn unset(&mut self, t: usize) {
        self.words[t >> 6] &= !(1 << (t & 63));
        self.blocks[t >> 6 >> 3] -= 1;
    }

    pub(super) fn clear(&mut self) {
        self.words.fill(0);
        self.blocks.fill(0);
    }

    /// Live marks with timestamp in `[lo, hi]` (inclusive; `lo <= hi`).
    #[inline]
    pub(super) fn count_range(&self, lo: usize, hi: usize) -> u64 {
        let from = |b: usize| !0u64 << b; // bits >= b
        let upto = |b: usize| !0u64 >> (63 - b); // bits <= b
        let (wlo, whi) = (lo >> 6, hi >> 6);
        if wlo == whi {
            return (self.words[wlo] & from(lo & 63) & upto(hi & 63)).count_ones() as u64;
        }
        let mut total = (self.words[wlo] & from(lo & 63)).count_ones() as u64
            + (self.words[whi] & upto(hi & 63)).count_ones() as u64;
        let mut w = wlo + 1;
        while w < whi {
            if w % BLOCK_WORDS == 0 && w + BLOCK_WORDS <= whi {
                total += self.blocks[w / BLOCK_WORDS] as u64;
                w += BLOCK_WORDS;
            } else {
                total += self.words[w].count_ones() as u64;
                w += 1;
            }
        }
        total
    }

    /// Live marks per 512-timestamp block.
    pub(super) fn blocks(&self) -> &[u32] {
        &self.blocks
    }

    /// The timestamp of the mark with exactly `k` marks below it.
    ///
    /// # Panics
    ///
    /// Panics if there are `k` marks or fewer.
    pub(super) fn nth(&self, mut k: usize) -> usize {
        let mut w = 0;
        for &count in &self.blocks {
            if k < count as usize {
                break;
            }
            k -= count as usize;
            w += BLOCK_WORDS;
        }
        loop {
            let mut word = self.words[w];
            let ones = word.count_ones() as usize;
            if k < ones {
                for _ in 0..k {
                    word &= word - 1; // drop the lowest mark
                }
                return 64 * w + word.trailing_zeros() as usize;
            }
            k -= ones;
            w += 1;
        }
    }

    /// Marks below each block: `prefixes[b]` counts the marks with
    /// timestamp below `b × BLOCK_BITS`. What [`rank`](Self::rank) reads,
    /// taken once for a pass of ranks over an unchanging bitmap.
    pub(super) fn block_prefixes(&self) -> Vec<usize> {
        self.blocks
            .iter()
            .scan(0, |below, &count| {
                let at = *below;
                *below += count as usize;
                Some(at)
            })
            .collect()
    }

    /// Marks with timestamp below `t`, given this bitmap's
    /// [`block_prefixes`](Self::block_prefixes).
    #[inline]
    pub(super) fn rank(&self, prefixes: &[usize], t: usize) -> usize {
        let w = t >> 6;
        let first = w / BLOCK_WORDS * BLOCK_WORDS;
        let words: usize = self.words[first..w]
            .iter()
            .map(|word| word.count_ones() as usize)
            .sum();
        let bits = (self.words[w] & !(!0u64 << (t & 63))).count_ones() as usize;
        prefixes[w / BLOCK_WORDS] + words + bits
    }

    /// Compacts a window in place: of the lines in `last_seen` (one mark
    /// each, on its timestamp), the newest `keep` move to timestamps
    /// `0..k` in their order and the rest are dropped; the marks become
    /// exactly `0..k`. Returns `k`, the window's next timestamp.
    pub(super) fn compact<S>(
        &mut self,
        last_seen: &mut HashMap<LineKey, u32, S>,
        keep: usize,
    ) -> usize {
        let live = last_seen.len();
        let dropped = live.saturating_sub(keep);
        // The oldest kept timestamp: the mark with `dropped` marks below.
        let oldest = if dropped == 0 { 0 } else { self.nth(dropped) };
        let prefixes = self.block_prefixes();
        last_seen.retain(|_, t| {
            let kept = *t as usize >= oldest;
            if kept {
                // Its rank among the kept marks, below the old timestamp.
                *t = (self.rank(&prefixes, *t as usize) - dropped) as u32;
            }
            kept
        });
        let kept = live - dropped;
        self.reset_to(kept);
        kept
    }

    /// Leaves exactly the marks `0..n`.
    pub(super) fn reset_to(&mut self, n: usize) {
        self.clear();
        let (full, rest) = (n / 64, n % 64);
        self.words[..full].fill(!0);
        if rest > 0 {
            self.words[full] = !0 >> (64 - rest);
        }
        for (b, count) in self.blocks.iter_mut().enumerate() {
            *count = n.saturating_sub(b * BLOCK_BITS).min(BLOCK_BITS) as u32;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn marks_count_matches_naive_bitset() {
        let mut m = Marks::new(4096);
        let mut naive = vec![false; 4096];
        let mut state = 9u64;
        for _ in 0..2000 {
            state = state.wrapping_mul(6364136223846793005).wrapping_add(11);
            let t = (state >> 33) as usize % 4096;
            if naive[t] {
                m.unset(t);
                naive[t] = false;
            } else {
                m.set(t);
                naive[t] = true;
            }
        }
        for &(lo, hi) in &[
            (0usize, 4095usize),
            (5, 5),
            (63, 64),
            (100, 700),
            (512, 1024),
        ] {
            let expect = naive[lo..=hi].iter().filter(|&&b| b).count() as u64;
            assert_eq!(m.count_range(lo, hi), expect, "range [{lo}, {hi}]");
        }
        // `nth` walks the same marks in order, and `rank` counts the marks
        // below any timestamp, marked or not.
        let set: Vec<usize> = (0..4096).filter(|&t| naive[t]).collect();
        for (k, &t) in set.iter().enumerate() {
            assert_eq!(m.nth(k), t, "mark {k}");
        }
        let prefixes = m.block_prefixes();
        for t in 0..4096 {
            let below = naive[..t].iter().filter(|&&b| b).count();
            assert_eq!(m.rank(&prefixes, t), below, "rank of {t}");
        }
    }

    #[test]
    fn reset_to_leaves_exactly_the_first_n_marks() {
        // Word and block edges and a partial last block (4100 timestamps:
        // 65 words, 9 blocks).
        for n in [0, 1, 63, 64, 65, 511, 512, 513, 1000, 4100] {
            let mut m = Marks::new(4100);
            m.set(4099);
            m.set(7);
            m.reset_to(n);
            let expect: Vec<u32> = (0..9)
                .map(|b| (0..n).filter(|&t| t / BLOCK_BITS == b).count() as u32)
                .collect();
            assert_eq!(m.blocks(), &expect[..], "n {n}");
            assert_eq!(m.count_range(0, 4099), n as u64, "n {n}");
            if n > 0 {
                assert_eq!(m.nth(n - 1), n - 1, "n {n}");
                assert_eq!(m.count_range(n - 1, 4099), 1, "n {n}");
            }
        }
    }
}
