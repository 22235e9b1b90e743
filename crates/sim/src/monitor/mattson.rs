//! Exact LRU stack-distance profiling (Mattson et al., 1970).
//!
//! LRU obeys the *stack property*: the contents of a size-`s` LRU cache are
//! a subset of any larger LRU cache's, so one pass that records each
//! access's *stack distance* (number of distinct lines touched since the
//! previous access to the same line) yields the exact LRU miss curve at
//! every size simultaneously: an access hits in caches of at least its
//! stack distance.
//!
//! Every access gets a timestamp, and each live line keeps one mark, on
//! its latest access, in a bitmap over the timestamp window (the [`Marks`]
//! the sampled monitor counts on too): a reuse's distance is one plus the
//! marks after the line's previous access. A Fenwick tree over the
//! bitmap's 512-timestamp block counts keeps that count O(log) in the
//! window — it sums whole blocks and scans only inside the last one.
//! The lines' timestamps sit in a map of 12-byte slots sized for `cap`.
//! When the window fills, it is compacted in place, by the routine the
//! sampled monitor runs too ([`Marks::compact`]): the newest `cap` live
//! lines keep their order on timestamps `0..k` and the rest are dropped,
//! so memory stays proportional to the tracked capacity. A dropped line's
//! next access counts as cold; any distance beyond `cap` (it misses at
//! every tracked size) is folded into a "far" bucket.
//!
//! The distance histogram is kept two-level (flat bins plus per-block
//! sums) — an *incremental cumulative-hit cache* — so
//! [`curve`](Monitor::curve) answers each grid point with a block-skipping
//! prefix query instead of re-scanning all `cap` histogram bins per call.

use super::marks::{window, LineKey, Marks, BLOCK_BITS};
use super::{default_grid, Monitor};
use crate::addr::LineAddr;
use crate::hasher::LineHashBuilder;
use std::collections::HashMap;
use talus_core::MissCurve;

/// Fenwick tree (binary indexed tree) over the marks' block counts.
#[derive(Debug, Clone)]
struct Fenwick {
    tree: Vec<u32>,
}

impl Fenwick {
    /// Rebuilds the tree over `counts` in linear time.
    fn assign(&mut self, counts: &[u32]) {
        self.tree.clear();
        self.tree.push(0);
        self.tree.extend_from_slice(counts);
        for i in 1..self.tree.len() {
            let parent = i + (i & i.wrapping_neg());
            if parent < self.tree.len() {
                self.tree[parent] += self.tree[i];
            }
        }
    }

    #[inline]
    fn add(&mut self, mut i: usize, delta: i32) {
        i += 1;
        while i < self.tree.len() {
            self.tree[i] = self.tree[i].wrapping_add_signed(delta);
            i += i & i.wrapping_neg();
        }
    }

    /// Sum of entries in `[0, i)`.
    #[inline]
    fn before(&self, mut i: usize) -> u64 {
        let mut s = 0u64;
        while i > 0 {
            s += self.tree[i] as u64;
            i -= i & i.wrapping_neg();
        }
        s
    }
}

/// The window's marks ("this timestamp is the latest access to some live
/// line") and a Fenwick tree over their block counts, updated together.
#[derive(Debug, Clone)]
struct LiveMarks {
    marks: Marks,
    blocks: Fenwick,
}

impl LiveMarks {
    fn new(timestamps: usize) -> Self {
        let marks = Marks::new(timestamps);
        let blocks = Fenwick {
            tree: vec![0; marks.blocks().len() + 1],
        };
        LiveMarks { marks, blocks }
    }

    #[inline]
    fn set(&mut self, t: usize) {
        self.marks.set(t);
        self.blocks.add(t / BLOCK_BITS, 1);
    }

    #[inline]
    fn unset(&mut self, t: usize) {
        self.marks.unset(t);
        self.blocks.add(t / BLOCK_BITS, -1);
    }

    /// Marks with timestamp in `[0, t]`.
    #[inline]
    fn upto(&self, t: usize) -> u64 {
        let block = t / BLOCK_BITS;
        self.blocks.before(block) + self.marks.count_range(block * BLOCK_BITS, t)
    }

    /// [`Marks::compact`], then the tree refilled from the new block
    /// counts.
    fn compact(
        &mut self,
        last_seen: &mut HashMap<LineKey, u32, LineHashBuilder>,
        keep: usize,
    ) -> usize {
        let kept = self.marks.compact(last_seen, keep);
        self.blocks.assign(self.marks.blocks());
        kept
    }
}

/// A two-level stack-distance histogram: flat per-distance bins plus
/// per-block sums, the incremental cumulative-hit cache behind
/// [`MattsonMonitor::hits_within`]. Counting an access stays O(1) (two
/// increments, keeping the record hot path flat), while a prefix query
/// sums whole 256-bin blocks and only walks bins inside the final block —
/// O(cap/256 + 256) instead of re-scanning all `cap` bins per curve call.
#[derive(Debug, Clone)]
struct CumHist {
    /// bins[d] = accesses with stack distance exactly d (1-based).
    bins: Vec<u64>,
    /// blocks[b] = sum of bins[256b..256(b+1)].
    blocks: Vec<u64>,
}

/// Bins summarised per block (a power of two).
const HIST_BLOCK: usize = 256;

impl CumHist {
    fn new(n: usize) -> Self {
        CumHist {
            bins: vec![0; n + 1],
            blocks: vec![0; (n + 1).div_ceil(HIST_BLOCK)],
        }
    }

    /// Counts one access at distance `d` (1-based, `d <= n`).
    #[inline]
    fn add(&mut self, d: usize) {
        self.bins[d] += 1;
        self.blocks[d / HIST_BLOCK] += 1;
    }

    /// Accesses with distance in `[1, d]`.
    fn prefix(&self, d: usize) -> u64 {
        let block = d / HIST_BLOCK;
        self.blocks[..block].iter().sum::<u64>()
            + self.bins[block * HIST_BLOCK..=d].iter().sum::<u64>()
    }

    fn clear(&mut self) {
        self.bins.fill(0);
        self.blocks.fill(0);
    }
}

/// An exact stack-distance monitor for LRU, capped at a maximum tracked
/// capacity.
///
/// # Examples
///
/// ```
/// use talus_sim::monitor::{MattsonMonitor, Monitor};
/// use talus_sim::LineAddr;
/// let mut m = MattsonMonitor::new(8);
/// // A cyclic scan over 4 lines: after the cold pass, every access has
/// // stack distance 4.
/// for i in 0..400u64 {
///     m.record(LineAddr(i % 4));
/// }
/// let curve = m.curve();
/// assert!(curve.value_at(3.0) > 0.95); // smaller than the loop: ~all miss
/// assert!(curve.value_at(4.0) < 0.05); // loop fits: ~all hit
/// ```
#[derive(Debug, Clone)]
pub struct MattsonMonitor {
    /// Largest stack distance tracked exactly (in lines).
    cap: usize,
    /// Cumulative counts of accesses by stack distance (1-based).
    hist: CumHist,
    /// Reuses of a tracked line whose distance exceeded `cap`.
    far: u64,
    /// Accesses to a line `last_seen` does not hold: its first touch, or
    /// its first since a compaction dropped it.
    cold: u64,
    accesses: u64,
    /// Line → timestamp of most recent access.
    last_seen: HashMap<LineKey, u32, LineHashBuilder>,
    /// One mark per entry of `last_seen`, on its timestamp.
    marks: LiveMarks,
    now: usize,
    window: usize,
}

impl MattsonMonitor {
    /// Creates a monitor tracking stack distances up to `max_lines`.
    /// Distances beyond that are folded into a far bucket, so the produced
    /// curve is exact on `[0, max_lines]`.
    ///
    /// # Panics
    ///
    /// Panics if `max_lines` is zero, or so large that its window's
    /// timestamps overflow a `u32` (past 2³⁰ − 1 lines).
    pub fn new(max_lines: u64) -> Self {
        assert!(max_lines > 0, "tracked capacity must be positive");
        let window = window(max_lines);
        let cap = max_lines as usize;
        MattsonMonitor {
            cap,
            hist: CumHist::new(cap),
            far: 0,
            cold: 0,
            accesses: 0,
            // Sized for `cap` lines, what every compaction keeps once the
            // stream's footprint reaches the tracked capacity: the map
            // never rehashes on its way there, so no old table lives
            // beside the new one and no chain of outgrown ones is freed.
            last_seen: HashMap::with_capacity_and_hasher(cap, LineHashBuilder),
            marks: LiveMarks::new(window),
            now: 0,
            window,
        }
    }

    /// Largest capacity (in lines) this monitor resolves exactly.
    pub fn max_lines(&self) -> u64 {
        self.cap as u64
    }

    /// Accesses recorded so far whose stack distance was at most `lines` —
    /// i.e. the hits an LRU cache of that many lines would have seen.
    pub fn hits_within(&self, lines: u64) -> u64 {
        self.hist.prefix((lines as usize).min(self.cap))
    }

    /// Produces the miss curve evaluated on an arbitrary grid of line
    /// counts (values above `max_lines` clamp to the far+cold rate).
    pub fn curve_on_grid(&self, grid: &[u64]) -> MissCurve {
        let total = self.accesses.max(1) as f64;
        let mut sizes = Vec::with_capacity(grid.len() + 1);
        let mut misses = Vec::with_capacity(grid.len() + 1);
        if grid.first().copied() != Some(0) {
            sizes.push(0.0);
            misses.push(1.0);
        }
        for &g in grid {
            let hits = self.hits_within(g);
            sizes.push(g as f64);
            misses.push((self.accesses - hits) as f64 / total);
        }
        MissCurve::from_samples(&sizes, &misses).expect("grid is sorted and rates are finite")
    }

    /// One access, with the window-compaction check already done by the
    /// caller ([`record`](Monitor::record) per access, or once per chunk on
    /// the block path).
    #[inline]
    fn record_one(&mut self, line: LineAddr) {
        self.accesses += 1;
        match self.last_seen.insert(line.into(), self.now as u32) {
            Some(prev) => {
                // Distinct lines touched in (prev, now): each has its latest
                // access marked after prev. The total mark count is just the
                // live-line count (every mark sits below `now`), so only one
                // prefix query is needed.
                let upto_prev = self.marks.upto(prev as usize);
                let upto_now = self.last_seen.len() as u64;
                let distance = (upto_now - upto_prev) as usize + 1; // include the line itself
                if distance <= self.cap {
                    self.hist.add(distance);
                } else {
                    self.far += 1;
                }
                self.marks.unset(prev as usize);
            }
            None => {
                self.cold += 1;
            }
        }
        self.marks.set(self.now);
        self.now += 1;
    }

    /// Compacts the timestamp window in place: the most recent `cap`
    /// distinct lines move to timestamps `0..k`, in order, and the rest are
    /// dropped (their next access would be beyond `cap` anyway).
    fn compact(&mut self) {
        self.now = self.marks.compact(&mut self.last_seen, self.cap);
    }
}

impl Monitor for MattsonMonitor {
    fn record(&mut self, line: LineAddr) {
        if self.now >= self.window {
            self.compact();
        }
        self.record_one(line);
    }

    fn record_block(&mut self, lines: &[LineAddr]) {
        // Each record advances `now` by exactly one, so the compaction
        // check holds for a whole chunk of `window - now` accesses at a
        // time instead of being re-tested per access.
        let mut rest = lines;
        while !rest.is_empty() {
            if self.now >= self.window {
                self.compact();
            }
            let take = (self.window - self.now).min(rest.len());
            for &line in &rest[..take] {
                self.record_one(line);
            }
            rest = &rest[take..];
        }
    }

    fn curve(&self) -> MissCurve {
        // 64 evenly spaced points (clamped and deduplicated) plus 0 keep
        // curves compact without losing the knees.
        self.curve_on_grid(&default_grid(self.cap as u64))
    }

    fn sampled_accesses(&self) -> u64 {
        self.accesses
    }

    fn reset(&mut self) {
        self.hist.clear();
        self.far = 0;
        self.cold = 0;
        self.accesses = 0;
        // Keep last_seen/marks: the monitor stays warm across intervals.
    }
}

/// The monitor this file held before its marks moved to a bitmap: a
/// Fenwick node per timestamp and a collect-and-sort compaction, copied
/// verbatim (but for names, visibility and comments) as the reference the
/// bitmap monitor is held to.
#[cfg(test)]
mod old_mattson {
    use super::CumHist;
    use crate::addr::LineAddr;
    use crate::hasher::LineHashBuilder;
    use std::collections::HashMap;
    use talus_core::MissCurve;

    /// Fenwick tree (binary indexed tree) over timestamps.
    #[derive(Debug, Clone)]
    struct Fenwick {
        tree: Vec<u32>,
    }

    impl Fenwick {
        fn new(n: usize) -> Self {
            Fenwick {
                tree: vec![0; n + 1],
            }
        }

        fn add(&mut self, mut i: usize, delta: i32) {
            i += 1;
            while i < self.tree.len() {
                self.tree[i] = (self.tree[i] as i64 + delta as i64) as u32;
                i += i & i.wrapping_neg();
            }
        }

        /// Sum of entries in [0, i].
        fn prefix(&self, mut i: usize) -> u64 {
            i += 1;
            let mut s = 0u64;
            while i > 0 {
                s += self.tree[i] as u64;
                i -= i & i.wrapping_neg();
            }
            s
        }

        fn clear(&mut self) {
            self.tree.fill(0);
        }
    }

    #[derive(Debug, Clone)]
    pub(super) struct OldMattson {
        cap: usize,
        pub(super) hist: CumHist,
        pub(super) far: u64,
        pub(super) cold: u64,
        pub(super) accesses: u64,
        pub(super) last_seen: HashMap<LineAddr, usize, LineHashBuilder>,
        fenwick: Fenwick,
        pub(super) now: usize,
        window: usize,
    }

    impl OldMattson {
        pub(super) fn new(max_lines: u64) -> Self {
            assert!(max_lines > 0, "tracked capacity must be positive");
            let cap = max_lines as usize;
            let window = (4 * cap).max(1 << 12);
            OldMattson {
                cap,
                hist: CumHist::new(cap),
                far: 0,
                cold: 0,
                accesses: 0,
                last_seen: HashMap::default(),
                fenwick: Fenwick::new(window),
                now: 0,
                window,
            }
        }

        fn hits_within(&self, lines: u64) -> u64 {
            self.hist.prefix((lines as usize).min(self.cap))
        }

        pub(super) fn curve_on_grid(&self, grid: &[u64]) -> MissCurve {
            let total = self.accesses.max(1) as f64;
            let mut sizes = Vec::with_capacity(grid.len() + 1);
            let mut misses = Vec::with_capacity(grid.len() + 1);
            if grid.first().copied() != Some(0) {
                sizes.push(0.0);
                misses.push(1.0);
            }
            for &g in grid {
                let hits = self.hits_within(g);
                sizes.push(g as f64);
                misses.push((self.accesses - hits) as f64 / total);
            }
            MissCurve::from_samples(&sizes, &misses).expect("grid is sorted and rates are finite")
        }

        fn record_one(&mut self, line: LineAddr) {
            self.accesses += 1;
            match self.last_seen.get(&line).copied() {
                Some(prev) => {
                    let upto_prev = self.fenwick.prefix(prev);
                    let upto_now = self.last_seen.len() as u64;
                    let distance = (upto_now - upto_prev) as usize + 1; // include the line itself
                    if distance <= self.cap {
                        self.hist.add(distance);
                    } else {
                        self.far += 1;
                    }
                    self.fenwick.add(prev, -1);
                }
                None => {
                    self.cold += 1;
                }
            }
            self.fenwick.add(self.now, 1);
            self.last_seen.insert(line, self.now);
            self.now += 1;
        }

        fn compact(&mut self) {
            let mut entries: Vec<(LineAddr, usize)> =
                self.last_seen.iter().map(|(&l, &t)| (l, t)).collect();
            entries.sort_by_key(|&(_, t)| std::cmp::Reverse(t));
            entries.truncate(self.cap);
            entries.reverse(); // oldest kept entry first
            self.last_seen.clear();
            self.fenwick.clear();
            for (i, &(line, _)) in entries.iter().enumerate() {
                self.last_seen.insert(line, i);
                self.fenwick.add(i, 1);
            }
            self.now = entries.len();
        }

        pub(super) fn record(&mut self, line: LineAddr) {
            if self.now >= self.window {
                self.compact();
            }
            self.record_one(line);
        }

        pub(super) fn record_block(&mut self, lines: &[LineAddr]) {
            let mut rest = lines;
            while !rest.is_empty() {
                if self.now >= self.window {
                    self.compact();
                }
                let take = (self.window - self.now).min(rest.len());
                for &line in &rest[..take] {
                    self.record_one(line);
                }
                rest = &rest[take..];
            }
        }

        pub(super) fn reset(&mut self) {
            self.hist.clear();
            self.far = 0;
            self.cold = 0;
            self.accesses = 0;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::monitor::test_support::{interval, scan_stream, uniform_stream, Rng};

    #[test]
    fn scan_produces_step_curve() {
        // Cyclic scan over 32 lines: misses at sizes < 32, hits at >= 32.
        let mut m = MattsonMonitor::new(64);
        for &l in &scan_stream(32, 32 * 100) {
            m.record(l);
        }
        let c = m.curve_on_grid(&(0..=64).collect::<Vec<_>>());
        assert!(c.value_at(31.0) > 0.98, "at 31: {}", c.value_at(31.0));
        assert!(c.value_at(32.0) < 0.02, "at 32: {}", c.value_at(32.0));
    }

    #[test]
    fn curve_is_monotone_nonincreasing() {
        let mut m = MattsonMonitor::new(128);
        for &l in &uniform_stream(200, 50_000, 3) {
            m.record(l);
        }
        assert!(m
            .curve_on_grid(&(0..=128).collect::<Vec<_>>())
            .is_monotone(1e-12));
    }

    #[test]
    fn matches_fully_associative_lru_exactly() {
        use crate::array::{CacheModel, FullyAssocLru};
        use crate::policy::AccessCtx;
        // The whole point of Mattson: one pass gives the same miss count an
        // actual LRU cache of each size would see.
        let stream = uniform_stream(100, 20_000, 9);
        let mut m = MattsonMonitor::new(128);
        for &l in &stream {
            m.record(l);
        }
        let curve = m.curve_on_grid(&[10, 25, 50, 75, 100]);
        for &size in &[10u64, 25, 50, 75, 100] {
            let mut cache = FullyAssocLru::new(size);
            for &l in &stream {
                cache.access(l, &AccessCtx::new());
            }
            let real = cache.stats().miss_rate();
            let est = curve.value_at(size as f64);
            assert!(
                (real - est).abs() < 1e-9,
                "size {size}: cache {real} vs mattson {est}"
            );
        }
    }

    #[test]
    fn compaction_preserves_distances() {
        // Small window forces many compactions; distances ≤ cap must stay
        // exact. Compare against a no-compaction run (big cap).
        let stream = uniform_stream(60, 30_000, 11);
        let mut small = MattsonMonitor::new(64); // window 4096 → compactions
        let mut big = MattsonMonitor::new(4096); // effectively no pressure
        for &l in &stream {
            small.record(l);
            big.record(l);
        }
        let gs: Vec<u64> = (0..=64).collect();
        let cs = small.curve_on_grid(&gs);
        let cb = big.curve_on_grid(&gs);
        for &g in &gs {
            assert!(
                (cs.value_at(g as f64) - cb.value_at(g as f64)).abs() < 1e-9,
                "divergence at {g}"
            );
        }
    }

    #[test]
    fn distances_beyond_cap_fold_into_far() {
        // Scan over 100 lines with cap 16: every warm access is far.
        let mut m = MattsonMonitor::new(16);
        for &l in &scan_stream(100, 1000) {
            m.record(l);
        }
        assert_eq!(m.far, 900);
        assert_eq!(m.cold, 100);
        let c = m.curve();
        assert!(c.value_at(16.0) > 0.99);
    }

    #[test]
    fn reset_clears_statistics_but_stays_warm() {
        let mut m = MattsonMonitor::new(32);
        for &l in &scan_stream(8, 64) {
            m.record(l);
        }
        m.reset();
        assert_eq!(m.sampled_accesses(), 0);
        // Next pass over the same lines: all warm hits at distance 8.
        for &l in &scan_stream(8, 16) {
            m.record(l);
        }
        let c = m.curve_on_grid(&[0, 4, 8, 16]);
        assert!(c.value_at(8.0) < 0.01);
    }

    #[test]
    fn immediate_reuse_has_distance_one() {
        let mut m = MattsonMonitor::new(8);
        m.record(LineAddr(1));
        m.record(LineAddr(1));
        assert_eq!(m.hits_within(1), 1);
        let c = m.curve_on_grid(&[0, 1, 2]);
        assert!((c.value_at(1.0) - 0.5).abs() < 1e-9); // 1 cold miss, 1 hit
    }

    #[test]
    fn small_cap_default_grid_reaches_cap_without_overshoot() {
        // cap < 64 used to repeat the same few sizes and overshoot `cap`
        // (step = max(cap/64, 1) walked to 64 regardless); the grid must
        // stay within [1, cap] and end exactly at cap.
        for cap in [1u64, 3, 7, 20, 63, 64, 65, 100] {
            let mut m = MattsonMonitor::new(cap);
            for &l in &scan_stream(4, 64) {
                m.record(l);
            }
            let c = m.curve();
            assert_eq!(c.min_size(), 0.0);
            assert_eq!(c.max_size(), cap as f64, "grid must end at cap {cap}");
        }
        // And the grid itself is strictly increasing (deduplicated).
        let g = crate::monitor::default_grid(20);
        assert!(g.windows(2).all(|w| w[0] < w[1]), "duplicates in {g:?}");
        assert_eq!(g.first(), Some(&1));
        assert_eq!(g.last(), Some(&20));
    }

    #[test]
    fn record_block_is_equivalent_to_per_access() {
        // Small window forces compactions inside the block path too.
        let stream = uniform_stream(200, 30_000, 5);
        let mut one = MattsonMonitor::new(64);
        let mut block = MattsonMonitor::new(64);
        for &l in &stream {
            one.record(l);
        }
        for chunk in stream.chunks(777) {
            block.record_block(chunk);
        }
        assert_eq!(one.sampled_accesses(), block.sampled_accesses());
        assert_eq!(one.far, block.far);
        assert_eq!(one.cold, block.cold);
        let grid: Vec<u64> = (0..=64).collect();
        for &g in &grid {
            assert_eq!(one.hits_within(g), block.hits_within(g), "at {g}");
        }
    }

    #[test]
    fn a_line_compaction_dropped_is_cold_when_touched_again() {
        // Cap 16, window 4096: the scan over 100 other lines compacts the
        // window, keeping its newest 16, before the first line returns.
        let lost = LineAddr(1 << 40);
        let mut m = MattsonMonitor::new(16);
        m.record(lost);
        for &l in &scan_stream(100, 5000) {
            m.record(l);
        }
        assert!(
            !m.last_seen.contains_key(&lost.into()),
            "compaction dropped it"
        );
        let (cold, far) = (m.cold, m.far);
        m.record(lost);
        assert_eq!((m.cold, m.far), (cold + 1, far));
        // A line still tracked at a distance beyond the cap is far.
        m.record(LineAddr(0));
        assert_eq!((m.cold, m.far), (cold + 1, far + 1));
    }

    #[test]
    fn bitmap_monitor_equals_the_old_fenwick_monitor() {
        use super::old_mattson::OldMattson;
        for (seed, cap) in [1u64, 48, 256, 1024, 1500, 3000].into_iter().enumerate() {
            let mut rng = Rng(seed as u64 + 1);
            let mut new = MattsonMonitor::new(cap);
            let mut old = OldMattson::new(cap);
            let grid: Vec<u64> = (0..=cap).step_by((cap as usize / 64).max(1)).collect();
            let (mut compactions, mut straddles) = (0, 0);
            while compactions < 24 {
                let stream = interval(&mut rng, cap);
                let before = new.now;
                if rng.below(2) == 0 {
                    for &l in &stream {
                        let now = new.now;
                        new.record(l);
                        old.record(l);
                        compactions += usize::from(new.now <= now);
                    }
                } else {
                    let mut rest = &stream[..];
                    while !rest.is_empty() {
                        let take = (1 + rng.below(1500) as usize).min(rest.len());
                        let now = new.now;
                        straddles += usize::from(now < new.window && now + take > new.window);
                        new.record_block(&rest[..take]);
                        old.record_block(&rest[..take]);
                        compactions += usize::from(new.now < now + take);
                        rest = &rest[take..];
                    }
                }
                let at = format!("seed {seed}, cap {cap}, interval from {before}");
                assert_eq!(new.hist.bins, old.hist.bins, "{at}");
                assert_eq!(new.hist.blocks, old.hist.blocks, "{at}");
                assert_eq!(
                    (new.far, new.cold, new.accesses, new.now),
                    (old.far, old.cold, old.accesses, old.now),
                    "{at}"
                );
                let entries: HashMap<LineAddr, usize, LineHashBuilder> = new
                    .last_seen
                    .iter()
                    .map(|(l, &t)| (l.line(), t as usize))
                    .collect();
                assert_eq!(entries, old.last_seen, "{at}");
                let (a, b) = (new.curve_on_grid(&grid), old.curve_on_grid(&grid));
                for (p, q) in a.iter().zip(b.iter()) {
                    assert_eq!(p.size.to_bits(), q.size.to_bits(), "{at}");
                    assert_eq!(p.misses.to_bits(), q.misses.to_bits(), "{at}");
                }
                if rng.below(3) == 0 {
                    new.reset();
                    old.reset();
                }
            }
            assert!(
                straddles >= 3,
                "seed {seed}: {straddles} blocks straddled the window edge"
            );
        }
    }

    #[test]
    #[should_panic(expected = "timestamps overflow a u32")]
    fn a_cap_whose_timestamps_overflow_u32_is_refused() {
        // 2³⁰ lines: a 2³²-timestamp window. The assertion comes before
        // the histogram, the bitmap or the map is allocated.
        MattsonMonitor::new(1 << 30);
    }

    #[test]
    fn curve_includes_origin() {
        let mut m = MattsonMonitor::new(8);
        m.record(LineAddr(1));
        let c = m.curve();
        assert_eq!(c.min_size(), 0.0);
        assert_eq!(c.value_at(0.0), 1.0);
    }
}
