//! SHARDS-style spatially-hashed sampled stack-distance profiling.
//!
//! [`MattsonMonitor`](super::MattsonMonitor) is exact but pays a hash-map
//! probe and a distance query for *every* access, over a timestamp window
//! four times the tracked capacity (`monitor_record/mattson_exact` in
//! `results/bench_baseline.json`). The paper's §VI-C hardware monitors
//! avoid exactly this cost by sampling the address stream; SHARDS
//! (Waldspurger et al., FAST 2015) showed the same trade works in
//! software: filter lines by a *spatial hash* (`hash(addr) < threshold`),
//! run the Mattson pass only on the surviving ~`1/R` of the stream, and
//! rescale the measured distances back up — by the *realized* inverse
//! sampling rate, the SHARDS-adj-style correction. Because the filter is
//! by address, a sampled line's reuses are all observed, and the number
//! of *distinct sampled lines* between them is an unbiased `1/R`-scale
//! estimate of the true stack distance.
//!
//! [`SampledMattson`] implements that design with flat, cache-friendly
//! state sized by the sampled stream:
//!
//! - a `last_seen` map from sampled line → timestamp, the exact
//!   monitor's map of 12-byte slots ([`LineKey`] → `u32`) but grown with
//!   the live set (a few hundred lines, typically) rather than sized by
//!   the window that bounds it;
//! - the timestamp occupancy bitmap the exact monitor also counts on
//!   ([`Marks`], in `marks.rs`) — distance queries count the live bits
//!   between two timestamps, skipping whole 512-timestamp blocks at a
//!   time; a sampled window is short enough that no tree over the blocks
//!   is needed;
//! - a log-bucketed distance histogram: exact bins up to 256, then 32
//!   bins per octave, so curve extraction touches a few hundred buckets
//!   regardless of capacity — in one walk over the buckets and the grid
//!   together, with no memo kept between calls.
//!
//! When the window fills, it compacts in place through the routine the
//! exact monitor runs too ([`Marks::compact`]).
//!
//! The resulting curves converge statistically on the exact monitor's
//! (see the L∞ accuracy tests here and in `tests/properties.rs`) at a
//! small fraction of the record cost — the software analogue of the
//! paper's "address-based sampling reduces monitoring overheads" [11, 42].

use super::marks::{window, LineKey, Marks};
use super::{default_grid, Monitor};
use crate::addr::LineAddr;
use crate::hasher::{mix64, SeededLineHash};
use std::collections::HashMap;
use talus_core::MissCurve;

/// Distances up to this value get an exact histogram bin each.
const LINEAR: usize = 256;
/// Bins per octave beyond the exact range (≤ ~3% relative bin width).
const SUB: usize = 32;
/// `log2(LINEAR)`: the first log-bucketed octave.
const LINEAR_OCTAVE: usize = LINEAR.ilog2() as usize;

/// Log-bucketed histogram over sampled stack distances: exact bins for
/// `1..=LINEAR`, then `SUB` bins per octave. Curve extraction walks the
/// few hundred buckets instead of one bin per tracked line.
#[derive(Debug, Clone)]
struct LogHist {
    bins: Vec<u64>,
    /// Largest distance stored (inclusive); beyond is the caller's "far".
    scap: usize,
}

impl LogHist {
    fn new(scap: usize) -> Self {
        LogHist {
            bins: vec![0; Self::bucket(scap.max(1)) + 1],
            scap,
        }
    }

    /// Bucket index for distance `d >= 1`.
    #[inline]
    fn bucket(d: usize) -> usize {
        if d <= LINEAR {
            d - 1
        } else {
            let octave = (usize::BITS - 1 - d.leading_zeros()) as usize;
            let sub = ((d - (1 << octave)) * SUB) >> octave;
            LINEAR + (octave - LINEAR_OCTAVE) * SUB + sub
        }
    }

    /// The size, in lines, from which bucket `i`'s accesses hit: its
    /// representative, capped at `scap`, times `scale`.
    fn reach(&self, i: usize, scale: f64) -> f64 {
        Self::representative(i).min(self.scap as u64) as f64 * scale
    }

    /// Representative distance (bin midpoint) for bucket `i`.
    fn representative(i: usize) -> u64 {
        if i < LINEAR {
            (i + 1) as u64
        } else {
            let octave = LINEAR_OCTAVE + (i - LINEAR) / SUB;
            let sub = (i - LINEAR) % SUB;
            let lo = (1u64 << octave) + ((sub as u64) << octave) / SUB as u64;
            let hi = (1u64 << octave) + ((sub as u64 + 1) << octave) / SUB as u64;
            lo + (hi - lo) / 2
        }
    }

    #[inline]
    fn add(&mut self, d: usize) {
        self.bins[Self::bucket(d)] += 1;
    }

    fn clear(&mut self) {
        self.bins.fill(0);
    }
}

/// A sampled stack-distance monitor: a spatial hash filter in front of a
/// flat Mattson pass, rescaled back to full-stream units.
///
/// Produces curves statistically matching [`MattsonMonitor`] at roughly
/// `1/ratio` of the record cost (see `monitor_record/sampled_mattson` vs
/// `monitor_record/mattson_exact` in the benches).
///
/// # Examples
///
/// ```
/// use talus_sim::monitor::{Monitor, SampledMattson};
/// use talus_sim::LineAddr;
/// // A cyclic scan over 4096 lines, sampled 1-in-16: the cliff at 4096
/// // survives sampling (give or take binomial noise on the cliff edge).
/// let mut m = SampledMattson::new(8192, 16, 42);
/// for i in 0..200_000u64 {
///     m.record(LineAddr(i % 4096));
/// }
/// let curve = m.curve();
/// assert!(curve.value_at(3000.0) > 0.9); // well below the scan: ~all miss
/// assert!(curve.value_at(5000.0) < 0.1); // well above the scan: ~all hit
/// ```
///
/// [`MattsonMonitor`]: super::MattsonMonitor
#[derive(Debug, Clone)]
pub struct SampledMattson {
    /// Largest capacity (in lines) the monitor resolves.
    cap: u64,
    /// Sampling ratio `R`: roughly one in `R` lines is tracked.
    ratio: u64,
    /// Accept a line iff `mix64(seed, line) <= threshold`.
    threshold: u64,
    seed: u64,
    /// Tracked capacity in sampled space: `ceil(cap / ratio)`.
    scap: usize,
    hist: LogHist,
    /// Sampled accesses whose distance exceeded `scap`.
    far: u64,
    /// Sampled accesses to a line `last_seen` does not hold: its first
    /// touch, or its first since a compaction dropped it.
    cold: u64,
    /// Post-filter access count.
    sampled: u64,
    /// Pre-filter access count (what the full stream saw).
    observed: u64,
    /// Sampled line → timestamp of its most recent access, hashed under a
    /// seed apart from the filter's. Every key passed the filter, so its
    /// filter hash (`LineHashBuilder`'s, for seed 0) is at most
    /// `threshold`: the top bits the map tags buckets with would not tell
    /// keys apart.
    last_seen: HashMap<LineKey, u32, SeededLineHash>,
    /// One mark per entry of `last_seen`, on its timestamp.
    marks: Marks,
    now: usize,
    window: usize,
}

impl SampledMattson {
    /// Creates a monitor resolving capacities up to `max_lines`, sampling
    /// roughly one in `ratio` lines with a hash seeded by `seed`.
    ///
    /// `ratio == 1` disables the filter (every line is tracked; distances
    /// up to 256 are then exact and larger ones bucketed to ~3%).
    ///
    /// # Panics
    ///
    /// Panics if `max_lines` or `ratio` is zero, or if the sampled
    /// capacity is so large that its window's timestamps overflow a `u32`
    /// (past 2³⁰ − 1 sampled lines).
    pub fn new(max_lines: u64, ratio: u64, seed: u64) -> Self {
        assert!(max_lines > 0, "tracked capacity must be positive");
        assert!(ratio > 0, "sampling ratio must be positive");
        let scap = (max_lines.div_ceil(ratio) as usize).max(1);
        let window = window(scap as u64);
        SampledMattson {
            cap: max_lines,
            ratio,
            threshold: u64::MAX / ratio,
            seed,
            scap,
            hist: LogHist::new(scap),
            far: 0,
            cold: 0,
            sampled: 0,
            observed: 0,
            // Not sized for `scap`: the live set is what the map holds.
            last_seen: HashMap::with_hasher(SeededLineHash(seed ^ 0x5A4D)),
            marks: Marks::new(window),
            now: 0,
            window,
        }
    }

    /// Largest capacity (in lines) this monitor resolves.
    pub fn max_lines(&self) -> u64 {
        self.cap
    }

    /// The sampling ratio `R` (one in `R` lines tracked).
    pub fn ratio(&self) -> u64 {
        self.ratio
    }

    /// Whether the spatial filter tracks this line. Deterministic per
    /// address, as Assumption 3 requires (sampling by address, not time).
    #[inline]
    pub fn is_sampled(&self, line: LineAddr) -> bool {
        mix64(self.seed, line.0) <= self.threshold
    }

    /// Accesses observed before the filter (the full stream length).
    pub fn observed_accesses(&self) -> u64 {
        self.observed
    }

    /// The distance scale mapping sampled-space distances back to lines:
    /// the *measured* inverse sampling rate (`observed / sampled`), not
    /// the nominal `ratio` — the SHARDS-adj-style correction. The filter
    /// admits a binomially-noisy fraction of the working set; using the
    /// realized rate cancels that noise, so e.g. a scan cliff lands at the
    /// true footprint instead of `ratio × (sampled lines)`.
    fn scale(&self) -> f64 {
        if self.sampled == 0 {
            self.ratio as f64
        } else {
            self.observed as f64 / self.sampled as f64
        }
    }

    /// Produces the miss curve evaluated on an arbitrary grid of line
    /// counts (values above `max_lines` clamp to the far+cold rate).
    ///
    /// Rates are estimated from the sampled sub-stream: hits at size `g`
    /// are sampled accesses whose rescaled distance (sampled distance ×
    /// realized inverse sampling rate) fits in `g` lines.
    pub fn curve_on_grid(&self, grid: &[u64]) -> MissCurve {
        let total = self.sampled.max(1) as f64;
        let scale = self.scale();
        let mut sizes = Vec::with_capacity(grid.len() + 1);
        let mut misses = Vec::with_capacity(grid.len() + 1);
        if grid.first().copied() != Some(0) {
            sizes.push(0.0);
            misses.push(1.0);
        }
        // One walk over the buckets and the ascending grid together (a
        // bucket's reach never falls as its index rises).
        let (mut bucket, mut hits) = (0, 0u64);
        for &g in grid {
            while bucket < self.hist.bins.len() && self.hist.reach(bucket, scale) <= g as f64 {
                hits += self.hist.bins[bucket];
                bucket += 1;
            }
            sizes.push(g as f64);
            misses.push((self.sampled - hits) as f64 / total);
        }
        MissCurve::from_samples(&sizes, &misses).expect("grid is sorted and rates are finite")
    }

    /// One access that already passed the spatial filter.
    #[inline]
    fn record_sampled(&mut self, line: LineAddr) {
        if self.now >= self.window {
            self.compact();
        }
        self.sampled += 1;
        let now = self.now;
        match self.last_seen.insert(line.into(), now as u32) {
            Some(prev) => {
                let prev = prev as usize;
                // Distinct sampled lines in (prev, now), plus the line
                // itself — the sampled-space stack distance. Every live
                // mark sits below `now`, so the count on either side of
                // `prev` determines the other; scan whichever is shorter
                // (recent reuses scan a short suffix, scans a short
                // prefix).
                let between = if 2 * prev >= now {
                    if prev + 1 < now {
                        self.marks.count_range(prev + 1, now - 1)
                    } else {
                        0
                    }
                } else {
                    self.last_seen.len() as u64 - self.marks.count_range(0, prev)
                };
                let distance = between as usize + 1;
                if distance <= self.scap {
                    self.hist.add(distance);
                } else {
                    self.far += 1;
                }
                self.marks.unset(prev);
            }
            None => {
                self.cold += 1;
            }
        }
        self.marks.set(now);
        self.now += 1;
    }

    /// Compacts the timestamp window in place: the most recent `scap`
    /// sampled lines move to timestamps `0..k`, in order, and the rest are
    /// dropped (their next access would be beyond the tracked range
    /// anyway).
    fn compact(&mut self) {
        self.now = self.marks.compact(&mut self.last_seen, self.scap);
    }
}

/// Lines [`record_block`](Monitor::record_block) filters ahead of
/// recording their survivors (a stack buffer). In situ on `producer_fed`
/// (rotations of 3 s runs, medians): 32 lines 2270 plans/s, 64 lines 2328,
/// 256 lines 2358 — against 2011–2056 with the filter inside the record
/// loop.
const FILTER_CHUNK: usize = 64;

impl Monitor for SampledMattson {
    fn record(&mut self, line: LineAddr) {
        self.observed += 1;
        if self.is_sampled(line) {
            self.record_sampled(line);
        }
    }

    fn record_block(&mut self, lines: &[LineAddr]) {
        // The scalar path's filter-then-record, a chunk at a time in two
        // passes: the filter keeps a line by arithmetic (whether one line
        // in `R` passes is a branch no predictor learns, and inside the
        // record loop it stalls the map and bitmap work behind it), then
        // the survivors are recorded in stream order — the same records
        // in the same order as the scalar path.
        self.observed += lines.len() as u64;
        let mut survivors = [LineAddr(0); FILTER_CHUNK];
        for chunk in lines.chunks(FILTER_CHUNK) {
            let mut kept = 0;
            for &line in chunk {
                survivors[kept] = line;
                kept += usize::from(self.is_sampled(line));
            }
            for &line in &survivors[..kept] {
                self.record_sampled(line);
            }
        }
    }

    fn curve(&self) -> MissCurve {
        self.curve_on_grid(&default_grid(self.cap))
    }

    fn sampled_accesses(&self) -> u64 {
        self.sampled
    }

    fn reset(&mut self) {
        self.hist.clear();
        self.far = 0;
        self.cold = 0;
        self.sampled = 0;
        self.observed = 0;
        // Keep last_seen/marks: the monitor stays warm across intervals.
    }
}

/// The monitor this file held before its last-seen timestamps moved to a
/// `HashMap`: an open-addressing table and a collect-and-sort compaction,
/// copied verbatim (but for names, visibility and comments) as the
/// reference the map monitor is held to. Its curves come from the
/// memoized expansion and `partition_point` search the merged walk
/// replaced.
#[cfg(test)]
mod old_sampled {
    use super::{LogHist, FILTER_CHUNK};
    use crate::addr::LineAddr;
    use crate::hasher::mix64;
    use crate::monitor::{default_grid, Monitor};
    use std::cell::RefCell;
    use talus_core::MissCurve;

    /// `(scaled representative distance, cumulative count)` per bucket, in
    /// ascending distance order; `scale` maps sampled distances back to
    /// lines.
    fn cumulative(hist: &LogHist, scale: f64) -> (Vec<f64>, Vec<u64>) {
        let mut reps = Vec::with_capacity(hist.bins.len());
        let mut cums = Vec::with_capacity(hist.bins.len());
        let mut cum = 0u64;
        for (i, &n) in hist.bins.iter().enumerate() {
            cum += n;
            reps.push(LogHist::representative(i).min(hist.scap as u64) as f64 * scale);
            cums.push(cum);
        }
        (reps, cums)
    }

    /// Memoized [`cumulative`] expansion, tagged with the recording
    /// generation it was computed at.
    #[derive(Debug, Clone)]
    struct CurveCache {
        generation: u64,
        reps: Vec<f64>,
        cums: Vec<u64>,
    }

    /// Empty-slot sentinel in the open-addressing table.
    const EMPTY: u32 = u32::MAX;

    /// Slots a new table starts with.
    const MIN_SLOTS: usize = 16;

    #[derive(Debug, Clone, Copy)]
    struct Slot {
        key: u64,
        ts: u32,
    }

    /// Flat open-addressing map from sampled line → most recent timestamp.
    #[derive(Debug, Clone)]
    pub(super) struct LastSeen {
        slots: Vec<Slot>,
        len: usize,
        seed: u64,
    }

    impl LastSeen {
        fn new(seed: u64) -> Self {
            LastSeen {
                slots: vec![Slot { key: 0, ts: EMPTY }; MIN_SLOTS],
                len: 0,
                seed,
            }
        }

        #[inline]
        fn probe(&self, key: u64) -> usize {
            let mask = self.slots.len() - 1;
            let mut i = (mix64(self.seed, key) as usize) & mask;
            while self.slots[i].ts != EMPTY && self.slots[i].key != key {
                i = (i + 1) & mask;
            }
            i
        }

        #[inline]
        fn replace(&mut self, key: u64, ts: u32) -> Option<u32> {
            let i = self.probe(key);
            let prev = self.slots[i].ts;
            self.slots[i] = Slot { key, ts };
            if prev != EMPTY {
                return Some(prev);
            }
            self.len += 1;
            if 2 * self.len > self.slots.len() {
                self.grow();
            }
            None
        }

        #[cold]
        fn grow(&mut self) {
            let doubled = vec![Slot { key: 0, ts: EMPTY }; 2 * self.slots.len()];
            for slot in std::mem::replace(&mut self.slots, doubled) {
                if slot.ts != EMPTY {
                    let i = self.probe(slot.key);
                    self.slots[i] = slot;
                }
            }
        }

        fn clear(&mut self) {
            self.slots.fill(Slot { key: 0, ts: EMPTY });
            self.len = 0;
        }

        /// All live `(line, timestamp)` entries, in table order.
        pub(super) fn entries(&self) -> Vec<(u64, u32)> {
            self.slots
                .iter()
                .filter(|slot| slot.ts != EMPTY)
                .map(|slot| (slot.key, slot.ts))
                .collect()
        }
    }

    #[derive(Debug, Clone)]
    pub(super) struct OldSampled {
        cap: u64,
        ratio: u64,
        threshold: u64,
        seed: u64,
        scap: usize,
        pub(super) hist: LogHist,
        pub(super) far: u64,
        pub(super) cold: u64,
        pub(super) sampled: u64,
        pub(super) observed: u64,
        pub(super) table: LastSeen,
        marks: super::Marks,
        pub(super) live: u64,
        pub(super) now: usize,
        window: usize,
        generation: u64,
        cumulative: RefCell<Option<CurveCache>>,
    }

    impl OldSampled {
        pub(super) fn new(max_lines: u64, ratio: u64, seed: u64) -> Self {
            assert!(max_lines > 0, "tracked capacity must be positive");
            assert!(ratio > 0, "sampling ratio must be positive");
            let scap = (max_lines.div_ceil(ratio) as usize).max(1);
            let window = (4 * scap).max(1 << 12);
            OldSampled {
                cap: max_lines,
                ratio,
                threshold: u64::MAX / ratio,
                seed,
                scap,
                hist: LogHist::new(scap),
                far: 0,
                cold: 0,
                sampled: 0,
                observed: 0,
                table: LastSeen::new(seed ^ 0x5A4D),
                marks: super::Marks::new(window),
                live: 0,
                now: 0,
                window,
                generation: 0,
                cumulative: RefCell::new(None),
            }
        }

        #[inline]
        fn is_sampled(&self, line: LineAddr) -> bool {
            mix64(self.seed, line.0) <= self.threshold
        }

        fn scale(&self) -> f64 {
            if self.sampled == 0 {
                self.ratio as f64
            } else {
                self.observed as f64 / self.sampled as f64
            }
        }

        pub(super) fn curve_on_grid(&self, grid: &[u64]) -> MissCurve {
            let total = self.sampled.max(1) as f64;
            let mut slot = self.cumulative.borrow_mut();
            if slot
                .as_ref()
                .is_none_or(|c| c.generation != self.generation)
            {
                let (reps, cums) = cumulative(&self.hist, self.scale());
                *slot = Some(CurveCache {
                    generation: self.generation,
                    reps,
                    cums,
                });
            }
            let cache = slot.as_ref().expect("cache populated above");
            let mut sizes = Vec::with_capacity(grid.len() + 1);
            let mut misses = Vec::with_capacity(grid.len() + 1);
            if grid.first().copied() != Some(0) {
                sizes.push(0.0);
                misses.push(1.0);
            }
            for &g in grid {
                let idx = cache.reps.partition_point(|&r| r <= g as f64);
                let hits = if idx == 0 { 0 } else { cache.cums[idx - 1] };
                sizes.push(g as f64);
                misses.push((self.sampled - hits) as f64 / total);
            }
            MissCurve::from_samples(&sizes, &misses).expect("grid is sorted and rates are finite")
        }

        #[inline]
        fn record_sampled(&mut self, line: LineAddr) {
            if self.now >= self.window {
                self.compact();
            }
            self.sampled += 1;
            let now = self.now;
            match self.table.replace(line.0, now as u32) {
                Some(prev) => {
                    let prev = prev as usize;
                    let between = if 2 * prev >= now {
                        if prev + 1 < now {
                            self.marks.count_range(prev + 1, now - 1)
                        } else {
                            0
                        }
                    } else {
                        self.live - self.marks.count_range(0, prev)
                    };
                    let distance = between as usize + 1;
                    if distance <= self.scap {
                        self.hist.add(distance);
                    } else {
                        self.far += 1;
                    }
                    self.marks.unset(prev);
                }
                None => {
                    self.cold += 1;
                    self.live += 1;
                }
            }
            self.marks.set(now);
            self.now += 1;
        }

        fn compact(&mut self) {
            let mut entries = self.table.entries();
            entries.sort_by_key(|&(_, t)| std::cmp::Reverse(t));
            entries.truncate(self.scap);
            entries.reverse(); // oldest kept entry first
            self.table.clear();
            self.marks.clear();
            for (i, &(line, _)) in entries.iter().enumerate() {
                self.table.replace(line, i as u32);
                self.marks.set(i);
            }
            self.live = entries.len() as u64;
            self.now = entries.len();
        }
    }

    impl Monitor for OldSampled {
        fn record(&mut self, line: LineAddr) {
            self.generation += 1;
            self.observed += 1;
            if self.is_sampled(line) {
                self.record_sampled(line);
            }
        }

        fn record_block(&mut self, lines: &[LineAddr]) {
            self.generation += 1;
            self.observed += lines.len() as u64;
            let mut survivors = [LineAddr(0); FILTER_CHUNK];
            for chunk in lines.chunks(FILTER_CHUNK) {
                let mut kept = 0;
                for &line in chunk {
                    survivors[kept] = line;
                    kept += usize::from(self.is_sampled(line));
                }
                for &line in &survivors[..kept] {
                    self.record_sampled(line);
                }
            }
        }

        fn curve(&self) -> MissCurve {
            self.curve_on_grid(&default_grid(self.cap))
        }

        fn sampled_accesses(&self) -> u64 {
            self.sampled
        }

        fn reset(&mut self) {
            self.generation += 1;
            self.hist.clear();
            self.far = 0;
            self.cold = 0;
            self.sampled = 0;
            self.observed = 0;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::monitor::test_support::{interval, scan_stream, uniform_stream, Rng};
    use crate::monitor::MattsonMonitor;

    /// L∞ distance between two curves on a grid.
    fn linf(a: &MissCurve, b: &MissCurve, grid: &[u64]) -> f64 {
        grid.iter()
            .map(|&g| (a.value_at(g as f64) - b.value_at(g as f64)).abs())
            .fold(0.0, f64::max)
    }

    #[test]
    fn log_hist_buckets_are_monotone_and_tight() {
        // Every distance lands in a bucket whose representative is within
        // ~3% (1/SUB of an octave), and bucket indices never decrease.
        let mut prev = 0;
        for d in 1..100_000usize {
            let b = LogHist::bucket(d);
            assert!(b >= prev, "bucket order violated at {d}");
            prev = b;
            let rep = LogHist::representative(b) as f64;
            let err = (rep - d as f64).abs() / d as f64;
            assert!(err <= 0.05, "bucket rep {rep} too far from {d}");
        }
    }

    /// Bytes `last_seen` holds: its buckets (a power of two, at most 8/7
    /// of its capacity past 8) of one entry and one control byte each.
    fn map_bytes(m: &SampledMattson) -> usize {
        let buckets = (m.last_seen.capacity() * 8 / 7).next_power_of_two();
        buckets * (std::mem::size_of::<(LineKey, u32)>() + 1)
    }

    #[test]
    fn last_seen_is_sized_by_the_live_set_not_the_window() {
        // The repo benchmark's monitor shape: 8192 lines at 1-in-8, whose
        // window-sized table was 8192 slots in two arrays (96 KiB) for
        // the ~40 sampled lines of a 300-line working set.
        let mut m = SampledMattson::new(8192, 8, 5);
        for &l in &uniform_stream(300, 60_000, 9) {
            m.record(l);
        }
        assert!(m.sampled > m.window as u64, "the window compacted");
        let live = m.last_seen.len();
        assert!(live > 0 && live <= 300);
        assert!(
            map_bytes(&m) < 16 << 10,
            "{live} live lines hold {} B of map",
            map_bytes(&m)
        );
        // The map grows with the live set, whatever arrives: its capacity
        // stays within twice the live lines and twice the window.
        let mut scan = SampledMattson::new(8192, 1, 5);
        for &l in &scan_stream(5000, 12_000) {
            scan.record(l);
            let (live, capacity) = (scan.last_seen.len(), scan.last_seen.capacity());
            assert!(
                live <= capacity && capacity <= 2 * live.max(2),
                "{live} in {capacity}"
            );
        }
        assert!(scan.last_seen.capacity() <= 2 * scan.window);
    }

    #[test]
    fn resident_bytes_of_a_producer_tenant() {
        use crate::monitor::MonitorSource;
        use talus_core::CurveSource;
        use talus_workloads::{multi_tenant, AccessGenerator};
        // One `producer_fed` tenant: a `multi_tenant(4)` generator scaled
        // to a 4096-line cache, into an 8192-line monitor at 1-in-8,
        // warmed up and run through 20 intervals of 10 000 accesses. Its
        // ≈ 580 live lines fill 1024 buckets: 13 KiB at 12-byte slots,
        // 17 KiB at 16-byte ones before the bins are counted.
        assert_eq!(std::mem::size_of::<(LineKey, u32)>(), 12);
        let mut gen = multi_tenant(4).scaled(1.0 / 32.0).tenant_generator(1, 7);
        let monitor = SampledMattson::new(8192, 8, 0xCAFE);
        let mut src = MonitorSource::new(monitor, 10_000, move || LineAddr(gen.next_line().0));
        src.warm_up(5_000);
        for _ in 0..20 {
            src.next_curve();
        }
        let m = src.monitor();
        let (map, bins) = (map_bytes(m), 8 * m.hist.bins.len());
        assert!(
            map + bins < 16 << 10,
            "{} live lines hold {map} B of map beside {bins} B of bins",
            m.last_seen.len()
        );
    }

    #[test]
    #[should_panic(expected = "timestamps overflow a u32")]
    fn a_cap_whose_timestamps_overflow_u32_is_refused() {
        // 2³⁰ sampled lines: a 2³²-timestamp window. The assertion comes
        // before the histogram, the bitmap or the map is allocated.
        SampledMattson::new(1 << 33, 8, 1);
    }

    #[test]
    fn ratio_one_matches_exact_mattson() {
        // With the filter disabled and distances inside the exact-bin
        // range, the flat pipeline must reproduce MattsonMonitor exactly.
        let stream = uniform_stream(150, 30_000, 3);
        let mut exact = MattsonMonitor::new(256);
        let mut flat = SampledMattson::new(256, 1, 7);
        for &l in &stream {
            exact.record(l);
            flat.record(l);
        }
        assert_eq!(flat.sampled_accesses(), exact.sampled_accesses());
        let grid: Vec<u64> = (0..=256).collect();
        assert!(
            linf(
                &exact.curve_on_grid(&grid),
                &flat.curve_on_grid(&grid),
                &grid
            ) < 1e-12,
            "exact-range curves must coincide"
        );
    }

    #[test]
    fn sampled_accesses_reports_post_filter_counts() {
        let stream = uniform_stream(10_000, 40_000, 5);
        let mut m = SampledMattson::new(4096, 16, 11);
        let expected: u64 = stream.iter().filter(|&&l| m.is_sampled(l)).count() as u64;
        for &l in &stream {
            m.record(l);
        }
        assert_eq!(m.sampled_accesses(), expected, "post-filter count");
        assert_eq!(m.observed_accesses(), stream.len() as u64);
        // The filter passes roughly 1/16 of a large uniform stream.
        let frac = expected as f64 / stream.len() as f64;
        assert!((frac - 1.0 / 16.0).abs() < 0.02, "pass rate {frac}");
    }

    #[test]
    fn scan_cliff_survives_sampling() {
        // Cyclic scan over 4096 lines at 1/16 sampling: the sampled cliff
        // sits at (sampled lines × 16), within a few percent of 4096. L∞
        // is checked outside a ±15% guard band around the cliff — at a
        // vertical cliff, L∞ is ill-conditioned in exactly the band whose
        // width is the sampling noise (SHARDS has the same property).
        let lines = 4096u64;
        let mut exact = MattsonMonitor::new(2 * lines as usize as u64);
        let mut sampled = SampledMattson::new(2 * lines, 16, 17);
        for &l in &scan_stream(lines, 40 * lines as usize) {
            exact.record(l);
            sampled.record(l);
        }
        let guard = (lines as f64 * 0.15) as u64;
        let grid: Vec<u64> = (0..=2 * lines)
            .step_by(64)
            .filter(|&g| g < lines - guard || g > lines + guard)
            .collect();
        let err = linf(
            &exact.curve_on_grid(&grid),
            &sampled.curve_on_grid(&grid),
            &grid,
        );
        assert!(err < 0.05, "L∞ off the cliff band: {err}");
        // And the cliff itself lands within the guard band: well below it
        // everything misses, well above it everything hits.
        let c = sampled.curve_on_grid(&(0..=2 * lines).step_by(64).collect::<Vec<_>>());
        assert!(c.value_at((lines - guard) as f64) > 0.9);
        assert!(c.value_at((lines + guard) as f64) < 0.1);
    }

    #[test]
    fn uniform_stream_converges_to_exact() {
        // Smooth curve: no cliff, so plain L∞ over the whole grid applies.
        let stream = uniform_stream(4096, 120_000, 23);
        let mut exact = MattsonMonitor::new(8192);
        let mut sampled = SampledMattson::new(8192, 16, 29);
        for chunk in stream.chunks(512) {
            exact.record_block(chunk);
            sampled.record_block(chunk);
        }
        let grid: Vec<u64> = (0..=8192).step_by(128).collect();
        let err = linf(
            &exact.curve_on_grid(&grid),
            &sampled.curve_on_grid(&grid),
            &grid,
        );
        assert!(err < 0.05, "L∞ on uniform stream: {err}");
    }

    #[test]
    fn record_block_is_equivalent_to_per_access() {
        let stream = uniform_stream(2000, 30_000, 13);
        let mut one = SampledMattson::new(1024, 8, 3);
        for &l in &stream {
            one.record(l);
        }
        let grid: Vec<u64> = (0..=1024).step_by(32).collect();
        // Blocks inside, on and across the filter's chunk.
        for size in [1, FILTER_CHUNK - 1, FILTER_CHUNK, FILTER_CHUNK + 1, 333] {
            let mut block = SampledMattson::new(1024, 8, 3);
            for chunk in stream.chunks(size) {
                block.record_block(chunk);
            }
            assert_eq!(one.sampled_accesses(), block.sampled_accesses());
            assert_eq!(one.observed_accesses(), block.observed_accesses());
            assert_eq!(
                (one.cold, one.far, one.now),
                (block.cold, block.far, block.now)
            );
            assert!(
                linf(
                    &one.curve_on_grid(&grid),
                    &block.curve_on_grid(&grid),
                    &grid
                ) < 1e-12,
                "blocks of {size}: block and scalar paths must agree exactly"
            );
        }
    }

    #[test]
    fn compaction_preserves_sampled_distances() {
        // The compaction trigger counts *sampled accesses*, so a long
        // stream over a footprint well inside the tracked range still
        // compacts repeatedly (15k sampled vs a 4096 window here) while
        // every distance stays in the exact-bin range — where curves must
        // match a monitor with no window pressure bit-for-bit (same seed →
        // same sample set, same bins).
        let stream = uniform_stream(800, 60_000, 19);
        let mut small = SampledMattson::new(2048, 4, 5); // scap 512 → window 4096
        let mut big = SampledMattson::new(65536, 4, 5); // effectively no pressure
        for &l in &stream {
            small.record(l);
            big.record(l);
        }
        assert_eq!(small.cold, big.cold, "compaction dropped live lines");
        let grid: Vec<u64> = (0..=2048).step_by(64).collect();
        assert!(
            linf(
                &small.curve_on_grid(&grid),
                &big.curve_on_grid(&grid),
                &grid
            ) < 1e-12,
            "compaction changed tracked distances"
        );
    }

    #[test]
    fn reset_clears_statistics_but_stays_warm() {
        let mut m = SampledMattson::new(512, 2, 1);
        for &l in &scan_stream(64, 4096) {
            m.record(l);
        }
        m.reset();
        assert_eq!(m.sampled_accesses(), 0);
        assert_eq!(m.observed_accesses(), 0);
        // Second pass over the same lines: all warm (no cold misses), so
        // the curve hits once capacity covers the loop.
        for &l in &scan_stream(64, 640) {
            m.record(l);
        }
        assert_eq!(m.cold, 0, "tags stayed warm across reset");
        let c = m.curve_on_grid(&[0, 32, 64, 128]);
        assert!(c.value_at(128.0) < 0.01);
    }

    #[test]
    fn a_line_compaction_dropped_is_cold_when_touched_again() {
        // Every line sampled, cap 16, window 4096: the scan over 100 other
        // lines compacts the window, keeping its newest 16, before the
        // first line returns.
        let lost = LineAddr(1 << 40);
        let mut m = SampledMattson::new(16, 1, 3);
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
    fn map_monitor_equals_the_old_last_seen_monitor() {
        use super::old_sampled::OldSampled;
        use std::collections::BTreeMap;
        // (ratio, cap, span of the stream's working sets). The map holds
        // up to ≈ 7 × span / ratio lines: past `scap` = cap / ratio in
        // the odd cases, so compaction drops lines; inside it in the even
        // ones, so compaction keeps every line.
        let cases = [
            (1, 48, 100),
            (1, 3000, 300),
            (4, 2048, 1024),
            (8, 8192, 800),
            (16, 4096, 1000),
            (16, 16384, 1500),
            (8, 1000, 2000),
        ];
        let (mut kept_all, mut dropped) = (0, 0);
        for (seed, (ratio, cap, span)) in cases.into_iter().enumerate() {
            let seed = seed as u64;
            let mut rng = Rng(seed + 1);
            let mut new = SampledMattson::new(cap, ratio, seed);
            let mut old = OldSampled::new(cap, ratio, seed);
            let mut compactions = 0;
            while compactions < 12 {
                let stream = interval(&mut rng, span);
                let before = new.now;
                if rng.below(2) == 0 {
                    for &l in &stream {
                        if new.is_sampled(l) && new.now >= new.window {
                            compactions += 1;
                            if new.last_seen.len() > new.scap {
                                dropped += 1;
                            } else {
                                kept_all += 1;
                            }
                        }
                        new.record(l);
                        old.record(l);
                    }
                } else {
                    let mut rest = &stream[..];
                    while !rest.is_empty() {
                        let take = (1 + rng.below(1500) as usize).min(rest.len());
                        let now = new.now;
                        new.record_block(&rest[..take]);
                        old.record_block(&rest[..take]);
                        compactions += usize::from(new.now < now);
                        rest = &rest[take..];
                    }
                }
                let at = format!("seed {seed}, ratio {ratio}, cap {cap}, interval from {before}");
                assert_eq!(new.hist.bins, old.hist.bins, "{at}");
                assert_eq!(
                    (new.far, new.cold, new.sampled, new.observed),
                    (old.far, old.cold, old.sampled, old.observed),
                    "{at}"
                );
                assert_eq!(
                    (new.last_seen.len() as u64, new.now),
                    (old.live, old.now),
                    "{at}"
                );
                let entries: BTreeMap<u64, usize> = new
                    .last_seen
                    .iter()
                    .map(|(l, &t)| (l.line().0, t as usize))
                    .collect();
                let old_entries: BTreeMap<u64, usize> = old
                    .table
                    .entries()
                    .into_iter()
                    .map(|(l, t)| (l, t as usize))
                    .collect();
                assert_eq!(entries, old_entries, "{at}");
                // The default grid, then three off its shape: one not
                // starting at 0, one running past `scap` (every bucket's
                // reach) to four times the cap, and a single point.
                let grids: [Vec<u64>; 3] = [
                    (1..=cap).step_by(1 + cap as usize / 50).collect(),
                    (0..=4 * cap + 5).step_by(1 + cap as usize / 10).collect(),
                    vec![cap / 2],
                ];
                let curves = [new.curve(), old.curve()];
                let customs = grids
                    .iter()
                    .map(|g| [new.curve_on_grid(g), old.curve_on_grid(g)]);
                for [a, b] in std::iter::once(curves).chain(customs) {
                    assert_eq!(a.len(), b.len(), "{at}");
                    for (p, q) in a.iter().zip(b.iter()) {
                        assert_eq!(p.size.to_bits(), q.size.to_bits(), "{at}");
                        assert_eq!(p.misses.to_bits(), q.misses.to_bits(), "{at}");
                    }
                }
                if rng.below(3) == 0 {
                    new.reset();
                    old.reset();
                }
            }
        }
        assert!(
            kept_all >= 12 && dropped >= 12,
            "{kept_all} compactions kept every line, {dropped} dropped some"
        );
    }

    #[test]
    fn warm_curves_equal_a_fresh_replay_bit_for_bit() {
        // Interleave records and curve queries. At each checkpoint the
        // warm monitor's curve must be bit-identical to a fresh replay's
        // first query, and repeated queries at the same state to each
        // other; after `reset` the curve reads the cleared counters.
        let stream = uniform_stream(3000, 50_000, 41);
        let grid: Vec<u64> = (0..=4096).step_by(13).collect();
        let mut warm = SampledMattson::new(4096, 4, 9);
        for (i, &l) in stream.iter().enumerate() {
            warm.record(l);
            if i % 9000 == 0 || i + 1 == stream.len() {
                let mut fresh = SampledMattson::new(4096, 4, 9);
                for &r in &stream[..=i] {
                    fresh.record(r);
                }
                let replayed = fresh.curve_on_grid(&grid);
                let first = warm.curve_on_grid(&grid);
                let repeat = warm.curve_on_grid(&grid);
                for ((u, a), b) in replayed.iter().zip(first.iter()).zip(repeat.iter()) {
                    assert!(
                        u.size.to_bits() == a.size.to_bits()
                            && u.misses.to_bits() == a.misses.to_bits(),
                        "warm curve diverged from a fresh replay at access {i}"
                    );
                    assert!(
                        a.misses.to_bits() == b.misses.to_bits(),
                        "repeat query diverged at access {i}"
                    );
                }
            }
        }
        // After a reset every bin and counter is 0: the curve reads 0.
        warm.reset();
        let after_reset = warm.curve_on_grid(&grid);
        assert_eq!(after_reset.value_at(2048.0), 0.0);
    }

    #[test]
    fn curve_includes_origin() {
        let mut m = SampledMattson::new(64, 1, 2);
        m.record(LineAddr(1));
        let c = m.curve();
        assert_eq!(c.min_size(), 0.0);
        assert_eq!(c.value_at(0.0), 1.0);
        assert_eq!(c.max_size(), 64.0, "default grid ends at cap");
    }

    #[test]
    #[should_panic(expected = "sampling ratio")]
    fn zero_ratio_rejected() {
        SampledMattson::new(64, 0, 1);
    }

    #[test]
    #[should_panic(expected = "capacity must be positive")]
    fn zero_capacity_rejected() {
        SampledMattson::new(0, 4, 1);
    }
}
