//! Utility monitors (UMONs), after Qureshi & Patt [36].
//!
//! A UMON is a small auxiliary tag array: `sets × ways` LRU stacks fed by a
//! pseudo-random sample of the access stream, with one hit counter per way
//! (stack depth). Because LRU obeys the stack property, way `k`'s counter
//! accumulates hits that a cache of `k/W` of the modelled capacity would
//! capture, so one array yields a whole `W`-point miss curve.
//!
//! The paper (§VI-C) pairs the conventional UMON (modelling the LLC size)
//! with a second monitor sampling 16× more sparsely, which by Theorem 4
//! models 4× the LLC capacity with 16 ways — needed to see past cliffs
//! beyond the LLC size (e.g. libquantum's at 32 MB). [`UmonPair`] mirrors
//! that arrangement.

use super::Monitor;
use crate::addr::LineAddr;
use crate::hasher::{FastMod32, H3Bank, SampleRatio};
use talus_core::MissCurve;

/// The tag array and counters of one utility monitor, fed lines that are
/// already hashed: the owner ([`Umon`], [`UmonPair`]) evaluates every H3
/// function of its arrays in one [`H3Bank`] walk.
#[derive(Debug, Clone)]
struct UmonArray {
    /// LRU stacks, MRU first: set `s` holds `lens[s]` tags from
    /// `tags[s * ways]` on.
    tags: Vec<u64>,
    lens: Vec<u32>,
    ways: usize,
    /// Hit counter per stack depth (0 = MRU).
    way_hits: Vec<u64>,
    misses: u64,
    sampled: u64,
    /// Each monitored line stands for `lines_per_entry` lines of the
    /// modelled cache; one in that many lines is sampled.
    lines_per_entry: u64,
    filter: SampleRatio,
    /// `hash % sets`, divide-free.
    set_index: FastMod32,
}

impl UmonArray {
    /// The H3 seeds of a monitor seeded with `seed`: its sampling-filter
    /// hash, then its set-index hash.
    fn lane_seeds(seed: u64) -> [u64; 2] {
        [seed ^ 0xA5A5, seed ^ 0x5A5A]
    }

    fn new(modeled_lines: u64, monitor_sets: usize, ways: usize) -> Self {
        assert!(modeled_lines > 0, "modelled capacity must be positive");
        assert!(
            monitor_sets > 0 && ways > 0,
            "monitor geometry must be positive"
        );
        let entries = (monitor_sets * ways) as u64;
        let ratio = modeled_lines.div_ceil(entries);
        UmonArray {
            tags: vec![0; monitor_sets * ways],
            lens: vec![0; monitor_sets],
            ways,
            way_hits: vec![0; ways],
            misses: 0,
            sampled: 0,
            lines_per_entry: ratio,
            filter: SampleRatio::new(ratio),
            set_index: FastMod32::new(
                u32::try_from(monitor_sets).expect("monitor set count must fit in 32 bits"),
            ),
        }
    }

    fn lines_per_way(&self) -> u64 {
        self.lines_per_entry * self.lens.len() as u64
    }

    fn modeled_lines(&self) -> u64 {
        self.lines_per_way() * self.ways as u64
    }

    fn curve_points(&self) -> Vec<(u64, f64)> {
        let total = self.sampled.max(1) as f64;
        let mut points = Vec::with_capacity(self.ways + 1);
        points.push((0, 1.0));
        let mut hits = 0u64;
        for k in 0..self.ways {
            hits += self.way_hits[k];
            points.push((
                (k as u64 + 1) * self.lines_per_way(),
                (self.sampled - hits) as f64 / total,
            ));
        }
        points
    }

    /// Observes `line`, whose sampling-filter and set-index hashes (the
    /// [`lane_seeds`](Self::lane_seeds) functions) are given.
    #[inline(always)]
    fn record_hashed(&mut self, line: LineAddr, filter_hash: u32, set_hash: u32) {
        // Most lines stop here: keep the test in the caller's loop.
        if self.filter.accepts(filter_hash) {
            self.record_sampled(line, set_hash);
        }
    }

    /// Observes a line the sampling filter let through.
    fn record_sampled(&mut self, line: LineAddr, set_hash: u32) {
        self.sampled += 1;
        let set = self.set_index.rem(set_hash) as usize;
        let len = &mut self.lens[set];
        let row = &mut self.tags[set * self.ways..][..self.ways];
        let tag = line.value();
        // Move-to-front: the tags above the hit (or, on a miss, every tag
        // but a full stack's last) slide down one and `tag` lands on top.
        let moved = match row[..*len as usize].iter().position(|&t| t == tag) {
            Some(depth) => {
                self.way_hits[depth] += 1;
                depth + 1
            }
            None => {
                self.misses += 1;
                *len = (*len + 1).min(self.ways as u32);
                *len as usize
            }
        };
        row[moved - 1] = tag;
        row[..moved].rotate_right(1);
    }

    fn reset(&mut self) {
        self.way_hits.fill(0);
        self.misses = 0;
        self.sampled = 0;
        // Tag stacks stay warm across intervals, like the hardware.
    }
}

/// A single utility monitor.
///
/// # Examples
///
/// ```
/// use talus_sim::monitor::{Monitor, Umon};
/// use talus_sim::LineAddr;
/// // Model a 4096-line cache with a 16-set × 64-way monitor.
/// let mut u = Umon::new(4096, 16, 64, 42);
/// for i in 0..200_000u64 {
///     u.record(LineAddr(i % 2048)); // working set = half the modelled size
/// }
/// let curve = u.curve();
/// assert!(curve.value_at(1024.0) > 0.3); // half the WS doesn't fit
/// assert!(curve.value_at(4096.0) < 0.1); // full WS fits
/// ```
#[derive(Debug, Clone)]
pub struct Umon {
    array: UmonArray,
    /// Lanes: sampling filter, set index.
    hashes: H3Bank,
}

impl Umon {
    /// Creates a UMON modelling a cache of `modeled_lines` using a
    /// `monitor_sets × ways` tag array. The sampling ratio is derived as
    /// `modeled_lines / (monitor_sets × ways)`, rounded up to at least 1.
    ///
    /// # Panics
    ///
    /// Panics if any argument is zero.
    pub fn new(modeled_lines: u64, monitor_sets: usize, ways: usize, seed: u64) -> Self {
        Umon {
            array: UmonArray::new(modeled_lines, monitor_sets, ways),
            hashes: H3Bank::new(&UmonArray::lane_seeds(seed)),
        }
    }

    /// The capacity (in lines) one full way of this monitor stands for.
    pub fn lines_per_way(&self) -> u64 {
        self.array.lines_per_way()
    }

    /// The total modelled capacity in lines.
    pub fn modeled_lines(&self) -> u64 {
        self.array.modeled_lines()
    }

    /// Raw curve points `(lines, misses-per-sampled-access)` at way
    /// granularity, starting at `(0, 1.0)`.
    pub fn curve_points(&self) -> Vec<(u64, f64)> {
        self.array.curve_points()
    }
}

impl Monitor for Umon {
    fn record(&mut self, line: LineAddr) {
        let mut h = [0u32; 2];
        self.hashes.hash_into(line.value(), &mut h);
        self.array.record_hashed(line, h[0], h[1]);
    }

    fn curve(&self) -> MissCurve {
        MissCurve::new(self.curve_points().into_iter().map(|(s, m)| (s as f64, m)))
            .expect("way-granularity points are sorted")
    }

    fn sampled_accesses(&self) -> u64 {
        self.array.sampled
    }

    fn reset(&mut self) {
        self.array.reset();
    }
}

/// The paper's two-monitor arrangement: a conventional UMON covering the
/// LLC size plus a 16×-sparser, 16-way monitor covering 4× the LLC size.
/// Both arrays' filter and set hashes come from one 4-lane [`H3Bank`]
/// walk per line.
#[derive(Debug, Clone)]
pub struct UmonPair {
    near: UmonArray,
    far: UmonArray,
    /// Lanes: near filter, near set index, far filter, far set index.
    hashes: H3Bank,
}

impl UmonPair {
    /// Creates the pair for an LLC of `llc_lines` using the paper's
    /// monitor dimensions (1K-entry, 64-way near monitor; 16-way far
    /// monitor at 16× sparser sampling ⇒ 4× coverage).
    pub fn new(llc_lines: u64, seed: u64) -> Self {
        Self::with_sets(llc_lines, 16, seed)
    }

    /// Creates the pair with `sets` monitor sets per array instead of the
    /// paper's 16. Scaled-down simulations use proportionally denser
    /// monitors so the per-interval sample counts (and therefore curve
    /// fidelity) match what the paper's full-scale monitors achieve.
    ///
    /// # Panics
    ///
    /// Panics if `sets` is zero.
    pub fn with_sets(llc_lines: u64, sets: usize, seed: u64) -> Self {
        let [near_filter, near_set] = UmonArray::lane_seeds(seed);
        let [far_filter, far_set] = UmonArray::lane_seeds(seed.wrapping_add(1));
        UmonPair {
            near: UmonArray::new(llc_lines, sets, 64),
            far: UmonArray::new(llc_lines * 4, sets, 16),
            hashes: H3Bank::new(&[near_filter, near_set, far_filter, far_set]),
        }
    }
}

impl Monitor for UmonPair {
    fn record(&mut self, line: LineAddr) {
        let mut h = [0u32; 4];
        self.hashes.hash_into(line.value(), &mut h);
        self.near.record_hashed(line, h[0], h[1]);
        self.far.record_hashed(line, h[2], h[3]);
    }

    fn curve(&self) -> MissCurve {
        // Merge: the near monitor is denser below the LLC size; the far
        // monitor extends beyond it.
        let llc = self.near.modeled_lines();
        let mut points = self.near.curve_points();
        for (s, m) in self.far.curve_points() {
            if s > llc {
                points.push((s, m));
            }
        }
        points.sort_by_key(|&(s, _)| s);
        points.dedup_by_key(|&mut (s, _)| s);
        MissCurve::new(points.into_iter().map(|(s, m)| (s as f64, m)))
            .expect("merged points are sorted and deduped")
    }

    fn sampled_accesses(&self) -> u64 {
        self.near.sampled
    }

    fn reset(&mut self) {
        self.near.reset();
        self.far.reset();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::monitor::test_support::{scan_stream, uniform_stream};

    /// The `Vec`-per-set LRU stacks the flat tag array replaced, kept as
    /// its oracle: `remove` + `insert(0, …)` for move-to-front.
    struct StackOracle {
        stacks: Vec<Vec<u64>>,
        ways: usize,
        way_hits: Vec<u64>,
        misses: u64,
        sampled: u64,
    }

    impl StackOracle {
        fn record_sampled(&mut self, set: usize, tag: u64) {
            self.sampled += 1;
            let stack = &mut self.stacks[set];
            match stack.iter().position(|&t| t == tag) {
                Some(depth) => {
                    self.way_hits[depth] += 1;
                    stack.remove(depth);
                    stack.insert(0, tag);
                }
                None => {
                    self.misses += 1;
                    stack.insert(0, tag);
                    stack.truncate(self.ways);
                }
            }
        }
    }

    /// Feeds `stream` to a `sets × ways` array sampling one line in
    /// `ratio` and to the oracle, comparing counters and every stack.
    fn assert_matches_oracle(sets: usize, ways: usize, ratio: u64, stream: &[LineAddr]) {
        let mut array = UmonArray::new((sets * ways) as u64 * ratio, sets, ways);
        let mut oracle = StackOracle {
            stacks: vec![Vec::new(); sets],
            ways,
            way_hits: vec![0; ways],
            misses: 0,
            sampled: 0,
        };
        let hashes = H3Bank::new(&UmonArray::lane_seeds(sets as u64 + ratio));
        for &line in stream {
            let mut h = [0u32; 2];
            hashes.hash_into(line.value(), &mut h);
            array.record_hashed(line, h[0], h[1]);
            if array.filter.accepts(h[0]) {
                oracle.record_sampled(array.set_index.rem(h[1]) as usize, line.value());
            }
        }
        assert_eq!(array.sampled, oracle.sampled);
        assert_eq!(array.misses, oracle.misses);
        assert_eq!(array.way_hits, oracle.way_hits);
        for (set, stack) in oracle.stacks.iter().enumerate() {
            let len = array.lens[set] as usize;
            assert_eq!(&array.tags[set * ways..][..len], &stack[..], "set {set}");
        }
    }

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig::with_cases(6))]

        /// Uniform, scan and mixed streams through the pair's two shapes
        /// (64-way near, 16-way far) at 16, 64 and 128 sets, dense (every
        /// line sampled, the 8-app mix's monitors) and 1-in-4: the flat
        /// stacks count and order exactly as the `Vec` stacks did.
        #[test]
        fn flat_stacks_equal_vec_stacks(
            seed in proptest::prelude::any::<u64>(),
            // Working set as a share of the array, in eighths: stacks that
            // never fill, that just fill, and that overflow.
            eighths in 1u64..=24,
        ) {
            for sets in [16usize, 64, 128] {
                for (ways, ratio) in [(64usize, 1u64), (16, 1), (64, 4)] {
                    let lines = ((sets * ways) as u64 * ratio * eighths / 8).max(1);
                    let len = 6 * sets * ways;
                    let uniform = uniform_stream(lines, len, seed);
                    let scan = scan_stream(lines, len);
                    let mixed: Vec<LineAddr> = uniform
                        .iter()
                        .zip(&scan)
                        .enumerate()
                        .map(|(i, (&u, &s))| if i % 3 == 0 { LineAddr(s.value() | 1 << 40) } else { u })
                        .collect();
                    for stream in [&uniform, &scan, &mixed] {
                        assert_matches_oracle(sets, ways, ratio, stream);
                    }
                }
            }
        }
    }

    #[test]
    fn umon_ratio_covers_modeled_size() {
        let u = Umon::new(16384, 16, 64, 1);
        assert!(u.modeled_lines() >= 16384);
        // 16*64 = 1024 entries → ratio 16.
        assert_eq!(u.lines_per_way(), 16 * 16);
    }

    #[test]
    fn umon_curve_tracks_working_set_knee() {
        // Working set of 1024 lines, monitor models 4096: the curve should
        // fall to ~0 by 1024 lines and be high below ~512.
        let mut u = Umon::new(4096, 32, 64, 7);
        for &l in &uniform_stream(1024, 400_000, 3) {
            u.record(l);
        }
        let c = u.curve();
        assert!(c.value_at(256.0) > 0.5, "at 256: {}", c.value_at(256.0));
        assert!(c.value_at(2048.0) < 0.1, "at 2048: {}", c.value_at(2048.0));
    }

    #[test]
    fn umon_matches_mattson_within_sampling_error() {
        use crate::monitor::MattsonMonitor;
        let stream = uniform_stream(2000, 600_000, 5);
        let mut u = Umon::new(4096, 64, 64, 9);
        let mut m = MattsonMonitor::new(4096);
        for &l in &stream {
            u.record(l);
            m.record(l);
        }
        let cu = u.curve();
        let cm = m.curve_on_grid(&(0..=64).map(|i| i * 64).collect::<Vec<_>>());
        for &s in &[512u64, 1024, 2048, 3072] {
            let a = cu.value_at(s as f64);
            let b = cm.value_at(s as f64);
            assert!((a - b).abs() < 0.08, "size {s}: umon {a} vs mattson {b}");
        }
    }

    #[test]
    fn umon_scan_cliff_visible() {
        // Scan over 2048 lines: near-1 miss rate below 2048, near-0 above.
        let mut u = Umon::new(4096, 64, 64, 11);
        for &l in &scan_stream(2048, 600_000) {
            u.record(l);
        }
        let c = u.curve();
        assert!(c.value_at(1024.0) > 0.9);
        assert!(c.value_at(3072.0) < 0.1);
    }

    #[test]
    fn umon_reset_keeps_tags_warm() {
        let mut u = Umon::new(1024, 16, 64, 3);
        for &l in &scan_stream(64, 10_000) {
            u.record(l);
        }
        u.reset();
        assert_eq!(u.sampled_accesses(), 0);
        for &l in &scan_stream(64, 5_000) {
            u.record(l);
        }
        // Still seeing the small working set as fitting.
        assert!(u.curve().value_at(1024.0) < 0.1);
    }

    #[test]
    fn pair_extends_coverage_past_llc() {
        let p = UmonPair::new(16384, 1);
        assert!(p.curve().max_size() >= 4.0 * 16384.0);
    }

    #[test]
    fn pair_sees_cliff_beyond_llc_size() {
        // LLC is 4096 lines; the scan is over 8192 — the cliff is invisible
        // to the near monitor but the far one captures it (the libquantum
        // scenario at monitor scale).
        let mut p = UmonPair::new(4096, 13);
        for &l in &scan_stream(8192, 800_000) {
            p.record(l);
        }
        let c = p.curve();
        assert!(c.max_size() >= 16384.0);
        assert!(
            c.value_at(4096.0) > 0.9,
            "below the cliff: {}",
            c.value_at(4096.0)
        );
        assert!(
            c.value_at(16000.0) < 0.15,
            "past the cliff: {}",
            c.value_at(16000.0)
        );
    }

    #[test]
    fn pair_curve_is_sorted_and_starts_at_zero() {
        let mut p = UmonPair::new(1024, 3);
        for &l in &uniform_stream(512, 50_000, 1) {
            p.record(l);
        }
        let c = p.curve();
        assert_eq!(c.min_size(), 0.0);
        assert_eq!(c.value_at(0.0), 1.0);
    }
}
