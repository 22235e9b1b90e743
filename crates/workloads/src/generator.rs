//! Access-stream generators.
//!
//! The paper's workloads are SPEC CPU2006 binaries run under zsim; this
//! crate replaces them with composable synthetic generators whose LRU miss
//! curves have the same qualitative shapes (plateaus, cliffs, convex
//! declines — see DESIGN.md for the substitution argument). The primitives:
//!
//! - [`Scan`]: cyclic sequential sweeps — the canonical cliff-maker
//!   (libquantum's 32 MB array);
//! - [`UniformRandom`]: flat random reuse over a working set — a sharp
//!   knee once the set fits;
//! - [`Zipfian`]: skewed reuse — smooth convex miss curves;
//! - [`Mixture`]: probabilistic blends of the above — plateaus *between*
//!   knees (the §III example);
//! - [`Phased`]: time-varying behaviour for stressing Assumption 1.

use crate::zipf::ZipfTable;
use rand::rngs::SmallRng;
use rand::{Rng, RngCore, SeedableRng};
use std::sync::Arc;
use talus_sim::LineAddr;

/// An infinite access stream at cache-line granularity.
pub trait AccessGenerator: std::fmt::Debug {
    /// Produces the next accessed line.
    fn next_line(&mut self) -> LineAddr;

    /// Produces the next `out.len()` accessed lines: exactly the lines
    /// that many [`next_line`](Self::next_line) calls would return, in
    /// order, and with the same subsequent stream — so `fill` and
    /// `next_line` can be interleaved freely on one generator. (The
    /// *state* may differ: composites hold lines generated ahead.)
    ///
    /// The default is that loop, monomorphic per generator; block
    /// consumers (the experiment sweeps) call this so a boxed generator
    /// costs one virtual call per block instead of one per line, and
    /// composite generators ([`Mixture`], [`Phased`]) hand whole runs to
    /// their components.
    fn fill(&mut self, out: &mut [LineAddr]) {
        for slot in out {
            *slot = self.next_line();
        }
    }

    /// Total distinct lines this generator can touch (its footprint).
    fn footprint_lines(&self) -> u64;
}

impl AccessGenerator for Box<dyn AccessGenerator> {
    fn next_line(&mut self) -> LineAddr {
        (**self).next_line()
    }

    fn fill(&mut self, out: &mut [LineAddr]) {
        (**self).fill(out)
    }

    fn footprint_lines(&self) -> u64 {
        (**self).footprint_lines()
    }
}

/// A cyclic sequential scan over `lines` lines starting at `base`.
///
/// Under LRU, a scan of `L` lines hits 100% in caches of at least `L`
/// lines and 0% in anything smaller: a pure cliff.
#[derive(Debug, Clone)]
pub struct Scan {
    base: u64,
    lines: u64,
    pos: u64,
}

impl Scan {
    /// Creates a scan of `lines` lines with addresses starting at `base`.
    ///
    /// # Panics
    ///
    /// Panics if `lines` is zero.
    pub fn new(base: u64, lines: u64) -> Self {
        assert!(lines > 0, "scan footprint must be positive");
        Scan {
            base,
            lines,
            pos: 0,
        }
    }
}

impl Scan {
    /// `(pos + 1) % lines` by compare: `pos < lines`, so the successor
    /// either is in range or is exactly `lines`.
    #[inline]
    fn step(pos: u64, lines: u64) -> u64 {
        if pos + 1 == lines {
            0
        } else {
            pos + 1
        }
    }
}

impl AccessGenerator for Scan {
    fn next_line(&mut self) -> LineAddr {
        let l = LineAddr(self.base + self.pos);
        self.pos = Self::step(self.pos, self.lines);
        l
    }

    fn fill(&mut self, out: &mut [LineAddr]) {
        let (base, lines) = (self.base, self.lines);
        let mut pos = self.pos;
        for slot in out {
            *slot = LineAddr(base + pos);
            pos = Self::step(pos, lines);
        }
        self.pos = pos;
    }

    fn footprint_lines(&self) -> u64 {
        self.lines
    }
}

/// Uniform random accesses over a working set of `lines` lines.
#[derive(Debug, Clone)]
pub struct UniformRandom {
    base: u64,
    lines: u64,
    rng: SmallRng,
}

impl UniformRandom {
    /// Creates a uniform generator over `lines` lines starting at `base`.
    ///
    /// # Panics
    ///
    /// Panics if `lines` is zero.
    pub fn new(base: u64, lines: u64, seed: u64) -> Self {
        assert!(lines > 0, "working set must be positive");
        UniformRandom {
            base,
            lines,
            rng: SmallRng::seed_from_u64(seed),
        }
    }
}

impl AccessGenerator for UniformRandom {
    fn next_line(&mut self) -> LineAddr {
        LineAddr(self.base + self.rng.gen_range(0..self.lines))
    }

    fn footprint_lines(&self) -> u64 {
        self.lines
    }
}

/// Zipf-distributed accesses over `lines` lines (rank 1 hottest), using
/// rejection-inversion sampling (Hörmann & Derflinger), O(1) per sample.
/// The distribution's constants and rank table live in a [`ZipfTable`];
/// ranks are scrambled over the footprint so hot lines spread across
/// cache sets.
#[derive(Debug, Clone)]
pub struct Zipfian {
    base: u64,
    rng: SmallRng,
    table: Arc<ZipfTable>,
}

impl Zipfian {
    /// Creates a Zipf(`exponent`) generator over `lines` lines.
    ///
    /// # Panics
    ///
    /// Panics if `lines` is zero or `exponent` is not positive and finite.
    pub fn new(base: u64, lines: u64, exponent: f64, seed: u64) -> Self {
        Self::with_table(base, Arc::new(ZipfTable::new(lines, exponent)), seed)
    }

    /// Creates a generator over `table`'s distribution, sharing the table:
    /// the same stream as [`new`](Self::new) with `table`'s lines and
    /// exponent, without building (or holding) another copy of it.
    pub fn with_table(base: u64, table: Arc<ZipfTable>, seed: u64) -> Self {
        Zipfian {
            base,
            rng: SmallRng::seed_from_u64(seed),
            table,
        }
    }
}

impl AccessGenerator for Zipfian {
    fn next_line(&mut self) -> LineAddr {
        loop {
            // The 53 bits `Rng::gen::<f64>()` builds its uniform from.
            let draw = self.rng.next_u64() >> 11;
            if let Some(offset) = self.table.offset_of(draw) {
                return LineAddr(self.base + offset);
            }
        }
    }

    fn footprint_lines(&self) -> u64 {
        self.table.lines()
    }
}

/// A cyclic scan with a non-unit stride: touches `base + (i·stride mod
/// lines)` — the access pattern of column-major sweeps over row-major
/// arrays. Under LRU it has exactly [`Scan`]'s cliff (every line is
/// touched once per period), but stream prefetchers keyed on unit
/// strides, like [`StreamPrefetcher`](crate::StreamPrefetcher), get no
/// coverage — useful for separating "cliff removed by Talus" from
/// "cliff hidden by the prefetcher".
#[derive(Debug, Clone)]
pub struct StridedScan {
    base: u64,
    lines: u64,
    stride: u64,
    pos: u64,
}

impl StridedScan {
    /// Creates a strided scan. For full coverage `stride` should be
    /// coprime with `lines`; the constructor nudges it up by one when it
    /// is not (and documents so), keeping the footprint exact.
    ///
    /// # Panics
    ///
    /// Panics if `lines` or `stride` is zero.
    pub fn new(base: u64, lines: u64, stride: u64) -> Self {
        assert!(lines > 0, "scan footprint must be positive");
        assert!(stride > 0, "stride must be positive");
        let mut stride = stride % lines.max(2);
        if stride == 0 {
            stride = 1;
        }
        while gcd(stride, lines) != 1 {
            stride += 1;
        }
        StridedScan {
            base,
            lines,
            stride,
            pos: 0,
        }
    }

    /// The (possibly adjusted) stride actually in use.
    pub fn stride(&self) -> u64 {
        self.stride
    }
}

fn gcd(a: u64, b: u64) -> u64 {
    if b == 0 {
        a
    } else {
        gcd(b, a % b)
    }
}

impl StridedScan {
    /// `(pos + stride) % lines` by compare: `pos < lines` and the
    /// constructor leaves `stride <= lines`, so one subtraction wraps.
    #[inline]
    fn step(pos: u64, stride: u64, lines: u64) -> u64 {
        let next = pos + stride;
        if next >= lines {
            next - lines
        } else {
            next
        }
    }
}

impl AccessGenerator for StridedScan {
    fn next_line(&mut self) -> LineAddr {
        let l = LineAddr(self.base + self.pos);
        self.pos = Self::step(self.pos, self.stride, self.lines);
        l
    }

    fn fill(&mut self, out: &mut [LineAddr]) {
        let (base, lines, stride) = (self.base, self.lines, self.stride);
        let mut pos = self.pos;
        for slot in out {
            *slot = LineAddr(base + pos);
            pos = Self::step(pos, stride, lines);
        }
        self.pos = pos;
    }

    fn footprint_lines(&self) -> u64 {
        self.lines
    }
}

/// A pointer chase: walks a pseudo-random single-cycle permutation of the
/// working set, so every line is touched exactly once per period (the
/// same uniform reuse distance — and therefore the same LRU cliff — as a
/// scan) but with no spatial locality whatsoever. The worst case for
/// stream prefetchers and the classic latency-bound workload (linked
/// lists, graph traversals).
#[derive(Debug, Clone)]
pub struct PointerChase {
    base: u64,
    lines: u64,
    multiplier: u64,
    pos: u64,
}

impl PointerChase {
    /// Creates a pointer chase over `lines` lines starting at `base`.
    ///
    /// The permutation is `x → (a·x + 1) mod lines` with `a` chosen
    /// coprime-ish from `seed`, which is a full cycle for any `lines`
    /// when `a` satisfies the Hull–Dobell conditions; we fall back to
    /// `a = 1` (a plain scan) when the conditions cannot be met.
    ///
    /// # Panics
    ///
    /// Panics if `lines` is zero.
    pub fn new(base: u64, lines: u64, seed: u64) -> Self {
        assert!(lines > 0, "working set must be positive");
        // Hull–Dobell: a ≡ 1 mod p for every prime p | lines, and
        // a ≡ 1 mod 4 if 4 | lines. Take a = 1 + k·rad(lines) (times 2
        // if needed), with k from the seed.
        let mut rad = radical(lines);
        if lines % 4 == 0 && rad % 4 != 0 {
            rad *= 2;
        }
        let k = 1 + (seed % 61);
        let multiplier = (1 + k * rad) % lines.max(1);
        let multiplier = if multiplier == 0 { 1 } else { multiplier };
        PointerChase {
            base,
            lines,
            multiplier,
            pos: 0,
        }
    }
}

/// The radical of `n`: the product of its distinct prime factors.
fn radical(mut n: u64) -> u64 {
    let mut rad = 1;
    let mut p = 2;
    while p * p <= n {
        if n % p == 0 {
            rad *= p;
            while n % p == 0 {
                n /= p;
            }
        }
        p += 1;
    }
    if n > 1 {
        rad *= n;
    }
    rad
}

impl PointerChase {
    /// `a·x + 1` can exceed `lines` many times over, so (unlike the
    /// scans) the modulo stays.
    #[inline]
    fn step(pos: u64, multiplier: u64, lines: u64) -> u64 {
        (multiplier.wrapping_mul(pos) + 1) % lines
    }
}

impl AccessGenerator for PointerChase {
    fn next_line(&mut self) -> LineAddr {
        let l = LineAddr(self.base + self.pos);
        self.pos = Self::step(self.pos, self.multiplier, self.lines);
        l
    }

    fn fill(&mut self, out: &mut [LineAddr]) {
        let (base, lines, multiplier) = (self.base, self.lines, self.multiplier);
        let mut pos = self.pos;
        for slot in out {
            *slot = LineAddr(base + pos);
            pos = Self::step(pos, multiplier, lines);
        }
        self.pos = pos;
    }

    fn footprint_lines(&self) -> u64 {
        self.lines
    }
}

/// Lines a [`Mixture`] generates ahead for `next_line` to pop.
const MIXTURE_BLOCK: usize = 64;

/// A weighted blend of generators: each access picks a component with
/// probability proportional to its weight.
///
/// Lines are generated a block at a time by one kernel (`generate`):
/// `fill` runs it on the caller's buffer, `next_line` pops from a 64-line
/// block it refills, and `fill` drains that block first, so the two
/// interleave as one stream.
#[derive(Debug)]
pub struct Mixture {
    components: Vec<(f64, Box<dyn AccessGenerator>)>,
    cumulative: Vec<f64>,
    rng: SmallRng,
    /// Generated-ahead lines, `block[next..]` still to be delivered.
    /// Empty until the first `next_line`, like the kernel's scratch below:
    /// a mixture never asked for a line allocates nothing.
    block: Vec<LineAddr>,
    next: usize,
    /// Scratch of `generate`: each component's share of the run laid end
    /// to end, and a read cursor into each share.
    staged: Vec<LineAddr>,
    cursors: Vec<usize>,
}

impl Mixture {
    /// Creates a mixture from `(weight, generator)` pairs.
    ///
    /// # Panics
    ///
    /// Panics if `components` is empty or any weight is non-positive.
    pub fn new(components: Vec<(f64, Box<dyn AccessGenerator>)>, seed: u64) -> Self {
        assert!(
            !components.is_empty(),
            "mixture needs at least one component"
        );
        let total: f64 = components.iter().map(|(w, _)| *w).sum();
        assert!(
            components.iter().all(|(w, _)| *w > 0.0) && total.is_finite(),
            "weights must be positive and finite"
        );
        let mut acc = 0.0;
        let cumulative = components
            .iter()
            .map(|(w, _)| {
                acc += w / total;
                acc
            })
            .collect();
        Mixture {
            components,
            cumulative,
            rng: SmallRng::seed_from_u64(seed),
            block: Vec::new(),
            next: 0,
            staged: Vec::new(),
            cursors: Vec::new(),
        }
    }

    /// Draws the component the next access comes from.
    #[inline]
    fn choose(&mut self) -> usize {
        let u = self.rng.gen::<f64>();
        self.cumulative
            .partition_point(|&c| c < u)
            .min(self.components.len() - 1)
    }

    /// Generates the stream's next `out.len()` lines: draws the run's
    /// choices from the mixture's own generator, lets each component
    /// `fill` its whole share in one call, then interleaves the shares by
    /// the choice sequence. Every component owns its random state, so the
    /// order components are *asked* in does not matter: component `c`
    /// still produces its k-th line for the k-th access that chose it.
    fn generate(&mut self, out: &mut [LineAddr]) {
        if out.is_empty() {
            return;
        }
        let mut cursors = std::mem::take(&mut self.cursors);
        cursors.clear();
        cursors.resize(self.components.len(), 0);
        // Each slot holds its access's choice until the line replaces it.
        for slot in out.iter_mut() {
            let idx = self.choose();
            cursors[idx] += 1; // share sizes, for now
            *slot = LineAddr(idx as u64);
        }
        self.staged.resize(out.len(), LineAddr(0));
        let mut start = 0;
        for ((_, component), cursor) in self.components.iter_mut().zip(&mut cursors) {
            let share = *cursor;
            component.fill(&mut self.staged[start..start + share]);
            *cursor = start;
            start += share;
        }
        for slot in out {
            let cursor = &mut cursors[slot.value() as usize];
            *slot = self.staged[*cursor];
            *cursor += 1;
        }
        self.cursors = cursors;
    }
}

impl AccessGenerator for Mixture {
    fn next_line(&mut self) -> LineAddr {
        if self.next == self.block.len() {
            let mut block = std::mem::take(&mut self.block);
            block.resize(MIXTURE_BLOCK, LineAddr(0));
            self.generate(&mut block);
            self.block = block;
            self.next = 0;
        }
        let line = self.block[self.next];
        self.next += 1;
        line
    }

    fn fill(&mut self, out: &mut [LineAddr]) {
        let ahead = &self.block[self.next..];
        let (drained, fresh) = out.split_at_mut(ahead.len().min(out.len()));
        drained.copy_from_slice(&ahead[..drained.len()]);
        self.next += drained.len();
        self.generate(fresh);
    }

    fn footprint_lines(&self) -> u64 {
        self.components
            .iter()
            .map(|(_, g)| g.footprint_lines())
            .sum()
    }
}

/// Switches between generators on a fixed access schedule, looping forever.
/// Used to stress Assumption 1 (miss-curve stability across intervals).
#[derive(Debug)]
pub struct Phased {
    phases: Vec<(u64, Box<dyn AccessGenerator>)>,
    current: usize,
    remaining: u64,
}

impl Phased {
    /// Creates a phased generator from `(accesses, generator)` pairs.
    ///
    /// # Panics
    ///
    /// Panics if `phases` is empty or any phase length is zero.
    pub fn new(phases: Vec<(u64, Box<dyn AccessGenerator>)>) -> Self {
        assert!(!phases.is_empty(), "need at least one phase");
        assert!(
            phases.iter().all(|(n, _)| *n > 0),
            "phase lengths must be positive"
        );
        let remaining = phases[0].0;
        Phased {
            phases,
            current: 0,
            remaining,
        }
    }
}

impl AccessGenerator for Phased {
    fn next_line(&mut self) -> LineAddr {
        if self.remaining == 0 {
            self.current = (self.current + 1) % self.phases.len();
            self.remaining = self.phases[self.current].0;
        }
        self.remaining -= 1;
        self.phases[self.current].1.next_line()
    }

    /// Splits the block at phase boundaries; each phase fills its run.
    fn fill(&mut self, out: &mut [LineAddr]) {
        let mut rest = out;
        while !rest.is_empty() {
            if self.remaining == 0 {
                self.current = (self.current + 1) % self.phases.len();
                self.remaining = self.phases[self.current].0;
            }
            let take = self.remaining.min(rest.len() as u64) as usize;
            let (run, tail) = rest.split_at_mut(take);
            self.phases[self.current].1.fill(run);
            self.remaining -= take as u64;
            rest = tail;
        }
    }

    fn footprint_lines(&self) -> u64 {
        self.phases.iter().map(|(_, g)| g.footprint_lines()).sum()
    }
}

/// Collects `n` accesses from a generator into a trace.
pub fn collect_trace<G: AccessGenerator>(gen: &mut G, n: usize) -> Vec<LineAddr> {
    let mut trace = vec![LineAddr(0); n];
    gen.fill(&mut trace);
    trace
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashSet;

    #[test]
    fn scan_cycles_in_order() {
        let mut s = Scan::new(100, 4);
        let got: Vec<u64> = (0..6).map(|_| s.next_line().value()).collect();
        assert_eq!(got, vec![100, 101, 102, 103, 100, 101]);
        assert_eq!(s.footprint_lines(), 4);
    }

    #[test]
    fn uniform_stays_in_range_and_covers() {
        let mut g = UniformRandom::new(1000, 50, 7);
        let mut seen = HashSet::new();
        for _ in 0..5000 {
            let l = g.next_line().value();
            assert!((1000..1050).contains(&l));
            seen.insert(l);
        }
        assert_eq!(seen.len(), 50, "should cover the whole working set");
    }

    #[test]
    fn zipf_is_skewed() {
        // With exponent 1.0 over 1000 lines, the most common line should
        // far exceed the median line's frequency.
        let mut g = Zipfian::new(0, 1000, 1.0, 3);
        let mut counts = std::collections::HashMap::new();
        for _ in 0..100_000 {
            *counts.entry(g.next_line().value()).or_insert(0u32) += 1;
        }
        let mut freqs: Vec<u32> = counts.values().copied().collect();
        freqs.sort_unstable_by(|a, b| b.cmp(a));
        assert!(
            freqs[0] > 20 * freqs[freqs.len() / 2],
            "top {} median {}",
            freqs[0],
            freqs[freqs.len() / 2]
        );
    }

    /// The cycle-walked rank scramble, for tests that need to locate a
    /// specific rank's line.
    fn scramble(rank: u64, lines: u64) -> u64 {
        let mask = lines.next_power_of_two() - 1;
        let mut x = rank;
        loop {
            x = x.wrapping_mul(0x9E37_79B9_7F4A_7C15) & mask;
            if x < lines {
                return x;
            }
        }
    }

    #[test]
    fn zipf_rank_one_frequency_matches_theory() {
        // P(rank 1) with q=1, N=100 is 1/H_100 ≈ 0.1928.
        let mut g = Zipfian::new(0, 100, 1.0, 11);
        let hot = scramble(0, 100);
        let mut hot_count = 0u32;
        let n = 200_000;
        for _ in 0..n {
            if g.next_line().value() == hot {
                hot_count += 1;
            }
        }
        let p = hot_count as f64 / n as f64;
        assert!((p - 0.1928).abs() < 0.01, "P(rank1) = {p}");
    }

    #[test]
    fn zipf_stays_in_range() {
        let mut g = Zipfian::new(500, 64, 0.8, 5);
        for _ in 0..10_000 {
            let v = g.next_line().value();
            assert!((500..564).contains(&v));
        }
    }

    #[test]
    fn zipf_scramble_is_a_bijection_for_any_footprint() {
        // The cycle-walked scramble must permute 0..lines — including
        // non-power-of-two footprints, where a plain `mul % lines` merges
        // ranks and deforms the delivered distribution.
        for lines in [1u64, 2, 3, 48, 100, 121, 1000, 1024, 1536] {
            let mut seen = vec![false; lines as usize];
            for r in 0..lines {
                let s = scramble(r, lines);
                assert!(s < lines, "lines={lines}: image {s} out of range");
                assert!(!seen[s as usize], "lines={lines}: rank {r} collides");
                seen[s as usize] = true;
            }
        }
    }

    #[test]
    fn mixture_respects_weights() {
        // 25% scan over lines 0..10, 75% random over 1000..1100.
        let m = Mixture::new(
            vec![
                (1.0, Box::new(Scan::new(0, 10)) as Box<dyn AccessGenerator>),
                (3.0, Box::new(UniformRandom::new(1000, 100, 1))),
            ],
            9,
        );
        let mut m = m;
        let mut low = 0u32;
        let n = 40_000;
        for _ in 0..n {
            if m.next_line().value() < 100 {
                low += 1;
            }
        }
        let frac = low as f64 / n as f64;
        assert!((frac - 0.25).abs() < 0.02, "scan fraction {frac}");
        assert_eq!(m.footprint_lines(), 110);
    }

    #[test]
    #[should_panic(expected = "weights must be positive")]
    fn mixture_rejects_zero_weight() {
        Mixture::new(
            vec![(0.0, Box::new(Scan::new(0, 1)) as Box<dyn AccessGenerator>)],
            1,
        );
    }

    #[test]
    fn phased_switches_and_loops() {
        let mut p = Phased::new(vec![
            (2, Box::new(Scan::new(0, 10)) as Box<dyn AccessGenerator>),
            (1, Box::new(Scan::new(100, 10))),
        ]);
        let got: Vec<u64> = (0..6).map(|_| p.next_line().value()).collect();
        // Phase A: 0,1; phase B: 100; phase A: 2,3; phase B: 101.
        assert_eq!(got, vec![0, 1, 100, 2, 3, 101]);
    }

    #[test]
    fn generators_are_deterministic_per_seed() {
        let mut a = Zipfian::new(0, 1000, 0.9, 42);
        let mut b = Zipfian::new(0, 1000, 0.9, 42);
        for _ in 0..100 {
            assert_eq!(a.next_line(), b.next_line());
        }
    }

    #[test]
    fn collect_trace_length() {
        let mut s = Scan::new(0, 3);
        let t = collect_trace(&mut s, 7);
        assert_eq!(t.len(), 7);
    }

    /// A nested composite exercising every generator: a phased stream
    /// whose phases are mixtures (one nested inside another) of all the
    /// primitives. Phase lengths are coprime with any block size used
    /// below, so block edges straddle phase boundaries.
    fn zoo(seed: u64) -> Phased {
        let inner = Mixture::new(
            vec![
                (
                    1.0,
                    Box::new(Zipfian::new(1 << 30, 777, 0.9, seed ^ 1)) as Box<dyn AccessGenerator>,
                ),
                (2.0, Box::new(PointerChase::new(1 << 31, 100, seed))),
            ],
            seed ^ 2,
        );
        let outer = Mixture::new(
            vec![
                (
                    3.0,
                    Box::new(Scan::new(3 << 44, 37)) as Box<dyn AccessGenerator>,
                ),
                (2.0, Box::new(UniformRandom::new(1 << 20, 500, seed ^ 3))),
                (1.0, Box::new(StridedScan::new(1 << 21, 12, 5))),
                (2.0, Box::new(inner)),
            ],
            seed ^ 4,
        );
        Phased::new(vec![
            (53, Box::new(outer) as Box<dyn AccessGenerator>),
            (7, Box::new(Scan::new(9 << 40, 5))),
            (101, Box::new(Zipfian::new(0, 64, 1.0, seed ^ 5))),
        ])
    }

    /// Every generator, boxed, built twice from the same seeds.
    fn one_of_each(seed: u64) -> Vec<Box<dyn AccessGenerator>> {
        vec![
            Box::new(Scan::new(10, 7)),
            Box::new(Scan::new(0, 1)),
            Box::new(UniformRandom::new(100, 33, seed)),
            Box::new(Zipfian::new(0, 1000, 0.8, seed)),
            Box::new(StridedScan::new(5, 12, 4)),
            Box::new(StridedScan::new(5, 1, 3)),
            Box::new(PointerChase::new(0, 100, seed)),
            Box::new(PointerChase::new(0, 1, seed)),
            Box::new(zoo(seed)),
        ]
    }

    #[test]
    fn fill_equals_repeated_next_line_for_every_generator() {
        for block in [1usize, 2, 13, 64, 257] {
            for (mut by_line, mut by_block) in one_of_each(11).into_iter().zip(one_of_each(11)) {
                let want: Vec<LineAddr> = (0..3 * block + 5).map(|_| by_line.next_line()).collect();
                let mut got = vec![LineAddr(0); want.len()];
                for chunk in got.chunks_mut(block) {
                    by_block.fill(chunk);
                }
                assert_eq!(got, want, "block {block}: {by_block:?}");
            }
        }
    }

    #[test]
    fn fill_and_next_line_interleave_on_one_generator() {
        // Lines a composite generated ahead for `next_line` are what
        // `fill` delivers first: any mix of the two on one generator
        // yields the one stream.
        let mut reference = zoo(5);
        let want: Vec<LineAddr> = (0..2000).map(|_| reference.next_line()).collect();
        let mut gen = zoo(5);
        let mut got = Vec::new();
        let mut size = 0;
        while got.len() < want.len() {
            size = (size * 5 + 3) % 97; // 3, 18, 93, 80, … including 0
            got.push(gen.next_line());
            let mut block = vec![LineAddr(0); size];
            gen.fill(&mut block);
            got.extend(block);
        }
        assert_eq!(got[..want.len()], want[..]);
    }

    /// Heap bytes of a mixture's generated-ahead block and kernel scratch.
    fn scratch_bytes(m: &Mixture) -> usize {
        (m.block.capacity() + m.staged.capacity()) * std::mem::size_of::<LineAddr>()
            + m.cursors.capacity() * std::mem::size_of::<usize>()
    }

    #[test]
    fn mixture_scratch_is_lazy_and_small() {
        let scan = || Box::new(Scan::new(0, 10)) as Box<dyn AccessGenerator>;
        let mut visited = Mixture::new(vec![(1.0, scan()), (2.0, scan())], 1);
        let unvisited = Mixture::new(vec![(1.0, scan())], 2);
        assert_eq!(scratch_bytes(&visited), 0, "nothing before the first line");
        for _ in 0..1000 {
            visited.next_line();
        }
        let bytes = scratch_bytes(&visited);
        assert!(
            (1..=2048).contains(&bytes),
            "{bytes} B of scratch behind next_line"
        );
        // A phase that is never reached (here: never driven) stays free.
        assert_eq!(scratch_bytes(&unvisited), 0);
    }

    #[test]
    fn strided_scan_covers_whole_footprint_each_period() {
        let mut g = StridedScan::new(100, 12, 5);
        let mut seen = HashSet::new();
        for _ in 0..12 {
            seen.insert(g.next_line().value());
        }
        assert_eq!(seen.len(), 12, "one full period covers every line");
        // Second period repeats the same cycle.
        assert_eq!(g.next_line().value(), 100);
    }

    #[test]
    fn strided_scan_fixes_non_coprime_strides() {
        let g = StridedScan::new(0, 12, 4); // gcd(4,12)=4 → nudged to 5
        assert_eq!(g.stride(), 5);
    }

    #[test]
    fn pointer_chase_is_a_full_cycle() {
        for lines in [7u64, 12, 64, 100, 1024] {
            let mut g = PointerChase::new(0, lines, 9);
            let mut seen = HashSet::new();
            for _ in 0..lines {
                seen.insert(g.next_line().value());
            }
            assert_eq!(seen.len() as u64, lines, "full cycle over {lines} lines");
        }
    }

    #[test]
    fn pointer_chase_has_no_unit_stride_runs() {
        // The anti-prefetcher property: consecutive addresses are almost
        // never consecutive lines.
        let mut g = PointerChase::new(0, 4096, 3);
        let mut prev = g.next_line().value();
        let mut unit_steps = 0;
        for _ in 0..4096 {
            let cur = g.next_line().value();
            if cur == prev + 1 {
                unit_steps += 1;
            }
            prev = cur;
        }
        assert!(unit_steps < 100, "{unit_steps} unit strides out of 4096");
    }
}
