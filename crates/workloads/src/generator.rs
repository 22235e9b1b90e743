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

    /// Heap bytes of generated-ahead blocks and kernel scratch held by
    /// this generator and every generator under it.
    #[cfg(test)]
    fn scratch_bytes(&self) -> usize {
        0
    }
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

    #[cfg(test)]
    fn scratch_bytes(&self) -> usize {
        (**self).scratch_bytes()
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
/// The distribution's constants and rank table live in a [`ZipfTable`],
/// one per distribution; ranks are scrambled over the footprint so hot
/// lines spread across cache sets.
#[derive(Debug, Clone)]
pub struct Zipfian {
    base: u64,
    rng: SmallRng,
    table: Arc<ZipfTable>,
}

impl Zipfian {
    /// Creates a Zipf(`exponent`) generator over `lines` lines, on the
    /// distribution's one live table ([`ZipfTable::shared`]).
    ///
    /// # Panics
    ///
    /// Panics if `lines` is zero or `exponent` is not positive and finite.
    pub fn new(base: u64, lines: u64, exponent: f64, seed: u64) -> Self {
        Zipfian {
            base,
            rng: SmallRng::seed_from_u64(seed),
            table: ZipfTable::shared(lines, exponent),
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
        if lines.is_multiple_of(4) && !rad.is_multiple_of(4) {
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
        if n.is_multiple_of(p) {
            rad *= p;
            while n.is_multiple_of(p) {
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

/// Lines a composite ([`Mixture`], [`Phased`]) generates ahead for its
/// `next_line` to pop. Sized in situ on `producer_fed` (64 caches × 3
/// tenants, each a `Phased` of four `Mixture`s, popped through a boxed
/// closure; six rotations of 3 s runs, medians): 64 lines 2136 plans/s at
/// 15.4 MB peak RSS, 128 lines 2156 at 15.7 MB, 256 lines 2114 at
/// 16.3 MB — no resolvable gain past 64, and every visited phase keeps a
/// staging buffer of this many lines.
const AHEAD_BLOCK: usize = 64;

/// The block a composite generated ahead of its consumer: `block[next..]`
/// is still to be delivered. Empty until the first `next_line`, so a
/// composite that is only ever `fill`ed — or never reached — allocates
/// nothing.
#[derive(Debug, Default)]
struct Ahead {
    block: Vec<LineAddr>,
    next: usize,
}

impl Ahead {
    /// The next generated-ahead line, if one is left.
    #[inline]
    fn pop(&mut self) -> Option<LineAddr> {
        let line = *self.block.get(self.next)?;
        self.next += 1;
        Some(line)
    }

    /// Delivers generated-ahead lines to the front of `out`; returns the
    /// rest of `out`, which is the kernel's to generate.
    fn drain_into<'a>(&mut self, out: &'a mut [LineAddr]) -> &'a mut [LineAddr] {
        let ahead = &self.block[self.next..];
        let (drained, fresh) = out.split_at_mut(ahead.len().min(out.len()));
        drained.copy_from_slice(&ahead[..drained.len()]);
        self.next += drained.len();
        fresh
    }

    /// Hands out the spent block, at full length, for the kernel to
    /// refill ([`restart`](Self::restart) takes it back): the kernel
    /// borrows the whole composite, this block included.
    fn spent(&mut self) -> Vec<LineAddr> {
        debug_assert_eq!(self.next, self.block.len(), "lines still ahead");
        let mut block = std::mem::take(&mut self.block);
        block.resize(AHEAD_BLOCK, LineAddr(0));
        block
    }

    /// Takes back the refilled block and delivers its first line.
    fn restart(&mut self, block: Vec<LineAddr>) -> LineAddr {
        let first = block[0];
        *self = Ahead { block, next: 1 };
        first
    }
}

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
    /// `⌊cᵢ·2⁵³⌋` for every component but the last, `cᵢ` the cumulative
    /// normalised weight through component `i`. A choice compares `cᵢ`
    /// with the uniform `u = m·2⁻⁵³` of a 53-bit draw `m` (what
    /// `Rng::gen::<f64>()` builds); both scalings are by a power of two,
    /// hence exact: `cᵢ < u ⟺ cᵢ·2⁵³ < m ⟺ ⌊cᵢ·2⁵³⌋ < m`. The last
    /// component has no threshold — it takes every draw the others leave,
    /// also when the weights sum a hair under 1.0.
    thresholds: Vec<u64>,
    rng: SmallRng,
    ahead: Ahead,
    /// Scratch of `generate`, empty until its first run: each component's
    /// share of the run laid end to end, and a read cursor into each
    /// share.
    staged: Vec<LineAddr>,
    cursors: Vec<usize>,
}

/// The component a 53-bit draw `m` picks: how many thresholds it exceeds.
/// A sum of compares, not a search — which component an access takes is
/// the least predictable branch on the generation path.
#[inline]
fn choice(thresholds: &[u64], m: u64) -> usize {
    thresholds.iter().map(|&t| usize::from(m > t)).sum()
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
        let thresholds = components[..components.len() - 1]
            .iter()
            .map(|(w, _)| {
                acc += w / total;
                (acc * (1u64 << 53) as f64) as u64
            })
            .collect();
        Mixture {
            components,
            thresholds,
            rng: SmallRng::seed_from_u64(seed),
            ahead: Ahead::default(),
            staged: Vec::new(),
            cursors: Vec::new(),
        }
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
            let idx = choice(&self.thresholds, self.rng.next_u64() >> 11);
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

    #[inline(never)]
    fn refill(&mut self) -> LineAddr {
        let mut block = self.ahead.spent();
        self.generate(&mut block);
        self.ahead.restart(block)
    }
}

impl AccessGenerator for Mixture {
    #[inline]
    fn next_line(&mut self) -> LineAddr {
        match self.ahead.pop() {
            Some(line) => line,
            None => self.refill(),
        }
    }

    fn fill(&mut self, out: &mut [LineAddr]) {
        let fresh = self.ahead.drain_into(out);
        self.generate(fresh);
    }

    fn footprint_lines(&self) -> u64 {
        self.components
            .iter()
            .map(|(_, g)| g.footprint_lines())
            .sum()
    }

    #[cfg(test)]
    fn scratch_bytes(&self) -> usize {
        (self.ahead.block.capacity() + self.staged.capacity()) * std::mem::size_of::<LineAddr>()
            + self.cursors.capacity() * std::mem::size_of::<usize>()
            + self
                .components
                .iter()
                .map(|(_, g)| g.scratch_bytes())
                .sum::<usize>()
    }
}

/// Switches between generators on a fixed access schedule, looping forever.
/// Used to stress Assumption 1 (miss-curve stability across intervals).
///
/// Block-backed like [`Mixture`]: one kernel (`generate`) splits a run at
/// phase boundaries and has each phase `fill` its part; `fill` runs it on
/// the caller's buffer, `next_line` pops from a block it refills, and
/// `fill` drains that block first. A phase is therefore only ever
/// `fill`ed — a composite under it never allocates a block of its own —
/// and a line costs its consumer one pop.
#[derive(Debug)]
pub struct Phased {
    phases: Vec<(u64, Box<dyn AccessGenerator>)>,
    current: usize,
    remaining: u64,
    ahead: Ahead,
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
            ahead: Ahead::default(),
        }
    }

    /// Generates the stream's next `out.len()` lines: splits the run at
    /// phase boundaries; each phase fills its part.
    fn generate(&mut self, out: &mut [LineAddr]) {
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

    #[inline(never)]
    fn refill(&mut self) -> LineAddr {
        let mut block = self.ahead.spent();
        self.generate(&mut block);
        self.ahead.restart(block)
    }
}

impl AccessGenerator for Phased {
    // `#[inline]`, with `refill` kept out of line: a monitor feed calls
    // this on the concrete type from another crate, inside its own
    // closure, and the pop belongs in there (`producer_fed` reads 2315
    // plans/s with the attributes, 2101 without, 6/6 rotations).
    #[inline]
    fn next_line(&mut self) -> LineAddr {
        match self.ahead.pop() {
            Some(line) => line,
            None => self.refill(),
        }
    }

    fn fill(&mut self, out: &mut [LineAddr]) {
        let fresh = self.ahead.drain_into(out);
        self.generate(fresh);
    }

    fn footprint_lines(&self) -> u64 {
        self.phases.iter().map(|(_, g)| g.footprint_lines()).sum()
    }

    #[cfg(test)]
    fn scratch_bytes(&self) -> usize {
        self.ahead.block.capacity() * std::mem::size_of::<LineAddr>()
            + self
                .phases
                .iter()
                .map(|(_, g)| g.scratch_bytes())
                .sum::<usize>()
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
    /// whose phases are mixtures (one nested inside another, with a phased
    /// stream inside that) of all the primitives. Phase lengths are
    /// coprime with any block size used below, so block edges straddle
    /// phase boundaries.
    fn zoo(seed: u64) -> Phased {
        let innermost = Phased::new(vec![
            (
                29,
                Box::new(Scan::new(7 << 40, 11)) as Box<dyn AccessGenerator>,
            ),
            (3, Box::new(UniformRandom::new(1 << 22, 9, seed ^ 6))),
        ]);
        let inner = Mixture::new(
            vec![
                (
                    1.0,
                    Box::new(Zipfian::new(1 << 30, 777, 0.9, seed ^ 1)) as Box<dyn AccessGenerator>,
                ),
                (2.0, Box::new(PointerChase::new(1 << 31, 100, seed))),
                (1.0, Box::new(innermost)),
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

    #[test]
    fn threshold_choices_equal_the_float_search() {
        // The expression the thresholds replaced, kept as the reference:
        // the uniform `Rng::gen::<f64>()` builds from a 53-bit draw,
        // searched for in the cumulative normalised weights.
        let reference = |cumulative: &[f64], m: u64| {
            let u = m as f64 * (1.0 / (1u64 << 53) as f64);
            cumulative
                .partition_point(|&c| c < u)
                .min(cumulative.len() - 1)
        };
        const TOP: u64 = (1 << 53) - 1;
        let mut rng = SmallRng::seed_from_u64(0xC401CE);
        let (mut under, mut over) = (0, 0);
        for round in 0..4000 {
            let n = 1 + round % 8;
            // Weights of mixed magnitudes, so a few components get slivers.
            let weights: Vec<f64> = (0..n)
                .map(|_| rng.gen::<f64>() * [1e-9, 0.01, 1.0, 7.0][rng.gen_range(0..4usize)])
                .map(|w: f64| w.max(f64::MIN_POSITIVE))
                .collect();
            let total: f64 = weights.iter().sum();
            let mut acc = 0.0;
            let cumulative: Vec<f64> = weights
                .iter()
                .map(|w| {
                    acc += w / total;
                    acc
                })
                .collect();
            under += usize::from(acc < 1.0);
            over += usize::from(acc > 1.0);
            let components = weights
                .iter()
                .map(|&w| (w, Box::new(Scan::new(0, 1)) as Box<dyn AccessGenerator>))
                .collect();
            let mixture = Mixture::new(components, 1);
            assert_eq!(mixture.thresholds.len(), n - 1);
            let draws = mixture
                .thresholds
                .iter()
                .flat_map(|&t| [t.saturating_sub(1), t, t + 1])
                .chain([0, 1, TOP - 1, TOP])
                .chain((0..16).map(|_| rng.next_u64() >> 11));
            for m in draws.map(|m| m.min(TOP)) {
                assert_eq!(
                    choice(&mixture.thresholds, m),
                    reference(&cumulative, m),
                    "weights {weights:?} draw {m:#x}"
                );
            }
        }
        // Both roundings of the last cumulative weight were exercised: a
        // hair under 1.0 (where the search alone would run off the end)
        // and a hair over.
        assert!(under > 100 && over > 100, "{under} under, {over} over");
    }

    #[test]
    fn phased_blocks_equal_the_per_line_schedule() {
        // The delegation the block replaced, kept as the reference: one
        // line at a time from whichever phase the schedule is in.
        fn by_line(lengths: &[u64], n: usize) -> Vec<LineAddr> {
            let mut gens = phases_of(lengths);
            let (mut current, mut remaining) = (0, lengths[0]);
            (0..n)
                .map(|_| {
                    if remaining == 0 {
                        current = (current + 1) % gens.len();
                        remaining = lengths[current];
                    }
                    remaining -= 1;
                    gens[current].1.next_line()
                })
                .collect()
        }
        /// Phase `i` mixes a scan and a random set of its own, so a line
        /// drawn from the wrong phase, or out of turn, shows.
        fn phases_of(lengths: &[u64]) -> Vec<(u64, Box<dyn AccessGenerator>)> {
            lengths
                .iter()
                .enumerate()
                .map(|(i, &len)| {
                    let base = (i as u64) << 32;
                    let mix = Mixture::new(
                        vec![
                            (
                                2.0,
                                Box::new(Scan::new(base, 17)) as Box<dyn AccessGenerator>,
                            ),
                            (1.0, Box::new(UniformRandom::new(base + 100, 50, i as u64))),
                        ],
                        7 + i as u64,
                    );
                    (len, Box::new(mix) as Box<dyn AccessGenerator>)
                })
                .collect()
        }
        let b = AHEAD_BLOCK as u64;
        let schedules: [&[u64]; 8] = [
            &[1],
            &[3, 5],         // several phases inside one block
            &[b],            // a phase ends where the block does
            &[b - 1, b + 1], // one short of it, one past
            &[b, b, b],
            &[2 * b, b / 2],
            &[3 * b + 7, 1, b], // not a multiple, then a one-line phase
            &[10 * b],
        ];
        for lengths in schedules {
            let n = 7 * AHEAD_BLOCK + 13;
            let want = by_line(lengths, n);
            // Popped a line at a time.
            let mut gen = Phased::new(phases_of(lengths));
            let got: Vec<LineAddr> = (0..n).map(|_| gen.next_line()).collect();
            assert_eq!(got, want, "next_line, phases {lengths:?}");
            // Filled, in blocks shorter and longer than the one behind.
            for size in [1, 5, AHEAD_BLOCK - 1, AHEAD_BLOCK, AHEAD_BLOCK + 1, 200] {
                let mut gen = Phased::new(phases_of(lengths));
                let mut got = vec![LineAddr(0); n];
                got.chunks_mut(size).for_each(|chunk| gen.fill(chunk));
                assert_eq!(got, want, "fill {size}, phases {lengths:?}");
            }
            // A `fill` arriving on a block `next_line` left partly drained,
            // at every depth.
            for popped in [1, 2, AHEAD_BLOCK / 2, AHEAD_BLOCK - 1, AHEAD_BLOCK] {
                let mut gen = Phased::new(phases_of(lengths));
                let mut got: Vec<LineAddr> = (0..popped).map(|_| gen.next_line()).collect();
                got.resize(n, LineAddr(0));
                let (shorter, rest) = got[popped..].split_at_mut(10);
                gen.fill(shorter); // inside what is left of the block, or not
                gen.fill(rest);
                assert_eq!(got, want, "{popped} popped, phases {lengths:?}");
            }
        }
    }

    #[test]
    fn mixture_scratch_is_lazy_and_small() {
        let scan = || Box::new(Scan::new(0, 10)) as Box<dyn AccessGenerator>;
        let mut visited = Mixture::new(vec![(1.0, scan()), (2.0, scan())], 1);
        let unvisited = Mixture::new(vec![(1.0, scan())], 2);
        assert_eq!(visited.scratch_bytes(), 0, "nothing before the first line");
        for _ in 0..1000 {
            visited.next_line();
        }
        let bytes = visited.scratch_bytes();
        assert!(
            (1..=2048).contains(&bytes),
            "{bytes} B of scratch behind next_line"
        );
        assert_eq!(unvisited.scratch_bytes(), 0, "never driven");

        // Under a `Phased` a mixture is only ever `fill`ed: it stages its
        // shares but holds no block of its own, and a phase that is never
        // reached holds nothing at all.
        let mix = |seed| Box::new(Mixture::new(vec![(1.0, scan()), (2.0, scan())], seed));
        let mut phased = Phased::new(vec![(500, mix(3)), (500, mix(4)), (500, mix(5))]);
        assert_eq!(phased.scratch_bytes(), 0, "nothing before the first line");
        for _ in 0..700 {
            phased.next_line();
        }
        let line = std::mem::size_of::<LineAddr>();
        assert_eq!(phased.ahead.block.capacity(), AHEAD_BLOCK);
        let per_phase: Vec<usize> = phased
            .phases
            .iter()
            .map(|(_, g)| g.scratch_bytes())
            .collect();
        for reached in &per_phase[..2] {
            assert!(
                (1..AHEAD_BLOCK * line + 64).contains(reached),
                "{reached} B: a staging buffer and cursors, no block"
            );
        }
        assert_eq!(per_phase[2], 0, "phase never reached");

        // What one serving tenant holds once every phase has run: the
        // figure `producer_fed`'s resident set is made of, 192 times over
        // (its parent held a block *and* a staging buffer a phase, 4224 B).
        let profile = crate::multi_tenant(4).scaled(1.0 / 32.0);
        let mut tenant = profile.tenant_generator(1, 9);
        assert_eq!(tenant.scratch_bytes(), 0);
        // Pulled a line at a time, as `MonitorSource` does (a `fill`
        // consumer's block sizes the staging instead).
        for _ in 0..profile.windows as u64 * profile.phase_len {
            tenant.next_line();
        }
        let bytes = tenant.scratch_bytes();
        assert!(
            (1..=3072).contains(&bytes),
            "{bytes} B of blocks and staging behind a tenant"
        );
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
