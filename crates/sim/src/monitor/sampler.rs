//! Multi-monitor curve sampling for policies without the stack property.
//!
//! High-performance policies (SRRIP, DRRIP, …) do not obey the stack
//! property, so no single array can sample their whole miss curve. The
//! paper's workaround (§VI-C) is one monitor per curve point: monitor *i*
//! samples the stream at rate `ρᵢ = monitor_capacity / sizeᵢ`, so by
//! Theorem 4 a small array behaves like a cache of `sizeᵢ` — at the cost
//! the paper acknowledges is impractical in hardware (64 × 4 KB per core)
//! but which a simulator is happy to pay.

use super::Monitor;
use crate::addr::LineAddr;
use crate::array::{CacheModel, SetAssocCache};
use crate::hasher::{mix64, H3Bank};
use crate::policy::{AccessCtx, AnyPolicy, PolicyKind};
use talus_core::MissCurve;

/// One sampled shadow monitor: a small cache modelling a larger one.
#[derive(Debug)]
struct Point {
    modeled_lines: u64,
    /// Sampling ratio ρ⁻¹: the monitor sees ~one in `ratio` lines.
    ratio: u64,
    /// Accept a line iff `mix64(bank seed, addr) <= threshold`
    /// (`u64::MAX / ratio`, so acceptance probability is ~1/ratio).
    threshold: u64,
    cache: SetAssocCache<AnyPolicy>,
}

/// A bank of sampled monitors producing an N-point miss curve for an
/// arbitrary replacement policy.
///
/// All monitors share **one** sampling hash: each address is mixed once
/// ([`mix64`]) and compared against per-point thresholds. Because the
/// thresholds are nested — a line sampled at rate ρᵢ is sampled at every
/// coarser rate ρⱼ > ρᵢ — the points form a telescoping family, points
/// are checked coarsest-first, and the first rejecting point ends the
/// scan: a rejected monitor costs one compare and no stores. (The
/// original formulation evaluated an independent `SampleFilter` H3 hash
/// per point per access — 16 hashes per line for the paper's §VI-C SRRIP
/// bank.) The monitors' *set-index* hashes are the lanes of one
/// [`H3Bank`]: a sampled line is hashed for every monitor in one walk and
/// each monitor is handed its set hash. Every monitor runs an
/// [`AnyPolicy`]: [`new`](CurveSampler::new) builds a built-in kind, and
/// [`with_policy`](CurveSampler::with_policy) takes any factory, including
/// one that returns [`AnyPolicy::Custom`].
///
/// # Examples
///
/// ```
/// use talus_sim::monitor::{CurveSampler, Monitor};
/// use talus_sim::policy::PolicyKind;
/// use talus_sim::LineAddr;
/// let sizes: Vec<u64> = (1..=8).map(|i| i * 512).collect();
/// let mut s = CurveSampler::new(PolicyKind::Srrip, &sizes, 512, 16, 42);
/// for i in 0..200_000u64 {
///     s.record(LineAddr(i % 1500));
/// }
/// let curve = s.curve();
/// assert!(curve.value_at(512.0) > curve.value_at(4096.0));
/// ```
#[derive(Debug)]
pub struct CurveSampler {
    points: Vec<Point>,
    /// Seed of the bank's single sampling hash.
    hash_seed: u64,
    /// Lane `i` is the set-index hash of `points[i].cache`.
    set_hashes: H3Bank,
    accesses: u64,
    /// Reusable survivor buffers for [`record_block`](Monitor::record_block):
    /// the lines still sampled at the current point, their sampling
    /// hashes, and the row of `scratch_sets` holding their set hashes.
    scratch_lines: Vec<LineAddr>,
    scratch_hashes: Vec<u64>,
    scratch_rows: Vec<u32>,
    /// `scratch_sets[row * points + i]`: lane `i` of a sampled line.
    scratch_sets: Vec<u32>,
}

impl CurveSampler {
    /// Creates one monitor per entry of `modeled_sizes` (lines, sorted
    /// ascending). Each monitor is a `monitor_lines`-line, `ways`-way cache
    /// running a fresh instance of `policy`; sizes smaller than
    /// `monitor_lines` get an exact unsampled mini-cache instead.
    ///
    /// # Panics
    ///
    /// Panics if `modeled_sizes` is empty or unsorted, or if geometry is
    /// invalid.
    pub fn new(
        policy: PolicyKind,
        modeled_sizes: &[u64],
        monitor_lines: u64,
        ways: usize,
        seed: u64,
    ) -> Self {
        Self::with_policy(
            |s| policy.build_any(s),
            modeled_sizes,
            monitor_lines,
            ways,
            seed,
        )
    }

    /// Like [`new`](Self::new), but `factory` is called once per monitor
    /// with a distinct seed and returns a fresh policy instance. This is
    /// the hook downstream code uses to measure miss curves — and
    /// therefore run Talus — on policies this crate has never heard of,
    /// through [`AnyPolicy::Custom`] (see the `custom_policy` example).
    ///
    /// # Panics
    ///
    /// Panics if `modeled_sizes` is empty or unsorted, or if geometry is
    /// invalid.
    pub fn with_policy(
        factory: impl Fn(u64) -> AnyPolicy,
        modeled_sizes: &[u64],
        monitor_lines: u64,
        ways: usize,
        seed: u64,
    ) -> Self {
        assert!(!modeled_sizes.is_empty(), "need at least one modelled size");
        assert!(
            modeled_sizes.windows(2).all(|w| w[0] < w[1]),
            "modelled sizes must be strictly increasing"
        );
        let set_seed = |i: usize| seed.wrapping_add(1000 + i as u64);
        let points: Vec<Point> = modeled_sizes
            .iter()
            .enumerate()
            .map(|(i, &size)| {
                let size = size.max(ways as u64);
                let (cap, ratio) = if size <= monitor_lines {
                    (size / ways as u64 * ways as u64, 1u64)
                } else {
                    // ρ = monitor/size rounded so capacity stays aligned.
                    let ratio = size.div_ceil(monitor_lines);
                    (monitor_lines, ratio)
                };
                let cap = cap.max(ways as u64);
                Point {
                    modeled_lines: cap * ratio,
                    ratio,
                    threshold: u64::MAX / ratio,
                    cache: SetAssocCache::new(
                        cap,
                        ways,
                        factory(seed.wrapping_add(i as u64)),
                        set_seed(i),
                    ),
                }
            })
            .collect();
        // Sizes ascend, so ratios ascend and thresholds descend — the
        // invariant the record loop's early exit depends on.
        debug_assert!(points.windows(2).all(|w| w[0].threshold >= w[1].threshold));
        let set_seeds: Vec<u64> = (0..points.len()).map(set_seed).collect();
        CurveSampler {
            scratch_sets: vec![0; points.len()],
            points,
            hash_seed: seed ^ 0x5A3D_1E6B_9C2F_84A7,
            set_hashes: H3Bank::new(&set_seeds),
            accesses: 0,
            scratch_lines: Vec::new(),
            scratch_hashes: Vec::new(),
            scratch_rows: Vec::new(),
        }
    }

    /// Number of monitors (curve points, excluding the origin).
    pub fn num_points(&self) -> usize {
        self.points.len()
    }

    /// The hardware cost of this bank in monitor lines (for the §VI-C
    /// overhead discussion).
    pub fn monitor_lines_total(&self) -> u64 {
        self.points.iter().map(|p| p.cache.capacity_lines()).sum()
    }

    /// The cache sizes (in lines) this bank models, ascending.
    pub fn modeled_sizes(&self) -> Vec<u64> {
        self.points.iter().map(|p| p.modeled_lines).collect()
    }

    /// The sampling ratios of the bank's monitors (ascending; 1 = exact).
    pub fn sampling_ratios(&self) -> Vec<u64> {
        self.points.iter().map(|p| p.ratio).collect()
    }

    /// Whether `line` is sampled by point `index` — the nested-filter
    /// predicate the record loop short-circuits on (tests assert the
    /// telescoping property through this).
    pub fn samples(&self, index: usize, line: LineAddr) -> bool {
        mix64(self.hash_seed, line.value()) <= self.points[index].threshold
    }
}

impl Monitor for CurveSampler {
    fn record(&mut self, line: LineAddr) {
        self.accesses += 1;
        let h = mix64(self.hash_seed, line.value());
        if h > self.points[0].threshold {
            return; // nested filters: every finer-rate point also rejects
        }
        let ctx = AccessCtx::new();
        let sets = &mut self.scratch_sets[..self.points.len()];
        self.set_hashes.hash_into(line.value(), sets);
        for (p, &set_hash) in self.points.iter_mut().zip(sets.iter()) {
            if h > p.threshold {
                break;
            }
            p.cache.access_hashed(line, set_hash, &ctx);
        }
    }

    fn record_block(&mut self, lines: &[LineAddr]) {
        self.accesses += lines.len() as u64;
        let seed = self.hash_seed;
        let ctx = AccessCtx::new();
        // Point-major order (points are independent, so this is
        // bit-for-bit the per-access order), with the survivor list
        // compacted as the thresholds tighten: each point's sample is a
        // subset of the previous point's (nested filters), so the filter
        // work telescopes instead of rescanning the whole block per point,
        // and every point ingests its survivors as one contiguous block.
        // The coarsest point's survivors are the only lines any monitor
        // sees: those are hashed for every monitor's set index, once.
        let coarsest = self.points[0].threshold;
        self.scratch_lines.clear();
        self.scratch_hashes.clear();
        for &line in lines {
            let h = mix64(seed, line.value());
            if h <= coarsest {
                self.scratch_lines.push(line);
                self.scratch_hashes.push(h);
            }
        }
        let mut live = self.scratch_lines.len();
        let n = self.points.len();
        self.scratch_rows.clear();
        self.scratch_rows.extend(0..live as u32);
        if self.scratch_sets.len() < live * n {
            self.scratch_sets.resize(live * n, 0);
        }
        for (line, sets) in self
            .scratch_lines
            .iter()
            .zip(self.scratch_sets.chunks_exact_mut(n))
        {
            self.set_hashes.hash_into(line.value(), sets);
        }
        let mut prev_threshold = coarsest;
        for (i, p) in self.points.iter_mut().enumerate() {
            if p.threshold < prev_threshold {
                let mut kept = 0;
                for k in 0..live {
                    if self.scratch_hashes[k] <= p.threshold {
                        self.scratch_lines[kept] = self.scratch_lines[k];
                        self.scratch_hashes[kept] = self.scratch_hashes[k];
                        self.scratch_rows[kept] = self.scratch_rows[k];
                        kept += 1;
                    }
                }
                live = kept;
                prev_threshold = p.threshold;
            }
            if live == 0 {
                break; // finer points sample subsets: nothing left to see
            }
            let (rows, sets) = (&self.scratch_rows, &self.scratch_sets);
            p.cache.access_block_hashed(
                &self.scratch_lines[..live],
                |k| sets[rows[k] as usize * n + i],
                &ctx,
            );
        }
    }

    fn curve(&self) -> MissCurve {
        let mut sizes = vec![0.0f64];
        let mut misses = vec![1.0f64];
        for p in &self.points {
            let s = p.cache.stats();
            let rate = if s.accesses() == 0 {
                1.0
            } else {
                s.miss_rate()
            };
            // Guard against duplicate modelled sizes after rounding.
            if sizes.last().copied() != Some(p.modeled_lines as f64) {
                sizes.push(p.modeled_lines as f64);
                misses.push(rate);
            }
        }
        MissCurve::from_samples(&sizes, &misses).expect("sizes are increasing")
    }

    fn sampled_accesses(&self) -> u64 {
        self.accesses
    }

    fn reset(&mut self) {
        for p in &mut self.points {
            p.cache.reset_stats();
        }
        self.accesses = 0;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::monitor::test_support::{scan_stream, uniform_stream};

    #[test]
    fn sampler_builds_requested_points() {
        let sizes: Vec<u64> = vec![256, 512, 1024, 2048];
        let s = CurveSampler::new(PolicyKind::Lru, &sizes, 256, 16, 1);
        assert_eq!(s.num_points(), 4);
        assert!(s.monitor_lines_total() <= 4 * 256);
    }

    #[test]
    #[should_panic(expected = "strictly increasing")]
    fn sampler_rejects_unsorted_sizes() {
        CurveSampler::new(PolicyKind::Lru, &[512, 256], 256, 16, 1);
    }

    #[test]
    fn lru_sampler_matches_mattson() {
        use crate::monitor::MattsonMonitor;
        let stream = uniform_stream(1500, 500_000, 21);
        let sizes: Vec<u64> = (1..=8).map(|i| i * 512).collect();
        let mut s = CurveSampler::new(PolicyKind::Lru, &sizes, 512, 16, 2);
        let mut m = MattsonMonitor::new(4096);
        for &l in &stream {
            s.record(l);
            m.record(l);
        }
        let cs = s.curve();
        let cm = m.curve_on_grid(&sizes);
        for &size in &sizes {
            let a = cs.value_at(size as f64);
            let b = cm.value_at(size as f64);
            assert!(
                (a - b).abs() < 0.10,
                "size {size}: sampler {a} vs exact {b}"
            );
        }
    }

    #[test]
    fn srrip_shares_lru_cliff_but_brrip_resists() {
        // Pure cyclic scan over 3000 lines at 1024 lines of cache. SRRIP
        // inserts everything at "long" and, with no hits to promote, ages
        // into FIFO behaviour — it thrashes exactly like LRU. (This is why
        // the paper's Fig. 9 shows Talus removing SRRIP's libquantum cliff
        // too.) BRRIP's bimodal insertion keeps a resident fraction and
        // escapes the cliff.
        let stream = scan_stream(3000, 600_000);
        let sizes = vec![1024u64];
        let mut srrip = CurveSampler::new(PolicyKind::Srrip, &sizes, 1024, 16, 3);
        let mut brrip = CurveSampler::new(PolicyKind::Brrip, &sizes, 1024, 16, 3);
        let mut lru = CurveSampler::new(PolicyKind::Lru, &sizes, 1024, 16, 3);
        for &l in &stream {
            srrip.record(l);
            brrip.record(l);
            lru.record(l);
        }
        let ms = srrip.curve().value_at(1024.0);
        let mb = brrip.curve().value_at(1024.0);
        let ml = lru.curve().value_at(1024.0);
        assert!(ml > 0.95, "LRU thrashes: {ml}");
        assert!(ms > 0.95, "SRRIP thrashes on pure scans too: {ms}");
        assert!(mb < 0.9, "BRRIP protects part of the loop: {mb}");
    }

    #[test]
    fn sampled_point_approximates_unsampled_cache() {
        use crate::array::{CacheModel, SetAssocCache};
        use crate::policy::Srrip;
        // Theorem 4 applied to monitors: a 512-line monitor at ratio 4
        // should track a real 2048-line cache.
        let stream = uniform_stream(3000, 800_000, 33);
        let mut s = CurveSampler::new(PolicyKind::Srrip, &[2048], 512, 16, 4);
        let mut real = SetAssocCache::new(2048, 16, Srrip::new(), 5);
        let ctx = AccessCtx::new();
        for &l in &stream {
            s.record(l);
            real.access(l, &ctx);
        }
        let est = s.curve().value_at(2048.0);
        let act = real.stats().miss_rate();
        assert!((est - act).abs() < 0.08, "estimated {est} vs actual {act}");
    }

    /// The one boxed path that remains, `AnyPolicy::Custom`, is the
    /// statically dispatched bank bit for bit, per access and per block.
    #[test]
    fn custom_policy_bank_equals_the_built_in_kind() {
        use crate::policy::Srrip;
        let stream = uniform_stream(3000, 200_000, 41);
        let sizes: Vec<u64> = (1..=8).map(|i| i * 512).collect();
        let custom = || {
            CurveSampler::with_policy(
                |_| AnyPolicy::Custom(Box::new(Srrip::new())),
                &sizes,
                512,
                16,
                6,
            )
        };
        let built_in = || CurveSampler::new(PolicyKind::Srrip, &sizes, 512, 16, 6);
        let (mut custom_single, mut built_in_single) = (custom(), built_in());
        for &l in &stream {
            custom_single.record(l);
            built_in_single.record(l);
        }
        let (mut custom_block, mut built_in_block) = (custom(), built_in());
        for chunk in stream.chunks(1000) {
            custom_block.record_block(chunk);
            built_in_block.record_block(chunk);
        }
        let bits = |s: &CurveSampler| {
            let c = s.curve();
            let sizes: Vec<u64> = c.sizes().iter().map(|x| x.to_bits()).collect();
            let misses: Vec<u64> = c.misses().iter().map(|x| x.to_bits()).collect();
            (sizes, misses, s.sampled_accesses())
        };
        assert_eq!(bits(&custom_single), bits(&built_in_single));
        assert_eq!(bits(&custom_block), bits(&built_in_block));
        assert_eq!(custom_single.sampled_accesses(), stream.len() as u64);
    }

    #[test]
    fn reset_zeroes_accesses() {
        let mut s = CurveSampler::new(PolicyKind::Lru, &[256], 256, 16, 1);
        for &l in &uniform_stream(100, 1000, 3) {
            s.record(l);
        }
        s.reset();
        assert_eq!(s.sampled_accesses(), 0);
    }
}
