//! Analytical miss-curve backend: curves from workload specs, no streams.
//!
//! The exact ([`MattsonMonitor`]) and sampled ([`SampledMattson`]) monitors
//! both *simulate*: they record an address stream and measure stack
//! distances, which costs millions of accesses per curve. But this crate's
//! workload specs are already closed-form — a [`Component`] is a scan, a
//! uniform set, or a Zipf distribution with known footprint and weight —
//! so the miss curve can be *derived* instead of measured, in the style of
//! Gysi et al.'s "A Fast Analytical Model of Fully Associative Caches"
//! (see PAPERS.md). Talus itself is agnostic to where curves come from
//! (the paper's §VI-C monitor assumption), so an analytic curve plugs into
//! the same [`CurveSource`] seam the serving plane ingests from.
//!
//! # Model
//!
//! Under LRU with a mixture stream, an access to line `l` of component `i`
//! hits at cache size `s` iff the *stack distance* — distinct lines touched
//! since the previous access to `l`, including `l` — is at most `s`. The
//! model computes that distribution in three closed-form steps:
//!
//! 1. **Reuse time.** Each component's per-line reuse-time distribution in
//!    *own-stream accesses* is exact: a cyclic scan of `L` lines re-touches
//!    every line after exactly `L` accesses; a uniform set is geometric
//!    with rate `1/L`; a Zipf(`q`) set is a rank-weighted mixture of
//!    geometrics, `P(reuse > k) = Σ_r p_r (1-p_r)^k`, with the tail ranks
//!    log-bucketed so the sum stays a few dozen terms regardless of `L`.
//! 2. **Distinct-lines footprint.** `D_j(n)`, the expected distinct lines
//!    component `j` touches in `n` of its own accesses, is `min(n, L)` for
//!    a scan and `Σ_b m_b (1 - (1-p_b)^n)` for bucketed components — the
//!    working-set function of Denning's independent-reference model.
//! 3. **Superposition.** In a weighted mixture, `k` own-accesses of
//!    component `i` span `k·w_j/w_i` expected accesses of component `j`,
//!    so the expected stack distance is `1 + D_i(k-1) + Σ_{j≠i}
//!    D_j(k·w_j/w_i)`. Sweeping `k` over a geometric ladder yields each
//!    component's miss curve parametrically — `(distance(k), P(reuse>k))`
//!    — and the tenant curve is the access-weighted sum. Phase mixtures
//!    superpose the same way: a steady-state phase is itself a weighted
//!    component list (see [`AnalyticModel::from_multi_tenant`]).
//!
//! All `(1-p)^k` powers are evaluated on a geometric `k`-ladder by
//! repeated squaring (the ladder doubles every `RES = 4` nodes), so a
//! curve costs a few hundred multiplies plus one square-root chain per
//! rank bucket — microseconds, versus ~100µs+ for the cheapest simulated
//! backend (`monitor_record/sampled_mattson` in
//! `results/bench_baseline.json`).
//!
//! What the model deliberately ignores: cold misses (it describes steady
//! state; simulated curves include a vanishing cold fraction on long
//! streams), interleaving variance (cliffs stay sharp where sampling
//! smears them — the accuracy tests use guard bands around cliffs, exactly
//! like the sampled-vs-exact battery), and cross-phase reuse in rotating
//! workloads (a phase's curve stands for the steady state of that phase).
//!
//! ```
//! use talus_workloads::{profile, AnalyticCurveSource};
//! use talus_core::CurveSource;
//! // libquantum is a pure 32 MB scan: its analytic curve is the cliff.
//! let app = profile("libquantum").unwrap().scaled(1.0 / 256.0);
//! let mut src = AnalyticCurveSource::from_profile(&app, 4096);
//! let curve = src.next_curve().unwrap();
//! assert!(curve.value_at(1024.0) > 0.99); // below the scan: all miss
//! assert!(curve.value_at(2560.0) < 0.01); // above it: all hit
//! ```
//!
//! [`MattsonMonitor`]: talus_sim::monitor::MattsonMonitor
//! [`SampledMattson`]: talus_sim::monitor::SampledMattson
//! [`Component`]: crate::spec::Component
//! [`CurveSource`]: talus_core::CurveSource

use crate::interference::MultiTenantProfile;
use crate::spec::{AppProfile, ComponentKind};
use talus_core::{CurveSource, MissCurve};
use talus_sim::mb_to_lines;

/// Reuse-time ladder resolution: nodes per octave of `k`. Each bucket's
/// `(1-p)^k` advances along the ladder by squaring every `RES` nodes, so
/// resolution costs multiplies, not `exp` calls.
const RES: usize = 4;

/// Zipf ranks modelled exactly before log-bucketing begins.
const HEAD: u64 = 32;

/// Zipf tail rank-buckets per octave (≤ ~19% rank spread per bucket).
const TAIL_PER_OCTAVE: usize = 4;

/// Stop sweeping a component once its survival drops below this.
const EPS_SURV: f64 = 1e-9;

/// Hard cap on the reuse-time sweep: `k` up to 2^52 own-accesses.
const MAX_OCTAVES: usize = 52;

// `Ladder::new` writes its dyadic chain roots out for exactly four chains.
const _: () = assert!(RES == 4);

/// One class of lines sharing a per-access hit probability: `count` lines,
/// each touched with probability `p` per own-stream access.
#[derive(Debug, Clone, Copy)]
struct Bucket {
    count: f64,
    p: f64,
}

/// How one component re-references its lines.
#[derive(Debug, Clone)]
enum Reuse {
    /// Every line is re-touched after exactly `lines` own accesses (scan).
    Deterministic,
    /// Geometric mixture over rank buckets (uniform or Zipf).
    Buckets(Vec<Bucket>),
}

/// One mixture component with normalized access weight.
#[derive(Debug, Clone)]
struct Comp {
    weight: f64,
    lines: f64,
    reuse: Reuse,
}

/// Rank buckets for a Zipf(`q`) set of `lines` lines: exact head ranks,
/// then geometric rank ranges whose mean probability preserves the range's
/// total mass (midpoint-corrected power-law integral), normalized so the
/// bucket masses sum to one.
fn zipf_buckets(lines: u64, q: f64) -> Vec<Bucket> {
    let q = if q.is_finite() { q } else { 0.0 };
    let l = lines.max(1);
    let mut buckets = Vec::new();
    let head = HEAD.min(l) as usize;
    // r^-q is multiplicative, so only prime ranks need a real `powf`;
    // composite ranks are one multiply off already-computed entries.
    let mut head_p = vec![1.0f64; head + 1];
    for r in 2..=head {
        let d = (2..).take_while(|f| f * f <= r).find(|f| r % f == 0);
        head_p[r] = match d {
            Some(f) => head_p[f] * head_p[r / f],
            None => (r as f64).powf(-q),
        };
    }
    for &p in &head_p[1..] {
        buckets.push(Bucket { count: 1.0, p });
    }
    let head = head as u64;
    // ∫ x^-q over [a, b] = (b^(1-q) - a^(1-q)) / (1-q) — the tail mass of
    // a rank range. Adjacent ranges share an endpoint, so each bucket
    // costs one new `powf`: the antiderivative at `hi` is reused as the
    // next bucket's `lo` term.
    let near_one = (q - 1.0).abs() < 1e-12;
    let antideriv = |x: f64| -> f64 {
        if near_one {
            x.ln()
        } else {
            x.powf(1.0 - q)
        }
    };
    let step = 2f64.powf(1.0 / TAIL_PER_OCTAVE as f64);
    let mut lo = head + 1;
    let mut lo_term = antideriv(lo as f64 - 0.5);
    while lo <= l {
        let hi = (((lo as f64) * step).round() as u64).clamp(lo + 1, l + 1);
        let hi_term = antideriv(hi as f64 - 0.5);
        let count = (hi - lo) as f64;
        let mass = if near_one {
            hi_term - lo_term
        } else {
            (hi_term - lo_term) / (1.0 - q)
        };
        buckets.push(Bucket {
            count,
            p: (mass / count).max(f64::MIN_POSITIVE),
        });
        lo = hi;
        lo_term = hi_term;
    }
    let total: f64 = buckets.iter().map(|b| b.count * b.p).sum();
    for b in &mut buckets {
        b.p /= total;
    }
    // The ladder retires buckets whose `(1-p)^k` has underflowed as a
    // *prefix*, which requires hot-to-cold order. Construction already
    // yields descending `p` for `q >= 0`; sort to keep the invariant for
    // exotic (negative-exponent) inputs too.
    buckets.sort_by(|a, b| b.p.total_cmp(&a.p));
    buckets
}

/// The per-component evaluation state for one [`AnalyticModel::curve`]
/// call: the geometric reuse-time ladder with, per node `t` (at `k =
/// 2^(t/RES)`), the expected distinct-lines footprint `D(k)` and the
/// reuse survival `P(reuse > k)`. Nodes are appended on demand; each
/// bucket's `(1-p)^k` advances by squaring one of `RES` interleaved
/// chains, so extension is multiply-only after the initial `ln`/`exp`.
#[derive(Debug)]
struct Ladder {
    lines: f64,
    deterministic: bool,
    /// Bucket line counts, hot-to-cold (descending `p`).
    counts: Vec<f64>,
    /// Bucket access mass `count * p`, same order.
    masses: Vec<f64>,
    /// `RES` squaring chains, flattened `[chain][bucket]` so one node's
    /// sweep reads a contiguous, vectorizable slice.
    pows: Vec<f64>,
    /// Per-chain first still-live bucket. Hotter (larger-`p`) buckets'
    /// `(1-p)^k` underflows first, so the dead set is a prefix; a dead
    /// bucket contributes exactly `count` to distinct and nothing to
    /// survival, folded into `retired` instead of re-scanned.
    live: [usize; RES],
    /// Per-chain count sum of retired buckets.
    retired: [f64; RES],
    /// Chain starting points `≈ 2^(r/RES)`, dyadic (sixteenths) so the
    /// starting powers `q^root` come from a shared sqrt chain instead of
    /// an `exp` per chain; node `k` values extend by doubling.
    roots: [f64; RES],
    k: Vec<f64>,
    distinct: Vec<f64>,
    survival: Vec<f64>,
    saturated: bool,
}

impl Ladder {
    fn new(comp: &Comp) -> Ladder {
        let (deterministic, buckets) = match &comp.reuse {
            Reuse::Deterministic => (true, Vec::new()),
            Reuse::Buckets(b) => (false, b.clone()),
        };
        // Prefix retirement and the saturation test both lean on
        // hot-to-cold bucket order.
        debug_assert!(buckets.windows(2).all(|w| w[0].p >= w[1].p));
        let nb = buckets.len();
        // Dyadic approximations of 2^(1/4), 2^(1/2), 2^(3/4) in
        // sixteenths: the spacing stays within 2% of geometric, and every
        // starting power is a product along one sqrt chain — no `ln`/`exp`
        // per bucket. (Written out for RES = 4.)
        let roots = [1.0, 19.0 / 16.0, 23.0 / 16.0, 27.0 / 16.0];
        let mut pows = vec![0.0; nb * RES];
        for (bi, b) in buckets.iter().enumerate() {
            let q = (1.0 - b.p).max(0.0);
            let s1 = q.sqrt(); // q^(1/2)
            let s2 = s1.sqrt(); // q^(1/4)
            let s3 = s2.sqrt(); // q^(1/8)
            let s34 = s3 * s3.sqrt(); // q^(3/16)
            pows[bi] = q; //                  k = 1
            pows[nb + bi] = q * s34; //       k = 19/16
            pows[2 * nb + bi] = q * s2 * s34; // k = 23/16
            pows[3 * nb + bi] = q * s1 * s34; // k = 27/16
        }
        let cap = RES * MAX_OCTAVES;
        Ladder {
            lines: comp.lines,
            deterministic,
            counts: buckets.iter().map(|b| b.count).collect(),
            masses: buckets.iter().map(|b| b.count * b.p).collect(),
            pows,
            live: [0; RES],
            retired: [0.0; RES],
            roots,
            k: Vec::with_capacity(cap),
            distinct: Vec::with_capacity(cap),
            survival: Vec::with_capacity(cap),
            saturated: false,
        }
    }

    /// Appends the next ladder node, advancing one squaring chain.
    fn push_node(&mut self) {
        let t = self.k.len();
        let chain = t % RES;
        let k = if t < RES {
            self.roots[t]
        } else {
            self.k[t - RES] * 2.0
        };
        let nb = self.counts.len();
        let pows = &mut self.pows[chain * nb..(chain + 1) * nb];
        // Retire leading buckets whose power has underflowed — they are
        // fully re-touched and never change again.
        let mut first = self.live[chain];
        while first < nb && pows[first] < 1e-16 {
            self.retired[chain] += self.counts[first];
            first += 1;
        }
        self.live[chain] = first;
        // `p` descending ⇒ `(1-p)^k` ascending: the coldest (last) bucket
        // holds this node's maximum power.
        let max_pow = if first < nb { pows[nb - 1] } else { 0.0 };
        // Four-lane partial sums: the two reductions would otherwise
        // serialize on f64 add latency, which dominates this sweep.
        let mut d = [0.0f64; 4];
        let mut s = [0.0f64; 4];
        let mut pc = pows[first..].chunks_exact_mut(4);
        let mut cc = self.counts[first..].chunks_exact(4);
        let mut mc = self.masses[first..].chunks_exact(4);
        for ((pw4, c4), m4) in (&mut pc).zip(&mut cc).zip(&mut mc) {
            for j in 0..4 {
                let pw = pw4[j];
                d[j] += c4[j] * (1.0 - pw);
                s[j] += m4[j] * pw;
                pw4[j] = pw * pw;
            }
        }
        for ((pw, &count), &mass) in pc
            .into_remainder()
            .iter_mut()
            .zip(cc.remainder())
            .zip(mc.remainder())
        {
            d[0] += count * (1.0 - *pw);
            s[0] += mass * *pw;
            *pw *= *pw;
        }
        let distinct = self.retired[chain] + (d[0] + d[1]) + (d[2] + d[3]);
        let survival = (s[0] + s[1]) + (s[2] + s[3]);
        self.k.push(k);
        self.distinct.push(distinct.min(self.lines));
        self.survival.push(survival);
        if max_pow < 1e-16 {
            // Every class is fully re-touched: D has reached the footprint
            // and survival is ~0; further nodes carry no information.
            self.saturated = true;
        }
    }

    fn extend_to_len(&mut self, len: usize) {
        while !self.saturated && self.k.len() < len.min(RES * MAX_OCTAVES) {
            self.push_node();
        }
    }

    fn extend_to_k(&mut self, n: f64) {
        while !self.saturated
            && self.k.len() < RES * MAX_OCTAVES
            && self.k.last().is_none_or(|&k| k < n)
        {
            self.push_node();
        }
    }

    /// Expected distinct lines touched in `n` own-stream accesses.
    fn distinct_at(&mut self, n: f64) -> f64 {
        if self.deterministic {
            return n.clamp(0.0, self.lines);
        }
        if n <= 0.0 {
            return 0.0;
        }
        self.extend_to_k(n);
        if self.k.is_empty() {
            return 0.0;
        }
        if n <= self.k[0] {
            // Below the first node (k = 1): D grows linearly from 0.
            return n * self.distinct[0];
        }
        let last = *self.k.last().expect("ladder is non-empty");
        if n >= last {
            // Past the ladder: either saturated (D = footprint) or the
            // hard cap was hit (clamp to the last computed value).
            return if self.saturated {
                self.lines
            } else {
                *self.distinct.last().expect("ladder is non-empty")
            };
        }
        // Fast bracket: the polyline sweep queries `n` in lockstep just
        // below the newest node, so `[len-2, len-1]` almost always holds.
        let len = self.k.len();
        if n >= self.k[len - 2] {
            let (k0, k1) = (self.k[len - 2], self.k[len - 1]);
            let f = (n - k0) / (k1 - k0);
            return self.distinct[len - 2] + f * (self.distinct[len - 1] - self.distinct[len - 2]);
        }
        // Seed the locate walk from the float exponent (≈ RES·log2 n,
        // correct to within one octave); the walk below finishes the job.
        let exp2 = ((n.to_bits() >> 52) as i64 - 1023).max(0) as usize;
        let mut t = (RES * exp2).min(self.k.len() - 2);
        while t > 0 && self.k[t] > n {
            t -= 1;
        }
        while t + 2 < self.k.len() && self.k[t + 1] < n {
            t += 1;
        }
        let (k0, k1) = (self.k[t], self.k[t + 1]);
        let f = (n - k0) / (k1 - k0);
        self.distinct[t] + f * (self.distinct[t + 1] - self.distinct[t])
    }
}

/// A closed-form miss-curve model for a weighted mixture of scan, uniform,
/// and Zipf components — the analytic sibling of the simulated monitors.
///
/// Build one from raw `(kind, lines, weight)` triples, an [`AppProfile`],
/// or a [`MultiTenantProfile`] tenant, then call [`curve`](Self::curve)
/// (or wrap it in an [`AnalyticCurveSource`] to feed a serving plane).
#[derive(Debug, Clone)]
pub struct AnalyticModel {
    comps: Vec<Comp>,
}

impl AnalyticModel {
    /// Builds a model from `(kind, footprint in lines, access weight)`
    /// triples. Zero footprints clamp to one line (matching
    /// [`AppProfile::generator`]'s `max(1)`); components with
    /// non-positive or non-finite weight are dropped.
    pub fn from_components(comps: &[(ComponentKind, u64, f64)]) -> AnalyticModel {
        let mut out: Vec<Comp> = comps
            .iter()
            .filter(|&&(_, _, w)| w.is_finite() && w > 0.0)
            .map(|&(kind, lines, weight)| {
                let lines = lines.max(1);
                let reuse = match kind {
                    ComponentKind::Scan => Reuse::Deterministic,
                    ComponentKind::Random => Reuse::Buckets(vec![Bucket {
                        count: lines as f64,
                        p: 1.0 / lines as f64,
                    }]),
                    ComponentKind::Zipf(q) => Reuse::Buckets(zipf_buckets(lines, q)),
                };
                Comp {
                    weight,
                    lines: lines as f64,
                    reuse,
                }
            })
            .collect();
        let total: f64 = out.iter().map(|c| c.weight).sum();
        for c in &mut out {
            c.weight /= total;
        }
        AnalyticModel { comps: out }
    }

    /// Builds the model for an application profile's component mixture.
    pub fn from_profile(profile: &AppProfile) -> AnalyticModel {
        let comps: Vec<(ComponentKind, u64, f64)> = profile
            .components
            .iter()
            .map(|c| (c.kind, mb_to_lines(c.mb).max(1), c.weight))
            .collect();
        AnalyticModel::from_components(&comps)
    }

    /// Builds the steady-state model for one tenant of a multi-tenant
    /// interference profile: the phase superposition of its rotating scan
    /// window and private Zipf hot set. All tenants share the shape
    /// (windows differ only in position), so one model serves every
    /// tenant. Cross-rotation reuse of old windows is not modelled — the
    /// curve stands for the steady state within a phase.
    pub fn from_multi_tenant(profile: &MultiTenantProfile) -> AnalyticModel {
        let window_lines = (profile.shared_lines() / profile.windows as u64).max(1);
        let private_lines = mb_to_lines(profile.private_mb).max(1);
        AnalyticModel::from_components(&[
            (ComponentKind::Scan, window_lines, profile.shared_weight),
            // 0.9 mirrors the Zipf exponent hard-wired in
            // `MultiTenantProfile::tenant_generator`.
            (
                ComponentKind::Zipf(0.9),
                private_lines,
                1.0 - profile.shared_weight,
            ),
        ])
    }

    /// Derives the LRU miss curve on `[0, max_lines]`.
    ///
    /// The result is monotone non-increasing, clamped to `[0, 1]`, starts
    /// at `(0, 1.0)`, and ends exactly at `max_lines` — the invariants the
    /// property battery in `tests/analytic.rs` pins. An empty model (no
    /// positively-weighted components) yields the all-miss curve.
    pub fn curve(&self, max_lines: u64) -> MissCurve {
        let cap = max_lines.max(1) as f64;
        if self.comps.is_empty() {
            return MissCurve::from_samples(&[0.0, cap], &[1.0, 1.0])
                .expect("two-point curve is valid");
        }
        let mut ladders: Vec<Ladder> = self.comps.iter().map(Ladder::new).collect();
        let mut polylines: Vec<Vec<(f64, f64)>> = Vec::with_capacity(self.comps.len());
        for i in 0..self.comps.len() {
            polylines.push(self.component_polyline(i, &mut ladders, cap));
        }
        // Union grid of every component's breakpoints, plus the ends
        // (forced last, so the curve spans exactly [0, max_lines]).
        let mut grid: Vec<f64> =
            Vec::with_capacity(polylines.iter().map(Vec::len).sum::<usize>() + 2);
        grid.extend(
            polylines
                .iter()
                .flat_map(|p| p.iter().map(|&(s, _)| s))
                .filter(|&s| s > 1e-12 && s < cap - 1e-9 * cap),
        );
        grid.sort_by(f64::total_cmp);
        grid.dedup_by(|a, b| (*a - *b) <= 1e-9 * (*b).max(1.0));
        grid.insert(0, 0.0);
        grid.push(cap);
        // Sum each component's weighted polyline over the grid. Both are
        // sorted, so one monotone cursor per component replaces a binary
        // search per (grid point, component) pair.
        let mut misses = vec![0.0f64; grid.len()];
        for (c, poly) in self.comps.iter().zip(&polylines) {
            let w = c.weight;
            let (first, last) = (poly[0], poly[poly.len() - 1]);
            let mut hi = 1usize;
            for (m, &s) in misses.iter_mut().zip(&grid) {
                if s <= first.0 {
                    *m += w * first.1;
                } else if s >= last.0 {
                    *m += w * last.1;
                } else {
                    while poly[hi].0 <= s {
                        hi += 1;
                    }
                    let ((x0, y0), (x1, y1)) = (poly[hi - 1], poly[hi]);
                    *m += w * (y0 + (s - x0) / (x1 - x0) * (y1 - y0));
                }
            }
        }
        for m in &mut misses {
            *m = m.clamp(0.0, 1.0);
        }
        // Weighted summation can round the origin to 1 - ulp; zero cached
        // lines always miss, so snap it back before the monotone guard.
        misses[0] = 1.0;
        for t in 1..misses.len() {
            // Guard the monotone invariant against interpolation fuzz.
            misses[t] = misses[t].min(misses[t - 1]);
        }
        MissCurve::from_samples(&grid, &misses)
            .expect("grid is strictly increasing and rates are finite")
    }

    /// One component's miss polyline `(stack distance, P(miss))`, swept
    /// parametrically over its reuse-time ladder.
    fn component_polyline(&self, i: usize, ladders: &mut [Ladder], cap: f64) -> Vec<(f64, f64)> {
        let wi = self.comps[i].weight;
        // Stack distance for a reuse `k` own-accesses apart: the line
        // itself, the other distinct own lines among the k-1 intervening
        // own accesses, and each co-component's footprint over its
        // expected share of the window.
        let distance = |ladders: &mut [Ladder], k: f64| -> f64 {
            let mut size = 1.0;
            for (j, c) in self.comps.iter().enumerate() {
                let n = if j == i { k - 1.0 } else { k * c.weight / wi };
                size += ladders[j].distinct_at(n);
            }
            size
        };
        let mut pts = Vec::with_capacity(RES * MAX_OCTAVES + 2);
        pts.push((0.0f64, 1.0f64));
        if ladders[i].deterministic {
            // Every reuse arrives at exactly k = lines: a step.
            let d = distance(ladders, self.comps[i].lines);
            let knee = d - (d * 1e-6).max(1e-9);
            push_point(&mut pts, knee, 1.0);
            push_point(&mut pts, d, 0.0);
            return pts;
        }
        let mut t = 0;
        loop {
            ladders[i].extend_to_len(t + 1);
            if ladders[i].k.len() <= t {
                break; // saturated: survival is already ~0
            }
            let k = ladders[i].k[t];
            let survival = ladders[i].survival[t];
            let size = distance(ladders, k);
            push_point(&mut pts, size, survival);
            if survival < EPS_SURV || size >= cap {
                break;
            }
            t += 1;
        }
        pts
    }
}

/// Appends `(size, miss)` to a polyline, enforcing strictly increasing
/// sizes and non-increasing misses (coincident sizes keep the lower miss).
fn push_point(pts: &mut Vec<(f64, f64)>, size: f64, miss: f64) {
    let &(last_size, last_miss) = pts.last().expect("polylines start at (0, 1)");
    let miss = miss.clamp(0.0, 1.0).min(last_miss);
    if size <= last_size + 1e-9 * last_size.max(1.0) {
        pts.last_mut().expect("non-empty").1 = miss;
    } else {
        pts.push((size, miss));
    }
}

/// A [`CurveSource`] serving an analytically derived miss curve — the
/// third curve backend, alongside the exact and sampled monitors.
///
/// The curve is computed once at construction (microseconds; see
/// `analytic_curve/*` in the benches) and cloned on every
/// [`next_curve`](CurveSource::next_curve), so steady-state refresh costs
/// only the clone. Rebuild the source when the workload spec changes.
///
/// ```
/// use talus_core::CurveSource;
/// use talus_workloads::{multi_tenant, AnalyticCurveSource};
/// let profile = multi_tenant(4).scaled(1.0 / 64.0);
/// let mut src = AnalyticCurveSource::from_multi_tenant(&profile, 4096);
/// let curves = src.next_curves(3);
/// assert_eq!(curves.len(), 3);
/// assert!(curves[0].is_monotone(1e-9));
/// ```
#[derive(Debug, Clone)]
pub struct AnalyticCurveSource {
    curve: MissCurve,
}

impl AnalyticCurveSource {
    /// Wraps a model, deriving its curve on `[0, max_lines]`.
    pub fn new(model: &AnalyticModel, max_lines: u64) -> AnalyticCurveSource {
        AnalyticCurveSource {
            curve: model.curve(max_lines),
        }
    }

    /// Analytic source for an application profile.
    pub fn from_profile(profile: &AppProfile, max_lines: u64) -> AnalyticCurveSource {
        AnalyticCurveSource::new(&AnalyticModel::from_profile(profile), max_lines)
    }

    /// Analytic source for a multi-tenant interference tenant.
    pub fn from_multi_tenant(profile: &MultiTenantProfile, max_lines: u64) -> AnalyticCurveSource {
        AnalyticCurveSource::new(&AnalyticModel::from_multi_tenant(profile), max_lines)
    }

    /// The derived curve.
    pub fn curve(&self) -> &MissCurve {
        &self.curve
    }
}

impl CurveSource for AnalyticCurveSource {
    fn next_curve(&mut self) -> Option<MissCurve> {
        Some(self.curve.clone())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::spec::profile;

    #[test]
    fn pure_scan_is_a_cliff_at_the_footprint() {
        let m = AnalyticModel::from_components(&[(ComponentKind::Scan, 1000, 1.0)]);
        let c = m.curve(2000);
        assert!(c.value_at(900.0) > 0.999, "below the scan: all miss");
        assert!(c.value_at(1001.0) < 1e-9, "above the scan: all hit");
        assert_eq!(c.value_at(0.0), 1.0);
        assert_eq!(c.max_size(), 2000.0);
    }

    #[test]
    fn uniform_knee_matches_the_geometric_law() {
        // For uniform reuse over L lines, a reuse k = L own-accesses away
        // survives with (1-1/L)^L ≈ e^-1 and spans ≈ L(1-e^-1) ≈ 0.632·L
        // distinct lines — the analytic knee must pass through that point.
        let l = 4096u64;
        let m = AnalyticModel::from_components(&[(ComponentKind::Random, l, 1.0)]);
        let c = m.curve(2 * l);
        let knee = l as f64 * (1.0 - (-1.0f64).exp());
        let expect = (-1.0f64).exp();
        assert!(
            (c.value_at(knee) - expect).abs() < 0.02,
            "value at the 0.632·L knee: {} vs e^-1 ≈ {expect}",
            c.value_at(knee)
        );
        assert!(c.value_at(0.0) == 1.0);
        assert!(c.value_at(2.0 * l as f64) < 0.01);
    }

    #[test]
    fn zipf_curve_is_monotone_and_convexish() {
        let m = AnalyticModel::from_components(&[(ComponentKind::Zipf(0.8), 100_000, 1.0)]);
        let c = m.curve(50_000);
        assert!(c.is_monotone(1e-9));
        assert_eq!(c.value_at(0.0), 1.0);
        // Skewed reuse: 5% of the footprint already absorbs over a third
        // of the hits, and the tail keeps missing at half the footprint.
        assert!(c.value_at(5_000.0) < 0.7);
        assert!(c.value_at(50_000.0) > 0.05, "tail ranks still miss");
    }

    #[test]
    fn single_object_zipf_hits_immediately() {
        let m = AnalyticModel::from_components(&[(ComponentKind::Zipf(1.0), 1, 1.0)]);
        let c = m.curve(64);
        assert_eq!(c.value_at(0.0), 1.0);
        assert!(c.value_at(1.0) < 1e-12, "one line: hits at size 1");
    }

    #[test]
    fn zero_size_scan_clamps_to_one_line() {
        let m = AnalyticModel::from_components(&[(ComponentKind::Scan, 0, 1.0)]);
        let c = m.curve(16);
        assert!(c.is_monotone(1e-9));
        assert!(c.value_at(1.0) < 1e-9, "a 1-line scan hits at size 1");
    }

    #[test]
    fn two_scan_mixture_has_a_half_weight_plateau() {
        // 50/50 scans of 100 and 1000 lines: the small scan's cliff sits
        // at 100 own + 100 interleaved = 200 lines, the big one's at
        // 1000 + 100 (the whole small scan) + 1 = ~1100.
        let m = AnalyticModel::from_components(&[
            (ComponentKind::Scan, 100, 0.5),
            (ComponentKind::Scan, 1000, 0.5),
        ]);
        let c = m.curve(2048);
        assert!(c.value_at(150.0) > 0.999);
        assert!((c.value_at(500.0) - 0.5).abs() < 1e-9, "plateau at w=0.5");
        assert!(c.value_at(1200.0) < 1e-9);
    }

    #[test]
    fn profile_curve_matches_component_construction() {
        let p = profile("omnetpp").unwrap().scaled(1.0 / 256.0);
        let via_profile = AnalyticModel::from_profile(&p).curve(8192);
        let comps: Vec<(ComponentKind, u64, f64)> = p
            .components
            .iter()
            .map(|c| (c.kind, mb_to_lines(c.mb).max(1), c.weight))
            .collect();
        let via_comps = AnalyticModel::from_components(&comps).curve(8192);
        assert_eq!(via_profile, via_comps);
    }

    #[test]
    fn empty_model_is_all_miss() {
        let m = AnalyticModel::from_components(&[]);
        let c = m.curve(128);
        assert_eq!(c.value_at(128.0), 1.0);
        // Non-finite and non-positive weights are dropped too.
        let m = AnalyticModel::from_components(&[
            (ComponentKind::Scan, 10, 0.0),
            (ComponentKind::Random, 10, f64::NAN),
            (ComponentKind::Zipf(0.5), 10, -1.0),
        ]);
        assert_eq!(m.curve(128).value_at(64.0), 1.0);
    }

    #[test]
    fn source_replays_the_same_curve() {
        let p = multi_tenant_fixture();
        let mut src = AnalyticCurveSource::from_multi_tenant(&p, 4096);
        let a = src.next_curve().unwrap();
        let b = src.next_curve().unwrap();
        assert_eq!(a, b);
        assert_eq!(src.next_curves(5).len(), 5);
        assert_eq!(*src.curve(), a);
    }

    #[test]
    fn multi_tenant_model_cliffs_at_the_window() {
        let p = multi_tenant_fixture();
        let window = (p.shared_lines() / p.windows as u64).max(1);
        let c = AnalyticModel::from_multi_tenant(&p).curve(4 * p.tenant_footprint_lines());
        // Below the window the scan share (70%) misses, plus part of the
        // private Zipf; past window + private the scan share hits.
        assert!(c.value_at(window as f64 * 0.5) > 0.7);
        assert!(c.value_at((2 * p.tenant_footprint_lines()) as f64) < 0.05);
        assert!(c.is_monotone(1e-9));
    }

    #[test]
    fn zipf_buckets_mass_is_normalized() {
        for &(l, q) in &[(1u64, 1.0f64), (7, 0.0), (100, 0.7), (1_000_000, 1.2)] {
            let bs = zipf_buckets(l, q);
            let mass: f64 = bs.iter().map(|b| b.count * b.p).sum();
            let count: f64 = bs.iter().map(|b| b.count).sum();
            assert!((mass - 1.0).abs() < 1e-9, "L={l} q={q}: mass {mass}");
            assert!((count - l as f64).abs() < 0.5, "L={l} q={q}: count {count}");
        }
    }

    fn multi_tenant_fixture() -> MultiTenantProfile {
        crate::interference::multi_tenant(4).scaled(1.0 / 64.0)
    }
}
