//! Adaptive multi-monitor curve sampling — the §VI-C future-work design.
//!
//! The paper's fixed [`CurveSampler`] bank needs one monitor per curve
//! point (64 × 4 KB per core for SRRIP — "too large to be practical") and
//! closes with: *"Perhaps future implementations can reduce overheads by
//! using fewer monitors and dynamically adapting sampling rates."* This
//! module implements that suggestion.
//!
//! [`AdaptiveCurveSampler`] runs a small bank (8–16 monitors). At every
//! interval boundary ([`reset`](Monitor::reset)) it inspects the curve it
//! just measured and **re-aims** the bank for the next interval:
//!
//! - a fixed backbone (first/last monitor plus a sparse geometric ladder)
//!   keeps full-range coverage so new cliffs are never invisible;
//! - the remaining monitors move next to the convex-hull *vertices* of
//!   the last curve — the only points Talus's planner actually anchors
//!   on (α and β are always hull vertices, Theorem 6).
//!
//! Re-aiming a monitor changes its sampling ratio, so its tag array
//! restarts cold — exactly what reprogramming a hardware sampling rate
//! would do. The curve returned for a just-re-aimed interval is therefore
//! slightly noisier; in exchange, an 8-monitor adaptive bank tracks the
//! planning quality of a 64-monitor fixed bank at an eighth of the state
//! (see the `ablate` monitor experiment and `adaptive_matches_fixed_bank`
//! tests).
//!
//! [`CurveSampler`]: super::CurveSampler

use super::{CurveSampler, Monitor};
use crate::addr::LineAddr;
use crate::policy::PolicyKind;
use talus_core::MissCurve;

/// A self-re-aiming bank of sampled monitors.
///
/// # Examples
///
/// ```
/// use talus_sim::monitor::{AdaptiveCurveSampler, Monitor};
/// use talus_sim::policy::PolicyKind;
/// use talus_sim::LineAddr;
/// let mut bank = AdaptiveCurveSampler::new(
///     PolicyKind::Srrip,
///     8,     // monitors
///     8192,  // span (lines)
///     512,   // lines per monitor
///     16,    // ways
///     42,
/// );
/// for i in 0..100_000u64 {
///     bank.record(LineAddr(i % 3000));
/// }
/// bank.reset(); // interval boundary: the bank re-aims itself
/// assert_eq!(bank.modeled_sizes().last(), Some(&8192));
/// ```
#[derive(Debug)]
pub struct AdaptiveCurveSampler {
    kind: PolicyKind,
    bank: CurveSampler,
    num_monitors: usize,
    span_lines: u64,
    monitor_lines: u64,
    ways: usize,
    seed: u64,
}

impl AdaptiveCurveSampler {
    /// Creates a bank of `num_monitors` monitors running `kind`, covering
    /// sizes up to `span_lines` (use ≥ 2× the cache so cliffs past the
    /// LLC stay visible, as with the paper's sampled UMON).
    ///
    /// # Panics
    ///
    /// Panics if `num_monitors < 4` (the backbone needs endpoints plus at
    /// least two interior points) or geometry is invalid.
    pub fn new(
        kind: PolicyKind,
        num_monitors: usize,
        span_lines: u64,
        monitor_lines: u64,
        ways: usize,
        seed: u64,
    ) -> Self {
        assert!(
            num_monitors >= 4,
            "need at least 4 monitors (2 endpoints + 2 interior)"
        );
        assert!(
            span_lines >= num_monitors as u64,
            "span too small for the bank"
        );
        let sizes = geometric_ladder(span_lines, num_monitors, ways as u64);
        let bank = CurveSampler::new(kind, &sizes, monitor_lines, ways, seed);
        AdaptiveCurveSampler {
            kind,
            bank,
            num_monitors,
            span_lines,
            monitor_lines,
            ways,
            seed,
        }
    }

    /// The sizes (in lines) the bank currently models.
    pub fn modeled_sizes(&self) -> Vec<u64> {
        self.bank.modeled_sizes()
    }

    /// Total monitor lines — the hardware cost being saved vs a fixed
    /// 64-point bank.
    pub fn monitor_lines_total(&self) -> u64 {
        self.bank.monitor_lines_total()
    }

    /// Re-aims the bank: keep a sparse geometric backbone, pack the rest
    /// of the monitors into the *brackets* below the hull vertices of
    /// `curve` — a vertex's own position is already measured; the cliff
    /// edge that produced it lies somewhere in the gap between the vertex
    /// and the next measured point below, so that gap is where extra
    /// resolution pays.
    fn retarget(&mut self, curve: &MissCurve) {
        let hull = curve.convex_hull();
        let backbone = self.num_monitors / 2;
        let mut sizes = geometric_ladder(self.span_lines, backbone.max(2), self.ways as u64);
        // Interior hull vertices, ascending.
        let mut wanted: Vec<u64> = hull
            .vertices()
            .iter()
            .map(|v| v.size as u64)
            .filter(|&s| s > 0 && s < self.span_lines)
            .collect();
        wanted.sort_unstable();
        wanted.dedup();
        // For each vertex, find its measured predecessor and trisect the
        // bracket (two probes), then keep the vertex itself.
        let mut refine = Vec::new();
        for &v in wanted.iter().rev() {
            let prev = curve
                .sizes()
                .iter()
                .map(|&s| s as u64)
                .filter(|&s| s < v)
                .max()
                .unwrap_or(0);
            let gap = v - prev;
            if gap >= 3 {
                refine.push(prev + gap / 3);
                refine.push(prev + 2 * gap / 3);
            }
            refine.push(v);
        }
        for r in refine {
            if sizes.len() >= self.num_monitors {
                break;
            }
            sizes.push(r);
        }
        sizes.sort_unstable();
        sizes.dedup();
        // Round to way multiples and dedup again (CurveSampler needs a
        // strictly increasing list).
        let ways = self.ways as u64;
        let mut rounded: Vec<u64> = sizes.iter().map(|&s| (s / ways).max(1) * ways).collect();
        rounded.sort_unstable();
        rounded.dedup();
        self.seed = self.seed.wrapping_add(0x9E37_79B9);
        self.bank = CurveSampler::new(
            self.kind,
            &rounded,
            self.monitor_lines,
            self.ways,
            self.seed,
        );
    }
}

/// A geometric ladder of `n` sizes from `span/2^(n-1)` up to `span`,
/// rounded to way multiples and strictly increasing.
fn geometric_ladder(span: u64, n: usize, ways: u64) -> Vec<u64> {
    let mut sizes: Vec<u64> = (0..n)
        .map(|i| {
            let s = span as f64 / 2f64.powi((n - 1 - i) as i32);
            ((s as u64) / ways).max(1) * ways
        })
        .collect();
    sizes.sort_unstable();
    sizes.dedup();
    sizes
}

impl Monitor for AdaptiveCurveSampler {
    fn record(&mut self, line: LineAddr) {
        self.bank.record(line);
    }

    fn record_block(&mut self, lines: &[LineAddr]) {
        // Delegate to the bank's point-major block path (intervals only
        // end at reset(), so a block never straddles a re-aim).
        self.bank.record_block(lines);
    }

    fn curve(&self) -> MissCurve {
        self.bank.curve()
    }

    fn sampled_accesses(&self) -> u64 {
        self.bank.sampled_accesses()
    }

    fn reset(&mut self) {
        // Interval boundary: adapt before forgetting. The first interval
        // keeps the backbone (nothing learned yet).
        let curve = self.bank.curve();
        if self.bank.sampled_accesses() > 0 {
            self.retarget(&curve);
        } else {
            self.bank.reset();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::monitor::test_support::scan_stream;

    #[test]
    fn starts_on_a_geometric_backbone() {
        let a = AdaptiveCurveSampler::new(PolicyKind::Srrip, 8, 8192, 512, 16, 1);
        let sizes = a.modeled_sizes();
        assert_eq!(*sizes.last().unwrap(), 8192);
        assert!(sizes.windows(2).all(|w| w[0] < w[1]));
    }

    #[test]
    fn retargets_toward_hull_vertices() {
        // A scan over 3000 lines: the cliff (hull vertex) sits at 3000,
        // between backbone rungs 2048 and 4096. After one interval the
        // bank should have moved a monitor near it.
        let mut a = AdaptiveCurveSampler::new(PolicyKind::Srrip, 8, 8192, 512, 16, 1);
        for l in scan_stream(3000, 400_000) {
            a.record(l);
        }
        a.reset();
        let sizes = a.modeled_sizes();
        let nearest = sizes
            .iter()
            .map(|&s| (s as i64 - 3000).unsigned_abs())
            .min()
            .unwrap();
        assert!(
            nearest < 600,
            "no monitor near the 3000-line cliff: {sizes:?}"
        );
        // Coverage endpoint survives adaptation.
        assert_eq!(*sizes.last().unwrap(), 8192);
    }

    #[test]
    fn adaptive_matches_fixed_bank_at_an_eighth_of_the_cost() {
        // Planning quality: the hull value at a plateau size from an
        // 8-monitor adaptive bank vs a 64-monitor fixed bank.
        let stream: Vec<_> = scan_stream(3000, 600_000);
        let mut adaptive = AdaptiveCurveSampler::new(PolicyKind::Srrip, 8, 8192, 512, 16, 1);
        let sizes: Vec<u64> = (1..=64).map(|i| i * 8192 / 64).collect();
        let mut fixed = CurveSampler::new(PolicyKind::Srrip, &sizes, 512, 16, 1);
        // Two intervals: the adaptive bank re-aims after the first.
        for &l in &stream {
            adaptive.record(l);
            fixed.record(l);
        }
        adaptive.reset();
        fixed.reset();
        for &l in &stream {
            adaptive.record(l);
            fixed.record(l);
        }
        let target = 2048.0; // on the plateau, below the 3000-line cliff
        let ha = adaptive.curve().convex_hull().value_at(target);
        let hf = fixed.curve().convex_hull().value_at(target);
        assert!(
            (ha - hf).abs() < 0.12,
            "adaptive hull {ha:.3} vs fixed hull {hf:.3} at {target}"
        );
        assert!(
            adaptive.monitor_lines_total() * 4 <= fixed.monitor_lines_total(),
            "adaptive bank should be much smaller: {} vs {}",
            adaptive.monitor_lines_total(),
            fixed.monitor_lines_total()
        );
    }

    #[test]
    fn first_reset_without_traffic_is_safe() {
        let mut a = AdaptiveCurveSampler::new(PolicyKind::Srrip, 8, 8192, 512, 16, 1);
        a.reset();
        assert_eq!(a.sampled_accesses(), 0);
    }

    #[test]
    #[should_panic(expected = "at least 4 monitors")]
    fn rejects_tiny_banks() {
        AdaptiveCurveSampler::new(PolicyKind::Srrip, 2, 8192, 512, 16, 1);
    }
}
