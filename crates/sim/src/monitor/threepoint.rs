//! CRUISE-style three-point miss-curve monitor.
//!
//! The paper's §VI-C notes that CRUISE (Jaleel et al., ASPLOS 2012)
//! "takes a similar approach … to find the misses with both half of the
//! cache and the full cache, in effect producing 3-point miss curves".
//! [`ThreePointMonitor`] reproduces that design point: two pseudo-randomly
//! sampled LRU tag stores model the miss rate at half capacity and at
//! full capacity (Theorem 4: a 1:R-sampled monitor of `C/R` lines behaves
//! like a `C`-line cache), and the curve is completed with the
//! all-miss point at size zero.
//!
//! Three points are enough for CRUISE's scheduling decisions, but they
//! starve Talus: the hull can only have vertices at {0, C/2, C}, and a
//! cliff *beyond* the modeled range (libquantum's 32 MB cliff seen from a
//! 16 MB cache) is invisible, so Talus cannot bridge it. The `coverage`
//! knob scales the two modeled sizes — the monitor-resolution ablation
//! uses it to separate the cost of few points from the cost of short
//! coverage.

use super::Monitor;
use crate::addr::LineAddr;
use crate::array::{CacheModel, FullyAssocLru};
use crate::hasher::SampleFilter;
use crate::policy::AccessCtx;
use talus_core::MissCurve;

/// Largest tag store the monitor may allocate (the paper's UMONs are 1K
/// lines; we keep the same budget per array).
const MAX_MONITOR_LINES: u64 = 1024;

/// A three-point miss-curve monitor: `{0, k·C/2, k·C}` for a modeled
/// capacity `C` and coverage factor `k`.
///
/// # Examples
///
/// ```
/// use talus_sim::monitor::{Monitor, ThreePointMonitor};
/// use talus_sim::LineAddr;
/// let mut mon = ThreePointMonitor::new(4096, 7);
/// for i in 0..50_000u64 {
///     mon.record(LineAddr(i % 1024));
/// }
/// let curve = mon.curve();
/// // Exactly three points: 0, half, full.
/// assert_eq!(curve.len(), 3);
/// ```
#[derive(Debug)]
pub struct ThreePointMonitor {
    filter: SampleFilter,
    half: FullyAssocLru,
    full: FullyAssocLru,
    /// Modeled size of the `full` array in LLC lines (`k·C`).
    modeled_full: u64,
    sampled: u64,
}

impl ThreePointMonitor {
    /// Builds a monitor for a cache of `capacity_lines` with coverage 1.0
    /// (CRUISE's configuration: half and full cache).
    ///
    /// # Panics
    ///
    /// Panics if `capacity_lines` is zero.
    pub fn new(capacity_lines: u64, seed: u64) -> Self {
        Self::with_coverage(capacity_lines, 1.0, seed)
    }

    /// Builds a monitor whose two modeled sizes are `k·C/2` and `k·C`.
    ///
    /// # Panics
    ///
    /// Panics if `capacity_lines` is zero or `coverage` is not positive.
    pub fn with_coverage(capacity_lines: u64, coverage: f64, seed: u64) -> Self {
        assert!(capacity_lines > 0, "capacity must be positive");
        assert!(
            coverage > 0.0 && coverage.is_finite(),
            "coverage must be positive"
        );
        let modeled_full = ((capacity_lines as f64 * coverage) as u64).max(2);
        let ratio = modeled_full.div_ceil(MAX_MONITOR_LINES).max(1);
        let full_lines = (modeled_full / ratio).max(2);
        ThreePointMonitor {
            filter: SampleFilter::new(ratio, seed ^ 0x3907),
            half: FullyAssocLru::new((full_lines / 2).max(1)),
            full: FullyAssocLru::new(full_lines),
            modeled_full,
            sampled: 0,
        }
    }
}

impl Monitor for ThreePointMonitor {
    fn record(&mut self, line: LineAddr) {
        if !self.filter.accepts(line) {
            return;
        }
        self.sampled += 1;
        let ctx = AccessCtx::new();
        self.half.access(line, &ctx);
        self.full.access(line, &ctx);
    }

    fn curve(&self) -> MissCurve {
        // Cold monitors report the all-miss curve.
        let (half_rate, full_rate) = if self.sampled == 0 {
            (1.0, 1.0)
        } else {
            let h = self.half.stats().miss_rate();
            let f = self.full.stats().miss_rate();
            // Enforce monotonicity against sampling noise.
            (h.max(f), f)
        };
        MissCurve::from_samples(
            &[
                0.0,
                self.modeled_full as f64 / 2.0,
                self.modeled_full as f64,
            ],
            &[1.0f64.max(half_rate), half_rate, full_rate],
        )
        .expect("three-point sizes are strictly increasing")
    }

    fn sampled_accesses(&self) -> u64 {
        self.sampled
    }

    fn reset(&mut self) {
        self.half.reset_stats();
        self.full.reset_stats();
        self.sampled = 0;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::monitor::test_support::{scan_stream, uniform_stream};

    #[test]
    fn curve_has_exactly_three_points() {
        let mut m = ThreePointMonitor::new(2048, 1);
        for l in uniform_stream(512, 40_000, 3) {
            m.record(l);
        }
        let c = m.curve();
        assert_eq!(c.len(), 3);
        assert_eq!(c.sizes()[0], 0.0);
        assert_eq!(c.sizes()[2], 2048.0);
    }

    #[test]
    fn small_working_set_hits_at_both_sizes() {
        let mut m = ThreePointMonitor::new(4096, 1);
        for l in uniform_stream(512, 80_000, 3) {
            m.record(l);
        }
        let c = m.curve();
        assert!(c.value_at(2048.0) < 0.2, "half: {}", c.value_at(2048.0));
        assert!(c.value_at(4096.0) < 0.2, "full: {}", c.value_at(4096.0));
    }

    #[test]
    fn scan_between_half_and_full_separates_the_points() {
        // A cyclic scan over 3/4 of capacity: misses everything at C/2,
        // fits at C.
        let mut m = ThreePointMonitor::new(4096, 1);
        for l in scan_stream(3072, 120_000) {
            m.record(l);
        }
        let c = m.curve();
        assert!(c.value_at(2048.0) > 0.8, "half: {}", c.value_at(2048.0));
        assert!(c.value_at(4096.0) < 0.3, "full: {}", c.value_at(4096.0));
    }

    #[test]
    fn coverage_extends_the_modeled_range() {
        let m = ThreePointMonitor::with_coverage(4096, 2.0, 1);
        assert_eq!(m.modeled_full, 8192);
        let c = m.curve();
        assert_eq!(c.sizes()[2], 8192.0);
    }

    #[test]
    fn cliff_beyond_coverage_is_invisible() {
        // The CRUISE limitation Talus cares about: a scan over 2× capacity
        // misses at both modeled sizes, so the 3-point curve is flat — no
        // bridgeable cliff, even though one exists at 2C.
        let mut m = ThreePointMonitor::new(2048, 1);
        for l in scan_stream(4096, 100_000) {
            m.record(l);
        }
        let c = m.curve();
        assert!(c.value_at(1024.0) > 0.9);
        assert!(
            c.value_at(2048.0) > 0.9,
            "flat at full: {}",
            c.value_at(2048.0)
        );
        // With 2x coverage the same monitor budget sees the cliff.
        let mut wide = ThreePointMonitor::with_coverage(2048, 2.0, 1);
        for l in scan_stream(4096, 100_000) {
            wide.record(l);
        }
        assert!(wide.curve().value_at(4096.0) < 0.3);
    }

    #[test]
    fn reset_clears_rates_but_keeps_tags() {
        let mut m = ThreePointMonitor::new(2048, 1);
        for l in uniform_stream(256, 20_000, 5) {
            m.record(l);
        }
        m.reset();
        assert_eq!(m.sampled_accesses(), 0);
        // Warm tags: the first re-recorded accesses mostly hit.
        for l in uniform_stream(256, 20_000, 5) {
            m.record(l);
        }
        assert!(m.curve().value_at(2048.0) < 0.1);
    }

    #[test]
    fn cold_monitor_reports_all_miss() {
        let m = ThreePointMonitor::new(1024, 1);
        let c = m.curve();
        assert_eq!(c.value_at(0.0), 1.0);
        assert_eq!(c.value_at(1024.0), 1.0);
    }

    #[test]
    #[should_panic(expected = "coverage must be positive")]
    fn rejects_zero_coverage() {
        ThreePointMonitor::with_coverage(1024, 0.0, 1);
    }
}
