//! Monitor-fed curve sources: the bridge from simulated hardware to the
//! [`CurveSource`] seam.

use crate::addr::LineAddr;
use crate::monitor::Monitor;
use talus_core::{CurveSource, MissCurve};

/// Drives an address stream through a [`Monitor`] and yields one curve
/// estimate per monitoring interval.
///
/// This is the producer the online layers consume: each call to
/// [`next_curve`](CurveSource::next_curve) records `interval` accesses
/// (pulled from the stream closure) into the monitor and returns its
/// updated curve. By default estimates are *cumulative* — the monitor
/// keeps accumulating, as the paper's utility monitors do between resets;
/// [`per_interval`](MonitorSource::per_interval) resets the monitor after
/// every sample instead, yielding independent interval curves.
///
/// The stream is any `FnMut() -> LineAddr`, so a `talus-workloads`
/// generator, a recorded trace iterator, or a hand-rolled closure all fit
/// without this crate knowing about them.
///
/// Ingest is batched: the source fills a 256-address block on the stack
/// (the source holds no buffer of its own) and feeds it through
/// [`Monitor::record_block`], so block-aware
/// monitors ([`SampledMattson`](crate::monitor::SampledMattson),
/// [`MattsonMonitor`](crate::monitor::MattsonMonitor)) get their
/// amortized path on every layer built on this source — the experiment
/// sweeps and `talus-serve`'s replay example and suites included.
#[derive(Debug)]
pub struct MonitorSource<M, F> {
    monitor: M,
    next_line: F,
    interval: u64,
    reset_each: bool,
}

/// Addresses buffered per [`Monitor::record_block`] call.
const BLOCK: usize = 256;

impl<M: Monitor, F: FnMut() -> LineAddr> MonitorSource<M, F> {
    /// A cumulative source sampling `monitor` every `interval` accesses of
    /// the stream produced by `next_line`.
    ///
    /// # Panics
    ///
    /// Panics if `interval` is zero (the source would never observe
    /// anything).
    pub fn new(monitor: M, interval: u64, next_line: F) -> Self {
        assert!(interval > 0, "monitoring interval must be positive");
        MonitorSource {
            monitor,
            next_line,
            interval,
            reset_each: false,
        }
    }

    /// Resets the monitor after each sample, so every curve reflects one
    /// interval in isolation (the reconfiguration-loop convention).
    pub fn per_interval(mut self) -> Self {
        self.reset_each = true;
        self
    }

    /// Records `accesses` stream lines without building a curve. For
    /// consumers that read the monitor directly (e.g. evaluating on an
    /// exact grid), this skips the curve construction `next_curve` pays.
    pub fn advance(&mut self, accesses: u64) {
        let mut block = [LineAddr(0); BLOCK];
        let mut left = accesses;
        while left > 0 {
            let n = left.min(BLOCK as u64) as usize;
            block[..n].fill_with(&mut self.next_line);
            self.monitor.record_block(&block[..n]);
            left -= n as u64;
        }
    }

    /// Records `accesses` stream lines without emitting a curve, then
    /// clears the monitor's statistics — warmup before measurement.
    pub fn warm_up(&mut self, accesses: u64) {
        self.advance(accesses);
        self.monitor.reset();
    }

    /// The wrapped monitor.
    pub fn monitor(&self) -> &M {
        &self.monitor
    }

    /// Consumes the source, returning the monitor.
    pub fn into_monitor(self) -> M {
        self.monitor
    }
}

impl<M: Monitor, F: FnMut() -> LineAddr> CurveSource for MonitorSource<M, F> {
    fn next_curve(&mut self) -> Option<MissCurve> {
        self.advance(self.interval);
        let curve = self.monitor.curve();
        if self.reset_each {
            self.monitor.reset();
        }
        Some(curve)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::monitor::MattsonMonitor;

    fn scan_source(
        lines: u64,
        interval: u64,
    ) -> MonitorSource<MattsonMonitor, impl FnMut() -> LineAddr> {
        let mut i = 0u64;
        MonitorSource::new(MattsonMonitor::new(2 * lines), interval, move || {
            i += 1;
            LineAddr(i % lines)
        })
    }

    #[test]
    fn cumulative_source_sees_the_scan_cliff() {
        let mut src = scan_source(256, 4096);
        let curve = src.next_curve().expect("monitor sources never exhaust");
        // A 256-line cyclic scan: thrashes below 256 lines, fits above.
        assert!(curve.value_at(128.0) > 0.9, "below the scan size");
        assert!(curve.value_at(300.0) < 0.1, "above the scan size");
        assert_eq!(src.monitor().sampled_accesses(), 4096);
    }

    #[test]
    fn per_interval_resets_between_samples() {
        let mut src = scan_source(64, 1024).per_interval();
        src.next_curve();
        assert_eq!(src.monitor().sampled_accesses(), 0, "reset after sample");
        src.next_curve();
        let m = src.into_monitor();
        assert_eq!(m.sampled_accesses(), 0);
    }

    #[test]
    fn warm_up_discards_statistics() {
        let mut src = scan_source(64, 512);
        src.warm_up(1000);
        assert_eq!(src.monitor().sampled_accesses(), 0);
        src.next_curve();
        assert_eq!(src.monitor().sampled_accesses(), 512);
    }

    #[test]
    #[should_panic(expected = "interval must be positive")]
    fn zero_interval_rejected() {
        scan_source(64, 0);
    }

    #[test]
    fn block_ingest_counts_exactly_at_odd_intervals() {
        // Intervals that are not multiples of the ingest block must still
        // record exactly `interval` accesses per curve.
        let mut src = scan_source(64, 1000); // 1000 = 3×256 + 232
        src.next_curve();
        assert_eq!(src.monitor().sampled_accesses(), 1000);
        src.advance(300);
        assert_eq!(src.monitor().sampled_accesses(), 1300);
    }

    #[test]
    fn sampled_monitor_source_sees_the_scan_cliff() {
        use crate::monitor::SampledMattson;
        // The fast producer drops in behind the same seam: a 1/8-sampled
        // monitor still resolves a 256-line scan cliff through the source.
        let mut i = 0u64;
        let mut src = MonitorSource::new(SampledMattson::new(1024, 8, 3), 40_000, move || {
            i += 1;
            LineAddr(i % 256)
        });
        let curve = src.next_curve().expect("monitor sources never exhaust");
        assert!(curve.value_at(160.0) > 0.85, "well below the scan size");
        assert!(curve.value_at(360.0) < 0.15, "well above the scan size");
    }
}
