//! An L2 adaptive stream prefetcher model.
//!
//! The paper's §VII-B reproduces its results "using L2 adaptive stream
//! prefetchers validated against Westmere" and reports that *"prefetching
//! changes miss curves somewhat, but does not affect any of the
//! assumptions that Talus relies on"*. This module provides the substrate
//! for reproducing that claim (see the `prefetch` experiment): a stream
//! prefetcher that sits between an application's demand stream and the
//! LLC, exactly where an L2 prefetcher sits in the paper's system.
//!
//! [`StreamPrefetcher`] wraps any [`AccessGenerator`]. It watches the
//! demand stream with a small table of stream trackers; once a tracker
//! sees a run of sequential lines it issues prefetches up to a
//! configurable distance ahead. Issued prefetches are emitted into the
//! LLC access stream *before* the demand accesses they cover, so a timely
//! prefetch converts a demand miss into a demand hit (and carries the
//! memory traffic itself, as a prefetch miss).
//!
//! Real prefetchers are neither fully accurate nor fully timely; the
//! `coverage` knob models that imperfection as the probability that a
//! detected prefetch opportunity is actually issued in time. At coverage
//! 1.0 a steady scan stops missing entirely; at the default 0.75 the
//! miss curve keeps its shape but shifts — the "changes somewhat" regime
//! the paper describes.

use crate::generator::AccessGenerator;
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use std::collections::VecDeque;
use talus_sim::LineAddr;

/// Whether an emitted access is a demand access or a prefetch.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum AccessKind {
    /// Issued by the application (counts toward demand MPKI).
    Demand,
    /// Issued by the prefetcher (carries traffic; not a demand miss).
    Prefetch,
}

impl AccessKind {
    /// `true` for demand accesses.
    pub fn is_demand(self) -> bool {
        matches!(self, AccessKind::Demand)
    }
}

/// One detected stream: the next line we expect the demand stream to
/// touch, the prefetch frontier already covered, and a confidence count.
#[derive(Debug, Clone, Copy)]
struct StreamTracker {
    next_expected: u64,
    frontier: u64,
    confidence: u8,
    last_used: u64,
}

/// An adaptive stream prefetcher wrapped around a demand generator.
///
/// # Examples
///
/// ```
/// use talus_workloads::{AccessGenerator, Scan, StreamPrefetcher};
/// let scan = Scan::new(0, 4096);
/// let mut pf = StreamPrefetcher::new(scan, 7);
/// // The combined stream interleaves demand lines with prefetches.
/// let (line, kind) = pf.next_tagged();
/// assert!(kind.is_demand());
/// assert_eq!(line.value(), 0);
/// ```
#[derive(Debug)]
pub struct StreamPrefetcher<G> {
    inner: G,
    trackers: Vec<StreamTracker>,
    pending: VecDeque<LineAddr>,
    degree: u64,
    distance: u64,
    coverage: f64,
    confidence_threshold: u8,
    rng: SmallRng,
    clock: u64,
    issued: u64,
    demands: u64,
}

/// Stream trackers available (typical L2 prefetchers track 8–16 streams).
const NUM_TRACKERS: usize = 8;

impl<G: AccessGenerator> StreamPrefetcher<G> {
    /// Wraps `inner` with the default configuration: degree 2, distance 4,
    /// coverage 0.75, confidence threshold 2.
    pub fn new(inner: G, seed: u64) -> Self {
        StreamPrefetcher {
            inner,
            trackers: Vec::with_capacity(NUM_TRACKERS),
            pending: VecDeque::new(),
            degree: 2,
            distance: 4,
            coverage: 0.75,
            confidence_threshold: 2,
            rng: SmallRng::seed_from_u64(seed ^ 0x9E3F_EED5),
            clock: 0,
            issued: 0,
            demands: 0,
        }
    }

    /// Sets how far ahead of the demand stream the prefetcher may run.
    ///
    /// # Panics
    ///
    /// Panics if `distance` is zero.
    pub fn with_distance(mut self, distance: u64) -> Self {
        assert!(distance > 0, "prefetch distance must be positive");
        self.distance = distance;
        self
    }

    /// Sets the fraction of detected opportunities issued in time.
    ///
    /// # Panics
    ///
    /// Panics if `coverage` is outside `[0, 1]`.
    pub fn with_coverage(mut self, coverage: f64) -> Self {
        assert!(
            (0.0..=1.0).contains(&coverage),
            "coverage must be in [0, 1]"
        );
        self.coverage = coverage;
        self
    }

    /// Prefetches issued so far.
    pub fn issued(&self) -> u64 {
        self.issued
    }

    /// Demand accesses emitted so far.
    pub fn demands(&self) -> u64 {
        self.demands
    }

    /// Emits the next access with its kind. Pending prefetches drain
    /// before the next demand access is pulled from the wrapped
    /// generator, so timely prefetches land in the cache first.
    pub fn next_tagged(&mut self) -> (LineAddr, AccessKind) {
        if let Some(line) = self.pending.pop_front() {
            self.issued += 1;
            return (line, AccessKind::Prefetch);
        }
        let line = self.inner.next_line();
        self.demands += 1;
        self.observe(line.value());
        (line, AccessKind::Demand)
    }

    /// Updates the trackers with a demand address and enqueues prefetches.
    fn observe(&mut self, addr: u64) {
        self.clock += 1;
        // Continuation of a tracked stream?
        if let Some(t) = self.trackers.iter_mut().find(|t| t.next_expected == addr) {
            t.next_expected = addr + 1;
            t.confidence = t.confidence.saturating_add(1);
            t.last_used = self.clock;
            if t.confidence >= self.confidence_threshold {
                // Advance the frontier, never re-issuing covered lines.
                let start = t.frontier.max(addr + 1);
                let end = (addr + self.distance).min(start + self.degree - 1);
                let mut frontier = t.frontier;
                for l in start..=end {
                    if self.rng.gen::<f64>() < self.coverage {
                        self.pending.push_back(LineAddr(l));
                    }
                    frontier = l + 1;
                }
                t.frontier = frontier.max(t.frontier);
            }
            return;
        }
        // New potential stream: allocate a tracker (evict the stalest).
        let tracker = StreamTracker {
            next_expected: addr + 1,
            frontier: addr + 1,
            confidence: 1,
            last_used: self.clock,
        };
        if self.trackers.len() < NUM_TRACKERS {
            self.trackers.push(tracker);
        } else {
            let stalest = self
                .trackers
                .iter()
                .enumerate()
                .min_by_key(|(_, t)| t.last_used)
                .map(|(i, _)| i)
                .expect("tracker table is non-empty");
            self.trackers[stalest] = tracker;
        }
    }
}

impl<G: AccessGenerator> AccessGenerator for StreamPrefetcher<G> {
    fn next_line(&mut self) -> LineAddr {
        self.next_tagged().0
    }

    fn footprint_lines(&self) -> u64 {
        // The frontier can overshoot the wrapped footprint by at most the
        // prefetch distance per stream.
        self.inner.footprint_lines() + self.distance
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::generator::{Scan, UniformRandom};

    #[test]
    fn sequential_stream_is_detected_and_prefetched() {
        let mut pf = StreamPrefetcher::new(Scan::new(0, 10_000), 1).with_coverage(1.0);
        let mut prefetched = std::collections::HashSet::new();
        let mut covered = 0u64;
        let mut demands = 0u64;
        for _ in 0..30_000 {
            let (line, kind) = pf.next_tagged();
            match kind {
                AccessKind::Prefetch => {
                    prefetched.insert(line.value());
                }
                AccessKind::Demand => {
                    demands += 1;
                    if prefetched.contains(&line.value()) {
                        covered += 1;
                    }
                }
            }
        }
        let coverage = covered as f64 / demands as f64;
        assert!(
            coverage > 0.9,
            "steady scan should be nearly fully covered: {coverage}"
        );
    }

    #[test]
    fn random_stream_triggers_almost_no_prefetches() {
        let mut pf = StreamPrefetcher::new(UniformRandom::new(0, 100_000, 3), 1);
        for _ in 0..50_000 {
            pf.next_tagged();
        }
        let rate = pf.issued() as f64 / pf.demands() as f64;
        assert!(
            rate < 0.02,
            "random accesses shouldn't look like streams: {rate}"
        );
    }

    #[test]
    fn pointer_chase_defeats_the_prefetcher() {
        // The discriminator between "Talus removes the cliff" and "the
        // prefetcher hides it": a pointer chase has a scan's miss curve
        // but offers no streams to prefetch.
        use crate::generator::PointerChase;
        let mut pf = StreamPrefetcher::new(PointerChase::new(0, 100_000, 3), 1);
        for _ in 0..50_000 {
            pf.next_tagged();
        }
        let rate = pf.issued() as f64 / pf.demands() as f64;
        assert!(
            rate < 0.02,
            "pointer chases must not look like streams: {rate}"
        );
    }

    #[test]
    fn coverage_zero_issues_nothing() {
        let mut pf = StreamPrefetcher::new(Scan::new(0, 1000), 1).with_coverage(0.0);
        for _ in 0..5_000 {
            pf.next_tagged();
        }
        assert_eq!(pf.issued(), 0);
    }

    #[test]
    fn coverage_controls_issue_rate() {
        let run = |coverage: f64| {
            let mut pf = StreamPrefetcher::new(Scan::new(0, 100_000), 1).with_coverage(coverage);
            for _ in 0..40_000 {
                pf.next_tagged();
            }
            pf.issued() as f64 / pf.demands() as f64
        };
        let high = run(1.0);
        let low = run(0.5);
        assert!(
            high > 0.9,
            "full coverage issues ≈1 prefetch per demand: {high}"
        );
        assert!(
            (low / high - 0.5).abs() < 0.1,
            "half coverage issues ≈half: {low} vs {high}"
        );
    }

    #[test]
    fn no_duplicate_prefetches_on_a_steady_stream() {
        let mut pf = StreamPrefetcher::new(Scan::new(0, 50_000), 1).with_coverage(1.0);
        let mut seen = std::collections::HashMap::new();
        for _ in 0..60_000 {
            let (line, kind) = pf.next_tagged();
            if kind == AccessKind::Prefetch {
                *seen.entry(line.value()).or_insert(0u32) += 1;
            }
        }
        let dups = seen.values().filter(|&&c| c > 1).count();
        assert_eq!(
            dups, 0,
            "frontier tracking must prevent duplicate prefetches"
        );
    }

    #[test]
    fn interleaved_streams_tracked_independently() {
        // Two interleaved scans: both should be covered (2 of 8 trackers).
        #[derive(Debug)]
        struct TwoScans {
            a: Scan,
            b: Scan,
            flip: bool,
        }
        impl AccessGenerator for TwoScans {
            fn next_line(&mut self) -> LineAddr {
                self.flip = !self.flip;
                if self.flip {
                    self.a.next_line()
                } else {
                    self.b.next_line()
                }
            }
            fn footprint_lines(&self) -> u64 {
                self.a.footprint_lines() + self.b.footprint_lines()
            }
        }
        let gen = TwoScans {
            a: Scan::new(0, 30_000),
            b: Scan::new(1 << 30, 30_000),
            flip: false,
        };
        let mut pf = StreamPrefetcher::new(gen, 1).with_coverage(1.0);
        let mut prefetched = std::collections::HashSet::new();
        let (mut covered, mut demands) = (0u64, 0u64);
        for _ in 0..40_000 {
            let (line, kind) = pf.next_tagged();
            match kind {
                AccessKind::Prefetch => {
                    prefetched.insert(line.value());
                }
                AccessKind::Demand => {
                    demands += 1;
                    if prefetched.contains(&line.value()) {
                        covered += 1;
                    }
                }
            }
        }
        assert!(covered as f64 / demands as f64 > 0.9, "{covered}/{demands}");
    }

    #[test]
    fn determinism_per_seed() {
        let mut a = StreamPrefetcher::new(Scan::new(0, 1000), 42);
        let mut b = StreamPrefetcher::new(Scan::new(0, 1000), 42);
        for _ in 0..2000 {
            assert_eq!(a.next_tagged(), b.next_tagged());
        }
    }

    #[test]
    fn footprint_includes_overshoot() {
        let pf = StreamPrefetcher::new(Scan::new(0, 100), 1).with_distance(8);
        assert_eq!(pf.footprint_lines(), 108);
    }

    #[test]
    #[should_panic(expected = "coverage must be in [0, 1]")]
    fn rejects_bad_coverage() {
        let _ = StreamPrefetcher::new(Scan::new(0, 1), 1).with_coverage(1.5);
    }
}
