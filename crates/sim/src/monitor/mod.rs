//! Miss-curve monitors.
//!
//! Talus is driven entirely by miss curves (paper §VI-C). This module
//! provides several ways to obtain them:
//!
//! - [`MattsonMonitor`]: exact LRU stack-distance profiling — the ground
//!   truth the hardware monitors are tested against;
//! - [`SampledMattson`]: SHARDS-style spatially-hash-sampled stack
//!   distances — the software analogue of the paper's §VI-C address-based
//!   sampling [11, 42], statistically matching the exact monitor at a
//!   fraction of the record cost;
//! - [`Umon`] / [`UmonPair`]: hardware-faithful utility monitors (Qureshi & Patt) —
//!   a small sampled LRU tag array with per-way hit counters, plus the
//!   paper's second, more sparsely sampled monitor that extends coverage
//!   to 4× the LLC size;
//! - [`CurveSampler`]: the brute-force multi-monitor approach the paper
//!   uses for SRRIP (one sampled monitor per curve point), applicable to
//!   any policy at proportionally higher cost;
//! - [`ThreePointMonitor`]: the CRUISE-style 3-point alternative §VI-C
//!   mentions — cheap, but too coarse and too short-sighted for Talus
//!   (see the monitor ablation);
//! - [`AdaptiveCurveSampler`]: the §VI-C *future-work* design — a small
//!   bank that re-aims its sampling rates at the hull's active region
//!   every interval, matching the fixed 64-monitor bank at a fraction of
//!   the state.
//!
//! [`MonitorSource`] adapts any of them to the `talus-core`
//! [`CurveSource`](talus_core::CurveSource) seam: it drives an address
//! stream through the monitor and emits one curve per interval, which is
//! how the experiment sweeps and the online reconfiguration service
//! ingest simulated curves.

mod adaptive;
mod marks;
mod mattson;
mod sampled;
mod sampler;
mod source;
mod threepoint;
mod umon;

pub use adaptive::AdaptiveCurveSampler;
pub use mattson::MattsonMonitor;
pub use sampled::SampledMattson;
pub use sampler::CurveSampler;
pub use source::MonitorSource;
pub use threepoint::ThreePointMonitor;
pub use umon::{Umon, UmonPair};

use crate::addr::LineAddr;
use talus_core::MissCurve;

/// The default 64-point evaluation grid for a monitor resolving capacities
/// up to `cap` lines: evenly spaced, clamped to `cap`, and deduplicated —
/// small caps would otherwise repeat the same few sizes and overshoot the
/// tracked range.
pub(crate) fn default_grid(cap: u64) -> Vec<u64> {
    const POINTS: u64 = 64;
    let mut grid: Vec<u64> = (1..=POINTS)
        .map(|i| ((i as u128 * cap as u128 / POINTS as u128) as u64).clamp(1, cap))
        .collect();
    grid.dedup();
    grid
}

/// A monitor that observes an access stream and produces a miss curve in
/// **misses per access** over capacities in **lines**.
pub trait Monitor {
    /// Observes one access.
    fn record(&mut self, line: LineAddr);

    /// Observes a block of accesses at once.
    ///
    /// Semantically identical to calling [`record`](Monitor::record) per
    /// line, in order — but monitors with per-access bookkeeping can
    /// amortize it across the block ([`MattsonMonitor`] hoists its
    /// compaction check, [`SampledMattson`] hash-filters the block before
    /// touching any distance state). All batch-aware producers
    /// ([`MonitorSource`], `TalusSingleCache::access_block`, the
    /// experiment sweeps, `talus-serve`'s replay path) ingest through
    /// this entry point.
    fn record_block(&mut self, lines: &[LineAddr]) {
        for &line in lines {
            self.record(line);
        }
    }

    /// The miss curve estimated from everything recorded so far.
    ///
    /// Curves always include the point `(0, miss-rate-at-zero)` so Talus
    /// can plan bypass partitions.
    fn curve(&self) -> MissCurve;

    /// Accesses observed (after any sampling filter).
    fn sampled_accesses(&self) -> u64;

    /// Forgets accumulated statistics (monitored tags may be kept).
    fn reset(&mut self);
}

impl Monitor for Box<dyn Monitor> {
    fn record(&mut self, line: LineAddr) {
        (**self).record(line)
    }

    fn record_block(&mut self, lines: &[LineAddr]) {
        (**self).record_block(lines)
    }

    fn curve(&self) -> MissCurve {
        (**self).curve()
    }

    fn sampled_accesses(&self) -> u64 {
        (**self).sampled_accesses()
    }

    fn reset(&mut self) {
        (**self).reset()
    }
}

#[cfg(test)]
pub(crate) mod test_support {
    use crate::addr::LineAddr;

    /// A deterministic pseudo-random access stream over `lines` distinct
    /// lines.
    pub fn uniform_stream(lines: u64, len: usize, seed: u64) -> Vec<LineAddr> {
        let mut state = seed | 1;
        (0..len)
            .map(|_| {
                state = state
                    .wrapping_mul(6364136223846793005)
                    .wrapping_add(1442695040888963407);
                LineAddr((state >> 33) % lines)
            })
            .collect()
    }

    /// A cyclic scan over `lines` distinct lines.
    pub fn scan_stream(lines: u64, len: usize) -> Vec<LineAddr> {
        (0..len as u64).map(|i| LineAddr(i % lines)).collect()
    }

    /// A deterministic generator for the reference streams.
    pub struct Rng(pub u64);

    impl Rng {
        /// Uniform in `[0, n)`.
        pub fn below(&mut self, n: u64) -> u64 {
            self.0 = self
                .0
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            ((self.0 >> 33) * n) >> 31
        }
    }

    /// One interval of a reference stream: a uniform mix, a cyclic scan
    /// or a skewed hot/cold mix over a working set below, at or above
    /// `cap`, on lines that overlap the earlier intervals'.
    pub fn interval(rng: &mut Rng, cap: u64) -> Vec<LineAddr> {
        let set = [cap / 2 + 1, cap, 2 * cap + 7][rng.below(3) as usize];
        let base = rng.below(3) * cap;
        let len = 1000 + rng.below(8000) as usize;
        let shape = rng.below(3);
        (0..len as u64)
            .map(|i| {
                let offset = match shape {
                    0 => rng.below(set),
                    1 => i % set,
                    _ if rng.below(8) > 0 => rng.below((cap / 8).max(1)),
                    _ => rng.below(4 * cap + 64),
                };
                LineAddr(base + offset)
            })
            .collect()
    }
}
