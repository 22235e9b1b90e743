//! Shared fixtures for the Criterion benches, and the paired-run verdict
//! behind `scripts/pairs.sh` ([`pairs`]).

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod pairs;

use talus_core::{CurvePoint, MissCurve};

/// A deterministic pseudo-random miss curve with `points` samples and a
/// handful of plateaus/cliffs, for hull and planning benches.
pub fn synthetic_curve(points: usize, seed: u64) -> MissCurve {
    assert!(points >= 2, "need at least two points");
    let mut state = seed | 1;
    let mut next = move || {
        state ^= state << 13;
        state ^= state >> 7;
        state ^= state << 17;
        state
    };
    let mut m = 200.0 + (next() % 100) as f64;
    let pts: Vec<CurvePoint> = (0..points)
        .map(|i| {
            // Mostly plateaus with occasional cliffs.
            if next() % 7 == 0 {
                m = (m - (next() % 40) as f64).max(0.0);
            } else {
                m = (m - (next() % 3) as f64).max(0.0);
            }
            CurvePoint::new(i as f64 * 64.0, m)
        })
        .collect();
    MissCurve::new(pts).expect("synthetic curve is valid")
}

/// The curve shapes the repo benchmark's plane workloads submit
/// (`benchmark/src/pool.rs`), which [`synthetic_curve`]'s staircase does
/// not cover: its hull keeps a handful of vertices, these keep up to all
/// 65 points or bridge long near-collinear plateaus.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PoolShape {
    /// Smooth convex decay: every point is a hull vertex.
    Convex,
    /// One plateau ending in a cliff, then a floor plateau.
    PlateauCliff,
    /// Two plateaus, each ending in a cliff.
    TwoCliffs,
    /// A convex region followed by a cliff (perlbench/cactusADM).
    ConvexThenCliff,
}

/// A deterministic curve of the given [`PoolShape`] on the 65-point grid a
/// monitor emits over a 65 536-line cache (`0, 1024, …, 65 536`), with the
/// pool's parameter ranges and its 0.1 %-a-point plateau slope.
pub fn pool_curve(shape: PoolShape, seed: u64) -> MissCurve {
    const POINTS: usize = 65;
    // Spread the seed first: neighbouring seeds must not share a stream.
    let mut state = seed.wrapping_mul(0x9E37_79B9_7F4A_7C15) | 1;
    let mut unit = move || {
        state ^= state << 13;
        state ^= state >> 7;
        state ^= state << 17;
        (state >> 11) as f64 / (1u64 << 53) as f64
    };
    let mut range = |lo: f64, hi: f64| lo + (hi - lo) * unit();
    let top = range(8.0, 40.0);
    let floor = top * range(0.02, 0.2);
    let sloped = |level: f64, i: usize| level * (1.0 - 0.001 * i as f64);
    let misses: Vec<f64> = match shape {
        PoolShape::Convex => {
            let knee = range(4.0, 24.0);
            (0..POINTS)
                .map(|i| floor + (top - floor) * (-(i as f64) / knee).exp())
                .collect()
        }
        PoolShape::PlateauCliff | PoolShape::TwoCliffs => {
            let count = if shape == PoolShape::TwoCliffs { 2 } else { 1 };
            let mut edges: Vec<usize> = (0..count)
                .map(|_| 4 + range(0.0, (POINTS - 8) as f64) as usize)
                .collect();
            edges.sort_unstable();
            (0..POINTS)
                .map(|i| {
                    let passed = edges.iter().filter(|&&e| i >= e).count();
                    sloped(top - (top - floor) * passed as f64 / count as f64, i)
                })
                .collect()
        }
        PoolShape::ConvexThenCliff => {
            let edge = 16 + range(0.0, (POINTS - 24) as f64) as usize;
            let shelf = floor + (top - floor) * range(0.3, 0.6);
            let knee = range(3.0, 10.0);
            (0..POINTS)
                .map(|i| {
                    if i < edge {
                        shelf + (top - shelf) * (-(i as f64) / knee).exp()
                    } else {
                        sloped(floor, i)
                    }
                })
                .collect()
        }
    };
    let sizes: Vec<f64> = (0..POINTS).map(|i| i as f64 * 1024.0).collect();
    MissCurve::from_samples(&sizes, &misses).expect("pool curve is valid")
}

/// One cache's worth of plane-workload curves: four tenants, one of each
/// [`PoolShape`].
pub fn pool_curves(seed: u64) -> Vec<MissCurve> {
    [
        PoolShape::Convex,
        PoolShape::PlateauCliff,
        PoolShape::TwoCliffs,
        PoolShape::ConvexThenCliff,
    ]
    .into_iter()
    .zip(seed..)
    .map(|(shape, seed)| pool_curve(shape, seed))
    .collect()
}

/// A fixed pseudo-random walk over `0..n`, `len` steps long: the order a
/// *rotating* bench row visits its `n` inputs in. A row that cycles its
/// inputs in a fixed short order lets the branch predictor learn the
/// cycle; a walk tens of thousands of steps long with no period does not.
pub fn rotation_order(n: usize, len: usize, seed: u64) -> Vec<usize> {
    assert!(n > 0, "need something to rotate over");
    let mut state = seed.wrapping_mul(0x9E37_79B9_7F4A_7C15) | 1;
    (0..len)
        .map(|_| {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            ((state >> 16) % n as u64) as usize
        })
        .collect()
}

/// A deterministic mixed access stream (hot set + scan) of `len` lines.
pub fn synthetic_stream(len: usize, hot_lines: u64, scan_lines: u64, seed: u64) -> Vec<u64> {
    let mut state = seed | 1;
    let mut scan = 0u64;
    (0..len)
        .map(|_| {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            if state >> 63 == 0 {
                (state >> 33) % hot_lines
            } else {
                scan += 1;
                (1 << 40) + (scan % scan_lines)
            }
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn synthetic_curve_is_valid_and_sized() {
        let c = synthetic_curve(64, 9);
        assert_eq!(c.len(), 64);
        assert!(c.is_monotone(1e-9));
    }

    #[test]
    fn pool_curves_have_the_hulls_their_shapes_promise() {
        for seed in 0..32 {
            let curves = pool_curves(seed);
            assert_eq!(curves.len(), 4);
            for c in &curves {
                assert_eq!((c.len(), c.max_size()), (65, 65_536.0));
                assert!(c.is_monotone(0.0), "seed {seed} rises");
            }
            let vertices: Vec<usize> = curves.iter().map(|c| c.convex_hull().len()).collect();
            assert_eq!(vertices[0], 65, "a convex decay keeps every point");
            // Plateaus are collinear up to rounding: a few points survive.
            assert!(vertices[1] < 24 && vertices[2] < 24, "{vertices:?}");
            assert!((4..65).contains(&vertices[3]), "{vertices:?}");
        }
    }

    #[test]
    fn synthetic_stream_mixes_components() {
        let s = synthetic_stream(10_000, 100, 1000, 3);
        assert!(s.iter().any(|&l| l < 100));
        assert!(s.iter().any(|&l| l >= 1 << 40));
    }
}
