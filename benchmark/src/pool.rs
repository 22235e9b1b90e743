//! The seeded pool of miss curves the plane workloads submit.
//!
//! Curves are the shapes the paper cares about — cliffs and plateaus
//! beside smooth convex decays — on the 65-point grid a monitor emits
//! (`0, step, …, 64·step`). The pool is pairwise distinct and a slot
//! (cache, tenant) walks it one entry per visit, so two consecutive
//! submissions to a slot always differ and the plane's bit-identical
//! dedup only ever fires on the duplicates the benchmark injects.

use crate::rng::Rng;
use talus_core::{mix64, MissCurve};

/// Points per curve: size 0 plus 64 grid sizes, as monitors produce.
pub const POINTS: usize = 65;

#[derive(Debug)]
pub struct CurvePool {
    curves: Vec<MissCurve>,
}

impl CurvePool {
    /// `n` pairwise-distinct curves over `[0, capacity]`, a pure function
    /// of `seed`.
    pub fn generate(seed: u64, n: usize, capacity: u64) -> CurvePool {
        assert!(n > 1, "a slot needs at least two curves to alternate");
        let step = capacity as f64 / (POINTS - 1) as f64;
        let sizes: Vec<f64> = (0..POINTS).map(|i| i as f64 * step).collect();
        let mut rng = Rng::new(seed ^ 0x706F_6F6C);
        let curves = (0..n)
            .map(|index| {
                // The index-dependent top makes every curve distinct even
                // if two draws of the shape parameters collide.
                let top = rng.range(8.0, 40.0) + index as f64 * 1e-3;
                let floor = top * rng.range(0.02, 0.2);
                let misses = match rng.below(4) {
                    0 => convex(&mut rng, top, floor),
                    1 => cliffs(&mut rng, top, floor, 1),
                    2 => cliffs(&mut rng, top, floor, 2),
                    _ => convex_then_cliff(&mut rng, top, floor),
                };
                MissCurve::from_samples(&sizes, &misses).expect("generated curves are valid")
            })
            .collect();
        CurvePool { curves }
    }

    pub fn len(&self) -> usize {
        self.curves.len()
    }

    /// The pool index slot (`cache`, `tenant`) submits on its `visit`th
    /// visit: a per-slot base plus one step per visit.
    pub fn slot_index(&self, cache: usize, tenant: usize, visit: u64) -> usize {
        let base = mix64(0x736C_6F74, (cache * 64 + tenant) as u64);
        ((base % self.len() as u64 + visit) % self.len() as u64) as usize
    }

    pub fn curve(&self, index: usize) -> &MissCurve {
        &self.curves[index]
    }
}

/// Smooth convex decay from `top` to `floor`.
fn convex(rng: &mut Rng, top: f64, floor: f64) -> Vec<f64> {
    let knee = rng.range(4.0, 24.0);
    (0..POINTS)
        .map(|i| floor + (top - floor) * (-(i as f64) / knee).exp())
        .collect()
}

/// `count` plateaus each ending in a cliff, then a floor plateau.
fn cliffs(rng: &mut Rng, top: f64, floor: f64, count: usize) -> Vec<f64> {
    let mut edges: Vec<usize> = (0..count).map(|_| 4 + rng.below(POINTS - 8)).collect();
    edges.sort_unstable();
    (0..POINTS)
        .map(|i| {
            let passed = edges.iter().filter(|&&e| i >= e).count();
            // A slight slope keeps plateaus strictly decreasing, as
            // measured plateaus are.
            let level = top - (top - floor) * passed as f64 / count as f64;
            level * (1.0 - 0.001 * i as f64)
        })
        .collect()
}

/// A convex region followed by a cliff (the perlbench/cactusADM shape).
fn convex_then_cliff(rng: &mut Rng, top: f64, floor: f64) -> Vec<f64> {
    let edge = 16 + rng.below(POINTS - 24);
    let shelf = floor + (top - floor) * rng.range(0.3, 0.6);
    let knee = rng.range(3.0, 10.0);
    (0..POINTS)
        .map(|i| {
            if i < edge {
                shelf + (top - shelf) * (-(i as f64) / knee).exp()
            } else {
                floor * (1.0 - 0.001 * i as f64)
            }
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashSet;

    fn bits(c: &MissCurve) -> Vec<u64> {
        c.iter().map(|p| p.misses.to_bits()).collect()
    }

    #[test]
    fn pool_is_a_function_of_the_seed() {
        let a = CurvePool::generate(5, 64, 65_536);
        let b = CurvePool::generate(5, 64, 65_536);
        let c = CurvePool::generate(6, 64, 65_536);
        assert!((0..64).all(|i| a.curve(i) == b.curve(i)));
        assert!((0..64).any(|i| a.curve(i) != c.curve(i)));
    }

    #[test]
    fn curves_are_distinct_monotone_and_on_the_monitor_grid() {
        let pool = CurvePool::generate(1, 1024, 65_536);
        let mut seen = HashSet::new();
        let mut shapes_with_cliffs = 0;
        for i in 0..pool.len() {
            let c = pool.curve(i);
            assert_eq!(c.len(), POINTS);
            assert_eq!(c.max_size(), 65_536.0);
            assert!(c.is_monotone(0.0), "curve {i} rises");
            assert!(seen.insert(bits(c)), "curve {i} repeats an earlier one");
            if !c.is_convex(1e-9) {
                shapes_with_cliffs += 1;
            }
        }
        assert!(shapes_with_cliffs > pool.len() / 4, "cliffs are common");
        assert!(shapes_with_cliffs < pool.len(), "so are convex curves");
    }

    #[test]
    fn a_slot_never_repeats_consecutively() {
        let pool = CurvePool::generate(3, 1024, 65_536);
        for cache in [0, 1, 4095, 8191] {
            for tenant in 0..4 {
                for visit in 0..2100u64 {
                    let now = pool.slot_index(cache, tenant, visit);
                    let next = pool.slot_index(cache, tenant, visit + 1);
                    assert_ne!(pool.curve(now), pool.curve(next));
                }
            }
        }
    }
}
