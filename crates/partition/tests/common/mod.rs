//! Case generators shared by the planner's test files: one `u64` fixes a
//! whole case — tenant count, grids, curve shapes, grain and capacity.

#![allow(dead_code)] // each test file uses its own subset

use talus_core::MissCurve;

/// xorshift64, so one `u64` from the strategy fixes a whole case.
pub struct Rng(pub u64);

impl Rng {
    pub fn next(&mut self) -> u64 {
        self.0 ^= self.0 << 13;
        self.0 ^= self.0 >> 7;
        self.0 ^= self.0 << 17;
        self.0
    }

    pub fn below(&mut self, n: u64) -> u64 {
        self.next() % n
    }

    pub fn unit(&mut self) -> f64 {
        (self.next() >> 11) as f64 / (1u64 << 53) as f64
    }
}

/// A size grid of 1–`max_points` points: on the grain's multiples or off
/// them, from zero or from a positive origin, evenly or unevenly spaced.
fn grid(rng: &mut Rng, max_points: u64) -> Vec<f64> {
    let points = 1 + rng.below(max_points) as usize;
    let origin = match rng.below(4) {
        0 => 37.25,
        1 => 300.0,
        _ => 0.0,
    };
    let even = rng.below(2) == 0;
    let step = [1.0, 16.0, 64.0, 7.3][rng.below(4) as usize];
    let mut size = origin;
    (0..points)
        .map(|_| {
            let here = size;
            size += if even {
                step
            } else {
                step * (0.05 + 2.0 * rng.unit())
            };
            here
        })
        .collect()
}

/// Miss values over `sizes` in one of the shapes that decide ties and
/// bridges: decays, cliffs, staircases, all-flat, and noise that rises.
/// Integer-valued shapes make exactly equal gains (ties) common.
fn misses(rng: &mut Rng, sizes: &[f64]) -> Vec<f64> {
    let n = sizes.len();
    let top = (1 + rng.below(40)) as f64;
    match rng.below(6) {
        0 => vec![top; n],
        1 => {
            let at = rng.below(n as u64) as usize;
            (0..n).map(|i| if i < at { top } else { 1.0 }).collect()
        }
        2 => {
            let knee = 1.0 + rng.unit() * n as f64;
            (0..n)
                .map(|i| 0.5 + top * (-(i as f64) / knee).exp())
                .collect()
        }
        3 => {
            let every = 1 + rng.below(9) as usize;
            (0..n)
                .map(|i| (top - (i / every) as f64).max(0.0))
                .collect()
        }
        4 => (0..n).map(|_| rng.below(12) as f64).collect(),
        _ => {
            let mut m = top;
            (0..n)
                .map(|_| {
                    let here = m;
                    m = (m - rng.below(4) as f64).max(0.0);
                    here
                })
                .collect()
        }
    }
}

#[derive(Debug, Clone)]
pub struct Case {
    pub curves: Vec<MissCurve>,
    pub capacity: u64,
    pub grain: u64,
}

/// 1–8 tenants (some sharing one curve, so whole offers tie) of up to
/// `max_points` points, with a capacity that may be below one grain, off
/// the grain's multiples, or far past every curve's last point — but at
/// most `max_grains` grains, which bounds the reference allocators' (for
/// lookahead, quadratic) cost.
pub fn case(rng: &mut Rng, max_points: u64, max_grains: u64) -> Case {
    let tenants = 1 + rng.below(8) as usize;
    let mut curves: Vec<MissCurve> = Vec::with_capacity(tenants);
    for _ in 0..tenants {
        if !curves.is_empty() && rng.below(4) == 0 {
            let twin = curves[rng.below(curves.len() as u64) as usize].clone();
            curves.push(twin);
            continue;
        }
        let sizes = grid(rng, max_points);
        let misses = misses(rng, &sizes);
        curves.push(MissCurve::from_samples(&sizes, &misses).expect("valid curve"));
    }
    let grain = [1, 3, 16, 64, 100][rng.below(5) as usize];
    let capacity = match rng.below(4) {
        0 => rng.below(grain),
        1 => grain * rng.below(80),
        2 => grain * rng.below(80) + rng.below(grain),
        _ => {
            let reach: f64 = curves.iter().map(MissCurve::max_size).sum();
            reach as u64 + grain * (1 + rng.below(40))
        }
    };
    let capacity = capacity.min(grain * max_grains + grain / 2);
    Case {
        curves,
        capacity,
        grain,
    }
}

/// A case for the hull climb's runs of grants: every tenant a convex
/// staircase of slopes, each slope held for a run of grains and chosen
/// from one small set of integers shared by all tenants, ending in a flat
/// tail — so one tenant keeps winning for runs at a time, its gains tie
/// exactly with tenants before and after it, and the climb ends in
/// zero-gain rounds. Grids sit on the grain's multiples, so every gain is
/// an exact integer.
pub fn run_case(rng: &mut Rng) -> Case {
    let tenants = 1 + rng.below(8) as usize;
    let grain = [1, 16, 64][rng.below(3) as usize];
    let mut curves: Vec<MissCurve> = Vec::with_capacity(tenants);
    for _ in 0..tenants {
        if !curves.is_empty() && rng.below(3) == 0 {
            let twin = curves[rng.below(curves.len() as u64) as usize].clone();
            curves.push(twin);
            continue;
        }
        // Slopes per grain, steepest first: a convex curve.
        let mut slopes: Vec<u64> = (0..1 + rng.below(4)).map(|_| rng.below(5)).collect();
        slopes.sort_unstable_by(|a, b| b.cmp(a));
        let mut size = 0u64;
        let mut misses: u64 = slopes.iter().map(|s| s * 30).sum::<u64>() + rng.below(3);
        let (mut sizes, mut values) = (vec![0.0], vec![misses as f64]);
        for slope in slopes {
            let run = 1 + rng.below(12);
            size += run * grain;
            misses -= slope * run;
            sizes.push(size as f64);
            values.push(misses as f64);
        }
        // The flat tail.
        sizes.push((size + grain * (1 + rng.below(8))) as f64);
        values.push(misses as f64);
        curves.push(MissCurve::from_samples(&sizes, &values).expect("valid curve"));
    }
    let reach: f64 = curves.iter().map(MissCurve::max_size).sum();
    let capacity = match rng.below(3) {
        0 => grain * rng.below(40),
        _ => reach as u64 + grain * rng.below(20),
    };
    Case {
        curves,
        capacity,
        grain,
    }
}
