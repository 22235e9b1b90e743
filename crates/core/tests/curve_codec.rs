//! The curve codec against its old self.
//!
//! Before the values codec (`MissCurve::encode_values`, `decode_grid`,
//! `decode_values`) existed, the wire protocol and the journal each wrote
//! a curve one `f64` at a time and read it back into two `Vec<f64>`s
//! handed to `MissCurve::from_samples`, whose validation was one loop
//! with three early returns. These properties keep that path alive as
//! the oracle: the constructor behind its branch-free fast check reports
//! what the loop reported, the decoders return what `from_samples` over
//! separately parsed `f64`s returns, and the encoder writes the bytes the
//! per-`f64` writer wrote.
//!
//! A curve's bytes are a size grid and its miss values. The grid is
//! decoded and validated once, into a `Grid`, and every curve on it is
//! decoded from its miss values alone and shares it: the wire sends each
//! grid of a frame once, and the journal's reader keeps the last record's
//! grid while the size bytes repeat (pinned in talus-store's
//! `tests/curve_codec.rs`). So a body whose sizes fail, fails as
//! `from_samples` fails on those sizes under valid miss values; on a valid
//! grid, it fails or decodes as `from_samples` over the points, bit for
//! bit and error for error. `==` is still the point-wise comparison of two
//! `Vec<CurvePoint>`s.

use proptest::prelude::*;
use std::sync::Arc;
use talus_core::{CurveError, CurvePoint, MissCurve};

/// A body as a journal record holds one: its sizes, then its miss values.
fn body_of(points: &[CurvePoint]) -> Vec<u8> {
    let sizes: Vec<f64> = points.iter().map(|p| p.size).collect();
    let misses: Vec<f64> = points.iter().map(|p| p.misses).collect();
    let mut bytes = reference_values(&sizes);
    bytes.extend_from_slice(&reference_values(&misses));
    bytes
}

/// A body's grid decoded, then its miss values on it.
fn fresh(body: &[u8]) -> Result<MissCurve, CurveError> {
    let (sizes, values) = body.split_at(body.len() / 2);
    MissCurve::decode_values(&MissCurve::decode_grid(sizes)?, values)
}

fn points_of(curve: &MissCurve) -> Vec<CurvePoint> {
    curve.iter().collect()
}

/// `values` as the per-`f64` writer wrote each one.
fn reference_values(values: &[f64]) -> Vec<u8> {
    values
        .iter()
        .flat_map(|v| v.to_bits().to_le_bytes())
        .collect()
}

/// The per-`f64` reader, over a body of a whole number of points: sizes
/// checked under valid miss values first, then the points.
fn reference_decode(body: &[u8]) -> Result<MissCurve, CurveError> {
    assert_eq!(body.len() % 16, 0);
    let f64_at = |at: usize| {
        let word: [u8; 8] = body[at..at + 8].try_into().unwrap();
        f64::from_bits(u64::from_le_bytes(word))
    };
    let n = body.len() / 16;
    let sizes: Vec<f64> = (0..n).map(|i| f64_at(8 * i)).collect();
    let misses: Vec<f64> = (0..n).map(|i| f64_at(8 * (n + i))).collect();
    MissCurve::from_samples(&sizes, &vec![1.0; n])?;
    MissCurve::from_samples(&sizes, &misses)
}

/// `MissCurve::new`'s validation as it was before the fast check.
fn reference_violation(points: &[CurvePoint]) -> Option<CurveError> {
    if points.is_empty() {
        return Some(CurveError::Empty);
    }
    for (i, p) in points.iter().enumerate() {
        if !p.size.is_finite() || p.size < 0.0 {
            return Some(CurveError::InvalidSize {
                index: i,
                value: p.size,
            });
        }
        if !p.misses.is_finite() || p.misses < 0.0 {
            return Some(CurveError::InvalidMissValue {
                index: i,
                value: p.misses,
            });
        }
        if i > 0 && points[i - 1].size >= p.size {
            return Some(CurveError::NonIncreasingSizes { index: i });
        }
    }
    None
}

/// Bit-exact equality: `CurveError`'s `PartialEq` calls a NaN `value`
/// unequal to itself, and `==` on curves calls `-0.0` equal to `0.0`.
fn same(a: &Result<MissCurve, CurveError>, b: &Result<MissCurve, CurveError>) -> bool {
    match (a, b) {
        (Ok(a), Ok(b)) => bits(&points_of(a)) == bits(&points_of(b)),
        (Err(a), Err(b)) => same_error(a, b),
        _ => false,
    }
}

fn same_error(a: &CurveError, b: &CurveError) -> bool {
    use CurveError::{InvalidMissValue, InvalidSize};
    match (a, b) {
        (
            InvalidSize { index, value },
            InvalidSize {
                index: i2,
                value: v2,
            },
        )
        | (
            InvalidMissValue { index, value },
            InvalidMissValue {
                index: i2,
                value: v2,
            },
        ) => index == i2 && value.to_bits() == v2.to_bits(),
        _ => a == b,
    }
}

fn bits(points: &[CurvePoint]) -> Vec<(u64, u64)> {
    points
        .iter()
        .map(|p| (p.size.to_bits(), p.misses.to_bits()))
        .collect()
}

struct XorShift(u64);

impl XorShift {
    fn next(&mut self) -> u64 {
        self.0 ^= self.0 << 13;
        self.0 ^= self.0 >> 7;
        self.0 ^= self.0 << 17;
        self.0
    }

    fn below(&mut self, bound: usize) -> usize {
        (self.next() % bound as u64) as usize
    }
}

/// A valid curve's points: strictly increasing sizes from zero,
/// non-negative misses.
fn valid_points(n: usize, rng: &mut XorShift) -> Vec<CurvePoint> {
    let mut size = 0.0;
    (0..n)
        .map(|_| {
            let p = CurvePoint::new(size, (rng.next() % 1000) as f64 / 8.0);
            size += 0.5 + (rng.next() % 64) as f64;
            p
        })
        .collect()
}

/// Coordinates a curve must refuse, or must keep bit for bit.
const SPECIALS: [f64; 10] = [
    f64::NAN,
    f64::INFINITY,
    f64::NEG_INFINITY,
    -0.0,
    5e-324,  // smallest subnormal
    -5e-324, // negative, however small
    -1.0,
    0.0,
    f64::MAX,
    f64::MIN_POSITIVE,
];

/// Points of every kind the decoder can meet: a valid curve (`kind` 0),
/// one with specials planted at random coordinates (1), one whose sizes
/// stop increasing somewhere (2), both at once (3), or byte soup (4).
fn arbitrary_points(n: usize, kind: usize, seed: u64) -> Vec<CurvePoint> {
    let mut rng = XorShift(seed | 1);
    if kind == 4 {
        return (0..n)
            .map(|_| CurvePoint::new(f64::from_bits(rng.next()), f64::from_bits(rng.next())))
            .collect();
    }
    let mut points = valid_points(n, &mut rng);
    if kind & 1 != 0 && n > 0 {
        for _ in 0..1 + rng.below(3) {
            let special = SPECIALS[rng.below(SPECIALS.len())];
            let p = &mut points[rng.below(n)];
            if rng.next() & 1 == 0 {
                p.size = special;
            } else {
                p.misses = special;
            }
        }
    }
    if kind & 2 != 0 && n > 1 {
        let at = 1 + rng.below(n - 1);
        // Equal to, or below, its predecessor.
        points[at].size = points[at - 1].size - (rng.next() % 2) as f64;
    }
    points
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    /// `MissCurve::new` behind its fast check reports exactly what the loop did:
    /// the first offending point, size before misses before ordering.
    #[test]
    fn new_reports_what_the_reference_loop_reported(
        n in 1usize..80, kind in 0usize..5, seed in any::<u64>(),
    ) {
        let points = arbitrary_points(n, kind, seed);
        let got = MissCurve::new(points.iter().copied());
        match reference_violation(&points) {
            Some(want) => prop_assert!(same(&got, &Err(want))),
            None => prop_assert_eq!(bits(&points_of(&got.expect("valid"))), bits(&points)),
        }
    }

    /// The decoders return the curve, or the error, that `from_samples`
    /// over separately parsed `f64`s returns — bit for bit, index for
    /// index.
    #[test]
    fn decode_returns_what_from_samples_returned(
        n in 0usize..80, kind in 0usize..5, seed in any::<u64>(),
    ) {
        let body = body_of(&arbitrary_points(n, kind, seed));
        prop_assert!(same(&fresh(&body), &reference_decode(&body)));
    }

    /// A body cut between points decodes as the shorter body does; a grid
    /// or values cut inside a value are errors of their own, never a
    /// shorter curve.
    #[test]
    fn a_body_cut_at_every_byte(n in 1usize..12, kind in 0usize..5, seed in any::<u64>()) {
        let points = arbitrary_points(n, kind, seed);
        let body = body_of(&points);
        let (sizes, values) = body.split_at(body.len() / 2);
        for cut in 0..sizes.len() {
            let whole = cut / 8;
            if cut % 8 == 0 {
                let shorter = body_of(&points[..whole]);
                prop_assert!(same(&fresh(&shorter), &reference_decode(&shorter)));
                continue;
            }
            prop_assert_eq!(
                MissCurve::decode_grid(&sizes[..cut]),
                Err(CurveError::LengthMismatch { sizes: whole + 1, misses: whole })
            );
            if let Ok(grid) = MissCurve::decode_grid(&sizes[..8 * whole]) {
                prop_assert_eq!(
                    MissCurve::decode_values(&grid, &values[..cut]),
                    Err(CurveError::LengthMismatch { sizes: whole, misses: whole + 1 })
                );
            }
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// The encoder appends the bytes the per-`f64` writer wrote, for
    /// curves up to the wire's point cap, and decodes back to the curve.
    #[test]
    fn encode_writes_what_the_per_f64_writer_wrote(n in 1usize..=4096, seed in any::<u64>()) {
        let curve = MissCurve::new(valid_points(n, &mut XorShift(seed | 1))).expect("valid");
        let mut want = vec![0xA5; 7];
        let mut got = want.clone();
        want.extend_from_slice(&body_of(&points_of(&curve)));
        MissCurve::encode_values(curve.sizes(), &mut got);
        MissCurve::encode_values(curve.misses(), &mut got);
        prop_assert_eq!(got.len(), 7 + 2 * n * MissCurve::VALUE_BYTES);
        prop_assert!(got == want);
        prop_assert_eq!(fresh(&got[7..]), Ok(curve));
    }
}

#[test]
fn negative_zero_and_subnormals_survive_the_round_trip_bit_for_bit() {
    let curve = MissCurve::from_samples(&[-0.0, 5e-324, 1.0], &[5e-324, -0.0, 0.0]).unwrap();
    let back = fresh(&body_of(&points_of(&curve))).unwrap();
    assert_eq!(bits(&points_of(&back)), bits(&points_of(&curve)));
    assert_eq!(back.sizes()[0].to_bits(), (-0.0f64).to_bits());
}

#[test]
fn an_empty_body_is_an_empty_curve() {
    assert_eq!(fresh(&[]), Err(CurveError::Empty));
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    /// `==` on curves is `==` on their points as `Vec<CurvePoint>`s were
    /// compared — `-0.0` equal to `0.0` — whether the two grids are one
    /// allocation, two equal ones, or different.
    #[test]
    fn equality_is_point_wise(seed in any::<u64>()) {
        let mut rng = XorShift(seed | 1);
        let grids: [&[f64]; 4] = [&[0.0, 1.0, 2.0], &[-0.0, 1.0, 2.0], &[0.0, 1.0, 3.0], &[0.0, 1.0]];
        let decoded = grids.map(|sizes| MissCurve::decode_grid(&reference_values(sizes)).unwrap());
        let values = [0.0, -0.0, 1.0, 2.5];
        let curve = |rng: &mut XorShift| {
            let at = rng.below(grids.len());
            let misses: Vec<f64> = grids[at].iter().map(|_| values[rng.below(values.len())]).collect();
            if rng.next() & 1 == 0 {
                MissCurve::from_samples(grids[at], &misses).unwrap()
            } else {
                MissCurve::decode_values(&decoded[at], &reference_values(&misses)).unwrap()
            }
        };
        let (a, b) = (curve(&mut rng), curve(&mut rng));
        prop_assert_eq!(a == b, points_of(&a) == points_of(&b));
        prop_assert_eq!(b == a, a == b);
        prop_assert!(a == a.clone());
    }
}

// ---------------------------------------------------------------------
// Values-only curves on a decoded grid
// ---------------------------------------------------------------------

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    /// A grid decodes, or fails, as `from_samples` takes its sizes under
    /// valid miss values; a curve's values on a decoded grid decode, or
    /// fail, as `from_samples` takes the points — bit for bit — and the
    /// curve holds the very grid it was decoded on.
    #[test]
    fn values_on_a_grid_decode_as_their_points_do(
        n in 0usize..80, kind in 0usize..5, seed in any::<u64>(),
    ) {
        let points = arbitrary_points(n, kind, seed);
        let sizes: Vec<f64> = points.iter().map(|p| p.size).collect();
        let misses: Vec<f64> = points.iter().map(|p| p.misses).collect();
        let (mut grid_bytes, mut value_bytes) = (vec![0x5A; 3], Vec::new());
        MissCurve::encode_values(&sizes, &mut grid_bytes);
        MissCurve::encode_values(&misses, &mut value_bytes);
        prop_assert!(grid_bytes[3..] == reference_values(&sizes)[..]);
        prop_assert!(value_bytes == reference_values(&misses));

        match MissCurve::decode_grid(&grid_bytes[3..]) {
            Err(e) => {
                let want = MissCurve::from_samples(&sizes, &vec![1.0; n])
                    .expect_err("the sizes fail");
                prop_assert!(same_error(&e, &want), "{:?} against {:?}", e, want);
            }
            Ok(grid) => {
                prop_assert_eq!(bits_of(&grid), bits_of(&sizes));
                let got = MissCurve::decode_values(&grid, &value_bytes);
                prop_assert!(same(&got, &MissCurve::from_samples(&sizes, &misses)));
                if let Ok(curve) = got {
                    prop_assert!(Arc::ptr_eq(curve.grid(), &grid));
                    let mut again = Vec::new();
                    MissCurve::encode_values(curve.misses(), &mut again);
                    prop_assert!(again == value_bytes);
                }
            }
        }
    }

    /// A grid or a curve's values cut inside a value, or short of the
    /// grid, is a length error, never a shorter grid or curve.
    #[test]
    fn values_cut_at_every_byte(n in 1usize..12, seed in any::<u64>()) {
        let points = valid_points(n, &mut XorShift(seed | 1));
        let sizes: Vec<f64> = points.iter().map(|p| p.size).collect();
        let misses: Vec<f64> = points.iter().map(|p| p.misses).collect();
        let grid = MissCurve::decode_grid(&reference_values(&sizes)).expect("valid");
        let values = reference_values(&misses);
        for cut in 0..values.len() {
            let at = cut / MissCurve::VALUE_BYTES;
            if cut % MissCurve::VALUE_BYTES != 0 {
                prop_assert_eq!(
                    MissCurve::decode_grid(&values[..cut]),
                    Err(CurveError::LengthMismatch { sizes: at + 1, misses: at })
                );
            }
            prop_assert_eq!(
                MissCurve::decode_values(&grid, &values[..cut]),
                Err(CurveError::LengthMismatch {
                    sizes: n,
                    misses: cut.div_ceil(MissCurve::VALUE_BYTES),
                })
            );
        }
    }
}

fn bits_of(values: &[f64]) -> Vec<u64> {
    values.iter().map(|v| v.to_bits()).collect()
}

#[test]
fn an_empty_grid_is_an_empty_curve() {
    assert_eq!(MissCurve::decode_grid(&[]), Err(CurveError::Empty));
}

/// No values are decoded on an invalid grid: only `decode_grid` makes a
/// `Grid`, and it refuses one as `from_samples` refuses its sizes, so no
/// curve breaks its invariants whatever bytes it was decoded from.
#[test]
fn values_on_an_invalid_grid_are_refused() {
    for (sizes, want) in [
        ([64.0, 0.0], CurveError::NonIncreasingSizes { index: 1 }),
        (
            [-1.0, 64.0],
            CurveError::InvalidSize {
                index: 0,
                value: -1.0,
            },
        ),
    ] {
        let mut body = reference_values(&sizes);
        body.extend_from_slice(&reference_values(&[3.0, 2.0]));
        assert_eq!(fresh(&body), Err(want.clone()));
        assert_eq!(MissCurve::from_samples(&sizes, &[3.0, 2.0]), Err(want));
    }
}

/// Curves on one decoded grid share it; a grid decoded again from the
/// same bytes is another allocation.
#[test]
fn curves_decoded_on_one_grid_share_it() {
    let bytes = reference_values(&[0.0, 64.0, 128.0]);
    let grid = MissCurve::decode_grid(&bytes).unwrap();
    let a = MissCurve::decode_values(&grid, &reference_values(&[9.0, 5.0, 1.0])).unwrap();
    let b = MissCurve::decode_values(&grid, &reference_values(&[8.0, 4.0, 2.0])).unwrap();
    assert!(Arc::ptr_eq(a.grid(), b.grid()));
    assert_eq!(Arc::strong_count(&grid), 3, "two curves and the table");
    let again = MissCurve::decode_grid(&bytes).unwrap();
    assert!(!Arc::ptr_eq(&grid, &again));
    assert_eq!(
        a,
        MissCurve::decode_values(&again, &reference_values(&[9.0, 5.0, 1.0])).unwrap()
    );
}
