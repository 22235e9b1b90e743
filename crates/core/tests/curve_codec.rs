//! The curve codec against its old self.
//!
//! Before `MissCurve::encode_points`/`decode_points` existed, the wire
//! protocol and the journal each wrote a curve one `f64` at a time and
//! read it back into two `Vec<f64>`s handed to `MissCurve::from_samples`,
//! whose validation was one loop with three early returns. These
//! properties keep that path alive as the oracle: the constructor behind
//! its branch-free fast check reports what the loop reported, the decoder
//! returns what `from_samples` over separately parsed `f64`s returns, and
//! the encoder writes the bytes the per-`f64` writer wrote.

use proptest::prelude::*;
use talus_core::{CurveError, CurvePoint, MissCurve};

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

/// The per-`f64` writer both codecs used.
fn reference_encode(points: &[CurvePoint], out: &mut Vec<u8>) {
    for p in points {
        out.extend_from_slice(&p.size.to_bits().to_le_bytes());
        out.extend_from_slice(&p.misses.to_bits().to_le_bytes());
    }
}

/// The per-`f64` reader both codecs used, over a whole number of points.
fn reference_decode(bytes: &[u8]) -> Result<MissCurve, CurveError> {
    assert_eq!(bytes.len() % 16, 0);
    let f64_at = |at: usize| {
        let word: [u8; 8] = bytes[at..at + 8].try_into().unwrap();
        f64::from_bits(u64::from_le_bytes(word))
    };
    let mut sizes = Vec::new();
    let mut misses = Vec::new();
    for point in 0..bytes.len() / 16 {
        sizes.push(f64_at(16 * point));
        misses.push(f64_at(16 * point + 8));
    }
    MissCurve::from_samples(&sizes, &misses)
}

/// Bit-exact equality: `CurveError`'s `PartialEq` calls a NaN `value`
/// unequal to itself, and `==` on curves calls `-0.0` equal to `0.0`.
fn same(a: &Result<MissCurve, CurveError>, b: &Result<MissCurve, CurveError>) -> bool {
    match (a, b) {
        (Ok(a), Ok(b)) => bits(a.points()) == bits(b.points()),
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
            None => prop_assert_eq!(bits(got.expect("valid").points()), bits(&points)),
        }
    }

    /// The decoder returns the curve, or the error, that `from_samples`
    /// over separately parsed `f64`s returns — bit for bit, index for
    /// index.
    #[test]
    fn decode_returns_what_from_samples_returned(
        n in 0usize..80, kind in 0usize..5, seed in any::<u64>(),
    ) {
        let mut bytes = Vec::new();
        reference_encode(&arbitrary_points(n, kind, seed), &mut bytes);
        prop_assert!(same(&MissCurve::decode_points(&bytes), &reference_decode(&bytes)));
    }

    /// A body cut between points decodes as the shorter body does; one
    /// cut inside a point is an error of its own, never a shorter curve.
    #[test]
    fn a_body_cut_at_every_byte(n in 1usize..12, kind in 0usize..5, seed in any::<u64>()) {
        let mut bytes = Vec::new();
        reference_encode(&arbitrary_points(n, kind, seed), &mut bytes);
        for cut in 0..bytes.len() {
            let got = MissCurve::decode_points(&bytes[..cut]);
            if cut % 16 == 0 {
                prop_assert!(same(&got, &reference_decode(&bytes[..cut])));
            } else {
                let whole = cut / 16;
                prop_assert_eq!(
                    got,
                    Err(CurveError::LengthMismatch { sizes: whole + 1, misses: whole })
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
        reference_encode(curve.points(), &mut want);
        curve.encode_points(&mut got);
        prop_assert_eq!(got.len(), 7 + n * MissCurve::POINT_BYTES);
        prop_assert!(got == want);
        prop_assert_eq!(MissCurve::decode_points(&got[7..]), Ok(curve));
    }
}

#[test]
fn negative_zero_and_subnormals_survive_the_round_trip_bit_for_bit() {
    let curve = MissCurve::from_samples(&[-0.0, 5e-324, 1.0], &[5e-324, -0.0, 0.0]).unwrap();
    let mut bytes = Vec::new();
    curve.encode_points(&mut bytes);
    let back = MissCurve::decode_points(&bytes).unwrap();
    assert_eq!(bits(back.points()), bits(curve.points()));
    assert_eq!(back.points()[0].size.to_bits(), (-0.0f64).to_bits());
}

#[test]
fn an_empty_body_is_an_empty_curve() {
    assert_eq!(MissCurve::decode_points(&[]), Err(CurveError::Empty));
}
