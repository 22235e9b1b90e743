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
//!
//! A curve keeps its miss values beside a size grid it shares, and a
//! decoder hands the next curve on the same sizes the grid it decoded
//! last ([`GridCache`]). The second half of this file pins that sharing
//! down: a decode that reuses a grid is a fresh decode bit for bit, a grid
//! is reused exactly when the size bytes are the same, and `==` is still
//! the point-wise comparison of two `Vec<CurvePoint>`s.
//!
//! The wire sends a grid once and each curve on it as its miss values
//! alone (`encode_values`, `decode_grid`, `decode_values`). The last part
//! holds that codec to `decode_points` over the same points: a grid fails
//! as its sizes fail there, and a curve on a grid is the point decode bit
//! for bit, error for error.

use proptest::prelude::*;
use std::sync::Arc;
use talus_core::{CurveError, CurvePoint, GridCache, MissCurve};

/// A decode through a cache of its own: what a curve decodes to alone.
fn fresh(bytes: &[u8]) -> Result<MissCurve, CurveError> {
    MissCurve::decode_points(bytes, &mut GridCache::default())
}

fn points_of(curve: &MissCurve) -> Vec<CurvePoint> {
    curve.iter().collect()
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

    /// The decoder returns the curve, or the error, that `from_samples`
    /// over separately parsed `f64`s returns — bit for bit, index for
    /// index.
    #[test]
    fn decode_returns_what_from_samples_returned(
        n in 0usize..80, kind in 0usize..5, seed in any::<u64>(),
    ) {
        let mut bytes = Vec::new();
        reference_encode(&arbitrary_points(n, kind, seed), &mut bytes);
        prop_assert!(same(&fresh(&bytes), &reference_decode(&bytes)));
    }

    /// A body cut between points decodes as the shorter body does; one
    /// cut inside a point is an error of its own, never a shorter curve.
    #[test]
    fn a_body_cut_at_every_byte(n in 1usize..12, kind in 0usize..5, seed in any::<u64>()) {
        let mut bytes = Vec::new();
        reference_encode(&arbitrary_points(n, kind, seed), &mut bytes);
        for cut in 0..bytes.len() {
            let got = fresh(&bytes[..cut]);
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
        reference_encode(&points_of(&curve), &mut want);
        curve.encode_points(&mut got);
        prop_assert_eq!(got.len(), 7 + n * MissCurve::POINT_BYTES);
        prop_assert!(got == want);
        prop_assert_eq!(fresh(&got[7..]), Ok(curve));
    }
}

#[test]
fn negative_zero_and_subnormals_survive_the_round_trip_bit_for_bit() {
    let curve = MissCurve::from_samples(&[-0.0, 5e-324, 1.0], &[5e-324, -0.0, 0.0]).unwrap();
    let mut bytes = Vec::new();
    curve.encode_points(&mut bytes);
    let back = fresh(&bytes).unwrap();
    assert_eq!(bits(&points_of(&back)), bits(&points_of(&curve)));
    assert_eq!(back.sizes()[0].to_bits(), (-0.0f64).to_bits());
}

#[test]
fn an_empty_body_is_an_empty_curve() {
    assert_eq!(fresh(&[]), Err(CurveError::Empty));
}

// ---------------------------------------------------------------------
// Shared grids
// ---------------------------------------------------------------------

fn encoded(sizes: &[f64], misses: &[f64]) -> Vec<u8> {
    let points: Vec<CurvePoint> = sizes
        .iter()
        .zip(misses)
        .map(|(&s, &m)| CurvePoint::new(s, m))
        .collect();
    let mut bytes = Vec::new();
    reference_encode(&points, &mut bytes);
    bytes
}

/// The size bytes of an encoded body, as the cache compares them.
fn size_bits(bytes: &[u8]) -> Vec<u64> {
    bytes
        .chunks_exact(16)
        .map(|c| u64::from_le_bytes(c[..8].try_into().unwrap()))
        .collect()
}

/// A next body for a stream whose last body was `prev`: on the same sizes
/// with new miss values (valid or not), on sizes one ulp, a `-0.0` or one
/// point away from them, or anything at all.
fn next_body(prev: &[CurvePoint], rng: &mut XorShift) -> Vec<CurvePoint> {
    let mut next: Vec<CurvePoint> = prev
        .iter()
        .map(|p| CurvePoint::new(p.size, (rng.next() % 64) as f64 / 4.0))
        .collect();
    if next.is_empty() {
        return arbitrary_points(1 + rng.below(20), rng.below(5), rng.next());
    }
    let at = rng.below(next.len());
    match rng.below(9) {
        0..=2 => {} // the same sizes
        3 => next[at].misses = SPECIALS[rng.below(SPECIALS.len())],
        4 => next[at].size = f64::from_bits(next[at].size.to_bits() + 1),
        5 => next[at].size = f64::from_bits(next[at].size.to_bits().saturating_sub(1)),
        6 => {
            next[at].size = if next[at].size == 0.0 {
                -0.0
            } else {
                SPECIALS[rng.below(10)]
            }
        }
        7 => {
            if rng.next() & 1 == 0 {
                next.pop();
            } else {
                let last = next[next.len() - 1].size;
                next.push(CurvePoint::new(last + 1.0, 1.0));
            }
        }
        _ => return arbitrary_points(1 + rng.below(20), rng.below(5), rng.next()),
    }
    next
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    /// A stream of bodies through one cache, as a frame's or a journal's
    /// curves go: every decode is the fresh decode bit for bit (curve or
    /// error), a curve shares the last decoded grid exactly when its size
    /// bytes are that grid's, and every decoded curve re-encodes to its
    /// body.
    #[test]
    fn decoding_with_a_reused_grid_is_a_fresh_decode(seed in any::<u64>(), len in 1usize..12) {
        let mut rng = XorShift(seed | 1);
        let mut grids = GridCache::default();
        let mut last: Option<MissCurve> = None;
        let mut body = arbitrary_points(1 + rng.below(40), rng.below(2), rng.next());
        for step in 0..len {
            let mut bytes = Vec::new();
            reference_encode(&body, &mut bytes);
            let got = MissCurve::decode_points(&bytes, &mut grids);
            prop_assert!(same(&got, &fresh(&bytes)), "step {}", step);
            if let Ok(curve) = got {
                let on_last = last.as_ref().is_some_and(|last| {
                    last.sizes().iter().map(|s| s.to_bits()).eq(size_bits(&bytes))
                });
                let shared = last.as_ref().is_some_and(|l| Arc::ptr_eq(l.grid(), curve.grid()));
                prop_assert_eq!(shared, on_last, "step {}", step);
                let mut again = Vec::new();
                curve.encode_points(&mut again);
                prop_assert!(again == bytes, "step {}", step);
                last = Some(curve);
            }
            body = next_body(&body, &mut rng);
        }
    }

    /// `==` on curves is `==` on their points as `Vec<CurvePoint>`s were
    /// compared — `-0.0` equal to `0.0` — whether the two grids are one
    /// allocation, two equal ones, or different.
    #[test]
    fn equality_is_point_wise(seed in any::<u64>()) {
        let mut rng = XorShift(seed | 1);
        let grids: [&[f64]; 4] = [&[0.0, 1.0, 2.0], &[-0.0, 1.0, 2.0], &[0.0, 1.0, 3.0], &[0.0, 1.0]];
        let values = [0.0, -0.0, 1.0, 2.5];
        let mut shared = GridCache::default();
        let mut curve = |rng: &mut XorShift| {
            let sizes = grids[rng.below(grids.len())];
            let misses: Vec<f64> = sizes.iter().map(|_| values[rng.below(values.len())]).collect();
            if rng.next() & 1 == 0 {
                MissCurve::from_samples(sizes, &misses).unwrap()
            } else {
                MissCurve::decode_points(&encoded(sizes, &misses), &mut shared).unwrap()
            }
        };
        let (a, b) = (curve(&mut rng), curve(&mut rng));
        prop_assert_eq!(a == b, points_of(&a) == points_of(&b));
        prop_assert_eq!(b == a, a == b);
        prop_assert!(a == a.clone());
    }
}

#[test]
fn a_grid_is_shared_only_by_sizes_with_the_same_bytes() {
    let base = [0.0, 64.0, 128.0];
    let mut grids = GridCache::default();
    let first = MissCurve::decode_points(&encoded(&base, &[9.0, 5.0, 1.0]), &mut grids).unwrap();
    let same = MissCurve::decode_points(&encoded(&base, &[8.0, 4.0, 2.0]), &mut grids).unwrap();
    assert!(Arc::ptr_eq(first.grid(), same.grid()));
    assert_eq!(
        Arc::strong_count(first.grid()),
        3,
        "two curves and the cache"
    );

    // One ulp, a -0.0, a point more or less: a grid of its own, equal
    // curves or not as `==` says, and the new grid is the one remembered.
    let ulp = [0.0, 64.0, f64::from_bits(128f64.to_bits() + 1)];
    for sizes in [
        &ulp[..],
        &[-0.0, 64.0, 128.0],
        &[0.0, 64.0],
        &[0.0, 64.0, 128.0, 192.0],
    ] {
        let misses = vec![1.0; sizes.len()];
        let mut grids = GridCache::default();
        let first = MissCurve::decode_points(&encoded(&base, &[1.0; 3]), &mut grids).unwrap();
        let next = MissCurve::decode_points(&encoded(sizes, &misses), &mut grids).unwrap();
        assert!(!Arc::ptr_eq(first.grid(), next.grid()), "{sizes:?}");
        assert_eq!(next.sizes().len(), sizes.len());
        assert!(next
            .sizes()
            .iter()
            .zip(sizes)
            .all(|(a, b)| a.to_bits() == b.to_bits()));
        let third = MissCurve::decode_points(&encoded(sizes, &misses), &mut grids).unwrap();
        assert!(Arc::ptr_eq(next.grid(), third.grid()), "{sizes:?}");
    }
    // A -0.0 grid and a 0.0 grid hold equal curves all the same.
    let neg = MissCurve::from_samples(&[-0.0, 64.0, 128.0], &[9.0, 5.0, 1.0]).unwrap();
    assert_eq!(neg, first);
}

#[test]
fn a_curve_on_a_remembered_grid_is_still_validated() {
    let base = [0.0, 64.0, 128.0];
    let prime = |grids: &mut GridCache| {
        MissCurve::decode_points(&encoded(&base, &[3.0, 2.0, 1.0]), grids).unwrap()
    };
    // Sizes that break the grid are decoded and refused in full.
    for (sizes, want) in [
        (
            [0.0, 64.0, f64::NAN],
            CurveError::InvalidSize {
                index: 2,
                value: f64::NAN,
            },
        ),
        (
            [0.0, 128.0, 64.0],
            CurveError::NonIncreasingSizes { index: 2 },
        ),
        (
            [-1.0, 64.0, 128.0],
            CurveError::InvalidSize {
                index: 0,
                value: -1.0,
            },
        ),
    ] {
        let mut grids = GridCache::default();
        let kept = prime(&mut grids);
        let bytes = encoded(&sizes, &[3.0, 2.0, 1.0]);
        let got = MissCurve::decode_points(&bytes, &mut grids);
        assert!(same(&got, &Err(want)), "{got:?}");
        assert!(same(&got, &fresh(&bytes)));
        // The refused curve did not replace the remembered grid.
        let again = prime(&mut grids);
        assert!(Arc::ptr_eq(kept.grid(), again.grid()));
    }
    // On the remembered grid only a miss value can be wrong — and is
    // reported as a fresh decode reports it; -0.0 stays valid.
    for (misses, want) in [
        (
            [3.0, -1.0, f64::NAN],
            Some(CurveError::InvalidMissValue {
                index: 1,
                value: -1.0,
            }),
        ),
        (
            [3.0, 2.0, f64::INFINITY],
            Some(CurveError::InvalidMissValue {
                index: 2,
                value: f64::INFINITY,
            }),
        ),
        ([-0.0, 2.0, 5e-324], None),
    ] {
        let mut grids = GridCache::default();
        let kept = prime(&mut grids);
        let bytes = encoded(&base, &misses);
        let got = MissCurve::decode_points(&bytes, &mut grids);
        assert!(same(&got, &fresh(&bytes)), "{got:?}");
        match want {
            Some(want) => assert!(same(&got, &Err(want)), "{got:?}"),
            None => assert!(Arc::ptr_eq(kept.grid(), got.unwrap().grid())),
        }
    }
}

// ---------------------------------------------------------------------
// Values-only curves on a decoded grid
// ---------------------------------------------------------------------

/// `values` as the per-`f64` writer wrote each one.
fn reference_values(values: &[f64]) -> Vec<u8> {
    values
        .iter()
        .flat_map(|v| v.to_bits().to_le_bytes())
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    /// A grid decodes, or fails, as `decode_points` decodes its sizes
    /// under valid miss values; a curve's values on a decoded grid decode,
    /// or fail, as `decode_points` decodes the points — bit for bit — and
    /// the curve holds the very grid it was decoded on.
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

        let mut whole = Vec::new();
        reference_encode(&points, &mut whole);
        match MissCurve::decode_grid(&grid_bytes[3..]) {
            Err(e) => {
                let ones = vec![1.0; n];
                let want = fresh(&encoded(&sizes, &ones)).expect_err("the sizes fail");
                prop_assert!(same_error(&e, &want), "{:?} against {:?}", e, want);
            }
            Ok(grid) => {
                prop_assert_eq!(bits_of(&grid), bits_of(&sizes));
                let got = MissCurve::decode_values(&grid, &value_bytes);
                prop_assert!(same(&got, &fresh(&whole)));
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

/// A grid handed in by hand, not decoded, is validated with the values:
/// no curve breaks its invariants whatever grid it is decoded on.
#[test]
fn values_on_an_invalid_grid_are_refused() {
    let values = reference_values(&[3.0, 2.0]);
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
        let grid: Arc<[f64]> = sizes.into();
        assert_eq!(MissCurve::decode_values(&grid, &values), Err(want));
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
