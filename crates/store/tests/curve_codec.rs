//! The journal's curve reader and the grid it remembers.
//!
//! A curve record holds its sizes, then its miss values, in the values
//! form the wire sends. A stream's reader ([`records`], [`scan`],
//! `RecordStream`) keeps the grid of the last curve it decoded and the
//! bytes it came from: a next curve on the same size bytes shares that
//! grid and has its miss values checked alone. These properties pin that
//! memory down: a curve read through it is the curve, or the error, of a
//! record decoded alone, bit for bit; a grid is shared exactly when the
//! size bytes are the same (one ulp, a `-0.0` or a point apart gets its
//! own); and a curve on a remembered grid is still validated.

use std::sync::Arc;

use proptest::prelude::*;
use talus_core::codec::DecodeError;
use talus_core::{CurveError, CurvePoint, MissCurve};
use talus_store::{
    checksum64, decode_record, encode_record, records, Record, StoreError, STORE_VERSION,
};

/// A curve record over any points, valid or not, framed as the store
/// frames one: a `u32` point count, the sizes, then the miss values.
fn curve_record(seq: u64, points: &[CurvePoint]) -> Vec<u8> {
    let mut payload = vec![STORE_VERSION, 0x03];
    payload.extend_from_slice(&seq.to_le_bytes());
    payload.extend_from_slice(&7u64.to_le_bytes()); // id
    payload.extend_from_slice(&0u32.to_le_bytes()); // tenant
    payload.extend_from_slice(&(points.len() as u32).to_le_bytes());
    for value in points
        .iter()
        .map(|p| p.size)
        .chain(points.iter().map(|p| p.misses))
    {
        payload.extend_from_slice(&value.to_bits().to_le_bytes());
    }
    let mut out = (payload.len() as u32).to_le_bytes().to_vec();
    out.extend_from_slice(&checksum64(&payload).to_le_bytes());
    out.extend_from_slice(&payload);
    out
}

fn on(sizes: &[f64], misses: &[f64]) -> Vec<CurvePoint> {
    sizes
        .iter()
        .zip(misses)
        .map(|(&s, &m)| CurvePoint::new(s, m))
        .collect()
}

/// The curve a decode gave, or the curve error it failed with.
fn curve_or_error(got: Result<Record, StoreError>) -> Result<MissCurve, CurveError> {
    match got {
        Ok(Record::Curve { curve, .. }) => Ok(curve),
        Err(StoreError::Decode(DecodeError::Curve(e))) => Err(e),
        other => panic!("not a curve or a curve error: {other:?}"),
    }
}

/// A record decoded alone, with no grid remembered.
fn fresh(record: &[u8]) -> Result<MissCurve, CurveError> {
    curve_or_error(decode_record(record).map(|(rec, _)| rec))
}

/// Every curve of `journal` as one stream reads it, and how it ended.
fn streamed(journal: &[u8]) -> (Vec<MissCurve>, Option<StoreError>) {
    let mut stream = records(journal);
    let curves = stream
        .by_ref()
        .map(|rec| curve_or_error(Ok(rec)).unwrap())
        .collect();
    (curves, stream.tail().cloned())
}

fn points_of(curve: &MissCurve) -> Vec<CurvePoint> {
    curve.iter().collect()
}

fn bits(points: &[CurvePoint]) -> Vec<(u64, u64)> {
    points
        .iter()
        .map(|p| (p.size.to_bits(), p.misses.to_bits()))
        .collect()
}

/// Bit-exact equality: `CurveError`'s `PartialEq` calls a NaN `value`
/// unequal to itself, and `==` on curves calls `-0.0` equal to `0.0`.
fn same(a: &Result<MissCurve, CurveError>, b: &Result<MissCurve, CurveError>) -> bool {
    match (a, b) {
        (Ok(a), Ok(b)) => bits(&points_of(a)) == bits(&points_of(b)),
        (Err(a), Err(b)) => format!("{a:?}") == format!("{b:?}"),
        _ => false,
    }
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

/// Coordinates a curve must refuse, or must keep bit for bit.
const SPECIALS: [f64; 10] = [
    f64::NAN,
    f64::INFINITY,
    f64::NEG_INFINITY,
    -0.0,
    5e-324,
    -5e-324,
    -1.0,
    0.0,
    f64::MAX,
    f64::MIN_POSITIVE,
];

/// A valid curve's points (`specials` false), or one with specials
/// planted at random coordinates.
fn some_points(n: usize, specials: bool, rng: &mut XorShift) -> Vec<CurvePoint> {
    let mut size = 0.0;
    let mut points: Vec<CurvePoint> = (0..n)
        .map(|_| {
            let p = CurvePoint::new(size, (rng.next() % 1000) as f64 / 8.0);
            size += 0.5 + (rng.next() % 64) as f64;
            p
        })
        .collect();
    if specials {
        let special = SPECIALS[rng.below(SPECIALS.len())];
        let at = rng.below(n);
        if rng.next() & 1 == 0 {
            points[at].size = special;
        } else {
            points[at].misses = special;
        }
    }
    points
}

/// A next body for a stream whose last body was `prev`: on the same sizes
/// with new miss values (valid or not), on sizes one ulp, a `-0.0` or one
/// point away from them, or anything at all.
fn next_body(prev: &[CurvePoint], rng: &mut XorShift) -> Vec<CurvePoint> {
    let mut next: Vec<CurvePoint> = prev
        .iter()
        .map(|p| CurvePoint::new(p.size, (rng.next() % 64) as f64 / 4.0))
        .collect();
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
            if rng.next() & 1 == 0 && next.len() > 1 {
                next.pop();
            } else {
                let last = next[next.len() - 1].size;
                next.push(CurvePoint::new(last + 1.0, 1.0));
            }
        }
        _ => return some_points(1 + rng.below(20), rng.next() & 1 == 0, rng),
    }
    next
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    /// A stream of curve records through one reader, as a restore reads
    /// them: every curve is the record decoded alone bit for bit (curve
    /// or error), it shares the last curve's grid exactly when its size
    /// bytes are that grid's, and every curve re-encodes to its record.
    #[test]
    fn decoding_with_a_reused_grid_is_a_fresh_decode(seed in any::<u64>(), len in 1usize..12) {
        let mut rng = XorShift(seed | 1);
        // The records the reader accepted so far, and the last one's sizes.
        let mut journal = Vec::new();
        let mut last_sizes: Option<Vec<u64>> = None;
        let mut body = some_points(1 + rng.below(40), rng.next() & 1 == 0, &mut rng);
        for step in 0..len {
            let record = curve_record(step as u64, &body);
            let mut stream = journal.clone();
            stream.extend_from_slice(&record);
            let (curves, tail) = streamed(&stream);
            let got = match tail {
                None => Ok(curves[curves.len() - 1].clone()),
                Some(e) => curve_or_error(Err(e)),
            };
            prop_assert!(same(&got, &fresh(&record)), "step {}", step);
            if got.is_ok() {
                let curve = &curves[curves.len() - 1];
                let sizes: Vec<u64> = body.iter().map(|p| p.size.to_bits()).collect();
                let on_last = last_sizes.as_ref() == Some(&sizes);
                let shared = curves.len() > 1
                    && Arc::ptr_eq(curves[curves.len() - 2].grid(), curve.grid());
                prop_assert_eq!(shared, on_last, "step {}", step);
                let again = encode_record(&Record::Curve {
                    seq: step as u64,
                    id: 7,
                    tenant: 0,
                    curve: curve.clone(),
                });
                prop_assert!(again == record, "step {}", step);
                journal = stream;
                last_sizes = Some(sizes);
            }
            body = next_body(&body, &mut rng);
        }
    }
}

#[test]
fn a_grid_is_shared_only_by_sizes_with_the_same_bytes() {
    let base = [0.0, 64.0, 128.0];
    let mut journal = curve_record(0, &on(&base, &[9.0, 5.0, 1.0]));
    journal.extend_from_slice(&curve_record(1, &on(&base, &[8.0, 4.0, 2.0])));
    let mut stream = records(&journal);
    let first = curve_or_error(Ok(stream.next().unwrap())).unwrap();
    let same = curve_or_error(Ok(stream.next().unwrap())).unwrap();
    assert!(Arc::ptr_eq(first.grid(), same.grid()));
    assert_eq!(
        Arc::strong_count(first.grid()),
        3,
        "two curves and the reader"
    );
    drop(stream);
    assert_eq!(Arc::strong_count(first.grid()), 2, "the reader holds one");

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
        let mut journal = curve_record(0, &on(&base, &[1.0; 3]));
        journal.extend_from_slice(&curve_record(1, &on(sizes, &misses)));
        journal.extend_from_slice(&curve_record(2, &on(sizes, &misses)));
        let (curves, tail) = streamed(&journal);
        assert_eq!(tail, None);
        let [first, next, third] = &curves[..] else {
            panic!("three curves")
        };
        assert!(!Arc::ptr_eq(first.grid(), next.grid()), "{sizes:?}");
        assert_eq!(next.sizes().len(), sizes.len());
        assert!(next
            .sizes()
            .iter()
            .zip(sizes)
            .all(|(a, b)| a.to_bits() == b.to_bits()));
        assert!(Arc::ptr_eq(next.grid(), third.grid()), "{sizes:?}");
    }
    // A -0.0 grid and a 0.0 grid hold equal curves all the same.
    let neg = MissCurve::from_samples(&[-0.0, 64.0, 128.0], &[9.0, 5.0, 1.0]).unwrap();
    assert_eq!(neg, first);
}

#[test]
fn a_curve_on_a_remembered_grid_is_still_validated() {
    let base = [0.0, 64.0, 128.0];
    let prime = curve_record(0, &on(&base, &[3.0, 2.0, 1.0]));
    // Sizes that break the grid are decoded and refused in full, and the
    // stream keeps the records before them.
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
        let bad = curve_record(1, &on(&sizes, &[3.0, 2.0, 1.0]));
        let journal = [&prime[..], &bad[..]].concat();
        let mut stream = records(&journal);
        assert_eq!(stream.by_ref().count(), 1);
        assert_eq!(stream.consumed(), prime.len());
        let got = curve_or_error(Err(stream.tail().cloned().unwrap()));
        assert!(same(&got, &Err(want)), "{got:?}");
        assert!(same(&got, &fresh(&bad)));
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
        let next = curve_record(1, &on(&base, &misses));
        let journal = [&prime[..], &next[..]].concat();
        let (curves, tail) = streamed(&journal);
        match want {
            Some(want) => {
                let got = curve_or_error(Err(tail.unwrap()));
                assert!(same(&got, &Err(want)), "{got:?}");
                assert!(same(&got, &fresh(&next)));
            }
            None => {
                assert_eq!(tail, None);
                assert!(same(&Ok(curves[1].clone()), &fresh(&next)));
                assert!(Arc::ptr_eq(curves[0].grid(), curves[1].grid()));
            }
        }
    }
}
