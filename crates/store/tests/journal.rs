//! The journal-format battery: round-trip properties for every record
//! variant, golden-bytes fixtures pinning the v2 on-disk format (and the
//! v1 fixtures it replaced, kept to prove they are refused untouched),
//! an adversarial suite proving the decoder is total (byte soup, hostile
//! counts, oversized lengths rejected before allocation, wrong versions,
//! corrupted checksums — typed errors, never panics), recovery tests for
//! torn tails and reopened stores, and the write-scope contract (outside
//! a scope every append is on disk when the call returns; inside one the
//! records go out together at commit), and the writer's half of the
//! format's bounds (what the decoder would refuse is never written: the
//! store faults instead, and the journal keeps everything before it),
//! and the streaming reader every shard file is read through (the slice
//! scanner's verdict from one fixed window; a read error is an error,
//! never a torn tail; a live stream blocks no append).

use std::io::Read;
use std::path::PathBuf;
use std::sync::atomic::{AtomicU32, Ordering};

use proptest::prelude::*;
use talus_core::codec::DecodeError;
use talus_core::limits::{
    STORE_MAX_CUT_IDS, STORE_MAX_RECORD_LEN, WIRE_MAX_CURVE_POINTS, WIRE_MAX_TENANTS,
};
use talus_core::{FaultAction, FaultScript, MissCurve, ShadowConfig, TalusOptions, TalusPlan};
use talus_partition::{AllocPolicy, CachePlan, CacheSpec, Planner, TenantPlan};
use talus_store::{
    checksum64, decode_record, encode_record, encode_record_into, fnv1a64, records, records_from,
    scan, Record, Store, StoreError, StoreSink, RECORD_HEADER_LEN, STORE_VERSION,
    STREAM_WINDOW_LEN,
};

static DIR_SEQ: AtomicU32 = AtomicU32::new(0);

/// A fresh per-test directory under the system temp dir (the container
/// has no tempfile crate; pid + counter keeps parallel tests apart).
fn temp_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!(
        "talus-store-test-{tag}-{}-{}",
        std::process::id(),
        DIR_SEQ.fetch_add(1, Ordering::Relaxed)
    ));
    std::fs::create_dir_all(&dir).expect("create temp dir");
    dir
}

/// `[len LE][checksum LE][payload]`, under the given checksum.
fn framed_by(checksum: fn(&[u8]) -> u64, payload: &[u8]) -> Vec<u8> {
    let mut out = (payload.len() as u32).to_le_bytes().to_vec();
    out.extend_from_slice(&checksum(payload).to_le_bytes());
    out.extend_from_slice(payload);
    out
}

/// Frames a payload the way the store does.
fn framed(payload: &[u8]) -> Vec<u8> {
    framed_by(checksum64, payload)
}

/// Random monotone miss curve derived deterministically from a seed
/// (the same family the serve property tests use).
fn curve_from_seed(seed: u64) -> MissCurve {
    let mut state = seed | 1;
    let mut next = move || {
        state ^= state << 13;
        state ^= state >> 7;
        state ^= state << 17;
        state
    };
    let points = 2 + (next() % 15) as usize;
    let mut m = 10.0 + (next() % 40) as f64;
    let sizes: Vec<f64> = (0..points).map(|i| i as f64 * 64.0).collect();
    let misses: Vec<f64> = sizes
        .iter()
        .map(|_| {
            let v = m;
            m = (m - (next() % 12) as f64).max(0.0);
            v
        })
        .collect();
    MissCurve::from_samples(&sizes, &misses).expect("valid curve")
}

/// A spec of any fields, zeros included (`CacheSpec::new` refuses
/// those).
fn spec(capacity: u64, tenants: u32, planner: Planner) -> CacheSpec {
    CacheSpec {
        capacity,
        tenants: tenants as usize,
        planner,
    }
}

/// A planner in every configuration, picked by seed.
fn planner_from_seed(seed: u64) -> Planner {
    let policy = match seed % 4 {
        0 => AllocPolicy::Hill,
        1 => AllocPolicy::Lookahead,
        2 => AllocPolicy::Fair,
        _ => AllocPolicy::Imbalanced,
    };
    let mut planner = Planner::new(1 + (seed >> 2) % 256)
        .with_policy(policy)
        .with_options(TalusOptions {
            safety_margin: (seed % 11) as f64 * 0.01,
            vertex_tolerance: 1e-9 * (1 + seed % 5) as f64,
        });
    if seed & (1 << 20) != 0 {
        planner = planner.raw_curves();
    }
    planner
}

/// A plan body mixing unpartitioned and shadow tenants, picked by seed.
fn plan_from_seed(seed: u64) -> CachePlan {
    let tenants = (1 + seed % 4) as usize;
    CachePlan {
        round: seed % 100,
        tenants: (0..tenants as u64)
            .map(|i| {
                let s = seed.wrapping_add(i.wrapping_mul(0x9E37_79B9));
                let capacity = 64 * (1 + s % 32);
                let plan = if s & 1 == 0 {
                    TalusPlan::Unpartitioned {
                        size: capacity as f64,
                        expected_misses: (s % 997) as f64 * 0.125,
                    }
                } else {
                    let total = capacity as f64;
                    let alpha = total * 0.25;
                    let beta = total * 1.5;
                    let rho = 0.1 + (s % 80) as f64 / 100.0;
                    TalusPlan::Shadow(ShadowConfig {
                        total,
                        alpha,
                        beta,
                        rho,
                        ideal_rho: rho * 0.95,
                        s1: rho * alpha,
                        s2: total - rho * alpha,
                        expected_misses: (s % 89) as f64 * 0.5,
                    })
                };
                TenantPlan { capacity, plan }
            })
            .collect(),
    }
}

/// Every record variant, picked by discriminant (the shim has no
/// `prop_oneof`, so weighting rides a modulus, as in serve's tests).
fn arb_record() -> impl Strategy<Value = Record> {
    (any::<u64>(), any::<u64>(), any::<u64>(), any::<u64>()).prop_map(|(kind, a, b, seed)| {
        match kind % 5 {
            0 => Record::Register {
                seq: a,
                id: b,
                spec: spec(
                    1 + seed % (1 << 32),
                    1 + (seed % u64::from(WIRE_MAX_TENANTS)) as u32,
                    planner_from_seed(seed),
                ),
            },
            1 => Record::Deregister { seq: a, id: b },
            2 => Record::Curve {
                seq: a,
                id: b,
                tenant: (seed % 64) as u32,
                curve: curve_from_seed(seed),
            },
            3 => Record::EpochCut {
                seq: a,
                shard: (b % 16) as u32,
                epoch: seed % 1000,
                drained: (0..b % 20).map(|i| seed.wrapping_add(i)).collect(),
            },
            _ => Record::Plan {
                seq: a,
                id: b,
                epoch: seed % 1000,
                version: 1 + seed % 64,
                updates: seed % 512,
                plan: plan_from_seed(seed),
            },
        }
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// `decode(encode(r)) == r` for every record variant, consuming
    /// exactly the encoded bytes.
    #[test]
    fn records_roundtrip(rec in arb_record()) {
        let bytes = encode_record(&rec);
        let (decoded, used) = decode_record(&bytes).expect("decodes");
        prop_assert_eq!(used, bytes.len());
        prop_assert_eq!(decoded, rec);
    }

    /// A concatenated journal scans back record-for-record with a clean
    /// tail, and scanning is idempotent.
    #[test]
    fn journals_roundtrip_through_scan(
        recs in proptest::collection::vec(arb_record(), 0..12),
    ) {
        let mut bytes = Vec::new();
        for rec in &recs {
            bytes.extend_from_slice(&encode_record(rec));
        }
        let scanned = scan(&bytes);
        prop_assert_eq!(scanned.consumed, bytes.len());
        prop_assert_eq!(scanned.tail, None);
        prop_assert_eq!(&scanned.records, &recs);
        prop_assert_eq!(scan(&bytes), scanned);
    }

    /// Random byte soup never panics the decoder or the scanner, and
    /// the scanner's valid prefix is always within the input.
    #[test]
    fn byte_soup_yields_typed_errors_not_panics(
        soup in proptest::collection::vec(any::<u8>(), 0..512),
    ) {
        let _ = decode_record(&soup);
        let scanned = scan(&soup);
        prop_assert!(scanned.consumed <= soup.len());
        if scanned.consumed < soup.len() {
            prop_assert!(scanned.tail.is_some());
        }
    }

    /// Truncation at EVERY byte of a journal: the scanner recovers
    /// exactly the records whose bytes fully landed, never panics, and
    /// never resurrects a partial record — the crash-recovery contract
    /// at the byte level.
    #[test]
    fn truncation_at_every_byte_recovers_the_record_prefix(
        recs in proptest::collection::vec(arb_record(), 1..6),
    ) {
        let mut bytes = Vec::new();
        let mut boundaries = vec![0usize];
        for rec in &recs {
            bytes.extend_from_slice(&encode_record(rec));
            boundaries.push(bytes.len());
        }
        for cut in 0..=bytes.len() {
            let scanned = scan(&bytes[..cut]);
            // The recovered prefix is the records fully below the cut.
            let whole = boundaries.iter().filter(|&&b| b <= cut).count() - 1;
            prop_assert_eq!(scanned.records.len(), whole, "cut at {}", cut);
            prop_assert_eq!(scanned.consumed, boundaries[whole], "cut at {}", cut);
            prop_assert_eq!(&scanned.records[..], &recs[..whole]);
            // Mid-record cuts are diagnosed, boundary cuts are clean.
            prop_assert_eq!(scanned.tail.is_none(), cut == boundaries[whole]);
        }
    }

    /// Flipping any single byte of a record's checksum or payload is
    /// detected (checksum mismatch or a typed decode error) — never a
    /// panic, and never a silently different record.
    #[test]
    fn corruption_is_detected(rec in arb_record(), flip in any::<usize>()) {
        let bytes = encode_record(&rec);
        // Skip the length prefix: changing it is torn-tail territory
        // (covered above); here we corrupt checksum or payload bytes.
        let pos = 4 + flip % (bytes.len() - 4);
        let mut corrupt = bytes.clone();
        corrupt[pos] ^= 0x40;
        match decode_record(&corrupt) {
            Err(_) => {}
            Ok((decoded, _)) => prop_assert!(
                false,
                "flip at {} went undetected: {:?}",
                pos,
                decoded.label()
            ),
        }
    }
}

#[test]
fn oversized_length_prefix_is_rejected_before_anything_else() {
    // A hostile length with NO payload behind it: if the decoder trusted
    // the length it would report Truncated (wanting the bytes) or try to
    // allocate; instead the cap check fires first.
    for len in [STORE_MAX_RECORD_LEN + 1, u32::MAX, 0xDEAD_BEEF] {
        let mut header = len.to_le_bytes().to_vec();
        header.extend_from_slice(&[0u8; 8]); // checksum field
        assert_eq!(
            decode_record(&header),
            Err(StoreError::Decode(DecodeError::Oversized {
                len,
                max: STORE_MAX_RECORD_LEN
            }))
        );
    }
}

#[test]
fn undersized_length_prefix_is_malformed() {
    for len in [0u32, 1] {
        let mut bytes = len.to_le_bytes().to_vec();
        bytes.extend_from_slice(&[0u8; 9]);
        assert!(matches!(
            decode_record(&bytes),
            Err(StoreError::Decode(DecodeError::Malformed(_)))
        ));
    }
}

#[test]
fn hostile_counts_fail_before_allocation() {
    // A curve record claiming u32::MAX points would be ~64 GiB if the
    // decoder trusted the count; passing at all is the no-allocation
    // proof. Payload framing (len + checksum) is valid so the count
    // check itself is what fires.
    // Curve record: version, tag=0x03, seq, id, tenant, point count.
    let mut payload = vec![STORE_VERSION, 0x03];
    payload.extend_from_slice(&[0u8; 16]); // seq + id
    payload.extend_from_slice(&0u32.to_le_bytes()); // tenant
    payload.extend_from_slice(&u32::MAX.to_le_bytes());
    assert_eq!(
        decode_record(&framed(&payload)),
        Err(StoreError::Decode(DecodeError::BadCount {
            count: u32::MAX,
            max: WIRE_MAX_CURVE_POINTS
        }))
    );
    // In-cap counts the record can't hold fail the remaining-bytes check.
    let mut payload = vec![STORE_VERSION, 0x03];
    payload.extend_from_slice(&[0u8; 16]);
    payload.extend_from_slice(&0u32.to_le_bytes());
    payload.extend_from_slice(&WIRE_MAX_CURVE_POINTS.to_le_bytes());
    assert_eq!(
        decode_record(&framed(&payload)),
        Err(StoreError::Decode(DecodeError::Truncated))
    );
    // Epoch-cut id lists have their own cap.
    let mut payload = vec![STORE_VERSION, 0x04];
    payload.extend_from_slice(&[0u8; 8]); // seq
    payload.extend_from_slice(&0u32.to_le_bytes()); // shard
    payload.extend_from_slice(&[0u8; 8]); // epoch
    payload.extend_from_slice(&u32::MAX.to_le_bytes());
    assert_eq!(
        decode_record(&framed(&payload)),
        Err(StoreError::Decode(DecodeError::BadCount {
            count: u32::MAX,
            max: STORE_MAX_CUT_IDS
        }))
    );
    // Plan tenant counts too.
    let mut payload = vec![STORE_VERSION, 0x05];
    payload.extend_from_slice(&[0u8; 40]); // seq, id, epoch, version, updates
    payload.extend_from_slice(&[0u8; 8]); // round
    payload.extend_from_slice(&u32::MAX.to_le_bytes());
    assert_eq!(
        decode_record(&framed(&payload)),
        Err(StoreError::Decode(DecodeError::BadCount {
            count: u32::MAX,
            max: WIRE_MAX_TENANTS
        }))
    );
}

#[test]
fn wrong_version_is_rejected_on_every_tag() {
    for version in [0u8, 1, 2, 9, 0xFF] {
        for tag in 0..=0x10u8 {
            let mut bytes = framed(&[version, tag]);
            assert_eq!(
                decode_record(&bytes),
                Err(StoreError::Decode(DecodeError::BadVersion {
                    got: version,
                    want: STORE_VERSION
                })),
                "version {version} tag {tag:#04x}"
            );
            // The version is read before the checksum is verified: a
            // foreign record, whose checksum field means nothing to this
            // decoder, is still a version error, not a checksum failure.
            bytes[4] ^= 0xFF;
            assert_eq!(
                decode_record(&bytes),
                Err(StoreError::Decode(DecodeError::BadVersion {
                    got: version,
                    want: STORE_VERSION
                })),
                "version {version} tag {tag:#04x}, foreign checksum"
            );
        }
    }
}

#[test]
fn garbage_tags_are_typed_errors() {
    let known = [0x01, 0x02, 0x03, 0x04, 0x05];
    for tag in 0..=0xFFu8 {
        let bytes = framed(&[STORE_VERSION, tag]);
        match decode_record(&bytes) {
            // Known tag with an empty body: truncation is right.
            Err(StoreError::Decode(DecodeError::Truncated)) => {
                assert!(known.contains(&tag), "tag {tag:#04x}")
            }
            Err(StoreError::Decode(DecodeError::BadTag { got })) => {
                assert_eq!(got, tag);
                assert!(!known.contains(&tag), "tag {tag:#04x}");
            }
            other => panic!("tag {tag:#04x}: unexpected {other:?}"),
        }
    }
}

#[test]
fn register_bounds_are_enforced_at_decode_time() {
    // `restore` plans the decoded spec as it is, so the decoder must
    // reject what `CacheSpec::new` would.
    let rec = |capacity: u64, tenants: u32, grain: u64| {
        let mut bytes = encode_record(&Record::Register {
            seq: 1,
            id: 2,
            spec: spec(64, 1, Planner::new(8)),
        });
        // Patch the fields in place (offsets: payload starts at 12;
        // version+tag = 2; seq, id = 16; then capacity, tenants, grain).
        let p = RECORD_HEADER_LEN + 2 + 16;
        bytes[p..p + 8].copy_from_slice(&capacity.to_le_bytes());
        bytes[p + 8..p + 12].copy_from_slice(&tenants.to_le_bytes());
        bytes[p + 12..p + 20].copy_from_slice(&grain.to_le_bytes());
        // Re-checksum the patched payload.
        let sum = checksum64(&bytes[RECORD_HEADER_LEN..]);
        bytes[4..12].copy_from_slice(&sum.to_le_bytes());
        bytes
    };
    assert!(matches!(
        decode_record(&rec(0, 1, 8)),
        Err(StoreError::Decode(DecodeError::Malformed(_)))
    ));
    assert!(matches!(
        decode_record(&rec(64, 0, 8)),
        Err(StoreError::Decode(DecodeError::Malformed(_)))
    ));
    assert!(matches!(
        decode_record(&rec(64, 1, 0)),
        Err(StoreError::Decode(DecodeError::Malformed(_)))
    ));
    assert_eq!(
        decode_record(&rec(64, WIRE_MAX_TENANTS + 1, 8)),
        Err(StoreError::Decode(DecodeError::BadCount {
            count: WIRE_MAX_TENANTS + 1,
            max: WIRE_MAX_TENANTS
        }))
    );
    assert!(decode_record(&rec(64, WIRE_MAX_TENANTS, 8)).is_ok());
}

#[test]
fn trailing_bytes_are_malformed() {
    let rec = Record::Deregister { seq: 3, id: 9 };
    let mut bytes = encode_record(&rec);
    // Extend the payload by one byte, fixing length and checksum so only
    // the trailing byte is wrong.
    bytes.push(0x00);
    let len = (bytes.len() - RECORD_HEADER_LEN) as u32;
    bytes[0..4].copy_from_slice(&len.to_le_bytes());
    let sum = checksum64(&bytes[RECORD_HEADER_LEN..]);
    bytes[4..12].copy_from_slice(&sum.to_le_bytes());
    assert!(matches!(
        decode_record(&bytes),
        Err(StoreError::Decode(DecodeError::Malformed(_)))
    ));
}

// ---------------------------------------------------------------------
// Golden bytes: the v3 on-disk format, pinned byte for byte. If any of
// these fail, the format changed — bump STORE_VERSION and make the
// change deliberate.
//
// The `V1_*` payload literals are the v1 fixtures, kept exactly as v1
// wrote them (version byte 1). v2 changed the checksum function and
// nothing else, so a v2 record is its v1 fixture with the version byte
// set to 2 and the pinned `checksum64` in the header. v3 changed a
// curve's body — its sizes, then its miss values, where v1 and v2
// interleaved them point by point — and nothing else, so a v3 record of
// any other kind is its v1 fixture with the version byte set to 3. The
// `golden_v3_*` tests pin the v3 bytes (checksums computed by an
// independent implementation of `checksum64`'s definition); the
// `golden_v1_*` and `golden_v2_*` tests pin that a v1 or v2 record is
// refused as a foreign version and never mistaken for a torn tail.
// ---------------------------------------------------------------------

#[test]
fn golden_v1_constants() {
    // FNV-1a stays exported for callers outside the journal (the repo
    // benchmark digests simulator statistics with it): pinned by its
    // standard vectors.
    assert_eq!(fnv1a64(b""), 0xcbf2_9ce4_8422_2325);
    assert_eq!(fnv1a64(b"a"), 0xaf63_dc4c_8601_ec8c);
    assert_eq!(fnv1a64(b"foobar"), 0x85944171f73967e8);
}

#[test]
fn golden_v2_constants() {
    // v3 kept v2's framing and limits; version 2 is foreign.
    assert_eq!(RECORD_HEADER_LEN, 12);
    assert_eq!(STORE_MAX_RECORD_LEN, 1 << 18);
    assert_eq!(STORE_MAX_CUT_IDS, 1 << 14);
    assert_eq!(
        decode_record(&framed(&[2, 0x02])),
        Err(StoreError::Decode(DecodeError::BadVersion {
            got: 2,
            want: STORE_VERSION
        }))
    );
}

#[test]
fn golden_v3_constants() {
    assert_eq!(STORE_VERSION, 3);
    assert_eq!(RECORD_HEADER_LEN, 12);
    // The limits are part of the format contract (decoders reject by
    // them), so drifting them silently is a format change too.
    assert_eq!(STORE_MAX_RECORD_LEN, 1 << 18);
    assert_eq!(STORE_MAX_CUT_IDS, 1 << 14);
}

/// The record checksum, pinned on both sides of the 32-byte block
/// boundary and on a production-sized curve payload. The values come
/// from an independent implementation of the function's definition
/// (4 lanes of xor / multiply / rotate over little-endian words, a
/// zero-padded final block, lanes and length folded), not from this one.
#[test]
fn golden_v2_checksum_vectors() {
    let ramp = |n: usize| -> Vec<u8> { (0..n).map(|i| (i * 7 + 1) as u8).collect() };
    for (len, want) in [
        (0, 0x5B39_F95B_E884_C81A_u64),
        (1, 0x9898_0886_435C_9490),
        (31, 0x0554_BC62_F883_0E85),
        (32, 0x39BD_96EF_410E_D820),
        (33, 0x04FB_A846_4663_1559),
    ] {
        assert_eq!(checksum64(&ramp(len)), want, "{len} bytes");
    }
    // The length is folded in: zero padding is not a collision.
    assert_ne!(checksum64(b"ab"), checksum64(b"ab\0"));

    // A 65-point v2 curve record — the payload the plane journaled most
    // — interleaved point by point, and refused.
    let mut payload = vec![2, 0x03];
    for field in [1u64, 2] {
        payload.extend_from_slice(&field.to_le_bytes()); // seq, id
    }
    payload.extend_from_slice(&3u32.to_le_bytes()); // tenant
    payload.extend_from_slice(&65u32.to_le_bytes());
    for (size, misses) in production_curve().iter().map(|p| (p.size, p.misses)) {
        payload.extend_from_slice(&size.to_bits().to_le_bytes());
        payload.extend_from_slice(&misses.to_bits().to_le_bytes());
    }
    assert_eq!(payload.len(), 1066);
    assert_eq!(checksum64(&payload), 0x2A26_C575_EB71_7D84);
    assert_eq!(
        decode_record(&framed(&payload)),
        Err(StoreError::Decode(DecodeError::BadVersion {
            got: 2,
            want: STORE_VERSION
        }))
    );
}

/// A 65-point curve — the size a production monitor reports.
fn production_curve() -> MissCurve {
    let sizes: Vec<f64> = (0..65).map(|i| 64.0 * i as f64).collect();
    let misses: Vec<f64> = (0..65).map(|i| 130.0 - 2.0 * i as f64).collect();
    MissCurve::from_samples(&sizes, &misses).unwrap()
}

/// A 65-point curve record is as long in v3 as it was in v2: the same
/// count, sizes and miss values, in another order.
#[test]
fn golden_v3_production_curve_record() {
    let bytes = encode_record(&Record::Curve {
        seq: 1,
        id: 2,
        tenant: 3,
        curve: production_curve(),
    });
    let payload = &bytes[RECORD_HEADER_LEN..];
    assert_eq!(payload.len(), 1066);
    assert_eq!(payload[..2], [3, 0x03]);
    assert_eq!(payload[22..26], 65u32.to_le_bytes());
    let curve = production_curve();
    let values = curve.sizes().iter().chain(curve.misses());
    for (raw, value) in payload[26..].chunks_exact(8).zip(values) {
        assert_eq!(raw, value.to_bits().to_le_bytes());
    }
    assert_eq!(checksum64(payload), 0x1A68_7C2E_F2B9_151C);
    assert_eq!(bytes[4..12], 0x1A68_7C2E_F2B9_151C_u64.to_le_bytes());
}

/// A v1 record as v1 wrote it: framed under FNV-1a.
fn framed_v1(payload: &[u8]) -> Vec<u8> {
    assert_eq!(payload[0], 1, "v1 fixtures carry version 1");
    framed_by(fnv1a64, payload)
}

/// `payload` with its version byte set to `version`, framed under
/// `checksum` — which must be what `checksum64` gives, as it was in v2.
/// A v2 record is a v1 fixture framed so: it differs from v1 in exactly
/// the version byte and the checksum.
fn framed_as(version: u8, payload: &[u8], checksum: u64) -> Vec<u8> {
    let mut want = (payload.len() as u32).to_le_bytes().to_vec();
    want.extend_from_slice(&checksum.to_le_bytes());
    want.push(version);
    want.extend_from_slice(&payload[1..]);
    assert_eq!(checksum64(&want[RECORD_HEADER_LEN..]), checksum);
    want
}

/// Pins `rec`'s v3 encoding — `payload` with version byte 3 and
/// `checksum` in the header — and checks it decodes back.
fn assert_golden_v3(rec: &Record, payload: &[u8], checksum: u64) {
    let bytes = encode_record(rec);
    assert_eq!(bytes, framed_as(3, payload, checksum));
    assert_eq!(decode_record(&bytes), Ok((rec.clone(), bytes.len())));
}

/// A record of a foreign version is refused as that — by the decoder
/// and by the scanner, which consumes none of it.
fn assert_refused(bytes: &[u8], version: u8) {
    let refused = StoreError::Decode(DecodeError::BadVersion {
        got: version,
        want: STORE_VERSION,
    });
    assert_eq!(decode_record(bytes), Err(refused.clone()));
    let scanned = scan(bytes);
    assert_eq!((scanned.consumed, scanned.tail), (0, Some(refused)));
}

fn assert_v1_refused(v1_payload: &[u8]) {
    assert_refused(&framed_v1(v1_payload), 1);
}

fn assert_v2_refused(v1_payload: &[u8], checksum: u64) {
    assert_refused(&framed_as(2, v1_payload, checksum), 2);
}

fn deregister_fixture() -> Record {
    Record::Deregister { seq: 7, id: 3 }
}

const V1_DEREGISTER: &[u8] = &[
    1, 0x02, // version, tag
    7, 0, 0, 0, 0, 0, 0, 0, // seq
    3, 0, 0, 0, 0, 0, 0, 0, // id
];

#[test]
fn golden_v1_deregister_record() {
    assert_eq!(V1_DEREGISTER.len(), 18);
    assert_v1_refused(V1_DEREGISTER);
}

#[test]
fn golden_v2_deregister_record() {
    assert_v2_refused(V1_DEREGISTER, 0xD531_AB24_DA08_6A82);
}

#[test]
fn golden_v3_deregister_record() {
    assert_golden_v3(&deregister_fixture(), V1_DEREGISTER, 0xF85E_2479_83F4_F219);
}

fn register_fixture() -> Record {
    Record::Register {
        seq: 1,
        id: 5,
        spec: spec(4096, 2, Planner::new(64)), // Hill, convexify, 5% margin, 1e-9 tol
    }
}

const V1_REGISTER: &[u8] = &[
    1, 0x01, // version, tag
    1, 0, 0, 0, 0, 0, 0, 0, // seq
    5, 0, 0, 0, 0, 0, 0, 0, // id
    0x00, 0x10, 0, 0, 0, 0, 0, 0, // capacity = 4096
    2, 0, 0, 0, // tenants
    64, 0, 0, 0, 0, 0, 0, 0, // grain
    0x9A, 0x99, 0x99, 0x99, 0x99, 0x99, 0xA9, 0x3F, // margin 0.05
    0x95, 0xD6, 0x26, 0xE8, 0x0B, 0x2E, 0x11, 0x3E, // tol 1e-9
    0,    // policy: Hill
    1,    // convexify: true
];

#[test]
fn golden_v1_register_record() {
    assert_v1_refused(V1_REGISTER);
}

#[test]
fn golden_v2_register_record() {
    assert_v2_refused(V1_REGISTER, 0xF588_7369_914B_7C42);
}

#[test]
fn golden_v3_register_record() {
    assert_golden_v3(&register_fixture(), V1_REGISTER, 0xE8F4_C71E_FA91_A3E8);
}

fn curve_fixture() -> Record {
    Record::Curve {
        seq: 9,
        id: 7,
        tenant: 1,
        curve: MissCurve::from_samples(&[0.0, 64.0], &[8.0, 2.0]).unwrap(),
    }
}

const V1_CURVE: &[u8] = &[
    1, 0x03, // version, tag
    9, 0, 0, 0, 0, 0, 0, 0, // seq
    7, 0, 0, 0, 0, 0, 0, 0, // id
    1, 0, 0, 0, // tenant
    2, 0, 0, 0, // point count
    0, 0, 0, 0, 0, 0, 0, 0, // size 0.0
    0, 0, 0, 0, 0, 0, 0x20, 0x40, // misses 8.0
    0, 0, 0, 0, 0, 0, 0x50, 0x40, // size 64.0
    0, 0, 0, 0, 0, 0, 0x00, 0x40, // misses 2.0
];

#[test]
fn golden_v1_curve_record() {
    assert_v1_refused(V1_CURVE);
}

#[test]
fn golden_v2_curve_record() {
    assert_v2_refused(V1_CURVE, 0x08F6_03C1_35E1_D100);
}

const V3_CURVE: &[u8] = &[
    3, 0x03, // version, tag
    9, 0, 0, 0, 0, 0, 0, 0, // seq
    7, 0, 0, 0, 0, 0, 0, 0, // id
    1, 0, 0, 0, // tenant
    2, 0, 0, 0, // point count
    0, 0, 0, 0, 0, 0, 0, 0, // size 0.0
    0, 0, 0, 0, 0, 0, 0x50, 0x40, // size 64.0
    0, 0, 0, 0, 0, 0, 0x20, 0x40, // misses 8.0
    0, 0, 0, 0, 0, 0, 0x00, 0x40, // misses 2.0
];

#[test]
fn golden_v3_curve_record() {
    assert_eq!(V3_CURVE.len(), V1_CURVE.len());
    assert_golden_v3(&curve_fixture(), V3_CURVE, 0xED1B_4311_D398_959E);
}

fn epoch_cut_fixture() -> Record {
    Record::EpochCut {
        seq: 11,
        shard: 2,
        epoch: 4,
        drained: vec![7, 3],
    }
}

const V1_EPOCH_CUT: &[u8] = &[
    1, 0x04, // version, tag
    11, 0, 0, 0, 0, 0, 0, 0, // seq
    2, 0, 0, 0, // shard
    4, 0, 0, 0, 0, 0, 0, 0, // epoch
    2, 0, 0, 0, // drained count
    7, 0, 0, 0, 0, 0, 0, 0, // drained[0]
    3, 0, 0, 0, 0, 0, 0, 0, // drained[1]
];

#[test]
fn golden_v1_epoch_cut_record() {
    assert_v1_refused(V1_EPOCH_CUT);
}

#[test]
fn golden_v2_epoch_cut_record() {
    assert_v2_refused(V1_EPOCH_CUT, 0xBB3C_B6AD_BC31_9BD7);
}

#[test]
fn golden_v3_epoch_cut_record() {
    assert_golden_v3(&epoch_cut_fixture(), V1_EPOCH_CUT, 0x9833_FD6E_B0BD_5F22);
}

fn plan_fixture() -> Record {
    Record::Plan {
        seq: 13,
        id: 5,
        epoch: 4,
        version: 2,
        updates: 6,
        plan: CachePlan {
            round: 1,
            tenants: vec![
                TenantPlan {
                    capacity: 512,
                    plan: TalusPlan::Unpartitioned {
                        size: 512.0,
                        expected_misses: 2.0,
                    },
                },
                TenantPlan {
                    capacity: 512,
                    plan: TalusPlan::Shadow(ShadowConfig {
                        total: 512.0,
                        alpha: 128.0,
                        beta: 1024.0,
                        rho: 0.5,
                        ideal_rho: 0.5,
                        s1: 64.0,
                        s2: 448.0,
                        expected_misses: 3.0,
                    }),
                },
            ],
        },
    }
}

const V1_PLAN: &[u8] = &[
    1, 0x05, // version, tag
    13, 0, 0, 0, 0, 0, 0, 0, // seq
    5, 0, 0, 0, 0, 0, 0, 0, // id
    4, 0, 0, 0, 0, 0, 0, 0, // epoch
    2, 0, 0, 0, 0, 0, 0, 0, // version
    6, 0, 0, 0, 0, 0, 0, 0, // updates
    1, 0, 0, 0, 0, 0, 0, 0, // round
    2, 0, 0, 0, // tenant count
    0x00, 0x02, 0, 0, 0, 0, 0, 0, // tenant 0 capacity = 512
    0, // plan tag: unpartitioned
    0, 0, 0, 0, 0, 0, 0x80, 0x40, // size 512.0
    0, 0, 0, 0, 0, 0, 0x00, 0x40, // expected_misses 2.0
    0x00, 0x02, 0, 0, 0, 0, 0, 0, // tenant 1 capacity = 512
    1, // plan tag: shadow
    0, 0, 0, 0, 0, 0, 0x80, 0x40, // total 512.0
    0, 0, 0, 0, 0, 0, 0x60, 0x40, // alpha 128.0
    0, 0, 0, 0, 0, 0, 0x90, 0x40, // beta 1024.0
    0, 0, 0, 0, 0, 0, 0xE0, 0x3F, // rho 0.5
    0, 0, 0, 0, 0, 0, 0xE0, 0x3F, // ideal_rho 0.5
    0, 0, 0, 0, 0, 0, 0x50, 0x40, // s1 64.0
    0, 0, 0, 0, 0, 0, 0x7C, 0x40, // s2 448.0
    0, 0, 0, 0, 0, 0, 0x08, 0x40, // expected_misses 3.0
];

#[test]
fn golden_v1_plan_record() {
    assert_v1_refused(V1_PLAN);
}

#[test]
fn golden_v2_plan_record() {
    assert_v2_refused(V1_PLAN, 0x3B2F_2C30_9550_4896);
}

#[test]
fn golden_v3_plan_record() {
    assert_golden_v3(&plan_fixture(), V1_PLAN, 0xD33E_C1C4_BF09_0F90);
}

/// A version bump must never eat a journal: a shard file written by v1
/// or v2 (the five fixtures above, framed as each version framed them)
/// makes `open` fail with the typed version error and is left
/// byte-for-byte as it was. The same holds for a file whose *later*
/// records are foreign (here: newer), however many intact v3 records
/// precede them.
#[test]
fn foreign_version_files_are_refused_and_left_untouched() {
    let v1_file: Vec<u8> = [V1_REGISTER, V1_CURVE, V1_EPOCH_CUT, V1_PLAN, V1_DEREGISTER]
        .iter()
        .flat_map(|payload| framed_v1(payload))
        .collect();
    let v2_file: Vec<u8> = [
        (V1_REGISTER, 0xF588_7369_914B_7C42),
        (V1_CURVE, 0x08F6_03C1_35E1_D100),
        (V1_EPOCH_CUT, 0xBB3C_B6AD_BC31_9BD7),
        (V1_PLAN, 0x3B2F_2C30_9550_4896),
        (V1_DEREGISTER, 0xD531_AB24_DA08_6A82),
    ]
    .iter()
    .flat_map(|&(payload, checksum)| framed_as(2, payload, checksum))
    .collect();
    let mut newer_tail = encode_record(&register_fixture());
    newer_tail.extend_from_slice(&framed(&[STORE_VERSION + 1, 0x02]));
    newer_tail.extend_from_slice(&[0xAB; 5]); // and a torn tail after it

    for (tag, file, got) in [
        ("v1-file", v1_file, 1),
        ("v2-file", v2_file, 2),
        ("newer-tail", newer_tail, STORE_VERSION + 1),
    ] {
        let dir = temp_dir(tag);
        let path = dir.join("shard-000.talus");
        std::fs::write(&path, &file).unwrap();
        assert_eq!(
            Store::open(&dir, 1).err(),
            Some(StoreError::Decode(DecodeError::BadVersion {
                got,
                want: STORE_VERSION
            })),
            "{tag}"
        );
        assert_eq!(std::fs::read(&path).unwrap(), file, "{tag}: file touched");
        std::fs::remove_dir_all(&dir).ok();
    }
}

// ---------------------------------------------------------------------
// Store-level recovery: reopen, torn tails, shard layout, history.
// ---------------------------------------------------------------------

#[test]
fn reopened_store_resumes_history_and_sequence() {
    let dir = temp_dir("reopen");
    let planner = Planner::new(64);
    let c0 = curve_from_seed(1);
    let c1 = curve_from_seed(2);
    {
        let store = Store::open(&dir, 2).unwrap();
        store.register(7, &spec(1024, 1, planner));
        store.submit(7, 0, &c0);
        assert_eq!(store.last_error(), None);
    }
    let store = Store::open(&dir, 2).unwrap();
    assert_eq!(store.recovery().records(), 2);
    assert_eq!(store.recovery().torn_bytes(), 0);
    store.submit(7, 0, &c1);
    drop(store);

    let store = Store::open(&dir, 2).unwrap();
    let history = store.history(7).unwrap();
    assert_eq!(history.len(), 2);
    assert_eq!(history[0].curve, c0);
    assert_eq!(history[1].curve, c1);
    // The sequence clock resumed: the second submission sorts after
    // everything from the first process lifetime.
    assert!(history[1].seq > history[0].seq);
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn torn_tail_is_truncated_on_open_and_intact_records_survive() {
    let dir = temp_dir("torn");
    let planner = Planner::new(64);
    {
        let store = Store::open(&dir, 1).unwrap();
        store.register(1, &spec(512, 1, planner));
        store.submit(1, 0, &curve_from_seed(3));
    }
    // Simulate a crash mid-append: a partial record at the end of the
    // file (here: a plausible header with only half its payload).
    let path = dir.join("shard-000.talus");
    let intact = std::fs::read(&path).unwrap();
    let torn = encode_record(&Record::Deregister { seq: 99, id: 1 });
    let mut bytes = intact.clone();
    bytes.extend_from_slice(&torn[..torn.len() - 5]);
    std::fs::write(&path, &bytes).unwrap();

    let store = Store::open(&dir, 1).unwrap();
    assert_eq!(store.recovery().records(), 2);
    assert_eq!(store.recovery().torn_bytes(), torn.len() - 5);
    assert!(store.recovery().shards[0].tail.is_some());
    drop(store);
    // The torn bytes are gone from disk; a second open is clean.
    assert_eq!(std::fs::read(&path).unwrap(), intact);
    let store = Store::open(&dir, 1).unwrap();
    assert_eq!(store.recovery().torn_bytes(), 0);
    std::fs::remove_dir_all(&dir).ok();
}

/// A v3 `Register` record holds whatever margin a local caller gave,
/// as v3 always wrote it; the wire's margin rule is not the journal's.
/// Each such record, laid out byte for byte as `V1_REGISTER` with
/// version 3 and another margin or tolerance, reads back bit for bit,
/// and a journal holding one ahead of later records reopens with
/// nothing cut off.
#[test]
fn a_v3_register_of_any_margin_reads_back_and_reopening_cuts_nothing() {
    const MARGIN_AT: usize = 2 + 8 + 8 + 8 + 4 + 8;
    let dir = temp_dir("any-margin");
    drop(Store::open(&dir, 1).unwrap());
    let mut journal = Vec::new();
    for (at, value) in [
        (MARGIN_AT, -0.5),
        (MARGIN_AT, f64::NAN),
        (MARGIN_AT, f64::INFINITY),
        (MARGIN_AT + 8, f64::NAN),
        (MARGIN_AT + 8, -1e-9),
    ] {
        let mut payload = V1_REGISTER.to_vec();
        payload[0] = STORE_VERSION;
        payload[at..at + 8].copy_from_slice(&value.to_le_bytes());
        let bytes = framed(&payload);
        let (rec, len) = decode_record(&bytes).expect("a v3 register reads back");
        assert_eq!((encode_record(&rec), len), (bytes.clone(), bytes.len()));
        journal.extend_from_slice(&bytes);
    }
    journal.extend_from_slice(&encode_record(&Record::Deregister { seq: 9, id: 5 }));
    let path = dir.join("shard-000.talus");
    std::fs::write(&path, &journal).unwrap();

    let store = Store::open(&dir, 1).unwrap();
    assert_eq!(store.recovery().records(), 6);
    assert_eq!(store.recovery().torn_bytes(), 0);
    drop(store);
    assert_eq!(std::fs::read(&path).unwrap(), journal, "nothing truncated");
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn appends_after_recovery_continue_the_journal() {
    let dir = temp_dir("resume");
    let planner = Planner::new(64);
    {
        let store = Store::open(&dir, 1).unwrap();
        store.register(1, &spec(512, 1, planner));
    }
    // Tear the file mid-record, reopen, and keep appending.
    let path = dir.join("shard-000.talus");
    let mut bytes = std::fs::read(&path).unwrap();
    let torn = encode_record(&Record::Deregister { seq: 50, id: 1 });
    bytes.extend_from_slice(&torn[..7]);
    std::fs::write(&path, &bytes).unwrap();

    let store = Store::open(&dir, 1).unwrap();
    store.submit(1, 0, &curve_from_seed(4));
    assert_eq!(store.last_error(), None);
    drop(store);

    let store = Store::open(&dir, 1).unwrap();
    assert_eq!(store.recovery().records(), 2);
    assert_eq!(store.recovery().torn_bytes(), 0);
    assert_eq!(store.history(1).unwrap().len(), 1);
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn shard_layout_mismatch_is_rejected() {
    let dir = temp_dir("layout");
    {
        let _store = Store::open(&dir, 4).unwrap();
    }
    match Store::open(&dir, 2) {
        Err(StoreError::ShardLayout { found, expected }) => {
            assert_eq!((found, expected), (4, 2));
        }
        other => panic!("expected ShardLayout error, got {other:?}"),
    }
    // The matching count still opens.
    assert!(Store::open(&dir, 4).is_ok());
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn records_route_to_the_canonical_shard_file() {
    let dir = temp_dir("route");
    let planner = Planner::new(64);
    let shards = 4;
    let store = Store::open(&dir, shards).unwrap();
    for id in 0..32u64 {
        store.register(id, &spec(1024, 1, planner));
    }
    assert_eq!(store.last_error(), None);
    for shard in 0..shards {
        let scanned = store.replay_shard(shard).unwrap();
        for rec in &scanned.records {
            let Record::Register { id, .. } = rec else {
                panic!("only registers were journaled");
            };
            assert_eq!(talus_core::shard_of(*id, shards), shard);
        }
    }
    std::fs::remove_dir_all(&dir).ok();
}

// ---------------------------------------------------------------------
// Write scopes: outside one, every append is on disk when the call
// returns; inside one (`begin` … `commit`, which the plane issues around
// each hold of a shard's registry lock) the records go out as one write
// at commit.
// ---------------------------------------------------------------------

fn shard_len(dir: &std::path::Path, shard: usize) -> u64 {
    std::fs::metadata(dir.join(format!("shard-{shard:03}.talus")))
        .expect("shard file exists")
        .len()
}

/// The property the repo benchmark's decomposed replay (and any caller
/// that uses a `Store` directly) relies on: with no scope open, each
/// sink call has grown its shard file by exactly its record before it
/// returns.
#[test]
fn appends_outside_a_scope_are_on_disk_when_the_call_returns() {
    let dir = temp_dir("write-through");
    let store = Store::open(&dir, 1).unwrap();
    let planner = Planner::new(64);
    let curve = curve_from_seed(5);
    let plan = plan_from_seed(6);
    let calls: [(&dyn Fn(), Record); 5] = [
        (
            &|| store.register(1, &spec(512, 1, planner)),
            Record::Register {
                seq: 0,
                id: 1,
                spec: spec(512, 1, planner),
            },
        ),
        (
            &|| store.submit(1, 0, &curve),
            Record::Curve {
                seq: 1,
                id: 1,
                tenant: 0,
                curve: curve.clone(),
            },
        ),
        (
            &|| store.epoch_cut(0, 1, &[1]),
            Record::EpochCut {
                seq: 2,
                shard: 0,
                epoch: 1,
                drained: vec![1],
            },
        ),
        (
            &|| store.plan(1, 1, 1, 1, &plan),
            Record::Plan {
                seq: 3,
                id: 1,
                epoch: 1,
                version: 1,
                updates: 1,
                plan: plan.clone(),
            },
        ),
        (
            &|| store.deregister(1),
            Record::Deregister { seq: 4, id: 1 },
        ),
    ];
    let mut want = Vec::new();
    for (call, record) in &calls {
        call();
        want.extend_from_slice(&encode_record(record));
        assert_eq!(
            std::fs::read(dir.join("shard-000.talus")).unwrap(),
            want,
            "{} not on disk when the call returned",
            record.label()
        );
    }
    assert_eq!(store.last_error(), None);
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn a_scope_buffers_its_records_and_commit_writes_them_in_order() {
    let dir = temp_dir("scope");
    let store = Store::open(&dir, 2).unwrap();
    let planner = Planner::new(64);
    // Ids placed on each shard by the canonical routing.
    let on = |shard| {
        (0u64..)
            .find(|id| talus_core::shard_of(*id, 2) == shard)
            .unwrap()
    };
    let (a, b) = (on(0), on(1));
    store.register(a, &spec(512, 1, planner));
    store.register(b, &spec(512, 1, planner));
    let before = [shard_len(&dir, 0), shard_len(&dir, 1)];

    store.begin(0);
    for seed in 0..3 {
        store.submit(a, 0, &curve_from_seed(seed));
    }
    store.epoch_cut(0, 1, &[a]);
    store.plan(a, 1, 1, 3, &plan_from_seed(1));
    assert_eq!(
        shard_len(&dir, 0),
        before[0],
        "a scope's records wait for commit"
    );
    // Scopes are per shard: shard 1 has none open and writes through.
    store.submit(b, 0, &curve_from_seed(9));
    assert!(shard_len(&dir, 1) > before[1]);
    store.commit(0);
    assert!(shard_len(&dir, 0) > before[0], "commit wrote the scope");

    // The scope is closed: appends write through again.
    let committed = shard_len(&dir, 0);
    store.deregister(a);
    assert!(shard_len(&dir, 0) > committed);
    assert_eq!(store.last_error(), None);

    let scanned = store.replay_shard(0).unwrap();
    assert_eq!(scanned.tail, None);
    let labels: Vec<_> = scanned.records.iter().map(Record::label).collect();
    assert_eq!(
        labels,
        [
            "register",
            "curve",
            "curve",
            "curve",
            "epoch-cut",
            "plan",
            "deregister"
        ]
    );
    let seqs: Vec<u64> = scanned.records.iter().map(Record::seq).collect();
    assert!(
        seqs.windows(2).all(|w| w[0] < w[1]),
        "seq not increasing: {seqs:?}"
    );
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn sync_inside_a_scope_writes_the_pending_records_first() {
    let dir = temp_dir("scope-sync");
    let store = Store::open(&dir, 1).unwrap();
    store.begin(0);
    store.register(1, &spec(512, 1, Planner::new(64)));
    store.submit(1, 0, &curve_from_seed(1));
    assert_eq!(shard_len(&dir, 0), 0);
    store.sync().expect("sync");
    let bytes = std::fs::read(dir.join("shard-000.talus")).unwrap();
    assert_eq!(records(&bytes).count(), 2, "sync wrote what the scope held");
    // The scope is still open, and still commits what comes after.
    store.deregister(1);
    assert_eq!(shard_len(&dir, 0), bytes.len() as u64);
    store.commit(0);
    assert_eq!(store.replay_shard(0).unwrap().records.len(), 3);
    std::fs::remove_dir_all(&dir).ok();
}

/// The `store.append` fault site is consulted once per record — never
/// once per write — so a script fires at the same record whether or not
/// the records around it share a scope, and the journal keeps the same
/// prefix: everything before the failed record, nothing after.
#[test]
fn the_append_fault_site_fires_per_record_at_the_same_ordinal_in_a_scope() {
    let mut journals = Vec::new();
    for scoped in [false, true] {
        let dir = temp_dir("scope-fault");
        let script = std::sync::Arc::new(FaultScript::new());
        script.inject("store.append", Some(0), 3, 1, FaultAction::Fail);
        let store = Store::open(&dir, 1)
            .unwrap()
            .with_fault_script(std::sync::Arc::clone(&script));
        store.register(1, &spec(512, 1, Planner::new(64)));
        if scoped {
            store.begin(0);
        }
        for seed in 0..5 {
            store.submit(1, 0, &curve_from_seed(seed));
        }
        if scoped {
            store.commit(0);
        }
        // Three records passed the site, the fourth tripped the fault,
        // and a faulted store drops appends before they reach the site.
        assert_eq!(script.seen("store.append"), 4, "scoped: {scoped}");
        assert_eq!(script.fired("store.append"), 1, "scoped: {scoped}");
        assert!(store.faulted());
        let scanned = store.replay_shard(0).unwrap();
        assert_eq!(scanned.tail, None);
        assert_eq!(scanned.records.len(), 3, "scoped: {scoped}");
        journals.push(scanned.records);
        std::fs::remove_dir_all(&dir).ok();
    }
    assert_eq!(journals[0], journals[1]);
}

// ---------------------------------------------------------------------
// The writer refuses what the reader refuses
// ---------------------------------------------------------------------

/// A curve of exactly `points` points.
fn curve_of(points: usize) -> MissCurve {
    MissCurve::new((0..points).map(|i| (i as f64, 1.0))).expect("valid")
}

/// A plan of `tenants` unpartitioned tenants.
fn plan_of(tenants: usize) -> CachePlan {
    CachePlan {
        round: 1,
        tenants: (0..tenants)
            .map(|_| TenantPlan {
                capacity: 64,
                plan: TalusPlan::Unpartitioned {
                    size: 64.0,
                    expected_misses: 0.5,
                },
            })
            .collect(),
    }
}

/// A curve at the point cap journals and reads back; one point over it
/// faults the store and leaves the file byte for byte as it was — where
/// it used to be written, refused by the next open as a torn tail, and
/// truncated away together with every record after it.
#[test]
fn a_curve_over_the_point_cap_faults_the_store_and_is_not_written() {
    let dir = temp_dir("point-cap");
    let path = dir.join("shard-000.talus");
    let cap = WIRE_MAX_CURVE_POINTS as usize;
    let store = Store::open(&dir, 1).unwrap();
    store.register(1, &spec(1 << 20, 1, Planner::new(64)));
    store.submit(1, 0, &curve_of(cap));
    assert_eq!(store.last_error(), None, "the cap itself is legal");
    let before = std::fs::read(&path).unwrap();

    store.submit(1, 0, &curve_of(cap + 1));
    assert!(store.is_faulted(), "a refused record is a failed write");
    assert_eq!(
        store.last_error(),
        Some(StoreError::Decode(DecodeError::BadCount {
            count: WIRE_MAX_CURVE_POINTS + 1,
            max: WIRE_MAX_CURVE_POINTS
        }))
    );
    // Faulted: later events are dropped, as after any failed write.
    store.submit(1, 0, &curve_of(3));
    store.epoch_cut(0, 1, &[1]);
    assert_eq!(std::fs::read(&path).unwrap(), before);
    drop(store);

    let store = Store::open(&dir, 1).unwrap();
    assert_eq!(store.recovery().torn_bytes(), 0, "nothing to truncate");
    assert_eq!(store.recovery().shards[0].tail, None);
    assert_eq!(store.recovery().records(), 2);
    assert_eq!(store.history(1).unwrap()[0].curve, curve_of(cap));
    std::fs::remove_dir_all(&dir).ok();
}

/// The same rule inside a lock scope, for each bound a live plane can
/// cross: the records buffered before the refusal are still committed,
/// the refused one and everything after it are not, and the next open
/// finds a clean journal with all of the former.
#[test]
fn reopen_after_a_refused_record_loses_nothing_written_before_it() {
    type Offender = fn(&Store);
    let offenders: [(&str, Offender, StoreError); 4] = [
        (
            "tenants",
            |s| s.register(9, &spec(1 << 20, WIRE_MAX_TENANTS + 1, Planner::new(64))),
            StoreError::Decode(DecodeError::BadCount {
                count: WIRE_MAX_TENANTS + 1,
                max: WIRE_MAX_TENANTS,
            }),
        ),
        (
            "plan-tenants",
            |s| s.plan(1, 1, 1, 1, &plan_of(WIRE_MAX_TENANTS as usize + 1)),
            StoreError::Decode(DecodeError::BadCount {
                count: WIRE_MAX_TENANTS + 1,
                max: WIRE_MAX_TENANTS,
            }),
        ),
        (
            "cut-ids",
            |s| s.epoch_cut(0, 1, &vec![1; STORE_MAX_CUT_IDS as usize + 1]),
            StoreError::Decode(DecodeError::BadCount {
                count: STORE_MAX_CUT_IDS + 1,
                max: STORE_MAX_CUT_IDS,
            }),
        ),
        (
            "curve-tenant",
            |s| s.submit(1, WIRE_MAX_TENANTS, &curve_of(2)),
            StoreError::Decode(DecodeError::BadCount {
                count: WIRE_MAX_TENANTS,
                max: WIRE_MAX_TENANTS - 1,
            }),
        ),
    ];
    for (tag, offend, error) in offenders {
        let dir = temp_dir(tag);
        let store = Store::open(&dir, 1).unwrap();
        store.register(1, &spec(1 << 20, 2, Planner::new(64)));
        store.begin(0);
        store.submit(1, 0, &curve_of(5));
        store.submit(1, 1, &curve_of(6));
        offend(&store);
        assert_eq!(store.last_error(), Some(error), "{tag}");
        store.submit(1, 0, &curve_of(7)); // dropped: the store is faulted
        store.commit(0);
        drop(store);

        let store = Store::open(&dir, 1).unwrap();
        assert_eq!(store.recovery().torn_bytes(), 0, "{tag}");
        assert_eq!(store.recovery().records(), 3, "{tag}");
        let history = store.history(1).unwrap();
        assert_eq!(history.len(), 2, "{tag}");
        assert_eq!(history[1].curve, curve_of(6), "{tag}");
        std::fs::remove_dir_all(&dir).ok();
    }
}

/// A record with one count at, just over, or far over its cap — the
/// caps at which the decoder starts refusing.
fn arb_record_near_a_cap() -> impl Strategy<Value = (Record, Option<(u32, u32)>)> {
    (0u64..5, 0u32..4, any::<u64>()).prop_map(|(kind, over, seed)| {
        // `over` 0: at the cap; 1..: beyond it, by one or by a lot.
        let beyond = [0, 1, 2, 1 + (seed % 900) as u32][over as usize];
        let at = |cap: u32| (cap + beyond, (beyond > 0).then_some((cap + beyond, cap)));
        match kind {
            0 => {
                let (tenants, refused) = at(WIRE_MAX_TENANTS);
                let planner = planner_from_seed(seed);
                let rec = Record::Register {
                    seq: seed,
                    id: 3,
                    spec: spec(64, tenants, planner),
                };
                (rec, refused)
            }
            1 => {
                let (points, refused) = at(WIRE_MAX_CURVE_POINTS);
                let curve = curve_of(points as usize);
                (
                    Record::Curve {
                        seq: seed,
                        id: 3,
                        tenant: 0,
                        curve,
                    },
                    refused,
                )
            }
            2 => {
                let (tenant, refused) = at(WIRE_MAX_TENANTS - 1);
                let curve = curve_from_seed(seed);
                (
                    Record::Curve {
                        seq: seed,
                        id: 3,
                        tenant,
                        curve,
                    },
                    refused,
                )
            }
            3 => {
                let (ids, refused) = at(STORE_MAX_CUT_IDS);
                let drained = vec![seed; ids as usize];
                (
                    Record::EpochCut {
                        seq: seed,
                        shard: 0,
                        epoch: 9,
                        drained,
                    },
                    refused,
                )
            }
            _ => {
                let (tenants, refused) = at(WIRE_MAX_TENANTS);
                let plan = plan_of(tenants as usize);
                let rec = Record::Plan {
                    seq: seed,
                    id: 3,
                    epoch: 1,
                    version: 1,
                    updates: 1,
                    plan,
                };
                (rec, refused)
            }
        }
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    /// Everything the encoder accepts, the decoder accepts — and gets
    /// the record back — across the point, tenant and cut-id caps, with
    /// every accepted record inside the record-length cap; everything it
    /// refuses is a count over its cap, refused with the decoder's own
    /// error, and leaves the buffer exactly as it was.
    #[test]
    fn whatever_the_encoder_accepts_the_decoder_accepts(
        (rec, refused) in arb_record_near_a_cap(),
        earlier in arb_record(),
    ) {
        let mut journal = encode_record(&earlier);
        let before = journal.clone();
        match encode_record_into(&rec, &mut journal) {
            Ok(()) => {
                prop_assert_eq!(refused, None);
                let appended = &journal[before.len()..];
                prop_assert!(appended.len() - RECORD_HEADER_LEN <= STORE_MAX_RECORD_LEN as usize);
                prop_assert_eq!(decode_record(appended), Ok((rec, appended.len())));
                prop_assert_eq!(&journal[..before.len()], &before[..]);
            }
            Err(e) => {
                let (count, max) = refused.expect("refused within the caps");
                prop_assert_eq!(e, DecodeError::BadCount { count, max });
                prop_assert_eq!(&journal, &before);
            }
        }
    }
}

/// The zero fields the decoder refuses are refused by the encoder too.
#[test]
fn zero_fields_are_refused_by_the_encoder() {
    let register = |capacity, tenants| Record::Register {
        seq: 1,
        id: 2,
        spec: spec(capacity, tenants, Planner::new(8)),
    };
    let plan = Record::Plan {
        seq: 1,
        id: 2,
        epoch: 1,
        version: 1,
        updates: 1,
        plan: plan_of(0),
    };
    for rec in [register(0, 1), register(64, 0), plan] {
        let mut out = vec![7];
        assert!(matches!(
            encode_record_into(&rec, &mut out),
            Err(DecodeError::Malformed(_))
        ));
        assert_eq!(out, [7]);
    }
}

// ---------------------------------------------------------------------
// The streaming reader: one fixed window, same verdict as the slice
// scanner, and a read error is an error — never a torn tail.
// ---------------------------------------------------------------------

/// A reader over `bytes` that hands out 1..=`most` bytes a call (sizes
/// from a xorshift on `state`), so record and window boundaries fall at
/// every possible place inside a read.
struct Dribble<'a> {
    bytes: &'a [u8],
    most: usize,
    state: u64,
}

impl Read for Dribble<'_> {
    fn read(&mut self, buf: &mut [u8]) -> std::io::Result<usize> {
        self.state ^= self.state << 13;
        self.state ^= self.state >> 7;
        self.state ^= self.state << 17;
        let n = (1 + (self.state % self.most as u64) as usize)
            .min(buf.len())
            .min(self.bytes.len());
        buf[..n].copy_from_slice(&self.bytes[..n]);
        self.bytes = &self.bytes[n..];
        Ok(n)
    }
}

/// A reader that yields `bytes` and then fails instead of reporting the
/// end of input.
struct FailsAfter<'a> {
    bytes: &'a [u8],
    kind: std::io::ErrorKind,
}

impl Read for FailsAfter<'_> {
    fn read(&mut self, buf: &mut [u8]) -> std::io::Result<usize> {
        if self.bytes.is_empty() {
            return Err(self.kind.into());
        }
        self.bytes.read(buf)
    }
}

/// The stream's verdict on `bytes` read `most` bytes at a time is the
/// slice scanner's: same records, same valid prefix, same tail.
fn assert_stream_matches_scan(bytes: &[u8], most: usize, seed: u64) {
    let streamed = records_from(Dribble {
        bytes,
        most,
        state: seed | 1,
    })
    .into_scan()
    .expect("a slice never fails to read");
    assert_eq!(
        streamed,
        scan(bytes),
        "{} bytes, ≤ {most} a read",
        bytes.len()
    );
}

/// `count` 65-point curve records for cache 1 — what a plane's journal
/// mostly holds — with `seq` counting from `first_seq`.
fn curve_journal(first_seq: u64, count: u64) -> Vec<u8> {
    let curve = curve_of(65);
    let mut bytes = Vec::new();
    for seq in first_seq..first_seq + count {
        let rec = Record::Curve {
            seq,
            id: 1,
            tenant: 0,
            curve: curve.clone(),
        };
        encode_record_into(&rec, &mut bytes).expect("within bounds");
    }
    bytes
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// `records_from(reader)` ≡ `records(&bytes)` on random journals —
    /// clean, torn at a random byte, or followed by soup — whatever the
    /// sizes of the reads that deliver them.
    #[test]
    fn the_stream_matches_the_slice_scanner(
        recs in proptest::collection::vec(arb_record(), 0..12),
        soup in proptest::collection::vec(any::<u8>(), 0..40),
        cut in any::<usize>(),
        most in 1usize..600,
        seed in any::<u64>(),
    ) {
        let mut bytes = Vec::new();
        for rec in &recs {
            bytes.extend_from_slice(&encode_record(rec));
        }
        assert_stream_matches_scan(&bytes, most, seed);
        assert_stream_matches_scan(&bytes[..cut % (bytes.len() + 1)], most, seed);
        bytes.extend_from_slice(&soup);
        assert_stream_matches_scan(&bytes, most, seed);
    }

    /// Truncation at EVERY byte of a multi-record journal, streamed: the
    /// torn-tail table of `truncation_at_every_byte_recovers_the_record_prefix`
    /// holds unchanged for the stream.
    #[test]
    fn the_stream_recovers_the_record_prefix_at_every_truncation(
        recs in proptest::collection::vec(arb_record(), 2..5),
        most in 1usize..64,
        seed in any::<u64>(),
    ) {
        let mut bytes = Vec::new();
        for rec in &recs {
            bytes.extend_from_slice(&encode_record(rec));
        }
        for cut in 0..=bytes.len() {
            assert_stream_matches_scan(&bytes[..cut], most, seed ^ cut as u64);
        }
    }
}

/// A journal several windows long: every refill starts at a record and
/// ends inside one (the record length does not divide the window), so a
/// record straddles each window's edge and must be carried to the front
/// to be decoded. Read whole windows at a time (as a file is), in
/// dribbles, and torn inside a record a window's length in.
#[test]
fn a_record_straddling_the_window_edge_is_carried_over() {
    let bytes = curve_journal(0, 3300);
    let record_len = bytes.len() / 3300;
    assert!(bytes.len() > 3 * STREAM_WINDOW_LEN);
    assert_ne!(
        STREAM_WINDOW_LEN % record_len,
        0,
        "no record straddles the edge"
    );
    let whole_reads = records_from(&bytes[..]).into_scan().unwrap();
    assert_eq!(whole_reads, scan(&bytes));
    assert_eq!(whole_reads.records.len(), 3300);
    assert_stream_matches_scan(&bytes, 70_000, 7);
    // Torn a few bytes into a record, a window's length into the file.
    let torn = &bytes[..STREAM_WINDOW_LEN + 5];
    let scanned = records_from(torn).into_scan().unwrap();
    assert_eq!(scanned, scan(torn));
    assert_eq!(scanned.records.len(), STREAM_WINDOW_LEN / record_len);
    assert_eq!(
        scanned.tail,
        Some(StoreError::Decode(DecodeError::Truncated))
    );
}

/// The largest records the format allows fit the window wherever they
/// start in it: a cut at the id cap (the largest a plane writes) decodes,
/// and a frame of exactly `STORE_MAX_RECORD_LEN` payload bytes — legal
/// framing, valid checksum, a body no encoder produces — is verified
/// whole and refused with the scanner's error, from different places
/// in the window and across its edge.
#[test]
fn maximum_length_records_fit_the_window() {
    let cut = Record::EpochCut {
        seq: 1,
        shard: 0,
        epoch: 1,
        drained: (0..u64::from(STORE_MAX_CUT_IDS)).collect(),
    };
    let mut longest = vec![0xA5; STORE_MAX_RECORD_LEN as usize];
    longest[0] = STORE_VERSION;
    longest[1] = 0x7F; // no such tag
    let longest = framed(&longest);
    assert_eq!(
        decode_record(&longest),
        Err(StoreError::Decode(DecodeError::BadTag { got: 0x7F })),
        "checksum verified over the whole payload, then the tag refused"
    );
    // Filler moves the cut and the long frame about the window (about a
    // window's worth puts them near its edge); the dribbled reads below
    // move the refills, and so the edge, again.
    for filler in [920, 700, 0] {
        let mut bytes = curve_journal(2, filler);
        encode_record_into(&cut, &mut bytes).unwrap();
        let valid = bytes.len();
        bytes.extend_from_slice(&longest);
        bytes.extend_from_slice(&curve_journal(5000, 3));
        let scanned = records_from(&bytes[..]).into_scan().unwrap();
        assert_eq!(scanned, scan(&bytes), "{filler} filler records");
        assert_eq!(scanned.consumed, valid);
        assert_eq!(scanned.records.last(), Some(&cut));
        assert_eq!(
            scanned.tail,
            Some(StoreError::Decode(DecodeError::BadTag { got: 0x7F }))
        );
        assert_stream_matches_scan(&bytes, 300_000, filler);
    }
}

/// A failed read is the stream's one `Err` item: the records before it
/// are delivered, nothing follows it, and it is never a tail — whatever
/// the error kind, `UnexpectedEof` included.
#[test]
fn a_read_error_is_yielded_as_an_error_and_never_as_a_tail() {
    let bytes = curve_journal(0, 3);
    for kind in [
        std::io::ErrorKind::Other,
        std::io::ErrorKind::UnexpectedEof,
        std::io::ErrorKind::PermissionDenied,
    ] {
        // Fails at a record boundary, and inside a record.
        for fail_at in [bytes.len() / 3, bytes.len() / 2] {
            let mut stream = records_from(FailsAfter {
                bytes: &bytes[..fail_at],
                kind,
            });
            assert!(matches!(
                stream.next(),
                Some(Ok(Record::Curve { seq: 0, .. }))
            ));
            assert_eq!(
                stream.next(),
                Some(Err(StoreError::Decode(DecodeError::Io(kind))))
            );
            assert_eq!(stream.next(), None);
            assert_eq!(stream.tail(), None, "{kind:?} read as a torn tail");
            assert_eq!(stream.consumed(), (bytes.len() / 3) as u64);
            assert_eq!(
                records_from(FailsAfter {
                    bytes: &bytes[..fail_at],
                    kind,
                })
                .into_scan(),
                Err(StoreError::Decode(DecodeError::Io(kind)))
            );
        }
    }
    // An interrupted read is retried, not reported.
    struct InterruptedOnce<'a>(&'a [u8], bool);
    impl Read for InterruptedOnce<'_> {
        fn read(&mut self, buf: &mut [u8]) -> std::io::Result<usize> {
            if !std::mem::replace(&mut self.1, true) {
                return Err(std::io::ErrorKind::Interrupted.into());
            }
            self.0.read(buf)
        }
    }
    assert_eq!(
        records_from(InterruptedOnce(&bytes, false)).into_scan(),
        Ok(scan(&bytes))
    );
}

/// Opening a shard far larger than the window: every record is
/// recovered, and the buffer a stream of that file reads through is the
/// one constant-size window before the first record and after the last —
/// the memory bound, asserted on the structure that enforces it.
#[test]
fn a_large_shard_opens_and_streams_through_one_window() {
    let dir = temp_dir("large");
    let path = dir.join("shard-000.talus");
    let records = 8200;
    let bytes = curve_journal(0, records);
    assert!(bytes.len() >= 8 << 20, "{} bytes", bytes.len());
    std::fs::write(&path, &bytes).unwrap();

    let store = Store::open(&dir, 1).unwrap();
    assert_eq!(store.recovery().records(), records as usize);
    assert_eq!(store.recovery().torn_bytes(), 0);
    assert_eq!(store.recovery().shards[0].max_seq, Some(records - 1));

    let mut stream = store.stream_shard(0).unwrap();
    assert_eq!(stream.capacity(), STREAM_WINDOW_LEN);
    let mut seen = 0;
    for rec in stream.by_ref() {
        assert_eq!(rec.unwrap().seq(), seen);
        seen += 1;
    }
    assert_eq!(seen, records);
    assert_eq!(stream.capacity(), STREAM_WINDOW_LEN);
    assert_eq!(
        (stream.consumed(), stream.tail()),
        (bytes.len() as u64, None)
    );
    assert_eq!(store.history(1).unwrap().len(), records as usize);
    assert_eq!(std::fs::read(&path).unwrap(), bytes, "open rewrote nothing");
    std::fs::remove_dir_all(&dir).ok();
}

/// A foreign-version record beyond the first window — more than a
/// window of intact records before it, more after — still refuses the
/// open and leaves the file untouched; so does a torn tail beyond it
/// get truncated at exactly the valid prefix.
#[test]
fn recovery_verdicts_hold_beyond_the_first_window() {
    let intact = curve_journal(0, 1100);
    assert!(intact.len() > STREAM_WINDOW_LEN);

    let dir = temp_dir("foreign-late");
    let path = dir.join("shard-000.talus");
    let mut file = intact.clone();
    file.extend_from_slice(&framed(&[STORE_VERSION + 1, 0x02]));
    file.extend_from_slice(&curve_journal(1100, 4));
    std::fs::write(&path, &file).unwrap();
    assert_eq!(
        Store::open(&dir, 1).err(),
        Some(StoreError::Decode(DecodeError::BadVersion {
            got: STORE_VERSION + 1,
            want: STORE_VERSION
        }))
    );
    assert_eq!(std::fs::read(&path).unwrap(), file, "file touched");
    std::fs::remove_dir_all(&dir).ok();

    let dir = temp_dir("torn-late");
    let path = dir.join("shard-000.talus");
    let mut file = intact.clone();
    file.extend_from_slice(&curve_journal(1100, 1)[..700]);
    std::fs::write(&path, &file).unwrap();
    let store = Store::open(&dir, 1).unwrap();
    assert_eq!(store.recovery().records(), 1100);
    assert_eq!(store.recovery().torn_bytes(), 700);
    assert_eq!(
        store.recovery().shards[0].tail,
        Some(StoreError::Decode(DecodeError::Truncated))
    );
    drop(store);
    assert_eq!(std::fs::read(&path).unwrap(), intact);
    std::fs::remove_dir_all(&dir).ok();
}

/// A stream of a live shard covers the records written when it was
/// opened and no others, ends cleanly, and holds no lock while it is
/// read: an append issued with the stream half-consumed completes (it
/// would deadlock here, on this one thread, if the stream held the
/// journal's lock).
#[test]
fn a_stream_sees_what_was_written_when_it_opened_and_blocks_no_append() {
    let dir = temp_dir("live-stream");
    let store = Store::open(&dir, 1).unwrap();
    store.register(1, &spec(1 << 20, 1, Planner::new(64)));
    for seed in 0..9 {
        store.submit(1, 0, &curve_from_seed(seed));
    }
    // A scope open on the shard buffers: its records are not on disk.
    store.begin(0);
    store.submit(1, 0, &curve_from_seed(100));
    let at_open = shard_len(&dir, 0);
    let mut stream = store.stream_shard(0).unwrap();
    store.commit(0);
    assert!(shard_len(&dir, 0) > at_open, "the scope's record landed");

    let first: Vec<_> = stream.by_ref().take(5).collect();
    assert!(first.iter().all(Result::is_ok));
    store.submit(1, 0, &curve_from_seed(101));
    store.deregister(1);
    assert_eq!(store.last_error(), None);

    assert_eq!(
        stream.by_ref().count(),
        5,
        "ten records were on disk at open"
    );
    assert_eq!((stream.consumed(), stream.tail()), (at_open, None));
    // A stream opened now sees them all.
    assert_eq!(store.replay_shard(0).unwrap().records.len(), 13);
    assert_eq!(store.history(1).unwrap().len(), 11);
    std::fs::remove_dir_all(&dir).ok();
}

/// A shard file that cannot be read is an error from every reader —
/// `history`, `replay_shard`, a stream — never an empty or short
/// history. (Swapping the file for a directory makes `read` fail on a
/// path that still opens.)
#[cfg(unix)]
#[test]
fn an_unreadable_shard_file_is_an_error_not_a_short_history() {
    let dir = temp_dir("unreadable");
    let path = dir.join("shard-000.talus");
    let store = Store::open(&dir, 1).unwrap();
    store.register(1, &spec(512, 1, Planner::new(64)));
    store.submit(1, 0, &curve_from_seed(1));
    std::fs::remove_file(&path).unwrap();
    std::fs::create_dir(&path).unwrap();

    assert!(matches!(
        store.history(1),
        Err(StoreError::Decode(DecodeError::Io(_)))
    ));
    assert!(matches!(
        store.replay_shard(0),
        Err(StoreError::Decode(DecodeError::Io(_)))
    ));
    let mut stream = store.stream_shard(0).unwrap();
    assert!(matches!(
        stream.next(),
        Some(Err(StoreError::Decode(DecodeError::Io(_))))
    ));
    assert_eq!((stream.next(), stream.tail()), (None, None));
    std::fs::remove_dir_all(&dir).ok();
}
