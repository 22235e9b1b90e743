//! The wire-protocol battery: round-trip properties for every message
//! type, golden-bytes fixtures pinning the v6 format (and the v3, v4 and
//! v5 frames it replaced, which a v6 decoder refuses), the Submit grid table's
//! canonical encoding and grid sharing, and an adversarial suite proving
//! the decoder is total — truncations, hostile length fields and counts,
//! dangling or unreferenced grids, wrong versions, garbage opcodes, and
//! random byte soup all come back as typed errors, never panics, and
//! never cost allocation proportional to an attacker-controlled length.
//! The same faults in a journal record come back as the same error.

use proptest::prelude::*;
use std::sync::Arc;
use talus_core::codec::DecodeError;
use talus_core::limits::{
    STORE_MAX_CUT_IDS, STORE_MAX_RECORD_LEN, WIRE_MAX_BATCH, WIRE_MAX_CURVE_POINTS,
    WIRE_MAX_FRAME_LEN, WIRE_MAX_GRAINS, WIRE_MAX_SHARDS, WIRE_MAX_TENANTS,
};
use talus_core::{
    CurveError, MissCurve, PlanError, PlaneHealth, ShardHealth, StoreHealth, TalusOptions,
};
use talus_partition::{AllocPolicy, Planner};
use talus_serve::wire::{
    decode_request, decode_response, encode_request, encode_response, read_frame, read_frame_into,
    ClusterInfo, Request, Response, ShadowSummary, SnapshotSummary, SubmitEntry, TenantSummary,
    WIRE_VERSION,
};
use talus_serve::{CacheId, CacheSpec, EpochReport, ServeError, ShardedReconfigService};
use talus_store::{
    checksum64, decode_record, encode_record, Record, StoreError, RECORD_HEADER_LEN, STORE_VERSION,
};

/// Real `CacheId`s from a throwaway service: the handle type is opaque
/// by design (only the plane mints ids), so tests that need ids in
/// decoded positions register real caches.
fn cache_ids(n: usize) -> Vec<CacheId> {
    let service = ShardedReconfigService::new(1);
    (0..n)
        .map(|_| service.register(CacheSpec::new(64, 1)))
        .collect()
}

/// Random monotone miss curve derived deterministically from a seed
/// (the same family the sharding property tests use).
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

/// A `ServeError` in every variant, picked by seed, over a pool of ids.
fn serve_error_from_seed(seed: u64, ids: &[CacheId]) -> ServeError {
    let id = ids[(seed >> 8) as usize % ids.len()];
    match seed % 8 {
        0 => ServeError::UnknownCache(id),
        1 => ServeError::TenantOutOfRange {
            cache: id,
            tenant: (seed >> 16) as usize % 1000,
            tenants: (seed >> 24) as usize % 1000,
        },
        5 => ServeError::Misrouted {
            cache: id,
            shard: (seed >> 32) as usize % 4096,
        },
        6 => ServeError::DuplicateCache(id),
        7 => ServeError::ClusterMint,
        2 => ServeError::Plan {
            cache: id,
            source: PlanError::SizeOutOfRange {
                size: (seed % 1000) as f64 * 0.5,
                min: 0.0,
                max: (seed % 999) as f64,
            },
        },
        3 => ServeError::Plan {
            cache: id,
            source: PlanError::InvalidSize {
                size: -((seed % 17) as f64),
            },
        },
        _ => ServeError::Plan {
            cache: id,
            source: PlanError::InvalidMargin {
                margin: -0.25 * (seed % 9) as f64,
            },
        },
    }
}

/// A spec the wire accepts, in every planner configuration, picked by
/// seed: up to [`WIRE_MAX_GRAINS`] grains of 1 line to 16 Mi lines.
fn spec_from_seed(seed: u64) -> CacheSpec {
    let policy = match seed % 4 {
        0 => AllocPolicy::Hill,
        1 => AllocPolicy::Lookahead,
        2 => AllocPolicy::Fair,
        _ => AllocPolicy::Imbalanced,
    };
    let grain = 1 + (seed >> 2) % (1 << 24);
    let grains = (seed >> 26) % (u64::from(WIRE_MAX_GRAINS) + 1);
    let mut planner = Planner::new(grain)
        .with_policy(policy)
        .with_options(TalusOptions {
            safety_margin: ((seed >> 36) % 11) as f64 * 0.01,
            vertex_tolerance: 1e-9 * (1 + (seed >> 40) % 5) as f64,
        });
    if seed & (1 << 50) != 0 {
        planner = planner.raw_curves();
    }
    let tenants = 1 + ((seed >> 44) % u64::from(WIRE_MAX_TENANTS)) as usize;
    CacheSpec::new((grain * grains).max(1), tenants).with_planner(planner)
}

/// Every request variant, picked by discriminant (the shim has no
/// `prop_oneof`, so weighting rides a modulus, as in `sharding.rs`).
fn arb_request() -> impl Strategy<Value = Request> {
    (any::<u64>(), any::<u64>(), any::<u64>(), any::<u64>()).prop_map(|(kind, a, b, seed)| {
        match kind % 9 {
            0 => Request::Register {
                spec: spec_from_seed(a),
            },
            1 => Request::Deregister { id: a },
            2 => {
                let entries = (0..1 + b % 5)
                    .map(|i| SubmitEntry {
                        id: a.wrapping_add(i),
                        tenant: (b >> 8) as u32 % 64,
                        curve: curve_from_seed(seed.wrapping_add(i)),
                    })
                    .collect();
                Request::Submit { entries }
            }
            3 => Request::RunEpoch,
            4 => Request::Report { id: a },
            5 => Request::Ping,
            6 => Request::Hello,
            7 => Request::RegisterAt {
                // Any id but the reserved top one, which decode refuses.
                id: a.min(u64::MAX - 1),
                spec: spec_from_seed(seed),
            },
            _ => Request::Health,
        }
    })
}

/// Every response variant. Ids come from a pool of real handles.
fn arb_response() -> impl Strategy<Value = Response> {
    (any::<u64>(), any::<u64>(), any::<u64>(), any::<u64>()).prop_map(|(kind, a, b, seed)| {
        let ids = cache_ids(4);
        match kind % 10 {
            0 => Response::Registered { id: a },
            9 => {
                // A topology slice that always satisfies the decoder's
                // validation: count >= 1, first + count <= total.
                let total = 1 + a % 64;
                let count = 1 + b % total;
                let first = seed % (total - count + 1);
                Response::Hello(ClusterInfo {
                    total_shards: total as u32,
                    first_shard: first as u32,
                    shard_count: count as u32,
                    epoch: a >> 8,
                    next_id: b >> 8,
                    health: PlaneHealth {
                        epochs: a >> 8,
                        caches: b % 100,
                        pending: (b >> 4) % 100,
                        quarantined: (0..seed % 3).collect(),
                        shards: (0..1 + b % 3)
                            .map(|i| ShardHealth {
                                caches: (b >> i) % 50,
                                pending: 0,
                                quarantined: 0,
                            })
                            .collect(),
                        store: StoreHealth::Ok,
                        connections: 0,
                        rejected: 0,
                    },
                })
            }
            1 => Response::Deregistered,
            2 => Response::SubmitReply {
                results: (0..1 + b % 6)
                    .map(|i| {
                        if (seed >> i) & 1 == 0 {
                            Ok(())
                        } else {
                            Err(serve_error_from_seed(seed.wrapping_add(i), &ids))
                        }
                    })
                    .collect(),
            },
            3 => Response::Epoch(EpochReport {
                epoch: a,
                planned: ids[..(b % 3) as usize].to_vec(),
                deferred: ids[..(b >> 2) as usize % 3].to_vec(),
                failed: (0..(b >> 4) % 3)
                    .map(|i| {
                        let e = serve_error_from_seed(seed.wrapping_add(i), &ids);
                        (ids[i as usize], e)
                    })
                    .collect(),
                quarantined: ids[..(b >> 6) as usize % 3].to_vec(),
                remaining_dirty: (b >> 8) as usize % 1000,
            }),
            4 => {
                if b % 4 == 0 {
                    Response::Snapshot(None)
                } else {
                    Response::Snapshot(Some(SnapshotSummary {
                        cache: a,
                        epoch: seed % 1000,
                        version: 1 + seed % 50,
                        updates: seed % 200,
                        round: seed % 30,
                        tenants: (0..b % 4)
                            .map(|i| TenantSummary {
                                capacity: 64 * (1 + (seed >> i) % 16),
                                expected_misses: (seed % 997) as f64 * 0.125,
                                shadow: if (seed >> (8 + i)) & 1 == 0 {
                                    None
                                } else {
                                    Some(ShadowSummary {
                                        alpha: (seed % 89) as f64,
                                        beta: (seed % 91) as f64 + 128.0,
                                        rho: (seed % 100) as f64 / 100.0,
                                    })
                                },
                            })
                            .collect(),
                    }))
                }
            }
            5 => Response::Pong,
            6 => Response::Busy,
            7 => Response::Health(PlaneHealth {
                epochs: a % 10_000,
                caches: b % 1000,
                pending: (b >> 4) % 1000,
                quarantined: (0..(seed % 4))
                    .map(|i| (seed >> 8).wrapping_add(i))
                    .collect(),
                shards: (0..1 + b % 4)
                    .map(|i| ShardHealth {
                        caches: (b >> i) % 100,
                        pending: (seed >> i) % 100,
                        quarantined: (a >> i) % 4,
                    })
                    .collect(),
                store: match seed % 3 {
                    0 => StoreHealth::None,
                    1 => StoreHealth::Ok,
                    _ => StoreHealth::Faulted,
                },
                connections: a % 100,
                rejected: (a >> 8) % 100,
            }),
            _ => Response::Error(serve_error_from_seed(seed, &ids)),
        }
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// `decode(encode(m)) == m` for every request variant — the frame
    /// also survives the stream reader, not just the payload decoder.
    #[test]
    fn requests_roundtrip(req in arb_request()) {
        let bytes = encode_request(&req);
        let payload = read_frame(&mut &bytes[..])
            .expect("valid frame")
            .expect("frame present");
        prop_assert_eq!(decode_request(&payload).expect("decodes"), req);
    }

    /// `decode(encode(m)) == m` for every response variant, including
    /// full `EpochReport`s and snapshot summaries with shadow configs.
    #[test]
    fn responses_roundtrip(resp in arb_response()) {
        let bytes = encode_response(&resp);
        let payload = read_frame(&mut &bytes[..])
            .expect("valid frame")
            .expect("frame present");
        prop_assert_eq!(decode_response(&payload).expect("decodes"), resp);
    }

    /// Random byte soup never panics any decoder entry point, and a
    /// stream of soup terminates (error or clean EOF) without panic.
    #[test]
    fn byte_soup_yields_typed_errors_not_panics(
        soup in proptest::collection::vec(any::<u8>(), 0..512),
    ) {
        // Direct payload decoding: any result is fine, panics are not.
        let _ = decode_request(&soup);
        let _ = decode_response(&soup);
        // Stream framing: drain until error or EOF, bounded.
        let mut reader = &soup[..];
        for _ in 0..soup.len() + 1 {
            match read_frame(&mut reader) {
                Ok(Some(payload)) => {
                    let _ = decode_request(&payload);
                    let _ = decode_response(&payload);
                }
                Ok(None) | Err(_) => break,
            }
        }
    }

    /// Every strict prefix of a valid frame is a typed failure: the
    /// stream reader reports truncation, and the payload decoder never
    /// succeeds on a shortened body (field boundaries don't align into
    /// an accidental smaller message).
    #[test]
    fn every_truncation_is_a_typed_error(req in arb_request()) {
        let bytes = encode_request(&req);
        for cut in 1..bytes.len() {
            let result = read_frame(&mut &bytes[..cut]);
            prop_assert_eq!(result, Err(DecodeError::Truncated), "cut at {}", cut);
        }
        let payload = &bytes[4..];
        for cut in 0..payload.len() {
            prop_assert!(decode_request(&payload[..cut]).is_err(), "cut at {}", cut);
        }
    }
}

/// The bits of a curve's sizes: two curves are on one wire grid exactly
/// when these are equal.
fn grid_bits(curve: &MissCurve) -> Vec<u64> {
    bits(curve.sizes())
}

/// A batch of 1–12 entries on 1–5 grids drawn from near-twins: a base
/// grid, the same with `-0.0` for its `0.0`, the same with its top size
/// one ulp up, its prefix, and an unrelated grid. An entry's curve is
/// built on a fresh allocation of its grid's sizes, or scaled from an
/// earlier curve on that grid and so sharing that curve's allocation.
fn grid_batch(seed: u64) -> Vec<SubmitEntry> {
    let mut state = seed | 1;
    let mut next = move || {
        state ^= state << 13;
        state ^= state >> 7;
        state ^= state << 17;
        state
    };
    let len = 2 + (next() % 8) as usize;
    let base: Vec<f64> = (0..len).map(|i| i as f64 * 64.0).collect();
    let mut negative_zero = base.clone();
    negative_zero[0] = -0.0;
    let mut ulp_up = base.clone();
    ulp_up[len - 1] = f64::from_bits(base[len - 1].to_bits() + 1);
    let mut other = vec![1.0 + (next() % 100) as f64];
    for _ in 1..1 + next() % 6 {
        let last = other[other.len() - 1];
        other.push(last + 1.0 + (next() % 50) as f64);
    }
    let mut pool = vec![
        base.clone(),
        negative_zero,
        ulp_up,
        base[..len - 1].to_vec(),
        other,
    ];
    // 1–5 grids of the pool, in a random order.
    for i in (1..pool.len()).rev() {
        pool.swap(i, (next() % (i as u64 + 1)) as usize);
    }
    pool.truncate(1 + (next() % 5) as usize);
    let mut entries: Vec<SubmitEntry> = Vec::new();
    for i in 0..1 + next() % 12 {
        let sizes = &pool[(next() % pool.len() as u64) as usize];
        let earlier = entries.iter().find(|e| grid_bits(&e.curve) == bits(sizes));
        let curve = match earlier {
            Some(e) if next() % 2 == 0 => e.curve.scaled(0.5),
            _ => {
                let misses: Vec<f64> = sizes.iter().map(|_| (next() % 1000) as f64 / 8.0).collect();
                MissCurve::from_samples(sizes, &misses).expect("valid curve")
            }
        };
        entries.push(SubmitEntry {
            id: next() % 64,
            tenant: i as u32 % 4,
            curve,
        });
    }
    entries
}

fn bits(values: &[f64]) -> Vec<u64> {
    values.iter().map(|v| v.to_bits()).collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// A Submit on any few grids round-trips bit for bit both ways — the
    /// decoded batch is the batch, and re-encoding it gives the frame —
    /// and its decoded curves share one allocation exactly when their
    /// sizes are equal bit for bit, one per grid the frame declares.
    #[test]
    fn submits_on_a_few_grids_roundtrip_bit_for_bit(seed in any::<u64>()) {
        let entries = grid_batch(seed);
        let bytes = encode_request(&Request::Submit { entries: entries.clone() });
        let Ok(Request::Submit { entries: got }) = decode_request(&bytes[4..]) else {
            panic!("not a submit");
        };
        prop_assert_eq!(got.len(), entries.len());
        for (a, b) in got.iter().zip(&entries) {
            prop_assert_eq!((a.id, a.tenant), (b.id, b.tenant));
            prop_assert_eq!(grid_bits(&a.curve), grid_bits(&b.curve));
            prop_assert_eq!(bits(a.curve.misses()), bits(b.curve.misses()));
        }
        prop_assert_eq!(
            encode_request(&Request::Submit { entries: got.clone() }),
            bytes.clone()
        );
        let mut distinct: Vec<Vec<u64>> = entries.iter().map(|e| grid_bits(&e.curve)).collect();
        distinct.sort();
        distinct.dedup();
        prop_assert_eq!(&bytes[10..14], &(distinct.len() as u32).to_le_bytes()[..]);
        for a in &got {
            for b in &got {
                prop_assert_eq!(
                    Arc::ptr_eq(a.curve.grid(), b.curve.grid()),
                    grid_bits(&a.curve) == grid_bits(&b.curve)
                );
            }
        }
    }
}

/// A reader that panics if the transport reads past the length prefix —
/// proof that a hostile length field is rejected *before* any payload
/// read or allocation happens.
struct PanicPastHeader {
    header: Vec<u8>,
    pos: usize,
}

impl std::io::Read for PanicPastHeader {
    fn read(&mut self, buf: &mut [u8]) -> std::io::Result<usize> {
        assert!(
            self.pos < self.header.len(),
            "decoder read past the hostile length prefix"
        );
        let n = buf.len().min(self.header.len() - self.pos);
        buf[..n].copy_from_slice(&self.header[self.pos..self.pos + n]);
        self.pos += n;
        Ok(n)
    }
}

#[test]
fn oversized_length_prefix_is_rejected_before_any_payload_read() {
    for len in [
        WIRE_MAX_FRAME_LEN + 1,
        WIRE_MAX_FRAME_LEN * 2,
        u32::MAX,
        0xDEAD_BEEF,
    ] {
        let mut reader = PanicPastHeader {
            header: len.to_le_bytes().to_vec(),
            pos: 0,
        };
        assert_eq!(
            read_frame(&mut reader),
            Err(DecodeError::Oversized {
                len,
                max: WIRE_MAX_FRAME_LEN
            })
        );
    }
}

#[test]
fn undersized_length_prefix_is_malformed() {
    for len in [0u32, 1] {
        let mut bytes = len.to_le_bytes().to_vec();
        bytes.push(WIRE_VERSION);
        assert!(matches!(
            read_frame(&mut &bytes[..]),
            Err(DecodeError::Malformed(_))
        ));
    }
}

#[test]
fn wrong_version_is_rejected_on_every_opcode() {
    for version in [0u8, 1, 9, 0xFF] {
        for opcode in 0..=0xFFu8 {
            let payload = [version, opcode];
            assert_eq!(
                decode_request(&payload),
                Err(DecodeError::BadVersion {
                    got: version,
                    want: WIRE_VERSION
                })
            );
            assert_eq!(
                decode_response(&payload),
                Err(DecodeError::BadVersion {
                    got: version,
                    want: WIRE_VERSION
                })
            );
        }
    }
}

#[test]
fn garbage_opcodes_are_typed_errors() {
    let request_ops = [0x01, 0x02, 0x03, 0x04, 0x05, 0x06, 0x07, 0x08, 0x09];
    let response_ops = [0x81, 0x82, 0x83, 0x84, 0x85, 0x86, 0x87, 0x88, 0x8E, 0x8F];
    for opcode in 0..=0xFFu8 {
        let payload = [WIRE_VERSION, opcode];
        if !request_ops.contains(&opcode) {
            match decode_request(&payload) {
                // Known opcode, body missing: truncation is the right error.
                Err(DecodeError::Truncated) => assert!(request_ops.contains(&opcode)),
                Err(DecodeError::BadTag { got }) => assert_eq!(got, opcode),
                Err(DecodeError::Malformed(_)) | Err(DecodeError::BadCount { .. }) => {
                    panic!("empty body cannot produce counts")
                }
                other => panic!("opcode {opcode:#04x}: unexpected {other:?}"),
            }
        }
        if !response_ops.contains(&opcode) {
            assert_eq!(
                decode_response(&payload),
                Err(DecodeError::BadTag { got: opcode }),
                "opcode {opcode:#04x}"
            );
        }
    }
}

#[test]
fn hostile_counts_fail_before_allocation() {
    // u32::MAX submit entries would be ~100 GiB if the decoder trusted
    // the count; the test passing at all is the no-allocation proof.
    let mut payload = vec![WIRE_VERSION, 0x03];
    payload.extend_from_slice(&u32::MAX.to_le_bytes());
    assert_eq!(
        decode_request(&payload),
        Err(DecodeError::BadCount {
            count: u32::MAX,
            max: WIRE_MAX_BATCH
        })
    );
    // In-cap counts the frame can't hold fail the remaining-bytes check.
    let mut payload = vec![WIRE_VERSION, 0x03];
    payload.extend_from_slice(&WIRE_MAX_BATCH.to_le_bytes());
    assert_eq!(decode_request(&payload), Err(DecodeError::Truncated));
    // Same for id lists inside an epoch report.
    let mut payload = vec![WIRE_VERSION, 0x84];
    payload.extend_from_slice(&7u64.to_le_bytes());
    payload.extend_from_slice(&u32::MAX.to_le_bytes());
    assert!(matches!(
        decode_response(&payload),
        Err(DecodeError::BadCount { .. })
    ));
}

#[test]
fn register_bounds_are_enforced_at_decode_time() {
    // The server plans the decoded spec as it is, so the decoder must
    // reject what `CacheSpec::new` would, and a spec whose plan would
    // climb past the wire's grain bound.
    let encode = |capacity: u64, tenants: u32| {
        let spec = CacheSpec {
            capacity,
            tenants: tenants as usize,
            planner: Planner::new(1),
        };
        encode_request(&Request::Register { spec })[4..].to_vec()
    };
    assert!(matches!(
        decode_request(&encode(0, 1)),
        Err(DecodeError::Malformed(_))
    ));
    assert!(matches!(
        decode_request(&encode(64, 0)),
        Err(DecodeError::Malformed(_))
    ));
    assert_eq!(
        decode_request(&encode(64, WIRE_MAX_TENANTS + 1)),
        Err(DecodeError::BadCount {
            count: WIRE_MAX_TENANTS + 1,
            max: WIRE_MAX_TENANTS
        })
    );
    assert!(decode_request(&encode(64, WIRE_MAX_TENANTS)).is_ok());
    let grains = u64::from(WIRE_MAX_GRAINS);
    assert!(decode_request(&encode(grains, 1)).is_ok());
    assert_eq!(
        decode_request(&encode(grains + 1, 1)),
        Err(DecodeError::BadCount {
            count: WIRE_MAX_GRAINS + 1,
            max: WIRE_MAX_GRAINS
        })
    );

    // The top id is reserved (the plane's id allocator resumes at
    // "largest id seen, plus one"): refused where it enters.
    let register_at = |id: u64| {
        let frame = encode_request(&Request::RegisterAt {
            id,
            spec: CacheSpec::new(64, 1),
        });
        decode_request(&frame[4..])
    };
    assert_eq!(
        register_at(u64::MAX),
        Err(DecodeError::Malformed("reserved cache id"))
    );
    assert!(register_at(u64::MAX - 1).is_ok());
}

/// A Submit payload (version byte onward) from raw parts, consistent
/// or not: `entries` as the declared entry count, each grid as its sizes,
/// each row as a grid index and its miss values.
fn submit_payload(entries: u32, grids: &[&[f64]], rows: &[(u32, &[f64])]) -> Vec<u8> {
    let mut payload = vec![WIRE_VERSION, 0x03];
    payload.extend_from_slice(&entries.to_le_bytes());
    payload.extend_from_slice(&(grids.len() as u32).to_le_bytes());
    for grid in grids {
        payload.extend_from_slice(&(grid.len() as u32).to_le_bytes());
        MissCurve::encode_values(grid, &mut payload);
    }
    for (i, (grid, values)) in rows.iter().enumerate() {
        payload.extend_from_slice(&(5 + i as u64).to_le_bytes());
        payload.extend_from_slice(&0u32.to_le_bytes());
        payload.extend_from_slice(&grid.to_le_bytes());
        MissCurve::encode_values(values, &mut payload);
    }
    payload
}

/// `submit_payload` with its entry count from its rows.
fn submit(grids: &[&[f64]], rows: &[(u32, &[f64])]) -> Vec<u8> {
    submit_payload(rows.len() as u32, grids, rows)
}

#[test]
fn invalid_curves_are_rejected_with_curve_errors() {
    // A grid fails as `from_samples` fails on its sizes under valid miss
    // values; a curve's values fail as they fail on a valid grid — the
    // decoder builds every curve through the same validation as a
    // locally built one.
    let points = MissCurve::from_samples;
    let bad_grids: [&[f64]; 6] = [
        &[64.0, 64.0],
        &[0.0, 64.0, 32.0],
        &[f64::NAN],
        &[0.0, f64::INFINITY],
        &[-1.0, 4.0],
        &[0.0, -0.0],
    ];
    for grid in bad_grids {
        let ones = vec![1.0; grid.len()];
        let want = points(grid, &ones).expect_err("an invalid grid");
        // Debug-formatted: a NaN in an error is not `==` itself.
        assert_eq!(
            format!("{:?}", decode_request(&submit(&[grid], &[(0, &ones)]))),
            format!("{:?}", Err::<Request, _>(DecodeError::Curve(want))),
        );
    }
    // An empty grid is too short for the frame's lower bound; padded
    // past it, the grid itself is refused.
    let mut empty = submit(&[&[]], &[(0, &[])]);
    assert_eq!(decode_request(&empty), Err(DecodeError::Truncated));
    empty.extend_from_slice(&[0; 16]);
    assert_eq!(
        decode_request(&empty),
        Err(DecodeError::Curve(CurveError::Empty))
    );
    let grid = [0.0, 64.0];
    for values in [[4.0, -1.0], [f64::NAN, 2.0], [4.0, f64::INFINITY]] {
        let want = points(&grid, &values).expect_err("invalid values");
        assert_eq!(
            format!("{:?}", decode_request(&submit(&[&grid], &[(0, &values)]))),
            format!("{:?}", Err::<Request, _>(DecodeError::Curve(want))),
        );
    }
    // -0.0 is a valid size and a valid miss value, as it is locally.
    assert!(decode_request(&submit(&[&[-0.0, 64.0]], &[(0, &[-0.0, 2.0])])).is_ok());
    assert!(decode_request(&submit(&[&grid], &[(0, &[4.0, 2.0])])).is_ok());
}

#[test]
fn a_grid_index_out_of_range_is_malformed() {
    let grid: &[f64] = &[0.0, 64.0];
    let out = Err(DecodeError::Malformed("grid index out of range"));
    for index in [1, 2, u32::MAX] {
        assert_eq!(
            decode_request(&submit(&[grid], &[(index, &[4.0, 2.0])])),
            out
        );
    }
    // Later entries are held to the table too.
    let rows: [(u32, &[f64]); 2] = [(0, &[4.0, 2.0]), (1, &[4.0, 2.0])];
    assert_eq!(decode_request(&submit(&[grid], &rows)), out);
    // No grid at all: every entry's index dangles.
    assert_eq!(decode_request(&submit(&[], &[(0, &[4.0])])), out);
}

#[test]
fn grids_are_unreferenced_or_out_of_order_only_in_a_malformed_frame() {
    let (a, b): (&[f64], &[f64]) = (&[0.0, 64.0], &[0.0, 32.0]);
    let two = [4.0, 2.0];
    assert_eq!(
        decode_request(&submit(&[a, b], &[(0, &two), (0, &two)])),
        Err(DecodeError::Malformed("unreferenced grid"))
    );
    // The table lists grids in order of first use: one encoding a batch.
    assert_eq!(
        decode_request(&submit(&[a, b], &[(1, &two), (0, &two)])),
        Err(DecodeError::Malformed("grid used before an earlier one"))
    );
    assert!(decode_request(&submit(&[a, b], &[(0, &two), (1, &two), (0, &two)])).is_ok());
}

#[test]
fn hostile_grid_counts_fail_before_allocation() {
    let grid: &[f64] = &[0.0, 64.0];
    // More grids than entries: some grid would go unused.
    let mut payload = submit(&[grid, grid], &[(0, &[4.0, 2.0])]);
    assert_eq!(
        decode_request(&payload),
        Err(DecodeError::BadCount { count: 2, max: 1 })
    );
    // [version, opcode, entry count, grid count, first point count, …]
    payload[2..6].copy_from_slice(&u32::MAX.to_le_bytes());
    payload[6..10].copy_from_slice(&u32::MAX.to_le_bytes());
    assert_eq!(
        decode_request(&payload),
        Err(DecodeError::BadCount {
            count: u32::MAX,
            max: WIRE_MAX_BATCH
        })
    );
    // A grid count the entry count allows but the bytes left cannot
    // hold, with the entries after it: refused before the table is read.
    let mut payload = vec![WIRE_VERSION, 0x03];
    payload.extend_from_slice(&1u32.to_le_bytes());
    payload.extend_from_slice(&1u32.to_le_bytes());
    payload.extend_from_slice(&[0; 24]);
    assert_eq!(decode_request(&payload), Err(DecodeError::Truncated));
    let mut payload = vec![WIRE_VERSION, 0x03];
    payload.extend_from_slice(&WIRE_MAX_BATCH.to_le_bytes());
    payload.extend_from_slice(&WIRE_MAX_BATCH.to_le_bytes());
    payload.extend_from_slice(&vec![0; 24 * WIRE_MAX_BATCH as usize]);
    assert_eq!(decode_request(&payload), Err(DecodeError::Truncated));
    // A grid's point count over the cap, then over the bytes left.
    let mut payload = submit(&[grid], &[(0, &[4.0, 2.0])]);
    payload[10..14].copy_from_slice(&u32::MAX.to_le_bytes());
    assert_eq!(
        decode_request(&payload),
        Err(DecodeError::BadCount {
            count: u32::MAX,
            max: WIRE_MAX_CURVE_POINTS
        })
    );
    payload[10..14].copy_from_slice(&WIRE_MAX_CURVE_POINTS.to_le_bytes());
    assert_eq!(decode_request(&payload), Err(DecodeError::Truncated));
}

/// The two-grid golden batch below: three entries, the middle one on a
/// grid of its own.
fn two_grid_batch() -> Request {
    let x = MissCurve::from_samples(&[0.0, 64.0], &[8.0, 2.0]).unwrap();
    let y = MissCurve::from_samples(&[0.0, 32.0, 64.0], &[4.0, 2.0, 1.0]).unwrap();
    let x2 = MissCurve::from_samples(&[0.0, 64.0], &[6.0, 3.0]).unwrap();
    let entry = |id, tenant, curve| SubmitEntry { id, tenant, curve };
    Request::Submit {
        entries: vec![entry(1, 0, x), entry(2, 1, y), entry(1, 1, x2)],
    }
}

#[test]
fn every_truncation_of_a_two_grid_frame_is_truncated() {
    let bytes = encode_request(&two_grid_batch());
    let payload = &bytes[4..];
    assert!(decode_request(payload).is_ok());
    for cut in 0..payload.len() {
        assert_eq!(
            decode_request(&payload[..cut]),
            Err(DecodeError::Truncated),
            "cut at {cut}"
        );
    }
}

#[test]
fn trailing_bytes_are_malformed() {
    for req in [
        Request::Ping,
        Request::RunEpoch,
        Request::Deregister { id: 3 },
    ] {
        let mut bytes = encode_request(&req);
        bytes.push(0x00);
        assert!(
            matches!(decode_request(&bytes[4..]), Err(DecodeError::Malformed(_))),
            "{req:?} must not tolerate trailing bytes"
        );
    }
}

/// A frame read off a stream and decoded, as a server reads a request.
fn read_request(frame: &[u8]) -> Result<Request, DecodeError> {
    let mut payload = Vec::new();
    assert!(read_frame_into(&mut &frame[..], &mut payload)?, "a frame");
    decode_request(&payload)
}

/// A journal record decoded, its decode failure unwrapped: every failure
/// below is one a wire frame can have too.
fn read_record(record: &[u8]) -> Result<Record, DecodeError> {
    match decode_record(record) {
        Ok((rec, _)) => Ok(rec),
        Err(StoreError::Decode(e)) => Err(e),
        Err(e) => panic!("a failure of the journal alone: {e:?}"),
    }
}

/// `payload` behind a wire length prefix.
fn wire_framed(payload: &[u8]) -> Vec<u8> {
    [&(payload.len() as u32).to_le_bytes()[..], payload].concat()
}

/// `payload` behind a journal record header: length and checksum.
fn journal_framed(payload: &[u8]) -> Vec<u8> {
    let len = (payload.len() as u32).to_le_bytes();
    [&len[..], &checksum64(payload).to_le_bytes(), payload].concat()
}

/// The wire and the journal fail the same way on the same fault: one
/// `DecodeError` variant from both decoders, each carrying its own
/// format's cap (`max`) and version (`want`).
#[test]
fn the_wire_and_the_journal_fail_with_one_error() {
    use std::mem::discriminant;
    let register = encode_request(&Request::Register {
        spec: CacheSpec::new(64, 1),
    });
    let deregister = encode_record(&Record::Deregister { seq: 1, id: 2 });
    let (wire_body, journal_body) = (&register[4..], &deregister[RECORD_HEADER_LEN..]);
    let cut = |bytes: &[u8]| bytes[..bytes.len() - 1].to_vec();
    let over = |len: u32, header: usize| [&len.to_le_bytes()[..], &vec![0; header - 4]].concat();
    let short = |header: usize, version: u8| {
        [&1u32.to_le_bytes()[..], &vec![0; header - 4], &[version]].concat()
    };
    // A Submit of one entry over the batch cap; an epoch cut (tag 4: seq,
    // shard, epoch, then its ids) of one id over the cut cap.
    let submit = [
        &[WIRE_VERSION, 0x03][..],
        &(WIRE_MAX_BATCH + 1).to_le_bytes(),
    ]
    .concat();
    let epoch_cut = [
        &[STORE_VERSION, 0x04][..],
        &[0; 8 + 4 + 8],
        &(STORE_MAX_CUT_IDS + 1).to_le_bytes(),
    ]
    .concat();
    let cases = [
        (
            "a length prefix over the cap",
            over(WIRE_MAX_FRAME_LEN + 1, 4),
            over(STORE_MAX_RECORD_LEN + 1, RECORD_HEADER_LEN),
            DecodeError::Oversized {
                len: WIRE_MAX_FRAME_LEN + 1,
                max: WIRE_MAX_FRAME_LEN,
            },
            DecodeError::Oversized {
                len: STORE_MAX_RECORD_LEN + 1,
                max: STORE_MAX_RECORD_LEN,
            },
        ),
        (
            "a length under the two header bytes",
            short(4, WIRE_VERSION),
            short(RECORD_HEADER_LEN, STORE_VERSION),
            DecodeError::Malformed("frame shorter than its header"),
            DecodeError::Malformed("frame shorter than its header"),
        ),
        (
            "another version",
            wire_framed(&[WIRE_VERSION + 1, 0x06]),
            journal_framed(&[STORE_VERSION + 1, 0x02]),
            DecodeError::BadVersion {
                got: WIRE_VERSION + 1,
                want: WIRE_VERSION,
            },
            DecodeError::BadVersion {
                got: STORE_VERSION + 1,
                want: STORE_VERSION,
            },
        ),
        (
            "an unknown opcode or tag",
            wire_framed(&[WIRE_VERSION, 0x7F]),
            journal_framed(&[STORE_VERSION, 0x7F]),
            DecodeError::BadTag { got: 0x7F },
            DecodeError::BadTag { got: 0x7F },
        ),
        (
            "a count over its cap",
            wire_framed(&submit),
            journal_framed(&epoch_cut),
            DecodeError::BadCount {
                count: WIRE_MAX_BATCH + 1,
                max: WIRE_MAX_BATCH,
            },
            DecodeError::BadCount {
                count: STORE_MAX_CUT_IDS + 1,
                max: STORE_MAX_CUT_IDS,
            },
        ),
        (
            "a body cut short under an honest length",
            wire_framed(&cut(wire_body)),
            journal_framed(&cut(journal_body)),
            DecodeError::Truncated,
            DecodeError::Truncated,
        ),
        (
            "bytes cut mid-body",
            cut(&register),
            cut(&deregister),
            DecodeError::Truncated,
            DecodeError::Truncated,
        ),
    ];
    for (what, frame, record, wire_error, journal_error) in cases {
        let (wire, journal) = (read_request(&frame), read_record(&record));
        assert_eq!(wire, Err(wire_error), "wire: {what}");
        assert_eq!(journal, Err(journal_error), "journal: {what}");
        let (wire, journal) = (wire.unwrap_err(), journal.unwrap_err());
        assert_eq!(discriminant(&wire), discriminant(&journal), "{what}");
    }
    // The untouched frame and record decode.
    assert!(read_request(&register).is_ok() && read_record(&deregister).is_ok());
}

// ---------------------------------------------------------------------
// Golden bytes: the v6 format, pinned byte for byte. If any of these
// fail, the wire format changed — bump WIRE_VERSION and make the change
// deliberate. v6 dropped the per-shard state byte from the plane-health
// block (the Health and Hello replies, pinned by the `golden_v6_*`
// frames); v5 replaced the Register and RegisterAt bodies (a whole
// cache spec, pinned by the `golden_v5_register_*` frames); v4 the
// Submit body (a grid table and values-only curves, pinned by the
// `golden_v4_submit_*` frames); every other frame is pinned by its v3
// fixture. An older fixture is what v6 sends but for the version byte,
// and v6 refuses to decode it. (v3 over v2: Hello handshake opcodes
// 0x08/0x88 carrying ClusterInfo, RegisterAt opcode 0x09 for
// client-minted ids, and serve-error tags 5/6/7 for cluster routing
// faults.)
// ---------------------------------------------------------------------

/// `encoded` is the fixture `old`, of an earlier version, but for its
/// version byte, and this decoder refuses the fixture itself as a
/// foreign version.
fn older_frame_is(encoded: &[u8], old: &[u8]) {
    let got = old[4];
    assert!(got < WIRE_VERSION, "an older fixture");
    assert_eq!(encoded[4], WIRE_VERSION);
    assert_eq!((&encoded[..4], &encoded[5..]), (&old[..4], &old[5..]));
    let refused = Err(DecodeError::BadVersion {
        got,
        want: WIRE_VERSION,
    });
    assert_eq!(decode_request(&old[4..]).map(|_| ()), refused);
    assert_eq!(decode_response(&old[4..]).map(|_| ()), refused);
}

#[test]
fn golden_v3_constants() {
    // A v3 frame is refused on its version byte, whatever its opcode.
    for opcode in [0x03, 0x06, 0x86] {
        assert_eq!(
            decode_request(&[3, opcode]),
            Err(DecodeError::BadVersion {
                got: 3,
                want: WIRE_VERSION
            })
        );
    }
    // The limits are part of the format contract (decoders reject by
    // them), so drifting them silently is a wire change too. v4 kept
    // v3's.
    assert_eq!(WIRE_MAX_FRAME_LEN, 1 << 20);
    assert_eq!(WIRE_MAX_BATCH, 1024);
    assert_eq!(WIRE_MAX_TENANTS, 1024);
    assert_eq!(WIRE_MAX_SHARDS, 4096);
}

#[test]
fn golden_v3_fixed_frames() {
    // [len=2 LE] [version=3] [opcode]
    older_frame_is(&encode_request(&Request::Ping), &[2, 0, 0, 0, 3, 0x06]);
    older_frame_is(&encode_request(&Request::RunEpoch), &[2, 0, 0, 0, 3, 0x04]);
    older_frame_is(&encode_request(&Request::Health), &[2, 0, 0, 0, 3, 0x07]);
    older_frame_is(&encode_response(&Response::Pong), &[2, 0, 0, 0, 3, 0x86]);
    older_frame_is(&encode_response(&Response::Busy), &[2, 0, 0, 0, 3, 0x8E]);
    older_frame_is(
        &encode_response(&Response::Deregistered),
        &[2, 0, 0, 0, 3, 0x82],
    );
}

#[test]
fn golden_v3_register_frame() {
    // len=14: version + opcode + capacity u64 LE + tenants u32 LE.
    let v3 = [
        14, 0, 0, 0, // length
        3, 0x01, // version, opcode
        0x00, 0x10, 0, 0, 0, 0, 0, 0, // capacity = 4096
        3, 0, 0, 0, // tenants
    ];
    let refused = Err(DecodeError::BadVersion {
        got: 3,
        want: WIRE_VERSION,
    });
    assert_eq!(decode_request(&v3[4..]), refused);
    // Relabelled v5, its body ends where a spec's grain begins.
    let mut relabelled = v3;
    relabelled[4] = WIRE_VERSION;
    assert_eq!(
        decode_request(&relabelled[4..]),
        Err(DecodeError::Truncated)
    );
}

#[test]
fn golden_v5_register_frame() {
    assert_eq!(WIRE_MAX_GRAINS, 256);
    // len=40: version + opcode + the spec body the journal's Register
    // record holds — the default planner at a capacity/64 grain.
    let request = Request::Register {
        spec: CacheSpec::new(4096, 3),
    };
    let bytes = encode_request(&request);
    older_frame_is(
        &bytes,
        &[
            40, 0, 0, 0, // length
            5, 0x01, // version, opcode
            0x00, 0x10, 0, 0, 0, 0, 0, 0, // capacity = 4096
            3, 0, 0, 0, // tenants
            64, 0, 0, 0, 0, 0, 0, 0, // grain
            0x9A, 0x99, 0x99, 0x99, 0x99, 0x99, 0xA9, 0x3F, // margin 0.05
            0x95, 0xD6, 0x26, 0xE8, 0x0B, 0x2E, 0x11, 0x3E, // tol 1e-9
            0,    // policy: Hill
            1,    // convexify: true
        ],
    );
    assert_eq!(decode_request(&bytes[4..]), Ok(request));
}

#[test]
fn golden_v3_submit_frame() {
    // v3 sent each curve as a point count and (size, misses) pairs.
    let v3 = [
        54, 0, 0, 0, // length = 2 + 4 + 8 + 4 + 4 + 2*16
        3, 0x03, // version, opcode
        1, 0, 0, 0, // entry count
        7, 0, 0, 0, 0, 0, 0, 0, // cache id
        1, 0, 0, 0, // tenant
        2, 0, 0, 0, // point count
        0, 0, 0, 0, 0, 0, 0, 0, // size 0.0
        0, 0, 0, 0, 0, 0, 0x20, 0x40, // misses 8.0
        0, 0, 0, 0, 0, 0, 0x50, 0x40, // size 64.0
        0, 0, 0, 0, 0, 0, 0x00, 0x40, // misses 2.0
    ];
    let refused = Err(DecodeError::BadVersion {
        got: 3,
        want: WIRE_VERSION,
    });
    assert_eq!(decode_request(&v3[4..]), refused);
    // Relabelled v4, its body is no v4 Submit: the id's low word reads
    // as a grid count over the entry count.
    let mut relabelled = v3;
    relabelled[4] = WIRE_VERSION;
    assert_eq!(
        decode_request(&relabelled[4..]),
        Err(DecodeError::BadCount { count: 7, max: 1 })
    );
}

#[test]
fn golden_v4_submit_one_grid_frame() {
    // The batch `golden_v3_submit_frame` pinned: its one grid is declared
    // once, and the curve is its miss values on it.
    let curve = MissCurve::from_samples(&[0.0, 64.0], &[8.0, 2.0]).unwrap();
    let request = Request::Submit {
        entries: vec![SubmitEntry {
            id: 7,
            tenant: 1,
            curve,
        }],
    };
    let bytes = encode_request(&request);
    older_frame_is(
        &bytes,
        &[
            62, 0, 0, 0, // length = 2 + 4 + 4 + (4 + 2*8) + (8 + 4 + 4 + 2*8)
            4, 0x03, // version, opcode
            1, 0, 0, 0, // entry count
            1, 0, 0, 0, // grid count
            2, 0, 0, 0, // grid 0: point count
            0, 0, 0, 0, 0, 0, 0, 0, // size 0.0
            0, 0, 0, 0, 0, 0, 0x50, 0x40, // size 64.0
            7, 0, 0, 0, 0, 0, 0, 0, // cache id
            1, 0, 0, 0, // tenant
            0, 0, 0, 0, // grid index
            0, 0, 0, 0, 0, 0, 0x20, 0x40, // misses 8.0
            0, 0, 0, 0, 0, 0, 0x00, 0x40, // misses 2.0
        ],
    );
    assert_eq!(decode_request(&bytes[4..]), Ok(request));
}

#[test]
fn golden_v4_submit_two_grid_frame() {
    // Grids in order of first use; the third entry names the first grid
    // again instead of repeating it.
    let request = two_grid_batch();
    let bytes = encode_request(&request);
    older_frame_is(
        &bytes,
        &[
            162, 0, 0, 0, // length
            4, 0x03, // version, opcode
            3, 0, 0, 0, // entry count
            2, 0, 0, 0, // grid count
            2, 0, 0, 0, // grid 0: point count
            0, 0, 0, 0, 0, 0, 0, 0, // size 0.0
            0, 0, 0, 0, 0, 0, 0x50, 0x40, // size 64.0
            3, 0, 0, 0, // grid 1: point count
            0, 0, 0, 0, 0, 0, 0, 0, // size 0.0
            0, 0, 0, 0, 0, 0, 0x40, 0x40, // size 32.0
            0, 0, 0, 0, 0, 0, 0x50, 0x40, // size 64.0
            1, 0, 0, 0, 0, 0, 0, 0, // entry 0: cache id
            0, 0, 0, 0, // tenant
            0, 0, 0, 0, // grid index
            0, 0, 0, 0, 0, 0, 0x20, 0x40, // misses 8.0
            0, 0, 0, 0, 0, 0, 0x00, 0x40, // misses 2.0
            2, 0, 0, 0, 0, 0, 0, 0, // entry 1: cache id
            1, 0, 0, 0, // tenant
            1, 0, 0, 0, // grid index
            0, 0, 0, 0, 0, 0, 0x10, 0x40, // misses 4.0
            0, 0, 0, 0, 0, 0, 0x00, 0x40, // misses 2.0
            0, 0, 0, 0, 0, 0, 0xF0, 0x3F, // misses 1.0
            1, 0, 0, 0, 0, 0, 0, 0, // entry 2: cache id
            1, 0, 0, 0, // tenant
            0, 0, 0, 0, // grid index
            0, 0, 0, 0, 0, 0, 0x18, 0x40, // misses 6.0
            0, 0, 0, 0, 0, 0, 0x08, 0x40, // misses 3.0
        ],
    );
    let Ok(Request::Submit { entries }) = decode_request(&bytes[4..]) else {
        panic!("not a submit");
    };
    assert_eq!(
        Request::Submit {
            entries: entries.clone()
        },
        request
    );
    assert!(Arc::ptr_eq(
        entries[0].curve.grid(),
        entries[2].curve.grid()
    ));
    assert!(!Arc::ptr_eq(
        entries[0].curve.grid(),
        entries[1].curve.grid()
    ));
}

#[test]
fn golden_v3_epoch_report_frame() {
    let ids = cache_ids(2);
    let bytes = encode_response(&Response::Epoch(EpochReport {
        epoch: 3,
        planned: vec![ids[0]],
        deferred: vec![],
        failed: vec![(ids[1], ServeError::UnknownCache(ids[1]))],
        quarantined: vec![],
        remaining_dirty: 2,
    }));
    older_frame_is(
        &bytes,
        &[
            59, 0, 0, 0, // length
            3, 0x84, // version, opcode
            3, 0, 0, 0, 0, 0, 0, 0, // epoch
            1, 0, 0, 0, // planned count
            0, 0, 0, 0, 0, 0, 0, 0, // planned[0] = cache id 0
            0, 0, 0, 0, // deferred count
            1, 0, 0, 0, // failed count
            1, 0, 0, 0, 0, 0, 0, 0, // failed[0] cache id 1
            1, // serve-error tag: UnknownCache
            1, 0, 0, 0, 0, 0, 0, 0, // the unknown id
            0, 0, 0, 0, // quarantined count (v2)
            2, 0, 0, 0, 0, 0, 0, 0, // remaining_dirty
        ],
    );
}

#[test]
fn golden_v3_quarantined_error_frame() {
    // Serve-error tag 4 (v2): a submission rejected by quarantine.
    let ids = cache_ids(1);
    let bytes = encode_response(&Response::Error(ServeError::Quarantined(ids[0])));
    older_frame_is(
        &bytes,
        &[
            11, 0, 0, 0, // length
            3, 0x8F, // version, opcode
            4,    // serve-error tag: Quarantined
            0, 0, 0, 0, 0, 0, 0, 0, // the quarantined id
        ],
    );
}

/// `fixture` is an older frame whose layout this version changed: it is
/// refused on its version byte, and relabelled as this version it fails
/// with `relabelled_error`.
fn older_layout_is_refused(fixture: &[u8], relabelled_error: DecodeError) {
    assert_eq!(
        decode_response(&fixture[4..]),
        Err(DecodeError::BadVersion {
            got: fixture[4],
            want: WIRE_VERSION,
        })
    );
    let mut relabelled = fixture.to_vec();
    relabelled[4] = WIRE_VERSION;
    assert_eq!(decode_response(&relabelled[4..]), Err(relabelled_error));
}

#[test]
fn golden_v3_health_frame() {
    // v3–v5 sent a state byte after each shard's counts.
    let v3 = [
        109, 0, 0, 0, // length
        3, 0x87, // version, opcode
        5, 0, 0, 0, 0, 0, 0, 0, // epochs
        3, 0, 0, 0, 0, 0, 0, 0, // caches
        1, 0, 0, 0, 0, 0, 0, 0, // pending
        4, 0, 0, 0, 0, 0, 0, 0, // connections
        7, 0, 0, 0, 0, 0, 0, 0, // rejected
        2, // store: Faulted
        1, 0, 0, 0, // quarantined count
        9, 0, 0, 0, 0, 0, 0, 0, // quarantined[0]
        2, 0, 0, 0, // shard count
        2, 0, 0, 0, 0, 0, 0, 0, // shard 0 caches
        1, 0, 0, 0, 0, 0, 0, 0, // shard 0 pending
        0, 0, 0, 0, 0, 0, 0, 0, // shard 0 quarantined
        0, // shard 0 state: Ok
        1, 0, 0, 0, 0, 0, 0, 0, // shard 1 caches
        0, 0, 0, 0, 0, 0, 0, 0, // shard 1 pending
        1, 0, 0, 0, 0, 0, 0, 0, // shard 1 quarantined
        1, // shard 1 state: Degraded
    ];
    // Relabelled v6, its two state bytes are left over.
    older_layout_is_refused(&v3, DecodeError::Malformed("trailing bytes after the body"));
    // A v5 frame is refused the same way.
    let mut v5 = v3;
    v5[4] = 5;
    assert_eq!(
        decode_response(&v5[4..]),
        Err(DecodeError::BadVersion { got: 5, want: 6 })
    );
}

#[test]
fn golden_v6_health_frame() {
    assert_eq!(WIRE_VERSION, 6);
    let shard = |caches, pending, quarantined| ShardHealth {
        caches,
        pending,
        quarantined,
    };
    let response = Response::Health(PlaneHealth {
        epochs: 5,
        caches: 3,
        pending: 1,
        quarantined: vec![9],
        shards: vec![shard(2, 1, 0), shard(1, 0, 1)],
        store: StoreHealth::Faulted,
        connections: 4,
        rejected: 7,
    });
    let bytes = encode_response(&response);
    assert_eq!(
        bytes,
        [
            107, 0, 0, 0, // length
            6, 0x87, // version, opcode
            5, 0, 0, 0, 0, 0, 0, 0, // epochs
            3, 0, 0, 0, 0, 0, 0, 0, // caches
            1, 0, 0, 0, 0, 0, 0, 0, // pending
            4, 0, 0, 0, 0, 0, 0, 0, // connections
            7, 0, 0, 0, 0, 0, 0, 0, // rejected
            2, // store: Faulted
            1, 0, 0, 0, // quarantined count
            9, 0, 0, 0, 0, 0, 0, 0, // quarantined[0]
            2, 0, 0, 0, // shard count
            2, 0, 0, 0, 0, 0, 0, 0, // shard 0 caches
            1, 0, 0, 0, 0, 0, 0, 0, // shard 0 pending
            0, 0, 0, 0, 0, 0, 0, 0, // shard 0 quarantined
            1, 0, 0, 0, 0, 0, 0, 0, // shard 1 caches
            0, 0, 0, 0, 0, 0, 0, 0, // shard 1 pending
            1, 0, 0, 0, 0, 0, 0, 0, // shard 1 quarantined
        ]
    );
    assert_eq!(decode_response(&bytes[4..]), Ok(response));
}

#[test]
fn hostile_health_shard_count_fails_before_allocation() {
    // A health frame claiming u32::MAX shards would be ~100 GiB if the
    // decoder trusted the count.
    let mut payload = vec![WIRE_VERSION, 0x87];
    for _ in 0..5 {
        payload.extend_from_slice(&0u64.to_le_bytes());
    }
    payload.push(0); // store: None
    payload.extend_from_slice(&0u32.to_le_bytes()); // no quarantined ids
    payload.extend_from_slice(&u32::MAX.to_le_bytes()); // hostile shards
    assert!(matches!(
        decode_response(&payload),
        Err(DecodeError::BadCount { .. })
    ));
}

#[test]
fn golden_v3_snapshot_frame() {
    let bytes = encode_response(&Response::Snapshot(Some(SnapshotSummary {
        cache: 5,
        epoch: 9,
        version: 2,
        updates: 4,
        round: 9,
        tenants: vec![TenantSummary {
            capacity: 1024,
            expected_misses: 2.0,
            shadow: Some(ShadowSummary {
                alpha: 64.0,
                beta: 128.0,
                rho: 0.5,
            }),
        }],
    })));
    older_frame_is(
        &bytes,
        &[
            88, 0, 0, 0, // length
            3, 0x85, // version, opcode
            1,    // present tag
            5, 0, 0, 0, 0, 0, 0, 0, // cache
            9, 0, 0, 0, 0, 0, 0, 0, // epoch
            2, 0, 0, 0, 0, 0, 0, 0, // version
            4, 0, 0, 0, 0, 0, 0, 0, // updates
            9, 0, 0, 0, 0, 0, 0, 0, // round
            1, 0, 0, 0, // tenant count
            0, 4, 0, 0, 0, 0, 0, 0, // capacity = 1024
            0, 0, 0, 0, 0, 0, 0x00, 0x40, // expected_misses 2.0
            1,    // shadow tag: present
            0, 0, 0, 0, 0, 0, 0x50, 0x40, // alpha 64.0
            0, 0, 0, 0, 0, 0, 0x60, 0x40, // beta 128.0
            0, 0, 0, 0, 0, 0, 0xE0, 0x3F, // rho 0.5
        ],
    );
    // Absent snapshot: just the tag.
    older_frame_is(
        &encode_response(&Response::Snapshot(None)),
        &[3, 0, 0, 0, 3, 0x85, 0],
    );
}

#[test]
fn golden_v3_hello_frames() {
    // The handshake request carries no body.
    older_frame_is(&encode_request(&Request::Hello), &[2, 0, 0, 0, 3, 0x08]);

    // The reply: topology slice, epoch, next-id hint, then the full
    // plane-health block, whose shard entries v6 changed.
    let v3 = [
        104, 0, 0, 0, // length
        3, 0x88, // version, opcode
        6, 0, 0, 0, // total_shards
        2, 0, 0, 0, // first_shard
        2, 0, 0, 0, // shard_count
        5, 0, 0, 0, 0, 0, 0, 0, // epoch
        9, 0, 0, 0, 0, 0, 0, 0, // next_id
        5, 0, 0, 0, 0, 0, 0, 0, // health: epochs
        1, 0, 0, 0, 0, 0, 0, 0, // health: caches
        0, 0, 0, 0, 0, 0, 0, 0, // health: pending
        0, 0, 0, 0, 0, 0, 0, 0, // health: connections
        0, 0, 0, 0, 0, 0, 0, 0, // health: rejected
        1, // store: Ok
        0, 0, 0, 0, // quarantined count
        1, 0, 0, 0, // shard count
        1, 0, 0, 0, 0, 0, 0, 0, // shard 0 caches
        0, 0, 0, 0, 0, 0, 0, 0, // shard 0 pending
        0, 0, 0, 0, 0, 0, 0, 0, // shard 0 quarantined
        0, // shard 0 state: Ok
    ];
    older_layout_is_refused(&v3, DecodeError::Malformed("trailing bytes after the body"));
}

#[test]
fn golden_v6_hello_reply_frame() {
    let response = Response::Hello(ClusterInfo {
        total_shards: 6,
        first_shard: 2,
        shard_count: 2,
        epoch: 5,
        next_id: 9,
        health: PlaneHealth {
            epochs: 5,
            caches: 1,
            pending: 0,
            quarantined: vec![],
            shards: vec![ShardHealth {
                caches: 1,
                pending: 0,
                quarantined: 0,
            }],
            store: StoreHealth::Ok,
            connections: 0,
            rejected: 0,
        },
    });
    let bytes = encode_response(&response);
    assert_eq!(
        bytes,
        [
            103, 0, 0, 0, // length
            6, 0x88, // version, opcode
            6, 0, 0, 0, // total_shards
            2, 0, 0, 0, // first_shard
            2, 0, 0, 0, // shard_count
            5, 0, 0, 0, 0, 0, 0, 0, // epoch
            9, 0, 0, 0, 0, 0, 0, 0, // next_id
            5, 0, 0, 0, 0, 0, 0, 0, // health: epochs
            1, 0, 0, 0, 0, 0, 0, 0, // health: caches
            0, 0, 0, 0, 0, 0, 0, 0, // health: pending
            0, 0, 0, 0, 0, 0, 0, 0, // health: connections
            0, 0, 0, 0, 0, 0, 0, 0, // health: rejected
            1, // store: Ok
            0, 0, 0, 0, // quarantined count
            1, 0, 0, 0, // shard count
            1, 0, 0, 0, 0, 0, 0, 0, // shard 0 caches
            0, 0, 0, 0, 0, 0, 0, 0, // shard 0 pending
            0, 0, 0, 0, 0, 0, 0, 0, // shard 0 quarantined
        ]
    );
    assert_eq!(decode_response(&bytes[4..]), Ok(response));
}

#[test]
fn golden_v3_register_at_frame() {
    // Client-minted registration: id + capacity + tenants.
    let v3 = [
        22, 0, 0, 0, // length
        3, 0x09, // version, opcode
        5, 0, 0, 0, 0, 0, 0, 0, // cache id
        0x00, 0x10, 0, 0, 0, 0, 0, 0, // capacity = 4096
        3, 0, 0, 0, // tenants
    ];
    let refused = Err(DecodeError::BadVersion {
        got: 3,
        want: WIRE_VERSION,
    });
    assert_eq!(decode_request(&v3[4..]), refused);
    let mut relabelled = v3;
    relabelled[4] = WIRE_VERSION;
    assert_eq!(
        decode_request(&relabelled[4..]),
        Err(DecodeError::Truncated)
    );
}

#[test]
fn golden_v5_register_at_frame() {
    // Client-minted registration: the id, then the spec body — here a
    // raw-curve Lookahead planner.
    let planner = Planner::new(64)
        .with_policy(AllocPolicy::Lookahead)
        .raw_curves();
    let request = Request::RegisterAt {
        id: 5,
        spec: CacheSpec::new(4096, 3).with_planner(planner),
    };
    let bytes = encode_request(&request);
    older_frame_is(
        &bytes,
        &[
            48, 0, 0, 0, // length
            5, 0x09, // version, opcode
            5, 0, 0, 0, 0, 0, 0, 0, // cache id
            0x00, 0x10, 0, 0, 0, 0, 0, 0, // capacity = 4096
            3, 0, 0, 0, // tenants
            64, 0, 0, 0, 0, 0, 0, 0, // grain
            0x9A, 0x99, 0x99, 0x99, 0x99, 0x99, 0xA9, 0x3F, // margin 0.05
            0x95, 0xD6, 0x26, 0xE8, 0x0B, 0x2E, 0x11, 0x3E, // tol 1e-9
            1,    // policy: Lookahead
            0,    // convexify: false
        ],
    );
    assert_eq!(decode_request(&bytes[4..]), Ok(request));
}

#[test]
fn golden_v3_cluster_error_frames() {
    let ids = cache_ids(1);

    // Tag 5: a request routed to a member that does not own the id.
    let bytes = encode_response(&Response::Error(ServeError::Misrouted {
        cache: ids[0],
        shard: 3,
    }));
    older_frame_is(
        &bytes,
        &[
            15, 0, 0, 0, // length
            3, 0x8F, // version, opcode
            5,    // serve-error tag: Misrouted
            0, 0, 0, 0, 0, 0, 0, 0, // the misrouted cache id
            3, 0, 0, 0, // the receiving member's owning shard hint
        ],
    );

    // Tag 6: RegisterAt collided with a different live spec.
    let bytes = encode_response(&Response::Error(ServeError::DuplicateCache(ids[0])));
    older_frame_is(
        &bytes,
        &[
            11, 0, 0, 0, // length
            3, 0x8F, // version, opcode
            6,    // serve-error tag: DuplicateCache
            0, 0, 0, 0, 0, 0, 0, 0, // the colliding id
        ],
    );

    // Tag 7: server-side minting rejected on a cluster topology.
    older_frame_is(
        &encode_response(&Response::Error(ServeError::ClusterMint)),
        &[3, 0, 0, 0, 3, 0x8F, 7],
    );
}
