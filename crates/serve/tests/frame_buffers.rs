//! The buffer-reusing codec entry points against the allocating ones
//! they now sit under: `encode_*_into` appends exactly the frame
//! `encode_*` returns, whatever the buffer held before, and
//! `read_frame_into` leaves in a reused buffer exactly the payload
//! `read_frame` returns — same errors, same clean end-of-stream, and no
//! stale tail when a short frame follows a long one.

use talus_core::codec::DecodeError;
use talus_core::limits::WIRE_MAX_FRAME_LEN;
use talus_core::{MissCurve, PlanError, PlaneHealth, ShardHealth, StoreHealth};
use talus_serve::wire::{
    decode_request, decode_response, encode_request, encode_request_into, encode_response,
    encode_response_into, read_frame, read_frame_into, ClusterInfo, Request, Response,
    ShadowSummary, SnapshotSummary, SubmitEntry, TenantSummary,
};
use talus_serve::{CacheId, CacheSpec, EpochReport, ServeError, ShardedReconfigService};

/// Real `CacheId`s from a throwaway service (only a plane mints ids).
fn cache_ids(n: usize) -> Vec<CacheId> {
    let service = ShardedReconfigService::new(1);
    (0..n)
        .map(|_| service.register(CacheSpec::new(64, 1)))
        .collect()
}

fn curve(points: usize) -> MissCurve {
    MissCurve::new((0..points).map(|i| (i as f64 * 64.0, 1.0 / (1 + i) as f64))).expect("valid")
}

fn health() -> PlaneHealth {
    PlaneHealth {
        epochs: 41,
        caches: 5,
        pending: 1,
        quarantined: vec![9, 11],
        shards: vec![
            ShardHealth {
                caches: 3,
                pending: 1,
                quarantined: 1,
            },
            ShardHealth {
                caches: 2,
                pending: 0,
                quarantined: 0,
            },
        ],
        store: StoreHealth::Faulted,
        connections: 2,
        rejected: 7,
    }
}

/// Every request variant; `Submit` from one small entry to a frame of
/// the repo benchmark's shape (272 × 65 points).
fn every_request() -> Vec<Request> {
    let submit = |entries: usize, points: usize| Request::Submit {
        entries: (0..entries)
            .map(|i| SubmitEntry {
                id: i as u64 * 3,
                tenant: i as u32 % 4,
                curve: curve(points + i % 3),
            })
            .collect(),
    };
    vec![
        Request::Register {
            spec: CacheSpec::new(1 << 20, 4),
        },
        Request::Deregister { id: 7 },
        submit(1, 1),
        submit(5, 17),
        submit(272, 65),
        Request::RunEpoch,
        Request::Report { id: u64::MAX },
        Request::Ping,
        Request::Health,
        Request::Hello,
        Request::RegisterAt {
            id: 42,
            spec: CacheSpec::new(4096, 3),
        },
    ]
}

/// Every response variant, and every `ServeError` and `PlanError`
/// variant inside them.
fn every_response() -> Vec<Response> {
    let ids = cache_ids(3);
    let errors = vec![
        ServeError::UnknownCache(ids[0]),
        ServeError::TenantOutOfRange {
            cache: ids[1],
            tenant: 7,
            tenants: 4,
        },
        ServeError::Quarantined(ids[2]),
        ServeError::Misrouted {
            cache: ids[0],
            shard: 3,
        },
        ServeError::DuplicateCache(ids[1]),
        ServeError::ClusterMint,
        ServeError::Plan {
            cache: ids[2],
            source: PlanError::SizeOutOfRange {
                size: 1.5,
                min: 2.0,
                max: 8.0,
            },
        },
        ServeError::Plan {
            cache: ids[0],
            source: PlanError::InvalidSize { size: -3.0 },
        },
        ServeError::Plan {
            cache: ids[1],
            source: PlanError::InvalidMargin { margin: -0.25 },
        },
    ];
    let tenant = |shadow| TenantSummary {
        capacity: 640,
        expected_misses: 0.125,
        shadow,
    };
    vec![
        Response::Registered { id: 99 },
        Response::Deregistered,
        Response::SubmitReply {
            results: std::iter::once(Ok(()))
                .chain(errors.iter().cloned().map(Err))
                .collect(),
        },
        Response::Epoch(EpochReport {
            epoch: 12,
            planned: ids.clone(),
            deferred: ids[..1].to_vec(),
            failed: vec![(ids[1], errors[6].clone())],
            quarantined: ids[2..].to_vec(),
            remaining_dirty: 5,
        }),
        Response::Snapshot(None),
        Response::Snapshot(Some(SnapshotSummary {
            cache: 3,
            epoch: 9,
            version: 4,
            updates: 17,
            round: 2,
            tenants: vec![
                tenant(None),
                tenant(Some(ShadowSummary {
                    alpha: 64.0,
                    beta: 512.0,
                    rho: 0.375,
                })),
            ],
        })),
        Response::Pong,
        Response::Health(health()),
        Response::Hello(ClusterInfo {
            total_shards: 6,
            first_shard: 2,
            shard_count: 2,
            epoch: 41,
            next_id: 17,
            health: health(),
        }),
        Response::Busy,
        Response::Error(errors[0].clone()),
    ]
}

/// One buffer for the whole test, as a connection keeps one for its
/// whole life: dirty from the start, grown by the largest frame, then
/// cleared and handed back for every later message.
#[test]
fn encode_into_a_dirty_reused_buffer_equals_encode() {
    let mut buf = vec![0xEE; 3 * 1024];
    let mut prefix = buf.clone();
    for req in every_request() {
        let want = encode_request(&req);
        // Appended behind what the buffer already holds…
        encode_request_into(&req, &mut buf);
        assert_eq!(&buf[..prefix.len()], &prefix[..], "{req:?}: prefix touched");
        assert_eq!(&buf[prefix.len()..], &want[..], "{req:?}");
        assert_eq!(decode_request(&buf[prefix.len() + 4..]), Ok(req.clone()));
        // …and, cleared, it is the whole frame, capacity kept.
        let capacity = buf.capacity();
        buf.clear();
        encode_request_into(&req, &mut buf);
        assert_eq!(buf, want);
        assert_eq!(buf.capacity(), capacity, "{req:?}: a warm buffer regrew");
        prefix.clone_from(&buf);
    }
    for resp in every_response() {
        let want = encode_response(&resp);
        encode_response_into(&resp, &mut buf);
        assert_eq!(
            &buf[..prefix.len()],
            &prefix[..],
            "{resp:?}: prefix touched"
        );
        assert_eq!(&buf[prefix.len()..], &want[..], "{resp:?}");
        assert_eq!(decode_response(&buf[prefix.len() + 4..]), Ok(resp.clone()));
        buf.clear();
        encode_response_into(&resp, &mut buf);
        assert_eq!(buf, want);
        prefix.clone_from(&buf);
    }
}

/// A `Submit` sizes a cold buffer once: the frame fits the first
/// reservation exactly.
#[test]
fn a_submit_frame_reserves_its_exact_size() {
    for req in every_request() {
        if matches!(req, Request::Submit { .. }) {
            let mut buf = Vec::new();
            encode_request_into(&req, &mut buf);
            assert_eq!(buf.capacity(), buf.len());
        }
    }
}

/// `read_frame_into` a reused, dirty buffer ≡ `read_frame`, frame after
/// frame down one stream, to the clean end-of-stream — including a
/// short frame straight after the longest one.
#[test]
fn read_frame_into_a_reused_buffer_equals_read_frame() {
    let mut stream = Vec::new();
    for req in every_request() {
        stream.extend_from_slice(&encode_request(&req));
    }
    for resp in every_response() {
        stream.extend_from_slice(&encode_response(&resp));
    }
    let (mut fresh, mut reused) = (&stream[..], &stream[..]);
    let mut buf = vec![0xEE; 100];
    let mut longest = 0;
    while let Some(want) = read_frame(&mut fresh).expect("well-formed stream") {
        assert_eq!(read_frame_into(&mut reused, &mut buf), Ok(true));
        assert_eq!(buf, want, "stale bytes after a {longest}-byte frame");
        longest = longest.max(want.len());
    }
    assert!(longest > 140_000, "the benchmark-shaped frame went through");
    assert_eq!(
        read_frame_into(&mut reused, &mut buf),
        Ok(false),
        "clean EOF"
    );
    assert!(
        buf.capacity() <= 2 * longest,
        "one frame's worth is retained"
    );
}

/// Every way a stream can end or lie, through both entry points.
#[test]
fn read_frame_into_fails_exactly_as_read_frame_does() {
    let frame = encode_request(&every_request().swap_remove(3));
    let oversized = |len: u32| {
        (
            len.to_le_bytes().to_vec(),
            Err(DecodeError::Oversized {
                len,
                max: WIRE_MAX_FRAME_LEN,
            }),
        )
    };
    let cases: Vec<(Vec<u8>, Result<bool, DecodeError>)> = vec![
        (Vec::new(), Ok(false)),                            // clean end-of-stream
        (frame[..1].to_vec(), Err(DecodeError::Truncated)), // EOF mid-length
        (frame[..3].to_vec(), Err(DecodeError::Truncated)),
        (frame[..4].to_vec(), Err(DecodeError::Truncated)), // EOF before the payload
        (
            frame[..frame.len() / 2].to_vec(),
            Err(DecodeError::Truncated),
        ), // mid-payload
        (
            frame[..frame.len() - 1].to_vec(),
            Err(DecodeError::Truncated),
        ),
        oversized(WIRE_MAX_FRAME_LEN + 1),
        oversized(u32::MAX),
        (
            [&1u32.to_le_bytes()[..], &[3]].concat(),
            Err(DecodeError::Malformed("frame shorter than its header")),
        ),
        (
            // A frame of exactly the cap is allowed — and absent here.
            [&WIRE_MAX_FRAME_LEN.to_le_bytes()[..], &[3, 6]].concat(),
            Err(DecodeError::Truncated),
        ),
        (frame.clone(), Ok(true)),
    ];
    for (bytes, want) in cases {
        let mut buf = vec![0xEE; 50_000];
        assert_eq!(
            read_frame_into(&mut &bytes[..], &mut buf),
            want,
            "{bytes:?}"
        );
        let fresh = read_frame(&mut &bytes[..]);
        assert_eq!(
            fresh.as_ref().map(Option::is_some),
            want.as_ref().map(|&b| b)
        );
        if want == Ok(true) {
            assert_eq!(Some(buf), fresh.expect("read"), "the same payload");
        }
    }
}
