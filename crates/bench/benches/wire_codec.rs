//! The wire codec on the repo benchmark's frame: what a curve costs to
//! carry, apart from the sockets that carry it.
//!
//! `plane_rpc_journal` sends one `Submit` of 272 entries × 65 points
//! (≈ 146 KB: the one grid once, then 272 values-only curves) and 64
//! single-id `Report` round trips per cycle. These benches price each
//! codec step of that cycle on its own:
//!
//! - `encode_submit_272x65`: [`encode_request`] — a fresh `Vec` per
//!   frame, so every iteration maps and first-touches the frame's pages;
//! - `encode_submit_272x65_into_reused`: [`encode_request_into`] a
//!   cleared buffer the way a connection does — the same bytes, pages
//!   already resident. The gap between the two is what buffer ownership
//!   buys per frame. Every curve holds its own allocation of the grid, as
//!   the benchmark's pool curves do, so the encoder finds each entry's
//!   table entry by comparing sizes, not pointers;
//! - `decode_submit_272x65`: [`decode_request`] of that frame — one grid
//!   decoded from its table entry and shared by all 272 curves, then one
//!   miss-value allocation and validation per curve;
//! - `{encode,decode}_submit_272x65_4_grids`: the same batch with each
//!   tenant's curves on a grid of their own, interleaved — a four-entry
//!   table, searched per entry;
//! - `report_reply_roundtrip`: a `Report` request and its four-tenant
//!   `Snapshot` reply, each encoded into a reused buffer and decoded —
//!   the codec share of the cycle's 64 small round trips;
//! - `read_frame_into_146k`: [`read_frame_into`] a reused buffer from an
//!   in-memory stream — the copy a socket read costs, without the socket.

use criterion::{black_box, criterion_group, criterion_main, Criterion};
use talus_core::MissCurve;
use talus_serve::wire::{
    decode_request, decode_response, encode_request, encode_request_into, encode_response_into,
    read_frame_into, Request, Response, ShadowSummary, SnapshotSummary, SubmitEntry, TenantSummary,
};

/// Entries per `Submit` frame: 64 caches × 4 tenants + 16 re-sends.
const ENTRIES: u64 = 272;
/// Points per curve.
const POINTS: u64 = 65;

/// The batch on `grids` size grids: entry `i` is on grid `i % grids`.
fn submit(grids: u64) -> Request {
    let curve = |seed: u64| {
        let step = 1024.0 * (1 + seed % grids) as f64;
        MissCurve::new((0..POINTS).map(|i| {
            let misses = 100.0 / (1 + i + seed % 7) as f64;
            (i as f64 * step, misses)
        }))
        .expect("valid curve")
    };
    Request::Submit {
        entries: (0..ENTRIES)
            .map(|i| SubmitEntry {
                id: i / 4,
                tenant: (i % 4) as u32,
                curve: curve(i),
            })
            .collect(),
    }
}

fn snapshot() -> Response {
    Response::Snapshot(Some(SnapshotSummary {
        cache: 17,
        epoch: 9,
        version: 4,
        updates: 16,
        round: 2,
        tenants: (0..4)
            .map(|t| TenantSummary {
                capacity: 16_384,
                expected_misses: 0.125 * f64::from(t),
                shadow: (t % 2 == 0).then_some(ShadowSummary {
                    alpha: 4096.0,
                    beta: 32_768.0,
                    rho: 0.375,
                }),
            })
            .collect(),
    }))
}

fn bench_wire_codec(c: &mut Criterion) {
    let mut group = c.benchmark_group("wire_codec");
    let request = submit(1);
    let frame = encode_request(&request);
    assert!(frame.len() > 146_000, "the benchmark-shaped frame");

    group.bench_function("encode_submit_272x65", |b| {
        b.iter(|| black_box(encode_request(black_box(&request))))
    });

    let mut buf = Vec::new();
    group.bench_function("encode_submit_272x65_into_reused", |b| {
        b.iter(|| {
            buf.clear();
            encode_request_into(black_box(&request), &mut buf);
            black_box(buf.len())
        })
    });
    // Each reused buffer is empty only if a filter skipped its row.
    assert!(buf.is_empty() || buf == frame);

    group.bench_function("decode_submit_272x65", |b| {
        b.iter(|| black_box(decode_request(black_box(&frame[4..])).expect("well-formed")))
    });

    let four = submit(4);
    let four_frame = encode_request(&four);
    assert_eq!(
        four_frame.len(),
        frame.len() + 3 * (4 + 8 * POINTS as usize)
    );
    group.bench_function("encode_submit_272x65_4_grids", |b| {
        b.iter(|| {
            buf.clear();
            encode_request_into(black_box(&four), &mut buf);
            black_box(buf.len())
        })
    });
    group.bench_function("decode_submit_272x65_4_grids", |b| {
        b.iter(|| black_box(decode_request(black_box(&four_frame[4..])).expect("well-formed")))
    });

    let (report, reply) = (Request::Report { id: 17 }, snapshot());
    group.bench_function("report_reply_roundtrip", |b| {
        b.iter(|| {
            buf.clear();
            encode_request_into(black_box(&report), &mut buf);
            let request = decode_request(&buf[4..]).expect("well-formed");
            buf.clear();
            encode_response_into(black_box(&reply), &mut buf);
            let response = decode_response(&buf[4..]).expect("well-formed");
            black_box((request, response))
        })
    });

    let mut read = Vec::new();
    group.bench_function("read_frame_into_146k", |b| {
        b.iter(|| {
            let mut stream = black_box(&frame[..]);
            assert!(read_frame_into(&mut stream, &mut read).expect("whole frame"));
            black_box(read.len())
        })
    });
    assert!(read.is_empty() || read == frame[4..]);
    group.finish();
}

criterion_group!(benches, bench_wire_codec);
criterion_main!(benches);
