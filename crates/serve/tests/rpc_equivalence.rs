//! The network layer's defining invariant, extending the sharding
//! discipline across the wire: for any interleaving of register /
//! submit / deregister / epoch operations, a plane driven through
//! `RpcClient` → loopback TCP → `RpcServer` returns bit-identical
//! results — per-op errors, `EpochReport`s, and final published
//! snapshots — to a local [`ShardedReconfigService`] fed the same
//! interleaving. The wire adds *transport*, never *policy*.

mod common;

use std::sync::Arc;

use common::{apply_both, arb_op, curve_from_seed, Front, Slots};
use proptest::prelude::*;
use talus_core::codec::DecodeError;
use talus_core::limits::{
    WIRE_MAX_BATCH, WIRE_MAX_CURVE_POINTS, WIRE_MAX_EPOCH_IDS, WIRE_MAX_FRAME_LEN, WIRE_MAX_GRAINS,
    WIRE_MAX_TENANTS,
};
use talus_core::{MissCurve, TalusOptions};
use talus_partition::{put_spec, AllocPolicy, Planner};
use talus_serve::wire::{decode_request, encode_request, Request, SubmitEntry, WIRE_VERSION};
use talus_serve::{
    CacheId, CacheSpec, EpochReport, RpcClient, RpcError, RpcServer, ServeError,
    ShardedReconfigService,
};
use talus_store::{checksum64, decode_record, StoreError, STORE_VERSION};

/// Flattens a client result into the local `submit`/`deregister` shape
/// so per-op outcomes compare directly; transport errors are bugs.
fn as_serve_result(result: Result<(), RpcError>) -> Result<(), ServeError> {
    match result {
        Ok(()) => Ok(()),
        Err(RpcError::Serve(e)) => Err(e),
        Err(other) => panic!("transport failed mid-property: {other}"),
    }
}

impl Front for RpcClient {
    fn register(&mut self, spec: CacheSpec) -> CacheId {
        self.register_spec(spec).expect("register over rpc")
    }
    fn submit(&mut self, id: CacheId, tenant: usize, curve: MissCurve) -> Result<(), ServeError> {
        as_serve_result(RpcClient::submit(self, id, tenant, curve))
    }
    fn deregister(&mut self, id: CacheId) -> Result<(), ServeError> {
        as_serve_result(RpcClient::deregister(self, id))
    }
    fn run_epoch(&mut self) -> EpochReport {
        RpcClient::run_epoch(self).expect("epoch over rpc")
    }
}

/// Compares final published state: the remote plane's server-side
/// snapshots bit-for-bit against the local plane's, and the wire
/// summaries a remote applier would read against those snapshots.
fn assert_same_final_state(
    local: &ShardedReconfigService,
    remote: &ShardedReconfigService,
    client: &mut RpcClient,
    slots: &Slots,
) {
    assert_eq!(local.registered(), remote.registered());
    for &(id, live, _) in slots {
        let a = local.snapshot(id);
        let b = remote.snapshot(id);
        let summary = client.report(id).expect("report over rpc");
        if !live {
            assert!(a.is_none() && b.is_none(), "{id}: dead cache has no plan");
            assert!(summary.is_none(), "{id}: dead cache has no wire summary");
            continue;
        }
        match (a, b) {
            (None, None) => assert!(summary.is_none()),
            (Some(a), Some(b)) => {
                assert_eq!(a.plan, b.plan, "{id}: plans diverge across the wire");
                assert_eq!(a.allocations(), b.allocations());
                assert_eq!(a.version, b.version, "{id}: versions diverge");
                assert_eq!(a.updates, b.updates, "{id}: update counts diverge");
                // The wire summary mirrors the snapshot, f64s bit-exact.
                let summary = summary.expect("published plan has a summary");
                assert_eq!(summary.cache, id.value());
                assert_eq!(summary.version, b.version);
                assert_eq!(summary.epoch, b.epoch);
                assert_eq!(summary.updates, b.updates);
                assert_eq!(summary.round, b.plan.round);
                assert_eq!(summary.tenants.len(), b.plan.tenants.len());
                for (wire, tenant) in summary.tenants.iter().zip(&b.plan.tenants) {
                    assert_eq!(wire.capacity, tenant.capacity);
                    assert_eq!(
                        wire.expected_misses.to_bits(),
                        tenant.plan.expected_misses().to_bits(),
                        "{id}: expected misses not bit-exact over the wire"
                    );
                    match (&wire.shadow, tenant.plan.shadow()) {
                        (None, None) => {}
                        (Some(ws), Some(s)) => {
                            assert_eq!(ws.alpha.to_bits(), s.alpha.to_bits());
                            assert_eq!(ws.beta.to_bits(), s.beta.to_bits());
                            assert_eq!(ws.rho.to_bits(), s.rho.to_bits());
                        }
                        (ws, s) => panic!(
                            "{id}: shadow present on one side only \
                             (wire: {}, snapshot: {})",
                            ws.is_some(),
                            s.is_some()
                        ),
                    }
                }
            }
            (a, b) => panic!(
                "{id}: published on one plane only (local: {}, rpc: {})",
                a.is_some(),
                b.is_some()
            ),
        }
    }
}

/// One loopback plane: (server-side service handle, connected client,
/// handle to keep the accept loop alive).
fn loopback_plane(
    shards: usize,
) -> (
    Arc<ShardedReconfigService>,
    RpcClient,
    talus_serve::ServerHandle,
) {
    loopback_over(ShardedReconfigService::new(shards))
}

/// [`loopback_plane`] in front of a plane the caller configured.
fn loopback_over(
    service: ShardedReconfigService,
) -> (
    Arc<ShardedReconfigService>,
    RpcClient,
    talus_serve::ServerHandle,
) {
    let service = Arc::new(service);
    let handle = RpcServer::bind("127.0.0.1:0", Arc::clone(&service))
        .expect("bind loopback")
        .spawn()
        .expect("spawn accept loop");
    let client = RpcClient::connect(handle.local_addr()).expect("connect");
    (service, client, handle)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// The tentpole invariant: any op interleaving produces identical
    /// per-op results, identical `EpochReport`s, and bit-identical
    /// final snapshots whether the plane is called locally or through
    /// the loopback RPC stack.
    #[test]
    fn rpc_plane_equals_local_plane(
        ops in proptest::collection::vec(arb_op(), 1..40),
        shards in 1usize..4,
    ) {
        let local = ShardedReconfigService::new(shards);
        let (remote, mut client, handle) = loopback_plane(shards);

        let slots = apply_both(&local, &mut client, &ops);

        // Drain both planes the same way, comparing the drain reports.
        while local.pending() > 0 || remote.pending() > 0 {
            let local_report = local.run_epoch();
            let rpc_report = client.run_epoch().expect("epoch over rpc");
            prop_assert_eq!(local_report, rpc_report, "drain reports diverge");
        }
        assert_same_final_state(&local, &remote, &mut client, &slots);
        handle.shutdown();
    }
}

/// Staged batching is invisible to the plane: interleaved `stage` calls
/// flushed in one frame publish exactly what one-at-a-time local
/// submissions publish.
#[test]
fn staged_batches_equal_individual_submissions() {
    let local = ShardedReconfigService::new(2);
    let (remote, mut client, handle) = loopback_plane(2);

    let caches = 6usize;
    let tenants = 2usize;
    let ids: Vec<CacheId> = (0..caches)
        .map(|c| {
            let id = local.register(CacheSpec::new(512, tenants));
            let remote_id = client.register(512, tenants as u32).expect("register");
            assert_eq!(id, remote_id);
            let _ = c;
            id
        })
        .collect();

    for round in 0..3u64 {
        for (c, id) in ids.iter().enumerate() {
            for t in 0..tenants {
                let curve = curve_from_seed((c as u64) << 20 | (t as u64) << 12 | round | 1);
                local.submit(*id, t, curve.clone()).expect("registered");
                client.stage(*id, t, curve).expect("staged");
            }
        }
        assert_eq!(remote.pending(), 0, "stage defers the wire round trip");
        let results = client.flush().expect("flush");
        assert_eq!(results.len(), caches * tenants);
        assert!(results.iter().all(Result::is_ok));
        let local_report = local.run_epoch();
        let rpc_report = client.run_epoch().expect("epoch over rpc");
        assert_eq!(local_report, rpc_report);
    }

    for id in &ids {
        let a = local.snapshot(*id).expect("published");
        let b = remote.snapshot(*id).expect("published");
        assert_eq!(a.plan, b.plan, "{id}: staged ingest changed the plan");
        assert_eq!(a.version, b.version);
        assert_eq!(a.updates, b.updates);
    }
    handle.shutdown();
}

/// A curve of exactly `points` points.
fn curve_of(points: usize) -> MissCurve {
    MissCurve::new((0..points).map(|i| (i as f64, 1.0))).expect("valid")
}

/// Counts the server's decoder caps are kept at the client: a curve over
/// the point cap is neither staged nor sent and leaves the stage as it
/// was, staging past the entry cap flushes at the cap with every result
/// in staging order, and the caps themselves go through.
#[test]
fn counts_over_the_wire_caps_are_refused_at_the_client() {
    let (remote, mut client, handle) = loopback_plane(1);
    let id = client.register(1 << 20, 1).expect("register");
    let over = WIRE_MAX_CURVE_POINTS as usize + 1;
    let refused = Err(RpcError::Wire(DecodeError::BadCount {
        count: over as u32,
        max: WIRE_MAX_CURVE_POINTS,
    }));
    // Tenant 1 is past the cache's one tenant: its result is a rejection.
    assert_eq!(client.stage(id, 0, curve_of(2)), Ok(None));
    assert_eq!(client.stage(id, 1, curve_of(2)), Ok(None));
    assert_eq!(client.submit(id, 0, curve_of(over)), refused);
    assert_eq!(client.stage(id, 0, curve_of(over)).map(|_| ()), refused);
    assert_eq!(remote.pending(), 0, "nothing was sent");
    let staged = client.flush().expect("the stage as it was");
    assert_eq!(staged.len(), 2);
    assert_eq!(staged[0], Ok(()));
    assert!(matches!(
        staged[1],
        Err(ServeError::TenantOutOfRange { .. })
    ));
    assert_eq!(client.submit(id, 0, curve_of(over - 1)), Ok(()));

    // Even entries go to tenant 0, odd ones to the missing tenant 1, so
    // each result says which entry it answers.
    let cap = WIRE_MAX_BATCH as usize;
    for i in 0..cap - 1 {
        assert_eq!(
            client.stage(id, i % 2, curve_of(2)),
            Ok(None),
            "flushed early"
        );
    }
    let flushed = client
        .stage(id, (cap - 1) % 2, curve_of(2))
        .expect("auto-flush")
        .expect("flushed at the entry cap");
    assert_eq!(flushed.len(), cap);
    for (i, result) in flushed.iter().enumerate() {
        assert_eq!(result.is_ok(), i % 2 == 0, "result {i} out of order");
    }
    assert_eq!(client.stage(id, 0, curve_of(2)), Ok(None), "a new batch");
    assert_eq!(client.flush(), Ok(vec![Ok(())]));
    assert_eq!(client.ping(), Ok(()));
    handle.shutdown();
}

/// `submit` sends what was staged before it in its own frame and reports
/// the first rejection among all of it: a staged entry the plane refuses
/// is not dropped in silence, and the curves it accepted still land.
#[test]
fn submit_reports_a_staged_rejection() {
    let (remote, mut client, handle) = loopback_plane(2);
    let id = client.register(512, 2).expect("register");
    assert_eq!(client.stage(id, 2, curve_from_seed(1)), Ok(None));
    let result = client.submit(id, 0, curve_from_seed(2));
    assert!(
        matches!(
            result,
            Err(RpcError::Serve(ServeError::TenantOutOfRange { .. }))
        ),
        "{result:?}"
    );
    assert_eq!(remote.pending(), 1, "the valid curve landed");
    assert_eq!(client.flush(), Ok(vec![]), "the stage went out");
    handle.shutdown();
}

/// A batch staged to the client's byte budget — a maximum frame less 64
/// bytes — encodes within the frame cap, to the byte the budget counted,
/// and the next `stage` that would overrun it flushes it. The budget
/// counts an entry as id + tenant + grid index + 8 bytes a value
/// (16 + 8n), plus its grid's point count and sizes (4 + 8n) the first
/// time the batch holds that grid; a budget that overcounts would flush
/// early here, one that undercounts would overshoot the frame.
#[test]
fn a_batch_staged_to_the_byte_budget_fits_one_frame() {
    const BUDGET: usize = WIRE_MAX_FRAME_LEN as usize - 64;
    // One grid: 283 curves of 459 points, the grid counted once. A
    // one-grid batch is 4 bytes past a multiple of 8, so it stops short
    // of the budget by less than one more entry.
    let one_grid: Vec<MissCurve> = (0..283).map(|_| curve_of(459)).collect();
    let one_grid_bytes = 4 + 8 * 459 + 283 * (16 + 8 * 459);
    assert!(one_grid_bytes <= BUDGET && one_grid_bytes + 16 + 8 * 459 > BUDGET);
    // All-distinct grids: 63 curves of 1022 points and one of 1066, each
    // on sizes of its own, exactly the budget.
    let distinct: Vec<MissCurve> = (0..64)
        .map(|i| {
            let points = if i < 63 { 1022 } else { 1066 };
            MissCurve::new((0..points).map(|j| ((i + j) as f64, 1.0))).expect("valid")
        })
        .collect();
    assert_eq!(63 * (20 + 16 * 1022) + (20 + 16 * 1066), BUDGET);

    let (_remote, mut client, handle) = loopback_plane(1);
    let id = client.register(1 << 20, 1).expect("register");
    for (curves, counted, next) in [
        (one_grid, one_grid_bytes, curve_of(459)),
        (distinct, BUDGET, curve_of(1)),
    ] {
        let entries: Vec<SubmitEntry> = curves
            .iter()
            .map(|curve| SubmitEntry {
                id: id.value(),
                tenant: 0,
                curve: curve.clone(),
            })
            .collect();
        let frame = encode_request(&Request::Submit { entries });
        // Prefix, version, opcode, entry and grid counts, then what the
        // budget counted.
        assert_eq!(frame.len(), 4 + 2 + 4 + 4 + counted);
        assert!(frame.len() - 4 <= WIRE_MAX_FRAME_LEN as usize);

        let staged = curves.len();
        for curve in curves {
            assert_eq!(client.stage(id, 0, curve), Ok(None), "flushed early");
        }
        let flushed = client
            .stage(id, 0, next)
            .expect("auto-flush")
            .expect("the budget is full");
        assert_eq!(flushed.len(), staged);
        assert!(flushed.iter().all(Result::is_ok));
        assert_eq!(client.flush().map(|r| r.len()), Ok(1));
    }
    handle.shutdown();
}

/// What a decoder or the client said of a cache's shape: accepted, or
/// the refusal — one error, whichever format refused it.
fn verdict<T>(result: Result<T, DecodeError>) -> Result<(), DecodeError> {
    let verdict = result.map(drop);
    assert!(
        matches!(
            verdict,
            Ok(()) | Err(DecodeError::BadCount { .. } | DecodeError::Malformed(_))
        ),
        "not a shape refusal: {verdict:?}"
    );
    verdict
}

/// The wire's `Register` and `RegisterAt` decoders, the journal's
/// `Register` record decoder and the client's check before it sends
/// accept a cache's spec together, or refuse it with the same error. The
/// exceptions are the grain bound and the margin rule (a negative, NaN or
/// infinite safety margin or vertex tolerance), which only the wire
/// applies: the journal holds what trusted local callers registered, and
/// reads back every v3 record it ever wrote. A row with a
/// policy tag or convexify flag no `CacheSpec` can hold is one the client
/// cannot send at all; the three decoders still agree on it.
#[test]
fn the_wire_the_journal_and_the_client_agree_on_a_caches_shape() {
    let (_remote, mut client, handle) = loopback_plane(2);
    let anchor = client.register(64, 1).expect("register");
    let base = CacheSpec::new(64, 1);
    let with = |planner: Planner| base.with_planner(planner);
    let margin = |m| {
        with(Planner::new(8).with_options(TalusOptions {
            safety_margin: m,
            ..TalusOptions::new()
        }))
    };
    // A spec, a byte of its body overwritten, and whether the wire alone
    // refuses it.
    type Row = (CacheSpec, Option<(usize, u8)>, bool);
    let mut rows: Vec<Row> = Vec::new();
    for capacity in [0, 1, u64::MAX] {
        for tenants in [0, 1, WIRE_MAX_TENANTS, WIRE_MAX_TENANTS + 1] {
            let spec = CacheSpec {
                capacity,
                tenants: tenants as usize,
                planner: Planner::for_capacity(capacity),
            };
            rows.push((spec, None, false));
        }
    }
    let raw = Planner::new(8)
        .with_policy(AllocPolicy::Imbalanced)
        .raw_curves();
    let grains = u64::from(WIRE_MAX_GRAINS);
    rows.extend([
        (with(raw), None, false),
        (with(Planner::new(0)), None, false),
        (margin(-0.01), None, true),
        (margin(f64::NAN), None, true),
        (margin(f64::INFINITY), None, true),
        (
            with(Planner::new(8).with_options(TalusOptions {
                vertex_tolerance: f64::NAN,
                ..TalusOptions::new()
            })),
            None,
            true,
        ),
        (base, Some((36, 4)), false), // policy tag 4
        (base, Some((37, 2)), false), // convexify 2
        (
            CacheSpec::new(64 * grains, 1).with_planner(Planner::new(64)),
            None,
            false,
        ),
        (
            CacheSpec::new(64 * (grains + 1), 1).with_planner(Planner::new(64)),
            None,
            true,
        ),
    ]);

    let mut accepted = 0;
    for (spec, patch, wire_only) in rows {
        let mut body = Vec::new();
        put_spec(&mut body, &spec);
        if let Some((at, byte)) = patch {
            body[at] = byte;
        }
        let wire = verdict(decode_request(&[&[WIRE_VERSION, 0x01], &body[..]].concat()));
        let at = [&[WIRE_VERSION, 0x09], &7u64.to_le_bytes()[..], &body].concat();
        assert_eq!(verdict(decode_request(&at)), wire, "RegisterAt: {spec:?}");

        let payload = [&[STORE_VERSION, 0x01], &[0; 16][..], &body].concat();
        let mut record = (payload.len() as u32).to_le_bytes().to_vec();
        record.extend_from_slice(&checksum64(&payload).to_le_bytes());
        record.extend_from_slice(&payload);
        let journal = match decode_record(&record) {
            Ok(_) => Ok(()),
            Err(StoreError::Decode(e)) => verdict::<()>(Err(e)),
            Err(e) => panic!("not a shape refusal: {e:?}"),
        };
        if wire_only {
            assert!(
                wire.is_err() && journal.is_ok(),
                "a wire-only rule: {spec:?}"
            );
        } else {
            assert_eq!(journal, wire, "journal Register: {spec:?}");
        }

        // The client sends what it accepts; the server's decoder
        // takes it (a `RegisterAt` of the anchor's id is then a
        // typed duplicate, which only a decoded frame can be).
        if patch.is_none() {
            let client_verdict = |result| match result {
                Ok(_) | Err(RpcError::Serve(ServeError::DuplicateCache(_))) => Ok(()),
                Err(RpcError::Wire(e)) => verdict::<()>(Err(e)),
                Err(e) => panic!("{e:?}"),
            };
            if spec.planner == Planner::for_capacity(spec.capacity) {
                let sent = client.register(spec.capacity, spec.tenants as u32);
                assert_eq!(client_verdict(sent), wire, "RpcClient::register");
            }
            let sent = client.register_spec(spec);
            assert_eq!(client_verdict(sent), wire, "RpcClient::register_spec");
            let sent = client.register_at(anchor, spec);
            assert_eq!(client_verdict(sent), wire, "RpcClient::register_at");
        }
        accepted += usize::from(wire.is_ok());
    }
    // A positive capacity and 1..=cap tenants, the raw Imbalanced spec
    // and the spec at the grain bound.
    assert_eq!(accepted, 6);
    assert_eq!(handle.connections(), 1, "nothing refused was sent");
    handle.shutdown();
}

/// Every id an epoch report lists, whatever happened to it.
fn report_lines(report: &EpochReport) -> usize {
    report.planned.len() + report.deferred.len() + report.failed.len() + report.quarantined.len()
}

/// The server never sends an `Epoch` reply larger than its plane's batch
/// allows, and a client that calls again while `remaining_dirty > 0`
/// ends where an uncapped plane ends in one epoch. The cap here is tiny
/// (2 entries a shard) and the queue mixes every kind of entry — caches
/// that plan, caches deferred for a missing tenant, ids deregistered
/// while queued — because each of them is a line of the report or an id
/// of the journal cut, and it is the *lines* that must fit the frame.
#[test]
fn a_capped_plane_sends_only_replies_that_fit_and_converges_to_the_uncapped_one() {
    const SHARDS: usize = 3;
    const CAP: usize = 2;
    let local = ShardedReconfigService::new(SHARDS);
    let (remote, mut client, handle) =
        loopback_over(ShardedReconfigService::new(SHARDS).with_max_batch(CAP));

    let mut ids = Vec::new();
    for i in 0..40u64 {
        // Every third cache has a second tenant that never reports.
        let tenants = if i % 3 == 0 { 2 } else { 1 };
        let id = local.register(CacheSpec::new(1024, tenants));
        assert_eq!(client.register(1024, tenants as u32), Ok(id));
        local.submit(id, 0, curve_from_seed(i)).unwrap();
        client.submit(id, 0, curve_from_seed(i)).unwrap();
        // Every seventh is deregistered while still queued.
        let live = i % 7 != 0;
        if !live {
            local.deregister(id).unwrap();
            client.deregister(id).unwrap();
        }
        ids.push((id, live, tenants));
    }

    let uncapped = local.run_epoch();
    assert_eq!(
        uncapped.remaining_dirty, 0,
        "the default batch took them all"
    );
    let (mut planned, mut deferred) = (Vec::new(), Vec::new());
    let mut remaining = remote.pending();
    assert_eq!(remaining, 40);
    while remaining > 0 {
        let report = client.run_epoch().expect("every epoch reply decodes");
        assert!(
            report_lines(&report) <= SHARDS * CAP,
            "a capped epoch listed {} caches: {report:?}",
            report_lines(&report)
        );
        assert!(
            report.remaining_dirty < remaining,
            "the loop makes progress"
        );
        remaining = report.remaining_dirty;
        planned.extend(report.planned);
        deferred.extend(report.deferred);
    }
    planned.sort_unstable();
    deferred.sort_unstable();
    assert_eq!(planned, uncapped.planned);
    assert_eq!(deferred, uncapped.deferred);
    assert!(!planned.is_empty() && !deferred.is_empty());
    assert_same_final_state(&local, &remote, &mut client, &ids);
    handle.shutdown();
}

/// The cap nobody asked for: however large a batch is configured, one
/// epoch drains at most `WIRE_MAX_EPOCH_IDS` entries plane-wide, so its
/// report — here the longest id list a plane can produce — crosses the
/// wire in one reply the client accepts, and the rest waits its turn.
#[test]
fn the_largest_epoch_a_plane_runs_fits_one_reply() {
    let limit = WIRE_MAX_EPOCH_IDS as usize;
    for shards in [1, 3] {
        let (remote, mut client, handle) =
            loopback_over(ShardedReconfigService::new(shards).with_max_batch(usize::MAX));
        // Two-tenant caches with one curve each: deferred, so the epoch
        // lists every one of them without planning any. Enough of them
        // that every shard's queue is longer than its share.
        let mut queued = vec![0usize; shards];
        for _ in 0..limit + 400 * shards {
            let id = remote.register(CacheSpec::new(1024, 2));
            remote.submit(id, 0, curve_from_seed(1)).unwrap();
            queued[talus_core::shard_of(id.value(), shards)] += 1;
        }
        let share = limit / shards;
        assert!(queued.iter().all(|&n| n > share && n <= 2 * share));

        let report = client.run_epoch().expect("the largest reply decodes");
        assert_eq!(report.deferred.len(), shards * share, "an even share each");
        assert_eq!(report_lines(&report), report.deferred.len());
        assert_eq!(report.remaining_dirty, 400 * shards + limit % shards);
        let rest = client.run_epoch().expect("and so does the rest");
        assert_eq!(report_lines(&rest), report.remaining_dirty);
        assert_eq!(rest.remaining_dirty, 0);
        handle.shutdown();
    }
}
