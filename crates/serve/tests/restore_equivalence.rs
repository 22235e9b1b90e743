//! The store's headline invariant: a plane warm-restarted from its
//! journal is indistinguishable from one that never died. For any random
//! history cut at any point, the restored plane and an uninterrupted
//! witness produce bit-identical epoch reports, snapshots, id
//! allocations, and epoch counters for the rest of the history — and
//! restoring is idempotent and total under truncation. Batched
//! submission (`submit_many`: one lock hold and one journal write per
//! shard) is held to the same standard: same results, same plane, same
//! journal as the entries submitted one by one.

mod common;

use std::collections::BTreeSet;
use std::path::PathBuf;
use std::sync::Arc;

use common::{apply, arb_op, curve_from_seed, spec_from_seed, temp_dir, Op, Slots};
use proptest::prelude::*;
use talus_core::{FaultAction, FaultScript, MissCurve, PlanError, ShardTopology, StoreHealth};
use talus_partition::Planner;
use talus_serve::{CacheId, CacheSpec, RestoreError, ServeError, ShardedReconfigService};
use talus_store::{Record, Store, StoreSink};

/// Asserts two planes are observably identical: same counters, same
/// snapshot (bit for bit) for every id in the history, and the same
/// next allocated id.
fn assert_planes_identical(a: &ShardedReconfigService, b: &ShardedReconfigService, slots: &Slots) {
    assert_eq!(a.registered(), b.registered(), "registered counts diverge");
    assert_eq!(a.pending(), b.pending(), "dirty backlogs diverge");
    assert_eq!(a.epochs(), b.epochs(), "epoch counters diverge");
    for &(id, live, _) in slots {
        let sa = a.snapshot(id);
        let sb = b.snapshot(id);
        assert_eq!(sa, sb, "{id}: snapshots diverge");
        if !live {
            assert!(sa.is_none(), "{id}: dead cache has no plan");
        }
    }
    // The id allocator resumed exactly: both planes hand out the same
    // next id (registered on both so the comparison doesn't skew them).
    let na = a.register(CacheSpec::new(1024, 1));
    let nb = b.register(CacheSpec::new(1024, 1));
    assert_eq!(na, nb, "id allocators diverge");
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// The tentpole property: cut a random history at a random point,
    /// "crash" the journaling plane there, warm-restart a fresh plane
    /// from the store, and play the rest of the history on both it and
    /// an uninterrupted witness. Every epoch report, snapshot, counter,
    /// and the id allocator must be bit-identical.
    #[test]
    fn warm_restart_is_equivalent_to_never_restarting(
        ops in proptest::collection::vec(arb_op(), 1..40),
        cut_seed in any::<usize>(),
        shards in 1usize..4,
    ) {
        let cut = cut_seed % (ops.len() + 1);
        let dir = temp_dir("equiv");

        // The witness never crashes and never journals.
        let witness = ShardedReconfigService::new(shards);
        let mut witness_slots = Slots::new();
        let before_w = apply(&witness, &mut witness_slots, &ops[..cut]);

        // The victim journals everything, then "dies" (drops) at the cut.
        let store = Arc::new(Store::open(&dir, shards).expect("open store"));
        let victim = ShardedReconfigService::new(shards).with_sink(
            Arc::clone(&store) as Arc<dyn StoreSink>
        );
        let mut victim_slots = Slots::new();
        let before_v = apply(&victim, &mut victim_slots, &ops[..cut]);
        prop_assert_eq!(before_w, before_v, "pre-crash reports must coincide");
        prop_assert_eq!(&witness_slots, &victim_slots);
        prop_assert_eq!(store.last_error(), None, "journaling must not fault");
        drop(victim);
        drop(store);

        // Warm restart: reopen the journal, replay into a fresh plane,
        // and re-attach the same store for the post-crash era.
        let store = Arc::new(Store::open(&dir, shards).expect("reopen store"));
        prop_assert_eq!(store.recovery().torn_bytes(), 0, "clean shutdown tears nothing");
        let restored = ShardedReconfigService::new(shards);
        let summary = restored.restore(&store).expect("restore");
        prop_assert_eq!(summary.records, store.recovery().records());
        prop_assert_eq!(summary.caches, witness.registered());
        prop_assert_eq!(summary.epochs, witness.epochs());
        let restored = restored.with_sink(store as Arc<dyn StoreSink>);

        // The rest of the history plays out identically.
        let mut restored_slots = victim_slots.clone();
        let after_w = apply(&witness, &mut witness_slots, &ops[cut..]);
        let after_r = apply(&restored, &mut restored_slots, &ops[cut..]);
        prop_assert_eq!(after_w, after_r, "post-crash reports must coincide");

        // Drain both and compare every observable.
        let drain_w = witness.run_until_clean();
        let drain_r = restored.run_until_clean();
        prop_assert_eq!(drain_w, drain_r, "drain reports must coincide");
        assert_planes_identical(&witness, &restored, &witness_slots);
        std::fs::remove_dir_all(&dir).ok();
    }

    /// Replay is idempotent: two fresh planes restored from the same
    /// journal are identical, and a third restore of an already-restored
    /// plane is refused rather than double-applied.
    #[test]
    fn journal_replay_is_idempotent(
        ops in proptest::collection::vec(arb_op(), 1..30),
        shards in 1usize..4,
    ) {
        let dir = temp_dir("idem");
        let store = Arc::new(Store::open(&dir, shards).expect("open store"));
        let plane = ShardedReconfigService::new(shards).with_sink(
            Arc::clone(&store) as Arc<dyn StoreSink>
        );
        let mut slots = Slots::new();
        apply(&plane, &mut slots, &ops);
        prop_assert_eq!(store.last_error(), None);
        drop(plane);
        drop(store);

        let store = Store::open(&dir, shards).expect("reopen store");
        let first = ShardedReconfigService::new(shards);
        let second = ShardedReconfigService::new(shards);
        let summary_first = first.restore(&store).expect("first restore");
        let summary_second = second.restore(&store).expect("second restore");
        prop_assert_eq!(&summary_first, &summary_second);
        assert_planes_identical(&first, &second, &slots);

        // Restore is replay-into-fresh only: the plane now has state
        // (even an empty history allocates the comparison id above), so
        // replaying again must refuse instead of double-applying.
        prop_assert_eq!(first.restore(&store), Err(RestoreError::NotFresh));
        std::fs::remove_dir_all(&dir).ok();
    }
}

/// A journaling cluster-member plane (so some ids are misrouted) whose
/// planner panics the first time it plans `victim` (so that cache is
/// quarantined from then on).
fn batch_plane(dir: &PathBuf, topology: ShardTopology, victim: u64) -> ShardedReconfigService {
    let store = Store::open(dir, topology.count())
        .expect("open store")
        .with_topology(topology);
    let script = Arc::new(FaultScript::new());
    script.inject("shard.plan", Some(victim), 0, 1, FaultAction::Panic);
    ShardedReconfigService::new(topology.count())
        .with_topology(topology)
        .with_sink(Arc::new(store))
        .with_fault_script(script)
}

/// `rec` with its sequence number blanked: what two journals that
/// differ only in cross-shard interleaving must agree on.
fn without_seq(mut rec: Record) -> Record {
    match &mut rec {
        Record::Register { seq, .. }
        | Record::Deregister { seq, .. }
        | Record::Curve { seq, .. }
        | Record::EpochCut { seq, .. }
        | Record::Plan { seq, .. } => *seq = 0,
    }
    rec
}

/// One batch entry: (raw id in 0..16, tenant, curve seed).
type Entry = (u64, usize, u64);

/// Plays `rounds` — each a batch followed by an epoch — on two journaling
/// planes, one fed through `submit` entry by entry, the other through
/// `submit_many`, and asserts they cannot be told apart: per-entry
/// results, epoch reports, plane state, and per shard file the record
/// sequence up to `seq` values (which stay strictly increasing within
/// each file). Ids 0..12 are registered where `topology` owns them, 12..16
/// never; `victim`'s planner panics the first time it runs. Returns the
/// kinds of per-entry outcome the rounds produced.
fn assert_batches_equivalent(
    rounds: &[Vec<Entry>],
    topology: ShardTopology,
    victim: u64,
) -> BTreeSet<&'static str> {
    let dirs = [temp_dir("batch-single"), temp_dir("batch-many")];
    let singly = batch_plane(&dirs[0], topology, victim);
    let batched = batch_plane(&dirs[1], topology, victim);

    // Handles come from a throwaway solo plane (only a plane can make a
    // `CacheId`). 1–3 tenants, so tenant 3 is always out of range and
    // lower ones sometimes are.
    let mint = ShardedReconfigService::new(1);
    let ids: Vec<CacheId> = (0..16)
        .map(|_| mint.register(CacheSpec::new(64, 1)))
        .collect();
    for &id in &ids[..12] {
        let tenants = 1 + (id.value() % 3) as usize;
        let spec = CacheSpec::new(1024, tenants).with_planner(Planner::new(64));
        let registered = singly.register_with_id(id, spec);
        assert_eq!(registered, batched.register_with_id(id, spec));
        assert_eq!(registered.is_ok(), topology.owns(id.value()));
    }

    let mut outcomes = BTreeSet::new();
    for round in rounds {
        let entries = || {
            round
                .iter()
                .map(|&(id, tenant, seed)| (ids[id as usize], tenant, curve_from_seed(seed)))
        };
        let one_by_one: Vec<_> = entries()
            .map(|(id, tenant, curve)| singly.submit(id, tenant, curve))
            .collect();
        let many = batched.submit_many(entries());
        assert_eq!(one_by_one, many);
        outcomes.extend(many.iter().map(|result| match result {
            Ok(()) => "ok",
            Err(ServeError::UnknownCache(_)) => "unknown cache",
            Err(ServeError::TenantOutOfRange { .. }) => "tenant out of range",
            Err(ServeError::Quarantined(_)) => "quarantined",
            Err(ServeError::Misrouted { .. }) => "misrouted",
            Err(other) => panic!("unexpected submit error {other:?}"),
        }));
        assert_eq!(singly.run_epoch(), batched.run_epoch());
    }

    assert_eq!(singly.registered(), batched.registered());
    assert_eq!(singly.pending(), batched.pending());
    assert_eq!(singly.epochs(), batched.epochs());
    assert_eq!(singly.quarantined(), batched.quarantined());
    for &id in &ids {
        assert_eq!(singly.snapshot(id), batched.snapshot(id), "{id}");
    }
    assert_eq!(singly.health().store, StoreHealth::Ok);
    assert_eq!(batched.health().store, StoreHealth::Ok);
    drop(singly);
    drop(batched);

    let stores = dirs.each_ref().map(|dir| {
        Store::open(dir, topology.count())
            .expect("reopen store")
            .with_topology(topology)
    });
    for shard in 0..topology.count() {
        let [single, many] = stores.each_ref().map(|store| {
            let scanned = store
                .stream_shard(shard)
                .and_then(|s| s.into_scan())
                .expect("journal reads");
            assert_eq!(scanned.tail, None);
            let seqs: Vec<u64> = scanned.records.iter().map(Record::seq).collect();
            assert!(
                seqs.windows(2).all(|w| w[0] < w[1]),
                "seq not increasing: {seqs:?}"
            );
            let records = scanned.records.into_iter().map(without_seq);
            records.collect::<Vec<_>>()
        });
        assert_eq!(single, many, "shard {shard} journals diverge");
    }
    for dir in &dirs {
        std::fs::remove_dir_all(dir).ok();
    }
    outcomes
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// `submit_many(batch)` ≡ the same entries through `submit` one by
    /// one, over random batches that mix shards, bit-identical
    /// duplicates, unknown ids, out-of-range tenants, a quarantined
    /// cache and — the plane being any contiguous slice of a cluster
    /// layout, the whole included — misrouted ids.
    #[test]
    fn submit_many_is_equivalent_to_submitting_one_by_one(
        rounds in proptest::collection::vec(
            proptest::collection::vec((0u64..16, 0usize..4, 0u64..6), 0..24),
            1..5,
        ),
        total in 1usize..5,
        slice in any::<usize>(),
        victim in 0u64..12,
    ) {
        let first = slice % total;
        let count = 1 + (slice / total) % (total - first);
        assert_batches_equivalent(&rounds, ShardTopology::range(total, first, count), victim);
    }
}

/// The same property on a batch built to hit every kind of outcome at
/// once — so the coverage the random batches claim is checked, not hoped
/// for: every (id, tenant) pair twice over (the second a bit-identical
/// duplicate), then again with fresh curves once the victim's planner
/// has panicked.
#[test]
fn submit_many_equivalence_covers_every_outcome() {
    let topology = ShardTopology::range(4, 1, 2);
    let victim = (0..12).find(|&id| topology.owns(id)).expect("an owned id");
    let all_pairs = |seed| -> Vec<Entry> {
        let pairs = (0..16).flat_map(|id| (0..4).map(move |tenant| (id, tenant, seed)));
        pairs.clone().chain(pairs).collect()
    };
    let outcomes = assert_batches_equivalent(&[all_pairs(1), all_pairs(2)], topology, victim);
    let want = [
        "misrouted",
        "ok",
        "quarantined",
        "tenant out of range",
        "unknown cache",
    ];
    assert_eq!(outcomes.into_iter().collect::<Vec<_>>(), want);
}

/// Truncating the journal at EVERY byte — every possible crash point the
/// filesystem can leave behind — always yields a store that opens and a
/// plane that restores without error: the torn tail is dropped, the
/// record prefix replays, and the plane is live (it accepts new curves
/// and plans them).
#[test]
fn restore_succeeds_at_every_truncation_point() {
    let dir = temp_dir("trunc");
    let store = Arc::new(Store::open(&dir, 1).expect("open store"));
    let plane = ShardedReconfigService::new(1).with_sink(Arc::clone(&store) as Arc<dyn StoreSink>);
    let a = plane.register(CacheSpec::new(1024, 2).with_planner(Planner::new(64)));
    let b = plane.register(CacheSpec::new(2048, 1).with_planner(Planner::new(64)));
    plane.submit(a, 0, curve_from_seed(1)).unwrap();
    plane.submit(a, 1, curve_from_seed(2)).unwrap();
    plane.submit(b, 0, curve_from_seed(3)).unwrap();
    plane.run_epoch();
    plane.submit(a, 0, curve_from_seed(4)).unwrap();
    plane.deregister(b).unwrap();
    plane.run_epoch();
    assert_eq!(store.last_error(), None);
    drop(plane);
    drop(store);

    let path = dir.join("shard-000.talus");
    let full = std::fs::read(&path).expect("journal bytes");
    assert!(full.len() > 200, "history long enough to be interesting");

    let mut restored_counts = std::collections::BTreeSet::new();
    for cut in 0..=full.len() {
        let trunc_dir = dir.join(format!("cut-{cut}"));
        std::fs::create_dir_all(&trunc_dir).unwrap();
        std::fs::write(trunc_dir.join("shard-000.talus"), &full[..cut]).unwrap();

        let store = Store::open(&trunc_dir, 1)
            .unwrap_or_else(|e| panic!("cut {cut}: store must open: {e}"));
        let plane = ShardedReconfigService::new(1);
        let summary = plane
            .restore(&store)
            .unwrap_or_else(|e| panic!("cut {cut}: restore must succeed: {e}"));
        restored_counts.insert(summary.records);

        // A journal prefix is a valid (earlier) history: every replayed
        // plane is live. Registered caches accept curves and re-plan.
        if plane.registered() > 0 && plane.submit(a, 0, curve_from_seed(9)).is_ok() {
            plane.run_until_clean();
        }
        std::fs::remove_dir_all(&trunc_dir).ok();
    }
    // Sanity: the sweep actually visited distinct record prefixes, from
    // the empty journal up to the full history.
    assert!(restored_counts.contains(&0));
    assert!(restored_counts.len() > 5, "prefixes: {restored_counts:?}");
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn restore_refuses_mismatched_shard_layouts() {
    let dir = temp_dir("mismatch");
    let store = Store::open(&dir, 2).expect("open store");
    let plane = ShardedReconfigService::new(3);
    assert_eq!(
        plane.restore(&store),
        Err(RestoreError::ShardMismatch { store: 2, plane: 3 })
    );
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn restore_refuses_planes_with_state() {
    let dir = temp_dir("notfresh");
    let store = Store::open(&dir, 1).expect("open store");
    let plane = ShardedReconfigService::new(1);
    plane.register(CacheSpec::new(1024, 1));
    assert_eq!(plane.restore(&store), Err(RestoreError::NotFresh));
    std::fs::remove_dir_all(&dir).ok();
}

/// Plants one register record for `id` in shard 0's file of a fresh
/// `shards`-shard store and asserts `restore` reports it corrupt, with a
/// reason containing `expect`.
fn assert_planted_register_is_corrupt(shards: usize, id: u64, expect: &str) {
    use talus_store::{encode_record, Record};
    let dir = temp_dir("corrupt");
    {
        let _store = Store::open(&dir, shards).expect("open store");
    }
    let record = encode_record(&Record::Register {
        seq: 1,
        id,
        spec: CacheSpec::new(1024, 1).with_planner(Planner::new(64)),
    });
    std::fs::write(dir.join("shard-000.talus"), &record).unwrap();

    let store = Store::open(&dir, shards).expect("reopen store");
    let plane = ShardedReconfigService::new(shards);
    match plane.restore(&store) {
        Err(RestoreError::Corrupt {
            shard: 0,
            seq: 1,
            what,
        }) => {
            assert!(what.contains(expect), "got: {what}");
        }
        other => panic!("expected Corrupt ({expect}), got {other:?}"),
    }
    std::fs::remove_dir_all(&dir).ok();
}

/// A journal whose records could not have come from a live plane (here:
/// a register filed under the wrong shard) is diagnosed as corrupt, not
/// silently applied.
#[test]
fn restore_rejects_misrouted_records() {
    // An id that does NOT route to shard 0, planted in shard 0's file.
    let id = (0..).find(|&id| talus_core::shard_of(id, 2) != 0).unwrap();
    assert_planted_register_is_corrupt(2, id, "wrong shard");
}

/// The top id is reserved wherever an id enters the plane, so a client
/// cannot wedge the id allocator: one raw `RegisterAt { id: u64::MAX }`
/// frame to a journaling solo plane used to be accepted and journaled
/// before `id + 1` overflowed — a panic in a debug build, and in an
/// optimised one a wrap to 0, after which the next restart minted
/// `cache#0` over the live cache 0 and the restart after that refused
/// the journal. Now the frame is refused at decode, nothing is journaled,
/// and the plane restarts, mints a fresh id, and restarts again; a
/// journal that already holds such a register is reported corrupt
/// instead of being added to.
#[test]
fn the_top_id_from_the_wire_cannot_break_the_id_allocator() {
    use std::io::{Read, Write};
    use talus_serve::wire::{encode_request, Request};
    use talus_serve::{RpcClient, RpcServer};

    let dir = temp_dir("top-id");
    let spec = CacheSpec::new(1024, 1);
    let open = || Arc::new(Store::open(&dir, 1).expect("open store"));
    let restart = || {
        let store = open();
        let plane = ShardedReconfigService::new(1);
        let summary = plane.restore(&store).expect("restore");
        (plane.with_sink(store as Arc<dyn StoreSink>), summary)
    };

    let plane = Arc::new(ShardedReconfigService::new(1).with_sink(open() as Arc<dyn StoreSink>));
    let handle = RpcServer::bind("127.0.0.1:0", Arc::clone(&plane))
        .expect("bind loopback")
        .spawn()
        .expect("spawn accept loop");
    let mut client = RpcClient::connect(handle.local_addr()).expect("connect");
    let live = client.register(1024, 1).expect("register over rpc");
    assert_eq!(live.value(), 0);

    // `RpcClient::register_at` takes a `CacheId`, which only a plane
    // hands out: the hostile frame goes over a raw socket.
    let mut raw = std::net::TcpStream::connect(handle.local_addr()).expect("connect raw");
    raw.write_all(&encode_request(&Request::RegisterAt {
        id: u64::MAX,
        spec: CacheSpec::new(1024, 1),
    }))
    .expect("send frame");
    // Half-close, so the read below ends whether or not the server
    // answers; a reset is a refusal too.
    raw.shutdown(std::net::Shutdown::Write).expect("half-close");
    let mut reply = Vec::new();
    let _ = raw.read_to_end(&mut reply);
    assert!(
        reply.is_empty(),
        "refused at decode: closed without a reply"
    );
    client.ping().expect("the plane serves on");
    assert_eq!(plane.registered(), 1, "nothing was registered");
    assert_eq!(plane.next_id_hint(), 1);
    handle.shutdown();
    drop((client, plane));

    let (plane, summary) = restart();
    assert_eq!(summary.caches, 1, "nothing was journaled");
    assert_eq!(plane.next_id_hint(), 1);
    let minted = plane.register(spec);
    assert_eq!(minted.value(), 1, "a fresh id, not the live cache's");
    drop(plane);

    let (plane, summary) = restart();
    assert_eq!(summary.caches, 2);
    assert_eq!(plane.cache_ids(), vec![live, minted]);
    std::fs::remove_dir_all(&dir).ok();

    assert_planted_register_is_corrupt(1, u64::MAX, "reserved id");
}

/// Restores a fresh plane from `live`'s own journal while `live` still
/// runs, and holds the two identical.
fn assert_own_journal_restores(live: &ShardedReconfigService, store: &Store, slots: &Slots) {
    let restored = ShardedReconfigService::new(live.shards());
    restored
        .restore(store)
        .expect("a journal the plane wrote restores");
    assert_planes_identical(live, &restored, slots);
}

/// A journaling plane of `shards` shards over a fresh directory.
fn journaling_plane(tag: &str, shards: usize) -> (PathBuf, Arc<Store>, ShardedReconfigService) {
    let dir = temp_dir(tag);
    let store = Arc::new(Store::open(&dir, shards).expect("open store"));
    let plane =
        ShardedReconfigService::new(shards).with_sink(Arc::clone(&store) as Arc<dyn StoreSink>);
    (dir, store, plane)
}

/// A cache deferred on a tenant that has not reported is re-queued when
/// the tenant that has re-sends the same curve (a monitor re-measures
/// every interval). The journal records that re-send, so the next cut
/// finds the cache in the replayed queue too.
#[test]
fn an_identical_curve_to_a_deferred_cache_restores() {
    let (dir, store, plane) = journaling_plane("deferred", 1);
    let id = plane.register(CacheSpec::new(1024, 2).with_planner(Planner::new(64)));
    for _ in 0..2 {
        plane.submit(id, 0, curve_from_seed(1)).unwrap();
        assert_eq!(plane.run_epoch().deferred, vec![id]);
    }
    assert_own_journal_restores(&plane, &store, &vec![(id, true, 2)]);
    std::fs::remove_dir_all(&dir).ok();
}

/// A cache whose plan failed has current curves but no current plan,
/// so a resend of the same curve re-queues it (and fails again) — and
/// the journal still restores.
#[test]
fn an_identical_curve_to_a_failed_cache_restores() {
    let (dir, store, plane) = journaling_plane("failed", 1);
    let id = plane.register(CacheSpec::new(1024, 1));
    let beyond = MissCurve::from_samples(&[2048.0, 4096.0], &[5.0, 1.0]).unwrap();
    for _ in 0..2 {
        plane.submit(id, 0, beyond.clone()).unwrap();
        let report = plane.run_epoch();
        assert!(
            matches!(
                report.failed[..],
                [(
                    failed,
                    ServeError::Plan {
                        source: PlanError::SizeOutOfRange { .. },
                        ..
                    }
                )] if failed == id
            ),
            "{report:?}"
        );
    }
    assert_own_journal_restores(&plane, &store, &vec![(id, true, 1)]);
    std::fs::remove_dir_all(&dir).ok();
}

/// A plane with a sink is not fresh: the live transitions a restore
/// replays through would journal the journal into it again.
#[test]
fn restore_refuses_a_plane_with_a_sink() {
    let (dir, store, plane) = journaling_plane("sink", 1);
    assert_eq!(plane.restore(&store), Err(RestoreError::NotFresh));
    assert_eq!(store.recovery().records(), 0);
    std::fs::remove_dir_all(&dir).ok();
}

/// Registrations of 1–3 tenants on seeded specs, epochs, and submissions drawn from a
/// pool of at most two curves: most submissions resend a curve the
/// tenant already holds, to caches that are queued, planned, or
/// deferred on a tenant yet to report.
fn arb_resending_op(pool: u64) -> impl Strategy<Value = Op> {
    (
        0u64..8,
        1usize..4,
        any::<usize>(),
        any::<usize>(),
        any::<u64>(),
    )
        .prop_map(move |(kind, tenants, slot, tenant, pick)| match kind {
            0 | 1 => Op::Register {
                spec: CacheSpec {
                    tenants,
                    ..spec_from_seed(pick)
                },
            },
            2..=5 => Op::Submit {
                slot,
                tenant,
                curve_seed: pick % pool,
            },
            _ => Op::RunEpoch,
        })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// However often tenants resend what they already sent, a plane's
    /// journal restores into a plane bit-identical to it.
    #[test]
    fn resent_curves_restore_bit_identical(
        ops in (1u64..3).prop_flat_map(|pool| {
            proptest::collection::vec(arb_resending_op(pool), 1..40)
        }),
        shards in 1usize..4,
    ) {
        let (dir, store, plane) = journaling_plane("resend", shards);
        let mut slots = Slots::new();
        apply(&plane, &mut slots, &ops);
        prop_assert_eq!(store.last_error(), None);
        assert_own_journal_restores(&plane, &store, &slots);
        std::fs::remove_dir_all(&dir).ok();
    }
}
