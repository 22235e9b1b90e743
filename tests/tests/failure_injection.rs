//! Failure injection: Talus's control loop must degrade gracefully when
//! its inputs are hostile — empty monitors, garbage curves, flat curves,
//! absurd targets — because in hardware a bad reconfiguration simply must
//! not take the cache down.

use proptest::prelude::*;
use talus_core::{plan, MissCurve, TalusOptions};
use talus_sim::monitor::Monitor;
use talus_sim::part::IdealPartitioned;
use talus_sim::{AccessCtx, LineAddr, PartitionId, TalusCache, TalusCacheConfig, TalusSingleCache};

/// A monitor that reports pathological curves on demand.
#[derive(Debug)]
struct HostileMonitor {
    mode: HostileMode,
    recorded: u64,
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum HostileMode {
    /// Never sees any traffic: all-miss curve.
    Cold,
    /// A completely flat curve: capacity never helps.
    Flat,
    /// A rising curve (more cache = more misses — broken hardware).
    Rising,
    /// A single-point curve (degenerate domain).
    SinglePoint,
}

impl Monitor for HostileMonitor {
    fn record(&mut self, _line: LineAddr) {
        self.recorded += 1;
    }

    fn curve(&self) -> MissCurve {
        match self.mode {
            HostileMode::Cold | HostileMode::Flat => {
                MissCurve::from_samples(&[0.0, 4096.0, 16384.0], &[1.0, 1.0, 1.0])
                    .expect("flat curve is valid")
            }
            HostileMode::Rising => {
                MissCurve::from_samples(&[0.0, 4096.0, 16384.0], &[0.1, 0.5, 1.0])
                    .expect("rising curve is valid")
            }
            HostileMode::SinglePoint => {
                MissCurve::from_samples(&[0.0], &[1.0]).expect("single point is valid")
            }
        }
    }

    fn sampled_accesses(&self) -> u64 {
        self.recorded
    }

    fn reset(&mut self) {
        self.recorded = 0;
    }
}

/// Whatever the monitor claims, accesses must keep flowing and stats must
/// keep adding up — a bad curve can waste capacity but never wedge the
/// cache.
#[test]
fn hostile_monitors_never_wedge_the_cache() {
    for mode in [
        HostileMode::Cold,
        HostileMode::Flat,
        HostileMode::Rising,
        HostileMode::SinglePoint,
    ] {
        let cache = IdealPartitioned::new(2048, 2);
        let monitor = HostileMonitor { mode, recorded: 0 };
        let mut talus = TalusSingleCache::new(cache, monitor, 10_000, TalusCacheConfig::new());
        let ctx = AccessCtx::new();
        let n = 100_000u64;
        for i in 0..n {
            talus.access(LineAddr(i % 1024), &ctx);
        }
        let stats = talus.stats();
        assert_eq!(stats.accesses(), n, "{mode:?}: accesses lost");
        // The 1024-line working set fits in 2048 lines: even under a
        // garbage plan at least the α partition holds a useful fraction.
        assert!(stats.hit_rate() > 0.0, "{mode:?}: cache wedged");
    }
}

/// Targets beyond the monitored curve run *unpartitioned* (there is
/// nothing to bridge past the last vertex) instead of failing — the
/// designed graceful degradation when a cache outgrows its monitor.
#[test]
fn beyond_curve_targets_run_unpartitioned() {
    let cache = IdealPartitioned::new(4096, 2);
    let mut talus = TalusCache::new(cache, 1, TalusCacheConfig::new());
    let curve =
        MissCurve::from_samples(&[0.0, 1024.0, 2048.0], &[1.0, 0.6, 0.1]).expect("valid curve");
    let plans = [plan(&curve, 4096.0, TalusOptions::new()).expect("beyond-domain target degrades")];
    talus.apply(&[4096], &plans);
    assert!(
        plans[0].shadow().is_none(),
        "no shadow bridge past the curve"
    );
    assert_eq!(
        talus.sampling_rate(PartitionId(0)),
        1.0,
        "everything to alpha"
    );
}

/// `plan` rejects non-finite and negative sizes without panicking, and
/// treats absurdly large (but finite) sizes as beyond-domain
/// unpartitioned plans.
#[test]
fn plan_rejects_bad_sizes() {
    let curve = MissCurve::from_samples(&[0.0, 100.0, 200.0], &[1.0, 0.5, 0.1]).expect("valid");
    assert!(plan(&curve, -1.0, TalusOptions::new()).is_err());
    assert!(plan(&curve, f64::NAN, TalusOptions::new()).is_err());
    assert!(plan(&curve, f64::INFINITY, TalusOptions::new()).is_err());
    let huge = plan(&curve, 1e18, TalusOptions::new()).expect("finite huge size degrades");
    assert!(huge.shadow().is_none());
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Reconfiguring with arbitrary monotone curves and arbitrary splits
    /// always yields a sampler rate in [0, 1] and hardware requests that
    /// never exceed capacity.
    #[test]
    fn reconfigure_invariants_hold_for_arbitrary_curves(
        seed in any::<u64>(),
        target_pct in 1u64..=100,
    ) {
        // Random monotone curve over [0, 2·capacity].
        let capacity = 4096u64;
        let mut state = seed | 1;
        let mut next = move || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            state
        };
        let n = 8 + (next() % 24) as usize;
        let mut sizes = Vec::with_capacity(n);
        let mut misses = Vec::with_capacity(n);
        let mut m = 50.0 + (next() % 100) as f64;
        for i in 0..n {
            sizes.push(i as f64 * (2.0 * capacity as f64) / (n - 1) as f64);
            misses.push(m);
            m = (m - (next() % 16) as f64).max(0.0);
        }
        let curve = MissCurve::from_samples(&sizes, &misses).expect("valid random curve");
        let cache = IdealPartitioned::new(capacity, 2);
        let mut talus = TalusCache::new(cache, 1, TalusCacheConfig::new());
        let target = capacity * target_pct / 100;
        let plans = [plan(&curve, target as f64, TalusOptions::new()).expect("target is in-domain")];
        talus.apply(&[target], &plans);
        let rate = talus.sampling_rate(PartitionId(0));
        prop_assert!((0.0..=1.0).contains(&rate), "rate {rate}");
        prop_assert_eq!(plans.len(), 1);
        // The plan's expected misses can never exceed the all-miss rate.
        prop_assert!(plans[0].expected_misses() <= 151.0);
    }
}

// ---------------------------------------------------------------------
// RPC failure injection: the network front-end must keep the plane
// consistent when clients die mid-frame, die mid-epoch, or send
// garbage. Frames are fully received before they are decoded and
// decoded before they are applied, so every failure below is absorbed
// by closing one connection.
// ---------------------------------------------------------------------

mod rpc {
    use std::sync::Arc;

    use talus_core::MissCurve;
    use talus_serve::wire::{encode_request, Request, SubmitEntry};
    use talus_serve::{RpcClient, RpcServer, ServerHandle, ShardedReconfigService};

    fn curve() -> MissCurve {
        MissCurve::from_samples(&[0.0, 256.0, 512.0], &[8.0, 8.0, 1.0]).expect("valid")
    }

    fn loopback(shards: usize) -> (Arc<ShardedReconfigService>, ServerHandle) {
        let service = Arc::new(ShardedReconfigService::new(shards));
        let handle = RpcServer::bind("127.0.0.1:0", Arc::clone(&service))
            .expect("bind loopback")
            .spawn()
            .expect("spawn accept loop");
        (service, handle)
    }

    /// Spin until the server-side condition holds (the handler thread
    /// runs asynchronously after the client's bytes arrive).
    fn eventually(mut condition: impl FnMut() -> bool, what: &str) {
        for _ in 0..2000 {
            if condition() {
                return;
            }
            std::thread::sleep(std::time::Duration::from_millis(1));
        }
        panic!("timed out waiting for {what}");
    }

    /// A client that dies mid-frame drops its batch atomically: the
    /// partially transmitted submission never dirties the plane, and
    /// the next epoch plans normally from other clients' data.
    #[test]
    fn disconnect_mid_frame_drops_the_batch_atomically() {
        let (service, handle) = loopback(2);
        let mut good = RpcClient::connect(handle.local_addr()).expect("connect");
        let id = good.register(512, 1).expect("register");

        // A hostile client sends 60% of a valid submit frame, then dies.
        let frame = encode_request(&Request::Submit {
            entries: vec![SubmitEntry {
                id: id.value(),
                tenant: 0,
                curve: curve(),
            }],
        });
        let mut hostile = RpcClient::connect(handle.local_addr()).expect("connect");
        hostile
            .send_raw(&frame[..frame.len() * 6 / 10])
            .expect("send");
        hostile.abort();

        // The partial batch can never be applied — the frame never
        // completed, so it never reached the decoder, let alone the
        // plane. No waiting needed: this holds at every instant.
        assert_eq!(
            service.pending(),
            0,
            "partial frame must not dirty the plane"
        );

        // The plane still serves: a real submission plans normally.
        good.submit(id, 0, curve()).expect("submit");
        let report = good.run_epoch().expect("epoch");
        assert_eq!(report.planned, vec![id]);
        assert_eq!(service.snapshot(id).expect("published").updates, 1);
        handle.shutdown();
    }

    /// A client that requests an epoch and dies before reading the
    /// reply leaves the plane consistent: the fully received request
    /// still runs, the epoch counter stays monotone, and the next
    /// client's epoch follows it seamlessly.
    #[test]
    fn disconnect_mid_epoch_leaves_the_plane_consistent() {
        let (service, handle) = loopback(2);
        let mut setup = RpcClient::connect(handle.local_addr()).expect("connect");
        let id = setup.register(512, 1).expect("register");
        setup.submit(id, 0, curve()).expect("submit");

        // Fire run_epoch and vanish without reading the reply.
        let mut doomed = RpcClient::connect(handle.local_addr()).expect("connect");
        doomed
            .send_raw(&encode_request(&Request::RunEpoch))
            .expect("send");
        doomed.abort();

        // The request was complete, so the epoch runs; the write of the
        // reply fails into the closed socket and only that connection dies.
        eventually(|| service.epochs() >= 1, "the orphaned epoch to run");
        eventually(|| service.pending() == 0, "the epoch to drain the queue");
        // The drain empties the queue before the plan is published, so an
        // empty queue alone does not mean the snapshot is readable yet.
        eventually(
            || service.snapshot(id).is_some(),
            "the orphaned epoch to publish",
        );
        let snap = service.snapshot(id).expect("the orphaned epoch published");
        assert_eq!(snap.version, 1);

        // The plane keeps serving: the next epoch continues the count.
        // (A fresh curve — a bit-identical resubmission of already
        // planned data is an idempotent no-op and would plan nothing.)
        let fresh = MissCurve::from_samples(&[0.0, 256.0, 512.0], &[9.0, 8.0, 1.0]).expect("valid");
        setup.submit(id, 0, fresh).expect("submit");
        let report = setup.run_epoch().expect("epoch");
        assert_eq!(report.epoch, 2, "epoch counter stayed monotone");
        assert_eq!(report.planned, vec![id]);
        assert_eq!(service.snapshot(id).expect("published").version, 2);
        handle.shutdown();
    }

    /// Garbage — a hostile length prefix, a wrong version, random
    /// bytes — closes that connection and nothing else: registered
    /// state survives and new connections serve normally.
    #[test]
    fn garbage_frames_close_one_connection_without_harming_the_plane() {
        let (service, handle) = loopback(1);
        let mut good = RpcClient::connect(handle.local_addr()).expect("connect");
        let id = good.register(512, 1).expect("register");

        for garbage in [
            u32::MAX.to_le_bytes().to_vec(),             // hostile length prefix
            vec![2, 0, 0, 0, 9, 0x06],                   // wrong version
            vec![2, 0, 0, 0, 1, 0x7F],                   // unknown opcode
            vec![5, 0, 0, 0, 1, 0x02, 0xAB, 0xCD, 0xEF], // truncated body
        ] {
            let mut hostile = RpcClient::connect(handle.local_addr()).expect("connect");
            hostile.send_raw(&garbage).expect("send");
            // The server answers garbage by closing the connection: the
            // next read sees clean EOF (or a reset), never a reply.
            match hostile.recv_raw() {
                Ok(None) | Err(_) => {}
                Ok(Some(resp)) => panic!("server replied {resp:?} to garbage"),
            }
        }

        // The plane is untouched and the good connection still works.
        assert_eq!(service.registered(), 1);
        good.ping().expect("good connection survives");
        good.submit(id, 0, curve()).expect("submit");
        assert_eq!(good.run_epoch().expect("epoch").planned, vec![id]);
        handle.shutdown();
    }

    /// Connection isolation: a client dying mid-frame does not disturb
    /// another client's in-progress session on the same plane.
    #[test]
    fn one_clients_death_does_not_disturb_anothers_session() {
        let (service, handle) = loopback(2);
        let mut alice = RpcClient::connect(handle.local_addr()).expect("connect");
        let mut bob = RpcClient::connect(handle.local_addr()).expect("connect");
        let a = alice.register(512, 1).expect("register");
        let b = bob.register(512, 1).expect("register");
        assert_ne!(a, b);

        alice.submit(a, 0, curve()).expect("submit");
        // Bob dies mid-frame between Alice's submit and her epoch.
        let frame = encode_request(&Request::Submit {
            entries: vec![SubmitEntry {
                id: b.value(),
                tenant: 0,
                curve: curve(),
            }],
        });
        bob.send_raw(&frame[..10]).expect("send");
        bob.abort();

        let report = alice.run_epoch().expect("epoch");
        assert_eq!(report.planned, vec![a], "only Alice's cache was dirty");
        assert!(
            service.snapshot(b).is_none(),
            "Bob's torn submit never landed"
        );
        handle.shutdown();
    }

    /// Flooding resubmissions between epochs is absorbed by dirty-queue
    /// dedup: a thousand submissions for one cache cost one replan.
    #[test]
    fn submission_floods_coalesce_to_one_replan() {
        let (service, handle) = loopback(1);
        let mut client = RpcClient::connect(handle.local_addr()).expect("connect");
        let id = client.register(512, 1).expect("register");
        for _ in 0..1000 {
            client.submit(id, 0, curve()).expect("submit");
        }
        assert_eq!(service.pending(), 1, "dirty queue deduplicates the flood");
        let report = client.run_epoch().expect("epoch");
        assert_eq!(report.planned, vec![id]);
        let snap = service.snapshot(id).expect("published");
        assert_eq!(snap.version, 1, "one replan for a thousand submissions");
        // Bit-identical resubmissions are deduplicated at the shard (the
        // idempotent-retry contract), so the flood counts as one update.
        assert_eq!(snap.updates, 1, "identical resubmissions coalesce");
        handle.shutdown();
    }
}

// ---------------------------------------------------------------------
// Store failure injection: the journal's whole reason to exist is dying
// at the worst possible moment. Here the process is actually killed —
// `std::process::abort()` mid-epoch, between a shard's epoch-cut record
// and its plan records — and a fresh process must warm-restart from
// whatever bytes made it to disk.
// ---------------------------------------------------------------------

mod store {
    use std::process::Command;
    use std::sync::atomic::{AtomicU64, Ordering};
    use std::sync::Arc;

    use talus_core::codec::DecodeError;
    use talus_core::{MissCurve, StoreHealth};
    use talus_partition::{CachePlan, Planner};
    use talus_serve::{CacheSpec, ShardedReconfigService};
    use talus_store::{Store, StoreError, StoreSink};

    /// Env vars that turn the `crash_victim` test into the doomed child.
    const CRASH_DIR: &str = "TALUS_STORE_CRASH_DIR";
    const KILL_AFTER: &str = "TALUS_STORE_KILL_AFTER";
    /// Set (to anything) to have the victim's sink pass the plane's lock
    /// scopes on to the store, as the store itself does when attached
    /// directly; unset, every record is written the moment it is made.
    const SCOPED: &str = "TALUS_STORE_SCOPED";
    /// Turns `write_fault_victim` into the child whose journal file may
    /// not grow past a few kilobytes.
    const FSIZE_DIR: &str = "TALUS_STORE_FSIZE_DIR";

    const CACHES: u64 = 5;
    const SHARDS: usize = 2;

    fn curve(seed: u64) -> MissCurve {
        let bend = 256.0 + (seed % 4) as f64 * 64.0;
        MissCurve::from_samples(&[0.0, bend, 1024.0], &[9.0, 8.0, 1.0]).expect("valid")
    }

    /// A sink that journals faithfully, then kills the process dead —
    /// no unwinding, no destructors, no flush beyond what the store
    /// already wrote — on the Nth published plan. Because it runs under
    /// the shard's registry lock, the abort lands exactly between an
    /// epoch's cut record and the rest of its plan records. With
    /// `scoped` it forwards the plane's lock scopes, so the store holds
    /// an epoch's plans back for one write and the abort finds them
    /// still buffered; without, it swallows them and every record is
    /// written through.
    #[derive(Debug)]
    struct AbortNthPlan {
        inner: Arc<Store>,
        kill_after: u64,
        plans: AtomicU64,
        scoped: bool,
    }

    impl StoreSink for AbortNthPlan {
        fn shards(&self) -> usize {
            self.inner.shards()
        }
        fn register(&self, id: u64, spec: &CacheSpec) {
            self.inner.register(id, spec);
        }
        fn deregister(&self, id: u64) {
            self.inner.deregister(id);
        }
        fn submit(&self, id: u64, tenant: u32, curve: &MissCurve) {
            self.inner.submit(id, tenant, curve);
        }
        fn epoch_cut(&self, shard: usize, epoch: u64, drained: &[u64]) {
            self.inner.epoch_cut(shard, epoch, drained);
        }
        fn plan(&self, id: u64, epoch: u64, version: u64, updates: u64, plan: &CachePlan) {
            if self.plans.fetch_add(1, Ordering::Relaxed) + 1 == self.kill_after {
                // The doomed plan is dropped on the floor and the process
                // dies mid-publication, locks held and all.
                std::process::abort();
            }
            self.inner.plan(id, epoch, version, updates, plan);
        }
        fn begin(&self, shard: usize) {
            if self.scoped {
                self.inner.begin(shard);
            }
        }
        fn commit(&self, shard: usize) {
            if self.scoped {
                self.inner.commit(shard);
            }
        }
    }

    /// The doomed child: a no-op under normal test runs; when the parent
    /// sets the env vars, journals a scripted history and aborts inside
    /// `run_epoch`, mid-publication.
    #[test]
    fn crash_victim() {
        let Ok(dir) = std::env::var(CRASH_DIR) else {
            return; // normal test run: the parent below drives this
        };
        let kill_after: u64 = std::env::var(KILL_AFTER)
            .expect("parent sets the kill point")
            .parse()
            .expect("kill point is a number");
        let store = Arc::new(Store::open(&dir, SHARDS).expect("open store"));
        let sink = Arc::new(AbortNthPlan {
            inner: store,
            kill_after,
            plans: AtomicU64::new(0),
            scoped: std::env::var_os(SCOPED).is_some(),
        });
        let plane = ShardedReconfigService::new(SHARDS).with_sink(sink);
        let ids: Vec<_> = (0..CACHES)
            .map(|_| plane.register(CacheSpec::new(1024, 1).with_planner(Planner::new(64))))
            .collect();
        for (i, id) in ids.iter().enumerate() {
            plane.submit(*id, 0, curve(i as u64)).expect("registered");
        }
        // Publication aborts the process partway through this call.
        plane.run_epoch();
        unreachable!("the sink must abort before the epoch completes ({kill_after})");
    }

    /// Re-runs this test binary as the `crash_victim` child with the
    /// given kill point; returns once it has died by abort.
    fn spawn_victim(dir: &std::path::Path, kill_after: u64, scoped: bool) {
        let exe = std::env::current_exe().expect("own test binary");
        let mut victim = Command::new(exe);
        if scoped {
            victim.env(SCOPED, "1");
        }
        let status = victim
            .args(["store::crash_victim", "--exact", "--nocapture"])
            .env(CRASH_DIR, dir)
            .env(KILL_AFTER, kill_after.to_string())
            .status()
            .expect("spawn crash victim");
        assert!(
            !status.success(),
            "the victim must die by abort, got {status}"
        );
    }

    fn temp_dir(tag: &str) -> std::path::PathBuf {
        let dir =
            std::env::temp_dir().join(format!("talus-crash-test-{tag}-{}", std::process::id()));
        // A previous failed run may have left debris.
        std::fs::remove_dir_all(&dir).ok();
        std::fs::create_dir_all(&dir).expect("create temp dir");
        dir
    }

    /// Kills a victim at its `kill_after`-th plan, then warm-restarts from
    /// the journal it left: every cache is back (registrations and curves
    /// landed before the epoch began; the abort could only eat plan
    /// records), the cut record recovered the epoch, exactly `snapshots`
    /// plans replay, and the plane is live — the caches the abort robbed
    /// of their plan get one on the next epoch, exactly like an epoch
    /// that failed mid-publish.
    fn assert_recovers_from_abort(kill_after: u64, scoped: bool, snapshots: u64) {
        let dir = temp_dir(&format!("mid-epoch-{scoped}-{kill_after}"));
        spawn_victim(&dir, kill_after, scoped);

        let store = Store::open(&dir, SHARDS).expect("journal opens after abort");
        let plane = ShardedReconfigService::new(SHARDS);
        let summary = plane.restore(&store).expect("journal restores after abort");
        assert_eq!(summary.caches, CACHES as usize, "kill at {kill_after}");
        assert_eq!(plane.epochs(), 1, "the cut record recovered the epoch");
        assert_eq!(
            summary.snapshots, snapshots as usize,
            "kill at {kill_after}"
        );

        let ids = plane.cache_ids();
        assert_eq!(ids.len(), CACHES as usize);
        for (i, id) in ids.iter().enumerate() {
            plane
                .submit(*id, 0, curve(i as u64))
                .expect("still serving");
        }
        plane.run_until_clean();
        for id in &ids {
            let snap = plane.snapshot(*id).expect("planned after recovery");
            assert!(snap.version >= 1);
        }
        std::fs::remove_dir_all(&dir).ok();
    }

    /// The headline injection: a real process killed by `abort()` between
    /// an epoch-cut record and its plan records, every record written the
    /// moment it is made. Exactly the plans whose records landed before
    /// the abort replay.
    #[test]
    fn process_death_mid_epoch_leaves_a_recoverable_journal() {
        for kill_after in 1..=3 {
            assert_recovers_from_abort(kill_after, false, kill_after - 1);
        }
    }

    /// The same death with the store attached the way production attaches
    /// it — lock scopes honoured, an epoch's plans buffered for one write
    /// when the publish phase lets go of the lock. The abort lands inside
    /// that phase, so the shard that was publishing restores to "cut
    /// journaled, no plans" whichever of its plans was the fatal one; a
    /// shard whose epoch had already finished keeps everything.
    #[test]
    fn process_death_with_plans_still_buffered_restores_to_the_cut() {
        // Shards run their epochs in index order, each publishing its
        // caches (ids 0..CACHES, one tenant each) in one lock hold.
        let on_shard_0 = (0..CACHES)
            .filter(|&id| talus_core::shard_of(id, SHARDS) == 0)
            .count() as u64;
        assert!(0 < on_shard_0 && on_shard_0 < CACHES, "both shards publish");
        for kill_after in 1..=CACHES {
            let survived = if kill_after <= on_shard_0 {
                0 // died publishing shard 0: its plans were all unwritten
            } else {
                on_shard_0 // shard 0 had finished; shard 1's were unwritten
            };
            assert_recovers_from_abort(kill_after, true, survived);
        }
    }

    /// A production-sized (65-point) curve, distinct per seed.
    fn wide_curve(seed: u64) -> MissCurve {
        let sizes: Vec<f64> = (0..65).map(|i| 16.0 * i as f64).collect();
        let misses: Vec<f64> = (0..65).map(|i| (200 + seed - i) as f64).collect();
        MissCurve::from_samples(&sizes, &misses).expect("valid")
    }

    const WIDE_CACHES: usize = 8;
    const WIDE_ROUNDS: u64 = 4;

    /// The child of the test below: a no-op under normal test runs. As
    /// the child, its journal file cannot grow past 8 KiB, and it sends
    /// one batch whose curves — one lock hold, one write — come to four
    /// times that.
    #[test]
    fn write_fault_victim() {
        let Ok(dir) = std::env::var(FSIZE_DIR) else {
            return; // normal test run: the parent below drives this
        };
        let store = Arc::new(Store::open(&dir, 1).expect("open store"));
        let plane =
            ShardedReconfigService::new(1).with_sink(Arc::clone(&store) as Arc<dyn StoreSink>);
        let ids: Vec<_> = (0..WIDE_CACHES)
            .map(|_| plane.register(CacheSpec::new(1024, 1).with_planner(Planner::new(64))))
            .collect();
        assert_eq!(store.last_error(), None, "registrations fit the limit");

        let batch = (0..WIDE_ROUNDS)
            .flat_map(|round| ids.iter().map(move |id| (*id, 0, wide_curve(round))));
        let results = plane.submit_many(batch);
        // Journaling is best-effort: the plane took every curve...
        assert!(results.iter().all(Result::is_ok), "{results:?}");
        // ...and the failed write is loud, exactly like a failed append.
        assert!(store.faulted());
        assert!(
            matches!(
                store.last_error(),
                Some(StoreError::Decode(DecodeError::Io(_)))
            ),
            "{:?}",
            store.last_error()
        );
        assert_eq!(plane.health().store, StoreHealth::Faulted);
        // The pen has stopped: nothing later reaches the file.
        let path = std::path::Path::new(&dir).join("shard-000.talus");
        let len = std::fs::metadata(&path).expect("journal exists").len();
        plane.run_until_clean();
        assert_eq!(std::fs::metadata(&path).expect("journal exists").len(), len);
    }

    /// A coalesced write that fails partway — here a real `EFBIG`: the
    /// child runs under `ulimit -f`, with `SIGXFSZ` ignored so the write
    /// returns the error instead of killing it — trips the store's fault
    /// flag like any failed append, and leaves a file that reopens to a
    /// valid prefix: the records that fit, then a torn one, dropped.
    #[cfg(unix)]
    #[test]
    fn a_failed_multi_record_write_trips_the_fault_and_leaves_a_valid_prefix() {
        let dir = temp_dir("efbig");
        let exe = std::env::current_exe().expect("own test binary");
        // 16 blocks of 512 bytes. Output comes back through pipes, which
        // the limit does not touch.
        let child = Command::new("sh")
            .args(["-c", r#"trap "" XFSZ; ulimit -f 16; exec "$0" "$@""#])
            .arg(exe)
            .args(["store::write_fault_victim", "--exact", "--nocapture"])
            .env(FSIZE_DIR, &dir)
            .output()
            .expect("spawn the limited child");
        assert!(
            child.status.success(),
            "the victim's own assertions failed:\n{}{}",
            String::from_utf8_lossy(&child.stdout),
            String::from_utf8_lossy(&child.stderr)
        );

        let path = dir.join("shard-000.talus");
        assert_eq!(
            std::fs::metadata(&path).expect("journal exists").len(),
            16 * 512,
            "the batch's write ran into the limit partway"
        );
        let store = Store::open(&dir, 1).expect("journal opens after the failed write");
        let records = store.recovery().records();
        assert!(
            (WIDE_CACHES..WIDE_CACHES * (1 + WIDE_ROUNDS as usize)).contains(&records),
            "the registrations and part of the batch survive, got {records}"
        );
        assert!(
            store.recovery().torn_bytes() > 0,
            "the torn record was dropped"
        );
        let plane = ShardedReconfigService::new(1);
        let summary = plane.restore(&store).expect("the valid prefix restores");
        assert_eq!(summary.caches, WIDE_CACHES);
        assert_eq!(summary.records, records);
        std::fs::remove_dir_all(&dir).ok();
    }

    /// Torn-write injection: garbage appended to a shard file (a crash
    /// mid-`write`, a partial sector, cosmic rays) is dropped at open —
    /// the intact prefix replays and appending continues cleanly.
    #[test]
    fn torn_garbage_tail_is_dropped_and_the_journal_stays_appendable() {
        let dir = temp_dir("torn-tail");
        let store = Arc::new(Store::open(&dir, 1).expect("open store"));
        let plane =
            ShardedReconfigService::new(1).with_sink(Arc::clone(&store) as Arc<dyn StoreSink>);
        let id = plane.register(CacheSpec::new(1024, 1).with_planner(Planner::new(64)));
        plane.submit(id, 0, curve(0)).expect("registered");
        plane.run_epoch();
        assert_eq!(store.last_error(), None);
        drop(plane);
        drop(store);

        let path = dir.join("shard-000.talus");
        let clean_len = std::fs::metadata(&path).expect("journal exists").len();
        let mut bytes = std::fs::read(&path).expect("journal bytes");
        bytes.extend_from_slice(&[0xDE, 0xAD, 0xBE, 0xEF, 0x00, 0x00, 0x00]);
        std::fs::write(&path, &bytes).expect("inject garbage");

        let store = Arc::new(Store::open(&dir, 1).expect("reopen"));
        assert_eq!(store.recovery().torn_bytes(), 7, "the garbage was dropped");
        assert_eq!(
            std::fs::metadata(&path).expect("journal exists").len(),
            clean_len,
            "the file was truncated back to the intact prefix"
        );
        let plane = ShardedReconfigService::new(1);
        let summary = plane.restore(&store).expect("intact prefix restores");
        assert_eq!(summary.caches, 1);
        assert_eq!(summary.snapshots, 1);

        // Appends continue after the truncation point.
        let plane = plane.with_sink(store as Arc<dyn StoreSink>);
        let ids = plane.cache_ids();
        plane.submit(ids[0], 0, curve(1)).expect("still serving");
        plane.run_epoch();
        drop(plane);

        let store = Store::open(&dir, 1).expect("reopen again");
        assert_eq!(store.recovery().torn_bytes(), 0);
        let plane = ShardedReconfigService::new(1);
        let summary = plane.restore(&store).expect("restores");
        assert_eq!(summary.epochs, 2, "the post-recovery epoch journaled");
        std::fs::remove_dir_all(&dir).ok();
    }

    /// Read-failure injection: a shard file that stops being readable
    /// after the store opened it (here: swapped for a directory, which
    /// opens but fails every `read`) fails the restore with the store's
    /// error. It is never taken for the end of the journal — that would
    /// hand back a plane silently missing its history.
    #[cfg(unix)]
    #[test]
    fn an_unreadable_shard_fails_the_restore_instead_of_shortening_it() {
        use talus_serve::RestoreError;

        let dir = temp_dir("unreadable");
        let store = Arc::new(Store::open(&dir, 1).expect("open store"));
        let plane =
            ShardedReconfigService::new(1).with_sink(Arc::clone(&store) as Arc<dyn StoreSink>);
        let id = plane.register(CacheSpec::new(1024, 1).with_planner(Planner::new(64)));
        plane.submit(id, 0, curve(0)).expect("registered");
        plane.run_epoch();
        drop(plane);

        let path = dir.join("shard-000.talus");
        std::fs::remove_file(&path).expect("unlink the journal");
        std::fs::create_dir(&path).expect("a directory in its place");
        let fresh = ShardedReconfigService::new(1);
        assert!(matches!(
            fresh.restore(&store),
            Err(RestoreError::Store(StoreError::Decode(DecodeError::Io(_))))
        ));
        std::fs::remove_dir_all(&dir).ok();
    }
}
