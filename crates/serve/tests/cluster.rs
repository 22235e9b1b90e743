//! The cluster's defining invariants, extending the equivalence
//! discipline across process boundaries:
//!
//! 1. **Equivalence.** For any op interleaving, a plane split across N
//!    cluster members (each an `RpcServer` owning a contiguous
//!    [`ShardTopology`] slice) produces bit-identical per-op results,
//!    `EpochReport`s, and published snapshots to a single-process
//!    sharded plane with the same global shard count.
//! 2. **Failover.** Killing one member trips only that member's
//!    breaker: ops on its ids fail fast with a typed
//!    [`ClusterError::ShardDown`] naming the unreachable slice, ops on
//!    surviving members keep succeeding, and the survivors keep
//!    *planning* — versions advance during the outage.
//! 3. **Resurrection.** A killed member restarted over its own journal
//!    slice rejoins through the handshake and the cluster converges to
//!    state bit-identical to a never-killed twin.
//! 4. **Rejoin safety.** A member that comes back with a different
//!    shard slice or a rolled-back epoch (fresh/stale journal) is
//!    rejected with a typed [`HandshakeError`] and its breaker stays
//!    open — the cluster never routes to forked state.
//!
//! Failover and resurrection also run once across real process
//! boundaries: `talus-serve cluster-server` children, one killed with
//! `Child::kill` and restarted over its journal.

mod common;

use std::io::{BufRead, BufReader, Read};
use std::net::SocketAddr;
use std::path::{Path, PathBuf};
use std::process::{Child, Command, Stdio};
use std::sync::Arc;
use std::time::Duration;

use common::{apply_both, arb_op, curve_from_seed, temp_dir, Front};
use proptest::prelude::*;
use talus_core::codec::DecodeError;
use talus_core::limits::WIRE_MAX_TENANTS;
use talus_core::{FaultAction, FaultScript, MissCurve, ShardTopology};
use talus_serve::wire::SnapshotSummary;
use talus_serve::{
    CacheId, CacheSpec, ClusterClient, ClusterConfig, ClusterError, EpochReport, HandshakeError,
    RetryPolicy, RpcClient, RpcError, RpcServer, ServeError, ServerHandle, ShardedReconfigService,
};
use talus_store::{Store, StoreSink};

/// One in-process cluster member: an `RpcServer` fronting a plane that
/// owns shards `first..first + count` of `total`, optionally journaling
/// into `dir`, with a fault script attached for deterministic kills.
struct TestMember {
    handle: ServerHandle,
    script: Arc<FaultScript>,
}

impl TestMember {
    fn spawn(total: usize, first: usize, count: usize, dir: Option<&Path>) -> TestMember {
        let topology = ShardTopology::range(total, first, count);
        let mut plane = ShardedReconfigService::new(count).with_topology(topology);
        if let Some(dir) = dir {
            let store = Arc::new(
                Store::open(dir, count)
                    .expect("open member store")
                    .with_topology(topology),
            );
            plane.restore(&store).expect("member journal restores");
            plane = plane.with_sink(store as Arc<dyn StoreSink>);
        }
        let script = Arc::new(FaultScript::new());
        let handle = RpcServer::bind("127.0.0.1:0", Arc::new(plane))
            .expect("bind member loopback")
            .with_fault_script(Arc::clone(&script))
            .spawn()
            .expect("spawn member accept loop");
        TestMember { handle, script }
    }

    fn addr(&self) -> SocketAddr {
        self.handle.local_addr()
    }

    fn plane(&self) -> &Arc<ShardedReconfigService> {
        self.handle.service()
    }

    /// Kills the member: every in-flight connection is severed at the
    /// next request and the listener closes, so reconnects are refused.
    fn kill(self) -> Arc<FaultScript> {
        self.script.inject(
            "server.handle",
            None,
            0,
            u64::MAX,
            FaultAction::KillConnection,
        );
        self.handle.shutdown();
        self.script
    }
}

/// Spawns `slices.len()` members covering `total` shards and connects a
/// cluster client with fast test-tuned retries.
fn spawn_cluster(total: usize, slices: &[(usize, usize)]) -> (Vec<TestMember>, ClusterClient) {
    let members: Vec<TestMember> = slices
        .iter()
        .map(|&(first, count)| TestMember::spawn(total, first, count, None))
        .collect();
    let addrs: Vec<SocketAddr> = members.iter().map(TestMember::addr).collect();
    let cluster = ClusterClient::connect_with(&addrs, test_config()).expect("cluster connects");
    (members, cluster)
}

fn test_config() -> ClusterConfig {
    ClusterConfig {
        deadline: Some(Duration::from_secs(5)),
        retry: RetryPolicy {
            attempts: 2,
            base: Duration::from_millis(1),
            cap: Duration::from_millis(10),
            seed: 0xC1A5,
        },
        // Tests drive recovery explicitly through `reconnect_member`;
        // a large interval keeps fast-failures deterministic.
        probe_interval: 1_000,
    }
}

/// Flattens a cluster result into the local `submit`/`deregister` shape
/// so per-op outcomes compare directly; transport errors are bugs here.
fn as_serve_result(result: Result<(), ClusterError>) -> Result<(), ServeError> {
    match result {
        Ok(()) => Ok(()),
        Err(ClusterError::Serve(e)) => Err(e),
        Err(other) => panic!("cluster transport failed mid-property: {other}"),
    }
}

impl Front for ClusterClient {
    fn register(&mut self, spec: CacheSpec) -> CacheId {
        ClusterClient::register(self, spec).expect("register routes")
    }
    fn submit(&mut self, id: CacheId, tenant: usize, curve: MissCurve) -> Result<(), ServeError> {
        as_serve_result(ClusterClient::submit(self, id, tenant, curve))
    }
    fn deregister(&mut self, id: CacheId) -> Result<(), ServeError> {
        as_serve_result(ClusterClient::deregister(self, id))
    }
    fn run_epoch(&mut self) -> EpochReport {
        let epoch = ClusterClient::run_epoch(self).expect("epoch routes");
        assert!(epoch.unreachable.is_empty(), "no member is down");
        epoch.report
    }
}

/// Asserts the cluster's published state for `id` is bit-identical to
/// the twin plane's: the wire summary a cluster reader sees, and the
/// owning member's server-side snapshot.
fn assert_snapshot_matches(
    cluster: &mut ClusterClient,
    members: &[TestMember],
    twin: &ShardedReconfigService,
    id: CacheId,
) {
    let ours = cluster.report(id).expect("report routes");
    let theirs = twin.snapshot(id);
    assert_eq!(
        ours,
        theirs.as_deref().map(SnapshotSummary::from),
        "{id}: wire summaries diverge"
    );
    let member = &members[cluster.member_for(id)];
    match (member.plane().snapshot(id), theirs) {
        (None, None) => {}
        (Some(a), Some(b)) => {
            assert_eq!(a.plan, b.plan, "{id}: plans diverge across the cluster");
            assert_eq!(a.version, b.version, "{id}: versions diverge");
            assert_eq!(a.updates, b.updates, "{id}: update counts diverge");
        }
        (a, b) => panic!(
            "{id}: published on one plane only (cluster: {}, twin: {})",
            a.is_some(),
            b.is_some()
        ),
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// The tentpole invariant: any op interleaving produces identical
    /// per-op results, identical merged `EpochReport`s, and
    /// bit-identical published snapshots whether the plane is one
    /// process with `total` shards or `total / 2` two-shard members
    /// assembled by a `ClusterClient`.
    #[test]
    fn cluster_plane_equals_single_process_plane(
        ops in proptest::collection::vec(arb_op(), 1..30),
        member_count in 2usize..4,
    ) {
        let per_member = 2usize;
        let total = member_count * per_member;
        let slices: Vec<(usize, usize)> = (0..member_count)
            .map(|m| (m * per_member, per_member))
            .collect();
        let (members, mut cluster) = spawn_cluster(total, &slices);
        let twin = ShardedReconfigService::new(total);

        let slots = apply_both(&twin, &mut cluster, &ops);

        // Drain both planes the same way, comparing the drain reports.
        while twin.pending() > 0 {
            let a = twin.run_epoch();
            let b = cluster.run_epoch().expect("drain epoch routes");
            prop_assert_eq!(a, b.report, "drain reports diverge");
        }
        for (id, _, _) in slots {
            assert_snapshot_matches(&mut cluster, &members, &twin, id);
        }
    }
}

/// Registers `caches` ids through both the cluster and the twin,
/// asserting the mints coincide, and returns them.
fn register_both(
    cluster: &mut ClusterClient,
    twin: &ShardedReconfigService,
    caches: usize,
    tenants: usize,
) -> Vec<CacheId> {
    (0..caches)
        .map(|_| {
            let spec = CacheSpec::new(1024, tenants);
            let id = twin.register(spec);
            let ours = cluster.register(spec).expect("register");
            assert_eq!(id, ours, "id minting must coincide");
            id
        })
        .collect()
}

/// Runs lockstep epochs on cluster and twin until both drain, asserting
/// each merged report is bit-identical.
fn drain_lockstep(cluster: &mut ClusterClient, twin: &ShardedReconfigService) -> Vec<EpochReport> {
    let mut reports = Vec::new();
    loop {
        let theirs = twin.run_epoch();
        let ours = cluster.run_epoch().expect("epoch routes");
        assert!(ours.unreachable.is_empty(), "all members reachable");
        assert_eq!(ours.report, theirs, "epoch reports diverge");
        let idle = theirs.is_idle();
        reports.push(theirs);
        if idle {
            return reports;
        }
    }
}

/// Killing one member opens exactly its breaker: its ids fail fast with
/// the typed unreachable slice, survivors keep serving *and planning*
/// (versions advance mid-outage), and the outage is named in cluster
/// health — no hangs, no panics, no collateral damage.
#[test]
fn dead_member_trips_only_its_own_breaker() {
    let (mut members, mut cluster) = spawn_cluster(4, &[(0, 2), (2, 2)]);
    let twin = ShardedReconfigService::new(4);

    // Eight ids straddle both members under the mix64 placement (ids
    // 0..6 all land on shards 0..2; ids 6 and 7 land on shards 3, 2).
    let ids = register_both(&mut cluster, &twin, 8, 1);
    for (i, id) in ids.iter().enumerate() {
        let curve = curve_from_seed(1 + i as u64);
        twin.submit(*id, 0, curve.clone()).expect("twin submit");
        cluster.submit(*id, 0, curve).expect("cluster submit");
    }
    drain_lockstep(&mut cluster, &twin);

    let victim = members.remove(1);
    let survivor_ids: Vec<CacheId> = ids
        .iter()
        .copied()
        .filter(|id| cluster.member_for(*id) == 0)
        .collect();
    let victim_ids: Vec<CacheId> = ids
        .iter()
        .copied()
        .filter(|id| cluster.member_for(*id) == 1)
        .collect();
    assert!(
        !survivor_ids.is_empty() && !victim_ids.is_empty(),
        "the workload must straddle both members"
    );
    victim.kill();

    // Victim ids: typed fast-failures naming the unreachable slice.
    for id in &victim_ids {
        match cluster.submit(*id, 0, curve_from_seed(99)) {
            Err(ClusterError::ShardDown {
                member,
                first_shard,
                shard_count,
                ..
            }) => {
                assert_eq!(member, 1);
                assert_eq!((first_shard, shard_count), (2, 2));
            }
            other => panic!("{id}: expected ShardDown, got {other:?}"),
        }
    }

    // Survivor ids: submissions and planning proceed mid-outage.
    let before: Vec<u64> = survivor_ids
        .iter()
        .map(|id| members[0].plane().snapshot(*id).expect("published").version)
        .collect();
    for (i, id) in survivor_ids.iter().enumerate() {
        cluster
            .submit(*id, 0, curve_from_seed(500 + i as u64))
            .expect("survivor submit succeeds mid-outage");
    }
    let report = cluster.run_epoch().expect("epoch mid-outage");
    assert_eq!(report.unreachable, vec![1], "the dead member is skipped");
    let mut planned = survivor_ids.clone();
    planned.sort();
    assert_eq!(report.report.planned, planned);
    for (id, before) in survivor_ids.iter().zip(before) {
        let after = members[0].plane().snapshot(*id).expect("published").version;
        assert_eq!(after, before + 1, "{id}: survivor kept planning");
    }

    // The outage is data: health names exactly the unreachable shards.
    let health = cluster.health();
    assert!(!health.is_healthy());
    assert_eq!(health.unreachable_shards(), vec![2, 3]);
    assert!(health.members[0].reachable);
    assert!(!health.members[1].reachable);
    assert_eq!(health.members[1].outages, 1);
}

/// The resurrection invariant: a member killed mid-run and restarted
/// over its own journal slice rejoins the cluster, and the final
/// published state is bit-identical to a never-killed single-process
/// twin fed the same stream.
#[test]
fn member_resurrects_from_its_journal_bit_identical() {
    let dir = temp_dir("resurrect");
    let member_dirs: Vec<PathBuf> = (0..3).map(|m| dir.join(format!("member-{m}"))).collect();
    let mut members: Vec<TestMember> = member_dirs
        .iter()
        .enumerate()
        .map(|(m, d)| TestMember::spawn(6, m * 2, 2, Some(d)))
        .collect();
    let addrs: Vec<SocketAddr> = members.iter().map(TestMember::addr).collect();
    let mut cluster = ClusterClient::connect_with(&addrs, test_config()).expect("connect");
    let twin = ShardedReconfigService::new(6);

    // Phase 1: a healthy prefix, journaled by every member.
    let ids = register_both(&mut cluster, &twin, 8, 2);
    for (i, id) in ids.iter().enumerate() {
        for t in 0..2 {
            let curve = curve_from_seed((i as u64) << 8 | t as u64);
            twin.submit(*id, t as usize, curve.clone()).expect("twin");
            cluster.submit(*id, t as usize, curve).expect("cluster");
        }
    }
    drain_lockstep(&mut cluster, &twin);

    // Phase 2: kill member 1. Its caches are unreachable; the kill is
    // between operations, so its journal holds exactly the applied
    // prefix.
    let victim = members.remove(1);
    victim.kill();
    let down = ids
        .iter()
        .find(|id| cluster.member_for(**id) == 1)
        .expect("some cache lands on member 1");
    assert!(matches!(
        cluster.submit(*down, 0, curve_from_seed(7)),
        Err(ClusterError::ShardDown { member: 1, .. })
    ));

    // Phase 3: restart it from the same journal directory, rejoin, and
    // resume the stream. (`insert` keeps member indices aligned with
    // the cluster's.)
    let reborn = TestMember::spawn(6, 2, 2, Some(&member_dirs[1]));
    let addr = reborn.addr();
    members.insert(1, reborn);
    cluster
        .reconnect_member(1, Some(addr))
        .expect("journal-restored member rejoins");

    for (i, id) in ids.iter().enumerate() {
        let curve = curve_from_seed(0x9000 + i as u64);
        twin.submit(*id, i % 2, curve.clone()).expect("twin");
        cluster
            .submit(*id, i % 2, curve)
            .expect("cluster heals after rejoin");
    }
    drain_lockstep(&mut cluster, &twin);

    for id in &ids {
        assert_snapshot_matches(&mut cluster, &members, &twin, *id);
    }
    let health = cluster.health();
    assert!(health.is_healthy(), "the outage is over");
    assert_eq!(health.members[1].outages, 1, "and it was counted");

    let _ = std::fs::remove_dir_all(&dir);
}

/// Rejoin safety: a member restarted from a *fresh* (lost) journal
/// advertises an epoch behind what the client already acknowledged and
/// is rejected with `StaleEpoch`; one restarted with a different shard
/// slice is rejected with `TopologyChanged`. Both leave the breaker
/// open.
#[test]
fn forked_rejoins_are_rejected_and_stay_down() {
    let (mut members, mut cluster) = spawn_cluster(4, &[(0, 2), (2, 2)]);
    let twin = ShardedReconfigService::new(4);

    let ids = register_both(&mut cluster, &twin, 8, 1);
    for (i, id) in ids.iter().enumerate() {
        let curve = curve_from_seed(i as u64);
        twin.submit(*id, 0, curve.clone()).expect("twin");
        cluster.submit(*id, 0, curve).expect("cluster");
    }
    drain_lockstep(&mut cluster, &twin);
    members.remove(1).kill();

    // A fresh plane at epoch 0 is behind the acknowledged epochs.
    let amnesiac = TestMember::spawn(4, 2, 2, None);
    match cluster.reconnect_member(1, Some(amnesiac.addr())) {
        Err(ClusterError::Handshake(HandshakeError::StaleEpoch {
            member,
            got,
            expected,
        })) => {
            assert_eq!(member, 1);
            assert_eq!(got, 0);
            assert!(expected > 0, "the healthy run acknowledged epochs");
        }
        other => panic!("expected StaleEpoch, got {other:?}"),
    }

    // A different slice would misroute ids, regardless of epoch.
    let misshaped = TestMember::spawn(4, 1, 3, None);
    assert!(matches!(
        cluster.reconnect_member(1, Some(misshaped.addr())),
        Err(ClusterError::Handshake(HandshakeError::TopologyChanged {
            member: 1
        }))
    ));

    // Both rejections leave the breaker open: victim ids still fail
    // fast and typed.
    let down = ids
        .iter()
        .find(|id| cluster.member_for(**id) == 1)
        .expect("some cache lands on member 1");
    assert!(matches!(
        cluster.submit(*down, 0, curve_from_seed(42)),
        Err(ClusterError::ShardDown { member: 1, .. })
    ));
}

/// Connect-time assembly is verified end-to-end through real `Hello`
/// frames: members whose slices overlap are rejected before any op.
#[test]
fn connect_rejects_overlapping_advertisements() {
    let a = TestMember::spawn(4, 0, 2, None);
    let b = TestMember::spawn(4, 1, 2, None);
    match ClusterClient::connect_with(&[a.addr(), b.addr()], test_config()) {
        Err(ClusterError::Handshake(HandshakeError::Overlap { shard: 1 })) => {}
        other => panic!("expected Overlap at shard 1, got {other:?}"),
    }
}

/// Servers on a cluster topology refuse server-side minting: two
/// members minting from the same sequence would collide, so `Register`
/// is rejected with the typed `ClusterMint` and the caller is pointed
/// at the cluster client's deterministic scheme.
#[test]
fn cluster_members_refuse_server_side_minting() {
    let member = TestMember::spawn(4, 0, 2, None);
    let mut direct = RpcClient::connect(member.addr()).expect("connect");
    assert!(matches!(
        direct.register(1024, 1),
        Err(RpcError::Serve(ServeError::ClusterMint))
    ));
}

/// A register the server's decoder must refuse is refused by the client,
/// with the decoder's own typed error, before a byte is sent. Sent, the
/// server could only drop the connection: the next call on that client
/// failed, and a cluster member's breaker opened over a bad argument,
/// failing the valid register after it too.
#[test]
fn a_register_the_decoder_refuses_is_refused_unsent() {
    let zero = RpcError::Wire(DecodeError::Malformed("zero tenants"));
    let over = RpcError::Wire(DecodeError::BadCount {
        count: WIRE_MAX_TENANTS + 1,
        max: WIRE_MAX_TENANTS,
    });
    let twin = ShardedReconfigService::new(4);
    let first = twin.register(CacheSpec::new(64, 1));

    let plane = RpcServer::bind("127.0.0.1:0", Arc::new(ShardedReconfigService::new(4)))
        .expect("bind loopback")
        .spawn()
        .expect("spawn accept loop");
    let mut direct = RpcClient::connect(plane.local_addr()).expect("connect");
    let malformed = RpcError::Wire(DecodeError::Malformed("zero capacity"));
    assert_eq!(direct.register(0, 1), Err(malformed));
    assert_eq!(direct.register(64, 0), Err(zero.clone()));
    assert_eq!(direct.register(64, WIRE_MAX_TENANTS + 1), Err(over.clone()));
    assert_eq!(direct.ping(), Ok(()), "the connection still serves");
    assert_eq!(direct.register(64, 1), Ok(first));
    assert_eq!(plane.connections(), 1, "never reconnected");

    let (_members, mut cluster) = spawn_cluster(4, &[(0, 2), (2, 2)]);
    let spec = CacheSpec::new(64, 1);
    let tenants = |tenants| CacheSpec { tenants, ..spec };
    assert_eq!(cluster.register(tenants(0)), Err(ClusterError::Rpc(zero)));
    assert_eq!(
        cluster.register(tenants(WIRE_MAX_TENANTS as usize + 1)),
        Err(ClusterError::Rpc(over))
    );
    let health = cluster.health();
    assert!(health.unreachable_shards().is_empty(), "{health:?}");
    assert!(health.members.iter().all(|m| m.outages == 0));
    assert_eq!(cluster.register(spec), Ok(first), "the same id is minted");
}

/// `talus-serve cluster-server` processes, killed and reaped on drop so
/// a failing test leaks none.
struct ServerProcesses(Vec<Child>);

impl ServerProcesses {
    /// Starts a member process serving shards `first..first + count` of
    /// `total` from the journal in `dir`, and reads the address it
    /// prints as its first line.
    fn spawn(total: usize, first: usize, count: usize, dir: &Path) -> (Child, SocketAddr) {
        let mut child = Command::new(env!("CARGO_BIN_EXE_talus-serve"))
            .arg("cluster-server")
            .args([total, first, count].map(|n| n.to_string()))
            .arg(dir)
            .stdout(Stdio::piped())
            .stderr(Stdio::piped())
            .spawn()
            .expect("spawn cluster-server");
        let mut line = String::new();
        // A failed read leaves no address, and the child is reaped below.
        let stdout = child.stdout.take().expect("piped stdout");
        let _ = BufReader::new(stdout).read_line(&mut line);
        match line.trim().parse() {
            Ok(addr) => (child, addr),
            Err(_) => {
                let _ = child.kill();
                let _ = child.wait();
                let mut stderr = String::new();
                let _ = child
                    .stderr
                    .take()
                    .map(|mut e| e.read_to_string(&mut stderr));
                panic!("cluster-server printed {line:?}, not an address; stderr: {stderr}")
            }
        }
    }

    fn kill(&mut self, member: usize) {
        self.0[member].kill().expect("kill member");
        self.0[member].wait().expect("reap member");
    }
}

impl Drop for ServerProcesses {
    fn drop(&mut self) {
        for child in &mut self.0 {
            let _ = child.kill();
            let _ = child.wait();
        }
    }
}

/// Failover and resurrection across real processes: three
/// `cluster-server` members, each journaling two of six shards. One is
/// killed between operations, holding a cache deferred on a tenant that
/// has not reported while the other re-sent its curve: its ids fail fast
/// with a typed `ShardDown` while the survivors serve. A new process
/// over the same journal rejoins, and from then on every wire summary
/// equals a single-process twin's fed the same stream.
#[test]
fn killed_server_process_restarts_from_its_journal_bit_identical() {
    let dir = temp_dir("processes");
    let member_dirs: Vec<PathBuf> = (0..3).map(|m| dir.join(format!("member-{m}"))).collect();
    let mut servers = ServerProcesses(Vec::new());
    let mut addrs = Vec::new();
    for (m, member_dir) in member_dirs.iter().enumerate() {
        let (child, addr) = ServerProcesses::spawn(6, m * 2, 2, member_dir);
        servers.0.push(child);
        addrs.push(addr);
    }
    let mut cluster = ClusterClient::connect_with(&addrs, test_config()).expect("connect");
    let twin = ShardedReconfigService::new(6);

    let ids = register_both(&mut cluster, &twin, 8, 2);
    for (i, id) in ids.iter().enumerate() {
        for t in 0..2 {
            let curve = curve_from_seed(1 + (i * 2 + t) as u64);
            twin.submit(*id, t, curve.clone()).expect("twin");
            cluster.submit(*id, t, curve).expect("cluster");
        }
    }
    drain_lockstep(&mut cluster, &twin);

    // One cache on member 1 waits on a tenant that has not reported,
    // while the other re-sends the same curve across an epoch: the
    // re-send re-queues the cache, and the member's journal must say so.
    let deferred = loop {
        let id = register_both(&mut cluster, &twin, 1, 2)[0];
        if cluster.member_for(id) == 1 {
            break id;
        }
    };
    for _ in 0..2 {
        twin.submit(deferred, 0, curve_from_seed(50)).expect("twin");
        cluster
            .submit(deferred, 0, curve_from_seed(50))
            .expect("cluster");
        let reports = drain_lockstep(&mut cluster, &twin);
        assert_eq!(reports[0].deferred, vec![deferred]);
    }

    // Kill member 1's process: its shards fail fast and typed, the
    // survivors' shards keep accepting work.
    servers.kill(1);
    let (victim_ids, survivor_ids): (Vec<CacheId>, Vec<CacheId>) =
        ids.iter().partition(|id| cluster.member_for(**id) == 1);
    assert!(
        !victim_ids.is_empty() && !survivor_ids.is_empty(),
        "the workload must straddle the victim and the survivors"
    );
    for (i, id) in survivor_ids.iter().enumerate() {
        let curve = curve_from_seed(100 + i as u64);
        twin.submit(*id, 0, curve.clone()).expect("twin");
        cluster
            .submit(*id, 0, curve)
            .expect("survivors keep accepting");
    }
    for id in &victim_ids {
        match cluster.submit(*id, 0, curve_from_seed(200)) {
            Err(ClusterError::ShardDown {
                member,
                first_shard,
                shard_count,
                ..
            }) => assert_eq!((member, first_shard, shard_count), (1, 2, 2)),
            other => panic!("{id}: expected ShardDown, got {other:?}"),
        }
    }
    let health = cluster.health();
    assert!(!health.is_healthy());
    assert_eq!(health.unreachable_shards(), vec![2, 3]);

    // A new process over the same journal rejoins at a fresh port.
    let (child, addr) = ServerProcesses::spawn(6, 2, 2, &member_dirs[1]);
    servers.0[1] = child;
    cluster
        .reconnect_member(1, Some(addr))
        .expect("journal-restored member rejoins");
    for (i, id) in ids.iter().enumerate() {
        let curve = curve_from_seed(300 + i as u64);
        twin.submit(*id, 0, curve.clone()).expect("twin");
        cluster.submit(*id, 0, curve).expect("submit after rejoin");
    }
    twin.submit(deferred, 1, curve_from_seed(51)).expect("twin");
    cluster
        .submit(deferred, 1, curve_from_seed(51))
        .expect("the restored cache takes its last tenant");
    drain_lockstep(&mut cluster, &twin);
    assert!(twin.snapshot(deferred).is_some(), "and plans");
    for id in ids.iter().chain([&deferred]) {
        let want = twin.snapshot(*id).as_deref().map(SnapshotSummary::from);
        assert_eq!(cluster.report(*id).expect("report"), want, "{id}");
    }
    let health = cluster.health();
    assert!(health.is_healthy(), "the outage is over");
    assert_eq!(health.members[1].outages, 1, "and it was counted");

    drop(servers);
    let _ = std::fs::remove_dir_all(&dir);
}
