//! `ClusterClient`: one logical plane over many shard-server processes.
//!
//! A cluster is N [`RpcServer`](crate::RpcServer) processes, each
//! fronting a [`ShardedReconfigService`](crate::ShardedReconfigService)
//! that owns one contiguous slice of a fixed **global** shard layout
//! (see [`talus_core::ShardTopology`]). The client connects to every
//! member, performs the `Hello` handshake (since wire v3) — each server advertises
//! `(total_shards, owned range, epoch, next_id, health)` — and verifies
//! the advertisements assemble into exactly one plane: every member
//! agrees on the total, the ranges are disjoint, and together they
//! cover every global shard. Placement never moves:
//! `shard_of(id, total)` names the owning global shard and therefore
//! the owning member, so a cluster routes each operation to exactly
//! the shard a single-process plane with `total` shards would use —
//! which is what makes cluster results bit-identical to single-process
//! ones (`tests/cluster.rs`).
//!
//! ## Id minting
//!
//! A single-process plane mints cache ids server-side. Across members
//! that would race, so minting moves to the client: the handshake seeds
//! `next_id` with the maximum any member has seen, `register` assigns
//! the next id deterministically and sends `RegisterAt` to the owning
//! member. Servers refuse to mint in cluster topologies
//! ([`ServeError::ClusterMint`]), and `RegisterAt` is idempotent for an
//! identical spec, so a registration whose reply was lost converges on
//! retry instead of leaking an id. The scheme assumes one minting
//! client per cluster (the same single-writer assumption the journal
//! already makes); readers and submitters can fan out freely.
//!
//! ## Partial failure: the per-member circuit breaker
//!
//! A dead member must cost its callers one bounded failure, not a
//! hang per request. The first transport-class failure (deadline,
//! exhausted retries, connection loss) trips that member's breaker:
//! the member is marked down, the failure is counted as an outage, and
//! every subsequent operation routed to it fails *immediately* with
//! [`ClusterError::ShardDown`] naming the member and its global shard
//! range — no socket is touched. Every `probe_interval`-th such
//! fast-failure instead probes: one fresh connection and `Hello`,
//! re-verifying the member's topology slice and that its epoch has not
//! gone backwards. A successful probe closes the breaker; operations
//! resume. Operations routed to *other* members never notice — the
//! surviving slices keep registering, submitting, and planning.
//!
//! ## Resurrection and the stale-epoch guard
//!
//! A killed member restarts by re-opening its journal slice with
//! [`ShardedReconfigService::restore`](crate::ShardedReconfigService::restore)
//! and re-binding its server; the client's probe (or an explicit
//! [`reconnect_member`](ClusterClient::reconnect_member), if the
//! address changed) re-handshakes and resumes routing. The handshake
//! rejects two classes of bad rejoin: a member advertising a
//! *different* topology slice ([`HandshakeError::TopologyChanged`]) and
//! a member whose epoch went backwards
//! ([`HandshakeError::StaleEpoch`]) — the signature of a restart from a
//! lost or stale journal, which would silently fork history if routed
//! to. Both leave the breaker open.

use std::net::{SocketAddr, ToSocketAddrs};
use std::time::Duration;

use crate::client::{is_transport, RetryPolicy, RpcClient, RpcError};
use crate::router::merge_reports;
use crate::service::{EpochReport, ServeError};
use crate::snapshot::CacheId;
use crate::wire::{ClusterInfo, SnapshotSummary};
use talus_core::codec::DecodeError;
use talus_core::{shard_of, MissCurve, PlaneHealth};
use talus_partition::CacheSpec;

/// Fast-failures between probes while a member's breaker is open: the
/// default lets most callers fail fast while every fourth attempt pays
/// one connection to check for recovery.
pub const DEFAULT_PROBE_INTERVAL: u32 = 4;

/// Connection-level settings applied to every member of a
/// [`ClusterClient`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ClusterConfig {
    /// Per-request socket deadline for every member connection
    /// (`None` = block forever; keep one in production so a hung member
    /// trips the breaker instead of hanging the client).
    pub deadline: Option<Duration>,
    /// Retry policy for each member's idempotent operations. Retries
    /// run *inside* a member before its breaker trips: the breaker sees
    /// one exhausted failure, not each attempt.
    pub retry: RetryPolicy,
    /// While a breaker is open, every `probe_interval`-th operation
    /// routed to that member probes it instead of failing fast
    /// (1 = probe on every operation).
    pub probe_interval: u32,
}

impl Default for ClusterConfig {
    /// Five-second deadline, default retry policy, probe every fourth
    /// fast-failure.
    fn default() -> Self {
        ClusterConfig {
            deadline: Some(Duration::from_secs(5)),
            retry: RetryPolicy::default(),
            probe_interval: DEFAULT_PROBE_INTERVAL,
        }
    }
}

/// Why a cluster handshake (connect, probe, or explicit reconnect)
/// rejected a member's advertisement.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum HandshakeError {
    /// `connect` was given no addresses.
    NoServers,
    /// A member disagrees about how many global shards the plane has.
    TotalMismatch {
        /// Index of the disagreeing member (position in the address
        /// list).
        member: usize,
        /// The total that member advertised.
        got: usize,
        /// The total the first member advertised.
        expected: usize,
    },
    /// Two members both claim this global shard.
    Overlap {
        /// The doubly-owned global shard.
        shard: usize,
    },
    /// No member claims this global shard, so ids placed there would be
    /// unroutable.
    Gap {
        /// The unowned global shard.
        shard: usize,
    },
    /// A rejoining member advertised a different shard slice than it
    /// owned at connect time; routing to it would misplace ids.
    TopologyChanged {
        /// Index of the member.
        member: usize,
    },
    /// A rejoining member's epoch went backwards — it restarted from a
    /// lost or stale journal and its state forked from what this client
    /// already observed. Routing to it would silently diverge.
    StaleEpoch {
        /// Index of the member.
        member: usize,
        /// The epoch the member advertised on rejoin.
        got: u64,
        /// The minimum acceptable epoch (the member's last acknowledged
        /// epoch).
        expected: u64,
    },
}

impl std::fmt::Display for HandshakeError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            HandshakeError::NoServers => write!(f, "a cluster needs at least one server"),
            HandshakeError::TotalMismatch {
                member,
                got,
                expected,
            } => write!(
                f,
                "member {member} says the plane has {got} shards, others say {expected}"
            ),
            HandshakeError::Overlap { shard } => {
                write!(f, "global shard {shard} is claimed by two members")
            }
            HandshakeError::Gap { shard } => {
                write!(f, "global shard {shard} is claimed by no member")
            }
            HandshakeError::TopologyChanged { member } => {
                write!(f, "member {member} rejoined with a different shard slice")
            }
            HandshakeError::StaleEpoch {
                member,
                got,
                expected,
            } => write!(
                f,
                "member {member} rejoined at epoch {got}, behind its acknowledged epoch \
                 {expected} (stale journal?)"
            ),
        }
    }
}

impl std::error::Error for HandshakeError {}

/// Errors surfaced by the cluster client.
#[derive(Debug, Clone, PartialEq)]
pub enum ClusterError {
    /// The handshake rejected the cluster's (or one member's)
    /// advertisement.
    Handshake(HandshakeError),
    /// The owning member is unreachable and its breaker is open; `last`
    /// is the failure that opened (or last re-opened) it. Operations on
    /// ids owned by other members keep succeeding.
    ShardDown {
        /// Index of the down member (position in the address list).
        member: usize,
        /// First global shard of the unreachable slice.
        first_shard: usize,
        /// Number of unreachable global shards.
        shard_count: usize,
        /// The transport failure that opened the breaker.
        last: Box<RpcError>,
    },
    /// The owning member processed the request and rejected it — the
    /// same typed rejection a single-process plane would return.
    Serve(ServeError),
    /// A non-transport RPC failure (protocol violation, unexpected
    /// reply kind) that retrying or rerouting cannot fix.
    Rpc(RpcError),
}

impl std::fmt::Display for ClusterError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ClusterError::Handshake(e) => write!(f, "cluster handshake failed: {e}"),
            ClusterError::ShardDown {
                member,
                first_shard,
                shard_count,
                last,
            } => write!(
                f,
                "member {member} (global shards {first_shard}..{}) is down: {last}",
                first_shard + shard_count
            ),
            ClusterError::Serve(e) => write!(f, "cluster member rejected request: {e}"),
            ClusterError::Rpc(e) => write!(f, "cluster rpc failed: {e}"),
        }
    }
}

impl std::error::Error for ClusterError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            ClusterError::Handshake(e) => Some(e),
            ClusterError::ShardDown { last, .. } => Some(last),
            ClusterError::Serve(e) => Some(e),
            ClusterError::Rpc(e) => Some(e),
        }
    }
}

impl From<HandshakeError> for ClusterError {
    fn from(e: HandshakeError) -> Self {
        ClusterError::Handshake(e)
    }
}

/// Breaker state of one member connection.
#[derive(Debug)]
enum MemberState {
    /// Breaker closed: operations go to the wire.
    Up(Box<RpcClient>),
    /// Breaker open: operations fail fast with `last` until a probe
    /// succeeds.
    Down {
        /// The transport failure that opened the breaker.
        last: RpcError,
        /// Fast-failures since the last real connection attempt.
        since_probe: u32,
    },
}

/// One shard server, as the cluster client tracks it.
#[derive(Debug)]
struct Member {
    addr: SocketAddr,
    first: usize,
    count: usize,
    /// Highest epoch this client has seen the member acknowledge; a
    /// rejoin below this is stale.
    last_epoch: u64,
    /// Times this member's breaker has opened.
    outages: u64,
    state: MemberState,
}

/// Reachability and health of one cluster member, as reported by
/// [`ClusterClient::health`].
#[derive(Debug, Clone, PartialEq)]
pub struct MemberHealth {
    /// First global shard the member owns.
    pub first_shard: usize,
    /// Number of contiguous global shards the member owns.
    pub shard_count: usize,
    /// Whether the member answered (breaker closed after this check).
    pub reachable: bool,
    /// Times this member's breaker has opened since connect.
    pub outages: u64,
    /// The member's own plane health, when reachable.
    pub plane: Option<PlaneHealth>,
}

/// One observable snapshot of the whole cluster's failure state: the
/// cluster-level analogue of [`talus_core::PlaneHealth`].
#[derive(Debug, Clone, PartialEq)]
pub struct ClusterHealth {
    /// Global shards in the plane.
    pub total_shards: usize,
    /// Per-member health, in member order.
    pub members: Vec<MemberHealth>,
}

impl ClusterHealth {
    /// Exactly which global shards are currently unreachable, ascending
    /// — empty when every member answers.
    pub fn unreachable_shards(&self) -> Vec<usize> {
        let mut shards: Vec<usize> = self
            .members
            .iter()
            .filter(|m| !m.reachable)
            .flat_map(|m| m.first_shard..m.first_shard + m.shard_count)
            .collect();
        shards.sort_unstable();
        shards
    }

    /// Whether every member is reachable and every member's own plane
    /// is healthy.
    pub fn is_healthy(&self) -> bool {
        self.members
            .iter()
            .all(|m| m.reachable && m.plane.as_ref().is_some_and(PlaneHealth::is_healthy))
    }
}

/// The outcome of one cluster-wide epoch:
/// [`ClusterClient::run_epoch`].
#[derive(Debug, Clone, PartialEq)]
pub struct ClusterEpochReport {
    /// Per-member reports folded into one plane-wide report through the
    /// same merge a single-process plane uses, so in a fully-reachable
    /// lockstep cluster this is bit-identical to the single-process
    /// report.
    pub report: EpochReport,
    /// Members (by index) whose breaker was or became open — their
    /// shards did not run this epoch and will catch up after recovery.
    pub unreachable: Vec<usize>,
}

/// A client for a multi-process shard cluster: same operations as
/// [`RpcClient`], routed per cache id to the owning member, with
/// client-side id minting and a per-member circuit breaker (see
/// "Scaling across processes" in the [crate docs](crate)).
#[derive(Debug)]
pub struct ClusterClient {
    members: Vec<Member>,
    /// Global shard index → owning member index (dense, covering).
    owner: Vec<usize>,
    /// Next cache id to mint; advanced only on confirmed registration.
    next_id: u64,
    config: ClusterConfig,
}

impl ClusterClient {
    /// Connects to every member and verifies the handshake assembles
    /// one complete plane ([`ClusterConfig::default`] settings).
    ///
    /// # Errors
    ///
    /// [`ClusterError::Handshake`] if the advertisements disagree on
    /// the total, overlap, or leave a gap; [`ClusterError::Rpc`] /
    /// [`ClusterError::ShardDown`] if a member cannot be reached at
    /// connect time (connect requires every member up — partial
    /// topologies cannot be verified complete).
    pub fn connect<A: ToSocketAddrs>(addrs: &[A]) -> Result<Self, ClusterError> {
        Self::connect_with(addrs, ClusterConfig::default())
    }

    /// [`connect`](ClusterClient::connect) with explicit settings.
    ///
    /// # Errors
    ///
    /// As [`connect`](ClusterClient::connect).
    pub fn connect_with<A: ToSocketAddrs>(
        addrs: &[A],
        config: ClusterConfig,
    ) -> Result<Self, ClusterError> {
        if addrs.is_empty() {
            return Err(HandshakeError::NoServers.into());
        }
        let mut members = Vec::with_capacity(addrs.len());
        let mut infos = Vec::with_capacity(addrs.len());
        for addr in addrs {
            let addr = resolve(addr).map_err(ClusterError::Rpc)?;
            let (client, info) = handshake(addr, &config).map_err(ClusterError::Rpc)?;
            infos.push(info.clone());
            members.push(Member {
                addr,
                first: info.first_shard as usize,
                count: info.shard_count as usize,
                last_epoch: info.epoch,
                outages: 0,
                state: MemberState::Up(Box::new(client)),
            });
        }
        let owner = assemble(&infos)?;
        let next_id = infos.iter().map(|i| i.next_id).max().unwrap_or(0);
        Ok(ClusterClient {
            members,
            owner,
            next_id,
            config,
        })
    }

    /// Global shards in the plane.
    pub fn total_shards(&self) -> usize {
        self.owner.len()
    }

    /// Member count.
    pub fn member_count(&self) -> usize {
        self.members.len()
    }

    /// The next cache id [`register`](ClusterClient::register) will
    /// mint.
    pub fn next_id(&self) -> u64 {
        self.next_id
    }

    /// The member index owning cache `id` — same placement a
    /// single-process plane with [`total_shards`](Self::total_shards)
    /// shards uses.
    pub fn member_for(&self, id: CacheId) -> usize {
        self.owner[shard_of(id.value(), self.owner.len())]
    }

    /// Mints the next cache id and registers it on the owning member
    /// with `spec`. The id is minted deterministically client-side; the
    /// mint is committed only when the owning member confirms, so a
    /// failed registration re-mints the same id (safe: `RegisterAt` is
    /// idempotent for an identical spec).
    ///
    /// # Errors
    ///
    /// [`ClusterError::ShardDown`] if the owning member's breaker is
    /// open, or the member's typed rejection.
    pub fn register(&mut self, spec: CacheSpec) -> Result<CacheId, ClusterError> {
        let id = CacheId(self.next_id);
        let member = self.member_for(id);
        let registered = self.call_member(member, |client| client.register_at(id, spec))?;
        self.next_id = registered.value() + 1;
        Ok(registered)
    }

    /// Removes a cache from its owning member.
    ///
    /// # Errors
    ///
    /// As the single-process `deregister`, plus
    /// [`ClusterError::ShardDown`].
    pub fn deregister(&mut self, id: CacheId) -> Result<(), ClusterError> {
        let member = self.member_for(id);
        self.call_member(member, |client| client.deregister(id))
    }

    /// Submits one curve to the owning member.
    ///
    /// # Errors
    ///
    /// As the single-process `submit`, plus
    /// [`ClusterError::ShardDown`].
    pub fn submit(
        &mut self,
        id: CacheId,
        tenant: usize,
        curve: MissCurve,
    ) -> Result<(), ClusterError> {
        let member = self.member_for(id);
        self.call_member(member, |client| client.submit(id, tenant, curve))
    }

    /// Fetches the published snapshot summary for a cache from its
    /// owning member.
    ///
    /// # Errors
    ///
    /// Transport errors / [`ClusterError::ShardDown`].
    pub fn report(&mut self, id: CacheId) -> Result<Option<SnapshotSummary>, ClusterError> {
        let member = self.member_for(id);
        self.call_member(member, |client| client.report(id))
    }

    /// Runs one planning epoch on every reachable member and folds the
    /// per-member reports into one plane-wide report. Members with an
    /// open breaker are skipped (listed in
    /// [`unreachable`](ClusterEpochReport::unreachable)); their shards
    /// simply plan nothing this epoch, exactly like a fully-idle shard.
    ///
    /// # Errors
    ///
    /// Non-transport failures only — an unreachable member is data, not
    /// an error.
    pub fn run_epoch(&mut self) -> Result<ClusterEpochReport, ClusterError> {
        let mut reports = Vec::with_capacity(self.members.len());
        let mut unreachable = Vec::new();
        for idx in 0..self.members.len() {
            match self.call_member(idx, RpcClient::run_epoch) {
                Ok(report) => {
                    // Acknowledged epochs ratchet the stale-rejoin floor.
                    self.ratchet_epoch(idx, report.epoch);
                    reports.push(report);
                }
                Err(ClusterError::ShardDown { member, .. }) => unreachable.push(member),
                Err(e) => return Err(e),
            }
        }
        let epoch = reports.iter().map(|r| r.epoch).max().unwrap_or(0);
        Ok(ClusterEpochReport {
            report: merge_reports(epoch, reports),
            unreachable,
        })
    }

    /// One cluster-wide health snapshot: per-member reachability,
    /// outage counts, and (for reachable members) each member's own
    /// [`PlaneHealth`]. Never fails — an unreachable member is reported,
    /// not returned as an error.
    pub fn health(&mut self) -> ClusterHealth {
        let mut members = Vec::with_capacity(self.members.len());
        for idx in 0..self.members.len() {
            let plane = self.call_member(idx, RpcClient::health).ok();
            let m = &self.members[idx];
            members.push(MemberHealth {
                first_shard: m.first,
                shard_count: m.count,
                reachable: matches!(m.state, MemberState::Up(_)) && plane.is_some(),
                outages: m.outages,
                plane,
            });
        }
        ClusterHealth {
            total_shards: self.owner.len(),
            members,
        }
    }

    /// Explicitly re-handshakes member `member` — the operator path for
    /// a server restarted at a (possibly) new address, instead of
    /// waiting for a periodic probe. Verifies the member still owns the
    /// same shard slice and its epoch has not gone backwards, then
    /// closes the breaker.
    ///
    /// # Errors
    ///
    /// [`ClusterError::Handshake`] with
    /// [`HandshakeError::TopologyChanged`] or
    /// [`HandshakeError::StaleEpoch`] on a bad rejoin (breaker stays
    /// open), or the transport failure if the member is still
    /// unreachable.
    ///
    /// # Panics
    ///
    /// Panics if `member` is out of range.
    pub fn reconnect_member<A: ToSocketAddrs>(
        &mut self,
        member: usize,
        addr: Option<A>,
    ) -> Result<(), ClusterError> {
        assert!(member < self.members.len(), "no such member");
        if let Some(addr) = addr {
            self.members[member].addr = resolve(&addr).map_err(ClusterError::Rpc)?;
        }
        self.probe(member)
    }

    /// One connection attempt to a (presumed down) member: fresh
    /// socket, `Hello`, verify, close the breaker. On transport failure
    /// the breaker stays open with the new failure recorded.
    fn probe(&mut self, idx: usize) -> Result<(), ClusterError> {
        let addr = self.members[idx].addr;
        match handshake(addr, &self.config) {
            Ok((client, info)) => {
                self.verify_rejoin(idx, &info)?;
                let member = &mut self.members[idx];
                member.last_epoch = info.epoch;
                member.state = MemberState::Up(Box::new(client));
                Ok(())
            }
            Err(e) if is_transport(&e) => {
                let member = &mut self.members[idx];
                member.state = MemberState::Down {
                    last: e.clone(),
                    since_probe: 0,
                };
                Err(self.shard_down(idx, e))
            }
            Err(e) => Err(ClusterError::Rpc(e)),
        }
    }

    /// Checks a rejoining member's advertisement against what it owned
    /// at connect time and the epochs this client has already seen.
    fn verify_rejoin(&self, idx: usize, info: &ClusterInfo) -> Result<(), ClusterError> {
        let member = &self.members[idx];
        if info.total_shards as usize != self.owner.len()
            || info.first_shard as usize != member.first
            || info.shard_count as usize != member.count
        {
            return Err(HandshakeError::TopologyChanged { member: idx }.into());
        }
        if info.epoch < member.last_epoch {
            return Err(HandshakeError::StaleEpoch {
                member: idx,
                got: info.epoch,
                expected: member.last_epoch,
            }
            .into());
        }
        Ok(())
    }

    /// The typed fast-failure for member `idx`'s open breaker.
    fn shard_down(&self, idx: usize, last: RpcError) -> ClusterError {
        let member = &self.members[idx];
        ClusterError::ShardDown {
            member: idx,
            first_shard: member.first,
            shard_count: member.count,
            last: Box::new(last),
        }
    }

    /// Runs `f` against member `idx` through the breaker: fail fast
    /// while the breaker is open (probing every
    /// [`probe_interval`](ClusterConfig::probe_interval)-th call), open
    /// it on a transport-class failure, pass typed rejections through.
    fn call_member<T>(
        &mut self,
        idx: usize,
        f: impl FnOnce(&mut RpcClient) -> Result<T, RpcError>,
    ) -> Result<T, ClusterError> {
        if let MemberState::Down { last, since_probe } = &mut self.members[idx].state {
            *since_probe += 1;
            if *since_probe < self.config.probe_interval {
                let last = last.clone();
                return Err(self.shard_down(idx, last));
            }
            self.probe(idx)?;
        }
        let result = match &mut self.members[idx].state {
            MemberState::Up(client) => f(client),
            MemberState::Down { last, .. } => {
                // A probe just claimed success yet the breaker is open —
                // defensive: report the recorded failure.
                let last = last.clone();
                return Err(self.shard_down(idx, last));
            }
        };
        match result {
            Ok(value) => Ok(value),
            Err(e) if is_transport(&e) => {
                let member = &mut self.members[idx];
                member.outages += 1;
                member.state = MemberState::Down {
                    last: e.clone(),
                    since_probe: 0,
                };
                Err(self.shard_down(idx, e))
            }
            Err(RpcError::Serve(e)) => Err(ClusterError::Serve(e)),
            Err(e) => Err(ClusterError::Rpc(e)),
        }
    }

    /// Records that member `idx` has acknowledged running epoch
    /// `epoch`, raising the floor a rejoin must clear. Called by
    /// `run_epoch` after each member reports.
    fn ratchet_epoch(&mut self, idx: usize, epoch: u64) {
        let member = &mut self.members[idx];
        member.last_epoch = member.last_epoch.max(epoch);
    }
}

/// Resolves one address (first result wins, like `TcpStream::connect`).
fn resolve<A: ToSocketAddrs>(addr: &A) -> Result<SocketAddr, RpcError> {
    addr.to_socket_addrs()
        .map_err(|e| RpcError::Wire(DecodeError::Io(e.kind())))?
        .next()
        .ok_or(RpcError::Wire(DecodeError::Io(
            std::io::ErrorKind::AddrNotAvailable,
        )))
}

/// Dials `addr` with `config`'s deadline and retry policy and performs
/// the `Hello` handshake.
fn handshake(
    addr: SocketAddr,
    config: &ClusterConfig,
) -> Result<(RpcClient, ClusterInfo), RpcError> {
    let mut client = RpcClient::connect(addr)?;
    if let Some(deadline) = config.deadline {
        client = client.with_deadline(deadline)?;
    }
    let mut client = client.with_retry(config.retry);
    let info = client.hello()?;
    Ok((client, info))
}

/// Builds the global-shard → member map from every member's
/// advertisement, verifying the slices assemble into one complete
/// plane.
fn assemble(infos: &[ClusterInfo]) -> Result<Vec<usize>, ClusterError> {
    let total = infos[0].total_shards as usize;
    for (member, info) in infos.iter().enumerate() {
        if info.total_shards as usize != total {
            return Err(HandshakeError::TotalMismatch {
                member,
                got: info.total_shards as usize,
                expected: total,
            }
            .into());
        }
    }
    let mut owner: Vec<Option<usize>> = vec![None; total];
    for (member, info) in infos.iter().enumerate() {
        let first = info.first_shard as usize;
        // Wire decode already guarantees first + count <= total.
        for (shard, slot) in (first..).zip(&mut owner[first..first + info.shard_count as usize]) {
            if slot.is_some() {
                return Err(HandshakeError::Overlap { shard }.into());
            }
            *slot = Some(member);
        }
    }
    owner
        .into_iter()
        .enumerate()
        .map(|(shard, m)| m.ok_or_else(|| HandshakeError::Gap { shard }.into()))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use talus_core::{PlaneHealth, StoreHealth};

    fn info(total: u32, first: u32, count: u32) -> ClusterInfo {
        ClusterInfo {
            total_shards: total,
            first_shard: first,
            shard_count: count,
            epoch: 0,
            next_id: 0,
            health: PlaneHealth {
                epochs: 0,
                caches: 0,
                pending: 0,
                quarantined: vec![],
                shards: vec![],
                store: StoreHealth::None,
                connections: 0,
                rejected: 0,
            },
        }
    }

    #[test]
    fn assemble_accepts_a_disjoint_cover() {
        let owner = assemble(&[info(6, 0, 2), info(6, 2, 2), info(6, 4, 2)]).expect("cover");
        assert_eq!(owner, vec![0, 0, 1, 1, 2, 2]);
    }

    #[test]
    fn assemble_rejects_total_disagreement() {
        let err = assemble(&[info(6, 0, 3), info(4, 3, 1)]).expect_err("mismatch");
        assert_eq!(
            err,
            ClusterError::Handshake(HandshakeError::TotalMismatch {
                member: 1,
                got: 4,
                expected: 6,
            })
        );
    }

    #[test]
    fn assemble_rejects_overlap_and_gap() {
        let overlap = assemble(&[info(4, 0, 3), info(4, 2, 2)]).expect_err("overlap");
        assert_eq!(
            overlap,
            ClusterError::Handshake(HandshakeError::Overlap { shard: 2 })
        );
        let gap = assemble(&[info(4, 0, 1), info(4, 2, 2)]).expect_err("gap");
        assert_eq!(
            gap,
            ClusterError::Handshake(HandshakeError::Gap { shard: 1 })
        );
    }

    #[test]
    fn transport_classification_unwraps_exhaustion() {
        assert!(is_transport(&RpcError::Deadline));
        assert!(is_transport(&RpcError::Exhausted {
            attempts: 3,
            last: Box::new(RpcError::Busy),
        }));
        assert!(!is_transport(&RpcError::Serve(ServeError::UnknownCache(
            CacheId(7)
        ))));
        assert!(!is_transport(&RpcError::Exhausted {
            attempts: 3,
            last: Box::new(RpcError::Unexpected { got: "pong" }),
        }));
    }
}
