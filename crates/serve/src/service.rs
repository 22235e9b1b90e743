//! The single-shard reconfiguration service and the shared API types
//! (specs, errors, epoch reports).
//!
//! [`ReconfigService`] is one [`Shard`](crate::shard::Shard) plus id and
//! epoch allocation — the single-lock configuration. The sharded,
//! router-fronted configuration with the same public API is
//! [`ShardedReconfigService`](crate::ShardedReconfigService).

use std::error::Error;
use std::fmt;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use crate::shard::Shard;
use crate::snapshot::{CacheId, PlanSnapshot};
use talus_core::{CurveSource, MissCurve, PlanError};
use talus_partition::Planner;

/// How a logical cache is planned: its capacity budget, how many tenants
/// share it, and the planner configuration (grain, policy, safety margin).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CacheSpec {
    /// Total capacity budget in lines.
    pub capacity: u64,
    /// Number of tenants (logical partitions) sharing the budget.
    pub tenants: usize,
    /// The planning pipeline (defaults to Talus: hill climbing on hulls,
    /// 5% safety margin, capacity/64 grain).
    pub planner: Planner,
}

impl CacheSpec {
    /// A spec with the default Talus planner at a capacity/64 grain.
    ///
    /// # Panics
    ///
    /// Panics if `capacity` or `tenants` is zero.
    pub fn new(capacity: u64, tenants: usize) -> Self {
        assert!(capacity > 0, "capacity must be positive");
        assert!(tenants > 0, "need at least one tenant");
        CacheSpec {
            capacity,
            tenants,
            planner: Planner::new((capacity / 64).max(1)),
        }
    }

    /// Replaces the planner configuration.
    pub fn with_planner(mut self, planner: Planner) -> Self {
        self.planner = planner;
        self
    }
}

/// Errors surfaced by the service API.
#[derive(Debug, Clone, PartialEq)]
pub enum ServeError {
    /// The cache id is not (or no longer) registered.
    UnknownCache(CacheId),
    /// The tenant index is outside the cache's registered tenant count.
    TenantOutOfRange {
        /// The cache addressed.
        cache: CacheId,
        /// The offending tenant index.
        tenant: usize,
        /// The cache's tenant count.
        tenants: usize,
    },
    /// Planning failed for this cache (e.g. an allocation fell below a
    /// curve's monitored domain). The cache stays clean; the next curve
    /// update re-queues it.
    Plan {
        /// The cache whose replanning failed.
        cache: CacheId,
        /// The underlying planning error.
        source: PlanError,
    },
    /// The cache is quarantined: its planner panicked during an epoch.
    /// The last-good snapshot keeps serving, but new submissions are
    /// rejected until the cache is deregistered and re-registered (or
    /// the plane is restored from its journal).
    Quarantined(CacheId),
    /// The cache's canonical shard (`shard_of(id, total)`) is not owned
    /// by this plane's topology slice — the operation was routed to the
    /// wrong cluster member. Names the owning *global* shard so a client
    /// can re-route.
    Misrouted {
        /// The cache addressed.
        cache: CacheId,
        /// The global shard that owns it.
        shard: usize,
    },
    /// A cache with this client-minted id already exists with a
    /// *different* spec. (Re-registering an identical spec is an
    /// idempotent no-op, so retried registrations never hit this.)
    DuplicateCache(CacheId),
    /// Server-side id minting (`Register`) is unavailable because this
    /// plane owns only a slice of a cluster topology; ids must be minted
    /// by the cluster client and registered via `RegisterAt`.
    ClusterMint,
}

impl fmt::Display for ServeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ServeError::UnknownCache(id) => write!(f, "{id} is not registered"),
            ServeError::TenantOutOfRange {
                cache,
                tenant,
                tenants,
            } => write!(
                f,
                "tenant {tenant} out of range for {cache} ({tenants} tenants)"
            ),
            ServeError::Plan { cache, source } => write!(f, "planning {cache} failed: {source}"),
            ServeError::Quarantined(id) => {
                write!(f, "{id} is quarantined after a planner panic")
            }
            ServeError::Misrouted { cache, shard } => {
                write!(
                    f,
                    "{cache} belongs to global shard {shard}, not this member"
                )
            }
            ServeError::DuplicateCache(id) => {
                write!(f, "{id} is already registered with a different spec")
            }
            ServeError::ClusterMint => {
                write!(f, "cluster members cannot mint ids; use RegisterAt")
            }
        }
    }
}

impl Error for ServeError {
    fn source(&self) -> Option<&(dyn Error + 'static)> {
        match self {
            ServeError::Plan { source, .. } => Some(source),
            _ => None,
        }
    }
}

/// What one [`run_epoch`](ReconfigService::run_epoch) call did.
///
/// Caches are listed in ascending [`CacheId`] order in every field —
/// deterministic regardless of submission interleaving, queue layout, or
/// (for the sharded service) which shard each cache landed on.
#[derive(Debug, Clone, PartialEq)]
pub struct EpochReport {
    /// The epoch number (monotone from 1 per service).
    pub epoch: u64,
    /// Caches whose new plans were published this epoch.
    pub planned: Vec<CacheId>,
    /// Dirty caches skipped because at least one tenant has not yet
    /// submitted a curve; they re-queue on the next submission.
    pub deferred: Vec<CacheId>,
    /// Caches whose replanning failed, with the error.
    pub failed: Vec<(CacheId, ServeError)>,
    /// Caches quarantined this epoch: their planner panicked. The panic
    /// is contained to the cache — its last-good snapshot keeps serving,
    /// and every other cache plans normally.
    pub quarantined: Vec<CacheId>,
    /// Dirty caches left in the queue for the next epoch (batch overflow).
    pub remaining_dirty: usize,
}

impl EpochReport {
    /// Whether the epoch had nothing at all to do.
    pub fn is_idle(&self) -> bool {
        self.planned.is_empty()
            && self.deferred.is_empty()
            && self.failed.is_empty()
            && self.quarantined.is_empty()
    }
}

/// The online reconfiguration service. See the crate docs for the
/// concurrency contract.
///
/// All methods take `&self`; the service is `Send + Sync` and is shared
/// across producer, planner, and reader threads behind an `Arc`.
///
/// Internally this is exactly one shard (`shard::Shard`) — all per-cache
/// state behind one registry lock. When ingest or planning throughput on
/// that lock becomes the bottleneck, [`ShardedReconfigService`] offers
/// the same API over N shards.
///
/// [`ShardedReconfigService`]: crate::ShardedReconfigService
#[derive(Debug)]
pub struct ReconfigService {
    shard: Shard,
    next_id: AtomicU64,
    epochs: AtomicU64,
}

impl Default for ReconfigService {
    fn default() -> Self {
        Self::new()
    }
}

impl ReconfigService {
    /// A service draining at most 64 dirty caches per epoch.
    pub fn new() -> Self {
        ReconfigService {
            shard: Shard::new(64),
            next_id: AtomicU64::new(0),
            epochs: AtomicU64::new(0),
        }
    }

    /// Caps how many dirty caches one epoch takes off the queue — planned
    /// or deferred, each counts (the batching knob: bounds planner latency
    /// and report size per epoch under a thundering herd of updates).
    ///
    /// # Panics
    ///
    /// Panics if `max_batch` is zero.
    pub fn with_max_batch(mut self, max_batch: usize) -> Self {
        self.shard.set_max_batch(max_batch);
        self
    }

    /// Registers a logical cache; returns its handle. The cache publishes
    /// no plan until every tenant has submitted at least one curve and an
    /// epoch has run.
    pub fn register(&self, spec: CacheSpec) -> CacheId {
        let id = self.next_id.fetch_add(1, Ordering::Relaxed);
        self.shard.insert(id, spec);
        CacheId(id)
    }

    /// Removes a cache and its published snapshot. In-flight planning for
    /// the cache (if any) is discarded at publication time.
    ///
    /// # Errors
    ///
    /// [`ServeError::UnknownCache`] if the id was never registered or was
    /// already removed.
    pub fn deregister(&self, id: CacheId) -> Result<(), ServeError> {
        self.shard.remove(id)
    }

    /// Stores tenant `tenant`'s latest miss curve and marks the cache
    /// dirty (queued for the next epoch). Submitting repeatedly between
    /// epochs is fine — the epoch plans the latest curves once.
    ///
    /// # Errors
    ///
    /// [`ServeError::UnknownCache`] / [`ServeError::TenantOutOfRange`].
    pub fn submit(&self, id: CacheId, tenant: usize, curve: MissCurve) -> Result<(), ServeError> {
        self.shard.submit(id, tenant, curve)
    }

    /// Pulls one update from a [`CurveSource`] and submits it. Returns
    /// `Ok(false)` (without marking anything dirty) once the source is
    /// exhausted.
    ///
    /// # Errors
    ///
    /// Same as [`submit`](ReconfigService::submit).
    pub fn submit_from(
        &self,
        id: CacheId,
        tenant: usize,
        source: &mut dyn CurveSource,
    ) -> Result<bool, ServeError> {
        match source.next_curve() {
            Some(curve) => self.submit(id, tenant, curve).map(|_| true),
            None => Ok(false),
        }
    }

    /// Drains up to `max` pending updates from a [`CurveSource`] and
    /// submits only the newest — the backlog-coalescing ingest path
    /// (`CurveSource::next_curves` is the batching seam). A tenant that
    /// fell behind — a stalled producer, a replay catching up — hands its
    /// whole backlog over in one call; since an epoch plans only the
    /// latest curve per tenant anyway, the stale updates are dropped here
    /// instead of being submitted one by one. Returns how many updates
    /// were drained (0 means the source was exhausted and nothing was
    /// submitted).
    ///
    /// This is for *finite* backlogs (replays, queues). An infinite
    /// source such as a live `MonitorSource` always produces exactly
    /// `max` curves — each a full monitoring interval of work — so
    /// draining it here would burn `max − 1` intervals to discard them;
    /// use [`submit_from`](ReconfigService::submit_from) for live
    /// monitors.
    ///
    /// # Errors
    ///
    /// Same as [`submit`](ReconfigService::submit).
    pub fn submit_latest(
        &self,
        id: CacheId,
        tenant: usize,
        source: &mut dyn CurveSource,
        max: usize,
    ) -> Result<usize, ServeError> {
        let mut curves = source.next_curves(max);
        let drained = curves.len();
        if let Some(curve) = curves.pop() {
            self.submit(id, tenant, curve)?;
        }
        Ok(drained)
    }

    /// The latest published plan for `id`, if any epoch has planned it.
    ///
    /// This is the reader hot path: a read-lock held for one `Arc` clone.
    pub fn snapshot(&self, id: CacheId) -> Option<Arc<PlanSnapshot>> {
        self.shard.snapshot(id)
    }

    /// Epochs run so far.
    pub fn epochs(&self) -> u64 {
        self.epochs.load(Ordering::Relaxed)
    }

    /// Dirty caches currently queued.
    pub fn pending(&self) -> usize {
        self.shard.pending()
    }

    /// Registered caches.
    pub fn registered(&self) -> usize {
        self.shard.registered()
    }

    /// Ids of quarantined caches, ascending. A cache is quarantined when
    /// its planner panics during an epoch; see [`ServeError::Quarantined`].
    pub fn quarantined(&self) -> Vec<CacheId> {
        self.shard.quarantined()
    }

    /// The plane's health snapshot: this single shard's counters plus
    /// epoch progress. `connections`/`rejected` are zero here — they are
    /// filled in by an RPC front-end, if one is serving this plane.
    pub fn health(&self) -> talus_core::PlaneHealth {
        let quarantined: Vec<u64> = self
            .shard
            .quarantined()
            .iter()
            .map(|id| id.value())
            .collect();
        let shard = talus_core::ShardHealth {
            caches: self.shard.registered() as u64,
            pending: self.shard.pending() as u64,
            quarantined: quarantined.len() as u64,
            state: talus_core::ShardState::Ok,
        };
        talus_core::PlaneHealth {
            epochs: self.epochs(),
            caches: shard.caches,
            pending: shard.pending,
            quarantined,
            shards: vec![shard],
            store: self.shard.store_health(),
            connections: 0,
            rejected: 0,
        }
    }

    /// Attaches a deterministic [`FaultScript`](talus_core::FaultScript):
    /// the shard consults it at the `"shard.plan"` site (key = raw cache
    /// id) before invoking the planner. Test-substrate plumbing — an
    /// empty script (or none) costs nothing on the planning path.
    pub fn with_fault_script(mut self, script: std::sync::Arc<talus_core::FaultScript>) -> Self {
        self.shard.set_fault_script(script);
        self
    }

    /// Runs one planning epoch: drain a batch of dirty caches, re-plan
    /// them through the shared [`Planner`] pipeline with **no locks
    /// held**, then publish the new snapshots in one epoch swap. The
    /// report lists caches in ascending [`CacheId`] order.
    pub fn run_epoch(&self) -> EpochReport {
        let epoch = self.epochs.fetch_add(1, Ordering::Relaxed) + 1;
        self.shard.run_epoch(epoch)
    }

    /// Runs epochs until the dirty queue is empty; returns the reports.
    /// (Deferred caches leave the queue until new data arrives, so this
    /// always terminates.)
    pub fn run_until_clean(&self) -> Vec<EpochReport> {
        let mut reports = Vec::new();
        while self.pending() > 0 {
            reports.push(self.run_epoch());
        }
        reports
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn curve(cliff_at: f64, cap: f64) -> MissCurve {
        MissCurve::from_samples(
            &[0.0, cliff_at / 2.0, cliff_at, cap],
            &[10.0, 10.0, 1.0, 1.0],
        )
        .unwrap()
    }

    fn service_is_send_sync<T: Send + Sync>() {}

    #[test]
    fn shareable_across_threads() {
        service_is_send_sync::<ReconfigService>();
    }

    #[test]
    fn snapshot_absent_until_first_epoch() {
        let s = ReconfigService::new();
        let id = s.register(CacheSpec::new(1024, 1));
        assert!(s.snapshot(id).is_none());
        s.submit(id, 0, curve(512.0, 1024.0)).unwrap();
        assert!(s.snapshot(id).is_none(), "submit alone publishes nothing");
        s.run_epoch();
        assert_eq!(s.snapshot(id).unwrap().version, 1);
    }

    #[test]
    fn missing_tenant_defers_until_data_arrives() {
        let s = ReconfigService::new();
        let id = s.register(CacheSpec::new(1024, 2));
        s.submit(id, 0, curve(512.0, 1024.0)).unwrap();
        let report = s.run_epoch();
        assert_eq!(report.deferred, vec![id]);
        assert!(report.planned.is_empty());
        assert!(s.snapshot(id).is_none());
        assert_eq!(s.pending(), 0, "deferred caches leave the queue");
        // The straggler reports: the cache re-queues and plans.
        s.submit(id, 1, curve(256.0, 1024.0)).unwrap();
        let report = s.run_epoch();
        assert_eq!(report.planned, vec![id]);
    }

    #[test]
    fn batching_bounds_epoch_work_fifo() {
        let s = ReconfigService::new().with_max_batch(2);
        let ids: Vec<CacheId> = (0..5)
            .map(|_| {
                let id = s.register(CacheSpec::new(1024, 1));
                s.submit(id, 0, curve(512.0, 1024.0)).unwrap();
                id
            })
            .collect();
        let r1 = s.run_epoch();
        assert_eq!(r1.planned, vec![ids[0], ids[1]]);
        assert_eq!(r1.remaining_dirty, 3);
        let r2 = s.run_epoch();
        assert_eq!(r2.planned, vec![ids[2], ids[3]]);
        let r3 = s.run_epoch();
        assert_eq!(r3.planned, vec![ids[4]]);
        assert!(s.run_epoch().is_idle());
        assert_eq!(s.epochs(), 4);
    }

    #[test]
    fn epoch_report_is_in_cache_id_order_not_queue_order() {
        let s = ReconfigService::new();
        let ids: Vec<CacheId> = (0..4)
            .map(|_| s.register(CacheSpec::new(1024, 1)))
            .collect();
        // Dirty the queue in reverse registration order; the report must
        // come back ascending anyway.
        for id in ids.iter().rev() {
            s.submit(*id, 0, curve(512.0, 1024.0)).unwrap();
        }
        let report = s.run_epoch();
        assert_eq!(report.planned, ids);
    }

    #[test]
    fn resubmission_between_epochs_plans_latest_curves_once() {
        let s = ReconfigService::new();
        let id = s.register(CacheSpec::new(1024, 1));
        s.submit(id, 0, curve(512.0, 1024.0)).unwrap();
        s.submit(id, 0, curve(256.0, 1024.0)).unwrap();
        assert_eq!(s.pending(), 1, "dirty flag dedups the queue");
        let report = s.run_epoch();
        assert_eq!(report.planned, vec![id]);
        let snap = s.snapshot(id).unwrap();
        assert_eq!(snap.updates, 2);
        assert_eq!(snap.version, 1);
    }

    #[test]
    fn versions_and_epochs_advance_independently() {
        let s = ReconfigService::new();
        let id = s.register(CacheSpec::new(1024, 1));
        for round in 1..=3u64 {
            // A different curve each round: resubmitting bit-identical
            // curves is a deliberate no-op (idempotent retries).
            s.submit(id, 0, curve(512.0 - 64.0 * round as f64, 1024.0))
                .unwrap();
            s.run_epoch();
            assert_eq!(s.snapshot(id).unwrap().version, round);
        }
        s.run_epoch(); // idle epoch: no new version
        assert_eq!(s.snapshot(id).unwrap().version, 3);
        assert_eq!(s.epochs(), 4);
    }

    #[test]
    fn plan_failure_is_reported_not_published() {
        let s = ReconfigService::new();
        let id = s.register(CacheSpec::new(1024, 2));
        // Tenant 1's curve starts at 512 lines: a fair split of 512 is
        // fine, but tenant 0's hill-climb-greedy curve drags tenant 1's
        // allocation below its monitored domain.
        let above_domain = MissCurve::from_samples(&[768.0, 1024.0], &[5.0, 1.0]).unwrap();
        s.submit(id, 0, curve(512.0, 1024.0)).unwrap();
        s.submit(id, 1, above_domain).unwrap();
        let report = s.run_epoch();
        assert_eq!(report.failed.len(), 1);
        assert!(matches!(
            report.failed[0].1,
            ServeError::Plan { cache, .. } if cache == id
        ));
        assert!(s.snapshot(id).is_none());
    }

    #[test]
    fn deregister_removes_registry_and_snapshot() {
        let s = ReconfigService::new();
        let id = s.register(CacheSpec::new(1024, 1));
        s.submit(id, 0, curve(512.0, 1024.0)).unwrap();
        s.run_epoch();
        assert!(s.snapshot(id).is_some());
        s.deregister(id).unwrap();
        assert!(s.snapshot(id).is_none());
        assert_eq!(s.registered(), 0);
        assert_eq!(s.deregister(id), Err(ServeError::UnknownCache(id)));
        assert_eq!(
            s.submit(id, 0, curve(512.0, 1024.0)),
            Err(ServeError::UnknownCache(id))
        );
    }

    #[test]
    fn queued_then_deregistered_cache_is_skipped() {
        let s = ReconfigService::new();
        let id = s.register(CacheSpec::new(1024, 1));
        s.submit(id, 0, curve(512.0, 1024.0)).unwrap();
        s.deregister(id).unwrap();
        let report = s.run_epoch();
        assert!(report.is_idle());
    }

    #[test]
    fn tenant_bounds_checked() {
        let s = ReconfigService::new();
        let id = s.register(CacheSpec::new(1024, 2));
        let err = s.submit(id, 2, curve(512.0, 1024.0)).unwrap_err();
        assert_eq!(
            err,
            ServeError::TenantOutOfRange {
                cache: id,
                tenant: 2,
                tenants: 2
            }
        );
        assert!(!err.to_string().is_empty());
    }

    #[test]
    fn submit_from_drains_sources() {
        use talus_core::ReplaySource;
        let s = ReconfigService::new();
        let id = s.register(CacheSpec::new(1024, 1));
        let mut src = ReplaySource::new(vec![curve(512.0, 1024.0), curve(256.0, 1024.0)]);
        assert!(s.submit_from(id, 0, &mut src).unwrap());
        assert!(s.submit_from(id, 0, &mut src).unwrap());
        assert!(!s.submit_from(id, 0, &mut src).unwrap(), "exhausted");
        let reports = s.run_until_clean();
        assert_eq!(reports.len(), 1);
        assert_eq!(s.snapshot(id).unwrap().updates, 2);
    }

    #[test]
    fn submit_latest_coalesces_a_backlog() {
        use talus_core::ReplaySource;
        let s = ReconfigService::new();
        let id = s.register(CacheSpec::new(1024, 1));
        // Three updates backlogged; only the newest (cliff at 128) should
        // reach the planner, as one accepted update.
        let mut src = ReplaySource::new(vec![
            curve(512.0, 1024.0),
            curve(256.0, 1024.0),
            curve(128.0, 1024.0),
        ]);
        assert_eq!(s.submit_latest(id, 0, &mut src, 8).unwrap(), 3);
        assert_eq!(s.pending(), 1);
        s.run_epoch();
        let snap = s.snapshot(id).unwrap();
        assert_eq!(snap.updates, 1, "stale backlog entries were dropped");
        // The published plan is the one the newest curve produces: replay
        // the same curve through the plain path on a fresh cache.
        let twin = s.register(CacheSpec::new(1024, 1));
        s.submit(twin, 0, curve(128.0, 1024.0)).unwrap();
        s.run_epoch();
        assert_eq!(s.snapshot(twin).unwrap().plan, s.snapshot(id).unwrap().plan);
        // Exhausted source: nothing drained, nothing queued.
        assert_eq!(s.submit_latest(id, 0, &mut src, 8).unwrap(), 0);
        assert_eq!(s.pending(), 0);
    }

    #[test]
    fn ids_are_never_reused() {
        let s = ReconfigService::new();
        let a = s.register(CacheSpec::new(1024, 1));
        s.deregister(a).unwrap();
        let b = s.register(CacheSpec::new(1024, 1));
        assert_ne!(a, b);
    }
}
