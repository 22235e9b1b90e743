//! The plane's API types: errors and epoch reports — what
//! [`ShardedReconfigService`](crate::ShardedReconfigService) takes and
//! returns, and what crosses the wire for it. The tests here pin what
//! those types promise (when a cache is `deferred`, `failed`, left in
//! `remaining_dirty`; which [`ServeError`] each misuse earns) on
//! `ShardedReconfigService::new(1)`, the single-lock configuration.

use std::error::Error;
use std::fmt;

use crate::snapshot::CacheId;
use talus_core::PlanError;

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
    /// This client-minted id is not available: a cache already exists
    /// under it with a *different* spec (re-registering an identical
    /// spec is an idempotent no-op, so retried registrations never hit
    /// this), or it is the reserved top id, `u64::MAX`.
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
                write!(
                    f,
                    "{id} is taken: registered with a different spec, or the reserved top id"
                )
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

/// What one [`run_epoch`](crate::ShardedReconfigService::run_epoch) call
/// did.
///
/// Caches are listed in ascending [`CacheId`] order in every field —
/// deterministic regardless of submission interleaving, queue layout, or
/// which shard each cache landed on.
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

#[cfg(test)]
mod tests {
    use super::*;
    use crate::router::ShardedReconfigService;
    use talus_core::MissCurve;
    use talus_partition::CacheSpec;

    fn curve(cliff_at: f64, cap: f64) -> MissCurve {
        MissCurve::from_samples(
            &[0.0, cliff_at / 2.0, cliff_at, cap],
            &[10.0, 10.0, 1.0, 1.0],
        )
        .unwrap()
    }

    #[test]
    fn snapshot_absent_until_first_epoch() {
        let s = ShardedReconfigService::new(1);
        let id = s.register(CacheSpec::new(1024, 1));
        assert!(s.snapshot(id).is_none());
        s.submit(id, 0, curve(512.0, 1024.0)).unwrap();
        assert!(s.snapshot(id).is_none(), "submit alone publishes nothing");
        s.run_epoch();
        assert_eq!(s.snapshot(id).unwrap().version, 1);
    }

    #[test]
    fn missing_tenant_defers_until_data_arrives() {
        let s = ShardedReconfigService::new(1);
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
        let s = ShardedReconfigService::new(1).with_max_batch(2);
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
    fn resubmission_between_epochs_plans_latest_curves_once() {
        let s = ShardedReconfigService::new(1);
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
        let s = ShardedReconfigService::new(1);
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
        let s = ShardedReconfigService::new(1);
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
    fn queued_then_deregistered_cache_is_skipped() {
        let s = ShardedReconfigService::new(1);
        let id = s.register(CacheSpec::new(1024, 1));
        s.submit(id, 0, curve(512.0, 1024.0)).unwrap();
        s.deregister(id).unwrap();
        let report = s.run_epoch();
        assert!(report.is_idle());
    }

    #[test]
    fn tenant_bounds_checked() {
        let s = ShardedReconfigService::new(1);
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
    fn submit_latest_one_at_a_time_drains_sources() {
        use talus_core::ReplaySource;
        let s = ShardedReconfigService::new(1);
        let id = s.register(CacheSpec::new(1024, 1));
        let mut src = ReplaySource::new(vec![curve(512.0, 1024.0), curve(256.0, 1024.0)]);
        assert_eq!(s.submit_latest(id, 0, &mut src, 1), Ok(1));
        assert_eq!(s.submit_latest(id, 0, &mut src, 1), Ok(1));
        assert_eq!(s.submit_latest(id, 0, &mut src, 1), Ok(0), "exhausted");
        let reports = s.run_until_clean();
        assert_eq!(reports.len(), 1);
        assert_eq!(s.snapshot(id).unwrap().updates, 2);
    }

    #[test]
    fn submit_latest_coalesces_a_backlog() {
        use talus_core::ReplaySource;
        let s = ShardedReconfigService::new(1);
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
        let s = ShardedReconfigService::new(1);
        let a = s.register(CacheSpec::new(1024, 1));
        s.deregister(a).unwrap();
        let b = s.register(CacheSpec::new(1024, 1));
        assert_ne!(a, b);
    }
}
