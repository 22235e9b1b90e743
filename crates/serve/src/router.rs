//! The reconfiguration plane: N [`Shard`]s behind a hash router.
//!
//! [`ShardedReconfigService`] is the one in-process plane — `register`,
//! `deregister`, `submit`, `submit_latest`, `snapshot`,
//! `run_epoch`, `run_until_clean` — with per-cache state spread across N
//! independent shards selected by `mix64(cache_id) % N` (`new(1)` is the
//! single-lock configuration). Caches never share state, so
//! sharding needs no cross-shard coordination: a submission touches one
//! shard's lock, producers for caches on different shards never contend,
//! and each shard plans its own epoch batch. An epoch runs every shard's
//! batch on the calling thread, in shard order; a host's cores are used
//! by running cluster members, not by threads inside one plane.
//!
//! Plan equivalence is the contract: for any submission sequence, the
//! plan published for a cache is the offline planner's
//! (`tests/plan_equivalence.rs`) and identical for every shard count
//! (`tests/sharding.rs`) — the router adds *placement*, never *policy*.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use crate::service::{EpochReport, ServeError};
use crate::shard::Shard;
use crate::snapshot::{CacheId, PlanSnapshot, RESERVED_ID};
use talus_core::limits::WIRE_MAX_EPOCH_IDS;
use talus_core::{
    CurveSource, FaultScript, MissCurve, PlaneHealth, ShardHealth, ShardTopology, StoreHealth,
};
use talus_partition::CacheSpec;
use talus_store::{Record, Store, StoreError, StoreSink};

/// A shard's epoch batch when none is configured.
const DEFAULT_MAX_BATCH: usize = 64;

/// Most queue entries each shard of a `shards`-shard plane may drain per
/// epoch: an even share of [`WIRE_MAX_EPOCH_IDS`], so the merged report
/// of any epoch fits one `Epoch` reply (and every shard's cut fits its
/// journal record) however large a batch the caller asked for. At least
/// 1: [`ShardedReconfigService::new`] refuses more shards than that.
fn epoch_batch_cap(shards: usize) -> usize {
    WIRE_MAX_EPOCH_IDS as usize / shards
}

/// The online reconfiguration service: N independent single-lock shards
/// behind a `mix64(cache_id)`-hash router. The published plans are the
/// same for every N (property-tested); ingest and epoch planning scale
/// across shards. See the crate docs for the concurrency contract.
///
/// All methods take `&self`; the service is `Send + Sync` and is shared
/// across producer, planner, and reader threads behind an `Arc`.
///
/// ```
/// use talus_core::MissCurve;
/// use talus_serve::{CacheSpec, ShardedReconfigService};
///
/// let service = ShardedReconfigService::new(4);
/// let cache = service.register(CacheSpec::new(1024, 2));
///
/// let cliff = MissCurve::from_samples(&[0.0, 512.0, 1024.0], &[10.0, 10.0, 1.0])?;
/// let gentle = MissCurve::from_samples(&[0.0, 512.0, 1024.0], &[4.0, 2.0, 1.5])?;
/// service.submit(cache, 0, cliff)?;
/// service.submit(cache, 1, gentle)?;
///
/// let report = service.run_epoch();
/// assert_eq!(report.planned, vec![cache]);
/// let snap = service.snapshot(cache).expect("published");
/// assert_eq!(snap.plan.allocations().iter().sum::<u64>(), 1024);
/// # Ok::<(), Box<dyn std::error::Error>>(())
/// ```
#[derive(Debug)]
pub struct ShardedReconfigService {
    shards: Vec<Shard>,
    /// Which slice of the global shard layout these local shards are.
    /// [`ShardTopology::solo`] (the default) makes local == global; a
    /// cluster member owns a sub-range and bounces misrouted ids.
    topology: ShardTopology,
    next_id: AtomicU64,
    epochs: AtomicU64,
    /// The journal sink shared by every shard, retained for health
    /// reporting (`None` = ephemeral plane).
    sink: Option<Arc<dyn StoreSink>>,
}

impl ShardedReconfigService {
    /// A plane of `shards` shards, each draining at most 64 dirty caches
    /// per epoch (see [`with_max_batch`](Self::with_max_batch) — fewer
    /// above 256 shards, where 64 is more than a shard's share of
    /// [`WIRE_MAX_EPOCH_IDS`]), with epochs run on the calling thread.
    ///
    /// Shard count is a capacity knob, not a semantic one: plans are
    /// identical for every value. More shards mean less registry-lock
    /// contention between producers (see ARCHITECTURE.md §L5); `new(1)`
    /// keeps all per-cache state behind one registry lock.
    ///
    /// # Panics
    ///
    /// Panics if `shards` is zero, or more than [`WIRE_MAX_EPOCH_IDS`]:
    /// an epoch drains at least one entry a shard, and its report must
    /// fit one `Epoch` reply.
    pub fn new(shards: usize) -> Self {
        assert!(shards > 0, "need at least one shard");
        assert!(
            shards <= WIRE_MAX_EPOCH_IDS as usize,
            "at most {WIRE_MAX_EPOCH_IDS} shards"
        );
        let batch = DEFAULT_MAX_BATCH.min(epoch_batch_cap(shards));
        ShardedReconfigService {
            shards: (0..shards).map(|_| Shard::new(batch)).collect(),
            topology: ShardTopology::solo(shards),
            next_id: AtomicU64::new(0),
            epochs: AtomicU64::new(0),
            sink: None,
        }
    }

    /// Declares this plane a cluster member owning `topology`'s shard
    /// range: local shard `i` is global shard `topology.first() + i`,
    /// and operations on ids whose canonical placement
    /// (`shard_of(id, topology.total())`) falls outside the range are
    /// bounced with [`ServeError::Misrouted`]. The default is
    /// [`ShardTopology::solo`] — every shard local, nothing bounced.
    ///
    /// Configure first (before sinks, fault scripts and restore): the
    /// topology changes placement, so everything journaled or registered
    /// must already live under it.
    ///
    /// # Panics
    ///
    /// Panics if `topology.count()` differs from the plane's shard
    /// count, if the plane already has state, or if a sink is attached.
    pub fn with_topology(mut self, topology: ShardTopology) -> Self {
        assert!(self.sink.is_none(), "set the topology before the sink");
        assert_eq!(
            topology.count(),
            self.shards.len(),
            "topology range must match the plane's shard count"
        );
        assert!(
            self.registered() == 0 && self.epochs.load(Ordering::Relaxed) == 0,
            "set the topology on a fresh plane"
        );
        self.topology = topology;
        self
    }

    /// Caps how many dirty-queue entries each **shard** drains per epoch
    /// (so a plane of N shards replans at most `N × max_batch` caches per
    /// epoch, and its report lists at most that many). Every entry taken
    /// off the queue counts — a cache deferred for a missing tenant as
    /// much as one that plans; what is left waits for the next epoch and
    /// is counted in [`EpochReport::remaining_dirty`].
    ///
    /// The cap is itself capped at an even share of
    /// [`WIRE_MAX_EPOCH_IDS`]: one epoch's report always fits the one
    /// `Epoch` reply an [`RpcServer`](crate::RpcServer) sends for it, so a
    /// client loops on `remaining_dirty` instead of ever receiving a
    /// frame it must refuse.
    ///
    /// # Panics
    ///
    /// Panics if `max_batch` is zero.
    pub fn with_max_batch(mut self, max_batch: usize) -> Self {
        let max_batch = max_batch.min(epoch_batch_cap(self.shards.len()));
        for shard in &mut self.shards {
            shard.set_max_batch(max_batch);
        }
        self
    }

    /// Attaches a journal sink: from now on every register, deregister,
    /// curve submission, epoch cut, and published plan is appended to the
    /// sink, under the owning shard's registry lock, in the exact order
    /// it takes effect. Shard `i` of the plane journals into shard `i` of
    /// the sink — the layouts must match (both use
    /// [`talus_core::shard_of`]).
    ///
    /// Attach the sink to a fresh plane (or right after
    /// [`restore`](ShardedReconfigService::restore) on the same store):
    /// events that happened before attachment are invisible to a later
    /// restore.
    ///
    /// # Panics
    ///
    /// Panics if `sink.shards()` or `sink.topology()` differs from the
    /// plane's.
    pub fn with_sink(mut self, sink: Arc<dyn StoreSink>) -> Self {
        assert_eq!(
            sink.shards(),
            self.shards.len(),
            "sink shard layout must match the plane"
        );
        assert_eq!(
            sink.topology(),
            self.topology,
            "sink topology slice must match the plane"
        );
        for (i, shard) in self.shards.iter_mut().enumerate() {
            shard.set_sink(i, Arc::clone(&sink));
        }
        self.sink = Some(sink);
        self
    }

    /// Attaches a deterministic [`FaultScript`]: shards consult it at
    /// `"shard.plan"` (key = raw cache id) inside their planner panic
    /// containment. Test-substrate plumbing.
    pub fn with_fault_script(mut self, script: Arc<FaultScript>) -> Self {
        for shard in &mut self.shards {
            shard.set_fault_script(Arc::clone(&script));
        }
        self
    }

    /// Number of local shards (the plane's own; for a cluster member
    /// this is its owned range, not the global total).
    pub fn shards(&self) -> usize {
        self.shards.len()
    }

    /// This plane's slice of the global shard layout.
    pub fn topology(&self) -> ShardTopology {
        self.topology
    }

    /// The smallest id this plane has never minted or restored — what a
    /// cluster member advertises so a client can seed its own mint.
    pub fn next_id_hint(&self) -> u64 {
        self.next_id.load(Ordering::Relaxed)
    }

    /// The **global** shard index `id` routes to:
    /// [`talus_core::shard_of`]`(id, topology.total())`. Stable for a
    /// given total and shared with `talus-store`'s journal layout;
    /// exposed for observability (logs, dashboards). For the default
    /// solo topology this is also the local shard index.
    pub fn shard_index(&self, id: CacheId) -> usize {
        self.topology.global_shard(id.value())
    }

    /// The index of the local shard owning `id`, or
    /// [`ServeError::Misrouted`] naming the owning global shard when it
    /// lives on another cluster member.
    fn try_local_shard(&self, id: CacheId) -> Result<usize, ServeError> {
        self.topology
            .local_shard(id.value())
            .ok_or_else(|| ServeError::Misrouted {
                cache: id,
                shard: self.topology.global_shard(id.value()),
            })
    }

    /// The local shard owning `id`; see
    /// [`try_local_shard`](ShardedReconfigService::try_local_shard).
    fn try_shard_of(&self, id: CacheId) -> Result<&Shard, ServeError> {
        Ok(&self.shards[self.try_local_shard(id)?])
    }

    /// Registers a logical cache; returns its handle. Ids are allocated
    /// from one plane-wide counter (never reused), then routed to a shard
    /// by hash. An id a [`register_with_id`] caller already holds is
    /// skipped, never replaced, and so is the reserved top id — the
    /// counter wraps past it instead of overflowing. The cache publishes
    /// no plan until every tenant has submitted at least one curve and
    /// an epoch has run.
    ///
    /// # Panics
    ///
    /// Panics under a non-solo topology: a cluster member owns only a
    /// slice of the id space, so minting must happen at the cluster
    /// client ([`register_with_id`] is the member-side entry; the RPC
    /// server turns a stray `Register` into
    /// [`ServeError::ClusterMint`] before reaching this).
    ///
    /// [`register_with_id`]: ShardedReconfigService::register_with_id
    pub fn register(&self, spec: CacheSpec) -> CacheId {
        assert!(
            self.topology.is_solo(),
            "cluster members cannot mint ids; use register_with_id"
        );
        loop {
            let id = self.next_id.fetch_add(1, Ordering::Relaxed);
            // Solo topology: local == global, every id owned.
            let shard = &self.shards[self.topology.global_shard(id)];
            if id != RESERVED_ID && shard.insert(id, spec).is_ok() {
                return CacheId(id);
            }
        }
    }

    /// Registers a logical cache under a caller-minted id — the cluster
    /// registration path, where the client mints ids and each member
    /// accepts only the ones its topology slice owns. Idempotent:
    /// re-registering an id with an identical spec succeeds without
    /// effect (nothing re-journaled), so a client retrying a
    /// registration whose reply was lost converges instead of erroring.
    ///
    /// # Errors
    ///
    /// - [`ServeError::Misrouted`] — `id`'s canonical shard is owned by
    ///   another member (names the owning global shard).
    /// - [`ServeError::DuplicateCache`] — `id` exists with a different
    ///   spec, or is the reserved top id (`u64::MAX`), which no cache
    ///   may hold: the mint hint below is "largest id accepted, plus
    ///   one".
    pub fn register_with_id(&self, id: CacheId, spec: CacheSpec) -> Result<CacheId, ServeError> {
        if id.value() == RESERVED_ID {
            return Err(ServeError::DuplicateCache(id));
        }
        // Taken under the same spec is a retry of a registration that
        // already landed; under another, a conflict.
        let shard = self.try_shard_of(id)?;
        if shard
            .insert(id.value(), spec)
            .is_err_and(|live| live != spec)
        {
            return Err(ServeError::DuplicateCache(id));
        }
        // Keep the mint hint monotone past every id ever accepted, so a
        // restored or restarted member advertises a safe floor.
        self.next_id.fetch_max(id.value() + 1, Ordering::Relaxed);
        Ok(id)
    }

    /// Removes a cache and its published snapshot. In-flight planning for
    /// the cache (if any) is discarded at publication time.
    ///
    /// # Errors
    ///
    /// [`ServeError::UnknownCache`] if the id was never registered or was
    /// already removed; [`ServeError::Misrouted`] if another cluster
    /// member owns it.
    pub fn deregister(&self, id: CacheId) -> Result<(), ServeError> {
        self.try_shard_of(id)?.remove(id)
    }

    /// Stores tenant `tenant`'s latest miss curve and marks the cache
    /// dirty on its shard. Only that one shard's lock is taken: producers
    /// feeding caches on different shards never contend.
    ///
    /// # Errors
    ///
    /// [`ServeError::UnknownCache`] / [`ServeError::TenantOutOfRange`] /
    /// [`ServeError::Misrouted`].
    pub fn submit(&self, id: CacheId, tenant: usize, curve: MissCurve) -> Result<(), ServeError> {
        self.try_shard_of(id)?.submit(id, tenant, curve)
    }

    /// Submits a batch of `(cache, tenant, curve)` entries; result `i` is
    /// entry `i`'s. The batch is grouped by shard and each group is
    /// applied in entry order under **one** hold of that shard's lock —
    /// with a journal attached, one write per shard touched instead of
    /// one per curve. Outcomes, plane state, and each shard's journal are
    /// exactly those of calling [`submit`] on the entries one by one
    /// (caches never share state, so only the interleaving *across*
    /// shards differs, and nothing depends on it).
    ///
    /// Per-entry errors are the same as [`submit`]'s; a failed entry does
    /// not stop the ones after it.
    ///
    /// [`submit`]: ShardedReconfigService::submit
    pub fn submit_many(
        &self,
        entries: impl IntoIterator<Item = (CacheId, usize, MissCurve)>,
    ) -> Vec<Result<(), ServeError>> {
        let mut groups: Vec<Vec<_>> = self.shards.iter().map(|_| Vec::new()).collect();
        let mut results = Vec::new();
        for (position, (id, tenant, curve)) in entries.into_iter().enumerate() {
            results.push(
                self.try_local_shard(id)
                    .map(|local| groups[local].push((position, id, tenant, curve))),
            );
        }
        for (shard, group) in self.shards.iter().zip(groups) {
            if !group.is_empty() {
                shard.submit_many(group, &mut results);
            }
        }
        results
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
    /// draining it here would burn `max − 1` intervals to discard them:
    /// call it with `max = 1` for live monitors, one curve a call.
    ///
    /// # Errors
    ///
    /// Same as [`submit`](ShardedReconfigService::submit).
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
    /// The reader hot path: one shard's read-lock held for one `Arc`
    /// clone. `None` for unpublished *and* for ids owned by another
    /// cluster member (a member can only answer for its own slice).
    pub fn snapshot(&self, id: CacheId) -> Option<Arc<PlanSnapshot>> {
        self.try_shard_of(id).ok()?.snapshot(id)
    }

    /// Epochs run so far (plane-wide: one `run_epoch` call is one epoch,
    /// whichever shards it touched).
    pub fn epochs(&self) -> u64 {
        self.epochs.load(Ordering::Relaxed)
    }

    /// Dirty caches currently queued, summed across shards.
    pub fn pending(&self) -> usize {
        self.shards.iter().map(|s| s.pending()).sum()
    }

    /// Registered caches, summed across shards.
    pub fn registered(&self) -> usize {
        self.shards.iter().map(|s| s.registered()).sum()
    }

    /// Ids of quarantined caches across the plane, ascending. A cache is
    /// quarantined when its planner panics during an epoch; see
    /// [`ServeError::Quarantined`].
    pub fn quarantined(&self) -> Vec<CacheId> {
        let mut ids: Vec<CacheId> = self.shards.iter().flat_map(|s| s.quarantined()).collect();
        ids.sort_unstable();
        ids
    }

    /// The plane's health snapshot: per-shard counts, quarantined
    /// caches, epoch progress, and the journal fault state. `connections`/`rejected` are zero
    /// here — they are filled in by an RPC front-end, if one is serving
    /// this plane.
    pub fn health(&self) -> PlaneHealth {
        let mut quarantined: Vec<u64> = Vec::new();
        let mut shard_reports = Vec::with_capacity(self.shards.len());
        for shard in &self.shards {
            let ids = shard.quarantined();
            shard_reports.push(ShardHealth {
                caches: shard.registered() as u64,
                pending: shard.pending() as u64,
                quarantined: ids.len() as u64,
            });
            quarantined.extend(ids.iter().map(|id| id.value()));
        }
        quarantined.sort_unstable();
        PlaneHealth {
            epochs: self.epochs(),
            caches: shard_reports.iter().map(|s| s.caches).sum(),
            pending: shard_reports.iter().map(|s| s.pending).sum(),
            quarantined,
            shards: shard_reports,
            store: match &self.sink {
                None => StoreHealth::None,
                Some(sink) if sink.is_faulted() => StoreHealth::Faulted,
                Some(_) => StoreHealth::Ok,
            },
            connections: 0,
            rejected: 0,
        }
    }

    /// Handles for every registered cache, in ascending id order. The
    /// recovery companion to [`restore`](ShardedReconfigService::restore):
    /// a restarted process has no [`CacheId`]s (they lived in the dead
    /// process), so after a warm restart this is how callers re-acquire
    /// them. Also useful for observability sweeps.
    pub fn cache_ids(&self) -> Vec<CacheId> {
        let mut ids: Vec<CacheId> = self
            .shards
            .iter()
            .flat_map(|s| s.ids())
            .map(CacheId)
            .collect();
        ids.sort_unstable();
        ids
    }

    /// Runs one planning epoch on **every** shard, in shard order on
    /// this thread, and merges the per-shard results into one report.
    /// Each shard drains up to its own `max_batch` (per-shard epoch
    /// batching), and the merged report lists caches in ascending
    /// [`CacheId`] order regardless of shard layout.
    pub fn run_epoch(&self) -> EpochReport {
        let epoch = self.epochs.fetch_add(1, Ordering::Relaxed) + 1;
        let reports = self.shards.iter().map(|s| s.run_epoch(epoch)).collect();
        merge_reports(epoch, reports)
    }

    /// Runs epochs until every shard's dirty queue is empty; returns the
    /// merged reports. (Deferred caches leave their queue until new data
    /// arrives, so this always terminates.)
    pub fn run_until_clean(&self) -> Vec<EpochReport> {
        let mut reports = Vec::new();
        while self.pending() > 0 {
            reports.push(self.run_epoch());
        }
        reports
    }

    /// Warm-restarts this plane from a journal: replays every shard file
    /// — register, deregister and curve records through the live
    /// `register`/`deregister`/`submit` transitions themselves — so the
    /// restored plane has the registered caches, latest curves, dirty
    /// queues (in order), published snapshots, id allocator, and epoch
    /// counter the journaling plane had when its last record landed —
    /// bit-for-bit (property-tested in `tests/restore_equivalence.rs`).
    ///
    /// Call on a **fresh** plane whose shard count matches the store's,
    /// *before* [`with_sink`](ShardedReconfigService::with_sink); then
    /// attach the same store as the sink so new events append after the
    /// recovered history:
    ///
    /// ```no_run
    /// use std::sync::Arc;
    /// use talus_serve::ShardedReconfigService;
    /// use talus_store::Store;
    ///
    /// let store = Arc::new(Store::open("journal-dir", 4)?);
    /// let plane = ShardedReconfigService::new(4);
    /// let summary = plane.restore(&store)?;
    /// println!("restored {} caches, {} snapshots", summary.caches, summary.snapshots);
    /// let plane = plane.with_sink(store);
    /// # Ok::<(), Box<dyn std::error::Error>>(())
    /// ```
    ///
    /// Each shard file is streamed through one fixed window
    /// ([`Store::stream_shard`]), so a restore costs memory for the state
    /// it rebuilds, not for the history it replays.
    /// Torn tails were already truncated when the store was opened;
    /// a crash between a shard's epoch cut and its plan records loses at
    /// most those plans — the affected caches re-plan on their next curve
    /// (even a resend of the same one), exactly like an epoch that failed
    /// mid-publish.
    ///
    /// # Errors
    ///
    /// - [`RestoreError::ShardMismatch`] — store and plane layouts differ.
    /// - [`RestoreError::NotFresh`] — this plane already has state, or
    ///   already has a sink (the live transitions replay goes through
    ///   would journal the journal's own records into it again).
    /// - [`RestoreError::Store`] — a shard file could not be read (the
    ///   replay stops at the failed read; it is never taken for the end
    ///   of the journal). The plane is left partially restored and
    ///   should be discarded.
    /// - [`RestoreError::Corrupt`] — a record encodes a transition the
    ///   live service could never have journaled (wrong shard, unknown
    ///   cache, queue mismatch). The plane is left partially restored
    ///   and should be discarded.
    pub fn restore(&self, store: &Store) -> Result<RestoreSummary, RestoreError> {
        let n = self.shards.len();
        if store.shards() != n {
            return Err(RestoreError::ShardMismatch {
                store: store.shards(),
                plane: n,
            });
        }
        if self.sink.is_some()
            || self.next_id.load(Ordering::Relaxed) != 0
            || self.epochs.load(Ordering::Relaxed) != 0
            || self.registered() > 0
        {
            return Err(RestoreError::NotFresh);
        }
        let mut summary = RestoreSummary::default();
        let mut max_id: Option<u64> = None;
        for (i, shard) in self.shards.iter().enumerate() {
            // Records are applied as they decode, off the stream's one
            // window: neither the shard's file nor its history is ever
            // held in memory as a whole.
            let mut records = store.stream_shard(i).map_err(RestoreError::Store)?;
            for rec in records.by_ref() {
                let rec = rec.map_err(RestoreError::Store)?;
                let seq = rec.seq();
                let corrupt = |what: &'static str| RestoreError::Corrupt {
                    shard: i,
                    seq,
                    what,
                };
                match rec {
                    Record::Register { id, spec, .. } => {
                        if self.topology.local_shard(id) != Some(i) {
                            return Err(corrupt("register routed to the wrong shard"));
                        }
                        if id == RESERVED_ID {
                            return Err(corrupt("register of the reserved id"));
                        }
                        max_id = max_id.max(Some(id));
                        if shard.insert(id, spec).is_err() {
                            return Err(corrupt("register of an already-registered id"));
                        }
                    }
                    Record::Deregister { id, .. } => {
                        if shard.remove(CacheId(id)).is_err() {
                            return Err(corrupt("deregister of an unknown cache"));
                        }
                    }
                    Record::Curve {
                        id, tenant, curve, ..
                    } => {
                        if shard.submit(CacheId(id), tenant as usize, curve).is_err() {
                            return Err(corrupt("curve for an unknown cache or tenant"));
                        }
                    }
                    Record::EpochCut {
                        shard: s,
                        epoch,
                        drained,
                        ..
                    } => {
                        if s as usize != i {
                            return Err(corrupt("epoch cut stamped for a different shard"));
                        }
                        summary.epochs = summary.epochs.max(epoch);
                        if !shard.restore_cut(&drained) {
                            return Err(corrupt("epoch cut disagrees with the dirty queue"));
                        }
                    }
                    Record::Plan {
                        id,
                        epoch,
                        version,
                        updates,
                        plan,
                        ..
                    } => {
                        summary.epochs = summary.epochs.max(epoch);
                        let snap = PlanSnapshot {
                            cache: CacheId(id),
                            epoch,
                            version,
                            updates,
                            plan,
                        };
                        if !shard.restore_plan(snap) {
                            return Err(corrupt("plan for an unknown cache"));
                        }
                    }
                }
                summary.records += 1;
            }
            if records.tail().is_some() {
                summary.torn_shards += 1;
            }
        }
        self.next_id
            .store(max_id.map_or(0, |m| m + 1), Ordering::Relaxed);
        self.epochs.store(summary.epochs, Ordering::Relaxed);
        summary.caches = self.registered();
        summary.snapshots = self.shards.iter().map(|s| s.snapshots()).sum();
        Ok(summary)
    }
}

/// What [`ShardedReconfigService::restore`] rebuilt.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct RestoreSummary {
    /// Journal records applied across all shards.
    pub records: usize,
    /// Caches live (registered and not deregistered) after the replay.
    pub caches: usize,
    /// Plan snapshots republished.
    pub snapshots: usize,
    /// The recovered plane-wide epoch counter (largest epoch journaled).
    pub epochs: u64,
    /// Shards whose journal ended in a torn tail that was dropped.
    pub torn_shards: usize,
}

/// Why [`ShardedReconfigService::restore`] refused or failed.
#[derive(Debug, Clone, PartialEq)]
pub enum RestoreError {
    /// The store's shard layout differs from the plane's; records cannot
    /// be re-routed (placement is `shard_of(id, n)` for both).
    ShardMismatch {
        /// Shards in the store.
        store: usize,
        /// Shards in the plane.
        plane: usize,
    },
    /// The plane already holds state or a sink; restore only into a
    /// fresh plane, and attach the sink afterwards.
    NotFresh,
    /// A shard file could not be read back.
    Store(StoreError),
    /// A record encodes a transition the live service could never have
    /// journaled — the journal is corrupt or belongs to another store.
    Corrupt {
        /// Shard whose journal the record came from.
        shard: usize,
        /// The record's sequence number.
        seq: u64,
        /// What was wrong with it.
        what: &'static str,
    },
}

impl std::fmt::Display for RestoreError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            RestoreError::ShardMismatch { store, plane } => {
                write!(f, "store has {store} shards but the plane has {plane}")
            }
            RestoreError::NotFresh => write!(f, "restore requires a fresh plane"),
            RestoreError::Store(e) => write!(f, "journal read failed: {e}"),
            RestoreError::Corrupt { shard, seq, what } => {
                write!(f, "corrupt journal (shard {shard}, seq {seq}): {what}")
            }
        }
    }
}

impl std::error::Error for RestoreError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            RestoreError::Store(e) => Some(e),
            _ => None,
        }
    }
}

/// Folds per-shard epoch reports into one plane-wide report, re-sorting
/// into CacheId order (each shard's report is sorted, but ids from
/// different shards interleave). Crate-visible: the cluster client merges
/// per-member reports through the same fold so a cluster epoch report
/// is bit-identical to a single-process one.
pub(crate) fn merge_reports(epoch: u64, reports: Vec<EpochReport>) -> EpochReport {
    let mut merged = EpochReport {
        epoch,
        planned: Vec::new(),
        deferred: Vec::new(),
        failed: Vec::new(),
        quarantined: Vec::new(),
        remaining_dirty: 0,
    };
    for report in reports {
        merged.planned.extend(report.planned);
        merged.deferred.extend(report.deferred);
        merged.failed.extend(report.failed);
        merged.quarantined.extend(report.quarantined);
        merged.remaining_dirty += report.remaining_dirty;
    }
    merged.planned.sort_unstable();
    merged.deferred.sort_unstable();
    merged.failed.sort_unstable_by_key(|(id, _)| *id);
    merged.quarantined.sort_unstable();
    merged
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
        service_is_send_sync::<ShardedReconfigService>();
    }

    #[test]
    fn routes_caches_across_shards() {
        let s = ShardedReconfigService::new(4);
        let ids: Vec<CacheId> = (0..64)
            .map(|_| s.register(CacheSpec::new(1024, 1)))
            .collect();
        assert_eq!(s.registered(), 64);
        // mix64 routing spreads sequential ids over all shards.
        let mut per_shard = [0usize; 4];
        for id in &ids {
            per_shard[s.shard_index(*id)] += 1;
        }
        assert!(
            per_shard.iter().all(|&n| n >= 4),
            "unbalanced routing: {per_shard:?}"
        );
        // Routing is a pure function of the id.
        assert_eq!(s.shard_index(ids[7]), s.shard_index(ids[7]));
    }

    #[test]
    fn one_epoch_drains_every_shard_in_id_order() {
        let s = ShardedReconfigService::new(3);
        let ids: Vec<CacheId> = (0..12)
            .map(|_| s.register(CacheSpec::new(1024, 1)))
            .collect();
        for id in ids.iter().rev() {
            s.submit(*id, 0, curve(512.0, 1024.0)).unwrap();
        }
        let report = s.run_epoch();
        assert_eq!(report.epoch, 1);
        assert_eq!(report.planned, ids, "merged report is in CacheId order");
        assert_eq!(report.remaining_dirty, 0);
        for id in &ids {
            assert_eq!(s.snapshot(*id).unwrap().version, 1);
        }
        assert!(s.run_epoch().is_idle());
        assert_eq!(s.epochs(), 2);
    }

    #[test]
    fn deferred_and_failed_merge_in_id_order() {
        let s = ShardedReconfigService::new(2);
        // Mix of: complete single-tenant caches (plan), a two-tenant cache
        // missing one curve (defer), and a cache whose curve's domain
        // excludes its fair share (fail).
        let ok_a = s.register(CacheSpec::new(1024, 1));
        let lagging = s.register(CacheSpec::new(1024, 2));
        let ok_b = s.register(CacheSpec::new(1024, 1));
        let failing = s.register(CacheSpec::new(1024, 2));
        s.submit(ok_b, 0, curve(512.0, 1024.0)).unwrap();
        s.submit(ok_a, 0, curve(512.0, 1024.0)).unwrap();
        s.submit(lagging, 0, curve(512.0, 1024.0)).unwrap();
        s.submit(failing, 0, curve(512.0, 1024.0)).unwrap();
        s.submit(
            failing,
            1,
            MissCurve::from_samples(&[768.0, 1024.0], &[5.0, 1.0]).unwrap(),
        )
        .unwrap();
        let report = s.run_epoch();
        assert_eq!(report.planned, vec![ok_a, ok_b]);
        assert_eq!(report.deferred, vec![lagging]);
        assert_eq!(report.failed.len(), 1);
        assert_eq!(report.failed[0].0, failing);
    }

    #[test]
    fn run_until_clean_drains_all_shards() {
        let s = ShardedReconfigService::new(4).with_max_batch(1);
        let ids: Vec<CacheId> = (0..8)
            .map(|_| s.register(CacheSpec::new(1024, 1)))
            .collect();
        for id in &ids {
            s.submit(*id, 0, curve(512.0, 1024.0)).unwrap();
        }
        let reports = s.run_until_clean();
        assert!(s.pending() == 0);
        let planned: usize = reports.iter().map(|r| r.planned.len()).sum();
        assert_eq!(planned, 8);
        // Per-shard batching: one epoch plans at most one cache per shard.
        assert!(reports.iter().all(|r| r.planned.len() <= 4));
    }

    #[test]
    fn deregister_on_the_right_shard() {
        let s = ShardedReconfigService::new(4);
        let id = s.register(CacheSpec::new(1024, 1));
        s.submit(id, 0, curve(512.0, 1024.0)).unwrap();
        s.run_epoch();
        assert!(s.snapshot(id).is_some());
        s.deregister(id).unwrap();
        assert!(s.snapshot(id).is_none());
        assert_eq!(s.deregister(id), Err(ServeError::UnknownCache(id)));
        assert_eq!(
            s.submit(id, 0, curve(512.0, 1024.0)),
            Err(ServeError::UnknownCache(id))
        );
        assert_eq!(s.registered(), 0);
    }

    #[test]
    fn minting_skips_the_reserved_top_id_and_live_ids() {
        let s = ShardedReconfigService::new(2);
        let spec = CacheSpec::new(1024, 1);
        let held = CacheSpec::new(2048, 1);
        let top = CacheId(RESERVED_ID);
        assert_eq!(
            s.register_with_id(top, spec),
            Err(ServeError::DuplicateCache(top))
        );
        assert_eq!(s.next_id_hint(), 0, "a refused id moves nothing");

        // A client holds id 1 and the last id a cache may have: the
        // counter now stands at the reserved one.
        s.register_with_id(CacheId(1), held).unwrap();
        s.register_with_id(CacheId(RESERVED_ID - 1), spec).unwrap();
        assert_eq!(s.next_id_hint(), RESERVED_ID);
        // Minting steps over the reserved id, wraps, and steps over the
        // live id 1 instead of replacing it.
        assert_eq!(s.register(spec), CacheId(0));
        assert_eq!(s.register(spec), CacheId(2));
        assert_eq!(s.registered(), 4);
        assert_eq!(s.register_with_id(CacheId(1), held), Ok(CacheId(1)));
    }

    #[test]
    #[should_panic(expected = "at least one shard")]
    fn zero_shards_rejected() {
        ShardedReconfigService::new(0);
    }

    #[test]
    #[should_panic(expected = "at most 16384 shards")]
    fn more_shards_than_an_epoch_reply_lists_rejected() {
        ShardedReconfigService::new(WIRE_MAX_EPOCH_IDS as usize + 1);
    }

    #[test]
    fn cluster_member_owns_only_its_slice() {
        let t = ShardTopology::range(4, 0, 2);
        let member = ShardedReconfigService::new(2).with_topology(t);
        let owned = (0u64..).find(|id| t.owns(*id)).unwrap();
        let foreign = (0u64..).find(|id| !t.owns(*id)).unwrap();

        let spec = CacheSpec::new(1024, 1);
        assert_eq!(
            member.register_with_id(CacheId(owned), spec),
            Ok(CacheId(owned))
        );
        // Idempotent: identical spec converges, different spec conflicts.
        assert_eq!(
            member.register_with_id(CacheId(owned), spec),
            Ok(CacheId(owned))
        );
        assert_eq!(
            member.register_with_id(CacheId(owned), CacheSpec::new(2048, 1)),
            Err(ServeError::DuplicateCache(CacheId(owned)))
        );
        assert_eq!(member.registered(), 1);
        assert_eq!(member.next_id_hint(), owned + 1);

        // Everything addressed to another member's slice bounces typed.
        let want = ServeError::Misrouted {
            cache: CacheId(foreign),
            shard: t.global_shard(foreign),
        };
        assert_eq!(
            member.register_with_id(CacheId(foreign), spec),
            Err(want.clone())
        );
        assert_eq!(
            member.submit(CacheId(foreign), 0, curve(512.0, 1024.0)),
            Err(want.clone())
        );
        assert_eq!(member.deregister(CacheId(foreign)), Err(want));
        assert!(member.snapshot(CacheId(foreign)).is_none());

        // Owned ids plan normally.
        member
            .submit(CacheId(owned), 0, curve(512.0, 1024.0))
            .unwrap();
        let report = member.run_epoch();
        assert_eq!(report.planned, vec![CacheId(owned)]);
    }

    #[test]
    #[should_panic(expected = "cannot mint ids")]
    fn cluster_member_refuses_to_mint() {
        let member = ShardedReconfigService::new(2).with_topology(ShardTopology::range(4, 2, 2));
        member.register(CacheSpec::new(1024, 1));
    }
}
