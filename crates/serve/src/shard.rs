//! One shard of the reconfiguration plane: the per-cache state — registry
//! entry, dirty-queue slot, published snapshot — plus the epoch machinery
//! that drains, plans, and publishes it.
//!
//! A [`Shard`] is the plane's single-lock unit:
//! [`ShardedReconfigService`](crate::ShardedReconfigService) fronts N of
//! them with a hash router (`new(1)` is exactly one). Cache-id allocation
//! and epoch numbering live with the router, so a shard never needs to
//! know its siblings exist — caches never share state, and neither do
//! shards.

use std::collections::hash_map::Entry;
use std::collections::VecDeque;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::{Arc, Mutex, RwLock};

use crate::idmap::IdMap;
use crate::service::{EpochReport, ServeError};
use crate::snapshot::{CacheId, PlanSnapshot};
use talus_core::limits::EPOCH_WORKSPACE_POINTS;
use talus_core::{FaultScript, MissCurve};
use talus_partition::{CachePlan, CacheSpec, PlanScratch, Planner};
use talus_store::StoreSink;

/// Per-cache mutable state, guarded by the shard's registry lock.
#[derive(Debug)]
struct CacheEntry {
    spec: CacheSpec,
    /// Latest curve per tenant (`None` until the tenant's first update).
    /// Shared with the epoch planning them: the drain takes this one
    /// pointer instead of copying every tenant's points, and a submit
    /// that lands while a plan still reads the set copies it first.
    curves: Arc<[Option<MissCurve>]>,
    /// Total curve updates accepted since registration.
    updates: u64,
    /// Successful plans published (the snapshot version counter).
    version: u64,
    /// Whether the cache sits in the dirty queue.
    dirty: bool,
    /// Set when the cache's planner panicked during an epoch. The
    /// last-good snapshot keeps serving; submissions are rejected and
    /// the drain skips the cache until it is re-registered (or the plane
    /// is restored from its journal, which rebuilds entries fresh).
    quarantined: bool,
}

impl CacheEntry {
    /// A freshly registered cache: no curves, no plans.
    fn new(spec: CacheSpec) -> Self {
        CacheEntry {
            curves: vec![None; spec.tenants].into(),
            spec,
            updates: 0,
            version: 0,
            dirty: false,
            quarantined: false,
        }
    }
}

#[derive(Debug, Default)]
struct Registry {
    caches: IdMap<CacheEntry>,
    /// FIFO of dirty cache ids; an id appears at most once (the `dirty`
    /// flag dedups).
    dirty_queue: VecDeque<u64>,
}

/// A drained cache whose every tenant has a curve: what phase 2 plans.
#[derive(Debug)]
struct Job {
    id: CacheId,
    planner: Planner,
    capacity: u64,
    /// Every tenant's curve is `Some` (checked at the drain).
    curves: Arc<[Option<MissCurve>]>,
    round: u64,
    updates: u64,
}

/// The working memory of an epoch, which its shard keeps for life (see
/// [`Shard::run_epoch`]). An epoch leaves the three lists empty — no
/// curve or plan outlives it here — and keeps their buffers; the scratch
/// keeps its hulls and the tenant lists phase 3 copied into snapshots.
#[derive(Debug, Default)]
struct Workspace {
    /// Phase 1's pops, in queue order (the epoch-cut record).
    drained: Vec<u64>,
    /// Phase 1's ready caches; phase 2 empties it.
    jobs: Vec<Job>,
    /// Phase 2's plans with the update count they cover; phase 3 empties
    /// it.
    ready: Vec<(CacheId, u64, CachePlan)>,
    scratch: PlanScratch,
    /// The most tenants of one cache, and the most points of one curve,
    /// this workspace has planned: its scratch holds a hull per tenant
    /// slot with room for the longest curve.
    tenants: usize,
    longest: usize,
}

impl Workspace {
    /// The curve points the scratch is sized for, which
    /// [`EPOCH_WORKSPACE_POINTS`] bounds.
    fn points(&self) -> usize {
        self.tenants * self.longest
    }
}

/// Puts `snap` in `slot`: the one publish path, of a live epoch and of a
/// replayed plan record. When no reader holds the snapshot it replaces,
/// `snap` is written into that one — the same `Arc`, the same tenant list
/// — and its plan is handed back for the caller to recycle. Otherwise, and
/// for a cache's first plan, it goes into a fresh `Arc`. A held snapshot
/// is never written: `Arc::get_mut` is `None` while a reader has a clone,
/// and the caller's write lock keeps anyone from taking one.
fn publish(slot: Entry<'_, u64, Arc<PlanSnapshot>>, snap: PlanSnapshot) -> Option<CachePlan> {
    match slot {
        Entry::Occupied(mut slot) => {
            if let Some(kept) = Arc::get_mut(slot.get_mut()) {
                kept.epoch = snap.epoch;
                kept.version = snap.version;
                kept.updates = snap.updates;
                kept.plan.round = snap.plan.round;
                kept.plan.tenants.clone_from(&snap.plan.tenants);
                return Some(snap.plan);
            }
            // The displaced `Arc` is a reader's now: this only drops a
            // count, and the reader frees it.
            slot.insert(Arc::new(snap));
        }
        Entry::Vacant(slot) => {
            slot.insert(Arc::new(snap));
        }
    }
    None
}

/// One hold of a shard's registry lock, and the journal's lock scope with
/// it: taking the lock opens the scope ([`StoreSink::begin`]), dropping
/// the guard commits it ([`StoreSink::commit`]) and *then* unlocks. Every
/// record a hold produces is therefore written — as one write — before
/// any other thread can take the lock and see what the hold did.
struct RegistryGuard<'a> {
    registry: std::sync::MutexGuard<'a, Registry>,
    /// The sink and this shard's index in it; `None` on an ephemeral
    /// shard.
    scope: Option<(&'a dyn StoreSink, usize)>,
}

impl std::ops::Deref for RegistryGuard<'_> {
    type Target = Registry;

    fn deref(&self) -> &Registry {
        &self.registry
    }
}

impl std::ops::DerefMut for RegistryGuard<'_> {
    fn deref_mut(&mut self) -> &mut Registry {
        &mut self.registry
    }
}

impl Drop for RegistryGuard<'_> {
    // Runs before the fields drop, i.e. while the lock is still held.
    // Sinks never panic (the `StoreSink` contract), so neither does this.
    fn drop(&mut self) {
        if let Some((sink, shard)) = self.scope {
            sink.commit(shard);
        }
    }
}

/// One independent slice of the reconfiguration plane. See the module
/// docs; all methods take `&self` and the type is `Send + Sync`.
#[derive(Debug)]
pub(crate) struct Shard {
    /// Most dirty-queue entries drained — so most caches replanned, and
    /// most lines in the report — per epoch; overflow stays queued.
    max_batch: usize,
    /// This shard's index in its plane (stamped onto epoch-cut records).
    index: usize,
    /// Journal seam: every registry mutation is mirrored here, under the
    /// registry lock, in the exact order it takes effect, and each lock
    /// hold is one journal scope (see [`RegistryGuard`]). `None` = no
    /// persistence (the default).
    sink: Option<Arc<dyn StoreSink>>,
    /// Deterministic fault-injection seam, consulted at `"shard.plan"`
    /// (key = raw cache id) inside the planner's panic containment.
    /// `None` outside the test substrate.
    fault: Option<Arc<FaultScript>>,
    registry: Mutex<Registry>,
    /// Reader-facing snapshot map: the only state readers touch.
    published: RwLock<IdMap<Arc<PlanSnapshot>>>,
    /// The epoch workspace, kept from epoch to epoch while it stays
    /// within [`EPOCH_WORKSPACE_POINTS`].
    workspace: Mutex<Workspace>,
}

impl Shard {
    /// A shard draining at most `max_batch` queue entries per epoch.
    pub(crate) fn new(max_batch: usize) -> Self {
        assert!(max_batch > 0, "epoch batch must be positive");
        Shard {
            max_batch,
            index: 0,
            sink: None,
            fault: None,
            registry: Mutex::new(Registry::default()),
            published: RwLock::new(IdMap::default()),
            workspace: Mutex::new(Workspace::default()),
        }
    }

    pub(crate) fn set_max_batch(&mut self, max_batch: usize) {
        assert!(max_batch > 0, "epoch batch must be positive");
        self.max_batch = max_batch;
    }

    /// Attaches the journal sink (and the shard's plane index, stamped
    /// onto its epoch-cut records). Events from this point on are
    /// journaled; anything earlier is invisible to a later restore.
    pub(crate) fn set_sink(&mut self, index: usize, sink: Arc<dyn StoreSink>) {
        self.index = index;
        self.sink = Some(sink);
    }

    /// Attaches the fault-injection script consulted at `"shard.plan"`.
    pub(crate) fn set_fault_script(&mut self, script: Arc<FaultScript>) {
        self.fault = Some(script);
    }

    // Lock poisoning: a panic while a shard lock is held can only come
    // from the planner seam, and that is wrapped in `catch_unwind` with
    // no lock held — so a poisoned shard lock means some *other* code
    // panicked mid-mutation. Registry and published state are always
    // written in self-consistent steps (no partial multi-field updates
    // survive an early return), so recovery takes the data as-is rather
    // than poisoning the whole plane.
    fn lock_registry(&self) -> RegistryGuard<'_> {
        let registry = self.registry.lock().unwrap_or_else(|e| e.into_inner());
        let scope = self.sink.as_deref().map(|sink| (sink, self.index));
        if let Some((sink, shard)) = scope {
            sink.begin(shard);
        }
        RegistryGuard { registry, scope }
    }

    fn read_published(&self) -> std::sync::RwLockReadGuard<'_, IdMap<Arc<PlanSnapshot>>> {
        self.published.read().unwrap_or_else(|e| e.into_inner())
    }

    fn write_published(&self) -> std::sync::RwLockWriteGuard<'_, IdMap<Arc<PlanSnapshot>>> {
        self.published.write().unwrap_or_else(|e| e.into_inner())
    }

    fn lock_workspace(&self) -> std::sync::MutexGuard<'_, Workspace> {
        self.workspace.lock().unwrap_or_else(|e| e.into_inner())
    }

    /// Inserts a cache under an id the caller chose, never over a live
    /// one: if `id` is taken, nothing changes, nothing is journaled, and
    /// `Err` carries the spec it is registered with — the caller decides
    /// whether that is a retry that already landed, a conflict, or an id
    /// to skip. The cache publishes no plan until every tenant has
    /// submitted at least one curve and an epoch has run.
    pub(crate) fn insert(&self, id: u64, spec: CacheSpec) -> Result<(), CacheSpec> {
        let mut reg = self.lock_registry();
        match reg.caches.entry(id) {
            Entry::Occupied(live) => Err(live.get().spec),
            Entry::Vacant(slot) => {
                if let Some(sink) = &self.sink {
                    sink.register(id, &spec);
                }
                slot.insert(CacheEntry::new(spec));
                Ok(())
            }
        }
    }

    /// Removes a cache and its published snapshot. In-flight planning for
    /// the cache (if any) is discarded at publication time.
    pub(crate) fn remove(&self, id: CacheId) -> Result<(), ServeError> {
        {
            let mut reg = self.lock_registry();
            reg.caches
                .remove(&id.0)
                .ok_or(ServeError::UnknownCache(id))?;
            // The id may linger in dirty_queue; the epoch drain skips
            // entries with no registry record.
            if let Some(sink) = &self.sink {
                sink.deregister(id.0);
            }
        }
        self.write_published().remove(&id.0);
        Ok(())
    }

    /// Stores tenant `tenant`'s latest miss curve and marks the cache
    /// dirty (queued for the shard's next epoch).
    pub(crate) fn submit(
        &self,
        id: CacheId,
        tenant: usize,
        curve: MissCurve,
    ) -> Result<(), ServeError> {
        self.submit_locked(&mut self.lock_registry(), id, tenant, curve)
    }

    /// [`submit`](Shard::submit) for a batch, under **one** hold of the
    /// registry lock — so one journal write — applied in batch order.
    /// Each element is `(position, id, tenant, curve)`; its outcome is
    /// stored at `results[position]`. Equivalent, entry for entry, to
    /// submitting them one by one.
    pub(crate) fn submit_many(
        &self,
        batch: Vec<(usize, CacheId, usize, MissCurve)>,
        results: &mut [Result<(), ServeError>],
    ) {
        let mut reg = self.lock_registry();
        for (position, id, tenant, curve) in batch {
            results[position] = self.submit_locked(&mut reg, id, tenant, curve);
        }
    }

    /// The body of every submission, run under the registry lock.
    fn submit_locked(
        &self,
        reg: &mut Registry,
        id: CacheId,
        tenant: usize,
        curve: MissCurve,
    ) -> Result<(), ServeError> {
        let entry = reg
            .caches
            .get_mut(&id.0)
            .ok_or(ServeError::UnknownCache(id))?;
        if entry.quarantined {
            return Err(ServeError::Quarantined(id));
        }
        let tenants = entry.spec.tenants;
        if tenant >= tenants {
            return Err(ServeError::TenantOutOfRange {
                cache: id,
                tenant,
                tenants,
            });
        }
        // A bit-identical resubmission of a curve already *accounted
        // for* — queued for planning (dirty) or reflected in the
        // published snapshot — is a full no-op: no journal append, no
        // update count, no dirty mark. This is what makes retried and
        // duplicated submissions idempotent: the retried plane (and its
        // journal) is bit-identical to the once-delivered one.
        //
        // A cache with current curves but no current plan — deferred on
        // a tenant that has not reported, its last plan failed, or lost
        // to a crash between the epoch cut and publication — is
        // re-queued instead, without bumping the update count, and the
        // curve is journaled once more: replaying that record through
        // this same branch re-queues the restored cache where the live
        // one was. Lock order registry → published matches the publish
        // phase, so this read can't deadlock.
        let same = entry.curves[tenant].as_ref() == Some(&curve);
        if same
            && (entry.dirty
                || self
                    .read_published()
                    .get(&id.0)
                    .is_some_and(|snap| snap.updates == entry.updates))
        {
            return Ok(());
        }
        if let Some(sink) = &self.sink {
            sink.submit(id.0, tenant as u32, &curve);
        }
        if !same {
            Arc::make_mut(&mut entry.curves)[tenant] = Some(curve);
            entry.updates += 1;
        }
        if !entry.dirty {
            entry.dirty = true;
            reg.dirty_queue.push_back(id.0);
        }
        Ok(())
    }

    /// The latest published plan for `id`, if any epoch has planned it.
    ///
    /// This is the reader hot path: a read-lock held for one `Arc` clone.
    pub(crate) fn snapshot(&self, id: CacheId) -> Option<Arc<PlanSnapshot>> {
        self.read_published().get(&id.0).cloned()
    }

    /// Dirty caches currently queued on this shard.
    pub(crate) fn pending(&self) -> usize {
        self.lock_registry().dirty_queue.len()
    }

    /// Caches registered on this shard.
    pub(crate) fn registered(&self) -> usize {
        self.lock_registry().caches.len()
    }

    /// Published snapshots currently visible on this shard.
    pub(crate) fn snapshots(&self) -> usize {
        self.read_published().len()
    }

    /// Ids of every cache registered on this shard (unordered).
    pub(crate) fn ids(&self) -> Vec<u64> {
        self.lock_registry().caches.keys().copied().collect()
    }

    /// Runs one planning epoch on this shard: drain a batch of dirty
    /// caches, re-plan them through the shared [`Planner`] pipeline with
    /// **no locks held**, then publish the new snapshots in one epoch
    /// swap. `epoch` is the caller-scoped epoch number stamped onto the
    /// report and the published snapshots.
    ///
    /// The epoch works in the shard's [`Workspace`], taken out for its
    /// length and put back after, so a steady epoch allocates only its
    /// report. A second epoch on this shard at the same time — two
    /// callers running plane epochs at once — finds an empty workspace
    /// and works in that: neither waits for the other.
    /// A workspace whose scratch has grown past [`EPOCH_WORKSPACE_POINTS`]
    /// is dropped instead of put back.
    ///
    /// The report lists caches in ascending [`CacheId`] order — never in
    /// drain (queue) order — so reports are deterministic regardless of
    /// how submissions interleaved or how caches landed on shards.
    pub(crate) fn run_epoch(&self, epoch: u64) -> EpochReport {
        let mut workspace = std::mem::take(&mut *self.lock_workspace());
        let report = self.run_epoch_in(&mut workspace, epoch);
        if workspace.points() <= EPOCH_WORKSPACE_POINTS {
            *self.lock_workspace() = workspace;
        }
        report
    }

    /// The epoch itself, in `workspace`, whose lists are empty.
    fn run_epoch_in(&self, workspace: &mut Workspace, epoch: u64) -> EpochReport {
        let Workspace {
            drained,
            jobs,
            ready,
            scratch,
            tenants,
            longest,
        } = workspace;

        // Phase 1 — drain (brief registry lock): pop up to `max_batch`
        // queue entries and take a handle on the curves of the ready
        // caches among them. Every pop counts, not only the ones that
        // plan: each is an id in the cut record and at most one line of
        // the report, and both have to fit what carries them.
        let mut deferred = Vec::new();
        let remaining_dirty;
        {
            let mut reg = self.lock_registry();
            while drained.len() < self.max_batch {
                let Some(id) = reg.dirty_queue.pop_front() else {
                    break;
                };
                // Every pop is journaled — stale (deregistered) ids too —
                // so a replayed queue drains in exactly this order.
                drained.push(id);
                let Some(entry) = reg.caches.get_mut(&id) else {
                    continue; // deregistered while queued
                };
                entry.dirty = false;
                if entry.quarantined {
                    // Raced into the queue between its drain and its
                    // quarantine (submit rejects quarantined caches, so
                    // this is the only way in). Drop it silently: the
                    // quarantine was already reported.
                    continue;
                }
                if entry.curves.iter().any(Option::is_none) {
                    // Not every tenant has reported yet: wait for data. The
                    // missing tenant's first submission re-queues the cache.
                    deferred.push(CacheId(id));
                    continue;
                }
                jobs.push(Job {
                    id: CacheId(id),
                    planner: entry.spec.planner,
                    capacity: entry.spec.capacity,
                    curves: Arc::clone(&entry.curves),
                    round: entry.version,
                    updates: entry.updates,
                });
            }
            remaining_dirty = reg.dirty_queue.len();
            // Journaled unconditionally (even when the queue was empty):
            // the cut records carry the epoch number, and `max(epoch)`
            // across them is how a restore recovers the plane-wide epoch
            // counter exactly — including trailing idle epochs.
            if let Some(sink) = &self.sink {
                sink.epoch_cut(self.index, epoch, drained);
            }
        }
        drained.clear();

        // Phase 2 — plan (no locks): the expensive part. Each planner
        // invocation runs inside `catch_unwind`, so a panic — a planner
        // bug, or a scripted fault at the `"shard.plan"` seam — is
        // contained to its cache: the cache is quarantined (last-good
        // snapshot keeps serving) and every sibling plans normally.
        //
        // The workspace's scratch serves every batch (hulls, allocation,
        // climb state, and the tenant lists phase 3 recycles: a steady
        // plan allocates nothing). A plan that unwinds leaves it
        // half-written, which is harmless: every call overwrites all it
        // reads.
        let mut failed = Vec::new();
        let mut quarantined = Vec::new();
        for job in jobs.drain(..) {
            *tenants = (*tenants).max(job.curves.len());
            *longest = job
                .curves
                .iter()
                .flatten()
                .map(MissCurve::len)
                .fold(*longest, usize::max);
            let outcome = catch_unwind(AssertUnwindSafe(|| {
                if let Some(fault) = &self.fault {
                    let _ = fault.check("shard.plan", job.id.0);
                }
                let curves = job.curves.iter().flatten();
                job.planner
                    .plan_in(scratch, curves, job.capacity, job.round)
            }));
            match outcome {
                Ok(Ok(plan)) => ready.push((job.id, job.updates, plan)),
                Ok(Err(source)) => failed.push((
                    job.id,
                    ServeError::Plan {
                        cache: job.id,
                        source,
                    },
                )),
                Err(_panic) => quarantined.push(job.id),
            }
        }

        // Quarantine before publishing: flip the flag under the registry
        // lock so concurrent submits start bouncing immediately.
        if !quarantined.is_empty() {
            let mut reg = self.lock_registry();
            for id in &quarantined {
                if let Some(entry) = reg.caches.get_mut(&id.0) {
                    entry.quarantined = true;
                }
            }
        }

        // Phase 3 — publish: version assignment and the epoch swap happen
        // atomically (published write lock nested inside the registry
        // lock), so a concurrent deregister can never interleave between
        // the two and strand an orphaned snapshot, and a concurrent epoch
        // that already landed fresher curves is never overwritten by this
        // (older) result. Lock order registry → published is never
        // inverted elsewhere (remove takes them sequentially).
        //
        // Each plan is written into the snapshot it replaces when no
        // reader holds that one (see [`publish`]), and every plan not
        // published as it is goes back to the scratch. In a steady epoch
        // the write lock therefore neither allocates nor frees: the
        // report's list is sized before it is taken.
        //
        // The epoch's plan records are one journal scope: they are written
        // when `reg` drops, which is made to happen before `published`
        // unlocks, so no reader sees a snapshot whose record is unwritten.
        let mut planned = Vec::with_capacity(ready.len());
        if !ready.is_empty() {
            let mut reg = self.lock_registry();
            let mut published = self.write_published();
            for (id, updates, plan) in ready.drain(..) {
                let Some(entry) = reg.caches.get_mut(&id.0) else {
                    // Deregistered mid-plan: drop the result.
                    scratch.recycle(plan);
                    continue;
                };
                let slot = match published.entry(id.0) {
                    // A fresher plan already landed: keep it.
                    Entry::Occupied(current) if current.get().updates > updates => {
                        scratch.recycle(plan);
                        continue;
                    }
                    slot => slot,
                };
                entry.version += 1;
                // Only *published* plans are journaled (after the
                // deregistered/stale guards above), so replaying plan
                // records is exactly replaying publications.
                if let Some(sink) = &self.sink {
                    sink.plan(id.0, epoch, entry.version, updates, &plan);
                }
                let snap = PlanSnapshot {
                    cache: id,
                    epoch,
                    version: entry.version,
                    updates,
                    plan,
                };
                if let Some(copied) = publish(slot, snap) {
                    scratch.recycle(copied);
                }
                planned.push(id);
            }
            drop(reg);
        }

        // Deterministic CacheId order, independent of queue layout.
        planned.sort_unstable();
        deferred.sort_unstable();
        failed.sort_unstable_by_key(|(id, _)| *id);
        quarantined.sort_unstable();

        EpochReport {
            epoch,
            planned,
            deferred,
            failed,
            quarantined,
            remaining_dirty,
        }
    }

    /// The curve points this shard's kept workspace is sized for.
    #[cfg(test)]
    fn kept_points(&self) -> usize {
        self.lock_workspace().points()
    }

    /// Ids of quarantined caches on this shard, ascending.
    pub(crate) fn quarantined(&self) -> Vec<CacheId> {
        let mut ids: Vec<CacheId> = self
            .lock_registry()
            .caches
            .iter()
            .filter(|(_, entry)| entry.quarantined)
            .map(|(id, _)| CacheId(*id))
            .collect();
        ids.sort_unstable();
        ids
    }

    // --- journal replay ------------------------------------------------
    //
    // A restore applies register, deregister and curve records through
    // the live `insert`, `remove` and `submit`, on a plane with no sink
    // (a restore must not re-append its own input). Cut and plan records
    // get the two transitions below instead: the live drain plans and
    // the live publish numbers versions, and a replay must do neither.
    // Both report a transition a faithful journal never holds with
    // `false`, which the router turns into a typed `RestoreError`.

    /// Replays an epoch-cut record: pops `drained.len()` ids off the
    /// dirty queue, verifying they match the journaled pop order (a
    /// faithful journal replays to exactly the queue the live drain
    /// saw). `false` on any mismatch.
    pub(crate) fn restore_cut(&self, drained: &[u64]) -> bool {
        let mut reg = self.lock_registry();
        for &want in drained {
            match reg.dirty_queue.pop_front() {
                Some(got) if got == want => {}
                _ => return false,
            }
            if let Some(entry) = reg.caches.get_mut(&want) {
                entry.dirty = false;
            }
        }
        true
    }

    /// Replays a plan record: republishes the snapshot through the live
    /// publish path ([`publish`]: in place when nobody holds the one it
    /// replaces) and fast-forwards the cache's version counter to it.
    /// `false` if the cache is unknown (live publication is guarded
    /// against deregistered caches, so a faithful journal never hits
    /// this).
    pub(crate) fn restore_plan(&self, snap: PlanSnapshot) -> bool {
        let mut reg = self.lock_registry();
        let Some(entry) = reg.caches.get_mut(&snap.cache.0) else {
            return false;
        };
        entry.version = snap.version;
        publish(self.write_published().entry(snap.cache.0), snap);
        true
    }
}

#[cfg(test)]
mod tests {
    //! The kept workspace under the two things an epoch can meet: another
    //! epoch of the same shard, and a cache too big to keep it for.

    use super::*;
    use std::time::Duration;
    use talus_core::FaultAction;

    /// A falling curve of `points` sizes spread evenly over `[0, capacity]`,
    /// its cliff at a point `seed` chooses.
    fn curve(points: usize, capacity: u64, seed: u64) -> MissCurve {
        let last = (points - 1) as f64;
        let cliff = (seed.wrapping_mul(0x9E37_79B9_7F4A_7C15) >> 40) % points as u64;
        let sizes: Vec<f64> = (0..points)
            .map(|i| i as f64 * capacity as f64 / last)
            .collect();
        let misses: Vec<f64> = (0..points)
            .map(|i| {
                let above = if (i as u64) < cliff { 30.0 } else { 0.0 };
                1.0 + above + (seed % 7) as f64 * (last - i as f64) / last
            })
            .collect();
        MissCurve::from_samples(&sizes, &misses).unwrap()
    }

    /// Submits `curves` for cache `id` and returns them.
    fn feed(shard: &Shard, id: u64, curves: Vec<MissCurve>) -> Vec<MissCurve> {
        for (tenant, curve) in curves.iter().enumerate() {
            shard.submit(CacheId(id), tenant, curve.clone()).unwrap();
        }
        curves
    }

    /// The published plan for `id` is the offline plan of `curves`.
    fn assert_offline(shard: &Shard, id: u64, spec: CacheSpec, curves: &[MissCurve]) {
        let snap = shard.snapshot(CacheId(id)).expect("a published plan");
        let offline = spec.planner.plan(curves, spec.capacity, snap.plan.round);
        assert_eq!(Ok(&snap.plan), offline.as_ref(), "cache {id}");
    }

    #[test]
    fn workspace_two_epochs_on_one_shard_neither_deadlock_nor_publish_stale() {
        let script = Arc::new(FaultScript::new());
        let mut shard = Shard::new(64);
        shard.set_fault_script(Arc::clone(&script));
        let spec = CacheSpec::new(4096, 2);
        shard.insert(7, spec).unwrap();
        shard.insert(8, spec).unwrap();
        feed(&shard, 7, (0..2).map(|t| curve(17, 4096, t)).collect());
        let sibling = feed(&shard, 8, (2..4).map(|t| curve(33, 4096, t)).collect());
        // Epoch 1 stalls in cache 7's plan, holding its old curves and the
        // shard's workspace; newer curves land and epoch 2 runs beside it.
        // What is asserted holds whichever epoch publishes first.
        script.inject("shard.plan", Some(7), 0, 1, FaultAction::DelayMs(200));
        let fresh = std::thread::scope(|s| {
            let first = s.spawn(|| shard.run_epoch(1));
            while script.fired("shard.plan") == 0 {
                std::thread::sleep(Duration::from_millis(1));
            }
            let fresh = feed(&shard, 7, (4..6).map(|t| curve(65, 4096, t)).collect());
            assert_eq!(shard.run_epoch(2).planned, [CacheId(7)]);
            let first = first.join().unwrap();
            assert!(first.planned.contains(&CacheId(8)), "{first:?}");
            fresh
        });
        // Whichever epoch published last, cache 7 serves the newer plan.
        assert_eq!(shard.snapshot(CacheId(7)).unwrap().updates, 4);
        assert_offline(&shard, 7, spec, &fresh);
        assert_offline(&shard, 8, spec, &sibling);
        // One of the two workspaces was put back, and the next epoch
        // plans in it.
        assert!(shard.kept_points() > 0);
        let newer = feed(&shard, 8, (6..8).map(|t| curve(9, 4096, t)).collect());
        assert_eq!(shard.run_epoch(3).planned, [CacheId(8)]);
        assert_offline(&shard, 8, spec, &newer);
    }

    #[test]
    fn workspace_keeps_at_most_the_cap_between_epochs() {
        let shard = Shard::new(64);
        // 4 × 65 points, 1 × 4 096 (exactly the cap), 2 × 4 096 (past it).
        let small = CacheSpec::new(65_536, 4);
        let one = CacheSpec::new(65_536, 1);
        let two = CacheSpec::new(65_536, 2);
        shard.insert(1, small).unwrap();
        shard.insert(2, one).unwrap();
        shard.insert(3, two).unwrap();
        let small_curves = |round: u64| (0..4).map(|t| curve(65, 65_536, round << 8 | t)).collect();
        let long_curves = |round: u64, n: u64| {
            (0..n)
                .map(|t| curve(4096, 65_536, round << 8 | 16 | t))
                .collect()
        };
        assert_eq!(shard.kept_points(), 0);

        let curves = feed(&shard, 1, small_curves(0));
        shard.run_epoch(1);
        assert_offline(&shard, 1, small, &curves);
        assert_eq!(shard.kept_points(), 4 * 65);

        let curves = feed(&shard, 2, long_curves(1, 1));
        shard.run_epoch(2);
        assert_offline(&shard, 2, one, &curves);
        // Four tenants of 65 points, then one of 4 096: the scratch has
        // four slots and room for 4 096 points in each, past the cap.
        assert_eq!(shard.kept_points(), 0);

        let curves = feed(&shard, 2, long_curves(2, 1));
        shard.run_epoch(3);
        assert_offline(&shard, 2, one, &curves);
        assert_eq!(shard.kept_points(), EPOCH_WORKSPACE_POINTS);

        let smalls = feed(&shard, 1, small_curves(3));
        let twos = feed(&shard, 3, long_curves(3, 2));
        shard.run_epoch(4);
        assert_offline(&shard, 1, small, &smalls);
        assert_offline(&shard, 3, two, &twos);
        assert_eq!(shard.kept_points(), 0);

        let curves = feed(&shard, 1, small_curves(4));
        shard.run_epoch(5);
        assert_offline(&shard, 1, small, &curves);
        assert_eq!(shard.kept_points(), 4 * 65);
    }
}
