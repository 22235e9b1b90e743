//! Published plan state: immutable, versioned snapshots.

use std::fmt;
use talus_partition::CachePlan;

/// Opaque handle for a registered logical cache.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct CacheId(pub(crate) u64);

/// The one raw id no cache may hold. Ids reach the plane from outside it
/// (`RegisterAt` frames, journal records) and the id allocator resumes at
/// "largest id seen, plus one", so the top of the range is refused
/// wherever an id enters: that sum then always fits.
pub(crate) const RESERVED_ID: u64 = u64::MAX;

impl CacheId {
    /// The raw id (stable for the lifetime of the service; ids are never
    /// reused after deregistration).
    pub fn value(self) -> u64 {
        self.0
    }
}

impl fmt::Display for CacheId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "cache#{}", self.0)
    }
}

/// One published plan for one logical cache — the unit readers consume.
///
/// Snapshots are immutable to their readers and shared via `Arc`: the
/// planner rewrites a published snapshot in place only while the service
/// holds the one reference to it, and swaps in a new one while anyone
/// else does. A configuration applier can therefore hold a snapshot
/// across an arbitrary window without locking the service.
#[derive(Debug, Clone, PartialEq)]
pub struct PlanSnapshot {
    /// The cache this plan configures.
    pub cache: CacheId,
    /// The service epoch that produced the plan (global, monotone).
    pub epoch: u64,
    /// Per-cache plan version (1 for the first published plan; bumps on
    /// every successful replan). Appliers use this to detect staleness.
    pub version: u64,
    /// Curve updates folded into this plan since registration — lets an
    /// applier see how fresh the inputs were.
    pub updates: u64,
    /// The per-tenant allocations and Talus shadow configurations.
    pub plan: CachePlan,
}

impl PlanSnapshot {
    /// Convenience: per-tenant allocated sizes in lines.
    pub fn allocations(&self) -> Vec<u64> {
        self.plan.allocations()
    }
}
