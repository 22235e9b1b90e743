//! Health-reporting types for a reconfiguration plane.
//!
//! The partial-failure contract of the serving layer is that every
//! degradation is a *bounded, observable event*: a planner panic
//! quarantines one cache, a journal write error trips the store fault
//! flag — and all of it is visible in one [`PlaneHealth`] snapshot, served locally by the
//! plane and remotely via the wire protocol's `Health` request. The
//! types live here (not in the serving crate) because they cross the
//! process boundary: client, server, and any future multi-process
//! topology must agree on them, exactly like the [`limits`](crate::limits).

/// Health of one shard of the plane.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ShardHealth {
    /// Caches registered on the shard.
    pub caches: u64,
    /// Dirty caches queued on the shard.
    pub pending: u64,
    /// Caches quarantined on the shard (planner panicked on them; their
    /// last-good snapshots keep serving).
    pub quarantined: u64,
}

/// State of the plane's journal sink, if one is attached.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum StoreHealth {
    /// No journal sink attached (the plane is ephemeral by choice).
    None,
    /// The sink is attached and appending.
    Ok,
    /// The sink hit a write error and is silently dropping appends; the
    /// on-disk journal is a valid prefix of history up to the fault, but
    /// a restart will lose everything after it.
    Faulted,
}

/// One observable snapshot of the whole plane's failure state: per-shard
/// status, quarantined caches, epoch progress, journal fault state, and
/// (when served over RPC) connection-admission counters.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PlaneHealth {
    /// Epochs run so far (plane-wide).
    pub epochs: u64,
    /// Caches registered, summed across shards.
    pub caches: u64,
    /// Dirty caches queued, summed across shards.
    pub pending: u64,
    /// Raw ids of every quarantined cache, ascending. A snapshot that
    /// crossed the wire lists the lowest
    /// [`WIRE_MAX_IDS`](crate::limits::WIRE_MAX_IDS) of them at most; the
    /// per-shard [`ShardHealth::quarantined`] counts are never cut short.
    pub quarantined: Vec<u64>,
    /// Per-shard health, in shard order.
    pub shards: Vec<ShardHealth>,
    /// Journal sink state.
    pub store: StoreHealth,
    /// Connections currently served (0 when not fronted by an RPC
    /// server).
    pub connections: u64,
    /// Connections rejected as over-capacity since the server started
    /// (0 when not fronted by an RPC server).
    pub rejected: u64,
}

impl PlaneHealth {
    /// Whether nothing has failed: no quarantined cache, and the journal
    /// (if any) is not faulted.
    pub fn is_healthy(&self) -> bool {
        self.quarantined.is_empty() && self.store != StoreHealth::Faulted
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn shard(quarantined: u64) -> ShardHealth {
        ShardHealth {
            caches: 4,
            pending: 0,
            quarantined,
        }
    }

    #[test]
    fn healthy_plane_counts() {
        let h = PlaneHealth {
            epochs: 3,
            caches: 8,
            pending: 0,
            quarantined: vec![],
            shards: vec![shard(0), shard(0)],
            store: StoreHealth::None,
            connections: 0,
            rejected: 0,
        };
        assert!(h.is_healthy());
    }

    #[test]
    fn each_failure_mode_breaks_health() {
        let base = PlaneHealth {
            epochs: 0,
            caches: 0,
            pending: 0,
            quarantined: vec![],
            shards: vec![shard(0)],
            store: StoreHealth::Ok,
            connections: 1,
            rejected: 9,
        };
        assert!(
            base.is_healthy(),
            "rejected connections alone are not ill health"
        );
        let mut quarantined = base.clone();
        quarantined.quarantined = vec![7];
        assert!(!quarantined.is_healthy());
        let mut faulted = base;
        faulted.store = StoreHealth::Faulted;
        assert!(!faulted.is_healthy());
    }
}
