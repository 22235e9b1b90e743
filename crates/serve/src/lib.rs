//! # talus-serve — the online reconfiguration service (L5)
//!
//! A long-running, single-node service that owns many **logical caches**.
//! Callers register a cache with a [`CacheSpec`] — a capacity budget, a
//! tenant count and the planner — then stream per-tenant miss-curve updates (from `talus-sim` monitors,
//! real-hardware counters, or synthetic `talus-workloads` replays — any
//! [`CurveSource`](talus_core::CurveSource)). The service batches dirty
//! caches per **epoch**, re-plans each one through the shared
//! [`Planner`](talus_partition::Planner) pipeline (convex hulls from
//! `talus-core`, allocation from `talus-partition`), and publishes the
//! result as a versioned, immutable [`PlanSnapshot`].
//!
//! ## Concurrency contract
//!
//! Three groups of callers touch the service
//! ([`ShardedReconfigService`], shared behind an `Arc`), and none of them
//! waits on planning work:
//!
//! - **Producers** ([`submit`](ShardedReconfigService::submit)) take the
//!   owning shard's registry lock only long enough to store a curve and
//!   flag the cache dirty.
//! - **Readers** ([`snapshot`](ShardedReconfigService::snapshot)) take a
//!   read lock only long enough to clone an `Arc`; they then read the
//!   plan entirely lock-free. Snapshots are immutable — a reader can hold
//!   one across epochs and never observes a partially written plan.
//! - **The planner** ([`run_epoch`](ShardedReconfigService::run_epoch))
//!   drains a bounded batch of dirty caches under each shard's registry
//!   lock, *releases all locks*, plans, and finally swaps the new `Arc`
//!   snapshots in under a brief write lock (the "epoch swap").
//!
//! Because planning happens between the two brief critical sections, a
//! slow plan never blocks producers or readers — they at worst see the
//! previous epoch's snapshot a little longer.
//!
//! ## Equivalence to offline planning
//!
//! The service adds *scheduling* (batching, versioning, publication), not
//! *policy*: the plan published for a cache is bit-for-bit the plan a
//! direct offline `talus-core` + `talus-partition` call produces from the
//! same curves. The integration tests (and a property test over random
//! curve sets) assert exactly that.
//!
//! ## Scaling out: sharding by cache id
//!
//! One registry lock over all per-cache state — `new(1)` — bounds ingest
//! throughput by that lock. Shard count is the capacity knob that lifts
//! the bound: per-cache state lives on one of N independent shards
//! selected by `mix64(cache_id) % N`, submissions for caches on
//! different shards never contend, and each shard batches its own
//! epochs, all run on the epoch caller's thread. Because caches never
//! share state, the published plans are identical for every shard count
//! (property-tested in `tests/sharding.rs`): the count changes capacity,
//! never semantics. A host's cores are used by running cluster members.
//!
//! ## Going remote: the RPC front-end
//!
//! The paper's reconfiguration loop assumes curves arrive at the
//! allocator every ~100ms; at fleet scale the monitors producing those
//! curves live in other processes. The [`wire`] module defines a
//! length-prefixed, versioned binary protocol for exactly the service
//! API above (register / submit / run-epoch / report), [`RpcClient`]
//! speaks it over `std::net` TCP — riding the same
//! `CurveSource::next_curves` batching seam, so any producer points at a
//! remote plane unchanged — and [`RpcServer`] accepts connections and
//! feeds a shared [`ShardedReconfigService`]. The equivalence discipline
//! extends across the wire: a plane fed via RPC produces bit-identical
//! `EpochReport`s and snapshots to one fed locally
//! (`tests/rpc_equivalence.rs`), whatever planner each cache's spec
//! names — a register frame carries the whole spec, in the bytes the
//! journal records it in — and the decoder is total: hostile bytes
//! produce typed errors, never panics (`tests/wire.rs`).
//!
//! ## Surviving restarts: the journal sink and warm restart
//!
//! On its own the plane forgets everything when the process dies. Attach
//! a `talus-store` journal with
//! [`with_sink`](ShardedReconfigService::with_sink) and every register,
//! deregister, curve submission, epoch cut, and published plan is
//! appended — under the owning shard's lock, in the exact order it takes
//! effect — to one append-only file per shard (same
//! [`talus_core::shard_of`] placement as the router). After a crash,
//! [`restore`](ShardedReconfigService::restore) replays the journal into
//! a fresh plane (restore first, then attach the sink): caches
//! re-register, latest curves and dirty-queue order come back, the last
//! published [`PlanSnapshot`]s reappear, and the id allocator and epoch
//! counter resume where they left off. Registers, deregisters and curves
//! replay through the live transitions themselves, so a journal the
//! plane wrote always restores. The
//! equivalence discipline extends across the crash: a restored plane
//! produces bit-identical `EpochReport`s and snapshots to one that never
//! restarted (`tests/restore_equivalence.rs`), torn journal tails are
//! truncated on open, and mid-epoch process death is injected in the
//! workspace failure suite. Open and restore stream each shard file
//! through one fixed 1 MiB window, so a restart needs memory for the
//! state it rebuilds, not for the history it replays.
//!
//! ## Partial failure: deadlines, retries, quarantine, health
//!
//! A distributed plane fails in pieces, so the failure handling is
//! piecewise too:
//!
//! - **Clients never hang.** [`RpcClient::with_deadline`] bounds every
//!   socket operation; [`RpcClient::with_retry`] adds bounded,
//!   exponentially backed-off retries (deterministic seeded jitter) for
//!   the idempotent operations only — submit (bit-identical resubmission
//!   is a plane-level no-op), run-epoch, report, ping, health. Register
//!   and deregister are *not* retried automatically: a lost reply leaks
//!   a cache id, which the caller must reconcile explicitly.
//! - **A panicking planner loses one cache, not the plane.** Each plan
//!   call runs under `catch_unwind`; a panic quarantines that cache —
//!   its last-good snapshot keeps serving, submissions are rejected
//!   with [`ServeError::Quarantined`], and the id is listed in every
//!   [`EpochReport`] and health report until it deregisters or the
//!   plane restores.
//! - **Overload is typed.** Over-cap connections receive
//!   [`wire::Response::Busy`] before close instead of a silent drop.
//! - **Health is a first-class RPC.** [`RpcClient::health`] returns a
//!   [`talus_core::PlaneHealth`]: per-shard cache/pending/quarantine
//!   counts, epoch counter, journal fault state, and
//!   the server's connection accounting (the same report
//!   [`ServerHandle::health`] gives in-process).
//!
//! All of it is exercised deterministically through the
//! [`talus_core::FaultScript`] seam (`tests/chaos.rs`): scripted
//! panics, delays, connection kills, and truncated frames, with the
//! surviving caches asserted bit-identical to a fault-free run.
//!
//! ## Scaling across processes: the shard cluster
//!
//! One server is one failure domain. A **cluster** splits the fixed
//! global shard layout across N server processes — each owns a
//! contiguous [`talus_core::ShardTopology`] slice of the shards,
//! journals its slice into its own `talus-store` directory, and
//! refuses operations for ids it does not own
//! ([`ServeError::Misrouted`]). [`ClusterClient`] assembles them back
//! into one logical plane: a `Hello` handshake (since wire v3) verifies the
//! advertised slices are disjoint and complete, cache-id minting moves
//! client-side (servers in cluster topologies reject server-side
//! minting with [`ServeError::ClusterMint`]), and every operation
//! routes by the same `mix64(id) % total` placement a single-process
//! plane uses — so cluster snapshots and epoch reports stay
//! bit-identical to single-process ones (`tests/cluster.rs`). Partial
//! failure follows the same discipline as everything above: a dead
//! member trips a per-member circuit breaker (typed
//! [`ClusterError::ShardDown`] naming the unreachable shard range,
//! deterministic periodic re-probes), surviving members keep serving
//! their slices, and a killed member resurrects from its journal slice
//! via [`ShardedReconfigService::restore`] — with the handshake
//! rejecting rejoins that changed topology or went backwards in epochs
//! ([`HandshakeError::StaleEpoch`]).
//!
//! ```
//! use talus_core::MissCurve;
//! use talus_serve::{CacheSpec, ShardedReconfigService};
//!
//! let service = ShardedReconfigService::new(1);
//! let cache = service.register(CacheSpec::new(1024, 2));
//!
//! // Two tenants report their measured miss curves.
//! let cliff = MissCurve::from_samples(&[0.0, 512.0, 1024.0], &[10.0, 10.0, 1.0])?;
//! let gentle = MissCurve::from_samples(&[0.0, 512.0, 1024.0], &[4.0, 2.0, 1.5])?;
//! service.submit(cache, 0, cliff)?;
//! service.submit(cache, 1, gentle)?;
//!
//! // One epoch later a versioned plan is published.
//! let report = service.run_epoch();
//! assert_eq!(report.planned, vec![cache]);
//! let snap = service.snapshot(cache).expect("published");
//! assert_eq!(snap.version, 1);
//! assert_eq!(snap.plan.allocations().iter().sum::<u64>(), 1024);
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]
#![forbid(unsafe_code)]

mod client;
mod cluster;
mod idmap;
mod router;
mod rpc_server;
mod service;
mod shard;
mod snapshot;
pub mod wire;

pub use client::{RetryPolicy, RpcClient, RpcError};
pub use cluster::{
    ClusterClient, ClusterConfig, ClusterEpochReport, ClusterError, ClusterHealth, HandshakeError,
    MemberHealth, DEFAULT_PROBE_INTERVAL,
};
pub use router::{RestoreError, RestoreSummary, ShardedReconfigService};
pub use rpc_server::{RpcServer, ServerHandle, DEFAULT_MAX_CONNECTIONS};
pub use service::{EpochReport, ServeError};
pub use snapshot::{CacheId, PlanSnapshot};
pub use talus_partition::CacheSpec;
