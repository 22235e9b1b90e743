//! The v5 wire protocol: length-prefixed, little-endian binary frames
//! for curve ingest, epoch control, plane health, and cluster topology.
//!
//! Every frame is
//!
//! ```text
//! offset  size  field
//! 0       4     payload length N (LE u32), 2 ≤ N ≤ WIRE_MAX_FRAME_LEN
//! 4       1     protocol version (WIRE_VERSION = 5)
//! 5       1     opcode
//! 6       N−2   body (message-specific, see Request/Response)
//! ```
//!
//! The length prefix counts everything after itself (version + opcode +
//! body). Integers are little-endian; `f64`s are IEEE-754 bit patterns
//! (LE), so curves and plan errors round-trip bit-exactly. Vectors encode
//! as a `u32` count followed by elements.
//!
//! ## The Submit body
//!
//! A batch's curves are sampled on a few size grids (one a monitor), so a
//! Submit declares each distinct grid once and sends every curve as its
//! miss values alone ([`MissCurve::encode_values`]):
//!
//! ```text
//! u32  entry count E (1..=WIRE_MAX_BATCH)
//! u32  grid count G (≤ E)
//! G ×  u32 point count n (≥ 1), then n sizes as f64
//! E ×  u64 cache id, u32 tenant, u32 grid index g (< G), then
//!      grid g's point count of miss values as f64
//! ```
//!
//! Grids are listed in order of first use and each is used, and two
//! entries are on one grid exactly when their sizes are equal bit for bit
//! (a `-0.0` and a `0.0`, or sizes one ulp apart, are two grids), so a
//! batch has one encoding. A 65-point entry is 536 bytes: a 272 × 65
//! frame on one grid is 146 330 bytes, where repeating each curve's
//! sizes took 287 242. The frame is self-contained — no grid outlives
//! it, on either side.
//!
//! ## Decoding is total
//!
//! `decode_request` / `decode_response` and [`read_frame`] /
//! [`read_frame_into`] never panic and never allocate proportionally to
//! attacker-controlled fields:
//!
//! - the length prefix is bounded by
//!   [`talus_core::limits::WIRE_MAX_FRAME_LEN`] *before* the payload
//!   buffer is allocated, and the version byte checked, by the codec
//!   checks the journal makes too ([`check_len`], [`payload_parts`]);
//! - every field is read through [`talus_core::codec::Reader`], the
//!   bounds-checked cursor the journal reads with too: every element
//!   count is checked against both its protocol cap (`WIRE_MAX_*`) and
//!   the bytes actually remaining in the frame *before* any `Vec` is
//!   reserved;
//! - a Submit's grids are validated by [`MissCurve::decode_grid`] and
//!   its curves by [`MissCurve::decode_values`], so a decoded curve
//!   upholds every invariant a locally built one does; the curves on one
//!   table entry share its grid, validated once;
//! - trailing bytes after a well-formed body are an error (the
//!   `Reader`'s `end`), so every byte of an accepted frame is accounted
//!   for;
//! - a register's [`CacheSpec`] is read by [`read_spec`] and checked by
//!   [`check_spec`], as the journal's decoder does; the wire adds the
//!   margins (finite, not negative), the reserved id and
//!   [`WIRE_MAX_GRAINS`], and `RpcClient` makes every one of these checks
//!   before it sends a register.
//!
//! All failures surface as a [`DecodeError`], the journal's error too;
//! the adversarial suite in `tests/wire.rs` drives truncations,
//! oversized prefixes, wrong versions, garbage opcodes, and random byte
//! soup through the decoder, asserts typed errors throughout, and holds
//! each to the one a journal record gives.
//!
//! ## Versioning rules
//!
//! The version byte is checked on every frame. Any change to the frame
//! layout, an opcode's body, or the limits in `talus_core::limits` bumps
//! [`WIRE_VERSION`]; the golden-bytes fixture test pins the current
//! encoding so accidental format drift fails CI.
//!
//! v2 over v1: a `Health` request/reply pair reporting per-shard
//! failure state, a `Busy` response for over-capacity admission
//! shedding, a `quarantined` id list in the epoch-report body, and a
//! `Quarantined` serve-error tag.
//!
//! v3 over v2: the cluster handshake — a `Hello` request and a `Hello`
//! reply carrying [`ClusterInfo`] (total shards, the server's owned
//! shard range, epoch progress, the next unminted id, and a full
//! plane-health snapshot); a `RegisterAt` request for client-minted ids
//! (registration across a multi-process cluster); and three serve-error
//! tags for cluster routing faults — `Misrouted`, `DuplicateCache`, and
//! `ClusterMint`.
//!
//! v4 over v3: the Submit body above — a grid table and values-only
//! curves, where v3 sent every curve as a point count and
//! `(size, misses)` pairs.
//!
//! v5 (this version) over v4: `Register` and `RegisterAt` carry a whole
//! [`CacheSpec`] as [`put_spec`] writes it, the journal's `Register`
//! body, where v4 sent capacity and tenants alone; and the margin rule
//! and the [`WIRE_MAX_GRAINS`] bound on it. Every other frame is v4's
//! but for its version byte.

use std::io::Read;
use std::sync::Arc;

use crate::service::{EpochReport, ServeError};
use crate::snapshot::{CacheId, PlanSnapshot, RESERVED_ID};
use talus_core::codec::{
    check_count, check_len, payload_parts, put_f64, put_u32, put_u64, put_u8, DecodeError, Reader,
};
use talus_core::limits::{
    WIRE_MAX_BATCH, WIRE_MAX_CURVE_POINTS, WIRE_MAX_FRAME_LEN, WIRE_MAX_GRAINS, WIRE_MAX_IDS,
    WIRE_MAX_SHARDS, WIRE_MAX_TENANTS,
};
use talus_core::{MissCurve, PlanError, PlaneHealth, ShardHealth, ShardState, StoreHealth};
use talus_partition::{check_spec, put_spec, read_spec, CacheSpec};

/// Protocol version carried in every frame header.
pub const WIRE_VERSION: u8 = 5;

/// Bytes of a Submit frame ahead of its grid table: length prefix,
/// version, opcode, entry count and grid count.
const SUBMIT_HEAD_BYTES: usize = 4 + 1 + 1 + 4 + 4;

/// Bytes a Submit entry of `points` miss values adds to its frame: id,
/// tenant, grid index and values, and — when its grid is new to the
/// frame — the grid's point count and sizes.
pub(crate) fn submit_entry_bytes(points: usize, new_grid: bool) -> usize {
    let values = MissCurve::VALUE_BYTES * points;
    8 + 4 + 4 + values + if new_grid { 4 + values } else { 0 }
}

/// Every check a `Register` (`id` is `None`) or `RegisterAt` decode
/// makes, so a client can make them before sending one: [`check_spec`],
/// a safety margin and vertex tolerance that are finite and not
/// negative (every plan fails on any other), an id that is not the
/// reserved one, and at most [`WIRE_MAX_GRAINS`] grains, since a plan
/// climbs them.
pub(crate) fn check_register(id: Option<u64>, spec: &CacheSpec) -> Result<(), DecodeError> {
    check_spec(spec)?;
    let options = &spec.planner.options;
    if ![options.safety_margin, options.vertex_tolerance]
        .iter()
        .all(|v| v.is_finite() && *v >= 0.0)
    {
        return Err(DecodeError::Malformed("margin negative or not finite"));
    }
    if id == Some(RESERVED_ID) {
        return Err(DecodeError::Malformed("reserved cache id"));
    }
    let grains = usize::try_from(spec.capacity / spec.planner.grain).unwrap_or(usize::MAX);
    check_count(grains, WIRE_MAX_GRAINS).map(drop)
}

// Request opcodes (client → server). Crate-visible so the server can
// key `server.handle` fault-injection rules by opcode.
pub(crate) const OP_REGISTER: u8 = 0x01;
pub(crate) const OP_DEREGISTER: u8 = 0x02;
pub(crate) const OP_SUBMIT: u8 = 0x03;
pub(crate) const OP_RUN_EPOCH: u8 = 0x04;
pub(crate) const OP_REPORT: u8 = 0x05;
pub(crate) const OP_PING: u8 = 0x06;
pub(crate) const OP_HEALTH: u8 = 0x07;
pub(crate) const OP_HELLO: u8 = 0x08;
pub(crate) const OP_REGISTER_AT: u8 = 0x09;

// Response opcodes (server → client); high bit set.
const OP_REGISTERED: u8 = 0x81;
const OP_DEREGISTERED: u8 = 0x82;
const OP_SUBMIT_REPLY: u8 = 0x83;
const OP_EPOCH: u8 = 0x84;
const OP_SNAPSHOT: u8 = 0x85;
const OP_PONG: u8 = 0x86;
const OP_HEALTH_REPLY: u8 = 0x87;
const OP_HELLO_REPLY: u8 = 0x88;
const OP_BUSY: u8 = 0x8E;
const OP_ERROR: u8 = 0x8F;

/// One (cache, tenant, curve) element of a submission batch.
#[derive(Debug, Clone, PartialEq)]
pub struct SubmitEntry {
    /// Raw cache id (as returned by a register reply).
    pub id: u64,
    /// Tenant index within the cache.
    pub tenant: u32,
    /// The tenant's latest miss curve.
    pub curve: MissCurve,
}

/// A client → server message.
#[derive(Debug, Clone, PartialEq)]
pub enum Request {
    /// Register a logical cache.
    Register {
        /// Its capacity, tenants and planner.
        spec: CacheSpec,
    },
    /// Remove a cache and its published snapshot.
    Deregister {
        /// Raw cache id.
        id: u64,
    },
    /// Submit a batch of curve updates, applied in order, atomically
    /// received (a partially transmitted batch is never applied).
    Submit {
        /// The batch (1..=[`WIRE_MAX_BATCH`] entries).
        entries: Vec<SubmitEntry>,
    },
    /// Run one planning epoch across every shard.
    RunEpoch,
    /// Fetch the published snapshot summary for a cache.
    Report {
        /// Raw cache id.
        id: u64,
    },
    /// Liveness probe.
    Ping,
    /// Fetch the plane's health snapshot (per-shard status, quarantined
    /// caches, epoch counters, store fault state, admission counters).
    Health,
    /// Cluster handshake: ask the server to advertise its topology
    /// slice, epoch progress, next unminted id, and health.
    Hello,
    /// Register a logical cache under a client-minted id (cluster
    /// registration; the id's canonical shard must be owned by the
    /// receiving server). Idempotent: re-registering the same id with
    /// an identical spec succeeds without effect.
    RegisterAt {
        /// Client-minted raw cache id.
        id: u64,
        /// Its capacity, tenants and planner.
        spec: CacheSpec,
    },
}

/// What a server advertises in its `Hello` reply: which slice of the
/// global shard layout it owns, how far its epochs have advanced, the
/// smallest id it has never seen registered, and its plane health. A
/// cluster client handshakes every member, checks the slices agree on
/// `total_shards`, are disjoint, and cover the whole layout, and seeds
/// its id mint from the largest `next_id`.
#[derive(Debug, Clone, PartialEq)]
pub struct ClusterInfo {
    /// Global shards in the whole plane (≥ 1).
    pub total_shards: u32,
    /// First global shard this server owns.
    pub first_shard: u32,
    /// Number of contiguous global shards this server owns (≥ 1;
    /// `first_shard + shard_count ≤ total_shards`).
    pub shard_count: u32,
    /// Epochs this server's plane has run (restored planes resume from
    /// their journaled epoch, so a rejoining server must advertise at
    /// least the epoch it last acknowledged).
    pub epoch: u64,
    /// The smallest cache id this server has never seen registered.
    pub next_id: u64,
    /// The member's full plane-health snapshot.
    pub health: PlaneHealth,
}

/// A per-tenant slice of a [`SnapshotSummary`].
#[derive(Debug, Clone, PartialEq)]
pub struct TenantSummary {
    /// Lines allocated to the tenant.
    pub capacity: u64,
    /// Miss metric the plan expects at that allocation.
    pub expected_misses: f64,
    /// The shadow-partition configuration, if the allocation sits on a
    /// hull segment (`None` = unpartitioned).
    pub shadow: Option<ShadowSummary>,
}

/// The wire form of a shadow configuration: the fields an applier needs.
#[derive(Debug, Clone, PartialEq)]
pub struct ShadowSummary {
    /// Hull vertex the α partition emulates.
    pub alpha: f64,
    /// Hull vertex the β partition emulates.
    pub beta: f64,
    /// Fraction of accesses steered to the α partition.
    pub rho: f64,
}

/// The wire form of a published [`PlanSnapshot`]: versioning metadata
/// plus per-tenant allocations and shadow configurations.
#[derive(Debug, Clone, PartialEq)]
pub struct SnapshotSummary {
    /// Raw cache id.
    pub cache: u64,
    /// Service epoch that produced the plan.
    pub epoch: u64,
    /// Per-cache plan version.
    pub version: u64,
    /// Curve updates folded into the plan.
    pub updates: u64,
    /// Reconfiguration round the plan was computed in.
    pub round: u64,
    /// One entry per tenant, in tenant order.
    pub tenants: Vec<TenantSummary>,
}

impl From<&PlanSnapshot> for SnapshotSummary {
    fn from(snap: &PlanSnapshot) -> Self {
        SnapshotSummary {
            cache: snap.cache.value(),
            epoch: snap.epoch,
            version: snap.version,
            updates: snap.updates,
            round: snap.plan.round,
            tenants: snap
                .plan
                .tenants
                .iter()
                .map(|t| TenantSummary {
                    capacity: t.capacity,
                    expected_misses: t.plan.expected_misses(),
                    shadow: t.plan.shadow().map(|s| ShadowSummary {
                        alpha: s.alpha,
                        beta: s.beta,
                        rho: s.rho,
                    }),
                })
                .collect(),
        }
    }
}

/// A server → client message.
#[derive(Debug, Clone, PartialEq)]
pub enum Response {
    /// Reply to [`Request::Register`]: the minted cache id.
    Registered {
        /// Raw cache id.
        id: u64,
    },
    /// Reply to a successful [`Request::Deregister`].
    Deregistered,
    /// Reply to [`Request::Submit`]: one result per entry, in order.
    SubmitReply {
        /// Per-entry outcomes, exactly what local `submit` returned.
        results: Vec<Result<(), ServeError>>,
    },
    /// Reply to [`Request::RunEpoch`]: the merged epoch report.
    Epoch(EpochReport),
    /// Reply to [`Request::Report`]: the snapshot, if one is published.
    Snapshot(Option<SnapshotSummary>),
    /// Reply to [`Request::Ping`].
    Pong,
    /// Reply to [`Request::Health`]: the plane's failure-state snapshot.
    /// Its `quarantined` list is encoded up to [`WIRE_MAX_IDS`] ids (the
    /// lowest); the per-shard counts always carry the true total.
    Health(PlaneHealth),
    /// Reply to [`Request::Hello`]: the server's topology advertisement.
    Hello(ClusterInfo),
    /// The server is at its connection cap and is shedding this
    /// connection. Sent before closing, so a client can distinguish
    /// overload (retry later) from a crash (reconnect elsewhere).
    Busy,
    /// Request-level failure (e.g. deregistering an unknown cache).
    Error(ServeError),
}

/// The distinct size grids of a Submit batch, in order of first use: the
/// frame's grid table. Two curves are on one grid when they share its
/// allocation or their sizes are equal bit for bit — a `-0.0` against a
/// `0.0`, or sizes one ulp apart, are two grids.
#[derive(Debug, Default)]
pub(crate) struct GridTable {
    pub(crate) grids: Vec<Arc<[f64]>>,
}

impl GridTable {
    /// Where `grid` is in the table, if it is.
    pub(crate) fn position(&self, grid: &Arc<[f64]>) -> Option<usize> {
        // Latest first: a batch's next curve is likeliest on the grid
        // its last one was. The differing bits of all sizes are or-ed
        // together, not compared a size at a time: no branch and no
        // 64-bit compare a size, so the scan of equal grids (the common
        // case) vectorises on any x86-64.
        self.grids.iter().rposition(|g| {
            Arc::ptr_eq(g, grid)
                || (g.len() == grid.len()
                    && g.iter()
                        .zip(grid.iter())
                        .fold(0, |diff, (a, b)| diff | (a.to_bits() ^ b.to_bits()))
                        == 0)
        })
    }

    /// Where `grid` is in the table, appended if it was not.
    pub(crate) fn insert(&mut self, grid: &Arc<[f64]>) -> usize {
        self.position(grid).unwrap_or_else(|| {
            self.grids.push(Arc::clone(grid));
            self.grids.len() - 1
        })
    }

    pub(crate) fn clear(&mut self) {
        self.grids.clear();
    }
}

// ---------------------------------------------------------------------
// Encoding
// ---------------------------------------------------------------------

/// Appends one frame to `out`: the header with a zero length prefix, the
/// body `body` appends, then the prefix filled in. `out` may already hold
/// earlier bytes; they are left alone. The length is not checked here: the
/// encoders are total, so tests can build frames a decoder must refuse,
/// and a sender checks the finished frame against [`WIRE_MAX_FRAME_LEN`]
/// before writing it (`RpcClient` does).
fn frame(out: &mut Vec<u8>, opcode: u8, body: impl FnOnce(&mut Vec<u8>)) {
    let start = out.len();
    out.extend_from_slice(&[0, 0, 0, 0, WIRE_VERSION, opcode]);
    body(out);
    let len = (out.len() - start - 4) as u32;
    out[start..start + 4].copy_from_slice(&len.to_le_bytes());
}

fn put_ids(out: &mut Vec<u8>, ids: &[CacheId]) {
    put_u32(out, ids.len() as u32);
    for id in ids {
        put_u64(out, id.value());
    }
}

fn put_serve_error(out: &mut Vec<u8>, e: &ServeError) {
    match e {
        ServeError::UnknownCache(id) => {
            put_u8(out, 1);
            put_u64(out, id.value());
        }
        ServeError::TenantOutOfRange {
            cache,
            tenant,
            tenants,
        } => {
            put_u8(out, 2);
            put_u64(out, cache.value());
            put_u32(out, *tenant as u32);
            put_u32(out, *tenants as u32);
        }
        ServeError::Quarantined(id) => {
            put_u8(out, 4);
            put_u64(out, id.value());
        }
        ServeError::Misrouted { cache, shard } => {
            put_u8(out, 5);
            put_u64(out, cache.value());
            put_u32(out, *shard as u32);
        }
        ServeError::DuplicateCache(id) => {
            put_u8(out, 6);
            put_u64(out, id.value());
        }
        ServeError::ClusterMint => put_u8(out, 7),
        ServeError::Plan { cache, source } => {
            put_u8(out, 3);
            put_u64(out, cache.value());
            match source {
                PlanError::SizeOutOfRange { size, min, max } => {
                    put_u8(out, 1);
                    put_f64(out, *size);
                    put_f64(out, *min);
                    put_f64(out, *max);
                }
                PlanError::InvalidSize { size } => {
                    put_u8(out, 2);
                    put_f64(out, *size);
                }
                PlanError::InvalidMargin { margin } => {
                    put_u8(out, 3);
                    put_f64(out, *margin);
                }
            }
        }
    }
}

/// Encodes a full [`PlaneHealth`] body (shared by the `Health` reply and
/// the `Hello` reply's embedded health snapshot).
fn put_plane_health(out: &mut Vec<u8>, h: &PlaneHealth) {
    put_u64(out, h.epochs);
    put_u64(out, h.caches);
    put_u64(out, h.pending);
    put_u64(out, h.connections);
    put_u64(out, h.rejected);
    let store = match h.store {
        StoreHealth::None => 0,
        StoreHealth::Ok => 1,
        StoreHealth::Faulted => 2,
    };
    put_u8(out, store);
    // The list is cumulative, so a long-lived plane can outgrow what a
    // decoder accepts: send the lowest ids of the ascending list. The
    // per-shard counts below still carry the true total.
    let listed = &h.quarantined[..h.quarantined.len().min(WIRE_MAX_IDS as usize)];
    put_u32(out, listed.len() as u32);
    for id in listed {
        put_u64(out, *id);
    }
    put_u32(out, h.shards.len() as u32);
    for s in &h.shards {
        put_u64(out, s.caches);
        put_u64(out, s.pending);
        put_u64(out, s.quarantined);
        let state = match s.state {
            ShardState::Ok => 0,
            ShardState::Degraded => 1,
        };
        put_u8(out, state);
    }
}

/// What a fresh frame buffer starts with: room for any of the small
/// fixed-size messages without growing.
const SMALL_FRAME: usize = 64;

/// Encodes a request as one complete frame (length prefix included).
pub fn encode_request(req: &Request) -> Vec<u8> {
    let mut frame = Vec::with_capacity(SMALL_FRAME);
    encode_request_into(req, &mut frame);
    frame
}

/// Encodes a response as one complete frame (length prefix included).
pub fn encode_response(resp: &Response) -> Vec<u8> {
    let mut frame = Vec::with_capacity(SMALL_FRAME);
    encode_response_into(resp, &mut frame);
    frame
}

/// Appends a request to `out` as one complete frame (length prefix
/// included). A connection keeps one `out` for its lifetime and clears it
/// per message, so steady-state encoding allocates nothing.
pub fn encode_request_into(req: &Request, out: &mut Vec<u8>) {
    match req {
        Request::Register { spec } => frame(out, OP_REGISTER, |b| put_spec(b, spec)),
        Request::Deregister { id } => frame(out, OP_DEREGISTER, |b| put_u64(b, *id)),
        Request::Submit { entries } => {
            // The one message that can be large: its grid table is built
            // first, so the frame is sized exactly and even a cold buffer
            // grows once.
            let mut grids = GridTable::default();
            let mut bytes = SUBMIT_HEAD_BYTES;
            let indices: Vec<u32> = entries
                .iter()
                .map(|e| {
                    let known = grids.grids.len();
                    let index = grids.insert(e.curve.grid());
                    bytes += submit_entry_bytes(e.curve.len(), index == known);
                    index as u32
                })
                .collect();
            out.reserve(bytes);
            frame(out, OP_SUBMIT, |b| {
                put_u32(b, entries.len() as u32);
                put_u32(b, grids.grids.len() as u32);
                for grid in &grids.grids {
                    put_u32(b, grid.len() as u32);
                    MissCurve::encode_values(grid, b);
                }
                for (e, index) in entries.iter().zip(indices) {
                    put_u64(b, e.id);
                    put_u32(b, e.tenant);
                    put_u32(b, index);
                    MissCurve::encode_values(e.curve.misses(), b);
                }
            });
        }
        Request::RunEpoch => frame(out, OP_RUN_EPOCH, |_| {}),
        Request::Report { id } => frame(out, OP_REPORT, |b| put_u64(b, *id)),
        Request::Ping => frame(out, OP_PING, |_| {}),
        Request::Health => frame(out, OP_HEALTH, |_| {}),
        Request::Hello => frame(out, OP_HELLO, |_| {}),
        Request::RegisterAt { id, spec } => frame(out, OP_REGISTER_AT, |b| {
            put_u64(b, *id);
            put_spec(b, spec);
        }),
    }
}

/// Appends a response to `out` as one complete frame; see
/// [`encode_request_into`].
pub fn encode_response_into(resp: &Response, out: &mut Vec<u8>) {
    match resp {
        Response::Registered { id } => frame(out, OP_REGISTERED, |b| put_u64(b, *id)),
        Response::Deregistered => frame(out, OP_DEREGISTERED, |_| {}),
        Response::SubmitReply { results } => frame(out, OP_SUBMIT_REPLY, |b| {
            put_u32(b, results.len() as u32);
            for r in results {
                match r {
                    Ok(()) => put_u8(b, 0),
                    Err(e) => {
                        put_u8(b, 1);
                        put_serve_error(b, e);
                    }
                }
            }
        }),
        Response::Epoch(report) => frame(out, OP_EPOCH, |b| {
            put_u64(b, report.epoch);
            put_ids(b, &report.planned);
            put_ids(b, &report.deferred);
            put_u32(b, report.failed.len() as u32);
            for (id, err) in &report.failed {
                put_u64(b, id.value());
                put_serve_error(b, err);
            }
            put_ids(b, &report.quarantined);
            put_u64(b, report.remaining_dirty as u64);
        }),
        Response::Snapshot(summary) => frame(out, OP_SNAPSHOT, |b| match summary {
            None => put_u8(b, 0),
            Some(s) => {
                put_u8(b, 1);
                put_u64(b, s.cache);
                put_u64(b, s.epoch);
                put_u64(b, s.version);
                put_u64(b, s.updates);
                put_u64(b, s.round);
                put_u32(b, s.tenants.len() as u32);
                for t in &s.tenants {
                    put_u64(b, t.capacity);
                    put_f64(b, t.expected_misses);
                    match &t.shadow {
                        None => put_u8(b, 0),
                        Some(sh) => {
                            put_u8(b, 1);
                            put_f64(b, sh.alpha);
                            put_f64(b, sh.beta);
                            put_f64(b, sh.rho);
                        }
                    }
                }
            }
        }),
        Response::Pong => frame(out, OP_PONG, |_| {}),
        Response::Health(h) => frame(out, OP_HEALTH_REPLY, |b| put_plane_health(b, h)),
        Response::Hello(info) => frame(out, OP_HELLO_REPLY, |b| {
            put_u32(b, info.total_shards);
            put_u32(b, info.first_shard);
            put_u32(b, info.shard_count);
            put_u64(b, info.epoch);
            put_u64(b, info.next_id);
            put_plane_health(b, &info.health);
        }),
        Response::Busy => frame(out, OP_BUSY, |_| {}),
        Response::Error(e) => frame(out, OP_ERROR, |b| put_serve_error(b, e)),
    }
}

// ---------------------------------------------------------------------
// Decoding
// ---------------------------------------------------------------------

/// Decodes an id list.
fn read_ids(r: &mut Reader) -> Result<Vec<CacheId>, DecodeError> {
    Ok(r.u64s(WIRE_MAX_IDS)?.into_iter().map(CacheId).collect())
}

fn read_serve_error(r: &mut Reader) -> Result<ServeError, DecodeError> {
    match r.u8()? {
        1 => Ok(ServeError::UnknownCache(CacheId(r.u64()?))),
        4 => Ok(ServeError::Quarantined(CacheId(r.u64()?))),
        5 => Ok(ServeError::Misrouted {
            cache: CacheId(r.u64()?),
            shard: r.u32()? as usize,
        }),
        6 => Ok(ServeError::DuplicateCache(CacheId(r.u64()?))),
        7 => Ok(ServeError::ClusterMint),
        2 => Ok(ServeError::TenantOutOfRange {
            cache: CacheId(r.u64()?),
            tenant: r.u32()? as usize,
            tenants: r.u32()? as usize,
        }),
        3 => {
            let cache = CacheId(r.u64()?);
            let source = match r.u8()? {
                1 => PlanError::SizeOutOfRange {
                    size: r.f64()?,
                    min: r.f64()?,
                    max: r.f64()?,
                },
                2 => PlanError::InvalidSize { size: r.f64()? },
                3 => PlanError::InvalidMargin { margin: r.f64()? },
                _ => return Err(DecodeError::Malformed("unknown plan-error tag")),
            };
            Ok(ServeError::Plan { cache, source })
        }
        _ => Err(DecodeError::Malformed("unknown serve-error tag")),
    }
}

/// Decodes a full [`PlaneHealth`] body (shared by the `Health` reply and
/// the `Hello` reply's embedded health snapshot).
fn read_plane_health(r: &mut Reader) -> Result<PlaneHealth, DecodeError> {
    let epochs = r.u64()?;
    let caches = r.u64()?;
    let pending = r.u64()?;
    let connections = r.u64()?;
    let rejected = r.u64()?;
    let store = match r.u8()? {
        0 => StoreHealth::None,
        1 => StoreHealth::Ok,
        2 => StoreHealth::Faulted,
        _ => return Err(DecodeError::Malformed("unknown store-health tag")),
    };
    let quarantined = r.u64s(WIRE_MAX_IDS)?;
    let shard_count = r.count(WIRE_MAX_SHARDS, 8 + 8 + 8 + 1)?;
    let mut shards = Vec::with_capacity(shard_count);
    for _ in 0..shard_count {
        let caches = r.u64()?;
        let pending = r.u64()?;
        let quarantined = r.u64()?;
        let state = match r.u8()? {
            0 => ShardState::Ok,
            1 => ShardState::Degraded,
            _ => return Err(DecodeError::Malformed("unknown shard-state tag")),
        };
        shards.push(ShardHealth {
            caches,
            pending,
            quarantined,
            state,
        });
    }
    Ok(PlaneHealth {
        epochs,
        caches,
        pending,
        quarantined,
        shards,
        store,
        connections,
        rejected,
    })
}

/// Decodes a request from a frame payload (version byte onward, without
/// the length prefix). Total: returns a typed error on any input.
pub fn decode_request(payload: &[u8]) -> Result<Request, DecodeError> {
    let (opcode, body) = payload_parts(payload, WIRE_VERSION)?;
    let mut r = Reader::new(body);
    let req = match opcode {
        OP_REGISTER => {
            let spec = read_spec(&mut r)?;
            check_register(None, &spec)?;
            Request::Register { spec }
        }
        OP_DEREGISTER => Request::Deregister { id: r.u64()? },
        OP_SUBMIT => {
            // Each entry is at least id + tenant + grid index + one value.
            let count = r.count(WIRE_MAX_BATCH, submit_entry_bytes(1, false))?;
            if count == 0 {
                return Err(DecodeError::Malformed("empty submit batch"));
            }
            // Every grid is some entry's, a new grid's entry is at least
            // its grid's point count and one size more, and the grids come
            // ahead of the entries.
            let grid_count = r.u32()? as usize;
            check_count(grid_count, count as u32)?;
            let least = grid_count * submit_entry_bytes(1, true)
                + (count - grid_count) * submit_entry_bytes(1, false);
            if least > r.remaining() {
                return Err(DecodeError::Truncated);
            }
            let mut grids = Vec::with_capacity(grid_count);
            for _ in 0..grid_count {
                let points = r.count(WIRE_MAX_CURVE_POINTS, MissCurve::VALUE_BYTES)?;
                // `count` checked the frame holds that many sizes.
                let sizes = r.take(points * MissCurve::VALUE_BYTES)?;
                grids.push(MissCurve::decode_grid(sizes).map_err(DecodeError::Curve)?);
            }
            let mut entries = Vec::with_capacity(count);
            // Grids are listed in order of first use, so the encoding is
            // canonical: an entry names a grid already used or the next.
            let mut used = 0;
            for _ in 0..count {
                let id = r.u64()?;
                let tenant = r.u32()?;
                let index = r.u32()? as usize;
                let grid = grids
                    .get(index)
                    .ok_or(DecodeError::Malformed("grid index out of range"))?;
                if index > used {
                    return Err(DecodeError::Malformed("grid used before an earlier one"));
                }
                used += usize::from(index == used);
                let values = r.take(grid.len() * MissCurve::VALUE_BYTES)?;
                entries.push(SubmitEntry {
                    id,
                    tenant,
                    curve: MissCurve::decode_values(grid, values).map_err(DecodeError::Curve)?,
                });
            }
            if used < grids.len() {
                return Err(DecodeError::Malformed("unreferenced grid"));
            }
            Request::Submit { entries }
        }
        OP_RUN_EPOCH => Request::RunEpoch,
        OP_REPORT => Request::Report { id: r.u64()? },
        OP_PING => Request::Ping,
        OP_HEALTH => Request::Health,
        OP_HELLO => Request::Hello,
        OP_REGISTER_AT => {
            let id = r.u64()?;
            let spec = read_spec(&mut r)?;
            check_register(Some(id), &spec)?;
            Request::RegisterAt { id, spec }
        }
        got => return Err(DecodeError::BadTag { got }),
    };
    r.end()?;
    Ok(req)
}

/// Decodes a response from a frame payload (version byte onward, without
/// the length prefix). Total: returns a typed error on any input.
pub fn decode_response(payload: &[u8]) -> Result<Response, DecodeError> {
    let (opcode, body) = payload_parts(payload, WIRE_VERSION)?;
    let mut r = Reader::new(body);
    let resp = match opcode {
        OP_REGISTERED => Response::Registered { id: r.u64()? },
        OP_DEREGISTERED => Response::Deregistered,
        OP_SUBMIT_REPLY => {
            let count = r.count(WIRE_MAX_BATCH, 1)?;
            let mut results = Vec::with_capacity(count);
            for _ in 0..count {
                results.push(match r.u8()? {
                    0 => Ok(()),
                    1 => Err(read_serve_error(&mut r)?),
                    _ => return Err(DecodeError::Malformed("unknown submit-result tag")),
                });
            }
            Response::SubmitReply { results }
        }
        OP_EPOCH => {
            let epoch = r.u64()?;
            let planned = read_ids(&mut r)?;
            let deferred = read_ids(&mut r)?;
            let failures = r.count(WIRE_MAX_IDS, 9)?;
            let mut failed = Vec::with_capacity(failures);
            for _ in 0..failures {
                failed.push((CacheId(r.u64()?), read_serve_error(&mut r)?));
            }
            let quarantined = read_ids(&mut r)?;
            let remaining_dirty = r.u64()? as usize;
            Response::Epoch(EpochReport {
                epoch,
                planned,
                deferred,
                failed,
                quarantined,
                remaining_dirty,
            })
        }
        OP_SNAPSHOT => match r.u8()? {
            0 => Response::Snapshot(None),
            1 => {
                let cache = r.u64()?;
                let epoch = r.u64()?;
                let version = r.u64()?;
                let updates = r.u64()?;
                let round = r.u64()?;
                let count = r.count(WIRE_MAX_TENANTS, 8 + 8 + 1)?;
                let mut tenants = Vec::with_capacity(count);
                for _ in 0..count {
                    let capacity = r.u64()?;
                    let expected_misses = r.f64()?;
                    let shadow = match r.u8()? {
                        0 => None,
                        1 => Some(ShadowSummary {
                            alpha: r.f64()?,
                            beta: r.f64()?,
                            rho: r.f64()?,
                        }),
                        _ => return Err(DecodeError::Malformed("unknown shadow tag")),
                    };
                    tenants.push(TenantSummary {
                        capacity,
                        expected_misses,
                        shadow,
                    });
                }
                Response::Snapshot(Some(SnapshotSummary {
                    cache,
                    epoch,
                    version,
                    updates,
                    round,
                    tenants,
                }))
            }
            _ => return Err(DecodeError::Malformed("unknown snapshot tag")),
        },
        OP_PONG => Response::Pong,
        OP_HEALTH_REPLY => Response::Health(read_plane_health(&mut r)?),
        OP_HELLO_REPLY => {
            let total_shards = r.u32()?;
            let first_shard = r.u32()?;
            let shard_count = r.u32()?;
            if total_shards == 0 || total_shards > WIRE_MAX_SHARDS {
                return Err(DecodeError::BadCount {
                    count: total_shards,
                    max: WIRE_MAX_SHARDS,
                });
            }
            if shard_count == 0 {
                return Err(DecodeError::Malformed("empty shard range"));
            }
            let end = first_shard
                .checked_add(shard_count)
                .ok_or(DecodeError::Malformed("shard range overflows"))?;
            if end > total_shards {
                return Err(DecodeError::Malformed("shard range exceeds total"));
            }
            let epoch = r.u64()?;
            let next_id = r.u64()?;
            let health = read_plane_health(&mut r)?;
            Response::Hello(ClusterInfo {
                total_shards,
                first_shard,
                shard_count,
                epoch,
                next_id,
                health,
            })
        }
        OP_BUSY => Response::Busy,
        OP_ERROR => Response::Error(read_serve_error(&mut r)?),
        got => return Err(DecodeError::BadTag { got }),
    };
    r.end()?;
    Ok(resp)
}

// ---------------------------------------------------------------------
// Framed stream I/O
// ---------------------------------------------------------------------

/// Reads one frame payload (version byte onward) from a stream.
///
/// Returns `Ok(None)` on a clean end-of-stream at a frame boundary;
/// otherwise [`read_frame_into`] with a buffer of its own.
pub fn read_frame(r: &mut impl Read) -> Result<Option<Vec<u8>>, DecodeError> {
    let mut payload = Vec::new();
    Ok(read_frame_into(r, &mut payload)?.then_some(payload))
}

/// Reads one frame payload (version byte onward) from a stream into
/// `payload`, replacing whatever it held: on `Ok(true)` the buffer is
/// exactly the frame. A connection keeps one buffer for its lifetime, so
/// steady-state reads allocate nothing; the buffer never holds more than
/// [`WIRE_MAX_FRAME_LEN`] bytes.
///
/// Returns `Ok(false)` on a clean end-of-stream at a frame boundary. The
/// length prefix is validated against [`WIRE_MAX_FRAME_LEN`] *before*
/// the buffer is sized for it, so a hostile length field costs nothing;
/// end-of-stream mid-frame surfaces as [`DecodeError::Truncated`].
pub fn read_frame_into(r: &mut impl Read, payload: &mut Vec<u8>) -> Result<bool, DecodeError> {
    let mut len_bytes = [0u8; 4];
    // A clean EOF before any length byte means the peer closed between
    // frames; EOF after at least one byte is a truncated frame.
    let mut filled = 0;
    while filled < 4 {
        match r.read(&mut len_bytes[filled..]) {
            Ok(0) if filled == 0 => return Ok(false),
            Ok(0) => return Err(DecodeError::Truncated),
            Ok(n) => filled += n,
            Err(e) if e.kind() == std::io::ErrorKind::Interrupted => continue,
            Err(e) => return Err(e.into()),
        }
    }
    let len = check_len(u32::from_le_bytes(len_bytes), WIRE_MAX_FRAME_LEN)?;
    // Only bytes the buffer has not held before are zeroed; every byte
    // kept is overwritten by the read.
    payload.resize(len, 0);
    r.read_exact(payload)?;
    Ok(true)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn curve() -> MissCurve {
        MissCurve::from_samples(&[0.0, 256.0, 512.0], &[8.0, 4.0, 1.0]).unwrap()
    }

    /// A Submit frame's curves on one size grid decode onto one shared
    /// grid — per frame: the next frame's curves get their own.
    #[test]
    fn a_submit_frames_curves_share_one_grid() {
        use std::sync::Arc;
        let sizes: Vec<f64> = (0..65).map(|i| i as f64 * 1024.0).collect();
        let on = |sizes: &[f64], top: f64| {
            let misses: Vec<f64> = (0..sizes.len()).map(|i| top / (1 + i) as f64).collect();
            MissCurve::from_samples(sizes, &misses).unwrap()
        };
        let entries: Vec<SubmitEntry> = (0..272)
            .map(|i| SubmitEntry {
                id: i / 4,
                tenant: (i % 4) as u32,
                curve: on(&sizes, 8.0 + i as f64),
            })
            .collect();
        let bytes = encode_request(&Request::Submit {
            entries: entries.clone(),
        });
        // One grid table entry, then 272 values-only curves.
        assert_eq!(bytes.len(), 14 + 4 + 8 * 65 + 272 * (16 + 8 * 65));
        let decode = || match decode_request(&bytes[4..]).unwrap() {
            Request::Submit { entries } => entries,
            other => panic!("{other:?}"),
        };
        let got = decode();
        assert_eq!(got, entries);
        let grid = got[0].curve.grid();
        assert!(got.iter().all(|e| Arc::ptr_eq(e.curve.grid(), grid)));
        assert_eq!(
            Arc::strong_count(grid),
            272,
            "the frame's curves, nothing else"
        );
        assert!(!Arc::ptr_eq(decode()[0].curve.grid(), grid));

        // A curve on other sizes in mid-frame gets a table entry of its
        // own; the curves on either side of it share the first.
        let mut mixed = entries;
        mixed[100].curve = on(&sizes[..64], 3.0);
        let bytes = encode_request(&Request::Submit {
            entries: mixed.clone(),
        });
        let Request::Submit { entries: got } = decode_request(&bytes[4..]).unwrap() else {
            panic!("not a submit");
        };
        assert_eq!(got, mixed);
        let grids: Vec<&Arc<[f64]>> = got.iter().map(|e| e.curve.grid()).collect();
        assert_eq!(Arc::strong_count(grids[0]), 271);
        assert_eq!(Arc::strong_count(grids[100]), 1);
        assert!(Arc::ptr_eq(grids[0], grids[101]));
        assert!(!Arc::ptr_eq(grids[0], grids[100]));
    }

    #[test]
    fn frame_layout_is_len_version_opcode() {
        let bytes = encode_request(&Request::Ping);
        assert_eq!(bytes.len(), 6);
        assert_eq!(u32::from_le_bytes(bytes[..4].try_into().unwrap()), 2);
        assert_eq!(bytes[4], WIRE_VERSION);
        assert_eq!(bytes[5], OP_PING);
    }

    #[test]
    fn stream_roundtrip_preserves_messages() {
        let reqs = [
            Request::Register {
                spec: CacheSpec::new(1024, 3),
            },
            Request::Submit {
                entries: vec![SubmitEntry {
                    id: 7,
                    tenant: 2,
                    curve: curve(),
                }],
            },
            Request::RunEpoch,
        ];
        let mut stream = Vec::new();
        for req in &reqs {
            stream.extend_from_slice(&encode_request(req));
        }
        let mut r = &stream[..];
        for req in &reqs {
            let payload = read_frame(&mut r).unwrap().expect("frame present");
            assert_eq!(&decode_request(&payload).unwrap(), req);
        }
        assert!(read_frame(&mut r).unwrap().is_none(), "clean EOF");
    }

    #[test]
    fn oversized_prefix_rejected_before_reading_payload() {
        let mut bytes = Vec::new();
        bytes.extend_from_slice(&(WIRE_MAX_FRAME_LEN + 1).to_le_bytes());
        bytes.extend_from_slice(&[0u8; 8]);
        let mut r = &bytes[..];
        assert_eq!(
            read_frame(&mut r),
            Err(DecodeError::Oversized {
                len: WIRE_MAX_FRAME_LEN + 1,
                max: WIRE_MAX_FRAME_LEN
            })
        );
    }

    #[test]
    fn hostile_counts_never_reserve_memory() {
        // A submit frame declaring u32::MAX entries in a 10-byte body must
        // fail the count check (remaining-bytes bound), not allocate.
        let mut bytes = Vec::new();
        frame(&mut bytes, OP_SUBMIT, |b| put_u32(b, u32::MAX));
        assert_eq!(
            decode_request(&bytes[4..]),
            Err(DecodeError::BadCount {
                count: u32::MAX,
                max: WIRE_MAX_BATCH
            })
        );
        // Within the cap but beyond the body: truncation, pre-allocation.
        let mut bytes = Vec::new();
        frame(&mut bytes, OP_SUBMIT, |b| put_u32(b, WIRE_MAX_BATCH));
        assert_eq!(decode_request(&bytes[4..]), Err(DecodeError::Truncated));
    }

    #[test]
    fn submit_reply_roundtrips_every_error_variant() {
        let resp = Response::SubmitReply {
            results: vec![
                Ok(()),
                Err(ServeError::UnknownCache(CacheId(9))),
                Err(ServeError::TenantOutOfRange {
                    cache: CacheId(3),
                    tenant: 7,
                    tenants: 4,
                }),
                Err(ServeError::Plan {
                    cache: CacheId(5),
                    source: PlanError::SizeOutOfRange {
                        size: 1.5,
                        min: 2.0,
                        max: 8.0,
                    },
                }),
                Err(ServeError::Misrouted {
                    cache: CacheId(11),
                    shard: 3,
                }),
                Err(ServeError::DuplicateCache(CacheId(6))),
                Err(ServeError::ClusterMint),
            ],
        };
        let bytes = encode_response(&resp);
        assert_eq!(decode_response(&bytes[4..]).unwrap(), resp);
    }

    #[test]
    fn hello_roundtrips_and_validates_topology() {
        let req = encode_request(&Request::Hello);
        assert_eq!(decode_request(&req[4..]).unwrap(), Request::Hello);
        let info = ClusterInfo {
            total_shards: 6,
            first_shard: 2,
            shard_count: 2,
            epoch: 41,
            next_id: 17,
            health: PlaneHealth {
                epochs: 41,
                caches: 5,
                pending: 1,
                quarantined: vec![9],
                shards: vec![
                    ShardHealth {
                        caches: 3,
                        pending: 1,
                        quarantined: 1,
                        state: ShardState::Ok,
                    },
                    ShardHealth {
                        caches: 2,
                        pending: 0,
                        quarantined: 0,
                        state: ShardState::Degraded,
                    },
                ],
                store: StoreHealth::Ok,
                connections: 2,
                rejected: 0,
            },
        };
        let resp = Response::Hello(info);
        let bytes = encode_response(&resp);
        assert_eq!(decode_response(&bytes[4..]).unwrap(), resp);

        // A reply whose range overhangs the total is rejected typed.
        let bad = Response::Hello(ClusterInfo {
            total_shards: 4,
            first_shard: 3,
            shard_count: 2,
            ..match decode_response(&bytes[4..]).unwrap() {
                Response::Hello(i) => i,
                _ => unreachable!(),
            }
        });
        let bad_bytes = encode_response(&bad);
        assert_eq!(
            decode_response(&bad_bytes[4..]),
            Err(DecodeError::Malformed("shard range exceeds total"))
        );
    }

    #[test]
    fn an_overlong_quarantined_list_is_cut_where_it_is_written() {
        // One id more than a decoder accepts, spread over two shards.
        let ids: Vec<u64> = (0..=u64::from(WIRE_MAX_IDS)).map(|i| 3 * i + 1).collect();
        let shard = |quarantined| ShardHealth {
            caches: ids.len() as u64,
            pending: 0,
            quarantined,
            state: ShardState::Ok,
        };
        let health = PlaneHealth {
            epochs: 9,
            caches: 2 * ids.len() as u64,
            pending: 0,
            quarantined: ids.clone(),
            shards: vec![shard(ids.len() as u64 - 5), shard(5)],
            store: StoreHealth::None,
            connections: 1,
            rejected: 0,
        };
        let listed = PlaneHealth {
            quarantined: ids[..WIRE_MAX_IDS as usize].to_vec(),
            ..health.clone()
        };
        let info = |health| ClusterInfo {
            total_shards: 2,
            first_shard: 0,
            shard_count: 2,
            epoch: 9,
            next_id: 1,
            health,
        };
        for (sent, received) in [
            (
                Response::Health(health.clone()),
                Response::Health(listed.clone()),
            ),
            (Response::Hello(info(health)), Response::Hello(info(listed))),
        ] {
            let bytes = encode_response(&sent);
            assert!(bytes.len() - 4 <= WIRE_MAX_FRAME_LEN as usize);
            assert_eq!(decode_response(&bytes[4..]), Ok(received));
        }
    }

    #[test]
    fn register_at_roundtrips_and_validates_like_register() {
        let spec = CacheSpec::new(4096, 3);
        let req = Request::RegisterAt { id: 42, spec };
        let bytes = encode_request(&req);
        assert_eq!(decode_request(&bytes[4..]).unwrap(), req);

        let zero_cap = Request::RegisterAt {
            id: 42,
            spec: CacheSpec {
                capacity: 0,
                ..spec
            },
        };
        assert_eq!(
            decode_request(&encode_request(&zero_cap)[4..]),
            Err(DecodeError::Malformed("zero capacity"))
        );
        let too_many = Request::RegisterAt {
            id: 42,
            spec: CacheSpec {
                tenants: WIRE_MAX_TENANTS as usize + 1,
                ..spec
            },
        };
        assert_eq!(
            decode_request(&encode_request(&too_many)[4..]),
            Err(DecodeError::BadCount {
                count: WIRE_MAX_TENANTS + 1,
                max: WIRE_MAX_TENANTS
            })
        );
    }
}
