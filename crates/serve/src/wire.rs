//! The v4 wire protocol: length-prefixed, little-endian binary frames
//! for curve ingest, epoch control, plane health, and cluster topology.
//!
//! Every frame is
//!
//! ```text
//! offset  size  field
//! 0       4     payload length N (LE u32), 2 ≤ N ≤ WIRE_MAX_FRAME_LEN
//! 4       1     protocol version (WIRE_VERSION = 4)
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
//!   buffer is allocated;
//! - every element count is checked against both its protocol cap
//!   (`WIRE_MAX_*`) and the bytes actually remaining in the frame
//!   *before* any `Vec` is reserved;
//! - a Submit's grids are validated by [`MissCurve::decode_grid`] and
//!   its curves by [`MissCurve::decode_values`], so a decoded curve
//!   upholds every invariant a locally built one does; the curves on one
//!   table entry share its grid, validated once;
//! - trailing bytes after a well-formed body are an error, so every byte
//!   of an accepted frame is accounted for.
//!
//! All failures surface as the typed [`WireError`]; the adversarial
//! suite in `tests/wire.rs` drives truncations, oversized prefixes,
//! wrong versions, garbage opcodes, and random byte soup through the
//! decoder and asserts typed errors throughout.
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
//! v4 (this version) over v3: the Submit body above — a grid table and
//! values-only curves, where v3 sent every curve as a point count and
//! `(size, misses)` pairs. Every other frame is v3's but for its version
//! byte.

use std::io::Read;
use std::sync::Arc;

use crate::service::{EpochReport, ServeError};
use crate::snapshot::{CacheId, PlanSnapshot, RESERVED_ID};
use talus_core::limits::{
    WIRE_MAX_BATCH, WIRE_MAX_CURVE_POINTS, WIRE_MAX_FRAME_LEN, WIRE_MAX_IDS, WIRE_MAX_SHARDS,
    WIRE_MAX_TENANTS,
};
use talus_core::{
    CurveError, MissCurve, PlanError, PlaneHealth, ShardHealth, ShardState, StoreHealth,
};

/// Protocol version carried in every frame header.
pub const WIRE_VERSION: u8 = 4;

/// Bytes a Submit entry occupies besides its miss values: id, tenant and
/// grid index.
pub(crate) const SUBMIT_ENTRY_BYTES: usize = 8 + 4 + 4;

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

/// Everything that can go wrong reading or decoding a frame. Decode
/// functions return these; they never panic on any input.
#[derive(Debug, Clone, PartialEq)]
pub enum WireError {
    /// The stream ended (or the frame ran out of bytes) before the
    /// declared length was satisfied.
    Truncated,
    /// The length prefix exceeds [`WIRE_MAX_FRAME_LEN`]; rejected before
    /// any allocation.
    Oversized {
        /// The declared payload length.
        len: u32,
    },
    /// The frame's version byte is not [`WIRE_VERSION`].
    BadVersion {
        /// The version byte received.
        got: u8,
    },
    /// The opcode is not one this decoder knows.
    BadOpcode {
        /// The opcode byte received.
        got: u8,
    },
    /// An element count exceeds its protocol cap (or the bytes remaining
    /// in the frame could not possibly hold that many elements).
    BadCount {
        /// The declared count.
        count: u32,
        /// The cap it violated.
        max: u32,
    },
    /// A curve payload violates [`MissCurve`]'s invariants.
    Curve(CurveError),
    /// A structurally invalid body: bad enum tag, zero field that must be
    /// positive, or trailing bytes after the message.
    Malformed(&'static str),
    /// The underlying stream failed.
    Io(std::io::ErrorKind),
}

impl std::fmt::Display for WireError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            WireError::Truncated => write!(f, "frame truncated"),
            WireError::Oversized { len } => {
                write!(f, "frame length {len} exceeds {WIRE_MAX_FRAME_LEN}")
            }
            WireError::BadVersion { got } => {
                write!(
                    f,
                    "unsupported wire version {got} (expected {WIRE_VERSION})"
                )
            }
            WireError::BadOpcode { got } => write!(f, "unknown opcode {got:#04x}"),
            WireError::BadCount { count, max } => {
                write!(f, "element count {count} exceeds bound {max}")
            }
            WireError::Curve(e) => write!(f, "invalid curve payload: {e}"),
            WireError::Malformed(what) => write!(f, "malformed frame: {what}"),
            WireError::Io(kind) => write!(f, "stream error: {kind}"),
        }
    }
}

impl std::error::Error for WireError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            WireError::Curve(e) => Some(e),
            _ => None,
        }
    }
}

impl From<std::io::Error> for WireError {
    fn from(e: std::io::Error) -> Self {
        if e.kind() == std::io::ErrorKind::UnexpectedEof {
            WireError::Truncated
        } else {
            WireError::Io(e.kind())
        }
    }
}

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
    /// Register a logical cache (default planner at `capacity/64` grain).
    Register {
        /// Capacity budget in lines (positive).
        capacity: u64,
        /// Tenant count (1..=[`WIRE_MAX_TENANTS`]).
        tenants: u32,
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
        /// Capacity budget in lines (positive).
        capacity: u64,
        /// Tenant count (1..=[`WIRE_MAX_TENANTS`]).
        tenants: u32,
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

/// Appends one frame to a caller's buffer: [`FrameWriter::new`] reserves
/// the 4-byte length prefix, the field methods append the body, and
/// [`FrameWriter::finish`] fills the prefix in. The buffer may already
/// hold earlier bytes; they are left alone.
struct FrameWriter<'a> {
    buf: &'a mut Vec<u8>,
    /// Where this frame's length prefix starts in `buf`.
    start: usize,
}

impl<'a> FrameWriter<'a> {
    fn new(buf: &'a mut Vec<u8>, opcode: u8) -> Self {
        let start = buf.len();
        buf.extend_from_slice(&[0, 0, 0, 0, WIRE_VERSION, opcode]);
        FrameWriter { buf, start }
    }

    fn u8(&mut self, v: u8) {
        self.buf.push(v);
    }

    fn u32(&mut self, v: u32) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    fn u64(&mut self, v: u64) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    fn f64(&mut self, v: f64) {
        self.buf.extend_from_slice(&v.to_bits().to_le_bytes());
    }

    fn ids(&mut self, ids: &[CacheId]) {
        self.u32(ids.len() as u32);
        for id in ids {
            self.u64(id.value());
        }
    }

    fn serve_error(&mut self, e: &ServeError) {
        match e {
            ServeError::UnknownCache(id) => {
                self.u8(1);
                self.u64(id.value());
            }
            ServeError::TenantOutOfRange {
                cache,
                tenant,
                tenants,
            } => {
                self.u8(2);
                self.u64(cache.value());
                self.u32(*tenant as u32);
                self.u32(*tenants as u32);
            }
            ServeError::Quarantined(id) => {
                self.u8(4);
                self.u64(id.value());
            }
            ServeError::Misrouted { cache, shard } => {
                self.u8(5);
                self.u64(cache.value());
                self.u32(*shard as u32);
            }
            ServeError::DuplicateCache(id) => {
                self.u8(6);
                self.u64(id.value());
            }
            ServeError::ClusterMint => self.u8(7),
            ServeError::Plan { cache, source } => {
                self.u8(3);
                self.u64(cache.value());
                match source {
                    PlanError::SizeOutOfRange { size, min, max } => {
                        self.u8(1);
                        self.f64(*size);
                        self.f64(*min);
                        self.f64(*max);
                    }
                    PlanError::InvalidSize { size } => {
                        self.u8(2);
                        self.f64(*size);
                    }
                    PlanError::InvalidMargin { margin } => {
                        self.u8(3);
                        self.f64(*margin);
                    }
                }
            }
        }
    }

    /// Encodes a full [`PlaneHealth`] body (shared by the `Health` reply
    /// and the `Hello` reply's embedded health snapshot).
    fn plane_health(&mut self, h: &PlaneHealth) {
        self.u64(h.epochs);
        self.u64(h.caches);
        self.u64(h.pending);
        self.u64(h.connections);
        self.u64(h.rejected);
        self.u8(match h.store {
            StoreHealth::None => 0,
            StoreHealth::Ok => 1,
            StoreHealth::Faulted => 2,
        });
        // The list is cumulative, so a long-lived plane can outgrow what a
        // decoder accepts: send the lowest ids of the ascending list. The
        // per-shard counts below still carry the true total.
        let listed = &h.quarantined[..h.quarantined.len().min(WIRE_MAX_IDS as usize)];
        self.u32(listed.len() as u32);
        for id in listed {
            self.u64(*id);
        }
        self.u32(h.shards.len() as u32);
        for s in &h.shards {
            self.u64(s.caches);
            self.u64(s.pending);
            self.u64(s.quarantined);
            self.u8(match s.state {
                ShardState::Ok => 0,
                ShardState::Degraded => 1,
            });
        }
    }

    /// Fills in the length prefix. The length is not checked here: the
    /// encoders are total, so tests can build frames a decoder must
    /// refuse, and a sender checks the finished frame against
    /// [`WIRE_MAX_FRAME_LEN`] before writing it (`RpcClient` does).
    fn finish(self) {
        let len = (self.buf.len() - self.start - 4) as u32;
        self.buf[self.start..self.start + 4].copy_from_slice(&len.to_le_bytes());
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
    let mut w;
    match req {
        Request::Register { capacity, tenants } => {
            w = FrameWriter::new(out, OP_REGISTER);
            w.u64(*capacity);
            w.u32(*tenants);
        }
        Request::Deregister { id } => {
            w = FrameWriter::new(out, OP_DEREGISTER);
            w.u64(*id);
        }
        Request::Submit { entries } => {
            // The one message that can be large: its grid table is built
            // first, so the frame is sized exactly and even a cold buffer
            // grows once. Prefix, header, batch and grid counts are 14
            // bytes; a grid is its point count and sizes, an entry is id +
            // tenant + grid index + miss values.
            let mut grids = GridTable::default();
            let indices: Vec<u32> = entries
                .iter()
                .map(|e| grids.insert(e.curve.grid()) as u32)
                .collect();
            let values: usize = grids.grids.iter().map(|g| g.len()).sum::<usize>()
                + entries.iter().map(|e| e.curve.len()).sum::<usize>();
            out.reserve(
                14 + 4 * grids.grids.len()
                    + SUBMIT_ENTRY_BYTES * entries.len()
                    + MissCurve::VALUE_BYTES * values,
            );
            w = FrameWriter::new(out, OP_SUBMIT);
            w.u32(entries.len() as u32);
            w.u32(grids.grids.len() as u32);
            for grid in &grids.grids {
                w.u32(grid.len() as u32);
                MissCurve::encode_values(grid, w.buf);
            }
            for (e, index) in entries.iter().zip(indices) {
                w.u64(e.id);
                w.u32(e.tenant);
                w.u32(index);
                MissCurve::encode_values(e.curve.misses(), w.buf);
            }
        }
        Request::RunEpoch => w = FrameWriter::new(out, OP_RUN_EPOCH),
        Request::Report { id } => {
            w = FrameWriter::new(out, OP_REPORT);
            w.u64(*id);
        }
        Request::Ping => w = FrameWriter::new(out, OP_PING),
        Request::Health => w = FrameWriter::new(out, OP_HEALTH),
        Request::Hello => w = FrameWriter::new(out, OP_HELLO),
        Request::RegisterAt {
            id,
            capacity,
            tenants,
        } => {
            w = FrameWriter::new(out, OP_REGISTER_AT);
            w.u64(*id);
            w.u64(*capacity);
            w.u32(*tenants);
        }
    }
    w.finish()
}

/// Appends a response to `out` as one complete frame; see
/// [`encode_request_into`].
pub fn encode_response_into(resp: &Response, out: &mut Vec<u8>) {
    let mut w;
    match resp {
        Response::Registered { id } => {
            w = FrameWriter::new(out, OP_REGISTERED);
            w.u64(*id);
        }
        Response::Deregistered => w = FrameWriter::new(out, OP_DEREGISTERED),
        Response::SubmitReply { results } => {
            w = FrameWriter::new(out, OP_SUBMIT_REPLY);
            w.u32(results.len() as u32);
            for r in results {
                match r {
                    Ok(()) => w.u8(0),
                    Err(e) => {
                        w.u8(1);
                        w.serve_error(e);
                    }
                }
            }
        }
        Response::Epoch(report) => {
            w = FrameWriter::new(out, OP_EPOCH);
            w.u64(report.epoch);
            w.ids(&report.planned);
            w.ids(&report.deferred);
            w.u32(report.failed.len() as u32);
            for (id, err) in &report.failed {
                w.u64(id.value());
                w.serve_error(err);
            }
            w.ids(&report.quarantined);
            w.u64(report.remaining_dirty as u64);
        }
        Response::Snapshot(summary) => {
            w = FrameWriter::new(out, OP_SNAPSHOT);
            match summary {
                None => w.u8(0),
                Some(s) => {
                    w.u8(1);
                    w.u64(s.cache);
                    w.u64(s.epoch);
                    w.u64(s.version);
                    w.u64(s.updates);
                    w.u64(s.round);
                    w.u32(s.tenants.len() as u32);
                    for t in &s.tenants {
                        w.u64(t.capacity);
                        w.f64(t.expected_misses);
                        match &t.shadow {
                            None => w.u8(0),
                            Some(sh) => {
                                w.u8(1);
                                w.f64(sh.alpha);
                                w.f64(sh.beta);
                                w.f64(sh.rho);
                            }
                        }
                    }
                }
            }
        }
        Response::Pong => w = FrameWriter::new(out, OP_PONG),
        Response::Health(h) => {
            w = FrameWriter::new(out, OP_HEALTH_REPLY);
            w.plane_health(h);
        }
        Response::Hello(info) => {
            w = FrameWriter::new(out, OP_HELLO_REPLY);
            w.u32(info.total_shards);
            w.u32(info.first_shard);
            w.u32(info.shard_count);
            w.u64(info.epoch);
            w.u64(info.next_id);
            w.plane_health(&info.health);
        }
        Response::Busy => w = FrameWriter::new(out, OP_BUSY),
        Response::Error(e) => {
            w = FrameWriter::new(out, OP_ERROR);
            w.serve_error(e);
        }
    }
    w.finish()
}

// ---------------------------------------------------------------------
// Decoding
// ---------------------------------------------------------------------

/// A bounds-checked cursor over one frame payload. Every read method
/// fails with [`WireError::Truncated`] instead of slicing out of range.
struct Reader<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> Reader<'a> {
    fn new(buf: &'a [u8]) -> Self {
        Reader { buf, pos: 0 }
    }

    fn remaining(&self) -> usize {
        self.buf.len() - self.pos
    }

    fn take(&mut self, n: usize) -> Result<&'a [u8], WireError> {
        if self.remaining() < n {
            return Err(WireError::Truncated);
        }
        let slice = &self.buf[self.pos..self.pos + n];
        self.pos += n;
        Ok(slice)
    }

    fn u8(&mut self) -> Result<u8, WireError> {
        Ok(self.take(1)?[0])
    }

    fn u32(&mut self) -> Result<u32, WireError> {
        let bytes = self.take(4)?.try_into().map_err(|_| WireError::Truncated)?;
        Ok(u32::from_le_bytes(bytes))
    }

    fn u64(&mut self) -> Result<u64, WireError> {
        let bytes = self.take(8)?.try_into().map_err(|_| WireError::Truncated)?;
        Ok(u64::from_le_bytes(bytes))
    }

    fn f64(&mut self) -> Result<f64, WireError> {
        Ok(f64::from_bits(self.u64()?))
    }

    /// Reads an element count, rejecting it if it exceeds `cap` or if
    /// the frame cannot possibly hold `count` elements of at least
    /// `min_elem_bytes` each — checked *before* any allocation, so a
    /// hostile count never reserves memory.
    fn count(&mut self, cap: u32, min_elem_bytes: usize) -> Result<usize, WireError> {
        let count = self.u32()?;
        if count > cap {
            return Err(WireError::BadCount { count, max: cap });
        }
        if (count as usize).saturating_mul(min_elem_bytes) > self.remaining() {
            return Err(WireError::Truncated);
        }
        Ok(count as usize)
    }

    fn ids(&mut self) -> Result<Vec<CacheId>, WireError> {
        let count = self.count(WIRE_MAX_IDS, 8)?;
        let mut ids = Vec::with_capacity(count);
        for _ in 0..count {
            ids.push(CacheId(self.u64()?));
        }
        Ok(ids)
    }

    fn serve_error(&mut self) -> Result<ServeError, WireError> {
        match self.u8()? {
            1 => Ok(ServeError::UnknownCache(CacheId(self.u64()?))),
            4 => Ok(ServeError::Quarantined(CacheId(self.u64()?))),
            5 => Ok(ServeError::Misrouted {
                cache: CacheId(self.u64()?),
                shard: self.u32()? as usize,
            }),
            6 => Ok(ServeError::DuplicateCache(CacheId(self.u64()?))),
            7 => Ok(ServeError::ClusterMint),
            2 => Ok(ServeError::TenantOutOfRange {
                cache: CacheId(self.u64()?),
                tenant: self.u32()? as usize,
                tenants: self.u32()? as usize,
            }),
            3 => {
                let cache = CacheId(self.u64()?);
                let source = match self.u8()? {
                    1 => PlanError::SizeOutOfRange {
                        size: self.f64()?,
                        min: self.f64()?,
                        max: self.f64()?,
                    },
                    2 => PlanError::InvalidSize { size: self.f64()? },
                    3 => PlanError::InvalidMargin {
                        margin: self.f64()?,
                    },
                    _ => return Err(WireError::Malformed("unknown plan-error tag")),
                };
                Ok(ServeError::Plan { cache, source })
            }
            _ => Err(WireError::Malformed("unknown serve-error tag")),
        }
    }

    /// Decodes a full [`PlaneHealth`] body (shared by the `Health` reply
    /// and the `Hello` reply's embedded health snapshot).
    fn plane_health(&mut self) -> Result<PlaneHealth, WireError> {
        let epochs = self.u64()?;
        let caches = self.u64()?;
        let pending = self.u64()?;
        let connections = self.u64()?;
        let rejected = self.u64()?;
        let store = match self.u8()? {
            0 => StoreHealth::None,
            1 => StoreHealth::Ok,
            2 => StoreHealth::Faulted,
            _ => return Err(WireError::Malformed("unknown store-health tag")),
        };
        let quarantined_count = self.count(WIRE_MAX_IDS, 8)?;
        let mut quarantined = Vec::with_capacity(quarantined_count);
        for _ in 0..quarantined_count {
            quarantined.push(self.u64()?);
        }
        let shard_count = self.count(WIRE_MAX_SHARDS, 8 + 8 + 8 + 1)?;
        let mut shards = Vec::with_capacity(shard_count);
        for _ in 0..shard_count {
            let caches = self.u64()?;
            let pending = self.u64()?;
            let quarantined = self.u64()?;
            let state = match self.u8()? {
                0 => ShardState::Ok,
                1 => ShardState::Degraded,
                _ => return Err(WireError::Malformed("unknown shard-state tag")),
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

    /// Asserts the body was fully consumed: accepted frames account for
    /// every byte.
    fn end(self) -> Result<(), WireError> {
        if self.remaining() != 0 {
            return Err(WireError::Malformed("trailing bytes after message"));
        }
        Ok(())
    }
}

/// Splits a frame payload into `(opcode, body)`, validating the version.
fn frame_parts(payload: &[u8]) -> Result<(u8, &[u8]), WireError> {
    if payload.len() < 2 {
        return Err(WireError::Truncated);
    }
    if payload[0] != WIRE_VERSION {
        return Err(WireError::BadVersion { got: payload[0] });
    }
    Ok((payload[1], &payload[2..]))
}

/// Decodes a request from a frame payload (version byte onward, without
/// the length prefix). Total: returns a typed error on any input.
pub fn decode_request(payload: &[u8]) -> Result<Request, WireError> {
    let (opcode, body) = frame_parts(payload)?;
    let mut r = Reader::new(body);
    let req = match opcode {
        OP_REGISTER => {
            let capacity = r.u64()?;
            let tenants = r.u32()?;
            if capacity == 0 {
                return Err(WireError::Malformed("zero capacity"));
            }
            if tenants == 0 {
                return Err(WireError::Malformed("zero tenants"));
            }
            if tenants > WIRE_MAX_TENANTS {
                return Err(WireError::BadCount {
                    count: tenants,
                    max: WIRE_MAX_TENANTS,
                });
            }
            Request::Register { capacity, tenants }
        }
        OP_DEREGISTER => Request::Deregister { id: r.u64()? },
        OP_SUBMIT => {
            // Each entry is at least id + tenant + grid index + one value.
            let count = r.count(WIRE_MAX_BATCH, SUBMIT_ENTRY_BYTES + MissCurve::VALUE_BYTES)?;
            if count == 0 {
                return Err(WireError::Malformed("empty submit batch"));
            }
            // Every grid is some entry's, and at least a point count and
            // one size, all ahead of the entries.
            let grid_count = r.u32()?;
            if grid_count as usize > count {
                return Err(WireError::BadCount {
                    count: grid_count,
                    max: count as u32,
                });
            }
            let grid_count = grid_count as usize;
            let least = grid_count * (4 + MissCurve::VALUE_BYTES)
                + count * (SUBMIT_ENTRY_BYTES + MissCurve::VALUE_BYTES);
            if least > r.remaining() {
                return Err(WireError::Truncated);
            }
            let mut grids = Vec::with_capacity(grid_count);
            for _ in 0..grid_count {
                let points = r.count(WIRE_MAX_CURVE_POINTS, MissCurve::VALUE_BYTES)?;
                // `count` checked the frame holds that many sizes.
                let sizes = r.take(points * MissCurve::VALUE_BYTES)?;
                grids.push(MissCurve::decode_grid(sizes).map_err(WireError::Curve)?);
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
                    .ok_or(WireError::Malformed("grid index out of range"))?;
                if index > used {
                    return Err(WireError::Malformed("grid used before an earlier one"));
                }
                used += usize::from(index == used);
                let values = r.take(grid.len() * MissCurve::VALUE_BYTES)?;
                entries.push(SubmitEntry {
                    id,
                    tenant,
                    curve: MissCurve::decode_values(grid, values).map_err(WireError::Curve)?,
                });
            }
            if used < grids.len() {
                return Err(WireError::Malformed("unreferenced grid"));
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
            let capacity = r.u64()?;
            let tenants = r.u32()?;
            if id == RESERVED_ID {
                return Err(WireError::Malformed("reserved cache id"));
            }
            if capacity == 0 {
                return Err(WireError::Malformed("zero capacity"));
            }
            if tenants == 0 {
                return Err(WireError::Malformed("zero tenants"));
            }
            if tenants > WIRE_MAX_TENANTS {
                return Err(WireError::BadCount {
                    count: tenants,
                    max: WIRE_MAX_TENANTS,
                });
            }
            Request::RegisterAt {
                id,
                capacity,
                tenants,
            }
        }
        got => return Err(WireError::BadOpcode { got }),
    };
    r.end()?;
    Ok(req)
}

/// Decodes a response from a frame payload (version byte onward, without
/// the length prefix). Total: returns a typed error on any input.
pub fn decode_response(payload: &[u8]) -> Result<Response, WireError> {
    let (opcode, body) = frame_parts(payload)?;
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
                    1 => Err(r.serve_error()?),
                    _ => return Err(WireError::Malformed("unknown submit-result tag")),
                });
            }
            Response::SubmitReply { results }
        }
        OP_EPOCH => {
            let epoch = r.u64()?;
            let planned = r.ids()?;
            let deferred = r.ids()?;
            let failures = r.count(WIRE_MAX_IDS, 9)?;
            let mut failed = Vec::with_capacity(failures);
            for _ in 0..failures {
                failed.push((CacheId(r.u64()?), r.serve_error()?));
            }
            let quarantined = r.ids()?;
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
                        _ => return Err(WireError::Malformed("unknown shadow tag")),
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
            _ => return Err(WireError::Malformed("unknown snapshot tag")),
        },
        OP_PONG => Response::Pong,
        OP_HEALTH_REPLY => Response::Health(r.plane_health()?),
        OP_HELLO_REPLY => {
            let total_shards = r.u32()?;
            let first_shard = r.u32()?;
            let shard_count = r.u32()?;
            if total_shards == 0 || total_shards > WIRE_MAX_SHARDS {
                return Err(WireError::BadCount {
                    count: total_shards,
                    max: WIRE_MAX_SHARDS,
                });
            }
            if shard_count == 0 {
                return Err(WireError::Malformed("empty shard range"));
            }
            let end = first_shard
                .checked_add(shard_count)
                .ok_or(WireError::Malformed("shard range overflows"))?;
            if end > total_shards {
                return Err(WireError::Malformed("shard range exceeds total"));
            }
            let epoch = r.u64()?;
            let next_id = r.u64()?;
            let health = r.plane_health()?;
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
        OP_ERROR => Response::Error(r.serve_error()?),
        got => return Err(WireError::BadOpcode { got }),
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
pub fn read_frame(r: &mut impl Read) -> Result<Option<Vec<u8>>, WireError> {
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
/// end-of-stream mid-frame surfaces as [`WireError::Truncated`].
pub fn read_frame_into(r: &mut impl Read, payload: &mut Vec<u8>) -> Result<bool, WireError> {
    let mut len_bytes = [0u8; 4];
    // A clean EOF before any length byte means the peer closed between
    // frames; EOF after at least one byte is a truncated frame.
    let mut filled = 0;
    while filled < 4 {
        match r.read(&mut len_bytes[filled..]) {
            Ok(0) if filled == 0 => return Ok(false),
            Ok(0) => return Err(WireError::Truncated),
            Ok(n) => filled += n,
            Err(e) if e.kind() == std::io::ErrorKind::Interrupted => continue,
            Err(e) => return Err(e.into()),
        }
    }
    let len = u32::from_le_bytes(len_bytes);
    if len > WIRE_MAX_FRAME_LEN {
        return Err(WireError::Oversized { len });
    }
    if len < 2 {
        return Err(WireError::Malformed("frame shorter than its header"));
    }
    // Only bytes the buffer has not held before are zeroed; every byte
    // kept is overwritten by the read.
    payload.resize(len as usize, 0);
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
                capacity: 1024,
                tenants: 3,
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
            Err(WireError::Oversized {
                len: WIRE_MAX_FRAME_LEN + 1
            })
        );
    }

    #[test]
    fn hostile_counts_never_reserve_memory() {
        // A submit frame declaring u32::MAX entries in a 10-byte body must
        // fail the count check (remaining-bytes bound), not allocate.
        let mut frame = Vec::new();
        let mut w = FrameWriter::new(&mut frame, OP_SUBMIT);
        w.u32(u32::MAX);
        w.finish();
        assert_eq!(
            decode_request(&frame[4..]),
            Err(WireError::BadCount {
                count: u32::MAX,
                max: WIRE_MAX_BATCH
            })
        );
        // Within the cap but beyond the body: truncation, pre-allocation.
        let mut frame = Vec::new();
        let mut w = FrameWriter::new(&mut frame, OP_SUBMIT);
        w.u32(WIRE_MAX_BATCH);
        w.finish();
        assert_eq!(decode_request(&frame[4..]), Err(WireError::Truncated));
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
            Err(WireError::Malformed("shard range exceeds total"))
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
        let req = Request::RegisterAt {
            id: 42,
            capacity: 4096,
            tenants: 3,
        };
        let bytes = encode_request(&req);
        assert_eq!(decode_request(&bytes[4..]).unwrap(), req);

        let zero_cap = Request::RegisterAt {
            id: 42,
            capacity: 0,
            tenants: 3,
        };
        assert_eq!(
            decode_request(&encode_request(&zero_cap)[4..]),
            Err(WireError::Malformed("zero capacity"))
        );
        let too_many = Request::RegisterAt {
            id: 42,
            capacity: 64,
            tenants: WIRE_MAX_TENANTS + 1,
        };
        assert_eq!(
            decode_request(&encode_request(&too_many)[4..]),
            Err(WireError::BadCount {
                count: WIRE_MAX_TENANTS + 1,
                max: WIRE_MAX_TENANTS
            })
        );
    }

    #[test]
    fn wire_errors_display_and_source() {
        let e = WireError::Curve(CurveError::Empty);
        assert!(!e.to_string().is_empty());
        assert!(std::error::Error::source(&e).is_some());
        for e in [
            WireError::Truncated,
            WireError::Oversized { len: 1 << 30 },
            WireError::BadVersion { got: 9 },
            WireError::BadOpcode { got: 0x7F },
            WireError::BadCount { count: 5, max: 4 },
            WireError::Malformed("x"),
            WireError::Io(std::io::ErrorKind::ConnectionReset),
        ] {
            assert!(!e.to_string().is_empty());
        }
    }
}
