//! The v2 journal record format: length-prefixed, checksummed,
//! little-endian binary records.
//!
//! Every record on disk is
//!
//! ```text
//! offset  size  field
//! 0       4     payload length N (LE u32), 2 ≤ N ≤ STORE_MAX_RECORD_LEN
//! 4       8     checksum64 of the payload (LE u64)
//! 12      N     payload = [format version (STORE_VERSION = 2)][tag][body]
//! ```
//!
//! The length prefix counts the payload only (version + tag + body).
//! Integers are little-endian; `f64`s are IEEE-754 bit patterns (LE), so
//! curves and plans round-trip bit-exactly. A miss curve encodes as a
//! point count followed by the curve's one byte form
//! ([`MissCurve::encode_points`]); id lists encode as a `u32` count
//! followed by elements — the same conventions as `talus-serve`'s wire
//! protocol, and the same caps from [`talus_core::limits`].
//!
//! ## Decoding is total
//!
//! [`decode_record`] and [`scan`] never panic and never allocate
//! proportionally to untrusted fields:
//!
//! - the length prefix is bounded by [`STORE_MAX_RECORD_LEN`]
//!   *before* anything is read past the header;
//! - every element count is checked against its cap (`WIRE_MAX_*`,
//!   `STORE_MAX_*`) **and** the bytes actually remaining in the payload
//!   *before* any `Vec` is reserved;
//! - curve payloads are re-validated by [`MissCurve::decode_points`],
//!   so a decoded curve upholds every invariant a locally built one
//!   does (a stream's curves on the same size bytes — [`records`],
//!   [`scan`], [`RecordStream`](crate::RecordStream) — share one grid,
//!   validated when its first curve was decoded);
//! - trailing bytes after a well-formed body are an error, so every byte
//!   of an accepted record is accounted for.
//!
//! ## The writer refuses what the reader refuses
//!
//! A record the decoder would refuse must never reach a file: recovery
//! would take it for a torn tail and truncate it *and everything after
//! it*. So the encoders check the same bounds — the point, tenant and
//! cut-id caps, the zero fields, [`STORE_MAX_RECORD_LEN`] — and return
//! the error the decoder would have, leaving the buffer as it was.
//! [`crate::Store`] treats a refusal like a failed write: nothing is
//! appended and the store faults.
//!
//! ## Torn tails
//!
//! Records reach a file whole and in order — one `write_all` of one
//! record, or of every record one registry-lock hold produced (see
//! [`crate::StoreSink::begin`]) — so a crash leaves whole records and
//! then at most one *prefix* of a record at the end of a journal file.
//! [`records`] (and [`scan`], which collects it) stops at the first
//! record that fails to decode (truncated header, short payload,
//! checksum mismatch, …) and reports the valid prefix length; so does
//! [`crate::RecordStream`], which runs the same decoder over a file
//! without holding it in memory, and [`crate::Store::open`] truncates
//! the file there. Torn tails are therefore detected and cleanly
//! ignored, never replayed.
//!
//! ## Versioning rules
//!
//! Every payload starts with the format version byte. Any change to the
//! record layout, the checksum, a tag's body, or the limits it relies on
//! bumps [`STORE_VERSION`]; the golden-bytes fixtures in
//! `tests/journal.rs` pin the v2 encoding so accidental format drift
//! fails CI. v2 differs from v1 in the checksum function (and so in the
//! checksum field and the version byte of every record) and in nothing
//! else.
//!
//! The version byte is read **before** the checksum is verified: the
//! version is what says how to verify. A record of any other version is
//! [`StoreError::BadVersion`], never a checksum failure, and it is not a
//! torn tail — [`crate::Store::open`] refuses the file and leaves it
//! byte-for-byte untouched, so upgrading the binary can never truncate a
//! journal written by another version.

use talus_core::limits::{
    STORE_MAX_CUT_IDS, STORE_MAX_RECORD_LEN, WIRE_MAX_CURVE_POINTS, WIRE_MAX_TENANTS,
};
use talus_core::{CurveError, GridCache, MissCurve, ShadowConfig, TalusOptions, TalusPlan};
use talus_partition::{AllocPolicy, CachePlan, Planner, TenantPlan};

/// On-disk format version carried in every record payload.
pub const STORE_VERSION: u8 = 2;

/// Bytes of framing before a record's payload (length prefix + checksum).
pub const RECORD_HEADER_LEN: usize = 12;

// Record tags.
const TAG_REGISTER: u8 = 0x01;
const TAG_DEREGISTER: u8 = 0x02;
const TAG_CURVE: u8 = 0x03;
const TAG_EPOCH_CUT: u8 = 0x04;
const TAG_PLAN: u8 = 0x05;

// AllocPolicy tags (Plan/Register bodies).
const POLICY_HILL: u8 = 0;
const POLICY_LOOKAHEAD: u8 = 1;
const POLICY_FAIR: u8 = 2;
const POLICY_IMBALANCED: u8 = 3;

// TalusPlan tags (Plan bodies).
const PLAN_UNPARTITIONED: u8 = 0;
const PLAN_SHADOW: u8 = 1;

/// Everything that can go wrong reading or decoding a journal record (or
/// a whole journal). Decode functions return these; they never panic on
/// any input.
#[derive(Debug, Clone, PartialEq)]
pub enum StoreError {
    /// The buffer (or file) ended before the declared record length was
    /// satisfied — the signature of a torn tail.
    Truncated,
    /// The length prefix exceeds [`STORE_MAX_RECORD_LEN`]; rejected
    /// before any allocation.
    Oversized {
        /// The declared payload length.
        len: u32,
    },
    /// The payload's format version is not [`STORE_VERSION`].
    BadVersion {
        /// The version byte read.
        got: u8,
    },
    /// The record tag is not one this decoder knows.
    BadTag {
        /// The tag byte read.
        got: u8,
    },
    /// An element count exceeds its cap (or the bytes remaining in the
    /// payload could not possibly hold that many elements).
    BadCount {
        /// The declared count.
        count: u32,
        /// The cap it violated.
        max: u32,
    },
    /// The payload does not hash to the stored checksum — bit rot or a
    /// torn write inside a pre-existing record.
    Checksum {
        /// Checksum stored in the record header.
        expected: u64,
        /// Checksum of the bytes actually read.
        got: u64,
    },
    /// A curve payload violates [`MissCurve`]'s invariants.
    Curve(CurveError),
    /// A structurally invalid body: bad enum tag, zero field that must
    /// be positive, or trailing bytes after the message.
    Malformed(&'static str),
    /// The underlying file operation failed.
    Io(std::io::ErrorKind),
    /// The on-disk journal directory holds a different number of shard
    /// files than the opener expects.
    ShardLayout {
        /// Highest shard index found on disk, plus one.
        found: usize,
        /// Shard count the opener asked for.
        expected: usize,
    },
}

impl std::fmt::Display for StoreError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            StoreError::Truncated => write!(f, "record truncated"),
            StoreError::Oversized { len } => {
                write!(f, "record length {len} exceeds {STORE_MAX_RECORD_LEN}")
            }
            StoreError::BadVersion { got } => {
                write!(
                    f,
                    "unsupported store version {got} (expected {STORE_VERSION})"
                )
            }
            StoreError::BadTag { got } => write!(f, "unknown record tag {got:#04x}"),
            StoreError::BadCount { count, max } => {
                write!(f, "element count {count} exceeds bound {max}")
            }
            StoreError::Checksum { expected, got } => {
                write!(
                    f,
                    "checksum mismatch: stored {expected:#018x}, computed {got:#018x}"
                )
            }
            StoreError::Curve(e) => write!(f, "invalid curve payload: {e}"),
            StoreError::Malformed(what) => write!(f, "malformed record: {what}"),
            StoreError::Io(kind) => write!(f, "journal io error: {kind}"),
            StoreError::ShardLayout { found, expected } => {
                write!(f, "journal has {found} shard files, expected {expected}")
            }
        }
    }
}

impl std::error::Error for StoreError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            StoreError::Curve(e) => Some(e),
            _ => None,
        }
    }
}

impl From<std::io::Error> for StoreError {
    fn from(e: std::io::Error) -> Self {
        if e.kind() == std::io::ErrorKind::UnexpectedEof {
            StoreError::Truncated
        } else {
            StoreError::Io(e.kind())
        }
    }
}

/// One journaled event. Every variant carries `seq`, the store-global
/// append sequence number — the journal's logical clock. `seq` is
/// monotone within a shard file and unique across the whole store, so
/// interleaving events from different shards by `seq` reconstructs the
/// plane-wide order.
#[derive(Debug, Clone, PartialEq)]
pub enum Record {
    /// A cache was registered under `id` with the given shape.
    Register {
        /// Store-global append sequence number.
        seq: u64,
        /// Raw cache id.
        id: u64,
        /// Capacity budget in lines (positive).
        capacity: u64,
        /// Tenant count (1..=[`WIRE_MAX_TENANTS`]).
        tenants: u32,
        /// The planner configuration the cache was registered with.
        planner: Planner,
    },
    /// A cache was deregistered.
    Deregister {
        /// Store-global append sequence number.
        seq: u64,
        /// Raw cache id.
        id: u64,
    },
    /// One tenant submitted a miss curve.
    Curve {
        /// Store-global append sequence number.
        seq: u64,
        /// Raw cache id.
        id: u64,
        /// Tenant index within the cache.
        tenant: u32,
        /// The submitted curve, bit-exact.
        curve: MissCurve,
    },
    /// One shard drained its dirty queue for one epoch. Written every
    /// epoch, even when nothing was drained, so the plane-wide epoch
    /// counter restores exactly; `drained` lists the popped ids in pop
    /// order (including ids deregistered while queued).
    EpochCut {
        /// Store-global append sequence number.
        seq: u64,
        /// Index of the shard that drained.
        shard: u32,
        /// The plane-wide epoch number.
        epoch: u64,
        /// Cache ids popped from the dirty queue, in order.
        drained: Vec<u64>,
    },
    /// A plan was published for a cache. The full plan body is stored —
    /// not recomputed at restore — because newer curves may already have
    /// been journaled after this plan was computed.
    Plan {
        /// Store-global append sequence number.
        seq: u64,
        /// Raw cache id.
        id: u64,
        /// Epoch that published the plan.
        epoch: u64,
        /// Per-cache plan version after this publication.
        version: u64,
        /// Curve updates folded into the plan.
        updates: u64,
        /// The published plan, bit-exact.
        plan: CachePlan,
    },
}

impl Record {
    /// The store-global append sequence number.
    pub fn seq(&self) -> u64 {
        match self {
            Record::Register { seq, .. }
            | Record::Deregister { seq, .. }
            | Record::Curve { seq, .. }
            | Record::EpochCut { seq, .. }
            | Record::Plan { seq, .. } => *seq,
        }
    }

    /// Short human label for dumps.
    pub fn label(&self) -> &'static str {
        match self {
            Record::Register { .. } => "register",
            Record::Deregister { .. } => "deregister",
            Record::Curve { .. } => "curve",
            Record::EpochCut { .. } => "epoch-cut",
            Record::Plan { .. } => "plan",
        }
    }
}

/// Lanes of [`checksum64`]; a block is one little-endian word per lane.
const LANES: usize = 4;
const BLOCK: usize = 8 * LANES;
/// Odd multipliers (the xxHash64 primes): multiplying by one is a
/// bijection on `u64`.
const MUL_LANE: u64 = 0x9E37_79B1_85EB_CA87;
const MUL_FOLD: u64 = 0xC2B2_AE3D_27D4_EB4F;

/// The per-record checksum (store v2): four independent multiply–rotate
/// lanes over little-endian 64-bit words, then the lanes and the length
/// folded into one word.
///
/// Input is taken in 32-byte blocks, word `i` of a block into lane `i`;
/// a final partial block is zero-padded, and the length fold tells
/// `"ab"` from `"ab\0"`. The four chains do not depend on each other, so
/// a core overlaps them: a 1 KiB curve payload costs tens of
/// nanoseconds where byte-serial FNV-1a ([`fnv1a64`], the v1 checksum)
/// cost over a microsecond.
///
/// Every step is a bijection of the lane it touches (xor, odd multiply,
/// rotate, xor-shift), so any corruption confined to one word — every
/// single-bit and single-byte error — *always* changes the result. Wider
/// damage goes unnoticed only if the changed lanes happen to cancel in
/// the fold: odds of about 2⁻⁶⁴ for damage not crafted against the
/// function. This is corruption *detection*, not authentication.
pub fn checksum64(bytes: &[u8]) -> u64 {
    fn absorb(lanes: &mut [u64; LANES], block: &[u8]) {
        for (lane, bytes) in lanes.iter_mut().zip(block.chunks_exact(8)) {
            let mut word = [0; 8];
            word.copy_from_slice(bytes);
            *lane = (*lane ^ u64::from_le_bytes(word))
                .wrapping_mul(MUL_LANE)
                .rotate_left(29);
        }
    }
    let mut lanes: [u64; LANES] = [
        0x243F_6A88_85A3_08D3,
        0x1319_8A2E_0370_7344,
        0xA409_3822_299F_31D0,
        0x082E_FA98_EC4E_6C89,
    ];
    let mut blocks = bytes.chunks_exact(BLOCK);
    for block in &mut blocks {
        absorb(&mut lanes, block);
    }
    let rest = blocks.remainder();
    if !rest.is_empty() {
        let mut last = [0u8; BLOCK];
        last[..rest.len()].copy_from_slice(rest);
        absorb(&mut lanes, &last);
    }
    let mut sum = (bytes.len() as u64).wrapping_mul(MUL_FOLD);
    for lane in lanes {
        sum = (sum ^ lane).wrapping_mul(MUL_LANE);
        sum ^= sum >> 32;
    }
    sum
}

/// FNV-1a 64 over `bytes` — the v1 record checksum, kept as a small
/// stable digest for callers outside the journal (the repo benchmark
/// fingerprints simulator statistics with it). Records are checksummed
/// with [`checksum64`].
pub fn fnv1a64(bytes: &[u8]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0000_0100_0000_01B3);
    }
    h
}

// ---------------------------------------------------------------------
// Encoding
// ---------------------------------------------------------------------

/// Appends one framed record to a byte buffer: [`framed`] reserves the
/// header and writes version and tag, the field methods append the body,
/// and [`PayloadWriter::finish`] fills the header in — nothing is copied,
/// and the buffer may already hold earlier records. A field method or
/// `finish` may refuse the record; `framed` then takes it back out.
struct PayloadWriter<'a> {
    buf: &'a mut Vec<u8>,
    /// Where this record's header starts in `buf`.
    start: usize,
}

/// Appends the record `body` writes to `out`, or — when a field method or
/// [`PayloadWriter::finish`] refuses it — leaves `out` as it was.
fn framed(
    out: &mut Vec<u8>,
    tag: u8,
    body: impl FnOnce(&mut PayloadWriter) -> Result<(), StoreError>,
) -> Result<(), StoreError> {
    let start = out.len();
    out.extend_from_slice(&[0; RECORD_HEADER_LEN]);
    out.extend_from_slice(&[STORE_VERSION, tag]);
    let mut w = PayloadWriter { buf: out, start };
    let written = body(&mut w).and_then(|()| w.finish());
    if written.is_err() {
        out.truncate(start);
    }
    written
}

/// The bounds on a cache's shape, as both directions enforce them.
fn check_shape(capacity: u64, tenants: u32) -> Result<(), StoreError> {
    if capacity == 0 {
        return Err(StoreError::Malformed("zero capacity"));
    }
    if tenants == 0 {
        return Err(StoreError::Malformed("zero tenants"));
    }
    check_count(tenants, WIRE_MAX_TENANTS)
}

/// A curve record's tenant index must be one a registered cache can have.
fn check_tenant(tenant: u32) -> Result<(), StoreError> {
    check_count(tenant, WIRE_MAX_TENANTS - 1)
}

fn check_count(count: u32, max: u32) -> Result<(), StoreError> {
    if count > max {
        return Err(StoreError::BadCount { count, max });
    }
    Ok(())
}

impl PayloadWriter<'_> {
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

    /// Writes an element count, refusing one over `max` as the reader's
    /// `count` would.
    fn count(&mut self, count: usize, max: u32) -> Result<(), StoreError> {
        let count = u32::try_from(count).unwrap_or(u32::MAX);
        check_count(count, max)?;
        self.u32(count);
        Ok(())
    }

    fn curve(&mut self, curve: &MissCurve) -> Result<(), StoreError> {
        self.count(curve.len(), WIRE_MAX_CURVE_POINTS)?;
        curve.encode_points(self.buf);
        Ok(())
    }

    fn policy(&mut self, policy: AllocPolicy) {
        self.u8(match policy {
            AllocPolicy::Hill => POLICY_HILL,
            AllocPolicy::Lookahead => POLICY_LOOKAHEAD,
            AllocPolicy::Fair => POLICY_FAIR,
            AllocPolicy::Imbalanced => POLICY_IMBALANCED,
        });
    }

    fn plan(&mut self, plan: &CachePlan) -> Result<(), StoreError> {
        self.u64(plan.round);
        if plan.tenants.is_empty() {
            return Err(StoreError::Malformed("plan with zero tenants"));
        }
        self.count(plan.tenants.len(), WIRE_MAX_TENANTS)?;
        for t in &plan.tenants {
            self.u64(t.capacity);
            match &t.plan {
                TalusPlan::Unpartitioned {
                    size,
                    expected_misses,
                } => {
                    self.u8(PLAN_UNPARTITIONED);
                    self.f64(*size);
                    self.f64(*expected_misses);
                }
                TalusPlan::Shadow(cfg) => {
                    self.u8(PLAN_SHADOW);
                    self.f64(cfg.total);
                    self.f64(cfg.alpha);
                    self.f64(cfg.beta);
                    self.f64(cfg.rho);
                    self.f64(cfg.ideal_rho);
                    self.f64(cfg.s1);
                    self.f64(cfg.s2);
                    self.f64(cfg.expected_misses);
                }
            }
        }
        Ok(())
    }

    /// Frames the payload in place: fills `[len][checksum64]` into the
    /// header reserved in front of it. Refuses a payload over
    /// [`STORE_MAX_RECORD_LEN`], as the reader would.
    fn finish(self) -> Result<(), StoreError> {
        let (header, payload) = self.buf[self.start..].split_at_mut(RECORD_HEADER_LEN);
        let len = u32::try_from(payload.len()).unwrap_or(u32::MAX);
        if len > STORE_MAX_RECORD_LEN {
            return Err(StoreError::Oversized { len });
        }
        header[..4].copy_from_slice(&len.to_le_bytes());
        header[4..].copy_from_slice(&checksum64(payload).to_le_bytes());
        Ok(())
    }
}

/// Encodes one record as a complete framed byte string (length prefix
/// and checksum included).
///
/// # Panics
///
/// Panics if [`decode_record`] would refuse the record; use
/// [`encode_record_into`] where that can happen.
pub fn encode_record(rec: &Record) -> Vec<u8> {
    let mut out = Vec::new();
    encode_record_into(rec, &mut out).expect("record within the format's bounds"); // audited: documented panic of the convenience form; the journal path is fallible
    out
}

/// Appends one record to `out` as a complete framed byte string.
///
/// # Errors
///
/// The error [`decode_record`] would give for the encoded record — a
/// count over its cap, a zero field, a payload over
/// [`STORE_MAX_RECORD_LEN`] — with `out` left exactly as it was: the
/// writer refuses what the reader refuses.
pub fn encode_record_into(rec: &Record, out: &mut Vec<u8>) -> Result<(), StoreError> {
    match rec {
        Record::Register {
            seq,
            id,
            capacity,
            tenants,
            planner,
        } => encode_register(out, *seq, *id, *capacity, *tenants, planner),
        Record::Deregister { seq, id } => encode_deregister(out, *seq, *id),
        Record::Curve {
            seq,
            id,
            tenant,
            curve,
        } => encode_curve(out, *seq, *id, *tenant, curve),
        Record::EpochCut {
            seq,
            shard,
            epoch,
            drained,
        } => encode_epoch_cut(out, *seq, *shard, *epoch, drained),
        Record::Plan {
            seq,
            id,
            epoch,
            version,
            updates,
            plan,
        } => encode_plan(out, *seq, *id, *epoch, *version, *updates, plan),
    }
}

// The by-parts encoders below let the live sink journal straight from
// borrowed service state into a shard's write buffer: each appends one
// framed record to `out`, without cloning curves or plans into a Record
// and without a buffer of its own — or refuses it, as `encode_record_into`
// documents.

pub(crate) fn encode_register(
    out: &mut Vec<u8>,
    seq: u64,
    id: u64,
    capacity: u64,
    tenants: u32,
    planner: &Planner,
) -> Result<(), StoreError> {
    framed(out, TAG_REGISTER, |w| {
        check_shape(capacity, tenants)?;
        if planner.grain == 0 {
            return Err(StoreError::Malformed("zero planner grain"));
        }
        w.u64(seq);
        w.u64(id);
        w.u64(capacity);
        w.u32(tenants);
        w.u64(planner.grain);
        w.f64(planner.options.safety_margin);
        w.f64(planner.options.vertex_tolerance);
        w.policy(planner.policy);
        w.u8(planner.convexify as u8);
        Ok(())
    })
}

pub(crate) fn encode_deregister(out: &mut Vec<u8>, seq: u64, id: u64) -> Result<(), StoreError> {
    framed(out, TAG_DEREGISTER, |w| {
        w.u64(seq);
        w.u64(id);
        Ok(())
    })
}

pub(crate) fn encode_curve(
    out: &mut Vec<u8>,
    seq: u64,
    id: u64,
    tenant: u32,
    curve: &MissCurve,
) -> Result<(), StoreError> {
    framed(out, TAG_CURVE, |w| {
        check_tenant(tenant)?;
        w.u64(seq);
        w.u64(id);
        w.u32(tenant);
        w.curve(curve)
    })
}

pub(crate) fn encode_epoch_cut(
    out: &mut Vec<u8>,
    seq: u64,
    shard: u32,
    epoch: u64,
    drained: &[u64],
) -> Result<(), StoreError> {
    framed(out, TAG_EPOCH_CUT, |w| {
        w.u64(seq);
        w.u32(shard);
        w.u64(epoch);
        w.count(drained.len(), STORE_MAX_CUT_IDS)?;
        for id in drained {
            w.u64(*id);
        }
        Ok(())
    })
}

pub(crate) fn encode_plan(
    out: &mut Vec<u8>,
    seq: u64,
    id: u64,
    epoch: u64,
    version: u64,
    updates: u64,
    plan: &CachePlan,
) -> Result<(), StoreError> {
    framed(out, TAG_PLAN, |w| {
        w.u64(seq);
        w.u64(id);
        w.u64(epoch);
        w.u64(version);
        w.u64(updates);
        w.plan(plan)
    })
}

// ---------------------------------------------------------------------
// Decoding
// ---------------------------------------------------------------------

/// A bounds-checked cursor over one record payload. Every read method
/// fails with [`StoreError::Truncated`] instead of slicing out of range.
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

    fn take(&mut self, n: usize) -> Result<&'a [u8], StoreError> {
        if self.remaining() < n {
            return Err(StoreError::Truncated);
        }
        let slice = &self.buf[self.pos..self.pos + n];
        self.pos += n;
        Ok(slice)
    }

    fn u8(&mut self) -> Result<u8, StoreError> {
        Ok(self.take(1)?[0])
    }

    fn u32(&mut self) -> Result<u32, StoreError> {
        // take(4) returned exactly 4 bytes, so the array conversion
        // below is infallible.
        Ok(u32::from_le_bytes(self.take(4)?.try_into().expect("4"))) // audited: slice is 4 bytes
    }

    fn u64(&mut self) -> Result<u64, StoreError> {
        Ok(u64::from_le_bytes(self.take(8)?.try_into().expect("8"))) // audited: slice is 8 bytes
    }

    fn f64(&mut self) -> Result<f64, StoreError> {
        Ok(f64::from_bits(self.u64()?))
    }

    /// Reads an element count, rejecting it if it exceeds `cap` or if
    /// the payload cannot possibly hold `count` elements of at least
    /// `min_elem_bytes` each — checked *before* any allocation, so a
    /// hostile count never reserves memory.
    fn count(&mut self, cap: u32, min_elem_bytes: usize) -> Result<usize, StoreError> {
        let count = self.u32()?;
        check_count(count, cap)?;
        if (count as usize).saturating_mul(min_elem_bytes) > self.remaining() {
            return Err(StoreError::Truncated);
        }
        Ok(count as usize)
    }

    fn curve(&mut self, grids: &mut GridCache) -> Result<MissCurve, StoreError> {
        let points = self.count(WIRE_MAX_CURVE_POINTS, MissCurve::POINT_BYTES)?;
        // `count` checked the payload holds that many points.
        let body = self.take(points * MissCurve::POINT_BYTES)?;
        MissCurve::decode_points(body, grids).map_err(StoreError::Curve)
    }

    fn policy(&mut self) -> Result<AllocPolicy, StoreError> {
        match self.u8()? {
            POLICY_HILL => Ok(AllocPolicy::Hill),
            POLICY_LOOKAHEAD => Ok(AllocPolicy::Lookahead),
            POLICY_FAIR => Ok(AllocPolicy::Fair),
            POLICY_IMBALANCED => Ok(AllocPolicy::Imbalanced),
            _ => Err(StoreError::Malformed("unknown policy tag")),
        }
    }

    fn plan(&mut self) -> Result<CachePlan, StoreError> {
        let round = self.u64()?;
        // Each tenant is at least capacity + tag + two f64 fields.
        let count = self.count(WIRE_MAX_TENANTS, 8 + 1 + 16)?;
        if count == 0 {
            return Err(StoreError::Malformed("plan with zero tenants"));
        }
        let mut tenants = Vec::with_capacity(count);
        for _ in 0..count {
            let capacity = self.u64()?;
            let plan = match self.u8()? {
                PLAN_UNPARTITIONED => TalusPlan::Unpartitioned {
                    size: self.f64()?,
                    expected_misses: self.f64()?,
                },
                PLAN_SHADOW => TalusPlan::Shadow(ShadowConfig {
                    total: self.f64()?,
                    alpha: self.f64()?,
                    beta: self.f64()?,
                    rho: self.f64()?,
                    ideal_rho: self.f64()?,
                    s1: self.f64()?,
                    s2: self.f64()?,
                    expected_misses: self.f64()?,
                }),
                _ => return Err(StoreError::Malformed("unknown plan tag")),
            };
            tenants.push(TenantPlan { capacity, plan });
        }
        Ok(CachePlan { round, tenants })
    }

    /// Asserts the payload was fully consumed: accepted records account
    /// for every byte.
    fn end(self) -> Result<(), StoreError> {
        if self.remaining() != 0 {
            return Err(StoreError::Malformed("trailing bytes after record"));
        }
        Ok(())
    }
}

/// Bytes (header + payload) the record framed at the head of `buf`
/// declares, once its header is there and its length prefix is one the
/// format allows — so at most `RECORD_HEADER_LEN + STORE_MAX_RECORD_LEN`.
/// [`StoreError::Truncated`] means only that the header is not all there
/// yet; the other errors are final whatever follows.
pub(crate) fn framed_len(buf: &[u8]) -> Result<usize, StoreError> {
    if buf.len() < RECORD_HEADER_LEN {
        return Err(StoreError::Truncated);
    }
    let len = u32::from_le_bytes(buf[0..4].try_into().expect("4")); // audited: header present
    if len > STORE_MAX_RECORD_LEN {
        return Err(StoreError::Oversized { len });
    }
    if len < 2 {
        return Err(StoreError::Malformed("record shorter than its header"));
    }
    Ok(RECORD_HEADER_LEN + len as usize)
}

/// Decodes the record framed at the head of `buf`; returns it and the
/// total bytes it occupied (header + payload). Total: returns a typed
/// error on any input, [`StoreError::Truncated`] when `buf` ends before
/// the record does.
pub fn decode_record(buf: &[u8]) -> Result<(Record, usize), StoreError> {
    decode_record_in(buf, &mut GridCache::default())
}

/// [`decode_record`] for a reader that decodes a stream of records: a
/// curve record's curve shares the grid of the last curve decoded through
/// `grids` when its sizes are that grid's, bit for bit — so the curves a
/// restore replays hold one grid between them, not one each.
pub(crate) fn decode_record_in(
    buf: &[u8],
    grids: &mut GridCache,
) -> Result<(Record, usize), StoreError> {
    let total = framed_len(buf)?;
    let expected = u64::from_le_bytes(buf[4..12].try_into().expect("8")); // audited: framed_len saw the header
    if buf.len() < total {
        return Err(StoreError::Truncated);
    }
    let payload = &buf[RECORD_HEADER_LEN..total];
    // The version says how the rest is verified, so it is read before
    // the checksum: a record of another version is reported as that,
    // never as a checksum failure (which recovery would take for a torn
    // tail and truncate). `len >= 2` put the byte there.
    if payload[0] != STORE_VERSION {
        return Err(StoreError::BadVersion { got: payload[0] });
    }
    let got = checksum64(payload);
    if got != expected {
        return Err(StoreError::Checksum { expected, got });
    }
    Ok((decode_payload(payload, grids)?, total))
}

/// Decodes one payload (version and checksum already verified).
fn decode_payload(payload: &[u8], grids: &mut GridCache) -> Result<Record, StoreError> {
    // `decode_record` guarantees at least the version byte and tag.
    let tag = payload[1];
    let mut r = Reader::new(&payload[2..]);
    let rec = match tag {
        TAG_REGISTER => {
            let seq = r.u64()?;
            let id = r.u64()?;
            let capacity = r.u64()?;
            let tenants = r.u32()?;
            check_shape(capacity, tenants)?;
            let grain = r.u64()?;
            if grain == 0 {
                return Err(StoreError::Malformed("zero planner grain"));
            }
            let options = TalusOptions {
                safety_margin: r.f64()?,
                vertex_tolerance: r.f64()?,
            };
            let policy = r.policy()?;
            let convexify = match r.u8()? {
                0 => false,
                1 => true,
                _ => return Err(StoreError::Malformed("convexify flag not 0/1")),
            };
            let mut planner = Planner::new(grain)
                .with_policy(policy)
                .with_options(options);
            if !convexify {
                planner = planner.raw_curves();
            }
            Record::Register {
                seq,
                id,
                capacity,
                tenants,
                planner,
            }
        }
        TAG_DEREGISTER => Record::Deregister {
            seq: r.u64()?,
            id: r.u64()?,
        },
        TAG_CURVE => {
            let seq = r.u64()?;
            let id = r.u64()?;
            let tenant = r.u32()?;
            check_tenant(tenant)?;
            Record::Curve {
                seq,
                id,
                tenant,
                curve: r.curve(grids)?,
            }
        }
        TAG_EPOCH_CUT => {
            let seq = r.u64()?;
            let shard = r.u32()?;
            let epoch = r.u64()?;
            let count = r.count(STORE_MAX_CUT_IDS, 8)?;
            let mut drained = Vec::with_capacity(count);
            for _ in 0..count {
                drained.push(r.u64()?);
            }
            Record::EpochCut {
                seq,
                shard,
                epoch,
                drained,
            }
        }
        TAG_PLAN => Record::Plan {
            seq: r.u64()?,
            id: r.u64()?,
            epoch: r.u64()?,
            version: r.u64()?,
            updates: r.u64()?,
            plan: r.plan()?,
        },
        got => return Err(StoreError::BadTag { got }),
    };
    r.end()?;
    Ok(rec)
}

/// The result of scanning a journal byte stream with [`scan`].
#[derive(Debug, Clone, PartialEq)]
pub struct Scan {
    /// Every record in the valid prefix, in file order.
    pub records: Vec<Record>,
    /// Bytes of the valid prefix (where a recovering opener truncates).
    pub consumed: usize,
    /// Why the scan stopped before the end of the stream, if it did
    /// (`None` = the stream ended exactly at a record boundary).
    pub tail: Option<StoreError>,
}

/// A borrowing iterator over the records of a journal byte stream: it
/// decodes one record per `next` and stops for good at the first
/// undecodable byte. Once it has returned `None`,
/// [`consumed`](Records::consumed) is the length of the valid prefix and
/// [`tail`](Records::tail) says why the stream ended there. Never
/// panics; nothing is held but the record being decoded. For bytes that
/// are still in a file, [`crate::RecordStream`] does the same without
/// reading the file whole.
#[derive(Debug)]
pub struct Records<'a> {
    buf: &'a [u8],
    consumed: usize,
    tail: Option<StoreError>,
    /// The stream's curves share a grid while their sizes do.
    grids: GridCache,
}

/// Iterates the records of a journal byte stream; see [`Records`].
pub fn records(buf: &[u8]) -> Records<'_> {
    Records {
        buf,
        consumed: 0,
        tail: None,
        grids: GridCache::default(),
    }
}

impl Records<'_> {
    /// Bytes of the records returned so far — the whole valid prefix
    /// once the iterator is exhausted.
    pub fn consumed(&self) -> usize {
        self.consumed
    }

    /// Why iteration stopped before the end of the stream, if it did
    /// (`None` = still going, or the stream ended exactly at a record
    /// boundary).
    pub fn tail(&self) -> Option<&StoreError> {
        self.tail.as_ref()
    }
}

impl Iterator for Records<'_> {
    type Item = Record;

    fn next(&mut self) -> Option<Record> {
        if self.tail.is_some() || self.consumed == self.buf.len() {
            return None;
        }
        match decode_record_in(&self.buf[self.consumed..], &mut self.grids) {
            Ok((rec, used)) => {
                self.consumed += used;
                Some(rec)
            }
            Err(e) => {
                self.tail = Some(e);
                None
            }
        }
    }
}

/// Scans a journal byte stream record by record, stopping at the first
/// undecodable byte. Never panics; the valid prefix plus the tail
/// diagnosis is the recovery contract — everything before `consumed` is
/// intact, everything after is a torn tail to drop. This is [`records`]
/// collected.
pub fn scan(buf: &[u8]) -> Scan {
    let mut iter = records(buf);
    let records = iter.by_ref().collect();
    Scan {
        records,
        consumed: iter.consumed,
        tail: iter.tail,
    }
}
