//! The v3 journal record format: length-prefixed, checksummed,
//! little-endian binary records.
//!
//! Every record on disk is
//!
//! ```text
//! offset  size  field
//! 0       4     payload length N (LE u32), 2 ≤ N ≤ STORE_MAX_RECORD_LEN
//! 4       8     checksum64 of the payload (LE u64)
//! 12      N     payload = [format version (STORE_VERSION = 3)][tag][body]
//! ```
//!
//! The length prefix counts the payload only (version + tag + body).
//! Fields are written and read through [`talus_core::codec`] — the
//! bounds-checked `Reader` and `put_*` appends `talus-serve`'s wire
//! protocol uses too — so integers are little-endian and `f64`s IEEE-754
//! bit patterns (LE), and curves and plans round-trip bit-exactly. A miss
//! curve encodes as a `u32` point count, then its sizes, then its miss
//! values, each run in the values form the wire protocol sends
//! ([`MissCurve::encode_values`]); id lists encode as a `u32` count
//! followed by elements, with the same caps from [`talus_core::limits`].
//!
//! ## Decoding is total
//!
//! [`decode_record`] and [`scan`] never panic and never allocate
//! proportionally to untrusted fields:
//!
//! - the length prefix is bounded by [`STORE_MAX_RECORD_LEN`]
//!   *before* anything is read past the header, and the version byte
//!   checked, by the codec checks the wire makes too (`check_len`,
//!   `payload_parts`);
//! - every element count is checked by the shared `Reader` against its
//!   cap (`WIRE_MAX_*`, `STORE_MAX_*`) **and** the bytes actually
//!   remaining in the payload *before* any `Vec` is reserved;
//! - curve payloads are re-validated by [`MissCurve::decode_grid`] and
//!   [`MissCurve::decode_values`], the wire's decoders, so a decoded
//!   curve upholds every invariant a locally built one does (a stream's
//!   curves on the same size bytes — [`records`], [`scan`],
//!   [`RecordStream`](crate::RecordStream) — share one grid, validated
//!   when its first curve was decoded);
//! - trailing bytes after a well-formed body are an error (the shared
//!   `Reader`'s `end`), so every byte of an accepted record is accounted
//!   for.
//!
//! A record that fails to decode is a [`StoreError::Decode`] holding the
//! [`DecodeError`] a wire frame fails with too, with the journal's caps
//! (`max`) and version (`want`) in it; only a checksum mismatch
//! ([`StoreError::Checksum`]) is the journal's own.
//!
//! ## The writer refuses what the reader refuses
//!
//! A record the decoder would refuse must never reach a file: recovery
//! would take it for a torn tail and truncate it *and everything after
//! it*. So the encoders check the same bounds, with the same functions
//! (`codec::check_count`, `codec::check_len`, and for a spec
//! `talus_partition::check_spec`) — the point, tenant and cut-id caps, the
//! zero fields, [`STORE_MAX_RECORD_LEN`] — and return the [`DecodeError`] the decoder
//! would have, leaving the buffer as it was.
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
//! `tests/journal.rs` pin the v3 encoding so accidental format drift
//! fails CI. v2 changed the checksum function and nothing else; v3
//! writes a curve's sizes and then its miss values, where v1 and v2
//! interleaved them point by point, in as many bytes.
//!
//! The version byte is read **before** the checksum is verified: the
//! version is what says how to verify. A record of any other version is
//! [`DecodeError::BadVersion`], never a checksum failure, and it is not a
//! torn tail — [`crate::Store::open`] refuses the file and leaves it
//! byte-for-byte untouched, so upgrading the binary can never truncate a
//! journal written by another version.

use talus_core::codec::{
    check_count, check_len, payload_parts, put_f64, put_u32, put_u64, put_u8, DecodeError, Reader,
};
use talus_core::limits::{
    STORE_MAX_CUT_IDS, STORE_MAX_RECORD_LEN, WIRE_MAX_CURVE_POINTS, WIRE_MAX_TENANTS,
};
use talus_core::{CurveError, Grid, MissCurve, ShadowConfig, TalusPlan};
use talus_partition::{check_spec, put_spec, read_spec, CachePlan, CacheSpec, TenantPlan};

/// On-disk format version carried in every record payload.
pub const STORE_VERSION: u8 = 3;

/// Bytes of framing before a record's payload (length prefix + checksum).
pub const RECORD_HEADER_LEN: usize = 12;

// Record tags.
const TAG_REGISTER: u8 = 0x01;
const TAG_DEREGISTER: u8 = 0x02;
const TAG_CURVE: u8 = 0x03;
const TAG_EPOCH_CUT: u8 = 0x04;
const TAG_PLAN: u8 = 0x05;

// TalusPlan tags (Plan bodies).
const PLAN_UNPARTITIONED: u8 = 0;
const PLAN_SHADOW: u8 = 1;

/// Everything that can go wrong reading or writing a journal. A record
/// that fails to decode, and a file operation that fails, is the
/// [`DecodeError`] the wire's decoder fails with too, with the journal's
/// caps and version in it; the other failures are the journal's alone.
/// Decode functions return these; they never panic on any input.
#[derive(Debug, Clone, PartialEq)]
pub enum StoreError {
    /// A record failed to decode — [`DecodeError::Truncated`] is the
    /// signature of a torn tail, [`DecodeError::BadVersion`] a file of
    /// another format version — or a read or write failed
    /// ([`DecodeError::Io`]).
    Decode(DecodeError),
    /// The payload does not hash to the stored checksum — bit rot or a
    /// torn write inside a pre-existing record.
    Checksum {
        /// Checksum stored in the record header.
        expected: u64,
        /// Checksum of the bytes actually read.
        got: u64,
    },
    /// The on-disk journal directory holds a different number of shard
    /// files than the opener expects.
    ShardLayout {
        /// Highest shard index found on disk, plus one.
        found: usize,
        /// Shard count the opener asked for.
        expected: usize,
    },
    /// The writer refused an append that no record caused: an injected
    /// fault, a record for a shard this store does not own, or an epoch
    /// cut for a shard it does not have.
    Fault(&'static str),
}

impl std::fmt::Display for StoreError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            StoreError::Decode(e) => write!(f, "journal: {e}"),
            StoreError::Checksum { expected, got } => {
                write!(
                    f,
                    "checksum mismatch: stored {expected:#018x}, computed {got:#018x}"
                )
            }
            StoreError::ShardLayout { found, expected } => {
                write!(f, "journal has {found} shard files, expected {expected}")
            }
            StoreError::Fault(what) => write!(f, "journal writer fault: {what}"),
        }
    }
}

impl std::error::Error for StoreError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            StoreError::Decode(e) => Some(e),
            _ => None,
        }
    }
}

impl From<DecodeError> for StoreError {
    fn from(e: DecodeError) -> Self {
        StoreError::Decode(e)
    }
}

impl From<std::io::Error> for StoreError {
    fn from(e: std::io::Error) -> Self {
        StoreError::Decode(e.into())
    }
}

/// One journaled event. Every variant carries `seq`, the store-global
/// append sequence number — the journal's logical clock. `seq` is
/// monotone within a shard file and unique across the whole store, so
/// interleaving events from different shards by `seq` reconstructs the
/// plane-wide order.
#[derive(Debug, Clone, PartialEq)]
pub enum Record {
    /// A cache was registered under `id` with the given spec.
    Register {
        /// Store-global append sequence number.
        seq: u64,
        /// Raw cache id.
        id: u64,
        /// The cache's capacity, tenants and planner, as
        /// [`check_spec`] bounds them: any margin a local caller gave
        /// is recorded and read back as it was.
        spec: CacheSpec,
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

/// Appends the record `body` writes to `out`: reserves the header, writes
/// version and tag, lets `body` append the fields, then fills the header
/// in — nothing is copied, and `out` may already hold earlier records. A
/// record `body` or the length cap refuses is taken back out, leaving
/// `out` as it was.
fn framed(
    out: &mut Vec<u8>,
    tag: u8,
    body: impl FnOnce(&mut Vec<u8>) -> Result<(), DecodeError>,
) -> Result<(), DecodeError> {
    let start = out.len();
    out.extend_from_slice(&[0; RECORD_HEADER_LEN]);
    out.extend_from_slice(&[STORE_VERSION, tag]);
    let written = body(out).and_then(|()| fill_header(&mut out[start..]));
    if written.is_err() {
        out.truncate(start);
    }
    written
}

/// Frames the payload in place: fills `[len][checksum64]` into the header
/// reserved in front of it. Refuses a payload over
/// [`STORE_MAX_RECORD_LEN`], as the reader would.
fn fill_header(record: &mut [u8]) -> Result<(), DecodeError> {
    let (header, payload) = record.split_at_mut(RECORD_HEADER_LEN);
    let len = u32::try_from(payload.len()).unwrap_or(u32::MAX);
    check_len(len, STORE_MAX_RECORD_LEN)?;
    header[..4].copy_from_slice(&len.to_le_bytes());
    header[4..].copy_from_slice(&checksum64(payload).to_le_bytes());
    Ok(())
}

/// A curve record's tenant index must be one a registered cache can have.
fn check_tenant(tenant: u32) -> Result<(), DecodeError> {
    check_count(tenant as usize, WIRE_MAX_TENANTS - 1).map(drop)
}

/// Writes an element count, refusing one over `max` as the reader's
/// `count` would.
fn put_count(out: &mut Vec<u8>, count: usize, max: u32) -> Result<(), DecodeError> {
    put_u32(out, check_count(count, max)?);
    Ok(())
}

fn put_curve(out: &mut Vec<u8>, curve: &MissCurve) -> Result<(), DecodeError> {
    put_count(out, curve.len(), WIRE_MAX_CURVE_POINTS)?;
    MissCurve::encode_values(curve.sizes(), out);
    MissCurve::encode_values(curve.misses(), out);
    Ok(())
}

fn put_plan(out: &mut Vec<u8>, plan: &CachePlan) -> Result<(), DecodeError> {
    put_u64(out, plan.round);
    if plan.tenants.is_empty() {
        return Err(DecodeError::Malformed("plan with zero tenants"));
    }
    put_count(out, plan.tenants.len(), WIRE_MAX_TENANTS)?;
    for t in &plan.tenants {
        put_u64(out, t.capacity);
        match &t.plan {
            TalusPlan::Unpartitioned {
                size,
                expected_misses,
            } => {
                put_u8(out, PLAN_UNPARTITIONED);
                put_f64(out, *size);
                put_f64(out, *expected_misses);
            }
            TalusPlan::Shadow(cfg) => {
                put_u8(out, PLAN_SHADOW);
                put_f64(out, cfg.total);
                put_f64(out, cfg.alpha);
                put_f64(out, cfg.beta);
                put_f64(out, cfg.rho);
                put_f64(out, cfg.ideal_rho);
                put_f64(out, cfg.s1);
                put_f64(out, cfg.s2);
                put_f64(out, cfg.expected_misses);
            }
        }
    }
    Ok(())
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
/// The [`DecodeError`] [`decode_record`] would give for the encoded
/// record — a count over its cap, a zero field, a payload over
/// [`STORE_MAX_RECORD_LEN`] — with `out` left exactly as it was: the
/// writer refuses what the reader refuses.
pub fn encode_record_into(rec: &Record, out: &mut Vec<u8>) -> Result<(), DecodeError> {
    match rec {
        Record::Register { seq, id, spec } => encode_register(out, *seq, *id, spec),
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
    spec: &CacheSpec,
) -> Result<(), DecodeError> {
    framed(out, TAG_REGISTER, |buf| {
        check_spec(spec)?;
        put_u64(buf, seq);
        put_u64(buf, id);
        put_spec(buf, spec);
        Ok(())
    })
}

pub(crate) fn encode_deregister(out: &mut Vec<u8>, seq: u64, id: u64) -> Result<(), DecodeError> {
    framed(out, TAG_DEREGISTER, |buf| {
        put_u64(buf, seq);
        put_u64(buf, id);
        Ok(())
    })
}

pub(crate) fn encode_curve(
    out: &mut Vec<u8>,
    seq: u64,
    id: u64,
    tenant: u32,
    curve: &MissCurve,
) -> Result<(), DecodeError> {
    framed(out, TAG_CURVE, |buf| {
        check_tenant(tenant)?;
        put_u64(buf, seq);
        put_u64(buf, id);
        put_u32(buf, tenant);
        put_curve(buf, curve)
    })
}

pub(crate) fn encode_epoch_cut(
    out: &mut Vec<u8>,
    seq: u64,
    shard: u32,
    epoch: u64,
    drained: &[u64],
) -> Result<(), DecodeError> {
    framed(out, TAG_EPOCH_CUT, |buf| {
        put_u64(buf, seq);
        put_u32(buf, shard);
        put_u64(buf, epoch);
        put_count(buf, drained.len(), STORE_MAX_CUT_IDS)?;
        for id in drained {
            put_u64(buf, *id);
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
) -> Result<(), DecodeError> {
    framed(out, TAG_PLAN, |buf| {
        put_u64(buf, seq);
        put_u64(buf, id);
        put_u64(buf, epoch);
        put_u64(buf, version);
        put_u64(buf, updates);
        put_plan(buf, plan)
    })
}

// ---------------------------------------------------------------------
// Decoding
// ---------------------------------------------------------------------

/// What a stream's reader remembers between curve records: the grid of
/// the last one and the bytes it was decoded from. A next curve whose
/// size bytes are these, bit for bit, shares the grid — neither
/// allocated nor validated again — so the curves a restore replays hold
/// one grid between them, not one each.
#[derive(Debug, Default)]
pub(crate) struct LastGrid {
    sizes: Vec<u8>,
    grid: Option<Grid>,
}

impl LastGrid {
    /// The grid `sizes` encode: the remembered one if they are its bytes,
    /// else a newly decoded one, remembered from then on.
    fn of(&mut self, sizes: &[u8]) -> Result<&Grid, CurveError> {
        let grid = match self.grid.take() {
            Some(grid) if self.sizes == sizes => grid,
            _ => {
                let grid = MissCurve::decode_grid(sizes)?;
                self.sizes.clear();
                self.sizes.extend_from_slice(sizes);
                grid
            }
        };
        Ok(self.grid.insert(grid))
    }
}

fn read_curve(r: &mut Reader, last: &mut LastGrid) -> Result<MissCurve, DecodeError> {
    // A point is a size and a miss value; `count` checked they are there.
    let points = r.count(WIRE_MAX_CURVE_POINTS, 2 * MissCurve::VALUE_BYTES)?;
    let sizes = r.take(points * MissCurve::VALUE_BYTES)?;
    let values = r.take(points * MissCurve::VALUE_BYTES)?;
    let grid = last.of(sizes).map_err(DecodeError::Curve)?;
    MissCurve::decode_values(grid, values).map_err(DecodeError::Curve)
}

fn read_plan(r: &mut Reader) -> Result<CachePlan, DecodeError> {
    let round = r.u64()?;
    // Each tenant is at least capacity + tag + two f64 fields.
    let count = r.count(WIRE_MAX_TENANTS, 8 + 1 + 16)?;
    if count == 0 {
        return Err(DecodeError::Malformed("plan with zero tenants"));
    }
    let mut tenants = Vec::with_capacity(count);
    for _ in 0..count {
        let capacity = r.u64()?;
        let plan = match r.u8()? {
            PLAN_UNPARTITIONED => TalusPlan::Unpartitioned {
                size: r.f64()?,
                expected_misses: r.f64()?,
            },
            PLAN_SHADOW => TalusPlan::Shadow(ShadowConfig {
                total: r.f64()?,
                alpha: r.f64()?,
                beta: r.f64()?,
                rho: r.f64()?,
                ideal_rho: r.f64()?,
                s1: r.f64()?,
                s2: r.f64()?,
                expected_misses: r.f64()?,
            }),
            _ => return Err(DecodeError::Malformed("unknown plan tag")),
        };
        tenants.push(TenantPlan { capacity, plan });
    }
    Ok(CachePlan { round, tenants })
}

/// Bytes (header + payload) the record framed at the head of `buf`
/// declares, once its header is there and its length prefix is one the
/// format allows — so at most `RECORD_HEADER_LEN + STORE_MAX_RECORD_LEN`.
/// [`DecodeError::Truncated`] means only that the header is not all there
/// yet; the other errors are final whatever follows.
pub(crate) fn framed_len(buf: &[u8]) -> Result<usize, DecodeError> {
    if buf.len() < RECORD_HEADER_LEN {
        return Err(DecodeError::Truncated);
    }
    let len = u32::from_le_bytes(buf[0..4].try_into().expect("4")); // audited: header present
    Ok(RECORD_HEADER_LEN + check_len(len, STORE_MAX_RECORD_LEN)?)
}

/// Decodes the record framed at the head of `buf`; returns it and the
/// total bytes it occupied (header + payload). Total: returns a typed
/// error on any input, a [`StoreError::Decode`] of
/// [`DecodeError::Truncated`] when `buf` ends before the record does.
pub fn decode_record(buf: &[u8]) -> Result<(Record, usize), StoreError> {
    decode_record_in(buf, &mut LastGrid::default())
}

/// [`decode_record`] for a reader of a stream of records, which shares
/// grids through `last`.
pub(crate) fn decode_record_in(
    buf: &[u8],
    last: &mut LastGrid,
) -> Result<(Record, usize), StoreError> {
    let total = framed_len(buf)?;
    let expected = u64::from_le_bytes(buf[4..12].try_into().expect("8")); // audited: framed_len saw the header
    let payload = buf
        .get(RECORD_HEADER_LEN..total)
        .ok_or(DecodeError::Truncated)?;
    // The version says how the rest is verified, so it is read before
    // the checksum: a record of another version is reported as that,
    // never as a checksum failure (which recovery would take for a torn
    // tail and truncate).
    let (tag, body) = payload_parts(payload, STORE_VERSION)?;
    let got = checksum64(payload);
    if got != expected {
        return Err(StoreError::Checksum { expected, got });
    }
    Ok((decode_body(tag, body, last)?, total))
}

/// Decodes one record body (version and checksum already verified).
fn decode_body(tag: u8, body: &[u8], last: &mut LastGrid) -> Result<Record, DecodeError> {
    let mut r = Reader::new(body);
    let rec = match tag {
        TAG_REGISTER => {
            let (seq, id, spec) = (r.u64()?, r.u64()?, read_spec(&mut r)?);
            check_spec(&spec)?;
            Record::Register { seq, id, spec }
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
                curve: read_curve(&mut r, last)?,
            }
        }
        TAG_EPOCH_CUT => {
            let seq = r.u64()?;
            let shard = r.u32()?;
            let epoch = r.u64()?;
            let drained = r.u64s(STORE_MAX_CUT_IDS)?;
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
            plan: read_plan(&mut r)?,
        },
        got => return Err(DecodeError::BadTag { got }),
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
    grids: LastGrid,
}

/// Iterates the records of a journal byte stream; see [`Records`].
pub fn records(buf: &[u8]) -> Records<'_> {
    Records {
        buf,
        consumed: 0,
        tail: None,
        grids: LastGrid::default(),
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
