//! Interchange limits: shared bounds for serialized core types.
//!
//! Any component that moves [`MissCurve`](crate::MissCurve)s or cache
//! ids across a process boundary — `talus-serve`'s length-prefixed wire
//! protocol and `talus-store`'s journal — needs agreed-on bounds so a
//! decoder can reject hostile input *before* allocating for it; both read
//! counts against these caps through [`codec::Reader`](crate::codec::Reader).
//! The constants live here, next to the types they bound, because every
//! producer and consumer of an encoded curve must agree on them; the
//! frame layout itself (headers, opcodes, versioning) belongs to the
//! transport crates.
//!
//! These are protocol constants: changing any of them is a wire-format
//! change and must bump the transport's version byte — all but
//! [`EPOCH_WORKSPACE_POINTS`], a bound on memory a plane keeps, which
//! changes no format.

/// Largest frame payload a decoder will accept, in bytes (1 MiB). A
/// length prefix above this is rejected *before* any buffer is
/// allocated, so a hostile 4-GiB length field costs the receiver
/// nothing.
pub const WIRE_MAX_FRAME_LEN: u32 = 1 << 20;

/// Most sample points in one encoded miss curve. Real monitors emit
/// tens of points (a UMON has one per way; the sampled Mattson monitor
/// log-buckets); 4096 leaves two orders of magnitude of headroom while
/// keeping the worst-case curve ~64 KiB on the wire.
pub const WIRE_MAX_CURVE_POINTS: u32 = 4096;

/// Most (cache, tenant, curve) entries in one encoded submission batch.
/// Batching amortizes framing, but a batch is also the atomic unit a
/// receiver must buffer before applying, so it stays bounded.
pub const WIRE_MAX_BATCH: u32 = 1024;

/// Most tenants in one registered logical cache. The service allocates
/// one curve slot per tenant at registration, so this bounds the
/// allocation a single remote register request can cause.
pub const WIRE_MAX_TENANTS: u32 = 1024;

/// Most allocation grains, `capacity / grain`, in a cache registered over
/// the wire: a plan climbs the grains, and a remote grain of 1 at
/// capacity 2⁶³ would hold an epoch thread for good (a default spec has
/// at most 127). The worst plan this admits — Lookahead over 1 024
/// tenants of 4 096-point curves — took 2.2 s on raw curves, 0.8 s on
/// hulls (release build, one core of a 2-vCPU x86-64 Xeon VM; other
/// policies under 0.2 s). The journal, written by trusted local
/// callers, does not apply it.
pub const WIRE_MAX_GRAINS: u32 = 256;

/// Most cache ids in one encoded id list (epoch-report fields). With
/// 8-byte ids this is at most half a maximum frame.
pub const WIRE_MAX_IDS: u32 = WIRE_MAX_FRAME_LEN / 16;

/// Most dirty-queue entries a plane takes off its shards' queues in one
/// epoch, summed over the shards. Each entry becomes at most one line of
/// the epoch's report — planned, deferred, failed or quarantined — so a
/// plane that keeps to it never builds an `Epoch` reply its client must
/// refuse: every id list is within [`WIRE_MAX_IDS`] and the frame within
/// [`WIRE_MAX_FRAME_LEN`] even if every line is a failure with its
/// error, the largest kind. The rest of the queue waits for the next
/// epoch. It also keeps each shard's epoch-cut record within
/// [`STORE_MAX_CUT_IDS`]. A bound the *producer* keeps, inside what
/// decoders accept: changing it changes no format.
pub const WIRE_MAX_EPOCH_IDS: u32 = 1 << 14;

const _: () =
    assert!(WIRE_MAX_EPOCH_IDS <= WIRE_MAX_IDS && WIRE_MAX_EPOCH_IDS <= STORE_MAX_CUT_IDS);

/// Most curve points a shard's kept epoch workspace is sized for (4 096:
/// one maximum-length curve, or 16 tenants of 256 points). A shard plans
/// in a workspace it keeps for life — the planner's scratch and the
/// epoch's drain, job and ready lists — so a steady epoch allocates only
/// its report. The scratch holds a hull per tenant slot, each with room
/// for the longest curve it has hulled, so its size is the widest cache
/// times the longest curve the workspace has planned: an epoch that takes
/// that product past this bound drops the workspace when it ends, and one
/// oversized cache pins nothing. The lists hold one batch.
pub const EPOCH_WORKSPACE_POINTS: usize = 1 << 12;

/// Most per-shard entries in one encoded health report. Shard counts are
/// a deployment knob, so this is generous; with 24 bytes per shard a
/// maximum health report stays under 100 KiB.
pub const WIRE_MAX_SHARDS: u32 = 4096;

/// Largest journal-record payload `talus-store` will read back, in bytes.
/// Like [`WIRE_MAX_FRAME_LEN`], a length prefix above this is rejected
/// *before* any buffer is allocated — a corrupt or hostile length field
/// costs the reader nothing. Sized to hold a full plan record for a cache
/// of [`WIRE_MAX_TENANTS`] tenants, or a curve of
/// [`WIRE_MAX_CURVE_POINTS`] points, with generous headroom.
pub const STORE_MAX_RECORD_LEN: u32 = 1 << 18;

/// Most drained cache ids in one journal epoch-cut record. A store shard
/// mirrors one serve shard, whose epoch batch is bounded by the service
/// (default 64, at most [`WIRE_MAX_EPOCH_IDS`]); this leaves room for
/// deliberately large batches while keeping a cut record well under
/// [`STORE_MAX_RECORD_LEN`].
pub const STORE_MAX_CUT_IDS: u32 = 1 << 14;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn worst_case_curve_fits_a_frame() {
        // One curve of maximum points must encode well within a frame,
        // with room for batch framing. A Submit entry is its id, tenant
        // and grid index and 8 bytes a miss value; on a grid new to the
        // frame, the grid's point count and 8 bytes a size come with it.
        const VALUES: u32 = 8 * WIRE_MAX_CURVE_POINTS;
        const WORST_CURVE: u32 = (8 + 4 + 4) + VALUES + (4 + VALUES);
        const { assert!(WORST_CURVE * 4 < WIRE_MAX_FRAME_LEN) };
    }

    #[test]
    fn id_lists_fit_a_frame() {
        const { assert!(WIRE_MAX_IDS * 8 <= WIRE_MAX_FRAME_LEN / 2) };
    }

    #[test]
    fn worst_case_epoch_report_fits_a_frame() {
        // The largest report line is a failed plan: the id, then the
        // error's tag, cache id, plan-error tag and three f64s. Around the
        // lines: epoch, four list counts, the remaining-dirty count and
        // the frame's own header.
        const WORST_LINE: u32 = 8 + (1 + 8 + 1 + 3 * 8);
        const { assert!(64 + WIRE_MAX_EPOCH_IDS * WORST_LINE < WIRE_MAX_FRAME_LEN) };
    }

    #[test]
    fn worst_case_health_report_fits_a_frame() {
        // Per-shard body: caches + pending + quarantined (u64s) + state
        // byte; plus the fixed header fields and a full quarantined id
        // list sharing the frame with it.
        const PER_SHARD: u32 = 8 + 8 + 8 + 1;
        const { assert!(64 + WIRE_MAX_SHARDS * PER_SHARD < WIRE_MAX_FRAME_LEN / 2) };
    }

    #[test]
    fn worst_case_journal_records_fit_the_record_cap() {
        // A maximum-point curve record (16 bytes per point plus framing).
        const { assert!(64 + 4 + 16 * WIRE_MAX_CURVE_POINTS < STORE_MAX_RECORD_LEN) };
        // A plan record for a maximum-tenant cache: each tenant costs at
        // most a capacity, a tag, and the 8-field shadow configuration.
        const { assert!(64 + WIRE_MAX_TENANTS * (8 + 1 + 8 * 8) < STORE_MAX_RECORD_LEN) };
        // An epoch-cut record full of 8-byte ids.
        const { assert!(64 + 8 * STORE_MAX_CUT_IDS < STORE_MAX_RECORD_LEN) };
    }
}
