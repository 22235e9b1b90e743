//! # talus-store — crash-safe persistence for the reconfiguration plane
//!
//! The serving plane (`talus-serve`) replans every epoch but, on its
//! own, forgets everything on restart: every cache cold-starts with no
//! curves and no plans. This crate is the L4½ persistence layer that
//! closes the gap — an **append-only binary journal** of reconfiguration
//! events (registrations, curve submissions, epoch cuts, published
//! plans), sharded exactly like the plane itself, with torn-tail
//! recovery and a replay path that warm-restarts a plane bit-for-bit.
//!
//! ## Shape
//!
//! - [`Record`] / [`encode_record`] / [`decode_record`] / [`scan`]: the
//!   v3 on-disk format — length-prefixed, checksummed
//!   ([`checksum64`]), little-endian records with a *total*
//!   (never-panicking) decoder; a curve is its sizes and then its miss
//!   values, decoded by the wire's decoders. A record that fails to
//!   decode fails with the wire's error,
//!   [`talus_core::codec::DecodeError`], inside [`StoreError::Decode`];
//!   a checksum mismatch, a shard layout that does not match and a
//!   fault the writer raises itself are the journal's own
//!   ([`StoreError`]). A `Register` record's body is a cache's
//!   [`CacheSpec`](talus_partition::CacheSpec), as the wire registers it. See the [`record`] module docs for
//!   the byte layout and recovery rules.
//! - [`RecordStream`] / [`records_from`]: the same decoder over any
//!   reader, through one fixed window ([`STREAM_WINDOW_LEN`]) — the only
//!   way a shard file is read ([`Store::stream_shard`]). [`scan`] stays
//!   for callers that already hold the bytes.
//! - [`Store`]: N journal files (`shard-NNN.talus`, listed by
//!   [`shard_files`]) in one directory, cache `id` in file [`talus_core::shard_of`]`(id, N)` — the same
//!   placement the serve router uses, so restore never moves records
//!   across shards. Opening recovers each file (torn tails truncated,
//!   reported via [`Store::recovery`]; a file of another format version
//!   is refused with a [`StoreError::Decode`] of
//!   [`DecodeError::BadVersion`](talus_core::codec::DecodeError::BadVersion)
//!   and left untouched).
//! - [`StoreSink`]: the seam `talus-serve` journals through, called
//!   under the owning shard's lock in exact event order, each lock hold
//!   bracketed by `begin`/`commit` so its records cost one write.
//!   [`Store`] implements it; tests wrap it to inject crashes.
//! - [`Store::history`]: the timed miss-curve history of one cache
//!   (every submission ever journaled, in order) — the persistent
//!   analogue of periodically re-monitored miss curves.
//!
//! ## Memory
//!
//! Opening a store, restoring a plane from it, querying a history or
//! dumping a journal holds **one 1 MiB window per file being read**,
//! whatever the journal's size: a plane with hours of history restarts
//! in the memory its state needs. A read error aborts the open and
//! truncates nothing — it is an error, never a torn tail. A reader of a
//! live store takes the shard's journal lock only to note the file's
//! length, so reads never stall appends, and it sees whole lock scopes
//! only.
//!
//! ## Crash consistency
//!
//! Records reach a file whole and in order — one `write_all` per
//! record, or per registry-lock hold when the plane journals through a
//! lock scope — so process death leaves whole records and then at most
//! one partial record at the end of a file; the next open detects it
//! (via the length prefix and per-record [`checksum64`]) and truncates
//! it. A crash therefore loses at most the records of the lock hold in
//! flight on each shard — a submit batch's curves, an epoch's cut, or an
//! epoch's plans — and never anything a reply or a reader has seen.
//! A restored plane replays the valid prefix: `talus-serve`'s
//! `ShardedReconfigService::restore` re-registers caches, re-submits
//! latest curves, re-queues dirty ones, and republishes the last plan
//! snapshots — property-tested to be bit-identical to a plane that
//! never restarted (see `crates/serve/tests/restore_equivalence.rs`).
//! A crash *between* a shard's epoch cut and its plan records loses at
//! most that epoch's plans for that shard; affected caches simply
//! re-plan on their next curve update, exactly as if the epoch had
//! failed mid-publish.
//!
//! ## Quickstart
//!
//! ```
//! use talus_core::MissCurve;
//! use talus_store::{Store, StoreSink};
//! use talus_partition::{CacheSpec, Planner};
//!
//! let dir = std::env::temp_dir().join(format!("talus-store-doc-{}", std::process::id()));
//! let store = Store::open(&dir, 2)?;
//!
//! // Journal a registration and a curve submission (talus-serve does
//! // this automatically once the store is attached as its sink).
//! store.register(7, &CacheSpec::new(1024, 1).with_planner(Planner::new(64)));
//! let curve = MissCurve::from_samples(&[0.0, 512.0, 1024.0], &[10.0, 4.0, 1.0])?;
//! store.submit(7, 0, &curve);
//! assert_eq!(store.last_error(), None);
//!
//! // Reopen: the history survives, bit-exact.
//! drop(store);
//! let store = Store::open(&dir, 2)?;
//! let history = store.history(7)?;
//! assert_eq!(history.len(), 1);
//! assert_eq!(history[0].curve, curve);
//! # std::fs::remove_dir_all(&dir).ok();
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]
#![forbid(unsafe_code)]

mod journal;
pub mod record;
mod store;
mod stream;

pub use journal::ShardRecovery;
pub use record::{
    checksum64, decode_record, encode_record, encode_record_into, fnv1a64, scan, Record, Scan,
    StoreError, RECORD_HEADER_LEN, STORE_VERSION,
};
pub use store::{shard_files, CurveUpdate, RecoveryReport, Store, StoreSink};
pub use stream::{records_from, RecordStream, STREAM_WINDOW_LEN};
