//! The sharded store: N journal files behind the canonical shard
//! placement, a store-global sequence clock, and the [`StoreSink`] seam
//! the serving plane journals through.
//!
//! Reading goes one way: [`Store::stream_shard`] hands out a
//! [`RecordStream`] over the bytes a shard's file held when it was
//! called, and `open`, `restore` (in `talus-serve`) and
//! [`Store::history`] all pull from one; a caller that wants every record
//! at once collects one with [`RecordStream::into_scan`]. `talus-serve
//! store-dump` streams each file of [`shard_files`] through its own,
//! read-only. No reader ever holds a shard file in memory, or a journal
//! lock while it reads.

use std::fmt;
use std::fs::File;
use std::io::{Read, Take};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Mutex;

use talus_core::codec::DecodeError;
use talus_core::{MissCurve, ShardTopology};
use talus_partition::{CachePlan, CacheSpec};

use crate::journal::{ShardJournal, ShardRecovery};
use crate::record::{
    encode_curve, encode_deregister, encode_epoch_cut, encode_plan, encode_register, Record,
    StoreError,
};
use crate::stream::{records_from, RecordStream};

/// The event-journaling seam between the serving plane and persistence.
///
/// `talus-serve` calls these while holding the relevant shard's registry
/// lock, in the exact order events take effect, so the journal is a
/// faithful serialization of each shard's history. Implementations must
/// not call back into the service (they run under its locks) and must
/// not panic; [`Store`] satisfies both, and tests wrap it to inject
/// crashes at chosen points.
///
/// ## Lock scopes
///
/// The plane brackets every hold of a shard's registry lock with
/// [`begin`](StoreSink::begin) (lock taken) and
/// [`commit`](StoreSink::commit) (about to be released). The rule a sink
/// may rely on, and must keep: **a shard's records are buffered only
/// while that shard's registry lock is held, and are written before the
/// lock is released.** So nothing another thread — or the reply to an
/// RPC — can observe of the plane is ever ahead of the journal, while
/// the records of one hold (a submit batch's curves, an epoch's cut,
/// an epoch's plans) cost one write instead of one each. Events reported
/// outside any scope are written before the call returns.
pub trait StoreSink: Send + Sync + fmt::Debug {
    /// Number of shards the sink journals into. A plane only attaches a
    /// sink whose layout matches its own, so each service shard maps 1:1
    /// onto a journal shard.
    fn shards(&self) -> usize;

    /// A cache was registered with `spec`.
    fn register(&self, id: u64, spec: &CacheSpec);

    /// A cache was deregistered.
    fn deregister(&self, id: u64);

    /// A tenant submitted a curve.
    fn submit(&self, id: u64, tenant: u32, curve: &MissCurve);

    /// Shard `shard` drained `drained` (in pop order) for `epoch`.
    /// Called every epoch, even when nothing was drained.
    fn epoch_cut(&self, shard: usize, epoch: u64, drained: &[u64]);

    /// A plan was published for cache `id`.
    fn plan(&self, id: u64, epoch: u64, version: u64, updates: u64, plan: &CachePlan);

    /// Shard `shard`'s registry lock was just taken: events for it may be
    /// buffered until the matching [`commit`](StoreSink::commit). Scopes
    /// are per shard and never nest. Defaults to nothing, for sinks that
    /// do not buffer.
    fn begin(&self, _shard: usize) {}

    /// Shard `shard`'s registry lock is about to be released: everything
    /// buffered since [`begin`](StoreSink::begin) must be written before
    /// this returns. Defaults to nothing.
    fn commit(&self, _shard: usize) {}

    /// Whether the sink has hit a write fault and is dropping appends.
    /// The plane polls this into its health report, so a silently
    /// dropped journal becomes an observable event. Defaults to `false`
    /// for sinks that cannot fail (in-memory recorders in tests).
    fn is_faulted(&self) -> bool {
        false
    }

    /// Which slice of the global shard layout this sink's files are. A
    /// plane attaching a sink checks the sink's topology matches its
    /// own, so a cluster member never journals into files laid out for
    /// a different slice. Defaults to the single-process layout (every
    /// shard local).
    fn topology(&self) -> ShardTopology {
        ShardTopology::solo(self.shards())
    }
}

/// What opening a store found and recovered, per shard.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct RecoveryReport {
    /// One entry per shard file, in shard order.
    pub shards: Vec<ShardRecovery>,
}

impl RecoveryReport {
    /// Total intact records across all shards.
    pub fn records(&self) -> usize {
        self.shards.iter().map(|s| s.records).sum()
    }

    /// Total torn-tail bytes truncated across all shards.
    pub fn torn_bytes(&self) -> usize {
        self.shards.iter().map(|s| s.torn_bytes).sum()
    }
}

/// One historical curve submission, as returned by [`Store::history`].
/// `seq` is the journal's logical clock: updates for one cache are
/// ordered by it, newest last.
#[derive(Debug, Clone, PartialEq)]
pub struct CurveUpdate {
    /// Store-global sequence number of the submission.
    pub seq: u64,
    /// Tenant that submitted.
    pub tenant: u32,
    /// The curve, bit-exact as submitted.
    pub curve: MissCurve,
}

/// A crash-safe, sharded, append-only journal of reconfiguration events.
///
/// One directory holds `shards` files (`shard-NNN.talus`); cache `id`'s
/// records live in file [`talus_core::shard_of`]`(id, shards)` — the
/// same placement the serving plane's router uses, so a store written by
/// an N-shard plane restores file-by-file into an N-shard plane.
///
/// Appends go through the [`StoreSink`] impl: each is written before the
/// call returns, unless the plane has a lock scope open on that shard
/// ([`StoreSink::begin`]), in which case the scope's records go out as
/// one write at its commit. After the first write error — of one record
/// or of a whole scope — the store trips a fault flag and silently drops
/// every later append (on every shard), so each file always reopens to a
/// consistent prefix; check [`last_error`](Store::last_error) to surface
/// the fault. An event the record format cannot hold (a curve over the
/// point cap, a cache over the tenant cap, …; see
/// [`encode_record_into`](crate::encode_record_into)) faults the store the
/// same way and is not written: a record the next open would refuse would
/// cost the journal everything after it.
///
/// ```no_run
/// use talus_store::Store;
///
/// let store = Store::open("/var/lib/talus/journal", 4)?;
/// assert_eq!(store.shards(), 4);
/// assert_eq!(store.recovery().torn_bytes(), 0);
/// # Ok::<(), talus_store::StoreError>(())
/// ```
#[derive(Debug)]
pub struct Store {
    dir: PathBuf,
    journals: Vec<Mutex<ShardJournal>>,
    /// Which slice of the global layout these files hold (solo unless
    /// [`with_topology`](Store::with_topology) was called): file `i` is
    /// global shard `topology.first() + i`.
    topology: ShardTopology,
    /// Next append sequence number (resumes past everything recovered).
    seq: AtomicU64,
    /// Set on the first append failure; checked before every append.
    faulted: AtomicBool,
    fault: Mutex<Option<StoreError>>,
    /// Deterministic fault-injection seam, consulted at `"store.append"`
    /// (key = shard index) before each append. `None` outside tests.
    script: Option<std::sync::Arc<talus_core::FaultScript>>,
    recovery: RecoveryReport,
}

impl Store {
    /// Opens (creating if needed) the journal directory with `shards`
    /// shard files, recovering each: torn tails are truncated and the
    /// sequence clock resumes after the largest recovered `seq`. Each
    /// file is streamed through one fixed window, so opening costs the
    /// same memory whatever the journal's size.
    ///
    /// # Errors
    ///
    /// [`StoreError::Decode`] ([`DecodeError::Io`]) on filesystem failure — including a read that
    /// fails part-way through a file, which is never mistaken for a torn
    /// tail: nothing is truncated;
    /// [`StoreError::ShardLayout`] if the directory already holds shard
    /// files laid out for a different shard count (records do not move
    /// between files; re-sharding requires an explicit migration);
    /// [`StoreError::Decode`] ([`DecodeError::BadVersion`]) if a file holds a record of another
    /// format version — that file is left byte-for-byte untouched (only
    /// short or checksum-failing *tails* are ever truncated), so a
    /// journal survives being opened by the wrong binary.
    pub fn open(dir: impl AsRef<Path>, shards: usize) -> Result<Store, StoreError> {
        assert!(shards > 0, "need at least one shard");
        let dir = dir.as_ref().to_path_buf();
        std::fs::create_dir_all(&dir)?;
        let found = shard_files(&dir)?.len();
        if found > 0 && found != shards {
            return Err(StoreError::ShardLayout {
                found,
                expected: shards,
            });
        }
        let mut journals = Vec::with_capacity(shards);
        let mut report = RecoveryReport::default();
        let mut max_seq = None;
        for i in 0..shards {
            let (journal, recovery) = ShardJournal::open(&shard_path(&dir, i))?;
            max_seq = max_seq.max(recovery.max_seq);
            report.shards.push(recovery);
            journals.push(Mutex::new(journal));
        }
        Ok(Store {
            dir,
            journals,
            topology: ShardTopology::solo(shards),
            seq: AtomicU64::new(max_seq.map_or(0, |s| s + 1)),
            faulted: AtomicBool::new(false),
            fault: Mutex::new(None),
            script: None,
            recovery: report,
        })
    }

    /// Attaches a deterministic [`FaultScript`](talus_core::FaultScript):
    /// the store consults it at the `"store.append"` site (key = shard
    /// index) before each append; a `Fail` directive trips the fault
    /// flag exactly as a real write error would.
    pub fn with_fault_script(mut self, script: std::sync::Arc<talus_core::FaultScript>) -> Self {
        self.script = Some(script);
        self
    }

    /// Declares these files a cluster member's slice of the global
    /// layout: file `i` holds global shard `topology.first() + i`, and
    /// ids are placed by `shard_of(id, topology.total())`. Set it to
    /// the same topology as the plane the store serves (the plane's
    /// `with_sink` checks they agree).
    ///
    /// # Panics
    ///
    /// Panics if `topology.count()` differs from the store's shard-file
    /// count.
    pub fn with_topology(mut self, topology: ShardTopology) -> Self {
        assert_eq!(
            topology.count(),
            self.shards(),
            "topology range must match the store's shard-file count"
        );
        self.topology = topology;
        self
    }

    /// Number of journal shards (fixed at open).
    pub fn shards(&self) -> usize {
        self.journals.len()
    }

    /// The journal directory.
    pub fn dir(&self) -> &Path {
        &self.dir
    }

    /// What opening this store recovered, per shard.
    pub fn recovery(&self) -> &RecoveryReport {
        &self.recovery
    }

    /// The first append error, if any. Once set, every subsequent append
    /// (on every shard) is dropped, so the on-disk journals stay valid
    /// prefixes of the plane's history up to the fault.
    pub fn last_error(&self) -> Option<StoreError> {
        lock(&self.fault).clone()
    }

    /// Whether the store has tripped its fault flag and is dropping
    /// appends. Cheap (one atomic load): the plane polls this on every
    /// health request.
    pub fn faulted(&self) -> bool {
        self.faulted.load(Ordering::Acquire)
    }

    /// Flushes every shard file to stable storage (`fsync`), first
    /// writing whatever an open lock scope has buffered. Appends survive
    /// process death without this; call it when the journal must also
    /// survive OS or power failure.
    ///
    /// # Errors
    ///
    /// The first [`StoreError::Decode`] ([`DecodeError::Io`]) hit; remaining shards are still
    /// attempted.
    pub fn sync(&self) -> Result<(), StoreError> {
        let mut first = None;
        for journal in &self.journals {
            if let Err(e) = lock(journal).sync() {
                first.get_or_insert(e);
            }
        }
        match first {
            None => Ok(()),
            Some(e) => Err(e),
        }
    }

    /// Streams shard `shard`'s file from disk, from its first record to
    /// the last one written when this was called: records appended later
    /// (and records an open lock scope still buffers) are not among
    /// them. Memory is the stream's one window
    /// ([`STREAM_WINDOW_LEN`](crate::STREAM_WINDOW_LEN)), whatever the
    /// file's size.
    ///
    /// The shard's journal lock is held only to note the file's length,
    /// not while the stream is read, so reading a live store's history
    /// does not stall the plane. That length always falls between two
    /// lock scopes' writes, and the stream stops there — so a racing
    /// append can never read as a torn tail.
    ///
    /// # Errors
    ///
    /// [`StoreError::Decode`] ([`DecodeError::Io`]) if the file cannot be opened or sized; a read
    /// that fails later is the stream's one `Err` item.
    ///
    /// # Panics
    ///
    /// Panics if `shard` is out of range.
    pub fn stream_shard(&self, shard: usize) -> Result<RecordStream<Take<File>>, StoreError> {
        assert!(shard < self.shards(), "shard index out of range");
        let len = lock(&self.journals[shard]).committed_len()?;
        let file = File::open(shard_path(&self.dir, shard))?;
        Ok(records_from(file.take(len)))
    }

    /// Every curve ever journaled for cache `id`, in submission order
    /// (the timed miss-curve history of the cache — `seq` is the time
    /// axis). Streams the shard file from disk
    /// ([`stream_shard`](Store::stream_shard)), keeping only `id`'s
    /// curves. For a cluster-slice store, an id owned by another member
    /// has no records here: empty history.
    ///
    /// # Errors
    ///
    /// [`StoreError::Decode`] ([`DecodeError::Io`]) if the shard file cannot be read — never a
    /// history cut short.
    pub fn history(&self, id: u64) -> Result<Vec<CurveUpdate>, StoreError> {
        let Some(local) = self.topology.local_shard(id) else {
            return Ok(Vec::new());
        };
        let mut history = Vec::new();
        for rec in self.stream_shard(local)? {
            if let Record::Curve {
                seq,
                id: rid,
                tenant,
                curve,
            } = rec?
            {
                if rid == id {
                    history.push(CurveUpdate { seq, tenant, curve });
                }
            }
        }
        Ok(history)
    }

    /// Allocates the next sequence number and appends the record
    /// `encode(buffer, seq)` frames to `shard` — written before this
    /// returns unless a lock scope is open on the shard. Serialized per
    /// shard by the journal lock (so `seq` is monotone within each
    /// file); dropped silently once the store is faulted. An `encode` that
    /// refuses its record appends nothing and faults the store, like a
    /// failed write.
    fn append_with(
        &self,
        shard: usize,
        encode: impl FnOnce(&mut Vec<u8>, u64) -> Result<(), DecodeError>,
    ) {
        if self.faulted.load(Ordering::Acquire) {
            return;
        }
        if let Some(script) = &self.script {
            if script.check("store.append", shard as u64) == talus_core::FaultDirective::Fail {
                // Trip the fault exactly as a real write error would.
                self.trip(StoreError::Fault("injected append fault"));
                return;
            }
        }
        let mut journal = lock(&self.journals[shard]);
        let seq = self.seq.fetch_add(1, Ordering::Relaxed);
        if let Err(e) = journal.append(|buf| encode(buf, seq)) {
            self.trip(e);
        }
    }

    /// Appends the record for id-placed events, tripping the fault flag
    /// if `id` is not owned by this store's topology slice (a plane
    /// checks ownership before journaling, so reaching this means the
    /// plane and store disagree on topology — data loss, made visible).
    fn append_for_id(
        &self,
        id: u64,
        encode: impl FnOnce(&mut Vec<u8>, u64) -> Result<(), DecodeError>,
    ) {
        match self.topology.local_shard(id) {
            Some(shard) => self.append_with(shard, encode),
            None => self.trip(StoreError::Fault("record for an unowned shard")),
        }
    }

    /// Trips the store-global fault flag; the first error is the one
    /// kept for [`last_error`](Store::last_error).
    fn trip(&self, error: impl Into<StoreError>) {
        self.faulted.store(true, Ordering::Release);
        lock(&self.fault).get_or_insert(error.into());
    }
}

// Lock poisoning: journal and fault locks guard single-step writes
// (one append, one error slot) — no partial multi-field state can
// survive a panic mid-critical-section — so recovery takes the data
// as-is rather than poisoning the whole store (matching the serving
// plane's shard locks).
fn lock<T>(mutex: &Mutex<T>) -> std::sync::MutexGuard<'_, T> {
    mutex.lock().unwrap_or_else(|e| e.into_inner())
}

impl StoreSink for Store {
    fn shards(&self) -> usize {
        self.journals.len()
    }

    fn register(&self, id: u64, spec: &CacheSpec) {
        self.append_for_id(id, |buf, seq| encode_register(buf, seq, id, spec));
    }

    fn deregister(&self, id: u64) {
        self.append_for_id(id, |buf, seq| encode_deregister(buf, seq, id));
    }

    fn submit(&self, id: u64, tenant: u32, curve: &MissCurve) {
        self.append_for_id(id, |buf, seq| encode_curve(buf, seq, id, tenant, curve));
    }

    fn epoch_cut(&self, shard: usize, epoch: u64, drained: &[u64]) {
        if shard >= self.shards() {
            self.trip(StoreError::Fault("epoch cut for unknown shard"));
            return;
        }
        self.append_with(shard, |buf, seq| {
            encode_epoch_cut(buf, seq, shard as u32, epoch, drained)
        });
    }

    fn plan(&self, id: u64, epoch: u64, version: u64, updates: u64, plan: &CachePlan) {
        self.append_for_id(id, |buf, seq| {
            encode_plan(buf, seq, id, epoch, version, updates, plan)
        });
    }

    fn begin(&self, shard: usize) {
        if let Some(journal) = self.journals.get(shard) {
            lock(journal).begin();
        }
    }

    fn commit(&self, shard: usize) {
        let Some(journal) = self.journals.get(shard) else {
            return;
        };
        // Written even if the store has faulted meanwhile: these records
        // took effect before the fault, so they belong to the prefix.
        if let Err(e) = lock(journal).commit() {
            self.trip(e);
        }
    }

    fn is_faulted(&self) -> bool {
        self.faulted()
    }

    fn topology(&self) -> ShardTopology {
        self.topology
    }
}

/// `dir/shard-NNN.talus`.
fn shard_path(dir: &Path, shard: usize) -> PathBuf {
    dir.join(format!("shard-{shard:03}.talus"))
}

/// The shard files of the journal in `dir`, file `i` at index `i`: one
/// path for every index up to the highest `shard-NNN.talus` present. A
/// gap is listed too — its path names no file — so the list is the
/// layout [`Store::open`] finds (and would fill). Reads only the
/// directory.
///
/// # Errors
///
/// [`StoreError::Decode`] ([`DecodeError::Io`]) if `dir` cannot be listed.
pub fn shard_files(dir: impl AsRef<Path>) -> Result<Vec<PathBuf>, StoreError> {
    let dir = dir.as_ref();
    let mut found = 0;
    for entry in std::fs::read_dir(dir)? {
        let name = entry?.file_name();
        let Some(name) = name.to_str() else { continue };
        if let Some(n) = name
            .strip_prefix("shard-")
            .and_then(|rest| rest.strip_suffix(".talus"))
            .and_then(|digits| digits.parse::<usize>().ok())
        {
            found = found.max(n + 1);
        }
    }
    Ok((0..found).map(|shard| shard_path(dir, shard)).collect())
}
