//! `plane_local` and `plane_rpc_journal`: the same closed-loop op mix
//! against the reconfiguration plane, once called directly and once
//! through `RpcClient` → loopback → `RpcServer` → plane → journal.
//!
//! One generator thread (the callers are monitor daemons that wait for
//! their reply). The plane is `ShardedReconfigService::new(4)` without
//! `with_threads()`: the box has two cores, which cannot show threaded
//! epochs. The journal is never `fsync`ed (the plane's default).

use crate::check::plan_matches;
use crate::pool::{CurvePool, POINTS};
use crate::report::Values;
use crate::rng::Rng;
use crate::run::{Acc, Ctx, Workload};
use crate::stats::{ratio, residual};
use crate::trace::{Layer, Tracer};
use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::{Duration, Instant};
use talus_core::MissCurve;
use talus_partition::Planner;
use talus_serve::wire::{self, Request, Response, SnapshotSummary, SubmitEntry};
use talus_serve::{
    CacheId, CacheSpec, EpochReport, PlanSnapshot, RpcClient, RpcError, RpcServer, ServerHandle,
    ShardedReconfigService,
};
use talus_store::{Record, Store, StoreSink};

const SHARDS: usize = 4;
const CACHES: usize = 8192;
const TENANTS: usize = 4;
/// Lines per cache; the planner's grain is `CAPACITY / 64`, the curve
/// grid's step.
const CAPACITY: u64 = 65_536;
const POOL_CURVES: usize = 1024;
/// Caches visited (round-robin) per cycle.
const TOUCHED: usize = 64;
/// Snapshots of random ids read beside the writes (`plane_local` only).
const RANDOM_READS: usize = 1024;
/// Every this-many-th submission is immediately re-sent bit-identical,
/// modelling a retry: 16 duplicates among a cycle's 272 sends.
const DUP_EVERY: u64 = 16;
/// Cycles between full offline-plan comparisons.
const DEEP_CHECK_EVERY: u64 = 64;
/// Traced cycles between decomposed replays.
const REPLAY_EVERY: u64 = 16;
/// One warm-up pass plans every cache once.
const WARM_CYCLES: u64 = (CACHES / TOUCHED) as u64;
/// Measured cycles per segment, and per window. Windows are short —
/// ≈25 ms of cycle time on the sizing box — because that is how long the
/// machine runs undisturbed: over eight 20 000-cycle traces the fastest
/// 16-cycle window read the same within 6 %, the fastest 256-cycle
/// window within 16 %, the medians within 15 %.
const LOCAL_SEGMENT_CYCLES: u64 = 2048;
const LOCAL_WINDOW_CYCLES: u64 = 32;
const RPC_SEGMENT_CYCLES: u64 = 256;
const RPC_WINDOW_CYCLES: u64 = 8;

const SUBMITS_PER_CYCLE: u64 = (TOUCHED * TENANTS) as u64;
const DUPS_PER_CYCLE: u64 = SUBMITS_PER_CYCLE / DUP_EVERY;
/// Journal records one cycle must append: a curve per non-duplicate
/// submission, an epoch cut per shard, a plan per touched cache.
const RECORDS_PER_CYCLE: u64 = SUBMITS_PER_CYCLE + SHARDS as u64 + TOUCHED as u64;

fn planner() -> Planner {
    CacheSpec::new(CAPACITY, TENANTS).planner
}

/// A published plan as the caller read it back.
#[derive(Debug)]
pub enum Readback {
    Local(Arc<PlanSnapshot>),
    Remote(SnapshotSummary),
}

impl Readback {
    fn version(&self) -> u64 {
        match self {
            Readback::Local(s) => s.version,
            Readback::Remote(s) => s.version,
        }
    }

    fn updates(&self) -> u64 {
        match self {
            Readback::Local(s) => s.updates,
            Readback::Remote(s) => s.updates,
        }
    }

    fn summary(&self) -> SnapshotSummary {
        match self {
            Readback::Local(s) => SnapshotSummary::from(&**s),
            Readback::Remote(s) => s.clone(),
        }
    }
}

/// The plane as one of its callers sees it. Every method returns `None`
/// or `false` when the call failed or was refused.
pub trait Front {
    const SUBMIT: Layer;
    const SUBMIT_DUP: Layer;
    const FLUSH: Option<Layer>;
    const RUN_EPOCH: Layer;
    const READ: Layer;
    const RANDOM_READS: usize;

    fn submit(&mut self, id: CacheId, tenant: usize, curve: MissCurve) -> bool;
    /// Sends what `submit` batched; returns how many entries were refused.
    fn flush(&mut self, sent: usize) -> u64;
    fn run_epoch(&mut self) -> Option<EpochReport>;
    fn read(&mut self, id: CacheId) -> Option<Readback>;
}

#[derive(Debug)]
pub struct LocalFront(ShardedReconfigService);

impl Front for LocalFront {
    const SUBMIT: Layer = Layer::PlaneSubmit;
    const SUBMIT_DUP: Layer = Layer::PlaneSubmitDup;
    const FLUSH: Option<Layer> = None;
    const RUN_EPOCH: Layer = Layer::PlaneRunEpoch;
    const READ: Layer = Layer::PlaneSnapshot;
    const RANDOM_READS: usize = RANDOM_READS;

    fn submit(&mut self, id: CacheId, tenant: usize, curve: MissCurve) -> bool {
        self.0.submit(id, tenant, curve).is_ok()
    }

    fn flush(&mut self, _sent: usize) -> u64 {
        0
    }

    fn run_epoch(&mut self) -> Option<EpochReport> {
        Some(self.0.run_epoch())
    }

    fn read(&mut self, id: CacheId) -> Option<Readback> {
        self.0.snapshot(id).map(Readback::Local)
    }
}

#[derive(Debug)]
pub struct RpcFront {
    client: RpcClient,
    /// Calls the server shed with a typed `Busy`.
    busy: u64,
    round_trips: u64,
}

impl RpcFront {
    fn note<T>(&mut self, result: Result<T, RpcError>) -> Option<T> {
        self.round_trips += 1;
        match result {
            Ok(v) => Some(v),
            Err(e) => {
                if matches!(e, RpcError::Busy) {
                    self.busy += 1;
                }
                None
            }
        }
    }
}

impl Front for RpcFront {
    const SUBMIT: Layer = Layer::RpcStage;
    const SUBMIT_DUP: Layer = Layer::RpcStageDup;
    const FLUSH: Option<Layer> = Some(Layer::RpcFlush);
    const RUN_EPOCH: Layer = Layer::RpcRunEpoch;
    const READ: Layer = Layer::RpcReport;
    const RANDOM_READS: usize = 0;

    fn submit(&mut self, id: CacheId, tenant: usize, curve: MissCurve) -> bool {
        // A cycle's 272 entries fit one frame, so staging never sends.
        matches!(self.client.stage(id, tenant, curve), Ok(None))
    }

    fn flush(&mut self, sent: usize) -> u64 {
        let result = self.client.flush();
        match self.note(result) {
            Some(results) if results.len() == sent => {
                results.iter().filter(|r| r.is_err()).count() as u64
            }
            _ => sent as u64,
        }
    }

    fn run_epoch(&mut self) -> Option<EpochReport> {
        let result = self.client.run_epoch();
        self.note(result)
    }

    fn read(&mut self, id: CacheId) -> Option<Readback> {
        let result = self.client.report(id);
        self.note(result).flatten().map(Readback::Remote)
    }
}

/// The benchmark's own record of what the plane must hold.
#[derive(Debug)]
pub struct Book {
    ids: Vec<CacheId>,
    /// Times each cache has been visited: its position in the pool walk.
    visits: Vec<u64>,
    version: Vec<u64>,
    updates: Vec<u64>,
    /// Next cache (index into `ids`) the round-robin touches.
    cursor: usize,
    /// Non-duplicate submissions so far: the duplicate-injection clock.
    submissions: u64,
    /// Cycles run in this segment, warm-up included.
    cycle: u64,
    /// Σ growth of the plane's own `updates` counters, as read back.
    observed_updates: u64,
    rng: Rng,
}

impl Book {
    fn new(ids: Vec<CacheId>, seed: u64) -> Book {
        let n = ids.len();
        Book {
            ids,
            visits: vec![0; n],
            version: vec![0; n],
            updates: vec![0; n],
            cursor: 0,
            submissions: 0,
            cycle: 0,
            observed_updates: 0,
            rng: Rng::new(seed ^ 0x7265_6164),
        }
    }
}

/// One submission of a cycle, built before the clock starts.
#[derive(Debug, Clone)]
struct Send {
    cache: usize,
    tenant: usize,
    curve: MissCurve,
    /// Re-sent bit-identical right after the original.
    dup: bool,
}

/// What a cycle did, for the checks and replays that follow it.
#[derive(Debug)]
struct Cycle {
    touched: Vec<usize>,
    sends: Vec<Send>,
    report: Option<EpochReport>,
    readbacks: Vec<Option<Readback>>,
}

/// The curves cache `cache` holds after its `visit`th visit.
fn curves_at(pool: &CurvePool, cache: usize, visit: u64) -> Vec<MissCurve> {
    (0..TENANTS)
        .map(|t| pool.curve(pool.slot_index(cache, t, visit)).clone())
        .collect()
}

/// Runs one cycle: 64 caches × 4 submissions (+16 duplicates), one epoch,
/// read-back of the touched caches (+ random reads), then the per-cycle
/// checks. Timing stops before the checks. `acc` is `None` in warm-up.
fn cycle<F: Front>(
    front: &mut F,
    book: &mut Book,
    pool: &CurvePool,
    ctx: &mut Ctx,
    acc: Option<&mut Acc>,
    keep_sends: bool,
) -> Cycle {
    let touched: Vec<usize> = (0..TOUCHED)
        .map(|k| (book.cursor + k) % book.ids.len())
        .collect();
    book.cursor = (book.cursor + TOUCHED) % book.ids.len();
    let mut sends = Vec::with_capacity((SUBMITS_PER_CYCLE + DUPS_PER_CYCLE) as usize);
    for &cache in &touched {
        for tenant in 0..TENANTS {
            let index = pool.slot_index(cache, tenant, book.visits[cache]);
            book.submissions += 1;
            sends.push(Send {
                cache,
                tenant,
                curve: pool.curve(index).clone(),
                dup: false,
            });
            if book.submissions.is_multiple_of(DUP_EVERY) {
                let mut dup = sends.last().expect("just pushed").clone();
                dup.dup = true;
                sends.push(dup);
            }
        }
        book.visits[cache] += 1;
    }
    let kept = if keep_sends {
        sends.clone()
    } else {
        Vec::new()
    };
    // Random reads only once every cache has a plan to read.
    let random_reads = if acc.is_some() { F::RANDOM_READS } else { 0 };
    let random: Vec<CacheId> = (0..random_reads)
        .map(|_| book.ids[book.rng.below(book.ids.len())])
        .collect();
    let sent = sends.len();

    ctx.tracer.next_cycle();
    let mut submitted_ns = [0u64; TOUCHED];
    let mut read_ns = [0u64; TOUCHED];
    let mut refused = 0u64;
    let start_ns = ctx.tracer.now_ns();
    let root = ctx.tracer.begin(Layer::Cycle);
    let mut slot = 0;
    for send in sends {
        if send.tenant == TENANTS - 1 && !send.dup {
            // The cache's last submission leaves its producer now.
            submitted_ns[slot] = ctx.tracer.now_ns();
            slot += 1;
        }
        let layer = if send.dup { F::SUBMIT_DUP } else { F::SUBMIT };
        let span = ctx.tracer.begin(layer);
        let ok = front.submit(book.ids[send.cache], send.tenant, send.curve);
        ctx.tracer.end(span);
        refused += u64::from(!ok);
    }
    match F::FLUSH {
        Some(layer) => {
            let span = ctx.tracer.begin(layer);
            refused += front.flush(sent);
            ctx.tracer.end(span);
        }
        None => refused += front.flush(sent),
    }
    let span = ctx.tracer.begin(F::RUN_EPOCH);
    let report = front.run_epoch();
    ctx.tracer.end(span);
    let mut readbacks = Vec::with_capacity(TOUCHED);
    for (k, &cache) in touched.iter().enumerate() {
        let span = ctx.tracer.begin(F::READ);
        readbacks.push(front.read(book.ids[cache]));
        ctx.tracer.end(span);
        read_ns[k] = ctx.tracer.now_ns();
    }
    let mut random_missing = 0u64;
    for id in random {
        let span = ctx.tracer.begin(F::READ);
        random_missing += u64::from(std::hint::black_box(front.read(id)).is_none());
        ctx.tracer.end(span);
    }
    ctx.tracer.end(root);
    let end_ns = ctx.tracer.now_ns();

    // Checks (untimed). Guarding against measuring a no-op: the epoch
    // planned exactly the touched caches, every touched cache's version
    // advanced by one, and exactly the four distinct curves — not the
    // injected duplicates — counted as updates.
    ctx.ops.passed((sent as u64).saturating_sub(refused));
    for _ in 0..refused {
        ctx.ops.check(false, || {
            format!("cycle {}: submission refused", book.cycle)
        });
    }
    let mut want: Vec<CacheId> = touched.iter().map(|&c| book.ids[c]).collect();
    want.sort_unstable();
    ctx.ops.check(
        report.as_ref().is_some_and(|r| {
            r.planned == want
                && r.deferred.is_empty()
                && r.failed.is_empty()
                && r.quarantined.is_empty()
                && r.remaining_dirty == 0
        }),
        || {
            format!(
                "cycle {}: epoch did not plan exactly the touched caches: {report:?}",
                book.cycle
            )
        },
    );
    for (k, &cache) in touched.iter().enumerate() {
        if let Some(read) = &readbacks[k] {
            book.observed_updates += read.updates().saturating_sub(book.updates[cache]);
        }
        book.version[cache] += 1;
        book.updates[cache] += TENANTS as u64;
        let (version, updates) = (book.version[cache], book.updates[cache]);
        ctx.ops.check(
            readbacks[k]
                .as_ref()
                .is_some_and(|r| r.version() == version && r.updates() == updates),
            || {
                format!(
                    "cycle {}: cache {cache} read back {:?}, want version {version} updates {updates}",
                    book.cycle,
                    readbacks[k].as_ref().map(|r| (r.version(), r.updates()))
                )
            },
        );
    }
    ctx.ops.passed(random_reads as u64 - random_missing);
    for _ in 0..random_missing {
        ctx.ops.check(false, || {
            format!("cycle {}: random read found no plan", book.cycle)
        });
    }

    if let Some(acc) = acc {
        acc.measured_ns += end_ns - start_ns;
        acc.cycle_ns.push(end_ns - start_ns);
        acc.plans += report.as_ref().map_or(0, |r| r.planned.len() as u64);
        for k in 0..TOUCHED {
            acc.latency_ns.push(read_ns[k] - submitted_ns[k]);
        }
    }
    book.cycle += 1;
    Cycle {
        touched,
        sends: kept,
        report,
        readbacks,
    }
}

/// The full correctness gate: each touched cache's published plan equals
/// an offline `Planner::plan` on the same curves, bit for bit.
fn deep_check(book: &Book, pool: &CurvePool, done: &Cycle, ctx: &mut Ctx) {
    for (k, &cache) in done.touched.iter().enumerate() {
        let curves = curves_at(pool, cache, book.visits[cache] - 1);
        let offline = planner().plan(&curves, CAPACITY, book.version[cache] - 1);
        ctx.ops.check(
            match (&offline, &done.readbacks[k]) {
                (Ok(plan), Some(read)) => plan_matches(plan, &read.summary()),
                _ => false,
            },
            || format!("cache {cache}: published plan differs from the offline plan"),
        );
    }
}

/// Decomposed replay of the planner's share of `run_epoch`: hull and
/// full plan on the cycle's own curves.
fn replay_planner(book: &Book, pool: &CurvePool, done: &Cycle, ctx: &mut Ctx) {
    for &cache in &done.touched {
        let curves = curves_at(pool, cache, book.visits[cache] - 1);
        for curve in &curves {
            let span = ctx.tracer.begin(Layer::Hull);
            std::hint::black_box(curve.convex_hull());
            ctx.tracer.end(span);
        }
        let span = ctx.tracer.begin(Layer::PlannerPlan);
        let _ = std::hint::black_box(planner().plan(&curves, CAPACITY, book.version[cache] - 1));
        ctx.tracer.end(span);
    }
}

/// Per-layer values both plane workloads share.
fn plane_layer_metrics(ctx: &Ctx, acc: &Acc, values: &mut Values) {
    let tr = &ctx.tracer;
    let plan = tr.aggregate(Layer::PlannerPlan).mean_ns();
    let epoch = tr.aggregate(Layer::PlaneRunEpoch).mean_ns();
    values.set(
        "core.hull.us_per_curve",
        tr.aggregate(Layer::Hull).mean_ns() / 1e3,
    );
    values.set("partition.planner.plan_us", plan / 1e3);
    values.set("partition.planner.plans", acc.plans as f64);
    values.set(
        "serve.plane.submit_ns",
        tr.aggregate(Layer::PlaneSubmit).mean_ns(),
    );
    values.set(
        "serve.plane.submit_dup_ns",
        tr.aggregate(Layer::PlaneSubmitDup).mean_ns(),
    );
    values.set("serve.plane.run_epoch_us", epoch / 1e3);
    values.set(
        "serve.plane.epoch_overhead_us",
        residual(epoch, &[plan * TOUCHED as f64]) / 1e3,
    );
    values.set(
        "serve.plane.snapshot_ns",
        tr.aggregate(Layer::PlaneSnapshot).mean_ns(),
    );
    values.set(
        "serve.plane.plans_per_epoch",
        ratio(acc.plans as f64, acc.cycle_ns.len() as f64),
    );
    values.set("serve.plane.deferred", 0.0);
    if let Some(share) = acc.extra_exact("dedup_noop_share") {
        values.set("serve.plane.dedup_noop_share", share);
    }
}

/// Sends that the plane did not count as an update, over sends — from
/// the plane's own `updates` counters as read back. Must equal the
/// injected 1/17.
fn dedup_noop_share(book: &Book) -> f64 {
    let sent = book.submissions + book.submissions / DUP_EVERY;
    ratio(
        sent.saturating_sub(book.observed_updates) as f64,
        sent as f64,
    )
}

/// The injected duplicates — and only those — were deduplicated.
fn check_dedup(book: &Book, ctx: &mut Ctx, acc: &mut Acc) {
    let share = dedup_noop_share(book);
    let injected = ratio(
        DUPS_PER_CYCLE as f64,
        (SUBMITS_PER_CYCLE + DUPS_PER_CYCLE) as f64,
    );
    ctx.ops.check(share.to_bits() == injected.to_bits(), || {
        format!("plane deduplicated {share} of the sends, {injected} were injected")
    });
    acc.extra("dedup_noop_share", share);
}

// ---------------------------------------------------------------------
// plane_local
// ---------------------------------------------------------------------

#[derive(Debug)]
pub struct PlaneLocal {
    pool: CurvePool,
}

impl PlaneLocal {
    pub fn new(seed: u64) -> Self {
        PlaneLocal {
            pool: CurvePool::generate(seed, POOL_CURVES, CAPACITY),
        }
    }
}

impl Workload for PlaneLocal {
    type Segment = (LocalFront, Book);

    fn setup(&mut self, ctx: &mut Ctx) -> Self::Segment {
        let plane = ShardedReconfigService::new(SHARDS);
        let ids = (0..CACHES)
            .map(|_| plane.register(CacheSpec::new(CAPACITY, TENANTS)))
            .collect();
        let mut seg = (LocalFront(plane), Book::new(ids, ctx.seed));
        for _ in 0..WARM_CYCLES {
            cycle(&mut seg.0, &mut seg.1, &self.pool, ctx, None, false);
        }
        seg
    }

    fn measure(&mut self, seg: &mut Self::Segment, ctx: &mut Ctx, acc: &mut Acc) {
        let (front, book) = seg;
        for i in 0..LOCAL_SEGMENT_CYCLES {
            let done = cycle(front, book, &self.pool, ctx, Some(acc), false);
            if i % DEEP_CHECK_EVERY == 0 {
                deep_check(book, &self.pool, &done, ctx);
            }
            if ctx.tracer.enabled() && i % REPLAY_EVERY == 0 {
                ctx.tracer.set_replaying(true);
                replay_planner(book, &self.pool, &done, ctx);
                ctx.tracer.set_replaying(false);
            }
            if (i + 1) % LOCAL_WINDOW_CYCLES == 0 {
                acc.close_window(0);
            }
        }
    }

    fn teardown(&mut self, seg: Self::Segment, ctx: &mut Ctx, acc: &mut Acc) {
        let (front, book) = seg;
        check_dedup(&book, ctx, acc);
        ctx.ops.check(front.0.registered() == CACHES, || {
            "plane lost registered caches".to_string()
        });
    }

    fn layer_metrics(&self, ctx: &Ctx, acc: &Acc, values: &mut Values) {
        plane_layer_metrics(ctx, acc, values);
    }
}

// ---------------------------------------------------------------------
// plane_rpc_journal
// ---------------------------------------------------------------------

/// The decomposed replay's apparatus: a local plane and a scratch store
/// that are fed the sampled cycles' inputs through the layers' own
/// public functions, since `flush` and the server are opaque from here.
#[derive(Debug)]
struct Shadow {
    plane: ShardedReconfigService,
    ids: Vec<CacheId>,
    store: Store,
    dir: PathBuf,
}

#[derive(Debug)]
pub struct PlaneRpcJournal {
    pool: CurvePool,
    shadow: Option<Shadow>,
    segments: u64,
}

#[derive(Debug)]
pub struct RpcSegment {
    dir: PathBuf,
    handle: ServerHandle,
    front: RpcFront,
    book: Book,
}

/// `talus_store`'s file for shard `i` (its naming is not exported).
fn shard_file(dir: &Path, i: usize) -> PathBuf {
    dir.join(format!("shard-{i:03}.talus"))
}

fn shard_lens(dir: &Path) -> [u64; SHARDS] {
    std::array::from_fn(|i| std::fs::metadata(shard_file(dir, i)).map_or(0, |m| m.len()))
}

/// Decodes what each shard file gained since `before` and counts the
/// records by kind: (curves, epoch cuts, plans, anything else or torn).
fn appended_records(dir: &Path, before: &[u64; SHARDS]) -> (u64, u64, u64, u64) {
    use std::io::{Read, Seek, SeekFrom};
    let mut counts = (0, 0, 0, 0);
    for (i, &offset) in before.iter().enumerate() {
        let mut tail = Vec::new();
        let read = std::fs::File::open(shard_file(dir, i)).and_then(|mut f| {
            f.seek(SeekFrom::Start(offset))?;
            f.read_to_end(&mut tail)
        });
        let scan = talus_store::scan(&tail);
        counts.3 += u64::from(read.is_err() || scan.tail.is_some());
        for rec in scan.records {
            match rec {
                Record::Curve { .. } => counts.0 += 1,
                Record::EpochCut { .. } => counts.1 += 1,
                Record::Plan { .. } => counts.2 += 1,
                _ => counts.3 += 1,
            }
        }
    }
    counts
}

/// Bytes one replayed cycle put on the wire and into the journal.
#[derive(Debug, Default, Clone, Copy)]
struct ReplayBytes {
    /// The submit request and its reply.
    submit_frames: u64,
    /// Every frame of the cycle, both directions.
    all_frames: u64,
    /// Curve records the cycle's non-duplicate submissions appended.
    curve_records: u64,
}

/// Encodes and decodes frames through `serve::wire`, adding up their
/// sizes and checking each decodes back to what was encoded.
#[derive(Debug)]
struct Frames {
    bytes: u64,
    intact: bool,
}

impl Default for Frames {
    fn default() -> Self {
        Frames {
            bytes: 0,
            intact: true,
        }
    }
}

impl Frames {
    /// One frame out and back, each half under its own span if asked.
    fn roundtrip<T: PartialEq, E>(
        &mut self,
        tr: &mut Tracer,
        message: &T,
        layers: Option<(Layer, Layer)>,
        encode: fn(&T) -> Vec<u8>,
        decode: fn(&[u8]) -> Result<T, E>,
    ) {
        let span = layers.map(|l| tr.begin(l.0));
        let frame = encode(message);
        if let Some(s) = span {
            tr.end(s);
        }
        let span = layers.map(|l| tr.begin(l.1));
        // Decoders take the payload: the frame without its length prefix.
        let back = decode(&frame[4..]);
        if let Some(s) = span {
            tr.end(s);
        }
        self.bytes += frame.len() as u64;
        self.intact &= back.is_ok_and(|b| b == *message);
    }

    fn request(&mut self, tr: &mut Tracer, req: &Request, layers: Option<(Layer, Layer)>) {
        self.roundtrip(tr, req, layers, wire::encode_request, wire::decode_request);
    }

    fn response(&mut self, tr: &mut Tracer, resp: &Response, layers: Option<(Layer, Layer)>) {
        self.roundtrip(
            tr,
            resp,
            layers,
            wire::encode_response,
            wire::decode_response,
        );
    }
}

impl PlaneRpcJournal {
    pub fn new(seed: u64, traced: bool, out_dir: &Path) -> Self {
        let shadow = traced.then(|| {
            let dir = out_dir.join("replay-store");
            let _ = std::fs::remove_dir_all(&dir);
            let plane = ShardedReconfigService::new(SHARDS);
            let ids = (0..CACHES)
                .map(|_| plane.register(CacheSpec::new(CAPACITY, TENANTS)))
                .collect();
            Shadow {
                plane,
                ids,
                store: Store::open(&dir, SHARDS).expect("scratch store opens"),
                dir,
            }
        });
        PlaneRpcJournal {
            pool: CurvePool::generate(seed, POOL_CURVES, CAPACITY),
            shadow,
            segments: 0,
        }
    }

    /// Replays one cycle's inputs through wire, plane, planner and store
    /// from outside, one span per call.
    fn replay(&mut self, book: &Book, done: &Cycle, ctx: &mut Ctx) -> ReplayBytes {
        let shadow = self.shadow.as_mut().expect("traced runs build the shadow");
        let tr = &mut ctx.tracer;

        // serve.wire: the submit batch on its own, a report reply on its
        // own, and every other frame of the cycle under one span.
        let submit = Request::Submit {
            entries: done
                .sends
                .iter()
                .map(|s| SubmitEntry {
                    id: book.ids[s.cache].value(),
                    tenant: s.tenant as u32,
                    curve: s.curve.clone(),
                })
                .collect(),
        };
        let mut frames = Frames::default();
        frames.request(
            tr,
            &submit,
            Some((Layer::WireEncodeRequest, Layer::WireDecodeRequest)),
        );
        let others = tr.begin(Layer::WireOtherFrames);
        let reply = Response::SubmitReply {
            results: vec![Ok(()); done.sends.len()],
        };
        frames.response(tr, &reply, None);
        let submit_bytes = frames.bytes;
        frames.request(tr, &Request::RunEpoch, None);
        if let Some(report) = &done.report {
            frames.response(tr, &Response::Epoch(report.clone()), None);
        }
        for &cache in &done.touched {
            let id = book.ids[cache].value();
            frames.request(tr, &Request::Report { id }, None);
        }
        tr.end(others);
        for read in done.readbacks.iter().flatten() {
            frames.response(
                tr,
                &Response::Snapshot(Some(read.summary())),
                Some((Layer::WireEncodeResponse, Layer::WireDecodeResponse)),
            );
        }
        ctx.ops.check(frames.intact, || {
            "a replayed frame did not round-trip".to_string()
        });

        // serve.plane on the shadow: same submissions, same epoch.
        for send in &done.sends {
            let curve = send.curve.clone();
            let layer = if send.dup {
                Layer::PlaneSubmitDup
            } else {
                Layer::PlaneSubmit
            };
            let span = tr.begin(layer);
            let _ = shadow
                .plane
                .submit(shadow.ids[send.cache], send.tenant, curve);
            tr.end(span);
        }
        let span = tr.begin(Layer::PlaneRunEpoch);
        let planned = shadow.plane.run_epoch().planned.len();
        tr.end(span);
        ctx.ops.check(planned == TOUCHED, || {
            format!("shadow plane planned {planned} caches")
        });
        let mut snaps = Vec::with_capacity(TOUCHED);
        for &cache in &done.touched {
            let span = tr.begin(Layer::PlaneSnapshot);
            snaps.extend(shadow.plane.snapshot(shadow.ids[cache]));
            tr.end(span);
        }

        // store: the sink calls the plane makes, into a scratch journal.
        let before: u64 = shard_lens(&shadow.dir).iter().sum();
        for send in done.sends.iter().filter(|s| !s.dup) {
            let span = tr.begin(Layer::StoreAppendCurve);
            shadow.store.submit(
                book.ids[send.cache].value(),
                send.tenant as u32,
                &send.curve,
            );
            tr.end(span);
        }
        let curve_bytes = shard_lens(&shadow.dir).iter().sum::<u64>() - before;
        for snap in &snaps {
            let span = tr.begin(Layer::StoreAppendPlan);
            shadow.store.plan(
                snap.cache.value(),
                snap.epoch,
                snap.version,
                snap.updates,
                &snap.plan,
            );
            tr.end(span);
        }
        ctx.ops.check(shadow.store.last_error().is_none(), || {
            "scratch store faulted".to_string()
        });
        replay_planner(book, &self.pool, done, ctx);
        ReplayBytes {
            submit_frames: submit_bytes,
            all_frames: frames.bytes,
            curve_records: curve_bytes,
        }
    }
}

impl Drop for PlaneRpcJournal {
    fn drop(&mut self) {
        if let Some(shadow) = &self.shadow {
            let _ = std::fs::remove_dir_all(&shadow.dir);
        }
    }
}

impl Workload for PlaneRpcJournal {
    type Segment = RpcSegment;

    fn setup(&mut self, ctx: &mut Ctx) -> RpcSegment {
        let dir = ctx.out_dir.join(format!("journal-{}", self.segments));
        self.segments += 1;
        let _ = std::fs::remove_dir_all(&dir);
        let store = Arc::new(Store::open(&dir, SHARDS).expect("journal directory opens"));
        let plane = Arc::new(ShardedReconfigService::new(SHARDS).with_sink(store));
        let handle = RpcServer::bind("127.0.0.1:0", plane)
            .and_then(RpcServer::spawn)
            .expect("loopback server starts");
        let mut client = RpcClient::connect(handle.local_addr()).expect("client connects");
        let ids: Vec<CacheId> = (0..CACHES)
            .filter_map(|_| client.register(CAPACITY, TENANTS as u32).ok())
            .collect();
        ctx.ops.check(ids.len() == CACHES, || {
            format!("registered {} of {CACHES} caches", ids.len())
        });
        let mut seg = RpcSegment {
            dir,
            handle,
            front: RpcFront {
                client,
                busy: 0,
                round_trips: 0,
            },
            book: Book::new(ids, ctx.seed),
        };
        for _ in 0..WARM_CYCLES {
            cycle(&mut seg.front, &mut seg.book, &self.pool, ctx, None, false);
        }
        seg
    }

    fn measure(&mut self, seg: &mut RpcSegment, ctx: &mut Ctx, acc: &mut Acc) {
        let start_bytes: u64 = shard_lens(&seg.dir).iter().sum();
        seg.front.round_trips = 0;
        let (mut bytes, mut replays) = (ReplayBytes::default(), 0u64);
        for i in 0..RPC_SEGMENT_CYCLES {
            let replaying = ctx.tracer.enabled() && i % REPLAY_EVERY == 0;
            let before = shard_lens(&seg.dir);
            let done = cycle(
                &mut seg.front,
                &mut seg.book,
                &self.pool,
                ctx,
                Some(acc),
                replaying,
            );
            // The journal must have grown by at least the submitted
            // curves' payload: a cycle that appends nothing measured a
            // no-op.
            let grown = shard_lens(&seg.dir).iter().sum::<u64>() - before.iter().sum::<u64>();
            ctx.ops
                .check(grown >= SUBMITS_PER_CYCLE * (POINTS as u64) * 16, || {
                    format!("cycle {i}: journal grew by only {grown} bytes")
                });
            if i % DEEP_CHECK_EVERY == 0 {
                deep_check(&seg.book, &self.pool, &done, ctx);
                let got = appended_records(&seg.dir, &before);
                let want = (SUBMITS_PER_CYCLE, SHARDS as u64, TOUCHED as u64, 0);
                ctx.ops.check(got == want, || {
                    format!("cycle {i}: journal gained (curves, cuts, plans, other) {got:?}, want {want:?}")
                });
            }
            if replaying {
                ctx.tracer.set_replaying(true);
                let cycle_bytes = self.replay(&seg.book, &done, ctx);
                ctx.tracer.set_replaying(false);
                bytes.submit_frames += cycle_bytes.submit_frames;
                bytes.all_frames += cycle_bytes.all_frames;
                bytes.curve_records += cycle_bytes.curve_records;
                replays += 1;
            }
            if (i + 1) % RPC_WINDOW_CYCLES == 0 {
                acc.close_window(0);
            }
        }
        let journal: u64 = shard_lens(&seg.dir).iter().sum::<u64>() - start_bytes;
        let submissions = (RPC_SEGMENT_CYCLES * SUBMITS_PER_CYCLE) as f64;
        acc.extra("journal_bytes_per_submission", journal as f64 / submissions);
        acc.extra("round_trips", seg.front.round_trips as f64);
        acc.extra("busy", seg.front.busy as f64);
        if replays > 0 {
            let sent = (replays * (SUBMITS_PER_CYCLE + DUPS_PER_CYCLE)) as f64;
            acc.extra("wire_bytes_per_submission", bytes.all_frames as f64 / sent);
            acc.extra(
                "submit_frame_bytes_per_submission",
                bytes.submit_frames as f64 / sent,
            );
            acc.extra(
                "store_bytes_per_submission",
                bytes.curve_records as f64 / (replays * SUBMITS_PER_CYCLE) as f64,
            );
        }
    }

    /// Shuts the server down, reopens the journal it wrote, restores a
    /// fresh plane from it and compares every snapshot with its
    /// pre-shutdown value.
    fn teardown(&mut self, seg: RpcSegment, ctx: &mut Ctx, acc: &mut Acc) {
        let RpcSegment {
            dir,
            handle,
            front,
            book,
        } = seg;
        check_dedup(&book, ctx, acc);
        drop(front);
        // The connection thread ends once it reads the client's EOF; the
        // journal is complete only after it has.
        let deadline = Instant::now() + Duration::from_secs(5);
        while handle.connections() > 0 && Instant::now() < deadline {
            std::thread::sleep(Duration::from_millis(1));
        }
        ctx.ops.check(handle.connections() == 0, || {
            "server connection did not close".to_string()
        });
        let before: Vec<Option<Arc<PlanSnapshot>>> = book
            .ids
            .iter()
            .map(|&id| handle.service().snapshot(id))
            .collect();
        handle.shutdown();

        let expected = CACHES as u64 + book.cycle * RECORDS_PER_CYCLE;
        let start = Instant::now();
        let span = ctx.tracer.begin(Layer::StoreOpen);
        let store = Store::open(&dir, SHARDS);
        ctx.tracer.end(span);
        let opened = start.elapsed();
        let restored = ShardedReconfigService::new(SHARDS);
        let span = ctx.tracer.begin(Layer::StoreRestore);
        let summary = store.as_ref().ok().map(|s| restored.restore(s));
        ctx.tracer.end(span);
        let total = start.elapsed();

        match (&store, &summary) {
            (Ok(store), Some(Ok(summary))) => {
                ctx.ops.check(
                    summary.records as u64 == expected
                        && store.recovery().records() as u64 == expected
                        && store.recovery().torn_bytes() == 0
                        && summary.caches == CACHES
                        && summary.snapshots == CACHES
                        && summary.epochs == book.cycle,
                    || format!("restore summary {summary:?}, want {expected} records"),
                );
                let ids = restored.cache_ids();
                let same = ids.len() == before.len()
                    && ids.iter().zip(&before).all(|(&id, was)| {
                        matches!((restored.snapshot(id), was), (Some(now), Some(was)) if *now == **was)
                    });
                ctx.ops.check(same, || {
                    "a restored snapshot differs from its pre-shutdown value".to_string()
                });
                acc.extra("store_records", expected as f64);
                acc.extra("store_open_s", opened.as_secs_f64());
                acc.extra("store_restore_s", (total - opened).as_secs_f64());
                acc.extra(
                    "restore_records_per_s",
                    expected as f64 / total.as_secs_f64(),
                );
            }
            _ => ctx.ops.check(false, || {
                format!("restore failed: {:?} {summary:?}", store.as_ref().err())
            }),
        }
        drop(store);
        let _ = std::fs::remove_dir_all(&dir);
    }

    fn layer_metrics(&self, ctx: &Ctx, acc: &Acc, values: &mut Values) {
        plane_layer_metrics(ctx, acc, values);
        let tr = &ctx.tracer;
        let mean_us = |layer| tr.aggregate(layer).mean_ns() / 1e3;
        let encode = mean_us(Layer::WireEncodeRequest);
        let decode = mean_us(Layer::WireDecodeRequest);
        let encode_resp = mean_us(Layer::WireEncodeResponse);
        let decode_resp = mean_us(Layer::WireDecodeResponse);
        values.set("serve.wire.encode_request_us", encode);
        values.set("serve.wire.decode_request_us", decode);
        values.set("serve.wire.encode_response_us", encode_resp);
        values.set("serve.wire.decode_response_us", decode_resp);
        values.set(
            "serve.wire.cycle_us",
            encode
                + decode
                + mean_us(Layer::WireOtherFrames)
                + TOUCHED as f64 * (encode_resp + decode_resp),
        );
        let flush = mean_us(Layer::RpcFlush);
        let epoch = mean_us(Layer::RpcRunEpoch);
        let report = mean_us(Layer::RpcReport);
        let append_curve = mean_us(Layer::StoreAppendCurve);
        let append_plan = mean_us(Layer::StoreAppendPlan);
        values.set("serve.rpc.flush_us", flush);
        values.set("serve.rpc.run_epoch_us", epoch);
        values.set("serve.rpc.report_us", report);
        // What is left of a cycle's RPC calls (one flush, one epoch, 64
        // reports) once the replayed codec, plane and journal work they
        // trigger is taken out: syscalls, copies, the server thread's
        // wake-up.
        let plane = (SUBMITS_PER_CYCLE as f64 * tr.aggregate(Layer::PlaneSubmit).mean_ns()
            + DUPS_PER_CYCLE as f64 * tr.aggregate(Layer::PlaneSubmitDup).mean_ns()
            + tr.aggregate(Layer::PlaneRunEpoch).mean_ns()
            + TOUCHED as f64 * tr.aggregate(Layer::PlaneSnapshot).mean_ns())
            / 1e3;
        let journal = SUBMITS_PER_CYCLE as f64 * append_curve + TOUCHED as f64 * append_plan;
        values.set(
            "serve.rpc.transport_us",
            residual(
                flush + epoch + TOUCHED as f64 * report,
                &[
                    values.get("serve.wire.cycle_us").unwrap_or(0.0),
                    plane,
                    journal,
                ],
            ),
        );
        values.set("serve.rpc.retries", 0.0);
        values.set("store.append_curve_us", append_curve);
        values.set("store.append_plan_us", append_plan);
        for (metric, extra) in [
            ("serve.rpc.round_trips", "round_trips"),
            ("serve.rpc.busy", "busy"),
            (
                "serve.wire.bytes_per_submission",
                "submit_frame_bytes_per_submission",
            ),
            ("wire_bytes_per_submission", "wire_bytes_per_submission"),
            ("store.bytes_per_submission", "store_bytes_per_submission"),
            (
                "journal_bytes_per_submission",
                "journal_bytes_per_submission",
            ),
            ("store.records", "store_records"),
        ] {
            if let Some(v) = acc.extra_exact(extra) {
                values.set(metric, v);
            }
        }
        // Timings of the fastest segment, as for the end-to-end figures.
        for (metric, extra) in [
            ("store.open_s", "store_open_s"),
            ("store.restore_s", "store_restore_s"),
        ] {
            if let Some(v) = acc.extra_min(extra) {
                values.set(metric, v);
            }
        }
        if let Some(rate) = acc.extra_max("restore_records_per_s") {
            values.set("restore_records_per_s", rate);
        }
        if let (Some(s), Some(n)) = (
            acc.extra_min("store_restore_s"),
            acc.extra_exact("store_records"),
        ) {
            values.set("store.restore_us_per_record", s * 1e6 / n);
        }
    }
}
