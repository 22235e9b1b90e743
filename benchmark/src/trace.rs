//! In-memory spans around the calls the benchmark makes into each layer.
//!
//! Layers are timed from outside: a span wraps one call into a layer's
//! public function. Spans nest (a cycle span holds the submit, epoch and
//! read spans of that cycle); a span's *self time* is its duration minus
//! what its direct children cover. Every span feeds a per-layer
//! aggregate (count, total, self); the raw spans of every n-th cycle
//! (the workload picks n) are also kept and written out with the
//! aggregates when the run ends, so a finished trace can be inspected
//! without holding tens of millions of spans in memory.
//!
//! With tracing off every call here is one predictable branch, which is
//! what lets the untraced run use the same cycle code.

use std::fmt::Write as _;
use std::time::Instant;

/// Upper bound on retained raw spans (the aggregates are never capped).
const MAX_RETAINED: usize = 400_000;

/// Every boundary the benchmark records, named after the repo's modules.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[repr(usize)]
pub enum Layer {
    /// One closed-loop cycle of a workload (the root of its spans).
    Cycle,
    PlaneSubmit,
    PlaneSubmitDup,
    PlaneSubmitLatest,
    PlaneRunEpoch,
    PlaneSnapshot,
    RpcStage,
    RpcStageDup,
    RpcFlush,
    RpcRunEpoch,
    RpcReport,
    StoreOpen,
    StoreRestore,
    SweepTalusCurve,
    SweepLruCurve,
    MulticoreRunMix,
    // Decomposed replay: the layer's own public function called on the
    // same cycle's inputs, because the real call is opaque from outside.
    Hull,
    PlannerPlan,
    WireEncodeRequest,
    WireDecodeRequest,
    WireEncodeResponse,
    WireDecodeResponse,
    WireOtherFrames,
    StoreAppendCurve,
    StoreAppendPlan,
    Generate,
    MonitorRecord,
    MonitorCurve,
    AnalyticCurve,
    TalusCacheAccess,
}

impl Layer {
    pub const ALL: [Layer; 30] = [
        Layer::Cycle,
        Layer::PlaneSubmit,
        Layer::PlaneSubmitDup,
        Layer::PlaneSubmitLatest,
        Layer::PlaneRunEpoch,
        Layer::PlaneSnapshot,
        Layer::RpcStage,
        Layer::RpcStageDup,
        Layer::RpcFlush,
        Layer::RpcRunEpoch,
        Layer::RpcReport,
        Layer::StoreOpen,
        Layer::StoreRestore,
        Layer::SweepTalusCurve,
        Layer::SweepLruCurve,
        Layer::MulticoreRunMix,
        Layer::Hull,
        Layer::PlannerPlan,
        Layer::WireEncodeRequest,
        Layer::WireDecodeRequest,
        Layer::WireEncodeResponse,
        Layer::WireDecodeResponse,
        Layer::WireOtherFrames,
        Layer::StoreAppendCurve,
        Layer::StoreAppendPlan,
        Layer::Generate,
        Layer::MonitorRecord,
        Layer::MonitorCurve,
        Layer::AnalyticCurve,
        Layer::TalusCacheAccess,
    ];

    /// The public function the span wraps.
    pub fn name(self) -> &'static str {
        match self {
            Layer::Cycle => "benchmark.cycle",
            Layer::PlaneSubmit => "serve.plane.submit",
            Layer::PlaneSubmitDup => "serve.plane.submit_dup",
            Layer::PlaneSubmitLatest => "serve.plane.submit_latest",
            Layer::PlaneRunEpoch => "serve.plane.run_epoch",
            Layer::PlaneSnapshot => "serve.plane.snapshot",
            Layer::RpcStage => "serve.rpc.stage",
            Layer::RpcStageDup => "serve.rpc.stage_dup",
            Layer::RpcFlush => "serve.rpc.flush",
            Layer::RpcRunEpoch => "serve.rpc.run_epoch",
            Layer::RpcReport => "serve.rpc.report",
            Layer::StoreOpen => "store.open",
            Layer::StoreRestore => "serve.plane.restore",
            Layer::SweepTalusCurve => "experiments.sweep.talus_curve",
            Layer::SweepLruCurve => "experiments.sweep.lru_curve",
            Layer::MulticoreRunMix => "multicore.run_mix",
            Layer::Hull => "core.curve.convex_hull",
            Layer::PlannerPlan => "partition.planner.plan",
            Layer::WireEncodeRequest => "serve.wire.encode_request",
            Layer::WireDecodeRequest => "serve.wire.decode_request",
            Layer::WireEncodeResponse => "serve.wire.encode_response",
            Layer::WireDecodeResponse => "serve.wire.decode_response",
            Layer::WireOtherFrames => "serve.wire.other_frames",
            Layer::StoreAppendCurve => "store.sink.submit",
            Layer::StoreAppendPlan => "store.sink.plan",
            Layer::Generate => "workloads.generator.next_line",
            Layer::MonitorRecord => "sim.monitor.record_block",
            Layer::MonitorCurve => "sim.monitor.curve",
            Layer::AnalyticCurve => "workloads.analytic.curve",
            Layer::TalusCacheAccess => "sim.talus_cache.access_block",
        }
    }
}

/// What one layer's spans add up to.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Aggregate {
    pub count: u64,
    pub total_ns: u64,
    pub self_ns: u64,
}

impl Aggregate {
    /// Mean span duration in nanoseconds (0 for a layer never entered).
    pub fn mean_ns(&self) -> f64 {
        crate::stats::ratio(self.total_ns as f64, self.count as f64)
    }
}

/// One retained span.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Span {
    pub id: u64,
    pub layer: Layer,
    pub start_ns: u64,
    pub end_ns: u64,
    /// The span that was open when this one began.
    pub parent: Option<u64>,
    /// Shared by every span of one cycle.
    pub cycle: u64,
    /// Whether the span wraps a decomposed replay, not a real call.
    pub replay: bool,
}

#[derive(Debug)]
struct Open {
    id: u64,
    layer: Layer,
    start_ns: u64,
    child_ns: u64,
}

/// Handed out by [`Tracer::begin`]; spans close in LIFO order.
#[derive(Debug)]
#[must_use = "a span must be ended"]
pub struct SpanToken(usize);

/// The span recorder. One per workload process, single-threaded (the
/// load generator is one thread).
#[derive(Debug)]
pub struct Tracer {
    enabled: bool,
    origin: Instant,
    stack: Vec<Open>,
    aggregates: [Aggregate; Layer::ALL.len()],
    replayed: [bool; Layer::ALL.len()],
    spans: Vec<Span>,
    next_id: u64,
    cycle: u64,
    /// Raw spans are kept for cycles whose id is a multiple of this.
    retain_every: u64,
    replaying: bool,
}

impl Tracer {
    pub fn new(enabled: bool, retain_every: u64) -> Self {
        assert!(retain_every > 0, "retain every n-th cycle, n >= 1");
        Tracer {
            retain_every,
            enabled,
            origin: Instant::now(),
            stack: Vec::new(),
            aggregates: [Aggregate::default(); Layer::ALL.len()],
            replayed: [false; Layer::ALL.len()],
            spans: Vec::new(),
            next_id: 0,
            cycle: 0,
            replaying: false,
        }
    }

    pub fn enabled(&self) -> bool {
        self.enabled
    }

    /// Switches recording on or off between segments (the traced run
    /// alternates untraced and traced ones, for the overhead figure).
    pub fn set_enabled(&mut self, enabled: bool) {
        assert!(self.stack.is_empty(), "toggle tracing between spans");
        self.enabled = enabled;
    }

    /// Starts the next cycle: spans begun from now on carry its id.
    /// Ids run on across segments, warm-up cycles included.
    pub fn next_cycle(&mut self) {
        self.cycle += 1;
    }

    /// Marks spans begun from now on as decomposed replays (or not).
    pub fn set_replaying(&mut self, replaying: bool) {
        self.replaying = replaying;
    }

    /// Nanoseconds since the tracer was created: the benchmark's clock.
    pub fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    pub fn begin(&mut self, layer: Layer) -> SpanToken {
        if !self.enabled {
            return SpanToken(usize::MAX);
        }
        let now = self.now_ns();
        self.begin_at(layer, now)
    }

    /// Ends the innermost span; returns its duration in nanoseconds.
    pub fn end(&mut self, token: SpanToken) -> u64 {
        if !self.enabled {
            return 0;
        }
        let now = self.now_ns();
        self.end_at(token, now)
    }

    fn begin_at(&mut self, layer: Layer, now_ns: u64) -> SpanToken {
        let id = self.next_id;
        self.next_id += 1;
        self.stack.push(Open {
            id,
            layer,
            start_ns: now_ns,
            child_ns: 0,
        });
        SpanToken(self.stack.len() - 1)
    }

    fn end_at(&mut self, token: SpanToken, now_ns: u64) -> u64 {
        assert_eq!(token.0 + 1, self.stack.len(), "spans close in LIFO order");
        let open = self.stack.pop().expect("token proves a span is open");
        let duration = now_ns - open.start_ns;
        let parent = self.stack.last_mut().map(|p| {
            p.child_ns += duration;
            p.id
        });
        let slot = open.layer as usize;
        let agg = &mut self.aggregates[slot];
        agg.count += 1;
        agg.total_ns += duration;
        agg.self_ns += duration - open.child_ns;
        self.replayed[slot] |= self.replaying;
        if self.cycle.is_multiple_of(self.retain_every) && self.spans.len() < MAX_RETAINED {
            self.spans.push(Span {
                id: open.id,
                layer: open.layer,
                start_ns: open.start_ns,
                end_ns: now_ns,
                parent,
                cycle: self.cycle,
                replay: self.replaying,
            });
        }
        duration
    }

    pub fn aggregate(&self, layer: Layer) -> Aggregate {
        self.aggregates[layer as usize]
    }

    /// The trace file: per-layer aggregates over every span, then the
    /// retained raw spans.
    pub fn to_json(&self, workload: &str, seed: u64) -> String {
        let mut out = String::new();
        let _ = write!(
            out,
            "{{\"workload\":\"{workload}\",\"seed\":{seed},\"retain_every\":{},\"layers\":[",
            self.retain_every
        );
        let mut first = true;
        for layer in Layer::ALL {
            let agg = self.aggregate(layer);
            if agg.count == 0 {
                continue;
            }
            let _ = write!(
                out,
                "{}\n{{\"name\":\"{}\",\"count\":{},\"total_ns\":{},\"self_ns\":{},\"replay\":{}}}",
                if first { "" } else { "," },
                layer.name(),
                agg.count,
                agg.total_ns,
                agg.self_ns,
                self.replayed[layer as usize]
            );
            first = false;
        }
        out.push_str("],\"spans\":[");
        for (i, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            let _ = write!(
                out,
                "{}\n{{\"id\":{},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"parent\":{},\"cycle\":{},\"replay\":{}}}",
                if i == 0 { "" } else { "," },
                s.id,
                s.layer.name(),
                s.start_ns,
                s.end_ns,
                parent,
                s.cycle,
                s.replay
            );
        }
        out.push_str("]}\n");
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn layer_table_matches_discriminants() {
        for (i, layer) in Layer::ALL.iter().enumerate() {
            assert_eq!(*layer as usize, i, "{layer:?} out of order in ALL");
        }
        let mut names: Vec<_> = Layer::ALL.iter().map(|l| l.name()).collect();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), Layer::ALL.len(), "layer names are unique");
    }

    #[test]
    fn self_time_is_duration_minus_children() {
        let mut tr = Tracer::new(true, 64);
        let root = tr.begin_at(Layer::Cycle, 100);
        let a = tr.begin_at(Layer::PlaneSubmit, 110);
        assert_eq!(tr.end_at(a, 140), 30);
        let b = tr.begin_at(Layer::PlaneRunEpoch, 150);
        // A grandchild is charged to its parent only, not to the root.
        let g = tr.begin_at(Layer::PlannerPlan, 160);
        tr.end_at(g, 180);
        tr.end_at(b, 200);
        assert_eq!(tr.end_at(root, 260), 160);

        let cycle = tr.aggregate(Layer::Cycle);
        assert_eq!((cycle.count, cycle.total_ns), (1, 160));
        assert_eq!(cycle.self_ns, 160 - 30 - 50);
        let epoch = tr.aggregate(Layer::PlaneRunEpoch);
        assert_eq!((epoch.total_ns, epoch.self_ns), (50, 30));
        assert_eq!(tr.aggregate(Layer::PlannerPlan).self_ns, 20);
        assert_eq!(tr.aggregate(Layer::PlaneSubmit).mean_ns(), 30.0);
    }

    #[test]
    fn spans_carry_parent_cycle_and_replay() {
        let mut tr = Tracer::new(true, 64);
        tr.cycle = 64;
        let root = tr.begin_at(Layer::Cycle, 0);
        let child = tr.begin_at(Layer::PlaneSnapshot, 1);
        tr.end_at(child, 2);
        tr.end_at(root, 3);
        tr.set_replaying(true);
        let r = tr.begin_at(Layer::Hull, 4);
        tr.end_at(r, 5);
        let spans = &tr.spans;
        assert_eq!(spans.len(), 3);
        assert_eq!(spans[0].layer, Layer::PlaneSnapshot);
        assert_eq!(spans[0].parent, Some(spans[1].id));
        assert_eq!(spans[1].parent, None);
        assert!(spans.iter().all(|s| s.cycle == 64));
        assert!(spans[2].replay && !spans[0].replay);
        let json = tr.to_json("w", 1);
        assert!(json.contains("\"name\":\"core.curve.convex_hull\",\"count\":1"));
        assert!(json.contains("\"parent\":null"));
    }

    #[test]
    fn unsampled_cycles_aggregate_without_retaining() {
        let mut tr = Tracer::new(true, 64);
        tr.next_cycle();
        let s = tr.begin_at(Layer::PlaneSubmit, 0);
        tr.end_at(s, 9);
        assert!(tr.spans.is_empty());
        assert_eq!(tr.aggregate(Layer::PlaneSubmit).total_ns, 9);
    }

    #[test]
    fn disabled_tracer_records_nothing() {
        let mut tr = Tracer::new(false, 64);
        let s = tr.begin(Layer::Cycle);
        assert_eq!(tr.end(s), 0);
        assert_eq!(tr.aggregate(Layer::Cycle).count, 0);
        assert!(tr.spans.is_empty());
    }
}
