//! The run loop every workload shares, and the estimator behind every
//! reported timing.
//!
//! A run is cut into **segments**: set up a fresh system, measure a fixed
//! number of **windows** of a fixed number of cycles each, tear down —
//! repeated until `--seconds` of cycle time has been measured. Fixed
//! counts keep every segment's work (journal size, plans published,
//! simulated accesses) independent of how fast the machine is, so exact
//! counts repeat to the digit whatever `--seconds` is. Only whole
//! segments run: a run measures at least `--seconds` and at most one
//! segment more.
//!
//! **Why the fastest window.** On the box this was sized on, host
//! interference slows a process by up to 1.5× for anything from
//! milliseconds to tens of seconds (eight back-to-back 20 000-cycle
//! traces of one loop had medians of 0.82–0.95 ms per cycle). It only
//! ever slows: the undisturbed speed is the program's own cost and
//! repeats (the fastest 16-cycle window of those traces read
//! 0.59–0.63 ms), while the mean or median of a whole run moves by 25 %
//! between back-to-back sets of ten runs. So windows are short, every
//! window position of the segment is measured once per segment, and the
//! reported figures are those of the *composite fastest pass*: for each
//! position, its fastest instance across the run's segments. Throughput
//! is that pass's plans over its time, a latency percentile is the
//! lowest any window achieved (see [`Acc::best_latency_ns`]), and
//! `setup_s` is the fastest set-up. A slowdown the program causes itself
//! is in every instance, so it still shows; one that comes round less
//! often than a window is long would not, which is why windows span
//! whole cycles and every cycle does the same work.

use crate::report::{peak_rss_mb, Ops, Values};
use crate::stats::{percentile, ratio, samples_beyond};
use crate::trace::{Layer, Tracer};
use std::collections::BTreeMap;
use std::path::PathBuf;
use std::time::Instant;

/// What a workload needs from its surroundings.
#[derive(Debug)]
pub struct Ctx {
    pub tracer: Tracer,
    pub ops: Ops,
    /// Scratch directory inside the checkout (journals, trace files).
    pub out_dir: PathBuf,
    pub seed: u64,
}

/// One measured window: a fixed piece of a segment's work.
#[derive(Debug, Clone)]
struct Window {
    /// Position within the segment; windows of one position do the same
    /// work in every segment.
    position: usize,
    ns: u64,
    plans: u64,
    cycles: std::ops::Range<usize>,
    latencies: std::ops::Range<usize>,
}

/// What the measured segments add up to.
#[derive(Debug, Default)]
pub struct Acc {
    /// Σ cycle durations: the measured wall time.
    pub measured_ns: u64,
    /// Plans published in measured cycles.
    pub plans: u64,
    pub cycle_ns: Vec<u64>,
    /// One sample per touched cache per cycle.
    pub latency_ns: Vec<u64>,
    windows: Vec<Window>,
    /// Totals at the last `close_window`.
    closed: (u64, u64),
    /// Workload-specific per-segment samples, by name.
    pub extras: BTreeMap<String, Vec<f64>>,
}

/// The composite fastest pass (see the module docs).
#[derive(Debug, Default)]
pub struct FastestPass {
    pub ns: u64,
    pub plans: u64,
    pub cycle_ns: Vec<u64>,
    pub latency_ns: Vec<u64>,
    /// Instances each position was chosen from (the fewest, if uneven).
    pub instances: usize,
    /// Whether every instance of a position did the same work.
    pub uniform: bool,
}

impl Acc {
    /// Ends the window at `position`: everything measured since the
    /// previous `close_window` belongs to it.
    pub fn close_window(&mut self, position: usize) {
        let cycles = self.windows.last().map_or(0, |w| w.cycles.end)..self.cycle_ns.len();
        let latencies = self.windows.last().map_or(0, |w| w.latencies.end)..self.latency_ns.len();
        self.windows.push(Window {
            position,
            ns: self.measured_ns - self.closed.0,
            plans: self.plans - self.closed.1,
            cycles,
            latencies,
        });
        self.closed = (self.measured_ns, self.plans);
    }

    pub fn fastest_pass(&self) -> FastestPass {
        let mut by_position: BTreeMap<usize, Vec<&Window>> = BTreeMap::new();
        for w in &self.windows {
            by_position.entry(w.position).or_default().push(w);
        }
        let mut pass = FastestPass {
            instances: by_position.values().map(Vec::len).min().unwrap_or(0),
            uniform: true,
            ..FastestPass::default()
        };
        for instances in by_position.values() {
            let best = instances
                .iter()
                .min_by_key(|w| w.ns)
                .expect("a position has at least one window");
            pass.uniform &= instances.iter().all(|w| {
                w.plans == best.plans
                    && w.cycles.len() == best.cycles.len()
                    && w.latencies.len() == best.latencies.len()
            });
            pass.ns += best.ns;
            pass.plans += best.plans;
            pass.cycle_ns
                .extend_from_slice(&self.cycle_ns[best.cycles.clone()]);
            pass.latency_ns
                .extend_from_slice(&self.latency_ns[best.latencies.clone()]);
        }
        pass.cycle_ns.sort_unstable();
        pass.latency_ns.sort_unstable();
        pass
    }

    /// The `p` latency percentile at the program's own speed. With one
    /// window position every window is a full sample of the workload, so
    /// this is the lowest `p` percentile any window achieved (the
    /// fastest window by total time can still hold a burst of slow
    /// cycles in its tail). With many positions a window holds a single
    /// sample, and the percentile is over the fastest pass's samples.
    pub fn best_latency_ns(&self, p: f64) -> u64 {
        if self.windows.iter().any(|w| w.position != 0) {
            return percentile(&self.fastest_pass().latency_ns, p);
        }
        self.windows
            .iter()
            .filter(|w| !w.latencies.is_empty())
            .map(|w| {
                let mut samples = self.latency_ns[w.latencies.clone()].to_vec();
                samples.sort_unstable();
                percentile(&samples, p)
            })
            .min()
            .expect("a run measures at least one window with samples")
    }

    pub fn extra(&mut self, name: &str, value: f64) {
        self.extras.entry(name.to_string()).or_default().push(value);
    }

    /// Smallest of a per-segment sample (a time: the fastest segment).
    pub fn extra_min(&self, name: &str) -> Option<f64> {
        self.extras.get(name)?.iter().copied().reduce(f64::min)
    }

    /// Largest of a per-segment sample (a rate: the fastest segment).
    pub fn extra_max(&self, name: &str) -> Option<f64> {
        self.extras.get(name)?.iter().copied().reduce(f64::max)
    }

    /// The value of a per-segment sample that must be identical in every
    /// segment (an exact count); `None` if it was not.
    pub fn extra_exact(&self, name: &str) -> Option<f64> {
        let v = self.extras.get(name)?;
        v.iter()
            .all(|x| x.to_bits() == v[0].to_bits())
            .then_some(v[0])
    }
}

/// One benchmark workload, driven segment by segment.
pub trait Workload {
    type Segment;

    /// Builds a fresh system and warms it (every cache planned once).
    /// Timed as one `setup_s` sample.
    fn setup(&mut self, ctx: &mut Ctx) -> Self::Segment;

    /// Runs the segment's fixed windows of measured cycles, closing each
    /// with [`Acc::close_window`].
    fn measure(&mut self, seg: &mut Self::Segment, ctx: &mut Ctx, acc: &mut Acc);

    /// Stops what `setup` started and runs end-of-segment checks.
    fn teardown(&mut self, seg: Self::Segment, ctx: &mut Ctx, acc: &mut Acc);

    /// Per-layer values from the traced segments.
    fn layer_metrics(&self, ctx: &Ctx, acc: &Acc, values: &mut Values);
}

fn segment<W: Workload>(w: &mut W, ctx: &mut Ctx, acc: &mut Acc) {
    let start = Instant::now();
    let mut seg = w.setup(ctx);
    acc.extra("setup_s", start.elapsed().as_secs_f64());
    w.measure(&mut seg, ctx, acc);
    w.teardown(seg, ctx, acc);
}

/// Runs `w` until `seconds` of cycle time is measured and returns every
/// metric value it produced (end-to-end always; per-layer when traced).
pub fn drive<W: Workload>(w: &mut W, ctx: &mut Ctx, seconds: u64, traced: bool) -> Values {
    // A traced run alternates untraced and traced segments and splits
    // `seconds` between them: the overhead of tracing is traced over
    // untraced cycle time, both taken the same way over the same minutes.
    let mut reference = Acc::default();
    let mut acc = Acc::default();
    while acc.measured_ns + reference.measured_ns < seconds * 1_000_000_000 {
        if traced {
            ctx.tracer.set_enabled(false);
            segment(w, ctx, &mut reference);
            ctx.tracer.set_enabled(true);
        }
        segment(w, ctx, &mut acc);
    }

    let pass = acc.fastest_pass();
    ctx.ops.check(pass.uniform, || {
        "windows of one position did different amounts of work".to_string()
    });
    let mut values = Values::default();
    values.set("setup_s", acc.extra_min("setup_s").unwrap_or(0.0));
    values.set(
        "plans_per_s",
        ratio(pass.plans as f64, pass.ns as f64 / 1e9),
    );
    for (name, p) in [
        ("publish_latency_p50_us", 0.5),
        ("publish_latency_p90_us", 0.9),
        ("publish_latency_p99_us", 0.99),
    ] {
        values.set(name, acc.best_latency_ns(p) as f64 / 1e3);
    }
    values.set("peak_rss_mb", peak_rss_mb());
    println!(
        "# measured {:.3} s in {} cycles; fastest pass {:.3} s, each window the best of {}; \
         latency samples {} ({} beyond p90, {} beyond p99)",
        acc.measured_ns as f64 / 1e9,
        acc.cycle_ns.len(),
        pass.ns as f64 / 1e9,
        pass.instances,
        pass.latency_ns.len(),
        samples_beyond(pass.latency_ns.len(), 0.9),
        samples_beyond(pass.latency_ns.len(), 0.99),
    );

    if traced {
        let traced_p50 = percentile(&pass.cycle_ns, 0.5) as f64;
        let untraced_p50 = percentile(&reference.fastest_pass().cycle_ns, 0.5) as f64;
        values.set("cycle_us_p50", traced_p50 / 1e3);
        values.set("trace.overhead_share", traced_p50 / untraced_p50 - 1.0);
        let cycle = ctx.tracer.aggregate(Layer::Cycle);
        values.set(
            "trace.unattributed_share",
            ratio(cycle.self_ns as f64, cycle.total_ns as f64),
        );
        values.set(
            "failed_share",
            ratio(ctx.ops.failed as f64, ctx.ops.attempted as f64),
        );
        w.layer_metrics(ctx, &acc, &mut values);
    }
    values
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Two segments of two windows; position 0 is faster in the second
    /// segment, position 1 in the first.
    fn two_segments() -> Acc {
        let mut acc = Acc::default();
        for (position, cycles) in [(0, [50, 70]), (1, [10, 20]), (0, [40, 60]), (1, [30, 30])] {
            for ns in cycles {
                acc.measured_ns += ns;
                acc.cycle_ns.push(ns);
                acc.latency_ns.push(ns / 2);
                acc.plans += 3;
            }
            acc.close_window(position);
        }
        acc
    }

    #[test]
    fn fastest_pass_takes_each_position_from_its_fastest_segment() {
        let pass = two_segments().fastest_pass();
        assert_eq!(pass.ns, 100 + 30);
        assert_eq!(pass.plans, 12);
        assert_eq!(pass.cycle_ns, vec![10, 20, 40, 60]);
        assert_eq!(pass.latency_ns, vec![5, 10, 20, 30]);
        assert_eq!(pass.instances, 2);
        assert!(pass.uniform);
    }

    #[test]
    fn latency_percentile_is_the_best_any_window_achieved() {
        let mut acc = Acc::default();
        for samples in [[9, 1, 9, 9], [4, 4, 4, 8], [5, 5, 5, 5]] {
            acc.latency_ns.extend(samples);
            acc.close_window(0);
        }
        assert_eq!(acc.best_latency_ns(0.5), 4);
        assert_eq!(acc.best_latency_ns(1.0), 5);
        // Several positions: percentiles over the fastest pass's pool.
        assert_eq!(two_segments().best_latency_ns(0.5), 10);
    }

    #[test]
    fn uneven_work_in_one_position_is_flagged() {
        let mut acc = two_segments();
        acc.plans += 1;
        acc.close_window(0);
        assert!(!acc.fastest_pass().uniform);
    }

    #[test]
    fn extras_reduce_by_kind() {
        let mut acc = Acc::default();
        for v in [3.0, 1.0, 2.0] {
            acc.extra("t", v);
            acc.extra("n", 7.0);
        }
        assert_eq!(acc.extra_min("t"), Some(1.0));
        assert_eq!(acc.extra_max("t"), Some(3.0));
        assert_eq!(acc.extra_exact("n"), Some(7.0));
        assert_eq!(acc.extra_exact("t"), None);
        assert_eq!(acc.extra_min("absent"), None);
    }
}
