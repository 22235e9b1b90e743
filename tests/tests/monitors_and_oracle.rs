//! Monitors against ground truth, and the Belady-MIN convexity corollary.
//!
//! The tier-1 tests run streams as long as their assertions need and no
//! longer (this file used to be most of `cargo test`'s wall time); the
//! `full_length_*` tests keep the original streams, with the same
//! assertions and tolerances, behind `#[ignore]` for CI's release-mode
//! step: `cargo test --release -p talus-integration --test
//! monitors_and_oracle -- --ignored`.

use talus_integration::{scaled_profile, scan_trace};
use talus_sim::monitor::{MattsonMonitor, Monitor, UmonPair};
use talus_sim::policy::{annotate_next_uses, Belady, Lru};
use talus_sim::{AccessCtx, CacheModel, SetAssocCache};
use talus_workloads::AccessGenerator;

/// UMON pairs must agree with exact Mattson profiling across the roster's
/// curve shapes (the Assumption-3 statistical claim). The mean error has
/// settled to three decimals by 150 000 accesses (0.043 on `omnetpp`, the
/// worst profile, at 150 000, 300 000 and 600 000 alike).
#[test]
fn umon_tracks_mattson_across_profiles() {
    assert_umon_tracks_mattson(150_000);
}

#[test]
#[ignore = "long stream; CI runs it in release"]
fn full_length_umon_tracks_mattson_across_profiles() {
    assert_umon_tracks_mattson(600_000);
}

fn assert_umon_tracks_mattson(accesses: usize) {
    for name in ["libquantum", "omnetpp", "mcf", "gobmk"] {
        let app = scaled_profile(name);
        let llc = talus_sim::mb_to_lines(2.0 * talus_integration::TEST_SCALE).max(256);
        let mut umon = UmonPair::with_sets(llc, 64, 5);
        let mut mattson = MattsonMonitor::new(llc * 4);
        let mut gen = app.generator(3, 0);
        for _ in 0..accesses {
            let l = gen.next_line();
            umon.record(l);
            mattson.record(l);
        }
        let cu = umon.curve();
        let grid: Vec<u64> = (1..=16).map(|i| i * llc / 4).collect();
        let cm = mattson.curve_on_grid(&grid);
        // Pointwise agreement is impossible exactly *at* a vertical cliff
        // (the UMON quantises sizes to way granularity), so compare the
        // mean absolute error across the curve instead.
        let mae: f64 = grid
            .iter()
            .map(|&s| (cu.value_at(s as f64) - cm.value_at(s as f64)).abs())
            .sum::<f64>()
            / grid.len() as f64;
        assert!(mae < 0.08, "{name}: UMON vs Mattson mean error {mae:.3}");
    }
}

/// Corollary 7: optimal replacement is convex. Verified empirically: MIN's
/// measured miss curve on a mixed trace has no cliffs (hull ≈ curve).
///
/// A cyclic scan is scale-free — miss rates depend on the cache size as
/// a fraction of the scanned lines and on the number of laps — so the
/// tier-1 run scans an eighth of the lines for the same ≈130 laps, and
/// the caches (fully associative, a linear search per access) are an
/// eighth the width: the same twelve points of the same curve.
#[test]
fn belady_min_curve_is_convex() {
    assert_belady_min_is_convex_on_a_scan(192, 25_000);
}

#[test]
#[ignore = "long stream; CI runs it in release"]
fn full_length_belady_min_curve_is_convex() {
    assert_belady_min_is_convex_on_a_scan(1536, 200_000);
}

fn assert_belady_min_is_convex_on_a_scan(lines: u64, accesses: usize) {
    // A scan-heavy trace that gives LRU a sharp cliff.
    let trace: Vec<_> = scan_trace(lines, accesses);
    let next = annotate_next_uses(&trace);
    let sizes: Vec<u64> = (1..=12).map(|i| i * lines / 12).collect();
    let mut points = vec![(0.0, 1.0)];
    for &size in &sizes {
        let mut cache = SetAssocCache::with_geometry(1, size as usize, Belady::new(), 1);
        for (i, &l) in trace.iter().enumerate() {
            let ctx = AccessCtx::new().with_next_use(next[i]);
            cache.access(l, &ctx);
        }
        points.push((size as f64, cache.stats().miss_rate()));
    }
    let curve = talus_core::MissCurve::new(points).expect("sizes are increasing");
    // MIN on a cyclic scan degrades smoothly — no cliff. Allow a small
    // tolerance for warmup noise.
    assert!(
        curve.is_convex(0.05),
        "MIN's curve should be (near) convex: {curve:?}"
    );
    // And MIN dominates LRU at every size.
    for &size in &sizes {
        let mut lru = SetAssocCache::with_geometry(1, size as usize, Lru::new(), 1);
        let ctx = AccessCtx::new();
        for &l in &trace {
            lru.access(l, &ctx);
        }
        let min_rate = curve.value_at(size as f64);
        assert!(
            min_rate <= lru.stats().miss_rate() + 1e-9,
            "MIN must not lose to LRU at {size}"
        );
    }
}

/// The stack property that UMONs rely on: smaller LRU caches' contents are
/// subsets of larger ones, so miss counts are monotone in size.
#[test]
fn lru_miss_curves_are_monotone_in_size() {
    let app = scaled_profile("xalancbmk");
    let mut gen = app.generator(9, 0);
    let mut mon = MattsonMonitor::new(1 << 14);
    for _ in 0..400_000 {
        mon.record(gen.next_line());
    }
    let grid: Vec<u64> = (0..=64).map(|i| i * 256).collect();
    assert!(mon.curve_on_grid(&grid).is_monotone(1e-12));
}
