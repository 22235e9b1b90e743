//! End-to-end Talus behaviour across partitioning schemes: the Fig. 8
//! claim that Talus is agnostic to the partitioning substrate, plus the
//! §VI coarsening and margin plumbing.

use talus_integration::{lru_miss_rate, scaled_profile, talus_miss_rate};
use talus_sim::part::{IdealPartitioned, VantageLike, WayPartitioned};
use talus_sim::policy::Lru;
use talus_sim::TalusCacheConfig;

const ACCESSES: u64 = 400_000;

/// The canonical scenario: libquantum's scan at half its working set.
/// LRU gets ~0 hits; Talus should recover roughly half the accesses on
/// every scheme.
#[test]
fn talus_is_agnostic_to_partitioning_scheme() {
    let app = scaled_profile("libquantum");
    let ws_lines = talus_sim::mb_to_lines(app.footprint_mb());
    let cache_lines = (ws_lines / 2 / 32) * 32;

    let lru = lru_miss_rate(&app, cache_lines, ACCESSES, 7);
    assert!(lru > 0.95, "LRU should thrash below the scan size: {lru}");

    let ideal = talus_miss_rate(
        IdealPartitioned::new(cache_lines, 2),
        &app,
        ACCESSES,
        TalusCacheConfig::new(),
        7,
    );
    let way = talus_miss_rate(
        WayPartitioned::new(cache_lines, 32, 2, Lru::new(), 3),
        &app,
        ACCESSES,
        TalusCacheConfig::new(),
        7,
    );
    let vantage = talus_miss_rate(
        VantageLike::new(cache_lines, 16, 2, 3),
        &app,
        ACCESSES,
        TalusCacheConfig::new(),
        7,
    );
    // Hull value at half the scan: ~0.5 misses per access.
    for (name, rate) in [("ideal", ideal), ("way", way), ("vantage", vantage)] {
        assert!(
            rate < 0.75,
            "Talus+{name} should remove most of the cliff: {rate}"
        );
        assert!(rate > 0.40, "Talus+{name} cannot beat the hull: {rate}");
    }
    // Schemes agree within a loose tolerance (Fig. 8's visual claim).
    let max = ideal.max(way).max(vantage);
    let min = ideal.min(way).min(vantage);
    assert!(
        max - min < 0.2,
        "schemes diverge: ideal {ideal}, way {way}, vantage {vantage}"
    );
}

/// Talus must never do noticeably worse than LRU on an already-convex
/// workload (its plans collapse to unpartitioned).
#[test]
fn talus_is_harmless_on_convex_workloads() {
    let app = scaled_profile("astar"); // pure Zipf: smooth convex curve
    let lines = talus_sim::mb_to_lines(4.0 * talus_integration::TEST_SCALE);
    let lru = lru_miss_rate(&app, lines, ACCESSES, 11);
    let talus = talus_miss_rate(
        IdealPartitioned::new(lines, 2),
        &app,
        ACCESSES,
        TalusCacheConfig::new(),
        11,
    );
    assert!(
        talus <= lru + 0.05,
        "Talus ({talus:.3}) should track LRU ({lru:.3}) on convex curves"
    );
}

/// Way partitioning coarsens shadow sizes to whole ways; the §VI-B
/// correction must keep the achieved rate near the hull anyway.
#[test]
fn coarsening_correction_keeps_talus_effective() {
    let app = scaled_profile("omnetpp");
    // Cache with few ways: heavy coarsening (each way = 1/8 of capacity).
    let lines = talus_sim::mb_to_lines(1.0 * talus_integration::TEST_SCALE);
    let lines = (lines / 8) * 8;
    let lru = lru_miss_rate(&app, lines, ACCESSES, 13);
    let talus = talus_miss_rate(
        WayPartitioned::new(lines, 8, 2, Lru::new(), 5),
        &app,
        ACCESSES,
        TalusCacheConfig::new(),
        13,
    );
    assert!(
        talus < lru + 0.03,
        "coarsened Talus ({talus:.3}) must not regress past LRU ({lru:.3})"
    );
}
