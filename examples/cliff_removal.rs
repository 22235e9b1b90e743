//! Cliff removal across a size sweep: the paper's Fig. 1 as a library use
//! case.
//!
//! ```text
//! cargo run -p talus-examples --release --example cliff_removal
//! ```
//!
//! Sweeps LLC sizes for the libquantum-like profile (a 32 MB cyclic scan,
//! scaled 16× down) and prints LRU vs Talus MPKI side by side, plus the
//! analytic hull for reference. Demonstrates: monitors, profiles, the
//! Talus single-app wrapper, and curve math working together.

use talus_core::{talus_curve, MissCurve};
use talus_examples::{banner, row};
use talus_sim::monitor::UmonPair;
use talus_sim::part::VantageLike;
use talus_sim::policy::Lru;
use talus_sim::{
    mb_to_lines, AccessCtx, CacheModel, SetAssocCache, TalusCacheConfig, TalusSingleCache,
};
use talus_workloads::{profile, AccessGenerator};

const SCALE: f64 = 1.0 / 16.0;
const WARMUP: u64 = 150_000;
const MEASURE: u64 = 300_000;

fn main() {
    let app = profile("libquantum")
        .expect("roster has libquantum")
        .scaled(SCALE);
    let apki = app.apki;
    banner("libquantum: a 32 MB scan (16x scaled) swept over LLC sizes");
    println!(
        "  {:>8} {:>12} {:>12} {:>12}",
        "MB", "LRU MPKI", "Talus MPKI", "hull MPKI"
    );

    // Analytic hull from the true step curve, for reference.
    let ws = mb_to_lines(32.0 * SCALE) as f64;
    let step = MissCurve::from_samples(&[0.0, ws - 1.0, ws, 2.0 * ws], &[1.0, 1.0, 0.0, 0.0])
        .expect("step curve is valid");
    let hull = talus_curve(&step);

    for paper_mb in [4.0, 8.0, 16.0, 24.0, 32.0, 40.0] {
        let lines = (mb_to_lines(paper_mb * SCALE) / 32) * 32;
        // Plain LRU.
        let mut lru = SetAssocCache::new(lines, 16, Lru::new(), 1);
        let mut gen = app.generator(1, 0);
        let ctx = AccessCtx::new();
        for _ in 0..WARMUP {
            lru.access(gen.next_line(), &ctx);
        }
        lru.reset_stats();
        for _ in 0..MEASURE {
            lru.access(gen.next_line(), &ctx);
        }
        // Talus on a Vantage-like array.
        let cache = VantageLike::new(lines, 16, 2, 2);
        let monitor = UmonPair::new(lines, 3);
        let mut talus = TalusSingleCache::new(cache, monitor, 50_000, TalusCacheConfig::new());
        let mut gen = app.generator(1, 0);
        for _ in 0..WARMUP {
            talus.access(gen.next_line(), &ctx);
        }
        talus.reset_stats();
        for _ in 0..MEASURE {
            talus.access(gen.next_line(), &ctx);
        }
        println!(
            "  {:>8.1} {:>12.1} {:>12.1} {:>12.1}",
            paper_mb,
            apki * lru.stats().miss_rate(),
            apki * talus.stats().miss_rate(),
            apki * hull.value_at(lines as f64)
        );
    }
    banner("reading the table");
    row("LRU", "flat ~33 MPKI until 32 MB, then ~0 (the cliff)");
    row("Talus", "declines roughly linearly along the hull");
    row(
        "residual gap vs hull",
        "Vantage's unmanaged region + margins",
    );
}
