//! Golden state digests of every hashed structure in `talus-sim`.
//!
//! One fixed seeded stream is driven through each cache organisation and
//! monitor, and the counts each one ends with (hits, misses, occupancies,
//! curve bits) are folded into a 64-bit digest pinned below. The digests
//! were taken on the commit *before* the per-access kernels moved to
//! `H3Bank`/`FastMod32`, so any change to which set, row or victim an
//! address maps to — a hash lane that differs in one bit, a remainder that
//! is off by one, a victim tie broken the other way — fails here, in
//! `cargo test`, not only in the repo benchmark's `sim.stats_digest`.
//!
//! A digest may only be re-pinned by a change that *means* to alter
//! simulated behaviour, and that change must say so.

use talus_sim::monitor::{CurveSampler, Monitor, Umon, UmonPair};
use talus_sim::part::{
    FutilityScaled, PartitionedCacheModel, SetPartitioned, VantageLike, WayPartitioned,
};
use talus_sim::policy::{Lru, PolicyKind, Srrip};
use talus_sim::{
    AccessCtx, CacheModel, LineAddr, PartitionId, SampleFilter, SetAssocCache, TalusCacheConfig,
    TalusSingleCache, ThreadId,
};

const STREAM_LEN: usize = 120_000;

/// The fixed stream: `(selector, line)` pairs. Half uniform reuse over
/// 6000 lines, three eighths a cyclic scan over 5000 lines based at
/// `3 << 44` (the multicore address layout: bytes 5–7 of the line number
/// set), one eighth sparse lines with every high byte populated. The
/// selector picks the partition (or thread) an access is issued for.
fn stream() -> Vec<(u32, LineAddr)> {
    let mut state = 0x7A1u64;
    let mut scan = 0u64;
    (0..STREAM_LEN)
        .map(|_| {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            let r = state >> 33;
            let line = match r % 8 {
                0..=3 => (state >> 13) % 6000,
                4..=6 => {
                    scan += 1;
                    (3 << 44) | (scan % 5000)
                }
                _ => ((state >> 7) << 40) | (r % 512),
            };
            ((state >> 20) as u32, LineAddr(line))
        })
        .collect()
}

/// FNV-1a over the little-endian bytes of `words`.
fn digest(words: &[u64]) -> u64 {
    let mut h = 0xCBF2_9CE4_8422_2325u64;
    for byte in words.iter().flat_map(|w| w.to_le_bytes()) {
        h = (h ^ u64::from(byte)).wrapping_mul(0x0000_0100_0000_01B3);
    }
    h
}

/// Drives a partitioned cache: the first half one `access` at a time,
/// then `resize` mid-stream, then the second half through `access_block`
/// in 64-line runs per partition.
fn drive_partitioned<C: PartitionedCacheModel>(
    cache: &mut C,
    first: &[u64],
    resize: &[u64],
) -> Vec<u64> {
    let ctx = AccessCtx::new();
    let parts = cache.num_partitions() as u32;
    let stream = stream();
    let (head, tail) = stream.split_at(STREAM_LEN / 2);
    let mut words = cache.set_partition_sizes(first);
    for &(sel, line) in head {
        cache.access(PartitionId(sel % parts), line, &ctx);
    }
    words.extend(cache.set_partition_sizes(resize));
    for chunk in tail.chunks(64) {
        let lines: Vec<LineAddr> = chunk.iter().map(|&(_, l)| l).collect();
        cache.access_block(PartitionId(chunk[0].0 % parts), &lines, &ctx);
    }
    for p in 0..parts {
        let s = cache.partition_stats(PartitionId(p));
        words.extend([s.hits(), s.misses()]);
    }
    words
}

fn vantage(capacity: u64, first: &[u64], resize: &[u64], seed: u64) -> Vec<u64> {
    let mut c = VantageLike::new(capacity, 16, first.len(), seed);
    let mut words = drive_partitioned(&mut c, first, resize);
    for p in 0..first.len() as u32 {
        words.extend([
            c.occupancy(PartitionId(p)),
            c.effective_target(PartitionId(p)),
        ]);
    }
    words
}

fn futility() -> Vec<u64> {
    // 225 rows: a row count that is not a power of two.
    let mut c = FutilityScaled::new(3600, 16, 3, 11);
    let mut words = drive_partitioned(&mut c, &[600, 2000, 1000], &[2400, 0, 1200]);
    for p in 0..3 {
        words.extend([
            c.occupancy(PartitionId(p)),
            c.scaling_factor(PartitionId(p)).to_bits(),
        ]);
    }
    words
}

fn way_srrip() -> Vec<u64> {
    // 125 sets × 32 ways, as `talus_curve`'s Talus+W/SRRIP builds them.
    let mut c = WayPartitioned::new(4000, 32, 2, Srrip::new(), 7);
    let mut words = drive_partitioned(&mut c, &[1000, 3000], &[3500, 500]);
    words.extend([
        c.ways_of(PartitionId(0)) as u64,
        c.ways_of(PartitionId(1)) as u64,
    ]);
    words
}

fn set_partitioned() -> Vec<u64> {
    let mut c = SetPartitioned::new(3600, 16, 3, Lru::new(), 9);
    let mut words = drive_partitioned(&mut c, &[1200, 400, 2000], &[0, 3000, 600]);
    for p in 0..3 {
        let (base, count) = c.set_range(PartitionId(p));
        words.extend([base as u64, count as u64]);
    }
    words
}

fn set_assoc(kind: PolicyKind) -> Vec<u64> {
    // 75 sets × 16 ways; thread ids feed TA-DRRIP's per-thread duel.
    let mut c = SetAssocCache::new(1200, 16, kind.build_any(3), 42);
    let stream = stream();
    let (head, tail) = stream.split_at(STREAM_LEN / 2);
    for &(sel, line) in head {
        let ctx = AccessCtx::from_thread(ThreadId((sel % 4) as u16));
        c.access(line, &ctx);
    }
    let ctx = AccessCtx::new();
    for chunk in tail.chunks(256) {
        let lines: Vec<LineAddr> = chunk.iter().map(|&(_, l)| l).collect();
        c.access_block(&lines, &ctx);
    }
    vec![c.stats().hits(), c.stats().misses()]
}

fn curve_words(monitor: &impl Monitor) -> Vec<u64> {
    let mut words = vec![monitor.sampled_accesses()];
    for p in monitor.curve().points() {
        words.extend([p.size.to_bits(), p.misses.to_bits()]);
    }
    words
}

/// Records the first half per access and the second half in 1024-line
/// blocks, with a `reset` (tags stay warm) in between.
fn drive_monitor(monitor: &mut impl Monitor) -> Vec<u64> {
    let lines: Vec<LineAddr> = stream().into_iter().map(|(_, l)| l).collect();
    let (head, tail) = lines.split_at(STREAM_LEN / 2);
    for &line in head {
        monitor.record(line);
    }
    let mut words = curve_words(monitor);
    monitor.reset();
    for chunk in tail.chunks(1024) {
        monitor.record_block(chunk);
    }
    words.extend(curve_words(monitor));
    words
}

fn curve_sampler(kind: PolicyKind) -> Vec<u64> {
    // The §VI-C bank as `srrip_monitor` sizes it for a 4000-line cache:
    // exact mini-caches below 1024 lines (set counts that are not powers
    // of two), sampled 1024-line monitors above.
    let (min, max) = (250u64, 16_000u64);
    let sizes: Vec<u64> = (1..=16).map(|i| min + (max - min) * i / 16).collect();
    drive_monitor(&mut CurveSampler::new(kind, &sizes, 1024, 16, 0x777))
}

fn sample_filter() -> Vec<u64> {
    let stream = stream();
    [1u64, 2, 7, 16, 79, 1 << 33]
        .iter()
        .map(|&ratio| {
            let f = SampleFilter::new(ratio, 5);
            stream.iter().filter(|&&(_, l)| f.accepts(l)).count() as u64
        })
        .collect()
}

fn talus_single() -> Vec<u64> {
    let cache = VantageLike::new(3600, 16, 2, 0x222);
    let monitor = UmonPair::new(3600, 0x333);
    let mut talus = TalusSingleCache::new(cache, monitor, 20_000, TalusCacheConfig::for_vantage());
    let ctx = AccessCtx::new();
    let lines: Vec<LineAddr> = stream().into_iter().map(|(_, l)| l).collect();
    for chunk in lines.chunks(1024) {
        talus.access_block(chunk, &ctx);
    }
    let s = talus.stats();
    vec![s.hits(), s.misses(), talus.reconfigurations()]
}

/// `FutilityScaled`'s digest as an optimised build of the `H3Bank` parent
/// simulated it: its λ controller's `err.powf(0.5)` was a square root only
/// there. The controller now takes `err.sqrt()` in every profile, so this
/// is the one pin.
const FUTILITY_OPTIMISED: u64 = 0xA1A46652900E741B;

/// Pinned on the parent of the `H3Bank`/`FastMod32` change, but for
/// `vantage_16`, re-pinned (was `0x3386071130084AB2`) when Vantage's
/// victim search began to break ties among zero-target candidates by age.
const GOLDEN: &[(&str, u64)] = &[
    ("vantage_2", 0x64B8DA2BE8731B01),
    ("vantage_16", 0x425980B309A63BC3),
    ("futility", FUTILITY_OPTIMISED),
    ("way_srrip", 0x5D083D152531857D),
    ("set_partitioned", 0x3E2A923B7985497A),
    ("sample_filter", 0x5B2D242A7E82BD29),
    ("umon", 0x6E3606F9B1BFBEDD),
    ("umon_pair_16_sets", 0xB88645C187457D35),
    ("umon_pair_32_sets", 0xE4DB8B74755B9AAC),
    ("curve_sampler_srrip", 0xC32F6471C90BD315),
    ("curve_sampler_lru", 0xD064C5761B32949B),
    ("talus_single", 0x13317AD46DA68673),
    ("set_assoc_LRU", 0x312FB37E20FB59F6),
    ("set_assoc_SRRIP", 0xFE5091FC884F5EAC),
    ("set_assoc_BRRIP", 0x21CF2A43FFC9F814),
    ("set_assoc_DRRIP", 0x906277C7728093E1),
    ("set_assoc_TA-DRRIP", 0x7E4870F0F7F5F976),
    ("set_assoc_DIP", 0xA9199304E28FCF23),
    ("set_assoc_PDP", 0x48E8671522842CD4),
    ("set_assoc_SHiP", 0xE802E107116A0C95),
    ("set_assoc_Random", 0xE30B7422EB595FD7),
];

#[test]
fn simulated_state_matches_the_pinned_digests() {
    let mut actual: Vec<(String, u64)> = vec![
        (
            "vantage_2".into(),
            digest(&vantage(3600, &[1000, 2600], &[3000, 600], 11)),
        ),
        (
            "vantage_16".into(),
            digest(&vantage(
                8192,
                &[
                    512, 512, 0, 1024, 256, 256, 768, 768, 512, 512, 512, 512, 256, 256, 512, 512,
                ],
                &[
                    128, 2048, 512, 0, 512, 512, 512, 512, 1024, 256, 256, 512, 512, 384, 384, 128,
                ],
                5,
            )),
        ),
        ("futility".into(), digest(&futility())),
        ("way_srrip".into(), digest(&way_srrip())),
        ("set_partitioned".into(), digest(&set_partitioned())),
        ("sample_filter".into(), digest(&sample_filter())),
        (
            "umon".into(),
            digest(&drive_monitor(&mut Umon::new(5000, 12, 24, 3))),
        ),
        (
            "umon_pair_16_sets".into(),
            digest(&drive_monitor(&mut UmonPair::new(5000, 21))),
        ),
        (
            "umon_pair_32_sets".into(),
            digest(&drive_monitor(&mut UmonPair::with_sets(4096, 32, 13))),
        ),
        (
            "curve_sampler_srrip".into(),
            digest(&curve_sampler(PolicyKind::Srrip)),
        ),
        (
            "curve_sampler_lru".into(),
            digest(&curve_sampler(PolicyKind::Lru)),
        ),
        ("talus_single".into(), digest(&talus_single())),
    ];
    for kind in [
        PolicyKind::Lru,
        PolicyKind::Srrip,
        PolicyKind::Brrip,
        PolicyKind::Drrip,
        PolicyKind::TaDrrip,
        PolicyKind::Dip,
        PolicyKind::Pdp,
        PolicyKind::Ship,
        PolicyKind::Random,
    ] {
        actual.push((
            format!("set_assoc_{}", kind.label()),
            digest(&set_assoc(kind)),
        ));
    }
    let golden: Vec<(String, u64)> = GOLDEN.iter().map(|&(n, d)| (n.to_string(), d)).collect();
    assert!(
        actual == golden,
        "simulated state moved; actual digests:\n{}",
        actual
            .iter()
            .map(|(n, d)| format!("    (\"{n}\", {d:#018X}),\n"))
            .collect::<String>()
    );
}
