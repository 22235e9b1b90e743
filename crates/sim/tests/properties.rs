//! Property tests on the simulation substrate: policy contracts, LRU
//! inclusion, sampler statistics, and partition-scheme accounting hold on
//! arbitrary access streams, not just the unit tests' hand-picked ones.

use proptest::prelude::*;
use talus_sim::monitor::{
    AdaptiveCurveSampler, CurveSampler, MattsonMonitor, Monitor, SampledMattson,
};
use talus_sim::part::{
    FutilityScaled, IdealPartitioned, PartitionedCacheModel, SetPartitioned, VantageLike,
    WayPartitioned,
};
use talus_sim::policy::{Lru, PolicyKind};
use talus_sim::{
    AccessCtx, CacheModel, FastMod32, FullyAssocLru, H3Bank, H3Hasher, LineAddr, PartitionId,
    SetAssocCache, ShadowSampler,
};

/// Strategy: a short access stream over a bounded address space.
fn arb_stream() -> impl Strategy<Value = Vec<u64>> {
    proptest::collection::vec(0u64..4096, 64..2048)
}

/// Strategy: one to six partition requests, each `0`, `u64::MAX`, a size
/// around a 1024-line cache, or any `u64`.
fn arb_requests() -> impl Strategy<Value = Vec<u64>> {
    let request = (0u64..5, any::<u64>()).prop_map(|(kind, x)| match kind {
        0 => 0,
        1 => u64::MAX,
        2 | 3 => x % 600,
        _ => x,
    });
    proptest::collection::vec(request, 1..7)
}

/// The three stream shapes the fast-path equivalence suite runs on: a
/// uniform random mix, a cyclic scan (the canonical cliff), and a phase
/// change (uniform working set, then a scan over fresh addresses).
fn equivalence_streams(len: usize, seed: u64) -> Vec<(&'static str, Vec<LineAddr>)> {
    let mut state = seed | 1;
    let mut next = move || {
        state = state
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        state >> 33
    };
    let uniform: Vec<LineAddr> = (0..len).map(|_| LineAddr(next() % 3000)).collect();
    let scan: Vec<LineAddr> = (0..len as u64).map(|i| LineAddr(i % 1500)).collect();
    let phase: Vec<LineAddr> = (0..len as u64)
        .map(|i| {
            if (i as usize) < len / 2 {
                LineAddr(next() % 1024)
            } else {
                LineAddr((1 << 20) | (i % 2048))
            }
        })
        .collect();
    vec![
        ("uniform", uniform),
        ("scan", scan),
        ("phase-change", phase),
    ]
}

/// All online policies (Belady needs oracle annotations; tested separately).
fn online_policies() -> Vec<PolicyKind> {
    vec![
        PolicyKind::Lru,
        PolicyKind::Srrip,
        PolicyKind::Brrip,
        PolicyKind::Drrip,
        PolicyKind::TaDrrip,
        PolicyKind::Dip,
        PolicyKind::Pdp,
        PolicyKind::Ship,
        PolicyKind::Random,
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// Every lane of an `H3Bank` is the single `H3Hasher` with the lane's
    /// seed — tabulated form and mask-and-parity oracle alike — at every
    /// bank width the simulator builds (1 and 4: monitors; 16: the skewed
    /// arrays; 52: a 4/52 zcache's candidates; 64: the full §VI-C bank)
    /// and on inputs with the high bytes set (multicore lines are based at
    /// `app << 44`).
    #[test]
    fn h3_bank_lanes_equal_single_hashers(
        seed in any::<u64>(),
        values in proptest::collection::vec(any::<u64>(), 1..40),
    ) {
        for lanes in [1usize, 4, 16, 52, 64] {
            let seeds: Vec<u64> = (0..lanes as u64)
                .map(|i| seed.wrapping_add(0x1234_5678 * (i + 1)))
                .collect();
            let bank = H3Bank::new(&seeds);
            prop_assert_eq!(bank.lanes(), lanes);
            let hashers: Vec<H3Hasher> = seeds.iter().map(|&s| H3Hasher::new(32, s)).collect();
            let mut out = vec![0u32; lanes];
            let shaped = values.iter().flat_map(|&v| {
                // The raw draw, a plain line number, the same line in
                // apps 3 and 0xFFFFF, a value with only high bytes, and one
                // with a zero byte between populated ones.
                [v, v & 0xF_FFFF, (3 << 44) | (v & 0xF_FFFF), (v << 44) | (v & 0xFFFF), v << 24, v & !0xFF00]
            });
            for v in shaped.chain([0, 1, 0xFF, 1 << 24, 1 << 63, u64::MAX]) {
                bank.hash_into(v, &mut out);
                for (i, (lane, single)) in out.iter().zip(&hashers).enumerate() {
                    prop_assert_eq!(u64::from(*lane), single.hash(v), "lane {} of {} at {:#x}", i, lanes, v);
                    prop_assert_eq!(u64::from(*lane), single.hash_reference(v), "lane {} of {} at {:#x}", i, lanes, v);
                }
            }
        }
    }

    /// `FastMod32` is the hardware remainder, and its divisibility test
    /// the hardware one, for every divisor/dividend shape: tiny, huge,
    /// powers of two, and the operands either side of a multiple.
    #[test]
    fn fastmod32_equals_hardware_remainder(
        divisors in proptest::collection::vec(1u32..=u32::MAX, 1..8),
        dividends in proptest::collection::vec(any::<u32>(), 1..50),
    ) {
        for d in divisors.into_iter().chain([1, 2, 3, 75, 1 << 31, u32::MAX - 1, u32::MAX]) {
            let fast = FastMod32::new(d);
            prop_assert_eq!(fast.divisor(), d);
            let edges = [0, 1, d - 1, d, d.wrapping_add(1), d.wrapping_mul(2), u32::MAX / d * d, u32::MAX];
            for a in dividends.iter().copied().chain(edges) {
                prop_assert_eq!(fast.rem(a), a % d, "{} % {}", a, d);
                prop_assert_eq!(fast.divides(a), a % d == 0, "{} | {}", d, a);
            }
        }
    }

    /// LRU's stack property (Mattson): a bigger LRU cache never misses
    /// more than a smaller one on the same stream.
    #[test]
    fn lru_inclusion_property(stream in arb_stream(), small in 16u64..256) {
        let big = small * 2;
        let ctx = AccessCtx::new();
        let mut small_cache = FullyAssocLru::new(small);
        let mut big_cache = FullyAssocLru::new(big);
        for &l in &stream {
            small_cache.access(LineAddr(l), &ctx);
            big_cache.access(LineAddr(l), &ctx);
        }
        prop_assert!(big_cache.stats().misses() <= small_cache.stats().misses());
    }

    /// The Mattson monitor's curve is non-increasing in size and matches
    /// direct simulation of a fully-associative LRU cache at every size.
    #[test]
    fn mattson_matches_direct_lru(stream in arb_stream(), cap in 32u64..512) {
        let mut mon = MattsonMonitor::new(4096);
        let ctx = AccessCtx::new();
        let mut cache = FullyAssocLru::new(cap);
        for &l in &stream {
            mon.record(LineAddr(l));
            cache.access(LineAddr(l), &ctx);
        }
        // curve() interpolates on a 64-point grid; exactness is only
        // promised at requested grid sizes, so evaluate there.
        let curve = mon.curve_on_grid(&[cap]);
        let predicted = curve.value_at(cap as f64);
        let actual = cache.stats().miss_rate();
        prop_assert!((predicted - actual).abs() < 1e-9,
            "Mattson {predicted} vs direct {actual} at {cap}");
    }

    /// Every policy's victim always comes from the candidate set, and
    /// every access is classified hit or miss exactly once (stats add up).
    #[test]
    fn policies_honor_contract_on_random_streams(stream in arb_stream(), seed in any::<u64>()) {
        let ctx = AccessCtx::new();
        for kind in online_policies() {
            let mut cache = SetAssocCache::new(512, 8, kind.build(seed), seed);
            for &l in &stream {
                cache.access(LineAddr(l), &ctx);
            }
            let s = cache.stats();
            prop_assert_eq!(s.accesses(), stream.len() as u64, "{}", kind.label());
            prop_assert_eq!(s.hits() + s.misses(), s.accesses());
        }
    }

    /// The shadow sampler is deterministic per line and its acceptance
    /// fraction tracks ρ.
    #[test]
    fn shadow_sampler_is_deterministic_and_calibrated(
        rho_pct in 0u32..=100,
        seed in any::<u64>(),
    ) {
        let rho = rho_pct as f64 / 100.0;
        let mut s = ShadowSampler::new(seed);
        s.set_rate(rho);
        let mut to_alpha = 0u64;
        let n = 20_000u64;
        for l in 0..n {
            let first = s.goes_to_alpha(LineAddr(l));
            prop_assert_eq!(first, s.goes_to_alpha(LineAddr(l)), "must be deterministic");
            if first {
                to_alpha += 1;
            }
        }
        let frac = to_alpha as f64 / n as f64;
        // The limit register is 8-bit, so calibration is within ~1/256 + noise.
        prop_assert!((frac - rho).abs() < 0.02, "rho {rho} measured {frac}");
    }

    /// Partitioned schemes never lose or invent accesses, and occupancy
    /// never exceeds capacity.
    #[test]
    fn partition_accounting_is_conserved(
        stream in arb_stream(),
        split_pct in 1u64..100,
        seed in any::<u64>(),
    ) {
        let capacity = 1024u64;
        let s0 = capacity * split_pct / 100;
        let mut vantage = VantageLike::new(capacity, 16, 2, seed);
        vantage.set_partition_sizes(&[s0, capacity - s0]);
        let mut futility = FutilityScaled::new(capacity, 16, 2, seed);
        futility.set_partition_sizes(&[s0, capacity - s0]);
        let ctx = AccessCtx::new();
        for (i, &l) in stream.iter().enumerate() {
            let p = PartitionId((i % 2) as u32);
            vantage.access(p, LineAddr(l), &ctx);
            futility.access(p, LineAddr(l), &ctx);
        }
        for cache in [&vantage.total_stats(), &futility.total_stats()] {
            prop_assert_eq!(cache.accesses(), stream.len() as u64);
        }
        let v_occ = vantage.occupancy(PartitionId(0)) + vantage.occupancy(PartitionId(1));
        let f_occ = futility.occupancy(PartitionId(0)) + futility.occupancy(PartitionId(1));
        prop_assert!(v_occ <= capacity, "vantage occupancy {v_occ}");
        prop_assert!(f_occ <= capacity, "futility occupancy {f_occ}");
    }

    /// Every scheme's grant rule holds for any request vector, `0` and
    /// `u64::MAX` entries included: the call returns, the granted total
    /// fits the capacity, a zero request is granted zero, and the exact
    /// schemes (ideal, Vantage, Futility) grant the requests themselves
    /// whenever they fit.
    #[test]
    fn grants_fit_for_any_request(requests in arb_requests(), seed in any::<u64>()) {
        let (n, capacity) = (requests.len(), 1024u64);
        let fits = requests.iter().map(|&r| u128::from(r)).sum::<u128>() <= u128::from(capacity);
        let schemes: Vec<(Box<dyn PartitionedCacheModel>, bool)> = vec![
            (Box::new(IdealPartitioned::new(capacity, n)), true),
            (Box::new(VantageLike::new(capacity, 16, n, seed)), true),
            (Box::new(FutilityScaled::new(capacity, 16, n, seed)), true),
            (Box::new(WayPartitioned::new(capacity, 16, n, Lru::new(), seed)), false),
            (Box::new(SetPartitioned::new(capacity, 16, n, Lru::new(), seed)), false),
        ];
        for (mut cache, exact) in schemes {
            let name = cache.scheme_name();
            let granted = cache.set_partition_sizes(&requests);
            prop_assert_eq!(granted.len(), n, "{}", name);
            let total: u128 = granted.iter().map(|&g| u128::from(g)).sum();
            prop_assert!(total <= u128::from(capacity), "{name}: {granted:?} for {requests:?}");
            for (&r, &g) in requests.iter().zip(&granted) {
                prop_assert!(r != 0 || g == 0, "{name}: {granted:?} for {requests:?}");
            }
            if exact && fits {
                prop_assert_eq!(&granted, &requests, "{}", name);
            }
        }
    }

    /// Re-running any policy on the same stream with the same seed gives
    /// identical miss counts (end-to-end determinism).
    #[test]
    fn simulation_is_deterministic(stream in arb_stream(), seed in any::<u64>()) {
        for kind in [PolicyKind::Drrip, PolicyKind::Pdp, PolicyKind::Ship, PolicyKind::Random] {
            let run = || {
                let ctx = AccessCtx::new();
                let mut cache = SetAssocCache::new(256, 8, kind.build(seed), seed);
                for &l in &stream {
                    cache.access(LineAddr(l), &ctx);
                }
                cache.stats().misses()
            };
            prop_assert_eq!(run(), run(), "{}", kind.label());
        }
    }

    /// A zero-sized partition bypasses: it never hits and never holds
    /// lines, for both fine-grained schemes.
    #[test]
    fn zero_partitions_bypass(stream in arb_stream(), seed in any::<u64>()) {
        let mut vantage = VantageLike::new(512, 16, 2, seed);
        vantage.set_partition_sizes(&[0, 512]);
        let mut futility = FutilityScaled::new(512, 16, 2, seed);
        futility.set_partition_sizes(&[0, 512]);
        let ctx = AccessCtx::new();
        for &l in &stream {
            vantage.access(PartitionId(0), LineAddr(l), &ctx);
            futility.access(PartitionId(0), LineAddr(l), &ctx);
        }
        prop_assert_eq!(vantage.partition_stats(PartitionId(0)).hits(), 0);
        prop_assert_eq!(futility.partition_stats(PartitionId(0)).hits(), 0);
        prop_assert_eq!(vantage.occupancy(PartitionId(0)), 0);
        prop_assert_eq!(futility.occupancy(PartitionId(0)), 0);
    }
}

// Sampled-vs-exact convergence drives two full monitors over long streams
// per case, so these properties get a smaller case budget than the cheap
// contracts above.
proptest! {
    #![proptest_config(ProptestConfig::with_cases(10))]

    /// SHARDS-style sampling converges to the exact stack-distance curve
    /// on uniform streams: after a warm-up (so cold compulsory misses
    /// don't dominate), the 1/16-sampled and exact curves stay within
    /// L∞ < 0.05 across the whole grid. Uniform curves are smooth, so
    /// plain L∞ applies — cliff streams are tested below with a guard
    /// band around the cliff, where L∞ at a vertical edge is
    /// ill-conditioned by the sampling noise itself.
    #[test]
    fn sampled_mattson_converges_on_uniform_streams(
        lines in 3000u64..6000,
        seed in any::<u64>(),
    ) {
        let mut state = seed | 1;
        let mut next = move || {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            LineAddr((state >> 33) % lines)
        };
        let mut exact = MattsonMonitor::new(2 * lines);
        let mut sampled = SampledMattson::new(2 * lines, 16, seed ^ 0xABCD);
        let warm: Vec<LineAddr> = (0..4 * lines).map(|_| next()).collect();
        exact.record_block(&warm);
        sampled.record_block(&warm);
        exact.reset();
        sampled.reset();
        let len = (12 * lines) as usize;
        let block: Vec<LineAddr> = (0..len).map(|_| next()).collect();
        exact.record_block(&block);
        sampled.record_block(&block);
        // Post-filter accounting: a 1/16 spatial filter passes a small
        // fraction of the stream, and the observed count is the full one.
        prop_assert_eq!(sampled.observed_accesses(), len as u64);
        prop_assert!(sampled.sampled_accesses() < len as u64 / 8);
        prop_assert!(sampled.sampled_accesses() > 0);
        let grid: Vec<u64> = (0..=32).map(|i| i * 2 * lines / 32).collect();
        let ec = exact.curve_on_grid(&grid);
        let sc = sampled.curve_on_grid(&grid);
        for &g in &grid {
            let err = (ec.value_at(g as f64) - sc.value_at(g as f64)).abs();
            prop_assert!(err < 0.05, "L∞ {err} at size {g} ({lines} lines)");
        }
    }

    /// On scan (cliff) streams the sampled cliff lands within a few
    /// percent of the true one: after a warm-up pass, curves match off a
    /// ±20% guard band, and the transition completes inside it.
    #[test]
    fn sampled_mattson_locates_cliffs_on_scan_streams(
        lines in 4096u64..8192,
        seed in any::<u64>(),
    ) {
        let mut exact = MattsonMonitor::new(2 * lines);
        let mut sampled = SampledMattson::new(2 * lines, 16, seed);
        let warm: Vec<LineAddr> = (0..lines).map(LineAddr).collect();
        exact.record_block(&warm);
        sampled.record_block(&warm);
        exact.reset();
        sampled.reset();
        let block: Vec<LineAddr> = (0..5 * lines).map(|i| LineAddr(i % lines)).collect();
        exact.record_block(&block);
        sampled.record_block(&block);
        let guard = lines / 5;
        let grid: Vec<u64> = (0..=32)
            .map(|i| i * 2 * lines / 32)
            .filter(|&g| g < lines - guard || g > lines + guard)
            .collect();
        let ec = exact.curve_on_grid(&grid);
        let sc = sampled.curve_on_grid(&grid);
        for &g in &grid {
            let err = (ec.value_at(g as f64) - sc.value_at(g as f64)).abs();
            prop_assert!(err < 0.05, "L∞ {err} at size {g} off the cliff band ({lines} lines)");
        }
        let full = sampled.curve_on_grid(&[lines - guard, lines + guard]);
        prop_assert!(full.value_at((lines - guard) as f64) > 0.9, "below the cliff");
        prop_assert!(full.value_at((lines + guard) as f64) < 0.1, "above the cliff");
    }
}

/// Splits `lines` into irregular chunks (1, 7, 64, 256, 3, …) so block
/// paths are exercised across degenerate and large block sizes alike.
fn irregular_chunks(lines: &[LineAddr]) -> Vec<&[LineAddr]> {
    const SIZES: [usize; 5] = [1, 7, 64, 256, 3];
    let mut chunks = Vec::new();
    let mut rest = lines;
    let mut i = 0;
    while !rest.is_empty() {
        let take = SIZES[i % SIZES.len()].min(rest.len());
        let (head, tail) = rest.split_at(take);
        chunks.push(head);
        rest = tail;
        i += 1;
    }
    chunks
}

/// Per-access vs enum-dispatch and per-access vs block equivalence: the
/// fast paths this PR introduced must be *bit-for-bit* identical to the
/// original `Box<dyn ReplacementPolicy>` / one-access-at-a-time code, not
/// just statistically close.
mod fast_path_equivalence {
    use super::*;

    /// Every built-in `PolicyKind` produces the identical hit/miss
    /// *sequence* through `AnyPolicy` as through its old boxed
    /// construction, on uniform, scan, and phase-change streams.
    #[test]
    fn any_policy_matches_boxed_dispatch() {
        for kind in online_policies() {
            for (label, stream) in equivalence_streams(30_000, 0xA11F ^ kind.label().len() as u64) {
                let mut boxed = SetAssocCache::new(2048, 16, kind.build(7), 11);
                let mut enumd = SetAssocCache::new(2048, 16, kind.build_any(7), 11);
                for (i, &line) in stream.iter().enumerate() {
                    // Rotate issuing threads so thread-aware policies
                    // (TA-DRRIP) exercise per-thread state too.
                    let ctx = AccessCtx::from_thread(talus_sim::ThreadId((i % 3) as u16));
                    assert_eq!(
                        boxed.access(line, &ctx),
                        enumd.access(line, &ctx),
                        "{} diverged on {label} at access {i}",
                        kind.label()
                    );
                }
                assert_eq!(boxed.stats(), enumd.stats(), "{} on {label}", kind.label());
            }
        }
    }

    /// `SetAssocCache::access_block` is the per-access loop, bit for bit,
    /// for every built-in policy.
    #[test]
    fn set_assoc_block_matches_per_access() {
        for kind in online_policies() {
            for (label, stream) in equivalence_streams(30_000, 0xB10C) {
                let ctx = AccessCtx::new();
                let mut single = SetAssocCache::new(1024, 16, kind.build_any(3), 5);
                let mut block = SetAssocCache::new(1024, 16, kind.build_any(3), 5);
                for &line in &stream {
                    single.access(line, &ctx);
                }
                for chunk in irregular_chunks(&stream) {
                    block.access_block(chunk, &ctx);
                }
                assert_eq!(single.stats(), block.stats(), "{} on {label}", kind.label());
                // Contents must agree too: replay a probe pass and compare
                // every outcome.
                for &line in stream.iter().rev().take(2000) {
                    assert_eq!(
                        single.access(line, &ctx),
                        block.access(line, &ctx),
                        "{} probe diverged on {label}",
                        kind.label()
                    );
                }
            }
        }
    }

    /// Every partition scheme's `access_block` is its per-access loop,
    /// bit for bit, including partition stats.
    #[test]
    fn partitioned_block_matches_per_access() {
        let (_, stream) = equivalence_streams(30_000, 0xCAFE).swap_remove(0);
        let parts: Vec<PartitionId> = (0..stream.len())
            .map(|i| PartitionId((i % 2) as u32))
            .collect();
        let run = |cache: &mut dyn PartitionedCacheModel, blocked: bool| {
            let ctx = AccessCtx::new();
            cache.set_partition_sizes(&[1536, 512]);
            if blocked {
                // Per-partition blocks: split the stream into runs of the
                // same partition, preserving order.
                let mut start = 0;
                while start < stream.len() {
                    let p = parts[start];
                    let end = (start..stream.len())
                        .find(|&i| parts[i] != p)
                        .unwrap_or(stream.len());
                    cache.access_block(p, &stream[start..end], &ctx);
                    start = end;
                }
            } else {
                for (i, &line) in stream.iter().enumerate() {
                    cache.access(parts[i], line, &ctx);
                }
            }
            (
                *cache.partition_stats(PartitionId(0)),
                *cache.partition_stats(PartitionId(1)),
            )
        };
        // Interleaving partitions access-by-access equals blocking runs
        // only when runs preserve the global order — which they do here.
        type Build = Box<dyn Fn() -> Box<dyn PartitionedCacheModel>>;
        let schemes: Vec<(&str, Build)> = vec![
            (
                "way",
                Box::new(|| Box::new(WayPartitioned::new(2048, 16, 2, Lru::new(), 9))),
            ),
            (
                "set",
                Box::new(|| Box::new(SetPartitioned::new(2048, 16, 2, Lru::new(), 9))),
            ),
            (
                "vantage",
                Box::new(|| Box::new(VantageLike::new(2048, 16, 2, 9))),
            ),
            (
                "futility",
                Box::new(|| Box::new(FutilityScaled::new(2048, 16, 2, 9))),
            ),
            (
                "ideal",
                Box::new(|| Box::new(IdealPartitioned::new(2048, 2))),
            ),
        ];
        for (name, build) in schemes {
            let mut single = build();
            let mut block = build();
            assert_eq!(
                run(single.as_mut(), false),
                run(block.as_mut(), true),
                "{name} block path diverged"
            );
        }
    }

    /// `CurveSampler::record_block` produces the identical curve (every
    /// point, exactly) as per-access `record`, for static and custom
    /// dispatch alike.
    #[test]
    fn curve_sampler_block_matches_per_access() {
        let sizes: Vec<u64> = (1..=16).map(|i| i * 1024).collect();
        for (label, stream) in equivalence_streams(60_000, 0x5EED) {
            let mut single = CurveSampler::new(PolicyKind::Srrip, &sizes, 512, 16, 5);
            let mut block = CurveSampler::new(PolicyKind::Srrip, &sizes, 512, 16, 5);
            for &line in &stream {
                single.record(line);
            }
            for chunk in irregular_chunks(&stream) {
                block.record_block(chunk);
            }
            assert_eq!(single.sampled_accesses(), block.sampled_accesses());
            let (cs, cb) = (single.curve(), block.curve());
            assert_eq!(cs, cb, "sampler curves diverged on {label}");
        }
    }

    /// Same for the adaptive bank, across a re-aim boundary.
    #[test]
    fn adaptive_sampler_block_matches_per_access() {
        let (_, stream) = equivalence_streams(60_000, 0xADA9).swap_remove(1);
        let mut single = AdaptiveCurveSampler::from_kind(PolicyKind::Srrip, 8, 8192, 512, 16, 3);
        let mut block = AdaptiveCurveSampler::from_kind(PolicyKind::Srrip, 8, 8192, 512, 16, 3);
        for round in 0..2 {
            for &line in &stream {
                single.record(line);
            }
            for chunk in irregular_chunks(&stream) {
                block.record_block(chunk);
            }
            assert_eq!(
                single.curve(),
                block.curve(),
                "adaptive curves diverged in round {round}"
            );
            // Interval boundary: both banks re-aim identically.
            single.reset();
            block.reset();
            assert_eq!(single.modeled_sizes(), block.modeled_sizes());
        }
    }

    /// The single-hash bank's nested-filter property: a line sampled by
    /// point *i* is sampled by every coarser-rate point *j < i*, so the
    /// record loop's first-reject early exit never skips an acceptance.
    #[test]
    fn sampler_filters_are_nested() {
        let sizes: Vec<u64> = (1..=16).map(|i| i * 1024).collect();
        let s = CurveSampler::new(PolicyKind::Lru, &sizes, 512, 16, 77);
        let ratios = s.sampling_ratios();
        assert!(ratios.windows(2).all(|w| w[0] <= w[1]), "{ratios:?}");
        for v in 0..50_000u64 {
            let line = LineAddr(v * 2654435761 % (1 << 30));
            for i in 1..s.num_points() {
                if s.samples(i, line) {
                    assert!(
                        s.samples(i - 1, line),
                        "line {line:?} sampled at point {i} but not {}",
                        i - 1
                    );
                }
            }
        }
    }
}
