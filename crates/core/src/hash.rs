//! Cheap, deterministic 64-bit hashes of one integer.
//!
//! Pure integer arithmetic — no randomness, no state — so they sit in L1
//! alongside the rest of the math. Upper layers use [`mix64`] wherever a
//! fast, seedable, uniform hash of a small integer key is needed:
//! `talus-sim`'s monitors (the Mattson `last_seen` map, the SHARDS-style
//! sampling filter) re-export it, and `talus-serve`'s shard router hashes
//! cache ids through it without pulling in the simulator. [`keyed_mix64`]
//! is the cheaper, *keyed* one for in-memory tables whose keys a client
//! picks: `talus-serve`'s shards index their registry and snapshot maps
//! with it under a key drawn at random per map.

/// A cheap, high-quality 64-bit mixing hash (the SplitMix64 finalizer with
/// a seed fold).
///
/// Every input bit affects every output bit, at a fixed cost of a handful
/// of ALU ops (three multiplies, a few shifts and xors). Deterministic:
/// the same `(seed, value)` pair always produces the same output, which is
/// what makes it usable for reproducible sampling decisions and stable
/// shard routing.
///
/// # Examples
///
/// ```
/// use talus_core::mix64;
/// assert_eq!(mix64(0xFEED, 42), mix64(0xFEED, 42)); // deterministic
/// assert_ne!(mix64(0xFEED, 42), mix64(0xBEEF, 42)); // seed matters
/// ```
#[inline]
pub fn mix64(seed: u64, value: u64) -> u64 {
    let mut z = value ^ seed ^ 0x9E37_79B9_7F4A_7C15;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// The full 128-bit product of two words, folded back to 64 bits by xoring
/// its halves — so the high input bits, which a wrapping multiply pushes
/// out of the word, come back in through the low output bits.
#[inline]
fn folded_multiply(a: u64, b: u64) -> u64 {
    let wide = u128::from(a) * u128::from(b);
    (wide as u64) ^ ((wide >> 64) as u64)
}

/// A *keyed* hash of one 64-bit id for in-memory hash tables: two dependent
/// folded multiplies over three key words — the construction of
/// `hashbrown`'s default hashers (aHash's fallback path, foldhash) for one
/// integer. Costs two `mul`s and three xors, against SipHash-1-3's four
/// rounds on the same `u64`.
///
/// What it is for: ids a *client* chooses (a plane's cache ids). With an
/// unkeyed hash such as [`mix64`] anyone can compute ids that share a
/// bucket; here the bucket of an id depends on 192 key bits the caller
/// draws at random per table and never reveals, so colliding ids cannot be
/// computed without them. What it is not: a PRF or a MAC. Its outputs must
/// never leave the process (an observer of hashes could solve for the
/// key), nothing durable or on the wire may depend on it — placement that
/// must be stable uses [`shard_of`]. `key[1]` and `key[2]` are
/// multipliers: a zero there hashes every id alike, so a caller drawing a
/// key at random sets their low bits.
///
/// # Examples
///
/// ```
/// use talus_core::keyed_mix64;
/// let key = [0x243F_6A88_85A3_08D3, 0x1319_8A2E_0370_7344, 0xA409_3822_299F_31D0];
/// assert_eq!(keyed_mix64(key, 42), keyed_mix64(key, 42)); // pure
/// assert_ne!(keyed_mix64(key, 42), keyed_mix64(key, 43));
/// let other = [key[0] ^ 1, key[1], key[2]];
/// assert_ne!(keyed_mix64(key, 42), keyed_mix64(other, 42)); // the key matters
/// ```
#[inline]
pub fn keyed_mix64(key: [u64; 3], id: u64) -> u64 {
    folded_multiply(folded_multiply(id ^ key[0], key[1]), key[2])
}

/// Seed folded into [`shard_of`], so shard placement is a fixed, documented
/// function of the cache id alone — stable across restarts and across
/// crates. Both the serving plane's router and the persistence layer's
/// journal files use this placement; sharing one constant is what lets a
/// store written by an N-shard plane be restored file-by-file into an
/// N-shard plane without any cross-shard record exchange.
pub const SHARD_SEED: u64 = 0x7A1D_5EED_CA0E_51D5;

/// The canonical shard placement: the index cache `id` routes to in an
/// `n`-shard layout, `mix64(SHARD_SEED, id) % n`.
///
/// Every component that partitions per-cache state by id — the
/// `talus-serve` router, the `talus-store` journal — must use this
/// function so their layouts coincide for equal `n`. Placement depends on
/// `n`: re-sharding a persisted layout requires replaying records into the
/// new layout, not renaming files.
///
/// # Panics
///
/// Panics if `n` is zero.
///
/// # Examples
///
/// ```
/// use talus_core::shard_of;
/// assert_eq!(shard_of(42, 1), 0); // one shard takes everything
/// assert!(shard_of(42, 4) < 4);
/// assert_eq!(shard_of(42, 4), shard_of(42, 4)); // pure function
/// ```
#[inline]
pub fn shard_of(id: u64, n: usize) -> usize {
    assert!(n > 0, "need at least one shard");
    (mix64(SHARD_SEED, id) % n as u64) as usize
}

/// A contiguous slice of the canonical shard layout owned by one process.
///
/// A cluster splits the `total` global shards of a plane across N server
/// processes; each process owns the contiguous range
/// `[first, first + count)`. Placement stays the pure function
/// [`shard_of`]`(id, total)` — the topology only says which of those
/// global shards are *local* — so routing is identical whether the plane
/// runs in one process ([`ShardTopology::solo`]) or many, and a journal
/// written under one member's topology restores under the same one.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ShardTopology {
    total: usize,
    first: usize,
    count: usize,
}

impl ShardTopology {
    /// The single-process topology: one process owns all `n` shards.
    ///
    /// # Panics
    ///
    /// Panics if `n` is zero.
    pub fn solo(n: usize) -> Self {
        Self::range(n, 0, n)
    }

    /// A member owning global shards `[first, first + count)` of `total`.
    ///
    /// # Panics
    ///
    /// Panics if `count` is zero or the range does not fit in `total`.
    pub fn range(total: usize, first: usize, count: usize) -> Self {
        assert!(count > 0, "a member must own at least one shard");
        assert!(
            first.checked_add(count).is_some_and(|end| end <= total),
            "shard range [{first}, {first}+{count}) exceeds total {total}"
        );
        Self {
            total,
            first,
            count,
        }
    }

    /// Global shards in the whole plane.
    pub fn total(&self) -> usize {
        self.total
    }

    /// First global shard this member owns.
    pub fn first(&self) -> usize {
        self.first
    }

    /// Number of contiguous global shards this member owns.
    pub fn count(&self) -> usize {
        self.count
    }

    /// Whether this member owns the whole plane (single-process layout).
    pub fn is_solo(&self) -> bool {
        self.first == 0 && self.count == self.total
    }

    /// The global shard cache `id` routes to: [`shard_of`]`(id, total)`.
    pub fn global_shard(&self, id: u64) -> usize {
        shard_of(id, self.total)
    }

    /// The member-local shard index for `id`, if this member owns it.
    pub fn local_shard(&self, id: u64) -> Option<usize> {
        let g = self.global_shard(id);
        self.owns_shard(g).then(|| g - self.first)
    }

    /// Whether this member owns the shard cache `id` routes to.
    pub fn owns(&self, id: u64) -> bool {
        self.owns_shard(self.global_shard(id))
    }

    /// Whether global shard `g` falls in this member's owned range.
    pub fn owns_shard(&self, g: usize) -> bool {
        g >= self.first && g < self.first + self.count
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn avalanche_on_single_bit_flips() {
        // Flipping any one input bit should flip roughly half the output
        // bits — a weak but cheap avalanche sanity check.
        for bit in 0..64 {
            let a = mix64(1, 0x0123_4567_89AB_CDEF);
            let b = mix64(1, 0x0123_4567_89AB_CDEF ^ (1 << bit));
            let flipped = (a ^ b).count_ones();
            assert!((16..=48).contains(&flipped), "bit {bit}: {flipped} flips");
        }
    }

    #[test]
    fn sequential_values_spread_across_buckets() {
        // The shard-router use case: consecutive ids must not collapse
        // onto one bucket for any small modulus.
        for buckets in [2u64, 3, 4, 8] {
            let mut counts = vec![0u32; buckets as usize];
            for id in 0..1000u64 {
                counts[(mix64(0x5EED, id) % buckets) as usize] += 1;
            }
            let min = *counts.iter().min().unwrap();
            let max = *counts.iter().max().unwrap();
            assert!(
                min as f64 > 0.6 * (1000.0 / buckets as f64),
                "{buckets} buckets: min {min}, max {max}"
            );
        }
    }

    /// Thirty-two fixed keys, multipliers odd as a caller draws them.
    fn fixed_keys() -> impl Iterator<Item = [u64; 3]> {
        (0..32u64).map(|k| [mix64(k, 1), mix64(k, 2) | 1, mix64(k, 3) | 1])
    }

    /// Id families a client could mint to crowd a table, 8192 ids each.
    fn adversarial_families() -> Vec<(String, Vec<u64>)> {
        const N: u64 = 8192;
        let mut families = vec![("counter".to_string(), (0..N).collect::<Vec<u64>>())];
        for shift in [8, 16, 32, 48] {
            families.push((
                format!("stride 2^{shift}"),
                (0..N).map(|i| i << shift).collect(),
            ));
        }
        families.push((
            "equal mod 2^20".to_string(),
            (0..N).map(|i| (i << 20) | 0xB_EEF5).collect(),
        ));
        families.push((
            "bit-reversed counter".to_string(),
            (0..N).map(u64::reverse_bits).collect(),
        ));
        // What one shard of a four-shard plane actually holds.
        for shard in 0..4 {
            families.push((
                format!("shard {shard} of 4"),
                (0..)
                    .filter(|&id| shard_of(id, 4) == shard)
                    .take(N as usize)
                    .collect(),
            ));
        }
        families
    }

    #[test]
    fn keyed_mix64_spreads_adversarial_id_families_like_a_random_function() {
        // `HashMap` takes a bucket from the hash's low bits and a 7-bit tag
        // from its top bits, so those are the bits that must be spread.
        // 8192 ids thrown at random into 8192 buckets fill each like
        // Poisson(1): the fullest holds 11 or more with probability
        // 8192 · P(Poisson(1) ≥ 11) ≈ 8e-5 a trial; into 128 groups like
        // Poisson(64), the fullest holding more than 110 (mean + 5.8 σ)
        // with probability below 2e-4 a trial. 352 trials here.
        const MAX_BUCKET: u32 = 10;
        const MAX_GROUP: u32 = 110;
        let families = adversarial_families();
        for key in fixed_keys() {
            for (name, ids) in &families {
                let mut buckets = vec![0u32; 8192];
                let mut groups = [0u32; 128];
                for &id in ids {
                    let hash = keyed_mix64(key, id);
                    buckets[(hash & 8191) as usize] += 1;
                    groups[(hash >> 57) as usize] += 1;
                }
                let fullest = buckets.iter().max().unwrap();
                assert!(
                    *fullest <= MAX_BUCKET,
                    "{name}, key {key:x?}: {fullest} in one bucket"
                );
                let fullest = groups.iter().max().unwrap();
                assert!(
                    *fullest <= MAX_GROUP,
                    "{name}, key {key:x?}: {fullest} in one tag group"
                );
            }
        }
    }

    #[test]
    fn keyed_mix64_depends_on_every_key_word_and_every_id_bit() {
        for key in fixed_keys() {
            let id = mix64(9, key[0]);
            let hash = keyed_mix64(key, id);
            for word in 0..3 {
                let mut other = key;
                other[word] ^= 1 << 17;
                assert_ne!(keyed_mix64(other, id), hash, "key word {word}");
            }
            // One flipped id bit moves about half the output bits, summed
            // over the 64 positions (a single position may move few).
            let flipped: u32 = (0..64)
                .map(|bit| (keyed_mix64(key, id ^ (1 << bit)) ^ hash).count_ones())
                .sum();
            assert!((64 * 24..=64 * 40).contains(&flipped), "{flipped} flips");
        }
    }

    #[test]
    fn shard_of_is_total_and_balanced() {
        for n in [1usize, 2, 3, 4, 8] {
            let mut counts = vec![0u32; n];
            for id in 0..1000u64 {
                counts[shard_of(id, n)] += 1;
            }
            assert!(counts.iter().all(|&c| c > 0), "{n} shards: {counts:?}");
        }
    }

    #[test]
    #[should_panic(expected = "at least one shard")]
    fn shard_of_rejects_zero_shards() {
        shard_of(1, 0);
    }

    #[test]
    fn topology_partitions_every_id_exactly_once() {
        // Three members covering 6 shards: every id is owned by exactly
        // one member, at a local index consistent with the global one.
        let members = [
            ShardTopology::range(6, 0, 2),
            ShardTopology::range(6, 2, 2),
            ShardTopology::range(6, 4, 2),
        ];
        for id in 0..500u64 {
            let owners: Vec<_> = members.iter().filter(|t| t.owns(id)).collect();
            assert_eq!(owners.len(), 1, "id {id} owned once");
            let t = owners[0];
            let local = t.local_shard(id).unwrap();
            assert_eq!(t.first() + local, shard_of(id, 6));
        }
    }

    #[test]
    fn solo_topology_matches_shard_of() {
        let t = ShardTopology::solo(4);
        assert!(t.is_solo());
        for id in 0..100u64 {
            assert_eq!(t.local_shard(id), Some(shard_of(id, 4)));
        }
        assert!(!ShardTopology::range(4, 1, 3).is_solo());
    }

    #[test]
    #[should_panic(expected = "exceeds total")]
    fn topology_rejects_overhanging_range() {
        ShardTopology::range(4, 3, 2);
    }

    #[test]
    #[should_panic(expected = "at least one shard")]
    fn topology_rejects_empty_range() {
        ShardTopology::range(4, 2, 0);
    }
}
