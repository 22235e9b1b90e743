//! The hash behind a shard's two id-keyed maps.
//!
//! Cache ids are `u64`s, and since `register_with_id` a *client* picks
//! them, so the maps cannot use a public unkeyed hash: anyone could mint
//! ids that share one bucket. The standard library's answer, SipHash-1-3
//! under a random key, costs more than the map probe it feeds — a sixth of
//! a random snapshot read (`serve_snapshot/random_8192`, 43.5 → 36.5 ns).
//! [`IdHashBuilder`] keeps the random key and drops the cost: [`talus_core::keyed_mix64`] (two folded multiplies) under three
//! key words drawn per map from [`RandomState`], the same process-local
//! randomness `HashMap` itself would use.
//!
//! What that promises: which ids collide is unpredictable per process and
//! per map to anyone who cannot read the process's memory. What it does
//! not: `keyed_mix64` is no PRF, so a hash value must never be shown to a
//! client — none is: the key and every hash stay inside the map, are never
//! journaled and never put on the wire. And, as with any `HashMap`,
//! iteration order is arbitrary and differs run to run: nothing a shard
//! outputs may depend on it (`Shard::ids` is documented unordered and
//! sorted by its callers; `Shard::quarantined` sorts before returning).

use std::collections::hash_map::RandomState;
use std::collections::HashMap;
use std::hash::{BuildHasher, Hasher};

use talus_core::keyed_mix64;

/// A map from raw cache id to `V`, hashed by [`IdHashBuilder`].
pub(crate) type IdMap<V> = HashMap<u64, V, IdHashBuilder>;

/// Builds [`IdHasher`]s that share one randomly drawn key. Every
/// `IdHashBuilder::default()` draws a fresh key; clones share theirs.
#[derive(Debug, Clone)]
pub(crate) struct IdHashBuilder {
    key: [u64; 3],
}

impl Default for IdHashBuilder {
    fn default() -> Self {
        // One `RandomState` is 128 random bits (per thread, stepped per
        // instance); its SipHash of three distinct words stretches them
        // into the three key words. The two multipliers are made odd: a
        // zero there would hash every id alike.
        let random = RandomState::new();
        IdHashBuilder {
            key: [
                random.hash_one(0u64),
                random.hash_one(1u64) | 1,
                random.hash_one(2u64) | 1,
            ],
        }
    }
}

impl BuildHasher for IdHashBuilder {
    type Hasher = IdHasher;

    fn build_hasher(&self) -> IdHasher {
        IdHasher {
            key: self.key,
            state: 0,
        }
    }
}

/// Hashes one `u64` with a single [`keyed_mix64`]. Anything else — a
/// second word, raw bytes — is chained through the same function, so the
/// hasher is total, but the maps here only ever feed it one id.
#[derive(Debug, Clone)]
pub(crate) struct IdHasher {
    key: [u64; 3],
    state: u64,
}

impl Hasher for IdHasher {
    #[inline]
    fn write_u64(&mut self, id: u64) {
        self.state = keyed_mix64(self.key, self.state ^ id);
    }

    fn write(&mut self, bytes: &[u8]) {
        // Eight bytes a word, the last one zero-padded; the length goes in
        // first so that padding cannot make two inputs alike.
        self.write_u64(bytes.len() as u64);
        for chunk in bytes.chunks(8) {
            let mut word = [0u8; 8];
            word[..chunk.len()].copy_from_slice(chunk);
            self.write_u64(u64::from_le_bytes(word));
        }
    }

    #[inline]
    fn finish(&self) -> u64 {
        self.state
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::BTreeMap;
    use talus_core::mix64;

    /// Ids a client could mint: counters, strides, and values spread over
    /// the whole word.
    fn sample_ids() -> Vec<u64> {
        (0..64u64).flat_map(|i| [i, i << 32, mix64(7, i)]).collect()
    }

    #[test]
    fn one_id_costs_one_keyed_mix() {
        let build = IdHashBuilder::default();
        for id in sample_ids() {
            assert_eq!(build.hash_one(id), keyed_mix64(build.key, id));
        }
    }

    #[test]
    fn two_builders_disagree_and_clones_agree() {
        // The key is drawn, not a constant: two maps built one after the
        // other hash a fixed sample differently. (Equal keys by chance are
        // a 2⁻¹⁹² event; equal hashes on most of 192 ids under different
        // keys is no likelier.)
        let (a, b) = (IdHashBuilder::default(), IdHashBuilder::default());
        assert_ne!(a.key, b.key);
        let ids = sample_ids();
        let differing = ids
            .iter()
            .filter(|&&id| a.hash_one(id) != b.hash_one(id))
            .count();
        assert!(differing >= ids.len() - 1, "{differing} of {}", ids.len());
        let twin = a.clone();
        assert!(ids.iter().all(|&id| a.hash_one(id) == twin.hash_one(id)));
        // And no multiplier is the degenerate zero.
        assert!([a.key[1], a.key[2], b.key[1], b.key[2]]
            .iter()
            .all(|word| word % 2 == 1));
    }

    #[test]
    fn byte_input_is_total_and_consistent() {
        let build = IdHashBuilder::default();
        let hash = |bytes: &[u8]| {
            let mut hasher = build.build_hasher();
            hasher.write(bytes);
            hasher.finish()
        };
        let data: Vec<u8> = (0..=40u8).collect();
        let mut seen = BTreeMap::new();
        for len in 0..=data.len() {
            // Same bytes, same hash; every prefix (so every padding
            // length, the empty input included) hashes apart.
            assert_eq!(hash(&data[..len]), hash(&data[..len]));
            assert_eq!(seen.insert(hash(&data[..len]), len), None, "prefix {len}");
        }
        // Trailing zeros are not padding: the length is part of the input.
        assert_ne!(hash(&[1, 0]), hash(&[1]));
        // `str` and tuple keys go through `write` and the integer methods
        // mixed; all that is asked is that they hash and repeat.
        assert_eq!(build.hash_one("cache-7"), build.hash_one("cache-7"));
        assert_eq!(build.hash_one((3u64, 9u32)), build.hash_one((3u64, 9u32)));
        assert_ne!(build.hash_one((3u64, 9u32)), build.hash_one((9u64, 3u32)));
    }

    #[test]
    fn map_agrees_with_a_btreemap_oracle_over_100k_ops() {
        let mut map: IdMap<u64> = IdMap::default();
        let mut oracle = BTreeMap::new();
        // Keys from a few adversarial families, 4096 values each, so
        // inserts, hits, misses and removals all occur many times over.
        let key_of = |r: u64| {
            let i = (r >> 8) % 4096;
            match r % 4 {
                0 => i,
                1 => i << 48,
                2 => (i << 20) | 0xBEEF,
                _ => mix64(11, i),
            }
        };
        for op in 0..100_000u64 {
            let r = mix64(0x1D, op);
            let key = key_of(r);
            match (r >> 4) % 4 {
                0 | 1 => assert_eq!(map.insert(key, op), oracle.insert(key, op), "op {op}"),
                2 => assert_eq!(map.get(&key), oracle.get(&key), "op {op}"),
                _ => assert_eq!(map.remove(&key), oracle.remove(&key), "op {op}"),
            }
            assert_eq!(map.len(), oracle.len(), "op {op}");
        }
        let mut entries: Vec<(u64, u64)> = map.into_iter().collect();
        entries.sort_unstable();
        assert_eq!(entries, oracle.into_iter().collect::<Vec<_>>());
    }
}
