//! H3 universal hashing (Carter & Wegman), used for set indexing, set
//! sampling, and Talus's shadow-partition sampling function.
//!
//! The paper's implementation (§VI-B) hashes each incoming address with an
//! inexpensive H3 hash and compares the result to an 8-bit limit register
//! to steer accesses between the α and β shadow partitions. H3 computes
//! each output bit as the parity of the input ANDed with a random mask,
//! which in software reduces to XOR-folding `mask & input`.
//!
//! Two rules keep every per-access kernel in the crate cheap, and
//! [`H3Hasher::hash_reference`] — the mask-and-parity network gate for
//! gate — is the oracle every faster form is tested against:
//!
//! 1. *Hash once per line.* A structure that hashes one address with more
//!    than one H3 function takes them all from one [`H3Bank`], whose
//!    lanes share one walk over the address's bytes. A lone hash stays an
//!    [`H3Hasher`].
//! 2. *No per-access `%` or `/` by a value fixed at construction.* Set,
//!    row and sampling-ratio remainders go through [`FastMod32`], so set,
//!    row and monitor-set counts are checked to fit 32 bits when the
//!    structure is built.

use crate::addr::LineAddr;

/// An H3 hash function over 64-bit inputs producing up to 64 output bits.
///
/// Each output bit *i* is `parity(input & mask[i])`, with masks drawn from
/// a seeded xorshift generator, making the family universal and every
/// instance cheap and deterministic.
///
/// H3 is linear over GF(2), so the per-bit mask-and-parity network can be
/// evaluated as eight byte-indexed table lookups (the classic tabulation
/// form): `hash(v) = T0[v₀] ⊕ T1[v₁] ⊕ … ⊕ T7[v₇]`, where `Tj[b]` packs
/// the parity contribution of input byte `j = b` to every output bit.
/// [`hash`](Self::hash) uses the tables; the mask formulation is kept as
/// the reference the tabulation is tested against.
///
/// # Examples
///
/// ```
/// use talus_sim::H3Hasher;
/// let h = H3Hasher::new(16, 0xFEED);
/// let a = h.hash(0x12345);
/// assert!(a < (1 << 16));
/// assert_eq!(a, h.hash(0x12345)); // deterministic
/// ```
#[derive(Clone)]
pub struct H3Hasher {
    masks: Vec<u64>,
    /// `tables[j][b]`: XOR-contribution of input byte `j` having value `b`.
    tables: Box<[[u64; 256]; 8]>,
}

impl std::fmt::Debug for H3Hasher {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        // The 16 KB lookup tables are derived state; don't dump them.
        f.debug_struct("H3Hasher")
            .field("masks", &self.masks)
            .finish_non_exhaustive()
    }
}

impl H3Hasher {
    /// Creates an H3 hash with `bits` output bits (1..=64) seeded
    /// deterministically from `seed`.
    ///
    /// # Panics
    ///
    /// Panics if `bits` is 0 or greater than 64.
    pub fn new(bits: u32, seed: u64) -> Self {
        assert!(
            (1..=64).contains(&bits),
            "H3 output width must be 1..=64 bits"
        );
        let mut state = seed ^ 0x9E37_79B9_7F4A_7C15;
        let mut masks = Vec::with_capacity(bits as usize);
        for _ in 0..bits {
            // xorshift64* for mask generation.
            state ^= state >> 12;
            state ^= state << 25;
            state ^= state >> 27;
            let mask = state.wrapping_mul(0x2545_F491_4F6C_DD1D);
            // A zero mask would make an output bit constant; extremely
            // unlikely, but guard anyway.
            masks.push(if mask == 0 {
                0xDEAD_BEEF_CAFE_F00D
            } else {
                mask
            });
        }
        // Column c: the packed output word produced by input bit c alone
        // (output bit i is set iff mask[i] has bit c). Each table entry is
        // then the XOR of the columns of its byte's set bits.
        let mut columns = [0u64; 64];
        for (i, &mask) in masks.iter().enumerate() {
            for (c, col) in columns.iter_mut().enumerate() {
                *col |= ((mask >> c) & 1) << i;
            }
        }
        let mut tables = Box::new([[0u64; 256]; 8]);
        for (j, table) in tables.iter_mut().enumerate() {
            for (b, entry) in table.iter_mut().enumerate() {
                let mut acc = 0u64;
                let mut rest = b;
                while rest != 0 {
                    let k = rest.trailing_zeros() as usize;
                    acc ^= columns[8 * j + k];
                    rest &= rest - 1;
                }
                *entry = acc;
            }
        }
        H3Hasher { masks, tables }
    }

    /// Hashes a 64-bit value to `bits` output bits.
    #[inline]
    pub fn hash(&self, value: u64) -> u64 {
        let t = &self.tables;
        t[0][(value & 0xFF) as usize]
            ^ t[1][((value >> 8) & 0xFF) as usize]
            ^ t[2][((value >> 16) & 0xFF) as usize]
            ^ t[3][((value >> 24) & 0xFF) as usize]
            ^ t[4][((value >> 32) & 0xFF) as usize]
            ^ t[5][((value >> 40) & 0xFF) as usize]
            ^ t[6][((value >> 48) & 0xFF) as usize]
            ^ t[7][(value >> 56) as usize]
    }

    /// The mask-and-parity reference formulation (what the hardware
    /// network computes gate by gate). [`hash`](Self::hash) is the
    /// tabulated equivalent; tests assert they agree bit for bit.
    pub fn hash_reference(&self, value: u64) -> u64 {
        let mut out = 0u64;
        for (i, &mask) in self.masks.iter().enumerate() {
            let parity = (value & mask).count_ones() as u64 & 1;
            out |= parity << i;
        }
        out
    }

    /// Hashes a line address.
    #[inline]
    pub fn hash_line(&self, line: LineAddr) -> u64 {
        self.hash(line.value())
    }

    /// Number of output bits.
    pub fn bits(&self) -> u32 {
        self.masks.len() as u32
    }
}

/// `N` 32-bit H3 functions of one input, evaluated in a single pass.
///
/// A structure that hashes the same address with several H3 functions —
/// the `W` skewed ways of [`VantageLike`](crate::part::VantageLike), a
/// UMON's filter and set hashes, the set indices of a
/// [`CurveSampler`](crate::monitor::CurveSampler)'s monitors — would
/// otherwise walk the input's bytes through `N` independent 16 KB tables.
/// The bank packs the functions lane-wise instead, in blocks of 16 lanes
/// (then 4, for the remainder): `block[j][b]` is one row of `u32`s, the
/// contribution of input byte `j = b` to every lane of the block, so a
/// hash is a lane-wise XOR of one row per input byte — vector loads and
/// XORs, with the block's lanes held in registers throughout. Zero bytes
/// contribute nothing (`block[j][0] = 0`, H3 is linear), and a line
/// number's high bytes are mostly zero.
///
/// Lane `i` is [`H3Hasher::new(32, seeds[i])`](H3Hasher::new)`.hash`, bit
/// for bit — the bank is a layout, not a new hash family, and
/// [`H3Hasher::hash_reference`] stays the oracle it is tested against.
///
/// # Examples
///
/// ```
/// use talus_sim::{H3Bank, H3Hasher};
/// let seeds = [7, 8, 9, 10];
/// let bank = H3Bank::new(&seeds);
/// let mut lanes = [0u32; 4];
/// let line = (3 << 44) | 0x1234;
/// bank.hash_into(line, &mut lanes);
/// for (lane, &seed) in lanes.iter().zip(&seeds) {
///     let single = H3Hasher::new(32, seed);
///     assert_eq!(u64::from(*lane), single.hash(line));
///     assert_eq!(u64::from(*lane), single.hash_reference(line));
/// }
/// ```
#[derive(Clone)]
pub struct H3Bank {
    lanes: usize,
    /// Lanes `16k .. 16k + 16`, for every whole sixteen.
    wide: Box<[Block<16>]>,
    /// The remaining lanes in fours; spare lanes of the last are zero.
    narrow: Box<[Block<4>]>,
}

/// `block[j][b][i]`: the XOR-contribution of input byte `j` having value
/// `b` to the block's lane `i`. Fixed-size all the way down, so a lookup
/// by byte index and byte value needs no bounds check.
type Block<const W: usize> = [[[u32; W]; 256]; 8];

impl std::fmt::Debug for H3Bank {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        // The tables are derived state (8 KB per lane); don't dump them.
        f.debug_struct("H3Bank")
            .field("lanes", &self.lanes)
            .finish_non_exhaustive()
    }
}

impl H3Bank {
    /// Builds a bank whose lane `i` is the 32-bit H3 function seeded with
    /// `seeds[i]` (8 KB of tables per lane; lanes past the last whole
    /// sixteen are padded to a multiple of four).
    ///
    /// # Panics
    ///
    /// Panics if `seeds` is empty.
    pub fn new(seeds: &[u64]) -> Self {
        let lanes = seeds.len();
        assert!(lanes > 0, "an H3 bank needs at least one lane");
        let mut wide = vec![[[[0u32; 16]; 256]; 8]; lanes / 16].into_boxed_slice();
        let mut narrow = vec![[[[0u32; 4]; 256]; 8]; (lanes % 16).div_ceil(4)].into_boxed_slice();
        for (i, &seed) in seeds.iter().enumerate() {
            let single = H3Hasher::new(32, seed);
            for (j, table) in single.tables.iter().enumerate() {
                for (b, &entry) in table.iter().enumerate() {
                    if i / 16 < wide.len() {
                        wide[i / 16][j][b][i % 16] = entry as u32;
                    } else {
                        narrow[i % 16 / 4][j][b][i % 4] = entry as u32;
                    }
                }
            }
        }
        H3Bank {
            lanes,
            wide,
            narrow,
        }
    }

    /// Number of lanes.
    pub fn lanes(&self) -> usize {
        self.lanes
    }

    /// Hashes `value` with every lane: `out[i]` receives lane `i`.
    ///
    /// # Panics
    ///
    /// Panics if `out.len() != self.lanes()`.
    #[inline(always)]
    pub fn hash_into(&self, value: u64, out: &mut [u32]) {
        assert_eq!(out.len(), self.lanes, "one output slot per lane");
        // Block counts are spelled in terms of `out.len()` so that a
        // caller with a fixed-size `out` (a UMON's `[u32; 4]`) gets
        // straight-line code.
        let (wide_out, narrow_out) = out.split_at_mut(out.len() / 16 * 16);
        let wide = &self.wide[..wide_out.len() / 16];
        let narrow = &self.narrow[..narrow_out.len().div_ceil(4)];
        for (block, lanes) in wide.iter().zip(wide_out.chunks_exact_mut(16)) {
            lanes.copy_from_slice(&Self::walk(block, value));
        }
        for (block, lanes) in narrow.iter().zip(narrow_out.chunks_mut(4)) {
            lanes.copy_from_slice(&Self::walk(block, value)[..lanes.len()]);
        }
    }

    /// All `W` lanes of one block: the XOR of one row per input byte.
    #[inline(always)]
    fn walk<const W: usize>(block: &Block<W>, value: u64) -> [u32; W] {
        let row = |j: usize| &block[j][(value >> (8 * j)) as u8 as usize];
        let xor_into = |acc: &mut [u32; W], row: &[u32; W]| {
            for i in 0..W {
                acc[i] ^= row[i];
            }
        };
        // The three low bytes — every line of a 1 GB region — go through
        // unconditionally: whether byte 1 or 2 happens to be zero flips
        // from access to access, and a mispredicted skip costs more than
        // XOR-ing a row of zeros.
        let mut acc = *row(0);
        xor_into(&mut acc, row(1));
        xor_into(&mut acc, row(2));
        // The upper bytes are a region tag (an app's base): steady from
        // access to access and mostly zero, and a zero byte's row is all
        // zeros (H3 is linear).
        if W > 4 {
            // Wide rows are several vector loads: jump from one non-zero
            // byte to the next and never load a zero row.
            let mut rest = value & !0xFF_FFFF;
            while rest != 0 {
                let j = rest.trailing_zeros() as usize / 8;
                xor_into(&mut acc, row(j & 7));
                rest &= !(0xFF << (8 * j));
            }
        } else {
            // A narrow row is one vector load: five of them cost less
            // than one mispredicted jump.
            for j in 3..8 {
                xor_into(&mut acc, row(j));
            }
        }
        acc
    }
}

/// Exact `a % d` and `a % d == 0` for 32-bit operands without a divide.
///
/// Set and row indices are `hash % sets` with `sets` fixed at
/// construction — a hardware divide (tens of cycles) on every access for
/// a divisor that never changes. With `m = ⌈2⁶⁴ / d⌉` precomputed, the
/// low 64 bits of `m · a` hold the fractional part of `a / d`, so
/// `a % d = ⌊(m · a mod 2⁶⁴) · d / 2⁶⁴⌋` and `d | a ⇔ m · a mod 2⁶⁴ < m`
/// (Lemire, Kaser & Kurz, *Faster remainder by direct computation*, 2019)
/// — two multiplies, exact for **every** `u32` dividend and every
/// non-zero `u32` divisor, powers of two included.
///
/// # Examples
///
/// ```
/// use talus_sim::FastMod32;
/// let sets = FastMod32::new(75);
/// assert_eq!(sets.rem(1234), 1234 % 75);
/// assert_eq!(sets.rem(u32::MAX), u32::MAX % 75);
/// assert!(sets.divides(150) && !sets.divides(151));
/// assert_eq!(sets.divisor(), 75);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FastMod32 {
    divisor: u32,
    /// `⌈2⁶⁴ / divisor⌉` modulo 2⁶⁴ (0 for a divisor of 1, for which
    /// every remainder is 0 and the formulas below still hold).
    reciprocal: u64,
}

impl FastMod32 {
    /// Precomputes the reciprocal of `divisor`.
    ///
    /// # Panics
    ///
    /// Panics if `divisor` is zero.
    pub fn new(divisor: u32) -> Self {
        assert!(divisor > 0, "modulus must be positive");
        FastMod32 {
            divisor,
            reciprocal: (u64::MAX / u64::from(divisor)).wrapping_add(1),
        }
    }

    /// `a % divisor`.
    #[inline]
    pub fn rem(&self, a: u32) -> u32 {
        let fraction = self.reciprocal.wrapping_mul(u64::from(a));
        ((u128::from(fraction) * u128::from(self.divisor)) >> 64) as u32
    }

    /// `a % divisor == 0`.
    #[inline]
    pub fn divides(&self, a: u32) -> bool {
        self.reciprocal.wrapping_mul(u64::from(a)) <= self.reciprocal.wrapping_sub(1)
    }

    /// The divisor this was built for.
    pub fn divisor(&self) -> u32 {
        self.divisor
    }
}

// H3 is the *hardware-faithful* hash — a mask-and-parity network cheap in
// gates but, in software, a loop of table lookups. Monitors on the
// software hot path (the Mattson `last_seen` map, the SHARDS-style
// sampling filter of `SampledMattson`) instead use `mix64`, the
// three-multiply avalanche mix. It is pure integer math, so it lives in
// `talus-core` (where `talus-serve`'s shard router can reach it without
// pulling in the simulator); the re-export keeps `talus_sim::mix64` and
// every monitor call site working unchanged.
pub use talus_core::mix64;

/// A [`std::hash::BuildHasher`] over [`mix64`] for `HashMap`s keyed by
/// line addresses (or any small integer key).
///
/// The standard library's default SipHash is DoS-resistant but costs tens
/// of nanoseconds per lookup — a large fraction of a monitor's per-access
/// budget. Simulated addresses are not attacker-controlled, so the
/// monitors trade that resistance for speed.
///
/// # Examples
///
/// ```
/// use std::collections::HashMap;
/// use talus_sim::{LineAddr, LineHashBuilder};
/// let mut m: HashMap<LineAddr, u32, LineHashBuilder> = HashMap::default();
/// m.insert(LineAddr(7), 1);
/// assert_eq!(m[&LineAddr(7)], 1);
/// ```
#[derive(Debug, Clone, Copy, Default)]
pub struct LineHashBuilder;

impl std::hash::BuildHasher for LineHashBuilder {
    type Hasher = LineHasher;

    fn build_hasher(&self) -> LineHasher {
        LineHasher(0)
    }
}

/// [`LineHashBuilder`] under a seed: `mix64(seed, ·)` instead of
/// `mix64(0, ·)`, for a map whose keys a `mix64` filter already chose.
#[derive(Debug, Clone, Copy)]
pub(crate) struct SeededLineHash(pub(crate) u64);

impl std::hash::BuildHasher for SeededLineHash {
    type Hasher = LineHasher;

    fn build_hasher(&self) -> LineHasher {
        LineHasher(self.0)
    }
}

/// The streaming hasher behind [`LineHashBuilder`]: folds written words
/// through [`mix64`].
#[derive(Debug, Clone, Copy)]
pub struct LineHasher(u64);

impl std::hash::Hasher for LineHasher {
    fn finish(&self) -> u64 {
        self.0
    }

    fn write(&mut self, bytes: &[u8]) {
        // Generic path (string keys etc.): fold 8-byte chunks.
        for chunk in bytes.chunks(8) {
            let mut word = [0u8; 8];
            word[..chunk.len()].copy_from_slice(chunk);
            self.0 = mix64(self.0, u64::from_le_bytes(word));
        }
    }

    fn write_u64(&mut self, value: u64) {
        // The hot path: `LineAddr`'s derived Hash is a single u64 write.
        self.0 = mix64(self.0, value);
    }

    fn write_u32(&mut self, value: u32) {
        self.0 = mix64(self.0, u64::from(value));
    }

    fn write_usize(&mut self, value: usize) {
        self.0 = mix64(self.0, value as u64);
    }
}

/// The shadow-partition sampling function from the paper's Fig. 7b: an
/// 8-bit H3 hash plus an 8-bit limit register. Addresses hashing below the
/// limit go to the α partition; the rest go to β.
///
/// `limit = round(ρ · 256)`, so the α partition receives a `ρ` fraction of
/// the (statistically self-similar) access stream.
///
/// # Examples
///
/// ```
/// use talus_sim::{LineAddr, ShadowSampler};
/// let mut s = ShadowSampler::new(42);
/// s.set_rate(1.0 / 3.0);
/// let frac = (0..30_000u64)
///     .filter(|&i| s.goes_to_alpha(LineAddr(i * 7919)))
///     .count() as f64
///     / 30_000.0;
/// assert!((frac - 1.0 / 3.0).abs() < 0.02);
/// ```
#[derive(Debug, Clone)]
pub struct ShadowSampler {
    hasher: H3Hasher,
    /// Exclusive upper bound in [0, 256]: hash < limit → α partition.
    limit: u16,
}

impl ShadowSampler {
    /// Creates a sampler with rate 0 (everything to β) seeded from `seed`.
    pub fn new(seed: u64) -> Self {
        ShadowSampler {
            hasher: H3Hasher::new(8, seed),
            limit: 0,
        }
    }

    /// Sets the α sampling rate. The rate is quantised to 1/256 steps, as
    /// in the 8-bit hardware limit register.
    ///
    /// # Panics
    ///
    /// Panics if `rho` is not in `[0, 1]`.
    pub fn set_rate(&mut self, rho: f64) {
        assert!(
            (0.0..=1.0).contains(&rho),
            "sampling rate must be in [0, 1], got {rho}"
        );
        self.limit = (rho * 256.0).round() as u16;
    }

    /// The quantised sampling rate actually in effect.
    pub fn rate(&self) -> f64 {
        f64::from(self.limit) / 256.0
    }

    /// Whether this line is steered to the α shadow partition.
    pub fn goes_to_alpha(&self, line: LineAddr) -> bool {
        (self.hasher.hash_line(line) as u16) < self.limit
    }
}

/// The 1-in-`ratio` acceptance test on a 32-bit hash: `hash % ratio == 0`,
/// divide-free. Shared by [`SampleFilter`] and the UMON arrays (whose
/// filter hash is a lane of their [`H3Bank`]).
#[derive(Debug, Clone, Copy)]
pub(crate) struct SampleRatio {
    ratio: u64,
    /// `None` for a ratio past 32 bits, which only hash 0 is a multiple of.
    modulus: Option<FastMod32>,
}

impl SampleRatio {
    /// # Panics
    ///
    /// Panics if `ratio` is zero.
    pub(crate) fn new(ratio: u64) -> Self {
        assert!(ratio > 0, "sampling ratio must be positive");
        SampleRatio {
            ratio,
            modulus: u32::try_from(ratio).ok().map(FastMod32::new),
        }
    }

    #[inline]
    pub(crate) fn accepts(&self, hash: u32) -> bool {
        match &self.modulus {
            Some(modulus) => modulus.divides(hash),
            None => hash == 0,
        }
    }
}

/// A hash-based set-sampling filter, as used by UMONs: accepts a
/// deterministic pseudo-random `1/ratio` fraction of lines.
#[derive(Debug, Clone)]
pub struct SampleFilter {
    hasher: H3Hasher,
    ratio: SampleRatio,
}

impl SampleFilter {
    /// Creates a filter accepting roughly one in `ratio` lines.
    ///
    /// # Panics
    ///
    /// Panics if `ratio` is zero.
    pub fn new(ratio: u64, seed: u64) -> Self {
        SampleFilter {
            hasher: H3Hasher::new(32, seed),
            ratio: SampleRatio::new(ratio),
        }
    }

    /// Whether this line is in the sample.
    pub fn accepts(&self, line: LineAddr) -> bool {
        // The hasher has 32 output bits, so the cast keeps all of them.
        self.ratio.accepts(self.hasher.hash_line(line) as u32)
    }

    /// The configured ratio (the filter accepts ~1/ratio of lines).
    pub fn ratio(&self) -> u64 {
        self.ratio.ratio
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    #[should_panic(expected = "H3 output width")]
    fn h3_rejects_zero_bits() {
        H3Hasher::new(0, 1);
    }

    #[test]
    fn h3_is_deterministic_per_seed() {
        let a = H3Hasher::new(16, 7);
        let b = H3Hasher::new(16, 7);
        let c = H3Hasher::new(16, 8);
        assert_eq!(a.hash(123456), b.hash(123456));
        // Different seeds should (overwhelmingly) disagree somewhere.
        assert!((0..64u64).any(|v| a.hash(v) != c.hash(v)));
    }

    #[test]
    fn h3_output_fits_in_bits() {
        let h = H3Hasher::new(5, 3);
        assert_eq!(h.bits(), 5);
        for v in 0..1000u64 {
            assert!(h.hash(v * 64 + 1) < 32);
        }
    }

    #[test]
    fn h3_tabulation_matches_mask_reference() {
        // The table form must reproduce the mask-and-parity network bit
        // for bit — including at the byte boundaries the tables slice on.
        for (bits, seed) in [(1u32, 3u64), (8, 7), (32, 42), (64, 0xFEED)] {
            let h = H3Hasher::new(bits, seed);
            let mut v = 0x0123_4567_89AB_CDEFu64;
            for _ in 0..2000 {
                v = v.wrapping_mul(6364136223846793005).wrapping_add(1);
                assert_eq!(h.hash(v), h.hash_reference(v), "bits {bits} value {v:#x}");
            }
            for edge in [0, 1, 0xFF, 0x100, u64::MAX, u64::MAX - 1, 1 << 63] {
                assert_eq!(h.hash(edge), h.hash_reference(edge));
            }
        }
    }

    #[test]
    fn h3_bank_matches_single_hashers_at_block_edges() {
        // 21 lanes: one 16-lane block, one full 4-lane block, one block
        // with three spare lanes. (Widths and inputs at large are
        // property-tested in tests/properties.rs.)
        let seeds: Vec<u64> = (0..21).map(|i| 0xFEED + 977 * i).collect();
        let bank = H3Bank::new(&seeds);
        assert_eq!(bank.lanes(), 21);
        let mut out = [0u32; 21];
        for v in [
            0,
            0x12_3456,
            (3 << 44) | 0x1234,
            0xFF00_0000_0000_00FF,
            u64::MAX,
        ] {
            bank.hash_into(v, &mut out);
            for (lane, &seed) in out.iter().zip(&seeds) {
                assert_eq!(u64::from(*lane), H3Hasher::new(32, seed).hash_reference(v));
            }
        }
    }

    #[test]
    #[should_panic(expected = "at least one lane")]
    fn h3_bank_rejects_no_lanes() {
        H3Bank::new(&[]);
    }

    #[test]
    #[should_panic(expected = "one output slot per lane")]
    fn h3_bank_rejects_wrong_output_width() {
        H3Bank::new(&[1, 2, 3]).hash_into(7, &mut [0u32; 4]);
    }

    #[test]
    fn fastmod32_is_exact_around_every_small_divisor() {
        for d in 1..=300u32 {
            let fast = FastMod32::new(d);
            for a in (0..2000).chain(u32::MAX - 2000..=u32::MAX) {
                assert_eq!(fast.rem(a), a % d, "{a} % {d}");
                assert_eq!(fast.divides(a), a % d == 0, "{d} | {a}");
            }
        }
    }

    #[test]
    #[should_panic(expected = "modulus must be positive")]
    fn fastmod32_rejects_zero() {
        FastMod32::new(0);
    }

    #[test]
    fn sample_ratio_past_32_bits_admits_only_hash_zero() {
        // A 32-bit hash is a multiple of a wider ratio only when it is 0.
        let wide = SampleRatio::new(1 << 33);
        assert!(wide.accepts(0));
        assert!(!wide.accepts(1) && !wide.accepts(u32::MAX));
        let exact = SampleRatio::new(u64::from(u32::MAX));
        assert!(exact.accepts(0) && exact.accepts(u32::MAX) && !exact.accepts(u32::MAX - 1));
    }

    #[test]
    fn h3_spreads_sequential_addresses() {
        // Sequential lines must not all land in one bucket.
        let h = H3Hasher::new(8, 42);
        let mut counts = [0u32; 256];
        for v in 0..25_600u64 {
            counts[h.hash(v) as usize] += 1;
        }
        let max = *counts.iter().max().unwrap();
        let min = *counts.iter().min().unwrap();
        // Expect ~100 per bucket; allow generous slack.
        assert!(max < 200, "max bucket {max}");
        assert!(min > 30, "min bucket {min}");
    }

    #[test]
    fn shadow_sampler_rate_zero_and_one() {
        let mut s = ShadowSampler::new(1);
        s.set_rate(0.0);
        assert!((0..1000u64).all(|i| !s.goes_to_alpha(LineAddr(i))));
        s.set_rate(1.0);
        assert!((0..1000u64).all(|i| s.goes_to_alpha(LineAddr(i))));
    }

    #[test]
    fn shadow_sampler_quantises_to_8_bits() {
        let mut s = ShadowSampler::new(1);
        s.set_rate(1.0 / 3.0);
        assert!((s.rate() - 85.0 / 256.0).abs() < 1e-12);
    }

    #[test]
    #[should_panic(expected = "sampling rate")]
    fn shadow_sampler_rejects_bad_rate() {
        ShadowSampler::new(1).set_rate(1.5);
    }

    #[test]
    fn shadow_sampler_is_by_address() {
        // The same address always goes to the same partition — the property
        // Assumption 3 needs (sampling by address, not by time).
        let mut s = ShadowSampler::new(9);
        s.set_rate(0.5);
        let first: Vec<bool> = (0..500u64).map(|i| s.goes_to_alpha(LineAddr(i))).collect();
        let second: Vec<bool> = (0..500u64).map(|i| s.goes_to_alpha(LineAddr(i))).collect();
        assert_eq!(first, second);
    }

    #[test]
    fn mix64_spreads_sequential_values() {
        // Sequential line numbers must fill buckets evenly, like H3.
        let mut counts = [0u32; 256];
        for v in 0..25_600u64 {
            counts[(mix64(7, v) >> 56) as usize] += 1;
        }
        let max = *counts.iter().max().unwrap();
        let min = *counts.iter().min().unwrap();
        assert!(max < 200, "max bucket {max}");
        assert!(min > 30, "min bucket {min}");
    }

    #[test]
    fn line_hash_builder_works_in_hashmap() {
        use std::collections::HashMap;
        let mut m: HashMap<LineAddr, u64, LineHashBuilder> = HashMap::default();
        for i in 0..1000u64 {
            m.insert(LineAddr(i), i * 2);
        }
        for i in 0..1000u64 {
            assert_eq!(m[&LineAddr(i)], i * 2);
        }
        assert!(!m.contains_key(&LineAddr(1000)));
    }

    #[test]
    fn sample_filter_rate_is_roughly_correct() {
        let f = SampleFilter::new(16, 5);
        let n = 100_000u64;
        let hits = (0..n).filter(|&i| f.accepts(LineAddr(i))).count() as f64;
        let frac = hits / n as f64;
        assert!((frac - 1.0 / 16.0).abs() < 0.01, "got {frac}");
    }

    #[test]
    fn sample_filter_ratio_one_accepts_all() {
        let f = SampleFilter::new(1, 5);
        assert!((0..100u64).all(|i| f.accepts(LineAddr(i))));
        assert_eq!(f.ratio(), 1);
    }

    #[test]
    #[should_panic(expected = "sampling ratio")]
    fn sample_filter_rejects_zero_ratio() {
        SampleFilter::new(0, 1);
    }
}
