//! Replacement policies.
//!
//! Every policy the paper evaluates is implemented here as a
//! [`ReplacementPolicy`]: LRU, SRRIP/BRRIP/DRRIP (+ thread-aware DRRIP),
//! DIP, PDP, SHiP, random, and the offline Belady MIN oracle.
//!
//! The two recency families are one engine each: LRU, BIP and DIP share
//! per-line stamps, SRRIP, BRRIP, DRRIP and TA-DRRIP one RRPV table. A
//! family's policies differ only in their insertion rule — always the
//! normal insertion, bimodal (one in 32), or set dueling between the two
//! — so each of the seven is a type alias of its engine over one of three
//! rules (paper §VII-A: M = 2, ε = 1/32).
//!
//! Policies own their per-line metadata (allocated in [`attach`]) and are
//! driven by the cache array through three callbacks: [`on_hit`],
//! [`choose_victim`], and [`on_insert`]. This keeps the trait object-safe
//! so caches can be configured with `Box<dyn ReplacementPolicy>` at
//! runtime, while the per-policy state layout stays private.
//!
//! [`attach`]: ReplacementPolicy::attach
//! [`on_hit`]: ReplacementPolicy::on_hit
//! [`choose_victim`]: ReplacementPolicy::choose_victim
//! [`on_insert`]: ReplacementPolicy::on_insert

mod belady;
mod dip;
mod insertion;
mod lru;
mod pdp;
mod rrip;
mod ship;

pub use belady::{annotate_next_uses, Belady, NEVER_USED};
pub use dip::{Bip, Dip};
pub use lru::{Lru, RandomRepl};
pub use pdp::Pdp;
pub use rrip::{Brrip, Drrip, Srrip, TaDrrip};
pub use ship::Ship;

use crate::addr::{LineAddr, ThreadId};
use std::ops::Range;

/// Per-access context handed to policies.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct AccessCtx {
    /// Issuing hardware thread (used by thread-aware policies).
    pub thread: ThreadId,
    /// For the offline Belady oracle: global index of this line's next use,
    /// or [`NEVER_USED`]. Online policies ignore it.
    pub next_use: u64,
    /// The line being accessed. Cache arrays fill this in before invoking
    /// policy callbacks, so signature-based policies ([`Ship`]) can derive
    /// per-line signatures; external callers need not set it.
    pub line: LineAddr,
}

impl AccessCtx {
    /// Context for a single-threaded access with no oracle information.
    pub fn new() -> Self {
        AccessCtx {
            thread: ThreadId(0),
            next_use: NEVER_USED,
            line: LineAddr(0),
        }
    }

    /// Context for an access from the given thread.
    pub fn from_thread(thread: ThreadId) -> Self {
        AccessCtx {
            thread,
            next_use: NEVER_USED,
            line: LineAddr(0),
        }
    }

    /// Attaches oracle next-use information (for [`Belady`]).
    pub fn with_next_use(mut self, next_use: u64) -> Self {
        self.next_use = next_use;
        self
    }

    /// Attaches the accessed line (done by cache arrays on every lookup).
    pub fn with_line(mut self, line: LineAddr) -> Self {
        self.line = line;
        self
    }
}

impl Default for AccessCtx {
    fn default() -> Self {
        Self::new()
    }
}

/// A cache replacement policy driven by an external cache array.
///
/// The array calls [`attach`](Self::attach) once with its geometry, then:
///
/// - [`on_hit`](Self::on_hit) when a lookup hits,
/// - [`choose_victim`](Self::choose_victim) when an insertion needs to
///   evict (candidates are the contiguous run of ways the caller permits
///   — the whole set, or one partition's ways),
/// - [`on_insert`](Self::on_insert) after a new line lands in a way.
///
/// Policies must tolerate `choose_victim` being called with any non-empty
/// way range inside the set: partitioned caches restrict candidates to
/// one partition's run of ways.
pub trait ReplacementPolicy: std::fmt::Debug {
    /// Binds the policy to an array of `sets × ways` lines, (re)allocating
    /// per-line metadata.
    fn attach(&mut self, sets: usize, ways: usize);

    /// Records a hit on the line at `(set, way)`.
    fn on_hit(&mut self, set: usize, way: usize, ctx: &AccessCtx);

    /// Picks a victim among `candidates` (a run of way indices in `set`,
    /// all holding valid lines).
    ///
    /// # Panics
    ///
    /// Implementations may panic if `candidates` is empty.
    fn choose_victim(&mut self, set: usize, candidates: Range<usize>) -> usize;

    /// Records that a new line was inserted at `(set, way)`.
    fn on_insert(&mut self, set: usize, way: usize, ctx: &AccessCtx);

    /// Human-readable policy name (for reports and plots).
    fn name(&self) -> &'static str;
}

impl ReplacementPolicy for Box<dyn ReplacementPolicy> {
    fn attach(&mut self, sets: usize, ways: usize) {
        (**self).attach(sets, ways)
    }

    fn on_hit(&mut self, set: usize, way: usize, ctx: &AccessCtx) {
        (**self).on_hit(set, way, ctx)
    }

    fn choose_victim(&mut self, set: usize, candidates: Range<usize>) -> usize {
        (**self).choose_victim(set, candidates)
    }

    fn on_insert(&mut self, set: usize, way: usize, ctx: &AccessCtx) {
        (**self).on_insert(set, way, ctx)
    }

    fn name(&self) -> &'static str {
        (**self).name()
    }
}

/// A runtime-selectable policy with *static* per-variant dispatch.
///
/// `Box<dyn ReplacementPolicy>` keeps cache construction flexible but
/// costs an indirect call per policy callback — three per access on the
/// hot simulation loop, none of them inlinable. `AnyPolicy` carries one
/// enum variant per built-in [`PolicyKind`] instead, so a
/// `SetAssocCache<AnyPolicy>` is a concrete type whose policy callbacks
/// compile to a jump table over inlined monomorphic bodies. Policies this
/// crate has never heard of still fit through the
/// [`Custom`](AnyPolicy::Custom) escape hatch, which preserves exactly
/// the old boxed behaviour.
///
/// Built-in variants behave bit-for-bit identically to the boxed policies
/// [`PolicyKind::build`] returns (property-tested in
/// `tests/properties.rs`).
///
/// # Examples
///
/// ```
/// use talus_sim::policy::{AnyPolicy, PolicyKind};
/// use talus_sim::{AccessCtx, CacheModel, LineAddr, SetAssocCache};
/// let mut cache = SetAssocCache::new(1024, 16, PolicyKind::Srrip.build_any(7), 42);
/// assert!(cache.access(LineAddr(3), &AccessCtx::new()).is_miss());
/// assert!(cache.access(LineAddr(3), &AccessCtx::new()).is_hit());
/// ```
#[derive(Debug)]
pub enum AnyPolicy {
    /// Least-recently-used.
    Lru(Lru),
    /// Static RRIP.
    Srrip(Srrip),
    /// Bimodal RRIP.
    Brrip(Brrip),
    /// Dynamic RRIP.
    Drrip(Drrip),
    /// Thread-aware DRRIP.
    TaDrrip(TaDrrip),
    /// Dynamic insertion policy.
    Dip(Dip),
    /// Protecting distance policy.
    Pdp(Pdp),
    /// SHiP-Mem.
    Ship(Ship),
    /// Uniform-random replacement.
    Random(RandomRepl),
    /// Offline Belady MIN (oracle-annotated traces only).
    Belady(Belady),
    /// Escape hatch for user-defined policies: dynamic dispatch, same as
    /// passing the box straight to the cache.
    Custom(Box<dyn ReplacementPolicy>),
}

/// Expands to a match over every `AnyPolicy` variant, binding the inner
/// policy as `$p` in `$body`. Keeps the nine delegation methods from
/// drifting out of sync variant by variant.
macro_rules! any_delegate {
    ($self:expr, $p:ident => $body:expr) => {
        match $self {
            AnyPolicy::Lru($p) => $body,
            AnyPolicy::Srrip($p) => $body,
            AnyPolicy::Brrip($p) => $body,
            AnyPolicy::Drrip($p) => $body,
            AnyPolicy::TaDrrip($p) => $body,
            AnyPolicy::Dip($p) => $body,
            AnyPolicy::Pdp($p) => $body,
            AnyPolicy::Ship($p) => $body,
            AnyPolicy::Random($p) => $body,
            AnyPolicy::Belady($p) => $body,
            AnyPolicy::Custom($p) => $body,
        }
    };
}

impl ReplacementPolicy for AnyPolicy {
    fn attach(&mut self, sets: usize, ways: usize) {
        any_delegate!(self, p => p.attach(sets, ways))
    }

    #[inline]
    fn on_hit(&mut self, set: usize, way: usize, ctx: &AccessCtx) {
        any_delegate!(self, p => p.on_hit(set, way, ctx))
    }

    #[inline]
    fn choose_victim(&mut self, set: usize, candidates: Range<usize>) -> usize {
        any_delegate!(self, p => p.choose_victim(set, candidates))
    }

    #[inline]
    fn on_insert(&mut self, set: usize, way: usize, ctx: &AccessCtx) {
        any_delegate!(self, p => p.on_insert(set, way, ctx))
    }

    fn name(&self) -> &'static str {
        any_delegate!(self, p => p.name())
    }
}

impl From<Box<dyn ReplacementPolicy>> for AnyPolicy {
    fn from(boxed: Box<dyn ReplacementPolicy>) -> Self {
        AnyPolicy::Custom(boxed)
    }
}

/// Runtime-selectable policy kinds, mirroring the paper's evaluation
/// (§VII-A). Construction helper for experiment drivers.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum PolicyKind {
    /// Least-recently-used.
    Lru,
    /// Static RRIP with 2-bit re-reference prediction values.
    Srrip,
    /// Bimodal RRIP (thrash-resistant SRRIP variant).
    Brrip,
    /// Dynamic RRIP: set dueling between SRRIP and BRRIP.
    Drrip,
    /// Thread-aware DRRIP: per-thread set dueling.
    TaDrrip,
    /// Dynamic insertion policy: set dueling between LRU and BIP.
    Dip,
    /// Protecting distance policy.
    Pdp,
    /// SHiP with memory-region signatures (SHiP-Mem).
    Ship,
    /// Uniform-random replacement.
    Random,
}

impl PolicyKind {
    /// Instantiates the policy with a deterministic seed.
    pub fn build(self, seed: u64) -> Box<dyn ReplacementPolicy> {
        match self {
            PolicyKind::Lru => Box::new(Lru::new()),
            PolicyKind::Srrip => Box::new(Srrip::new()),
            PolicyKind::Brrip => Box::new(Brrip::new(seed)),
            PolicyKind::Drrip => Box::new(Drrip::new(seed)),
            PolicyKind::TaDrrip => Box::new(TaDrrip::new(seed)),
            PolicyKind::Dip => Box::new(Dip::new(seed)),
            PolicyKind::Pdp => Box::new(Pdp::new(seed)),
            PolicyKind::Ship => Box::new(Ship::new(seed)),
            PolicyKind::Random => Box::new(RandomRepl::new(seed)),
        }
    }

    /// Instantiates the policy as a statically dispatched [`AnyPolicy`]
    /// (same seeding, bit-for-bit identical behaviour to
    /// [`build`](Self::build), no virtual calls on the access path).
    pub fn build_any(self, seed: u64) -> AnyPolicy {
        match self {
            PolicyKind::Lru => AnyPolicy::Lru(Lru::new()),
            PolicyKind::Srrip => AnyPolicy::Srrip(Srrip::new()),
            PolicyKind::Brrip => AnyPolicy::Brrip(Brrip::new(seed)),
            PolicyKind::Drrip => AnyPolicy::Drrip(Drrip::new(seed)),
            PolicyKind::TaDrrip => AnyPolicy::TaDrrip(TaDrrip::new(seed)),
            PolicyKind::Dip => AnyPolicy::Dip(Dip::new(seed)),
            PolicyKind::Pdp => AnyPolicy::Pdp(Pdp::new(seed)),
            PolicyKind::Ship => AnyPolicy::Ship(Ship::new(seed)),
            PolicyKind::Random => AnyPolicy::Random(RandomRepl::new(seed)),
        }
    }

    /// Display name matching the paper's figure legends.
    pub fn label(self) -> &'static str {
        match self {
            PolicyKind::Lru => "LRU",
            PolicyKind::Srrip => "SRRIP",
            PolicyKind::Brrip => "BRRIP",
            PolicyKind::Drrip => "DRRIP",
            PolicyKind::TaDrrip => "TA-DRRIP",
            PolicyKind::Dip => "DIP",
            PolicyKind::Pdp => "PDP",
            PolicyKind::Ship => "SHiP",
            PolicyKind::Random => "Random",
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ctx_builders() {
        let c = AccessCtx::new();
        assert_eq!(c.thread, ThreadId(0));
        assert_eq!(c.next_use, NEVER_USED);
        let c = AccessCtx::from_thread(ThreadId(3)).with_next_use(42);
        assert_eq!(c.thread, ThreadId(3));
        assert_eq!(c.next_use, 42);
    }

    #[test]
    fn kinds_build_and_have_labels() {
        let kinds = [
            PolicyKind::Lru,
            PolicyKind::Srrip,
            PolicyKind::Brrip,
            PolicyKind::Drrip,
            PolicyKind::TaDrrip,
            PolicyKind::Dip,
            PolicyKind::Pdp,
            PolicyKind::Ship,
            PolicyKind::Random,
        ];
        for k in kinds {
            let mut p = k.build(1);
            p.attach(4, 2);
            assert!(!p.name().is_empty());
            assert!(!k.label().is_empty());
            // Basic exercise through the boxed impl.
            let ctx = AccessCtx::new();
            p.on_insert(0, 0, &ctx);
            p.on_insert(0, 1, &ctx);
            p.on_hit(0, 1, &ctx);
            let v = p.choose_victim(0, 0..2);
            assert!(v < 2);
        }
    }
}
