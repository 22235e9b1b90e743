//! # talus-sim — the cache-simulation substrate for the Talus reproduction
//!
//! The Talus paper evaluates on zsim with SPEC CPU2006; this crate is the
//! from-scratch Rust substrate standing in for that stack: a trace-driven
//! last-level-cache simulator with
//!
//! - hashed set-associative and fully-associative arrays ([`SetAssocCache`],
//!   [`FullyAssocLru`]);
//! - the paper's replacement-policy zoo ([`policy`]: LRU, SRRIP, BRRIP,
//!   DRRIP, TA-DRRIP, DIP, PDP, SHiP, random, and offline Belady MIN);
//! - partitioning schemes ([`part`]: way, set, Vantage-like fine-grained,
//!   Futility Scaling (no unmanaged region), and idealised exact
//!   partitions);
//! - miss-curve monitors ([`monitor`]: exact Mattson stack distances,
//!   hardware-style UMONs with extended coverage, multi-monitor sampling
//!   for non-stack policies, and CRUISE-style 3-point curves);
//! - Talus itself in hardware form ([`TalusCache`], [`TalusSingleCache`]):
//!   shadow partitions, the 8-bit hash sampling function, safety margins,
//!   and coarsening corrections;
//! - the §VI-D hardware overhead model ([`overhead`]).
//!
//! ## Quickstart: removing a cliff
//!
//! ```
//! use talus_sim::monitor::MattsonMonitor;
//! use talus_sim::part::IdealPartitioned;
//! use talus_sim::{AccessCtx, LineAddr, TalusCacheConfig, TalusSingleCache};
//!
//! // A 2048-line cache facing a cyclic scan over 3072 lines: LRU would
//! // get zero hits. Talus turns that cliff into a proportional share.
//! let cache = IdealPartitioned::new(2048, 2);
//! let monitor = MattsonMonitor::new(8192);
//! let mut talus = TalusSingleCache::new(cache, monitor, 50_000, TalusCacheConfig::new());
//! let ctx = AccessCtx::new();
//! for i in 0..600_000u64 {
//!     talus.access(LineAddr(i % 3072), &ctx);
//! }
//! assert!(talus.stats().hit_rate() > 0.4);
//! ```

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]
#![forbid(unsafe_code)]

mod addr;
mod array;
mod hasher;
pub mod monitor;
pub mod overhead;
pub mod part;
pub mod policy;
mod stats;
mod talus_cache;

pub use addr::{
    bytes_to_lines, lines_to_bytes, lines_to_mb, mb_to_lines, LineAddr, PartitionId, ThreadId,
    LINE_BYTES,
};
pub use array::{CacheModel, FullyAssocLru, SetAssocCache};
pub use hasher::{
    mix64, FastMod32, H3Bank, H3Hasher, LineHashBuilder, LineHasher, SampleFilter, ShadowSampler,
};
pub use policy::AccessCtx;
pub use stats::{AccessResult, CacheStats};
pub use talus_cache::{TalusCache, TalusCacheConfig, TalusSingleCache};
