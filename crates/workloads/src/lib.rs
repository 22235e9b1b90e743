//! # talus-workloads — synthetic workloads for the Talus reproduction
//!
//! The paper evaluates on SPEC CPU2006 under zsim. This crate supplies the
//! substitute: composable access-stream [`generator`]s (scans, uniform and
//! Zipfian reuse, mixtures, phases) and a roster of named [`spec`] profiles
//! whose LRU miss curves reproduce the qualitative shapes — cliff
//! positions, plateaus, intensities — that the paper's figures depend on.
//!
//! ```
//! use talus_workloads::{profile, AccessGenerator};
//! // libquantum: a cyclic scan over 32 MB (scaled down 256x here).
//! let app = profile("libquantum").unwrap().scaled(1.0 / 256.0);
//! let mut gen = app.generator(42, 0);
//! let first = gen.next_line();
//! assert_eq!(first.value(), 0);
//! ```

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]
#![forbid(unsafe_code)]

pub mod analytic;
pub mod generator;
pub mod interference;
pub mod prefetch;
pub mod spec;
pub mod zipf;

pub use analytic::{AnalyticCurveSource, AnalyticModel};
pub use generator::{
    collect_trace, AccessGenerator, Mixture, Phased, PointerChase, Scan, StridedScan,
    UniformRandom, Zipfian,
};
pub use interference::{multi_tenant, MultiTenantProfile};
pub use prefetch::{AccessKind, StreamPrefetcher};
pub use spec::{all_profiles, memory_intensive, profile, AppProfile, Component, ComponentKind};
pub use zipf::ZipfTable;
