//! # talus-core — the mathematics of Talus
//!
//! A faithful implementation of the analytical machinery from
//! *“Talus: A Simple Way to Remove Cliffs in Cache Performance”*
//! (Beckmann & Sanchez, HPCA 2015).
//!
//! Caches often exhibit **performance cliffs**: ranges of sizes where extra
//! capacity buys nothing, followed by a threshold where the working set
//! suddenly fits and the miss rate collapses. Cliffs are synonymous with
//! *non-convex miss curves*. Talus removes them by splitting a single access
//! stream across two **shadow partitions** that emulate a smaller cache (α)
//! and a larger cache (β); the combination traces the **convex hull** of the
//! original miss curve.
//!
//! This crate is pure math — no simulator, no hardware model. It provides:
//!
//! - [`MissCurve`]: piecewise-linear miss curves and the Theorem-4 sampling
//!   transform `m'(s') = ρ·m(s'/ρ)`;
//! - [`ConvexHull`]: linear-time lower convex hulls (the curve Talus traces);
//! - [`plan`] / [`ShadowConfig`]: the Lemma-5/Theorem-6 shadow-partition
//!   solver, including the paper's §VI safety margin and way-partitioning
//!   coarsening correction;
//! - [`bypass`]: the optimal-bypassing model of §V-C, which Talus provably
//!   dominates (Corollary 8);
//! - [`source`]: the [`CurveSource`] seam separating curve producers
//!   (monitors, models, replays) from curve consumers (planners, services);
//! - [`limits`]: interchange bounds (frame/curve/batch sizes) every
//!   serialization of these types — `talus-serve`'s wire protocol and
//!   `talus-store`'s journal — must agree on, and [`codec`]: the one
//!   bounds-checked cursor and field writers both formats use, and the
//!   one error both formats' decoders fail with.
//!
//! ## Quickstart
//!
//! ```
//! use talus_core::{plan, MissCurve, TalusOptions};
//!
//! // A miss curve with a plateau from 2 MB to a cliff at 5 MB (paper §III).
//! let curve = MissCurve::from_samples(
//!     &[0.0, 1.0, 2.0, 3.0, 4.0, 5.0, 10.0],
//!     &[24.0, 18.0, 12.0, 12.0, 12.0, 3.0, 3.0],
//! )?;
//!
//! // Plan a 4 MB cache: Talus bridges the cliff with two shadow partitions.
//! let plan = plan(&curve, 4.0, TalusOptions::exact())?;
//! let cfg = plan.shadow().expect("4 MB sits on the plateau");
//!
//! // One third of accesses go to a 2/3 MB partition emulating a 2 MB cache;
//! // the rest go to a 10/3 MB partition emulating a 5 MB cache.
//! assert!((cfg.rho - 1.0 / 3.0).abs() < 1e-9);
//! assert!((cfg.expected_misses - 6.0).abs() < 1e-9); // down from 12 MPKI
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```
//!
//! ## Units
//!
//! Sizes and miss metrics are unit-agnostic `f64`s: everything in the theory
//! is linear, so lines/bytes/megabytes and misses-per-access/MPKI/raw counts
//! all work, as long as each curve is internally consistent. The companion
//! `talus-sim` crate uses cache lines and misses-per-access.

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]
#![forbid(unsafe_code)]

pub mod bypass;
pub mod codec;
mod config;
mod curve;
mod error;
pub mod fault;
mod hash;
pub mod health;
mod hull;
pub mod limits;
pub mod source;

pub use config::{
    apply_margin, plan, plan_with_hull, shadow_miss_rate, talus_curve, ShadowConfig, TalusOptions,
    TalusPlan,
};
pub use curve::{CurvePoint, Grid, MissCurve, Points};
pub use error::{CurveError, PlanError};
pub use fault::{FaultAction, FaultDirective, FaultScript};
pub use hash::{keyed_mix64, mix64, shard_of, ShardTopology, SHARD_SEED};
pub use health::{PlaneHealth, ShardHealth, StoreHealth};
pub use hull::ConvexHull;
pub use source::{CurveSource, ReplaySource};
