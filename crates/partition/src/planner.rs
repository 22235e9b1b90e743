//! The shared planning path: convexify, allocate, shadow-plan.
//!
//! Every consumer of Talus — the offline experiment drivers, the 8-core
//! simulated system, and the online reconfiguration service — performs the
//! same three steps each reconfiguration (paper §VI-A):
//!
//! 1. **Pre-process**: replace each tenant's miss curve by its lower
//!    convex hull, so the allocator never sees a cliff;
//! 2. **Allocate**: divide the cache's capacity across tenants with an
//!    [`AllocPolicy`] (on convex curves the trivial hill climb is optimal);
//! 3. **Post-process**: for each tenant, turn its allocation into a
//!    Talus shadow-partition configuration with
//!    [`talus_core::plan_with_hull`], on the hull step 1 built — at the
//!    whole allocation, or at the share of it the cache's scheme manages
//!    ([`Planner::plan_managed_in`]).
//!
//! [`Planner`] packages those steps behind one call so all layers share
//! one code path — a plan computed online is bit-for-bit the plan the
//! offline tools would compute from the same curves.
//!
//! ```
//! use talus_core::MissCurve;
//! use talus_partition::Planner;
//!
//! // Two tenants: a cliff at 256 lines and a gentle convex decay.
//! let cliff = MissCurve::from_samples(
//!     &[0.0, 128.0, 256.0, 512.0],
//!     &[10.0, 10.0, 1.0, 1.0],
//! )?;
//! let convex = MissCurve::from_samples(
//!     &[0.0, 128.0, 256.0, 512.0],
//!     &[6.0, 3.0, 2.0, 1.5],
//! )?;
//!
//! let planner = Planner::new(32);
//! let plan = planner.plan(&[cliff, convex], 384, 0)?;
//!
//! // Capacity is fully spent, in grains.
//! assert_eq!(plan.allocations().iter().sum::<u64>(), 384);
//! // Each tenant gets a Talus plan at its allocated size.
//! assert_eq!(plan.tenants.len(), 2);
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```

use crate::{climb, fair, hill_climb, imbalanced, lookahead, Offer};
use std::borrow::Borrow;
use talus_core::{plan_with_hull, ConvexHull, MissCurve, PlanError, TalusOptions, TalusPlan};

/// Which algorithm divides capacity across tenants.
///
/// These are the policies of the paper's §VII-D scheme roster; the
/// variants dispatch to the crate's free functions ([`hill_climb`],
/// [`lookahead`], [`fair`], [`imbalanced`]). A variant's value is the
/// tag a spec's bytes carry ([`put_spec`](crate::put_spec)).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum AllocPolicy {
    /// Greedy marginal-utility hill climbing (optimal on convex curves).
    Hill = 0,
    /// UCP Lookahead.
    Lookahead = 1,
    /// Equal allocations.
    Fair = 2,
    /// Imbalanced partitioning (Pan & Pai): fund one favored partition's
    /// cliff and rotate the favored slot across rounds.
    Imbalanced = 3,
}

impl AllocPolicy {
    /// Runs the policy. `round` selects the favored partition for
    /// [`AllocPolicy::Imbalanced`] (rotated round-robin) and is ignored by
    /// the other policies.
    ///
    /// # Panics
    ///
    /// Panics if `curves` is empty or `grain` is zero (as the underlying
    /// algorithms do).
    pub fn allocate<C: Borrow<MissCurve>>(
        self,
        curves: &[C],
        capacity: u64,
        grain: u64,
        round: u64,
    ) -> Vec<u64> {
        match self {
            AllocPolicy::Hill => hill_climb(curves, capacity, grain),
            AllocPolicy::Lookahead => lookahead(curves, capacity, grain),
            AllocPolicy::Fair => fair(curves.len(), capacity, grain),
            AllocPolicy::Imbalanced => {
                imbalanced(curves, capacity, grain, (round as usize) % curves.len())
            }
        }
    }

    /// Display label matching the paper's legends.
    pub fn label(self) -> &'static str {
        match self {
            AllocPolicy::Hill => "Hill",
            AllocPolicy::Lookahead => "Lookahead",
            AllocPolicy::Fair => "Fair",
            AllocPolicy::Imbalanced => "Imbalanced",
        }
    }
}

/// One tenant's share of a [`CachePlan`].
#[derive(Debug, Clone, PartialEq)]
pub struct TenantPlan {
    /// Lines allocated to this tenant (a multiple of the planner's grain).
    pub capacity: u64,
    /// The Talus shadow-partition configuration at that size.
    pub plan: TalusPlan,
}

/// A complete plan for one cache: per-tenant allocations and shadow
/// configurations, as produced by [`Planner::plan`].
#[derive(Debug, Clone, PartialEq)]
pub struct CachePlan {
    /// The reconfiguration round this plan was computed in (drives the
    /// favored-slot rotation of [`AllocPolicy::Imbalanced`]).
    pub round: u64,
    /// One entry per tenant, in input order.
    pub tenants: Vec<TenantPlan>,
}

impl CachePlan {
    /// Per-tenant allocated sizes, in input order.
    pub fn allocations(&self) -> Vec<u64> {
        self.tenants.iter().map(|t| t.capacity).collect()
    }

    /// Total miss metric the plan expects (sum of hull values at the
    /// allocated sizes) — comparable across candidate plans for the same
    /// curves.
    pub fn expected_total_misses(&self) -> f64 {
        self.tenants.iter().map(|t| t.plan.expected_misses()).sum()
    }
}

/// The shared convexify → allocate → shadow-plan pipeline.
///
/// Construct once per cache (it is `Copy`-cheap to rebuild) and call
/// [`plan`](Planner::plan) each reconfiguration. By default curves are
/// convexified before allocation — Talus's §VI-A pre-processing; disable
/// with [`raw_curves`](Planner::raw_curves) to model a non-Talus
/// partitioned system (the paper's "X/LRU" baselines).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Planner {
    /// Allocation granularity in lines.
    pub grain: u64,
    /// Shadow-planning options (safety margin, vertex tolerance).
    pub options: TalusOptions,
    /// Capacity-division policy.
    pub policy: AllocPolicy,
    /// Whether the allocator sees convex hulls (Talus) or raw curves.
    pub convexify: bool,
}

impl Planner {
    /// A Talus planner with the paper's defaults: hill climbing on convex
    /// hulls with a 5% safety margin.
    pub fn new(grain: u64) -> Self {
        Planner {
            grain,
            options: TalusOptions::new(),
            policy: AllocPolicy::Hill,
            convexify: true,
        }
    }

    /// The default planner for a cache of `capacity` lines: [`new`]
    /// at a capacity/64 grain (one line below 64).
    ///
    /// [`new`]: Planner::new
    pub fn for_capacity(capacity: u64) -> Self {
        Planner::new((capacity / 64).max(1))
    }

    /// Replaces the allocation policy.
    pub fn with_policy(mut self, policy: AllocPolicy) -> Self {
        self.policy = policy;
        self
    }

    /// Replaces the shadow-planning options.
    pub fn with_options(mut self, options: TalusOptions) -> Self {
        self.options = options;
        self
    }

    /// Hands the allocator the raw (possibly cliffy) curves instead of
    /// their hulls — the non-Talus baseline configuration.
    pub fn raw_curves(mut self) -> Self {
        self.convexify = false;
        self
    }

    /// Steps 1–2 only: divide `capacity` across `curves`, convexifying
    /// first unless [`raw_curves`](Planner::raw_curves) was set. Returns
    /// per-tenant sizes in lines (multiples of the grain).
    ///
    /// Used by partitioned systems without Talus, which need sizes and
    /// no shadow plans (the "X/LRU" baselines). A caller
    /// that reconfigures every interval keeps a [`PlanScratch`] and calls
    /// [`allocate_in`](Planner::allocate_in); this is that call on a
    /// scratch of its own.
    ///
    /// # Panics
    ///
    /// Panics if `curves` is empty or the grain is zero.
    pub fn allocate<C: Borrow<MissCurve>>(
        &self,
        curves: &[C],
        capacity: u64,
        round: u64,
    ) -> Vec<u64> {
        let mut scratch = PlanScratch::default();
        self.allocate_in(
            &mut scratch,
            curves.iter().map(Borrow::borrow),
            capacity,
            round,
        );
        scratch.alloc
    }

    /// [`allocate`](Planner::allocate) working in `scratch`: the same
    /// sizes, readable in the scratch until its next use, and — with the
    /// default policy on hulls — nothing allocated once the scratch has
    /// served a call this wide.
    ///
    /// # Panics
    ///
    /// Panics if `curves` is empty or the grain is zero.
    pub fn allocate_in<'s, 'c, I>(
        &self,
        scratch: &'s mut PlanScratch,
        curves: I,
        capacity: u64,
        round: u64,
    ) -> &'s [u64]
    where
        I: IntoIterator<Item = &'c MissCurve>,
    {
        let curves = curves.into_iter();
        if self.convexify {
            let tenants = scratch.assign_hulls(curves);
            self.allocate_on_hulls(scratch, tenants, capacity, round);
        } else {
            self.allocate_on_raw(scratch, curves, capacity, round);
        }
        &scratch.alloc
    }

    /// Step 2 on the scratch's first `tenants` hulls, into its `alloc`.
    /// Hill climbing — the default, and the paper's point — walks the hull
    /// vertices directly; the other policies are defined on curves and get
    /// each hull as one.
    fn allocate_on_hulls(
        &self,
        scratch: &mut PlanScratch,
        tenants: usize,
        capacity: u64,
        round: u64,
    ) {
        let PlanScratch {
            hulls,
            alloc,
            offers,
            ..
        } = scratch;
        let hulls = &hulls[..tenants];
        match self.policy {
            AllocPolicy::Hill => climb(hulls, capacity, self.grain, alloc, offers),
            policy => {
                let curves: Vec<MissCurve> = hulls.iter().map(ConvexHull::to_curve).collect();
                *alloc = policy.allocate(&curves, capacity, self.grain, round);
            }
        }
    }

    /// Step 2 on the curves as measured (the non-Talus baselines), into
    /// the scratch's `alloc`.
    fn allocate_on_raw<'c>(
        &self,
        scratch: &mut PlanScratch,
        curves: impl Iterator<Item = &'c MissCurve>,
        capacity: u64,
        round: u64,
    ) {
        let curves: Vec<&MissCurve> = curves.collect();
        scratch.alloc = self.policy.allocate(&curves, capacity, self.grain, round);
    }

    /// The full pipeline: allocate `capacity` across `curves`, then plan a
    /// Talus shadow configuration for every tenant at its allocated size.
    ///
    /// Takes the curves owned, by reference or behind any pointer
    /// (`&[MissCurve]`, `&[&MissCurve]`, `&[Arc<MissCurve>]`): nothing is
    /// copied, and with the default policy the cost is one hull pass per
    /// curve plus [`hill_climb_hulls`](crate::hill_climb_hulls). This is
    /// [`plan_in`](Planner::plan_in) on a scratch of its own — the form
    /// for a caller that plans once.
    ///
    /// # Errors
    ///
    /// Returns the first [`PlanError`] hit while shadow-planning a tenant
    /// (e.g. an allocation below the curve's monitored domain).
    ///
    /// # Panics
    ///
    /// Panics if `curves` is empty or the grain is zero.
    pub fn plan<C: Borrow<MissCurve>>(
        &self,
        curves: &[C],
        capacity: u64,
        round: u64,
    ) -> Result<CachePlan, PlanError> {
        self.plan_in(
            &mut PlanScratch::default(),
            curves.iter().map(Borrow::borrow),
            capacity,
            round,
        )
    }

    /// [`plan`](Planner::plan) working in `scratch`: the same
    /// [`CachePlan`], bit for bit, whatever the scratch was used for
    /// before — an earlier plan of any shape, one that failed, one that
    /// panicked half-way. With the default policy, once the scratch has
    /// served a call this wide and this long, the returned plan's tenant
    /// list is the only allocation — and not even that when a plan was
    /// given back with [`PlanScratch::recycle`]: its list is refilled.
    ///
    /// `curves` is any iterator of curve references that can be walked
    /// twice, so a caller holding `Option<MissCurve>` slots or `Arc`s
    /// needs no slice of references built for the call.
    ///
    /// ```
    /// use talus_core::MissCurve;
    /// use talus_partition::{PlanScratch, Planner};
    /// let cliff = MissCurve::from_samples(&[0.0, 128.0, 256.0, 512.0], &[10.0, 10.0, 1.0, 1.0])?;
    /// let decay = MissCurve::from_samples(&[0.0, 128.0, 256.0, 512.0], &[6.0, 3.0, 2.0, 1.5])?;
    /// let planner = Planner::new(32);
    /// let mut scratch = PlanScratch::default();
    /// for curves in [vec![cliff.clone(), decay.clone()], vec![decay], vec![cliff]] {
    ///     let plan = planner.plan_in(&mut scratch, &curves, 384, 0)?;
    ///     assert_eq!(plan, planner.plan(&curves, 384, 0)?);
    /// }
    /// # Ok::<(), Box<dyn std::error::Error>>(())
    /// ```
    ///
    /// # Errors
    ///
    /// As [`plan`](Planner::plan).
    ///
    /// # Panics
    ///
    /// Panics if `curves` is empty or the grain is zero.
    pub fn plan_in<'c, I>(
        &self,
        scratch: &mut PlanScratch,
        curves: I,
        capacity: u64,
        round: u64,
    ) -> Result<CachePlan, PlanError>
    where
        I: IntoIterator<Item = &'c MissCurve>,
        I::IntoIter: Clone,
    {
        self.plan_managed_in(scratch, curves, capacity, round, 1.0)
    }

    /// [`plan_in`](Planner::plan_in) for a cache whose scheme guarantees
    /// only `managed_fraction` of each allocation (a Vantage-like
    /// unmanaged region, paper §VI-B): every tenant keeps its allocation
    /// as its `capacity`, and is shadow-planned at
    /// `floor(capacity × managed_fraction)` lines, on the hull its
    /// allocation was made on. A fraction of 1.0 is `plan_in`, bit for
    /// bit.
    ///
    /// # Errors
    ///
    /// As [`plan`](Planner::plan).
    ///
    /// # Panics
    ///
    /// Panics if `curves` is empty, the grain is zero, or
    /// `managed_fraction` is not in `(0, 1]`.
    pub fn plan_managed_in<'c, I>(
        &self,
        scratch: &mut PlanScratch,
        curves: I,
        capacity: u64,
        round: u64,
        managed_fraction: f64,
    ) -> Result<CachePlan, PlanError>
    where
        I: IntoIterator<Item = &'c MissCurve>,
        I::IntoIter: Clone,
    {
        assert!(
            managed_fraction > 0.0 && managed_fraction <= 1.0,
            "managed fraction must be in (0, 1]"
        );
        let curves = curves.into_iter();
        let tenants = scratch.assign_hulls(curves.clone());
        if self.convexify {
            self.allocate_on_hulls(scratch, tenants, capacity, round);
        } else {
            self.allocate_on_raw(scratch, curves, capacity, round);
        }
        let mut plans = scratch.spare.pop().unwrap_or_default();
        plans.reserve_exact(tenants);
        for (hull, &size) in scratch.hulls[..tenants].iter().zip(&scratch.alloc) {
            let managed = (size as f64 * managed_fraction).floor();
            plans.push(TenantPlan {
                capacity: size,
                plan: plan_with_hull(hull, managed, self.options)?,
            });
        }
        Ok(CachePlan {
            round,
            tenants: plans,
        })
    }
}

/// The working memory of a planning call, owned by whoever plans
/// repeatedly — a shard for its lifetime (while it stays within
/// `talus_core::limits::EPOCH_WORKSPACE_POINTS`), a simulated LLC for
/// its lifetime — so that [`Planner::plan_in`], [`Planner::allocate_in`]
/// and [`hill_climb_hulls_into`](crate::hill_climb_hulls_into) allocate
/// nothing after their first calls. Holds one hull per tenant (vertex
/// buffers re-assigned in place), the allocation, the hill climb's
/// offers, and the tenant lists of plans given back with
/// [`recycle`](PlanScratch::recycle), which `plan_in` fills before it
/// allocates one.
///
/// A scratch carries no state from one call to the next — every call
/// overwrites whatever it reads — so one scratch may serve planners,
/// tenant counts and curve lengths in any order, and is safe to reuse
/// after a call that returned an error or unwound.
#[derive(Debug, Clone, Default)]
pub struct PlanScratch {
    /// The last call's hulls lead; any beyond them are kept for their
    /// buffers, so a narrower call between two wide ones costs nothing.
    pub(crate) hulls: Vec<ConvexHull>,
    pub(crate) alloc: Vec<u64>,
    pub(crate) offers: Vec<Offer>,
    /// Emptied tenant lists of recycled plans, the latest last.
    spare: Vec<Vec<TenantPlan>>,
}

impl PlanScratch {
    /// Gives a plan the caller is done with back to the scratch: the next
    /// [`Planner::plan_in`] fills its tenant list instead of allocating
    /// one (growing it if the plan is wider). The scratch keeps every
    /// list it is given until a plan takes it, so a caller recycles what
    /// it planned, no more.
    ///
    /// ```
    /// use talus_core::MissCurve;
    /// use talus_partition::{PlanScratch, Planner};
    /// let decay = MissCurve::from_samples(&[0.0, 128.0, 256.0], &[6.0, 3.0, 2.0])?;
    /// let planner = Planner::new(32);
    /// let mut scratch = PlanScratch::default();
    /// let first = planner.plan_in(&mut scratch, [&decay, &decay], 256, 0)?;
    /// let list = first.tenants.as_ptr();
    /// scratch.recycle(first);
    /// let second = planner.plan_in(&mut scratch, [&decay, &decay], 256, 1)?;
    /// assert_eq!(second.tenants.as_ptr(), list);
    /// assert_eq!(second, planner.plan(&[&decay, &decay], 256, 1)?);
    /// # Ok::<(), Box<dyn std::error::Error>>(())
    /// ```
    pub fn recycle(&mut self, plan: CachePlan) {
        let mut tenants = plan.tenants;
        tenants.clear();
        self.spare.push(tenants);
    }

    /// Step 1: each tenant's lower convex hull, into the leading hulls.
    /// Returns how many curves there were.
    fn assign_hulls<'c>(&mut self, curves: impl Iterator<Item = &'c MissCurve>) -> usize {
        let mut tenants = 0;
        for curve in curves {
            match self.hulls.get_mut(tenants) {
                Some(hull) => hull.assign(curve),
                None => self.hulls.push(curve.convex_hull()),
            }
            tenants += 1;
        }
        tenants
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::total_misses;

    fn cliff(at: f64, high: f64, low: f64) -> MissCurve {
        let sizes: Vec<f64> = (0..=16).map(|i| i as f64 * 64.0).collect();
        let misses: Vec<f64> = sizes
            .iter()
            .map(|&s| if s < at { high } else { low })
            .collect();
        MissCurve::from_samples(&sizes, &misses).unwrap()
    }

    fn convex(knee: f64, floor: f64) -> MissCurve {
        let sizes: Vec<f64> = (0..=16).map(|i| i as f64 * 64.0).collect();
        let misses: Vec<f64> = sizes
            .iter()
            .map(|&s| floor + 30.0 * (-s / knee).exp())
            .collect();
        MissCurve::from_samples(&sizes, &misses).unwrap()
    }

    #[test]
    fn plan_matches_manual_pipeline() {
        // The planner must be exactly hulls → hill_climb → plan_with_hull.
        let curves = vec![cliff(512.0, 12.0, 1.0), convex(300.0, 0.5)];
        let planner = Planner::new(64);
        let plan = planner.plan(&curves, 1024, 0).unwrap();

        let hulls: Vec<MissCurve> = curves.iter().map(|c| c.convex_hull().to_curve()).collect();
        let sizes = hill_climb(&hulls, 1024, 64);
        assert_eq!(plan.allocations(), sizes);
        for (i, t) in plan.tenants.iter().enumerate() {
            let expect = plan_with_hull(
                &curves[i].convex_hull(),
                sizes[i] as f64,
                TalusOptions::new(),
            )
            .unwrap();
            assert_eq!(t.plan, expect, "tenant {i}");
        }
    }

    #[test]
    fn managed_plans_keep_the_allocation_and_plan_on_its_managed_share() {
        let curves = vec![
            cliff(512.0, 12.0, 1.0),
            convex(300.0, 0.5),
            cliff(320.0, 9.0, 2.0),
        ];
        let planner = Planner::new(64);
        let mut scratch = PlanScratch::default();
        let whole = planner.plan(&curves, 1024, 3).unwrap();
        let same = planner
            .plan_managed_in(&mut scratch, &curves, 1024, 3, 1.0)
            .unwrap();
        assert_eq!(same, whole);
        let managed = planner
            .plan_managed_in(&mut scratch, &curves, 1024, 3, 0.9)
            .unwrap();
        assert_eq!(managed.allocations(), whole.allocations());
        assert_ne!(managed, whole, "some tenant plans differently on 90 %");
        assert_eq!(managed.round, 3);
        for (i, t) in managed.tenants.iter().enumerate() {
            let at = (t.capacity as f64 * 0.9).floor();
            let expect = plan_with_hull(&curves[i].convex_hull(), at, TalusOptions::new()).unwrap();
            assert_eq!(t.plan, expect, "tenant {i}");
        }
    }

    #[test]
    #[should_panic(expected = "managed fraction")]
    fn a_managed_fraction_above_one_is_refused() {
        let curves = vec![convex(100.0, 1.0)];
        let _ = Planner::new(64).plan_managed_in(&mut PlanScratch::default(), &curves, 512, 0, 1.5);
    }

    #[test]
    fn convexified_hill_beats_raw_hill_on_cliffs() {
        // Two identical cliffs, capacity for one: raw hill climbing stalls,
        // hull-based hill climbing matches what lookahead finds.
        let curves = vec![cliff(512.0, 10.0, 1.0), cliff(512.0, 10.0, 1.0)];
        let talus = Planner::new(64).plan(&curves, 512, 0).unwrap();
        let raw = Planner::new(64).raw_curves().allocate(&curves, 512, 0);
        let hulls: Vec<MissCurve> = curves.iter().map(|c| c.convex_hull().to_curve()).collect();
        assert!(
            total_misses(&hulls, &talus.allocations()) <= total_misses(&hulls, &raw) + 1e-9,
            "hull-aware allocation can't lose on the hulls"
        );
        // And the expected total tracks the hull values.
        let manual: f64 = talus
            .tenants
            .iter()
            .zip(&curves)
            .map(|(t, c)| c.convex_hull().value_at(t.capacity as f64))
            .sum();
        assert!((talus.expected_total_misses() - manual).abs() < 1e-9);
    }

    #[test]
    fn imbalanced_rotates_with_round() {
        // Imbalanced is the pre-Talus baseline: it sees raw cliffy curves
        // (on hulls its cliff-funding step has nothing to fund).
        let curves = vec![cliff(512.0, 10.0, 1.0), cliff(512.0, 10.0, 1.0)];
        let planner = Planner::new(64)
            .with_policy(AllocPolicy::Imbalanced)
            .raw_curves();
        let r0 = planner.plan(&curves, 768, 0).unwrap();
        let r1 = planner.plan(&curves, 768, 1).unwrap();
        assert!(r0.allocations()[0] > r0.allocations()[1]);
        assert!(r1.allocations()[1] > r1.allocations()[0]);
        assert_eq!(r0.round, 0);
        assert_eq!(r1.round, 1);
    }

    #[test]
    fn fair_policy_splits_evenly() {
        let curves = vec![convex(100.0, 1.0); 4];
        let plan = Planner::new(64)
            .with_policy(AllocPolicy::Fair)
            .plan(&curves, 1024, 0)
            .unwrap();
        assert_eq!(plan.allocations(), vec![256; 4]);
    }

    #[test]
    fn labels_are_stable() {
        assert_eq!(AllocPolicy::Hill.label(), "Hill");
        assert_eq!(AllocPolicy::Lookahead.label(), "Lookahead");
        assert_eq!(AllocPolicy::Fair.label(), "Fair");
        assert_eq!(AllocPolicy::Imbalanced.label(), "Imbalanced");
    }

    #[test]
    fn shadow_plans_appear_inside_bridges() {
        // One tenant, capacity parked mid-plateau: the plan must be a
        // shadow split bridging the cliff.
        let curves = vec![cliff(512.0, 10.0, 1.0)];
        let plan = Planner::new(64).plan(&curves, 256, 0).unwrap();
        let cfg = plan.tenants[0]
            .plan
            .shadow()
            .expect("mid-plateau sizes shadow-partition");
        assert!(cfg.rho > 0.0 && cfg.rho < 1.0);
    }
}
