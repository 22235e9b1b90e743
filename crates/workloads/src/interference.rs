//! Multi-tenant interference profiles.
//!
//! The [`spec`](crate::spec) roster models *applications*: each profile is
//! one tenant with a private address space. This module models the other
//! shape serving systems care about: **several tenants over one shared
//! address space**, each sweeping a hot *window* of the shared region that
//! moves over time, phase-shifted so no two tenants are hot in the same
//! window at once. Every tenant's miss curve therefore carries a moving
//! scan cliff (the Talus-relevant shape) plus a convex private component,
//! and the curves of co-tenants keep changing relative to each other —
//! exactly the churn that keeps an online reconfiguration plane's dirty
//! queues full. This is the load generator for `talus-serve`'s sharded
//! ingest benches and the repo benchmark's `producer_fed` workload. All
//! tenants' private sets are one distribution, so they hold one rank
//! table ([`ZipfTable::shared`](crate::ZipfTable::shared)).

use crate::generator::{AccessGenerator, Mixture, Phased, Scan, Zipfian};
use talus_sim::mb_to_lines;

/// A multi-tenant interference workload: `tenants` access streams over one
/// shared region, each a [`Phased`] scan over a rotating window of that
/// region blended with a private Zipfian hot set.
///
/// Tenant `t` spends phase `p` scanning window `(p + t·stagger) mod
/// windows` of the shared region — all tenants sweep the same address
/// space, but out of phase, so footprints collide while hot sets do not.
///
/// ```
/// use talus_workloads::{multi_tenant, AccessGenerator};
/// let profile = multi_tenant(3).scaled(1.0 / 64.0);
/// let mut gens = profile.generators(42);
/// assert_eq!(gens.len(), 3);
/// let _line = gens[0].next_line();
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct MultiTenantProfile {
    /// Number of tenants sharing the region.
    pub tenants: usize,
    /// Shared region size in megabytes.
    pub shared_mb: f64,
    /// Per-tenant private hot-set size in megabytes.
    pub private_mb: f64,
    /// Number of scan windows the shared region is divided into.
    pub windows: usize,
    /// Accesses each tenant spends per phase before its window rotates.
    pub phase_len: u64,
    /// Fraction of accesses aimed at the shared region (the rest hit the
    /// tenant's private Zipfian set).
    pub shared_weight: f64,
}

/// A `tenants`-way interference profile with serving-shaped defaults: an
/// 8 MB shared region swept in `max(tenants, 4)` windows, a 1 MB private
/// hot set per tenant, 70% of accesses shared, windows rotating every
/// 40 000 accesses.
///
/// # Panics
///
/// Panics if `tenants` is zero.
pub fn multi_tenant(tenants: usize) -> MultiTenantProfile {
    assert!(tenants > 0, "need at least one tenant");
    MultiTenantProfile {
        tenants,
        shared_mb: 8.0,
        private_mb: 1.0,
        windows: tenants.max(4),
        phase_len: 40_000,
        shared_weight: 0.7,
    }
}

impl MultiTenantProfile {
    /// A copy with every footprint scaled by `factor` — shrink
    /// multi-megabyte regions to test/bench scale while keeping the
    /// phase structure.
    ///
    /// # Panics
    ///
    /// Panics if `factor` is not positive and finite.
    pub fn scaled(&self, factor: f64) -> MultiTenantProfile {
        assert!(
            factor > 0.0 && factor.is_finite(),
            "scale factor must be positive"
        );
        MultiTenantProfile {
            shared_mb: self.shared_mb * factor,
            private_mb: self.private_mb * factor,
            ..self.clone()
        }
    }

    /// Shared-region size in lines.
    pub fn shared_lines(&self) -> u64 {
        mb_to_lines(self.shared_mb).max(self.windows as u64)
    }

    /// One tenant's total footprint in lines (the whole shared region —
    /// its window visits all of it over a full rotation — plus its
    /// private set).
    pub fn tenant_footprint_lines(&self) -> u64 {
        self.shared_lines() + mb_to_lines(self.private_mb).max(1)
    }

    /// The phase offset between consecutive tenants, in windows: tenants
    /// are spread evenly around the rotation so their hot windows stay
    /// maximally separated.
    pub fn stagger(&self) -> usize {
        (self.windows / self.tenants).max(1)
    }

    /// Builds tenant `tenant`'s access generator. `seed` controls all
    /// randomness; the same `(tenant, seed)` pair always reproduces the
    /// same stream. Its phases' private sets share one table with every
    /// live tenant's ([`ZipfTable::shared`](crate::ZipfTable::shared)).
    ///
    /// # Panics
    ///
    /// Panics if `tenant` is out of range.
    pub fn tenant_generator(&self, tenant: usize, seed: u64) -> Phased {
        assert!(tenant < self.tenants, "tenant {tenant} out of range");
        let shared_lines = self.shared_lines();
        let window_lines = (shared_lines / self.windows as u64).max(1);
        let private_lines = mb_to_lines(self.private_mb).max(1);
        // Private sets start past the shared region, one slot per tenant.
        let private_base = shared_lines + tenant as u64 * private_lines;
        let phases = (0..self.windows)
            .map(|phase| {
                let window = (phase + tenant * self.stagger()) % self.windows;
                let mix = Mixture::new(
                    vec![
                        (
                            self.shared_weight,
                            Box::new(Scan::new(window as u64 * window_lines, window_lines))
                                as Box<dyn AccessGenerator>,
                        ),
                        (
                            1.0 - self.shared_weight,
                            Box::new(Zipfian::new(
                                private_base,
                                private_lines,
                                0.9,
                                seed ^ ((tenant as u64) << 8) ^ phase as u64,
                            )),
                        ),
                    ],
                    seed.wrapping_add(0x9E37 * (tenant as u64 + 1) + phase as u64),
                );
                (self.phase_len, Box::new(mix) as Box<dyn AccessGenerator>)
            })
            .collect();
        Phased::new(phases)
    }

    /// Builds every tenant's generator at once (the tenant index is
    /// folded into each stream's seeds, so streams are decorrelated but
    /// reproducible), all holding one private-set table.
    pub fn generators(&self, seed: u64) -> Vec<Phased> {
        (0..self.tenants)
            .map(|t| self.tenant_generator(t, seed))
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::generator::collect_trace;
    use crate::zipf::ZipfTable;
    use std::collections::HashSet;
    use std::sync::Arc;

    #[test]
    fn defaults_are_sane() {
        let p = multi_tenant(3);
        assert_eq!(p.tenants, 3);
        assert_eq!(p.windows, 4);
        assert!(p.shared_weight > 0.0 && p.shared_weight < 1.0);
        assert!(p.tenant_footprint_lines() > p.shared_lines());
    }

    #[test]
    #[should_panic(expected = "at least one tenant")]
    fn zero_tenants_rejected() {
        multi_tenant(0);
    }

    #[test]
    fn generators_are_deterministic_per_seed() {
        let p = multi_tenant(2).scaled(1.0 / 256.0);
        let mut a = p.tenant_generator(1, 7);
        let mut b = p.tenant_generator(1, 7);
        for _ in 0..1000 {
            assert_eq!(a.next_line(), b.next_line());
        }
    }

    /// The table every live tenant of `p` draws its private set from.
    /// Tests that count its references use a private set no other test in
    /// this binary builds: the registry is process-wide.
    fn private_table(p: &MultiTenantProfile) -> Arc<ZipfTable> {
        ZipfTable::shared(mb_to_lines(p.private_mb).max(1), 0.9)
    }

    #[test]
    fn a_tenants_phases_share_one_zipf_table() {
        // 341 private lines.
        let p = multi_tenant(4).scaled(1.0 / 48.0);
        let private = private_table(&p);
        let gen = p.tenant_generator(2, 7);
        assert_eq!(
            Arc::strong_count(&private),
            1 + p.windows,
            "one reference per phase, no copies"
        );
        drop(gen);
        assert_eq!(Arc::strong_count(&private), 1);
    }

    #[test]
    fn all_tenants_share_one_zipf_table_and_keep_their_streams() {
        // 410 private lines.
        let p = multi_tenant(3).scaled(1.0 / 40.0);
        let private = private_table(&p);
        let gens = p.generators(7);
        assert_eq!(
            Arc::strong_count(&private),
            1 + p.tenants * p.windows,
            "one reference per tenant per phase, no copies"
        );
        drop(gens);
        for (t, mut shared) in p.generators(7).into_iter().enumerate() {
            let mut alone = p.tenant_generator(t, 7);
            assert_eq!(
                collect_trace(&mut shared, 5000),
                collect_trace(&mut alone, 5000),
                "tenant {t}"
            );
        }
    }

    #[test]
    fn tenants_share_address_space() {
        // Interference means overlapping footprints: over a full phase
        // rotation both tenants touch the same shared lines.
        let p = multi_tenant(2).scaled(1.0 / 512.0);
        let rotation = (p.windows as u64 * p.phase_len) as usize;
        let mut g0 = p.tenant_generator(0, 3);
        let mut g1 = p.tenant_generator(1, 4);
        let t0: HashSet<u64> = collect_trace(&mut g0, rotation)
            .iter()
            .map(|l| l.value())
            .collect();
        let t1: HashSet<u64> = collect_trace(&mut g1, rotation)
            .iter()
            .map(|l| l.value())
            .collect();
        let overlap = t0.intersection(&t1).count();
        assert!(
            overlap as u64 >= p.shared_lines() / 2,
            "tenants should collide on the shared region ({overlap} shared lines)"
        );
    }

    #[test]
    fn phases_are_shifted_between_tenants() {
        // In phase 0, tenant 0 scans window 0 and tenant 1 scans window
        // `stagger`: their first scan addresses land in different windows.
        let p = multi_tenant(2).scaled(1.0 / 512.0);
        let window_lines = (p.shared_lines() / p.windows as u64).max(1);
        let in_window = |line: u64| (line / window_lines) as usize;
        let shared_only = |gen: &mut Phased| loop {
            let l = gen.next_line().value();
            if l < p.shared_lines() {
                return l;
            }
        };
        let w0 = in_window(shared_only(&mut p.tenant_generator(0, 9)));
        let w1 = in_window(shared_only(&mut p.tenant_generator(1, 9)));
        assert_eq!(w0, 0);
        assert_eq!(w1, p.stagger() % p.windows);
        assert_ne!(w0, w1, "tenants start their sweeps out of phase");
    }

    #[test]
    fn window_rotates_after_phase_len() {
        let mut p = multi_tenant(1).scaled(1.0 / 512.0);
        p.phase_len = 100;
        p.shared_weight = 0.999; // nearly all accesses shared
        let window_lines = (p.shared_lines() / p.windows as u64).max(1);
        let mut g = p.tenant_generator(0, 1);
        // Phase 0 scans window 0; after phase_len accesses the scan moves
        // to window 1.
        let first: Vec<u64> = (0..100).map(|_| g.next_line().value()).collect();
        let second: Vec<u64> = (0..100).map(|_| g.next_line().value()).collect();
        let hits = |trace: &[u64], w: u64| {
            trace
                .iter()
                .filter(|&&l| l < p.shared_lines() && l / window_lines == w)
                .count()
        };
        assert!(hits(&first, 0) > 90, "phase 0 sweeps window 0");
        assert!(hits(&second, 1) > 90, "phase 1 sweeps window 1");
    }

    #[test]
    fn scaled_shrinks_footprint_keeps_structure() {
        let p = multi_tenant(4);
        let s = p.scaled(1.0 / 64.0);
        assert_eq!(s.windows, p.windows);
        assert_eq!(s.phase_len, p.phase_len);
        assert!(s.tenant_footprint_lines() < p.tenant_footprint_lines());
    }
}
