//! Bit-for-bit plan comparison against an offline `Planner::plan`.

use talus_partition::CachePlan;
use talus_serve::wire::SnapshotSummary;

/// Whether a published plan, read back as a summary, is bit-for-bit the
/// offline plan: every tenant's size and, where it shadow-partitions,
/// its α, β and ρ (and the expected miss value the plan promises).
pub fn plan_matches(offline: &CachePlan, published: &SnapshotSummary) -> bool {
    published.round == offline.round
        && published.tenants.len() == offline.tenants.len()
        && published
            .tenants
            .iter()
            .zip(&offline.tenants)
            .all(|(got, want)| {
                let shadows_match = match (&got.shadow, want.plan.shadow()) {
                    (None, None) => true,
                    (Some(g), Some(w)) => {
                        g.alpha.to_bits() == w.alpha.to_bits()
                            && g.beta.to_bits() == w.beta.to_bits()
                            && g.rho.to_bits() == w.rho.to_bits()
                    }
                    _ => false,
                };
                got.capacity == want.capacity
                    && got.expected_misses.to_bits() == want.plan.expected_misses().to_bits()
                    && shadows_match
            })
}

#[cfg(test)]
mod tests {
    use super::*;
    use talus_core::MissCurve;
    use talus_partition::Planner;
    use talus_serve::PlanSnapshot;

    /// One tenant parked mid-plateau below a cliff (it must
    /// shadow-partition) beside one on a flat curve (it must not).
    fn plan() -> CachePlan {
        let sizes: Vec<f64> = (0..=16).map(|i| i as f64 * 64.0).collect();
        let cliff: Vec<f64> = sizes
            .iter()
            .map(|&s| if s < 512.0 { 10.0 } else { 1.0 })
            .collect();
        let cliff = MissCurve::from_samples(&sizes, &cliff).unwrap();
        let flat = MissCurve::from_samples(&sizes, &[2.0; 17]).unwrap();
        Planner::new(64).plan(&[cliff, flat], 256, 0).unwrap()
    }

    fn summary(plan: &CachePlan) -> SnapshotSummary {
        // A cache id only comes from a plane; register one to borrow it.
        let plane = talus_serve::ShardedReconfigService::new(1);
        let cache = plane.register(talus_serve::CacheSpec::new(256, 2));
        SnapshotSummary::from(&PlanSnapshot {
            cache,
            epoch: 1,
            version: 1,
            updates: 2,
            plan: plan.clone(),
        })
    }

    #[test]
    fn identical_plans_match() {
        let p = plan();
        assert!(p.tenants.iter().any(|t| t.plan.shadow().is_some()));
        assert!(plan_matches(&p, &summary(&p)));
    }

    #[test]
    fn one_flipped_bit_is_caught() {
        let p = plan();
        let mut s = summary(&p);
        let shadow = s
            .tenants
            .iter_mut()
            .find_map(|t| t.shadow.as_mut())
            .expect("the cliff tenant shadow-partitions");
        shadow.rho = f64::from_bits(shadow.rho.to_bits() ^ 1);
        assert!(!plan_matches(&p, &s));

        let mut s = summary(&p);
        s.tenants[0].capacity += 64;
        assert!(!plan_matches(&p, &s));

        let mut s = summary(&p);
        s.tenants.iter_mut().for_each(|t| t.shadow = None);
        assert!(!plan_matches(&p, &s));
    }
}
