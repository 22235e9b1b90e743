//! `producer_fed`'s tenant generators hold one Zipf table between them.
//!
//! A binary of its own: the table registry is process-wide, and no other
//! test here builds the `(512 lines, 0.9)` private set, so the reference
//! count below is exact however the tests are scheduled.

use std::sync::Arc;
use talus_sim::mb_to_lines;
use talus_workloads::{multi_tenant, ZipfTable};

#[test]
fn producer_feds_192_tenant_generators_hold_one_zipf_table() {
    // The repo benchmark's shape: 64 caches, each with 3 monitored
    // tenants of `multi_tenant(4)` scaled to the cache.
    let profile = multi_tenant(4).scaled(1.0 / 32.0);
    let private = ZipfTable::shared(mb_to_lines(profile.private_mb), 0.9);
    assert_eq!(private.lines(), 512);
    let gens: Vec<_> = (0..64u64)
        .flat_map(|cache| (0..3).map(move |tenant| (cache, tenant)))
        .map(|(cache, tenant)| profile.tenant_generator(tenant, 1009 + cache))
        .collect();
    assert_eq!(gens.len(), 192);
    assert_eq!(
        Arc::strong_count(&private),
        1 + gens.len() * profile.windows,
        "one table for every phase of every tenant"
    );
    drop(gens);
    assert_eq!(Arc::strong_count(&private), 1);
}
