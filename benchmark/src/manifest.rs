//! The benchmark's contract: workload names, metric names, units,
//! directions and regression bounds. `BENCHMARK.json` at the repo root
//! is this module printed (`talus-benchmark --manifest`); `selfcheck.sh`
//! fails if the two drift apart.

use std::fmt::Write as _;

/// Seconds of measured cycle time per run.
pub const RUN_SECONDS: u64 = 15;

/// Workloads and why each exists.
pub const WORKLOADS: [(&str, &str); 4] = [
    (
        "plane_local",
        "Planner + shard registry/dedup + snapshot publish do all the work; wire, journal and curve production do none",
    ),
    (
        "plane_rpc_journal",
        "same op mix through RpcClient, loopback, RpcServer and a journaling Store: wire codec, syscalls and journal append dominate; restore reads back what it wrote",
    ),
    (
        "producer_fed",
        "curves produced in the loop by SampledMattson monitors and the analytic model: curve production dominates, the plane is a few percent",
    ),
    (
        "sim_paper",
        "the paper's evaluation on the host: Talus sweeps, exact-LRU reference and an 8-app mix; sim and multicore do all the work, serve and store none",
    ),
];

/// Profiles × schemes × grid of the `sim_paper` sweep; also the tail of
/// the `sim.talus_cache.miss_rate.*` metric names.
pub const SWEEP_PROFILES: [(&str, [u32; 8]); 2] = [
    ("libquantum", [4, 8, 12, 16, 20, 24, 28, 36]),
    ("mcf", [2, 4, 8, 12, 16, 20, 24, 32]),
];
pub const SWEEP_SCHEMES: [&str; 2] = ["vantage_lru", "way_srrip"];

#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    pub name: String,
    pub unit: &'static str,
    pub better: &'static str,
    /// Share of the parent's median by which the metric may worsen
    /// (end-to-end metrics only).
    pub bound: Option<f64>,
}

fn metric(name: &str, unit: &'static str, better: &'static str) -> Metric {
    Metric {
        name: name.to_string(),
        unit,
        better,
        bound: None,
    }
}

/// Name of one simulated Talus miss-rate metric.
pub fn miss_rate_metric(profile: &str, scheme: &str, mb: u32) -> String {
    format!("sim.talus_cache.miss_rate.{profile}.{scheme}.{mb}")
}

/// The metrics every workload reports from its untraced run.
pub fn end_to_end() -> Vec<Metric> {
    let bounded = |name, unit, better, bound| Metric {
        bound: Some(bound),
        ..metric(name, unit, better)
    };
    vec![
        // Timings carry the widest bound the contract allows: across
        // ten seeds on the sizing box their spreads (IQR over median)
        // measured 0.03–0.19 depending on the hour (see README).
        bounded("setup_s", "s", "lower", 0.25),
        bounded("plans_per_s", "1/s", "higher", 0.25),
        bounded("publish_latency_p50_us", "us", "lower", 0.25),
        bounded("publish_latency_p90_us", "us", "lower", 0.25),
        bounded("peak_rss_mb", "MB", "lower", 0.15),
    ]
}

/// The metrics every workload reports from its traced run. A layer a
/// workload never reaches reads 0 there.
pub fn per_layer() -> Vec<Metric> {
    let mut m = vec![
        metric("core.hull.us_per_curve", "us", "lower"),
        metric("partition.planner.plan_us", "us", "lower"),
        metric("partition.planner.plans", "count", "higher"),
        metric("serve.plane.submit_ns", "ns", "lower"),
        metric("serve.plane.submit_dup_ns", "ns", "lower"),
        metric("serve.plane.dedup_noop_share", "share", "lower"),
        metric("serve.plane.run_epoch_us", "us", "lower"),
        metric("serve.plane.epoch_overhead_us", "us", "lower"),
        metric("serve.plane.snapshot_ns", "ns", "lower"),
        metric("serve.plane.plans_per_epoch", "count", "higher"),
        metric("serve.plane.deferred", "count", "lower"),
        metric("serve.wire.encode_request_us", "us", "lower"),
        metric("serve.wire.decode_request_us", "us", "lower"),
        metric("serve.wire.encode_response_us", "us", "lower"),
        metric("serve.wire.decode_response_us", "us", "lower"),
        metric("serve.wire.cycle_us", "us", "lower"),
        metric("serve.wire.bytes_per_submission", "B", "lower"),
        metric("serve.rpc.flush_us", "us", "lower"),
        metric("serve.rpc.run_epoch_us", "us", "lower"),
        metric("serve.rpc.report_us", "us", "lower"),
        metric("serve.rpc.transport_us", "us", "lower"),
        metric("serve.rpc.round_trips", "count", "lower"),
        metric("serve.rpc.retries", "count", "lower"),
        metric("serve.rpc.busy", "count", "lower"),
        metric("store.append_curve_us", "us", "lower"),
        metric("store.append_plan_us", "us", "lower"),
        metric("store.bytes_per_submission", "B", "lower"),
        metric("store.records", "count", "lower"),
        metric("store.open_s", "s", "lower"),
        metric("store.restore_s", "s", "lower"),
        metric("store.restore_us_per_record", "us", "lower"),
        metric("workloads.generate_ns_per_access", "ns", "lower"),
        metric("workloads.analytic.curve_us", "us", "lower"),
        metric("sim.monitor.record_ns_per_access", "ns", "lower"),
        metric("sim.monitor.curve_us", "us", "lower"),
        metric("sim.monitor.sampled_share", "share", "lower"),
        metric("sim.talus_cache.access_ns", "ns", "lower"),
        metric("sim.talus_cache.reconfigurations", "count", "higher"),
        metric("experiments.lru_curve_s", "s", "lower"),
        metric("multicore.run_mix_s", "s", "lower"),
        metric("multicore.ns_per_access", "ns", "lower"),
        metric("multicore.llc_accesses", "count", "higher"),
        metric("sim.stats_digest", "count", "higher"),
        metric("publish_latency_p99_us", "us", "lower"),
        metric("cycle_us_p50", "us", "lower"),
        metric("trace.overhead_share", "share", "lower"),
        metric("trace.unattributed_share", "share", "lower"),
        // Results of one workload only. The contract wants every
        // end-to-end metric from every workload, so these are listed
        // here and gated by selfcheck.sh instead (see README).
        metric("restore_records_per_s", "1/s", "higher"),
        metric("journal_bytes_per_submission", "B", "lower"),
        metric("wire_bytes_per_submission", "B", "lower"),
        metric("sim_accesses_per_s", "1/s", "higher"),
        metric("talus_hull_gap_max", "misses/access", "lower"),
        metric("mix_weighted_speedup", "ratio", "higher"),
        metric("failed_share", "share", "lower"),
    ];
    for (profile, grid) in SWEEP_PROFILES {
        for scheme in SWEEP_SCHEMES {
            for mb in grid {
                m.push(metric(
                    &miss_rate_metric(profile, scheme, mb),
                    "misses/access",
                    "lower",
                ));
            }
        }
    }
    m
}

/// `BENCHMARK.json`, exactly as committed at the repo root.
pub fn manifest_json() -> String {
    let mut out = String::from("{\n");
    out.push_str("  \"command\": [\"bash\", \"benchmark/run.sh\"],\n");
    out.push_str("  \"paths\": [\"benchmark\"],\n");
    let _ = writeln!(out, "  \"run_seconds\": {RUN_SECONDS},");
    out.push_str("  \"workloads\": [\n");
    for (i, (name, why)) in WORKLOADS.iter().enumerate() {
        let comma = if i + 1 < WORKLOADS.len() { "," } else { "" };
        let _ = writeln!(
            out,
            "    {{\"name\": \"{name}\", \"why\": \"{why}\"}}{comma}"
        );
    }
    out.push_str("  ],\n  \"end_to_end\": [\n");
    let e2e = end_to_end();
    for (i, m) in e2e.iter().enumerate() {
        let comma = if i + 1 < e2e.len() { "," } else { "" };
        let _ = writeln!(
            out,
            "    {{\"name\": \"{}\", \"unit\": \"{}\", \"better\": \"{}\", \"bound\": {}}}{comma}",
            m.name,
            m.unit,
            m.better,
            m.bound.expect("end-to-end metrics carry a bound")
        );
    }
    out.push_str("  ],\n  \"per_layer\": [\n");
    let layers = per_layer();
    for (i, m) in layers.iter().enumerate() {
        let comma = if i + 1 < layers.len() { "," } else { "" };
        let _ = writeln!(
            out,
            "    {{\"name\": \"{}\", \"unit\": \"{}\", \"better\": \"{}\"}}{comma}",
            m.name, m.unit, m.better
        );
    }
    out.push_str("  ]\n}\n");
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashSet;

    fn name_ok(name: &str) -> bool {
        name.len() <= 64
            && name
                .chars()
                .next()
                .is_some_and(|c| c.is_ascii_alphanumeric())
            && name
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c))
    }

    #[test]
    fn manifest_stays_inside_the_contract_limits() {
        let e2e = end_to_end();
        let layers = per_layer();
        assert!((1..=16).contains(&e2e.len()));
        assert!((1..=128).contains(&layers.len()), "{}", layers.len());
        assert!((2..=8).contains(&WORKLOADS.len()));
        let mut seen = HashSet::new();
        for m in e2e.iter().chain(&layers) {
            assert!(name_ok(&m.name), "bad name {}", m.name);
            assert!(seen.insert(m.name.clone()), "{} used twice", m.name);
            assert!(m.unit.len() <= 16 && !m.unit.is_empty());
            assert!(m
                .unit
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c)));
            assert!(m.better == "lower" || m.better == "higher");
        }
        for (name, why) in WORKLOADS {
            assert!(name_ok(name) && seen.insert(name.to_string()));
            assert!(why.len() <= 200 && !why.contains('\n'), "{name}");
        }
        assert!(e2e.iter().all(|m| m.bound.is_some_and(|b| b <= 0.25)));
        let setup = e2e.iter().find(|m| m.name == "setup_s").expect("setup_s");
        assert_eq!((setup.unit, setup.better), ("s", "lower"));
        assert!(manifest_json().len() < 64 * 1024);
        assert!((1..=60).contains(&RUN_SECONDS));
    }
}
