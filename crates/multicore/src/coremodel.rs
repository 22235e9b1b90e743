//! Analytic core model: MPKI → IPC.
//!
//! The paper simulates Silvermont-like OOO cores in zsim. This substrate
//! replaces them with the standard first-order analytic model used in
//! cache-partitioning studies:
//!
//! ```text
//! CPI = CPI_base + MPKI/1000 × mem_latency × blocking_factor
//! ```
//!
//! `CPI_base` comes from each profile's `base_ipc` (the IPC with a perfect
//! LLC); the blocking factor models how much of the memory latency a
//! modest OOO core fails to hide (memory-level parallelism). The model is
//! *monotone* in MPKI, which is the property all of the paper's
//! comparative claims need: fewer misses ⇒ more IPC, with diminishing
//! returns preserved. See DESIGN.md's substitution table.

use talus_workloads::AppProfile;

/// Analytic MPKI→IPC converter.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CoreModel {
    /// Main-memory latency in cycles.
    pub mem_latency_cycles: f64,
    /// Fraction of the miss latency that stalls the core (1 = fully
    /// blocking in-order; Silvermont-like 2-wide OOO hides a modest part).
    pub blocking_factor: f64,
}

impl CoreModel {
    /// The default model: 200-cycle memory, 0.7 blocking factor.
    pub fn new() -> Self {
        CoreModel {
            mem_latency_cycles: 200.0,
            blocking_factor: 0.7,
        }
    }

    /// Model with an explicit memory latency.
    pub fn with_latency(mut self, cycles: f64) -> Self {
        self.mem_latency_cycles = cycles;
        self
    }

    /// IPC of `app` when its LLC misses at `mpki`.
    ///
    /// # Panics
    ///
    /// Panics if `mpki` is negative.
    pub fn ipc(&self, app: &AppProfile, mpki: f64) -> f64 {
        assert!(mpki >= 0.0, "MPKI must be non-negative");
        let base_cpi = 1.0 / app.base_ipc;
        let stall_cpi = mpki / 1000.0 * self.mem_latency_cycles * self.blocking_factor;
        1.0 / (base_cpi + stall_cpi)
    }

    /// Cycles for `app` to execute `instructions` at the given MPKI.
    pub fn cycles(&self, app: &AppProfile, mpki: f64, instructions: f64) -> f64 {
        instructions / self.ipc(app, mpki)
    }
}

impl Default for CoreModel {
    fn default() -> Self {
        Self::new()
    }
}

/// Weighted speedup over a baseline: `Σᵢ (IPCᵢ / IPC_base,ᵢ) / N`
/// (paper §VII-A). Accounts for throughput and, partially, fairness.
///
/// # Panics
///
/// Panics if the slices differ in length, are empty, or a baseline IPC is
/// not positive.
pub fn weighted_speedup(ipcs: &[f64], baseline: &[f64]) -> f64 {
    assert_eq!(ipcs.len(), baseline.len(), "need matching IPC vectors");
    assert!(!ipcs.is_empty(), "need at least one app");
    assert!(
        baseline.iter().all(|&b| b > 0.0),
        "baseline IPCs must be positive"
    );
    let sum: f64 = ipcs.iter().zip(baseline).map(|(i, b)| i / b).sum();
    sum / ipcs.len() as f64
}

/// Harmonic speedup over a baseline: `N / Σᵢ (IPC_base,ᵢ / IPCᵢ)`
/// (paper §VII-A; emphasises fairness).
///
/// # Panics
///
/// Same conditions as [`weighted_speedup`], plus non-positive IPCs.
pub fn harmonic_speedup(ipcs: &[f64], baseline: &[f64]) -> f64 {
    assert_eq!(ipcs.len(), baseline.len(), "need matching IPC vectors");
    assert!(!ipcs.is_empty(), "need at least one app");
    assert!(ipcs.iter().all(|&i| i > 0.0), "IPCs must be positive");
    let sum: f64 = ipcs.iter().zip(baseline).map(|(i, b)| b / i).sum();
    ipcs.len() as f64 / sum
}

/// Coefficient of variation of per-core IPC (paper Fig. 13's unfairness
/// metric): standard deviation divided by mean. Zero = perfectly fair.
///
/// # Panics
///
/// Panics if `ipcs` is empty or the mean is zero.
pub fn coefficient_of_variation(ipcs: &[f64]) -> f64 {
    assert!(!ipcs.is_empty(), "need at least one IPC");
    let n = ipcs.len() as f64;
    let mean = ipcs.iter().sum::<f64>() / n;
    assert!(mean > 0.0, "mean IPC must be positive");
    let var = ipcs.iter().map(|&x| (x - mean) * (x - mean)).sum::<f64>() / n;
    var.sqrt() / mean
}

/// Geometric mean of a slice of positive values (used for figure
/// summaries).
///
/// # Panics
///
/// Panics if `values` is empty or contains non-positive entries.
pub fn gmean(values: &[f64]) -> f64 {
    assert!(!values.is_empty(), "need at least one value");
    assert!(
        values.iter().all(|&v| v > 0.0),
        "gmean needs positive values"
    );
    (values.iter().map(|v| v.ln()).sum::<f64>() / values.len() as f64).exp()
}

#[cfg(test)]
mod tests {
    use super::*;
    use talus_workloads::profile;

    #[test]
    fn zero_mpki_gives_base_ipc() {
        let m = CoreModel::new();
        let app = profile("mcf").unwrap();
        assert!((m.ipc(&app, 0.0) - app.base_ipc).abs() < 1e-12);
    }

    #[test]
    fn ipc_is_monotone_decreasing_in_mpki() {
        let m = CoreModel::new();
        let app = profile("libquantum").unwrap();
        let mut prev = f64::INFINITY;
        for mpki in [0.0, 1.0, 5.0, 10.0, 20.0, 33.0] {
            let ipc = m.ipc(&app, mpki);
            assert!(ipc < prev);
            assert!(ipc > 0.0);
            prev = ipc;
        }
    }

    #[test]
    fn heavy_missing_is_memory_bound() {
        // At 33 MPKI × 200 cycles × 0.7 ≈ 4.6 CPI of stalls, IPC collapses.
        let m = CoreModel::new();
        let app = profile("libquantum").unwrap();
        let ipc = m.ipc(&app, 33.0);
        assert!(ipc < 0.25, "got {ipc}");
    }

    #[test]
    fn cycles_scale_with_instructions() {
        let m = CoreModel::new();
        let app = profile("gcc").unwrap();
        let c1 = m.cycles(&app, 2.0, 1e6);
        let c2 = m.cycles(&app, 2.0, 2e6);
        assert!((c2 / c1 - 2.0).abs() < 1e-12);
    }

    #[test]
    fn speedup_metrics_identity() {
        let ipcs = [1.0, 2.0, 0.5];
        assert!((weighted_speedup(&ipcs, &ipcs) - 1.0).abs() < 1e-12);
        assert!((harmonic_speedup(&ipcs, &ipcs) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn weighted_speedup_averages_ratios() {
        let base = [1.0, 1.0];
        let now = [2.0, 1.0];
        assert!((weighted_speedup(&now, &base) - 1.5).abs() < 1e-12);
        // Harmonic penalises imbalance: below the arithmetic 1.5.
        let h = harmonic_speedup(&now, &base);
        assert!(h < 1.5 && h > 1.0);
        assert!((h - 4.0 / 3.0).abs() < 1e-12);
    }

    #[test]
    fn cov_zero_for_equal_ipcs() {
        assert_eq!(coefficient_of_variation(&[1.0, 1.0, 1.0]), 0.0);
        let cov = coefficient_of_variation(&[1.0, 3.0]);
        assert!((cov - 0.5).abs() < 1e-12);
    }

    #[test]
    fn gmean_of_constant_is_constant() {
        assert!((gmean(&[2.0, 2.0, 2.0]) - 2.0).abs() < 1e-12);
        assert!((gmean(&[1.0, 4.0]) - 2.0).abs() < 1e-12);
    }

    #[test]
    #[should_panic(expected = "non-negative")]
    fn negative_mpki_rejected() {
        CoreModel::new().ipc(&profile("gcc").unwrap(), -1.0);
    }
}
