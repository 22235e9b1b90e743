//! Order statistics for the reported timings.

/// Nearest-rank percentile of an ascending-sorted slice: the smallest
/// sample with at least `p` of the samples at or below it.
///
/// # Panics
///
/// Panics on an empty slice or `p` outside `(0, 1]`.
pub fn percentile<T: Copy>(sorted: &[T], p: f64) -> T {
    assert!(!sorted.is_empty(), "percentile of no samples");
    assert!(p > 0.0 && p <= 1.0, "percentile rank out of range");
    let rank = (p * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// How many samples lie strictly beyond the `p` percentile's rank — a
/// percentile is only reported when at least ten do.
pub fn samples_beyond(n: usize, p: f64) -> usize {
    if n == 0 {
        return 0;
    }
    n - ((p * n as f64).ceil() as usize).clamp(1, n)
}

/// `total − Σ parts`: what a span around an opaque call has left once
/// the replayed costs of its known parts are taken out. Not clamped — a
/// negative residual means the replay overestimates the real call, and
/// hiding that would hide a finding.
pub fn residual(total: f64, parts: &[f64]) -> f64 {
    total - parts.iter().sum::<f64>()
}

/// `num / den`, or 0 when nothing was counted (a layer this workload
/// never reaches reports zero work, not NaN).
pub fn ratio(num: f64, den: f64) -> f64 {
    if den > 0.0 {
        num / den
    } else {
        0.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentile_is_nearest_rank() {
        let v: Vec<u64> = (1..=100).collect();
        assert_eq!(percentile(&v, 0.5), 50);
        assert_eq!(percentile(&v, 0.9), 90);
        assert_eq!(percentile(&v, 0.99), 99);
        assert_eq!(percentile(&v, 1.0), 100);
        assert_eq!(percentile(&[7u64], 0.5), 7);
        assert_eq!(percentile(&[1u64, 2, 3], 0.5), 2);
    }

    #[test]
    fn samples_beyond_counts_the_tail() {
        assert_eq!(samples_beyond(100, 0.9), 10);
        assert_eq!(samples_beyond(100, 0.99), 1);
        assert_eq!(samples_beyond(1000, 0.99), 10);
        assert_eq!(samples_beyond(1, 0.5), 0);
    }

    #[test]
    fn residual_subtracts_and_keeps_sign() {
        assert_eq!(residual(10.0, &[3.0, 4.0]), 3.0);
        assert_eq!(residual(5.0, &[3.0, 4.0]), -2.0);
        assert_eq!(residual(5.0, &[]), 5.0);
    }

    #[test]
    fn ratio_of_nothing_is_zero() {
        assert_eq!(ratio(1.0, 0.0), 0.0);
        assert_eq!(ratio(6.0, 3.0), 2.0);
    }
}
