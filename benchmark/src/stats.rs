//! Order statistics for timing samples.
//!
//! Two different questions are asked of samples here and they get two
//! different functions: [`percentile`] summarises the many per-operation
//! samples of one run and refuses to report a tail it cannot support;
//! [`median`] folds the handful of per-repetition values of one metric.

/// A percentile is only reported when at least this many samples lie
/// beyond it (above for `p >= 0.5`, below otherwise). With fewer, the value
/// is one scheduler hiccup, not a property of the program.
pub const MIN_BEYOND: usize = 10;

/// Nearest-rank percentile `p` in `(0, 1)` of `samples`, or `None` when
/// fewer than [`MIN_BEYOND`] samples lie beyond it (or a sample is NaN).
pub fn percentile(samples: &[f64], p: f64) -> Option<f64> {
    assert!(p > 0.0 && p < 1.0, "percentile must lie strictly in (0, 1)");
    if samples.iter().any(|v| v.is_nan()) {
        return None;
    }
    let n = samples.len();
    // 1-based nearest rank.
    let rank = ((p * n as f64).ceil() as usize).clamp(1, n.max(1));
    let beyond = if p >= 0.5 {
        n.saturating_sub(rank)
    } else {
        rank.saturating_sub(1)
    };
    if beyond < MIN_BEYOND {
        return None;
    }
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    Some(sorted[rank - 1])
}

/// Plain median (mean of the middle pair for an even count); `None` for an
/// empty slice. For per-repetition values, where every value counts.
pub fn median(values: &[f64]) -> Option<f64> {
    if values.is_empty() {
        return None;
    }
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let mid = sorted.len() / 2;
    Some(if sorted.len() % 2 == 1 {
        sorted[mid]
    } else {
        0.5 * (sorted[mid - 1] + sorted[mid])
    })
}

/// Share of `samples` strictly above `limit` (0 for an empty slice).
pub fn share_over(samples: &[f64], limit: f64) -> f64 {
    if samples.is_empty() {
        return 0.0;
    }
    samples.iter().filter(|&&v| v > limit).count() as f64 / samples.len() as f64
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ramp(n: usize) -> Vec<f64> {
        (1..=n).map(|i| i as f64).collect()
    }

    #[test]
    fn percentile_refuses_a_tail_with_fewer_than_ten_samples_beyond_it() {
        // p99 of 999 samples: rank 990, nine beyond -> refused.
        assert_eq!(percentile(&ramp(999), 0.99), None);
        // p99 of 1000 samples: rank 990, ten beyond -> the 990th value.
        assert_eq!(percentile(&ramp(1000), 0.99), Some(990.0));
        // p95 needs 200 samples, the median needs 20.
        assert_eq!(percentile(&ramp(199), 0.95), None);
        assert_eq!(percentile(&ramp(200), 0.95), Some(190.0));
        assert_eq!(percentile(&ramp(19), 0.5), None);
        assert_eq!(percentile(&ramp(20), 0.5), Some(10.0));
        assert_eq!(percentile(&[], 0.5), None);
    }

    #[test]
    fn percentile_is_order_independent_and_rejects_nan() {
        let mut v = ramp(40);
        v.reverse();
        assert_eq!(percentile(&v, 0.5), Some(20.0));
        v[3] = f64::NAN;
        assert_eq!(percentile(&v, 0.5), None);
    }

    #[test]
    fn median_folds_small_sets() {
        assert_eq!(median(&[]), None);
        assert_eq!(median(&[3.0]), Some(3.0));
        assert_eq!(median(&[3.0, 1.0, 2.0]), Some(2.0));
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), Some(2.5));
    }

    #[test]
    fn share_over_counts_strictly_above() {
        assert_eq!(share_over(&[], 1.0), 0.0);
        assert_eq!(share_over(&[1.0, 2.0, 3.0, 4.0], 2.0), 0.5);
    }
}
