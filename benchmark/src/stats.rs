//! Order statistics for timing samples.
//!
//! End-to-end timings are the fast decile over repeats ([`undisturbed`])
//! on the compute-bound workloads and the median on the two daemon ones;
//! per-layer timings are medians. A tail percentile is reported only when
//! at least [`MIN_BEYOND`] samples lie beyond it, so a "p90" is never one
//! outlier's value.

/// Samples that must lie beyond a reported tail percentile.
pub const MIN_BEYOND: usize = 10;

/// The `q`-quantile (`0.0..=1.0`) of `samples`, linearly interpolated
/// between order statistics. `None` for an empty slice.
pub fn quantile(samples: &[f64], q: f64) -> Option<f64> {
    if samples.is_empty() {
        return None;
    }
    let mut s = samples.to_vec();
    s.sort_by(|a, b| a.partial_cmp(b).expect("timing samples are never NaN"));
    let pos = q.clamp(0.0, 1.0) * (s.len() - 1) as f64;
    let (lo, hi) = (pos.floor() as usize, pos.ceil() as usize);
    Some(s[lo] + (s[hi] - s[lo]) * (pos - lo as f64))
}

/// The median, or 0 when there are no samples (a layer that did no work).
pub fn median(samples: &[f64]) -> f64 {
    quantile(samples, 0.5).unwrap_or(0.0)
}

/// The fast decile of repeat times: the estimate of how long one repeat
/// takes when the host leaves it alone.
///
/// On a shared host a disturbance only ever adds time, and it comes in
/// episodes that can cover most of a run, so the median of a run's
/// repeats moves with the weather; the repeats that escaped it do not.
/// Measured over eight ten-second windows of one long run, scaled to
/// reference-host seconds: the median drifts 2.4-4.2 % between windows,
/// the fast decile 1.1-1.8 %, and the minimum 3.6-8.4 % (it picks up the
/// calibration's own low outliers, which a decile of 15-80 samples does
/// not).
pub fn undisturbed(samples: &[f64]) -> f64 {
    quantile(samples, 0.10).unwrap_or(0.0)
}

/// `p`-th percentile (`0..100`) if at least [`MIN_BEYOND`] samples lie
/// beyond it, else `None`.
pub fn tail(samples: &[f64], p: f64) -> Option<f64> {
    // Samples at or below the percentile, rounded up; the epsilon keeps
    // 100 x 0.9 from landing a hair above 90.
    let within = (samples.len() as f64 * p / 100.0 - 1e-9).ceil() as usize;
    let beyond = samples.len().saturating_sub(within);
    (beyond >= MIN_BEYOND).then(|| quantile(samples, p / 100.0).expect("non-empty"))
}

/// Quartiles as Python's `statistics.quantiles(values, n=4)` gives them
/// (the "exclusive" method), so spreads computed here match the ones the
/// acceptance procedure computes. Needs at least two samples.
pub fn quartiles(samples: &[f64]) -> Option<(f64, f64, f64)> {
    let n = samples.len();
    if n < 2 {
        return None;
    }
    let mut s = samples.to_vec();
    s.sort_by(|a, b| a.partial_cmp(b).expect("timing samples are never NaN"));
    let at = |k: usize| {
        // Position k*(n+1)/4 in 1-based order statistics, clamped.
        let pos = k as f64 * (n + 1) as f64 / 4.0;
        let j = (pos.floor() as usize).clamp(1, n - 1);
        let frac = pos - j as f64;
        s[j - 1] + (s[j] - s[j - 1]) * frac
    };
    Some((at(1), at(2), at(3)))
}

/// Interquartile range as a share of the median — the run-to-run spread
/// a metric's bound is judged against.
pub fn spread(samples: &[f64]) -> Option<f64> {
    let (q1, q2, q3) = quartiles(samples)?;
    (q2 != 0.0).then(|| (q3 - q1) / q2.abs())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_and_quantiles_interpolate() {
        assert_eq!(median(&[]), 0.0);
        assert_eq!(median(&[3.0]), 3.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
        assert_eq!(quantile(&[1.0, 2.0, 3.0, 4.0, 5.0], 0.25), Some(2.0));
        assert_eq!(quantile(&[1.0, 2.0], 1.0), Some(2.0));
        // Eleven samples: the fast decile is the second smallest.
        let s: Vec<f64> = (0..=10).rev().map(f64::from).collect();
        assert_eq!(undisturbed(&s), 1.0);
        assert_eq!(undisturbed(&[]), 0.0);
    }

    #[test]
    fn tail_needs_ten_samples_beyond() {
        let s: Vec<f64> = (1..=100).map(f64::from).collect();
        // 100 samples: exactly 10 lie beyond p90, 5 beyond p95.
        assert!(tail(&s, 90.0).is_some());
        assert!(tail(&s, 95.0).is_none());
        assert!(tail(&s[..99], 90.0).is_none());
        let v = tail(&s, 90.0).unwrap();
        assert!((v - 90.1).abs() < 1e-9, "{v}");
    }

    #[test]
    fn quartiles_match_python_statistics() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        let s: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&s), Some((2.75, 5.5, 8.25)));
        // statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
        assert_eq!(quartiles(&[2.0, 1.0]), Some((0.75, 1.5, 2.25)));
        assert_eq!(quartiles(&[1.0]), None);
        assert_eq!(spread(&s), Some(5.5 / 5.5));
    }
}
