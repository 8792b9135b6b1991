//! The benchmark's arithmetic: medians, percentiles with the
//! ten-samples-beyond rule, geometric means, quartiles.
//!
//! Every end-to-end value is the median of the window's segment values, so
//! one noisy segment cannot move a result; every percentile is reported only
//! when the sample supports it.

/// Samples that must lie beyond a percentile before it is reported.
pub const MIN_BEYOND: usize = 10;

/// Median of `values` (mean of the two middle elements for even counts).
/// `None` for an empty slice.
pub fn median(values: &[f64]) -> Option<f64> {
    if values.is_empty() {
        return None;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let mid = v.len() / 2;
    Some(if v.len() % 2 == 1 {
        v[mid]
    } else {
        (v[mid - 1] + v[mid]) / 2.0
    })
}

/// The `q`-quantile (0 < q < 1) of `sorted` by nearest rank, or `None` when
/// fewer than [`MIN_BEYOND`] samples lie beyond it — a p99 of 200 samples
/// is two samples' opinion, not a percentile.
pub fn percentile(sorted: &[u32], q: f64) -> Option<f64> {
    let n = sorted.len();
    if n == 0 {
        return None;
    }
    let rank = ((q * n as f64).ceil() as usize).clamp(1, n);
    if q > 0.5 && n - rank < MIN_BEYOND {
        return None;
    }
    Some(f64::from(sorted[rank - 1]))
}

/// Geometric mean of strictly positive `values`; `None` when empty or when
/// any value is not positive (a zero time is a measurement error, not data).
pub fn geomean(values: &[f64]) -> Option<f64> {
    if values.is_empty() || values.iter().any(|v| v.is_nan() || *v <= 0.0) {
        return None;
    }
    Some((values.iter().map(|v| v.ln()).sum::<f64>() / values.len() as f64).exp())
}

/// First quartile, median and third quartile by the "exclusive" method —
/// the same cut points Python's `statistics.quantiles(values, n=4)` gives,
/// which is what the driver computes spreads from. Needs two values.
pub fn quartiles(values: &[f64]) -> Option<[f64; 3]> {
    let n = values.len();
    if n < 2 {
        return None;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let cut = |i: usize| {
        let pos = i * (n + 1);
        let j = (pos / 4).clamp(1, n - 1);
        let delta = pos as f64 / 4.0 - j as f64;
        v[j - 1] + (v[j] - v[j - 1]) * delta
    };
    Some([cut(1), cut(2), cut(3)])
}

/// Run-to-run spread: the interquartile distance as a share of the median.
pub fn spread(values: &[f64]) -> Option<f64> {
    let [q1, q2, q3] = quartiles(values)?;
    (q2 != 0.0).then(|| (q3 - q1) / q2.abs())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_handles_odd_even_and_empty() {
        assert_eq!(median(&[]), None);
        assert_eq!(median(&[3.0, 1.0, 2.0]), Some(2.0));
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), Some(2.5));
        // The segment-median rule: one wild segment out of five does not move it.
        assert_eq!(median(&[10.0, 10.2, 9.9, 10.1, 55.0]), Some(10.1));
    }

    #[test]
    fn percentile_needs_ten_samples_beyond() {
        let v: Vec<u32> = (1..=1000).collect();
        assert_eq!(percentile(&v, 0.99), Some(990.0)); // exactly 10 beyond
        let v: Vec<u32> = (1..=999).collect();
        assert_eq!(percentile(&v, 0.99), None); // rank 990 of 999: 9 beyond
        assert_eq!(percentile(&v, 0.50), Some(500.0)); // the median is exempt
        let v: Vec<u32> = (1..=100).collect();
        assert_eq!(percentile(&v, 0.90), Some(90.0));
        assert_eq!(percentile(&v, 0.99), None);
        assert_eq!(percentile(&[], 0.5), None);
    }

    #[test]
    fn geomean_is_scale_free_and_rejects_non_positive() {
        let g = geomean(&[1.0, 100.0]).unwrap();
        assert!((g - 10.0).abs() < 1e-12);
        // Doubling one of four cells moves the geomean by 2^(1/4).
        let a = geomean(&[2.0, 3.0, 5.0, 7.0]).unwrap();
        let b = geomean(&[4.0, 3.0, 5.0, 7.0]).unwrap();
        assert!((b / a - 2f64.powf(0.25)).abs() < 1e-12);
        assert_eq!(geomean(&[1.0, 0.0]), None);
        assert_eq!(geomean(&[]), None);
    }

    #[test]
    fn quartiles_match_python_statistics_quantiles() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&v), Some([2.75, 5.5, 8.25]));
        // statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
        assert_eq!(quartiles(&[2.0, 1.0]), Some([0.75, 1.5, 2.25]));
        assert_eq!(spread(&v), Some(1.0));
        assert_eq!(quartiles(&[1.0]), None);
    }
}
