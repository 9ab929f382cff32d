//! Medians, quartiles and the batch timing loop every number goes through.

use std::time::Instant;

/// Median of `values` (mean of the middle two for an even count).
///
/// # Panics
/// Panics on an empty slice: a metric with no samples is a bug in the
/// workload, not a value to report.
pub fn median(values: &[f64]) -> f64 {
    assert!(!values.is_empty(), "median of no samples");
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

/// First quartile, median and third quartile as Python's
/// `statistics.quantiles(values, n=4)` computes them (the rule the
/// driver applies), so `compare` and the driver agree on a spread.
pub fn quartiles(values: &[f64]) -> [f64; 3] {
    assert!(values.len() >= 2, "quartiles need two samples");
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let ld = v.len();
    let m = ld + 1;
    let mut out = [0.0; 3];
    for (slot, i) in out.iter_mut().zip(1..4usize) {
        let j = (i * m / 4).clamp(1, ld - 1);
        let delta = (i * m) as f64 - (j * 4) as f64;
        *slot = (v[j - 1] * (4.0 - delta) + v[j] * delta) / 4.0;
    }
    out
}

/// Distance between the quartiles as a share of the median.
pub fn spread(values: &[f64]) -> f64 {
    let [q1, q2, q3] = quartiles(values);
    (q3 - q1) / q2
}

/// Mean nanoseconds per call of `op` over each of `batches` batches of
/// `iters` calls.
pub fn batch_means_ns(batches: usize, iters: usize, mut op: impl FnMut()) -> Vec<f64> {
    (0..batches)
        .map(|_| {
            let t0 = Instant::now();
            for _ in 0..iters {
                op();
            }
            t0.elapsed().as_nanos() as f64 / iters as f64
        })
        .collect()
}

/// Median of [`batch_means_ns`] after one untimed warm-up batch.
pub fn median_ns(batches: usize, iters: usize, mut op: impl FnMut()) -> f64 {
    for _ in 0..iters {
        op();
    }
    median(&batch_means_ns(batches, iters, op))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quartiles_match_python_exclusive_method() {
        // statistics.quantiles([1,2,3,4,5,6,7,8,9,10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&v), [2.75, 5.5, 8.25]);
        // statistics.quantiles([3, 1, 2], n=4) == [1.0, 2.0, 3.0]
        assert_eq!(quartiles(&[3.0, 1.0, 2.0]), [1.0, 2.0, 3.0]);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
    }
}
