//! Order statistics the benchmark reports: medians, the driver's quartile
//! spread, and the "highest percentile with ten samples beyond it" rule.

/// Ascending copy of `values`.
///
/// # Panics
///
/// Panics on NaN: every sample is a measured duration or count.
pub fn sorted(values: &[f64]) -> Vec<f64> {
    let mut v = values.to_vec();
    v.sort_by(|a, b| a.partial_cmp(b).expect("samples are never NaN"));
    v
}

/// Median of unsorted samples (mean of the middle pair for even counts);
/// `0.0` for no samples.
pub fn median(values: &[f64]) -> f64 {
    let v = sorted(values);
    match v.len() {
        0 => 0.0,
        n if n % 2 == 1 => v[n / 2],
        n => (v[n / 2 - 1] + v[n / 2]) / 2.0,
    }
}

/// Nearest rank of a percentile given in hundredths of a percent
/// (`9990` = p99.9) among `n` samples — integer arithmetic, so the rank
/// never depends on how a decimal percentile rounds in binary.
fn nearest_rank(n: usize, hundredths: usize) -> usize {
    (n * hundredths).div_ceil(10_000).clamp(1, n.max(1))
}

/// Nearest-rank percentile, `hundredths` of a percent (`5000` = median),
/// of ascending samples; `0.0` for no samples.
pub fn percentile_sorted(sorted: &[f64], hundredths: usize) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    sorted[nearest_rank(sorted.len(), hundredths) - 1]
}

/// The tail percentiles the benchmark may report, in hundredths of a
/// percent, lowest first.
pub const TAIL_PERCENTILES: [usize; 5] = [9_000, 9_500, 9_900, 9_990, 9_999];

/// The highest of [`TAIL_PERCENTILES`] that still has at least ten samples
/// strictly beyond its nearest rank, as `(percent, value)` — `None` when
/// even p90 is resolved by fewer than ten samples (under 100 samples).
pub fn tail_percentile(values: &[f64]) -> Option<(f64, f64)> {
    let v = sorted(values);
    TAIL_PERCENTILES
        .iter()
        .rev()
        .find(|&&p| v.len().saturating_sub(nearest_rank(v.len(), p)) >= 10)
        .map(|&p| (p as f64 / 100.0, percentile_sorted(&v, p)))
}

/// First, second and third quartile exactly as Python's
/// `statistics.quantiles(values, n=4)` (the default *exclusive* method)
/// computes them — the rule the driver's acceptance check uses.
///
/// # Panics
///
/// Panics with fewer than two samples (Python raises there too).
pub fn quartiles(values: &[f64]) -> [f64; 3] {
    let v = sorted(values);
    let n = v.len();
    assert!(n >= 2, "quartiles need at least two samples");
    let m = n + 1;
    let mut out = [0.0; 3];
    for (slot, i) in out.iter_mut().zip(1..=3usize) {
        let j = (i * m / 4).clamp(1, n - 1);
        let delta = (i * m) as f64 - (j * 4) as f64;
        *slot = (v[j - 1] * (4.0 - delta) + v[j] * delta) / 4.0;
    }
    out
}

/// Inter-quartile distance as a share of the median — the spread the
/// driver holds each end-to-end metric's bound against.
pub fn quartile_spread(values: &[f64]) -> f64 {
    let [q1, q2, q3] = quartiles(values);
    if q2 == 0.0 {
        0.0
    } else {
        (q3 - q1) / q2.abs()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_of_odd_and_even_counts() {
        assert_eq!(median(&[]), 0.0);
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
    }

    #[test]
    fn tail_percentile_needs_ten_samples_beyond() {
        let ramp = |n: usize| (1..=n).map(|i| i as f64).collect::<Vec<_>>();
        // 99 samples: p90's rank is 90, leaving nine beyond it.
        assert_eq!(tail_percentile(&ramp(99)), None);
        // 100 samples: p90 leaves exactly ten, p95 only five.
        assert_eq!(tail_percentile(&ramp(100)), Some((90.0, 90.0)));
        assert_eq!(tail_percentile(&ramp(200)), Some((95.0, 190.0)));
        // 1 000 samples: p99 leaves ten, p99.9 one.
        assert_eq!(tail_percentile(&ramp(1_000)), Some((99.0, 990.0)));
        assert_eq!(tail_percentile(&ramp(48_000)), Some((99.9, 47_952.0)));
        assert_eq!(tail_percentile(&ramp(100_000)), Some((99.99, 99_990.0)));
    }

    #[test]
    fn quartiles_match_python_exclusive_method() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        let ten: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&ten), [2.75, 5.5, 8.25]);
        // statistics.quantiles([1, 2, 4, 8, 16], n=4) == [1.5, 4.0, 12.0]
        assert_eq!(quartiles(&[16.0, 1.0, 8.0, 2.0, 4.0]), [1.5, 4.0, 12.0]);
        // statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
        assert_eq!(quartiles(&[1.0, 2.0]), [0.75, 1.5, 2.25]);
        assert!((quartile_spread(&ten) - 1.0).abs() < 1e-12);
    }
}
