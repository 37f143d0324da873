//! The one quantile helper of the benchmark, the "highest supported
//! percentile" rule, and the quartile spread the acceptance check uses.

/// Exact nearest-rank quantile of an ascending-sorted series: the
/// smallest sample with at least `pct` percent of the samples at or
/// below it (rank `ceil(pct/100 * n)`, 1-based). 0 for an empty series.
pub fn quantile_sorted(sorted: &[u64], pct: f64) -> u64 {
    if sorted.is_empty() {
        return 0;
    }
    sorted[rank(pct, sorted.len()) - 1]
}

/// 1-based nearest rank of the `pct`-th percentile among `n` samples.
/// The epsilon keeps 99.9 % of 10,000 at rank 9,990, not one above it
/// by floating-point dust.
fn rank(pct: f64, n: usize) -> usize {
    let exact = pct * n as f64 / 100.0;
    ((exact - 1e-9).ceil() as usize).clamp(1, n.max(1))
}

/// Sorts `samples` in place and returns its nearest-rank quantile.
pub fn quantile(samples: &mut [u64], pct: f64) -> u64 {
    samples.sort_unstable();
    quantile_sorted(samples, pct)
}

/// Percentiles a timing may be reported at, ascending.
pub const LADDER: [f64; 6] = [50.0, 75.0, 90.0, 95.0, 99.0, 99.9];

/// The highest percentile of [`LADDER`] that still has at least ten
/// samples beyond it in a series of `n` samples (the choosing-metrics
/// rule); the median when even p75 is unsupported.
pub fn highest_supported_pct(n: usize) -> f64 {
    let mut best = LADDER[0];
    for &p in &LADDER {
        if n >= rank(p, n) + 10 {
            best = p;
        }
    }
    best
}

/// Median of a float series (mean of the middle two when even).
pub fn median_f(values: &[f64]) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    match v.len() {
        0 => 0.0,
        n if n % 2 == 1 => v[n / 2],
        n => (v[n / 2 - 1] + v[n / 2]) / 2.0,
    }
}

/// First and third quartile as Python's `statistics.quantiles(v, n=4)`
/// (the default "exclusive" method) gives them. Needs two values.
pub fn quartiles(values: &[f64]) -> Option<(f64, f64)> {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n < 2 {
        return None;
    }
    let cut = |i: usize| {
        let j = (i * (n + 1) / 4).clamp(1, n - 1);
        let delta = (i * (n + 1)) as f64 - (j * 4) as f64;
        (v[j - 1] * (4.0 - delta) + v[j] * delta) / 4.0
    };
    Some((cut(1), cut(3)))
}

/// Interquartile distance as a share of the median: the spread the
/// driver holds against a metric's bound.
pub fn spread(values: &[f64]) -> f64 {
    let med = median_f(values);
    match quartiles(values) {
        Some((q1, q3)) if med != 0.0 => (q3 - q1) / med.abs(),
        _ => 0.0,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_is_exact() {
        let s: Vec<u64> = (1..=100).collect();
        assert_eq!(quantile_sorted(&s, 50.0), 50);
        assert_eq!(quantile_sorted(&s, 99.0), 99);
        assert_eq!(quantile_sorted(&s, 99.9), 100);
        assert_eq!(quantile_sorted(&s, 0.0), 1);
        assert_eq!(quantile_sorted(&s, 100.0), 100);
        assert_eq!(quantile_sorted(&[], 50.0), 0);
        let mut odd = vec![5, 1, 3, 2, 4];
        assert_eq!(quantile(&mut odd, 50.0), 3);
        assert_eq!(quantile(&mut odd, 95.0), 5);
        let mut two = vec![9, 7];
        assert_eq!(quantile(&mut two, 50.0), 7);
    }

    #[test]
    fn highest_percentile_keeps_ten_samples_beyond() {
        // Nothing above the median is supported on a short series.
        assert_eq!(highest_supported_pct(12), 50.0);
        assert_eq!(highest_supported_pct(39), 50.0);
        // p75 of 40 is rank 30: exactly ten beyond.
        assert_eq!(highest_supported_pct(40), 75.0);
        assert_eq!(highest_supported_pct(99), 75.0);
        assert_eq!(highest_supported_pct(100), 90.0);
        assert_eq!(highest_supported_pct(200), 95.0);
        assert_eq!(highest_supported_pct(999), 95.0);
        assert_eq!(highest_supported_pct(1000), 99.0);
        assert_eq!(highest_supported_pct(9_999), 99.0);
        assert_eq!(highest_supported_pct(10_000), 99.9);
        for n in [40usize, 100, 200, 1000, 10_000, 123_456] {
            let p = highest_supported_pct(n);
            assert!(n - rank(p, n) >= 10, "n={n} p={p}");
        }
    }

    #[test]
    fn quartiles_match_python_exclusive() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        let (q1, q3) = quartiles(&v).unwrap();
        assert!((q1 - 2.75).abs() < 1e-12 && (q3 - 8.25).abs() < 1e-12);
        // statistics.quantiles([3, 1, 4, 1, 5], n=4) == [1.0, 3.0, 4.5]
        let (q1, q3) = quartiles(&[3.0, 1.0, 4.0, 1.0, 5.0]).unwrap();
        assert!((q1 - 1.0).abs() < 1e-12 && (q3 - 4.5).abs() < 1e-12);
        assert!((spread(&[3.0, 1.0, 4.0, 1.0, 5.0]) - 3.5 / 3.0).abs() < 1e-12);
        assert_eq!(quartiles(&[1.0]), None);
        assert_eq!(spread(&[2.0, 2.0, 2.0]), 0.0);
    }
}
