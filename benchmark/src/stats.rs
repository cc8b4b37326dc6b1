//! Order statistics the benchmark reports: nearest-rank percentiles
//! inside a replay, the minimum across replays, and the quartile spread
//! `compare` uses to decide whether two sets of runs can be told apart.

/// Nearest-rank percentile: the smallest sample such that at least
/// `p` percent of the samples are `<=` it. No interpolation, so the
/// result is always a value that was measured. With fewer than 20
/// samples the 95th percentile is the slowest sample.
///
/// # Panics
/// On an empty slice — a replay without ops is a harness bug.
pub fn nearest_rank(samples: &[f64], p: f64) -> f64 {
    assert!(!samples.is_empty(), "percentile of no samples");
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    let rank = (p / 100.0 * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// The smallest sample. Scheduler noise on a shared host only ever
/// inflates a timing, so the minimum over byte-identical replays is the
/// least contaminated estimate of what the work costs.
pub fn min(samples: &[f64]) -> f64 {
    samples.iter().copied().fold(f64::INFINITY, f64::min)
}

/// Median with the midpoint rule for even counts.
pub fn median(samples: &[f64]) -> f64 {
    assert!(!samples.is_empty(), "median of no samples");
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    let mid = sorted.len() / 2;
    if sorted.len() % 2 == 1 {
        sorted[mid]
    } else {
        (sorted[mid - 1] + sorted[mid]) / 2.0
    }
}

/// Interquartile distance as a share of the median, with the quartiles
/// of Python's `statistics.quantiles(values, n=4)` (exclusive method) —
/// the same number the driver computes from ten runs. `0` for fewer
/// than two samples, where no spread can be observed.
pub fn quartile_spread(samples: &[f64]) -> f64 {
    let n = samples.len();
    if n < 2 {
        return 0.0;
    }
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    let quartile = |i: usize| {
        let j = (i * (n + 1) / 4).clamp(1, n - 1);
        let delta = (i * (n + 1)) as f64 - (j * 4) as f64;
        (sorted[j - 1] * (4.0 - delta) + sorted[j] * delta) / 4.0
    };
    let med = median(&sorted);
    if med == 0.0 {
        return 0.0;
    }
    ((quartile(3) - quartile(1)) / med).abs()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_returns_measured_values() {
        let v = [15.0, 20.0, 35.0, 40.0, 50.0];
        assert_eq!(nearest_rank(&v, 5.0), 15.0);
        assert_eq!(nearest_rank(&v, 30.0), 20.0);
        assert_eq!(nearest_rank(&v, 40.0), 20.0);
        assert_eq!(nearest_rank(&v, 50.0), 35.0);
        assert_eq!(nearest_rank(&v, 100.0), 50.0);
        // order of arrival is irrelevant
        assert_eq!(nearest_rank(&[50.0, 15.0, 40.0, 20.0, 35.0], 50.0), 35.0);
    }

    #[test]
    fn p95_is_the_slowest_op_below_twenty_samples() {
        let one = [7.0];
        assert_eq!(nearest_rank(&one, 50.0), 7.0);
        assert_eq!(nearest_rank(&one, 95.0), 7.0);
        let twenty: Vec<f64> = (1..=20).map(f64::from).collect();
        assert_eq!(nearest_rank(&twenty, 95.0), 19.0);
        assert_eq!(nearest_rank(&twenty[..19], 95.0), 19.0);
        let four = [3.0, 1.0, 4.0, 2.0];
        assert_eq!(nearest_rank(&four, 95.0), 4.0);
        assert_eq!(nearest_rank(&four, 50.0), 2.0);
        // a long replay: rank ceil(0.95 * 82) = 78
        let many: Vec<f64> = (1..=82).map(f64::from).collect();
        assert_eq!(nearest_rank(&many, 95.0), 78.0);
        assert_eq!(nearest_rank(&many, 50.0), 41.0);
    }

    #[test]
    fn min_over_replays_ignores_inflated_samples() {
        // one quiet replay among noisy ones decides the metric
        assert_eq!(min(&[0.91, 0.77, 1.43, 0.78]), 0.77);
        assert_eq!(min(&[2.0]), 2.0);
        assert_eq!(median(&[0.91, 0.77, 1.43, 0.78]), (0.78 + 0.91) / 2.0);
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
    }

    #[test]
    fn quartile_spread_matches_python_exclusive_quantiles() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert!((quartile_spread(&v) - (8.25 - 2.75) / 5.5).abs() < 1e-12);
        // statistics.quantiles([1, 2, 4, 8, 16], n=4) == [1.5, 4.0, 12.0]
        let w = [16.0, 1.0, 8.0, 2.0, 4.0];
        assert!((quartile_spread(&w) - (12.0 - 1.5) / 4.0).abs() < 1e-12);
        // statistics.quantiles([1, 3], n=4) == [0.5, 2.0, 3.5]
        assert!((quartile_spread(&[1.0, 3.0]) - 1.5).abs() < 1e-12);
        assert_eq!(quartile_spread(&[5.0]), 0.0);
        assert_eq!(quartile_spread(&[5.0, 5.0, 5.0]), 0.0);
    }
}
