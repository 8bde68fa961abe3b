//! Order statistics for latency samples.

/// The `p`-quantile (0 < p ≤ 1) of ascending `sorted` samples by the
/// nearest-rank method: the smallest sample with at least `p·n` samples
/// at or below it. Panics on an empty slice.
pub fn percentile(sorted: &[f64], p: f64) -> f64 {
    assert!(!sorted.is_empty(), "no samples");
    sorted[rank(sorted.len(), p) - 1]
}

/// 1-based nearest rank of the `p`-quantile among `n` samples.
fn rank(n: usize, p: f64) -> usize {
    ((p * n as f64).ceil() as usize).clamp(1, n)
}

/// Whether `n` samples support reporting the `p`-quantile: at least ten
/// samples must lie beyond it, or the figure is set by a handful of
/// outliers.
pub fn supports(n: usize, p: f64) -> bool {
    n > 0 && n - rank(n, p) >= 10
}

/// Sorts samples ascending (latencies are finite by construction).
pub fn sorted(mut samples: Vec<f64>) -> Vec<f64> {
    samples.sort_by(|a, b| a.partial_cmp(b).expect("finite samples"));
    samples
}

/// Median of unsorted values.
pub fn median(values: &[f64]) -> f64 {
    percentile(&sorted(values.to_vec()), 0.5)
}

/// Distance between the first and third quartile as a share of the
/// median, the way the benchmark's acceptance rule computes it (Python's
/// `statistics.quantiles(values, n=4)`, the exclusive method). Needs at
/// least two values.
pub fn quartile_spread(values: &[f64]) -> f64 {
    assert!(values.len() >= 2, "quartiles need two values");
    let s = sorted(values.to_vec());
    let n = s.len();
    let at = |k: usize| {
        // Exclusive method: position k·(n+1)/4 on a 1-based scale,
        // clamped to the sample range, linearly interpolated.
        let pos = (k * (n + 1)) as f64 / 4.0;
        let j = (pos.floor() as usize).clamp(1, n - 1);
        s[j - 1] + (pos - j as f64) * (s[j] - s[j - 1])
    };
    let mid = if n % 2 == 1 {
        s[n / 2]
    } else {
        (s[n / 2 - 1] + s[n / 2]) / 2.0
    };
    (at(3) - at(1)) / mid
}

/// Latency summary of one operation type over every sample of a run.
#[derive(Clone, Copy, Debug)]
pub struct Summary {
    /// Samples behind the figures.
    pub count: usize,
    /// Nearest-rank median over all samples.
    pub p50_ms: f64,
    /// Operations per second of the caller's busy time (closed loop: its
    /// next operation starts when this one returns).
    pub per_s: f64,
}

/// Summarises a run. `latencies_s` has one sample per operation, as the
/// caller saw it; `busy_s` is the time the caller spent on them all (the
/// sum of the latencies when every operation is its own unit of busy
/// time, less when a batch acknowledges several at once).
pub fn summarise(latencies_s: &[f64], busy_s: f64) -> Summary {
    let lat = sorted(latencies_s.to_vec());
    Summary {
        count: lat.len(),
        p50_ms: percentile(&lat, 0.50) * 1e3,
        per_s: lat.len() as f64 / busy_s,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_percentiles() {
        let s: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&s, 0.50), 50.0);
        assert_eq!(percentile(&s, 0.99), 99.0);
        assert_eq!(percentile(&s, 1.0), 100.0);
        assert_eq!(percentile(&s, 0.001), 1.0);
        assert_eq!(percentile(&[7.0], 0.99), 7.0);
        // 0.5 · 5 = 2.5 → rank 3.
        assert_eq!(percentile(&[1.0, 2.0, 3.0, 4.0, 5.0], 0.5), 3.0);
    }

    #[test]
    fn p99_needs_ten_samples_beyond_it() {
        assert!(supports(1000, 0.99), "1000 samples leave exactly 10 beyond");
        assert!(!supports(999, 0.99));
        assert!(supports(200, 0.95));
        assert!(!supports(199, 0.95));
        assert!(!supports(0, 0.5));
    }

    #[test]
    fn quartile_spread_matches_python_exclusive_method() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert!((quartile_spread(&v) - (8.25 - 2.75) / 5.5).abs() < 1e-12);
        // statistics.quantiles([10, 20, 40], n=4) == [10.0, 20.0, 40.0]
        assert!((quartile_spread(&[40.0, 10.0, 20.0]) - 30.0 / 20.0).abs() < 1e-12);
        // statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]: the
        // exclusive method extrapolates past the sample range.
        assert!((quartile_spread(&[1.0, 2.0]) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn summary_counts_every_sample() {
        // 99 operations of 1 ms and one stall of 50 ms that no slot of a
        // replayed cycle explains: it does not move the median, and it
        // counts in the rate.
        let mut lat = vec![0.001; 99];
        lat.insert(37, 0.050);
        let s = summarise(&lat, lat.iter().sum());
        assert_eq!(s.count, 100);
        assert!((s.p50_ms - 1.0).abs() < 1e-12);
        assert!((s.per_s - 100.0 / 0.149).abs() < 1e-6);
        // Busy time measured per batch: 8 operations acknowledged by
        // 2 batches of 4 ms.
        let s = summarise(&[0.004; 8], 0.008);
        assert!((s.per_s - 1000.0).abs() < 1e-9);
    }
}
