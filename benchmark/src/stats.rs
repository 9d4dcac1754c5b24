//! Order statistics: the percentile rule, medians and quartile spreads.

/// An ascending copy (NaN-free input).
pub fn sorted(v: &[f64]) -> Vec<f64> {
    let mut s = v.to_vec();
    s.sort_by(|a, b| a.partial_cmp(b).expect("samples are finite"));
    s
}

/// Nearest-rank percentile `p` in (0, 1] of an ascending slice; 0 if empty.
pub fn percentile(sorted: &[f64], p: f64) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    let rank = (p * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// Median of an unsorted slice (nearest rank); 0 if empty.
pub fn median(v: &[f64]) -> f64 {
    percentile(&sorted(v), 0.5)
}

/// The tail statistic reported as `p99_ms`: the 99th percentile when at
/// least ten samples lie beyond it, otherwise the highest percentile that
/// still has ten samples beyond it (the median when there are fewer than
/// eleven samples). Returns `(value, percentile actually used)`.
pub fn tail(sorted: &[f64]) -> (f64, f64) {
    let n = sorted.len();
    if n == 0 {
        return (0.0, 0.0);
    }
    if n < 11 {
        return (percentile(sorted, 0.5), 0.5);
    }
    let rank99 = (0.99 * n as f64).ceil() as usize;
    let rank = rank99.min(n - 10);
    (sorted[rank - 1], rank as f64 / n as f64)
}

/// First and third quartile as Python's `statistics.quantiles(v, n=4)`
/// gives them (the exclusive method), so spreads printed here are the
/// spreads the driver computes.
pub fn quartiles(v: &[f64]) -> (f64, f64) {
    let s = sorted(v);
    let n = s.len();
    if n < 2 {
        let x = s.first().copied().unwrap_or(0.0);
        return (x, x);
    }
    let q = |i: usize| {
        let m = n + 1;
        let j = (i * m / 4).clamp(1, n - 1);
        let delta = (i * m) as f64 - (j * 4) as f64;
        (s[j - 1] * (4.0 - delta) + s[j] * delta) / 4.0
    };
    (q(1), q(3))
}

/// Interquartile range as a share of the median; 0 for a zero median.
pub fn iqr_frac(v: &[f64]) -> f64 {
    let (q1, q3) = quartiles(v);
    let m = median(v);
    if m == 0.0 {
        0.0
    } else {
        (q3 - q1) / m.abs()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ramp(n: usize) -> Vec<f64> {
        (1..=n).map(|i| i as f64).collect()
    }

    #[test]
    fn tail_keeps_ten_samples_beyond() {
        // 2000 samples: p99 is rank 1980, 20 samples beyond — allowed.
        assert_eq!(tail(&ramp(2000)), (1980.0, 0.99));
        // 1000 samples: p99 is rank 990 with exactly 10 beyond.
        assert_eq!(tail(&ramp(1000)), (990.0, 0.99));
        // 500 samples: p99 would leave 5 beyond; rank 490 is the highest
        // with 10 beyond, i.e. p98.
        assert_eq!(tail(&ramp(500)), (490.0, 0.98));
        // 24 samples (a train run): rank 14, p58.3.
        let (v, p) = tail(&ramp(24));
        assert_eq!(v, 14.0);
        assert!((p - 14.0 / 24.0).abs() < 1e-12);
        // Fewer than 11 samples: the median.
        assert_eq!(tail(&ramp(10)), (5.0, 0.5));
        assert_eq!(tail(&[]), (0.0, 0.0));
    }

    #[test]
    fn percentile_is_nearest_rank() {
        let s = ramp(10);
        assert_eq!(percentile(&s, 0.5), 5.0);
        assert_eq!(percentile(&s, 0.99), 10.0);
        assert_eq!(percentile(&s, 0.01), 1.0);
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
    }

    #[test]
    fn quartiles_match_python_exclusive_method() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        assert_eq!(quartiles(&ramp(10)), (2.75, 8.25));
        // statistics.quantiles([1, 2, 3, 4, 5], n=4) == [1.5, 3.0, 4.5]
        assert_eq!(quartiles(&ramp(5)), (1.5, 4.5));
        assert!((iqr_frac(&ramp(5)) - 1.0).abs() < 1e-12);
    }
}
