//! Order statistics used for every reported number.
//!
//! Percentiles are nearest-rank over the raw samples (no histogram
//! buckets), and every percentile travels with its sample count. Quartiles
//! follow Python's `statistics.quantiles(values, n=4)` (the "exclusive"
//! method) because that is what the acceptance driver computes over the
//! ten runs; using the same rule keeps `condbench compare` and the driver
//! in agreement about what a spread is.

/// Nearest-rank percentile of an ascending-sorted slice; `q` in `0..=1`.
/// Returns 0.0 for an empty slice.
pub fn percentile(sorted: &[f64], q: f64) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    let rank = (q.clamp(0.0, 1.0) * sorted.len() as f64).ceil().max(1.0) as usize;
    sorted[rank.min(sorted.len()) - 1]
}

/// Sorts a sample vector ascending (NaNs, which no timer produces, last).
pub fn sorted(mut samples: Vec<f64>) -> Vec<f64> {
    samples.sort_by(|a, b| a.partial_cmp(b).unwrap_or(std::cmp::Ordering::Equal));
    samples
}

/// Median of unsorted samples (0.0 when empty).
pub fn median(samples: &[f64]) -> f64 {
    percentile(&sorted(samples.to_vec()), 0.5)
}

/// A tail percentile together with the percentile actually used.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Tail {
    /// The value at `percentile`.
    pub value: f64,
    /// Which percentile the sample count supported (99, 95, 90, 75 or 50).
    pub percentile: u32,
    /// How many samples it was taken over.
    pub samples: usize,
}

/// The sample-count rule for tail metrics: report the highest of
/// p99/p95/p90/p75/p50 that still has at least ten samples beyond it
/// (p99 therefore needs 1 000 samples, p95 needs 200). The metric keeps
/// its `_p99` name; the percentile actually used is reported beside it.
pub fn tail(sorted: &[f64]) -> Tail {
    let n = sorted.len();
    let percentile_used = [99u32, 95, 90, 75]
        .into_iter()
        .find(|p| n as f64 * (100 - p) as f64 / 100.0 >= 10.0)
        .unwrap_or(50);
    Tail {
        value: percentile(sorted, percentile_used as f64 / 100.0),
        percentile: percentile_used,
        samples: n,
    }
}

/// First quartile, median and third quartile as Python's
/// `statistics.quantiles(values, n=4)` computes them. Fewer than two
/// values have no spread: all three collapse onto the single value.
pub fn quartiles(values: &[f64]) -> [f64; 3] {
    let data = sorted(values.to_vec());
    let len = data.len();
    if len < 2 {
        let v = data.first().copied().unwrap_or(0.0);
        return [v, v, v];
    }
    let m = len + 1;
    let mut out = [0.0; 3];
    for (slot, i) in out.iter_mut().zip(1..=3usize) {
        let j = (i * m / 4).clamp(1, len - 1);
        let delta = (i * m) as f64 - (j * 4) as f64;
        *slot = (data[j - 1] * (4.0 - delta) + data[j] * delta) / 4.0;
    }
    out
}

/// Interquartile distance as a share of the median (0.0 for a zero
/// median): the run-to-run spread the driver holds against each bound.
pub fn spread(values: &[f64]) -> f64 {
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
    fn nearest_rank_percentiles() {
        let s: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&s, 0.50), 50.0);
        assert_eq!(percentile(&s, 0.99), 99.0);
        assert_eq!(percentile(&s, 1.0), 100.0);
        assert_eq!(percentile(&s, 0.0), 1.0);
        assert_eq!(percentile(&[], 0.5), 0.0);
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
    }

    #[test]
    fn tail_needs_ten_samples_beyond_it() {
        let mk = |n: usize| (0..n).map(|i| i as f64).collect::<Vec<_>>();
        assert_eq!(tail(&mk(1000)).percentile, 99);
        assert_eq!(tail(&mk(999)).percentile, 95);
        assert_eq!(tail(&mk(200)).percentile, 95);
        assert_eq!(tail(&mk(199)).percentile, 90);
        assert_eq!(tail(&mk(100)).percentile, 90);
        assert_eq!(tail(&mk(40)).percentile, 75);
        assert_eq!(tail(&mk(39)).percentile, 50);
        let t = tail(&mk(1000));
        assert_eq!((t.value, t.samples), (989.0, 1000));
    }

    #[test]
    fn quartiles_match_python_exclusive_method() {
        // statistics.quantiles([1,2,3,4,5,6,7,8,9,10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&v), [2.75, 5.5, 8.25]);
        // statistics.quantiles([10, 20, 40], n=4) == [10.0, 20.0, 40.0]
        assert_eq!(quartiles(&[40.0, 10.0, 20.0]), [10.0, 20.0, 40.0]);
        // statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
        assert_eq!(quartiles(&[1.0, 2.0]), [0.75, 1.5, 2.25]);
        assert_eq!(quartiles(&[7.0]), [7.0, 7.0, 7.0]);
        assert!((spread(&v) - 1.0).abs() < 1e-12);
    }
}
