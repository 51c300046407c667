//! Order statistics over measured samples.

/// Percentiles a tail is chosen from, highest first. The rungs are far
/// apart so that run-to-run changes in the sample count do not move a
/// workload's tail from one rung to the next.
pub const LADDER: [f64; 5] = [99.0, 95.0, 90.0, 75.0, 50.0];

/// Samples a percentile must leave beyond it to be reported as a tail.
pub const MIN_BEYOND: usize = 10;

/// One reported percentile with the sample counts behind it.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Quantile {
    /// The percentile, e.g. `99.0`.
    pub pct: f64,
    /// Its value (nearest rank).
    pub value: f64,
    /// Samples it was computed from.
    pub n: usize,
    /// Samples strictly beyond its rank.
    pub beyond: usize,
}

/// 1-based nearest rank of percentile `pct` among `n` samples.
fn rank(pct: f64, n: usize) -> usize {
    ((pct / 100.0 * n as f64).ceil() as usize).clamp(1, n)
}

/// Nearest-rank percentile of `samples` (any order); `None` when empty.
pub fn percentile(samples: &[f64], pct: f64) -> Option<Quantile> {
    if samples.is_empty() {
        return None;
    }
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    let r = rank(pct, sorted.len());
    Some(Quantile {
        pct,
        value: sorted[r - 1],
        n: sorted.len(),
        beyond: sorted.len() - r,
    })
}

/// Median of `samples`; 0 when empty.
pub fn median(samples: &[f64]) -> f64 {
    percentile(samples, 50.0).map_or(0.0, |q| q.value)
}

/// The highest [`LADDER`] percentile up to `cap` with at least
/// [`MIN_BEYOND`] samples beyond it. With fewer than `2 * MIN_BEYOND`
/// samples no percentile qualifies and the median is returned; its
/// `beyond` count then shows how thin the tail is.
pub fn tail(samples: &[f64], cap: f64) -> Option<Quantile> {
    let n = samples.len();
    if n == 0 {
        return None;
    }
    let pct = LADDER
        .into_iter()
        .find(|&p| p <= cap && n >= rank(p, n) + MIN_BEYOND)
        .unwrap_or(50.0);
    percentile(samples, pct)
}

/// Arithmetic mean; 0 when empty.
pub fn mean(samples: &[f64]) -> f64 {
    if samples.is_empty() {
        0.0
    } else {
        samples.iter().sum::<f64>() / samples.len() as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ramp(n: usize) -> Vec<f64> {
        (1..=n).rev().map(|i| i as f64).collect()
    }

    #[test]
    fn tail_is_the_highest_percentile_with_ten_samples_beyond() {
        // 1000 samples: p99 leaves exactly 10 beyond
        let q = tail(&ramp(1000), 100.0).expect("non-empty");
        assert_eq!((q.pct, q.value, q.n, q.beyond), (99.0, 990.0, 1000, 10));
        // 999 samples: p99 leaves 9, so p95 is the highest qualifying
        let q = tail(&ramp(999), 100.0).expect("non-empty");
        assert_eq!((q.pct, q.n, q.beyond), (95.0, 999, 49));
        assert!(q.beyond >= MIN_BEYOND);
        // 100 samples: p90 leaves exactly 10
        let q = tail(&ramp(100), 100.0).expect("non-empty");
        assert_eq!((q.pct, q.value, q.beyond), (90.0, 90.0, 10));
    }

    #[test]
    fn a_cap_limits_the_tail_percentile() {
        let q = tail(&ramp(1000), 90.0).expect("non-empty");
        assert_eq!((q.pct, q.value, q.beyond), (90.0, 900.0, 100));
        let q = tail(&ramp(30), 90.0).expect("non-empty");
        assert_eq!((q.pct, q.beyond), (50.0, 15));
    }

    #[test]
    fn thin_samples_fall_back_to_the_median_with_an_honest_count() {
        let q = tail(&ramp(7), 100.0).expect("non-empty");
        assert_eq!((q.pct, q.value, q.n, q.beyond), (50.0, 4.0, 7, 3));
        assert!(tail(&[], 100.0).is_none());
    }

    #[test]
    fn percentile_and_median_use_nearest_rank() {
        let v = ramp(10);
        assert_eq!(median(&v), 5.0);
        assert_eq!(percentile(&v, 100.0).map(|q| q.value), Some(10.0));
        assert_eq!(percentile(&v, 0.0).map(|q| q.value), Some(1.0));
        assert_eq!(mean(&v), 5.5);
    }
}
