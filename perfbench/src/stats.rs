//! Order statistics over raw samples.
//!
//! Every timing the benchmark reports is computed here from the raw
//! per-operation samples it collected itself; nothing is read back from a
//! bucketed histogram.

/// Samples that must lie strictly above a percentile before it is
/// reported: a tail figure resting on fewer is noise.
pub const MIN_BEYOND: usize = 10;

/// Nearest-rank `q`-quantile (`q` in `[0, 1]`) of `samples`: the smallest
/// sample with at least `ceil(q * n)` samples at or below it. `None` when
/// `samples` is empty.
#[must_use]
fn nearest_rank(samples: &[f64], q: f64) -> Option<f64> {
    if samples.is_empty() {
        return None;
    }
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    let n = sorted.len();
    Some(sorted[rank(n, q).clamp(1, n) - 1])
}

/// One-based nearest rank `ceil(q * n)`, with a tolerance so that products
/// such as `0.99 * 1000` do not round up past the exact rank.
fn rank(n: usize, q: f64) -> usize {
    (q.clamp(0.0, 1.0) * n as f64 - 1e-9).ceil().max(0.0) as usize
}

/// Median of `samples`: the mean of the two middle samples for an even
/// count. `None` when `samples` is empty.
#[must_use]
pub fn median(samples: &[f64]) -> Option<f64> {
    if samples.is_empty() {
        return None;
    }
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    let n = sorted.len();
    Some(if n % 2 == 1 {
        sorted[n / 2]
    } else {
        (sorted[n / 2 - 1] + sorted[n / 2]) / 2.0
    })
}

/// The `q`-quantile of `samples`, reported only when at least
/// [`MIN_BEYOND`] samples lie beyond its rank: a p99 needs 1000 samples,
/// a p90 needs 100.
#[must_use]
pub fn tail(samples: &[f64], q: f64) -> Option<f64> {
    let n = samples.len();
    if n < rank(n, q) + MIN_BEYOND {
        return None;
    }
    nearest_rank(samples, q)
}

/// Largest sample (`None` when empty).
#[must_use]
pub fn max(samples: &[f64]) -> Option<f64> {
    samples.iter().copied().reduce(f64::max)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ramp(n: usize) -> Vec<f64> {
        // Reversed so the helpers must sort.
        (1..=n).rev().map(|i| i as f64).collect()
    }

    #[test]
    fn median_of_odd_and_even_counts() {
        assert_eq!(median(&[]), None);
        assert_eq!(median(&[3.0, 1.0, 2.0]), Some(2.0));
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), Some(2.5));
    }

    #[test]
    fn nearest_rank_picks_observed_samples() {
        let s = ramp(100);
        assert_eq!(nearest_rank(&s, 0.5), Some(50.0));
        assert_eq!(nearest_rank(&s, 0.99), Some(99.0));
        assert_eq!(nearest_rank(&s, 1.0), Some(100.0));
        assert_eq!(nearest_rank(&s, 0.0), Some(1.0));
        assert_eq!(nearest_rank(&[], 0.5), None);
    }

    #[test]
    fn tail_needs_ten_samples_beyond_its_rank() {
        // p99 of 1000 samples has rank 990 and exactly ten samples above.
        assert_eq!(tail(&ramp(1000), 0.99), Some(990.0));
        // One fewer sample leaves only nine beyond rank 990.
        assert_eq!(tail(&ramp(999), 0.99), None);
        assert_eq!(tail(&ramp(5000), 0.99), Some(4950.0));
        // A p90 resolves from 100 samples, not from 99.
        assert_eq!(tail(&ramp(100), 0.90), Some(90.0));
        assert_eq!(tail(&ramp(99), 0.90), None);
        // A median of three samples has one sample beyond it.
        assert_eq!(tail(&ramp(3), 0.5), None);
        assert_eq!(tail(&[], 0.5), None);
    }

    #[test]
    fn tail_resolves_a_forty_percent_shift() {
        // A power-of-two bucket scheme maps 2.1 ms and 2.9 ms to the same
        // bound; raw samples must not.
        let base: Vec<f64> = (0..2000).map(|i| 2.1 + f64::from(i % 7) * 1e-3).collect();
        let slow: Vec<f64> = base.iter().map(|x| x * 1.4).collect();
        let (a, b) = (tail(&base, 0.99).unwrap(), tail(&slow, 0.99).unwrap());
        assert!((b / a - 1.4).abs() < 1e-9, "{a} vs {b}");
    }

    #[test]
    fn max_of_samples() {
        assert_eq!(max(&[]), None);
        assert_eq!(max(&[1.0, 5.0, 2.0]), Some(5.0));
    }
}
