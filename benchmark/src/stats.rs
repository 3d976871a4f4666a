//! Percentiles, means and medians from raw samples.

/// Nearest-rank percentile (`p` in `[0, 100]`) of unsorted samples: the
/// smallest sample with at least `p`% of all samples at or below it.
/// `None` when there are no samples.
pub fn percentile(samples: &[f64], p: f64) -> Option<f64> {
    if samples.is_empty() {
        return None;
    }
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    let rank = ((p / 100.0) * sorted.len() as f64).ceil() as usize;
    Some(sorted[rank.clamp(1, sorted.len()) - 1])
}

/// Median by the usual definition (mean of the middle pair when even).
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

/// Arithmetic mean; 0 when there are no samples.
pub fn mean(samples: &[f64]) -> f64 {
    samples.iter().sum::<f64>() / samples.len().max(1) as f64
}

/// The lowest of a fixed number of identical repetitions of the same
/// work, i.e. the best time. 0 when there are no repetitions.
///
/// The wire workload's latencies and set-up are the best round: timer
/// wake-ups on a shared virtual machine overshoot for stretches of
/// seconds, and the best round follows the server as long as one round of
/// the run ran undisturbed (see NOTES.md for the measured comparison with
/// quartiles and medians).
pub fn lowest(samples: &[f64]) -> f64 {
    samples.iter().copied().reduce(f64::min).unwrap_or(0.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_percentiles() {
        let s: Vec<f64> = (1..=10).rev().map(f64::from).collect();
        assert_eq!(percentile(&s, 50.0), Some(5.0));
        assert_eq!(percentile(&s, 90.0), Some(9.0));
        assert_eq!(percentile(&s, 91.0), Some(10.0));
        assert_eq!(percentile(&s, 100.0), Some(10.0));
        assert_eq!(percentile(&s, 0.0), Some(1.0));
        assert_eq!(percentile(&[], 50.0), None);
        // p50 and p90 of a spread distribution must differ: the property a
        // power-of-two histogram loses.
        let wide: Vec<f64> = (0..1000).map(|i| 1.0 + i as f64 * 0.001).collect();
        assert!(percentile(&wide, 90.0).unwrap() > percentile(&wide, 50.0).unwrap());
    }

    #[test]
    fn lowest_of_repetitions() {
        assert_eq!(lowest(&[3.0, 8.0, 1.0, 5.0]), 1.0);
        assert_eq!(lowest(&[]), 0.0);
    }

    #[test]
    fn mean_of_samples() {
        assert_eq!(mean(&[1.0, 2.0, 6.0]), 3.0);
        assert_eq!(mean(&[]), 0.0);
    }

    #[test]
    fn median_of_odd_and_even() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), Some(2.0));
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), Some(2.5));
        assert_eq!(median(&[]), None);
    }
}
