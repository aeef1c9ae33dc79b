//! Order statistics for wall-clock samples.

/// Median of `values` (mean of the two middle values for an even count).
///
/// # Panics
///
/// Panics if `values` is empty.
pub fn median(values: &[f64]) -> f64 {
    assert!(!values.is_empty(), "median of no samples");
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let mid = sorted.len() / 2;
    if sorted.len() % 2 == 1 {
        sorted[mid]
    } else {
        (sorted[mid - 1] + sorted[mid]) / 2.0
    }
}

/// Samples that must lie strictly beyond a reported tail percentile.
pub const MIN_BEYOND: usize = 10;

/// Nearest-rank `p`-th percentile of `values` (`p` in 0–100), or `None`
/// when fewer than [`MIN_BEYOND`] samples lie beyond it — a tail figure
/// resting on a handful of samples is noise, so it is not reported.
pub fn tail_percentile(values: &[f64], p: f64) -> Option<f64> {
    if values.is_empty() {
        return None;
    }
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let n = sorted.len();
    let rank = ((p / 100.0) * n as f64).ceil().max(1.0) as usize;
    let idx = rank.min(n) - 1;
    (n - 1 - idx >= MIN_BEYOND).then_some(sorted[idx])
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_of_odd_and_even_counts() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
        assert_eq!(median(&[7.0]), 7.0);
    }

    #[test]
    fn p99_needs_ten_samples_beyond_it() {
        let thousand: Vec<f64> = (1..=1000).map(f64::from).collect();
        // Nearest rank 990: samples 991..=1000 lie beyond it.
        assert_eq!(tail_percentile(&thousand, 99.0), Some(990.0));
        let short: Vec<f64> = (1..=999).map(f64::from).collect();
        assert_eq!(tail_percentile(&short, 99.0), None);
    }

    #[test]
    fn lower_percentiles_need_fewer_samples() {
        let hundred: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(tail_percentile(&hundred, 90.0), Some(90.0));
        assert_eq!(tail_percentile(&hundred, 50.0), Some(50.0));
        assert_eq!(tail_percentile(&hundred, 99.0), None);
        let small: Vec<f64> = (1..=20).map(f64::from).collect();
        assert_eq!(tail_percentile(&small, 50.0), Some(10.0));
        assert_eq!(tail_percentile(&small, 90.0), None);
        assert_eq!(tail_percentile(&[], 50.0), None);
    }

    #[test]
    fn percentile_ignores_input_order() {
        let mut v: Vec<f64> = (1..=200).map(f64::from).collect();
        v.reverse();
        assert_eq!(tail_percentile(&v, 50.0), Some(100.0));
    }
}
