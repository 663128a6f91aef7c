//! Order statistics for the reported timings.

use cc_mis_analysis::stats::quantile_sorted;

/// The `q`-quantile of `samples` (`0 <= q <= 1`), interpolated between
/// closest ranks, or `None` when there are no samples.
fn quantile(samples: &[f64], q: f64) -> Option<f64> {
    if samples.is_empty() {
        return None;
    }
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    Some(quantile_sorted(&sorted, q))
}

/// The median of `samples`, or 0 when there are none.
pub fn median(samples: &[f64]) -> f64 {
    quantile(samples, 0.5).unwrap_or(0.0)
}

/// The 90th percentile of `samples`, reported only when at least ten
/// samples lie strictly above it; below that a p90 is an anecdote.
pub fn p90(samples: &[f64]) -> Option<f64> {
    let v = quantile(samples, 0.9)?;
    let beyond = samples.iter().filter(|&&s| s > v).count();
    (beyond >= 10).then_some(v)
}

/// The arithmetic mean of `samples`, or 0 when there are none.
pub fn mean(samples: &[f64]) -> f64 {
    if samples.is_empty() {
        return 0.0;
    }
    samples.iter().sum::<f64>() / samples.len() as f64
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_interpolates_even_counts() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
        assert_eq!(median(&[]), 0.0);
    }

    #[test]
    fn p90_needs_ten_samples_beyond_it() {
        let ninety_one: Vec<f64> = (1..=91).map(f64::from).collect();
        assert_eq!(p90(&ninety_one), None, "only 9 samples above p90 = 82");
        let hundred_ten: Vec<f64> = (1..=110).map(f64::from).collect();
        let v = p90(&hundred_ten).expect("11 samples above p90");
        assert!((v - 99.1).abs() < 1e-9, "{v}");
    }

    #[test]
    fn p90_ignores_ties_at_the_percentile() {
        // 200 samples, the top 50 all equal: none lie strictly above p90.
        let mut s: Vec<f64> = (0..150).map(f64::from).collect();
        s.extend(std::iter::repeat_n(1000.0, 50));
        assert_eq!(p90(&s), None);
    }
}
