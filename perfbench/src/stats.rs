//! Order statistics for the reported host timings.

/// Percentiles the tail figure is chosen from, lowest first.
pub const TAIL_LADDER: [f64; 5] = [50.0, 75.0, 90.0, 99.0, 99.9];

/// A tail percentile must leave at least this many samples beyond it.
pub const MIN_BEYOND: usize = 10;

/// The median of `xs` (mean of the middle pair for an even count); NaN
/// when `xs` is empty.
pub fn median(xs: &[f64]) -> f64 {
    if xs.is_empty() {
        return f64::NAN;
    }
    let v = sorted(xs);
    let mid = v.len() / 2;
    if v.len() % 2 == 1 {
        v[mid]
    } else {
        (v[mid - 1] + v[mid]) / 2.0
    }
}

/// 1-based nearest rank of percentile `p` among `n` samples. The small
/// slack keeps decimal percentiles such as 99.9 from rounding one rank up.
fn rank(n: usize, p: f64) -> usize {
    ((p * n as f64 / 100.0 - 1e-6).ceil() as usize).clamp(1, n)
}

/// Samples ranked strictly above percentile `p` of `n` samples.
pub fn beyond(n: usize, p: f64) -> usize {
    n - rank(n, p)
}

/// The highest [`TAIL_LADDER`] percentile that leaves at least
/// [`MIN_BEYOND`] of `n` samples beyond it.
pub fn tail_percentile(n: usize) -> Option<f64> {
    TAIL_LADDER
        .iter()
        .rev()
        .copied()
        .find(|&p| n > 0 && beyond(n, p) >= MIN_BEYOND)
}

/// The tail of `xs`: `(percentile, nearest-rank value)` at
/// [`tail_percentile`], or `None` with fewer than 2 × [`MIN_BEYOND`]
/// samples.
pub fn tail(xs: &[f64]) -> Option<(f64, f64)> {
    let p = tail_percentile(xs.len())?;
    let v = sorted(xs);
    Some((p, v[rank(v.len(), p) - 1]))
}

fn sorted(xs: &[f64]) -> Vec<f64> {
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    v
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_of_odd_and_even_counts() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
        assert!(median(&[]).is_nan());
    }

    #[test]
    fn tail_keeps_at_least_ten_samples_beyond() {
        assert_eq!(tail_percentile(19), None);
        assert_eq!(tail_percentile(20), Some(50.0));
        assert_eq!(tail_percentile(39), Some(50.0));
        assert_eq!(tail_percentile(40), Some(75.0));
        assert_eq!(tail_percentile(54), Some(75.0));
        assert_eq!(tail_percentile(81), Some(75.0));
        assert_eq!(tail_percentile(99), Some(75.0));
        assert_eq!(tail_percentile(100), Some(90.0));
        assert_eq!(tail_percentile(999), Some(90.0));
        assert_eq!(tail_percentile(1000), Some(99.0));
        assert_eq!(tail_percentile(10_000), Some(99.9));
        for n in 20..3000 {
            let p = tail_percentile(n).expect("n >= 20");
            assert!(beyond(n, p) >= MIN_BEYOND, "n={n} p={p}");
            // The next rung up would leave fewer than ten beyond.
            if let Some(&next) = TAIL_LADDER.iter().find(|&&q| q > p) {
                assert!(beyond(n, next) < MIN_BEYOND, "n={n} next={next}");
            }
        }
    }

    #[test]
    fn tail_value_is_the_nearest_rank() {
        let xs: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(tail(&xs), Some((90.0, 90.0)));
        let xs: Vec<f64> = (1..=1000).rev().map(f64::from).collect();
        assert_eq!(tail(&xs), Some((99.0, 990.0)));
        assert_eq!(tail(&[1.0; 5]), None);
    }
}
