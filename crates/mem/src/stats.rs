//! Histograms and summary statistics used by the experiment harness.

use std::fmt;

/// Saturating increment for integer stats counters.
///
/// Every simulator counter bumps through this trait so that the failure
/// mode at the type's ceiling is a visibly pinned value rather than a
/// silent wrap-around. This is a convention, not a check: nothing stops
/// a bare `+=` on a counter field, and test builds keep overflow checks.
/// Saturation is unreachable in practice — a run bumps each counter a
/// few times per access over millions of accesses, `u64::MAX` is
/// quintillions — so goldens are unaffected.
pub trait Counter: Copy {
    /// Adds 1, saturating at the type's maximum.
    fn bump(&mut self);
    /// Adds `n`, saturating at the type's maximum.
    fn bump_by(&mut self, n: Self);
}

macro_rules! impl_counter {
    ($($t:ty),*) => {$(
        impl Counter for $t {
            fn bump(&mut self) {
                *self = self.saturating_add(1);
            }
            fn bump_by(&mut self, n: Self) {
                *self = self.saturating_add(n);
            }
        }
    )*};
}

impl_counter!(u64, u32, usize);

/// A fixed-bin histogram over small non-negative integers (word counts,
/// recency positions, compression classes, …).
///
/// # Example
///
/// ```
/// use ldis_mem::stats::Histogram;
///
/// let mut h = Histogram::new(8);
/// h.record(0);
/// h.record(0);
/// h.record(7);
/// assert_eq!(h.total(), 3);
/// assert!((h.fraction(0) - 2.0 / 3.0).abs() < 1e-12);
/// ```
#[derive(Clone, Debug, PartialEq, Eq, Default)]
pub struct Histogram {
    bins: Vec<u64>,
}

impl Histogram {
    /// Creates a histogram with `bins` bins, all zero.
    pub fn new(bins: usize) -> Self {
        Histogram {
            bins: vec![0; bins],
        }
    }

    /// Number of bins.
    pub fn len(&self) -> usize {
        self.bins.len()
    }

    /// Whether the histogram has no bins.
    pub fn is_empty(&self) -> bool {
        self.bins.is_empty()
    }

    /// Adds one observation to bin `bin`.
    ///
    /// # Panics
    ///
    /// Panics if `bin` is out of range.
    pub fn record(&mut self, bin: usize) {
        self.record_n(bin, 1);
    }

    /// Adds `count` observations to bin `bin`.
    ///
    /// # Panics
    ///
    /// Panics if `bin` is out of range.
    pub fn record_n(&mut self, bin: usize, count: u64) {
        assert!(
            bin < self.bins.len(),
            "histogram bin {bin} out of range ({} bins)",
            self.bins.len()
        );
        if let Some(b) = self.bins.get_mut(bin) {
            *b += count;
        }
    }

    /// The count in bin `bin` (0 for bins beyond the histogram).
    pub fn count(&self, bin: usize) -> u64 {
        self.bins.get(bin).copied().unwrap_or(0)
    }

    /// Overwrites the count in bin `bin`. Used by the fault injector to
    /// model bit flips in hardware counter banks.
    ///
    /// # Panics
    ///
    /// Panics if `bin` is out of range.
    pub fn set_count(&mut self, bin: usize, count: u64) {
        assert!(
            bin < self.bins.len(),
            "histogram bin {bin} out of range ({} bins)",
            self.bins.len()
        );
        if let Some(b) = self.bins.get_mut(bin) {
            *b = count;
        }
    }

    /// Total observations across all bins.
    pub fn total(&self) -> u64 {
        self.bins.iter().sum()
    }

    /// Fraction of observations in bin `bin` (0 if the histogram is empty).
    pub fn fraction(&self, bin: usize) -> f64 {
        let total = self.total();
        if total == 0 {
            0.0
        } else {
            self.count(bin) as f64 / total as f64
        }
    }

    /// Mean of the distribution, weighting bin `i` by value `i` (0 if empty).
    pub fn mean(&self) -> f64 {
        let total = self.total();
        if total == 0 {
            return 0.0;
        }
        let weighted: f64 = self
            .bins
            .iter()
            .enumerate()
            .map(|(i, &c)| i as f64 * c as f64)
            .sum();
        weighted / total as f64
    }

    /// The smallest bin index `m` such that the cumulative count through
    /// `m` reaches at least half the total — the paper's median computation
    /// for median-threshold filtering (Section 5.4). Returns `None` if the
    /// histogram is empty.
    pub fn median_bin(&self) -> Option<usize> {
        let total = self.total();
        if total == 0 {
            return None;
        }
        let half = total.div_ceil(2);
        let mut cumulative = 0u64;
        for (i, &c) in self.bins.iter().enumerate() {
            cumulative += c;
            if cumulative >= half {
                return Some(i);
            }
        }
        None
    }

    /// Iterates over `(bin, count)` pairs.
    pub fn iter(&self) -> impl Iterator<Item = (usize, u64)> + '_ {
        self.bins.iter().copied().enumerate()
    }

    /// Resets all bins to zero.
    pub fn clear(&mut self) {
        self.bins.iter_mut().for_each(|b| *b = 0);
    }

    /// Merges another histogram of the same shape into this one.
    ///
    /// # Panics
    ///
    /// Panics if the bin counts differ.
    pub fn merge(&mut self, other: &Histogram) {
        assert_eq!(
            self.bins.len(),
            other.bins.len(),
            "histogram shape mismatch"
        );
        for (a, b) in self.bins.iter_mut().zip(&other.bins) {
            *a += b;
        }
    }
}

impl fmt::Display for Histogram {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "[")?;
        for (i, &c) in self.bins.iter().enumerate() {
            if i > 0 {
                write!(f, ", ")?;
            }
            write!(f, "{c}")?;
        }
        write!(f, "]")
    }
}

/// Percentage reduction of `new` relative to `base`: positive when `new`
/// is smaller. Returns 0 when `base` is 0.
///
/// # Example
///
/// ```
/// use ldis_mem::stats::percent_reduction;
/// assert_eq!(percent_reduction(10.0, 7.0), 30.0);
/// assert_eq!(percent_reduction(10.0, 12.0), -20.0);
/// ```
pub fn percent_reduction(base: f64, new: f64) -> f64 {
    if base == 0.0 {
        0.0
    } else {
        (base - new) / base * 100.0
    }
}

/// Percentage reduction of the mean of `new` relative to the mean of
/// `base`, each taken over the same benchmarks: the paper's summary
/// metric ("30.7 % mean-MPKI reduction"). It is [`percent_reduction`] of
/// the two sums, since the count cancels. Returns 0 when `base` sums to 0.
///
/// # Example
///
/// ```
/// use ldis_mem::stats::mean_reduction;
/// // Mean MPKI 20 → 15.
/// assert_eq!(mean_reduction([10.0, 30.0], [5.0, 25.0]), 25.0);
/// ```
pub fn mean_reduction(
    base: impl IntoIterator<Item = f64>,
    new: impl IntoIterator<Item = f64>,
) -> f64 {
    percent_reduction(base.into_iter().sum(), new.into_iter().sum())
}

/// Percentage improvement of `new` over `base`: positive when `new` is
/// larger (used for IPC). Returns 0 when `base` is 0.
pub fn percent_improvement(base: f64, new: f64) -> f64 {
    if base == 0.0 {
        0.0
    } else {
        (new - base) / base * 100.0
    }
}

/// Arithmetic mean of a slice (0 for empty input).
pub fn mean(values: &[f64]) -> f64 {
    if values.is_empty() {
        0.0
    } else {
        values.iter().sum::<f64>() / values.len() as f64
    }
}

/// Geometric mean of the multiplicative factors `1 + v/100` expressed back
/// as a percentage — the paper's "gmean" of per-benchmark IPC improvements
/// (Figure 9). Returns 0 for empty input.
///
/// # Example
///
/// ```
/// use ldis_mem::stats::gmean_percent;
/// let g = gmean_percent(&[10.0, 10.0]);
/// assert!((g - 10.0).abs() < 1e-9);
/// ```
pub fn gmean_percent(improvements: &[f64]) -> f64 {
    if improvements.is_empty() {
        return 0.0;
    }
    let log_sum: f64 = improvements
        .iter()
        .map(|&p| (1.0 + p / 100.0).max(1e-9).ln())
        .sum();
    ((log_sum / improvements.len() as f64).exp() - 1.0) * 100.0
}

/// Misses per kilo-instruction.
///
/// # Example
///
/// ```
/// use ldis_mem::stats::mpki;
/// assert_eq!(mpki(500, 1_000_000), 0.5);
/// ```
pub fn mpki(misses: u64, instructions: u64) -> f64 {
    if instructions == 0 {
        0.0
    } else {
        misses as f64 * 1000.0 / instructions as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn histogram_basics() {
        let mut h = Histogram::new(4);
        assert!(h.median_bin().is_none());
        h.record(1);
        h.record(1);
        h.record(3);
        h.record_n(0, 2);
        assert_eq!(h.total(), 5);
        assert_eq!(h.count(1), 2);
        assert_eq!(h.len(), 4);
        assert!(!h.is_empty());
        assert!((h.fraction(3) - 0.2).abs() < 1e-12);
    }

    #[test]
    fn histogram_mean() {
        let mut h = Histogram::new(4);
        h.record_n(0, 1);
        h.record_n(2, 1);
        assert!((h.mean() - 1.0).abs() < 1e-12);
    }

    #[test]
    fn median_bin_matches_paper_definition() {
        // Counts: one word used 5 times, eight words used 5 times. Half of
        // 10 evictions = 5, reached at the first bin.
        let mut h = Histogram::new(9);
        h.record_n(1, 5);
        h.record_n(8, 5);
        assert_eq!(h.median_bin(), Some(1));

        let mut h2 = Histogram::new(9);
        h2.record_n(1, 4);
        h2.record_n(8, 6);
        assert_eq!(h2.median_bin(), Some(8));
    }

    #[test]
    fn median_bin_odd_total_rounds_up() {
        let mut h = Histogram::new(3);
        h.record_n(0, 1);
        h.record_n(2, 2);
        // half = ceil(3/2) = 2, cumulative reaches 2 only at bin 2? bin0=1 <2, bin2 cum=3 >= 2.
        assert_eq!(h.median_bin(), Some(2));
    }

    #[test]
    fn histogram_merge_and_clear() {
        let mut a = Histogram::new(2);
        a.record(0);
        let mut b = Histogram::new(2);
        b.record(1);
        b.record(1);
        a.merge(&b);
        assert_eq!(a.count(0), 1);
        assert_eq!(a.count(1), 2);
        a.clear();
        assert_eq!(a.total(), 0);
    }

    #[test]
    #[should_panic(expected = "shape mismatch")]
    fn merge_rejects_shape_mismatch() {
        let mut a = Histogram::new(2);
        a.merge(&Histogram::new(3));
    }

    #[test]
    fn reductions_and_improvements() {
        assert_eq!(percent_reduction(0.0, 5.0), 0.0);
        assert_eq!(percent_improvement(2.0, 3.0), 50.0);
        assert_eq!(percent_improvement(0.0, 3.0), 0.0);
    }

    #[test]
    fn mean_reduction_is_the_reduction_of_the_sums() {
        let base = [86.128, 38.25, 0.731, 12.5, 3.0];
        let new = [40.017, 37.9, 0.702, 8.125, 3.3];
        // Bit for bit the sum form the ablations always used.
        let sums = percent_reduction(base.iter().sum(), new.iter().sum());
        assert_eq!(mean_reduction(base, new).to_bits(), sums.to_bits());
        // The mean form differs only by rounding.
        let means = percent_reduction(mean(&base), mean(&new));
        assert!((mean_reduction(base, new) - means).abs() < 1e-12);
        assert_eq!(mean_reduction([], [5.0]), 0.0);
        assert_eq!(mean_reduction([0.0, 0.0], [1.0, 2.0]), 0.0);
    }

    #[test]
    fn mean_and_gmean() {
        assert_eq!(mean(&[]), 0.0);
        assert_eq!(mean(&[1.0, 3.0]), 2.0);
        assert_eq!(gmean_percent(&[]), 0.0);
        let g = gmean_percent(&[0.0, 0.0]);
        assert!(g.abs() < 1e-9);
        // gmean of +100% and -50% is 0%.
        let g2 = gmean_percent(&[100.0, -50.0]);
        assert!(g2.abs() < 1e-9, "got {g2}");
    }

    #[test]
    fn mpki_math() {
        assert_eq!(mpki(0, 1000), 0.0);
        assert_eq!(mpki(10, 0), 0.0);
        assert!((mpki(38_300, 1_000_000) - 38.3).abs() < 1e-9);
    }

    #[test]
    fn histogram_display() {
        let mut h = Histogram::new(3);
        h.record(1);
        assert_eq!(h.to_string(), "[0, 1, 0]");
    }
}
