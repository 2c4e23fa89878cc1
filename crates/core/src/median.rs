//! Median-threshold tracking (Section 5.4).

use crate::LdisError;
use ldis_mem::stats::Histogram;

/// Tracks the median number of used words among lines evicted from the LOC.
///
/// The hardware uses one counter per possible used-word count (1..=words)
/// plus an eviction-sum counter; the median is recomputed once every
/// `interval` LOC evictions (4096 in the paper) and the counters reset so
/// the threshold adapts to program phases.
///
/// Until the first window completes, the threshold is the full line (every
/// eviction qualifies), so a cold cache behaves like LDIS-Base.
///
/// # Example
///
/// ```
/// use ldis_distill::MedianTracker;
///
/// let mut mt = MedianTracker::new(8, 4);
/// for used in [1, 1, 8, 8] {
///     mt.observe(used);
/// }
/// // Window of 4 complete: median of {1,1,8,8} per the paper's
/// // cumulative-count rule is 1.
/// assert_eq!(mt.threshold(), 1);
/// ```
#[derive(Clone, Debug)]
pub struct MedianTracker {
    hist: Histogram,
    interval: u64,
    seen_in_window: u64,
    threshold: u8,
    windows_completed: u64,
}

impl MedianTracker {
    /// Creates a tracker for lines of `words_per_line` words, recomputing
    /// every `interval` observations.
    ///
    /// # Panics
    ///
    /// Panics if `interval` is zero.
    pub fn new(words_per_line: u8, interval: u64) -> Self {
        assert!(interval > 0, "median interval must be positive");
        MedianTracker {
            hist: Histogram::new(words_per_line as usize + 1),
            interval,
            seen_in_window: 0,
            threshold: words_per_line,
            windows_completed: 0,
        }
    }

    /// Records a LOC eviction with `used` words used, recomputing the
    /// threshold when the window fills.
    #[expect(
        clippy::cast_possible_truncation,
        reason = "median_bin indexes the histogram's words_per_line + 1 <= 17 bins"
    )]
    pub fn observe(&mut self, used: u8) {
        self.hist.record(used as usize);
        self.seen_in_window += 1;
        if self.seen_in_window >= self.interval {
            if let Some(median) = self.hist.median_bin() {
                self.threshold = median as u8;
            }
            self.hist.clear();
            self.seen_in_window = 0;
            self.windows_completed += 1;
        }
    }

    /// The current distillation threshold: lines with more used words than
    /// this are not installed in the WOC.
    pub fn threshold(&self) -> u8 {
        self.threshold
    }

    /// How many complete windows have been folded into the threshold.
    pub fn windows_completed(&self) -> u64 {
        self.windows_completed
    }

    /// The line's word count (the largest legal threshold).
    #[expect(
        clippy::cast_possible_truncation,
        reason = "the histogram is built with words_per_line + 1 <= 17 bins"
    )]
    pub fn words_per_line(&self) -> u8 {
        (self.hist.len() - 1) as u8
    }

    /// Modeled bits in the counter bank: one 16-bit counter per possible
    /// used-word count — the fault injector's address space here.
    pub fn counter_bits(&self) -> u64 {
        self.hist.len() as u64 * 16
    }

    /// Flips one modeled counter bit, addressed in `0..counter_bits()`
    /// (16 consecutive bits per counter). The corruption propagates into
    /// the threshold when the current window completes.
    ///
    /// # Panics
    ///
    /// Panics if `bit` is out of range.
    pub fn flip_counter_bit(&mut self, bit: u64) {
        assert!(bit < self.counter_bits(), "counter bit out of range");
        let bin = (bit / 16) as usize;
        let k = (bit % 16) as u32;
        let current = self.hist.count(bin);
        self.hist.set_count(bin, current ^ (1 << k));
    }

    /// Discards the current window and restores the permissive threshold —
    /// the recovery after a detected counter corruption. The next full
    /// window recomputes an honest median.
    pub fn reset_window(&mut self) {
        self.hist.clear();
        self.seen_in_window = 0;
        self.threshold = self.words_per_line();
    }

    /// Checks that the threshold is within `1..=words_per_line`. Observed
    /// lines always use at least one word (the demand word), so a
    /// threshold of 0 can only come from corrupted counters.
    pub fn check_invariants(&self) -> Result<(), LdisError> {
        let wpl = self.words_per_line();
        if self.threshold == 0 || self.threshold > wpl {
            Err(LdisError::MedianOutOfRange {
                threshold: self.threshold,
                words_per_line: wpl,
            })
        } else {
            Ok(())
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn starts_permissive() {
        let mt = MedianTracker::new(8, 4096);
        assert_eq!(mt.threshold(), 8);
        assert_eq!(mt.windows_completed(), 0);
    }

    #[test]
    fn bimodal_distribution_latches_low_median() {
        // The paper's swim example: ~half the evictions use 1 word, half
        // use all 8. The cumulative rule reaches half the eviction-sum at
        // bin 1, so the threshold becomes 1 and the 8-word lines are
        // filtered out.
        let mut mt = MedianTracker::new(8, 100);
        for i in 0..100 {
            mt.observe(if i % 2 == 0 { 1 } else { 8 });
        }
        assert_eq!(mt.windows_completed(), 1);
        assert_eq!(mt.threshold(), 1);
    }

    #[test]
    fn window_reset_adapts_to_phases() {
        let mut mt = MedianTracker::new(8, 10);
        for _ in 0..10 {
            mt.observe(2);
        }
        assert_eq!(mt.threshold(), 2);
        for _ in 0..10 {
            mt.observe(7);
        }
        assert_eq!(mt.threshold(), 7);
        assert_eq!(mt.windows_completed(), 2);
    }

    #[test]
    fn threshold_unchanged_mid_window() {
        let mut mt = MedianTracker::new(8, 100);
        for _ in 0..99 {
            mt.observe(1);
        }
        assert_eq!(mt.threshold(), 8, "no update until the window completes");
        mt.observe(1);
        assert_eq!(mt.threshold(), 1);
    }

    #[test]
    #[should_panic(expected = "positive")]
    fn rejects_zero_interval() {
        let _ = MedianTracker::new(8, 0);
    }

    #[test]
    fn counter_corruption_shifts_then_recovers() {
        let mut mt = MedianTracker::new(8, 4);
        assert_eq!(mt.counter_bits(), 9 * 16);
        mt.check_invariants().expect("fresh tracker is consistent");
        // A high-bit flip in the bin-1 counter swamps the window: the
        // median latches at 1 even though the real evictions used 8 words.
        mt.flip_counter_bit(16 + 15);
        for _ in 0..4 {
            mt.observe(8);
        }
        assert_eq!(mt.threshold(), 1, "corrupted counter skews the median");
        mt.reset_window();
        assert_eq!(
            mt.threshold(),
            8,
            "recovery restores the permissive threshold"
        );
        for _ in 0..4 {
            mt.observe(8);
        }
        assert_eq!(mt.threshold(), 8, "next window recomputes honestly");
    }

    #[test]
    fn bin_zero_corruption_is_caught_by_the_checker() {
        let mut mt = MedianTracker::new(8, 2);
        // Real lines never use 0 words; only a flipped bin-0 counter can
        // drive the median there.
        mt.flip_counter_bit(15);
        mt.observe(3);
        mt.observe(3);
        assert_eq!(mt.threshold(), 0);
        assert!(matches!(
            mt.check_invariants(),
            Err(LdisError::MedianOutOfRange {
                threshold: 0,
                words_per_line: 8
            })
        ));
        mt.reset_window();
        mt.check_invariants().expect("reset restores the invariant");
    }

    #[test]
    fn double_flip_restores_counters() {
        let mut mt = MedianTracker::new(8, 100);
        mt.observe(2);
        mt.flip_counter_bit(3);
        mt.flip_counter_bit(3);
        let mut same = MedianTracker::new(8, 100);
        same.observe(2);
        assert_eq!(mt.threshold(), same.threshold());
    }
}
