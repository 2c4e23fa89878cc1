//! Per-line word-usage profiles and per-address value models.
//!
//! The paper's results are driven by three per-benchmark distributions:
//! how many words of a line get used (Figure 1 / Table 6), *which* words
//! (sticky per line, so footprints stabilize — Figure 2), and what values
//! the words hold (compressibility, Figure 10). This module provides
//! deterministic, hash-derived versions of all three so that a line always
//! behaves the same way no matter when it is revisited.

use ldis_mem::{Footprint, LineAddr};

fn mix64(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9e37_79b9_7f4a_7c15);
    x = (x ^ (x >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    x ^ (x >> 31)
}

/// A distribution over the number of words used per line (1..=8), sampled
/// deterministically per line address.
///
/// # Example
///
/// ```
/// use ldis_workloads::WordsProfile;
/// use ldis_mem::LineAddr;
///
/// let p = WordsProfile::sparse(); // mostly 1–2 words
/// let fp = p.footprint_for(LineAddr::new(42), 7);
/// // Deterministic: the same line always uses the same words.
/// assert_eq!(fp, p.footprint_for(LineAddr::new(42), 7));
/// assert!(fp.used_words() >= 1);
/// ```
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct WordsProfile {
    /// `weights[k]` is the relative probability that a line uses `k + 1`
    /// words (k in 0..8).
    weights: [f64; 8],
    cumulative: [f64; 8],
}

impl WordsProfile {
    /// Creates a profile from relative weights for 1..=8 used words.
    ///
    /// # Panics
    ///
    /// Panics if all weights are zero or any is negative.
    pub fn new(weights: [f64; 8]) -> Self {
        assert!(
            weights.iter().all(|&w| w >= 0.0),
            "weights must be non-negative"
        );
        let total: f64 = weights.iter().sum();
        assert!(total > 0.0, "at least one weight must be positive");
        let mut cumulative = [0.0; 8];
        let mut acc = 0.0;
        for (c, &w) in cumulative.iter_mut().zip(&weights) {
            acc += w / total;
            *c = acc;
        }
        // Pin the final bucket to exactly 1.0 against rounding drift.
        if let Some(last) = cumulative.last_mut() {
            *last = 1.0;
        }
        WordsProfile {
            weights,
            cumulative,
        }
    }

    /// Every line uses exactly `n` words.
    ///
    /// # Panics
    ///
    /// Panics if `n` is not in 1..=8.
    pub fn exactly(n: u8) -> Self {
        assert!((1..=8).contains(&n), "word count must be in 1..=8");
        let mut w = [0.0; 8];
        if let Some(slot) = w.get_mut(n as usize - 1) {
            *slot = 1.0;
        }
        WordsProfile::new(w)
    }

    /// A pointer-chasing profile: mostly 1–2 words (art/mcf-like, average
    /// ≈ 1.8).
    pub fn sparse() -> Self {
        WordsProfile::new([0.45, 0.38, 0.1, 0.04, 0.02, 0.01, 0.0, 0.0])
    }

    /// A mixed profile averaging ≈ 3.2 words (twolf-like).
    pub fn mixed() -> Self {
        WordsProfile::new([0.22, 0.2, 0.18, 0.14, 0.1, 0.07, 0.05, 0.04])
    }

    /// A dense profile: most lines use 7–8 words (facerec/apsi-like,
    /// average ≈ 7).
    pub fn dense() -> Self {
        WordsProfile::new([0.02, 0.02, 0.03, 0.04, 0.06, 0.1, 0.18, 0.55])
    }

    /// The expected number of words used.
    pub fn mean(&self) -> f64 {
        let total: f64 = self.weights.iter().sum();
        self.weights
            .iter()
            .enumerate()
            .map(|(k, &w)| (k + 1) as f64 * w / total)
            .sum()
    }

    /// The number of words line `line` uses (deterministic).
    pub fn words_for(&self, line: LineAddr, salt: u64) -> u8 {
        let h = mix64(line.raw() ^ salt.rotate_left(17));
        let u = (h >> 11) as f64 * (1.0 / (1u64 << 53) as f64);
        for (k, &c) in self.cumulative.iter().enumerate() {
            if u < c {
                #[expect(
                    clippy::cast_possible_truncation,
                    reason = "k indexes the 8-entry cumulative table"
                )]
                return k as u8 + 1;
            }
        }
        8
    }

    /// The sticky footprint of `line`: `words_for` contiguous words starting
    /// at a hash-derived offset. Contiguity models struct-field locality;
    /// stickiness is what lets footprints stabilize in the LRU stack.
    pub fn footprint_for(&self, line: LineAddr, salt: u64) -> Footprint {
        let count = self.words_for(line, salt);
        let h = mix64(line.raw().rotate_left(23) ^ salt);
        #[expect(
            clippy::cast_possible_truncation,
            reason = "count is 1..=8 from words_for, so h % (8 - count + 1) is at most 7"
        )]
        let start = (h % (8 - count as u64 + 1)) as u8;
        let mut fp = Footprint::empty();
        fp.touch_span(
            ldis_mem::WordIndex::new(start),
            ldis_mem::WordIndex::new(start + count - 1),
        );
        fp
    }
}

/// The four 32-bit encoding classes of Table 4.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum WordClass {
    /// The value 0 (2-bit code).
    Zero,
    /// The value 1 (2-bit code).
    One,
    /// Upper 16 bits are zero (2-bit code + 16 bits).
    Narrow,
    /// Incompressible (2-bit code + 32 bits).
    Full,
}

/// A per-benchmark model of the values stored in memory, at 32-bit
/// granularity, used by the compression experiments (Section 8).
///
/// Values are a deterministic function of the 32-bit-aligned address, so
/// the compressibility of a line never changes between samples.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct ValueProfile {
    /// Probability that a 32-bit chunk is 0.
    pub p_zero: f64,
    /// Probability that a 32-bit chunk is 1.
    pub p_one: f64,
    /// Probability that a chunk fits in 16 bits (and is neither 0 nor 1).
    pub p_narrow: f64,
}

impl ValueProfile {
    /// Creates a profile; the remaining probability mass is incompressible.
    ///
    /// # Panics
    ///
    /// Panics if any probability is negative or they sum above 1.
    pub fn new(p_zero: f64, p_one: f64, p_narrow: f64) -> Self {
        assert!(
            p_zero >= 0.0 && p_one >= 0.0 && p_narrow >= 0.0,
            "probabilities must be non-negative"
        );
        assert!(
            p_zero + p_one + p_narrow <= 1.0 + 1e-12,
            "probabilities must sum to at most 1"
        );
        ValueProfile {
            p_zero,
            p_one,
            p_narrow,
        }
    }

    /// Pointer-heavy integer code: many zeros and narrow values
    /// (mcf-like, highly compressible once filtered).
    pub fn pointer_heavy() -> Self {
        ValueProfile::new(0.35, 0.05, 0.3)
    }

    /// Mixed integer data (twolf/bzip2-like).
    pub fn mixed_int() -> Self {
        ValueProfile::new(0.2, 0.05, 0.2)
    }

    /// Floating-point data: mostly incompressible (swim/galgel-like).
    pub fn float_heavy() -> Self {
        ValueProfile::new(0.08, 0.0, 0.05)
    }

    /// The uniform draw in `[0, 1)` that picks the class of the chunk at
    /// `addr4`.
    #[inline]
    fn draw(addr4: u64, salt: u64) -> f64 {
        let h = mix64(addr4 ^ salt.rotate_left(29));
        (h >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }

    /// The class of the 32-bit chunk at 4-byte-aligned address `addr4`
    /// (the address divided by 4).
    pub fn class_at(&self, addr4: u64, salt: u64) -> WordClass {
        let u = Self::draw(addr4, salt);
        if u < self.p_zero {
            WordClass::Zero
        } else if u < self.p_zero + self.p_one {
            WordClass::One
        } else if u < self.p_zero + self.p_one + self.p_narrow {
            WordClass::Narrow
        } else {
            WordClass::Full
        }
    }

    /// How many 16-bit halves of the chunk at `addr4` its encoding stores
    /// (Table 4's payload): 0 for [`WordClass::Zero`] and
    /// [`WordClass::One`], 1 for [`WordClass::Narrow`], 2 for
    /// [`WordClass::Full`].
    ///
    /// It counts the class thresholds `p_zero + p_one` and
    /// `p_zero + p_one + p_narrow` that the chunk's draw reaches: the same
    /// draw and the same f64 sums, in the same order, as
    /// [`class_at`](Self::class_at). With non-negative probabilities the
    /// thresholds are monotone, so the count always names `class_at`'s
    /// class, but it takes two compares where `class_at` takes a chain of
    /// branches whose direction is a random draw.
    #[inline]
    pub fn payload_halves(&self, addr4: u64, salt: u64) -> u32 {
        let u = Self::draw(addr4, salt);
        let narrow = self.p_zero + self.p_one;
        let full = narrow + self.p_narrow;
        u32::from(u >= narrow) + u32::from(u >= full)
    }

    /// A concrete 32-bit value of the class at `addr4`.
    #[expect(
        clippy::cast_possible_truncation,
        reason = "intentional fold of the 64-bit hash to a 32-bit word value"
    )]
    pub fn value_at(&self, addr4: u64, salt: u64) -> u32 {
        let h = mix64(addr4.rotate_left(13) ^ salt);
        match self.class_at(addr4, salt) {
            WordClass::Zero => 0,
            WordClass::One => 1,
            WordClass::Narrow => {
                // 2..=0xffff: never 0 or 1, upper half zero.
                ((h as u32) & 0xffff).max(2)
            }
            WordClass::Full => (h as u32) | 0x0001_0000,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn words_profile_mean_matches_weights() {
        assert!((WordsProfile::exactly(8).mean() - 8.0).abs() < 1e-12);
        let sparse = WordsProfile::sparse().mean();
        assert!((1.5..2.2).contains(&sparse), "sparse mean {sparse}");
        let dense = WordsProfile::dense().mean();
        assert!((6.5..8.0).contains(&dense), "dense mean {dense}");
    }

    #[test]
    fn sampled_mean_tracks_profile_mean() {
        let p = WordsProfile::mixed();
        let n = 20_000u64;
        let sum: u64 = (0..n)
            .map(|i| p.words_for(LineAddr::new(i), 3) as u64)
            .sum();
        let got = sum as f64 / n as f64;
        assert!((got - p.mean()).abs() < 0.1, "got {got}, want {}", p.mean());
    }

    #[test]
    fn footprints_are_sticky_and_contiguous() {
        let p = WordsProfile::mixed();
        for i in 0..200u64 {
            let line = LineAddr::new(i);
            let fp = p.footprint_for(line, 9);
            assert_eq!(fp, p.footprint_for(line, 9), "sticky");
            let words: Vec<u8> = fp.iter_used().map(|w| w.get()).collect();
            assert!(!words.is_empty());
            for pair in words.windows(2) {
                assert_eq!(pair[1], pair[0] + 1, "contiguous");
            }
        }
    }

    #[test]
    fn different_salts_differ() {
        let p = WordsProfile::mixed();
        let distinct = (0..100u64)
            .filter(|&i| {
                p.footprint_for(LineAddr::new(i), 1) != p.footprint_for(LineAddr::new(i), 2)
            })
            .count();
        assert!(distinct > 30, "salts should decorrelate, got {distinct}");
    }

    #[test]
    fn value_classes_match_probabilities() {
        let v = ValueProfile::new(0.5, 0.1, 0.2);
        let n = 40_000u64;
        let mut counts = [0u64; 4];
        for i in 0..n {
            let idx = match v.class_at(i, 7) {
                WordClass::Zero => 0,
                WordClass::One => 1,
                WordClass::Narrow => 2,
                WordClass::Full => 3,
            };
            counts[idx] += 1;
        }
        let frac = |c: u64| c as f64 / n as f64;
        assert!((frac(counts[0]) - 0.5).abs() < 0.02);
        assert!((frac(counts[1]) - 0.1).abs() < 0.02);
        assert!((frac(counts[2]) - 0.2).abs() < 0.02);
        assert!((frac(counts[3]) - 0.2).abs() < 0.02);
    }

    #[test]
    fn values_are_consistent_with_classes() {
        let v = ValueProfile::mixed_int();
        for i in 0..2000u64 {
            let value = v.value_at(i, 5);
            match v.class_at(i, 5) {
                WordClass::Zero => assert_eq!(value, 0),
                WordClass::One => assert_eq!(value, 1),
                WordClass::Narrow => {
                    assert!(value > 1 && value <= 0xffff, "narrow value {value:#x}")
                }
                WordClass::Full => assert!(value > 0xffff, "full value {value:#x}"),
            }
        }
    }

    #[test]
    fn values_are_deterministic() {
        let v = ValueProfile::pointer_heavy();
        assert_eq!(v.value_at(123, 9), v.value_at(123, 9));
    }

    #[test]
    #[should_panic(expected = "at most 1")]
    fn rejects_overweight_values() {
        let _ = ValueProfile::new(0.8, 0.3, 0.2);
    }

    #[test]
    #[should_panic(expected = "positive")]
    fn rejects_all_zero_weights() {
        let _ = WordsProfile::new([0.0; 8]);
    }
}
