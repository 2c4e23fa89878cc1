//! The per-line used-word bit vector ("footprint", Section 3 of the paper).

use crate::WordIndex;
use std::fmt;

/// A bit vector recording which words of a cache line have been accessed.
///
/// The paper associates one footprint with every line in the L1D and in the
/// LOC; bits are set as the processor touches words and OR-merged when a
/// line's footprint is written back from L1D to the LOC (Section 4.1).
///
/// The representation holds up to 16 words, covering every geometry that
/// [`LineGeometry`](crate::LineGeometry) accepts.
///
/// # Example
///
/// ```
/// use ldis_mem::{Footprint, WordIndex};
///
/// let mut fp = Footprint::empty();
/// fp.touch(WordIndex::new(0));
/// fp.touch(WordIndex::new(7));
/// assert_eq!(fp.used_words(), 2);
/// assert!(fp.is_used(WordIndex::new(7)));
/// assert!(!fp.is_used(WordIndex::new(3)));
/// ```
#[derive(Clone, Copy, PartialEq, Eq, Hash, Default)]
#[repr(transparent)]
pub struct Footprint(u16);

impl Footprint {
    /// A footprint with no words used (the reset state when a line is
    /// installed, Section 3).
    pub const fn empty() -> Self {
        Footprint(0)
    }

    /// A footprint with the first `words_per_line` words all used.
    pub const fn full(words_per_line: u8) -> Self {
        debug_assert!(words_per_line <= 16);
        if words_per_line >= 16 {
            Footprint(u16::MAX)
        } else {
            Footprint((1u16 << words_per_line) - 1)
        }
    }

    /// Builds a footprint from raw bits (bit *i* = word *i* used).
    pub const fn from_bits(bits: u16) -> Self {
        Footprint(bits)
    }

    /// The raw bits.
    pub const fn bits(self) -> u16 {
        self.0
    }

    /// Marks word `word` as used. Returns `true` if the bit was newly set —
    /// i.e. whether this access is a *footprint-change* in the sense of
    /// Section 3 (used for the Figure 2 recency analysis).
    pub fn touch(&mut self, word: WordIndex) -> bool {
        let mask = 1u16 << word.get();
        let changed = self.0 & mask == 0;
        self.0 |= mask;
        changed
    }

    /// Marks the inclusive range `first..=last` as used. Returns `true` if
    /// any bit was newly set. A single shift-mask expression; the per-word
    /// loop it replaced survives as the reference implementation in
    /// `tests/hotpath_equivalence.rs`.
    pub fn touch_span(&mut self, first: WordIndex, last: WordIndex) -> bool {
        let mask = crate::bitops::span_mask16(first.get(), last.get());
        let changed = mask & !self.0 != 0;
        self.0 |= mask;
        changed
    }

    /// The footprint covering exactly the inclusive range `first..=last`.
    pub const fn span(first: WordIndex, last: WordIndex) -> Footprint {
        Footprint(crate::bitops::span_mask16(first.get(), last.get()))
    }

    /// Whether word `word` has been used.
    pub const fn is_used(self, word: WordIndex) -> bool {
        self.0 & (1u16 << word.get()) != 0
    }

    /// Number of words used.
    #[expect(
        clippy::cast_possible_truncation,
        reason = "the popcount of a u16 is at most 16"
    )]
    pub const fn used_words(self) -> u8 {
        self.0.count_ones() as u8
    }

    /// Whether no word has been used.
    pub const fn is_empty(self) -> bool {
        self.0 == 0
    }

    /// OR-merges another footprint into this one (the L1D → LOC merge of
    /// Section 4.1).
    pub fn merge(&mut self, other: Footprint) {
        self.0 |= other.0;
    }

    /// Returns the merged footprint without mutating either operand.
    #[must_use]
    pub const fn merged(self, other: Footprint) -> Footprint {
        Footprint(self.0 | other.0)
    }

    /// Whether every word used by `other` is also used by `self`.
    pub const fn covers(self, other: Footprint) -> bool {
        self.0 & other.0 == other.0
    }

    /// Iterates over the indices of used words, in increasing order.
    pub fn iter_used(self) -> impl Iterator<Item = WordIndex> {
        (0u8..16).filter_map(move |i| {
            if self.0 & (1u16 << i) != 0 {
                Some(WordIndex::new(i))
            } else {
                None
            }
        })
    }

    /// The number of word slots the used words need in the WOC: the used
    /// word count rounded up to a power of two (the WOC only stores 1, 2, 4
    /// or 8 words per line, Section 5.1). Returns 0 for an empty footprint.
    pub const fn woc_slots(self) -> u8 {
        let used = self.used_words();
        if used == 0 {
            0
        } else {
            used.next_power_of_two()
        }
    }
}

impl fmt::Debug for Footprint {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "Footprint({:#018b})", self.0)
    }
}

impl fmt::Display for Footprint {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:016b}", self.0)
    }
}

impl fmt::Binary for Footprint {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt::Binary::fmt(&self.0, f)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn touch_reports_footprint_change() {
        let mut fp = Footprint::empty();
        assert!(fp.touch(WordIndex::new(3)));
        assert!(!fp.touch(WordIndex::new(3)), "second touch is not a change");
        assert!(fp.touch(WordIndex::new(0)));
        assert_eq!(fp.used_words(), 2);
    }

    #[test]
    fn touch_span_covers_inclusive_range() {
        let mut fp = Footprint::empty();
        assert!(fp.touch_span(WordIndex::new(2), WordIndex::new(4)));
        assert_eq!(fp.used_words(), 3);
        assert!(!fp.touch_span(WordIndex::new(2), WordIndex::new(4)));
        assert!(fp.is_used(WordIndex::new(2)));
        assert!(fp.is_used(WordIndex::new(4)));
        assert!(!fp.is_used(WordIndex::new(5)));
    }

    #[test]
    fn touch_span_matches_per_word_loop_for_all_pairs() {
        // Exhaustive over the 8-word geometry (64 B lines / 8 B words): for
        // every (first, last) pair and a spread of pre-existing footprints,
        // the shift-mask touch_span must leave the same bits and report the
        // same change flag as the historical per-word loop.
        for first in 0u8..8 {
            for last in first..8 {
                for pre in [0u16, 0b1010_1010, 0b0101_0101, 0xff, 1 << first, 1 << last] {
                    let mut fast = Footprint::from_bits(pre);
                    let got = fast.touch_span(WordIndex::new(first), WordIndex::new(last));

                    let mut slow = Footprint::from_bits(pre);
                    let mut expect = false;
                    for w in first..=last {
                        expect |= slow.touch(WordIndex::new(w));
                    }
                    assert_eq!(fast, slow, "first={first} last={last} pre={pre:#b}");
                    assert_eq!(got, expect, "first={first} last={last} pre={pre:#b}");
                }
            }
        }
    }

    #[test]
    fn span_builds_inclusive_range() {
        let fp = Footprint::span(WordIndex::new(2), WordIndex::new(5));
        assert_eq!(fp.bits(), 0b0011_1100);
        assert_eq!(fp.used_words(), 4);
    }

    #[test]
    fn full_footprint() {
        let fp = Footprint::full(8);
        assert_eq!(fp.used_words(), 8);
        assert_eq!(fp.bits(), 0xff);
        assert_eq!(Footprint::full(16).bits(), u16::MAX);
    }

    #[test]
    fn merge_is_bitwise_or() {
        let mut a = Footprint::from_bits(0b0101);
        let b = Footprint::from_bits(0b0011);
        a.merge(b);
        assert_eq!(a.bits(), 0b0111);
        assert_eq!(Footprint::from_bits(0b0101).merged(b).bits(), 0b0111);
    }

    #[test]
    fn covers_checks_subset() {
        let big = Footprint::from_bits(0b1110);
        let small = Footprint::from_bits(0b0110);
        assert!(big.covers(small));
        assert!(!small.covers(big));
        assert!(big.covers(Footprint::empty()));
    }

    #[test]
    fn iter_used_yields_sorted_indices() {
        let fp = Footprint::from_bits(0b1000_0101);
        let words: Vec<u8> = fp.iter_used().map(WordIndex::get).collect();
        assert_eq!(words, vec![0, 2, 7]);
    }

    #[test]
    fn woc_slots_rounds_to_power_of_two() {
        assert_eq!(Footprint::empty().woc_slots(), 0);
        assert_eq!(Footprint::from_bits(0b1).woc_slots(), 1);
        assert_eq!(Footprint::from_bits(0b11).woc_slots(), 2);
        assert_eq!(Footprint::from_bits(0b111).woc_slots(), 4);
        assert_eq!(Footprint::from_bits(0b1111).woc_slots(), 4);
        assert_eq!(Footprint::from_bits(0b11111).woc_slots(), 8);
        assert_eq!(Footprint::full(8).woc_slots(), 8);
    }

    #[test]
    fn display_formats() {
        let fp = Footprint::from_bits(0b101);
        assert_eq!(format!("{fp}"), "0000000000000101");
        assert_eq!(format!("{fp:b}"), "101");
    }
}
