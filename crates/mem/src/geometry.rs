//! Line/word geometry arithmetic.

use crate::{Addr, LineAddr, WordIndex};

/// The line-size and word-size geometry of a cache.
///
/// All address arithmetic in the simulator goes through this type so that
/// the same code supports the paper's baseline (64 B lines, 8 B words —
/// Section 2 fixes the word size at 8 B because the Alpha ISA's largest
/// access is 8 B) as well as the line-size sensitivity studies of
/// Section 7.5.1 (128 B, 256 B) and the word-size ablation.
///
/// Both sizes must be powers of two and the line must hold at least two and
/// at most sixteen words ([`Footprint`](crate::Footprint) stores up to 16
/// used bits).
///
/// # Example
///
/// ```
/// use ldis_mem::{Addr, LineGeometry};
///
/// let geom = LineGeometry::new(64, 8);
/// assert_eq!(geom.words_per_line(), 8);
/// let a = Addr::new(0x12345);
/// assert_eq!(geom.line_addr(a).raw(), 0x12345 >> 6);
/// assert_eq!(geom.word_index(a).get(), 0);
/// ```
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub struct LineGeometry {
    line_bytes: u32,
    word_bytes: u32,
    line_shift: u32,
    word_shift: u32,
}

impl LineGeometry {
    /// Creates a geometry with the given line size and word size in bytes.
    ///
    /// # Panics
    ///
    /// Panics if either size is not a power of two, if `word_bytes` does not
    /// divide `line_bytes`, or if the line holds fewer than 2 or more than
    /// 16 words.
    pub fn new(line_bytes: u32, word_bytes: u32) -> Self {
        assert!(
            line_bytes.is_power_of_two(),
            "line size must be a power of two, got {line_bytes}"
        );
        assert!(
            word_bytes.is_power_of_two(),
            "word size must be a power of two, got {word_bytes}"
        );
        assert!(
            word_bytes < line_bytes,
            "word size {word_bytes} must be smaller than line size {line_bytes}"
        );
        let words = line_bytes / word_bytes;
        assert!(
            (2..=16).contains(&words),
            "a line must hold 2..=16 words, got {words}"
        );
        LineGeometry {
            line_bytes,
            word_bytes,
            line_shift: line_bytes.trailing_zeros(),
            word_shift: word_bytes.trailing_zeros(),
        }
    }

    /// Line size in bytes.
    pub const fn line_bytes(&self) -> u32 {
        self.line_bytes
    }

    /// Word size in bytes.
    pub const fn word_bytes(&self) -> u32 {
        self.word_bytes
    }

    /// Number of words in a line.
    #[expect(
        clippy::cast_possible_truncation,
        reason = "new() asserts the quotient line_bytes / word_bytes lies in 2..=16"
    )]
    pub const fn words_per_line(&self) -> u8 {
        (self.line_bytes / self.word_bytes) as u8
    }

    /// The line address containing the byte address `addr`.
    pub const fn line_addr(&self, addr: Addr) -> LineAddr {
        LineAddr::new(addr.raw() >> self.line_shift)
    }

    /// The first byte address of line `line`.
    pub const fn line_base(&self, line: LineAddr) -> Addr {
        // Cannot overflow: line addresses come from `addr >> line_shift`,
        // and `line_shift <= 7` by the power-of-two assert in `new()`.
        Addr::new(line.raw() << self.line_shift)
    }

    /// The index of the word within its line that `addr` falls in.
    #[expect(
        clippy::cast_possible_truncation,
        reason = "offset < line_bytes and word_shift = log2(word_bytes), so the shifted value is a word index below the asserted 16-word bound"
    )]
    pub const fn word_index(&self, addr: Addr) -> WordIndex {
        let offset = addr.raw() & (self.line_bytes as u64 - 1);
        WordIndex::new((offset >> self.word_shift) as u8)
    }

    /// The byte address of word `word` of line `line`.
    pub const fn word_base(&self, line: LineAddr, word: WordIndex) -> Addr {
        // Cannot overflow: the shift counts are the trailing zeros of the
        // validated power-of-two sizes (<= 7), and the word offset is below
        // `line_bytes`, so the sum stays within the line.
        Addr::new((line.raw() << self.line_shift) + ((word.get() as u64) << self.word_shift))
    }

    /// The range of word indices touched by an access of `size` bytes at
    /// `addr`, clamped to the line containing `addr` (the simulator, like
    /// the paper's Alpha traces, never issues line-crossing accesses; a
    /// crossing access is clamped rather than split).
    #[inline]
    pub fn word_span(&self, addr: Addr, size: u32) -> (WordIndex, WordIndex) {
        let first = self.word_index(addr);
        let size = size.max(1);
        let last_byte = addr.raw().saturating_add(size as u64 - 1);
        let last = if self.line_addr(Addr::new(last_byte)) == self.line_addr(addr) {
            self.word_index(Addr::new(last_byte))
        } else {
            WordIndex::new(self.words_per_line() - 1)
        };
        (first, last)
    }
}

impl Default for LineGeometry {
    /// The paper's baseline geometry: 64 B lines, 8 B words.
    fn default() -> Self {
        LineGeometry::new(64, 8)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_matches_paper_baseline() {
        let g = LineGeometry::default();
        assert_eq!(g.line_bytes(), 64);
        assert_eq!(g.word_bytes(), 8);
        assert_eq!(g.words_per_line(), 8);
    }

    #[test]
    fn line_and_word_arithmetic() {
        let g = LineGeometry::new(64, 8);
        let a = Addr::new(0x1038);
        assert_eq!(g.line_addr(a).raw(), 0x40);
        assert_eq!(g.word_index(a).get(), 7);
        assert_eq!(g.line_base(LineAddr::new(0x40)), Addr::new(0x1000));
        assert_eq!(
            g.word_base(LineAddr::new(0x40), WordIndex::new(7)),
            Addr::new(0x1038)
        );
    }

    #[test]
    fn word_span_within_one_word() {
        let g = LineGeometry::default();
        let (first, last) = g.word_span(Addr::new(0x1004), 4);
        assert_eq!(first.get(), 0);
        assert_eq!(last.get(), 0);
    }

    #[test]
    fn word_span_straddles_words() {
        let g = LineGeometry::default();
        let (first, last) = g.word_span(Addr::new(0x1004), 8);
        assert_eq!(first.get(), 0);
        assert_eq!(last.get(), 1);
    }

    #[test]
    fn word_span_clamps_at_line_end() {
        let g = LineGeometry::default();
        let (first, last) = g.word_span(Addr::new(0x103c), 16);
        assert_eq!(first.get(), 7);
        assert_eq!(last.get(), 7);
    }

    #[test]
    fn word_span_zero_size_counts_one_byte() {
        let g = LineGeometry::default();
        let (first, last) = g.word_span(Addr::new(0x1010), 0);
        assert_eq!(first, last);
        assert_eq!(first.get(), 2);
    }

    #[test]
    fn bigger_lines() {
        let g = LineGeometry::new(128, 8);
        assert_eq!(g.words_per_line(), 16);
        assert_eq!(g.word_index(Addr::new(127)).get(), 15);
        assert_eq!(g.word_index(Addr::new(128)).get(), 0);
    }

    #[test]
    fn four_byte_words() {
        let g = LineGeometry::new(32, 4);
        assert_eq!(g.words_per_line(), 8);
        assert_eq!(g.word_index(Addr::new(0x1c)).get(), 7);
    }

    #[test]
    #[should_panic(expected = "power of two")]
    fn rejects_non_power_of_two_line() {
        let _ = LineGeometry::new(48, 8);
    }

    #[test]
    #[should_panic(expected = "2..=16 words")]
    fn rejects_too_many_words() {
        let _ = LineGeometry::new(256, 8);
    }

    #[test]
    #[should_panic(expected = "must be smaller")]
    fn rejects_word_not_smaller_than_line() {
        let _ = LineGeometry::new(64, 64);
    }
}
