//! The spatial footprint predictor table (Kumar & Wilkerson, ISCA '98).

use ldis_mem::{Addr, Footprint, WordIndex};

/// A table of predicted footprints indexed by a hash of the miss-causing
/// instruction's PC and the offset of the demanded word — the indexing
/// scheme of the original SFP proposal. The line address is deliberately
/// not part of the index: the predictor generalizes across all lines
/// touched by the same instruction.
///
/// Untrained entries predict the full line (a conservative default that
/// degenerates to a traditional cache fill). Training happens at eviction
/// time with the line's observed footprint.
///
/// # Example
///
/// ```
/// use ldis_sfp::FootprintPredictor;
/// use ldis_mem::{Addr, Footprint, WordIndex};
///
/// let mut p = FootprintPredictor::new(16 * 1024, 8);
/// let (pc, word) = (Addr::new(0x400100), WordIndex::new(2));
/// assert_eq!(p.predict(pc, word), Footprint::full(8)); // untrained
/// p.train(pc, word, Footprint::from_bits(0b0101));
/// assert_eq!(p.predict(pc, word), Footprint::from_bits(0b0101));
/// ```
#[derive(Clone, Debug)]
pub struct FootprintPredictor {
    table: Vec<u16>,
    trained: Vec<bool>,
    entries: usize,
    words_per_line: u8,
}

impl FootprintPredictor {
    /// Creates a predictor with `entries` table entries (the paper
    /// evaluates 16 k- and 64 k-entry tables in Figure 13).
    ///
    /// # Panics
    ///
    /// Panics if `entries` is not a positive power of two.
    pub fn new(entries: usize, words_per_line: u8) -> Self {
        assert!(
            entries > 0 && entries.is_power_of_two(),
            "table entries must be a positive power of two"
        );
        FootprintPredictor {
            table: vec![0; entries],
            trained: vec![false; entries],
            entries,
            words_per_line,
        }
    }

    /// Number of table entries.
    pub fn entries(&self) -> usize {
        self.entries
    }

    /// Storage cost in bytes: footprint bits per entry (as in the paper's
    /// 64 kB / 256 kB figures for 16 k / 64 k entries, i.e. 4 B per entry).
    pub fn storage_bytes(&self) -> usize {
        self.entries * 4
    }

    #[expect(
        clippy::cast_possible_truncation,
        reason = "reduced modulo the entry count, a usize"
    )]
    fn index(&self, pc: Addr, word: WordIndex) -> usize {
        let mut x = pc.raw() ^ (word.get() as u64).rotate_left(32);
        x = (x ^ (x >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        x = (x ^ (x >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        ((x ^ (x >> 31)) % self.entries as u64) as usize
    }

    /// Predicts which words of a missing line will be used, given the
    /// miss PC and demanded word. Always includes the demanded word.
    pub fn predict(&self, pc: Addr, word: WordIndex) -> Footprint {
        let idx = self.index(pc, word);
        // `idx < entries == table.len()` by the modulo in `index`, so the
        // untrained fallback also covers the impossible misses.
        let mut fp = match (self.trained.get(idx), self.table.get(idx)) {
            (Some(true), Some(bits)) => Footprint::from_bits(*bits),
            _ => Footprint::full(self.words_per_line),
        };
        fp.touch(word);
        fp
    }

    /// Trains the entry for `(pc, line, word)` with the footprint observed
    /// over the line's residency.
    pub fn train(&mut self, pc: Addr, word: WordIndex, observed: Footprint) {
        let idx = self.index(pc, word);
        if let Some(slot) = self.table.get_mut(idx) {
            *slot = observed.bits();
        }
        if let Some(flag) = self.trained.get_mut(idx) {
            *flag = true;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn untrained_predicts_full_line() {
        let p = FootprintPredictor::new(1024, 8);
        let fp = p.predict(Addr::new(1), WordIndex::new(3));
        assert_eq!(fp, Footprint::full(8));
    }

    #[test]
    fn prediction_always_includes_demand_word() {
        let mut p = FootprintPredictor::new(1024, 8);
        let pc = Addr::new(0x44);
        p.train(pc, WordIndex::new(5), Footprint::from_bits(0b1));
        let fp = p.predict(pc, WordIndex::new(5));
        assert!(fp.is_used(WordIndex::new(5)));
        assert!(fp.is_used(WordIndex::new(0)));
        assert_eq!(fp.used_words(), 2);
    }

    #[test]
    fn different_pcs_use_different_entries() {
        let mut p = FootprintPredictor::new(64 * 1024, 8);
        let w = WordIndex::new(0);
        p.train(Addr::new(0x1000), w, Footprint::from_bits(0b11));
        // An unrelated PC should (overwhelmingly likely) stay untrained.
        assert_eq!(p.predict(Addr::new(0x2000), w), Footprint::full(8));
    }

    #[test]
    fn storage_matches_paper_figures() {
        assert_eq!(
            FootprintPredictor::new(16 * 1024, 8).storage_bytes(),
            64 << 10
        );
        assert_eq!(
            FootprintPredictor::new(64 * 1024, 8).storage_bytes(),
            256 << 10
        );
    }

    #[test]
    #[should_panic(expected = "power of two")]
    fn rejects_non_power_of_two() {
        let _ = FootprintPredictor::new(1000, 8);
    }
}
