//! One set of a set-associative cache: entries plus a true-LRU stack.

use crate::TagEntry;

/// A cache set: `ways` tag entries plus an explicit recency stack.
///
/// The recency stack is a permutation of way indices with the MRU way at
/// position 0 and the LRU way at position `ways - 1` — exactly the "recency
/// position" numbering of the paper's Section 3 (MRU = position 0, LRU =
/// position `ways - 1`).
#[derive(Clone, Debug)]
pub struct CacheSet {
    entries: Vec<TagEntry>,
    /// `order[pos]` = way index at recency position `pos` (0 = MRU).
    order: Vec<u8>,
}

impl CacheSet {
    /// Creates an empty set with `ways` ways.
    ///
    /// # Panics
    ///
    /// Panics if `ways` is 0 or greater than 255.
    #[expect(
        clippy::cast_possible_truncation,
        reason = "the assert bounds ways to 1..=255"
    )]
    pub fn new(ways: u32) -> Self {
        assert!((1..=255).contains(&ways), "ways must be in 1..=255");
        CacheSet {
            entries: vec![TagEntry::invalid(); ways as usize],
            order: (0..ways as u8).collect(),
        }
    }

    /// Number of ways.
    pub fn ways(&self) -> usize {
        self.entries.len()
    }

    /// The way holding `tag`, if present and valid.
    pub fn find(&self, tag: u64) -> Option<usize> {
        self.entries.iter().position(|e| e.valid && e.tag == tag)
    }

    /// The recency position of `way` (0 = MRU).
    ///
    /// # Panics
    ///
    /// Panics if `way` is out of range.
    #[expect(
        clippy::expect_used,
        reason = "documented panic contract: the recency order is a permutation of the ways by construction, so position_of/victim_way cannot miss; a panic here means the set is corrupt and continuing would corrupt stats"
    )]
    #[expect(
        clippy::cast_possible_truncation,
        reason = "position over the recency order, whose length is ways, asserted 1..=255 in new()"
    )]
    pub fn position_of(&self, way: usize) -> u8 {
        self.order
            .iter()
            .position(|&w| w as usize == way)
            .expect("way must be a member of the recency order") as u8
    }

    /// Promotes `way` to MRU, returning its recency position *before* the
    /// promotion (the position an access observes, per Section 3).
    pub fn promote(&mut self, way: usize) -> u8 {
        let pos = self.position_of(way);
        let w = self.order.remove(pos as usize);
        self.order.insert(0, w);
        pos
    }

    /// The way a new line should replace: the first invalid way if any,
    /// otherwise the LRU way.
    #[expect(
        clippy::expect_used,
        reason = "documented panic contract: the recency order is a permutation of the ways by construction, so position_of/victim_way cannot miss; a panic here means the set is corrupt and continuing would corrupt stats"
    )]
    pub fn victim_way(&self) -> usize {
        if let Some(w) = self.entries.iter().position(|e| !e.valid) {
            return w;
        }
        *self.order.last().expect("sets have at least one way") as usize
    }

    /// Shared access to the entry in `way`.
    ///
    /// # Panics
    ///
    /// Panics if `way` is out of range — an out-of-range way is a caller
    /// bug, never a data-dependent condition.
    #[expect(
        clippy::indexing_slicing,
        reason = "documented panic contract of the way accessor"
    )]
    pub fn entry(&self, way: usize) -> &TagEntry {
        &self.entries[way]
    }

    /// Exclusive access to the entry in `way`.
    ///
    /// # Panics
    ///
    /// Panics if `way` is out of range.
    #[expect(
        clippy::indexing_slicing,
        reason = "documented panic contract of the way accessor"
    )]
    pub fn entry_mut(&mut self, way: usize) -> &mut TagEntry {
        &mut self.entries[way]
    }

    /// Iterates over all entries (valid and invalid).
    pub fn iter(&self) -> impl Iterator<Item = &TagEntry> {
        self.entries.iter()
    }

    /// The way index at recency position `pos` (0 = MRU).
    ///
    /// # Panics
    ///
    /// Panics if `pos` is not a valid recency position.
    #[expect(
        clippy::indexing_slicing,
        reason = "documented panic contract of the recency accessor"
    )]
    pub fn way_at_position(&self, pos: u8) -> usize {
        self.order[pos as usize] as usize
    }

    /// Returns the recency order as way indices, MRU first. Primarily for
    /// tests and invariant checks.
    pub fn recency_order(&self) -> &[u8] {
        &self.order
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn installed(set: &mut CacheSet, way: usize, tag: u64) {
        set.entry_mut(way).install(tag, false, false);
        set.promote(way);
    }

    #[test]
    fn empty_set_has_no_matches() {
        let set = CacheSet::new(4);
        assert_eq!(set.find(0), None);
        assert_eq!(set.ways(), 4);
    }

    #[test]
    fn find_locates_valid_tags_only() {
        let mut set = CacheSet::new(4);
        installed(&mut set, 0, 10);
        assert_eq!(set.find(10), Some(0));
        assert_eq!(set.find(11), None);
        set.entry_mut(0).valid = false;
        assert_eq!(set.find(10), None);
    }

    #[test]
    fn promote_returns_prior_position_and_moves_to_mru() {
        let mut set = CacheSet::new(4);
        for (w, t) in [(0usize, 10u64), (1, 11), (2, 12), (3, 13)] {
            installed(&mut set, w, t);
        }
        // Install order 0,1,2,3 → recency order (MRU..LRU) = 3,2,1,0.
        assert_eq!(set.recency_order(), &[3, 2, 1, 0]);
        let pos = set.promote(1);
        assert_eq!(pos, 2);
        assert_eq!(set.recency_order(), &[1, 3, 2, 0]);
        assert_eq!(set.position_of(1), 0);
        assert_eq!(set.position_of(0), 3);
    }

    #[test]
    fn victim_prefers_invalid_ways() {
        let mut set = CacheSet::new(3);
        installed(&mut set, 0, 10);
        installed(&mut set, 2, 12);
        assert_eq!(set.victim_way(), 1);
        installed(&mut set, 1, 11);
        // All valid now: LRU is way 0 (installed first).
        assert_eq!(set.victim_way(), 0);
    }

    #[test]
    fn recency_order_is_always_a_permutation() {
        let mut set = CacheSet::new(8);
        for i in 0..100u64 {
            let way = (i % 8) as usize;
            installed(&mut set, way, i);
            let mut sorted: Vec<u8> = set.recency_order().to_vec();
            sorted.sort_unstable();
            assert_eq!(sorted, (0..8u8).collect::<Vec<_>>());
        }
    }

    #[test]
    fn way_at_position_inverts_position_of() {
        let mut set = CacheSet::new(4);
        for (w, t) in [(0usize, 1u64), (1, 2), (2, 3), (3, 4)] {
            installed(&mut set, w, t);
        }
        for pos in 0..4u8 {
            assert_eq!(set.position_of(set.way_at_position(pos)), pos);
        }
    }

    #[test]
    #[should_panic(expected = "1..=255")]
    fn rejects_zero_ways() {
        let _ = CacheSet::new(0);
    }
}
