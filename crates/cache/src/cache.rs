//! A traditional set-associative cache with LRU replacement, footprint
//! tracking and recency instrumentation.

use crate::{CacheConfig, SetArena, TagEntry};
use ldis_mem::{Footprint, LineAddr, SetIndex, WordIndex};

/// A line evicted from a [`SetAssocCache`], carrying everything the
/// distillation machinery and the statistics need.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct EvictedLine {
    /// The evicted line's address.
    pub line: LineAddr,
    /// Whether the line was dirty.
    pub dirty: bool,
    /// Whether the line held instructions.
    pub is_instr: bool,
    /// The line's accumulated footprint.
    pub footprint: Footprint,
    /// The maximum recency position attained before the last footprint
    /// change (Figure 2 instrumentation).
    pub recency_at_last_change: u8,
}

/// Where a modeled footprint-bit flip landed (see
/// [`SetAssocCache::flip_footprint_bit`]).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct FootprintFault {
    /// The set containing the affected entry.
    pub set: SetIndex,
    /// The way of the affected entry.
    pub way: usize,
    /// The word whose footprint bit was flipped.
    pub word: WordIndex,
    /// Whether the entry was valid — a flip in an invalid entry's
    /// footprint is dead state and can never be observed.
    pub live: bool,
}

impl std::fmt::Display for FootprintFault {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "footprint bit flip: set {} way {} word {}{}",
            self.set,
            self.way,
            self.word,
            if self.live { "" } else { " (dead entry)" }
        )
    }
}

/// A traditional set-associative cache with true-LRU replacement.
///
/// Serves as the paper's baseline L2, the LOC of the distill cache, the
/// L1 instruction cache and the reverter circuit's auxiliary tag directory.
/// Tracks a [`Footprint`] per line (updated on demand accesses and by
/// L1D eviction merges) and the Figure 2 recency bookkeeping.
///
/// Storage is a flat [`SetArena`] — struct-of-arrays across all sets — so a
/// probe scans consecutive tags instead of chasing per-set allocations.
///
/// # Example
///
/// ```
/// use ldis_cache::{CacheConfig, SetAssocCache};
/// use ldis_mem::{LineAddr, LineGeometry, WordIndex};
///
/// let mut c = SetAssocCache::new(CacheConfig::new(1 << 20, 8, LineGeometry::default()));
/// let line = LineAddr::new(42);
/// assert!(!c.access(line, Some(WordIndex::new(0)), false));
/// c.install(line, Some(WordIndex::new(0)), false, false);
/// assert!(c.access(line, Some(WordIndex::new(1)), false));
/// ```
#[derive(Clone, Debug)]
pub struct SetAssocCache {
    cfg: CacheConfig,
    arena: SetArena,
}

impl SetAssocCache {
    /// Creates an empty cache.
    pub fn new(cfg: CacheConfig) -> Self {
        #[expect(
            clippy::cast_possible_truncation,
            reason = "the set count sizes in-memory arrays, so it fits usize"
        )]
        let arena = SetArena::new(cfg.num_sets() as usize, cfg.ways());
        SetAssocCache { cfg, arena }
    }

    /// The cache's configuration.
    pub fn config(&self) -> &CacheConfig {
        &self.cfg
    }

    /// Whether `line` is resident (no recency update).
    pub fn contains(&self, line: LineAddr) -> bool {
        self.arena
            .find(self.cfg.set_index(line), self.cfg.tag(line))
            .is_some()
    }

    /// The current recency position of `line` (0 = MRU), if resident.
    pub fn position_of(&self, line: LineAddr) -> Option<u8> {
        let set = self.cfg.set_index(line);
        let way = self.arena.find(set, self.cfg.tag(line))?;
        self.arena.position_of(set, way)
    }

    /// Looks up `line`; on a hit promotes it to MRU, updates the recency
    /// bookkeeping, marks `word` used (if given) and sets the dirty bit for
    /// writes. Returns whether the access hit.
    #[inline]
    pub fn access(&mut self, line: LineAddr, word: Option<WordIndex>, write: bool) -> bool {
        let set = self.cfg.set_index(line);
        let tag = self.cfg.tag(line);
        let span = word.map_or(0u16, |w| 1u16 << w.get());
        self.arena.hit_update(set, tag, span, write, true).is_some()
    }

    /// Installs `line` at MRU, evicting the LRU (or using an invalid way).
    /// The demanded `word` (if any) becomes the first footprint bit; a
    /// write-allocate sets the dirty bit. Returns the evicted line, if a
    /// valid line was displaced.
    #[inline]
    pub fn install(
        &mut self,
        line: LineAddr,
        word: Option<WordIndex>,
        write: bool,
        is_instr: bool,
    ) -> Option<EvictedLine> {
        let set = self.cfg.set_index(line);
        let tag = self.cfg.tag(line);
        debug_assert!(
            self.arena.find(set, tag).is_none(),
            "installing a resident line"
        );
        let span = word.map_or(0u16, |w| 1u16 << w.get());
        let (_, victim) = self.arena.install_evict(set, tag, span, write, is_instr);
        Self::snapshot_eviction(&self.cfg, set, &victim)
    }

    /// OR-merges `fp` into `line`'s footprint if resident (the L1D → LOC
    /// merge of Section 4.1), optionally marking it dirty. Returns whether
    /// the line was resident. Does **not** update recency.
    #[inline]
    pub fn merge_footprint(&mut self, line: LineAddr, fp: Footprint, dirty: bool) -> bool {
        let set = self.cfg.set_index(line);
        self.arena
            .merge_update(set, self.cfg.tag(line), fp.bits(), dirty)
    }

    /// Invalidates `line` if resident, returning its eviction snapshot.
    pub fn invalidate(&mut self, line: LineAddr) -> Option<EvictedLine> {
        let set = self.cfg.set_index(line);
        let way = self.arena.find(set, self.cfg.tag(line))?;
        let snapshot = Self::snapshot_eviction(&self.cfg, set, &self.arena.entry(set, way));
        self.arena.invalidate(set, way);
        snapshot
    }

    /// Iterates over every valid line with an owned snapshot of its entry —
    /// used by the compression analysis (Figure 10), which samples cache
    /// contents.
    #[expect(
        clippy::cast_possible_truncation,
        reason = "the set count sizes in-memory arrays, so it fits usize"
    )]
    pub fn iter_lines(&self) -> impl Iterator<Item = (LineAddr, TagEntry)> + '_ {
        let ways = self.arena.ways();
        (0..self.cfg.num_sets() as usize)
            .map(SetIndex::new)
            .flat_map(move |set| {
                (0..ways).filter_map(move |way| {
                    let entry = self.arena.entry(set, way);
                    if entry.valid {
                        Some((self.cfg.line_of(set, entry.tag), entry))
                    } else {
                        None
                    }
                })
            })
    }

    /// Number of valid lines currently resident.
    #[expect(
        clippy::cast_possible_truncation,
        reason = "the set count sizes in-memory arrays, so it fits usize"
    )]
    pub fn occupancy(&self) -> u64 {
        let ways = self.arena.ways();
        (0..self.cfg.num_sets() as usize)
            .map(SetIndex::new)
            .map(|set| {
                (0..ways)
                    .filter(|&way| self.arena.is_valid(set, way))
                    .count() as u64
            })
            .sum()
    }

    /// Number of modeled footprint bits in the tag store (one per word per
    /// entry, valid or not) — the exposure surface for footprint faults.
    pub fn footprint_bits(&self) -> u64 {
        self.cfg.num_sets() * self.cfg.ways() as u64 * self.cfg.geometry().words_per_line() as u64
    }

    /// Flips footprint bit `bit` (in `0..footprint_bits()`, interpreted as
    /// `(set, way, word)` in row-major order) and reports where it landed.
    /// Used by the fault-injection model; never touches tags or data.
    ///
    /// # Panics
    ///
    /// Panics if `bit` is out of range.
    #[expect(
        clippy::cast_possible_truncation,
        reason = "bit < footprint_bits() (asserted below), so word < words_per_line and set, way lie inside the cache geometry"
    )]
    pub fn flip_footprint_bit(&mut self, bit: u64) -> FootprintFault {
        let wpl = self.cfg.geometry().words_per_line() as u64;
        let ways = self.cfg.ways() as u64;
        assert!(bit < self.footprint_bits(), "footprint bit out of range");
        let entry_idx = bit / wpl;
        let word = WordIndex::new((bit % wpl) as u8);
        let set = SetIndex::new((entry_idx / ways) as usize);
        let way = (entry_idx % ways) as usize;
        let flipped =
            Footprint::from_bits(self.arena.footprint(set, way).bits() ^ (1 << word.get()));
        self.arena.set_footprint(set, way, flipped);
        FootprintFault {
            set,
            way,
            word,
            live: self.arena.is_valid(set, way),
        }
    }

    /// Widens the footprint of the entry at `(set, way)` to the full line —
    /// the conservative recovery after a *detected* footprint corruption
    /// (every word treated as used, so distillation can never drop a word
    /// the processor still needs). No-op for invalid entries.
    pub fn repair_footprint(&mut self, set: SetIndex, way: usize) {
        if self.arena.is_valid(set, way) {
            let wpl = self.cfg.geometry().words_per_line();
            self.arena.set_footprint(set, way, Footprint::full(wpl));
        }
    }

    fn snapshot_eviction(
        cfg: &CacheConfig,
        set: SetIndex,
        entry: &TagEntry,
    ) -> Option<EvictedLine> {
        if !entry.valid {
            return None;
        }
        Some(EvictedLine {
            line: cfg.line_of(set, entry.tag),
            dirty: entry.dirty,
            is_instr: entry.is_instr,
            footprint: entry.footprint,
            recency_at_last_change: entry.max_pos_at_change,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ldis_mem::LineGeometry;

    fn small_cache(ways: u32) -> SetAssocCache {
        // 4 sets, `ways` ways, 64 B lines.
        SetAssocCache::new(CacheConfig::with_sets(4, ways, LineGeometry::default()))
    }

    fn line_in_set0(i: u64) -> LineAddr {
        LineAddr::new(i * 4)
    }

    #[test]
    fn miss_then_hit() {
        let mut c = small_cache(2);
        let l = LineAddr::new(7);
        assert!(!c.access(l, None, false));
        assert!(c.install(l, None, false, false).is_none());
        assert!(c.access(l, None, false));
        assert!(c.contains(l));
        assert_eq!(c.occupancy(), 1);
    }

    #[test]
    fn lru_eviction_order() {
        let mut c = small_cache(2);
        let (a, b, d) = (line_in_set0(0), line_in_set0(1), line_in_set0(2));
        c.install(a, None, false, false);
        c.install(b, None, false, false);
        // Touch a so b becomes LRU.
        assert!(c.access(a, None, false));
        let evicted = c.install(d, None, false, false).expect("must evict");
        assert_eq!(evicted.line, b);
        assert!(c.contains(a) && c.contains(d) && !c.contains(b));
    }

    #[test]
    fn eviction_carries_footprint_and_dirty() {
        let mut c = small_cache(1);
        let a = line_in_set0(0);
        c.install(a, Some(WordIndex::new(2)), true, false);
        c.merge_footprint(a, Footprint::from_bits(0b1000_0000), true);
        let evicted = c.install(line_in_set0(1), None, false, false).unwrap();
        assert!(evicted.dirty);
        assert_eq!(evicted.footprint.used_words(), 2);
        assert!(evicted.footprint.is_used(WordIndex::new(2)));
        assert!(evicted.footprint.is_used(WordIndex::new(7)));
    }

    #[test]
    fn recency_positions_update_on_access() {
        let mut c = small_cache(4);
        let lines: Vec<LineAddr> = (0..4).map(line_in_set0).collect();
        for &l in &lines {
            c.install(l, Some(WordIndex::new(0)), false, false);
        }
        assert_eq!(c.position_of(lines[3]), Some(0));
        assert_eq!(c.position_of(lines[0]), Some(3));
        // Access the LRU line with a NEW word: footprint change at pos 3.
        c.access(lines[0], Some(WordIndex::new(5)), false);
        let evicted_line = lines[1]; // now LRU
        assert_eq!(c.position_of(evicted_line), Some(3));
        // Evict lines[0] eventually and check its recency record.
        for i in 4..7 {
            c.install(line_in_set0(i), Some(WordIndex::new(0)), false, false);
        }
        let ev = c.install(line_in_set0(7), None, false, false).unwrap();
        assert_eq!(ev.line, lines[0]);
        assert_eq!(ev.recency_at_last_change, 3);
    }

    #[test]
    fn merge_footprint_misses_nonresident_lines() {
        let mut c = small_cache(2);
        assert!(!c.merge_footprint(LineAddr::new(9), Footprint::full(8), false));
    }

    #[test]
    fn invalidate_removes_line() {
        let mut c = small_cache(2);
        let l = LineAddr::new(3);
        c.install(l, None, true, false);
        let ev = c.invalidate(l).expect("was resident");
        assert_eq!(ev.line, l);
        assert!(ev.dirty);
        assert!(!c.contains(l));
        assert!(c.invalidate(l).is_none());
    }

    #[test]
    fn iter_lines_reports_resident_lines() {
        let mut c = small_cache(2);
        c.install(LineAddr::new(1), Some(WordIndex::new(0)), false, false);
        c.install(LineAddr::new(2), Some(WordIndex::new(1)), false, true);
        let mut lines: Vec<u64> = c.iter_lines().map(|(l, _)| l.raw()).collect();
        lines.sort_unstable();
        assert_eq!(lines, vec![1, 2]);
        let instr_count = c.iter_lines().filter(|(_, e)| e.is_instr).count();
        assert_eq!(instr_count, 1);
    }

    #[test]
    fn footprint_fault_flips_exactly_one_bit() {
        let mut c = small_cache(2);
        let a = line_in_set0(0);
        c.install(a, Some(WordIndex::new(2)), false, false);
        // Entry (set 0, way 0) holds line a with word 2 used. Flip word 5
        // of that entry: bit = (set * ways + way) * wpl + word.
        let fault = c.flip_footprint_bit(5);
        assert_eq!(
            (fault.set, fault.way, fault.word),
            (SetIndex::new(0), 0, WordIndex::new(5))
        );
        assert!(fault.live);
        let (_, entry) = c.iter_lines().next().expect("resident");
        assert!(
            entry.footprint.is_used(WordIndex::new(5)),
            "bit set by flip"
        );
        // Flip it back: footprint returns to the original.
        c.flip_footprint_bit(5);
        let (_, entry) = c.iter_lines().next().expect("resident");
        assert!(!entry.footprint.is_used(WordIndex::new(5)));
        assert_eq!(c.footprint_bits(), 4 * 2 * 8);
    }

    #[test]
    fn footprint_fault_in_empty_way_is_dead() {
        let mut c = small_cache(2);
        let fault = c.flip_footprint_bit(9); // set 0, way 1, word 1 — invalid
        assert!(!fault.live);
        assert!(fault.to_string().contains("dead entry"));
    }

    #[test]
    fn repair_widens_to_full_line() {
        let mut c = small_cache(2);
        c.install(line_in_set0(0), Some(WordIndex::new(0)), false, false);
        c.repair_footprint(SetIndex::new(0), 0);
        let (_, entry) = c.iter_lines().next().expect("resident");
        assert_eq!(entry.footprint.used_words(), 8);
        // Repairing an invalid way is a no-op.
        c.repair_footprint(SetIndex::new(0), 1);
    }

    #[test]
    fn install_prefers_invalid_ways() {
        let mut c = small_cache(4);
        c.install(line_in_set0(0), None, false, false);
        // Three invalid ways remain: installing must not evict.
        assert!(c.install(line_in_set0(1), None, false, false).is_none());
        assert!(c.install(line_in_set0(2), None, false, false).is_none());
        assert!(c.install(line_in_set0(3), None, false, false).is_none());
        assert!(c.install(line_in_set0(4), None, false, false).is_some());
    }
}
