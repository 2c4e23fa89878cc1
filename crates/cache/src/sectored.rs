//! The sectored first-level data cache (Section 4.2).
//!
//! To accommodate the variable number of valid words returned by the WOC,
//! the paper uses a sectored L1D: each line carries per-word valid bits.
//! An access to an invalid word of a resident line is a *sector miss* and
//! triggers a request to the L2 for the missing sector.

use crate::{CacheConfig, SetArena};
use ldis_mem::bitops::span_mask16;
use ldis_mem::{Footprint, LineAddr, SetIndex, WordIndex};

/// The result of an L1D lookup.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum L1Lookup {
    /// Line resident and every requested word valid.
    Hit,
    /// Line resident but at least one requested word invalid (Section 4.2:
    /// "If an invalid word in the line is accessed by the processor, a
    /// request for the line is sent to the distill-cache").
    SectorMiss,
    /// Line not resident.
    Miss,
}

/// A line evicted from the sectored L1D, carrying the footprint that is
/// sent to the LOC (Section 4.1).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct EvictedL1Line {
    /// The evicted line's address.
    pub line: LineAddr,
    /// Words of the line the processor actually accessed while resident.
    pub footprint: Footprint,
    /// Whether the line was written.
    pub dirty: bool,
}

/// A sectored set-associative data cache with per-word valid bits, per-line
/// footprints and LRU replacement.
///
/// Tags, footprints and dirty bits live in the shared flat [`SetArena`];
/// the per-word valid bits are a parallel flat array indexed the same way
/// (`set * ways + way`), so an access touches only contiguous storage.
///
/// # Example
///
/// ```
/// use ldis_cache::{CacheConfig, L1Lookup, SectoredCache};
/// use ldis_mem::{Footprint, LineAddr, LineGeometry, WordIndex};
///
/// let mut l1 = SectoredCache::new(CacheConfig::new(16 << 10, 2, LineGeometry::default()));
/// let line = LineAddr::new(5);
/// assert_eq!(l1.lookup(line, WordIndex::new(0), WordIndex::new(0)), L1Lookup::Miss);
/// l1.fill(line, Footprint::from_bits(0b0001)); // only word 0 valid
/// assert_eq!(l1.access(line, WordIndex::new(0), WordIndex::new(0), false), L1Lookup::Hit);
/// assert_eq!(l1.access(line, WordIndex::new(3), WordIndex::new(3), false), L1Lookup::SectorMiss);
/// ```
#[derive(Clone, Debug)]
pub struct SectoredCache {
    cfg: CacheConfig,
    arena: SetArena,
    /// Per-word valid bits, one `u16` per `(set, way)` (bit *i* = word *i*).
    valid_words: Vec<u16>,
}

impl SectoredCache {
    /// Creates an empty sectored cache.
    pub fn new(cfg: CacheConfig) -> Self {
        #[expect(
            clippy::cast_possible_truncation,
            reason = "the set count sizes in-memory arrays, so it fits usize"
        )]
        let num_sets = cfg.num_sets() as usize;
        let arena = SetArena::new(num_sets, cfg.ways());
        let valid_words = vec![0u16; num_sets * cfg.ways() as usize];
        SectoredCache {
            cfg,
            arena,
            valid_words,
        }
    }

    /// The cache's configuration.
    pub fn config(&self) -> &CacheConfig {
        &self.cfg
    }

    #[inline]
    fn slot(&self, set: SetIndex, way: usize) -> usize {
        set.get() * self.arena.ways() + way
    }

    /// Classifies an access to words `first..=last` of `line` without
    /// changing any state.
    #[inline]
    pub fn lookup(&self, line: LineAddr, first: WordIndex, last: WordIndex) -> L1Lookup {
        let set = self.cfg.set_index(line);
        match self.arena.find(set, self.cfg.tag(line)) {
            None => L1Lookup::Miss,
            Some(way) => {
                let valid = self
                    .valid_words
                    .get(self.slot(set, way))
                    .copied()
                    .unwrap_or(0);
                if span_mask16(first.get(), last.get()) & !valid == 0 {
                    L1Lookup::Hit
                } else {
                    L1Lookup::SectorMiss
                }
            }
        }
    }

    /// Performs an access to words `first..=last`: on a full hit, promotes
    /// the line, records the words in the footprint and sets the dirty bit
    /// for writes. On a sector miss the footprint/dirty update still happens
    /// (the processor *will* use the words once the sector arrives) but the
    /// caller must fetch the missing words via [`fill_words`].
    ///
    /// [`fill_words`]: SectoredCache::fill_words
    #[inline]
    pub fn access(
        &mut self,
        line: LineAddr,
        first: WordIndex,
        last: WordIndex,
        write: bool,
    ) -> L1Lookup {
        let set = self.cfg.set_index(line);
        let span = span_mask16(first.get(), last.get());
        match self
            .arena
            .hit_update(set, self.cfg.tag(line), span, write, false)
        {
            None => L1Lookup::Miss,
            Some(way) => {
                let valid = self
                    .valid_words
                    .get(self.slot(set, way))
                    .copied()
                    .unwrap_or(0);
                if span & !valid == 0 {
                    L1Lookup::Hit
                } else {
                    L1Lookup::SectorMiss
                }
            }
        }
    }

    /// Installs `line` with the given valid words (a fill from the L2),
    /// evicting the LRU line if needed. The footprint starts empty — the
    /// caller records the demand words with [`access`](SectoredCache::access).
    pub fn fill(&mut self, line: LineAddr, valid_words: Footprint) -> Option<EvictedL1Line> {
        let set = self.cfg.set_index(line);
        let tag = self.cfg.tag(line);
        debug_assert!(
            self.arena.find(set, tag).is_none(),
            "filling a resident line"
        );
        let (way, entry) = self.arena.install_evict(set, tag, 0, false, false);
        let victim = if entry.valid {
            Some(EvictedL1Line {
                line: self.cfg.line_of(set, entry.tag),
                footprint: entry.footprint,
                dirty: entry.dirty,
            })
        } else {
            None
        };
        let slot = self.slot(set, way);
        if let Some(v) = self.valid_words.get_mut(slot) {
            *v = valid_words.bits();
        }
        victim
    }

    /// Installs `line` with the given valid words *and* records the demand
    /// access to words `first..=last` in one arena pass — exactly
    /// [`fill`](SectoredCache::fill) followed by
    /// [`access`](SectoredCache::access), fused: the fresh footprint is the
    /// demand span, the dirty bit follows `write`, and the lookup result
    /// reports whether the delivered words cover the span.
    #[inline]
    pub fn fill_demand(
        &mut self,
        line: LineAddr,
        valid_words: Footprint,
        first: WordIndex,
        last: WordIndex,
        write: bool,
    ) -> (Option<EvictedL1Line>, L1Lookup) {
        let set = self.cfg.set_index(line);
        let tag = self.cfg.tag(line);
        debug_assert!(
            self.arena.find(set, tag).is_none(),
            "filling a resident line"
        );
        let span = span_mask16(first.get(), last.get());
        let (way, entry) = self.arena.install_evict(set, tag, span, write, false);
        let victim = if entry.valid {
            Some(EvictedL1Line {
                line: self.cfg.line_of(set, entry.tag),
                footprint: entry.footprint,
                dirty: entry.dirty,
            })
        } else {
            None
        };
        let slot = self.slot(set, way);
        if let Some(v) = self.valid_words.get_mut(slot) {
            *v = valid_words.bits();
        }
        let lookup = if span & !valid_words.bits() == 0 {
            L1Lookup::Hit
        } else {
            L1Lookup::SectorMiss
        };
        (victim, lookup)
    }

    /// Adds valid words to a resident line (a sector fill). Returns whether
    /// the line was resident.
    #[inline]
    pub fn fill_words(&mut self, line: LineAddr, valid_words: Footprint) -> bool {
        let set = self.cfg.set_index(line);
        match self.arena.find(set, self.cfg.tag(line)) {
            Some(way) => {
                let slot = self.slot(set, way);
                if let Some(v) = self.valid_words.get_mut(slot) {
                    *v |= valid_words.bits();
                }
                true
            }
            None => false,
        }
    }

    /// Whether every word in `first..=last` of `line` is valid.
    #[inline]
    pub fn words_valid(&self, line: LineAddr, first: WordIndex, last: WordIndex) -> bool {
        self.lookup(line, first, last) == L1Lookup::Hit
    }

    /// Invalidates `line` if resident, returning its eviction record.
    pub fn invalidate(&mut self, line: LineAddr) -> Option<EvictedL1Line> {
        let set = self.cfg.set_index(line);
        let way = self.arena.find(set, self.cfg.tag(line))?;
        let entry = self.arena.entry(set, way);
        self.arena.invalidate(set, way);
        Some(EvictedL1Line {
            line,
            footprint: entry.footprint,
            dirty: entry.dirty,
        })
    }

    /// Number of resident lines.
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
}

#[cfg(test)]
mod tests {
    use super::*;
    use ldis_mem::LineGeometry;

    fn l1() -> SectoredCache {
        SectoredCache::new(CacheConfig::new(16 << 10, 2, LineGeometry::default()))
    }

    fn w(i: u8) -> WordIndex {
        WordIndex::new(i)
    }

    #[test]
    fn span_mask_math() {
        assert_eq!(span_mask16(0, 0), 0b1);
        assert_eq!(span_mask16(1, 3), 0b1110);
        assert_eq!(span_mask16(7, 7), 0b1000_0000);
    }

    #[test]
    fn full_fill_hits_all_words() {
        let mut c = l1();
        let line = LineAddr::new(9);
        c.fill(line, Footprint::full(8));
        for i in 0..8 {
            assert_eq!(c.access(line, w(i), w(i), false), L1Lookup::Hit);
        }
    }

    #[test]
    fn partial_fill_sector_misses_on_holes() {
        let mut c = l1();
        let line = LineAddr::new(9);
        c.fill(line, Footprint::from_bits(0b0000_0101));
        assert_eq!(c.access(line, w(0), w(0), false), L1Lookup::Hit);
        assert_eq!(c.access(line, w(2), w(2), false), L1Lookup::Hit);
        assert_eq!(c.access(line, w(1), w(1), false), L1Lookup::SectorMiss);
        // Filling the missing word turns it into a hit.
        assert!(c.fill_words(line, Footprint::from_bits(0b0000_0010)));
        assert_eq!(c.access(line, w(1), w(1), false), L1Lookup::Hit);
    }

    #[test]
    fn eviction_carries_footprint_not_valid_bits() {
        let mut c = l1();
        let set_stride = c.config().num_sets();
        let a = LineAddr::new(3);
        let b = LineAddr::new(3 + set_stride);
        let d = LineAddr::new(3 + 2 * set_stride);
        c.fill(a, Footprint::full(8));
        c.access(a, w(0), w(0), false);
        c.access(a, w(5), w(5), true);
        c.fill(b, Footprint::full(8));
        let ev = c.fill(d, Footprint::full(8)).expect("a is LRU, must evict");
        assert_eq!(ev.line, a);
        assert!(ev.dirty);
        assert_eq!(ev.footprint.used_words(), 2, "only touched words count");
    }

    #[test]
    fn lru_respects_access_order() {
        let mut c = l1();
        let s = c.config().num_sets();
        let (a, b, d) = (
            LineAddr::new(1),
            LineAddr::new(1 + s),
            LineAddr::new(1 + 2 * s),
        );
        c.fill(a, Footprint::full(8));
        c.fill(b, Footprint::full(8));
        c.access(a, w(0), w(0), false); // b becomes LRU
        let ev = c.fill(d, Footprint::full(8)).unwrap();
        assert_eq!(ev.line, b);
    }

    #[test]
    fn sector_miss_still_records_footprint() {
        let mut c = l1();
        let line = LineAddr::new(2);
        c.fill(line, Footprint::from_bits(0b1));
        assert_eq!(c.access(line, w(4), w(4), true), L1Lookup::SectorMiss);
        c.fill_words(line, Footprint::from_bits(0b1_0000));
        let ev = c.invalidate(line).unwrap();
        assert!(ev.dirty);
        assert!(ev.footprint.is_used(w(4)));
    }

    #[test]
    fn invalidate_nonresident_is_none() {
        let mut c = l1();
        assert!(c.invalidate(LineAddr::new(77)).is_none());
    }

    #[test]
    fn multi_word_span_requires_all_words() {
        let mut c = l1();
        let line = LineAddr::new(4);
        c.fill(line, Footprint::from_bits(0b0011));
        assert_eq!(c.lookup(line, w(0), w(1)), L1Lookup::Hit);
        assert_eq!(c.lookup(line, w(1), w(2)), L1Lookup::SectorMiss);
    }
}
