//! The interface every second-level cache organization implements, and the
//! paper's traditional baseline.

use crate::{CacheConfig, CompulsoryTracker, L2Stats, SetAssocCache};
use ldis_mem::stats::Counter;
use ldis_mem::{Addr, Footprint, LineAddr, LineGeometry, WordIndex};

/// A demand request from the first-level caches to the L2.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct L2Request {
    /// The requested line.
    pub line: LineAddr,
    /// The demanded word within the line.
    pub word: WordIndex,
    /// Whether the triggering access is a store (write-allocate).
    pub write: bool,
    /// Whether the request comes from the instruction cache. Instruction
    /// lines are never distilled (Section 4).
    pub is_instr: bool,
    /// The program counter of the instruction that triggered the request;
    /// used by the spatial footprint predictor (`ldis-sfp`).
    pub pc: Addr,
}

impl L2Request {
    /// A data read request for `word` of `line`.
    pub fn data(line: LineAddr, word: WordIndex, write: bool) -> Self {
        L2Request {
            line,
            word,
            write,
            is_instr: false,
            pc: Addr::new(0),
        }
    }

    /// An instruction fetch request for `line`.
    pub fn instr(line: LineAddr) -> Self {
        L2Request {
            line,
            word: WordIndex::new(0),
            write: false,
            is_instr: true,
            pc: Addr::new(0),
        }
    }

    /// Returns a copy carrying the requesting instruction's PC.
    #[must_use]
    pub fn with_pc(mut self, pc: Addr) -> Self {
        self.pc = pc;
        self
    }
}

/// The four possible outcomes of a distill-cache access (Section 5.2).
/// Traditional caches only ever produce `LocHit` and `LineMiss`.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum L2Outcome {
    /// Hit in the line-organized cache (or a traditional hit).
    LocHit,
    /// Line hit and word hit in the word-organized cache.
    WocHit,
    /// Line hit but word miss in the WOC: the line's words are invalidated
    /// and the line is re-fetched from memory.
    HoleMiss,
    /// Miss in both structures (or a traditional miss).
    LineMiss,
}

impl L2Outcome {
    /// Whether the access was serviced without going to memory.
    pub const fn is_hit(self) -> bool {
        matches!(self, L2Outcome::LocHit | L2Outcome::WocHit)
    }

    /// Whether the access required a memory fetch.
    pub const fn is_miss(self) -> bool {
        !self.is_hit()
    }
}

/// The L2's response: outcome plus which words of the line are returned to
/// the L1D (Section 4.2's valid bits).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct L2Response {
    /// How the access was serviced.
    pub outcome: L2Outcome,
    /// Words of the line delivered to the L1D. Full for LOC hits and
    /// memory fills; the stored subset for WOC hits.
    pub valid_words: Footprint,
}

/// A second-level cache organization.
///
/// Implemented by [`BaselineL2`] here, by the distill cache in
/// `ldis-distill`, by the compressed caches in `ldis-compress` and by the
/// spatial-footprint-predictor cache in `ldis-sfp`. The
/// [`Hierarchy`](crate::Hierarchy) driver is generic over this trait so the
/// same trace exercises any organization.
pub trait SecondLevel {
    /// Services a demand access, updating replacement and footprint state.
    fn access(&mut self, req: L2Request) -> L2Response;

    /// Notification that the L1D evicted `line`: its footprint is merged
    /// into the L2's copy if resident (Section 4.1) and dirty data is
    /// written back.
    fn on_l1d_evict(&mut self, line: LineAddr, footprint: Footprint, dirty: bool);

    /// Accumulated statistics.
    fn stats(&self) -> &L2Stats;

    /// Zeroes the statistics counters without touching cache contents.
    /// Used to exclude warmup from measurements; compulsory-miss
    /// classification (which lines have ever been seen) is preserved.
    fn reset_stats(&mut self);

    /// The cache's line/word geometry.
    fn geometry(&self) -> LineGeometry;

    /// A short name for reports.
    fn name(&self) -> &str {
        "l2"
    }

    /// Resilience state, for organizations that model metadata soft
    /// errors (fault accounting, degradation log, degraded flag). `None`
    /// for organizations without a fault model — the default.
    fn health(&self) -> Option<&crate::CacheHealth> {
        None
    }
}

/// The paper's baseline second-level cache: a traditional set-associative
/// cache with LRU replacement (1 MB, 8-way, 64 B lines in Table 1) plus the
/// footprint instrumentation used by the motivation experiments.
///
/// # Example
///
/// ```
/// use ldis_cache::{BaselineL2, CacheConfig, L2Outcome, L2Request, SecondLevel};
/// use ldis_mem::{LineAddr, LineGeometry, WordIndex};
///
/// let mut l2 = BaselineL2::new(CacheConfig::new(1 << 20, 8, LineGeometry::default()));
/// let req = L2Request::data(LineAddr::new(1), WordIndex::new(0), false);
/// assert_eq!(l2.access(req).outcome, L2Outcome::LineMiss);
/// assert_eq!(l2.access(req).outcome, L2Outcome::LocHit);
/// ```
#[derive(Clone, Debug)]
pub struct BaselineL2 {
    cache: SetAssocCache,
    stats: L2Stats,
    compulsory: CompulsoryTracker,
}

impl BaselineL2 {
    /// Creates an empty baseline cache.
    pub fn new(cfg: CacheConfig) -> Self {
        let stats = L2Stats::new(cfg.geometry().words_per_line(), cfg.ways());
        BaselineL2 {
            cache: SetAssocCache::new(cfg),
            stats,
            compulsory: CompulsoryTracker::new(),
        }
    }

    /// The underlying cache, for content inspection (Figure 10 sampling).
    pub fn cache(&self) -> &SetAssocCache {
        &self.cache
    }
}

impl SecondLevel for BaselineL2 {
    #[inline]
    fn access(&mut self, req: L2Request) -> L2Response {
        self.stats.accesses.bump();
        let word = if req.is_instr { None } else { Some(req.word) };
        let full = Footprint::full(self.geometry().words_per_line());
        if self.cache.access(req.line, word, req.write) {
            self.stats.loc_hits.bump();
            L2Response {
                outcome: L2Outcome::LocHit,
                valid_words: full,
            }
        } else {
            self.stats
                .record_line_miss(self.compulsory.record_miss(req.line));
            if let Some(ev) = self.cache.install(req.line, word, req.write, req.is_instr) {
                self.stats.record_eviction(&ev);
                if ev.dirty {
                    self.stats.writebacks.bump();
                }
            }
            L2Response {
                outcome: L2Outcome::LineMiss,
                valid_words: full,
            }
        }
    }

    #[inline]
    fn on_l1d_evict(&mut self, line: LineAddr, footprint: Footprint, dirty: bool) {
        if !self.cache.merge_footprint(line, footprint, dirty) && dirty {
            // Not resident (inclusion is not enforced): write back to memory.
            self.stats.writebacks.bump();
        }
    }

    fn stats(&self) -> &L2Stats {
        &self.stats
    }

    fn reset_stats(&mut self) {
        self.stats.reset();
    }

    fn geometry(&self) -> LineGeometry {
        self.cache.config().geometry()
    }

    fn name(&self) -> &str {
        "baseline"
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ldis_mem::LineGeometry;

    fn tiny() -> BaselineL2 {
        BaselineL2::new(CacheConfig::with_sets(4, 2, LineGeometry::default()))
    }

    #[test]
    fn outcome_helpers() {
        assert!(L2Outcome::LocHit.is_hit());
        assert!(L2Outcome::WocHit.is_hit());
        assert!(L2Outcome::HoleMiss.is_miss());
        assert!(L2Outcome::LineMiss.is_miss());
    }

    #[test]
    fn compulsory_misses_counted_once_per_line() {
        let mut l2 = tiny();
        let req = L2Request::data(LineAddr::new(100), WordIndex::new(0), false);
        l2.access(req);
        // Evict by filling the set, then re-access: a miss but not compulsory.
        for i in 0..2 {
            l2.access(L2Request::data(
                LineAddr::new(100 + 4 * (i + 1)),
                WordIndex::new(0),
                false,
            ));
        }
        l2.access(req);
        assert_eq!(l2.stats().line_misses, 4);
        assert_eq!(l2.stats().compulsory_misses, 3);
    }

    #[test]
    fn eviction_histograms_exclude_instruction_lines() {
        let mut l2 = tiny();
        l2.access(L2Request::instr(LineAddr::new(0)));
        l2.access(L2Request::data(LineAddr::new(4), WordIndex::new(0), false));
        // Force both out of set 0.
        l2.access(L2Request::instr(LineAddr::new(8)));
        l2.access(L2Request::data(LineAddr::new(12), WordIndex::new(0), false));
        l2.access(L2Request::data(LineAddr::new(16), WordIndex::new(0), false));
        l2.access(L2Request::data(LineAddr::new(20), WordIndex::new(0), false));
        // 6 lines map to set 0 with 2 ways: 4 evictions, alternating
        // instr/data victims. Only the 2 data lines enter the histogram.
        let stats = l2.stats();
        assert_eq!(stats.evictions, 4);
        assert_eq!(stats.words_used_at_evict.total(), 2);
        assert_eq!(stats.words_used_at_evict.count(1), 2);
    }

    #[test]
    fn l1_evict_merges_footprint_when_resident() {
        let mut l2 = tiny();
        let line = LineAddr::new(7);
        l2.access(L2Request::data(line, WordIndex::new(0), false));
        l2.on_l1d_evict(line, Footprint::from_bits(0b1110), false);
        // Evict it and check the histogram saw 4 used words (bit 0 + 3 merged).
        for i in 1..=2 {
            l2.access(L2Request::data(
                LineAddr::new(7 + 4 * i),
                WordIndex::new(0),
                false,
            ));
        }
        assert_eq!(l2.stats().words_used_at_evict.count(4), 1);
    }

    #[test]
    fn l1_evict_of_nonresident_dirty_line_writes_back() {
        let mut l2 = tiny();
        l2.on_l1d_evict(LineAddr::new(50), Footprint::full(8), true);
        assert_eq!(l2.stats().writebacks, 1);
        l2.on_l1d_evict(LineAddr::new(51), Footprint::full(8), false);
        assert_eq!(l2.stats().writebacks, 1);
    }

    #[test]
    fn hit_rate_accumulates() {
        let mut l2 = tiny();
        let req = L2Request::data(LineAddr::new(1), WordIndex::new(2), true);
        l2.access(req);
        l2.access(req);
        l2.access(req);
        assert_eq!(l2.stats().accesses, 3);
        assert_eq!(l2.stats().hits(), 2);
        assert!((l2.stats().hit_rate() - 2.0 / 3.0).abs() < 1e-12);
    }
}
