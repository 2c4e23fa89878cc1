//! The L1I + L1D + L2 hierarchy driver (the framework of Section 4).

use crate::{
    CacheConfig, L1Lookup, L2Outcome, L2Request, SecondLevel, SectoredCache, SetAssocCache,
};
use ldis_mem::stats::Counter;
use ldis_mem::{Access, AccessKind, Trace, WordIndex};

/// What happened on one access — consumed by the timing model
/// (`ldis-timing`) to charge latencies.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct AccessTrace {
    /// The access was fully serviced by the first-level cache.
    pub l1_hit: bool,
    /// L2 accesses that hit in the line-organized store (or a traditional
    /// hit).
    pub l2_loc_hits: u8,
    /// L2 accesses that hit in the word-organized store (pay the
    /// rearrangement latency, Section 7.4).
    pub l2_woc_hits: u8,
    /// L2 accesses that went to memory (hole misses + line misses).
    pub l2_misses: u8,
}

impl AccessTrace {
    /// Total L2 accesses this processor access generated.
    pub fn l2_accesses(&self) -> u8 {
        self.l2_loc_hits + self.l2_woc_hits + self.l2_misses
    }

    fn record(&mut self, outcome: L2Outcome) {
        match outcome {
            L2Outcome::LocHit => self.l2_loc_hits += 1,
            L2Outcome::WocHit => self.l2_woc_hits += 1,
            L2Outcome::HoleMiss | L2Outcome::LineMiss => self.l2_misses += 1,
        }
    }
}

/// Counters for the first-level caches and the trace.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct HierarchyStats {
    /// Instructions represented by the accesses run so far.
    pub instructions: u64,
    /// Data accesses presented to the L1D.
    pub l1d_accesses: u64,
    /// L1D full hits.
    pub l1d_hits: u64,
    /// L1D sector misses (line present, requested word invalid) — these
    /// generate the "extra cache accesses" of Section 7.2's footnote.
    pub l1d_sector_misses: u64,
    /// L1D line misses.
    pub l1d_misses: u64,
    /// Instruction fetches presented to the L1I.
    pub l1i_accesses: u64,
    /// L1I hits.
    pub l1i_hits: u64,
}

/// The two-level cache hierarchy of Table 1: a 16 kB 2-way L1I, a 16 kB
/// 2-way sectored L1D, and any [`SecondLevel`] organization as the L2.
/// Inclusion is not enforced (Section 6.1).
///
/// Footprint plumbing follows Section 4.1: the L1D tracks which words the
/// processor touches; when a line leaves the L1D its footprint is sent to
/// the L2 and OR-merged if the line is still resident there.
///
/// # Example
///
/// ```
/// use ldis_cache::{BaselineL2, CacheConfig, Hierarchy, SecondLevel};
/// use ldis_mem::{Access, Addr, LineGeometry};
///
/// let l2 = BaselineL2::new(CacheConfig::new(1 << 20, 8, LineGeometry::default()));
/// let mut hier = Hierarchy::hpca2007(l2);
/// for i in 0..100 {
///     hier.access(Access::load(Addr::new(i * 64), 8));
/// }
/// assert_eq!(hier.l2().stats().line_misses, 100);
/// ```
#[derive(Clone, Debug)]
pub struct Hierarchy<L2> {
    l1i: SetAssocCache,
    l1d: SectoredCache,
    l2: L2,
    stats: HierarchyStats,
}

impl<L2: SecondLevel> Hierarchy<L2> {
    /// Creates a hierarchy with the paper's Table 1 first-level caches:
    /// 16 kB 2-way L1I and 16 kB 2-way L1D, using the L2's geometry.
    pub fn hpca2007(l2: L2) -> Self {
        let l1 = CacheConfig::new(16 << 10, 2, l2.geometry());
        Hierarchy {
            l1i: SetAssocCache::new(l1),
            l1d: SectoredCache::new(l1),
            l2,
            stats: HierarchyStats::default(),
        }
    }

    /// First-level and trace statistics.
    pub fn stats(&self) -> &HierarchyStats {
        &self.stats
    }

    /// The second-level cache.
    pub fn l2(&self) -> &L2 {
        &self.l2
    }

    /// Exclusive access to the second-level cache (for end-of-run controls
    /// such as forcing the reverter's decision in tests).
    pub fn l2_mut(&mut self) -> &mut L2 {
        &mut self.l2
    }

    /// L2 demand misses per kilo-instruction for the trace run so far.
    pub fn mpki(&self) -> f64 {
        self.l2.stats().mpki(self.stats.instructions)
    }

    /// Zeroes all statistics (first-level and L2) without touching cache
    /// contents — run a warmup, reset, then measure.
    pub fn reset_stats(&mut self) {
        self.stats = HierarchyStats::default();
        self.l2.reset_stats();
    }

    /// Runs a single access through the hierarchy.
    pub fn access(&mut self, access: Access) {
        let _ = self.access_traced(access);
    }

    /// Runs a single access and reports what happened at each level, for
    /// timing models.
    pub fn access_traced(&mut self, access: Access) -> AccessTrace {
        self.stats.instructions.bump_by(access.insts as u64);
        match access.kind {
            AccessKind::InstrFetch => self.ifetch(access),
            AccessKind::Load | AccessKind::Store => self.data_access(access),
        }
    }

    /// Replays a recorded trace through the hierarchy.
    pub fn run_trace(&mut self, trace: &Trace) {
        for &a in trace.accesses() {
            self.access(a);
        }
    }

    fn ifetch(&mut self, access: Access) -> AccessTrace {
        let geom = self.l2.geometry();
        let line = geom.line_addr(access.addr);
        let mut trace = AccessTrace::default();
        self.stats.l1i_accesses.bump();
        if self.l1i.access(line, None, false) {
            self.stats.l1i_hits.bump();
            trace.l1_hit = true;
            return trace;
        }
        let resp = self.l2.access(L2Request::instr(line));
        trace.record(resp.outcome);
        // Instruction lines are read-only: evictions need no L2 notification.
        self.l1i.install(line, None, false, true);
        trace
    }

    fn data_access(&mut self, access: Access) -> AccessTrace {
        let geom = self.l2.geometry();
        let line = geom.line_addr(access.addr);
        let (first, last) = geom.word_span(access.addr, access.size as u32);
        let write = access.kind.is_write();
        let mut trace = AccessTrace::default();
        self.stats.l1d_accesses.bump();

        match self.l1d.access(line, first, last, write) {
            L1Lookup::Hit => {
                self.stats.l1d_hits.bump();
                trace.l1_hit = true;
            }
            L1Lookup::SectorMiss => {
                self.stats.l1d_sector_misses.bump();
                self.fetch_missing_words(line, first, last, write, &mut trace);
            }
            L1Lookup::Miss => {
                self.stats.l1d_misses.bump();
                let resp = self
                    .l2
                    .access(L2Request::data(line, first, write).with_pc(access.pc));
                trace.record(resp.outcome);
                // The fill also records the demand words in the fresh L1
                // footprint; if the WOC returned a partial line missing
                // part of the span, fetch the rest word by word.
                let (evicted, lookup) =
                    self.l1d
                        .fill_demand(line, resp.valid_words, first, last, write);
                if let Some(ev) = evicted {
                    self.l2.on_l1d_evict(ev.line, ev.footprint, ev.dirty);
                }
                if lookup == L1Lookup::SectorMiss {
                    self.stats.l1d_sector_misses.bump();
                    self.fetch_missing_words(line, first, last, write, &mut trace);
                }
            }
        }
        trace
    }

    /// Services an L1D sector miss: requests each still-invalid word of the
    /// span from the L2 (Section 4.2 sends the line + sector id; one request
    /// per missing word models the same traffic at word granularity).
    fn fetch_missing_words(
        &mut self,
        line: ldis_mem::LineAddr,
        first: WordIndex,
        last: WordIndex,
        write: bool,
        trace: &mut AccessTrace,
    ) {
        for i in first.get()..=last.get() {
            let w = WordIndex::new(i);
            if self.l1d.words_valid(line, w, w) {
                continue;
            }
            let resp = self.l2.access(L2Request::data(line, w, write));
            trace.record(resp.outcome);
            self.l1d.fill_words(line, resp.valid_words);
            debug_assert!(
                self.l1d.words_valid(line, w, w),
                "L2 must return at least the demanded word"
            );
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::BaselineL2;
    use ldis_mem::{Addr, LineGeometry};

    fn hier() -> Hierarchy<BaselineL2> {
        let l2 = BaselineL2::new(CacheConfig::new(1 << 20, 8, LineGeometry::default()));
        Hierarchy::hpca2007(l2)
    }

    #[test]
    fn l1_filters_repeated_accesses() {
        let mut h = hier();
        for _ in 0..10 {
            h.access(Access::load(Addr::new(0x4000), 8));
        }
        assert_eq!(h.stats().l1d_accesses, 10);
        assert_eq!(h.stats().l1d_hits, 9);
        assert_eq!(h.l2().stats().accesses, 1);
    }

    #[test]
    fn instruction_fetches_go_to_l1i() {
        let mut h = hier();
        h.access(Access::ifetch(Addr::new(0x1000)));
        h.access(Access::ifetch(Addr::new(0x1004)));
        assert_eq!(h.stats().l1i_accesses, 2);
        assert_eq!(h.stats().l1i_hits, 1);
        assert_eq!(h.l2().stats().accesses, 1);
        assert_eq!(h.stats().l1d_accesses, 0);
    }

    #[test]
    fn l1d_eviction_merges_footprint_into_l2() {
        let mut h = hier();
        let l1_sets = 128u64; // 16 kB / 64 B / 2 ways
        let target = Addr::new(0);
        h.access(Access::load(target, 8)); // word 0
        h.access(Access::load(target.offset(24), 8)); // word 3
                                                      // Evict the line from L1D by filling its set (2 ways).
        h.access(Access::load(Addr::new(l1_sets * 64), 8));
        h.access(Access::load(Addr::new(2 * l1_sets * 64), 8));
        // The L2 line's footprint now includes words 0 and 3. Evict it from
        // the 1 MB L2 by filling its set (8 ways, 2048 sets).
        for i in 3..=10 {
            h.access(Access::load(Addr::new(i * 2048 * 64), 8));
        }
        let hist = &h.l2().stats().words_used_at_evict;
        assert_eq!(hist.count(2), 1, "histogram: {hist}");
    }

    #[test]
    fn instructions_accumulate_from_access_gaps() {
        let mut h = hier();
        h.access(Access::load(Addr::new(0), 8).with_insts(10));
        h.access(Access::load(Addr::new(64), 8).with_insts(5));
        assert_eq!(h.stats().instructions, 15);
        assert!(h.mpki() > 0.0);
    }

    #[test]
    fn run_trace_equals_manual_replay() {
        let accesses: Vec<Access> = (0..500)
            .map(|i| Access::load(Addr::new((i * 13 % 97) * 64), 8))
            .collect();
        let trace = Trace::from_accesses("t", accesses.clone());
        let mut h1 = hier();
        h1.run_trace(&trace);
        let mut h2 = hier();
        for a in accesses {
            h2.access(a);
        }
        assert_eq!(h1.l2().stats().accesses, h2.l2().stats().accesses);
        assert_eq!(h1.l2().stats().line_misses, h2.l2().stats().line_misses);
        assert_eq!(h1.stats().l1d_hits, h2.stats().l1d_hits);
    }

    #[test]
    fn stores_write_allocate_and_mark_dirty() {
        let mut h = hier();
        h.access(Access::store(Addr::new(0x100), 8));
        assert_eq!(h.l2().stats().line_misses, 1);
        // Evict from L1D; the dirty line merges into L2 (resident → no
        // memory writeback).
        h.access(Access::store(Addr::new(0x100 + 128 * 64), 8));
        h.access(Access::store(Addr::new(0x100 + 256 * 64), 8));
        assert_eq!(h.l2().stats().writebacks, 0);
    }
}
