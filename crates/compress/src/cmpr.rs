//! CMPR: a traditional cache with compression (Section 8.2's
//! CMPR-4xTags comparator).
//!
//! Lines are stored compressed in a segmented data array: each set has the
//! same data budget as the baseline (ways × line size) but up to
//! `tag_factor ×` ways tag entries, so compressible lines multiply the
//! effective capacity. Replacement is perfect LRU over whole lines, per
//! the paper's CMPR configuration (Section 8.2).

use crate::ValueSizeModel;
use ldis_cache::{CompulsoryTracker, L2Outcome, L2Request, L2Response, L2Stats, SecondLevel};
use ldis_mem::stats::Counter;
use ldis_mem::{Footprint, LineAddr, LineGeometry};
use std::collections::VecDeque;

/// Configuration of the compressed cache.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct CmprConfig {
    /// Data capacity in bytes (1 MB in the paper).
    pub size_bytes: u64,
    /// Baseline ways per set (8): sets the per-set data budget.
    pub ways: u32,
    /// Tag multiplier (4 for CMPR-4xTags).
    pub tag_factor: u32,
    /// Storage granularity of compressed lines in bytes (one segment).
    pub segment_bytes: u32,
    /// Line/word geometry.
    pub geometry: LineGeometry,
}

impl CmprConfig {
    /// The paper's CMPR-4xTags: 1 MB, 8 ways of data, 4× tags, 8 B segments.
    pub fn cmpr_4x_tags() -> Self {
        CmprConfig {
            size_bytes: 1 << 20,
            ways: 8,
            tag_factor: 4,
            segment_bytes: 8,
            geometry: LineGeometry::default(),
        }
    }

    /// Number of sets.
    pub fn num_sets(&self) -> u64 {
        self.size_bytes / (self.geometry.line_bytes() as u64 * self.ways as u64)
    }

    /// Data budget per set, in segments.
    pub fn segments_per_set(&self) -> u32 {
        self.ways.saturating_mul(self.geometry.line_bytes()) / self.segment_bytes
    }

    /// Maximum tags per set.
    pub fn tags_per_set(&self) -> u32 {
        self.ways.saturating_mul(self.tag_factor)
    }
}

#[derive(Clone, Copy, Debug)]
struct CmprLine {
    tag: u64,
    segments: u32,
    dirty: bool,
}

/// A compressed traditional L2 cache with perfect LRU replacement.
///
/// # Example
///
/// ```
/// use ldis_compress::{CmprCache, CmprConfig, ValueSizeModel};
/// use ldis_cache::{L2Request, SecondLevel};
/// use ldis_mem::{LineAddr, LineGeometry, WordIndex};
/// use ldis_workloads::ValueProfile;
///
/// let model = ValueSizeModel::new(ValueProfile::pointer_heavy(), LineGeometry::default(), 1);
/// let mut c = CmprCache::new(CmprConfig::cmpr_4x_tags(), model);
/// c.access(L2Request::data(LineAddr::new(0), WordIndex::new(0), false));
/// assert_eq!(c.stats().line_misses, 1);
/// ```
#[derive(Clone, Debug)]
pub struct CmprCache {
    cfg: CmprConfig,
    model: ValueSizeModel,
    /// Per set: lines in LRU order, MRU at the front.
    sets: Vec<VecDeque<CmprLine>>,
    stats: L2Stats,
    compulsory: CompulsoryTracker,
    label: String,
}

impl CmprCache {
    /// Creates an empty compressed cache.
    pub fn new(cfg: CmprConfig, model: ValueSizeModel) -> Self {
        let stats = L2Stats::new(cfg.geometry.words_per_line(), cfg.ways);
        CmprCache {
            sets: (0..cfg.num_sets()).map(|_| VecDeque::new()).collect(),
            stats,
            compulsory: CompulsoryTracker::new(),
            label: format!("CMPR-{}xTags", cfg.tag_factor),
            model,
            cfg,
        }
    }

    /// The configuration.
    pub fn config(&self) -> &CmprConfig {
        &self.cfg
    }

    /// Number of lines currently stored in `set` (0 if out of range).
    pub fn lines_in_set(&self, set: usize) -> usize {
        self.sets.get(set).map_or(0, |s| s.len())
    }

    /// Segments currently occupied in `set` (0 if out of range).
    pub fn segments_in_set(&self, set: usize) -> u32 {
        self.sets
            .get(set)
            .map_or(0, |s| s.iter().map(|l| l.segments).sum())
    }

    #[expect(
        clippy::cast_possible_truncation,
        reason = "the set index is masked below num_sets, which sizes in-memory arrays"
    )]
    fn set_and_tag(&self, line: LineAddr) -> (usize, u64) {
        let sets = self.cfg.num_sets();
        (
            (line.raw() & (sets - 1)) as usize,
            line.raw() >> sets.trailing_zeros(),
        )
    }

    fn segments_for(&self, line: LineAddr) -> u32 {
        let bytes = self
            .model
            .compressed_bytes(line, None)
            .min(self.cfg.geometry.line_bytes());
        bytes.div_ceil(self.cfg.segment_bytes).max(1)
    }
}

impl SecondLevel for CmprCache {
    fn access(&mut self, req: L2Request) -> L2Response {
        self.stats.accesses.bump();
        let (set_idx, tag) = self.set_and_tag(req.line);
        let full = Footprint::full(self.cfg.geometry.words_per_line());
        // `set_idx` is masked to `0..num_sets` by `set_and_tag`, so the
        // `get_mut` lookups cannot miss.
        if let Some(set) = self.sets.get_mut(set_idx) {
            if let Some(mut line) = set
                .iter()
                .position(|l| l.tag == tag)
                .and_then(|pos| set.remove(pos))
            {
                line.dirty |= req.write;
                set.push_front(line);
                self.stats.loc_hits.bump();
                return L2Response {
                    outcome: L2Outcome::LocHit,
                    valid_words: full,
                };
            }
        }

        self.stats.line_misses.bump();
        if self.compulsory.record_miss(req.line) {
            self.stats.compulsory_misses.bump();
        }
        let segments = self.segments_for(req.line);
        // Perfect LRU: evict from the tail until both the segment budget
        // and the tag budget hold.
        let budget = self.cfg.segments_per_set();
        let max_tags = self.cfg.tags_per_set() as usize;
        if let Some(set) = self.sets.get_mut(set_idx) {
            set.push_front(CmprLine {
                tag,
                segments,
                dirty: req.write,
            });
            loop {
                let used: u32 = set.iter().map(|l| l.segments).sum();
                if used <= budget && set.len() <= max_tags {
                    break;
                }
                // The freshly inserted line keeps the set non-empty whenever
                // the budgets are exceeded; stop if that ever fails to hold.
                let Some(victim) = set.pop_back() else {
                    break;
                };
                self.stats.evictions.bump();
                if victim.dirty {
                    self.stats.writebacks.bump();
                }
            }
        }
        L2Response {
            outcome: L2Outcome::LineMiss,
            valid_words: full,
        }
    }

    fn on_l1d_evict(&mut self, line: LineAddr, _footprint: Footprint, dirty: bool) {
        if !dirty {
            return;
        }
        let (set_idx, tag) = self.set_and_tag(line);
        match self
            .sets
            .get_mut(set_idx)
            .and_then(|s| s.iter_mut().find(|l| l.tag == tag))
        {
            Some(l) => l.dirty = true,
            None => self.stats.writebacks.bump(),
        }
    }

    fn stats(&self) -> &L2Stats {
        &self.stats
    }

    fn reset_stats(&mut self) {
        self.stats = L2Stats::new(self.cfg.geometry.words_per_line(), self.cfg.ways);
    }

    fn geometry(&self) -> LineGeometry {
        self.cfg.geometry
    }

    fn name(&self) -> &str {
        &self.label
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ldis_cache::L2Request;
    use ldis_mem::WordIndex;
    use ldis_workloads::ValueProfile;

    fn zero_model() -> ValueSizeModel {
        // All values zero → every line compresses to 4 B → 1 segment.
        ValueSizeModel::new(ValueProfile::new(1.0, 0.0, 0.0), LineGeometry::default(), 1)
    }

    fn incompressible_model() -> ValueSizeModel {
        ValueSizeModel::new(ValueProfile::new(0.0, 0.0, 0.0), LineGeometry::default(), 1)
    }

    fn req(line: u64) -> L2Request {
        L2Request::data(LineAddr::new(line), WordIndex::new(0), false)
    }

    #[test]
    fn config_dimensions() {
        let cfg = CmprConfig::cmpr_4x_tags();
        assert_eq!(cfg.num_sets(), 2048);
        assert_eq!(cfg.segments_per_set(), 64);
        assert_eq!(cfg.tags_per_set(), 32);
    }

    #[test]
    fn compressible_lines_quadruple_capacity() {
        let mut c = CmprCache::new(CmprConfig::cmpr_4x_tags(), zero_model());
        // 32 lines in one set: all fit (tag limit 32, 32 segments ≤ 64).
        for i in 0..32u64 {
            c.access(req(i * 2048));
        }
        assert_eq!(c.lines_in_set(0), 32);
        assert_eq!(c.stats().evictions, 0);
        // The 33rd line hits the tag limit and evicts the LRU.
        c.access(req(32 * 2048));
        assert_eq!(c.lines_in_set(0), 32);
        assert_eq!(c.stats().evictions, 1);
    }

    #[test]
    fn incompressible_lines_behave_like_baseline() {
        let mut c = CmprCache::new(CmprConfig::cmpr_4x_tags(), incompressible_model());
        // 68 B compressed is clamped to the 64 B line → 8 segments each.
        for i in 0..9u64 {
            c.access(req(i * 2048));
        }
        assert_eq!(c.lines_in_set(0), 8, "only 8 full-size lines fit");
        assert_eq!(c.stats().evictions, 1);
    }

    #[test]
    fn lru_order_is_respected() {
        let mut c = CmprCache::new(CmprConfig::cmpr_4x_tags(), incompressible_model());
        for i in 0..8u64 {
            c.access(req(i * 2048));
        }
        c.access(req(0)); // promote line 0
        c.access(req(8 * 2048)); // evicts line 1*2048 (LRU)
        assert_eq!(c.access(req(0)).outcome, L2Outcome::LocHit);
        assert_eq!(c.access(req(2048)).outcome, L2Outcome::LineMiss);
    }

    #[test]
    fn dirty_evictions_write_back() {
        let mut c = CmprCache::new(CmprConfig::cmpr_4x_tags(), incompressible_model());
        c.access(L2Request::data(LineAddr::new(0), WordIndex::new(0), true));
        for i in 1..=8u64 {
            c.access(req(i * 2048));
        }
        assert_eq!(c.stats().writebacks, 1);
    }

    #[test]
    fn l1_evict_marks_dirty_or_writes_back() {
        let mut c = CmprCache::new(CmprConfig::cmpr_4x_tags(), zero_model());
        c.access(req(0));
        c.on_l1d_evict(LineAddr::new(0), Footprint::full(8), true);
        assert_eq!(c.stats().writebacks, 0);
        c.on_l1d_evict(LineAddr::new(999), Footprint::full(8), true);
        assert_eq!(c.stats().writebacks, 1);
    }
}
