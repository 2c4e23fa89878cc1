//! CMPR: a traditional cache with compression (Section 8.2's
//! CMPR-4xTags comparator).
//!
//! Lines are stored compressed in a segmented data array: each set has the
//! same data budget as the baseline (ways × line size) but up to
//! `tag_factor ×` ways tag entries, so compressible lines multiply the
//! effective capacity. Replacement is perfect LRU over whole lines, per
//! the paper's CMPR configuration (Section 8.2).
//!
//! Each set is a flat LRU stack of `tags_per_set` slots, MRU first, with
//! a running line count and segment total. A hit shifts the line to the
//! front ([`shift_in_mru`]); a miss pops lines off the tail until the new
//! line fits both budgets and shifts it in. A miss evicts a variable
//! number of LRU lines, which an MRU-ordered stack pops off its tail
//! without scanning a way permutation as
//! [`SetArena`](ldis_cache::SetArena) would.

use crate::ValueSizeModel;
use ldis_cache::{
    shift_in_mru, CompulsoryTracker, L2Outcome, L2Request, L2Response, L2Stats, SecondLevel,
};
use ldis_mem::stats::Counter;
use ldis_mem::{Footprint, LineAddr, LineGeometry, SetIndex};

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

/// A set's running totals: its stack holds `lines` lines occupying
/// `segments` segments.
#[derive(Clone, Copy, Debug, Default)]
struct SetFill {
    lines: u32,
    segments: u32,
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
    /// `tags_per_set()`, the stride of the slot arrays.
    stack_len: usize,
    /// Per slot `set * stack_len + pos` (0 = MRU): the line's tag.
    tags: Vec<u64>,
    /// Per slot, same indexing: the line's segments `<< 1 | dirty`.
    meta: Vec<u32>,
    /// Per set: lines held (slots `0..lines` are live) and segments used.
    fill: Vec<SetFill>,
    stats: L2Stats,
    compulsory: CompulsoryTracker,
    label: String,
}

impl CmprCache {
    /// Creates an empty compressed cache.
    ///
    /// # Panics
    ///
    /// Panics unless `cfg` has at least one way, a tag factor of at least
    /// one, a non-zero segment size that divides the line, and a size that
    /// is a whole power-of-two number of sets (the set index is a mask).
    pub fn new(cfg: CmprConfig, model: ValueSizeModel) -> Self {
        assert!(cfg.ways >= 1, "CMPR needs at least one way");
        assert!(cfg.tag_factor >= 1, "CMPR needs a tag factor of at least 1");
        let line = cfg.geometry.line_bytes();
        assert!(
            cfg.segment_bytes > 0 && line.is_multiple_of(cfg.segment_bytes),
            "segment size {} must be non-zero and divide the {line} B line",
            cfg.segment_bytes
        );
        assert!(
            cfg.size_bytes
                .is_multiple_of(u64::from(line) * u64::from(cfg.ways))
                && cfg.num_sets().is_power_of_two(),
            "CMPR size {} must be a power-of-two number of {}-way sets",
            cfg.size_bytes,
            cfg.ways
        );
        #[expect(
            clippy::cast_possible_truncation,
            reason = "the set count sizes in-memory arrays, so it fits usize"
        )]
        let sets = cfg.num_sets() as usize;
        let stack_len = cfg.tags_per_set() as usize;
        CmprCache {
            stack_len,
            tags: vec![0; sets * stack_len],
            meta: vec![0; sets * stack_len],
            fill: vec![SetFill::default(); sets],
            stats: L2Stats::new(cfg.geometry.words_per_line(), cfg.ways),
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
    pub fn lines_in_set(&self, set: SetIndex) -> usize {
        self.fill.get(set.get()).map_or(0, |f| f.lines as usize)
    }

    /// Segments currently occupied in `set` (0 if out of range).
    pub fn segments_in_set(&self, set: SetIndex) -> u32 {
        self.fill.get(set.get()).map_or(0, |f| f.segments)
    }

    fn set_and_tag(&self, line: LineAddr) -> (SetIndex, u64) {
        let sets = self.cfg.num_sets();
        (
            SetIndex::of_line(line, sets),
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

    /// The index of `set`'s MRU slot in the slot arrays.
    fn stack_start(&self, set: SetIndex) -> usize {
        set.get().wrapping_mul(self.stack_len)
    }

    /// Shifts a line in at the MRU slot of the stack prefix
    /// `first..=last`, moving the lines there down one slot.
    fn shift_in(&mut self, first: usize, last: usize, tag: u64, meta: u32) {
        if let Some(tags) = self.tags.get_mut(first..=last) {
            shift_in_mru(tags, tag);
        }
        if let Some(metas) = self.meta.get_mut(first..=last) {
            shift_in_mru(metas, meta);
        }
    }
}

impl SecondLevel for CmprCache {
    fn access(&mut self, req: L2Request) -> L2Response {
        self.stats.accesses.bump();
        let (set, tag) = self.set_and_tag(req.line);
        let full = Footprint::full(self.cfg.geometry.words_per_line());
        let first = self.stack_start(set);
        let mut fill = self.fill.get(set.get()).copied().unwrap_or_default();
        let live = self
            .tags
            .get(first..first.wrapping_add(fill.lines as usize))
            .unwrap_or_default();
        if let Some(pos) = live.iter().position(|&t| t == tag) {
            let hit = first.wrapping_add(pos);
            let meta = self.meta.get(hit).copied().unwrap_or(0) | u32::from(req.write);
            self.shift_in(first, hit, tag, meta);
            self.stats.loc_hits.bump();
            return L2Response {
                outcome: L2Outcome::LocHit,
                valid_words: full,
            };
        }

        self.stats.line_misses.bump();
        if self.compulsory.record_miss(req.line) {
            self.stats.compulsory_misses.bump();
        }
        let segments = self.segments_for(req.line);
        // Perfect LRU: evict from the tail until the new line fits both
        // the tag budget and the segment budget. `new` guarantees a lone
        // line always fits, so the new line itself is never a victim.
        let budget = self.cfg.segments_per_set();
        while fill.lines > 0
            && (fill.lines as usize >= self.stack_len || fill.segments + segments > budget)
        {
            fill.lines -= 1;
            let victim = self
                .meta
                .get(first.wrapping_add(fill.lines as usize))
                .copied()
                .unwrap_or(0);
            fill.segments -= victim >> 1;
            self.stats.evictions.bump();
            if victim & 1 != 0 {
                self.stats.writebacks.bump();
            }
        }
        let last = first.wrapping_add(fill.lines as usize);
        self.shift_in(first, last, tag, segments << 1 | u32::from(req.write));
        fill.lines += 1;
        fill.segments += segments;
        if let Some(f) = self.fill.get_mut(set.get()) {
            *f = fill;
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
        let (set, tag) = self.set_and_tag(line);
        let first = self.stack_start(set);
        let lines = self.lines_in_set(set);
        let pos = self
            .tags
            .get(first..first.wrapping_add(lines))
            .and_then(|live| live.iter().position(|&t| t == tag));
        match pos.and_then(|pos| self.meta.get_mut(first.wrapping_add(pos))) {
            Some(meta) => *meta |= 1,
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
        assert_eq!(c.lines_in_set(SetIndex::new(0)), 32);
        assert_eq!(c.stats().evictions, 0);
        // The 33rd line hits the tag limit and evicts the LRU.
        c.access(req(32 * 2048));
        assert_eq!(c.lines_in_set(SetIndex::new(0)), 32);
        assert_eq!(c.stats().evictions, 1);
    }

    #[test]
    fn incompressible_lines_behave_like_baseline() {
        let mut c = CmprCache::new(CmprConfig::cmpr_4x_tags(), incompressible_model());
        // 68 B compressed is clamped to the 64 B line → 8 segments each.
        for i in 0..9u64 {
            c.access(req(i * 2048));
        }
        assert_eq!(
            c.lines_in_set(SetIndex::new(0)),
            8,
            "only 8 full-size lines fit"
        );
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

    fn cmpr(edit: impl FnOnce(&mut CmprConfig)) -> CmprCache {
        let mut cfg = CmprConfig::cmpr_4x_tags();
        edit(&mut cfg);
        CmprCache::new(cfg, zero_model())
    }

    #[test]
    #[should_panic(expected = "power-of-two number")]
    fn rejects_a_set_count_that_is_not_a_power_of_two() {
        // 1.5 MB of 8-way sets is 3072 sets: the set mask would never
        // select sets 1024..2048.
        cmpr(|c| c.size_bytes = 3 << 19);
    }

    #[test]
    #[should_panic(expected = "at least one way")]
    fn rejects_zero_ways() {
        cmpr(|c| c.ways = 0);
    }

    #[test]
    #[should_panic(expected = "tag factor")]
    fn rejects_a_zero_tag_factor() {
        cmpr(|c| c.tag_factor = 0);
    }

    #[test]
    #[should_panic(expected = "segment size 0")]
    fn rejects_zero_byte_segments() {
        cmpr(|c| c.segment_bytes = 0);
    }

    #[test]
    #[should_panic(expected = "segment size 24")]
    fn rejects_segments_that_do_not_divide_the_line() {
        cmpr(|c| c.segment_bytes = 24);
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
