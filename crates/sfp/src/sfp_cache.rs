//! The SFP cache: a decoupled sectored L2 driven by the spatial footprint
//! predictor (the Figure 13 comparator).

use crate::FootprintPredictor;
use ldis_cache::{CompulsoryTracker, L2Outcome, L2Request, L2Response, L2Stats, SecondLevel};
use ldis_distill::{Reverter, ReverterConfig};
use ldis_mem::stats::Counter;
use ldis_mem::{Addr, Footprint, LineAddr, LineGeometry, SetIndex, WordIndex};
use std::collections::VecDeque;

/// Configuration of the SFP cache.
#[derive(Clone, Copy, Debug)]
pub struct SfpConfig {
    /// Data capacity in bytes (1 MB in the paper).
    pub size_bytes: u64,
    /// Data ways per set (8): sets the per-set word-slot budget.
    pub ways: u32,
    /// Tag entries per set. The paper gives the decoupled sectored cache
    /// the same number of tag entries as the distill cache: 6 line tags +
    /// 2 × 8 word tags = 22.
    pub tags_per_set: u32,
    /// Predictor table entries (16 k or 64 k in Figure 13).
    pub predictor_entries: usize,
    /// Line/word geometry.
    pub geometry: LineGeometry,
    /// Optional reverter circuit (the paper adds one to SFP too).
    pub reverter: Option<ReverterConfig>,
}

impl SfpConfig {
    /// The Figure 13 configuration with a 16 k-entry (64 kB) predictor.
    pub fn sfp_16k() -> Self {
        SfpConfig {
            size_bytes: 1 << 20,
            ways: 8,
            tags_per_set: 22,
            predictor_entries: 16 * 1024,
            geometry: LineGeometry::default(),
            reverter: Some(ReverterConfig::default()),
        }
    }

    /// The Figure 13 configuration with a 64 k-entry (256 kB) predictor.
    pub fn sfp_64k() -> Self {
        SfpConfig {
            predictor_entries: 64 * 1024,
            ..SfpConfig::sfp_16k()
        }
    }

    /// Number of sets.
    pub fn num_sets(&self) -> u64 {
        self.size_bytes / (self.geometry.line_bytes() as u64 * self.ways as u64)
    }

    /// Word-slot budget per set.
    pub fn slots_per_set(&self) -> u32 {
        self.ways
            .saturating_mul(self.geometry.words_per_line() as u32)
    }
}

#[derive(Clone, Copy, Debug)]
struct SfpLine {
    tag: u64,
    /// Words installed (the prediction at fill time).
    stored: Footprint,
    /// Words actually used while resident (for training).
    observed: Footprint,
    dirty: bool,
    /// The data way holding the words (decoupled sectored placement).
    way: usize,
    /// The PC and demand word that installed the line, for training.
    fill_pc: Addr,
    fill_word: WordIndex,
}

/// One set of the decoupled sectored cache: resident lines in LRU order
/// plus the per-way occupancy masks. A word can only live at its native
/// offset within a data way, so two lines sharing a word offset cannot
/// share a way — the placement restriction the paper highlights
/// (Section 9).
#[derive(Clone, Debug, Default)]
struct SfpSet {
    /// MRU first.
    lines: VecDeque<SfpLine>,
    /// Occupied word offsets per data way.
    masks: Vec<u16>,
}

/// A second-level cache that installs only the words its spatial footprint
/// predictor expects to be used, storing them in a decoupled sectored
/// array (per-set word-slot budget + extra tags).
///
/// Mispredictions are SFP's structural weakness (Section 9): a word that
/// was not predicted is a miss that a traditional cache would have hit,
/// whereas LDIS only filters at eviction time.
#[derive(Clone, Debug)]
pub struct SfpCache {
    cfg: SfpConfig,
    predictor: FootprintPredictor,
    sets: Vec<SfpSet>,
    reverter: Option<Reverter>,
    stats: L2Stats,
    compulsory: CompulsoryTracker,
    label: String,
}

impl SfpCache {
    /// Creates an empty SFP cache.
    ///
    /// # Panics
    ///
    /// Panics unless `cfg` has at least one way, at least one tag per set,
    /// and a size that is a whole power-of-two number of sets (the set
    /// index is a mask).
    pub fn new(cfg: SfpConfig) -> Self {
        assert!(cfg.ways >= 1, "SFP needs at least one way");
        assert!(cfg.tags_per_set >= 1, "SFP needs at least one tag per set");
        let set_bytes = u64::from(cfg.geometry.line_bytes()) * u64::from(cfg.ways);
        assert!(
            cfg.size_bytes.is_multiple_of(set_bytes) && cfg.num_sets().is_power_of_two(),
            "SFP size {} must be a power-of-two number of {}-way sets",
            cfg.size_bytes,
            cfg.ways
        );
        let stats = L2Stats::new(cfg.geometry.words_per_line(), cfg.ways);
        SfpCache {
            predictor: FootprintPredictor::new(
                cfg.predictor_entries,
                cfg.geometry.words_per_line(),
            ),
            sets: (0..cfg.num_sets())
                .map(|_| SfpSet {
                    lines: VecDeque::new(),
                    masks: vec![0; cfg.ways as usize],
                })
                .collect(),
            reverter: cfg
                .reverter
                .map(|rc| Reverter::new(rc, cfg.num_sets(), cfg.ways)),
            stats,
            compulsory: CompulsoryTracker::new(),
            label: format!("SFP-{}k", cfg.predictor_entries / 1024),
            cfg,
        }
    }

    /// The configuration.
    pub fn config(&self) -> &SfpConfig {
        &self.cfg
    }

    /// The predictor (for inspection).
    pub fn predictor(&self) -> &FootprintPredictor {
        &self.predictor
    }

    fn set_and_tag(&self, line: LineAddr) -> (SetIndex, u64) {
        let sets = self.cfg.num_sets();
        (
            SetIndex::of_line(line, sets),
            line.raw() >> sets.trailing_zeros(),
        )
    }

    fn sfp_active_for(&self, set: SetIndex) -> bool {
        match &self.reverter {
            None => true,
            Some(r) => r.is_leader(set) || r.ldis_enabled(),
        }
    }

    fn observe_reverter(&mut self, set: SetIndex, line: LineAddr, missed: bool) {
        if let Some(r) = self.reverter.as_mut() {
            if r.is_leader(set) {
                r.observe_leader_access(set, line, missed);
            }
        }
    }

    /// Installs a line with the given stored words. The decoupled sectored
    /// placement requires a data way whose occupied word offsets are
    /// disjoint from the line's; LRU lines are evicted until a way fits
    /// and the tag budget holds, training the predictor with each
    /// victim's observed footprint.
    fn install(&mut self, set_idx: SetIndex, tag: u64, req: &L2Request, stored: Footprint) {
        let max_tags = self.cfg.tags_per_set as usize;
        // `set_idx` is masked to `0..num_sets` by `set_and_tag`, so the
        // `get` lookups cannot miss.
        let way = loop {
            let Some(set) = self.sets.get(set_idx.get()) else {
                return;
            };
            if set.lines.len() < max_tags {
                if let Some(way) = set.masks.iter().position(|&m| m & stored.bits() == 0) {
                    break way;
                }
            }
            self.evict_lru(set_idx);
        };
        let Some(set) = self.sets.get_mut(set_idx.get()) else {
            return;
        };
        if let Some(mask) = set.masks.get_mut(way) {
            *mask |= stored.bits();
        }
        let mut observed = Footprint::empty();
        if !req.is_instr {
            observed.touch(req.word);
        }
        set.lines.push_front(SfpLine {
            tag,
            stored,
            observed,
            dirty: req.write,
            way,
            fill_pc: req.pc,
            fill_word: req.word,
        });
    }

    fn evict_lru(&mut self, set_idx: SetIndex) {
        // Callers only evict from sets they just found full; an empty set
        // simply has nothing to evict.
        let Some(set) = self.sets.get_mut(set_idx.get()) else {
            return;
        };
        let Some(victim) = set.lines.pop_back() else {
            return;
        };
        if let Some(mask) = set.masks.get_mut(victim.way) {
            *mask &= !victim.stored.bits();
        }
        self.stats.evictions.bump();
        if victim.dirty {
            self.stats.writebacks.bump();
        }
        self.stats
            .words_used_at_evict
            .record(victim.observed.used_words() as usize);
        self.predictor.train(
            victim.fill_pc,
            victim.fill_word,
            if victim.observed.is_empty() {
                victim.stored
            } else {
                victim.observed
            },
        );
    }
}

impl SecondLevel for SfpCache {
    fn access(&mut self, req: L2Request) -> L2Response {
        self.stats.accesses.bump();
        let (set_idx, tag) = self.set_and_tag(req.line);
        let full = Footprint::full(self.cfg.geometry.words_per_line());

        let resident = self.sets.get_mut(set_idx.get()).and_then(|set| {
            set.lines
                .iter()
                .position(|l| l.tag == tag)
                .and_then(|pos| set.lines.remove(pos))
        });
        if let Some(mut line) = resident {
            if req.is_instr || line.stored.is_used(req.word) {
                // Word present: a hit. Count instruction hits as LOC-style
                // hits and data word hits as WOC-style hits for reporting.
                line.observed.touch(req.word);
                line.dirty |= req.write;
                let stored = line.stored;
                if let Some(set) = self.sets.get_mut(set_idx.get()) {
                    set.lines.push_front(line);
                }
                if req.is_instr {
                    self.stats.loc_hits.bump();
                } else {
                    self.stats.woc_hits.bump();
                }
                self.observe_reverter(set_idx, req.line, false);
                let valid = if req.is_instr { full } else { stored };
                return L2Response {
                    outcome: if req.is_instr {
                        L2Outcome::LocHit
                    } else {
                        L2Outcome::WocHit
                    },
                    valid_words: valid,
                };
            }
            // Demanded word was not predicted: a hole miss. Drop the stale
            // copy (clearing its way occupancy) and refetch with a widened
            // prediction (observed ∪ stored ∪ demand); dirty words merge
            // into the refetched line.
            self.stats.hole_misses.bump();
            self.observe_reverter(set_idx, req.line, true);
            if let Some(mask) = self
                .sets
                .get_mut(set_idx.get())
                .and_then(|s| s.masks.get_mut(line.way))
            {
                *mask &= !line.stored.bits();
            }
            let mut stored = line.stored.merged(line.observed);
            stored.touch(req.word);
            self.install(set_idx, tag, &req, stored);
            if line.dirty {
                if let Some(l) = self
                    .sets
                    .get_mut(set_idx.get())
                    .and_then(|s| s.lines.iter_mut().find(|l| l.tag == tag))
                {
                    l.dirty = true;
                }
            }
            return L2Response {
                outcome: L2Outcome::HoleMiss,
                valid_words: full,
            };
        }

        // Line miss: predict the footprint and install only those words.
        self.stats.line_misses.bump();
        if self.compulsory.record_miss(req.line) {
            self.stats.compulsory_misses.bump();
        }
        self.observe_reverter(set_idx, req.line, true);
        let stored = if req.is_instr || !self.sfp_active_for(set_idx) {
            full
        } else {
            self.predictor.predict(req.pc, req.word)
        };
        self.install(set_idx, tag, &req, stored);
        L2Response {
            outcome: L2Outcome::LineMiss,
            valid_words: full,
        }
    }

    fn on_l1d_evict(&mut self, line: LineAddr, footprint: Footprint, dirty: bool) {
        let (set_idx, tag) = self.set_and_tag(line);
        match self
            .sets
            .get_mut(set_idx.get())
            .and_then(|s| s.lines.iter_mut().find(|l| l.tag == tag))
        {
            Some(l) => {
                l.observed.merge(footprint);
                l.dirty |= dirty;
            }
            None => {
                if dirty {
                    self.stats.writebacks.bump();
                }
            }
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

    fn small() -> SfpCache {
        let cfg = SfpConfig {
            size_bytes: 4 * 8 * 64, // 4 sets
            ways: 8,
            tags_per_set: 22,
            predictor_entries: 1024,
            geometry: LineGeometry::default(),
            reverter: None,
        };
        SfpCache::new(cfg)
    }

    fn req(line: u64, word: u8, pc: u64) -> L2Request {
        L2Request::data(LineAddr::new(line), WordIndex::new(word), false).with_pc(Addr::new(pc))
    }

    fn sfp(edit: impl FnOnce(&mut SfpConfig)) -> SfpCache {
        let mut cfg = SfpConfig::sfp_16k();
        edit(&mut cfg);
        SfpCache::new(cfg)
    }

    #[test]
    #[should_panic(expected = "power-of-two number")]
    fn rejects_a_set_count_that_is_not_a_power_of_two() {
        // 1.5 MB of 8-way sets is 3072 sets: the set mask would never
        // select sets 1024..2048.
        sfp(|c| c.size_bytes = 3 << 19);
    }

    #[test]
    #[should_panic(expected = "at least one way")]
    fn rejects_zero_ways() {
        sfp(|c| c.ways = 0);
    }

    #[test]
    #[should_panic(expected = "at least one tag")]
    fn rejects_zero_tags() {
        sfp(|c| c.tags_per_set = 0);
    }

    #[test]
    fn untrained_fill_behaves_like_traditional() {
        let mut c = small();
        assert_eq!(c.access(req(0, 0, 0x10)).outcome, L2Outcome::LineMiss);
        // Untrained → full line stored: any word hits.
        assert_eq!(c.access(req(0, 7, 0x10)).outcome, L2Outcome::WocHit);
    }

    #[test]
    fn trained_prediction_filters_words_and_causes_hole_misses() {
        let mut c = small();
        let pc = 0x4000;
        // Touch word 0 of lines 0..22 (set 0) to fill the tag budget and
        // force evictions that train the predictor with "only word 0 used".
        for i in 0..30u64 {
            c.access(req(i * 4, 0, pc));
        }
        assert!(c.stats().evictions > 0);
        // A new line through the same PC is now predicted sparse.
        c.access(req(1000 * 4, 0, pc));
        let outcome = c.access(req(1000 * 4, 5, pc)).outcome;
        assert_eq!(outcome, L2Outcome::HoleMiss, "unpredicted word must miss");
        // After the hole miss the refetch widened the stored words.
        assert_eq!(c.access(req(1000 * 4, 5, pc)).outcome, L2Outcome::WocHit);
        assert_eq!(c.access(req(1000 * 4, 0, pc)).outcome, L2Outcome::WocHit);
    }

    #[test]
    fn sparse_predictions_pack_more_lines() {
        let mut c = small();
        let pc = 0x8000;
        // Train: lines via this PC use only their demand word (words 0..8
        // cycling). Untrained installs are full lines, so only 8 fit;
        // evictions train each (pc, word) entry sparse.
        for i in 0..64u64 {
            c.access(req(i * 4, (i % 8) as u8, pc));
        }
        // Install 22 fresh sparse lines with cycling word offsets: the
        // decoupled placement packs disjoint offsets into shared ways, so
        // all 22 fit the tag budget — with full lines only 8 could.
        for i in 100..122u64 {
            c.access(req(i * 4, (i % 8) as u8, pc));
        }
        for i in 100..122u64 {
            assert!(
                c.access(req(i * 4, (i % 8) as u8, pc)).outcome.is_hit(),
                "sparse line {i} should still be resident"
            );
        }
    }

    #[test]
    fn placement_restriction_limits_same_offset_lines() {
        let mut c = small();
        let pc = 0xa000;
        // Train (pc, word 0) sparse.
        for i in 0..40u64 {
            c.access(req(i * 4, 0, pc));
        }
        // 12 single-word lines all demanding word 0: only 8 ways exist, so
        // at most 8 can be resident despite the 22-entry tag budget — the
        // decoupled sectored cache's weakness vs. the WOC (Section 9).
        for i in 100..112u64 {
            c.access(req(i * 4, 0, pc));
        }
        let resident = (100..112u64)
            .filter(|&i| {
                let (set, tag) = c.set_and_tag(LineAddr::new(i * 4));
                c.sets[set.get()].lines.iter().any(|l| l.tag == tag)
            })
            .count();
        assert!(
            resident <= 8,
            "same-offset lines must not share ways: {resident}"
        );
    }

    #[test]
    fn instruction_lines_always_fill_full() {
        let mut c = small();
        c.access(L2Request::instr(LineAddr::new(0)));
        assert_eq!(
            c.access(L2Request::instr(LineAddr::new(0))).outcome,
            L2Outcome::LocHit
        );
    }

    #[test]
    fn l1_evictions_train_observed_footprints() {
        let mut c = small();
        let pc = 0x9000;
        c.access(req(0, 0, pc));
        c.on_l1d_evict(LineAddr::new(0), Footprint::from_bits(0b11), true);
        // Evict line 0 by filling the set with full lines through *other*
        // PCs (so only line 0's eviction trains entry `pc`).
        for i in 1..=8u64 {
            c.access(req(i * 4, 0, 0x100 + i));
        }
        // New line through the same pc/word: predicted words = {0, 1}.
        c.access(req(777 * 4, 0, pc));
        let hit = c.access(req(777 * 4, 1, pc));
        assert!(
            hit.outcome == L2Outcome::WocHit,
            "word 1 was in the trained footprint, got {:?}",
            hit.outcome
        );
        // Word 5 was never observed → hole miss.
        assert_eq!(c.access(req(777 * 4, 5, pc)).outcome, L2Outcome::HoleMiss);
    }

    #[test]
    fn dirty_evictions_write_back() {
        let mut c = small();
        c.access(L2Request::data(LineAddr::new(0), WordIndex::new(0), true).with_pc(Addr::new(1)));
        for i in 1..40u64 {
            c.access(req(i * 4, 0, 0x77));
        }
        assert!(c.stats().writebacks >= 1);
    }
}
