//! Differential tests: the compressed caches against the implementations
//! they replaced, kept here as slow, obvious references.
//!
//! * [`RefCmpr`] is CMPR as a `VecDeque` of lines per set that pushes the
//!   missed line at the front and then pops the LRU tail, re-summing the
//!   set's segments on every step, until both budgets hold;
//! * [`RefFacWoc`] is FAC's compressed WOC as one entry struct per slot
//!   whose placement scans every aligned offset for candidates;
//! * [`ref_compressed_bytes`] sizes a line by materialising its 32-bit
//!   chunk values ([`ValueSizeModel::chunks`]) and encoding them.
//!
//! Seeded random traces drive each pair in lockstep, and every observable
//! must agree at every step.

use ldis_cache::{CompulsoryTracker, L2Outcome, L2Request, L2Response, L2Stats, SecondLevel};
use ldis_compress::{
    compressed_bytes, fac_cache, CmprCache, CmprConfig, CompressedWoc, ValueSizeModel,
};
use ldis_distill::{
    DistillCache, DistillConfig, ReverterConfig, ThresholdPolicy, WocEviction, WocLineHit,
    WordStore,
};
use ldis_mem::stats::Counter;
use ldis_mem::{rng, Footprint, LineAddr, LineGeometry, SetIndex, SimRng, WordIndex};
use ldis_workloads::ValueProfile;
use std::collections::VecDeque;

/// The compressed size of `line` from its materialised chunk values.
fn ref_compressed_bytes(model: &ValueSizeModel, line: LineAddr, words: Option<Footprint>) -> u32 {
    compressed_bytes(&model.chunks(line, words))
}

fn presets() -> [ValueProfile; 3] {
    [
        ValueProfile::pointer_heavy(),
        ValueProfile::mixed_int(),
        ValueProfile::float_heavy(),
    ]
}

fn random_footprint(rng: &mut SimRng) -> Footprint {
    Footprint::from_bits(1 + rng.range(255) as u16)
}

#[derive(Clone, Copy, Debug)]
struct RefCmprLine {
    tag: u64,
    segments: u32,
    dirty: bool,
}

/// CMPR as it was: a `VecDeque` per set, MRU at the front.
struct RefCmpr {
    cfg: CmprConfig,
    model: ValueSizeModel,
    sets: Vec<VecDeque<RefCmprLine>>,
    stats: L2Stats,
    compulsory: CompulsoryTracker,
}

impl RefCmpr {
    fn new(cfg: CmprConfig, model: ValueSizeModel) -> Self {
        RefCmpr {
            sets: (0..cfg.num_sets()).map(|_| VecDeque::new()).collect(),
            stats: L2Stats::new(cfg.geometry.words_per_line(), cfg.ways),
            compulsory: CompulsoryTracker::new(),
            model,
            cfg,
        }
    }

    fn set_and_tag(&self, line: LineAddr) -> (usize, u64) {
        let sets = self.cfg.num_sets();
        (
            (line.raw() & (sets - 1)) as usize,
            line.raw() >> sets.trailing_zeros(),
        )
    }

    fn segments_for(&self, line: LineAddr) -> u32 {
        let bytes =
            ref_compressed_bytes(&self.model, line, None).min(self.cfg.geometry.line_bytes());
        bytes.div_ceil(self.cfg.segment_bytes).max(1)
    }

    fn access(&mut self, req: L2Request) -> L2Response {
        self.stats.accesses.bump();
        let (set_idx, tag) = self.set_and_tag(req.line);
        let full = Footprint::full(self.cfg.geometry.words_per_line());
        let set = &mut self.sets[set_idx];
        if let Some(pos) = set.iter().position(|l| l.tag == tag) {
            let mut line = set.remove(pos).unwrap();
            line.dirty |= req.write;
            set.push_front(line);
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
        let budget = self.cfg.segments_per_set();
        let max_tags = self.cfg.tags_per_set() as usize;
        let set = &mut self.sets[set_idx];
        set.push_front(RefCmprLine {
            tag,
            segments,
            dirty: req.write,
        });
        loop {
            let used: u32 = set.iter().map(|l| l.segments).sum();
            if used <= budget && set.len() <= max_tags {
                break;
            }
            let victim = set.pop_back().unwrap();
            self.stats.evictions.bump();
            if victim.dirty {
                self.stats.writebacks.bump();
            }
        }
        L2Response {
            outcome: L2Outcome::LineMiss,
            valid_words: full,
        }
    }

    fn on_l1d_evict(&mut self, line: LineAddr, dirty: bool) {
        if !dirty {
            return;
        }
        let (set_idx, tag) = self.set_and_tag(line);
        match self.sets[set_idx].iter_mut().find(|l| l.tag == tag) {
            Some(l) => l.dirty = true,
            None => self.stats.writebacks.bump(),
        }
    }

    fn lines_in_set(&self, set: usize) -> usize {
        self.sets[set].len()
    }

    fn segments_in_set(&self, set: usize) -> u32 {
        self.sets[set].iter().map(|l| l.segments).sum()
    }
}

#[derive(Clone, Copy, Debug, Default)]
struct FacEntry {
    valid: bool,
    dirty: bool,
    head: bool,
    tag: u64,
    /// Every stored word of the line; meaningful at the head.
    words: Footprint,
}

/// FAC's compressed WOC as it was: one entry struct per slot.
struct RefFacWoc {
    ways: usize,
    words_per_line: usize,
    entries: Vec<FacEntry>,
    rng: SimRng,
    model: ValueSizeModel,
}

impl RefFacWoc {
    fn new(num_sets: u64, ways: u32, words_per_line: u8, seed: u64, model: ValueSizeModel) -> Self {
        RefFacWoc {
            ways: ways as usize,
            words_per_line: words_per_line as usize,
            entries: vec![
                FacEntry::default();
                num_sets as usize * ways as usize * words_per_line as usize
            ],
            rng: SimRng::new(seed),
            model,
        }
    }

    fn slots_for(&self, line: LineAddr, words: Footprint) -> usize {
        let uncompressed = words.woc_slots() as usize;
        let bytes = ref_compressed_bytes(&self.model, line, Some(words));
        let slots = bytes.div_ceil(8).max(1) as usize;
        slots.next_power_of_two().min(uncompressed.max(1))
    }

    fn way_range(&self, set: usize, way: usize) -> std::ops::Range<usize> {
        let base = (set * self.ways + way) * self.words_per_line;
        base..base + self.words_per_line
    }

    fn set_range(&self, set: usize) -> std::ops::Range<usize> {
        let base = set * self.ways * self.words_per_line;
        base..base + self.ways * self.words_per_line
    }

    fn choose_position(&mut self, set: usize, slots: usize) -> (usize, usize) {
        let mut free = Vec::new();
        let mut eligible = Vec::new();
        for way in 0..self.ways {
            let entries = &self.entries[self.way_range(set, way)];
            for offset in (0..self.words_per_line).step_by(slots) {
                let first = entries[offset];
                if !first.valid || first.head {
                    eligible.push((way, offset));
                    if entries[offset..offset + slots].iter().all(|e| !e.valid) {
                        free.push((way, offset));
                    }
                }
            }
        }
        if !free.is_empty() {
            return free[self.rng.index(free.len())];
        }
        eligible[self.rng.index(eligible.len())]
    }

    fn evict_range(
        &mut self,
        set: usize,
        way: usize,
        offset: usize,
        slots: usize,
    ) -> Vec<WocEviction> {
        let range = self.way_range(set, way);
        let entries = &mut self.entries[range];
        let mut evictions: Vec<WocEviction> = Vec::new();
        // Walk from `offset` to the end of the last line that starts in
        // the window, clearing every entry on the way.
        for (i, slot) in entries.iter_mut().enumerate().skip(offset) {
            let e = *slot;
            if i >= offset + slots && (!e.valid || e.head) {
                break;
            }
            if !e.valid {
                continue;
            }
            if e.head {
                evictions.push(WocEviction {
                    tag: e.tag,
                    words: e.words,
                    dirty: e.dirty,
                });
            } else {
                evictions.last_mut().unwrap().dirty |= e.dirty;
            }
            *slot = FacEntry::default();
        }
        evictions
    }
}

impl WordStore for RefFacWoc {
    fn lookup(&self, set: SetIndex, tag: u64) -> Option<WocLineHit> {
        self.entries[self.set_range(set.get())]
            .iter()
            .find(|e| e.valid && e.head && e.tag == tag)
            .map(|e| WocLineHit {
                valid_words: e.words,
            })
    }

    fn install(
        &mut self,
        set: SetIndex,
        tag: u64,
        line: LineAddr,
        words: Footprint,
        dirty: bool,
        evicted: &mut Vec<WocEviction>,
    ) {
        assert!(!words.is_empty());
        assert!(self.lookup(set, tag).is_none(), "already present");
        evicted.clear();
        let slots = self.slots_for(line, words).min(self.words_per_line);
        let (way, offset) = self.choose_position(set.get(), slots);
        evicted.extend(self.evict_range(set.get(), way, offset, slots));
        let base = self.way_range(set.get(), way).start + offset;
        for (i, slot) in self.entries[base..base + slots].iter_mut().enumerate() {
            *slot = FacEntry {
                valid: true,
                dirty,
                head: i == 0,
                tag,
                words: if i == 0 { words } else { Footprint::empty() },
            };
        }
    }

    fn invalidate_line(&mut self, set: SetIndex, tag: u64) -> Option<WocEviction> {
        let range = self.set_range(set.get());
        let mut record: Option<WocEviction> = None;
        for e in &mut self.entries[range] {
            if e.valid && e.tag == tag {
                let rec = record.get_or_insert(WocEviction {
                    tag,
                    words: Footprint::empty(),
                    dirty: false,
                });
                if e.head {
                    rec.words = e.words;
                }
                rec.dirty |= e.dirty;
                *e = FacEntry::default();
            }
        }
        record
    }

    fn mark_dirty(&mut self, set: SetIndex, tag: u64) -> bool {
        let range = self.set_range(set.get());
        let mut found = false;
        for e in &mut self.entries[range] {
            if e.valid && e.tag == tag {
                e.dirty = true;
                found = true;
            }
        }
        found
    }

    fn occupancy(&self) -> u64 {
        self.entries.iter().filter(|e| e.valid).count() as u64
    }
}

/// The compressed size from class-only sums equals the encoded size of
/// the materialised values, for every preset, every footprint and the
/// whole line.
#[test]
fn compressed_bytes_match_the_chunk_reference() {
    let geom = LineGeometry::default();
    let mut rng = SimRng::new(0xd1ff_0001);
    for (p, profile) in presets().into_iter().enumerate() {
        let model = ValueSizeModel::new(profile, geom, rng.next_u64());
        for _ in 0..64 {
            let line = LineAddr::new(rng.range(1 << 40));
            assert_eq!(
                model.compressed_bytes(line, None),
                ref_compressed_bytes(&model, line, None),
                "preset {p} line {line:?} whole line"
            );
            for bits in 1..=255u16 {
                let fp = Footprint::from_bits(bits);
                assert_eq!(
                    model.compressed_bytes(line, Some(fp)),
                    ref_compressed_bytes(&model, line, Some(fp)),
                    "preset {p} line {line:?} footprint {bits:#010b}"
                );
            }
        }
    }
}

fn assert_same_cmpr_sets(new: &CmprCache, old: &RefCmpr, what: &str) {
    for set in 0..old.sets.len() {
        assert_eq!(
            new.lines_in_set(SetIndex::new(set)),
            old.lines_in_set(set),
            "{what}: lines in set {set}"
        );
        assert_eq!(
            new.segments_in_set(SetIndex::new(set)),
            old.segments_in_set(set),
            "{what}: segments in set {set}"
        );
    }
}

/// CMPR's LRU stack agrees with the `VecDeque` reference on every
/// response, every set's lines and segments, and the final counters,
/// over tag factors 1–4, segment sizes 4/8/16, dirty writes and L1D
/// writebacks.
#[test]
fn cmpr_matches_the_vecdeque_reference() {
    let mut rng = SimRng::new(0xd1ff_0002);
    let geometry = LineGeometry::default();
    for tag_factor in 1..=4u32 {
        for segment_bytes in [4u32, 8, 16] {
            for (p, profile) in presets().into_iter().enumerate() {
                let ways = [1u32, 2, 4, 8][rng.index(4)];
                let sets = [1u64, 4, 8][rng.index(3)];
                let cfg = CmprConfig {
                    size_bytes: sets * u64::from(ways) * 64,
                    ways,
                    tag_factor,
                    segment_bytes,
                    geometry,
                };
                let model = ValueSizeModel::new(profile, geometry, rng.next_u64());
                let mut new = CmprCache::new(cfg, model);
                let mut old = RefCmpr::new(cfg, model);
                let what = format!("x{tag_factor} {segment_bytes} B preset {p} {ways}w {sets}s");
                let pool = sets * u64::from(cfg.tags_per_set()) * 3;
                for step in 0..3000 {
                    let line = LineAddr::new(rng.range(pool));
                    if rng.chance(0.2) {
                        let dirty = rng.chance(0.5);
                        new.on_l1d_evict(line, Footprint::full(8), dirty);
                        old.on_l1d_evict(line, dirty);
                    } else {
                        let req = L2Request::data(line, WordIndex::new(0), rng.chance(0.3));
                        assert_eq!(new.access(req), old.access(req), "{what}: step {step}");
                    }
                    assert_same_cmpr_sets(&new, &old, &format!("{what}: step {step}"));
                }
                assert_eq!(*new.stats(), old.stats, "{what}: final stats");
                assert!(old.stats.evictions > 0, "{what}: the trace must evict");
            }
        }
    }
}

/// FAC's `Woc`-backed store returns exactly what the per-slot reference
/// returns, call for call: lookups, install evictions in order,
/// invalidations, `mark_dirty` and occupancy.
#[test]
fn compressed_woc_matches_the_entry_reference() {
    let mut rng = SimRng::new(0xd1ff_0003);
    for case in 0..48 {
        let num_sets = [1u64, 2, 4][rng.index(3)];
        let ways = 1 + rng.range(3) as u32;
        let seed = rng.next_u64();
        let model = ValueSizeModel::new(presets()[case % 3], LineGeometry::default(), seed);
        let mut new = CompressedWoc::new(num_sets, ways, 8, seed, model);
        let mut old = RefFacWoc::new(num_sets, ways, 8, seed, model);
        let pool = 4 * u64::from(ways) * 8;
        let (mut new_ev, mut old_ev) = (Vec::new(), Vec::new());
        for step in 0..1500 {
            let what = format!("case {case} step {step}");
            let set = SetIndex::new(rng.index(num_sets as usize));
            let tag = rng.range(pool);
            let hit = old.lookup(set, tag);
            assert_eq!(new.lookup(set, tag), hit, "{what}: lookup");
            match (hit, rng.index(4)) {
                (None, 0) => {
                    assert!(!new.mark_dirty(set, tag) && !old.mark_dirty(set, tag));
                    assert_eq!(new.invalidate_line(set, tag), None, "{what}");
                    assert_eq!(old.invalidate_line(set, tag), None, "{what}");
                }
                (None, _) => {
                    let line = LineAddr::new(tag * num_sets + set.get() as u64);
                    let words = random_footprint(&mut rng);
                    let dirty = rng.chance(0.3);
                    new.install(set, tag, line, words, dirty, &mut new_ev);
                    old.install(set, tag, line, words, dirty, &mut old_ev);
                    assert_eq!(new_ev, old_ev, "{what}: evictions");
                    new.check_invariants(set)
                        .unwrap_or_else(|e| panic!("{what}: {e}"));
                }
                (Some(_), 0) => assert_eq!(
                    new.invalidate_line(set, tag),
                    old.invalidate_line(set, tag),
                    "{what}: invalidate"
                ),
                (Some(_), 1) => assert_eq!(
                    new.mark_dirty(set, tag),
                    old.mark_dirty(set, tag),
                    "{what}: mark_dirty"
                ),
                (Some(_), _) => {}
            }
            assert_eq!(new.occupancy(), old.occupancy(), "{what}: occupancy");
        }
    }
}

/// A whole FAC distill cache over the new store agrees with one over the
/// reference store on every response and the final counters, with and
/// without median filtering and the reverter.
#[test]
fn fac_cache_matches_the_entry_reference() {
    let mut rng = SimRng::new(0xd1ff_0004);
    let geometry = LineGeometry::default();
    for case in 0..12 {
        let woc_ways = 1 + rng.range(3) as u32;
        let mut cfg =
            DistillConfig::new(16 * 8 * 64, 8, woc_ways, geometry).with_seed(rng.next_u64());
        if case % 2 == 1 {
            cfg = cfg.with_policy(ThresholdPolicy::median());
        }
        if case % 4 == 3 {
            cfg = cfg.with_reverter(ReverterConfig {
                leader_sets: 4,
                ..ReverterConfig::default()
            });
        }
        let model = ValueSizeModel::new(presets()[case % 3], geometry, rng.next_u64());
        let mut new = fac_cache(cfg, model);
        let reference = RefFacWoc::new(
            cfg.num_sets(),
            cfg.woc_ways(),
            geometry.words_per_line(),
            cfg.seed() ^ rng::FAC,
            model,
        );
        let mut old = DistillCache::with_word_store(cfg, reference);
        let pool = 16 * 8 * 4;
        for step in 0..6000 {
            let line = LineAddr::new(rng.range(pool));
            if rng.chance(0.3) {
                let fp = random_footprint(&mut rng);
                let dirty = rng.chance(0.4);
                new.on_l1d_evict(line, fp, dirty);
                old.on_l1d_evict(line, fp, dirty);
            } else {
                let word = WordIndex::new(rng.index(8) as u8);
                let req = L2Request::data(line, word, rng.chance(0.3));
                assert_eq!(new.access(req), old.access(req), "case {case} step {step}");
            }
        }
        assert_eq!(new.stats(), old.stats(), "case {case}: final stats");
        assert!(
            old.stats().woc_installs > 0 && old.stats().hole_misses > 0,
            "case {case}: the trace must install into the WOC and hole-miss"
        );
        assert_eq!(new.woc().occupancy(), old.woc().occupancy(), "case {case}");
    }
}
