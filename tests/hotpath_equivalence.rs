//! Differential equivalence suite for the hot-path overhaul.
//!
//! The arena-backed struct-of-arrays cache storage and the `u64` bitwise
//! footprint operations replaced per-set `Vec<Vec<Entry>>` pointer chasing
//! and per-word loops. This suite keeps the pre-overhaul per-word routines
//! alive as reference implementations and proves the fast paths bit-for-bit
//! equal to them:
//!
//! * the flat [`SetAssocCache`] against a per-set model built from
//!   [`TagEntry`] ways and an explicit recency stack, over hundreds of
//!   SimRng-derived random traces — same hits, same footprints, same
//!   words-used histograms, same eviction order;
//! * the sectored L1D ([`SectoredCache`], which also memoizes the line of
//!   its last hit or fill) against the same per-set model plus one
//!   valid-word mask per way — same lookups, same eviction records, same
//!   residency;
//! * [`Footprint::touch_span`] and the sectored-L1 span masks against the
//!   historical `for w in first..=last` loop;
//! * the WOC run-finder bit tricks against a naive aligned-window scan,
//!   exhaustively over all 2^8 low-byte valid/head patterns;
//! * a seeded mutation check: an off-by-one span mask (behind the
//!   test-only `span_mask16_with_mutation` flag) must trip the suite.

use ldis_cache::{
    CacheConfig, EvictedL1Line, EvictedLine, L1Lookup, SectoredCache, SetAssocCache, TagEntry,
};
use ldis_mem::bitops::{
    aligned_stride, eligible_aligned_slots, free_aligned_windows, low_mask, span_mask16,
    span_mask16_with_mutation,
};
use ldis_mem::rng::{stable_id, SimRng};
use ldis_mem::stats::Histogram;
use ldis_mem::{Footprint, LineAddr, LineGeometry, SetIndex, WordIndex};

/// One reference set: `ways` tag entries plus a true-LRU stack of way
/// indices, MRU first — the per-set layout the arena replaced.
struct RefSet {
    entries: Vec<TagEntry>,
    order: Vec<usize>,
}

impl RefSet {
    fn new(ways: u32) -> Self {
        RefSet {
            entries: vec![TagEntry::invalid(); ways as usize],
            order: (0..ways as usize).collect(),
        }
    }

    fn find(&self, tag: u64) -> Option<usize> {
        self.entries.iter().position(|e| e.valid && e.tag == tag)
    }

    /// The recency position of `way` (0 = MRU).
    fn position_of(&self, way: usize) -> u8 {
        self.order.iter().position(|&w| w == way).unwrap() as u8
    }

    /// Moves `way` to MRU, returning its recency position before the move.
    fn promote(&mut self, way: usize) -> u8 {
        let pos = self.position_of(way);
        self.order.remove(pos as usize);
        self.order.insert(0, way);
        pos
    }

    /// The first invalid way, else the LRU way.
    fn victim_way(&self) -> usize {
        match self.entries.iter().position(|e| !e.valid) {
            Some(way) => way,
            None => *self.order.last().unwrap(),
        }
    }

    fn entry(&self, way: usize) -> &TagEntry {
        &self.entries[way]
    }

    fn entry_mut(&mut self, way: usize) -> &mut TagEntry {
        &mut self.entries[way]
    }
}

/// The pre-overhaul reference: a set-associative cache whose sets are
/// per-set [`RefSet`] stacks and whose footprint updates go word by word
/// through [`TagEntry`]'s scalar methods. This is exactly the structure
/// `SetAssocCache` used before the arena rewrite.
struct RefCache {
    cfg: CacheConfig,
    sets: Vec<RefSet>,
}

impl RefCache {
    fn new(cfg: CacheConfig) -> Self {
        let sets = (0..cfg.num_sets())
            .map(|_| RefSet::new(cfg.ways()))
            .collect();
        RefCache { cfg, sets }
    }

    fn set_mut(&mut self, line: LineAddr) -> (&mut RefSet, u64) {
        let idx = self.cfg.set_index(line);
        let tag = self.cfg.tag(line);
        (&mut self.sets[idx.get()], tag)
    }

    fn access(&mut self, line: LineAddr, word: Option<WordIndex>, write: bool) -> bool {
        let (set, tag) = self.set_mut(line);
        match set.find(tag) {
            Some(way) => {
                let pos = set.promote(way);
                let e = set.entry_mut(way);
                e.observe_position(pos);
                if let Some(w) = word {
                    e.touch_word(w);
                }
                if write {
                    e.dirty = true;
                }
                true
            }
            None => false,
        }
    }

    fn install(
        &mut self,
        line: LineAddr,
        word: Option<WordIndex>,
        write: bool,
        is_instr: bool,
    ) -> Option<EvictedLine> {
        let set_idx = self.cfg.set_index(line);
        let (set, tag) = self.set_mut(line);
        let way = set.victim_way();
        let victim = {
            let e = set.entry(way);
            if e.valid {
                Some((e.tag, e.dirty, e.is_instr, e.footprint, e.max_pos_at_change))
            } else {
                None
            }
        };
        let e = set.entry_mut(way);
        e.install(tag, write, is_instr);
        if let Some(w) = word {
            e.touch_word(w);
        }
        set.promote(way);
        victim.map(|(vtag, dirty, vinstr, footprint, recency)| EvictedLine {
            line: self.cfg.line_of(set_idx, vtag),
            dirty,
            is_instr: vinstr,
            footprint,
            recency_at_last_change: recency,
        })
    }

    fn merge_footprint(&mut self, line: LineAddr, fp: Footprint, dirty: bool) -> bool {
        let (set, tag) = self.set_mut(line);
        match set.find(tag) {
            Some(way) => {
                let e = set.entry_mut(way);
                e.merge_footprint(fp);
                if dirty {
                    e.dirty = true;
                }
                true
            }
            None => false,
        }
    }

    fn invalidate(&mut self, line: LineAddr) -> bool {
        let (set, tag) = self.set_mut(line);
        match set.find(tag) {
            Some(way) => {
                set.entry_mut(way).valid = false;
                true
            }
            None => false,
        }
    }
}

/// Drives the arena-backed cache and the legacy reference through one
/// random trace, asserting every observable agrees step by step. Returns
/// the words-used-at-evict histograms of both paths.
fn run_trace(seed: u64) -> (Histogram, Histogram) {
    let mut rng = SimRng::new(seed);
    let sets = 1u64 << rng.range(3); // 1, 2 or 4 sets
    let ways = 1 + rng.range(16) as u32; // 1..=16 ways, up to the 12- and 16-way L2 shapes
    let cfg = CacheConfig::with_sets(sets, ways, LineGeometry::default());
    let mut fast = SetAssocCache::new(cfg);
    let mut slow = RefCache::new(cfg);
    let mut fast_hist = Histogram::new(9);
    let mut slow_hist = Histogram::new(9);
    let lines = sets * (ways as u64 + 2); // enough aliases to force evictions
    for step in 0..300 {
        let line = LineAddr::new(rng.range(lines));
        let word = match rng.range(4) {
            0 => None,
            _ => Some(WordIndex::new(rng.range(8) as u8)),
        };
        let write = rng.chance(0.3);
        match rng.range(10) {
            0 => {
                // Footprint merge from a simulated L1 eviction.
                let fp = Footprint::from_bits((rng.next_u64() & 0xff) as u16);
                assert_eq!(
                    fast.merge_footprint(line, fp, write),
                    slow.merge_footprint(line, fp, write),
                    "merge disagrees at step {step} (seed {seed:#x})"
                );
            }
            1 => {
                let fast_ev = fast.invalidate(line);
                assert_eq!(
                    fast_ev.is_some(),
                    slow.invalidate(line),
                    "invalidate disagrees at step {step} (seed {seed:#x})"
                );
            }
            _ => {
                let hit = fast.access(line, word, write);
                assert_eq!(
                    hit,
                    slow.access(line, word, write),
                    "hit/miss disagrees at step {step} (seed {seed:#x})"
                );
                if !hit {
                    let is_instr = rng.chance(0.2);
                    let fast_ev = fast.install(line, word, write, is_instr);
                    let slow_ev = slow.install(line, word, write, is_instr);
                    assert_eq!(
                        fast_ev, slow_ev,
                        "eviction disagrees at step {step} (seed {seed:#x})"
                    );
                    for (ev, hist) in [(fast_ev, &mut fast_hist), (slow_ev, &mut slow_hist)] {
                        if let Some(ev) = ev {
                            if !ev.is_instr {
                                hist.record(ev.footprint.used_words() as usize);
                            }
                        }
                    }
                }
            }
        }
    }
    // Final state: every resident line, its entry and its recency position
    // must agree between the arena and the per-set reference.
    let mut fast_state: Vec<_> = fast
        .iter_lines()
        .map(|(l, e)| (l.raw(), e, fast.position_of(l)))
        .collect();
    fast_state.sort_by_key(|(raw, _, _)| *raw);
    let mut slow_state = Vec::new();
    for set_idx in 0..sets as usize {
        let set = &slow.sets[set_idx];
        for way in 0..ways as usize {
            let e = *set.entry(way);
            if e.valid {
                let line = cfg.line_of(SetIndex::new(set_idx), e.tag);
                slow_state.push((line.raw(), e, Some(set.position_of(way))));
            }
        }
    }
    slow_state.sort_by_key(|(raw, _, _)| *raw);
    assert_eq!(
        fast_state, slow_state,
        "final state disagrees (seed {seed:#x})"
    );
    (fast_hist, slow_hist)
}

#[test]
fn arena_cache_matches_legacy_per_set_model_on_random_traces() {
    // 240 independent SimRng-derived traces across set counts, way counts
    // and op mixes; every observable is asserted inside `run_trace`, and
    // the accumulated words-used histograms must match bin for bin.
    let mut master = SimRng::new(stable_id("hotpath-equivalence"));
    let mut fast_total = Histogram::new(9);
    let mut slow_total = Histogram::new(9);
    for _ in 0..240 {
        let (f, s) = run_trace(master.next_u64());
        fast_total.merge(&f);
        slow_total.merge(&s);
    }
    for bin in 0..9 {
        assert_eq!(fast_total.count(bin), slow_total.count(bin), "bin {bin}");
    }
    assert!(fast_total.total() > 0, "traces must produce evictions");
}

/// The sectored L1D as per-set [`RefSet`] stacks plus one valid-word mask
/// per way, updated word by word, with no memo.
struct RefSectored {
    cfg: CacheConfig,
    sets: Vec<RefSet>,
    /// `valid[set][way]`: bit *i* set when word *i* is valid.
    valid: Vec<Vec<u16>>,
}

impl RefSectored {
    fn new(cfg: CacheConfig) -> Self {
        RefSectored {
            sets: (0..cfg.num_sets())
                .map(|_| RefSet::new(cfg.ways()))
                .collect(),
            valid: vec![vec![0; cfg.ways() as usize]; cfg.num_sets() as usize],
            cfg,
        }
    }

    /// The line's set, and its way there if resident.
    fn find(&self, line: LineAddr) -> (usize, Option<usize>) {
        let set = self.cfg.set_index(line).get();
        (set, self.sets[set].find(self.cfg.tag(line)))
    }

    fn classify(&self, set: usize, way: usize, first: u8, last: u8) -> L1Lookup {
        if (first..=last).all(|w| self.valid[set][way] & (1 << w) != 0) {
            L1Lookup::Hit
        } else {
            L1Lookup::SectorMiss
        }
    }

    fn lookup(&self, line: LineAddr, first: u8, last: u8) -> L1Lookup {
        match self.find(line) {
            (set, Some(way)) => self.classify(set, way, first, last),
            (_, None) => L1Lookup::Miss,
        }
    }

    fn access(&mut self, line: LineAddr, first: u8, last: u8, write: bool) -> L1Lookup {
        let (set, Some(way)) = self.find(line) else {
            return L1Lookup::Miss;
        };
        self.sets[set].promote(way);
        let e = self.sets[set].entry_mut(way);
        for w in first..=last {
            e.footprint.touch(WordIndex::new(w));
        }
        e.dirty |= write;
        self.classify(set, way, first, last)
    }

    /// Installs a missing line at MRU with an empty footprint. A demand
    /// fill is this followed by `access`.
    fn fill(&mut self, line: LineAddr, valid: Footprint) -> Option<EvictedL1Line> {
        let (set, found) = self.find(line);
        assert!(found.is_none(), "the trace only fills missing lines");
        let way = self.sets[set].victim_way();
        let old = *self.sets[set].entry(way);
        self.sets[set]
            .entry_mut(way)
            .install(self.cfg.tag(line), false, false);
        self.sets[set].promote(way);
        self.valid[set][way] = valid.bits();
        old.valid.then(|| EvictedL1Line {
            line: self.cfg.line_of(SetIndex::new(set), old.tag),
            footprint: old.footprint,
            dirty: old.dirty,
        })
    }

    fn fill_words(&mut self, line: LineAddr, words: Footprint) -> bool {
        match self.find(line) {
            (set, Some(way)) => {
                self.valid[set][way] |= words.bits();
                true
            }
            (_, None) => false,
        }
    }

    fn invalidate(&mut self, line: LineAddr) -> Option<EvictedL1Line> {
        let (set, way) = self.find(line);
        let e = self.sets[set].entry_mut(way?);
        e.valid = false;
        Some(EvictedL1Line {
            line,
            footprint: e.footprint,
            dirty: e.dirty,
        })
    }
}

/// What a sectored trace exercised: accesses to the line of the previous
/// step that hit, evictions, and sector misses.
#[derive(Default)]
struct SectoredCoverage {
    repeat_hits: u64,
    evictions: u64,
    sector_misses: u64,
}

/// Drives [`SectoredCache`] and [`RefSectored`] through one random trace:
/// runs of accesses to one line (the memo's case), full and partial fills
/// through `fill_demand` and through `fill` + `access` (the reference's
/// demand fill), sector fills, stores, lookups and invalidations. Every
/// lookup and eviction record is compared as it happens, the step's line
/// word by word after every step, and every line's residency, valid
/// words, footprint and dirty bit at the end.
fn run_sectored_trace(seed: u64, seen: &mut SectoredCoverage) {
    let mut rng = SimRng::new(seed);
    let sets = 1u64 << rng.range(3);
    let ways = 1 + rng.range(4) as u32;
    let cfg = CacheConfig::with_sets(sets, ways, LineGeometry::default());
    let mut fast = SectoredCache::new(cfg);
    let mut slow = RefSectored::new(cfg);
    let lines = sets * (ways as u64 + 2);
    let mut line = LineAddr::new(0);
    for step in 0..400 {
        let repeat = rng.chance(0.5);
        if !repeat {
            line = LineAddr::new(rng.range(lines));
        }
        let first = rng.range(8) as u8;
        let last = first + rng.range(8 - first as u64) as u8;
        let (f, l) = (WordIndex::new(first), WordIndex::new(last));
        let write = rng.chance(0.3);
        let at = || format!("step {step}, line {} (seed {seed:#x})", line.raw());
        match rng.range(12) {
            0 => assert_eq!(fast.invalidate(line), slow.invalidate(line), "{}", at()),
            1 => {
                let words = Footprint::from_bits((rng.next_u64() & 0xff) as u16);
                assert_eq!(
                    fast.fill_words(line, words),
                    slow.fill_words(line, words),
                    "{}",
                    at()
                );
            }
            2 => assert_eq!(
                fast.lookup(line, f, l),
                slow.lookup(line, first, last),
                "{}",
                at()
            ),
            _ => {
                let got = fast.access(line, f, l, write);
                assert_eq!(got, slow.access(line, first, last, write), "{}", at());
                match got {
                    L1Lookup::Hit => seen.repeat_hits += u64::from(repeat),
                    L1Lookup::SectorMiss => {
                        seen.sector_misses += 1;
                        // The missing words, sometimes only some of them.
                        let mut words = (rng.next_u64() & 0xff) as u16;
                        if rng.chance(0.7) {
                            words |= span_mask16(first, last);
                        }
                        let words = Footprint::from_bits(words);
                        assert!(fast.fill_words(line, words), "{}", at());
                        assert!(slow.fill_words(line, words), "{}", at());
                    }
                    L1Lookup::Miss => {
                        let valid = match rng.range(3) {
                            0 => Footprint::full(8),
                            _ => Footprint::from_bits(1 + rng.range(255) as u16),
                        };
                        let expected = (
                            slow.fill(line, valid),
                            slow.access(line, first, last, write),
                        );
                        let (evicted, lookup) = if rng.chance(0.25) {
                            (fast.fill(line, valid), fast.access(line, f, l, write))
                        } else {
                            fast.fill_demand(line, valid, f, l, write)
                        };
                        assert_eq!((evicted, lookup), expected, "{}", at());
                        seen.evictions += u64::from(evicted.is_some());
                    }
                }
            }
        }
        for w in 0..8 {
            assert_eq!(
                fast.lookup(line, WordIndex::new(w), WordIndex::new(w)),
                slow.lookup(line, w, w),
                "word {w} after {}",
                at()
            );
        }
    }
    let resident = (0..lines)
        .filter(|&raw| slow.lookup(LineAddr::new(raw), 0, 0) != L1Lookup::Miss)
        .count();
    assert_eq!(fast.occupancy(), resident as u64, "seed {seed:#x}");
    for raw in 0..lines {
        let line = LineAddr::new(raw);
        for w in 0..8 {
            assert_eq!(
                fast.lookup(line, WordIndex::new(w), WordIndex::new(w)),
                slow.lookup(line, w, w),
                "final word {w} of line {raw} (seed {seed:#x})"
            );
        }
        assert_eq!(
            fast.invalidate(line),
            slow.invalidate(line),
            "final line {raw} (seed {seed:#x})"
        );
    }
}

#[test]
fn sectored_cache_matches_the_per_set_model_on_random_traces() {
    let mut master = SimRng::new(stable_id("sectored-equivalence"));
    let mut seen = SectoredCoverage::default();
    for _ in 0..240 {
        run_sectored_trace(master.next_u64(), &mut seen);
    }
    assert!(seen.repeat_hits > 10_000, "{}", seen.repeat_hits);
    assert!(seen.evictions > 1_000, "{}", seen.evictions);
    assert!(seen.sector_misses > 1_000, "{}", seen.sector_misses);
}

/// The per-word span reference — the loop `touch_span` replaced.
fn touch_span_ref(fp: &mut Footprint, first: u8, last: u8) -> bool {
    let mut changed = false;
    for w in first..=last {
        changed |= fp.touch(WordIndex::new(w));
    }
    changed
}

/// Drives random span accesses through a mask-based footprint (built with
/// `span_fn`) and the per-word reference; returns whether every step
/// agreed. The real mask must always agree; the mutated mask must not.
fn span_differential_agrees(span_fn: fn(u8, u8) -> u16) -> bool {
    let mut rng = SimRng::new(stable_id("span-differential"));
    for _ in 0..2_000 {
        let first = rng.range(8) as u8;
        let last = first + rng.range(8 - first as u64) as u8;
        let pre = (rng.next_u64() & 0xff) as u16;
        let mut fast = Footprint::from_bits(pre);
        let mask = span_fn(first, last);
        let fast_changed = mask & !fast.bits() != 0;
        fast.merge(Footprint::from_bits(mask));
        let mut slow = Footprint::from_bits(pre);
        let slow_changed = touch_span_ref(&mut slow, first, last);
        if fast != slow || fast_changed != slow_changed {
            return false;
        }
    }
    true
}

#[test]
fn touch_span_matches_per_word_loop() {
    assert!(span_differential_agrees(span_mask16));
    // The public API path must agree too, exhaustively.
    for first in 0u8..8 {
        for last in first..8 {
            for pre in 0u16..256 {
                let mut fast = Footprint::from_bits(pre);
                let fast_changed = fast.touch_span(WordIndex::new(first), WordIndex::new(last));
                let mut slow = Footprint::from_bits(pre);
                let slow_changed = touch_span_ref(&mut slow, first, last);
                assert_eq!(fast, slow, "first={first} last={last} pre={pre:#b}");
                assert_eq!(fast_changed, slow_changed);
            }
        }
    }
}

#[test]
fn seeded_mutation_trips_the_suite() {
    // The deliberately off-by-one mask (test-only flag) must be caught by
    // the same differential that passes for the real implementation —
    // evidence the suite has teeth.
    assert!(span_differential_agrees(|f, l| span_mask16_with_mutation(
        f, l, false
    )));
    assert!(
        !span_differential_agrees(|f, l| span_mask16_with_mutation(f, l, true)),
        "the off-by-one span mask must be detected"
    );
}

#[test]
fn span_mask_popcount_is_span_length() {
    for first in 0u8..16 {
        for last in first..16 {
            assert_eq!(
                span_mask16(first, last).count_ones() as u8,
                last - first + 1,
                "first={first} last={last}"
            );
        }
    }
}

#[test]
fn footprint_merge_is_bitwise_or() {
    let mut rng = SimRng::new(stable_id("merge-is-or"));
    for _ in 0..1_000 {
        let a = (rng.next_u64() & 0xffff) as u16;
        let b = (rng.next_u64() & 0xffff) as u16;
        let mut fp = Footprint::from_bits(a);
        fp.merge(Footprint::from_bits(b));
        assert_eq!(fp.bits(), a | b);
        assert_eq!(
            Footprint::from_bits(a)
                .merged(Footprint::from_bits(b))
                .bits(),
            a | b
        );
    }
}

/// Naive run-finder: scan every aligned offset and test each slot — the
/// shape of the pre-overhaul WOC placement loop.
fn free_windows_ref(valid: u64, words: u32, slots: u32) -> u64 {
    let mut out = 0u64;
    let mut offset = 0;
    while offset + slots <= words {
        if (offset..offset + slots).all(|s| valid & (1 << s) == 0) {
            out |= 1 << offset;
        }
        offset += slots;
    }
    out
}

#[test]
fn run_finder_matches_naive_scan_for_all_byte_patterns() {
    // Exhaustive over all 2^8 valid patterns and all 2^8 head patterns of
    // an 8-word WOC way, for every power-of-two run size the paper allows.
    for valid in 0u64..256 {
        for slots in [1u32, 2, 4, 8] {
            assert_eq!(
                free_aligned_windows(valid, 8, slots),
                free_windows_ref(valid, 8, slots),
                "valid={valid:#010b} slots={slots}"
            );
        }
        for head in 0u64..256 {
            for slots in [1u32, 2, 4, 8] {
                let got = eligible_aligned_slots(valid, head, 8, slots);
                let mut expect = 0u64;
                let mut offset = 0;
                while offset < 8 {
                    if valid & (1 << offset) == 0 || head & (1 << offset) != 0 {
                        expect |= 1 << offset;
                    }
                    offset += slots;
                }
                assert_eq!(got, expect, "valid={valid:#b} head={head:#b} slots={slots}");
            }
        }
    }
}

#[test]
fn stride_and_low_mask_building_blocks() {
    assert_eq!(aligned_stride(1), u64::MAX);
    assert_eq!(aligned_stride(2) & low_mask(8), 0b0101_0101);
    assert_eq!(aligned_stride(4) & low_mask(8), 0b0001_0001);
    assert_eq!(aligned_stride(8) & low_mask(8), 0b0000_0001);
    assert_eq!(low_mask(8), 0xff);
}
