//! The per-set Mattson stack-distance profiler for one set count.

use ldis_cache::{shift_in_mru, CacheConfig};
use ldis_mem::stats::{Counter, Histogram};
use ldis_mem::{Footprint, LineAddr, SetIndex, WordIndex};

// Per-tier slot state, packed into one `u32`: the footprint's word bits
// in the low 16 bits, then the dirty and instruction flags. Install times
// differ between associativities — a line that hits in a 12-way cache may
// simultaneously miss (and therefore reinstall with a fresh footprint) in
// the 8-way cache — so this state is kept per tier, exactly as if each
// tier ran its own cache.
const FOOTPRINT: u32 = 0xFFFF;
const DIRTY: u32 = 1 << 16;
const INSTR: u32 = 1 << 17;

/// Accumulated per-associativity counters: what a direct simulation of
/// this tier's cache would have recorded in its `L2Stats`.
#[derive(Clone, Debug)]
struct TierStats {
    ways: u32,
    evictions: u64,
    writebacks: u64,
    words_used_at_evict: Histogram,
}

impl TierStats {
    fn new(ways: u32, words_per_line: u8) -> TierStats {
        TierStats {
            ways,
            evictions: 0,
            writebacks: 0,
            words_used_at_evict: Histogram::new(words_per_line as usize + 1),
        }
    }

    /// The stack position of this tier's LRU line, the victim of a miss
    /// once the tier is full.
    fn victim_pos(&self) -> usize {
        self.ways as usize - 1
    }

    fn record_eviction(&mut self, slot: u32) {
        self.evictions.bump();
        if slot & DIRTY != 0 {
            self.writebacks.bump();
        }
        if slot & INSTR == 0 {
            self.words_used_at_evict.record(used_words(slot));
        }
    }
}

/// A per-set Mattson stack-distance profiler for one set count.
///
/// Maintains one LRU stack per set, truncated to the deepest profiled
/// associativity (the stack *depth*), a stack-distance histogram, and
/// per-tier footprint/eviction state. One pass over an access stream
/// yields, for *every* profiled associativity `A` at this set count:
///
/// * exact miss counts ([`misses_at`](MattsonProfiler::misses_at)):
///   accesses whose stack distance is `>= A`, plus reuses beyond the
///   profiled depth, plus first-touch (compulsory) misses;
/// * exact eviction, writeback and words-used-at-eviction statistics
///   ([`evictions_at`](MattsonProfiler::evictions_at) and friends),
///   byte-identical to a direct LRU simulation of that tier.
///
/// The stacks are flat struct-of-arrays state, in the idiom of
/// `ldis_cache::SetArena`: line addresses in one array indexed
/// `set * depth + pos` (0 = MRU) with a per-set fill count, and the
/// packed per-tier footprint, dirty and instruction bits in one array
/// indexed `(set * depth + pos) * tiers + tier`. Promotion to MRU shifts
/// the set's line prefix, and each tier's column of the slot prefix, down
/// one position with the inlined [`shift_in_mru`] loop. The arrays are
/// allocated on the first
/// [`record`](MattsonProfiler::record), not in
/// [`new`](MattsonProfiler::new), so constructing a profiler that never
/// records costs no zeroed memory.
///
/// First-touch classification is supplied by the caller (see
/// [`record`](MattsonProfiler::record)) so that several profilers with
/// different set counts can share one global seen-lines set.
#[derive(Clone, Debug)]
pub struct MattsonProfiler {
    num_sets: u64,
    words_per_line: u8,
    tiers: Vec<TierStats>,
    /// Stack depth: the deepest profiled associativity.
    depth: usize,
    /// `lines[set * depth + pos]` = raw address of the line at recency
    /// position `pos`; only the first `fill[set]` positions are live.
    lines: Vec<u64>,
    fill: Vec<u32>,
    /// `slots[(set * depth + pos) * tiers + tier]` = packed tier state of
    /// the line at `pos`, meaningful while the line is resident in `tier`.
    slots: Vec<u32>,
    /// Histogram of observed stack distances `0..depth` (hits in the
    /// deepest tier). Reuses deeper than `depth` land in `beyond`.
    distance: Histogram,
    beyond: u64,
    compulsory: u64,
    accesses: u64,
}

impl MattsonProfiler {
    /// Creates a profiler for `num_sets` sets covering the given
    /// associativities (deduplicated; order preserved internally as
    /// ascending). `num_sets` must be a power of two (mask indexing, the
    /// same contract as [`CacheConfig`]) and at least one associativity
    /// must be given, none of them zero.
    ///
    /// # Panics
    ///
    /// Panics if `num_sets` is not a positive power of two, `ways` is
    /// empty or `ways` contains a 0-way tier — construction-time contract
    /// violations, matching the [`CacheConfig::new`] behavior.
    pub fn new(num_sets: u64, ways: &[u32], words_per_line: u8) -> MattsonProfiler {
        assert!(
            num_sets.is_power_of_two(),
            "set count must be a power of two, got {num_sets}"
        );
        assert!(!ways.is_empty(), "at least one associativity is required");
        assert!(
            !ways.contains(&0),
            "associativities must be at least 1 way, got {ways:?}"
        );
        let mut sorted: Vec<u32> = ways.to_vec();
        sorted.sort_unstable();
        sorted.dedup();
        let depth = sorted.last().copied().unwrap_or(1) as usize;
        MattsonProfiler {
            num_sets,
            words_per_line,
            tiers: sorted
                .into_iter()
                .map(|w| TierStats::new(w, words_per_line))
                .collect(),
            depth,
            lines: Vec::new(),
            fill: Vec::new(),
            slots: Vec::new(),
            distance: Histogram::new(depth),
            beyond: 0,
            compulsory: 0,
            accesses: 0,
        }
    }

    /// The profiled set count.
    pub fn num_sets(&self) -> u64 {
        self.num_sets
    }

    /// The profiled associativities, ascending.
    pub fn tiers(&self) -> impl Iterator<Item = u32> + '_ {
        self.tiers.iter().map(|t| t.ways)
    }

    /// Accesses recorded since construction (or the last
    /// [`reset_counters`](MattsonProfiler::reset_counters)).
    pub fn accesses(&self) -> u64 {
        self.accesses
    }

    /// First-touch (compulsory) misses recorded.
    pub fn compulsory(&self) -> u64 {
        self.compulsory
    }

    /// The stack-distance histogram (bin `d` = reuses observed at
    /// distance `d`), not counting reuses beyond the profiled depth.
    pub fn distance_histogram(&self) -> &Histogram {
        &self.distance
    }

    /// Reuses whose stack distance exceeded the deepest profiled
    /// associativity (misses in every profiled tier, but not compulsory).
    pub fn beyond(&self) -> u64 {
        self.beyond
    }

    /// Allocates the zeroed stack arrays: every set empty.
    #[expect(
        clippy::cast_possible_truncation,
        reason = "the set count sizes in-memory arrays, so it fits usize"
    )]
    fn allocate(&mut self) {
        let sets = self.num_sets as usize;
        self.lines = vec![0; sets * self.depth];
        self.fill = vec![0; sets];
        self.slots = vec![0; sets * self.depth * self.tiers.len()];
    }

    /// `line`'s set, the set's fill count and `line`'s stack position in
    /// it, if present. Every set reads as empty until the first
    /// [`record`](MattsonProfiler::record) allocates the arrays.
    fn locate(&self, line: LineAddr) -> (SetIndex, usize, Option<usize>) {
        let set = SetIndex::of_line(line, self.num_sets);
        let live = self.fill.get(set.get()).map_or(0, |&n| n as usize);
        let base = set.get() * self.depth;
        let pos = self
            .lines
            .get(base..base + live)
            .and_then(|stack| stack.iter().position(|&l| l == line.raw()));
        (set, live, pos)
    }

    /// Records one demand access, returning the observed stack distance
    /// (`None` for lines absent from the profiled depth). `first_touch`
    /// is the global never-seen-before classification maintained by the
    /// caller; it only affects compulsory accounting, never hit/miss
    /// outcomes.
    ///
    /// Mirrors `BaselineL2::access` + `SetAssocCache::install` exactly:
    /// a hit at distance `d` touches `word` and ors `write` into the
    /// dirty bit for every tier deeper than `d`; every shallower tier
    /// misses, evicts its LRU line (the entry at stack position
    /// `ways - 1`, when the set holds that many lines) and reinstalls the
    /// accessed line with a fresh footprint.
    pub fn record(
        &mut self,
        line: LineAddr,
        word: Option<WordIndex>,
        write: bool,
        is_instr: bool,
        first_touch: bool,
    ) -> Option<usize> {
        self.record_with(line, word, write, is_instr, || first_touch)
    }

    /// [`record`](MattsonProfiler::record) with the first-touch
    /// classification computed on demand: `first_touch` runs only when
    /// `line` is absent from this profiler's stacks, the one case that
    /// needs it.
    pub(crate) fn record_with(
        &mut self,
        line: LineAddr,
        word: Option<WordIndex>,
        write: bool,
        is_instr: bool,
        first_touch: impl FnOnce() -> bool,
    ) -> Option<usize> {
        self.accesses.bump();
        if self.fill.is_empty() {
            self.allocate();
        }
        let (set, live, pos) = self.locate(line);
        let tiers = self.tiers.len();
        let base = set.get() * self.depth;
        let (Some(fill), Some(lines), Some(slots)) = (
            self.fill.get_mut(set.get()),
            self.lines.get_mut(base..base + self.depth),
            self.slots
                .get_mut(base * tiers..(base + self.depth) * tiers),
        ) else {
            // Unreachable: `SetIndex::of_line` masks into 0..num_sets.
            // Degrade to "not profiled" rather than panicking mid-simulation.
            return None;
        };
        let touch = word.map_or(0, |w| 1 << w.get()) | if write { DIRTY } else { 0 };
        let fresh = touch | if is_instr { INSTR } else { 0 };
        let len = match pos {
            Some(d) => {
                self.distance.record(d);
                for (ti, tier) in self.tiers.iter_mut().enumerate() {
                    if d < tier.ways as usize {
                        // Hit in this tier: touch the demanded word.
                        if let Some(slot) = slots.get_mut(d * tiers + ti) {
                            *slot |= touch;
                        }
                    } else {
                        // Miss in this tier: its LRU line (which exists
                        // because d >= ways) leaves the tier, and the
                        // accessed line reinstalls.
                        if let Some(&victim) = slots.get(tier.victim_pos() * tiers + ti) {
                            tier.record_eviction(victim);
                        }
                        if let Some(slot) = slots.get_mut(d * tiers + ti) {
                            *slot = fresh;
                        }
                    }
                }
                d + 1
            }
            None => {
                if first_touch() {
                    self.compulsory.bump();
                } else {
                    self.beyond.bump();
                }
                // Miss in every tier: each full tier evicts its LRU line.
                for (ti, tier) in self.tiers.iter_mut().enumerate() {
                    let victim = tier.victim_pos();
                    if victim < live {
                        if let Some(&slot) = slots.get(victim * tiers + ti) {
                            tier.record_eviction(slot);
                        }
                    }
                }
                // The line enters at MRU; a full stack drops its deepest
                // entry, which the shift below pushes out.
                if live < self.depth {
                    *fill += 1;
                }
                (live + 1).min(self.depth)
            }
        };
        // Promote to MRU: positions 0..len-1 shift down by one and the
        // accessed line enters at the front — on a hit from position
        // len-1 with its per-tier slots as updated above, on a miss
        // fresh in every tier.
        if let Some(stack) = lines.get_mut(..len) {
            shift_in_mru(stack, line.raw());
        }
        if let Some(stack) = slots.get_mut(..len * tiers) {
            for ti in 0..tiers {
                let mru = match pos {
                    Some(d) => stack.get(d * tiers + ti).copied().unwrap_or(fresh),
                    None => fresh,
                };
                shift_in_mru(stack.iter_mut().skip(ti).step_by(tiers), mru);
            }
        }
        pos
    }

    /// Merges an L1D-evicted footprint into the line's slot of every tier
    /// the line is resident in, marking it dirty if `dirty`; for tiers
    /// where the line is *not* resident, counts a memory writeback when
    /// `dirty` (the line is gone, so the data goes to memory). Mirrors
    /// `BaselineL2::on_l1d_evict`. Never updates recency.
    pub fn merge_l1d_evict(&mut self, line: LineAddr, fp: Footprint, dirty: bool) {
        let (set, _, pos) = self.locate(line);
        let tiers = self.tiers.len();
        let base = set.get() * self.depth;
        let bits = u32::from(fp.bits()) | if dirty { DIRTY } else { 0 };
        for (ti, tier) in self.tiers.iter_mut().enumerate() {
            match pos {
                Some(d) if d < tier.ways as usize => {
                    if let Some(slot) = self.slots.get_mut((base + d) * tiers + ti) {
                        *slot |= bits;
                    }
                }
                _ if dirty => tier.writebacks.bump(),
                _ => {}
            }
        }
    }

    fn tier(&self, ways: u32) -> Option<&TierStats> {
        self.tiers.iter().find(|t| t.ways == ways)
    }

    /// Exact demand misses of an `A`-way LRU cache at this set count:
    /// reuses at stack distance `>= A`, plus reuses beyond the profiled
    /// depth, plus compulsory misses. `ways` may be any value up to the
    /// deepest profiled tier (miss counts need only the distance
    /// histogram, not tier state).
    pub fn misses_at(&self, ways: u32) -> u64 {
        let deep: u64 = self
            .distance
            .iter()
            .filter(|&(d, _)| d >= ways as usize)
            .map(|(_, c)| c)
            .sum();
        deep + self.beyond + self.compulsory
    }

    /// Hits of an `A`-way cache (complement of [`misses_at`](Self::misses_at)).
    pub fn hits_at(&self, ways: u32) -> u64 {
        self.accesses - self.misses_at(ways)
    }

    /// Evictions a direct simulation of the `A`-way tier would have
    /// recorded. `None` if `ways` is not a profiled tier.
    pub fn evictions_at(&self, ways: u32) -> Option<u64> {
        self.tier(ways).map(|t| t.evictions)
    }

    /// Writebacks (dirty evictions plus non-resident dirty L1D evicts) of
    /// the `A`-way tier. `None` if `ways` is not a profiled tier.
    pub fn writebacks_at(&self, ways: u32) -> Option<u64> {
        self.tier(ways).map(|t| t.writebacks)
    }

    /// The words-used-at-eviction histogram of the `A`-way tier (data
    /// lines only, like `L2Stats::words_used_at_evict`). `None` if `ways`
    /// is not a profiled tier.
    pub fn words_used_at_evict(&self, ways: u32) -> Option<&Histogram> {
        self.tier(ways).map(|t| &t.words_used_at_evict)
    }

    /// The words-used histogram of the `A`-way tier covering both evicted
    /// lines *and* the data lines still resident at the end of the run —
    /// the `run_baseline_with_words` measurement of Table 6 / Figure 1.
    /// `None` if `ways` is not a profiled tier.
    pub fn words_used_with_resident(&self, ways: u32) -> Option<Histogram> {
        let ti = self.tiers.iter().position(|t| t.ways == ways)?;
        let mut hist = self.tiers.get(ti)?.words_used_at_evict.clone();
        let tiers = self.tiers.len();
        for entry in self.resident(ways) {
            if let Some(&slot) = self.slots.get(entry * tiers + ti) {
                if slot & INSTR == 0 {
                    hist.record(used_words(slot));
                }
            }
        }
        Some(hist)
    }

    /// The lines resident in the `A`-way tier, set by set (the top `A`
    /// stack entries of every set) — the inclusion-property view used by
    /// the property tests.
    pub fn resident_lines(&self, ways: u32) -> Vec<LineAddr> {
        self.resident(ways)
            .filter_map(|entry| self.lines.get(entry))
            .map(|&l| LineAddr::new(l))
            .collect()
    }

    /// The `set * depth + pos` indices of the lines resident in the
    /// `A`-way tier, set by set, MRU first.
    fn resident(&self, ways: u32) -> impl Iterator<Item = usize> + '_ {
        self.fill.iter().enumerate().flat_map(move |(set, &n)| {
            let base = set * self.depth;
            base..base + n.min(ways) as usize
        })
    }

    /// Zeroes every counter and histogram without touching stack state or
    /// tier slots — the warmup-exclusion contract of
    /// `SecondLevel::reset_stats` (caches stay warm, counters reset).
    pub fn reset_counters(&mut self) {
        self.accesses = 0;
        self.beyond = 0;
        self.compulsory = 0;
        self.distance.clear();
        for tier in &mut self.tiers {
            tier.evictions = 0;
            tier.writebacks = 0;
            tier.words_used_at_evict.clear();
        }
    }

    /// Whether this profiler answers `cfg` (same set count, profiled
    /// associativity, same words-per-line).
    pub fn covers(&self, cfg: &CacheConfig) -> bool {
        cfg.num_sets() == self.num_sets
            && cfg.geometry().words_per_line() == self.words_per_line
            && self.tiers.iter().any(|t| t.ways == cfg.ways())
    }
}

/// Words used by the footprint in a packed slot.
fn used_words(slot: u32) -> usize {
    (slot & FOOTPRINT).count_ones() as usize
}

#[cfg(test)]
mod tests {
    use super::*;

    fn addr(n: u64) -> LineAddr {
        LineAddr::new(n)
    }

    /// Replays `lines` as data reads of word 0 with caller-managed
    /// first-touch tracking.
    fn replay(p: &mut MattsonProfiler, lines: &[u64]) {
        let mut seen = std::collections::BTreeSet::new();
        for &l in lines {
            let first = seen.insert(l);
            p.record(addr(l), Some(WordIndex::new(0)), false, false, first);
        }
    }

    #[test]
    fn distances_classify_hits_per_associativity() {
        // One set (num_sets=1): a, b, c, a → a's reuse distance is 2.
        let mut p = MattsonProfiler::new(1, &[1, 2, 4], 8);
        replay(&mut p, &[10, 11, 12, 10]);
        assert_eq!(p.accesses(), 4);
        assert_eq!(p.compulsory(), 3);
        assert_eq!(p.distance_histogram().count(2), 1);
        // 1-way and 2-way miss the reuse; 4-way hits it.
        assert_eq!(p.misses_at(1), 4);
        assert_eq!(p.misses_at(2), 4);
        assert_eq!(p.misses_at(3), 3);
        assert_eq!(p.misses_at(4), 3);
        assert_eq!(p.hits_at(4), 1);
    }

    #[test]
    fn beyond_depth_reuses_are_misses_everywhere() {
        let mut p = MattsonProfiler::new(1, &[2], 8);
        replay(&mut p, &[1, 2, 3, 1]); // distance 2 ≥ max depth 2 → beyond
        assert_eq!(p.beyond(), 1);
        assert_eq!(p.misses_at(2), 4);
        assert_eq!(p.misses_at(1), 4);
        // Histogram sum + beyond + compulsory == accesses.
        assert_eq!(
            p.distance_histogram().total() + p.beyond() + p.compulsory(),
            p.accesses()
        );
    }

    #[test]
    fn evictions_fire_only_when_a_tier_is_full() {
        let mut p = MattsonProfiler::new(1, &[2, 4], 8);
        replay(&mut p, &[1, 2, 3]);
        // 2-way tier evicted once (installing 3 evicts 1); 4-way never.
        assert_eq!(p.evictions_at(2), Some(1));
        assert_eq!(p.evictions_at(4), Some(0));
        assert_eq!(p.evictions_at(3), None, "3 is not a profiled tier");
    }

    #[test]
    fn per_tier_footprints_diverge_after_a_small_tier_miss() {
        // Line 1 touches word 0, then reuses at distance 2 with word 5:
        // the 4-way tier accumulates {0,5}, the 2-way tier reinstalls
        // with just {5}.
        let mut p = MattsonProfiler::new(1, &[2, 4], 8);
        let mut seen = std::collections::BTreeSet::new();
        for (l, w) in [(1u64, 0u8), (2, 0), (3, 0), (1, 5)] {
            let first = seen.insert(l);
            p.record(addr(l), Some(WordIndex::new(w)), false, false, first);
        }
        // Evict everything from the 2-way tier and check histograms.
        for l in [7u64, 8, 9, 10] {
            let first = seen.insert(l);
            p.record(addr(l), Some(WordIndex::new(0)), false, false, first);
        }
        // words-used of line 1 at its 2-way eviction: 1 word ({5}).
        let h2 = p.words_used_at_evict(2).expect("tier 2 exists");
        assert!(h2.count(1) >= 1);
        // 4-way tier evicted line 1 with 2 words ({0,5}).
        let h4 = p.words_used_at_evict(4).expect("tier 4 exists");
        assert_eq!(h4.count(2), 1, "4-way saw both words: {h4}");
    }

    #[test]
    fn l1d_evict_merges_when_resident_and_writes_back_otherwise() {
        let mut p = MattsonProfiler::new(1, &[1, 2], 8);
        replay(&mut p, &[1, 2]); // stack: 2 (MRU), 1
                                 // Line 1 is resident only in the 2-way tier.
        p.merge_l1d_evict(addr(1), Footprint::from_bits(0b110), true);
        assert_eq!(p.writebacks_at(1), Some(1), "1-way: gone, dirty → memory");
        assert_eq!(p.writebacks_at(2), Some(0), "2-way: merged in place");
        // Evict line 1 from the 2-way tier; its merged words count 3 ({0,1,2}).
        replay(&mut p, &[3]);
        let h = p.words_used_at_evict(2).expect("tier exists");
        assert_eq!(h.count(3), 1, "{h}");
        // The merge marked it dirty → the eviction writes back.
        assert_eq!(p.writebacks_at(2), Some(1));
    }

    #[test]
    fn reset_counters_keeps_the_stacks_warm() {
        let mut p = MattsonProfiler::new(1, &[2], 8);
        replay(&mut p, &[1, 2]);
        p.reset_counters();
        assert_eq!(p.accesses(), 0);
        assert_eq!(p.misses_at(2), 0);
        // Line 1 is still on the stack: reusing it is a hit, not a miss.
        p.record(addr(1), Some(WordIndex::new(0)), false, false, false);
        assert_eq!(p.misses_at(2), 0);
        assert_eq!(p.hits_at(2), 1);
    }

    #[test]
    fn sets_partition_by_address_mask() {
        let mut p = MattsonProfiler::new(2, &[1], 8);
        // Lines 0 and 2 share set 0; line 1 is alone in set 1.
        replay(&mut p, &[0, 1, 0]);
        assert_eq!(p.misses_at(1), 2, "line 1 does not disturb set 0");
    }

    #[test]
    fn covers_matches_config_shape() {
        let p = MattsonProfiler::new(2048, &[8, 12], 8);
        let g = ldis_mem::LineGeometry::default();
        assert!(p.covers(&CacheConfig::new(1 << 20, 8, g)));
        assert!(p.covers(&CacheConfig::with_sets(2048, 12, g)));
        assert!(!p.covers(&CacheConfig::new(2 << 20, 8, g)), "4096 sets");
        assert!(!p.covers(&CacheConfig::with_sets(2048, 10, g)), "no tier");
    }

    #[test]
    #[should_panic(expected = "power of two")]
    fn rejects_non_power_of_two_sets() {
        let _ = MattsonProfiler::new(3, &[2], 8);
    }

    #[test]
    #[should_panic(expected = "at least one associativity")]
    fn rejects_empty_tier_list() {
        let _ = MattsonProfiler::new(4, &[], 8);
    }

    #[test]
    #[should_panic(expected = "at least 1 way")]
    fn rejects_zero_way_tier() {
        let _ = MattsonProfiler::new(4, &[0, 2], 8);
    }
}
