//! Access-stream building blocks for the synthetic benchmarks.
//!
//! A [`Stream`] produces a sequence of *line visits*: a line address plus
//! the set of words touched during the visit. Workloads interleave several
//! streams (pointer chases, scans, hot sets, …) to reproduce a benchmark's
//! published working-set size, words-used distribution and miss behaviour.

use crate::WordsProfile;
use ldis_mem::{rng, Footprint, LineAddr, SimRng, WordIndex};

/// What a visit touches.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum VisitKind {
    /// Data words (loads/stores).
    Data,
    /// An instruction fetch.
    Instr,
}

/// One visit to a line: which words of which line are touched.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Visit {
    /// The visited line.
    pub line: LineAddr,
    /// The words touched (ignored for instruction visits).
    pub words: Footprint,
    /// Data or instruction fetch.
    pub kind: VisitKind,
}

impl Visit {
    /// A data visit.
    pub fn data(line: LineAddr, words: Footprint) -> Self {
        Visit {
            line,
            words,
            kind: VisitKind::Data,
        }
    }

    /// An instruction-fetch visit.
    pub fn instr(line: LineAddr) -> Self {
        Visit {
            line,
            words: Footprint::from_bits(0b1),
            kind: VisitKind::Instr,
        }
    }
}

/// A source of line visits.
pub trait Stream: Send {
    /// Produces the next visit.
    fn next_visit(&mut self, rng: &mut SimRng) -> Visit;
}

/// A sequential scan over a region, touching each line's sticky word set.
///
/// With `wrap = true` the scan cycles over `lines` forever (a reused array:
/// capacity behaviour). With `wrap = false` it streams into fresh memory
/// forever (compulsory-miss-dominated behaviour, wupwise-like).
#[derive(Clone, Debug)]
pub struct SequentialScan {
    base_line: u64,
    lines: u64,
    words: WordsProfile,
    salt: u64,
    wrap: bool,
    cursor: u64,
}

impl SequentialScan {
    /// Creates a scan of `lines` lines starting at `base_line`.
    ///
    /// # Panics
    ///
    /// Panics if `lines` is 0.
    pub fn new(base_line: u64, lines: u64, words: WordsProfile, salt: u64, wrap: bool) -> Self {
        assert!(lines > 0, "a scan needs at least one line");
        SequentialScan {
            base_line,
            lines,
            words,
            salt,
            wrap,
            cursor: 0,
        }
    }
}

impl Stream for SequentialScan {
    fn next_visit(&mut self, _rng: &mut SimRng) -> Visit {
        let offset = if self.wrap {
            self.cursor % self.lines
        } else {
            self.cursor
        };
        let line = LineAddr::new(self.base_line + offset);
        self.cursor = self.cursor.wrapping_add(1);
        Visit::data(line, self.words.footprint_for(line, self.salt))
    }
}

/// A cyclic scan that touches *one rotating word* per line per pass — the
/// `art` model. Every pass touches a different word of the same lines, so
/// word usage grows with residency time: exactly the behaviour behind
/// art's hole misses (Section 7.2) and its cache-size-dependent words-used
/// averages (Table 6).
#[derive(Clone, Debug)]
pub struct RotatingScan {
    base_line: u64,
    lines: u64,
    salt: u64,
    cursor: u64,
    passes_per_word: u64,
}

impl RotatingScan {
    /// Creates a rotating scan of `lines` lines starting at `base_line`.
    /// The touched word advances every pass; see
    /// [`with_passes_per_word`](RotatingScan::with_passes_per_word) to slow
    /// the rotation.
    ///
    /// # Panics
    ///
    /// Panics if `lines` is 0.
    pub fn new(base_line: u64, lines: u64, salt: u64) -> Self {
        assert!(lines > 0, "a scan needs at least one line");
        RotatingScan {
            base_line,
            lines,
            salt,
            cursor: 0,
            passes_per_word: 1,
        }
    }

    /// Keeps the same word for `passes` consecutive passes before rotating.
    /// Consecutive same-word passes hit in the WOC; each rotation produces
    /// a burst of hole misses — art's mix of new WOC hits *and* hole misses
    /// (Section 7.2).
    ///
    /// # Panics
    ///
    /// Panics if `passes` is 0.
    #[must_use]
    pub fn with_passes_per_word(mut self, passes: u64) -> Self {
        assert!(passes > 0, "passes per word must be positive");
        self.passes_per_word = passes;
        self
    }
}

impl Stream for RotatingScan {
    fn next_visit(&mut self, _rng: &mut SimRng) -> Visit {
        let pass = self.cursor / self.lines;
        let offset = self.cursor % self.lines;
        self.cursor += 1;
        let line = LineAddr::new(self.base_line + offset);
        let rotation = pass / self.passes_per_word;
        let word = ((line.raw() ^ self.salt).wrapping_add(rotation) % 8) as u8;
        let mut words = Footprint::empty();
        words.touch(WordIndex::new(word));
        Visit::data(line, words)
    }
}

/// A pointer chase over a fixed pseudo-random permutation of node lines —
/// the mcf/health model. Each node's line has a sticky word set (the
/// node's fields), and successive visits jump across the region, so there
/// is no spatial locality between consecutive visits.
#[derive(Clone, Debug)]
pub struct PointerChase {
    base_line: u64,
    /// The nodes in a random cyclic order: each visit goes to the node
    /// after the last one visited, wrapping at the end.
    order: Vec<u32>,
    words: WordsProfile,
    salt: u64,
    /// Position in `order` of the last node visited.
    pos: usize,
}

impl PointerChase {
    /// Creates a chase over `nodes` lines starting at `base_line`, with the
    /// permutation derived from `seed`.
    ///
    /// # Panics
    ///
    /// Panics if `nodes` is 0 or exceeds `u32::MAX`.
    pub fn new(base_line: u64, nodes: u64, words: WordsProfile, salt: u64, seed: u64) -> Self {
        assert!(nodes > 0 && nodes <= u32::MAX as u64, "1..=u32::MAX nodes");
        #[expect(
            clippy::cast_possible_truncation,
            reason = "the assert above bounds nodes to u32::MAX"
        )]
        let mut order: Vec<u32> = (0..nodes as u32).collect();
        // `seed` is the caller's derived per-workload seed, and the xor
        // keeps this permutation apart from the workload's own stream.
        // Rewriting it as `derive_seed_chain` would shift the permutation
        // and break the goldens.
        let mut rng = SimRng::new(seed ^ rng::POINTER_CHASE);
        // Fisher–Yates. Read cyclically, the shuffled order is one loop
        // through every node, and the chase walks it from node 0.
        for i in (1..order.len()).rev() {
            order.swap(i, rng.index(i + 1));
        }
        let pos = order.iter().position(|&node| node == 0).unwrap_or(0);
        PointerChase {
            base_line,
            order,
            words,
            salt,
            pos,
        }
    }

    /// Number of nodes in the chase.
    pub fn nodes(&self) -> usize {
        self.order.len()
    }
}

impl Stream for PointerChase {
    fn next_visit(&mut self, _rng: &mut SimRng) -> Visit {
        let next = self.pos + 1;
        self.pos = if next == self.order.len() { 0 } else { next };
        let node = self.order.get(self.pos).copied().unwrap_or(0);
        let line = LineAddr::new(self.base_line + u64::from(node));
        Visit::data(line, self.words.footprint_for(line, self.salt))
    }
}

/// Uniform random visits over a small, hot region with sticky word sets —
/// models the reused portion of a working set.
#[derive(Clone, Debug)]
pub struct HotSet {
    base_line: u64,
    lines: u64,
    words: WordsProfile,
    salt: u64,
    extra_word_prob: f64,
}

impl HotSet {
    /// Creates a hot set of `lines` lines at `base_line`.
    ///
    /// # Panics
    ///
    /// Panics if `lines` is 0.
    pub fn new(base_line: u64, lines: u64, words: WordsProfile, salt: u64) -> Self {
        assert!(lines > 0, "a hot set needs at least one line");
        HotSet {
            base_line,
            lines,
            words,
            salt,
            extra_word_prob: 0.0,
        }
    }

    /// With probability `prob` a visit touches one extra word outside the
    /// line's sticky set — *footprint instability*. Those touches hit in a
    /// traditional cache but hole-miss against a distilled copy, which is
    /// how LDIS loses on bzip2/parser until the reverter steps in
    /// (Figure 6).
    ///
    /// # Panics
    ///
    /// Panics if `prob` is outside `[0, 1]`.
    #[must_use]
    pub fn with_extra_word(mut self, prob: f64) -> Self {
        assert!((0.0..=1.0).contains(&prob), "probability must be in [0, 1]");
        self.extra_word_prob = prob;
        self
    }
}

impl Stream for HotSet {
    fn next_visit(&mut self, rng: &mut SimRng) -> Visit {
        let line = LineAddr::new(self.base_line + rng.range(self.lines));
        let mut words = self.words.footprint_for(line, self.salt);
        if self.extra_word_prob > 0.0 && rng.chance(self.extra_word_prob) {
            #[expect(
                clippy::cast_possible_truncation,
                reason = "range(8) returns a value below 8"
            )]
            words.touch(WordIndex::new(rng.range(8) as u8));
        }
        Visit::data(line, words)
    }
}

/// The `swim` model: a streaming front touches one word per fresh line; a
/// trailing second pass, `lag_lines` behind, touches the *other seven*
/// words. The lag is chosen so the line still fits in an 8-way 1 MB
/// baseline but has already been evicted from the 6-way LOC — LDIS turns
/// baseline hits into hole misses (Section 7.1's swim pathology).
#[derive(Clone, Debug)]
pub struct TwoPassScan {
    base_line: u64,
    lag_lines: u64,
    cursor: u64,
    /// Whether the next visit is the trailing pass.
    back_next: bool,
}

impl TwoPassScan {
    /// Creates a two-pass scan starting at `base_line` with the trailing
    /// pass `lag_lines` behind the front.
    ///
    /// # Panics
    ///
    /// Panics if `lag_lines` is 0.
    pub fn new(base_line: u64, lag_lines: u64) -> Self {
        assert!(lag_lines > 0, "lag must be positive");
        TwoPassScan {
            base_line,
            lag_lines,
            cursor: 0,
            back_next: false,
        }
    }

    fn first_word(line: LineAddr) -> u8 {
        (line.raw() % 8) as u8
    }
}

impl Stream for TwoPassScan {
    fn next_visit(&mut self, _rng: &mut SimRng) -> Visit {
        if self.back_next && self.cursor >= self.lag_lines {
            self.back_next = false;
            let line = LineAddr::new(self.base_line + self.cursor - self.lag_lines);
            let mut words = Footprint::full(8);
            let first = Self::first_word(line);
            words = Footprint::from_bits(words.bits() & !(1 << first));
            return Visit::data(line, words);
        }
        let line = LineAddr::new(self.base_line + self.cursor);
        self.cursor += 1;
        self.back_next = true;
        let mut words = Footprint::empty();
        words.touch(WordIndex::new(Self::first_word(line)));
        Visit::data(line, words)
    }
}

/// A cyclic instruction-fetch loop over a code region.
#[derive(Clone, Debug)]
pub struct CodeLoop {
    base_line: u64,
    lines: u64,
    cursor: u64,
}

impl CodeLoop {
    /// Creates a code loop of `lines` instruction lines at `base_line`.
    ///
    /// # Panics
    ///
    /// Panics if `lines` is 0.
    pub fn new(base_line: u64, lines: u64) -> Self {
        assert!(lines > 0, "a code loop needs at least one line");
        CodeLoop {
            base_line,
            lines,
            cursor: 0,
        }
    }
}

impl Stream for CodeLoop {
    fn next_visit(&mut self, _rng: &mut SimRng) -> Visit {
        let line = LineAddr::new(self.base_line + self.cursor % self.lines);
        self.cursor += 1;
        Visit::instr(line)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rng() -> SimRng {
        SimRng::new(1)
    }

    #[test]
    fn sequential_scan_wraps() {
        let mut s = SequentialScan::new(100, 3, WordsProfile::exactly(2), 0, true);
        let mut r = rng();
        let lines: Vec<u64> = (0..7).map(|_| s.next_visit(&mut r).line.raw()).collect();
        assert_eq!(lines, vec![100, 101, 102, 100, 101, 102, 100]);
    }

    #[test]
    fn sequential_scan_streams_without_wrap() {
        let mut s = SequentialScan::new(0, 3, WordsProfile::exactly(8), 0, false);
        let mut r = rng();
        let lines: Vec<u64> = (0..5).map(|_| s.next_visit(&mut r).line.raw()).collect();
        assert_eq!(lines, vec![0, 1, 2, 3, 4]);
    }

    #[test]
    fn rotating_scan_changes_word_each_pass() {
        let mut s = RotatingScan::new(0, 4, 9);
        let mut r = rng();
        let pass1: Vec<u16> = (0..4).map(|_| s.next_visit(&mut r).words.bits()).collect();
        let pass2: Vec<u16> = (0..4).map(|_| s.next_visit(&mut r).words.bits()).collect();
        for (a, b) in pass1.iter().zip(&pass2) {
            assert_eq!(a.count_ones(), 1);
            assert_ne!(a, b, "each pass must touch a different word");
        }
    }

    #[test]
    fn pointer_chase_is_a_single_cycle() {
        let mut s = PointerChase::new(0, 64, WordsProfile::exactly(1), 0, 5);
        let mut r = rng();
        let mut seen = std::collections::BTreeSet::new();
        for _ in 0..64 {
            let v = s.next_visit(&mut r);
            assert!(seen.insert(v.line), "cycle revisited {v:?} early");
        }
        assert_eq!(seen.len(), 64);
        // Next 64 visits repeat the same cycle.
        for _ in 0..64 {
            assert!(seen.contains(&s.next_visit(&mut r).line));
        }
    }

    #[test]
    fn pointer_chase_footprints_are_sticky_across_cycles() {
        let mut s = PointerChase::new(0, 16, WordsProfile::sparse(), 3, 5);
        let mut r = rng();
        let mut first: std::collections::BTreeMap<LineAddr, Footprint> =
            std::collections::BTreeMap::new();
        for _ in 0..16 {
            let v = s.next_visit(&mut r);
            first.insert(v.line, v.words);
        }
        for _ in 0..16 {
            let v = s.next_visit(&mut r);
            assert_eq!(first[&v.line], v.words);
        }
    }

    #[test]
    fn hot_set_stays_in_region() {
        let mut s = HotSet::new(1000, 8, WordsProfile::exactly(3), 0);
        let mut r = rng();
        for _ in 0..100 {
            let v = s.next_visit(&mut r);
            assert!((1000..1008).contains(&v.line.raw()));
            assert_eq!(v.words.used_words(), 3);
        }
    }

    #[test]
    fn two_pass_scan_revisits_with_complementary_words() {
        let lag = 4;
        let mut s = TwoPassScan::new(0, lag);
        let mut r = rng();
        let mut front: std::collections::BTreeMap<u64, Footprint> =
            std::collections::BTreeMap::new();
        for _ in 0..40 {
            let v = s.next_visit(&mut r);
            match front.get(&v.line.raw()) {
                None => {
                    assert_eq!(v.words.used_words(), 1, "front pass touches one word");
                    front.insert(v.line.raw(), v.words);
                }
                Some(fw) => {
                    assert_eq!(v.words.used_words(), 7, "back pass touches the rest");
                    assert_eq!(fw.bits() & v.words.bits(), 0, "disjoint word sets");
                }
            }
        }
        // The trailing visit must lag the front by exactly `lag` lines.
        assert!(front.len() >= lag as usize);
    }

    #[test]
    fn code_loop_is_cyclic_instruction_fetch() {
        let mut s = CodeLoop::new(50, 2);
        let mut r = rng();
        let v1 = s.next_visit(&mut r);
        let v2 = s.next_visit(&mut r);
        let v3 = s.next_visit(&mut r);
        assert_eq!(v1.kind, VisitKind::Instr);
        assert_eq!(v1.line.raw(), 50);
        assert_eq!(v2.line.raw(), 51);
        assert_eq!(v3.line.raw(), 50);
    }
}
