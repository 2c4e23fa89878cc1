//! The Word-Organized Cache (Section 5.1–5.3).
//!
//! The WOC's tag store holds one tag entry per *word* of its data ways.
//! The used words of a line evicted from the LOC are stored in consecutive,
//! aligned positions within a single way; only power-of-two word counts
//! (1, 2, 4 or 8) are allowed. A *head bit* marks the first word of each
//! stored line so whole lines can be evicted together. Replacement picks
//! uniformly at random among aligned candidates that are invalid or start
//! a line (Section 5.3's random replacement).
//!
//! Storage is struct-of-arrays: the valid/dirty/head bits of one way are
//! packed into a `u64` each (bit *i* = slot *i*), so the run-finder asks
//! "where does a `slots`-wide aligned window fit?" with a handful of
//! bitwise ops ([`ldis_mem::bitops`]) instead of scanning entries, and a
//! line lookup walks only the valid slots via `trailing_zeros`.
//!
//! A slot holds a *mask* of the line's words, so the same engine stores
//! plain lines (one word per slot, the paper's 3-bit word id) and the
//! fewer-slot runs of footprint-aware compression ([`Woc::install_run`]).

use crate::{LdisError, WocReplacement};
use ldis_mem::bitops::{eligible_aligned_slots, free_aligned_windows, select_nth_one};
use ldis_mem::{Footprint, SetIndex, SimRng, WordIndex};
use std::fmt;

/// Hardware bits per WOC tag entry (Table 3): valid + dirty + head +
/// 23-bit tag + 3-bit word id. This is the bit surface the fault model
/// exposes per entry.
pub const WOC_ENTRY_BITS: u64 = 29;

/// Slot word masks are stored with this bit inverted, so an all-zero slot
/// names word 0, as a cleared 3-bit word id does, and the mask array still
/// comes from zeroed allocation.
const WORD0: u16 = 1;

/// Which field of a WOC tag entry a fault landed in.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum WocField {
    /// The valid bit.
    Valid,
    /// The dirty bit.
    Dirty,
    /// The head bit (whole-line eviction bookkeeping).
    Head,
    /// Bit `n` of the 23-bit tag.
    Tag(u8),
    /// Bit `n` of the 3-bit word id.
    WordId(u8),
}

impl fmt::Display for WocField {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match *self {
            WocField::Valid => f.write_str("valid bit"),
            WocField::Dirty => f.write_str("dirty bit"),
            WocField::Head => f.write_str("head bit"),
            WocField::Tag(b) => write!(f, "tag bit {b}"),
            WocField::WordId(b) => write!(f, "word-id bit {b}"),
        }
    }
}

/// A bit flip applied to the WOC tag store, located for recovery.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct WocFault {
    /// Set of the affected entry.
    pub set: SetIndex,
    /// Way of the affected entry.
    pub way: usize,
    /// Slot of the affected entry within the way.
    pub slot: usize,
    /// The field the flip landed in.
    pub field: WocField,
    /// Whether the flip can be observed: the entry was valid, or the flip
    /// hit the valid bit itself (resurrecting a stale entry). Flips in
    /// other fields of invalid entries are dead state.
    pub live: bool,
}

impl fmt::Display for WocFault {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "woc {} flip: set {} way {} slot {}{}",
            self.field,
            self.set,
            self.way,
            self.slot,
            if self.live { "" } else { " (dead entry)" }
        )
    }
}

/// A line evicted from the WOC: which words it still held and whether any
/// of them were dirty (those are written back to memory).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct WocEviction {
    /// The tag of the evicted line (the caller knows the set).
    pub tag: u64,
    /// The words the WOC held for the line.
    pub words: Footprint,
    /// Whether the stored words were dirty.
    pub dirty: bool,
}

/// The result of a WOC line lookup.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct WocLineHit {
    /// The words of the line present in the WOC (the valid bits sent to the
    /// sectored L1D, Section 4.2).
    pub valid_words: Footprint,
}

/// The word-organized half of a distill cache.
///
/// Indexed externally by set; each set holds `ways * words_per_line`
/// word-granularity tag entries. The per-way valid/dirty/head bits are
/// packed one `u64` per `(set, way)`; the tags and word masks are flat
/// per-slot arrays indexed `(set * ways + way) * words_per_line + slot`.
#[derive(Clone, Debug)]
pub struct Woc {
    ways: usize,
    words_per_line: usize,
    num_sets: usize,
    /// Per-way valid bits; `valid[set * ways + way]` bit *i* = slot *i*.
    valid: Vec<u64>,
    /// Per-way dirty bits, same indexing.
    dirty: Vec<u64>,
    /// Per-way head bits, same indexing.
    head: Vec<u64>,
    /// Per-slot tags.
    tags: Vec<u64>,
    /// Per-slot masks of the words each entry holds, stored `^ WORD0`.
    word_masks: Vec<u16>,
    rng: SimRng,
    replacement: WocReplacement,
    round_robin: u64,
}

impl Woc {
    /// Creates an empty WOC with `num_sets` sets of `ways` data ways, each
    /// way holding `words_per_line` words. `seed` drives the random
    /// replacement engine.
    pub fn new(num_sets: u64, ways: u32, words_per_line: u8, seed: u64) -> Self {
        assert!(ways >= 1, "WOC needs at least one way");
        #[expect(
            clippy::cast_possible_truncation,
            reason = "the set count sizes in-memory arrays, so it fits usize"
        )]
        let num_sets = num_sets as usize;
        let ways = ways as usize;
        let wpl = words_per_line as usize;
        let num_ways = num_sets * ways;
        Woc {
            ways,
            words_per_line: wpl,
            num_sets,
            valid: vec![0; num_ways],
            dirty: vec![0; num_ways],
            head: vec![0; num_ways],
            tags: vec![0; num_ways * wpl],
            word_masks: vec![0; num_ways * wpl],
            rng: SimRng::new(seed),
            replacement: WocReplacement::Random,
            round_robin: 0,
        }
    }

    /// Sets the replacement candidate selection policy (default: random).
    #[must_use]
    pub fn with_replacement(mut self, replacement: WocReplacement) -> Self {
        self.replacement = replacement;
        self
    }

    /// The mask index of `(set, way)` into the per-way bit vectors.
    #[inline]
    fn way_index(&self, set: SetIndex, way: usize) -> usize {
        debug_assert!(set.get() < self.num_sets && way < self.ways);
        set.get().wrapping_mul(self.ways).wrapping_add(way)
    }

    /// Looks up `tag` in `set`. Returns the words present if any word of
    /// the line is stored (a *line hit*, Section 5.2).
    pub fn lookup(&self, set: SetIndex, tag: u64) -> Option<WocLineHit> {
        let wpl = self.words_per_line;
        let mut words = Footprint::empty();
        for way in 0..self.ways {
            let wi = self.way_index(set, way);
            let mut mask: u64 = self.valid.get(wi).copied().unwrap_or(0);
            let slot_base = wi.wrapping_mul(wpl);
            while mask != 0 {
                let slot = mask.trailing_zeros() as usize;
                let idx = slot_base.wrapping_add(slot);
                if self.tags.get(idx).copied() == Some(tag) {
                    let m = self.word_masks.get(idx).copied().unwrap_or(0);
                    words.merge(Footprint::from_bits(m ^ WORD0));
                }
                mask &= mask - 1;
            }
        }
        if words.is_empty() {
            None
        } else {
            Some(WocLineHit { valid_words: words })
        }
    }

    /// Whether the specific `word` of line `tag` is present in `set`.
    pub fn contains_word(&self, set: SetIndex, tag: u64, word: WordIndex) -> bool {
        self.lookup(set, tag)
            .is_some_and(|hit| hit.valid_words.is_used(word))
    }

    /// Marks every stored word of line `tag` dirty (a dirty L1D writeback
    /// landed on a WOC-resident line). Returns whether the line was present.
    pub fn mark_dirty(&mut self, set: SetIndex, tag: u64) -> bool {
        let wpl = self.words_per_line;
        let mut found = false;
        for way in 0..self.ways {
            let wi = self.way_index(set, way);
            let mut mask: u64 = self.valid.get(wi).copied().unwrap_or(0);
            let slot_base = wi.wrapping_mul(wpl);
            let mut hits = 0u64;
            while mask != 0 {
                let slot = mask.trailing_zeros();
                if self
                    .tags
                    .get(slot_base.wrapping_add(slot as usize))
                    .copied()
                    == Some(tag)
                {
                    hits |= 1u64 << slot;
                }
                mask &= mask - 1;
            }
            if hits != 0 {
                if let Some(d) = self.dirty.get_mut(wi) {
                    *d |= hits;
                }
                found = true;
            }
        }
        found
    }

    /// Invalidates every word of line `tag` in `set` (the hole-miss path,
    /// Section 5.2: "all words for the requested line in WOC are
    /// invalidated"). Returns the eviction record if the line was present.
    pub fn invalidate_line(&mut self, set: SetIndex, tag: u64) -> Option<WocEviction> {
        let wpl = self.words_per_line;
        let mut words = Footprint::empty();
        let mut dirty = false;
        for way in 0..self.ways {
            let wi = self.way_index(set, way);
            let mut mask: u64 = self.valid.get(wi).copied().unwrap_or(0);
            let slot_base = wi.wrapping_mul(wpl);
            let mut hits = 0u64;
            while mask != 0 {
                let slot = mask.trailing_zeros() as usize;
                let idx = slot_base.wrapping_add(slot);
                if self.tags.get(idx).copied() == Some(tag) {
                    hits |= 1u64 << slot;
                    // Clear the slot completely so a later valid-bit flip
                    // resurrects a zeroed entry, not a stale tag.
                    if let Some(m) = self.word_masks.get_mut(idx) {
                        words.merge(Footprint::from_bits(*m ^ WORD0));
                        *m = 0;
                    }
                    if let Some(t) = self.tags.get_mut(idx) {
                        *t = 0;
                    }
                }
                mask &= mask - 1;
            }
            if hits != 0 {
                dirty |= self.dirty.get(wi).is_some_and(|d| d & hits != 0);
                if let Some(v) = self.valid.get_mut(wi) {
                    *v &= !hits;
                }
                if let Some(d) = self.dirty.get_mut(wi) {
                    *d &= !hits;
                }
                if let Some(h) = self.head.get_mut(wi) {
                    *h &= !hits;
                }
            }
        }
        if words.is_empty() {
            None
        } else {
            Some(WocEviction { tag, words, dirty })
        }
    }

    /// Installs the used words of line `tag` (its `footprint`) into `set`,
    /// evicting overlapping lines as needed. Returns the lines displaced.
    ///
    /// Placement follows Section 5.1: the used-word count is rounded up to
    /// a power of two, the words occupy consecutive entries starting at an
    /// offset aligned to that size within a single way, and a head bit
    /// marks the first word. Fully-invalid candidates are preferred; among
    /// occupied candidates the replacement engine picks uniformly at random
    /// from the eligible (invalid-or-head) aligned offsets (Section 5.3).
    ///
    /// # Panics
    ///
    /// Panics if `footprint` is empty or needs more slots than a way holds.
    pub fn install(
        &mut self,
        set: SetIndex,
        tag: u64,
        footprint: Footprint,
        dirty: bool,
    ) -> Vec<WocEviction> {
        let mut evicted = Vec::new();
        let entries = footprint.used_words() as usize;
        self.install_run(set, tag, footprint, entries, dirty, &mut evicted);
        evicted
    }

    /// Installs `words` of line `tag` as `entries` valid entries at the
    /// start of an aligned `entries.next_power_of_two()`-slot window,
    /// placed and evicting like [`install`](Woc::install); `out` gets the
    /// displaced lines. The words are dealt out in ascending order, one
    /// per entry, and the last entry takes the rest: `used_words()`
    /// entries store a plain line, fewer pack a compressed one, and more
    /// leave tail entries empty.
    ///
    /// # Panics
    ///
    /// Panics if `words` is empty, `entries` is 0, or the window is wider
    /// than a way.
    pub fn install_run(
        &mut self,
        set: SetIndex,
        tag: u64,
        words: Footprint,
        entries: usize,
        dirty: bool,
        out: &mut Vec<WocEviction>,
    ) {
        out.clear();
        assert!(
            entries >= 1 && !words.is_empty(),
            "cannot install an empty footprint"
        );
        let slots = entries.next_power_of_two();
        assert!(
            slots <= self.words_per_line,
            "line needs {slots} slots but a way holds {}",
            self.words_per_line
        );
        // Fault-free operation never installs a line that is already
        // present (the hole-miss path invalidates first), but corrupted
        // metadata can resurrect a stale copy; drop it rather than store
        // the same tag twice.
        if self.lookup(set, tag).is_some() {
            self.invalidate_line(set, tag);
        }

        let (way, offset) = self.choose_position(set, slots);
        self.evict_range(set, way, offset, slots, out);

        let wi = self.way_index(set, way);
        let slot_base = wi.wrapping_mul(self.words_per_line);
        let mut set_bits = 0u64;
        let mut rest = words.bits();
        for i in 0..entries {
            let slot = offset.wrapping_add(i);
            let idx = slot_base.wrapping_add(slot);
            let mask = if i + 1 == entries {
                rest
            } else {
                rest & rest.wrapping_neg()
            };
            rest &= !mask;
            if let Some(t) = self.tags.get_mut(idx) {
                *t = tag;
            }
            if let Some(m) = self.word_masks.get_mut(idx) {
                *m = mask ^ WORD0;
            }
            if slot < 64 {
                set_bits |= 1u64 << slot;
            }
        }
        let head_bit = if offset < 64 { 1u64 << offset } else { 0 };
        if let Some(v) = self.valid.get_mut(wi) {
            *v |= set_bits;
        }
        if let Some(d) = self.dirty.get_mut(wi) {
            if dirty {
                *d |= set_bits;
            } else {
                *d &= !set_bits;
            }
        }
        if let Some(h) = self.head.get_mut(wi) {
            *h = (*h & !set_bits) | head_bit;
        }
    }

    /// Picks the position for a `slots`-word line: a random fully-invalid
    /// aligned candidate if one exists, otherwise a random eligible
    /// (invalid-or-head) aligned candidate.
    ///
    /// Candidates are counted and selected with the `bitops` run-finder
    /// masks; the candidate numbering is (way ascending, offset ascending),
    /// exactly the order the old entry-scanning loop pushed them, so the
    /// replacement engine sees identical candidate counts and indices and
    /// the RNG stream is bit-identical to the pre-overhaul code.
    #[expect(
        clippy::cast_possible_truncation,
        reason = "the field copies LineGeometry::words_per_line(), asserted 2..=16 at construction; slots never exceeds it, and pick(n) returns a value below its u32 count n"
    )]
    fn choose_position(&mut self, set: SetIndex, slots: usize) -> (usize, usize) {
        let wpl = self.words_per_line as u32;
        let slots32 = slots as u32;
        let mut free_total = 0u32;
        let mut eligible_total = 0u32;
        for way in 0..self.ways {
            let wi = self.way_index(set, way);
            let v = self.valid.get(wi).copied().unwrap_or(u64::MAX);
            let h = self.head.get(wi).copied().unwrap_or(0);
            free_total += free_aligned_windows(v, wpl, slots32).count_ones();
            eligible_total += eligible_aligned_slots(v, h, wpl, slots32).count_ones();
        }
        if free_total > 0 {
            let mut rank = self.pick(free_total as usize) as u32;
            for way in 0..self.ways {
                let wi = self.way_index(set, way);
                let v = self.valid.get(wi).copied().unwrap_or(u64::MAX);
                let mask = free_aligned_windows(v, wpl, slots32);
                let count = mask.count_ones();
                if rank < count {
                    return (way, select_nth_one(mask, rank) as usize);
                }
                rank -= count;
            }
        }
        if eligible_total == 0 {
            // Alignment guarantees a candidate in fault-free operation
            // (offset 0 of a way is invalid or a head); corrupted head
            // bits can void that. Fall back to offset 0 of some way —
            // `evict_range` clears headless debris tolerantly.
            let way = self.pick(self.ways);
            return (way, 0);
        }
        let mut rank = self.pick(eligible_total as usize) as u32;
        for way in 0..self.ways {
            let wi = self.way_index(set, way);
            let v = self.valid.get(wi).copied().unwrap_or(u64::MAX);
            let h = self.head.get(wi).copied().unwrap_or(0);
            let mask = eligible_aligned_slots(v, h, wpl, slots32);
            let count = mask.count_ones();
            if rank < count {
                return (way, select_nth_one(mask, rank) as usize);
            }
            rank -= count;
        }
        (0, 0)
    }

    #[expect(
        clippy::cast_possible_truncation,
        reason = "reduced modulo len, a usize"
    )]
    fn pick(&mut self, len: usize) -> usize {
        match self.replacement {
            WocReplacement::Random => self.rng.index(len),
            WocReplacement::RoundRobin => {
                self.round_robin = self.round_robin.wrapping_add(1);
                (self.round_robin % len as u64) as usize
            }
        }
    }

    /// Evicts every line whose head lies in `offset..offset + slots` of
    /// `way` (whole-line eviction via the head bit, Section 5.3), clearing
    /// all of their entries — including any that extend beyond the range.
    /// Records the displaced lines by appending to `evictions` (the caller
    /// clears the buffer; appending keeps `last_mut` coalescing local).
    fn evict_range(
        &mut self,
        set: SetIndex,
        way: usize,
        offset: usize,
        slots: usize,
        evictions: &mut Vec<WocEviction>,
    ) {
        let wpl = self.words_per_line;
        let wi = self.way_index(set, way);
        let slot_base = wi.wrapping_mul(wpl);
        let mut vmask = self.valid.get(wi).copied().unwrap_or(0);
        let mut dmask = self.dirty.get(wi).copied().unwrap_or(0);
        let mut hmask = self.head.get(wi).copied().unwrap_or(0);
        let mut i = offset;
        // A head inside the range may own entries beyond it; walk to the
        // end of the last overlapped line.
        while i < wpl.min(64) {
            let bit = 1u64 << i;
            if vmask & bit == 0 {
                if i >= offset + slots {
                    break;
                }
                i += 1;
                continue;
            }
            let is_head = hmask & bit != 0;
            if is_head && i >= offset + slots {
                break; // next line starts after the range: done
            }
            let idx = slot_base.wrapping_add(i);
            let tag = self.tags.get(idx).copied().unwrap_or(0);
            // Fault-free, every line opens with a head and its words share
            // one tag. Corrupted metadata can present a headless entry or
            // a tag that differs mid-line; tolerate both by opening a
            // fresh eviction record so the debris is still cleared and
            // its dirty words still accounted.
            if is_head || evictions.last().is_none_or(|ev| ev.tag != tag) {
                evictions.push(WocEviction {
                    tag,
                    words: Footprint::empty(),
                    dirty: false,
                });
            }
            let stored = self.word_masks.get_mut(idx).map_or(0, std::mem::take);
            if let Some(ev) = evictions.last_mut() {
                ev.words.merge(Footprint::from_bits(stored ^ WORD0));
                ev.dirty |= dmask & bit != 0;
            }
            vmask &= !bit;
            dmask &= !bit;
            hmask &= !bit;
            if let Some(t) = self.tags.get_mut(idx) {
                *t = 0;
            }
            i += 1;
        }
        if let Some(v) = self.valid.get_mut(wi) {
            *v = vmask;
        }
        if let Some(d) = self.dirty.get_mut(wi) {
            *d = dmask;
        }
        if let Some(h) = self.head.get_mut(wi) {
            *h = hmask;
        }
    }

    /// Number of valid word entries in the whole WOC.
    pub fn occupancy(&self) -> u64 {
        self.valid.iter().map(|m| u64::from(m.count_ones())).sum()
    }

    /// Number of distinct lines stored in `set`.
    pub fn lines_in_set(&self, set: SetIndex) -> usize {
        (0..self.ways)
            .map(|way| {
                let wi = self.way_index(set, way);
                let v = self.valid.get(wi).copied().unwrap_or(0);
                let h = self.head.get(wi).copied().unwrap_or(0);
                (v & h).count_ones() as usize
            })
            .sum()
    }

    /// Checks the structural invariants of one set. Used by tests,
    /// property checks and the online self-checker; the typed error
    /// pinpoints the violation for degradation logging.
    pub fn check_invariants(&self, set: SetIndex) -> Result<(), LdisError> {
        let wpl = self.words_per_line;
        for way in 0..self.ways {
            let wi = self.way_index(set, way);
            let vmask = self.valid.get(wi).copied().unwrap_or(0);
            let hmask = self.head.get(wi).copied().unwrap_or(0);
            let slot_base = wi.wrapping_mul(wpl);
            let mut i = 0usize;
            while i < wpl.min(64) {
                let bit = 1u64 << i;
                if vmask & bit == 0 {
                    i += 1;
                    continue;
                }
                if hmask & bit == 0 {
                    return Err(LdisError::WocOrphanEntry { set, way, slot: i });
                }
                let tag = self.tags.get(slot_base.wrapping_add(i)).copied();
                let start = i;
                i += 1;
                while i < wpl.min(64) {
                    let next = 1u64 << i;
                    if vmask & next == 0 || hmask & next != 0 {
                        break;
                    }
                    if self.tags.get(slot_base.wrapping_add(i)).copied() != tag {
                        return Err(LdisError::WocTagMismatch { set, way, slot: i });
                    }
                    i += 1;
                }
                let len = i - start;
                let slots = len.next_power_of_two();
                if !start.is_multiple_of(slots) {
                    return Err(LdisError::WocMisaligned {
                        set,
                        way,
                        start,
                        len,
                    });
                }
                // Words are stored in ascending order: every entry's words
                // lie above all the words before it in the run (for one
                // word per entry, strictly increasing word ids).
                let run = self
                    .word_masks
                    .get(slot_base.wrapping_add(start)..slot_base.wrapping_add(i))
                    .unwrap_or_default();
                let mut seen = 0u32;
                for &stored in run {
                    let mask = stored ^ WORD0;
                    if seen >> mask.trailing_zeros() != 0 {
                        return Err(LdisError::WocWordOrder { set, way, start });
                    }
                    seen |= u32::from(mask);
                }
            }
        }
        Ok(())
    }

    /// Total modeled tag-store bits (29 per entry, Table 3) — the fault
    /// injector's address space over this structure.
    pub fn tag_store_bits(&self) -> u64 {
        self.tags.len() as u64 * WOC_ENTRY_BITS
    }

    /// Flips one modeled tag-store bit, addressed in `0..tag_store_bits()`
    /// (29 consecutive bits per entry, entries in (set, way, slot) order).
    /// Flipping the same bit twice restores the original state, which is
    /// how the protection models "correct" or decline to apply a fault.
    ///
    /// # Panics
    ///
    /// Panics if `bit` is out of range.
    pub fn flip_tag_bit(&mut self, bit: u64) -> WocFault {
        assert!(bit < self.tag_store_bits(), "tag-store bit out of range");
        let idx = (bit / WOC_ENTRY_BITS) as usize;
        let k = (bit % WOC_ENTRY_BITS) as u32;
        let per_set = self.ways.saturating_mul(self.words_per_line);
        let set = SetIndex::new(idx / per_set);
        let way = (idx % per_set) / self.words_per_line;
        let slot = idx % self.words_per_line;
        let wi = self.way_index(set, way);
        #[expect(
            clippy::cast_possible_truncation,
            reason = "slot is idx modulo the words_per_line field, which copies LineGeometry's asserted 2..=16 word count"
        )]
        let slot_bit = 1u64 << (slot as u32 % 64);
        let was_valid = self.valid.get(wi).is_some_and(|&m| m & slot_bit != 0);
        let field = match k {
            0 => {
                if let Some(m) = self.valid.get_mut(wi) {
                    *m ^= slot_bit;
                }
                WocField::Valid
            }
            1 => {
                if let Some(m) = self.dirty.get_mut(wi) {
                    *m ^= slot_bit;
                }
                WocField::Dirty
            }
            2 => {
                if let Some(m) = self.head.get_mut(wi) {
                    *m ^= slot_bit;
                }
                WocField::Head
            }
            3..=25 => {
                #[expect(
                    clippy::cast_possible_truncation,
                    reason = "this arm only sees k in 3..=25, so k - 3 < 23"
                )]
                let b = (k - 3) as u8;
                if let Some(t) = self.tags.get_mut(idx) {
                    *t ^= 1 << b;
                }
                WocField::Tag(b)
            }
            _ => {
                #[expect(
                    clippy::cast_possible_truncation,
                    reason = "the wildcard arm only sees k >= 26 (prior arms cover 0..=25) and k < WOC_ENTRY_BITS"
                )]
                let b = (k - 26) as u8;
                if let Some(m) = self.word_masks.get_mut(idx) {
                    // The entry's word id is its lowest word; flipping bit
                    // `b` of it keeps a one-word mask one-hot.
                    let id = (*m ^ WORD0).trailing_zeros() ^ (1 << b);
                    *m = 1u16.wrapping_shl(id) ^ WORD0;
                }
                WocField::WordId(b)
            }
        };
        WocFault {
            set,
            way,
            slot,
            field,
            live: was_valid || field == WocField::Valid,
        }
    }

    /// Discards every entry of `way` in `set` — the conservative recovery
    /// after a detected-but-uncorrectable fault somewhere in that way's
    /// tag entries (parity localizes no finer than the protected word).
    /// Returns the number of valid entries discarded.
    pub fn clear_way(&mut self, set: SetIndex, way: usize) -> u64 {
        let wpl = self.words_per_line;
        let wi = self.way_index(set, way);
        let cleared = u64::from(self.valid.get(wi).copied().unwrap_or(0).count_ones());
        if let Some(v) = self.valid.get_mut(wi) {
            *v = 0;
        }
        if let Some(d) = self.dirty.get_mut(wi) {
            *d = 0;
        }
        if let Some(h) = self.head.get_mut(wi) {
            *h = 0;
        }
        let slot_base = wi.wrapping_mul(wpl);
        if let Some(tags) = self.tags.get_mut(slot_base..slot_base.wrapping_add(wpl)) {
            tags.fill(0);
        }
        if let Some(masks) = self
            .word_masks
            .get_mut(slot_base..slot_base.wrapping_add(wpl))
        {
            masks.fill(0);
        }
        cleared
    }

    /// Discards every entry of `set` — the recovery when the self-checker
    /// finds a structural violation it cannot localize to one way.
    /// Returns the number of valid entries discarded.
    pub fn clear_set(&mut self, set: SetIndex) -> u64 {
        (0..self.ways).map(|way| self.clear_way(set, way)).sum()
    }
}

impl crate::WordStore for Woc {
    fn lookup(&self, set: SetIndex, tag: u64) -> Option<WocLineHit> {
        Woc::lookup(self, set, tag)
    }

    fn install(
        &mut self,
        set: SetIndex,
        tag: u64,
        _line: ldis_mem::LineAddr,
        words: Footprint,
        dirty: bool,
        evicted: &mut Vec<WocEviction>,
    ) {
        let entries = words.used_words() as usize;
        Woc::install_run(self, set, tag, words, entries, dirty, evicted);
    }

    fn invalidate_line(&mut self, set: SetIndex, tag: u64) -> Option<WocEviction> {
        Woc::invalidate_line(self, set, tag)
    }

    fn mark_dirty(&mut self, set: SetIndex, tag: u64) -> bool {
        Woc::mark_dirty(self, set, tag)
    }

    fn occupancy(&self) -> u64 {
        Woc::occupancy(self)
    }

    fn fault_surface(&mut self) -> Option<&mut Woc> {
        Some(self)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const SET0: SetIndex = SetIndex::new(0);
    const SET1: SetIndex = SetIndex::new(1);

    fn woc() -> Woc {
        Woc::new(4, 2, 8, 42)
    }

    fn fp(bits: u16) -> Footprint {
        Footprint::from_bits(bits)
    }

    #[test]
    fn install_then_lookup() {
        let mut w = woc();
        let evicted = w.install(SET0, 100, fp(0b1000_0001), false);
        assert!(evicted.is_empty());
        let hit = w.lookup(SET0, 100).expect("line hit");
        assert_eq!(hit.valid_words, fp(0b1000_0001));
        assert!(w.contains_word(SET0, 100, WordIndex::new(0)));
        assert!(w.contains_word(SET0, 100, WordIndex::new(7)));
        assert!(!w.contains_word(SET0, 100, WordIndex::new(3)));
        assert!(w.lookup(SET1, 100).is_none(), "other sets unaffected");
        w.check_invariants(SET0).expect("invariants hold");
    }

    #[test]
    fn three_words_occupy_four_aligned_slots() {
        let mut w = woc();
        w.install(SET0, 1, fp(0b0011_1000), false); // 3 words → 4 slots
        w.check_invariants(SET0).expect("invariants hold");
        assert_eq!(w.occupancy(), 3);
        // Fill the rest: capacity is 2 ways * 8 slots = 16; the 3-word line
        // reserves an aligned 4-slot region, so 4 more 4-slot lines displace
        // something.
        for t in 2..=4u64 {
            w.install(SET0, t, fp(0b0000_1111), false);
            w.check_invariants(SET0).expect("invariants hold");
        }
        assert_eq!(w.lines_in_set(SET0), 4);
        let evicted = w.install(SET0, 5, fp(0b0000_1111), false);
        assert_eq!(
            evicted.len(),
            1,
            "a full WOC must evict exactly one 4-slot line"
        );
        w.check_invariants(SET0).expect("invariants hold");
    }

    #[test]
    fn eviction_returns_whole_lines() {
        let mut w = Woc::new(1, 1, 8, 7);
        // Fill the single way with four 2-word lines.
        for t in 0..4u64 {
            w.install(SET0, 10 + t, fp(0b11), true);
        }
        assert_eq!(w.lines_in_set(SET0), 4);
        // An 8-word install must evict all four lines.
        let evicted = w.install(SET0, 99, fp(0xff), false);
        assert_eq!(evicted.len(), 4);
        for ev in &evicted {
            assert_eq!(ev.words.used_words(), 2);
            assert!(ev.dirty);
        }
        assert_eq!(w.lines_in_set(SET0), 1);
        w.check_invariants(SET0).expect("invariants hold");
    }

    #[test]
    fn single_word_install_into_full_way_evicts_one_line() {
        let mut w = Woc::new(1, 1, 8, 3);
        w.install(SET0, 1, fp(0xff), false); // 8-word line fills the way
        let evicted = w.install(SET0, 2, fp(0b1), false);
        // The only eligible offset for 1 slot is the head at 0; the whole
        // 8-word line goes.
        assert_eq!(evicted.len(), 1);
        assert_eq!(evicted[0].tag, 1);
        assert_eq!(evicted[0].words.used_words(), 8);
        assert_eq!(w.occupancy(), 1);
        w.check_invariants(SET0).expect("invariants hold");
    }

    #[test]
    fn invalidate_line_removes_all_words() {
        let mut w = woc();
        let set = SetIndex::new(2);
        w.install(set, 50, fp(0b0101), true);
        let ev = w.invalidate_line(set, 50).expect("present");
        assert_eq!(ev.words, fp(0b0101));
        assert!(ev.dirty);
        assert!(w.lookup(set, 50).is_none());
        assert!(w.invalidate_line(set, 50).is_none());
        w.check_invariants(set).expect("invariants hold");
    }

    #[test]
    fn mark_dirty_hits_all_words() {
        let mut w = woc();
        w.install(SET1, 8, fp(0b11), false);
        assert!(w.mark_dirty(SET1, 8));
        let ev = w.invalidate_line(SET1, 8).expect("line was installed");
        assert!(ev.dirty);
        assert!(!w.mark_dirty(SET1, 8));
    }

    #[test]
    fn words_rearranged_in_increasing_order() {
        let mut w = woc();
        w.install(SET0, 5, fp(0b1001_0010), false); // words 1, 4, 7
        w.check_invariants(SET0).expect("invariants hold");
        let hit = w.lookup(SET0, 5).expect("line was installed");
        assert_eq!(hit.valid_words, fp(0b1001_0010));
    }

    #[test]
    fn stress_random_installs_hold_invariants() {
        let mut w = Woc::new(8, 2, 8, 1234);
        let mut rng = SimRng::new(99);
        for i in 0..2000u64 {
            let set = SetIndex::new(rng.index(8));
            let bits = (rng.next_u64() & 0xff) as u16;
            if bits == 0 {
                continue;
            }
            let tag = 1000 + i;
            w.install(set, tag, fp(bits), rng.chance(0.3));
            w.check_invariants(set)
                .unwrap_or_else(|e| panic!("iteration {i}: {e}"));
        }
    }

    #[test]
    #[should_panic(expected = "empty footprint")]
    fn rejects_empty_install() {
        let mut w = woc();
        w.install(SET0, 1, Footprint::empty(), false);
    }

    #[test]
    fn tag_store_exposes_29_bits_per_entry() {
        let w = woc(); // 4 sets * 2 ways * 8 slots = 64 entries
        assert_eq!(w.tag_store_bits(), 64 * 29);
    }

    #[test]
    fn flip_is_involutory_and_locates_the_site() {
        let mut w = woc();
        w.install(SET1, 77, fp(0b11), true);
        let before = w.clone();
        // Entry index for set 1, way 0, slot 0: (1*2*8 + 0) * 29 = bit 464;
        // +2 selects the head bit.
        let fault = w.flip_tag_bit(464 + 2);
        assert_eq!((fault.set, fault.way, fault.slot), (SET1, 0, 0));
        assert_eq!(fault.field, WocField::Head);
        w.flip_tag_bit(464 + 2);
        assert_eq!(w.valid, before.valid, "double flip restores state");
        assert_eq!(w.dirty, before.dirty);
        assert_eq!(w.head, before.head);
        assert_eq!(w.tags, before.tags);
        assert_eq!(w.word_masks, before.word_masks);
    }

    #[test]
    fn flip_in_invalid_entry_is_dead_unless_valid_bit() {
        let mut w = woc();
        let dirty_flip = w.flip_tag_bit(1); // dirty bit of invalid entry 0
        assert!(!dirty_flip.live);
        let valid_flip = w.flip_tag_bit(0); // resurrects entry 0
        assert!(valid_flip.live);
    }

    #[test]
    fn corrupted_head_bit_is_caught_and_cleared() {
        let mut w = woc();
        w.install(SET0, 9, fp(0b11), false);
        let fault = w.flip_tag_bit(2); // head bit of set 0, way 0, slot 0
        assert!(fault.live);
        let err = w
            .check_invariants(SET0)
            .expect_err("orphan must be flagged");
        assert!(matches!(
            err,
            LdisError::WocOrphanEntry {
                set: SET0,
                way: 0,
                ..
            }
        ));
        assert_eq!(w.clear_set(SET0), 2);
        w.check_invariants(SET0).expect("cleared set is consistent");
        assert_eq!(w.occupancy(), 0);
    }

    #[test]
    fn corrupted_tag_splits_line_without_panicking() {
        let mut w = Woc::new(1, 1, 8, 5);
        w.install(SET0, 3, fp(0b1111), true);
        // Flip tag bit 0 of slot 1: mid-line tag mismatch.
        w.flip_tag_bit(WOC_ENTRY_BITS + 3);
        assert!(matches!(
            w.check_invariants(SET0),
            Err(LdisError::WocTagMismatch { .. })
        ));
        // Installing over the corrupted range must not panic and must
        // leave a consistent set behind.
        let evicted = w.install(SET0, 8, fp(0xff), false);
        assert!(!evicted.is_empty());
        assert!(evicted.iter().any(|ev| ev.dirty), "dirty debris accounted");
        w.check_invariants(SET0)
            .expect("full reinstall scrubs the way");
    }

    #[test]
    fn headless_way_still_accepts_installs() {
        let mut w = Woc::new(1, 1, 8, 11);
        w.install(SET0, 4, fp(0xff), false);
        // Kill the head bit: no eligible candidate remains in the way.
        w.flip_tag_bit(2);
        let evicted = w.install(SET0, 6, fp(0xff), false);
        assert_eq!(evicted.len(), 1, "debris evicted via the fallback path");
        w.check_invariants(SET0)
            .expect("reinstall leaves a consistent way");
        assert!(w.lookup(SET0, 6).is_some());
    }

    #[test]
    fn reinstalling_a_resurrected_tag_keeps_one_copy() {
        let mut w = woc();
        w.install(SET0, 5, fp(0b1), false);
        // Duplicate installs (possible when a valid-bit flip resurrects a
        // stale copy) must collapse to a single stored line.
        w.install(SET0, 5, fp(0b11), false);
        let hit = w.lookup(SET0, 5).expect("line present");
        assert_eq!(hit.valid_words, fp(0b11));
        w.check_invariants(SET0).expect("no duplicate tags");
    }

    #[test]
    fn clear_way_reports_discarded_entries() {
        let mut w = woc();
        let set = SetIndex::new(3);
        w.install(set, 2, fp(0b111), false);
        let way = (0..2)
            .find(|&wy| w.valid.get(3 * 2 + wy).copied().unwrap_or(0) != 0)
            .expect("line landed in some way");
        assert_eq!(w.clear_way(set, way), 3);
        assert!(w.lookup(set, 2).is_none());
    }
}
