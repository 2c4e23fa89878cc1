//! Contiguous struct-of-arrays storage for every set of a cache.
//!
//! The original layout kept one heap allocation per set (`Vec<Vec<Entry>>`),
//! so a probe chased two pointers before touching a tag. [`SetArena`] flattens
//! all sets into parallel arrays — one `Vec` each for tags, metadata bits,
//! footprints, recency bookkeeping and the LRU order — indexed by
//! `set * ways + way`. A set probe is then one contiguous scan of at most
//! `ways` consecutive tags, and the whole tag store lives in a handful of
//! allocations regardless of cache size.
//!
//! The arena reproduces the per-set true-LRU stack exactly (same find
//! order, same promotion, same victim choice);
//! `tests/hotpath_equivalence.rs` drives it against a per-set reference
//! model over random traces and asserts identical footprints and eviction
//! order.
//!
//! Promotion to MRU shifts the recency prefix down one position with
//! [`shift_in_mru`], a carry-swap loop that inlines into every probe; the
//! generic `<[T]>::rotate_right` it replaces is an out-of-line call that
//! moves the few bytes of a set's order through `memcpy` and `memmove`.

use crate::TagEntry;
use ldis_mem::{Footprint, SetIndex, WordIndex};

/// Flattened per-way state for `num_sets * ways` cache entries.
///
/// Metadata is packed one byte per way (valid/dirty/is-instr bits); the
/// recency order keeps `order[set * ways + pos]` = way index at recency
/// position `pos` (0 = MRU), the same permutation-per-set invariant as the
/// old per-set stack. All accessors take `(set, way)` pairs and use checked
/// indexing; out-of-range coordinates read as an invalid entry and ignore
/// writes, which callers rule out by masking set indices into range.
#[derive(Clone, Debug)]
pub struct SetArena {
    ways: usize,
    tags: Vec<u64>,
    meta: Vec<u8>,
    footprints: Vec<u16>,
    pos_seen: Vec<u8>,
    pos_change: Vec<u8>,
    /// `order[set * ways + pos]` = way at recency position `pos` (0 = MRU).
    order: Vec<u8>,
}

const VALID: u8 = 1 << 0;
const DIRTY: u8 = 1 << 1;
const INSTR: u8 = 1 << 2;

/// LRU promotion on one recency-ordered column: writes `mru` into the
/// first slot and shifts every other slot down one position, dropping the
/// last slot's old value. Over the prefix that ends at a promoted entry,
/// with `mru` that entry's value, this is `prefix.rotate_right(1)`.
///
/// # Example
///
/// ```
/// use ldis_cache::shift_in_mru;
///
/// let mut order = [3u8, 1, 0, 2];
/// shift_in_mru(&mut order[..=2], 0); // promote the way at position 2
/// assert_eq!(order, [0, 3, 1, 2]);
/// ```
#[inline]
pub fn shift_in_mru<'a, T: Copy + 'a>(column: impl IntoIterator<Item = &'a mut T>, mru: T) {
    let mut carry = mru;
    for slot in column {
        carry = std::mem::replace(slot, carry);
    }
}

/// Promotes the way at recency position `pos` of one set's `order` to
/// MRU; out-of-range positions leave the order unchanged.
#[inline]
fn promote_at(order: &mut [u8], pos: usize) {
    if let Some(prefix) = order.get_mut(..=pos) {
        if let Some(&way) = prefix.last() {
            shift_in_mru(prefix, way);
        }
    }
}

impl SetArena {
    /// Creates an empty arena of `num_sets` sets with `ways` ways each.
    ///
    /// # Panics
    ///
    /// Panics if `ways` is 0 or greater than 255.
    pub fn new(num_sets: usize, ways: u32) -> Self {
        assert!((1..=255).contains(&ways), "ways must be in 1..=255");
        let ways = ways as usize;
        let n = num_sets * ways;
        let mut order = Vec::with_capacity(n);
        for _ in 0..num_sets {
            #[expect(
                clippy::cast_possible_truncation,
                reason = "the assert above bounds ways to 1..=255"
            )]
            order.extend(0..ways as u8);
        }
        SetArena {
            ways,
            tags: vec![0; n],
            meta: vec![0; n],
            footprints: vec![0; n],
            pos_seen: vec![0; n],
            pos_change: vec![0; n],
            order,
        }
    }

    /// Number of ways per set.
    pub fn ways(&self) -> usize {
        self.ways
    }

    #[inline]
    fn idx(&self, set: SetIndex, way: usize) -> usize {
        // Explicit wrapping: an (impossible in practice) overflow produces
        // an out-of-range index, which every accessor treats as inert.
        set.get().wrapping_mul(self.ways).wrapping_add(way)
    }

    /// The way of `set` holding `tag`, if present and valid. Scans ways in
    /// ascending order, so the lowest matching way wins.
    ///
    /// Set and way numbers are different types, so swapping them does not
    /// compile. This lookup compiles:
    ///
    /// ```
    /// use ldis_cache::SetArena;
    /// use ldis_mem::SetIndex;
    ///
    /// let mut arena = SetArena::new(4, 2);
    /// let (set, way) = (SetIndex::new(3), 1);
    /// arena.install(set, way, 0x2a, false, false);
    /// assert_eq!(arena.find(set, 0x2a), Some(way));
    /// ```
    ///
    /// and its twin, which passes the way number as the set, does not:
    ///
    /// ```compile_fail,E0308
    /// use ldis_cache::SetArena;
    /// use ldis_mem::SetIndex;
    ///
    /// let mut arena = SetArena::new(4, 2);
    /// let (set, way) = (SetIndex::new(3), 1);
    /// arena.install(set, way, 0x2a, false, false);
    /// assert_eq!(arena.find(way, 0x2a), Some(way));
    /// ```
    #[inline]
    pub fn find(&self, set: SetIndex, tag: u64) -> Option<usize> {
        let base = set.get() * self.ways;
        let tags = self.tags.get(base..base + self.ways)?;
        let meta = self.meta.get(base..base + self.ways)?;
        tags.iter()
            .zip(meta)
            .position(|(&t, &m)| m & VALID != 0 && t == tag)
    }

    /// The recency position of `way` in `set` (0 = MRU), if in range.
    #[inline]
    #[expect(
        clippy::cast_possible_truncation,
        reason = "position over the per-set order slice, whose length is ways, asserted 1..=255 in new()"
    )]
    pub fn position_of(&self, set: SetIndex, way: usize) -> Option<u8> {
        let base = set.get() * self.ways;
        let order = self.order.get(base..base + self.ways)?;
        order
            .iter()
            .position(|&w| w as usize == way)
            .map(|p| p as u8)
    }

    /// Promotes `way` of `set` to MRU, returning its recency position
    /// *before* the promotion (the position an access observes, Section 3).
    /// Returns 0 without mutating if the coordinates are out of range.
    #[inline]
    #[expect(
        clippy::cast_possible_truncation,
        reason = "position over the per-set order slice, whose length is ways, asserted 1..=255 in new()"
    )]
    pub fn promote(&mut self, set: SetIndex, way: usize) -> u8 {
        let base = set.get() * self.ways;
        let Some(order) = self.order.get_mut(base..base + self.ways) else {
            return 0;
        };
        let Some(pos) = order.iter().position(|&w| w as usize == way) else {
            return 0;
        };
        // Equivalent to remove(pos) + insert(0, way) on the per-set stack.
        promote_at(order, pos);
        pos as u8
    }

    /// The fused hit path: finds `tag` in `set` and, on a hit, promotes the
    /// way to MRU, ORs `span` into its footprint and sets the dirty bit for
    /// writes — one base computation and one slice per array instead of a
    /// find/promote/touch/or_dirty call chain. With `latch` the Figure 2
    /// recency bookkeeping also runs: the pre-promotion position is
    /// observed, and newly set footprint bits latch the maximum position,
    /// exactly like `observe_position` + `touch_word`. Returns the hit way,
    /// or `None` on a miss (or out-of-range `set`).
    #[inline]
    pub fn hit_update(
        &mut self,
        set: SetIndex,
        tag: u64,
        span: u16,
        write: bool,
        latch: bool,
    ) -> Option<usize> {
        let base = set.get().wrapping_mul(self.ways);
        let end = base.checked_add(self.ways)?;
        let tags = self.tags.get(base..end)?;
        let meta = self.meta.get(base..end)?;
        let way = tags
            .iter()
            .zip(meta)
            .position(|(&t, &m)| m & VALID != 0 && t == tag)?;
        let i = base.wrapping_add(way);
        // Promote to MRU, remembering the pre-promotion position.
        let order = self.order.get_mut(base..end)?;
        #[expect(
            clippy::cast_possible_truncation,
            reason = "position over the per-set order slice, whose length is ways, asserted 1..=255 in new()"
        )]
        let pos = order.iter().position(|&w| w as usize == way)? as u8;
        promote_at(order, pos as usize);
        if latch {
            let seen = match self.pos_seen.get_mut(i) {
                Some(s) => {
                    *s = (*s).max(pos);
                    *s
                }
                None => pos,
            };
            if let Some(fp) = self.footprints.get_mut(i) {
                if span & !*fp != 0 {
                    if let Some(p) = self.pos_change.get_mut(i) {
                        *p = seen;
                    }
                }
                *fp |= span;
            }
        } else if let Some(fp) = self.footprints.get_mut(i) {
            *fp |= span;
        }
        if write {
            if let Some(m) = self.meta.get_mut(i) {
                *m |= DIRTY;
            }
        }
        Some(way)
    }

    /// The hit update of a way already at MRU, addressed by its flat slot
    /// `set * ways + way`: ORs `span` into the footprint and sets the dirty
    /// bit for writes. On such a way this is exactly `hit_update(.., latch =
    /// false)` without the tag scan, the recency scan and the no-op
    /// promotion. An out-of-range slot is ignored.
    #[inline]
    pub fn touch_mru(&mut self, slot: usize, span: u16, write: bool) {
        if let Some(fp) = self.footprints.get_mut(slot) {
            *fp |= span;
        }
        if write {
            if let Some(m) = self.meta.get_mut(slot) {
                *m |= DIRTY;
            }
        }
    }

    /// The fused footprint-merge path (the L1D → LOC merge of Section 4.1):
    /// finds `tag` in `set` and, on a hit, OR-merges `bits` into the
    /// footprint (newly set bits latch the max position, exactly like
    /// `merge_footprint`) and sets the dirty bit when `dirty`. Recency is
    /// **not** updated. Returns whether the line was resident.
    #[inline]
    pub fn merge_update(&mut self, set: SetIndex, tag: u64, bits: u16, dirty: bool) -> bool {
        let base = set.get().wrapping_mul(self.ways);
        let Some(end) = base.checked_add(self.ways) else {
            return false;
        };
        let (Some(tags), Some(meta)) = (self.tags.get(base..end), self.meta.get(base..end)) else {
            return false;
        };
        let Some(way) = tags
            .iter()
            .zip(meta)
            .position(|(&t, &m)| m & VALID != 0 && t == tag)
        else {
            return false;
        };
        let i = base.wrapping_add(way);
        if let Some(fp) = self.footprints.get_mut(i) {
            if *fp & bits != bits {
                let seen = self.pos_seen.get(i).copied().unwrap_or(0);
                if let Some(p) = self.pos_change.get_mut(i) {
                    *p = seen;
                }
            }
            *fp |= bits;
        }
        if dirty {
            if let Some(m) = self.meta.get_mut(i) {
                *m |= DIRTY;
            }
        }
        true
    }

    /// The way a new line in `set` should replace: the first invalid way if
    /// any, otherwise the LRU way.
    #[inline]
    pub fn victim_way(&self, set: SetIndex) -> usize {
        let base = set.get() * self.ways;
        let Some(meta) = self.meta.get(base..base + self.ways) else {
            return 0;
        };
        if let Some(way) = meta.iter().position(|&m| m & VALID == 0) {
            return way;
        }
        self.order
            .get(base..base + self.ways)
            .and_then(|order| order.last())
            .map_or(0, |&w| w as usize)
    }

    /// The fused install path: picks the victim way of `set` (first
    /// invalid way, else LRU), snapshots the displaced entry,
    /// re-initializes the way for `tag` with `span` as the initial
    /// footprint (the demand words; the fresh-install latch is position 0,
    /// exactly like `install` + `touch_word` on an empty footprint) and
    /// promotes it to MRU — one pass instead of a
    /// victim/entry/install/touch/promote call chain. Returns the chosen
    /// way and the displaced entry (invalid if the way was empty). An
    /// out-of-range `set` mutates nothing and returns way 0.
    #[inline]
    pub fn install_evict(
        &mut self,
        set: SetIndex,
        tag: u64,
        span: u16,
        write: bool,
        is_instr: bool,
    ) -> (usize, TagEntry) {
        let base = set.get().wrapping_mul(self.ways);
        let Some(end) = base.checked_add(self.ways) else {
            return (0, TagEntry::invalid());
        };
        let Some(meta) = self.meta.get(base..end) else {
            return (0, TagEntry::invalid());
        };
        let way = match meta.iter().position(|&m| m & VALID == 0) {
            Some(w) => w,
            None => self
                .order
                .get(base..end)
                .and_then(|o| o.last())
                .map_or(0, |&w| w as usize),
        };
        let i = base.wrapping_add(way);
        let victim = self.entry(set, way);
        if let Some(t) = self.tags.get_mut(i) {
            *t = tag;
        }
        if let Some(m) = self.meta.get_mut(i) {
            *m = VALID | if write { DIRTY } else { 0 } | if is_instr { INSTR } else { 0 };
        }
        if let Some(fp) = self.footprints.get_mut(i) {
            *fp = span;
        }
        if let Some(p) = self.pos_seen.get_mut(i) {
            *p = 0;
        }
        if let Some(p) = self.pos_change.get_mut(i) {
            *p = 0;
        }
        if let Some(order) = self.order.get_mut(base..end) {
            if let Some(pos) = order.iter().position(|&w| w as usize == way) {
                promote_at(order, pos);
            }
        }
        (way, victim)
    }

    /// Re-initializes `(set, way)` for a newly installed line, resetting
    /// footprint and recency bookkeeping exactly like `TagEntry::install`.
    #[inline]
    pub fn install(&mut self, set: SetIndex, way: usize, tag: u64, write: bool, is_instr: bool) {
        let i = self.idx(set, way);
        if let Some(t) = self.tags.get_mut(i) {
            *t = tag;
        }
        if let Some(m) = self.meta.get_mut(i) {
            *m = VALID | if write { DIRTY } else { 0 } | if is_instr { INSTR } else { 0 };
        }
        if let Some(fp) = self.footprints.get_mut(i) {
            *fp = 0;
        }
        if let Some(p) = self.pos_seen.get_mut(i) {
            *p = 0;
        }
        if let Some(p) = self.pos_change.get_mut(i) {
            *p = 0;
        }
    }

    /// Records that `(set, way)` was observed at recency position `pos`
    /// just before promotion (Figure 2 bookkeeping).
    #[inline]
    pub fn observe_position(&mut self, set: SetIndex, way: usize, pos: u8) {
        let i = self.idx(set, way);
        if let Some(p) = self.pos_seen.get_mut(i) {
            *p = (*p).max(pos);
        }
    }

    /// Marks `word` used in `(set, way)`. A newly set bit is a
    /// footprint-change: the current max position is latched (Section 3).
    ///
    /// A byte address is not a word index. This touch compiles:
    ///
    /// ```
    /// use ldis_cache::SetArena;
    /// use ldis_mem::{Addr, LineGeometry, SetIndex};
    ///
    /// let mut arena = SetArena::new(4, 2);
    /// let (set, way) = (SetIndex::new(3), 1);
    /// let addr = Addr::new(0x1238);
    /// arena.install(set, way, 0x2a, false, false);
    /// arena.touch_word(set, way, LineGeometry::default().word_index(addr));
    /// assert_eq!(arena.footprint(set, way).bits(), 1 << 7);
    /// ```
    ///
    /// and its twin, which passes the address itself, does not:
    ///
    /// ```compile_fail,E0308
    /// use ldis_cache::SetArena;
    /// use ldis_mem::{Addr, LineGeometry, SetIndex};
    ///
    /// let mut arena = SetArena::new(4, 2);
    /// let (set, way) = (SetIndex::new(3), 1);
    /// let addr = Addr::new(0x1238);
    /// arena.install(set, way, 0x2a, false, false);
    /// arena.touch_word(set, way, addr);
    /// assert_eq!(arena.footprint(set, way).bits(), 1 << 7);
    /// ```
    #[inline]
    pub fn touch_word(&mut self, set: SetIndex, way: usize, word: WordIndex) {
        let i = self.idx(set, way);
        let Some(fp) = self.footprints.get_mut(i) else {
            return;
        };
        let mask = 1u16 << word.get();
        if *fp & mask == 0 {
            *fp |= mask;
            let seen = self.pos_seen.get(i).copied().unwrap_or(0);
            if let Some(p) = self.pos_change.get_mut(i) {
                *p = seen;
            }
        }
    }

    /// OR-merges an external footprint into `(set, way)`; newly set bits
    /// latch the max position, exactly like `TagEntry::merge_footprint`.
    #[inline]
    pub fn merge_footprint(&mut self, set: SetIndex, way: usize, fp: Footprint) {
        let i = self.idx(set, way);
        let Some(cur) = self.footprints.get_mut(i) else {
            return;
        };
        if *cur & fp.bits() != fp.bits() {
            let seen = self.pos_seen.get(i).copied().unwrap_or(0);
            if let Some(p) = self.pos_change.get_mut(i) {
                *p = seen;
            }
        }
        *cur |= fp.bits();
    }

    /// Sets the dirty bit of `(set, way)` when `write` is true.
    #[inline]
    pub fn or_dirty(&mut self, set: SetIndex, way: usize, write: bool) {
        let i = self.idx(set, way);
        if write {
            if let Some(m) = self.meta.get_mut(i) {
                *m |= DIRTY;
            }
        }
    }

    /// Whether `(set, way)` holds a valid line.
    #[inline]
    pub fn is_valid(&self, set: SetIndex, way: usize) -> bool {
        self.meta
            .get(self.idx(set, way))
            .is_some_and(|&m| m & VALID != 0)
    }

    /// Marks `(set, way)` invalid, leaving the other fields in place (the
    /// same effect as clearing `TagEntry::valid`).
    #[inline]
    pub fn invalidate(&mut self, set: SetIndex, way: usize) {
        let i = self.idx(set, way);
        if let Some(m) = self.meta.get_mut(i) {
            *m &= !VALID;
        }
    }

    /// The footprint of `(set, way)` (empty if out of range).
    #[inline]
    pub fn footprint(&self, set: SetIndex, way: usize) -> Footprint {
        Footprint::from_bits(
            self.footprints
                .get(self.idx(set, way))
                .copied()
                .unwrap_or(0),
        )
    }

    /// Overwrites the footprint of `(set, way)` without touching the
    /// recency bookkeeping — the fault-injection/repair entry point.
    #[inline]
    pub fn set_footprint(&mut self, set: SetIndex, way: usize, fp: Footprint) {
        let i = self.idx(set, way);
        if let Some(cur) = self.footprints.get_mut(i) {
            *cur = fp.bits();
        }
    }

    /// An owned copy of the entry at `(set, way)`, in the classic
    /// [`TagEntry`] shape (an invalid entry if out of range).
    #[inline]
    pub fn entry(&self, set: SetIndex, way: usize) -> TagEntry {
        let i = self.idx(set, way);
        let meta = self.meta.get(i).copied().unwrap_or(0);
        TagEntry {
            valid: meta & VALID != 0,
            dirty: meta & DIRTY != 0,
            is_instr: meta & INSTR != 0,
            tag: self.tags.get(i).copied().unwrap_or(0),
            footprint: self.footprint(set, way),
            max_pos_seen: self.pos_seen.get(i).copied().unwrap_or(0),
            max_pos_at_change: self.pos_change.get(i).copied().unwrap_or(0),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const SET0: SetIndex = SetIndex::new(0);
    const SET1: SetIndex = SetIndex::new(1);

    /// Installs `tag` in `(set, way)` and promotes it to MRU.
    fn installed(arena: &mut SetArena, set: SetIndex, way: usize, tag: u64) {
        arena.install(set, way, tag, false, false);
        arena.promote(set, way);
    }

    /// The recency order of `set` as way indices, MRU first.
    fn order(arena: &SetArena, set: SetIndex) -> Vec<usize> {
        let mut ways: Vec<usize> = (0..arena.ways()).collect();
        ways.sort_by_key(|&w| arena.position_of(set, w));
        ways
    }

    /// Reference model: one cache set as an entry per way plus a true-LRU
    /// stack of way indices (MRU first), the shape the arena flattens.
    struct CacheSet {
        entries: Vec<TagEntry>,
        order: Vec<usize>,
    }

    impl CacheSet {
        fn new(ways: usize) -> Self {
            CacheSet {
                entries: vec![TagEntry::invalid(); ways],
                order: (0..ways).collect(),
            }
        }

        fn find(&self, tag: u64) -> Option<usize> {
            self.entries.iter().position(|e| e.valid && e.tag == tag)
        }

        fn position_of(&self, way: usize) -> u8 {
            let pos = self.order.iter().position(|&w| w == way).unwrap();
            u8::try_from(pos).unwrap()
        }

        fn promote(&mut self, way: usize) -> u8 {
            let pos = self.position_of(way);
            self.order.remove(usize::from(pos));
            self.order.insert(0, way);
            pos
        }

        fn victim_way(&self) -> usize {
            match self.entries.iter().position(|e| !e.valid) {
                Some(way) => way,
                None => *self.order.last().unwrap(),
            }
        }
    }

    #[test]
    fn find_promote_victim_match_cache_set() {
        // Drive the arena and per-set LRU stacks through the same
        // install/promote sequence; every observable must agree.
        let mut arena = SetArena::new(2, 4);
        let mut sets = [CacheSet::new(4), CacheSet::new(4)];
        for step in 0u64..64 {
            let set = SetIndex::new((step % 2) as usize);
            let tag = step % 6;
            let reference = &mut sets[set.get()];
            assert_eq!(arena.find(set, tag), reference.find(tag), "step {step}");
            match reference.find(tag) {
                Some(way) => {
                    assert_eq!(arena.promote(set, way), reference.promote(way));
                }
                None => {
                    let way = reference.victim_way();
                    assert_eq!(arena.victim_way(set), way);
                    reference.entries[way].install(tag, false, false);
                    arena.install(set, way, tag, false, false);
                    assert_eq!(arena.promote(set, way), reference.promote(way));
                }
            }
        }
        for (set, reference) in [SET0, SET1].into_iter().zip(&sets) {
            for way in 0..4 {
                assert_eq!(arena.entry(set, way), reference.entries[way]);
                assert_eq!(
                    arena.position_of(set, way),
                    Some(reference.position_of(way))
                );
            }
        }
    }

    #[test]
    fn empty_set_has_no_matches() {
        let arena = SetArena::new(2, 4);
        assert_eq!(arena.find(SET0, 0), None);
        assert_eq!(arena.find(SET1, 0), None);
        assert_eq!(arena.ways(), 4);
    }

    #[test]
    fn find_locates_valid_tags_only() {
        let mut arena = SetArena::new(2, 4);
        installed(&mut arena, SET1, 0, 10);
        assert_eq!(arena.find(SET1, 10), Some(0));
        assert_eq!(arena.find(SET1, 11), None);
        assert_eq!(arena.find(SET0, 10), None, "sets are independent");
        arena.invalidate(SET1, 0);
        assert_eq!(arena.find(SET1, 10), None);
    }

    #[test]
    fn promote_returns_prior_position_and_moves_to_mru() {
        let mut arena = SetArena::new(2, 4);
        for (w, t) in [(0usize, 10u64), (1, 11), (2, 12), (3, 13)] {
            installed(&mut arena, SET1, w, t);
        }
        // Install order 0,1,2,3 → recency order (MRU..LRU) = 3,2,1,0.
        assert_eq!(order(&arena, SET1), [3, 2, 1, 0]);
        assert_eq!(arena.promote(SET1, 1), 2);
        assert_eq!(order(&arena, SET1), [1, 3, 2, 0]);
        assert_eq!(arena.position_of(SET1, 1), Some(0));
        assert_eq!(arena.position_of(SET1, 0), Some(3));
        assert_eq!(order(&arena, SET0), [0, 1, 2, 3], "other sets untouched");
    }

    #[test]
    fn victim_prefers_invalid_ways() {
        let mut arena = SetArena::new(1, 3);
        installed(&mut arena, SET0, 0, 10);
        installed(&mut arena, SET0, 2, 12);
        assert_eq!(arena.victim_way(SET0), 1);
        installed(&mut arena, SET0, 1, 11);
        // All valid now: LRU is way 0 (installed first).
        assert_eq!(arena.victim_way(SET0), 0);
        // The fused install path picks the same victim.
        let (way, victim) = arena.install_evict(SET0, 13, 0, false, false);
        assert_eq!((way, victim.tag), (0, 10));
    }

    #[test]
    fn recency_order_is_always_a_permutation() {
        let mut arena = SetArena::new(2, 8);
        for i in 0..100u64 {
            let set = SetIndex::new((i % 2) as usize);
            installed(&mut arena, set, (i % 8) as usize, i);
            // Every way holds exactly one recency position.
            let mut positions: Vec<Option<u8>> =
                (0..8).map(|way| arena.position_of(set, way)).collect();
            positions.sort_unstable();
            assert_eq!(positions, (0..8).map(Some).collect::<Vec<_>>());
        }
    }

    #[test]
    fn way_at_position_inverts_position_of() {
        let mut arena = SetArena::new(2, 4);
        for (w, t) in [(0usize, 1u64), (1, 2), (2, 3), (3, 4)] {
            installed(&mut arena, SET1, w, t);
        }
        arena.promote(SET1, 2);
        for set in [SET0, SET1] {
            // `order` reads the way at each position off `position_of`.
            for (pos, way) in order(&arena, set).into_iter().enumerate() {
                assert_eq!(arena.position_of(set, way), u8::try_from(pos).ok());
            }
        }
    }

    #[test]
    #[should_panic(expected = "1..=255")]
    fn rejects_zero_ways() {
        let _ = SetArena::new(1, 0);
    }

    #[test]
    fn touch_and_merge_latch_positions_like_tag_entry() {
        let mut arena = SetArena::new(1, 2);
        let mut reference = TagEntry::invalid();
        arena.install(SET0, 0, 9, false, false);
        reference.install(9, false, false);
        arena.observe_position(SET0, 0, 3);
        reference.observe_position(3);
        arena.touch_word(SET0, 0, WordIndex::new(1));
        reference.touch_word(WordIndex::new(1));
        arena.observe_position(SET0, 0, 5);
        reference.observe_position(5);
        arena.touch_word(SET0, 0, WordIndex::new(1)); // not a change
        reference.touch_word(WordIndex::new(1));
        assert_eq!(arena.entry(SET0, 0), reference);
        arena.merge_footprint(SET0, 0, Footprint::from_bits(0b110));
        reference.merge_footprint(Footprint::from_bits(0b110));
        assert_eq!(arena.entry(SET0, 0), reference);
        assert_eq!(arena.entry(SET0, 0).max_pos_at_change, 5);
    }

    #[test]
    fn dirty_and_invalidate_round_trip() {
        let mut arena = SetArena::new(1, 2);
        arena.install(SET0, 1, 7, false, true);
        assert!(arena.entry(SET0, 1).is_instr);
        arena.or_dirty(SET0, 1, false);
        assert!(!arena.entry(SET0, 1).dirty);
        arena.or_dirty(SET0, 1, true);
        assert!(arena.entry(SET0, 1).dirty);
        assert!(arena.is_valid(SET0, 1));
        arena.invalidate(SET0, 1);
        assert!(!arena.is_valid(SET0, 1));
        assert_eq!(arena.find(SET0, 7), None, "invalid entries never match");
    }

    #[test]
    fn hit_update_matches_the_unfused_call_chain() {
        // Drive two arenas through the same random-ish trace: one via the
        // fused hit path, one via find/promote/observe/touch/or_dirty. Every
        // entry and the recency order must stay identical.
        let mut fused = SetArena::new(2, 4);
        let mut unfused = SetArena::new(2, 4);
        for step in 0u64..200 {
            let set = SetIndex::new((step % 2) as usize);
            let tag = step * 7 % 9;
            let word = WordIndex::new((step % 8) as u8);
            let write = step % 3 == 0;
            let got = fused.hit_update(set, tag, 1u16 << word.get(), write, true);
            match unfused.find(set, tag) {
                Some(way) => {
                    let pos = unfused.promote(set, way);
                    unfused.observe_position(set, way, pos);
                    unfused.touch_word(set, way, word);
                    unfused.or_dirty(set, way, write);
                    assert_eq!(got, Some(way), "step {step}");
                }
                None => {
                    assert_eq!(got, None, "step {step}");
                    let way = unfused.victim_way(set);
                    assert_eq!(fused.victim_way(set), way);
                    unfused.install(set, way, tag, write, false);
                    unfused.promote(set, way);
                    fused.install(set, way, tag, write, false);
                    fused.promote(set, way);
                }
            }
        }
        for set in [SET0, SET1] {
            for way in 0..4 {
                assert_eq!(fused.entry(set, way), unfused.entry(set, way));
                assert_eq!(fused.position_of(set, way), unfused.position_of(set, way));
            }
        }
    }

    #[test]
    fn hit_update_without_latch_skips_recency_bookkeeping() {
        let mut arena = SetArena::new(1, 2);
        arena.install(SET0, 0, 5, false, false);
        arena.install(SET0, 1, 6, false, false);
        arena.promote(SET0, 1); // way 0 now at position 1
        let way = arena.hit_update(SET0, 5, 0b100, true, false);
        assert_eq!(way, Some(0));
        let e = arena.entry(SET0, 0);
        assert_eq!(e.footprint.bits(), 0b100);
        assert!(e.dirty);
        assert_eq!(e.max_pos_seen, 0, "no observe without latch");
        assert_eq!(e.max_pos_at_change, 0, "no latch without latch");
        assert_eq!(
            arena.position_of(SET0, 0),
            Some(0),
            "promotion still happens"
        );
        assert_eq!(arena.hit_update(SET0, 99, 0, false, false), None);
        assert_eq!(
            arena.hit_update(SetIndex::new(7), 5, 0, false, false),
            None,
            "oob set"
        );
    }

    #[test]
    fn touch_mru_is_a_latch_free_hit_on_the_mru_way() {
        let mut touched = SetArena::new(2, 2);
        touched.install(SET1, 0, 5, false, false);
        touched.install(SET1, 1, 6, false, false);
        touched.promote(SET1, 1);
        let mut hit = touched.clone();
        touched.touch_mru(SET1.get() * 2 + 1, 0b110, true);
        assert_eq!(hit.hit_update(SET1, 6, 0b110, true, false), Some(1));
        for way in 0..2 {
            assert_eq!(touched.entry(SET1, way), hit.entry(SET1, way));
            assert_eq!(touched.position_of(SET1, way), hit.position_of(SET1, way));
        }
        touched.touch_mru(4, 0b1, true); // out of range: ignored
    }

    #[test]
    fn out_of_range_coordinates_are_inert() {
        let mut arena = SetArena::new(2, 2);
        assert_eq!(arena.find(SetIndex::new(5), 0), None);
        assert_eq!(arena.position_of(SetIndex::new(5), 0), None);
        assert_eq!(arena.promote(SetIndex::new(5), 0), 0);
        assert_eq!(arena.victim_way(SetIndex::new(5)), 0);
        arena.install(SetIndex::new(5), 0, 1, true, true); // must not panic
        arena.touch_word(SetIndex::new(5), 0, WordIndex::new(0));
        assert!(!arena.entry(SetIndex::new(5), 0).valid);
    }

    #[test]
    fn set_footprint_bypasses_recency_latch() {
        let mut arena = SetArena::new(1, 1);
        arena.install(SET0, 0, 1, false, false);
        arena.observe_position(SET0, 0, 7);
        arena.set_footprint(SET0, 0, Footprint::full(8));
        let e = arena.entry(SET0, 0);
        assert_eq!(e.footprint.used_words(), 8);
        assert_eq!(e.max_pos_at_change, 0, "repair does not latch positions");
    }
}
