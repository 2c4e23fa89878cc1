//! Footprint-Aware Compression (FAC, Section 8.2).
//!
//! FAC composes the two capacity techniques: line distillation picks the
//! *used* words, and compression then squeezes those words into fewer WOC
//! slots. The footprint needed for distillation is exactly the information
//! that lets the compressor skip dead words — which is why the combination
//! beats either technique alone (Figure 11).
//!
//! Implementation: a [`CompressedWoc`] implements
//! [`WordStore`](ldis_distill::WordStore), so the full
//! [`DistillCache`](ldis_distill::DistillCache) machinery (LOC, median
//! threshold, reverter) is reused unchanged.

use crate::ValueSizeModel;
use ldis_distill::{DistillCache, DistillConfig, WocEviction, WocLineHit, WordStore};
use ldis_mem::{Footprint, LineAddr, SimRng};

/// A FAC distill cache: a [`DistillCache`] whose WOC stores compressed
/// used words.
pub type FacCache = DistillCache<CompressedWoc>;

/// Builds the paper's FAC-4xTags configuration: a distill cache with three
/// of eight ways devoted to a compressed WOC, median-threshold filtering
/// and the reverter circuit, sized by the benchmark's value model.
pub fn fac_4x_tags(model: ValueSizeModel) -> FacCache {
    let cfg = DistillConfig::hpca2007_default().with_woc_ways(3);
    fac_cache(cfg, model)
}

/// Builds a FAC cache from an arbitrary distill configuration.
pub fn fac_cache(cfg: DistillConfig, model: ValueSizeModel) -> FacCache {
    let woc = CompressedWoc::new(
        cfg.num_sets(),
        cfg.woc_ways(),
        cfg.geometry().words_per_line(),
        cfg.seed() ^ 0xfac,
        model,
    );
    let mut cache = DistillCache::with_word_store(cfg, woc);
    cache.set_label(format!("FAC-{}w", cache.config().woc_ways()));
    cache
}

#[derive(Clone, Copy, Debug, Default)]
struct FacEntry {
    valid: bool,
    dirty: bool,
    head: bool,
    tag: u64,
    /// The full set of stored (compressed) words; meaningful at the head.
    words: Footprint,
}

/// A word-organized store that keeps each line's used words *compressed*:
/// a line occupies `ceil(compressed_bytes / word_bytes)` slots (rounded up
/// to a power of two, capped at the uncompressed slot count), but all its
/// used words remain addressable — compression shrinks occupancy, not
/// coverage.
///
/// Placement and replacement follow the same aligned/head-bit/random rules
/// as the uncompressed [`Woc`](ldis_distill::Woc).
#[derive(Clone, Debug)]
pub struct CompressedWoc {
    ways: usize,
    words_per_line: usize,
    num_sets: usize,
    entries: Vec<FacEntry>,
    rng: SimRng,
    model: ValueSizeModel,
    word_bytes: u32,
}

impl CompressedWoc {
    /// Creates an empty compressed WOC.
    #[expect(
        clippy::cast_possible_truncation,
        reason = "the set count sizes in-memory arrays, so it fits usize"
    )]
    pub fn new(
        num_sets: u64,
        ways: u32,
        words_per_line: u8,
        seed: u64,
        model: ValueSizeModel,
    ) -> Self {
        assert!(ways >= 1, "WOC needs at least one way");
        CompressedWoc {
            ways: ways as usize,
            words_per_line: words_per_line as usize,
            num_sets: num_sets as usize,
            entries: vec![
                FacEntry::default();
                num_sets as usize * ways as usize * words_per_line as usize
            ],
            rng: SimRng::new(seed),
            word_bytes: 8,
            model,
        }
    }

    /// Slots a line occupies after compressing its used words.
    pub fn slots_for(&self, line: LineAddr, words: Footprint) -> usize {
        let uncompressed = words.woc_slots() as usize;
        let bytes = self.model.compressed_bytes(line, Some(words));
        let slots = bytes.div_ceil(self.word_bytes).max(1) as usize;
        slots.next_power_of_two().min(uncompressed.max(1))
    }

    fn set_base(&self, set: usize) -> usize {
        debug_assert!(set < self.num_sets);
        set * self.ways.saturating_mul(self.words_per_line)
    }

    fn way_slice(&self, set: usize, way: usize) -> &[FacEntry] {
        let base = self.set_base(set) + way * self.words_per_line;
        self.entries
            .get(base..base + self.words_per_line)
            .unwrap_or_default()
    }

    fn way_slice_mut(&mut self, set: usize, way: usize) -> &mut [FacEntry] {
        let base = self.set_base(set) + way * self.words_per_line;
        self.entries
            .get_mut(base..base + self.words_per_line)
            .unwrap_or_default()
    }

    /// All `ways * words_per_line` entries of one set.
    fn set_slice_mut(&mut self, set: usize) -> &mut [FacEntry] {
        let base = self.set_base(set);
        let len = self.ways.saturating_mul(self.words_per_line);
        self.entries.get_mut(base..base + len).unwrap_or_default()
    }

    fn choose_position(&mut self, set: usize, slots: usize) -> (usize, usize) {
        let mut free = Vec::new();
        let mut eligible = Vec::new();
        for way in 0..self.ways {
            let entries = self.way_slice(set, way);
            for offset in (0..self.words_per_line).step_by(slots) {
                let Some(first) = entries.get(offset) else {
                    continue;
                };
                if !first.valid || first.head {
                    eligible.push((way, offset));
                    let window_free = entries
                        .get(offset..offset + slots)
                        .is_some_and(|w| w.iter().all(|e| !e.valid));
                    if window_free {
                        free.push((way, offset));
                    }
                }
            }
        }
        // `index(len) < len`, so the lookups cannot miss on non-empty lists.
        if !free.is_empty() {
            let i = self.rng.index(free.len());
            if let Some(&pos) = free.get(i) {
                return pos;
            }
        }
        assert!(!eligible.is_empty(), "alignment guarantees a candidate");
        let i = self.rng.index(eligible.len());
        eligible.get(i).copied().unwrap_or((0, 0))
    }

    fn evict_range(
        &mut self,
        set: usize,
        way: usize,
        offset: usize,
        slots: usize,
    ) -> Vec<WocEviction> {
        let words_per_line = self.words_per_line;
        let entries = self.way_slice_mut(set, way);
        debug_assert!(
            offset == 0 || !entries.get(offset).is_some_and(|e| e.valid && !e.head),
            "chosen offset must not split a line"
        );
        let mut evictions: Vec<WocEviction> = Vec::new();
        let mut i = offset;
        while i < words_per_line {
            let Some(e) = entries.get(i).copied() else {
                break;
            };
            if !e.valid {
                if i >= offset + slots {
                    break;
                }
                i += 1;
                continue;
            }
            if e.head {
                if i >= offset + slots {
                    break;
                }
                evictions.push(WocEviction {
                    tag: e.tag,
                    words: e.words,
                    dirty: e.dirty,
                });
            } else {
                // Well-formed ways open with a head; corrupted metadata can
                // present a headless body entry. Open a fresh record for it
                // so the debris is still cleared and its dirtiness kept.
                match evictions.last_mut() {
                    Some(ev) => {
                        debug_assert_eq!(ev.tag, e.tag);
                        ev.dirty |= e.dirty;
                    }
                    None => evictions.push(WocEviction {
                        tag: e.tag,
                        words: e.words,
                        dirty: e.dirty,
                    }),
                }
            }
            if let Some(slot) = entries.get_mut(i) {
                *slot = FacEntry::default();
            }
            i += 1;
        }
        evictions
    }

    /// Checks structural invariants of one set (tests and property checks).
    pub fn check_invariants(&self, set: usize) -> Result<(), String> {
        for way in 0..self.ways {
            let entries = self.way_slice(set, way);
            let mut i = 0;
            while let Some(e) = entries.get(i) {
                if !e.valid {
                    i += 1;
                    continue;
                }
                if !e.head {
                    return Err(format!("way {way} slot {i}: valid entry without head"));
                }
                let tag = e.tag;
                let start = i;
                i += 1;
                while let Some(next) = entries.get(i).filter(|e| e.valid && !e.head) {
                    if next.tag != tag {
                        return Err(format!("way {way} slot {i}: tag mismatch"));
                    }
                    i += 1;
                }
                let len = i - start;
                if start % len.next_power_of_two() != 0 {
                    return Err(format!("way {way}: misaligned line at {start} len {len}"));
                }
            }
        }
        Ok(())
    }
}

impl WordStore for CompressedWoc {
    fn lookup(&self, set: usize, tag: u64) -> Option<WocLineHit> {
        for way in 0..self.ways {
            for e in self.way_slice(set, way) {
                if e.valid && e.head && e.tag == tag {
                    return Some(WocLineHit {
                        valid_words: e.words,
                    });
                }
            }
        }
        None
    }

    fn install(
        &mut self,
        set: usize,
        tag: u64,
        line: LineAddr,
        words: Footprint,
        dirty: bool,
        evicted: &mut Vec<WocEviction>,
    ) {
        assert!(!words.is_empty(), "cannot install an empty footprint");
        debug_assert!(self.lookup(set, tag).is_none(), "already present");
        evicted.clear();
        let slots = self.slots_for(line, words).min(self.words_per_line);
        let (way, offset) = self.choose_position(set, slots);
        evicted.extend(self.evict_range(set, way, offset, slots));
        let entries = self.way_slice_mut(set, way);
        let window = entries.get_mut(offset..offset + slots).unwrap_or_default();
        for (i, slot) in window.iter_mut().enumerate() {
            *slot = FacEntry {
                valid: true,
                dirty,
                head: i == 0,
                tag,
                words: if i == 0 { words } else { Footprint::empty() },
            };
        }
    }

    fn invalidate_line(&mut self, set: usize, tag: u64) -> Option<WocEviction> {
        let mut record: Option<WocEviction> = None;
        for e in self.set_slice_mut(set) {
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

    fn mark_dirty(&mut self, set: usize, tag: u64) -> bool {
        let mut found = false;
        for e in self.set_slice_mut(set) {
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

#[cfg(test)]
mod tests {
    use super::*;
    use ldis_mem::LineGeometry;
    use ldis_workloads::ValueProfile;

    fn zero_model() -> ValueSizeModel {
        ValueSizeModel::new(ValueProfile::new(1.0, 0.0, 0.0), LineGeometry::default(), 1)
    }

    fn incompressible_model() -> ValueSizeModel {
        ValueSizeModel::new(ValueProfile::new(0.0, 0.0, 0.0), LineGeometry::default(), 1)
    }

    fn woc(model: ValueSizeModel) -> CompressedWoc {
        CompressedWoc::new(4, 1, 8, 9, model)
    }

    /// Test shim over the out-parameter [`WordStore::install`].
    fn install(
        w: &mut CompressedWoc,
        set: usize,
        tag: u64,
        line: LineAddr,
        words: Footprint,
        dirty: bool,
    ) -> Vec<WocEviction> {
        let mut evicted = Vec::new();
        w.install(set, tag, line, words, dirty, &mut evicted);
        evicted
    }

    #[test]
    fn compressible_words_take_fewer_slots() {
        let w = woc(zero_model());
        // 8 zero words = 16 zero chunks = 32 bits = 4 B → 1 slot.
        assert_eq!(w.slots_for(LineAddr::new(0), Footprint::full(8)), 1);
        let wi = woc(incompressible_model());
        // 8 incompressible words: 68 B → 16 slots capped at 8.
        assert_eq!(wi.slots_for(LineAddr::new(0), Footprint::full(8)), 8);
        // 3 incompressible words: ~25.5 B → 4 slots (same as uncompressed).
        assert_eq!(
            wi.slots_for(LineAddr::new(0), Footprint::from_bits(0b111)),
            4
        );
    }

    #[test]
    fn full_coverage_despite_compression() {
        let mut w = woc(zero_model());
        let fp = Footprint::full(8);
        install(&mut w, 0, 7, LineAddr::new(7), fp, false);
        w.check_invariants(0).unwrap();
        let hit = w.lookup(0, 7).expect("line hit");
        assert_eq!(hit.valid_words, fp, "all words visible though 1 slot used");
        assert_eq!(w.occupancy(), 1);
    }

    #[test]
    fn eight_compressed_full_lines_fit_one_way() {
        let mut w = woc(zero_model());
        for t in 0..8u64 {
            let ev = install(
                &mut w,
                0,
                t,
                LineAddr::new(t * 4),
                Footprint::full(8),
                false,
            );
            assert!(ev.is_empty(), "line {t} should fit without eviction");
            w.check_invariants(0).unwrap();
        }
        assert_eq!(w.occupancy(), 8);
        let ev = install(
            &mut w,
            0,
            99,
            LineAddr::new(99 * 4),
            Footprint::full(8),
            false,
        );
        assert_eq!(ev.len(), 1, "9th line evicts one");
    }

    #[test]
    fn invalidate_returns_words_and_dirty() {
        let mut w = woc(incompressible_model());
        let fp = Footprint::from_bits(0b101);
        install(&mut w, 0, 3, LineAddr::new(3), fp, true);
        let ev = w.invalidate_line(0, 3).expect("present");
        assert_eq!(ev.words, fp);
        assert!(ev.dirty);
        assert!(w.lookup(0, 3).is_none());
    }

    #[test]
    fn fac_cache_builds_and_runs() {
        use ldis_cache::{L2Outcome, L2Request, SecondLevel};
        use ldis_mem::WordIndex;
        let mut fac = fac_4x_tags(zero_model());
        assert_eq!(fac.config().woc_ways(), 3);
        let req = L2Request::data(LineAddr::new(1), WordIndex::new(0), false);
        assert_eq!(fac.access(req).outcome, L2Outcome::LineMiss);
        assert_eq!(fac.access(req).outcome, L2Outcome::LocHit);
        assert!(fac.name().starts_with("FAC"));
    }

    #[test]
    fn stress_invariants_hold() {
        let mut w = CompressedWoc::new(
            8,
            2,
            8,
            77,
            ValueSizeModel::new(ValueProfile::mixed_int(), LineGeometry::default(), 3),
        );
        let mut rng = SimRng::new(5);
        for i in 0..2000u64 {
            let set = rng.index(8);
            let bits = (rng.next_u64() & 0xff) as u16;
            if bits == 0 {
                continue;
            }
            install(
                &mut w,
                set,
                1000 + i,
                LineAddr::new(1000 + i),
                Footprint::from_bits(bits),
                rng.chance(0.3),
            );
            w.check_invariants(set)
                .unwrap_or_else(|e| panic!("iteration {i}: {e}"));
        }
    }
}
