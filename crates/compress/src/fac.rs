//! Footprint-Aware Compression (FAC, Section 8.2).
//!
//! FAC composes the two capacity techniques: line distillation picks the
//! *used* words, and compression then squeezes those words into fewer WOC
//! slots. The footprint needed for distillation is exactly the information
//! that lets the compressor skip dead words — which is why the combination
//! beats either technique alone (Figure 11).
//!
//! Implementation: a [`CompressedWoc`] is the distill cache's own
//! [`Woc`] plus a slot-sizing rule. It sizes each line from its
//! compressed used words and stores it as a shorter run
//! ([`Woc::install_run`]), so placement, eviction and lookup are the WOC's.
//! It implements [`WordStore`], so the full [`DistillCache`] machinery
//! (LOC, median threshold, reverter) is reused unchanged.

use crate::ValueSizeModel;
use ldis_distill::{
    DistillCache, DistillConfig, LdisError, Woc, WocEviction, WocLineHit, WordStore,
};
use ldis_mem::{Footprint, LineAddr};

/// A FAC distill cache: a [`DistillCache`] whose WOC stores compressed
/// used words.
pub type FacCache = DistillCache<CompressedWoc>;

/// Bytes one WOC slot holds: one 8 B word.
const SLOT_BYTES: u32 = 8;

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

/// A word-organized store that keeps each line's used words *compressed*:
/// a line occupies `ceil(compressed_bytes / 8)` slots (rounded up to a
/// power of two, capped at the uncompressed slot count), but all its used
/// words remain addressable — compression shrinks occupancy, not
/// coverage.
///
/// Placement and replacement are the uncompressed [`Woc`]'s: aligned
/// runs, head bits and random replacement. It has no fault model.
#[derive(Clone, Debug)]
pub struct CompressedWoc {
    model: ValueSizeModel,
    woc: Woc,
}

impl CompressedWoc {
    /// Creates an empty compressed WOC.
    pub fn new(
        num_sets: u64,
        ways: u32,
        words_per_line: u8,
        seed: u64,
        model: ValueSizeModel,
    ) -> Self {
        CompressedWoc {
            model,
            woc: Woc::new(num_sets, ways, words_per_line, seed),
        }
    }

    /// Slots a line occupies after compressing its used words.
    pub fn slots_for(&self, line: LineAddr, words: Footprint) -> usize {
        let uncompressed = words.woc_slots() as usize;
        let bytes = self.model.compressed_bytes(line, Some(words));
        let slots = bytes.div_ceil(SLOT_BYTES).max(1) as usize;
        slots.next_power_of_two().min(uncompressed.max(1))
    }

    /// Checks structural invariants of one set (tests and property checks).
    pub fn check_invariants(&self, set: usize) -> Result<(), LdisError> {
        self.woc.check_invariants(set)
    }
}

impl WordStore for CompressedWoc {
    fn lookup(&self, set: usize, tag: u64) -> Option<WocLineHit> {
        self.woc.lookup(set, tag)
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
        let entries = self.slots_for(line, words);
        self.woc
            .install_run(set, tag, words, entries, dirty, evicted);
    }

    fn invalidate_line(&mut self, set: usize, tag: u64) -> Option<WocEviction> {
        self.woc.invalidate_line(set, tag)
    }

    fn mark_dirty(&mut self, set: usize, tag: u64) -> bool {
        self.woc.mark_dirty(set, tag)
    }

    fn occupancy(&self) -> u64 {
        self.woc.occupancy()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ldis_mem::{LineGeometry, SimRng};
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
