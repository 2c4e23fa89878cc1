//! Property tests for the compression machinery, driven by a
//! deterministic seeded generator (`SimRng`) so every run explores the
//! same cases and failures reproduce exactly.

use ldis_compress::{
    class_of, compressed_bits, compressed_bytes, encoded_bits, CompressedWoc, SizeCategory,
    ValueSizeModel,
};
use ldis_distill::WordStore;
use ldis_mem::{Footprint, LineAddr, LineGeometry, SetIndex, SimRng};
use ldis_workloads::{ValueProfile, WordClass};

/// Every chunk's encoded size is the Table 4 size for its class, and a
/// sequence's size is the sum.
#[test]
fn encoding_is_per_chunk_additive() {
    let mut rng = SimRng::new(0xc0e1);
    for case in 0..300 {
        let len = rng.index(64);
        let values: Vec<u32> = (0..len).map(|_| rng.next_u64() as u32).collect();
        let total: u64 = values.iter().map(|&v| encoded_bits(v)).sum();
        assert_eq!(compressed_bits(&values), total, "case {case}");
        assert_eq!(
            compressed_bytes(&values) as u64,
            total.div_ceil(8),
            "case {case}"
        );
        for &v in &values {
            let bits = encoded_bits(v);
            match class_of(v) {
                WordClass::Zero | WordClass::One => assert_eq!(bits, 2),
                WordClass::Narrow => assert_eq!(bits, 18),
                WordClass::Full => assert_eq!(bits, 34),
            }
        }
    }
}

/// Size categories are monotone in compressed size and exhaustive.
#[test]
fn categories_are_monotone() {
    let mut rng = SimRng::new(0xc0e2);
    for case in 0..500 {
        let c1 = 1 + rng.range(127) as u32;
        let c2 = 1 + rng.range(127) as u32;
        let (lo, hi) = (c1.min(c2), c1.max(c2));
        assert!(
            SizeCategory::of(lo, 64) <= SizeCategory::of(hi, 64),
            "case {case}"
        );
    }
}

/// Compressing a subset of words never costs more than the whole line.
#[test]
fn footprint_subset_never_larger() {
    let m = ValueSizeModel::new(ValueProfile::mixed_int(), LineGeometry::default(), 3);
    let mut rng = SimRng::new(0xc0e3);
    for case in 0..500 {
        let line = rng.range(100_000);
        let bits = 1 + rng.range(255) as u16;
        let subset = m.compressed_bytes(LineAddr::new(line), Some(Footprint::from_bits(bits)));
        let whole = m.compressed_bytes(LineAddr::new(line), None);
        assert!(subset <= whole, "case {case}");
    }
}

/// The compressed WOC's slot count is bounded by the plain WOC's and
/// is always a power of two ≥ 1.
#[test]
fn compressed_slots_bounded() {
    let m = ValueSizeModel::new(ValueProfile::pointer_heavy(), LineGeometry::default(), 3);
    let woc = CompressedWoc::new(1, 1, 8, 1, m);
    let mut rng = SimRng::new(0xc0e4);
    for case in 0..500 {
        let line = rng.range(100_000);
        let bits = 1 + rng.range(255) as u16;
        let fp = Footprint::from_bits(bits);
        let slots = woc.slots_for(LineAddr::new(line), fp);
        assert!(slots >= 1, "case {case}");
        assert!(slots.is_power_of_two(), "case {case}");
        assert!(slots <= fp.woc_slots() as usize, "case {case}");
    }
}

/// CompressedWoc invariants hold under arbitrary installs, and every
/// stored line keeps its full word coverage.
#[test]
fn compressed_woc_invariants() {
    let mut cases = SimRng::new(0xc0e5);
    for case in 0..40 {
        let m = ValueSizeModel::new(ValueProfile::mixed_int(), LineGeometry::default(), 9);
        let mut woc = CompressedWoc::new(2, 2, 8, 17, m);
        let mut rng = SimRng::new(4);
        let installs = 1 + cases.index(149);
        for tag in 0..installs {
            let bits = 1 + cases.range(255) as u16;
            let set = SetIndex::new(rng.index(2));
            let fp = Footprint::from_bits(bits);
            if WordStore::lookup(&woc, set, tag as u64).is_none() {
                WordStore::install(
                    &mut woc,
                    set,
                    tag as u64,
                    LineAddr::new(tag as u64),
                    fp,
                    false,
                    &mut Vec::new(),
                );
                let hit = WordStore::lookup(&woc, set, tag as u64).expect("just installed");
                assert_eq!(hit.valid_words, fp, "case {case}: coverage preserved");
            }
            woc.check_invariants(set)
                .unwrap_or_else(|e| panic!("case {case}: {e}"));
        }
    }
}
