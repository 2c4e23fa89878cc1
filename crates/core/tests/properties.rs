//! Property tests for the distill cache's data structures, driven by a
//! deterministic seeded generator (`SimRng`) so every run explores the
//! same cases and failures reproduce exactly.

use ldis_distill::{MedianTracker, Woc, WocReplacement, WordStore};
use ldis_mem::{Footprint, LineAddr, SetIndex, SimRng, WordIndex};

/// WOC structural invariants hold under arbitrary install / invalidate
/// interleavings, for both replacement policies.
#[test]
fn woc_invariants_under_arbitrary_traffic() {
    let mut rng = SimRng::new(0xd0c1);
    for case in 0..60 {
        let replacement = if case % 2 == 0 {
            WocReplacement::RoundRobin
        } else {
            WocReplacement::Random
        };
        let mut woc = Woc::new(4, 2, 8, 99).with_replacement(replacement);
        let mut next_tag = 0u64;
        let ops = 1 + rng.index(299);
        for _ in 0..ops {
            let set = SetIndex::new(rng.index(4));
            let bits = 1 + rng.range(255) as u16;
            let dirty = rng.chance(0.5);
            // Alternate: install a fresh line, or invalidate a previous one.
            if bits.is_multiple_of(3) && next_tag > 0 {
                let victim = (bits as u64) % next_tag;
                let _ = woc.invalidate_line(set, victim);
            } else if woc.lookup(set, next_tag).is_none() {
                woc.install(set, next_tag, Footprint::from_bits(bits), dirty);
                next_tag += 1;
            }
            woc.check_invariants(set)
                .unwrap_or_else(|e| panic!("case {case}: {e}"));
        }
    }
}

/// Whatever the WOC stores for a line is exactly what was installed
/// (until eviction): lookups never invent or lose words.
#[test]
fn woc_lookup_returns_installed_words() {
    let mut rng = SimRng::new(0xd0c2);
    for case in 0..500 {
        let bits = 1 + rng.range(255) as u16;
        let set = SetIndex::new(rng.index(4));
        let mut woc = Woc::new(4, 2, 8, 5);
        let fp = Footprint::from_bits(bits);
        woc.install(set, 42, fp, false);
        let hit = woc.lookup(set, 42).expect("just installed");
        assert_eq!(hit.valid_words, fp, "case {case}");
    }
}

/// Eviction conservation: installs minus invalidations minus evictions
/// equals the number of resident lines.
#[test]
fn woc_line_conservation() {
    let mut rng = SimRng::new(0xd0c3);
    for case in 0..200 {
        let installs = 1 + rng.index(99);
        let mut woc = Woc::new(1, 2, 8, 7);
        let mut evicted = 0usize;
        for tag in 0..installs {
            let bits = 1 + rng.range(255) as u16;
            evicted += woc
                .install(
                    SetIndex::new(0),
                    tag as u64,
                    Footprint::from_bits(bits),
                    false,
                )
                .len();
        }
        let resident = woc.lines_in_set(SetIndex::new(0));
        assert_eq!(resident + evicted, installs, "case {case}");
    }
}

/// The median tracker's threshold is always a value that occurred in
/// (or the initial permissive default above) the observed window.
#[test]
fn median_threshold_in_range() {
    let mut rng = SimRng::new(0xd0c4);
    for case in 0..200 {
        let obs = 1 + rng.index(199);
        let mut mt = MedianTracker::new(8, 16);
        for _ in 0..obs {
            mt.observe(1 + rng.range(8) as u8);
            assert!((1..=8).contains(&mt.threshold()), "case {case}");
        }
    }
}

/// Random WOC replacement is deterministic per seed.
#[test]
fn woc_replacement_deterministic() {
    let run = |seed: u64| {
        let mut woc = Woc::new(2, 1, 8, seed);
        let mut rng = SimRng::new(1);
        let mut evictions = Vec::new();
        for tag in 0..60u64 {
            let bits = ((rng.next_u64() & 0xff) as u16).max(1);
            for ev in woc.install(
                SetIndex::new((tag % 2) as usize),
                tag,
                Footprint::from_bits(bits),
                false,
            ) {
                evictions.push(ev.tag);
            }
        }
        evictions
    };
    let mut seeds = SimRng::new(0xd0c5);
    for case in 0..100 {
        let seed = seeds.next_u64();
        assert_eq!(run(seed), run(seed), "case {case}");
    }
}

/// The WordStore trait object view agrees with the inherent API.
#[test]
fn word_store_trait_matches_inherent() {
    let mut woc = Woc::new(2, 1, 8, 3);
    let fp = Footprint::from_bits(0b101);
    WordStore::install(
        &mut woc,
        SetIndex::new(0),
        7,
        LineAddr::new(7),
        fp,
        true,
        &mut Vec::new(),
    );
    assert!(woc.contains_word(SetIndex::new(0), 7, WordIndex::new(0)));
    let via_trait = WordStore::lookup(&woc, SetIndex::new(0), 7).expect("line was installed");
    assert_eq!(via_trait.valid_words, fp);
    assert!(WordStore::mark_dirty(&mut woc, SetIndex::new(0), 7));
    let ev = WordStore::invalidate_line(&mut woc, SetIndex::new(0), 7).expect("line was installed");
    assert!(ev.dirty);
    assert_eq!(WordStore::occupancy(&woc), 0);
}
