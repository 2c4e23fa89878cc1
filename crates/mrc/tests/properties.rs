//! Property tests for the Mattson profiler, driven by seeded `SimRng`
//! traces: MRC monotonicity, the LRU inclusion property, histogram
//! accounting, and a randomized differential check against the direct
//! `BaselineL2` simulator.

use ldis_cache::{BaselineL2, CacheConfig, L2Outcome, L2Request, SecondLevel};
use ldis_mem::rng::SimRng;
use ldis_mem::stats::Histogram;
use ldis_mem::{Footprint, LineAddr, LineGeometry, WordIndex};
use ldis_mrc::{MattsonL2, MattsonProfiler};
use std::collections::BTreeSet;

/// One random L2-level event: a demand access or an L1D eviction
/// notification, the two entry points of the `SecondLevel` trait.
#[derive(Clone, Copy, Debug)]
enum Event {
    Access(L2Request),
    L1dEvict(LineAddr, u16, bool),
}

/// A seeded random event stream with enough locality (small line space,
/// skewed reuse) to exercise hits, evictions, merges and writebacks.
fn trace(seed: u64, len: usize, lines: u64) -> Vec<Event> {
    let mut rng = SimRng::new(seed);
    let mut recent: Vec<LineAddr> = Vec::new();
    (0..len)
        .map(|_| {
            let line = if !recent.is_empty() && rng.chance(0.6) {
                *rng.choose(&recent)
            } else {
                LineAddr::new(rng.range(lines))
            };
            recent.push(line);
            if recent.len() > 24 {
                recent.remove(0);
            }
            if rng.chance(0.15) {
                Event::L1dEvict(line, (rng.next_u64() & 0xff) as u16, rng.chance(0.5))
            } else {
                let req = L2Request {
                    line,
                    word: WordIndex::new(rng.range(8) as u8),
                    write: rng.chance(0.3),
                    is_instr: rng.chance(0.2),
                    pc: ldis_mem::Addr::new(rng.range(1 << 20) * 4),
                };
                Event::Access(req)
            }
        })
        .collect()
}

/// Applies one event to a `SecondLevel`, returning the access outcome.
fn apply<L2: SecondLevel>(l2: &mut L2, ev: Event) -> Option<L2Outcome> {
    match ev {
        Event::Access(req) => Some(l2.access(req).outcome),
        Event::L1dEvict(line, bits, dirty) => {
            l2.on_l1d_evict(line, Footprint::from_bits(bits), dirty);
            None
        }
    }
}

fn drive<L2: SecondLevel>(l2: &mut L2, events: &[Event]) {
    for &ev in events {
        apply(l2, ev);
    }
}

#[test]
fn misses_are_non_increasing_in_associativity_and_size() {
    let g = LineGeometry::default();
    // 4..64 kB at fixed 16 sets (associativity axis) plus growing set
    // counts at fixed 4 ways (size axis).
    let configs: Vec<CacheConfig> = [1u32, 2, 4, 8]
        .iter()
        .map(|&w| CacheConfig::with_sets(16, w, g))
        .chain(
            [16u64, 32, 64]
                .iter()
                .map(|&s| CacheConfig::with_sets(s, 4, g)),
        )
        .collect();
    for seed in 0..8u64 {
        let mut l2 = MattsonL2::for_configs(&configs);
        drive(&mut l2, &trace(0xA5EED ^ seed, 20_000, 4_000));
        let miss = |c: &CacheConfig| {
            l2.result_for(c)
                .unwrap_or_else(|| panic!("config {c:?} profiled"))
                .line_misses
        };
        for pair in configs[..4].windows(2) {
            assert!(
                miss(&pair[0]) >= miss(&pair[1]),
                "seed {seed}: misses increased from {} ways to {} ways",
                pair[0].ways(),
                pair[1].ways()
            );
        }
        for pair in configs[4..].windows(2) {
            assert!(
                miss(&pair[0]) >= miss(&pair[1]),
                "seed {seed}: misses increased from {} to {} sets",
                pair[0].num_sets(),
                pair[1].num_sets()
            );
        }
    }
}

#[test]
fn lru_stacks_satisfy_the_inclusion_property() {
    // An A-way cache's contents must be a subset of the (A+k)-way
    // cache's contents at every point; checking at the end of several
    // seeded traces (with interior churn) covers the interesting states.
    for seed in 0..8u64 {
        let mut p = MattsonProfiler::new(8, &[1, 2, 4, 8], 8);
        let mut rng = SimRng::new(0x1AC1 ^ seed);
        let mut seen = BTreeSet::new();
        for _ in 0..5_000 {
            let line = LineAddr::new(rng.range(600));
            let first = seen.insert(line);
            p.record(
                line,
                Some(WordIndex::new(rng.range(8) as u8)),
                rng.chance(0.3),
                false,
                first,
            );
        }
        let mut prev: Option<BTreeSet<LineAddr>> = None;
        for ways in [1u32, 2, 4, 8] {
            let resident: BTreeSet<LineAddr> = p.resident_lines(ways).into_iter().collect();
            if let Some(smaller) = &prev {
                assert!(
                    smaller.is_subset(&resident),
                    "seed {seed}: {}-way contents not included in {ways}-way",
                    smaller.len()
                );
            }
            prev = Some(resident);
        }
    }
}

#[test]
fn distance_histogram_and_miss_classes_partition_the_accesses() {
    for seed in 0..8u64 {
        let mut p = MattsonProfiler::new(4, &[2, 6], 8);
        let mut rng = SimRng::new(0xC0DE ^ seed);
        let mut seen = BTreeSet::new();
        for _ in 0..10_000 {
            let line = LineAddr::new(rng.range(200));
            let first = seen.insert(line);
            p.record(line, Some(WordIndex::new(0)), false, false, first);
        }
        assert_eq!(
            p.distance_histogram().total() + p.beyond() + p.compulsory(),
            p.accesses(),
            "seed {seed}: every access is a profiled reuse, a deep reuse, \
             or a first touch"
        );
        assert_eq!(p.compulsory() as usize, seen.len(), "seed {seed}");
        // hits + misses == accesses at every profiled associativity.
        for ways in [2u32, 6] {
            assert_eq!(p.hits_at(ways) + p.misses_at(ways), p.accesses());
        }
    }
}

/// The configuration shapes of the differential tests.
///
/// The second is the shape of the 0.75 MB and 1.5 MB configurations: an
/// unsorted tier list with a duplicate and non-power-of-two
/// associativities, and 12 ways at two set counts. Its primary
/// configuration sits at the larger set count, so the primary profiler
/// is not the first one.
fn differential_shapes() -> [Vec<CacheConfig>; 2] {
    let g = LineGeometry::default();
    let shape = |pairs: &[(u64, u32)]| {
        pairs
            .iter()
            .map(|&(sets, ways)| CacheConfig::with_sets(sets, ways, g))
            .collect()
    };
    [
        shape(&[(16, 1), (16, 2), (16, 8), (64, 4)]),
        shape(&[(32, 12), (16, 12), (16, 3), (16, 8), (16, 8), (16, 5)]),
    ]
}

/// The words-used histogram of a direct cache's evicted *and* resident
/// data lines — the `run_baseline_with_words` measurement of Table 6.
fn words_with_resident(direct: &BaselineL2) -> Histogram {
    let mut words = direct.stats().words_used_at_evict.clone();
    for (_, entry) in direct.cache().iter_lines() {
        if !entry.is_instr {
            words.record(entry.footprint.used_words() as usize);
        }
    }
    words
}

/// Asserts that `mattson`'s reconstruction of `cfg` equals the direct
/// simulation `direct` of the same events: every `L2Stats` counter the
/// profiler reconstructs, the words-used histograms with and without
/// resident lines, and the set of resident lines.
fn assert_same_as_direct(mattson: &MattsonL2, cfg: &CacheConfig, direct: &BaselineL2, ctx: &str) {
    let ctx = format!("{ctx}, {} sets x {} ways", cfg.num_sets(), cfg.ways());
    let got = mattson
        .result_for(cfg)
        .unwrap_or_else(|| panic!("{ctx}: not profiled"));
    let want = direct.stats();
    assert_eq!(got.accesses, want.accesses, "{ctx}: accesses");
    assert_eq!(got.line_misses, want.line_misses, "{ctx}: misses");
    assert_eq!(got.hits, want.loc_hits, "{ctx}: hits");
    assert_eq!(
        got.compulsory_misses, want.compulsory_misses,
        "{ctx}: compulsory"
    );
    assert_eq!(got.evictions, want.evictions, "{ctx}: evictions");
    assert_eq!(got.writebacks, want.writebacks, "{ctx}: writebacks");
    assert_eq!(
        got.words_used_at_evict, want.words_used_at_evict,
        "{ctx}: words-used histogram"
    );
    assert_eq!(
        got.words_used_with_resident,
        words_with_resident(direct),
        "{ctx}: words-used histogram with resident lines"
    );
    let profiler = mattson
        .profilers()
        .iter()
        .find(|p| p.covers(cfg))
        .unwrap_or_else(|| panic!("{ctx}: no profiler"));
    let resident: BTreeSet<LineAddr> = profiler.resident_lines(cfg.ways()).into_iter().collect();
    let direct_resident: BTreeSet<LineAddr> =
        direct.cache().iter_lines().map(|(line, _)| line).collect();
    assert_eq!(resident, direct_resident, "{ctx}: resident lines");
}

/// The core differential property: a `MattsonL2` profiling several
/// configurations at once reproduces, for each of them, the *entire*
/// statistics block a dedicated `BaselineL2` produces on the same event
/// stream — misses, compulsory classification, evictions, writebacks,
/// the words-used histograms (with and without the resident lines) and
/// the resident lines themselves, bit for bit. Every access also returns
/// the primary configuration's outcome, checked at every step.
#[test]
fn profiler_matches_direct_simulation_on_random_traces() {
    for (shape, configs) in differential_shapes().iter().enumerate() {
        for seed in 0..12u64 {
            let events = trace(0xD1FF ^ (seed * 7919), 30_000, 2_500);
            let mut mattson = MattsonL2::for_configs(configs);
            let mut direct: Vec<BaselineL2> = configs.iter().map(|c| BaselineL2::new(*c)).collect();
            for (step, &ev) in events.iter().enumerate() {
                let got = apply(&mut mattson, ev);
                let want: Vec<_> = direct.iter_mut().map(|d| apply(d, ev)).collect();
                assert_eq!(
                    Some(&got),
                    want.first(),
                    "shape {shape}, seed {seed}, step {step}: primary outcome"
                );
            }
            for (cfg, d) in configs.iter().zip(&direct) {
                assert_same_as_direct(&mattson, cfg, d, &format!("shape {shape}, seed {seed}"));
            }
        }
    }
}

/// A `MattsonL2` that sees only L1D evictions, or no calls at all, never
/// records an access: its stack arrays stay unallocated, and it must
/// still match the direct caches (every dirty evict is a memory
/// writeback, nothing is resident).
#[test]
fn profiler_without_accesses_matches_direct_simulation() {
    for (shape, configs) in differential_shapes().iter().enumerate() {
        let evicts: Vec<Event> = trace(0xE71C7 ^ shape as u64, 4_000, 500)
            .into_iter()
            .filter(|ev| matches!(ev, Event::L1dEvict(..)))
            .collect();
        assert!(!evicts.is_empty());
        for (label, events) in [("no calls", &[][..]), ("evicts only", &evicts[..])] {
            let mut mattson = MattsonL2::for_configs(configs);
            drive(&mut mattson, events);
            for cfg in configs {
                let mut direct = BaselineL2::new(*cfg);
                drive(&mut direct, events);
                assert_same_as_direct(&mattson, cfg, &direct, &format!("shape {shape}, {label}"));
            }
        }
    }
}

/// Warmup-reset differential: resetting stats mid-stream (the
/// `TraceLength::warmup` path of the experiment runner) must leave the
/// profiler and the direct simulator in agreement on the measured tail.
#[test]
fn profiler_matches_direct_simulation_across_a_stats_reset() {
    let g = LineGeometry::default();
    let configs = [
        CacheConfig::with_sets(16, 2, g),
        CacheConfig::with_sets(16, 4, g),
    ];
    for seed in 0..6u64 {
        let events = trace(0x3E5E7 ^ seed, 24_000, 2_000);
        let (warm, measured) = events.split_at(events.len() / 3);
        let mut mattson = MattsonL2::for_configs(&configs);
        drive(&mut mattson, warm);
        mattson.reset_stats();
        drive(&mut mattson, measured);
        for cfg in &configs {
            let mut direct = BaselineL2::new(*cfg);
            drive(&mut direct, warm);
            direct.reset_stats();
            drive(&mut direct, measured);
            assert_same_as_direct(&mattson, cfg, &direct, &format!("seed {seed}"));
        }
    }
}
