//! Property tests for the workload generators, driven by a deterministic
//! seeded generator (`SimRng`) so every run explores the same cases and
//! failures reproduce exactly.

use ldis_mem::{AccessKind, SimRng, TraceSource};
use ldis_workloads::{
    cache_insensitive, memory_intensive, HotSet, PointerChase, SequentialScan, Stream, TraceLength,
    WordsProfile, Workload,
};

/// Every workload is deterministic per seed and produces word-aligned
/// accesses with positive instruction gaps.
#[test]
fn workloads_are_deterministic_and_well_formed() {
    let mut rng = SimRng::new(0x3011);
    for case in 0..16 {
        let seed = rng.next_u64();
        let bench = memory_intensive()[case % 16];
        let t1 = (bench.make)(seed).record(400);
        let t2 = (bench.make)(seed).record(400);
        assert_eq!(t1.accesses(), t2.accesses(), "case {case}");
        for a in t1.accesses() {
            if a.kind != AccessKind::InstrFetch {
                assert_eq!(
                    a.addr.raw() % 8,
                    0,
                    "case {case}: {} misaligned",
                    bench.name
                );
            }
            assert!(a.insts >= 1, "case {case}");
            assert!(a.size >= 1 && a.size <= 8, "case {case}");
        }
    }
}

/// Streams never leave their declared regions.
#[test]
fn streams_stay_in_their_regions() {
    let mut rng = SimRng::new(0x3012);
    for case in 0..20 {
        let base = rng.range(1_000_000);
        let lines = 1 + rng.range(4_999);
        let mut w = Workload::builder("bounded", 3)
            .stream(1.0, HotSet::new(base, lines, WordsProfile::mixed(), 1))
            .build();
        for _ in 0..500 {
            let a = w.next_access().expect("workload streams are endless");
            let line = a.addr.raw() / 64;
            assert!((base..base + lines).contains(&line), "case {case}");
        }
    }
}

/// The successor-array chase that `PointerChase` walks as an order:
/// `successor[node]` is the node after `node` in the shuffled cyclic
/// order, and the visits follow it from node 0.
fn reference_chase(nodes: u64, seed: u64) -> impl Iterator<Item = u64> {
    let mut perm: Vec<u32> = (0..nodes as u32).collect();
    let mut rng = SimRng::new(seed ^ ldis_mem::rng::POINTER_CHASE);
    for i in (1..perm.len()).rev() {
        perm.swap(i, rng.index(i + 1));
    }
    let mut successor = vec![0u32; perm.len()];
    for (i, &node) in perm.iter().enumerate() {
        successor[node as usize] = perm[(i + 1) % perm.len()];
    }
    let mut cur = 0u32;
    std::iter::repeat_with(move || {
        cur = successor[cur as usize];
        u64::from(cur)
    })
}

/// A pointer chase visits all nodes before repeating any (single cycle),
/// regardless of seed, and for two full cycles visits exactly what the
/// successor-array reference does.
#[test]
fn chase_is_a_permutation_cycle() {
    let mut meta = SimRng::new(0x3013);
    let mut cases: Vec<(u64, u64)> = (0..30)
        .map(|_| {
            let seed = meta.next_u64();
            (seed, 2 + meta.range(254))
        })
        .collect();
    cases.extend([1, 2, 3].map(|nodes| (meta.next_u64(), nodes)));
    for (case, &(seed, nodes)) in cases.iter().enumerate() {
        let mut chase = PointerChase::new(0, nodes, WordsProfile::exactly(1), 0, seed);
        let mut rng = SimRng::new(1);
        let visits: Vec<u64> = (0..2 * nodes)
            .map(|_| chase.next_visit(&mut rng).line.raw())
            .collect();
        let want: Vec<u64> = reference_chase(nodes, seed)
            .take(2 * nodes as usize)
            .collect();
        assert_eq!(visits, want, "case {case}: {nodes} nodes");
        let (first, second) = visits.split_at(nodes as usize);
        let seen: std::collections::BTreeSet<u64> = first.iter().copied().collect();
        assert_eq!(seen.len() as u64, nodes, "case {case}");
        assert_eq!(
            first, second,
            "case {case}: the second cycle repeats the first"
        );
    }
}

/// Sampled words-used average tracks the profile's analytic mean for
/// any valid weight vector.
#[test]
fn profile_mean_matches_samples() {
    let mut rng = SimRng::new(0x3014);
    for case in 0..30 {
        let mut arr = [0.0f64; 8];
        for slot in arr.iter_mut() {
            *slot = rng.f64() * 10.0;
        }
        if arr.iter().sum::<f64>() <= 0.5 {
            continue;
        }
        let profile = WordsProfile::new(arr);
        let n = 4000u64;
        let sum: u64 = (0..n)
            .map(|i| profile.words_for(ldis_mem::LineAddr::new(i), 1) as u64)
            .sum();
        let sampled = sum as f64 / n as f64;
        assert!(
            (sampled - profile.mean()).abs() < 0.25,
            "case {case}: sampled {sampled} vs analytic {}",
            profile.mean()
        );
    }
}

/// Wrapping scans repeat with a period of exactly `lines` visits.
#[test]
fn scan_period_is_lines() {
    let mut meta = SimRng::new(0x3015);
    for case in 0..30 {
        let lines = 1 + meta.range(499);
        let mut s = SequentialScan::new(7, lines, WordsProfile::exactly(1), 0, true);
        let mut rng = SimRng::new(1);
        let first: Vec<u64> = (0..lines)
            .map(|_| s.next_visit(&mut rng).line.raw())
            .collect();
        let second: Vec<u64> = (0..lines)
            .map(|_| s.next_visit(&mut rng).line.raw())
            .collect();
        assert_eq!(first, second, "case {case}");
    }
}

/// Every model in both suites keeps generating indefinitely (no stream
/// runs dry or panics deep into a run).
#[test]
fn all_models_generate_long_runs() {
    for b in memory_intensive().into_iter().chain(cache_insensitive()) {
        let mut w = (b.make)(99);
        for i in 0..20_000 {
            assert!(w.next_access().is_some(), "{} dried up at {i}", b.name);
        }
    }
}

/// `TraceLength::instructions` runs at least that many instructions.
#[test]
fn instruction_budget_is_met() {
    use ldis_cache::{BaselineL2, CacheConfig, Hierarchy};
    let l2 = BaselineL2::new(CacheConfig::new(1 << 20, 8, Default::default()));
    let mut hier = Hierarchy::hpca2007(l2);
    let w = memory_intensive()[5].make;
    w(1).drive(&mut hier, TraceLength::instructions(100_000));
    assert!(hier.stats().instructions >= 100_000);
}
