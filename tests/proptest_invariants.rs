//! Property-based invariants across the whole stack, driven by random
//! access sequences from a deterministic seeded generator (`SimRng`) so
//! every run explores the same cases and failures reproduce exactly.

use line_distillation::cache::{
    BaselineL2, CacheConfig, Hierarchy, L2Outcome, L2Request, SecondLevel,
};
use line_distillation::distill::{DistillCache, DistillConfig, ThresholdPolicy};
use line_distillation::mem::{Access, Addr, LineAddr, LineGeometry, SetIndex, SimRng, WordIndex};

/// A small universe keeps sets hot so evictions and WOC traffic happen.
fn random_access(rng: &mut SimRng) -> Access {
    let line = rng.range(4096);
    let word = rng.range(8);
    let addr = Addr::new(line * 64 + word * 8);
    if rng.chance(0.5) {
        Access::store(addr, 8)
    } else {
        Access::load(addr, 8)
    }
}

fn random_sequence(rng: &mut SimRng, max: usize) -> Vec<Access> {
    let len = 1 + rng.index(max - 1);
    (0..len).map(|_| random_access(rng)).collect()
}

/// A tiny distill cache so invariants are stressed quickly.
fn tiny_distill(policy: ThresholdPolicy) -> DistillCache {
    DistillCache::new(
        DistillConfig::new(16 * 4 * 64, 4, 1, LineGeometry::default())
            .with_policy(policy)
            .with_seed(3),
    )
}

/// Outcome accounting holds for any access sequence, and the WOC's
/// structural invariants hold at every step.
#[test]
fn distill_cache_invariants_hold() {
    let mut rng = SimRng::new(0xe2e1);
    for case in 0..40 {
        let accesses = random_sequence(&mut rng, 400);
        let mut dc = tiny_distill(ThresholdPolicy::All);
        let geom = LineGeometry::default();
        for a in &accesses {
            let line = geom.line_addr(a.addr);
            let word = geom.word_index(a.addr);
            let resp = dc.access(L2Request::data(line, word, a.kind.is_write()));
            // The demanded word is always among the returned valid words.
            assert!(resp.valid_words.is_used(word), "case {case}");
            // A WOC hit never returns a full line unless 8 words were stored.
            if resp.outcome == L2Outcome::WocHit {
                assert!(resp.valid_words.used_words() >= 1, "case {case}");
            }
        }
        for set in (0..16).map(SetIndex::new) {
            dc.woc()
                .check_invariants(set)
                .unwrap_or_else(|e| panic!("case {case}: set {set}: {e}"));
        }
        let s = dc.stats();
        assert_eq!(
            s.loc_hits + s.woc_hits + s.hole_misses + s.line_misses,
            s.accesses,
            "case {case}"
        );
    }
}

/// A line is never resident in the LOC and the WOC simultaneously.
#[test]
fn loc_and_woc_are_disjoint() {
    let mut rng = SimRng::new(0xe2e2);
    for case in 0..40 {
        let accesses = random_sequence(&mut rng, 300);
        let mut dc = tiny_distill(ThresholdPolicy::median());
        let geom = LineGeometry::default();
        for a in &accesses {
            let line = geom.line_addr(a.addr);
            let word = geom.word_index(a.addr);
            dc.access(L2Request::data(line, word, a.kind.is_write()));
            // Spot-check the just-accessed line.
            let set = dc.loc().config().set_index(line);
            let tag = dc.loc().config().tag(line);
            let in_loc = dc.loc().contains(line);
            let in_woc = dc.woc().lookup(set, tag).is_some();
            assert!(
                !(in_loc && in_woc),
                "case {case}: line {line} in both structures"
            );
        }
    }
}

/// Running the same accesses through a hierarchy twice gives identical
/// statistics (no hidden global state).
#[test]
fn hierarchy_is_deterministic() {
    let run = |accesses: &[Access]| {
        let mut h = Hierarchy::hpca2007(DistillCache::new(DistillConfig::hpca2007_default()));
        for &a in accesses {
            h.access(a);
        }
        (h.l2().stats().hits(), h.l2().stats().demand_misses())
    };
    let mut rng = SimRng::new(0xe2e3);
    for case in 0..20 {
        let accesses = random_sequence(&mut rng, 300);
        assert_eq!(run(&accesses), run(&accesses), "case {case}");
    }
}

/// The baseline never reports WOC outcomes, and its hit/miss accounting
/// is exact for any sequence.
#[test]
fn baseline_outcomes_are_binary() {
    let mut rng = SimRng::new(0xe2e4);
    for case in 0..40 {
        let accesses = random_sequence(&mut rng, 300);
        let mut l2 = BaselineL2::new(CacheConfig::with_sets(16, 4, LineGeometry::default()));
        let geom = LineGeometry::default();
        for a in &accesses {
            let line = geom.line_addr(a.addr);
            let word = geom.word_index(a.addr);
            let resp = l2.access(L2Request::data(line, word, a.kind.is_write()));
            assert!(
                matches!(resp.outcome, L2Outcome::LocHit | L2Outcome::LineMiss),
                "case {case}"
            );
        }
        let s = l2.stats();
        assert_eq!(s.woc_hits, 0, "case {case}");
        assert_eq!(s.hole_misses, 0, "case {case}");
        assert_eq!(s.loc_hits + s.line_misses, s.accesses, "case {case}");
    }
}

/// Immediately re-requesting the same word always hits (MRU residency),
/// for both organizations.
#[test]
fn immediate_rereference_hits() {
    let mut rng = SimRng::new(0xe2e5);
    for case in 0..50 {
        let line = rng.range(10_000);
        let word = rng.range(8) as u8;
        let req = L2Request::data(LineAddr::new(line), WordIndex::new(word), false);
        let mut dc = DistillCache::new(DistillConfig::hpca2007_default());
        dc.access(req);
        assert!(dc.access(req).outcome.is_hit(), "case {case}");
        let mut base = BaselineL2::new(CacheConfig::new(1 << 20, 8, LineGeometry::default()));
        base.access(req);
        assert!(base.access(req).outcome.is_hit(), "case {case}");
    }
}
