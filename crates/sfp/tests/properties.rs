//! Property tests for the SFP comparator, driven by a deterministic
//! seeded generator (`SimRng`) so every run explores the same cases and
//! failures reproduce exactly.

use ldis_cache::{CacheConfig, L2Request, SecondLevel};
use ldis_mem::{Addr, Footprint, LineAddr, LineGeometry, SimRng, WordIndex};
use ldis_sfp::{FootprintPredictor, SfpCache, SfpConfig};

fn tiny() -> SfpCache {
    SfpCache::new(SfpConfig {
        data: CacheConfig::with_sets(8, 8, LineGeometry::default()),
        tags_per_set: 22,
        predictor_entries: 4096,
        reverter: None,
    })
}

/// Outcome accounting is exact for arbitrary request sequences, and a
/// just-requested word always hits immediately afterwards.
#[test]
fn accounting_and_rereference() {
    let mut rng = SimRng::new(0x5f91);
    for case in 0..30 {
        let mut c = tiny();
        let reqs = 1 + rng.index(299);
        for _ in 0..reqs {
            let line = rng.range(256);
            let word = rng.range(8) as u8;
            let pc = rng.range(16);
            let write = rng.chance(0.5);
            let req = L2Request::data(LineAddr::new(line), WordIndex::new(word), write)
                .with_pc(Addr::new(0x1000 + pc * 4));
            c.access(req);
            assert!(
                c.access(req).outcome.is_hit(),
                "case {case}: immediate re-reference must hit"
            );
        }
        let s = c.stats();
        assert_eq!(
            s.loc_hits + s.woc_hits + s.hole_misses + s.line_misses,
            s.accesses,
            "case {case}"
        );
        assert!(s.compulsory_misses <= s.demand_misses(), "case {case}");
    }
}

/// The predictor always includes the demanded word, trained or not.
#[test]
fn prediction_covers_demand() {
    let mut rng = SimRng::new(0x5f92);
    for case in 0..300 {
        let pc = rng.next_u64();
        let word = rng.range(8) as u8;
        let trained_bits = rng.range(256) as u16;
        let mut p = FootprintPredictor::new(1024, 8);
        let w = WordIndex::new(word);
        assert!(p.predict(Addr::new(pc), w).is_used(w), "case {case}");
        p.train(Addr::new(pc), w, Footprint::from_bits(trained_bits));
        assert!(p.predict(Addr::new(pc), w).is_used(w), "case {case}");
    }
}

/// Training then predicting with the same key returns the trained
/// footprint (plus the demand word).
#[test]
fn train_predict_roundtrip() {
    let mut rng = SimRng::new(0x5f93);
    for case in 0..300 {
        let pc = rng.next_u64();
        let word = rng.range(8) as u8;
        let bits = 1 + rng.range(255) as u16;
        let mut p = FootprintPredictor::new(64 * 1024, 8);
        let w = WordIndex::new(word);
        p.train(Addr::new(pc), w, Footprint::from_bits(bits));
        let mut expected = Footprint::from_bits(bits);
        expected.touch(w);
        assert_eq!(p.predict(Addr::new(pc), w), expected, "case {case}");
    }
}

/// The SFP cache is deterministic: identical request sequences produce
/// identical statistics.
#[test]
fn sfp_is_deterministic() {
    let mut rng = SimRng::new(0x5f94);
    for case in 0..20 {
        let count = 1 + rng.index(199);
        let reqs: Vec<(u64, u8, u64)> = (0..count)
            .map(|_| (rng.range(128), rng.range(8) as u8, rng.range(8)))
            .collect();
        let run = |reqs: &[(u64, u8, u64)]| {
            let mut c = tiny();
            for &(line, word, pc) in reqs {
                c.access(
                    L2Request::data(LineAddr::new(line), WordIndex::new(word), false)
                        .with_pc(Addr::new(pc * 8)),
                );
            }
            (
                c.stats().hits(),
                c.stats().demand_misses(),
                c.stats().evictions,
            )
        };
        assert_eq!(run(&reqs), run(&reqs), "case {case}");
    }
}

/// Reset preserves contents but zeroes counters.
#[test]
fn reset_stats_keeps_contents() {
    let mut c = tiny();
    let req = L2Request::data(LineAddr::new(5), WordIndex::new(0), false);
    c.access(req);
    c.reset_stats();
    assert_eq!(c.stats().accesses, 0);
    // Still resident: the next access hits.
    assert!(c.access(req).outcome.is_hit());
    assert_eq!(c.stats().accesses, 1);
}
