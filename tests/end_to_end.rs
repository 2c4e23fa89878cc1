//! End-to-end smoke tests: every benchmark model through every cache
//! organization, plus trace-replay identity.

use line_distillation::cache::{BaselineL2, CacheConfig, Hierarchy, SecondLevel};
use line_distillation::compress::{fac_4x_tags, CmprCache, CmprConfig, ValueSizeModel};
use line_distillation::distill::{DistillCache, DistillConfig};
use line_distillation::mem::{LineGeometry, Trace};
use line_distillation::mrc::{MattsonL2, ShardsConfig, ShardsL2};
use line_distillation::sfp::{SfpCache, SfpConfig};
use line_distillation::workloads::{cache_insensitive, memory_intensive, TraceLength};

const SMOKE_ACCESSES: u64 = 30_000;

/// All 27 benchmark models run against all five L2 organizations without
/// panicking and with consistent accounting.
#[test]
fn every_benchmark_through_every_organization() {
    let benches: Vec<_> = memory_intensive()
        .into_iter()
        .chain(cache_insensitive())
        .collect();
    for b in &benches {
        let values = (b.make)(1).values();
        let model = ValueSizeModel::new(values, LineGeometry::default(), 1);

        // Baseline.
        let mut h = Hierarchy::hpca2007(BaselineL2::new(CacheConfig::new(
            1 << 20,
            8,
            LineGeometry::default(),
        )));
        (b.make)(1).drive(&mut h, TraceLength::accesses(SMOKE_ACCESSES));
        check(b.name, "baseline", h.l2().stats());

        // Distill.
        let mut h = Hierarchy::hpca2007(DistillCache::new(DistillConfig::hpca2007_default()));
        (b.make)(1).drive(&mut h, TraceLength::accesses(SMOKE_ACCESSES));
        check(b.name, "distill", h.l2().stats());

        // CMPR.
        let mut h = Hierarchy::hpca2007(CmprCache::new(CmprConfig::cmpr_4x_tags(), model));
        (b.make)(1).drive(&mut h, TraceLength::accesses(SMOKE_ACCESSES));
        check(b.name, "cmpr", h.l2().stats());

        // FAC.
        let mut h = Hierarchy::hpca2007(fac_4x_tags(model));
        (b.make)(1).drive(&mut h, TraceLength::accesses(SMOKE_ACCESSES));
        check(b.name, "fac", h.l2().stats());

        // SFP.
        let mut h = Hierarchy::hpca2007(SfpCache::new(SfpConfig::sfp_16k()));
        (b.make)(1).drive(&mut h, TraceLength::accesses(SMOKE_ACCESSES));
        check(b.name, "sfp", h.l2().stats());
    }
}

fn check(bench: &str, org: &str, s: &line_distillation::cache::L2Stats) {
    assert!(s.accesses > 0, "{bench}/{org}: no L2 traffic");
    assert_eq!(
        s.loc_hits + s.woc_hits + s.hole_misses + s.line_misses,
        s.accesses,
        "{bench}/{org}: outcome accounting broken"
    );
    assert!(
        s.compulsory_misses <= s.demand_misses(),
        "{bench}/{org}: compulsory > misses"
    );
}

/// After a warm run, `reset_stats` leaves each organization's statistics
/// equal to those of the same organization freshly built: every counter
/// zero and both histograms in their built shape.
#[test]
fn reset_stats_matches_a_freshly_built_organization() {
    fn warm_then_reset<L2: SecondLevel>(name: &str, build: impl Fn() -> L2) {
        let mut h = Hierarchy::hpca2007(build());
        (memory_intensive()[0].make)(1).drive(&mut h, TraceLength::accesses(100_000));
        let fresh = build();
        assert_ne!(h.l2().stats(), fresh.stats(), "{name}: the warm run counts");
        h.reset_stats();
        assert_eq!(h.l2().stats(), fresh.stats(), "{name}");
    }
    let geometry = LineGeometry::default();
    let l2 = CacheConfig::new(1 << 20, 8, geometry);
    let model = ValueSizeModel::new((memory_intensive()[0].make)(1).values(), geometry, 1);
    warm_then_reset("baseline", || BaselineL2::new(l2));
    warm_then_reset("distill", || {
        DistillCache::new(DistillConfig::hpca2007_default())
    });
    warm_then_reset("fac", || fac_4x_tags(model));
    warm_then_reset("cmpr", || CmprCache::new(CmprConfig::cmpr_4x_tags(), model));
    warm_then_reset("sfp", || SfpCache::new(SfpConfig::sfp_16k()));
    warm_then_reset("mattson", || {
        MattsonL2::for_configs(&[l2, CacheConfig::new(2 << 20, 16, geometry)])
    });
    warm_then_reset("shards", || {
        ShardsL2::new(geometry, ShardsConfig::at_rate(0.1))
    });
}

/// A recorded trace replayed against two fresh instances of the same
/// organization produces identical statistics — and the generator driven
/// live matches its own recording.
#[test]
fn trace_replay_is_identical_to_live_generation() {
    let mut workload = memory_intensive()[2].make;
    let trace: Trace = {
        let mut w = workload(77);
        w.record(SMOKE_ACCESSES as usize)
    };

    let run_trace = |trace: &Trace| {
        let mut h = Hierarchy::hpca2007(DistillCache::new(DistillConfig::hpca2007_default()));
        h.run_trace(trace);
        (h.l2().stats().demand_misses(), h.l2().stats().hits())
    };
    assert_eq!(run_trace(&trace), run_trace(&trace));

    // Live drive with the same seed must match the recording's effect.
    let mut live = Hierarchy::hpca2007(DistillCache::new(DistillConfig::hpca2007_default()));
    workload = memory_intensive()[2].make;
    workload(77).drive(&mut live, TraceLength::accesses(SMOKE_ACCESSES));
    assert_eq!(
        (live.l2().stats().demand_misses(), live.l2().stats().hits()),
        run_trace(&trace)
    );
}

/// Changing only the seed changes the trace but not the qualitative
/// outcome (reductions keep their sign across seeds).
#[test]
fn seed_robustness_of_the_headline_result() {
    for seed in [1u64, 7, 1234] {
        let mut base = Hierarchy::hpca2007(BaselineL2::new(CacheConfig::new(
            1 << 20,
            8,
            LineGeometry::default(),
        )));
        let b = memory_intensive()
            .into_iter()
            .find(|b| b.name == "health")
            .unwrap();
        (b.make)(seed).drive(&mut base, TraceLength::accesses(300_000));

        let mut dist = Hierarchy::hpca2007(DistillCache::new(DistillConfig::hpca2007_default()));
        (b.make)(seed).drive(&mut dist, TraceLength::accesses(300_000));

        assert!(
            dist.mpki() < base.mpki(),
            "seed {seed}: distill {} should beat baseline {}",
            dist.mpki(),
            base.mpki()
        );
    }
}
