//! Property tests for the timing model, driven by a deterministic
//! seeded generator (`SimRng`) so every run explores the same cases and
//! failures reproduce exactly.

use ldis_cache::{BaselineL2, CacheConfig, SecondLevel};
use ldis_distill::{DistillCache, DistillConfig};
use ldis_mem::{LineAddr, LineGeometry, SimRng, TraceSource};
use ldis_timing::{L2Timing, MemorySystem, SystemConfig, TimingSim};
use ldis_workloads::spec2000;

/// Memory completions never travel back in time, and later issues
/// never complete before strictly earlier issues *on the same bank*.
#[test]
fn memory_completions_are_causal() {
    let mut rng = SimRng::new(0x7a01);
    for case in 0..30 {
        let mut mem = MemorySystem::new(32, 400, 16, 32);
        let mut cycle = 0u64;
        let mut per_bank: std::collections::BTreeMap<u64, u64> = Default::default();
        let requests = 1 + rng.index(99);
        for _ in 0..requests {
            let advance = rng.range(10_000);
            let line = rng.range(512);
            cycle += advance;
            let (issue, done) = mem.fetch(cycle, LineAddr::new(line));
            assert!(issue >= cycle, "case {case}");
            assert!(done >= issue + 400, "case {case}: latency floor");
            let bank = line % 32;
            if let Some(&prev) = per_bank.get(&bank) {
                assert!(done > prev, "case {case}: bank order violated");
            }
            per_bank.insert(bank, done);
        }
    }
}

/// IPC is positive, bounded by the width, and monotone in the branch
/// misprediction rate.
#[test]
fn ipc_bounds_and_branch_monotonicity() {
    let run = |r: f64| {
        let l2 = BaselineL2::new(CacheConfig::new(1 << 20, 8, LineGeometry::default()));
        let cfg = SystemConfig::hpca2007_baseline().with_workload_factors(0.3, r);
        TimingSim::new(l2, cfg, L2Timing::baseline()).run(&mut spec2000::sixtrack(1), 15_000)
    };
    let base = run(0.0);
    let mut rng = SimRng::new(0x7a02);
    for case in 0..8 {
        let rate = rng.f64() * 30.0;
        let slowed = run(rate);
        assert!(base.ipc() > 0.0 && base.ipc() <= 8.0, "case {case}");
        assert!(
            slowed.cycles >= base.cycles,
            "case {case}: mispredicts add cycles"
        );
        assert_eq!(slowed.instructions, base.instructions, "case {case}");
    }
}

/// Higher dependence never increases IPC (less latency hiding).
#[test]
fn dependence_is_monotone() {
    let run = |d: f64| {
        let l2 = BaselineL2::new(CacheConfig::new(1 << 20, 8, LineGeometry::default()));
        let cfg = SystemConfig::hpca2007_baseline().with_workload_factors(d, 2.0);
        TimingSim::new(l2, cfg, L2Timing::baseline())
            .run(&mut spec2000::health(1), 15_000)
            .ipc()
    };
    let free = run(0.0);
    let mut rng = SimRng::new(0x7a03);
    for case in 0..8 {
        let dep = rng.f64();
        let bound = run(dep);
        assert!(
            bound <= free * 1.001,
            "case {case}: dep {dep}: {bound} > {free}"
        );
    }
}

/// A slower L2 (the distill latency adders) can only reduce IPC when the
/// miss counts are identical — isolated by running the *baseline* cache
/// with both timing models.
#[test]
fn latency_adders_alone_cost_ipc() {
    let run = |timing: L2Timing| {
        let l2 = BaselineL2::new(CacheConfig::new(1 << 20, 8, LineGeometry::default()));
        let cfg = SystemConfig::hpca2007_baseline().with_workload_factors(0.6, 2.0);
        TimingSim::new(l2, cfg, timing)
            .run(&mut spec2000::twolf(1), 60_000)
            .ipc()
    };
    let fast = run(L2Timing::baseline());
    let slow = run(L2Timing::distill());
    assert!(
        slow < fast,
        "the +1 tag cycle must cost something: {slow} vs {fast}"
    );
    assert!(
        slow > fast * 0.9,
        "but only about a cycle's worth: {slow} vs {fast}"
    );
}

/// MSHR pressure shows up for miss-heavy streams and is absent with an
/// enormous MSHR.
#[test]
fn mshr_bound_matters() {
    let run = |mshrs: u32| {
        let l2 = BaselineL2::new(CacheConfig::new(1 << 20, 8, LineGeometry::default()));
        let mut cfg = SystemConfig::hpca2007_baseline().with_workload_factors(0.3, 0.0);
        cfg.mshr_entries = mshrs;
        TimingSim::new(l2, cfg, L2Timing::baseline()).run(&mut spec2000::wupwise(1), 60_000)
    };
    let tight = run(1);
    let loose = run(1024);
    assert!(tight.mshr_stall_cycles > 0, "a 1-entry MSHR must stall");
    // The stalled issues push dependent completions later, costing cycles.
    assert!(
        tight.cycles > loose.cycles,
        "tight {} vs loose {}",
        tight.cycles,
        loose.cycles
    );
}

/// `run` generates its accesses in blocks of `Workload::DRIVE_BLOCK`. Two
/// runs that end on either side of a block edge, and mostly mid-visit,
/// give the result, L2 statistics and hierarchy statistics of stepping the
/// same accesses one `next_access` at a time.
#[test]
fn block_driven_runs_match_per_access_stepping() {
    let sim = || {
        let cfg = SystemConfig::hpca2007_baseline().with_workload_factors(0.5, 4.0);
        let l2 = DistillCache::new(DistillConfig::hpca2007_default());
        TimingSim::new(l2, cfg, L2Timing::distill())
    };
    let counts = [1u64, 511, 513, 1037];
    for first in counts {
        for second in counts {
            let mut blocked = sim();
            let mut workload = spec2000::mcf(7);
            blocked.run(&mut workload, first);
            let result = blocked.run(&mut workload, second);

            let mut stepped = sim();
            let mut workload = spec2000::mcf(7);
            for _ in 0..first + second {
                stepped.step(workload.next_access().expect("workloads are endless"));
            }
            let what = format!("{first} then {second} accesses");
            assert_eq!(result, stepped.run(&mut workload, 0), "{what}");
            let (b, s) = (blocked.hierarchy(), stepped.hierarchy());
            assert_eq!(b.l2().stats(), s.l2().stats(), "{what}");
            assert_eq!(b.stats(), s.stats(), "{what}");
        }
    }
}
