//! Serial-vs-parallel equivalence: the sweep engine must produce
//! bit-identical result matrices for every worker count, because each
//! (benchmark, configuration) cell derives its randomness from the run
//! seed and its benchmark alone, and results merge in canonical matrix
//! order.

use line_distillation::cache::BaselineL2;
use line_distillation::distill::{DistillCache, DistillConfig};
use line_distillation::experiments::{
    baseline_config, run, run_baseline, run_capacity_sweep, run_matrix_with_threads, run_timed,
    RunConfig, RunResult,
};
use line_distillation::timing::L2Timing;
use line_distillation::workloads::{memory_intensive, Benchmark};

/// A small but non-trivial quick sweep: 6 benchmarks × 3 configurations,
/// mixing cheap and expensive benchmarks so parallel completion order
/// genuinely differs from canonical order.
fn quick_sweep(threads: usize) -> Vec<Vec<RunResult>> {
    let benches: Vec<_> = memory_intensive()
        .into_iter()
        .filter(|b| matches!(b.name, "art" | "mcf" | "twolf" | "apsi" | "swim" | "health"))
        .collect();
    let cfg = RunConfig::quick().with_accesses(60_000);
    run_matrix_with_threads(threads, &benches, 3, |b, config| match config {
        0 => run_baseline(b, &cfg, 1 << 20),
        1 => run(b, &cfg, || DistillCache::new(DistillConfig::ldis_base())),
        _ => run(b, &cfg, || {
            DistillCache::new(DistillConfig::hpca2007_default())
        }),
    })
}

#[test]
fn serial_and_parallel_matrices_are_bit_identical() {
    let serial = quick_sweep(1);
    let parallel = quick_sweep(4);
    assert_eq!(serial.len(), 6);
    assert!(serial.iter().all(|row| row.len() == 3));
    // RunResult::eq compares every counter, histogram bin and float bit
    // for bit — any scheduling leak into the simulation fails here.
    assert_eq!(serial, parallel);
}

#[test]
fn oversubscribed_pool_changes_nothing() {
    // More workers than cells: every cell still lands in its slot.
    assert_eq!(quick_sweep(64), quick_sweep(2));
}

#[test]
fn repeated_parallel_runs_are_deterministic() {
    assert_eq!(quick_sweep(4), quick_sweep(4));
}

/// The measured instructions of every kind of run of `b`: the baseline,
/// LDIS-Base, LDIS-MT, a capacity sweep and both timed systems.
fn measured_instructions(b: &Benchmark, cfg: &RunConfig) -> [u64; 6] {
    let ldis = |config: DistillConfig| run(b, cfg, || DistillCache::new(config));
    let timed_base = run_timed(
        b,
        cfg,
        BaselineL2::new(baseline_config(1 << 20)),
        L2Timing::baseline(),
    );
    let timed_ldis = run_timed(
        b,
        cfg,
        DistillCache::new(DistillConfig::hpca2007_default()),
        L2Timing::distill(),
    );
    [
        run_baseline(b, cfg, 1 << 20).hierarchy.instructions,
        ldis(DistillConfig::ldis_base()).hierarchy.instructions,
        ldis(DistillConfig::ldis_mt()).hierarchy.instructions,
        run_capacity_sweep(b, cfg, &[1 << 20, 2 << 20])
            .hierarchy
            .instructions,
        timed_base.instructions,
        timed_ldis.instructions,
    ]
}

#[test]
fn every_run_of_a_benchmark_simulates_one_trace() {
    // A benchmark's trace depends on the run seed and the benchmark only:
    // every cache organization, untimed or timed, measures the same
    // instructions, with and without a warmup; another benchmark measures
    // another trace, and a rerun reproduces bit for bit.
    let by_name = |name: &str| {
        memory_intensive()
            .into_iter()
            .find(|b| b.name == name)
            .unwrap()
    };
    let (twolf, mcf) = (by_name("twolf"), by_name("mcf"));
    for warmup in [0, 25_000] {
        let cfg = RunConfig::quick().with_accesses(60_000).with_warmup(warmup);
        let twolf_counts = measured_instructions(&twolf, &cfg);
        let mcf_counts = measured_instructions(&mcf, &cfg);
        for counts in [twolf_counts, mcf_counts] {
            assert!(
                counts.iter().all(|&n| n == counts[0]),
                "warmup {warmup}: one trace per benchmark, got {counts:?}"
            );
        }
        assert_ne!(
            twolf_counts[0], mcf_counts[0],
            "warmup {warmup}: two benchmarks must simulate two traces"
        );
        let mt = || run(&twolf, &cfg, || DistillCache::new(DistillConfig::ldis_mt()));
        assert_eq!(
            mt(),
            mt(),
            "warmup {warmup}: a rerun must reproduce bit for bit"
        );
    }
}
