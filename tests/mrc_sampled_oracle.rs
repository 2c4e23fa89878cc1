//! Bounded-error differential oracle for the constant-memory SHARDS
//! sampled-MRC engine (`ldis-mrc::shards`).
//!
//! Unlike the exact Mattson oracle (`tests/mrc_oracle.rs`), which demands
//! bit-for-bit equality, the sampled engine is *approximate* by design:
//! it models a fully-associative LRU over a spatially hashed sample.
//! The contract is therefore a per-rate error budget — for every
//! benchmark × size point,
//! `|mpki_sampled − mpki_exact| ≤ mpki_tolerance(rate, ...)` — plus two
//! exact invariants that must still hold bit for bit: the hierarchy
//! statistics (the sampled adapter replays the identical L2 request
//! stream) and determinism across worker-thread counts.
//!
//! Set `LDIS_PRINT_ERR=1` to print the observed per-rate maximum error in
//! miss-ratio units; the `EPSILON_TABLE` entries in
//! `crates/mrc/src/shards.rs` were calibrated from that output with
//! ≥ 1.5× margin.

use line_distillation::experiments::mrc as emrc;
use line_distillation::experiments::{
    for_each_benchmark, parallel, run_capacity_sweep, run_sampled_capacity_sweep, RunConfig,
    SampledCapacitySweep,
};
use line_distillation::mrc::{
    check_bounded_error, epsilon_miss_ratio, mpki_tolerance, ShardsConfig,
};

const ORACLE_RATES: [f64; 3] = [0.1, 0.01, 0.001];

fn oracle_config() -> RunConfig {
    RunConfig::quick()
}

/// Every benchmark × size × rate point of the sampled engine stays within
/// the per-rate MPKI budget of the exact Mattson reconstruction, the
/// first-level statistics match bit for bit, and the sampler saw exactly
/// the L2 demand accesses the exact profiler saw.
#[test]
fn sampled_oracle_bounded_error_for_every_benchmark_size_and_rate() {
    let cfg = oracle_config();
    let benches = emrc::all_benchmarks();
    let exact = for_each_benchmark(&benches, |b| run_capacity_sweep(b, &cfg, &emrc::MRC_SIZES));
    #[expect(
        clippy::disallowed_methods,
        reason = "LDIS_PRINT_ERR only prints the measured errors for recalibration"
    )]
    let print_err = std::env::var("LDIS_PRINT_ERR").is_ok_and(|v| v == "1");
    for rate in ORACLE_RATES {
        let shards = ShardsConfig::at_rate(rate);
        let sampled = for_each_benchmark(&benches, |b| {
            run_sampled_capacity_sweep(b, &cfg, &emrc::MRC_SIZES, &shards)
        });
        let mut max_err_mr = 0.0f64;
        let mut max_err_at = String::new();
        for (e, s) in exact.iter().zip(&sampled) {
            assert_eq!(e.benchmark, s.benchmark);
            assert_eq!(
                e.hierarchy, s.hierarchy,
                "{}: the sampled adapter must replay the exact L2 request stream",
                e.benchmark
            );
            let accesses = e.points.first().expect("sweep has points").result.accesses;
            assert_eq!(
                s.mrc.total_refs, accesses,
                "{}: sampler ref count drifted from the exact profiler",
                e.benchmark
            );
            let instructions = e.hierarchy.instructions;
            let tolerance = mpki_tolerance(rate, accesses, instructions);
            for (&size, label) in emrc::MRC_SIZES.iter().zip(emrc::MRC_SIZE_LABELS) {
                let ctx = format!("{} at {} (rate {rate})", e.benchmark, label);
                let exact_mpki = e.mpki_at(size);
                let sampled_mpki = s.mpki_at(size);
                if let Err(msg) = check_bounded_error(sampled_mpki, exact_mpki, tolerance) {
                    panic!("{ctx}: {msg}");
                }
                if print_err && accesses > 0 {
                    let err_mr = (sampled_mpki - exact_mpki).abs() * instructions as f64
                        / (1000.0 * accesses as f64);
                    if err_mr > max_err_mr {
                        max_err_mr = err_mr;
                        max_err_at = ctx;
                    }
                }
            }
        }
        if print_err {
            eprintln!(
                "rate {rate}: max miss-ratio error {max_err_mr:.5} ({max_err_at}), \
                 budget {:.5}",
                epsilon_miss_ratio(rate)
            );
        }
    }
}

/// The sampled sweep is a pure function of (benchmark, seed): running the
/// full population on 1 and 4 worker threads yields byte-identical
/// results, down to the float bit patterns of every estimated point.
#[test]
fn sampled_sweep_is_bit_identical_across_thread_counts() {
    let cfg = oracle_config();
    let benches = emrc::all_benchmarks();
    let shards = ShardsConfig::at_rate(0.01);
    let job = |b: &line_distillation::workloads::Benchmark| {
        run_sampled_capacity_sweep(b, &cfg, &emrc::MRC_SIZES, &shards)
    };
    let serial: Vec<SampledCapacitySweep> = parallel::sweep_with_threads(1, &benches, job);
    let pooled: Vec<SampledCapacitySweep> = parallel::sweep_with_threads(4, &benches, job);
    assert_eq!(serial.len(), pooled.len());
    for (a, b) in serial.iter().zip(&pooled) {
        assert_eq!(a, b, "{} diverged across thread counts", a.benchmark);
        for (pa, pb) in a.points.iter().zip(&b.points) {
            assert_eq!(
                pa.mpki.to_bits(),
                pb.mpki.to_bits(),
                "{}: mpki bits diverged at {} B",
                a.benchmark,
                pa.size_bytes
            );
            assert_eq!(pa.miss_ratio.to_bits(), pb.miss_ratio.to_bits());
        }
        assert_eq!(a.final_rate.to_bits(), b.final_rate.to_bits());
        assert_eq!(a.mean_words_used.to_bits(), b.mean_words_used.to_bits());
    }
}

/// The oracle actually has teeth: perturbing the finished sampled MRC by
/// draining more than the error budget's worth of hit mass into the
/// overflow bucket makes `check_bounded_error` fail at the same point it
/// just accepted.
#[test]
fn injected_error_beyond_the_budget_fails_the_oracle() {
    let cfg = oracle_config();
    let rate = 0.1;
    let b = line_distillation::workloads::spec2000::by_name("twolf").expect("twolf exists");
    let exact = run_capacity_sweep(&b, &cfg, &emrc::MRC_SIZES);
    let sampled =
        run_sampled_capacity_sweep(&b, &cfg, &emrc::MRC_SIZES, &ShardsConfig::at_rate(rate));
    let size = 4 << 20;
    let accesses = exact
        .points
        .first()
        .expect("sweep has points")
        .result
        .accesses;
    let instructions = exact.hierarchy.instructions;
    let tolerance = mpki_tolerance(rate, accesses, instructions);
    check_bounded_error(sampled.mpki_at(size), exact.mpki_at(size), tolerance)
        .expect("the unperturbed point passes its own oracle");

    // Move just over 2ε worth of sampled hit mass (the check allows ε on
    // either side) from within-capacity buckets into overflow: every
    // moved count flips an estimated hit into an estimated miss.
    let mut forged = sampled.mrc.clone();
    let capacity_buckets = (size / 64 / forged.bucket_lines) as usize;
    let needed = (2.0 * epsilon_miss_ratio(rate) * forged.expected_samples()) as u64 + 1;
    let mut moved = 0u64;
    for bucket in forged.buckets.iter_mut().take(capacity_buckets) {
        let take = (*bucket).min(needed - moved);
        *bucket -= take;
        forged.overflow += take;
        moved += take;
        if moved == needed {
            break;
        }
    }
    assert_eq!(
        moved, needed,
        "twolf at 4MB holds enough sampled hit mass to forge"
    );
    let forged_mpki = forged.estimated_mpki(size / 64, instructions);
    assert!(
        check_bounded_error(forged_mpki, exact.mpki_at(size), tolerance).is_err(),
        "a {needed}-sample perturbation (rate {rate}) must trip the oracle"
    );
}
