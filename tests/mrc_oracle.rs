//! Differential-oracle tests: the single-pass Mattson profiler
//! (`crates/mrc`) against direct `ldis-cache` simulation.
//!
//! The profiler and the simulator are independently derived models of the
//! same LRU cache, so their agreement cross-validates both: a bug in
//! either the stack-distance construction or the set-associative
//! substrate breaks the equality. Every comparison here is bit-for-bit —
//! integer counters, f64 bit patterns and whole histograms — for every
//! benchmark of the paper (16 memory-intensive + 11 cache-insensitive) at
//! every capacity of the MRC sweep, at the canonical quick configuration.
//! The Figure 8 / Table 5 / Table 6 rows the library computes from one
//! Mattson pass per benchmark are compared with the per-size direct
//! simulations kept here as their reference. The suite runs under
//! `LDIS_THREADS=1` and `=4` in CI; the derived-seed scheme keeps both
//! bit-identical.

use line_distillation::distill::{DistillCache, DistillConfig};
use line_distillation::experiments::appendix::{self, Table5Row, Table6Row, TABLE6_SIZES};
use line_distillation::experiments::fig8::{self, Fig8Row};
use line_distillation::experiments::{
    for_each_benchmark, golden, mrc, run, run_baseline, run_baseline_with_words,
    run_capacity_sweep, run_matrix, RunConfig,
};
use line_distillation::mem::stats::percent_reduction;
use line_distillation::workloads::{cache_insensitive, memory_intensive};

/// Oracle-vs-simulator equality over the full quick matrix: all 27
/// benchmarks × {0.5, 0.75, 1, 1.5, 2, 4} MB. One Mattson pass per
/// benchmark answers what 6 direct simulations compute.
#[test]
fn oracle_matches_direct_simulation_for_every_benchmark_and_size() {
    let cfg = golden::golden_config();
    let benches = mrc::all_benchmarks();
    let sweeps = for_each_benchmark(&benches, |b| run_capacity_sweep(b, &cfg, &mrc::MRC_SIZES));
    let direct = run_matrix(&benches, mrc::MRC_SIZES.len(), |b, i| {
        run_baseline_with_words(b, &cfg, mrc::MRC_SIZES[i])
    });
    assert_eq!(sweeps.len(), benches.len());
    for (sweep, row) in sweeps.iter().zip(&direct) {
        for (&size, (r, words)) in mrc::MRC_SIZES.iter().zip(row) {
            let ctx = format!("{} at {} kB", sweep.benchmark, size >> 10);
            let p = sweep
                .point(size)
                .unwrap_or_else(|| panic!("{ctx}: size missing from sweep"));
            assert_eq!(sweep.benchmark, r.benchmark, "{ctx}: benchmark order");
            assert_eq!(
                p.mpki.to_bits(),
                r.mpki.to_bits(),
                "{ctx}: mpki {} vs {}",
                p.mpki,
                r.mpki
            );
            assert_eq!(p.result.accesses, r.l2.accesses, "{ctx}: accesses");
            assert_eq!(p.result.hits, r.l2.loc_hits, "{ctx}: hits");
            assert_eq!(p.result.line_misses, r.l2.line_misses, "{ctx}: misses");
            assert_eq!(
                p.result.compulsory_misses, r.l2.compulsory_misses,
                "{ctx}: compulsory misses"
            );
            assert_eq!(p.result.evictions, r.l2.evictions, "{ctx}: evictions");
            assert_eq!(p.result.writebacks, r.l2.writebacks, "{ctx}: writebacks");
            assert_eq!(
                p.result.words_used_at_evict, r.l2.words_used_at_evict,
                "{ctx}: words-used-at-evict histogram"
            );
            assert_eq!(
                p.result.words_used_with_resident, *words,
                "{ctx}: words-used histogram including resident lines"
            );
            assert_eq!(sweep.hierarchy, r.hierarchy, "{ctx}: L1/trace statistics");
        }
    }
}

/// Asserts two floats have the same bit pattern (stricter than equal
/// rendered JSON, which rounds).
fn assert_bits(got: f64, want: f64, ctx: &str) {
    assert_eq!(got.to_bits(), want.to_bits(), "{ctx}: {got} vs {want}");
}

/// The 1 MB distill point of Figure 8 and Table 5, simulated directly on
/// both sides.
fn distill_mpki(b: &line_distillation::workloads::Benchmark, cfg: &RunConfig) -> f64 {
    run(b, cfg, || {
        DistillCache::new(DistillConfig::hpca2007_default())
    })
    .mpki
}

/// Figure 8 by direct simulation: one baseline run per traditional size.
fn fig8_direct(cfg: &RunConfig) -> Vec<Fig8Row> {
    for_each_benchmark(&memory_intensive(), |b| {
        let base = run_baseline(b, cfg, 1 << 20).mpki;
        Fig8Row {
            benchmark: b.name.to_owned(),
            base,
            distill: percent_reduction(base, distill_mpki(b, cfg)),
            trad_1_5mb: percent_reduction(base, run_baseline(b, cfg, 3 << 19).mpki),
            trad_2mb: percent_reduction(base, run_baseline(b, cfg, 2 << 20).mpki),
        }
    })
}

/// Table 5 by direct simulation: one baseline run per traditional size.
fn table5_direct(cfg: &RunConfig) -> Vec<Table5Row> {
    for_each_benchmark(&cache_insensitive(), |b| Table5Row {
        benchmark: b.name.to_owned(),
        trad_1mb: run_baseline(b, cfg, 1 << 20).mpki,
        ldis_1mb: distill_mpki(b, cfg),
        trad_2mb: run_baseline(b, cfg, 2 << 20).mpki,
        trad_4mb: run_baseline(b, cfg, 4 << 20).mpki,
        paper_trad_1mb: b.paper_mpki,
    })
}

/// Table 6 by direct simulation: one words-used run per size.
fn table6_direct(cfg: &RunConfig) -> Vec<Table6Row> {
    for_each_benchmark(&memory_intensive(), |b| Table6Row {
        benchmark: b.name.to_owned(),
        avg_words: TABLE6_SIZES.map(|size| run_baseline_with_words(b, cfg, size).1.mean()),
        paper_1mb: b.paper_avg_words,
    })
}

/// The single-pass Figure 8 rows must equal the per-size simulations
/// field by field (the committed golden was generated from the direct
/// path).
#[test]
fn rewired_fig8_is_byte_identical_to_direct_simulations() {
    let cfg = golden::golden_config();
    let (got, want) = (fig8::data(&cfg), fig8_direct(&cfg));
    assert_eq!(got.len(), want.len(), "Figure 8 row count");
    for (g, w) in got.iter().zip(&want) {
        assert_eq!(g.benchmark, w.benchmark, "Figure 8 benchmark order");
        let ctx = format!("Figure 8, {}", g.benchmark);
        assert_bits(g.base, w.base, &format!("{ctx}: base MPKI"));
        assert_bits(g.distill, w.distill, &format!("{ctx}: distill"));
        assert_bits(g.trad_1_5mb, w.trad_1_5mb, &format!("{ctx}: 1.5 MB"));
        assert_bits(g.trad_2mb, w.trad_2mb, &format!("{ctx}: 2 MB"));
    }
}

/// The single-pass Table 5 rows must equal the per-size simulations
/// field by field.
#[test]
fn rewired_table5_is_byte_identical_to_direct_simulations() {
    let cfg = golden::golden_config();
    let (got, want) = (appendix::table5_data(&cfg), table5_direct(&cfg));
    assert_eq!(got.len(), want.len(), "Table 5 row count");
    for (g, w) in got.iter().zip(&want) {
        assert_eq!(g.benchmark, w.benchmark, "Table 5 benchmark order");
        let ctx = format!("Table 5, {}", g.benchmark);
        assert_bits(g.trad_1mb, w.trad_1mb, &format!("{ctx}: 1 MB"));
        assert_bits(g.ldis_1mb, w.ldis_1mb, &format!("{ctx}: LDIS 1 MB"));
        assert_bits(g.trad_2mb, w.trad_2mb, &format!("{ctx}: 2 MB"));
        assert_bits(g.trad_4mb, w.trad_4mb, &format!("{ctx}: 4 MB"));
        assert_bits(g.paper_trad_1mb, w.paper_trad_1mb, &format!("{ctx}: paper"));
    }
}

/// The single-pass Table 6 words-used rows must equal the per-size
/// simulations field by field.
#[test]
fn rewired_table6_is_byte_identical_to_direct_simulations() {
    let cfg = golden::golden_config();
    let (got, want) = (appendix::table6_data(&cfg), table6_direct(&cfg));
    assert_eq!(got.len(), want.len(), "Table 6 row count");
    for (g, w) in got.iter().zip(&want) {
        assert_eq!(g.benchmark, w.benchmark, "Table 6 benchmark order");
        for ((&gv, &wv), size) in g.avg_words.iter().zip(&w.avg_words).zip(TABLE6_SIZES) {
            let ctx = format!("Table 6, {} at {} kB", g.benchmark, size >> 10);
            assert_bits(gv, wv, &ctx);
        }
        assert_bits(
            g.paper_1mb,
            w.paper_1mb,
            &format!("Table 6, {}: paper", g.benchmark),
        );
    }
}
