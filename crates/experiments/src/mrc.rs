//! Miss-ratio curves: exact traditional-LRU MPKI at every cache size
//! from one Mattson stack-distance pass per benchmark (`crates/mrc`).
//!
//! This is the engine behind the capacity studies — the rewired Figure 8
//! and Tables 5/6 call [`run_capacity_sweep`]
//! with their own size lists — and an experiment in its own right: the
//! `mrc` subcommand renders the full miss-ratio curve of all 16 + 11
//! benchmarks over half a megabyte to four megabytes.

use crate::golden;
use crate::report::{fmt_f, Json, Table};
use crate::{for_each_benchmark, run_capacity_sweep, CapacitySweep, RunConfig};
use ldis_workloads::{cache_insensitive, memory_intensive, Benchmark};

/// The swept traditional cache sizes: 0.5, 0.75, 1, 1.5, 2 and 4 MB.
pub const MRC_SIZES: [u64; 6] = [512 << 10, 768 << 10, 1 << 20, 3 << 19, 2 << 20, 4 << 20];

/// Human-readable column labels of [`MRC_SIZES`], index-aligned. One
/// shared definition — the report, its tests, and both differential
/// oracles (`tests/mrc_oracle.rs`, `tests/mrc_sampled_oracle.rs`) all
/// read it, so the exact and sampled size lists cannot drift apart.
pub const MRC_SIZE_LABELS: [&str; MRC_SIZES.len()] =
    ["0.5MB", "0.75MB", "1MB", "1.5MB", "2MB", "4MB"];

/// All 16 memory-intensive plus 11 cache-insensitive benchmarks, the
/// population of the differential-oracle suite.
pub fn all_benchmarks() -> Vec<Benchmark> {
    let mut benches = memory_intensive();
    benches.extend(cache_insensitive());
    benches
}

/// Runs the miss-ratio-curve sweep: one Mattson pass per benchmark
/// answering every size in [`MRC_SIZES`].
pub fn data(cfg: &RunConfig) -> Vec<CapacitySweep> {
    let benches = all_benchmarks();
    for_each_benchmark(&benches, |b| run_capacity_sweep(b, cfg, &MRC_SIZES))
}

/// Renders the miss-ratio-curve table (MPKI per size).
pub fn report(sweeps: &[CapacitySweep]) -> String {
    let mut columns: Vec<&str> = vec!["bench"];
    columns.extend(MRC_SIZE_LABELS);
    columns.push("sims");
    let mut t = Table::new(
        "MRC: traditional-LRU MPKI vs. capacity, one stack-distance pass per benchmark",
        &columns,
    );
    for s in sweeps {
        let mut cells = vec![s.benchmark.clone()];
        for &size in &MRC_SIZES {
            cells.push(fmt_f(s.mpki_at(size), 2));
        }
        cells.push("1".to_owned());
        t.row(cells);
    }
    t.note(format!(
        "each row: {} cache sizes from 1 simulation (direct sweeps need {})",
        MRC_SIZES.len(),
        MRC_SIZES.len()
    ));
    t.render()
}

/// The golden snapshot: per-benchmark miss-ratio curves with the full
/// reconstructed counters at every size. Byte-stable for a given seed;
/// compared against `tests/golden/mrc.json`.
pub fn snapshot(cfg: &RunConfig) -> Json {
    let sweeps = data(cfg);
    let rows = sweeps.iter().map(|s| {
        let points = s.points.iter().map(|p| {
            Json::obj([
                ("size_kb", Json::uint(p.size_bytes >> 10)),
                ("sets", Json::uint(p.config.num_sets())),
                ("ways", Json::uint(u64::from(p.config.ways()))),
                ("mpki", Json::num(p.mpki)),
                ("accesses", Json::uint(p.result.accesses)),
                ("hits", Json::uint(p.result.hits)),
                ("line_misses", Json::uint(p.result.line_misses)),
                ("compulsory_misses", Json::uint(p.result.compulsory_misses)),
                ("evictions", Json::uint(p.result.evictions)),
                ("writebacks", Json::uint(p.result.writebacks)),
                (
                    "avg_words_used",
                    Json::num(p.result.words_used_with_resident.mean()),
                ),
            ])
        });
        Json::obj([
            ("benchmark", Json::str(&s.benchmark)),
            ("instructions", Json::uint(s.hierarchy.instructions)),
            ("points", Json::arr(points)),
        ])
    });
    golden::snapshot(
        "mrc",
        cfg,
        [(
            "sizes_kb",
            Json::arr(MRC_SIZES.iter().map(|&s| Json::uint(s >> 10))),
        )],
        rows,
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use ldis_workloads::spec2000;

    #[test]
    fn curves_are_non_increasing_in_capacity() {
        let b = spec2000::by_name("twolf").unwrap();
        let sweep = run_capacity_sweep(&b, &RunConfig::quick(), &MRC_SIZES);
        for pair in sweep.points.windows(2) {
            assert!(
                pair[0].result.line_misses >= pair[1].result.line_misses,
                "misses increased from {} to {} bytes",
                pair[0].size_bytes,
                pair[1].size_bytes
            );
        }
    }

    #[test]
    fn report_renders_every_size_column() {
        let b = spec2000::by_name("mcf").unwrap();
        let sweeps = vec![run_capacity_sweep(&b, &RunConfig::quick(), &MRC_SIZES)];
        let text = report(&sweeps);
        for col in MRC_SIZE_LABELS {
            assert!(text.contains(col), "missing column {col}");
        }
        assert!(text.contains("mcf"));
    }

    #[test]
    fn size_labels_match_the_sizes() {
        for (&size, label) in MRC_SIZES.iter().zip(MRC_SIZE_LABELS) {
            let mb = size as f64 / (1 << 20) as f64;
            assert_eq!(label, format!("{mb}MB"), "label drifted for {size} B");
        }
    }

    #[test]
    fn snapshot_names_every_benchmark_once() {
        // Structural check on a tiny run: the full quick snapshot is
        // exercised by the golden test at the workspace root.
        let cfg = RunConfig::quick().with_accesses(5_000);
        let snap = snapshot(&cfg).render_pretty();
        for b in all_benchmarks() {
            assert!(snap.contains(b.name), "missing {}", b.name);
        }
        assert!(snap.contains("\"experiment\": \"mrc\""));
    }
}
