//! Appendix experiments: Table 5 (cache-insensitive benchmarks) and
//! Table 6 (average words used vs. cache size).

use crate::golden;
use crate::report::{fmt_f, Json, Table};
use crate::{for_each_benchmark, run, run_capacity_sweep, RunConfig};
use ldis_distill::{DistillCache, DistillConfig};
use ldis_workloads::{cache_insensitive, memory_intensive};

/// The traditional sizes of Table 5: 1, 2 and 4 MB.
const TABLE5_SIZES: [u64; 3] = [1 << 20, 2 << 20, 4 << 20];

/// Table 5: MPKI of the insensitive benchmarks under four configurations.
#[derive(Clone, Debug)]
pub struct Table5Row {
    /// Benchmark name.
    pub benchmark: String,
    /// Traditional 1 MB MPKI.
    pub trad_1mb: f64,
    /// LDIS (distill) 1 MB MPKI.
    pub ldis_1mb: f64,
    /// Traditional 2 MB MPKI.
    pub trad_2mb: f64,
    /// Traditional 4 MB MPKI.
    pub trad_4mb: f64,
    /// Paper's traditional 1 MB value for reference.
    pub paper_trad_1mb: f64,
}

/// Runs the Table 5 matrix over the 11 cache-insensitive benchmarks.
/// The three traditional sizes come from one Mattson capacity sweep per
/// benchmark; only the distill point simulates directly. Bit-identical
/// to one direct baseline simulation per size (the reference kept in
/// `tests/mrc_oracle.rs`) with two simulations per benchmark instead of
/// four.
pub fn table5_data(cfg: &RunConfig) -> Vec<Table5Row> {
    let benches = cache_insensitive();
    for_each_benchmark(&benches, |b| {
        let sweep = run_capacity_sweep(b, cfg, &TABLE5_SIZES);
        let l1 = run(b, cfg, || {
            DistillCache::new(DistillConfig::hpca2007_default())
        });
        Table5Row {
            benchmark: b.name.to_owned(),
            trad_1mb: sweep.mpki_at(1 << 20),
            ldis_1mb: l1.mpki,
            trad_2mb: sweep.mpki_at(2 << 20),
            trad_4mb: sweep.mpki_at(4 << 20),
            paper_trad_1mb: b.paper_mpki,
        }
    })
}

/// Renders Table 5.
pub fn table5_report(rows: &[Table5Row]) -> String {
    let mut t = Table::new(
        "Table 5: MPKI for cache-insensitive benchmarks (Appendix A)",
        &[
            "bench",
            "Trad-1MB",
            "LDIS-1MB",
            "Trad-2MB",
            "Trad-4MB",
            "paper-1MB",
        ],
    );
    for r in rows {
        t.row(vec![
            r.benchmark.clone(),
            fmt_f(r.trad_1mb, 2),
            fmt_f(r.ldis_1mb, 2),
            fmt_f(r.trad_2mb, 2),
            fmt_f(r.trad_4mb, 2),
            fmt_f(r.paper_trad_1mb, 2),
        ]);
    }
    t.note("paper: neither LDIS nor 4x capacity moves these benchmarks");
    t.render()
}

/// The Table 5 golden snapshot (`tests/golden/table5.json`), computed
/// through the single-pass capacity sweep.
pub fn table5_snapshot(cfg: &RunConfig) -> Json {
    let rows = table5_data(cfg).into_iter().map(|r| {
        Json::obj([
            ("benchmark", Json::str(&r.benchmark)),
            ("trad_1mb_mpki", Json::num(r.trad_1mb)),
            ("ldis_1mb_mpki", Json::num(r.ldis_1mb)),
            ("trad_2mb_mpki", Json::num(r.trad_2mb)),
            ("trad_4mb_mpki", Json::num(r.trad_4mb)),
        ])
    });
    golden::snapshot("table5", cfg, [], rows)
}

/// Table 6: average words used per evicted line as cache size varies.
#[derive(Clone, Debug)]
pub struct Table6Row {
    /// Benchmark name.
    pub benchmark: String,
    /// Average words used at 0.75 / 1.0 / 1.25 / 1.5 / 2.0 MB.
    pub avg_words: [f64; 5],
    /// Paper's 1 MB value for reference.
    pub paper_1mb: f64,
}

/// The cache sizes of Table 6 in bytes.
pub const TABLE6_SIZES: [u64; 5] = [768 << 10, 1 << 20, 1280 << 10, 1536 << 10, 2 << 20];

/// Runs the Table 6 sweep over the 16 memory-intensive benchmarks: all
/// five sizes' words-used histograms (evicted plus resident lines) from
/// one Mattson pass per benchmark. Bit-identical to one
/// [`run_baseline_with_words`](crate::run_baseline_with_words) simulation
/// per size (the reference kept in `tests/mrc_oracle.rs`) with one
/// simulation per benchmark instead of five.
pub fn table6_data(cfg: &RunConfig) -> Vec<Table6Row> {
    let benches = memory_intensive();
    for_each_benchmark(&benches, |b| {
        let sweep = run_capacity_sweep(b, cfg, &TABLE6_SIZES);
        let mut avg_words = [0.0; 5];
        for (slot, &size) in avg_words.iter_mut().zip(&TABLE6_SIZES) {
            *slot = sweep
                .point(size)
                .map_or(f64::NAN, |p| p.result.words_used_with_resident.mean());
        }
        Table6Row {
            benchmark: b.name.to_owned(),
            avg_words,
            paper_1mb: b.paper_avg_words,
        }
    })
}

/// The Table 6 golden snapshot (`tests/golden/table6.json`), computed
/// through the single-pass capacity sweep.
pub fn table6_snapshot(cfg: &RunConfig) -> Json {
    let rows = table6_data(cfg).into_iter().map(|r| {
        Json::obj([
            ("benchmark", Json::str(&r.benchmark)),
            (
                "avg_words",
                Json::arr(r.avg_words.iter().copied().map(Json::num)),
            ),
        ])
    });
    golden::snapshot(
        "table6",
        cfg,
        [(
            "sizes_kb",
            Json::arr(TABLE6_SIZES.iter().map(|&s| Json::uint(s >> 10))),
        )],
        rows,
    )
}

/// Renders Table 6.
pub fn table6_report(rows: &[Table6Row]) -> String {
    let mut t = Table::new(
        "Table 6: average words used per evicted line vs. cache size (Appendix B)",
        &[
            "bench",
            "0.75MB",
            "1MB",
            "1.25MB",
            "1.5MB",
            "2MB",
            "paper@1MB",
        ],
    );
    for r in rows {
        let mut cells = vec![r.benchmark.clone()];
        for v in r.avg_words {
            cells.push(fmt_f(v, 2));
        }
        cells.push(fmt_f(r.paper_1mb, 2));
        t.row(cells);
    }
    t.note("paper: art's words-used grows sharply with capacity (1.81 -> 3.63); swim jumps once the second pass fits");
    t.render()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{run_baseline, run_baseline_with_words};
    use ldis_workloads::spec2000;

    #[test]
    fn insensitive_benchmarks_ignore_capacity_and_ldis() {
        let benches: Vec<_> = cache_insensitive()
            .into_iter()
            .filter(|b| matches!(b.name, "lucas" | "eon"))
            .collect();
        let cfg = RunConfig::quick().with_accesses(300_000);
        let rows = for_each_benchmark(&benches, |b| {
            let t1 = run_baseline(b, &cfg, 1 << 20);
            let l1 = run(b, &cfg, || {
                DistillCache::new(DistillConfig::hpca2007_default())
            });
            let t4 = run_baseline(b, &cfg, 4 << 20);
            (b.name, t1.mpki, l1.mpki, t4.mpki)
        });
        for (name, t1, l1, t4) in rows {
            let tol = (t1 * 0.1).max(0.05);
            assert!(
                (t1 - l1).abs() <= tol,
                "{name}: LDIS changed MPKI {t1} -> {l1}"
            );
            assert!(
                (t1 - t4).abs() <= tol,
                "{name}: 4x capacity changed MPKI {t1} -> {t4}"
            );
        }
    }

    #[test]
    fn art_words_used_grows_with_capacity() {
        let b = spec2000::by_name("art").unwrap();
        let cfg = RunConfig::quick().with_accesses(600_000);
        let avg_at = |size: u64| run_baseline_with_words(&b, &cfg, size).1.mean();
        let small = avg_at(1 << 20);
        let big = avg_at(2 << 20);
        assert!(
            big > small + 0.3,
            "art words-used should grow with capacity: {small} -> {big}"
        );
    }

    #[test]
    fn reports_render() {
        let t5 = vec![Table5Row {
            benchmark: "x".into(),
            trad_1mb: 1.0,
            ldis_1mb: 1.0,
            trad_2mb: 1.0,
            trad_4mb: 1.0,
            paper_trad_1mb: 1.0,
        }];
        assert!(table5_report(&t5).contains("Trad-4MB"));
        let t6 = vec![Table6Row {
            benchmark: "x".into(),
            avg_words: [1.0; 5],
            paper_1mb: 1.8,
        }];
        assert!(table6_report(&t6).contains("1.25MB"));
    }
}
