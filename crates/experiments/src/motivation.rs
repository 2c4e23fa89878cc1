//! The motivation experiments, all derived from one baseline run per
//! benchmark: Figure 1 (words-used histogram), Figure 2 (recency position
//! before footprint change) and Table 2 (MPKI + compulsory misses).

use crate::report::{fmt_f, Json, Table};
use crate::{
    baseline_config, for_each_benchmark, run_baseline_with_words, run_timed, RunConfig, RunResult,
};
use ldis_cache::BaselineL2;
use ldis_mem::stats::Histogram;
use ldis_timing::L2Timing;
use ldis_workloads::{memory_intensive, Benchmark};

/// One benchmark's baseline characterization.
#[derive(Clone, Debug)]
pub struct BaselineProfile {
    /// Benchmark name.
    pub benchmark: String,
    /// Fraction of evicted data lines that used `k` words (index `k`,
    /// 0..=8) — Figure 1's histogram.
    pub words_used_fraction: Vec<f64>,
    /// Average words used per evicted line (Figure 1's per-benchmark
    /// annotation, Table 6's 1 MB column).
    pub avg_words_used: f64,
    /// Fraction of lines whose last footprint change happened at maximum
    /// recency position `p` (index `p`, 0..8) — Figure 2.
    pub recency_fraction: Vec<f64>,
    /// Misses per kilo-instruction (Table 2).
    pub mpki: f64,
    /// Percentage of misses that are compulsory (Table 2).
    pub compulsory_pct: f64,
    /// Paper reference values, for side-by-side reporting.
    pub paper_mpki: f64,
    /// Paper compulsory percentage (Table 2).
    pub paper_compulsory_pct: f64,
    /// Paper average words used at 1 MB (Table 6).
    pub paper_avg_words: f64,
}

fn profile_of(b: &Benchmark, r: &RunResult, hist: &Histogram) -> BaselineProfile {
    let words_used_fraction: Vec<f64> = (0..hist.len()).map(|i| hist.fraction(i)).collect();
    let rec = &r.l2.recency_before_change;
    let recency_fraction: Vec<f64> = (0..rec.len()).map(|i| rec.fraction(i)).collect();
    BaselineProfile {
        benchmark: b.name.to_owned(),
        avg_words_used: hist.mean(),
        words_used_fraction,
        recency_fraction,
        mpki: r.mpki,
        compulsory_pct: r.l2.compulsory_fraction() * 100.0,
        paper_mpki: b.paper_mpki,
        paper_compulsory_pct: b.paper_compulsory_pct,
        paper_avg_words: b.paper_avg_words,
    }
}

/// Runs the 1 MB baseline for every memory-intensive benchmark.
pub fn data(cfg: &RunConfig) -> Vec<BaselineProfile> {
    let benches = memory_intensive();
    for_each_benchmark(&benches, |b| {
        let (r, words) = run_baseline_with_words(b, cfg, 1 << 20);
        profile_of(b, &r, &words)
    })
}

/// The golden snapshot: per-benchmark baseline MPKI, timed-baseline IPC,
/// compulsory share and the full words-used footprint histogram, plus the
/// raw L2 counters, at the given configuration. Byte-stable for a given
/// seed; compared against `tests/golden/motivation.json`.
pub fn snapshot(cfg: &RunConfig) -> Json {
    let benches = memory_intensive();
    let rows = for_each_benchmark(&benches, |b| {
        let (r, words) = run_baseline_with_words(b, cfg, 1 << 20);
        let p = profile_of(b, &r, &words);
        // IPC of the timed baseline system (Figure 9's reference side).
        let l2 = BaselineL2::new(baseline_config(1 << 20));
        let timed = run_timed(b, cfg, l2, L2Timing::baseline());
        Json::obj([
            ("benchmark", Json::str(b.name)),
            ("mpki", Json::num(p.mpki)),
            ("ipc", Json::num(timed.ipc())),
            ("avg_words_used", Json::num(p.avg_words_used)),
            ("compulsory_pct", Json::num(p.compulsory_pct)),
            (
                "words_used_fraction",
                Json::arr(p.words_used_fraction.iter().copied().map(Json::num)),
            ),
            ("l2_accesses", Json::uint(r.l2.accesses)),
            ("l2_hits", Json::uint(r.l2.hits())),
            ("l2_line_misses", Json::uint(r.l2.line_misses)),
            ("l2_evictions", Json::uint(r.l2.evictions)),
            ("l2_writebacks", Json::uint(r.l2.writebacks)),
            ("instructions", Json::uint(r.hierarchy.instructions)),
        ])
    });
    Json::obj([
        ("experiment", Json::str("motivation")),
        ("accesses", Json::uint(cfg.accesses)),
        ("seed", Json::uint(cfg.seed)),
        ("rows", Json::Arr(rows)),
    ])
}

/// Figure 1: distribution of the words used in a cache line.
pub fn fig1_report(profiles: &[BaselineProfile]) -> String {
    let mut t = Table::new(
        "Figure 1: words used per evicted 64B line, 1MB 8-way baseline (fraction of lines)",
        &[
            "bench",
            "1w",
            "2w",
            "3w",
            "4w",
            "5w",
            "6w",
            "7w",
            "8w",
            "avg",
            "paper-avg",
        ],
    );
    for p in profiles {
        let mut cells = vec![p.benchmark.clone()];
        for k in 1..=8 {
            cells.push(fmt_f(
                p.words_used_fraction.get(k).copied().unwrap_or(0.0),
                2,
            ));
        }
        cells.push(fmt_f(p.avg_words_used, 2));
        cells.push(fmt_f(p.paper_avg_words, 2));
        t.row(cells);
    }
    t.note("paper: art/mcf use <2 words on average; facerec/galgel/apsi/wupwise near 7-8");
    t.render()
}

/// Figure 2: distribution of maximum recency position before
/// footprint-change.
pub fn fig2_report(profiles: &[BaselineProfile]) -> String {
    let mut t = Table::new(
        "Figure 2: max recency position before footprint-change (fraction of evicted lines)",
        &[
            "bench", "p0", "p1", "p2", "p3", "p4", "p5", "p6", "p7", "p0-3",
        ],
    );
    let mut early_sum = 0.0;
    for p in profiles {
        let mut cells = vec![p.benchmark.clone()];
        for pos in 0..8 {
            cells.push(fmt_f(
                p.recency_fraction.get(pos).copied().unwrap_or(0.0),
                2,
            ));
        }
        let early: f64 = p.recency_fraction.iter().take(4).sum();
        early_sum += early;
        cells.push(fmt_f(early, 2));
        t.row(cells);
    }
    let avg_early = early_sum / profiles.len() as f64;
    t.note(format!(
        "average fraction of footprint changes at positions 0-3: {:.1}% (paper: 83%)",
        avg_early * 100.0
    ));
    t.render()
}

/// The average fraction of footprint changes occurring at recency
/// positions 0–3 (the paper's 83 % observation).
pub fn early_change_fraction(profiles: &[BaselineProfile]) -> f64 {
    let sum: f64 = profiles
        .iter()
        .map(|p| p.recency_fraction.iter().take(4).sum::<f64>())
        .sum();
    sum / profiles.len() as f64
}

/// Table 2: benchmark summary (MPKI, compulsory misses).
pub fn table2_report(profiles: &[BaselineProfile]) -> String {
    let mut t = Table::new(
        "Table 2: benchmark summary, 1MB 8-way baseline",
        &["bench", "mpki", "paper-mpki", "compulsory%", "paper-comp%"],
    );
    for p in profiles {
        t.row(vec![
            p.benchmark.clone(),
            fmt_f(p.mpki, 2),
            fmt_f(p.paper_mpki, 2),
            fmt_f(p.compulsory_pct, 1),
            fmt_f(p.paper_compulsory_pct, 1),
        ]);
    }
    t.note("synthetic models target the paper's ordering and magnitude class, not exact values");
    t.render()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn quick_profiles() -> Vec<BaselineProfile> {
        // A few benchmarks at reduced length keep the test fast.
        let benches: Vec<_> = memory_intensive()
            .into_iter()
            .filter(|b| matches!(b.name, "art" | "swim" | "apsi" | "health"))
            .collect();
        let cfg = RunConfig::quick();
        for_each_benchmark(&benches, |b| {
            let (r, words) = run_baseline_with_words(b, &cfg, 1 << 20);
            profile_of(b, &r, &words)
        })
    }

    #[test]
    fn sparse_benchmarks_use_fewer_words_than_dense() {
        let profiles = quick_profiles();
        let by_name = |n: &str| {
            profiles
                .iter()
                .find(|p| p.benchmark == n)
                .unwrap_or_else(|| panic!("{n} missing"))
        };
        assert!(
            by_name("health").avg_words_used < 3.5,
            "health is sparse: {}",
            by_name("health").avg_words_used
        );
        assert!(
            by_name("apsi").avg_words_used > 6.0,
            "apsi is dense: {}",
            by_name("apsi").avg_words_used
        );
        assert!(by_name("art").avg_words_used < by_name("apsi").avg_words_used);
    }

    #[test]
    fn footprint_changes_concentrate_near_mru() {
        let profiles = quick_profiles();
        let early = early_change_fraction(&profiles);
        assert!(
            early > 0.6,
            "most footprint changes should happen at positions 0-3, got {early}"
        );
    }

    #[test]
    fn reports_render() {
        let profiles = quick_profiles();
        assert!(fig1_report(&profiles).contains("art"));
        assert!(fig2_report(&profiles).contains("p0-3"));
        assert!(table2_report(&profiles).contains("mpki"));
    }
}
