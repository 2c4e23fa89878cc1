//! Ablations of the design choices DESIGN.md §7 calls out: WOC way count,
//! distillation threshold policy, WOC replacement selection and reverter
//! leader-set count.

use crate::golden;
use crate::report::{fmt_pct, Json, Table};
use crate::{for_each_benchmark, run, run_baseline, RunConfig};
use ldis_distill::{DistillCache, DistillConfig, ReverterConfig, ThresholdPolicy, WocReplacement};
use ldis_mem::stats::mean_reduction;
use ldis_workloads::{memory_intensive, Benchmark};

/// A generic ablation result: mean-MPKI reduction per variant.
#[derive(Clone, Debug)]
pub struct Ablation {
    /// Ablation name.
    pub name: String,
    /// `(variant label, mean-MPKI reduction %)` pairs.
    pub variants: Vec<(String, f64)>,
}

/// A representative benchmark subset for ablations (covers sparse chase,
/// mixed, dense and the pathology).
fn subset() -> Vec<Benchmark> {
    memory_intensive()
        .into_iter()
        .filter(|b| {
            matches!(
                b.name,
                "health" | "twolf" | "galgel" | "swim" | "ammp" | "art"
            )
        })
        .collect()
}

/// The 1 MB baseline MPKI of each subset benchmark, in subset order:
/// every variant's reduction is measured against these runs.
pub fn baseline_mpki(cfg: &RunConfig) -> Vec<f64> {
    for_each_benchmark(&subset(), |b| run_baseline(b, cfg, 1 << 20).mpki)
}

/// Runs `config` on every subset benchmark: its mean-MPKI reduction over
/// the baseline MPKIs `base`.
fn variant_reduction(cfg: &RunConfig, base: &[f64], config: DistillConfig) -> f64 {
    let dist = for_each_benchmark(&subset(), |b| {
        run(b, cfg, || DistillCache::new(config)).mpki
    });
    mean_reduction(base.iter().copied(), dist)
}

/// The `name` ablation: each `(label, config)` variant's mean-MPKI
/// reduction over the subset's baseline MPKIs `base`.
fn ablation<I>(cfg: &RunConfig, base: &[f64], name: &str, variants: I) -> Ablation
where
    I: IntoIterator<Item = (String, DistillConfig)>,
{
    let variants = variants
        .into_iter()
        .map(|(label, config)| (label, variant_reduction(cfg, base, config)));
    Ablation {
        name: name.to_owned(),
        variants: variants.collect(),
    }
}

/// WOC way count: 1, 2 (paper) or 3 of 8 ways.
pub fn woc_ways(cfg: &RunConfig, base: &[f64]) -> Ablation {
    let config = |w| DistillConfig::hpca2007_default().with_woc_ways(w);
    let variants = [1u32, 2, 3].map(|w| (format!("{w} WOC ways"), config(w)));
    ablation(cfg, base, "WOC way count", variants)
}

/// Threshold policy: none (LDIS-Base), fixed K in {2, 4, 6}, median.
pub fn threshold_policy(cfg: &RunConfig, base: &[f64]) -> Ablation {
    let mut policies = vec![("all (no threshold)".to_owned(), ThresholdPolicy::All)];
    policies.extend([2u8, 4, 6].map(|k| (format!("fixed K={k}"), ThresholdPolicy::Fixed(k))));
    policies.push(("median".to_owned(), ThresholdPolicy::median()));
    let config = |p| DistillConfig::hpca2007_default().with_policy(p);
    let variants = policies.into_iter().map(|(label, p)| (label, config(p)));
    ablation(cfg, base, "distillation threshold policy", variants)
}

/// WOC replacement candidate selection: random (paper) vs. round-robin.
pub fn woc_replacement(cfg: &RunConfig, base: &[f64]) -> Ablation {
    let config = |r| DistillConfig::hpca2007_default().with_woc_replacement(r);
    let variants = [
        ("random", WocReplacement::Random),
        ("round-robin", WocReplacement::RoundRobin),
    ]
    .map(|(label, r)| (label.to_owned(), config(r)));
    ablation(cfg, base, "WOC replacement selection", variants)
}

/// Reverter leader-set count: 8, 32 (paper), 128.
pub fn leader_sets(cfg: &RunConfig, base: &[f64]) -> Ablation {
    let variants = [8u32, 32, 128].map(|leader_sets| {
        let reverter = ReverterConfig {
            leader_sets,
            ..ReverterConfig::default()
        };
        let config = DistillConfig::ldis_mt().with_reverter(reverter);
        (format!("{leader_sets} leader sets"), config)
    });
    ablation(cfg, base, "reverter leader sets", variants)
}

/// Renders an ablation as a table.
pub fn report(ablation: &Ablation) -> String {
    let mut t = Table::new(
        format!("Ablation: {}", ablation.name),
        &["variant", "mean-MPKI reduction"],
    );
    for (label, red) in &ablation.variants {
        t.row(vec![label.clone(), fmt_pct(*red)]);
    }
    t.render()
}

/// Runs every ablation, in report order, against one set of baseline
/// runs.
pub fn data(cfg: &RunConfig) -> Vec<Ablation> {
    let base = baseline_mpki(cfg);
    vec![
        woc_ways(cfg, &base),
        threshold_policy(cfg, &base),
        woc_replacement(cfg, &base),
        leader_sets(cfg, &base),
    ]
}

/// The golden snapshot (compared against `tests/golden/ablations.json`):
/// every variant's mean-MPKI reduction at full precision.
pub fn snapshot(cfg: &RunConfig) -> Json {
    let rows = data(cfg).into_iter().flat_map(|a| {
        a.variants.into_iter().map(move |(variant, red)| {
            Json::obj([
                ("ablation", Json::str(&a.name)),
                ("variant", Json::str(variant)),
                ("reduction_pct", Json::num(red)),
            ])
        })
    });
    golden::snapshot("ablations", cfg, [], rows)
}

/// Runs every ablation and concatenates the reports.
pub fn all(cfg: &RunConfig) -> String {
    data(cfg).iter().map(report).collect::<Vec<_>>().join("\n")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn random_and_round_robin_are_similar() {
        // The paper's footnote: random selection has similar performance
        // to ordered selection.
        let cfg = RunConfig::quick().with_accesses(250_000);
        let a = woc_replacement(&cfg, &baseline_mpki(&cfg));
        let random = a.variants[0].1;
        let rr = a.variants[1].1;
        assert!(
            (random - rr).abs() < 10.0,
            "random {random}% vs round-robin {rr}% should be similar"
        );
    }

    #[test]
    fn two_woc_ways_is_a_sweet_spot_over_one() {
        let cfg = RunConfig::quick().with_accesses(250_000);
        let a = woc_ways(&cfg, &baseline_mpki(&cfg));
        let one = a.variants[0].1;
        let two = a.variants[1].1;
        assert!(
            two > one - 3.0,
            "2 WOC ways ({two}%) should not lose to 1 ({one}%)"
        );
    }

    #[test]
    fn report_renders() {
        let a = Ablation {
            name: "demo".into(),
            variants: vec![("v1".into(), 10.0)],
        };
        assert!(report(&a).contains("demo"));
    }
}
