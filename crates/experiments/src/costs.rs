//! Section 7.5: latency and energy costs of distillation.
//!
//! The per-access constants come from the paper's Cacti 3.2 runs (3.06 nJ
//! LOC tags, +3.76 nJ WOC tags, 0.14 ns extra tag delay); the aggregate
//! energy is computed from simulated activity, showing when the removed
//! DRAM fetches pay for the extra tag probes.

use crate::report::{fmt_f, fmt_pct, Json, Table};
use crate::{for_each_benchmark, run, run_baseline, RunConfig};
use ldis_distill::{CostModel, DistillCache, DistillConfig};
use ldis_workloads::memory_intensive;

/// Per-benchmark energy of the baseline and distill configurations.
#[derive(Clone, Debug)]
pub struct CostsRow {
    /// Benchmark name.
    pub benchmark: String,
    /// Baseline total energy (mJ).
    pub base_mj: f64,
    /// Distill total energy (mJ).
    pub distill_mj: f64,
    /// Distill tag-store share of its total (percent).
    pub distill_tag_share_pct: f64,
}

/// Runs the energy comparison.
pub fn data(cfg: &RunConfig) -> Vec<CostsRow> {
    let model = CostModel::default();
    let benches = memory_intensive();
    for_each_benchmark(&benches, |b| {
        let base = run_baseline(b, cfg, 1 << 20);
        let dist = run(b, cfg, || {
            DistillCache::new(DistillConfig::hpca2007_default())
        });
        let be = model.baseline_energy(&base.l2);
        let de = model.distill_energy(&dist.l2);
        CostsRow {
            benchmark: b.name.to_owned(),
            base_mj: be.total_mj(),
            distill_mj: de.total_mj(),
            distill_tag_share_pct: de.tags_mj / de.total_mj() * 100.0,
        }
    })
}

/// The golden snapshot (compared against `tests/golden/costs.json`): both
/// energies and the distill tag share per benchmark at full precision.
pub fn snapshot(cfg: &RunConfig) -> Json {
    let rows = data(cfg)
        .iter()
        .map(|r| {
            Json::obj([
                ("benchmark", Json::str(&r.benchmark)),
                ("base_mj", Json::num(r.base_mj)),
                ("distill_mj", Json::num(r.distill_mj)),
                ("distill_tag_share_pct", Json::num(r.distill_tag_share_pct)),
            ])
        })
        .collect::<Vec<_>>();
    Json::obj([
        ("experiment", Json::str("costs")),
        ("accesses", Json::uint(cfg.accesses)),
        ("seed", Json::uint(cfg.seed)),
        ("rows", Json::Arr(rows)),
    ])
}

/// Renders the Section 7.5 report (latency constants + energy table).
pub fn report(rows: &[CostsRow]) -> String {
    let model = CostModel::default();
    let mut t = Table::new(
        "Section 7.5: distillation costs — L2+DRAM energy per run (Cacti constants)",
        &["bench", "base-mJ", "distill-mJ", "delta", "tag-share"],
    );
    for r in rows {
        t.row(vec![
            r.benchmark.clone(),
            fmt_f(r.base_mj, 2),
            fmt_f(r.distill_mj, 2),
            fmt_pct((r.distill_mj - r.base_mj) / r.base_mj * 100.0),
            format!("{}%", fmt_f(r.distill_tag_share_pct, 1)),
        ]);
    }
    t.note(format!(
        "per access: LOC tags {} nJ, WOC tags +{} nJ (probed in parallel); extra tag delay {} ns -> +1 cycle",
        model.loc_tag_nj, model.woc_tag_nj, model.extra_tag_ns
    ));
    t.note("energy falls wherever removed DRAM fetches outweigh the extra tag probes");
    t.render()
}

#[cfg(test)]
mod tests {
    use super::*;
    use ldis_workloads::spec2000;

    #[test]
    fn miss_heavy_benchmarks_save_energy_under_ldis() {
        let b = spec2000::by_name("health").unwrap();
        let cfg = RunConfig::quick().with_accesses(400_000);
        let model = CostModel::default();
        let base = run_baseline(&b, &cfg, 1 << 20);
        let dist = run(&b, &cfg, || {
            DistillCache::new(DistillConfig::hpca2007_default())
        });
        let be = model.baseline_energy(&base.l2).total_mj();
        let de = model.distill_energy(&dist.l2).total_mj();
        assert!(
            de < be,
            "health: removed fetches should pay for the tags ({de} vs {be})"
        );
    }

    #[test]
    fn hit_dominated_benchmarks_pay_for_the_tags() {
        let b = spec2000::by_name("apsi").unwrap();
        let cfg = RunConfig::quick().with_accesses(300_000);
        let model = CostModel::default();
        let base = run_baseline(&b, &cfg, 1 << 20);
        let dist = run(&b, &cfg, || {
            DistillCache::new(DistillConfig::hpca2007_default())
        });
        let be = model.baseline_energy(&base.l2);
        let de = model.distill_energy(&dist.l2);
        assert!(de.tags_mj > be.tags_mj, "distill always probes more tags");
    }

    #[test]
    fn report_renders() {
        let rows = vec![CostsRow {
            benchmark: "x".into(),
            base_mj: 2.0,
            distill_mj: 1.5,
            distill_tag_share_pct: 30.0,
        }];
        let s = report(&rows);
        assert!(s.contains("3.76"));
        assert!(s.contains("tag-share"));
    }
}
