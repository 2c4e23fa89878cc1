//! Figure 11: LDIS vs. compression vs. footprint-aware compression.

use crate::golden::{self, l2_counts};
use crate::report::{fmt_f, fmt_pct, Json, Table};
use crate::{for_each_benchmark, run, run_baseline, RunConfig};
use ldis_cache::L2Stats;
use ldis_compress::{fac_cache, CmprCache, CmprConfig};
use ldis_distill::{DistillCache, DistillConfig};
use ldis_mem::stats::{mean_reduction, percent_reduction};
use ldis_workloads::memory_intensive;

/// Per-benchmark MPKI under the baseline and the four Figure 11
/// organizations.
#[derive(Clone, Debug)]
pub struct Fig11Row {
    /// Benchmark name.
    pub benchmark: String,
    /// Baseline MPKI.
    pub base: f64,
    /// LDIS with 2 WOC ways ("3xTags") MPKI.
    pub ldis_3x: f64,
    /// LDIS with 3 WOC ways ("4xTags") MPKI.
    pub ldis_4x: f64,
    /// Compressed traditional cache with 4× tags MPKI.
    pub cmpr_4x: f64,
    /// Footprint-aware compression with 3 WOC ways MPKI.
    pub fac_4x: f64,
    /// The CMPR-4xTags run's L2 counters.
    pub cmpr_l2: L2Stats,
    /// The FAC-4xTags run's L2 counters.
    pub fac_l2: L2Stats,
}

impl Fig11Row {
    /// Percentage MPKI reductions relative to the baseline, in column
    /// order: LDIS-3xTags, LDIS-4xTags, CMPR-4xTags, FAC-4xTags.
    pub fn reductions(&self) -> [f64; 4] {
        [self.ldis_3x, self.ldis_4x, self.cmpr_4x, self.fac_4x]
            .map(|mpki| percent_reduction(self.base, mpki))
    }
}

/// Runs the Figure 11 matrix.
pub fn data(cfg: &RunConfig) -> Vec<Fig11Row> {
    let benches = memory_intensive();
    for_each_benchmark(&benches, |b| {
        let model = cfg.value_model(b);
        let base = run_baseline(b, cfg, 1 << 20);
        let ldis_3x = run(b, cfg, || {
            DistillCache::new(DistillConfig::hpca2007_default())
        });
        let ldis_4x = run(b, cfg, || {
            DistillCache::new(DistillConfig::hpca2007_default().with_woc_ways(3))
        });
        let cmpr = run(b, cfg, || CmprCache::new(CmprConfig::cmpr_4x_tags(), model));
        let fac = run(b, cfg, || {
            fac_cache(DistillConfig::hpca2007_default().with_woc_ways(3), model)
        });
        Fig11Row {
            benchmark: b.name.to_owned(),
            base: base.mpki,
            ldis_3x: ldis_3x.mpki,
            ldis_4x: ldis_4x.mpki,
            cmpr_4x: cmpr.mpki,
            fac_4x: fac.mpki,
            cmpr_l2: cmpr.l2,
            fac_l2: fac.l2,
        }
    })
}

/// The golden snapshot (compared against `tests/golden/fig11.json`): the
/// reductions at full precision plus the raw counters of the two
/// compressed caches, which no other golden covers.
pub fn snapshot(cfg: &RunConfig) -> Json {
    let rows = data(cfg).into_iter().map(|r| {
        let [ldis_3x, ldis_4x, cmpr_4x, fac_4x] = r.reductions();
        Json::obj([
            ("benchmark", Json::str(&r.benchmark)),
            ("base_mpki", Json::num(r.base)),
            ("ldis_3x_reduction_pct", Json::num(ldis_3x)),
            ("ldis_4x_reduction_pct", Json::num(ldis_4x)),
            ("cmpr_4x_reduction_pct", Json::num(cmpr_4x)),
            ("fac_4x_reduction_pct", Json::num(fac_4x)),
            ("cmpr_4x", l2_counts(&r.cmpr_l2)),
            ("fac_4x", l2_counts(&r.fac_l2)),
        ])
    });
    golden::snapshot("fig11", cfg, [], rows)
}

/// Mean-MPKI reductions per organization (the paper's summary metric),
/// in the column order of [`Fig11Row::reductions`].
pub fn mean_reductions(rows: &[Fig11Row]) -> [f64; 4] {
    let reduction =
        |f: fn(&Fig11Row) -> f64| mean_reduction(rows.iter().map(|r| r.base), rows.iter().map(f));
    [
        reduction(|r| r.ldis_3x),
        reduction(|r| r.ldis_4x),
        reduction(|r| r.cmpr_4x),
        reduction(|r| r.fac_4x),
    ]
}

/// Renders the Figure 11 report.
pub fn report(rows: &[Fig11Row]) -> String {
    let mut t = Table::new(
        "Figure 11: % MPKI reduction — LDIS, compression (CMPR) and footprint-aware compression (FAC)",
        &[
            "bench",
            "base-mpki",
            "LDIS-3xTags",
            "LDIS-4xTags",
            "CMPR-4xTags",
            "FAC-4xTags",
        ],
    );
    for r in rows {
        let mut cells = vec![r.benchmark.clone(), fmt_f(r.base, 2)];
        cells.extend(r.reductions().map(fmt_pct));
        t.row(cells);
    }
    let mut avg = vec!["avg".to_owned(), String::new()];
    avg.extend(mean_reductions(rows).map(fmt_pct));
    t.row(avg);
    t.note("paper: FAC ≈ 50% average reduction, beating both LDIS and CMPR alone");
    t.render()
}

#[cfg(test)]
mod tests {
    use super::*;
    use ldis_workloads::spec2000;

    #[test]
    fn fac_beats_plain_ldis_on_compressible_sparse_data() {
        let b = spec2000::by_name("health").unwrap();
        let cfg = RunConfig::quick().with_accesses(500_000);
        let model = cfg.value_model(&b);
        let base = run_baseline(&b, &cfg, 1 << 20);
        let ldis = run(&b, &cfg, || {
            DistillCache::new(DistillConfig::hpca2007_default().with_woc_ways(3))
        });
        let fac = run(&b, &cfg, || {
            fac_cache(DistillConfig::hpca2007_default().with_woc_ways(3), model)
        });
        assert!(
            fac.mpki <= ldis.mpki * 1.02,
            "FAC {} should be at least as good as LDIS {} (base {})",
            fac.mpki,
            ldis.mpki,
            base.mpki
        );
    }

    #[test]
    fn mean_reduction_math() {
        let rows = vec![
            Fig11Row {
                benchmark: "a".into(),
                base: 10.0,
                ldis_3x: 5.0,
                ldis_4x: 5.0,
                cmpr_4x: 10.0,
                fac_4x: 5.0,
                cmpr_l2: L2Stats::default(),
                fac_l2: L2Stats::default(),
            },
            Fig11Row {
                benchmark: "b".into(),
                base: 30.0,
                ldis_3x: 30.0,
                ldis_4x: 30.0,
                cmpr_4x: 30.0,
                fac_4x: 15.0,
                cmpr_l2: L2Stats::default(),
                fac_l2: L2Stats::default(),
            },
        ];
        let [l3, _, c4, f4] = mean_reductions(&rows);
        assert!((l3 - 12.5).abs() < 1e-9, "{l3}");
        assert_eq!(c4, 0.0);
        assert!((f4 - 50.0).abs() < 1e-9);
        assert!(report(&rows).contains("FAC-4xTags"));
    }
}
