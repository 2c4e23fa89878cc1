//! Figure 13: spatial footprint prediction (SFP) vs. line distillation.

use crate::golden::{self, l2_counts};
use crate::report::{fmt_f, fmt_pct, Json, Table};
use crate::{for_each_benchmark, run, run_baseline, RunConfig};
use ldis_cache::L2Stats;
use ldis_distill::{DistillCache, DistillConfig};
use ldis_mem::stats::{mean_reduction, percent_reduction};
use ldis_sfp::{SfpCache, SfpConfig};
use ldis_workloads::memory_intensive;

/// Per-benchmark MPKI under the baseline, SFP (two predictor sizes) and
/// LDIS.
#[derive(Clone, Debug)]
pub struct Fig13Row {
    /// Benchmark name.
    pub benchmark: String,
    /// Baseline MPKI.
    pub base: f64,
    /// SFP with a 16 k-entry (64 kB) predictor: MPKI.
    pub sfp_16k: f64,
    /// SFP with a 64 k-entry (256 kB) predictor: MPKI.
    pub sfp_64k: f64,
    /// LDIS-MT-RC: MPKI.
    pub ldis: f64,
    /// The SFP-16k run's L2 counters.
    pub sfp_16k_l2: L2Stats,
    /// The SFP-64k run's L2 counters.
    pub sfp_64k_l2: L2Stats,
}

impl Fig13Row {
    /// Percentage MPKI reductions relative to the baseline, in column
    /// order: SFP-16k, SFP-64k, LDIS.
    pub fn reductions(&self) -> [f64; 3] {
        [self.sfp_16k, self.sfp_64k, self.ldis].map(|mpki| percent_reduction(self.base, mpki))
    }
}

/// Runs the Figure 13 matrix.
pub fn data(cfg: &RunConfig) -> Vec<Fig13Row> {
    let benches = memory_intensive();
    for_each_benchmark(&benches, |b| {
        let base = run_baseline(b, cfg, 1 << 20);
        let s16 = run(b, cfg, || SfpCache::new(SfpConfig::sfp_16k()));
        let s64 = run(b, cfg, || SfpCache::new(SfpConfig::sfp_64k()));
        let ldis = run(b, cfg, || {
            DistillCache::new(DistillConfig::hpca2007_default())
        });
        Fig13Row {
            benchmark: b.name.to_owned(),
            base: base.mpki,
            sfp_16k: s16.mpki,
            sfp_64k: s64.mpki,
            ldis: ldis.mpki,
            sfp_16k_l2: s16.l2,
            sfp_64k_l2: s64.l2,
        }
    })
}

/// The golden snapshot (compared against `tests/golden/fig13.json`): the
/// reductions at full precision plus the raw counters of both SFP
/// predictor sizes, which no other golden covers.
pub fn snapshot(cfg: &RunConfig) -> Json {
    let rows = data(cfg).into_iter().map(|r| {
        let [sfp_16k, sfp_64k, ldis] = r.reductions();
        Json::obj([
            ("benchmark", Json::str(&r.benchmark)),
            ("base_mpki", Json::num(r.base)),
            ("sfp_16k_reduction_pct", Json::num(sfp_16k)),
            ("sfp_64k_reduction_pct", Json::num(sfp_64k)),
            ("ldis_reduction_pct", Json::num(ldis)),
            ("sfp_16k", l2_counts(&r.sfp_16k_l2)),
            ("sfp_64k", l2_counts(&r.sfp_64k_l2)),
        ])
    });
    golden::snapshot("fig13", cfg, [], rows)
}

/// Mean-MPKI reductions for the three configurations, in the column
/// order of [`Fig13Row::reductions`].
pub fn mean_reductions(rows: &[Fig13Row]) -> [f64; 3] {
    let reduction =
        |f: fn(&Fig13Row) -> f64| mean_reduction(rows.iter().map(|r| r.base), rows.iter().map(f));
    [
        reduction(|r| r.sfp_16k),
        reduction(|r| r.sfp_64k),
        reduction(|r| r.ldis),
    ]
}

/// Renders the Figure 13 report.
pub fn report(rows: &[Fig13Row]) -> String {
    let mut t = Table::new(
        "Figure 13: % MPKI reduction — SFP (install-time prediction) vs LDIS (eviction-time filtering)",
        &["bench", "base-mpki", "SFP-16k", "SFP-64k", "LDIS"],
    );
    for r in rows {
        let mut cells = vec![r.benchmark.clone(), fmt_f(r.base, 2)];
        cells.extend(r.reductions().map(fmt_pct));
        t.row(cells);
    }
    let mut avg = vec!["avg".to_owned(), String::new()];
    avg.extend(mean_reductions(rows).map(fmt_pct));
    t.row(avg);
    t.note("paper: SFP reduces misses but significantly less than LDIS; mispredictions turn would-be hits into misses");
    t.render()
}

#[cfg(test)]
mod tests {
    use super::*;
    use ldis_workloads::spec2000;

    #[test]
    fn ldis_beats_sfp_on_average() {
        let benches: Vec<_> = memory_intensive()
            .into_iter()
            .filter(|b| matches!(b.name, "health" | "twolf" | "ammp"))
            .collect();
        let cfg = RunConfig::quick().with_accesses(400_000);
        let rows = for_each_benchmark(&benches, |b| {
            let base = run_baseline(b, &cfg, 1 << 20);
            let sfp = run(b, &cfg, || SfpCache::new(SfpConfig::sfp_16k()));
            let ldis = run(b, &cfg, || {
                DistillCache::new(DistillConfig::hpca2007_default())
            });
            Fig13Row {
                benchmark: b.name.to_owned(),
                base: base.mpki,
                sfp_16k: sfp.mpki,
                sfp_64k: f64::NAN,
                ldis: ldis.mpki,
                sfp_16k_l2: sfp.l2,
                sfp_64k_l2: L2Stats::default(),
            }
        });
        let avg = |f: fn(&Fig13Row) -> f64| {
            let reductions = rows.iter().map(|r| percent_reduction(r.base, f(r)));
            reductions.sum::<f64>() / rows.len() as f64
        };
        let (avg_sfp, avg_ldis) = (avg(|r| r.sfp_16k), avg(|r| r.ldis));
        assert!(
            avg_ldis > avg_sfp,
            "LDIS {avg_ldis}% must beat SFP {avg_sfp}% on sparse workloads"
        );
    }

    #[test]
    fn sfp_still_reduces_misses_somewhere() {
        let b = spec2000::by_name("health").unwrap();
        let cfg = RunConfig::quick().with_accesses(400_000);
        let base = run_baseline(&b, &cfg, 1 << 20);
        let sfp = run(&b, &cfg, || SfpCache::new(SfpConfig::sfp_64k()));
        assert!(
            sfp.mpki < base.mpki,
            "SFP should still beat the baseline on health: {} vs {}",
            sfp.mpki,
            base.mpki
        );
    }

    #[test]
    fn report_renders() {
        let rows = vec![Fig13Row {
            benchmark: "x".into(),
            base: 5.0,
            sfp_16k: 4.5,
            sfp_64k: 4.4,
            ldis: 3.5,
            sfp_16k_l2: L2Stats::default(),
            sfp_64k_l2: L2Stats::default(),
        }];
        assert!(report(&rows).contains("SFP-64k"));
    }
}
