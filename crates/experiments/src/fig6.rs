//! Figure 6: reduction in MPKI with the three LDIS configurations.

use crate::report::{fmt_f, fmt_pct, Json, Table};
use crate::{for_each_benchmark, run, run_baseline, RunConfig};
use ldis_distill::{DistillCache, DistillConfig};
use ldis_mem::stats::percent_reduction;
use ldis_workloads::memory_intensive;

/// Per-benchmark MPKI under the baseline and the three LDIS configurations.
#[derive(Clone, Debug)]
pub struct Fig6Row {
    /// Benchmark name.
    pub benchmark: String,
    /// Baseline 1 MB MPKI.
    pub base: f64,
    /// LDIS-Base MPKI.
    pub ldis_base: f64,
    /// LDIS-MT MPKI.
    pub ldis_mt: f64,
    /// LDIS-MT-RC MPKI.
    pub ldis_mt_rc: f64,
}

impl Fig6Row {
    /// Percentage MPKI reductions (base, MT, MT-RC) relative to baseline.
    pub fn reductions(&self) -> (f64, f64, f64) {
        (
            percent_reduction(self.base, self.ldis_base),
            percent_reduction(self.base, self.ldis_mt),
            percent_reduction(self.base, self.ldis_mt_rc),
        )
    }
}

/// Runs the Figure 6 matrix: 16 benchmarks × 4 configurations.
pub fn data(cfg: &RunConfig) -> Vec<Fig6Row> {
    let benches = memory_intensive();
    for_each_benchmark(&benches, |b| {
        let base = run_baseline(b, cfg, 1 << 20);
        let ldis_base = run(b, cfg, || DistillCache::new(DistillConfig::ldis_base()));
        let ldis_mt = run(b, cfg, || DistillCache::new(DistillConfig::ldis_mt()));
        let ldis_mt_rc = run(b, cfg, || DistillCache::new(DistillConfig::ldis_mt_rc()));
        Fig6Row {
            benchmark: b.name.to_owned(),
            base: base.mpki,
            ldis_base: ldis_base.mpki,
            ldis_mt: ldis_mt.mpki,
            ldis_mt_rc: ldis_mt_rc.mpki,
        }
    })
}

/// The golden snapshot (compared against `tests/golden/fig6.json`): the
/// four MPKIs per benchmark at full precision.
pub fn snapshot(cfg: &RunConfig) -> Json {
    let rows = data(cfg)
        .iter()
        .map(|r| {
            Json::obj([
                ("benchmark", Json::str(&r.benchmark)),
                ("base_mpki", Json::num(r.base)),
                ("ldis_base_mpki", Json::num(r.ldis_base)),
                ("ldis_mt_mpki", Json::num(r.ldis_mt)),
                ("ldis_mt_rc_mpki", Json::num(r.ldis_mt_rc)),
            ])
        })
        .collect::<Vec<_>>();
    Json::obj([
        ("experiment", Json::str("fig6")),
        ("accesses", Json::uint(cfg.accesses)),
        ("seed", Json::uint(cfg.seed)),
        ("rows", Json::Arr(rows)),
    ])
}

/// The paper's summary metric: percentage reduction of the *arithmetic
/// mean* MPKI over the given rows, per configuration.
pub fn mean_mpki_reductions(rows: &[Fig6Row]) -> (f64, f64, f64) {
    let n = rows.len() as f64;
    let mean = |f: fn(&Fig6Row) -> f64| rows.iter().map(f).sum::<f64>() / n;
    let base = mean(|r| r.base);
    (
        percent_reduction(base, mean(|r| r.ldis_base)),
        percent_reduction(base, mean(|r| r.ldis_mt)),
        percent_reduction(base, mean(|r| r.ldis_mt_rc)),
    )
}

/// Renders the Figure 6 report.
pub fn report(rows: &[Fig6Row]) -> String {
    let mut t = Table::new(
        "Figure 6: % reduction in MPKI with three LDIS configurations",
        &["bench", "base-mpki", "LDIS-Base", "LDIS-MT", "LDIS-MT-RC"],
    );
    for r in rows {
        let (b, mt, rc) = r.reductions();
        t.row(vec![
            r.benchmark.clone(),
            fmt_f(r.base, 2),
            fmt_pct(b),
            fmt_pct(mt),
            fmt_pct(rc),
        ]);
    }
    let all = mean_mpki_reductions(rows);
    let no_mcf: Vec<Fig6Row> = rows
        .iter()
        .filter(|r| r.benchmark != "mcf")
        .cloned()
        .collect();
    let nomcf = mean_mpki_reductions(&no_mcf);
    t.row(vec![
        "avg".into(),
        String::new(),
        fmt_pct(all.0),
        fmt_pct(all.1),
        fmt_pct(all.2),
    ]);
    t.row(vec![
        "avgNomcf".into(),
        String::new(),
        fmt_pct(nomcf.0),
        fmt_pct(nomcf.1),
        fmt_pct(nomcf.2),
    ]);
    t.note("paper: LDIS-Base 22.8%, LDIS-MT-RC 30.7% mean-MPKI reduction; swim pathological without the reverter");
    t.render()
}

#[cfg(test)]
mod tests {
    use super::*;
    use ldis_workloads::spec2000;

    #[test]
    fn reverter_clamps_the_swim_pathology() {
        let b = spec2000::by_name("swim").unwrap();
        let cfg = RunConfig::quick().with_accesses(400_000);
        let base = run_baseline(&b, &cfg, 1 << 20);
        let no_rc = run(&b, &cfg, || DistillCache::new(DistillConfig::ldis_mt()));
        let rc = run(&b, &cfg, || DistillCache::new(DistillConfig::ldis_mt_rc()));
        assert!(
            no_rc.mpki > base.mpki * 1.3,
            "LDIS without reverter must hurt swim: {} vs {}",
            no_rc.mpki,
            base.mpki
        );
        assert!(
            rc.mpki < no_rc.mpki * 0.75,
            "reverter must recover most of the loss: {} vs {}",
            rc.mpki,
            no_rc.mpki
        );
    }

    #[test]
    fn ldis_helps_pointer_chasing() {
        let b = spec2000::by_name("health").unwrap();
        let cfg = RunConfig::quick().with_accesses(400_000);
        let base = run_baseline(&b, &cfg, 1 << 20);
        let mt = run(&b, &cfg, || DistillCache::new(DistillConfig::ldis_mt()));
        let red = percent_reduction(base.mpki, mt.mpki);
        assert!(red > 25.0, "health reduction {red}% too small");
    }

    #[test]
    fn report_includes_summary_rows() {
        let rows = vec![
            Fig6Row {
                benchmark: "a".into(),
                base: 10.0,
                ldis_base: 8.0,
                ldis_mt: 7.0,
                ldis_mt_rc: 7.0,
            },
            Fig6Row {
                benchmark: "mcf".into(),
                base: 100.0,
                ldis_base: 90.0,
                ldis_mt: 80.0,
                ldis_mt_rc: 80.0,
            },
        ];
        let (b, mt, rc) = mean_mpki_reductions(&rows);
        assert!((b - (110.0 - 98.0) / 110.0 * 100.0).abs() < 1e-9);
        assert!(mt > b);
        assert_eq!(mt, rc);
        let s = report(&rows);
        assert!(s.contains("avgNomcf"));
    }
}
