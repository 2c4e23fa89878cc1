//! Figure 7: breakdown of cache accesses into hit/miss classes for the
//! baseline cache and the distill cache.

use crate::report::{fmt_f, Json, Table};
use crate::{for_each_benchmark, run, run_baseline, RunConfig};
use ldis_distill::{DistillCache, DistillConfig};
use ldis_workloads::memory_intensive;

/// Access-outcome fractions for one benchmark under both organizations.
#[derive(Clone, Debug)]
pub struct Fig7Row {
    /// Benchmark name.
    pub benchmark: String,
    /// Baseline hit fraction of L2 accesses.
    pub base_hit: f64,
    /// Distill-cache LOC-hit fraction.
    pub loc_hit: f64,
    /// Distill-cache WOC-hit fraction.
    pub woc_hit: f64,
    /// Distill-cache hole-miss fraction.
    pub hole_miss: f64,
    /// Distill-cache line-miss fraction.
    pub line_miss: f64,
    /// Extra L2 accesses of the distill cache relative to the baseline
    /// (the Section 7.2 footnote: sector misses add accesses).
    pub extra_access_pct: f64,
}

/// Runs the Figure 7 comparison (baseline vs. LDIS-MT-RC).
pub fn data(cfg: &RunConfig) -> Vec<Fig7Row> {
    let benches = memory_intensive();
    for_each_benchmark(&benches, |b| {
        let base = run_baseline(b, cfg, 1 << 20);
        let dist = run(b, cfg, || {
            DistillCache::new(DistillConfig::hpca2007_default())
        });
        let da = dist.l2.accesses as f64;
        Fig7Row {
            benchmark: b.name.to_owned(),
            base_hit: base.l2.hit_rate(),
            loc_hit: dist.l2.loc_hits as f64 / da,
            woc_hit: dist.l2.woc_hits as f64 / da,
            hole_miss: dist.l2.hole_misses as f64 / da,
            line_miss: dist.l2.line_misses as f64 / da,
            extra_access_pct: (da / base.l2.accesses as f64 - 1.0) * 100.0,
        }
    })
}

/// The golden snapshot (compared against `tests/golden/fig7.json`): the
/// hit/miss fractions of both organizations at full precision.
pub fn snapshot(cfg: &RunConfig) -> Json {
    let rows = data(cfg)
        .iter()
        .map(|r| {
            Json::obj([
                ("benchmark", Json::str(&r.benchmark)),
                ("base_hit", Json::num(r.base_hit)),
                ("loc_hit", Json::num(r.loc_hit)),
                ("woc_hit", Json::num(r.woc_hit)),
                ("hole_miss", Json::num(r.hole_miss)),
                ("line_miss", Json::num(r.line_miss)),
                ("extra_access_pct", Json::num(r.extra_access_pct)),
            ])
        })
        .collect::<Vec<_>>();
    Json::obj([
        ("experiment", Json::str("fig7")),
        ("accesses", Json::uint(cfg.accesses)),
        ("seed", Json::uint(cfg.seed)),
        ("rows", Json::Arr(rows)),
    ])
}

/// Renders the Figure 7 report.
pub fn report(rows: &[Fig7Row]) -> String {
    let mut t = Table::new(
        "Figure 7: breakdown of L2 accesses (fractions); (a) baseline (b) distill cache",
        &[
            "bench",
            "base-hit",
            "LOC-hit",
            "WOC-hit",
            "hole-miss",
            "line-miss",
            "extra-acc%",
        ],
    );
    for r in rows {
        t.row(vec![
            r.benchmark.clone(),
            fmt_f(r.base_hit, 3),
            fmt_f(r.loc_hit, 3),
            fmt_f(r.woc_hit, 3),
            fmt_f(r.hole_miss, 3),
            fmt_f(r.line_miss, 3),
            fmt_f(r.extra_access_pct, 2),
        ]);
    }
    t.note("paper: mcf triples its hits via the WOC; art gains hits but ~half its misses become hole misses");
    t.render()
}

#[cfg(test)]
mod tests {
    use super::*;
    use ldis_workloads::spec2000;

    fn row_for(name: &str, accesses: u64) -> Fig7Row {
        let b = spec2000::by_name(name).unwrap();
        let cfg = RunConfig::quick().with_accesses(accesses);
        let base = run_baseline(&b, &cfg, 1 << 20);
        let dist = run(&b, &cfg, || {
            DistillCache::new(DistillConfig::hpca2007_default())
        });
        let da = dist.l2.accesses as f64;
        Fig7Row {
            benchmark: name.to_owned(),
            base_hit: base.l2.hit_rate(),
            loc_hit: dist.l2.loc_hits as f64 / da,
            woc_hit: dist.l2.woc_hits as f64 / da,
            hole_miss: dist.l2.hole_misses as f64 / da,
            line_miss: dist.l2.line_misses as f64 / da,
            extra_access_pct: (da / base.l2.accesses as f64 - 1.0) * 100.0,
        }
    }

    #[test]
    fn fractions_sum_to_one() {
        let r = row_for("twolf", 200_000);
        let sum = r.loc_hit + r.woc_hit + r.hole_miss + r.line_miss;
        assert!((sum - 1.0).abs() < 1e-9, "sum {sum}");
    }

    #[test]
    fn pointer_chase_gains_come_from_the_woc() {
        let r = row_for("health", 400_000);
        assert!(
            r.woc_hit > 0.1,
            "health should get substantial WOC hits, got {}",
            r.woc_hit
        );
        assert!(
            r.loc_hit + r.woc_hit > r.base_hit,
            "distill hits {} + {} should beat baseline {}",
            r.loc_hit,
            r.woc_hit,
            r.base_hit
        );
    }

    #[test]
    fn art_suffers_hole_misses() {
        let r = row_for("art", 400_000);
        assert!(
            r.hole_miss > 0.05,
            "art's rotating words must produce hole misses, got {}",
            r.hole_miss
        );
    }

    #[test]
    fn report_renders() {
        let r = row_for("apsi", 100_000);
        assert!(report(&[r]).contains("WOC-hit"));
    }
}
