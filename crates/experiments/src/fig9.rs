//! Figure 9: system IPC improvement with the distill cache.

use crate::golden;
use crate::report::{fmt_f, fmt_pct, Json, Table};
use crate::{baseline_config, for_each_benchmark, run_timed, RunConfig};
use ldis_cache::BaselineL2;
use ldis_distill::{DistillCache, DistillConfig};
use ldis_mem::stats::{gmean_percent, percent_improvement};
use ldis_timing::L2Timing;
use ldis_workloads::{memory_intensive, Benchmark};

/// IPC of the baseline and distill systems for one benchmark.
#[derive(Clone, Debug)]
pub struct Fig9Row {
    /// Benchmark name.
    pub benchmark: String,
    /// Baseline IPC.
    pub base_ipc: f64,
    /// Distill-cache IPC (with +1 tag cycle, +2 rearrangement cycles).
    pub distill_ipc: f64,
}

impl Fig9Row {
    /// Percentage IPC improvement.
    pub fn improvement(&self) -> f64 {
        percent_improvement(self.base_ipc, self.distill_ipc)
    }
}

/// Runs the Figure 9 matrix: both timed systems per benchmark.
pub fn data(cfg: &RunConfig) -> Vec<Fig9Row> {
    for_each_benchmark(&memory_intensive(), |b| row(b, cfg))
}

/// Both timed systems of one benchmark.
fn row(b: &Benchmark, cfg: &RunConfig) -> Fig9Row {
    let base = BaselineL2::new(baseline_config(1 << 20));
    let dist = DistillCache::new(DistillConfig::hpca2007_default());
    Fig9Row {
        benchmark: b.name.to_owned(),
        base_ipc: run_timed(b, cfg, base, L2Timing::baseline()).ipc(),
        distill_ipc: run_timed(b, cfg, dist, L2Timing::distill()).ipc(),
    }
}

/// The golden snapshot (compared against `tests/golden/fig9.json`): the
/// timed IPC of both systems at full precision.
pub fn snapshot(cfg: &RunConfig) -> Json {
    let rows = data(cfg).into_iter().map(|r| {
        Json::obj([
            ("benchmark", Json::str(&r.benchmark)),
            ("base_ipc", Json::num(r.base_ipc)),
            ("distill_ipc", Json::num(r.distill_ipc)),
        ])
    });
    golden::snapshot("fig9", cfg, [], rows)
}

/// Geometric mean of the per-benchmark IPC improvements (the paper's
/// `gmean` bar).
pub fn gmean_improvement(rows: &[Fig9Row]) -> f64 {
    let imps: Vec<f64> = rows.iter().map(Fig9Row::improvement).collect();
    gmean_percent(&imps)
}

/// Renders the Figure 9 report.
pub fn report(rows: &[Fig9Row]) -> String {
    let mut t = Table::new(
        "Figure 9: system IPC improvement with the distill cache",
        &["bench", "base-ipc", "distill-ipc", "improvement"],
    );
    for r in rows {
        t.row(vec![
            r.benchmark.clone(),
            fmt_f(r.base_ipc, 3),
            fmt_f(r.distill_ipc, 3),
            fmt_pct(r.improvement()),
        ]);
    }
    t.row(vec![
        "gmean".into(),
        String::new(),
        String::new(),
        fmt_pct(gmean_improvement(rows)),
    ]);
    t.note("paper: gmean +12%; art/mcf/twolf/ammp/health above +30%; gcc slightly negative (extra tag cycle)");
    t.render()
}

#[cfg(test)]
mod tests {
    use super::*;
    use ldis_workloads::spec2000;

    fn ipc_pair(name: &str, accesses: u64) -> Fig9Row {
        let b = spec2000::by_name(name).unwrap();
        row(&b, &RunConfig::quick().with_accesses(accesses))
    }

    #[test]
    fn health_ipc_improves_substantially() {
        let r = ipc_pair("health", 300_000);
        assert!(
            r.improvement() > 15.0,
            "health IPC improvement {} too small",
            r.improvement()
        );
    }

    #[test]
    fn swim_ipc_roughly_flat_with_reverter() {
        let r = ipc_pair("swim", 300_000);
        assert!(
            r.improvement() > -12.0,
            "reverter should keep swim's loss small, got {}",
            r.improvement()
        );
    }

    #[test]
    fn gmean_math() {
        let rows = vec![
            Fig9Row {
                benchmark: "a".into(),
                base_ipc: 1.0,
                distill_ipc: 1.1,
            },
            Fig9Row {
                benchmark: "b".into(),
                base_ipc: 2.0,
                distill_ipc: 2.2,
            },
        ];
        let g = gmean_improvement(&rows);
        assert!((g - 10.0).abs() < 1e-9, "gmean {g}");
        assert!(report(&rows).contains("gmean"));
    }
}
