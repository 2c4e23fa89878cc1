//! Fault-injection campaign: soft-error rates × protection schemes.
//!
//! For each benchmark the campaign first runs a fault-free distill cache,
//! then sweeps every [`ProtectionScheme`] across a range of per-access
//! fault rates with the self-checker enabled. The report shows the MPKI
//! cost of corrupted metadata, the coverage each scheme achieves, and
//! whether the cache fell back to traditional mode. Everything derives
//! from the run seed: the same seed and rate reproduce the campaign
//! byte for byte.

use crate::report::{fmt_f, Json, Table};
use crate::runner::drive;
use crate::{for_each_benchmark, RunConfig};
use ldis_cache::{FaultStats, ProtectionScheme};
use ldis_distill::{DistillCache, DistillConfig, ResilienceConfig};
use ldis_workloads::{memory_intensive, Benchmark};

/// The swept per-access fault rates (0 is the fault-free reference).
pub const FAULT_RATES: &[f64] = &[1e-5, 1e-4, 1e-3];

/// The swept protection schemes.
pub const SCHEMES: &[ProtectionScheme] = &[
    ProtectionScheme::Unprotected,
    ProtectionScheme::Parity,
    ProtectionScheme::Secded,
];

/// One benchmark × scheme × rate campaign point.
#[derive(Clone, Debug)]
pub struct ResiliencePoint {
    /// Benchmark name.
    pub benchmark: String,
    /// Protection scheme under test.
    pub scheme: ProtectionScheme,
    /// Injected faults per access.
    pub fault_rate: f64,
    /// Demand MPKI under faults.
    pub mpki: f64,
    /// MPKI of the fault-free run of the same benchmark.
    pub mpki_fault_free: f64,
    /// Fault accounting (injection and fate counters).
    pub faults: FaultStats,
    /// Entries in the degradation log.
    pub events: u64,
    /// Whether the cache force-reverted to traditional mode.
    pub degraded: bool,
}

impl ResiliencePoint {
    /// MPKI increase over the fault-free run, in percent.
    pub fn mpki_delta_pct(&self) -> f64 {
        if self.mpki_fault_free == 0.0 {
            0.0
        } else {
            (self.mpki - self.mpki_fault_free) / self.mpki_fault_free * 100.0
        }
    }
}

/// The campaign's benchmark subset: one sparse pointer chase, one mixed
/// workload and one dense-footprint workload keep the sweep affordable
/// while exercising every distillation mechanism.
fn subset() -> Vec<Benchmark> {
    memory_intensive()
        .into_iter()
        .filter(|b| matches!(b.name, "health" | "twolf" | "swim"))
        .collect()
}

fn run_point(
    benchmark: &Benchmark,
    cfg: &RunConfig,
    resilience: Option<ResilienceConfig>,
) -> (f64, FaultStats, u64, bool) {
    let mut dc = DistillCache::new(DistillConfig::hpca2007_default());
    if let Some(rcfg) = resilience {
        dc = dc.with_resilience(rcfg);
    }
    let hier = drive(benchmark, cfg, dc);
    let mpki = hier.mpki();
    match hier.l2().health() {
        Some(h) => (mpki, h.faults, h.events.len() as u64, h.degraded),
        None => (mpki, FaultStats::default(), 0, false),
    }
}

/// Runs the full campaign: per benchmark, a fault-free reference plus
/// every scheme × rate combination. Deterministic in `cfg.seed`.
pub fn data(cfg: &RunConfig) -> Vec<ResiliencePoint> {
    let benches = subset();
    let per_bench = for_each_benchmark(&benches, |b| {
        let (fault_free, _, _, _) = run_point(b, cfg, None);
        let mut points = Vec::new();
        for &scheme in SCHEMES {
            for &rate in FAULT_RATES {
                let rcfg = ResilienceConfig::default()
                    .with_fault_rate(rate)
                    .with_protection(scheme)
                    .with_seed(cfg.seed);
                let (mpki, faults, events, degraded) = run_point(b, cfg, Some(rcfg));
                points.push(ResiliencePoint {
                    benchmark: b.name.to_owned(),
                    scheme,
                    fault_rate: rate,
                    mpki,
                    mpki_fault_free: fault_free,
                    faults,
                    events,
                    degraded,
                });
            }
        }
        points
    });
    per_bench.into_iter().flatten().collect()
}

/// The golden snapshot: every campaign point's MPKI, fault accounting and
/// degradation outcome at the given configuration. Compared against
/// `tests/golden/resilience.json`.
pub fn snapshot(cfg: &RunConfig) -> Json {
    let rows = data(cfg).into_iter().map(|p| {
        Json::obj([
            ("benchmark", Json::str(p.benchmark.clone())),
            ("scheme", Json::str(p.scheme.to_string())),
            ("fault_rate", Json::num(p.fault_rate)),
            ("mpki", Json::num(p.mpki)),
            ("mpki_fault_free", Json::num(p.mpki_fault_free)),
            ("injected", Json::uint(p.faults.injected)),
            ("corrected", Json::uint(p.faults.corrected)),
            ("detected", Json::uint(p.faults.detected)),
            ("silent", Json::uint(p.faults.silent)),
            ("masked", Json::uint(p.faults.masked)),
            ("events", Json::uint(p.events)),
            ("degraded", Json::Bool(p.degraded)),
        ])
    });
    Json::obj([
        ("experiment", Json::str("resilience")),
        ("accesses", Json::uint(cfg.accesses)),
        ("seed", Json::uint(cfg.seed)),
        ("rows", Json::arr(rows)),
    ])
}

/// Renders the campaign as a resilience report.
pub fn report(points: &[ResiliencePoint]) -> String {
    let mut t = Table::new(
        "Resilience campaign — metadata soft errors vs. protection scheme",
        &[
            "bench", "protect", "rate", "mpki", "Δmpki", "inject", "corr", "detect", "silent",
            "masked", "cover", "events", "mode",
        ],
    );
    for p in points {
        t.row(vec![
            p.benchmark.clone(),
            p.scheme.to_string(),
            format!("{:.0e}", p.fault_rate),
            fmt_f(p.mpki, 3),
            format!("{:+.2}%", p.mpki_delta_pct()),
            p.faults.injected.to_string(),
            p.faults.corrected.to_string(),
            p.faults.detected.to_string(),
            p.faults.silent.to_string(),
            p.faults.masked.to_string(),
            fmt_f(p.faults.coverage(), 2),
            p.events.to_string(),
            if p.degraded { "degraded" } else { "distill" }.to_owned(),
        ]);
    }
    t.note("Δmpki is relative to the fault-free run of the same benchmark.");
    t.note("cover = (corrected + detected) / observable faults; masked faults hit dead state.");
    t.note("mode 'degraded' = the cache fell back to a traditional organization.");
    t.render()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny_cfg() -> RunConfig {
        RunConfig::quick().with_accesses(30_000)
    }

    #[test]
    fn campaign_is_deterministic() {
        let cfg = tiny_cfg();
        let a = report(&data(&cfg));
        let b = report(&data(&cfg));
        assert_eq!(a, b, "same seed and rates must reproduce byte for byte");
    }

    #[test]
    fn campaign_covers_the_full_matrix() {
        let points = data(&tiny_cfg());
        assert_eq!(points.len(), 3 * SCHEMES.len() * FAULT_RATES.len());
        // Every point carries its fault-free reference for the delta.
        for p in &points {
            assert!(
                p.mpki_fault_free > 0.0,
                "{}: reference must run",
                p.benchmark
            );
        }
    }

    #[test]
    fn secded_never_degrades_and_has_full_coverage() {
        let points = data(&tiny_cfg());
        for p in points
            .iter()
            .filter(|p| p.scheme == ProtectionScheme::Secded)
        {
            assert!(
                !p.degraded,
                "{}: SECDED corrects every single-bit flip",
                p.benchmark
            );
            assert_eq!(p.faults.silent, 0);
            assert_eq!(p.faults.detected, 0);
            assert!((p.faults.coverage() - 1.0).abs() < 1e-12);
        }
    }

    #[test]
    fn high_rate_parity_detects_and_logs() {
        let points = data(&tiny_cfg());
        let p = points
            .iter()
            .find(|p| p.scheme == ProtectionScheme::Parity && p.fault_rate == 1e-3)
            .expect("matrix includes parity at 1e-3");
        assert!(p.faults.injected > 0);
        assert!(p.faults.detected > 0, "parity detects observable flips");
        assert_eq!(p.faults.silent, 0, "parity never misses a single-bit flip");
        assert!(p.events > 0, "detections are logged");
    }

    #[test]
    fn report_renders_every_point() {
        let cfg = tiny_cfg();
        let points = data(&cfg);
        let text = report(&points);
        assert_eq!(
            text.lines().filter(|l| l.contains("e-")).count(),
            points.len(),
            "one row per campaign point"
        );
        assert!(text.contains("parity"));
        assert!(text.contains("secded"));
    }
}
