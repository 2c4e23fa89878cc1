//! The benchmark's cells: which benchmark runs against which L2
//! organization, the repository's own entry point for each, and the
//! outputs the correctness checks compare.

use ldis_cache::{BaselineL2, Hierarchy, HierarchyStats, L2Stats, SecondLevel};
use ldis_compress::{fac_cache, CmprCache, CmprConfig, ValueSizeModel};
use ldis_distill::{DistillCache, DistillConfig, WordStore};
use ldis_experiments::sweep::{self, SweepConfig};
use ldis_experiments::{
    baseline_config, mrc, run, run_capacity_sweep, run_sampled_capacity_sweep, RunConfig,
};
use ldis_mem::LineGeometry;
use ldis_mrc::{ConfigResult, MattsonL2, ShardsConfig, ShardsL2};
use ldis_sfp::{SfpCache, SfpConfig};
use ldis_timing::{workload_factors, L2Timing, SystemConfig, TimingResult, TimingSim};
use ldis_workloads::{memory_intensive, Benchmark};

/// SHARDS sampling rate of the `capacity` workload.
pub const SHARDS_RATE: f64 = 0.01;

/// An L2 organization of one cell. Timed organizations run under the
/// Figure 9 timing model.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Org {
    Baseline,
    LdisBase,
    LdisMtRc,
    Mattson,
    Shards,
    Cmpr,
    Fac,
    Sfp,
    TimedBaseline,
    TimedLdis,
}

impl Org {
    /// Every organization, in report order.
    pub const ALL: [Org; 10] = [
        Org::Baseline,
        Org::LdisBase,
        Org::LdisMtRc,
        Org::Mattson,
        Org::Shards,
        Org::Cmpr,
        Org::Fac,
        Org::Sfp,
        Org::TimedBaseline,
        Org::TimedLdis,
    ];

    /// The key of the organization's simulated counts (`sim.<key>.*`).
    pub fn key(self) -> &'static str {
        match self {
            Org::Baseline => "baseline",
            Org::LdisBase => "ldis_base",
            Org::LdisMtRc => "ldis_mt_rc",
            Org::Mattson => "mattson",
            Org::Shards => "shards",
            Org::Cmpr => "cmpr",
            Org::Fac => "fac",
            Org::Sfp => "sfp",
            Org::TimedBaseline => "timed_baseline",
            Org::TimedLdis => "timed_ldis",
        }
    }

    /// The per-call metric prefix of the organization's L2 code. Timed
    /// cells share the code, and so the prefix, of their untimed twin.
    pub fn l2_metric(self) -> &'static str {
        match self {
            Org::Baseline | Org::TimedBaseline => "cache.baseline",
            Org::LdisBase => "distill.ldis_base",
            Org::LdisMtRc | Org::TimedLdis => "distill.ldis_mt_rc",
            Org::Mattson => "mrc.mattson",
            Org::Shards => "mrc.shards",
            Org::Cmpr => "compress.cmpr",
            Org::Fac => "compress.fac",
            Org::Sfp => "sfp",
        }
    }

    /// The crate that constructs the organization's L2.
    pub fn layer(self) -> &'static str {
        match self {
            Org::Baseline | Org::TimedBaseline => "cache",
            Org::LdisBase | Org::LdisMtRc | Org::TimedLdis => "distill",
            Org::Mattson | Org::Shards => "mrc",
            Org::Cmpr | Org::Fac => "compress",
            Org::Sfp => "sfp",
        }
    }

    /// Whether the L2 is a `DistillCache` (LOC/WOC, median, reverter).
    pub fn is_distill(self) -> bool {
        matches!(
            self,
            Org::LdisBase | Org::LdisMtRc | Org::TimedLdis | Org::Fac
        )
    }

    /// The Figure 9 L2 latencies of a timed organization.
    pub fn l2_timing(self) -> Option<L2Timing> {
        match self {
            Org::TimedBaseline => Some(L2Timing::baseline()),
            Org::TimedLdis => Some(L2Timing::distill()),
            _ => None,
        }
    }

    fn sweep_config(self) -> Option<SweepConfig> {
        match self {
            Org::Baseline => Some(SweepConfig::Baseline),
            Org::LdisBase => Some(SweepConfig::LdisBase),
            Org::LdisMtRc => Some(SweepConfig::LdisMtRc),
            _ => None,
        }
    }
}

/// One benchmark × organization cell.
#[derive(Clone, Copy, Debug)]
pub struct Spec {
    pub benchmark: Benchmark,
    pub org: Org,
}

/// The three workloads.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum WorkloadKind {
    Sweep,
    Capacity,
    Compare,
}

/// The organizations of each workload, in the order of `sweep::CONFIGS`
/// for `sweep`.
const SWEEP_ORGS: [Org; 3] = [Org::Baseline, Org::LdisBase, Org::LdisMtRc];
const CAPACITY_ORGS: [Org; 2] = [Org::Mattson, Org::Shards];
const COMPARE_ORGS: [Org; 5] = [
    Org::Cmpr,
    Org::Fac,
    Org::Sfp,
    Org::TimedBaseline,
    Org::TimedLdis,
];

impl WorkloadKind {
    pub fn parse(name: &str) -> Option<WorkloadKind> {
        match name {
            "sweep" => Some(WorkloadKind::Sweep),
            "capacity" => Some(WorkloadKind::Capacity),
            "compare" => Some(WorkloadKind::Compare),
            _ => None,
        }
    }

    pub fn name(self) -> &'static str {
        match self {
            WorkloadKind::Sweep => "sweep",
            WorkloadKind::Capacity => "capacity",
            WorkloadKind::Compare => "compare",
        }
    }

    /// Accesses per measured cell: the goldens' 150 000, and half that for
    /// the memory-bound MRC passes, so that a run repeats every cell often
    /// enough for its floor to be steady.
    pub fn accesses(self) -> u64 {
        match self {
            WorkloadKind::Sweep | WorkloadKind::Compare => 150_000,
            WorkloadKind::Capacity => 75_000,
        }
    }

    /// The workload's benchmark × organization matrix.
    pub fn matrix(self) -> (Vec<Benchmark>, &'static [Org]) {
        match self {
            WorkloadKind::Sweep => (sweep::benchmarks(), &SWEEP_ORGS),
            WorkloadKind::Capacity => (mrc::all_benchmarks(), &CAPACITY_ORGS),
            WorkloadKind::Compare => (memory_intensive(), &COMPARE_ORGS),
        }
    }

    /// The workload's cells in canonical (benchmark-major) order, which
    /// for `sweep` is `sweep::cells()`'s.
    pub fn specs(self) -> Vec<Spec> {
        let (benchmarks, orgs) = self.matrix();
        benchmarks
            .iter()
            .flat_map(|&benchmark| orgs.iter().map(move |&org| Spec { benchmark, org }))
            .collect()
    }
}

/// What a finished cell produced. Traced and untraced runs of a cell must
/// produce equal outputs.
#[derive(Clone, Debug, PartialEq)]
pub enum Output {
    /// A plain run (`runner::run`): the L2 and hierarchy statistics.
    Run {
        l2: L2Stats,
        hier: HierarchyStats,
        mpki: f64,
    },
    /// One Mattson pass: the reconstructed counters at every MRC size.
    Mattson {
        hier: HierarchyStats,
        points: Vec<ConfigResult>,
    },
    /// One SHARDS pass: the estimated MPKI at every MRC size.
    Shards {
        hier: HierarchyStats,
        mpki: Vec<f64>,
        peak_samples: usize,
    },
    /// A timed run (`TimingSim`).
    Timed {
        l2: L2Stats,
        hier: HierarchyStats,
        result: TimingResult,
    },
}

impl Output {
    pub fn hier(&self) -> &HierarchyStats {
        match self {
            Output::Run { hier, .. }
            | Output::Mattson { hier, .. }
            | Output::Shards { hier, .. }
            | Output::Timed { hier, .. } => hier,
        }
    }

    /// The L2 statistics, where the cell's entry point exposes them.
    pub fn l2(&self) -> Option<&L2Stats> {
        match self {
            Output::Run { l2, .. } | Output::Timed { l2, .. } => Some(l2),
            Output::Mattson { .. } | Output::Shards { .. } => None,
        }
    }
}

/// Layer counters that are not part of a cell's compared output.
#[derive(Clone, Copy, Debug, Default)]
pub struct Extra {
    pub sampled_refs: u64,
    pub total_refs: u64,
}

/// An L2 organization whose finished state yields a cell [`Output`].
pub trait Outputs: SecondLevel {
    /// The output of a finished untimed cell with first-level stats `hier`.
    fn output(&self, hier: HierarchyStats) -> Output {
        Output::Run {
            l2: self.stats().clone(),
            hier,
            mpki: self.stats().mpki(hier.instructions),
        }
    }

    fn extra(&self) -> Extra {
        Extra::default()
    }
}

impl Outputs for BaselineL2 {}
impl Outputs for CmprCache {}
impl Outputs for SfpCache {}
impl<W: WordStore> Outputs for DistillCache<W> {}

impl Outputs for MattsonL2 {
    fn output(&self, hier: HierarchyStats) -> Output {
        Output::Mattson {
            hier,
            points: self
                .configs()
                .iter()
                .filter_map(|c| self.result_for(c))
                .collect(),
        }
    }
}

impl Outputs for ShardsL2 {
    fn output(&self, hier: HierarchyStats) -> Output {
        let curve = self.mrc();
        let line_bytes = self.geometry().line_bytes() as u64;
        Output::Shards {
            hier,
            mpki: mrc::MRC_SIZES
                .iter()
                .map(|&s| curve.estimated_mpki(s / line_bytes, hier.instructions))
                .collect(),
            peak_samples: self.profiler().peak_samples(),
        }
    }

    fn extra(&self) -> Extra {
        let p = self.profiler();
        Extra {
            sampled_refs: p.sampled_refs(),
            total_refs: p.total_refs(),
        }
    }
}

/// Something done with one cell's L2 constructor, whatever the L2's type.
pub trait WithL2 {
    type Out;
    fn with<L: Outputs>(self, spec: &Spec, make: &dyn Fn() -> L) -> Self::Out;
}

/// Calls `v` with the constructor of `spec`'s L2, configured as the
/// figure that organization comes from (Figures 6, 8, 9, 11 and 13).
pub fn with_l2<V: WithL2>(spec: &Spec, cfg: &RunConfig, v: V) -> V::Out {
    let b = spec.benchmark;
    let seed = cfg.seed;
    match spec.org {
        Org::Baseline | Org::TimedBaseline => {
            v.with(spec, &|| BaselineL2::new(baseline_config(1 << 20)))
        }
        Org::LdisBase => v.with(spec, &|| DistillCache::new(DistillConfig::ldis_base())),
        Org::LdisMtRc => v.with(spec, &|| DistillCache::new(DistillConfig::ldis_mt_rc())),
        Org::TimedLdis => v.with(spec, &|| {
            DistillCache::new(DistillConfig::hpca2007_default())
        }),
        Org::Mattson => v.with(spec, &|| MattsonL2::for_configs(&mattson_configs())),
        Org::Shards => v.with(spec, &|| {
            ShardsL2::new(LineGeometry::default(), ShardsConfig::at_rate(SHARDS_RATE))
        }),
        Org::Cmpr => v.with(spec, &|| {
            CmprCache::new(CmprConfig::cmpr_4x_tags(), value_model(&b, seed))
        }),
        Org::Fac => v.with(spec, &|| {
            fac_cache(
                DistillConfig::hpca2007_default().with_woc_ways(3),
                value_model(&b, seed),
            )
        }),
        Org::Sfp => v.with(spec, &|| SfpCache::new(SfpConfig::sfp_16k())),
    }
}

/// The value model Figure 11 gives the compressed caches.
fn value_model(b: &Benchmark, seed: u64) -> ValueSizeModel {
    ValueSizeModel::new((b.make)(seed).values(), LineGeometry::default(), seed)
}

fn mattson_configs() -> Vec<ldis_cache::CacheConfig> {
    mrc::MRC_SIZES.iter().map(|&s| baseline_config(s)).collect()
}

/// The Figure 9 system of benchmark `b`.
pub fn system(b: &Benchmark) -> SystemConfig {
    let (dep, br) = workload_factors(b.name);
    SystemConfig::hpca2007_baseline().with_workload_factors(dep, br)
}

/// The workload seed of a cell whose L2 reports `l2_name`: the derived
/// per-cell seed for plain runs, the run seed for timed runs (Figure 9).
pub fn workload_seed(spec: &Spec, cfg: &RunConfig, l2_name: &str) -> u64 {
    if spec.org.l2_timing().is_some() {
        cfg.seed
    } else {
        cfg.seed_for(&spec.benchmark, l2_name)
    }
}

/// Runs one cell through the repository's own entry point for it: the
/// sweep's `run_cell`, the capacity-sweep runners, `runner::run` and
/// `TimingSim::run`.
pub fn run_cell(spec: &Spec, cfg: &RunConfig) -> Output {
    let b = &spec.benchmark;
    if let Some(config) = spec.org.sweep_config() {
        let r = sweep::run_cell(
            &sweep::CellSpec {
                benchmark: *b,
                config,
            },
            cfg,
        );
        return Output::Run {
            l2: r.l2,
            hier: r.hierarchy,
            mpki: r.mpki,
        };
    }
    match spec.org {
        Org::Mattson => {
            let s = run_capacity_sweep(b, cfg, &mrc::MRC_SIZES);
            Output::Mattson {
                hier: s.hierarchy,
                points: s.points.into_iter().map(|p| p.result).collect(),
            }
        }
        Org::Shards => {
            let shards = ShardsConfig::at_rate(SHARDS_RATE);
            let s = run_sampled_capacity_sweep(b, cfg, &mrc::MRC_SIZES, &shards);
            Output::Shards {
                hier: s.hierarchy,
                mpki: s.points.iter().map(|p| p.mpki).collect(),
                peak_samples: s.peak_samples,
            }
        }
        _ => with_l2(spec, cfg, Direct { cfg }),
    }
}

/// `runner::run` or `TimingSim::run` on one constructor.
struct Direct<'a> {
    cfg: &'a RunConfig,
}

impl WithL2 for Direct<'_> {
    type Out = Output;

    fn with<L: Outputs>(self, spec: &Spec, make: &dyn Fn() -> L) -> Output {
        let b = &spec.benchmark;
        match spec.org.l2_timing() {
            Some(timing) => {
                let mut sim = TimingSim::new(make(), system(b), timing);
                let result = sim.run(&mut (b.make)(self.cfg.seed), self.cfg.accesses);
                Output::Timed {
                    l2: sim.hierarchy().l2().stats().clone(),
                    hier: *sim.hierarchy().stats(),
                    result,
                }
            }
            None => {
                let r = run(b, self.cfg, make);
                Output::Run {
                    l2: r.l2,
                    hier: r.hierarchy,
                    mpki: r.mpki,
                }
            }
        }
    }
}

/// Constructs (and drops) one cell's workload, L2 and hierarchy or timing
/// model, adding each construction's host time to `totals` under the
/// constructing crate's name.
pub struct Setup<'a> {
    pub cfg: &'a RunConfig,
    pub totals: &'a mut Vec<(&'static str, f64)>,
}

impl Setup<'_> {
    fn add(&mut self, layer: &'static str, start: u64) {
        let ns = (crate::spans::now_ns() - start) as f64;
        match self.totals.iter_mut().find(|(l, _)| *l == layer) {
            Some((_, total)) => *total += ns,
            None => self.totals.push((layer, ns)),
        }
    }
}

impl WithL2 for Setup<'_> {
    type Out = ();

    fn with<L: Outputs>(mut self, spec: &Spec, make: &dyn Fn() -> L) {
        use crate::spans::now_ns;
        let t = now_ns();
        let l2 = make();
        self.add(spec.org.layer(), t);
        let t = now_ns();
        let workload = (spec.benchmark.make)(workload_seed(spec, self.cfg, l2.name()));
        self.add("workloads", t);
        match spec.org.l2_timing() {
            Some(timing) => {
                let t = now_ns();
                let sim = TimingSim::new(l2, system(&spec.benchmark), timing);
                self.add("timing", t);
                std::hint::black_box(&sim);
            }
            None => {
                let t = now_ns();
                let hier = Hierarchy::hpca2007(l2);
                self.add("cache", t);
                std::hint::black_box(&hier);
            }
        }
        std::hint::black_box(&workload);
    }
}

/// The 1 MB (baseline-sized) entry of a per-`MRC_SIZES` list.
pub fn at_1mb<T>(per_size: &[T]) -> Option<&T> {
    let idx = mrc::MRC_SIZES.iter().position(|&s| s == 1 << 20)?;
    per_size.get(idx)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sweep_specs_follow_the_sweep_matrix() {
        let specs = WorkloadKind::Sweep.specs();
        let cells = sweep::cells();
        assert_eq!(specs.len(), cells.len());
        for (spec, cell) in specs.iter().zip(&cells) {
            assert_eq!(spec.benchmark.name, cell.benchmark.name);
            assert_eq!(spec.org.sweep_config(), Some(cell.config));
        }
    }
}
