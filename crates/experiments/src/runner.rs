//! Shared machinery for running benchmark × cache-configuration matrices.
//!
//! Every run of a benchmark simulates the same trace: its workload is
//! seeded from `RunConfig.seed` and the benchmark's stable id only
//! ([`RunConfig::trace_seed`]), so two cache organizations differ by
//! their mechanism and not by sampling noise. Runs share no state and
//! execute on the [`parallel`](crate::parallel) worker pool in any order
//! while the merged matrix stays bit-identical for every thread count.

use crate::parallel;
use ldis_cache::{BaselineL2, CacheConfig, Hierarchy, HierarchyStats, L2Stats, SecondLevel};
use ldis_compress::ValueSizeModel;
use ldis_mem::{stable_id, LineGeometry, SimRng};
use ldis_mrc::{ConfigResult, MattsonL2, SampledMrc, ShardsConfig, ShardsL2};
use ldis_timing::{workload_factors, L2Timing, SystemConfig, TimingResult, TimingSim};
use ldis_workloads::{Benchmark, TraceLength, Workload};

/// Global knobs for an experiment run.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct RunConfig {
    /// Memory accesses per benchmark per cache configuration.
    pub accesses: u64,
    /// Warmup accesses excluded from the statistics (the caches stay warm;
    /// only the counters reset). 0 keeps the published defaults.
    pub warmup: u64,
    /// Workload seed (all randomness derives from it).
    pub seed: u64,
}

impl RunConfig {
    /// The default experiment length: long enough for every working set to
    /// wrap several times and the reverter/median mechanisms to settle.
    pub fn paper() -> Self {
        RunConfig {
            accesses: 2_000_000,
            warmup: 0,
            seed: 42,
        }
    }

    /// A short configuration for smoke tests.
    pub fn quick() -> Self {
        RunConfig {
            accesses: 150_000,
            warmup: 0,
            seed: 42,
        }
    }

    /// Returns a copy with a different access budget.
    #[must_use]
    pub fn with_accesses(mut self, accesses: u64) -> Self {
        self.accesses = accesses;
        self
    }

    /// Returns a copy with a warmup phase (excluded from statistics).
    #[must_use]
    pub fn with_warmup(mut self, warmup: u64) -> Self {
        self.warmup = warmup;
        self
    }

    /// The seed of `benchmark`'s trace: a split of `self.seed` by the
    /// benchmark's stable id, shared by every cache organization the
    /// benchmark runs on. The `"baseline"` component keeps every baseline
    /// golden's bytes: it is the stream baseline runs have always used.
    pub fn trace_seed(&self, benchmark: &Benchmark) -> u64 {
        SimRng::derive_seed(self.seed, u64::from(benchmark.id), stable_id("baseline"))
    }

    /// `benchmark`'s workload, generating the trace of
    /// [`trace_seed`](Self::trace_seed).
    pub fn workload(&self, benchmark: &Benchmark) -> Workload {
        (benchmark.make)(self.trace_seed(benchmark))
    }

    /// The compressed-size model of `benchmark`'s values (Figures 10 and
    /// 11), seeded like its trace.
    pub fn value_model(&self, benchmark: &Benchmark) -> ValueSizeModel {
        let values = self.workload(benchmark).values();
        ValueSizeModel::new(values, LineGeometry::default(), self.trace_seed(benchmark))
    }

    /// [`trace_seed`](Self::trace_seed) under its former signature, which
    /// `perfbench` still calls; the label is ignored.
    pub fn seed_for(&self, benchmark: &Benchmark, _config_label: &str) -> u64 {
        self.trace_seed(benchmark)
    }
}

impl Default for RunConfig {
    fn default() -> Self {
        RunConfig::paper()
    }
}

/// The distilled outcome of one benchmark × configuration run.
///
/// `PartialEq` compares every counter and statistic bit for bit — it is
/// what the serial-vs-parallel equivalence tests assert on.
#[derive(Clone, Debug, PartialEq)]
pub struct RunResult {
    /// Benchmark name.
    pub benchmark: String,
    /// L2 configuration label.
    pub config: String,
    /// Demand misses per kilo-instruction.
    pub mpki: f64,
    /// Full second-level statistics.
    pub l2: L2Stats,
    /// First-level and trace statistics.
    pub hierarchy: HierarchyStats,
}

impl RunResult {
    /// L2 hit rate over demand accesses.
    pub fn hit_rate(&self) -> f64 {
        self.l2.hit_rate()
    }
}

/// Runs `benchmark` for `cfg.accesses` accesses against the L2 produced by
/// `make_l2`, returning the distilled result.
pub fn run<L2, F>(benchmark: &Benchmark, cfg: &RunConfig, make_l2: F) -> RunResult
where
    L2: SecondLevel,
    F: FnOnce() -> L2,
{
    result_of(benchmark, &drive(benchmark, cfg, make_l2()))
}

/// The prologue every untimed run shares: puts `l2` under the paper's
/// L1s, runs `benchmark`'s workload ([`RunConfig::workload`]) for the
/// warmup and resets the counters, then drives `cfg.accesses` measured
/// accesses. Returns the hierarchy for the caller to read out.
pub(crate) fn drive<L2: SecondLevel>(
    benchmark: &Benchmark,
    cfg: &RunConfig,
    l2: L2,
) -> Hierarchy<L2> {
    let mut workload = cfg.workload(benchmark);
    let mut hier = Hierarchy::hpca2007(l2);
    if cfg.warmup > 0 {
        workload.drive(&mut hier, TraceLength::accesses(cfg.warmup));
        hier.reset_stats();
    }
    workload.drive(&mut hier, TraceLength::accesses(cfg.accesses));
    hier
}

/// The timed counterpart of [`run`]: puts `l2` with `timing` into
/// Figure 9's system for `benchmark`, runs the warmup and then
/// `cfg.accesses` measured accesses of its workload on one [`TimingSim`],
/// and returns the measured phase.
pub fn run_timed<L2: SecondLevel>(
    benchmark: &Benchmark,
    cfg: &RunConfig,
    l2: L2,
    timing: L2Timing,
) -> TimingResult {
    let (dependent, mispredicts) = workload_factors(benchmark.name);
    let system = SystemConfig::hpca2007_baseline().with_workload_factors(dependent, mispredicts);
    let mut sim = TimingSim::new(l2, system, timing);
    let mut workload = cfg.workload(benchmark);
    let warm = sim.run(&mut workload, cfg.warmup);
    let all = sim.run(&mut workload, cfg.accesses);
    TimingResult {
        instructions: all.instructions - warm.instructions,
        cycles: all.cycles - warm.cycles,
        memory_requests: all.memory_requests - warm.memory_requests,
        mshr_stall_cycles: all.mshr_stall_cycles - warm.mshr_stall_cycles,
    }
}

/// The distilled result of a finished run of `benchmark`.
fn result_of<L2: SecondLevel>(benchmark: &Benchmark, hier: &Hierarchy<L2>) -> RunResult {
    RunResult {
        benchmark: benchmark.name.to_owned(),
        config: hier.l2().name().to_owned(),
        mpki: hier.mpki(),
        l2: hier.l2().stats().clone(),
        hierarchy: *hier.stats(),
    }
}

/// The paper's baseline L2 configuration (Table 1): `size_bytes` with
/// 8 ways and 64 B lines. Sizes that cannot keep a power-of-two set count
/// at 8 ways (e.g. 1.5 MB) keep 2048 sets and scale the ways instead, the
/// standard way such capacities are built.
pub fn baseline_config(size_bytes: u64) -> CacheConfig {
    let geom = LineGeometry::default();
    let lines = size_bytes / geom.line_bytes() as u64;
    if (lines / 8).is_power_of_two() {
        CacheConfig::new(size_bytes, 8, geom)
    } else {
        #[expect(
            clippy::cast_possible_truncation,
            reason = "capacities that miss a power-of-two set count at 8 ways are a few MB, a handful of ways at 2048 sets"
        )]
        let ways = (lines / 2048) as u32;
        CacheConfig::with_sets(2048, ways, geom)
    }
}

/// Runs `benchmark` against a traditional cache of `size_bytes`.
pub fn run_baseline(benchmark: &Benchmark, cfg: &RunConfig, size_bytes: u64) -> RunResult {
    run(benchmark, cfg, || {
        BaselineL2::new(baseline_config(size_bytes))
    })
}

/// Runs `benchmark` against a traditional cache of `size_bytes` and also
/// returns the words-used histogram covering *both* evicted lines and the
/// lines still resident at the end of the run. When a working set fits the
/// cache, evictions (where footprints are normally sampled) dry up; the
/// resident snapshot keeps the Figure 1 / Table 6 measurement meaningful
/// across cache sizes.
pub fn run_baseline_with_words(
    benchmark: &Benchmark,
    cfg: &RunConfig,
    size_bytes: u64,
) -> (RunResult, ldis_mem::stats::Histogram) {
    let hier = drive(benchmark, cfg, BaselineL2::new(baseline_config(size_bytes)));
    let mut words = hier.l2().stats().words_used_at_evict.clone();
    for (_, entry) in hier.l2().cache().iter_lines() {
        if !entry.is_instr {
            words.record(entry.footprint.used_words() as usize);
        }
    }
    (result_of(benchmark, &hier), words)
}

/// One traditional cache size's reconstructed statistics within a
/// [`run_capacity_sweep`] pass.
#[derive(Clone, Debug)]
pub struct CapacityPoint {
    /// Cache capacity in bytes.
    pub size_bytes: u64,
    /// The concrete geometry ([`baseline_config`] of `size_bytes`).
    pub config: CacheConfig,
    /// Demand misses per kilo-instruction, through the same
    /// [`mpki`](ldis_mem::stats::mpki) float path as a direct run.
    pub mpki: f64,
    /// The full reconstructed counters for this size.
    pub result: ConfigResult,
}

/// Every traditional-cache size of a capacity sweep, answered from one
/// Mattson profiling pass over the benchmark's trace.
///
/// The reconstruction is exact, not approximate: every run of a
/// benchmark simulates the same trace, and the L1s' behavior does not
/// depend on the L2's capacity, so the L2 request stream is identical
/// across sizes — and a stack-distance pass over that one stream
/// reproduces each size's counters bit for bit.
/// The differential-oracle suite (`tests/mrc_oracle.rs`) enforces this
/// equality against direct simulation for the whole quick matrix.
#[derive(Clone, Debug)]
pub struct CapacitySweep {
    /// Benchmark name.
    pub benchmark: String,
    /// First-level and trace statistics (identical for every size).
    pub hierarchy: HierarchyStats,
    /// One point per requested size, in the order given.
    pub points: Vec<CapacityPoint>,
}

impl CapacitySweep {
    /// The point for `size_bytes`, if it was part of the sweep.
    pub fn point(&self, size_bytes: u64) -> Option<&CapacityPoint> {
        self.points.iter().find(|p| p.size_bytes == size_bytes)
    }

    /// The MPKI at `size_bytes` (`NaN` if the size was not swept, which
    /// the golden snapshots would immediately surface).
    pub fn mpki_at(&self, size_bytes: u64) -> f64 {
        self.point(size_bytes).map_or(f64::NAN, |p| p.mpki)
    }
}

/// Runs `benchmark` once and reconstructs a traditional LRU baseline of
/// every size in `sizes` from that single pass, via the Mattson
/// stack-distance profiler ([`MattsonL2`]). Equivalent to calling
/// [`run_baseline`] once per size — bit for bit, including the words-used
/// histograms of [`run_baseline_with_words`] — at the cost of one
/// simulation instead of `sizes.len()`.
pub fn run_capacity_sweep(benchmark: &Benchmark, cfg: &RunConfig, sizes: &[u64]) -> CapacitySweep {
    let configs: Vec<CacheConfig> = sizes.iter().map(|&s| baseline_config(s)).collect();
    let hier = drive(benchmark, cfg, MattsonL2::for_configs(&configs));
    let instructions = hier.stats().instructions;
    let points: Vec<CapacityPoint> = sizes
        .iter()
        .zip(&configs)
        .filter_map(|(&size_bytes, config)| {
            let result = hier.l2().result_for(config)?;
            Some(CapacityPoint {
                size_bytes,
                config: *config,
                mpki: ldis_mem::stats::mpki(result.line_misses, instructions),
                result,
            })
        })
        .collect();
    assert_eq!(
        points.len(),
        sizes.len(),
        "every requested size is covered by construction"
    );
    CapacitySweep {
        benchmark: benchmark.name.to_owned(),
        hierarchy: *hier.stats(),
        points,
    }
}

/// One capacity's *estimated* statistics within a
/// [`run_sampled_capacity_sweep`] pass.
#[derive(Clone, Debug, PartialEq)]
pub struct SampledCapacityPoint {
    /// Cache capacity in bytes.
    pub size_bytes: u64,
    /// Capacity in lines (the sampled engine's query unit).
    pub capacity_lines: u64,
    /// Estimated miss ratio of the demand stream at this capacity.
    pub miss_ratio: f64,
    /// Estimated demand MPKI at this capacity.
    pub mpki: f64,
}

/// Every size of a capacity sweep, answered from one constant-memory
/// SHARDS pass ([`ShardsL2`]) over the benchmark's trace.
///
/// Unlike [`CapacitySweep`] the reconstruction is *approximate*: the
/// sampled profiler models a fully-associative LRU cache over a spatially
/// hashed sample of the lines. The bounded-error oracle
/// (`tests/mrc_sampled_oracle.rs`) asserts every point stays within the
/// per-rate MPKI budget [`ldis_mrc::mpki_tolerance`] of the exact
/// Mattson reconstruction. The pass simulates the exact run's trace, so
/// the L2 request stream — and therefore `hierarchy` — is byte-identical
/// to the exact run's.
#[derive(Clone, Debug, PartialEq)]
pub struct SampledCapacitySweep {
    /// Benchmark name.
    pub benchmark: String,
    /// First-level and trace statistics (identical to the exact run's).
    pub hierarchy: HierarchyStats,
    /// The finished sampled MRC the points were answered from.
    pub mrc: SampledMrc,
    /// High-water mark of the sample set during the pass.
    pub peak_samples: usize,
    /// Final realized sampling rate (≤ the configured rate).
    pub final_rate: f64,
    /// Mean words used per tracked data line (advisor's LOC:WOC signal).
    pub mean_words_used: f64,
    /// One point per requested size, in the order given.
    pub points: Vec<SampledCapacityPoint>,
}

impl SampledCapacitySweep {
    /// The point for `size_bytes`, if it was part of the sweep.
    pub fn point(&self, size_bytes: u64) -> Option<&SampledCapacityPoint> {
        self.points.iter().find(|p| p.size_bytes == size_bytes)
    }

    /// The estimated MPKI at `size_bytes` (`NaN` if the size was not
    /// swept).
    pub fn mpki_at(&self, size_bytes: u64) -> f64 {
        self.point(size_bytes).map_or(f64::NAN, |p| p.mpki)
    }
}

/// Runs `benchmark` once behind a [`ShardsL2`] sampled profiler and
/// estimates a traditional LRU baseline of every size in `sizes` from the
/// finished sampled MRC. The sampled counterpart of
/// [`run_capacity_sweep`]: same trace, same request stream, a fraction
/// of the memory and work.
pub fn run_sampled_capacity_sweep(
    benchmark: &Benchmark,
    cfg: &RunConfig,
    sizes: &[u64],
    shards: &ShardsConfig,
) -> SampledCapacitySweep {
    let geom = LineGeometry::default();
    let hier = drive(benchmark, cfg, ShardsL2::new(geom, *shards));
    let instructions = hier.stats().instructions;
    let mrc = hier.l2().mrc();
    let points: Vec<SampledCapacityPoint> = sizes
        .iter()
        .map(|&size_bytes| {
            let capacity_lines = size_bytes / geom.line_bytes() as u64;
            SampledCapacityPoint {
                size_bytes,
                capacity_lines,
                miss_ratio: mrc.miss_ratio(capacity_lines),
                mpki: mrc.estimated_mpki(capacity_lines, instructions),
            }
        })
        .collect();
    SampledCapacitySweep {
        benchmark: benchmark.name.to_owned(),
        hierarchy: *hier.stats(),
        peak_samples: hier.l2().profiler().peak_samples(),
        final_rate: hier.l2().profiler().current_rate(),
        mean_words_used: hier.l2().profiler().mean_words_used(),
        mrc,
        points,
    }
}

/// Runs one closure per benchmark on the configured worker pool and
/// returns the results in benchmark order. The closure receives the
/// benchmark and must be self-contained (construct its own workload and
/// caches).
pub fn for_each_benchmark<T, F>(benchmarks: &[Benchmark], job: F) -> Vec<T>
where
    T: Send,
    F: Fn(&Benchmark) -> T + Sync,
{
    parallel::sweep(benchmarks, job)
}

/// Runs a full benchmark × configuration matrix with every *cell* as one
/// unit of parallel work, and returns one `Vec` of `configs` cell results
/// per benchmark, in canonical (benchmark-major, configuration-minor)
/// order. Compared to [`for_each_benchmark`], which parallelizes only
/// across benchmarks, this keeps all workers busy even when one benchmark
/// dominates the matrix cost.
///
/// `job` receives the benchmark and the configuration index `0..configs`
/// and must be a pure function of the pair.
pub fn run_matrix<T, F>(benchmarks: &[Benchmark], configs: usize, job: F) -> Vec<Vec<T>>
where
    T: Send,
    F: Fn(&Benchmark, usize) -> T + Sync,
{
    run_matrix_with_threads(parallel::configured_threads(), benchmarks, configs, job)
}

/// [`run_matrix`] with an explicit worker count (used by the
/// serial-vs-parallel equivalence tests and benchmarks).
pub fn run_matrix_with_threads<T, F>(
    threads: usize,
    benchmarks: &[Benchmark],
    configs: usize,
    job: F,
) -> Vec<Vec<T>>
where
    T: Send,
    F: Fn(&Benchmark, usize) -> T + Sync,
{
    let cells: Vec<(&Benchmark, usize)> = benchmarks
        .iter()
        .flat_map(|b| (0..configs).map(move |c| (b, c)))
        .collect();
    let mut flat = parallel::sweep_with_threads(threads, &cells, |&(b, c)| job(b, c));
    let mut rows = Vec::with_capacity(benchmarks.len());
    for _ in 0..benchmarks.len() {
        let rest = flat.split_off(configs.min(flat.len()));
        rows.push(flat);
        flat = rest;
    }
    rows
}

#[cfg(test)]
mod tests {
    use super::*;
    use ldis_workloads::spec2000;

    #[test]
    fn baseline_config_sizes() {
        assert_eq!(baseline_config(1 << 20).ways(), 8);
        assert_eq!(baseline_config(1 << 20).num_sets(), 2048);
        // 1.5 MB keeps 2048 sets with 12 ways.
        let c = baseline_config(3 << 19);
        assert_eq!(c.num_sets(), 2048);
        assert_eq!(c.ways(), 12);
        assert_eq!(c.size_bytes(), 3 << 19);
        assert_eq!(baseline_config(2 << 20).ways(), 8);
    }

    #[test]
    fn run_produces_consistent_stats() {
        let b = spec2000::by_name("twolf").unwrap();
        let r = run_baseline(&b, &RunConfig::quick(), 1 << 20);
        assert_eq!(r.benchmark, "twolf");
        assert!(r.l2.accesses > 0);
        assert!(r.mpki > 0.0);
        assert_eq!(
            r.l2.hits() + r.l2.demand_misses(),
            r.l2.accesses,
            "every access is a hit or a miss"
        );
    }

    #[test]
    fn identical_runs_are_deterministic() {
        let b = spec2000::by_name("mcf").unwrap();
        let cfg = RunConfig::quick();
        let r1 = run_baseline(&b, &cfg, 1 << 20);
        let r2 = run_baseline(&b, &cfg, 1 << 20);
        assert_eq!(r1.mpki, r2.mpki);
        assert_eq!(r1.l2.line_misses, r2.l2.line_misses);
    }

    #[test]
    fn warmup_is_excluded_but_keeps_the_cache_warm() {
        let b = spec2000::by_name("twolf").unwrap();
        let cold = run_baseline(&b, &RunConfig::quick(), 1 << 20);
        let warm = run_baseline(&b, &RunConfig::quick().with_warmup(400_000), 1 << 20);
        // Same measured length, but the warm run skips the cold-start
        // misses: measured MPKI must drop.
        assert!(
            warm.mpki < cold.mpki,
            "warm {} should be below cold {}",
            warm.mpki,
            cold.mpki
        );
        // And the counters really were reset: accesses reflect only the
        // measured phase (L2 accesses ≤ total accesses issued).
        assert!(warm.l2.accesses <= RunConfig::quick().accesses);
    }

    #[test]
    fn capacity_sweep_matches_direct_baseline_runs_bit_for_bit() {
        let b = spec2000::by_name("twolf").unwrap();
        let cfg = RunConfig::quick();
        let sizes = [1 << 20, 3 << 19, 2 << 20];
        let sweep = run_capacity_sweep(&b, &cfg, &sizes);
        for &size in &sizes {
            let (direct, words) = run_baseline_with_words(&b, &cfg, size);
            let p = sweep.point(size).unwrap();
            assert_eq!(p.mpki.to_bits(), direct.mpki.to_bits(), "mpki at {size}");
            assert_eq!(p.result.accesses, direct.l2.accesses);
            assert_eq!(p.result.line_misses, direct.l2.line_misses);
            assert_eq!(p.result.hits, direct.l2.loc_hits);
            assert_eq!(p.result.compulsory_misses, direct.l2.compulsory_misses);
            assert_eq!(p.result.evictions, direct.l2.evictions);
            assert_eq!(p.result.writebacks, direct.l2.writebacks);
            assert_eq!(p.result.words_used_at_evict, direct.l2.words_used_at_evict);
            assert_eq!(
                p.result.words_used_with_resident, words,
                "resident at {size}"
            );
            assert_eq!(sweep.hierarchy, direct.hierarchy);
        }
    }

    #[test]
    fn capacity_sweep_respects_warmup() {
        let b = spec2000::by_name("mcf").unwrap();
        let cfg = RunConfig::quick().with_warmup(100_000);
        let sweep = run_capacity_sweep(&b, &cfg, &[1 << 20]);
        let direct = run_baseline(&b, &cfg, 1 << 20);
        let p = sweep.point(1 << 20).unwrap();
        assert_eq!(p.mpki.to_bits(), direct.mpki.to_bits());
        assert_eq!(p.result.line_misses, direct.l2.line_misses);
        assert_eq!(p.result.compulsory_misses, direct.l2.compulsory_misses);
    }

    #[test]
    fn a_recorded_trace_replays_the_baseline_run() {
        // `ldis-trace record` writes `RunConfig::workload`'s trace, so
        // replaying it on the baseline reproduces the figures' baseline.
        let b = spec2000::by_name("mcf").unwrap();
        let cfg = RunConfig::quick();
        let trace = cfg.workload(&b).record(cfg.accesses as usize);
        let mut hier = Hierarchy::hpca2007(BaselineL2::new(baseline_config(1 << 20)));
        hier.run_trace(&trace);
        let direct = run_baseline(&b, &cfg, 1 << 20);
        assert_eq!(hier.l2().stats(), &direct.l2);
        assert_eq!(hier.stats(), &direct.hierarchy);
    }

    #[test]
    fn parallel_runner_preserves_order() {
        let benches = spec2000::memory_intensive();
        let names = for_each_benchmark(&benches[..4], |b| b.name.to_owned());
        assert_eq!(names, vec!["art", "mcf", "twolf", "vpr"]);
    }
}
