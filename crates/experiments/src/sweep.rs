//! The full-matrix sweep experiment with crash-safe execution.
//!
//! `ldis-experiments sweep` runs every benchmark the repo models — the 16
//! memory-intensive SPEC2000 workloads of Table 2 plus the 11
//! cache-insensitive ones — against the three headline configurations
//! (`baseline`, `LDIS-Base`, `LDIS-MT-RC`), 81 cells in canonical matrix
//! order. Unlike the per-figure experiments, the sweep runs on the
//! crash-safe executor ([`crate::exec`]):
//!
//! * `--journal FILE` checkpoints every completed cell through the
//!   checksummed [`journal`](crate::exec::journal);
//! * `--resume` validates and replays the journal, re-executing only the
//!   missing cells — the final snapshot is bit-identical to an
//!   uninterrupted run at any thread count;
//! * `--cell-timeout MS`, `--max-retries N` and `--fault SPEC` control
//!   the watchdog, the retry budget and deterministic fault injection;
//! * failed cells are quarantined, reported (and written to
//!   `--quarantine FILE` as JSON) with a shortest-repro command each,
//!   while the golden comparison degrades gracefully to the survivors
//!   ([`crate::golden::verify_surviving`]).

use crate::exec::journal::{Journal, JournalHeader};
use crate::exec::{run_cells, CellFailure, ExecPolicy, ExecReport, FaultPlan};
use crate::golden;
use crate::report::{fmt_f, Json, Table};
use crate::{run, run_baseline, RunConfig, RunResult};
use ldis_distill::{DistillCache, DistillConfig};
use ldis_mem::{fnv1a, SimRng};
use ldis_workloads::{cache_insensitive, memory_intensive, Benchmark};
use std::collections::BTreeMap;
use std::path::PathBuf;

/// The three L2 organizations the sweep compares. The ordering is part of
/// the canonical cell order and therefore frozen.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum SweepConfig {
    /// Traditional 1 MB 8-way L2.
    Baseline,
    /// All used words distilled into the WOC, no reverter.
    LdisBase,
    /// Median-threshold filtering plus the reverter (the paper's best).
    LdisMtRc,
}

/// The sweep's configurations in canonical order.
pub const CONFIGS: [SweepConfig; 3] = [
    SweepConfig::Baseline,
    SweepConfig::LdisBase,
    SweepConfig::LdisMtRc,
];

impl SweepConfig {
    /// The configuration's report label (identical to the L2's
    /// `name()`).
    pub fn label(self) -> &'static str {
        match self {
            SweepConfig::Baseline => "baseline",
            SweepConfig::LdisBase => "LDIS-Base",
            SweepConfig::LdisMtRc => "LDIS-MT-RC",
        }
    }
}

/// One cell of the sweep matrix: a benchmark × configuration pair.
#[derive(Clone, Copy, Debug)]
pub struct CellSpec {
    /// The workload.
    pub benchmark: Benchmark,
    /// The L2 organization.
    pub config: SweepConfig,
}

impl CellSpec {
    /// The cell's workload seed: its benchmark's
    /// [`trace_seed`](RunConfig::trace_seed).
    pub fn seed(&self, cfg: &RunConfig) -> u64 {
        cfg.trace_seed(&self.benchmark)
    }

    /// `bench/config`, the row key used in snapshots and reports.
    pub fn key(&self) -> String {
        format!("{}/{}", self.benchmark.name, self.config.label())
    }
}

/// Every benchmark the sweep covers: the memory-intensive suite followed
/// by the cache-insensitive suite, in their frozen id orders.
pub fn benchmarks() -> Vec<Benchmark> {
    let mut all = memory_intensive();
    all.extend(cache_insensitive());
    all
}

/// The matrix cells in canonical order: benchmarks outer, configurations
/// inner. Cell indices are stable as long as the benchmark list and
/// [`CONFIGS`] are — which their frozen ids guarantee.
pub fn cells() -> Vec<CellSpec> {
    let mut out = Vec::new();
    for benchmark in benchmarks() {
        for config in CONFIGS {
            out.push(CellSpec { benchmark, config });
        }
    }
    out
}

/// The matrix identity a checkpoint journal is bound to: a seed-derived
/// hash of the run parameters and the full cell list. Any change to the
/// seed, budget, benchmark set or configuration set changes the id, so
/// [`Journal::resume`] refuses checkpoints that do not describe this
/// exact matrix.
pub fn matrix_id(cfg: &RunConfig) -> u64 {
    let mut shape = String::new();
    for cell in cells() {
        shape.push_str(&cell.key());
        shape.push('\n');
    }
    SimRng::derive_seed_chain(
        cfg.seed,
        &[cfg.accesses, cfg.warmup, fnv1a(shape.as_bytes())],
    )
}

/// The journal header for a run.
pub fn header(cfg: &RunConfig) -> JournalHeader {
    JournalHeader {
        matrix_id: matrix_id(cfg),
        cells: cells().len() as u64,
    }
}

/// Runs one cell directly (the repro path behind `sweep --cell N`).
pub fn run_cell(spec: &CellSpec, cfg: &RunConfig) -> RunResult {
    match spec.config {
        SweepConfig::Baseline => run_baseline(&spec.benchmark, cfg, 1 << 20),
        SweepConfig::LdisBase => run(&spec.benchmark, cfg, || {
            DistillCache::new(DistillConfig::ldis_base())
        }),
        SweepConfig::LdisMtRc => run(&spec.benchmark, cfg, || {
            DistillCache::new(DistillConfig::ldis_mt_rc())
        }),
    }
}

/// The sweep's golden snapshot: one row per cell in canonical order.
/// Built only from cell *results*, so a resumed run and an uninterrupted
/// run render identical bytes. Quarantined cells render as a failure
/// marker row; the graceful-degradation comparison
/// ([`golden::verify_surviving`]) skips exactly those rows.
pub fn snapshot(outcomes: &[Result<RunResult, CellFailure>]) -> Json {
    let specs = cells();
    let rows: Vec<Json> = specs
        .iter()
        .zip(outcomes)
        .map(|(spec, outcome)| match outcome {
            Ok(r) => Json::obj([
                ("key", Json::str(spec.key())),
                ("mpki", Json::num(r.mpki)),
                ("l2_hits", Json::uint(r.l2.hits())),
                ("l2_misses", Json::uint(r.l2.demand_misses())),
                ("evictions", Json::uint(r.l2.evictions)),
                ("woc_installs", Json::uint(r.l2.woc_installs)),
                ("instructions", Json::uint(r.hierarchy.instructions)),
            ]),
            Err(failure) => Json::obj([
                ("key", Json::str(spec.key())),
                ("quarantined", Json::str(failure.kind())),
            ]),
        })
        .collect();
    let quarantined = outcomes.iter().filter(|o| o.is_err()).count();
    Json::obj([
        ("experiment", Json::str("sweep")),
        ("cells", Json::uint(outcomes.len() as u64)),
        ("quarantined", Json::uint(quarantined as u64)),
        ("rows", Json::Arr(rows)),
    ])
}

/// Row keys of quarantined cells (the skip list for
/// [`golden::verify_surviving`]).
pub fn quarantined_keys(outcomes: &[Result<RunResult, CellFailure>]) -> Vec<String> {
    cells()
        .iter()
        .zip(outcomes)
        .filter(|(_, o)| o.is_err())
        .map(|(spec, _)| spec.key())
        .collect()
}

/// The machine-readable quarantine report: every failed cell with its
/// typed cause, derived seed and a shortest repro command.
pub fn quarantine_report(cfg: &RunConfig, report: &ExecReport<RunResult>) -> Json {
    let specs = cells();
    let entries: Vec<Json> = report
        .failures()
        .filter_map(|(cell, failure)| {
            let spec = specs.get(cell)?;
            Some(Json::obj([
                ("cell", Json::uint(cell as u64)),
                ("benchmark", Json::str(spec.benchmark.name)),
                ("config", Json::str(spec.config.label())),
                ("seed", Json::uint(spec.seed(cfg))),
                ("kind", Json::str(failure.kind())),
                ("attempts", Json::uint(u64::from(failure.attempts()))),
                ("detail", Json::str(failure.to_string())),
                (
                    "repro",
                    Json::str(format!(
                        "ldis-experiments sweep --cell {cell} --accesses {} --warmup {} --seed {} --threads 1",
                        cfg.accesses, cfg.warmup, cfg.seed
                    )),
                ),
            ]))
        })
        .collect();
    Json::obj([
        ("report", Json::str("sweep-quarantine")),
        ("matrix_id", Json::uint(matrix_id(cfg))),
        ("total_cells", Json::uint(specs.len() as u64)),
        ("resumed", Json::uint(report.resumed as u64)),
        ("executed", Json::uint(report.executed as u64)),
        ("retried", Json::uint(report.retried as u64)),
        ("quarantined", Json::arr(entries)),
    ])
}

/// Everything `ldis-experiments sweep` can be asked to do.
#[derive(Clone, Debug)]
pub struct SweepOptions {
    /// Run length, warmup and seed.
    pub cfg: RunConfig,
    /// Worker thread count.
    pub threads: usize,
    /// Retry budget for panicked cells.
    pub max_retries: u32,
    /// Watchdog budget per cell (`None` disables the watchdog).
    pub cell_timeout_ms: Option<u64>,
    /// Injected faults (`--fault CELL:KIND[:ATTEMPTS],...`).
    pub faults: FaultPlan,
    /// Checkpoint journal path (`--journal`).
    pub journal: Option<PathBuf>,
    /// Resume from the journal instead of truncating it (`--resume`).
    pub resume: bool,
    /// Write the snapshot JSON here (`--out`).
    pub out: Option<PathBuf>,
    /// Write the quarantine report JSON here (`--quarantine`).
    pub quarantine_out: Option<PathBuf>,
    /// Run a single cell inline and report it (`--cell N`, the repro
    /// path printed by quarantine reports).
    pub only_cell: Option<usize>,
    /// Compare the snapshot against the committed golden, degrading to
    /// surviving cells (`--golden-check`).
    pub golden_check: bool,
}

impl SweepOptions {
    /// Defaults for `cfg`: configured thread count, 2 retries, no
    /// watchdog, no faults, no journal.
    pub fn new(cfg: RunConfig, threads: usize) -> Self {
        SweepOptions {
            cfg,
            threads,
            max_retries: 2,
            cell_timeout_ms: None,
            faults: FaultPlan::none(),
            journal: None,
            resume: false,
            out: None,
            quarantine_out: None,
            only_cell: None,
            golden_check: false,
        }
    }
}

/// The outcome of [`execute`]: the rendered human report plus the pieces
/// tests and the binary act on.
#[derive(Debug)]
pub struct SweepOutcome {
    /// The rendered report.
    pub text: String,
    /// The snapshot (`None` for `--cell` repro runs).
    pub snapshot: Json,
    /// Number of quarantined cells.
    pub quarantined: usize,
}

/// Runs the sweep per `opts`.
///
/// # Errors
///
/// Returns a message for CLI-level failures: unreadable or mismatched
/// journals, unwritable outputs, an out-of-range `--cell`, or a failed
/// `--golden-check`. Quarantined cells are *not* an error — the report
/// lists them and the run completes.
pub fn execute(opts: &SweepOptions) -> Result<SweepOutcome, String> {
    let specs = cells();

    // Single-cell repro path: run inline, no journal, no quarantine.
    if let Some(cell) = opts.only_cell {
        let Some(spec) = specs.get(cell) else {
            return Err(format!(
                "--cell {cell} out of range: the matrix has {} cells",
                specs.len()
            ));
        };
        let result = run_cell(spec, &opts.cfg);
        let mut t = Table::new(
            format!("Sweep cell {cell}: {}", spec.key()),
            &["field", "value"],
        );
        t.row(vec!["seed".into(), format!("{:#x}", spec.seed(&opts.cfg))]);
        t.row(vec!["mpki".into(), fmt_f(result.mpki, 4)]);
        t.row(vec!["l2 hits".into(), result.l2.hits().to_string()]);
        t.row(vec![
            "l2 misses".into(),
            result.l2.demand_misses().to_string(),
        ]);
        t.row(vec!["evictions".into(), result.l2.evictions.to_string()]);
        let snap = Json::obj([
            ("experiment", Json::str("sweep-cell")),
            ("cell", Json::uint(cell as u64)),
            ("key", Json::str(spec.key())),
            ("seed", Json::uint(spec.seed(&opts.cfg))),
            ("mpki", Json::num(result.mpki)),
            ("l2_hits", Json::uint(result.l2.hits())),
            ("l2_misses", Json::uint(result.l2.demand_misses())),
        ]);
        return Ok(SweepOutcome {
            text: t.render(),
            snapshot: snap,
            quarantined: 0,
        });
    }

    // Open the journal (fresh, or resumed with its completed cells).
    let hdr = header(&opts.cfg);
    let mut completed: BTreeMap<usize, RunResult> = BTreeMap::new();
    let mut journal = None;
    let mut resume_note = None;
    if let Some(path) = &opts.journal {
        if opts.resume && path.exists() {
            let resumed = Journal::resume::<RunResult>(path, hdr)?;
            if resumed.discarded_bytes > 0 {
                resume_note = Some(format!(
                    "journal: discarded {} corrupt trailing byte(s) ({}); re-executing those cells",
                    resumed.discarded_bytes,
                    resumed.discard_reason.unwrap_or_default(),
                ));
            }
            completed = resumed.completed;
            journal = Some(resumed.journal);
        } else {
            journal = Some(Journal::create(path, hdr)?);
        }
    }

    // Run the missing cells crash-safely, checkpointing as they finish.
    let policy = ExecPolicy {
        threads: opts.threads,
        max_retries: opts.max_retries,
        cell_timeout_ms: opts.cell_timeout_ms,
        faults: opts.faults.clone(),
    };
    let cfg = opts.cfg;
    let mut journal_error: Option<String> = None;
    let report = run_cells(
        specs.clone(),
        move |_cell, spec: &CellSpec| run_cell(spec, &cfg),
        &policy,
        completed,
        |cell, result| {
            if let Some(j) = journal.as_mut() {
                let seed = specs.get(cell).map_or(0, |s| s.seed(&cfg));
                if let Err(e) = j.append(cell, seed, result) {
                    journal_error.get_or_insert(e);
                }
            }
        },
    );
    if let Some(e) = journal_error {
        return Err(e);
    }

    // Render the human report: per-benchmark MPKI columns plus the
    // quarantine summary.
    let snapshot_json = snapshot(&report.outcomes);
    let quarantine = quarantine_report(&opts.cfg, &report);
    let mut t = Table::new(
        "Sweep: 27 benchmarks x 3 configurations (crash-safe)",
        &["bench", "baseline", "LDIS-Base", "LDIS-MT-RC"],
    );
    for (bench_index, benchmark) in benchmarks().iter().enumerate() {
        let cell_for = |config_index: usize| bench_index * CONFIGS.len() + config_index;
        let fmt = |config_index: usize| match report.outcomes.get(cell_for(config_index)) {
            Some(Ok(r)) => fmt_f(r.mpki, 2),
            Some(Err(f)) => format!("[{}]", f.kind()),
            None => "[missing]".to_owned(),
        };
        t.row(vec![benchmark.name.to_owned(), fmt(0), fmt(1), fmt(2)]);
    }
    t.note(format!(
        "{} cells: {} resumed, {} executed, {} retried, {} quarantined",
        report.outcomes.len(),
        report.resumed,
        report.executed,
        report.retried,
        report.failed(),
    ));
    if let Some(note) = resume_note {
        t.note(note);
    }
    for (cell, failure) in report.failures() {
        let key = cells().get(cell).map(CellSpec::key).unwrap_or_default();
        t.note(format!(
            "quarantined cell {cell} ({key}): {failure}; repro: ldis-experiments sweep \
             --cell {cell} --accesses {} --warmup {} --seed {} --threads 1",
            opts.cfg.accesses, opts.cfg.warmup, opts.cfg.seed
        ));
    }

    // Optional outputs.
    if let Some(path) = &opts.out {
        std::fs::write(path, snapshot_json.render_pretty())
            .map_err(|e| format!("cannot write {}: {e}", path.display()))?;
    }
    if let Some(path) = &opts.quarantine_out {
        std::fs::write(path, quarantine.render_pretty())
            .map_err(|e| format!("cannot write {}: {e}", path.display()))?;
    }

    // Graceful-degradation golden comparison: survivors must match the
    // committed snapshot; quarantined rows are listed, not compared.
    if opts.golden_check {
        let skipped = quarantined_keys(&report.outcomes);
        golden::verify_surviving("sweep", &snapshot_json, &skipped)?;
        t.note(if skipped.is_empty() {
            "golden check: all rows match".to_owned()
        } else {
            format!(
                "golden check: surviving rows match; skipped quarantined rows: {}",
                skipped.join(", ")
            )
        });
    }

    Ok(SweepOutcome {
        text: t.render(),
        snapshot: snapshot_json,
        quarantined: report.failed(),
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn matrix_has_81_cells_in_frozen_order() {
        let specs = cells();
        assert_eq!(specs.len(), 81);
        assert_eq!(specs[0].key(), "art/baseline");
        assert_eq!(specs[1].key(), "art/LDIS-Base");
        assert_eq!(specs[2].key(), "art/LDIS-MT-RC");
        // Cell index arithmetic used by the report and the CI fault specs.
        for (i, spec) in specs.iter().enumerate() {
            assert_eq!(spec.config.label(), CONFIGS[i % 3].label());
        }
        // The insensitive suite follows the memory-intensive one.
        assert_eq!(specs[48].benchmark.id, 100);
    }

    #[test]
    fn matrix_id_binds_every_run_parameter() {
        let base = RunConfig::quick();
        let id = matrix_id(&base);
        assert_eq!(id, matrix_id(&base), "stable");
        let mut other = base;
        other.seed += 1;
        assert_ne!(id, matrix_id(&other), "seed is bound");
        let mut other = base;
        other.accesses += 1;
        assert_ne!(id, matrix_id(&other), "budget is bound");
        let mut other = base;
        other.warmup += 1;
        assert_ne!(id, matrix_id(&other), "warmup is bound");
    }

    #[test]
    fn cell_seeds_match_direct_runs() {
        // The sweep must record exactly the seed a direct run_* call
        // uses, or its repro commands would replay another trace.
        let cfg = RunConfig::quick();
        for spec in cells().iter().filter(|s| s.benchmark.name == "mcf") {
            assert_eq!(spec.seed(&cfg), cfg.trace_seed(&spec.benchmark));
        }
    }

    #[test]
    fn snapshot_marks_quarantined_rows() {
        let failure = CellFailure::Panicked {
            attempts: 3,
            message: "boom".into(),
        };
        let outcomes: Vec<Result<RunResult, CellFailure>> = vec![Err(failure)];
        let json = snapshot(&outcomes);
        let text = json.render();
        assert!(text.contains("\"quarantined\": 1"), "{text}");
        assert!(
            text.contains("{\"key\": \"art/baseline\", \"quarantined\": \"panicked\"}"),
            "{text}"
        );
    }

    #[test]
    fn out_of_range_cell_is_a_clean_error() {
        let opts = {
            let mut o = SweepOptions::new(RunConfig::quick(), 1);
            o.only_cell = Some(10_000);
            o
        };
        let err = execute(&opts).expect_err("must refuse");
        assert!(err.contains("out of range"), "{err}");
    }
}
