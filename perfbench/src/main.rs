//! Offline end-to-end and per-layer benchmark of the line-distillation
//! simulator.
//!
//! ```text
//! perfbench --workload sweep|capacity|compare --seed N --seconds S --trace 0|1 [--host KEY=VALUE]...
//! ```
//!
//! Each workload is a closed loop over a benchmark × L2-organization cell
//! matrix, repeated in passes for `--seconds`. `--trace 0` prints the
//! end-to-end metrics; `--trace 1` alternates untraced and traced passes
//! and prints the per-layer metrics. The last line of standard output is
//! one JSON object: `{"correct", "attempted", "failed", "metrics"}`.
//! `perfbench/README.md` describes the workloads and every metric.

mod cells;
mod spans;
mod stats;
mod traced;

use cells::{at_1mb, run_cell, with_l2, Extra, Org, Output, Setup, Spec, WorkloadKind};
use ldis_experiments::exec::{run_cells, ExecPolicy};
use ldis_experiments::report::Json;
use ldis_experiments::{mrc, parallel, run_matrix_with_threads, sweep, RunConfig};
use spans::{now_ns, CellLayers, CellTrace};
use std::collections::BTreeMap;
use std::io::Write;
use std::panic::{catch_unwind, AssertUnwindSafe};

/// Set-up rounds before each pass; `setup_s` is the median round.
const SETUP_ROUNDS_PER_PASS: usize = 3;

/// Where the traced run writes its spans, relative to the working
/// directory.
const TRACE_DIR: &str = ".bench_out";

struct Args {
    workload: WorkloadKind,
    seed: u64,
    seconds: f64,
    trace: bool,
    host: Vec<(String, String)>,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut host = Vec::new();
    let mut args = std::env::args().skip(1);
    while let Some(flag) = args.next() {
        let value = args.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                workload = Some(
                    WorkloadKind::parse(&value)
                        .ok_or_else(|| format!("unknown workload {value:?}"))?,
                )
            }
            "--seed" => seed = Some(value.parse().map_err(|e| format!("--seed: {e}"))?),
            "--seconds" => {
                let s: f64 = value.parse().map_err(|e| format!("--seconds: {e}"))?;
                if !(s > 0.0 && s.is_finite()) {
                    return Err("--seconds must be positive".to_owned());
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace takes 0 or 1".to_owned()),
                })
            }
            "--host" => {
                let (k, v) = value.split_once('=').ok_or("--host takes KEY=VALUE")?;
                host.push((k.to_owned(), v.to_owned()));
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.ok_or("--trace is required")?,
        host,
    })
}

/// A traced cell's spans and layer counters.
#[derive(Clone, Debug)]
struct Layers {
    trace: CellTrace,
    l2_calls: u64,
    extra: Extra,
}

/// One executed cell: its host interval and output.
#[derive(Clone, Debug)]
struct CellRun {
    start: u64,
    end: u64,
    result: Result<Output, String>,
    layers: Option<Layers>,
}

/// Cells compare by output only: the executor's confirmation replay of a
/// retried cell must not see the timestamps.
impl PartialEq for CellRun {
    fn eq(&self, other: &Self) -> bool {
        self.result == other.result
    }
}

/// Runs one cell. A panic propagates: on `sweep` the executor catches,
/// retries or quarantines it; the pool goes through [`run_caught`].
fn run_one(spec: &Spec, cfg: &RunConfig, traced: bool) -> CellRun {
    let start = now_ns();
    let (result, layers) = if traced {
        let mut trace = CellTrace::default();
        match with_l2(
            spec,
            cfg,
            traced::TracedCell {
                cfg,
                trace: &mut trace,
            },
        ) {
            Ok(t) => (
                Ok(t.output),
                Some(Layers {
                    trace,
                    l2_calls: t.l2_calls,
                    extra: t.extra,
                }),
            ),
            Err(e) => (Err(e), None),
        }
    } else {
        (Ok(run_cell(spec, cfg)), None)
    };
    CellRun {
        start,
        end: now_ns(),
        result,
        layers,
    }
}

/// [`run_one`] with a panic turned into a failed cell, for the pool,
/// which has no panic isolation of its own.
fn run_caught(spec: &Spec, cfg: &RunConfig, traced: bool) -> CellRun {
    let start = now_ns();
    catch_unwind(AssertUnwindSafe(|| run_one(spec, cfg, traced))).unwrap_or_else(|_| CellRun {
        start,
        end: now_ns(),
        result: Err("cell panicked".to_owned()),
        layers: None,
    })
}

/// One pass over every cell of a workload.
struct Pass {
    start: u64,
    end: u64,
    workers: usize,
    cells: Vec<CellRun>,
    retries: usize,
}

impl Pass {
    fn seconds(&self) -> f64 {
        (self.end - self.start) as f64 / 1e9
    }

    /// Busy share and idle seconds of the pass's workers.
    fn busy_idle(&self) -> (f64, f64) {
        let busy: f64 = self
            .cells
            .iter()
            .map(|c| (c.end - c.start) as f64 / 1e9)
            .sum();
        let capacity = self.workers as f64 * self.seconds();
        (busy / capacity, capacity - busy)
    }
}

/// Runs every cell once on `workers` threads: `sweep` on the crash-safe
/// executor, `capacity` and `compare` on the scoped pool.
fn run_pass(
    kind: WorkloadKind,
    specs: &[Spec],
    cfg: &RunConfig,
    workers: usize,
    traced: bool,
) -> Pass {
    let start = now_ns();
    let (cells, retries) = match kind {
        WorkloadKind::Sweep => {
            let cfg = *cfg;
            let report = run_cells(
                specs.to_vec(),
                move |_, spec: &Spec| run_one(spec, &cfg, traced),
                &ExecPolicy::with_threads(workers),
                BTreeMap::new(),
                |_, _| {},
            );
            let retried = report.retried;
            let cells = report
                .outcomes
                .into_iter()
                .map(|o| {
                    o.unwrap_or_else(|failure| CellRun {
                        start: 0,
                        end: 0,
                        result: Err(failure.to_string()),
                        layers: None,
                    })
                })
                .collect();
            (cells, retried)
        }
        WorkloadKind::Capacity | WorkloadKind::Compare => {
            let (benchmarks, orgs) = kind.matrix();
            let rows =
                run_matrix_with_threads(workers, &benchmarks, orgs.len(), |&benchmark, c| {
                    run_caught(
                        &Spec {
                            benchmark,
                            org: orgs[c],
                        },
                        cfg,
                        traced,
                    )
                });
            (rows.into_iter().flatten().collect(), 0)
        }
    };
    Pass {
        start,
        end: now_ns(),
        workers,
        cells,
        retries,
    }
}

/// Cells of `pass` that failed or differ from `reference`.
fn failed_cells(pass: &Pass, reference: &[CellRun]) -> Vec<usize> {
    pass.cells
        .iter()
        .enumerate()
        .filter(
            |(i, c)| match (&c.result, reference.get(*i).map(|r| &r.result)) {
                (Ok(out), Some(Ok(want))) => out != want,
                _ => true,
            },
        )
        .map(|(i, _)| i)
        .collect()
}

/// Compares the `sweep` and `capacity` snapshots at the golden
/// configuration (seed 42, 150 000 accesses) with the committed goldens,
/// read directly. Returns (rows compared, rows differing).
fn golden_check(kind: WorkloadKind, workers: usize) -> Result<(u64, u64), String> {
    let cfg = RunConfig::quick();
    let (name, rendered, rows) = match kind {
        WorkloadKind::Sweep => {
            let report = run_cells(
                sweep::cells(),
                move |_, spec: &sweep::CellSpec| sweep::run_cell(spec, &cfg),
                &ExecPolicy::with_threads(workers),
                BTreeMap::new(),
                |_, _| {},
            );
            let rows = report.outcomes.len() as u64;
            (
                "sweep",
                sweep::snapshot(&report.outcomes).render_pretty(),
                rows,
            )
        }
        WorkloadKind::Capacity => (
            "mrc",
            mrc::snapshot(&cfg).render_pretty(),
            mrc::all_benchmarks().len() as u64,
        ),
        WorkloadKind::Compare => return Ok((0, 0)),
    };
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../tests/golden/");
    let committed = std::fs::read_to_string(format!("{path}{name}.json"))
        .map_err(|e| format!("cannot read golden {name}.json: {e}"))?;
    let differing = committed
        .lines()
        .zip(rendered.lines())
        .filter(|(a, b)| a != b)
        .count()
        + committed.lines().count().abs_diff(rendered.lines().count());
    Ok((rows, (differing as u64).min(rows)))
}

/// Median host cost (ns) of one call of `f`, over five batches.
fn cost_ns(mut f: impl FnMut()) -> f64 {
    let per: Vec<f64> = (0..5)
        .map(|_| {
            let n = 20_000;
            let t0 = std::time::Instant::now();
            for _ in 0..n {
                f();
            }
            t0.elapsed().as_nanos() as f64 / f64::from(n)
        })
        .collect();
    stats::median(&per)
}

/// Host cost (ns) of one `Instant::now()` + `elapsed()` pair.
fn timer_pair_ns() -> f64 {
    cost_ns(|| {
        std::hint::black_box(std::time::Instant::now().elapsed());
    })
}

/// Host cost (ns) of recording one empty span.
fn span_ns() -> f64 {
    let mut trace = CellTrace::default();
    cost_ns(|| trace.time(spans::Kind::Gen, None, || ()))
}

/// The process's resident-set high-water mark in MB, from
/// `/proc/self/status`.
fn peak_rss_mb() -> Result<f64, String> {
    let status = std::fs::read_to_string("/proc/self/status")
        .map_err(|e| format!("cannot read /proc/self/status: {e}"))?;
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map(|kb| kb / 1024.0)
        .ok_or_else(|| "no VmHWM in /proc/self/status".to_owned())
}

/// Constructs (and drops) every cell's workload, L2 and hierarchy once.
/// Returns the host seconds spent per constructing crate.
fn setup_round(specs: &[Spec], cfg: &RunConfig) -> Vec<(&'static str, f64)> {
    let mut totals = Vec::new();
    for spec in specs {
        with_l2(
            spec,
            cfg,
            Setup {
                cfg,
                totals: &mut totals,
            },
        );
    }
    totals.into_iter().map(|(l, ns)| (l, ns / 1e9)).collect()
}

/// A named metric with its unit.
struct Metric {
    name: String,
    value: f64,
    unit: &'static str,
}

fn metric(name: impl Into<String>, value: f64, unit: &'static str) -> Metric {
    Metric {
        name: name.into(),
        value,
        unit,
    }
}

fn ratio(num: f64, den: f64) -> f64 {
    if den > 0.0 {
        num / den
    } else {
        0.0
    }
}

/// Each cell's fastest host time (ms) over `passes`. Neighbours on a
/// shared host only ever add time, so the floor is what tracks the code.
fn cell_floors_ms(passes: &[Pass]) -> Vec<f64> {
    (0..passes.first().map_or(0, |p| p.cells.len()))
        .map(|i| {
            passes
                .iter()
                .filter_map(|p| p.cells.get(i))
                .map(|c| (c.end - c.start) as f64 / 1e6)
                .fold(f64::INFINITY, f64::min)
        })
        .collect()
}

/// Simulated accesses per host second (millions): the cell floors run on
/// the pass's workers, scaled by the median pass's busy share. Idle
/// workers and the executor's or pool's scheduling lower the busy share,
/// so a pool that ran one cell at a time on two workers halves the figure.
/// A pass's own wall time also carries each cell's noise in that pass,
/// which on a shared host spreads it several times wider between runs.
fn maccess_per_s(passes: &[Pass], floors_ms: &[f64], accesses: u64) -> f64 {
    let workers = passes.first().map_or(1, |p| p.workers) as f64;
    let busy: Vec<f64> = passes.iter().map(|p| p.busy_idle().0).collect();
    let floor_pass_s = floors_ms.iter().sum::<f64>() / 1e3 / workers;
    floors_ms.len() as f64 * accesses as f64 / 1e6 / floor_pass_s * stats::median(&busy)
}

/// The end-to-end metrics of an untraced run, and a note on how they were
/// taken.
fn end_to_end(
    passes: &[Pass],
    cfg: &RunConfig,
    setup: &[Vec<(&'static str, f64)>],
    rss_mb: f64,
    attempted: u64,
    failed: u64,
) -> Result<(Vec<Metric>, String), String> {
    let floors = cell_floors_ms(passes);
    let (tail_p, tail_ms) = stats::tail(&floors).ok_or("too few cells for a tail percentile")?;
    let setup_s: Vec<f64> = setup
        .iter()
        .map(|round| round.iter().map(|(_, s)| s).sum())
        .collect();
    let pass_s: Vec<f64> = passes.iter().map(Pass::seconds).collect();
    let wall_maccess = floors.len() as f64 * cfg.accesses as f64 / 1e6 / stats::median(&pass_s);
    let note = format!(
        "{} passes of {} cells; median pass {:.4} s wall ({wall_maccess:.3} Maccess/s); cell_ms_tail is p{tail_p}; cell_fail_ratio {}",
        passes.len(),
        floors.len(),
        stats::median(&pass_s),
        ratio(failed as f64, attempted as f64)
    );
    let throughput = maccess_per_s(passes, &floors, cfg.accesses);
    Ok((
        vec![
            metric("maccess_per_s", throughput, "Maccess/s"),
            metric("cell_ms_p50", stats::median(&floors), "ms"),
            metric("cell_ms_tail", tail_ms, "ms"),
            metric("setup_s", stats::median(&setup_s), "s"),
            metric("peak_rss_mb", rss_mb, "MB"),
            metric(
                "cell_ok_ratio",
                1.0 - ratio(failed as f64, attempted as f64),
                "ratio",
            ),
        ],
        note,
    ))
}

/// Simulated counts of one organization, summed over its cells.
#[derive(Default)]
struct Sim {
    accesses: f64,
    hits: f64,
    misses: f64,
    instructions: f64,
    cycles: f64,
}

/// Host time and calls of one L2's replays.
#[derive(Default)]
struct L2Time {
    ns: f64,
    calls: f64,
}

/// The per-layer metrics of a traced run, from its traced passes and the
/// untraced passes interleaved with them. Layers a workload never calls
/// report 0.
fn per_layer(
    kind: WorkloadKind,
    untraced: &[Pass],
    traced_passes: &[Pass],
    cfg: &RunConfig,
    setup: &[Vec<(&'static str, f64)>],
    span_cost_ns: f64,
) -> (Vec<Metric>, Result<(), String>) {
    let specs = kind.specs();
    let mut layers = Vec::new();
    let mut accesses = 0.0;
    let mut timed_accesses = 0.0;
    let mut l2_calls = 0.0;
    let mut spans = 0.0;
    let mut l2: BTreeMap<&str, L2Time> = BTreeMap::new();
    let mut sim: BTreeMap<&str, Sim> = BTreeMap::new();
    let (mut l1d_hits, mut l1d_accesses) = (0.0, 0.0);
    let (mut woc_hits, mut woc_installs, mut hole_misses, mut distill_accesses) =
        (0.0, 0.0, 0.0, 0.0);
    let (mut sampled, mut refs, mut peak_samples) = (0.0, 0.0, 0.0_f64);
    let mut mshr_stall = 0.0;
    for pass in traced_passes {
        for (spec, cell) in specs.iter().zip(&pass.cells) {
            let (Some(l), Ok(out)) = (&cell.layers, &cell.result) else {
                continue;
            };
            let Some(c) = CellLayers::of(&l.trace) else {
                continue;
            };
            layers.push(c);
            spans += l.trace.spans.len() as f64;
            accesses += cfg.accesses as f64;
            l2_calls += l.l2_calls as f64;
            let t = l2.entry(spec.org.l2_metric()).or_default();
            t.ns += c.l2;
            t.calls += l.l2_calls as f64;
            let hier = out.hier();
            l1d_hits += hier.l1d_hits as f64;
            l1d_accesses += hier.l1d_accesses as f64;
            let s = sim.entry(spec.org.key()).or_default();
            s.instructions += hier.instructions as f64;
            if let Some(st) = out.l2() {
                s.accesses += st.accesses as f64;
                s.hits += st.hits() as f64;
                s.misses += st.demand_misses() as f64;
                if spec.org.is_distill() {
                    woc_hits += st.woc_hits as f64;
                    woc_installs += st.woc_installs as f64;
                    hole_misses += st.hole_misses as f64;
                    distill_accesses += st.accesses as f64;
                }
            }
            match out {
                Output::Mattson { points, .. } => {
                    if let Some(p) = at_1mb(points) {
                        s.accesses += p.accesses as f64;
                        s.hits += p.hits as f64;
                        s.misses += p.line_misses as f64;
                    }
                }
                Output::Shards {
                    mpki,
                    hier,
                    peak_samples: peak,
                } => {
                    let m = at_1mb(mpki).copied().unwrap_or(0.0);
                    s.misses += m * hier.instructions as f64 / 1000.0;
                    sampled += l.extra.sampled_refs as f64;
                    refs += l.extra.total_refs as f64;
                    peak_samples = peak_samples.max(*peak as f64);
                }
                Output::Timed { result, .. } => {
                    s.cycles += result.cycles as f64;
                    mshr_stall += result.mshr_stall_cycles as f64;
                    timed_accesses += cfg.accesses as f64;
                }
                Output::Run { .. } => {}
            }
        }
    }
    let total = |f: fn(&CellLayers) -> f64| layers.iter().map(f).sum::<f64>();
    let per_call = |key: &str| l2.get(key).map_or(0.0, |t| ratio(t.ns, t.calls));
    let hit_ratio = |orgs: &[Org]| {
        let (h, a) = orgs
            .iter()
            .filter_map(|o| sim.get(o.key()))
            .fold((0.0, 0.0), |(h, a), s| (h + s.hits, a + s.accesses));
        ratio(h, a)
    };
    let (busy, idle): (Vec<f64>, Vec<f64>) = untraced.iter().map(Pass::busy_idle).unzip();
    let pool = (stats::median(&busy), stats::median(&idle));
    // `sweep` runs on the executor, the other workloads on the pool.
    let ((exec_busy, exec_idle), (pool_busy, pool_idle)) = if kind == WorkloadKind::Sweep {
        (pool, (0.0, 0.0))
    } else {
        ((0.0, 0.0), pool)
    };
    let retries: usize = untraced
        .iter()
        .chain(traced_passes)
        .map(|p| p.retries)
        .sum();

    // Tracing overhead: traced against untraced cell time per pass.
    let per_pass = |passes: &[Pass], f: &dyn Fn(&CellRun) -> f64| {
        ratio(
            passes.iter().flat_map(|p| &p.cells).map(f).sum::<f64>(),
            passes.len() as f64,
        )
    };
    let u_cell = per_pass(untraced, &|c| (c.end - c.start) as f64);
    let t_cell = per_pass(traced_passes, &|c| {
        c.layers
            .as_ref()
            .and_then(|l| CellLayers::of(&l.trace))
            .map_or(0.0, |l| l.cell)
    });
    let overhead_pct = (ratio(t_cell, u_cell) - 1.0) * 100.0;
    let unaccounted_pct = spans::unaccounted_pct(&layers);
    // Recording the spans is the one cost no layer owns; its share is
    // measured directly, as the traced-minus-untraced difference is noisy.
    let span_cost_pct = ratio(spans * span_cost_ns, total(|c| c.cell)) * 100.0;
    let accounted = spans::check_accounting(&layers, span_cost_pct);

    let mut out = vec![
        metric(
            "workloads.gen_ns_per_access",
            ratio(total(|c| c.gen), accesses),
            "ns",
        ),
        metric(
            "cache.driver_ns_per_access",
            ratio(total(|c| c.driver), accesses),
            "ns",
        ),
        metric(
            "cache.l2_calls_per_access",
            ratio(l2_calls, accesses),
            "calls/access",
        ),
        metric(
            "cache.l1d_hit_ratio",
            ratio(l1d_hits, l1d_accesses),
            "ratio",
        ),
        metric(
            "cache.baseline.ns_per_call",
            per_call("cache.baseline"),
            "ns",
        ),
        metric(
            "cache.baseline.hit_ratio",
            hit_ratio(&[Org::Baseline, Org::TimedBaseline]),
            "ratio",
        ),
        metric(
            "distill.ldis_base.ns_per_call",
            per_call("distill.ldis_base"),
            "ns",
        ),
        metric(
            "distill.ldis_mt_rc.ns_per_call",
            per_call("distill.ldis_mt_rc"),
            "ns",
        ),
        metric(
            "distill.woc_hits_per_install",
            ratio(woc_hits, woc_installs),
            "ratio",
        ),
        metric(
            "distill.hole_miss_ratio",
            ratio(hole_misses, distill_accesses),
            "ratio",
        ),
        metric("compress.cmpr.ns_per_call", per_call("compress.cmpr"), "ns"),
        metric("compress.fac.ns_per_call", per_call("compress.fac"), "ns"),
        metric("sfp.ns_per_call", per_call("sfp"), "ns"),
        metric("sfp.hit_ratio", hit_ratio(&[Org::Sfp]), "ratio"),
        metric("mrc.mattson.ns_per_call", per_call("mrc.mattson"), "ns"),
        metric("mrc.shards.ns_per_call", per_call("mrc.shards"), "ns"),
        metric("mrc.shards.sampled_ratio", ratio(sampled, refs), "ratio"),
        metric("mrc.shards.peak_samples", peak_samples, "count"),
        metric(
            "timing.self_ns_per_access",
            ratio(total(|c| c.timing), timed_accesses),
            "ns",
        ),
        metric(
            "timing.mshr_stall_frac",
            ratio(mshr_stall, sim.values().map(|s| s.cycles).sum::<f64>()),
            "ratio",
        ),
        metric("exec.busy_ratio", exec_busy, "ratio"),
        metric("exec.idle_s", exec_idle, "s"),
        metric("exec.retries", retries as f64, "count"),
        metric("parallel.busy_ratio", pool_busy, "ratio"),
        metric("parallel.idle_s", pool_idle, "s"),
    ];
    for layer in [
        "workloads",
        "cache",
        "distill",
        "compress",
        "sfp",
        "mrc",
        "timing",
    ] {
        let rounds: Vec<f64> = setup
            .iter()
            .map(|r| {
                r.iter()
                    .filter(|(l, _)| *l == layer)
                    .fold(0.0, |total, (_, s)| total + s)
            })
            .collect();
        out.push(metric(
            format!("setup.{layer}_s"),
            stats::median(&rounds),
            "s",
        ));
    }
    out.push(metric("trace.overhead_pct", overhead_pct, "%"));
    out.push(metric("trace.unaccounted_pct", unaccounted_pct, "%"));
    out.push(metric("trace.span_cost_pct", span_cost_pct, "%"));
    for org in Org::ALL {
        let s = sim.get(org.key());
        let get = |f: fn(&Sim) -> f64| s.map_or(0.0, f);
        let key = org.key();
        if org != Org::Shards {
            out.push(metric(
                format!("sim.{key}.l2_accesses"),
                get(|s| s.accesses),
                "count",
            ));
            out.push(metric(format!("sim.{key}.hits"), get(|s| s.hits), "count"));
        }
        out.push(metric(
            format!("sim.{key}.misses"),
            get(|s| s.misses),
            "count",
        ));
        out.push(metric(
            format!("sim.{key}.mpki"),
            get(|s| ratio(s.misses * 1000.0, s.instructions)),
            "mpki",
        ));
        if org.l2_timing().is_some() {
            out.push(metric(
                format!("sim.{key}.ipc"),
                get(|s| ratio(s.instructions, s.cycles)),
                "ipc",
            ));
        }
    }
    (out, accounted)
}

/// Writes the spans of `passes`, with the host facts, as tab-separated
/// lines.
fn write_spans(path: &str, host: &Json, passes: &[Pass]) -> std::io::Result<()> {
    std::fs::create_dir_all(TRACE_DIR)?;
    let mut f = std::io::BufWriter::new(std::fs::File::create(path)?);
    writeln!(f, "# host {}", host.render())?;
    writeln!(f, "pass\tcell\tspan\tname\tstart_ns\tend_ns\tparent")?;
    for (p, pass) in passes.iter().enumerate() {
        for (c, cell) in pass.cells.iter().enumerate() {
            let Some(l) = &cell.layers else { continue };
            for (i, s) in l.trace.spans.iter().enumerate() {
                let parent = s.parent.map_or_else(|| "-".to_owned(), |p| p.to_string());
                writeln!(
                    f,
                    "{p}\t{c}\t{i}\t{}\t{}\t{}\t{parent}",
                    s.kind.name(),
                    s.start,
                    s.end
                )?;
            }
        }
    }
    f.flush()
}

fn run(args: &Args) -> Result<bool, String> {
    let kind = args.workload;
    let cfg = RunConfig {
        accesses: kind.accesses(),
        warmup: 0,
        seed: args.seed,
    };
    let workers = parallel::available_threads();
    let timer_ns = timer_pair_ns();
    let mut host = vec![
        ("nproc".to_owned(), Json::uint(workers as u64)),
        ("timer_pair_ns".to_owned(), Json::num(timer_ns)),
    ];
    host.extend(args.host.iter().map(|(k, v)| (k.clone(), Json::str(v))));
    let host = Json::Obj(host);
    println!(
        "perfbench: workload={} seed={} seconds={} trace={} accesses_per_cell={}",
        kind.name(),
        args.seed,
        args.seconds,
        u8::from(args.trace),
        cfg.accesses
    );
    println!("host: {}", host.render());

    let specs = kind.specs();

    // Closed-loop passes until the time is up, each after a few set-up
    // rounds, so set-up is sampled across the run like the passes are.
    // The traced run alternates untraced and traced passes so the
    // overhead compares like with like.
    let begin = now_ns();
    let mut setup = Vec::new();
    let mut untraced: Vec<Pass> = Vec::new();
    let mut traced_passes: Vec<Pass> = Vec::new();
    while untraced.len() < 2 || (now_ns() - begin) as f64 / 1e9 < args.seconds {
        setup.extend((0..SETUP_ROUNDS_PER_PASS).map(|_| setup_round(&specs, &cfg)));
        untraced.push(run_pass(kind, &specs, &cfg, workers, false));
        if args.trace {
            traced_passes.push(run_pass(kind, &specs, &cfg, workers, true));
        }
    }

    // The golden check below runs other cells: read the peak before it.
    let rss_mb = peak_rss_mb()?;

    // Every pass must reproduce the first; traced cells must equal untraced.
    let reference: &[CellRun] = untraced.first().map_or(&[], |p| &p.cells);
    let mut attempted = 0u64;
    let mut failed = 0u64;
    for pass in untraced.iter().chain(&traced_passes) {
        attempted += pass.cells.len() as u64;
        let bad = failed_cells(pass, reference);
        failed += bad.len() as u64;
        for i in bad.iter().take(3) {
            let (key, err) = (
                specs
                    .get(*i)
                    .map(|s| format!("{}/{}", s.benchmark.name, s.org.key())),
                pass.cells.get(*i).and_then(|c| c.result.as_ref().err()),
            );
            eprintln!("perfbench: cell {i} {key:?} failed or diverged: {err:?}");
        }
    }
    let (rows, differing) = golden_check(kind, workers)?;
    attempted += rows;
    failed += differing;
    if rows > 0 {
        println!("golden: {rows} rows at seed 42 / 150000 accesses, {differing} differing");
    }

    let (metrics, accounted) = if args.trace {
        let (m, accounted) = per_layer(kind, &untraced, &traced_passes, &cfg, &setup, span_ns());
        let path = format!("{TRACE_DIR}/trace-{}-{}.tsv", kind.name(), args.seed);
        write_spans(&path, &host, &traced_passes[..1]).map_err(|e| format!("{path}: {e}"))?;
        println!(
            "trace: {} traced + {} untraced passes; first traced pass's spans in {path}",
            traced_passes.len(),
            untraced.len(),
        );
        match &accounted {
            Ok(()) => println!("trace: the layers account for the traced cell time"),
            Err(e) => println!("trace: the layers DO NOT account for the traced cell time: {e}"),
        }
        (m, accounted.is_ok())
    } else {
        let (m, note) = end_to_end(&untraced, &cfg, &setup, rss_mb, attempted, failed)?;
        println!("{}: {note}", kind.name());
        (m, true)
    };
    for m in &metrics {
        println!("  {:<32} {:>16.4} {}", m.name, m.value, m.unit);
    }
    let correct = failed == 0 && accounted;
    let result = Json::obj([
        ("correct", Json::Bool(correct)),
        ("attempted", Json::uint(attempted)),
        ("failed", Json::uint(failed)),
        (
            "metrics",
            Json::Obj(
                metrics
                    .into_iter()
                    .map(|m| {
                        (
                            m.name,
                            Json::obj([("value", Json::num(m.value)), ("unit", Json::str(m.unit))]),
                        )
                    })
                    .collect(),
            ),
        ),
    ]);
    println!("{}", result.render());
    Ok(correct)
}

fn main() {
    let code = match parse_args().and_then(|args| run(&args)) {
        Ok(true) => 0,
        Ok(false) => 1,
        Err(e) => {
            eprintln!("perfbench: {e}");
            2
        }
    };
    std::process::exit(code);
}

#[cfg(test)]
mod tests {
    use super::*;

    const MS: u64 = 1_000_000;

    /// A pass of cells given as (start, end) in ms, ending at `end_ms`.
    fn pass(workers: usize, cells: &[(u64, u64)], end_ms: u64) -> Pass {
        Pass {
            start: 0,
            end: end_ms * MS,
            workers,
            cells: cells
                .iter()
                .map(|&(start, end)| CellRun {
                    start: start * MS,
                    end: end * MS,
                    result: Err(String::new()),
                    layers: None,
                })
                .collect(),
            retries: 0,
        }
    }

    #[test]
    fn floors_take_each_cells_fastest_pass() {
        let passes = [
            pass(2, &[(0, 10), (0, 14)], 14),
            pass(2, &[(0, 12), (0, 11)], 12),
        ];
        assert_eq!(cell_floors_ms(&passes), vec![10.0, 11.0]);
    }

    #[test]
    fn throughput_sees_idle_workers_and_a_serialised_pool() {
        // Two 10 ms cells of 1000 accesses side by side on two workers:
        // 2000 accesses in 10 ms.
        let side_by_side = [pass(2, &[(0, 10), (0, 10)], 10)];
        let floors = cell_floors_ms(&side_by_side);
        assert!((maccess_per_s(&side_by_side, &floors, 1000) - 0.2).abs() < 1e-9);
        // The same cells one after the other: same floors, half the figure.
        let serialised = [pass(2, &[(0, 10), (10, 20)], 20)];
        assert_eq!(cell_floors_ms(&serialised), floors);
        assert!((maccess_per_s(&serialised, &floors, 1000) - 0.1).abs() < 1e-9);
    }
}
