//! Performance-trajectory harness: wall-clock throughput of the quick
//! sweep matrix.
//!
//! `ldis-experiments bench --quick --out BENCH_sweep.json` times the full
//! 81-cell quick matrix on the crash-safe executor at 1 and 4 worker
//! threads and writes the committed trajectory artifact. Unlike golden
//! snapshots the numbers are host-dependent by nature — the artifact
//! tracks the *trend* across PRs (simulated accesses per second,
//! nanoseconds per access, parallel speedup), not exact bytes, so it is
//! exempt from byte-stability checks. Each artifact records the
//! [`HostFacts`] it was measured on, so numbers from different hosts are
//! never compared blindly.
#![expect(
    clippy::disallowed_methods,
    reason = "this module measures wall-clock throughput; simulated state never reads the clock"
)]

use crate::exec::{run_cells, ExecPolicy, FaultPlan};
use crate::report::{fmt_f, Json, Table};
use crate::{mrc, parallel, run_capacity_sweep, run_sampled_capacity_sweep, sweep, RunConfig};
use ldis_mrc::ShardsConfig;
use ldis_workloads::Workload;
use std::collections::BTreeMap;
use std::path::Path;
use std::time::Instant;

/// The host an artifact was measured on: the facts `perfbench` prints
/// beside its results.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct HostFacts {
    /// Hardware threads available to the process.
    pub nproc: usize,
    /// The `rustc -V` line of the compiler on `PATH`.
    pub rustc: String,
    /// The commit checked out in the current directory.
    pub git_rev: String,
}

impl HostFacts {
    /// Probes this host; a fact that cannot be read is `"unknown"`.
    pub fn probe() -> HostFacts {
        let rustc = std::process::Command::new("rustc")
            .arg("-V")
            .output()
            .ok()
            .and_then(|out| String::from_utf8(out.stdout).ok())
            .map(|v| v.trim().to_owned())
            .filter(|v| !v.is_empty());
        HostFacts {
            nproc: parallel::available_threads(),
            rustc: rustc.unwrap_or_else(|| "unknown".to_owned()),
            git_rev: git_rev(Path::new(".git")),
        }
    }

    fn json(&self) -> Json {
        Json::obj([
            ("nproc", Json::uint(self.nproc as u64)),
            ("rustc", Json::str(&self.rustc)),
            ("git_rev", Json::str(&self.git_rev)),
        ])
    }
}

/// The commit `HEAD` names in `git_dir`, read without running git (which
/// would find an enclosing repository when the checkout is not one), the
/// way `perfbench/run.py` reads it.
fn git_rev(git_dir: &Path) -> String {
    let read = |path: &Path| {
        std::fs::read_to_string(path)
            .ok()
            .map(|text| text.trim().to_owned())
    };
    read(&git_dir.join("HEAD"))
        .and_then(|head| match head.strip_prefix("ref: ") {
            Some(name) => read(&git_dir.join(name)),
            None => Some(head),
        })
        .unwrap_or_else(|| "unknown".to_owned())
}

/// One timed configuration.
#[derive(Clone, Copy, Debug)]
pub struct BenchPoint {
    /// Worker threads used.
    pub threads: usize,
    /// Wall-clock seconds for the full matrix.
    pub wall_s: f64,
    /// Simulated memory accesses per wall-clock second.
    pub accesses_per_s: f64,
    /// Wall-clock nanoseconds per simulated access.
    pub ns_per_access: f64,
}

/// Times the full sweep matrix once per entry of `thread_counts`.
///
/// # Errors
///
/// Returns a message naming every quarantined cell if any cell fails: a
/// sweep with failed cells simulated fewer accesses than the timing
/// divides by, so its numbers would be wrong.
pub fn measure(cfg: &RunConfig, thread_counts: &[usize]) -> Result<Vec<BenchPoint>, String> {
    measure_with(cfg, thread_counts, &FaultPlan::none())
}

/// [`measure`] with `faults` injected into the executor.
fn measure_with(
    cfg: &RunConfig,
    thread_counts: &[usize],
    faults: &FaultPlan,
) -> Result<Vec<BenchPoint>, String> {
    let cells = sweep::cells();
    let total_accesses = cfg.accesses * cells.len() as u64;
    thread_counts
        .iter()
        .map(|&threads| {
            let run_cfg = *cfg;
            let policy = ExecPolicy {
                faults: faults.clone(),
                ..ExecPolicy::with_threads(threads)
            };
            let start = Instant::now();
            let report = run_cells(
                cells.clone(),
                move |_cell, spec| sweep::run_cell(spec, &run_cfg),
                &policy,
                BTreeMap::new(),
                |_, _| {},
            );
            let wall_s = start.elapsed().as_secs_f64().max(1e-9);
            let failed: Vec<String> = report
                .failures()
                .map(|(cell, failure)| match cells.get(cell) {
                    Some(spec) => format!(
                        "cell {cell} ({} {}): {failure}",
                        spec.benchmark.name,
                        spec.config.label()
                    ),
                    None => format!("cell {cell}: {failure}"),
                })
                .collect();
            if !failed.is_empty() {
                return Err(format!(
                    "{} of {} sweep cells failed at {threads} thread(s), so the run is not timed: {}",
                    failed.len(),
                    cells.len(),
                    failed.join("; ")
                ));
            }
            Ok(BenchPoint {
                threads,
                wall_s,
                accesses_per_s: total_accesses as f64 / wall_s,
                ns_per_access: wall_s * 1e9 / total_accesses as f64,
            })
        })
        .collect()
}

/// Where the single-thread wall time of the sweep goes: trace generation
/// versus cache simulation, in nanoseconds per simulated access.
///
/// Generation is measured directly — every cell's workload is regenerated
/// serially into a discarded block buffer, exactly the accesses the sweep
/// simulates — and simulation is the single-thread total minus that.
#[derive(Clone, Copy, Debug)]
pub struct PhaseBreakdown {
    /// Wall-clock seconds spent generating every cell's trace once.
    pub generation_wall_s: f64,
    /// Generation cost per simulated access.
    pub generation_ns_per_access: f64,
    /// Simulation (hierarchy + L2 model) cost per simulated access.
    pub simulation_ns_per_access: f64,
}

/// Times pure trace generation for the full sweep matrix and splits the
/// single-thread total of `serial` into generation and simulation shares.
pub fn measure_phases(cfg: &RunConfig, serial: &BenchPoint) -> PhaseBreakdown {
    let cells = sweep::cells();
    let total_accesses = cfg.accesses * cells.len() as u64;
    let mut buf = Vec::with_capacity(Workload::DRIVE_BLOCK);
    let start = Instant::now();
    for cell in &cells {
        let mut workload = cfg.workload(&cell.benchmark);
        let mut remaining = cfg.warmup + cfg.accesses;
        while remaining > 0 {
            #[expect(
                clippy::cast_possible_truncation,
                reason = "take is at most DRIVE_BLOCK, a usize"
            )]
            let take = remaining.min(Workload::DRIVE_BLOCK as u64) as usize;
            workload.fill_block(&mut buf, take);
            std::hint::black_box(&buf);
            remaining -= take as u64;
        }
    }
    let generation_wall_s = start.elapsed().as_secs_f64().max(1e-9);
    let generation_ns_per_access = generation_wall_s * 1e9 / total_accesses as f64;
    PhaseBreakdown {
        generation_wall_s,
        generation_ns_per_access,
        simulation_ns_per_access: (serial.ns_per_access - generation_ns_per_access).max(0.0),
    }
}

/// The maximum tolerated single-thread ns/access growth over the
/// committed artifact before [`check_regression`] fails: 10%.
pub const REGRESSION_TOLERANCE: f64 = 0.10;

/// Compares a fresh single-thread measurement against the committed
/// `BENCH_sweep.json` text. Returns a human-readable verdict, or an error
/// describing the regression (fresh ns/access more than
/// [`REGRESSION_TOLERANCE`] above the committed value) or a malformed
/// artifact.
pub fn check_regression(committed: &str, fresh: &BenchPoint) -> Result<String, String> {
    let json = Json::parse(committed).map_err(|e| format!("unparseable artifact: {e}"))?;
    let committed_ns = committed_serial_ns(&json)
        .ok_or_else(|| "artifact has no 1-thread ns_per_access entry".to_owned())?;
    let limit = committed_ns * (1.0 + REGRESSION_TOLERANCE);
    let verdict = format!(
        "bench check: fresh {:.1} ns/access vs committed {:.1} (limit {:.1})",
        fresh.ns_per_access, committed_ns, limit
    );
    if fresh.ns_per_access > limit {
        Err(format!("{verdict} — REGRESSION"))
    } else {
        Ok(verdict)
    }
}

/// [`check_regression`], but a failing first measurement is retried up
/// to `retries` more times via `remeasure`, keeping the fastest point.
/// Shared-runner wall-clock varies window-to-window by more than the
/// tolerance; only the best-of-N floor tracks what the code costs, so a
/// regression verdict requires every attempt to exceed the limit.
pub fn check_regression_retrying(
    committed: &str,
    first: &BenchPoint,
    retries: usize,
    mut remeasure: impl FnMut() -> Option<BenchPoint>,
) -> Result<String, String> {
    let mut best = *first;
    let mut verdict = check_regression(committed, &best);
    for _ in 0..retries {
        if verdict.is_ok() {
            break;
        }
        let Some(p) = remeasure() else { break };
        if p.ns_per_access < best.ns_per_access {
            best = p;
        }
        verdict = check_regression(committed, &best);
    }
    verdict
}

/// Extracts the committed single-thread `ns_per_access` from a parsed
/// `BENCH_sweep.json`.
fn committed_serial_ns(json: &Json) -> Option<f64> {
    let Json::Obj(fields) = json else { return None };
    let results = fields.iter().find(|(k, _)| k == "results")?;
    let Json::Arr(points) = &results.1 else {
        return None;
    };
    points.iter().find_map(|p| {
        let Json::Obj(entry) = p else { return None };
        let threads = entry.iter().find_map(|(k, v)| match (k.as_str(), v) {
            ("threads", Json::Uint(t)) => Some(*t),
            _ => None,
        })?;
        if threads != 1 {
            return None;
        }
        entry.iter().find_map(|(k, v)| match (k.as_str(), v) {
            ("ns_per_access", Json::Num(x)) => Some(*x),
            ("ns_per_access", Json::Uint(x)) => Some(*x as f64),
            _ => None,
        })
    })
}

/// The committed `BENCH_sweep.json` artifact.
pub fn snapshot(
    cfg: &RunConfig,
    host: &HostFacts,
    points: &[BenchPoint],
    phases: Option<&PhaseBreakdown>,
) -> Json {
    Json::obj([
        ("bench", Json::str("sweep")),
        (
            "workload",
            Json::obj([
                ("cells", Json::uint(sweep::cells().len() as u64)),
                ("accesses_per_cell", Json::uint(cfg.accesses)),
                ("seed", Json::uint(cfg.seed)),
            ]),
        ),
        ("host", host.json()),
        (
            "results",
            Json::arr(points.iter().map(|p| {
                Json::obj([
                    ("threads", Json::uint(p.threads as u64)),
                    ("wall_s", Json::num(round3(p.wall_s))),
                    ("accesses_per_s", Json::num(round3(p.accesses_per_s))),
                    ("ns_per_access", Json::num(round3(p.ns_per_access))),
                ])
            })),
        ),
        (
            "phases",
            match phases {
                Some(ph) => Json::obj([
                    ("threads", Json::uint(1)),
                    (
                        "generation_ns_per_access",
                        Json::num(round3(ph.generation_ns_per_access)),
                    ),
                    (
                        "simulation_ns_per_access",
                        Json::num(round3(ph.simulation_ns_per_access)),
                    ),
                ]),
                None => Json::Null,
            },
        ),
        (
            "regenerate",
            Json::str(
                "cargo build --release --workspace && \
                 ./target/release/ldis-experiments bench --quick --out BENCH_sweep.json",
            ),
        ),
    ])
}

/// Rounds to 3 decimals so the artifact diffs stay readable.
fn round3(x: f64) -> f64 {
    (x * 1000.0).round() / 1000.0
}

/// One timed MRC pass over the full benchmark population: the exact
/// Mattson engine or the sampled SHARDS engine at one rate.
#[derive(Clone, Debug)]
pub struct MrcBenchPoint {
    /// `"exact"` or `"shards@<rate>"`.
    pub label: String,
    /// The sampling rate (`None` for the exact pass).
    pub rate: Option<f64>,
    /// Wall-clock seconds for all benchmarks, serially.
    pub wall_s: f64,
    /// Simulated memory accesses per wall-clock second.
    pub accesses_per_s: f64,
    /// Maximum sample-set size across benchmarks (`None` for the exact
    /// pass, whose state is the full per-set stacks instead).
    pub peak_samples: Option<u64>,
}

/// Times one exact capacity sweep over every benchmark, then one sampled
/// sweep per entry of `rates` — all serially on the calling thread, so
/// the exact:sampled ratios are not confounded by pool scheduling. The
/// committed artifact is `BENCH_mrc.json`.
pub fn measure_mrc(cfg: &RunConfig, rates: &[f64]) -> Vec<MrcBenchPoint> {
    let benches = mrc::all_benchmarks();
    let total_accesses = cfg.accesses * benches.len() as u64;
    let mut points = Vec::new();
    let start = Instant::now();
    for b in &benches {
        std::hint::black_box(run_capacity_sweep(b, cfg, &mrc::MRC_SIZES));
    }
    let wall_s = start.elapsed().as_secs_f64().max(1e-9);
    points.push(MrcBenchPoint {
        label: "exact".to_owned(),
        rate: None,
        wall_s,
        accesses_per_s: total_accesses as f64 / wall_s,
        peak_samples: None,
    });
    for &rate in rates {
        let shards = ShardsConfig::at_rate(rate);
        let start = Instant::now();
        let mut peak = 0u64;
        for b in &benches {
            let s = run_sampled_capacity_sweep(b, cfg, &mrc::MRC_SIZES, &shards);
            peak = peak.max(s.peak_samples as u64);
        }
        let wall_s = start.elapsed().as_secs_f64().max(1e-9);
        points.push(MrcBenchPoint {
            label: format!("shards@{rate}"),
            rate: Some(rate),
            wall_s,
            accesses_per_s: total_accesses as f64 / wall_s,
            peak_samples: Some(peak),
        });
    }
    points
}

/// The committed `BENCH_mrc.json` artifact: exact vs sampled pass
/// wall-time and peak sample-set size per rate.
pub fn mrc_snapshot(cfg: &RunConfig, host: &HostFacts, points: &[MrcBenchPoint]) -> Json {
    Json::obj([
        ("bench", Json::str("mrc")),
        (
            "workload",
            Json::obj([
                ("benchmarks", Json::uint(mrc::all_benchmarks().len() as u64)),
                ("sizes", Json::uint(mrc::MRC_SIZES.len() as u64)),
                ("accesses_per_benchmark", Json::uint(cfg.accesses)),
                ("seed", Json::uint(cfg.seed)),
            ]),
        ),
        ("host", host.json()),
        (
            "results",
            Json::arr(points.iter().map(|p| {
                let mut fields = vec![
                    ("pass", Json::str(&p.label)),
                    ("wall_s", Json::num(round3(p.wall_s))),
                    ("accesses_per_s", Json::num(round3(p.accesses_per_s))),
                ];
                if let Some(rate) = p.rate {
                    fields.push(("rate", Json::num(rate)));
                }
                if let Some(peak) = p.peak_samples {
                    fields.push(("peak_samples", Json::uint(peak)));
                }
                Json::obj(fields)
            })),
        ),
        (
            "regenerate",
            Json::str(
                "cargo build --release --workspace && \
                 ./target/release/ldis-experiments bench-mrc --quick --out BENCH_mrc.json",
            ),
        ),
    ])
}

/// Renders the human-readable MRC bench table.
pub fn mrc_report(cfg: &RunConfig, points: &[MrcBenchPoint]) -> String {
    let mut t = Table::new(
        "MRC pass throughput (exact Mattson vs sampled SHARDS)",
        &["pass", "wall s", "Maccess/s", "peak samples", "speedup"],
    );
    let exact_wall = points
        .iter()
        .find(|p| p.rate.is_none())
        .map_or(f64::NAN, |p| p.wall_s);
    for p in points {
        t.row(vec![
            p.label.clone(),
            fmt_f(p.wall_s, 3),
            fmt_f(p.accesses_per_s / 1e6, 2),
            p.peak_samples
                .map_or_else(|| "-".to_owned(), |s| s.to_string()),
            fmt_f(exact_wall / p.wall_s.max(1e-9), 2),
        ]);
    }
    t.note(format!(
        "{} benchmarks x {} accesses, serial; regenerate BENCH_mrc.json with \
         `bench-mrc --quick --out`",
        mrc::all_benchmarks().len(),
        cfg.accesses
    ));
    t.render()
}

/// Renders the human-readable bench table.
pub fn report(cfg: &RunConfig, points: &[BenchPoint]) -> String {
    let mut t = Table::new(
        "Sweep throughput (crash-safe executor, full matrix)",
        &["threads", "wall s", "Maccess/s", "ns/access"],
    );
    for p in points {
        t.row(vec![
            p.threads.to_string(),
            fmt_f(p.wall_s, 3),
            fmt_f(p.accesses_per_s / 1e6, 2),
            fmt_f(p.ns_per_access, 1),
        ]);
    }
    if let (Some(serial), Some(fastest)) = (points.first(), points.last()) {
        if fastest.threads > serial.threads {
            t.note(format!(
                "speedup at {} threads: {}x over 1 thread",
                fastest.threads,
                fmt_f(serial.wall_s / fastest.wall_s.max(1e-9), 2)
            ));
        }
    }
    t.note(format!(
        "{} cells x {} accesses; regenerate BENCH_sweep.json with `bench --quick --out`",
        sweep::cells().len(),
        cfg.accesses
    ));
    t.render()
}

/// Renders the single-thread phase split as a one-line note.
pub fn phase_report(ph: &PhaseBreakdown) -> String {
    format!(
        "single-thread phase split: generation {} ns/access, simulation {} ns/access",
        fmt_f(ph.generation_ns_per_access, 1),
        fmt_f(ph.simulation_ns_per_access, 1)
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    fn host() -> HostFacts {
        HostFacts {
            nproc: 2,
            rustc: "rustc 1.0.0".to_owned(),
            git_rev: "abc123".to_owned(),
        }
    }

    #[test]
    fn bench_snapshot_shape_is_stable() {
        let cfg = RunConfig::quick();
        let points = vec![
            BenchPoint {
                threads: 1,
                wall_s: 2.0,
                accesses_per_s: 6_075_000.0,
                ns_per_access: 164.6,
            },
            BenchPoint {
                threads: 4,
                wall_s: 0.55,
                accesses_per_s: 22_090_909.0,
                ns_per_access: 45.3,
            },
        ];
        let phases = PhaseBreakdown {
            generation_wall_s: 0.8,
            generation_ns_per_access: 65.8,
            simulation_ns_per_access: 98.8,
        };
        let json = snapshot(&cfg, &host(), &points, Some(&phases));
        let text = json.render();
        assert!(text.contains("\"bench\": \"sweep\""), "{text}");
        assert!(
            text.contains(
                "\"host\": {\"nproc\": 2, \"rustc\": \"rustc 1.0.0\", \"git_rev\": \"abc123\"}"
            ),
            "{text}"
        );
        let mrc_text = mrc_snapshot(&cfg, &host(), &[]).render();
        assert!(mrc_text.contains("\"git_rev\": \"abc123\""), "{mrc_text}");
        assert!(text.contains("\"threads\": 1"), "{text}");
        assert!(text.contains("\"regenerate\""), "{text}");
        assert!(
            text.contains("\"generation_ns_per_access\": 65.8"),
            "{text}"
        );
        assert!(
            text.contains("\"simulation_ns_per_access\": 98.8"),
            "{text}"
        );
        let rendered = report(&cfg, &points);
        assert!(rendered.contains("speedup"), "{rendered}");
        assert!(phase_report(&phases).contains("generation 65.8"));
    }

    #[test]
    fn regression_check_reads_the_committed_artifact() {
        let cfg = RunConfig::quick();
        let committed = vec![BenchPoint {
            threads: 1,
            wall_s: 2.0,
            accesses_per_s: 10_000_000.0,
            ns_per_access: 100.0,
        }];
        let artifact = snapshot(&cfg, &host(), &committed, None).render_pretty();
        let fresh_ok = BenchPoint {
            ns_per_access: 109.0,
            ..committed[0]
        };
        let fresh_bad = BenchPoint {
            ns_per_access: 111.0,
            ..committed[0]
        };
        assert!(check_regression(&artifact, &fresh_ok).is_ok());
        let err = check_regression(&artifact, &fresh_bad).expect_err(">10% must fail");
        assert!(err.contains("REGRESSION"), "{err}");
        assert!(check_regression("not json", &fresh_ok).is_err());
        assert!(check_regression("{\"results\": []}", &fresh_ok).is_err());
    }

    #[test]
    fn regression_retry_keeps_the_fastest_window() {
        let cfg = RunConfig::quick();
        let committed = vec![BenchPoint {
            threads: 1,
            wall_s: 2.0,
            accesses_per_s: 10_000_000.0,
            ns_per_access: 100.0,
        }];
        let artifact = snapshot(&cfg, &host(), &committed, None).render_pretty();
        let slow = BenchPoint {
            ns_per_access: 140.0,
            ..committed[0]
        };
        // A fast retry window rescues a slow first measurement.
        let mut windows = vec![105.0, 150.0].into_iter();
        let verdict = check_regression_retrying(&artifact, &slow, 3, || {
            windows.next().map(|ns| BenchPoint {
                ns_per_access: ns,
                ..slow
            })
        });
        assert!(verdict.is_ok(), "{verdict:?}");
        // All-slow windows still fail, and a passing first point never
        // triggers a re-measure.
        let all_slow = check_regression_retrying(&artifact, &slow, 2, || Some(slow));
        assert!(all_slow
            .expect_err("every window slow")
            .contains("REGRESSION"));
        let fast = BenchPoint {
            ns_per_access: 95.0,
            ..committed[0]
        };
        let no_retry = check_regression_retrying(&artifact, &fast, 3, || {
            panic!("must not re-measure after a pass")
        });
        assert!(no_retry.is_ok());
    }

    #[test]
    fn git_rev_follows_head_like_the_benchmark_runner() {
        let dir = std::env::temp_dir().join("ldis-perf-git-rev");
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(dir.join("refs/heads")).expect("temp dir");
        assert_eq!(git_rev(&dir), "unknown", "no HEAD");
        std::fs::write(dir.join("HEAD"), "ref: refs/heads/main\n").expect("write HEAD");
        assert_eq!(git_rev(&dir), "unknown", "dangling ref");
        std::fs::write(dir.join("refs/heads/main"), "0123abcd\n").expect("write ref");
        assert_eq!(git_rev(&dir), "0123abcd");
        std::fs::write(dir.join("HEAD"), "89efcdab\n").expect("write HEAD");
        assert_eq!(git_rev(&dir), "89efcdab", "detached HEAD");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn phase_measurement_splits_the_serial_total() {
        let cfg = RunConfig::quick().with_accesses(200);
        let serial = BenchPoint {
            threads: 1,
            wall_s: 1.0,
            accesses_per_s: 16_200.0,
            ns_per_access: 61_728.0,
        };
        let ph = measure_phases(&cfg, &serial);
        assert!(ph.generation_wall_s > 0.0);
        assert!(ph.generation_ns_per_access > 0.0);
        assert!(
            (ph.generation_ns_per_access + ph.simulation_ns_per_access - serial.ns_per_access)
                .abs()
                < 1e-6
                || ph.simulation_ns_per_access == 0.0
        );
    }

    #[test]
    fn measure_times_a_tiny_matrix() {
        // One real (but minuscule) measurement keeps the timing path
        // honest without slowing the suite.
        let cfg = RunConfig::quick().with_accesses(500);
        let points = measure(&cfg, &[1]).expect("every cell succeeds");
        assert_eq!(points.len(), 1);
        let p = points.first().expect("one point");
        assert!(p.wall_s > 0.0);
        assert!(p.accesses_per_s > 0.0);
        assert!(p.ns_per_access > 0.0);
    }

    #[test]
    fn measure_refuses_to_time_a_sweep_with_failed_cells() {
        // Cell 4 panics on every attempt and is quarantined; the bench
        // must report it instead of timing the shortened sweep.
        let cfg = RunConfig::quick().with_accesses(200);
        let faults = FaultPlan::parse("4:panic:9").expect("valid plan");
        let err = measure_with(&cfg, &[1], &faults).expect_err("a failed cell must fail the bench");
        let spec = sweep::cells()[4];
        assert!(err.contains("1 of 81 sweep cells failed"), "{err}");
        assert!(
            err.contains(&format!(
                "cell 4 ({} {})",
                spec.benchmark.name,
                spec.config.label()
            )),
            "{err}"
        );
        assert!(err.contains("injected fault"), "{err}");
    }
}
