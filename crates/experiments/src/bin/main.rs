//! `ldis-experiments`: regenerate the paper's tables and figures.
//!
//! Usage:
//!
//! ```text
//! ldis-experiments [EXPERIMENT...] [--accesses N] [--warmup N] [--seed N]
//!                  [--threads N] [--quick]
//!
//! EXPERIMENT: all fig1 fig2 table2 fig6 fig7 fig8 fig9 table3 fig10
//!             fig11 fig13 table5 table6 mrc advisor ablations resilience
//! ```
//!
//! `--quick` sets the short access budget of [`RunConfig::quick`] and
//! keeps every other flag; `--accesses` must be positive.
//!
//! Sweeps run on a worker pool sized by `--threads`, the `LDIS_THREADS`
//! environment variable, or the machine's available parallelism (in that
//! priority order). Results are bit-identical for every thread count.
//!
//! One operational command runs outside the `all` set:
//!
//! ```text
//! ldis-experiments sweep [--journal FILE] [--resume] [--cell N]
//!                        [--cell-timeout MS] [--max-retries N]
//!                        [--fault CELL:KIND[:ATTEMPTS],...]
//!                        [--out FILE] [--quarantine FILE] [--golden-check]
//! ```
//!
//! `sweep` runs the full 27-benchmark × 3-configuration matrix on the
//! crash-safe executor: cells are panic-isolated, retried, watchdogged
//! and checkpointed; `--resume` replays a checksummed journal and
//! produces bytes identical to an uninterrupted run. Wall-clock
//! throughput is measured by the standalone `perfbench/` package, not
//! by this binary.

use ldis_experiments::exec::FaultPlan;
use ldis_experiments::{
    ablations, advisor, appendix, costs, fig10, fig11, fig13, fig6, fig7, fig8, fig9, linesize,
    motivation, mrc, parallel, resilience, sweep, table3, RunConfig,
};
use std::io::{ErrorKind, Write};
use std::num::NonZeroU64;

const ALL: &[&str] = &[
    "fig1",
    "fig2",
    "table2",
    "fig6",
    "fig7",
    "fig8",
    "fig9",
    "table3",
    "fig10",
    "fig11",
    "fig13",
    "table5",
    "table6",
    "mrc",
    "advisor",
    "costs",
    "linesize",
    "ablations",
    "resilience",
];

fn usage() -> ! {
    eprintln!(
        "usage: ldis-experiments [EXPERIMENT...] [--accesses N] [--warmup N] [--seed N] \
         [--threads N] [--quick]\n\
         experiments: all {}\n\
         crash-safe sweep: sweep [--journal FILE] [--resume] [--cell N] [--cell-timeout MS]\n\
         \u{20}                  [--max-retries N] [--fault CELL:KIND[:ATTEMPTS],...]\n\
         \u{20}                  [--out FILE] [--quarantine FILE] [--golden-check]\n\
         threads default to LDIS_THREADS or the available parallelism; results are\n\
         bit-identical for every thread count",
        ALL.join(" ")
    );
    std::process::exit(2);
}

/// Writes `text` and a newline to stdout. A reader that closed the pipe
/// has all it wants, so a broken pipe exits 0 without a message; any
/// other write error fails the run.
fn emit(text: &str) {
    let mut stdout = std::io::stdout().lock();
    if let Err(e) = writeln!(stdout, "{text}").and_then(|()| stdout.flush()) {
        if e.kind() == ErrorKind::BrokenPipe {
            std::process::exit(0);
        }
        eprintln!("cannot write the report: {e}");
        std::process::exit(1);
    }
}

fn main() {
    let mut cfg = RunConfig::paper();
    let mut wanted: Vec<String> = Vec::new();
    let mut journal: Option<std::path::PathBuf> = None;
    let mut resume = false;
    let mut only_cell: Option<usize> = None;
    let mut cell_timeout_ms: Option<u64> = None;
    let mut max_retries: u32 = 2;
    let mut faults = FaultPlan::none();
    let mut out: Option<std::path::PathBuf> = None;
    let mut quarantine: Option<std::path::PathBuf> = None;
    let mut golden_check = false;
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--accesses" => {
                let v = args.next().unwrap_or_else(|| usage());
                let n: NonZeroU64 = v.parse().unwrap_or_else(|_| usage());
                cfg.accesses = n.get();
            }
            "--warmup" => {
                let v = args.next().unwrap_or_else(|| usage());
                cfg.warmup = v.parse().unwrap_or_else(|_| usage());
            }
            "--seed" => {
                let v = args.next().unwrap_or_else(|| usage());
                cfg.seed = v.parse().unwrap_or_else(|_| usage());
            }
            "--threads" => {
                let v = args.next().unwrap_or_else(|| usage());
                let n: usize = v.parse().unwrap_or_else(|_| usage());
                if n == 0 {
                    usage();
                }
                parallel::set_thread_override(Some(n));
            }
            "--quick" => cfg.accesses = RunConfig::quick().accesses,
            "--journal" => journal = Some(args.next().unwrap_or_else(|| usage()).into()),
            "--resume" => resume = true,
            "--cell" => {
                let v = args.next().unwrap_or_else(|| usage());
                only_cell = Some(v.parse().unwrap_or_else(|_| usage()));
            }
            "--cell-timeout" => {
                let v = args.next().unwrap_or_else(|| usage());
                cell_timeout_ms = Some(v.parse().unwrap_or_else(|_| usage()));
            }
            "--max-retries" => {
                let v = args.next().unwrap_or_else(|| usage());
                max_retries = v.parse().unwrap_or_else(|_| usage());
            }
            "--fault" => {
                let v = args.next().unwrap_or_else(|| usage());
                faults = FaultPlan::parse(&v).unwrap_or_else(|e| {
                    eprintln!("{e}");
                    usage()
                });
            }
            "--out" => out = Some(args.next().unwrap_or_else(|| usage()).into()),
            "--quarantine" => quarantine = Some(args.next().unwrap_or_else(|| usage()).into()),
            "--golden-check" => golden_check = true,
            "--help" | "-h" => usage(),
            name if name.starts_with('-') => usage(),
            name => wanted.push(name.to_owned()),
        }
    }

    // `sweep` is an operational command dispatched outside the per-figure
    // loop (and never part of `all`).
    if wanted.iter().any(|w| w == "sweep") {
        if wanted.len() > 1 {
            eprintln!("`sweep` runs alone (it has its own flags)");
            usage();
        }
        let mut opts = sweep::SweepOptions::new(cfg, parallel::configured_threads());
        opts.max_retries = max_retries;
        opts.cell_timeout_ms = cell_timeout_ms;
        opts.faults = faults;
        opts.journal = journal;
        opts.resume = resume;
        opts.out = out;
        opts.quarantine_out = quarantine;
        opts.only_cell = only_cell;
        opts.golden_check = golden_check;
        match sweep::execute(&opts) {
            Ok(outcome) => {
                emit(&outcome.text);
                if outcome.quarantined > 0 {
                    // Quarantine degrades the run; it does not fail it.
                    eprintln!(
                        "{} cell(s) quarantined; see the report above",
                        outcome.quarantined
                    );
                }
            }
            Err(e) => {
                eprintln!("sweep failed: {e}");
                std::process::exit(1);
            }
        }
        return;
    }
    if wanted.is_empty() || wanted.iter().any(|w| w == "all") {
        wanted = ALL.iter().map(|s| (*s).to_owned()).collect();
    }
    for w in &wanted {
        if !ALL.contains(&w.as_str()) {
            eprintln!("unknown experiment: {w}");
            usage();
        }
    }

    emit(&format!(
        "Line Distillation (HPCA 2007) reproduction — {} accesses per run, seed {}, \
         warmup {}, {} worker thread(s)\n",
        cfg.accesses,
        cfg.seed,
        cfg.warmup,
        parallel::configured_threads()
    ));

    // Figure 1 / Figure 2 / Table 2 share one baseline run per benchmark.
    let needs_motivation = wanted
        .iter()
        .any(|w| matches!(w.as_str(), "fig1" | "fig2" | "table2"));
    let profiles = if needs_motivation {
        Some(motivation::data(&cfg))
    } else {
        None
    };

    for w in &wanted {
        let out = match w.as_str() {
            "fig1" => motivation::fig1_report(profiles.as_ref().expect("computed above")),
            "fig2" => motivation::fig2_report(profiles.as_ref().expect("computed above")),
            "table2" => motivation::table2_report(profiles.as_ref().expect("computed above")),
            "fig6" => fig6::report(&fig6::data(&cfg)),
            "fig7" => fig7::report(&fig7::data(&cfg)),
            "fig8" => fig8::report(&fig8::data(&cfg)),
            "fig9" => fig9::report(&fig9::data(&cfg)),
            "table3" => table3::report(),
            "fig10" => fig10::report(&fig10::data(&cfg)),
            "fig11" => fig11::report(&fig11::data(&cfg)),
            "fig13" => fig13::report(&fig13::data(&cfg)),
            "costs" => costs::report(&costs::data(&cfg)),
            "linesize" => linesize::report(&linesize::data(&cfg)),
            "table5" => appendix::table5_report(&appendix::table5_data(&cfg)),
            "table6" => appendix::table6_report(&appendix::table6_data(&cfg)),
            "mrc" => mrc::report(&mrc::data(&cfg)),
            "advisor" => advisor::report(&advisor::data(&cfg)),
            "ablations" => ablations::all(&cfg),
            "resilience" => resilience::report(&resilience::data(&cfg)),
            _ => unreachable!("validated above"),
        };
        emit(&out);
    }
}
