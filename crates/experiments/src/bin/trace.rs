//! `ldis-trace`: record, inspect and replay memory-access traces.
//!
//! ```text
//! ldis-trace record <benchmark> <file> [--accesses N] [--seed N]
//! ldis-trace info   <file>
//! ldis-trace replay <file> [--l2 baseline|distill]
//! ```
//!
//! `record` writes the trace every experiment simulates for the benchmark
//! at run seed `--seed` (defaults: the paper run's), so `replay --l2
//! baseline` reproduces Figure 6's baseline. Traces use the LDT1 binary
//! format (`ldis_mem::Trace::write_to`), so a recorded stream can be
//! replayed bit-identically on another machine or against a different
//! cache organization. An unknown flag, a flag without its value, a
//! stray argument or `--accesses 0` exits 2 with the usage.

use ldis_cache::{BaselineL2, CacheConfig, Hierarchy, SecondLevel};
use ldis_distill::{DistillCache, DistillConfig};
use ldis_experiments::report::emit;
use ldis_experiments::RunConfig;
use ldis_mem::{AccessKind, LineGeometry, Trace};
use ldis_workloads::spec2000;
use std::fs::File;
use std::io::{BufReader, BufWriter};

fn usage() -> ! {
    eprintln!(
        "usage:\n  ldis-trace record <benchmark> <file> [--accesses N] [--seed N]\n  \
         ldis-trace info <file>\n  ldis-trace replay <file> [--l2 baseline|distill]"
    );
    std::process::exit(2);
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match args.first().map(String::as_str) {
        Some("record") => record(&args[1..]),
        Some("info") => info(&args[1..]),
        Some("replay") => replay(&args[1..]),
        _ => usage(),
    }
}

/// Splits a subcommand's arguments into its `N` positional arguments and
/// its `--flag value` pairs. An unknown flag, a flag without its value,
/// or a positional argument too many or too few prints the usage.
fn parse<'a, const N: usize>(
    args: &'a [String],
    known: &[&str],
) -> ([&'a str; N], Vec<(&'a str, &'a str)>) {
    let mut positional = Vec::new();
    let mut flags = Vec::new();
    let mut args = args.iter().map(String::as_str);
    while let Some(arg) = args.next() {
        if !arg.starts_with('-') {
            positional.push(arg);
        } else if known.contains(&arg) {
            flags.push((arg, args.next().unwrap_or_else(|| usage())));
        } else {
            usage();
        }
    }
    let positional = <[&str; N]>::try_from(positional).unwrap_or_else(|_| usage());
    (positional, flags)
}

/// The value of flag `name`, the last one given if it was repeated.
fn flag<'a>(flags: &[(&str, &'a str)], name: &str) -> Option<&'a str> {
    flags
        .iter()
        .rev()
        .find(|(f, _)| *f == name)
        .map(|&(_, v)| v)
}

/// The numeric value of flag `name`, or `default` when it was not given.
fn number(flags: &[(&str, &str)], name: &str, default: u64) -> u64 {
    flag(flags, name).map_or(default, |v| v.parse().unwrap_or_else(|_| usage()))
}

fn record(args: &[String]) {
    let ([bench_name, path], flags) = parse(args, &["--accesses", "--seed"]);
    let mut cfg = RunConfig::paper();
    cfg.seed = number(&flags, "--seed", cfg.seed);
    let accesses = number(&flags, "--accesses", cfg.accesses) as usize;
    if accesses == 0 {
        usage();
    }
    let bench = spec2000::by_name(bench_name).unwrap_or_else(|| {
        eprintln!("unknown benchmark: {bench_name}");
        usage()
    });
    let trace = cfg.workload(&bench).record(accesses);
    let file = File::create(path).unwrap_or_else(|e| {
        eprintln!("cannot create {path}: {e}");
        std::process::exit(1);
    });
    if let Err(e) = trace.write_to(BufWriter::new(file)) {
        eprintln!("cannot write {path}: {e}");
        std::process::exit(1);
    }
    emit(&format!(
        "recorded {} accesses ({} instructions) of {} to {path}",
        trace.len(),
        trace.instructions(),
        trace.name()
    ));
}

fn load(path: &str) -> Trace {
    let file = File::open(path).unwrap_or_else(|e| {
        eprintln!("cannot open {path}: {e}");
        std::process::exit(1);
    });
    Trace::read_from(BufReader::new(file)).unwrap_or_else(|e| {
        eprintln!("cannot parse {path}: {e}");
        std::process::exit(1);
    })
}

fn info(args: &[String]) {
    let ([path], _) = parse(args, &[]);
    let trace = load(path);
    let geom = LineGeometry::default();
    let (mut loads, mut stores, mut fetches) = (0u64, 0u64, 0u64);
    let mut lines = std::collections::BTreeSet::new();
    for a in trace.accesses() {
        match a.kind {
            AccessKind::Load => loads += 1,
            AccessKind::Store => stores += 1,
            AccessKind::InstrFetch => fetches += 1,
        }
        lines.insert(geom.line_addr(a.addr));
    }
    emit(&format!(
        "trace:         {}\n\
         accesses:      {}\n\
         instructions:  {}\n\
         loads:         {loads}\n\
         stores:        {stores}\n\
         ifetches:      {fetches}\n\
         distinct 64B lines: {} ({:.2} MB touched)",
        trace.name(),
        trace.len(),
        trace.instructions(),
        lines.len(),
        lines.len() as f64 * 64.0 / (1024.0 * 1024.0)
    ));
}

fn replay(args: &[String]) {
    let ([path], flags) = parse(args, &["--l2"]);
    let l2_kind = flag(&flags, "--l2").unwrap_or("distill");
    let trace = load(path);
    match l2_kind {
        "baseline" => {
            let l2 = BaselineL2::new(CacheConfig::new(1 << 20, 8, LineGeometry::default()));
            let mut hier = Hierarchy::hpca2007(l2);
            hier.run_trace(&trace);
            emit(&format!(
                "baseline: {}\nMPKI: {:.3}",
                hier.l2().stats(),
                hier.mpki()
            ));
        }
        "distill" => {
            let l2 = DistillCache::new(DistillConfig::hpca2007_default());
            let mut hier = Hierarchy::hpca2007(l2);
            hier.run_trace(&trace);
            emit(&format!(
                "{}: {}\nMPKI: {:.3}",
                hier.l2().name(),
                hier.l2().stats(),
                hier.mpki()
            ));
        }
        other => {
            eprintln!("unknown --l2 {other}");
            usage();
        }
    }
}
