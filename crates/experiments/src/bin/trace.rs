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
//! cache organization.

use ldis_cache::{BaselineL2, CacheConfig, Hierarchy, SecondLevel};
use ldis_distill::{DistillCache, DistillConfig};
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

fn parse_flag(args: &[String], flag: &str, default: u64) -> u64 {
    args.iter()
        .position(|a| a == flag)
        .and_then(|i| args.get(i + 1))
        .map(|v| v.parse().unwrap_or_else(|_| usage()))
        .unwrap_or(default)
}

fn record(args: &[String]) {
    let (bench_name, path) = match (args.first(), args.get(1)) {
        (Some(b), Some(p)) => (b.clone(), p.clone()),
        _ => usage(),
    };
    let mut cfg = RunConfig::paper();
    cfg.seed = parse_flag(args, "--seed", cfg.seed);
    let accesses = parse_flag(args, "--accesses", cfg.accesses) as usize;
    let bench = spec2000::by_name(&bench_name).unwrap_or_else(|| {
        eprintln!("unknown benchmark: {bench_name}");
        usage()
    });
    let trace = cfg.workload(&bench).record(accesses);
    let file = File::create(&path).expect("create trace file");
    trace
        .write_to(BufWriter::new(file))
        .expect("write trace file");
    println!(
        "recorded {} accesses ({} instructions) of {} to {path}",
        trace.len(),
        trace.instructions(),
        trace.name()
    );
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
    let path = args.first().unwrap_or_else(|| usage());
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
    println!("trace:         {}", trace.name());
    println!("accesses:      {}", trace.len());
    println!("instructions:  {}", trace.instructions());
    println!("loads:         {loads}");
    println!("stores:        {stores}");
    println!("ifetches:      {fetches}");
    println!(
        "distinct 64B lines: {} ({:.2} MB touched)",
        lines.len(),
        lines.len() as f64 * 64.0 / (1024.0 * 1024.0)
    );
}

fn replay(args: &[String]) {
    let path = args.first().unwrap_or_else(|| usage());
    let l2_kind = args
        .iter()
        .position(|a| a == "--l2")
        .and_then(|i| args.get(i + 1))
        .map(String::as_str)
        .unwrap_or("distill");
    let trace = load(path);
    match l2_kind {
        "baseline" => {
            let l2 = BaselineL2::new(CacheConfig::new(1 << 20, 8, LineGeometry::default()));
            let mut hier = Hierarchy::hpca2007(l2);
            hier.run_trace(&trace);
            println!("baseline: {}", hier.l2().stats());
            println!("MPKI: {:.3}", hier.mpki());
        }
        "distill" => {
            let l2 = DistillCache::new(DistillConfig::hpca2007_default());
            let mut hier = Hierarchy::hpca2007(l2);
            hier.run_trace(&trace);
            println!("{}: {}", hier.l2().name(), hier.l2().stats());
            println!("MPKI: {:.3}", hier.mpki());
        }
        other => {
            eprintln!("unknown --l2 {other}");
            usage();
        }
    }
}
