//! The deterministic parallel sweep engine: run the same benchmark ×
//! configuration matrix serially and on a worker pool, show the speedup,
//! and prove the results are bit-identical.
//!
//! Every cell derives its randomness from the run seed and the
//! benchmark's frozen id — never from a shared stream — so scheduling
//! order cannot leak into any number, and every configuration of a
//! benchmark runs on the same trace.
//!
//! ```text
//! cargo run --release --example parallel_sweep
//! ```

use line_distillation::distill::{DistillCache, DistillConfig};
use line_distillation::experiments::{
    parallel, run, run_baseline, run_matrix_with_threads, RunConfig, RunResult,
};
use line_distillation::workloads::memory_intensive;
use std::time::Instant;

fn sweep(threads: usize, cfg: &RunConfig) -> Vec<Vec<RunResult>> {
    let benches = memory_intensive();
    run_matrix_with_threads(threads, &benches, 3, |b, config| match config {
        0 => run_baseline(b, cfg, 1 << 20),
        1 => run(b, cfg, || DistillCache::new(DistillConfig::ldis_base())),
        _ => run(b, cfg, || {
            DistillCache::new(DistillConfig::hpca2007_default())
        }),
    })
}

#[expect(
    clippy::disallowed_methods,
    reason = "the example reports wall-clock speed-ups"
)]
fn main() {
    let cfg = RunConfig::quick();
    let threads = parallel::configured_threads();
    println!("=== Quick sweep: 16 benchmarks x 3 configurations ===");
    println!("worker pool: {threads} thread(s) (override with LDIS_THREADS)\n");

    let t0 = Instant::now();
    let serial = sweep(1, &cfg);
    let serial_time = t0.elapsed();
    println!("serial   (1 thread):  {serial_time:.2?}");

    let t0 = Instant::now();
    let pooled = sweep(threads, &cfg);
    let pooled_time = t0.elapsed();
    println!("parallel ({threads} threads): {pooled_time:.2?}");
    println!(
        "speedup: {:.2}x",
        serial_time.as_secs_f64() / pooled_time.as_secs_f64()
    );

    assert_eq!(serial, pooled, "matrices must be bit-identical");
    println!(
        "\nevery counter and float of the {}x3 matrix is bit-identical\n",
        serial.len()
    );

    println!(
        "{:<10} {:>10} {:>10} {:>10}",
        "bench", "base", "LDIS-Base", "LDIS-MT-RC"
    );
    for (b, row) in memory_intensive().iter().zip(&serial) {
        println!(
            "{:<10} {:>10.3} {:>10.3} {:>10.3}",
            b.name, row[0].mpki, row[1].mpki, row[2].mpki
        );
    }
    println!("\n(MPKI; every column of a row runs the benchmark's one trace, so adding a");
    println!("configuration or reordering the matrix never moves these numbers)");
}
