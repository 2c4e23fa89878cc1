//! The single-pass Mattson MRC engine vs. per-size direct simulation:
//! compute the full {0.5, 0.75, 1, 1.5, 2, 4} MB capacity sweep both
//! ways, show the speedup, and prove the numbers are bit-identical.
//!
//! One Mattson pass maintains a per-set LRU stack and a stack-distance
//! histogram; the LRU inclusion property then answers every
//! associativity of the sweep at once, where the direct path pays one
//! full simulation per cache size.
//!
//! ```text
//! cargo run --release --example mrc_speedup
//! ```

use line_distillation::experiments::{
    for_each_benchmark, mrc, run_baseline_with_words, run_capacity_sweep, run_matrix, RunConfig,
};
use std::time::Instant;

#[expect(
    clippy::disallowed_methods,
    reason = "the example reports wall-clock speed-ups"
)]
fn main() {
    let cfg = RunConfig::quick();
    let benches = mrc::all_benchmarks();
    let sizes = &mrc::MRC_SIZES;
    println!(
        "=== MRC sweep: {} benchmarks x {} cache sizes ===\n",
        benches.len(),
        sizes.len()
    );

    let t0 = Instant::now();
    let direct = run_matrix(&benches, sizes.len(), |b, i| {
        run_baseline_with_words(b, &cfg, sizes[i])
    });
    let direct_time = t0.elapsed();
    println!(
        "direct  ({} simulations): {direct_time:.2?}",
        benches.len() * sizes.len()
    );

    let t0 = Instant::now();
    let sweeps = for_each_benchmark(&benches, |b| run_capacity_sweep(b, &cfg, sizes));
    let mattson_time = t0.elapsed();
    println!(
        "mattson ({} passes):      {mattson_time:.2?}",
        benches.len()
    );
    println!(
        "speedup: {:.2}x\n",
        direct_time.as_secs_f64() / mattson_time.as_secs_f64()
    );

    let mut cells = 0usize;
    for (sweep, row) in sweeps.iter().zip(&direct) {
        for (&size, (r, words)) in sizes.iter().zip(row) {
            let p = sweep.point(size).expect("size missing from sweep");
            assert_eq!(p.mpki.to_bits(), r.mpki.to_bits());
            assert_eq!(p.result.line_misses, r.l2.line_misses);
            assert_eq!(p.result.words_used_with_resident, *words);
            cells += 1;
        }
    }
    println!("bit-identical across all {cells} (benchmark, size) cells ✓");
}
