//! The paper's motivating case: pointer-chasing workloads (olden `health`)
//! where most words of every cache line are dead weight.
//!
//! Shows the four distill-cache outcomes, the WOC's occupancy, and how the
//! benefit compares against simply buying a bigger traditional cache
//! (Figure 8's capacity analysis).
//!
//! ```text
//! cargo run --release --example pointer_chasing
//! ```

use line_distillation::cache::{BaselineL2, CacheConfig, Hierarchy, SecondLevel};
use line_distillation::distill::{DistillCache, DistillConfig};
use line_distillation::mem::{LineGeometry, SetIndex};
use line_distillation::workloads::{spec2000, TraceLength};

const ACCESSES: u64 = 2_000_000;

fn run_traditional(size_bytes: u64) -> f64 {
    let lines = size_bytes / 64;
    let ways = if (lines / 8).is_power_of_two() {
        8
    } else {
        (lines / 2048) as u32
    };
    let cfg = CacheConfig::with_sets(lines / ways as u64, ways, LineGeometry::default());
    let mut hier = Hierarchy::hpca2007(BaselineL2::new(cfg));
    spec2000::health(7).drive(&mut hier, TraceLength::accesses(ACCESSES));
    hier.mpki()
}

fn main() {
    println!("=== health (olden): linked-list traversal, ~2.4 of 8 words used ===\n");

    let distill = DistillCache::new(DistillConfig::hpca2007_default());
    let mut hier = Hierarchy::hpca2007(distill);
    spec2000::health(7).drive(&mut hier, TraceLength::accesses(ACCESSES));

    let d = hier.l2().stats();
    let total = d.accesses as f64;
    println!("distill cache (1MB) access breakdown:");
    println!("  LOC hits:    {:>6.1}%", d.loc_hits as f64 / total * 100.0);
    println!("  WOC hits:    {:>6.1}%", d.woc_hits as f64 / total * 100.0);
    println!(
        "  hole misses: {:>6.1}%",
        d.hole_misses as f64 / total * 100.0
    );
    println!(
        "  line misses: {:>6.1}%",
        d.line_misses as f64 / total * 100.0
    );

    // WOC occupancy: how many word slots hold live data, and how many
    // lines fit in a few sample sets.
    let woc = hier.l2().woc();
    let capacity = 2048 * 2 * 8u64;
    println!(
        "\nWOC occupancy: {} of {} word slots ({:.1}%)",
        woc.occupancy(),
        capacity,
        woc.occupancy() as f64 / capacity as f64 * 100.0
    );
    for set in [0usize, 512, 1024] {
        println!(
            "  set {set:>4}: {} distilled lines resident",
            woc.lines_in_set(SetIndex::new(set))
        );
    }
    println!(
        "\nmedian-threshold: current threshold = {} words ({} windows)",
        hier.l2().median().threshold(),
        hier.l2().median().windows_completed()
    );

    // Capacity comparison (Figure 8): the same workload against bigger
    // traditional caches.
    println!("\nMPKI vs. traditional caches of growing size:");
    let distill_mpki = hier.mpki();
    for (label, size) in [("1MB", 1u64 << 20), ("1.5MB", 3 << 19), ("2MB", 2 << 20)] {
        println!("  traditional {label:>5}: {:>7.3}", run_traditional(size));
    }
    println!("  distill     1MB  : {distill_mpki:>7.3}");
    println!("\nFor pointer chases whose dataset exceeds 2MB, one distilled");
    println!("megabyte outperforms doubling the cache (paper, Figure 8).");
}
