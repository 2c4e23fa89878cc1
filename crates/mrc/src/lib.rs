//! Single-pass Mattson miss-ratio-curve (MRC) profiler.
//!
//! The capacity studies of the paper (Figure 8, Table 5, Table 6) compare
//! the distill cache against *traditional LRU caches of several sizes*.
//! Simulating each size separately repeats the same work: for a fixed line
//! geometry, every traditional configuration of a given set count can be
//! answered from **one** pass over the trace using Mattson's classic
//! stack-distance construction — LRU's inclusion property guarantees that
//! an `A`-way cache holds exactly the `A` most recently used lines of each
//! set, so an access hits in every associativity strictly greater than its
//! per-set stack distance.
//!
//! This crate provides that construction in two layers:
//!
//! * [`MattsonProfiler`] — per-set LRU stacks plus a stack-distance
//!   histogram for one set count, with per-associativity *tier* state
//!   (footprints, evictions, writebacks) so the Table 6 words-used
//!   measurements are reproduced exactly, not just the miss counts. The
//!   stacks are flat struct-of-arrays state: one array of line addresses
//!   indexed `set * depth + pos` with a per-set fill count, and one array
//!   of packed per-tier footprint/dirty/instruction bits, allocated on
//!   the first recorded access rather than at construction;
//! * [`MattsonL2`] — a [`SecondLevel`](ldis_cache::SecondLevel)
//!   organization wrapping one profiler per distinct set count, so the
//!   same `ldis-mem` trace stream that drives a real simulation drives
//!   the profiler through the unmodified L1 hierarchy.
//!
//! A third, *approximate* layer — [`ShardsProfiler`] / [`ShardsL2`] —
//! answers the same capacity queries at a configurable constant memory
//! budget via spatially hashed SHARDS sampling, validated against the
//! exact engine by a bounded-error differential oracle
//! (`tests/mrc_sampled_oracle.rs`; see the [`shards`-module docs] for
//! the algorithm and the per-rate error budgets).
//!
//! [`shards`-module docs]: ShardsProfiler
//!
//! Because the profiler is derived independently from the simulator in
//! `ldis-cache`, it doubles as a *differential oracle*: the test suite
//! asserts its miss counts equal direct [`BaselineL2`](ldis_cache::BaselineL2)
//! simulations bit for bit for every benchmark and size of the quick
//! matrix (`tests/mrc_oracle.rs` at the workspace root).
//!
//! # Example
//!
//! One pass answering three cache sizes at once:
//!
//! ```
//! use ldis_cache::{CacheConfig, Hierarchy, SecondLevel};
//! use ldis_mem::{Access, Addr, LineGeometry};
//! use ldis_mrc::MattsonL2;
//!
//! let g = LineGeometry::default();
//! let configs = [
//!     CacheConfig::new(1 << 20, 8, g),  // 1 MB, 2048 sets
//!     CacheConfig::with_sets(2048, 12, g), // 1.5 MB
//!     CacheConfig::new(2 << 20, 8, g),  // 2 MB, 4096 sets
//! ];
//! let mut hier = Hierarchy::hpca2007(MattsonL2::for_configs(&configs));
//! for i in 0..10_000u64 {
//!     hier.access(Access::load(Addr::new((i % 40_000) * 64), 8));
//! }
//! let small = hier.l2().result_for(&configs[0]).map(|r| r.line_misses);
//! let large = hier.l2().result_for(&configs[2]).map(|r| r.line_misses);
//! assert!(small >= large, "misses are non-increasing in capacity");
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![cfg_attr(
    not(test),
    deny(
        clippy::unwrap_used,
        clippy::expect_used,
        clippy::panic,
        clippy::unreachable,
        clippy::todo,
        clippy::unimplemented,
        clippy::indexing_slicing,
        clippy::cast_possible_truncation,
        clippy::allow_attributes,
        clippy::allow_attributes_without_reason
    )
)]

mod l2;
mod profiler;
mod shards;

pub use l2::{ConfigResult, MattsonL2};
pub use profiler::MattsonProfiler;
pub use shards::{
    check_bounded_error, epsilon_miss_ratio, mpki_tolerance, spatial_hash, SampleOutcome,
    SampledMrc, ShardsConfig, ShardsL2, ShardsProfiler, EPSILON_TABLE, SHARDS_MODULUS,
    SHARDS_MODULUS_BITS,
};
