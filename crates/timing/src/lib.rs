//! Execution timing model for the IPC experiments (Figure 9).
//!
//! The paper measures IPC with an in-house execution-driven Alpha
//! simulator. This crate reproduces the *mechanism* that produces the IPC
//! deltas — miss counts filtered through memory-level parallelism and the
//! Table 1 memory system — with a first-order model:
//!
//! * [`SystemConfig`] — the Table 1 parameters (8-wide, 15-cycle branch
//!   penalty, 400-cycle DRAM over 32 banks, 32-entry MSHR, 16 B bus at
//!   4:1) plus two workload factors: dependence (how serial the miss
//!   stream is) and branch misprediction rate;
//! * [`L2Timing`] — baseline vs. distill latencies (+1 tag cycle, +2 WOC
//!   rearrangement cycles, Section 7.4);
//! * [`MemorySystem`] — DRAM banks with conflicts, split-transaction bus,
//!   MSHR bound;
//! * [`TimingSim`] — drives a [`Hierarchy`](ldis_cache::Hierarchy) and
//!   charges cycles per access.
//!
//! # Example
//!
//! ```
//! use ldis_cache::{BaselineL2, CacheConfig};
//! use ldis_mem::LineGeometry;
//! use ldis_timing::{L2Timing, SystemConfig, TimingSim};
//! use ldis_workloads::spec2000;
//!
//! let l2 = BaselineL2::new(CacheConfig::new(1 << 20, 8, LineGeometry::default()));
//! let mut sim = TimingSim::new(l2, SystemConfig::hpca2007_baseline(), L2Timing::baseline());
//! let result = sim.run(&mut spec2000::twolf(1), 10_000);
//! assert!(result.ipc() > 0.0);
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

mod config;
mod cpu;
mod dram;

pub use config::{workload_factors, L2Timing, SystemConfig};
pub use cpu::{TimingResult, TimingSim};
pub use dram::MemorySystem;
