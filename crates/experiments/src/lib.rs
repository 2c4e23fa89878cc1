//! Experiment harness: regenerates every table and figure of
//! *"Line Distillation"* (HPCA 2007).
//!
//! Each module corresponds to one experiment and exposes a `data` function
//! (structured results) and a `report`/`*_report` function (a rendered
//! text table). The `ldis-experiments` binary drives them:
//!
//! ```text
//! ldis-experiments all                 # every table and figure
//! ldis-experiments fig6 --accesses 4000000
//! ldis-experiments fig9 table3 --quick
//! ```
//!
//! | experiment | paper artifact |
//! |---|---|
//! | [`motivation`] | Figure 1, Figure 2, Table 2 |
//! | [`fig6`] | Figure 6 (LDIS configurations) |
//! | [`fig7`] | Figure 7 (hit/miss breakdown) |
//! | [`fig8`] | Figure 8 (capacity analysis) |
//! | [`fig9`] | Figure 9 (IPC) |
//! | [`table3`] | Table 3 (storage overhead) |
//! | [`fig10`] | Figure 10 (compressibility) |
//! | [`fig11`] | Figure 11 (LDIS / CMPR / FAC) |
//! | [`fig13`] | Figure 13 (SFP comparison) |
//! | [`appendix`] | Table 5, Table 6 |
//! | [`mrc`] | miss-ratio curves (single-pass Mattson capacity sweep) |
//! | [`advisor`] | per-tenant capacity/LOC:WOC advisor (sampled SHARDS MRCs) |
//! | [`costs`] | Section 7.5 latency/energy costs |
//! | [`linesize`] | Section 2 footnote / §7.5.1 line-size sensitivity |
//! | [`ablations`] | design-choice ablations (DESIGN.md §7) |
//! | [`resilience`] | fault-injection campaign (DESIGN.md fault model) |
//! | [`sweep`] | full matrix on the crash-safe executor ([`exec`]) |

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

pub mod ablations;
pub mod advisor;
pub mod appendix;
pub mod costs;
pub mod exec;
pub mod fig10;
pub mod fig11;
pub mod fig13;
pub mod fig6;
pub mod fig7;
pub mod fig8;
pub mod fig9;
pub mod golden;
pub mod linesize;
pub mod motivation;
pub mod mrc;
pub mod parallel;
pub mod report;
pub mod resilience;
mod runner;
pub mod sweep;
pub mod table3;

pub use runner::{
    baseline_config, for_each_benchmark, run, run_baseline, run_baseline_with_words,
    run_capacity_sweep, run_matrix, run_matrix_with_threads, run_sampled_capacity_sweep, run_timed,
    CapacityPoint, CapacitySweep, RunConfig, RunResult, SampledCapacityPoint, SampledCapacitySweep,
};
