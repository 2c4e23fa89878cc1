//! Synthetic workload models for the Line Distillation reproduction.
//!
//! The paper evaluates on SPEC CPU2000 Alpha SimPoints plus olden's
//! `health`. Those traces are not redistributable, so this crate models
//! each benchmark from the paper's own published characterization (see
//! [`spec2000`] for the calibration sources) using composable access
//! [`streams`](crate::Stream): pointer chases, sequential/rotating scans,
//! hot sets, two-pass streams and code loops.
//!
//! Two properties make the models faithful where it matters for LDIS:
//!
//! 1. **Sticky footprints** — each line has a deterministic word subset
//!    ([`WordsProfile`]), so footprints stabilize in the LRU stack exactly
//!    as the paper's Figure 2 observes;
//! 2. **Working-set pressure** — region sizes are chosen relative to the
//!    same 1 MB L2 the paper uses, preserving miss-rate ratios.
//!
//! # Example
//!
//! ```
//! use ldis_cache::{BaselineL2, CacheConfig, Hierarchy, SecondLevel};
//! use ldis_workloads::{spec2000, TraceLength};
//! use ldis_mem::LineGeometry;
//!
//! let mut mcf = spec2000::mcf(42);
//! let l2 = BaselineL2::new(CacheConfig::new(1 << 20, 8, LineGeometry::default()));
//! let mut hier = Hierarchy::hpca2007(l2);
//! mcf.drive(&mut hier, TraceLength::accesses(20_000));
//! assert!(hier.mpki() > 0.0);
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

pub mod insensitive;
mod profile;
pub mod spec2000;
mod streams;
pub mod tenants;
mod workload;

pub use insensitive::cache_insensitive;
pub use profile::{ValueProfile, WordClass, WordsProfile};
pub use spec2000::{memory_intensive, Benchmark};
pub use streams::{
    CodeLoop, HotSet, PointerChase, RotatingScan, SequentialScan, Stream, TwoPassScan, Visit,
    VisitKind,
};
pub use tenants::{TenantAccess, TenantMix, TenantMixBuilder};
pub use workload::{TraceLength, Workload, WorkloadBuilder};
