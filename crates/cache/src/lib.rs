//! Set-associative cache substrate for the Line Distillation simulator.
//!
//! This crate provides the cache structures the paper's experiments are
//! built from — everything *except* the distill cache itself, which lives
//! in `ldis-distill`:
//!
//! * [`CacheConfig`] — size / associativity / geometry with derived set
//!   indexing;
//! * [`SetAssocCache`] — a traditional set-associative cache with true-LRU
//!   replacement, per-line [`Footprint`](ldis_mem::Footprint) tracking and
//!   the recency-position-before-footprint-change instrumentation that
//!   drives the paper's Figure 2;
//! * [`SectoredCache`] — the sectored first-level data cache of Section 4.2
//!   (per-word valid bits, so the L1D can hold partially-valid lines
//!   returned by the WOC);
//! * [`SecondLevel`] — the interface every L2 organization in this
//!   workspace implements (baseline, distill, compressed, SFP), plus
//!   [`BaselineL2`], the paper's 1 MB 8-way baseline;
//! * [`CacheHealth`] and friends — the resilience vocabulary (fault
//!   accounting, protection schemes, the structured degradation log) used
//!   by organizations that model soft errors in their metadata;
//! * [`Hierarchy`] — the L1I + L1D + L2 driver that routes footprints from
//!   the L1D back to the L2 exactly as the paper's framework (Section 4.1).
//!
//! # Example
//!
//! ```
//! use ldis_cache::{BaselineL2, CacheConfig, Hierarchy, SecondLevel};
//! use ldis_mem::{Access, Addr, LineGeometry};
//!
//! let geom = LineGeometry::default();
//! let l2 = BaselineL2::new(CacheConfig::new(1 << 20, 8, geom));
//! let mut hier = Hierarchy::hpca2007(l2);
//! hier.access(Access::load(Addr::new(0x1000), 8));
//! assert_eq!(hier.l2().stats().accesses, 1);
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

mod arena;
mod cache;
mod config;
mod entry;
mod health;
mod hierarchy;
mod second_level;
mod sectored;
mod stats;

pub use arena::{shift_in_mru, SetArena};
pub use cache::{EvictedLine, FootprintFault, SetAssocCache};
pub use config::CacheConfig;
pub use entry::TagEntry;
pub use health::{CacheHealth, DegradationEvent, FaultStats, ProtectionScheme, RecoveryAction};
pub use hierarchy::{AccessTrace, Hierarchy, HierarchyStats};
pub use second_level::{BaselineL2, L2Outcome, L2Request, L2Response, SecondLevel};
pub use sectored::{EvictedL1Line, L1Lookup, SectoredCache};
pub use stats::{CompulsoryTracker, L2Stats};
