//! Line Distillation and the Distill Cache — the contribution of
//! *"Line Distillation: Increasing Cache Capacity by Filtering Unused Words
//! in Cache Lines"* (Qureshi, Suleman & Patt, HPCA 2007).
//!
//! A cache line's *footprint* records which 8 B words the processor
//! actually used. Because footprints stabilize as a line drifts down the
//! LRU stack, the used/unused split is trustworthy by eviction time. The
//! [`DistillCache`] exploits this: lines live in a Line-Organized Cache
//! (LOC); on eviction, only the used words move into a Word-Organized
//! Cache (WOC) whose tag store tracks individual words. The freed space
//! lets the same 1 MB hold many more useful lines.
//!
//! The crate provides:
//!
//! * [`DistillCache`] — the full organization with its four access
//!   outcomes (LOC-hit, WOC-hit, hole-miss, line-miss), implementing
//!   [`SecondLevel`](ldis_cache::SecondLevel) so it drops into the same
//!   [`Hierarchy`](ldis_cache::Hierarchy) as the baseline;
//! * [`Woc`] — the word-organized store with head-bit bookkeeping, aligned
//!   power-of-two placement and random replacement (Section 5.1–5.3);
//! * [`MedianTracker`] — median-threshold filtering (Section 5.4);
//! * [`Reverter`] — the set-dueling reverter circuit (Section 5.5);
//! * [`StorageOverhead`] — the Table 3 storage model;
//! * [`ResilienceConfig`] — the soft-error fault model: deterministic
//!   seeded bit flips in the metadata (WOC tags, footprints, PSEL, median
//!   counters), parity/SECDED protection accounting, an online invariant
//!   checker ([`LdisError`]) and graceful degradation to traditional mode.
//!
//! # Example
//!
//! ```
//! use ldis_cache::{Hierarchy, SecondLevel};
//! use ldis_distill::{DistillCache, DistillConfig};
//! use ldis_mem::{Access, Addr};
//!
//! let dc = DistillCache::new(DistillConfig::hpca2007_default());
//! let mut hier = Hierarchy::hpca2007(dc);
//! // Touch one word of many lines, then revisit: the WOC keeps the used
//! // words around far longer than the baseline would.
//! for i in 0..32_768u64 {
//!     hier.access(Access::load(Addr::new(i * 64), 8));
//! }
//! assert!(hier.l2().stats().evictions > 0);
//! assert!(hier.l2().stats().woc_installs > 0);
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
mod costs;
mod distill_cache;
mod error;
mod fault;
mod median;
mod overhead;
mod reverter;
mod woc;
mod word_store;

pub use config::{DistillConfig, ReverterConfig, ThresholdPolicy, WocReplacement};
pub use costs::{CostModel, EnergyBreakdown};
pub use distill_cache::DistillCache;
pub use error::{CellFailure, LdisError};
pub use fault::ResilienceConfig;
pub use median::MedianTracker;
pub use overhead::{StorageOverhead, ATD_ENTRY_BYTES, BASELINE_TAG_BYTES, PHYSICAL_ADDR_BITS};
pub use reverter::Reverter;
pub use woc::{Woc, WocEviction, WocFault, WocField, WocLineHit, WOC_ENTRY_BITS};
pub use word_store::WordStore;
