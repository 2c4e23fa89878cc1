//! The word-store abstraction behind the WOC.
//!
//! The distill cache is generic over how the word-organized half stores a
//! line's used words: the paper's plain [`Woc`](crate::Woc) keeps one tag
//! per 8 B word, while footprint-aware compression (`ldis-compress`)
//! squeezes the used words into fewer slots first. Both implement this
//! trait, so [`DistillCache`](crate::DistillCache) carries all of the LOC,
//! threshold and reverter machinery unchanged.

use crate::{LdisError, WocEviction, WocFault, WocLineHit};
use ldis_mem::{Footprint, LineAddr, SetIndex};

/// Storage for distilled lines, indexed by `(set, tag)`.
///
/// The `tag_store_bits` / `flip_tag_bit` / `clear_*` / `check_invariants`
/// group is the fault-model surface; the defaults model no bits, so
/// stores without a fault model (e.g. the compressed WOC) are untouched
/// by the resilience subsystem.
pub trait WordStore {
    /// Looks up a line; `Some` if *any* of its words are stored (a line
    /// hit), with the valid words.
    fn lookup(&self, set: SetIndex, tag: u64) -> Option<WocLineHit>;

    /// Installs a line's used words, evicting whole overlapping lines as
    /// needed. `line` is the full line address (size models may need it);
    /// `tag` identifies it within the set. `evicted` is cleared and filled
    /// with the displaced lines — an out-parameter so the per-install
    /// scratch allocation lives with the caller and is reused across
    /// installs on the hot path.
    fn install(
        &mut self,
        set: SetIndex,
        tag: u64,
        line: LineAddr,
        words: Footprint,
        dirty: bool,
        evicted: &mut Vec<WocEviction>,
    );

    /// Removes all words of a line (the hole-miss path), returning the
    /// eviction record if it was present.
    fn invalidate_line(&mut self, set: SetIndex, tag: u64) -> Option<WocEviction>;

    /// Marks a stored line dirty; returns whether it was present.
    fn mark_dirty(&mut self, set: SetIndex, tag: u64) -> bool;

    /// Number of occupied word slots across the store.
    fn occupancy(&self) -> u64;

    /// Modeled tag-store bits exposed to fault injection (0 when the
    /// store has no fault model — the default).
    fn tag_store_bits(&self) -> u64 {
        0
    }

    /// Flips modeled tag-store bit `bit`, returning the fault site, or
    /// `None` when the store has no fault model.
    fn flip_tag_bit(&mut self, _bit: u64) -> Option<WocFault> {
        None
    }

    /// Discards all entries of one way (parity recovery). Returns the
    /// number of valid entries discarded.
    fn clear_way(&mut self, _set: SetIndex, _way: usize) -> u64 {
        0
    }

    /// Discards all entries of one set (self-check recovery). Returns the
    /// number of valid entries discarded.
    fn clear_set(&mut self, _set: SetIndex) -> u64 {
        0
    }

    /// Structural self-check of one set; `Ok` by default.
    fn check_invariants(&self, _set: SetIndex) -> Result<(), LdisError> {
        Ok(())
    }
}
