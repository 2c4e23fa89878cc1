//! The word-store abstraction behind the WOC.
//!
//! The distill cache is generic over how the word-organized half stores a
//! line's used words: the paper's plain [`Woc`](crate::Woc) keeps one tag
//! per 8 B word, while footprint-aware compression (`ldis-compress`)
//! squeezes the used words into fewer slots first. Both implement this
//! trait, so [`DistillCache`](crate::DistillCache) carries all of the LOC,
//! threshold and reverter machinery unchanged.

use crate::{Woc, WocEviction, WocLineHit};
use ldis_mem::{Footprint, LineAddr, SetIndex};

/// Storage for distilled lines, indexed by `(set, tag)`.
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

    /// The plain [`Woc`] holding the store's entries, which the fault
    /// model flips, scrubs and checks (tag-store bits, way and set
    /// clears, structural invariants). `None` — the default — for a store
    /// without a fault model, such as the compressed WOC, which the
    /// resilience subsystem then leaves untouched.
    fn fault_surface(&mut self) -> Option<&mut Woc> {
        None
    }
}
