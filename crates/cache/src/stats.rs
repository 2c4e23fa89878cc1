//! Statistics shared by every second-level cache organization.

use ldis_mem::stats::{mpki, Histogram};
use ldis_mem::LineAddr;
use std::fmt;

/// Hit/miss and instrumentation counters for a second-level cache.
///
/// The four outcome counters mirror Section 5.2's taxonomy. A traditional
/// cache only ever reports `loc_hits` and `line_misses`; the distill cache
/// uses all four.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct L2Stats {
    /// Total demand accesses (L1 misses plus L1 sector misses).
    pub accesses: u64,
    /// Hits in the line-organized portion (all hits, for a traditional cache).
    pub loc_hits: u64,
    /// Hits in the word-organized cache (distill cache only).
    pub woc_hits: u64,
    /// Line hit but word miss in the WOC (distill cache only).
    pub hole_misses: u64,
    /// Misses in both structures (plain misses for a traditional cache).
    pub line_misses: u64,
    /// Demand misses to lines never seen before by this cache (Table 2).
    pub compulsory_misses: u64,
    /// Lines evicted from the line-organized store.
    pub evictions: u64,
    /// Dirty lines (or dirty distilled words) written back to memory.
    pub writebacks: u64,
    /// Lines installed into the WOC after distillation.
    pub woc_installs: u64,
    /// Lines evicted from the LOC whose words were all unused or that were
    /// filtered out by the distillation threshold.
    pub distill_filtered: u64,
    /// Histogram of used words per *data* line at eviction from the
    /// line-organized store: bin `k` = lines evicted with `k` words used
    /// (Figure 1, Table 6).
    pub words_used_at_evict: Histogram,
    /// Histogram of the maximum recency position attained before the last
    /// footprint change, recorded at eviction of data lines (Figure 2).
    pub recency_before_change: Histogram,
}

impl L2Stats {
    /// Creates zeroed statistics for a cache with `words_per_line` words
    /// per line and `ways` recency positions.
    pub fn new(words_per_line: u8, ways: u32) -> Self {
        L2Stats {
            words_used_at_evict: Histogram::new(words_per_line as usize + 1),
            recency_before_change: Histogram::new(ways as usize),
            ..L2Stats::default()
        }
    }

    /// All hits (LOC + WOC).
    pub fn hits(&self) -> u64 {
        self.loc_hits.saturating_add(self.woc_hits)
    }

    /// All demand misses (hole misses + line misses).
    pub fn demand_misses(&self) -> u64 {
        self.hole_misses.saturating_add(self.line_misses)
    }

    /// Misses per kilo-instruction given the trace's instruction count.
    pub fn mpki(&self, instructions: u64) -> f64 {
        mpki(self.demand_misses(), instructions)
    }

    /// Hit rate over all demand accesses (0 if there were none).
    pub fn hit_rate(&self) -> f64 {
        if self.accesses == 0 {
            0.0
        } else {
            self.hits() as f64 / self.accesses as f64
        }
    }

    /// Fraction of demand misses that were compulsory.
    pub fn compulsory_fraction(&self) -> f64 {
        let misses = self.demand_misses();
        if misses == 0 {
            0.0
        } else {
            self.compulsory_misses as f64 / misses as f64
        }
    }
}

impl fmt::Display for L2Stats {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "accesses {} | LOC hits {} | WOC hits {} | hole misses {} | \
             line misses {} (compulsory {}) | evictions {} | writebacks {}",
            self.accesses,
            self.loc_hits,
            self.woc_hits,
            self.hole_misses,
            self.line_misses,
            self.compulsory_misses,
            self.evictions,
            self.writebacks,
        )
    }
}

/// Tracks which lines have ever been requested, to classify compulsory
/// misses (Table 2). Shared by all second-level implementations.
///
/// Runs on every demand miss, and the Mattson profiler (`ldis-mrc`) asks
/// it on every access that misses one of its stacks, so membership is an
/// open-addressing table with a multiply-shift hash instead of an ordered
/// set — the only observables (first-time bool and distinct count) are
/// order-free.
#[derive(Clone, Debug, Default)]
pub struct CompulsoryTracker {
    /// Power-of-two probe table of seen lines, keyed `raw + 1` so the zero
    /// word means "empty slot".
    slots: Vec<u64>,
    seen: usize,
}

impl CompulsoryTracker {
    /// Creates an empty tracker.
    pub fn new() -> Self {
        CompulsoryTracker::default()
    }

    /// Records a demand miss to `line`; returns `true` if this is the first
    /// time the line has ever been requested (a compulsory miss). Recording
    /// a hit is harmless: a line's first request always misses, so a hit
    /// returns `false` and changes nothing.
    pub fn record_miss(&mut self, line: LineAddr) -> bool {
        // Keep the load factor under 3/4 so linear probes stay short.
        if self.seen.saturating_mul(4) >= self.slots.len().saturating_mul(3) {
            self.grow();
        }
        let key = line.raw().wrapping_add(1);
        debug_assert!(key != 0, "line address saturates the key space");
        let mask = self.slots.len().wrapping_sub(1);
        let mut i = Self::hash(key) & mask;
        loop {
            match self.slots.get(i).copied() {
                Some(0) => {
                    if let Some(slot) = self.slots.get_mut(i) {
                        *slot = key;
                    }
                    self.seen = self.seen.saturating_add(1);
                    return true;
                }
                Some(k) if k == key => return false,
                _ => i = i.wrapping_add(1) & mask,
            }
        }
    }

    /// Number of distinct lines ever requested.
    pub fn distinct_lines(&self) -> usize {
        self.seen
    }

    /// Fibonacci multiply-shift: line addresses are near-sequential, the
    /// multiply spreads them across the high bits the mask keeps.
    #[inline]
    fn hash(key: u64) -> usize {
        (key.wrapping_mul(0x9E37_79B9_7F4A_7C15) >> 32) as usize
    }

    /// Doubles the table (1024 slots initially) and re-inserts every key.
    fn grow(&mut self) {
        let new_len = (self.slots.len().saturating_mul(2)).max(1024);
        let old = std::mem::replace(&mut self.slots, vec![0u64; new_len]);
        let mask = new_len.wrapping_sub(1);
        for key in old {
            if key == 0 {
                continue;
            }
            let mut i = Self::hash(key) & mask;
            while self.slots.get(i).copied().unwrap_or(0) != 0 {
                i = i.wrapping_add(1) & mask;
            }
            if let Some(slot) = self.slots.get_mut(i) {
                *slot = key;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn derived_counters() {
        let mut s = L2Stats::new(8, 8);
        s.accesses = 10;
        s.loc_hits = 4;
        s.woc_hits = 2;
        s.hole_misses = 1;
        s.line_misses = 3;
        s.compulsory_misses = 2;
        assert_eq!(s.hits(), 6);
        assert_eq!(s.demand_misses(), 4);
        assert!((s.hit_rate() - 0.6).abs() < 1e-12);
        assert!((s.compulsory_fraction() - 0.5).abs() < 1e-12);
        assert!((s.mpki(1_000_000) - 0.004).abs() < 1e-12);
    }

    #[test]
    fn empty_stats_are_zero() {
        let s = L2Stats::new(8, 8);
        assert_eq!(s.hit_rate(), 0.0);
        assert_eq!(s.compulsory_fraction(), 0.0);
        assert_eq!(s.words_used_at_evict.len(), 9);
        assert_eq!(s.recency_before_change.len(), 8);
    }

    #[test]
    fn display_shows_all_outcome_classes() {
        let mut s = L2Stats::new(8, 8);
        s.accesses = 5;
        s.woc_hits = 2;
        s.hole_misses = 1;
        let text = s.to_string();
        assert!(text.contains("WOC hits 2"));
        assert!(text.contains("hole misses 1"));
        assert!(text.contains("accesses 5"));
    }

    #[test]
    fn compulsory_tracker_first_touch_only() {
        let mut t = CompulsoryTracker::new();
        assert!(t.record_miss(LineAddr::new(1)));
        assert!(!t.record_miss(LineAddr::new(1)));
        assert!(t.record_miss(LineAddr::new(2)));
        assert_eq!(t.distinct_lines(), 2);
    }

    #[test]
    fn compulsory_tracker_matches_ordered_set_across_growth() {
        // Enough distinct lines to force several table doublings, with
        // revisits mixed in; the probe table must agree with a reference
        // ordered set on every single answer.
        let mut t = CompulsoryTracker::new();
        let mut reference = std::collections::BTreeSet::new();
        let mut x = 0x1234_5678_9abc_def0u64;
        for _ in 0..20_000 {
            // Small xorshift so ~half the draws are repeats.
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            let line = LineAddr::new(x % 8192);
            assert_eq!(t.record_miss(line), reference.insert(line));
        }
        assert_eq!(t.distinct_lines(), reference.len());
        assert!(t.distinct_lines() > 1024, "growth path exercised");
    }
}
