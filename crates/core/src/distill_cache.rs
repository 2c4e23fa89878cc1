//! The distill cache: LOC + WOC with line distillation (Sections 4–5).

use crate::fault::Resilience;
use crate::{
    DistillConfig, LdisError, MedianTracker, ResilienceConfig, Reverter, ThresholdPolicy, Woc,
    WocEviction, WocFault, WordStore,
};
use ldis_cache::CompulsoryTracker;
use ldis_cache::{
    CacheHealth, EvictedLine, FootprintFault, L2Outcome, L2Request, L2Response, L2Stats,
    ProtectionScheme, RecoveryAction, SecondLevel, SetAssocCache,
};
use ldis_mem::stats::Counter;
use ldis_mem::{Footprint, LineAddr, LineGeometry, SetIndex};

/// Where an injected flip landed in live metadata.
#[derive(Clone, Copy, Debug)]
enum Fault {
    /// A WOC tag-store entry.
    Woc(WocFault),
    /// A LOC footprint.
    Loc(FootprintFault),
    /// A PSEL bit.
    Psel(u32),
    /// A median counter bit.
    Median(u64),
}

/// The paper's distill cache.
///
/// Incoming lines are installed in the Line-Organized Cache (LOC, LRU).
/// When a data line is evicted from the LOC, *line distillation* transfers
/// its used words to the Word-Organized Cache (WOC) and discards the rest.
/// An access can therefore end in one of four ways (Section 5.2): LOC-hit,
/// WOC-hit, hole-miss (line in WOC but the demanded word absent) or
/// line-miss.
///
/// Median-threshold filtering (Section 5.4) and the reverter circuit
/// (Section 5.5) are both optional and controlled by [`DistillConfig`].
/// With the reverter disabled-state active, follower sets install the
/// *full* evicted line into the WOC, making the set behave like the 8-way
/// traditional baseline.
///
/// # Example
///
/// ```
/// use ldis_cache::{L2Outcome, L2Request, SecondLevel};
/// use ldis_distill::{DistillCache, DistillConfig};
/// use ldis_mem::{LineAddr, WordIndex};
///
/// let mut dc = DistillCache::new(DistillConfig::ldis_base());
/// let req = L2Request::data(LineAddr::new(3), WordIndex::new(0), false);
/// assert_eq!(dc.access(req).outcome, L2Outcome::LineMiss);
/// assert_eq!(dc.access(req).outcome, L2Outcome::LocHit);
/// ```
#[derive(Clone, Debug)]
pub struct DistillCache<W = Woc> {
    cfg: DistillConfig,
    loc: SetAssocCache,
    woc: W,
    median: MedianTracker,
    reverter: Option<Reverter>,
    resilience: Option<Resilience>,
    stats: L2Stats,
    compulsory: CompulsoryTracker,
    label: String,
    /// Reused buffer for WOC-install evictions — one allocation for the
    /// cache's lifetime instead of one per install.
    woc_evicted: Vec<WocEviction>,
}

impl DistillCache {
    /// Creates an empty distill cache with the paper's word-organized
    /// store.
    pub fn new(cfg: DistillConfig) -> Self {
        let woc = Woc::new(
            cfg.num_sets(),
            cfg.woc_ways(),
            cfg.geometry().words_per_line(),
            cfg.seed(),
        )
        .with_replacement(cfg.woc_replacement());
        DistillCache::with_word_store(cfg, woc)
    }
}

impl<W: WordStore> DistillCache<W> {
    /// Creates a distill cache around a custom word store (footprint-aware
    /// compression uses this to store compressed words).
    pub fn with_word_store(cfg: DistillConfig, woc: W) -> Self {
        let wpl = cfg.geometry().words_per_line();
        let median_interval = match cfg.policy() {
            ThresholdPolicy::Median { interval } => interval,
            _ => 4096,
        };
        let label = match (cfg.policy(), cfg.reverter().is_some()) {
            (ThresholdPolicy::All, false) => "LDIS-Base",
            (ThresholdPolicy::All, true) => "LDIS-RC",
            (ThresholdPolicy::Median { .. }, false) => "LDIS-MT",
            (ThresholdPolicy::Median { .. }, true) => "LDIS-MT-RC",
            (ThresholdPolicy::Fixed(_), false) => "LDIS-Fixed",
            (ThresholdPolicy::Fixed(_), true) => "LDIS-Fixed-RC",
        };
        DistillCache {
            loc: SetAssocCache::new(cfg.loc_config()),
            woc,
            median: MedianTracker::new(wpl, median_interval),
            reverter: cfg
                .reverter()
                .map(|rc| Reverter::new(rc, cfg.num_sets(), cfg.total_ways())),
            resilience: None,
            stats: L2Stats::new(wpl, cfg.loc_ways()),
            compulsory: CompulsoryTracker::new(),
            label: label.to_owned(),
            cfg,
            woc_evicted: Vec::new(),
        }
    }

    /// Overrides the report label.
    pub fn set_label(&mut self, label: impl Into<String>) {
        self.label = label.into();
    }

    /// The configuration.
    pub fn config(&self) -> &DistillConfig {
        &self.cfg
    }

    /// The line-organized half (for content inspection).
    pub fn loc(&self) -> &SetAssocCache {
        &self.loc
    }

    /// The word-organized half (for occupancy inspection).
    pub fn woc(&self) -> &W {
        &self.woc
    }

    /// The median tracker driving threshold-based distillation.
    pub fn median(&self) -> &MedianTracker {
        &self.median
    }

    /// The reverter circuit, if configured.
    pub fn reverter(&self) -> Option<&Reverter> {
        self.reverter.as_ref()
    }

    /// Forces the reverter's decision; a no-op without a reverter. Used by
    /// tests and the policy-extreme property checks.
    pub fn force_ldis(&mut self, enabled: bool) {
        if let Some(r) = self.reverter.as_mut() {
            r.force_enabled(enabled);
        }
    }

    /// Enables the fault-injection + self-check subsystem. With the
    /// default config (rate 0) the simulation stays bit-identical while
    /// the invariant checker runs as a pure self-checking harness.
    #[must_use]
    pub fn with_resilience(mut self, rcfg: ResilienceConfig) -> Self {
        self.resilience = Some(Resilience::new(rcfg));
        self
    }

    /// The resilience record (fault accounting, degradation log, degraded
    /// flag), when the subsystem is enabled.
    pub fn health(&self) -> Option<&CacheHealth> {
        self.resilience.as_ref().map(|r| &r.health)
    }

    /// Whether line distillation is active for `set` right now. Once the
    /// cache has degraded after detected corruption, distillation is off
    /// everywhere — including leader sets — so every set behaves like the
    /// traditional baseline.
    pub fn ldis_active_for(&self, set: SetIndex) -> bool {
        !self.resilience.as_ref().is_some_and(|r| r.health.degraded)
            && self.reverter.as_ref().is_none_or(|r| r.active_for(set))
    }

    fn set_and_tag(&self, line: LineAddr) -> (SetIndex, u64) {
        let cfg = self.loc.config();
        (cfg.set_index(line), cfg.tag(line))
    }

    /// Installs a fetched line into the LOC, distilling the victim.
    fn install_in_loc(&mut self, req: &L2Request, extra_dirty: bool) {
        let word = if req.is_instr { None } else { Some(req.word) };
        let dirty = req.write || extra_dirty;
        if let Some(ev) = self.loc.install(req.line, word, dirty, req.is_instr) {
            self.stats.record_eviction(&ev);
            let (set, _) = self.set_and_tag(ev.line);
            self.distill(set, ev);
        }
    }

    /// Line distillation (Section 5): transfer the used words of a line
    /// evicted from the LOC into the WOC, or the full line when LDIS is
    /// disabled for the set.
    fn distill(&mut self, set: SetIndex, ev: EvictedLine) {
        if ev.is_instr {
            // Instruction lines are never distilled (Section 4).
            if ev.dirty {
                self.stats.writebacks.bump();
            }
            return;
        }
        let used = ev.footprint.used_words();
        self.median.observe(used);

        let (_, tag) = self.set_and_tag(ev.line);
        if self.ldis_active_for(set) {
            let threshold = match self.cfg.policy() {
                ThresholdPolicy::All => self.cfg.geometry().words_per_line(),
                ThresholdPolicy::Median { .. } => self.median.threshold(),
                ThresholdPolicy::Fixed(k) => k,
            };
            if used == 0 || used > threshold {
                // Filtered out: the line (and its dirty data) leaves the cache.
                self.stats.distill_filtered.bump();
                if ev.dirty {
                    self.stats.writebacks.bump();
                }
                return;
            }
            // Discarding unused words of a dirty line is safe: a store
            // always sets the word's footprint bit, so dirty words are
            // necessarily used words.
            self.install_in_woc(set, tag, ev.line, ev.footprint, ev.dirty);
        } else {
            // LDIS disabled: keep the whole line so the set behaves like
            // the traditional 8-way baseline.
            let full = Footprint::full(self.cfg.geometry().words_per_line());
            self.install_in_woc(set, tag, ev.line, full, ev.dirty);
        }
    }

    fn install_in_woc(
        &mut self,
        set: SetIndex,
        tag: u64,
        line: LineAddr,
        words: Footprint,
        dirty: bool,
    ) {
        self.stats.woc_installs.bump();
        // Detach the scratch buffer so the store can borrow `self.woc`.
        let mut evicted = std::mem::take(&mut self.woc_evicted);
        self.woc.install(set, tag, line, words, dirty, &mut evicted);
        for ev in &evicted {
            if ev.dirty {
                self.stats.writebacks.bump();
            }
        }
        self.woc_evicted = evicted;
    }

    /// Runs the fault model before servicing an access: injects this
    /// access's faults and, at the configured cadence, sweeps the
    /// invariant checker. The subsystem is temporarily taken out of `self`
    /// so injection can mutate the cache structures it targets.
    fn pre_access_resilience(&mut self) {
        let Some(mut res) = self.resilience.take() else {
            return;
        };
        for _ in 0..res.draw_faults() {
            self.inject_fault(&mut res);
        }
        if res.cfg.check_interval > 0 && self.stats.accesses.is_multiple_of(res.cfg.check_interval)
        {
            self.self_check(&mut res);
        }
        self.resilience = Some(res);
    }

    /// Injects one single-bit flip at a uniformly random position in the
    /// modeled metadata, weighting each structure by its physical bit
    /// count, then applies the protection scheme's semantics: SECDED
    /// corrects in place, parity detects and discards the affected state,
    /// no protection lets the corruption land silently. Flips in dead
    /// state (invalid entries) are masked and reverted.
    fn inject_fault(&mut self, res: &mut Resilience) {
        let total = self.woc.fault_surface().map_or(0, |w| w.tag_store_bits())
            + self.loc.footprint_bits()
            + self
                .reverter
                .as_ref()
                .map_or(0, |r| u64::from(r.psel_bits()))
            + self.median.counter_bits();
        if total == 0 {
            return;
        }
        res.health.faults.injected.bump();
        let bit = res.rng.range(total);
        let Some(fault) = self.flip(bit) else {
            res.health.faults.masked.bump();
            return;
        };
        match res.cfg.protection {
            ProtectionScheme::Secded => {
                self.flip(bit);
                res.health.faults.corrected.bump();
            }
            ProtectionScheme::Parity => {
                res.health.faults.detected.bump();
                let cause = self.scrub(fault);
                self.record_detected(res, cause);
            }
            ProtectionScheme::Unprotected => res.health.faults.silent.bump(),
        }
    }

    /// Flips bit `bit` of the modeled metadata, addressed over the WOC tag
    /// store, the LOC footprints, PSEL and the median counters in that
    /// order, and returns where it landed. A flip into a dead entry is
    /// undone at once and returns `None` (masked). Flipping a live bit
    /// again undoes it: liveness does not depend on the flipped bit.
    fn flip(&mut self, mut bit: u64) -> Option<Fault> {
        if let Some(woc) = self.woc.fault_surface() {
            let bits = woc.tag_store_bits();
            if bit < bits {
                let fault = woc.flip_tag_bit(bit);
                if !fault.live {
                    woc.flip_tag_bit(bit);
                    return None;
                }
                return Some(Fault::Woc(fault));
            }
            bit -= bits;
        }
        let loc_bits = self.loc.footprint_bits();
        if bit < loc_bits {
            let fault = self.loc.flip_footprint_bit(bit);
            if !fault.live {
                self.loc.flip_footprint_bit(bit);
                return None;
            }
            return Some(Fault::Loc(fault));
        }
        bit -= loc_bits;
        if let Some(r) = self.reverter.as_mut() {
            match u32::try_from(bit) {
                Ok(pbit) if pbit < r.psel_bits() => {
                    r.flip_psel_bit(pbit);
                    return Some(Fault::Psel(pbit));
                }
                _ => bit -= u64::from(r.psel_bits()),
            }
        }
        self.median.flip_counter_bit(bit);
        Some(Fault::Median(bit))
    }

    /// Parity's recovery from a detected flip: discards the state it
    /// corrupted and names it for the degradation log. A corrupt footprint
    /// is widened to the full line, so no used word is ever dropped.
    fn scrub(&mut self, fault: Fault) -> String {
        match fault {
            Fault::Woc(f) => {
                if let Some(woc) = self.woc.fault_surface() {
                    woc.clear_way(f.set, f.way);
                }
                f.to_string()
            }
            Fault::Loc(f) => {
                self.loc.repair_footprint(f.set, f.way);
                f.to_string()
            }
            Fault::Psel(bit) => {
                if let Some(r) = self.reverter.as_mut() {
                    r.reset_psel();
                }
                format!("reverter psel bit {bit} flip")
            }
            Fault::Median(bit) => {
                self.median.reset_window();
                format!("median counter bit {bit} flip")
            }
        }
    }

    /// One invariant-checker sweep: one WOC set (rotating so each sweep
    /// stays O(ways × words)), the PSEL bounds, the median range and the
    /// outcome-counter bookkeeping. Violations are scrubbed — the set
    /// cleared, the counter reset — logged, and counted toward the
    /// degradation trigger.
    fn self_check(&mut self, res: &mut Resilience) {
        let num_sets = self.cfg.num_sets();
        #[expect(
            clippy::cast_possible_truncation,
            reason = "reduced modulo num_sets, which sizes in-memory arrays"
        )]
        let set =
            SetIndex::new(((self.stats.accesses / res.cfg.check_interval) % num_sets) as usize);
        let mut violations: Vec<LdisError> = Vec::new();
        if let Some(woc) = self.woc.fault_surface() {
            if let Err(e) = woc.check_invariants(set) {
                woc.clear_set(set);
                violations.push(e);
            }
        }
        if let Some(r) = self.reverter.as_mut() {
            if let Err(e) = r.check_invariants() {
                r.reset_psel();
                violations.push(e);
            }
        }
        if let Err(e) = self.median.check_invariants() {
            self.median.reset_window();
            violations.push(e);
        }
        let outcomes = self
            .stats
            .loc_hits
            .saturating_add(self.stats.woc_hits)
            .saturating_add(self.stats.hole_misses)
            .saturating_add(self.stats.line_misses);
        // The sweep runs with the current access counted but its outcome
        // not yet recorded, so the counters must sum to accesses - 1.
        let completed = self.stats.accesses - 1;
        if outcomes != completed {
            violations.push(LdisError::StatsMismatch {
                outcomes,
                accesses: completed,
            });
        }
        for e in violations {
            res.health.faults.check_violations.bump();
            self.record_detected(res, e.to_string());
        }
    }

    /// The graceful-degradation policy: every detected corruption is
    /// logged; once `degrade_after` of them have accumulated, the cache
    /// force-reverts to traditional mode (sticky) and keeps serving.
    fn record_detected(&mut self, res: &mut Resilience, cause: String) {
        res.recoveries += 1;
        let degrade_now = !res.health.degraded && res.recoveries >= res.cfg.degrade_after;
        let action = if degrade_now {
            RecoveryAction::Degraded
        } else {
            RecoveryAction::Discarded
        };
        res.health.log(self.stats.accesses, cause, action);
        if degrade_now {
            res.health.degraded = true;
            if let Some(r) = self.reverter.as_mut() {
                r.force_enabled(false);
            }
        }
    }
}

impl<W: WordStore> SecondLevel for DistillCache<W> {
    fn access(&mut self, req: L2Request) -> L2Response {
        self.stats.accesses.bump();
        self.pre_access_resilience();
        let (set, tag) = self.set_and_tag(req.line);
        let full = Footprint::full(self.cfg.geometry().words_per_line());
        let word = if req.is_instr { None } else { Some(req.word) };

        // 1. LOC lookup — serviced like a traditional cache.
        let response = if self.loc.access(req.line, word, req.write) {
            // Injected tag faults can resurrect a stale WOC copy of a
            // LOC-resident line, so exclusivity only holds fault-free.
            debug_assert!(
                self.resilience.is_some() || self.woc.lookup(set, tag).is_none(),
                "a line must never be in both LOC and WOC"
            );
            self.stats.loc_hits.bump();
            L2Response {
                outcome: L2Outcome::LocHit,
                valid_words: full,
            }
        } else {
            // 2. WOC lookup.
            match self.woc.lookup(set, tag) {
                // WOC-hit: the stored words are rearranged and sent to the
                // L1D along with their valid bits.
                Some(hit) if !req.is_instr && hit.valid_words.is_used(req.word) => {
                    self.stats.woc_hits.bump();
                    L2Response {
                        outcome: L2Outcome::WocHit,
                        valid_words: hit.valid_words,
                    }
                }
                Some(_) => {
                    self.stats.hole_misses.bump();
                    L2Response {
                        outcome: L2Outcome::HoleMiss,
                        valid_words: full,
                    }
                }
                // 3. Line-miss.
                None => {
                    self.stats
                        .record_line_miss(self.compulsory.record_miss(req.line));
                    L2Response {
                        outcome: L2Outcome::LineMiss,
                        valid_words: full,
                    }
                }
            }
        };
        // The reverter sees the outcome before a miss's install distills
        // the LOC victim.
        if let Some(r) = self.reverter.as_mut() {
            r.observe_leader_access(set, req.line, response.outcome.is_miss());
        }
        match response.outcome {
            // Hole-miss: invalidate the WOC words (dirty data merges into
            // the incoming memory line) and install the full line in the LOC.
            L2Outcome::HoleMiss => {
                let dirty = self
                    .woc
                    .invalidate_line(set, tag)
                    .is_some_and(|ev| ev.dirty);
                self.install_in_loc(&req, dirty);
            }
            // A line-miss fetches the line from memory into the LOC.
            L2Outcome::LineMiss => self.install_in_loc(&req, false),
            L2Outcome::LocHit | L2Outcome::WocHit => {}
        }
        response
    }

    fn on_l1d_evict(&mut self, line: LineAddr, footprint: Footprint, dirty: bool) {
        if self.loc.merge_footprint(line, footprint, dirty) {
            return;
        }
        let (set, tag) = self.set_and_tag(line);
        if dirty && self.woc.mark_dirty(set, tag) {
            return;
        }
        if dirty {
            // Neither in LOC nor WOC (inclusion is not enforced).
            self.stats.writebacks.bump();
        }
    }

    fn stats(&self) -> &L2Stats {
        &self.stats
    }

    fn reset_stats(&mut self) {
        self.stats.reset();
    }

    fn geometry(&self) -> LineGeometry {
        self.cfg.geometry()
    }

    fn name(&self) -> &str {
        &self.label
    }

    fn health(&self) -> Option<&CacheHealth> {
        DistillCache::health(self)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ldis_mem::{LineGeometry, WordIndex};

    /// A tiny distill cache: 4 sets, 4 ways (3 LOC + 1 WOC), 64 B lines.
    fn tiny(policy: ThresholdPolicy) -> DistillCache {
        let cfg = DistillConfig::new(4 * 4 * 64, 4, 1, LineGeometry::default())
            .with_policy(policy)
            .with_seed(7);
        DistillCache::new(cfg)
    }

    fn req(line: u64, word: u8) -> L2Request {
        L2Request::data(LineAddr::new(line), WordIndex::new(word), false)
    }

    /// Lines 0, 4, 8, … all map to set 0 of the 4-set cache.
    fn set0(i: u64) -> u64 {
        i * 4
    }

    #[test]
    fn four_outcomes_in_order() {
        let mut dc = tiny(ThresholdPolicy::All);
        // Miss, then LOC hit.
        assert_eq!(dc.access(req(set0(0), 0)).outcome, L2Outcome::LineMiss);
        assert_eq!(dc.access(req(set0(0), 0)).outcome, L2Outcome::LocHit);
        // Fill the 3 LOC ways; line 0 is evicted and distilled (word 0 only).
        for i in 1..=3 {
            assert_eq!(dc.access(req(set0(i), 0)).outcome, L2Outcome::LineMiss);
        }
        assert_eq!(dc.stats().evictions, 1);
        assert_eq!(dc.stats().woc_installs, 1);
        // Word 0 of line 0 is in the WOC: a WOC hit…
        let resp = dc.access(req(set0(0), 0));
        assert_eq!(resp.outcome, L2Outcome::WocHit);
        assert_eq!(resp.valid_words, Footprint::from_bits(0b1));
        // …but word 5 is a hole miss.
        assert_eq!(dc.access(req(set0(0), 5)).outcome, L2Outcome::HoleMiss);
        // The hole miss re-installed the full line in the LOC.
        assert_eq!(dc.access(req(set0(0), 5)).outcome, L2Outcome::LocHit);
        assert_eq!(dc.access(req(set0(0), 0)).outcome, L2Outcome::LocHit);
    }

    #[test]
    fn woc_hit_returns_only_stored_words() {
        let mut dc = tiny(ThresholdPolicy::All);
        dc.access(req(set0(0), 1));
        dc.access(req(set0(0), 6));
        for i in 1..=3 {
            dc.access(req(set0(i), 0));
        }
        let resp = dc.access(req(set0(0), 6));
        assert_eq!(resp.outcome, L2Outcome::WocHit);
        assert_eq!(resp.valid_words, Footprint::from_bits(0b0100_0010));
    }

    #[test]
    fn median_threshold_filters_fat_lines() {
        // Median window of 4; feed two 1-word lines and two 8-word lines.
        let cfg = DistillConfig::new(4 * 4 * 64, 4, 1, LineGeometry::default())
            .with_policy(ThresholdPolicy::Median { interval: 4 })
            .with_seed(7);
        let mut dc = DistillCache::new(cfg);
        let mut evictions = 0u64;
        let make_line = |dc: &mut DistillCache, line: u64, words: u8| {
            for w in 0..words {
                dc.access(req(line, w));
            }
        };
        // Warm-up threshold is 8 (permissive). Build 4 evictions:
        // lines with 1, 8, 1, 8 words used. After the window the median is 1.
        for (i, words) in [(0u64, 1u8), (1, 8), (2, 1), (3, 8), (4, 1), (5, 1), (6, 1)] {
            make_line(&mut dc, set0(i), words);
            evictions += 1;
        }
        let _ = evictions;
        assert_eq!(dc.median().threshold(), 1);
        // Now evict a line with 2 words used: it must be filtered.
        let filtered_before = dc.stats().distill_filtered;
        make_line(&mut dc, set0(7), 2);
        make_line(&mut dc, set0(8), 1);
        make_line(&mut dc, set0(9), 1);
        make_line(&mut dc, set0(10), 1);
        assert!(dc.stats().distill_filtered > filtered_before);
    }

    #[test]
    fn instruction_lines_are_never_distilled() {
        let mut dc = tiny(ThresholdPolicy::All);
        dc.access(L2Request::instr(LineAddr::new(set0(0))));
        for i in 1..=3 {
            dc.access(L2Request::instr(LineAddr::new(set0(i))));
        }
        assert_eq!(dc.stats().evictions, 1);
        assert_eq!(dc.stats().woc_installs, 0);
        assert_eq!(dc.woc().occupancy(), 0);
    }

    #[test]
    fn dirty_data_survives_distillation_and_writes_back() {
        let mut dc = tiny(ThresholdPolicy::All);
        dc.access(L2Request::data(
            LineAddr::new(set0(0)),
            WordIndex::new(2),
            true,
        ));
        for i in 1..=3 {
            dc.access(req(set0(i), 0));
        }
        // Line 0 (dirty, word 2) now lives in the WOC.
        assert_eq!(dc.stats().writebacks, 0, "still cached, no writeback yet");
        // Fill the WOC way (8 slots) with enough single-word lines to evict it.
        for i in 4..=14 {
            dc.access(req(set0(i), 0));
        }
        assert!(dc.stats().writebacks >= 1, "dirty WOC eviction writes back");
    }

    #[test]
    fn hole_miss_merges_dirty_into_refetched_line() {
        let mut dc = tiny(ThresholdPolicy::All);
        dc.access(L2Request::data(
            LineAddr::new(set0(0)),
            WordIndex::new(0),
            true,
        ));
        for i in 1..=3 {
            dc.access(req(set0(i), 0));
        }
        let wb_before = dc.stats().writebacks;
        assert_eq!(dc.access(req(set0(0), 5)).outcome, L2Outcome::HoleMiss);
        assert_eq!(
            dc.stats().writebacks,
            wb_before,
            "dirty data merges into the refetched line, no memory writeback"
        );
        // Evict the (dirty) line from LOC and let its distilled words be
        // evicted: eventually the dirty data must write back exactly once.
    }

    #[test]
    fn reverter_disables_ldis_on_hole_miss_storms() {
        // Leader sets: 1 of 4 → stride 4, set 0 leads. Streaming pattern
        // where unused words are referenced soon after eviction (swim-like).
        let cfg = DistillConfig::new(4 * 4 * 64, 4, 1, LineGeometry::default())
            .with_policy(ThresholdPolicy::All)
            .with_reverter(crate::ReverterConfig {
                leader_sets: 1,
                ..crate::ReverterConfig::default()
            })
            .with_seed(7);
        let mut dc = DistillCache::new(cfg);
        let reverter = |dc: &DistillCache| -> bool {
            dc.reverter()
                .expect("configured with a reverter")
                .ldis_enabled()
        };
        assert!(reverter(&dc));
        // Touch word 0 of lines 0..4 (set 0), then come back for word 5 —
        // every return is a hole miss in the distill cache, while the
        // 4-way ATD would have held all four lines (hits).
        for round in 0..200 {
            for i in 0..4u64 {
                dc.access(req(set0(i), 0));
            }
            for i in 0..4u64 {
                dc.access(req(set0(i), 5));
            }
            if !reverter(&dc) {
                assert!(round >= 1);
                return;
            }
        }
        panic!(
            "reverter never disabled LDIS (psel = {})",
            dc.reverter().expect("configured with a reverter").psel()
        );
    }

    #[test]
    fn disabled_ldis_installs_full_lines() {
        let dc = tiny(ThresholdPolicy::All);
        // No reverter → force has no effect; build one with a reverter.
        let cfg = DistillConfig::new(4 * 4 * 64, 4, 1, LineGeometry::default())
            .with_reverter(crate::ReverterConfig {
                leader_sets: 1,
                ..crate::ReverterConfig::default()
            })
            .with_seed(7);
        let mut dc2 = DistillCache::new(cfg);
        dc2.force_ldis(false);
        // Set 1 is a follower (leader stride 4 → set 0 leads).
        let line_in_set1 = |i: u64| i * 4 + 1;
        dc2.access(req(line_in_set1(0), 0));
        for i in 1..=3 {
            dc2.access(req(line_in_set1(i), 0));
        }
        // Line evicted from LOC went to the WOC whole: word 5 must hit.
        let resp = dc2.access(req(line_in_set1(0), 5));
        assert_eq!(resp.outcome, L2Outcome::WocHit);
        assert_eq!(resp.valid_words, Footprint::full(8));
        let _ = dc;
    }

    #[test]
    fn compulsory_misses_only_on_first_touch() {
        let mut dc = tiny(ThresholdPolicy::All);
        dc.access(req(set0(0), 0));
        for i in 1..=3 {
            dc.access(req(set0(i), 0));
        }
        // Hole miss on line 0 is NOT compulsory.
        dc.access(req(set0(0), 5));
        assert_eq!(dc.stats().compulsory_misses, 4);
        assert_eq!(dc.stats().demand_misses(), 5);
    }

    #[test]
    fn l1_evictions_merge_or_mark_dirty() {
        let mut dc = tiny(ThresholdPolicy::All);
        dc.access(req(set0(0), 0));
        // Merge into LOC.
        dc.on_l1d_evict(LineAddr::new(set0(0)), Footprint::from_bits(0b110), false);
        for i in 1..=3 {
            dc.access(req(set0(i), 0));
        }
        // Line 0 was distilled with 3 used words.
        let hit = dc
            .woc()
            .lookup(
                SetIndex::new(0),
                dc.loc().config().tag(LineAddr::new(set0(0))),
            )
            .expect("line was distilled into the WOC");
        assert_eq!(hit.valid_words.used_words(), 3);
        // Dirty eviction landing on the WOC copy marks it dirty.
        dc.on_l1d_evict(LineAddr::new(set0(0)), Footprint::from_bits(0b1), true);
        assert_eq!(dc.stats().writebacks, 0);
        // Dirty eviction of a line in neither structure writes back.
        dc.on_l1d_evict(LineAddr::new(1999 * 4), Footprint::from_bits(0b1), true);
        assert_eq!(dc.stats().writebacks, 1);
    }

    #[test]
    fn resilience_rate_zero_is_bit_identical() {
        let mut plain = tiny(ThresholdPolicy::All);
        let mut checked = tiny(ThresholdPolicy::All)
            .with_resilience(ResilienceConfig::default().with_check_interval(16));
        for i in 0..5000u64 {
            let r = req(i % 97 * 4, (i % 8) as u8);
            assert_eq!(plain.access(r), checked.access(r));
        }
        assert_eq!(plain.stats(), checked.stats());
        let health = checked.health().expect("subsystem enabled");
        assert_eq!(health.faults.injected, 0);
        assert_eq!(health.faults.check_violations, 0);
        assert!(!health.degraded);
        assert!(health.events.is_empty());
    }

    #[test]
    fn secded_corrects_every_observable_fault() {
        let rcfg = ResilienceConfig::default()
            .with_fault_rate(0.5)
            .with_protection(ldis_cache::ProtectionScheme::Secded)
            .with_seed(3);
        let mut plain = tiny(ThresholdPolicy::All);
        let mut protected = tiny(ThresholdPolicy::All).with_resilience(rcfg);
        for i in 0..5000u64 {
            let r = req(i % 97 * 4, (i % 8) as u8);
            assert_eq!(plain.access(r), protected.access(r), "access {i}");
        }
        let health = protected.health().expect("subsystem enabled");
        assert!(health.faults.injected > 2000);
        assert_eq!(
            health.faults.corrected + health.faults.masked,
            health.faults.injected,
            "every fault is corrected or dead under SECDED"
        );
        assert_eq!(health.faults.coverage(), 1.0);
        assert!(!health.degraded, "no corruption ever lands");
    }

    #[test]
    fn parity_detects_then_degrades_and_keeps_serving() {
        let rcfg = ResilienceConfig::default()
            .with_fault_rate(0.1)
            .with_protection(ldis_cache::ProtectionScheme::Parity)
            .with_seed(5)
            .with_degrade_after(3);
        let mut dc = tiny(ThresholdPolicy::All).with_resilience(rcfg);
        for i in 0..5000u64 {
            dc.access(req(i % 97 * 4, (i % 8) as u8));
        }
        let health = dc.health().expect("subsystem enabled");
        assert_eq!(health.faults.silent, 0, "parity never misses a flip");
        assert!(health.faults.detected >= 3);
        assert!(health.degraded, "threshold of 3 detections was crossed");
        assert_eq!(
            health.events[2].action,
            RecoveryAction::Degraded,
            "the third detection triggers force-reversion"
        );
        assert!(
            !dc.ldis_active_for(SetIndex::new(0)),
            "degraded: LDIS off even for set 0"
        );
        assert_eq!(dc.stats().accesses, 5000, "the cache kept serving");
    }

    #[test]
    fn unprotected_faults_land_silently_and_checker_catches_some() {
        let rcfg = ResilienceConfig::default()
            .with_fault_rate(0.2)
            .with_seed(11)
            .with_check_interval(64)
            .with_degrade_after(u64::MAX); // never degrade: observe scrubbing
        let mut dc = tiny(ThresholdPolicy::All).with_resilience(rcfg);
        for i in 0..20_000u64 {
            dc.access(req(i % 97 * 4, (i % 8) as u8));
        }
        let health = dc.health().expect("subsystem enabled");
        assert!(health.faults.silent > 1000);
        assert_eq!(
            health.faults.detected, 0,
            "no parity to detect at injection"
        );
        assert!(
            health.faults.check_violations > 0,
            "the online checker must catch structural damage"
        );
        assert!(!health.degraded);
        for ev in &health.events {
            assert_eq!(ev.action, RecoveryAction::Discarded);
        }
    }

    #[test]
    fn degraded_cache_behaves_like_traditional_everywhere() {
        let cfg = DistillConfig::new(4 * 4 * 64, 4, 1, LineGeometry::default())
            .with_reverter(crate::ReverterConfig {
                leader_sets: 1,
                ..crate::ReverterConfig::default()
            })
            .with_seed(7);
        let rcfg = ResilienceConfig::default()
            .with_fault_rate(0.5)
            .with_protection(ldis_cache::ProtectionScheme::Parity)
            .with_seed(2);
        let mut dc = DistillCache::new(cfg).with_resilience(rcfg);
        for i in 0..200u64 {
            dc.access(req(i * 4, 0));
        }
        let health = dc.health().expect("subsystem enabled");
        assert!(health.degraded);
        assert!(
            !dc.ldis_active_for(SetIndex::new(0)),
            "set 0 is a leader, yet degradation overrides leadership"
        );
        assert!(
            !dc.reverter().expect("configured").ldis_enabled(),
            "degradation force-disables via the reverter"
        );
    }

    #[test]
    fn ldis_base_label_and_default_label() {
        assert_eq!(
            DistillCache::new(DistillConfig::ldis_base()).name(),
            "LDIS-Base"
        );
        assert_eq!(
            DistillCache::new(DistillConfig::hpca2007_default()).name(),
            "LDIS-MT-RC"
        );
        let mut custom = DistillCache::new(DistillConfig::ldis_base());
        custom.set_label("custom");
        assert_eq!(custom.name(), "custom");
    }
}
