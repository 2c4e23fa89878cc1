//! The reverter circuit (Section 5.5): dynamic set sampling with an
//! auxiliary tag directory and a hysteretic policy-selection counter.

use crate::{LdisError, ReverterConfig};
use ldis_cache::SetArena;
use ldis_mem::{LineAddr, SetIndex};

/// The reverter circuit: decides whether LDIS is enabled for follower sets.
///
/// A fixed sample of *leader sets* always runs LDIS; an Auxiliary Tag
/// Directory (ATD) shadows what a traditional cache would do on those same
/// sets. A miss in a leader set of the distill cache decrements the PSEL
/// counter; a miss in the ATD increments it. LDIS is disabled for follower
/// sets when PSEL falls below `disable_below` and re-enabled when it rises
/// above `enable_above`; in between the previous decision sticks.
///
/// # Example
///
/// ```
/// use ldis_distill::{Reverter, ReverterConfig};
/// use ldis_mem::SetIndex;
///
/// let r = Reverter::new(ReverterConfig::default(), 2048, 8);
/// assert!(r.ldis_enabled(), "LDIS starts enabled");
/// assert!(r.is_leader(SetIndex::new(0)));
/// assert!(!r.is_leader(SetIndex::new(1)));
/// ```
#[derive(Clone, Debug)]
pub struct Reverter {
    cfg: ReverterConfig,
    /// Distance between consecutive leader sets.
    stride: usize,
    /// The ATD: one traditional `total_ways`-way LRU set per leader set.
    atd: SetArena,
    psel: u16,
    enabled: bool,
    /// Misses observed by the distill leader sets.
    pub distill_leader_misses: u64,
    /// Misses observed by the ATD (traditional-cache leader sets).
    pub atd_misses: u64,
    /// Number of enable→disable and disable→enable flips.
    pub flips: u64,
}

impl Reverter {
    /// Creates a reverter for a cache of `num_sets` sets of `total_ways`
    /// ways.
    ///
    /// # Panics
    ///
    /// Panics if the leader count does not divide the set count.
    pub fn new(cfg: ReverterConfig, num_sets: u64, total_ways: u32) -> Self {
        assert!(
            num_sets.is_multiple_of(cfg.leader_sets as u64),
            "leader sets must divide the set count"
        );
        #[expect(
            clippy::cast_possible_truncation,
            reason = "the stride is at most num_sets, which sizes in-memory arrays"
        )]
        let stride = (num_sets / cfg.leader_sets as u64) as usize;
        Reverter {
            cfg,
            stride,
            atd: SetArena::new(cfg.leader_sets as usize, total_ways),
            psel: cfg.psel_max.div_ceil(2),
            enabled: true,
            distill_leader_misses: 0,
            atd_misses: 0,
            flips: 0,
        }
    }

    /// Whether `set` is a leader set (LDIS always on there).
    #[inline]
    pub fn is_leader(&self, set: SetIndex) -> bool {
        set.get().is_multiple_of(self.stride)
    }

    /// Whether LDIS is currently enabled for follower sets.
    pub fn ldis_enabled(&self) -> bool {
        self.enabled
    }

    /// Whether LDIS runs in `set` now: always in a leader set, and in a
    /// follower while PSEL has LDIS enabled.
    #[inline]
    pub fn active_for(&self, set: SetIndex) -> bool {
        self.is_leader(set) || self.enabled
    }

    /// The current PSEL value (for instrumentation and the
    /// `streaming_reverter` example).
    pub fn psel(&self) -> u16 {
        self.psel
    }

    /// Records an access to `set` for line `line`. In a leader set it
    /// simulates the traditional cache on the ATD and folds both the ATD's
    /// outcome and the distill cache's (`distill_missed`) into PSEL; a
    /// follower set's access changes nothing.
    #[inline]
    pub fn observe_leader_access(&mut self, set: SetIndex, line: LineAddr, distill_missed: bool) {
        let leader = SetIndex::new(set.get() / self.stride);
        // Leader sets are `0, stride, 2*stride, ...`; a follower access,
        // or one past the last leader set, is ignored rather than moving
        // PSEL.
        if !self.is_leader(set) || leader.get() >= self.cfg.leader_sets as usize {
            return;
        }
        let tag = line.raw();
        let atd_hit = self.atd.hit_update(leader, tag, 0, false, false).is_some();
        if distill_missed {
            self.distill_leader_misses += 1;
            self.psel = self.psel.saturating_sub(1);
        }
        if !atd_hit {
            self.atd.install_evict(leader, tag, 0, false, false);
            self.atd_misses += 1;
            self.psel = (self.psel + 1).min(self.cfg.psel_max);
        }
        self.apply_hysteresis();
    }

    fn apply_hysteresis(&mut self) {
        let next = if self.psel < self.cfg.disable_below {
            false
        } else if self.psel > self.cfg.enable_above {
            true
        } else {
            self.enabled
        };
        if next != self.enabled {
            self.flips += 1;
            self.enabled = next;
        }
    }

    /// Forces the decision (used by tests, the policy-extremes property
    /// check and the graceful-degradation path).
    pub fn force_enabled(&mut self, enabled: bool) {
        self.enabled = enabled;
        self.psel = if enabled { self.cfg.psel_max } else { 0 };
    }

    /// Modeled PSEL width in bits (8 for the paper's 8-bit counter) — the
    /// fault injector's address space over this structure.
    pub fn psel_bits(&self) -> u32 {
        u16::BITS - self.cfg.psel_max.leading_zeros()
    }

    /// Flips one PSEL bit. The corrupted value takes effect at the next
    /// leader-set access, exactly like a soft error in the real counter.
    ///
    /// # Panics
    ///
    /// Panics if `bit` is outside the modeled width.
    pub fn flip_psel_bit(&mut self, bit: u32) {
        assert!(bit < self.psel_bits(), "psel bit out of range");
        self.psel ^= 1 << bit;
    }

    /// Resets PSEL to its midpoint without changing the current decision —
    /// the recovery after a detected counter corruption.
    pub fn reset_psel(&mut self) {
        self.psel = self.cfg.psel_max.div_ceil(2);
    }

    /// Checks that PSEL is within its modeled range.
    pub fn check_invariants(&self) -> Result<(), LdisError> {
        if self.psel > self.cfg.psel_max {
            Err(LdisError::PselOutOfBounds {
                psel: self.psel,
                max: self.cfg.psel_max,
            })
        } else {
            Ok(())
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn reverter() -> Reverter {
        Reverter::new(ReverterConfig::default(), 2048, 8)
    }

    #[test]
    fn leader_selection_is_evenly_strided() {
        let r = reverter();
        let leaders: Vec<usize> = (0..2048)
            .filter(|&s| r.is_leader(SetIndex::new(s)))
            .collect();
        assert_eq!(leaders.len(), 32);
        assert_eq!(leaders[0], 0);
        assert_eq!(leaders[1], 64);
    }

    #[test]
    fn leaders_are_always_active_and_followers_follow_psel() {
        let mut r = reverter();
        let (leader, follower) = (SetIndex::new(64), SetIndex::new(65));
        assert!(r.active_for(leader) && r.active_for(follower));
        // Distill misses on one line the ATD keeps hitting sink PSEL
        // below 64, which disables the followers only.
        for _ in 0..100 {
            r.observe_leader_access(leader, LineAddr::new(7), true);
        }
        assert!(!r.ldis_enabled(), "psel = {}", r.psel());
        assert!(r.active_for(leader) && !r.active_for(follower));
        // A follower's access leaves PSEL alone.
        let psel = r.psel();
        r.observe_leader_access(follower, LineAddr::new(8), true);
        assert_eq!(r.psel(), psel);
        r.force_enabled(true);
        assert!(r.active_for(leader) && r.active_for(follower));
    }

    #[test]
    fn sustained_distill_misses_disable_ldis() {
        let mut r = reverter();
        // Distill misses while the ATD hits (same line every time, so the
        // ATD hits from the second access on): PSEL sinks below 64.
        for _ in 0..200u64 {
            r.observe_leader_access(SetIndex::new(0), LineAddr::new(7), true);
        }
        assert!(!r.ldis_enabled(), "psel = {}", r.psel());
        assert!(r.flips >= 1);
    }

    #[test]
    fn sustained_atd_misses_keep_ldis_enabled() {
        let mut r = reverter();
        // Unique lines: both miss → PSEL unchanged net; then distill hits
        // (missed = false) while ATD still misses → PSEL rises.
        for i in 0..500u64 {
            r.observe_leader_access(SetIndex::new(0), LineAddr::new(1000 + i), false);
        }
        assert!(r.ldis_enabled());
        assert_eq!(r.atd_misses, 500);
        assert_eq!(r.distill_leader_misses, 0);
        assert_eq!(r.psel(), 255);
    }

    #[test]
    fn hysteresis_band_retains_decision() {
        let cfg = ReverterConfig::default();
        let mut r = Reverter::new(cfg, 64, 8);
        // Drive PSEL just below the enable threshold from the middle: the
        // initial decision (enabled) must be retained inside [64, 192].
        assert_eq!(r.psel(), 128);
        for i in 0..30u64 {
            // distill misses, ATD misses too (unique lines) → net zero …
            r.observe_leader_access(SetIndex::new(0), LineAddr::new(i * 64), true);
        }
        // Both counters moved the same amount: PSEL ≈ 128, still enabled.
        assert!(r.ldis_enabled());
        assert!((64..=192).contains(&r.psel()));
    }

    #[test]
    fn flip_counting_and_force() {
        let mut r = reverter();
        r.force_enabled(false);
        assert!(!r.ldis_enabled());
        assert_eq!(r.psel(), 0);
        r.force_enabled(true);
        assert_eq!(r.psel(), 255);
        assert!(r.ldis_enabled());
    }

    #[test]
    fn psel_fault_surface_and_recovery() {
        let mut r = reverter();
        assert_eq!(r.psel_bits(), 8);
        r.check_invariants().expect("fresh reverter is consistent");
        assert_eq!(r.psel(), 128);
        r.flip_psel_bit(7);
        assert_eq!(r.psel(), 0, "flipping the MSB of 128 zeroes the counter");
        r.flip_psel_bit(0);
        assert_eq!(r.psel(), 1);
        // Any single flip of an 8-bit counter stays within 0..=255.
        r.check_invariants().expect("flips stay in range");
        r.reset_psel();
        assert_eq!(r.psel(), 128);
        assert!(r.ldis_enabled(), "reset keeps the current decision");
    }

    #[test]
    #[should_panic(expected = "divide")]
    fn leader_count_must_divide_sets() {
        let cfg = ReverterConfig {
            leader_sets: 32,
            ..ReverterConfig::default()
        };
        let _ = Reverter::new(cfg, 48, 8);
    }
}
