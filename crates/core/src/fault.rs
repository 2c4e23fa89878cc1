//! Configuration and bookkeeping for the soft-error fault model.
//!
//! The distill cache keeps far more metadata per byte of data than a
//! traditional cache — per-word WOC tags, LOC footprints, the PSEL
//! counter, the median counter bank — so a resilience story matters. When
//! enabled via [`DistillCache::with_resilience`](crate::DistillCache::with_resilience),
//! the subsystem injects deterministic seeded single-bit flips into that
//! modeled state, models a [`ProtectionScheme`] over it, runs the online
//! invariant checker at a configurable cadence, and applies the graceful-
//! degradation policy (scrub, then force-revert to traditional mode)
//! instead of ever panicking.

use ldis_cache::{CacheHealth, ProtectionScheme};
use ldis_mem::{rng, SimRng};

/// Configuration of the fault-injection + self-check subsystem.
///
/// The default injects nothing (`fault_rate` 0) and checks invariants
/// every 1024 accesses, so it can be left enabled as a pure self-checking
/// harness with bit-identical simulation behavior.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct ResilienceConfig {
    /// Expected metadata bit flips per L2 access (a rate, not a
    /// probability: values above 1 inject multiple flips per access).
    pub fault_rate: f64,
    /// Seed of the injector's private RNG. The stream is independent of
    /// the WOC replacement RNG, so a rate of 0 leaves the simulation
    /// bit-identical to one without the subsystem.
    pub seed: u64,
    /// How the modeled metadata bits are protected.
    pub protection: ProtectionScheme,
    /// Accesses between invariant-checker sweeps (0 disables the checker).
    /// Each sweep checks one WOC set (rotating), the PSEL bounds, the
    /// median range and the outcome-counter bookkeeping.
    pub check_interval: u64,
    /// Number of detected-and-uncorrectable corruptions tolerated before
    /// the cache force-reverts to traditional mode. The default of 1
    /// degrades on the first one.
    pub degrade_after: u64,
}

impl Default for ResilienceConfig {
    fn default() -> Self {
        ResilienceConfig {
            fault_rate: 0.0,
            seed: rng::FAULT_INJECTOR,
            protection: ProtectionScheme::Unprotected,
            check_interval: 1024,
            degrade_after: 1,
        }
    }
}

impl ResilienceConfig {
    /// Sets the expected bit flips per access.
    #[must_use]
    pub fn with_fault_rate(mut self, rate: f64) -> Self {
        self.fault_rate = rate;
        self
    }

    /// Sets the injector seed.
    #[must_use]
    pub fn with_seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Sets the protection scheme.
    #[must_use]
    pub fn with_protection(mut self, protection: ProtectionScheme) -> Self {
        self.protection = protection;
        self
    }

    /// Sets the invariant-checker cadence (0 disables it).
    #[must_use]
    pub fn with_check_interval(mut self, interval: u64) -> Self {
        self.check_interval = interval;
        self
    }

    /// Sets how many detected corruptions trigger force-reversion.
    #[must_use]
    pub fn with_degrade_after(mut self, events: u64) -> Self {
        self.degrade_after = events.max(1);
        self
    }
}

/// Live state of the subsystem inside a distill cache.
#[derive(Clone, Debug)]
pub(crate) struct Resilience {
    pub(crate) cfg: ResilienceConfig,
    pub(crate) rng: SimRng,
    pub(crate) health: CacheHealth,
    /// Detected-and-uncorrectable corruptions so far (parity detections
    /// plus checker violations) — the degradation trigger counter.
    pub(crate) recoveries: u64,
}

impl Resilience {
    pub(crate) fn new(cfg: ResilienceConfig) -> Self {
        Resilience {
            rng: SimRng::new(cfg.seed),
            health: CacheHealth::new(),
            recoveries: 0,
            cfg,
        }
    }

    /// How many faults to inject before the current access. Touches the
    /// RNG only when the rate is positive, preserving bit-identical
    /// behavior at rate 0.
    pub(crate) fn draw_faults(&mut self) -> u32 {
        if self.cfg.fault_rate <= 0.0 {
            return 0;
        }
        let mut n = 0u32;
        let mut rate = self.cfg.fault_rate;
        while rate >= 1.0 {
            n += 1;
            rate -= 1.0;
        }
        if rate > 0.0 && self.rng.chance(rate) {
            n += 1;
        }
        n
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_is_inert() {
        let cfg = ResilienceConfig::default();
        assert_eq!(cfg.fault_rate, 0.0);
        let mut res = Resilience::new(cfg);
        let rng_before = res.rng.clone();
        for _ in 0..100 {
            assert_eq!(res.draw_faults(), 0);
        }
        assert_eq!(res.rng, rng_before, "rate 0 must not advance the RNG");
    }

    #[test]
    fn rates_above_one_inject_multiple_flips() {
        let mut res = Resilience::new(ResilienceConfig::default().with_fault_rate(2.5));
        for _ in 0..50 {
            let n = res.draw_faults();
            assert!(n == 2 || n == 3, "got {n}");
        }
    }

    #[test]
    fn fractional_rate_matches_expectation() {
        let mut res = Resilience::new(ResilienceConfig::default().with_fault_rate(0.25));
        let total: u32 = (0..10_000).map(|_| res.draw_faults()).sum();
        assert!((2000..3000).contains(&total), "got {total}");
    }

    #[test]
    fn degrade_after_floor_is_one() {
        assert_eq!(
            ResilienceConfig::default()
                .with_degrade_after(0)
                .degrade_after,
            1
        );
    }
}
