//! Configuration of the distill cache.

use ldis_cache::CacheConfig;
use ldis_mem::{rng, LineGeometry};

/// Which lines evicted from the LOC are installed into the WOC
/// (Section 5.4).
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum ThresholdPolicy {
    /// LDIS-Base: always transfer all used words of the evicted line.
    All,
    /// Median-threshold filtering: install only lines whose used-word count
    /// does not exceed the running median, recomputed every `interval` LOC
    /// evictions (the paper uses 4096).
    Median {
        /// LOC evictions between median recomputations.
        interval: u64,
    },
    /// A fixed distillation threshold `K`: install only lines with at most
    /// `K` used words. Used by the threshold ablation.
    Fixed(u8),
}

impl ThresholdPolicy {
    /// The paper's median-threshold policy with its 4 k-eviction window.
    pub const fn median() -> Self {
        ThresholdPolicy::Median { interval: 4096 }
    }
}

/// How the WOC picks among eligible replacement candidates (Section 5.3).
///
/// The paper uses random selection, noting that LRU over variable-sized
/// entries would need multiple LRU lists; `RoundRobin` is the cheap
/// ordered alternative used by the replacement ablation to confirm the
/// paper's "similar performance" claim.
#[derive(Clone, Copy, PartialEq, Eq, Debug, Default)]
pub enum WocReplacement {
    /// Uniformly random among eligible candidates (the paper's choice).
    #[default]
    Random,
    /// Rotate deterministically through candidates.
    RoundRobin,
}

/// Configuration of the reverter circuit (Section 5.5).
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct ReverterConfig {
    /// Number of leader sets (the paper uses 32 of 2048).
    pub leader_sets: u32,
    /// LDIS is disabled when PSEL drops below this value (paper: 64).
    pub disable_below: u16,
    /// LDIS is enabled when PSEL rises above this value (paper: 192).
    pub enable_above: u16,
    /// Saturating maximum of the PSEL counter (paper: 8-bit → 255).
    pub psel_max: u16,
}

impl Default for ReverterConfig {
    /// The paper's reverter: 32 leader sets, 8-bit PSEL, hysteresis at
    /// 64 / 192.
    fn default() -> Self {
        ReverterConfig {
            leader_sets: 32,
            disable_below: 64,
            enable_above: 192,
            psel_max: 255,
        }
    }
}

/// Full configuration of a [`DistillCache`](crate::DistillCache).
///
/// # Example
///
/// ```
/// use ldis_distill::DistillConfig;
///
/// // The paper's default: 1 MB, 8-way, 6 LOC ways + 2 WOC ways,
/// // median-threshold filtering and the reverter circuit.
/// let cfg = DistillConfig::hpca2007_default();
/// assert_eq!(cfg.num_sets(), 2048);
/// assert_eq!(cfg.loc_ways(), 6);
/// assert_eq!(cfg.woc_ways(), 2);
/// ```
#[derive(Clone, Copy, PartialEq, Debug)]
pub struct DistillConfig {
    /// The whole array: LOC and WOC ways together.
    array: CacheConfig,
    woc_ways: u32,
    policy: ThresholdPolicy,
    reverter: Option<ReverterConfig>,
    seed: u64,
    woc_replacement: WocReplacement,
}

impl DistillConfig {
    /// Creates a distill-cache configuration: a cache of `size_bytes`
    /// organized as `total_ways` ways per set of which `woc_ways` are
    /// devoted to the word-organized cache.
    ///
    /// The default policy is [`ThresholdPolicy::All`] with no reverter
    /// (LDIS-Base); use the `with_*` methods or the presets to change that.
    ///
    /// # Panics
    ///
    /// Panics if `woc_ways` is zero or leaves no LOC way, or if the derived
    /// set count is not a power of two.
    pub fn new(size_bytes: u64, total_ways: u32, woc_ways: u32, geometry: LineGeometry) -> Self {
        DistillConfig {
            array: CacheConfig::new(size_bytes, total_ways, geometry),
            woc_ways: 0,
            policy: ThresholdPolicy::All,
            reverter: None,
            seed: rng::WOC_REPLACEMENT,
            woc_replacement: WocReplacement::Random,
        }
        .with_woc_ways(woc_ways)
    }

    /// The paper's default distill cache: 1 MB, 8-way, 6 + 2 split,
    /// median-threshold filtering and the reverter circuit (LDIS-MT-RC).
    pub fn hpca2007_default() -> Self {
        DistillConfig::ldis_mt_rc()
    }

    /// LDIS-Base (Figure 6): all used words always transferred, no reverter.
    pub fn ldis_base() -> Self {
        DistillConfig::new(1 << 20, 8, 2, LineGeometry::default())
    }

    /// LDIS-MT (Figure 6): median-threshold filtering, no reverter.
    pub fn ldis_mt() -> Self {
        DistillConfig::ldis_base().with_policy(ThresholdPolicy::median())
    }

    /// LDIS-MT-RC (Figure 6): median-threshold filtering plus the reverter.
    pub fn ldis_mt_rc() -> Self {
        DistillConfig::ldis_mt().with_reverter(ReverterConfig::default())
    }

    /// Replaces the threshold policy.
    #[must_use]
    pub fn with_policy(mut self, policy: ThresholdPolicy) -> Self {
        self.policy = policy;
        self
    }

    /// Enables the reverter circuit.
    ///
    /// # Panics
    ///
    /// Panics if `leader_sets` is zero, not a power of two, or exceeds the
    /// set count.
    #[must_use]
    pub fn with_reverter(mut self, reverter: ReverterConfig) -> Self {
        let sets = self.num_sets();
        assert!(
            reverter.leader_sets > 0
                && (reverter.leader_sets as u64) <= sets
                && reverter.leader_sets.is_power_of_two(),
            "leader sets must be a power of two in 1..={sets}"
        );
        assert!(
            reverter.disable_below < reverter.enable_above
                && reverter.enable_above <= reverter.psel_max,
            "reverter thresholds must satisfy disable < enable <= max"
        );
        self.reverter = Some(reverter);
        self
    }

    /// Changes the number of WOC ways (e.g. 3 for the LDIS-4xTags
    /// configuration of Figure 11).
    ///
    /// # Panics
    ///
    /// Panics if the split becomes invalid.
    #[must_use]
    pub fn with_woc_ways(mut self, woc_ways: u32) -> Self {
        let total_ways = self.total_ways();
        assert!(
            woc_ways >= 1 && woc_ways < total_ways,
            "need 1..total_ways WOC ways, got {woc_ways} of {total_ways}"
        );
        self.woc_ways = woc_ways;
        self
    }

    /// Changes the WOC replacement candidate selection policy.
    #[must_use]
    pub fn with_woc_replacement(mut self, policy: WocReplacement) -> Self {
        self.woc_replacement = policy;
        self
    }

    /// Sets the seed of the WOC's random replacement engine.
    #[must_use]
    pub fn with_seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Total cache capacity in bytes (LOC + WOC data).
    pub const fn size_bytes(&self) -> u64 {
        self.array.size_bytes()
    }

    /// Total ways per set.
    pub const fn total_ways(&self) -> u32 {
        self.array.ways()
    }

    /// Ways devoted to the line-organized cache.
    pub const fn loc_ways(&self) -> u32 {
        self.total_ways() - self.woc_ways
    }

    /// Ways devoted to the word-organized cache.
    pub const fn woc_ways(&self) -> u32 {
        self.woc_ways
    }

    /// Line/word geometry.
    pub const fn geometry(&self) -> LineGeometry {
        self.array.geometry()
    }

    /// The distillation threshold policy.
    pub const fn policy(&self) -> ThresholdPolicy {
        self.policy
    }

    /// The reverter configuration, if enabled.
    pub const fn reverter(&self) -> Option<ReverterConfig> {
        self.reverter
    }

    /// The WOC replacement seed.
    pub const fn seed(&self) -> u64 {
        self.seed
    }

    /// The WOC replacement candidate selection policy.
    pub const fn woc_replacement(&self) -> WocReplacement {
        self.woc_replacement
    }

    /// Number of sets.
    pub const fn num_sets(&self) -> u64 {
        self.array.num_sets()
    }

    /// The configuration of the embedded LOC.
    pub fn loc_config(&self) -> CacheConfig {
        CacheConfig::with_sets(self.num_sets(), self.loc_ways(), self.geometry())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn presets_match_paper() {
        let base = DistillConfig::ldis_base();
        assert_eq!(base.policy(), ThresholdPolicy::All);
        assert!(base.reverter().is_none());
        assert_eq!(base.loc_ways(), 6);

        let mt = DistillConfig::ldis_mt();
        assert_eq!(mt.policy(), ThresholdPolicy::median());
        assert!(mt.reverter().is_none());

        let rc = DistillConfig::ldis_mt_rc();
        let rev = rc.reverter().expect("reverter enabled");
        assert_eq!(rev.leader_sets, 32);
        assert_eq!(rev.disable_below, 64);
        assert_eq!(rev.enable_above, 192);
        assert_eq!(rev.psel_max, 255);
    }

    #[test]
    fn loc_config_has_three_quarters_capacity() {
        let cfg = DistillConfig::hpca2007_default();
        assert_eq!(cfg.loc_config().size_bytes(), 768 << 10);
        assert_eq!(cfg.loc_config().num_sets(), 2048);
    }

    #[test]
    fn with_woc_ways_preserves_policy() {
        let cfg = DistillConfig::ldis_mt_rc().with_woc_ways(3);
        assert_eq!(cfg.woc_ways(), 3);
        assert_eq!(cfg.loc_ways(), 5);
        assert_eq!(cfg.policy(), ThresholdPolicy::median());
        assert!(cfg.reverter().is_some());
    }

    #[test]
    #[should_panic(expected = "WOC ways")]
    fn rejects_all_ways_as_woc() {
        let _ = DistillConfig::new(1 << 20, 8, 8, LineGeometry::default());
    }

    #[test]
    #[should_panic(expected = "leader sets")]
    fn rejects_bad_leader_count() {
        let _ = DistillConfig::ldis_base().with_reverter(ReverterConfig {
            leader_sets: 33,
            ..ReverterConfig::default()
        });
    }

    #[test]
    #[should_panic(expected = "thresholds")]
    fn rejects_inverted_hysteresis() {
        let _ = DistillConfig::ldis_base().with_reverter(ReverterConfig {
            disable_below: 200,
            enable_above: 100,
            ..ReverterConfig::default()
        });
    }

    #[test]
    fn seed_is_configurable() {
        assert_eq!(DistillConfig::ldis_base().with_seed(99).seed(), 99);
    }
}
