//! A [`SecondLevel`] organization that profiles instead of simulating:
//! one [`MattsonProfiler`] per distinct set count, fed by the unmodified
//! L1 hierarchy.

use crate::MattsonProfiler;
use ldis_cache::{
    CacheConfig, CompulsoryTracker, L2Outcome, L2Request, L2Response, L2Stats, SecondLevel,
};
use ldis_mem::stats::{Counter, Histogram};
use ldis_mem::{Footprint, LineAddr, LineGeometry};

/// The exact counters a direct [`BaselineL2`](ldis_cache::BaselineL2)
/// simulation of one traditional configuration would have produced,
/// reconstructed from a single profiling pass.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ConfigResult {
    /// The configuration this result answers.
    pub config: CacheConfig,
    /// Total demand accesses (identical for every configuration: the L1
    /// request stream does not depend on the L2's size).
    pub accesses: u64,
    /// Demand hits (`loc_hits` of the traditional cache).
    pub hits: u64,
    /// Demand misses (`line_misses`).
    pub line_misses: u64,
    /// First-touch misses (`compulsory_misses`).
    pub compulsory_misses: u64,
    /// Lines evicted from the cache.
    pub evictions: u64,
    /// Dirty lines written back to memory (evictions plus non-resident
    /// dirty L1D evicts).
    pub writebacks: u64,
    /// Words used per data line at eviction (`words_used_at_evict`).
    pub words_used_at_evict: Histogram,
    /// Words used per data line, evicted lines plus the lines still
    /// resident at the end of the run — the Table 6 measurement.
    pub words_used_with_resident: Histogram,
}

impl ConfigResult {
    /// Misses per kilo-instruction given the trace's instruction count,
    /// through the same shared helper as `L2Stats::mpki` so the float
    /// path is bit-identical to direct simulation.
    pub fn mpki(&self, instructions: u64) -> f64 {
        ldis_mem::stats::mpki(self.line_misses, instructions)
    }
}

/// A second-level "cache" that answers every profiled traditional
/// configuration from one pass.
///
/// Behaves exactly like [`BaselineL2`](ldis_cache::BaselineL2) as far as
/// the L1 hierarchy can observe — same geometry, same full
/// `valid_words` on every response — while internally maintaining
/// Mattson stacks for every distinct set count among its configurations.
///
/// The hit/miss outcome it reports upward is that of its *primary*
/// configuration (the first one passed to
/// [`for_configs`](MattsonL2::for_configs)); since the L1s ignore L2
/// outcomes when generating requests, this choice does not perturb the
/// stream.
#[derive(Clone, Debug)]
pub struct MattsonL2 {
    geometry: LineGeometry,
    configs: Vec<CacheConfig>,
    profilers: Vec<MattsonProfiler>,
    /// Index into `profilers` of the one covering the primary
    /// configuration.
    primary: usize,
    /// Global first-touch tracker shared by every profiler (first access
    /// to a line misses in every configuration, so compulsory
    /// classification is size-independent).
    compulsory: CompulsoryTracker,
    /// Counters of the primary configuration, kept in `L2Stats` form for
    /// the `SecondLevel::stats` accessor.
    stats: L2Stats,
}

impl MattsonL2 {
    /// Builds a profiler covering every configuration in `configs`.
    ///
    /// Configurations are grouped by set count — one Mattson stack array
    /// answers all associativities of one set count — and must share a
    /// single line geometry. The first configuration is the *primary*
    /// one: its hit/miss outcomes surface through
    /// [`SecondLevel::stats`].
    ///
    /// # Panics
    ///
    /// Panics if `configs` is empty or the configurations disagree on
    /// line geometry — construction-time contract violations.
    pub fn for_configs(configs: &[CacheConfig]) -> MattsonL2 {
        assert!(
            !configs.is_empty(),
            "MattsonL2 needs at least one configuration"
        );
        let geometry = configs
            .first()
            .map_or_else(LineGeometry::default, CacheConfig::geometry);
        assert!(
            configs.iter().all(|c| c.geometry() == geometry),
            "all profiled configurations must share one line geometry"
        );
        // Group associativities by set count, preserving nothing of the
        // input order (profilers sort tiers internally; set counts are
        // collected in ascending order for determinism).
        let mut set_counts: Vec<u64> = configs.iter().map(CacheConfig::num_sets).collect();
        set_counts.sort_unstable();
        set_counts.dedup();
        let profilers: Vec<MattsonProfiler> = set_counts
            .into_iter()
            .map(|sets| {
                let ways: Vec<u32> = configs
                    .iter()
                    .filter(|c| c.num_sets() == sets)
                    .map(CacheConfig::ways)
                    .collect();
                MattsonProfiler::new(sets, &ways, geometry.words_per_line())
            })
            .collect();
        let primary = configs
            .first()
            .and_then(|c| profilers.iter().position(|p| p.covers(c)))
            .unwrap_or(0);
        MattsonL2 {
            geometry,
            configs: configs.to_vec(),
            profilers,
            primary,
            compulsory: CompulsoryTracker::new(),
            stats: L2Stats::new(
                geometry.words_per_line(),
                configs.first().map_or(1, CacheConfig::ways),
            ),
        }
    }

    /// The profiled configurations, in the order given at construction.
    pub fn configs(&self) -> &[CacheConfig] {
        &self.configs
    }

    /// The underlying profilers, one per distinct set count (ascending).
    pub fn profilers(&self) -> &[MattsonProfiler] {
        &self.profilers
    }

    fn profiler_for(&self, cfg: &CacheConfig) -> Option<&MattsonProfiler> {
        self.profilers.iter().find(|p| p.covers(cfg))
    }

    /// The reconstructed [`BaselineL2`](ldis_cache::BaselineL2) counters
    /// for `cfg`, or `None` if `cfg` was not profiled (different set
    /// count, associativity or geometry than anything passed to
    /// [`for_configs`](MattsonL2::for_configs)).
    pub fn result_for(&self, cfg: &CacheConfig) -> Option<ConfigResult> {
        let p = self.profiler_for(cfg)?;
        let ways = cfg.ways();
        Some(ConfigResult {
            config: *cfg,
            accesses: p.accesses(),
            hits: p.hits_at(ways),
            line_misses: p.misses_at(ways),
            compulsory_misses: p.compulsory(),
            evictions: p.evictions_at(ways)?,
            writebacks: p.writebacks_at(ways)?,
            words_used_at_evict: p.words_used_at_evict(ways)?.clone(),
            words_used_with_resident: p.words_used_with_resident(ways)?,
        })
    }

    /// Results for every profiled configuration, in construction order.
    pub fn results(&self) -> Vec<ConfigResult> {
        self.configs
            .iter()
            .filter_map(|c| self.result_for(c))
            .collect()
    }
}

impl SecondLevel for MattsonL2 {
    fn access(&mut self, req: L2Request) -> L2Response {
        let word = if req.is_instr { None } else { Some(req.word) };
        // First-touch classification is asked for only by a profiler whose
        // stack lacks the line. A line found in every stack was seen
        // before: its first access missed every stack, which recorded it
        // in the tracker.
        let mut first_touch = None;
        let mut primary_depth = None;
        for (i, p) in self.profilers.iter_mut().enumerate() {
            let depth = p.record_with(req.line, word, req.write, req.is_instr, || {
                *first_touch.get_or_insert_with(|| self.compulsory.record_miss(req.line))
            });
            if i == self.primary {
                primary_depth = depth;
            }
        }
        let first_touch = first_touch.unwrap_or(false);
        // Primary-configuration bookkeeping, mirroring BaselineL2.
        self.stats.accesses.bump();
        let primary_ways = self.configs.first().map_or(0, CacheConfig::ways);
        let hit = primary_depth.is_some_and(|d| d < primary_ways as usize);
        let outcome = if hit {
            self.stats.loc_hits.bump();
            L2Outcome::LocHit
        } else {
            self.stats.line_misses.bump();
            if first_touch {
                self.stats.compulsory_misses.bump();
            }
            L2Outcome::LineMiss
        };
        L2Response {
            outcome,
            valid_words: Footprint::full(self.geometry.words_per_line()),
        }
    }

    fn on_l1d_evict(&mut self, line: LineAddr, footprint: Footprint, dirty: bool) {
        for p in &mut self.profilers {
            p.merge_l1d_evict(line, footprint, dirty);
        }
    }

    fn stats(&self) -> &L2Stats {
        &self.stats
    }

    fn reset_stats(&mut self) {
        // Mirror BaselineL2::reset_stats: zero the counters, keep the
        // (stack) contents and the compulsory-classification state warm.
        let ways = self.configs.first().map_or(0, CacheConfig::ways);
        self.stats = L2Stats::new(self.geometry.words_per_line(), ways);
        for p in &mut self.profilers {
            p.reset_counters();
        }
    }

    fn geometry(&self) -> LineGeometry {
        self.geometry
    }

    fn name(&self) -> &str {
        "Mattson"
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ldis_cache::{BaselineL2, Hierarchy};
    use ldis_mem::{Access, Addr};

    fn geometry() -> LineGeometry {
        LineGeometry::default()
    }

    fn tiny_configs() -> Vec<CacheConfig> {
        let g = geometry();
        vec![
            CacheConfig::with_sets(4, 2, g),
            CacheConfig::with_sets(4, 4, g),
            CacheConfig::with_sets(8, 2, g),
        ]
    }

    #[test]
    fn groups_profilers_by_set_count() {
        let l2 = MattsonL2::for_configs(&tiny_configs());
        assert_eq!(l2.profilers().len(), 2);
        assert_eq!(l2.profilers()[0].num_sets(), 4);
        assert_eq!(l2.profilers()[1].num_sets(), 8);
        assert_eq!(
            l2.profilers()[0].tiers().collect::<Vec<_>>(),
            vec![2, 4],
            "4-set profiler covers both associativities"
        );
    }

    #[test]
    fn result_for_unprofiled_config_is_none() {
        let l2 = MattsonL2::for_configs(&tiny_configs());
        assert!(l2
            .result_for(&CacheConfig::with_sets(16, 2, geometry()))
            .is_none());
        assert!(l2
            .result_for(&CacheConfig::with_sets(4, 3, geometry()))
            .is_none());
    }

    #[test]
    fn primary_outcomes_match_a_direct_baseline() {
        let cfgs = tiny_configs();
        let mut mattson = MattsonL2::for_configs(&cfgs);
        let mut direct = BaselineL2::new(cfgs[0]);
        for i in [1u64, 2, 5, 1, 9, 13, 1, 2, 40, 5] {
            let req = L2Request::data(
                LineAddr::new(i),
                ldis_mem::WordIndex::new((i % 8) as u8),
                i % 3 == 0,
            );
            assert_eq!(
                mattson.access(req).outcome,
                direct.access(req).outcome,
                "line {i}"
            );
        }
        assert_eq!(mattson.stats().accesses, direct.stats().accesses);
        assert_eq!(mattson.stats().loc_hits, direct.stats().loc_hits);
        assert_eq!(mattson.stats().line_misses, direct.stats().line_misses);
        assert_eq!(
            mattson.stats().compulsory_misses,
            direct.stats().compulsory_misses
        );
    }

    #[test]
    fn reset_stats_preserves_compulsory_classification() {
        let mut l2 = MattsonL2::for_configs(&tiny_configs());
        let req = L2Request::data(LineAddr::new(3), ldis_mem::WordIndex::new(0), false);
        l2.access(req);
        l2.reset_stats();
        assert_eq!(l2.stats().accesses, 0);
        // Thrash line 3 out of every profiled depth, then re-touch it:
        // a miss, but not compulsory (the seen-set survived the reset).
        for i in 0..40u64 {
            l2.access(L2Request::data(
                LineAddr::new(100 + i),
                ldis_mem::WordIndex::new(0),
                false,
            ));
        }
        l2.access(req);
        let r = l2.result_for(&tiny_configs()[0]).expect("profiled");
        assert_eq!(r.compulsory_misses, 40, "line 3 is not compulsory again");
    }

    #[test]
    fn drives_through_the_hierarchy_like_any_second_level() {
        let g = geometry();
        let cfgs = [
            CacheConfig::new(1 << 20, 8, g),
            CacheConfig::new(2 << 20, 8, g),
        ];
        let mut hier = Hierarchy::hpca2007(MattsonL2::for_configs(&cfgs));
        for i in 0..5_000u64 {
            hier.access(Access::load(Addr::new((i * 97 % 300_000) * 8), 8));
        }
        let small = hier.l2().result_for(&cfgs[0]).expect("profiled");
        let large = hier.l2().result_for(&cfgs[1]).expect("profiled");
        assert_eq!(small.accesses, large.accesses);
        assert!(small.line_misses >= large.line_misses);
        assert_eq!(
            small.hits + small.line_misses,
            small.accesses,
            "hits and misses partition accesses"
        );
    }
}
