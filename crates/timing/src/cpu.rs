//! The core timing model: an 8-wide machine whose memory-level parallelism
//! is bounded by the MSHR and by the workload's dependence structure.

use crate::{L2Timing, MemorySystem, SystemConfig};
use ldis_cache::{Hierarchy, SecondLevel};
use ldis_mem::{rng, Access, AccessKind, SimRng};
use ldis_workloads::Workload;

/// The outcome of a timing simulation.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct TimingResult {
    /// Instructions retired.
    pub instructions: u64,
    /// Cycles elapsed.
    pub cycles: u64,
    /// Memory requests issued.
    pub memory_requests: u64,
    /// Cycles stalled on a full MSHR.
    pub mshr_stall_cycles: u64,
}

impl TimingResult {
    /// Instructions per cycle.
    pub fn ipc(&self) -> f64 {
        if self.cycles == 0 {
            0.0
        } else {
            self.instructions as f64 / self.cycles as f64
        }
    }
}

/// A first-order out-of-order timing model (Section 6.1's execution-driven
/// simulator, reduced to what the IPC comparison needs):
///
/// * instructions retire at `width` per cycle;
/// * branch mispredictions cost a 15-cycle refill, applied at the
///   workload's misprediction rate;
/// * L2 hits pay the L2 latency only when the access is *dependent*
///   (feeding the next access); independent hits are hidden by the window;
/// * misses go through the DRAM bank / bus / MSHR model; dependent misses
///   stall the core until completion, independent ones overlap.
///
/// Baseline and distill runs use the identical core; only the L2
/// organization and its latency adders differ, so the IPC *delta* isolates
/// the cache effect exactly as the paper's Figure 9 does.
#[derive(Debug)]
pub struct TimingSim<L2> {
    hier: Hierarchy<L2>,
    cfg: SystemConfig,
    l2_timing: L2Timing,
    mem: MemorySystem,
    rng: SimRng,
    cycle: u64,
    mispredict_debt: f64,
}

impl<L2: SecondLevel> TimingSim<L2> {
    /// Creates a timing simulation around a cache hierarchy.
    pub fn new(l2: L2, cfg: SystemConfig, l2_timing: L2Timing) -> Self {
        let line_bytes = l2.geometry().line_bytes();
        let transfer = cfg.bus_transfer_cycles(line_bytes);
        TimingSim {
            hier: Hierarchy::hpca2007(l2),
            mem: MemorySystem::new(cfg.dram_banks, cfg.mem_latency, transfer, cfg.mshr_entries),
            // The jitter stream is deliberately fixed: one TimingSim per
            // run, never forked into workers. Re-deriving it would shift
            // cycle counts and break the goldens.
            rng: SimRng::new(rng::TIMING_JITTER),
            cycle: 0,
            mispredict_debt: 0.0,
            cfg,
            l2_timing,
        }
    }

    /// The cache hierarchy (for reading statistics).
    pub fn hierarchy(&self) -> &Hierarchy<L2> {
        &self.hier
    }

    /// Cycles elapsed so far.
    pub fn cycles(&self) -> u64 {
        self.cycle
    }

    /// Runs one access through the timed machine.
    pub fn step(&mut self, access: Access) {
        // Retire the instructions leading up to this access.
        let insts = access.insts.max(1) as u64;
        self.cycle += insts.div_ceil(self.cfg.width as u64);
        // Branch mispredictions: accumulate fractional debt so the rate is
        // honoured deterministically.
        self.mispredict_debt += insts as f64 * self.cfg.mispredicts_per_kinst / 1000.0;
        while self.mispredict_debt >= 1.0 {
            self.cycle += self.cfg.mispredict_penalty;
            self.mispredict_debt -= 1.0;
        }

        let trace = self.hier.access_traced(access);
        if trace.l1_hit {
            return; // L1 hits are pipelined.
        }
        // Instruction fetches that miss the L1I stall the front-end, so
        // they are always on the critical path; data accesses are
        // dependent with the workload's probability.
        let dependent =
            access.kind == AccessKind::InstrFetch || self.rng.chance(self.cfg.dependent_fraction);

        // L2 hit latency: visible only on the dependent path.
        let hit_latency = trace.l2_loc_hits as u64 * self.l2_timing.loc_hit_latency()
            + trace.l2_woc_hits as u64 * self.l2_timing.woc_hit_latency();
        if dependent {
            self.cycle += hit_latency;
        }

        // Misses go to memory.
        let geom = self.hier.l2().geometry();
        let line = geom.line_addr(access.addr);
        for _ in 0..trace.l2_misses {
            let start = self.cycle + self.l2_timing.loc_hit_latency();
            let (_, completion) = self.mem.fetch(start, line);
            if dependent {
                self.cycle = completion;
            }
        }
    }

    /// Runs `accesses` accesses of a workload, generated in blocks by
    /// [`Workload::drive_with`], and returns the cumulative result.
    pub fn run(&mut self, workload: &mut Workload, accesses: u64) -> TimingResult {
        workload.drive_with(accesses, |a| self.step(a));
        TimingResult {
            instructions: self.hier.stats().instructions,
            cycles: self.cycle,
            memory_requests: self.mem.requests,
            mshr_stall_cycles: self.mem.mshr_stall_cycles,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ldis_cache::{BaselineL2, CacheConfig};
    use ldis_distill::{DistillCache, DistillConfig};
    use ldis_mem::LineGeometry;
    use ldis_workloads::spec2000;

    fn baseline_sim() -> TimingSim<BaselineL2> {
        let l2 = BaselineL2::new(CacheConfig::new(1 << 20, 8, LineGeometry::default()));
        TimingSim::new(l2, SystemConfig::hpca2007_baseline(), L2Timing::baseline())
    }

    #[test]
    fn ipc_is_bounded_by_width() {
        let mut sim = baseline_sim();
        let mut w = spec2000::apsi(1);
        let r = sim.run(&mut w, 20_000);
        let ipc = r.ipc();
        assert!(ipc > 0.0 && ipc <= 8.0, "ipc {ipc}");
    }

    #[test]
    fn memory_bound_workloads_have_lower_ipc() {
        let mut cache_friendly = baseline_sim();
        let friendly_ipc = cache_friendly.run(&mut spec2000::apsi(1), 30_000).ipc();
        let mut chaser = {
            let l2 = BaselineL2::new(CacheConfig::new(1 << 20, 8, LineGeometry::default()));
            let cfg = SystemConfig::hpca2007_baseline().with_workload_factors(0.9, 6.0);
            TimingSim::new(l2, cfg, L2Timing::baseline())
        };
        let chase_ipc = chaser.run(&mut spec2000::health(1), 30_000).ipc();
        assert!(
            chase_ipc < friendly_ipc / 2.0,
            "health {chase_ipc} vs apsi {friendly_ipc}"
        );
    }

    #[test]
    fn distill_improves_ipc_on_pointer_chasing() {
        let accesses = 200_000;
        let factors = crate::workload_factors("health");
        let cfg = SystemConfig::hpca2007_baseline().with_workload_factors(factors.0, factors.1);

        let l2 = BaselineL2::new(CacheConfig::new(1 << 20, 8, LineGeometry::default()));
        let mut base = TimingSim::new(l2, cfg, L2Timing::baseline());
        let base_ipc = base.run(&mut spec2000::health(3), accesses).ipc();

        let dc = DistillCache::new(DistillConfig::hpca2007_default());
        let mut dist = TimingSim::new(dc, cfg, L2Timing::distill());
        let dist_ipc = dist.run(&mut spec2000::health(3), accesses).ipc();

        assert!(
            dist_ipc > base_ipc * 1.1,
            "distill {dist_ipc} should beat baseline {base_ipc} by >10%"
        );
    }

    #[test]
    fn identical_runs_are_deterministic() {
        let r1 = baseline_sim().run(&mut spec2000::twolf(5), 10_000);
        let r2 = baseline_sim().run(&mut spec2000::twolf(5), 10_000);
        assert_eq!(r1, r2);
    }

    #[test]
    fn mispredictions_slow_the_core() {
        let run_with = |rate: f64| {
            let l2 = BaselineL2::new(CacheConfig::new(1 << 20, 8, LineGeometry::default()));
            let cfg = SystemConfig::hpca2007_baseline().with_workload_factors(0.2, rate);
            TimingSim::new(l2, cfg, L2Timing::baseline())
                .run(&mut spec2000::apsi(1), 20_000)
                .ipc()
        };
        assert!(run_with(20.0) < run_with(0.0));
    }
}
