//! The traced cell: the same simulation as the repository's entry point,
//! driven block by block under spans, with the L2's call log recorded and
//! replayed afterwards into a fresh L2 to time the L2 alone.

use crate::cells::{system, workload_seed, Extra, Output, Outputs, Spec, WithL2};
use crate::spans::{CellTrace, Kind};
use ldis_cache::{CacheHealth, Hierarchy, L2Request, L2Response, L2Stats, SecondLevel};
use ldis_experiments::RunConfig;
use ldis_mem::{Access, Footprint, LineAddr, LineGeometry};
use ldis_timing::{L2Timing, TimingSim};
use ldis_workloads::Workload;

/// One call the hierarchy made on its L2.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Call {
    Access(L2Request, L2Response),
    Evict(LineAddr, Footprint, bool),
    Reset,
}

/// A [`SecondLevel`] wrapper that logs every call. It forwards `name()`
/// and `health()`: cell seeds derive from the L2's name, so a wrapper
/// reporting the trait's default name would simulate another trace.
#[derive(Debug)]
pub struct Recorder<L> {
    inner: L,
    log: Vec<Call>,
}

impl<L> Recorder<L> {
    pub fn new(inner: L) -> Self {
        Recorder {
            inner,
            log: Vec::new(),
        }
    }

    pub fn inner(&self) -> &L {
        &self.inner
    }

    pub fn log(&self) -> &[Call] {
        &self.log
    }
}

impl<L: SecondLevel> SecondLevel for Recorder<L> {
    fn access(&mut self, req: L2Request) -> L2Response {
        let resp = self.inner.access(req);
        self.log.push(Call::Access(req, resp));
        resp
    }

    fn on_l1d_evict(&mut self, line: LineAddr, footprint: Footprint, dirty: bool) {
        self.inner.on_l1d_evict(line, footprint, dirty);
        self.log.push(Call::Evict(line, footprint, dirty));
    }

    fn stats(&self) -> &L2Stats {
        self.inner.stats()
    }

    fn reset_stats(&mut self) {
        self.inner.reset_stats();
        self.log.push(Call::Reset);
    }

    fn geometry(&self) -> LineGeometry {
        self.inner.geometry()
    }

    fn name(&self) -> &str {
        self.inner.name()
    }

    fn health(&self) -> Option<&CacheHealth> {
        self.inner.health()
    }
}

/// Replays `log` into `l2`, failing at the first response that differs
/// from the recorded one.
pub fn replay<L: SecondLevel>(log: &[Call], l2: &mut L) -> Result<(), String> {
    for (i, call) in log.iter().enumerate() {
        match *call {
            Call::Access(req, resp) => {
                let got = l2.access(req);
                if got != resp {
                    return Err(format!("replay call {i}: {got:?}, recorded {resp:?}"));
                }
            }
            Call::Evict(line, footprint, dirty) => l2.on_l1d_evict(line, footprint, dirty),
            Call::Reset => l2.reset_stats(),
        }
    }
    Ok(())
}

/// A traced cell's output and layer counters.
#[derive(Clone, Debug)]
pub struct Traced {
    pub output: Output,
    pub l2_calls: u64,
    pub extra: Extra,
}

/// Runs one cell traced, recording its spans into `trace`. Like the
/// benchmark's cells, it runs without warmup.
pub struct TracedCell<'a> {
    pub cfg: &'a RunConfig,
    pub trace: &'a mut CellTrace,
}

impl WithL2 for TracedCell<'_> {
    type Out = Result<Traced, String>;

    fn with<L: Outputs>(self, spec: &Spec, make: &dyn Fn() -> L) -> Result<Traced, String> {
        match spec.org.l2_timing() {
            None => untimed(spec, self.cfg, self.trace, make),
            Some(timing) => timed(spec, self.cfg, self.trace, make, timing),
        }
    }
}

/// Runs `accesses` of `workload` in blocks of [`Workload::DRIVE_BLOCK`],
/// as `Workload::drive` does, with a span around each block's generation
/// and each block's `drive`.
fn blocks(
    trace: &mut CellTrace,
    root: usize,
    workload: &mut Workload,
    accesses: u64,
    kind: Kind,
    mut drive: impl FnMut(Access),
) {
    let mut buf = Vec::with_capacity(Workload::DRIVE_BLOCK);
    let mut remaining = accesses;
    while remaining > 0 {
        let take = remaining.min(Workload::DRIVE_BLOCK as u64) as usize;
        trace.time(Kind::Gen, Some(root), || {
            workload.fill_block(&mut buf, take)
        });
        trace.time(kind, Some(root), || buf.iter().for_each(|&a| drive(a)));
        remaining -= take as u64;
    }
}

/// Replays `recorder`'s log into a fresh L2 under a span, and checks that
/// it reproduces every response and the final statistics.
fn replay_l2<L: Outputs>(
    trace: &mut CellTrace,
    recorder: &Recorder<L>,
    make: &dyn Fn() -> L,
) -> Result<(), String> {
    let mut fresh = make();
    trace.time(Kind::ReplayL2, None, || replay(recorder.log(), &mut fresh))?;
    if fresh.stats() != recorder.stats() {
        return Err("replayed L2 statistics differ from the recorded run".to_owned());
    }
    Ok(())
}

fn untimed<L: Outputs>(
    spec: &Spec,
    cfg: &RunConfig,
    trace: &mut CellTrace,
    make: &dyn Fn() -> L,
) -> Result<Traced, String> {
    let root = trace.open(Kind::Cell, None);
    let (mut workload, mut hier) = trace.time(Kind::Setup, Some(root), || {
        let l2 = Recorder::new(make());
        let workload = (spec.benchmark.make)(workload_seed(spec, cfg, l2.name()));
        (workload, Hierarchy::hpca2007(l2))
    });
    blocks(trace, root, &mut workload, cfg.accesses, Kind::Drive, |a| {
        hier.access(a)
    });
    trace.close(root);
    replay_l2(trace, hier.l2(), make)?;
    let l2 = hier.l2().inner();
    Ok(Traced {
        output: l2.output(*hier.stats()),
        l2_calls: hier.l2().log().len() as u64,
        extra: l2.extra(),
    })
}

fn timed<L: Outputs>(
    spec: &Spec,
    cfg: &RunConfig,
    trace: &mut CellTrace,
    make: &dyn Fn() -> L,
    timing: L2Timing,
) -> Result<Traced, String> {
    let b = &spec.benchmark;
    let root = trace.open(Kind::Cell, None);
    let (mut workload, mut sim) = trace.time(Kind::Setup, Some(root), || {
        let sim = TimingSim::new(Recorder::new(make()), system(b), timing);
        let workload = (b.make)(workload_seed(spec, cfg, sim.hierarchy().l2().name()));
        (workload, sim)
    });
    blocks(trace, root, &mut workload, cfg.accesses, Kind::Step, |a| {
        sim.step(a)
    });
    trace.close(root);
    // Zero further accesses: reads the cumulative result.
    let result = sim.run(&mut workload, 0);
    let hier = sim.hierarchy();

    // The hierarchy's own work on the same accesses, for the timing
    // model's self time. Regenerating the trace happens outside any span.
    let mut again = (b.make)(workload_seed(spec, cfg, hier.l2().name()));
    let mut accesses = Vec::with_capacity(cfg.accesses as usize);
    let mut buf = Vec::with_capacity(Workload::DRIVE_BLOCK);
    while (accesses.len() as u64) < cfg.accesses {
        let take = (cfg.accesses - accesses.len() as u64).min(Workload::DRIVE_BLOCK as u64);
        again.fill_block(&mut buf, take as usize);
        accesses.extend_from_slice(&buf);
    }
    let mut fresh = Hierarchy::hpca2007(make());
    trace.time(Kind::ReplayHier, None, || {
        accesses.iter().for_each(|&a| fresh.access(a))
    });
    if fresh.stats() != hier.stats() || fresh.l2().stats() != hier.l2().stats() {
        return Err("replayed hierarchy differs from the timed run".to_owned());
    }
    replay_l2(trace, hier.l2(), make)?;
    Ok(Traced {
        output: Output::Timed {
            l2: hier.l2().stats().clone(),
            hier: *hier.stats(),
            result,
        },
        l2_calls: hier.l2().log().len() as u64,
        extra: hier.l2().inner().extra(),
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cells::{run_cell, with_l2, Org};
    use ldis_cache::BaselineL2;
    use ldis_distill::{DistillCache, DistillConfig, ResilienceConfig};
    use ldis_experiments::baseline_config;

    fn cfg() -> RunConfig {
        RunConfig::quick().with_accesses(20_000)
    }

    fn traced(spec: &Spec, cfg: &RunConfig) -> (Result<Traced, String>, CellTrace) {
        let mut trace = CellTrace::default();
        let r = with_l2(
            spec,
            cfg,
            TracedCell {
                cfg,
                trace: &mut trace,
            },
        );
        (r, trace)
    }

    #[test]
    fn wrapped_and_bare_runs_agree_for_every_organization() {
        let cfg = cfg();
        let benchmark = ldis_workloads::spec2000::by_name("mcf").expect("mcf");
        for org in Org::ALL {
            let spec = Spec { benchmark, org };
            let (t, trace) = traced(&spec, &cfg);
            let t = t.unwrap_or_else(|e| panic!("{org:?}: {e}"));
            assert_eq!(t.output, run_cell(&spec, &cfg), "{org:?}");
            assert!(t.l2_calls > 0);
            let roots = trace.spans.iter().filter(|s| s.kind == Kind::Cell).count();
            assert_eq!(roots, 1);
        }
    }

    #[test]
    fn recorder_forwards_name_and_health() {
        let cfg = DistillConfig::ldis_mt_rc();
        let bare = DistillCache::new(cfg).with_resilience(ResilienceConfig::default());
        let wrapped = Recorder::new(bare.clone());
        assert_eq!(wrapped.name(), bare.name());
        assert_ne!(wrapped.name(), "l2");
        assert_eq!(
            wrapped.health().is_some(),
            SecondLevel::health(&bare).is_some()
        );
        assert!(wrapped.health().is_some());
    }

    /// A wrapper that forgets to forward `name()`.
    struct Nameless<L>(L);

    impl<L: SecondLevel> SecondLevel for Nameless<L> {
        fn access(&mut self, req: L2Request) -> L2Response {
            self.0.access(req)
        }
        fn on_l1d_evict(&mut self, line: LineAddr, footprint: Footprint, dirty: bool) {
            self.0.on_l1d_evict(line, footprint, dirty)
        }
        fn stats(&self) -> &L2Stats {
            self.0.stats()
        }
        fn reset_stats(&mut self) {
            self.0.reset_stats()
        }
        fn geometry(&self) -> LineGeometry {
            self.0.geometry()
        }
    }

    #[test]
    fn a_wrapper_dropping_the_name_simulates_another_trace() {
        let cfg = cfg();
        let b = ldis_workloads::spec2000::by_name("mcf").expect("mcf");
        let bare =
            ldis_experiments::run(&b, &cfg, || DistillCache::new(DistillConfig::ldis_mt_rc()));
        let nameless = ldis_experiments::run(&b, &cfg, || {
            Nameless(DistillCache::new(DistillConfig::ldis_mt_rc()))
        });
        assert_ne!(bare.l2, nameless.l2, "the default name changes the seed");
    }

    #[test]
    fn replay_reproduces_and_detects_divergence() {
        let rec = Recorder::new(DistillCache::new(DistillConfig::ldis_base()));
        let mut hier = Hierarchy::hpca2007(rec);
        let b = ldis_workloads::spec2000::by_name("art").expect("art");
        (b.make)(1).drive(&mut hier, ldis_workloads::TraceLength::accesses(20_000));
        let rec = hier.l2();
        let mut same = DistillCache::new(DistillConfig::ldis_base());
        replay(rec.log(), &mut same).expect("same organization replays");
        assert_eq!(same.stats(), rec.stats());
        let mut other = BaselineL2::new(baseline_config(1 << 20));
        assert!(replay(rec.log(), &mut other).is_err());
    }
}
