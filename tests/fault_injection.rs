//! End-to-end fault-injection campaign properties: the resilience
//! subsystem is inert at rate zero, deterministic per seed, and the
//! simulator never panics no matter how hard the metadata is hammered.

use line_distillation::cache::{Hierarchy, ProtectionScheme, RecoveryAction, SecondLevel};
use line_distillation::distill::{DistillCache, DistillConfig, ResilienceConfig};
use line_distillation::mem::SetIndex;
use line_distillation::workloads::{spec2000, TraceLength};

fn resilient(rcfg: ResilienceConfig) -> DistillCache {
    DistillCache::new(DistillConfig::hpca2007_default()).with_resilience(rcfg)
}

/// With the subsystem enabled at fault rate 0, the simulation is
/// bit-identical to one with no subsystem at all: same stats, same MPKI,
/// no events, no degradation.
#[test]
fn rate_zero_is_bit_identical_to_no_subsystem() {
    let drive = |l2: DistillCache| {
        let mut hier = Hierarchy::hpca2007(l2);
        spec2000::twolf(9).drive(&mut hier, TraceLength::accesses(120_000));
        (hier.l2().stats().clone(), hier.mpki())
    };
    let (plain_stats, plain_mpki) = drive(DistillCache::new(DistillConfig::hpca2007_default()));
    let rcfg = ResilienceConfig::default()
        .with_fault_rate(0.0)
        .with_check_interval(64);
    let mut hier = Hierarchy::hpca2007(resilient(rcfg));
    spec2000::twolf(9).drive(&mut hier, TraceLength::accesses(120_000));
    assert_eq!(
        *hier.l2().stats(),
        plain_stats,
        "stats must match bit for bit"
    );
    assert_eq!(hier.mpki(), plain_mpki);
    let health = hier.l2().health().expect("subsystem is enabled");
    assert_eq!(health.faults.injected, 0);
    assert_eq!(
        health.faults.check_violations, 0,
        "a healthy cache passes every sweep"
    );
    assert!(health.events.is_empty());
    assert!(!health.degraded);
}

/// Same seed and rate → byte-identical outcome: stats, fault counters
/// and the entire degradation log.
#[test]
fn same_seed_and_rate_reproduce_exactly() {
    let run = || {
        let rcfg = ResilienceConfig::default()
            .with_fault_rate(1e-3)
            .with_seed(0xfeed)
            .with_protection(ProtectionScheme::Parity)
            .with_check_interval(128)
            .with_degrade_after(u64::MAX);
        let mut hier = Hierarchy::hpca2007(resilient(rcfg));
        spec2000::health(4).drive(&mut hier, TraceLength::accesses(100_000));
        let h = hier.l2().health().expect("enabled").clone();
        (hier.l2().stats().clone(), h.faults, h.events, h.degraded)
    };
    let a = run();
    let b = run();
    assert_eq!(a.0, b.0, "stats");
    assert_eq!(a.1, b.1, "fault counters");
    assert_eq!(a.2, b.2, "degradation log");
    assert_eq!(a.3, b.3, "degraded flag");
    assert!(a.1.injected > 0, "the campaign must actually inject faults");
}

/// Under an absurdly aggressive fault rate, every protection scheme keeps
/// the simulator alive for the whole run, and the fate counters always
/// partition the injected count.
#[test]
fn no_scheme_ever_panics_under_heavy_fire() {
    for scheme in [
        ProtectionScheme::Unprotected,
        ProtectionScheme::Parity,
        ProtectionScheme::Secded,
    ] {
        let rcfg = ResilienceConfig::default()
            .with_fault_rate(0.05)
            .with_seed(7)
            .with_protection(scheme)
            .with_check_interval(256)
            .with_degrade_after(3);
        let mut hier = Hierarchy::hpca2007(resilient(rcfg));
        spec2000::swim(11).drive(&mut hier, TraceLength::accesses(60_000));
        let s = hier.l2().stats();
        assert!(s.accesses > 0, "{scheme}: the run must complete");
        assert_eq!(
            s.loc_hits + s.woc_hits + s.hole_misses + s.line_misses,
            s.accesses,
            "{scheme}: outcome accounting survives corruption"
        );
        let f = hier.l2().health().expect("enabled").faults;
        assert!(
            f.injected > 1000,
            "{scheme}: 5% per access must inject heavily"
        );
        assert_eq!(
            f.corrected + f.detected + f.silent + f.masked,
            f.injected,
            "{scheme}: every fault has exactly one fate"
        );
    }
}

/// Once parity detections push the cache over its degradation budget it
/// reverts to traditional mode — and keeps serving correctly from there.
#[test]
fn degradation_is_graceful_not_fatal() {
    let rcfg = ResilienceConfig::default()
        .with_fault_rate(0.01)
        .with_protection(ProtectionScheme::Parity)
        .with_degrade_after(2);
    let mut hier = Hierarchy::hpca2007(resilient(rcfg));
    spec2000::twolf(3).drive(&mut hier, TraceLength::accesses(80_000));
    let health = hier.l2().health().expect("enabled");
    assert!(health.degraded, "1% per access must exhaust a budget of 2");
    assert!(
        !hier.l2().ldis_active_for(SetIndex::new(0)),
        "distillation is off everywhere"
    );
    let s = hier.l2().stats();
    assert_eq!(
        s.loc_hits + s.woc_hits + s.hole_misses + s.line_misses,
        s.accesses,
        "the degraded cache still accounts for every access"
    );
    let degrade_access = health
        .events
        .iter()
        .find(|e| e.action == RecoveryAction::Degraded)
        .expect("degradation was logged")
        .access;
    assert!(
        s.accesses > degrade_access,
        "the cache keeps serving after degrading (stopped at {} of {})",
        degrade_access,
        s.accesses
    );
}
