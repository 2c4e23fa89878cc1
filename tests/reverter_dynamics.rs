//! End-to-end dynamics of the reverter circuit (Figure 5's mechanism):
//! workload-driven behavior plus the exact hysteresis arithmetic of the
//! PSEL counter (saturation, the 64/192 thresholds, forced decisions).

use line_distillation::cache::Hierarchy;
use line_distillation::distill::{DistillCache, DistillConfig, Reverter, ReverterConfig};
use line_distillation::mem::{LineAddr, SetIndex, TraceSource};
use line_distillation::workloads::{spec2000, TraceLength};

/// A reverter over a small 64-set cache with the paper's default policy
/// (8-bit PSEL, disable below 64, enable above 192).
fn small_reverter() -> Reverter {
    Reverter::new(ReverterConfig::default(), 64, 8)
}

/// Revisiting one line makes the ATD hit from the second access on, so
/// `distill_missed = true` decrements PSEL by one per access.
fn sink_one(r: &mut Reverter) {
    r.observe_leader_access(SetIndex::new(0), LineAddr::new(7), true);
}

/// Unique lines with `distill_missed = false` make only the ATD miss, so
/// PSEL rises by one per access.
fn rise_one(r: &mut Reverter, unique: &mut u64) {
    *unique += 1;
    r.observe_leader_access(SetIndex::new(0), LineAddr::new(1 << 20 | *unique), false);
}

/// On swim, PSEL must sink and LDIS must flip to disabled — and stay
/// there (hysteresis prevents oscillation storms).
#[test]
fn psel_sinks_and_disables_on_swim() {
    let mut hier = Hierarchy::hpca2007(DistillCache::new(DistillConfig::ldis_mt_rc()));
    let mut workload = spec2000::swim(21);
    let mut disabled_at = None;
    for step in 0..20u64 {
        for _ in 0..50_000 {
            let a = workload.next_access().expect("endless");
            hier.access(a);
        }
        let r = hier.l2().reverter().expect("configured");
        if !r.ldis_enabled() && disabled_at.is_none() {
            disabled_at = Some(step);
        }
    }
    let r = hier.l2().reverter().expect("configured");
    assert!(
        disabled_at.is_some(),
        "reverter never disabled LDIS on swim (psel {})",
        r.psel()
    );
    assert!(!r.ldis_enabled(), "must stay disabled on a steady stream");
    assert!(
        r.flips <= 4,
        "hysteresis should prevent thrashing, got {} flips",
        r.flips
    );
}

/// On a distillation-friendly workload, LDIS must stay enabled.
#[test]
fn ldis_stays_enabled_on_friendly_workloads() {
    let mut hier = Hierarchy::hpca2007(DistillCache::new(DistillConfig::ldis_mt_rc()));
    spec2000::health(21).drive(&mut hier, TraceLength::accesses(800_000));
    let r = hier.l2().reverter().expect("configured");
    assert!(r.ldis_enabled());
    assert!(
        r.atd_misses > r.distill_leader_misses,
        "the traditional shadow must miss more: atd {} vs distill {}",
        r.atd_misses,
        r.distill_leader_misses
    );
}

/// Leader sets always distill, even while followers are disabled, so the
/// circuit can notice when the workload turns favourable again.
#[test]
fn leader_sets_keep_distilling_while_disabled() {
    let mut hier = Hierarchy::hpca2007(DistillCache::new(DistillConfig::ldis_mt_rc()));
    hier.l2_mut().force_ldis(false);
    let leader = SetIndex::new(0); // stride = 2048/32 = 64; set 0 leads
    let follower = SetIndex::new(1);
    assert!(hier.l2().ldis_active_for(leader));
    assert!(!hier.l2().ldis_active_for(follower));
}

/// More leader sets react faster but cost more ATD storage; any power of
/// two that divides the set count must work.
#[test]
fn alternative_leader_counts_work() {
    for leaders in [8u32, 64, 256] {
        let cfg = DistillConfig::ldis_mt().with_reverter(ReverterConfig {
            leader_sets: leaders,
            ..ReverterConfig::default()
        });
        let mut hier = Hierarchy::hpca2007(DistillCache::new(cfg));
        spec2000::swim(5).drive(&mut hier, TraceLength::accesses(600_000));
        assert!(
            !hier.l2().reverter().expect("configured").ldis_enabled(),
            "{leaders} leaders failed to disable LDIS on swim"
        );
    }
}

/// PSEL saturates at 0 and at `psel_max` instead of wrapping: extra
/// traffic in either direction cannot push it past the rails.
#[test]
fn psel_saturates_at_both_rails() {
    let mut r = small_reverter();
    assert_eq!(r.psel(), 128, "starts at the midpoint");
    // 128 net decrements reach 0; hundreds more must not wrap around.
    for _ in 0..500 {
        sink_one(&mut r);
    }
    assert_eq!(r.psel(), 0, "saturates at the bottom rail");
    assert!(!r.ldis_enabled());
    // Likewise upward: 255 is the ceiling, not 256.
    let mut unique = 0;
    for _ in 0..500 {
        rise_one(&mut r, &mut unique);
    }
    assert_eq!(r.psel(), 255, "saturates at the top rail");
    assert!(r.ldis_enabled());
}

/// The decision flips exactly when PSEL crosses the thresholds: below 64
/// to disable, above 192 to re-enable — never on the threshold itself.
#[test]
fn decision_flips_exactly_at_the_thresholds() {
    let mut r = small_reverter();
    // The first observation is net zero (ATD compulsory miss cancels the
    // distill miss); each one after subtracts one.
    sink_one(&mut r);
    assert_eq!(r.psel(), 128);
    // 64 decrements land exactly on 64: still enabled (64 is not < 64).
    for _ in 0..64 {
        sink_one(&mut r);
    }
    assert_eq!(r.psel(), 64);
    assert!(
        r.ldis_enabled(),
        "on the disable threshold the decision holds"
    );
    assert_eq!(r.flips, 0);
    // One more crosses it.
    sink_one(&mut r);
    assert_eq!(r.psel(), 63);
    assert!(!r.ldis_enabled(), "below 64 LDIS must disable");
    assert_eq!(r.flips, 1);
    // Climbing back: 192 is inside the hysteresis band, still disabled.
    let mut unique = 0;
    for _ in 0..(192 - 63) {
        rise_one(&mut r, &mut unique);
    }
    assert_eq!(r.psel(), 192);
    assert!(
        !r.ldis_enabled(),
        "on the enable threshold the decision holds"
    );
    assert_eq!(r.flips, 1);
    // One more crosses it.
    rise_one(&mut r, &mut unique);
    assert_eq!(r.psel(), 193);
    assert!(r.ldis_enabled(), "above 192 LDIS must re-enable");
    assert_eq!(r.flips, 2);
}

/// A forced decision pins PSEL to the matching rail, and the circuit can
/// still climb out of it when the evidence reverses.
#[test]
fn forced_decision_pins_the_rail_but_stays_reversible() {
    let mut r = small_reverter();
    r.force_enabled(false);
    assert_eq!(r.psel(), 0);
    assert!(!r.ldis_enabled());
    // Sustained evidence that the traditional shadow is worse: PSEL must
    // climb from the rail and re-enable only past 192.
    let mut unique = 0;
    for _ in 0..192 {
        rise_one(&mut r, &mut unique);
    }
    assert!(!r.ldis_enabled(), "still inside the hysteresis band");
    rise_one(&mut r, &mut unique);
    assert!(r.ldis_enabled(), "193 crosses the enable threshold");
    // Forcing the other way pins the opposite rail.
    r.force_enabled(true);
    assert_eq!(r.psel(), 255);
    assert!(r.ldis_enabled());
}
