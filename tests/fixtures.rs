//! Fixture self-tests for the checks that reject an impossible
//! configuration or a malformed golden: each fires on its failing
//! fixture and is silent on its passing one.
//!
//! The configuration constructors assert the paper's invariants, so an
//! impossible line geometry, set count or reverter hysteresis panics
//! where it is built. The golden fixtures go through
//! [`golden::structure_problems`], the check `golden_snapshots.rs`
//! applies to every committed golden.

use line_distillation::cache::CacheConfig;
use line_distillation::distill::{DistillConfig, ReverterConfig};
use line_distillation::experiments::golden;
use line_distillation::mem::LineGeometry;
use std::panic;

/// Impossible configurations, each with the start of the panic message
/// its constructor gives.
const FAIL: &[(fn(), &str)] = &[
    // 48 is not a power of two.
    (
        || {
            let _ = LineGeometry::new(48, 8);
        },
        "line size must be a power of two",
    ),
    // 1 MiB / (64 B × 6 ways) is not a whole number of sets.
    (
        || {
            let _ = CacheConfig::new(1 << 20, 6, LineGeometry::default());
        },
        "cache size 1048576 is not divisible",
    ),
    // Inverted hysteresis: LDIS would switch off above the PSEL value
    // that switches it back on.
    (
        || {
            let inverted = ReverterConfig {
                leader_sets: 32,
                disable_below: 200,
                enable_above: 100,
                psel_max: 255,
            };
            let _ = DistillConfig::hpca2007_default().with_reverter(inverted);
        },
        "reverter thresholds must satisfy",
    ),
];

/// The paper's configurations, and a deliberate threshold sweep away
/// from its 64/192 rails.
const PASS: &[fn()] = &[
    || {
        let _ = LineGeometry::new(64, 8);
    },
    || {
        let _ = CacheConfig::new(1 << 20, 8, LineGeometry::default());
    },
    || {
        let _ = DistillConfig::new(1 << 20, 8, 2, LineGeometry::new(64, 8))
            .with_reverter(ReverterConfig::default());
    },
    || {
        let sweep = ReverterConfig {
            disable_below: 32,
            enable_above: 224,
            ..ReverterConfig::default()
        };
        let _ = DistillConfig::hpca2007_default().with_reverter(sweep);
    },
];

/// The panic message of `build`, or `None` when it returns.
fn panic_message(build: fn()) -> Option<String> {
    let payload = panic::catch_unwind(build).err()?;
    Some(
        payload
            .downcast_ref::<String>()
            .cloned()
            .or_else(|| payload.downcast_ref::<&str>().map(|s| (*s).to_owned()))
            .unwrap_or_default(),
    )
}

#[test]
fn c1_fail_fixture_count_is_exact_and_pass_fixture_is_silent() {
    for (i, (build, expected)) in FAIL.iter().enumerate() {
        let message =
            panic_message(*build).unwrap_or_else(|| panic!("fail fixture {i} was accepted"));
        assert!(message.starts_with(expected), "fail fixture {i}: {message}");
    }
    for (i, build) in PASS.iter().enumerate() {
        assert_eq!(panic_message(*build), None, "pass fixture {i} was rejected");
    }
}

#[test]
fn golden_fixtures_validate() {
    let bad = r#"{"experiment": "some_other_name", "accesses": 0, "seed": -3, "rows": []}"#;
    let found = golden::structure_problems("golden_bad", bad);
    assert_eq!(found.len(), 4, "{found:?}");
    for field in ["`experiment`", "`rows`", "`seed`", "`accesses`"] {
        assert!(
            found.iter().any(|p| p.starts_with(field)),
            "{field} not flagged: {found:?}"
        );
    }
    let ok = r#"{
        "experiment": "golden_ok",
        "accesses": 1000000,
        "seed": 42,
        "rows": [{"config": "baseline", "miss_rate": 0.1234}]
    }"#;
    assert_eq!(
        golden::structure_problems("golden_ok", ok),
        Vec::<String>::new()
    );
}
