//! Golden-snapshot regression tests.
//!
//! Each test recomputes one experiment at the canonical quick
//! configuration and compares the canonical JSON rendering byte for byte
//! against the committed file under `tests/golden/`. A mismatch means a
//! simulator, workload or sweep change moved a published number: if that
//! was intentional, regenerate with `UPDATE_GOLDEN=1 cargo test` and
//! commit the diff alongside the change.

use line_distillation::experiments::{
    advisor, appendix, exec, fig10, fig11, fig13, fig8, golden, linesize, motivation, mrc,
    parallel, resilience, sweep, table3,
};

#[test]
fn motivation_matches_golden() {
    let cfg = golden::golden_config();
    golden::assert_matches("motivation", &motivation::snapshot(&cfg));
}

#[test]
fn table3_matches_golden() {
    golden::assert_matches("table3", &table3::snapshot());
}

#[test]
fn linesize_matches_golden() {
    let cfg = golden::golden_config();
    golden::assert_matches("linesize", &linesize::snapshot(&cfg));
}

#[test]
fn resilience_matches_golden() {
    let cfg = golden::golden_config();
    golden::assert_matches("resilience", &resilience::snapshot(&cfg));
}

#[test]
fn fig8_matches_golden() {
    let cfg = golden::golden_config();
    golden::assert_matches("fig8", &fig8::snapshot(&cfg));
}

#[test]
fn fig10_matches_golden() {
    let cfg = golden::golden_config();
    golden::assert_matches("fig10", &fig10::snapshot(&cfg));
}

#[test]
fn fig11_matches_golden() {
    let cfg = golden::golden_config();
    golden::assert_matches("fig11", &fig11::snapshot(&cfg));
}

#[test]
fn fig13_matches_golden() {
    let cfg = golden::golden_config();
    golden::assert_matches("fig13", &fig13::snapshot(&cfg));
}

#[test]
fn table5_matches_golden() {
    let cfg = golden::golden_config();
    golden::assert_matches("table5", &appendix::table5_snapshot(&cfg));
}

#[test]
fn table6_matches_golden() {
    let cfg = golden::golden_config();
    golden::assert_matches("table6", &appendix::table6_snapshot(&cfg));
}

#[test]
fn mrc_matches_golden() {
    let cfg = golden::golden_config();
    golden::assert_matches("mrc", &mrc::snapshot(&cfg));
}

#[test]
fn advisor_matches_golden() {
    let cfg = golden::golden_config();
    golden::assert_matches("advisor", &advisor::snapshot(&cfg));
}

#[test]
fn sweep_matches_golden() {
    // The full 81-cell matrix through the crash-safe executor: the
    // snapshot must be byte-stable whether cells run serially, on a
    // pool, or resumed from a journal (crash_resume.rs covers the
    // journal paths against this same committed file).
    let cfg = golden::golden_config();
    let policy = exec::ExecPolicy::with_threads(parallel::configured_threads());
    let report = exec::run_cells(
        sweep::cells(),
        move |_cell, spec: &sweep::CellSpec| sweep::run_cell(spec, &cfg),
        &policy,
        std::collections::BTreeMap::new(),
        |_, _| {},
    );
    assert!(report.all_ok(), "clean matrix must not quarantine");
    golden::assert_matches("sweep", &sweep::snapshot(&report.outcomes));
}
