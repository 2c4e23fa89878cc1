//! Golden-snapshot regression tests.
//!
//! Each golden recomputes one experiment at the canonical quick
//! configuration and compares the canonical JSON rendering byte for byte
//! against the committed file under `tests/golden/`. A mismatch means a
//! simulator, workload or sweep change moved a published number: if that
//! was intentional, regenerate with `UPDATE_GOLDEN=1 cargo test` and
//! commit the diff alongside the change.

use line_distillation::experiments::report::Json;
use line_distillation::experiments::{
    ablations, advisor, appendix, costs, exec, fig10, fig11, fig13, fig6, fig7, fig8, fig9, golden,
    linesize, motivation, mrc, parallel, resilience, sweep, table3, RunConfig,
};
use std::fs;

/// Computes one experiment's golden snapshot at a run configuration.
type Snapshot = fn(&RunConfig) -> Json;

/// Declares the figure goldens in one table, `FIGURES`, and one test per
/// entry comparing the snapshot at [`golden::golden_config`] against the
/// committed file, so one run names every golden that differs.
macro_rules! figure_goldens {
    ($($test:ident: $name:literal => $snapshot:path,)*) => {
        /// The figure goldens, each the snapshot of one experiment.
        const FIGURES: &[(&str, Snapshot)] = &[$(($name, $snapshot)),*];

        $(
            #[test]
            fn $test() {
                golden::assert_matches($name, &$snapshot(&golden::golden_config()));
            }
        )*
    };
}

figure_goldens! {
    motivation_matches_golden: "motivation" => motivation::snapshot,
    linesize_matches_golden: "linesize" => linesize::snapshot,
    resilience_matches_golden: "resilience" => resilience::snapshot,
    fig6_matches_golden: "fig6" => fig6::snapshot,
    fig7_matches_golden: "fig7" => fig7::snapshot,
    fig8_matches_golden: "fig8" => fig8::snapshot,
    fig9_matches_golden: "fig9" => fig9::snapshot,
    fig10_matches_golden: "fig10" => fig10::snapshot,
    fig11_matches_golden: "fig11" => fig11::snapshot,
    fig13_matches_golden: "fig13" => fig13::snapshot,
    table5_matches_golden: "table5" => appendix::table5_snapshot,
    table6_matches_golden: "table6" => appendix::table6_snapshot,
    mrc_matches_golden: "mrc" => mrc::snapshot,
    advisor_matches_golden: "advisor" => advisor::snapshot,
    costs_matches_golden: "costs" => costs::snapshot,
    ablations_matches_golden: "ablations" => ablations::snapshot,
}

/// The goldens compared by tests of their own below.
const OWN_TESTS: &[&str] = &["table3", "sweep"];

#[test]
fn table3_matches_golden() {
    golden::assert_matches("table3", &table3::snapshot());
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

/// The problems with one committed golden: its structure
/// ([`golden::structure_problems`]), and whether any test compares it.
fn problems(stem: &str, text: &str) -> Vec<String> {
    let mut problems = golden::structure_problems(stem, text);
    if !FIGURES.iter().any(|(name, _)| *name == stem) && !OWN_TESTS.contains(&stem) {
        problems.push("no test compares it".to_owned());
    }
    problems
}

#[test]
fn committed_goldens_are_well_formed_and_compared() {
    let mut found = Vec::new();
    let mut count = 0;
    for entry in fs::read_dir(golden::dir()).expect("golden directory is readable") {
        let path = entry.expect("golden directory entry").path();
        let (Some(stem), Some("json")) = (
            path.file_stem().and_then(|s| s.to_str()),
            path.extension().and_then(|s| s.to_str()),
        ) else {
            continue;
        };
        count += 1;
        let text = fs::read_to_string(&path).expect("golden is readable");
        for problem in problems(stem, &text) {
            found.push(format!("{stem}.json: {problem}"));
        }
    }
    assert_eq!(
        count,
        FIGURES.len() + OWN_TESTS.len(),
        "one committed golden per compared snapshot"
    );
    assert!(found.is_empty(), "{}", found.join("\n"));
}

#[test]
fn uncompared_goldens_are_flagged() {
    let orphan = r#"{"experiment": "orphan"}"#;
    assert_eq!(problems("orphan", orphan), ["no test compares it"]);
    let compared = r#"{"experiment": "fig6"}"#;
    assert_eq!(problems("fig6", compared), Vec::<String>::new());
}
