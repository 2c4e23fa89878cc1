//! Fixture self-tests: every rule fires on its `fail/` fixture and is
//! silent on its `pass/` fixture. The fixtures live under
//! `tests/fixtures/{pass,fail}/` and are excluded from the workspace
//! scan itself (`rules_for` skips them), so the deliberate violations
//! never pollute the real lint run.

use std::path::PathBuf;

fn fixture(kind: &str, name: &str) -> String {
    let path = PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("tests/fixtures")
        .join(kind)
        .join(name);
    std::fs::read_to_string(&path)
        .unwrap_or_else(|e| panic!("reading fixture {}: {e}", path.display()))
}

/// C1's findings on a fixture scanned as if it were an example.
fn c1_findings(kind: &str) -> Vec<ldis_lint::report::Finding> {
    let src = fixture(kind, "c1.rs");
    ldis_lint::scan_file("examples/fixture.rs", &src)
        .into_iter()
        .filter(|f| f.rule == "C1")
        .collect()
}

#[test]
fn c1_fail_fixture_count_is_exact_and_pass_fixture_is_silent() {
    // Pin the exact count so a regression in any sub-check (geometry,
    // split, reverter rails) is caught, not just total silence.
    let found = c1_findings("fail");
    assert_eq!(
        found.len(),
        5,
        "{:?}",
        found
            .iter()
            .map(|f| format!("{}:{} {}", f.line, f.col, f.message))
            .collect::<Vec<_>>()
    );
    for f in &found {
        assert_eq!(f.path, "examples/fixture.rs");
        assert!(f.line > 0 && f.col > 0, "C1 finding lacks a location");
    }
    let clean = c1_findings("pass");
    assert!(
        clean.is_empty(),
        "C1 fired on fixtures/pass/c1.rs: {clean:?}"
    );
}

/// Runs the workspace rules over one fixture file scanned under a
/// synthetic in-scope path, returning only findings of `rule`.
fn model_findings(rule: &str, as_path: &str, src: &str) -> Vec<ldis_lint::report::Finding> {
    let files = vec![(as_path.to_string(), src.to_string())];
    ldis_lint::analyze::scan_model(&files)
        .into_iter()
        .filter(|f| f.rule == rule)
        .collect()
}

/// The workspace rules with their fixture stems, synthetic paths and
/// exact fail-fixture finding counts.
const MODEL_CASES: &[(&str, &str, &str, usize)] = &[
    ("U1", "u1.rs", "crates/mem/src/fixture.rs", 4),
    ("D3", "d3.rs", "crates/experiments/src/fixture.rs", 4),
    ("S1", "s1.rs", "crates/core/src/fixture.rs", 4),
    ("L2", "l2.rs", "crates/experiments/src/fixture.rs", 4),
    ("O1", "o1.rs", "crates/cache/src/fixture.rs", 7),
];

#[test]
fn interprocedural_fail_fixture_counts_are_exact() {
    for (rule, name, as_path, expected) in MODEL_CASES {
        let src = fixture("fail", name);
        let found = model_findings(rule, as_path, &src);
        assert_eq!(
            found.len(),
            *expected,
            "{rule} on fixtures/fail/{name}: {:?}",
            found
                .iter()
                .map(|f| format!("{}:{} {}", f.line, f.col, f.message))
                .collect::<Vec<_>>()
        );
        for f in &found {
            assert_eq!(f.path, *as_path);
            assert!(f.line > 0 && f.col > 0, "{rule} finding lacks a location");
        }
    }
}

#[test]
fn interprocedural_rules_are_silent_on_pass_fixtures() {
    for (rule, name, as_path, _) in MODEL_CASES {
        let src = fixture("pass", name);
        let found = model_findings(rule, as_path, &src);
        assert!(
            found.is_empty(),
            "{rule} fired on fixtures/pass/{name}: {:?}",
            found
                .iter()
                .map(|f| format!("{}:{} {}", f.line, f.col, f.message))
                .collect::<Vec<_>>()
        );
    }
}

#[test]
#[expect(
    clippy::disallowed_methods,
    reason = "UPDATE_SNAPSHOTS only rewrites the snapshot file"
)]
fn call_graph_snapshot_is_byte_identical() {
    let files = vec![
        (
            "crates/mem/src/lib.rs".to_string(),
            fixture("callgraph", "mem.rs"),
        ),
        (
            "crates/cache/src/lib.rs".to_string(),
            fixture("callgraph", "cache.rs"),
        ),
    ];
    let ws = ldis_lint::model::Workspace::build(&files);
    let rendered = ws.render();
    let snap_path =
        PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("tests/fixtures/callgraph/graph.snap");
    if std::env::var_os("UPDATE_SNAPSHOTS").is_some() {
        std::fs::write(&snap_path, &rendered).expect("writing snapshot");
        return;
    }
    let expected = std::fs::read_to_string(&snap_path)
        .unwrap_or_else(|e| panic!("reading {}: {e}", snap_path.display()));
    assert_eq!(
        rendered, expected,
        "call-graph render drifted from tests/fixtures/callgraph/graph.snap; \
         if the change is intended, regenerate with UPDATE_SNAPSHOTS=1"
    );
}

#[test]
fn golden_fixtures_validate() {
    let bad = fixture("fail", "golden_bad.json");
    let found = ldis_lint::scan_file("tests/golden/golden_bad.json", &bad);
    let messages: Vec<&str> = found.iter().map(|f| f.message.as_str()).collect();
    assert_eq!(found.len(), 4, "{messages:?}");
    assert!(messages.iter().any(|m| m.contains("named golden_bad.json")));
    assert!(messages.iter().any(|m| m.contains("`rows` is empty")));
    assert!(messages.iter().any(|m| m.contains("`seed`")));
    assert!(messages.iter().any(|m| m.contains("`accesses`")));

    let ok = fixture("pass", "golden_ok.json");
    let found = ldis_lint::scan_file("tests/golden/golden_ok.json", &ok);
    assert!(
        found.is_empty(),
        "{:?}",
        found.iter().map(|f| &f.message).collect::<Vec<_>>()
    );
}

#[test]
fn fixtures_are_out_of_workspace_scope() {
    for kind in ["pass", "fail"] {
        for name in ["c1.rs", "u1.rs", "d3.rs", "s1.rs", "l2.rs", "o1.rs"] {
            let rel = format!("crates/lint/tests/fixtures/{kind}/{name}");
            assert_eq!(ldis_lint::rules_for(&rel), None, "{rel} must be skipped");
        }
    }
    for rel in [
        "crates/lint/tests/fixtures/callgraph/mem.rs",
        "crates/lint/tests/fixtures/cfg/control_flow.rs",
    ] {
        assert_eq!(ldis_lint::rules_for(rel), None, "{rel} must be skipped");
    }
}
