//! `ldis-lint`: the domain rules for the line-distillation workspace.
//!
//! The golden-snapshot harness catches a determinism break only *after*
//! it corrupts a snapshot. Generic hygiene — wall clocks, env reads,
//! hashed containers, panics, raw indexing, lossy casts — is checked by
//! clippy (`clippy.toml` plus the `deny` block at the top of every sim
//! crate's `lib.rs`). This crate checks what clippy cannot express:
//!
//! * **C1 — config invariants**: literal cache configurations in
//!   examples and the golden snapshots must describe possible
//!   geometries (power-of-two sets and word counts, a LOC/WOC split that
//!   partitions the associativity, PSEL thresholds on the paper's 64/192
//!   hysteresis rails).
//! * **U1 — unit safety**: byte addresses, word indices, line addresses
//!   and set indices never mix without a conversion.
//! * **D3 — float determinism**: no order-sensitive float accumulation
//!   across parallel sweep cells.
//! * **S1 — seed provenance**: every `SimRng` stream derives from the
//!   root seed, with no salt collisions.
//! * **L2 — lock discipline**: acyclic lock order, no re-entry, nothing
//!   panic-capable under a held lock.
//! * **O1 — counter arithmetic**: stats counters and `LineGeometry`
//!   math are overflow-checked or carry a justified waiver.
//! * **W1 — waiver hygiene**: every `// ldis: allow(RULE, "why")` names
//!   one of these rules and carries a justification.
//!
//! Every finding fails the run; there is no baseline and no warn tier.
//!
//! There is deliberately no dependency on `syn` or any other registry
//! crate: the build environment is fully offline, so the crate carries
//! its own Rust lexer and JSON reader.

pub mod analyze;
pub mod cfg;
pub mod dataflow;
pub mod json;
pub mod lexer;
pub mod model;
pub mod parser;
pub mod report;
pub mod rules;

use report::Finding;
use rules::{FileContext, Rule};
use std::path::{Path, PathBuf};

/// Crates whose sources model the simulator itself: U1 and O1 apply, and
/// their `lib.rs` carries the clippy `deny` block.
pub const SIM_CRATES: &[&str] = &[
    "mem",
    "cache",
    "core",
    "compress",
    "sfp",
    "timing",
    "workloads",
    "mrc",
];

/// The per-file rules for one workspace-relative path, or `None` when
/// the file is out of scope. In-scope `.rs` files also feed the
/// workspace rules (U1 D3 S1 L2 O1, each with its own path scope) and
/// the waiver-hygiene check W1.
///
/// Scope map:
///
/// | path | per-file rules |
/// |---|---|
/// | `crates/*/src/**`, `crates/*/tests/*.rs`, `tests/*.rs` | — |
/// | `examples/*.rs` | C1 |
/// | `tests/golden/*.json` | C1 (snapshot checks) |
///
/// `crates/lint/tests/fixtures/**` holds deliberate violations and is
/// always skipped.
pub fn rules_for(rel: &str) -> Option<Vec<Rule>> {
    if rel.starts_with("crates/lint/tests/fixtures/") {
        return None;
    }
    if rel.ends_with(".json") {
        return rel.starts_with("tests/golden/").then(|| vec![Rule::C1]);
    }
    if !rel.ends_with(".rs") {
        return None;
    }
    if rel.starts_with("examples/") {
        return Some(vec![Rule::C1]);
    }
    let crate_source = rel
        .strip_prefix("crates/")
        .and_then(|rest| rest.split_once('/'))
        .is_some_and(|(_, sub)| sub.starts_with("src/") || sub.starts_with("tests/"));
    (crate_source || rel.starts_with("tests/")).then(Vec::new)
}

/// Recursively collects lintable files under `root`, as sorted
/// workspace-relative paths.
pub fn collect_files(root: &Path) -> std::io::Result<Vec<String>> {
    let mut files = Vec::new();
    let mut stack = vec![root.to_path_buf()];
    while let Some(dir) = stack.pop() {
        for entry in std::fs::read_dir(&dir)? {
            let entry = entry?;
            let path = entry.path();
            let name = entry.file_name();
            let name = name.to_string_lossy();
            if entry.file_type()?.is_dir() {
                if name.starts_with('.') || name == "target" {
                    continue;
                }
                stack.push(path);
                continue;
            }
            if !(name.ends_with(".rs") || name.ends_with(".json")) {
                continue;
            }
            let rel = path
                .strip_prefix(root)
                .unwrap_or(&path)
                .to_string_lossy()
                .replace('\\', "/");
            if rules_for(&rel).is_some() {
                files.push(rel);
            }
        }
    }
    files.sort();
    Ok(files)
}

/// Lints one file's contents under the rules its path selects.
pub fn scan_file(rel: &str, src: &str) -> Vec<Finding> {
    let Some(rules) = rules_for(rel) else {
        return Vec::new();
    };
    if rel.ends_with(".json") {
        let stem = rel
            .rsplit('/')
            .next()
            .and_then(|n| n.strip_suffix(".json"))
            .unwrap_or(rel);
        return rules::scan_golden(rel, stem, src);
    }
    let ctx = FileContext::new(rel, src);
    rules::scan_rust(&ctx, &rules)
}

/// Lints the whole workspace rooted at `root`: the per-file rules first,
/// then the workspace rules over the call graph of every in-scope `.rs`
/// file. Returns every finding in diagnostic order.
pub fn scan_workspace(root: &Path) -> std::io::Result<Vec<Finding>> {
    let mut findings = Vec::new();
    let mut sources: Vec<(String, String)> = Vec::new();
    for rel in collect_files(root)? {
        let src = std::fs::read_to_string(root.join(&rel))?;
        findings.extend(scan_file(&rel, &src));
        if rel.ends_with(".rs") {
            sources.push((rel, src));
        }
    }
    findings.extend(analyze::scan_model(&sources));
    report::sort(&mut findings);
    Ok(findings)
}

/// Best-effort workspace root discovery for `cargo run -p ldis-lint`:
/// walks up from `start` to the first directory holding a `Cargo.toml`
/// with a `[workspace]` table.
pub fn find_root(start: &Path) -> PathBuf {
    let mut dir = start.to_path_buf();
    loop {
        let manifest = dir.join("Cargo.toml");
        if let Ok(text) = std::fs::read_to_string(&manifest) {
            if text.contains("[workspace]") {
                return dir;
            }
        }
        if !dir.pop() {
            return start.to_path_buf();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scope_map_matches_the_design() {
        for rel in [
            "crates/mem/src/rng.rs",
            "crates/mrc/src/shards.rs",
            "crates/cache/src/arena.rs",
            "crates/experiments/src/exec/mod.rs",
            "crates/experiments/src/bin/main.rs",
            "crates/lint/src/rules.rs",
            "crates/mrc/tests/shards_properties.rs",
            "tests/hotpath_equivalence.rs",
        ] {
            assert_eq!(rules_for(rel), Some(vec![]), "{rel}");
        }
        assert_eq!(rules_for("examples/sampled_mrc.rs"), Some(vec![Rule::C1]));
        assert_eq!(rules_for("tests/golden/advisor.json"), Some(vec![Rule::C1]));
        assert_eq!(rules_for("crates/lint/tests/fixtures/fail/c1.rs"), None);
        assert_eq!(rules_for("crates/lint/Cargo.toml"), None);
        assert_eq!(rules_for("README.md"), None);
        assert_eq!(rules_for("results.json"), None);
    }

    #[test]
    fn scan_file_dispatches_json_vs_rust() {
        let json = scan_file("tests/golden/x.json", r#"{"experiment": "y"}"#);
        assert_eq!(json.len(), 1, "experiment/stem mismatch");
        let rust = scan_file(
            "examples/fake.rs",
            "fn main() { LineGeometry::new(64, 12); }",
        );
        assert_eq!(rust.len(), 1);
        assert_eq!(rust[0].rule, "C1");
        assert!(scan_file("out_of_scope.rs", "fn f() { LineGeometry::new(64, 12); }").is_empty());
    }
}
