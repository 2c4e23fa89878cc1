//! Seeded regressions: prove the workspace rules actually gate the
//! workspace by injecting known defects into the *live* sources (in
//! memory, nothing on disk) and checking each one is reported.
//!
//! Three seeds, matching the defect classes the rules were built for:
//! (a) a word-index/byte-address argument swap in `crates/core` (U1),
//! (b) a derive-salt collision in `crates/core` (S1), and
//! (c) a lock-order cycle in the experiments executor (L2).
//!
//! The generic seeds (a transitive `unwrap`, a lossy cast, a hashed
//! container, a wall-clock read, an `#[allow]`, an off-by-one shift) are
//! clippy's and rustc's to catch; CI's `lint-seeded` job injects them
//! and runs those tools.

use std::path::PathBuf;

fn workspace_root() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("../..")
        .canonicalize()
        .expect("workspace root resolves")
}

/// All live `.rs` sources, as `scan_workspace` would collect them.
fn live_sources() -> Vec<(String, String)> {
    let root = workspace_root();
    ldis_lint::collect_files(&root)
        .expect("workspace listing")
        .into_iter()
        .filter(|rel| rel.ends_with(".rs"))
        .map(|rel| {
            let src = std::fs::read_to_string(root.join(&rel))
                .unwrap_or_else(|e| panic!("reading {rel}: {e}"));
            (rel, src)
        })
        .collect()
}

/// Appends `seed` to `path`'s source and returns the findings the
/// workspace rules report on the patched workspace.
fn findings_with_seed(path: &str, seed: &str) -> Vec<ldis_lint::report::Finding> {
    let mut sources = live_sources();
    let target = sources
        .iter_mut()
        .find(|(rel, _)| rel == path)
        .unwrap_or_else(|| panic!("{path} not in workspace"));
    target.1.push_str(seed);
    ldis_lint::analyze::scan_model(&sources)
}

#[test]
fn unseeded_workspace_is_clean() {
    // Control: without a seed, the full scan — per-file rules (C1, W1)
    // and workspace rules — reports nothing, so any finding in the seeded
    // tests is attributable to the seed.
    let findings = ldis_lint::scan_workspace(&workspace_root()).expect("workspace scans");
    assert!(
        findings.is_empty(),
        "{:?}",
        findings
            .iter()
            .map(|f| format!("{}:{} {}[{}]", f.path, f.line, f.message, f.rule))
            .collect::<Vec<_>>()
    );
}

#[test]
fn injected_word_byte_swap_in_core_fails_lint() {
    let findings = findings_with_seed(
        "crates/core/src/lib.rs",
        "\nfn seeded_lookup(word_idx: usize) -> u64 {\n    word_idx as u64\n}\n\n\
         pub fn seeded_swap(addr: u64) -> u64 {\n    seeded_lookup(addr as usize)\n}\n",
    );
    let u1: Vec<_> = findings
        .iter()
        .filter(|f| f.rule == "U1" && f.path == "crates/core/src/lib.rs")
        .collect();
    assert_eq!(u1.len(), 1, "seeded unit swap not caught: {findings:?}");
    let msg = &u1[0].message;
    assert!(msg.contains("expects a word-index"), "{msg}");
    assert!(msg.contains("got a byte-address"), "{msg}");
}

#[test]
fn injected_salt_collision_in_core_fails_lint() {
    // Two derive sites with the same base and the same statically-
    // resolved salt tuple: the derived streams are identical.
    let findings = findings_with_seed(
        "crates/core/src/lib.rs",
        "\nfn seeded_salt_a(seed: u64) -> u64 {\n    \
         SimRng::derive_seed_chain(seed, &[0x5eed, stable_id(\"seeded\")])\n}\n\n\
         fn seeded_salt_b(seed: u64) -> u64 {\n    \
         SimRng::derive_seed_chain(seed, &[0x5eed, stable_id(\"seeded\")])\n}\n",
    );
    let s1: Vec<_> = findings
        .iter()
        .filter(|f| f.rule == "S1" && f.path == "crates/core/src/lib.rs")
        .collect();
    assert_eq!(
        s1.len(),
        1,
        "seeded salt collision not caught: {findings:?}"
    );
    let msg = &s1[0].message;
    assert!(msg.contains("duplicates the derive at"), "{msg}");
    assert!(msg.contains("stable_id(\"seeded\")"), "{msg}");
}

#[test]
fn injected_lock_order_cycle_in_executor_fails_lint() {
    // Opposite acquisition orders over two fresh mutexes: two workers
    // running these concurrently deadlock.
    let findings = findings_with_seed(
        "crates/experiments/src/exec/mod.rs",
        "\nfn seeded_order_fb(front: &Mutex<u64>, back: &Mutex<u64>) -> u64 {\n    \
         let f = front.lock().unwrap_or_else(|e| e.into_inner());\n    \
         let b = back.lock().unwrap_or_else(|e| e.into_inner());\n    \
         *f + *b\n}\n\n\
         fn seeded_order_bf(front: &Mutex<u64>, back: &Mutex<u64>) -> u64 {\n    \
         let b = back.lock().unwrap_or_else(|e| e.into_inner());\n    \
         let f = front.lock().unwrap_or_else(|e| e.into_inner());\n    \
         *f + *b\n}\n",
    );
    let l2: Vec<_> = findings.iter().filter(|f| f.rule == "L2").collect();
    assert_eq!(l2.len(), 1, "seeded lock cycle not caught: {findings:?}");
    let msg = &l2[0].message;
    assert!(msg.contains("lock-order cycle"), "{msg}");
    assert!(msg.contains("front") && msg.contains("back"), "{msg}");
}
