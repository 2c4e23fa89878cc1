//! Integration tests for the flow-sensitive engine: the CFG builder's
//! rendered output is pinned byte-for-byte against a snapshot, and the
//! worklist solver's lattice behavior (fixpoint on loops, must-vs-may
//! joins, branch-sensitive gen/kill) is exercised over real lowered
//! functions rather than hand-built graphs.

use ldis_lint::cfg::Cfg;
use ldis_lint::dataflow::{solve_forward, GenKill};
use ldis_lint::lexer::lex;
use ldis_lint::parser;
use std::collections::BTreeSet;
use std::path::PathBuf;

fn fixture_src() -> String {
    let path = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("tests/fixtures/cfg/control_flow.rs");
    std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("reading {}: {e}", path.display()))
}

/// Builds the CFG of the fixture function named `name`.
fn cfg_of(name: &str) -> Cfg {
    let src = fixture_src();
    let lexed = lex(&src);
    let parsed = parser::parse(&lexed.tokens);
    let f = parsed
        .fns
        .iter()
        .find(|f| f.name == name)
        .unwrap_or_else(|| panic!("fixture fn {name} not found"));
    Cfg::build(&lexed.tokens, f.body.clone())
}

fn set(names: &[&str]) -> BTreeSet<String> {
    names.iter().map(|s| s.to_string()).collect()
}

#[test]
#[expect(
    clippy::disallowed_methods,
    reason = "UPDATE_SNAPSHOTS only rewrites the snapshot file"
)]
fn cfg_render_snapshot_is_byte_identical() {
    let src = fixture_src();
    let lexed = lex(&src);
    let parsed = parser::parse(&lexed.tokens);
    let mut rendered = String::new();
    for f in &parsed.fns {
        let cfg = Cfg::build(&lexed.tokens, f.body.clone());
        rendered.push_str(&format!("fn {}\n", f.name));
        rendered.push_str(&cfg.render(&lexed.tokens));
        rendered.push('\n');
    }
    let snap_path = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("tests/fixtures/cfg/cfg.snap");
    if std::env::var_os("UPDATE_SNAPSHOTS").is_some() {
        std::fs::write(&snap_path, &rendered).expect("writing snapshot");
        return;
    }
    let expected = std::fs::read_to_string(&snap_path)
        .unwrap_or_else(|e| panic!("reading {}: {e}", snap_path.display()));
    assert_eq!(
        rendered, expected,
        "CFG render drifted from tests/fixtures/cfg/cfg.snap; \
         if the change is intended, regenerate with UPDATE_SNAPSHOTS=1"
    );
}

#[test]
fn solver_reaches_fixpoint_on_loops() {
    // Every looping shape in the fixture must converge without tripping
    // the safety valve, and the exit must be reachable.
    for name in [
        "looping",
        "bare_loop_with_break",
        "for_each",
        "continue_and_break",
    ] {
        let cfg = cfg_of(name);
        let gk = GenKill {
            must: false,
            boundary: set(&["root"]),
            gen: vec![BTreeSet::new(); cfg.nodes.len()],
            kill: vec![BTreeSet::new(); cfg.nodes.len()],
        };
        let sol = solve_forward(&cfg, &gk);
        assert!(sol.converged, "{name} did not converge");
        assert!(sol.input[cfg.exit].is_some(), "{name}: exit unreachable");
    }
}

#[test]
fn must_join_intersects_and_may_join_unions_at_merge() {
    // In `branchy`, gen a different name on each arm of the if. The
    // must-analysis keeps neither at the merge; the may-analysis keeps
    // both.
    let cfg = cfg_of("branchy");
    let mut gen = vec![BTreeSet::new(); cfg.nodes.len()];
    let mut tagged = 0;
    for (id, node) in cfg.nodes.iter().enumerate() {
        // The two `x = x + k;` arm statements are the only nodes whose
        // spans contain an integer literal 1 or 2 after lowering.
        if !node.span.is_empty() && node.preds.len() == 1 {
            let toks = lex(&fixture_src()).tokens;
            let texts: Vec<&str> = toks[node.span.clone()]
                .iter()
                .map(|t| t.text.as_str())
                .collect();
            if texts.contains(&"x") && (texts.contains(&"1") || texts.contains(&"2")) {
                gen[id] = set(&[if texts.contains(&"1") { "then" } else { "else" }]);
                tagged += 1;
            }
        }
    }
    assert_eq!(tagged, 2, "expected both if arms to be tagged");

    let must = GenKill {
        must: true,
        boundary: BTreeSet::new(),
        gen: gen.clone(),
        kill: vec![BTreeSet::new(); cfg.nodes.len()],
    };
    let sol = solve_forward(&cfg, &must);
    assert!(sol.converged);
    assert_eq!(
        sol.input[cfg.exit].as_ref().unwrap().len(),
        0,
        "must-join keeps only facts proven on every path"
    );

    let may = GenKill {
        must: false,
        boundary: BTreeSet::new(),
        gen,
        kill: vec![BTreeSet::new(); cfg.nodes.len()],
    };
    let sol = solve_forward(&cfg, &may);
    assert!(sol.converged);
    assert_eq!(
        sol.input[cfg.exit].as_ref().unwrap(),
        &set(&["then", "else"]),
        "may-join unions facts from both arms"
    );
}

#[test]
fn branch_sensitive_kill_reaches_merge_under_must_join() {
    // Gen a fact at entry, kill it on the then-arm only: the must-join
    // at the merge loses it, proving the kill is branch-sensitive and
    // the no-else false edge is wired.
    let cfg = cfg_of("branchy");
    let src = fixture_src();
    let toks = lex(&src).tokens;
    let mut kill = vec![BTreeSet::new(); cfg.nodes.len()];
    let mut killed = 0;
    for (id, node) in cfg.nodes.iter().enumerate() {
        let texts: Vec<&str> = toks[node.span.clone()]
            .iter()
            .map(|t| t.text.as_str())
            .collect();
        if texts.contains(&"1") && texts.contains(&"x") {
            kill[id] = set(&["clean"]);
            killed += 1;
        }
    }
    assert_eq!(killed, 1, "exactly the then-arm kills");

    let gk = GenKill {
        must: true,
        boundary: set(&["clean"]),
        gen: vec![BTreeSet::new(); cfg.nodes.len()],
        kill,
    };
    let sol = solve_forward(&cfg, &gk);
    assert!(sol.converged);
    assert!(
        sol.input[cfg.exit].as_ref().unwrap().is_empty(),
        "a kill on one path must clear the must-fact at the merge"
    );
}

#[test]
fn code_after_bare_loop_without_break_is_unreachable() {
    let src = "fn f() -> u64 { let mut i = 0; loop { i += 1; } }";
    let lexed = lex(src);
    let parsed = parser::parse(&lexed.tokens);
    let cfg = Cfg::build(&lexed.tokens, parsed.fns[0].body.clone());
    let gk = GenKill {
        must: false,
        boundary: set(&["root"]),
        gen: vec![BTreeSet::new(); cfg.nodes.len()],
        kill: vec![BTreeSet::new(); cfg.nodes.len()],
    };
    let sol = solve_forward(&cfg, &gk);
    assert!(sol.converged, "diverging loop still reaches fixpoint");
    assert!(
        sol.input[cfg.exit].is_none(),
        "exit after a break-less bare loop must stay unreachable"
    );
}
