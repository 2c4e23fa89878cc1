//! Golden-snapshot regression harness.
//!
//! Committed JSON snapshots under `tests/golden/` (repository root) pin
//! the quick-config results of Figures 6–11 and 13, Tables 3, 5 and 6,
//! and the `motivation`, `linesize`, `resilience`, `mrc`, `advisor`,
//! `costs`, `ablations` and `sweep` experiments, so any change to the
//! simulator, the workload models or the sweep engine that moves a
//! number fails the test suite with a line-level diff instead of
//! silently shifting the paper reproduction. `tests/golden_snapshots.rs` declares the figure goldens
//! in one table, with one test per entry, and checks that every committed
//! file is well formed ([`structure_problems`]) and compared by some test.
//!
//! Workflow:
//!
//! * `cargo test` compares freshly computed snapshots against the
//!   committed files and fails on any byte difference;
//! * `UPDATE_GOLDEN=1 cargo test` regenerates the files in place; commit
//!   the diff together with the change that motivated it.
//!
//! Snapshots are rendered with the canonical serializer
//! ([`Json::render_pretty`]), which is byte-stable: the same results
//! always produce the same file, so regeneration without a real change is
//! a no-op and `git diff --exit-code tests/golden` can gate CI.

use crate::report::Json;
use crate::RunConfig;
use ldis_cache::L2Stats;
use std::fs;
use std::path::PathBuf;

/// The canonical configuration every golden snapshot is computed with:
/// [`RunConfig::quick`]. `ldis-experiments bench --quick` times the same
/// configuration, so benchmark numbers and snapshots describe the same
/// work.
pub fn golden_config() -> RunConfig {
    RunConfig::quick()
}

/// The raw L2 counters a golden row pins beside its rounded
/// percentages: hits, demand misses, evictions, writebacks and WOC
/// installs.
pub fn l2_counts(stats: &L2Stats) -> Json {
    Json::obj([
        ("hits", Json::uint(stats.hits())),
        ("misses", Json::uint(stats.demand_misses())),
        ("evictions", Json::uint(stats.evictions)),
        ("writebacks", Json::uint(stats.writebacks)),
        ("woc_installs", Json::uint(stats.woc_installs)),
    ])
}

/// The snapshot directory: `LDIS_GOLDEN_DIR` if set (tests use a
/// temporary directory to exercise the update path), else `tests/golden/`
/// at the repository root.
#[expect(
    clippy::disallowed_methods,
    reason = "LDIS_GOLDEN_DIR only redirects where the test harness keeps snapshots; simulated state never reads it"
)]
pub fn dir() -> PathBuf {
    match std::env::var_os("LDIS_GOLDEN_DIR") {
        Some(d) => PathBuf::from(d),
        None => PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../../tests/golden"),
    }
}

/// Whether `UPDATE_GOLDEN=1` is in effect.
#[expect(
    clippy::disallowed_methods,
    reason = "UPDATE_GOLDEN only switches the test harness between verify and rewrite; simulated state never reads it"
)]
pub fn update_requested() -> bool {
    std::env::var("UPDATE_GOLDEN").is_ok_and(|v| v == "1")
}

/// What [`verify`] did.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum GoldenStatus {
    /// The computed snapshot matched the committed file byte for byte.
    Matched,
    /// `UPDATE_GOLDEN=1`: the file was (re)written.
    Updated,
}

/// Compares the rendered `snapshot` against `tests/golden/<name>.json`,
/// or rewrites the file when `UPDATE_GOLDEN=1`.
///
/// # Errors
///
/// Returns a human-readable message when the file is missing, unreadable,
/// unwritable, or differs from the computed snapshot. The mismatch
/// message names the first differing line and the regeneration command.
pub fn verify(name: &str, snapshot: &Json) -> Result<GoldenStatus, String> {
    let path = dir().join(format!("{name}.json"));
    let rendered = snapshot.render_pretty();
    if update_requested() {
        if let Some(parent) = path.parent() {
            fs::create_dir_all(parent)
                .map_err(|e| format!("golden '{name}': cannot create {}: {e}", parent.display()))?;
        }
        fs::write(&path, &rendered)
            .map_err(|e| format!("golden '{name}': cannot write {}: {e}", path.display()))?;
        return Ok(GoldenStatus::Updated);
    }
    let committed = fs::read_to_string(&path).map_err(|e| {
        format!(
            "golden '{name}': cannot read {} ({e}); run `UPDATE_GOLDEN=1 cargo test` \
             to generate it",
            path.display()
        )
    })?;
    if committed == rendered {
        return Ok(GoldenStatus::Matched);
    }
    let diff_line = committed
        .lines()
        .zip(rendered.lines())
        .position(|(a, b)| a != b)
        .map_or_else(
            || committed.lines().count().min(rendered.lines().count()) + 1,
            |i| i + 1,
        );
    Err(format!(
        "golden '{name}' differs from {} starting at line {diff_line}:\n  committed: {}\n  \
         computed:  {}\nIf the change is intentional, regenerate with `UPDATE_GOLDEN=1 cargo \
         test` and commit the diff.",
        path.display(),
        committed.lines().nth(diff_line - 1).unwrap_or("<eof>"),
        rendered.lines().nth(diff_line - 1).unwrap_or("<eof>"),
    ))
}

/// The `"rows"` array of a snapshot (the per-cell table every sweep-style
/// snapshot carries), keyed by each row's `"key"` field.
fn rows_of<'a>(json: &'a Json, what: &str) -> Result<Vec<(&'a str, &'a Json)>, String> {
    let Json::Obj(fields) = json else {
        return Err(format!("{what}: snapshot is not an object"));
    };
    let rows = match fields.iter().find(|(k, _)| k == "rows") {
        Some((_, Json::Arr(rows))) => rows,
        Some(_) => return Err(format!("{what}: 'rows' is not an array")),
        None => return Err(format!("{what}: snapshot has no 'rows' array")),
    };
    rows.iter()
        .map(|row| {
            let Json::Obj(fields) = row else {
                return Err(format!("{what}: row is not an object"));
            };
            match fields.iter().find(|(k, _)| k == "key") {
                Some((_, Json::Str(key))) => Ok((key.as_str(), row)),
                _ => Err(format!("{what}: row has no string 'key' field")),
            }
        })
        .collect()
}

/// [`verify`], degraded to surviving rows: rows named in `skipped`
/// (quarantined cells of a crash-safe sweep) are exempt from comparison,
/// every other row must match the committed snapshot exactly.
///
/// With an empty `skipped` this is plain [`verify`] — byte-for-byte,
/// including the header counters. With quarantined cells the committed
/// file is parsed with the canonical [`Json::parse`] and compared row by
/// row, so one poisoned cell degrades the check instead of voiding it.
///
/// # Errors
///
/// Returns a message when the committed snapshot is missing or
/// unparseable, when a surviving row differs, when a row exists on only
/// one side, or when `UPDATE_GOLDEN=1` is set (a degraded run must never
/// overwrite the golden).
pub fn verify_surviving(
    name: &str,
    snapshot: &Json,
    skipped: &[String],
) -> Result<GoldenStatus, String> {
    if skipped.is_empty() {
        return verify(name, snapshot);
    }
    if update_requested() {
        return Err(format!(
            "golden '{name}': refusing UPDATE_GOLDEN=1 with {} quarantined row(s); \
             fix or rerun the quarantined cells first",
            skipped.len()
        ));
    }
    let path = dir().join(format!("{name}.json"));
    let committed_text = fs::read_to_string(&path).map_err(|e| {
        format!(
            "golden '{name}': cannot read {} ({e}); run `UPDATE_GOLDEN=1 cargo test` \
             to generate it",
            path.display()
        )
    })?;
    let committed = Json::parse(&committed_text)
        .map_err(|e| format!("golden '{name}': committed snapshot is unparseable: {e}"))?;
    let committed_rows = rows_of(&committed, "committed")?;
    let computed_rows = rows_of(snapshot, "computed")?;
    let committed_keys: Vec<&str> = committed_rows.iter().map(|(k, _)| *k).collect();
    let computed_keys: Vec<&str> = computed_rows.iter().map(|(k, _)| *k).collect();
    if committed_keys != computed_keys {
        return Err(format!(
            "golden '{name}': row sets differ (committed {} rows, computed {} rows); \
             the matrix shape changed — regenerate the snapshot",
            committed_keys.len(),
            computed_keys.len()
        ));
    }
    for ((key, want), (_, got)) in committed_rows.iter().zip(computed_rows) {
        if skipped.iter().any(|s| s == key) {
            continue;
        }
        if *want != got {
            return Err(format!(
                "golden '{name}': surviving row '{key}' differs:\n  committed: {}\n  \
                 computed:  {}",
                want.render(),
                got.render()
            ));
        }
    }
    Ok(GoldenStatus::Matched)
}

/// The golden snapshot of a simulated experiment, in the shape
/// [`structure_problems`] checks: `experiment`, the run's `accesses` and
/// `seed`, the `header` fields in order, then `rows`.
pub fn snapshot<'a>(
    experiment: &str,
    cfg: &RunConfig,
    header: impl IntoIterator<Item = (&'a str, Json)>,
    rows: impl IntoIterator<Item = Json>,
) -> Json {
    let mut fields = vec![
        ("experiment", Json::str(experiment)),
        ("accesses", Json::uint(cfg.accesses)),
        ("seed", Json::uint(cfg.seed)),
    ];
    fields.extend(header);
    fields.push(("rows", Json::arr(rows)));
    Json::obj(fields)
}

/// The problems with the structure of a committed golden, `text` read
/// from `tests/golden/<stem>.json`: its `experiment` must name the file,
/// and the `rows`, `seed` and `accesses` a snapshot carries must pin
/// something and describe a run that could happen. Empty when well formed.
pub fn structure_problems(stem: &str, text: &str) -> Vec<String> {
    let fields = match Json::parse(text) {
        Ok(Json::Obj(fields)) => fields,
        Ok(_) => return vec!["not a JSON object".to_owned()],
        Err(e) => return vec![format!("not valid JSON: {e}")],
    };
    let field = |key: &str| fields.iter().find(|(k, _)| k == key).map(|(_, v)| v);
    let mut problems = Vec::new();
    match field("experiment") {
        Some(Json::Str(name)) if name == stem => {}
        other => problems.push(format!("`experiment` is {other:?}, not \"{stem}\"")),
    }
    match field("rows") {
        None => {}
        Some(Json::Arr(rows)) if !rows.is_empty() => {}
        Some(other) => problems.push(format!("`rows` must be a non-empty array, not {other:?}")),
    }
    match field("seed") {
        None | Some(Json::Uint(_)) => {}
        Some(other) => problems.push(format!(
            "`seed` must be a non-negative integer, not {other:?}"
        )),
    }
    match field("accesses") {
        None => {}
        Some(Json::Uint(n)) if *n > 0 => {}
        Some(other) => problems.push(format!(
            "`accesses` must be a positive integer, not {other:?}"
        )),
    }
    problems
}

/// [`verify`] that panics on error — the form used by golden tests.
///
/// # Panics
///
/// Panics with the [`verify`] error message on any mismatch or IO error.
#[expect(
    clippy::panic,
    reason = "a golden-snapshot mismatch must abort the test harness with the rendered diff; panicking is the reporting mechanism, not an error path"
)]
pub fn assert_matches(name: &str, snapshot: &Json) {
    if let Err(msg) = verify(name, snapshot) {
        panic!("{msg}");
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Serializes the tests that point `LDIS_GOLDEN_DIR` at a temp dir;
    /// the var is process-global and the harness runs tests in parallel.
    #[expect(
        clippy::disallowed_types,
        reason = "test-only: serializes the harness's writes to a process-global env var; no simulator state is behind it"
    )]
    static ENV_LOCK: std::sync::Mutex<()> = std::sync::Mutex::new(());

    #[test]
    fn golden_config_is_quick() {
        assert_eq!(golden_config(), RunConfig::quick());
    }

    #[test]
    fn the_writer_writes_what_the_validator_accepts() {
        let cfg = RunConfig::quick();
        let row = || Json::obj([("benchmark", Json::str("art"))]);
        let sizes = ("sizes_kb", Json::arr([Json::uint(768), Json::uint(1024)]));
        let plain = snapshot("plain", &cfg, [], [row()]);
        let sized = snapshot("sized", &cfg, [sizes], [row(), row()]);
        for (stem, doc) in [("plain", &plain), ("sized", &sized)] {
            let problems = structure_problems(stem, &doc.render_pretty());
            assert_eq!(problems, Vec::<String>::new(), "{stem}");
        }
        let Json::Obj(fields) = &sized else {
            panic!("a snapshot is an object");
        };
        let keys: Vec<&str> = fields.iter().map(|(k, _)| k.as_str()).collect();
        assert_eq!(keys, ["experiment", "accesses", "seed", "sizes_kb", "rows"]);
        let empty = snapshot("empty", &cfg, [], []).render_pretty();
        let problems = structure_problems("empty", &empty);
        assert!(
            matches!(problems.as_slice(), [p] if p.starts_with("`rows`")),
            "{problems:?}"
        );
    }

    #[test]
    fn default_dir_points_at_repo_root_tests() {
        // Sibling tests may set LDIS_GOLDEN_DIR; compute the default
        // directly to stay independent of env ordering.
        let d = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../../tests/golden");
        assert!(d.ends_with("tests/golden"));
    }

    #[test]
    fn verify_surviving_skips_exactly_the_quarantined_rows() {
        if update_requested() {
            return;
        }
        let _env = ENV_LOCK.lock().unwrap_or_else(|p| p.into_inner());
        let tmp = std::env::temp_dir().join("ldis-golden-surviving");
        fs::create_dir_all(&tmp).unwrap();
        let row = |key: &str, fields: Json| match fields {
            Json::Obj(mut f) => {
                f.insert(0, ("key".to_owned(), Json::str(key)));
                Json::Obj(f)
            }
            other => other,
        };
        let committed = Json::obj([
            ("cells", Json::uint(2)),
            ("quarantined", Json::uint(0)),
            (
                "rows",
                Json::arr([
                    row("art/baseline", Json::obj([("mpki", Json::num(38.25))])),
                    row("mcf/baseline", Json::obj([("mpki", Json::num(120.5))])),
                ]),
            ),
        ]);
        fs::write(tmp.join("unit_surviving.json"), committed.render_pretty()).unwrap();
        std::env::set_var("LDIS_GOLDEN_DIR", &tmp);
        // One quarantined row, surviving row intact: passes.
        let degraded = Json::obj([
            ("cells", Json::uint(2)),
            ("quarantined", Json::uint(1)),
            (
                "rows",
                Json::arr([
                    row(
                        "art/baseline",
                        Json::obj([("quarantined", Json::str("hung"))]),
                    ),
                    row("mcf/baseline", Json::obj([("mpki", Json::num(120.5))])),
                ]),
            ),
        ]);
        let skipped = vec!["art/baseline".to_owned()];
        let ok = verify_surviving("unit_surviving", &degraded, &skipped);
        assert_eq!(ok, Ok(GoldenStatus::Matched), "{ok:?}");
        // A differing *surviving* row still fails.
        let drifted = Json::obj([
            ("cells", Json::uint(2)),
            ("quarantined", Json::uint(1)),
            (
                "rows",
                Json::arr([
                    row(
                        "art/baseline",
                        Json::obj([("quarantined", Json::str("hung"))]),
                    ),
                    row("mcf/baseline", Json::obj([("mpki", Json::num(999.0))])),
                ]),
            ),
        ]);
        let err = verify_surviving("unit_surviving", &drifted, &skipped).unwrap_err();
        std::env::remove_var("LDIS_GOLDEN_DIR");
        assert!(err.contains("mcf/baseline"), "{err}");
    }

    #[test]
    fn mismatch_error_names_line_and_remedy() {
        if update_requested() {
            // Regeneration runs exercise the update path instead.
            return;
        }
        let _env = ENV_LOCK.lock().unwrap_or_else(|p| p.into_inner());
        let tmp = std::env::temp_dir().join("ldis-golden-unit");
        fs::create_dir_all(&tmp).unwrap();
        fs::write(tmp.join("unit_mismatch.json"), "{\n  \"v\": 1\n}\n").unwrap();
        // Point verify at the temp dir just for this check.
        std::env::set_var("LDIS_GOLDEN_DIR", &tmp);
        let err = verify("unit_mismatch", &Json::obj([("v", Json::uint(2))])).unwrap_err();
        std::env::remove_var("LDIS_GOLDEN_DIR");
        assert!(err.contains("line 2"), "{err}");
        assert!(err.contains("UPDATE_GOLDEN=1"), "{err}");
    }
}
