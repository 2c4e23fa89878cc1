//! Seeded regressions: inject one defect of each class the workspace's
//! checks exist for, and confirm that the check owning the class still
//! fails the build.
//!
//! Three seeds:
//! (a) a byte address passed where `crates/core` expects a word index
//!     (unit safety): a type error, since `Addr` and `WordIndex` are
//!     distinct types;
//! (b) two fixed random streams given one seed (seed provenance): the
//!     distinctness test over `ldis_mem::rng::STREAM_SEEDS` fails;
//! (c) a lock-order cycle in the experiments executor (lock discipline):
//!     the workspace `clippy.toml` bans `Mutex` and `RwLock`, so clippy's
//!     `disallowed_types` rejects the locks before they can deadlock.
//!
//! Each seed is built with cargo as a throwaway crate under this test's
//! temporary directory, against the workspace crates by path and under
//! the workspace `clippy.toml`. `unseeded_workspace_is_clean` builds the
//! twin of every seed, the same crate without the defect, so each failure
//! below is down to its seed alone.

use line_distillation::experiments::report::Json;
use std::fs;
use std::path::{Path, PathBuf};
use std::process::{Command, Output};

/// Unit safety: the seeded lookup passes the access's byte address as the
/// word index; the twin converts it through the line geometry.
const UNIT_SWAP: &str = "\
use ldis_distill::Woc;
use ldis_mem::{Addr, LineGeometry, SetIndex};

/// Whether the WOC holds the word that `addr` falls in.
pub fn seeded_lookup(woc: &Woc, geometry: &LineGeometry, set: SetIndex, addr: Addr) -> bool {
    let tag = geometry.line_addr(addr).raw();
    woc.contains_word(set, tag, addr)
}
";

/// The unit-safety seed's twin.
fn unit_swap_twin() -> String {
    UNIT_SWAP.replace("tag, addr)", "tag, geometry.word_index(addr))")
}

/// Lock discipline: opposite acquisition orders over two mutexes, which
/// deadlock when two workers run them concurrently.
const LOCK_CYCLE: &str = "\
use std::sync::Mutex;

/// Reads `front`, then `back`.
pub fn seeded_order_fb(front: &Mutex<u64>, back: &Mutex<u64>) -> u64 {
    let f = front.lock().unwrap_or_else(|e| e.into_inner());
    let b = back.lock().unwrap_or_else(|e| e.into_inner());
    *f + *b
}

/// Reads `back`, then `front`.
pub fn seeded_order_bf(front: &Mutex<u64>, back: &Mutex<u64>) -> u64 {
    let b = back.lock().unwrap_or_else(|e| e.into_inner());
    let f = front.lock().unwrap_or_else(|e| e.into_inner());
    *f + *b
}
";

/// The lock seed's twin: the same reads with the values passed in, the
/// way pool jobs share state.
fn lock_cycle_twin() -> String {
    LOCK_CYCLE
        .replace("use std::sync::Mutex;\n\n", "")
        .replace("&Mutex<u64>", "&u64")
        .replace(".lock().unwrap_or_else(|e| e.into_inner())", "")
}

/// The live stream-seed table, with the second entry's seed set to the
/// first's when `collide` is true.
fn stream_table(collide: bool) -> String {
    let src = fs::read_to_string(workspace_root().join("crates/mem/src/rng.rs"))
        .expect("reading crates/mem/src/rng.rs");
    if !collide {
        return src;
    }
    let table = src.find("stream_seeds! {").expect("the stream-seed table");
    let mut seeds = src[table..]
        .lines()
        .filter_map(|line| line.trim().strip_suffix(';')?.split_once(" = "));
    let (_, first) = seeds.next().expect("a first stream seed");
    let (name, second) = seeds.next().expect("a second stream seed");
    let entry = format!("{name} = {second};");
    assert_eq!(src.matches(&entry).count(), 1, "{entry} is ambiguous");
    src.replacen(&entry, &format!("{name} = {first};"), 1)
}

fn workspace_root() -> &'static Path {
    Path::new(env!("CARGO_MANIFEST_DIR"))
}

/// Writes a crate `name` with the given source files, depending on the
/// workspace packages `deps` (package name, directory under `crates/`),
/// and returns its directory.
fn throwaway_crate(name: &str, deps: &[(&str, &str)], files: &[(&str, String)]) -> PathBuf {
    let dir = Path::new(env!("CARGO_TARGET_TMPDIR"))
        .join("seeded")
        .join(name);
    // A leftover from an earlier run is rewritten below.
    let _ = fs::remove_dir_all(&dir);
    fs::create_dir_all(dir.join("src")).expect("creating the crate directory");
    let mut manifest = format!(
        "[package]\nname = \"{name}\"\nversion = \"0.0.0\"\nedition = \"2021\"\n\
         publish = false\n\n[dependencies]\n"
    );
    for (package, path) in deps {
        let path = workspace_root().join("crates").join(path);
        manifest.push_str(&format!("{package} = {{ path = '{}' }}\n", path.display()));
    }
    manifest.push_str("\n[workspace]\n");
    fs::write(dir.join("Cargo.toml"), manifest).expect("writing Cargo.toml");
    for (file, src) in files {
        fs::write(dir.join("src").join(file), src).expect("writing a source file");
    }
    dir
}

/// Runs `cargo <args>` offline in the crate at `dir`, sharing one target
/// directory between seeds and reading lints from the workspace.
fn cargo(dir: &Path, args: &[&str]) -> Output {
    Command::new(env!("CARGO"))
        .arg(args[0])
        .arg("--offline")
        .args(&args[1..])
        .current_dir(dir)
        .env(
            "CARGO_TARGET_DIR",
            Path::new(env!("CARGO_TARGET_TMPDIR")).join("seeded/target"),
        )
        .env("CLIPPY_CONF_DIR", workspace_root())
        .output()
        .expect("running cargo")
}

fn field<'a>(json: &'a Json, key: &str) -> Option<&'a Json> {
    match json {
        Json::Obj(fields) => fields.iter().find(|(k, _)| k == key).map(|(_, v)| v),
        _ => None,
    }
}

/// The codes of the errors `cargo clippy -D warnings` reports for the
/// crate at `dir` (`E0308`, `clippy::disallowed_types`, ...); empty when
/// it builds clean.
fn clippy_errors(dir: &Path) -> Vec<String> {
    let out = cargo(
        dir,
        &[
            "clippy",
            "--quiet",
            "--message-format=json",
            "--",
            "-D",
            "warnings",
        ],
    );
    let errors: Vec<String> = String::from_utf8_lossy(&out.stdout)
        .lines()
        .map(|line| Json::parse(line).expect("cargo prints one JSON message per line"))
        .filter(|msg| matches!(field(msg, "reason"), Some(Json::Str(r)) if r == "compiler-message"))
        .filter_map(|msg| {
            let message = field(&msg, "message")?;
            let Some(Json::Str(level)) = field(message, "level") else {
                return None;
            };
            (level == "error").then(|| {
                match field(message, "code").and_then(|c| field(c, "code")) {
                    Some(Json::Str(code)) => code.clone(),
                    _ => "error".to_owned(),
                }
            })
        })
        .collect();
    assert_eq!(
        out.status.success(),
        errors.is_empty(),
        "cargo clippy in {}: {errors:?}\n{}",
        dir.display(),
        String::from_utf8_lossy(&out.stderr)
    );
    errors
}

/// Runs the stream-seed distinctness test on a copy of the seed table,
/// returning its output, or `None` when it passes.
fn distinctness_failure(name: &str, table: String) -> Option<String> {
    let dir = throwaway_crate(
        name,
        &[],
        &[("lib.rs", "pub mod rng;\n".to_owned()), ("rng.rs", table)],
    );
    let out = cargo(
        &dir,
        &[
            "test",
            "--quiet",
            "--lib",
            "--",
            "--exact",
            "rng::tests::stream_seeds_are_pairwise_distinct",
        ],
    );
    let stdout = String::from_utf8_lossy(&out.stdout).into_owned();
    assert!(
        stdout.contains("1 passed") || stdout.contains("1 failed"),
        "the distinctness test did not run in {}:\n{stdout}\n{}",
        dir.display(),
        String::from_utf8_lossy(&out.stderr)
    );
    (!out.status.success()).then_some(stdout)
}

const CORE: &[(&str, &str)] = &[("ldis-distill", "core"), ("ldis-mem", "mem")];

#[test]
fn unseeded_workspace_is_clean() {
    let unit = throwaway_crate("unit_swap_twin", CORE, &[("lib.rs", unit_swap_twin())]);
    assert_eq!(clippy_errors(&unit), Vec::<String>::new());
    let lock = throwaway_crate("lock_cycle_twin", &[], &[("lib.rs", lock_cycle_twin())]);
    assert_eq!(clippy_errors(&lock), Vec::<String>::new());
    assert_eq!(
        distinctness_failure("stream_table_twin", stream_table(false)),
        None
    );
}

#[test]
fn injected_word_byte_swap_in_core_fails_lint() {
    let dir = throwaway_crate("unit_swap", CORE, &[("lib.rs", UNIT_SWAP.to_owned())]);
    assert_eq!(
        clippy_errors(&dir),
        ["E0308"],
        "seeded unit swap not caught"
    );
}

#[test]
fn injected_salt_collision_in_core_fails_lint() {
    let failure = distinctness_failure("stream_collision", stream_table(true))
        .expect("seeded stream-seed collision not caught");
    assert!(failure.contains("share a seed"), "{failure}");
}

#[test]
fn injected_lock_order_cycle_in_executor_fails_lint() {
    let dir = throwaway_crate("lock_cycle", &[], &[("lib.rs", LOCK_CYCLE.to_owned())]);
    let errors = clippy_errors(&dir);
    assert!(!errors.is_empty(), "seeded lock cycle not caught");
    assert!(
        errors.iter().all(|code| code == "clippy::disallowed_types"),
        "{errors:?}"
    );
}
