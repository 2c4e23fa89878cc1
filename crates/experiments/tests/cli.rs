//! The `ldis-experiments` and `ldis-trace` command lines, run as built
//! binaries; `ldis-experiments` mostly on `table3`, which simulates
//! nothing.

use std::path::PathBuf;
use std::process::{Command, Output, Stdio};

fn experiments(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_ldis-experiments"))
        .args(args)
        .output()
        .expect("the ldis-experiments binary starts")
}

fn header(args: &[&str]) -> String {
    let out = experiments(args);
    assert!(out.status.success(), "{args:?}: {out:?}");
    let stdout = String::from_utf8(out.stdout).expect("stdout is UTF-8");
    stdout.lines().next().unwrap_or_default().to_owned()
}

#[test]
fn quick_keeps_the_flags_given_before_it() {
    let before = header(&["table3", "--seed", "7", "--warmup", "5000", "--quick"]);
    let after = header(&["table3", "--quick", "--seed", "7", "--warmup", "5000"]);
    assert_eq!(before, after);
    assert!(
        after.contains("150000 accesses per run, seed 7,"),
        "{after}"
    );
    assert!(after.contains("warmup 5000"), "{after}");
}

#[test]
fn zero_accesses_are_refused() {
    let out = experiments(&["table3", "--accesses", "0"]);
    assert_eq!(out.status.code(), Some(2), "{out:?}");
    assert!(out.stdout.is_empty(), "{out:?}");
    assert!(String::from_utf8_lossy(&out.stderr).starts_with("usage:"));
}

/// Exit code 2 with the usage on stderr, and nothing on stdout.
fn assert_usage(out: &Output) {
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(2), "{out:?}");
    assert!(out.stdout.is_empty(), "{out:?}");
    assert!(stderr.contains("usage:"), "{stderr}");
}

#[test]
fn sweep_flags_are_refused_outside_sweep() {
    let journal = scratch("table3-journal.jsonl");
    let out = experiments(&[
        "table3",
        "--cell",
        "3",
        "--journal",
        &journal,
        "--fault",
        "1:panic",
    ]);
    assert_usage(&out);
    assert!(!std::path::Path::new(&journal).exists());
    for flag in ["--resume", "--golden-check"] {
        assert_usage(&experiments(&["table3", flag]));
    }
}

#[test]
fn resuming_without_a_journal_is_refused() {
    // With too few accesses for the goldens, a sweep that ran would still
    // exit 0, but quickly.
    assert_usage(&experiments(&["sweep", "--resume", "--accesses", "2000"]));
}

#[test]
fn a_closed_stdout_ends_the_run_quietly() {
    let mut child = Command::new(env!("CARGO_BIN_EXE_ldis-experiments"))
        .args(["fig6", "--accesses", "2000"])
        .stdout(Stdio::piped())
        .stderr(Stdio::piped())
        .spawn()
        .expect("the ldis-experiments binary starts");
    // The header may still fit in the pipe, but the report comes after
    // the simulation, so some write always meets the closed pipe.
    drop(child.stdout.take());
    let out = child
        .wait_with_output()
        .expect("the binary runs to its end");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(0), "{stderr}");
    assert!(!stderr.contains("panicked"), "{stderr}");
}

fn trace_tool(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_ldis-trace"))
        .args(args)
        .output()
        .expect("the ldis-trace binary starts")
}

/// A path of this test target's scratch directory.
fn scratch(name: &str) -> String {
    let path: PathBuf = [env!("CARGO_TARGET_TMPDIR"), name].iter().collect();
    path.to_str().expect("the scratch path is UTF-8").to_owned()
}

/// Exit code 1 with `message` on stderr, and no panic.
fn assert_refused(out: &Output, message: &str) {
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(1), "{stderr}");
    assert!(stderr.contains(message), "{stderr}");
    assert!(!stderr.contains("panicked"), "{stderr}");
}

#[test]
fn a_closed_stdout_ends_a_trace_replay_quietly() {
    let path = scratch("replay-closed-stdout.ldt");
    let out = trace_tool(&["record", "mcf", &path, "--accesses", "100000"]);
    assert!(out.status.success(), "{out:?}");
    let mut child = Command::new(env!("CARGO_BIN_EXE_ldis-trace"))
        .args(["replay", &path, "--l2", "baseline"])
        .stdout(Stdio::piped())
        .stderr(Stdio::piped())
        .spawn()
        .expect("the ldis-trace binary starts");
    // The report comes after the replay, so it meets the closed pipe.
    drop(child.stdout.take());
    let out = child
        .wait_with_output()
        .expect("the binary runs to its end");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(0), "{stderr}");
    assert!(!stderr.contains("panicked"), "{stderr}");
}

#[test]
fn recording_to_an_uncreatable_path_is_refused() {
    let path = scratch("no-such-directory/x.ldt");
    let out = trace_tool(&["record", "mcf", &path, "--accesses", "1000"]);
    assert_refused(&out, &format!("cannot create {path}: "));
}

#[cfg(target_os = "linux")]
#[test]
fn recording_to_a_full_device_is_refused() {
    // 300 accesses fit in the write buffer, so only its flush fails.
    for accesses in ["300", "1000"] {
        let out = trace_tool(&["record", "mcf", "/dev/full", "--accesses", accesses]);
        assert_refused(&out, "cannot write /dev/full: ");
    }
}

#[test]
fn bad_trace_arguments_are_refused() {
    let trace = scratch("bad-arguments.ldt");
    let out = trace_tool(&["record", "mcf", &trace, "--accesses", "1000"]);
    assert!(out.status.success(), "{out:?}");
    let unwritten = scratch("never-written.ldt");
    let cases: [&[&str]; 8] = [
        &["record", "mcf", &unwritten, "--accesses"],
        &["record", "mcf", &unwritten, "--acesses", "1000"],
        &["record", "mcf", &unwritten, "--accesses", "0"],
        &["record", "mcf", &unwritten, "extra", "--accesses", "1000"],
        &["record", "mcf"],
        &["info", &trace, "extra"],
        &["replay", &trace, "--l2"],
        &["replay", &trace, "--l3", "baseline"],
    ];
    for args in cases {
        let out = trace_tool(args);
        assert_eq!(out.status.code(), Some(2), "{args:?}: {out:?}");
        assert!(out.stdout.is_empty(), "{args:?}: {out:?}");
        assert!(String::from_utf8_lossy(&out.stderr).starts_with("usage:"));
        assert!(!std::path::Path::new(&unwritten).exists(), "{args:?}");
    }
}
