//! The `ldis-experiments` command line, run as a built binary on
//! `table3`, which simulates nothing.

use std::process::{Command, Output};

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
}

#[test]
fn zero_accesses_are_refused() {
    let out = experiments(&["table3", "--accesses", "0"]);
    assert_eq!(out.status.code(), Some(2), "{out:?}");
    assert!(out.stdout.is_empty(), "{out:?}");
    assert!(String::from_utf8_lossy(&out.stderr).starts_with("usage:"));
}
