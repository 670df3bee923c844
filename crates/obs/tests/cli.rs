//! `rd-inspect` rejects a command line that lacks a subcommand's
//! required arguments with exit code 2 and the usage text — never a
//! panic, whichever argument is missing.

use std::process::Command;

fn exit_code(args: &[&str]) -> (Option<i32>, String) {
    let out = Command::new(env!("CARGO_BIN_EXE_rd-inspect"))
        .args(args)
        .output()
        .expect("rd-inspect runs");
    (
        out.status.code(),
        String::from_utf8_lossy(&out.stderr).into(),
    )
}

#[test]
fn missing_arguments_are_usage_errors() {
    for args in [
        &[][..],
        &["bogus"],
        &["summarize"],
        &["summarize", "--strict"],
        &["diff"],
        &["diff", "a.jsonl"],
        &["validate"],
        &["profile"],
        &["flame"],
        &["why"],
        &["path"],
        &["path", "a.jsonl"],
        &["path", "a.jsonl", "--from", "1"],
        &["path", "a.jsonl", "--to", "2"],
        &["path", "a.jsonl", "--from", "x", "--to", "2"],
    ] {
        let (code, stderr) = exit_code(args);
        assert_eq!(code, Some(2), "rd-inspect {args:?}: {stderr}");
        assert!(
            stderr.starts_with("usage:"),
            "rd-inspect {args:?}: {stderr}"
        );
    }
}
