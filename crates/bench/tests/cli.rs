//! `figures` rejects an unknown flag or figure id with exit code 2 and
//! the usage text, before it prints a header or runs anything.

use std::process::Command;

#[test]
fn unknown_flags_and_ids_are_usage_errors() {
    for args in [
        &["--bogus"][..],
        &["--quick", "--bogus", "t1"],
        &["t99"],
        &["t1", "t99"],
    ] {
        let out = Command::new(env!("CARGO_BIN_EXE_figures"))
            .args(args)
            .output()
            .expect("figures runs");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(2), "figures {args:?}: {stderr}");
        assert!(out.stdout.is_empty(), "figures {args:?} printed to stdout");
        assert!(
            stderr.contains("usage: figures"),
            "figures {args:?}: {stderr}"
        );
    }
}
