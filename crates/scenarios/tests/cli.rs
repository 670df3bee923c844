//! `scenario_runner` rejects command-line input it cannot run with exit
//! code 2 and a message, before any campaign starts.

use std::process::Command;

fn run(args: &[&str]) -> (Option<i32>, String) {
    let out = Command::new(env!("CARGO_BIN_EXE_scenario_runner"))
        .args(args)
        .output()
        .expect("scenario_runner runs");
    (
        out.status.code(),
        String::from_utf8_lossy(&out.stderr).into(),
    )
}

#[test]
fn out_of_range_sizes_are_usage_errors() {
    // 2^0 and 2^3 are below the campaigns' 16-node floor; 2^33 has ids
    // past u32; 2^64 and beyond do not fit a shift of `usize` at all
    // (2^99 must not wrap to 2^35).
    for k in ["0", "3", "33", "64", "99", "-1", "ten"] {
        let (code, stderr) = run(&["--list", "--log2-n", k]);
        assert_eq!(code, Some(2), "--log2-n {k}: {stderr}");
        assert!(stderr.contains("--log2-n"), "--log2-n {k}: {stderr}");
    }
}

#[test]
fn the_smallest_size_is_accepted() {
    let (code, stderr) = run(&["--list", "--log2-n", "4"]);
    assert_eq!(code, Some(0), "{stderr}");
}

#[test]
fn unknown_flags_are_usage_errors() {
    let (code, stderr) = run(&["--all", "--bogus"]);
    assert_eq!(code, Some(2), "{stderr}");
    assert!(stderr.contains("unknown flag --bogus"), "{stderr}");
}
