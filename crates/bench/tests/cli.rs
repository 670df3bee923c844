//! `figures` rejects an unknown flag or figure id, and `--trace` or
//! `--profile` without `--obs=DIR`, with exit code 2 and the usage
//! text, before it prints a header or runs anything. Its `--obs=DIR`
//! runs write run archives and nothing else.

use std::process::Command;

#[test]
fn unknown_flags_and_ids_are_usage_errors() {
    for args in [
        &["--bogus"][..],
        &["--quick", "--bogus", "t1"],
        &["t99"],
        &["t1", "t99"],
        &["--quick", "--trace", "t3"],
        &["--quick", "--profile", "t3"],
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

#[test]
fn obs_runs_leave_only_valid_archives() {
    let dir = std::env::temp_dir().join(format!("rd-figures-obs-{}", std::process::id()));
    std::fs::remove_dir_all(&dir).ok();
    let out = Command::new(env!("CARGO_BIN_EXE_figures"))
        .args(["--quick", &format!("--obs={}", dir.display())])
        .output()
        .expect("figures runs");
    assert!(
        out.status.success(),
        "figures --obs: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    let mut names: Vec<String> = std::fs::read_dir(&dir)
        .unwrap()
        .map(|e| e.unwrap().file_name().to_string_lossy().into_owned())
        .collect();
    names.sort();
    assert_eq!(names, ["hm-sequential.jsonl", "hm-sharded4.jsonl"]);
    for name in &names {
        let text = std::fs::read_to_string(dir.join(name)).unwrap();
        let problems = rd_obs::archive::validate(&text);
        assert!(problems.is_empty(), "{name}: {problems:?}");
    }
    std::fs::remove_dir_all(&dir).ok();
}
