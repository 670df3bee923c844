//! rd-inspect: summarize, diff, validate, and explain JSONL run
//! archives.
//!
//! ```text
//! rd-inspect summarize [--strict] <archive.jsonl>
//! rd-inspect diff <a.jsonl> <b.jsonl>
//! rd-inspect validate <archive.jsonl>...
//! rd-inspect profile <archive.jsonl>
//! rd-inspect flame <archive.jsonl>
//! rd-inspect why <archive.jsonl>
//! rd-inspect path <archive.jsonl> --from <id> --to <node>
//! ```
//!
//! Exit codes: 0 on success, 1 when validation finds problems, a file
//! fails to parse, `summarize --strict` sees a truncated causal trace or a
//! profile section whose attribution coverage is below 90%, or
//! `profile`/`flame` run against an un-profiled archive; 2 on usage
//! errors.

use rd_obs::{archive, critical_path, inspect};
use std::process::ExitCode;

/// `--strict` fails profiled archives whose phase spans explain less
/// than this share of round wall time.
const MIN_COVERAGE_PCT: f64 = 90.0;

fn usage() -> ExitCode {
    eprintln!(
        "usage:\n  rd-inspect summarize [--strict] <archive.jsonl>\n  rd-inspect diff <a.jsonl> <b.jsonl>\n  rd-inspect validate <archive.jsonl>...\n  rd-inspect profile <archive.jsonl>\n  rd-inspect flame <archive.jsonl>\n  rd-inspect why <archive.jsonl>\n  rd-inspect path <archive.jsonl> --from <id> --to <node>"
    );
    ExitCode::from(2)
}

fn read(path: &str) -> Result<String, ExitCode> {
    std::fs::read_to_string(path).map_err(|e| {
        eprintln!("rd-inspect: cannot read {path}: {e}");
        ExitCode::from(1)
    })
}

fn parse(path: &str) -> Result<archive::Archive, ExitCode> {
    archive::parse(&read(path)?).map_err(|e| {
        eprintln!("rd-inspect: {path}: {e}");
        ExitCode::from(1)
    })
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match args.first().map(String::as_str) {
        Some("summarize") => {
            let (strict, rest): (bool, &[String]) = match &args[1..] {
                [flag, rest @ ..] if flag == "--strict" => (true, rest),
                rest => (false, rest),
            };
            let [path] = rest else { return usage() };
            match parse(path) {
                Ok(a) => {
                    print!("{}", inspect::summarize(&a));
                    let truncated = a.trace_meta.as_ref().is_some_and(|tm| tm.overflow > 0);
                    // A profiled archive whose spans explain less than
                    // 90% of round wall time is an attribution gap the
                    // profiler exists to close — strict mode treats it
                    // as a failure, like a truncated trace.
                    let uncovered = a
                        .profile
                        .as_ref()
                        .is_some_and(|pm| pm.coverage_pct < MIN_COVERAGE_PCT);
                    if strict && truncated {
                        eprintln!("rd-inspect: --strict: causal trace truncated (see WARN above)");
                        ExitCode::from(1)
                    } else if strict && uncovered {
                        let pct = a.profile.as_ref().map_or(0.0, |pm| pm.coverage_pct);
                        eprintln!(
                            "rd-inspect: --strict: profile attribution covers only {pct:.1}% of round wall time (< {MIN_COVERAGE_PCT}%)"
                        );
                        ExitCode::from(1)
                    } else {
                        ExitCode::SUCCESS
                    }
                }
                Err(code) => code,
            }
        }
        Some(cmd @ ("profile" | "flame")) => {
            let [path] = &args[1..] else { return usage() };
            let render = match cmd {
                "profile" => inspect::profile_report,
                _ => inspect::flame,
            };
            match parse(path) {
                Ok(a) => match render(&a) {
                    Ok(text) => {
                        print!("{text}");
                        ExitCode::SUCCESS
                    }
                    Err(e) => {
                        eprintln!("rd-inspect: {path}: {e}");
                        ExitCode::from(1)
                    }
                },
                Err(code) => code,
            }
        }
        Some("diff") => {
            let [pa, pb] = &args[1..] else { return usage() };
            match (parse(pa), parse(pb)) {
                (Ok(a), Ok(b)) => {
                    print!("{}", inspect::diff(pa, &a, pb, &b));
                    ExitCode::SUCCESS
                }
                (Err(code), _) | (_, Err(code)) => code,
            }
        }
        Some("validate") => {
            if args.len() < 2 {
                return usage();
            }
            let mut failed = false;
            for path in &args[1..] {
                let text = match read(path) {
                    Ok(t) => t,
                    Err(_) => {
                        failed = true;
                        continue;
                    }
                };
                let problems = archive::validate(&text);
                if problems.is_empty() {
                    println!("{path}: ok (schema {})", archive::SCHEMA_VERSION);
                } else {
                    failed = true;
                    println!("{path}: {} problem(s)", problems.len());
                    for p in &problems {
                        println!("  {p}");
                    }
                }
            }
            if failed {
                ExitCode::from(1)
            } else {
                ExitCode::SUCCESS
            }
        }
        Some("why") => {
            let [path] = &args[1..] else { return usage() };
            match parse(path) {
                Ok(a) => {
                    print!("{}", critical_path::why(&a));
                    if a.edges.is_empty() {
                        ExitCode::from(1)
                    } else {
                        ExitCode::SUCCESS
                    }
                }
                Err(code) => code,
            }
        }
        Some("path") => {
            let rest = &args[1..];
            let [path, ..] = rest else { return usage() };
            let lookup = |flag: &str| {
                rest.iter()
                    .position(|a| a == flag)
                    .and_then(|i| rest.get(i + 1))
                    .and_then(|v| v.parse::<u32>().ok())
            };
            let (Some(from), Some(to)) = (lookup("--from"), lookup("--to")) else {
                return usage();
            };
            match parse(path) {
                Ok(a) => {
                    print!("{}", critical_path::path_report(&a, from, to));
                    ExitCode::SUCCESS
                }
                Err(code) => code,
            }
        }
        _ => usage(),
    }
}
