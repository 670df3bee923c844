//! The repository's benchmark: time to verified convergence for the real
//! algorithms, end to end and layer by layer. See `README.md` beside
//! this package and `BENCHMARK.json` at the repository root.

mod bench;
mod host;
mod probe;
mod report;
mod spans;
mod spec;
mod staged;
mod stats;
mod workloads;

use host::HostFacts;
use resource_discovery::obs::json::Json;
use spec::Spec;
use std::io::{BufRead, BufReader};
use std::path::{Path, PathBuf};
use std::process::{Command, ExitCode, Stdio};
use workloads::{Workload, DEFAULT_SEED};

const USAGE: &str = "\
usage: rd-benchmark [--workload NAME] [--seed S] [--seconds T]
                    [--trace 0|1 | --no-trace | --repeat-check]

With --trace, runs one workload in this process: 0 times the end-to-end
reps, 1 runs the traced pass; the last line of output is the result as
one JSON object. Without it, runs every workload (or the one named) in
a child process each, end to end and then traced; --no-trace skips the
traced pass, and --repeat-check runs the end-to-end part twice and
compares the two values of each metric with the bounds of BENCHMARK.json.";

#[derive(Debug, PartialEq)]
struct Args {
    workload: Option<String>,
    seed: u64,
    seconds: f64,
    /// `Some` selects child mode.
    trace: Option<bool>,
    no_trace: bool,
    repeat_check: bool,
}

fn parse_args(args: &[String], spec: &Spec) -> Result<Args, String> {
    let mut parsed = Args {
        workload: None,
        seed: DEFAULT_SEED,
        seconds: spec.run_seconds as f64,
        trace: None,
        no_trace: false,
        repeat_check: false,
    };
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let mut value = || {
            it.next()
                .ok_or_else(|| format!("{flag} needs a value"))
                .map(String::as_str)
        };
        match flag.as_str() {
            "--workload" => {
                let name = value()?;
                if Workload::by_name(name).is_none() {
                    return Err(format!(
                        "unknown workload {name:?}; the workloads are {:?}",
                        spec.workloads
                    ));
                }
                parsed.workload = Some(name.to_string());
            }
            "--seed" => {
                parsed.seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?;
            }
            "--seconds" => {
                let seconds: f64 = value()?.parse().map_err(|e| format!("--seconds: {e}"))?;
                if !(seconds.is_finite() && seconds >= 0.0) {
                    return Err("--seconds must be a non-negative number".into());
                }
                parsed.seconds = seconds;
            }
            "--trace" => {
                parsed.trace = Some(match value()? {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not {other:?}")),
                });
            }
            "--no-trace" => parsed.no_trace = true,
            "--repeat-check" => parsed.repeat_check = true,
            other => return Err(format!("unknown argument {other:?}")),
        }
    }
    if parsed.trace.is_some() {
        if parsed.workload.is_none() {
            return Err("--trace needs --workload".into());
        }
        if parsed.no_trace || parsed.repeat_check {
            return Err("--trace excludes --no-trace and --repeat-check".into());
        }
    }
    Ok(parsed)
}

/// Where results go: `out/` inside the benchmark's own directory.
fn out_dir() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("out")
}

fn main() -> ExitCode {
    let spec = Spec::load();
    let args: Vec<String> = std::env::args().skip(1).collect();
    let args = match parse_args(&args, &spec) {
        Ok(args) => args,
        Err(err) => {
            eprintln!("{err}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let result = match args.trace {
        Some(traced) => child(&spec, &args, traced),
        None => parent(&spec, &args),
    };
    match result {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::from(1),
        Err(err) => {
            eprintln!("error: {err}");
            ExitCode::from(2)
        }
    }
}

/// Runs one workload in this process and prints its result. `Ok(false)`
/// means it ran but a correctness check failed.
fn child(spec: &Spec, args: &Args, traced: bool) -> Result<bool, String> {
    let name = args.workload.as_deref().expect("checked by parse_args");
    let workload = Workload::by_name(name).expect("checked by parse_args");
    let out = out_dir();
    std::fs::create_dir_all(&out).map_err(|e| format!("cannot create {}: {e}", out.display()))?;
    let host = HostFacts::gather();

    let (mode, listed, outcome) = if traced {
        let outcome = bench::traced(workload, args.seed, args.seconds, &out)?;
        ("per_layer", &spec.per_layer, outcome)
    } else {
        let outcome = bench::end_to_end(workload, args.seed, args.seconds)?;
        ("end_to_end", &spec.end_to_end, outcome)
    };
    let line = report::result_line(&outcome, listed)?;

    println!(
        "== {name} · {mode} · seed {} · {} s ==",
        args.seed, args.seconds
    );
    print!("{}", report::table(&outcome, listed));
    let path = out.join(format!("{name}.{mode}.json"));
    let json = report::file_json(name, mode, args.seed, args.seconds, &host, &outcome);
    std::fs::write(&path, json).map_err(|e| format!("cannot write {}: {e}", path.display()))?;
    println!("  written: {}", path.display());
    println!("{line}");
    Ok(outcome.failed == 0)
}

/// The result line of one child run, parsed back.
struct ChildResult {
    correct: bool,
    attempted: u64,
    failed: u64,
    metrics: Json,
}

impl ChildResult {
    fn value(&self, metric: &str) -> Option<f64> {
        self.metrics.get(metric)?.get("value")?.as_f64()
    }
}

/// Runs this executable again as one child process for one workload and
/// mode, passing its output through, and waits for it to end.
fn spawn_child(args: &Args, workload: &str, traced: bool) -> Result<ChildResult, String> {
    let exe = std::env::current_exe().map_err(|e| format!("cannot find own executable: {e}"))?;
    let mut child = Command::new(exe)
        .args(["--workload", workload])
        .args(["--seed", &args.seed.to_string()])
        .args(["--seconds", &args.seconds.to_string()])
        .args(["--trace", if traced { "1" } else { "0" }])
        .stdout(Stdio::piped())
        .spawn()
        .map_err(|e| format!("cannot start a child process: {e}"))?;
    let stdout = child.stdout.take().expect("stdout was piped");
    // Everything but the last line is the table; the last is the result,
    // which is for programs.
    let mut last: Option<String> = None;
    for line in BufReader::new(stdout).lines() {
        let line = line.map_err(|e| format!("cannot read the child's output: {e}"))?;
        if let Some(previous) = last.replace(line) {
            println!("{previous}");
        }
    }
    let last = last.unwrap_or_default();
    let status = child
        .wait()
        .map_err(|e| format!("cannot wait for the child: {e}"))?;
    let parsed = Json::parse(&last).map_err(|_| {
        format!("{workload}: the child ended with {status} and no result: {last:?}")
    })?;
    let field = |key: &str| {
        parsed
            .get(key)
            .ok_or_else(|| format!("{workload}: the result has no {key}"))
    };
    Ok(ChildResult {
        correct: field("correct")?.as_bool() == Some(true) && status.success(),
        attempted: field("attempted")?.as_u64().unwrap_or(0),
        failed: field("failed")?.as_u64().unwrap_or(0),
        metrics: field("metrics")?.clone(),
    })
}

/// Runs the selected workloads, one child process per workload and mode,
/// one after another, so that each has the machine and its own peak RSS.
fn parent(spec: &Spec, args: &Args) -> Result<bool, String> {
    let host = HostFacts::gather();
    println!("host: {}", host.to_json());
    println!("seed: {}, {} s per run", args.seed, args.seconds);
    let names: Vec<&str> = match &args.workload {
        Some(name) => vec![name.as_str()],
        None => spec.workloads.iter().map(String::as_str).collect(),
    };
    let mut all_correct = true;
    let mut summary = Vec::new();
    for name in names {
        let mut modes = vec![false];
        if args.repeat_check {
            modes.push(false);
        } else if !args.no_trace {
            modes.push(true);
        }
        let mut results = Vec::new();
        for traced in modes {
            let result = spawn_child(args, name, traced)?;
            all_correct &= result.correct;
            summary.push(format!(
                "{name} {}: correct {}, attempted {}, failed {}",
                if traced { "per_layer" } else { "end_to_end" },
                result.correct,
                result.attempted,
                result.failed
            ));
            results.push(result);
        }
        if args.repeat_check {
            println!("== {name} · repeat check ==");
            for metric in &spec.end_to_end {
                let bound = metric.bound.expect("end-to-end metrics have bounds");
                let value = |r: &ChildResult| {
                    r.value(&metric.name)
                        .ok_or_else(|| format!("{name}: no {} in the result", metric.name))
                };
                let (first, second) = (value(&results[0])?, value(&results[1])?);
                let diff = (second - first) / first;
                let within = diff.abs() <= bound;
                all_correct &= within;
                println!(
                    "  {:<16} {first:>12.5} -> {second:>12.5} {:<4} {:>+7.2} %  bound {:>5.1} %  {}",
                    metric.name,
                    metric.unit,
                    diff * 100.0,
                    bound * 100.0,
                    if within { "ok" } else { "EXCEEDED" }
                );
            }
        }
    }
    println!("== summary ==");
    for line in summary {
        println!("  {line}");
    }
    println!(
        "{}",
        if all_correct {
            "all checks passed"
        } else {
            "FAILED: see above"
        }
    );
    Ok(all_correct)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(list: &[&str]) -> Result<Args, String> {
        let list: Vec<String> = list.iter().map(|s| s.to_string()).collect();
        parse_args(&list, &Spec::load())
    }

    #[test]
    fn the_drivers_command_line_selects_child_mode() {
        let a = args(&[
            "--workload",
            "hm_eke_2p13_seq",
            "--seed",
            "7",
            "--seconds",
            "3",
            "--trace",
            "1",
        ])
        .unwrap();
        assert_eq!(a.workload.as_deref(), Some("hm_eke_2p13_seq"));
        assert_eq!((a.seed, a.seconds, a.trace), (7, 3.0, Some(true)));
    }

    #[test]
    fn defaults_come_from_the_benchmark_file() {
        let a = args(&[]).unwrap();
        assert_eq!(a.seed, DEFAULT_SEED);
        assert_eq!(a.seconds, Spec::load().run_seconds as f64);
        assert_eq!(a.trace, None);
    }

    #[test]
    fn bad_command_lines_are_refused() {
        assert!(args(&["--workload", "nope"]).is_err());
        assert!(args(&["--trace", "1"]).is_err(), "no workload");
        assert!(args(&["--trace", "2", "--workload", "hm_eke_2p13_seq"]).is_err());
        assert!(args(&["--seconds", "-1"]).is_err());
        assert!(args(&["--seed"]).is_err(), "missing value");
        assert!(args(&["--frobnicate"]).is_err());
    }

    #[test]
    fn every_workload_of_the_benchmark_file_exists_and_no_other() {
        let spec = Spec::load();
        for name in &spec.workloads {
            assert!(Workload::by_name(name).is_some(), "{name} is not defined");
        }
        assert_eq!(spec.workloads.len(), workloads::WORKLOADS.len());
    }
}
