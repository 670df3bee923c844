//! Executes the declarative fault-campaign matrix and gates each run.
//!
//! ```text
//! scenario_runner --all [--log2-n K] [--seed S] [--obs DIR] [--tighten F]
//! scenario_runner <name>... [same flags]
//! scenario_runner --list
//! ```
//!
//! The pass/fail report on stdout is deterministic for a given
//! `(scenarios, n, seed)` — wall-clock timing goes only to stderr.
//! Exits 1 when any gate fails, 2 on a usage error (`--log2-n` must
//! give 16 <= n <= 2^32: the campaigns crash and partition fixed
//! fractions of the population, and node ids are 32-bit).

use rd_scenarios::{library, render_report, select, Scenario, ScenarioOutcome};
use std::path::PathBuf;
use std::time::Instant;

struct Options {
    all: bool,
    list: bool,
    names: Vec<String>,
    /// Nodes per run, `2^K` for `--log2-n K`.
    n: usize,
    seed: u64,
    obs: Option<PathBuf>,
    tighten: Option<f64>,
}

fn parse_args() -> Result<Options, String> {
    let mut opts = Options {
        all: false,
        list: false,
        names: Vec::new(),
        n: 1 << 10,
        seed: 42,
        obs: None,
        tighten: None,
    };
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        let mut value = |flag: &str| args.next().ok_or_else(|| format!("{flag} needs a value"));
        match arg.as_str() {
            "--all" => opts.all = true,
            "--list" => opts.list = true,
            "--log2-n" => {
                let k: u32 = value("--log2-n")?
                    .parse()
                    .map_err(|e| format!("--log2-n: {e}"))?;
                opts.n = 1usize
                    .checked_shl(k)
                    .filter(|&n| n >= 16 && u32::try_from(n - 1).is_ok())
                    .ok_or_else(|| format!("--log2-n {k}: need 4 <= K <= 32"))?;
            }
            "--seed" => {
                opts.seed = value("--seed")?
                    .parse()
                    .map_err(|e| format!("--seed: {e}"))?
            }
            "--obs" => opts.obs = Some(PathBuf::from(value("--obs")?)),
            "--tighten" => {
                let f: f64 = value("--tighten")?
                    .parse()
                    .map_err(|e| format!("--tighten: {e}"))?;
                if f <= 0.0 {
                    return Err("--tighten needs a positive factor".into());
                }
                opts.tighten = Some(f);
            }
            "--help" | "-h" => {
                println!(
                    "usage: scenario_runner (--all | --list | <name>...) \
                     [--log2-n K] [--seed S] [--obs DIR] [--tighten F]"
                );
                std::process::exit(0);
            }
            name if !name.starts_with('-') => opts.names.push(name.to_string()),
            other => return Err(format!("unknown flag {other}")),
        }
    }
    if !opts.list && !opts.all && opts.names.is_empty() {
        return Err("pick scenarios by name, or --all, or --list".into());
    }
    Ok(opts)
}

fn main() {
    let opts = match parse_args() {
        Ok(opts) => opts,
        Err(err) => {
            eprintln!("scenario_runner: {err}");
            std::process::exit(2);
        }
    };
    let n = opts.n;

    if opts.list {
        for s in library(n, opts.seed) {
            println!("{:<24} {}", s.name, s.summary);
        }
        return;
    }

    let mut scenarios: Vec<Scenario> = if opts.all {
        library(n, opts.seed)
    } else {
        match select(n, opts.seed, &opts.names) {
            Ok(scenarios) => scenarios,
            Err(err) => {
                eprintln!("scenario_runner: {err}");
                std::process::exit(2);
            }
        }
    };
    if let Some(factor) = opts.tighten {
        for s in &mut scenarios {
            s.thresholds.tighten(factor);
        }
    }
    if let Some(dir) = &opts.obs {
        if let Err(err) = std::fs::create_dir_all(dir) {
            eprintln!("scenario_runner: cannot create {}: {err}", dir.display());
            std::process::exit(2);
        }
    }

    let mut outcomes: Vec<ScenarioOutcome> = Vec::new();
    for scenario in &scenarios {
        for kind in &scenario.algorithms {
            let started = Instant::now();
            let config = scenario.run_config(opts.obs.as_deref(), kind);
            let report = rd_scenarios::gate(
                scenario,
                resource_run(*kind, &config),
                opts.obs
                    .as_ref()
                    .map(|dir| dir.join(format!("{}-{}.jsonl", scenario.name, kind.name()))),
            );
            let wall = started.elapsed().as_secs_f64();
            eprintln!(
                "timing: {}/{} {:.3}s",
                scenario.name, report.algorithm, wall
            );
            outcomes.push(report);
        }
    }

    print!("{}", render_report(&outcomes));

    if outcomes.iter().any(|o| !o.passed()) {
        std::process::exit(1);
    }
}

/// Runs one algorithm on one config (thin indirection so the timing
/// wraps exactly the run, not the gating).
fn resource_run(
    kind: rd_core::runner::AlgorithmKind,
    config: &rd_core::runner::RunConfig,
) -> rd_core::runner::RunReport {
    rd_core::runner::run(kind, config)
}
