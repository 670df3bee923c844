//! Executes the declarative fault-campaign matrix and gates each run.
//!
//! ```text
//! scenario_runner --all [--log2-n K] [--seed S] [--obs DIR] [--tighten F]
//!                 [--live[=ADDR]] [--alerts-fatal] [--alert-stall-window R]
//! scenario_runner <name>... [same flags]
//! scenario_runner --list
//! ```
//!
//! The pass/fail report on stdout is deterministic for a given
//! `(scenarios, n, seed)` — wall-clock timing goes only to stderr.
//! Exits nonzero when any gate fails.
//!
//! `--live` serves each run's `/metrics`, `/status`, and `/healthz` on
//! a loopback listener and arms the default online monitors;
//! `--alert-stall-window R` tightens the stall monitor to `R` rounds,
//! and `--alerts-fatal` turns any fired alert into a nonzero exit
//! (the alerts also land as `alert` records in the `--obs`
//! archive either way).

use rd_core::runner::{AlertLog, AlertRule, LiveSpec};
use rd_scenarios::{library, render_report, select, Scenario, ScenarioOutcome};
use std::path::PathBuf;
use std::time::Instant;

struct Options {
    all: bool,
    list: bool,
    names: Vec<String>,
    log2_n: u32,
    seed: u64,
    obs: Option<PathBuf>,
    tighten: Option<f64>,
    /// `Some(None)` = `--live` on an ephemeral port, `Some(Some(a))` =
    /// `--live=a`.
    live: Option<Option<String>>,
    alerts_fatal: bool,
    alert_stall_window: Option<u64>,
}

fn parse_args() -> Result<Options, String> {
    let mut opts = Options {
        all: false,
        list: false,
        names: Vec::new(),
        log2_n: 10,
        seed: 42,
        obs: None,
        tighten: None,
        live: None,
        alerts_fatal: false,
        alert_stall_window: None,
    };
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        let mut value = |flag: &str| args.next().ok_or_else(|| format!("{flag} needs a value"));
        match arg.as_str() {
            "--all" => opts.all = true,
            "--list" => opts.list = true,
            "--log2-n" => {
                opts.log2_n = value("--log2-n")?
                    .parse()
                    .map_err(|e| format!("--log2-n: {e}"))?
            }
            "--seed" => {
                opts.seed = value("--seed")?
                    .parse()
                    .map_err(|e| format!("--seed: {e}"))?
            }
            "--obs" => opts.obs = Some(PathBuf::from(value("--obs")?)),
            "--live" => opts.live = Some(None),
            "--alerts-fatal" => opts.alerts_fatal = true,
            "--alert-stall-window" => {
                let window: u64 = value("--alert-stall-window")?
                    .parse()
                    .map_err(|e| format!("--alert-stall-window: {e}"))?;
                if window == 0 {
                    return Err("--alert-stall-window needs a positive round count".into());
                }
                opts.alert_stall_window = Some(window);
            }
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
                     [--log2-n K] [--seed S] [--obs DIR] [--tighten F] \
                     [--live[=ADDR]] [--alerts-fatal] [--alert-stall-window R]"
                );
                std::process::exit(0);
            }
            name if !name.starts_with('-') => opts.names.push(name.to_string()),
            other if other.starts_with("--live=") => {
                opts.live = Some(Some(other["--live=".len()..].to_string()));
            }
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
    let n = 1usize << opts.log2_n;

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
    let mut alerts_fired: usize = 0;
    for scenario in &scenarios {
        for kind in &scenario.algorithms {
            let started = Instant::now();
            let mut config = scenario.run_config(opts.obs.as_deref(), kind);
            // `--live` gets a fresh alert log per run so the fatal gate
            // and the stderr drain below attribute alerts to the run
            // that fired them.
            let alert_log = opts.live.as_ref().map(|addr| {
                let log = AlertLog::new();
                let mut rules = AlertRule::defaults();
                if let Some(window) = opts.alert_stall_window {
                    for rule in &mut rules {
                        if let AlertRule::Stall { window: w } = rule {
                            *w = window;
                        }
                    }
                }
                let mut live = LiveSpec::new().with_rules(rules).with_log(log.clone());
                if let Some(addr) = addr {
                    live = live.with_addr(addr);
                }
                config.obs = Some(config.obs.take().unwrap_or_default().with_live(live));
                log
            });
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
            if let Some(log) = alert_log {
                for alert in log.snapshot() {
                    alerts_fired += 1;
                    eprintln!(
                        "alert: {}/{} {} at round {}: {}",
                        scenario.name, report.algorithm, alert.rule, alert.round, alert.message
                    );
                }
            }
            outcomes.push(report);
        }
    }

    print!("{}", render_report(&outcomes));

    if opts.alerts_fatal && alerts_fired > 0 {
        eprintln!("scenario_runner: --alerts-fatal: {alerts_fired} alert(s) fired");
        std::process::exit(1);
    }
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
