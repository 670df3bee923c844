//! Scaling analysis: sweep, fit, and plot — the measurement pipeline in
//! one sitting.
//!
//! Runs a small rounds-vs-n sweep for two algorithms, fits every
//! candidate scaling law, and draws the curves as a terminal plot —
//! exactly what the `figures` harness does, at espresso scale.
//!
//! ```text
//! cargo run --release --example scaling_analysis
//! ```
//!
//! With `--big [log2_n] [workers]` it instead pushes a single HM run to
//! production scale — n = 2²⁰ machines by default — through `run()` on
//! the `rd-exec` sharded engine, with the stderr heartbeat on:
//!
//! ```text
//! cargo run --release --example scaling_analysis -- --big        # n = 2^20
//! cargo run --release --example scaling_analysis -- --big 16 4   # n = 2^16, 4 workers
//! ```
//!
//! The big run uses the classic PODC '99 leader-knows-all completion
//! notion, whose cost stays near-linear. *Everyone-knows-everyone*
//! needs Ω(n²) pointer transfers — 1.1 × 10¹² pointers, terabytes of
//! identifier *traffic*, at n = 2²⁰ — and that part is still true. What
//! is no longer true is that it cannot be held: the final roster is one
//! shared list that its n − 1 receivers adopt by reference, so the run
//! is `completed && sound` in about 3 GiB resident and a few minutes
//! on one core (EXPERIMENTS.md T14), and n = 2¹⁶ takes under 200 MiB
//! (`cargo test --release --test scale_hm_eke -- --ignored`).
//!
//! With `--churn [log2_n] [workers]` it runs the churn demo instead: HM
//! at n = 2¹⁴ (by default) through 1% message drops, a 5% crash wave
//! with half the casualties recovering, and a mid-run network
//! partition, with reliable delivery and the convergence watchdog
//! armed. The fault counters and the retransmission overhead are
//! printed:
//!
//! ```text
//! cargo run --release --example scaling_analysis -- --churn      # n = 2^14
//! cargo run --release --example scaling_analysis -- --churn 12 4
//! ```
//!
//! Either single-run mode also takes `--obs=<dir>` (anywhere on the
//! command line) to write the run's JSONL telemetry archive into that
//! directory — auto-named `scaling-big.jsonl` or `scaling-churn.jsonl`
//! to match `figures --obs=DIR` — and inspect it with `rd-inspect
//! summarize <dir>/scaling-*.jsonl`. The big archive carries a profile
//! section, the churn archive a full-sampling causal trace for
//! `rd-inspect why`. The sweep mode is many runs and takes no archive
//! path.

use resource_discovery::analysis::experiment::{sweep, SweepSpec};
use resource_discovery::analysis::{best_fit, Plot};
use resource_discovery::prelude::*;
use std::path::{Path, PathBuf};
use std::time::Instant;

/// Resolves the unified `--obs=<dir>` value to this mode's archive
/// path — the directory form every other obs-emitting tool uses. The
/// single-file `--obs=<file.jsonl>` form (deprecated with a warning
/// for one release) is now rejected outright.
fn resolve_obs(obs: Option<&str>, auto_name: &str) -> Option<PathBuf> {
    let value = obs?;
    if value.ends_with(".jsonl") {
        eprintln!(
            "error: --obs=<file.jsonl> is no longer supported; pass --obs=<dir> \
             (the archive is auto-named {auto_name} inside it)"
        );
        std::process::exit(2);
    }
    let dir = PathBuf::from(value);
    std::fs::create_dir_all(&dir).expect("create --obs directory");
    Some(dir.join(auto_name))
}

/// One HM run at production scale: leader-knows-all on the sharded
/// engine, the heartbeat on, and the profiled archive when asked for.
fn big_run(log2_n: u32, workers: usize, obs_path: Option<&Path>) {
    let n = 1usize << log2_n;
    println!(
        "big run: HM on a 3-out random overlay, n = 2^{log2_n} = {n}, \
         sharded engine with {workers} workers"
    );
    let mut spec = ObsSpec::new().with_heartbeat();
    if let Some(path) = obs_path {
        spec = spec.with_archive(path).with_profile();
    }
    let config = RunConfig::new(Topology::KOut { k: 3 }, n, 42)
        .with_engine(EngineKind::Sharded { workers })
        .with_completion(Completion::LeaderKnowsAll)
        .with_obs(spec);
    let start = Instant::now();
    let report = run(AlgorithmKind::Hm(HmConfig::default()), &config);
    let elapsed = start.elapsed();
    assert!(report.completed, "HM failed to complete within the budget");
    if let Some(path) = obs_path {
        println!("  wrote run archive to {}", path.display());
    }
    let per_round = elapsed.as_secs_f64() / report.rounds.max(1) as f64;
    println!("\ncompleted (leader knows all) in {} rounds", report.rounds);
    println!(
        "  wall-clock        {elapsed:.1?}  ({:.0} ms/round, instance build included)",
        per_round * 1e3
    );
    println!("  total messages    {}", report.messages);
    println!("  total pointers    {}", report.pointers);
    println!("  max sent per node {}", report.max_sent_messages);
    println!(
        "  rounds vs bounds: log2 n = {log2_n}, log2 log2 n = {:.1}",
        (log2_n as f64).log2()
    );
}

/// The churn demo: HM through drops, a crash/recovery wave, and a
/// mid-run partition, with reliable delivery and the watchdog armed.
fn churn_run(log2_n: u32, workers: usize, obs_path: Option<&Path>) {
    let n = 1usize << log2_n;
    let seed = 42;
    // 5% of the machines crash in a wave over rounds 5..13; the even
    // casualties recover fourteen rounds after going down — past the
    // partition heal at 18, since a recovery inside a partition window
    // that names the node is rejected by `FaultPlan::validate`. Node 0
    // is spared so the count below stays exact.
    let mut faults = FaultPlan::new()
        .with_drop_probability(0.01)
        .with_crash_detection_after(5);
    let stride = 20; // 1/20 = 5%
    let mut crashed = 0u64;
    let mut recovering = 0u64;
    for (i, node) in (0..n).skip(stride / 2).step_by(stride).enumerate() {
        let crash = 5 + (i as u64 % 8);
        faults = faults.with_crash_at(node, crash);
        crashed += 1;
        if i % 2 == 0 {
            faults = faults.with_recovery_at(node, crash + 14);
            recovering += 1;
        }
    }
    // A clean bisection for six rounds in the thick of the crash wave.
    let cut = n / 2;
    faults = faults.with_partition(
        [(0..cut).collect::<Vec<_>>(), (cut..n).collect::<Vec<_>>()],
        12,
        18,
    );
    println!(
        "churn run: HM on a 3-out overlay, n = 2^{log2_n} = {n}, {workers} workers\n\
           1% drops, {crashed} crashes ({recovering} recover), partition rounds 12..18,\n\
           detector delay 5, reliable delivery, watchdog window 200"
    );

    let mut config = RunConfig::new(Topology::KOut { k: 3 }, n, seed)
        .with_engine(EngineKind::Sharded { workers })
        .with_completion(Completion::LeaderKnowsAll)
        .with_faults(faults)
        .with_reliable_delivery(RetryPolicy::default())
        .with_stall_window(200)
        .with_max_rounds(100_000);
    if let Some(path) = obs_path {
        // Full-sampling causal trace: the degraded run's archive is the
        // `rd-inspect why` walkthrough input, so keep every edge.
        config = config.with_obs(
            ObsSpec::new()
                .with_archive(path)
                .with_causal_trace(1 << 20, 1_000_000),
        );
    }
    let start = Instant::now();
    let report = run(AlgorithmKind::Hm(HmConfig::default()), &config);
    let elapsed = start.elapsed();

    let overhead = report.retransmissions as f64 / report.messages.max(1) as f64;
    println!(
        "\nverdict: {} in {} rounds ({elapsed:.1?})",
        report.verdict.name(),
        report.rounds
    );
    println!("  messages          {}", report.messages);
    println!(
        "  dropped           {} (coin {}, crash {}, partition {})",
        report.dropped(),
        report.drops.coin,
        report.drops.crash,
        report.drops.partition
    );
    println!(
        "  retransmissions   {} ({:.2}% of messages)",
        report.retransmissions,
        overhead * 100.0
    );
    println!("  retractions       {}", report.detector_retractions);
    println!("  sound             {}", report.sound);
}

fn main() {
    let mut args: Vec<String> = std::env::args().skip(1).collect();
    // `--obs=<path>` may appear anywhere: strip it before the
    // positional arguments are interpreted.
    let obs_path = args
        .iter()
        .position(|a| a.starts_with("--obs="))
        .map(|i| args.remove(i)["--obs=".len()..].to_string());
    if let Some(mode @ ("--big" | "--churn")) = args.first().map(String::as_str) {
        let big = mode == "--big";
        let log2_n: u32 = args
            .get(1)
            .map_or(if big { 20 } else { 14 }, |a| a.parse().expect("log2 n"));
        let workers: usize = args.get(2).map_or_else(
            || std::thread::available_parallelism().map_or(1, |p| p.get()),
            |a| a.parse().expect("worker count"),
        );
        let name = if big {
            "scaling-big.jsonl"
        } else {
            "scaling-churn.jsonl"
        };
        let archive = resolve_obs(obs_path.as_deref(), name);
        if big {
            big_run(log2_n, workers, archive.as_deref());
        } else {
            churn_run(log2_n, workers, archive.as_deref());
            if let Some(path) = archive {
                println!(
                    "wrote run archive (with causal trace) to {}",
                    path.display()
                );
            }
        }
        return;
    }

    if let Some(path) = &obs_path {
        eprintln!(
            "note: --obs={path} only applies to the single-run modes \
             (--big / --churn); the sweep runs many instances and \
             writes no archive"
        );
    }

    let ns = vec![64, 128, 256, 512, 1024, 2048];
    let kinds = vec![
        AlgorithmKind::Hm(HmConfig::default()),
        AlgorithmKind::NameDropper,
    ];
    println!(
        "sweeping {} sizes x {} algorithms x 3 seeds...",
        ns.len(),
        kinds.len()
    );
    let cells = sweep(&SweepSpec {
        kinds: kinds.clone(),
        topology: Topology::KOut { k: 3 },
        ns: ns.clone(),
        seeds: 0..3,
        ..Default::default()
    });

    let mut plot = Plot::new(56, 12).with_log_x();
    for kind in &kinds {
        let name = kind.name();
        let series: Vec<(f64, f64)> = cells
            .iter()
            .filter(|c| c.algorithm == name)
            .map(|c| (c.n as f64, c.rounds.mean))
            .collect();
        let xs: Vec<f64> = series.iter().map(|&(x, _)| x).collect();
        let ys: Vec<f64> = series.iter().map(|&(_, y)| y).collect();
        let ranked = best_fit(&xs, &ys);
        println!("\n{name}:");
        for fit in ranked.iter().take(2) {
            println!("  {fit}");
        }
        let ci = cells
            .iter()
            .rev()
            .find(|c| c.algorithm == name)
            .map(|c| c.rounds.ci95())
            .unwrap();
        println!(
            "  95% CI for the mean at n={}: [{:.1}, {:.1}]",
            ns.last().unwrap(),
            ci.0,
            ci.1
        );
        plot.series(name, series);
    }
    println!("\nrounds vs n (log x):\n{plot}");
}
