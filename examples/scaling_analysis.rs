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
//! production scale — n = 2²⁰ machines by default — on the `rd-exec`
//! sharded engine:
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
//! summarize <dir>/scaling-*.jsonl`. The churn archive additionally
//! carries a full-sampling causal trace for `rd-inspect why`. The
//! sweep mode is many runs and takes no archive path.

use resource_discovery::analysis::experiment::{sweep, SweepSpec};
use resource_discovery::analysis::{best_fit, Plot};
use resource_discovery::core::algorithms::hm::{cluster_count, HmDiscovery, PHASES};
use resource_discovery::obs::{
    Heartbeat, JsonlArchiveSink, LiveBus, LivePublisher, LiveServer, LiveSnapshot, LiveSpec,
    Recorder, RunMeta, RunOutcomeObs,
};
use resource_discovery::prelude::*;
use std::path::{Path, PathBuf};
use std::sync::Arc;
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

fn big_run(log2_n: u32, workers: usize, obs_path: Option<&Path>, live: Option<Option<&str>>) {
    let n = 1usize << log2_n;
    println!(
        "big run: HM on a 3-out random overlay, n = 2^{log2_n} = {n}, \
         sharded engine with {workers} workers"
    );
    let seed = 42;
    let start = Instant::now();
    let graph = Topology::KOut { k: 3 }.generate(n, seed);
    let initial = problem::initial_knowledge(&graph);
    let nodes = HmDiscovery::new(HmConfig::default()).make_nodes(&initial);
    println!("  built {n}-node instance in {:.1?}", start.elapsed());

    let mut engine = ShardedEngine::new(nodes, seed, workers);
    if let Some(path) = obs_path {
        let recorder = Recorder::new(RunMeta {
            algorithm: "hm".into(),
            topology: "3-out".into(),
            n,
            seed,
            engine: format!("sharded:{workers}"),
            workers,
            latency_model: None,
        })
        .with_sink(Box::new(JsonlArchiveSink::new(path)))
        .with_profiling();
        engine = engine.with_obs(recorder);
    }
    let profiling = obs_path.is_some();
    let start = Instant::now();
    // The loop is inlined (instead of `run_observed`) so the heartbeat
    // can read `engine.metrics()` between rounds; a profiled archive
    // additionally gets its per-round memory timeline sampled here.
    // With `--live` the same snapshots also feed a scrape endpoint.
    let mut heartbeat = Heartbeat::new("scaling-big");
    let mut live_server = None;
    let mut publisher = match live {
        Some(addr) => {
            let bus = Arc::new(LiveBus::new());
            match LiveServer::start(addr.unwrap_or("127.0.0.1:0"), bus.clone()) {
                Ok(server) => {
                    eprintln!("[rd-live] serving http://{}", server.addr());
                    live_server = Some(server);
                    LivePublisher::with_bus(bus)
                }
                Err(err) => {
                    eprintln!("warning: rd-live failed to bind: {err}");
                    LivePublisher::new()
                }
            }
        }
        None => LivePublisher::new(),
    };
    let live_on = live_server.is_some();
    let mut snap_base = LiveSnapshot {
        algorithm: "hm".into(),
        topology: "3-out".into(),
        engine: format!("sharded:{workers}"),
        n: n as u64,
        seed,
        workers: workers as u64,
        max_rounds: 1_000_000,
        knowledge_target: (n as u64) * (n as u64),
        ..Default::default()
    };
    let mut mem_samples: Vec<(u64, u64)> = Vec::new();
    let outcome = {
        let mut finished = problem::leader_knows_all(engine.nodes());
        while !finished && engine.round() < 1_000_000 {
            engine.step();
            let round = engine.round();
            if round % (4 * PHASES) == 0 {
                println!(
                    "  round {round:5}: {} clusters, {:.1?} elapsed",
                    cluster_count(engine.nodes()),
                    start.elapsed()
                );
            }
            let hb_due = heartbeat.due();
            if profiling || live_on || hb_due {
                let resident: u64 = engine
                    .nodes()
                    .iter()
                    .map(KnowledgeView::resident_bytes)
                    .sum();
                if profiling {
                    mem_samples.push((round, resident));
                }
                if live_on || hb_due {
                    snap_base.round = round;
                    snap_base.messages = engine.metrics().total_messages();
                    snap_base.knowledge_total = engine
                        .nodes()
                        .iter()
                        .map(|node| node.knows_count() as u64)
                        .sum();
                    snap_base.resident_bytes = resident;
                    let mut snap = snap_base.clone();
                    publisher.publish(&mut snap);
                    snap_base.rounds_per_sec = snap.rounds_per_sec;
                    snap_base.msgs_per_sec = snap.msgs_per_sec;
                    if hb_due {
                        heartbeat.emit(&snap);
                    }
                }
            }
            finished = problem::leader_knows_all(engine.nodes());
        }
        resource_discovery::sim::RunOutcome {
            completed: finished,
            rounds: engine.round(),
        }
    };
    if live_on {
        snap_base.round = engine.round();
        snap_base.messages = engine.metrics().total_messages();
        snap_base.finished = true;
        snap_base.verdict = if outcome.completed {
            "complete".into()
        } else {
            "budget-exhausted".into()
        };
        let mut snap = snap_base.clone();
        publisher.publish_final(&mut snap);
    }
    if let Some(server) = live_server.take() {
        server.shutdown();
    }
    let elapsed = start.elapsed();

    assert!(outcome.completed, "HM failed to complete within the budget");
    if let Some(mut recorder) = RoundEngine::take_obs(&mut engine) {
        for (round, bytes) in &mem_samples {
            recorder.profile_memory(*round, *bytes);
        }
        recorder.profile_pool_high_water(&RoundEngine::pool_high_water(&engine));
        let pools = RoundEngine::pool_counters(&engine);
        let m = engine.metrics();
        let outcome_obs = RunOutcomeObs {
            verdict: if outcome.completed {
                "complete".into()
            } else {
                "budget-exhausted".into()
            },
            completed: outcome.completed,
            sound: true,
            rounds: outcome.rounds,
            messages: m.total_messages(),
            pointers: m.total_pointers(),
            trace_events: 0,
            trace_overflow: 0,
            last_progress: None,
        };
        match recorder.finish(
            outcome_obs,
            &m.per_node_sent_messages(),
            &m.per_node_recv_messages(),
            &[],
            &pools,
        ) {
            Ok(_) => println!("  wrote run archive to {}", obs_path.unwrap().display()),
            Err(err) => eprintln!("  telemetry export failed: {err}"),
        }
    }
    let m = engine.metrics();
    let per_round = elapsed.as_secs_f64() / outcome.rounds.max(1) as f64;
    println!(
        "\ncompleted (leader knows all) in {} rounds",
        outcome.rounds
    );
    println!(
        "  wall-clock        {elapsed:.1?}  ({:.0} ms/round)",
        per_round * 1e3
    );
    println!("  total messages    {}", m.total_messages());
    println!("  total pointers    {}", m.total_pointers());
    println!("  max sent per node {}", m.max_sent_messages());
    println!(
        "  rounds vs bounds: log2 n = {log2_n}, log2 log2 n = {:.1}",
        (log2_n as f64).log2()
    );
}

/// The churn demo: HM through drops, a crash/recovery wave, and a
/// mid-run partition, with reliable delivery and the watchdog armed.
fn churn_run(log2_n: u32, workers: usize, obs_path: Option<&Path>, live: Option<Option<&str>>) {
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
    let mut spec = obs_path.map(|path| {
        // Full-sampling causal trace: the degraded run's archive is the
        // `rd-inspect why` walkthrough input, so keep every edge.
        ObsSpec::new()
            .with_archive(path)
            .with_causal_trace(1 << 20, 1_000_000)
    });
    if let Some(addr) = live {
        let mut live_spec = LiveSpec::new();
        if let Some(addr) = addr {
            live_spec = live_spec.with_addr(addr);
        }
        spec = Some(spec.unwrap_or_default().with_live(live_spec));
    }
    if let Some(spec) = spec {
        config = config.with_obs(spec);
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
    // `--live` / `--live=ADDR` may also appear anywhere; the outer
    // Option is "flag present", the inner one a custom bind address.
    let live = args
        .iter()
        .position(|a| a == "--live" || a.starts_with("--live="))
        .map(|i| {
            let flag = args.remove(i);
            flag.strip_prefix("--live=").map(str::to_string)
        });
    if args.first().map(String::as_str) == Some("--churn") {
        let log2_n: u32 = args.get(1).map_or(14, |a| a.parse().expect("log2 n"));
        let workers: usize = args.get(2).map_or_else(
            || {
                std::thread::available_parallelism()
                    .map(|p| p.get())
                    .unwrap_or(1)
            },
            |a| a.parse().expect("worker count"),
        );
        let archive = resolve_obs(obs_path.as_deref(), "scaling-churn.jsonl");
        churn_run(
            log2_n,
            workers,
            archive.as_deref(),
            live.as_ref().map(|a| a.as_deref()),
        );
        if let Some(path) = archive {
            println!(
                "wrote run archive (with causal trace) to {}",
                path.display()
            );
        }
        return;
    }
    if args.first().map(String::as_str) == Some("--big") {
        let log2_n: u32 = args.get(1).map_or(20, |a| a.parse().expect("log2 n"));
        let workers: usize = args.get(2).map_or_else(
            || {
                std::thread::available_parallelism()
                    .map(|p| p.get())
                    .unwrap_or(1)
            },
            |a| a.parse().expect("worker count"),
        );
        let archive = resolve_obs(obs_path.as_deref(), "scaling-big.jsonl");
        big_run(
            log2_n,
            workers,
            archive.as_deref(),
            live.as_ref().map(|a| a.as_deref()),
        );
        return;
    }

    if let Some(path) = &obs_path {
        eprintln!(
            "note: --obs={path} only applies to the single-run modes \
             (--big / --churn); the sweep runs many instances and \
             writes no archive"
        );
    }
    if live.is_some() {
        eprintln!(
            "note: --live only applies to the single-run modes \
             (--big / --churn); the sweep serves no live endpoint"
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
