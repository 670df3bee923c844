//! Regenerates every table and figure of the evaluation.
//!
//! ```text
//! figures [--quick] [--csv] [--engine=SPEC] [--obs=DIR] [--trace] [--profile]
//!         [ids...]
//! ```
//!
//! With no ids, everything runs. Ids: `t1 f1 t2 f2 t3 f3 t4 f4 f5 f6 t5
//! t5b t6 t7 t8 t9 t10 t14` (case-insensitive); an unknown id or flag
//! exits 2 before anything runs. `--quick` uses the small profile, `--csv`
//! additionally prints each table as CSV. `--engine=sharded:W` runs the
//! engine-aware sweeps (T1/F1/T2/F2/F4 and F5) on the `rd-exec` sharded
//! engine with `W` worker threads; results are bit-identical either way,
//! only wall-clock changes. `--engine=event[:<latency model>]` runs them
//! on the serial engine under a latency model instead (models: `const:T`,
//! `uniform:MIN:MAX`, `lognormal:MU_MILLI:SIGMA_MILLI:CAP`, `asym:F:B`,
//! `slow:BASE:SLOW:FRAC_PPM`);
//! with the default `const:1` model results again match bit-for-bit,
//! while any other model measures convergence under asynchrony.
//!
//! `--obs=DIR` additionally performs two instrumented HM reference runs
//! (sequential and sharded:4) and writes their JSONL run archives into
//! `DIR` (`rd-inspect summarize/diff/validate` reads them). When
//! `--engine=event…` is selected, a third archive (`hm-event.jsonl`) is
//! written under the chosen latency model. `--profile` adds
//! cost-attribution profiling (`profile_*` archive records, for
//! `rd-inspect profile` / `flame`). `--trace` adds causal provenance
//! tracing to those reference runs (full sampling), so the archives
//! carry the causal edge section that `rd-inspect why` and
//! `rd-inspect path` read. Both act on the reference runs only, so
//! either without `--obs=DIR` is a usage error.

use rd_analysis::Table;
use rd_bench::experiments::{
    ablation, asynchrony, bandwidth, classic, clusters, diameter, failover, faults, floor, gossip,
    scaling, survey,
};
use rd_bench::Profile;
use rd_core::algorithms::hm::HmConfig;
use rd_core::runner::{run, AlgorithmKind, EngineKind, ObsSpec, RunConfig};
use rd_graphs::Topology;
use rd_sim::LatencyModel;
use std::path::PathBuf;

struct Options {
    profile: Profile,
    csv: bool,
    engine: EngineKind,
    obs: Option<PathBuf>,
    prof: bool,
    trace: bool,
    ids: Vec<String>,
}

/// Every figure and table id, in the order a full run emits them.
const IDS: [&str; 18] = [
    "t1", "f1", "t2", "f2", "t3", "f3", "t4", "f4", "f5", "f6", "t5", "t5b", "t6", "t7", "t8",
    "t9", "t10", "t14",
];

fn usage() -> String {
    format!(
        "usage: figures [--quick] [--csv] [--engine=sequential|sharded:<workers>|event[:<latency model>]] [--obs=DIR] [--trace] [--profile] [{}]",
        IDS.join(" ")
    )
}

fn parse_engine(spec: &str) -> EngineKind {
    if spec == "sequential" {
        return EngineKind::Sequential;
    }
    if spec == "event" {
        // Bare `event` is the synchronous baseline, `event:const:1`.
        return EngineKind::Event {
            latency: LatencyModel::default(),
        };
    }
    if let Some(model) = spec.strip_prefix("event:") {
        match LatencyModel::parse(model) {
            Ok(latency) => return EngineKind::Event { latency },
            Err(err) => {
                eprintln!("invalid engine {spec:?}: {err}");
                std::process::exit(2);
            }
        }
    }
    match spec.strip_prefix("sharded:").map(str::parse) {
        Some(Ok(workers)) if workers > 0 => EngineKind::Sharded { workers },
        _ => {
            eprintln!(
                "invalid engine {spec:?}; use 'sequential', 'sharded:<workers>', \
                 or 'event[:<latency model>]' (e.g. event:uniform:1:8)"
            );
            std::process::exit(2);
        }
    }
}

fn parse_args() -> Options {
    let mut profile = Profile::Full;
    let mut csv = false;
    let mut engine = EngineKind::Sequential;
    let mut obs = None;
    let mut trace = false;
    let mut prof = false;
    let mut ids = Vec::new();
    for arg in std::env::args().skip(1) {
        match arg.as_str() {
            "--quick" => profile = Profile::Quick,
            "--full" => profile = Profile::Full,
            "--csv" => csv = true,
            "--trace" => trace = true,
            "--profile" => prof = true,
            "--help" | "-h" => {
                eprintln!("{}", usage());
                std::process::exit(0);
            }
            spec if spec.starts_with("--engine=") => {
                engine = parse_engine(&spec["--engine=".len()..]);
            }
            spec if spec.starts_with("--obs=") => {
                obs = Some(PathBuf::from(&spec["--obs=".len()..]));
            }
            flag if flag.starts_with('-') => {
                eprintln!("figures: unknown flag {flag:?}\n{}", usage());
                std::process::exit(2);
            }
            id if IDS.contains(&id.to_ascii_lowercase().as_str()) => {
                ids.push(id.to_ascii_lowercase());
            }
            id => {
                eprintln!("figures: unknown figure id {id:?}\n{}", usage());
                std::process::exit(2);
            }
        }
    }
    if obs.is_none() && (trace || prof) {
        eprintln!("figures: --trace and --profile need --obs=DIR\n{}", usage());
        std::process::exit(2);
    }
    Options {
        profile,
        csv,
        engine,
        obs,
        prof,
        trace,
        ids,
    }
}

/// The `--obs=DIR` reference runs: the same HM instance once per
/// engine, each writing its run archive. The two round-engine
/// archives let `rd-inspect diff` show that the engines agree on every
/// deterministic field and differ only in wall-clock and worker layout.
/// When `--engine=event[:<model>]` is selected, a third archive is
/// written from the serial engine under that latency model; its header
/// carries the `latency_model` field so the archive is self-describing.
fn obs_runs(profile: Profile, engine: EngineKind, dir: &std::path::Path, trace: bool, prof: bool) {
    // Attribution coverage is a gated claim (`summarize --strict`
    // fails below 90%), and at n = 512 the inter-phase driver residue
    // is a double-digit share of a microsecond round — so profiled
    // reference runs always use the full-size instance (still
    // seconds of work).
    let n = match profile {
        _ if prof => 4096,
        Profile::Quick => 512,
        Profile::Full => 4096,
    };
    let seed = 42;
    let mut runs = vec![
        (
            EngineKind::Sequential,
            ObsSpec::new().with_archive(dir.join("hm-sequential.jsonl")),
        ),
        (
            EngineKind::Sharded { workers: 4 },
            ObsSpec::new().with_archive(dir.join("hm-sharded4.jsonl")),
        ),
    ];
    if let EngineKind::Event { .. } = engine {
        runs.push((
            engine,
            ObsSpec::new().with_archive(dir.join("hm-event.jsonl")),
        ));
    }
    if trace {
        // Full sampling at reference scale: the archives carry the
        // complete provenance DAG for `rd-inspect why` / `path`.
        for (_, spec) in &mut runs {
            *spec = spec.clone().with_causal_trace(1 << 20, 1_000_000);
        }
    }
    if prof {
        // Cost-attribution profiling: `profile_*` records in every
        // archive, for `rd-inspect profile` / `flame`.
        for (_, spec) in &mut runs {
            *spec = spec.clone().with_profile();
        }
    }
    for (engine, spec) in runs {
        eprintln!(
            "[figures] instrumented HM reference run (n = {n}, {} engine)...",
            engine.name()
        );
        let config = RunConfig::new(Topology::KOut { k: 3 }, n, seed)
            .with_engine(engine)
            .with_obs(spec);
        let report = run(AlgorithmKind::Hm(HmConfig::default()), &config);
        println!(
            "obs run ({}): verdict {} in {} rounds, {} messages",
            engine.name(),
            report.verdict.name(),
            report.rounds,
            report.messages
        );
    }
    println!("telemetry written to {}", dir.display());
}

fn wanted(opts: &Options, id: &str) -> bool {
    opts.ids.is_empty() || opts.ids.iter().any(|i| i == id)
}

fn emit(opts: &Options, id: &str, title: &str, table: &Table) {
    println!("== {} — {title} ==", id.to_uppercase());
    print!("{table}");
    if opts.csv {
        println!("--- csv ---");
        print!("{}", table.to_csv());
    }
    println!();
}

fn main() {
    let opts = parse_args();
    println!(
        "resource-discovery evaluation (profile: {})\n",
        opts.profile.name()
    );

    if let Some(dir) = &opts.obs {
        obs_runs(opts.profile, opts.engine, dir, opts.trace, opts.prof);
        // `--obs=DIR` with no ids means "just the instrumented runs":
        // don't drag the full evaluation along.
        if opts.ids.is_empty() {
            return;
        }
    }

    let scaling_needed = ["t1", "f1", "t2", "f2", "f4"]
        .iter()
        .any(|id| wanted(&opts, id));
    if scaling_needed {
        eprintln!(
            "[figures] running scaling sweep ({}, {} engine)...",
            opts.profile.name(),
            opts.engine.name()
        );
        let data = scaling::run_with(opts.profile, opts.engine);
        if wanted(&opts, "t1") {
            emit(
                &opts,
                "t1",
                "rounds to completion vs n (k-out random overlay, mean ± std)",
                &scaling::t1_rounds(&data),
            );
        }
        if wanted(&opts, "f1") {
            emit(
                &opts,
                "f1",
                "scaling-law fits of mean rounds (least squares, ranked by R²)",
                &scaling::f1_fits(&data),
            );
            let mut plot = rd_analysis::Plot::new(56, 14).with_log_x();
            for alg in data.algorithms() {
                let pts: Vec<(f64, f64)> = data
                    .ns
                    .iter()
                    .filter_map(|&n| Some((n as f64, data.cell(&alg, n)?.rounds.mean)))
                    .collect();
                plot.series(alg, pts);
            }
            println!("rounds vs n (log x):\n{plot}");
        }
        if wanted(&opts, "t2") {
            emit(
                &opts,
                "t2",
                "total messages vs n (and mean messages per node)",
                &scaling::t2_messages(&data),
            );
        }
        if wanted(&opts, "f2") {
            emit(
                &opts,
                "f2",
                "total pointers (identifier transfers) vs n",
                &scaling::f2_pointers(&data),
            );
        }
        if wanted(&opts, "f4") {
            emit(
                &opts,
                "f4",
                "baseline rounds as a multiple of HM rounds",
                &scaling::f4_ratios(&data),
            );
        }
    }

    if wanted(&opts, "t3") {
        eprintln!("[figures] running topology survey...");
        emit(
            &opts,
            "t3",
            "rounds across the topology zoo at fixed n",
            &survey::run(opts.profile),
        );
    }

    if wanted(&opts, "f3") {
        eprintln!("[figures] running cluster-collapse trace...");
        emit(
            &opts,
            "f3",
            "HM cluster count per super-round (doubly-exponential collapse)",
            &clusters::run(opts.profile),
        );
    }

    if wanted(&opts, "t4") {
        eprintln!("[figures] running ablations...");
        emit(
            &opts,
            "t4",
            "HM design ablations (merge rule, probe parallelism, invites)",
            &ablation::run(opts.profile),
        );
    }

    if wanted(&opts, "f5") {
        eprintln!(
            "[figures] running diameter sweep ({} engine)...",
            opts.engine.name()
        );
        let (table, series) = diameter::run_with(opts.profile, opts.engine);
        emit(
            &opts,
            "f5",
            "rounds vs diameter at fixed n (clique chains)",
            &table,
        );
        println!("HM rounds vs log D fit: {}\n", diameter::log_d_fit(&series));
    }

    if wanted(&opts, "f6") {
        eprintln!("[figures] running path floor sweep...");
        emit(
            &opts,
            "f6",
            "the Ω(log D) floor: rounds on directed paths",
            &floor::run(opts.profile),
        );
    }

    if wanted(&opts, "t5") {
        eprintln!("[figures] running fault sweep...");
        emit(
            &opts,
            "t5",
            "completion under independent message drops",
            &faults::run(opts.profile),
        );
    }

    if wanted(&opts, "t5b") {
        eprintln!("[figures] running churn sweep...");
        emit(
            &opts,
            "t5b",
            "churn: crash/recovery waves, partitions, reliable delivery",
            &faults::run_churn(opts.profile),
        );
    }

    if wanted(&opts, "t6") {
        eprintln!("[figures] running gossip comparison...");
        emit(
            &opts,
            "t6",
            "direct-addressing gossip vs random push–pull",
            &gossip::run(opts.profile),
        );
    }

    if wanted(&opts, "t7") {
        eprintln!("[figures] running classic suite...");
        emit(
            &opts,
            "t7",
            "the historical suite: HLL '99 algorithms through HM '15",
            &classic::run(opts.profile),
        );
    }

    if wanted(&opts, "t8") {
        eprintln!("[figures] running leader-failover sweep...");
        emit(
            &opts,
            "t8",
            "staggered crashes of the top-k leaders (failure detector on)",
            &failover::run(opts.profile),
        );
    }

    if wanted(&opts, "t9") {
        eprintln!("[figures] running bandwidth sweep...");
        emit(
            &opts,
            "t9",
            "completion rounds under per-node receive caps",
            &bandwidth::run(opts.profile),
        );
    }

    if wanted(&opts, "t10") {
        eprintln!("[figures] running asynchrony sweep...");
        emit(
            &opts,
            "t10",
            "completion time under uniform random message delays",
            &asynchrony::run(opts.profile),
        );
    }

    if wanted(&opts, "t14") {
        t14(&opts);
    }
}

/// T14 — where the nanosecond goes: per-phase cost attribution for
/// the HM reference run, sequential vs 4-way sharded, across sizes.
/// Each configuration runs once with profiling on; the report is then
/// rebuilt from the archive's profile section exactly the
/// way `rd-inspect profile` reads it, so the table doubles as an
/// end-to-end check of the export path. Archives land in a temp
/// directory — the rendered report is the product.
fn t14(opts: &Options) {
    let sizes: &[u32] = match opts.profile {
        Profile::Quick => &[9, 10],
        Profile::Full => &[12, 14, 16],
    };
    let dir = std::env::temp_dir().join(format!("rd-t14-{}", std::process::id()));
    if let Err(err) = std::fs::create_dir_all(&dir) {
        eprintln!("t14: cannot create {}: {err}", dir.display());
        return;
    }
    println!("== T14 — where the nanosecond goes (HM, k-out k = 3, seed 42) ==");
    for &log2 in sizes {
        for engine in [EngineKind::Sequential, EngineKind::Sharded { workers: 4 }] {
            let n = 1usize << log2;
            let path = dir.join(format!(
                "t14-{log2}-{}.jsonl",
                engine.name().replace(':', "-")
            ));
            eprintln!(
                "[figures] t14 profiled run (n = 2^{log2}, {} engine)...",
                engine.name()
            );
            let config = RunConfig::new(Topology::KOut { k: 3 }, n, 42)
                .with_engine(engine)
                .with_obs(ObsSpec::new().with_archive(path.clone()).with_profile());
            run(AlgorithmKind::Hm(HmConfig::default()), &config);
            let text = std::fs::read_to_string(&path).expect("t14 archive was just written");
            let archive = rd_obs::archive::parse(&text).expect("t14 archive parses");
            print!(
                "{}",
                rd_obs::inspect::profile_report(&archive).expect("t14 run was profiled")
            );
            println!();
        }
    }
}
