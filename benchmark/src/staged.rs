//! The benchmark's own driver: `rd_core::runner::run` taken apart into
//! its stages, each called through the public API with a span around it.
//!
//! `run()` is one opaque call, so the only way to learn how its wall
//! time divides among the layers — without editing the layers — is to
//! make the same calls in the same order from here. Every staged run is
//! checked against the report `run()` itself returned for the same
//! configuration, so a driver that drifts from the real one fails the
//! benchmark instead of quietly measuring something else.

use crate::spans::{SpanId, SpanLog};
use resource_discovery::core::algorithms::{HmDiscovery, NameDropper};
use resource_discovery::core::runner::{
    AlgorithmKind, Completion, EngineKind, RunConfig, RunReport, RunVerdict,
};
use resource_discovery::core::{problem, verify, DiscoveryAlgorithm, KnowledgeView};
use resource_discovery::event::EventEngine;
use resource_discovery::exec::ShardedEngine;
use resource_discovery::graphs::DiGraph;
use resource_discovery::obs::{
    archive, JsonlArchiveSink, ProfileReport, Recorder, RunMeta, RunOutcomeObs,
};
use resource_discovery::sim::{Engine, Node, RoundEngine};
use std::path::Path;
use std::time::Instant;

/// The spans of a staged run that together make up set-up, in call
/// order. A campaign workload adds `select` before them.
pub const SETUP_SPANS: [&str; 4] = ["generate", "initial_knowledge", "make_nodes", "engine_new"];

/// What a staged run is compared with, and whether it is observed.
pub struct Full<'a> {
    /// The report `run()` returned for the same `(algorithm, config)`.
    pub reference: &'a RunReport,
    /// With a path, a profiling `Recorder` is attached through the
    /// engine's `with_obs` and finished into a JSONL archive there.
    pub archive: Option<&'a Path>,
}

/// Counts taken at the stage boundaries of one staged run.
pub struct StagedRun {
    /// The report assembled from the engine, field by field as
    /// `runner::drive` assembles it.
    pub report: RunReport,
    /// Identifiers learned during the run: Σ `knows_count` at the end
    /// minus at the start.
    pub learned: u64,
    /// Σ `knows_count` at the end.
    pub known: u64,
    /// Σ `resident_bytes` at the end.
    pub resident_bytes: u64,
    /// Completion checks made (one before the first round, one after
    /// each).
    pub done_checks: u64,
    /// Present when the run was observed.
    pub observed: Option<Observed>,
}

pub struct Observed {
    pub archive_bytes: u64,
    pub profile: ProfileReport,
}

/// Runs `kind` on `config` stage by stage under `parent`.
///
/// # Panics
///
/// Panics on an algorithm no workload uses, and — like `run()` — on an
/// invalid fault plan.
pub fn staged_run(
    log: &mut SpanLog,
    parent: SpanId,
    kind: AlgorithmKind,
    config: &RunConfig,
    full: Full<'_>,
) -> StagedRun {
    dispatch(log, parent, kind, config, Some(full)).expect("a full staged run returns its counts")
}

/// Runs only the set-up stages (instance, nodes, engine) and drops the
/// result: the work `setup_s` times.
pub fn staged_setup(log: &mut SpanLog, parent: SpanId, kind: AlgorithmKind, config: &RunConfig) {
    dispatch(log, parent, kind, config, None);
}

fn dispatch(
    log: &mut SpanLog,
    parent: SpanId,
    kind: AlgorithmKind,
    config: &RunConfig,
    full: Option<Full<'_>>,
) -> Option<StagedRun> {
    match kind {
        AlgorithmKind::Hm(cfg) => staged(log, parent, &HmDiscovery::new(cfg), config, full),
        AlgorithmKind::NameDropper => staged(log, parent, &NameDropper, config, full),
        other => panic!("no workload runs {}", other.name()),
    }
}

/// The engines share builder names but no trait for them.
macro_rules! configure {
    ($engine:expr, $config:expr, $recorder:expr) => {{
        let mut engine = $engine.with_faults($config.faults.clone());
        if let Some(policy) = $config.reliable {
            engine = engine.with_reliable_delivery(policy);
        }
        if let Some(recorder) = $recorder {
            engine = engine.with_obs(recorder);
        }
        engine
    }};
}

fn staged<A>(
    log: &mut SpanLog,
    parent: SpanId,
    alg: &A,
    config: &RunConfig,
    full: Option<Full<'_>>,
) -> Option<StagedRun>
where
    A: DiscoveryAlgorithm,
    A::NodeState: Node + Send,
    <A::NodeState as Node>::Msg: Send,
{
    let up = Some(parent);
    if let Err(err) = config.faults.validate(config.n, config.max_rounds) {
        panic!("invalid fault plan: {err}");
    }
    let graph = log.time("generate", up, || {
        config.topology.generate(config.n, config.seed)
    });
    let initial = log.time("initial_knowledge", up, || {
        problem::initial_knowledge(&graph)
    });
    let nodes = log.time("make_nodes", up, || alg.make_nodes(&initial));

    let recorder = full
        .as_ref()
        .and_then(|f| f.archive)
        .map(|path| recorder_for(&alg.name(), config, path));
    let recorder_epoch = recorder.as_ref().map(Recorder::epoch);
    let world = World {
        alg,
        config,
        graph,
        initial,
        recorder_epoch,
    };
    let span = log.open("engine_new", up);
    match config.engine {
        EngineKind::Sequential => {
            let engine = configure!(Engine::new(nodes, config.seed), config, recorder);
            log.close(span);
            full.map(|f| drive(log, parent, world, engine, f))
        }
        EngineKind::Sharded { workers } => {
            let engine = configure!(
                ShardedEngine::new(nodes, config.seed, workers),
                config,
                recorder
            );
            log.close(span);
            full.map(|f| drive(log, parent, world, engine, f))
        }
        EngineKind::Event { latency } => {
            let engine = configure!(
                EventEngine::new(nodes, config.seed, latency),
                config,
                recorder
            );
            log.close(span);
            full.map(|f| drive(log, parent, world, engine, f))
        }
    }
}

/// Mirror of `runner::make_recorder` for an archive-plus-profile spec.
fn recorder_for(algorithm: &str, config: &RunConfig, archive: &Path) -> Recorder {
    let workers = match config.engine {
        EngineKind::Sharded { workers } => workers,
        EngineKind::Sequential | EngineKind::Event { .. } => 1,
    };
    Recorder::new(RunMeta {
        algorithm: algorithm.to_string(),
        topology: config.topology.name(),
        n: config.n,
        seed: config.seed,
        engine: config.engine.name(),
        workers,
        latency_model: config.engine.latency_model(),
    })
    .with_sink(Box::new(JsonlArchiveSink::new(archive)))
    .with_profiling()
}

/// Everything `drive` needs besides the engine.
struct World<'a, A> {
    alg: &'a A,
    config: &'a RunConfig,
    graph: DiGraph,
    initial: problem::InitialKnowledge,
    recorder_epoch: Option<Instant>,
}

/// Why the round loop ended.
enum Exit {
    Completed,
    Stalled { last_progress: u64 },
    BudgetExhausted,
}

fn total_known<N: KnowledgeView>(nodes: &[N], live: &[bool]) -> u64 {
    nodes
        .iter()
        .zip(live)
        .filter(|(_, &l)| l)
        .map(|(s, _)| s.knows_count() as u64)
        .sum()
}

fn total_resident<N: KnowledgeView>(nodes: &[N]) -> u64 {
    nodes.iter().map(|s| s.resident_bytes()).sum()
}

/// Mirror of `runner::drive`: the completion loop, soundness
/// verification and report assembly, one span per call into a layer.
fn drive<A, E>(
    log: &mut SpanLog,
    parent: SpanId,
    world: World<'_, A>,
    mut engine: E,
    full: Full<'_>,
) -> StagedRun
where
    A: DiscoveryAlgorithm,
    E: RoundEngine<A::NodeState>,
{
    let up = Some(parent);
    let World {
        alg,
        config,
        graph,
        initial,
        recorder_epoch,
    } = world;
    let live: Vec<bool> = (0..config.n)
        .map(|i| !config.faults.is_permanently_crashed(i))
        .collect();
    let everyone = vec![true; config.n];
    let observed = recorder_epoch.is_some();

    // The completion predicate and the stall watchdog, as `drive`'s
    // `done` closure evaluates them after every round.
    let mut last_knowledge = None;
    let mut stagnant_rounds = 0;
    let mut last_progress = 0;
    let mut done_checks = 0;
    let mut check = |log: &mut SpanLog, nodes: &[A::NodeState], round: u64| -> Option<Exit> {
        done_checks += 1;
        log.time("done_check", up, || {
            let done = match config.completion {
                Completion::EveryoneKnowsEveryone => {
                    problem::everyone_knows_everyone_among(nodes, &live)
                }
                Completion::LeaderKnowsAll => problem::leader_knows_all_among(nodes, &live),
                Completion::AllBelieveDone => nodes
                    .iter()
                    .zip(&live)
                    .all(|(n, &l)| !l || n.believes_done()),
            };
            if done {
                return Some(Exit::Completed);
            }
            let window = config.stall_window?;
            let total = total_known(nodes, &live);
            if last_knowledge == Some(total) {
                stagnant_rounds += 1;
                if stagnant_rounds >= window {
                    return Some(Exit::Stalled { last_progress });
                }
            } else {
                stagnant_rounds = 0;
                last_knowledge = Some(total);
                last_progress = round;
            }
            None
        })
    };

    let known_at_start = total_known(engine.nodes(), &everyone);
    // What an observed `run()` samples between rounds for the archive:
    // the knowledge series and, under profiling, the memory timeline.
    let mut knowledge = Vec::new();
    let mut memory = Vec::new();
    if observed {
        knowledge.push((0, known_at_start));
        memory.push((0, total_resident(engine.nodes())));
    }

    let mut steps = Vec::new();
    let mut exit = check(log, engine.nodes(), engine.round());
    while exit.is_none() && engine.round() < config.max_rounds {
        let span = log.open("step", up);
        engine.step();
        log.close(span);
        steps.push(span);
        let round = engine.round();
        if observed {
            log.time("obs_sample", up, || {
                knowledge.push((round, total_known(engine.nodes(), &everyone)));
                memory.push((round, total_resident(engine.nodes())));
            });
        }
        exit = check(log, engine.nodes(), round);
    }
    let exit = exit.unwrap_or(Exit::BudgetExhausted);
    let completed = matches!(exit, Exit::Completed);

    let sound = log.time("verify", up, || {
        let nodes = engine.nodes();
        let mut sound = verify::no_fabricated_ids(nodes) && verify::knows_self(nodes);
        if config.faults.is_fault_free() {
            sound &= verify::retains_initial_knowledge(nodes, &initial);
        }
        if completed && config.completion == Completion::EveryoneKnowsEveryone {
            sound &= problem::everyone_knows_everyone_among(nodes, &live);
            sound &= verify::live_component_complete(nodes, &initial, &live);
        }
        sound
    });

    let verdict = match exit {
        Exit::Completed if live.contains(&false) => RunVerdict::DegradedComplete,
        Exit::Completed => RunVerdict::Complete,
        Exit::Stalled { last_progress } => RunVerdict::Stalled { last_progress },
        Exit::BudgetExhausted => RunVerdict::BudgetExhausted,
    };
    let pools = engine.pool_counters();
    let pool_high_water = engine.pool_high_water();
    let recorder = engine.take_obs();
    let m = engine.metrics();
    let report = RunReport {
        algorithm: alg.name(),
        topology: config.topology.name(),
        n: config.n,
        seed: config.seed,
        completed,
        verdict,
        rounds: engine.round(),
        messages: m.total_messages(),
        pointers: m.total_pointers(),
        bits: m.total_bits(),
        drops: m.drop_tally(),
        retransmissions: m.total_retransmissions(),
        detector_retractions: m.detector_retractions(),
        max_sent_messages: m.max_sent_messages(),
        max_recv_messages: m.max_recv_messages(),
        mean_messages_per_node: m.mean_messages_per_node(),
        sound,
        // Fields a later change adds to the report are not the staged
        // driver's to compute.
        ..full.reference.clone()
    };
    let known = total_known(engine.nodes(), &everyone);
    let resident_bytes = total_resident(engine.nodes());

    let observed = recorder.map(|mut recorder| {
        let path = full.archive.expect("a recorder implies an archive path");
        let obs = log.time("obs_finish", up, || {
            recorder
                .registry_mut()
                .add_counter("detector_retractions_total", m.detector_retractions());
            for &(round, bytes) in &memory {
                recorder.profile_memory(round, bytes);
            }
            recorder.profile_pool_high_water(&pool_high_water);
            let outcome = RunOutcomeObs {
                verdict: verdict.name().to_string(),
                completed,
                sound,
                rounds: report.rounds,
                messages: report.messages,
                pointers: report.pointers,
                trace_events: 0,
                trace_overflow: 0,
                last_progress: match verdict {
                    RunVerdict::Stalled { last_progress } => Some(last_progress),
                    _ => None,
                },
            };
            recorder
                .finish(
                    outcome,
                    &m.per_node_sent_messages(),
                    &m.per_node_recv_messages(),
                    &knowledge,
                    &pools,
                )
                .expect("the archive is written inside the benchmark's own directory")
        });
        let archive_bytes = log.time("obs_parse", up, || {
            let text = std::fs::read_to_string(path).expect("the archive was just written");
            archive::parse(&text).expect("the archive the run wrote parses strictly");
            text.len() as u64
        });
        // The engine's own phase spans become children of the step
        // they fall in. Steps do not overlap, so the step is found by
        // start time; worker clocks may start a phase a hair early.
        let offset = log.ns_at(recorder_epoch.expect("observed runs record the epoch"));
        for phase in &obs.spans {
            let start = offset + phase.start_ns;
            let at = steps.partition_point(|&s| log.get(s).start_ns <= start);
            let step = steps[at.saturating_sub(1)];
            log.push(phase.phase.name(), start, start + phase.dur_ns, Some(step));
        }
        Observed {
            archive_bytes,
            profile: obs.profile.expect("the recorder was profiling"),
        }
    });

    log.time("teardown", up, || {
        drop(engine);
        drop(initial);
        drop(graph);
    });

    StagedRun {
        report,
        learned: known - known_at_start,
        known,
        resident_bytes,
        done_checks,
        observed,
    }
}
