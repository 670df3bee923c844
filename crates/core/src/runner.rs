//! One-call execution of a discovery run with full complexity reporting.

use crate::algorithms::hm::HmConfig;
use crate::algorithms::{
    DiscoveryAlgorithm, Flooding, HmDiscovery, KnowledgeView, NameDropper, PointerDoubling,
    RandomPointerJump, Swamping,
};
use crate::{problem, verify};
use rd_exec::ShardedEngine;
use rd_graphs::Topology;
use rd_obs::{CausalTrace, JsonlArchiveSink, Recorder, RunMeta, RunOutcomeObs};
use rd_sim::{DropTally, Engine, FaultPlan, LatencyModel, Node, RetryPolicy, RoundEngine};
use std::path::PathBuf;
use std::time::{Duration, Instant};

/// Which discovery algorithm to run.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum AlgorithmKind {
    /// Eager flooding (round-optimal baseline).
    Flooding,
    /// Name-Dropper (HLL '99 randomized baseline).
    NameDropper,
    /// Deterministic pointer doubling (KPV-flavoured baseline).
    PointerDoubling,
    /// Swamping (HLL '99): exchange full knowledge on every edge, every
    /// round. Log-round but maximally message-wasteful.
    Swamping,
    /// Random pointer jump (HLL '99): pull from one random acquaintance
    /// per round. Instructively fragile on weakly connected inputs.
    RandomPointerJump,
    /// The reconstructed Haeupler–Malkhi algorithm.
    Hm(HmConfig),
}

impl AlgorithmKind {
    /// Display name for tables.
    pub fn name(&self) -> String {
        match self {
            AlgorithmKind::Flooding => "flooding".into(),
            AlgorithmKind::NameDropper => "name-dropper".into(),
            AlgorithmKind::PointerDoubling => "pointer-doubling".into(),
            AlgorithmKind::Swamping => "swamping".into(),
            AlgorithmKind::RandomPointerJump => "random-pointer-jump".into(),
            AlgorithmKind::Hm(cfg) => cfg.name(),
        }
    }

    /// The four standard contenders of the headline comparison (T1/T2).
    pub fn contenders() -> Vec<AlgorithmKind> {
        vec![
            AlgorithmKind::Flooding,
            AlgorithmKind::NameDropper,
            AlgorithmKind::PointerDoubling,
            AlgorithmKind::Hm(HmConfig::default()),
        ]
    }

    /// The full historical suite: the contenders plus the other two
    /// PODC '99 algorithms (experiment T7).
    pub fn classic_suite() -> Vec<AlgorithmKind> {
        vec![
            AlgorithmKind::Flooding,
            AlgorithmKind::Swamping,
            AlgorithmKind::RandomPointerJump,
            AlgorithmKind::NameDropper,
            AlgorithmKind::PointerDoubling,
            AlgorithmKind::Hm(HmConfig::default()),
        ]
    }
}

/// Which execution engine drives the run.
///
/// The round engines are bit-identical on the same configuration (the
/// cross-engine equivalence property test enforces this), so choosing
/// between them is purely about wall-clock: the sharded engine pays a
/// per-round handoff to its worker threads to win parallel node
/// stepping *and* parallel routing — message fates are counter-derived
/// per `(seed, sender, round, sequence)`, so the routing phase shards
/// as cleanly as the stepping phase. Measured, it has not paid off: on
/// HM to everyone-knows-everyone at n = 2¹⁶ on a 2-vCPU x86-64 Linux
/// VM, `Sharded { workers: 2 }` ran at ×0.89 the speed of `Sequential`
/// (six alternated pairs, 1.89–2.47 s sequential against 1.90–2.65 s
/// sharded).
///
/// `Event` changes the *network model* instead: the serial engine draws
/// per-message delivery latency from a [`LatencyModel`], which expresses
/// constant multi-tick RTTs, heavy-tailed stragglers, and asymmetric
/// links that the synchronous round cannot. Under
/// `LatencyModel::Constant { ticks: 1 }` it is the sequential engine.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum EngineKind {
    /// The single-threaded lockstep engine in `rd-sim` (default).
    #[default]
    Sequential,
    /// The sharded multi-threaded engine in `rd-exec`.
    Sharded {
        /// Worker-thread count (must be nonzero).
        workers: usize,
    },
    /// The serial engine of `rd-sim` under a latency model.
    Event {
        /// Per-message delivery-latency model.
        latency: LatencyModel,
    },
}

impl EngineKind {
    /// Display name for tables, e.g. `sequential`, `sharded:4`, or
    /// `event:lognormal:1200:800:32`.
    pub fn name(&self) -> String {
        match self {
            EngineKind::Sequential => "sequential".into(),
            EngineKind::Sharded { workers } => format!("sharded:{workers}"),
            EngineKind::Event { latency } => format!("event:{}", latency.name()),
        }
    }

    /// Threads the engine steps nodes on: the worker count of the
    /// sharded engine, 1 for the others.
    pub fn workers(&self) -> usize {
        match self {
            EngineKind::Sharded { workers } => *workers,
            EngineKind::Sequential | EngineKind::Event { .. } => 1,
        }
    }

    /// The latency model's spec string, for engines that have one (the
    /// `latency_model` field of run archives).
    pub fn latency_model(&self) -> Option<String> {
        match self {
            EngineKind::Event { latency } => Some(latency.name()),
            _ => None,
        }
    }
}

/// When a run counts as finished.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum Completion {
    /// Every node knows every identifier (default; strongest).
    #[default]
    EveryoneKnowsEveryone,
    /// Some node knows everyone and everyone knows it (PODC '99 notion).
    LeaderKnowsAll,
    /// Every node's local state claims completion (only meaningful for
    /// protocols with local termination detection).
    AllBelieveDone,
}

/// How a run ended — the watchdog-aware refinement of the plain
/// `completed` flag.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RunVerdict {
    /// The completion predicate was reached with every machine live.
    Complete,
    /// The completion predicate was reached, but only among survivors:
    /// at least one machine is permanently crashed, so the run converged
    /// on a strict subset of the population.
    DegradedComplete,
    /// The convergence watchdog fired: no live node learned anything for
    /// a full stall window, so waiting longer cannot help.
    Stalled {
        /// The last round in which the live population's total knowledge
        /// still grew (0 when nothing was learned after the initial
        /// knowledge) — the watermark `rd-inspect summarize` surfaces.
        last_progress: u64,
    },
    /// The round budget ran out before completion (and before any stall
    /// window elapsed, if a watchdog was armed).
    BudgetExhausted,
}

impl RunVerdict {
    /// Display name for tables and JSON output.
    pub fn name(&self) -> &'static str {
        match self {
            RunVerdict::Complete => "complete",
            RunVerdict::DegradedComplete => "degraded-complete",
            RunVerdict::Stalled { .. } => "stalled",
            RunVerdict::BudgetExhausted => "budget-exhausted",
        }
    }
}

/// Where a run's telemetry goes.
///
/// Attached with [`RunConfig::with_obs`]; the archive, when asked for,
/// is written atomically at run end. Telemetry is strictly
/// observational: the run itself is bit-identical with or without a
/// spec (pinned by `tests/prop_engine_equivalence.rs`).
#[derive(Debug, Clone, Default)]
pub struct ObsSpec {
    /// Schema-versioned JSONL run archive (read by `rd-inspect`): the
    /// one file a run writes.
    pub archive: Option<PathBuf>,
    /// Causal knowledge-provenance tracing as `(pair capacity,
    /// sampling rate in ppm)`; the DAG lands in the archive's causal
    /// section and feeds `rd-inspect why` / `path`.
    pub causal: Option<(usize, u32)>,
    /// Cost-attribution profiling: per-phase/per-shard wall time,
    /// per-kind message costs, and the memory timeline land in the
    /// archive's `profile_*` section and feed
    /// `rd-inspect profile` / `flame`.
    pub profile: bool,
    /// Rate-limited stderr heartbeat (round, rounds/s, msgs/s, resident
    /// bytes) for long runs. Output only — never affects the run.
    pub heartbeat: bool,
}

impl ObsSpec {
    /// A spec with no archive: metrics and spans are still recorded
    /// (useful for overhead measurement), nothing is written.
    pub fn new() -> Self {
        ObsSpec::default()
    }

    /// Writes the JSONL run archive to `path`.
    pub fn with_archive(mut self, path: impl Into<PathBuf>) -> Self {
        self.archive = Some(path.into());
        self
    }

    /// Enables causal knowledge-provenance tracing: the engine records,
    /// for up to `capacity` `(id, node)` pairs, the first delivered
    /// message that taught `node` about `id`, sampling messages
    /// deterministically at `sample_ppm` parts per million (values
    /// `>= 1_000_000` trace every message). Purely observational, like
    /// the rest of the spec.
    pub fn with_causal_trace(mut self, capacity: usize, sample_ppm: u32) -> Self {
        self.causal = Some((capacity, sample_ppm));
        self
    }

    /// Enables cost-attribution profiling (the archive's profile section,
    /// `rd-inspect profile` / `flame`). Purely observational.
    pub fn with_profile(mut self) -> Self {
        self.profile = true;
        self
    }

    /// Emits a rate-limited progress heartbeat on stderr while the run
    /// executes.
    pub fn with_heartbeat(mut self) -> Self {
        self.heartbeat = true;
        self
    }
}

/// Configuration of a single discovery run.
#[derive(Debug, Clone)]
pub struct RunConfig {
    /// Initial knowledge-graph family.
    pub topology: Topology,
    /// Number of machines.
    pub n: usize,
    /// Seed for topology generation, protocol randomness, and faults.
    pub seed: u64,
    /// Round budget before the run is declared incomplete.
    pub max_rounds: u64,
    /// Completion predicate.
    pub completion: Completion,
    /// Fault plan (drops, crashes, partitions).
    pub faults: FaultPlan,
    /// Execution engine.
    pub engine: EngineKind,
    /// Convergence watchdog: terminate with [`RunVerdict::Stalled`] after
    /// this many consecutive rounds without any live node learning a new
    /// identifier. `None` disables the watchdog.
    pub stall_window: Option<u64>,
    /// Opt-in reliable delivery (ack/retransmit) policy.
    pub reliable: Option<RetryPolicy>,
    /// Telemetry (archive, causal trace, profile, heartbeat), if
    /// observability is enabled.
    pub obs: Option<ObsSpec>,
}

impl RunConfig {
    /// A fault-free run with the default completion predicate and a
    /// generous round budget.
    pub fn new(topology: Topology, n: usize, seed: u64) -> Self {
        RunConfig {
            topology,
            n,
            seed,
            max_rounds: 1_000_000,
            completion: Completion::default(),
            faults: FaultPlan::new(),
            engine: EngineKind::default(),
            stall_window: None,
            reliable: None,
            obs: None,
        }
    }

    /// Enables observability: telemetry is recorded during the run and
    /// written to the spec's archive, if any, at run end.
    pub fn with_obs(mut self, spec: ObsSpec) -> Self {
        self.obs = Some(spec);
        self
    }

    /// Selects the execution engine.
    pub fn with_engine(mut self, engine: EngineKind) -> Self {
        self.engine = engine;
        self
    }

    /// Overrides the completion predicate.
    pub fn with_completion(mut self, completion: Completion) -> Self {
        self.completion = completion;
        self
    }

    /// Overrides the round budget.
    pub fn with_max_rounds(mut self, max_rounds: u64) -> Self {
        self.max_rounds = max_rounds;
        self
    }

    /// Installs a fault plan.
    pub fn with_faults(mut self, faults: FaultPlan) -> Self {
        self.faults = faults;
        self
    }

    /// Arms the convergence watchdog: the run terminates with
    /// [`RunVerdict::Stalled`] once no live node has learned anything
    /// for `window` consecutive rounds.
    ///
    /// # Panics
    ///
    /// Panics if `window == 0`.
    pub fn with_stall_window(mut self, window: u64) -> Self {
        assert!(window > 0, "a stall window of 0 rounds fires immediately");
        self.stall_window = Some(window);
        self
    }

    /// Enables reliable delivery: fault-dropped messages are
    /// retransmitted under `policy`.
    pub fn with_reliable_delivery(mut self, policy: RetryPolicy) -> Self {
        self.reliable = Some(policy);
        self
    }
}

/// Complexity report of one discovery run.
#[derive(Debug, Clone, PartialEq)]
pub struct RunReport {
    /// Algorithm display name.
    pub algorithm: String,
    /// Topology display name.
    pub topology: String,
    /// Number of machines.
    pub n: usize,
    /// Run seed.
    pub seed: u64,
    /// Whether the completion predicate was reached within the budget.
    pub completed: bool,
    /// How the run ended (refines `completed` under faults).
    pub verdict: RunVerdict,
    /// Rounds until completion (or the budget, if incomplete).
    pub rounds: u64,
    /// Total messages sent.
    pub messages: u64,
    /// Total pointers carried by delivered messages.
    pub pointers: u64,
    /// Total bit complexity.
    pub bits: u64,
    /// Messages lost to fault injection, by cause (total is
    /// [`DropTally::total`]).
    pub drops: DropTally,
    /// Retransmission attempts made by the reliable-delivery layer.
    pub retransmissions: u64,
    /// Suspicions retracted by the failure detector after recoveries.
    pub detector_retractions: u64,
    /// Maximum messages any single node sent.
    pub max_sent_messages: u64,
    /// Maximum messages any single node received.
    pub max_recv_messages: u64,
    /// Mean messages per node.
    pub mean_messages_per_node: f64,
    /// Soundness verdict: no fabricated ids, initial knowledge retained,
    /// and — when the run completed under the default predicate — the
    /// completion is real.
    pub sound: bool,
}

impl RunReport {
    /// Total messages lost to fault injection (shorthand for
    /// `self.drops.total()`).
    pub fn dropped(&self) -> u64 {
        self.drops.total()
    }
}

/// Runs `kind` on the instance described by `config`.
///
/// # Panics
///
/// Panics if `config.n == 0` or the generated knowledge graph is not
/// weakly connected (the generators guarantee it is).
pub fn run(kind: AlgorithmKind, config: &RunConfig) -> RunReport {
    match kind {
        AlgorithmKind::Flooding => run_algorithm(&Flooding, config),
        AlgorithmKind::NameDropper => run_algorithm(&NameDropper, config),
        AlgorithmKind::PointerDoubling => run_algorithm(&PointerDoubling, config),
        AlgorithmKind::Swamping => run_algorithm(&Swamping, config),
        AlgorithmKind::RandomPointerJump => run_algorithm(&RandomPointerJump, config),
        AlgorithmKind::Hm(cfg) => run_algorithm(&HmDiscovery::new(cfg), config),
    }
}

/// Runs any [`DiscoveryAlgorithm`] on the instance described by `config`,
/// on the engine `config.engine` selects.
///
/// # Panics
///
/// Panics if `config.faults` is inconsistent with the instance — a
/// crash, recovery, or partition naming a node `>= n` or scheduled past
/// `max_rounds` (see [`FaultPlan::validate`]).
pub fn run_algorithm<A: DiscoveryAlgorithm>(alg: &A, config: &RunConfig) -> RunReport
where
    A::NodeState: Node + Send,
    <A::NodeState as Node>::Msg: Send,
{
    if let Err(err) = config.faults.validate(config.n, config.max_rounds) {
        panic!("invalid fault plan: {err}");
    }
    let graph = config.topology.generate(config.n, config.seed);
    let initial = problem::initial_knowledge(&graph);
    let nodes = alg.make_nodes(&initial);
    let seed = config.seed;
    match config.engine {
        EngineKind::Sequential => drive(alg, config, &initial, Engine::new(nodes, seed)),
        EngineKind::Sharded { workers } => drive(
            alg,
            config,
            &initial,
            ShardedEngine::new(nodes, seed, workers),
        ),
        EngineKind::Event { latency } => drive(
            alg,
            config,
            &initial,
            Engine::new(nodes, seed).with_latency(latency),
        ),
    }
}

/// Applies everything `config` asks of an engine — faults, delivery
/// policy, causal trace, recorder — to a freshly constructed one.
fn configure<A, E>(alg: &A, config: &RunConfig, initial: &problem::InitialKnowledge, engine: E) -> E
where
    A: DiscoveryAlgorithm,
    E: RoundEngine<A::NodeState>,
{
    let mut engine = engine.with_faults(config.faults.clone());
    if let Some(policy) = config.reliable {
        engine = engine.with_reliable_delivery(policy);
    }
    let Some(spec) = &config.obs else {
        return engine;
    };
    if let Some((capacity, sample_ppm)) = spec.causal {
        engine = engine.with_causal_trace(make_causal_trace(capacity, sample_ppm, initial));
    }
    engine.with_obs(make_recorder(&alg.name(), config, spec))
}

/// Builds the causal provenance trace for one run, with every pair of
/// the initial knowledge graph declared a DAG root — nothing *caused*
/// the initial pointers, so chains terminate there.
fn make_causal_trace(
    capacity: usize,
    sample_ppm: u32,
    initial: &problem::InitialKnowledge,
) -> CausalTrace {
    let mut trace = CausalTrace::new(capacity, sample_ppm);
    trace.seed_known(initial.rows().enumerate().flat_map(|(node, ids)| {
        ids.iter()
            .map(move |id| (u32::from(*id), node as u32))
            .chain(std::iter::once((node as u32, node as u32)))
    }));
    trace
}

/// Builds the telemetry recorder for one run: identity from the config,
/// the archive and profiling as the spec asks.
fn make_recorder(algorithm: &str, config: &RunConfig, spec: &ObsSpec) -> Recorder {
    let mut rec = Recorder::new(RunMeta {
        algorithm: algorithm.to_string(),
        topology: config.topology.name(),
        n: config.n,
        seed: config.seed,
        engine: config.engine.name(),
        workers: config.engine.workers(),
        latency_model: config.engine.latency_model(),
    });
    if let Some(path) = &spec.archive {
        rec = rec.with_sink(Box::new(JsonlArchiveSink::new(path.clone())));
    }
    if spec.profile {
        rec = rec.with_profiling();
    }
    rec
}

/// Why the round loop ended.
enum Exit {
    Completed,
    Stalled,
    BudgetExhausted,
}

/// The watchdog's last-progress tracker. Knowledge is monotone, so the
/// live population's total knowledge is a convergence potential — a
/// full stall window without growth means waiting longer cannot help.
#[derive(Debug, Default)]
struct Progress {
    last_total: Option<u64>,
    /// The last round in which the total grew (0 when nothing was
    /// learned after the initial knowledge).
    last_progress: u64,
    /// Consecutive observations since without growth.
    stagnant: u64,
}

impl Progress {
    /// Feeds the live population's total knowledge after `round`.
    fn observe(&mut self, round: u64, total: u64) {
        if self.last_total == Some(total) {
            self.stagnant += 1;
        } else {
            self.stagnant = 0;
            self.last_total = Some(total);
            self.last_progress = round;
        }
    }
}

/// Minimum interval between two stderr heartbeat lines.
const HEARTBEAT_INTERVAL: Duration = Duration::from_secs(1);

/// The run's outcome as its archive summary records it.
fn outcome_obs(report: &RunReport) -> RunOutcomeObs {
    RunOutcomeObs {
        verdict: report.verdict.name().to_string(),
        completed: report.completed,
        sound: report.sound,
        rounds: report.rounds,
        messages: report.messages,
        pointers: report.pointers,
        // A run keeps no message trace; the archive schema still
        // carries the two counts.
        trace_events: 0,
        trace_overflow: 0,
        last_progress: match report.verdict {
            RunVerdict::Stalled { last_progress } => Some(last_progress),
            _ => None,
        },
    }
}

/// Configures `engine`, runs the completion loop, verifies soundness
/// and assembles the report — on any engine.
fn drive<A, E>(
    alg: &A,
    config: &RunConfig,
    initial: &problem::InitialKnowledge,
    engine: E,
) -> RunReport
where
    A: DiscoveryAlgorithm,
    E: RoundEngine<A::NodeState>,
{
    let mut engine = configure(alg, config, initial, engine);
    let completion = config.completion;
    // Permanently crashed nodes are exempt from every completion
    // requirement: they neither learn nor need to be learned by the
    // survivors. Nodes scheduled to recover are NOT exempt — the run
    // must wait for them to rejoin and catch up.
    let live: Vec<bool> = (0..config.n)
        .map(|i| !config.faults.is_permanently_crashed(i))
        .collect();
    let live_mask = problem::LiveMask::new(&live);
    let is_done = |nodes: &[A::NodeState]| match completion {
        Completion::EveryoneKnowsEveryone => live_mask.everyone_knows_everyone(nodes),
        Completion::LeaderKnowsAll => live_mask.leader_knows_all(nodes),
        Completion::AllBelieveDone => nodes
            .iter()
            .zip(&live)
            .all(|(n, &l)| !l || n.believes_done()),
    };
    // When telemetry is on, the recorder turns the per-round knowledge
    // totals into knowledge deltas at finish; under profiling the
    // memory timeline needs `KnowledgeView::resident_bytes` too.
    let obs_on = engine.obs_mut().is_some();
    let profiling = engine.obs_mut().is_some_and(|rec| rec.profiling_enabled());
    // The stderr heartbeat: when the last line printed (the run's start
    // before the first) and the round and message count it showed, so
    // each line's rates cover the interval since the one before.
    let heartbeat = obs_on && config.obs.as_ref().is_some_and(|spec| spec.heartbeat);
    let mut last_beat = heartbeat.then(|| (Instant::now(), 0, 0));

    let mut knowledge: Vec<(u64, u64)> = Vec::new();
    let mut progress = Progress::default();
    // Every pass observes the population after `round` rounds — round 0
    // is the initial knowledge — then decides whether to run another.
    let exit = loop {
        let round = engine.round();
        if obs_on || config.stall_window.is_some() {
            let (known, live_known) =
                engine
                    .nodes()
                    .iter()
                    .zip(&live)
                    .fold((0, 0), |(known, live_known), (node, &l)| {
                        let count = node.knows_count() as u64;
                        (known + count, live_known + if l { count } else { 0 })
                    });
            progress.observe(round, live_known);
            if obs_on {
                knowledge.push((round, known));
            }
        }
        // Resident bytes are summed on every profiled round, for the
        // memory timeline, and on every round that prints a heartbeat.
        let beat = last_beat.filter(|&(at, ..)| round > 0 && at.elapsed() >= HEARTBEAT_INTERVAL);
        if profiling || beat.is_some() {
            let resident: u64 = engine.nodes().iter().map(|s| s.resident_bytes()).sum();
            if let Some(rec) = engine.obs_mut() {
                rec.profile_memory(round, resident);
            }
            if let Some((at, beat_round, beat_messages)) = beat {
                let secs = at.elapsed().as_secs_f64();
                let messages = engine.metrics().total_messages();
                eprintln!(
                    "[{}] round {round} | {:.1} rounds/s | {:.0} msgs/s | resident {:.1} MiB",
                    alg.name(),
                    (round - beat_round) as f64 / secs,
                    (messages - beat_messages) as f64 / secs,
                    resident as f64 / (1024.0 * 1024.0)
                );
                last_beat = Some((Instant::now(), round, messages));
            }
        }
        if is_done(engine.nodes()) {
            break Exit::Completed;
        }
        if config
            .stall_window
            .is_some_and(|window| progress.stagnant >= window)
        {
            break Exit::Stalled;
        }
        if round >= config.max_rounds {
            break Exit::BudgetExhausted;
        }
        engine.step();
    };
    let completed = matches!(exit, Exit::Completed);
    let rounds = engine.round();

    let nodes = engine.nodes();
    let mut sound = verify::no_fabricated_ids(nodes) && verify::knows_self(nodes);
    if config.faults.is_fault_free() {
        // Crashed nodes legitimately miss initial knowledge updates.
        sound &= verify::retains_initial_knowledge(nodes, initial);
    }
    // Completion under `EveryoneKnowsEveryone` is the last `is_done`
    // answering true on these very nodes, so it is not asked again. That
    // answer implies the live-component check: every live node knows
    // every live node, its own component's included. A fault-free
    // instance is one weakly connected component, where the check would
    // repeat the predicate itself; it runs only with a node dead, as the
    // in-run cross-check of the oracle the churn property tests rely on.
    if completed && completion == Completion::EveryoneKnowsEveryone && live.contains(&false) {
        sound &= verify::live_component_complete(nodes, initial, &live);
    }

    let verdict = match exit {
        Exit::Completed if live.contains(&false) => RunVerdict::DegradedComplete,
        Exit::Completed => RunVerdict::Complete,
        Exit::Stalled => RunVerdict::Stalled {
            last_progress: progress.last_progress,
        },
        Exit::BudgetExhausted => RunVerdict::BudgetExhausted,
    };
    let recorder = engine.take_obs();
    let causal = engine.take_causal();
    let m = engine.metrics();
    let report = RunReport {
        algorithm: alg.name(),
        topology: config.topology.name(),
        n: config.n,
        seed: config.seed,
        completed,
        verdict,
        rounds,
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
    };

    if let Some(mut rec) = recorder {
        rec.registry_mut()
            .add_counter("detector_retractions_total", m.detector_retractions());
        if let Some(trace) = causal {
            rec.attach_causal(trace);
        }
        if let Err(err) = rec.finish(
            outcome_obs(&report),
            &m.per_node_sent_messages(),
            &m.per_node_recv_messages(),
            &knowledge,
            &[],
        ) {
            eprintln!("warning: telemetry export failed: {err}");
        }
    }

    report
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Runs `alg` fault-free, then replays the same instance on the
    /// same engine for the run's rounds and asks the live-component
    /// oracle of the nodes it ends with — the check the run itself
    /// skips when every node is live.
    fn fault_free_run_covers_the_live_component<A>(alg: &A, config: &RunConfig)
    where
        A: DiscoveryAlgorithm,
        A::NodeState: Node + Send,
        <A::NodeState as Node>::Msg: Send,
    {
        assert!(config.faults.is_fault_free());
        let report = run_algorithm(alg, config);
        assert!(report.completed && report.sound, "{report:?}");
        let initial = problem::initial_knowledge(&config.topology.generate(config.n, config.seed));
        let mut engine = Engine::new(alg.make_nodes(&initial), config.seed);
        while engine.round() < report.rounds {
            engine.step();
        }
        let live = vec![true; config.n];
        assert!(
            verify::live_component_complete(engine.nodes(), &initial, &live),
            "{}",
            report.algorithm
        );
    }

    #[test]
    fn fault_free_runs_end_on_a_complete_live_component() {
        // Random pointer jump is left out: on directed instances it
        // need not converge at all.
        for (topology, n, seed) in [(Topology::KOut { k: 3 }, 96, 4), (Topology::Cycle, 40, 9)] {
            let config = RunConfig::new(topology, n, seed).with_max_rounds(5_000);
            fault_free_run_covers_the_live_component(&Flooding, &config);
            fault_free_run_covers_the_live_component(&NameDropper, &config);
            fault_free_run_covers_the_live_component(&PointerDoubling, &config);
            fault_free_run_covers_the_live_component(&Swamping, &config);
            fault_free_run_covers_the_live_component(
                &HmDiscovery::new(HmConfig::default()),
                &config,
            );
        }
    }

    #[test]
    fn all_contenders_complete_soundly_on_the_default_workload() {
        for kind in AlgorithmKind::contenders() {
            let report = run(kind, &RunConfig::new(Topology::KOut { k: 3 }, 128, 1));
            assert!(report.completed, "{} incomplete", report.algorithm);
            assert!(report.sound, "{} unsound", report.algorithm);
            assert!(report.rounds > 0);
            assert!(report.messages > 0);
            assert!(report.bits > report.pointers);
        }
    }

    #[test]
    fn leader_completion_is_no_later_than_everyone() {
        for kind in AlgorithmKind::contenders() {
            let base = RunConfig::new(Topology::Cycle, 64, 2);
            let everyone = run(kind, &base.clone());
            let leader = run(
                kind,
                &RunConfig::new(Topology::Cycle, 64, 2).with_completion(Completion::LeaderKnowsAll),
            );
            assert!(everyone.completed && leader.completed);
            assert!(
                leader.rounds <= everyone.rounds,
                "{}: leader {} > everyone {}",
                everyone.algorithm,
                leader.rounds,
                everyone.rounds
            );
        }
    }

    #[test]
    fn budget_exhaustion_reports_incomplete() {
        let report = run(
            AlgorithmKind::NameDropper,
            &RunConfig::new(Topology::Path, 128, 3).with_max_rounds(2),
        );
        assert!(!report.completed);
        assert_eq!(report.rounds, 2);
    }

    #[test]
    fn believes_done_completion_for_hm() {
        let report = run(
            AlgorithmKind::Hm(HmConfig::default()),
            &RunConfig::new(Topology::KOut { k: 3 }, 64, 5)
                .with_completion(Completion::AllBelieveDone),
        );
        assert!(report.completed);
        assert!(report.sound);
    }

    #[test]
    fn crashes_with_detector_reach_full_completion_among_survivors() {
        let faults = FaultPlan::new()
            .with_crashes([3, 17, 40, 55])
            .with_crash_detection_after(30);
        let report = run(
            AlgorithmKind::Hm(HmConfig::default()),
            &RunConfig::new(Topology::KOut { k: 6 }, 64, 5)
                .with_faults(faults)
                .with_max_rounds(50_000),
        );
        assert!(report.completed, "survivors did not complete");
        assert!(report.sound);
        assert_eq!(report.verdict, RunVerdict::DegradedComplete);
        assert!(report.drops.crash > 0);
    }

    #[test]
    fn fault_free_completion_is_a_plain_complete_verdict() {
        let report = run(
            AlgorithmKind::Flooding,
            &RunConfig::new(Topology::KOut { k: 3 }, 64, 1).with_stall_window(50),
        );
        assert_eq!(report.verdict, RunVerdict::Complete);
        assert_eq!(report.retransmissions, 0);
        assert_eq!(report.detector_retractions, 0);
    }

    #[test]
    fn watchdog_reports_stall_on_a_dead_cut() {
        // Node 8 is the only bridge of the path; crashing it for good
        // splits the live population, so full completion is impossible
        // and knowledge saturates quickly. The watchdog must fire well
        // before the round budget.
        let faults = FaultPlan::new().with_crashes([8]);
        let report = run(
            AlgorithmKind::Flooding,
            &RunConfig::new(Topology::Path, 16, 3)
                .with_faults(faults)
                .with_max_rounds(10_000)
                .with_stall_window(25),
        );
        assert!(!report.completed);
        let RunVerdict::Stalled { last_progress } = report.verdict else {
            panic!("expected a stalled verdict, got {:?}", report.verdict);
        };
        assert!(report.rounds < 10_000, "watchdog never fired");
        // The watermark names the round knowledge last grew: exactly one
        // stall window before the watchdog fired.
        assert_eq!(last_progress, report.rounds - 25);
    }

    #[test]
    fn the_progress_tracker_advances_only_on_growth() {
        let mut progress = Progress::default();
        // The first observation is the baseline, whatever its round.
        progress.observe(0, 10);
        assert_eq!((progress.last_progress, progress.stagnant), (0, 0));
        progress.observe(1, 10);
        progress.observe(2, 10);
        assert_eq!((progress.last_progress, progress.stagnant), (0, 2));
        progress.observe(3, 11);
        assert_eq!((progress.last_progress, progress.stagnant), (3, 0));
        // Observations may skip rounds: the watermark names the round
        // that saw the growth, and only growth moves it.
        progress.observe(9, 11);
        assert_eq!((progress.last_progress, progress.stagnant), (3, 1));
        progress.observe(12, 14);
        assert_eq!((progress.last_progress, progress.stagnant), (12, 0));
    }

    #[test]
    fn budget_exhaustion_verdict_without_watchdog() {
        let report = run(
            AlgorithmKind::NameDropper,
            &RunConfig::new(Topology::Path, 128, 3).with_max_rounds(2),
        );
        assert_eq!(report.verdict, RunVerdict::BudgetExhausted);
    }

    #[test]
    fn recovered_nodes_rejoin_and_the_run_completes_undegraded() {
        // Node 5 is down for rounds 1..4; messages it misses come back
        // through the retransmit layer, and since it recovers it is NOT
        // exempt from completion — the verdict must be a plain Complete.
        let faults = FaultPlan::new().with_crash_at(5, 1).with_recovery_at(5, 4);
        let report = run(
            AlgorithmKind::Flooding,
            &RunConfig::new(Topology::KOut { k: 3 }, 32, 7)
                .with_faults(faults)
                .with_reliable_delivery(rd_sim::RetryPolicy::default())
                .with_max_rounds(500),
        );
        assert!(report.completed, "recovered node never caught up");
        assert_eq!(report.verdict, RunVerdict::Complete);
        assert!(report.retransmissions > 0);
        assert!(report.sound);
    }

    #[test]
    fn hm_reintegrates_a_recovered_suspect() {
        // Node 9 is down for rounds 5..20 with a 2-round detection
        // delay: survivors suspect it at 7 and purge it; the retraction
        // at 22 readmits it, and the run must still reach FULL
        // completion (node 9 is live at the end, so it is not exempt).
        let faults = FaultPlan::new()
            .with_crash_at(9, 5)
            .with_recovery_at(9, 20)
            .with_crash_detection_after(2);
        let report = run(
            AlgorithmKind::Hm(HmConfig::default()),
            &RunConfig::new(Topology::KOut { k: 3 }, 48, 11)
                .with_faults(faults)
                .with_reliable_delivery(rd_sim::RetryPolicy::default())
                .with_max_rounds(50_000),
        );
        assert!(report.completed, "recovered suspect never re-integrated");
        assert_eq!(report.verdict, RunVerdict::Complete);
        assert!(report.detector_retractions > 0);
        assert!(report.sound);
    }

    #[test]
    #[should_panic(expected = "invalid fault plan")]
    fn out_of_range_fault_plans_are_rejected() {
        let faults = FaultPlan::new().with_crashes([99]);
        run(
            AlgorithmKind::Flooding,
            &RunConfig::new(Topology::Cycle, 8, 0).with_faults(faults),
        );
    }

    #[test]
    fn crashes_without_detector_still_reach_leader_completion() {
        // Dead frontier targets block quiescence (so the final roster
        // never goes out), but the classic leader-knows-all notion is
        // still reached.
        let faults = FaultPlan::new().with_crashes([3, 17]);
        let report = run(
            AlgorithmKind::Hm(HmConfig::default()),
            &RunConfig::new(Topology::KOut { k: 6 }, 64, 5)
                .with_faults(faults)
                .with_completion(Completion::LeaderKnowsAll)
                .with_max_rounds(50_000),
        );
        assert!(report.completed);
    }

    #[test]
    fn drops_are_reported() {
        let report = run(
            AlgorithmKind::Hm(HmConfig::default()),
            &RunConfig::new(Topology::KOut { k: 3 }, 64, 5)
                .with_faults(FaultPlan::new().with_drop_probability(0.05)),
        );
        assert!(report.completed);
        assert!(report.dropped() > 0);
    }

    #[test]
    fn report_names_match_inputs() {
        let report = run(
            AlgorithmKind::PointerDoubling,
            &RunConfig::new(Topology::Grid2d, 36, 0),
        );
        assert_eq!(report.algorithm, "pointer-doubling");
        assert_eq!(report.topology, "grid");
        assert_eq!(report.n, 36);
    }

    #[test]
    fn deterministic_reports() {
        let cfg = RunConfig::new(Topology::ErdosRenyi { avg_degree: 4 }, 96, 17);
        let a = run(AlgorithmKind::Hm(HmConfig::default()), &cfg);
        let b = run(AlgorithmKind::Hm(HmConfig::default()), &cfg);
        assert_eq!(a, b);
    }
}
