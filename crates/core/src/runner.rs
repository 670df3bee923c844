//! One-call execution of a discovery run with full complexity reporting.

use crate::algorithms::hm::HmConfig;
use crate::algorithms::{
    DiscoveryAlgorithm, Flooding, HmDiscovery, KnowledgeView, NameDropper, PointerDoubling,
    RandomPointerJump, Swamping,
};
use crate::{problem, verify};
use rd_exec::ShardedEngine;
use rd_graphs::Topology;
use rd_obs::{
    CausalTrace, ChromeTraceSink, FoldedStackSink, Heartbeat, JsonlArchiveSink, LiveBus,
    LivePublisher, LiveServer, LiveSnapshot, MonitorEngine, PrometheusSink, Recorder, RunMeta,
    RunOutcomeObs,
};
use rd_sim::{DropTally, Engine, FaultPlan, LatencyModel, Node, RetryPolicy, RoundEngine};
use std::path::PathBuf;
use std::sync::Arc;

// Downstream crates (rd-scenarios, the facade binaries) configure live
// telemetry through [`ObsSpec::with_live`]; re-export the types that
// flow through that API so they don't need a direct rd-obs dependency.
pub use rd_obs::{Alert, AlertLog, AlertRule, LiveSpec};

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
/// stepping *and* parallel routing — message fates are counter-derived per `(seed,
/// sender, round, sequence)`, so the routing phase shards as cleanly as
/// the stepping phase — which starts paying off for populations around
/// 2¹⁴ and up on multicore hosts.
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
/// Attached with [`RunConfig::with_obs`]; every enabled exporter writes
/// its artifact atomically at run end. Telemetry is strictly
/// observational: the run itself is bit-identical with or without a
/// spec (pinned by `tests/prop_engine_equivalence.rs`).
#[derive(Debug, Clone, Default)]
pub struct ObsSpec {
    /// Schema-versioned JSONL run archive (read by `rd-inspect`).
    pub archive: Option<PathBuf>,
    /// Chrome trace-event JSON (load in Perfetto / `chrome://tracing`).
    pub chrome_trace: Option<PathBuf>,
    /// Prometheus text exposition snapshot.
    pub prometheus: Option<PathBuf>,
    /// Causal knowledge-provenance tracing as `(pair capacity,
    /// sampling rate in ppm)`; the DAG lands in the archive's causal
    /// section and feeds `rd-inspect why` / `path`.
    pub causal: Option<(usize, u32)>,
    /// Cost-attribution profiling: per-phase/per-shard wall time,
    /// per-kind message costs, and the memory timeline land in the
    /// archive's `profile_*` section and feed
    /// `rd-inspect profile` / `flame`.
    pub profile: bool,
    /// Folded-stack file for flamegraph tooling (implies [`profile`]).
    ///
    /// [`profile`]: Self::profile
    pub folded: Option<PathBuf>,
    /// Rate-limited stderr heartbeat (round, rounds/s, msgs/s, resident
    /// bytes) for long runs. Output only — never affects the run.
    pub heartbeat: bool,
    /// Live telemetry: per-round snapshots on a never-blocking bus, a
    /// loopback HTTP scrape endpoint (`/metrics`, `/status`,
    /// `/healthz`), and online alert rules. Strictly one-way facts out
    /// of the run — the round loop never reads anything back.
    pub live: Option<LiveSpec>,
}

impl ObsSpec {
    /// A spec with no exporters: metrics and spans are still recorded
    /// (useful for overhead measurement), nothing is written.
    pub fn new() -> Self {
        ObsSpec::default()
    }

    /// Writes the JSONL run archive to `path`.
    pub fn with_archive(mut self, path: impl Into<PathBuf>) -> Self {
        self.archive = Some(path.into());
        self
    }

    /// Writes the Chrome trace-event JSON to `path`.
    pub fn with_chrome_trace(mut self, path: impl Into<PathBuf>) -> Self {
        self.chrome_trace = Some(path.into());
        self
    }

    /// Writes the Prometheus text snapshot to `path`.
    pub fn with_prometheus(mut self, path: impl Into<PathBuf>) -> Self {
        self.prometheus = Some(path.into());
        self
    }

    /// Enables causal knowledge-provenance tracing: the engine records,
    /// for up to `capacity` `(id, node)` pairs, the first delivered
    /// message that taught `node` about `id`, sampling messages
    /// deterministically at `sample_ppm` parts per million (values
    /// `>= 1_000_000` trace every message). Purely observational, like
    /// every other exporter.
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

    /// Writes a folded-stack file (one line per `engine;lane;phase`
    /// stack, suitable for `flamegraph.pl` / inferno) to `path`.
    /// Implies profiling.
    pub fn with_folded(mut self, path: impl Into<PathBuf>) -> Self {
        self.folded = Some(path.into());
        self.profile = true;
        self
    }

    /// Emits a rate-limited progress heartbeat on stderr while the run
    /// executes.
    pub fn with_heartbeat(mut self) -> Self {
        self.heartbeat = true;
        self
    }

    /// Attaches live telemetry: the driver publishes a per-round
    /// snapshot to a lock-light bus, serves it over a loopback HTTP
    /// endpoint, and evaluates the spec's alert rules online.
    pub fn with_live(mut self, live: LiveSpec) -> Self {
        self.live = Some(live);
        self
    }

    /// Whether profiling is requested (directly or via a folded-stack
    /// export).
    pub fn profiling(&self) -> bool {
        self.profile || self.folded.is_some()
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
    /// Telemetry exporters, if observability is enabled.
    pub obs: Option<ObsSpec>,
    /// Message-trace ring capacity, if tracing is enabled.
    pub trace_capacity: Option<usize>,
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
            trace_capacity: None,
        }
    }

    /// Enables observability: telemetry is recorded during the run and
    /// exported through the spec's sinks at run end.
    pub fn with_obs(mut self, spec: ObsSpec) -> Self {
        self.obs = Some(spec);
        self
    }

    /// Enables message tracing with the given ring capacity (events past
    /// the cap are counted, not stored; see `RunReport::trace_overflow`).
    pub fn with_trace(mut self, capacity: usize) -> Self {
        self.trace_capacity = Some(capacity);
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
    /// Messages the trace observed (stored plus overflowed); 0 when
    /// tracing is disabled.
    pub trace_events: u64,
    /// Trace events discarded because the ring capacity was exceeded —
    /// when nonzero, the stored trace is a truncated prefix.
    pub trace_overflow: u64,
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
/// policy, traces, recorder — to a freshly constructed one.
fn configure<A, E>(alg: &A, config: &RunConfig, initial: &problem::InitialKnowledge, engine: E) -> E
where
    A: DiscoveryAlgorithm,
    E: RoundEngine<A::NodeState>,
{
    let mut engine = engine.with_faults(config.faults.clone());
    if let Some(policy) = config.reliable {
        engine = engine.with_reliable_delivery(policy);
    }
    if let Some(capacity) = config.trace_capacity {
        engine = engine.with_trace(capacity);
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
/// one sink per exporter the spec enables.
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
    if let Some(path) = &spec.chrome_trace {
        rec = rec.with_sink(Box::new(ChromeTraceSink::new(path.clone())));
    }
    if let Some(path) = &spec.prometheus {
        rec = rec.with_sink(Box::new(PrometheusSink::new(path.clone())));
    }
    if spec.profiling() {
        rec = rec.with_profiling();
    }
    if let Some(path) = &spec.folded {
        rec = rec.with_sink(Box::new(FoldedStackSink::new(path.clone())));
    }
    rec
}

/// Why the round loop ended.
enum Exit {
    Completed,
    Stalled,
    BudgetExhausted,
}

/// The one last-progress tracker: the watchdog's state, and what live
/// snapshots report. Knowledge is monotone, so the live population's
/// total knowledge is a convergence potential — a full stall window
/// without growth means waiting longer cannot help.
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

/// What the driver measured about the population after one round, each
/// sum taken at most once and handed to every consumer that wants it:
/// the recorder's knowledge series (`known`), the watchdog and live
/// snapshots (`live_known`), the memory timeline and snapshots
/// (`resident`). Engines cannot see algorithm knowledge, so these
/// observations live here.
#[derive(Default)]
struct RoundFacts {
    round: u64,
    known: u64,
    live_known: u64,
    resident: u64,
}

/// The live snapshot of the run after `facts.round` rounds.
fn snapshot<N: Node, E: RoundEngine<N>>(
    base: &LiveSnapshot,
    engine: &mut E,
    facts: &RoundFacts,
    progress: &Progress,
) -> LiveSnapshot {
    let mut snap = base.clone();
    snap.round = facts.round;
    let m = engine.metrics();
    snap.messages = m.total_messages();
    snap.retransmissions = m.total_retransmissions();
    let d = m.drop_tally();
    snap.dropped_coin = d.coin;
    snap.dropped_crash = d.crash;
    snap.dropped_partition = d.partition;
    snap.dropped_link = d.link;
    snap.dropped_suppression = d.suppression;
    snap.knowledge_total = facts.live_known;
    snap.last_progress = progress.last_progress;
    snap.resident_bytes = facts.resident;
    snap.pool_bytes = engine.pool_high_water().iter().map(|&(_, b)| b).sum();
    if let Some(rec) = engine.obs_mut() {
        snap.shard_busy_ns = rec.live_shard_busy().to_vec();
        snap.round_wall_ns = rec.last_round_wall_ns();
    }
    snap
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
    let mut heartbeat = config
        .obs
        .as_ref()
        .is_some_and(|s| s.heartbeat)
        .then(|| Heartbeat::new(alg.name()));
    // Live telemetry: a bus the loopback HTTP server reads from, a
    // publisher that stamps throughput rates (shared with the stderr
    // heartbeat, which renders the same snapshot), and the online
    // monitor. All strictly one-way out of the run — a bind failure
    // degrades to a warning rather than changing the run.
    let live_spec = config.obs.as_ref().and_then(|s| s.live.clone());
    let mut live_bus: Option<Arc<LiveBus>> = None;
    let mut live_server: Option<LiveServer> = None;
    if let Some(spec) = &live_spec {
        let bus = Arc::new(LiveBus::new());
        let addr = spec.addr.as_deref().unwrap_or("127.0.0.1:0");
        match LiveServer::start(addr, bus.clone()) {
            Ok(server) => {
                eprintln!("[rd-live] serving http://{}", server.addr());
                live_server = Some(server);
                live_bus = Some(bus);
            }
            Err(err) => eprintln!("warning: rd-live failed to bind {addr}: {err}"),
        }
    }
    let live_on = live_bus.is_some();
    let mut publisher = (live_on || heartbeat.is_some()).then(|| match &live_bus {
        Some(bus) => LivePublisher::with_bus(bus.clone()),
        None => LivePublisher::new(),
    });
    let mut monitor = live_spec
        .as_ref()
        .filter(|s| !s.rules.is_empty())
        .map(|s| MonitorEngine::new(s.rules.clone()));
    let alert_log = live_spec.as_ref().and_then(|s| s.log.clone());
    let mut alerts_fired: u64 = 0;
    let mut snap_base = LiveSnapshot::default();
    if publisher.is_some() {
        snap_base.algorithm = alg.name();
        snap_base.topology = config.topology.name();
        snap_base.engine = config.engine.name();
        snap_base.n = config.n as u64;
        snap_base.seed = config.seed;
        snap_base.workers = config.engine.workers() as u64;
        snap_base.max_rounds = config.max_rounds;
        // Every live node must know every live node (the default
        // completion notion): live² identifiers in total.
        let live_count = live_mask.count() as u64;
        snap_base.knowledge_target = live_count * live_count;
    }

    let mut knowledge: Vec<(u64, u64)> = Vec::new();
    let mut mem_samples: Vec<(u64, u64)> = Vec::new();
    let mut progress = Progress::default();
    let mut facts = RoundFacts::default();
    // Every pass observes the population after `round` rounds — round 0
    // is the initial knowledge — then decides whether to run another.
    let exit =
        loop {
            let round = engine.round();
            facts.round = round;
            // Snapshots go out every round under live telemetry, and at the
            // heartbeat's own rate otherwise — so a heartbeat-only run pays
            // the sampling cost at the heartbeat rate, not the round rate.
            // Neither reports the initial state.
            let publish = round > 0 && (live_on || heartbeat.as_ref().is_some_and(Heartbeat::due));
            let watching = config.stall_window.is_some() || live_on || publish;
            if obs_on || watching {
                (facts.known, facts.live_known) = engine.nodes().iter().zip(&live).fold(
                    (0, 0),
                    |(known, live_known), (node, &l)| {
                        let count = node.knows_count() as u64;
                        (known + count, live_known + if l { count } else { 0 })
                    },
                );
            }
            if obs_on {
                knowledge.push((round, facts.known));
            }
            if watching {
                progress.observe(round, facts.live_known);
            }
            if profiling || live_on || publish {
                facts.resident = engine.nodes().iter().map(|s| s.resident_bytes()).sum();
            }
            if profiling {
                mem_samples.push((round, facts.resident));
            }
            if publish {
                let mut snap = snapshot(&snap_base, &mut engine, &facts, &progress);
                if let Some(mon) = &mut monitor {
                    for alert in mon.evaluate(&snap) {
                        alerts_fired += 1;
                        eprintln!("[rd-live] ALERT {}: {}", alert.rule, alert.message);
                        if let Some(log) = &alert_log {
                            log.push(alert.clone());
                        }
                        if let Some(rec) = engine.obs_mut() {
                            rec.record_alert(alert);
                        }
                    }
                }
                snap.alerts = alerts_fired;
                if let Some(p) = &mut publisher {
                    p.publish(&mut snap);
                }
                if let Some(hb) = &mut heartbeat {
                    hb.emit(&snap);
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
    if completed && completion == Completion::EveryoneKnowsEveryone {
        sound &= live_mask.everyone_knows_everyone(nodes);
        // Redundant given the predicate above, but it exercises the
        // fault-aware check the churn property tests rely on.
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

    // Terminal snapshot: scrape threads see the verdict before the
    // server goes away. `publish_final` blocks on the back slot — the
    // terminal state must not be dropped to a concurrent reader.
    if live_on {
        let mut snap = snapshot(&snap_base, &mut engine, &facts, &progress);
        snap.alerts = alerts_fired;
        snap.finished = true;
        snap.verdict = verdict.name().to_string();
        if let Some(p) = &mut publisher {
            p.publish_final(&mut snap);
        }
    }
    if let Some(server) = live_server.take() {
        server.shutdown();
    }

    let (trace_events, trace_overflow) = engine
        .trace()
        .map(|t| (t.total_events(), t.overflow()))
        .unwrap_or((0, 0));
    let pools = engine.pool_counters();
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
        trace_events,
        trace_overflow,
        sound,
    };

    if let Some(mut rec) = recorder {
        rec.registry_mut()
            .add_counter("detector_retractions_total", m.detector_retractions());
        if let Some(trace) = causal {
            rec.attach_causal(trace);
        }
        if rec.profiling_enabled() {
            for (round, bytes) in &mem_samples {
                rec.profile_memory(*round, *bytes);
            }
            rec.profile_pool_high_water(&engine.pool_high_water());
        }
        let outcome_obs = RunOutcomeObs {
            verdict: verdict.name().to_string(),
            completed,
            sound,
            rounds,
            messages: report.messages,
            pointers: report.pointers,
            trace_events,
            trace_overflow,
            last_progress: match verdict {
                RunVerdict::Stalled { last_progress } => Some(last_progress),
                _ => None,
            },
        };
        if let Err(err) = rec.finish(
            outcome_obs,
            &m.per_node_sent_messages(),
            &m.per_node_recv_messages(),
            &knowledge,
            &pools,
        ) {
            eprintln!("warning: telemetry export failed: {err}");
        }
    }

    report
}

#[cfg(test)]
mod tests {
    use super::*;

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
        // Observations may skip rounds (a heartbeat-only run samples at
        // the heartbeat's rate): the watermark names the round that saw
        // the growth, and only growth moves it.
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
