#![warn(missing_docs)]
#![forbid(unsafe_code)]

//! # rd-scenarios
//!
//! A declarative fault-campaign suite for the resource-discovery
//! reproduction: each [`Scenario`] names a workload (topology,
//! algorithms, engine), a fault campaign ([`FaultPlan`]), and the
//! acceptance [`Thresholds`] the run must meet — verdict class, rounds
//! to converge, message overhead, retransmission overhead. The
//! [`library`] assembles the standing campaign matrix; `scenario_runner`
//! executes it and renders a deterministic pass/fail report.
//!
//! Scenarios are *instantiated* for a concrete `(n, seed)`: fault
//! campaigns that depend on the generated knowledge graph (the
//! adversarial suppression campaign targets the highest-degree contact
//! edges) regenerate it with the same `topology.generate(n, seed)` call
//! the runner itself makes, so the campaign attacks exactly the graph
//! the run uses.

use rd_core::runner::{run, AlgorithmKind, EngineKind, ObsSpec, RunConfig, RunReport, RunVerdict};
use rd_graphs::{DiGraph, Topology};
use rd_sim::{ChurnSpec, FaultPlan, LatencyModel, LinkLossSpec, RetryPolicy, SuppressionSpec};
use std::fmt::Write as _;
use std::path::{Path, PathBuf};

/// The verdict classes a scenario can accept — [`RunVerdict`] with the
/// payload erased, so thresholds can name classes declaratively.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum VerdictClass {
    /// Converged with every machine live.
    Complete,
    /// Converged among the survivors of at least one permanent crash.
    DegradedComplete,
    /// The convergence watchdog fired.
    Stalled,
    /// The round budget ran out.
    BudgetExhausted,
}

impl VerdictClass {
    /// The class of a concrete run verdict.
    pub fn of(verdict: &RunVerdict) -> Self {
        match verdict {
            RunVerdict::Complete => VerdictClass::Complete,
            RunVerdict::DegradedComplete => VerdictClass::DegradedComplete,
            RunVerdict::Stalled { .. } => VerdictClass::Stalled,
            RunVerdict::BudgetExhausted => VerdictClass::BudgetExhausted,
        }
    }

    /// Display name (matches [`RunVerdict::name`]).
    pub fn name(&self) -> &'static str {
        match self {
            VerdictClass::Complete => "complete",
            VerdictClass::DegradedComplete => "degraded-complete",
            VerdictClass::Stalled => "stalled",
            VerdictClass::BudgetExhausted => "budget-exhausted",
        }
    }
}

/// Acceptance gates one scenario run must meet.
#[derive(Debug, Clone)]
pub struct Thresholds {
    /// Verdict classes that count as acceptable endings.
    pub allowed: Vec<VerdictClass>,
    /// Rounds-to-converge ceiling.
    pub max_rounds: u64,
    /// Rounds-to-converge floor (0 disables). Continuous-churn uses
    /// this to prove the run *sustained* the churn regime rather than
    /// slipping past it.
    pub min_rounds: u64,
    /// Ceiling on mean messages per node over the whole run.
    pub max_messages_per_node: f64,
    /// Ceiling on retransmissions as a fraction of messages sent
    /// (`f64::INFINITY` disables; meaningful only with reliable
    /// delivery).
    pub max_retx_overhead: f64,
}

impl Thresholds {
    /// Scales the rounds ceiling by `factor` (floored at 1 round).
    /// `scenario_runner --tighten` uses this to demonstrate that a
    /// deliberately unreachable ceiling produces an attributable
    /// failure, not a silent pass.
    pub fn tighten(&mut self, factor: f64) {
        assert!(factor > 0.0, "tighten factor must be positive");
        self.max_rounds = ((self.max_rounds as f64 * factor) as u64).max(1);
    }
}

/// One declarative fault campaign: workload, faults, and acceptance
/// gates, instantiated for a concrete `(n, seed)`.
#[derive(Debug, Clone)]
pub struct Scenario {
    /// Stable campaign name.
    pub name: &'static str,
    /// One-line description for `--list` and the report.
    pub summary: &'static str,
    /// Initial knowledge-graph family.
    pub topology: Topology,
    /// Algorithms the campaign runs (each is one gated run).
    pub algorithms: Vec<AlgorithmKind>,
    /// Execution engine.
    pub engine: EngineKind,
    /// Fault campaign.
    pub faults: FaultPlan,
    /// Opt-in reliable delivery.
    pub reliable: Option<RetryPolicy>,
    /// Convergence watchdog window, if armed. Must exceed the longest
    /// knowledge plateau the campaign can legitimately cause.
    pub stall_window: Option<u64>,
    /// Hard round budget for the run — set well above
    /// `thresholds.max_rounds` so "converged but too slow" and "never
    /// converged" stay distinguishable.
    pub budget: u64,
    /// Acceptance gates.
    pub thresholds: Thresholds,
    /// Instance size the campaign was instantiated for.
    pub n: usize,
    /// Run seed the campaign was instantiated for.
    pub seed: u64,
}

impl Scenario {
    /// The [`RunConfig`] for one algorithm of this scenario. With
    /// `obs_dir`, the run writes a JSONL run archive plus
    /// a causal provenance trace, so `rd-inspect why` can attribute a
    /// failed gate to its dominant fault cause.
    pub fn run_config(&self, obs_dir: Option<&Path>, algorithm: &AlgorithmKind) -> RunConfig {
        let mut config = RunConfig::new(self.topology, self.n, self.seed)
            .with_engine(self.engine)
            .with_faults(self.faults.clone())
            .with_max_rounds(self.budget);
        if let Some(policy) = self.reliable {
            config = config.with_reliable_delivery(policy);
        }
        if let Some(window) = self.stall_window {
            config = config.with_stall_window(window);
        }
        if let Some(dir) = obs_dir {
            let archive = dir.join(format!("{}-{}.jsonl", self.name, algorithm.name()));
            // Heartbeat: fault campaigns run long enough (churn +
            // reliable delivery can take thousands of rounds) that a
            // rate-limited stderr progress line pays for itself.
            config = config.with_obs(
                ObsSpec::new()
                    .with_archive(archive)
                    .with_causal_trace(1 << 20, 1_000_000)
                    .with_heartbeat(),
            );
        }
        config
    }

    /// Runs every algorithm of the scenario and gates each report.
    pub fn execute(&self, obs_dir: Option<&Path>) -> Vec<ScenarioOutcome> {
        self.algorithms
            .iter()
            .map(|kind| {
                let report = run(*kind, &self.run_config(obs_dir, kind));
                let archive =
                    obs_dir.map(|dir| dir.join(format!("{}-{}.jsonl", self.name, kind.name())));
                gate(self, report, archive)
            })
            .collect()
    }
}

/// One evaluated acceptance gate.
#[derive(Debug, Clone)]
pub struct Check {
    /// Gate name (stable, used in the report).
    pub gate: &'static str,
    /// What the run measured.
    pub actual: String,
    /// What the threshold demands.
    pub limit: String,
    /// Whether the gate held.
    pub pass: bool,
}

/// One gated scenario run: the report plus its per-gate verdicts.
#[derive(Debug, Clone)]
pub struct ScenarioOutcome {
    /// Scenario name.
    pub scenario: String,
    /// Algorithm display name.
    pub algorithm: String,
    /// The run's complexity report.
    pub report: RunReport,
    /// Per-gate verdicts.
    pub checks: Vec<Check>,
    /// Archive path, when the run was observed.
    pub archive: Option<PathBuf>,
}

impl ScenarioOutcome {
    /// Whether every gate held.
    pub fn passed(&self) -> bool {
        self.checks.iter().all(|c| c.pass)
    }
}

/// Evaluates one run report against its scenario's thresholds.
pub fn gate(scenario: &Scenario, report: RunReport, archive: Option<PathBuf>) -> ScenarioOutcome {
    let t = &scenario.thresholds;
    let mut checks = Vec::new();

    let class = VerdictClass::of(&report.verdict);
    let allowed = t
        .allowed
        .iter()
        .map(|v| v.name())
        .collect::<Vec<_>>()
        .join("|");
    checks.push(Check {
        gate: "verdict",
        actual: verdict_detail(&report.verdict),
        limit: allowed,
        pass: t.allowed.contains(&class),
    });

    checks.push(Check {
        gate: "sound",
        actual: report.sound.to_string(),
        limit: "true".into(),
        pass: report.sound,
    });

    checks.push(Check {
        gate: "rounds-ceiling",
        actual: report.rounds.to_string(),
        limit: format!("<= {}", t.max_rounds),
        pass: report.rounds <= t.max_rounds,
    });

    if t.min_rounds > 0 {
        checks.push(Check {
            gate: "rounds-floor",
            actual: report.rounds.to_string(),
            limit: format!(">= {}", t.min_rounds),
            pass: report.rounds >= t.min_rounds,
        });
    }

    checks.push(Check {
        gate: "messages-per-node",
        actual: format!("{:.1}", report.mean_messages_per_node),
        limit: format!("<= {:.1}", t.max_messages_per_node),
        pass: report.mean_messages_per_node <= t.max_messages_per_node,
    });

    if t.max_retx_overhead.is_finite() {
        let overhead = report.retransmissions as f64 / (report.messages.max(1)) as f64;
        checks.push(Check {
            gate: "retx-overhead",
            actual: format!("{overhead:.3}"),
            limit: format!("<= {:.3}", t.max_retx_overhead),
            pass: overhead <= t.max_retx_overhead,
        });
    }

    ScenarioOutcome {
        scenario: scenario.name.to_string(),
        algorithm: report.algorithm.clone(),
        report,
        checks,
        archive,
    }
}

/// Renders a verdict with its payload, e.g. `stalled@137` for a stall
/// whose last knowledge progress was round 137.
fn verdict_detail(verdict: &RunVerdict) -> String {
    match verdict {
        RunVerdict::Stalled { last_progress } => format!("stalled@{last_progress}"),
        other => other.name().to_string(),
    }
}

/// Renders the deterministic pass/fail report for a batch of gated
/// runs. Contains no wall-clock measurements, so the same `(scenarios,
/// n, seed)` renders byte-identically on every host.
pub fn render_report(outcomes: &[ScenarioOutcome]) -> String {
    let mut out = String::new();
    let passed = outcomes.iter().filter(|o| o.passed()).count();
    for o in outcomes {
        let status = if o.passed() { "PASS" } else { "FAIL" };
        let _ = writeln!(
            out,
            "{status} {}/{}: verdict={} rounds={} messages={} retx={} dropped={}",
            o.scenario,
            o.algorithm,
            verdict_detail(&o.report.verdict),
            o.report.rounds,
            o.report.messages,
            o.report.retransmissions,
            o.report.dropped(),
        );
        for c in &o.checks {
            let mark = if c.pass { "ok  " } else { "FAIL" };
            let _ = writeln!(
                out,
                "  {mark} {:<18} {} (need {})",
                c.gate, c.actual, c.limit
            );
        }
        if !o.passed() {
            if let Some(archive) = &o.archive {
                let _ = writeln!(
                    out,
                    "  hint: rd-inspect why {} attributes the failure",
                    archive.display()
                );
            }
        }
    }
    let _ = writeln!(
        out,
        "scenario matrix: {passed}/{} runs passed",
        outcomes.len()
    );
    out
}

/// Salt folded into the run seed for fault-campaign randomness, so a
/// campaign's coins never collude with the protocol's own coins.
const CAMPAIGN_SALT: u64 = 0x7363_656e;

/// The standing campaign matrix, instantiated for `(n, seed)`.
///
/// Rounds thresholds scale with `log2 n`: every campaign here converges
/// in `O(polylog n)` rounds when healthy, so a logarithmic envelope
/// with a generous constant separates "slow" from "broken" at every
/// size the suite runs at (tests use `n = 64`, CI `n = 1024`).
///
/// # Panics
///
/// Panics if `n < 16` (the campaigns partition, crash, and suppress
/// fixed fractions of the population, which needs a minimum of nodes).
pub fn library(n: usize, seed: u64) -> Vec<Scenario> {
    assert!(n >= 16, "scenario campaigns need n >= 16, got {n}");
    let lg = (n as f64).log2().ceil().max(1.0) as u64;
    let fault_seed = seed ^ CAMPAIGN_SALT;
    let retry = RetryPolicy::default();

    vec![
        // A flash crowd: every machine joins knowing only the one
        // bootstrap node (star pointing in). Fault-free; gates pin the
        // healthy convergence envelope on the most lopsided topology.
        Scenario {
            name: "flash-crowd-join",
            summary: "everyone joins via one bootstrap node; fault-free baseline",
            topology: Topology::StarIn,
            algorithms: vec![
                AlgorithmKind::Hm(Default::default()),
                AlgorithmKind::NameDropper,
            ],
            engine: EngineKind::Sequential,
            faults: FaultPlan::new(),
            reliable: None,
            stall_window: None,
            budget: 40 * lg,
            thresholds: Thresholds {
                allowed: vec![VerdictClass::Complete],
                max_rounds: 8 * lg,
                min_rounds: 0,
                max_messages_per_node: 60.0 * lg as f64,
                max_retx_overhead: f64::INFINITY,
            },
            n,
            seed,
        },
        // A datacenter bootstrap: sparse random initial knowledge,
        // driven on the sharded engine to keep the parallel routing
        // path inside the gated matrix.
        Scenario {
            name: "datacenter-bootstrap",
            summary: "sparse k-out bootstrap on the sharded engine; fault-free",
            topology: Topology::KOut { k: 3 },
            algorithms: vec![
                AlgorithmKind::Hm(Default::default()),
                AlgorithmKind::NameDropper,
            ],
            engine: EngineKind::Sharded { workers: 4 },
            faults: FaultPlan::new(),
            reliable: None,
            stall_window: None,
            budget: 40 * lg,
            thresholds: Thresholds {
                allowed: vec![VerdictClass::Complete],
                max_rounds: 8 * lg,
                min_rounds: 0,
                max_messages_per_node: 60.0 * lg as f64,
                max_retx_overhead: f64::INFINITY,
            },
            n,
            seed,
        },
        // A geographic partition that heals: the population splits into
        // two halves early, heals, and must still converge within a
        // logarithmic envelope after the heal.
        Scenario {
            name: "partition-heal",
            summary: "two-way partition for an early window, then heals",
            topology: Topology::KOut { k: 3 },
            algorithms: vec![AlgorithmKind::Hm(Default::default())],
            engine: EngineKind::Sequential,
            faults: FaultPlan::new().with_partition([0..n / 2, n / 2..n], 2, 2 + 3 * lg),
            reliable: Some(retry),
            stall_window: Some(12 * lg),
            budget: 60 * lg,
            thresholds: Thresholds {
                allowed: vec![VerdictClass::Complete],
                max_rounds: 16 * lg,
                min_rounds: 0,
                max_messages_per_node: 80.0 * lg as f64,
                max_retx_overhead: 1.0,
            },
            n,
            seed,
        },
        // Continuous churn at steady state: for the whole regime
        // window, 90% of the machines nap through each 6-round cycle,
        // so only a rotating ~10% sliver is ever up and convergence is
        // held off until the regime ends at round 240. The rounds floor
        // proves the run genuinely sustained the regime; the ceiling
        // proves it recovered promptly once churn stopped.
        Scenario {
            name: "continuous-churn",
            summary: "heavy steady-state churn for 240 rounds, then recovery",
            topology: Topology::KOut { k: 4 },
            algorithms: vec![AlgorithmKind::Hm(Default::default())],
            engine: EngineKind::Sharded { workers: 2 },
            faults: FaultPlan::new()
                .with_churn(ChurnSpec::new(fault_seed, 0, 240, 6, 6, 900_000))
                .with_crash_detection_after(3),
            reliable: Some(retry),
            stall_window: Some(150),
            budget: 240 + 60 * lg,
            thresholds: Thresholds {
                allowed: vec![VerdictClass::Complete],
                max_rounds: 240 + 16 * lg,
                min_rounds: 200,
                max_messages_per_node: 200.0 * lg as f64,
                max_retx_overhead: 3.0,
            },
            n,
            seed,
        },
        // Lossy, asymmetric links: a fixed fraction of ordered node
        // pairs drops a third of everything crossing them, one
        // direction at a time. Reliable delivery must absorb it within
        // a bounded retransmission overhead.
        Scenario {
            name: "lossy-asym-links",
            summary: "40% of ordered pairs lose 30% of traffic; retries absorb it",
            topology: Topology::KOut { k: 3 },
            algorithms: vec![AlgorithmKind::Hm(Default::default())],
            engine: EngineKind::Sequential,
            faults: FaultPlan::new()
                .with_link_loss(LinkLossSpec::new(fault_seed, 400_000, 300_000)),
            reliable: Some(retry),
            stall_window: Some(12 * lg),
            budget: 60 * lg,
            thresholds: Thresholds {
                allowed: vec![VerdictClass::Complete],
                max_rounds: 12 * lg,
                min_rounds: 0,
                max_messages_per_node: 80.0 * lg as f64,
                max_retx_overhead: 1.0,
            },
            n,
            seed,
        },
        // Grey failure: nothing crashes and nothing is dropped, but a
        // tenth of the machines are slow — every message touching one
        // takes 4 ticks instead of 1. Convergence must degrade
        // gracefully (bounded slowdown), not stall.
        Scenario {
            name: "grey-failure",
            summary: "10% slow nodes (4x latency) under event:slow",
            topology: Topology::KOut { k: 3 },
            algorithms: vec![AlgorithmKind::Hm(Default::default())],
            engine: EngineKind::Event {
                latency: LatencyModel::Slow {
                    base: 1,
                    slow: 4,
                    frac_ppm: 100_000,
                },
            },
            faults: FaultPlan::new(),
            reliable: None,
            stall_window: None,
            budget: 160 * lg,
            thresholds: Thresholds {
                allowed: vec![VerdictClass::Complete],
                max_rounds: 32 * lg,
                min_rounds: 0,
                max_messages_per_node: 60.0 * lg as f64,
                max_retx_overhead: f64::INFINITY,
            },
            n,
            seed,
        },
        // Adversarial suppression: an adversary that can read the
        // initial knowledge graph silences its best contact edges — the
        // ones incident to the highest-degree nodes — completely for an
        // early window. Discovery must route around the silenced core.
        Scenario {
            name: "adversarial-suppression",
            summary: "highest-degree contact edges silenced for an early window",
            topology: Topology::KOut { k: 3 },
            algorithms: vec![AlgorithmKind::Hm(Default::default())],
            engine: EngineKind::Sequential,
            faults: suppression_campaign(Topology::KOut { k: 3 }, n, seed, fault_seed, 10 * lg),
            reliable: Some(retry),
            stall_window: Some(14 * lg),
            budget: 80 * lg,
            thresholds: Thresholds {
                allowed: vec![VerdictClass::Complete],
                max_rounds: 20 * lg,
                min_rounds: 0,
                max_messages_per_node: 80.0 * lg as f64,
                max_retx_overhead: 2.0,
            },
            n,
            seed,
        },
        // A crash storm with partial recovery: ~8% of the population
        // crashes in a burst; half of those machines come back and must
        // catch up, the rest stay dead, so the accepted verdict is a
        // degraded completion among survivors.
        Scenario {
            name: "crash-storm-recovery",
            summary: "8% crash burst, half recover; survivors must converge",
            topology: Topology::KOut { k: 4 },
            algorithms: vec![AlgorithmKind::Hm(Default::default())],
            engine: EngineKind::Sharded { workers: 2 },
            faults: crash_storm(n, 2, 4 * lg),
            reliable: Some(retry),
            stall_window: Some(14 * lg),
            budget: 80 * lg,
            thresholds: Thresholds {
                allowed: vec![VerdictClass::DegradedComplete],
                max_rounds: 20 * lg,
                min_rounds: 0,
                max_messages_per_node: 80.0 * lg as f64,
                max_retx_overhead: 2.0,
            },
            n,
            seed,
        },
    ]
}

/// Looks up scenarios from [`library`] by name, preserving library
/// order. Returns `Err` with the unknown name on a miss.
pub fn select(n: usize, seed: u64, names: &[String]) -> Result<Vec<Scenario>, String> {
    let lib = library(n, seed);
    for name in names {
        if !lib.iter().any(|s| s.name == name.as_str()) {
            return Err(format!(
                "unknown scenario \"{name}\" (try --list for the campaign matrix)"
            ));
        }
    }
    Ok(lib
        .into_iter()
        .filter(|s| names.iter().any(|n| n.as_str() == s.name))
        .collect())
}

/// The adversarial suppression campaign: regenerate the exact knowledge
/// graph the run will use, rank its edges by total endpoint degree, and
/// silence the top eighth (at least 4) completely for rounds
/// `[1, 1 + window)`.
fn suppression_campaign(
    topology: Topology,
    n: usize,
    seed: u64,
    fault_seed: u64,
    window: u64,
) -> FaultPlan {
    let graph = topology.generate(n, seed);
    let edges = top_contact_edges(&graph, (graph.edge_count() / 8).max(4));
    FaultPlan::new().with_suppression(SuppressionSpec::new(
        fault_seed,
        edges,
        1,
        1 + window,
        1_000_000,
    ))
}

/// The contact edges incident to the best-connected nodes: every edge
/// scored by the total (in + out) degree of both endpoints, ties broken
/// by the edge itself so the selection is deterministic.
fn top_contact_edges(graph: &DiGraph, count: usize) -> Vec<(usize, usize)> {
    let in_deg = graph.in_degrees();
    let degree = |v: usize| graph.out_degree(v) + in_deg[v];
    let mut edges: Vec<(usize, usize)> = graph.iter_edges().collect();
    edges.sort_by_key(|&(u, v)| (std::cmp::Reverse(degree(u) + degree(v)), u, v));
    edges.truncate(count);
    edges
}

/// The crash-storm campaign: every 12th node crashes in a staggered
/// burst starting at `start`; alternate victims recover `recovery_gap`
/// rounds later, the rest are permanent. Detection is armed so
/// survivors purge the dead.
fn crash_storm(n: usize, start: u64, recovery_gap: u64) -> FaultPlan {
    let mut faults = FaultPlan::new().with_crash_detection_after(3);
    for (i, node) in (0..n).step_by(12).enumerate() {
        let crash = start + (i as u64 % 4);
        faults = faults.with_crash_at(node, crash);
        if i % 2 == 0 {
            faults = faults.with_recovery_at(node, crash + recovery_gap);
        }
    }
    faults
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn library_names_are_unique_and_campaigns_validate() {
        let lib = library(64, 7);
        assert_eq!(lib.len(), 8);
        let mut names: Vec<_> = lib.iter().map(|s| s.name).collect();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), lib.len(), "duplicate scenario names");
        for s in &lib {
            assert!(
                s.budget > s.thresholds.max_rounds,
                "{}: budget must exceed the rounds ceiling",
                s.name
            );
            s.faults
                .validate(s.n, s.budget)
                .unwrap_or_else(|e| panic!("{}: invalid campaign: {e}", s.name));
        }
    }

    #[test]
    fn select_finds_by_name_and_rejects_unknowns() {
        let picked = select(64, 7, &["grey-failure".into(), "partition-heal".into()]).unwrap();
        assert_eq!(picked.len(), 2);
        assert_eq!(picked[0].name, "partition-heal", "library order preserved");
        assert!(select(64, 7, &["no-such-campaign".into()]).is_err());
    }

    #[test]
    fn tighten_scales_the_rounds_ceiling() {
        let mut t = library(64, 7)[0].thresholds.clone();
        let before = t.max_rounds;
        t.tighten(0.1);
        assert!(t.max_rounds < before);
        assert!(t.max_rounds >= 1);
    }

    #[test]
    fn flash_crowd_passes_its_gates_at_small_n() {
        let lib = library(64, 7);
        let scenario = lib.iter().find(|s| s.name == "flash-crowd-join").unwrap();
        let outcomes = scenario.execute(None);
        assert_eq!(outcomes.len(), 2, "hm and name-dropper");
        for o in &outcomes {
            assert!(
                o.passed(),
                "{}/{} failed:\n{}",
                o.scenario,
                o.algorithm,
                render_report(&outcomes)
            );
        }
    }

    #[test]
    fn tightened_gates_fail_attributably() {
        let lib = library(64, 7);
        let mut scenario = lib
            .iter()
            .find(|s| s.name == "flash-crowd-join")
            .unwrap()
            .clone();
        scenario.algorithms.truncate(1);
        scenario.thresholds.tighten(0.01);
        let outcomes = scenario.execute(None);
        assert!(!outcomes[0].passed(), "1-round ceiling cannot hold");
        let failed: Vec<_> = outcomes[0].checks.iter().filter(|c| !c.pass).collect();
        assert!(failed.iter().any(|c| c.gate == "rounds-ceiling"));
        let report = render_report(&outcomes);
        assert!(report.contains("FAIL flash-crowd-join/hm"), "{report}");
        assert!(report.contains("0/1 runs passed"), "{report}");
    }

    #[test]
    fn report_rendering_is_deterministic() {
        let lib = library(64, 7);
        let scenario = lib.iter().find(|s| s.name == "partition-heal").unwrap();
        let a = render_report(&scenario.execute(None));
        let b = render_report(&scenario.execute(None));
        assert_eq!(a, b);
        assert!(a.contains("PASS partition-heal/hm"), "{a}");
    }
}
