//! The two kinds of run: end-to-end reps with nothing attached, and the
//! traced pass that takes the same work apart layer by layer.

use crate::host;
use crate::probe;
use crate::spans::{SpanId, SpanLog};
use crate::staged::{staged_run, staged_setup, Full, StagedRun, SETUP_SPANS};
use crate::stats::{median, Summary};
use crate::workloads::{Counts, Instance, Workload, DEFAULT_SEED};
use resource_discovery::core::runner::{EngineKind, RunReport};
use resource_discovery::event::LatencyModel;
use std::collections::BTreeMap;
use std::path::Path;
use std::time::Instant;

/// Timed reps a run makes at least, however short `--seconds` is.
const MIN_REPS: usize = 3;

/// Cycles a traced run makes at least: two, so that every per-layer
/// number comes with a second reading to judge it by.
const MIN_CYCLES: usize = 2;

/// Workers of the sharded engine in the traced pass: the count the
/// campaign workload runs with, and the most a 2-core host can time.
const EXEC_WORKERS: usize = 2;

/// Which statistic of a metric's samples is its value: the one number a
/// driver compares between runs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Reported {
    Median,
    /// For the end-to-end timings. The program is deterministic, so all
    /// that varies between reps is what the host adds, and it only ever
    /// adds: the fastest rep is the best estimate of the program's own
    /// time (Chen & Revels, "Robust benchmarking in noisy environments",
    /// 2016). README.md has the measurements behind the choice.
    Minimum,
}

/// One named number of the result: every sample taken of it. A count or
/// a quantity measured once has one sample.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    pub name: &'static str,
    pub unit: &'static str,
    pub samples: Vec<f64>,
    pub reported: Reported,
}

impl Metric {
    pub fn summary(&self) -> Summary {
        Summary::of(&self.samples)
    }

    pub fn value(&self) -> f64 {
        match self.reported {
            Reported::Median => self.summary().median,
            Reported::Minimum => self.summary().min,
        }
    }
}

/// What one benchmark process measured.
#[derive(Debug)]
pub struct Outcome {
    /// Reps run, warm-up and staged passes included.
    pub attempted: u64,
    /// Reps that failed a correctness check.
    pub failed: u64,
    /// One line per failed check.
    pub problems: Vec<String>,
    pub metrics: Vec<Metric>,
    /// Free-form facts printed under the table.
    pub notes: Vec<String>,
}

/// Rep-level correctness accounting.
struct Tally<'a> {
    workload: &'a Workload,
    seed: u64,
    attempted: u64,
    failed: u64,
    problems: Vec<String>,
}

impl<'a> Tally<'a> {
    fn new(workload: &'a Workload, seed: u64) -> Self {
        Tally {
            workload,
            seed,
            attempted: 0,
            failed: 0,
            problems: Vec::new(),
        }
    }

    /// Counts one rep and records what is wrong with it: a run that did
    /// not converge soundly or failed a scenario gate, statistics that
    /// differ from the first rep's, or — at the default seed — from the
    /// pinned goldens.
    fn rep(&mut self, what: &str, reports: &[RunReport], passed: bool, reference: &[RunReport]) {
        let mut problems = Vec::new();
        if !passed {
            problems.push("a run did not converge soundly or failed a gate".to_string());
        }
        if reports != reference {
            problems.push("reports differ from the first rep's".to_string());
        }
        let counts = Counts::of(reports);
        if self.seed == DEFAULT_SEED && counts != self.workload.golden {
            problems.push(format!(
                "{counts:?} differ from the pinned {:?}",
                self.workload.golden
            ));
        }
        self.attempted += 1;
        if !problems.is_empty() {
            self.failed += 1;
            self.problems
                .extend(problems.into_iter().map(|p| format!("{what}: {p}")));
        }
    }
}

/// The workload's instances for `seed`, built the way a user would
/// before calling `run()`.
fn instances(workload: &Workload, seed: u64) -> Vec<Instance> {
    workload
        .instance_seeds(seed)
        .map(|s| workload.instance(s))
        .collect()
}

/// One rep as a user of the library would run it: every instance
/// through `run()` / `Scenario::execute`, timed as one interval.
fn timed_rep(instances: &[Instance]) -> (f64, Vec<RunReport>, bool) {
    let t = Instant::now();
    let outcomes: Vec<_> = instances.iter().flat_map(Instance::execute).collect();
    let wall = t.elapsed().as_secs_f64();
    let passed = outcomes.iter().all(|(_, ok)| *ok);
    (wall, outcomes.into_iter().map(|(r, _)| r).collect(), passed)
}

/// Refuses to time more engine workers than the host has hardware
/// threads: such a number measures the scheduler.
fn refuse_oversubscription(engines: impl IntoIterator<Item = EngineKind>) -> Result<(), String> {
    let available = host::available_parallelism();
    for engine in engines {
        if let EngineKind::Sharded { workers } = engine {
            if workers > available {
                return Err(format!(
                    "refusing to time {} on a host with {available} hardware thread(s)",
                    engine.name()
                ));
            }
        }
    }
    Ok(())
}

fn workload_engines(instances: &[Instance]) -> Vec<EngineKind> {
    instances
        .iter()
        .flat_map(Instance::jobs)
        .map(|(_, config)| config.engine)
        .collect()
}

/// Whether a loop that has run for `elapsed` seconds and whose last turn
/// took `last` should stop: the next turn would end past the budget.
fn budget_spent(elapsed: f64, last: f64, seconds: f64) -> bool {
    elapsed + last > seconds
}

/// Sets the workload's instances up once, stage by stage, and returns
/// the seconds the set-up stages took. Dropping the result is not timed.
fn timed_setup(log: &mut SpanLog, workload: &Workload, seed: u64) -> f64 {
    let rep = log.begin_pass("setup".into());
    let root = log.open("workload", None);
    for s in workload.instance_seeds(seed) {
        let instance = log.time("select", Some(root), || workload.instance(s));
        for (kind, config) in instance.jobs() {
            staged_setup(log, root, kind, &config);
        }
    }
    log.close(root);
    setup_ns(log, rep) as f64 / 1e9
}

fn setup_ns(log: &SpanLog, rep: u32) -> u64 {
    log.total_ns(rep, "select")
        + SETUP_SPANS
            .iter()
            .map(|name| log.total_ns(rep, name))
            .sum::<u64>()
}

/// The end-to-end run: one discarded warm-up rep, then timed reps of
/// plain `run()` calls — no recorder, no spans — for `seconds`, each
/// preceded by one timed set-up of the same inputs.
pub fn end_to_end(workload: &Workload, seed: u64, seconds: f64) -> Result<Outcome, String> {
    let instances = instances(workload, seed);
    refuse_oversubscription(workload_engines(&instances))?;
    let mut tally = Tally::new(workload, seed);
    let mut log = SpanLog::new();

    let (cold_wall, reference, passed) = timed_rep(&instances);
    tally.rep("warm-up rep", &reference, passed, &reference);
    let pointers = Counts::of(&reference).pointers as f64;

    let mut setups = Vec::new();
    let mut walls = Vec::new();
    let start = Instant::now();
    loop {
        let turn = Instant::now();
        setups.push(timed_setup(&mut log, workload, seed));
        let (wall, reports, passed) = timed_rep(&instances);
        tally.rep(
            &format!("rep {}", walls.len() + 1),
            &reports,
            passed,
            &reference,
        );
        walls.push(wall);
        let last = turn.elapsed().as_secs_f64();
        if walls.len() >= MIN_REPS && budget_spent(start.elapsed().as_secs_f64(), last, seconds) {
            break;
        }
    }
    let peak_rss_mib = host::peak_rss_mib().ok_or("cannot read VmHWM from /proc/self/status")?;

    let per_pointer: Vec<f64> = walls.iter().map(|w| w * 1e9 / pointers).collect();
    let failed_share = tally.failed as f64 / tally.attempted as f64;
    let metrics = [
        ("setup_s", "s", setups, Reported::Minimum),
        ("wall_s", "s", walls, Reported::Minimum),
        ("ns_per_pointer", "ns", per_pointer, Reported::Minimum),
        ("peak_rss_mib", "MiB", vec![peak_rss_mib], Reported::Median),
        (
            "failed_share",
            "ratio",
            vec![failed_share],
            Reported::Median,
        ),
    ]
    .into_iter()
    .map(|(name, unit, samples, reported)| Metric {
        name,
        unit,
        samples,
        reported,
    })
    .collect();
    Ok(Outcome {
        attempted: tally.attempted,
        failed: tally.failed,
        problems: tally.problems,
        metrics,
        notes: vec![format!(
            "warm-up rep (discarded): {cold_wall:.4} s; {:?} per rep",
            Counts::of(&reference)
        )],
    })
}

/// One staged pass over the workload's instances on `engine`.
struct Pass {
    /// The pass's number in the span log.
    rep: u32,
    root: SpanId,
    runs: Vec<StagedRun>,
}

impl Pass {
    fn reports(&self) -> Vec<RunReport> {
        self.runs.iter().map(|r| r.report.clone()).collect()
    }
}

/// Runs every job of the workload stage by stage on `engine`, observed
/// (recorder, archive, profile) when `archive_dir` is given.
fn staged_pass(
    log: &mut SpanLog,
    workload: &Workload,
    seed: u64,
    engine: EngineKind,
    label: String,
    archive_dir: Option<&Path>,
    reference: &[RunReport],
) -> (Pass, bool) {
    let rep = log.begin_pass(label);
    let root = log.open("workload", None);
    let mut runs = Vec::new();
    let mut passed = true;
    for s in workload.instance_seeds(seed) {
        let instance = log.time("select", Some(root), || workload.instance(s));
        for (kind, config) in instance.jobs() {
            let config = config.with_engine(engine);
            let archive = archive_dir.map(|dir| dir.join(format!("run-{}.jsonl", runs.len())));
            let full = Full {
                reference: &reference[runs.len()],
                archive: archive.as_deref(),
            };
            let run = staged_run(log, root, kind, &config, full);
            passed &= instance.passes(&run.report);
            runs.push(run);
        }
    }
    log.close(root);
    (Pass { rep, root, runs }, passed)
}

/// Samples of every per-layer metric, one value per cycle; the median
/// over cycles is reported.
#[derive(Default)]
struct Samples(BTreeMap<&'static str, (&'static str, Vec<f64>)>);

impl Samples {
    fn push(&mut self, name: &'static str, unit: &'static str, value: f64) {
        self.0
            .entry(name)
            .or_insert((unit, Vec::new()))
            .1
            .push(value);
    }

    fn into_metrics(self) -> Vec<Metric> {
        self.0
            .into_iter()
            .map(|(name, (unit, samples))| Metric {
                name,
                unit,
                samples,
                reported: Reported::Median,
            })
            .collect()
    }
}

fn secs(ns: u64) -> f64 {
    ns as f64 / 1e9
}

/// The engines every workload's instance is traced on. The layers above
/// the engine are measured on the one the workload itself uses.
const SIM: EngineKind = EngineKind::Sequential;
const EXEC: EngineKind = EngineKind::Sharded {
    workers: EXEC_WORKERS,
};
const EVENT: EngineKind = EngineKind::Event {
    latency: LatencyModel::Constant { ticks: 1 },
};

/// The passes of one cycle of the traced run.
struct Cycle {
    /// One warm rep of plain `run()` calls.
    warm_wall: f64,
    blind_sim: Pass,
    blind_exec: Pass,
    blind_event: Pass,
    seen_sim: Pass,
    seen_exec: Pass,
    /// Whether the workload's own engine is [`EXEC`] rather than [`SIM`].
    own_is_exec: bool,
}

/// Derives one sample of every per-layer metric from a cycle's spans and
/// counts. `reference` is what `run()` reported for the workload.
fn record_cycle(samples: &mut Samples, log: &SpanLog, cycle: &Cycle, reference: &[RunReport]) {
    let Cycle {
        warm_wall,
        blind_sim,
        blind_exec,
        blind_event,
        seen_sim,
        seen_exec,
        own_is_exec,
    } = cycle;
    let (blind, seen) = if *own_is_exec {
        (blind_exec, seen_exec)
    } else {
        (blind_sim, seen_sim)
    };
    let total = |p: &Pass, name: &str| secs(log.total_ns(p.rep, name));
    let root_s = |p: &Pass| secs(log.get(p.root).dur_ns());
    let counts = Counts::of(reference);
    let envelopes = counts.messages as f64;
    let pointers = counts.pointers as f64;
    let dropped: u64 = reference.iter().map(RunReport::dropped).sum();

    // Set-up, stage by stage.
    samples.push("scenarios.select_s", "s", total(blind, "select"));
    samples.push("graphs.generate_s", "s", total(blind, "generate"));
    samples.push(
        "problem.initial_knowledge_s",
        "s",
        total(blind, "initial_knowledge"),
    );
    samples.push("algorithms.make_nodes_s", "s", total(blind, "make_nodes"));
    samples.push("sim.engine_new_s", "s", total(blind_sim, "engine_new"));

    // The round loop on each engine, blind.
    let sim_step = total(blind_sim, "step");
    let exec_step = total(blind_exec, "step");
    let event_step = total(blind_event, "step");
    let steps_ms: Vec<f64> = log
        .durations_ns(blind_sim.rep, "step")
        .iter()
        .map(|&ns| ns as f64 / 1e6)
        .collect();
    samples.push("sim.step_s", "s", sim_step);
    samples.push("sim.step_p50_ms", "ms", median(&steps_ms));
    samples.push(
        "sim.step_max_ms",
        "ms",
        steps_ms.iter().copied().fold(0.0, f64::max),
    );
    samples.push("sim.rounds", "count", counts.rounds as f64);
    samples.push("sim.envelopes", "count", envelopes);
    samples.push("sim.pointers", "count", pointers);
    samples.push(
        "sim.retx_share",
        "ratio",
        counts.retransmissions as f64 / envelopes,
    );
    samples.push("sim.drop_share", "ratio", dropped as f64 / envelopes);
    samples.push("exec.step_s", "s", exec_step);
    samples.push("exec.speedup_vs_sim", "ratio", sim_step / exec_step);
    samples.push("event.step_s", "s", event_step);
    samples.push(
        "event.overhead_vs_sim",
        "ratio",
        event_step / sim_step - 1.0,
    );

    // Inside the round, from the engines' own phase spans. Shares are
    // taken within one pass, so host drift between passes cancels.
    let on_round = total(seen, "on_round");
    samples.push("algorithms.on_round_s", "s", on_round);
    samples.push(
        "algorithms.on_round_share",
        "ratio",
        on_round / total(seen, "step"),
    );
    samples.push(
        "algorithms.on_round_ns_per_pointer",
        "ns",
        on_round * 1e9 / pointers,
    );
    samples.push(
        "algorithms.on_round_ns_per_envelope",
        "ns",
        on_round * 1e9 / envelopes,
    );
    let learned: u64 = blind.runs.iter().map(|r| r.learned).sum();
    samples.push(
        "algorithms.useful_pointer_ratio",
        "ratio",
        learned as f64 / pointers,
    );
    let sim_route = total(seen_sim, "route_shard");
    samples.push("sim.route_s", "s", sim_route);
    samples.push(
        "sim.route_share",
        "ratio",
        sim_route / total(seen_sim, "step"),
    );
    samples.push(
        "sim.route_ns_per_envelope",
        "ns",
        sim_route * 1e9 / envelopes,
    );
    samples.push(
        "sim.begin_finish_s",
        "s",
        total(seen_sim, "begin_round") + total(seen_sim, "finish_round"),
    );
    samples.push(
        "sim.step_self_s",
        "s",
        secs(log.total_self_ns(seen_sim.rep, "step")),
    );
    // On the sharded engine the serial phases and the step time no phase
    // covers (thread spawns and joins) are the per-round fixed overhead.
    samples.push(
        "exec.begin_finish_s",
        "s",
        total(seen_exec, "begin_round") + total(seen_exec, "finish_round"),
    );
    samples.push(
        "exec.step_self_s",
        "s",
        secs(log.total_self_ns(seen_exec.rep, "step")),
    );
    samples.push("exec.route_s", "s", total(seen_exec, "route_shard"));
    samples.push(
        "exec.merge_s",
        "s",
        total(seen_exec, "merge_dest_shard") + total(seen_exec, "apply_deltas"),
    );
    let profiles = || {
        seen_exec
            .runs
            .iter()
            .map(|r| &r.observed.as_ref().expect("an observed pass").profile)
    };
    samples.push(
        "exec.utilization",
        "ratio",
        profiles().map(|p| p.utilization_pct).sum::<f64>() / 100.0 / seen_exec.runs.len() as f64,
    );
    samples.push(
        "exec.imbalance_max",
        "ratio",
        profiles().map(|p| p.imbalance_max).fold(0.0, f64::max),
    );

    // Outside the round loop.
    let done_check = total(blind, "done_check");
    let verify = total(blind, "verify");
    samples.push("problem.done_check_s", "s", done_check);
    samples.push(
        "problem.done_checks",
        "count",
        blind.runs.iter().map(|r| r.done_checks).sum::<u64>() as f64,
    );
    samples.push("verify.verify_s", "s", verify);

    // `run()` and the staged pass that mirrors it, side by side; and what
    // the staged pass spends outside the named layers (driver bookkeeping
    // and teardown), taken within the one pass because two passes a
    // second apart differ by more than that on a busy host.
    samples.push("runner.warm_wall_s", "s", *warm_wall);
    samples.push("runner.staged_wall_s", "s", root_s(blind));
    let layers = secs(setup_ns(log, blind.rep)) + total(blind, "step") + done_check + verify;
    samples.push("runner.residue_s", "s", root_s(blind) - layers);
    samples.push(
        "runner.attributed_share",
        "ratio",
        1.0 - secs(log.total_self_ns(blind.rep, "workload")) / root_s(blind),
    );

    let known: u64 = blind.runs.iter().map(|r| r.known).sum();
    let resident: u64 = blind.runs.iter().map(|r| r.resident_bytes).sum();
    let bytes_per_id = resident as f64 / known as f64;
    samples.push("knowledge.bytes_per_known_id", "B", bytes_per_id);
    // The floor is one bit per (node, id) pair.
    samples.push("knowledge.floor_ratio", "ratio", bytes_per_id / 0.125);

    // The cost of observing: this benchmark's stated tracing overhead.
    samples.push(
        "obs.attach_overhead_pct",
        "%",
        (root_s(seen) / root_s(blind) - 1.0) * 100.0,
    );
    samples.push("obs.finish_s", "s", total(seen, "obs_finish"));
    samples.push("obs.parse_s", "s", total(seen, "obs_parse"));
    let archive_bytes: u64 = seen
        .runs
        .iter()
        .map(|r| r.observed.as_ref().expect("an observed pass").archive_bytes)
        .sum();
    samples.push("obs.archive_bytes", "B", archive_bytes as f64);
}

/// The traced run: one cold `run()` rep, then cycles of one warm `run()`
/// rep, a blind staged pass on each of the three engines, and an
/// observed staged pass on the two round engines, for `seconds`; then
/// the kernel probes. Spans go to `out_dir/<workload>.trace.json`.
pub fn traced(
    workload: &Workload,
    seed: u64,
    seconds: f64,
    out_dir: &Path,
) -> Result<Outcome, String> {
    refuse_oversubscription([EXEC])?;
    let instances = instances(workload, seed);
    let own_engines = workload_engines(&instances);
    let own = own_engines[0];
    if own_engines.iter().any(|e| *e != own) || (own != SIM && own != EXEC) {
        return Err(format!(
            "the traced pass observes {} and {}, not {own_engines:?}",
            SIM.name(),
            EXEC.name()
        ));
    }
    let archive_dir = out_dir.join(format!("tmp-{}", std::process::id()));
    std::fs::create_dir_all(&archive_dir)
        .map_err(|e| format!("cannot create {}: {e}", archive_dir.display()))?;

    let mut tally = Tally::new(workload, seed);
    let mut log = SpanLog::new();
    let mut samples = Samples::default();

    let (cold_wall, reference, passed) = timed_rep(&instances);
    tally.rep("cold rep", &reference, passed, &reference);
    samples.push("runner.cold_wall_s", "s", cold_wall);

    let start = Instant::now();
    let mut cycles = 0;
    loop {
        let turn = Instant::now();
        cycles += 1;
        let (warm_wall, reports, passed) = timed_rep(&instances);
        tally.rep(
            &format!("cycle {cycles} run()"),
            &reports,
            passed,
            &reference,
        );
        let mut pass = |engine: EngineKind, observed: bool| -> Pass {
            let label = format!(
                "cycle {cycles} {} {}",
                engine.name(),
                if observed { "observed" } else { "blind" }
            );
            let dir = observed.then_some(archive_dir.as_path());
            let (pass, passed) = staged_pass(
                &mut log,
                workload,
                seed,
                engine,
                label.clone(),
                dir,
                &reference,
            );
            tally.rep(&label, &pass.reports(), passed, &reference);
            pass
        };
        let cycle = Cycle {
            warm_wall,
            blind_sim: pass(SIM, false),
            blind_exec: pass(EXEC, false),
            blind_event: pass(EVENT, false),
            seen_sim: pass(SIM, true),
            seen_exec: pass(EXEC, true),
            own_is_exec: own == EXEC,
        };
        record_cycle(&mut samples, &log, &cycle, &reference);

        let last = turn.elapsed().as_secs_f64();
        if cycles >= MIN_CYCLES && budget_spent(start.elapsed().as_secs_f64(), last, seconds) {
            break;
        }
    }

    let knowledge = probe::knowledge_probe(seed);
    samples.push(
        "knowledge.extend_new_ns_per_id",
        "ns",
        knowledge.extend_new_ns_per_id,
    );
    samples.push(
        "knowledge.extend_dup_ns_per_id",
        "ns",
        knowledge.extend_dup_ns_per_id,
    );
    samples.push(
        "knowledge.contains_ns_per_probe",
        "ns",
        knowledge.contains_ns_per_probe,
    );
    let memcpy = probe::memcpy_probe();
    samples.push("host.memcpy_gib_s", "GiB/s", memcpy.gib_per_s);

    let trace_path = out_dir.join(format!("{}.trace.json", workload.name));
    std::fs::write(&trace_path, log.chrome_trace(workload.name))
        .map_err(|e| format!("cannot write {}: {e}", trace_path.display()))?;
    std::fs::remove_dir_all(&archive_dir)
        .map_err(|e| format!("cannot remove {}: {e}", archive_dir.display()))?;

    Ok(Outcome {
        attempted: tally.attempted,
        failed: tally.failed,
        problems: tally.problems,
        metrics: samples.into_metrics(),
        notes: vec![
            format!(
                "{cycles} cycle(s); {:?} per rep; own engine {}",
                Counts::of(&reference),
                own.name()
            ),
            format!(
                "knowledge probe: {} ids, full set holds {:.2} B per id",
                probe::IDS,
                knowledge.bytes_per_id
            ),
            format!(
                "memcpy probe: buffers of {} MiB, last-level cache {}",
                memcpy.buffer_bytes >> 20,
                memcpy.last_level_cache_bytes.map_or(
                    "unknown (32 MiB assumed)".to_string(),
                    |b| format!("{} MiB", b >> 20)
                )
            ),
            format!("spans: {}", trace_path.display()),
        ],
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::report::result_line;
    use crate::spec::{MetricSpec, Spec};
    use crate::workloads::{Algorithm, Kind};
    use resource_discovery::core::runner::Completion;
    use resource_discovery::obs::json::Json;

    /// Small enough for a debug build, large enough to take rounds, and
    /// with two instances so the per-rep sums are exercised.
    const TINY: Workload = Workload {
        name: "tiny",
        kind: Kind::Run {
            algorithm: Algorithm::Hm,
            completion: Completion::EveryoneKnowsEveryone,
        },
        log2_n: 6,
        instances: 2,
        golden: Counts {
            rounds: 0,
            messages: 0,
            pointers: 0,
            retransmissions: 0,
        },
    };
    const TINY_CAMPAIGN: Workload = Workload {
        name: "tiny_campaign",
        kind: Kind::Campaign {
            name: "continuous-churn",
        },
        log2_n: 6,
        instances: 1,
        ..TINY
    };
    const OTHER_SEED: u64 = 7;

    /// The names of the result line, which must be exactly `listed`.
    fn emitted(outcome: &Outcome, listed: &[MetricSpec]) -> Vec<String> {
        let line = result_line(outcome, listed).expect("every listed metric is measured");
        let parsed = Json::parse(&line).expect("the result line is JSON");
        assert_eq!(
            parsed.get("correct").and_then(Json::as_bool),
            Some(outcome.failed == 0)
        );
        assert_eq!(
            parsed.get("attempted").and_then(Json::as_u64),
            Some(outcome.attempted)
        );
        let Some(Json::Obj(metrics)) = parsed.get("metrics") else {
            panic!("metrics is an object");
        };
        for (name, metric) in metrics {
            assert!(
                metric.get("value").and_then(Json::as_f64).is_some(),
                "{name}"
            );
            assert!(
                name.chars()
                    .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c)),
                "{name} uses a character outside letters, digits, _ . -"
            );
        }
        metrics.iter().map(|(name, _)| name.clone()).collect()
    }

    fn names(listed: &[MetricSpec]) -> Vec<String> {
        listed.iter().map(|m| m.name.clone()).collect()
    }

    #[test]
    fn every_end_to_end_metric_of_the_benchmark_file_is_emitted() {
        let spec = Spec::load();
        for workload in [&TINY, &TINY_CAMPAIGN] {
            let outcome = end_to_end(workload, OTHER_SEED, 0.0).unwrap();
            assert_eq!(outcome.problems, Vec::<String>::new());
            assert_eq!(outcome.attempted, 1 + MIN_REPS as u64);
            assert_eq!(emitted(&outcome, &spec.end_to_end), names(&spec.end_to_end));
            assert!(outcome.metrics.iter().any(|m| m.name == "failed_share"));
            // A timing's value is its fastest rep.
            let wall = outcome.metrics.iter().find(|m| m.name == "wall_s").unwrap();
            assert_eq!(wall.samples.len(), MIN_REPS);
            assert!(wall.samples.iter().all(|&s| s >= wall.value()));
            assert!(wall.samples.contains(&wall.value()));
        }
    }

    #[test]
    fn every_per_layer_metric_of_the_benchmark_file_is_emitted() {
        let spec = Spec::load();
        let out = Path::new(env!("CARGO_MANIFEST_DIR"))
            .join("out")
            .join(format!("test-{}", std::process::id()));
        for workload in [&TINY, &TINY_CAMPAIGN] {
            let outcome = match traced(workload, OTHER_SEED, 0.0, &out) {
                Ok(outcome) => outcome,
                Err(refusal) => {
                    assert!(host::available_parallelism() < EXEC_WORKERS, "{refusal}");
                    return;
                }
            };
            assert_eq!(outcome.problems, Vec::<String>::new());
            // The cold rep, then per cycle run() and five staged passes.
            assert_eq!(outcome.attempted, 1 + 6 * MIN_CYCLES as u64);
            assert_eq!(emitted(&outcome, &spec.per_layer), names(&spec.per_layer));
            // The staged driver leaves next to nothing of its wall
            // outside named spans.
            let attributed = outcome
                .metrics
                .iter()
                .find(|m| m.name == "runner.attributed_share")
                .unwrap();
            assert!(attributed.summary().median > 0.9, "{attributed:?}");
            let trace = std::fs::read_to_string(out.join(format!("{}.trace.json", workload.name)))
                .expect("the spans were written");
            Json::parse(&trace).expect("the trace is JSON");
        }
        std::fs::remove_dir_all(&out).unwrap();
    }

    #[test]
    fn counts_that_differ_from_the_goldens_fail_every_rep_at_the_default_seed() {
        // TINY's goldens are zeros, which no run reproduces.
        let outcome = end_to_end(&TINY, DEFAULT_SEED, 0.0).unwrap();
        assert_eq!(outcome.failed, outcome.attempted);
        assert!(outcome.problems[0].contains("differ from the pinned"));
        let share = outcome
            .metrics
            .iter()
            .find(|m| m.name == "failed_share")
            .unwrap();
        assert_eq!(share.samples, vec![1.0]);
    }

    #[test]
    fn the_budget_stops_a_loop_before_the_turn_that_would_overrun_it() {
        assert!(!budget_spent(10.0, 2.0, 20.0));
        assert!(!budget_spent(18.0, 2.0, 20.0));
        assert!(budget_spent(18.5, 2.0, 20.0));
        assert!(budget_spent(0.1, 0.1, 0.0));
    }

    #[test]
    fn more_workers_than_hardware_threads_are_refused() {
        let too_many = EngineKind::Sharded {
            workers: host::available_parallelism() + 1,
        };
        assert!(refuse_oversubscription([too_many]).is_err());
        assert!(refuse_oversubscription([
            EngineKind::Sequential,
            EngineKind::Sharded { workers: 1 }
        ])
        .is_ok());
    }
}
