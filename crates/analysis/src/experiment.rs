//! The multi-threaded `(algorithm × n × seed)` sweep driver.

use crate::stats::{summarize, Summary};
use rd_core::runner::{
    run, AlgorithmKind, Completion, EngineKind, RunConfig, RunReport, RunVerdict,
};
use rd_graphs::Topology;
use rd_sim::{FaultPlan, RetryPolicy};
use std::ops::Range;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Mutex, PoisonError};

/// Specification of a sweep: the cross product of algorithms, instance
/// sizes, and seeds on one topology family.
#[derive(Debug, Clone)]
pub struct SweepSpec {
    /// Algorithms to compare.
    pub kinds: Vec<AlgorithmKind>,
    /// Topology family.
    pub topology: Topology,
    /// Instance sizes.
    pub ns: Vec<usize>,
    /// Seed range; each seed is one run per `(kind, n)`.
    pub seeds: Range<u64>,
    /// Completion predicate.
    pub completion: Completion,
    /// Fault plan applied to every run.
    pub faults: FaultPlan,
    /// Round budget per run.
    pub max_rounds: u64,
    /// Worker threads (0 = all available cores).
    pub threads: usize,
    /// Execution engine for every run of the sweep. With
    /// `EngineKind::Sharded`, prefer `threads: 1` so the per-run workers
    /// and the sweep driver don't oversubscribe the cores: run-level
    /// parallelism suits many small runs, engine-level parallelism a few
    /// huge ones.
    pub engine: EngineKind,
    /// Convergence watchdog window for every run (`None` disables it).
    pub stall_window: Option<u64>,
    /// Opt-in reliable-delivery policy for every run.
    pub reliable: Option<RetryPolicy>,
}

impl Default for SweepSpec {
    fn default() -> Self {
        SweepSpec {
            kinds: Vec::new(),
            topology: Topology::KOut { k: 3 },
            ns: Vec::new(),
            seeds: 0..1,
            completion: Completion::default(),
            faults: FaultPlan::new(),
            max_rounds: 1_000_000,
            threads: 0,
            engine: EngineKind::default(),
            stall_window: None,
            reliable: None,
        }
    }
}

/// Aggregated measurements for one `(algorithm, n)` cell of a sweep.
#[derive(Debug, Clone)]
pub struct SweepCell {
    /// Algorithm display name.
    pub algorithm: String,
    /// Topology display name.
    pub topology: String,
    /// Instance size.
    pub n: usize,
    /// Rounds to completion across seeds (censored at the round budget
    /// for incomplete runs — check [`completion_rate`](Self::completion_rate)).
    pub rounds: Summary,
    /// Total messages across seeds.
    pub messages: Summary,
    /// Total pointers across seeds.
    pub pointers: Summary,
    /// Total bits across seeds.
    pub bits: Summary,
    /// Per-run maximum messages sent by any single node.
    pub max_sent_messages: Summary,
    /// Per-run mean messages per node.
    pub mean_messages_per_node: Summary,
    /// Messages lost to fault injection (all causes), across seeds.
    pub dropped: Summary,
    /// Retransmission attempts by the reliable-delivery layer, across
    /// seeds.
    pub retransmissions: Summary,
    /// Fraction of seeds that completed within the budget.
    pub completion_rate: f64,
    /// Fraction of seeds that completed only in degraded mode (over the
    /// survivors of at least one permanent crash).
    pub degraded_rate: f64,
    /// Fraction of seeds terminated by the convergence watchdog.
    pub stall_rate: f64,
    /// Whether every run passed the soundness checks.
    pub all_sound: bool,
}

/// Runs the sweep, farming runs out to worker threads, and returns one
/// cell per `(kind, n)` in spec order.
///
/// # Panics
///
/// Panics if the spec has no algorithms, sizes, or seeds, and re-raises
/// the panic of any run (an invalid fault plan, say) on the caller.
pub fn sweep(spec: &SweepSpec) -> Vec<SweepCell> {
    assert!(!spec.kinds.is_empty(), "sweep needs at least one algorithm");
    assert!(!spec.ns.is_empty(), "sweep needs at least one size");
    assert!(!spec.seeds.is_empty(), "sweep needs at least one seed");

    struct Job {
        kind_idx: usize,
        n_idx: usize,
        seed: u64,
    }
    let mut jobs = Vec::new();
    for (kind_idx, _) in spec.kinds.iter().enumerate() {
        for (n_idx, _) in spec.ns.iter().enumerate() {
            for seed in spec.seeds.clone() {
                jobs.push(Job {
                    kind_idx,
                    n_idx,
                    seed,
                });
            }
        }
    }

    let cells = spec.kinds.len() * spec.ns.len();
    let results: Mutex<Vec<Vec<RunReport>>> = Mutex::new(vec![Vec::new(); cells]);
    let cursor = AtomicUsize::new(0);
    let threads = if spec.threads == 0 {
        std::thread::available_parallelism()
            .map(|p| p.get())
            .unwrap_or(1)
    } else {
        spec.threads
    }
    .min(jobs.len())
    .max(1);

    std::thread::scope(|scope| {
        let workers: Vec<_> = (0..threads)
            .map(|_| {
                scope.spawn(|| loop {
                    let i = cursor.fetch_add(1, Ordering::Relaxed);
                    let Some(job) = jobs.get(i) else { break };
                    let config = RunConfig {
                        topology: spec.topology,
                        n: spec.ns[job.n_idx],
                        seed: job.seed,
                        max_rounds: spec.max_rounds,
                        completion: spec.completion,
                        faults: spec.faults.clone(),
                        engine: spec.engine,
                        stall_window: spec.stall_window,
                        reliable: spec.reliable,
                        obs: None,
                    };
                    let report = run(spec.kinds[job.kind_idx], &config);
                    // A poisoned lock only means another worker panicked;
                    // the join below re-raises that panic, so the data is
                    // never read in a half-written state.
                    results.lock().unwrap_or_else(PoisonError::into_inner)
                        [job.kind_idx * spec.ns.len() + job.n_idx]
                        .push(report);
                })
            })
            .collect();
        // Re-raise a worker's own panic, message and all, on the caller.
        for worker in workers {
            if let Err(panic) = worker.join() {
                std::panic::resume_unwind(panic);
            }
        }
    });

    let results = results.into_inner().unwrap_or_else(PoisonError::into_inner);
    let mut out = Vec::with_capacity(cells);
    for (kind_idx, kind) in spec.kinds.iter().enumerate() {
        for (n_idx, &n) in spec.ns.iter().enumerate() {
            let reports = &results[kind_idx * spec.ns.len() + n_idx];
            let field = |f: fn(&RunReport) -> f64| -> Summary {
                summarize(&reports.iter().map(f).collect::<Vec<_>>())
            };
            out.push(SweepCell {
                algorithm: kind.name(),
                topology: spec.topology.name(),
                n,
                rounds: field(|r| r.rounds as f64),
                messages: field(|r| r.messages as f64),
                pointers: field(|r| r.pointers as f64),
                bits: field(|r| r.bits as f64),
                max_sent_messages: field(|r| r.max_sent_messages as f64),
                mean_messages_per_node: field(|r| r.mean_messages_per_node),
                dropped: field(|r| r.dropped() as f64),
                retransmissions: field(|r| r.retransmissions as f64),
                completion_rate: reports.iter().filter(|r| r.completed).count() as f64
                    / reports.len() as f64,
                degraded_rate: reports
                    .iter()
                    .filter(|r| r.verdict == RunVerdict::DegradedComplete)
                    .count() as f64
                    / reports.len() as f64,
                stall_rate: reports
                    .iter()
                    .filter(|r| matches!(r.verdict, RunVerdict::Stalled { .. }))
                    .count() as f64
                    / reports.len() as f64,
                all_sound: reports.iter().all(|r| r.sound),
            });
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small_spec() -> SweepSpec {
        SweepSpec {
            kinds: vec![AlgorithmKind::PointerDoubling, AlgorithmKind::Flooding],
            topology: Topology::Cycle,
            ns: vec![16, 32],
            seeds: 0..3,
            ..Default::default()
        }
    }

    #[test]
    #[should_panic(expected = "crash target 99 out of range for n=16")]
    fn a_worker_panic_reaches_the_caller() {
        sweep(&SweepSpec {
            faults: FaultPlan::new().with_crashes([99]),
            threads: 2,
            ..small_spec()
        });
    }

    #[test]
    fn sweep_produces_one_cell_per_kind_and_size() {
        let cells = sweep(&small_spec());
        assert_eq!(cells.len(), 4);
        assert_eq!(cells[0].algorithm, "pointer-doubling");
        assert_eq!(cells[0].n, 16);
        assert_eq!(cells[3].algorithm, "flooding");
        assert_eq!(cells[3].n, 32);
        for c in &cells {
            assert_eq!(c.rounds.count, 3);
            assert_eq!(c.completion_rate, 1.0);
            assert!(c.all_sound);
            assert!(c.rounds.mean > 0.0);
            assert!(c.messages.mean > 0.0);
        }
    }

    #[test]
    fn sweep_is_deterministic_regardless_of_threading() {
        let mut one = small_spec();
        one.threads = 1;
        let mut many = small_spec();
        many.threads = 4;
        let a = sweep(&one);
        let b = sweep(&many);
        for (x, y) in a.iter().zip(&b) {
            assert_eq!(x.rounds.mean, y.rounds.mean);
            assert_eq!(x.messages.mean, y.messages.mean);
        }
    }

    #[test]
    fn engine_choice_does_not_change_results() {
        let sequential = sweep(&small_spec());
        let mut spec = small_spec();
        spec.engine = EngineKind::Sharded { workers: 2 };
        spec.threads = 1;
        let sharded = sweep(&spec);
        for (x, y) in sequential.iter().zip(&sharded) {
            assert_eq!(x.rounds.mean, y.rounds.mean);
            assert_eq!(x.messages.mean, y.messages.mean);
            assert_eq!(x.pointers.mean, y.pointers.mean);
            assert_eq!(x.bits.mean, y.bits.mean);
        }
    }

    #[test]
    fn budget_censoring_shows_in_completion_rate() {
        let spec = SweepSpec {
            kinds: vec![AlgorithmKind::NameDropper],
            topology: Topology::Path,
            ns: vec![64],
            seeds: 0..2,
            max_rounds: 1,
            ..Default::default()
        };
        let cells = sweep(&spec);
        assert_eq!(cells[0].completion_rate, 0.0);
        assert_eq!(cells[0].rounds.mean, 1.0);
    }

    #[test]
    #[should_panic(expected = "at least one algorithm")]
    fn empty_spec_rejected() {
        sweep(&SweepSpec {
            ns: vec![8],
            ..Default::default()
        });
    }
}
