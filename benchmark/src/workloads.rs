//! The benchmark's workloads: what runs, at which size, and the counts a
//! correct build must reproduce at the default seed.
//!
//! Names and one-line reasons live in `BENCHMARK.json`; the longer
//! rationale is in `README.md`.

use resource_discovery::core::runner::{
    run, AlgorithmKind, Completion, RunConfig, RunReport, RunVerdict,
};
use resource_discovery::graphs::Topology;
use resource_discovery::scenarios::{self, Scenario};

/// The seed the goldens are pinned at.
pub const DEFAULT_SEED: u64 = 42;

/// The algorithms the workloads run, in their default configuration.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Algorithm {
    Hm,
    NameDropper,
}

impl Algorithm {
    fn kind(self) -> AlgorithmKind {
        match self {
            Algorithm::Hm => AlgorithmKind::Hm(Default::default()),
            Algorithm::NameDropper => AlgorithmKind::NameDropper,
        }
    }
}

/// What one instance of a workload runs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    /// One `rd_core::runner::run` on a 3-out random overlay, fault-free,
    /// on the sequential engine.
    Run {
        algorithm: Algorithm,
        completion: Completion,
    },
    /// One campaign of the `rd_scenarios` library, through `select` and
    /// `Scenario::execute(None)`.
    Campaign { name: &'static str },
}

/// Simulated statistics summed over a rep's instances. The simulator is
/// deterministic, so these repeat exactly or the build is wrong.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct Counts {
    pub rounds: u64,
    pub messages: u64,
    pub pointers: u64,
    pub retransmissions: u64,
}

impl Counts {
    pub fn of(reports: &[RunReport]) -> Counts {
        let mut c = Counts::default();
        for r in reports {
            c.rounds += r.rounds;
            c.messages += r.messages;
            c.pointers += r.pointers;
            c.retransmissions += r.retransmissions;
        }
        c
    }
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Workload {
    pub name: &'static str,
    pub kind: Kind,
    pub log2_n: u32,
    /// Instances per rep, on consecutive seeds derived from the run's
    /// seed. More than one where a single instance's cost depends so
    /// much on the seed (Name-Dropper's round count) that runs on
    /// different seeds could not be compared within the bounds.
    pub instances: u64,
    /// [`Counts`] of one rep at [`DEFAULT_SEED`].
    pub golden: Counts,
}

pub const WORKLOADS: [Workload; 4] = [
    Workload {
        name: "hm_eke_2p13_seq",
        kind: Kind::Run {
            algorithm: Algorithm::Hm,
            completion: Completion::EveryoneKnowsEveryone,
        },
        log2_n: 13,
        instances: 1,
        golden: Counts {
            rounds: 33,
            messages: 258_978,
            pointers: 67_755_462,
            retransmissions: 0,
        },
    },
    Workload {
        name: "hm_lka_2p15_seq",
        kind: Kind::Run {
            algorithm: Algorithm::Hm,
            completion: Completion::LeaderKnowsAll,
        },
        log2_n: 15,
        instances: 1,
        golden: Counts {
            rounds: 28,
            messages: 944_778,
            pointers: 2_753_501,
            retransmissions: 0,
        },
    },
    Workload {
        name: "nd_eke_2p11_seq",
        kind: Kind::Run {
            algorithm: Algorithm::NameDropper,
            completion: Completion::EveryoneKnowsEveryone,
        },
        log2_n: 11,
        instances: 4,
        golden: Counts {
            rounds: 100,
            messages: 204_800,
            pointers: 240_544_270,
            retransmissions: 0,
        },
    },
    Workload {
        name: "hm_churn_2p10_sharded2",
        kind: Kind::Campaign {
            name: "continuous-churn",
        },
        log2_n: 10,
        instances: 1,
        golden: Counts {
            rounds: 267,
            messages: 65_907,
            pointers: 2_580_988,
            retransmissions: 31_357,
        },
    },
];

/// One instance, ready to run: everything `run()` needs, built outside
/// the timed region.
pub enum Instance {
    Run(AlgorithmKind, RunConfig),
    Campaign(Scenario),
}

impl Instance {
    /// The `(algorithm, config)` pairs the instance runs, as `run()`
    /// receives them.
    pub fn jobs(&self) -> Vec<(AlgorithmKind, RunConfig)> {
        match self {
            Instance::Run(kind, config) => vec![(*kind, config.clone())],
            Instance::Campaign(scenario) => scenario
                .algorithms
                .iter()
                .map(|kind| (*kind, scenario.run_config(None, kind)))
                .collect(),
        }
    }

    /// Runs the instance the way a user of the library would. Returns
    /// each report with whether it passed: complete, sound, and for a
    /// campaign every gate of its scenario.
    pub fn execute(&self) -> Vec<(RunReport, bool)> {
        match self {
            Instance::Run(kind, config) => {
                let report = run(*kind, config);
                let ok = converged(&report);
                vec![(report, ok)]
            }
            Instance::Campaign(scenario) => scenario
                .execute(None)
                .into_iter()
                .map(|o| {
                    let ok = o.passed() && converged(&o.report);
                    (o.report, ok)
                })
                .collect(),
        }
    }

    /// Judges a report the benchmark's own driver produced by the rules
    /// [`execute`](Self::execute) applies.
    pub fn passes(&self, report: &RunReport) -> bool {
        converged(report)
            && match self {
                Instance::Run(..) => true,
                Instance::Campaign(scenario) => {
                    scenarios::gate(scenario, report.clone(), None).passed()
                }
            }
    }
}

fn converged(report: &RunReport) -> bool {
    report.completed && report.sound && report.verdict == RunVerdict::Complete
}

impl Workload {
    pub fn by_name(name: &str) -> Option<&'static Workload> {
        WORKLOADS.iter().find(|w| w.name == name)
    }

    pub fn n(&self) -> usize {
        1 << self.log2_n
    }

    /// The seeds of a rep's instances. With one instance it is the run's
    /// seed itself.
    pub fn instance_seeds(&self, seed: u64) -> impl Iterator<Item = u64> {
        let k = self.instances;
        (0..k).map(move |i| seed.wrapping_mul(k).wrapping_add(i))
    }

    /// Builds the instance for one seed. For a campaign this is the
    /// library's `select`, which the benchmark counts as set-up.
    pub fn instance(&self, instance_seed: u64) -> Instance {
        match self.kind {
            Kind::Run {
                algorithm,
                completion,
            } => Instance::Run(
                algorithm.kind(),
                RunConfig::new(Topology::KOut { k: 3 }, self.n(), instance_seed)
                    .with_completion(completion),
            ),
            Kind::Campaign { name } => {
                let mut picked = scenarios::select(self.n(), instance_seed, &[name.to_string()])
                    .expect("the workload names a campaign of the library");
                Instance::Campaign(picked.remove(0))
            }
        }
    }
}
