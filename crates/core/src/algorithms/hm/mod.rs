//! The reconstructed Haeupler–Malkhi sub-logarithmic discovery
//! algorithm.
//!
//! Nodes organise into leader-owned clusters that probe their knowledge
//! frontier *in parallel* — a cluster of size `s` explores `s` external
//! pointers per super-round — and merge along every discovered
//! cluster-to-cluster edge, always toward the larger leader identifier.
//! Parallel outreach makes large clusters grow multiplicatively faster,
//! collapsing the cluster count doubly exponentially once the spreading
//! phase (`O(log D)` super-rounds) has made the frontier dense:
//! `O(log D + log log n)` super-rounds in total, with every node sending
//! `O(1)` messages per round. See `DESIGN.md` §3.2–§3.4 for the protocol
//! narrative and the explicit reconstruction assumptions.
//!
//! # Example
//!
//! ```
//! use rd_core::algorithms::hm::{HmConfig, HmDiscovery};
//! use rd_core::{problem, DiscoveryAlgorithm};
//! use rd_graphs::Topology;
//! use rd_sim::{Engine, RoundEngine};
//!
//! let g = Topology::KOut { k: 3 }.generate(128, 1);
//! let alg = HmDiscovery::new(HmConfig::default());
//! let nodes = alg.make_nodes(&problem::initial_knowledge(&g));
//! let mut engine = Engine::new(nodes, 1);
//! let outcome = engine.run_until(10_000, problem::everyone_knows_everyone);
//! assert!(outcome.completed);
//! ```

mod config;
mod messages;
mod node;

pub use config::{HmConfig, MergeRule};
pub use messages::HmMsg;
pub use node::{HmNode, PHASES};

use crate::algorithms::DiscoveryAlgorithm;
use crate::problem::InitialKnowledge;
use rd_sim::NodeId;

/// Factory for the cluster-merge discovery algorithm.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct HmDiscovery {
    cfg: HmConfig,
}

impl HmDiscovery {
    /// Creates the algorithm with the given configuration (use
    /// `HmConfig::default()` for the paper configuration).
    pub fn new(cfg: HmConfig) -> Self {
        HmDiscovery { cfg }
    }

    /// The configuration in use.
    pub fn config(&self) -> &HmConfig {
        &self.cfg
    }
}

impl DiscoveryAlgorithm for HmDiscovery {
    type NodeState = HmNode;

    fn name(&self) -> String {
        self.cfg.name()
    }

    fn make_nodes(&self, initial: &InitialKnowledge) -> Vec<HmNode> {
        initial
            .rows()
            .enumerate()
            .map(|(u, ids)| HmNode::new(NodeId::new(u as u32), ids, self.cfg))
            .collect()
    }
}

/// Number of distinct clusters in a node population: the quantity whose
/// doubly-exponential collapse figure F3 plots. Counted as the number of
/// distinct *current leader pointers* held by live nodes.
pub fn cluster_count(nodes: &[HmNode]) -> usize {
    let mut leaders: Vec<NodeId> = nodes.iter().map(|n| n.leader()).collect();
    leaders.sort_unstable();
    leaders.dedup();
    leaders.len()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::algorithms::KnowledgeView;
    use crate::problem;
    use rd_graphs::Topology;
    use rd_sim::{Engine, FaultPlan, RoundEngine};

    fn run_hm(topo: Topology, n: usize, seed: u64) -> (rd_sim::RunOutcome, u64, u64) {
        run_hm_cfg(topo, n, seed, HmConfig::default())
    }

    fn run_hm_cfg(
        topo: Topology,
        n: usize,
        seed: u64,
        cfg: HmConfig,
    ) -> (rd_sim::RunOutcome, u64, u64) {
        let g = topo.generate(n, seed);
        let nodes = HmDiscovery::new(cfg).make_nodes(&problem::initial_knowledge(&g));
        let mut engine = Engine::new(nodes, seed);
        let outcome = engine.run_until(100_000, problem::everyone_knows_everyone);
        (
            outcome,
            engine.metrics().total_messages(),
            engine.metrics().total_pointers(),
        )
    }

    #[test]
    fn completes_on_every_survey_topology() {
        for topo in Topology::survey() {
            let (outcome, _, _) = run_hm(topo, 64, 5);
            assert!(outcome.completed, "{topo} did not complete");
        }
    }

    #[test]
    fn completes_on_random_overlay_quickly() {
        let (outcome, _, _) = run_hm(Topology::KOut { k: 3 }, 1024, 3);
        assert!(outcome.completed);
        // A handful of super-rounds (6 rounds each): log D + log log n
        // with small constants.
        assert!(outcome.rounds <= 12 * PHASES, "rounds = {}", outcome.rounds);
    }

    #[test]
    fn single_node_believes_done_immediately() {
        let (outcome, messages, _) = run_hm(Topology::Path, 1, 1);
        assert!(outcome.completed);
        assert_eq!(outcome.rounds, 0);
        assert_eq!(messages, 0);
    }

    #[test]
    fn two_node_one_way_edge() {
        let (outcome, _, _) = run_hm(Topology::Path, 2, 1);
        assert!(outcome.completed);
    }

    #[test]
    fn messages_per_node_per_round_are_constant_ish() {
        let (outcome, messages, _) = run_hm(Topology::KOut { k: 3 }, 512, 7);
        assert!(outcome.completed);
        let per_node_per_round = messages as f64 / (512.0 * outcome.rounds as f64);
        assert!(
            per_node_per_round < 2.0,
            "per-node per-round messages = {per_node_per_round}"
        );
    }

    #[test]
    fn cluster_count_collapses_monotonically_to_one() {
        let g = Topology::KOut { k: 3 }.generate(256, 9);
        let nodes = HmDiscovery::default().make_nodes(&problem::initial_knowledge(&g));
        let mut engine = Engine::new(nodes, 9);
        let mut counts = vec![cluster_count(engine.nodes())];
        let outcome =
            engine.run_observed(100_000, problem::everyone_knows_everyone, |round, nodes| {
                if round % PHASES == 0 {
                    counts.push(cluster_count(nodes));
                }
            });
        assert!(outcome.completed);
        assert_eq!(counts[0], 256);
        // Knowledge can complete while the last Adopt messages are still
        // in flight; a couple more super-rounds settle every pointer.
        for _ in 0..2 * PHASES {
            engine.step();
        }
        assert_eq!(cluster_count(engine.nodes()), 1);
        assert!(
            counts.windows(2).filter(|w| w[1] > w[0]).count() <= 2,
            "cluster counts mostly non-increasing: {counts:?}"
        );
        assert!(*counts.last().unwrap() <= 4, "{counts:?}");
    }

    #[test]
    fn final_leader_is_global_max_and_quiescent() {
        let g = Topology::Cycle.generate(64, 2);
        let nodes = HmDiscovery::default().make_nodes(&problem::initial_knowledge(&g));
        let mut engine = Engine::new(nodes, 2);
        let outcome = engine.run_until(100_000, problem::everyone_knows_everyone);
        assert!(outcome.completed);
        // Merges always go toward larger ids, so the surviving leader is
        // the global maximum.
        let leaders: Vec<_> = engine.nodes().iter().filter(|n| n.is_leader()).collect();
        assert_eq!(leaders.len(), 1);
        assert_eq!(leaders[0].leader(), rd_sim::NodeId::new(63));
        assert_eq!(leaders[0].cluster_size(), 64);
    }

    #[test]
    fn local_termination_matches_global_completion() {
        let g = Topology::KOut { k: 3 }.generate(128, 4);
        let nodes = HmDiscovery::default().make_nodes(&problem::initial_knowledge(&g));
        let mut engine = Engine::new(nodes, 4);
        let outcome = engine.run_until(100_000, |nodes: &[HmNode]| {
            nodes.iter().all(|n| n.believes_done())
        });
        assert!(outcome.completed);
        assert!(problem::everyone_knows_everyone(engine.nodes()));
    }

    #[test]
    fn all_merge_rules_complete() {
        for rule in [
            MergeRule::MaxId,
            MergeRule::RandomAbove,
            MergeRule::MinAbove,
        ] {
            let cfg = HmConfig {
                merge_rule: rule,
                ..Default::default()
            };
            let (outcome, _, _) = run_hm_cfg(Topology::KOut { k: 3 }, 128, 6, cfg);
            assert!(outcome.completed, "{} did not complete", rule.name());
        }
    }

    #[test]
    fn serial_probing_completes_but_slower() {
        // The parallel-outreach advantage emerges once clusters are large
        // enough to have big frontiers; at n = 1024 it is consistent.
        let serial = HmConfig {
            parallel_probes: false,
            ..Default::default()
        };
        let (mut fast_total, mut slow_total) = (0u64, 0u64);
        for seed in [8u64, 9, 10] {
            let (fast, _, _) = run_hm(Topology::KOut { k: 3 }, 1024, seed);
            let (slow, _, _) = run_hm_cfg(Topology::KOut { k: 3 }, 1024, seed, serial);
            assert!(fast.completed && slow.completed);
            fast_total += fast.rounds;
            slow_total += slow.rounds;
        }
        assert!(
            slow_total > fast_total,
            "serial {slow_total} <= parallel {fast_total}"
        );
    }

    #[test]
    fn survives_message_drops() {
        let g = Topology::KOut { k: 3 }.generate(128, 11);
        let nodes = HmDiscovery::default().make_nodes(&problem::initial_knowledge(&g));
        let mut engine =
            Engine::new(nodes, 11).with_faults(FaultPlan::new().with_drop_probability(0.10));
        let outcome = engine.run_until(100_000, problem::everyone_knows_everyone);
        assert!(outcome.completed, "did not survive 10% drops");
    }

    #[test]
    fn deterministic_per_seed() {
        let a = run_hm(Topology::ErdosRenyi { avg_degree: 4 }, 200, 13);
        let b = run_hm(Topology::ErdosRenyi { avg_degree: 4 }, 200, 13);
        assert_eq!(a, b);
    }

    #[test]
    fn survives_crash_of_the_emerging_leader() {
        use crate::runner::{run_algorithm, RunConfig};
        // Merges always flow toward the maximum id, so node n-1 is the
        // leader-to-be; kill it mid-consolidation. With the failure
        // detector, its cluster fails over and the survivors still reach
        // full completion.
        let n = 64;
        let faults = FaultPlan::new()
            .with_crash_at(n - 1, 14)
            .with_crash_detection_after(6);
        let report = run_algorithm(
            &HmDiscovery::default(),
            &RunConfig::new(Topology::KOut { k: 4 }, n, 3)
                .with_faults(faults)
                .with_max_rounds(100_000),
        );
        assert!(report.completed, "failover did not converge");
        assert!(report.sound);
    }

    #[test]
    fn survives_cascading_leader_crashes() {
        use crate::runner::{run_algorithm, RunConfig};
        // The top three ids die one after another while consolidation is
        // in flight.
        let n = 96;
        let faults = FaultPlan::new()
            .with_crash_at(n - 1, 12)
            .with_crash_at(n - 2, 24)
            .with_crash_at(n - 3, 36)
            .with_crash_detection_after(6);
        let report = run_algorithm(
            &HmDiscovery::default(),
            &RunConfig::new(Topology::KOut { k: 4 }, n, 7)
                .with_faults(faults)
                .with_max_rounds(100_000),
        );
        assert!(report.completed, "cascading failover did not converge");
        assert!(report.sound);
    }

    #[test]
    fn fail_over_preserves_all_knowledge_leads() {
        use crate::runner::{run_algorithm, RunConfig};
        // A mid-cluster crash on a sparse graph: if any frontier lead
        // were lost in the failover, some survivor would stay unknown.
        let n = 48;
        let faults = FaultPlan::new()
            .with_crash_at(n - 1, 20)
            .with_crash_detection_after(12);
        let report = run_algorithm(
            &HmDiscovery::default(),
            &RunConfig::new(Topology::Cycle, n, 2)
                .with_faults(faults)
                .with_max_rounds(100_000),
        );
        assert!(report.completed);
        assert!(report.sound);
    }

    #[test]
    fn path_costs_log_rounds_not_more() {
        // On the path the spreading phase dominates: O(log D) = O(log n)
        // super-rounds.
        let (outcome, _, _) = run_hm(Topology::Path, 256, 1);
        assert!(outcome.completed);
        assert!(outcome.rounds <= 40 * PHASES, "rounds = {}", outcome.rounds);
    }
}
