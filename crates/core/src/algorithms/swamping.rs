//! Swamping (Harchol-Balter, Leighton, Lewin — PODC '99): the second
//! classic baseline of the original resource-discovery paper.
//!
//! Every round, every machine opens a connection to *every* machine it
//! currently knows and ships its complete knowledge (the original paper
//! has both endpoints swap neighbour lists; in a one-way message model
//! the reverse direction materialises one round later, once the
//! receiver has learned the sender from the envelope). Neighbourhoods
//! compose, so knowledge radius doubles per round: `O(log n)` rounds —
//! but unlike [`Flooding`](crate::algorithms::flooding::Flooding),
//! swamping is not freshness-gated and re-ships complete knowledge on
//! every edge every round, which is exactly why HLL '99 dismiss it:
//! `Θ(n²)` messages *per round* near completion and `Θ(n³)` pointers
//! overall. Run it only at modest `n`.

use crate::algorithms::{DiscoveryAlgorithm, KnowledgeView, TransferMsg};
use crate::knowledge::KnowledgeSet;
use crate::problem::InitialKnowledge;
use rd_sim::{Inbox, Node, NodeId, RoundContext};

/// Factory for the swamping baseline.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Swamping;

/// Per-node state of swamping.
#[derive(Debug, Clone)]
pub struct SwampingNode {
    knowledge: KnowledgeSet,
    /// Once the node's knowledge has been stable for a full round *and*
    /// every neighbour it contacted stayed silent, it stops swamping
    /// (without this local damping the protocol literally never stops;
    /// HLL assume a known round budget instead).
    idle_rounds: u32,
}

impl Node for SwampingNode {
    type Msg = TransferMsg;

    fn on_round(&mut self, inbox: Inbox<'_, TransferMsg>, ctx: &mut RoundContext<'_, TransferMsg>) {
        let mut learned = false;
        for env in inbox {
            learned |= self.knowledge.insert(env.src);
            learned |= self.knowledge.adopt(env.payload.ids()) > 0;
        }
        if learned || ctx.round() == 0 {
            self.idle_rounds = 0;
        } else {
            self.idle_rounds += 1;
        }
        // Two rounds without learning anything: every known neighbour
        // already received our complete knowledge in our last active
        // round, so there is nothing left to say until something new
        // arrives (which resets the counter and resumes swamping).
        if self.idle_rounds >= 2 {
            return;
        }
        // One snapshot a round, whatever the number of neighbours.
        let me = ctx.id();
        let ids = self.knowledge.snapshot();
        for dst in ids.iter().filter(|&v| v != me) {
            ctx.send(dst, TransferMsg::new(ids.clone(), dst));
        }
    }
}

impl KnowledgeView for SwampingNode {
    fn knowledge(&self) -> &KnowledgeSet {
        &self.knowledge
    }
}

impl DiscoveryAlgorithm for Swamping {
    type NodeState = SwampingNode;

    fn name(&self) -> String {
        "swamping".into()
    }

    fn make_nodes(&self, initial: &InitialKnowledge) -> Vec<SwampingNode> {
        initial
            .rows()
            .enumerate()
            .map(|(u, ids)| {
                let mut knowledge = KnowledgeSet::new(NodeId::new(u as u32));
                knowledge.extend_from_slice(ids);
                SwampingNode {
                    knowledge,
                    idle_rounds: 0,
                }
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::algorithms::Flooding;
    use crate::problem;
    use crate::runner::{run_algorithm, RunConfig};
    use rd_graphs::Topology;
    use rd_sim::{Engine, RoundEngine};

    fn run_swamp(topo: Topology, n: usize, seed: u64) -> crate::RunReport {
        run_algorithm(
            &Swamping,
            &RunConfig::new(topo, n, seed).with_max_rounds(5_000),
        )
    }

    #[test]
    fn completes_on_survey_topologies() {
        for topo in [
            Topology::Path,
            Topology::Cycle,
            Topology::StarIn,
            Topology::StarOut,
            Topology::BinaryTree,
            Topology::KOut { k: 3 },
        ] {
            let report = run_swamp(topo, 64, 5);
            assert!(report.completed, "{topo} incomplete");
            assert!(report.sound, "{topo} unsound");
        }
    }

    #[test]
    fn rounds_are_logarithmic_like_flooding() {
        let swamp = run_swamp(Topology::Path, 128, 1);
        let flood = run_algorithm(&Flooding, &RunConfig::new(Topology::Path, 128, 1));
        assert!(swamp.completed && flood.completed);
        // Same doubling mechanism, so same order of rounds.
        assert!(swamp.rounds <= flood.rounds + 4);
    }

    #[test]
    fn wastes_far_more_messages_than_flooding() {
        let swamp = run_swamp(Topology::KOut { k: 3 }, 128, 1);
        let flood = run_algorithm(&Flooding, &RunConfig::new(Topology::KOut { k: 3 }, 128, 1));
        assert!(
            swamp.pointers > flood.pointers,
            "swamping {} <= flooding {}",
            swamp.pointers,
            flood.pointers
        );
    }

    #[test]
    fn damping_quiesces_after_completion() {
        let g = Topology::Cycle.generate(32, 1);
        let nodes = Swamping.make_nodes(&problem::initial_knowledge(&g));
        let mut engine = Engine::new(nodes, 1);
        let outcome = engine.run_until(1_000, problem::everyone_knows_everyone);
        assert!(outcome.completed);
        // Give the damping a few rounds, then verify silence.
        for _ in 0..4 {
            engine.step();
        }
        let before = engine.metrics().total_messages();
        engine.step();
        assert_eq!(
            engine.metrics().total_messages(),
            before,
            "still chattering"
        );
    }

    #[test]
    fn single_node_trivial() {
        let report = run_swamp(Topology::Path, 1, 1);
        assert!(report.completed);
        assert_eq!(report.messages, 0);
    }
}
