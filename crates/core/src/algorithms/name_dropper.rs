//! Name-Dropper (Harchol-Balter, Leighton, Lewin — PODC '99): the
//! randomized `O(log² n)` baseline the paper improves on.
//!
//! Every round, every machine picks one uniformly random machine it
//! knows and *transfers* its entire knowledge to it; the receiver also
//! learns the sender's id from the envelope (the "reverse pointer" of the
//! original paper). HLL '99 prove completion in `O(log² n)` rounds w.h.p.
//! on any weakly connected initial knowledge graph, with `O(n log² n)`
//! messages and `O(n² log² n)` pointers.
//!
//! Name-Dropper has no local termination detection — the original
//! analysis simply runs it for `c · log² n` rounds — so the harness
//! measures convergence with the omniscient completion predicate, as the
//! literature does.

use crate::algorithms::{DiscoveryAlgorithm, KnowledgeView, TransferMsg};
use crate::knowledge::KnowledgeSet;
use crate::problem::InitialKnowledge;
use rd_sim::{Inbox, Node, NodeId, RoundContext};

/// Factory for the Name-Dropper baseline.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct NameDropper;

/// Per-node state of Name-Dropper.
#[derive(Debug, Clone)]
pub struct NameDropperNode {
    /// Sent whole every round as a [snapshot](KnowledgeSet::snapshot),
    /// a prefix of the set's own list: most rounds teach a node
    /// nothing, and sending again is then a clone of the handle.
    knowledge: KnowledgeSet,
}

impl Node for NameDropperNode {
    type Msg = TransferMsg;

    fn on_round(&mut self, inbox: Inbox<'_, TransferMsg>, ctx: &mut RoundContext<'_, TransferMsg>) {
        for env in inbox {
            self.knowledge.insert(env.src); // reverse pointer
            self.knowledge.adopt(env.payload.ids());
        }
        let me = ctx.id();
        if let Some(target) = {
            let rng = ctx.rng();
            self.knowledge.sample_other(rng, me)
        } {
            ctx.send(target, TransferMsg::new(self.knowledge.snapshot(), target));
        }
    }
}

impl KnowledgeView for NameDropperNode {
    fn knowledge(&self) -> &KnowledgeSet {
        &self.knowledge
    }
}

impl DiscoveryAlgorithm for NameDropper {
    type NodeState = NameDropperNode;

    fn name(&self) -> String {
        "name-dropper".into()
    }

    fn make_nodes(&self, initial: &InitialKnowledge) -> Vec<NameDropperNode> {
        initial
            .rows()
            .enumerate()
            .map(|(u, ids)| {
                let mut knowledge = KnowledgeSet::new(NodeId::new(u as u32));
                knowledge.extend_from_slice(ids);
                NameDropperNode { knowledge }
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::problem;
    use rd_graphs::Topology;
    use rd_sim::{Engine, RoundEngine};

    fn run_nd(topo: Topology, n: usize, seed: u64) -> (rd_sim::RunOutcome, u64) {
        let g = topo.generate(n, seed);
        let nodes = NameDropper.make_nodes(&problem::initial_knowledge(&g));
        let mut engine = Engine::new(nodes, seed);
        let outcome = engine.run_until(100_000, problem::everyone_knows_everyone);
        (outcome, engine.metrics().total_messages())
    }

    #[test]
    fn completes_on_path() {
        let (outcome, _) = run_nd(Topology::Path, 64, 3);
        assert!(outcome.completed);
        // O(log² n) with small constants: log2(64)² = 36; give slack.
        assert!(outcome.rounds <= 120, "rounds = {}", outcome.rounds);
    }

    #[test]
    fn completes_on_random_overlay() {
        let (outcome, _) = run_nd(Topology::KOut { k: 3 }, 256, 5);
        assert!(outcome.completed);
        assert!(outcome.rounds <= 80, "rounds = {}", outcome.rounds);
    }

    #[test]
    fn one_message_per_node_per_round() {
        let g = Topology::Cycle.generate(32, 1);
        let nodes = NameDropper.make_nodes(&problem::initial_knowledge(&g));
        let mut engine = Engine::new(nodes, 1);
        for _ in 0..5 {
            engine.step();
        }
        assert_eq!(engine.metrics().total_messages(), 5 * 32);
    }

    #[test]
    fn single_node_is_silent() {
        let (outcome, messages) = run_nd(Topology::Path, 1, 1);
        assert!(outcome.completed);
        assert_eq!(messages, 0);
    }

    #[test]
    fn knowledge_is_monotone_under_transfer() {
        let g = Topology::RandomTree.generate(48, 9);
        let nodes = NameDropper.make_nodes(&problem::initial_knowledge(&g));
        let mut engine = Engine::new(nodes, 9);
        let mut prev: Vec<usize> = engine.nodes().iter().map(|n| n.knows_count()).collect();
        for _ in 0..30 {
            engine.step();
            let now: Vec<usize> = engine.nodes().iter().map(|n| n.knows_count()).collect();
            for (a, b) in prev.iter().zip(&now) {
                assert!(b >= a, "knowledge shrank");
            }
            prev = now;
        }
    }

    #[test]
    fn deterministic_per_seed() {
        assert_eq!(
            run_nd(Topology::KOut { k: 2 }, 64, 77),
            run_nd(Topology::KOut { k: 2 }, 64, 77)
        );
    }
}
