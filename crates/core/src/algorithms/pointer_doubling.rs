//! Deterministic pointer-doubling: the `Θ(log n)` baseline in the
//! Kutten–Peleg–Vishkin tradition of deterministic resource discovery.
//!
//! Every machine maintains a *candidate pointer* — the largest identifier
//! it knows. Each round it sends its entire knowledge to the candidate
//! (gathering knowledge upward) and answers last round's queriers with
//! its own knowledge (propagating the candidate's view downward, which
//! contains the candidate's *own* candidate — the pointer-doubling step).
//! A machine that is its own candidate (a *local maximum*) instead
//! announces its knowledge to every machine it knows whenever that
//! knowledge has grown — without this rule, all-downward knowledge graphs
//! such as the in-star (everyone knows only node 0) would deadlock, since
//! no machine would ever have anyone larger to query.
//! The distance from any machine to the global maximum along candidate
//! pointers halves every two rounds, so the maximum becomes everyone's
//! candidate after `O(log n)` rounds, gathers everything, and its replies
//! complete everyone's knowledge.
//!
//! Deterministic, `Θ(log n)` rounds, `O(n log n)` messages — the
//! strongest baseline the sub-logarithmic algorithm must beat.

use crate::algorithms::{DiscoveryAlgorithm, KnowledgeView, TransferMsg};
use crate::knowledge::KnowledgeSet;
use crate::problem::InitialKnowledge;
use rd_sim::{Inbox, MessageCost, Node, NodeId, RoundContext};

/// Factory for the pointer-doubling baseline.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct PointerDoubling;

/// Pointer-doubling messages: the sender's entire knowledge, less the
/// destination's own id.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum PdMsg {
    /// Knowledge pushed to the sender's current candidate; implicitly
    /// requests a reply.
    Query(TransferMsg),
    /// Knowledge returned to a querier, or announced by a local
    /// maximum.
    Reply(TransferMsg),
}

impl PdMsg {
    fn transfer(&self) -> &TransferMsg {
        match self {
            PdMsg::Query(transfer) | PdMsg::Reply(transfer) => transfer,
        }
    }
}

impl MessageCost for PdMsg {
    fn pointers(&self) -> usize {
        self.transfer().pointers()
    }

    fn visit_ids(&self, visit: &mut dyn FnMut(NodeId)) {
        self.transfer().visit_ids(visit);
    }
}

/// Per-node state of pointer doubling.
#[derive(Debug, Clone)]
pub struct PointerDoublingNode {
    knowledge: KnowledgeSet,
}

impl Node for PointerDoublingNode {
    type Msg = PdMsg;

    fn on_round(&mut self, inbox: Inbox<'_, PdMsg>, ctx: &mut RoundContext<'_, PdMsg>) {
        let me = ctx.id();
        let mut queriers: Vec<NodeId> = Vec::new();
        for env in inbox {
            self.knowledge.insert(env.src);
            self.knowledge.adopt(env.payload.transfer().ids());
            if matches!(env.payload, PdMsg::Query(_)) {
                queriers.push(env.src);
            }
        }
        let candidate = self.knowledge.max_id().expect("knows at least self");
        if candidate == me && !self.knowledge.has_fresh() && queriers.is_empty() {
            return;
        }
        // One snapshot a round, whoever it goes to. Every destination is
        // among its ids: the candidate is the largest of them, announce
        // targets are read off it, and queriers were inserted above.
        let ids = self.knowledge.snapshot();
        let transfer = |dst: NodeId| TransferMsg::new(ids.clone(), dst);
        if candidate != me {
            ctx.send(candidate, PdMsg::Query(transfer(candidate)));
            // Everything fresh was just transferred upward.
            self.knowledge.skip_fresh();
        } else if self.knowledge.has_fresh() {
            // Local maximum: announce downward so smaller machines learn
            // a larger candidate exists and start querying us.
            self.knowledge.skip_fresh();
            for dst in ids.iter().filter(|&v| v != me) {
                ctx.send(dst, PdMsg::Reply(transfer(dst)));
            }
        }
        queriers.sort_unstable();
        queriers.dedup();
        for s in queriers {
            if s != me {
                ctx.send(s, PdMsg::Reply(transfer(s)));
            }
        }
    }
}

impl KnowledgeView for PointerDoublingNode {
    fn knowledge(&self) -> &KnowledgeSet {
        &self.knowledge
    }
}

impl DiscoveryAlgorithm for PointerDoubling {
    type NodeState = PointerDoublingNode;

    fn name(&self) -> String {
        "pointer-doubling".into()
    }

    fn make_nodes(&self, initial: &InitialKnowledge) -> Vec<PointerDoublingNode> {
        initial
            .rows()
            .enumerate()
            .map(|(u, ids)| {
                let mut knowledge = KnowledgeSet::new(NodeId::new(u as u32));
                knowledge.extend_from_slice(ids);
                PointerDoublingNode { knowledge }
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

    fn run_pd(topo: Topology, n: usize, seed: u64) -> (rd_sim::RunOutcome, u64) {
        let g = topo.generate(n, seed);
        let nodes = PointerDoubling.make_nodes(&problem::initial_knowledge(&g));
        let mut engine = Engine::new(nodes, seed);
        let outcome = engine.run_until(10_000, problem::everyone_knows_everyone);
        (outcome, engine.metrics().total_messages())
    }

    #[test]
    fn completes_on_increasing_path() {
        // Worst case for candidate chains: the max sits at the far end.
        let (outcome, _) = run_pd(Topology::Path, 128, 1);
        assert!(outcome.completed);
        // ~2 log2(n) + O(1).
        assert!(outcome.rounds <= 30, "rounds = {}", outcome.rounds);
    }

    #[test]
    fn is_deterministic_across_seeds() {
        // A deterministic algorithm must produce identical round counts
        // for any engine seed (seeds only drive randomness it never uses).
        let (o1, m1) = run_pd(Topology::Path, 64, 1);
        let (o2, m2) = run_pd(Topology::Path, 64, 999);
        assert_eq!(o1.rounds, o2.rounds);
        assert_eq!(m1, m2);
    }

    #[test]
    fn completes_on_survey_topologies() {
        for topo in [
            Topology::Cycle,
            Topology::StarIn,
            Topology::StarOut,
            Topology::BinaryTree,
            Topology::KOut { k: 3 },
            Topology::Hypercube,
        ] {
            let (outcome, _) = run_pd(topo, 64, 3);
            assert!(outcome.completed, "{topo} did not complete");
            assert!(outcome.rounds <= 40, "{topo}: rounds = {}", outcome.rounds);
        }
    }

    #[test]
    fn scaling_is_logarithmic() {
        let (o128, _) = run_pd(Topology::Path, 128, 1);
        let (o1024, _) = run_pd(Topology::Path, 1024, 1);
        // 8x nodes should cost only ~3 pointer-doubling iterations more
        // (each iteration is a couple of rounds).
        assert!(
            o1024.rounds <= o128.rounds + 12,
            "128: {}, 1024: {}",
            o128.rounds,
            o1024.rounds
        );
    }

    #[test]
    fn single_node_completes_immediately() {
        let (outcome, messages) = run_pd(Topology::Path, 1, 1);
        assert!(outcome.completed);
        assert_eq!(outcome.rounds, 0);
        assert_eq!(messages, 0);
    }

    #[test]
    fn in_star_does_not_deadlock() {
        // Every node initially knows only node 0, so every node is its
        // own local maximum; only the announce rule creates progress.
        let (outcome, _) = run_pd(Topology::StarIn, 32, 1);
        assert!(outcome.completed);
        assert!(outcome.rounds <= 10, "rounds = {}", outcome.rounds);
    }

    #[test]
    fn steady_state_traffic_is_bounded_after_completion() {
        let g = Topology::KOut { k: 2 }.generate(32, 4);
        let nodes = PointerDoubling.make_nodes(&problem::initial_knowledge(&g));
        let mut engine = Engine::new(nodes, 4);
        let outcome = engine.run_until(1_000, problem::everyone_knows_everyone);
        assert!(outcome.completed);
        let before = engine.metrics().total_messages();
        for _ in 0..3 {
            engine.step();
        }
        let per_round = (engine.metrics().total_messages() - before) / 3;
        // Only queries to the maximum plus its replies remain: <= 2(n-1).
        assert!(
            per_round <= 62,
            "steady-state traffic {per_round} per round"
        );
    }
}
