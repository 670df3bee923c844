//! Eager flooding: the round-optimal, message-wasteful baseline.
//!
//! Every node forwards anything new it learns to *everyone* it knows, and
//! greets newly learned nodes with its entire knowledge. The knowledge
//! radius of every node doubles each round, so completion takes
//! `Θ(log D)` rounds — the information-propagation floor of DESIGN.md
//! §1.1 — at a message cost of `Θ(n²)`-ish per instance. No other
//! algorithm can beat flooding's round count; everything else tries to
//! approach it while spending a vanishing fraction of its messages.

use crate::algorithms::{DiscoveryAlgorithm, KnowledgeView};
use crate::knowledge::KnowledgeSet;
use crate::problem::InitialKnowledge;
use rd_sim::{Inbox, MessageCost, Node, NodeId, PointerList, RoundContext};

/// Factory for the flooding baseline.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Flooding;

/// Flooding payload: a batch of identifiers.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FloodMsg {
    /// Identifiers being disseminated.
    pub ids: PointerList,
}

impl MessageCost for FloodMsg {
    fn pointers(&self) -> usize {
        self.ids.len()
    }

    fn visit_ids(&self, visit: &mut dyn FnMut(NodeId)) {
        self.ids.visit_ids(visit);
    }
}

/// Per-node state of the flooding protocol.
///
/// Dissemination state is a single high-water mark (`sent`) over the
/// knowledge set's append-only learning-order list: `list[sent..]` is
/// exactly what this node has not yet flooded, and an id is newly met
/// iff its list position is `>= sent`: two borrowed slices and one
/// integer compare per destination. One mark serves every peer because
/// flooding sends to *all* of them whenever it sends at all.
#[derive(Debug, Clone)]
pub struct FloodingNode {
    knowledge: KnowledgeSet,
    /// Knowledge-list length at the end of the last flooding round.
    sent: usize,
    started: bool,
}

impl Node for FloodingNode {
    type Msg = FloodMsg;

    fn on_round(&mut self, inbox: Inbox<'_, FloodMsg>, ctx: &mut RoundContext<'_, FloodMsg>) {
        for env in inbox {
            self.knowledge.insert(env.src);
            self.knowledge.adopt(&env.payload.ids);
        }
        if self.sent == self.knowledge.mark() && self.started {
            return; // quiescent until something new arrives
        }
        let me = ctx.id();
        // Both payloads are built once a round and every envelope
        // carries a clone of the handle.
        let list = self.knowledge.list();
        let others: Vec<NodeId> = list.iter().copied().filter(|&v| v != me).collect();
        let full = PointerList::shared(&others);
        if !self.started {
            // Opening round: introduce the full (initial) knowledge to
            // every initially known node.
            self.started = true;
            for &dst in &others {
                ctx.send(dst, FloodMsg { ids: full.clone() });
            }
            self.sent = list.len();
            return;
        }
        // Steady state: deltas to old acquaintances, full knowledge to
        // newly met nodes (they may have missed everything so far).
        let fresh = PointerList::shared(&list[self.sent..]);
        for (pos, &dst) in list.iter().enumerate() {
            if dst == me {
                continue;
            }
            let payload = if pos >= self.sent { &full } else { &fresh };
            ctx.send(
                dst,
                FloodMsg {
                    ids: payload.clone(),
                },
            );
        }
        self.sent = list.len();
    }
}

impl KnowledgeView for FloodingNode {
    fn knowledge(&self) -> &KnowledgeSet {
        &self.knowledge
    }
}

impl DiscoveryAlgorithm for Flooding {
    type NodeState = FloodingNode;

    fn name(&self) -> String {
        "flooding".into()
    }

    fn make_nodes(&self, initial: &InitialKnowledge) -> Vec<FloodingNode> {
        initial
            .rows()
            .enumerate()
            .map(|(u, ids)| {
                let mut knowledge = KnowledgeSet::new(NodeId::new(u as u32));
                knowledge.extend_from_slice(ids);
                FloodingNode {
                    knowledge,
                    // Initial acquaintances sit past the mark (only the
                    // node's own id, at position 0, is pre-sent), so the
                    // opening round advertises them.
                    sent: 1,
                    started: false,
                }
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

    fn run_flooding(topo: Topology, n: usize) -> (rd_sim::RunOutcome, u64, u64) {
        let g = topo.generate(n, 11);
        let nodes = Flooding.make_nodes(&problem::initial_knowledge(&g));
        let mut engine = Engine::new(nodes, 11);
        let outcome = engine.run_until(10_000, problem::everyone_knows_everyone);
        (
            outcome,
            engine.metrics().total_messages(),
            engine.metrics().total_pointers(),
        )
    }

    #[test]
    fn completes_on_a_path() {
        let (outcome, _, _) = run_flooding(Topology::Path, 64);
        assert!(outcome.completed);
        // Knowledge radius doubles per round: log2(63) ≈ 6, plus the
        // initial introduction round and direction asymmetry.
        assert!(outcome.rounds <= 16, "rounds = {}", outcome.rounds);
        assert!(outcome.rounds >= 6, "rounds = {}", outcome.rounds);
    }

    #[test]
    fn completes_on_random_overlay_fast() {
        let (outcome, _, _) = run_flooding(Topology::KOut { k: 3 }, 256);
        assert!(outcome.completed);
        assert!(outcome.rounds <= 8, "rounds = {}", outcome.rounds);
    }

    #[test]
    fn single_node_completes_immediately() {
        let (outcome, messages, _) = run_flooding(Topology::Path, 1);
        assert!(outcome.completed);
        assert_eq!(outcome.rounds, 0);
        assert_eq!(messages, 0);
    }

    #[test]
    fn two_nodes_one_direction() {
        // 0 -> 1: node 1 must still learn 0 (via the envelope source).
        let (outcome, _, _) = run_flooding(Topology::Path, 2);
        assert!(outcome.completed);
        assert!(outcome.rounds <= 2);
    }

    #[test]
    fn message_complexity_is_quadratic_ish() {
        let (_, m64, _) = run_flooding(Topology::KOut { k: 3 }, 64);
        let (_, m256, _) = run_flooding(Topology::KOut { k: 3 }, 256);
        // 4x nodes should cost far more than 4x messages.
        assert!(m256 > 8 * m64, "m64={m64} m256={m256}");
    }

    #[test]
    fn star_out_completes() {
        let (outcome, _, _) = run_flooding(Topology::StarOut, 32);
        assert!(outcome.completed);
        assert!(outcome.rounds <= 4);
    }
}
