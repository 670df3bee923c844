//! Random Pointer Jump (Harchol-Balter, Leighton, Lewin — PODC '99):
//! the third classic baseline of the original paper, kept because it is
//! instructively *broken* on weakly connected inputs.
//!
//! Every round, every machine asks one uniformly random machine it
//! knows for that machine's complete knowledge (a pull). Crucially — and
//! faithfully to HLL '99 — the contacted machine does **not** learn the
//! requester's identifier: information only ever flows *along* knowledge
//! edges. HLL '99 observe that this breaks the algorithm on weakly
//! connected graphs (a machine nobody points at is never discovered),
//! and fixing exactly this — by having the receiver record the sender,
//! the "reverse edge" — is the innovation that turns Random Pointer Jump
//! into Name-Dropper. The tests below reproduce the failure on the
//! directed path and the out-star, and the fast completion on strongly
//! connected inputs.

use crate::algorithms::{DiscoveryAlgorithm, KnowledgeView};
use crate::knowledge::KnowledgeSet;
use crate::problem::InitialKnowledge;
use rd_sim::{Inbox, MessageCost, Node, NodeId, PointerList, RoundContext};

/// Factory for the random-pointer-jump baseline.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct RandomPointerJump;

/// Random-pointer-jump messages.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum RpjMsg {
    /// "Send me everything you know" (anonymously, per HLL '99: the
    /// receiver must not exploit the transport-level sender).
    Pull,
    /// The puller's reward: the target's complete knowledge.
    Transfer {
        /// Every identifier the sender knows.
        ids: PointerList,
    },
}

impl MessageCost for RpjMsg {
    fn pointers(&self) -> usize {
        match self {
            RpjMsg::Pull => 0,
            RpjMsg::Transfer { ids } => ids.len(),
        }
    }

    fn visit_ids(&self, visit: &mut dyn FnMut(NodeId)) {
        match self {
            RpjMsg::Pull => {}
            RpjMsg::Transfer { ids } => ids.visit_ids(visit),
        }
    }
}

/// Per-node state of random pointer jump.
#[derive(Debug, Clone)]
pub struct RandomPointerJumpNode {
    knowledge: KnowledgeSet,
}

impl Node for RandomPointerJumpNode {
    type Msg = RpjMsg;

    fn on_round(&mut self, inbox: Inbox<'_, RpjMsg>, ctx: &mut RoundContext<'_, RpjMsg>) {
        let me = ctx.id();
        let mut pullers: Vec<NodeId> = Vec::new();
        for env in inbox {
            match env.payload {
                // Deliberately *not* learning env.src here: that reverse
                // edge is Name-Dropper's fix, not this algorithm.
                RpjMsg::Pull => pullers.push(env.src),
                RpjMsg::Transfer { ids } => {
                    self.knowledge.adopt(&ids);
                }
            }
        }
        pullers.sort_unstable();
        pullers.dedup();
        for p in pullers {
            if p != me {
                // Not a `TransferMsg`: a puller is not learned (above),
                // so it may be missing from what this node knows, and
                // "everything, one id uncharged" would then under-count
                // the pointers sent by one.
                let ids: Vec<NodeId> = self.knowledge.iter().filter(|&v| v != p).collect();
                ctx.send(p, RpjMsg::Transfer { ids: ids.into() });
            }
        }
        if let Some(target) = {
            let rng = ctx.rng();
            self.knowledge.sample_other(rng, me)
        } {
            ctx.send(target, RpjMsg::Pull);
        }
    }
}

impl KnowledgeView for RandomPointerJumpNode {
    fn knowledge(&self) -> &KnowledgeSet {
        &self.knowledge
    }
}

impl DiscoveryAlgorithm for RandomPointerJump {
    type NodeState = RandomPointerJumpNode;

    fn name(&self) -> String {
        "random-pointer-jump".into()
    }

    fn make_nodes(&self, initial: &InitialKnowledge) -> Vec<RandomPointerJumpNode> {
        initial
            .rows()
            .enumerate()
            .map(|(u, ids)| {
                let mut knowledge = KnowledgeSet::new(NodeId::new(u as u32));
                knowledge.extend_from_slice(ids);
                RandomPointerJumpNode { knowledge }
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::runner::{run_algorithm, Completion, RunConfig};
    use rd_graphs::Topology;

    fn run_rpj(topo: Topology, n: usize, seed: u64, budget: u64) -> crate::RunReport {
        run_algorithm(
            &RandomPointerJump,
            &RunConfig::new(topo, n, seed).with_max_rounds(budget),
        )
    }

    #[test]
    fn completes_on_strongly_connected_graphs() {
        for topo in [Topology::Cycle, Topology::Hypercube, Topology::Complete] {
            let report = run_rpj(topo, 64, 3, 10_000);
            assert!(report.completed, "{topo} incomplete");
            assert!(report.sound);
        }
    }

    #[test]
    fn fails_forever_on_the_directed_path() {
        // Nobody points at node 0, and pulls never reveal the puller:
        // node 0's identifier is undiscoverable. This is HLL '99's
        // motivation for the reverse edge.
        let report = run_rpj(Topology::Path, 32, 5, 3_000);
        assert!(!report.completed);
        // Not even the weaker completion notion is reachable.
        let weaker = run_algorithm(
            &RandomPointerJump,
            &RunConfig::new(Topology::Path, 32, 5)
                .with_completion(Completion::LeaderKnowsAll)
                .with_max_rounds(3_000),
        );
        assert!(!weaker.completed);
    }

    #[test]
    fn fails_forever_on_the_out_star() {
        // Leaves know nobody and are known only by the silent centre.
        let report = run_rpj(Topology::StarOut, 16, 1, 2_000);
        assert!(!report.completed);
    }

    #[test]
    fn name_dropper_fixes_exactly_this() {
        use crate::algorithms::NameDropper;
        let nd = run_algorithm(&NameDropper, &RunConfig::new(Topology::Path, 32, 5));
        assert!(nd.completed, "the reverse edge makes the difference");
    }

    #[test]
    fn bounded_fan_in_per_round() {
        let report = run_rpj(Topology::Cycle, 32, 1, 10_000);
        // Pulls: n per round; transfers: at most one per pull.
        assert!(report.messages <= 2 * 32 * report.rounds);
    }

    #[test]
    fn deterministic_per_seed() {
        assert_eq!(
            run_rpj(Topology::Hypercube, 64, 9, 10_000),
            run_rpj(Topology::Hypercube, 64, 9, 10_000)
        );
    }
}
