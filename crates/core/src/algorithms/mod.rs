//! The discovery protocols and the traits that bind them to the runner.

pub mod flooding;
pub mod hm;
pub mod name_dropper;
pub mod pointer_doubling;
pub mod random_pointer_jump;
pub mod swamping;

pub use flooding::Flooding;
pub use hm::HmDiscovery;
pub use name_dropper::NameDropper;
pub use pointer_doubling::PointerDoubling;
pub use random_pointer_jump::RandomPointerJump;
pub use swamping::Swamping;

use crate::knowledge::KnowledgeSet;
use crate::problem::InitialKnowledge;
use rd_sim::{MessageCost, NodeId, PointerList};

/// A sender's whole knowledge, minus one id: what Name-Dropper,
/// swamping and pointer doubling put on the wire.
///
/// None of them tells a machine its own name, and the receiver of a
/// message is one of the ids its sender knows. Building "everything but
/// you" per destination would be a copy per message, so the message is
/// the sender's [snapshot](crate::KnowledgeSet::snapshot) — one
/// allocation, shared by every message that carries it — next to the id
/// that is not part of it. Cost accounting and causal provenance see
/// `ids` without `except`; the receiver may merge all of `ids`, because
/// `except` is the receiver and every machine knows itself.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TransferMsg {
    ids: PointerList,
    except: NodeId,
}

impl TransferMsg {
    /// `ids` — every identifier the sender knows, in the order it
    /// learned them — for the destination `except`, which is neither
    /// sent nor charged. `except` must be listed in `ids` (checked in
    /// debug builds): that is why [`pointers`](MessageCost::pointers)
    /// may answer one less than the list's length without a search.
    pub fn new(ids: PointerList, except: NodeId) -> Self {
        debug_assert!(ids.contains(except), "{except} is not among the ids sent");
        TransferMsg { ids, except }
    }

    /// Everything the sender knew, the destination among them.
    pub fn ids(&self) -> &PointerList {
        &self.ids
    }
}

impl MessageCost for TransferMsg {
    fn pointers(&self) -> usize {
        self.ids.len() - 1
    }

    fn visit_ids(&self, visit: &mut dyn FnMut(NodeId)) {
        self.ids
            .iter()
            .filter(|&id| id != self.except)
            .for_each(visit);
    }
}

/// Harness-side read access to a node's knowledge.
///
/// The omniscient harness uses this view to decide global completion
/// (the literature measures *convergence time*, observed from outside)
/// and to verify soundness; protocols themselves never see it. Every
/// question it asks — does the node know `id`, its largest id, does it
/// cover a mask — is one about the node's knowledge set Γ(v), so the
/// view hands that set out and the checks ask it directly.
pub trait KnowledgeView {
    /// The node's knowledge set Γ(v).
    fn knowledge(&self) -> &KnowledgeSet;
    /// Number of distinct identifiers this node knows. The completion
    /// predicates rely on the distinctness: n ids of a node, all below
    /// n, are the whole population.
    fn knows_count(&self) -> usize {
        self.knowledge().len()
    }
    /// Whether the node's *local* state claims discovery is finished.
    ///
    /// Only protocols with genuine local termination detection return
    /// `true` here; the default (no claim) is correct for the rest.
    fn believes_done(&self) -> bool {
        false
    }
    /// Heap bytes of the node's knowledge state (capacities, not
    /// lengths): the set's [`resident_bytes`](KnowledgeSet::resident_bytes).
    /// Sampled per round by the profiler's memory timeline.
    fn resident_bytes(&self) -> u64 {
        self.knowledge().resident_bytes() as u64
    }
}

/// A resource-discovery protocol: a factory that turns an instance's
/// initial knowledge into node programs the engine can run.
pub trait DiscoveryAlgorithm {
    /// The per-node program type.
    type NodeState: rd_sim::Node + KnowledgeView;

    /// Display name for tables.
    fn name(&self) -> String;

    /// Instantiates one node program per machine; `initial[u]` is the
    /// identifiers machine `u` starts with (itself first), handed over
    /// in flat CSR form ([`InitialKnowledge`]).
    fn make_nodes(&self, initial: &InitialKnowledge) -> Vec<Self::NodeState>;
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn a_transfer_counts_and_teaches_everything_but_its_destination() {
        let [a, b, c] = [4, 9, 2].map(NodeId::new);
        let msg = TransferMsg::new(PointerList::from(vec![a, b, c]), b);
        assert_eq!(msg.pointers(), 2);
        let mut taught = Vec::new();
        msg.visit_ids(&mut |id| taught.push(id));
        assert_eq!(taught, [a, c]);
    }

    #[test]
    #[cfg(debug_assertions)]
    #[should_panic(expected = "not among the ids sent")]
    fn a_transfer_must_list_its_destination() {
        let [a, b, c] = [4, 9, 2].map(NodeId::new);
        let _ = TransferMsg::new(PointerList::from(vec![a, c]), b);
    }
}
