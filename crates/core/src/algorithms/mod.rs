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
/// and to verify soundness; protocols themselves never see it.
pub trait KnowledgeView {
    /// Does this node know `id`?
    fn knows(&self, id: NodeId) -> bool;
    /// Number of distinct identifiers this node knows. The completion
    /// predicates rely on the distinctness: n ids of a node, all below
    /// n, are the whole population.
    fn knows_count(&self) -> usize;
    /// All identifiers this node knows.
    fn known_ids(&self) -> Vec<NodeId>;
    /// The largest identifier this node knows — what the
    /// no-fabricated-ids check compares against the instance size, so
    /// nodes backed by a [`KnowledgeSet`] answer from its membership
    /// tier ([`max_id`]) instead of copying out every id.
    ///
    /// [`KnowledgeSet`]: crate::knowledge::KnowledgeSet
    /// [`max_id`]: crate::knowledge::KnowledgeSet::max_id
    fn max_known(&self) -> Option<NodeId> {
        self.known_ids().into_iter().max()
    }
    /// Does this node know every id whose bit is set in `mask` (id `i`
    /// is bit `i % 64` of word `i / 64`)? The completion predicates and
    /// the convergence check ask this of every node, so nodes backed by
    /// a [`KnowledgeSet`] override the per-id default with its
    /// word-level [`covers`].
    ///
    /// [`KnowledgeSet`]: crate::knowledge::KnowledgeSet
    /// [`covers`]: crate::knowledge::KnowledgeSet::covers
    fn covers(&self, mask: &[u64]) -> bool {
        mask.iter().enumerate().all(|(w, &word)| {
            (0..64)
                .filter(|bit| word >> bit & 1 == 1)
                .all(|bit| self.knows(NodeId::new((w * 64 + bit) as u32)))
        })
    }
    /// Whether the node's *local* state claims discovery is finished.
    ///
    /// Only protocols with genuine local termination detection return
    /// `true` here; the default (no claim) is correct for the rest.
    fn believes_done(&self) -> bool {
        false
    }
    /// Heap bytes of the node's knowledge state (capacities, not
    /// lengths). Sampled per round by the profiler's memory timeline;
    /// protocols that track knowledge in a [`KnowledgeSet`] report its
    /// [`resident_bytes`]. The default (0) keeps exotic node states
    /// honest: unknown is reported as nothing rather than a guess.
    ///
    /// [`KnowledgeSet`]: crate::knowledge::KnowledgeSet
    /// [`resident_bytes`]: crate::knowledge::KnowledgeSet::resident_bytes
    fn resident_bytes(&self) -> u64 {
        0
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
