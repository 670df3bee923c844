//! Wire messages of the cluster-merge protocol.

use rd_sim::{MessageCost, NodeId, PointerList};
use std::sync::Arc;

/// Protocol messages of the reconstructed Haeupler–Malkhi algorithm.
///
/// Leader-addressed messages ([`Report`](HmMsg::Report),
/// [`ProbeFwd`](HmMsg::ProbeFwd), [`ProbeReply`](HmMsg::ProbeReply),
/// [`Join`](HmMsg::Join), [`Invite`](HmMsg::Invite)) carry their semantic
/// originator in the payload, because any non-leader receiving one simply
/// forwards it along its own leader pointer — leader pointers strictly
/// increase, so forwarding chains always terminate at a live leader.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum HmMsg {
    /// Member → leader: identifiers freshly learned by the member.
    /// Retransmitted with a fresh `epoch` every report phase until the
    /// matching [`ReportAck`](HmMsg::ReportAck) arrives, so dropped
    /// reports never lose a discovery lead.
    Report {
        /// The member that originated the report (forwarding along
        /// leader pointers rewrites the envelope source, so the ack
        /// destination must travel in the payload).
        from: NodeId,
        /// Retransmission epoch, unique per originating member.
        epoch: u32,
        /// Fresh identifiers.
        ids: PointerList,
    },
    /// Leader → reporting member: the report with this epoch was merged.
    ReportAck {
        /// Epoch being acknowledged.
        epoch: u32,
    },
    /// Leader → member: probe this external target next probe phase.
    Assign {
        /// The node to probe.
        target: NodeId,
    },
    /// Prober → target: "my cluster (led by `from_leader`) has found you".
    Probe {
        /// The probing cluster's leader.
        from_leader: NodeId,
    },
    /// Target → its own leader: a foreign cluster probed `target`.
    ProbeFwd {
        /// The probing cluster's leader.
        from_leader: NodeId,
        /// The member that was probed.
        target: NodeId,
    },
    /// Target's leader → probing leader: "that node is mine".
    ProbeReply {
        /// The target's cluster leader.
        leader: NodeId,
        /// The node that was probed (lets the prober retire the probe).
        target: NodeId,
    },
    /// Smaller leader → larger leader: "absorb my whole cluster". The
    /// payload is `(members, frontier)`: every member of the joining
    /// cluster (its leader included), and the cluster's unexplored
    /// pointers, handed over so no discovery lead is ever lost in a
    /// merge. One shared allocation, held by the sender until the join
    /// is acknowledged, so a retry costs a reference count — and the
    /// rare join does not size every other message.
    Join(Arc<(PointerList, PointerList)>),
    /// Larger leader → smaller leader: "you should join me" (sent when
    /// the discovery was one-sided in the wrong direction).
    Invite {
        /// The inviting (larger) leader.
        leader: NodeId,
    },
    /// Absorbing leader → absorbed member: your leader is now `leader`.
    Adopt {
        /// The new leader.
        leader: NodeId,
    },
    /// Quiescent leader → members: the full cluster roster (the final
    /// broadcast that upgrades `LeaderKnowsAll` to
    /// `EveryoneKnowsEveryone`).
    Roster {
        /// All known identifiers.
        ids: PointerList,
    },
}

impl MessageCost for HmMsg {
    fn pointers(&self) -> usize {
        match self {
            HmMsg::Report { ids, .. } => ids.len() + 1,
            HmMsg::Roster { ids } => ids.len(),
            HmMsg::ReportAck { .. } => 0,
            HmMsg::Assign { .. } | HmMsg::Probe { .. } => 1,
            HmMsg::ProbeFwd { .. } | HmMsg::ProbeReply { .. } => 2,
            HmMsg::Join(join) => join.0.len() + join.1.len(),
            HmMsg::Invite { .. } | HmMsg::Adopt { .. } => 1,
        }
    }

    fn visit_ids(&self, visit: &mut dyn FnMut(NodeId)) {
        match self {
            HmMsg::Report { from, ids, .. } => {
                visit(*from);
                ids.visit_ids(visit);
            }
            HmMsg::Roster { ids } => ids.visit_ids(visit),
            HmMsg::ReportAck { .. } => {}
            HmMsg::Assign { target } => visit(*target),
            HmMsg::Probe { from_leader } => visit(*from_leader),
            HmMsg::ProbeFwd {
                from_leader,
                target,
            } => {
                visit(*from_leader);
                visit(*target);
            }
            HmMsg::ProbeReply { leader, target } => {
                visit(*leader);
                visit(*target);
            }
            HmMsg::Join(join) => {
                join.0.visit_ids(visit);
                join.1.visit_ids(visit);
            }
            HmMsg::Invite { leader } | HmMsg::Adopt { leader } => visit(*leader),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn id(i: u32) -> NodeId {
        NodeId::new(i)
    }

    #[test]
    fn pointer_costs_match_payload() {
        assert_eq!(
            HmMsg::Report {
                from: id(0),
                epoch: 1,
                ids: vec![id(1), id(2)].into()
            }
            .pointers(),
            3
        );
        assert_eq!(HmMsg::ReportAck { epoch: 1 }.pointers(), 0);
        assert_eq!(HmMsg::Assign { target: id(1) }.pointers(), 1);
        assert_eq!(HmMsg::Probe { from_leader: id(1) }.pointers(), 1);
        assert_eq!(
            HmMsg::ProbeFwd {
                from_leader: id(1),
                target: id(2)
            }
            .pointers(),
            2
        );
        assert_eq!(
            HmMsg::Join(Arc::new((
                vec![id(1), id(2), id(3)].into(),
                vec![id(9)].into()
            )))
            .pointers(),
            4
        );
        assert_eq!(HmMsg::Invite { leader: id(5) }.pointers(), 1);
        assert_eq!(
            HmMsg::Roster {
                ids: PointerList::default()
            }
            .pointers(),
            0
        );
    }
}
