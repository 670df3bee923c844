//! The per-node state machine of the cluster-merge algorithm.

use super::config::{HmConfig, MergeRule};
use super::messages::HmMsg;
use crate::algorithms::KnowledgeView;
use crate::knowledge::KnowledgeSet;
use rand::Rng;
use rd_sim::{Envelope, Inbox, Node, NodeId, PointerList, RoundContext, SuspectView};
use std::collections::VecDeque;
use std::sync::Arc;

/// Rounds per super-round. Phase 0 reports, phase 1 assigns, phase 2
/// probes; phases 3–4 carry the probe-forward/reply hops; phase 5 merges.
pub const PHASES: u64 = 6;

const REPORT: u64 = 0;
const ASSIGN: u64 = 1;
const PROBE: u64 = 2;
const MERGE: u64 = 5;

/// One machine of the reconstructed Haeupler–Malkhi protocol.
///
/// Every node starts as the leader of its own singleton cluster with its
/// initial acquaintances as the *frontier*. Super-rounds then gather
/// fresh pointers to the leader, hand each member one distinct frontier
/// target to probe, and merge clusters along discovered leader–leader
/// edges, always toward the larger identifier. See `DESIGN.md` §3.2 for
/// the full protocol narrative and the complexity argument.
///
/// The exploration state marked *leader-only* below lives as long as
/// the node leads. A node stops leading when its cluster joins a larger
/// leader, and then gives that state up — buffers and all — because a
/// non-leader never reads it and can lead again only by failing over,
/// which rebuilds it from `members` and `knowledge`.
#[derive(Debug, Clone)]
pub struct HmNode {
    me: NodeId,
    cfg: HmConfig,
    /// Everything this node has learned (ids only ever grow).
    knowledge: KnowledgeSet,
    /// Current leader pointer (`me` while this node leads).
    leader: NodeId,
    /// Cluster members (this node first). Kept past demotion: a failed
    /// over ex-leader resumes leading the members it had.
    members: KnowledgeSet,
    /// Leader-only: external ids awaiting a probe, oldest first.
    frontier: VecDeque<NodeId>,
    /// Leader-only: every id ever enqueued (enqueue dedup).
    seen: KnowledgeSet,
    /// Leader-only: targets assigned this super-round, not yet confirmed.
    outstanding: Vec<NodeId>,
    /// Leader-only: foreign leaders discovered since the last merge phase.
    discovered: Vec<NodeId>,
    /// Leader-only: smaller leaders to invite, retried every merge phase
    /// until they become members (or the invite is handed over).
    pending_invites: Vec<NodeId>,
    /// Member-side: targets to probe at the next probe phase.
    pending_probes: Vec<NodeId>,
    /// Member-side: fresh identifiers not yet acknowledged by the leader.
    pending_report: Vec<NodeId>,
    /// Member-side: epoch of the most recent report in flight. It
    /// counts this node's report phases, so 32 bits are ample.
    report_epoch: u32,
    /// Member-side: `(epoch, ids covered)` of the report in flight.
    inflight_report: Option<(u32, usize)>,
    /// Ex-leader: the join payload — members and handed-over frontier,
    /// built once — retried by handle every merge phase until an
    /// [`HmMsg::Adopt`] proves some leader absorbed it.
    pending_join: Option<Arc<(PointerList, PointerList)>>,
    /// Member-side: a roster has been received (speculative completion).
    got_roster: bool,
    /// The failure detector's report as last digested. Held, not
    /// copied: quiescence is asked with no round context at hand, and
    /// a node that slept through several reports diffs this one against
    /// whichever is current when it wakes.
    suspected: Arc<SuspectView>,
    /// Leader-only scratch of [`digest_suspects`](Self::digest_suspects):
    /// the ids of frontier ∪ outstanding as a bitmap, kept between
    /// digests so that a retraction allocates nothing.
    queued: Vec<u64>,
}

impl HmNode {
    pub(super) fn new(me: NodeId, initial: &[NodeId], cfg: HmConfig) -> Self {
        let mut node = HmNode {
            me,
            cfg,
            knowledge: KnowledgeSet::new(me),
            leader: me,
            members: KnowledgeSet::new(me),
            frontier: VecDeque::new(),
            seen: KnowledgeSet::new(me),
            outstanding: Vec::new(),
            discovered: Vec::new(),
            pending_invites: Vec::new(),
            pending_probes: Vec::new(),
            pending_report: Vec::new(),
            report_epoch: 0,
            inflight_report: None,
            pending_join: None,
            got_roster: false,
            suspected: SuspectView::none(),
            queued: Vec::new(),
        };
        for &id in initial {
            node.knowledge.insert(id);
            node.enqueue_external(id);
        }
        node.knowledge.take_fresh(); // initial ids are in the frontier already
        node
    }

    /// Whether this node currently leads a cluster.
    pub fn is_leader(&self) -> bool {
        self.leader == self.me
    }

    /// This node's current leader pointer.
    pub fn leader(&self) -> NodeId {
        self.leader
    }

    /// Leader-only: current cluster size (1 for non-leaders' stale view).
    pub fn cluster_size(&self) -> usize {
        self.members.len()
    }

    /// The members this node believes it leads (meaningful for leaders;
    /// a plain member reports just itself). Exposed for white-box
    /// observation and tests.
    pub fn members(&self) -> Vec<NodeId> {
        self.members.to_vec()
    }

    /// Leader-only: whether the cluster has exhausted all leads and all
    /// known ids are members — the speculative local-completion signal.
    pub fn is_quiescent(&self) -> bool {
        self.is_leader()
            && self.frontier.is_empty()
            && self.outstanding.is_empty()
            && self.discovered.is_empty()
            && self.pending_invites.is_empty()
            && self.all_known_accounted_for()
    }

    /// Every known id is either a member or reported crashed. (Without a
    /// failure detector `suspected` is empty and this reduces to the
    /// count comparison `members == knowledge`.)
    fn all_known_accounted_for(&self) -> bool {
        if self.suspected.list().is_empty() {
            return self.members.len() == self.knowledge.len();
        }
        self.knowledge
            .subset_of_union(&self.members, self.suspected.words())
    }

    /// Digests a failure detector's report that is not the one held:
    /// newly crashed nodes are purged from every work queue so the
    /// cluster can drain to quiescence, and a *retracted* suspicion
    /// (the node recovered) readmits the survivor to the exploration
    /// pipeline. (A member whose leader died fails over in `on_round`.)
    fn digest_suspects(&mut self, view: &Arc<SuspectView>) {
        let (old, new) = (self.suspected.words(), view.words());
        let exceeds = |a: &[u64], b: &[u64]| {
            a.iter()
                .enumerate()
                .any(|(w, &word)| word & !b.get(w).copied().unwrap_or(0) != 0)
        };
        let (any_new, any_revived) = (exceeds(new, old), exceeds(old, new));
        if !any_new && !any_revived {
            // The same set under another handle. The held view stays:
            // its order is the order a later retraction is walked in.
            return;
        }
        // The report is the detector's full current view, so replacing
        // handles suspicions and retractions in one shot.
        let old = std::mem::replace(&mut self.suspected, Arc::clone(view));
        if any_new {
            // Only what this report adds: `pending_probes` may hold a
            // long-suspected target that a stale `Assign` put there.
            let stays = |t: &NodeId| old.contains(*t) || !view.contains(*t);
            self.frontier.retain(stays);
            self.outstanding.retain(stays);
            self.pending_invites.retain(stays);
            self.discovered.retain(stays);
            self.pending_probes.retain(stays);
        }
        if !any_revived {
            return;
        }
        // A recovered node must be re-integrated before the run can
        // complete: it is a discovery target again. `seen` may already
        // hold it from before the crash, so the frontier re-entry is
        // forced rather than going through `enqueue_external` — unless
        // a queue holds it already, which this bitmap answers for every
        // id a retraction can name.
        let leads = self.is_leader();
        let queued = &mut self.queued;
        queued.clear();
        queued.resize(if leads { old.words().len() } else { 0 }, 0);
        for &t in self.frontier.iter().chain(&self.outstanding) {
            if let Some(word) = queued.get_mut(t.index() / 64) {
                *word |= 1 << (t.index() % 64);
            }
        }
        for &r in old.list() {
            if view.contains(r) {
                continue;
            }
            // More often than not this is how the node first learns of
            // `r` at all.
            self.knowledge.insert(r);
            if !leads {
                continue;
            }
            self.seen.insert(r);
            let (w, b) = (r.index() / 64, 1 << (r.index() % 64));
            if !self.members.contains(r) && queued[w] & b == 0 {
                queued[w] |= b;
                self.frontier.push_back(r);
            }
        }
    }

    /// Leader-crash recovery: resume leadership of whatever members
    /// still point at this node (an ex-leader with an unacknowledged
    /// join keeps its old member list; an ordinary member leads itself),
    /// and rebuild the exploration frontier from everything known.
    fn fail_over(&mut self) {
        self.leader = self.me;
        self.pending_join = None;
        self.pending_report.clear();
        self.inflight_report = None;
        self.got_roster = false;
        self.outstanding.clear();
        self.discovered.clear();
        self.pending_invites.clear();
        self.frontier.clear();
        self.seen = self.members.clone();
        let (knowledge, mut enqueue) = self.knowledge_and_enqueue();
        for &id in knowledge.list() {
            enqueue(id);
        }
    }

    /// `knowledge`, lent out beside the step that offers an id to the
    /// frontier (which touches every field but it), so that ids can be
    /// enqueued straight out of the set.
    fn knowledge_and_enqueue(&mut self) -> (&mut KnowledgeSet, impl FnMut(NodeId) + '_) {
        let HmNode {
            knowledge,
            members,
            suspected,
            seen,
            frontier,
            ..
        } = self;
        let enqueue = move |id| {
            if !members.contains(id) && !suspected.contains(id) && seen.insert(id) {
                frontier.push_back(id);
            }
        };
        (knowledge, enqueue)
    }

    fn enqueue_external(&mut self, id: NodeId) {
        self.knowledge_and_enqueue().1(id);
    }

    /// Retires a confirmed probe of `target`, if one is outstanding,
    /// keeping the others' order. A super-round queues each target once,
    /// so the first match is the only one.
    fn confirm(&mut self, target: NodeId) {
        if let Some(at) = self.outstanding.iter().position(|&t| t == target) {
            self.outstanding.remove(at);
            debug_assert!(
                !self.outstanding[at..].contains(&target),
                "{target} was queued twice"
            );
        }
    }

    fn record_discovery(&mut self, foreign: NodeId) {
        // A suspected (crashed) node must never re-enter the work
        // queues: a single stale in-flight message naming it would
        // otherwise park it in `pending_invites` forever, blocking
        // quiescence — and with it the final roster.
        if foreign == self.me || self.members.contains(foreign) || self.suspected.contains(foreign)
        {
            return;
        }
        self.knowledge.insert(foreign);
        if !self.discovered.contains(&foreign) {
            self.discovered.push(foreign);
        }
    }

    fn forward(&self, ctx: &mut RoundContext<'_, HmMsg>, msg: HmMsg) {
        debug_assert!(!self.is_leader());
        debug_assert!(self.leader > self.me, "leader pointers increase");
        ctx.send(self.leader, msg);
    }

    fn absorb_join(
        &mut self,
        (members, frontier): &(PointerList, PointerList),
        ctx: &mut RoundContext<'_, HmMsg>,
    ) {
        self.knowledge.adopt(members);
        self.knowledge.adopt(frontier);
        let held = self.members.mark();
        self.members.adopt(members);
        self.seen.extend_from_slice(self.members.since(held));
        // Adopt is (re)sent even for members we already hold: a retried
        // Join means the original Adopt may have been lost, and the
        // Adopt doubles as the join acknowledgement.
        for m in members.iter() {
            if m != self.me {
                ctx.send(m, HmMsg::Adopt { leader: self.me });
            }
        }
        for f in frontier.iter() {
            self.enqueue_external(f);
        }
    }

    fn handle_message(&mut self, env: Envelope<HmMsg>, ctx: &mut RoundContext<'_, HmMsg>) {
        self.knowledge.insert(env.src);
        match env.payload {
            HmMsg::Report { from, epoch, ids } => {
                self.knowledge.insert(from);
                if self.is_leader() {
                    self.knowledge.adopt(&ids);
                    for id in ids {
                        self.enqueue_external(id);
                    }
                    if from != self.me {
                        ctx.send(from, HmMsg::ReportAck { epoch });
                    }
                } else {
                    self.forward(ctx, HmMsg::Report { from, epoch, ids });
                }
            }
            HmMsg::ReportAck { epoch } => {
                if !self.is_leader() {
                    // The ack comes straight from the current leader:
                    // adopt it (pointers only ever move up), shortcutting
                    // any forwarding chain the report travelled through.
                    // An *acting* leader must never be demoted this way —
                    // a stray ack for a pre-failover report would
                    // silently orphan the members it now leads.
                    self.leader = self.leader.max(env.src);
                } else {
                    self.record_discovery(env.src);
                }
                if let Some((inflight_epoch, covered)) = self.inflight_report {
                    if inflight_epoch == epoch {
                        self.pending_report
                            .drain(..covered.min(self.pending_report.len()));
                        self.inflight_report = None;
                    }
                }
            }
            HmMsg::Assign { target } => {
                self.knowledge.insert(target);
                self.pending_probes.push(target);
            }
            HmMsg::Probe { from_leader } => {
                self.knowledge.insert(from_leader);
                if self.is_leader() {
                    if from_leader == self.me {
                        // A probe of the leader by its own cluster: the
                        // leader is internal by definition, nothing to do.
                    } else {
                        self.record_discovery(from_leader);
                        ctx.send(
                            from_leader,
                            HmMsg::ProbeReply {
                                leader: self.me,
                                target: self.me,
                            },
                        );
                    }
                } else {
                    // Whether the probe is foreign or from our own
                    // cluster, the leader decides: it either records the
                    // discovery or retires an internal probe.
                    self.forward(
                        ctx,
                        HmMsg::ProbeFwd {
                            from_leader,
                            target: self.me,
                        },
                    );
                }
            }
            HmMsg::ProbeFwd {
                from_leader,
                target,
            } => {
                self.knowledge.insert(from_leader);
                self.knowledge.insert(target);
                if self.is_leader() {
                    if from_leader == self.me {
                        // Our own probe found one of our own members.
                        self.confirm(target);
                    } else {
                        self.record_discovery(from_leader);
                        ctx.send(
                            from_leader,
                            HmMsg::ProbeReply {
                                leader: self.me,
                                target,
                            },
                        );
                    }
                } else {
                    self.forward(
                        ctx,
                        HmMsg::ProbeFwd {
                            from_leader,
                            target,
                        },
                    );
                }
            }
            HmMsg::ProbeReply { leader, target } => {
                self.knowledge.insert(leader);
                self.knowledge.insert(target);
                if self.is_leader() {
                    self.confirm(target);
                    self.record_discovery(leader);
                } else {
                    self.forward(ctx, HmMsg::ProbeReply { leader, target });
                }
            }
            HmMsg::Join(join) => {
                if self.is_leader() {
                    self.absorb_join(&join, ctx);
                } else {
                    self.forward(ctx, HmMsg::Join(join));
                }
            }
            HmMsg::Invite { leader } => {
                self.knowledge.insert(leader);
                if self.is_leader() {
                    self.record_discovery(leader);
                } else if leader != self.leader {
                    self.forward(ctx, HmMsg::Invite { leader });
                }
            }
            HmMsg::Adopt { leader } => {
                self.knowledge.insert(leader);
                if self.is_leader() {
                    // A stale adoption (from a join or report that
                    // predates a leader-crash recovery) must not demote
                    // an acting leader: its members — and its frontier
                    // leads — would be silently orphaned. Treat it as a
                    // discovery and merge through the ordinary join path
                    // instead.
                    self.record_discovery(leader);
                } else {
                    // Leader pointers only ever move to larger ids, so
                    // the max is always the newest information.
                    self.leader = self.leader.max(leader);
                    // Any adoption proves our join payload reached a
                    // leader.
                    self.pending_join = None;
                }
            }
            HmMsg::Roster { ids } => {
                // Held by reference: n - 1 receivers share the leader's
                // one list until one of them needs learning order.
                self.knowledge.adopt(&ids);
                self.got_roster = true;
            }
        }
    }

    fn phase_report(&mut self, ctx: &mut RoundContext<'_, HmMsg>) {
        if self.is_leader() {
            let (knowledge, mut enqueue) = self.knowledge_and_enqueue();
            for &id in knowledge.take_fresh() {
                enqueue(id);
            }
            return;
        }
        self.pending_report
            .extend_from_slice(self.knowledge.take_fresh());
        if self.pending_report.is_empty() && self.got_roster {
            return;
        }
        // (Re)transmit everything unacknowledged under a fresh epoch;
        // the ack releases exactly the prefix this transmission covered.
        // An empty report doubles as a heartbeat: the acknowledgement
        // comes back from the *current* leader, healing leader pointers
        // that went stale through dropped Adopt messages.
        self.report_epoch += 1;
        self.inflight_report = Some((self.report_epoch, self.pending_report.len()));
        self.forward(
            ctx,
            HmMsg::Report {
                from: self.me,
                epoch: self.report_epoch,
                ids: self.pending_report.as_slice().into(),
            },
        );
    }

    fn phase_assign(&mut self, ctx: &mut RoundContext<'_, HmMsg>) {
        if !self.is_leader() {
            return;
        }
        // Recycle unconfirmed probes from the previous super-round
        // (drops, forwarding latency): they go back to the front so
        // retries happen before new exploration.
        for &t in self.outstanding.iter().rev() {
            self.frontier.push_front(t);
        }
        self.outstanding.clear();
        let cap = if self.cfg.parallel_probes {
            self.members.len()
        } else {
            1
        };
        // This super-round's targets go straight into `outstanding`.
        while self.outstanding.len() < cap {
            let Some(t) = self.frontier.pop_front() else {
                break;
            };
            if self.members.contains(t) {
                continue; // became internal since enqueue
            }
            self.outstanding.push(t);
        }
        let Some(&first) = self.outstanding.first() else {
            self.maybe_broadcast_roster(ctx);
            return;
        };
        // First target is probed by the leader itself; the rest go to
        // members in roster order.
        self.pending_probes.push(first);
        let mut assigned = 1;
        for m in self.members.iter() {
            let Some(&target) = self.outstanding.get(assigned) else {
                break;
            };
            if m != self.me {
                ctx.send(m, HmMsg::Assign { target });
                assigned += 1;
            }
        }
        // Targets beyond the member pool (cannot happen with the default
        // cap, but kept for safety) return to the frontier.
        for &t in self.outstanding[assigned..].iter().rev() {
            self.frontier.push_front(t);
        }
        self.outstanding.truncate(assigned);
    }

    fn maybe_broadcast_roster(&mut self, ctx: &mut RoundContext<'_, HmMsg>) {
        // Rebroadcast every quiescent super-round: a dropped roster must
        // not strand a member one id short of completion. In fault-free
        // runs the harness observes completion right after the first
        // roster lands, so at most one broadcast is ever sent.
        if !self.is_quiescent() || self.members.len() <= 1 {
            return;
        }
        // One allocation however large the cluster: every envelope
        // carries a clone of the same shared list.
        let roster = PointerList::shared(self.members.list());
        for m in self.members.iter() {
            if m != self.me {
                ctx.send(
                    m,
                    HmMsg::Roster {
                        ids: roster.clone(),
                    },
                );
            }
        }
        self.got_roster = true;
    }

    fn phase_probe(&mut self, ctx: &mut RoundContext<'_, HmMsg>) {
        let from_leader = self.leader;
        for &t in &self.pending_probes {
            if t != self.me {
                ctx.send(t, HmMsg::Probe { from_leader });
            }
        }
        self.pending_probes.clear();
    }

    fn phase_merge(&mut self, ctx: &mut RoundContext<'_, HmMsg>) {
        // Join retry: until some leader's Adopt confirms our payload was
        // absorbed, re-send it along the freshest leader pointer we hold.
        if let Some(join) = &self.pending_join {
            debug_assert!(!self.is_leader());
            ctx.send(self.leader, HmMsg::Join(Arc::clone(join)));
            return;
        }
        if !self.is_leader() {
            return;
        }
        // Sort the discoveries of this super-round: smaller leaders
        // join the invitations, larger ones stay in `discovered`.
        let HmNode {
            me,
            members,
            discovered,
            pending_invites,
            ..
        } = self;
        discovered.retain(|&d| {
            if members.contains(d) {
                return false; // merged into us in the meantime
            }
            if d > *me {
                return true;
            }
            if !pending_invites.contains(&d) {
                pending_invites.push(d);
            }
            false
        });
        self.pending_invites
            .retain(|&b| !self.members.contains(b) && !self.suspected.contains(b));
        let above = &self.discovered;
        if above.is_empty() {
            if self.cfg.invites {
                // Retried every merge phase until the invitee joins (or
                // we defect and hand the lead over).
                for &b in &self.pending_invites {
                    ctx.send(b, HmMsg::Invite { leader: self.me });
                }
            }
            return;
        }
        let target = match self.cfg.merge_rule {
            MergeRule::MaxId => above.iter().copied().max().expect("nonempty"),
            MergeRule::MinAbove => above.iter().copied().min().expect("nonempty"),
            MergeRule::RandomAbove => above[ctx.rng().random_range(0..above.len())],
        };
        // Hand over every lead we hold: the frontier, unconfirmed
        // probes, unresolved invites, and the discovered leaders we are
        // not joining.
        let mut handover: Vec<NodeId> = self.frontier.drain(..).collect();
        handover.append(&mut self.outstanding);
        handover.extend(above.iter().copied().filter(|&d| d != target));
        handover.append(&mut self.pending_invites);
        let join = Arc::new((self.members.list().into(), handover.into()));
        ctx.send(target, HmMsg::Join(Arc::clone(&join)));
        self.leader = target;
        self.knowledge.insert(target);
        self.pending_join = Some(join);
        self.give_up_the_lead();
    }

    /// Demotion: frees the leader-only state. The queues are empty by
    /// now (their leads went into the join); `seen` is dropped whole.
    /// Nothing here is read again unless [`fail_over`](Self::fail_over)
    /// makes this node lead, and that rebuilds every one of them.
    fn give_up_the_lead(&mut self) {
        debug_assert!(!self.is_leader());
        self.frontier = VecDeque::new();
        self.seen = KnowledgeSet::default();
        self.outstanding = Vec::new();
        self.discovered = Vec::new();
        self.pending_invites = Vec::new();
        self.queued = Vec::new();
    }
}

impl Node for HmNode {
    type Msg = HmMsg;

    fn on_round(&mut self, inbox: Inbox<'_, HmMsg>, ctx: &mut RoundContext<'_, HmMsg>) {
        // The engine hands out one view until the detector's report
        // changes, so nearly every round of nearly every node stops at
        // this pointer compare.
        if !Arc::ptr_eq(&self.suspected, ctx.suspects()) {
            self.digest_suspects(ctx.suspects());
        }
        for env in inbox {
            self.handle_message(env, ctx);
        }
        // Checked every round (not just on fresh reports): a stale Adopt
        // can point us at an already-reported-dead leader.
        if !self.is_leader() && self.suspected.contains(self.leader) {
            self.fail_over();
        }
        match ctx.round() % PHASES {
            REPORT => self.phase_report(ctx),
            ASSIGN => self.phase_assign(ctx),
            PROBE => self.phase_probe(ctx),
            MERGE => self.phase_merge(ctx),
            _ => {}
        }
    }
}

impl KnowledgeView for HmNode {
    fn knowledge(&self) -> &KnowledgeSet {
        &self.knowledge
    }
    fn believes_done(&self) -> bool {
        if self.is_leader() {
            self.is_quiescent()
        } else {
            self.got_roster
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;
    use rd_sim::{Engine, FaultPlan, RoundEngine};

    /// The digest as it stood when every node kept its own
    /// `KnowledgeSet` of suspects and compared report lists: the
    /// reference the view-diffing digest is tested against. `suspected`
    /// stands in for the field the node no longer has. One change since:
    /// only a leader marks a revived id `seen`, the leader-only state a
    /// demoted node gives up.
    fn digest_by_lists(node: &mut HmNode, suspected: &mut KnowledgeSet, report: &[NodeId]) {
        if report.is_empty() && suspected.is_empty() {
            return;
        }
        if suspected.list() == report {
            return;
        }
        let reported: KnowledgeSet = report.iter().copied().collect();
        let newly: Vec<NodeId> = report
            .iter()
            .copied()
            .filter(|&s| !suspected.contains(s))
            .collect();
        let revived: Vec<NodeId> = suspected
            .iter()
            .filter(|&s| !reported.contains(s))
            .collect();
        if newly.is_empty() && revived.is_empty() {
            return;
        }
        *suspected = reported;
        for &s in &newly {
            node.frontier.retain(|&t| t != s);
            node.outstanding.retain(|&t| t != s);
            node.pending_invites.retain(|&t| t != s);
            node.discovered.retain(|&t| t != s);
            node.pending_probes.retain(|&t| t != s);
        }
        for r in revived {
            node.knowledge.insert(r);
            if !node.is_leader() {
                continue;
            }
            node.seen.insert(r);
            if !node.members.contains(r)
                && !node.frontier.contains(&r)
                && !node.outstanding.contains(&r)
            {
                node.frontier.push_back(r);
            }
        }
    }

    /// Everything a digest may touch, in order.
    fn digested_state(node: &mut HmNode) -> [Vec<NodeId>; 7] {
        [
            node.frontier.iter().copied().collect(),
            node.outstanding.clone(),
            node.discovered.clone(),
            node.pending_invites.clone(),
            node.pending_probes.clone(),
            node.knowledge.list().to_vec(),
            node.seen.list().to_vec(),
        ]
    }

    #[test]
    fn diffing_views_digests_what_comparing_lists_did() {
        // Ids span several bitmap words, and the report's top id moves,
        // so views of different word counts meet.
        const IDS: u32 = 200;
        for case in 0..300u64 {
            let mut rng = StdRng::seed_from_u64(case);
            // Half the draws come from seven ids, so that one id is
            // suspected, retracted and suspected again within a nap.
            let id = |rng: &mut StdRng| {
                NodeId::new(match rng.random_range(0..2) {
                    0 => 25 * rng.random_range(1..8u32),
                    _ => rng.random_range(1..IDS),
                })
            };
            let mut node = HmNode::new(NodeId::new(0), &[], HmConfig::default());
            let mut reference = node.clone();
            let mut listed = KnowledgeSet::default();
            // The report hovers around a size set per case: short ones
            // empty out and reorder often, long ones purge a lot at once.
            let crowd = [4, 12, 40][case as usize % 3];
            let mut report: Vec<NodeId> = Vec::new();
            let mut view = SuspectView::none();
            for step in 0..80 {
                // The detector: a few reports and retractions on some
                // rounds, the same handle on the others. A second report
                // of a suspect leaves a repeated entry, as two
                // overlapping crash windows of one node would.
                if rng.random_range(0..3) == 0 {
                    for _ in 0..rng.random_range(1..6) {
                        let target = id(&mut rng);
                        if report.len() <= rng.random_range(0..crowd) {
                            report.push(target);
                        } else {
                            let held = report[target.index() % report.len()];
                            report.retain(|&s| s != held);
                        }
                    }
                    view = Arc::new(SuspectView::new(report.clone()));
                }
                // The protocol between digests: queue entries come and
                // go whatever the detector says (a stale `Assign` names
                // a suspect), clusters grow, leadership moves.
                for _ in 0..rng.random_range(0..6) {
                    let (which, t) = (rng.random_range(0..9), id(&mut rng));
                    for n in [&mut node, &mut reference] {
                        match which {
                            0 => n.frontier.push_back(t),
                            1 => n.outstanding.push(t),
                            2 => n.discovered.push(t),
                            3 => n.pending_invites.push(t),
                            4 => n.pending_probes.push(t),
                            5 => drop(n.frontier.pop_front()),
                            // A member is always a known id.
                            6 => drop((n.members.insert(t), n.knowledge.insert(t))),
                            7 => drop(n.knowledge.insert(t)),
                            _ => n.leader = if t.index() % 2 == 0 { n.me } else { t },
                        }
                    }
                }
                // A node that is down this round digests nothing, and
                // meets whatever view is current when it is back.
                if rng.random_range(0..3) == 0 {
                    continue;
                }
                if !Arc::ptr_eq(&node.suspected, &view) {
                    node.digest_suspects(&view);
                }
                digest_by_lists(&mut reference, &mut listed, &report);
                assert_eq!(
                    digested_state(&mut node),
                    digested_state(&mut reference),
                    "case {case} step {step}"
                );
                for raw in 0..IDS {
                    let id = NodeId::new(raw);
                    assert_eq!(node.suspected.contains(id), listed.contains(id));
                }
                let accounted = (node.knowledge.to_vec().into_iter())
                    .all(|id| node.members.contains(id) || listed.contains(id));
                assert_eq!(node.all_known_accounted_for(), accounted);
            }
        }
    }

    /// Node 0 runs the protocol; the others only exist to send it one
    /// scripted message (and then crash), or to keep what it sends them.
    #[derive(Debug)]
    enum Actor {
        Hm(Box<HmNode>),
        Sends(Option<HmMsg>),
        Hears(Vec<(u64, HmMsg)>),
    }

    impl Node for Actor {
        type Msg = HmMsg;

        fn on_round(&mut self, inbox: Inbox<'_, HmMsg>, ctx: &mut RoundContext<'_, HmMsg>) {
            match self {
                Actor::Hm(node) => node.on_round(inbox, ctx),
                Actor::Sends(msg) => {
                    if let Some(msg) = msg.take() {
                        ctx.send(NodeId::new(0), msg);
                    }
                }
                Actor::Hears(heard) => {
                    heard.extend(inbox.map(|env| (ctx.round(), env.payload)));
                }
            }
        }
    }

    fn protocol_node(engine: &Engine<Actor>) -> &HmNode {
        let Actor::Hm(node) = &engine.nodes()[0] else {
            unreachable!("node 0 is the protocol node")
        };
        node
    }

    /// Node 1 sends node 0 a roster naming nodes 1 to 5 and all five
    /// then crash, as a deposed leader's last broadcast reaches a node
    /// that has failed over to leading itself. Returns, per round,
    /// whether node 0 is quiescent, what it knows, and whether its
    /// knowledge was still holding the roster by reference.
    fn leader_receiving_a_stale_roster(roster: PointerList) -> Vec<(bool, Vec<NodeId>, bool)> {
        let mut actors = vec![
            Actor::Hm(Box::new(HmNode::new(
                NodeId::new(0),
                &[],
                HmConfig::default(),
            ))),
            Actor::Sends(Some(HmMsg::Roster { ids: roster })),
        ];
        actors.extend((2..=5).map(|_| Actor::Sends(None)));
        let faults = (1..=5)
            .fold(FaultPlan::new(), |plan, node| plan.with_crash_at(node, 1))
            .with_crash_detection_after(1);
        let mut engine = Engine::new(actors, 5).with_faults(faults);
        (0..PHASES)
            .map(|_| {
                engine.step();
                let leader = protocol_node(&engine);
                assert!(leader.is_leader());
                assert_eq!(leader.believes_done(), leader.is_quiescent());
                (
                    leader.is_quiescent(),
                    leader.knowledge.to_vec(),
                    !leader.knowledge.is_settled(),
                )
            })
            .collect()
    }

    #[test]
    fn a_leader_holding_a_stale_roster_by_reference_still_answers_quiescence() {
        // Five ids, each once: past the inline size, so the list is
        // shared, and distinct, so it offers the bitmap adoption needs.
        let ids: Vec<NodeId> = [2, 1, 3, 4, 5].map(NodeId::new).to_vec();
        let adopted = leader_receiving_a_stale_roster(PointerList::shared(&ids));
        let merged = leader_receiving_a_stale_roster(PointerList::from(ids));
        // Round 1 delivers the roster, and nothing before the next
        // report phase asks for learning order: quiescence is judged on
        // an unsettled set, first by count (no suspects yet), then id by
        // id against the detector's report.
        assert!(adopted[1..]
            .iter()
            .all(|&(_, _, by_reference)| by_reference));
        assert!(merged.iter().all(|&(_, _, by_reference)| !by_reference));
        let answers = |run: &[(bool, Vec<NodeId>, bool)]| -> Vec<(bool, Vec<NodeId>)> {
            run.iter()
                .map(|(q, known, _)| (*q, known.clone()))
                .collect()
        };
        assert_eq!(answers(&adopted), answers(&merged));
        // Knowing nodes that are neither members nor suspected blocks
        // quiescence; once all are reported crashed, it holds.
        let known: Vec<NodeId> = (0..=5).map(NodeId::new).collect();
        assert_eq!(adopted[1], (false, known.clone(), true));
        assert_eq!(adopted[PHASES as usize - 1], (true, known, true));
    }

    /// Heap bytes of the state only a leader reads.
    fn leader_only_bytes(node: &HmNode) -> usize {
        let ids = node.frontier.capacity()
            + node.outstanding.capacity()
            + node.discovered.capacity()
            + node.pending_invites.capacity();
        ids * std::mem::size_of::<NodeId>()
            + node.queued.capacity() * std::mem::size_of::<u64>()
            + (node.seen.resident_bytes() - std::mem::size_of::<KnowledgeSet>())
    }

    #[test]
    fn leaders_demoted_in_a_run_hold_no_leader_only_state() {
        use crate::algorithms::{DiscoveryAlgorithm, HmDiscovery};
        let graph = rd_graphs::Topology::KOut { k: 3 }.generate(256, 7);
        let initial = crate::problem::initial_knowledge(&graph);
        let nodes = HmDiscovery::new(HmConfig::default()).make_nodes(&initial);
        let mut engine = Engine::new(nodes, 7);
        // Fault-free, so every demotion is a merge's and nothing fails
        // over: a non-leader holds none of it from then on.
        while !crate::problem::everyone_knows_everyone(engine.nodes()) {
            engine.step();
            for node in engine.nodes().iter().filter(|node| !node.is_leader()) {
                assert_eq!(leader_only_bytes(node), 0, "round {}", engine.round());
            }
        }
        let leaders = engine.nodes().iter().filter(|node| node.is_leader());
        assert_eq!(leaders.count(), 1);
    }

    /// Node 0 leads the cluster node 1 joins with two leads, hears of
    /// leader 5, and joins it at its first merge phase; nothing reaches
    /// it in that round. Returns node 0 before that round and after it.
    fn demoted_by_a_merge() -> (HmNode, HmNode) {
        let ids = |raw: &[u32]| {
            raw.iter()
                .copied()
                .map(NodeId::new)
                .collect::<PointerList>()
        };
        let me = HmNode::new(NodeId::new(0), &ids(&[2, 3]).to_vec(), HmConfig::default());
        let mut actors = vec![
            Actor::Hm(Box::new(me)),
            Actor::Sends(Some(HmMsg::Join(Arc::new((ids(&[1]), ids(&[6, 7])))))),
            Actor::Sends(Some(HmMsg::Invite {
                leader: NodeId::new(5),
            })),
        ];
        actors.extend((3..8).map(|_| Actor::Sends(None)));
        let mut engine = Engine::new(actors, 5);
        for _ in 0..PHASES {
            let before = protocol_node(&engine).clone();
            engine.step();
            if !protocol_node(&engine).is_leader() {
                return (before, protocol_node(&engine).clone());
            }
        }
        panic!("node 0 never joined leader 5");
    }

    #[test]
    fn a_merge_that_demotes_a_leader_frees_its_leader_only_state() {
        let (before, after) = demoted_by_a_merge();
        assert!(before.is_leader() && before.seen.len() > 4);
        assert!(leader_only_bytes(&before) > 0);
        assert_eq!(after.leader(), NodeId::new(5));
        assert_eq!(leader_only_bytes(&after), 0);
        // Members stay: failing over resumes leading them.
        assert_eq!(after.members(), before.members());
    }

    /// Runs `node` as node 0 of eight for two super-rounds in which its
    /// leader, node 5, is down from the start and reported one round
    /// later. Returns node 0's state at the end and everything the
    /// others heard from it, by round.
    fn failing_over(node: HmNode) -> (HmNode, Vec<Vec<(u64, HmMsg)>>) {
        let mut actors = vec![Actor::Hm(Box::new(node))];
        actors.extend((1..8).map(|_| Actor::Hears(Vec::new())));
        let faults = FaultPlan::new()
            .with_crash_at(5, 0)
            .with_crash_detection_after(1);
        let mut engine = Engine::new(actors, 5).with_faults(faults);
        for _ in 0..2 * PHASES {
            engine.step();
        }
        let heard = engine.nodes()[1..]
            .iter()
            .map(|actor| match actor {
                Actor::Hears(heard) => heard.clone(),
                _ => unreachable!("nodes 1 to 7 listen"),
            })
            .collect();
        (protocol_node(&engine).clone(), heard)
    }

    #[test]
    fn failing_over_after_demotion_rebuilds_what_was_given_up() {
        let (before, demoted) = demoted_by_a_merge();
        // The node as it stood when demotion gave nothing up: `seen`
        // whole, the queues emptied into the join but still sized.
        let mut kept = demoted.clone();
        kept.seen = before.seen.clone();
        kept.queued = before.queued.clone();
        kept.frontier.reserve(before.frontier.capacity());
        kept.outstanding.reserve(before.outstanding.capacity());
        kept.discovered.reserve(before.discovered.capacity());
        kept.pending_invites
            .reserve(before.pending_invites.capacity());
        assert!(leader_only_bytes(&kept) > 0);
        let (mut node, heard) = failing_over(demoted);
        let (mut reference, reference_heard) = failing_over(kept);
        assert!(node.is_leader() && reference.is_leader());
        assert_eq!(node.frontier, reference.frontier);
        assert_eq!(node.outstanding, reference.outstanding);
        assert_eq!(node.seen.list(), reference.seen.list());
        assert_eq!(heard, reference_heard);
        // Not vacuous: the new leader's cluster was told to explore.
        assert!(heard[0]
            .iter()
            .any(|(_, msg)| matches!(msg, HmMsg::Assign { .. })));
    }
}
