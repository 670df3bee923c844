//! The node-program trait and the per-round execution context.

use crate::id::NodeId;
use crate::message::Envelope;
use crate::rng;
use rand::rngs::StdRng;
use std::sync::{Arc, OnceLock};

/// A node program: the protocol logic one machine runs.
///
/// The engine calls [`Node::on_round`] once per round with the messages
/// delivered to the node (those sent to it in the previous round), in
/// arrival order. The program reads its inbox — typically with
/// `inbox.drain(..)` to take the envelopes by value — updates local
/// state, and queues outgoing messages through the [`RoundContext`].
/// The engine clears the inbox after the call and reuses its buffer, so
/// anything left behind is discarded, not redelivered.
///
/// Node programs must be *local*: all a node may use is its own state,
/// its inbox, its identifier, and its private randomness. In particular
/// they must not know the global node count — resource-discovery
/// protocols have to detect completion from local evidence.
pub trait Node {
    /// Protocol message type.
    type Msg: crate::message::MessageCost;

    /// Executes one round.
    fn on_round(
        &mut self,
        inbox: &mut Vec<Envelope<Self::Msg>>,
        ctx: &mut RoundContext<'_, Self::Msg>,
    );
}

/// The failure detector's crash report at one instant: the suspected
/// nodes in report order, and the same set as a bitmap.
///
/// A view never changes. The engine builds a new one on each round in
/// which the detector reports or retracts something and hands every node
/// a handle to the current one, so a node program that keeps the handle
/// it last acted on learns that nothing changed from [`Arc::ptr_eq`],
/// and what changed from the two bitmaps, 64 ids per word.
#[derive(Debug, Default)]
pub struct SuspectView {
    list: Vec<NodeId>,
    /// Bit `i % 64` of word `i / 64` is set iff node `i` is in `list`;
    /// ends at the word of the largest suspected id.
    words: Vec<u64>,
}

impl SuspectView {
    /// The view of a report that lists `list`, in that order.
    pub fn new(list: Vec<NodeId>) -> Self {
        let words = NodeId::bitmap(&list, NodeId::bitmap_words(&list));
        SuspectView { list, words }
    }

    /// The view of a detector that has reported nothing. Every call
    /// returns a handle to one process-wide view, so engines and node
    /// programs that start from it agree by pointer that nothing has
    /// been reported yet.
    pub fn none() -> Arc<SuspectView> {
        static NONE: OnceLock<Arc<SuspectView>> = OnceLock::new();
        NONE.get_or_init(Arc::default).clone()
    }

    /// The suspected nodes, in the order the detector reported them.
    pub fn list(&self) -> &[NodeId] {
        &self.list
    }

    /// Whether `id` is suspected.
    #[inline]
    pub fn contains(&self, id: NodeId) -> bool {
        self.words
            .get(id.index() / 64)
            .is_some_and(|word| word & (1 << (id.index() % 64)) != 0)
    }

    /// The suspected set as a bitmap: node `i` is bit `i % 64` of word
    /// `i / 64`, and a word past the end is zero.
    pub fn words(&self) -> &[u64] {
        &self.words
    }
}

/// Per-round execution context handed to a node program: who it is,
/// which round it is, a private deterministic random generator, and the
/// outbox.
pub struct RoundContext<'a, M> {
    id: NodeId,
    round: u64,
    seed: u64,
    /// Derived on the first [`rng`](Self::rng) call: most node-rounds of
    /// most protocols (all of HM's but a random merge rule's) draw
    /// nothing, and the stream is a pure function of
    /// `(seed, id, round)`, so when it is built cannot change a draw.
    rng: Option<StdRng>,
    outbox: &'a mut Vec<Envelope<M>>,
    suspects: &'a Arc<SuspectView>,
}

impl<'a, M> RoundContext<'a, M> {
    pub(crate) fn new(
        id: NodeId,
        round: u64,
        seed: u64,
        outbox: &'a mut Vec<Envelope<M>>,
        suspects: &'a Arc<SuspectView>,
    ) -> Self {
        RoundContext {
            id,
            round,
            seed,
            rng: None,
            outbox,
            suspects,
        }
    }

    /// This node's identifier.
    pub fn id(&self) -> NodeId {
        self.id
    }

    /// The current round number (0-based).
    pub fn round(&self) -> u64 {
        self.round
    }

    /// This node's private random generator for this round
    /// ([`rng::node_round_rng`]). Streams are independent across
    /// `(seed, node, round)` triples, so protocol randomness never
    /// couples nodes accidentally.
    pub fn rng(&mut self) -> &mut StdRng {
        self.rng
            .get_or_insert_with(|| rng::node_round_rng(self.seed, self.id.index(), self.round))
    }

    /// Queues `payload` for delivery to `dst` at the start of the next
    /// round.
    ///
    /// # Panics
    ///
    /// Panics if `dst` is the sending node itself: self-messages are
    /// free local computation in this model, and accounting them would
    /// inflate message complexity.
    pub fn send(&mut self, dst: NodeId, payload: M) {
        assert_ne!(dst, self.id, "node {} attempted a self-send", self.id);
        self.outbox.push(Envelope::new(self.id, dst, payload));
    }

    /// Number of messages queued so far this round (useful for tests and
    /// for protocols that cap their own fan-out).
    pub fn queued(&self) -> usize {
        self.outbox.len()
    }

    /// The crash report of the perfect failure detector: the nodes known
    /// to have crashed. Empty until the configured detection delay has
    /// elapsed (and forever, when no detector is configured) — see
    /// [`FaultPlan::with_crash_detection_after`](crate::FaultPlan::with_crash_detection_after).
    /// The same handle comes back every round until the report changes;
    /// clone it to remember what was last acted on.
    pub fn suspects(&self) -> &'a Arc<SuspectView> {
        self.suspects
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rng::node_round_rng;
    use rand::Rng;

    #[test]
    fn context_exposes_identity_and_round() {
        let mut outbox = Vec::<Envelope<u32>>::new();
        let none = SuspectView::none();
        let ctx = RoundContext::new(NodeId::new(2), 3, 1, &mut outbox, &none);
        assert_eq!(ctx.id(), NodeId::new(2));
        assert_eq!(ctx.round(), 3);
    }

    #[test]
    fn send_queues_envelopes_in_order() {
        let mut outbox = Vec::new();
        let none = SuspectView::none();
        let mut ctx = RoundContext::new(NodeId::new(0), 0, 1, &mut outbox, &none);
        ctx.send(NodeId::new(1), 10u32);
        ctx.send(NodeId::new(2), 20u32);
        assert_eq!(ctx.queued(), 2);
        let _ = ctx;
        assert_eq!(outbox[0].dst, NodeId::new(1));
        assert_eq!(outbox[1].payload, 20);
    }

    #[test]
    #[should_panic(expected = "self-send")]
    fn self_send_rejected() {
        let mut outbox = Vec::new();
        let none = SuspectView::none();
        let mut ctx = RoundContext::new(NodeId::new(0), 0, 1, &mut outbox, &none);
        ctx.send(NodeId::new(0), 0u32);
    }

    #[test]
    fn rng_is_usable_through_context() {
        let mut outbox = Vec::<Envelope<u32>>::new();
        let none = SuspectView::none();
        let mut ctx = RoundContext::new(NodeId::new(0), 0, 1, &mut outbox, &none);
        let x: u64 = ctx.rng().random();
        let y: u64 = ctx.rng().random();
        assert_ne!(x, y, "stream should advance");
    }

    #[test]
    fn a_lazily_built_rng_draws_the_node_round_stream() {
        // Asked for only after two sends, the context still hands out
        // `node_round_rng(seed, node, round)`'s stream from its start.
        let none = SuspectView::none();
        for (seed, node, round) in [(1, 0, 0), (7, 3, 12), (u64::MAX, 200, 1 << 40)] {
            let mut expected = node_round_rng(seed, node, round);
            let expected: Vec<u64> = (0..3).map(|_| expected.random()).collect();
            let mut outbox = Vec::<Envelope<u32>>::new();
            let me = NodeId::new(node as u32);
            let mut ctx = RoundContext::new(me, round, seed, &mut outbox, &none);
            ctx.send(NodeId::new(node as u32 + 1), 10);
            ctx.send(NodeId::new(node as u32 + 2), 20);
            let drawn: Vec<u64> = (0..3).map(|_| ctx.rng().random()).collect();
            assert_eq!(drawn, expected, "seed {seed}, node {node}, round {round}");
            assert_eq!(ctx.queued(), 2);
        }
    }
}
