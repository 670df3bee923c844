//! Complexity accounting: rounds, messages, pointers, bits, and
//! per-node maxima.

use crate::faults::DropCause;
use crate::message::HEADER_BITS;

/// Messages lost to fault injection, broken down by cause. The type
/// lives in `rd-obs`, so an engine's tally and an archive's round rows
/// are one type. It is the *single* source of truth for drop
/// accounting: the total is always `total()`, never a separately
/// maintained field that could drift from the per-cause counts.
pub use rd_obs::DropTally;

/// Charges one drop to its cause.
pub(crate) fn charge(tally: &mut DropTally, cause: DropCause) {
    match cause {
        DropCause::Coin => tally.coin += 1,
        DropCause::Crash => tally.crash += 1,
        DropCause::Partition => tally.partition += 1,
        DropCause::Link => tally.link += 1,
        DropCause::Suppression => tally.suppression += 1,
    }
}

/// Communication volume of a single round.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct RoundMetrics {
    /// Messages delivered (sent minus dropped) out of this round.
    pub messages: u64,
    /// Pointers carried by those messages.
    pub pointers: u64,
    /// Messages discarded by fault injection, by cause.
    pub drops: DropTally,
    /// Retransmission attempts charged to this round (reliable delivery
    /// only; each is also counted in `messages` or `drops`).
    pub retransmissions: u64,
}

impl RoundMetrics {
    /// Total messages dropped this round (shorthand for
    /// `self.drops.total()`).
    pub fn dropped(&self) -> u64 {
        self.drops.total()
    }
}

/// One node's send/receive tallies, kept together so the routing hot
/// path touches a single cache line per endpoint instead of four
/// parallel `Vec<u64>` lanes (two random-access miss streams per
/// delivered message before the consolidation, one after).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct NodeLane {
    /// Messages this node sent (delivered plus dropped).
    pub sent_messages: u64,
    /// Pointers this node sent.
    pub sent_pointers: u64,
    /// Messages this node received.
    pub recv_messages: u64,
    /// Pointers this node received.
    pub recv_pointers: u64,
}

/// Cumulative complexity record of a run.
///
/// Tracks the per-round series (for figures such as F3) and per-node
/// send/receive totals (for the per-node maxima the literature reports).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RunMetrics {
    rounds: Vec<RoundMetrics>,
    nodes: Vec<NodeLane>,
    detector_retractions: u64,
}

impl RunMetrics {
    /// Creates an empty record for `n` nodes.
    pub fn new(n: usize) -> Self {
        RunMetrics {
            rounds: Vec::new(),
            nodes: vec![NodeLane::default(); n],
            detector_retractions: 0,
        }
    }

    /// Number of nodes tracked.
    pub fn node_count(&self) -> usize {
        self.nodes.len()
    }

    /// Opens accounting for a new round.
    pub(crate) fn begin_round(&mut self) {
        self.rounds.push(RoundMetrics::default());
    }

    /// Splits the record into independently borrowable lanes for the
    /// routing hot path: the current round's row plus the per-node
    /// tally array. Hoists the `rounds.last_mut()` lookup out of the
    /// per-message loop and lets the parallel router hand disjoint
    /// per-shard slices of the node array to its workers.
    ///
    /// # Panics
    ///
    /// Panics if no round is open (`begin_round` not called).
    pub(crate) fn lanes(&mut self) -> MetricsLanes<'_> {
        MetricsLanes {
            row: self.rounds.last_mut().expect("begin_round not called"),
            nodes: &mut self.nodes,
        }
    }

    /// Number of rounds executed so far.
    pub fn round_count(&self) -> u64 {
        self.rounds.len() as u64
    }

    /// Per-round series.
    pub fn rounds(&self) -> &[RoundMetrics] {
        &self.rounds
    }

    /// Total messages sent across the run (delivered plus dropped).
    pub fn total_messages(&self) -> u64 {
        self.rounds.iter().map(|r| r.messages + r.dropped()).sum()
    }

    /// Total pointers carried by delivered messages.
    pub fn total_pointers(&self) -> u64 {
        self.rounds.iter().map(|r| r.pointers).sum()
    }

    /// Total messages lost to fault injection.
    pub fn total_dropped(&self) -> u64 {
        self.drop_tally().total()
    }

    /// Run-wide drop tally, by cause.
    pub fn drop_tally(&self) -> DropTally {
        self.rounds.iter().map(|r| r.drops).sum()
    }

    /// Total retransmission attempts made by the reliable-delivery
    /// layer (each also appears in `total_messages`).
    pub fn total_retransmissions(&self) -> u64 {
        self.rounds.iter().map(|r| r.retransmissions).sum()
    }

    /// Number of suspicions the failure detector retracted after a
    /// node's recovery.
    pub fn detector_retractions(&self) -> u64 {
        self.detector_retractions
    }

    /// Records one retracted suspicion.
    pub(crate) fn record_retraction(&mut self) {
        self.detector_retractions += 1;
    }

    /// Total bit complexity given an identifier width of
    /// `⌈log₂ n⌉` bits (plus [`HEADER_BITS`] per message).
    pub fn total_bits(&self) -> u64 {
        let n = self.node_count().max(2) as u64;
        let id_bits = 64 - (n - 1).leading_zeros() as u64;
        self.total_pointers() * id_bits + self.total_messages() * HEADER_BITS
    }

    /// Per-node send/receive tallies, indexed by node id.
    pub fn node_lanes(&self) -> &[NodeLane] {
        &self.nodes
    }

    /// Per-node sent-message totals, indexed by node id (observability
    /// reads these for the hot-sender top-k).
    pub fn per_node_sent_messages(&self) -> Vec<u64> {
        self.nodes.iter().map(|l| l.sent_messages).collect()
    }

    /// Per-node received-message totals, indexed by node id.
    pub fn per_node_recv_messages(&self) -> Vec<u64> {
        self.nodes.iter().map(|l| l.recv_messages).collect()
    }

    /// Maximum number of messages any single node sent.
    pub fn max_sent_messages(&self) -> u64 {
        self.nodes
            .iter()
            .map(|l| l.sent_messages)
            .max()
            .unwrap_or(0)
    }

    /// Maximum number of messages any single node received.
    pub fn max_recv_messages(&self) -> u64 {
        self.nodes
            .iter()
            .map(|l| l.recv_messages)
            .max()
            .unwrap_or(0)
    }

    /// Mean messages sent per node.
    pub fn mean_messages_per_node(&self) -> f64 {
        if self.node_count() == 0 {
            return 0.0;
        }
        self.total_messages() as f64 / self.node_count() as f64
    }
}

/// Converts a closed metrics row into the telemetry layer's per-round
/// record (`wall_ns` and `knowledge_delta` are filled in by the
/// recorder/driver, not here — they are not deterministic state).
pub fn round_obs(round: u64, row: &RoundMetrics) -> rd_obs::RoundObs {
    rd_obs::RoundObs {
        round,
        wall_ns: 0,
        messages: row.messages,
        pointers: row.pointers,
        drops: row.drops,
        retransmissions: row.retransmissions,
        knowledge_delta: None,
    }
}

/// Split borrows of a [`RunMetrics`] for the routing hot path; see
/// [`RunMetrics::lanes`].
pub(crate) struct MetricsLanes<'a> {
    /// The open round's row.
    pub row: &'a mut RoundMetrics,
    /// Per-node send/receive tallies.
    pub nodes: &'a mut [NodeLane],
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Test shorthand for what routing does per delivered message.
    fn deliver(m: &mut RunMetrics, src: usize, dst: usize, pointers: u64) {
        let lanes = m.lanes();
        lanes.row.messages += 1;
        lanes.row.pointers += pointers;
        lanes.nodes[src].sent_messages += 1;
        lanes.nodes[src].sent_pointers += pointers;
        lanes.nodes[dst].recv_messages += 1;
        lanes.nodes[dst].recv_pointers += pointers;
    }

    /// Test shorthand for what routing does per dropped message (the
    /// sender still pays for it; the receiver never sees it).
    fn drop_one(m: &mut RunMetrics, src: usize, pointers: u64) {
        let lanes = m.lanes();
        charge(&mut lanes.row.drops, DropCause::Coin);
        lanes.nodes[src].sent_messages += 1;
        lanes.nodes[src].sent_pointers += pointers;
    }

    #[test]
    fn empty_run_is_all_zero() {
        let m = RunMetrics::new(4);
        assert_eq!(m.round_count(), 0);
        assert_eq!(m.total_messages(), 0);
        assert_eq!(m.total_pointers(), 0);
        assert_eq!(m.max_sent_messages(), 0);
    }

    #[test]
    fn deliveries_accumulate_per_round_and_per_node() {
        let mut m = RunMetrics::new(3);
        m.begin_round();
        deliver(&mut m, 0, 1, 5);
        deliver(&mut m, 0, 2, 2);
        m.begin_round();
        deliver(&mut m, 2, 0, 1);

        assert_eq!(m.round_count(), 2);
        assert_eq!(m.rounds()[0].messages, 2);
        assert_eq!(m.rounds()[0].pointers, 7);
        assert_eq!(m.rounds()[1].messages, 1);
        assert_eq!(m.total_messages(), 3);
        assert_eq!(m.total_pointers(), 8);
        assert_eq!(m.max_sent_messages(), 2);
        assert_eq!(m.node_lanes()[0].sent_pointers, 7);
        assert_eq!(m.max_recv_messages(), 1);
        assert_eq!(m.node_lanes()[1].recv_pointers, 5);
    }

    #[test]
    fn drops_charge_sender_only() {
        let mut m = RunMetrics::new(2);
        m.begin_round();
        drop_one(&mut m, 0, 4);
        assert_eq!(m.total_dropped(), 1);
        assert_eq!(m.total_messages(), 1, "sender pays for dropped messages");
        assert_eq!(m.total_pointers(), 0, "dropped pointers are not delivered");
        assert_eq!(m.max_recv_messages(), 0);
    }

    #[test]
    fn drops_split_by_cause_and_retractions_tally() {
        let mut m = RunMetrics::new(4);
        m.begin_round();
        drop_one(&mut m, 0, 1);
        {
            let lanes = m.lanes();
            charge(&mut lanes.row.drops, DropCause::Crash);
            charge(&mut lanes.row.drops, DropCause::Partition);
            lanes.row.retransmissions += 3;
        }
        m.record_retraction();
        assert_eq!(m.total_dropped(), 3);
        let tally = m.drop_tally();
        assert_eq!((tally.coin, tally.crash, tally.partition), (1, 1, 1));
        assert_eq!(m.total_retransmissions(), 3);
        assert_eq!(m.detector_retractions(), 1);
    }

    #[test]
    fn bit_complexity_uses_id_width() {
        let mut m = RunMetrics::new(1024);
        m.begin_round();
        deliver(&mut m, 0, 1, 10);
        // 10 pointers * 10 bits + 1 message * header.
        assert_eq!(m.total_bits(), 100 + HEADER_BITS);
    }

    #[test]
    fn mean_messages_per_node() {
        let mut m = RunMetrics::new(4);
        m.begin_round();
        deliver(&mut m, 0, 1, 0);
        deliver(&mut m, 1, 2, 0);
        assert!((m.mean_messages_per_node() - 0.5).abs() < 1e-12);
    }
}
