//! Causal message-level provenance: the knowledge-provenance DAG.
//!
//! When causal tracing is enabled, the routing phase offers one
//! [`ProvEdge`] per identifier carried by every delivered message. The
//! [`CausalTrace`] keeps, for each `(id, node)` pair, the *first
//! delivery* — which message, from whom, sent and delivered in which
//! rounds — that could have taught `node` about `id`. Edges chain into
//! a DAG: the sender of the edge for `(id, y)` learned `id` through its
//! own edge `(id, src)`, and walking those links backwards yields the
//! causal history of any single fact (see
//! [`critical_path`](crate::critical_path)).
//!
//! Like the [`Recorder`](crate::Recorder), the trace lives strictly
//! outside the determinism boundary: it is write-only from the engine's
//! perspective, offers arrive in the canonical `(sender, send
//! sequence)` order on every engine and worker count, and sampling is a
//! pure function of `(seed, src, round, seq)` — so the retained DAG is
//! byte-identical across engines and cannot perturb a run.

use std::collections::BTreeMap;

/// One provenance edge: a delivered message from `src` that offered
/// identifier `id` to `node`.
///
/// Rounds are 1-based, matching the archive's `round` records: a
/// message sent during round `sent` over a link of latency `lat` ticks
/// is processed by its receiver during round `round = sent + lat`.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ProvEdge {
    /// The identifier being learned.
    pub id: u32,
    /// The node learning it (the receiver).
    pub node: u32,
    /// The sender that already knew `id`.
    pub src: u32,
    /// 1-based round the message was sent in.
    pub sent: u64,
    /// 1-based round the message was delivered (processed) in.
    pub round: u64,
    /// The sender's send-sequence number within `sent`.
    pub seq: u64,
}

impl ProvEdge {
    /// Delivery-order key: earlier delivery wins; among same-round
    /// deliveries the earlier send, then the canonical `(src, seq)`
    /// routing order, breaks ties deterministically.
    fn rank(&self) -> (u64, u64, u32, u64) {
        (self.round, self.sent, self.src, self.seq)
    }
}

/// The per-run knowledge-provenance DAG, bounded in memory.
///
/// `capacity` bounds the number of retained `(id, node)` pairs; offers
/// for *new* pairs past the cap are counted in `overflow` and dropped
/// (offers that improve an already-retained pair always land).
/// `sample_ppm` is the per-message sampling rate in parts per million;
/// the sampling decision itself is made by the engine (it owns the run
/// seed), the trace only records how many messages were skipped.
#[derive(Debug, Clone, PartialEq)]
pub struct CausalTrace {
    capacity: usize,
    sample_ppm: u32,
    /// `(id, node) → (src, sent, round, seq)` — the best edge seen.
    edges: BTreeMap<(u32, u32), ProvEdge>,
    /// `(id, node)` pairs known at round 0 (initial knowledge): these
    /// are DAG roots and never get an edge. Sorted for binary search.
    known: Vec<(u32, u32)>,
    /// Identifier offers inspected (post-sampling).
    candidates: u64,
    /// Messages skipped by the deterministic sampler.
    sampled_out: u64,
    /// Offers for new pairs dropped at capacity.
    overflow: u64,
}

impl CausalTrace {
    /// A trace retaining at most `capacity` `(id, node)` pairs, with
    /// messages sampled at `sample_ppm` parts per million (values
    /// `>= 1_000_000` trace every message).
    pub fn new(capacity: usize, sample_ppm: u32) -> Self {
        CausalTrace {
            capacity,
            sample_ppm,
            edges: BTreeMap::new(),
            known: Vec::new(),
            candidates: 0,
            sampled_out: 0,
            overflow: 0,
        }
    }

    /// Declares the initially-known `(id, node)` pairs: the DAG roots.
    /// Offers for these pairs are ignored — nothing *caused* them.
    pub fn seed_known<I: IntoIterator<Item = (u32, u32)>>(&mut self, pairs: I) {
        self.known.extend(pairs);
        self.known.sort_unstable();
        self.known.dedup();
    }

    /// Whether `(id, node)` was declared initially known.
    pub fn is_root(&self, id: u32, node: u32) -> bool {
        self.known.binary_search(&(id, node)).is_ok()
    }

    /// Offers one edge. Self-knowledge and declared roots are skipped;
    /// otherwise the edge is kept iff it is the first for its pair or
    /// beats the retained one in delivery order.
    pub fn offer(&mut self, edge: ProvEdge) {
        self.candidates += 1;
        if edge.id == edge.node || self.is_root(edge.id, edge.node) {
            return;
        }
        let key = (edge.id, edge.node);
        match self.edges.get_mut(&key) {
            Some(best) => {
                if edge.rank() < best.rank() {
                    *best = edge;
                }
            }
            None => {
                if self.edges.len() < self.capacity {
                    self.edges.insert(key, edge);
                } else {
                    self.overflow += 1;
                }
            }
        }
    }

    /// The configured pair capacity.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// The per-message sampling rate in parts per million.
    #[inline]
    pub fn sample_ppm(&self) -> u32 {
        self.sample_ppm
    }

    /// The retained edges in `(id, node)` order.
    pub fn edges(&self) -> impl Iterator<Item = &ProvEdge> {
        self.edges.values()
    }

    /// The retained edge for `(id, node)`, if any.
    pub fn edge(&self, id: u32, node: u32) -> Option<&ProvEdge> {
        self.edges.get(&(id, node))
    }

    /// Number of retained `(id, node)` pairs.
    pub fn len(&self) -> usize {
        self.edges.len()
    }

    /// Whether no edges were retained.
    pub fn is_empty(&self) -> bool {
        self.edges.is_empty()
    }

    /// Identifier offers inspected (post-sampling).
    pub fn candidates(&self) -> u64 {
        self.candidates
    }

    /// Messages the deterministic sampler skipped.
    pub fn sampled_out(&self) -> u64 {
        self.sampled_out
    }

    /// Offers for new pairs dropped because the capacity was reached —
    /// when nonzero the DAG is a prefix of the full provenance story.
    pub fn overflow(&self) -> u64 {
        self.overflow
    }

    /// Folds counters and edges of a per-worker fragment in. Fragments
    /// must be folded in canonical shard order for determinism; edge
    /// conflicts resolve by delivery order exactly as in [`offer`].
    ///
    /// [`offer`]: Self::offer
    pub fn fold(&mut self, edges: &[ProvEdge], sampled_out: u64) {
        self.sampled_out += sampled_out;
        for &edge in edges {
            self.offer(edge);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn edge(id: u32, node: u32, src: u32, sent: u64, round: u64, seq: u64) -> ProvEdge {
        ProvEdge {
            id,
            node,
            src,
            sent,
            round,
            seq,
        }
    }

    #[test]
    fn first_delivery_wins_regardless_of_offer_order() {
        let mut t = CausalTrace::new(16, 1_000_000);
        // Sent earlier but delayed: delivered round 6.
        t.offer(edge(1, 2, 3, 2, 6, 0));
        // Sent later, delivered earlier: round 5 must win.
        t.offer(edge(1, 2, 4, 4, 5, 1));
        assert_eq!(t.edge(1, 2).unwrap().src, 4);
        // A still-later delivery does not displace it.
        t.offer(edge(1, 2, 5, 5, 6, 0));
        assert_eq!(t.edge(1, 2).unwrap().src, 4);
        assert_eq!(t.candidates(), 3);
    }

    #[test]
    fn ties_break_toward_canonical_routing_order() {
        let mut t = CausalTrace::new(16, 1_000_000);
        t.offer(edge(1, 2, 7, 3, 4, 5));
        t.offer(edge(1, 2, 7, 3, 4, 2));
        t.offer(edge(1, 2, 6, 3, 4, 9));
        assert_eq!(t.edge(1, 2).unwrap().src, 6);
        assert_eq!(t.edge(1, 2).unwrap().seq, 9);
    }

    #[test]
    fn roots_and_self_knowledge_are_never_recorded() {
        let mut t = CausalTrace::new(16, 1_000_000);
        t.seed_known([(3, 1)]);
        t.offer(edge(3, 1, 0, 1, 2, 0));
        t.offer(edge(5, 5, 0, 1, 2, 0));
        assert!(t.is_empty());
        assert!(t.is_root(3, 1));
        assert_eq!(t.candidates(), 2);
    }

    #[test]
    fn capacity_bounds_pairs_and_counts_overflow() {
        let mut t = CausalTrace::new(2, 1_000_000);
        t.offer(edge(1, 2, 0, 1, 2, 0));
        t.offer(edge(1, 3, 0, 1, 2, 1));
        t.offer(edge(1, 4, 0, 1, 2, 2));
        assert_eq!(t.len(), 2);
        assert_eq!(t.overflow(), 1);
        // Improving a retained pair still lands at capacity.
        t.offer(edge(1, 3, 9, 1, 1, 0));
        assert_eq!(t.edge(1, 3).unwrap().src, 9);
    }

    #[test]
    fn fold_merges_fragments_in_offer_order() {
        let mut t = CausalTrace::new(16, 500_000);
        t.fold(&[edge(1, 2, 3, 1, 2, 0)], 4);
        t.fold(&[edge(1, 2, 4, 1, 2, 1)], 1);
        assert_eq!(t.edge(1, 2).unwrap().src, 3);
        assert_eq!(t.sampled_out(), 5);
        assert_eq!(t.sample_ppm(), 500_000);
    }
}
