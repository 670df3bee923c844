//! The canonical bench gossip workload, shared by `benches/exec.rs`,
//! `benches/route.rs`-style harnesses, and the `profile` binary so
//! every throughput number and every phase profile measures the *same*
//! node program.
//!
//! Bounded push gossip: each round a node folds its inbox into a
//! sorted, capped knowledge vector and shares its lowest-`BATCH` ids
//! with two random known contacts. The knowledge vector is maintained
//! **sorted at all times**, so inbox folding is a two-pointer capped
//! merge ([`rd_core::merge`]) instead of the former
//! concat→sort→dedup→truncate — ~5× less per-node work — and the
//! shared batch is built once per round as an `Arc<[NodeId]>` whose
//! clones are pointer bumps, not payload copies.
//!
//! Delta encoding was evaluated here and deliberately **not** adopted:
//! this workload's random-peer push means sender-side novelty never
//! dries up (a sender almost always learned *something* since it last
//! contacted a given peer, even though the receiver usually knows it
//! already), so per-peer high-water marks suppressed under 10% of
//! messages while the tag bookkeeping doubled rewrite traffic — a net
//! slowdown, measured at n=2^16. Delta transfers live where they pay:
//! fixed-neighbor flooding (`rd_core::algorithms::flooding`, one
//! `KnowledgeSet::mark` per node), where a node resends to the same
//! peers every round and the frontier empties permanently.
//!
//! Bit-identity with the original sort-based workload is pinned by the
//! order-sensitive state digest printed by the `profile` binary
//! (`0xb8fc70f1233c5e2d` at n=2^16 × 4 rounds, seed 7) and by the
//! message-count assertions in the exec bench smoke test: iterated
//! capped merges compute exactly the global sort's smallest-cap-of-
//! union, and pre-sorting initial knowledge is invisible because the
//! original folded (and thus sorted) its inbox before the first RNG
//! draw of round 0.

use rand::Rng;
use rd_core::merge::merge_sorted_capped;
use rd_core::problem;
use rd_graphs::Topology;
use rd_sim::{Envelope, MessageCost, Node, NodeId, RoundContext};
use std::sync::Arc;

/// Seed used by every bench/profile entry point.
pub const SEED: u64 = 7;
/// Knowledge cap: keeps per-node state (and thus per-round compute)
/// bounded so every round costs the same and samples are comparable.
pub const KNOWLEDGE_CAP: usize = 256;
/// Identifiers shipped per message — a gossip "MTU".
pub const BATCH: usize = 64;

/// A batch of known ids. The payload is reference-counted so the two
/// sends a node makes per round share one allocation.
#[derive(Clone, Debug)]
pub struct Batch(pub Arc<[NodeId]>);

impl MessageCost for Batch {
    fn pointers(&self) -> usize {
        self.0.len()
    }

    fn visit_ids(&self, visit: &mut dyn FnMut(NodeId)) {
        for &id in self.0.iter() {
            visit(id);
        }
    }
}

/// Bounded push gossip: merge the inbox, keep the lowest
/// `KNOWLEDGE_CAP` identifiers, share a batch with two random contacts.
///
/// Invariant: `known` is sorted, deduplicated, and at most
/// `KNOWLEDGE_CAP` long from construction onward.
#[derive(Clone)]
pub struct Gossip {
    /// Sorted capped knowledge vector.
    pub known: Vec<NodeId>,
    /// Ping-pong buffer for the in-place merge; reused across rounds.
    scratch: Vec<NodeId>,
}

impl Node for Gossip {
    type Msg = Batch;

    fn on_round(&mut self, inbox: &mut Vec<Envelope<Batch>>, ctx: &mut RoundContext<'_, Batch>) {
        for env in inbox.drain(..) {
            merge_sorted_capped(
                &mut self.known,
                &env.payload.0,
                KNOWLEDGE_CAP,
                &mut self.scratch,
            );
        }
        let mut share: Option<Batch> = None;
        for _ in 0..2 {
            let dst = self.known[ctx.rng().random_range(0..self.known.len())];
            if dst != ctx.id() {
                let batch = share
                    .get_or_insert_with(|| {
                        // Arc::from(slice) is one allocation + one
                        // memcpy; collect() would round-trip through an
                        // intermediate Vec.
                        Batch(Arc::from(&self.known[..self.known.len().min(BATCH)]))
                    })
                    .clone();
                ctx.send(dst, batch);
            }
        }
    }
}

/// Build the gossip fleet on the standard 3-out random overlay.
///
/// Initial knowledge is pre-sorted here (the engine-visible behavior is
/// unchanged: the original workload sorted before its first RNG draw).
pub fn make_nodes(n: usize, seed: u64) -> Vec<Gossip> {
    let graph = Topology::KOut { k: 3 }.generate(n, seed);
    problem::initial_knowledge(&graph)
        .rows()
        .map(|row| {
            let mut known = row.to_vec();
            known.sort_unstable();
            known.dedup();
            known.truncate(KNOWLEDGE_CAP);
            Gossip {
                known,
                scratch: Vec::new(),
            }
        })
        .collect()
}
