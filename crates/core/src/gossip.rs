//! Direct-addressing gossip: the PODC '14 sibling primitive.
//!
//! *Optimal Gossip with Direct Addressing* (Haeupler & Malkhi, PODC '14)
//! is the paper this line of work builds on: once machines can address
//! any machine whose identifier they know, rumor spreading no longer
//! needs the `Θ(n log n)` messages of random push–pull — informed
//! machines can partition the address space and delegate disjoint halves,
//! spreading with the optimal `n − 1` messages in `⌈log₂ n⌉` rounds.
//! This module implements both protocols on a complete knowledge graph
//! (experiment T6) and is also the final-broadcast idea the discovery
//! algorithm's roster stage echoes.
//!
//! # Example
//!
//! ```
//! use rd_core::gossip::{run_gossip, GossipStrategy};
//!
//! let split = run_gossip(GossipStrategy::AddressedSplit, 64, 1);
//! assert!(split.completed);
//! assert_eq!(split.messages, 63); // exactly n - 1
//!
//! let pushpull = run_gossip(GossipStrategy::PushPull, 64, 1);
//! assert!(pushpull.completed);
//! assert!(pushpull.messages > split.messages);
//! ```

use rd_sim::{Engine, Inbox, MessageCost, Node, NodeId, RoundContext, RoundEngine};

/// Which rumor-spreading protocol to run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum GossipStrategy {
    /// Classic random push–pull: every machine contacts one uniformly
    /// random machine per round. `Θ(log n)` rounds, `Θ(n log n)`
    /// messages until completion.
    PushPull,
    /// Deterministic address-space splitting enabled by direct
    /// addressing: an informed machine responsible for an id range
    /// repeatedly delegates the upper half. `⌈log₂ n⌉` rounds and
    /// exactly `n − 1` messages — both optimal.
    AddressedSplit,
}

impl GossipStrategy {
    /// Display name for tables.
    pub fn name(self) -> &'static str {
        match self {
            GossipStrategy::PushPull => "push-pull",
            GossipStrategy::AddressedSplit => "addressed-split",
        }
    }
}

/// Gossip wire messages.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum GossipMsg {
    /// The rumor itself.
    Push,
    /// An uninformed machine asking a random peer for the rumor.
    PullReq,
    /// Direct-addressing delegation: "you are now responsible for
    /// spreading the rumor to ids `lo..hi`".
    Delegate {
        /// Inclusive lower bound of the delegated range.
        lo: u32,
        /// Exclusive upper bound of the delegated range.
        hi: u32,
    },
}

impl MessageCost for GossipMsg {
    fn pointers(&self) -> usize {
        match self {
            GossipMsg::Push | GossipMsg::PullReq => 0,
            // A range is two identifiers.
            GossipMsg::Delegate { .. } => 2,
        }
    }
}

/// Per-node gossip state. The knowledge graph is complete by assumption
/// (every machine knows `0..n`), so state reduces to rumor possession and
/// — for the splitting protocol — the delegated range.
#[derive(Debug, Clone)]
pub struct GossipNode {
    strategy: GossipStrategy,
    n: u32,
    informed: bool,
    /// AddressedSplit: the id range this node must still cover
    /// (`lo` is this node itself).
    range: Option<(u32, u32)>,
    pull_requesters: Vec<NodeId>,
}

impl GossipNode {
    /// `true` once this node holds the rumor.
    pub fn informed(&self) -> bool {
        self.informed
    }
}

impl Node for GossipNode {
    type Msg = GossipMsg;

    fn on_round(&mut self, inbox: Inbox<'_, GossipMsg>, ctx: &mut RoundContext<'_, GossipMsg>) {
        for env in inbox {
            match env.payload {
                GossipMsg::Push => self.informed = true,
                GossipMsg::PullReq => self.pull_requesters.push(env.src),
                GossipMsg::Delegate { lo, hi } => {
                    debug_assert_eq!(lo, u32::from(ctx.id()));
                    self.informed = true;
                    self.range = Some((lo, hi));
                }
            }
        }
        match self.strategy {
            GossipStrategy::PushPull => {
                for req in std::mem::take(&mut self.pull_requesters) {
                    if self.informed && req != ctx.id() {
                        ctx.send(req, GossipMsg::Push);
                    }
                }
                if self.n <= 1 {
                    return;
                }
                // One contact per round: informed machines push, the
                // rest pull.
                let me = u32::from(ctx.id());
                let peer = {
                    let rng = ctx.rng();
                    let mut p = rng.random_range(0..self.n - 1);
                    if p >= me {
                        p += 1;
                    }
                    NodeId::new(p)
                };
                if self.informed {
                    ctx.send(peer, GossipMsg::Push);
                } else {
                    ctx.send(peer, GossipMsg::PullReq);
                }
            }
            GossipStrategy::AddressedSplit => {
                if let Some((lo, hi)) = self.range {
                    if hi - lo > 1 {
                        let mid = lo + (hi - lo).div_ceil(2);
                        ctx.send(NodeId::new(mid), GossipMsg::Delegate { lo: mid, hi });
                        self.range = Some((lo, mid));
                    }
                }
            }
        }
    }
}

use rand::Rng;

/// Outcome of a gossip run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct GossipReport {
    /// Whether everyone learned the rumor within the round budget.
    pub completed: bool,
    /// Rounds until completion.
    pub rounds: u64,
    /// Total messages sent.
    pub messages: u64,
    /// Total pointers carried.
    pub pointers: u64,
}

/// Runs a gossip protocol over `n` machines on a complete knowledge
/// graph, with the rumor starting at machine 0.
///
/// # Panics
///
/// Panics if `n == 0`.
pub fn run_gossip(strategy: GossipStrategy, n: usize, seed: u64) -> GossipReport {
    assert!(n > 0, "gossip needs at least one machine");
    let nodes: Vec<GossipNode> = (0..n)
        .map(|i| GossipNode {
            strategy,
            n: n as u32,
            informed: i == 0,
            range: if i == 0 && strategy == GossipStrategy::AddressedSplit {
                Some((0, n as u32))
            } else {
                None
            },
            pull_requesters: Vec::new(),
        })
        .collect();
    let mut engine = Engine::new(nodes, seed);
    let outcome = engine.run_until(100_000, |nodes: &[GossipNode]| {
        nodes.iter().all(|g| g.informed)
    });
    GossipReport {
        completed: outcome.completed,
        rounds: outcome.rounds,
        messages: engine.metrics().total_messages(),
        pointers: engine.metrics().total_pointers(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn addressed_split_is_message_optimal() {
        for n in [1usize, 2, 3, 8, 17, 64, 100, 1024] {
            let r = run_gossip(GossipStrategy::AddressedSplit, n, 1);
            assert!(r.completed, "n={n}");
            assert_eq!(r.messages, (n - 1) as u64, "n={n}");
        }
    }

    #[test]
    fn addressed_split_is_round_optimal() {
        // ⌈log₂ n⌉ delegation hops, plus one round because the engine
        // delivers a message sent in round t at the start of round t + 1.
        for (n, expect) in [(2usize, 2u64), (4, 3), (8, 4), (1024, 11), (1000, 11)] {
            let r = run_gossip(GossipStrategy::AddressedSplit, n, 1);
            assert_eq!(r.rounds, expect, "n={n}");
        }
    }

    #[test]
    fn push_pull_completes_in_logarithmic_rounds() {
        let r = run_gossip(GossipStrategy::PushPull, 1024, 3);
        assert!(r.completed);
        // ~log2(n) + ln(n) with constants; generous bound.
        assert!(r.rounds <= 40, "rounds = {}", r.rounds);
    }

    #[test]
    fn push_pull_spends_superlinear_messages() {
        let r = run_gossip(GossipStrategy::PushPull, 512, 3);
        assert!(r.completed);
        assert!(
            r.messages >= 3 * 512,
            "suspiciously few messages: {}",
            r.messages
        );
    }

    #[test]
    fn singleton_needs_nothing() {
        for s in [GossipStrategy::PushPull, GossipStrategy::AddressedSplit] {
            let r = run_gossip(s, 1, 1);
            assert!(r.completed);
            assert_eq!(r.rounds, 0);
            assert_eq!(r.messages, 0);
        }
    }

    #[test]
    fn push_pull_deterministic_per_seed() {
        assert_eq!(
            run_gossip(GossipStrategy::PushPull, 128, 9),
            run_gossip(GossipStrategy::PushPull, 128, 9)
        );
    }

    #[test]
    fn strategy_names() {
        assert_eq!(GossipStrategy::PushPull.name(), "push-pull");
        assert_eq!(GossipStrategy::AddressedSplit.name(), "addressed-split");
    }
}
