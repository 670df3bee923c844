//! The engine-agnostic round machinery shared by every execution engine.
//!
//! [`EngineCore`] owns everything about a run *except* the node programs:
//! mailboxes, the round counter, metrics, the fault layer, tracing, the
//! failure-detector schedule, receive caps, and delay jitter. Both
//! engines — [`Engine`](crate::Engine) here and the sharded engine in
//! `rd-exec` — are a `step` body over this core, so accounting and fault
//! semantics cannot drift between them.
//!
//! A round is three phases:
//!
//! 1. [`EngineCore::begin_round`] — metrics, detector reports, and
//!    delivery of messages whose arrival round has come;
//! 2. node stepping — [`step_shard`] runs every live node of a
//!    contiguous block on its mail; node steps are order-independent
//!    because each draws from a private per-`(seed, node, round)` random
//!    stream, which is what makes parallel stepping bit-identical to
//!    sequential stepping;
//! 3. routing — staged envelopes, in `(sender, send-sequence)` order,
//!    pass through the fault layer into mailboxes; due retransmissions
//!    are attempted ([`EngineCore::retransmit_due`]) and
//!    [`EngineCore::finish_round`] advances the clock.
//!
//! # One mailbox per shard
//!
//! Mail is not kept per node. Each shard — the whole population on the
//! serial engine — has one [`Mailbox`]: everything that arrives for its
//! nodes is appended to one buffer in the order it arrives, and stepping
//! the shard sorts that buffer by destination with a stable counting
//! sort, so each node's mail is one contiguous run in arrival order,
//! handed to its `on_round` in a vector the mailbox keeps for that.
//! What a node sees is therefore exactly what pushing each arrival onto
//! a vector of its own gave: receive-cap leftovers first (stepping
//! re-queues them before anything is routed), then routed mail in
//! canonical sender order, then retransmissions landing next round (the
//! close-out sweep), then delayed arrivals (the next `begin_round`). The
//! buffers keep their capacity, so a round in steady state allocates
//! nothing for delivery, however its traffic is spread over nodes.
//!
//! # One kernel, a latency function
//!
//! A message staged in round `r` over a link of latency `lat ≥ 1` ticks
//! is checked against the fault plan at `r + lat`, and — if its
//! counter-based fate ([`route_fate`]) lets it through — arrives at
//! `r + lat + fate.extra_delay`. That arithmetic is the whole network
//! model. *The synchronous round of the paper is latency one*
//! ([`unit_latency`]); an engine under any other
//! [`LatencyModel`](crate::LatencyModel) passes the model's sampler
//! instead, and nothing else about routing differs. The kernel sees only
//! the function `(src, dst, send round, send-sequence, attempt) → ticks`,
//! never the model behind it.
//!
//! [`route_shard`] is that kernel: one loop over a sender shard's staged
//! envelopes into per-destination-shard buckets, with
//! [`merge_dest_shard`] delivering a destination shard's buckets and
//! [`EngineCore::apply_route_deltas`] folding the shard-local
//! [`RouteDelta`]s back. Because every fate is a pure function of
//! `(seed, sender, round, send-sequence)`, routing one envelope never
//! advances state another envelope reads, so the shards can run on
//! independent workers — and the serial path
//! ([`EngineCore::route_batch_with`]) is the same three calls over one
//! whole-population shard, bit-identical by being the same code.
//!
//! One selection remains, made from the core's own state: a run with no
//! faults, no jitter, no trace and no causal sampler under unit latency
//! has nothing to decide per message, and [`EngineCore::route_batch`]
//! delivers it with a straight-line tally-and-push loop instead.

use crate::faults::{DropCause, FaultPlan};
use crate::id::NodeId;
use crate::message::{Envelope, MessageCost};
use crate::metrics::{NodeLane, RoundMetrics, RunMetrics};
use crate::node::{Node, RoundContext, SuspectView};
use crate::pool::BufferPool;
use crate::rng;
use crate::trace::{Trace, TraceEvent};
use rand::Rng;
use rd_obs::{CausalTrace, ProvEdge};
use std::sync::Arc;

/// What the failure detector does at a scheduled instant.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
enum DetectorAction {
    /// Report a crash to every live node.
    Suspect,
    /// Withdraw an earlier report after the node recovered.
    Retract,
}

/// Deliverable messages tagged with their delay in ticks beyond the
/// next round (0 = next round) — or, once merged, with their arrival
/// round.
pub type Routed<M> = Vec<(u64, Envelope<M>)>;

/// One round's mail for a contiguous block of nodes, in one buffer; see
/// the [module docs](self#one-mailbox-per-shard).
#[derive(Debug)]
pub struct Mailbox<M> {
    /// Mail for the block's next step: in arrival order until stepping
    /// sorts it by destination.
    mail: Vec<Envelope<M>>,
    /// The destination of each envelope of `mail`, in the same order:
    /// what the sort reads, at four bytes an envelope.
    dsts: Vec<u32>,
    /// Sort scratch: the place each envelope of `mail` moves to.
    to: Vec<u32>,
    /// After the sort, node `base + i`'s mail is
    /// `mail[ends[i - 1]..ends[i]]` (from 0 for `i = 0`).
    ends: Vec<u32>,
    /// The run of `mail` being handed to one node: what its
    /// `on_round` receives.
    inbox: Vec<Envelope<M>>,
}

impl<M> Default for Mailbox<M> {
    fn default() -> Self {
        Mailbox {
            mail: Vec::new(),
            dsts: Vec::new(),
            to: Vec::new(),
            ends: Vec::new(),
            inbox: Vec::new(),
        }
    }
}

impl<M> Mailbox<M> {
    /// Queues `env` behind everything that arrived for the block before
    /// it.
    #[inline]
    fn push(&mut self, env: Envelope<M>) {
        self.dsts.push(u32::from(env.dst));
        self.mail.push(env);
    }

    /// Sorts the queued mail of the `len` nodes from `base` by
    /// destination, in arrival order within a destination: a stable
    /// counting sort, O(mail + len), that reads the destinations alone
    /// and then moves each envelope to its place in one swap.
    fn sort(&mut self, base: usize, len: usize) {
        let Mailbox {
            mail,
            dsts,
            to,
            ends,
            ..
        } = self;
        ends.clear();
        ends.resize(len + 1, 0);
        for &dst in dsts.iter() {
            ends[dst as usize - base + 1] += 1;
        }
        // Now `ends[i]` is where node `base + i`'s mail starts; placing
        // it moves the mark to where it ends.
        for i in 1..=len {
            ends[i] += ends[i - 1];
        }
        to.clear();
        to.extend(dsts.drain(..).map(|dst| {
            let at = &mut ends[dst as usize - base];
            *at += 1;
            *at - 1
        }));
        // One cycle at a time: each swap puts an envelope where it
        // belongs, and brings the one it displaces to be placed next.
        for i in 0..mail.len() {
            loop {
                let j = to[i] as usize;
                if j == i {
                    break;
                }
                mail.swap(i, j);
                to.swap(i, j);
            }
        }
    }
}

/// The non-node state of a run: mailboxes, clock, metrics, faults,
/// tracing, and delivery policy. See the [module docs](self) for the
/// round protocol engines drive it with.
pub struct EngineCore<M: MessageCost> {
    node_count: usize,
    /// Nodes per mailbox: node `i`'s mail is in `mailboxes[i / shard_len]`.
    shard_len: usize,
    mailboxes: Vec<Mailbox<M>>,
    round: u64,
    seed: u64,
    metrics: RunMetrics,
    faults: FaultPlan,
    trace: Option<Trace>,
    /// Causal knowledge-provenance trace (`None` = disabled). Strictly
    /// outside the deterministic state: write-only from routing, with
    /// sampling coins drawn from their own counter-based stream.
    causal: Option<CausalTrace>,
    /// Detector schedule `(round, node, action)`, report-time order.
    detect_schedule: Vec<(u64, NodeId, DetectorAction)>,
    /// Crashes currently reported to the nodes; replaced, never
    /// edited, on a round in which the schedule fires.
    suspects: Arc<SuspectView>,
    next_detection: usize,
    /// Per-node per-round delivery cap (`None` = unbounded).
    receive_cap: Option<usize>,
    /// Maximum extra delivery delay in rounds (0 = synchronous).
    max_extra_delay: u64,
    /// Messages awaiting a later delivery round, keyed by that round.
    delayed: std::collections::BTreeMap<u64, Vec<Envelope<M>>>,
    /// Recycled batch buffers for the delay queue.
    pool: BufferPool<Envelope<M>>,
    /// Retransmission policy (`None` = best-effort delivery).
    reliable: Option<RetryPolicy>,
    /// Dropped messages awaiting retransmission, keyed by resend round:
    /// the run's one timer, drained by [`retransmit_due`](Self::retransmit_due)
    /// at every round's close.
    retransmit_queue: std::collections::BTreeMap<u64, Vec<RetryEnvelope<M>>>,
    /// The serial path's buckets (one per mailbox) and delayed list,
    /// reused across rounds. Plain vectors, not pool buffers: pool
    /// counters are archive records, and the serial path must not move
    /// them.
    serial_buckets: Vec<Routed<M>>,
    serial_delayed: Routed<M>,
}

/// The opt-in reliable-delivery policy: every dropped message is
/// retransmitted after a per-message timeout with capped exponential
/// backoff, up to a retry budget. Retransmissions are charged against
/// the message-complexity metrics like any other send (and tallied in
/// [`RoundMetrics::retransmissions`]), and their fates come from a
/// dedicated counter-based stream ([`retry_fate`]), so enabling the
/// layer never perturbs first-attempt coins and stays bit-identical
/// across engines and worker counts.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RetryPolicy {
    /// Rounds to wait before the first retransmission (≥ 1).
    pub timeout: u64,
    /// Maximum number of retransmission attempts per message (≥ 1).
    pub max_retries: u32,
    /// Cap on the exponential backoff interval, in rounds.
    pub max_backoff: u64,
}

impl Default for RetryPolicy {
    fn default() -> Self {
        RetryPolicy {
            timeout: 2,
            max_retries: 5,
            max_backoff: 16,
        }
    }
}

impl RetryPolicy {
    /// Rounds to wait before the next retransmission, after `attempts`
    /// retransmissions have already been made: `timeout · 2^attempts`,
    /// capped at `max_backoff` and floored at one round.
    fn delay_after(&self, attempts: u32) -> u64 {
        let factor = 1u64.checked_shl(attempts).unwrap_or(u64::MAX);
        self.timeout
            .saturating_mul(factor)
            .min(self.max_backoff)
            .max(1)
    }
}

/// A dropped message parked for retransmission. Carries the identity of
/// its *original* send (`orig_round`, `orig_seq`) so every attempt's
/// fate is derivable from the counter-based retry stream alone.
#[derive(Debug, Clone, PartialEq)]
pub struct RetryEnvelope<M> {
    env: Envelope<M>,
    orig_round: u64,
    orig_seq: u64,
    /// Retransmission attempts already made (0 for a fresh drop).
    attempts: u32,
}

/// The read-only half of what stepping a node needs: copied into every
/// stepping worker.
#[derive(Clone, Copy)]
pub struct StepCtx<'a> {
    /// The fault plan (for the crashed-node check before stepping).
    pub faults: &'a FaultPlan,
    /// The run seed (for per-node round randomness).
    pub seed: u64,
    /// The round being executed.
    pub round: u64,
    /// Per-node per-round delivery cap (`None` = unbounded).
    pub receive_cap: Option<usize>,
    /// The failure detector's current report, lent to every node.
    pub suspects: &'a Arc<SuspectView>,
}

/// The slice of [`EngineCore`] state an engine needs while stepping
/// nodes: mailboxes plus the read-only [`StepCtx`]. Borrowing it (via
/// [`EngineCore::step_state`]) leaves the routing state untouched.
pub struct StepState<'a, M: MessageCost> {
    /// One mailbox per shard of [`shard_len`](Self::shard_len) nodes,
    /// holding this round's deliveries.
    pub mailboxes: &'a mut [Mailbox<M>],
    /// Nodes per mailbox.
    pub shard_len: usize,
    /// Everything else [`step_shard`] reads.
    pub ctx: StepCtx<'a>,
}

/// What the fault layer decided for one message: dropped (with a
/// cause), or delivered with `extra_delay` additional rounds of latency.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RouteFate {
    /// Why the message was discarded (`None` = delivered).
    pub dropped: Option<DropCause>,
    /// Extra delivery latency in rounds beyond the link's own
    /// (always 0 for dropped messages and unjittered runs).
    pub extra_delay: u64,
}

impl RouteFate {
    /// A delivery with no jitter.
    pub const DELIVER: RouteFate = RouteFate {
        dropped: None,
        extra_delay: 0,
    };

    /// A drop with the given cause.
    pub const fn drop(cause: DropCause) -> RouteFate {
        RouteFate {
            dropped: Some(cause),
            extra_delay: 0,
        }
    }

    /// Whether the message was discarded.
    pub fn is_dropped(&self) -> bool {
        self.dropped.is_some()
    }
}

/// The one body behind [`route_fate`] and [`retry_fate`]: they differ
/// only in which counter-based stream `rng` opens. A message whose path
/// is hard-`blocked` — crashed destination, active partition, or
/// adversarial suppression, classified by [`FaultGuards::blocked`] — is
/// dropped without consuming any randomness, so scheduling those faults
/// never shifts the coins of any unaffected message. The coin itself
/// drops with `drop_probability` and attributes to `coin_cause`
/// ([`DropCause::Coin`] for the base plan coin, [`DropCause::Link`] when
/// the per-link loss overlay supplied the probability); either way it is
/// drawn from the same per-message stream, so enabling the overlay never
/// re-keys a fate. A message under a fault-free, unjittered policy is
/// delivered without even constructing a generator — the common case
/// stays coin-free.
fn fate_from<R: Rng>(
    rng: impl FnOnce() -> R,
    blocked: Option<DropCause>,
    drop_probability: f64,
    coin_cause: DropCause,
    max_extra_delay: u64,
) -> RouteFate {
    if let Some(cause) = blocked {
        return RouteFate::drop(cause);
    }
    if drop_probability <= 0.0 && max_extra_delay == 0 {
        return RouteFate::DELIVER;
    }
    let mut rng = rng();
    let dropped = drop_probability > 0.0 && rng.random_bool(drop_probability);
    let extra_delay = if !dropped && max_extra_delay > 0 {
        rng.random_range(0..=max_extra_delay)
    } else {
        0
    };
    RouteFate {
        dropped: dropped.then_some(coin_cause),
        extra_delay,
    }
}

/// Decides the fate of one message: a pure function of
/// `(seed, round, sender, send-sequence)` plus the delivery policy.
///
/// This is the *single* source of routing randomness for every engine
/// (and for test oracles that recompute fates independently), backed by
/// [`rng::message_route_rng`].
#[allow(clippy::too_many_arguments)]
pub fn route_fate(
    seed: u64,
    round: u64,
    src: usize,
    sequence: u64,
    blocked: Option<DropCause>,
    drop_probability: f64,
    coin_cause: DropCause,
    max_extra_delay: u64,
) -> RouteFate {
    fate_from(
        || rng::message_route_rng(seed, src, round, sequence),
        blocked,
        drop_probability,
        coin_cause,
        max_extra_delay,
    )
}

/// Decides the fate of one *retransmission attempt*: [`route_fate`] on
/// the independent counter-based retry stream
/// ([`rng::message_retry_rng`]), keyed by the message's original
/// `(sender, round, send-sequence)` identity and the attempt number.
/// Block checks use the state of the network at the attempt's own send
/// round, so a retransmission outlives the fault that killed the
/// original copy.
#[allow(clippy::too_many_arguments)]
pub fn retry_fate(
    seed: u64,
    src: usize,
    orig_round: u64,
    orig_seq: u64,
    attempt: u32,
    blocked: Option<DropCause>,
    drop_probability: f64,
    coin_cause: DropCause,
    max_extra_delay: u64,
) -> RouteFate {
    fate_from(
        || rng::message_retry_rng(seed, src, orig_round, orig_seq, attempt),
        blocked,
        drop_probability,
        coin_cause,
        max_extra_delay,
    )
}

/// The latency function of the synchronous model: every transmission
/// takes one tick, so a tick is a round.
pub fn unit_latency(_src: usize, _dst: usize, _round: u64, _sequence: u64, _attempt: u32) -> u64 {
    1
}

/// Checks what the kernel relies on in a latency the caller's function
/// returned: causality, and that at most one of the two delay mechanisms
/// (a latency above one tick, the uniform-jitter knob) is in play.
#[inline]
fn checked_latency(lat: u64, max_extra_delay: u64) -> u64 {
    assert!(lat >= 1, "a delivery latency of 0 beats causality");
    assert!(
        lat == 1 || max_extra_delay == 0,
        "a latency model supersedes the uniform-jitter knob"
    );
    lat
}

/// The per-round hoisted fault classifier every routing path shares: one
/// cheap boolean per fault family per message instead of repeated plan
/// queries, and a single definition of block precedence
/// (crash > partition > suppression) and coin selection (link-loss
/// overlay over base coin), so no engine can drift on either.
#[derive(Clone, Copy)]
pub struct FaultGuards<'a> {
    faults: &'a FaultPlan,
    has_crashes: bool,
    has_partitions: bool,
    has_suppression: bool,
    has_link_loss: bool,
    base_p: f64,
}

impl<'a> FaultGuards<'a> {
    /// Hoists the plan's guard booleans and base drop probability.
    pub fn new(faults: &'a FaultPlan) -> Self {
        FaultGuards {
            faults,
            has_crashes: faults.has_crashes(),
            has_partitions: faults.has_partitions(),
            has_suppression: faults.has_suppression(),
            has_link_loss: faults.has_link_loss(),
            base_p: faults.drop_probability(),
        }
    }

    /// The coin-free block cause for a send from `src` to `dst` staged
    /// in `send_round` and arriving at `arrival_round`, if any. Liveness
    /// is checked at arrival (a long-latency message can outlive its
    /// destination); partitions and suppression at the send round.
    #[inline]
    pub fn blocked(
        &self,
        src: usize,
        dst: usize,
        send_round: u64,
        arrival_round: u64,
    ) -> Option<DropCause> {
        if self.has_crashes && self.faults.is_crashed_at(dst, arrival_round) {
            return Some(DropCause::Crash);
        }
        if self.has_partitions && self.faults.partition_blocks(src, dst, send_round) {
            return Some(DropCause::Partition);
        }
        if self.has_suppression && self.faults.suppression_blocks(src, dst, send_round) {
            return Some(DropCause::Suppression);
        }
        None
    }

    /// The effective drop coin for the link `src -> dst`: the base
    /// probability under [`DropCause::Coin`], or the link-loss overlay's
    /// under [`DropCause::Link`] when the link is lossy and the overlay
    /// bites harder.
    #[inline]
    pub fn coin(&self, src: usize, dst: usize) -> (f64, DropCause) {
        if self.has_link_loss {
            let spec = self.faults.link_loss().expect("guard implies overlay");
            if spec.is_lossy(src, dst) {
                let p = spec.loss_probability();
                if p > self.base_p {
                    return (p, DropCause::Link);
                }
            }
        }
        (self.base_p, DropCause::Coin)
    }
}

/// The read-only routing parameters one round shares across every
/// routing worker.
#[derive(Clone, Copy)]
pub struct RouteParams<'a> {
    /// The run seed.
    pub seed: u64,
    /// The round being routed.
    pub round: u64,
    /// The fault plan.
    pub faults: &'a FaultPlan,
    /// Maximum extra delivery delay in rounds (0 = synchronous).
    pub max_extra_delay: u64,
    /// Trace event capacity, when tracing is enabled.
    pub trace_capacity: Option<usize>,
    /// Causal-trace sampling rate in ppm, when causal tracing is
    /// enabled.
    pub causal_ppm: Option<u32>,
    /// Retransmission policy (`None` = best-effort delivery).
    pub reliable: Option<RetryPolicy>,
    /// Total number of nodes (for the unknown-destination check).
    pub node_count: usize,
    /// Nodes per shard (destination shard of node `i` is
    /// `i / shard_len`).
    pub shard_len: usize,
}

/// The shard-local output of routing one sender shard's staged
/// envelopes: a metrics row, a trace fragment, provenance offers and
/// parked retries. Deltas fold associatively into the core's
/// `RunMetrics`/`Trace`/queues (via [`EngineCore::apply_route_deltas`]),
/// which is what lets routing run on independent workers without locks.
pub struct RouteDelta<M> {
    /// Messages/pointers/drops routed by this shard.
    pub row: RoundMetrics,
    /// Trace events recorded by this shard (canonical order, bounded by
    /// the trace capacity).
    pub trace_events: Vec<TraceEvent>,
    /// Events this shard observed beyond its local capacity.
    pub trace_overflow: u64,
    /// Provenance edges this shard's sampled deliveries offered
    /// (canonical order; the pair capacity applies only when deltas
    /// fold into the core's causal trace).
    pub prov: Vec<ProvEdge>,
    /// Delivered messages the causal sampler skipped in this shard.
    pub prov_sampled_out: u64,
    /// Dropped messages parked for retransmission (canonical order;
    /// empty unless reliable delivery is enabled).
    pub retries: Vec<RetryEnvelope<M>>,
}

/// The routing kernel: passes one sender shard's staged envelopes
/// (canonical `(sender, send-sequence)` order, senders contiguous)
/// through the fault layer into `buckets` — one per destination shard,
/// each entry tagged with its delay beyond the next round — recording
/// sender-side tallies into this shard's `sent_*` lanes (sliced from the
/// run metrics; `sent_base` is the shard's first node index).
///
/// `latency(src, dst, round, sequence, 0)` is the transmission's link
/// latency in whole ticks; see the [module docs](self) for the
/// arithmetic. Archive rounds are 1-based: a message staged while the
/// round counter reads `r` is the protocol's round `sent = r + 1` send,
/// processed by its receiver in round `sent + lat + extra_delay`.
///
/// # Panics
///
/// Panics if any envelope addresses a node index `>= params.node_count`,
/// if a latency of 0 is returned, or if a latency above 1 meets a
/// nonzero jitter knob.
pub fn route_shard<M, L>(
    params: RouteParams<'_>,
    latency: L,
    staged: &mut Vec<Envelope<M>>,
    sent_base: usize,
    sent_lanes: &mut [NodeLane],
    buckets: &mut [Routed<M>],
) -> RouteDelta<M>
where
    M: MessageCost,
    L: Fn(usize, usize, u64, u64, u32) -> u64,
{
    let mut delta = RouteDelta {
        row: RoundMetrics::default(),
        trace_events: Vec::new(),
        trace_overflow: 0,
        prov: Vec::new(),
        prov_sampled_out: 0,
        retries: Vec::new(),
    };
    let guards = FaultGuards::new(params.faults);
    let round = params.round;
    let mut prev_src = usize::MAX;
    let mut seq = 0u64;
    for env in staged.drain(..) {
        let src = env.src.index();
        if src != prev_src {
            prev_src = src;
            seq = 0;
        }
        let sequence = seq;
        seq += 1;
        let dst = env.dst.index();
        assert!(
            dst < params.node_count,
            "message to unknown node {} from {}",
            env.dst,
            env.src
        );
        let pointers = env.payload.pointers();
        let lat = checked_latency(
            latency(src, dst, round, sequence, 0),
            params.max_extra_delay,
        );
        // A node dead at the message's arrival tick never sees it.
        let blocked = guards.blocked(src, dst, round, round + lat);
        let (drop_p, coin_cause) = guards.coin(src, dst);
        let fate = route_fate(
            params.seed,
            round,
            src,
            sequence,
            blocked,
            drop_p,
            coin_cause,
            params.max_extra_delay,
        );
        if let Some(capacity) = params.trace_capacity {
            if delta.trace_events.len() < capacity {
                delta.trace_events.push(TraceEvent {
                    round,
                    src: env.src,
                    dst: env.dst,
                    pointers,
                    dropped: fate.dropped,
                });
            } else {
                delta.trace_overflow += 1;
            }
        }
        let lane = &mut sent_lanes[src - sent_base];
        lane.sent_messages += 1;
        lane.sent_pointers += pointers as u64;
        if let Some(cause) = fate.dropped {
            delta.row.drops.add(cause);
            if params.reliable.is_some() {
                delta.retries.push(RetryEnvelope {
                    env,
                    orig_round: round,
                    orig_seq: sequence,
                    attempts: 0,
                });
            }
            continue;
        }
        if let Some(ppm) = params.causal_ppm.filter(|_| pointers > 0) {
            if rng::prov_sample(params.seed, src, round, sequence, ppm) {
                let sent = round + 1;
                let delivered = sent + lat + fate.extra_delay;
                let (esrc, edst) = (u32::from(env.src), u32::from(env.dst));
                env.payload.visit_ids(&mut |id| {
                    delta.prov.push(ProvEdge {
                        id: u32::from(id),
                        node: edst,
                        src: esrc,
                        sent,
                        round: delivered,
                        seq: sequence,
                    });
                });
            } else {
                delta.prov_sampled_out += 1;
            }
        }
        delta.row.messages += 1;
        delta.row.pointers += pointers as u64;
        buckets[dst / params.shard_len].push((lat - 1 + fate.extra_delay, env));
    }
    delta
}

/// Merges one destination shard's buckets — one per routing worker, in
/// worker (= sender shard) order — into that shard's mailbox and
/// `recv_*` lanes (`base` is the shard's first node index). Messages
/// with a nonzero delay are appended to `delayed_out` as
/// `(arrival round, envelope)` instead of delivered.
///
/// Processing workers in order preserves, for every destination, the
/// canonical sender order of its deliveries, whatever the shard count.
pub fn merge_dest_shard<M: MessageCost>(
    round: u64,
    base: usize,
    bucket_parts: &mut [Routed<M>],
    mailbox: &mut Mailbox<M>,
    recv_lanes: &mut [NodeLane],
    delayed_out: &mut Routed<M>,
) {
    for part in bucket_parts {
        for (extra, env) in part.drain(..) {
            let lane = &mut recv_lanes[env.dst.index() - base];
            lane.recv_messages += 1;
            lane.recv_pointers += env.payload.pointers() as u64;
            if extra == 0 {
                mailbox.push(env);
            } else {
                delayed_out.push((round + 1 + extra, env));
            }
        }
    }
}

/// Disjoint borrows of everything stepping and routing a round need
/// from the core: the read-only stepping context and routing
/// parameters, the mailboxes, and the per-node metric lanes, each
/// independently sliceable per shard — so one worker can step a shard
/// and route what it staged without coming back to the core in between.
/// Obtained via [`EngineCore::route_parts`].
pub struct RouteParts<'a, M: MessageCost> {
    /// The round's read-only stepping context.
    pub ctx: StepCtx<'a>,
    /// The round's read-only routing parameters.
    pub params: RouteParams<'a>,
    /// One mailbox per shard of `params.shard_len` nodes.
    pub mailboxes: &'a mut [Mailbox<M>],
    /// Per-node send/receive tallies. The route phase slices this by
    /// *sender* shard (writing `sent_*` fields only) and the merge
    /// phase re-slices it by *destination* shard (writing `recv_*`
    /// fields only); the two phases are sequential, so the same array
    /// serves both without overlapping borrows.
    pub node_lanes: &'a mut [NodeLane],
}

impl<M: MessageCost> EngineCore<M> {
    /// Creates the core for a population of `n` nodes, all served by
    /// one mailbox. `seed` determines all protocol and fault randomness.
    pub fn new(n: usize, seed: u64) -> Self {
        EngineCore {
            node_count: n,
            shard_len: n.max(1),
            mailboxes: vec![Mailbox::default()],
            round: 0,
            seed,
            metrics: RunMetrics::new(n),
            faults: FaultPlan::new(),
            trace: None,
            causal: None,
            detect_schedule: Vec::new(),
            suspects: SuspectView::none(),
            next_detection: 0,
            receive_cap: None,
            max_extra_delay: 0,
            delayed: std::collections::BTreeMap::new(),
            pool: BufferPool::new(),
            reliable: None,
            retransmit_queue: std::collections::BTreeMap::new(),
            serial_buckets: vec![Vec::new()],
            serial_delayed: Vec::new(),
        }
    }

    /// Splits the population into shards of `shard_len` nodes (the last
    /// may be short), one mailbox each, for an engine that steps and
    /// routes them on separate workers.
    ///
    /// # Panics
    ///
    /// Panics if `shard_len` is 0 or a round has already run.
    pub fn set_shard_len(&mut self, shard_len: usize) {
        assert!(shard_len > 0, "a shard holds at least one node");
        assert_eq!(self.round, 0, "shards are fixed before the first round");
        let shards = self.node_count.div_ceil(shard_len).max(1);
        self.shard_len = shard_len;
        self.mailboxes = (0..shards).map(|_| Mailbox::default()).collect();
        self.serial_buckets = (0..shards).map(|_| Vec::new()).collect();
    }

    /// Nodes per mailbox.
    pub fn shard_len(&self) -> usize {
        self.shard_len
    }

    /// Installs a fault plan (drops, crashes, recoveries, partitions).
    ///
    /// # Panics
    ///
    /// Panics if the plan crashes a node index that does not exist.
    pub fn set_faults(&mut self, faults: FaultPlan) {
        for c in faults.crashed_nodes() {
            assert!(c < self.node_count, "crash target {c} out of range");
        }
        if let Some(delay) = faults.detection_delay() {
            let mut schedule = Vec::new();
            for (node, crash) in faults.crash_schedule() {
                let report = crash.saturating_add(delay);
                let id = NodeId::new(node as u32);
                match faults.recovery_round(node) {
                    // Recovered before the detector would have reported
                    // it: the crash goes entirely unnoticed.
                    Some(recovery) if recovery <= report => {}
                    Some(recovery) => {
                        schedule.push((report, id, DetectorAction::Suspect));
                        schedule.push((
                            recovery.saturating_add(delay),
                            id,
                            DetectorAction::Retract,
                        ));
                    }
                    None => schedule.push((report, id, DetectorAction::Suspect)),
                }
            }
            // Churn naps are crash/recovery windows like any other: a
            // nap the detector would report before it ends gets a
            // suspect/retract pair; a nap shorter than the detector's
            // latency goes unnoticed.
            if let Some(churn) = faults.churn() {
                for node in 0..self.node_count {
                    let id = NodeId::new(node as u32);
                    for (down, up) in churn.naps(node) {
                        let report = down.saturating_add(delay);
                        if up <= report {
                            continue;
                        }
                        schedule.push((report, id, DetectorAction::Suspect));
                        schedule.push((up.saturating_add(delay), id, DetectorAction::Retract));
                    }
                }
            }
            schedule.sort_unstable();
            self.detect_schedule = schedule;
        }
        self.faults = faults;
    }

    /// Enables reliable delivery under the given retransmission policy.
    ///
    /// # Panics
    ///
    /// Panics if the policy's timeout is 0 (a retransmission cannot
    /// happen in the round that dropped it) or its retry budget is 0
    /// (the layer would park messages and never resend them).
    pub fn set_reliable(&mut self, policy: RetryPolicy) {
        assert!(
            policy.timeout >= 1,
            "a retransmit timeout of 0 cannot resend within the dropping round"
        );
        assert!(
            policy.max_retries >= 1,
            "a reliable policy with a retry budget of 0 does nothing"
        );
        self.reliable = Some(policy);
    }

    /// Enables message tracing with the given event capacity.
    pub fn enable_trace(&mut self, capacity: usize) {
        self.trace = Some(Trace::with_capacity(capacity));
    }

    /// Attaches a causal knowledge-provenance trace (typically with the
    /// initially-known pairs already seeded). Like the message trace and
    /// the recorder, it is strictly observational: sampling decisions
    /// come from their own counter-based stream ([`rng::prov_sample`]),
    /// so attaching or re-rating the trace never perturbs any message
    /// fate, on any engine or worker count.
    pub fn set_causal(&mut self, causal: CausalTrace) {
        self.causal = Some(causal);
    }

    /// The causal provenance trace, if enabled.
    pub fn causal(&self) -> Option<&CausalTrace> {
        self.causal.as_ref()
    }

    /// Detaches the causal provenance trace so a driver can archive it
    /// after the run.
    pub fn take_causal(&mut self) -> Option<CausalTrace> {
        self.causal.take()
    }

    /// Caps deliveries at `cap` messages per node per round; excess
    /// messages queue (in arrival order) for later rounds.
    ///
    /// # Panics
    ///
    /// Panics if `cap == 0` (nothing could ever be delivered).
    pub fn set_receive_cap(&mut self, cap: usize) {
        assert!(cap > 0, "a receive cap of 0 can never deliver anything");
        self.receive_cap = Some(cap);
    }

    /// Makes delivery asynchronous: every message independently takes
    /// `1 + U{0..=max_extra}` rounds to arrive instead of exactly one.
    pub fn set_max_extra_delay(&mut self, max_extra: u64) {
        self.max_extra_delay = max_extra;
    }

    /// Number of nodes.
    pub fn node_count(&self) -> usize {
        self.node_count
    }

    /// The run seed.
    pub fn seed(&self) -> u64 {
        self.seed
    }

    /// Rounds executed so far.
    pub fn round(&self) -> u64 {
        self.round
    }

    /// The complexity record.
    pub fn metrics(&self) -> &RunMetrics {
        &self.metrics
    }

    /// The message trace, if enabled.
    pub fn trace(&self) -> Option<&Trace> {
        self.trace.as_ref()
    }

    /// Hit-rate counters of the core's delay-batch buffer pool
    /// (observability export).
    pub fn pool_stats(&self) -> crate::pool::PoolStats {
        self.pool.stats()
    }

    /// Peak bytes ever parked in the delay-batch buffer pool
    /// (profiler export).
    pub fn pool_high_water_bytes(&self) -> u64 {
        self.pool.high_water_bytes()
    }

    /// Opens a round: starts its metrics row, folds newly reportable
    /// crashes into the suspect list, and moves messages whose
    /// arrival round has come into the mailboxes. Returns the round
    /// number being executed.
    pub fn begin_round(&mut self) -> u64 {
        self.metrics.begin_round();
        let round = self.round;
        // The perfect failure detector reports each crash once its
        // per-crash latency has elapsed, and retracts the report the
        // same latency after a recovery.
        let mut report: Option<Vec<NodeId>> = None;
        while let Some(&(at, node, action)) = self.detect_schedule.get(self.next_detection) {
            if at > round {
                break;
            }
            let report = report.get_or_insert_with(|| self.suspects.list().to_vec());
            match action {
                DetectorAction::Suspect => report.push(node),
                DetectorAction::Retract => {
                    report.retain(|&s| s != node);
                    self.metrics.record_retraction();
                }
            }
            self.next_detection += 1;
        }
        if let Some(report) = report {
            self.suspects = Arc::new(SuspectView::new(report));
        }
        while self
            .delayed
            .first_key_value()
            .is_some_and(|(&at, _)| at <= round)
        {
            let (_, mut batch) = self.delayed.pop_first().expect("nonempty");
            for env in batch.drain(..) {
                self.mailboxes[env.dst.index() / self.shard_len].push(env);
            }
            self.pool.put(batch);
        }
        round
    }

    /// The failure detector's current crash report: the same handle
    /// until a round in which the detector reports or retracts
    /// something.
    pub fn suspects(&self) -> &Arc<SuspectView> {
        &self.suspects
    }

    /// Borrows the state needed to step nodes; see [`StepState`].
    pub fn step_state(&mut self) -> StepState<'_, M> {
        StepState {
            mailboxes: &mut self.mailboxes,
            shard_len: self.shard_len,
            ctx: StepCtx {
                faults: &self.faults,
                seed: self.seed,
                round: self.round,
                receive_cap: self.receive_cap,
                suspects: &self.suspects,
            },
        }
    }

    /// Routes a round's staged envelopes — canonical
    /// `(sender, send-sequence)` order, senders contiguous — under unit
    /// latency, accounting every message in the metrics and the trace.
    /// The buffer is drained and left empty for reuse.
    ///
    /// When the core can see that no message has anything to decide — no
    /// faults, no jitter, no trace, no causal sampler — and one mailbox
    /// serves every node, every message is a straight-line tally-and-push:
    /// no coins, no branches on per-message state, no buckets. Otherwise
    /// this is [`route_batch_with`](Self::route_batch_with) at
    /// [`unit_latency`], which computes the same thing the long way round.
    ///
    /// # Panics
    ///
    /// Panics if any envelope addresses a node that does not exist.
    pub fn route_batch(&mut self, staged: &mut Vec<Envelope<M>>) {
        let undecided = self.trace.is_some()
            || self.causal.is_some()
            || self.max_extra_delay > 0
            || !self.faults.is_fault_free();
        if undecided || self.mailboxes.len() > 1 {
            return self.route_batch_with(staged, unit_latency);
        }
        let mailbox = &mut self.mailboxes[0];
        let n = self.node_count;
        let lanes = self.metrics.lanes();
        for env in staged.drain(..) {
            let src = env.src.index();
            let dst = env.dst.index();
            assert!(
                dst < n,
                "message to unknown node {} from {}",
                env.dst,
                env.src
            );
            let pointers = env.payload.pointers() as u64;
            lanes.row.messages += 1;
            lanes.row.pointers += pointers;
            let lane = &mut lanes.nodes[src];
            lane.sent_messages += 1;
            lane.sent_pointers += pointers;
            let lane = &mut lanes.nodes[dst];
            lane.recv_messages += 1;
            lane.recv_pointers += pointers;
            mailbox.push(env);
        }
    }

    /// Routes a round's staged envelopes through the kernel on the
    /// calling thread: [`route_shard`] over one whole-population sender
    /// shard, [`merge_dest_shard`] into each mailbox,
    /// [`apply_route_deltas`](Self::apply_route_deltas) — the sharded
    /// pipeline at shard count 1, so the serial and parallel paths are
    /// one function rather than two kept equal.
    /// `latency` is the per-transmission link latency (see the
    /// [module docs](self)); the entry point of every latency model but
    /// unit latency.
    ///
    /// Dropped messages park in the retransmission queue (when reliable
    /// delivery is on) at `round + timeout`; the caller decides when to
    /// drain it via [`retransmit_due`](Self::retransmit_due).
    ///
    /// # Panics
    ///
    /// As [`route_shard`].
    pub fn route_batch_with<L>(&mut self, staged: &mut Vec<Envelope<M>>, latency: L)
    where
        L: Fn(usize, usize, u64, u64, u32) -> u64,
    {
        let mut buckets = std::mem::take(&mut self.serial_buckets);
        let mut delayed = std::mem::take(&mut self.serial_delayed);
        let parts = self.route_parts();
        let shard_len = parts.params.shard_len;
        let mut delta = route_shard(
            parts.params,
            latency,
            staged,
            0,
            parts.node_lanes,
            &mut buckets,
        );
        for (d, (bucket, mailbox)) in buckets.iter_mut().zip(parts.mailboxes).enumerate() {
            let base = d * shard_len;
            let end = (base + shard_len).min(parts.node_lanes.len());
            merge_dest_shard(
                parts.params.round,
                base,
                std::slice::from_mut(bucket),
                mailbox,
                &mut parts.node_lanes[base..end],
                &mut delayed,
            );
        }
        self.apply_route_deltas(
            std::slice::from_mut(&mut delta),
            std::slice::from_mut(&mut delayed),
        );
        self.serial_buckets = buckets;
        self.serial_delayed = delayed;
    }

    /// Borrows the state stepping and routing need, shard by shard; see
    /// [`RouteParts`].
    ///
    /// # Panics
    ///
    /// Panics if no round is open (`begin_round` not called).
    pub fn route_parts(&mut self) -> RouteParts<'_, M> {
        let lanes = self.metrics.lanes();
        RouteParts {
            ctx: StepCtx {
                faults: &self.faults,
                seed: self.seed,
                round: self.round,
                receive_cap: self.receive_cap,
                suspects: &self.suspects,
            },
            params: RouteParams {
                seed: self.seed,
                round: self.round,
                faults: &self.faults,
                max_extra_delay: self.max_extra_delay,
                trace_capacity: self.trace.as_ref().map(Trace::capacity),
                causal_ppm: self.causal.as_ref().map(CausalTrace::sample_ppm),
                reliable: self.reliable,
                node_count: self.node_count,
                shard_len: self.shard_len,
            },
            mailboxes: &mut self.mailboxes,
            node_lanes: lanes.nodes,
        }
    }

    /// Folds per-shard routing results back into the core: metric rows
    /// and trace fragments from `deltas` (in shard order) and delayed
    /// deliveries from the merge phase (as `(arrival round, envelope)`,
    /// one list per destination shard, in shard order).
    ///
    /// Trace fragments concatenate to the canonical global order, so
    /// re-recording them through the capacity-bounded [`Trace`] stores
    /// exactly the events a single shard would have stored. Delayed
    /// lists are keyed into the delay queue; only per-destination
    /// relative order is observable at delivery time, and that order
    /// (canonical sender order per destination) is already fixed by the
    /// merge phase.
    pub fn apply_route_deltas(
        &mut self,
        deltas: &mut [RouteDelta<M>],
        delayed_lists: &mut [Routed<M>],
    ) {
        let reliable = self.reliable;
        let round = self.round;
        let queue = &mut self.retransmit_queue;
        let lanes = self.metrics.lanes();
        for delta in deltas.iter_mut() {
            lanes.row.messages += delta.row.messages;
            lanes.row.pointers += delta.row.pointers;
            lanes.row.drops.merge(&delta.row.drops);
            lanes.row.retransmissions += delta.row.retransmissions;
            if let Some(trace) = self.trace.as_mut() {
                for event in delta.trace_events.drain(..) {
                    trace.record(event);
                }
                trace.add_overflow(delta.trace_overflow);
            }
            if let Some(causal) = self.causal.as_mut() {
                // Shard order = canonical offer order, so re-offering
                // the fragments builds the same DAG for every shard
                // count, capacity effects included.
                causal.fold(&delta.prov, delta.prov_sampled_out);
                delta.prov.clear();
            }
            if let Some(policy) = reliable {
                if !delta.retries.is_empty() {
                    // Shard order = canonical sender order, so the queue
                    // batch is the same for every shard count.
                    queue
                        .entry(round + policy.timeout)
                        .or_default()
                        .append(&mut delta.retries);
                }
            }
        }
        let delayed = &mut self.delayed;
        let pool = &mut self.pool;
        for list in delayed_lists.iter_mut() {
            for (at, env) in list.drain(..) {
                delayed.entry(at).or_insert_with(|| pool.take()).push(env);
            }
        }
    }

    /// Closes the round: advances the clock. Engines make the due
    /// retransmission attempts first ([`retransmit_due`]).
    ///
    /// [`retransmit_due`]: Self::retransmit_due
    pub fn finish_round(&mut self) {
        self.round += 1;
    }

    /// Makes every retransmission attempt due by the current round; a
    /// no-op without reliable delivery.
    ///
    /// Runs serially (after routing) in every engine, draining the
    /// resend queue in `(resend round, canonical drop order)` order, so
    /// every engine and worker count replays attempts identically.
    /// `latency(src, dst, orig_round, orig_seq, attempt)` is the
    /// attempt's link latency, with the same arithmetic as a first send
    /// (see the [module docs](self)) on the [`retry_fate`] stream.
    /// Attempts are charged like fresh sends (plus the
    /// `retransmissions` tally) but are not traced — the trace records
    /// the protocol's own sends. A still-failing attempt re-parks the
    /// message with exponentially backed-off delay until the retry
    /// budget runs out; because crash and partition checks use the
    /// attempt's own round, a retransmission can land after its
    /// destination recovers or the partition heals.
    ///
    /// # Panics
    ///
    /// Panics if a latency of 0 is returned, or a latency above 1 meets
    /// a nonzero jitter knob.
    pub fn retransmit_due<L>(&mut self, latency: L)
    where
        L: Fn(usize, usize, u64, u64, u32) -> u64,
    {
        let Some(policy) = self.reliable else {
            return;
        };
        let round = self.round;
        let seed = self.seed;
        let max_extra = self.max_extra_delay;
        let guards = FaultGuards::new(&self.faults);
        let (mailboxes, shard_len) = (&mut self.mailboxes, self.shard_len);
        let delayed = &mut self.delayed;
        let pool = &mut self.pool;
        let queue = &mut self.retransmit_queue;
        let lanes = self.metrics.lanes();
        while queue.first_key_value().is_some_and(|(&at, _)| at <= round) {
            let (_, batch) = queue.pop_first().expect("nonempty");
            for retry in batch {
                let src = retry.env.src.index();
                let dst = retry.env.dst.index();
                let attempt = retry.attempts + 1;
                let lat = checked_latency(
                    latency(src, dst, retry.orig_round, retry.orig_seq, attempt),
                    max_extra,
                );
                let blocked = guards.blocked(src, dst, round, round + lat);
                let (drop_p, coin_cause) = guards.coin(src, dst);
                let fate = retry_fate(
                    seed,
                    src,
                    retry.orig_round,
                    retry.orig_seq,
                    attempt,
                    blocked,
                    drop_p,
                    coin_cause,
                    max_extra,
                );
                let pointers = retry.env.payload.pointers() as u64;
                lanes.row.retransmissions += 1;
                let lane = &mut lanes.nodes[src];
                lane.sent_messages += 1;
                lane.sent_pointers += pointers;
                if let Some(cause) = fate.dropped {
                    lanes.row.drops.add(cause);
                    if attempt < policy.max_retries {
                        // Backoff delays are ≥ 1, so the new slot is
                        // strictly in the future and never re-drained
                        // by this loop.
                        queue
                            .entry(round + policy.delay_after(attempt))
                            .or_default()
                            .push(RetryEnvelope {
                                attempts: attempt,
                                ..retry
                            });
                    }
                } else {
                    lanes.row.messages += 1;
                    lanes.row.pointers += pointers;
                    let lane = &mut lanes.nodes[dst];
                    lane.recv_messages += 1;
                    lane.recv_pointers += pointers;
                    let arrival = round + lat + fate.extra_delay;
                    if arrival == round + 1 {
                        mailboxes[dst / shard_len].push(retry.env);
                    } else {
                        delayed
                            .entry(arrival)
                            .or_insert_with(|| pool.take())
                            .push(retry.env);
                    }
                }
            }
        }
    }
}

/// Runs one node for one round: builds its [`RoundContext`] (whose
/// private per-`(seed, node, round)` random stream is derived when the
/// node first asks for it) and hands it `inbox` (cleared afterwards, so
/// the buffer can be reused). Sends are appended to `outbox` in send
/// order.
///
/// This is the single entry point through which every engine executes
/// protocol logic, so context construction (and thus the randomness a
/// node observes) cannot differ between engines.
pub fn step_node<N: Node>(
    node: &mut N,
    index: usize,
    round: u64,
    seed: u64,
    suspects: &Arc<SuspectView>,
    inbox: &mut Vec<Envelope<N::Msg>>,
    outbox: &mut Vec<Envelope<N::Msg>>,
) {
    let mut ctx = RoundContext::new(NodeId::new(index as u32), round, seed, outbox, suspects);
    node.on_round(inbox, &mut ctx);
    inbox.clear();
}

/// The node loop of every engine: sorts `mailbox`, the mail of the
/// contiguous block of nodes whose first index is `base`, and steps
/// every node of the block on its run of it; sends are appended to
/// `staged` in `(node, send)` order. A serial engine passes the whole
/// population; a sharded engine one block per worker.
///
/// Under a receive cap a node is handed its oldest `cap` messages, and
/// the rest wait in `held` until every node of the block has stepped,
/// then go back to the mailbox — ahead of anything routed to it this
/// round, as they were ahead of it in its queue.
pub fn step_shard<N: Node>(
    ctx: StepCtx<'_>,
    base: usize,
    nodes: &mut [N],
    mailbox: &mut Mailbox<N::Msg>,
    staged: &mut Vec<Envelope<N::Msg>>,
    held: &mut Vec<Envelope<N::Msg>>,
) {
    // Hoisted: with no crashes scheduled (the common case) the
    // per-node map probe below is skipped entirely.
    let crashes_possible = ctx.faults.has_crashes();
    mailbox.sort(base, nodes.len());
    let Mailbox {
        mail, ends, inbox, ..
    } = &mut *mailbox;
    let mut arrived = mail.drain(..);
    let mut start = 0;
    for (offset, node) in nodes.iter_mut().enumerate() {
        let end = ends[offset] as usize;
        let count = end - start;
        start = end;
        let i = base + offset;
        if crashes_possible && ctx.faults.is_crashed_at(i, ctx.round) {
            // Crashed nodes neither run nor receive; their pending
            // deliveries are consumed and lost.
            arrived.by_ref().take(count).for_each(drop);
            continue;
        }
        let deliver = ctx.receive_cap.map_or(count, |cap| cap.min(count));
        inbox.extend(arrived.by_ref().take(deliver));
        held.extend(arrived.by_ref().take(count - deliver));
        step_node(node, i, ctx.round, ctx.seed, ctx.suspects, inbox, staged);
    }
    drop(arrived);
    for env in held.drain(..) {
        mailbox.push(env);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    impl MessageCost for u32 {
        fn pointers(&self) -> usize {
            1
        }
        fn visit_ids(&self, visit: &mut dyn FnMut(NodeId)) {
            visit(NodeId::new(*self));
        }
    }

    fn env(src: u32, dst: u32, payload: u32) -> Envelope<u32> {
        Envelope::new(NodeId::new(src), NodeId::new(dst), payload)
    }

    /// Closes a round the way the round engines do.
    fn close_round(core: &mut EngineCore<u32>) {
        core.retransmit_due(unit_latency);
        core.finish_round();
    }

    /// The payloads queued for `node`'s next step, in arrival order.
    fn mail_of(core: &EngineCore<u32>, node: usize) -> Vec<u32> {
        core.mailboxes[node / core.shard_len]
            .mail
            .iter()
            .filter(|e| e.dst.index() == node)
            .map(|e| e.payload)
            .collect()
    }

    #[test]
    fn a_mailbox_sorts_by_destination_in_arrival_order() {
        // Nodes 10..14: 13 hears three times, 11 twice, 10 and 12 never.
        let mut mailbox = Mailbox::default();
        for (dst, payload) in [(13, 1), (11, 2), (13, 3), (11, 4), (13, 5)] {
            mailbox.push(env(0, dst, payload));
        }
        mailbox.sort(10, 4);
        assert_eq!(mailbox.ends, [0, 2, 2, 5, 5]);
        let sorted: Vec<u32> = mailbox.mail.iter().map(|e| e.payload).collect();
        assert_eq!(sorted, [2, 4, 1, 3, 5]);
    }

    #[test]
    fn route_batch_delivers_into_next_round_mailbox() {
        let mut core: EngineCore<u32> = EngineCore::new(3, 1);
        assert_eq!(core.begin_round(), 0);
        core.route_batch(&mut vec![env(0, 2, 7)]);
        core.finish_round();
        assert_eq!(core.round(), 1);
        assert_eq!(core.metrics().total_messages(), 1);
        assert_eq!(mail_of(&core, 2), [7]);
        assert!(mail_of(&core, 0).is_empty());
    }

    #[test]
    #[should_panic(expected = "unknown node")]
    fn route_batch_rejects_unknown_destination() {
        let mut core: EngineCore<u32> = EngineCore::new(2, 1);
        core.begin_round();
        core.route_batch(&mut vec![env(0, 5, 1)]);
    }

    #[test]
    #[should_panic(expected = "unknown node")]
    fn route_shard_rejects_unknown_destination() {
        let params = RouteParams {
            seed: 1,
            round: 0,
            faults: &FaultPlan::new(),
            max_extra_delay: 0,
            trace_capacity: None,
            causal_ppm: None,
            reliable: None,
            node_count: 2,
            shard_len: 2,
        };
        route_shard(
            params,
            unit_latency,
            &mut vec![env(0, 5, 1)],
            0,
            &mut [NodeLane::default(), NodeLane::default()],
            &mut [Vec::new()],
        );
    }

    #[test]
    #[should_panic(expected = "supersedes the uniform-jitter knob")]
    fn a_latency_above_one_tick_refuses_the_jitter_knob() {
        let mut core: EngineCore<u32> = EngineCore::new(2, 1);
        core.set_max_extra_delay(2);
        core.begin_round();
        core.route_batch_with(&mut vec![env(0, 1, 7)], |_, _, _, _, _| 3);
    }

    #[test]
    fn route_fate_is_a_pure_function_of_its_inputs() {
        let fate = |seq| route_fate(9, 3, 1, seq, None, 0.5, DropCause::Coin, 4);
        assert_eq!(fate(0), fate(0));
        assert_eq!(fate(7), fate(7));
        // A fault-free synchronous policy never drops or delays.
        assert_eq!(
            route_fate(9, 3, 1, 0, None, 0.0, DropCause::Coin, 0),
            RouteFate::DELIVER
        );
        // A blocked path always drops with its cause, without consuming
        // coins.
        for cause in [
            DropCause::Crash,
            DropCause::Partition,
            DropCause::Suppression,
        ] {
            assert_eq!(
                route_fate(9, 3, 1, 0, Some(cause), 0.0, DropCause::Coin, 0),
                RouteFate::drop(cause)
            );
        }
        // The coin attributes to the caller-selected cause (the link
        // overlay substitutes `Link`) without changing the coin itself.
        for seq in 0..128 {
            let base = route_fate(9, 3, 1, seq, None, 0.5, DropCause::Coin, 4);
            let link = route_fate(9, 3, 1, seq, None, 0.5, DropCause::Link, 4);
            assert_eq!(base.is_dropped(), link.is_dropped(), "same coin, seq {seq}");
            assert_eq!(base.extra_delay, link.extra_delay);
            if link.is_dropped() {
                assert_eq!(link.dropped, Some(DropCause::Link));
            }
        }
        // Fates vary across the sequence axis (statistically: across
        // 128 sequence numbers at p = 0.5, both outcomes must occur).
        let drops = (0..128).filter(|&s| fate(s).is_dropped()).count();
        assert!(drops > 0 && drops < 128, "sequence axis ignored: {drops}");
    }

    #[test]
    fn retry_fate_is_pure_and_independent_of_the_route_stream() {
        let fate = |attempt| retry_fate(9, 1, 3, 0, attempt, None, 0.5, DropCause::Coin, 0);
        assert_eq!(fate(1), fate(1));
        // Attempts draw independent coins (statistically: across 128
        // attempts at p = 0.5, both outcomes must occur).
        let drops = (1..=128).filter(|&a| fate(a).is_dropped()).count();
        assert!(drops > 0 && drops < 128, "attempt axis ignored: {drops}");
        assert_eq!(
            retry_fate(
                9,
                1,
                3,
                0,
                1,
                Some(DropCause::Crash),
                0.0,
                DropCause::Coin,
                0
            ),
            RouteFate::drop(DropCause::Crash)
        );
        assert_eq!(
            retry_fate(
                9,
                1,
                3,
                0,
                1,
                Some(DropCause::Partition),
                0.0,
                DropCause::Coin,
                0
            ),
            RouteFate::drop(DropCause::Partition)
        );
        assert_eq!(
            retry_fate(9, 1, 3, 0, 1, None, 0.0, DropCause::Coin, 0),
            RouteFate::DELIVER
        );
    }

    #[test]
    fn fault_guards_classify_blocks_and_coins() {
        let plan = FaultPlan::new()
            .with_drop_probability(0.1)
            .with_crash_at(3, 5)
            .with_partition([vec![0, 1], vec![2, 3]], 0, 10)
            .with_suppression(crate::faults::SuppressionSpec::new(
                7,
                [(0, 1)],
                0,
                10,
                1_000_000,
            ))
            .with_link_loss(crate::faults::LinkLossSpec::new(7, 1_000_000, 400_000));
        let guards = FaultGuards::new(&plan);
        // Precedence: crash beats partition beats suppression.
        assert_eq!(guards.blocked(0, 3, 6, 7), Some(DropCause::Crash));
        assert_eq!(guards.blocked(0, 3, 2, 3), Some(DropCause::Partition));
        assert_eq!(guards.blocked(0, 1, 2, 3), Some(DropCause::Suppression));
        assert_eq!(guards.blocked(0, 1, 12, 13), None, "windows expired");
        // Every link is lossy at 40% > base 10%: the overlay's coin wins.
        assert_eq!(guards.coin(0, 1), (0.4, DropCause::Link));
        // A weaker overlay defers to the base coin.
        let weak = FaultPlan::new()
            .with_drop_probability(0.5)
            .with_link_loss(crate::faults::LinkLossSpec::new(7, 1_000_000, 400_000));
        assert_eq!(FaultGuards::new(&weak).coin(0, 1), (0.5, DropCause::Coin));
    }

    #[test]
    fn retry_backoff_is_exponential_and_capped() {
        let policy = RetryPolicy {
            timeout: 2,
            max_retries: 8,
            max_backoff: 12,
        };
        assert_eq!(policy.delay_after(0), 2);
        assert_eq!(policy.delay_after(1), 4);
        assert_eq!(policy.delay_after(2), 8);
        assert_eq!(policy.delay_after(3), 12, "capped");
        assert_eq!(policy.delay_after(63), 12, "no overflow");
        let min = RetryPolicy {
            timeout: 1,
            max_retries: 1,
            max_backoff: 0,
        };
        assert_eq!(min.delay_after(5), 1, "floored at one round");
    }

    /// Population of [`routed_in_shards`]: divisible by every shard
    /// count the agreement test uses.
    const ROUTED_N: u32 = 12;

    /// Routes one round's `staged` envelopes (canonical order) the way
    /// the sharded engine does for `shards` shards: [`route_shard`] per
    /// sender shard, [`merge_dest_shard`] per destination shard, then
    /// [`EngineCore::apply_route_deltas`]. The core must have been split
    /// into those shards.
    fn route_in_shards(
        core: &mut EngineCore<u32>,
        staged: &[Envelope<u32>],
        latency: impl Fn(usize, usize, u64, u64, u32) -> u64 + Copy,
    ) {
        let parts = core.route_parts();
        let (n, shard_len) = (parts.params.node_count, parts.params.shard_len);
        let shards = parts.mailboxes.len();
        let mut deltas = Vec::new();
        let mut bucket_sets: Vec<Vec<Routed<u32>>> = Vec::new();
        for w in 0..shards {
            // Sender shard w: envelopes whose src is in the shard.
            let mut mine: Vec<_> = staged
                .iter()
                .filter(|e| e.src.index() / shard_len == w)
                .cloned()
                .collect();
            let (lo, hi) = (w * shard_len, ((w + 1) * shard_len).min(n));
            let mut buckets = vec![Vec::new(); shards];
            deltas.push(route_shard(
                parts.params,
                latency,
                &mut mine,
                lo,
                &mut parts.node_lanes[lo..hi],
                &mut buckets,
            ));
            bucket_sets.push(buckets);
        }
        let mut delayed_lists: Vec<Routed<u32>> = vec![Vec::new(); shards];
        for (d, (delayed, mailbox)) in delayed_lists.iter_mut().zip(parts.mailboxes).enumerate() {
            let mut parts_d: Vec<Routed<u32>> = bucket_sets
                .iter_mut()
                .map(|set| std::mem::take(&mut set[d]))
                .collect();
            let (lo, hi) = (d * shard_len, ((d + 1) * shard_len).min(n));
            merge_dest_shard(
                parts.params.round,
                lo,
                &mut parts_d,
                mailbox,
                &mut parts.node_lanes[lo..hi],
                delayed,
            );
        }
        core.apply_route_deltas(&mut deltas, &mut delayed_lists);
    }

    /// One round of a traced, causally sampled, reliable run — under
    /// drops, a crash and a partition when `faulty` — routed through
    /// `shards` sender shards under `latency` (and `jitter` rounds of
    /// extra delay): the serial entry point for one shard, the
    /// shard/merge/apply calls a parallel engine makes for more.
    fn routed_in_shards(
        shards: usize,
        faulty: bool,
        jitter: u64,
        latency: impl Fn(usize, usize, u64, u64, u32) -> u64 + Copy,
    ) -> EngineCore<u32> {
        let n = ROUTED_N as usize;
        let mut staged: Vec<Envelope<u32>> = Vec::new();
        for src in 0..ROUTED_N {
            for k in 0..5u32 {
                staged.push(env(src, (src + k + 1) % ROUTED_N, src * 10 + k));
            }
        }
        let mut core: EngineCore<u32> = EngineCore::new(n, 42);
        if shards > 1 {
            core.set_shard_len(n / shards);
        }
        if faulty {
            core.set_faults(
                FaultPlan::new()
                    .with_drop_probability(0.3)
                    .with_crash_at(5, 2)
                    // The low group keeps the wrapped-around senders,
                    // so some surviving messages travel src > dst.
                    .with_partition([vec![0, 1, 2, 9, 10, 11], vec![3, 4]], 0, 2),
            );
        }
        core.set_max_extra_delay(jitter);
        core.enable_trace(1 << 10);
        core.set_causal(CausalTrace::new(1 << 10, 600_000));
        core.set_reliable(RetryPolicy::default());
        core.begin_round();
        if shards == 1 {
            core.route_batch_with(&mut staged, latency);
        } else {
            route_in_shards(&mut core, &staged, latency);
        }
        core
    }

    /// Directional links: upward sends take one tick, downward three.
    fn asym(src: usize, dst: usize, _: u64, _: u64, _: u32) -> u64 {
        if src < dst {
            1
        } else {
            3
        }
    }

    /// A seeded per-message latency of 1 to 5 ticks.
    fn seeded(src: usize, dst: usize, round: u64, sequence: u64, _: u32) -> u64 {
        1 + rng::derive_seed(7, (src * 8 + dst) as u64, sequence, round) % 5
    }

    type Latency = fn(usize, usize, u64, u64, u32) -> u64;

    /// Records what it is handed each round and, for the first rounds,
    /// sends numbered messages: one to node 0 — the hot spot a receive
    /// cap queues at — and up to two to nodes picked from its id and the
    /// round.
    struct Listener {
        n: u32,
        heard: Vec<(u64, Vec<u32>)>,
    }

    impl Node for Listener {
        type Msg = u32;

        fn on_round(&mut self, inbox: &mut Vec<Envelope<u32>>, ctx: &mut RoundContext<'_, u32>) {
            let heard = inbox.drain(..).map(|e| e.payload).collect();
            self.heard.push((ctx.round(), heard));
            let (me, round) = (u32::from(ctx.id()), ctx.round() as u32);
            if round >= 6 {
                return;
            }
            for k in 0..1 + (me + round) % 3 {
                let dst = match k {
                    0 => 0,
                    _ => (me + 1 + (k * 5 + round * 3) % (self.n - 1)) % self.n,
                };
                if dst != me {
                    ctx.send(NodeId::new(dst), me * 1000 + round * 10 + k);
                }
            }
        }
    }

    /// A multi-round delivery set-up: a receive cap, jitter, a fault
    /// plan, retransmissions and a latency function (`None`: unit
    /// latency, routed by `route_batch` on one shard).
    struct Delivery {
        cap: Option<usize>,
        jitter: u64,
        faults: FaultPlan,
        reliable: Option<RetryPolicy>,
        latency: Option<Latency>,
    }

    /// Population and length of the multi-round oracle runs: eleven
    /// nodes, so two and three shards leave a short last one.
    const ORACLE_N: u32 = 11;
    const ORACLE_ROUNDS: u64 = 90;

    /// Per node, the payloads it was handed in each round it stepped.
    type Heard = Vec<Vec<(u64, Vec<u32>)>>;

    /// What every node was handed, round by round, when the core's
    /// mailboxes — split into `shards` — deliver.
    fn heard_through_mailboxes(shards: usize, setup: &Delivery) -> Heard {
        let n = ORACLE_N as usize;
        let mut core: EngineCore<u32> = EngineCore::new(n, 5);
        core.set_shard_len(n.div_ceil(shards));
        core.set_faults(setup.faults.clone());
        core.set_max_extra_delay(setup.jitter);
        if let Some(cap) = setup.cap {
            core.set_receive_cap(cap);
        }
        if let Some(policy) = setup.reliable {
            core.set_reliable(policy);
        }
        let mut nodes: Vec<Listener> = (0..n)
            .map(|_| Listener {
                n: ORACLE_N,
                heard: Vec::new(),
            })
            .collect();
        let latency = setup.latency.unwrap_or(unit_latency);
        let (mut staged, mut held) = (Vec::new(), Vec::new());
        for _ in 0..ORACLE_ROUNDS {
            core.begin_round();
            let state = core.step_state();
            let blocks = nodes.chunks_mut(state.shard_len);
            for (w, (block, mailbox)) in blocks.zip(state.mailboxes).enumerate() {
                let base = w * state.shard_len;
                step_shard(state.ctx, base, block, mailbox, &mut staged, &mut held);
            }
            // One shard takes the serial entry points, two the sharded
            // engine's calls, three the serial kernel into every mailbox.
            match (shards, setup.latency) {
                (1, None) => core.route_batch(&mut staged),
                (2, _) => {
                    route_in_shards(&mut core, &staged, latency);
                    staged.clear();
                }
                _ => core.route_batch_with(&mut staged, latency),
            }
            core.retransmit_due(latency);
            core.finish_round();
        }
        nodes.into_iter().map(|node| node.heard).collect()
    }

    /// The same, delivered the way the engines did before mailboxes were
    /// per shard: one vector per node, pushed onto as mail arrives, the
    /// oldest `cap` handed over and the rest kept. Routing, delay and
    /// retransmission are rebuilt here from the public fate functions,
    /// so the reference shares no delivery code with the core.
    fn heard_through_inboxes(setup: &Delivery) -> (Heard, usize) {
        type Parked = (Envelope<u32>, u64, u64, u32);
        let (n, seed) = (ORACLE_N as usize, 5);
        let guards = FaultGuards::new(&setup.faults);
        let latency = setup.latency.unwrap_or(unit_latency);
        let mut inboxes = vec![Vec::new(); n];
        let mut delayed: std::collections::BTreeMap<u64, Vec<Envelope<u32>>> = Default::default();
        let mut parked: std::collections::BTreeMap<u64, Vec<Parked>> = Default::default();
        let mut nodes: Vec<Listener> = (0..n)
            .map(|_| Listener {
                n: ORACLE_N,
                heard: Vec::new(),
            })
            .collect();
        let (mut staged, mut scratch) = (Vec::new(), Vec::new());
        let none = SuspectView::none();
        let mut deferred = 0;
        for round in 0..ORACLE_ROUNDS {
            while let Some(entry) = delayed.first_entry().filter(|e| *e.key() <= round) {
                for env in entry.remove() {
                    inboxes[env.dst.index()].push(env);
                }
            }
            for (i, (node, inbox)) in nodes.iter_mut().zip(&mut inboxes).enumerate() {
                if setup.faults.is_crashed_at(i, round) {
                    inbox.clear();
                    continue;
                }
                let inbox = match setup.cap {
                    Some(cap) if inbox.len() > cap => {
                        deferred += 1;
                        scratch.clear();
                        scratch.extend(inbox.drain(..cap));
                        &mut scratch
                    }
                    _ => inbox,
                };
                step_node(node, i, round, seed, &none, inbox, &mut staged);
            }
            let mut seq = (usize::MAX, 0);
            for env in staged.drain(..) {
                let (src, dst) = (env.src.index(), env.dst.index());
                seq = if seq.0 == src {
                    (src, seq.1 + 1)
                } else {
                    (src, 0)
                };
                let lat = latency(src, dst, round, seq.1, 0);
                let blocked = guards.blocked(src, dst, round, round + lat);
                let (p, cause) = guards.coin(src, dst);
                let fate = route_fate(seed, round, src, seq.1, blocked, p, cause, setup.jitter);
                match (fate.dropped, setup.reliable) {
                    (Some(_), Some(policy)) => parked
                        .entry(round + policy.timeout)
                        .or_default()
                        .push((env, round, seq.1, 0)),
                    (Some(_), None) => {}
                    (None, _) if lat + fate.extra_delay == 1 => inboxes[dst].push(env),
                    (None, _) => {
                        let arrival = round + lat + fate.extra_delay;
                        delayed.entry(arrival).or_default().push(env);
                    }
                }
            }
            while let Some(entry) = parked.first_entry().filter(|e| *e.key() <= round) {
                let policy = setup.reliable.expect("only a reliable run parks");
                for (env, orig_round, orig_seq, attempts) in entry.remove() {
                    let (src, dst, attempt) = (env.src.index(), env.dst.index(), attempts + 1);
                    let lat = latency(src, dst, orig_round, orig_seq, attempt);
                    let blocked = guards.blocked(src, dst, round, round + lat);
                    let (p, cause) = guards.coin(src, dst);
                    let fate = retry_fate(
                        seed,
                        src,
                        orig_round,
                        orig_seq,
                        attempt,
                        blocked,
                        p,
                        cause,
                        setup.jitter,
                    );
                    let arrival = round + lat + fate.extra_delay;
                    if fate.is_dropped() {
                        if attempt < policy.max_retries {
                            parked
                                .entry(round + policy.delay_after(attempt))
                                .or_default()
                                .push((env, orig_round, orig_seq, attempt));
                        }
                    } else if arrival == round + 1 {
                        inboxes[dst].push(env);
                    } else {
                        delayed.entry(arrival).or_default().push(env);
                    }
                }
            }
        }
        let heard = nodes.into_iter().map(|node| node.heard).collect();
        (heard, deferred)
    }

    #[test]
    fn batch_and_shard_routing_agree_under_faults_and_delay() {
        // The kernel is one function of (seed, src, round, sequence,
        // latency): however the senders are sharded, mailboxes, delay
        // queue, metrics, trace, causal edges and parked retries agree —
        // with no fault and no jitter, and with drops, a crash and a
        // partition under unit latency with jitter, under directional
        // latency, and under a seeded per-message latency.
        let axes: [(&str, bool, u64, Latency); 4] = [
            ("fault-free", false, 0, unit_latency),
            ("unit", true, 2, unit_latency),
            ("asym", true, 0, asym),
            ("seeded", true, 0, seeded),
        ];
        for (name, faulty, jitter, latency) in axes {
            let serial = routed_in_shards(1, faulty, jitter, latency);
            assert!(!serial.causal().unwrap().is_empty());
            assert!(serial.causal().unwrap().sampled_out() > 0);
            if faulty {
                assert!(serial.metrics().drop_tally().partition > 0);
                assert!(serial.metrics().drop_tally().coin > 0);
                assert!(!serial.delayed.is_empty(), "{name}: nothing was delayed");
            } else {
                assert_eq!(serial.metrics().total_dropped(), 0);
                assert!(serial.delayed.is_empty(), "{name}: a delivery was delayed");
            }
            // Every drop was parked for retransmission.
            let parked: usize = serial.retransmit_queue.values().map(Vec::len).sum();
            assert_eq!(parked as u64, serial.metrics().total_dropped());
            for shards in [2, 3, 4] {
                let sharded = routed_in_shards(shards, faulty, jitter, latency);
                let at = format!("{name}, {shards} shards");
                assert_eq!(serial.metrics(), sharded.metrics(), "{at}");
                assert_eq!(
                    serial.trace().unwrap().events(),
                    sharded.trace().unwrap().events(),
                    "{at}"
                );
                // The provenance DAG (edges, roots, and every counter)
                // folds to the same result, sampling included.
                assert_eq!(serial.causal(), sharded.causal(), "{at}");
                assert_eq!(serial.retransmit_queue, sharded.retransmit_queue, "{at}");
                for node in 0..ROUTED_N as usize {
                    assert_eq!(mail_of(&serial, node), mail_of(&sharded, node), "{at}");
                }
                // Delay queues agree on arrival rounds and, per
                // destination, on the exact delivery sequence.
                // (Cross-destination interleaving inside a batch is
                // unobservable: stepping sorts every mailbox by node.)
                let keys = |c: &EngineCore<u32>| c.delayed.keys().copied().collect::<Vec<_>>();
                assert_eq!(keys(&serial), keys(&sharded), "{at}");
                for (arrival, batch) in &serial.delayed {
                    let other = &sharded.delayed[arrival];
                    for dst in 0..ROUTED_N {
                        let per_dst = |b: &[Envelope<u32>]| {
                            b.iter()
                                .filter(|e| e.dst == NodeId::new(dst))
                                .map(|e| e.payload)
                                .collect::<Vec<_>>()
                        };
                        assert_eq!(
                            per_dst(batch),
                            per_dst(other),
                            "{at}: delayed to {dst} at {arrival}"
                        );
                    }
                }
            }
        }

        // Over many rounds, with receive caps, what each node is handed
        // — contents and order, round by round — is what one vector per
        // node handed it, on one, two and three shards: capped
        // leftovers ahead of routed mail, then retransmissions, then
        // delayed arrivals.
        let churn = || {
            FaultPlan::new()
                .with_drop_probability(0.2)
                .with_crash_at(4, 3)
                .with_recovery_at(4, 9)
                .with_crash_at(0, 20)
                .with_recovery_at(0, 24)
        };
        let split = FaultPlan::new().with_partition([vec![0, 1, 2, 3, 4], vec![5, 6, 7]], 2, 7);
        let policy = RetryPolicy {
            timeout: 1,
            max_retries: 6,
            max_backoff: 4,
        };
        let setups = [
            ("fault-free", None, 0, FaultPlan::new(), None, None),
            ("capped", Some(2), 0, FaultPlan::new(), None, None),
            (
                "capped jitter churn",
                Some(2),
                2,
                churn(),
                Some(policy),
                None,
            ),
            (
                "cap 1 asym partition",
                Some(1),
                0,
                split,
                Some(policy),
                Some(asym as Latency),
            ),
            (
                "cap 3 seeded churn",
                Some(3),
                0,
                churn(),
                Some(policy),
                Some(seeded),
            ),
        ];
        for (name, cap, jitter, faults, reliable, latency) in setups {
            let setup = Delivery {
                cap,
                jitter,
                faults,
                reliable,
                latency,
            };
            let (expected, deferred) = heard_through_inboxes(&setup);
            assert_eq!(cap.is_some(), deferred > 0, "{name}: a cap that never bit");
            let delivered: usize = expected.iter().flatten().map(|(_, mail)| mail.len()).sum();
            assert!(delivered > 60, "{name}: only {delivered} deliveries");
            for shards in [1, 2, 3] {
                let heard = heard_through_mailboxes(shards, &setup);
                for (node, (got, want)) in heard.iter().zip(&expected).enumerate() {
                    assert_eq!(got, want, "{name}, {shards} shards, node {node}");
                }
            }
        }
    }

    #[test]
    fn detector_feeds_suspects_in_report_order() {
        let mut core: EngineCore<u32> = EngineCore::new(4, 1);
        core.set_faults(
            FaultPlan::new()
                .with_crashes([2])
                .with_crash_at(1, 3)
                .with_crash_detection_after(2),
        );
        for expect in [
            &[][..],
            &[][..],
            &[NodeId::new(2)][..],
            &[NodeId::new(2)][..],
            &[NodeId::new(2)][..],
            &[NodeId::new(2), NodeId::new(1)][..],
        ] {
            core.begin_round();
            assert_eq!(core.suspects().list(), expect, "round {}", core.round());
            core.finish_round();
        }
    }

    #[test]
    fn the_suspect_view_is_one_handle_per_change_of_report() {
        // Node 2 is reported at round 2, node 1 at round 5, node 2's
        // recovery at round 6 + 2.
        let mut core: EngineCore<u32> = EngineCore::new(200, 1);
        core.set_faults(
            FaultPlan::new()
                .with_crashes([2])
                .with_recovery_at(2, 6)
                .with_crash_at(130, 3)
                .with_crash_detection_after(2),
        );
        assert!(Arc::ptr_eq(core.suspects(), &SuspectView::none()));
        let mut held = core.suspects().clone();
        let mut changed_at = Vec::new();
        for round in 0..12 {
            core.begin_round();
            let view = core.suspects().clone();
            if !Arc::ptr_eq(&view, &held) {
                changed_at.push(round);
                assert_ne!(view.list(), held.list(), "a new view for the old report");
            }
            for raw in 0..200 {
                let id = NodeId::new(raw);
                assert_eq!(view.contains(id), view.list().contains(&id));
                let word = view.words().get(id.index() / 64).copied().unwrap_or(0);
                assert_eq!(word >> (id.index() % 64) & 1 == 1, view.contains(id));
            }
            assert_ne!(view.words().last(), Some(&0), "ends at its top id");
            held = view;
            core.finish_round();
        }
        assert_eq!(changed_at, [2, 5, 8]);
        assert_eq!(held.list(), [NodeId::new(130)]);
    }

    #[test]
    fn detector_retracts_suspicion_after_recovery() {
        // Node 1 dead rounds 2..5, detector latency 2: suspected at 4,
        // retracted at 7. Node 2 dead 0..3 but its recovery (3) lands
        // before its report (2 + 2 = 4)? No — report would be at 2,
        // recovery at 3 is after it, so it is suspected then retracted.
        let mut core: EngineCore<u32> = EngineCore::new(4, 1);
        core.set_faults(
            FaultPlan::new()
                .with_crash_at(1, 2)
                .with_recovery_at(1, 5)
                .with_crashes([2])
                .with_recovery_at(2, 3)
                .with_crash_detection_after(2),
        );
        for (round, expect) in [
            (0u64, &[][..]),
            (1, &[][..]),
            (2, &[NodeId::new(2)][..]),
            (3, &[NodeId::new(2)][..]),
            (4, &[NodeId::new(2), NodeId::new(1)][..]),
            (5, &[NodeId::new(1)][..]), // node 2's retraction at 3+2
            (6, &[NodeId::new(1)][..]),
            (7, &[][..]), // node 1's retraction at 5+2
            (8, &[][..]),
        ] {
            core.begin_round();
            assert_eq!(core.suspects().list(), expect, "round {round}");
            core.finish_round();
        }
        assert_eq!(core.metrics().detector_retractions(), 2);
    }

    #[test]
    fn fast_recovery_is_never_suspected() {
        // Recovery at 3 beats the would-be report at 0 + 4 = 4.
        let mut core: EngineCore<u32> = EngineCore::new(4, 1);
        core.set_faults(
            FaultPlan::new()
                .with_crashes([2])
                .with_recovery_at(2, 3)
                .with_crash_detection_after(4),
        );
        for _ in 0..8 {
            core.begin_round();
            assert_eq!(core.suspects().list(), &[][..]);
            core.finish_round();
        }
        assert_eq!(core.metrics().detector_retractions(), 0);
    }

    #[test]
    fn reliable_delivery_retries_through_a_crash_window() {
        // Node 1 is dead for rounds 1..4. A message sent to it in round
        // 0 is dropped, parked, and retried (timeout 1, backoff 1-2-4…)
        // until an attempt lands after the recovery.
        let mut core: EngineCore<u32> = EngineCore::new(2, 7);
        core.set_faults(FaultPlan::new().with_crash_at(1, 1).with_recovery_at(1, 4));
        core.set_reliable(RetryPolicy {
            timeout: 1,
            max_retries: 5,
            max_backoff: 8,
        });
        core.begin_round();
        core.route_batch(&mut vec![env(0, 1, 99)]);
        close_round(&mut core);
        for _ in 0..5 {
            core.begin_round();
            core.route_batch(&mut Vec::new());
            close_round(&mut core);
        }
        assert!(
            mail_of(&core, 1).contains(&99),
            "retransmission never landed"
        );
        let m = core.metrics();
        assert_eq!(m.total_retransmissions(), 2, "attempts at rounds 1 and 3");
        assert_eq!(m.total_dropped(), 2, "original send plus first retry");
        assert_eq!(m.drop_tally().crash, 2);
        assert_eq!(
            m.total_messages(),
            3,
            "one original send plus two retransmissions"
        );
    }

    #[test]
    fn reliable_delivery_gives_up_after_its_retry_budget() {
        // Node 1 never recovers; the retry budget (2) runs out and the
        // queue drains without delivering.
        let mut core: EngineCore<u32> = EngineCore::new(2, 7);
        core.set_faults(FaultPlan::new().with_crash_at(1, 1));
        core.set_reliable(RetryPolicy {
            timeout: 1,
            max_retries: 2,
            max_backoff: 8,
        });
        core.begin_round();
        core.route_batch(&mut vec![env(0, 1, 99)]);
        close_round(&mut core);
        for _ in 0..8 {
            core.begin_round();
            core.route_batch(&mut Vec::new());
            close_round(&mut core);
        }
        assert!(mail_of(&core, 1).is_empty());
        assert!(core.retransmit_queue.is_empty(), "budget exhausted");
        assert_eq!(core.metrics().total_retransmissions(), 2);
        assert_eq!(core.metrics().total_dropped(), 3);
    }

    #[test]
    fn reliable_delivery_retries_across_a_partition_heal() {
        let mut core: EngineCore<u32> = EngineCore::new(4, 7);
        core.set_faults(FaultPlan::new().with_partition([vec![0, 1], vec![2, 3]], 0, 2));
        core.set_reliable(RetryPolicy {
            timeout: 2,
            max_retries: 3,
            max_backoff: 8,
        });
        core.begin_round();
        core.route_batch(&mut vec![env(0, 2, 55)]);
        close_round(&mut core);
        for _ in 0..4 {
            core.begin_round();
            core.route_batch(&mut Vec::new());
            close_round(&mut core);
        }
        // Dropped at round 0 (partition), retried at round 2 (healed).
        assert!(mail_of(&core, 2).contains(&55));
        let m = core.metrics();
        assert_eq!(m.drop_tally().partition, 1);
        assert_eq!(m.total_retransmissions(), 1);
    }
}
