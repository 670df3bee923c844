//! The engine-agnostic round machinery shared by every execution engine.
//!
//! [`EngineCore`] owns everything about a run *except* the node programs:
//! mailboxes, the round counter, metrics, the fault layer, the causal
//! trace, the failure-detector schedule, receive caps, and the latency
//! model. Both
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
//! Mail is not kept per node. Each shard has one [`Mailbox`] — the
//! serial path has one shard, the whole population, and serves exactly
//! one mailbox: everything that arrives for its
//! nodes is appended to one buffer in the order it arrives, and stepping
//! the shard sorts that buffer by destination with a stable counting
//! sort, so each node's mail is one contiguous run in arrival order.
//! The runs lie in *descending* node order, so the node stepped next
//! always owns the buffer's tail: its `on_round` reads it through an
//! [`Inbox`] that moves each envelope out of the buffer, and the buffer
//! is cut back to where the run began — no copy, and no shift of what
//! other nodes have yet to read. What a node sees is exactly what
//! pushing each arrival onto a vector of its own gave: receive-cap
//! leftovers first (stepping re-queues them before anything is routed),
//! then routed mail in canonical sender order, then retransmissions
//! landing next round (the close-out sweep), then delayed arrivals (the
//! next `begin_round`). The buffers keep their capacity, so a round in
//! steady state allocates nothing for delivery, however its traffic is
//! spread over nodes; where a batch of known size lands (routing's
//! straight-line loop, a destination shard's merge, the sort's scratch)
//! they are reserved to exactly that batch, so each is sized to the
//! busiest round the run has had rather than to the next power of two.
//! Like the mailboxes, every buffer that outlives a round is a field of
//! the code that fills it: the serial path's routing bucket, the
//! sharded engine's per-shard buffers. Only the delay queue allocates
//! as it goes: one plain vector per arrival round, dropped once
//! delivered.
//!
//! # One kernel, one latency model
//!
//! A message staged in round `r` takes `lat ≥ 1` ticks, drawn from the
//! core's [`LatencyModel`] on the message's own counter-based axes
//! ([`LatencyModel::sample`]); it is checked against the fault plan at
//! `r + lat` and — if its counter-based [`fate`] lets it through —
//! arrives at `r + lat`. A retransmission is the same decision at a
//! later attempt number. That arithmetic is the whole network model. *The synchronous round of the paper is `const:1`*, the
//! default; under any other model the same kernel draws other
//! latencies, and nothing else about routing differs.
//!
//! [`route_shard`] is that kernel: one loop over a sender shard's staged
//! envelopes into per-destination-shard buckets, with
//! [`merge_dest_shard`] delivering a destination shard's buckets and
//! [`EngineCore::apply_route_deltas`] folding the shard-local
//! [`RouteDelta`]s back. Because every fate is a pure function of
//! `(seed, sender, round, send-sequence)`, routing one envelope never
//! advances state another envelope reads, so the shards can run on
//! independent workers — and the serial path
//! ([`EngineCore::route_batch`]) is the same three calls over one
//! whole-population shard, bit-identical by being the same code.
//!
//! One selection remains, made from the core's own state: a run under
//! `const:1` with no faults and no causal sampler has nothing
//! to decide per message, and [`EngineCore::route_batch`] delivers it
//! with a straight-line tally-and-push loop instead.

use crate::faults::{DropCause, FaultPlan};
use crate::id::NodeId;
use crate::latency::LatencyModel;
use crate::message::{Envelope, MessageCost};
use crate::metrics::{charge, NodeLane, RoundMetrics, RunMetrics};
use crate::node::{Inbox, Node, RoundContext, SuspectView};
use crate::rng;
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
    /// `mail[ends[i + 1]..ends[i]]`: runs lie in descending node order,
    /// and `ends[len]` is 0.
    ends: Vec<u32>,
}

impl<M> Default for Mailbox<M> {
    fn default() -> Self {
        Mailbox {
            mail: Vec::new(),
            dsts: Vec::new(),
            to: Vec::new(),
            ends: Vec::new(),
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

    /// Makes room for `additional` more envelopes, and no more: a batch
    /// of known size lands without the buffers doubling past it.
    fn reserve(&mut self, additional: usize) {
        reserve_exact_fresh(&mut self.mail, additional);
        reserve_exact_fresh(&mut self.dsts, additional);
    }

    /// Sorts the queued mail of the `len` nodes from `base` by
    /// destination — descending, so node `base`'s run ends the buffer —
    /// in arrival order within a destination: a stable counting sort,
    /// O(mail + len), that reads the destinations alone and then moves
    /// each envelope to its place in one swap.
    fn sort(&mut self, base: usize, len: usize) {
        let Mailbox {
            mail,
            dsts,
            to,
            ends,
        } = self;
        ends.clear();
        ends.resize(len + 1, 0);
        for &dst in dsts.iter() {
            ends[dst as usize - base] += 1;
        }
        // Now `ends[i]` is where node `base + i`'s mail starts, behind
        // every higher node's; placing it moves the mark to where it
        // ends.
        let mut start = 0;
        for end in ends[..len].iter_mut().rev() {
            let count = *end;
            *end = start;
            start += count;
        }
        to.clear();
        reserve_exact_fresh(to, dsts.len());
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

/// The mailbox of a core that was not split into shards: the one the
/// serial node loop and serial routing serve.
///
/// # Panics
///
/// Panics if there is more than one.
pub(crate) fn one_mailbox<M>(mailboxes: &mut [Mailbox<M>]) -> &mut Mailbox<M> {
    match mailboxes {
        [mailbox] => mailbox,
        _ => panic!(
            "the serial path serves one mailbox, not {}",
            mailboxes.len()
        ),
    }
}

/// Makes room in `buf` for exactly `additional` more items. An empty
/// buffer too small for them is freed before the new one is allocated,
/// so the allocator can place the new block where the old one was: a
/// `realloc` that cannot grow in place would hold the old block until it
/// had copied it, and the heap would grow past both. Over repeated runs
/// of `hm_lka_2p15_seq`, growing the mailbox through each new busiest
/// round that way cost up to 3 MiB of peak resident set.
fn reserve_exact_fresh<T>(buf: &mut Vec<T>, additional: usize) {
    if buf.is_empty() && buf.capacity() < additional {
        *buf = Vec::new();
    }
    buf.reserve_exact(additional);
}

/// The non-node state of a run: mailboxes, clock, metrics, faults,
/// causal tracing, and delivery policy. See the [module docs](self) for the
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
    /// What every transmission's latency is drawn from (`const:1` = the
    /// synchronous round).
    latency: LatencyModel,
    /// Messages awaiting a later delivery round, keyed by that round;
    /// a batch is dropped once delivered.
    delayed: std::collections::BTreeMap<u64, Vec<Envelope<M>>>,
    /// Retransmission policy (`None` = best-effort delivery).
    reliable: Option<RetryPolicy>,
    /// Dropped messages awaiting retransmission, keyed by resend round:
    /// the run's one timer, drained by [`retransmit_due`](Self::retransmit_due)
    /// at every round's close.
    retransmit_queue: std::collections::BTreeMap<u64, Vec<RetryEnvelope<M>>>,
    /// The serial path's one bucket and delayed list, kept across
    /// rounds so their allocations are reused.
    serial_bucket: Routed<M>,
    serial_delayed: Routed<M>,
}

/// The opt-in reliable-delivery policy: every dropped message is
/// retransmitted after a per-message timeout with capped exponential
/// backoff, up to a retry budget. Retransmissions are charged against
/// the message-complexity metrics like any other send (and tallied in
/// [`RoundMetrics::retransmissions`]), and their [`fate`]s come from a
/// dedicated counter-based stream, so enabling the
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

/// Decides the fate of one transmission — why it is dropped, or `None`
/// when it is delivered: a pure function of the message's identity
/// `(seed, src, orig_round, orig_seq)`, the transmission `attempt` (0
/// for the original send, counting retransmissions from 1) and the
/// delivery policy. It is the *single* source of routing randomness for
/// every engine (and for test oracles that recompute fates
/// independently).
///
/// The original send's coin comes from [`rng::message_route_rng`], a
/// retransmission's from [`rng::message_retry_rng`], so enabling
/// reliable delivery never perturbs a first attempt. A message whose
/// path is hard-`blocked` — crashed destination, active partition, or
/// adversarial suppression — is dropped without consuming any
/// randomness, so scheduling those faults never shifts the coins of any
/// unaffected message. The coin itself drops with `drop_probability`
/// and attributes to `coin_cause` ([`DropCause::Coin`] for the base
/// plan coin, [`DropCause::Link`] when the per-link loss overlay
/// supplied the probability); either way it is drawn from the same
/// per-message stream, so enabling the overlay never re-keys a fate. A
/// message under a fault-free policy is delivered without even
/// constructing a generator — the common case stays coin-free.
#[allow(clippy::too_many_arguments)]
pub fn fate(
    seed: u64,
    src: usize,
    orig_round: u64,
    orig_seq: u64,
    attempt: u32,
    blocked: Option<DropCause>,
    drop_probability: f64,
    coin_cause: DropCause,
) -> Option<DropCause> {
    if blocked.is_some() {
        return blocked;
    }
    let rng = || match attempt {
        0 => rng::message_route_rng(seed, src, orig_round, orig_seq),
        _ => rng::message_retry_rng(seed, src, orig_round, orig_seq, attempt),
    };
    (drop_probability > 0.0 && rng().random_bool(drop_probability)).then_some(coin_cause)
}

/// The per-round hoisted state every transmission is decided from: one
/// cheap boolean per fault family per message instead of repeated plan
/// queries, and a single definition of block precedence
/// (crash > partition > suppression), coin selection (link-loss overlay
/// over base coin) and the order of the draws
/// ([`transmit`](Self::transmit)), so neither a first send and a
/// retransmission nor two engines can drift on any of them.
#[derive(Clone, Copy)]
pub(crate) struct FaultGuards<'a> {
    seed: u64,
    latency: LatencyModel,
    faults: &'a FaultPlan,
    has_crashes: bool,
    has_partitions: bool,
    has_suppression: bool,
    has_link_loss: bool,
    base_p: f64,
}

impl<'a> FaultGuards<'a> {
    /// Hoists the plan's guard booleans and base drop probability, for a
    /// run under `seed` whose latencies `latency` draws.
    pub(crate) fn new(seed: u64, latency: LatencyModel, faults: &'a FaultPlan) -> Self {
        FaultGuards {
            seed,
            latency,
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
    fn blocked(
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
    fn coin(&self, src: usize, dst: usize) -> (f64, DropCause) {
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

    /// Decides one transmission from `src` to `dst` made in round `now`:
    /// attempt `attempt` of the message first sent in `orig_round` as
    /// its sender's `orig_seq`-th send. Draws the latency on the
    /// message's own axes, checks the path for a block at send and
    /// arrival, picks the coin, and returns the latency with the
    /// [`fate`]. A first send is attempt 0 with `now == orig_round`.
    ///
    /// # Panics
    ///
    /// Panics if the model draws a latency of 0 (an unvalidated model).
    #[inline]
    fn transmit(
        &self,
        src: usize,
        dst: usize,
        now: u64,
        orig_round: u64,
        orig_seq: u64,
        attempt: u32,
    ) -> (u64, Option<DropCause>) {
        let lat = self
            .latency
            .sample(self.seed, src, dst, orig_round, orig_seq, attempt);
        assert!(lat >= 1, "a delivery latency of 0 beats causality");
        // A node dead at the message's arrival tick never sees it.
        let blocked = self.blocked(src, dst, now, now + lat);
        let (drop_p, coin_cause) = self.coin(src, dst);
        let dropped = fate(
            self.seed, src, orig_round, orig_seq, attempt, blocked, drop_p, coin_cause,
        );
        (lat, dropped)
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
    /// What every transmission's latency is drawn from.
    pub latency: LatencyModel,
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
/// envelopes: a metrics row, provenance offers and parked retries.
/// Deltas fold associatively into the core's metrics, causal trace and
/// queues (via [`EngineCore::apply_route_deltas`]),
/// which is what lets routing run on independent workers without locks.
pub struct RouteDelta<M> {
    /// Messages/pointers/drops routed by this shard.
    pub row: RoundMetrics,
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
/// Each transmission's latency `lat` is drawn from `params.latency`
/// at `(seed, src, dst, round, sequence, attempt 0)`; see the
/// [module docs](self) for the arithmetic. Archive rounds are 1-based:
/// a message staged while the round counter reads `r` is the protocol's
/// round `sent = r + 1` send, processed by its receiver in round
/// `sent + lat`.
///
/// # Panics
///
/// Panics if any envelope addresses a node index `>= params.node_count`,
/// or if the model draws a latency of 0 (an unvalidated model).
pub fn route_shard<M: MessageCost>(
    params: RouteParams<'_>,
    staged: &mut Vec<Envelope<M>>,
    sent_base: usize,
    sent_lanes: &mut [NodeLane],
    buckets: &mut [Routed<M>],
) -> RouteDelta<M> {
    let mut delta = RouteDelta {
        row: RoundMetrics::default(),
        prov: Vec::new(),
        prov_sampled_out: 0,
        retries: Vec::new(),
    };
    let guards = FaultGuards::new(params.seed, params.latency, params.faults);
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
        let (lat, dropped) = guards.transmit(src, dst, round, round, sequence, 0);
        let lane = &mut sent_lanes[src - sent_base];
        lane.sent_messages += 1;
        lane.sent_pointers += pointers as u64;
        if let Some(cause) = dropped {
            charge(&mut delta.row.drops, cause);
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
                let delivered = sent + lat;
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
        buckets[dst / params.shard_len].push((lat - 1, env));
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
    mailbox.reserve(bucket_parts.iter().map(Vec::len).sum());
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
            causal: None,
            detect_schedule: Vec::new(),
            suspects: SuspectView::none(),
            next_detection: 0,
            receive_cap: None,
            latency: LatencyModel::UNIT,
            delayed: std::collections::BTreeMap::new(),
            reliable: None,
            retransmit_queue: std::collections::BTreeMap::new(),
            serial_bucket: Vec::new(),
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

    /// Attaches a causal knowledge-provenance trace (typically with the
    /// initially-known pairs already seeded). Like the recorder, it is
    /// strictly observational: sampling decisions come from their own
    /// counter-based stream ([`rng::prov_sample`]), so attaching or
    /// re-rating the trace never perturbs any message fate, on any
    /// engine or worker count.
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

    /// Draws every transmission's latency from `latency`, retransmission
    /// attempts included, on the message's own counter-based axes.
    ///
    /// # Panics
    ///
    /// Panics if the model's parameters are invalid (see
    /// [`LatencyModel::validate`]).
    pub fn set_latency(&mut self, latency: LatencyModel) {
        if let Err(err) = latency.validate() {
            panic!("invalid latency model: {err}");
        }
        self.latency = latency;
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
            let (_, batch) = self.delayed.pop_first().expect("nonempty");
            for env in batch {
                self.mailboxes[env.dst.index() / self.shard_len].push(env);
            }
        }
        round
    }

    /// The failure detector's current crash report: the same handle
    /// until a round in which the detector reports or retracts
    /// something.
    pub fn suspects(&self) -> &Arc<SuspectView> {
        &self.suspects
    }

    /// Routes a round's staged envelopes — canonical
    /// `(sender, send-sequence)` order, senders contiguous — on the
    /// calling thread, accounting every message in the metrics. The
    /// buffer is drained and left empty for reuse.
    ///
    /// This is the kernel at shard count 1: [`route_shard`] over one
    /// whole-population sender shard, [`merge_dest_shard`] into the one
    /// mailbox, [`apply_route_deltas`](Self::apply_route_deltas) — the
    /// sharded pipeline, so the serial and parallel paths are one
    /// function rather than two kept equal. When the core can see that no
    /// message has anything to decide — `const:1`, no faults, no causal
    /// sampler — every message is instead a straight-line
    /// tally-and-push: no coins, no draws, no branches on per-message
    /// state, no buckets.
    ///
    /// Dropped messages park in the retransmission queue (when reliable
    /// delivery is on) at `round + timeout`; the caller decides when to
    /// drain it via [`retransmit_due`](Self::retransmit_due).
    ///
    /// # Panics
    ///
    /// As [`route_shard`], and if the core was split into more than one
    /// shard ([`set_shard_len`](Self::set_shard_len)).
    pub fn route_batch(&mut self, staged: &mut Vec<Envelope<M>>) {
        let decided = self.latency == LatencyModel::UNIT
            && self.causal.is_none()
            && self.faults.is_fault_free();
        if decided {
            let mailbox = one_mailbox(&mut self.mailboxes);
            mailbox.reserve(staged.len());
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
            return;
        }
        let mut bucket = std::mem::take(&mut self.serial_bucket);
        let mut delayed = std::mem::take(&mut self.serial_delayed);
        let parts = self.route_parts();
        let buckets = std::slice::from_mut(&mut bucket);
        let mut delta = route_shard(parts.params, staged, 0, parts.node_lanes, buckets);
        merge_dest_shard(
            parts.params.round,
            0,
            buckets,
            one_mailbox(parts.mailboxes),
            parts.node_lanes,
            &mut delayed,
        );
        self.apply_route_deltas(
            std::slice::from_mut(&mut delta),
            std::slice::from_mut(&mut delayed),
        );
        self.serial_bucket = bucket;
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
                latency: self.latency,
                causal_ppm: self.causal.as_ref().map(CausalTrace::sample_ppm),
                reliable: self.reliable,
                node_count: self.node_count,
                shard_len: self.shard_len,
            },
            mailboxes: &mut self.mailboxes,
            node_lanes: lanes.nodes,
        }
    }

    /// Folds per-shard routing results back into the core: metric rows,
    /// provenance offers and parked retries from `deltas` (in shard
    /// order) and delayed deliveries from the merge phase (as
    /// `(arrival round, envelope)`, one list per destination shard, in
    /// shard order).
    ///
    /// Delayed lists are keyed into the delay queue; only per-destination
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
            lanes.row.drops = [lanes.row.drops, delta.row.drops].into_iter().sum();
            lanes.row.retransmissions += delta.row.retransmissions;
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
        for list in delayed_lists.iter_mut() {
            for (at, env) in list.drain(..) {
                self.delayed.entry(at).or_default().push(env);
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
    /// An attempt's latency is drawn from the core's model at
    /// `(seed, src, dst, orig_round, orig_seq, attempt)`, with the same
    /// arithmetic and the same [`fate`] as a first send (see the
    /// [module docs](self)), at the attempt's number.
    /// Attempts are charged like fresh sends (plus the
    /// `retransmissions` tally). A still-failing attempt re-parks the
    /// message with exponentially backed-off delay until the retry
    /// budget runs out; because crash and partition checks use the
    /// attempt's own round, a retransmission can land after its
    /// destination recovers or the partition heals.
    pub fn retransmit_due(&mut self) {
        let Some(policy) = self.reliable else {
            return;
        };
        let round = self.round;
        let guards = FaultGuards::new(self.seed, self.latency, &self.faults);
        let (mailboxes, shard_len) = (&mut self.mailboxes, self.shard_len);
        let delayed = &mut self.delayed;
        let queue = &mut self.retransmit_queue;
        let lanes = self.metrics.lanes();
        while queue.first_key_value().is_some_and(|(&at, _)| at <= round) {
            let (_, batch) = queue.pop_first().expect("nonempty");
            for retry in batch {
                let src = retry.env.src.index();
                let dst = retry.env.dst.index();
                let attempt = retry.attempts + 1;
                let (lat, dropped) =
                    guards.transmit(src, dst, round, retry.orig_round, retry.orig_seq, attempt);
                let pointers = retry.env.payload.pointers() as u64;
                lanes.row.retransmissions += 1;
                let lane = &mut lanes.nodes[src];
                lane.sent_messages += 1;
                lane.sent_pointers += pointers;
                if let Some(cause) = dropped {
                    charge(&mut lanes.row.drops, cause);
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
                    if lat == 1 {
                        mailboxes[dst / shard_len].push(retry.env);
                    } else {
                        delayed.entry(round + lat).or_default().push(retry.env);
                    }
                }
            }
        }
    }
}

/// The node loop of every engine: sorts `mailbox`, the mail of the
/// contiguous block of nodes whose first index is `base`, and steps
/// every node of the block on its run of it, read through an [`Inbox`]
/// straight out of the sorted buffer; sends are appended to `staged` in
/// `(node, send)` order. A serial engine passes the whole population; a
/// sharded engine one block per worker.
///
/// This is the single entry point through which every engine executes
/// protocol logic, so context construction — and thus the randomness a
/// node observes, its private per-`(seed, node, round)` stream derived
/// when it first asks — cannot differ between engines.
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
    let Mailbox { mail, ends, .. } = &mut *mailbox;
    for (offset, node) in nodes.iter_mut().enumerate() {
        // This node's run is the tail of what is left.
        let start = ends[offset + 1] as usize;
        let i = base + offset;
        if crashes_possible && ctx.faults.is_crashed_at(i, ctx.round) {
            // Crashed nodes neither run nor receive; their pending
            // deliveries are consumed and lost.
            mail.truncate(start);
            continue;
        }
        if let Some(cap) = ctx.receive_cap {
            if mail.len() - start > cap {
                held.extend(mail.drain(start + cap..));
            }
        }
        let id = NodeId::new(i as u32);
        node.on_round(
            Inbox(mail.drain(start..)),
            &mut RoundContext::new(id, ctx.round, ctx.seed, staged, ctx.suspects),
        );
    }
    debug_assert!(mail.is_empty(), "every run was read or dropped");
    for env in held.drain(..) {
        mailbox.push(env);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::faults::ChurnSpec;

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
        core.retransmit_due();
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
        // Runs lie highest node first, so node 10's would end the buffer.
        let mut mailbox = Mailbox::default();
        for (dst, payload) in [(13, 1), (11, 2), (13, 3), (11, 4), (13, 5)] {
            mailbox.push(env(0, dst, payload));
        }
        mailbox.sort(10, 4);
        assert_eq!(mailbox.ends, [5, 5, 3, 3, 0]);
        let sorted: Vec<u32> = mailbox.mail.iter().map(|e| e.payload).collect();
        assert_eq!(sorted, [1, 3, 5, 2, 4]);
    }

    /// Reads at most `reads` envelopes of each round's inbox (all of
    /// them when `None`) and records the payloads it read.
    struct Reader {
        reads: Option<usize>,
        heard: Vec<Vec<u32>>,
    }

    impl Reader {
        fn population(reads: &[Option<usize>]) -> Vec<Reader> {
            reads
                .iter()
                .map(|&reads| Reader {
                    reads,
                    heard: Vec::new(),
                })
                .collect()
        }
    }

    impl Node for Reader {
        type Msg = u32;

        fn on_round(&mut self, inbox: Inbox<'_, u32>, _: &mut RoundContext<'_, u32>) {
            let reads = self.reads.unwrap_or(usize::MAX);
            self.heard
                .push(inbox.take(reads).map(|e| e.payload).collect());
        }
    }

    /// Steps one round of `nodes` on the core's one mailbox, then routes
    /// `mail` for the next.
    fn step_round(core: &mut EngineCore<u32>, nodes: &mut [Reader], mut mail: Vec<Envelope<u32>>) {
        core.begin_round();
        let parts = core.route_parts();
        let (mut staged, mut held) = (Vec::new(), Vec::new());
        let mailbox = &mut parts.mailboxes[0];
        step_shard(parts.ctx, 0, nodes, mailbox, &mut staged, &mut held);
        assert!(staged.is_empty());
        core.route_batch(&mut mail);
        close_round(core);
    }

    /// Five envelopes each for nodes 0, 1 and 2, interleaved: node `d`'s
    /// are `10 * d + 1..=10 * d + 5`, in that order.
    fn interleaved() -> Vec<Envelope<u32>> {
        (1..=5)
            .flat_map(|k| (0..3).map(move |d| env(3, d, 10 * d + k)))
            .collect()
    }

    #[test]
    fn mail_a_node_leaves_unread_reaches_no_other_node() {
        // Node 1 reads none of its mail, then two of five: either way
        // node 0 before it and node 2 after it read exactly their own,
        // and nothing is handed out again next round.
        for reads in [0, 2] {
            let mut core: EngineCore<u32> = EngineCore::new(4, 1);
            let mut nodes = Reader::population(&[None, Some(reads), None, None]);
            step_round(&mut core, &mut nodes, interleaved());
            step_round(&mut core, &mut nodes, Vec::new());
            step_round(&mut core, &mut nodes, Vec::new());
            let heard: Vec<_> = nodes.iter().map(|n| n.heard.clone()).collect();
            let own = |d: u32, k: u32| (1..=k).map(|i| 10 * d + i).collect::<Vec<_>>();
            assert_eq!(heard[0], [vec![], own(0, 5), vec![]], "reads {reads}");
            assert_eq!(heard[1], [vec![], own(1, reads as u32), vec![]]);
            assert_eq!(heard[2], [vec![], own(2, 5), vec![]], "reads {reads}");
            assert_eq!(heard[3], [vec![], vec![], vec![]], "reads {reads}");
            assert!(core.mailboxes[0].mail.is_empty());
        }
    }

    #[test]
    fn held_back_mail_is_read_first_next_round_whatever_was_left_unread() {
        // Under a cap of two, node 1 is sent 1..=5 and then 6: what the
        // cap holds back comes ahead of 6, whether node 1 reads all it
        // is handed or one envelope a round.
        for (reads, expected) in [
            (
                None,
                vec![vec![], vec![1, 2], vec![3, 4], vec![5, 6], vec![]],
            ),
            (Some(1), vec![vec![], vec![1], vec![3], vec![5], vec![]]),
        ] {
            let mut core: EngineCore<u32> = EngineCore::new(3, 1);
            core.set_receive_cap(2);
            let mut nodes = Reader::population(&[None, reads, None]);
            step_round(
                &mut core,
                &mut nodes,
                (1..=5).map(|k| env(0, 1, k)).collect(),
            );
            step_round(&mut core, &mut nodes, vec![env(2, 1, 6)]);
            for _ in 0..3 {
                step_round(&mut core, &mut nodes, Vec::new());
            }
            assert_eq!(nodes[1].heard, expected, "reads {reads:?}");
            assert!(nodes[0]
                .heard
                .iter()
                .chain(&nodes[2].heard)
                .all(Vec::is_empty));
        }
    }

    #[test]
    fn a_crashed_node_s_run_is_dropped_unread() {
        // Node 1 is down for round 0 only: the mail queued for it then
        // is lost, its neighbours' is not, and it wakes to an empty
        // inbox.
        let mut core: EngineCore<u32> = EngineCore::new(3, 1);
        core.set_faults(FaultPlan::new().with_crash_at(1, 0).with_recovery_at(1, 1));
        for env in interleaved() {
            core.mailboxes[0].push(env);
        }
        let mut nodes = Reader::population(&[None, None, None]);
        step_round(&mut core, &mut nodes, Vec::new());
        step_round(&mut core, &mut nodes, Vec::new());
        assert_eq!(nodes[0].heard, [vec![1, 2, 3, 4, 5], vec![]]);
        assert_eq!(nodes[1].heard, [Vec::<u32>::new()], "stepped only once up");
        assert_eq!(nodes[2].heard, [vec![21, 22, 23, 24, 25], vec![]]);
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
            latency: LatencyModel::UNIT,
            causal_ppm: None,
            reliable: None,
            node_count: 2,
            shard_len: 2,
        };
        route_shard(
            params,
            &mut vec![env(0, 5, 1)],
            0,
            &mut [NodeLane::default(), NodeLane::default()],
            &mut [Vec::new()],
        );
    }

    #[test]
    fn fate_is_a_pure_function_of_its_inputs() {
        let first = |seq| fate(9, 1, 3, seq, 0, None, 0.5, DropCause::Coin);
        let retry = |attempt| fate(9, 1, 3, 0, attempt, None, 0.5, DropCause::Coin);
        assert_eq!(first(0), first(0));
        assert_eq!(first(7), first(7));
        assert_eq!(retry(1), retry(1));
        // A first send flips its route-stream coin, a retransmission
        // the retry stream's at its attempt number.
        for k in 0..128 {
            let coin = rng::message_route_rng(9, 1, 3, k).random_bool(0.5);
            assert_eq!(first(k).is_some(), coin, "send {k}");
            let attempt = k as u32 + 1;
            let coin = rng::message_retry_rng(9, 1, 3, 0, attempt).random_bool(0.5);
            assert_eq!(retry(attempt).is_some(), coin, "attempt {attempt}");
        }
        // A fault-free policy never drops.
        for attempt in [0, 1] {
            assert_eq!(fate(9, 1, 3, 0, attempt, None, 0.0, DropCause::Coin), None);
        }
        // A blocked path always drops with its cause, without consuming
        // coins.
        for cause in [
            DropCause::Crash,
            DropCause::Partition,
            DropCause::Suppression,
        ] {
            for attempt in [0, 1] {
                let blocked = fate(9, 1, 3, 0, attempt, Some(cause), 0.0, DropCause::Coin);
                assert_eq!(blocked, Some(cause));
            }
        }
        // The coin attributes to the caller-selected cause (the link
        // overlay substitutes `Link`) without changing the coin itself.
        for seq in 0..128 {
            let base = first(seq);
            let link = fate(9, 1, 3, seq, 0, None, 0.5, DropCause::Link);
            assert_eq!(base.is_some(), link.is_some(), "same coin, seq {seq}");
            if link.is_some() {
                assert_eq!(link, Some(DropCause::Link));
            }
        }
        // Fates vary across the sequence and attempt axes
        // (statistically: across 128 values at p = 0.5, both outcomes
        // must occur).
        let drops = (0..128).filter(|&s| first(s).is_some()).count();
        assert!(drops > 0 && drops < 128, "sequence axis ignored: {drops}");
        let drops = (1..=128).filter(|&a| retry(a).is_some()).count();
        assert!(drops > 0 && drops < 128, "attempt axis ignored: {drops}");
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
        let guards = FaultGuards::new(1, LatencyModel::UNIT, &plan);
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
        let guards = FaultGuards::new(1, LatencyModel::UNIT, &weak);
        assert_eq!(guards.coin(0, 1), (0.5, DropCause::Coin));
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
    fn route_in_shards(core: &mut EngineCore<u32>, staged: &[Envelope<u32>]) {
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

    /// One round of a causally sampled, reliable run — under
    /// drops, a crash and a partition when `faulty` — routed through
    /// `shards` sender shards under `latency`: the serial entry point
    /// for one shard, the shard/merge/apply calls a parallel engine
    /// makes for more.
    fn routed_in_shards(shards: usize, faulty: bool, latency: LatencyModel) -> EngineCore<u32> {
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
        core.set_latency(latency);
        core.set_causal(CausalTrace::new(1 << 10, 600_000));
        core.set_reliable(RetryPolicy::default());
        core.begin_round();
        if shards == 1 {
            core.route_batch(&mut staged);
        } else {
            route_in_shards(&mut core, &staged);
        }
        core
    }

    /// Directional links: upward sends take one tick, downward three.
    const ASYM: LatencyModel = LatencyModel::Asymmetric {
        forward: 1,
        backward: 3,
    };

    /// A heavy-tailed per-message latency of 1 to 6 ticks.
    const LOGNORMAL: LatencyModel = LatencyModel::LogNormal {
        mu_milli: 500,
        sigma_milli: 800,
        cap: 6,
    };

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

        fn on_round(&mut self, inbox: Inbox<'_, u32>, ctx: &mut RoundContext<'_, u32>) {
            let heard = inbox.map(|e| e.payload).collect();
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

    /// A multi-round delivery set-up: a receive cap, a fault plan,
    /// retransmissions and a latency model.
    struct Delivery {
        cap: Option<usize>,
        faults: FaultPlan,
        reliable: Option<RetryPolicy>,
        latency: LatencyModel,
    }

    /// Population and length of the multi-round oracle runs: eleven
    /// nodes, so two and three shards leave a short last one.
    const ORACLE_N: u32 = 11;
    const ORACLE_ROUNDS: u64 = 90;

    /// Per node, the payloads it was handed in each round it stepped.
    type Heard = Vec<Vec<(u64, Vec<u32>)>>;

    /// Where, after a round, the envelopes a run has counted in its
    /// `recv_messages` lanes are.
    #[derive(Debug, Default)]
    struct Ledger {
        /// Counted in a `recv_messages` lane so far.
        counted: u64,
        /// Handed to their node so far.
        handed: u64,
        /// Discarded so far at the step of a node that was down.
        discarded: u64,
        /// Still in a mailbox or the delay queue.
        queued: u64,
        /// Dropped messages parked for retransmission (never counted).
        parked: usize,
    }

    /// What every node was handed, round by round, when the core's
    /// mailboxes — split into `shards` — deliver; and the run's ledger
    /// after each round.
    fn heard_through_mailboxes(shards: usize, setup: &Delivery) -> (Heard, Vec<Ledger>) {
        let n = ORACLE_N as usize;
        let mut core: EngineCore<u32> = EngineCore::new(n, 5);
        core.set_shard_len(n.div_ceil(shards));
        core.set_faults(setup.faults.clone());
        core.set_latency(setup.latency);
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
        let (mut staged, mut held) = (Vec::new(), Vec::new());
        let (mut ledgers, mut discarded) = (Vec::new(), 0);
        for _ in 0..ORACLE_ROUNDS {
            let round = core.begin_round();
            let parts = core.route_parts();
            let shard_len = parts.params.shard_len;
            let blocks = nodes.chunks_mut(shard_len);
            for (w, (block, mailbox)) in blocks.zip(parts.mailboxes).enumerate() {
                let down = |e: &&Envelope<u32>| setup.faults.is_crashed_at(e.dst.index(), round);
                discarded += mailbox.mail.iter().filter(down).count() as u64;
                step_shard(
                    parts.ctx,
                    w * shard_len,
                    block,
                    mailbox,
                    &mut staged,
                    &mut held,
                );
            }
            // One shard takes the serial entry point, more the sharded
            // engine's calls.
            if shards == 1 {
                core.route_batch(&mut staged);
            } else {
                route_in_shards(&mut core, &staged);
                staged.clear();
            }
            core.retransmit_due();
            core.finish_round();
            let lanes = core.metrics().node_lanes();
            let mailed = core.mailboxes.iter().map(|m| m.mail.len());
            let delayed = core.delayed.values().map(Vec::len);
            ledgers.push(Ledger {
                counted: lanes.iter().map(|lane| lane.recv_messages).sum(),
                handed: nodes
                    .iter()
                    .flat_map(|node| &node.heard)
                    .map(|(_, mail)| mail.len() as u64)
                    .sum(),
                discarded,
                queued: mailed.chain(delayed).sum::<usize>() as u64,
                parked: core.retransmit_queue.values().map(Vec::len).sum(),
            });
        }
        let heard = nodes.into_iter().map(|node| node.heard).collect();
        (heard, ledgers)
    }

    /// The same, delivered the way the engines did before mailboxes were
    /// per shard: one vector per node, pushed onto as mail arrives, the
    /// oldest `cap` handed over and the rest kept. Routing, delay and
    /// retransmission are rebuilt here from the fault classifier and
    /// [`fate`], so the reference shares no delivery code with the core.
    fn heard_through_inboxes(setup: &Delivery) -> (Heard, usize) {
        type Parked = (Envelope<u32>, u64, u64, u32);
        let (n, seed) = (ORACLE_N as usize, 5);
        let guards = FaultGuards::new(seed, setup.latency, &setup.faults);
        let latency = |src, dst, round, sequence, attempt| {
            setup
                .latency
                .sample(seed, src, dst, round, sequence, attempt)
        };
        let mut inboxes = vec![Vec::new(); n];
        let mut delayed: std::collections::BTreeMap<u64, Vec<Envelope<u32>>> = Default::default();
        let mut parked: std::collections::BTreeMap<u64, Vec<Parked>> = Default::default();
        let mut nodes: Vec<Listener> = (0..n)
            .map(|_| Listener {
                n: ORACLE_N,
                heard: Vec::new(),
            })
            .collect();
        let mut staged = Vec::new();
        let none = SuspectView::none();
        let mut deferred = 0;
        for round in 0..ORACLE_ROUNDS {
            while let Some(entry) = delayed.first_entry().filter(|e| *e.key() <= round) {
                for env in entry.remove() {
                    inboxes[env.dst.index()].push(env);
                }
            }
            for (i, (node, queue)) in nodes.iter_mut().zip(&mut inboxes).enumerate() {
                if setup.faults.is_crashed_at(i, round) {
                    queue.clear();
                    continue;
                }
                let delivered = match setup.cap {
                    Some(cap) if queue.len() > cap => {
                        deferred += 1;
                        queue.drain(..cap)
                    }
                    _ => queue.drain(..),
                };
                let id = NodeId::new(i as u32);
                node.on_round(
                    Inbox(delivered),
                    &mut RoundContext::new(id, round, seed, &mut staged, &none),
                );
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
                let dropped = fate(seed, src, round, seq.1, 0, blocked, p, cause);
                match (dropped, setup.reliable) {
                    (Some(_), Some(policy)) => parked
                        .entry(round + policy.timeout)
                        .or_default()
                        .push((env, round, seq.1, 0)),
                    (Some(_), None) => {}
                    (None, _) if lat == 1 => inboxes[dst].push(env),
                    (None, _) => delayed.entry(round + lat).or_default().push(env),
                }
            }
            while let Some(entry) = parked.first_entry().filter(|e| *e.key() <= round) {
                let policy = setup.reliable.expect("only a reliable run parks");
                for (env, orig_round, orig_seq, attempts) in entry.remove() {
                    let (src, dst, attempt) = (env.src.index(), env.dst.index(), attempts + 1);
                    let lat = latency(src, dst, orig_round, orig_seq, attempt);
                    let blocked = guards.blocked(src, dst, round, round + lat);
                    let (p, cause) = guards.coin(src, dst);
                    let dropped = fate(seed, src, orig_round, orig_seq, attempt, blocked, p, cause);
                    if dropped.is_some() {
                        if attempt < policy.max_retries {
                            parked
                                .entry(round + policy.delay_after(attempt))
                                .or_default()
                                .push((env, orig_round, orig_seq, attempt));
                        }
                    } else if lat == 1 {
                        inboxes[dst].push(env);
                    } else {
                        delayed.entry(round + lat).or_default().push(env);
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
        // latency model): however the senders are sharded, mailboxes,
        // delay queue, metrics, causal edges and parked retries
        // agree — with no fault under `const:1`, and with drops, a crash
        // and a partition under a uniform, a directional and a
        // heavy-tailed latency.
        let axes = [
            ("fault-free", false, LatencyModel::UNIT),
            ("uniform", true, LatencyModel::Uniform { min: 1, max: 3 }),
            ("asym", true, ASYM),
            ("lognormal", true, LOGNORMAL),
        ];
        for (name, faulty, latency) in axes {
            let serial = routed_in_shards(1, faulty, latency);
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
                let sharded = routed_in_shards(shards, faulty, latency);
                let at = format!("{name}, {shards} shards");
                assert_eq!(serial.metrics(), sharded.metrics(), "{at}");
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
        for (name, setup) in delivery_setups() {
            let cap = setup.cap;
            let (expected, deferred) = heard_through_inboxes(&setup);
            assert_eq!(cap.is_some(), deferred > 0, "{name}: a cap that never bit");
            let delivered: usize = expected.iter().flatten().map(|(_, mail)| mail.len()).sum();
            assert!(delivered > 60, "{name}: only {delivered} deliveries");
            for shards in [1, 2, 3] {
                let (heard, _) = heard_through_mailboxes(shards, &setup);
                for (node, (got, want)) in heard.iter().zip(&expected).enumerate() {
                    assert_eq!(got, want, "{name}, {shards} shards, node {node}");
                }
            }
        }
    }

    /// The multi-round delivery set-ups, by name: none, a cap alone,
    /// and caps under churn or a partition with retransmissions and a
    /// uniform, a directional or a heavy-tailed latency.
    fn delivery_setups() -> Vec<(&'static str, Delivery)> {
        let churn = || {
            FaultPlan::new()
                .with_drop_probability(0.2)
                .with_crash_at(4, 3)
                .with_recovery_at(4, 9)
                .with_crash_at(0, 20)
                .with_recovery_at(0, 24)
        };
        let split = FaultPlan::new().with_partition([vec![0, 1, 2, 3, 4], vec![5, 6, 7]], 2, 7);
        let policy = Some(RetryPolicy {
            timeout: 1,
            max_retries: 6,
            max_backoff: 4,
        });
        let setup = |cap, faults, reliable, latency| Delivery {
            cap,
            faults,
            reliable,
            latency,
        };
        let unit = LatencyModel::UNIT;
        let uniform = LatencyModel::Uniform { min: 1, max: 3 };
        vec![
            ("fault-free", setup(None, FaultPlan::new(), None, unit)),
            ("capped", setup(Some(2), FaultPlan::new(), None, unit)),
            (
                "capped uniform churn",
                setup(Some(2), churn(), policy, uniform),
            ),
            ("cap 1 asym partition", setup(Some(1), split, policy, ASYM)),
            (
                "cap 3 lognormal churn",
                setup(Some(3), churn(), policy, LOGNORMAL),
            ),
        ]
    }

    #[test]
    fn every_counted_delivery_is_handed_discarded_or_queued() {
        // After every round, each envelope a `recv_messages` lane counts
        // is in exactly one place: handed to its node, discarded at the
        // step of a node that was down, or still in a mailbox or the
        // delay queue. At the end every queue is empty.
        for (name, setup) in delivery_setups() {
            for shards in [1, 2, 3] {
                let (_, ledgers) = heard_through_mailboxes(shards, &setup);
                for (round, l) in ledgers.iter().enumerate() {
                    assert_eq!(
                        l.counted,
                        l.handed + l.discarded + l.queued,
                        "{name}, {shards} shards, round {round}: {l:?}"
                    );
                }
                let last = ledgers.last().expect("the run has rounds");
                assert_eq!(
                    (last.queued, last.parked),
                    (0, 0),
                    "{name}, {shards} shards"
                );
                assert!(last.handed > 60, "{name}, {shards} shards: {last:?}");
                let crashes = setup.faults.has_crashes();
                assert_eq!(crashes, last.discarded > 0, "{name}, {shards} shards");
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

    /// The ordering defect of the detector schedule: in the round a
    /// node's retraction and its next report fall together, `Suspect`
    /// sorts first, pushes a second copy of the node, and the
    /// `Retract` that follows removes both — so a node napping
    /// through back-to-back cycles drops out of the suspect view while
    /// it is still down. Here every node is down for rounds 0..24, in
    /// four naps that each fill their 6-round cycle, and should be
    /// suspected from round 3 to round 26.
    #[test]
    #[ignore = "known defect: a report and a retraction of one node in one round drop it from the suspect view; un-ignore with the hm_churn golden re-pin"]
    fn a_node_down_across_back_to_back_naps_stays_suspected() {
        let mut core: EngineCore<u32> = EngineCore::new(4, 1);
        let churn = ChurnSpec::new(1, 0, 24, 6, 6, 1_000_000);
        core.set_faults(
            FaultPlan::new()
                .with_churn(churn)
                .with_crash_detection_after(3),
        );
        for round in 0..30 {
            core.begin_round();
            let expected: &[NodeId] = if (3..27).contains(&round) {
                &[0, 1, 2, 3].map(NodeId::new)
            } else {
                &[]
            };
            let mut suspected = core.suspects().list().to_vec();
            suspected.sort_unstable();
            assert_eq!(suspected, expected, "round {round}");
            core.finish_round();
        }
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
