#![warn(missing_docs)]

//! A sharded, multi-threaded execution engine for large discovery runs.
//!
//! [`ShardedEngine`] drives the same [`Node`] programs as the sequential
//! [`rd_sim::Engine`], at the same [`RoundEngine`] interface, but steps
//! nodes on several worker threads per round. The population is sharded
//! *statically by `NodeId`* into contiguous blocks — one block of nodes
//! and the matching block of mailboxes per worker — so workers need no
//! locks: each owns its slice of nodes and inboxes for the duration of
//! the stepping phase.
//!
//! # Determinism
//!
//! The engine is **bit-identical** to the sequential engine: same seed,
//! same nodes, same faults ⇒ same `RunOutcome`, same `RunMetrics`, same
//! trace, round for round. Three properties make this work:
//!
//! 1. *Node steps are order-independent.* Every node draws from a
//!    private per-`(seed, node, round)` random stream
//!    ([`rd_sim::rng::node_round_rng`]) and sees only its own inbox, so
//!    stepping nodes concurrently cannot change what any node computes.
//! 2. *Message fates are order-independent.* Drop and delay coins are a
//!    pure function of `(seed, sender, round, send-sequence)`
//!    ([`rd_sim::route_fate`]): routing one envelope never advances any
//!    stream another envelope reads, so routing order — and therefore
//!    worker count — cannot change any coin.
//! 3. *Deliveries merge in canonical `(sender, sequence)` order.* Each
//!    worker stages and routes its shard's sends in node-index order
//!    (each node's sends in send order) into per-destination-shard
//!    buckets; the merge phase processes, for every destination shard,
//!    the workers' buckets in worker (= sender shard) order. Because
//!    shards are contiguous index blocks, every mailbox receives its
//!    messages in exactly the global sender order the sequential engine
//!    produces.
//!
//! Round bookkeeping and the routing/accounting primitives are
//! inherited from [`EngineCore`] — the single accounting layer both
//! engines use, so metrics and fault semantics cannot drift between
//! them. Both the node-stepping phase and the routing phase are fanned
//! out across `crossbeam` scoped threads; shard-local routing results
//! ([`rd_sim::engine_core::RouteDelta`]) fold associatively back into
//! the core's metrics, trace, and delay queue.
//!
//! # Example
//!
//! ```
//! use rd_exec::ShardedEngine;
//! use rd_sim::{Engine, Envelope, MessageCost, Node, NodeId, RoundContext, RoundEngine};
//!
//! #[derive(Clone, Debug)]
//! struct Ping;
//! impl MessageCost for Ping {
//!     fn pointers(&self) -> usize { 0 }
//! }
//!
//! #[derive(Clone)]
//! struct Player { peer: NodeId, hits: u32 }
//! impl Node for Player {
//!     type Msg = Ping;
//!     fn on_round(
//!         &mut self,
//!         inbox: &mut Vec<Envelope<Ping>>,
//!         ctx: &mut RoundContext<'_, Ping>,
//!     ) {
//!         if ctx.round() == 0 && ctx.id() == NodeId::new(0) {
//!             ctx.send(self.peer, Ping);
//!         }
//!         for _ in inbox.drain(..) {
//!             self.hits += 1;
//!             if self.hits < 3 { ctx.send(self.peer, Ping); }
//!         }
//!     }
//! }
//!
//! let players = vec![
//!     Player { peer: NodeId::new(1), hits: 0 },
//!     Player { peer: NodeId::new(0), hits: 0 },
//! ];
//! let done = |nodes: &[Player]| nodes.iter().all(|p| p.hits >= 2);
//!
//! let mut sharded = ShardedEngine::new(players.clone(), 42, 2);
//! let mut sequential = Engine::new(players, 42);
//! assert_eq!(
//!     sharded.run_until(20, done),
//!     sequential.run_until(20, done),
//! );
//! assert_eq!(sharded.metrics(), sequential.metrics());
//! ```

use rd_obs::{CausalTrace, Phase, Recorder, SpanEvent};
use rd_sim::engine_core::{
    merge_dest_shard, route_shard, step_node, take_capped, EngineCore, RouteDelta, RouteParams,
};
use rd_sim::{
    round_obs, BufferPool, Envelope, FaultPlan, MessageCost, Node, RetryPolicy, RoundEngine,
    RunMetrics, RunOutcome, Trace,
};
use std::time::Instant;

/// Below this many staged messages per round, the per-destination merge
/// runs on the calling thread: spawning merge workers costs more than
/// the merge itself. (The *routing* fan-out has no such threshold — the
/// route workers exist anyway, and running every configuration through
/// the sharded route path keeps it continuously exercised by the
/// equivalence tests.)
const PARALLEL_MERGE_MIN_MESSAGES: usize = 4096;

/// The staged/scratch buffer pair one stepping worker owns for a round.
type ShardBufs<M> = (Vec<Envelope<M>>, Vec<Envelope<M>>);

/// Deliverable messages tagged with their extra delay, one bucket per
/// destination shard.
type RoutedBuckets<M> = Vec<Vec<(u64, Envelope<M>)>>;

/// A round engine that steps nodes on `workers` threads.
///
/// Construction and the builder knobs mirror [`rd_sim::Engine`]; see the
/// [crate docs](crate) for the sharding scheme and the determinism
/// argument.
pub struct ShardedEngine<N: Node> {
    nodes: Vec<N>,
    core: EngineCore<N::Msg>,
    workers: usize,
    /// Recycled staging/scratch buffers for the stepping phase.
    env_pool: BufferPool<Envelope<N::Msg>>,
    /// Recycled bucket/delay buffers for the routing phase.
    routed_pool: BufferPool<(u64, Envelope<N::Msg>)>,
    /// The attached telemetry recorder, if observability is enabled.
    /// Strictly outside deterministic state: wall-clock flows *into* it,
    /// never back into the run.
    obs: Option<Recorder>,
}

impl<N> ShardedEngine<N>
where
    N: Node + Send,
    N::Msg: Send,
{
    /// Creates an engine over `nodes` with the given worker-thread
    /// count, where node `i` has identifier `NodeId::new(i)`. `seed`
    /// determines all protocol and fault randomness, exactly as in the
    /// sequential engine.
    ///
    /// # Panics
    ///
    /// Panics if `workers == 0`.
    pub fn new(nodes: Vec<N>, seed: u64, workers: usize) -> Self {
        assert!(workers > 0, "a sharded engine needs at least one worker");
        let core = EngineCore::new(nodes.len(), seed);
        ShardedEngine {
            nodes,
            core,
            workers,
            env_pool: BufferPool::new(),
            routed_pool: BufferPool::new(),
            obs: None,
        }
    }

    /// Attaches a telemetry [`Recorder`]: phases are timed per worker,
    /// rounds are recorded, and attached sinks export at run end.
    /// Purely observational — a run with a recorder is bit-identical to
    /// the same run without one, for every worker count.
    pub fn with_obs(mut self, mut recorder: Recorder) -> Self {
        // One-time message-cost registration: the profiler attributes
        // per-kind byte costs at finish from these constants plus the
        // deterministic round counters (no-op unless profiling is on).
        recorder.profile_msg_kind(
            rd_sim::short_type_name::<N::Msg>(),
            std::mem::size_of::<Envelope<N::Msg>>() as u64,
            std::mem::size_of::<rd_sim::NodeId>() as u64,
        );
        self.obs = Some(recorder);
        self
    }

    /// Installs a fault plan (drops, crashes).
    ///
    /// # Panics
    ///
    /// Panics if the plan crashes a node index that does not exist.
    pub fn with_faults(mut self, faults: FaultPlan) -> Self {
        self.core.set_faults(faults);
        self
    }

    /// Enables message tracing with the given event capacity.
    pub fn with_trace(mut self, capacity: usize) -> Self {
        self.core.enable_trace(capacity);
        self
    }

    /// Attaches a causal knowledge-provenance trace, exactly as in the
    /// sequential engine: sampling is counter-based and offers fold in
    /// canonical shard order, so the retained DAG is byte-identical for
    /// every worker count — and attaching it never perturbs the run.
    pub fn with_causal_trace(mut self, causal: CausalTrace) -> Self {
        self.core.set_causal(causal);
        self
    }

    /// Caps deliveries at `cap` messages per node per round; excess
    /// messages queue (in arrival order) for later rounds.
    ///
    /// # Panics
    ///
    /// Panics if `cap == 0`.
    pub fn with_receive_cap(mut self, cap: usize) -> Self {
        self.core.set_receive_cap(cap);
        self
    }

    /// Makes delivery asynchronous: every message independently takes
    /// `1 + U{0..=max_extra}` rounds to arrive instead of exactly one.
    pub fn with_max_extra_delay(mut self, max_extra: u64) -> Self {
        self.core.set_max_extra_delay(max_extra);
        self
    }

    /// Enables reliable delivery: every dropped message is
    /// retransmitted under `policy`, exactly as in the sequential
    /// engine (retransmissions are processed serially at round close,
    /// so they stay bit-identical across worker counts).
    ///
    /// # Panics
    ///
    /// Panics if the policy's timeout or retry budget is 0.
    pub fn with_reliable_delivery(mut self, policy: RetryPolicy) -> Self {
        self.core.set_reliable(policy);
        self
    }

    /// Number of nodes.
    pub fn node_count(&self) -> usize {
        self.nodes.len()
    }

    /// The configured worker-thread count.
    pub fn workers(&self) -> usize {
        self.workers
    }

    /// Read access to the node programs.
    pub fn nodes(&self) -> &[N] {
        &self.nodes
    }

    /// Rounds executed so far.
    pub fn round(&self) -> u64 {
        self.core.round()
    }

    /// The complexity record.
    pub fn metrics(&self) -> &RunMetrics {
        self.core.metrics()
    }

    /// The message trace, if enabled.
    pub fn trace(&self) -> Option<&Trace> {
        self.core.trace()
    }

    /// The causal provenance trace, if enabled.
    pub fn causal(&self) -> Option<&CausalTrace> {
        self.core.causal()
    }

    /// Records the closed round into the recorder, if one is attached.
    fn observe_round_end(&mut self, round: u64, t_finish: Option<Instant>) {
        if let Some(rec) = &mut self.obs {
            rec.span_from(Phase::FinishRound, round, 0, t_finish.unwrap());
            // Under profiling, the recorder's own round-close
            // bookkeeping is timed as a `Telemetry` span so the
            // profiler's self-cost shows up in the attribution instead
            // of inflating the unattributed remainder.
            let t_tel = rec.profiling_enabled().then(Instant::now);
            let row = *self
                .core
                .metrics()
                .rounds()
                .last()
                .expect("finish_round closed a row");
            rec.end_round(round_obs(round, &row));
            if let Some(t) = t_tel {
                rec.span_from(Phase::Telemetry, round, 0, t);
            }
        }
    }

    /// Executes one synchronous round; see the [crate docs](crate) for
    /// the three phases and which of them run in parallel.
    pub fn step(&mut self) {
        if let Some(rec) = &mut self.obs {
            rec.begin_round();
        }
        let t_begin = self.obs.as_ref().map(|_| Instant::now());
        let round = self.core.begin_round();
        if let Some(rec) = &mut self.obs {
            rec.span_from(Phase::BeginRound, round, 0, t_begin.unwrap());
        }
        let suspects = self.core.suspects().clone();
        let n = self.nodes.len();
        // Contiguous blocks of ⌈n / workers⌉ nodes; the final shard may
        // be short. A worker without nodes is never spawned.
        let workers = self.workers.min(n).max(1);
        let shard_len = n.div_ceil(workers).max(1);

        if workers == 1 {
            // One worker degenerates to the sequential loop; skip the
            // thread machinery (and its overhead) entirely.
            let mut staged = self.env_pool.take();
            let mut scratch = self.env_pool.take();
            let t_step = self.obs.as_ref().map(|_| Instant::now());
            let state = self.core.step_state();
            let crashes_possible = state.faults.has_crashes();
            for (i, node) in self.nodes.iter_mut().enumerate() {
                if crashes_possible && state.faults.is_crashed_at(i, round) {
                    // Crashed nodes neither run nor receive; their
                    // pending deliveries are consumed and lost.
                    state.inboxes[i].clear();
                    continue;
                }
                let inbox = take_capped(&mut state.inboxes[i], &mut scratch, state.receive_cap);
                step_node(node, i, round, state.seed, &suspects, inbox, &mut staged);
            }
            if let Some(rec) = &mut self.obs {
                rec.span_from(Phase::OnRound, round, 0, t_step.unwrap());
            }
            let t_route = self.obs.as_ref().map(|_| Instant::now());
            self.core.route_batch(&mut staged);
            if let Some(rec) = &mut self.obs {
                rec.span_from(Phase::RouteShard, round, 0, t_route.unwrap());
            }
            self.env_pool.put(staged);
            self.env_pool.put(scratch);
            let t_finish = self.obs.as_ref().map(|_| Instant::now());
            self.core.finish_round();
            self.observe_round_end(round, t_finish);
            return;
        }

        let shard_count = n.div_ceil(shard_len);
        let mut bufs: Vec<ShardBufs<N::Msg>> = (0..shard_count)
            .map(|_| (self.env_pool.take(), self.env_pool.take()))
            .collect();

        // Workers time their own stepping slice against the recorder's
        // shared epoch (`Instant` is `Copy + Send`); the spans fold back
        // in shard order after the join, so telemetry never races.
        let epoch = self.obs.as_ref().map(|rec| rec.epoch());
        let state = self.core.step_state();
        let step_spans = {
            let faults = state.faults;
            let crashes_possible = faults.has_crashes();
            let seed = state.seed;
            let cap = state.receive_cap;
            let suspects = &suspects;
            let node_shards = self.nodes.chunks_mut(shard_len);
            let inbox_shards = state.inboxes.chunks_mut(shard_len);
            let stepped = crossbeam::thread::scope(|scope| {
                let handles: Vec<_> = node_shards
                    .zip(inbox_shards)
                    .zip(bufs.iter_mut())
                    .enumerate()
                    .map(|(shard, ((nodes, inboxes), (staged, scratch)))| {
                        scope.spawn(move |_| {
                            let start = epoch.map(|_| Instant::now());
                            for (offset, node) in nodes.iter_mut().enumerate() {
                                let i = shard * shard_len + offset;
                                if crashes_possible && faults.is_crashed_at(i, round) {
                                    inboxes[offset].clear();
                                    continue;
                                }
                                let inbox = take_capped(&mut inboxes[offset], scratch, cap);
                                step_node(node, i, round, seed, suspects, inbox, staged);
                            }
                            epoch.map(|e| {
                                SpanEvent::from_instants(
                                    e,
                                    Phase::OnRound,
                                    round,
                                    shard as u32,
                                    start.unwrap(),
                                    Instant::now(),
                                )
                            })
                        })
                    })
                    .collect();
                // Join in shard order. A panicking node program panics
                // the engine, exactly as in the sequential engine.
                let mut spans = Vec::new();
                for handle in handles {
                    match handle.join() {
                        Ok(Some(span)) => spans.push(span),
                        Ok(None) => {}
                        Err(payload) => std::panic::resume_unwind(payload),
                    }
                }
                spans
            });
            match stepped {
                Ok(spans) => spans,
                Err(payload) => std::panic::resume_unwind(payload),
            }
        };
        if let Some(rec) = &mut self.obs {
            for span in step_spans {
                rec.record_span(span);
            }
        }

        let mut staged_shards: Vec<Vec<Envelope<N::Msg>>> = Vec::with_capacity(shard_count);
        for (staged, scratch) in bufs {
            self.env_pool.put(scratch);
            staged_shards.push(staged);
        }

        route_staged(
            &mut self.core,
            &mut staged_shards,
            shard_len,
            &mut self.routed_pool,
            self.obs.as_mut(),
        );
        for staged in staged_shards {
            self.env_pool.put(staged);
        }
        let t_finish = self.obs.as_ref().map(|_| Instant::now());
        self.core.finish_round();
        self.observe_round_end(round, t_finish);
    }

    /// Runs until `done(nodes)` holds (checked before the first round and
    /// after every round) or `max_rounds` have executed.
    pub fn run_until(&mut self, max_rounds: u64, done: impl FnMut(&[N]) -> bool) -> RunOutcome {
        RoundEngine::run_until(self, max_rounds, done)
    }

    /// Like [`run_until`](Self::run_until), additionally invoking
    /// `observe(round, nodes)` after every round.
    pub fn run_observed(
        &mut self,
        max_rounds: u64,
        done: impl FnMut(&[N]) -> bool,
        observe: impl FnMut(u64, &[N]),
    ) -> RunOutcome {
        RoundEngine::run_observed(self, max_rounds, done, observe)
    }
}

/// Routes one round's staged envelopes — one buffer per sender shard,
/// shard order, each in canonical `(sender, send-sequence)` order —
/// through the parallel shard/route/merge pipeline into `core`.
///
/// With a single shard this degenerates to the serial
/// [`EngineCore::route_batch`]. Otherwise every sender shard is routed
/// on its own thread into per-destination-shard buckets
/// ([`route_shard`]), the buckets are merged per destination shard
/// ([`merge_dest_shard`] — in parallel too, once the round carries
/// enough messages to pay for the spawns), and the shard-local deltas
/// fold back into the core. Bit-identical to the serial path for every
/// shard count; the staged buffers are drained and left empty for
/// reuse.
///
/// Public so the routing micro-benchmark can drive the exact pipeline
/// the engine uses.
///
/// When a [`Recorder`] is passed, every route worker and merge job
/// times itself against the recorder's epoch ([`Phase::RouteShard`] and
/// [`Phase::MergeDestShard`] spans, one per shard), and the serial
/// delta fold is timed as [`Phase::ApplyDeltas`]. Telemetry is folded
/// back only after the joins, in shard order, so it cannot perturb the
/// run.
///
/// # Panics
///
/// Panics if any envelope addresses a node that does not exist.
pub fn route_staged<M: MessageCost + Send>(
    core: &mut EngineCore<M>,
    staged_shards: &mut [Vec<Envelope<M>>],
    shard_len: usize,
    routed_pool: &mut BufferPool<(u64, Envelope<M>)>,
    mut obs: Option<&mut Recorder>,
) {
    if staged_shards.len() <= 1 {
        if let Some(staged) = staged_shards.first_mut() {
            let round = core.round();
            let start = obs.as_ref().map(|_| Instant::now());
            core.route_batch(staged);
            if let Some(rec) = obs {
                rec.span_from(Phase::RouteShard, round, 0, start.unwrap());
            }
        }
        return;
    }
    let epoch = obs.as_ref().map(|rec| rec.epoch());
    let shard_count = staged_shards.len();
    let total_messages: usize = staged_shards.iter().map(Vec::len).sum();
    let mut bucket_sets: Vec<RoutedBuckets<M>> = (0..shard_count)
        .map(|_| (0..shard_count).map(|_| routed_pool.take()).collect())
        .collect();
    let mut delayed_lists: Vec<Vec<(u64, Envelope<M>)>> =
        (0..shard_count).map(|_| routed_pool.take()).collect();

    let parts = core.parallel_parts();
    let params = RouteParams {
        seed: parts.seed,
        round: parts.round,
        faults: parts.faults,
        max_extra_delay: parts.max_extra_delay,
        trace_capacity: parts.trace_capacity,
        causal_ppm: parts.causal_ppm,
        reliable: parts.reliable,
        node_count: parts.inboxes.len(),
        shard_len,
    };
    let round = params.round;

    // Route phase: one worker per sender shard, each writing only its
    // own shard's sent-tally lanes and its own destination buckets.
    let (mut deltas, route_spans): (Vec<RouteDelta<M>>, Vec<SpanEvent>) = {
        let sent_lanes = parts.node_lanes.chunks_mut(shard_len);
        let routed = crossbeam::thread::scope(|scope| {
            let handles: Vec<_> = staged_shards
                .iter_mut()
                .zip(sent_lanes)
                .zip(bucket_sets.drain(..))
                .enumerate()
                .map(|(w, ((staged, sent_lanes), buckets))| {
                    scope.spawn(move |_| {
                        let start = epoch.map(|_| Instant::now());
                        let delta = route_shard(params, staged, w * shard_len, sent_lanes, buckets);
                        let span = epoch.map(|e| {
                            SpanEvent::from_instants(
                                e,
                                Phase::RouteShard,
                                round,
                                w as u32,
                                start.unwrap(),
                                Instant::now(),
                            )
                        });
                        (delta, span)
                    })
                })
                .collect();
            let mut deltas = Vec::with_capacity(handles.len());
            let mut spans = Vec::new();
            for handle in handles {
                match handle.join() {
                    Ok((delta, span)) => {
                        deltas.push(delta);
                        spans.extend(span);
                    }
                    Err(payload) => std::panic::resume_unwind(payload),
                }
            }
            (deltas, spans)
        });
        match routed {
            Ok(out) => out,
            Err(payload) => std::panic::resume_unwind(payload),
        }
    };
    if let Some(rec) = obs.as_deref_mut() {
        for span in route_spans {
            rec.record_span(span);
        }
    }

    // Transpose: per destination shard, the per-worker bucket parts in
    // worker (= sender shard) order.
    let mut per_dest: Vec<RoutedBuckets<M>> = (0..shard_count)
        .map(|_| Vec::with_capacity(shard_count))
        .collect();
    for delta in &mut deltas {
        for (d, bucket) in delta.buckets.drain(..).enumerate() {
            per_dest[d].push(bucket);
        }
    }

    // Merge phase: one job per destination shard, each owning its
    // shard's mailboxes and recv-tally lanes.
    {
        let merge_jobs = parts
            .inboxes
            .chunks_mut(shard_len)
            .zip(parts.node_lanes.chunks_mut(shard_len))
            .zip(per_dest.iter_mut().zip(delayed_lists.iter_mut()))
            .enumerate();
        let merge_spans: Vec<SpanEvent> = if total_messages >= PARALLEL_MERGE_MIN_MESSAGES {
            let merged = crossbeam::thread::scope(|scope| {
                let handles: Vec<_> = merge_jobs
                    .map(|(d, ((inboxes, recv_lanes), (parts_d, delayed)))| {
                        scope.spawn(move |_| {
                            let start = epoch.map(|_| Instant::now());
                            merge_dest_shard(
                                round,
                                d * shard_len,
                                parts_d,
                                inboxes,
                                recv_lanes,
                                delayed,
                            );
                            epoch.map(|e| {
                                SpanEvent::from_instants(
                                    e,
                                    Phase::MergeDestShard,
                                    round,
                                    d as u32,
                                    start.unwrap(),
                                    Instant::now(),
                                )
                            })
                        })
                    })
                    .collect();
                let mut spans = Vec::new();
                for handle in handles {
                    match handle.join() {
                        Ok(span) => spans.extend(span),
                        Err(payload) => std::panic::resume_unwind(payload),
                    }
                }
                spans
            });
            match merged {
                Ok(spans) => spans,
                Err(payload) => std::panic::resume_unwind(payload),
            }
        } else {
            let mut spans = Vec::new();
            for (d, ((inboxes, recv_lanes), (parts_d, delayed))) in merge_jobs {
                let start = epoch.map(|_| Instant::now());
                merge_dest_shard(round, d * shard_len, parts_d, inboxes, recv_lanes, delayed);
                if let Some(e) = epoch {
                    spans.push(SpanEvent::from_instants(
                        e,
                        Phase::MergeDestShard,
                        round,
                        d as u32,
                        start.unwrap(),
                        Instant::now(),
                    ));
                }
            }
            spans
        };
        if let Some(rec) = obs.as_deref_mut() {
            for span in merge_spans {
                rec.record_span(span);
            }
        }
    }

    let t_apply = obs.as_ref().map(|_| Instant::now());
    core.apply_route_deltas(&mut deltas, &mut delayed_lists);
    if let Some(rec) = obs {
        rec.span_from(Phase::ApplyDeltas, round, 0, t_apply.unwrap());
    }
    for set in per_dest {
        for bucket in set {
            routed_pool.put(bucket);
        }
    }
    for list in delayed_lists {
        routed_pool.put(list);
    }
}

impl<N> RoundEngine<N> for ShardedEngine<N>
where
    N: Node + Send,
    N::Msg: Send,
{
    fn step(&mut self) {
        ShardedEngine::step(self)
    }

    fn nodes(&self) -> &[N] {
        ShardedEngine::nodes(self)
    }

    fn round(&self) -> u64 {
        ShardedEngine::round(self)
    }

    fn metrics(&self) -> &RunMetrics {
        ShardedEngine::metrics(self)
    }

    fn trace(&self) -> Option<&Trace> {
        ShardedEngine::trace(self)
    }

    fn causal(&self) -> Option<&CausalTrace> {
        self.core.causal()
    }

    fn take_causal(&mut self) -> Option<CausalTrace> {
        self.core.take_causal()
    }

    fn obs_mut(&mut self) -> Option<&mut Recorder> {
        self.obs.as_mut()
    }

    fn take_obs(&mut self) -> Option<Recorder> {
        self.obs.take()
    }

    fn pool_counters(&self) -> Vec<(&'static str, u64, u64)> {
        let delay = self.core.pool_stats();
        let env = self.env_pool.stats();
        let routed = self.routed_pool.stats();
        vec![
            ("delay", delay.takes, delay.reuses),
            ("env", env.takes, env.reuses),
            ("routed", routed.takes, routed.reuses),
        ]
    }

    fn pool_high_water(&self) -> Vec<(&'static str, u64)> {
        vec![
            ("delay", self.core.pool_high_water_bytes()),
            ("env", self.env_pool.high_water_bytes()),
            ("routed", self.routed_pool.high_water_bytes()),
        ]
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rd_sim::{Engine, MessageCost, NodeId, RoundContext};

    /// Gossip probe exercising every determinism-sensitive surface:
    /// randomness, fan-out, and inbox contents.
    #[derive(Clone, Debug, PartialEq)]
    struct Gossiper {
        n: u32,
        heard: Vec<NodeId>,
    }

    #[derive(Clone, Debug, PartialEq, Eq)]
    struct Rumor(Vec<NodeId>);
    impl MessageCost for Rumor {
        fn pointers(&self) -> usize {
            self.0.len()
        }
    }

    impl Node for Gossiper {
        type Msg = Rumor;
        fn on_round(
            &mut self,
            inbox: &mut Vec<Envelope<Rumor>>,
            ctx: &mut RoundContext<'_, Rumor>,
        ) {
            use rand::Rng;
            for env in inbox.drain(..) {
                self.heard.push(env.src);
                self.heard.extend(env.payload.0);
            }
            // Two random contacts per round, avoiding self-sends.
            for _ in 0..2 {
                let dst = NodeId::new(ctx.rng().random_range(0..self.n));
                if dst != ctx.id() {
                    ctx.send(dst, Rumor(self.heard.clone()));
                }
            }
            self.heard.truncate(8);
        }
    }

    fn gossipers(n: u32) -> Vec<Gossiper> {
        (0..n)
            .map(|_| Gossiper {
                n,
                heard: Vec::new(),
            })
            .collect()
    }

    fn states(nodes: &[Gossiper]) -> Vec<Gossiper> {
        nodes.to_vec()
    }

    /// Runs both engines for `rounds` rounds under the same plan and
    /// asserts identical nodes, metrics, and traces.
    fn assert_engines_agree(
        n: u32,
        seed: u64,
        workers: usize,
        rounds: u64,
        configure: impl Fn(Engine<Gossiper>) -> Engine<Gossiper>,
        configure_sharded: impl Fn(ShardedEngine<Gossiper>) -> ShardedEngine<Gossiper>,
    ) {
        let mut seq = configure(Engine::new(gossipers(n), seed).with_trace(1 << 14));
        let mut par =
            configure_sharded(ShardedEngine::new(gossipers(n), seed, workers).with_trace(1 << 14));
        for _ in 0..rounds {
            seq.step();
            par.step();
        }
        assert_eq!(states(seq.nodes()), states(par.nodes()));
        assert_eq!(seq.metrics(), par.metrics());
        assert_eq!(seq.trace().unwrap().events(), par.trace().unwrap().events());
    }

    #[test]
    fn matches_sequential_engine_exactly() {
        for workers in [1, 2, 3, 8] {
            assert_engines_agree(23, 7, workers, 12, |e| e, |e| e);
        }
    }

    #[test]
    fn matches_under_faults_and_detection() {
        let plan = || {
            FaultPlan::new()
                .with_crashes([3])
                .with_crash_at(11, 4)
                .with_drop_probability(0.2)
                .with_crash_detection_after(2)
        };
        assert_engines_agree(
            19,
            5,
            4,
            15,
            |e| e.with_faults(plan()),
            |e| e.with_faults(plan()),
        );
    }

    #[test]
    fn matches_under_churn_with_reliable_delivery() {
        // Crash-recovery, a partition window, drops, detection, and the
        // retransmission layer all at once — the full adversarial
        // schedule must stay bit-identical across worker counts.
        let plan = || {
            FaultPlan::new()
                .with_crash_at(3, 2)
                .with_recovery_at(3, 7)
                .with_crashes([14])
                .with_drop_probability(0.15)
                .with_partition([vec![0, 1, 2, 3, 4], vec![10, 11, 12]], 3, 8)
                .with_crash_detection_after(2)
        };
        let policy = RetryPolicy {
            timeout: 1,
            max_retries: 4,
            max_backoff: 4,
        };
        for workers in [2, 5] {
            assert_engines_agree(
                19,
                13,
                workers,
                18,
                |e| e.with_faults(plan()).with_reliable_delivery(policy),
                |e| e.with_faults(plan()).with_reliable_delivery(policy),
            );
        }
    }

    #[test]
    fn matches_under_receive_cap_and_delay() {
        assert_engines_agree(
            17,
            9,
            3,
            15,
            |e| e.with_receive_cap(2).with_max_extra_delay(3),
            |e| e.with_receive_cap(2).with_max_extra_delay(3),
        );
    }

    #[test]
    fn more_workers_than_nodes_is_fine() {
        assert_engines_agree(3, 1, 16, 6, |e| e, |e| e);
    }

    /// High-fan-out probe: enough traffic per round to cross
    /// `PARALLEL_MERGE_MIN_MESSAGES`, so the threaded merge path (not
    /// just its serial fallback) is pinned against the sequential
    /// engine — including delayed deliveries and drops.
    #[derive(Clone, Debug, PartialEq)]
    struct Spammer {
        n: u32,
        received: u64,
    }

    impl Node for Spammer {
        type Msg = Rumor;
        fn on_round(
            &mut self,
            inbox: &mut Vec<Envelope<Rumor>>,
            ctx: &mut RoundContext<'_, Rumor>,
        ) {
            self.received += inbox.len() as u64;
            inbox.clear();
            let me = u32::from(ctx.id());
            for k in 0..200u32 {
                let dst = NodeId::new((me + 1 + k % (self.n - 1)) % self.n);
                if dst != ctx.id() {
                    ctx.send(dst, Rumor(vec![ctx.id()]));
                }
            }
        }
    }

    #[test]
    fn parallel_merge_is_bit_identical_above_threshold() {
        let n = 32u32;
        let spammers = || -> Vec<Spammer> { (0..n).map(|_| Spammer { n, received: 0 }).collect() };
        assert!(
            (n as usize) * 200 >= super::PARALLEL_MERGE_MIN_MESSAGES,
            "workload must cross the parallel-merge threshold"
        );
        let plan = || {
            FaultPlan::new()
                .with_drop_probability(0.1)
                .with_crash_at(5, 2)
        };
        let mut seq = Engine::new(spammers(), 11)
            .with_faults(plan())
            .with_max_extra_delay(2)
            .with_trace(1 << 12);
        let mut par = ShardedEngine::new(spammers(), 11, 4)
            .with_faults(plan())
            .with_max_extra_delay(2)
            .with_trace(1 << 12);
        for _ in 0..6 {
            seq.step();
            par.step();
        }
        assert_eq!(seq.nodes().to_vec(), par.nodes().to_vec());
        assert_eq!(seq.metrics(), par.metrics());
        assert_eq!(seq.trace().unwrap().events(), par.trace().unwrap().events());
        assert_eq!(
            seq.trace().unwrap().overflow(),
            par.trace().unwrap().overflow()
        );
    }

    #[test]
    fn run_until_agrees_on_outcome() {
        let done = |nodes: &[Gossiper]| nodes.iter().all(|g| !g.heard.is_empty());
        let mut seq = Engine::new(gossipers(32), 2);
        let mut par = ShardedEngine::new(gossipers(32), 2, 4);
        assert_eq!(seq.run_until(64, done), par.run_until(64, done));
        assert_eq!(seq.metrics(), par.metrics());
    }

    #[test]
    #[should_panic(expected = "at least one worker")]
    fn zero_workers_rejected() {
        let _ = ShardedEngine::new(gossipers(4), 1, 0);
    }

    #[test]
    fn empty_population_steps_harmlessly() {
        let mut engine = ShardedEngine::new(Vec::<Gossiper>::new(), 1, 4);
        engine.step();
        assert_eq!(engine.round(), 1);
    }
}
