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
//! Nothing here is a second implementation. The round protocol,
//! builders and accessors are [`RoundShell`] and [`RoundEngine`]; the
//! node loop a worker runs is [`step_shard`], the one the sequential
//! engine runs over the whole population; and the routing a worker does
//! is [`route_shard`], the kernel the sequential engine runs as a single
//! shard. What this crate adds is the fan-out: one job per shard on
//! `crossbeam` scoped threads (one call site, `fan_out`), with
//! shard-local routing results ([`rd_sim::engine_core::RouteDelta`])
//! folding associatively back into the core's metrics, trace, and delay
//! queue.
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

use rd_obs::{Phase, Recorder, SpanEvent};
use rd_sim::engine_core::{
    merge_dest_shard, route_shard, step_shard, unit_latency, EngineCore, RouteDelta, Routed,
};
use rd_sim::{timed_phase, BufferPool, Envelope, MessageCost, Node, RoundEngine, RoundShell};
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

/// One bucket of routed messages per destination shard.
type RoutedBuckets<M> = Vec<Routed<M>>;

/// A round engine that steps nodes on `workers` threads.
///
/// Builders, accessors and run loops are [`RoundEngine`] methods, as
/// for [`rd_sim::Engine`]; see the [crate docs](crate) for the sharding
/// scheme and the determinism argument.
pub struct ShardedEngine<N: Node> {
    shell: RoundShell<N>,
    workers: usize,
    /// Recycled staging/scratch buffers for the stepping phase.
    env_pool: BufferPool<Envelope<N::Msg>>,
    /// Recycled bucket/delay buffers for the routing phase.
    routed_pool: BufferPool<(u64, Envelope<N::Msg>)>,
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
        ShardedEngine {
            shell: RoundShell::new(nodes, seed),
            workers,
            env_pool: BufferPool::new(),
            routed_pool: BufferPool::new(),
        }
    }

    /// The configured worker-thread count.
    pub fn workers(&self) -> usize {
        self.workers
    }
}

/// Runs one job per shard and returns their results in shard order:
/// on scoped threads when `threads` is set and there is more than one
/// job, otherwise one after another on the calling thread. With a
/// recorder, every job times itself against the recorder's shared epoch
/// (`Instant` is `Copy + Send`) as a `phase` span on its shard's lane;
/// the spans fold back only after the joins, in shard order, so
/// telemetry never races and cannot perturb the run. A panicking job
/// panics the caller, exactly as it would have on the calling thread.
fn fan_out<T, J>(
    obs: Option<&mut Recorder>,
    phase: Phase,
    round: u64,
    threads: bool,
    jobs: Vec<J>,
) -> Vec<T>
where
    T: Send,
    J: FnOnce() -> T + Send,
{
    let epoch = obs.as_ref().map(|rec| rec.epoch());
    let run = move |(shard, job): (usize, J)| {
        let start = epoch.map(|_| Instant::now());
        let out = job();
        let span = epoch.map(|e| {
            SpanEvent::from_instants(
                e,
                phase,
                round,
                shard as u32,
                start.unwrap(),
                Instant::now(),
            )
        });
        (out, span)
    };
    let done: Vec<(T, Option<SpanEvent>)> = if threads && jobs.len() > 1 {
        crossbeam::thread::scope(|scope| {
            let handles: Vec<_> = jobs
                .into_iter()
                .enumerate()
                .map(|job| scope.spawn(move |_| run(job)))
                .collect();
            handles
                .into_iter()
                .map(|h| h.join().unwrap_or_else(|p| std::panic::resume_unwind(p)))
                .collect()
        })
        .unwrap_or_else(|p| std::panic::resume_unwind(p))
    } else {
        jobs.into_iter().enumerate().map(run).collect()
    };
    let mut obs = obs;
    done.into_iter()
        .map(|(out, span)| {
            if let (Some(rec), Some(span)) = (obs.as_deref_mut(), span) {
                rec.record_span(span);
            }
            out
        })
        .collect()
}

/// Routes one round's staged envelopes — one buffer per sender shard,
/// shard order, each in canonical `(sender, send-sequence)` order —
/// through the shard/route/merge pipeline into `core`.
///
/// With a single shard this is the serial [`EngineCore::route_batch`]
/// (the same kernel at shard count 1, or its fault-free fast loop).
/// Otherwise every sender shard is routed on its own thread into
/// per-destination-shard buckets ([`route_shard`]), the buckets are
/// merged per destination shard ([`merge_dest_shard`] — in parallel
/// too, once the round carries enough messages to pay for the spawns),
/// and the shard-local deltas fold back into the core. Bit-identical
/// for every shard count; the staged buffers are drained and left empty
/// for reuse.
///
/// When a [`Recorder`] is passed, every route worker and merge job
/// records a [`Phase::RouteShard`] / [`Phase::MergeDestShard`] span on
/// its shard's lane, and the serial delta fold is timed as
/// [`Phase::ApplyDeltas`].
///
/// # Panics
///
/// Panics if any envelope addresses a node that does not exist.
fn route_staged<M: MessageCost + Send>(
    core: &mut EngineCore<M>,
    staged_shards: &mut [Vec<Envelope<M>>],
    shard_len: usize,
    routed_pool: &mut BufferPool<(u64, Envelope<M>)>,
    mut obs: Option<&mut Recorder>,
) {
    let round = core.round();
    if let [staged] = staged_shards {
        return timed_phase(obs, Phase::RouteShard, round, || core.route_batch(staged));
    }
    let shard_count = staged_shards.len();
    let total_messages: usize = staged_shards.iter().map(Vec::len).sum();
    let mut bucket_sets: Vec<RoutedBuckets<M>> = (0..shard_count)
        .map(|_| (0..shard_count).map(|_| routed_pool.take()).collect())
        .collect();
    let mut delayed_lists: Vec<Routed<M>> = (0..shard_count).map(|_| routed_pool.take()).collect();

    let parts = core.route_parts(shard_len);
    let params = parts.params;

    // Route phase: one worker per sender shard, each writing only its
    // own shard's sent-tally lanes and its own destination buckets.
    let route_jobs = staged_shards
        .iter_mut()
        .zip(parts.node_lanes.chunks_mut(shard_len))
        .zip(bucket_sets.iter_mut())
        .enumerate()
        .map(|(w, ((staged, sent_lanes), buckets))| {
            move || {
                route_shard(
                    params,
                    unit_latency,
                    staged,
                    w * shard_len,
                    sent_lanes,
                    buckets,
                )
            }
        })
        .collect();
    let mut deltas: Vec<RouteDelta<M>> = fan_out(
        obs.as_deref_mut(),
        Phase::RouteShard,
        round,
        true,
        route_jobs,
    );

    // Transpose: per destination shard, the per-worker bucket parts in
    // worker (= sender shard) order.
    let mut per_dest: Vec<RoutedBuckets<M>> = (0..shard_count)
        .map(|_| Vec::with_capacity(shard_count))
        .collect();
    for set in bucket_sets {
        for (d, bucket) in set.into_iter().enumerate() {
            per_dest[d].push(bucket);
        }
    }

    // Merge phase: one job per destination shard, each owning its
    // shard's mailboxes and recv-tally lanes.
    let merge_jobs = parts
        .inboxes
        .chunks_mut(shard_len)
        .zip(parts.node_lanes.chunks_mut(shard_len))
        .zip(per_dest.iter_mut().zip(delayed_lists.iter_mut()))
        .enumerate()
        .map(|(d, ((inboxes, recv_lanes), (parts_d, delayed)))| {
            move || merge_dest_shard(round, d * shard_len, parts_d, inboxes, recv_lanes, delayed)
        })
        .collect();
    fan_out(
        obs.as_deref_mut(),
        Phase::MergeDestShard,
        round,
        total_messages >= PARALLEL_MERGE_MIN_MESSAGES,
        merge_jobs,
    );

    timed_phase(obs, Phase::ApplyDeltas, round, || {
        core.apply_route_deltas(&mut deltas, &mut delayed_lists)
    });
    for bucket in per_dest.into_iter().flatten().chain(delayed_lists) {
        routed_pool.put(bucket);
    }
}

impl<N> RoundEngine<N> for ShardedEngine<N>
where
    N: Node + Send,
    N::Msg: Send,
{
    /// Executes one synchronous round; see the [crate docs](crate) for
    /// the three phases and which of them run in parallel.
    fn step(&mut self) {
        let round = self.shell.begin_round();
        let (nodes, core, mut obs) = self.shell.parts_mut();
        let n = nodes.len();
        // Contiguous blocks of ⌈n / workers⌉ nodes; the final shard may
        // be short. A worker without nodes is never spawned, and a lone
        // shard runs on the calling thread.
        let shard_len = n.div_ceil(self.workers.min(n).max(1)).max(1);
        let mut bufs: Vec<ShardBufs<N::Msg>> = (0..n.div_ceil(shard_len))
            .map(|_| (self.env_pool.take(), self.env_pool.take()))
            .collect();

        let state = core.step_state();
        let ctx = state.ctx;
        let step_jobs = nodes
            .chunks_mut(shard_len)
            .zip(state.inboxes.chunks_mut(shard_len))
            .zip(bufs.iter_mut())
            .enumerate()
            .map(|(shard, ((nodes, inboxes), (staged, scratch)))| {
                move || {
                    step_shard(
                        ctx,
                        shard * shard_len,
                        nodes,
                        inboxes,
                        staged,
                        scratch,
                        |_| {},
                    )
                }
            })
            .collect();
        fan_out(obs.as_deref_mut(), Phase::OnRound, round, true, step_jobs);

        let mut staged_shards: Vec<Vec<Envelope<N::Msg>>> = Vec::with_capacity(bufs.len());
        for (staged, scratch) in bufs {
            self.env_pool.put(scratch);
            staged_shards.push(staged);
        }
        route_staged(
            core,
            &mut staged_shards,
            shard_len,
            &mut self.routed_pool,
            obs,
        );
        for staged in staged_shards {
            self.env_pool.put(staged);
        }
        self.shell
            .close_round(|core| core.retransmit_due(unit_latency));
    }

    fn shell(&self) -> &RoundShell<N> {
        &self.shell
    }

    fn shell_mut(&mut self) -> &mut RoundShell<N> {
        &mut self.shell
    }

    fn pool_counters(&self) -> Vec<(&'static str, u64, u64)> {
        let delay = self.shell.core().pool_stats();
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
            ("delay", self.shell.core().pool_high_water_bytes()),
            ("env", self.env_pool.high_water_bytes()),
            ("routed", self.routed_pool.high_water_bytes()),
        ]
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rd_sim::{Engine, FaultPlan, MessageCost, NodeId, RetryPolicy, RoundContext};

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
