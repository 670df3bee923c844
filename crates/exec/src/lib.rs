#![warn(missing_docs)]
#![deny(unsafe_code)]

//! A sharded, multi-threaded execution engine for large discovery runs.
//!
//! [`ShardedEngine`] drives the same [`Node`] programs as the sequential
//! [`rd_sim::Engine`], at the same [`RoundEngine`] interface, but steps
//! nodes on several worker threads per round. The population is sharded
//! *statically by `NodeId`* into contiguous blocks — one block of nodes
//! and the block's one mailbox per worker — so workers need no locks:
//! each owns its slice of nodes and its mailbox for the duration of the
//! stepping phase.
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
//!    shards are contiguous index blocks, every node receives its
//!    messages in exactly the global sender order the sequential engine
//!    produces.
//!
//! Nothing here is a second implementation. The round protocol,
//! builders and accessors are [`RoundShell`] and [`RoundEngine`]; the
//! node loop a worker runs is [`step_shard`], the one the sequential
//! engine runs over the whole population; and the routing a worker does
//! is [`route_shard`], the kernel the sequential engine runs as a single
//! shard. What this crate adds is the handoff: one job per shard —
//! step the shard, then route what it staged — on threads that live as
//! long as the engine does (the private `pool` module: shard `k` always
//! on worker `k`, the last shard on the calling thread, nothing spawned
//! after the first multi-shard round), with shard-local routing results
//! ([`rd_sim::engine_core::RouteDelta`]) folding associatively back into
//! the core's metrics, trace, and delay queue. Only the merge into the
//! mailboxes waits for every shard.
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

mod pool;

use pool::Pool;
use rd_obs::{Phase, SpanEvent};
use rd_sim::engine_core::{merge_dest_shard, route_shard, step_shard, unit_latency, Routed};
use rd_sim::{timed_phase, BufferPool, Envelope, Node, RoundEngine, RoundShell};
use std::time::Instant;

/// Below this many staged messages per round, the per-destination merge
/// runs on the calling thread: handing it to the workers is a futex wake
/// and a wait for the slowest of them (tens of microseconds), which is
/// more than a merge this small takes. (The step-and-route handoff has
/// no such threshold — running every configuration through the sharded
/// route path keeps it continuously exercised by the equivalence tests.)
const PARALLEL_MERGE_MIN_MESSAGES: usize = 4096;

/// The staged/held buffer pair one stepping worker owns for a round:
/// its shard's sends, and the mail a receive cap holds back.
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
    /// The threads shards run on, besides the caller's.
    pool: Pool,
    /// Recycled staged/held buffers for the stepping phase.
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
    /// sequential engine. No thread is created here: the workers start
    /// with the first round that has more than one shard, and live until
    /// the engine is dropped.
    ///
    /// # Panics
    ///
    /// Panics if `workers == 0`.
    pub fn new(nodes: Vec<N>, seed: u64, workers: usize) -> Self {
        assert!(workers > 0, "a sharded engine needs at least one worker");
        // Contiguous blocks of ⌈n / workers⌉ nodes; the final shard may
        // be short, and a worker without nodes gets no shard.
        let n = nodes.len();
        let shard_len = n.div_ceil(workers.min(n).max(1)).max(1);
        ShardedEngine {
            shell: RoundShell::sharded(nodes, seed, shard_len),
            workers,
            pool: Pool::new(),
            env_pool: BufferPool::new(),
            routed_pool: BufferPool::new(),
        }
    }

    /// The configured worker-thread count.
    pub fn workers(&self) -> usize {
        self.workers
    }

    /// The multi-shard body of a round: `bufs` holds one staged/held
    /// pair per shard of `shard_len` nodes, and comes back drained.
    fn step_shards(&mut self, round: u64, shard_len: usize, bufs: &mut [ShardBufs<N::Msg>]) {
        let shard_count = bufs.len();
        let (nodes, core, mut obs) = self.shell.parts_mut();
        let epoch = obs.as_ref().map(|rec| rec.epoch());
        let mut bucket_sets: Vec<RoutedBuckets<N::Msg>> = (0..shard_count)
            .map(|_| (0..shard_count).map(|_| self.routed_pool.take()).collect())
            .collect();
        let mut delayed_lists: Vec<Routed<N::Msg>> =
            (0..shard_count).map(|_| self.routed_pool.take()).collect();
        let parts = core.route_parts();
        let (ctx, params) = (parts.ctx, parts.params);

        // One handoff steps and routes: routing shard `w` reads only the
        // round's parameters and what `w` just staged, and writes only
        // `w`'s sent-tally lanes and its own buckets, so it need not wait
        // for any other shard to finish stepping.
        let shard_jobs = nodes
            .chunks_mut(shard_len)
            .zip(parts.mailboxes.iter_mut())
            .zip(parts.node_lanes.chunks_mut(shard_len))
            .zip(bufs.iter_mut().zip(bucket_sets.iter_mut()))
            .enumerate()
            .map(
                |(w, (((nodes, mailbox), sent_lanes), ((staged, held), buckets)))| {
                    move || {
                        let base = w * shard_len;
                        let (staged_len, stepped) =
                            lane_span(epoch, Phase::OnRound, round, w, || {
                                step_shard(ctx, base, nodes, mailbox, staged, held);
                                staged.len()
                            });
                        let (delta, routed) = lane_span(epoch, Phase::RouteShard, round, w, || {
                            route_shard(params, unit_latency, staged, base, sent_lanes, buckets)
                        });
                        (staged_len, delta, stepped, routed)
                    }
                },
            )
            .collect();
        let mut total_messages = 0;
        let mut deltas = Vec::with_capacity(shard_count);
        let (mut stepped, mut routed) = (Vec::new(), Vec::new());
        for (staged_len, delta, step_span, route_span) in self.pool.run(shard_jobs) {
            total_messages += staged_len;
            deltas.push(delta);
            stepped.push(step_span);
            routed.push(route_span);
        }

        // Transpose: per destination shard, the per-worker bucket parts
        // in worker (= sender shard) order.
        let mut per_dest: Vec<RoutedBuckets<N::Msg>> = (0..shard_count)
            .map(|_| Vec::with_capacity(shard_count))
            .collect();
        for set in bucket_sets {
            for (d, bucket) in set.into_iter().enumerate() {
                per_dest[d].push(bucket);
            }
        }

        // Merge phase, behind the join because it fills the mailboxes
        // the step phase drained: one job per destination shard, each
        // owning its shard's mailbox and recv-tally lanes.
        let merge_jobs: Vec<_> = parts
            .mailboxes
            .iter_mut()
            .zip(parts.node_lanes.chunks_mut(shard_len))
            .zip(per_dest.iter_mut().zip(delayed_lists.iter_mut()))
            .enumerate()
            .map(|(d, ((mailbox, recv_lanes), (parts_d, delayed)))| {
                move || {
                    let base = d * shard_len;
                    let ((), merged) = lane_span(epoch, Phase::MergeDestShard, round, d, || {
                        merge_dest_shard(round, base, parts_d, mailbox, recv_lanes, delayed)
                    });
                    merged
                }
            })
            .collect();
        let merged: Vec<Option<SpanEvent>> = if total_messages >= PARALLEL_MERGE_MIN_MESSAGES {
            self.pool.run(merge_jobs)
        } else {
            merge_jobs.into_iter().map(|mut job| job()).collect()
        };

        if let Some(rec) = obs.as_deref_mut() {
            // Phase by phase, each in shard order.
            for span in stepped.into_iter().chain(routed).chain(merged).flatten() {
                rec.record_span(span);
            }
        }
        timed_phase(obs, Phase::ApplyDeltas, round, || {
            core.apply_route_deltas(&mut deltas, &mut delayed_lists)
        });
        for bucket in per_dest.into_iter().flatten().chain(delayed_lists) {
            self.routed_pool.put(bucket);
        }
    }
}

/// Runs `work` and, under a recorder whose shared epoch is `epoch`
/// (`Instant` is `Copy + Send`), times it as a `phase` span on `shard`'s
/// lane. A job hands its spans back with its result; they fold into the
/// recorder only after the handoff, in shard order, so telemetry never
/// races and cannot perturb the run.
fn lane_span<T>(
    epoch: Option<Instant>,
    phase: Phase,
    round: u64,
    shard: usize,
    work: impl FnOnce() -> T,
) -> (T, Option<SpanEvent>) {
    let start = epoch.map(|_| Instant::now());
    let out = work();
    let span = epoch.zip(start).map(|(epoch, start)| {
        SpanEvent::from_instants(epoch, phase, round, shard as u32, start, Instant::now())
    });
    (out, span)
}

impl<N> RoundEngine<N> for ShardedEngine<N>
where
    N: Node + Send,
    N::Msg: Send,
{
    /// Executes one synchronous round; see the [crate docs](crate) for
    /// its phases and which of them run in parallel.
    ///
    /// A lone shard is the sequential engine's round on the calling
    /// thread (the serial [`rd_sim::engine_core::EngineCore::route_batch`]
    /// — the same kernel at shard count 1, or its fault-free fast loop).
    /// Otherwise every shard is stepped and routed by one job on its own
    /// thread ([`step_shard`], then [`route_shard`] into
    /// per-destination-shard buckets), the buckets are merged per
    /// destination shard ([`merge_dest_shard`] — by the workers too, once
    /// the round carries enough messages to pay for a second handoff),
    /// and the shard-local deltas fold back into the core. Bit-identical
    /// for every shard count.
    ///
    /// With a recorder attached, a shard's job records a
    /// [`Phase::OnRound`] and a [`Phase::RouteShard`] span and its merge a
    /// [`Phase::MergeDestShard`] span on the shard's lane, and the serial
    /// delta fold is timed as [`Phase::ApplyDeltas`].
    ///
    /// # Panics
    ///
    /// Panics if any envelope addresses a node that does not exist.
    fn step(&mut self) {
        let round = self.shell.begin_round();
        let n = self.shell.core().node_count();
        let shard_len = self.shell.core().shard_len();
        let mut bufs: Vec<ShardBufs<N::Msg>> = (0..n.div_ceil(shard_len))
            .map(|_| (self.env_pool.take(), self.env_pool.take()))
            .collect();
        if let [(staged, held)] = &mut bufs[..] {
            self.shell.step_nodes(staged, held);
            self.shell.route(|core| core.route_batch(staged));
        } else {
            self.step_shards(round, shard_len, &mut bufs);
        }
        // Held buffers first, then the staged ones: the order the
        // pool's counters — archive records — have always seen. A held
        // buffer has capacity, and is pooled, only after a receive cap
        // held something back in its shard, as the capped-delivery
        // scratch it replaces had.
        for (_, held) in &mut bufs {
            self.env_pool.put(std::mem::take(held));
        }
        for (staged, _) in bufs {
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

    /// A gossiper that can run for hundreds of rounds: what it hears is
    /// folded, in inbox order, into one word.
    #[derive(Clone, Debug, PartialEq)]
    struct Folder {
        n: u32,
        heard: u32,
    }

    impl Node for Folder {
        type Msg = Rumor;
        fn on_round(
            &mut self,
            inbox: &mut Vec<Envelope<Rumor>>,
            ctx: &mut RoundContext<'_, Rumor>,
        ) {
            use rand::Rng;
            for env in inbox.drain(..) {
                let word = env.payload.0.iter().fold(u32::from(env.src), |w, &id| {
                    w.wrapping_mul(31).wrapping_add(u32::from(id))
                });
                self.heard = self.heard.rotate_left(5) ^ word;
            }
            for _ in 0..2 {
                let dst = NodeId::new(ctx.rng().random_range(0..self.n));
                if dst != ctx.id() {
                    ctx.send(dst, Rumor(vec![NodeId::new(self.heard % self.n)]));
                }
            }
        }
    }

    #[test]
    fn two_engines_stepped_alternately_each_keep_their_own_workers() {
        // Long enough for a lost wake-up or a result read too early to
        // show, and with a second engine's handoffs interleaved on the
        // same calling thread.
        let folders = || vec![Folder { n: 23, heard: 0 }; 23];
        let plan = || FaultPlan::new().with_drop_probability(0.1);
        let mut seq = Engine::new(folders(), 3)
            .with_faults(plan())
            .with_trace(1 << 14);
        let mut pars: Vec<_> = [2, 5]
            .into_iter()
            .map(|workers| {
                ShardedEngine::new(folders(), 3, workers)
                    .with_faults(plan())
                    .with_trace(1 << 14)
            })
            .collect();
        for _ in 0..200 {
            seq.step();
            for par in &mut pars {
                par.step();
            }
        }
        for par in &pars {
            assert_eq!(seq.nodes(), par.nodes());
            assert_eq!(seq.metrics(), par.metrics());
            let (seq, par) = (seq.trace().unwrap(), par.trace().unwrap());
            assert_eq!(seq.events(), par.events());
            assert_eq!(seq.overflow(), par.overflow());
        }
    }

    /// Records the thread every one of its rounds ran on.
    #[derive(Clone)]
    struct Witness(Vec<std::thread::ThreadId>);

    impl Node for Witness {
        type Msg = Rumor;
        fn on_round(&mut self, _: &mut Vec<Envelope<Rumor>>, _: &mut RoundContext<'_, Rumor>) {
            self.0.push(std::thread::current().id());
        }
    }

    #[test]
    fn no_thread_is_created_after_the_first_round() {
        // Seven nodes on three workers: shards 0..3, 3..6 and 6..7.
        let mut engine = ShardedEngine::new(vec![Witness(Vec::new()); 7], 1, 3);
        for _ in 0..50 {
            engine.step();
        }
        let first: Vec<_> = engine.nodes().iter().map(|w| w.0[0]).collect();
        for (witness, first) in engine.nodes().iter().zip(&first) {
            assert_eq!(witness.0.len(), 50);
            assert!(witness.0.iter().all(|id| id == first));
        }
        // One thread per shard, the last of them the caller's.
        assert_eq!(first[0], first[2]);
        assert_eq!(first[3], first[5]);
        assert_ne!(first[0], first[3]);
        assert_eq!(first[6], std::thread::current().id());
        assert!(!first[..6].contains(&first[6]));
    }

    #[test]
    fn a_lone_shard_creates_no_thread() {
        let caller = std::thread::current().id();
        for (n, workers) in [(7, 1), (1, 4)] {
            let mut engine = ShardedEngine::new(vec![Witness(Vec::new()); n], 1, workers);
            engine.step();
            engine.step();
            assert!(engine.nodes().iter().all(|w| w.0 == [caller, caller]));
        }
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
