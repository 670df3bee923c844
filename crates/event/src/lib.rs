#![warn(missing_docs)]
#![forbid(unsafe_code)]

//! # rd-event
//!
//! A deterministic **discrete-event** execution engine for the
//! resource-discovery reproduction: message deliveries are timed events
//! ordered by `(arrival tick, tiebreak rank)`, per-message latency
//! comes from a pluggable [`LatencyModel`], nodes carry logical clocks,
//! and non-message events (retransmission timeouts) are first-class
//! timers in a [`TimerWheel`].
//!
//! The round engines (`rd-sim`'s sequential engine, `rd-exec`'s sharded
//! engine) execute lockstep synchronous rounds: every message takes
//! exactly one round (or `1 + U{0..=j}` under the jitter knob). Real
//! networks are asynchronous — constant multi-tick RTTs, heavy-tailed
//! stragglers, directionally asymmetric links. [`EventEngine`] expresses
//! all of those while keeping the workspace's determinism discipline:
//!
//! * **Latency draws are counter-based.** Each transmission's latency is
//!   a pure function of `(seed, src, dst, tick, sequence, attempt)`
//!   through a dedicated RNG domain
//!   ([`rd_sim::rng::message_latency_rng`]), so queue state and event
//!   order can never feed back into the draws.
//! * **Deliveries are ordered by `(time, rank)`.** In-flight messages
//!   sit in the core's time-keyed delivery queue; within a tick they
//!   arrive in canonical `(send tick, sender, send-sequence)` order.
//!   No hash maps, no wall clock: same seed + same model ⇒
//!   byte-identical event order and byte-identical run archives.
//! * **Timeouts are timer events.** Under reliable delivery, a dropped
//!   message arms a wake-up in the [`TimerWheel`]; retransmission
//!   attempts run exactly when their timer fires (and re-arm on
//!   backoff), not via an every-round sweep.
//! * **A round is a latency of one tick.** The engine is the shared
//!   round shell and routing kernel of `rd-sim` called with this
//!   crate's latency sampler where the round engines pass
//!   [`rd_sim::unit_latency`]; under `const:1` it therefore *is* a
//!   round engine (same metrics, traces, node states, and archives —
//!   the cross-engine equivalence property suite checks it).
//!
//! ```
//! use rd_event::{EventEngine, LatencyModel};
//! use rd_sim::{Envelope, MessageCost, Node, NodeId, RoundContext, RoundEngine};
//!
//! struct Ping;
//! #[derive(Debug)]
//! struct Unit;
//! impl MessageCost for Unit {
//!     fn pointers(&self) -> usize { 0 }
//! }
//! impl Node for Ping {
//!     type Msg = Unit;
//!     fn on_round(&mut self, _: &mut Vec<Envelope<Unit>>, ctx: &mut RoundContext<'_, Unit>) {
//!         if ctx.round() == 0 && ctx.id() == NodeId::new(0) {
//!             ctx.send(NodeId::new(1), Unit);
//!         }
//!     }
//! }
//!
//! // Messages take exactly 4 ticks — a regime no round engine can express.
//! let mut engine = EventEngine::new(
//!     vec![Ping, Ping],
//!     7,
//!     LatencyModel::Constant { ticks: 4 },
//! );
//! for _ in 0..5 {
//!     engine.step();
//! }
//! assert_eq!(engine.metrics().total_messages(), 1);
//! ```

mod latency;
mod timer;

pub use latency::LatencyModel;
pub use timer::{TimerId, TimerWheel};

use rd_sim::{Envelope, Node, RoundEngine, RoundShell};

/// Engine-internal timer payloads.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum TimerKind {
    /// Wake up and drain the retransmission queue.
    Retransmit,
}

/// Drives a population of [`Node`] programs through discrete simulated
/// time with per-message latencies from a [`LatencyModel`].
///
/// Each [`step`](RoundEngine::step) advances simulated time by one
/// tick: due deliveries and timers fire, every live node runs once (its
/// logical clock advancing), and its sends are routed with latencies
/// drawn from the model. Under `LatencyModel::Constant { ticks: 1 }`
/// the engine is bit-identical to the synchronous round engines.
/// Builders, accessors and run loops are [`RoundEngine`] methods; span
/// rows and provenance edges carry the simulated tick in their round
/// fields, so heavy-tail stragglers are visible in the causal DAG.
///
/// See the crate-level documentation for the determinism argument.
pub struct EventEngine<N: Node> {
    shell: RoundShell<N>,
    latency: LatencyModel,
    /// Per-node logical clocks: ticks the node has actually executed.
    /// Crashed nodes freeze; recovered nodes resume behind global time.
    clocks: Vec<u64>,
    timers: TimerWheel<TimerKind>,
    /// The armed retransmission wake-up, tracking the earliest due slot
    /// of the core's retransmission queue.
    retx_timer: Option<TimerId>,
    /// Tick-persistent staging buffer for outgoing envelopes.
    staged: Vec<Envelope<N::Msg>>,
    /// Tick-persistent scratch buffer for capped inbox delivery.
    scratch: Vec<Envelope<N::Msg>>,
}

impl<N: Node> EventEngine<N> {
    /// Creates an engine over `nodes` with the given latency model,
    /// where node `i` has identifier `NodeId::new(i)`. `seed`
    /// determines all protocol, fault, and latency randomness.
    ///
    /// # Panics
    ///
    /// Panics if the latency model's parameters are invalid (see
    /// [`LatencyModel::validate`]).
    pub fn new(nodes: Vec<N>, seed: u64, latency: LatencyModel) -> Self {
        if let Err(err) = latency.validate() {
            panic!("invalid latency model: {err}");
        }
        let clocks = vec![0; nodes.len()];
        EventEngine {
            shell: RoundShell::new(nodes, seed),
            latency,
            clocks,
            timers: TimerWheel::new(),
            retx_timer: None,
            staged: Vec::new(),
            scratch: Vec::new(),
        }
    }

    /// Simulated time: ticks executed so far. One tick is one unit of
    /// the latency model; under `const:1` it coincides with the round
    /// counter of the synchronous engines.
    pub fn now(&self) -> u64 {
        self.round()
    }

    /// The per-node logical clocks: how many ticks each node has
    /// actually executed. A node's clock trails [`now`](Self::now) by
    /// the ticks it spent crashed.
    pub fn clocks(&self) -> &[u64] {
        &self.clocks
    }

    /// The engine's latency model.
    pub fn latency_model(&self) -> LatencyModel {
        self.latency
    }

    /// `(fired, cancelled)` counters of the engine's timer wheel.
    pub fn timer_stats(&self) -> (u64, u64) {
        self.timers.stats()
    }
}

impl<N: Node> RoundEngine<N> for EventEngine<N> {
    /// Executes one tick of simulated time: delivers due messages,
    /// runs every live node, routes its sends with model-drawn
    /// latencies, and — when the retransmission timer fires — makes the
    /// due attempts, their latencies drawn from the model on the
    /// message's own counter-based axes.
    fn step(&mut self) {
        let now = self.shell.begin_round();
        let clocks = &mut self.clocks;
        self.shell
            .step_nodes(&mut self.staged, &mut self.scratch, |i| clocks[i] += 1);

        let (seed, model) = (self.shell.core().seed(), self.latency);
        let latency = move |src, dst, round, sequence, attempt| {
            model.sample(seed, src, dst, round, sequence, attempt)
        };
        self.shell
            .route(|core| core.route_batch_with(&mut self.staged, latency));

        self.shell.close_round(|core| {
            // Timers fire at the end of their tick, before time
            // advances — the instant the round engines attempt their
            // due retransmissions, so `const:1` runs replay them
            // exactly.
            let fired = self.timers.fire_due(now);
            if fired.iter().any(|(_, kind)| *kind == TimerKind::Retransmit) {
                self.retx_timer = None;
                core.retransmit_due(latency);
            }
            // Keep exactly one armed wake-up, tracking the earliest due
            // slot of the retransmission queue: cancel a stale timer
            // (the queue head moved after a drain or a new earlier
            // park) and arm the current deadline. Missing a deadline
            // would silently disable reliable delivery, so the timer
            // wheel is load-bearing here.
            let due = core.next_retransmission_due();
            if self.retx_timer.map(|t| t.deadline()) != due {
                if let Some(stale) = self.retx_timer.take() {
                    self.timers.cancel(stale);
                }
                self.retx_timer = due.map(|at| self.timers.arm(at, TimerKind::Retransmit));
            }
        });
    }

    fn shell(&self) -> &RoundShell<N> {
        &self.shell
    }

    fn shell_mut(&mut self) -> &mut RoundShell<N> {
        &mut self.shell
    }

    fn pool_counters(&self) -> Vec<(&'static str, u64, u64)> {
        let stats = self.shell.core().pool_stats();
        let (fired, cancelled) = self.timers.stats();
        vec![
            ("delay", stats.takes, stats.reuses),
            ("timer", fired, cancelled),
        ]
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rd_sim::{Engine, FaultPlan, MessageCost, NodeId, RetryPolicy, RoundContext};

    /// Test payload: a bag of ids.
    #[derive(Debug, Clone, PartialEq, Eq)]
    struct Ids(Vec<NodeId>);
    impl MessageCost for Ids {
        fn pointers(&self) -> usize {
            self.0.len()
        }
    }

    /// Broadcast relay: node 0 floods a token along a ring; each node
    /// forwards once.
    struct RingRelay {
        next: NodeId,
        has_token: bool,
        forwarded: bool,
    }

    impl rd_sim::Node for RingRelay {
        type Msg = Ids;
        fn on_round(&mut self, inbox: &mut Vec<Envelope<Ids>>, ctx: &mut RoundContext<'_, Ids>) {
            if ctx.round() == 0 && ctx.id() == NodeId::new(0) {
                self.has_token = true;
            }
            for env in inbox.drain(..) {
                assert_eq!(env.dst, ctx.id());
                self.has_token = true;
            }
            if self.has_token && !self.forwarded {
                self.forwarded = true;
                if self.next != ctx.id() {
                    ctx.send(self.next, Ids(vec![ctx.id()]));
                }
            }
        }
    }

    fn ring(n: usize) -> Vec<RingRelay> {
        (0..n)
            .map(|i| RingRelay {
                next: NodeId::new(((i + 1) % n) as u32),
                has_token: false,
                forwarded: false,
            })
            .collect()
    }

    fn all_have_token(nodes: &[RingRelay]) -> bool {
        nodes.iter().all(|r| r.has_token)
    }

    const SYNC: LatencyModel = LatencyModel::Constant { ticks: 1 };

    #[test]
    fn unit_latency_matches_the_round_engine_exactly() {
        let mut round = Engine::new(ring(8), 42).with_trace(64);
        let mut event = EventEngine::new(ring(8), 42, SYNC).with_trace(64);
        let ro = round.run_until(100, all_have_token);
        let eo = event.run_until(100, all_have_token);
        assert_eq!(ro, eo);
        assert_eq!(
            round.metrics().total_messages(),
            event.metrics().total_messages()
        );
        assert_eq!(
            round.metrics().total_pointers(),
            event.metrics().total_pointers()
        );
        assert_eq!(round.metrics().rounds(), event.metrics().rounds());
        assert_eq!(
            round.trace().unwrap().events(),
            event.trace().unwrap().events()
        );
    }

    #[test]
    fn constant_latency_stretches_time_proportionally() {
        // Each ring hop takes 3 ticks instead of 1: the last of 4 nodes
        // first processes the token at tick 9, i.e. on the 10th step.
        let mut engine = EventEngine::new(ring(4), 1, LatencyModel::Constant { ticks: 3 });
        let outcome = engine.run_until(100, all_have_token);
        assert!(outcome.completed);
        assert_eq!(outcome.rounds, 10);
        assert_eq!(engine.metrics().total_messages(), 4);
    }

    #[test]
    fn same_seed_replays_identically_under_jitter() {
        let run = |seed: u64| {
            let mut e = EventEngine::new(ring(8), seed, LatencyModel::Uniform { min: 1, max: 6 });
            let o = e.run_until(300, all_have_token);
            (
                o,
                e.metrics().total_messages(),
                e.metrics().total_pointers(),
            )
        };
        assert_eq!(run(5), run(5));
        assert!(run(5).0.completed);
    }

    #[test]
    fn heavy_tail_draws_preserve_every_message() {
        let model = LatencyModel::LogNormal {
            mu_milli: 1200,
            sigma_milli: 900,
            cap: 24,
        };
        let mut engine = EventEngine::new(ring(8), 9, model);
        let outcome = engine.run_until(400, all_have_token);
        assert!(outcome.completed);
        assert_eq!(
            engine.metrics().total_messages(),
            8,
            "no message lost to delay"
        );
        assert!(outcome.rounds >= 8, "stragglers cannot beat sync time");
    }

    #[test]
    fn asymmetric_links_are_directional() {
        // A 2-node ping over both directions: 0→1 takes 1 tick, 1→0
        // takes 5. The round trip therefore completes at tick 6.
        struct Pong {
            start: bool,
            got: Vec<u64>,
        }
        impl rd_sim::Node for Pong {
            type Msg = Ids;
            fn on_round(
                &mut self,
                inbox: &mut Vec<Envelope<Ids>>,
                ctx: &mut RoundContext<'_, Ids>,
            ) {
                for env in inbox.drain(..) {
                    self.got.push(ctx.round());
                    if env.src == NodeId::new(0) {
                        ctx.send(NodeId::new(0), Ids(vec![]));
                    }
                }
                if self.start && ctx.round() == 0 {
                    ctx.send(NodeId::new(1), Ids(vec![]));
                }
            }
        }
        let nodes = vec![
            Pong {
                start: true,
                got: vec![],
            },
            Pong {
                start: false,
                got: vec![],
            },
        ];
        let model = LatencyModel::Asymmetric {
            forward: 1,
            backward: 5,
        };
        let mut engine = EventEngine::new(nodes, 3, model);
        for _ in 0..8 {
            engine.step();
        }
        assert_eq!(engine.nodes()[1].got, vec![1], "0→1 took one tick");
        assert_eq!(engine.nodes()[0].got, vec![6], "1→0 took five ticks");
    }

    #[test]
    fn logical_clocks_freeze_while_crashed() {
        let faults = FaultPlan::new().with_crash_at(1, 2).with_recovery_at(1, 5);
        let mut engine = EventEngine::new(ring(3), 1, SYNC).with_faults(faults);
        for _ in 0..8 {
            engine.step();
        }
        assert_eq!(engine.now(), 8);
        assert_eq!(engine.clocks()[0], 8, "healthy node tracks global time");
        assert_eq!(engine.clocks()[1], 5, "crashed node lost ticks 2..5");
    }

    #[test]
    fn reliable_delivery_retries_via_timer_events() {
        // Node 1 is dead for ticks 2..8, exactly when the token reaches
        // it; timer-driven retransmissions recover the broadcast.
        let faults = FaultPlan::new().with_crash_at(1, 1).with_recovery_at(1, 8);
        let policy = RetryPolicy {
            timeout: 2,
            max_retries: 8,
            max_backoff: 4,
        };
        let mut engine = EventEngine::new(ring(4), 1, SYNC)
            .with_faults(faults)
            .with_reliable_delivery(policy);
        let outcome = engine.run_until(100, all_have_token);
        assert!(outcome.completed);
        assert!(engine.metrics().total_retransmissions() >= 1);
        let (fired, _) = engine.timer_stats();
        assert!(fired >= 1, "retransmissions must ride on timer events");
    }

    #[test]
    fn timer_driven_retries_match_the_round_engine_sweep() {
        let faults = || FaultPlan::new().with_drop_probability(0.4);
        let policy = RetryPolicy::default();
        let mut round = Engine::new(ring(8), 11)
            .with_faults(faults())
            .with_reliable_delivery(policy);
        let mut event = EventEngine::new(ring(8), 11, SYNC)
            .with_faults(faults())
            .with_reliable_delivery(policy);
        let ro = round.run_until(200, all_have_token);
        let eo = event.run_until(200, all_have_token);
        assert_eq!(ro, eo);
        assert_eq!(round.metrics().rounds(), event.metrics().rounds());
        assert_eq!(
            round.metrics().total_retransmissions(),
            event.metrics().total_retransmissions()
        );
    }

    #[test]
    fn receive_cap_applies_per_tick() {
        struct Blaster {
            got: Vec<NodeId>,
        }
        impl rd_sim::Node for Blaster {
            type Msg = Ids;
            fn on_round(
                &mut self,
                inbox: &mut Vec<Envelope<Ids>>,
                ctx: &mut RoundContext<'_, Ids>,
            ) {
                for env in inbox.drain(..) {
                    self.got.push(env.src);
                }
                if ctx.round() == 0 && ctx.id() != NodeId::new(0) {
                    ctx.send(NodeId::new(0), Ids(vec![]));
                }
            }
        }
        let nodes = (0..4).map(|_| Blaster { got: vec![] }).collect();
        let mut engine = EventEngine::new(nodes, 1, SYNC).with_receive_cap(1);
        for _ in 0..5 {
            engine.step();
        }
        assert_eq!(
            engine.nodes()[0].got,
            vec![NodeId::new(1), NodeId::new(2), NodeId::new(3)]
        );
    }

    #[test]
    #[should_panic(expected = "invalid latency model")]
    fn invalid_model_is_rejected_at_construction() {
        let _ = EventEngine::new(ring(2), 1, LatencyModel::Constant { ticks: 0 });
    }
}
