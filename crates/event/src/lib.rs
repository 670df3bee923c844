#![warn(missing_docs)]

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
//! * **One tick of the event clock equals one round of the round
//!   engines** when the model is `const:1` — the engines are then
//!   bit-identical (same metrics, traces, node states, and archives),
//!   which is enforced by the cross-engine equivalence property suite.
//!
//! ```
//! use rd_event::{EventEngine, LatencyModel};
//! use rd_sim::{Envelope, MessageCost, Node, NodeId, RoundContext};
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

use rd_obs::{CausalTrace, Phase, Recorder};
use rd_sim::{
    round_obs, step_node, take_capped, EngineCore, Envelope, FaultPlan, Node, RetryPolicy,
    RoundEngine, RunMetrics, RunOutcome, Trace,
};
use std::time::Instant;

/// Engine-internal timer payloads.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum TimerKind {
    /// Wake up and drain the retransmission queue.
    Retransmit,
}

/// Drives a population of [`Node`] programs through discrete simulated
/// time with per-message latencies from a [`LatencyModel`].
///
/// Each [`step`](EventEngine::step) advances simulated time by one
/// tick: due deliveries and timers fire, every live node runs once (its
/// logical clock advancing), and its sends are routed with latencies
/// drawn from the model. Under `LatencyModel::Constant { ticks: 1 }`
/// the engine is bit-identical to the synchronous round engines.
///
/// See the crate-level documentation for the determinism argument.
pub struct EventEngine<N: Node> {
    nodes: Vec<N>,
    core: EngineCore<N::Msg>,
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
    obs: Option<Recorder>,
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
        let core = EngineCore::new(nodes.len(), seed);
        let clocks = vec![0; nodes.len()];
        EventEngine {
            nodes,
            core,
            latency,
            clocks,
            timers: TimerWheel::new(),
            retx_timer: None,
            staged: Vec::new(),
            scratch: Vec::new(),
            obs: None,
        }
    }

    /// Attaches a telemetry [`Recorder`]. Purely observational — a run
    /// with a recorder is bit-identical to the same run without one.
    /// Span rows carry the simulated tick in their round field.
    pub fn with_obs(mut self, mut recorder: Recorder) -> Self {
        // One-time message-cost registration for the profiler (no-op
        // unless profiling is on).
        recorder.profile_msg_kind(
            rd_sim::short_type_name::<N::Msg>(),
            std::mem::size_of::<Envelope<N::Msg>>() as u64,
            std::mem::size_of::<rd_sim::NodeId>() as u64,
        );
        self.obs = Some(recorder);
        self
    }

    /// Installs a fault plan (drops, crashes, partitions).
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

    /// Attaches a causal knowledge-provenance trace. Purely
    /// observational; provenance edges carry simulated send/delivery
    /// ticks, so heavy-tail stragglers are visible in the causal DAG.
    pub fn with_causal_trace(mut self, causal: CausalTrace) -> Self {
        self.core.set_causal(causal);
        self
    }

    /// Caps deliveries at `cap` messages per node per tick; excess
    /// messages queue (in arrival order) for later ticks.
    ///
    /// # Panics
    ///
    /// Panics if `cap == 0`.
    pub fn with_receive_cap(mut self, cap: usize) -> Self {
        self.core.set_receive_cap(cap);
        self
    }

    /// Enables reliable delivery. Unlike the round engines' end-of-round
    /// sweep, timeouts here are real timer events: each parked
    /// retransmission arms a wake-up in the timer wheel, and attempts
    /// run exactly when it fires. Attempt latencies are drawn from the
    /// latency model on the message's own counter-based axes.
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

    /// Read access to the node programs.
    pub fn nodes(&self) -> &[N] {
        &self.nodes
    }

    /// Simulated time: ticks executed so far. One tick is one unit of
    /// the latency model; under `const:1` it coincides with the round
    /// counter of the synchronous engines.
    pub fn now(&self) -> u64 {
        self.core.round()
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

    /// `(fired, cancelled)` counters of the engine's timer wheel.
    pub fn timer_stats(&self) -> (u64, u64) {
        self.timers.stats()
    }

    /// Executes one tick of simulated time: delivers due messages,
    /// fires due timers, runs every live node, routes its sends with
    /// model-drawn latencies, and makes due retransmission attempts.
    pub fn step(&mut self) {
        if let Some(rec) = &mut self.obs {
            rec.begin_round();
        }
        let t_begin = self.obs.as_ref().map(|_| Instant::now());
        let now = self.core.begin_round();
        if let Some(rec) = &mut self.obs {
            rec.span_from(Phase::BeginRound, now, 0, t_begin.unwrap());
        }
        let suspects = self.core.suspects().clone();

        let t_step = self.obs.as_ref().map(|_| Instant::now());
        let state = self.core.step_state();
        let crashes_possible = state.faults.has_crashes();
        for (i, node) in self.nodes.iter_mut().enumerate() {
            if crashes_possible && state.faults.is_crashed_at(i, now) {
                // Crashed nodes neither run nor receive (their clock
                // freezes); pending deliveries are consumed and lost.
                state.inboxes[i].clear();
                continue;
            }
            self.clocks[i] += 1;
            let inbox = take_capped(&mut state.inboxes[i], &mut self.scratch, state.receive_cap);
            step_node(node, i, now, state.seed, &suspects, inbox, &mut self.staged);
        }
        if let Some(rec) = &mut self.obs {
            rec.span_from(Phase::OnRound, now, 0, t_step.unwrap());
        }

        let t_route = self.obs.as_ref().map(|_| Instant::now());
        let seed = self.core.seed();
        let latency = self.latency;
        self.core
            .route_batch_timed(&mut self.staged, |src, dst, sequence| {
                latency.sample(seed, src, dst, now, sequence, 0)
            });
        if let Some(rec) = &mut self.obs {
            rec.span_from(Phase::RouteShard, now, 0, t_route.unwrap());
        }

        let t_finish = self.obs.as_ref().map(|_| Instant::now());
        // Timers fire at the end of their tick, before time advances —
        // the instant the round engines run their end-of-round sweep,
        // so `const:1` runs replay them exactly.
        let fired = self.timers.fire_due(now);
        if fired.iter().any(|(_, kind)| *kind == TimerKind::Retransmit) {
            self.retx_timer = None;
            self.core.process_due_retransmissions_timed(
                |src, dst, orig_round, orig_seq, attempt| {
                    latency.sample(seed, src, dst, orig_round, orig_seq, attempt)
                },
            );
        }
        self.rearm_retransmission_timer();
        self.core.finish_tick();
        if let Some(rec) = &mut self.obs {
            rec.span_from(Phase::FinishRound, now, 0, t_finish.unwrap());
            // Profiler self-cost: time the recorder's own round-close
            // bookkeeping as a `Telemetry` span (profiling only).
            let t_tel = rec.profiling_enabled().then(Instant::now);
            let row = *self.core.metrics().rounds().last().expect("open round row");
            rec.end_round(round_obs(now, &row));
            if let Some(t) = t_tel {
                rec.span_from(Phase::Telemetry, now, 0, t);
            }
        }
    }

    /// Keeps exactly one armed wake-up, tracking the earliest due slot
    /// of the retransmission queue: cancels a stale timer (the queue
    /// head moved after a drain or a new earlier park) and arms the
    /// current deadline. Missing a deadline would silently disable
    /// reliable delivery, so the timer wheel is load-bearing here.
    fn rearm_retransmission_timer(&mut self) {
        let due = self.core.next_retransmission_due();
        if self.retx_timer.map(|t| t.deadline()) == due {
            return;
        }
        if let Some(stale) = self.retx_timer.take() {
            self.timers.cancel(stale);
        }
        if let Some(at) = due {
            self.retx_timer = Some(self.timers.arm(at, TimerKind::Retransmit));
        }
    }

    /// Runs until `done(nodes)` holds (checked before the first tick
    /// and after every tick) or `max_ticks` have executed.
    pub fn run_until(&mut self, max_ticks: u64, done: impl FnMut(&[N]) -> bool) -> RunOutcome {
        RoundEngine::run_until(self, max_ticks, done)
    }

    /// Like [`run_until`](Self::run_until), additionally invoking
    /// `observe(tick, nodes)` after every tick.
    pub fn run_observed(
        &mut self,
        max_ticks: u64,
        done: impl FnMut(&[N]) -> bool,
        observe: impl FnMut(u64, &[N]),
    ) -> RunOutcome {
        RoundEngine::run_observed(self, max_ticks, done, observe)
    }
}

impl<N: Node> RoundEngine<N> for EventEngine<N> {
    fn step(&mut self) {
        EventEngine::step(self)
    }

    fn nodes(&self) -> &[N] {
        EventEngine::nodes(self)
    }

    fn round(&self) -> u64 {
        self.now()
    }

    fn metrics(&self) -> &RunMetrics {
        EventEngine::metrics(self)
    }

    fn trace(&self) -> Option<&Trace> {
        EventEngine::trace(self)
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
        let stats = self.core.pool_stats();
        let (fired, cancelled) = self.timers.stats();
        vec![
            ("delay", stats.takes, stats.reuses),
            ("timer", fired, cancelled),
        ]
    }

    fn pool_high_water(&self) -> Vec<(&'static str, u64)> {
        vec![("delay", self.core.pool_high_water_bytes())]
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rd_sim::{Engine, MessageCost, NodeId, RoundContext};

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
