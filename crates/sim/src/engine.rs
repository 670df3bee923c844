//! The round shell every engine shares, the [`RoundEngine`] interface
//! over it, and the serial engine.

use crate::engine_core::{one_mailbox, step_shard, EngineCore, RetryPolicy};
use crate::faults::FaultPlan;
use crate::latency::LatencyModel;
use crate::message::Envelope;
use crate::metrics::{round_obs, RunMetrics};
use crate::node::Node;
use rd_obs::{CausalTrace, Phase, Recorder};
use std::time::Instant;

/// Result of [`RoundEngine::run_until`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RunOutcome {
    /// Whether the completion predicate became true within the round
    /// budget.
    pub completed: bool,
    /// Rounds executed when the run stopped.
    pub rounds: u64,
}

/// Runs `work` and, when a recorder is attached, records it as a
/// lane-0 span of `phase`. Without a recorder this costs one branch and
/// never reads a clock.
pub fn timed_phase<R>(
    obs: Option<&mut Recorder>,
    phase: Phase,
    round: u64,
    work: impl FnOnce() -> R,
) -> R {
    let start = obs.is_some().then(Instant::now);
    let out = work();
    if let (Some(rec), Some(start)) = (obs, start) {
        rec.span_from(phase, round, 0, start);
    }
    out
}

/// The state and the round protocol every engine shares: the node
/// programs, the [`EngineCore`], the optional telemetry recorder, and
/// the parts of a round that do not depend on how nodes are stepped —
/// opening the round, the serial node loop, serial routing and the
/// close-out. An engine is a [`RoundEngine::step`] body over
/// one of these.
pub struct RoundShell<N: Node> {
    nodes: Vec<N>,
    core: EngineCore<N::Msg>,
    /// Telemetry recorder; `None` (the default) costs one branch per
    /// phase. Strictly outside deterministic state: wall-clock flows
    /// *into* it, never back into the run.
    obs: Option<Recorder>,
}

impl<N: Node> RoundShell<N> {
    /// A shell over `nodes`, where node `i` has identifier
    /// `NodeId::new(i)`. `seed` determines all protocol and fault
    /// randomness.
    pub fn new(nodes: Vec<N>, seed: u64) -> Self {
        let core = EngineCore::new(nodes.len(), seed);
        RoundShell {
            nodes,
            core,
            obs: None,
        }
    }

    /// A shell whose core keeps one mailbox per block of `shard_len`
    /// nodes ([`EngineCore::set_shard_len`]), for an engine that steps
    /// the blocks on separate workers.
    pub fn sharded(nodes: Vec<N>, seed: u64, shard_len: usize) -> Self {
        let mut shell = Self::new(nodes, seed);
        shell.core.set_shard_len(shard_len);
        shell
    }

    /// The core (clock, metrics, queues).
    pub fn core(&self) -> &EngineCore<N::Msg> {
        &self.core
    }

    /// Disjoint borrows of the three parts, for a `step` body that
    /// steps or routes on its own (the node slice cannot be resized, so
    /// the population and the core's mailboxes stay matched).
    pub fn parts_mut(&mut self) -> (&mut [N], &mut EngineCore<N::Msg>, Option<&mut Recorder>) {
        (&mut self.nodes, &mut self.core, self.obs.as_mut())
    }

    /// Opens the round ([`EngineCore::begin_round`]) and returns its
    /// number.
    pub fn begin_round(&mut self) -> u64 {
        if let Some(rec) = &mut self.obs {
            rec.begin_round();
        }
        let round = self.core.round();
        timed_phase(self.obs.as_mut(), Phase::BeginRound, round, || {
            self.core.begin_round()
        })
    }

    /// Steps every live node on the calling thread ([`step_shard`] over
    /// the whole population and its one mailbox), appending its sends to
    /// `staged`; `held` is where a receive cap's leftovers wait.
    ///
    /// # Panics
    ///
    /// Panics if the core was split into more than one shard.
    pub fn step_nodes(
        &mut self,
        staged: &mut Vec<Envelope<N::Msg>>,
        held: &mut Vec<Envelope<N::Msg>>,
    ) {
        let round = self.core.round();
        timed_phase(self.obs.as_mut(), Phase::OnRound, round, || {
            let parts = self.core.route_parts();
            let mailbox = one_mailbox(parts.mailboxes);
            step_shard(parts.ctx, 0, &mut self.nodes, mailbox, staged, held);
        });
    }

    /// Routes `staged` on the calling thread
    /// ([`EngineCore::route_batch`]) as the round's [`Phase::RouteShard`]
    /// span.
    pub fn route(&mut self, staged: &mut Vec<Envelope<N::Msg>>) {
        let round = self.core.round();
        timed_phase(self.obs.as_mut(), Phase::RouteShard, round, || {
            self.core.route_batch(staged)
        });
    }

    /// Closes the round: the retransmission attempts that are due are
    /// made ([`EngineCore::retransmit_due`]), the clock advances, and the
    /// closed metrics row goes to the recorder.
    pub fn close_round(&mut self) {
        let round = self.core.round();
        timed_phase(self.obs.as_mut(), Phase::FinishRound, round, || {
            self.core.retransmit_due();
            self.core.finish_round();
        });
        if let Some(rec) = &mut self.obs {
            // Under profiling, the recorder's own round-close
            // bookkeeping is timed as a `Telemetry` span so the
            // profiler's self-cost shows up in the attribution instead
            // of inflating the unattributed remainder.
            let t_tel = rec.profiling_enabled().then(Instant::now);
            let row = *self.core.metrics().rounds().last().expect("open round row");
            rec.end_round(round_obs(round, &row));
            if let Some(t) = t_tel {
                rec.span_from(Phase::Telemetry, round, 0, t);
            }
        }
    }
}

/// The interface of every execution engine: configure it, step rounds,
/// observe nodes, read the clock and the complexity record.
///
/// An engine supplies [`step`](Self::step) and access to its
/// [`RoundShell`]; every builder, accessor and run loop below is
/// provided once, over the shell, so [`Engine`] and the sharded engine
/// in `rd-exec` cannot differ in any of them — and runners, experiments
/// and completion predicates are engine-agnostic.
pub trait RoundEngine<N: Node>: Sized {
    /// Executes one round: delivers current mail, runs every live
    /// node, and routes outboxes through the fault layer.
    fn step(&mut self);

    /// The shared state this engine steps.
    fn shell(&self) -> &RoundShell<N>;

    /// Mutable access to the shared state.
    fn shell_mut(&mut self) -> &mut RoundShell<N>;

    /// Attaches a telemetry [`Recorder`]: phases are timed, rounds are
    /// archived, and the recorder writes its archive at run end. Purely
    /// observational — a run with a recorder is bit-identical to the
    /// same run without one, on every engine and worker count.
    fn with_obs(mut self, mut recorder: Recorder) -> Self {
        // One-time message-cost registration: the profiler attributes
        // per-kind byte costs at finish from these constants plus the
        // deterministic round counters (no-op unless profiling is on).
        recorder.profile_msg_kind(
            crate::short_type_name::<N::Msg>(),
            std::mem::size_of::<Envelope<N::Msg>>() as u64,
            std::mem::size_of::<crate::NodeId>() as u64,
        );
        self.shell_mut().obs = Some(recorder);
        self
    }

    /// Installs a fault plan (drops, crashes, partitions).
    ///
    /// # Panics
    ///
    /// Panics if the plan crashes a node index that does not exist.
    fn with_faults(mut self, faults: FaultPlan) -> Self {
        self.shell_mut().core.set_faults(faults);
        self
    }

    /// Attaches a causal knowledge-provenance trace: the routing phase
    /// records, per `(id, node)` pair, the first delivered message that
    /// could have taught `node` about `id` (deterministically sampled
    /// at the trace's ppm rate, offers folded in canonical shard
    /// order). Purely observational — a run with the trace is
    /// bit-identical to the same run without it.
    fn with_causal_trace(mut self, causal: CausalTrace) -> Self {
        self.shell_mut().core.set_causal(causal);
        self
    }

    /// Caps deliveries at `cap` messages per node per round; excess
    /// messages queue (in arrival order) for later rounds. Models the
    /// *connection bottleneck* of bandwidth-limited networks: protocols
    /// whose hot spots (e.g. a popular merge target) rely on unbounded
    /// fan-in slow down accordingly.
    ///
    /// # Panics
    ///
    /// Panics if `cap == 0` (nothing could ever be delivered).
    fn with_receive_cap(mut self, cap: usize) -> Self {
        self.shell_mut().core.set_receive_cap(cap);
        self
    }

    /// Draws every transmission's latency from `latency`, retransmission
    /// attempts included, on the message's own counter-based axes. Under
    /// any model but the default `const:1` the round counter reads as
    /// ticks of simulated time, and the synchronized phase structure of
    /// round-based protocols is scrambled to the model's measure.
    ///
    /// # Panics
    ///
    /// Panics if the model's parameters are invalid (see
    /// [`LatencyModel::validate`]).
    fn with_latency(mut self, latency: LatencyModel) -> Self {
        self.shell_mut().core.set_latency(latency);
        self
    }

    /// Enables reliable delivery: every dropped message is
    /// retransmitted under `policy` (per-message timeout, capped
    /// exponential backoff, bounded retry budget), with every attempt
    /// charged against the message-complexity metrics. Attempts are
    /// made serially at round close, so they stay bit-identical across
    /// engines and worker counts.
    ///
    /// # Panics
    ///
    /// Panics if the policy's timeout or retry budget is 0.
    fn with_reliable_delivery(mut self, policy: RetryPolicy) -> Self {
        self.shell_mut().core.set_reliable(policy);
        self
    }

    /// Number of nodes.
    fn node_count(&self) -> usize {
        self.shell().nodes.len()
    }

    /// Read access to the node programs (for completion predicates,
    /// verification, and white-box observations such as cluster counts).
    fn nodes(&self) -> &[N] {
        &self.shell().nodes
    }

    /// Rounds executed so far.
    fn round(&self) -> u64 {
        self.shell().core.round()
    }

    /// The complexity record.
    fn metrics<'a>(&'a self) -> &'a RunMetrics
    where
        N: 'a,
    {
        self.shell().core.metrics()
    }

    /// The causal knowledge-provenance trace, if enabled. Like the
    /// recorder, it is write-only from the engine's side and never
    /// feeds back into protocol execution.
    fn causal<'a>(&'a self) -> Option<&'a CausalTrace>
    where
        N: 'a,
    {
        self.shell().core.causal()
    }

    /// Detaches the causal provenance trace so the driver can archive
    /// it after the run.
    fn take_causal(&mut self) -> Option<CausalTrace> {
        self.shell_mut().core.take_causal()
    }

    /// The attached telemetry recorder, if observability is enabled.
    /// Strictly write-only from the engine's side: recorder state never
    /// feeds back into protocol execution.
    fn obs_mut<'a>(&'a mut self) -> Option<&'a mut Recorder>
    where
        N: 'a,
    {
        self.shell_mut().obs.as_mut()
    }

    /// Detaches the recorder so the driver can call
    /// [`Recorder::finish`] after the run.
    fn take_obs(&mut self) -> Option<Recorder> {
        self.shell_mut().obs.take()
    }

    /// Always empty: engines keep their buffers across rounds as fields,
    /// not in a free list, so there are no pool counters to export. Kept
    /// because the frozen `benchmark/` package still calls it.
    fn pool_counters(&self) -> Vec<(&'static str, u64, u64)> {
        Vec::new()
    }

    /// Always empty, like [`pool_counters`](Self::pool_counters), and
    /// kept for the same caller.
    fn pool_high_water(&self) -> Vec<(&'static str, u64)> {
        Vec::new()
    }

    /// Runs until `done(nodes)` holds (checked before the first round and
    /// after every round) or `max_rounds` have executed.
    fn run_until(&mut self, max_rounds: u64, mut done: impl FnMut(&[N]) -> bool) -> RunOutcome {
        self.run_observed(max_rounds, &mut done, |_, _| {})
    }

    /// Like [`run_until`](Self::run_until), additionally invoking
    /// `observe(round, nodes)` after every round — the per-round progress
    /// hook white-box experiments (e.g. cluster-count evolution, figure
    /// F3) and long-run progress reporting use.
    fn run_observed(
        &mut self,
        max_rounds: u64,
        mut done: impl FnMut(&[N]) -> bool,
        mut observe: impl FnMut(u64, &[N]),
    ) -> RunOutcome {
        let mut completed = done(self.nodes());
        while !completed && self.round() < max_rounds {
            self.step();
            observe(self.round(), self.nodes());
            completed = done(self.nodes());
        }
        RunOutcome {
            completed,
            rounds: self.round(),
        }
    }
}

/// Drives a population of [`Node`] programs through rounds on the
/// calling thread.
///
/// Per round, the engine hands every live node its inbox (messages
/// whose arrival tick has come) together with a deterministic
/// per-`(seed, node, round)` random generator, then routes the node's
/// outbox through the fault layer, accounting every message in
/// [`RunMetrics`]. Under the default [`LatencyModel`], `const:1`, that
/// is the paper's synchronous round; under any other
/// ([`RoundEngine::with_latency`]) a round reads as one tick of
/// simulated time. Builders, accessors and run loops are
/// [`RoundEngine`] methods.
///
/// See the crate-level documentation for a complete example.
pub struct Engine<N: Node> {
    shell: RoundShell<N>,
    /// Round-persistent staging buffer for outgoing envelopes; drained
    /// by routing, so its allocation is reused every round.
    staged: Vec<Envelope<N::Msg>>,
    /// Round-persistent buffer for the mail a receive cap holds back.
    held: Vec<Envelope<N::Msg>>,
}

impl<N: Node> Engine<N> {
    /// Creates an engine over `nodes` under `const:1` latency, where
    /// node `i` has identifier `NodeId::new(i)`. `seed` determines all
    /// protocol, fault and latency randomness.
    pub fn new(nodes: Vec<N>, seed: u64) -> Self {
        Engine {
            shell: RoundShell::new(nodes, seed),
            staged: Vec::new(),
            held: Vec::new(),
        }
    }
}

impl<N: Node> RoundEngine<N> for Engine<N> {
    fn step(&mut self) {
        self.shell.begin_round();
        self.shell.step_nodes(&mut self.staged, &mut self.held);
        self.shell.route(&mut self.staged);
        self.shell.close_round();
    }

    fn shell(&self) -> &RoundShell<N> {
        &self.shell
    }

    fn shell_mut(&mut self) -> &mut RoundShell<N> {
        &mut self.shell
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::id::NodeId;
    use crate::message::MessageCost;
    use crate::node::{Inbox, RoundContext};

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

    impl Node for RingRelay {
        type Msg = Ids;
        fn on_round(&mut self, inbox: Inbox<'_, Ids>, ctx: &mut RoundContext<'_, Ids>) {
            if ctx.round() == 0 && ctx.id() == NodeId::new(0) {
                self.has_token = true;
            }
            for env in inbox {
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

    #[test]
    fn ring_broadcast_takes_n_rounds() {
        // Node i first processes the token in round i, so the last node
        // holds it only after the n-th step.
        let mut engine = Engine::new(ring(8), 1);
        let outcome = engine.run_until(100, |nodes| nodes.iter().all(|r| r.has_token));
        assert!(outcome.completed);
        assert_eq!(outcome.rounds, 8);
        // Every node forwarded exactly once; the last delivery closes the
        // ring back to node 0.
        assert_eq!(engine.metrics().total_messages(), 8);
        assert_eq!(engine.metrics().total_pointers(), 8);
    }

    #[test]
    fn completion_checked_before_first_round() {
        let mut engine = Engine::new(ring(4), 1);
        let outcome = engine.run_until(100, |_| true);
        assert!(outcome.completed);
        assert_eq!(outcome.rounds, 0);
        assert_eq!(engine.metrics().round_count(), 0);
    }

    #[test]
    fn round_budget_is_respected() {
        let mut engine = Engine::new(ring(8), 1);
        let outcome = engine.run_until(3, |_| false);
        assert!(!outcome.completed);
        assert_eq!(outcome.rounds, 3);
    }

    #[test]
    fn identical_seeds_replay_identically() {
        let run = |seed| {
            let mut e = Engine::new(ring(16), seed);
            let o = e.run_until(64, |nodes| nodes.iter().all(|r| r.has_token));
            (
                o,
                e.metrics().total_messages(),
                e.metrics().total_pointers(),
            )
        };
        assert_eq!(run(7), run(7));
    }

    #[test]
    fn crashed_node_breaks_the_ring() {
        let mut engine = Engine::new(ring(8), 1).with_faults(FaultPlan::new().with_crashes([4]));
        let outcome = engine.run_until(100, |nodes| nodes.iter().all(|r| r.has_token));
        assert!(!outcome.completed);
        // Token reached nodes 1..4 then died at the crashed node.
        let have: Vec<bool> = engine.nodes().iter().map(|r| r.has_token).collect();
        assert_eq!(
            have,
            vec![true, true, true, true, false, false, false, false]
        );
        assert_eq!(engine.metrics().total_dropped(), 1);
    }

    #[test]
    fn drops_slow_but_are_accounted() {
        // With a ring, a single drop halts the broadcast: use it to check
        // drop accounting end-to-end at p close to 1.
        let mut engine =
            Engine::new(ring(4), 3).with_faults(FaultPlan::new().with_drop_probability(0.999));
        let outcome = engine.run_until(10, |nodes| nodes.iter().all(|r| r.has_token));
        assert!(!outcome.completed);
        assert!(engine.metrics().total_dropped() >= 1);
    }

    #[test]
    fn observer_sees_every_round() {
        let mut engine = Engine::new(ring(5), 1);
        let mut observed = Vec::new();
        engine.run_observed(
            100,
            |nodes| nodes.iter().all(|r| r.has_token),
            |round, nodes| observed.push((round, nodes.iter().filter(|r| r.has_token).count())),
        );
        assert_eq!(observed.len(), 5);
        assert_eq!(observed.first(), Some(&(1, 1)));
        assert_eq!(observed.last(), Some(&(5, 5)));
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn crashing_nonexistent_node_rejected() {
        let _ = Engine::new(ring(2), 1).with_faults(FaultPlan::new().with_crashes([9]));
    }

    #[test]
    fn dynamic_crash_kills_mid_run() {
        // Node 4 dies at round 3: the token (which reaches it in round 4)
        // is lost in flight.
        let mut engine = Engine::new(ring(8), 1).with_faults(FaultPlan::new().with_crash_at(4, 3));
        let outcome = engine.run_until(100, |nodes| nodes.iter().all(|r| r.has_token));
        assert!(!outcome.completed);
        let have: Vec<bool> = engine.nodes().iter().map(|r| r.has_token).collect();
        assert_eq!(
            have,
            vec![true, true, true, true, false, false, false, false]
        );
    }

    #[test]
    fn dynamic_crash_after_passing_token_is_harmless() {
        // Node 4 forwards the token in round 4 and dies at round 6: the
        // broadcast still completes.
        let mut engine = Engine::new(ring(8), 1).with_faults(FaultPlan::new().with_crash_at(4, 6));
        let outcome = engine.run_until(100, |nodes| {
            nodes.iter().enumerate().all(|(i, r)| i == 4 || r.has_token)
        });
        assert!(outcome.completed);
    }

    /// Probe used by detector tests: records the suspect reports it sees.
    struct SuspectWatcher {
        seen: Vec<(u64, Vec<NodeId>)>,
    }
    impl Node for SuspectWatcher {
        type Msg = Ids;
        fn on_round(&mut self, _inbox: Inbox<'_, Ids>, ctx: &mut RoundContext<'_, Ids>) {
            self.seen
                .push((ctx.round(), ctx.suspects().list().to_vec()));
        }
    }

    #[test]
    fn detector_reports_each_crash_after_its_latency() {
        let watchers = vec![
            SuspectWatcher { seen: vec![] },
            SuspectWatcher { seen: vec![] },
            SuspectWatcher { seen: vec![] },
        ];
        let mut engine = Engine::new(watchers, 1).with_faults(
            FaultPlan::new()
                .with_crashes([1])
                .with_crash_at(2, 4)
                .with_crash_detection_after(3),
        );
        for _ in 0..10 {
            engine.step();
        }
        let seen = &engine.nodes()[0].seen;
        let at = |round: u64| -> &[NodeId] { &seen.iter().find(|(r, _)| *r == round).unwrap().1 };
        assert!(at(2).is_empty(), "node 1 reported before its latency");
        assert_eq!(at(3), &[NodeId::new(1)]);
        assert_eq!(at(6), &[NodeId::new(1)], "node 2 dies at 4, reported at 7");
        assert_eq!(at(7), &[NodeId::new(1), NodeId::new(2)]);
    }

    #[test]
    fn recovery_plus_reliable_delivery_completes_the_ring() {
        // Node 4 is dead for rounds 2..8, exactly when the token would
        // reach it. Reliable delivery keeps retrying the in-flight hop
        // until node 4 recovers, and the broadcast completes.
        let mut engine = Engine::new(ring(8), 1)
            .with_faults(FaultPlan::new().with_crash_at(4, 2).with_recovery_at(4, 8))
            .with_reliable_delivery(RetryPolicy {
                timeout: 1,
                max_retries: 8,
                max_backoff: 2,
            });
        let outcome = engine.run_until(100, |nodes| nodes.iter().all(|r| r.has_token));
        assert!(outcome.completed);
        assert!(engine.metrics().total_retransmissions() >= 1);
        assert!(engine.metrics().drop_tally().crash >= 1);
    }

    #[test]
    fn partition_blocks_the_boundary_until_it_heals() {
        let split = || FaultPlan::new().with_partition([vec![0, 1, 2, 3], vec![4, 5, 6, 7]], 0, 6);
        // Best-effort: the 3→4 hop is inside the window and the token
        // dies at the boundary.
        let mut engine = Engine::new(ring(8), 1).with_faults(split());
        let outcome = engine.run_until(100, |nodes| nodes.iter().all(|r| r.has_token));
        assert!(!outcome.completed);
        assert_eq!(engine.metrics().drop_tally().partition, 1);
        // Reliable delivery: a retransmission crosses after the heal.
        let mut engine = Engine::new(ring(8), 1)
            .with_faults(split())
            .with_reliable_delivery(RetryPolicy::default());
        let outcome = engine.run_until(100, |nodes| nodes.iter().all(|r| r.has_token));
        assert!(outcome.completed);
        assert!(engine.metrics().total_retransmissions() >= 1);
    }

    #[test]
    fn recovered_node_resumes_with_its_pre_crash_state() {
        // Node 4 forwards the token in round 4, dies at 5, recovers at
        // 9: the broadcast already completed through it, and its own
        // has_token state survives the outage.
        let mut engine = Engine::new(ring(8), 1)
            .with_faults(FaultPlan::new().with_crash_at(4, 5).with_recovery_at(4, 9));
        let outcome = engine.run_until(100, |nodes| nodes.iter().all(|r| r.has_token));
        assert!(outcome.completed);
        assert!(engine.nodes()[4].has_token);
    }

    #[test]
    fn receive_cap_defers_excess_messages() {
        // Three senders target node 0 in round 0; with cap 1, node 0
        // sees them one per round, oldest first.
        struct Blaster {
            got: Vec<NodeId>,
        }
        impl Node for Blaster {
            type Msg = Ids;
            fn on_round(&mut self, inbox: Inbox<'_, Ids>, ctx: &mut RoundContext<'_, Ids>) {
                for env in inbox {
                    self.got.push(env.src);
                }
                if ctx.round() == 0 && ctx.id() != NodeId::new(0) {
                    ctx.send(NodeId::new(0), Ids(vec![]));
                }
            }
        }
        let nodes = (0..4).map(|_| Blaster { got: vec![] }).collect();
        let mut engine = Engine::new(nodes, 1).with_receive_cap(1);
        for _ in 0..5 {
            engine.step();
        }
        assert_eq!(
            engine.nodes()[0].got,
            vec![NodeId::new(1), NodeId::new(2), NodeId::new(3)]
        );
        // Uncapped, all three arrive in round 1 together.
        let nodes = (0..4).map(|_| Blaster { got: vec![] }).collect();
        let mut engine = Engine::new(nodes, 1);
        engine.step();
        engine.step();
        assert_eq!(engine.nodes()[0].got.len(), 3);
    }

    #[test]
    #[should_panic(expected = "never deliver")]
    fn zero_receive_cap_rejected() {
        let _ = Engine::new(ring(2), 1).with_receive_cap(0);
    }

    #[test]
    fn uniform_delays_preserve_delivery_and_determinism() {
        // The ring broadcast still completes under heavy jitter, just
        // slower, and identically for identical seeds.
        let run = |seed: u64| {
            let mut e =
                Engine::new(ring(8), seed).with_latency(LatencyModel::Uniform { min: 1, max: 5 });
            let o = e.run_until(200, |nodes| nodes.iter().all(|r| r.has_token));
            (o, e.metrics().total_messages())
        };
        let (outcome, messages) = run(5);
        assert!(outcome.completed);
        assert_eq!(messages, 8, "no message may be lost to delay");
        assert!(outcome.rounds >= 8, "jitter cannot beat the sync time");
        assert_eq!(run(5), run(5));
    }

    fn all_have_token(nodes: &[RingRelay]) -> bool {
        nodes.iter().all(|r| r.has_token)
    }

    #[test]
    fn constant_latency_stretches_time_proportionally() {
        // Each ring hop takes 3 ticks instead of 1: the last of 4 nodes
        // first processes the token at tick 9, i.e. on the 10th step.
        let mut engine = Engine::new(ring(4), 1).with_latency(LatencyModel::Constant { ticks: 3 });
        let outcome = engine.run_until(100, all_have_token);
        assert!(outcome.completed);
        assert_eq!(outcome.rounds, 10);
        assert_eq!(engine.metrics().total_messages(), 4);
    }

    #[test]
    fn asymmetric_links_are_directional() {
        // A 2-node ping over both directions: 0→1 takes 1 tick, 1→0
        // takes 5. The round trip therefore completes at tick 6.
        struct Pong {
            start: bool,
            got: Vec<u64>,
        }
        impl Node for Pong {
            type Msg = Ids;
            fn on_round(&mut self, inbox: Inbox<'_, Ids>, ctx: &mut RoundContext<'_, Ids>) {
                for env in inbox {
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
        let nodes = [true, false].map(|start| Pong { start, got: vec![] });
        let model = LatencyModel::Asymmetric {
            forward: 1,
            backward: 5,
        };
        let mut engine = Engine::new(nodes.into(), 3).with_latency(model);
        for _ in 0..8 {
            engine.step();
        }
        assert_eq!(engine.nodes()[1].got, vec![1], "0→1 took one tick");
        assert_eq!(engine.nodes()[0].got, vec![6], "1→0 took five ticks");
    }

    #[test]
    fn heavy_tail_draws_preserve_every_message() {
        let model = LatencyModel::LogNormal {
            mu_milli: 1200,
            sigma_milli: 900,
            cap: 24,
        };
        let mut engine = Engine::new(ring(8), 9).with_latency(model);
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
    fn reliable_delivery_retries_under_a_latency_model() {
        // Node 1 is dead for ticks 1..8, when the token reaches it;
        // retransmissions, their latencies drawn from the model, recover
        // the broadcast.
        let faults = FaultPlan::new().with_crash_at(1, 1).with_recovery_at(1, 8);
        let policy = RetryPolicy {
            timeout: 2,
            max_retries: 8,
            max_backoff: 4,
        };
        let mut engine = Engine::new(ring(4), 1)
            .with_latency(LatencyModel::Uniform { min: 1, max: 3 })
            .with_faults(faults)
            .with_reliable_delivery(policy);
        let outcome = engine.run_until(100, all_have_token);
        assert!(outcome.completed);
        assert!(engine.metrics().total_retransmissions() >= 1);
        assert!(engine.metrics().drop_tally().crash >= 1);
    }

    #[test]
    #[should_panic(expected = "invalid latency model")]
    fn invalid_latency_model_is_rejected() {
        let _ = Engine::new(ring(2), 1).with_latency(LatencyModel::Constant { ticks: 0 });
    }

    #[test]
    fn no_detector_means_no_reports() {
        let watchers = vec![
            SuspectWatcher { seen: vec![] },
            SuspectWatcher { seen: vec![] },
        ];
        let mut engine = Engine::new(watchers, 1).with_faults(FaultPlan::new().with_crashes([1]));
        for _ in 0..5 {
            engine.step();
        }
        assert!(engine.nodes()[0].seen.iter().all(|(_, s)| s.is_empty()));
    }
}
