//! Cross-engine equivalence: on any instance — random topology, seed,
//! fault plan, delivery knobs — the sharded `rd-exec` engine must be
//! **bit-identical** to the sequential `rd-sim` engine for every
//! algorithm in the suite: same `RunOutcome`, same full per-round
//! `RunMetrics` (every per-node lane included), same final knowledge.
//!
//! This is the load-bearing test for the parallel substrate: it pins the
//! determinism contract (per-`(seed, node, round)` node randomness,
//! counter-based per-`(seed, src, round, sequence)` message fates,
//! canonical `(sender, sequence)` delivery order) that lets every
//! experiment opt into the sharded engine without changing a single
//! measured number.
//!
//! A second, oracle-backed property pins the *delivery policy* itself:
//! with a receive cap and a uniform latency model active together, every
//! message's arrival is recomputed independently via
//! [`LatencyModel::sample`] and [`fate`], and the capped backlog
//! must drain in arrival order with nothing lost or duplicated.

use proptest::prelude::*;
use resource_discovery::core::algorithms::hm::HmConfig;
use resource_discovery::core::algorithms::{
    Flooding, HmDiscovery, NameDropper, PointerDoubling, RandomPointerJump, Swamping,
};
use resource_discovery::core::{problem, DiscoveryAlgorithm, KnowledgeView};
use resource_discovery::exec::ShardedEngine;
use resource_discovery::prelude::*;
use resource_discovery::sim::Node;
use resource_discovery::sim::{fate, Inbox, MessageCost, NodeId, RoundContext};
use std::collections::HashMap;

/// Rounds during which [`Chatter`] nodes transmit.
const SEND_ROUNDS: u64 = 4;
/// Messages each live node sends per transmitting round.
const FAN_OUT: u64 = 3;

/// Unique tag of the `k`-th message node `src` sends in `round`.
fn chatter_tag(src: usize, round: u64, k: u64) -> u64 {
    ((src as u64) << 32) | (round << 8) | k
}

/// Zero-pointer payload carrying only its identifying tag.
#[derive(Clone, Debug)]
struct Tag(u64);

impl MessageCost for Tag {
    fn pointers(&self) -> usize {
        0
    }
}

/// Deterministic chatter node for the delivery-policy oracle: sends a
/// fixed fan-out of uniquely tagged messages for the first
/// [`SEND_ROUNDS`] rounds and records every receipt together with the
/// round in which it was processed.
#[derive(Clone)]
struct Chatter {
    me: usize,
    n: usize,
    cap: usize,
    /// `(round processed, tag)` in processing order.
    receipts: Vec<(u64, u64)>,
}

impl Node for Chatter {
    type Msg = Tag;

    fn on_round(&mut self, inbox: Inbox<'_, Tag>, ctx: &mut RoundContext<'_, Tag>) {
        assert!(
            inbox.len() <= self.cap,
            "receive cap violated: {} > {}",
            inbox.len(),
            self.cap
        );
        let round = ctx.round();
        for env in inbox {
            self.receipts.push((round, env.payload.0));
        }
        if round < SEND_ROUNDS && self.n > 1 {
            for k in 0..FAN_OUT {
                let dst = (self.me + 1 + ((round + k) as usize % (self.n - 1))) % self.n;
                ctx.send(NodeId::new(dst as u32), Tag(chatter_tag(self.me, round, k)));
            }
        }
    }
}

/// One random engine-facing configuration.
#[derive(Debug, Clone)]
struct Instance {
    topo: Topology,
    n: usize,
    seed: u64,
    faults: FaultPlan,
    reliable: Option<RetryPolicy>,
    receive_cap: Option<usize>,
    /// `const:1`, or `uniform:1:(1+j)` for a jitter `j` of 1 or 2.
    latency: LatencyModel,
    workers: usize,
}

fn arb_topology() -> impl Strategy<Value = Topology> {
    prop_oneof![
        Just(Topology::Cycle),
        Just(Topology::Path),
        Just(Topology::RandomTree),
        (2usize..5).prop_map(|k| Topology::KOut { k }),
        (2usize..6).prop_map(|avg_degree| Topology::ErdosRenyi { avg_degree }),
        (2usize..6).prop_map(|cliques| Topology::CliqueChain { cliques }),
    ]
}

fn arb_instance() -> impl Strategy<Value = Instance> {
    (
        arb_topology(),
        8usize..40,
        any::<u64>(),
        (0u32..3, 0usize..3, 0u64..16, 0u64..2),
        (0usize..3, 0u64..3, 2usize..9),
        (0u32..2, 0u32..2, 0u32..2, 0u32..2, 0u32..2, 0u32..2),
    )
        .prop_map(
            |(
                topo,
                n,
                seed,
                (drop_decipct, crashes, crash_at, detect),
                (cap, delay, workers),
                (recover, partition, reliable, churn, link_loss, suppression),
            )| {
                let mut faults = FaultPlan::new().with_drop_probability(drop_decipct as f64 / 10.0);
                for c in 0..crashes {
                    // Dependent draw: fold the free-range crash seed onto
                    // valid node indices, spread across the population.
                    let node = (seed.rotate_left(c as u32 * 7) as usize + c * 5) % n;
                    faults = faults.with_crash_at(node, crash_at + c as u64);
                }
                if recover == 1 && crashes > 0 {
                    // The `c = 0` crash (earliest round for its node)
                    // becomes a crash-recovery window.
                    let node = (seed as usize) % n;
                    faults = faults.with_recovery_at(node, crash_at + 3);
                }
                if partition == 1 {
                    // Split the population in half for a few rounds.
                    let cut = n / 2;
                    faults = faults.with_partition(
                        [(0..cut).collect::<Vec<_>>(), (cut..n).collect::<Vec<_>>()],
                        1,
                        5,
                    );
                }
                if detect == 1 && crashes > 0 {
                    faults = faults.with_crash_detection_after(3);
                }
                if churn == 1 {
                    // A short transient-nap regime early in the run:
                    // heavy enough to exercise the liveness gates on
                    // every engine, bounded so runs still converge.
                    faults = faults.with_churn(ChurnSpec::new(seed ^ 0x6368, 1, 11, 4, 2, 350_000));
                }
                if link_loss == 1 {
                    faults =
                        faults.with_link_loss(LinkLossSpec::new(seed ^ 0x6c6e, 250_000, 400_000));
                }
                if suppression == 1 {
                    // A handful of directed edges spread over the
                    // population, fully blocked for a short window.
                    let edges: Vec<(usize, usize)> = (0..3usize)
                        .map(|i| ((i * 2) % n, (i * 2 + 3) % n))
                        .filter(|(a, b)| a != b)
                        .collect();
                    faults = faults.with_suppression(SuppressionSpec::new(
                        seed ^ 0x7370,
                        edges,
                        1,
                        9,
                        1_000_000,
                    ));
                }
                Instance {
                    topo,
                    n,
                    seed,
                    faults,
                    reliable: (reliable == 1).then_some(RetryPolicy {
                        timeout: 1,
                        max_retries: 3,
                        max_backoff: 4,
                    }),
                    receive_cap: (cap > 0).then_some(cap * 2),
                    latency: match delay {
                        0 => LatencyModel::UNIT,
                        j => LatencyModel::Uniform { min: 1, max: 1 + j },
                    },
                    workers,
                }
            },
        )
}

/// Runs one algorithm on both engines and asserts bit-identical results.
fn assert_equivalent<A>(alg: &A, inst: &Instance) -> Result<(), TestCaseError>
where
    A: DiscoveryAlgorithm,
    A::NodeState: Node + KnowledgeView + Send,
    <A::NodeState as Node>::Msg: Send,
{
    const MAX_ROUNDS: u64 = 1_200;
    let graph = inst.topo.generate(inst.n, inst.seed);
    let initial = problem::initial_knowledge(&graph);

    let configure_seq = |mut e: Engine<A::NodeState>| {
        e = e.with_faults(inst.faults.clone());
        if let Some(cap) = inst.receive_cap {
            e = e.with_receive_cap(cap);
        }
        if let Some(policy) = inst.reliable {
            e = e.with_reliable_delivery(policy);
        }
        e.with_latency(inst.latency)
    };
    let configure_par = |mut e: ShardedEngine<A::NodeState>| {
        e = e.with_faults(inst.faults.clone());
        if let Some(cap) = inst.receive_cap {
            e = e.with_receive_cap(cap);
        }
        if let Some(policy) = inst.reliable {
            e = e.with_reliable_delivery(policy);
        }
        e.with_latency(inst.latency)
    };

    let mut seq = configure_seq(Engine::new(alg.make_nodes(&initial), inst.seed));
    let mut par = configure_par(ShardedEngine::new(
        alg.make_nodes(&initial),
        inst.seed,
        inst.workers,
    ));

    let seq_outcome = seq.run_until(MAX_ROUNDS, problem::everyone_knows_everyone);
    let par_outcome = par.run_until(MAX_ROUNDS, problem::everyone_knows_everyone);

    prop_assert_eq!(seq_outcome, par_outcome, "{}: outcome diverged", alg.name());
    prop_assert_eq!(
        seq.metrics(),
        par.metrics(),
        "{}: metrics diverged",
        alg.name()
    );
    for (i, (s, p)) in seq.nodes().iter().zip(par.nodes()).enumerate() {
        prop_assert_eq!(
            s.knowledge().to_vec(),
            p.knowledge().to_vec(),
            "{}: node {} knowledge diverged",
            alg.name(),
            i
        );
        prop_assert_eq!(
            s.believes_done(),
            p.believes_done(),
            "{}: node {} termination belief diverged",
            alg.name(),
            i
        );
    }
    Ok(())
}

/// Runs one algorithm on the plain engine and on the same engine under
/// `uniform:1:1` and asserts bit-identical results. That model is not
/// `const:1`, so it routes and retransmits through the kernel drawing
/// from the model, yet every draw is one tick: the sampler path must
/// collapse exactly onto the unit-latency path.
fn assert_sampler_equivalent<A>(alg: &A, inst: &Instance) -> Result<(), TestCaseError>
where
    A: DiscoveryAlgorithm,
    A::NodeState: Node + KnowledgeView,
{
    const MAX_ROUNDS: u64 = 1_200;
    let graph = inst.topo.generate(inst.n, inst.seed);
    let initial = problem::initial_knowledge(&graph);

    let configure = |mut e: Engine<A::NodeState>| {
        e = e.with_faults(inst.faults.clone());
        if let Some(cap) = inst.receive_cap {
            e = e.with_receive_cap(cap);
        }
        if let Some(policy) = inst.reliable {
            e = e.with_reliable_delivery(policy);
        }
        e
    };
    let mut unit = configure(Engine::new(alg.make_nodes(&initial), inst.seed));
    let mut sampled = configure(
        Engine::new(alg.make_nodes(&initial), inst.seed)
            .with_latency(LatencyModel::Uniform { min: 1, max: 1 }),
    );

    let unit_outcome = unit.run_until(MAX_ROUNDS, problem::everyone_knows_everyone);
    let sampled_outcome = sampled.run_until(MAX_ROUNDS, problem::everyone_knows_everyone);

    prop_assert_eq!(
        unit_outcome,
        sampled_outcome,
        "{}: outcome diverged",
        alg.name()
    );
    prop_assert_eq!(
        unit.metrics(),
        sampled.metrics(),
        "{}: metrics diverged",
        alg.name()
    );
    for (i, (u, s)) in unit.nodes().iter().zip(sampled.nodes()).enumerate() {
        prop_assert_eq!(
            u.knowledge().to_vec(),
            s.knowledge().to_vec(),
            "{}: node {} knowledge diverged",
            alg.name(),
            i
        );
        prop_assert_eq!(
            u.believes_done(),
            s.believes_done(),
            "{}: node {} termination belief diverged",
            alg.name(),
            i
        );
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// Every algorithm of the historical suite, on both engines, on the
    /// same random instance: identical outcome, metrics and final
    /// knowledge.
    #[test]
    fn engines_are_bit_identical_for_every_algorithm(inst in arb_instance()) {
        assert_equivalent(&Flooding, &inst)?;
        assert_equivalent(&Swamping, &inst)?;
        assert_equivalent(&RandomPointerJump, &inst)?;
        assert_equivalent(&NameDropper, &inst)?;
        assert_equivalent(&PointerDoubling, &inst)?;
        assert_equivalent(&HmDiscovery::new(HmConfig::default()), &inst)?;
    }

    /// A latency model whose every draw is one tick takes the sampler
    /// path and still *is* the unit-latency engine: same outcome,
    /// metrics and final knowledge for every algorithm in the
    /// suite, under faults, receive caps, and reliable delivery.
    #[test]
    fn one_tick_sampler_is_bit_identical_to_unit_latency(inst in arb_instance()) {
        assert_sampler_equivalent(&Flooding, &inst)?;
        assert_sampler_equivalent(&Swamping, &inst)?;
        assert_sampler_equivalent(&RandomPointerJump, &inst)?;
        assert_sampler_equivalent(&NameDropper, &inst)?;
        assert_sampler_equivalent(&PointerDoubling, &inst)?;
        assert_sampler_equivalent(&HmDiscovery::new(HmConfig::default()), &inst)?;
    }

    /// The worker count is a pure performance knob: any two worker
    /// counts give identical runs (not merely sequential-vs-parallel).
    #[test]
    fn worker_count_never_changes_results(
        topo in arb_topology(),
        n in 8usize..48,
        seed in any::<u64>(),
        w1 in 2usize..9,
        w2 in 2usize..9,
    ) {
        let graph = topo.generate(n, seed);
        let initial = problem::initial_knowledge(&graph);
        let alg = HmDiscovery::new(HmConfig::default());
        let mut a = ShardedEngine::new(alg.make_nodes(&initial), seed, w1);
        let mut b = ShardedEngine::new(alg.make_nodes(&initial), seed, w2);
        let oa = a.run_until(1_200, problem::everyone_knows_everyone);
        let ob = b.run_until(1_200, problem::everyone_knows_everyone);
        prop_assert_eq!(oa, ob);
        prop_assert_eq!(a.metrics(), b.metrics());
    }

    /// The engine knob in the runner reports identical `RunReport`s —
    /// the API every sweep and figure goes through.
    #[test]
    fn runner_engine_knob_is_transparent(
        topo in arb_topology(),
        n in 8usize..48,
        seed in any::<u64>(),
        workers in 2usize..9,
    ) {
        for kind in [AlgorithmKind::NameDropper, AlgorithmKind::Hm(HmConfig::default())] {
            let base = RunConfig::new(topo, n, seed).with_max_rounds(1_200);
            let seq = run(kind, &base.clone());
            let par = run(
                kind,
                &base.with_engine(EngineKind::Sharded { workers }),
            );
            prop_assert_eq!(seq, par);
        }
    }
}

/// One model of every latency family, each drawing above one tick.
const LATENCY_FAMILIES: [LatencyModel; 5] = [
    LatencyModel::Constant { ticks: 2 },
    LatencyModel::Uniform { min: 1, max: 4 },
    LatencyModel::LogNormal {
        mu_milli: 500,
        sigma_milli: 800,
        cap: 8,
    },
    LatencyModel::Asymmetric {
        forward: 1,
        backward: 3,
    },
    LatencyModel::Slow {
        base: 1,
        slow: 5,
        frac_ppm: 250_000,
    },
];

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// The sharded engine routes and retransmits under the core's
    /// latency model exactly as the serial engine does: for every
    /// latency family, on two and three workers, under drops and the
    /// instance's other faults with reliable delivery on, the same
    /// outcome, per-round metrics, per-node lanes and final node state.
    #[test]
    fn sharded_engine_matches_serial_under_every_latency_family(inst in arb_instance()) {
        let mut inst = inst;
        if inst.faults.drop_probability() == 0.0 {
            inst.faults = inst.faults.with_drop_probability(0.1);
        }
        inst.reliable.get_or_insert(RetryPolicy {
            timeout: 1,
            max_retries: 3,
            max_backoff: 4,
        });
        for latency in LATENCY_FAMILIES {
            for workers in [2, 3] {
                let inst = Instance { latency, workers, ..inst.clone() };
                assert_equivalent(&NameDropper, &inst)?;
                assert_equivalent(&HmDiscovery::new(HmConfig::default()), &inst)?;
            }
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// Telemetry is strictly outside the determinism boundary: attaching
    /// the run archive changes no field of the `RunReport`, on either
    /// engine — and the archives both engines emit validate and agree
    /// with the report's own numbers.
    #[test]
    fn observability_never_changes_results(
        topo in arb_topology(),
        n in 8usize..40,
        seed in any::<u64>(),
        workers in 2usize..7,
    ) {
        use resource_discovery::obs::archive;
        use std::sync::atomic::{AtomicU64, Ordering};

        static CASE: AtomicU64 = AtomicU64::new(0);
        let dir = std::env::temp_dir().join(format!(
            "rd-obs-prop-{}-{}",
            std::process::id(),
            CASE.fetch_add(1, Ordering::Relaxed)
        ));
        std::fs::create_dir_all(&dir).unwrap();

        let kind = AlgorithmKind::Hm(HmConfig::default());
        let base = RunConfig::new(topo, n, seed).with_max_rounds(1_200);
        let engines = [
            ("seq", EngineKind::Sequential),
            ("par", EngineKind::Sharded { workers }),
        ];

        // Blind runs: all telemetry off.
        let blind: Vec<_> = engines
            .iter()
            .map(|&(_, e)| run(kind, &base.clone().with_engine(e)))
            .collect();
        prop_assert_eq!(&blind[0], &blind[1], "engines diverged before obs");

        for (i, &(tag, engine)) in engines.iter().enumerate() {
            let spec = ObsSpec::new().with_archive(dir.join(format!("{tag}.jsonl")));
            let observed = run(kind, &base.clone().with_engine(engine).with_obs(spec));
            prop_assert_eq!(
                &observed,
                &blind[i],
                "{}: the archive perturbed the run",
                tag
            );

            let text = std::fs::read_to_string(dir.join(format!("{tag}.jsonl"))).unwrap();
            let problems = archive::validate(&text);
            prop_assert!(problems.is_empty(), "{}: invalid archive: {:?}", tag, problems);
            let parsed = archive::parse(&text).unwrap();
            prop_assert_eq!(parsed.outcome.rounds, observed.rounds);
            prop_assert_eq!(parsed.outcome.messages, observed.messages);
            prop_assert_eq!(parsed.outcome.completed, observed.completed);
            prop_assert_eq!(parsed.rounds.len() as u64, observed.rounds);
        }

        // Causal tracing is also outside the boundary: at any sampling
        // rate and any worker count the RunReport stays byte-for-byte
        // the blind run's, and the provenance section of the archive
        // (trace_meta + edge lines) is byte-identical across engines.
        for &ppm in &[250_000u32, 1_000_000] {
            let mut sections: Vec<String> = Vec::new();
            for (tag, engine) in [
                ("cseq".to_string(), EngineKind::Sequential),
                ("cw1".to_string(), EngineKind::Sharded { workers: 1 }),
                ("cw2".to_string(), EngineKind::Sharded { workers: 2 }),
                ("cw4".to_string(), EngineKind::Sharded { workers: 4 }),
            ] {
                let path = dir.join(format!("{tag}-{ppm}.jsonl"));
                let spec = ObsSpec::new()
                    .with_archive(&path)
                    .with_causal_trace(1 << 20, ppm);
                let observed = run(kind, &base.clone().with_engine(engine).with_obs(spec));
                prop_assert_eq!(
                    &observed,
                    &blind[0],
                    "{} @ {} ppm: causal tracing perturbed the run",
                    &tag,
                    ppm
                );
                let text = std::fs::read_to_string(&path).unwrap();
                let problems = archive::validate(&text);
                prop_assert!(
                    problems.is_empty(),
                    "{} @ {} ppm: invalid archive: {:?}",
                    &tag,
                    ppm,
                    problems
                );
                sections.push(
                    text.lines()
                        .filter(|l| {
                            l.starts_with("{\"type\":\"edge\"")
                                || l.starts_with("{\"type\":\"trace_meta\"")
                        })
                        .collect::<Vec<_>>()
                        .join("\n"),
                );
            }
            prop_assert!(
                sections[0].contains("\"type\":\"trace_meta\""),
                "no provenance section at {} ppm",
                ppm
            );
            if ppm == 1_000_000 && blind[0].messages > 0 {
                prop_assert!(
                    sections[0].contains("\"type\":\"edge\""),
                    "full sampling retained no edges"
                );
            }
            for (i, sec) in sections.iter().enumerate().skip(1) {
                prop_assert_eq!(
                    &sections[0],
                    sec,
                    "provenance section diverged (engine {} @ {} ppm)",
                    i,
                    ppm
                );
            }
        }

        // Profiling is also outside the boundary: at every worker count
        // the RunReport stays byte-for-byte the blind run's, and the
        // archive it writes is valid, with a complete profile section.
        for (tag, engine) in [
            ("pw1", EngineKind::Sharded { workers: 1 }),
            ("pw2", EngineKind::Sharded { workers: 2 }),
            ("pw4", EngineKind::Sharded { workers: 4 }),
        ] {
            let path = dir.join(format!("{tag}.jsonl"));
            let spec = ObsSpec::new().with_archive(&path).with_profile();
            let observed = run(kind, &base.clone().with_engine(engine).with_obs(spec));
            prop_assert_eq!(
                &observed,
                &blind[0],
                "{}: profiling perturbed the run",
                tag
            );
            let text = std::fs::read_to_string(&path).unwrap();
            let problems = archive::validate(&text);
            prop_assert!(problems.is_empty(), "{}: invalid archive: {:?}", tag, problems);
            let parsed = archive::parse(&text).unwrap();
            let profile = parsed.profile.as_ref().expect("profile section present");
            // One memory sample per round plus the pre-run baseline.
            prop_assert_eq!(profile.samples, observed.rounds + 1);
            prop_assert!(!profile.phases.is_empty(), "{}: no phase rows", tag);
            prop_assert!(!profile.msgs.is_empty(), "{}: no msg-kind rows", tag);
        }

        // The stderr heartbeat — the one stream out of a run in
        // progress — is also outside the boundary: with it on, the
        // RunReport stays byte-for-byte the blind run's at every worker
        // count, and the archive written beside it validates.
        for (tag, engine) in [
            ("hw1", EngineKind::Sharded { workers: 1 }),
            ("hw2", EngineKind::Sharded { workers: 2 }),
            ("hw4", EngineKind::Sharded { workers: 4 }),
        ] {
            let path = dir.join(format!("{tag}.jsonl"));
            let spec = ObsSpec::new().with_archive(&path).with_heartbeat();
            let observed = run(kind, &base.clone().with_engine(engine).with_obs(spec));
            prop_assert_eq!(
                &observed,
                &blind[0],
                "{}: the heartbeat perturbed the run",
                tag
            );
            let text = std::fs::read_to_string(&path).unwrap();
            let problems = archive::validate(&text);
            prop_assert!(problems.is_empty(), "{}: invalid archive: {:?}", tag, problems);
            let parsed = archive::parse(&text).unwrap();
            prop_assert_eq!(parsed.outcome.rounds, observed.rounds);
            prop_assert_eq!(parsed.outcome.messages, observed.messages);
        }

        std::fs::remove_dir_all(&dir).ok();
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Churn naps are pure in `(seed, node, round)`: two identically
    /// parameterized specs agree on every query, the enumerated nap
    /// windows match the per-round predicate exactly, and nodes are
    /// always up outside the regime. This is the property that lets the
    /// engines evaluate churn lazily, in any order, on any worker.
    #[test]
    fn churn_coins_are_pure_functions(
        seed in any::<u64>(),
        start in 0u64..20,
        span in 1u64..60,
        cycle in 1u64..9,
        down_off in 0u64..8,
        rate in 0u32..=1_000_000,
    ) {
        let down = 1 + down_off % cycle;
        let spec = ChurnSpec::new(seed, start, start + span, cycle, down, rate);
        let again = ChurnSpec::new(seed, start, start + span, cycle, down, rate);
        for node in 0..16usize {
            let naps: Vec<_> = spec.naps(node).collect();
            for round in 0..start + span + 5 {
                let down_now = spec.is_down(node, round);
                prop_assert_eq!(down_now, again.is_down(node, round));
                let in_nap = naps.iter().any(|&(d, u)| round >= d && round < u);
                prop_assert_eq!(
                    down_now, in_nap,
                    "naps() disagrees with is_down at node {}, round {}", node, round
                );
                if round < start || round >= start + span {
                    prop_assert!(!down_now, "node down outside the regime");
                }
            }
        }
    }

    /// Suppression coins are pure in `(seed, src, dst, round)` and
    /// strictly scoped: only listed *directed* edges inside the window
    /// are ever blocked, identically on re-evaluation, and a
    /// `drop_ppm` of one million blocks every listed edge on every
    /// window round.
    #[test]
    fn suppression_coins_are_pure_functions(
        seed in any::<u64>(),
        start in 0u64..10,
        span in 1u64..20,
        drop_ppm in 1u32..=1_000_000,
    ) {
        let edges = vec![(0usize, 3usize), (5, 1), (2, 4)];
        let spec = SuppressionSpec::new(seed, edges.clone(), start, start + span, drop_ppm);
        let again = SuppressionSpec::new(seed, edges.clone(), start, start + span, drop_ppm);
        for round in 0..start + span + 3 {
            for src in 0..6usize {
                for dst in 0..6usize {
                    let blocked = spec.blocks(src, dst, round);
                    prop_assert_eq!(blocked, again.blocks(src, dst, round));
                    if blocked {
                        prop_assert!(edges.contains(&(src, dst)), "unlisted edge blocked");
                        prop_assert!((start..start + span).contains(&round), "blocked outside window");
                    }
                }
            }
        }
        let total = SuppressionSpec::new(seed, edges.clone(), start, start + span, 1_000_000);
        for &(s, d) in &edges {
            for round in start..start + span {
                prop_assert!(total.blocks(s, d, round));
            }
        }
    }

    /// Lossy-link membership is pure in `(seed, src, dst)` and keyed by
    /// the *ordered* pair, so the overlay can model asymmetric links.
    #[test]
    fn link_loss_membership_is_pure(
        seed in any::<u64>(),
        fraction in 1u32..=1_000_000,
        loss in 1u32..1_000_000,
    ) {
        let spec = LinkLossSpec::new(seed, fraction, loss);
        let again = LinkLossSpec::new(seed, fraction, loss);
        let mut lossy = 0usize;
        for src in 0..12usize {
            for dst in 0..12usize {
                prop_assert_eq!(spec.is_lossy(src, dst), again.is_lossy(src, dst));
                lossy += spec.is_lossy(src, dst) as usize;
            }
        }
        if fraction == 1_000_000 {
            prop_assert_eq!(lossy, 144, "full fraction must cover every ordered pair");
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Delivery-policy oracle: with a receive cap and a `uniform:1:(1+d)`
    /// latency active *together*, recompute every message's arrival
    /// independently — [`LatencyModel::sample`] plus [`fate`] —
    /// and check that the capped backlog drains in arrival order —
    /// nothing delivered early, nothing lost, nothing duplicated — and
    /// that both engines agree receipt-for-receipt.
    #[test]
    fn capped_delayed_deliveries_drain_in_arrival_order(
        n in 4usize..10,
        seed in any::<u64>(),
        drop_decipct in 0u32..4,
        cap in 1usize..4,
        delay in 1u64..4,
        workers in 2usize..7,
    ) {
        let drop_p = drop_decipct as f64 / 10.0;
        let make = || -> Vec<Chatter> {
            (0..n)
                .map(|i| Chatter { me: i, n, cap, receipts: Vec::new() })
                .collect()
        };
        let faults = FaultPlan::new().with_drop_probability(drop_p);
        let latency = LatencyModel::Uniform { min: 1, max: 1 + delay };
        let mut seq = Engine::new(make(), seed)
            .with_faults(faults.clone())
            .with_receive_cap(cap)
            .with_latency(latency);
        let mut par = ShardedEngine::new(make(), seed, workers)
            .with_faults(faults)
            .with_receive_cap(cap)
            .with_latency(latency);
        // Enough rounds to land every jittered message and drain the
        // worst-case capped backlog at one message per round.
        let total_rounds = SEND_ROUNDS + delay + (n as u64 * SEND_ROUNDS * FAN_OUT) + 2;
        for _ in 0..total_rounds {
            seq.step();
            RoundEngine::step(&mut par);
        }

        // Both engines agree receipt-for-receipt.
        for (i, (s, p)) in seq.nodes().iter().zip(par.nodes()).enumerate() {
            prop_assert_eq!(&s.receipts, &p.receipts, "node {} receipts diverged", i);
        }
        prop_assert_eq!(seq.metrics(), par.metrics());

        // Oracle: every message's fate, recomputed from first principles.
        let mut expected: Vec<Vec<(u64, u64)>> = vec![Vec::new(); n]; // per dst: (arrival, tag)
        for round in 0..SEND_ROUNDS {
            for src in 0..n {
                for k in 0..FAN_OUT {
                    let dst = (src + 1 + ((round + k) as usize % (n - 1))) % n;
                    let lat = latency.sample(seed, src, dst, round, k, 0);
                    if fate(seed, src, round, k, 0, None, drop_p, DropCause::Coin).is_none() {
                        expected[dst].push((round + lat, chatter_tag(src, round, k)));
                    }
                }
            }
        }
        for (dst, node) in seq.nodes().iter().enumerate() {
            // Nothing lost, nothing duplicated: sorted tag multisets match.
            let mut got: Vec<u64> = node.receipts.iter().map(|&(_, t)| t).collect();
            let mut want: Vec<u64> = expected[dst].iter().map(|&(_, t)| t).collect();
            got.sort_unstable();
            want.sort_unstable();
            prop_assert_eq!(got, want, "node {} lost or duplicated messages", dst);
            // Processed no earlier than arrival, and the capped backlog
            // drains FIFO: arrival rounds never decrease in processing
            // order.
            let arrival: HashMap<u64, u64> =
                expected[dst].iter().map(|&(a, t)| (t, a)).collect();
            let mut prev_arrival = 0u64;
            for &(processed, t) in &node.receipts {
                let a = arrival[&t];
                prop_assert!(
                    processed >= a,
                    "node {} processed tag {:#x} in round {} before its arrival round {}",
                    dst, t, processed, a
                );
                prop_assert!(
                    a >= prev_arrival,
                    "node {} drained out of arrival order (arrival {} after {})",
                    dst, a, prev_arrival
                );
                prev_arrival = a;
            }
        }
    }
}
