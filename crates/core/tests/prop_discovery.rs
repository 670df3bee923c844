//! Property-based tests: every algorithm, on arbitrary weakly connected
//! knowledge graphs, completes soundly with monotone knowledge.

use proptest::prelude::*;
use rd_core::algorithms::hm::{HmConfig, HmDiscovery, MergeRule};
use rd_core::algorithms::{Flooding, NameDropper, PointerDoubling};
use rd_core::runner::{run, run_algorithm, AlgorithmKind, RunConfig};
use rd_core::verify::MonotonicityChecker;
use rd_core::{problem, DiscoveryAlgorithm};
use rd_graphs::Topology;
use rd_sim::{Engine, RoundEngine};

fn arb_topology() -> impl Strategy<Value = Topology> {
    prop_oneof![
        Just(Topology::Path),
        Just(Topology::Cycle),
        Just(Topology::StarIn),
        Just(Topology::StarOut),
        Just(Topology::BinaryTree),
        Just(Topology::RandomTree),
        Just(Topology::Grid2d),
        Just(Topology::Hypercube),
        Just(Topology::Lollipop),
        (1usize..5).prop_map(|k| Topology::KOut { k }),
        (1usize..6).prop_map(|avg_degree| Topology::ErdosRenyi { avg_degree }),
        (1usize..12).prop_map(|cliques| Topology::CliqueChain { cliques }),
        (1usize..4).prop_map(|m| Topology::ScaleFree { m }),
    ]
}

fn arb_kind() -> impl Strategy<Value = AlgorithmKind> {
    prop_oneof![
        Just(AlgorithmKind::Flooding),
        Just(AlgorithmKind::NameDropper),
        Just(AlgorithmKind::PointerDoubling),
        Just(AlgorithmKind::Hm(HmConfig::default())),
        Just(AlgorithmKind::Hm(HmConfig {
            merge_rule: MergeRule::RandomAbove,
            ..Default::default()
        })),
        Just(AlgorithmKind::Hm(HmConfig {
            merge_rule: MergeRule::MinAbove,
            ..Default::default()
        })),
        Just(AlgorithmKind::Hm(HmConfig {
            parallel_probes: false,
            ..Default::default()
        })),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Soundness + completeness on arbitrary instances: the single most
    /// important invariant of the whole reproduction.
    #[test]
    fn every_algorithm_completes_soundly(
        kind in arb_kind(),
        topo in arb_topology(),
        n in 1usize..150,
        seed in any::<u64>(),
    ) {
        let report = run(kind, &RunConfig::new(topo, n, seed).with_max_rounds(60_000));
        prop_assert!(report.completed, "{} on {} n={} seed={}", report.algorithm, report.topology, n, seed);
        prop_assert!(report.sound, "{} unsound on {} n={}", report.algorithm, report.topology, n);
    }

    /// Runs are reproducible from their seed alone.
    #[test]
    fn runs_are_deterministic(
        kind in arb_kind(),
        topo in arb_topology(),
        n in 1usize..80,
        seed in any::<u64>(),
    ) {
        let cfg = RunConfig::new(topo, n, seed).with_max_rounds(60_000);
        prop_assert_eq!(run(kind, &cfg), run(kind, &cfg));
    }

    /// Knowledge never shrinks, round over round, for any algorithm.
    #[test]
    fn knowledge_is_monotone(
        topo in arb_topology(),
        n in 2usize..60,
        seed in any::<u64>(),
        which in 0usize..4,
    ) {
        let g = topo.generate(n, seed);
        let initial = problem::initial_knowledge(&g);
        let mut checker = MonotonicityChecker::new();
        macro_rules! check {
            ($alg:expr) => {{
                let nodes = $alg.make_nodes(&initial);
                let mut engine = Engine::new(nodes, seed);
                checker.observe(engine.nodes()).unwrap();
                for _ in 0..60 {
                    engine.step();
                    prop_assert!(checker.observe(engine.nodes()).is_ok());
                }
            }};
        }
        match which {
            0 => check!(Flooding),
            1 => check!(NameDropper),
            2 => check!(PointerDoubling),
            _ => check!(HmDiscovery::default()),
        }
    }

    /// With the failure detector, HM completes among the survivors of
    /// arbitrary crash schedules (whenever the survivor-induced initial
    /// knowledge graph remains weakly connected, which is the
    /// solvability condition).
    #[test]
    fn hm_survives_arbitrary_crash_schedules(
        topo in arb_topology(),
        n in 8usize..80,
        seed in any::<u64>(),
        crash_picks in prop::collection::vec((0usize..80, 0u64..60), 1..5),
        delay in 0u64..30,
    ) {
        let mut faults = rd_sim::FaultPlan::new().with_crash_detection_after(delay);
        for (node, round) in crash_picks {
            faults = faults.with_crash_at(node % n, round);
        }
        // Solvability: survivors must still form a weakly connected
        // knowledge graph (taking only edges between survivors).
        let g = topo.generate(n, seed);
        let live: Vec<usize> = (0..n).filter(|&i| !faults.is_crashed(i)) .collect();
        prop_assume!(live.len() >= 2);
        let index_of: std::collections::HashMap<usize, usize> =
            live.iter().enumerate().map(|(new, &old)| (old, new)).collect();
        let mut induced = rd_graphs::DiGraph::new(live.len());
        for (u, v) in g.iter_edges() {
            if let (Some(&a), Some(&b)) = (index_of.get(&u), index_of.get(&v)) {
                induced.add_edge(a, b);
            }
        }
        prop_assume!(rd_graphs::connectivity::is_weakly_connected(&induced));

        let report = run_algorithm(
            &HmDiscovery::default(),
            &RunConfig::new(topo, n, seed)
                .with_max_rounds(100_000)
                .with_faults(faults),
        );
        prop_assert!(
            report.completed,
            "{} n={} seed={} did not complete among survivors",
            report.topology, n, seed
        );
        prop_assert!(report.sound);
    }

    /// The HM algorithm completes under random message drops.
    #[test]
    fn hm_completes_under_drops(
        topo in arb_topology(),
        n in 2usize..80,
        seed in any::<u64>(),
        drop_pct in 1u32..25,
    ) {
        let faults = rd_sim::FaultPlan::new().with_drop_probability(drop_pct as f64 / 100.0);
        let report = run_algorithm(
            &HmDiscovery::default(),
            &RunConfig::new(topo, n, seed)
                .with_max_rounds(100_000)
                .with_faults(faults),
        );
        prop_assert!(report.completed, "{} n={} seed={} p={}", report.topology, n, seed, drop_pct);
        prop_assert!(report.sound);
    }
}
