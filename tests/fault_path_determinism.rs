//! The fault campaigns in which HM digests failure-detector reports
//! (`continuous-churn`, `crash-storm-recovery`) or rides out a
//! partition with retransmissions (`partition-heal`). The counts below
//! were recorded when every node kept a private copy of the report and
//! compared lists; how a node digests the detector's view must not move
//! one of them, on any engine.
//!
//! The second table pins the same campaigns under non-unit latency
//! (`event:uniform:1:6`, `event:asym:1:3`), recorded while the event
//! engine still had a routing loop and a retransmission sweep of its
//! own: the one kernel must reproduce them from a latency function.
//! `lognormal` is left out because its draws go through floating point
//! (DESIGN §2.3).
//!
//! The third table pins `continuous-churn` at n = 2^10, where a
//! knowledge set's bitmap is 16 words: sets leave their sorted tier
//! while the run is under way, where at n = 2^8 nearly all of them are
//! 4-word bitmaps within a few rounds. Recorded while the tier was
//! still chosen by count alone; which tier holds an id must not move
//! one count.
//!
//! The fourth table drives two of the campaigns through engines built
//! by hand under a receive cap, which the runner has no option for: at
//! cap 2 the backlog outgrows the round budget, at cap 8 the runs
//! complete. Recorded while every node still had a mailbox of its own;
//! one buffer per shard, sorted by destination, must hand every node
//! the same mail in the same order.

use resource_discovery::core::algorithms::hm::HmNode;
use resource_discovery::prelude::*;
use resource_discovery::scenarios;

const N: usize = 256;

const ENGINES: [EngineKind; 3] = [
    EngineKind::Sequential,
    EngineKind::Sharded { workers: 2 },
    EngineKind::Event {
        latency: LatencyModel::Constant { ticks: 1 },
    },
];

#[test]
fn digesting_the_detector_moves_no_count_on_any_engine() {
    let recorded = [
        ("continuous-churn", 1, (267, 16_085, 165_662, 7_539)),
        ("continuous-churn", 7, (267, 16_040, 163_418, 7_772)),
        ("continuous-churn", 42, (267, 15_093, 159_254, 7_203)),
        ("crash-storm-recovery", 1, (51, 8_239, 181_578, 203)),
        ("crash-storm-recovery", 7, (51, 7_349, 179_684, 210)),
        ("crash-storm-recovery", 42, (51, 7_652, 180_561, 218)),
        ("partition-heal", 1, (45, 12_289, 83_836, 2_242)),
        ("partition-heal", 7, (45, 11_970, 81_852, 2_301)),
        ("partition-heal", 42, (45, 12_045, 82_169, 2_268)),
    ];
    for (name, seed, expected) in recorded {
        let mut scenario = scenarios::select(N, seed, &[name.to_string()])
            .expect("a library campaign")
            .remove(0);
        for engine in ENGINES {
            scenario.engine = engine;
            let kind = scenario.algorithms[0];
            let report = run(kind, &scenario.run_config(None, &kind));
            assert!(report.completed && report.sound, "{report:?}");
            assert_eq!(
                (
                    report.rounds,
                    report.messages,
                    report.pointers,
                    report.retransmissions
                ),
                expected,
                "{name} seed {seed} on {}",
                engine.name()
            );
        }
    }
}

#[test]
fn sets_that_change_tier_mid_run_move_no_count() {
    // (rounds, messages, pointers, retransmissions, drops.total());
    // seed 42 is the `hm_churn_2p10_sharded2` benchmark workload.
    let recorded = [
        (1, (267, 69_552, 2_717_414, 30_892, 34_606)),
        (7, (267, 63_583, 2_631_676, 30_068, 33_715)),
        (42, (267, 65_907, 2_580_988, 31_357, 35_259)),
    ];
    for (seed, expected) in recorded {
        let mut scenario = scenarios::select(1 << 10, seed, &["continuous-churn".to_string()])
            .expect("a library campaign")
            .remove(0);
        for engine in [EngineKind::Sequential, EngineKind::Sharded { workers: 2 }] {
            scenario.engine = engine;
            let kind = scenario.algorithms[0];
            let report = run(kind, &scenario.run_config(None, &kind));
            assert!(report.completed && report.sound, "{report:?}");
            assert_eq!(
                (
                    report.rounds,
                    report.messages,
                    report.pointers,
                    report.retransmissions,
                    report.drops.total()
                ),
                expected,
                "continuous-churn seed {seed} on {}",
                engine.name()
            );
        }
    }
}

#[test]
fn one_routing_kernel_moves_no_count_under_non_unit_latency() {
    let uniform = LatencyModel::Uniform { min: 1, max: 6 };
    let asym = LatencyModel::Asymmetric {
        forward: 1,
        backward: 3,
    };
    // (rounds, messages, pointers, retransmissions, drops.total())
    let recorded = [
        (
            uniform,
            "continuous-churn",
            1,
            (290, 23_032, 356_251, 6_943, 7_747),
        ),
        (
            uniform,
            "continuous-churn",
            7,
            (290, 21_099, 344_425, 7_253, 8_136),
        ),
        (
            uniform,
            "continuous-churn",
            42,
            (296, 22_342, 366_388, 6_759, 7_610),
        ),
        (
            uniform,
            "crash-storm-recovery",
            1,
            (68, 13_598, 208_616, 196, 217),
        ),
        (
            uniform,
            "crash-storm-recovery",
            7,
            (68, 14_003, 208_243, 207, 229),
        ),
        (
            uniform,
            "crash-storm-recovery",
            42,
            (68, 13_818, 210_371, 222, 250),
        ),
        (
            uniform,
            "partition-heal",
            1,
            (74, 19_496, 228_067, 1_839, 1_839),
        ),
        (
            uniform,
            "partition-heal",
            7,
            (74, 20_075, 228_232, 1_861, 1_861),
        ),
        (
            uniform,
            "partition-heal",
            42,
            (74, 19_841, 226_382, 1_814, 1_814),
        ),
        (
            asym,
            "continuous-churn",
            1,
            (275, 18_622, 165_512, 7_324, 8_148),
        ),
        (
            asym,
            "continuous-churn",
            7,
            (275, 18_321, 160_712, 7_745, 8_708),
        ),
        (
            asym,
            "continuous-churn",
            42,
            (275, 18_414, 164_032, 7_157, 8_060),
        ),
        (
            asym,
            "crash-storm-recovery",
            1,
            (59, 11_261, 82_817, 228, 253),
        ),
        (
            asym,
            "crash-storm-recovery",
            7,
            (59, 10_779, 81_693, 243, 273),
        ),
        (
            asym,
            "crash-storm-recovery",
            42,
            (59, 10_969, 83_210, 248, 280),
        ),
        (
            asym,
            "partition-heal",
            1,
            (53, 16_017, 92_148, 2_094, 2_094),
        ),
        (
            asym,
            "partition-heal",
            7,
            (53, 15_897, 91_554, 2_050, 2_050),
        ),
        (
            asym,
            "partition-heal",
            42,
            (53, 16_072, 93_445, 1_968, 1_968),
        ),
    ];
    for (latency, name, seed, expected) in recorded {
        let mut scenario = scenarios::select(N, seed, &[name.to_string()])
            .expect("a library campaign")
            .remove(0);
        scenario.engine = EngineKind::Event { latency };
        let kind = scenario.algorithms[0];
        let report = run(kind, &scenario.run_config(None, &kind));
        assert!(report.completed && report.sound, "{report:?}");
        assert_eq!(
            (
                report.rounds,
                report.messages,
                report.pointers,
                report.retransmissions,
                report.drops.total()
            ),
            expected,
            "{name} seed {seed} on {}",
            scenario.engine.name()
        );
    }
}

/// Runs `engine` under `config`'s faults, retransmissions and
/// completion predicate with deliveries capped at `cap` a round:
/// `(completed, rounds, messages, pointers, retransmissions,
/// drops.total())`.
fn capped<E: RoundEngine<HmNode>>(
    engine: E,
    config: &RunConfig,
    cap: usize,
) -> (bool, u64, u64, u64, u64, u64) {
    let mut engine = engine
        .with_faults(config.faults.clone())
        .with_receive_cap(cap);
    if let Some(policy) = config.reliable {
        engine = engine.with_reliable_delivery(policy);
    }
    let live: Vec<bool> = (0..config.n)
        .map(|i| !config.faults.is_permanently_crashed(i))
        .collect();
    assert_eq!(config.completion, Completion::EveryoneKnowsEveryone);
    let outcome = engine.run_until(config.max_rounds, |nodes| {
        problem::everyone_knows_everyone_among(nodes, &live)
    });
    let m = engine.metrics();
    (
        outcome.completed,
        outcome.rounds,
        m.total_messages(),
        m.total_pointers(),
        m.total_retransmissions(),
        m.drop_tally().total(),
    )
}

#[test]
fn one_mailbox_per_shard_moves_no_count_under_a_receive_cap() {
    let recorded = [
        (
            "crash-storm-recovery",
            7,
            2,
            (false, 640, 83_110, 952_118, 235, 261),
        ),
        (
            "crash-storm-recovery",
            7,
            8,
            (true, 327, 24_731, 339_700, 234, 259),
        ),
        (
            "crash-storm-recovery",
            42,
            2,
            (false, 640, 81_098, 1_030_826, 250, 283),
        ),
        (
            "crash-storm-recovery",
            42,
            8,
            (true, 195, 17_618, 223_834, 234, 263),
        ),
        (
            "continuous-churn",
            7,
            2,
            (false, 720, 78_298, 1_701_101, 7_606, 8_532),
        ),
        (
            "continuous-churn",
            7,
            8,
            (true, 429, 29_468, 326_635, 7_776, 8_724),
        ),
        (
            "continuous-churn",
            42,
            2,
            (false, 720, 78_799, 1_721_599, 7_074, 7_955),
        ),
        (
            "continuous-churn",
            42,
            8,
            (true, 579, 50_865, 641_559, 7_203, 8_103),
        ),
    ];
    for (name, seed, cap, expected) in recorded {
        let scenario = scenarios::select(N, seed, &[name.to_string()])
            .expect("a library campaign")
            .remove(0);
        let kind = scenario.algorithms[0];
        let AlgorithmKind::Hm(cfg) = kind else {
            panic!("{name} runs HM");
        };
        let config = scenario.run_config(None, &kind);
        let graph = config.topology.generate(config.n, config.seed);
        let initial = problem::initial_knowledge(&graph);
        let alg = HmDiscovery::new(cfg);
        let at = format!("{name} seed {seed} cap {cap}");
        let serial = Engine::new(alg.make_nodes(&initial), config.seed);
        assert_eq!(capped(serial, &config, cap), expected, "{at} on sequential");
        let sharded = ShardedEngine::new(alg.make_nodes(&initial), config.seed, 2);
        assert_eq!(capped(sharded, &config, cap), expected, "{at} on sharded:2");
    }
}
