//! The fault campaigns in which HM digests failure-detector reports
//! (`continuous-churn`, `crash-storm-recovery`) or rides out a
//! partition with retransmissions (`partition-heal`). The counts below
//! were recorded when every node kept a private copy of the report and
//! compared lists; how a node digests the detector's view must not move
//! one of them, on any engine.

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
