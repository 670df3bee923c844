//! Name-Dropper, swamping and pointer doubling ship their whole
//! knowledge as one shared snapshot plus the id the receiver is not
//! charged for (itself). The counts below were recorded before that
//! change, when every send built its own filtered list: a payload shape
//! must not move one of them, on any engine, nor when a lost transfer is
//! sent again.

use resource_discovery::prelude::*;

const N: usize = 256;

const ENGINES: [EngineKind; 3] = [
    EngineKind::Sequential,
    EngineKind::Sharded { workers: 2 },
    EngineKind::Event {
        latency: LatencyModel::Constant { ticks: 1 },
    },
];

fn counts(kind: AlgorithmKind, config: &RunConfig) -> (u64, u64, u64, u64) {
    let report = run(kind, config);
    assert!(report.completed && report.sound, "{report:?}");
    (
        report.rounds,
        report.messages,
        report.pointers,
        report.retransmissions,
    )
}

#[test]
fn payload_shape_moves_no_count_on_any_engine() {
    let recorded = [
        (AlgorithmKind::NameDropper, 1, (19, 4_864, 756_603, 0)),
        (AlgorithmKind::NameDropper, 7, (18, 4_608, 690_711, 0)),
        (AlgorithmKind::NameDropper, 42, (17, 4_352, 623_942, 0)),
        (AlgorithmKind::Swamping, 1, (5, 160_802, 36_347_866, 0)),
        (AlgorithmKind::Swamping, 7, (5, 160_766, 36_332_940, 0)),
        (AlgorithmKind::Swamping, 42, (4, 95_200, 19_610_972, 0)),
        (AlgorithmKind::PointerDoubling, 1, (7, 5_607, 698_943, 0)),
        (AlgorithmKind::PointerDoubling, 7, (7, 5_784, 749_761, 0)),
        (AlgorithmKind::PointerDoubling, 42, (6, 5_353, 655_567, 0)),
    ];
    for (kind, seed, expected) in recorded {
        for engine in ENGINES {
            let config = RunConfig::new(Topology::KOut { k: 3 }, N, seed).with_engine(engine);
            assert_eq!(
                counts(kind, &config),
                expected,
                "{} seed {seed} on {}",
                kind.name(),
                engine.name()
            );
        }
    }
}

/// A transfer that is lost and sent again keeps its destination, so the
/// id it leaves out is still its receiver's own.
#[test]
fn retransmitted_transfers_count_the_same_pointers() {
    let recorded = [
        (AlgorithmKind::NameDropper, (21, 6_519, 768_362, 1_143)),
        (AlgorithmKind::Swamping, (5, 155_321, 27_891_198, 4_187)),
        (
            AlgorithmKind::PointerDoubling,
            (10, 9_303, 1_116_072, 1_532),
        ),
    ];
    for (kind, expected) in recorded {
        for engine in ENGINES {
            let config = RunConfig::new(Topology::KOut { k: 3 }, N, 42)
                .with_engine(engine)
                .with_faults(FaultPlan::new().with_drop_probability(0.2))
                .with_reliable_delivery(RetryPolicy::default())
                .with_max_rounds(10_000);
            let got = counts(kind, &config);
            assert!(got.3 > 0, "the plan must lose some transfers");
            assert_eq!(got, expected, "{} on {}", kind.name(), engine.name());
        }
    }
}
