//! Integration tests of the fault-injection layer and the protocols'
//! reliability machinery: drops, crashes, and the failure detector.

use resource_discovery::core::algorithms::hm::HmDiscovery;
use resource_discovery::prelude::*;

#[test]
fn hm_survives_heavy_drop_storms() {
    for p in [0.05, 0.15, 0.30] {
        let report = run(
            AlgorithmKind::Hm(HmConfig::default()),
            &RunConfig::new(Topology::KOut { k: 3 }, 128, 7)
                .with_faults(FaultPlan::new().with_drop_probability(p))
                .with_max_rounds(200_000),
        );
        assert!(report.completed, "p={p}: incomplete");
        assert!(report.sound, "p={p}: unsound");
        assert!(report.dropped() > 0, "p={p}: no drops recorded");
    }
}

#[test]
fn drop_storms_slow_hm_down_monotonically_ish() {
    let rounds = |p: f64| {
        run(
            AlgorithmKind::Hm(HmConfig::default()),
            &RunConfig::new(Topology::KOut { k: 3 }, 256, 7)
                .with_faults(FaultPlan::new().with_drop_probability(p))
                .with_max_rounds(200_000),
        )
        .rounds
    };
    let clean = rounds(0.0);
    let stormy = rounds(0.30);
    assert!(
        stormy > clean,
        "drops should cost rounds: {clean} vs {stormy}"
    );
}

#[test]
fn name_dropper_self_heals_under_drops() {
    let report = run(
        AlgorithmKind::NameDropper,
        &RunConfig::new(Topology::Cycle, 96, 3)
            .with_faults(FaultPlan::new().with_drop_probability(0.25))
            .with_max_rounds(200_000),
    );
    assert!(report.completed);
}

#[test]
fn survivors_complete_fully_with_a_failure_detector() {
    let crashed = [5usize, 18, 31, 44, 70];
    let faults = FaultPlan::new()
        .with_crashes(crashed)
        .with_drop_probability(0.05)
        .with_crash_detection_after(24);
    let report = run(
        AlgorithmKind::Hm(HmConfig::default()),
        &RunConfig::new(Topology::KOut { k: 6 }, 96, 5)
            .with_faults(faults)
            .with_max_rounds(200_000),
    );
    assert!(report.completed);
    assert!(report.sound);
}

#[test]
fn detector_latency_only_delays_completion() {
    let rounds_with_delay = |delay: u64| {
        let faults = FaultPlan::new()
            .with_crashes([5usize, 18, 31])
            .with_crash_detection_after(delay);
        let report = run(
            AlgorithmKind::Hm(HmConfig::default()),
            &RunConfig::new(Topology::KOut { k: 6 }, 96, 5)
                .with_faults(faults)
                .with_max_rounds(200_000),
        );
        assert!(report.completed, "delay={delay}");
        report.rounds
    };
    let eager = rounds_with_delay(6);
    let lazy = rounds_with_delay(120);
    assert!(lazy >= eager, "eager={eager} lazy={lazy}");
    assert!(lazy >= 120, "completion cannot precede detection here");
}

#[test]
fn crashed_nodes_never_participate() {
    let g = Topology::Cycle.generate(32, 1);
    let initial = resource_discovery::core::problem::initial_knowledge(&g);
    let nodes = HmDiscovery::default().make_nodes(&initial);
    let mut engine = Engine::new(nodes, 1).with_faults(FaultPlan::new().with_crashes([4usize]));
    engine.run_until(
        5_000,
        |nodes: &[resource_discovery::core::algorithms::hm::HmNode]| {
            resource_discovery::core::problem::leader_knows_all_among(
                nodes,
                &(0..32).map(|i| i != 4).collect::<Vec<bool>>(),
            )
        },
    );
    // A send is charged to its sender's lane whatever its fate, a
    // delivery to its receiver's: the crashed node has neither, and
    // what its neighbours sent it was dropped for the crash.
    let metrics = engine.metrics();
    let crashed = metrics.node_lanes()[4];
    assert_eq!(crashed.sent_messages, 0, "a crashed node sent a message");
    assert_eq!(crashed.recv_messages, 0, "delivery to a crashed node");
    assert!(
        metrics.drop_tally().crash > 0,
        "no send to the crashed node"
    );
}

#[test]
fn drops_are_seed_deterministic() {
    let go = || {
        run(
            AlgorithmKind::Hm(HmConfig::default()),
            &RunConfig::new(Topology::KOut { k: 3 }, 128, 77)
                .with_faults(FaultPlan::new().with_drop_probability(0.10))
                .with_max_rounds(200_000),
        )
    };
    let a = go();
    let b = go();
    assert_eq!(a, b);
    assert!(a.dropped() > 0);
}
