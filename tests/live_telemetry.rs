//! End-to-end SLO-monitor coverage through the public runner: a
//! genuinely wedged run (permanent partition, so the completion
//! predicate is unreachable) must fire the `stall` rule exactly once,
//! land it as an `alert` record in the archive AND in the
//! shared [`AlertLog`] side-channel — while the deterministic
//! `RunReport` stays byte-for-byte what a blind run produces.

use resource_discovery::core::runner::{AlertLog, AlertRule, LiveSpec};
use resource_discovery::obs::archive;
use resource_discovery::prelude::*;

const N: usize = 32;
const SEED: u64 = 7;
const STALL_WINDOW: u64 = 20;

/// A run that can never complete: two permanently partitioned halves.
/// Each half converges internally within a few rounds of HM doubling,
/// after which global knowledge is frozen until the budget runs out.
fn wedged_config() -> RunConfig {
    let faults = FaultPlan::new().with_partition([0..N / 2, N / 2..N], 0, 100);
    RunConfig::new(Topology::KOut { k: 3 }, N, SEED)
        .with_max_rounds(100)
        .with_faults(faults)
}

/// A live spec armed with only the stall rule, tightened far below the
/// 10_000-round default so the wedge above trips it within the budget.
fn stall_spec(log: &AlertLog) -> LiveSpec {
    LiveSpec::new()
        .with_rules(vec![AlertRule::Stall {
            window: STALL_WINDOW,
        }])
        .with_log(log.clone())
}

#[test]
fn a_wedged_run_fires_the_stall_alert_into_archive_and_log() {
    let dir = std::env::temp_dir().join(format!("rd-live-stall-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join("wedged.jsonl");

    let log = AlertLog::new();
    let spec = ObsSpec::new()
        .with_archive(&path)
        .with_live(stall_spec(&log));
    let report = run(
        AlgorithmKind::Hm(HmConfig::default()),
        &wedged_config().with_obs(spec),
    );
    assert!(
        !report.completed,
        "a permanently partitioned run must not complete"
    );

    // The side-channel: exactly one latched firing, despite dozens of
    // stagnant rounds after it.
    let alerts = log.snapshot();
    assert_eq!(alerts.len(), 1, "stall rule must latch after first fire");
    assert_eq!(alerts[0].rule, "stall");
    assert!(
        alerts[0].round >= STALL_WINDOW && alerts[0].round < 100,
        "fired at round {} — expected inside the run, after the window",
        alerts[0].round
    );
    assert!((alerts[0].threshold - STALL_WINDOW as f64).abs() < 1e-9);

    // The archive: a valid document whose alert section is the
    // side-channel's, alert for alert.
    let text = std::fs::read_to_string(&path).unwrap();
    let problems = archive::validate(&text);
    assert!(problems.is_empty(), "invalid archive: {problems:?}");
    let parsed = archive::parse(&text).unwrap();
    assert_eq!(parsed.alerts, alerts);
    assert_eq!(parsed.counters["alerts_total"], 1);

    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn a_firing_alert_never_touches_the_run_report() {
    let kind = AlgorithmKind::Hm(HmConfig::default());
    for engine in [EngineKind::Sequential, EngineKind::Sharded { workers: 2 }] {
        let blind = run(kind, &wedged_config().with_engine(engine));
        let log = AlertLog::new();
        let observed = run(
            kind,
            &wedged_config()
                .with_engine(engine)
                .with_obs(ObsSpec::new().with_live(stall_spec(&log))),
        );
        assert!(
            !log.snapshot().is_empty(),
            "the stall rule must actually fire for this check to mean anything"
        );
        assert_eq!(observed, blind, "a fired alert perturbed the RunReport");
    }
}
