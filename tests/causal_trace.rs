//! End-to-end checks of the causal provenance layer: on a fault-free
//! HM run with full sampling, the critical path extracted from the
//! archive must terminate exactly at the reported final round — the
//! last delivery that completed someone's knowledge *is* the last round
//! of the run — and the `rd-inspect why` narrative must say so. The
//! attribution joins edges with round records, so every round an
//! archive carries must count from 1 alike.

use resource_discovery::core::algorithms::hm::HmConfig;
use resource_discovery::obs::archive;
use resource_discovery::obs::critical_path::{critical_path, why};
use resource_discovery::prelude::*;
use resource_discovery::scenarios::library;
use std::path::Path;

fn traced_run(topo: Topology, n: usize, seed: u64, tag: &str) -> (RunReport, archive::Archive) {
    let dir = std::env::temp_dir().join(format!("rd-causal-e2e-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join(format!("{tag}.jsonl"));
    let spec = ObsSpec::new()
        .with_archive(&path)
        .with_causal_trace(1 << 20, 1_000_000);
    let report = run(
        AlgorithmKind::Hm(HmConfig::default()),
        &RunConfig::new(topo, n, seed)
            .with_max_rounds(2_000)
            .with_obs(spec),
    );
    let text = std::fs::read_to_string(&path).unwrap();
    std::fs::remove_file(&path).ok();
    let problems = archive::validate(&text);
    assert!(problems.is_empty(), "invalid archive: {problems:?}");
    (report, archive::parse(&text).unwrap())
}

#[test]
fn critical_path_terminates_at_the_reported_final_round() {
    for (seed, topo) in [
        (3u64, Topology::Cycle),
        (7, Topology::KOut { k: 3 }),
        (11, Topology::RandomTree),
    ] {
        let (report, parsed) = traced_run(topo, 48, seed, &format!("cp-{seed}"));
        assert!(report.completed, "{topo} did not complete");
        let chain = critical_path(&parsed).expect("fault-free full-sampling run has edges");
        let terminal = chain.last().unwrap();
        // The run ends the round the last node learns its last id; with
        // every message traced, that delivery is the terminal edge.
        assert_eq!(
            terminal.round, report.rounds,
            "{topo}: critical path ends at round {} but the run took {}",
            terminal.round, report.rounds
        );
        // Hops are real deliveries, so the chain fits inside the run
        // and each hop strictly advances the delivery round.
        assert!(chain.len() as u64 <= report.rounds);
        for pair in chain.windows(2) {
            assert!(pair[0].round < pair[1].round, "path rounds must increase");
            assert_eq!(pair[0].node, pair[1].src, "hops must chain by sender");
            assert_eq!(pair[0].id, pair[1].id, "a chain follows one id");
        }
        // No sampling, ample capacity: the trace saw everything.
        let tm = parsed.trace_meta.as_ref().unwrap();
        assert_eq!(tm.sampled_out, 0);
        assert_eq!(tm.overflow, 0);
    }
}

#[test]
fn why_narrative_names_the_final_round() {
    let (report, parsed) = traced_run(Topology::Cycle, 32, 5, "why");
    let text = why(&parsed);
    assert!(
        text.contains(&format!(
            "final round of the run is round {}",
            report.rounds
        )),
        "narrative missing the final round:\n{text}"
    );
    assert!(text.contains("critical path:"), "{text}");
}

fn archived(config: &RunConfig, path: &Path) -> (RunReport, archive::Archive) {
    let report = run(AlgorithmKind::Hm(HmConfig::default()), config);
    let text = std::fs::read_to_string(path).unwrap();
    std::fs::remove_file(path).ok();
    (report, archive::parse(&text).unwrap())
}

#[test]
fn every_round_an_archive_carries_counts_from_one() {
    let dir = std::env::temp_dir().join(format!("rd-rounds-e2e-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join("rounds.jsonl");
    let (topo, n, seed) = (Topology::KOut { k: 3 }, 64, 9);
    let config = RunConfig::new(topo, n, seed).with_obs(ObsSpec::new().with_archive(&path));
    let (report, parsed) = archived(&config, &path);
    assert!(report.completed);

    // One row per step, each carrying the knowledge that step added.
    let labels: Vec<u64> = parsed.rounds.iter().map(|r| r.round).collect();
    assert_eq!(labels, (1..=report.rounds).collect::<Vec<_>>());
    let deltas = parsed.hists.iter().find(|h| h.name == "knowledge_delta");
    assert_eq!(deltas.map(|h| h.count), Some(report.rounds));
    let initial = problem::initial_knowledge(&topo.generate(n, seed));
    let known_at_start: u64 = HmDiscovery::new(HmConfig::default())
        .make_nodes(&initial)
        .iter()
        .map(|s| s.knows_count() as u64)
        .sum();
    let learned: u64 = parsed
        .rounds
        .iter()
        .map(|r| r.knowledge_delta.unwrap())
        .sum();
    assert_eq!(
        learned,
        (n * n) as u64 - known_at_start,
        "everyone knows everyone"
    );

    // partition-heal cuts every message sent in core rounds [2, 2 + 3 lg),
    // retransmissions included: rounds 3..=2 + 3 lg counted from 1.
    let (n, lg) = (64, 6);
    let scenario = library(n, seed)
        .into_iter()
        .find(|s| s.name == "partition-heal")
        .unwrap();
    let kind = AlgorithmKind::Hm(HmConfig::default());
    let config = scenario.run_config(Some(&dir), &kind);
    let path = dir.join(format!("partition-heal-{}.jsonl", kind.name()));
    let (report, parsed) = archived(&config, &path);
    assert!(report.drops.partition > 0, "the cut dropped nothing");
    let window = 3..=2 + 3 * lg;
    let mut dropped = 0;
    for row in parsed.rounds.iter().filter(|r| r.drops.partition > 0) {
        assert!(
            window.contains(&row.round),
            "partition drops in round {}",
            row.round
        );
        dropped += row.drops.partition;
    }
    assert_eq!(dropped, report.drops.partition);
    std::fs::remove_dir_all(&dir).ok();
}
