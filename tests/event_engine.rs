//! End-to-end contracts of `event:<model>` runs — the engine under a
//! latency model — through the public runner API: replay determinism
//! down to archive bytes, the `latency_model` archive header field, and
//! behaviour only a latency model can express (latency-dependent
//! convergence at identical drop coins).

use resource_discovery::core::algorithms::hm::HmConfig;
use resource_discovery::obs::archive;
use resource_discovery::prelude::*;
use std::path::PathBuf;

fn tmp_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("rd-latency-it-{}-{tag}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

fn event_config(latency: LatencyModel, archive: PathBuf) -> RunConfig {
    RunConfig::new(Topology::KOut { k: 3 }, 192, 7)
        .with_max_rounds(2_000)
        .with_engine(EngineKind::Event { latency })
        .with_obs(ObsSpec::new().with_archive(archive))
}

/// Strips the host-timing telemetry — the only archive content that
/// measures the machine rather than the simulated run, and therefore
/// the only content outside the determinism boundary on *any* engine:
/// per-round `wall_ns`, the `phase`
/// and `worker` span-timing records, the `wall_seconds_total` gauge,
/// and the `*_ns` histograms. Every other byte must replay exactly.
fn without_wall_clock(text: &str) -> String {
    let mut out = String::new();
    for line in text.lines().filter(|l| {
        !(l.starts_with("{\"type\":\"phase\"")
            || l.starts_with("{\"type\":\"worker\"")
            || l.contains("\"name\":\"wall_seconds_total\"")
            || (l.starts_with("{\"type\":\"hist\"") && l.contains("_ns\"")))
    }) {
        let mut rest = line;
        while let Some(i) = rest.find("\"wall_ns") {
            let colon = rest[i..].find(':').unwrap();
            let (head, tail) = rest.split_at(i + colon + 1);
            out.push_str(head);
            let digits = tail.chars().take_while(char::is_ascii_digit).count();
            out.push('0');
            rest = &tail[digits..];
        }
        out.push_str(rest);
        out.push('\n');
    }
    out
}

/// Same seed, same latency model ⇒ byte-identical run archives (modulo
/// the wall-clock fields, which measure the host, not the run). This
/// is the replay contract of the whole subsystem: every latency draw,
/// timer firing, and delivery is a pure function of the run seed.
#[test]
fn same_seed_same_model_means_byte_identical_archives() {
    let dir = tmp_dir("replay");
    for model in [
        LatencyModel::Constant { ticks: 3 },
        LatencyModel::Uniform { min: 1, max: 6 },
        LatencyModel::LogNormal {
            mu_milli: 400,
            sigma_milli: 900,
            cap: 24,
        },
    ] {
        let mut reports = Vec::new();
        let mut texts = Vec::new();
        for pass in 0..2 {
            let path = dir.join(format!("{}-{pass}.jsonl", model.name().replace(':', "-")));
            let report = run(
                AlgorithmKind::Hm(HmConfig::default()),
                &event_config(model, path.clone()),
            );
            reports.push(report);
            texts.push(without_wall_clock(&std::fs::read_to_string(&path).unwrap()));
        }
        assert_eq!(reports[0], reports[1], "{}: report diverged", model.name());
        assert_eq!(
            texts[0],
            texts[1],
            "{}: archive bytes diverged between identical runs",
            model.name()
        );
    }
    std::fs::remove_dir_all(&dir).ok();
}

/// `event:` run archives carry the latency model in their header and
/// still validate; round-engine archives declare it `null`.
#[test]
fn archives_record_the_latency_model() {
    let dir = tmp_dir("header");
    let path = dir.join("event.jsonl");
    run(
        AlgorithmKind::Hm(HmConfig::default()),
        &event_config(LatencyModel::Uniform { min: 1, max: 4 }, path.clone()),
    );
    let text = std::fs::read_to_string(&path).unwrap();
    assert!(archive::validate(&text).is_empty());
    let parsed = archive::parse(&text).unwrap();
    assert_eq!(parsed.meta.engine, "event:uniform:1:4");
    assert_eq!(parsed.meta.latency_model.as_deref(), Some("uniform:1:4"));

    let seq_path = dir.join("seq.jsonl");
    run(
        AlgorithmKind::Hm(HmConfig::default()),
        &RunConfig::new(Topology::KOut { k: 3 }, 192, 7)
            .with_obs(ObsSpec::new().with_archive(seq_path.clone())),
    );
    let seq_text = std::fs::read_to_string(&seq_path).unwrap();
    let seq = archive::parse(&seq_text).unwrap();
    assert_eq!(seq.meta.latency_model, None);
    assert!(seq_text.contains("\"latency_model\":null"));
    std::fs::remove_dir_all(&dir).ok();
}

/// The headline behavioural claim: under the same seed (hence the same
/// drop coins and node randomness), heavy-tail latency stretches
/// convergence past the synchronous run.
#[test]
fn heavy_tail_latency_stretches_convergence() {
    let base = RunConfig::new(Topology::KOut { k: 3 }, 256, 11).with_max_rounds(4_000);
    let sync = run(
        AlgorithmKind::Hm(HmConfig::default()),
        &base.clone().with_engine(EngineKind::Event {
            latency: LatencyModel::default(),
        }),
    );
    let tail = run(
        AlgorithmKind::Hm(HmConfig::default()),
        &base.with_engine(EngineKind::Event {
            latency: LatencyModel::LogNormal {
                mu_milli: 700,
                sigma_milli: 1_200,
                cap: 64,
            },
        }),
    );
    assert!(sync.completed, "synchronous run must converge");
    assert!(tail.completed, "heavy-tail run must still converge");
    assert!(
        tail.rounds > sync.rounds,
        "heavy-tail latency should stretch convergence: {} vs {} ticks",
        tail.rounds,
        sync.rounds
    );
}
