//! Convergence under message latency: the same algorithm, seed, and
//! overlay on the engine under each latency model — the experiment the
//! synchronous round cannot express, since its only asynchrony knob is
//! bounded uniform delay added after the fact.
//!
//! ```text
//! cargo run --release --example latency_sweep
//! ```
//!
//! Every run shares one seed, so the drop coins and node randomness
//! are identical across rows; only *when* messages land changes. The
//! table reports completion time in simulated ticks, the stretch over
//! the synchronous baseline, and the message count (which drifts with
//! timing: nodes keep probing while knowledge is in flight).

use resource_discovery::core::algorithms::hm::HmConfig;
use resource_discovery::prelude::*;

fn main() {
    let n = 1024;
    let seed = 42;
    let models: &[(&str, LatencyModel)] = &[
        ("synchronous", LatencyModel::Constant { ticks: 1 }),
        ("const:4", LatencyModel::Constant { ticks: 4 }),
        ("uniform:1:8", LatencyModel::Uniform { min: 1, max: 8 }),
        (
            "heavy tail",
            LatencyModel::LogNormal {
                mu_milli: 700,
                sigma_milli: 1_200,
                cap: 64,
            },
        ),
        (
            "asym:1:6",
            LatencyModel::Asymmetric {
                forward: 1,
                backward: 6,
            },
        ),
    ];

    for kind in [
        AlgorithmKind::NameDropper,
        AlgorithmKind::Hm(HmConfig::default()),
    ] {
        println!(
            "{} on a 3-out random overlay, n = {n}, seed {seed}:",
            kind.name()
        );
        let mut baseline = None;
        for &(label, latency) in models {
            let config = RunConfig::new(Topology::KOut { k: 3 }, n, seed)
                .with_max_rounds(8_000)
                .with_engine(EngineKind::Event { latency });
            let report = run(kind, &config);
            assert!(
                report.completed && report.sound,
                "{label}: did not converge"
            );
            let base = *baseline.get_or_insert(report.rounds);
            println!(
                "  {:<24} {:>5} ticks   stretch {:>5.2}x   {:>8} messages",
                format!("{label} ({})", latency.name()),
                report.rounds,
                report.rounds as f64 / base as f64,
                report.messages
            );
        }
        println!();
    }
}
