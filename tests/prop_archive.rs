//! Round-trip property of the run archive: render a random `ObsReport`
//! and parse it back, and every row comes back equal, in the recorder's
//! own types.
//!
//! The report carries every section — rounds, phases, workers, counters,
//! gauges, histograms, hot nodes, provenance edges and profile rows —
//! with hostile strings (quote, backslash, control characters,
//! non-ASCII) in every text field, seeds across the whole `u64` range,
//! any finite float, and every other integer up to 2^53, the largest the
//! JSON number pipeline carries exactly.

use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, RngCore, SeedableRng};
use resource_discovery::obs::archive::{self, HistSummary, TraceMeta};
use resource_discovery::obs::prof::{ProfileMem, ProfileMsg, ProfilePhase};
use resource_discovery::obs::recorder::{PhaseSummary, WorkerSummary};
use resource_discovery::obs::{
    CausalTrace, DropTally, MetricsRegistry, ObsReport, Phase, ProfileReport, ProvEdge, RoundObs,
    RunMeta, RunOutcomeObs,
};
use std::collections::BTreeMap;

const PIECES: [&str; 10] = ["hm", " ", "\"", "\\", "\n", "\t", "\u{1}", "ü", "λ", "🦀"];

fn text(rng: &mut StdRng) -> String {
    (0..rng.random_range(0..6))
        .map(|_| PIECES[rng.random_range(0..PIECES.len())])
        .collect()
}

/// An integer up to 2^53, often at the edges.
fn int(rng: &mut StdRng) -> u64 {
    match rng.random_range(0..4) {
        0 => 0,
        1 => 1 << 53,
        2 => rng.random_range(0..100),
        _ => rng.random_range(0..=1 << 53),
    }
}

/// Any finite float.
fn real(rng: &mut StdRng) -> f64 {
    loop {
        let x = f64::from_bits(rng.next_u64());
        if x.is_finite() {
            return x;
        }
    }
}

fn maybe<T>(rng: &mut StdRng, value: impl FnOnce(&mut StdRng) -> T) -> Option<T> {
    rng.random_bool(0.5).then(|| value(rng))
}

fn rows<T>(rng: &mut StdRng, max: usize, mut row: impl FnMut(&mut StdRng) -> T) -> Vec<T> {
    (0..rng.random_range(0..=max)).map(|_| row(rng)).collect()
}

/// Up to `max` strictly ascending rounds.
fn ascending(rng: &mut StdRng, max: usize) -> Vec<u64> {
    let mut round = 0;
    (0..rng.random_range(0..=max))
        .map(|_| {
            round += rng.random_range(1u64..1_000);
            round
        })
        .collect()
}

fn phase(rng: &mut StdRng) -> Phase {
    Phase::ALL[rng.random_range(0..Phase::ALL.len())]
}

fn random_report(rng: &mut StdRng) -> ObsReport {
    let meta = RunMeta {
        algorithm: text(rng),
        topology: text(rng),
        n: int(rng) as usize,
        seed: if rng.random_bool(0.25) {
            u64::MAX
        } else {
            rng.next_u64()
        },
        engine: text(rng),
        workers: int(rng) as usize,
        latency_model: maybe(rng, text),
    };
    let rounds = ascending(rng, 20)
        .into_iter()
        .map(|round| RoundObs {
            round,
            wall_ns: int(rng),
            messages: int(rng),
            pointers: int(rng),
            drops: DropTally {
                coin: int(rng),
                crash: int(rng),
                partition: int(rng),
                link: int(rng),
                suppression: int(rng),
            },
            retransmissions: int(rng),
            knowledge_delta: maybe(rng, int),
        })
        .collect();
    let phases = rows(rng, 7, |rng| PhaseSummary {
        phase: phase(rng),
        count: int(rng),
        total_ns: int(rng),
        p50_ns: int(rng),
        p99_ns: int(rng),
        max_ns: int(rng),
    });
    let workers = rows(rng, 6, |rng| WorkerSummary {
        worker: rng.next_u64() as u32,
        spans: int(rng),
        busy_ns: int(rng),
    });

    let mut registry = MetricsRegistry::new();
    let counters: BTreeMap<String, u64> = rows(rng, 6, |rng| (text(rng), int(rng)))
        .into_iter()
        .collect();
    for (name, value) in &counters {
        registry.add_counter(name, *value);
    }
    for (name, value) in rows(rng, 6, |rng| (text(rng), real(rng))) {
        registry.set_gauge(&name, value);
    }
    for name in rows(rng, 4, text) {
        for value in rows(rng, 8, int) {
            registry.record(&name, value);
        }
    }
    let hot = |rng: &mut StdRng| rows(rng, 8, |rng| (rng.next_u64() as u32, int(rng)));

    let causal = maybe(rng, |rng| {
        let edges = rows(rng, 12, |rng| ProvEdge {
            id: rng.next_u64() as u32 % 8,
            node: rng.next_u64() as u32,
            src: rng.next_u64() as u32,
            sent: int(rng),
            round: int(rng),
            seq: int(rng),
        });
        let mut trace = CausalTrace::new(rng.random_range(0..16), rng.next_u64() as u32);
        trace.fold(&edges, int(rng));
        trace
    });
    let profile = maybe(rng, |rng| {
        let mem: Vec<ProfileMem> = ascending(rng, 6)
            .into_iter()
            .map(|round| ProfileMem {
                round,
                knowledge_bytes: int(rng),
                rss_bytes: int(rng),
            })
            .collect();
        ProfileReport {
            coverage_pct: real(rng),
            samples: mem.len() as u64,
            utilization_pct: real(rng),
            imbalance_mean: real(rng),
            imbalance_max: real(rng),
            peak_knowledge_bytes: int(rng),
            peak_rss_bytes: int(rng),
            phases: rows(rng, 7, |rng| ProfilePhase {
                phase: phase(rng),
                total_ns: int(rng),
                round_pct: real(rng),
                ns_per_envelope: real(rng),
            }),
            msgs: rows(rng, 3, |rng| ProfileMsg {
                kind: text(rng),
                envelopes: int(rng),
                payload_bytes: int(rng),
                ns_per_envelope: real(rng),
            }),
            mem,
        }
    });
    let outcome = RunOutcomeObs {
        verdict: text(rng),
        completed: rng.random_bool(0.5),
        sound: rng.random_bool(0.5),
        rounds: int(rng),
        messages: int(rng),
        pointers: int(rng),
        trace_events: int(rng),
        trace_overflow: int(rng),
        last_progress: maybe(rng, int),
    };
    ObsReport {
        meta,
        outcome,
        rounds,
        registry,
        phases,
        workers,
        hot_senders: hot(rng),
        hot_receivers: hot(rng),
        spans: Vec::new(),
        span_overflow: 0,
        causal,
        profile,
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn every_row_parses_back_equal(case in any::<u64>()) {
        let report = random_report(&mut StdRng::seed_from_u64(case));
        let text = archive::render(&report);
        let problems = archive::validate(&text);
        prop_assert!(problems.is_empty(), "{:?}\n{}", problems, text);
        let a = archive::parse(&text).unwrap();

        prop_assert_eq!(&a.meta, &report.meta);
        prop_assert_eq!(&a.rounds, &report.rounds);
        prop_assert_eq!(&a.phases, &report.phases);
        prop_assert_eq!(&a.workers, &report.workers);
        let counters: BTreeMap<String, u64> = report
            .registry
            .counters()
            .map(|(name, value)| (name.to_string(), value))
            .collect();
        prop_assert_eq!(&a.counters, &counters);
        let gauges: BTreeMap<String, f64> = report
            .registry
            .gauges()
            .map(|(name, value)| (name.to_string(), value))
            .collect();
        prop_assert_eq!(&a.gauges, &gauges);
        let hists: Vec<HistSummary> = report
            .registry
            .histograms()
            .map(|(name, h)| HistSummary::of(name, h))
            .collect();
        prop_assert_eq!(&a.hists, &hists);
        prop_assert_eq!(&a.hot["sent"], &report.hot_senders);
        prop_assert_eq!(&a.hot["recv"], &report.hot_receivers);
        prop_assert_eq!(&a.trace_meta, &report.causal.as_ref().map(TraceMeta::of));
        let edges: Vec<ProvEdge> = report
            .causal
            .iter()
            .flat_map(|c| c.edges().copied())
            .collect();
        prop_assert_eq!(&a.edges, &edges);
        prop_assert_eq!(&a.profile, &report.profile);
        prop_assert_eq!(&a.outcome, &report.outcome);
    }
}
