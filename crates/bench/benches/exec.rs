//! Wall-clock comparison of the two execution engines: the sequential
//! `rd-sim` engine vs the sharded `rd-exec` engine at 1/2/4/8 workers,
//! at n ∈ {2¹², 2¹⁴, 2¹⁶}.
//!
//! The workload is a bounded gossip protocol — every node merges its
//! inbox into a capped knowledge set and pushes 64-identifier batches to
//! two random contacts — chosen so per-node compute (set merging) is
//! substantial relative to routing, the regime the sharded engine is
//! built for. Both engines produce bit-identical runs (pinned by
//! `tests/prop_engine_equivalence.rs`), so this bench measures pure
//! wall-clock, not behaviour.
//!
//! Besides the usual criterion report, a `cargo bench` run writes
//! machine-readable results — rounds/sec per configuration and speedup
//! relative to the sequential engine — to `BENCH_exec.json` at the
//! workspace root, including a note on the host parallelism the numbers
//! were recorded under (speedup is bounded by physical cores; on a
//! single-core host the sharded engine can at best tie). The summary
//! also re-times the sequential and 4-worker configurations with a
//! sink-less `rd-obs` recorder attached (`"obs": true` rows with an
//! `obs_overhead_pct` field), again with a sampling causal trace on
//! top (`"trace": true` rows with a `trace_overhead_pct` field), and
//! again with cost-attribution profiling on (`"prof": true` rows with
//! a `prof_overhead_pct` field), and again with a live telemetry bus
//! plus loopback scrape endpoint serving while the rounds run
//! (`"live": true` rows with a `live_overhead_pct` field): the
//! combined in-run telemetry overhead budget is < 5% at n = 2^16 on
//! the sequential engine, profiling must stay inside the same budget,
//! and the live bus must stay under 5% at n = 2^14.
//!
//! ```text
//! cargo bench -p rd-bench --bench exec
//! ```
//!
//! `--smoke-measure [PATH]` is the CI perf-gate mode: the same
//! best-of-N timing pass as the full bench (minus the criterion
//! report), written to `PATH` (default `BENCH_exec.fresh.json` at the
//! workspace root) for `rd-inspect bench-diff` against the committed
//! `BENCH_exec.json`.

use criterion::{BenchmarkId, Criterion};
use rd_bench::workload::{make_nodes, Gossip, SEED};
use rd_exec::ShardedEngine;
use rd_obs::{CausalTrace, LiveBus, LivePublisher, LiveServer, LiveSnapshot, Recorder, RunMeta};
use rd_sim::{Engine, RoundEngine};
use std::sync::Arc;
use std::time::Instant;

/// `(log2 n, rounds timed per run)`: fewer rounds at larger n keeps
/// every timed rep at roughly the same duration (~0.2–0.3 s) — reps
/// much shorter than that are dominated by scheduler noise (best-of-5
/// at 0.1 s/rep was observed swinging ±15 % run to run at n = 2^12,
/// hence 60 rounds there), which matters for the `bench-diff`
/// regression gate fed from these rows. Round counts also pick the
/// workload mix — early rounds grow knowledge, later rounds merge at
/// the cap — so changing them changes `rounds_per_sec` itself, not
/// just its variance; the 2^14/2^16 counts are kept at the original
/// values for comparability with previously recorded numbers.
const SIZES: [(u32, u64); 3] = [(12, 60), (14, 8), (16, 4)];
const WORKER_COUNTS: [usize; 4] = [1, 2, 4, 8];

/// A sink-less recorder: every span/round/metric recording cost is
/// paid, nothing is exported, so the measured delta is the honest
/// in-run overhead of attaching telemetry.
fn bare_recorder(n: usize, workers: usize) -> Recorder {
    Recorder::new(RunMeta {
        algorithm: "bench-gossip".into(),
        topology: "kout-3".into(),
        n,
        seed: SEED,
        engine: engine_label(workers),
        workers: workers.max(1),
        latency_model: None,
    })
}

/// Causal-trace configuration for the `trace: true` rows: the sampling
/// rate recommended for large production runs (0.1% of messages; each
/// sampled gossip message offers a 64-id batch) with a pair budget that
/// never overflows at these sizes.
const TRACE_CAPACITY: usize = 1 << 16;
const TRACE_PPM: u32 = 1_000;

/// The live-telemetry leg: a real [`LiveServer`] on an ephemeral
/// loopback port backed by a [`LiveBus`], plus the per-round snapshot
/// the publisher pushes — the same work `drive()` does with `--live`
/// (including the O(n) knowledge scan), so the measured delta is the
/// honest per-round cost of serving live telemetry. Server start and
/// shutdown stay outside the timed region, like engine construction.
struct LiveLeg {
    publisher: LivePublisher,
    server: Option<LiveServer>,
    base: LiveSnapshot,
}

impl LiveLeg {
    fn start(n: usize, workers: usize) -> LiveLeg {
        let bus = Arc::new(LiveBus::new());
        let server = LiveServer::start("127.0.0.1:0", bus.clone()).ok();
        LiveLeg {
            publisher: LivePublisher::with_bus(bus),
            server,
            base: LiveSnapshot {
                algorithm: "bench-gossip".into(),
                topology: "kout-3".into(),
                engine: engine_label(workers),
                n: n as u64,
                seed: SEED,
                workers: workers.max(1) as u64,
                max_rounds: u64::MAX,
                ..Default::default()
            },
        }
    }

    fn publish(&mut self, round: u64, messages: u64, knowledge_total: u64) {
        self.base.round = round;
        self.base.messages = messages;
        self.base.knowledge_total = knowledge_total;
        let mut snap = self.base.clone();
        self.publisher.publish(&mut snap);
    }

    fn finish(mut self) {
        self.base.finished = true;
        let mut snap = self.base.clone();
        self.publisher.publish_final(&mut snap);
        if let Some(server) = self.server.take() {
            server.shutdown();
        }
    }
}

/// One run of `rounds` rounds on the chosen engine; `workers == 0`
/// means the sequential `rd-sim` engine, `obs` attaches a sink-less
/// [`Recorder`], `trace` additionally attaches a sampling
/// [`CausalTrace`], `prof` enables cost-attribution profiling on
/// the recorder, and `live` publishes a per-round snapshot to a
/// served loopback scrape endpoint. The node population is cloned from
/// a prebuilt prototype so instance construction (graph generation and
/// initial knowledge) stays outside every timed region. Returns total
/// messages (a checksum that also keeps the work observable) and the
/// wall-clock of the stepping loop alone.
fn run_rounds(
    proto: &[Gossip],
    rounds: u64,
    workers: usize,
    obs: bool,
    trace: bool,
    prof: bool,
    live: bool,
) -> (u64, f64) {
    let recorder = |n: usize| {
        let rec = bare_recorder(n, workers);
        if prof {
            rec.with_profiling()
        } else {
            rec
        }
    };
    if workers == 0 {
        let mut engine = Engine::new(proto.to_vec(), SEED);
        if obs {
            engine = engine.with_obs(recorder(proto.len()));
        }
        if trace {
            engine = engine.with_causal_trace(CausalTrace::new(TRACE_CAPACITY, TRACE_PPM));
        }
        let mut leg = live.then(|| LiveLeg::start(proto.len(), workers));
        let start = Instant::now();
        for r in 0..rounds {
            engine.step();
            if let Some(leg) = leg.as_mut() {
                let known: u64 = engine.nodes().iter().map(|g| g.known.len() as u64).sum();
                leg.publish(r + 1, engine.metrics().total_messages(), known);
            }
        }
        let secs = start.elapsed().as_secs_f64();
        if let Some(leg) = leg.take() {
            leg.finish();
        }
        (engine.metrics().total_messages(), secs)
    } else {
        let mut engine = ShardedEngine::new(proto.to_vec(), SEED, workers);
        if obs {
            engine = engine.with_obs(recorder(proto.len()));
        }
        if trace {
            engine = engine.with_causal_trace(CausalTrace::new(TRACE_CAPACITY, TRACE_PPM));
        }
        let mut leg = live.then(|| LiveLeg::start(proto.len(), workers));
        let start = Instant::now();
        for r in 0..rounds {
            engine.step();
            if let Some(leg) = leg.as_mut() {
                let known: u64 = engine.nodes().iter().map(|g| g.known.len() as u64).sum();
                leg.publish(r + 1, engine.metrics().total_messages(), known);
            }
        }
        let secs = start.elapsed().as_secs_f64();
        if let Some(leg) = leg.take() {
            leg.finish();
        }
        (engine.metrics().total_messages(), secs)
    }
}

fn engine_label(workers: usize) -> String {
    if workers == 0 {
        "sequential".to_string()
    } else {
        format!("sharded:{workers}")
    }
}

/// The criterion-visible comparison at every size × engine config.
/// (Engine construction from the cloned prototype is inside the sample,
/// but it is O(n) against the rounds' O(rounds · messages) — noise.)
fn bench_engines(c: &mut Criterion) {
    let mut group = c.benchmark_group("exec-round-throughput");
    group.sample_size(3);
    for &(log2_n, rounds) in &SIZES {
        let n = 1usize << log2_n;
        let proto = make_nodes(n, SEED);
        for workers in std::iter::once(0).chain(WORKER_COUNTS) {
            group.bench_with_input(
                BenchmarkId::new(engine_label(workers), format!("2^{log2_n}")),
                &proto,
                |b, proto| {
                    b.iter(|| run_rounds(proto, rounds, workers, false, false, false, false))
                },
            );
        }
    }
    group.finish();
}

struct Measurement {
    log2_n: u32,
    rounds: u64,
    workers: usize,
    obs: bool,
    trace: bool,
    prof: bool,
    live: bool,
    best_seconds: f64,
}

/// Times each configuration directly (best of `reps`) and writes the
/// machine-readable summary to `path`. Besides the engine sweep, the
/// sequential and 4-worker configurations are re-timed with a sink-less
/// recorder attached (`"obs": true` rows) and again with a sampling
/// causal trace on top (`"trace": true` rows): the combined in-run
/// telemetry overhead budget is < 5% at n = 2^16 on the sequential
/// engine.
fn write_json_summary(reps: usize, path: &str) {
    let mut measurements = Vec::new();
    for &(log2_n, rounds) in &SIZES {
        let n = 1usize << log2_n;
        let proto = make_nodes(n, SEED);
        let configs: Vec<_> = std::iter::once(0)
            .chain(WORKER_COUNTS)
            .map(|w| (w, false, false, false, false))
            .chain([
                (0, true, false, false, false),
                (4, true, false, false, false),
            ])
            .chain([(0, true, true, false, false), (4, true, true, false, false)])
            .chain([(0, true, false, true, false), (4, true, false, true, false)])
            .chain([(0, true, false, false, true), (4, true, false, false, true)])
            .collect();
        // Interleave the reps across configurations (each pass times every
        // config once) instead of running one config's reps back-to-back:
        // slow monotonic host drift over a sweep then lands on every config
        // equally, so the paired *_overhead_pct deltas cancel it rather
        // than charging it all to whichever configs happen to run last.
        let mut bests = vec![f64::INFINITY; configs.len()];
        for _ in 0..reps {
            for (i, &(workers, obs, trace, prof, live)) in configs.iter().enumerate() {
                let (msgs, secs) = run_rounds(&proto, rounds, workers, obs, trace, prof, live);
                std::hint::black_box(msgs);
                bests[i] = bests[i].min(secs);
            }
        }
        for (&(workers, obs, trace, prof, live), &best) in configs.iter().zip(&bests) {
            eprintln!(
                "[exec-bench] n=2^{log2_n} {:<12} obs={} trace={} prof={} live={} best {:.3}s for {rounds} rounds",
                engine_label(workers),
                if obs { "on " } else { "off" },
                if trace { "on " } else { "off" },
                if prof { "on " } else { "off" },
                if live { "on " } else { "off" },
                best
            );
            measurements.push(Measurement {
                log2_n,
                rounds,
                workers,
                obs,
                trace,
                prof,
                live,
                best_seconds: best,
            });
        }
    }

    let cores = std::thread::available_parallelism().map_or(1, |p| p.get());
    let mut json = String::new();
    json.push_str("{\n");
    json.push_str("  \"bench\": \"exec-round-throughput\",\n");
    json.push_str(
        "  \"workload\": \"bounded gossip (fan-out 2, 64-id batches, 256-id knowledge cap) on a 3-out random overlay\",\n",
    );
    json.push_str("  \"hardware\": {\n");
    json.push_str(&format!("    \"available_parallelism\": {cores},\n"));
    json.push_str(&format!(
        "    \"note\": \"recorded on a host with {cores} hardware thread(s); parallel speedup is bounded by physical cores, so on a single-core host the sharded engine can at best tie the sequential one and these numbers measure sharding overhead, not scaling — speedup_vs_sequential is omitted there entirely, rerun on a multi-core host for speedup\"\n",
    ));
    json.push_str("  },\n");
    json.push_str("  \"configs\": [\n");
    for (i, m) in measurements.iter().enumerate() {
        let n = 1usize << m.log2_n;
        let sequential = measurements
            .iter()
            .find(|s| {
                s.log2_n == m.log2_n && s.workers == 0 && !s.obs && !s.trace && !s.prof && !s.live
            })
            .expect("sequential baseline present");
        // Obs rows additionally report overhead vs their own obs-off
        // twin (same engine, same workers); trace, prof, and live rows
        // report overhead vs their plain-obs twin on top.
        let twin = measurements
            .iter()
            .find(|s| {
                s.log2_n == m.log2_n
                    && s.workers == m.workers
                    && !s.obs
                    && !s.trace
                    && !s.prof
                    && !s.live
            })
            .expect("obs-off twin present");
        let rounds_per_sec = m.rounds as f64 / m.best_seconds;
        // On a single-core host "speedup" can only measure sharding
        // overhead, so the field is omitted entirely rather than
        // recorded as a misleading sub-1.0 number; the overhead rows
        // below carry the honest story there.
        let speedup = (cores > 1).then(|| {
            format!(
                ", \"speedup_vs_sequential\": {:.3}",
                sequential.best_seconds / m.best_seconds
            )
        });
        let mut overheads = String::new();
        if m.obs {
            overheads.push_str(&format!(
                ", \"obs_overhead_pct\": {:.2}",
                (m.best_seconds / twin.best_seconds - 1.0) * 100.0
            ));
        }
        if m.trace || m.prof || m.live {
            let obs_twin = measurements
                .iter()
                .find(|s| {
                    s.log2_n == m.log2_n
                        && s.workers == m.workers
                        && s.obs
                        && !s.trace
                        && !s.prof
                        && !s.live
                })
                .expect("plain-obs twin present");
            let overhead = (m.best_seconds / obs_twin.best_seconds - 1.0) * 100.0;
            if m.trace {
                overheads.push_str(&format!(", \"trace_overhead_pct\": {overhead:.2}"));
            }
            if m.prof {
                overheads.push_str(&format!(", \"prof_overhead_pct\": {overhead:.2}"));
            }
            if m.live {
                overheads.push_str(&format!(", \"live_overhead_pct\": {overhead:.2}"));
            }
        }
        json.push_str(&format!(
            "    {{\"n\": {n}, \"log2_n\": {}, \"rounds\": {}, \"engine\": \"{}\", \"workers\": {}, \"obs\": {}, \"trace\": {}, \"prof\": {}, \"live\": {}, \"best_seconds\": {:.4}, \"rounds_per_sec\": {:.2}{}{}}}{}\n",
            m.log2_n,
            m.rounds,
            engine_label(m.workers),
            m.workers,
            m.obs,
            m.trace,
            m.prof,
            m.live,
            m.best_seconds,
            rounds_per_sec,
            speedup.as_deref().unwrap_or(""),
            overheads,
            if i + 1 == measurements.len() { "" } else { "," }
        ));
    }
    json.push_str("  ]\n}\n");

    std::fs::write(path, &json).unwrap_or_else(|e| panic!("write {path}: {e}"));
    eprintln!("[exec-bench] wrote {path}");
}

/// Smoke check for test runs: both engines agree on a small instance,
/// and attaching a recorder, a causal trace, a profiler, or a live
/// telemetry server changes none of them.
fn smoke() {
    let proto = make_nodes(256, SEED);
    let (seq, _) = run_rounds(&proto, 3, 0, false, false, false, false);
    let (par, _) = run_rounds(&proto, 3, 4, false, false, false, false);
    assert_eq!(seq, par, "engines diverged on the bench workload");
    let (seq_obs, _) = run_rounds(&proto, 3, 0, true, false, false, false);
    let (par_obs, _) = run_rounds(&proto, 3, 4, true, false, false, false);
    assert_eq!(seq, seq_obs, "telemetry perturbed the sequential engine");
    assert_eq!(par, par_obs, "telemetry perturbed the sharded engine");
    let (seq_trace, _) = run_rounds(&proto, 3, 0, true, true, false, false);
    let (par_trace, _) = run_rounds(&proto, 3, 4, true, true, false, false);
    assert_eq!(
        seq, seq_trace,
        "causal tracing perturbed the sequential engine"
    );
    assert_eq!(
        par, par_trace,
        "causal tracing perturbed the sharded engine"
    );
    let (seq_prof, _) = run_rounds(&proto, 3, 0, true, false, true, false);
    let (par_prof, _) = run_rounds(&proto, 3, 4, true, false, true, false);
    assert_eq!(seq, seq_prof, "profiling perturbed the sequential engine");
    assert_eq!(par, par_prof, "profiling perturbed the sharded engine");
    let (seq_live, _) = run_rounds(&proto, 3, 0, true, false, false, true);
    let (par_live, _) = run_rounds(&proto, 3, 4, true, false, false, true);
    assert_eq!(
        seq, seq_live,
        "live telemetry perturbed the sequential engine"
    );
    assert_eq!(par, par_live, "live telemetry perturbed the sharded engine");
    eprintln!(
        "[exec-bench] smoke ok: both engines sent {seq} messages (obs, trace, prof, and live on and off)"
    );
}

/// Default output path of the full `cargo bench` summary: the committed
/// baseline at the workspace root.
const BASELINE_PATH: &str = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_exec.json");

/// Reps for both the committed baseline and the CI gate's fresh
/// measurement. Both sides MUST take the best of the same number of
/// draws: the minimum of k samples shrinks with k, so comparing a
/// best-of-5 baseline against a best-of-2 re-measurement reads as a
/// uniform phantom regression.
const MEASURE_REPS: usize = 5;

fn main() {
    let args: Vec<String> = std::env::args().collect();
    // CI perf gate: re-measure every configuration, written next to —
    // never over — the committed baseline, for `rd-inspect bench-diff`.
    if let Some(i) = args.iter().position(|a| a == "--smoke-measure") {
        let default = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_exec.fresh.json");
        let path = args
            .get(i + 1)
            .filter(|a| !a.starts_with('-'))
            .map_or(default.to_string(), Clone::clone);
        write_json_summary(MEASURE_REPS, &path);
        return;
    }
    // Cargo passes `--bench` when launched via `cargo bench`; under
    // `cargo test` (or a bare run) stay fast and skip the timed pass.
    if !args.iter().any(|a| a == "--bench") {
        smoke();
        return;
    }
    let mut criterion = Criterion::default().configure_from_args();
    bench_engines(&mut criterion);
    write_json_summary(MEASURE_REPS, BASELINE_PATH);
}
