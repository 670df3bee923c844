//! Micro-benchmark of the routing phase itself: the serial
//! `EngineCore::route_batch` path (one shard) vs the parallel
//! `rd_exec::route_staged` fan-out/merge at 2/4/8 workers, under every
//! delivery policy the fault layer supports — fault-free synchronous
//! (the straight-line fast path), drop coins, delay jitter, and both
//! combined.
//!
//! The workload is pure routing: `n = 2¹⁴` senders stage four messages
//! each (64 Ki messages per round, enough to clear the parallel-merge
//! threshold), every payload a three-identifier `PointerList` that
//! stays in its inline representation — so the numbers isolate the
//! router (fate coins, tallies, bucket fan-out, canonical merge) rather
//! than payload shuffling. Both are the same kernel (`route_shard`) at
//! different shard counts, so they agree by construction (checked by
//! `tests/prop_engine_equivalence.rs` and the engine-core unit tests);
//! this bench measures wall-clock only.
//!
//! Besides the criterion report, a `cargo bench` run writes a
//! machine-readable summary — rounds/sec and messages/sec per
//! configuration, speedup vs the serial router under the same policy —
//! to `BENCH_route.json` at the workspace root, with a note on host
//! parallelism (on a single-core host the parallel rows measure
//! sharding overhead, not scaling).
//!
//! ```text
//! cargo bench -p rd-bench --bench route
//! ```

use criterion::{BenchmarkId, Criterion};
use rd_exec::route_staged;
use rd_sim::{BufferPool, EngineCore, Envelope, FaultPlan, NodeId, PointerList};
use std::time::Instant;

const SEED: u64 = 11;
/// Population size: 2¹⁴ senders.
const LOG2_N: u32 = 14;
const N: usize = 1 << LOG2_N;
/// Messages staged per sender per round.
const FAN_OUT: usize = 4;
/// Rounds routed per timed run.
const ROUNDS: u64 = 40;
/// Worker counts for the parallel router (serial is the 1-shard path).
const WORKER_COUNTS: [usize; 3] = [2, 4, 8];

/// The delivery policies under test.
#[derive(Clone, Copy, PartialEq, Eq)]
enum Policy {
    /// No faults, no jitter: the straight-line tally-and-push path.
    Fast,
    /// 5% drop probability: one coin per message.
    Drop,
    /// Delay jitter up to 3 rounds: one coin per message plus the
    /// pooled delay queue.
    Delay,
    /// Drops and delay together.
    DropDelay,
}

impl Policy {
    const ALL: [Policy; 4] = [Policy::Fast, Policy::Drop, Policy::Delay, Policy::DropDelay];

    fn label(self) -> &'static str {
        match self {
            Policy::Fast => "fast-path",
            Policy::Drop => "drop-0.05",
            Policy::Delay => "delay-3",
            Policy::DropDelay => "drop-0.05+delay-3",
        }
    }

    fn configure<M: rd_sim::MessageCost>(self, core: &mut EngineCore<M>) {
        if matches!(self, Policy::Drop | Policy::DropDelay) {
            core.set_faults(FaultPlan::new().with_drop_probability(0.05));
        }
        if matches!(self, Policy::Delay | Policy::DropDelay) {
            core.set_max_extra_delay(3);
        }
    }
}

/// One round's staged traffic in canonical `(sender, send-sequence)`
/// order: every sender ships `FAN_OUT` messages to deterministically
/// scattered destinations, each carrying a three-id inline
/// [`PointerList`].
fn make_staged(n: usize) -> Vec<Envelope<PointerList>> {
    let mut staged = Vec::with_capacity(n * FAN_OUT);
    for src in 0..n {
        for k in 0..FAN_OUT {
            let dst = (src.wrapping_mul(2_654_435_761) + k * 40_503 + 1) % n;
            let payload: PointerList = [
                NodeId::new(dst as u32),
                NodeId::new(src as u32),
                NodeId::new(k as u32),
            ]
            .as_slice()
            .into();
            staged.push(Envelope::new(
                NodeId::new(src as u32),
                NodeId::new(dst as u32),
                payload,
            ));
        }
    }
    staged
}

/// Splits the canonical staged buffer into `shards` contiguous-sender
/// chunks of `shard_len` senders each (the layout `route_staged`
/// expects).
fn split_shards(
    flat: &[Envelope<PointerList>],
    n: usize,
    shards: usize,
) -> Vec<Vec<Envelope<PointerList>>> {
    let shard_len = n.div_ceil(shards).max(1);
    let mut out: Vec<Vec<Envelope<PointerList>>> =
        (0..n.div_ceil(shard_len)).map(|_| Vec::new()).collect();
    for env in flat {
        out[env.src.index() / shard_len].push(env.clone());
    }
    out
}

/// Routes `rounds` rounds of the prototype traffic through a fresh
/// core under `policy`, with `shards` sender shards (1 = the serial
/// `route_batch` path). Each round re-stages the prototype (an inline
/// `PointerList` clone is a memcpy), routes, and clears the mailboxes
/// as a stand-in for node consumption — identical overhead across
/// configurations. Returns a message checksum and the wall-clock of
/// the loop.
fn run_route(proto: &[Vec<Envelope<PointerList>>], shards: usize, policy: Policy) -> (u64, f64) {
    let mut core: EngineCore<PointerList> = EngineCore::new(N, SEED);
    policy.configure(&mut core);
    let shard_len = N.div_ceil(shards).max(1);
    let mut routed_pool = BufferPool::new();
    let mut staged: Vec<Vec<Envelope<PointerList>>> = proto.iter().map(|_| Vec::new()).collect();
    let start = Instant::now();
    for _ in 0..ROUNDS {
        core.begin_round();
        for (buf, p) in staged.iter_mut().zip(proto) {
            buf.clear();
            buf.extend(p.iter().cloned());
        }
        route_staged(&mut core, &mut staged, shard_len, &mut routed_pool, None);
        for inbox in core.step_state().inboxes.iter_mut() {
            inbox.clear();
        }
        core.finish_round();
    }
    let secs = start.elapsed().as_secs_f64();
    (core.metrics().total_messages(), secs)
}

fn engine_label(shards: usize) -> String {
    if shards <= 1 {
        "serial".to_string()
    } else {
        format!("parallel:{shards}")
    }
}

/// The criterion-visible comparison at every policy × router config.
fn bench_route(c: &mut Criterion) {
    let flat = make_staged(N);
    let mut group = c.benchmark_group("route-throughput");
    group.sample_size(10);
    for policy in Policy::ALL {
        for shards in std::iter::once(1).chain(WORKER_COUNTS) {
            let proto = split_shards(&flat, N, shards);
            group.bench_with_input(
                BenchmarkId::new(engine_label(shards), policy.label()),
                &proto,
                |b, proto| b.iter(|| run_route(proto, shards, policy)),
            );
        }
    }
    group.finish();
}

struct Measurement {
    policy: Policy,
    shards: usize,
    best_seconds: f64,
}

/// Times each configuration directly (best of `reps`) and writes the
/// machine-readable summary to `BENCH_route.json` at the workspace
/// root.
fn write_json_summary() {
    let reps = 3;
    let flat = make_staged(N);
    let mut measurements = Vec::new();
    for policy in Policy::ALL {
        for shards in std::iter::once(1).chain(WORKER_COUNTS) {
            let proto = split_shards(&flat, N, shards);
            let mut best = f64::INFINITY;
            for _ in 0..reps {
                let (msgs, secs) = run_route(&proto, shards, policy);
                std::hint::black_box(msgs);
                best = best.min(secs);
            }
            eprintln!(
                "[route-bench] {:<18} {:<11} best {:.3}s for {ROUNDS} rounds",
                policy.label(),
                engine_label(shards),
                best
            );
            measurements.push(Measurement {
                policy,
                shards,
                best_seconds: best,
            });
        }
    }

    let cores = std::thread::available_parallelism().map_or(1, |p| p.get());
    let messages_per_round = (N * FAN_OUT) as f64;
    let mut json = String::new();
    json.push_str("{\n");
    json.push_str("  \"bench\": \"route-throughput\",\n");
    json.push_str(&format!(
        "  \"workload\": \"pure routing: 2^{LOG2_N} senders x {FAN_OUT} messages/round (inline 3-id PointerList payloads), {ROUNDS} rounds per run\",\n",
    ));
    json.push_str("  \"hardware\": {\n");
    json.push_str(&format!("    \"available_parallelism\": {cores},\n"));
    json.push_str(&format!(
        "    \"note\": \"recorded on a host with {cores} hardware thread(s); parallel speedup is bounded by physical cores, so on a single-core host the parallel rows measure sharding overhead, not scaling — rerun on a multi-core host for speedup\"\n",
    ));
    json.push_str("  },\n");
    json.push_str("  \"configs\": [\n");
    for (i, m) in measurements.iter().enumerate() {
        let serial = measurements
            .iter()
            .find(|s| s.policy == m.policy && s.shards == 1)
            .expect("serial baseline present");
        let rounds_per_sec = ROUNDS as f64 / m.best_seconds;
        let msgs_per_sec = rounds_per_sec * messages_per_round;
        let speedup = serial.best_seconds / m.best_seconds;
        json.push_str(&format!(
            "    {{\"policy\": \"{}\", \"engine\": \"{}\", \"workers\": {}, \"rounds\": {ROUNDS}, \"best_seconds\": {:.4}, \"rounds_per_sec\": {:.2}, \"messages_per_sec\": {:.0}, \"speedup_vs_serial\": {:.3}}}{}\n",
            m.policy.label(),
            engine_label(m.shards),
            m.shards,
            m.best_seconds,
            rounds_per_sec,
            msgs_per_sec,
            speedup,
            if i + 1 == measurements.len() { "" } else { "," }
        ));
    }
    json.push_str("  ]\n}\n");

    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_route.json");
    std::fs::write(path, &json).expect("write BENCH_route.json");
    eprintln!("[route-bench] wrote {path}");
}

/// Smoke check for test runs: under every policy, one routed round of
/// the serial path and the 4-way parallel path agree on metrics and on
/// every mailbox.
fn smoke() {
    let n = 512;
    let flat = make_staged_small(n);
    for policy in Policy::ALL {
        let mut serial: EngineCore<PointerList> = EngineCore::new(n, SEED);
        let mut parallel: EngineCore<PointerList> = EngineCore::new(n, SEED);
        policy.configure(&mut serial);
        policy.configure(&mut parallel);
        let mut pool_a = BufferPool::new();
        let mut pool_b = BufferPool::new();

        serial.begin_round();
        parallel.begin_round();
        let mut one_shard = vec![flat.clone()];
        route_staged(&mut serial, &mut one_shard, n, &mut pool_a, None);
        let shard_len = n.div_ceil(4);
        let mut four_shards = split_shards(&flat, n, 4);
        route_staged(
            &mut parallel,
            &mut four_shards,
            shard_len,
            &mut pool_b,
            None,
        );
        serial.finish_round();
        parallel.finish_round();

        assert_eq!(
            serial.metrics(),
            parallel.metrics(),
            "{}: metrics diverged",
            policy.label()
        );
        for (i, (a, b)) in serial
            .step_state()
            .inboxes
            .iter()
            .zip(parallel.step_state().inboxes.iter())
            .enumerate()
        {
            assert_eq!(a, b, "{}: mailbox {} diverged", policy.label(), i);
        }
    }
    eprintln!("[route-bench] smoke ok: serial and parallel:4 routers agree under every policy");
}

/// A smaller instance of [`make_staged`] for the smoke check.
fn make_staged_small(n: usize) -> Vec<Envelope<PointerList>> {
    let mut staged = Vec::with_capacity(n * FAN_OUT);
    for src in 0..n {
        for k in 0..FAN_OUT {
            let dst = (src.wrapping_mul(2_654_435_761) + k * 40_503 + 1) % n;
            let payload: PointerList = [NodeId::new(dst as u32), NodeId::new(src as u32)]
                .as_slice()
                .into();
            staged.push(Envelope::new(
                NodeId::new(src as u32),
                NodeId::new(dst as u32),
                payload,
            ));
        }
    }
    staged
}

fn main() {
    // Cargo passes `--bench` when launched via `cargo bench`; under
    // `cargo test` (or a bare run) stay fast and skip the timed pass.
    if !std::env::args().any(|a| a == "--bench") {
        smoke();
        return;
    }
    let mut criterion = Criterion::default().configure_from_args();
    bench_route(&mut criterion);
    write_json_summary();
}
