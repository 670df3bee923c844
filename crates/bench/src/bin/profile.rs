//! Phase-level profile of the sequential round hot path.
//!
//! Runs the exec-bench gossip workload (the same bounded-gossip node the
//! `exec` bench times) on the sequential engine with a sink-less
//! profiling recorder attached, then prints the per-phase wall-clock
//! breakdown the profiler attributed over all rounds — the first stop
//! when attacking the per-round constant factor. The table is derived
//! from the same [`ProfileReport`] the archive exports, so this binary
//! and `rd-inspect profile` can never disagree.
//!
//! [`ProfileReport`]: rd_obs::ProfileReport
//!
//! ```text
//! cargo run --release -p rd-bench --bin profile [-- --n LOG2_N] [--rounds R]
//! ```
//!
//! CI runs this at n=2^14 for one round and asserts the breakdown is
//! emitted (every phase line present, percentages summing to ~100).

use rd_bench::workload::{self, SEED};
use rd_obs::{Recorder, RunMeta, RunOutcomeObs};
use rd_sim::{Engine, RoundEngine};

fn main() {
    let args: Vec<String> = std::env::args().collect();
    let flag = |name: &str, default: u64| -> u64 {
        args.iter()
            .position(|a| a == name)
            .and_then(|i| args.get(i + 1))
            .and_then(|v| v.parse().ok())
            .unwrap_or(default)
    };
    let log2_n = flag("--n", 14);
    let rounds = flag("--rounds", 8);
    let n = 1usize << log2_n;

    let nodes = workload::make_nodes(n, SEED);
    let recorder = Recorder::new(RunMeta {
        algorithm: "profile-gossip".into(),
        topology: "kout-3".into(),
        n,
        seed: SEED,
        engine: "sequential".into(),
        workers: 1,
        latency_model: None,
    })
    .with_profiling();
    let mut engine = Engine::new(nodes, SEED).with_obs(recorder);
    let start = std::time::Instant::now();
    for _ in 0..rounds {
        engine.step();
    }
    let wall = start.elapsed().as_secs_f64();
    let messages = engine.metrics().total_messages();
    // Order-sensitive digest of every node's final knowledge: any
    // divergence in merge results (content *or* order) changes it, so
    // workload rewrites can be checked for bit-identity, not just
    // message-count identity.
    let state_digest: u64 = engine
        .nodes()
        .iter()
        .flat_map(|g| g.known.iter().enumerate())
        .fold(0u64, |acc, (pos, id)| {
            acc.wrapping_mul(0x9E37_79B9_7F4A_7C15)
                .wrapping_add((id.index() as u64) << 1)
                .wrapping_add(pos as u64)
        });
    let recorder = engine.take_obs().expect("recorder attached");
    let report = recorder
        .finish(
            RunOutcomeObs {
                verdict: "profile".into(),
                completed: true,
                sound: true,
                rounds,
                messages,
                pointers: engine.metrics().total_pointers(),
                trace_events: 0,
                trace_overflow: 0,
                last_progress: None,
            },
            &[],
            &[],
            &[],
            &[],
        )
        .expect("sink-less finish cannot fail");

    let profile = report.profile.expect("profiling was enabled");
    let total: u64 = profile.phases.iter().map(|p| p.total_ns).sum();
    println!(
        "profile: n=2^{log2_n} ({n} nodes), {rounds} round(s), {messages} messages, state digest {state_digest:#018x}, wall {:.3}s ({:.1} rounds/s)",
        wall,
        rounds as f64 / wall
    );
    println!("phase breakdown (aggregated over rounds):");
    for p in &profile.phases {
        let pct = if total > 0 {
            p.total_ns as f64 / total as f64 * 100.0
        } else {
            0.0
        };
        println!(
            "  {:<16} {:>12.3} ms  {:>5.1}%  {:>10.1} ns/env",
            format!("{:?}", p.phase),
            p.total_ns as f64 / 1e6,
            pct,
            p.ns_per_envelope
        );
    }
    println!("  {:<16} {:>12.3} ms  100.0%", "total", total as f64 / 1e6);
    println!(
        "attribution: {:.1}% of round wall time covered",
        profile.coverage_pct
    );
}
