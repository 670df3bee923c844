#![warn(missing_docs)]
#![forbid(unsafe_code)]

//! # resource-discovery
//!
//! A Rust reproduction of *"Distributed Resource Discovery in
//! Sub-Logarithmic Time"* (Bernhard Haeupler & Dahlia Malkhi, ACM PODC
//! 2015): the resource-discovery problem, a reconstructed
//! cluster-merging algorithm with sub-logarithmic round complexity on
//! low-diameter knowledge graphs, every classic baseline, a
//! deterministic synchronous network simulator, and a benchmark harness
//! that regenerates the full evaluation.
//!
//! This umbrella crate re-exports the workspace members:
//!
//! * [`graphs`] (`rd-graphs`) — knowledge-graph topologies and analysis,
//! * [`obs`] (`rd-obs`) — telemetry, run archives, and the inspection
//!   tooling,
//! * [`sim`] (`rd-sim`) — the deterministic round-based simulator,
//! * [`exec`] (`rd-exec`) — the sharded multi-threaded round engine,
//! * [`core`] (`rd-core`) — the discovery algorithms, verification, and
//!   the one-call [`run`] entry point,
//! * [`analysis`] (`rd-analysis`) — statistics, scaling-law fitting, and
//!   the sweep driver,
//! * [`scenarios`] (`rd-scenarios`) — the declarative fault-campaign
//!   suite.
//!
//! # Quickstart
//!
//! ```
//! use resource_discovery::prelude::*;
//!
//! // 256 machines, each initially knowing 3 random peers.
//! let config = RunConfig::new(Topology::KOut { k: 3 }, 256, 42);
//! let report = run(AlgorithmKind::Hm(Default::default()), &config);
//!
//! assert!(report.completed, "every machine discovered every other");
//! assert!(report.sound);
//! println!(
//!     "discovered {} machines in {} rounds with {} messages",
//!     report.n, report.rounds, report.messages
//! );
//! ```
//!
//! See `README.md` for the architecture tour, `DESIGN.md` for the
//! reconstruction notes, and `EXPERIMENTS.md` for the measured
//! evaluation. Runnable scenarios live in `examples/`.

pub use rd_analysis as analysis;
pub use rd_core as core;
pub use rd_exec as exec;
pub use rd_graphs as graphs;
pub use rd_obs as obs;
pub use rd_scenarios as scenarios;
pub use rd_sim as sim;

pub use rd_core::runner::run;

/// The two names the standalone `benchmark/` package imports; the
/// ROADMAP item *One engine and one metric store* deletes this module
/// along with the benchmark's use of them.
pub mod event {
    pub use rd_sim::LatencyModel;
    use rd_sim::{Engine, Node, RoundEngine};
    /// Builds the serial engine under a latency model.
    pub struct EventEngine;
    impl EventEngine {
        /// `Engine::new(nodes, seed).with_latency(latency)`.
        #[allow(clippy::new_ret_no_self)]
        pub fn new<N: Node>(nodes: Vec<N>, seed: u64, latency: LatencyModel) -> Engine<N> {
            Engine::new(nodes, seed).with_latency(latency)
        }
    }
}

/// The names most programs need, in one import.
pub mod prelude {
    pub use rd_analysis::{summarize, Table};
    pub use rd_core::algorithms::hm::{HmConfig, HmDiscovery, MergeRule};
    pub use rd_core::gossip::{run_gossip, GossipStrategy};
    pub use rd_core::runner::{
        run, AlgorithmKind, Completion, EngineKind, ObsSpec, RunConfig, RunReport, RunVerdict,
    };
    pub use rd_core::{problem, verify, DiscoveryAlgorithm, KnowledgeSet, KnowledgeView};
    pub use rd_exec::ShardedEngine;
    pub use rd_graphs::{connectivity, metrics, DiGraph, Topology};
    pub use rd_obs::{JsonlArchiveSink, Recorder, RunMeta};
    pub use rd_sim::{
        ChurnSpec, DropCause, DropTally, Engine, FaultPlan, LatencyModel, LinkLossSpec, NodeId,
        RetryPolicy, RoundEngine, SuppressionSpec,
    };
}
