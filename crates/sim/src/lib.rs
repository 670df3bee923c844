#![warn(missing_docs)]
#![forbid(unsafe_code)]

//! A deterministic synchronous message-passing simulator.
//!
//! This crate is the execution substrate for the resource-discovery
//! reproduction. It models the classic synchronous *direct addressing*
//! network of the resource-discovery literature (Harchol-Balter–Leighton–
//! Lewin '99, Haeupler–Malkhi '14/'15):
//!
//! * computation proceeds in rounds; messages sent in round `t` are
//!   delivered at the start of round `t + 1`;
//! * a node may address a message to *any* node whose [`NodeId`] it has
//!   learned (knowing an identifier is knowing an address);
//! * message size is unbounded, but every message's cost is accounted in
//!   *pointers* (identifiers carried) and *bits*, the complexity measures
//!   the literature reports.
//!
//! That round is one latency model among several: [`Engine::with_latency`]
//! gives every message a [`LatencyModel`] draw of whole ticks instead
//! (constant, uniform, heavy-tailed, asymmetric, grey-failure), routed
//! by the same kernel, so a round reads as one tick of simulated time.
//!
//! The simulator is fully deterministic: node programs receive
//! per-`(seed, node, round)` random generators, so a run is reproducible
//! from `(protocol, topology, seed)` alone, independent of iteration
//! order or platform.
//!
//! # Example: a two-node ping-pong protocol
//!
//! ```
//! use rd_sim::{Engine, Envelope, MessageCost, Node, NodeId, RoundContext, RoundEngine};
//!
//! #[derive(Clone, Debug)]
//! struct Ping;
//! impl MessageCost for Ping {
//!     fn pointers(&self) -> usize { 0 }
//! }
//!
//! struct Player { peer: NodeId, hits: u32 }
//! impl Node for Player {
//!     type Msg = Ping;
//!     fn on_round(
//!         &mut self,
//!         inbox: &mut Vec<Envelope<Ping>>,
//!         ctx: &mut RoundContext<'_, Ping>,
//!     ) {
//!         if ctx.round() == 0 && ctx.id() == NodeId::new(0) {
//!             ctx.send(self.peer, Ping); // serve
//!         }
//!         for _ in inbox.drain(..) {
//!             self.hits += 1;
//!             if self.hits < 3 {
//!                 ctx.send(self.peer, Ping); // return
//!             }
//!         }
//!     }
//! }
//!
//! let players = vec![
//!     Player { peer: NodeId::new(1), hits: 0 },
//!     Player { peer: NodeId::new(0), hits: 0 },
//! ];
//! let mut engine = Engine::new(players, 42);
//! let outcome = engine.run_until(20, |nodes| nodes.iter().all(|p| p.hits >= 2));
//! assert!(outcome.completed);
//! assert_eq!(outcome.rounds, 5);
//! assert_eq!(engine.metrics().total_messages(), 5);
//! ```

pub mod engine;
pub mod engine_core;
pub mod faults;
pub mod id;
pub mod latency;
pub mod message;
pub mod metrics;
pub mod node;
pub mod pool;
pub mod rng;
pub mod trace;

pub use engine::{timed_phase, Engine, RoundEngine, RoundShell, RunOutcome};
pub use engine_core::{
    retry_fate, route_fate, step_node, step_shard, unit_latency, EngineCore, FaultGuards, Mailbox,
    RetryPolicy, RouteFate, StepCtx, StepState,
};
pub use faults::{ChurnSpec, DropCause, FaultPlan, LinkLossSpec, SuppressionSpec};
pub use id::NodeId;
pub use latency::LatencyModel;
pub use message::{Envelope, MessageCost, PointerList};
pub use metrics::{round_obs, DropTally, NodeLane, RoundMetrics, RunMetrics};
pub use node::{Node, RoundContext, SuspectView};
pub use pool::{BufferPool, PoolStats};
pub use trace::{Trace, TraceEvent};

/// The last path segment of `T`'s type name — e.g. `Rumor` for
/// `my_crate::gossip::Rumor`. The engines use it to register message
/// kinds with the profiler under a stable, human-readable label.
pub fn short_type_name<T>() -> &'static str {
    std::any::type_name::<T>()
        .rsplit("::")
        .next()
        .unwrap_or("msg")
}
