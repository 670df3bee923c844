#![warn(missing_docs)]
#![forbid(unsafe_code)]

//! Resource-discovery algorithms: the reconstructed Haeupler–Malkhi
//! sub-logarithmic protocol and every baseline it is evaluated against.
//!
//! This crate is the primary contribution of the reproduction of
//! *"Distributed Resource Discovery in Sub-Logarithmic Time"*
//! (Haeupler & Malkhi, PODC 2015). See `DESIGN.md` at the repository root
//! for the problem statement, the reconstruction assumptions, and the
//! experiment index.
//!
//! # Contents
//!
//! * [`knowledge`] — the per-node knowledge set: one learning-order
//!   list with a fresh window and a bulk payload merge,
//! * [`problem`] — instance construction from an initial knowledge graph
//!   and the two standard completion predicates,
//! * [`algorithms`] — the six discovery protocols:
//!   [`Flooding`](algorithms::flooding::Flooding),
//!   [`Swamping`](algorithms::swamping::Swamping),
//!   [`RandomPointerJump`](algorithms::random_pointer_jump::RandomPointerJump),
//!   [`NameDropper`](algorithms::name_dropper::NameDropper),
//!   [`PointerDoubling`](algorithms::pointer_doubling::PointerDoubling),
//!   and [`HmDiscovery`](algorithms::hm::HmDiscovery) (the paper's
//!   algorithm, with reliability layer and leader-crash failover),
//! * [`gossip`] — direct-addressing gossip (the PODC '14 sibling
//!   primitive) with a classic push–pull baseline,
//! * [`runner`] — one-call execution of `(algorithm, topology, n, seed)`
//!   producing a full complexity report,
//! * [`verify`] — harness-side soundness checks (no fabricated
//!   identifiers, knowledge monotonicity, completion validity).
//!
//! # Quickstart
//!
//! ```
//! use rd_core::runner::{run, AlgorithmKind, RunConfig};
//! use rd_graphs::Topology;
//!
//! let report = run(
//!     AlgorithmKind::Hm(Default::default()),
//!     &RunConfig::new(Topology::KOut { k: 3 }, 256, 7),
//! );
//! assert!(report.completed);
//! assert!(report.rounds < 60);
//! ```

pub mod algorithms;
pub mod gossip;
pub mod knowledge;
pub mod problem;
pub mod runner;
pub mod verify;

pub use algorithms::{DiscoveryAlgorithm, KnowledgeView};
pub use knowledge::KnowledgeSet;
pub use runner::{run, AlgorithmKind, Completion, EngineKind, RunConfig, RunReport, RunVerdict};
