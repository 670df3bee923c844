#![warn(missing_docs)]
#![forbid(unsafe_code)]

//! Directed-graph substrate for the resource-discovery reproduction.
//!
//! This crate provides everything the simulator and the discovery
//! algorithms need to know about *knowledge graphs*:
//!
//! * [`DiGraph`] — a compact adjacency-list directed graph,
//! * [`UnionFind`] — disjoint sets with union-by-rank and path compression,
//! * connectivity analysis ([`connectivity`]) — weak components, Tarjan
//!   strongly connected components, reachability,
//! * structural metrics ([`metrics`]) — BFS distances, eccentricity,
//!   diameter of the undirected closure,
//! * a topology zoo ([`topology`]) — the fourteen initial knowledge-graph
//!   families used throughout the evaluation (paths, trees, random k-out
//!   graphs, clique chains, hypercubes, …), all guaranteed weakly
//!   connected.
//!
//! # Example
//!
//! ```
//! use rd_graphs::{topology::Topology, connectivity};
//!
//! let g = Topology::KOut { k: 3 }.generate(128, 42);
//! assert_eq!(g.node_count(), 128);
//! assert!(connectivity::is_weakly_connected(&g));
//! ```

pub mod connectivity;
pub mod digraph;
pub mod metrics;
pub mod topology;
pub mod unionfind;

pub use digraph::DiGraph;
pub use topology::Topology;
pub use unionfind::UnionFind;
