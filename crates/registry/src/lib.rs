#![warn(missing_docs)]
#![forbid(unsafe_code)]

//! The motivating application of resource discovery: a
//! **coordination-free resource directory**.
//!
//! Harchol-Balter, Leighton and Lewin posed resource discovery as the
//! bootstrap problem of cooperating machines: before they can share
//! *resources*, they must learn who exists. This crate supplies the
//! "after": once discovery has given every machine the same membership,
//! a deterministic placement function (rendezvous / highest-random-weight
//! hashing, [`placement`]) assigns every resource key an owner that
//! every machine computes identically — no further rounds of
//! coordination, ever. [`Directory`](directory::Directory) wraps the
//! placement into lookups and membership-change diffs, and
//! [`service`] runs the whole pipeline — discovery, then registration,
//! then lookups — inside the simulator.
//!
//! The headline property, tested and property-tested here, is *minimal
//! disruption*: when the membership changes by one machine, only the
//! keys owned by that machine move.
//!
//! # Example
//!
//! ```
//! use rd_registry::directory::Directory;
//! use rd_sim::NodeId;
//!
//! let members: Vec<NodeId> = (0..8).map(NodeId::new).collect();
//! let dir = Directory::new(members.clone());
//! let owner = dir.owner(42);
//! assert!(members.contains(&owner));
//! assert_eq!(owner, Directory::new(members).owner(42), "deterministic");
//! ```

pub mod directory;
pub mod hash;
pub mod placement;
pub mod service;

pub use directory::Directory;
