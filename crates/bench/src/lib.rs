#![forbid(unsafe_code)]

//! The `figures` table generator: regenerates every table and figure of
//! the evaluation defined in `DESIGN.md` §4.
//!
//! Each experiment lives in its own module under [`experiments`] and
//! returns renderable [`Table`](rd_analysis::Table)s plus the raw data,
//! so the `figures` binary, the integration tests, and EXPERIMENTS.md
//! all draw from the same code path:
//!
//! ```text
//! cargo run --release -p rd-bench --bin figures           # everything, full profile
//! cargo run --release -p rd-bench --bin figures -- --quick t1 f1
//! ```
//!
//! Wall-clock performance is not measured here: the repository's one
//! perf reference is the standalone `benchmark/` package declared by
//! `BENCHMARK.json`.

pub mod experiments;
pub mod profile;

pub use profile::Profile;
