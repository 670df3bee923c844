#![warn(missing_docs)]
#![forbid(unsafe_code)]

//! Statistics, scaling-model fitting, table rendering, and the
//! experiment sweep driver for the resource-discovery reproduction.
//!
//! The `figures` harness (`rd-bench`) uses this crate to turn raw
//! [`RunReport`](rd_core::RunReport)s into the tables and figure series
//! listed in `DESIGN.md` §4:
//!
//! * [`stats`] — descriptive statistics over repeated seeds,
//! * [`fit`] — least-squares fits of round counts against the candidate
//!   scaling laws (`log log n`, `log n`, `log² n`, `n`), the tool that
//!   turns "HM looks flat" into "HM fits `a + b·log log n` with R² ≈ 1",
//! * [`table`] — fixed-width table and CSV rendering,
//! * [`experiment`] — the multi-threaded `(algorithm × n × seed)` sweep
//!   driver.
//!
//! # Example
//!
//! ```
//! use rd_analysis::experiment::{sweep, SweepSpec};
//! use rd_core::runner::AlgorithmKind;
//! use rd_graphs::Topology;
//!
//! let spec = SweepSpec {
//!     kinds: vec![AlgorithmKind::PointerDoubling],
//!     topology: Topology::KOut { k: 3 },
//!     ns: vec![64, 128],
//!     seeds: 1..4,
//!     ..Default::default()
//! };
//! let cells = sweep(&spec);
//! assert_eq!(cells.len(), 2);
//! assert_eq!(cells[0].completion_rate, 1.0);
//! ```

pub mod experiment;
pub mod fit;
pub mod plot;
pub mod stats;
pub mod table;

pub use experiment::{sweep, SweepCell, SweepSpec};
pub use fit::{best_fit, fit_model, FitResult, ScalingModel};
pub use plot::Plot;
pub use stats::{summarize, Summary};
pub use table::Table;
