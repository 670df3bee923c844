#![forbid(unsafe_code)]

//! rd-obs: structured telemetry, run archives, and inspection tooling
//! for resource-discovery runs.
//!
//! The crate sits *below* the engines in the dependency graph: rd-sim,
//! rd-exec, and the drivers attach a [`Recorder`] when observability is
//! requested and leave it `None` otherwise. Two invariants define the
//! design:
//!
//! 1. **Zero cost when disabled.** An engine with no recorder never
//!    reads a clock and never branches beyond one `Option` check per
//!    phase.
//! 2. **Wall-clock never feeds protocol state.** The recorder is
//!    write-only from the engine's perspective: spans, round rows, and
//!    registry metrics are produced from deterministic values plus
//!    `Instant` reads, and nothing flows back. Attaching the archive,
//!    the causal tracer or the profiler therefore leaves runs
//!    bit-identical across engines and worker counts (property-tested
//!    in `tests/prop_engine_equivalence.rs`).
//!
//! A run has one export: the JSONL run archive, written by
//! [`JsonlArchiveSink`] (one schema with optional sections — see
//! [`archive`]). The `rd-inspect` binary summarizes, diffs, validates
//! and renders views of archives.
//!
//! Causal tracing ([`trace`]) extends the same contract to message
//! provenance: the engines collect a [`CausalTrace`] — the per-run
//! knowledge-provenance DAG of first-delivery edges — strictly outside
//! the determinism boundary, the driver attaches it to the recorder,
//! and the archive exports it as its causal section.
//! [`critical_path`] turns the DAG into the `rd-inspect why`/`path`
//! narratives.
//!
//! Every span-derived number — phase and worker summaries, the
//! `worker_imbalance` gauge, the profile — comes out of one fold over
//! the stored spans at finish ([`prof`]). Profiling layers cost
//! attribution on it: enabling [`Recorder::with_profiling`] yields a
//! [`ProfileReport`] (per-phase ns/envelope, shard
//! utilization/imbalance, memory timeline) and the archive's
//! `profile_*` section, which `rd-inspect flame` renders as folded
//! stacks for flamegraph tooling.
//!
//! Everything here reads a run after it has finished — the paper's
//! claims are round and message counts, and the evidence for them comes
//! from many finished runs, not from watching one. The one stream out
//! of a run in progress is the driver's rate-limited stderr heartbeat
//! (`ObsSpec::with_heartbeat` in rd-core).

pub mod archive;
pub mod critical_path;
pub mod hist;
pub mod inspect;
pub mod json;
pub mod prof;
pub mod recorder;
pub mod registry;
pub mod sink;
pub mod span;
pub mod trace;

pub use hist::Histogram;
pub use prof::ProfileReport;
pub use recorder::{DropTally, ObsReport, Recorder, RoundObs, RunMeta, RunOutcomeObs};
pub use registry::MetricsRegistry;
pub use sink::JsonlArchiveSink;
pub use span::{Phase, SpanEvent};
pub use trace::{CausalTrace, ProvEdge};
